//! Workload set-up, the closed measurement loop, output checks and the
//! end-to-end metrics.

use crate::{attack, flow, layers, verify};
use obs::{ChromeTraceSink, Obs};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Timed set-ups per `--trace 0` run: as many as fit in this many wall
/// seconds, and at least `SETUP_MIN_REPEATS`; `setup_s` is the median of
/// their CPU times. A set-up takes milliseconds, so one alone would read
/// mostly noise.
const SETUP_SECONDS: f64 = 1.0;
const SETUP_MIN_REPEATS: usize = 5;

/// Untimed set-ups run first, for this long: a fresh process's first
/// milliseconds run slower than its steady state.
const SETUP_WARMUP_S: f64 = 0.2;

/// The benchmark's own span around every traced op, so that the share of
/// op time the layer spans cover can be read from the trace.
pub const OP_SPAN: &str = "perfbench.op";

/// Timed passes per `--trace 0` run at least, so that every instance
/// repeats and its deterministic counts are checked.
const MIN_PASSES: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LockFlow,
    Verify,
    SatRecover,
    SatBmc,
}

impl Kind {
    const ALL: [(Kind, &'static str); 4] = [
        (Kind::LockFlow, "lock-flow"),
        (Kind::Verify, "verify"),
        (Kind::SatRecover, "sat-recover"),
        (Kind::SatBmc, "sat-bmc"),
    ];

    pub fn names() -> String {
        Kind::ALL.map(|(_, n)| n).join(", ")
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.iter().find(|(_, n)| *n == name).map(|(k, _)| *k)
    }

    fn name(self) -> &'static str {
        Kind::ALL.iter().find(|(k, _)| *k == self).map(|(_, n)| *n).expect("every kind is named")
    }

    fn setup(self, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::LockFlow => Box::new(flow::LockFlow::setup(seed, size)?),
            Kind::Verify => Box::new(verify::Verify::setup(seed, size)?),
            Kind::SatRecover => Box::new(attack::SatRecover::setup(seed, size)?),
            Kind::SatBmc => Box::new(attack::SatBmc::setup(seed, size)?),
        })
    }

    /// What one timed op is, for the summary.
    fn op_label(self) -> &'static str {
        match self {
            Kind::LockFlow => "design through the whole flow",
            Kind::Verify => "kernel differential verification (correct + 99 wrong keys x 2)",
            Kind::SatRecover => "exact key recovery of one locked corpus kernel",
            Kind::SatBmc => "bounded portfolio attack on one locked kernel",
        }
    }
}

/// Instance-set size: the measured benchmark, or a seconds-long one for
/// the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Named counts one instance produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Counts that must repeat exactly whenever the instance runs again.
    pub fixed: Vec<(&'static str, u64)>,
    /// Counts reported per op that may vary between repeats, such as a
    /// racing portfolio's rounds.
    pub free: Vec<(&'static str, u64)>,
}

/// One workload: a fixed, seed-derived instance set.
pub trait Workload {
    /// Instances in one pass.
    fn len(&self) -> usize;

    /// Runs instance `i` through the public layer calls, each inside its
    /// own span on `obs`, and checks the output against the instance's
    /// independent reference. `Err` is a failed operation.
    fn run(&self, i: usize, obs: &Obs) -> Result<Counts, String>;

    /// Traced runs only: extra untimed work on instance `i` that feeds
    /// per-layer metrics, such as replaying its pairs runner by runner.
    fn replay(&self, _i: usize, _obs: &Obs) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// What one measurement phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// CPU seconds of each timed op, all threads (replays excluded).
    pub op_s: Vec<f64>,
    /// Wall seconds of each timed op.
    pub op_wall_s: Vec<f64>,
    /// Each instance's op CPU times, in seconds.
    pub inst_s: Vec<Vec<f64>>,
    /// Wall seconds of the whole measurement loop, every phase and
    /// replay included.
    pub wall_s: f64,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Sums of every count over the phase.
    pub totals: BTreeMap<&'static str, u64>,
    /// Largest single value of every count.
    pub maxima: BTreeMap<&'static str, u64>,
}

impl Phase {
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    fn add(&mut self, name: &'static str, v: u64) {
        *self.totals.entry(name).or_default() += v;
        let m = self.maxima.entry(name).or_default();
        *m = (*m).max(v);
    }
}

/// Runs whole passes over `w` until `seconds` would be exceeded, with at
/// least `min_passes` and at most `max_passes`. Every op runs once under
/// each handle of `obs`, in an order that rotates from pass to pass, and
/// lands in that handle's phase, so the phases pair op by op. `first`
/// holds each instance's fixed counts from its first run; a later run
/// that differs is a failure.
pub(crate) fn measure(
    w: &dyn Workload,
    obs: &[&Obs],
    seconds: f64,
    min_passes: usize,
    max_passes: usize,
    first: &mut [Option<Vec<(&'static str, u64)>>],
    log: &mut String,
) -> Vec<Phase> {
    let mut phases: Vec<Phase> = obs
        .iter()
        .map(|_| Phase { inst_s: vec![Vec::new(); w.len()], ..Phase::default() })
        .collect();
    let mut failed = 0;
    let t0 = Instant::now();
    let mut passes = 0;
    loop {
        for (i, seen) in first.iter_mut().enumerate() {
            for j in 0..obs.len() {
                let j = (j + passes) % obs.len();
                let (o, p) = (obs[j], &mut phases[j]);
                let (t, wall) = (cpu_s(), Instant::now());
                let got = catch_unwind(AssertUnwindSafe(|| {
                    let _s = o.span(OP_SPAN);
                    w.run(i, o)
                }));
                let dt = cpu_s() - t;
                p.op_wall_s.push(wall.elapsed().as_secs_f64());
                p.op_s.push(dt);
                p.inst_s[i].push(dt);
                p.attempted += 1;
                let verdict = match got {
                    Ok(Ok(c)) => match seen {
                        Some(prev) if *prev != c.fixed => {
                            Err(format!("deterministic counts changed: {prev:?} -> {:?}", c.fixed))
                        }
                        _ => {
                            for &(name, v) in c.fixed.iter().chain(&c.free) {
                                p.add(name, v);
                            }
                            *seen = Some(c.fixed);
                            Ok(())
                        }
                    },
                    Ok(Err(e)) => Err(e),
                    Err(_) => Err("panicked".to_string()),
                };
                if let Err(e) = verdict {
                    p.failed += 1;
                    failed += 1;
                    if failed <= 5 {
                        let _ = writeln!(log, "FAILED instance {i}: {e}");
                    }
                }
            }
            for (o, p) in obs.iter().zip(&mut phases) {
                if o.enabled() {
                    for (name, v) in w.replay(i, o) {
                        p.add(name, v);
                    }
                }
            }
        }
        passes += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let next_end = elapsed * (passes + 1) as f64 / passes as f64;
        if passes >= max_passes || (passes >= min_passes && next_end > seconds) {
            for p in &mut phases {
                (p.wall_s, p.passes) = (elapsed, passes);
            }
            return phases;
        }
    }
}

/// A finished run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines for standard error.
    pub summary: String,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a ratio with an empty base reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Nearest-rank percentile of `xs` (`q` in 0..=100).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99, p95, p90 and p75 of `xs` with at least ten
/// samples beyond it: `(q, value, samples beyond)`.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64, usize)> {
    [99, 95, 90, 75].into_iter().find_map(|q| {
        let v = percentile(xs, f64::from(q));
        let beyond = xs.iter().filter(|&&x| x > v).count();
        (beyond >= 10).then_some((q, v, beyond))
    })
}

/// Median of `xs`, the mean of the two middle values for an even count,
/// so that it does not depend on how many repeats a run fitted.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// CPU seconds this process has used so far, all threads included.
///
/// The benchmark times ops in CPU time, not wall time: on a shared
/// virtual machine the host takes the virtual CPUs away for stretches of
/// seconds to minutes (steal time), which moved wall-clock op times by
/// 30-60% between runs minutes apart, while the CPU time of the same
/// work stayed within a few percent. For ops that use the grid executor
/// or the portfolio this is the work of every thread, not the latency.
pub fn cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a live, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one workload once: set-up, then the timed loop (`trace` false)
/// or a loop that runs every op untraced and traced in turn (`trace`
/// true).
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, size: Size) -> Result<Report, String> {
    let mut log = String::new();
    if !trace {
        let warm = Instant::now();
        while warm.elapsed().as_secs_f64() < SETUP_WARMUP_S {
            kind.setup(seed, size)?;
        }
        let mut setup_s = Vec::new();
        let mut w = None;
        let timed = Instant::now();
        while setup_s.len() < SETUP_MIN_REPEATS || timed.elapsed().as_secs_f64() < SETUP_SECONDS {
            drop(w.take());
            let t = cpu_s();
            w = Some(kind.setup(seed, size)?);
            setup_s.push(cpu_s() - t);
        }
        let w = w.expect("at least one set-up");
        let mut first = vec![None; w.len()];
        let p = measure(&*w, &[&Obs::off()], seconds, MIN_PASSES, usize::MAX, &mut first, &mut log)
            .remove(0);
        let rss_mb = peak_rss_bytes()? as f64 / (1024.0 * 1024.0);
        let setup = median(&setup_s);
        let p50 = median(&p.op_s);
        let pass_s: f64 = p.inst_s.iter().map(|t| median(t)).sum();
        let metrics = vec![
            ("setup_s", setup, "s"),
            ("peak_rss_mb", rss_mb, "MB"),
            ("op_cpu_p50_ms", p50 * 1e3, "ms"),
            ("pass_cpu_s", pass_s, "s"),
        ];
        let n = p.op_s.len();
        let tail = match tail_percentile(&p.op_s) {
            Some((q, v, beyond)) => {
                format!("p{q} {:.3} ms ({n} samples, {beyond} beyond)", v * 1e3)
            }
            None => format!("no percentile above p50 has 10 of {n} samples beyond it"),
        };
        let wall_p50 = median(&p.op_wall_s);
        let _ = writeln!(
            log,
            "{}: one op = one {}; {n} ops in {} passes over {} instances, {:.1} s CPU in \
             {:.1} s wall",
            kind.name(),
            kind.op_label(),
            p.passes,
            w.len(),
            p.op_s.iter().sum::<f64>(),
            p.wall_s
        );
        let _ = writeln!(
            log,
            "  op CPU p50 {:.3} ms (wall {:.3} ms), {tail}; pass {pass_s:.4} s (each instance at its median of {} \
             repeats); set-up {setup:.4} s (median of {}); peak RSS {rss_mb:.1} MB",
            p50 * 1e3,
            wall_p50 * 1e3,
            p.passes,
            setup_s.len(),
        );
        let fail_frac = p.failed as f64 / p.attempted as f64;
        let named = match kind {
            Kind::LockFlow => format!(
                "design_p50_ms {:.3} ms, design {tail}, designs_per_s {:.2} 1/s",
                p50 * 1e3,
                w.len() as f64 / pass_s
            ),
            Kind::Verify => {
                let pairs = p.total(verify::PAIRS) as f64 / p.passes as f64;
                format!("verify_pairs_per_s {:.1} 1/s", pairs / pass_s)
            }
            Kind::SatRecover => format!("recover_s {pass_s:.4} s"),
            Kind::SatBmc => format!("bmc_s {pass_s:.4} s"),
        };
        let _ = writeln!(
            log,
            "  {named}, fail_frac {fail_frac:.4} ({} of {} ops)",
            p.failed, p.attempted
        );
        return Ok(Report {
            correct: p.failed == 0,
            attempted: p.attempted,
            failed: p.failed,
            metrics,
            summary: log,
        });
    }

    let w = kind.setup(seed, size)?;
    let rss_setup = peak_rss_bytes()?;
    let mut first = vec![None; w.len()];
    let sink = Arc::new(ChromeTraceSink::new());
    let obs = Obs::new(sink.clone());
    let mut phases =
        measure(&*w, &[&Obs::off(), &obs], seconds, 1, usize::MAX, &mut first, &mut log);
    let (traced, plain) = (phases.pop().expect("traced phase"), phases.remove(0));
    let rss_ops = peak_rss_bytes()?.saturating_sub(rss_setup);
    let trace = obs::analyze::parse_trace(&sink.to_json())?;
    let metrics = layers::per_layer(&trace, &obs, &plain, &traced, rss_ops);
    let _ = writeln!(
        log,
        "{} traced: {} passes, every op untraced and traced in turn ({:.1} s)",
        kind.name(),
        traced.passes,
        traced.wall_s
    );
    for (n, v, u) in &metrics {
        let _ = writeln!(log, "  {n:<32} {v:>16.4} {u}");
    }
    let (attempted, failed) = (plain.attempted + traced.attempted, plain.failed + traced.failed);
    Ok(Report { correct: failed == 0, attempted, failed, metrics, summary: log })
}

/// The `i`-th sub-seed of `seed` (SplitMix64), so every instance of a
/// run draws its own keys and stimuli from the one `--seed`.
pub fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
