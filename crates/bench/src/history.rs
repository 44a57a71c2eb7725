//! Perf trajectory across runs: `target/bench_history.jsonl`.
//!
//! A single checked-in `BENCH_sim.json` baseline answers "did this PR
//! regress?" but not "has this metric been sliding for a month?". Every
//! `reproduce -- bench-json` run appends one schema-tagged,
//! machine-fingerprinted line here, and `reproduce -- bench-history`
//! renders per-kernel per-metric trend tables with a robust regression
//! verdict: a Theil–Sen median pairwise slope (one outlier run cannot
//! tilt it) corroborated by a last-3-runs median against the prior
//! median. Runs from other machines or modes than the latest one are
//! filtered out — a laptop run appended between CI runs must not read
//! as a regression.

use crate::simjson::{BaselineRow, SimBenchRow};
use obs::json::{self, Value};
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag each history line carries.
pub const HISTORY_SCHEMA: &str = "tao-repro/bench-history/v1";

/// Metrics the trend tables track, with direction: `true` = higher is
/// better (throughput ratios, attack effort), `false` = lower is better
/// (latency cycles).
pub const HISTORY_METRICS: [(&str, bool); 7] = [
    ("cycles", false),
    ("fsmd_speedup", true),
    ("spec_speedup", true),
    ("vlog_speedup", true),
    ("grid_speedup", true),
    ("sat_dips", true),
    ("sat_conflicts", true),
];

/// A fractional shift of the last-3 median beyond this (in the bad
/// direction, with the slope agreeing) reads as `Regressing`; beyond it
/// in the good direction as `Improving`.
pub const HISTORY_SHIFT_THRESHOLD: f64 = 0.10;

/// This machine's history fingerprint (`os-arch-Ncpu`): coarse on
/// purpose — it separates "my laptop" from "CI" without hashing
/// anything volatile.
pub fn fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!("{}-{}-{}cpu", std::env::consts::OS, std::env::consts::ARCH, cpus)
}

/// One appended run parsed back from the jsonl.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRun {
    /// `full` / `smoke` — which sweep produced the rows.
    pub mode: String,
    /// Recording machine's [`fingerprint`].
    pub fingerprint: String,
    /// Unix seconds the run was appended.
    pub ts: u64,
    /// Per-kernel metric rows (same tolerant shape as the baseline
    /// parser's).
    pub kernels: Vec<BaselineRow>,
}

/// Serializes one history line (no trailing newline).
pub fn history_line(rows: &[SimBenchRow], mode: &str, fingerprint: &str, ts: u64) -> String {
    let mut out = format!(
        "{{\"schema\": \"{HISTORY_SCHEMA}\", \"mode\": \"{mode}\", \
         \"fingerprint\": \"{fingerprint}\", \"ts\": {ts}, \"kernels\": ["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cycles\": {}, \"fsmd_speedup\": {:.3}, \
             \"spec_speedup\": {:.3}, \"vlog_speedup\": {:.3}, \"grid_speedup\": {:.3}, \
             \"sat_dips\": {}, \"sat_conflicts\": {}, \"fsmd_tape\": {:.0}, \
             \"spec_cps\": {:.0}, \"vlog_tape\": {:.0}, \"grid_cps\": {:.0}}}",
            r.name,
            r.cycles,
            r.fsmd_speedup,
            r.spec_speedup,
            r.vlog_speedup,
            r.grid_speedup(),
            r.sat_dips,
            r.sat_conflicts,
            r.fsmd_tape_cps,
            r.spec_cps,
            r.vlog_tape_cps,
            r.grid_cps,
        );
    }
    out.push_str("]}");
    out
}

/// Appends one run to the history file (creating it and its parent
/// directory on first use), stamped with the current unix time and this
/// machine's fingerprint.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_history(path: &Path, rows: &[SimBenchRow], mode: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = history_line(rows, mode, &fingerprint(), ts);
    let mut text = std::fs::read_to_string(path).unwrap_or_default();
    text.push_str(&line);
    text.push('\n');
    std::fs::write(path, text)
}

/// Parses the history jsonl, skipping malformed or foreign-schema
/// lines (a corrupted append must not wedge the trend report).
pub fn parse_history(text: &str) -> Vec<HistoryRun> {
    let mut runs = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = json::parse(line) else { continue };
        if v.get("schema").and_then(Value::as_str) != Some(HISTORY_SCHEMA) {
            continue;
        }
        let (Some(mode), Some(fp), Some(ts), Some(kernels)) = (
            v.get("mode").and_then(Value::as_str),
            v.get("fingerprint").and_then(Value::as_str),
            v.get("ts").and_then(Value::as_f64),
            v.get("kernels").and_then(Value::as_arr),
        ) else {
            continue;
        };
        let kernels: Vec<BaselineRow> = kernels
            .iter()
            .filter_map(|k| {
                let name = k.get("name")?.as_str()?.to_string();
                let Value::Obj(m) = k else { return None };
                let metrics =
                    m.iter().filter_map(|(key, val)| Some((key.clone(), val.as_f64()?))).collect();
                Some(BaselineRow { name, metrics })
            })
            .collect();
        runs.push(HistoryRun {
            mode: mode.to_string(),
            fingerprint: fp.to_string(),
            ts: ts as u64,
            kernels,
        });
    }
    runs.sort_by_key(|r| r.ts);
    runs
}

/// Trend verdict for one (kernel, metric) series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendVerdict {
    /// Fewer than 3 comparable runs — no trend yet.
    Insufficient,
    /// No robust shift either way.
    Stable,
    /// The last-3 median moved the good way and the slope agrees.
    Improving,
    /// The last-3 median moved the bad way and the slope agrees.
    Regressing,
}

impl std::fmt::Display for TrendVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrendVerdict::Insufficient => "insufficient",
            TrendVerdict::Stable => "stable",
            TrendVerdict::Improving => "improving",
            TrendVerdict::Regressing => "REGRESSING",
        })
    }
}

/// One (kernel, metric) trend across the comparable runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Kernel name.
    pub kernel: String,
    /// Metric key.
    pub metric: String,
    /// Comparable runs the series spans.
    pub n: usize,
    /// First and latest values.
    pub first: f64,
    /// Latest value.
    pub last: f64,
    /// Theil–Sen median pairwise slope, as a fraction of the series
    /// median per run step (robust to one outlier run).
    pub slope_per_run: f64,
    /// Median of the last 3 runs relative to the median of the runs
    /// before them, minus 1 (the robust shift).
    pub shift: f64,
    /// The verdict.
    pub verdict: TrendVerdict,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Theil–Sen: the median of all pairwise slopes `(y_j - y_i)/(j - i)`,
/// normalized by the series median so it reads as fraction-per-run.
fn theil_sen_relative(ys: &[f64]) -> f64 {
    let mut slopes = Vec::new();
    for i in 0..ys.len() {
        for j in i + 1..ys.len() {
            slopes.push((ys[j] - ys[i]) / (j - i) as f64);
        }
    }
    let slope = median(&mut slopes);
    let scale = median(&mut ys.to_vec()).abs();
    if scale == 0.0 {
        0.0
    } else {
        slope / scale
    }
}

/// Computes the trend table over the runs comparable to the latest one
/// (same fingerprint and mode). Series shorter than 3 runs come back
/// [`TrendVerdict::Insufficient`]; a verdict of Regressing/Improving
/// needs the last-3 median to shift past [`HISTORY_SHIFT_THRESHOLD`]
/// in a direction the Theil–Sen slope agrees with.
pub fn history_trends(runs: &[HistoryRun]) -> Vec<TrendRow> {
    let Some(latest) = runs.last() else { return Vec::new() };
    let comparable: Vec<&HistoryRun> = runs
        .iter()
        .filter(|r| r.fingerprint == latest.fingerprint && r.mode == latest.mode)
        .collect();
    let mut out = Vec::new();
    for kernel in latest.kernels.iter().map(|k| k.name.clone()) {
        for (metric, higher_is_better) in HISTORY_METRICS {
            let ys: Vec<f64> = comparable
                .iter()
                .filter_map(|r| {
                    r.kernels.iter().find(|k| k.name == kernel).and_then(|k| k.metric(metric))
                })
                .collect();
            let (Some(&first), Some(&last)) = (ys.first(), ys.last()) else { continue };
            let n = ys.len();
            let (slope, shift, verdict) = if n < 3 {
                (0.0, 0.0, TrendVerdict::Insufficient)
            } else {
                let slope = theil_sen_relative(&ys);
                let k = 3.min(n - 1).max(1);
                let recent = median(&mut ys[n - k..].to_vec());
                let prior = median(&mut ys[..n - k].to_vec());
                let shift = if prior == 0.0 { 0.0 } else { recent / prior - 1.0 };
                // Orient both signals so positive = better.
                let sgn = if higher_is_better { 1.0 } else { -1.0 };
                let (good_shift, good_slope) = (shift * sgn, slope * sgn);
                let verdict = if good_shift < -HISTORY_SHIFT_THRESHOLD && good_slope < 0.0 {
                    TrendVerdict::Regressing
                } else if good_shift > HISTORY_SHIFT_THRESHOLD && good_slope > 0.0 {
                    TrendVerdict::Improving
                } else {
                    TrendVerdict::Stable
                };
                (slope, shift, verdict)
            };
            out.push(TrendRow {
                kernel: kernel.clone(),
                metric: metric.to_string(),
                n,
                first,
                last,
                slope_per_run: slope,
                shift,
                verdict,
            });
        }
    }
    out
}

/// Renders the trend table (regressions first, then by kernel/metric).
pub fn render_history(trends: &[TrendRow], runs: usize) -> String {
    let mut out = format!(
        "Bench history trends ({runs} runs on this machine+mode; \
         slope = Theil\u{2013}Sen %/run, shift = last-3 median vs prior)\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>4} {:>12} {:>12} {:>9} {:>8}  verdict",
        "kernel", "metric", "runs", "first", "last", "slope", "shift"
    );
    let mut sorted: Vec<&TrendRow> = trends.iter().collect();
    sorted.sort_by_key(|t| {
        (t.verdict != TrendVerdict::Regressing, t.kernel.clone(), t.metric.clone())
    });
    for t in sorted {
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:>4} {:>12.2} {:>12.2} {:>+8.1}% {:>+7.1}%  {}",
            t.kernel,
            t.metric,
            t.n,
            t.first,
            t.last,
            t.slope_per_run * 100.0,
            t.shift * 100.0,
            t.verdict,
        );
    }
    out
}

/// CI-sized history check: appends two synthetic runs to a scratch
/// file, parses them back, and asserts the trend table renders a row.
/// Returns a human-readable summary.
///
/// # Panics
///
/// Panics when the round-trip or the trend computation misbehaves.
pub fn bench_history_smoke() -> String {
    let path = std::path::PathBuf::from("target/bench_history_smoke.jsonl");
    let _ = std::fs::remove_file(&path);
    let mk = |speed: f64| crate::simjson::SimBenchRow {
        name: "gsm".into(),
        cycles: 1200,
        fsmd_tree_cps: 1.0e6,
        fsmd_tape_cps: speed,
        spec_cps: speed * 2.0,
        vlog_tree_cps: 1.0e6,
        vlog_tape_cps: 9.0e6,
        fsmd_speedup: speed / 1.0e6,
        spec_speedup: 2.0,
        vlog_speedup: 9.0,
        grid_cps: speed * 3.0,
        grid_workers: 1,
        sat_dips: 3,
        sat_conflicts: 1200,
        sat_ms: 10.0,
        grid_curve: Vec::new(),
    };
    append_history(&path, &[mk(3.0e6)], "smoke").expect("first append");
    append_history(&path, &[mk(3.3e6)], "smoke").expect("second append");
    let text = std::fs::read_to_string(&path).expect("history readable");
    let runs = parse_history(&text);
    assert_eq!(runs.len(), 2, "both appended runs parse back");
    assert_eq!(runs[0].kernels[0].name, "gsm");
    assert_eq!(runs[0].kernels[0].metric("cycles"), Some(1200.0));
    let trends = history_trends(&runs);
    assert!(!trends.is_empty(), "trend rows rendered");
    assert!(trends.iter().all(|t| t.verdict == TrendVerdict::Insufficient), "2 runs cannot trend");
    let table = render_history(&trends, runs.len());
    assert!(table.contains("gsm"), "{table}");
    format!(
        "bench-history-smoke: 2 synthetic runs appended and parsed back, {} trend rows \
         rendered (all `insufficient` as expected at n=2)\n{table}",
        trends.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ts: u64, fp: &str, mode: &str, speedup: f64) -> HistoryRun {
        HistoryRun {
            mode: mode.into(),
            fingerprint: fp.into(),
            ts,
            kernels: vec![BaselineRow {
                name: "gsm".into(),
                metrics: vec![("fsmd_speedup".into(), speedup), ("cycles".into(), 1000.0)],
            }],
        }
    }

    #[test]
    fn line_round_trips_through_the_parser() {
        let rows = vec![crate::simjson::SimBenchRow {
            name: "sobel".into(),
            cycles: 900,
            fsmd_tree_cps: 1.0e6,
            fsmd_tape_cps: 3.0e6,
            spec_cps: 6.0e6,
            vlog_tree_cps: 1.0e6,
            vlog_tape_cps: 8.0e6,
            fsmd_speedup: 3.0,
            spec_speedup: 2.0,
            vlog_speedup: 8.0,
            grid_cps: 9.0e6,
            grid_workers: 4,
            sat_dips: 2,
            sat_conflicts: 700,
            sat_ms: 4.0,
            grid_curve: Vec::new(),
        }];
        let line = history_line(&rows, "full", "linux-x86_64-8cpu", 1_700_000_000);
        let runs = parse_history(&line);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].mode, "full");
        assert_eq!(runs[0].fingerprint, "linux-x86_64-8cpu");
        assert_eq!(runs[0].ts, 1_700_000_000);
        let k = &runs[0].kernels[0];
        assert_eq!(k.name, "sobel");
        assert_eq!(k.metric("cycles"), Some(900.0));
        assert_eq!(k.metric("fsmd_speedup"), Some(3.0));
        assert_eq!(k.metric("sat_conflicts"), Some(700.0));
    }

    #[test]
    fn parser_skips_garbage_and_foreign_schemas() {
        let text = format!(
            "not json\n{{\"schema\": \"other/v9\", \"x\": 1}}\n{}\n",
            history_line(&[], "full", "f", 5)
        );
        let runs = parse_history(&text);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].ts, 5);
    }

    #[test]
    fn trends_filter_to_the_latest_fingerprint_and_mode() {
        // 4 CI runs and one interleaved laptop run that would otherwise
        // read as a massive regression.
        let runs = vec![
            run(1, "ci-4cpu", "full", 3.0),
            run(2, "ci-4cpu", "full", 3.1),
            run(3, "laptop-16cpu", "full", 9.0),
            run(4, "ci-4cpu", "full", 3.0),
            run(5, "ci-4cpu", "full", 3.05),
        ];
        let trends = history_trends(&runs);
        let t = trends.iter().find(|t| t.metric == "fsmd_speedup").unwrap();
        assert_eq!(t.n, 4, "laptop run excluded");
        assert_eq!(t.verdict, TrendVerdict::Stable);
    }

    #[test]
    fn sustained_drop_regresses_and_lower_is_better_inverts() {
        let speeds = [3.0, 3.0, 3.0, 2.0, 2.0, 1.9];
        let runs: Vec<HistoryRun> =
            speeds.iter().enumerate().map(|(i, &s)| run(i as u64, "ci", "full", s)).collect();
        let trends = history_trends(&runs);
        let t = trends.iter().find(|t| t.metric == "fsmd_speedup").unwrap();
        assert_eq!(t.verdict, TrendVerdict::Regressing, "{t:?}");
        assert!(t.slope_per_run < 0.0);

        // cycles falling is an *improvement* (lower is better).
        let mut falling = Vec::new();
        for (i, c) in [1000.0, 1000.0, 990.0, 800.0, 790.0, 780.0].iter().enumerate() {
            let mut r = run(i as u64, "ci", "full", 3.0);
            r.kernels[0].metrics[1].1 = *c;
            falling.push(r);
        }
        let trends = history_trends(&falling);
        let t = trends.iter().find(|t| t.metric == "cycles").unwrap();
        assert_eq!(t.verdict, TrendVerdict::Improving, "{t:?}");

        let table = render_history(&trends, falling.len());
        assert!(table.contains("cycles"));
        assert!(table.contains("improving"));
    }

    #[test]
    fn one_outlier_run_cannot_tilt_the_slope() {
        // Theil–Sen over [3, 3, 30, 3, 3, 3]: the spike is one run, the
        // median pairwise slope stays ~0 and the verdict stays stable.
        let speeds = [3.0, 3.0, 30.0, 3.0, 3.0, 3.0];
        let runs: Vec<HistoryRun> =
            speeds.iter().enumerate().map(|(i, &s)| run(i as u64, "ci", "full", s)).collect();
        let t = history_trends(&runs);
        let t = t.iter().find(|t| t.metric == "fsmd_speedup").unwrap();
        assert_eq!(t.verdict, TrendVerdict::Stable, "{t:?}");
        assert!(t.slope_per_run.abs() < 0.05, "{}", t.slope_per_run);
    }

    #[test]
    fn short_series_are_insufficient() {
        let runs = vec![run(1, "ci", "full", 3.0), run(2, "ci", "full", 2.0)];
        let trends = history_trends(&runs);
        assert!(trends.iter().all(|t| t.verdict == TrendVerdict::Insufficient));
        assert!(history_trends(&[]).is_empty());
    }
}
