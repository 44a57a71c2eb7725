//! `verify`: the paper's validation protocol (Sec. 4.1). Each op is one
//! `tao::differential_verify` of one locked kernel: the correct key and
//! 99 wrong keys, two stimuli each, on the rtl tape, the vlog tape and
//! the IR interpreter, sharded over the program's grid executor.

use crate::run::{derive, Counts, Size, Workload};
use bench::experiments::{locking_key, test_case};
use hls_core::verilog;
use obs::Obs;
use rtl::{golden_outputs, CompiledFsmd, SimOptions, TestCase};
use sim_core::GridExec;
use tao::{KeyTrial, LockedDesign, TaoOptions};
use vlog::VlogTape;

pub const GOLDEN: &str = "hls-ir.golden";
pub const REPLAY_COMPILE: &str = "verify.replay_compile";
pub const RTL_REPLAY: &str = "rtl.tape_replay";
pub const VLOG_REPLAY: &str = "vlog.tape_replay";
pub const RTL_CYCLES: &str = "replay.rtl_cycles";
pub const VLOG_CYCLES: &str = "replay.vlog_cycles";
pub const TIMEOUTS: &str = "verify.timeouts";
pub const PAIRS: &str = "verify.pairs";

/// Per-kernel verification spans, so each kernel's cost reads apart.
pub const KERNEL_SPANS: [(&str, &str); 5] = [
    ("gsm", "tao.verify.gsm"),
    ("adpcm", "tao.verify.adpcm"),
    ("sobel", "tao.verify.sobel"),
    ("backprop", "tao.verify.backprop"),
    ("viterbi", "tao.verify.viterbi"),
];

/// Locks per kernel. How many wrong keys a kernel's circuit lets run to
/// the cycle budget depends on its key, so one lock per kernel would let
/// the seed move the op cost by ~20%; four average that out.
const LOCKS_PER_KERNEL: usize = 4;
const WRONG_KEYS: usize = 99;
const STIMULI: u64 = 2;

pub struct Target {
    span: &'static str,
    pub(crate) design: LockedDesign,
    cases: Vec<TestCase>,
    pub(crate) trials: Vec<KeyTrial>,
    /// `vlog-diff`'s fixed-duration testbench: 4x the correct-key
    /// latency + 10k cycles, snapshotting stuck wrong-key circuits.
    budget: SimOptions,
}

pub struct Verify {
    pub(crate) targets: Vec<Target>,
}

impl Verify {
    /// Locks every paper kernel `LOCKS_PER_KERNEL` times (smoke: sobel
    /// once, 3 wrong keys, one stimulus) and sizes each cycle budget by
    /// the correct key's latency.
    pub fn setup(seed: u64, size: Size) -> Result<Verify, String> {
        let (kernels, locks, wrong, stimuli) = match size {
            Size::Full => (benchmarks::all(), LOCKS_PER_KERNEL, WRONG_KEYS, STIMULI),
            Size::Smoke => (vec![benchmarks::sobel()], 1, 3, 1),
        };
        let mut targets = Vec::new();
        for (ki, b) in kernels.iter().enumerate() {
            let m = b.compile().map_err(|e| format!("{}: {e}", b.name))?;
            for lock in 0..locks {
                let s = derive(seed, (lock * 16 + ki) as u64);
                let lk = locking_key(s);
                let opts = TaoOptions { seed: s, ..TaoOptions::default() };
                let design = tao::lock(&m, b.top, &lk, &opts)
                    .map_err(|e| format!("{}: lock: {e}", b.name))?;
                let cases: Vec<TestCase> =
                    (0..stimuli).map(|k| test_case(b, &design, derive(s, k))).collect();
                let key = design.working_key(&lk);
                let compiled = CompiledFsmd::compile(&design.fsmd);
                let mut probe = compiled.runner();
                let mut base = 0;
                for c in &cases {
                    let st = probe
                        .run_case(c, &key, &SimOptions::default())
                        .map_err(|e| format!("{}: correct-key probe: {e}", b.name))?;
                    base = base.max(st.cycles);
                }
                let span = KERNEL_SPANS
                    .iter()
                    .find(|(k, _)| *k == b.name)
                    .map(|(_, s)| *s)
                    .ok_or_else(|| format!("no verify span for kernel {}", b.name))?;
                targets.push(Target {
                    span,
                    trials: tao::standard_trials(&design, &lk, wrong, derive(s, 99)),
                    design,
                    cases,
                    budget: SimOptions { max_cycles: base * 4 + 10_000, snapshot_on_timeout: true },
                });
            }
        }
        Ok(Verify { targets })
    }
}

impl Workload for Verify {
    fn len(&self) -> usize {
        self.targets.len()
    }

    fn run(&self, i: usize, obs: &Obs) -> Result<Counts, String> {
        let t = &self.targets[i];
        let exec = GridExec::default().with_obs(obs.clone());
        let report = {
            let _s = obs.span(t.span);
            tao::verify::differential_verify_on(&t.design, &t.cases, &t.trials, &t.budget, &exec)
        }
        .map_err(|e| format!("{}: emitted Verilog: {e}", t.design.top))?;
        let pairs = (t.cases.len() * t.trials.len()) as u64;
        if !report.is_clean() || report.comparisons as u64 != pairs {
            return Err(format!("{}: differential not clean: {report}", t.design.top));
        }
        Ok(Counts {
            fixed: vec![(TIMEOUTS, report.timeouts as u64), (PAIRS, pairs)],
            free: Vec::new(),
        })
    }

    /// Replays the op's pairs on each runner alone, and the golden model
    /// on each stimulus, so each simulator's own speed can be read.
    fn replay(&self, i: usize, obs: &Obs) -> Vec<(&'static str, u64)> {
        let t = &self.targets[i];
        let Ok((ctape, vtape)) = ({
            let _s = obs.span(REPLAY_COMPILE);
            VlogTape::new(&verilog::emit(&t.design.fsmd))
                .map(|v| (CompiledFsmd::compile(&t.design.fsmd), v))
        }) else {
            return Vec::new();
        };
        {
            let _s = obs.span(GOLDEN);
            for c in &t.cases {
                std::hint::black_box(golden_outputs(&t.design.module, &t.design.top, c));
            }
        }
        let mut rtl_cycles = 0;
        {
            let _s = obs.span(RTL_REPLAY);
            let mut r = ctape.runner();
            for trial in &t.trials {
                for c in &t.cases {
                    if let Ok(st) = r.run_case(c, &trial.working_key, &t.budget) {
                        rtl_cycles += st.cycles;
                    }
                }
            }
        }
        let mut vlog_cycles = 0;
        {
            let _s = obs.span(VLOG_REPLAY);
            let mut r = vtape.runner();
            for trial in &t.trials {
                for c in &t.cases {
                    let map = &t.design.fsmd.mem_of_array;
                    if let Ok(st) = r.run_case(c, &trial.working_key, &t.budget, map) {
                        vlog_cycles += st.cycles;
                    }
                }
            }
        }
        vec![(RTL_CYCLES, rtl_cycles), (VLOG_CYCLES, vlog_cycles)]
    }
}
