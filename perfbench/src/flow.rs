//! `lock-flow`: the design-house path. Each op takes one kernel under one
//! TAO technique plan from C source to a signed-off locked design, one
//! public layer call at a time.

use crate::run::{derive, Counts, Size, Workload};
use bench::experiments::locking_key;
use benchmarks::Benchmark;
use hls_core::{verilog, KeyBits};
use obs::Obs;
use rtl::{golden_outputs, images_equal, OutputImage, SimOptions, SpecFsmd, TestCase};
use tao::{PlanConfig, TaoOptions};
use vlog::{VlogSim, VlogTape};

pub const COMPILE: &str = "hls-frontend.compile";
pub const PREPARE: &str = "hls-ir.prepare";
pub const SCHEDULE_BIND: &str = "hls-core.schedule_bind";
pub const LOCK: &str = "tao.lock";
pub const EMIT: &str = "hls-core.emit";
pub const PARSE_ELAB: &str = "vlog.parse_elab";
pub const TAPE_COMPILE: &str = "vlog.tape_compile";
pub const SPEC_COMPILE: &str = "rtl.spec_compile";
pub const SIGNOFF: &str = "rtl.signoff";
pub const VERILOG_BYTES: &str = "hls-core.verilog_bytes";
pub const KEY_BITS: &str = "tao.key_bits";

/// Sign-off cycle cap: far above every kernel's correct-key latency
/// (at most ~11k cycles), so only a wrong key can reach it.
const SIGNOFF_MAX_CYCLES: u64 = 1_000_000;

/// One (kernel, plan) instance with its reference outputs.
pub struct Design {
    kernel: Benchmark,
    opts: TaoOptions,
    lock_key: KeyBits,
    /// The locking key used at sign-off; equal to `lock_key` except
    /// where the self-test plants a wrong one.
    pub(crate) unlock_key: KeyBits,
    case: TestCase,
    /// The IR interpreter's outputs on the unoptimized frontend module:
    /// independent of every pass, schedule and lock the op runs.
    golden: OutputImage,
}

pub struct LockFlow {
    pub(crate) designs: Vec<Design>,
}

impl LockFlow {
    /// The five paper kernels x the seven technique plans (smoke: one
    /// kernel x two plans), each with its own seed-derived locking key,
    /// TAO seed and stimulus.
    pub fn setup(seed: u64, size: Size) -> Result<LockFlow, String> {
        let (kernels, plans) = match size {
            Size::Full => (benchmarks::all(), PlanConfig::enumerate_techniques()),
            Size::Smoke => (
                vec![benchmarks::sobel()],
                PlanConfig::enumerate_techniques().into_iter().take(2).collect(),
            ),
        };
        let mut designs = Vec::new();
        for (ki, kernel) in kernels.into_iter().enumerate() {
            let module = kernel.compile().map_err(|e| format!("{}: {e}", kernel.name))?;
            for (pi, plan) in plans.iter().enumerate() {
                let s = derive(seed, (ki * 16 + pi) as u64);
                let stim = &kernel.stimuli(1, s)[0];
                let case = TestCase { args: stim.args.clone(), mem_inputs: stim.resolve(&module) };
                let golden = golden_outputs(&module, kernel.top, &case);
                let lock_key = locking_key(s);
                designs.push(Design {
                    kernel,
                    opts: TaoOptions { plan: *plan, seed: s, ..TaoOptions::default() },
                    unlock_key: lock_key.clone(),
                    lock_key,
                    case,
                    golden,
                });
            }
        }
        Ok(LockFlow { designs })
    }
}

impl Workload for LockFlow {
    fn len(&self) -> usize {
        self.designs.len()
    }

    fn run(&self, i: usize, obs: &Obs) -> Result<Counts, String> {
        let d = &self.designs[i];
        let (name, top) = (d.kernel.name, d.kernel.top);
        let module = {
            let _s = obs.span(COMPILE);
            hls_frontend::compile_unoptimized(d.kernel.source, name)
        }
        .map_err(|e| format!("{name}: frontend: {e}"))?;
        let prepared = {
            let _s = obs.span(PREPARE);
            hls_core::prepare(&module, top, &d.opts.hls)
        }
        .map_err(|e| format!("{name}: prepare: {e}"))?;
        let baseline = {
            let _s = obs.span(SCHEDULE_BIND);
            hls_core::schedule_and_bind(&prepared, &d.opts.hls).map(|(sched, ra)| {
                hls_core::build_fsmd(&prepared.module, &prepared.function, &sched, &ra)
            })
        }
        .map_err(|e| format!("{name}: schedule/bind: {e}"))?;
        let design = {
            let _s = obs.span(LOCK);
            tao::lock_from_baseline(&prepared, &baseline, top, &d.lock_key, &d.opts)
        }
        .map_err(|e| format!("{name}: lock: {e}"))?;
        let text = {
            let _s = obs.span(EMIT);
            verilog::emit(&design.fsmd)
        };
        let sim = {
            let _s = obs.span(PARSE_ELAB);
            VlogSim::new(&text)
        }
        .map_err(|e| format!("{name}: vlog parse/elab: {e}"))?;
        let vtape = {
            let _s = obs.span(TAPE_COMPILE);
            VlogTape::compile(&sim)
        }
        .map_err(|e| format!("{name}: vlog tape: {e}"))?;
        let spec = {
            let _s = obs.span(SPEC_COMPILE);
            SpecFsmd::compile(&design.fsmd)
        };
        {
            let _s = obs.span(SIGNOFF);
            let key = design.working_key(&d.unlock_key);
            let opts = SimOptions { max_cycles: SIGNOFF_MAX_CYCLES, snapshot_on_timeout: false };
            let (v, _) = vtape
                .runner()
                .outputs(&d.case, &key, &opts, &design.fsmd.mem_of_array)
                .map_err(|e| format!("{name}: vlog tape sign-off: {e}"))?;
            let (r, _) = spec
                .runner()
                .outputs(&d.case, &key, &opts)
                .map_err(|e| format!("{name}: rtl tape sign-off: {e}"))?;
            if !images_equal(&v, &d.golden) || !images_equal(&r, &d.golden) {
                return Err(format!(
                    "{name}/{}: sign-off differs from golden",
                    d.opts.plan.label()
                ));
            }
        }
        Ok(Counts {
            fixed: vec![
                (VERILOG_BYTES, text.len() as u64),
                (KEY_BITS, u64::from(design.fsmd.key_width)),
            ],
            free: Vec::new(),
        })
    }
}
