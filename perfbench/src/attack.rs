//! The two SAT-attack workloads: the security evaluator who is granted
//! the oracle the paper denies (Sec. 4.3).
//!
//! * `sat-recover` attacks small scalar designs to exact key recovery:
//!   the DIP loop and the CDCL search on miters that grow by one I/O
//!   constraint per DIP.
//! * `sat-bmc` attacks a memory-bearing paper kernel inside a bounded
//!   window: a huge bit-blasted miter built once and decided in a few
//!   rounds, raced by a two-solver portfolio.

use crate::run::{derive, Counts, Size, Workload};
use bench::experiments::{locking_key, test_case};
use bench::satattack::attack_kernels;
use hls_core::KeyBits;
use obs::Obs;
use rtl::TestCase;
use tao::{LockedDesign, PlanConfig, PortfolioOptions, SatAttackConfig, TaoOptions};

pub const ATTACK: &str = "tao.sat_attack";
pub const DIPS: &str = "attack-sat.dips";
pub const CONFLICTS: &str = "attack-sat.conflicts";
pub const PROPAGATIONS: &str = "attack-sat.propagations";
pub const VARS: &str = "attack-sat.vars";
pub const CLAUSES: &str = "attack-sat.clauses";
pub const ROUNDS: &str = "attack-sat.rounds";

/// The `sat-recover` corpus: kernel and locks per pass. Recovery effort
/// depends on the key: one `mix` recovery takes 0.05-0.2 s, one `blend`
/// 0.5-1.4 s. Per second spent, the many cheap `mix` locks average the
/// key's effect out far better, so they fill most of a pass and keep the
/// pass time and the median op steady from seed to seed; two `blend`
/// locks keep its deeper searches in the corpus. `clamp` (130 key bits)
/// is left out: across seed-derived keys its recovery took 8-129 s,
/// beyond a run's budget.
const CORPUS: [(&str, usize); 2] = [("mix", 70), ("blend", 2)];

/// `sat-bmc` locks per pass, for the same reason as `CORPUS`. `sobel` is
/// the smallest memory-bearing paper kernel; `backprop` (2.0-4.2 s per
/// attack) and `adpcm` (4.4-8.0 s, 565 MB) varied too much with the key
/// to fit a run.
const BMC_LOCKS: usize = 7;
const BMC_KERNEL: &str = "sobel";
const BMC_RACERS: usize = 2;

/// One locked design under attack, with its true working key.
pub struct Target {
    name: &'static str,
    design: LockedDesign,
    key: KeyBits,
    cases: Vec<TestCase>,
}

fn lock(
    name: &'static str,
    m: &hls_ir::Module,
    top: &str,
    s: u64,
    plan: PlanConfig,
) -> Result<(LockedDesign, KeyBits), String> {
    let lk = locking_key(s);
    let d = tao::lock(m, top, &lk, &TaoOptions { plan, seed: s, ..TaoOptions::default() })
        .map_err(|e| format!("{name}: lock: {e}"))?;
    let key = d.working_key(&lk);
    Ok((d, key))
}

pub struct SatRecover {
    targets: Vec<Target>,
}

impl SatRecover {
    /// The `CORPUS` locks (smoke: one `mix`), each locked with constants +
    /// branches under its own key.
    pub fn setup(seed: u64, size: Size) -> Result<SatRecover, String> {
        let corpus: &[(&str, usize)] = match size {
            Size::Full => &CORPUS,
            Size::Smoke => &[("mix", 1)],
        };
        let kernels = attack_kernels();
        let plan = PlanConfig::techniques(true, true, false);
        let mut targets = Vec::new();
        for (ki, &(name, locks)) in corpus.iter().enumerate() {
            let k = kernels
                .iter()
                .find(|k| k.name == name)
                .ok_or_else(|| format!("attack kernel {name} missing"))?;
            let m = hls_frontend::compile(k.source, k.name).map_err(|e| format!("{e}"))?;
            for l in 0..locks {
                let (design, key) =
                    lock(k.name, &m, k.top, derive(seed, (l * 8 + ki) as u64), plan)?;
                let cases = k.cases.iter().map(|a| TestCase::args(a)).collect();
                targets.push(Target { name: k.name, design, key, cases });
            }
        }
        Ok(SatRecover { targets })
    }
}

impl Workload for SatRecover {
    fn len(&self) -> usize {
        self.targets.len()
    }

    fn run(&self, i: usize, obs: &Obs) -> Result<Counts, String> {
        let t = &self.targets[i];
        let cfg = SatAttackConfig { obs: obs.clone(), ..SatAttackConfig::default() };
        let a = {
            let _s = obs.span(ATTACK);
            tao::sat_attack_design(&t.design, &t.key, &t.cases, &cfg)
        }
        .map_err(|e| format!("{}: emitted Verilog: {e}", t.name))?;
        if !(a.recovered() && a.key_exact && a.key_functional) {
            return Err(format!(
                "{}: status {:?}, exact {}, functional {}",
                t.name, a.outcome.status, a.key_exact, a.key_functional
            ));
        }
        let o = &a.outcome;
        Ok(Counts {
            fixed: vec![
                (DIPS, o.dips),
                (CONFLICTS, o.conflicts),
                (PROPAGATIONS, o.propagations),
                (VARS, o.vars as u64),
                (CLAUSES, o.clauses as u64),
            ],
            free: Vec::new(),
        })
    }
}

pub struct SatBmc {
    targets: Vec<Target>,
}

impl SatBmc {
    /// `BMC_LOCKS` locks of the kernel with every technique (smoke: one),
    /// each attacked on one seed-derived stimulus.
    pub fn setup(seed: u64, size: Size) -> Result<SatBmc, String> {
        let locks = match size {
            Size::Full => BMC_LOCKS,
            Size::Smoke => 1,
        };
        let b = benchmarks::by_name(BMC_KERNEL).ok_or("bounded-attack kernel missing")?;
        let m = b.compile().map_err(|e| format!("{}: {e}", b.name))?;
        let mut targets = Vec::new();
        for l in 0..locks {
            let s = derive(seed, l as u64);
            let (design, key) = lock(b.name, &m, b.top, s, PlanConfig::default())?;
            let cases = vec![test_case(&b, &design, derive(s, 1))];
            targets.push(Target { name: b.name, design, key, cases });
        }
        Ok(SatBmc { targets })
    }
}

impl Workload for SatBmc {
    fn len(&self) -> usize {
        self.targets.len()
    }

    fn run(&self, i: usize, obs: &Obs) -> Result<Counts, String> {
        let t = &self.targets[i];
        let cfg = SatAttackConfig {
            unroll: Some(bench::simjson::SAT_PROBE_UNROLL),
            obs: obs.clone(),
            ..SatAttackConfig::default()
        };
        let popts = PortfolioOptions { racers: BMC_RACERS, threads: None };
        let a = {
            let _s = obs.span(ATTACK);
            tao::sat_attack_design_portfolio(&t.design, &t.key, &t.cases, &cfg, &popts)
        }
        .map_err(|e| format!("{}: emitted Verilog: {e}", t.name))?;
        if !a.attack.recovered() {
            return Err(format!("{}: window not decided: {:?}", t.name, a.attack.outcome.status));
        }
        let o = &a.attack.outcome;
        Ok(Counts {
            // Which racer wins a round is a race, and the winner's clause
            // count includes what it learnt on the way; only the DIPs and
            // the miter's variables are fixed by the instance.
            fixed: vec![(DIPS, o.dips), (VARS, o.vars as u64)],
            free: vec![(CLAUSES, o.clauses as u64), (ROUNDS, a.rounds)],
        })
    }
}
