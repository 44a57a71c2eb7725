//! The oracle-guided SAT attack (Subramanyan–Ray–Malik style) on a
//! bounded unrolling of the locked netlist.
//!
//! The attacker holds the locked netlist (the foundry's view) and
//! black-box access to an activated chip (the oracle). A two-copy miter —
//! shared inputs, two free key vectors — asks the solver for a
//! *distinguishing input pattern* (DIP): a stimulus on which two keys
//! disagree. The oracle labels the DIP, both key copies are constrained
//! to reproduce the label, and the loop repeats. When the miter goes
//! UNSAT, no two remaining keys disagree on any input — the key space has
//! collapsed to one observable-equivalence class — and any key satisfying
//! the accumulated I/O constraints unlocks the chip.
//!
//! The key comes out of the DIP loop's own models. Each DIP model already
//! satisfies every earlier constraint for both key copies, so a copy
//! whose observable on the DIP meets the oracle's label holds a key that
//! satisfies every constraint including the new one. The attack keeps
//! that key as its candidate and returns it at the end; only when no
//! copy matched, or the unrolling grew since, does it search the
//! constraints once more for a key.
//!
//! The observable is the k-cycle-bounded run: `(terminates within k
//! cycles, output image at the first done cycle)` — exactly what a
//! fixed-duration testbench (or `simulate` with `max_cycles = k`)
//! observes, so oracle answers and CNF constraints speak the same
//! language by construction.

use crate::bitvec::Bv;
use crate::encode::{CoiReport, EncInputs, Encoder, KeyLits, UnrollState, Unrolling};
use hls_core::KeyBits;
use sat::{Gates, Lit, SolveOutcome, Solver, SolverConfig};
use sim_core::ctrl::{Budget, CancelKind};
use sim_core::faultpoint;
use sim_core::grid::unpoison;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vlog::VlogSim;

/// One oracle query: a concrete stimulus for the attacked design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackQuery {
    /// One value per `arg{i}` port.
    pub args: Vec<u64>,
    /// Contents of each free input memory, in [`Encoder::free_mem_ids`]
    /// order.
    pub mems: Vec<Vec<u64>>,
}

/// The oracle's label for a query, in the bounded observable: did the
/// activated chip finish within the cycle budget, and if so what did it
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleResponse {
    /// The run terminated within the attack's cycle bound.
    pub done: bool,
    /// `ret` port value (when the design has one and the run terminated).
    pub ret: Option<u64>,
    /// Final contents of each external written memory, in
    /// [`Encoder::out_mem_ids`] order (empty when not terminated).
    pub mems: Vec<Vec<u64>>,
}

/// Attack budgets and the unrolling depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatAttackOptions {
    /// Clock edges to unroll (the observable's cycle bound). Pick it
    /// above the oracle's correct-key latency — `latency × margin` — or
    /// the attack recovers a key for a truncated observable.
    pub unroll_cycles: u32,
    /// Starting depth of the lazy incremental unrolling. The attack
    /// encodes this many frames up front and grows the unrolling
    /// (doubling, capped at [`SatAttackOptions::unroll_cycles`]) only
    /// when a model or an UNSAT collapse proof touches the k-boundary
    /// frame. Set equal to `unroll_cycles` to recover the eager
    /// pay-max-latency-upfront encoding.
    pub initial_unroll: u32,
    /// Also encode a scratch *unpruned* miter at the final depth so the
    /// outcome reports CNF size before vs after cone-of-influence
    /// pruning ([`SatAttackOutcome::miter_cnf`]). Off by default — it
    /// costs one extra (unsolved) encoding pass.
    pub measure_full_cnf: bool,
    /// Stop after this many DIPs (`None` = until collapse).
    pub max_dips: Option<u64>,
    /// Total solver conflict budget across all calls (`None` = unbounded).
    pub conflict_budget: Option<u64>,
    /// Total solver propagation ("step") budget across all calls
    /// (`None` = unbounded) — bounds UNSAT-hard collapse proofs that
    /// rack up few conflicts.
    pub step_budget: Option<u64>,
    /// Cooperative cancellation + wall-clock deadline: checked before
    /// every DIP iteration and forwarded into the CDCL solver (which
    /// observes it at its own cadence), so a cancelled or expired attack
    /// stops mid-proof and still returns its partial effort and
    /// accumulated I/O constraints. Also carries the armed fault plan
    /// for the `attack.oracle` site (coordinate = DIP ordinal).
    pub budget: Budget,
    /// Telemetry handle (disabled by default). Enabled, the attack
    /// records an `attack.sat` span wrapping per-DIP `attack.dip` spans
    /// (conflict delta and accumulated CNF growth as args), forwards the
    /// handle into the CDCL solver, and samples `attack.clauses` /
    /// `attack.vars` after every iteration.
    pub obs: obs::Obs,
    /// Live progress feed (disabled by default). Enabled, the attack
    /// announces `max_dips` as its total (when bounded — an unbounded
    /// DIP loop's length is unknowable up front) under a `"sat-attack"`
    /// phase and ticks once per distinguishing input, at any racer or
    /// worker count.
    pub progress: obs::ProgressTracker,
}

impl Default for SatAttackOptions {
    fn default() -> Self {
        SatAttackOptions {
            unroll_cycles: 64,
            initial_unroll: 8,
            measure_full_cnf: false,
            max_dips: None,
            conflict_budget: None,
            step_budget: None,
            budget: Budget::unlimited(),
            obs: obs::Obs::off(),
            progress: obs::ProgressTracker::off(),
        }
    }
}

/// What exhausted an attack that did not reach collapse. In every case
/// the outcome still carries the DIPs found, the accumulated I/O
/// constraints, the effort counters, and a key satisfying every
/// constraint collected so far — partial, internally consistent results
/// instead of vanishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustCause {
    /// [`SatAttackOptions::max_dips`] ran out.
    DipBudget,
    /// [`SatAttackOptions::conflict_budget`] ran out.
    ConflictBudget,
    /// [`SatAttackOptions::step_budget`] (propagations) ran out.
    StepBudget,
    /// The [`SatAttackOptions::budget`] wall-clock deadline expired.
    Deadline,
    /// The [`SatAttackOptions::budget`] token was cancelled.
    Cancelled,
}

impl std::fmt::Display for ExhaustCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExhaustCause::DipBudget => "dip budget",
            ExhaustCause::ConflictBudget => "conflict budget",
            ExhaustCause::StepBudget => "step budget",
            ExhaustCause::Deadline => "deadline",
            ExhaustCause::Cancelled => "cancelled",
        })
    }
}

/// How the attack ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatAttackStatus {
    /// The key space collapsed: the recovered key is observable-equivalent
    /// to the chip's on **every** input within the cycle bound.
    Recovered,
    /// A budget ran out or the attack was cancelled before collapse; the
    /// cause says which. The returned key satisfies every collected I/O
    /// constraint but the space had not provably collapsed.
    Exhausted(ExhaustCause),
}

impl SatAttackStatus {
    /// `true` when the key space provably collapsed.
    pub fn is_recovered(&self) -> bool {
        matches!(self, SatAttackStatus::Recovered)
    }
}

/// One accumulated I/O constraint: a distinguishing input and the
/// oracle's label for it. The conjunction of all pairs is exactly what
/// the attack knows about the true key; exhausted attacks hand the list
/// back so a later run (or a resumed one) can start from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoConstraint {
    /// The distinguishing input queried.
    pub query: AttackQuery,
    /// What the activated chip answered.
    pub response: OracleResponse,
}

/// Miter CNF size at the final unroll depth, with and without
/// cone-of-influence pruning (both measured on a scratch two-copy miter
/// at the same depth, so the comparison isolates the encoder win from
/// accumulated constraint growth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnfSizes {
    /// Variables in the COI-pruned miter.
    pub coi_vars: usize,
    /// Clauses in the COI-pruned miter.
    pub coi_clauses: usize,
    /// Variables in the unpruned (full-netlist) miter.
    pub full_vars: usize,
    /// Clauses in the unpruned miter.
    pub full_clauses: usize,
}

/// The attack's result and effort counters.
#[derive(Debug, Clone)]
pub struct SatAttackOutcome {
    /// Terminal status.
    pub status: SatAttackStatus,
    /// The recovered key (present unless the conflict budget died before
    /// any model was found).
    pub key: Option<KeyBits>,
    /// Distinguishing inputs found.
    pub dips: u64,
    /// Oracle queries issued (= DIPs; probe queries are the caller's).
    pub queries: u64,
    /// Solver conflicts across all solve calls.
    pub conflicts: u64,
    /// Solver propagations across all solve calls.
    pub propagations: u64,
    /// CNF variables at the end of the attack.
    pub vars: usize,
    /// CNF clauses at the end of the attack.
    pub clauses: usize,
    /// Final unroll depth k reached by the lazy growth (equals
    /// [`SatAttackOptions::unroll_cycles`] only when the attack had to
    /// pay the full bound).
    pub unroll_final: u32,
    /// How many times the unrolling grew past its starting depth.
    pub growths: u64,
    /// How much of the netlist survived cone-of-influence pruning.
    pub coi: CoiReport,
    /// Miter CNF size before vs after COI pruning at the final depth
    /// (only when [`SatAttackOptions::measure_full_cnf`] was set).
    pub miter_cnf: Option<CnfSizes>,
    /// Wall-clock time of the whole loop (encoding + solving + oracle).
    pub wall: Duration,
    /// Every (DIP, oracle label) pair accumulated, in discovery order —
    /// the attack's learned constraints, returned even (especially) when
    /// the attack was exhausted or cancelled mid-run.
    pub constraints: Vec<IoConstraint>,
}

impl SatAttackOutcome {
    /// DIPs per second of wall time.
    pub fn dips_per_sec(&self) -> f64 {
        self.dips as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Conflicts per second of wall time.
    pub fn conflicts_per_sec(&self) -> f64 {
        self.conflicts as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs the DIP loop against `oracle` on the elaborated netlist `sim`.
///
/// The oracle is any black box honouring the bounded observable —
/// typically the FSMD tape of the same design bound to the correct
/// working key, run with `max_cycles = opts.unroll_cycles`.
///
/// # Panics
///
/// Panics if the oracle responds with a shape that does not match the
/// design (wrong memory counts), or if the design has no key port.
pub fn sat_attack(
    sim: &VlogSim,
    opts: &SatAttackOptions,
    oracle: &mut dyn FnMut(&AttackQuery) -> OracleResponse,
) -> SatAttackOutcome {
    let t0 = Instant::now();
    let mut attack_span = opts.obs.span("attack.sat");
    let mut eng = AttackEngine::new(sim, opts, &[SolverConfig::default()]);
    let (status, constraints) = eng.dip_loop(oracle, |eng| eng.step(0));
    let out = eng.finish(0, status, t0, constraints);
    if attack_span.recording() {
        attack_span.arg("dips", out.dips);
        attack_span.arg("conflicts", out.conflicts);
        attack_span.arg("unroll_final", u64::from(out.unroll_final));
    }
    out
}

/// One accumulated constraint's growable encodings: the oracle label
/// plus one pinned-input unrolling per key copy, kept so growth can
/// re-encode only the new frames and re-assert at the new depth.
struct ConsEntry {
    resp: OracleResponse,
    ua: UnrollState,
    ub: UnrollState,
}

/// What one engine step decided.
pub(crate) enum Step {
    /// The key space provably collapsed at the full bound (or the
    /// boundary probe showed the shallow proof already covers it).
    Collapsed,
    /// A model or an UNSAT proof touched the k-boundary frame: the
    /// unrolling must grow before the loop can conclude anything.
    NeedGrow,
    /// A genuine distinguishing input — both copies terminate within
    /// the current depth (or the depth is already the full bound) — and
    /// what each miter copy holds in the model that found it.
    Dip(AttackQuery, Box<[CopyModel; 2]>),
    /// A budget ran out or the attack's own `Budget` fired.
    Exhausted(ExhaustCause),
    /// The solver's ctrl was cancelled but the attack budget is intact —
    /// a portfolio round lost the race, not a terminal state.
    RoundCancelled,
}

/// One miter copy in a DIP model: its key and its observable on the DIP.
/// The model satisfies every constraint collected so far for both keys,
/// so a copy whose observable meets the oracle's label holds a key that
/// satisfies the new constraint too.
pub(crate) struct CopyModel {
    key: KeyBits,
    obs: ObsModel,
}

/// An unrolling's observable as one model assigns it, in [`Unrolling`]
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ObsModel {
    done: bool,
    ret: Option<Word>,
    mems: Vec<Vec<Word>>,
}

/// One output word in a model: its value and its width's bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Word {
    value: u64,
    mask: u64,
}

impl Word {
    fn read(s: &Solver, v: &Bv) -> Word {
        Word { value: v.model_value(s), mask: width_mask(v.width()) }
    }

    /// Whether pinning the word to `want` holds: like [`Bv::pin`], only
    /// `want`'s low `width` bits count.
    fn is(self, want: u64) -> bool {
        self.value == want & self.mask
    }
}

impl ObsModel {
    fn read(s: &Solver, u: &Unrolling) -> ObsModel {
        ObsModel {
            done: s.lit_true(u.done),
            ret: u.ret.as_ref().map(|v| Word::read(s, v)),
            mems: u
                .out_mems
                .iter()
                .map(|(_, elems)| elems.iter().map(|e| Word::read(s, e)).collect())
                .collect(),
        }
    }

    /// Whether [`constrain_lazy`]`(u, resp, exact)` holds for the
    /// unrolling `u` this observable was read from.
    fn meets(&self, resp: &OracleResponse, exact: bool) -> bool {
        if !resp.done {
            return !self.done;
        }
        if !self.done {
            return !exact;
        }
        let ret_ok = match (self.ret, resp.ret) {
            (Some(v), Some(want)) => v.is(want),
            _ => true,
        };
        ret_ok
            && self.mems.iter().zip(&resp.mems).all(|(elems, want)| {
                elems.iter().enumerate().all(|(j, e)| e.is(want.get(j).copied().unwrap_or(0)))
            })
    }
}

/// The low `width` bits set.
fn width_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// The miter at the current depth: both copies' observables and the
/// activation literal of their difference clause.
struct Miter {
    /// Permanently released (unit `!act`) when the depth grows.
    act: Lit,
    oa: Unrolling,
    ob: Unrolling,
}

/// One clause stream, many solvers: the gate builder the encoder writes
/// and one solver per racer; [`Cnf::flush`] streams the builder's
/// pending clauses into every solver in emission order.
struct Cnf {
    g: Gates,
    solvers: Vec<Mutex<Solver>>,
    /// Time spent in solver ingest since the last [`Cnf::take_ingest`].
    ingest: Duration,
}

impl Cnf {
    /// Streams the pending clauses into every solver, one solver after
    /// the other, and empties the stream.
    fn flush(&mut self) {
        let t = Instant::now();
        self.g.flush_into(self.solvers.iter_mut().map(|s| unpoison(s.get_mut())));
        self.ingest += t.elapsed();
    }

    /// Ingest time since the last call, in nanoseconds (a span arg).
    fn take_ingest(&mut self) -> u64 {
        std::mem::take(&mut self.ingest).as_nanos() as u64
    }

    /// Extends `u` by `delta` frames, flushing after each frame: the
    /// pending stream never holds more than one frame, and each solver
    /// takes a frame's clauses in one run (feeding the racers finer
    /// interleaved chunks measured a higher peak RSS: their growing
    /// arrays fragment each other).
    fn grow(&mut self, enc: &Encoder, u: &mut UnrollState, delta: u32) {
        for _ in 0..delta {
            enc.grow(&mut self.g, u, 1);
            self.flush();
        }
    }

    fn solver_mut(&mut self, i: usize) -> &mut Solver {
        unpoison(self.solvers[i].get_mut())
    }

    /// `(vars, clauses)` as the solvers hold them (racer 0's count; the
    /// others differ only by what they learnt).
    fn size(&mut self) -> (u64, u64) {
        let s = self.solver_mut(0);
        (s.num_vars() as u64, s.num_clauses() as u64)
    }
}

/// The incremental DIP-loop state machine: one encoder and one gate
/// builder feeding one solver per racer, one miter at the current
/// depth, every accumulated constraint kept growable. Drives both
/// [`sat_attack`] (one solver) and the portfolio (one solver per racer,
/// raced per step).
pub(crate) struct AttackEngine<'a> {
    enc: Encoder<'a>,
    cnf: Cnf,
    opts: SatAttackOptions,
    inputs: EncInputs,
    key_a: KeyLits,
    key_b: KeyLits,
    ua: UnrollState,
    ub: UnrollState,
    miter: Miter,
    k_max: u32,
    cons: Vec<ConsEntry>,
    /// A key satisfying every constraint collected so far, taken from
    /// the last DIP's model; cleared when the depth grows.
    candidate: Option<KeyBits>,
    dips: u64,
    growths: u64,
}

impl<'a> AttackEngine<'a> {
    /// Builds the initial miter at `opts.initial_unroll` frames and
    /// streams it into one solver per entry of `configs`.
    ///
    /// # Panics
    ///
    /// Panics if the design has no key port.
    pub(crate) fn new(
        sim: &'a VlogSim,
        opts: &SatAttackOptions,
        configs: &[SolverConfig],
    ) -> AttackEngine<'a> {
        assert!(sim.key_width() > 0, "design has no working key to recover");
        let solvers = configs
            .iter()
            .map(|&cfg| {
                let mut s = Solver::new();
                s.set_config(cfg);
                s.set_obs(opts.obs.clone());
                // The solver observes the same cooperative budget at its
                // own check cadence, so a cancel or deadline lands
                // mid-solve, not only between DIPs.
                s.set_ctrl(opts.budget.clone());
                Mutex::new(s)
            })
            .collect();
        let mut cnf = Cnf { g: Gates::new(), solvers, ingest: Duration::ZERO };
        let enc = Encoder::new(sim);
        let k_max = opts.unroll_cycles.max(1);
        let k0 = opts.initial_unroll.clamp(1, k_max);
        let mut encode_span = opts.obs.span("attack.encode");
        let inputs = enc.fresh_inputs(&mut cnf.g);
        let key_a = KeyLits::fresh(&mut cnf.g, sim);
        let key_b = KeyLits::fresh(&mut cnf.g, sim);
        let mut ua = enc.begin(&mut cnf.g, &inputs, &key_a);
        let mut ub = enc.begin(&mut cnf.g, &inputs, &key_b);
        cnf.flush();
        cnf.grow(&enc, &mut ua, k0);
        cnf.grow(&enc, &mut ub, k0);
        let miter = build_miter(&enc, &mut cnf, &ua, &ub);
        let mut eng = AttackEngine {
            enc,
            cnf,
            opts: opts.clone(),
            inputs,
            key_a,
            key_b,
            ua,
            ub,
            miter,
            k_max,
            cons: Vec::new(),
            candidate: None,
            dips: 0,
            growths: 0,
        };
        if encode_span.recording() {
            encode_span.arg("unroll", u64::from(k0));
            eng.size_args(&mut encode_span);
        }
        eng
    }

    /// The shared span args of every encode step: CNF size, racer count
    /// and the solver-ingest share of the step.
    fn size_args(&mut self, span: &mut obs::SpanGuard) {
        let (vars, clauses) = self.cnf.size();
        span.arg("vars", vars);
        span.arg("clauses", clauses);
        span.arg("racers", self.cnf.solvers.len() as u64);
        span.arg("ingest_ns", self.cnf.take_ingest());
    }

    /// Current unroll depth.
    pub(crate) fn depth(&self) -> u32 {
        self.ua.cycles()
    }

    /// Racer `i`'s solver.
    pub(crate) fn solver(&self, i: usize) -> MutexGuard<'_, Solver> {
        unpoison(self.cnf.solvers[i].lock())
    }

    /// Swaps every solver's cooperative-cancellation handle (portfolio
    /// rounds hand the racers a fresh child budget per round).
    pub(crate) fn set_round_ctrl(&mut self, b: &Budget) {
        for s in &mut self.cnf.solvers {
            unpoison(s.get_mut()).set_ctrl(b.clone());
        }
    }

    /// Sets `s`'s per-solve budgets to what is left of the attack's.
    fn set_budget(&self, s: &mut Solver) {
        let stats = s.stats();
        s.set_conflict_budget(self.opts.conflict_budget.map(|t| t.saturating_sub(stats.conflicts)));
        s.set_step_budget(self.opts.step_budget.map(|t| t.saturating_sub(stats.propagations)));
    }

    /// Attributes a solver `Budget` outcome to the resource that ran dry.
    fn budget_cause(&self, s: &Solver) -> ExhaustCause {
        match self.opts.conflict_budget {
            Some(total) if s.stats().conflicts >= total => ExhaustCause::ConflictBudget,
            _ => ExhaustCause::StepBudget,
        }
    }

    /// One decision of the DIP loop on racer `i`'s solver: solve the
    /// miter at the current depth and classify the result. Racers step
    /// concurrently; each locks only its own solver.
    pub(crate) fn step(&self, i: usize) -> Step {
        if let Some(kind) = self.opts.budget.exceeded() {
            return Step::Exhausted(match kind {
                CancelKind::Cancelled => ExhaustCause::Cancelled,
                CancelKind::DeadlineExpired => ExhaustCause::Deadline,
            });
        }
        if let Some(max) = self.opts.max_dips {
            if self.dips >= max {
                return Step::Exhausted(ExhaustCause::DipBudget);
            }
        }
        let mut s = self.solver(i);
        self.set_budget(&mut s);
        let mut dip_span = self.opts.obs.span("attack.dip");
        let conflicts_before = s.stats().conflicts;
        let outcome = s.solve_assuming(&[self.miter.act]);
        if dip_span.recording() {
            dip_span.arg("dip", self.dips);
            dip_span.arg("depth", u64::from(self.depth()));
            dip_span.arg("conflict_delta", s.stats().conflicts - conflicts_before);
            dip_span.arg("vars", s.num_vars() as u64);
            dip_span.arg("clauses", s.num_clauses() as u64);
        }
        match outcome {
            SolveOutcome::Sat => {
                let done_a = s.lit_true(self.ua.done());
                let done_b = s.lit_true(self.ub.done());
                if (done_a && done_b) || self.depth() == self.k_max {
                    // Both copies terminated within k ≤ k_max, so their
                    // frozen outputs equal the k_max observable — a
                    // genuine DIP. (At the full bound every model is.)
                    let query = AttackQuery {
                        args: self.inputs.args.iter().map(|a| a.model_value(&s)).collect(),
                        mems: self
                            .inputs
                            .mems
                            .iter()
                            .map(|(_, elems)| elems.iter().map(|e| e.model_value(&s)).collect())
                            .collect(),
                    };
                    let copies = [(&self.key_a, &self.miter.oa), (&self.key_b, &self.miter.ob)]
                        .map(|(key, u)| CopyModel {
                            key: key.model_key(&s),
                            obs: ObsModel::read(&s, u),
                        });
                    Step::Dip(query, Box::new(copies))
                } else {
                    // The disagreement is about *termination within k*,
                    // which the full-bound observable may not share — a
                    // boundary artifact. Deepen instead of querying.
                    Step::NeedGrow
                }
            }
            SolveOutcome::Unsat => {
                if self.depth() == self.k_max {
                    return Step::Collapsed;
                }
                // Shallow collapse proof. Sound iff no consistent key
                // can still be running at the boundary: if some key is
                // not done within k on some input, the proof leaned on
                // the truncated frames — grow. If every consistent key
                // finishes within k on every input, the depth-k
                // observable equals the full-bound one and the collapse
                // stands.
                self.set_budget(&mut s);
                match s.solve_assuming(&[!self.ua.done()]) {
                    SolveOutcome::Sat => Step::NeedGrow,
                    SolveOutcome::Unsat => Step::Collapsed,
                    SolveOutcome::Budget => Step::Exhausted(self.budget_cause(&s)),
                    SolveOutcome::Cancelled => self.cancelled_step(),
                }
            }
            SolveOutcome::Budget => Step::Exhausted(self.budget_cause(&s)),
            SolveOutcome::Cancelled => self.cancelled_step(),
        }
    }

    /// Distinguishes "the attack budget fired" from "a portfolio round
    /// was cancelled under this racer".
    fn cancelled_step(&self) -> Step {
        match self.opts.budget.exceeded() {
            Some(CancelKind::DeadlineExpired) => Step::Exhausted(ExhaustCause::Deadline),
            Some(CancelKind::Cancelled) => Step::Exhausted(ExhaustCause::Cancelled),
            None => Step::RoundCancelled,
        }
    }

    /// The DIP loop: `decide` answers each round; the loop queries the
    /// oracle once per DIP and encodes the constraint, or the growth,
    /// once for every solver. Returns the terminal status and the
    /// accumulated I/O constraints.
    pub(crate) fn dip_loop(
        &mut self,
        oracle: &mut dyn FnMut(&AttackQuery) -> OracleResponse,
        mut decide: impl FnMut(&mut Self) -> Step,
    ) -> (SatAttackStatus, Vec<IoConstraint>) {
        let obs = self.opts.obs.clone();
        let dip_counter = obs.counter("attack.dips");
        // Progress counts DIPs, not racer steps: it ticks once per
        // distinguishing input at any racer count.
        let progress = self.opts.progress.clone();
        if progress.enabled() {
            progress.set_phase("sat-attack");
            if let Some(max) = self.opts.max_dips {
                progress.add_total(max);
            }
        }
        let mut constraints: Vec<IoConstraint> = Vec::new();
        let status = loop {
            match decide(self) {
                Step::Collapsed => break SatAttackStatus::Recovered,
                Step::NeedGrow => self.grow_step(),
                Step::Dip(query, copies) => {
                    self.opts.budget.fault_hit(faultpoint::sites::ATTACK_ORACLE, self.dips);
                    let resp = {
                        let _oracle_span = obs.span("attack.oracle");
                        oracle(&query)
                    };
                    self.apply_dip(&query, &resp);
                    // Judged at the depth the label was just encoded at.
                    let exact = self.depth() == self.k_max;
                    self.candidate =
                        (*copies).into_iter().find(|c| c.obs.meets(&resp, exact)).map(|c| c.key);
                    dip_counter.inc();
                    progress.tick();
                    constraints.push(IoConstraint { query, response: resp });
                }
                Step::Exhausted(cause) => break SatAttackStatus::Exhausted(cause),
                // The portfolio resolves lost rounds itself; with one
                // solver its ctrl *is* the attack budget, so a
                // cancellation here is the budget's.
                Step::RoundCancelled => break SatAttackStatus::Exhausted(ExhaustCause::Cancelled),
            }
        };
        (status, constraints)
    }

    /// Deepens the unrolling (doubling, capped at the full bound):
    /// retires the old miter clause, grows both miter copies and every
    /// accumulated constraint by the new frames only, and re-asserts
    /// each constraint at the new depth.
    fn grow_step(&mut self) {
        let k = self.depth();
        debug_assert!(k < self.k_max);
        let new_k = k.saturating_mul(2).min(self.k_max);
        let delta = new_k - k;
        let mut grow_span = self.opts.obs.span("attack.grow");
        // The candidate was checked against the labels at the old depth;
        // the constraints are about to be re-asserted at the new one.
        self.candidate = None;
        self.cnf.g.assert_true(!self.miter.act);
        self.cnf.grow(&self.enc, &mut self.ua, delta);
        self.cnf.grow(&self.enc, &mut self.ub, delta);
        self.miter = build_miter(&self.enc, &mut self.cnf, &self.ua, &self.ub);
        let exact = new_k == self.k_max;
        for c in &mut self.cons {
            for u in [&mut c.ua, &mut c.ub] {
                self.cnf.grow(&self.enc, u, delta);
                let obs_u = self.enc.observables(&mut self.cnf.g, u);
                constrain_lazy(&mut self.cnf.g, &obs_u, &c.resp, exact);
                self.cnf.flush();
            }
        }
        self.growths += 1;
        if grow_span.recording() {
            grow_span.arg("from", u64::from(k));
            grow_span.arg("to", u64::from(new_k));
            self.size_args(&mut grow_span);
        }
    }

    /// Encodes the oracle's label for a DIP at the current depth: one
    /// pinned-input growable unrolling per key copy, constrained as an
    /// implication (`done_k → outputs = label`) so the fact stays sound
    /// as the depth grows.
    fn apply_dip(&mut self, query: &AttackQuery, resp: &OracleResponse) {
        let mut pin_span = self.opts.obs.span("attack.constrain");
        let pinned = self.enc.pinned_inputs(&mut self.cnf.g, &query.args, &query.mems);
        let k = self.depth();
        let exact = k == self.k_max;
        let [ua, ub] = [&self.key_a, &self.key_b].map(|key| {
            let mut u = self.enc.begin(&mut self.cnf.g, &pinned, key);
            self.cnf.grow(&self.enc, &mut u, k);
            let obs_u = self.enc.observables(&mut self.cnf.g, &u);
            constrain_lazy(&mut self.cnf.g, &obs_u, resp, exact);
            self.cnf.flush();
            u
        });
        self.cons.push(ConsEntry { resp: resp.clone(), ua, ub });
        self.dips += 1;
        if pin_span.recording() {
            self.size_args(&mut pin_span);
        }
        if self.opts.obs.enabled() {
            let (vars, clauses) = self.cnf.size();
            self.opts.obs.sample("attack.vars", vars);
            self.opts.obs.sample("attack.clauses", clauses);
        }
    }

    /// Ends the attack on racer `i`'s solver and packages the outcome
    /// (`t0`: when the attack started).
    ///
    /// The recovered key is any key consistent with every collected I/O
    /// pair. Usually that is the candidate the last DIP's model left
    /// behind, and no solve runs. Without one (no DIP yet, neither copy
    /// met the last label, or the unrolling grew since) racer `i` searches
    /// the constraints for a key, the miter's difference clause released
    /// by leaving `act` free. That search runs unbudgeted and
    /// un-cancelled: the budgets govern the collapse proof, and an
    /// exhausted or cancelled attack must still hand back a key
    /// consistent with its partial constraints (the true key always
    /// satisfies them, so this is cheap).
    ///
    /// On both paths the engine's CNF is torn down inside the
    /// `attack.model` span: the gate builder, the constraint encodings
    /// and the other racers' solvers first, under an `attack.release`
    /// span (so a search runs with one solver resident), then racer
    /// `i`'s. The span's `reused` arg is 1 when the candidate was
    /// returned, 0 when the search ran.
    pub(crate) fn finish(
        mut self,
        i: usize,
        status: SatAttackStatus,
        t0: Instant,
        constraints: Vec<IoConstraint>,
    ) -> SatAttackOutcome {
        let mut model_span = self.opts.obs.span("attack.model");
        let mut s = {
            let _release_span = self.opts.obs.span("attack.release");
            self.cnf.g = Gates::new();
            self.cons = Vec::new();
            let mut solvers = std::mem::take(&mut self.cnf.solvers);
            unpoison(solvers.swap_remove(i).into_inner())
        };
        let reused = self.candidate.is_some();
        let key = match self.candidate.take() {
            Some(key) => Some(key),
            None => {
                s.set_conflict_budget(None);
                s.set_step_budget(None);
                s.set_ctrl(Budget::unlimited());
                match s.solve() {
                    SolveOutcome::Sat => Some(self.key_a.model_key(&s)),
                    _ => None,
                }
            }
        };
        let stats = s.stats();
        let (vars, clauses) = (s.num_vars(), s.num_clauses());
        drop(s);
        if model_span.recording() {
            model_span.arg("reused", u64::from(reused));
        }
        drop(model_span);
        let wall = t0.elapsed();
        let miter_cnf = if self.opts.measure_full_cnf {
            Some(measure_miter_cnf(self.enc.design(), self.depth()))
        } else {
            None
        };
        SatAttackOutcome {
            status,
            key,
            dips: self.dips,
            queries: self.dips,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            vars,
            clauses,
            unroll_final: self.depth(),
            growths: self.growths,
            coi: self.enc.coi(),
            miter_cnf,
            wall,
            constraints,
        }
    }
}

/// Builds the miter difference clause between the two copies at their
/// current depth under a fresh activation literal, and streams it into
/// every solver.
fn build_miter(enc: &Encoder, cnf: &mut Cnf, ua: &UnrollState, ub: &UnrollState) -> Miter {
    let oa = enc.observables(&mut cnf.g, ua);
    let ob = enc.observables(&mut cnf.g, ub);
    let diff = observable_diff(&mut cnf.g, &oa, &ob);
    let act = cnf.g.fresh();
    cnf.g.assert_clause(&[!act, diff]);
    cnf.flush();
    Miter { act, oa, ob }
}

/// Scratch two-copy miters at depth `k`, COI-pruned and full, for the
/// before/after encoder comparison. Nothing is solved; the sizes are a
/// solver's after ingest, like the attack's own.
fn measure_miter_cnf(sim: &VlogSim, k: u32) -> CnfSizes {
    let size_with = |enc: &Encoder| {
        let mut g = Gates::new();
        let inputs = enc.fresh_inputs(&mut g);
        let key_a = KeyLits::fresh(&mut g, sim);
        let key_b = KeyLits::fresh(&mut g, sim);
        let ua = enc.unroll(&mut g, k, &inputs, &key_a);
        let ub = enc.unroll(&mut g, k, &inputs, &key_b);
        let diff = observable_diff(&mut g, &ua, &ub);
        g.assert_true(diff);
        let mut s = Solver::new();
        g.flush_into([&mut s]);
        (s.num_vars(), s.num_clauses())
    };
    let (coi_vars, coi_clauses) = size_with(&Encoder::new(sim));
    let (full_vars, full_clauses) = size_with(&Encoder::full(sim));
    CnfSizes { coi_vars, coi_clauses, full_vars, full_clauses }
}

/// The miter's difference observable: the two copies disagree on
/// termination, or both terminate and any output bit differs.
fn observable_diff(g: &mut Gates, a: &Unrolling, b: &Unrolling) -> sat::Lit {
    let done_diff = g.xor(a.done, b.done);
    let mut out_bits = Vec::new();
    if let (Some(ra), Some(rb)) = (&a.ret, &b.ret) {
        out_bits.extend(ra.0.iter().zip(&rb.0).map(|(&x, &y)| (x, y)));
    }
    for ((mi, ma), (mj, mb)) in a.out_mems.iter().zip(&b.out_mems) {
        debug_assert_eq!(mi, mj);
        for (ea, eb) in ma.iter().zip(mb) {
            out_bits.extend(ea.0.iter().zip(&eb.0).map(|(&x, &y)| (x, y)));
        }
    }
    let diffs: Vec<sat::Lit> = out_bits.into_iter().map(|(x, y)| g.xor(x, y)).collect();
    let out_diff = g.or_many(&diffs);
    let both_done = g.and(a.done, b.done);
    let out_and_done = g.and(both_done, out_diff);
    g.or(done_diff, out_and_done)
}

/// Constrains one pinned-input unrolling to the oracle's label in a
/// depth-robust form. At the full bound (`exact`) the label is the
/// observable itself and is asserted outright. At a shallower depth
/// only implications are sound: termination within k implies the frozen
/// outputs are the full-bound image, so `done_k → outputs = label`; and
/// an oracle that never terminated within the full bound certainly
/// didn't within k, so `¬done_k` is a unit fact.
fn constrain_lazy(g: &mut Gates, u: &Unrolling, resp: &OracleResponse, exact: bool) {
    if exact {
        constrain_to_response(g, u, resp);
        return;
    }
    if !resp.done {
        g.assert_true(!u.done);
        return;
    }
    let release = !u.done;
    if let (Some(rv), Some(want)) = (&u.ret, resp.ret) {
        pin_under(g, release, rv, want);
    }
    for (slot, (_, elems)) in u.out_mems.iter().enumerate() {
        let Some(want) = resp.mems.get(slot) else { continue };
        for (j, e) in elems.iter().enumerate() {
            pin_under(g, release, e, want.get(j).copied().unwrap_or(0));
        }
    }
}

/// `release ∨ (v = want)`, bit by bit — a guarded [`Bv::pin`].
fn pin_under(g: &mut Gates, release: Lit, v: &Bv, want: u64) {
    for (i, &bit) in v.0.iter().enumerate() {
        let want_bit = i < 64 && (want >> i) & 1 == 1;
        g.assert_clause(&[release, if want_bit { bit } else { !bit }]);
    }
}

/// Constrains one pinned-input unrolling to reproduce the oracle's label.
fn constrain_to_response(g: &mut Gates, u: &Unrolling, resp: &OracleResponse) {
    if !resp.done {
        g.assert_true(!u.done);
        return;
    }
    g.assert_true(u.done);
    if let (Some(rv), Some(want)) = (&u.ret, resp.ret) {
        rv.pin(g, want);
    }
    for (slot, (_, elems)) in u.out_mems.iter().enumerate() {
        let Some(want) = resp.mems.get(slot) else { continue };
        for (j, e) in elems.iter().enumerate() {
            e.pin(g, want.get(j).copied().unwrap_or(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    /// A random word of `width` bits, zero one time in three (so short
    /// labels, which read missing elements as 0, sometimes match).
    fn word(rng: &mut Rng, width: u32) -> Word {
        let mask = width_mask(width as usize);
        let value = if rng.one_in(3) { 0 } else { rng.next() & mask };
        Word { value, mask }
    }

    /// The label's version of a word: equal, wider than the word (extra
    /// high bits, still equal), or one bit off.
    fn label_of(rng: &mut Rng, w: Word) -> u64 {
        match rng.below(4) {
            0 if w.mask != u64::MAX => w.value | (rng.next() & !w.mask),
            1 => w.value ^ (1 << rng.below(u64::from(w.mask.count_ones()))),
            _ => w.value,
        }
    }

    /// Assumptions fixing `u`'s literals to the observable `o`.
    fn pins(u: &Unrolling, o: &ObsModel) -> Vec<Lit> {
        let mut out = vec![if o.done { u.done } else { !u.done }];
        let mut pin = |v: &Bv, w: Word| {
            for (i, &l) in v.0.iter().enumerate() {
                out.push(if (w.value >> i) & 1 == 1 { l } else { !l });
            }
        };
        if let (Some(v), Some(w)) = (&u.ret, o.ret) {
            pin(v, w);
        }
        for ((_, elems), words) in u.out_mems.iter().zip(&o.mems) {
            for (e, &w) in elems.iter().zip(words) {
                pin(e, w);
            }
        }
        out
    }

    #[test]
    fn label_check_agrees_with_the_constraint_encoding() {
        // Random observables against labels derived from them: exact and
        // lazy, done or not on either side, `ret` present or absent,
        // missing memory slots, short label vectors and labels wider
        // than the word. The check must say "meets" exactly when the
        // solver finds `constrain_lazy` satisfiable with the unrolling
        // fixed to the observable.
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let widths = [1u32, 3, 8, 64];
        let (mut met, mut missed) = (0, 0);
        for case in 0..3000 {
            let mut g = Gates::new();
            let ret_w = (!rng.one_in(4)).then(|| widths[rng.below(4) as usize]);
            let mem_shapes: Vec<(usize, u32)> = (0..rng.below(3))
                .map(|_| (1 + rng.below(3) as usize, widths[rng.below(3) as usize]))
                .collect();
            let u = Unrolling {
                done: g.fresh(),
                ret: ret_w.map(|w| Bv::fresh(&mut g, w)),
                out_mems: mem_shapes
                    .iter()
                    .enumerate()
                    .map(|(slot, &(len, w))| {
                        (slot, (0..len).map(|_| Bv::fresh(&mut g, w)).collect())
                    })
                    .collect(),
                cycles: 4,
            };
            let o = ObsModel {
                done: !rng.one_in(3),
                ret: ret_w.map(|w| word(&mut rng, w)),
                mems: mem_shapes
                    .iter()
                    .map(|&(len, w)| (0..len).map(|_| word(&mut rng, w)).collect())
                    .collect(),
            };
            let ret = match o.ret {
                _ if rng.one_in(5) => None,
                Some(w) => Some(label_of(&mut rng, w)),
                None => Some(rng.next()),
            };
            let mut mems: Vec<Vec<u64>> = o
                .mems
                .iter()
                .map(|words| {
                    let mut want: Vec<u64> = words.iter().map(|&w| label_of(&mut rng, w)).collect();
                    want.truncate(rng.below(want.len() as u64 + 1) as usize);
                    want
                })
                .collect();
            mems.truncate(rng.below(mems.len() as u64 + 2) as usize);
            let done = if rng.one_in(4) { !o.done } else { o.done };
            let resp = OracleResponse { done, ret, mems };
            let exact = rng.one_in(2);

            constrain_lazy(&mut g, &u, &resp, exact);
            let mut s = Solver::new();
            g.flush_into([&mut s]);
            let sat = s.solve_assuming(&pins(&u, &o)) == SolveOutcome::Sat;
            assert_eq!(o.meets(&resp, exact), sat, "case {case}: {o:?} vs {resp:?}, exact {exact}");
            if sat {
                assert_eq!(ObsModel::read(&s, &u), o, "case {case}: model read-back");
                met += 1;
            } else {
                missed += 1;
            }
        }
        assert!(met > 500 && missed > 500, "lopsided cases: {met} met, {missed} missed");
    }
}
