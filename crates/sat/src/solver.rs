//! The CDCL solver core.
//!
//! A MiniSat-lineage solver: two-watched-literal propagation, VSIDS-style
//! dynamic variable activity with phase saving, first-UIP conflict-clause
//! learning, Luby restarts, activity-driven learnt-clause reduction, and
//! incremental solving under assumptions. Everything lives in safe `std`
//! Rust; the solver owns its clause arena and can be queried for a model
//! after every satisfiable call and extended with new variables and
//! clauses between calls.

use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

// `neg` returns this variable's negative literal — a constructor, not a
// negation of `Var` itself, so `std::ops::Neg` is the wrong shape.
#[allow(clippy::should_implement_trait)]
impl Var {
    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn neg(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` when this is the negated polarity.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite-polarity literal of the same variable.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index (for watch lists).
    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "-" } else { "" }, self.var().0)
    }
}

/// Outcome of a `solve` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found (read it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource budget (conflicts via [`Solver::set_conflict_budget`],
    /// propagations via [`Solver::set_step_budget`]) ran out before an
    /// answer was reached.
    Budget,
    /// The attached [`sim_core::Budget`] stopped the search: its token
    /// was cancelled or its wall-clock deadline expired (see
    /// [`Solver::set_ctrl`]). The solver is back at decision level 0 and
    /// remains usable.
    Cancelled,
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals enqueued through the dedicated binary implication lists.
    pub bin_props: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Long learnt clauses currently in the database (binary learnt
    /// clauses graduate to the implication lists and are not counted).
    pub learnt: u64,
    /// Literals removed from learnt clauses by recursive minimization.
    pub minimized: u64,
    /// Learnt clauses protected from eviction by glue ≤ 2 across all
    /// database reductions (cumulative).
    pub glue_kept: u64,
}

/// Tunable search parameters. [`Default`] reproduces the solver's
/// baseline behavior; the attack portfolio diversifies these knobs
/// across parallel racers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// VSIDS variable-activity decay (activity increment grows by
    /// `1/var_decay` per conflict). Default `0.95`.
    pub var_decay: f64,
    /// Learnt-clause activity decay. Default `0.999`.
    pub clause_decay: f64,
    /// Luby restart unit, in conflicts. Default `128`.
    pub restart_base: u64,
    /// Initial saved phase for fresh variables. Default `false`.
    pub phase_init: bool,
    /// When nonzero, a deterministic xorshift stream derived from this
    /// seed picks fresh variables' initial phases and adds a tiny
    /// activity jitter, diversifying branching order between racers.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 128,
            phase_init: false,
            seed: 0,
        }
    }
}

/// One watch-list entry: the watching clause plus a *blocker* literal —
/// some other literal of the clause, checked before the clause itself is
/// touched. When the blocker is already true the clause is satisfied and
/// the whole arena access is skipped, which is the common case on the
/// miter instances this solver feeds on.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    blocker: Lit,
}

/// Clause header into the flat literal arena. Clause literals live
/// contiguously in `Solver::lit_arena` at `start..start + len`; keeping
/// the header `Copy` and the literals out-of-line means watch traversal
/// walks one cache-friendly array instead of chasing a heap `Vec` per
/// clause.
#[derive(Debug, Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    activity: f64,
    /// Literal block distance (glue) at learn time: the number of
    /// distinct decision levels in the clause. Original clauses carry 0.
    glue: u32,
}

impl Clause {
    #[inline(always)]
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

const UNDEF: u8 = 0;
const TRUE: u8 = 1;

/// Literal truth value against a raw assignment slice — a free function
/// so `propagate` can keep the clause arena mutably borrowed while it
/// reads assignments.
#[inline(always)]
fn lv(assign: &[u8], l: Lit) -> u8 {
    match assign[l.var().index()] {
        UNDEF => UNDEF,
        TRUE => {
            if l.is_neg() {
                FALSE
            } else {
                TRUE
            }
        }
        _ => {
            if l.is_neg() {
                TRUE
            } else {
                FALSE
            }
        }
    }
}
const FALSE: u8 = 2;

const NO_REASON: u32 = u32::MAX;
/// Clauses up to this length are normalized by [`Solver::add_clause`]
/// without touching the heap (Tseitin gates emit at most three literals).
const ADD_CLAUSE_STACK: usize = 16;
/// Tag bit marking a reason as a binary implication: the low bits hold
/// the *other* literal of the binary clause instead of a clause index.
/// `NO_REASON` (`u32::MAX`) also carries the tag, so always test for it
/// first where both can occur.
const BIN_TAG: u32 = 1 << 31;

fn bin_reason(other: Lit) -> u32 {
    debug_assert_eq!(other.0 & BIN_TAG, 0);
    BIN_TAG | other.0
}

/// A propagation conflict: either a long clause in the arena or a
/// binary clause living in the implication lists.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    Long(u32),
    Bin(Lit, Lit),
}

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

/// The CDCL solver.
///
/// ```
/// use sat::{SolveOutcome, Solver};
///
/// let mut s = Solver::new();
/// let (a, b) = (s.new_var(), s.new_var());
/// s.add_clause(&[a.pos(), b.pos()]);
/// s.add_clause(&[a.neg()]);
/// assert_eq!(s.solve(), SolveOutcome::Sat);
/// assert!(!s.value(a) && s.value(b));
/// // Incremental: learn more, solve again.
/// s.add_clause(&[b.neg()]);
/// assert_eq!(s.solve(), SolveOutcome::Unsat);
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Flat literal storage for every long clause, indexed by the
    /// `start`/`len` of each [`Clause`] header. Compacted alongside the
    /// headers in `reduce_db`.
    lit_arena: Vec<Lit>,
    /// `watches[lit.code()]`: clauses currently watching `lit`, each
    /// with a blocker literal that short-circuits satisfied clauses.
    watches: Vec<Vec<Watch>>,
    /// `bin_imps[lit.code()]`: literals implied the moment `lit` becomes
    /// true — every binary clause `(a ∨ b)` lives here as `¬a → b` and
    /// `¬b → a`, never in the clause arena, and is propagated before any
    /// long-clause watch traversal.
    bin_imps: Vec<Vec<Lit>>,
    /// Number of binary clauses held in `bin_imps`.
    n_bin: usize,
    assign: Vec<u8>,
    /// Saved polarity per variable (phase saving).
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// VSIDS activity per variable plus the indexed max-heap over it.
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<usize>,
    cla_inc: f64,
    /// `false` once the clause set is unsatisfiable at level 0.
    ok: bool,
    /// Conflict budget for each `solve` call (`None` = unbounded).
    budget: Option<u64>,
    /// Propagation-count budget for each `solve` call (`None` =
    /// unbounded) — bounds UNSAT-hard instances that rack up few
    /// conflicts.
    step_budget: Option<u64>,
    /// Cooperative cancellation + wall-clock deadline, checked every
    /// [`CTRL_CHECK_INTERVAL`] propagated literals (binary implications
    /// included) and carrying the `sat.propagate` fault site.
    ctrl: sim_core::Budget,
    /// Monotonic count of control checks performed (the fault-site
    /// coordinate), cumulative across restarts and solve calls.
    ctrl_ticks: u64,
    /// Propagation-count threshold at which the next control check runs.
    next_ctrl: u64,
    stats: SolverStats,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Scratch stacks for recursive learnt-clause minimization.
    min_stack: Vec<Lit>,
    min_clear: Vec<Lit>,
    /// Learnt-clause count that triggers the next database reduction.
    next_reduce: usize,
    /// Search knobs (decay rates, restart unit, phase/seed init).
    config: SolverConfig,
    /// Xorshift state for seeded phase/activity diversification.
    rng: u64,
    /// Telemetry handle (disabled by default): `sat.solve` spans plus
    /// conflict/propagation/learnt-DB samples at every restart.
    obs: obs::Obs,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            lit_arena: Vec::new(),
            watches: Vec::new(),
            bin_imps: Vec::new(),
            n_bin: 0,
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            budget: None,
            step_budget: None,
            ctrl: sim_core::Budget::unlimited(),
            ctrl_ticks: 0,
            next_ctrl: 0,
            stats: SolverStats::default(),
            seen: Vec::new(),
            min_stack: Vec::new(),
            min_clear: Vec::new(),
            next_reduce: 4000,
            config: SolverConfig::default(),
            rng: 0,
            obs: obs::Obs::off(),
        }
    }

    /// Replaces the search configuration. Fresh variables created after
    /// this call pick up the configured phase initialization (and, with a
    /// nonzero seed, per-variable phase/activity diversification); decay
    /// rates and the restart unit apply to every subsequent `solve`.
    pub fn set_config(&mut self, config: SolverConfig) {
        self.config = config;
        self.rng = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        if config.seed != 0 {
            for ph in &mut self.phase {
                *ph = xorshift(&mut self.rng) & 1 == 1;
            }
        }
    }

    /// The active search configuration.
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// Attaches a telemetry handle. Enabled, every solve call records a
    /// `sat.solve` span (with effort deltas as args), bumps the
    /// `sat.conflicts` / `sat.decisions` / `sat.propagations` /
    /// `sat.restarts` counters, and samples the cumulative effort plus
    /// the learnt-DB size at each restart — the solver's progress over
    /// time without touching the search itself.
    pub fn set_obs(&mut self, obs: obs::Obs) {
        self.obs = obs;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        let (ph, act) = if self.config.seed != 0 {
            let r = xorshift(&mut self.rng);
            (r & 1 == 1, (r >> 32) as f64 * 1e-12)
        } else {
            (self.config.phase_init, 0.0)
        };
        self.assign.push(UNDEF);
        self.phase.push(ph);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(act);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_imps.push(Vec::new());
        self.bin_imps.push(Vec::new());
        self.seen.push(false);
        self.heap_pos.push(usize::MAX);
        self.heap_insert(v);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + binary + currently retained learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() + self.n_bin
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Sets the per-`solve` conflict budget (`None` = unbounded).
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Sets the per-`solve` propagation-count ("step") budget (`None` =
    /// unbounded). Complements the conflict budget: an UNSAT-hard
    /// instance can propagate forever while racking up few conflicts,
    /// and a step budget still bounds it. Exhaustion reports
    /// [`SolveOutcome::Budget`], exactly like the conflict budget.
    pub fn set_step_budget(&mut self, steps: Option<u64>) {
        self.step_budget = steps;
    }

    /// Attaches a cooperative control handle: the search observes the
    /// budget's cancellation token and wall-clock deadline at a fixed
    /// iteration cadence (and at every restart) and returns
    /// [`SolveOutcome::Cancelled`] when either trips, leaving the solver
    /// at level 0 and reusable. Enabled telemetry bumps a
    /// `sat.cancelled` counter per cancelled solve.
    pub fn set_ctrl(&mut self, ctrl: sim_core::Budget) {
        self.ctrl = ctrl;
    }

    /// The attached control handle.
    pub fn ctrl(&self) -> &sim_core::Budget {
        &self.ctrl
    }

    /// Adds a clause. Returns `false` when the clause set has become
    /// unsatisfiable at the top level (further calls keep returning
    /// `false`).
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (the solver always returns to decision
    /// level 0 before handing control back, so this only fires on misuse).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "add_clause mid-search");
        if !self.ok {
            return false;
        }
        // Normalize in place on a stack copy (clauses longer than the
        // buffer are rare and take one heap copy): sort, drop duplicates
        // and root-false literals, detect tautologies and root-true
        // literals.
        let mut stack = [Lit(0); ADD_CLAUSE_STACK];
        let mut heap = Vec::new();
        let c: &mut [Lit] = if lits.len() <= ADD_CLAUSE_STACK {
            stack[..lits.len()].copy_from_slice(lits);
            &mut stack[..lits.len()]
        } else {
            heap.extend_from_slice(lits);
            &mut heap
        };
        c.sort_unstable();
        let mut n = 0usize;
        let mut prev = None;
        for i in 0..c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology (x ∨ ¬x)
            }
            if prev == Some(l) {
                continue;
            }
            prev = Some(l);
            match self.lit_value(l) {
                TRUE => return true,
                FALSE => {}
                _ => {
                    c[n] = l;
                    n += 1;
                }
            }
        }
        match n {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            2 => {
                self.attach_binary(c[0], c[1]);
                true
            }
            _ => {
                self.attach(&c[..n], false, 0);
                true
            }
        }
    }

    /// Bulk ingest, the one entry point for clause streams built
    /// elsewhere (see [`crate::Gates`]): grows the variable set to
    /// `num_vars`, then adds `clauses` in order. The result is the state
    /// any interleaving of the same [`Solver::new_var`] and
    /// [`Solver::add_clause`] calls would leave, provided each variable
    /// exists before the first clause naming it: a fresh variable touches
    /// no clause state, and adding a clause at level 0 touches neither
    /// the decision heap nor the seeded phase stream. Once the clause set
    /// is unsatisfiable at the top level the rest of the stream is moot
    /// and skipped.
    pub fn ingest<'c>(&mut self, num_vars: usize, clauses: impl IntoIterator<Item = &'c [Lit]>) {
        while self.num_vars() < num_vars {
            self.new_var();
        }
        for c in clauses {
            if !self.add_clause(c) {
                return;
            }
        }
    }

    /// Solves the current clause set with no assumptions.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_assuming(&[])
    }

    /// Solves under the given assumption literals. A later call without
    /// them sees the same clause set unrestricted — this is what makes
    /// activation-literal patterns (miter on/off) cheap.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        let mut span = self.obs.span("sat.solve");
        let before = self.stats;
        let budget_end = self.budget.map(|b| self.stats.conflicts.saturating_add(b));
        let step_end = self.step_budget.map(|b| self.stats.propagations.saturating_add(b));
        let mut restart = 0u64;
        let outcome = loop {
            let limit = luby(restart) * self.config.restart_base;
            match self.search(limit, assumptions, budget_end, step_end) {
                Search::Sat => {
                    for v in 0..self.num_vars() {
                        self.phase[v] = self.assign[v] == TRUE;
                    }
                    // Leave the model readable but return to level 0 for
                    // incremental reuse — `value` reads saved phases.
                    self.cancel_until(0);
                    break SolveOutcome::Sat;
                }
                Search::Unsat => {
                    self.cancel_until(0);
                    break SolveOutcome::Unsat;
                }
                Search::Budget => {
                    self.cancel_until(0);
                    break SolveOutcome::Budget;
                }
                Search::Cancelled => {
                    self.cancel_until(0);
                    if self.obs.enabled() {
                        self.obs.counter("sat.cancelled").inc();
                    }
                    break SolveOutcome::Cancelled;
                }
                Search::Restart => {
                    self.stats.restarts += 1;
                    if self.obs.enabled() {
                        self.obs.sample("sat.conflicts", self.stats.conflicts);
                        self.obs.sample("sat.propagations", self.stats.propagations);
                        self.obs.sample("sat.decisions", self.stats.decisions);
                        self.obs.sample("sat.learnt", self.stats.learnt);
                    }
                    self.cancel_until(0);
                    restart += 1;
                }
            }
        };
        if span.recording() {
            let d = self.stats;
            span.arg("conflicts", d.conflicts - before.conflicts);
            span.arg("decisions", d.decisions - before.decisions);
            span.arg("propagations", d.propagations - before.propagations);
            span.arg("learnt", d.learnt);
            self.obs.counter("sat.solves").inc();
            self.obs.counter("sat.conflicts").add(d.conflicts - before.conflicts);
            self.obs.counter("sat.decisions").add(d.decisions - before.decisions);
            self.obs.counter("sat.propagations").add(d.propagations - before.propagations);
            self.obs.counter("sat.restarts").add(d.restarts - before.restarts);
            self.obs.counter("sat.bin_props").add(d.bin_props - before.bin_props);
            self.obs.counter("sat.minimized_lits").add(d.minimized - before.minimized);
            self.obs.counter("sat.glue_kept").add(d.glue_kept - before.glue_kept);
            self.obs.gauge("sat.learnt").set(d.learnt);
        }
        outcome
    }

    /// The model value of `v` after a [`SolveOutcome::Sat`] answer.
    pub fn value(&self, v: Var) -> bool {
        self.phase[v.index()]
    }

    /// The model value of a literal after a [`SolveOutcome::Sat`] answer.
    pub fn lit_true(&self, l: Lit) -> bool {
        self.value(l.var()) != l.is_neg()
    }

    // ------------------------------------------------------------ search

    /// Propagated literals (long-clause dequeues *plus* binary-list
    /// implications) between cooperative-control checks. Frequent enough
    /// that a deadline or cancel stops a propagation-heavy search within
    /// microseconds; rare enough that an unlimited budget costs one
    /// compare per search iteration. Counting binary propagations keeps
    /// the effective interval honest on binary-heavy instances, where a
    /// single search iteration can flood thousands of implications.
    const CTRL_CHECK_INTERVAL: u64 = 256;

    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        budget_end: Option<u64>,
        step_end: Option<u64>,
    ) -> Search {
        let mut conflicts = 0u64;
        loop {
            // Cooperative control: the step budget is a plain compare
            // every iteration; the deadline/cancel check (which may read
            // the clock) and the `sat.propagate` fault site run every
            // `CTRL_CHECK_INTERVAL` *propagated literals* — binary
            // implications included — with the cumulative check ordinal
            // as the fault coordinate. Pacing by propagation work rather
            // than loop iterations keeps the check interval honest when
            // one iteration floods a long binary chain.
            if let Some(end) = step_end {
                if self.stats.propagations >= end {
                    return Search::Budget;
                }
            }
            let work = self.stats.propagations + self.stats.bin_props;
            if work >= self.next_ctrl {
                let ord = self.ctrl_ticks;
                self.ctrl_ticks += 1;
                self.next_ctrl = work + Self::CTRL_CHECK_INTERVAL;
                self.ctrl.fault_hit(sim_core::faultpoint::sites::SAT_PROPAGATE, ord);
                if self.ctrl.is_exceeded() {
                    return Search::Cancelled;
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Search::Unsat;
                }
                let (learnt, bt, glue) = self.analyze(confl);
                // Never undo assumption decisions past where the learnt
                // clause asserts; backtracking *through* assumptions is
                // fine — the decision loop below re-applies them.
                self.cancel_until(bt);
                let asserting = learnt[0];
                match learnt.len() {
                    1 => self.enqueue(asserting, NO_REASON),
                    2 => {
                        // Binary learnt clauses graduate straight to the
                        // implication lists — never reduced, propagated
                        // before any watch traversal.
                        self.attach_binary(learnt[0], learnt[1]);
                        self.enqueue(asserting, bin_reason(learnt[1]));
                    }
                    _ => {
                        let cref = self.attach(&learnt, true, glue);
                        self.enqueue(asserting, cref);
                    }
                }
                self.decay_activities();
                if self.stats.learnt as usize >= self.next_reduce {
                    self.reduce_db();
                }
                if let Some(end) = budget_end {
                    if self.stats.conflicts >= end {
                        return Search::Budget;
                    }
                }
                if conflicts >= conflict_limit {
                    return Search::Restart;
                }
            } else {
                // Decisions: assumptions first (one per propagation round,
                // so implication levels stay exact), then VSIDS.
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        TRUE => self.trail_lim.push(self.trail.len()),
                        FALSE => return Search::Unsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, NO_REASON);
                            break;
                        }
                    }
                }
                if self.qhead < self.trail.len() {
                    continue; // an assumption was enqueued: propagate it
                }
                let Some(v) = self.pick_branch_var() else {
                    return Search::Sat;
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = if self.phase[v.index()] { v.pos() } else { v.neg() };
                self.enqueue(lit, NO_REASON);
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> u8 {
        match self.assign[l.var().index()] {
            UNDEF => UNDEF,
            TRUE => {
                if l.is_neg() {
                    FALSE
                } else {
                    TRUE
                }
            }
            _ => {
                if l.is_neg() {
                    TRUE
                } else {
                    FALSE
                }
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        let v = l.var().index();
        self.assign[v] = if l.is_neg() { FALSE } else { TRUE };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = UNDEF;
            self.reason[v.index()] = NO_REASON;
            if self.heap_pos[v.index()] == usize::MAX {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = keep;
    }

    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Binary implications of `p` first: a flat literal list, no
            // clause-arena indirection, and it seeds the queue before
            // any long-clause watch traversal touches memory.
            let nb = self.bin_imps[p.code()].len();
            for i in 0..nb {
                let q = self.bin_imps[p.code()][i];
                match self.lit_value_raw(q) {
                    TRUE => {}
                    FALSE => return Some(Conflict::Bin(q, !p)),
                    _ => {
                        self.stats.bin_props += 1;
                        self.enqueue(q, bin_reason(!p));
                    }
                }
            }
            let false_lit = !p;
            // Clauses watching ¬p must find a new watch or propagate.
            // The loop reads assignments through `lv` on the `assign`
            // field directly so the clause arena can stay mutably
            // borrowed across the watch search — one bounds-checked
            // arena access per clause instead of one per literal.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut keep = 0usize;
            let mut confl = None;
            let n = ws.len();
            let mut wi = 0usize;
            while wi < n {
                let w = ws[wi];
                wi += 1;
                // Blocker check: a satisfied clause costs one array read.
                if lv(&self.assign, w.blocker) == TRUE {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let h = self.clauses[w.cref as usize];
                let cl = &mut self.lit_arena[h.range()];
                if cl[0] == false_lit {
                    cl.swap(0, 1);
                }
                debug_assert_eq!(cl[1], false_lit);
                let first = cl[0];
                if first != w.blocker && lv(&self.assign, first) == TRUE {
                    // Satisfied through the other watch: remember it as
                    // the blocker for next time.
                    ws[keep] = Watch { cref: w.cref, blocker: first };
                    keep += 1;
                    continue;
                }
                let mut moved = None;
                for k in 2..cl.len() {
                    let l = cl[k];
                    if lv(&self.assign, l) != FALSE {
                        cl.swap(1, k);
                        moved = Some(l);
                        break;
                    }
                }
                if let Some(l) = moved {
                    self.watches[l.code()].push(Watch { cref: w.cref, blocker: first });
                    continue;
                }
                // No new watch: unit or conflict.
                ws[keep] = w;
                keep += 1;
                if lv(&self.assign, first) == FALSE {
                    confl = Some(Conflict::Long(w.cref));
                    // Copy the rest back and stop.
                    while wi < n {
                        ws[keep] = ws[wi];
                        keep += 1;
                        wi += 1;
                    }
                    break;
                }
                self.enqueue(first, w.cref);
            }
            ws.truncate(keep);
            self.watches[false_lit.code()] = ws;
            if confl.is_some() {
                return confl;
            }
        }
        None
    }

    /// `lit_value` without borrowing conflicts inside `propagate`.
    fn lit_value_raw(&self, l: Lit) -> u8 {
        match self.assign[l.var().index()] {
            UNDEF => UNDEF,
            TRUE => {
                if l.is_neg() {
                    FALSE
                } else {
                    TRUE
                }
            }
            _ => {
                if l.is_neg() {
                    TRUE
                } else {
                    FALSE
                }
            }
        }
    }

    /// First-UIP conflict analysis: returns the learnt clause (asserting
    /// literal first, recursively minimized), the backtrack level, and
    /// the clause's literal block distance (glue).
    fn analyze(&mut self, confl: Conflict) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut ante = confl;
        loop {
            match ante {
                Conflict::Long(cref) => {
                    self.bump_clause(cref);
                    let h = self.clauses[cref as usize];
                    for k in h.range() {
                        let q = self.lit_arena[k];
                        if Some(q) == p {
                            continue; // the pivot: the literal this clause implied
                        }
                        self.analyze_mark(q, &mut counter, &mut learnt);
                    }
                }
                Conflict::Bin(a, b) => {
                    for q in [a, b] {
                        if Some(q) == p {
                            continue;
                        }
                        self.analyze_mark(q, &mut counter, &mut learnt);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            let r = self.reason[pl.var().index()];
            debug_assert_ne!(r, NO_REASON);
            ante = if r & BIN_TAG != 0 {
                Conflict::Bin(pl, Lit(r & !BIN_TAG))
            } else {
                Conflict::Long(r)
            };
        }
        // Recursive minimization: a learnt literal whose implication-
        // graph antecedents all resolve into the clause (or level 0) is
        // redundant — the rest of the clause already subsumes it. The
        // `seen` marks for all learnt literals stay up during the walk,
        // which is what makes dropping several literals at once sound.
        let abstract_levels = learnt[1..]
            .iter()
            .fold(0u64, |acc, l| acc | 1u64 << (self.level[l.var().index()] & 63));
        let mut kept: Vec<Lit> = Vec::with_capacity(learnt.len());
        kept.push(learnt[0]);
        for &l in &learnt[1..] {
            if self.reason[l.var().index()] == NO_REASON || !self.lit_redundant(l, abstract_levels)
            {
                kept.push(l);
            } else {
                self.stats.minimized += 1;
            }
        }
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        for i in 0..self.min_clear.len() {
            let v = self.min_clear[i].var().index();
            self.seen[v] = false;
        }
        self.min_clear.clear();
        let mut learnt = kept;
        // Glue: distinct decision levels across the minimized clause.
        let mut levels: Vec<u32> = learnt.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        let glue = levels.len() as u32;
        // Backtrack to the second-highest level; move that literal into
        // watch position 1.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt, glue)
    }

    fn analyze_mark(&mut self, q: Lit, counter: &mut usize, learnt: &mut Vec<Lit>) {
        let v = q.var().index();
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump_var(q.var());
            if self.level[v] >= self.decision_level() {
                *counter += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// The MiniSat `litRedundant` walk: true when `l`'s assignment is
    /// implied (through the implication graph) by literals already seen —
    /// i.e. by the rest of the learnt clause. Newly marked literals are
    /// pushed to `min_clear`; on failure the marks added by *this* walk
    /// are rolled back so an irredundant subtree isn't cached as seen.
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u64) -> bool {
        self.min_stack.clear();
        self.min_stack.push(l);
        let top = self.min_clear.len();
        while let Some(p) = self.min_stack.pop() {
            let r = self.reason[p.var().index()];
            debug_assert_ne!(r, NO_REASON);
            let ok = if r & BIN_TAG != 0 {
                self.min_check(Lit(r & !BIN_TAG), abstract_levels)
            } else {
                let h = self.clauses[r as usize];
                let mut all = true;
                // The slot at `start` is the literal this clause
                // implied — skip it.
                for k in h.range().skip(1) {
                    let q = self.lit_arena[k];
                    if !self.min_check(q, abstract_levels) {
                        all = false;
                        break;
                    }
                }
                all
            };
            if !ok {
                for i in top..self.min_clear.len() {
                    let v = self.min_clear[i].var().index();
                    self.seen[v] = false;
                }
                self.min_clear.truncate(top);
                return false;
            }
        }
        true
    }

    /// One antecedent literal of the redundancy walk: already-seen or
    /// level-0 literals resolve away; an implied literal inside the
    /// clause's level set recurses; anything else (a decision, or a
    /// level outside the clause) proves the candidate irredundant.
    fn min_check(&mut self, q: Lit, abstract_levels: u64) -> bool {
        let v = q.var().index();
        if self.seen[v] || self.level[v] == 0 {
            return true;
        }
        if self.reason[v] != NO_REASON && (1u64 << (self.level[v] & 63)) & abstract_levels != 0 {
            self.seen[v] = true;
            self.min_stack.push(q);
            self.min_clear.push(q);
            true
        } else {
            false
        }
    }

    fn attach(&mut self, lits: &[Lit], learnt: bool, glue: u32) -> u32 {
        debug_assert!(lits.len() >= 3);
        let cref = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(Watch { cref, blocker: lits[1] });
        self.watches[lits[1].code()].push(Watch { cref, blocker: lits[0] });
        let start = self.lit_arena.len() as u32;
        self.lit_arena.extend_from_slice(lits);
        self.clauses.push(Clause {
            start,
            len: lits.len() as u32,
            learnt,
            activity: self.cla_inc,
            glue,
        });
        if learnt {
            self.stats.learnt += 1;
        }
        cref
    }

    /// Installs a binary clause `(a ∨ b)` as a pair of implications in
    /// the dedicated lists. Binary clauses are never evicted.
    fn attach_binary(&mut self, a: Lit, b: Lit) {
        self.bin_imps[(!a).code()].push(b);
        self.bin_imps[(!b).code()].push(a);
        self.n_bin += 1;
    }

    /// Halves the learnt-clause database. Eviction order is (glue
    /// descending, activity ascending): a clause spanning few decision
    /// levels is structurally valuable regardless of how recently it
    /// fired, so glue ≤ 2 clauses are kept unconditionally (counted in
    /// `stats.glue_kept`), as are reason clauses. Binary clauses live in
    /// the implication lists and never reach this path. The watch lists
    /// and reason references are rebuilt around the compacted arena.
    fn reduce_db(&mut self) {
        let mut locked = vec![false; self.clauses.len()];
        for &r in &self.reason {
            // `NO_REASON` carries `BIN_TAG` too, so this skips both
            // binary reasons and unassigned variables.
            if r & BIN_TAG == 0 {
                locked[r as usize] = true;
            }
        }
        let mut cand: Vec<usize> = Vec::new();
        let mut protected = 0u64;
        for (i, c) in self.clauses.iter().enumerate() {
            if c.learnt && !locked[i] {
                if c.glue <= 2 {
                    protected += 1;
                } else {
                    cand.push(i);
                }
            }
        }
        self.stats.glue_kept += protected;
        if cand.is_empty() {
            self.next_reduce += self.next_reduce / 2;
            return;
        }
        cand.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
            cb.glue
                .cmp(&ca.glue)
                .then(ca.activity.partial_cmp(&cb.activity).expect("activities are finite"))
        });
        let mut dropping = vec![false; self.clauses.len()];
        for &i in cand.iter().take(cand.len() / 2) {
            dropping[i] = true;
        }
        let mut remap: Vec<u32> = vec![NO_REASON; self.clauses.len()];
        let mut kept: Vec<Clause> = Vec::with_capacity(self.clauses.len());
        let mut arena: Vec<Lit> = Vec::with_capacity(self.lit_arena.len());
        for (i, c) in self.clauses.drain(..).enumerate() {
            if dropping[i] {
                self.stats.learnt -= 1;
            } else {
                remap[i] = kept.len() as u32;
                let start = arena.len() as u32;
                arena.extend_from_slice(&self.lit_arena[c.range()]);
                kept.push(Clause { start, ..c });
            }
        }
        self.clauses = kept;
        self.lit_arena = arena;
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            let cref = i as u32;
            let (l0, l1) = (self.lit_arena[c.start as usize], self.lit_arena[c.start as usize + 1]);
            self.watches[l0.code()].push(Watch { cref, blocker: l1 });
            self.watches[l1.code()].push(Watch { cref, blocker: l0 });
        }
        for r in &mut self.reason {
            if *r & BIN_TAG == 0 {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, NO_REASON, "reason clause was dropped");
            }
        }
        self.next_reduce += self.next_reduce / 2;
    }

    // -------------------------------------------------------- activities

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        if c.learnt {
            c.activity += self.cla_inc;
            if c.activity > 1e20 {
                for c in &mut self.clauses {
                    c.activity *= 1e-20;
                }
                self.cla_inc *= 1e-20;
            }
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay;
    }

    // -------------------------------------------------- decision heap

    fn heap_insert(&mut self, v: Var) {
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v.index()];
        if pos != usize::MAX {
            self.heap_up(pos);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i].index()] <= self.activity[self.heap[parent].index()] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].index()] > self.activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].index()] > self.activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a].index()] = a;
        self.heap_pos[self.heap[b].index()] = b;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(&v) = self.heap.first() {
            let last = self.heap.len() - 1;
            self.heap_swap(0, last);
            self.heap.pop();
            self.heap_pos[v.index()] = usize::MAX;
            self.heap_down(0);
            if self.assign[v.index()] == UNDEF {
                return Some(v);
            }
        }
        None
    }
}

enum Search {
    Sat,
    Unsat,
    Budget,
    Cancelled,
    Restart,
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    let mut x = i;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.pos()]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value(a));
        assert!(!s.add_clause(&[a.neg()]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn models_satisfy_all_clauses() {
        // Random 3-SAT at a satisfiable-ish density; verify each model.
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..30 {
            let n = 20 + (round % 10);
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..(3 * n) {
                let c: Vec<Lit> = (0..3)
                    .map(|_| {
                        let v = vars[rng.gen_range(0..n)];
                        if rng.gen_bool(0.5) {
                            v.pos()
                        } else {
                            v.neg()
                        }
                    })
                    .collect();
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            if s.solve() == SolveOutcome::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|&l| s.lit_true(l)), "model violates {c:?}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_formulas() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let n = rng.gen_range(3..9usize);
            let n_clauses = rng.gen_range(2..24usize);
            let clauses: Vec<Vec<(usize, bool)>> = (0..n_clauses)
                .map(|_| {
                    (0..rng.gen_range(1..4usize))
                        .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let brute = (0..1u32 << n).any(|m| {
                clauses.iter().all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
            });
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for c in &clauses {
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|&(v, pos)| if pos { vars[v].pos() } else { vars[v].neg() })
                    .collect();
                s.add_clause(&lits);
            }
            let got = s.solve();
            assert_eq!(got == SolveOutcome::Sat, brute, "clauses {clauses:?}");
        }
    }

    #[test]
    fn add_clause_normalization_agrees_with_brute_force() {
        // Clauses built to hit every normalization path: duplicates,
        // complementary pairs (tautologies), literals already true or
        // false at the root (units asserted first), and clauses longer
        // than the stack buffer — a short core split around padding of
        // root-false literals, so the core survives only if both ends of
        // a long clause are copied.
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..400 {
            let n = rng.gen_range(2..8usize);
            let units: Vec<(usize, bool)> = (0..rng.gen_range(1..3usize))
                .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            let mut clauses: Vec<Vec<(usize, bool)>> = units.iter().map(|&u| vec![u]).collect();
            for _ in 0..rng.gen_range(1..16usize) {
                let mut c: Vec<(usize, bool)> = (0..rng.gen_range(1..5usize))
                    .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                match rng.gen_range(0..5u32) {
                    0 => c.push(c[0]),
                    1 => c.push((c[0].0, !c[0].1)),
                    2 => {
                        let pad = (0..rng.gen_range(ADD_CLAUSE_STACK..ADD_CLAUSE_STACK + 8))
                            .map(|_| {
                                let (v, pos) = units[rng.gen_range(0..units.len())];
                                (v, !pos)
                            })
                            .collect::<Vec<_>>();
                        let tail = c.split_off(c.len() / 2);
                        c.extend(pad);
                        c.extend(tail);
                    }
                    _ => {}
                }
                clauses.push(c);
            }
            let brute = (0..1u32 << n).any(|m| {
                clauses.iter().all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
            });
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let lits = |c: &Vec<(usize, bool)>| -> Vec<Lit> {
                c.iter().map(|&(v, pos)| if pos { vars[v].pos() } else { vars[v].neg() }).collect()
            };
            let mut ok = true;
            for c in &clauses {
                let added = s.add_clause(&lits(c));
                assert!(ok || !added, "add_clause recovered from a root conflict");
                ok = added;
            }
            if !ok {
                assert!(!brute, "root conflict on a satisfiable set {clauses:?}");
            }
            let got = s.solve();
            assert_eq!(got == SolveOutcome::Sat, brute, "clauses {clauses:?}");
            if got == SolveOutcome::Sat {
                for c in &clauses {
                    assert!(lits(c).iter().any(|&l| s.lit_true(l)), "model violates {c:?}");
                }
            }
        }
    }

    #[test]
    fn pigeonhole_is_unsat() {
        // 4 pigeons, 3 holes: classic resolution-hard-ish UNSAT instance.
        let (pigeons, holes) = (4usize, 3usize);
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in x.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for (p1, row1) in x.iter().enumerate() {
                for row2 in x.iter().skip(p1 + 1) {
                    s.add_clause(&[row1[h].neg(), row2[h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_restrict_and_release() {
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        s.add_clause(&[a.pos(), b.pos()]);
        assert_eq!(s.solve_assuming(&[a.neg(), b.neg()]), SolveOutcome::Unsat);
        assert_eq!(s.solve_assuming(&[a.neg()]), SolveOutcome::Sat);
        assert!(s.value(b));
        // The same solver, unrestricted, is still satisfiable.
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn conflict_budget_reports_exhaustion() {
        // Large pigeonhole with a 1-conflict budget must give up.
        let (pigeons, holes) = (7usize, 6usize);
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in x.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for (p1, row1) in x.iter().enumerate() {
                for row2 in x.iter().skip(p1 + 1) {
                    s.add_clause(&[row1[h].neg(), row2[h].neg()]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveOutcome::Budget);
        // Raising the budget finishes the proof.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    /// A pigeonhole instance (UNSAT, propagation-heavy) for the budget
    /// and cancellation tests.
    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in x.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for (p1, row1) in x.iter().enumerate() {
                for row2 in x.iter().skip(p1 + 1) {
                    s.add_clause(&[row1[h].neg(), row2[h].neg()]);
                }
            }
        }
        s
    }

    #[test]
    fn step_budget_bounds_propagation_heavy_search() {
        let mut s = pigeonhole(8, 7);
        s.set_step_budget(Some(1));
        assert_eq!(s.solve(), SolveOutcome::Budget);
        // Lifting the step budget finishes the proof on the same solver.
        s.set_step_budget(None);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn expired_deadline_cancels_and_solver_stays_usable() {
        use sim_core::{Budget, Deadline};
        let mut s = pigeonhole(8, 7);
        s.set_ctrl(Budget::with_deadline(Deadline::at(std::time::Instant::now())));
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        s.set_ctrl(Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn cancelled_token_stops_the_search() {
        let ctrl = sim_core::Budget::unlimited();
        let mut s = pigeonhole(8, 7);
        s.set_ctrl(ctrl.clone());
        ctrl.cancel();
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert!(s.ctrl().is_exceeded());
        // Swapping in a fresh handle lets the same solver finish.
        s.set_ctrl(sim_core::Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn cancelled_solves_bump_the_obs_counter() {
        let o = obs::Obs::noop();
        let ctrl = sim_core::Budget::unlimited();
        ctrl.cancel();
        let mut s = pigeonhole(7, 6);
        s.set_obs(o.clone());
        s.set_ctrl(ctrl);
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert_eq!(o.counter("sat.cancelled").get(), 1);
    }

    #[test]
    fn injected_fault_cancels_at_the_sat_site() {
        use sim_core::faultpoint::{sites, FaultPlan};
        let ctrl = sim_core::Budget::unlimited()
            .with_faults(FaultPlan::new().cancel_at(sites::SAT_PROPAGATE, 0));
        let mut s = pigeonhole(8, 7);
        s.set_ctrl(ctrl.clone());
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert_eq!(ctrl.faults_fired(), vec![(sites::SAT_PROPAGATE.to_string(), 0)]);
    }

    #[test]
    fn binary_chain_propagates_and_counts() {
        // x0 pinned true; (¬x_i ∨ x_{i+1}) forces the whole chain true
        // through the binary implication lists.
        let n = 500usize;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 1 {
            s.add_clause(&[vars[i].neg(), vars[i + 1].pos()]);
        }
        s.add_clause(&[vars[0].pos()]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        for (i, v) in vars.iter().enumerate() {
            assert!(s.value(*v), "bit {i}");
        }
        assert!(s.stats().bin_props as usize >= n - 1, "stats: {:?}", s.stats());
    }

    /// Several disjoint binary implication chains: each decision floods
    /// a few hundred binary propagations in a single search iteration.
    fn binary_chains(chains: usize, len: usize) -> Solver {
        let mut s = Solver::new();
        for _ in 0..chains {
            let vars: Vec<Var> = (0..len).map(|_| s.new_var()).collect();
            for i in 0..len - 1 {
                // (x_i ∨ ¬x_{i+1}): deciding x_i false (the default
                // phase) cascades the rest of the chain false.
                s.add_clause(&[vars[i].pos(), vars[i + 1].neg()]);
            }
        }
        s
    }

    #[test]
    fn ctrl_cadence_counts_binary_propagations() {
        // Regression for the check cadence: the instance solves in a
        // handful of search iterations, but each one floods hundreds of
        // binary implications. A fault armed at check ordinal 3 only
        // fires if the cadence is paced by propagation work — the old
        // per-iteration cadence would need 768+ iterations to get there
        // and would return Sat without ever hitting the site.
        use sim_core::faultpoint::{sites, FaultPlan};
        let ctrl = sim_core::Budget::unlimited()
            .with_faults(FaultPlan::new().cancel_at(sites::SAT_PROPAGATE, 3));
        let mut s = binary_chains(8, 400);
        s.set_ctrl(ctrl.clone());
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert_eq!(ctrl.faults_fired(), vec![(sites::SAT_PROPAGATE.to_string(), 3)]);
        // With a fresh control handle, the same solver finishes.
        s.set_ctrl(sim_core::Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn tight_deadline_cancels_a_binary_heavy_search() {
        use sim_core::{Budget, Deadline};
        let mut s = binary_chains(8, 2000);
        s.set_ctrl(Budget::with_deadline(Deadline::at(std::time::Instant::now())));
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        s.set_ctrl(Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn minimization_shrinks_learnt_clauses() {
        let mut s = pigeonhole(8, 7);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(s.stats().minimized > 0, "stats: {:?}", s.stats());
    }

    #[test]
    fn diversified_configs_agree_on_verdicts() {
        let mut rng = StdRng::seed_from_u64(41);
        let configs = [
            SolverConfig::default(),
            SolverConfig { var_decay: 0.85, restart_base: 64, ..SolverConfig::default() },
            SolverConfig { phase_init: true, ..SolverConfig::default() },
            SolverConfig { seed: 0xC0FFEE, var_decay: 0.99, ..SolverConfig::default() },
        ];
        for _ in 0..40 {
            let n = rng.gen_range(4..10usize);
            let n_clauses = rng.gen_range(4..30usize);
            let clauses: Vec<Vec<(usize, bool)>> = (0..n_clauses)
                .map(|_| {
                    (0..rng.gen_range(1..4usize))
                        .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let mut verdicts = Vec::new();
            for cfg in configs {
                let mut s = Solver::new();
                s.set_config(cfg);
                let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
                for c in &clauses {
                    let lits: Vec<Lit> = c
                        .iter()
                        .map(|&(v, pos)| if pos { vars[v].pos() } else { vars[v].neg() })
                        .collect();
                    s.add_clause(&lits);
                }
                let got = s.solve();
                if got == SolveOutcome::Sat {
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&(v, pos)| s.value(vars[v]) == pos),
                            "model violates {c:?} under {cfg:?}"
                        );
                    }
                }
                verdicts.push(got);
            }
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "configs disagree: {verdicts:?} on {clauses:?}"
            );
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, … pinned x0 = 0 → alternating model.
        let n = 24usize;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 1 {
            let (a, b) = (vars[i], vars[i + 1]);
            s.add_clause(&[a.pos(), b.pos()]);
            s.add_clause(&[a.neg(), b.neg()]);
        }
        s.add_clause(&[vars[0].neg()]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(s.value(*v), i % 2 == 1, "bit {i}");
        }
    }
}
