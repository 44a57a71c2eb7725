//! A small CNF-building API: Tseitin gate encoding with constant folding
//! and structural hashing.
//!
//! [`Gates`] hands out literals for logic gates. Constants fold away
//! (`and(x, ⊥) = ⊥`), repeated structure is hashed to one literal
//! (`and(a, b)` twice returns the same literal), and trivial identities
//! short-circuit (`and(a, a) = a`, `and(a, ¬a) = ⊥`). Circuit encoders —
//! like the netlist bit-blaster in `attack-sat` — build word structures
//! on top of this layer without ever writing a raw clause.
//!
//! The builder owns no solver. It numbers variables itself and appends
//! every clause to a flat pending buffer; [`Gates::flush_into`] streams
//! that buffer into any number of [`Solver`]s, so one encoding can feed
//! every racer of a portfolio.

use crate::solver::{Lit, Solver, Var};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply-rotate hash (as in `rustc`'s `FxHasher`): a few
/// cycles per word, plenty for the gate cache's small-integer keys
/// (`Lit`s hash as `u32`, the `GateOp` discriminant as `usize`). The
/// cache is only ever probed through `get`/`insert`, never iterated, so
/// the hash cannot reorder the clause stream.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Gate kinds used as structural-hash keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GateOp {
    And,
    Xor,
    Mux,
}

/// A Tseitin gate builder emitting a clause stream.
#[derive(Debug, Default)]
pub struct Gates {
    /// Variables allocated so far.
    num_vars: u32,
    /// Clauses emitted so far, drained or not.
    num_clauses: usize,
    truth: Option<Lit>,
    /// Structural hash: `(op, a, b, c)` → output literal.
    cache: HashMap<(GateOp, Lit, Lit, Lit), Lit, BuildHasherDefault<FxHasher>>,
    /// Literals of the clauses emitted since the last
    /// [`Gates::flush_into`], back to back.
    lits: Vec<Lit>,
    /// `ends[i]`: end offset of pending clause `i` in `lits`.
    ends: Vec<u32>,
}

impl Gates {
    /// An empty builder.
    pub fn new() -> Gates {
        Gates::default()
    }

    /// Appends one clause to the pending stream.
    fn emit(&mut self, lits: &[Lit]) {
        self.lits.extend_from_slice(lits);
        let end = u32::try_from(self.lits.len()).expect("pending stream below 2^32 literals");
        self.ends.push(end);
        self.num_clauses += 1;
    }

    /// Variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Clauses emitted so far (before any solver-side normalization).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// The pending clauses in emission order.
    fn pending(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.ends.iter().scan(0usize, move |start, &end| {
            let c = &self.lits[*start..end as usize];
            *start = end as usize;
            Some(c)
        })
    }

    /// Streams the clauses emitted since the last flush, and every
    /// variable allocated so far, into each of `solvers` in turn (see
    /// [`Solver::ingest`]), then drops them from the builder.
    pub fn flush_into<'s>(&mut self, solvers: impl IntoIterator<Item = &'s mut Solver>) {
        for s in solvers {
            s.ingest(self.num_vars(), self.pending());
        }
        self.lits.clear();
        self.ends.clear();
    }

    /// The constant-true literal (allocated on first use).
    pub fn tru(&mut self) -> Lit {
        match self.truth {
            Some(t) => t,
            None => {
                let t = self.fresh();
                self.emit(&[t]);
                self.truth = Some(t);
                t
            }
        }
    }

    /// The constant-false literal.
    pub fn fls(&mut self) -> Lit {
        !self.tru()
    }

    /// A constant literal from a boolean.
    pub fn constant(&mut self, v: bool) -> Lit {
        if v {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// `true` when the literal is the constant with value `v`.
    pub fn is_const(&self, l: Lit, v: bool) -> bool {
        match self.truth {
            Some(t) => l == (if v { t } else { !t }),
            None => false,
        }
    }

    /// The constant value of a literal, if it is one.
    pub fn const_value(&self, l: Lit) -> Option<bool> {
        match self.truth {
            Some(t) if l == t => Some(true),
            Some(t) if l == !t => Some(false),
            _ => None,
        }
    }

    /// A fresh free literal.
    pub fn fresh(&mut self) -> Lit {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v.pos()
    }

    /// `¬a` (no clauses — literals carry their own polarity).
    pub fn not(&self, a: Lit) -> Lit {
        !a
    }

    /// `a ∧ b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => return self.fls(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.fls();
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        let key = (GateOp::And, x, y, x);
        if let Some(&o) = self.cache.get(&key) {
            return o;
        }
        let o = self.fresh();
        self.emit(&[!o, x]);
        self.emit(&[!o, y]);
        self.emit(&[o, !x, !y]);
        self.cache.insert(key, o);
        o
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let o = self.and(!a, !b);
        !o
    }

    /// `a ⊕ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_value(a), self.const_value(b)) {
            (Some(va), _) => return if va { !b } else { b },
            (_, Some(vb)) => return if vb { !a } else { a },
            _ => {}
        }
        if a == b {
            return self.fls();
        }
        if a == !b {
            return self.tru();
        }
        // Canonical form: positive inputs, polarity folded into the output.
        let (mut x, mut y, mut flip) = (a, b, false);
        if x.is_neg() {
            x = !x;
            flip = !flip;
        }
        if y.is_neg() {
            y = !y;
            flip = !flip;
        }
        let (x, y) = if x <= y { (x, y) } else { (y, x) };
        let key = (GateOp::Xor, x, y, x);
        let o = match self.cache.get(&key) {
            Some(&o) => o,
            None => {
                let o = self.fresh();
                self.emit(&[!o, x, y]);
                self.emit(&[!o, !x, !y]);
                self.emit(&[o, !x, y]);
                self.emit(&[o, x, !y]);
                self.cache.insert(key, o);
                o
            }
        };
        if flip {
            !o
        } else {
            o
        }
    }

    /// `a ↔ b` (XNOR).
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.xor(a, b);
        !x
    }

    /// `c ? t : e`.
    pub fn mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if let Some(vc) = self.const_value(c) {
            return if vc { t } else { e };
        }
        if t == e {
            return t;
        }
        match (self.const_value(t), self.const_value(e)) {
            (Some(true), _) => return self.or(c, e),
            (Some(false), _) => return self.and(!c, e),
            (_, Some(true)) => return self.or(!c, t),
            (_, Some(false)) => return self.and(c, t),
            _ => {}
        }
        if t == !e {
            return self.xor(!c, t); // c ? t : ¬t  ==  ¬(c ⊕ t)
        }
        let key = (GateOp::Mux, c, t, e);
        if let Some(&o) = self.cache.get(&key) {
            return o;
        }
        let o = self.fresh();
        self.emit(&[!c, !t, o]);
        self.emit(&[!c, t, !o]);
        self.emit(&[c, !e, o]);
        self.emit(&[c, e, !o]);
        // Redundant but propagation-strengthening: t ∧ e → o, ¬t ∧ ¬e → ¬o.
        self.emit(&[!t, !e, o]);
        self.emit(&[t, e, !o]);
        self.cache.insert(key, o);
        o
    }

    /// Conjunction of many literals (⊤ when empty).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.tru();
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction of many literals (⊥ when empty).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.fls();
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Asserts a literal at the top level.
    pub fn assert_true(&mut self, l: Lit) {
        self.emit(&[l]);
    }

    /// Asserts a raw clause.
    pub fn assert_clause(&mut self, lits: &[Lit]) {
        self.emit(lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveOutcome;

    /// Checks `f` against `want` on all four input combinations by
    /// pinning inputs with assumptions.
    fn check2(
        mut build: impl FnMut(&mut Gates, Lit, Lit) -> Lit,
        want: impl Fn(bool, bool) -> bool,
    ) {
        let mut g = Gates::new();
        let (a, b) = (g.fresh(), g.fresh());
        let o = build(&mut g, a, b);
        let mut s = Solver::new();
        g.flush_into([&mut s]);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let assume = [
                if va { a } else { !a },
                if vb { b } else { !b },
                if want(va, vb) { o } else { !o },
            ];
            assert_eq!(s.solve_assuming(&assume), SolveOutcome::Sat, "a={va} b={vb}");
            let bad = [assume[0], assume[1], !assume[2]];
            assert_eq!(s.solve_assuming(&bad), SolveOutcome::Unsat, "¬(a={va} b={vb})");
        }
    }

    #[test]
    fn gate_truth_tables() {
        check2(|g, a, b| g.and(a, b), |x, y| x && y);
        check2(|g, a, b| g.or(a, b), |x, y| x || y);
        check2(|g, a, b| g.xor(a, b), |x, y| x ^ y);
        check2(|g, a, b| g.iff(a, b), |x, y| x == y);
    }

    #[test]
    fn mux_truth_table() {
        let mut g = Gates::new();
        let (c, t, e) = (g.fresh(), g.fresh(), g.fresh());
        let o = g.mux(c, t, e);
        let mut s = Solver::new();
        g.flush_into([&mut s]);
        for bits in 0..8u32 {
            let (vc, vt, ve) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let want = if vc { vt } else { ve };
            let assume = [
                if vc { c } else { !c },
                if vt { t } else { !t },
                if ve { e } else { !e },
                if want { o } else { !o },
            ];
            assert_eq!(s.solve_assuming(&assume), SolveOutcome::Sat);
            let bad = [assume[0], assume[1], assume[2], !assume[3]];
            assert_eq!(s.solve_assuming(&bad), SolveOutcome::Unsat);
        }
    }

    #[test]
    fn constants_fold_without_new_clauses() {
        let mut g = Gates::new();
        let a = g.fresh();
        let t = g.tru();
        let f = g.fls();
        let (vars, clauses) = (g.num_vars(), g.num_clauses());
        assert_eq!(clauses, 1, "the constant-true unit is the only clause");
        assert_eq!(g.and(a, t), a);
        assert_eq!(g.and(a, f), f);
        assert_eq!(g.or(a, f), a);
        assert_eq!(g.xor(a, f), a);
        assert_eq!(g.xor(a, t), !a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), f);
        assert_eq!(g.xor(a, a), f);
        assert_eq!(g.mux(t, a, f), a);
        assert_eq!((g.num_vars(), g.num_clauses()), (vars, clauses));
        // The same builder does count a gate that cannot fold.
        let b = g.fresh();
        g.and(a, b);
        assert_eq!(g.num_clauses(), clauses + 3);
    }

    #[test]
    fn structural_hashing_reuses_gates() {
        let mut g = Gates::new();
        let (a, b) = (g.fresh(), g.fresh());
        let o1 = g.and(a, b);
        let o2 = g.and(b, a);
        assert_eq!(o1, o2);
        let x1 = g.xor(a, b);
        let x2 = g.xor(!a, b);
        assert_eq!(x1, !x2, "xor polarity folds into the output");
        let (vars, clauses) = (g.num_vars(), g.num_clauses());
        assert_eq!((vars, clauses), (4, 7), "one and + one xor");
        g.and(a, b);
        g.xor(b, a);
        assert_eq!(g.num_vars(), vars, "no new vars for cached gates");
        assert_eq!(g.num_clauses(), clauses, "no new clauses for cached gates");
    }

    #[test]
    fn many_input_helpers() {
        let mut g = Gates::new();
        let xs: Vec<Lit> = (0..5).map(|_| g.fresh()).collect();
        let all = g.and_many(&xs);
        let any = g.or_many(&xs);
        let mut s = Solver::new();
        g.flush_into([&mut s]);
        let assume_all: Vec<Lit> = xs.iter().copied().chain([!all]).collect();
        assert_eq!(s.solve_assuming(&assume_all), SolveOutcome::Unsat);
        let assume_none: Vec<Lit> = xs.iter().map(|&l| !l).chain([any]).collect();
        assert_eq!(s.solve_assuming(&assume_none), SolveOutcome::Unsat);
        let empty = g.and_many(&[]);
        assert!(g.is_const(empty, true));
    }

    #[test]
    fn pending_stream_replays_into_any_number_of_solvers() {
        // Two solvers fed the same stream in two flushes agree with each
        // other and with the builder's counts.
        let mut g = Gates::new();
        let (a, b) = (g.fresh(), g.fresh());
        let x = g.xor(a, b);
        g.assert_true(x);
        let mut solvers = [Solver::new(), Solver::new()];
        g.flush_into(&mut solvers);
        assert_eq!(g.pending().count(), 0);
        g.assert_true(a);
        let fresh = g.fresh(); // a variable no clause mentions yet
        g.flush_into(&mut solvers);
        for s in &mut solvers {
            assert_eq!(s.num_vars(), g.num_vars());
            assert_eq!(s.solve(), SolveOutcome::Sat);
            assert!(s.lit_true(a) && !s.lit_true(b));
            assert!(fresh.var().0 < s.num_vars() as u32);
        }
    }
}
