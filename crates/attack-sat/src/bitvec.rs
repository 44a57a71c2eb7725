//! Word-level circuit structures over the `sat` gate layer.
//!
//! A [`Bv`] is a little-endian vector of CNF literals — the symbolic
//! counterpart of the `u64` values the `vlog` simulator computes with.
//! Every operation mirrors the simulator's two-state semantics exactly
//! (wrapping arithmetic at the context width, the model's defined
//! divide-by-zero results, shift amounts handled like `u64` shifts), so a
//! fully-constant [`Bv`] folds to the same bits the simulator would
//! produce. Widths are capped at 64 — the same cap `vlog`'s `mask`
//! applies — and constants fold through the gate layer, which is what
//! makes unrollings with pinned inputs collapse to near-nothing.

use sat::{Gates, Lit, Solver};

/// A little-endian vector of literals (bit 0 = LSB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bv(pub Vec<Lit>);

/// Clamps a Verilog context width to the simulator's 64-bit value domain.
pub fn clamp_width(w: u32) -> usize {
    w.min(64) as usize
}

// The arithmetic methods shadow `std::ops` names (`add`, `not`, …) on
// purpose: they thread the gate builder through every call, so the std
// traits cannot express them, and the simulator-matching names keep the
// encoder readable next to `vlog::sim`.
#[allow(clippy::should_implement_trait)]
impl Bv {
    /// A constant vector of `width` bits (clamped to 64).
    pub fn constant(g: &mut Gates, value: u64, width: u32) -> Bv {
        let w = clamp_width(width);
        Bv((0..w).map(|i| g.constant((value >> i) & 1 == 1)).collect())
    }

    /// A vector of fresh free literals.
    pub fn fresh(g: &mut Gates, width: u32) -> Bv {
        Bv((0..clamp_width(width)).map(|_| g.fresh()).collect())
    }

    /// Bit width.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// The constant value of the vector, when every bit is constant.
    pub fn const_value(&self, g: &Gates) -> Option<u64> {
        let mut v = 0u64;
        for (i, &l) in self.0.iter().enumerate() {
            if g.const_value(l)? {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    /// The model value after a satisfiable solve of a solver fed this
    /// vector's gate builder.
    pub fn model_value(&self, s: &Solver) -> u64 {
        let mut v = 0u64;
        for (i, &l) in self.0.iter().enumerate() {
            if s.lit_true(l) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Truncates or zero/sign-extends to `to` bits, mirroring the
    /// simulator's `extend(bits, from, to, signed)` with `from` the
    /// current width.
    pub fn extend(&self, g: &mut Gates, to: u32, signed: bool) -> Bv {
        let to = clamp_width(to);
        let mut bits = self.0.clone();
        if to <= bits.len() {
            bits.truncate(to);
            return Bv(bits);
        }
        let fill =
            if signed && !bits.is_empty() { *bits.last().expect("nonempty") } else { g.fls() };
        while bits.len() < to {
            bits.push(fill);
        }
        Bv(bits)
    }

    /// Bitwise NOT.
    pub fn not(&self, _g: &mut Gates) -> Bv {
        Bv(self.0.iter().map(|&l| !l).collect())
    }

    /// Bitwise binary op through `f` (widths must match).
    fn zip(&self, g: &mut Gates, other: &Bv, mut f: impl FnMut(&mut Gates, Lit, Lit) -> Lit) -> Bv {
        assert_eq!(self.width(), other.width(), "width mismatch");
        Bv(self.0.iter().zip(&other.0).map(|(&a, &b)| f(g, a, b)).collect())
    }

    /// Bitwise AND.
    pub fn and(&self, g: &mut Gates, other: &Bv) -> Bv {
        self.zip(g, other, Gates::and)
    }

    /// Bitwise OR.
    pub fn or(&self, g: &mut Gates, other: &Bv) -> Bv {
        self.zip(g, other, Gates::or)
    }

    /// Bitwise XOR.
    pub fn xor(&self, g: &mut Gates, other: &Bv) -> Bv {
        self.zip(g, other, Gates::xor)
    }

    /// Wrapping addition at the common width.
    pub fn add(&self, g: &mut Gates, other: &Bv) -> Bv {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let mut carry = g.fls();
        let mut out = Vec::with_capacity(self.width());
        for (&a, &b) in self.0.iter().zip(&other.0) {
            let axb = g.xor(a, b);
            out.push(g.xor(axb, carry));
            let ab = g.and(a, b);
            let ac = g.and(axb, carry);
            carry = g.or(ab, ac);
        }
        Bv(out)
    }

    /// Wrapping subtraction (`self - other`).
    pub fn sub(&self, g: &mut Gates, other: &Bv) -> Bv {
        // a - b = a + ¬b + 1: seed the ripple carry with 1.
        assert_eq!(self.width(), other.width(), "width mismatch");
        let mut carry = g.tru();
        let mut out = Vec::with_capacity(self.width());
        for (&a, &b) in self.0.iter().zip(&other.0) {
            let nb = !b;
            let axb = g.xor(a, nb);
            out.push(g.xor(axb, carry));
            let ab = g.and(a, nb);
            let ac = g.and(axb, carry);
            carry = g.or(ab, ac);
        }
        Bv(out)
    }

    /// Two's-complement negation.
    pub fn neg(&self, g: &mut Gates) -> Bv {
        let zero = Bv::constant(g, 0, self.width() as u32);
        zero.sub(g, self)
    }

    /// Wrapping multiplication (shift-and-add rows).
    pub fn mul(&self, g: &mut Gates, other: &Bv) -> Bv {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let w = self.width();
        let mut acc = Bv::constant(g, 0, w as u32);
        for (i, &bit) in self.0.iter().enumerate() {
            if g.is_const(bit, false) {
                continue;
            }
            // Row i: (other << i) gated by bit, at width w.
            let mut row = Vec::with_capacity(w);
            for j in 0..w {
                if j < i {
                    row.push(g.fls());
                } else {
                    row.push(g.and(bit, other.0[j - i]));
                }
            }
            acc = acc.add(g, &Bv(row));
        }
        acc
    }

    /// Unsigned `self < other`.
    pub fn ult(&self, g: &mut Gates, other: &Bv) -> Lit {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let mut lt = g.fls();
        for (&a, &b) in self.0.iter().zip(&other.0) {
            // From LSB up: later (more significant) bits dominate.
            let gt_here = g.and(!a, b);
            let eq_here = g.iff(a, b);
            let keep = g.and(eq_here, lt);
            lt = g.or(gt_here, keep);
        }
        lt
    }

    /// Signed `self < other` (two's complement at the current width).
    pub fn slt(&self, g: &mut Gates, other: &Bv) -> Lit {
        assert!(self.width() > 0, "slt on empty vector");
        // Flip the sign bits and compare unsigned.
        let mut a = self.clone();
        let mut b = other.clone();
        let last = a.width() - 1;
        a.0[last] = !a.0[last];
        b.0[last] = !b.0[last];
        a.ult(g, &b)
    }

    /// Bit equality of the whole vectors.
    pub fn equals(&self, g: &mut Gates, other: &Bv) -> Lit {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let bits: Vec<Lit> = self.0.iter().zip(&other.0).map(|(&a, &b)| g.iff(a, b)).collect();
        g.and_many(&bits)
    }

    /// Equality against a constant.
    pub fn equals_const(&self, g: &mut Gates, value: u64) -> Lit {
        if self.width() < 64 && value >> self.width() != 0 {
            return g.fls();
        }
        let bits: Vec<Lit> = self
            .0
            .iter()
            .enumerate()
            .map(|(i, &l)| if (value >> i) & 1 == 1 { l } else { !l })
            .collect();
        g.and_many(&bits)
    }

    /// OR-reduction (`self != 0`), the simulator's truthiness test.
    pub fn nonzero(&self, g: &mut Gates) -> Lit {
        g.or_many(&self.0.clone())
    }

    /// Per-bit mux: `c ? self : other`.
    pub fn mux(&self, g: &mut Gates, c: Lit, other: &Bv) -> Bv {
        assert_eq!(self.width(), other.width(), "width mismatch");
        Bv(self.0.iter().zip(&other.0).map(|(&t, &e)| g.mux(c, t, e)).collect())
    }

    /// Constrains the vector to equal `value` (used to pin inputs).
    pub fn pin(&self, g: &mut Gates, value: u64) {
        for (i, &l) in self.0.iter().enumerate() {
            let want = (value >> i) & 1 == 1;
            g.assert_true(if want { l } else { !l });
        }
    }

    // ------------------------------------------------------------ shifts
    //
    // Shift amounts are separate self-determined values, mirroring the
    // simulator exactly: a logical shift by ≥ 64 yields 0, an arithmetic
    // right shift saturates at the sign bit, and in-range shifts behave
    // like `u64` shifts truncated to the operand width.

    /// `(self << amount) & mask(width)`; amount ≥ 64 yields 0.
    pub fn shl(&self, g: &mut Gates, amount: &Bv) -> Bv {
        let big = self.amount_overflow(g, amount);
        let mut cur = self.clone();
        for (b, &abit) in amount.0.iter().enumerate().take(6) {
            let sh = 1usize << b;
            let shifted = Bv((0..cur.width())
                .map(|i| if i < sh { g.fls() } else { cur.0[i - sh] })
                .collect());
            cur = shifted.mux(g, abit, &cur);
        }
        let zero = Bv::constant(g, 0, self.width() as u32);
        zero.mux(g, big, &cur)
    }

    /// `self >> amount` (logical); amount ≥ 64 yields 0.
    pub fn shr(&self, g: &mut Gates, amount: &Bv) -> Bv {
        let big = self.amount_overflow(g, amount);
        let fls = g.fls();
        let cur = self.barrel_right(g, amount, fls);
        let zero = Bv::constant(g, 0, self.width() as u32);
        zero.mux(g, big, &cur)
    }

    /// Arithmetic `self >> amount` at the current width (sign saturating,
    /// like `i64 >> min(amount, 63)` truncated to the width).
    pub fn ashr(&self, g: &mut Gates, amount: &Bv) -> Bv {
        assert!(self.width() > 0, "ashr on empty vector");
        let sign = *self.0.last().expect("nonempty");
        let big = self.amount_overflow(g, amount);
        let cur = self.barrel_right(g, amount, sign);
        let all_sign = Bv(vec![sign; self.width()]);
        all_sign.mux(g, big, &cur)
    }

    /// Right barrel shifter over the low 6 amount bits with `fill` bits
    /// entering from the top.
    fn barrel_right(&self, g: &mut Gates, amount: &Bv, fill: Lit) -> Bv {
        let mut cur = self.clone();
        for (b, &abit) in amount.0.iter().enumerate().take(6) {
            let sh = 1usize << b;
            let shifted = Bv((0..cur.width())
                .map(|i| if i + sh < cur.width() { cur.0[i + sh] } else { fill })
                .collect());
            cur = shifted.mux(g, abit, &cur);
        }
        cur
    }

    /// `amount ≥ 64`: any amount bit at weight 64 or above.
    fn amount_overflow(&self, g: &mut Gates, amount: &Bv) -> Lit {
        let high: Vec<Lit> = amount.0.iter().skip(6).copied().collect();
        g.or_many(&high)
    }

    // ---------------------------------------------------------- division

    /// Unsigned restoring division: `(quotient, remainder)`, with the
    /// divide-by-zero results left to the caller.
    fn udivrem(&self, g: &mut Gates, other: &Bv) -> (Bv, Bv) {
        assert_eq!(self.width(), other.width(), "width mismatch");
        let w = self.width();
        let mut rem = Bv::constant(g, 0, w as u32);
        let mut quo = vec![g.fls(); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            let mut shifted = vec![self.0[i]];
            shifted.extend_from_slice(&rem.0[..w - 1]);
            rem = Bv(shifted);
            let ge = !rem.ult(g, other);
            let sub = rem.sub(g, other);
            rem = sub.mux(g, ge, &rem);
            quo[i] = ge;
        }
        (Bv(quo), rem)
    }

    /// Division with the simulator's semantics: signed truncating division
    /// when `signed`, and the model's divide-by-zero result (all-ones).
    pub fn div(&self, g: &mut Gates, other: &Bv, signed: bool) -> Bv {
        let w = self.width() as u32;
        let zero_div = other.equals_const(g, 0);
        let q = if signed { self.abs_divrem(g, other).0 } else { self.udivrem(g, other).0 };
        let ones = Bv::constant(g, u64::MAX, w);
        ones.mux(g, zero_div, &q)
    }

    /// Remainder with the simulator's semantics: sign follows the
    /// dividend when `signed`, and `x % 0 = x`.
    pub fn rem(&self, g: &mut Gates, other: &Bv, signed: bool) -> Bv {
        let zero_div = other.equals_const(g, 0);
        let r = if signed {
            let (_, ru) = self.abs_divrem(g, other);
            ru
        } else {
            self.udivrem(g, other).1
        };
        self.mux(g, zero_div, &r)
    }

    /// Signed divide/remainder via magnitudes: `q = ±(|a| / |b|)` negative
    /// when the signs differ, `r = ±(|a| % |b|)` following the dividend —
    /// exactly `i64::wrapping_div` / `wrapping_rem` truncated to width.
    fn abs_divrem(&self, g: &mut Gates, other: &Bv) -> (Bv, Bv) {
        assert!(self.width() > 0, "divrem on empty vector");
        let sa = *self.0.last().expect("nonempty");
        let sb = *other.0.last().expect("nonempty");
        let na = self.neg(g);
        let nb = other.neg(g);
        let abs_a = na.mux(g, sa, self);
        let abs_b = nb.mux(g, sb, other);
        let (qu, ru) = abs_a.udivrem(g, &abs_b);
        let q_neg = g.xor(sa, sb);
        let nq = qu.neg(g);
        let nr = ru.neg(g);
        (nq.mux(g, q_neg, &qu), nr.mux(g, sa, &ru))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c(g: &mut Gates, v: u64, w: u32) -> Bv {
        Bv::constant(g, v, w)
    }

    fn mask(w: u32) -> u64 {
        if w >= 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }

    fn sext(v: u64, w: u32) -> i64 {
        if w == 0 {
            return 0;
        }
        let v = v & mask(w);
        if w < 64 && (v >> (w - 1)) & 1 == 1 {
            (v | !mask(w)) as i64
        } else {
            v as i64
        }
    }

    /// Constant folding makes every constant-input circuit evaluate at
    /// build time — the oracle for these tests.
    #[test]
    fn constant_arithmetic_matches_u64_semantics() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = Gates::new();
        for _ in 0..300 {
            let w = *[1u32, 4, 8, 13, 32, 63, 64].get(rng.gen_range(0..7)).unwrap();
            let a = rng.gen::<u64>() & mask(w);
            let b = rng.gen::<u64>() & mask(w);
            let (ba, bb) = (c(&mut g, a, w), c(&mut g, b, w));
            let check = |g: &Gates, got: &Bv, want: u64, what: &str| {
                assert_eq!(
                    got.const_value(g),
                    Some(want & mask(w)),
                    "{what} w={w} a={a:#x} b={b:#x}"
                );
            };
            let r = ba.add(&mut g, &bb);
            check(&g, &r, a.wrapping_add(b), "add");
            let r = ba.sub(&mut g, &bb);
            check(&g, &r, a.wrapping_sub(b), "sub");
            let r = ba.mul(&mut g, &bb);
            check(&g, &r, a.wrapping_mul(b), "mul");
            let r = ba.xor(&mut g, &bb);
            check(&g, &r, a ^ b, "xor");
            let r = ba.and(&mut g, &bb);
            check(&g, &r, a & b, "and");
            let r = ba.or(&mut g, &bb);
            check(&g, &r, a | b, "or");
            let r = ba.neg(&mut g);
            check(&g, &r, a.wrapping_neg(), "neg");

            let lt = ba.ult(&mut g, &bb);
            assert_eq!(g.const_value(lt), Some(a < b), "ult");
            let lt = ba.slt(&mut g, &bb);
            assert_eq!(g.const_value(lt), Some(sext(a, w) < sext(b, w)), "slt w={w} a={a} b={b}");
            let eq = ba.equals(&mut g, &bb);
            assert_eq!(g.const_value(eq), Some(a == b), "eq");
        }
    }

    #[test]
    fn constant_division_matches_simulator_semantics() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut g = Gates::new();
        for round in 0..200 {
            let w = *[4u32, 8, 16, 32, 64].get(rng.gen_range(0..5)).unwrap();
            let a = rng.gen::<u64>() & mask(w);
            let b = if round % 5 == 0 { 0 } else { rng.gen::<u64>() & mask(w) };
            let (ba, bb) = (c(&mut g, a, w), c(&mut g, b, w));
            // Unsigned.
            let want_q = a.checked_div(b).map(|q| q & mask(w)).unwrap_or(mask(w));
            let want_r = a.checked_rem(b).map(|r| r & mask(w)).unwrap_or(a);
            let q = ba.div(&mut g, &bb, false);
            assert_eq!(q.const_value(&g), Some(want_q), "udiv {a}/{b} w={w}");
            let r = ba.rem(&mut g, &bb, false);
            assert_eq!(r.const_value(&g), Some(want_r), "urem {a}%{b} w={w}");
            // Signed (the simulator's wrapping i64 division at width w).
            let (ia, ib) = (sext(a, w), sext(b, w));
            let want_q = if b == 0 { mask(w) } else { (ia.wrapping_div(ib) as u64) & mask(w) };
            let want_r = if b == 0 { a } else { (ia.wrapping_rem(ib) as u64) & mask(w) };
            let q = ba.div(&mut g, &bb, true);
            assert_eq!(q.const_value(&g), Some(want_q), "sdiv {ia}/{ib} w={w}");
            let r = ba.rem(&mut g, &bb, true);
            assert_eq!(r.const_value(&g), Some(want_r), "srem {ia}%{ib} w={w}");
        }
    }

    #[test]
    fn constant_shifts_match_simulator_semantics() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut g = Gates::new();
        for _ in 0..300 {
            let w = *[1u32, 8, 17, 32, 64].get(rng.gen_range(0..5)).unwrap();
            let aw = *[3u32, 6, 8, 32].get(rng.gen_range(0..4)).unwrap();
            let a = rng.gen::<u64>() & mask(w);
            let sh = (rng.gen::<u64>() & mask(aw)) % 80;
            let ba = c(&mut g, a, w);
            let bsh = c(&mut g, sh, aw);
            let want_shl = if sh >= 64 { 0 } else { (a << sh) & mask(w) };
            let got = ba.shl(&mut g, &bsh);
            assert_eq!(got.const_value(&g), Some(want_shl), "shl {a:#x}<<{sh} w={w}");
            let want_shr = if sh >= 64 { 0 } else { a >> sh };
            let got = ba.shr(&mut g, &bsh);
            assert_eq!(got.const_value(&g), Some(want_shr), "shr {a:#x}>>{sh} w={w}");
            let want_ashr = ((sext(a, w) >> sh.min(63)) as u64) & mask(w);
            let got = ba.ashr(&mut g, &bsh);
            assert_eq!(got.const_value(&g), Some(want_ashr), "ashr {a:#x}>>>{sh} w={w}");
        }
    }

    #[test]
    fn symbolic_add_agrees_with_solver() {
        // Free 8-bit a, b with a + b == 100 and a == 77 forces b == 23.
        let mut g = Gates::new();
        let a = Bv::fresh(&mut g, 8);
        let b = Bv::fresh(&mut g, 8);
        let sum = a.add(&mut g, &b);
        let want = sum.equals_const(&mut g, 100);
        g.assert_true(want);
        a.pin(&mut g, 77);
        let mut s = Solver::new();
        g.flush_into([&mut s]);
        assert_eq!(s.solve(), sat::SolveOutcome::Sat);
        assert_eq!(b.model_value(&s), 23);
    }

    #[test]
    fn extend_truncate_and_sign_fill() {
        let mut g = Gates::new();
        let v = c(&mut g, 0b1011, 4);
        assert_eq!(v.extend(&mut g, 8, false).const_value(&g), Some(0b0000_1011));
        assert_eq!(v.extend(&mut g, 8, true).const_value(&g), Some(0b1111_1011));
        assert_eq!(v.extend(&mut g, 2, true).const_value(&g), Some(0b11));
        let p = c(&mut g, 0b0011, 4);
        assert_eq!(p.extend(&mut g, 8, true).const_value(&g), Some(0b0011));
    }
}
