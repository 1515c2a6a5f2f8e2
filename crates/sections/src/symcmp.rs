//! Provable symbolic comparisons between affine expressions.
//!
//! Array extents are symbolic (`n`, `nx`, …). Following standard HPF
//! compiler practice (and the paper's "rules of thumb ... when data sizes
//! are unknown"), comparisons are decided under the assumption that every
//! size parameter is at least [`SymCtx::pmin`] and unbounded above. Loop
//! variables that survive subtraction make a comparison undecidable
//! (`None`), which all clients treat conservatively.

use std::cmp::Ordering;

use gcomm_ir::Affine;

/// Context for symbolic comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymCtx {
    /// Minimum value every size parameter is assumed to take.
    pub pmin: i64,
}

impl Default for SymCtx {
    fn default() -> Self {
        SymCtx { pmin: 4 }
    }
}

impl SymCtx {
    /// A context assuming all parameters are at least `pmin`.
    pub fn new(pmin: i64) -> Self {
        SymCtx { pmin }
    }

    /// Tri-state comparison of `a` and `b`.
    ///
    /// Returns `Some(ordering)` only when it holds for *every* assignment of
    /// parameters ≥ `pmin` (loop variables are unconstrained, so any
    /// surviving loop-variable term makes the result `None` — unless the
    /// difference is identically zero).
    pub fn cmp(&self, a: &Affine, b: &Affine) -> Option<Ordering> {
        // Equal terms: a constant difference, read without a subtraction.
        if let Some(k) = a.const_diff(b) {
            return Some(k.cmp(&0));
        }
        let d = a.sub(b);
        if d.has_loop_vars() {
            return None;
        }
        let all_nonneg = d.terms().iter().all(|&(_, c)| c >= 0);
        let all_nonpos = d.terms().iter().all(|&(_, c)| c <= 0);
        // Value at the corner where every parameter equals pmin; with
        // uniformly-signed coefficients this bounds the expression.
        let corner: i64 = d.k + d.terms().iter().map(|&(_, c)| c * self.pmin).sum::<i64>();
        if all_nonneg && corner > 0 {
            return Some(Ordering::Greater);
        }
        if all_nonpos && corner < 0 {
            return Some(Ordering::Less);
        }
        None
    }

    /// True if `a ≤ b` provably.
    pub fn le(&self, a: &Affine, b: &Affine) -> bool {
        if let Some(k) = b.const_diff(a) {
            return k >= 0;
        }
        let d = b.sub(a);
        if d.has_loop_vars() {
            return false;
        }
        let all_nonneg = d.terms().iter().all(|&(_, c)| c >= 0);
        let corner: i64 = d.k + d.terms().iter().map(|&(_, c)| c * self.pmin).sum::<i64>();
        all_nonneg && corner >= 0
    }

    /// True if `a < b` provably.
    pub fn lt(&self, a: &Affine, b: &Affine) -> bool {
        matches!(self.cmp(a, b), Some(Ordering::Less))
    }

    /// True if `a ≥ b` provably.
    pub fn ge(&self, a: &Affine, b: &Affine) -> bool {
        self.le(b, a)
    }

    /// True if `a > b` provably.
    pub fn gt(&self, a: &Affine, b: &Affine) -> bool {
        self.lt(b, a)
    }

    /// True if the expressions are identical (structural equality of
    /// canonical forms).
    pub fn eq(&self, a: &Affine, b: &Affine) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_ir::{LoopId, ParamId, Var};

    fn n() -> Var {
        Var::Param(ParamId(0))
    }
    fn i() -> Var {
        Var::Loop(LoopId(0))
    }

    #[test]
    fn constant_comparisons() {
        let c = SymCtx::default();
        assert_eq!(
            c.cmp(&Affine::constant(3), &Affine::constant(5)),
            Some(Ordering::Less)
        );
        assert!(c.le(&Affine::constant(3), &Affine::constant(3)));
        assert!(!c.lt(&Affine::constant(3), &Affine::constant(3)));
    }

    #[test]
    fn parameter_dominance() {
        let c = SymCtx::default();
        // n - 1 > 1 when n >= 4.
        let nm1 = Affine::new(-1, [(n(), 1)]);
        assert!(c.gt(&nm1, &Affine::constant(1)));
        // 2n >= n.
        let n1 = Affine::new(0, [(n(), 1)]);
        let n2 = Affine::new(0, [(n(), 2)]);
        assert!(c.ge(&n2, &n1));
        // n vs 10 is undecidable (n could be 4..10..).
        assert_eq!(c.cmp(&n1, &Affine::constant(10)), None);
    }

    #[test]
    fn loop_vars_cancel_or_block() {
        let c = SymCtx::default();
        // (i + 1) vs i: difference is constant 1.
        let i1 = Affine::new(1, [(i(), 1)]);
        let i0 = Affine::new(0, [(i(), 1)]);
        assert!(c.gt(&i1, &i0));
        // i vs n: undecidable.
        let nv = Affine::new(0, [(n(), 1)]);
        assert_eq!(c.cmp(&i0, &nv), None);
        assert!(!c.le(&i0, &nv));
    }

    #[test]
    fn mixed_sign_params_undecidable() {
        let c = SymCtx::default();
        // n - m: sign unknown.
        let e = Affine::new(
            0,
            [(Var::Param(ParamId(0)), 1), (Var::Param(ParamId(1)), -1)],
        );
        assert_eq!(c.cmp(&e, &Affine::constant(0)), None);
    }

    #[test]
    fn identical_exprs_equal() {
        let c = SymCtx::default();
        let e = Affine::new(7, [(n(), 2), (i(), -1)]);
        assert!(c.eq(&e, &e.clone()));
        assert!(c.le(&e, &e.clone()));
        assert!(c.ge(&e, &e.clone()));
    }
}
