//! Affine expressions over size parameters and loop variables.
//!
//! Subscripts, loop bounds, and array-section bounds are all affine
//! expressions `k + Σ cᵢ·vᵢ` where each `vᵢ` is a program size parameter
//! (`n`, `nx`, …) or a loop variable. Terms are kept sorted by variable so
//! equality is structural.
//!
//! Almost every expression the analyses touch has one or two terms, so the
//! terms live inline (up to [`INLINE`]) and only a longer list spills to
//! the heap; sums and substitutions are linear merges of two sorted lists.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::program::{LoopId, ParamId};

/// A symbolic variable appearing in an affine expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Var {
    /// A program size parameter.
    Param(ParamId),
    /// A loop index variable.
    Loop(LoopId),
}

/// One scaled variable of an expression: `(variable, coefficient)`.
pub type Term = (Var, i64);

/// Terms held without a heap block.
const INLINE: usize = 3;

/// Filler of the unused inline slots (never observable through `terms()`).
const NIL: Term = (Var::Param(ParamId(0)), 0);

/// A term list: inline up to [`INLINE`] terms, on the heap beyond.
#[derive(Clone)]
enum Terms {
    Inline(u8, [Term; INLINE]),
    Heap(Vec<Term>),
}

impl Terms {
    const EMPTY: Terms = Terms::Inline(0, [NIL; INLINE]);

    #[inline]
    fn as_slice(&self) -> &[Term] {
        match self {
            Terms::Inline(n, buf) => &buf[..*n as usize],
            Terms::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Term] {
        match self {
            Terms::Inline(n, buf) => &mut buf[..*n as usize],
            Terms::Heap(v) => v,
        }
    }

    fn push(&mut self, t: Term) {
        match self {
            Terms::Inline(n, buf) if (*n as usize) < INLINE => {
                buf[*n as usize] = t;
                *n += 1;
            }
            Terms::Inline(_, buf) => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(buf);
                v.push(t);
                *self = Terms::Heap(v);
            }
            Terms::Heap(v) => v.push(t),
        }
    }

    fn push_nonzero(&mut self, v: Var, c: i64) {
        if c != 0 {
            self.push((v, c));
        }
    }
}

/// An affine expression: constant plus a sum of integer-scaled variables.
///
/// The representation is canonical: terms are sorted by variable and no term
/// has a zero coefficient, so `PartialEq`/`Hash` give semantic equality.
/// Equality, hashing and `Debug` read the term *slice*, so they do not
/// depend on whether the list is inline or spilled — fingerprints of
/// programs are persisted and must not move with the storage.
#[derive(Clone)]
pub struct Affine {
    /// Constant term.
    pub k: i64,
    /// Scaled variables, sorted by `Var`, no zero coefficients.
    terms: Terms,
}

impl Affine {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> Self {
        Affine {
            k,
            terms: Terms::EMPTY,
        }
    }

    /// The expression `v` (coefficient 1).
    pub fn var(v: Var) -> Self {
        let mut terms = Terms::EMPTY;
        terms.push((v, 1));
        Affine { k: 0, terms }
    }

    /// Builds from a constant and arbitrary (possibly unsorted, duplicated)
    /// terms.
    pub fn new(k: i64, terms: impl IntoIterator<Item = (Var, i64)>) -> Self {
        let mut raw = Terms::EMPTY;
        for t in terms {
            raw.push(t);
        }
        raw.as_mut_slice().sort_unstable_by_key(|&(v, _)| v);
        // Fold each run of one variable; a zero sum drops out.
        let mut out = Terms::EMPTY;
        for run in raw.as_slice().chunk_by(|a, b| a.0 == b.0) {
            out.push_nonzero(run[0].0, run.iter().map(|t| t.1).sum());
        }
        Affine { k, terms: out }
    }

    /// The terms, sorted by variable.
    #[inline]
    pub fn terms(&self) -> &[(Var, i64)] {
        self.terms.as_slice()
    }

    /// Coefficient of `v` (0 if absent).
    #[inline]
    pub fn coeff(&self, v: Var) -> i64 {
        self.terms()
            .iter()
            .find(|&&(tv, _)| tv == v)
            .map_or(0, |&(_, c)| c)
    }

    /// True if the expression is a plain constant.
    #[inline]
    pub fn is_const(&self) -> bool {
        self.terms().is_empty()
    }

    /// Returns the constant value if the expression is constant.
    #[inline]
    pub fn as_const(&self) -> Option<i64> {
        self.is_const().then_some(self.k)
    }

    /// True if the expression mentions any loop variable.
    pub fn has_loop_vars(&self) -> bool {
        self.terms().iter().any(|(v, _)| matches!(v, Var::Loop(_)))
    }

    /// All loop variables mentioned.
    pub fn loop_vars(&self) -> impl Iterator<Item = LoopId> + '_ {
        self.terms().iter().filter_map(|(v, _)| match v {
            Var::Loop(l) => Some(*l),
            Var::Param(_) => None,
        })
    }

    /// The terms in two: the size parameters', then the loop variables'.
    /// `Var` orders every parameter before every loop variable, so this
    /// is a split of the sorted, zero-free list — borrowed, and canonical
    /// on both sides with no sort and no fold.
    #[inline]
    pub fn split_loops(&self) -> (&[Term], &[Term]) {
        let terms = self.terms();
        terms.split_at(terms.partition_point(|t| matches!(t.0, Var::Param(_))))
    }

    /// `self` without its `skip` term, plus `c · other`: one linear merge
    /// of the two canonical lists (`c` must be non-zero).
    fn merge(&self, skip: Option<Var>, other: &Affine, c: i64) -> Affine {
        let mut a = self
            .terms()
            .iter()
            .copied()
            .filter(|&(v, _)| Some(v) != skip);
        let mut b = other.terms().iter().map(|&(v, cb)| (v, cb * c));
        let (mut ta, mut tb) = (a.next(), b.next());
        let mut out = Terms::EMPTY;
        loop {
            let ((v, coef), step_a, step_b) = match (ta, tb) {
                (Some((va, ca)), Some((vb, cb))) => match va.cmp(&vb) {
                    Ordering::Less => ((va, ca), true, false),
                    Ordering::Greater => ((vb, cb), false, true),
                    Ordering::Equal => ((va, ca + cb), true, true),
                },
                (Some(t), None) => (t, true, false),
                (None, Some(t)) => (t, false, true),
                (None, None) => break,
            };
            out.push_nonzero(v, coef);
            if step_a {
                ta = a.next();
            }
            if step_b {
                tb = b.next();
            }
        }
        Affine {
            k: self.k + other.k * c,
            terms: out,
        }
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &Affine) -> Affine {
        self.merge(None, other, 1)
    }

    /// Difference `self - other`.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.merge(None, other, -1)
    }

    /// Adds a constant.
    pub fn offset(&self, d: i64) -> Affine {
        Affine {
            k: self.k + d,
            terms: self.terms.clone(),
        }
    }

    /// Multiplies by a constant.
    pub fn scale(&self, c: i64) -> Affine {
        if c == 0 {
            return Affine::constant(0);
        }
        let mut out = self.clone();
        out.k *= c;
        for t in out.terms.as_mut_slice() {
            t.1 *= c;
        }
        out
    }

    /// Substitutes `v := e` and returns the result.
    pub fn subst(&self, v: Var, e: &Affine) -> Affine {
        match self.coeff(v) {
            0 => self.clone(),
            c => self.merge(Some(v), e, c),
        }
    }

    /// Evaluates with the given variable bindings.
    ///
    /// Returns `None` if some variable is unbound.
    pub fn eval(&self, bind: &dyn Fn(Var) -> Option<i64>) -> Option<i64> {
        let mut acc = self.k;
        for &(v, c) in self.terms() {
            acc += c * bind(v)?;
        }
        Some(acc)
    }

    /// Difference `self - other` if it is a compile-time constant.
    #[inline]
    pub fn const_diff(&self, other: &Affine) -> Option<i64> {
        (self.terms() == other.terms()).then(|| self.k - other.k)
    }
}

impl Default for Affine {
    fn default() -> Self {
        Affine::constant(0)
    }
}

impl PartialEq for Affine {
    fn eq(&self, other: &Affine) -> bool {
        self.k == other.k && self.terms() == other.terms()
    }
}

impl Eq for Affine {}

/// Hashes exactly as the derived impl over `{ k: i64, terms: Vec<_> }`
/// did (a slice hashes like a `Vec`): stored fingerprints stay valid.
impl Hash for Affine {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.k.hash(state);
        self.terms().hash(state);
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Affine")
            .field("k", &self.k)
            .field("terms", &self.terms())
            .finish()
    }
}

impl From<i64> for Affine {
    fn from(k: i64) -> Self {
        Affine::constant(k)
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if self.k != 0 || self.is_const() {
            write!(f, "{}", self.k)?;
            first = false;
        }
        for &(v, c) in self.terms() {
            if first {
                if c == -1 {
                    write!(f, "-")?;
                } else if c != 1 {
                    write!(f, "{c}*")?;
                }
                first = false;
            } else if c < 0 {
                write!(f, " - ")?;
                if c != -1 {
                    write!(f, "{}*", -c)?;
                }
            } else {
                write!(f, " + ")?;
                if c != 1 {
                    write!(f, "{c}*")?;
                }
            }
            match v {
                Var::Param(p) => write!(f, "p{}", p.0)?,
                Var::Loop(l) => write!(f, "i{}", l.0)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> Var {
        Var::Param(ParamId(i))
    }
    fn l(i: u32) -> Var {
        Var::Loop(LoopId(i))
    }

    #[test]
    fn canonical_form_merges_terms() {
        let a = Affine::new(1, [(p(0), 2), (p(0), 3), (l(1), 0)]);
        assert_eq!(a.terms(), &[(p(0), 5)]);
        assert_eq!(a.k, 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Affine::new(3, [(p(0), 1), (l(0), 2)]);
        let b = Affine::new(-1, [(p(0), 4)]);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn subst_replaces_variable() {
        // (i + n) with i := 2n - 1  ==>  3n - 1
        let e = Affine::new(0, [(l(0), 1), (p(0), 1)]);
        let r = Affine::new(-1, [(p(0), 2)]);
        let out = e.subst(l(0), &r);
        assert_eq!(out, Affine::new(-1, [(p(0), 3)]));
    }

    #[test]
    fn subst_absent_is_identity() {
        let e = Affine::new(5, [(p(0), 1)]);
        assert_eq!(e.subst(l(3), &Affine::constant(9)), e);
    }

    #[test]
    fn eval_with_bindings() {
        let e = Affine::new(1, [(p(0), 2), (l(0), -1)]);
        let v = e.eval(&|v| match v {
            Var::Param(_) => Some(10),
            Var::Loop(_) => Some(3),
        });
        assert_eq!(v, Some(18));
        assert_eq!(e.eval(&|_| None), None);
    }

    #[test]
    fn const_diff_detects_shift() {
        let a = Affine::new(1, [(l(0), 1)]); // i + 1
        let b = Affine::new(0, [(l(0), 1)]); // i
        assert_eq!(a.const_diff(&b), Some(1));
        let c = Affine::new(0, [(p(0), 1)]);
        assert_eq!(a.const_diff(&c), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Affine::constant(0).to_string(), "0");
        let e = Affine::new(-1, [(p(0), 2), (l(1), -1)]);
        let s = e.to_string();
        assert!(s.contains("p0") && s.contains("i1"), "{s}");
    }
}
