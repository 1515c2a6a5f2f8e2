//! Regular array sections with symbolic affine bounds.

use gcomm_ir::{Affine, Var};

use crate::symcmp::SymCtx;

/// One dimension of a section.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DimSect {
    /// A single element.
    Elem(Affine),
    /// A regular range `lo : hi : step` (inclusive bounds, constant stride).
    Range {
        /// Inclusive lower bound.
        lo: Affine,
        /// Inclusive upper bound.
        hi: Affine,
        /// Constant positive stride.
        step: i64,
    },
    /// Unknown extent (non-affine subscript); treated conservatively.
    Any,
}

impl DimSect {
    /// Lower bound, if known.
    pub fn lo(&self) -> Option<&Affine> {
        match self {
            DimSect::Elem(e) => Some(e),
            DimSect::Range { lo, .. } => Some(lo),
            DimSect::Any => None,
        }
    }

    /// Upper bound, if known.
    pub fn hi(&self) -> Option<&Affine> {
        match self {
            DimSect::Elem(e) => Some(e),
            DimSect::Range { hi, .. } => Some(hi),
            DimSect::Any => None,
        }
    }

    /// Stride (1 for elements, `None` for unknown).
    pub fn step(&self) -> Option<i64> {
        match self {
            DimSect::Elem(_) => Some(1),
            DimSect::Range { step, .. } => Some(*step),
            DimSect::Any => None,
        }
    }

    /// Residual of `self` after removing `other`, when expressible as a
    /// single regular dimension (`None` otherwise; `Some(None)` would be
    /// ambiguous, so an exactly-covered dimension returns an empty range
    /// `lo..lo-1`).
    ///
    /// Handles the two shapes partial redundancy elimination needs:
    /// one-sided bound trims (`2:n` minus `2:n-1` → `n:n`) and stride
    /// complements (`1:n` minus `1:n:2` → `2:n:2`).
    pub fn subtract(&self, other: &DimSect, ctx: &SymCtx) -> Option<DimSect> {
        if self.subset_of(other, ctx) {
            // Fully covered: empty residual.
            let lo = self.lo()?.clone();
            return Some(DimSect::Range {
                hi: lo.offset(-1),
                lo,
                step: 1,
            });
        }
        let (slo, shi, sst) = (self.lo()?, self.hi()?, self.step()?);
        let (olo, ohi, ost) = (other.lo()?, other.hi()?, other.step()?);
        // Stride complement: dense minus every-other with shared span.
        if sst == 1 && ost == 2 && ctx.eq(slo, olo) && ctx.le(shi, ohi) {
            return Some(DimSect::Range {
                lo: slo.offset(1),
                hi: shi.clone(),
                step: 2,
            });
        }
        if ost != 1 || sst != 1 {
            return None;
        }
        // One-sided trims.
        let covers_low = ctx.le(olo, slo);
        let covers_high = ctx.ge(ohi, shi);
        match (covers_low, covers_high) {
            (true, false) if ctx.le(slo, ohi) => Some(DimSect::Range {
                lo: ohi.offset(1),
                hi: shi.clone(),
                step: 1,
            }),
            (false, true) if ctx.le(olo, shi) => Some(DimSect::Range {
                lo: slo.clone(),
                hi: olo.offset(-1),
                step: 1,
            }),
            _ => None,
        }
    }

    /// Number of elements covered, as a symbolic expression (`None` for
    /// unknown dimensions or non-unit strides whose extent is not exactly
    /// divisible — callers then fall back to numeric evaluation).
    pub fn extent(&self) -> Option<Affine> {
        match self {
            DimSect::Elem(_) => Some(Affine::constant(1)),
            DimSect::Range { lo, hi, step } => {
                let span = hi.sub(lo).offset(1);
                if *step == 1 {
                    Some(span)
                } else {
                    // (hi - lo) / step + 1 is affine only when the numerator
                    // coefficients divide evenly; handle the constant case.
                    let d = hi.sub(lo);
                    d.as_const().map(|k| Affine::constant(k / *step + 1))
                }
            }
            DimSect::Any => None,
        }
    }

    /// True if `self ⊆ other` provably.
    pub fn subset_of(&self, other: &DimSect, ctx: &SymCtx) -> bool {
        if self == other {
            return true;
        }
        let (Some(slo), Some(shi), Some(sst)) = (self.lo(), self.hi(), self.step()) else {
            return false;
        };
        let (Some(olo), Some(ohi), Some(ost)) = (other.lo(), other.hi(), other.step()) else {
            return false;
        };
        if !(ctx.le(olo, slo) && ctx.le(shi, ohi)) {
            return false;
        }
        if ost == 1 {
            return true;
        }
        // Strided superset: same stride and provably congruent start.
        sst == ost && slo.sub(olo).as_const().is_some_and(|d| d % ost == 0)
    }

    /// `lo : hi : step`, or `None` for an unknown extent.
    pub fn bounds(&self) -> Option<Bounds<'_>> {
        Some((self.lo()?, self.hi()?, self.step()?))
    }

    /// True unless the dimensions are provably disjoint (stride-blind).
    pub fn overlaps(&self, other: &DimSect, ctx: &SymCtx) -> bool {
        bounds_overlap(self.bounds(), other.bounds(), ctx)
    }

    /// Smallest regular dimension containing both (`None` when bounds are
    /// incomparable).
    pub fn union_bbox(&self, other: &DimSect, ctx: &SymCtx) -> Option<DimSect> {
        if self.subset_of(other, ctx) {
            return Some(other.clone());
        }
        if other.subset_of(self, ctx) {
            return Some(self.clone());
        }
        let (slo, shi) = (self.lo()?, self.hi()?);
        let (olo, ohi) = (other.lo()?, other.hi()?);
        let lo = if ctx.le(slo, olo) {
            slo.clone()
        } else if ctx.le(olo, slo) {
            olo.clone()
        } else {
            return None;
        };
        let hi = if ctx.ge(shi, ohi) {
            shi.clone()
        } else if ctx.ge(ohi, shi) {
            ohi.clone()
        } else {
            return None;
        };
        let step = match (self.step()?, other.step()?) {
            (a, b) if a == b => {
                // Keep the stride only when the phases provably agree.
                let same_phase = slo
                    .sub(olo)
                    .as_const()
                    .is_some_and(|d| d.rem_euclid(a) == 0);
                if same_phase {
                    a
                } else {
                    1
                }
            }
            _ => 1,
        };
        Some(DimSect::Range { lo, hi, step })
    }

    /// Number of elements for concrete variable bindings.
    pub fn count(&self, bind: &dyn Fn(Var) -> Option<i64>) -> Option<u64> {
        let lo = self.lo()?.eval(bind)?;
        let hi = self.hi()?.eval(bind)?;
        let step = self.step()?;
        if hi < lo {
            return Some(0);
        }
        Some(((hi - lo) / step + 1) as u64)
    }
}

/// One dimension's `(lo, hi, step)`: inclusive bounds and stride.
pub type Bounds<'a> = (&'a Affine, &'a Affine, i64);

/// [`DimSect::overlaps`] on bare bounds (`None`: unknown extent), for a
/// caller that holds a subscript rather than a section: true unless the
/// two are provably disjoint.
pub fn bounds_overlap(a: Option<Bounds<'_>>, b: Option<Bounds<'_>>, ctx: &SymCtx) -> bool {
    let (Some((slo, shi, sst)), Some((olo, ohi, ost))) = (a, b) else {
        return true;
    };
    // Disjoint iff shi < olo or ohi < slo (provably).
    if ctx.lt(shi, olo) || ctx.lt(ohi, slo) {
        return false;
    }
    // Equal strides with provably different phase are disjoint
    // (e.g. 1:n:2 vs 2:n:2).
    !(sst == ost && sst > 1 && slo.const_diff(olo).is_some_and(|d| d.rem_euclid(sst) != 0))
}

/// A multi-dimensional regular section (one [`DimSect`] per array
/// dimension; scalars have rank 0).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Section {
    /// Per-dimension extents.
    pub dims: Vec<DimSect>,
}

impl Section {
    /// Builds a section from dimensions.
    pub fn new(dims: Vec<DimSect>) -> Self {
        Section { dims }
    }

    /// The rank-0 (scalar) section.
    pub fn scalar() -> Self {
        Section { dims: Vec::new() }
    }

    /// Rank of the section.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// True if `self ⊆ other` provably (requires equal rank).
    pub fn subset_of(&self, other: &Section, ctx: &SymCtx) -> bool {
        self.rank() == other.rank()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.subset_of(b, ctx))
    }

    /// Budgeted [`subset_of`](Self::subset_of): charges one step per
    /// dimension and answers `false` (not provably a subset — the
    /// conservative direction for redundancy elimination) once the budget
    /// is exhausted.
    pub fn subset_of_within(
        &self,
        other: &Section,
        ctx: &SymCtx,
        budget: &gcomm_guard::Budget,
    ) -> bool {
        if !budget.charge(1 + self.rank() as u64) {
            return false;
        }
        self.subset_of(other, ctx)
    }

    /// True unless provably disjoint. Sections of different rank never
    /// overlap (different arrays are compared elsewhere by identity).
    pub fn overlaps(&self, other: &Section, ctx: &SymCtx) -> bool {
        self.rank() == other.rank()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.overlaps(b, ctx))
    }

    /// Bounding-box union (`None` when ranks differ or bounds are
    /// incomparable in some dimension).
    pub fn union_bbox(&self, other: &Section, ctx: &SymCtx) -> Option<Section> {
        if self.rank() != other.rank() {
            return None;
        }
        let dims = self
            .dims
            .iter()
            .zip(&other.dims)
            .map(|(a, b)| a.union_bbox(b, ctx))
            .collect::<Option<Vec<_>>>()?;
        Some(Section { dims })
    }

    /// Per-dimension symbolic extents (`None` entries for unknown dims).
    pub fn shape(&self) -> Vec<Option<Affine>> {
        self.dims.iter().map(|d| d.extent()).collect()
    }

    /// True if the two sections have identical symbolic shape (same rank and
    /// structurally equal extents). This is the "identical sections" check
    /// used when combining data for *different* arrays under one descriptor.
    pub fn same_shape(&self, other: &Section) -> bool {
        self.rank() == other.rank()
            && self
                .shape()
                .iter()
                .zip(other.shape().iter())
                .all(|(a, b)| matches!((a, b), (Some(x), Some(y)) if x == y))
    }

    /// Residual of `self` after removing `other` (partial redundancy
    /// elimination, paper §7): expressible as a single section only when
    /// exactly one dimension has a non-empty residual and every other
    /// dimension of `self` is covered by `other`.
    pub fn subtract(&self, other: &Section, ctx: &SymCtx) -> Option<Section> {
        if self.rank() != other.rank() {
            return None;
        }
        let mut residual_dim: Option<usize> = None;
        for (d, (a, b)) in self.dims.iter().zip(&other.dims).enumerate() {
            if a.subset_of(b, ctx) {
                continue;
            }
            if residual_dim.is_some() {
                return None; // residual would be an L-shape
            }
            residual_dim = Some(d);
        }
        let Some(rd) = residual_dim else {
            // Fully covered: canonical empty section — the first dimension
            // becomes the empty range `lo : lo-1` (an `Any` first dimension
            // has no bound to anchor the empty range, so the residual is
            // inexpressible). This is what `first.subtract(first)` used to
            // spell via the fully-covered case; constructed directly now.
            let mut dims = self.dims.clone();
            if let Some(first) = dims.first_mut() {
                let lo = first.lo()?.clone();
                *first = DimSect::Range {
                    hi: lo.offset(-1),
                    lo,
                    step: 1,
                };
            }
            return Some(Section::new(dims));
        };
        let res = self.dims[rd].subtract(&other.dims[rd], ctx)?;
        let mut dims = self.dims.clone();
        dims[rd] = res;
        Some(Section::new(dims))
    }

    /// Total element count for concrete bindings (1 for scalars).
    pub fn count(&self, bind: &dyn Fn(Var) -> Option<i64>) -> Option<u64> {
        let mut total: u64 = 1;
        for d in &self.dims {
            total = total.checked_mul(d.count(bind)?)?;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_ir::ParamId;

    fn n() -> Affine {
        Affine::var(Var::Param(ParamId(0)))
    }
    fn c(k: i64) -> Affine {
        Affine::constant(k)
    }
    fn rng(lo: Affine, hi: Affine) -> DimSect {
        DimSect::Range { lo, hi, step: 1 }
    }

    #[test]
    fn subset_basic() {
        let ctx = SymCtx::default();
        let inner = rng(c(2), n().offset(-1)); // 2 : n-1
        let outer = rng(c(1), n()); // 1 : n
        assert!(inner.subset_of(&outer, &ctx));
        assert!(!outer.subset_of(&inner, &ctx));
        assert!(inner.subset_of(&inner, &ctx));
    }

    #[test]
    fn strided_subset_needs_alignment() {
        let ctx = SymCtx::default();
        let odd = DimSect::Range {
            lo: c(1),
            hi: n(),
            step: 2,
        };
        let even = DimSect::Range {
            lo: c(2),
            hi: n(),
            step: 2,
        };
        let full = rng(c(1), n());
        assert!(odd.subset_of(&full, &ctx));
        assert!(!odd.subset_of(&even, &ctx));
        assert!(!full.subset_of(&odd, &ctx));
    }

    #[test]
    fn overlap_and_disjoint() {
        let ctx = SymCtx::default();
        let a = rng(c(1), c(4));
        let b = rng(c(5), c(9));
        assert!(!a.overlaps(&b, &ctx));
        let d = rng(c(4), c(6));
        assert!(a.overlaps(&d, &ctx));
        // Odd/even interleave is disjoint.
        let odd = DimSect::Range {
            lo: c(1),
            hi: n(),
            step: 2,
        };
        let even = DimSect::Range {
            lo: c(2),
            hi: n(),
            step: 2,
        };
        assert!(!odd.overlaps(&even, &ctx));
    }

    #[test]
    fn union_bbox_covers_both() {
        let ctx = SymCtx::default();
        let a = rng(c(1), c(4));
        let b = rng(c(3), n());
        let u = a.union_bbox(&b, &ctx).unwrap();
        assert!(a.subset_of(&u, &ctx));
        assert!(b.subset_of(&u, &ctx));
    }

    #[test]
    fn union_of_mismatched_phases_densifies() {
        let ctx = SymCtx::default();
        let odd = DimSect::Range {
            lo: c(1),
            hi: n(),
            step: 2,
        };
        let even = DimSect::Range {
            lo: c(2),
            hi: n(),
            step: 2,
        };
        let u = odd.union_bbox(&even, &ctx).unwrap();
        assert_eq!(u.step(), Some(1));
    }

    #[test]
    fn any_blocks_proofs_but_overlaps() {
        let ctx = SymCtx::default();
        let a = rng(c(1), c(4));
        assert!(!a.subset_of(&DimSect::Any, &ctx));
        assert!(!DimSect::Any.subset_of(&a, &ctx));
        assert!(DimSect::Any.overlaps(&a, &ctx));
    }

    #[test]
    fn section_count_and_shape() {
        let s = Section::new(vec![rng(c(1), n()), DimSect::Elem(c(3))]);
        let cnt = s.count(&|v| match v {
            Var::Param(_) => Some(10),
            _ => None,
        });
        assert_eq!(cnt, Some(10));
        let s2 = Section::new(vec![rng(c(2), n().offset(1)), DimSect::Elem(c(7))]);
        assert!(s.same_shape(&s2)); // both n × 1
    }

    #[test]
    fn scalar_section() {
        let s = Section::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.count(&|_| None), Some(1));
        assert!(s.subset_of(&Section::scalar(), &SymCtx::default()));
    }

    #[test]
    fn empty_range_counts_zero() {
        let d = rng(c(5), c(2));
        assert_eq!(d.count(&|_| None), Some(0));
    }

    #[test]
    fn subtract_bound_trim() {
        let ctx = SymCtx::default();
        // 1:n minus 1:n-1 → n:n.
        let a = rng(c(1), n());
        let b = rng(c(1), n().offset(-1));
        let r = a.subtract(&b, &ctx).unwrap();
        assert_eq!(r.lo().unwrap(), &n());
        assert_eq!(r.hi().unwrap(), &n());
        // And the other side: 1:n minus 2:n → 1:1.
        let b2 = rng(c(2), n());
        let r2 = a.subtract(&b2, &ctx).unwrap();
        assert_eq!(r2.lo().unwrap().as_const(), Some(1));
        assert_eq!(r2.hi().unwrap().as_const(), Some(1));
    }

    #[test]
    fn subtract_stride_complement() {
        let ctx = SymCtx::default();
        // Figure 4's b2 − b1: dense columns minus odd columns = even.
        let dense = rng(c(1), n());
        let odd = DimSect::Range {
            lo: c(1),
            hi: n(),
            step: 2,
        };
        let r = dense.subtract(&odd, &ctx).unwrap();
        assert_eq!(r.lo().unwrap().as_const(), Some(2));
        assert_eq!(r.step(), Some(2));
    }

    #[test]
    fn subtract_covered_is_empty() {
        let ctx = SymCtx::default();
        let a = rng(c(2), n().offset(-1));
        let b = rng(c(1), n());
        let r = a.subtract(&b, &ctx).unwrap();
        assert_eq!(r.count(&|_| Some(10)), Some(0));
    }

    #[test]
    fn section_subtract_single_dim_residual() {
        let ctx = SymCtx::default();
        // (1:n-1, 1:n) minus (1:n-1, 1:n:2) → (1:n-1, 2:n:2): exactly the
        // paper's "reduce the communication for b2 to ASD(b2) − ASD(b1)".
        let b2 = Section::new(vec![rng(c(1), n().offset(-1)), rng(c(1), n())]);
        let b1 = Section::new(vec![
            rng(c(1), n().offset(-1)),
            DimSect::Range {
                lo: c(1),
                hi: n(),
                step: 2,
            },
        ]);
        let r = b2.subtract(&b1, &ctx).unwrap();
        assert_eq!(r.dims[1].step(), Some(2));
        assert_eq!(r.dims[1].lo().unwrap().as_const(), Some(2));
        // Roughly half the volume at a concrete size.
        let full = b2.count(&|_| Some(11)).unwrap();
        let res = r.count(&|_| Some(11)).unwrap();
        assert!(res < full && res * 2 <= full + 10);
    }

    #[test]
    fn section_subtract_fully_covered_pins_canonical_empty() {
        let ctx = SymCtx::default();
        // (2:n-1, 3:n) minus (1:n, 1:n): fully covered. The canonical empty
        // residual keeps the rank, empties the FIRST dimension as the range
        // `lo : lo-1` anchored at the minuend's own lower bound, and leaves
        // the remaining dimensions untouched.
        let a = Section::new(vec![rng(c(2), n().offset(-1)), rng(c(3), n())]);
        let b = Section::new(vec![rng(c(1), n()), rng(c(1), n())]);
        let r = a.subtract(&b, &ctx).unwrap();
        assert_eq!(r.rank(), 2);
        assert_eq!(r.dims[0].lo().unwrap().as_const(), Some(2));
        assert_eq!(r.dims[0].hi().unwrap().as_const(), Some(1));
        assert_eq!(r.dims[1], a.dims[1]);
        assert_eq!(r.count(&|_| Some(10)), Some(0));

        // A fully-covered section whose first dimension is `Any` has no
        // bound to anchor the empty range: the residual is inexpressible.
        let any_a = Section::new(vec![DimSect::Any, rng(c(2), n())]);
        let any_b = Section::new(vec![DimSect::Any, rng(c(1), n())]);
        assert!(any_a.subtract(&any_b, &ctx).is_none());
    }

    #[test]
    fn section_subtract_rejects_l_shapes() {
        let ctx = SymCtx::default();
        // Residual in two dimensions is not a single regular section.
        let a = Section::new(vec![rng(c(1), n()), rng(c(1), n())]);
        let b = Section::new(vec![rng(c(2), n()), rng(c(2), n())]);
        assert!(a.subtract(&b, &ctx).is_none());
    }
}
