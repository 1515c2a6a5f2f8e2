//! Available Section Descriptors: `(D, M)` pairs (§4.6).

use gcomm_ir::ArrayId;

use crate::mapping::Mapping;
use crate::section::Section;
use crate::symcmp::SymCtx;

/// An Available Section Descriptor: the data `D` (an array section) together
/// with the mapping `M` describing which processors receive it.
///
/// A communication `(D1, M1)` is made redundant by `(D2, M2)` when
/// `D1 ⊆ D2` and `M1(D1) ⊆ M2(D1)` — see [`Asd::subsumed_by`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Asd {
    /// The array whose data is communicated.
    pub array: ArrayId,
    /// The communicated section of that array.
    pub section: Section,
    /// The sender→receiver mapping.
    pub mapping: Mapping,
}

impl Asd {
    /// Creates a descriptor.
    pub fn new(array: ArrayId, section: Section, mapping: Mapping) -> Self {
        gcomm_obs::count("sections.asd_built", 1);
        Asd {
            array,
            section,
            mapping,
        }
    }

    /// True if communication described by `self` is made redundant by a
    /// communication described by `other` having already happened:
    /// same array, `self.section ⊆ other.section`, and `self`'s mapping a
    /// subset of `other`'s.
    pub fn subsumed_by(&self, other: &Asd, ctx: &SymCtx) -> bool {
        let _t = gcomm_obs::time("sections.subsume");
        gcomm_obs::count("sections.subsume_checks", 1);
        self.array == other.array
            && self.mapping.subset_of(&other.mapping)
            && self.section.subset_of(&other.section, ctx)
    }

    /// Budgeted [`subsumed_by`](Self::subsumed_by): charges steps
    /// proportional to the section rank, and answers `false` (not
    /// subsumed) once the budget is exhausted. A `false` only ever *skips*
    /// a redundancy-elimination opportunity — the communication is kept —
    /// so degraded answers are always legal; callers must never use this
    /// to *validate* a previously recorded absorption.
    pub fn subsumed_by_within(
        &self,
        other: &Asd,
        ctx: &SymCtx,
        budget: &gcomm_guard::Budget,
    ) -> bool {
        if budget.exhausted() {
            gcomm_obs::count("sections.degraded.subsume", 1);
            return false;
        }
        let r = {
            let _t = gcomm_obs::time("sections.subsume");
            gcomm_obs::count("sections.subsume_checks", 1);
            self.array == other.array
                && self.mapping.subset_of(&other.mapping)
                && self.section.subset_of_within(&other.section, ctx, budget)
        };
        // The budget may run out mid-check; a `false` reached that way may
        // be conservative rather than proven, so report it as degraded.
        if !r && budget.exhausted() {
            gcomm_obs::count("sections.degraded.subsume", 1);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::DimSect;
    use gcomm_ir::{Affine, ParamId, Var};

    fn n() -> Affine {
        Affine::var(Var::Param(ParamId(0)))
    }
    fn sect(lo: i64, hi_off: i64) -> Section {
        Section::new(vec![DimSect::Range {
            lo: Affine::constant(lo),
            hi: n().offset(hi_off),
            step: 1,
        }])
    }

    #[test]
    fn subsumption_requires_section_subset() {
        let ctx = SymCtx::default();
        let m = Mapping::Shift { offsets: vec![1] };
        let small = Asd::new(ArrayId(0), sect(2, -1), m.clone());
        let big = Asd::new(ArrayId(0), sect(1, 0), m.clone());
        assert!(small.subsumed_by(&big, &ctx));
        assert!(!big.subsumed_by(&small, &ctx));
    }

    #[test]
    fn subsumption_requires_same_array_and_mapping() {
        let ctx = SymCtx::default();
        let m1 = Mapping::Shift { offsets: vec![1] };
        let m2 = Mapping::Shift { offsets: vec![-1] };
        let a = Asd::new(ArrayId(0), sect(1, 0), m1.clone());
        let b = Asd::new(ArrayId(1), sect(1, 0), m1.clone());
        let c = Asd::new(ArrayId(0), sect(1, 0), m2);
        assert!(!a.subsumed_by(&b, &ctx));
        assert!(!a.subsumed_by(&c, &ctx));
        assert!(a.subsumed_by(&a.clone(), &ctx));
    }

    #[test]
    fn local_mapping_is_subsumed_by_any_mapping_on_the_direct_path() {
        // `core`'s class index buckets entries by `(array, mapping)` and
        // relies on `commgen` never emitting a `Local` entry; the algebra
        // itself keeps `Local ⊆ everything`.
        let ctx = SymCtx::default();
        let local = Asd::new(ArrayId(0), sect(2, -1), Mapping::Local);
        let shift = Asd::new(ArrayId(0), sect(1, 0), Mapping::Shift { offsets: vec![1] });
        assert!(local.subsumed_by(&shift, &ctx));
        assert!(local.subsumed_by_within(&shift, &ctx, &gcomm_guard::Budget::unlimited()));
        assert!(!shift.subsumed_by(&local, &ctx));
    }
}
