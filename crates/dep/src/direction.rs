//! Direction-vector computation between a definition and a use.
//!
//! For every loop common to the definition and the use, the analysis
//! computes the set of possible dependence directions
//! (`Neg`/`Zero`/`Pos`, where `Pos` means the definition's iteration
//! precedes the use's — a forward-carried dependence). Per-dimension
//! subscript constraints are intersected conservatively across dimensions.

use gcomm_ir::{AccessRef, IrProgram, StmtId, SubscriptIr, Term, Var};
use gcomm_sections::section::{bounds_overlap, Bounds};
use gcomm_sections::{DimSect, SymCtx};

use crate::widen::widen_sub_if_needed;

/// A dependence direction at one loop level, for a definition→use pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// The use's iteration precedes the definition's (`>` in vector
    /// notation): an anti direction for flow dependence.
    Neg,
    /// Same iteration (`=`).
    Zero,
    /// The definition's iteration precedes the use's (`<`): a carried flow
    /// dependence.
    Pos,
}

/// A set of possible directions at one loop level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirSet(u8);

impl DirSet {
    /// The empty set (dependence impossible at this level).
    pub const EMPTY: DirSet = DirSet(0);
    /// All three directions possible.
    pub const ALL: DirSet = DirSet(0b111);

    fn bit(d: Dir) -> u8 {
        match d {
            Dir::Neg => 0b001,
            Dir::Zero => 0b010,
            Dir::Pos => 0b100,
        }
    }

    /// A singleton set.
    pub fn only(d: Dir) -> DirSet {
        DirSet(Self::bit(d))
    }

    /// Builds from membership flags.
    pub fn from_flags(neg: bool, zero: bool, pos: bool) -> DirSet {
        DirSet((neg as u8) | ((zero as u8) << 1) | ((pos as u8) << 2))
    }

    /// Membership test.
    pub fn contains(&self, d: Dir) -> bool {
        self.0 & Self::bit(d) != 0
    }

    /// Intersection.
    pub fn intersect(&self, other: DirSet) -> DirSet {
        DirSet(self.0 & other.0)
    }

    /// True if no direction is possible.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// Common loop levels whose directions [`Dirs`] holds without a heap
/// block; a deeper nest (`MAX_NESTING` is 256) spills, like `Affine`'s
/// terms.
const INLINE_LEVELS: usize = 16;

/// The allowed directions per common loop level, read as a `[DirSet]`.
#[derive(Clone)]
pub struct Dirs(DirStore);

#[derive(Clone)]
enum DirStore {
    Inline(u8, [DirSet; INLINE_LEVELS]),
    Heap(Vec<DirSet>),
}

impl Dirs {
    /// `levels` copies of `s`.
    pub fn filled(levels: usize, s: DirSet) -> Dirs {
        Dirs(if levels <= INLINE_LEVELS {
            DirStore::Inline(levels as u8, [s; INLINE_LEVELS])
        } else {
            DirStore::Heap(vec![s; levels])
        })
    }
}

impl std::ops::Deref for Dirs {
    type Target = [DirSet];

    fn deref(&self) -> &[DirSet] {
        match &self.0 {
            DirStore::Inline(n, buf) => &buf[..*n as usize],
            DirStore::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for Dirs {
    fn deref_mut(&mut self) -> &mut [DirSet] {
        match &mut self.0 {
            DirStore::Inline(n, buf) => &mut buf[..*n as usize],
            DirStore::Heap(v) => v,
        }
    }
}

impl PartialEq for Dirs {
    fn eq(&self, other: &Dirs) -> bool {
        **self == **other
    }
}

impl Eq for Dirs {}

impl std::fmt::Debug for Dirs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The outcome of a direction analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepResult {
    /// False when the accesses provably never touch the same element.
    pub possible: bool,
    /// Per common-loop-level allowed directions (length = CNL). Meaningless
    /// when `possible` is false.
    pub allowed: Dirs,
}

impl DepResult {
    /// A result with no dependence.
    pub fn none(levels: usize) -> Self {
        DepResult {
            possible: false,
            allowed: Dirs::filled(levels, DirSet::EMPTY),
        }
    }

    /// The paper's `IsArrayDep(d, u, l)` (Fig. 8d) for `l >= 1`: a
    /// direction vector `(0,…,0,+,…)` exists with the `+` at level `l`.
    pub fn carried_at(&self, l: u32) -> bool {
        let l = l as usize;
        self.possible
            && (1..=self.allowed.len()).contains(&l)
            && self.allowed[..l - 1].iter().all(|s| s.contains(Dir::Zero))
            && self.allowed[l - 1].contains(Dir::Pos)
    }

    /// True when the all-zero direction vector exists: the accesses can
    /// touch one element in the same iteration of every common loop (a
    /// loop-independent dependence when the definition comes first).
    pub fn same_iteration(&self) -> bool {
        self.possible && self.allowed.iter().all(|s| s.contains(Dir::Zero))
    }
}

/// Runs the direction analysis between `d_acc` (written at `d_stmt`) and
/// `u_acc` (read at `u_stmt`).
pub fn analyze(
    prog: &IrProgram,
    d_stmt: StmtId,
    d_acc: &AccessRef,
    u_stmt: StmtId,
    u_acc: &AccessRef,
) -> DepResult {
    let ctx = SymCtx::default();
    let cnl = prog.cnl(d_stmt, u_stmt);

    // Widen both accesses down to the common nest, one dimension at a
    // time: deeper loop variables are expanded to their ranges, so only
    // common-loop variables remain.
    let mut allowed = Dirs::filled(cnl as usize, DirSet::ALL);
    // A statement no deeper than the common nest has nothing to widen.
    let deeper = |s: StmtId| prog.stmt(s).level > cnl;
    let (d_deeper, u_deeper) = (deeper(d_stmt), deeper(u_stmt));
    for (ds, us) in d_acc.subs.iter().zip(u_acc.subs.iter()) {
        let (dd, ud) = (
            Dim::of(prog, ds, cnl, d_deeper),
            Dim::of(prog, us, cnl, u_deeper),
        );
        match dim_constraint(prog, &dd, &ud, &ctx) {
            DimOutcome::Impossible => return DepResult::none(cnl as usize),
            DimOutcome::Unconstrained => {}
            DimOutcome::Level(k, set) => {
                allowed[k] = allowed[k].intersect(set);
                if allowed[k].is_empty() {
                    return DepResult::none(cnl as usize);
                }
            }
        }
    }
    // Directions are computed in *index* space; for negative-step loops the
    // iteration order is reversed, so a refined direction set would have to
    // be mirrored. Stay conservative instead: any refinement at a
    // negative-step level widens back to all directions (overlap was
    // established; only ordering is uncertain).
    let mut cur = prog.stmt(d_stmt).enclosing;
    while let Some(l) = cur {
        let li = prog.loop_info(l);
        if li.level <= cnl && li.step < 0 {
            allowed[li.level as usize - 1] = DirSet::ALL;
        }
        cur = li.parent;
    }
    DepResult {
        possible: true,
        allowed,
    }
}

enum DimOutcome {
    /// The dimension can never match: no dependence at all.
    Impossible,
    /// No usable constraint from this dimension.
    Unconstrained,
    /// Direction constraint for common loop index `k` (0-based level-1).
    Level(usize, DirSet),
}

/// One subscript as the common nest sees it: the subscript itself when no
/// loop deeper than the nest occurs in it (widening would return it
/// unchanged, so it is read in place), else its widening.
enum Dim<'a> {
    Kept(&'a SubscriptIr),
    Widened(DimSect),
}

impl<'a> Dim<'a> {
    /// `sub` seen from the common nest `cnl`; `deeper` says whether its
    /// statement is nested deeper than `cnl` — when it is not, no loop the
    /// subscript can mention is deeper, and it is kept as is.
    fn of(prog: &IrProgram, sub: &'a SubscriptIr, cnl: u32, deeper: bool) -> Self {
        match deeper
            .then(|| widen_sub_if_needed(prog, sub, cnl))
            .flatten()
        {
            Some(d) => Dim::Widened(d),
            None => Dim::Kept(sub),
        }
    }

    /// `lo : hi : step` (an element is its own both bounds, stride 1), or
    /// `None` for an unknown extent.
    fn bounds(&self) -> Option<Bounds<'_>> {
        match self {
            Dim::Kept(SubscriptIr::Elem(e)) | Dim::Widened(DimSect::Elem(e)) => Some((e, e, 1)),
            Dim::Kept(SubscriptIr::Range { lo, hi, step })
            | Dim::Widened(DimSect::Range { lo, hi, step }) => Some((lo, hi, *step)),
            Dim::Kept(SubscriptIr::NonAffine) | Dim::Widened(DimSect::Any) => None,
        }
    }
}

/// A window `lin(loops) + [lo_rest, hi_rest]`, borrowed from the bounds:
/// `lin` holds the loop terms, each rest a constant and parameter terms.
struct Window<'a> {
    lin: &'a [Term],
    lo_rest: Rest<'a>,
    hi_rest: Rest<'a>,
}

/// The loop-free part of a bound: its constant and its parameter terms.
type Rest<'a> = (i64, &'a [Term]);

/// `a - b` when it is a constant, i.e. when the parameter terms agree.
fn rest_diff(a: Rest<'_>, b: Rest<'_>) -> Option<i64> {
    (a.1 == b.1).then(|| a.0 - b.0)
}

/// Coefficient of `v` among the loop terms `lin` (0 if absent).
fn coeff(lin: &[Term], v: Var) -> i64 {
    lin.iter().find(|t| t.0 == v).map_or(0, |t| t.1)
}

/// The window of one dimension. Every loop variable left in its bounds is
/// a common one ([`Dim::of`] widened the deeper ones away), so a bound
/// splits into loop terms and rest with no check and no copy.
fn window_of<'d>(d: &'d Dim<'_>) -> Option<Window<'d>> {
    let (lo, hi, _) = d.bounds()?;
    let ((lo_params, lin), (hi_params, lin_hi)) = (lo.split_loops(), hi.split_loops());
    // A triangular window (bounds moving differently) defeats the test.
    (lin == lin_hi).then_some(Window {
        lin,
        lo_rest: (lo.k, lo_params),
        hi_rest: (hi.k, hi_params),
    })
}

fn dim_constraint(prog: &IrProgram, dd: &Dim<'_>, ud: &Dim<'_>, ctx: &SymCtx) -> DimOutcome {
    let (Some(wd), Some(wu)) = (window_of(dd), window_of(ud)) else {
        return DimOutcome::Unconstrained;
    };

    // The active loops: those either window moves with.
    let mut active = wd.lin.iter().chain(wu.lin).map(|t| t.0);
    let Some(first) = active.next() else {
        // Loop-invariant windows: plain (stride-aware) overlap test.
        return if bounds_overlap(dd.bounds(), ud.bounds(), ctx) {
            DimOutcome::Unconstrained
        } else {
            DimOutcome::Impossible
        };
    };

    // Overlap condition: lin_d(id) - lin_u(iu) ∈ [L, U] with
    // L = u.lo - d.hi, U = u.hi - d.lo.
    let bounds = rest_diff(wu.lo_rest, wd.hi_rest).zip(rest_diff(wu.hi_rest, wd.lo_rest));

    if active.all(|v| v == first) {
        let (cd, cu) = (coeff(wd.lin, first), coeff(wu.lin, first));
        if cd == cu {
            // Strong SIV with a window: c·(id - iu) ∈ [L, U], i.e.
            // c·δ ∈ [-U, -L] with δ = iu - id.
            let (Some((lc, uc)), Var::Loop(l)) = (bounds, first) else {
                // Symbolic window: if provably 0 ∉ feasible set in one
                // direction we could refine; stay conservative.
                return DimOutcome::Unconstrained;
            };
            return match int_mult_interval(-uc, -lc, cd) {
                None => DimOutcome::Impossible,
                Some((dlo, dhi)) => DimOutcome::Level(
                    prog.loop_info(l).level as usize - 1,
                    DirSet::from_flags(dlo <= -1, dlo <= 0 && 0 <= dhi, dhi >= 1),
                ),
            };
        }
    }

    // Differing coefficients (weak SIV) or several loops (MIV): GCD
    // feasibility on a point equation, otherwise unconstrained.
    if let Some((lc, uc)) = bounds {
        if lc == uc {
            let g = wd
                .lin
                .iter()
                .chain(wu.lin)
                .fold(0, |g, t| gcd(g, t.1.unsigned_abs()));
            if g != 0 && lc.unsigned_abs() % g != 0 {
                return DimOutcome::Impossible;
            }
        }
    }
    DimOutcome::Unconstrained
}

/// Integer solutions of `c·δ ∈ [lo, hi]`: returns the inclusive δ-range, or
/// `None` when no multiple of `c` falls in the interval.
fn int_mult_interval(lo: i64, hi: i64, c: i64) -> Option<(i64, i64)> {
    debug_assert!(c != 0);
    let (lo, hi, c) = if c < 0 { (-hi, -lo, -c) } else { (lo, hi, c) };
    if lo > hi {
        return None;
    }
    let dlo = ceil_div(lo, c);
    let dhi = floor_div(hi, c);
    (dlo <= dhi).then_some((dlo, dhi))
}

fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

fn floor_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirset_ops() {
        let s = DirSet::from_flags(true, false, true);
        assert!(s.contains(Dir::Neg));
        assert!(!s.contains(Dir::Zero));
        assert!(s.contains(Dir::Pos));
        assert!(s.intersect(DirSet::only(Dir::Zero)).is_empty());
        assert_eq!(s.intersect(DirSet::ALL), s);
    }

    #[test]
    fn int_mult_interval_cases() {
        // 2δ ∈ [2, 5] → δ ∈ [1, 2].
        assert_eq!(int_mult_interval(2, 5, 2), Some((1, 2)));
        // 2δ ∈ [3, 3] → no solution.
        assert_eq!(int_mult_interval(3, 3, 2), None);
        // -1·δ ∈ [1, 1] → δ = -1.
        assert_eq!(int_mult_interval(1, 1, -1), Some((-1, -1)));
        // 3δ ∈ [-7, 7] → δ ∈ [-2, 2].
        assert_eq!(int_mult_interval(-7, 7, 3), Some((-2, 2)));
        // Empty interval.
        assert_eq!(int_mult_interval(5, 2, 1), None);
    }

    #[test]
    fn div_helpers() {
        assert_eq!(ceil_div(5, 2), 3);
        assert_eq!(ceil_div(4, 2), 2);
        assert_eq!(ceil_div(-5, 2), -2);
        assert_eq!(floor_div(-5, 2), -3);
        assert_eq!(floor_div(5, 2), 2);
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 999), 1);
    }
}
