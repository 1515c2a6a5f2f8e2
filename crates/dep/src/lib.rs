//! # gcomm-dep — array dependence testing with direction vectors
//!
//! Implements the dependence machinery that `Latest(u)` (§4.2) and
//! `Earliest(u)` (§4.3) of *Global Communication Analysis and Optimization*
//! (PLDI 1996) are built on:
//!
//! * [`widen`] — *vectorization* of an access with respect to a loop-nest
//!   prefix: loop variables of the loops being summarized are eliminated by
//!   widening subscripts into sections over those loops' full iteration
//!   ranges (stride-aware). The same operation yields the section actually
//!   communicated when a message is hoisted out of loops.
//! * [`direction`] — direction-vector computation between a definition and
//!   a use: per-dimension SIV/window tests with exact integer interval
//!   reasoning, a GCD-style feasibility check, and symbolic (parameter)
//!   disjointness, combined conservatively across dimensions.
//! * [`DepTest`] — the paper's `IsArrayDep(d, u, l)` (Fig. 8d) and
//!   `DepLevel(d, u)` on top of the direction analysis.

pub mod direction;
pub mod widen;

pub use direction::{DepResult, Dir, DirSet, Dirs};

use gcomm_ir::{AccessRef, IrProgram, StmtId};

/// Dependence tester bound to one program.
#[derive(Debug, Clone, Copy)]
pub struct DepTest<'a> {
    prog: &'a IrProgram,
}

impl<'a> DepTest<'a> {
    /// Creates a tester for `prog`.
    pub fn new(prog: &'a IrProgram) -> Self {
        DepTest { prog }
    }

    /// Full direction analysis between a definition access at `d_stmt` and a
    /// use access at `u_stmt`.
    pub fn analyze(
        &self,
        d_stmt: StmtId,
        d_acc: &AccessRef,
        u_stmt: StmtId,
        u_acc: &AccessRef,
    ) -> DepResult {
        let _t = gcomm_obs::time("dep.query");
        gcomm_obs::count("dep.queries", 1);
        direction::analyze(self.prog, d_stmt, d_acc, u_stmt, u_acc)
    }

    /// The paper's `IsArrayDep(d, u, l)` (Fig. 8d) for a *regular*
    /// definition: true when a direction vector `(0,…,0,+,…)` exists with
    /// the `+` at level `l`. The pseudo-definition at ENTRY is handled by
    /// the caller (it is always dependent).
    ///
    /// `l == 0` asks for a loop-independent dependence: all-zero directions
    /// with the definition textually preceding the use.
    ///
    /// One analysis answers every level: callers asking about several
    /// should take [`analyze`](Self::analyze)'s [`DepResult`] and read
    /// [`carried_at`](DepResult::carried_at) /
    /// [`same_iteration`](DepResult::same_iteration) off it.
    pub fn is_array_dep(
        &self,
        d_stmt: StmtId,
        d_acc: &AccessRef,
        u_stmt: StmtId,
        u_acc: &AccessRef,
        l: u32,
    ) -> bool {
        let res = self.analyze(d_stmt, d_acc, u_stmt, u_acc);
        if l == 0 {
            res.same_iteration() && d_stmt < u_stmt
        } else {
            res.carried_at(l)
        }
    }

    /// The paper's `DepLevel(d, u)`: the deepest loop level carrying a true
    /// dependence from the definition to the use (0 when none).
    pub fn dep_level(
        &self,
        d_stmt: StmtId,
        d_acc: &AccessRef,
        u_stmt: StmtId,
        u_acc: &AccessRef,
    ) -> u32 {
        let res = self.analyze(d_stmt, d_acc, u_stmt, u_acc);
        (1..=res.allowed.len() as u32)
            .rev()
            .find(|&l| res.carried_at(l))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_ir::StmtKind;

    fn prog(src: &str) -> IrProgram {
        gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap()
    }

    fn def_use(p: &IrProgram, d: StmtId, u: StmtId, read: usize) -> (AccessRef, AccessRef) {
        let dacc = p.stmt(d).kind.def().unwrap().clone();
        let uacc = match &p.stmt(u).kind {
            StmtKind::Assign { reads, .. } => reads[read].access.clone(),
            StmtKind::Cond { reads } => reads[read].access.clone(),
        };
        (dacc, uacc)
    }

    #[test]
    fn carried_stencil_dependence() {
        // a(i,·) = a(i-1,·): flow dependence carried at level 1, distance 1.
        let p = prog(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let t = DepTest::new(&p);
        let (d, u) = def_use(&p, StmtId(0), StmtId(0), 0);
        assert!(t.is_array_dep(StmtId(0), &d, StmtId(0), &u, 1));
        assert_eq!(t.dep_level(StmtId(0), &d, StmtId(0), &u), 1);
    }

    #[test]
    fn same_iteration_read_before_write_not_carried() {
        // use a(i,·) and later def a(i,·): only (=) direction; reading before
        // writing in the same iteration is an anti-dependence, not flow.
        let p = prog(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
do i = 1, n
  b(i, 1:n) = a(i, 1:n)
  a(i, 1:n) = b(i, 1:n)
enddo
end",
        );
        let t = DepTest::new(&p);
        // def of a is stmt 1, use of a in stmt 0.
        let dacc = p.stmt(StmtId(1)).kind.def().unwrap().clone();
        let (_, uacc) = def_use(&p, StmtId(1), StmtId(0), 0);
        assert!(
            !t.is_array_dep(StmtId(1), &dacc, StmtId(0), &uacc, 1),
            "distance 0 at level 1 is not a carried dependence"
        );
        assert_eq!(t.dep_level(StmtId(1), &dacc, StmtId(0), &uacc), 0);
    }

    #[test]
    fn timestep_carried_dependence_at_outer_level() {
        // Writes of slab i never reach reads of slab i within a timestep but
        // do across timesteps.
        let p = prog(
            "
program t
param n, nx
real g(nx,n,n) distribute (*,block,block)
real w(nx,n,n) distribute (*,block,block)
do ts = 1, 10
  do i = 2, nx
    w(i, 1:n, 1:n) = g(i, 1:n, 1:n)
    g(i, 1:n, 1:n) = w(i, 1:n, 1:n)
  enddo
enddo
end",
        );
        let t = DepTest::new(&p);
        let dacc = p.stmt(StmtId(1)).kind.def().unwrap().clone();
        let (_, uacc) = def_use(&p, StmtId(1), StmtId(0), 0);
        // Carried at level 1 (timestep), not level 2 (slab loop).
        assert!(t.is_array_dep(StmtId(1), &dacc, StmtId(0), &uacc, 1));
        assert!(!t.is_array_dep(StmtId(1), &dacc, StmtId(0), &uacc, 2));
        assert_eq!(t.dep_level(StmtId(1), &dacc, StmtId(0), &uacc), 1);
    }

    #[test]
    fn loop_independent_dependence() {
        let p = prog(
            "
program t
param n
real a(n), c(n) distribute (block)
a(1:n) = 1
c(2:n) = a(1:n-1)
end",
        );
        let t = DepTest::new(&p);
        let (d, u) = def_use(&p, StmtId(0), StmtId(1), 0);
        assert!(t.is_array_dep(StmtId(0), &d, StmtId(1), &u, 0));
        assert_eq!(t.dep_level(StmtId(0), &d, StmtId(1), &u), 0);
    }

    #[test]
    fn disjoint_sections_no_dependence() {
        let p = prog(
            "
program t
param n
real b(n,n), c(n,n) distribute (block,block)
do i = 1, n
  b(i, 1:n:2) = 1
  c(i, 1:n) = b(i, 2:n:2)
enddo
end",
        );
        let t = DepTest::new(&p);
        let (d, u) = def_use(&p, StmtId(0), StmtId(1), 0);
        // Odd columns written, even columns read: provably disjoint.
        let res = t.analyze(StmtId(0), &d, StmtId(1), &u);
        assert!(!res.possible);
        assert_eq!(t.dep_level(StmtId(0), &d, StmtId(1), &u), 0);
    }

    #[test]
    fn distance_two_dependence_direction() {
        let p = prog(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 3, n
  a(i, 1:n) = a(i-2, 1:n)
enddo
end",
        );
        let t = DepTest::new(&p);
        let (d, u) = def_use(&p, StmtId(0), StmtId(0), 0);
        let res = t.analyze(StmtId(0), &d, StmtId(0), &u);
        assert!(res.possible);
        assert!(res.allowed[0].contains(Dir::Pos));
        assert!(!res.allowed[0].contains(Dir::Zero));
        assert!(!res.allowed[0].contains(Dir::Neg));
    }

    #[test]
    fn reverse_offset_gives_negative_direction_only() {
        // a(i,·) = a(i+1,·): the def at iteration i can only affect reads at
        // earlier iterations (Neg) — no flow dependence carried forward.
        let p = prog(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 1, n - 1
  a(i, 1:n) = a(i+1, 1:n)
enddo
end",
        );
        let t = DepTest::new(&p);
        let (d, u) = def_use(&p, StmtId(0), StmtId(0), 0);
        let res = t.analyze(StmtId(0), &d, StmtId(0), &u);
        assert!(res.possible);
        assert!(res.allowed[0].contains(Dir::Neg));
        assert!(!res.allowed[0].contains(Dir::Pos));
        assert_eq!(t.dep_level(StmtId(0), &d, StmtId(0), &u), 0);
    }

    #[test]
    fn whole_array_def_conservative_at_outer_loop() {
        let p = prog(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
do ts = 1, 10
  a(:, :) = b(:, :)
  b(:, :) = a(:, :)
enddo
end",
        );
        let t = DepTest::new(&p);
        let (d, u) = def_use(&p, StmtId(0), StmtId(1), 0);
        // def a(:,:) at ts, use a(:,:) at ts' >= ts: both carried and
        // loop-independent dependences exist.
        assert!(t.is_array_dep(StmtId(0), &d, StmtId(1), &u, 1));
        assert!(t.is_array_dep(StmtId(0), &d, StmtId(1), &u, 0));
        assert_eq!(t.dep_level(StmtId(0), &d, StmtId(1), &u), 1);
    }
}
