//! Resolved program representation: arrays, loops, statements.
//!
//! A lowered program keeps the expressions it was lowered from — each
//! right-hand side and branch condition is an [`ExprId`] into the AST's
//! arena, which the IR shares through one `Arc` per program. `Debug`,
//! `Hash` and `PartialEq` of an [`IrProgram`] read those ids in the arena
//! ([`gcomm_lang::Walk`]), so they print, hash and compare the expression
//! trees, as they did when each was an `Arc<Expr>` of its own.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;
use std::sync::Arc;

use gcomm_lang::{walk_struct, Arena, Dist, ExprId, In, Name, Walk};

use crate::affine::Affine;
use crate::cfg::{Cfg, NodeId};

/// Index of an array (or scalar) in [`IrProgram::arrays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

/// Index of a size parameter in [`IrProgram::params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub u32);

/// Index of a loop in [`IrProgram::loops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

/// Index of a statement in [`IrProgram::stmts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}
impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}
impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A declared array (or scalar, when `dims` is empty) with resolved bounds.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ArrayInfo {
    /// Source name (the declaration's own [`Name`], shared).
    pub name: Name,
    /// Per-dimension inclusive bounds `(lo, hi)`, affine over parameters.
    pub dims: Vec<(Affine, Affine)>,
    /// Per-dimension distribution; empty means replicated.
    pub dist: Vec<Dist>,
    /// Per-dimension alignment offsets onto the template (zeros when the
    /// declaration had no `align` clause).
    pub align: Vec<i64>,
}

impl ArrayInfo {
    /// Rank (0 for scalars).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Alignment offset of dimension `d` (0 when unaligned).
    pub fn align_of(&self, d: usize) -> i64 {
        self.align.get(d).copied().unwrap_or(0)
    }

    /// Indices of the distributed dimensions, in order (these map to the
    /// axes of the processor grid / HPF template).
    pub fn distributed(&self) -> impl Iterator<Item = usize> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(|(_, d)| **d != Dist::Collapsed)
            .map(|(i, _)| i)
    }

    /// [`Self::distributed`], collected.
    pub fn distributed_dims(&self) -> Vec<usize> {
        self.distributed().collect()
    }

    /// True if no dimension is distributed.
    pub fn is_replicated(&self) -> bool {
        self.distributed().next().is_none()
    }
}

/// A loop with resolved bounds and its place in the loop tree and CFG.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct LoopInfo {
    /// Source index-variable name (the loop's own [`Name`], shared).
    pub var: Name,
    /// Inclusive lower bound (affine over parameters and outer loop vars).
    pub lo: Affine,
    /// Inclusive upper bound.
    pub hi: Affine,
    /// Constant non-zero step.
    pub step: i64,
    /// Enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting level: outermost loops have level 1 (paper's `NL`).
    pub level: u32,
    /// Preheader node (outside the loop; dominates all loop nodes).
    pub preheader: NodeId,
    /// Header node (inside the loop; holds the φ-Enter defs).
    pub header: NodeId,
    /// Postexit node (outside the loop; holds the φ-Exit defs).
    pub postexit: NodeId,
}

/// One subscript position of an access.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum SubscriptIr {
    /// Single element at an affine index.
    Elem(Affine),
    /// Regular section with affine bounds and constant stride.
    Range {
        /// Inclusive lower bound.
        lo: Affine,
        /// Inclusive upper bound.
        hi: Affine,
        /// Constant non-zero stride.
        step: i64,
    },
    /// Subscript the frontend could not express affinely; analyses must be
    /// conservative.
    NonAffine,
}

impl SubscriptIr {
    /// The lower bound when known (`Elem` counts as a degenerate range).
    pub fn lo(&self) -> Option<&Affine> {
        match self {
            SubscriptIr::Elem(e) => Some(e),
            SubscriptIr::Range { lo, .. } => Some(lo),
            SubscriptIr::NonAffine => None,
        }
    }

    /// The upper bound when known.
    pub fn hi(&self) -> Option<&Affine> {
        match self {
            SubscriptIr::Elem(e) => Some(e),
            SubscriptIr::Range { hi, .. } => Some(hi),
            SubscriptIr::NonAffine => None,
        }
    }
}

/// A resolved reference to an array with one subscript per dimension
/// (scalars have none).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct AccessRef {
    /// Referenced array.
    pub array: ArrayId,
    /// One entry per declared dimension.
    pub subs: Vec<SubscriptIr>,
}

/// A read of an array on the right-hand side of a statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Read {
    /// The access.
    pub access: AccessRef,
    /// True when the read appears inside `sum(...)` — the communication for
    /// it is a reduction, not a data fetch.
    pub reduction: bool,
}

/// Statement payload.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `lhs = f(reads...)`.
    Assign {
        /// Written access.
        lhs: AccessRef,
        /// All array reads of the right-hand side, in textual order.
        reads: Vec<Read>,
        /// Number of arithmetic operations per assigned element (a crude
        /// work estimate used by the machine simulator).
        flops: u32,
        /// The right-hand-side expression in [`IrProgram::arena`] (kept for
        /// the reference interpreter and the dynamic schedule verifier).
        rhs: ExprId,
    },
    /// Evaluation of an `if` condition (reads only).
    Cond {
        /// Array reads of the condition.
        reads: Vec<Read>,
    },
}

impl StmtKind {
    /// The reads of this statement.
    pub fn reads(&self) -> &[Read] {
        match self {
            StmtKind::Assign { reads, .. } => reads,
            StmtKind::Cond { reads } => reads,
        }
    }

    /// The written access, if this is an assignment.
    pub fn def(&self) -> Option<&AccessRef> {
        match self {
            StmtKind::Assign { lhs, .. } => Some(lhs),
            StmtKind::Cond { .. } => None,
        }
    }
}

/// A statement with its CFG location.
#[derive(Debug, Clone)]
pub struct StmtInfo {
    /// Payload.
    pub kind: StmtKind,
    /// CFG node containing the statement.
    pub node: NodeId,
    /// Index of the statement within its node.
    pub index: usize,
    /// Innermost enclosing loop.
    pub enclosing: Option<LoopId>,
    /// Nesting level (`NL`): number of enclosing loops.
    pub level: u32,
    /// 1-based source line (0 if synthesized).
    pub line: u32,
}

/// As the derived impls of the `StmtKind` whose `rhs` was an `Arc<Expr>`.
impl Walk for StmtKind {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmtKind::Assign {
                lhs,
                reads,
                flops,
                rhs,
            } => f
                .debug_struct("Assign")
                .field("lhs", lhs)
                .field("reads", reads)
                .field("flops", flops)
                .field("rhs", &In(a, rhs))
                .finish(),
            StmtKind::Cond { reads } => f.debug_struct("Cond").field("reads", reads).finish(),
        }
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        discriminant(self).hash(h);
        match self {
            StmtKind::Assign {
                lhs,
                reads,
                flops,
                rhs,
            } => {
                (lhs, reads, flops).hash(h);
                In(a, rhs).hash(h);
            }
            StmtKind::Cond { reads } => reads.hash(h),
        }
    }
}

walk_struct! { StmtInfo {
    kind: walk, node: plain, index: plain, enclosing: plain, level: plain, line: plain,
} }

/// A lowered program: the unit of analysis (one procedure).
#[derive(Clone)]
pub struct IrProgram {
    /// Program name.
    pub name: String,
    /// Size parameter names (`ParamId` = index).
    pub params: Vec<String>,
    /// Arrays and scalars (`ArrayId` = index).
    pub arrays: Vec<ArrayInfo>,
    /// Loops in lowering order (`LoopId` = index).
    pub loops: Vec<LoopInfo>,
    /// Statements in program (textual) order (`StmtId` = index).
    pub stmts: Vec<StmtInfo>,
    /// The augmented control-flow graph.
    pub cfg: Cfg,
    /// The condition of each branching node, sorted by node (every
    /// two-successor non-loop node has one; used by the reference
    /// interpreter).
    pub branch_conds: Vec<(NodeId, ExprId)>,
    /// The AST's arena, which `rhs` and `branch_conds` index.
    pub arena: Arc<Arena>,
}

/// `branch_conds` as the node-ordered map it was: its length, then each
/// node and its condition.
struct Conds<'a>(&'a Arena, &'a [(NodeId, ExprId)]);

impl fmt::Debug for Conds<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.1.iter().map(|(n, e)| (n, In(self.0, e)));
        f.debug_map().entries(entries).finish()
    }
}

impl Hash for Conds<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.1.len());
        for (node, cond) in self.1 {
            node.hash(h);
            In(self.0, cond).hash(h);
        }
    }
}

impl PartialEq for Conds<'_> {
    fn eq(&self, other: &Self) -> bool {
        let same = |((n, e), (m, d)): (&(NodeId, ExprId), &(NodeId, ExprId))| {
            n == m && In(self.0, e) == In(other.0, d)
        };
        self.1.len() == other.1.len() && self.1.iter().zip(other.1).all(same)
    }
}

/// Every field but the arena, whose ids are read through it. The
/// destructuring is exhaustive on purpose — a new field fails to compile
/// here until it is printed, hashed and compared too.
impl IrProgram {
    #[allow(clippy::type_complexity)]
    fn parts(
        &self,
    ) -> (
        (&String, &Vec<String>, &Vec<ArrayInfo>, &Vec<LoopInfo>),
        In<'_, [StmtInfo]>,
        &Cfg,
        Conds<'_>,
    ) {
        let IrProgram {
            name,
            params,
            arrays,
            loops,
            stmts,
            cfg,
            branch_conds,
            arena,
        } = self;
        (
            (name, params, arrays, loops),
            In(arena, &stmts[..]),
            cfg,
            Conds(arena, branch_conds),
        )
    }
}

impl fmt::Debug for IrProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ((name, params, arrays, loops), stmts, cfg, conds) = self.parts();
        f.debug_struct("IrProgram")
            .field("name", name)
            .field("params", params)
            .field("arrays", arrays)
            .field("loops", loops)
            .field("stmts", &stmts)
            .field("cfg", cfg)
            .field("branch_conds", &conds)
            .finish()
    }
}

impl Hash for IrProgram {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.parts().hash(h);
    }
}

impl PartialEq for IrProgram {
    fn eq(&self, other: &IrProgram) -> bool {
        self.parts() == other.parts()
    }
}

impl IrProgram {
    /// Array info by id.
    pub fn array(&self, id: ArrayId) -> &ArrayInfo {
        &self.arrays[id.0 as usize]
    }

    /// Loop info by id.
    #[inline]
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.0 as usize]
    }

    /// Statement info by id.
    #[inline]
    pub fn stmt(&self, id: StmtId) -> &StmtInfo {
        &self.stmts[id.0 as usize]
    }

    /// Looks up an array id by source name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// Rank of the processor grid the program runs on: the largest number
    /// of distributed dimensions among its arrays, at least 1 (a program
    /// of replicated data still runs on a line of processors).
    pub fn grid_rank(&self) -> usize {
        let dims = self.arrays.iter().map(|a| a.distributed().count());
        dims.max().unwrap_or(1).max(1)
    }

    /// Level of the deepest loop enclosing both `a` and `b` (0 when none):
    /// walks `LoopInfo::{parent, level}` upward from both, no chain built.
    fn common_level(&self, mut a: Option<LoopId>, mut b: Option<LoopId>) -> u32 {
        while let (Some(x), Some(y)) = (a, b) {
            let (lx, ly) = (self.loop_info(x), self.loop_info(y));
            if x == y {
                return lx.level;
            }
            if lx.level >= ly.level {
                a = lx.parent;
            }
            if ly.level >= lx.level {
                b = ly.parent;
            }
        }
        0
    }

    /// Common nesting level of two statements (paper's `CNL`): the level of
    /// the deepest loop containing both.
    pub fn cnl(&self, a: StmtId, b: StmtId) -> u32 {
        self.common_level(self.stmt(a).enclosing, self.stmt(b).enclosing)
    }

    /// Common nesting level of a CFG node and a statement.
    pub fn cnl_node_stmt(&self, n: NodeId, s: StmtId) -> u32 {
        self.common_level(self.cfg.node(n).enclosing, self.stmt(s).enclosing)
    }

    /// The loop at `level` (1-based) in the chain enclosing statement `s`.
    pub fn enclosing_loop_at_level(&self, s: StmtId, level: u32) -> Option<LoopId> {
        let mut cur = self.stmt(s).enclosing;
        while let Some(l) = cur {
            let li = self.loop_info(l);
            if li.level <= level {
                return (li.level == level).then_some(l);
            }
            cur = li.parent;
        }
        None
    }
}
