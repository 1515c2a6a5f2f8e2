//! Resolved program representation: arrays, loops, statements.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gcomm_lang::{Dist, Expr, Name};

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
#[derive(Debug, Clone, PartialEq, Hash)]
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
        /// The right-hand-side expression, shared with the AST it was
        /// lowered from (kept for the reference interpreter and the dynamic
        /// schedule verifier).
        rhs: Arc<Expr>,
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
#[derive(Debug, Clone, PartialEq, Hash)]
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

/// A lowered program: the unit of analysis (one procedure).
#[derive(Debug, Clone, PartialEq)]
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
    /// Branch conditions by branching node, shared with the AST (every
    /// two-successor non-loop node has one; used by the reference
    /// interpreter).
    pub branch_conds: std::collections::HashMap<NodeId, Arc<Expr>>,
}

/// Hand-written for one field: `branch_conds` is a `HashMap`, whose
/// iteration order differs between runs, so it is hashed in `NodeId`
/// order. The destructuring is exhaustive on purpose — a new field fails
/// to compile here until it is hashed too.
impl Hash for IrProgram {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let IrProgram {
            name,
            params,
            arrays,
            loops,
            stmts,
            cfg,
            branch_conds,
        } = self;
        (name, params, arrays, loops, stmts, cfg).hash(state);
        BTreeMap::from_iter(branch_conds).hash(state);
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
