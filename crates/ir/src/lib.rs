//! # gcomm-ir — statement IR, augmented CFG, loop tree, dominators
//!
//! This crate lowers a validated [`gcomm_lang::Program`] into the program
//! representation used by the communication analyses of *Global
//! Communication Analysis and Optimization* (PLDI 1996):
//!
//! * [`affine`] — affine expressions over size parameters and loop
//!   variables (the subscript language of the dependence tester and the
//!   bound language of array sections),
//! * [`program`] — arrays, loops, and statements with resolved ids,
//! * [`cfg`] — the **augmented control-flow graph** of §4.1: every loop
//!   gets a *preheader* and *postexit* node, plus a *zero-trip* edge from
//!   preheader to postexit, so that nodes inside a loop never dominate
//!   nodes after it,
//! * [`dom`] — dominator tree and dominance frontiers,
//! * [`pos`] — statement-granularity program positions (`(node, slot)`)
//!   used as communication placement points.
//!
//! # Example
//!
//! ```
//! let src = "
//! program p
//! param n
//! real a(n,n) distribute (block,block)
//! do i = 2, n
//!   a(i, 1:n) = a(i-1, 1:n)
//! enddo
//! end";
//! let ast = gcomm_lang::parse_program(src)?;
//! let ir = gcomm_ir::lower(&ast)?;
//! assert_eq!(ir.loops.len(), 1);
//! assert_eq!(ir.stmts.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod affine;
pub mod cfg;
pub mod dom;
pub mod dot;
pub mod lower;
pub mod pos;
pub mod program;

pub use affine::{Affine, Term, Var};
pub use cfg::{Cfg, Node, NodeId, NodeKind};
pub use dom::DomTree;
pub use lower::{lower, LowerError};
pub use pos::Pos;
pub use program::{
    AccessRef, ArrayId, ArrayInfo, IrProgram, LoopId, LoopInfo, ParamId, Read, StmtId, StmtInfo,
    StmtKind, SubscriptIr,
};
