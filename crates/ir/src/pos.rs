//! Program positions at statement granularity.
//!
//! A position identifies a point in a CFG node: `slot == 0` is the top of
//! the node, `slot == k` is immediately **after** the node's `k-1`-th
//! statement. The paper's convention "communication placed at `d` means
//! immediately after `d`" maps to `Pos::after`; "immediately before the
//! statement containing `u`" maps to `Pos::before`.

use crate::cfg::NodeId;
use crate::dom::DomTree;
use crate::program::{IrProgram, StmtId};

/// A point in the program: inside node `node`, after `slot` statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// CFG node.
    pub node: NodeId,
    /// Number of statements of the node that execute before this point
    /// (0 = top of node, `stmts.len()` = bottom).
    pub slot: usize,
}

impl Pos {
    /// The top of a node.
    pub fn top(node: NodeId) -> Pos {
        Pos { node, slot: 0 }
    }

    /// The point immediately before statement `s`.
    pub fn before(prog: &IrProgram, s: StmtId) -> Pos {
        let info = prog.stmt(s);
        Pos {
            node: info.node,
            slot: info.index,
        }
    }

    /// The point immediately after statement `s`.
    pub fn after(prog: &IrProgram, s: StmtId) -> Pos {
        let info = prog.stmt(s);
        Pos {
            node: info.node,
            slot: info.index + 1,
        }
    }

    /// The bottom of a node.
    pub fn bottom(prog: &IrProgram, node: NodeId) -> Pos {
        Pos {
            node,
            slot: prog.cfg.node(node).stmts.len(),
        }
    }

    /// True if code at `self` executes before `other` on every path to
    /// `other` (reflexive): node-level dominance refined by slot order
    /// within a node.
    #[inline]
    pub fn dominates(&self, other: &Pos, dt: &DomTree) -> bool {
        if self.node == other.node {
            self.slot <= other.slot
        } else {
            dt.strictly_dominates(self.node, other.node)
        }
    }

    /// Nesting level of the position (the level of its node).
    #[inline]
    pub fn level(&self, prog: &IrProgram) -> u32 {
        prog.cfg.node(self.node).level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;

    #[test]
    fn before_after_and_dominance() {
        let src = "
program t
param n
real a(n), b(n) distribute (block)
a(1:n) = 0
b(1:n) = a(1:n)
end";
        let ast = gcomm_lang::parse_program(src).unwrap();
        let ir = lower(&ast).unwrap();
        let dt = DomTree::compute(&ir.cfg);
        let s0 = StmtId(0);
        let s1 = StmtId(1);
        let b0 = Pos::before(&ir, s0);
        let a0 = Pos::after(&ir, s0);
        let b1 = Pos::before(&ir, s1);
        assert_eq!(a0, b1, "statements share a node; after s0 == before s1");
        assert!(b0.dominates(&a0, &dt));
        assert!(!a0.dominates(&b0, &dt));
        assert!(b0.dominates(&b0, &dt));
    }

    #[test]
    fn cross_node_dominance() {
        let src = "
program t
param n
real a(n,n) distribute (block,block)
a(1, 1:n) = 0
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end";
        let ast = gcomm_lang::parse_program(src).unwrap();
        let ir = lower(&ast).unwrap();
        let dt = DomTree::compute(&ir.cfg);
        let outer = Pos::after(&ir, StmtId(0));
        let inner = Pos::before(&ir, StmtId(1));
        assert!(outer.dominates(&inner, &dt));
        assert!(!inner.dominates(&outer, &dt));
        assert_eq!(outer.level(&ir), 0);
        assert_eq!(inner.level(&ir), 1);
    }
}
