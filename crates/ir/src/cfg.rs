//! The augmented control-flow graph of paper §4.1.
//!
//! Beyond the standard CFG, every loop gets
//!
//! * a **preheader** node that dominates all nodes of the loop,
//! * a **header** node carrying the loop's φ-Enter definitions, and
//! * a **postexit** node per exit target carrying φ-Exit definitions, with a
//!   **zero-trip edge** from the preheader.
//!
//! The zero-trip edge is load-bearing: it guarantees that no node *inside* a
//! loop dominates any node *after* the loop, which is what makes
//! `Earliest(u)` (a dominating definition) always live outside loops that do
//! not contain `u`.

use std::fmt;

use crate::program::{LoopId, StmtId};

/// Index of a node in [`Cfg::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The role of a CFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Procedure entry; carries the pseudo-definitions of every variable.
    Entry,
    /// Procedure exit.
    Exit,
    /// Ordinary basic block of statements.
    Block,
    /// Loop preheader (outside the loop).
    PreHeader(LoopId),
    /// Loop header (inside the loop; φ-Enter defs live here).
    Header(LoopId),
    /// Loop postexit (outside the loop; φ-Exit defs live here).
    PostExit(LoopId),
}

/// A CFG node.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Node {
    /// Role of the node.
    pub kind: NodeKind,
    /// Statements in program order (empty for structural nodes).
    pub stmts: Vec<StmtId>,
    /// Predecessors.
    pub preds: Vec<NodeId>,
    /// Successors.
    pub succs: Vec<NodeId>,
    /// Innermost loop *containing* the node (preheaders and postexits belong
    /// to the enclosing loop, not the loop they serve).
    pub enclosing: Option<LoopId>,
    /// Nesting level (`NL`): number of loops containing the node.
    pub level: u32,
}

/// The augmented control-flow graph.
#[derive(Debug, Clone, PartialEq, Hash, Default)]
pub struct Cfg {
    /// All nodes; `NodeId` indexes this vector.
    pub nodes: Vec<Node>,
    /// Entry node (always `NodeId(0)`).
    pub entry: NodeId,
    /// Exit node.
    pub exit: NodeId,
}

impl Cfg {
    /// Creates a CFG containing only an entry node.
    pub fn new() -> Self {
        Cfg {
            nodes: vec![Node {
                kind: NodeKind::Entry,
                stmts: vec![],
                preds: vec![],
                succs: vec![],
                enclosing: None,
                level: 0,
            }],
            entry: NodeId(0),
            exit: NodeId(0), // patched when the exit node is added
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, enclosing: Option<LoopId>, level: u32) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            stmts: vec![],
            preds: vec![],
            succs: vec![],
            enclosing,
            level,
        });
        id
    }

    /// Adds a directed edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.nodes[from.0 as usize].succs.contains(&to) {
            self.nodes[from.0 as usize].succs.push(to);
            self.nodes[to.0 as usize].preds.push(from);
        }
    }

    /// Node by id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutable node by id.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Reverse postorder from the entry (ignores unreachable nodes).
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut post = Vec::with_capacity(self.nodes.len());
        // Iterative DFS with an explicit stack of (node, next-succ-index).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.0 as usize] = true;
        while let Some(&mut (n, ref mut i)) = stack.last_mut() {
            let succs = &self.nodes[n.0 as usize].succs;
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(n);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cfg {
        // entry -> a -> {b, c} -> d
        let mut g = Cfg::new();
        let a = g.add_node(NodeKind::Block, None, 0);
        let b = g.add_node(NodeKind::Block, None, 0);
        let c = g.add_node(NodeKind::Block, None, 0);
        let d = g.add_node(NodeKind::Block, None, 0);
        g.add_edge(g.entry, a);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g.exit = d;
        g
    }

    #[test]
    fn edges_are_deduplicated() {
        let mut g = Cfg::new();
        let a = g.add_node(NodeKind::Block, None, 0);
        g.add_edge(g.entry, a);
        g.add_edge(g.entry, a);
        assert_eq!(g.node(g.entry).succs.len(), 1);
        assert_eq!(g.node(a).preds.len(), 1);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let g = diamond();
        let rpo = g.reverse_postorder();
        assert_eq!(rpo[0], g.entry);
        assert_eq!(rpo.len(), 5);
        // d must come after b and c.
        let posn = |n: NodeId| rpo.iter().position(|&x| x == n).unwrap();
        assert!(posn(NodeId(4)) > posn(NodeId(2)));
        assert!(posn(NodeId(4)) > posn(NodeId(3)));
    }

    #[test]
    fn unreachable_nodes_excluded_from_rpo() {
        let mut g = diamond();
        g.add_node(NodeKind::Block, None, 0); // never linked
        assert_eq!(g.reverse_postorder().len(), 5);
    }
}
