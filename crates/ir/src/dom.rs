//! Dominator tree and dominance frontiers.
//!
//! Uses the iterative algorithm of Cooper, Harvey, and Kennedy ("A simple,
//! fast dominance algorithm"), which is plenty fast for the CFG sizes of
//! single procedures, and the classic Cytron et al. dominance-frontier
//! construction.

use crate::cfg::{Cfg, NodeId};

/// Dominator tree over a [`Cfg`], with O(depth) dominance queries.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per node; `None` for the entry node and for
    /// unreachable nodes.
    idom: Vec<Option<NodeId>>,
    /// Depth of each node in the dominator tree (entry = 0).
    depth: Vec<u32>,
    /// Children in the dominator tree.
    children: Vec<Vec<NodeId>>,
    /// Dominance frontier per node.
    frontier: Vec<Vec<NodeId>>,
    /// Whether each node is reachable from entry.
    reachable: Vec<bool>,
}

impl DomTree {
    /// Computes dominators and dominance frontiers for `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let _t = gcomm_obs::time("ir.dom");
        let n = cfg.len();
        let rpo = cfg.reverse_postorder();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &node) in rpo.iter().enumerate() {
            rpo_index[node.0 as usize] = i;
        }
        let mut reachable = vec![false; n];
        for &node in &rpo {
            reachable[node.0 as usize] = true;
        }

        let mut idom: Vec<Option<NodeId>> = vec![None; n];
        idom[cfg.entry.0 as usize] = Some(cfg.entry);

        let intersect = |idom: &[Option<NodeId>], mut a: NodeId, mut b: NodeId| -> NodeId {
            while a != b {
                while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
                    a = idom[a.0 as usize].expect("processed node has idom");
                }
                while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
                    b = idom[b.0 as usize].expect("processed node has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            gcomm_obs::count("ir.dom.iterations", 1);
            changed = false;
            for &node in rpo.iter().skip(1) {
                let preds = &cfg.node(node).preds;
                let mut new_idom: Option<NodeId> = None;
                for &p in preds {
                    if !reachable[p.0 as usize] || idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[node.0 as usize] != Some(ni) {
                        idom[node.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Entry's idom is conventionally itself during the fixpoint; strip it.
        idom[cfg.entry.0 as usize] = None;

        let mut depth = vec![0u32; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &node in &rpo {
            if let Some(p) = idom[node.0 as usize] {
                depth[node.0 as usize] = depth[p.0 as usize] + 1;
                children[p.0 as usize].push(node);
            }
        }

        // Dominance frontiers (Cytron et al.).
        let mut frontier: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &node in &rpo {
            let preds = &cfg.node(node).preds;
            if preds.len() < 2 {
                continue;
            }
            let Some(id) = idom[node.0 as usize] else {
                continue;
            };
            for &p in preds {
                if !reachable[p.0 as usize] {
                    continue;
                }
                let mut runner = p;
                while runner != id {
                    let fr = &mut frontier[runner.0 as usize];
                    if !fr.contains(&node) {
                        fr.push(node);
                    }
                    match idom[runner.0 as usize] {
                        Some(next) => runner = next,
                        None => break,
                    }
                }
            }
        }

        DomTree {
            idom,
            depth,
            children,
            frontier,
            reachable,
        }
    }

    /// Immediate dominator (dominator-tree parent); `None` for the entry.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.idom[n.0 as usize]
    }

    /// Dominator-tree children of `n`.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.children[n.0 as usize]
    }

    /// Dominance frontier of `n`.
    pub fn frontier(&self, n: NodeId) -> &[NodeId] {
        &self.frontier[n.0 as usize]
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if self.depth[cur.0 as usize] == 0 {
                return false;
            }
            match self.idom[cur.0 as usize] {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// True if `a` strictly dominates `b`.
    #[inline]
    pub fn strictly_dominates(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// True if `n` is reachable from the entry node.
    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.reachable[n.0 as usize]
    }

    /// Depth of `n` in the dominator tree.
    #[inline]
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Cfg, NodeKind};

    /// entry(0) -> a(1) -> b(2) -> d(4); a -> c(3) -> d; d -> e(5)
    fn diamond() -> (Cfg, [NodeId; 5]) {
        let mut g = Cfg::new();
        let a = g.add_node(NodeKind::Block, None, 0);
        let b = g.add_node(NodeKind::Block, None, 0);
        let c = g.add_node(NodeKind::Block, None, 0);
        let d = g.add_node(NodeKind::Block, None, 0);
        let e = g.add_node(NodeKind::Block, None, 0);
        g.add_edge(g.entry, a);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g.add_edge(d, e);
        g.exit = e;
        (g, [a, b, c, d, e])
    }

    #[test]
    fn diamond_idoms() {
        let (g, [a, b, c, d, e]) = diamond();
        let dt = DomTree::compute(&g);
        assert_eq!(dt.parent(a), Some(g.entry));
        assert_eq!(dt.parent(b), Some(a));
        assert_eq!(dt.parent(c), Some(a));
        assert_eq!(dt.parent(d), Some(a)); // join dominated by branch head
        assert_eq!(dt.parent(e), Some(d));
    }

    #[test]
    fn dominates_queries() {
        let (g, [a, b, _c, d, e]) = diamond();
        let dt = DomTree::compute(&g);
        assert!(dt.dominates(a, e));
        assert!(dt.dominates(a, a));
        assert!(!dt.dominates(b, d));
        assert!(!dt.strictly_dominates(a, a));
        assert!(dt.strictly_dominates(g.entry, e));
    }

    #[test]
    fn diamond_frontiers() {
        let (g, [a, b, c, d, _e]) = diamond();
        let dt = DomTree::compute(&g);
        assert_eq!(dt.frontier(b), &[d]);
        assert_eq!(dt.frontier(c), &[d]);
        assert!(dt.frontier(a).is_empty());
        let _ = g;
    }

    #[test]
    fn loop_shaped_graph() {
        // entry -> pre -> hdr -> body -> hdr ; hdr -> post ; pre -> post
        let mut g = Cfg::new();
        let pre = g.add_node(NodeKind::Block, None, 0);
        let hdr = g.add_node(NodeKind::Block, None, 1);
        let body = g.add_node(NodeKind::Block, None, 1);
        let post = g.add_node(NodeKind::Block, None, 0);
        g.add_edge(g.entry, pre);
        g.add_edge(pre, hdr);
        g.add_edge(hdr, body);
        g.add_edge(body, hdr);
        g.add_edge(hdr, post);
        g.add_edge(pre, post); // zero-trip edge
        g.exit = post;
        let dt = DomTree::compute(&g);
        // With the zero-trip edge, the header must NOT dominate the postexit.
        assert!(!dt.dominates(hdr, post));
        assert_eq!(dt.parent(post), Some(pre));
        // Header dominates the body.
        assert!(dt.dominates(hdr, body));
        // Frontier of body includes hdr (backedge join).
        assert!(dt.frontier(body).contains(&hdr));
    }

    #[test]
    fn unreachable_nodes_flagged() {
        let mut g = Cfg::new();
        let a = g.add_node(NodeKind::Block, None, 0);
        let orphan = g.add_node(NodeKind::Block, None, 0);
        g.add_edge(g.entry, a);
        g.exit = a;
        let dt = DomTree::compute(&g);
        assert!(dt.is_reachable(a));
        assert!(!dt.is_reachable(orphan));
    }
}
