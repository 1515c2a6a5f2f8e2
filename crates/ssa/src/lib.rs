//! # gcomm-ssa — whole-array SSA form
//!
//! SSA construction in the flavour required by §4.1 of *Global Communication
//! Analysis and Optimization* (PLDI 1996):
//!
//! * variables are **whole arrays** (and scalars); subscripts are ignored at
//!   this level,
//! * every regular (source) definition is **preserving** — it may leave part
//!   of the array untouched — so each definition records the definition
//!   reaching immediately before it (`Reaching(d)` in the paper),
//! * a **pseudo-definition at ENTRY** exists for every variable, which
//!   "simplifies dataflow analyses" (Fig. 8 caption),
//! * φ-definitions appear at loop **headers** (φ-Enter, with an `r_pre`
//!   parameter reaching from outside the loop and an `r_post` parameter
//!   reaching around the backedge), at loop **postexits** (φ-Exit, merging
//!   the zero-trip edge with the loop-exit edge), and at ordinary **join**
//!   points.
//!
//! Because the augmented CFG already contains preheader/postexit nodes and
//! zero-trip edges, placing φs on iterated dominance frontiers yields exactly
//! the φ-Enter/φ-Exit structure the paper describes — no special casing.
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
//! let ssa = gcomm_ssa::SsaForm::build(&ir);
//! // The read of `a` in the loop reaches a phi-Enter at the loop header.
//! let d = ssa.use_def(gcomm_ir::StmtId(0), 0).unwrap();
//! assert!(matches!(ssa.def(d).kind, gcomm_ssa::DefKind::PhiEnter { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use gcomm_ir::{ArrayId, DomTree, IrProgram, LoopId, NodeId, NodeKind, Pos, StmtId};

/// Identifier of an SSA definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefId(pub u32);

/// The kind of an SSA definition.
#[derive(Debug, Clone, PartialEq)]
pub enum DefKind {
    /// Pseudo-definition at procedure entry (one per variable).
    Entry,
    /// A source definition; **preserving** (partial write). `prev` is the
    /// definition reaching immediately before it (the paper's
    /// `Reaching(d)`).
    Regular {
        /// The defining statement.
        stmt: StmtId,
        /// Definition reaching just before this one.
        prev: DefId,
    },
    /// φ-Enter at a loop header.
    PhiEnter {
        /// The loop whose header carries this φ.
        in_loop: LoopId,
        /// Parameter reaching from outside the loop (via the preheader).
        r_pre: DefId,
        /// Parameter reaching around the backedge.
        r_post: DefId,
    },
    /// φ-Exit at a loop postexit (merges zero-trip and loop-exit values).
    PhiExit {
        /// The loop whose postexit carries this φ.
        of_loop: LoopId,
        /// Incoming definitions, one per predecessor edge.
        args: Vec<DefId>,
    },
    /// φ at an ordinary join point.
    PhiMerge {
        /// Incoming definitions, one per predecessor edge.
        args: Vec<DefId>,
    },
}

impl DefKind {
    /// True for any φ-definition.
    pub fn is_phi(&self) -> bool {
        matches!(
            self,
            DefKind::PhiEnter { .. } | DefKind::PhiExit { .. } | DefKind::PhiMerge { .. }
        )
    }

    /// The φ parameters (none for non-φ definitions): a φ-Enter's inline
    /// pair or the stored argument list, without copying either.
    pub fn phi_args(&self) -> impl Iterator<Item = DefId> + '_ {
        let (pair, list): (Option<[DefId; 2]>, &[DefId]) = match self {
            DefKind::PhiEnter { r_pre, r_post, .. } => (Some([*r_pre, *r_post]), &[]),
            DefKind::PhiExit { args, .. } | DefKind::PhiMerge { args } => (None, args),
            _ => (None, &[]),
        };
        pair.into_iter().flatten().chain(list.iter().copied())
    }
}

/// An SSA definition of one (whole-array) variable.
#[derive(Debug, Clone, PartialEq)]
pub struct DefInfo {
    /// The defined variable.
    pub var: ArrayId,
    /// Kind and parameters.
    pub kind: DefKind,
    /// CFG node holding the definition.
    pub node: NodeId,
    /// The definition reaching immediately before this one in dominator
    /// order (`None` only for the ENTRY pseudo-definition). For regular
    /// defs this equals `prev`; for φs it is the value on the renaming
    /// stack when the φ was created. This is the upward chain walked by the
    /// `Earliest` traversal.
    pub dom_prev: Option<DefId>,
    /// Nesting level of `node`.
    pub level: u32,
}

/// SSA form of a program: definitions plus use→def and def-position
/// tables, all indexed by the IR's dense ids.
#[derive(Debug, Clone)]
pub struct SsaForm {
    defs: Vec<DefInfo>,
    /// Reaching definition of read `i` of statement `s`, at
    /// `read_base[s] + i`; [`UNREACHED`] where the renaming walk never came
    /// (a statement in a node the entry does not reach).
    use_defs: Vec<DefId>,
    /// Per statement, where its reads start in `use_defs`; one past-the-end
    /// entry closes the last statement.
    read_base: Vec<u32>,
    /// φ definitions by node, in creation order: those of node `n` are
    /// `phis[phi_base[n]..phi_base[n + 1]]`.
    phis: Vec<DefId>,
    phi_base: Vec<u32>,
}

/// Placeholder for a φ argument or use not (yet) filled in.
const UNREACHED: DefId = DefId(u32::MAX);

impl SsaForm {
    /// Builds SSA form for `prog` (dominators are computed internally).
    pub fn build(prog: &IrProgram) -> SsaForm {
        let dt = DomTree::compute(&prog.cfg);
        Self::build_with(prog, &dt)
    }

    /// Builds SSA form using a precomputed dominator tree.
    pub fn build_with(prog: &IrProgram, dt: &DomTree) -> SsaForm {
        let form = Builder::new(prog, dt).run();
        gcomm_obs::count("ssa.defs", form.defs.len() as u64);
        form
    }

    /// Definition info by id.
    #[inline]
    pub fn def(&self, d: DefId) -> &DefInfo {
        &self.defs[d.0 as usize]
    }

    /// Number of definitions.
    pub fn def_count(&self) -> usize {
        self.defs.len()
    }

    /// The definition reaching read `idx` of statement `s`.
    pub fn use_def(&self, s: StmtId, idx: usize) -> Option<DefId> {
        let d = self.use_defs[self.use_slot(s, idx)?];
        (d != UNREACHED).then_some(d)
    }

    /// The dense index of read `idx` of statement `s` among all the
    /// program's reads (statement order, then read order): what per-use
    /// tables are indexed by. `None` when there is no such read.
    #[inline]
    pub fn use_slot(&self, s: StmtId, idx: usize) -> Option<usize> {
        let i = s.0 as usize;
        let (&base, &end) = (self.read_base.get(i)?, self.read_base.get(i + 1)?);
        let slot = base as usize + idx;
        (slot < end as usize).then_some(slot)
    }

    /// Number of use slots (reads in the program).
    pub fn use_count(&self) -> usize {
        self.use_defs.len()
    }

    /// φ definitions at a node.
    pub fn phis_at(&self, node: NodeId) -> &[DefId] {
        let n = node.0 as usize;
        match (self.phi_base.get(n), self.phi_base.get(n + 1)) {
            (Some(&lo), Some(&hi)) => &self.phis[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The program position of a definition: ENTRY and φs sit at the top of
    /// their node, regular defs immediately after their statement.
    pub fn def_pos(&self, prog: &IrProgram, d: DefId) -> Pos {
        let info = self.def(d);
        match &info.kind {
            DefKind::Regular { stmt, .. } => Pos::after(prog, *stmt),
            _ => Pos::top(info.node),
        }
    }

    /// Walks the upward (dominator-order) chain of definitions starting at
    /// `d` and ending at the ENTRY pseudo-definition, inclusive.
    pub fn dom_chain(&self, d: DefId) -> Vec<DefId> {
        let mut out = vec![d];
        let mut cur = d;
        while let Some(p) = self.def(cur).dom_prev {
            out.push(p);
            cur = p;
        }
        out
    }

    /// All regular reaching definitions of a use, ascending, into `out`:
    /// found by walking the SSA graph from the use's reaching definition
    /// through φs (each definition explored once). This is the set "d
    /// ranges over the reaching regular defs of u" in §4.2 — the ENTRY
    /// pseudo-def is excluded. `walk` is scratch space; a warm one makes
    /// the walk allocation-free.
    pub fn reaching_regular_defs(
        &self,
        s: StmtId,
        idx: usize,
        walk: &mut DefWalk,
        out: &mut Vec<DefId>,
    ) {
        out.clear();
        walk.clear();
        let Some(start) = self.use_def(s, idx) else {
            return;
        };
        let mut stack = std::mem::take(&mut walk.stack);
        stack.push(start);
        while let Some(d) = stack.pop() {
            if !walk.visit(d) {
                continue;
            }
            match &self.def(d).kind {
                DefKind::Entry => {}
                DefKind::Regular { prev, .. } => {
                    out.push(d);
                    // Preserving def: earlier values may still be visible.
                    stack.push(*prev);
                }
                DefKind::PhiEnter { r_pre, r_post, .. } => stack.extend([*r_pre, *r_post]),
                DefKind::PhiExit { args, .. } | DefKind::PhiMerge { args } => {
                    stack.extend_from_slice(args)
                }
            }
        }
        walk.stack = stack;
        out.sort_unstable();
    }
}

/// Scratch space for walks over the SSA graph, kept across walks so that a
/// warm one allocates nothing: a visited set over [`DefId`]s — a bitset,
/// since the ids are dense, cleared in time proportional to what was
/// marked — and a work stack.
#[derive(Debug, Clone, Default)]
pub struct DefWalk {
    words: Vec<u64>,
    /// Indices of the words of `words` that may be non-zero.
    dirty: Vec<u32>,
    stack: Vec<DefId>,
}

impl DefWalk {
    /// Marks `d` visited; false when it already was.
    #[inline]
    pub fn visit(&mut self, d: DefId) -> bool {
        let (w, bit) = (d.0 as usize / 64, 1u64 << (d.0 % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.dirty.push(w as u32);
        }
        *word |= bit;
        true
    }

    /// Unmarks every definition.
    pub fn clear(&mut self) {
        for w in self.dirty.drain(..) {
            self.words[w as usize] = 0;
        }
    }
}

struct Builder<'a> {
    prog: &'a IrProgram,
    dt: &'a DomTree,
    defs: Vec<DefInfo>,
    use_defs: Vec<DefId>,
    read_base: Vec<u32>,
    /// φ definitions by node, as in [`SsaForm`]; filled once every φ is
    /// placed, before renaming.
    phis: Vec<DefId>,
    phi_base: Vec<u32>,
    /// The renaming stacks of every array in one: each element is a
    /// definition and the index of the element below it on its array's
    /// stack ([`NO_TOP`] at the bottom).
    rename: Vec<(DefId, u32)>,
    /// Per array, the index in `rename` of its stack's top, or [`NO_TOP`].
    top: Vec<u32>,
}

/// An empty renaming stack.
const NO_TOP: u32 = u32::MAX;

impl<'a> Builder<'a> {
    fn new(prog: &'a IrProgram, dt: &'a DomTree) -> Self {
        let mut read_base = Vec::with_capacity(prog.stmts.len() + 1);
        let mut reads = 0u32;
        for s in &prog.stmts {
            read_base.push(reads);
            reads += s.kind.reads().len() as u32;
        }
        read_base.push(reads);
        Builder {
            prog,
            dt,
            defs: Vec::new(),
            use_defs: vec![UNREACHED; reads as usize],
            read_base,
            phis: Vec::new(),
            phi_base: Vec::new(),
            rename: Vec::new(),
            top: vec![NO_TOP; prog.arrays.len()],
        }
    }

    fn add_def(
        &mut self,
        var: ArrayId,
        kind: DefKind,
        node: NodeId,
        dom_prev: Option<DefId>,
    ) -> DefId {
        let id = DefId(self.defs.len() as u32);
        self.defs.push(DefInfo {
            var,
            kind,
            node,
            dom_prev,
            level: self.prog.cfg.node(node).level,
        });
        id
    }

    fn run(mut self) -> SsaForm {
        let prog = self.prog;
        let nvars = prog.arrays.len();

        // Every assignment as (array, statement order, node), grouped by
        // array below: the def-node seeds of φ placement.
        let mut seeds: Vec<(u32, u32, NodeId)> = prog
            .stmts
            .iter()
            .enumerate()
            .filter_map(|(i, info)| Some((info.kind.def()?.array.0, i as u32, info.node)))
            .collect();
        seeds.sort_unstable();
        self.defs.reserve(nvars + seeds.len());

        // 1. ENTRY pseudo-defs: the one of array `v` is `DefId(v)`.
        for v in 0..nvars {
            self.add_def(ArrayId(v as u32), DefKind::Entry, prog.cfg.entry, None);
        }

        // 2. φ placement via iterated dominance frontiers. Every variable has
        // a def at ENTRY, so the def-node seed per variable is {entry} ∪
        // {nodes with assignments to it}, in program order.
        let mut has_phi: Vec<bool> = vec![false; prog.cfg.len()];
        let mut work: Vec<NodeId> = Vec::new();
        let mut rest = &seeds[..];
        for v in 0..nvars {
            let var = ArrayId(v as u32);
            let n_v = rest.iter().take_while(|s| s.0 == var.0).count();
            work.clear();
            work.push(prog.cfg.entry);
            for &(_, _, node) in &rest[..n_v] {
                if !work.contains(&node) {
                    work.push(node);
                }
            }
            rest = &rest[n_v..];
            has_phi.fill(false);
            while let Some(n) = work.pop() {
                for &f in self.dt.frontier(n) {
                    if !has_phi[f.0 as usize] {
                        has_phi[f.0 as usize] = true;
                        // Kind is determined at fill time; placeholder now.
                        let kind = match prog.cfg.node(f).kind {
                            NodeKind::Header(l) => DefKind::PhiEnter {
                                in_loop: l,
                                r_pre: UNREACHED,
                                r_post: UNREACHED,
                            },
                            NodeKind::PostExit(l) => DefKind::PhiExit {
                                of_loop: l,
                                args: Vec::new(),
                            },
                            _ => DefKind::PhiMerge { args: Vec::new() },
                        };
                        self.add_def(var, kind, f, None);
                        work.push(f);
                    }
                }
            }
        }
        self.index_phis(nvars);
        self.defs.reserve_exact(seeds.len());

        // 3. Renaming over the dominator tree (iterative), which also fills
        // the φ argument lists in predecessor order.
        self.rename.reserve(nvars + seeds.len());
        for v in 0..nvars {
            self.push(ArrayId(v as u32), DefId(v as u32));
        }
        self.rename(prog.cfg.entry);

        // Drop unfilled placeholder args (unreachable predecessor edges).
        for d in &mut self.defs {
            if let DefKind::PhiExit { args, .. } | DefKind::PhiMerge { args } = &mut d.kind {
                args.retain(|&a| a != UNREACHED);
            }
        }

        SsaForm {
            defs: self.defs,
            use_defs: self.use_defs,
            read_base: self.read_base,
            phis: self.phis,
            phi_base: self.phi_base,
        }
    }

    /// Buckets the φ definitions (every definition from `first` on) by
    /// node, keeping creation order within a node.
    fn index_phis(&mut self, first: usize) {
        let nodes = self.prog.cfg.len();
        // `phi_base[n + 1]` counts node `n`'s φs, then prefix sums make it
        // the end of its range; filling back to front walks each end down
        // to the start.
        let mut base = vec![0u32; nodes + 1];
        for d in &self.defs[first..] {
            base[d.node.0 as usize + 1] += 1;
        }
        for n in 0..nodes {
            base[n + 1] += base[n];
        }
        let mut phis = vec![UNREACHED; self.defs.len() - first];
        for (i, d) in self.defs.iter().enumerate().skip(first).rev() {
            let end = &mut base[d.node.0 as usize + 1];
            *end -= 1;
            phis[*end as usize] = DefId(i as u32);
        }
        // Each end now sits at its node's start: shift to `phi_base` form.
        base.copy_within(1.., 0);
        base[nodes] = phis.len() as u32;
        self.phis = phis;
        self.phi_base = base;
    }

    fn push(&mut self, var: ArrayId, d: DefId) {
        let top = &mut self.top[var.0 as usize];
        self.rename.push((d, *top));
        *top = (self.rename.len() - 1) as u32;
    }

    fn pop(&mut self, var: ArrayId) {
        // Pushes and pops nest, so the last push is `var`'s top.
        let Some((_, below)) = self.rename.pop() else {
            return;
        };
        debug_assert_eq!(self.top[var.0 as usize] as usize, self.rename.len());
        self.top[var.0 as usize] = below;
    }

    /// Current top-of-stack definition for `var`, falling back to the
    /// array's entry definition if the rename stack was over-popped (an
    /// internal inconsistency that must not abort compilation).
    fn top_def(&self, var: ArrayId) -> DefId {
        match self.top[var.0 as usize] {
            NO_TOP => DefId(var.0),
            i => self.rename[i as usize].0,
        }
    }

    /// Sets the argument `incoming` of `phi` along the edge from `pred`.
    fn fill_phi_arg(&mut self, phi: DefId, pred: NodeId, incoming: DefId) {
        let prog = self.prog;
        let node = self.defs[phi.0 as usize].node;
        let preds = &prog.cfg.node(node).preds;
        match &mut self.defs[phi.0 as usize].kind {
            DefKind::PhiEnter {
                in_loop,
                r_pre,
                r_post,
            } => {
                // The preheader predecessor supplies r_pre; the backedge
                // (a node inside the loop) supplies r_post.
                let li = prog.loop_info(*in_loop);
                if pred == li.preheader {
                    *r_pre = incoming;
                } else {
                    *r_post = incoming;
                }
            }
            DefKind::PhiExit { args, .. } | DefKind::PhiMerge { args } => {
                let pred_idx = preds.iter().position(|&p| p == pred).unwrap_or(0);
                if args.len() < preds.len() {
                    args.resize(preds.len(), UNREACHED);
                }
                args[pred_idx] = incoming;
            }
            // A non-phi def can only land here through an internal
            // bookkeeping bug; dropping the argument degrades the SSA
            // form instead of aborting the compiler.
            _ => {}
        }
    }

    fn rename(&mut self, root: NodeId) {
        // Iterative DFS over the dominator tree. Every push onto a rename
        // stack schedules its own undo on the spot: the node's children go
        // on the (LIFO) work stack after them, so are processed before them.
        enum Action {
            Visit(NodeId),
            Pop(ArrayId),
        }
        let mut stack = vec![Action::Visit(root)];
        while let Some(action) = stack.pop() {
            match action {
                Action::Pop(var) => self.pop(var),
                Action::Visit(n) => {
                    // φ defs at the top of the node.
                    let (lo, hi) = (self.phi_base[n.0 as usize], self.phi_base[n.0 as usize + 1]);
                    for i in lo as usize..hi as usize {
                        let phi = self.phis[i];
                        let var = self.defs[phi.0 as usize].var;
                        let top = self.top_def(var);
                        self.defs[phi.0 as usize].dom_prev = Some(top);
                        self.push(var, phi);
                        stack.push(Action::Pop(var));
                    }

                    // Statements: reads first, then the def.
                    let prog = self.prog;
                    for &sid in &prog.cfg.node(n).stmts {
                        let info = prog.stmt(sid);
                        let base = self.read_base[sid.0 as usize] as usize;
                        for (i, read) in info.kind.reads().iter().enumerate() {
                            self.use_defs[base + i] = self.top_def(read.access.array);
                        }
                        if let Some(lhs) = info.kind.def() {
                            let var = lhs.array;
                            let prev = self.top_def(var);
                            let d = self.add_def(
                                var,
                                DefKind::Regular { stmt: sid, prev },
                                n,
                                Some(prev),
                            );
                            self.push(var, d);
                            stack.push(Action::Pop(var));
                        }
                    }

                    // Feed φ args of CFG successors.
                    for &succ in &prog.cfg.node(n).succs {
                        let (lo, hi) = (
                            self.phi_base[succ.0 as usize],
                            self.phi_base[succ.0 as usize + 1],
                        );
                        for i in lo as usize..hi as usize {
                            let phi = self.phis[i];
                            let var = self.defs[phi.0 as usize].var;
                            self.fill_phi_arg(phi, n, self.top_def(var));
                        }
                    }

                    for &c in self.dt.children(n) {
                        stack.push(Action::Visit(c));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> (IrProgram, SsaForm) {
        let ast = gcomm_lang::parse_program(src).unwrap();
        let ir = gcomm_ir::lower(&ast).unwrap();
        let ssa = SsaForm::build(&ir);
        (ir, ssa)
    }

    #[test]
    fn straightline_use_reaches_regular_def() {
        let (ir, ssa) = build(
            "
program t
param n
real a(n), b(n) distribute (block)
a(1:n) = 1
b(2:n) = a(1:n-1)
end",
        );
        let d = ssa.use_def(StmtId(1), 0).unwrap();
        match &ssa.def(d).kind {
            DefKind::Regular { stmt, prev } => {
                assert_eq!(*stmt, StmtId(0));
                // prev of the def is the ENTRY pseudo-def.
                assert!(matches!(ssa.def(*prev).kind, DefKind::Entry));
            }
            other => panic!("expected regular def, got {other:?}"),
        }
        let _ = ir;
    }

    #[test]
    fn loop_carried_use_reaches_phi_enter() {
        let (ir, ssa) = build(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let d = ssa.use_def(StmtId(0), 0).unwrap();
        match &ssa.def(d).kind {
            DefKind::PhiEnter { r_pre, r_post, .. } => {
                assert!(matches!(ssa.def(*r_pre).kind, DefKind::Entry));
                match &ssa.def(*r_post).kind {
                    DefKind::Regular { stmt, .. } => assert_eq!(*stmt, StmtId(0)),
                    other => panic!("r_post should be the loop def, got {other:?}"),
                }
            }
            other => panic!("expected phi-enter, got {other:?}"),
        }
        // The phi must sit at the loop header.
        assert_eq!(ssa.def(d).node, ir.loop_info(LoopId(0)).header);
    }

    #[test]
    fn post_loop_use_reaches_phi_exit() {
        let (ir, ssa) = build(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = 0
enddo
b(:, :) = a(:, :)
end",
        );
        let d = ssa.use_def(StmtId(1), 0).unwrap();
        match &ssa.def(d).kind {
            DefKind::PhiExit { args, .. } => {
                assert_eq!(args.len(), 2, "zero-trip + loop-exit values");
            }
            other => panic!("expected phi-exit, got {other:?}"),
        }
        assert_eq!(ssa.def(d).node, ir.loop_info(LoopId(0)).postexit);
    }

    #[test]
    fn branch_merge_creates_phi() {
        let (_, ssa) = build(
            "
program t
param n
real a(n,n), d(n,n), c(n,n) distribute (block,block)
real cond
if (cond > 0) then
  a(:, :) = 3
else
  a(:, :) = d(:, :)
endif
c(:, :) = a(:, :)
end",
        );
        // Statement ids: 0 = cond, 1 = then-assign, 2 = else-assign, 3 = use.
        let d = ssa.use_def(StmtId(3), 0).unwrap();
        match &ssa.def(d).kind {
            DefKind::PhiMerge { args } => {
                assert_eq!(args.len(), 2);
                for a in args {
                    assert!(matches!(ssa.def(*a).kind, DefKind::Regular { .. }));
                }
            }
            other => panic!("expected merge phi, got {other:?}"),
        }
    }

    #[test]
    fn dom_chain_terminates_at_entry() {
        let (_, ssa) = build(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let u = ssa.use_def(StmtId(0), 0).unwrap();
        let chain = ssa.dom_chain(u);
        assert!(matches!(
            ssa.def(*chain.last().unwrap()).kind,
            DefKind::Entry
        ));
        // Chain is strictly upward: ids decrease in dominator depth order is
        // not guaranteed, but it must be acyclic and terminate.
        assert!(chain.len() >= 2);
    }

    #[test]
    fn reaching_regular_defs_through_phis() {
        let (_, ssa) = build(
            "
program t
param n
real a(n,n), d(n,n), c(n,n) distribute (block,block)
real cond
if (cond > 0) then
  a(:, :) = 3
else
  a(:, :) = d(:, :)
endif
c(:, :) = a(:, :)
end",
        );
        let (mut walk, mut defs) = (DefWalk::default(), Vec::new());
        ssa.reaching_regular_defs(StmtId(3), 0, &mut walk, &mut defs);
        // Both branch assignments reach the use.
        assert_eq!(defs.len(), 2);
        // A reused scratch gives the same answer.
        let again = defs.clone();
        ssa.reaching_regular_defs(StmtId(3), 0, &mut walk, &mut defs);
        assert_eq!(defs, again);
    }

    #[test]
    fn unassigned_variable_reaches_entry() {
        let (_, ssa) = build(
            "
program t
param n
real a(n), b(n) distribute (block)
b(1:n) = a(1:n)
end",
        );
        let d = ssa.use_def(StmtId(0), 0).unwrap();
        assert!(matches!(ssa.def(d).kind, DefKind::Entry));
        let mut defs = vec![d];
        ssa.reaching_regular_defs(StmtId(0), 0, &mut DefWalk::default(), &mut defs);
        assert!(defs.is_empty());
    }

    #[test]
    fn def_walk_marks_once_and_clears() {
        let mut w = DefWalk::default();
        assert!(w.visit(DefId(3)) && w.visit(DefId(200)));
        assert!(!w.visit(DefId(3)) && !w.visit(DefId(200)));
        w.clear();
        assert!(w.visit(DefId(200)) && w.visit(DefId(64)) && !w.visit(DefId(64)));
    }

    #[test]
    fn use_slots_are_dense_in_statement_then_read_order() {
        let (ir, ssa) = build(
            "
program t
param n
real a(n), b(n), c(n) distribute (block)
a(1:n) = b(1:n)
c(2:n) = a(1:n-1) + b(2:n)
end",
        );
        assert_eq!(ssa.use_count(), 3);
        assert_eq!(ssa.use_slot(StmtId(0), 0), Some(0));
        assert_eq!(ssa.use_slot(StmtId(1), 1), Some(2));
        assert_eq!(ssa.use_slot(StmtId(1), 2), None);
        assert_eq!(ssa.use_slot(StmtId(2), 0), None);
        let _ = ir;
    }

    #[test]
    fn nested_loops_have_phis_at_both_headers() {
        let (ir, ssa) = build(
            "
program t
param n
real a(n,n) distribute (block,block)
do t1 = 1, 10
  do i = 2, n
    a(i, 1:n) = a(i-1, 1:n)
  enddo
enddo
end",
        );
        let outer = ir.loop_info(LoopId(0));
        let inner = ir.loop_info(LoopId(1));
        assert_eq!(ssa.phis_at(outer.header).len(), 1);
        assert_eq!(ssa.phis_at(inner.header).len(), 1);
        assert_eq!(ssa.phis_at(inner.postexit).len(), 1);
        assert_eq!(ssa.phis_at(outer.postexit).len(), 1);
        // The inner phi's r_pre comes from the outer phi (through the
        // preheader), and its r_post from the loop body def.
        let inner_phi = ssa.phis_at(inner.header)[0];
        match &ssa.def(inner_phi).kind {
            DefKind::PhiEnter { r_pre, r_post, .. } => {
                assert!(ssa.def(*r_pre).kind.is_phi());
                assert!(matches!(ssa.def(*r_post).kind, DefKind::Regular { .. }));
            }
            other => panic!("expected phi-enter, got {other:?}"),
        }
    }
}
