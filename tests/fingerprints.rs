//! The structural fingerprints, pinned: `ast_fp` (the query engine's
//! early-cutoff key, DESIGN.md §14) and `ir_fp` (a key of nothing since the
//! engine stopped memoizing lowered programs; pinned so the IR's `Hash`
//! stays what it was) of the six paper kernels and the first 40 corpus
//! programs equal the committed `results/fingerprints.txt`.
//!
//! Nothing persists a fingerprint, but a change to an AST or IR type must
//! leave the file alone — it was generated *before* names became
//! `lang::Name` and shared expressions `Arc<Expr>`, and passing unedited is
//! the proof that such a representation change moved no key.
//! `GCOMM_BLESS=1 cargo test --test fingerprints` rewrites it like every
//! other golden, but accepting a diff here is a key-format change.
//!
//! The second test is why it can: a tree is held in an index arena that
//! the IR shares, and none of that is visible — the same tree rebuilt into
//! a fresh arena in a different node order is `==`, prints and hashes the
//! same, and lowers to the same IR.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use gcomm::lang::{Arena, ArrayDecl, Assign, DeclDim, DoLoop, ExprId, ExprNode, IfStmt, NameId};
use gcomm::lang::{Program, RefId, Stmt, Subscript};
use gcomm::query::{mix, Fingerprinter};

#[path = "support/pinned_sources.rs"]
mod pinned_sources;
use pinned_sources::pinned_sources;

#[test]
fn persisted_fingerprints_match_golden() {
    let mut table = String::new();
    for (label, src) in &pinned_sources() {
        let ast = gcomm::parse_program(src).expect("pinned inputs parse");
        let ir = gcomm::ir::lower(&ast).expect("pinned inputs lower");
        let _ = writeln!(
            table,
            "{label} ast_fp={:016x} ir_fp={:016x}",
            Fingerprinter::of(&ast),
            Fingerprinter::of(&ir)
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/fingerprints.txt");
    if std::env::var_os("GCOMM_BLESS").is_some() {
        std::fs::write(&path, &table).expect("write blessed golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden exists (GCOMM_BLESS=1 creates it)");
    assert_eq!(golden, table, "persisted ast_fp / ir_fp moved");
}

/// `prog` rebuilt into a fresh arena in another node order: statements
/// last to first, declarations after the body, a right operand before its
/// left, and names in the order that meets them.
fn rebuilt(prog: &Program) -> Program {
    struct Copy<'a> {
        from: &'a Arena,
        to: Arena,
    }
    impl Copy<'_> {
        fn name(&mut self, n: NameId) -> NameId {
            self.to.intern(self.from.name(n))
        }
        fn aref(&mut self, r: RefId) -> RefId {
            let r = self.from.aref(r);
            let subs: Vec<Subscript> = (self.from.subs(r).iter().rev())
                .map(|&s| match s {
                    Subscript::Index(e) => Subscript::Index(self.expr(e)),
                    Subscript::Range { lo, hi, step } => {
                        let hi = hi.map(|e| self.expr(e));
                        let lo = lo.map(|e| self.expr(e));
                        Subscript::Range { lo, hi, step }
                    }
                })
                .collect();
            let subs: Vec<Subscript> = subs.into_iter().rev().collect();
            let array = self.name(r.array);
            self.to.push_ref(array, &subs)
        }
        fn expr(&mut self, e: ExprId) -> ExprId {
            let node = match self.from.expr(e) {
                ExprNode::Ref(r) => ExprNode::Ref(self.aref(r)),
                ExprNode::Sum(r) => ExprNode::Sum(self.aref(r)),
                ExprNode::Neg(a) => ExprNode::Neg(self.expr(a)),
                ExprNode::Bin(op, a, b) => {
                    let b = self.expr(b);
                    ExprNode::Bin(op, self.expr(a), b)
                }
                leaf => leaf,
            };
            self.to.push(node)
        }
        fn stmts(&mut self, body: &[Stmt]) -> Vec<Stmt> {
            let mut out: Vec<Stmt> = (body.iter().rev())
                .map(|s| match s {
                    Stmt::Assign(a) => {
                        let rhs = self.expr(a.rhs);
                        Stmt::Assign(Assign {
                            lhs: self.aref(a.lhs),
                            rhs,
                            line: a.line,
                        })
                    }
                    Stmt::Do(d) => {
                        let body = self.stmts(&d.body);
                        let (hi, lo) = (self.expr(d.hi), self.expr(d.lo));
                        Stmt::Do(DoLoop {
                            var: self.name(d.var),
                            lo,
                            hi,
                            step: d.step,
                            body,
                        })
                    }
                    Stmt::If(i) => {
                        let else_body = self.stmts(&i.else_body);
                        let then_body = self.stmts(&i.then_body);
                        Stmt::If(IfStmt {
                            cond: self.expr(i.cond),
                            then_body,
                            else_body,
                        })
                    }
                })
                .collect();
            out.reverse();
            out
        }
    }
    let mut c = Copy {
        from: &prog.arena,
        to: Arena::default(),
    };
    let body = c.stmts(&prog.body);
    let arrays = (prog.arrays.iter())
        .map(|a| {
            let dims = (a.dims.iter())
                .map(|d| {
                    let hi = c.expr(d.hi);
                    DeclDim {
                        lo: c.expr(d.lo),
                        hi,
                    }
                })
                .collect();
            ArrayDecl {
                name: c.name(a.name),
                dims,
                dist: a.dist.clone(),
                align: a.align.clone(),
            }
        })
        .collect();
    let params = prog.params.iter().map(|&p| c.name(p)).collect();
    Program {
        name: prog.name.as_str().into(),
        params,
        arrays,
        body,
        arena: Arc::new(c.to),
    }
}

#[test]
fn sharing_is_invisible_to_eq_debug_hash_and_lowering() {
    for (label, src) in &pinned_sources() {
        let parsed = gcomm::parse_program(src).expect("pinned inputs parse");
        let by_hand = rebuilt(&parsed);
        let layout = |p: &Program| format!("{:?}", p.arena);
        assert_ne!(
            layout(&by_hand),
            layout(&parsed),
            "{label}: same node order"
        );
        assert_eq!(by_hand, parsed, "{label}: ==");
        assert_eq!(
            format!("{by_hand:?}"),
            format!("{parsed:?}"),
            "{label}: Debug"
        );
        assert_eq!(
            Fingerprinter::of(&by_hand),
            Fingerprinter::of(&parsed),
            "{label}: ast_fp"
        );
        let (a, b) = (
            gcomm::ir::lower(&by_hand).expect("lowers"),
            gcomm::ir::lower(&parsed).expect("lowers"),
        );
        assert_eq!(a, b, "{label}: lowered ==");
        assert_eq!(
            Fingerprinter::of(&a),
            Fingerprinter::of(&b),
            "{label}: ir_fp"
        );
    }
}

/// Folds `ast_fp` and `ir_fp` (0 when the tree does not lower) into
/// `digest`.
fn fold_tree(digest: u64, ast: &Program) -> u64 {
    let ir_fp = gcomm::ir::lower(ast).map_or(0, |ir| Fingerprinter::of(&ir));
    mix(mix(digest, Fingerprinter::of(ast)), ir_fp)
}

/// One digest over shapes the 46 pinned programs do not all reach: 2 000
/// generated programs, the paper's figure sources, and trees built by
/// `scalarize` and `fuse_loops` rather than by the parser. A change to how
/// an AST or IR is held must leave it as it is.
#[test]
fn broad_fingerprint_digest_is_pinned() {
    let mut digest = 0;
    let generated = (0..2_000u64).map(|i| proptest::hpf::generate(0x9c077 + i));
    let figures = [
        gcomm::kernels::FIG3_F90,
        gcomm::kernels::FIG3_SCALARIZED,
        gcomm::kernels::FIG4_RUNNING,
    ];
    for src in generated.chain(figures.iter().map(|s| s.to_string())) {
        digest = match gcomm::parse_program(&src) {
            Ok(ast) => fold_tree(digest, &ast),
            Err(_) => mix(digest, 1),
        };
    }
    for (_, _, src) in gcomm::kernels::all_kernels() {
        let ast = gcomm::parse_program(src).expect("kernels parse");
        for tree in [gcomm::lang::scalarize(&ast), gcomm::lang::fuse_loops(&ast)] {
            digest = fold_tree(digest, &tree);
        }
    }
    assert_eq!(
        digest, 0x997f_1d36_e5ae_6f97,
        "ast_fp / ir_fp moved on the broad digest"
    );
}
