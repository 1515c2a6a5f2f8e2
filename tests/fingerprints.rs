//! The persisted keys, pinned: `ast_fp` and `ir_fp` (`core::incr`'s
//! `query.parse` / `query.lower` outputs, DESIGN.md §14) of the six paper
//! kernels and the first 40 corpus programs equal the committed
//! `results/fingerprints.txt`.
//!
//! `gcomm-store` logs and the cluster's replicated query keys hold these
//! numbers across restarts and versions, so a change to an AST or IR type
//! must leave the file alone — it was generated *before* names became
//! `lang::Name` and shared expressions `Arc<Expr>`, and passing unedited is
//! the proof that `tests/restart.rs` and the store need no version bump.
//! `GCOMM_BLESS=1 cargo test --test fingerprints` rewrites it like every
//! other golden, but accepting a diff here means bumping the store format.
//!
//! The second test is why it can: a parsed tree shares one `Name` per
//! identifier and one `Arc<Expr>` between AST and IR, and none of that is
//! visible — the same tree rebuilt from fresh allocations is `==`, prints
//! and hashes the same, and lowers to the same IR.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use gcomm::lang::{ArrayDecl, ArrayRef, Assign, DeclDim, DoLoop, Expr, IfStmt, Name};
use gcomm::lang::{Program, Stmt, Subscript};
use gcomm::query::Fingerprinter;

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

/// `prog` as a hand-built tree: every name occurrence its own allocation,
/// every expression node copied, nothing shared with `prog` or within the
/// copy.
fn rebuilt(prog: &Program) -> Program {
    fn name(n: &Name) -> Name {
        Name::from(n.as_str())
    }
    fn aref(r: &ArrayRef) -> ArrayRef {
        ArrayRef {
            array: name(&r.array),
            subs: r.subs.iter().map(sub).collect(),
        }
    }
    fn sub(s: &Subscript) -> Subscript {
        match s {
            Subscript::Index(e) => Subscript::Index(expr(e)),
            Subscript::Range { lo, hi, step } => Subscript::Range {
                lo: lo.as_ref().map(expr),
                hi: hi.as_ref().map(expr),
                step: *step,
            },
        }
    }
    fn expr(e: &Expr) -> Expr {
        match e {
            Expr::Int(v) => Expr::Int(*v),
            Expr::Num(v) => Expr::Num(*v),
            Expr::Ref(r) => Expr::Ref(aref(r)),
            Expr::Sum(r) => Expr::Sum(aref(r)),
            Expr::Neg(a) => Expr::Neg(Box::new(expr(a))),
            Expr::Bin(op, a, b) => Expr::Bin(*op, Box::new(expr(a)), Box::new(expr(b))),
        }
    }
    fn stmts(body: &[Stmt]) -> Vec<Stmt> {
        body.iter()
            .map(|s| match s {
                Stmt::Assign(a) => Stmt::Assign(Assign {
                    lhs: aref(&a.lhs),
                    rhs: Arc::new(expr(&a.rhs)),
                    line: a.line,
                }),
                Stmt::Do(d) => Stmt::Do(DoLoop {
                    var: name(&d.var),
                    lo: expr(&d.lo),
                    hi: expr(&d.hi),
                    step: d.step,
                    body: stmts(&d.body),
                }),
                Stmt::If(i) => Stmt::If(IfStmt {
                    cond: Arc::new(expr(&i.cond)),
                    then_body: stmts(&i.then_body),
                    else_body: stmts(&i.else_body),
                }),
            })
            .collect()
    }
    Program {
        name: name(&prog.name),
        params: prog.params.iter().map(name).collect(),
        arrays: prog
            .arrays
            .iter()
            .map(|a| ArrayDecl {
                name: name(&a.name),
                dims: a
                    .dims
                    .iter()
                    .map(|d| DeclDim {
                        lo: expr(&d.lo),
                        hi: expr(&d.hi),
                    })
                    .collect(),
                dist: a.dist.clone(),
                align: a.align.clone(),
            })
            .collect(),
        body: stmts(&prog.body),
    }
}

#[test]
fn sharing_is_invisible_to_eq_debug_hash_and_lowering() {
    for (label, src) in &pinned_sources() {
        let parsed = gcomm::parse_program(src).expect("pinned inputs parse");
        let by_hand = rebuilt(&parsed);
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
    // Unequal text stays unequal whichever way it is held.
    assert_ne!(Name::from("a"), Name::from("b"));
    assert_eq!(Name::from("a"), Name::from(String::from("a")));
}
