//! Property test: pretty-printing a generated AST and re-parsing it yields
//! the same tree (modulo source line numbers), and scalarization of the
//! generated programs always re-validates.

use proptest::prelude::*;

use gcomm_lang::{
    parse_program, pretty::pretty, scalarize, ArrayRef, Assign, BinOp, DeclDim, Dist, DoLoop, Expr,
    IfStmt, Program, Stmt, Subscript,
};

const ARRAYS: [&str; 3] = ["aa", "bb", "cc"];

fn subscript(depth: u32) -> impl Strategy<Value = Subscript> {
    let idx = index_expr(depth);
    prop_oneof![
        idx.clone().prop_map(Subscript::Index),
        (
            prop::option::of(idx.clone()),
            prop::option::of(idx),
            1i64..=2
        )
            .prop_map(|(lo, hi, step)| Subscript::Range { lo, hi, step }),
    ]
}

fn index_expr(depth: u32) -> BoxedStrategy<Expr> {
    // Loop variables are deliberately excluded: the generated statements
    // may land outside the loop, where `ii` would be undeclared.
    let leaf = prop_oneof![(1i64..5).prop_map(Expr::Int), Just(Expr::name("n")),];
    if depth == 0 {
        return leaf.boxed();
    }
    leaf.prop_recursive(depth, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Bin(
                BinOp::Add,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), (1i64..4)).prop_map(|(a, k)| Expr::Bin(
                BinOp::Sub,
                Box::new(a),
                Box::new(Expr::Int(k))
            )),
        ]
    })
    .boxed()
}

fn rhs_expr() -> impl Strategy<Value = Expr> {
    let aref = || {
        (
            prop::sample::select(ARRAYS.to_vec()),
            subscript(1),
            subscript(1),
        )
            .prop_map(|(a, s1, s2)| {
                Expr::Ref(ArrayRef {
                    array: a.into(),
                    subs: vec![s1, s2],
                })
            })
    };
    prop_oneof![
        (1..100i64).prop_map(Expr::Int),
        (0.5f64..8.0).prop_map(Expr::Num),
        aref(),
        (aref(), aref()).prop_map(|(a, b)| Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b))),
        aref().prop_map(|a| Expr::Neg(Box::new(a))),
    ]
}

fn stmt() -> impl Strategy<Value = Stmt> {
    (
        prop::sample::select(ARRAYS.to_vec()),
        subscript(0),
        subscript(0),
        rhs_expr(),
    )
        .prop_map(|(a, s1, s2, rhs)| {
            Stmt::Assign(Assign {
                lhs: ArrayRef {
                    array: a.into(),
                    subs: vec![s1, s2],
                },
                rhs: rhs.into(),
                line: 0,
            })
        })
}

fn program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(stmt(), 1..5),
        prop::collection::vec(stmt(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(body, loop_body, wrap)| {
            let mut stmts = body;
            if !loop_body.is_empty() {
                stmts.push(Stmt::Do(DoLoop {
                    var: "ii".into(),
                    lo: Expr::Int(1),
                    hi: Expr::name("n"),
                    step: 1,
                    body: loop_body,
                }));
            }
            if wrap {
                stmts = vec![Stmt::If(IfStmt {
                    cond: Expr::Bin(
                        BinOp::Gt,
                        Box::new(Expr::name("ss")),
                        Box::new(Expr::Int(0)),
                    )
                    .into(),
                    then_body: stmts,
                    else_body: vec![],
                })];
            }
            Program {
                name: "gen".into(),
                params: vec!["n".into()],
                arrays: ARRAYS
                    .iter()
                    .map(|a| gcomm_lang::ArrayDecl {
                        name: (*a).into(),
                        dims: vec![
                            DeclDim::extent(Expr::name("n")),
                            DeclDim::extent(Expr::name("n")),
                        ],
                        dist: vec![Dist::Block, Dist::Block],
                        align: vec![],
                    })
                    .chain(std::iter::once(gcomm_lang::ArrayDecl {
                        name: "ss".into(),
                        dims: vec![],
                        dist: vec![],
                        align: vec![],
                    }))
                    .collect(),
                body: stmts,
            }
        })
}

fn strip_lines(p: &mut Program) {
    fn walk(stmts: &mut [Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign(a) => a.line = 0,
                Stmt::Do(d) => walk(&mut d.body),
                Stmt::If(i) => {
                    walk(&mut i.then_body);
                    walk(&mut i.else_body);
                }
            }
        }
    }
    walk(&mut p.body);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse(pretty(ast)) == ast, modulo line numbers. Generated indices
    /// may be out of bounds at runtime — irrelevant for the syntax layer.
    #[test]
    fn pretty_parse_roundtrip(p in program()) {
        let text = pretty(&p);
        let mut parsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("pretty output failed to parse: {e}\n{text}"));
        let mut orig = p.clone();
        strip_lines(&mut parsed);
        strip_lines(&mut orig);
        prop_assert_eq!(parsed, orig, "round-trip mismatch for\n{}", text);
    }

    /// Scalarization output always re-validates and re-parses.
    #[test]
    fn scalarize_output_valid(p in program()) {
        let s = scalarize(&p);
        gcomm_lang::validate::validate(&s)
            .unwrap_or_else(|e| panic!("scalarized program invalid: {e}\n{}", pretty(&s)));
        let text = pretty(&s);
        parse_program(&text).unwrap();
    }
}
