//! Property test: pretty-printing a generated AST and re-parsing it yields
//! the same tree (modulo source line numbers), and scalarization of the
//! generated programs always re-validates.

use std::sync::Arc;

use proptest::prelude::*;

use gcomm_lang::{
    parse_program, pretty::pretty, scalarize, Arena, ArrayDecl, Assign, BinOp, DeclDim, Dist,
    DoLoop, ExprId, ExprNode, IfStmt, Program, Stmt, Subscript,
};

const ARRAYS: [&str; 3] = ["aa", "bb", "cc"];

/// One step of building an expression through an arena, in postfix order:
/// a generated expression is a list of these, which [`build`] runs on a
/// stack of expressions and a stack of subscripts.
#[derive(Debug, Clone)]
enum Op {
    Int(i64),
    Num(f64),
    /// A bare name.
    Name(&'static str),
    /// Pops the right operand, then the left.
    Bin(BinOp),
    Neg,
    /// Pops an expression onto the subscript stack.
    Index,
    /// Pops `hi`, then `lo`, where present.
    Range {
        lo: bool,
        hi: bool,
        step: i64,
    },
    /// A reference taking the last two subscripts.
    Ref(&'static str),
}

fn build(arena: &mut Arena, ops: &[Op]) -> ExprId {
    let (mut exprs, mut subs) = (Vec::new(), Vec::new());
    for op in ops {
        let node = match *op {
            Op::Int(v) => ExprNode::Int(v),
            Op::Num(v) => ExprNode::Num(v),
            Op::Name(name) => {
                let name = arena.intern(name);
                exprs.push(arena.push_name_ref(name));
                continue;
            }
            Op::Bin(op) => {
                let b = exprs.pop().unwrap();
                ExprNode::Bin(op, exprs.pop().unwrap(), b)
            }
            Op::Neg => ExprNode::Neg(exprs.pop().unwrap()),
            Op::Index => {
                subs.push(Subscript::Index(exprs.pop().unwrap()));
                continue;
            }
            Op::Range { lo, hi, step } => {
                let hi = hi.then(|| exprs.pop().unwrap());
                let lo = lo.then(|| exprs.pop().unwrap());
                subs.push(Subscript::Range { lo, hi, step });
                continue;
            }
            Op::Ref(name) => {
                let array = arena.intern(name);
                let r = arena.push_ref(array, &subs[subs.len() - 2..]);
                subs.truncate(subs.len() - 2);
                ExprNode::Ref(r)
            }
        };
        exprs.push(arena.push(node));
    }
    exprs.pop().unwrap()
}

fn cat(parts: impl IntoIterator<Item = Vec<Op>>) -> Vec<Op> {
    parts.into_iter().flatten().collect()
}

fn subscript(depth: u32) -> impl Strategy<Value = Vec<Op>> {
    let idx = index_expr(depth);
    prop_oneof![
        idx.clone().prop_map(|e| cat([e, vec![Op::Index]])),
        (
            prop::option::of(idx.clone()),
            prop::option::of(idx),
            1i64..=2
        )
            .prop_map(|(lo, hi, step)| {
                let range = Op::Range {
                    lo: lo.is_some(),
                    hi: hi.is_some(),
                    step,
                };
                cat([lo.unwrap_or_default(), hi.unwrap_or_default(), vec![range]])
            }),
    ]
}

fn index_expr(depth: u32) -> BoxedStrategy<Vec<Op>> {
    // Loop variables are deliberately excluded: the generated statements
    // may land outside the loop, where `ii` would be undeclared.
    let leaf = prop_oneof![
        (1i64..5).prop_map(|v| vec![Op::Int(v)]),
        Just(vec![Op::Name("n")]),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    leaf.prop_recursive(depth, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| cat([
                a,
                b,
                vec![Op::Bin(BinOp::Add)]
            ])),
            (inner.clone(), (1i64..4))
                .prop_map(|(a, k)| cat([a, vec![Op::Int(k), Op::Bin(BinOp::Sub)]])),
        ]
    })
    .boxed()
}

/// A 2-d reference to one of the arrays.
fn aref(depth: u32) -> impl Strategy<Value = Vec<Op>> {
    (
        prop::sample::select(ARRAYS.to_vec()),
        subscript(depth),
        subscript(depth),
    )
        .prop_map(|(a, s1, s2)| cat([s1, s2, vec![Op::Ref(a)]]))
}

fn rhs_expr() -> impl Strategy<Value = Vec<Op>> {
    prop_oneof![
        (1..100i64).prop_map(|v| vec![Op::Int(v)]),
        (0.5f64..8.0).prop_map(|v| vec![Op::Num(v)]),
        aref(1),
        (aref(1), aref(1)).prop_map(|(a, b)| cat([a, b, vec![Op::Bin(BinOp::Mul)]])),
        aref(1).prop_map(|a| cat([a, vec![Op::Neg]])),
    ]
}

/// An assignment's left- and right-hand sides.
fn stmt() -> impl Strategy<Value = (Vec<Op>, Vec<Op>)> {
    (aref(0), rhs_expr())
}

fn assigns(arena: &mut Arena, stmts: &[(Vec<Op>, Vec<Op>)]) -> Vec<Stmt> {
    let assign = |arena: &mut Arena, (lhs, rhs): &(Vec<Op>, Vec<Op>)| {
        let lhs = build(arena, lhs);
        let ExprNode::Ref(lhs) = arena.expr(lhs) else {
            unreachable!("a generated left-hand side is a reference")
        };
        let rhs = build(arena, rhs);
        Stmt::Assign(Assign { lhs, rhs, line: 0 })
    };
    stmts.iter().map(|s| assign(arena, s)).collect()
}

fn program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(stmt(), 1..5),
        prop::collection::vec(stmt(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(body, loop_body, wrap)| {
            let mut arena = Arena::default();
            let mut stmts = assigns(&mut arena, &body);
            if !loop_body.is_empty() {
                let lo = arena.push(ExprNode::Int(1));
                stmts.push(Stmt::Do(DoLoop {
                    var: arena.intern("ii"),
                    lo,
                    hi: build(&mut arena, &[Op::Name("n")]),
                    step: 1,
                    body: assigns(&mut arena, &loop_body),
                }));
            }
            if wrap {
                stmts = vec![Stmt::If(IfStmt {
                    cond: build(
                        &mut arena,
                        &[Op::Name("ss"), Op::Int(0), Op::Bin(BinOp::Gt)],
                    ),
                    then_body: stmts,
                    else_body: vec![],
                })];
            }
            let dim = |arena: &mut Arena| DeclDim {
                lo: arena.push(ExprNode::Int(1)),
                hi: build(arena, &[Op::Name("n")]),
            };
            let mut arrays: Vec<ArrayDecl> = ARRAYS
                .iter()
                .map(|a| ArrayDecl {
                    name: arena.intern(a),
                    dims: vec![dim(&mut arena), dim(&mut arena)],
                    dist: vec![Dist::Block, Dist::Block],
                    align: vec![],
                })
                .collect();
            arrays.push(ArrayDecl {
                name: arena.intern("ss"),
                dims: vec![],
                dist: vec![],
                align: vec![],
            });
            Program {
                name: "gen".into(),
                params: vec![arena.intern("n")],
                arrays,
                body: stmts,
                arena: Arc::new(arena),
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
