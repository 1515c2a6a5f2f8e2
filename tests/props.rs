//! Property-based tests: random structured data-parallel programs must
//! compile under every strategy, produce legal schedules, and never lose to
//! the baseline in static message count.

use proptest::prelude::*;

use gcomm::compile;
use gcomm::core::AnalysisCtx;
use gcomm::ir::Pos;
use gcomm::Strategy as Opt;

/// One random stencil statement: `LHS(sect) = Σ reads(sect shifted)`.
#[derive(Debug, Clone)]
struct RandStmt {
    lhs: usize,
    reads: Vec<(usize, i64, i64)>, // (array, dx, dy) with dx, dy ∈ {-1,0,1}
    reduction: Option<usize>,
}

#[derive(Debug, Clone)]
struct RandProgram {
    arrays: usize,
    in_loop: bool,
    with_if: bool,
    stmts: Vec<RandStmt>,
}

impl RandProgram {
    /// Renders to mini-HPF source.
    fn source(&self) -> String {
        let mut s = String::from("program rnd\nparam n, nsteps\n");
        for a in 0..self.arrays {
            s.push_str(&format!("real v{a}(n,n) distribute (block, block)\n"));
        }
        s.push_str("real scal, cnd\n");
        let mut body = String::new();
        let sect = |dx: i64, dy: i64| {
            let d1 = match dx {
                -1 => "1:n-1",
                1 => "2:n",
                _ => "2:n-1",
            };
            let d2 = match dy {
                -1 => "1:n-1",
                1 => "2:n",
                _ => "2:n-1",
            };
            format!("({d1}, {d2})")
        };
        for st in &self.stmts {
            if let Some(arr) = st.reduction {
                body.push_str(&format!("scal = sum(v{arr}(1, 1:n))\n"));
                continue;
            }
            let mut rhs: Vec<String> = st
                .reads
                .iter()
                .map(|&(a, dx, dy)| format!("v{a}{}", sect(dx, dy)))
                .collect();
            if rhs.is_empty() {
                rhs.push("1.0".to_string());
            }
            body.push_str(&format!(
                "v{}{} = {}\n",
                st.lhs,
                sect(0, 0),
                rhs.join(" + ")
            ));
        }
        let body = if self.with_if {
            format!("if (cnd > 0) then\n{body}else\nscal = 0\nendif\n")
        } else {
            body
        };
        if self.in_loop {
            s.push_str(&format!("do t = 1, nsteps\n{body}enddo\n"));
        } else {
            s.push_str(&body);
        }
        s.push_str("end\n");
        s
    }
}

fn rand_program() -> impl Strategy<Value = RandProgram> {
    let stmt = (
        0usize..4,
        prop::collection::vec((0usize..4, -1i64..=1, -1i64..=1), 0..3),
    )
        .prop_map(|(lhs, reads)| RandStmt {
            lhs,
            reads,
            reduction: None,
        });
    let red = (0usize..4).prop_map(|a| RandStmt {
        lhs: 0,
        reads: vec![],
        reduction: Some(a),
    });
    let any_stmt = prop_oneof![4 => stmt, 1 => red];
    (
        prop::collection::vec(any_stmt, 1..8),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(stmts, in_loop, with_if)| RandProgram {
            arrays: 4,
            in_loop,
            with_if,
            stmts,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every random program compiles under all strategies and static counts
    /// are monotone: comb ≤ orig, nored ≤ orig.
    #[test]
    fn pipeline_counts_monotone(p in rand_program()) {
        let src = p.source();
        let orig = compile(&src, Opt::Original)
            .unwrap_or_else(|e| panic!("orig failed on\n{src}\n{e}"));
        let nored = compile(&src, Opt::EarliestRE).unwrap();
        let comb = compile(&src, Opt::Global).unwrap();
        prop_assert!(comb.static_messages() <= orig.static_messages(),
            "comb {} > orig {} on\n{src}", comb.static_messages(), orig.static_messages());
        prop_assert!(nored.static_messages() <= orig.static_messages());
    }

    /// Every placed group dominates the uses it serves, under every
    /// strategy, on random programs.
    #[test]
    fn placements_dominate_uses(p in rand_program()) {
        let src = p.source();
        for strategy in [Opt::Original, Opt::EarliestRE, Opt::Global] {
            let c = compile(&src, strategy).unwrap();
            let ctx = AnalysisCtx::new(&c.prog);
            for g in &c.schedule.groups {
                for &eid in &g.entries {
                    let e = c.schedule.entry(eid);
                    let before = Pos::before(&c.prog, e.stmt);
                    prop_assert!(g.pos.dominates(&before, &ctx.dt),
                        "{strategy:?} violates dominance for {} on\n{src}", e.label(&c.prog));
                }
            }
        }
    }

    /// Absorptions never dangle: the absorber is always itself placed.
    #[test]
    fn absorbers_are_placed(p in rand_program()) {
        let src = p.source();
        for strategy in [Opt::EarliestRE, Opt::Global] {
            let c = compile(&src, strategy).unwrap();
            for a in &c.schedule.absorptions {
                prop_assert!(
                    c.schedule.groups.iter().any(|g| g.entries.contains(&a.by)),
                    "{strategy:?}: dangling absorber on\n{src}"
                );
            }
        }
    }

    /// The compilation is deterministic: two runs agree exactly.
    #[test]
    fn compilation_is_deterministic(p in rand_program()) {
        let src = p.source();
        let a = compile(&src, Opt::Global).unwrap();
        let b = compile(&src, Opt::Global).unwrap();
        prop_assert_eq!(a.schedule, b.schedule);
    }

    /// Dynamic end-to-end check: replaying every strategy's schedule on a
    /// 2×2 grid at n = 8, every remote read observes fresh communicated
    /// data (the gcomm-exec ghost-version verifier).
    #[test]
    fn schedules_verify_dynamically(p in rand_program()) {
        let src = p.source();
        for strategy in [Opt::Original, Opt::EarliestRE, Opt::Global] {
            let c = compile(&src, strategy).unwrap();
            let grid = gcomm::machine::ProcGrid::balanced(4, 2);
            let mut params = std::collections::HashMap::new();
            params.insert("n".to_string(), 8i64);
            params.insert("nsteps".to_string(), 2i64);
            let rep = gcomm_exec::verify_schedule(&c, &grid, &params)
                .unwrap_or_else(|e| panic!("execution failed on\n{src}\n{e}"));
            prop_assert!(
                rep.ok(),
                "{strategy:?} schedule fails verification on\n{src}\nfirst: {}",
                rep.errors.first().map(|e| e.message.as_str()).unwrap_or("")
            );
        }
    }
}
