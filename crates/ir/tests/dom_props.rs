//! Property tests for the dominator computation: the iterative
//! Cooper–Harvey–Kennedy result must agree with a brute-force reference
//! (path enumeration) on random structured CFGs built from the lowering of
//! random programs — the same graphs the placement analyses run on.
//!
//! Also here: the parent-walking loop-nest queries (`cnl`,
//! `cnl_node_stmt`, `enclosing_loop_at_level`) must equal their chain-zip
//! definitions.

use proptest::prelude::*;

use gcomm_ir::{DomTree, IrProgram, LoopId, NodeId, StmtId};

/// Brute-force dominance: `a` dominates `b` iff removing `a` disconnects
/// `b` from the entry (or `a == b`).
fn dominates_ref(prog: &IrProgram, a: NodeId, b: NodeId) -> bool {
    if a == b {
        return true;
    }
    // BFS from entry avoiding `a`.
    let mut seen = vec![false; prog.cfg.len()];
    let mut queue = vec![prog.cfg.entry];
    if prog.cfg.entry == a {
        return true; // entry dominates everything reachable
    }
    seen[prog.cfg.entry.0 as usize] = true;
    while let Some(n) = queue.pop() {
        for &s in &prog.cfg.node(n).succs {
            if s == a || seen[s.0 as usize] {
                continue;
            }
            seen[s.0 as usize] = true;
            queue.push(s);
        }
    }
    !seen[b.0 as usize]
}

/// Random structured program source (loops + branches over a few arrays).
fn program_src() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("v0(2:n, 1:n) = v1(1:n-1, 1:n)\n".to_string()),
        Just("v1(1:n, 1:n) = v0(1:n, 1:n)\n".to_string()),
        Just("do i = 2, n\n  v0(i, 1:n) = v1(i-1, 1:n)\nenddo\n".to_string()),
        Just("if (s > 0) then\n  v0(1:n, 1:n) = 1\nelse\n  v1(1:n, 1:n) = 2\nendif\n".to_string()),
        Just("do i = 1, n\n  if (s > 0) then\n    v1(i, 1:n) = 0\n  endif\nenddo\n".to_string()),
        Just(
            "do i = 1, n\n  do j = 1, n, 2\n    v0(i, j) = v1(i, j)\n  enddo\nenddo\n".to_string()
        ),
        // Sibling nests of different depth under one loop, with a
        // statement between them.
        Just(
            "do t = 1, 4\n  do i = 1, n\n    do j = 1, n\n      v0(i, j) = v1(i, j)\n    enddo\n  \
             enddo\n  s = 1\n  do i = 2, n\n    v1(i, 1:n) = v0(i-1, 1:n)\n  enddo\nenddo\n"
                .to_string()
        ),
    ];
    prop::collection::vec(piece, 1..6).prop_map(|pieces| {
        format!(
            "program r\nparam n\nreal v0(n,n), v1(n,n) distribute (block, block)\nreal s\n{}end\n",
            pieces.concat()
        )
    })
}

/// The chain of loops from the outermost down to `inner`: what the
/// loop-nest queries are defined over (and were once computed from).
fn loop_chain(prog: &IrProgram, inner: Option<LoopId>) -> Vec<LoopId> {
    let mut chain = Vec::new();
    let mut cur = inner;
    while let Some(l) = cur {
        chain.push(l);
        cur = prog.loop_info(l).parent;
    }
    chain.reverse();
    chain
}

/// Length of the common prefix of two loop chains: the definition of `CNL`.
fn common_prefix(a: &[LoopId], b: &[LoopId]) -> u32 {
    a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32
}

/// Checks the parent-walking loop-nest queries of `prog` against the
/// chain-zip definitions, for every statement pair, node and level.
fn check_loop_nest_queries(prog: &IrProgram, src: &str) -> Result<(), TestCaseError> {
    let stmts = || (0..prog.stmts.len() as u32).map(StmtId);
    for a in stmts() {
        let ca = loop_chain(prog, prog.stmt(a).enclosing);
        for b in stmts() {
            prop_assert_eq!(
                prog.cnl(a, b),
                common_prefix(&ca, &loop_chain(prog, prog.stmt(b).enclosing)),
                "cnl({:?}, {:?}) in\n{}",
                a,
                b,
                src
            );
        }
        for n in prog.cfg.node_ids() {
            prop_assert_eq!(
                prog.cnl_node_stmt(n, a),
                common_prefix(&loop_chain(prog, prog.cfg.node(n).enclosing), &ca),
                "cnl_node_stmt({:?}, {:?}) in\n{}",
                n,
                a,
                src
            );
        }
        for level in 0..=ca.len() as u32 + 1 {
            let want = (level >= 1)
                .then(|| ca.get(level as usize - 1).copied())
                .flatten();
            prop_assert_eq!(
                prog.enclosing_loop_at_level(a, level),
                want,
                "enclosing_loop_at_level({:?}, {}) in\n{}",
                a,
                level,
                src
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loop-nest queries on the hand-shaped pieces (siblings, nests of
    /// different depth, statements outside any loop) ...
    #[test]
    fn loop_nest_queries_match_chain_zip(src in program_src()) {
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(&src).unwrap()).unwrap();
        check_loop_nest_queries(&prog, &src)?;
    }

    /// ... and on the fuzzing generator's programs (depth up to 3, branches
    /// inside loops).
    #[test]
    fn loop_nest_queries_match_chain_zip_on_generated_programs(seed in 0u64..1_000_000) {
        let src = proptest::hpf::generate(seed);
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(&src).unwrap()).unwrap();
        check_loop_nest_queries(&prog, &src)?;
    }

    /// Fast dominance agrees with the brute-force reference on every
    /// reachable node pair.
    #[test]
    fn dominance_matches_reference(src in program_src()) {
        let ast = gcomm_lang::parse_program(&src).unwrap();
        let prog = gcomm_ir::lower(&ast).unwrap();
        let dt = DomTree::compute(&prog.cfg);
        for a in prog.cfg.node_ids() {
            if !dt.is_reachable(a) {
                continue;
            }
            for b in prog.cfg.node_ids() {
                if !dt.is_reachable(b) {
                    continue;
                }
                prop_assert_eq!(
                    dt.dominates(a, b),
                    dominates_ref(&prog, a, b),
                    "dominance mismatch for {:?} -> {:?} in\n{}",
                    a, b, src
                );
            }
        }
    }

    /// The idom of every reachable node strictly dominates it, and the
    /// dominator sets are closed under the parent chain.
    #[test]
    fn idom_chain_is_sound(src in program_src()) {
        let ast = gcomm_lang::parse_program(&src).unwrap();
        let prog = gcomm_ir::lower(&ast).unwrap();
        let dt = DomTree::compute(&prog.cfg);
        for n in prog.cfg.node_ids() {
            if !dt.is_reachable(n) || n == prog.cfg.entry {
                continue;
            }
            let p = dt.parent(n).expect("reachable non-entry has an idom");
            prop_assert!(dt.strictly_dominates(p, n));
            prop_assert!(dominates_ref(&prog, p, n));
        }
    }

    /// Dominance frontier soundness: every frontier node of `n` is a join
    /// that `n`'s dominance reaches but does not strictly cover.
    #[test]
    fn frontier_nodes_are_not_strictly_dominated(src in program_src()) {
        let ast = gcomm_lang::parse_program(&src).unwrap();
        let prog = gcomm_ir::lower(&ast).unwrap();
        let dt = DomTree::compute(&prog.cfg);
        for n in prog.cfg.node_ids() {
            if !dt.is_reachable(n) {
                continue;
            }
            for &f in dt.frontier(n) {
                prop_assert!(!dt.strictly_dominates(n, f),
                    "{n:?} strictly dominates its frontier node {f:?} in\n{src}");
            }
        }
    }

    /// In the augmented CFG, no node inside a loop dominates the loop's
    /// postexit (the zero-trip edge guarantee the paper's Earliest analysis
    /// relies on).
    #[test]
    fn zero_trip_guarantee(src in program_src()) {
        let ast = gcomm_lang::parse_program(&src).unwrap();
        let prog = gcomm_ir::lower(&ast).unwrap();
        let dt = DomTree::compute(&prog.cfg);
        for (i, li) in prog.loops.iter().enumerate() {
            let _ = i;
            for n in prog.cfg.node_ids() {
                let inside = loop_chain(&prog, prog.cfg.node(n).enclosing)
                    .contains(&LoopId(i as u32));
                if inside && dt.is_reachable(n) {
                    prop_assert!(
                        !dt.dominates(n, li.postexit),
                        "in-loop node {n:?} dominates postexit in\n{src}"
                    );
                }
            }
        }
    }
}
