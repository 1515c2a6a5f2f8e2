//! The §2.3 syntax-sensitivity story, run mechanically: scalarize the F90
//! source with our own scalarizer, optionally fuse, and compare analysis
//! results and *values* (via the reference interpreter) across the three
//! forms the paper's Figure 3 shows.

use std::collections::HashMap;

use gcomm::core::{commgen, earliest, AnalysisCtx};
use gcomm::lang::{fuse_loops, scalarize};
use gcomm::{compile, Strategy};

fn values_of(src_prog: &gcomm::lang::Program, n: i64) -> Vec<(String, Vec<f64>)> {
    let prog = gcomm::ir::lower(src_prog).unwrap();
    let mut params = HashMap::new();
    for p in &prog.params {
        params.insert(p.clone(), n);
    }
    params.insert("nsteps".into(), 2);
    let fs = gcomm_exec::interpret(&prog, &params).unwrap();
    prog.arrays
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name.to_string(), fs.state.arrays[i].vals.clone()))
        .collect()
}

#[test]
fn scalarization_preserves_values() {
    for src in [
        gcomm::kernels::FIG3_F90,
        gcomm::kernels::SHALLOW,
        gcomm::kernels::TRIMESH_GAUSS,
    ] {
        let orig = gcomm::parse_program(src).unwrap();
        let scal = scalarize(&orig);
        assert_eq!(
            values_of(&orig, 8),
            values_of(&scal, 8),
            "scalarization changed semantics"
        );
    }
}

#[test]
fn overlapping_self_assignment_scalarizes_correctly() {
    // The aliasing-hazard case: must match F90 semantics exactly.
    let src = "
program alias
param n
real a(n) distribute (block)
do i = 1, n
  a(i) = i
enddo
a(2:n) = a(1:n-1)
end";
    let orig = gcomm::parse_program(src).unwrap();
    let scal = scalarize(&orig);
    assert_eq!(values_of(&orig, 9), values_of(&scal, 9));
}

#[test]
fn fusion_preserves_values() {
    let orig = gcomm::parse_program(gcomm::kernels::FIG3_SCALARIZED).unwrap();
    let fused = fuse_loops(&orig);
    assert_eq!(values_of(&orig, 8), values_of(&fused, 8));
}

#[test]
fn figure3_story_end_to_end() {
    // Column 1 (F90) → our scalarizer → column 2 (scalarized): earliest
    // placement splits the a/b messages; the global algorithm still
    // combines them in every form.
    let f90 = gcomm::parse_program(gcomm::kernels::FIG3_F90).unwrap();
    let scal = scalarize(&f90);
    let fused = fuse_loops(&scal);
    assert!(
        fused.stmt_count() < scal.stmt_count() + 1,
        "independent init loops fuse (column 3)"
    );

    let compile_ast = |p: &gcomm::lang::Program, s| {
        let text = gcomm::lang::pretty::pretty(p);
        compile(&text, s).unwrap()
    };

    for form in [&f90, &scal, &fused] {
        let comb = compile_ast(form, Strategy::Global);
        assert_eq!(
            comb.static_messages(),
            1,
            "global placement is robust to the phrasing"
        );
    }

    // The earliest points of the a- and b-messages: distinct in the
    // scalarized form (separate loops), unified by fusion (column 3 —
    // where a combining-at-earliest compiler succeeds again).
    let earliest_nodes = |p: &gcomm::lang::Program| -> Vec<gcomm::ir::NodeId> {
        let prog = gcomm::ir::lower(p).unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        let ctx = AnalysisCtx::new(&prog);
        entries
            .iter()
            .map(|e| earliest::earliest_pos(&ctx, e).node)
            .collect()
    };
    let scal_nodes = earliest_nodes(&scal);
    assert_eq!(scal_nodes.len(), 2);
    assert_ne!(
        scal_nodes[0], scal_nodes[1],
        "scalarization splits the earliest points"
    );
    let fused_nodes = earliest_nodes(&fused);
    assert_eq!(
        fused_nodes[0], fused_nodes[1],
        "fusion re-unifies the earliest points"
    );
}

#[test]
fn scalarized_kernels_still_optimize() {
    // The full pipeline runs on scalarized forms too, and the global
    // algorithm never does worse than the baseline there.
    for (bench, routine, src) in gcomm::kernels::all_kernels() {
        let ast = gcomm::parse_program(src).unwrap();
        let scal = scalarize(&ast);
        let text = gcomm::lang::pretty::pretty(&scal);
        let orig = compile(&text, Strategy::Original).unwrap();
        let comb = compile(&text, Strategy::Global).unwrap();
        assert!(
            comb.static_messages() <= orig.static_messages(),
            "{bench}:{routine} scalarized: {} > {}",
            comb.static_messages(),
            orig.static_messages()
        );
    }
}
