//! Partial redundancy elimination (extension; the [14] behaviour that
//! §4.6 contrasts against, and §7's future-work direction).
//!
//! On the paper's running example (Figure 4), earliest placement with
//! partial RE eliminates `a1`, keeps `b1`, and shrinks `b2`'s message to
//! the residual `ASD(b2) − ASD(b1)` — fewer bytes, but still three
//! messages, where the paper's global algorithm ships one. The dynamic
//! verifier confirms the residual data is sufficient.

use std::collections::HashMap;

use gcomm::core::{lower_to_sim, SimConfig};
use gcomm::machine::{simulate, NetworkModel, ProcGrid};
use gcomm::{compile, Strategy};

#[test]
fn figure4_partial_re_shrinks_b2() {
    let src = gcomm::kernels::FIG4_RUNNING;
    let c = compile(src, Strategy::EarliestPartialRE).unwrap();
    // Same message count as plain earliest-RE ...
    assert_eq!(c.static_messages(), 3, "{}", c.report());
    assert_eq!(c.schedule.eliminated(), 1);
    // ... but one entry ships a residual section with stride 2.
    assert_eq!(c.schedule.section_overrides.len(), 1);
    let (_, residual) = &c.schedule.section_overrides[0];
    assert_eq!(residual.dims[1].step(), Some(2));
}

#[test]
fn partial_re_reduces_volume_but_not_messages() {
    let src = gcomm::kernels::FIG4_RUNNING;
    let run = |s| {
        let c = compile(src, s).unwrap();
        let cfg = SimConfig::uniform(&c, ProcGrid::balanced(4, 2), 64);
        simulate(&lower_to_sim(&c, &cfg), &NetworkModel::sp2())
    };
    let nored = run(Strategy::EarliestRE);
    let partial = run(Strategy::EarliestPartialRE);
    let comb = run(Strategy::Global);
    // Volume: partial < plain earliest-RE.
    assert!(
        partial.bytes < nored.bytes,
        "{} !< {}",
        partial.bytes,
        nored.bytes
    );
    // Messages: partial == plain; the global algorithm needs fewer — the
    // §4.6 argument that the global solution "reduces the communication
    // startup overhead" where partial RE only trims volume.
    assert_eq!(partial.messages, nored.messages);
    assert!(comb.messages < partial.messages);
}

#[test]
fn partial_re_schedules_verify_dynamically() {
    // The residual communication plus the covering message must still
    // deliver every remote element — checked at element granularity.
    for src in [
        gcomm::kernels::FIG4_RUNNING,
        gcomm::kernels::SHALLOW,
        gcomm::kernels::HYDFLO_FLUX,
    ] {
        let c = compile(src, Strategy::EarliestPartialRE).unwrap();
        let rank = c.prog.grid_rank();
        let mut params: HashMap<String, i64> =
            c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
        params.insert("nsteps".into(), 2);
        let rep = gcomm_exec::verify_schedule(&c, &ProcGrid::balanced(4, rank), &params).unwrap();
        assert!(rep.ok(), "first: {:?}", rep.errors.first());
    }
}

#[test]
fn partial_re_counts_on_all_kernels_match_plain_re() {
    // Partial RE never changes message *counts*, only volumes.
    for (bench, routine, src) in gcomm::kernels::all_kernels() {
        let plain = compile(src, Strategy::EarliestRE).unwrap();
        let partial = compile(src, Strategy::EarliestPartialRE).unwrap();
        assert_eq!(
            plain.static_messages(),
            partial.static_messages(),
            "{bench}:{routine}"
        );
    }
}
