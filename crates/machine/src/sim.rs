//! Bulk-synchronous simulator for communication programs.
//!
//! A [`CommProgram`] is a loop-structured sequence of compute phases and
//! communication phases, produced by the code generator from a placed
//! communication schedule at a *concrete* problem size. The simulator
//! executes it under a [`NetworkModel`] in the paper's bulk-synchronous
//! SPMD regime (overlap disabled, §5: "measurements were made with overlap
//! disabled to clearly account for CPU and network activity") and reports
//! compute time, communication time, message counts, and volume — the
//! quantities behind Figure 10's stacked bars.

use crate::net::NetworkModel;

/// What kind of communication a message performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Point-to-point exchange (shift/NNC): one partner per processor.
    PointToPoint,
    /// Reduction/broadcast tree: `rounds` sequential message steps.
    Collective,
}

/// One point-to-point step of a lowered collective schedule.
///
/// A collective backend (gcomm-coll) resolves the topology into per-step
/// link multipliers so the simulator stays topology-agnostic: a step of
/// `bytes` costs `startup_us · startup_mult + bytes / (bw(bytes) · bw_mult)`.
/// With both multipliers at 1.0 a step prices exactly like
/// [`NetworkModel::msg_time_us`] on the flat model.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStep {
    /// Wire bytes carried by this step.
    pub bytes: f64,
    /// Startup-cost multiplier of the link tier this step crosses.
    pub startup_mult: f64,
    /// Bandwidth multiplier of the link tier this step crosses.
    pub bw_mult: f64,
}

impl SimStep {
    /// Time of this step on `net`, in µs.
    pub fn time_us(&self, net: &NetworkModel) -> f64 {
        if self.bytes <= 0.0 {
            return net.startup_us * self.startup_mult;
        }
        net.startup_us * self.startup_mult
            + self.bytes / (net.bandwidth_mb(self.bytes) * self.bw_mult).max(1e-9)
    }
}

/// One (possibly combined) message operation executed by every processor.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Payload bytes per processor per execution. This is the *logical*
    /// payload: a collective lowering may move more wire bytes (see
    /// [`Msg::steps`]) but the payload accounted to the program is the
    /// same under every algorithm.
    pub bytes: f64,
    /// Sequential message rounds (1 for point-to-point; ⌈log₂ P⌉ for
    /// tree collectives; `steps.len()` when lowered by gcomm-coll).
    pub rounds: u64,
    /// Kind (used for reporting).
    pub kind: MsgKind,
    /// Number of array sections packed into this message (1 = no packing
    /// copy needed on either side beyond the transfer itself).
    pub pieces: u64,
    /// Concrete lowered schedule from the collective backend. Empty means
    /// the legacy flat-model pricing (`rounds` equal splits of `bytes`).
    pub steps: Vec<SimStep>,
}

impl Msg {
    /// A legacy (flat-model) message with no lowered schedule.
    pub fn flat(bytes: f64, rounds: u64, kind: MsgKind, pieces: u64) -> Msg {
        Msg {
            bytes,
            rounds,
            kind,
            pieces,
            steps: Vec::new(),
        }
    }

    /// Time for one execution of this message on `net`, in µs.
    pub fn time_us(&self, net: &NetworkModel) -> f64 {
        let mut t = if self.steps.is_empty() {
            let per_round = self.bytes / self.rounds.max(1) as f64;
            self.rounds as f64 * net.msg_time_us(per_round)
        } else {
            self.steps.iter().map(|s| s.time_us(net)).sum()
        };
        if self.pieces > 1 {
            // Pack at the sender and unpack at the receiver.
            t += 2.0 * net.bcopy_time_us(self.bytes);
        }
        t
    }
}

/// A communication phase: messages issued back-to-back by each processor,
/// followed by a barrier (bulk-synchronous).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommPhase {
    /// Messages of the phase.
    pub msgs: Vec<Msg>,
}

/// One item of a communication program.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseItem {
    /// Local computation: `flops` floating-point operations touching
    /// `mem_bytes` of memory per processor.
    Compute {
        /// Floating-point operations per processor.
        flops: f64,
        /// Memory traffic per processor, bytes.
        mem_bytes: f64,
    },
    /// A communication phase.
    Comm(CommPhase),
    /// A counted loop around nested items.
    Loop {
        /// Trip count.
        trips: u64,
        /// Loop body.
        body: Vec<PhaseItem>,
    },
}

/// A complete executable communication program for one problem size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommProgram {
    /// Program name (for reports).
    pub name: String,
    /// Top-level items.
    pub items: Vec<PhaseItem>,
}

/// Aggregate result of simulating a program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimResult {
    /// Total compute time, µs.
    pub compute_us: f64,
    /// Total communication time, µs.
    pub comm_us: f64,
    /// Dynamic message count (per processor).
    pub messages: u64,
    /// Total bytes communicated (per processor).
    pub bytes: f64,
}

impl SimResult {
    /// Total wall-clock time, µs.
    pub fn total_us(&self) -> f64 {
        self.compute_us + self.comm_us
    }
}

/// Executes `prog` on `net` and accumulates times.
pub fn simulate(prog: &CommProgram, net: &NetworkModel) -> SimResult {
    let _t = gcomm_obs::time("machine.simulate");
    let mut r = SimResult::default();
    sim_items(&prog.items, net, 1, &mut r);
    gcomm_obs::count("machine.sim.runs", 1);
    gcomm_obs::count("machine.sim.messages", r.messages);
    gcomm_obs::count("machine.sim.comm_us", r.comm_us as u64);
    r
}

/// Executes `prog` assuming perfect CPU–network overlap within each loop
/// body: per iteration, communication hides under computation (or vice
/// versa), so a body costs `max(compute, comm)` instead of their sum.
///
/// This is the §6 regime the paper anticipates for future machines ("if
/// the CPU–network overlap can be exploited more effectively"), under which
/// the trade-off between combining and overlap changes and the subset
/// elimination step would have to be dropped. The returned
/// [`SimResult::compute_us`]/[`SimResult::comm_us`] split is unchanged;
/// use [`OverlapResult::total_us`] for the overlapped wall-clock.
pub fn simulate_overlapped(prog: &CommProgram, net: &NetworkModel) -> OverlapResult {
    let eager = simulate(prog, net);
    let total = overlap_items(&prog.items, net);
    OverlapResult {
        breakdown: eager,
        total_us: total,
    }
}

/// Result of an overlapped simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapResult {
    /// The non-overlapped component breakdown (same as [`simulate`]).
    pub breakdown: SimResult,
    /// Wall-clock with per-body overlap applied.
    pub total_us: f64,
}

impl OverlapResult {
    /// Wall-clock time, µs.
    pub fn total_us(&self) -> f64 {
        self.total_us
    }
}

/// Time of one execution of a body with compute/comm overlapping inside it;
/// nested loops are opaque (their own overlap already applied).
fn overlap_items(items: &[PhaseItem], net: &NetworkModel) -> f64 {
    let mut compute = 0.0f64;
    let mut comm = 0.0f64;
    for item in items {
        match item {
            PhaseItem::Compute { flops, mem_bytes } => {
                compute += net.compute_time_us(*flops, *mem_bytes);
            }
            PhaseItem::Comm(phase) => {
                for m in &phase.msgs {
                    comm += m.time_us(net);
                }
            }
            PhaseItem::Loop { trips, body } => {
                compute += *trips as f64 * overlap_items(body, net);
            }
        }
    }
    compute.max(comm)
}

fn sim_items(items: &[PhaseItem], net: &NetworkModel, mult: u64, r: &mut SimResult) {
    for item in items {
        match item {
            PhaseItem::Compute { flops, mem_bytes } => {
                r.compute_us += mult as f64 * net.compute_time_us(*flops, *mem_bytes);
            }
            PhaseItem::Comm(phase) => {
                for m in &phase.msgs {
                    r.comm_us += mult as f64 * m.time_us(net);
                    r.messages += mult * m.rounds.max(1);
                    r.bytes += mult as f64 * m.bytes;
                }
            }
            PhaseItem::Loop { trips, body } => {
                sim_items(body, net, mult.saturating_mul(*trips), r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2p(bytes: f64) -> Msg {
        Msg::flat(bytes, 1, MsgKind::PointToPoint, 1)
    }

    #[test]
    fn unit_multiplier_steps_price_like_the_flat_model() {
        // A lowered schedule of `rounds` equal steps over unit-multiplier
        // links is the flat model, bit for bit.
        let net = NetworkModel::sp2();
        let legacy = Msg::flat(4096.0, 2, MsgKind::Collective, 3);
        let lowered = Msg {
            steps: vec![
                SimStep {
                    bytes: 2048.0,
                    startup_mult: 1.0,
                    bw_mult: 1.0,
                };
                2
            ],
            ..legacy.clone()
        };
        assert_eq!(legacy.time_us(&net), lowered.time_us(&net));
    }

    #[test]
    fn step_multipliers_move_cost_the_right_way() {
        let net = NetworkModel::sp2();
        let unit = SimStep {
            bytes: 8192.0,
            startup_mult: 1.0,
            bw_mult: 1.0,
        };
        let slow = SimStep {
            startup_mult: 1.6,
            bw_mult: 0.7,
            ..unit.clone()
        };
        let fast = SimStep {
            startup_mult: 0.4,
            bw_mult: 2.0,
            ..unit.clone()
        };
        assert!(fast.time_us(&net) < unit.time_us(&net));
        assert!(unit.time_us(&net) < slow.time_us(&net));
    }

    #[test]
    fn loop_multiplies_costs() {
        let net = NetworkModel::sp2();
        let prog = CommProgram {
            name: "t".into(),
            items: vec![PhaseItem::Loop {
                trips: 10,
                body: vec![
                    PhaseItem::Compute {
                        flops: 100.0,
                        mem_bytes: 800.0,
                    },
                    PhaseItem::Comm(CommPhase {
                        msgs: vec![p2p(1024.0)],
                    }),
                ],
            }],
        };
        let r = simulate(&prog, &net);
        assert_eq!(r.messages, 10);
        assert!((r.bytes - 10240.0).abs() < 1e-9);
        let single = net.msg_time_us(1024.0);
        assert!((r.comm_us - 10.0 * single).abs() < 1e-6);
    }

    #[test]
    fn combined_message_beats_separate_messages() {
        let net = NetworkModel::now_myrinet();
        let sep = CommProgram {
            name: "sep".into(),
            items: vec![PhaseItem::Comm(CommPhase {
                msgs: vec![p2p(2048.0), p2p(2048.0)],
            })],
        };
        let mut comb_msg = p2p(4096.0);
        comb_msg.pieces = 2;
        let comb = CommProgram {
            name: "comb".into(),
            items: vec![PhaseItem::Comm(CommPhase {
                msgs: vec![comb_msg],
            })],
        };
        let rs = simulate(&sep, &net);
        let rc = simulate(&comb, &net);
        assert!(rc.comm_us < rs.comm_us);
        assert_eq!(rc.messages, 1);
        assert_eq!(rs.messages, 2);
    }

    #[test]
    fn collective_rounds_accumulate() {
        let net = NetworkModel::sp2();
        let red = Msg::flat(32.0, 5, MsgKind::Collective, 1); // log2(25) rounded up
        let prog = CommProgram {
            name: "r".into(),
            items: vec![PhaseItem::Comm(CommPhase { msgs: vec![red] })],
        };
        let r = simulate(&prog, &net);
        assert_eq!(r.messages, 5);
        assert!(r.comm_us > 4.0 * net.startup_us);
    }

    #[test]
    fn nested_loops_multiply() {
        let net = NetworkModel::sp2();
        let prog = CommProgram {
            name: "n".into(),
            items: vec![PhaseItem::Loop {
                trips: 3,
                body: vec![PhaseItem::Loop {
                    trips: 4,
                    body: vec![PhaseItem::Comm(CommPhase {
                        msgs: vec![p2p(8.0)],
                    })],
                }],
            }],
        };
        assert_eq!(simulate(&prog, &net).messages, 12);
    }

    #[test]
    fn overlap_hides_communication_under_compute() {
        let net = NetworkModel::sp2();
        let prog = CommProgram {
            name: "o".into(),
            items: vec![PhaseItem::Loop {
                trips: 10,
                body: vec![
                    PhaseItem::Compute {
                        flops: 100_000.0,
                        mem_bytes: 1000.0,
                    },
                    PhaseItem::Comm(CommPhase {
                        msgs: vec![p2p(256.0)],
                    }),
                ],
            }],
        };
        let eager = simulate(&prog, &net);
        let lazy = simulate_overlapped(&prog, &net);
        // Compute dominates: comm fully hidden.
        assert!(lazy.total_us() < eager.total_us());
        assert!((lazy.total_us() - eager.compute_us).abs() < 1e-6);
    }

    #[test]
    fn overlap_cannot_beat_the_longer_side() {
        let net = NetworkModel::now_myrinet();
        // Comm-dominated: overlap hides the (smaller) compute instead.
        let prog = CommProgram {
            name: "o2".into(),
            items: vec![
                PhaseItem::Compute {
                    flops: 10.0,
                    mem_bytes: 10.0,
                },
                PhaseItem::Comm(CommPhase {
                    msgs: vec![p2p(1024.0), p2p(1024.0)],
                }),
            ],
        };
        let eager = simulate(&prog, &net);
        let lazy = simulate_overlapped(&prog, &net);
        assert!(lazy.total_us() >= eager.comm_us - 1e-9);
        assert!(lazy.total_us() <= eager.total_us() + 1e-9);
    }
}
