//! Placed communication schedules: the output of every strategy.

use std::fmt::Write as _;

use gcomm_ir::{IrProgram, Pos};
use gcomm_sections::Mapping;

use crate::entry::{CommEntry, CommKind, EntryId};
use crate::redundancy::Absorption;
use crate::strategy::Strategy;

/// A group of one or more entries combined into a single communication
/// operation, placed at a fixed position.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedGroup {
    /// Placement position (the communication executes at this point).
    pub pos: Pos,
    /// Member entries (combined into one message).
    pub entries: Vec<EntryId>,
    /// The group's mapping (members are pairwise compatible).
    pub mapping: Mapping,
    /// The group's kind.
    pub kind: CommKind,
}

/// Provenance of a schedule produced by the branch-and-bound optimal
/// search (`Strategy::Optimal`): how much of the assignment space was
/// certified. `None` for every heuristic strategy. Deterministic for a
/// given program and budget, so schedule equality stays meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Search-tree nodes expanded (one per entry binding).
    pub nodes: u64,
    /// Complete assignments scored with the machine simulator.
    pub leaves: u64,
    /// Subtrees cut by the admissible lower bound.
    pub pruned_bound: u64,
    /// Subtrees cut by frontier dominance.
    pub pruned_dominance: u64,
    /// Total assignments in the search space (saturating).
    pub space: u64,
    /// True when the node budget exhausted before the space was covered —
    /// the schedule is still the seed or better, but not certified optimal.
    pub truncated: bool,
}

/// The result of communication placement under one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Which strategy produced this schedule.
    pub strategy: Strategy,
    /// All communication entries of the procedure (including absorbed
    /// ones), in program order.
    pub entries: Vec<CommEntry>,
    /// Placed (possibly combined) communication operations.
    pub groups: Vec<PlacedGroup>,
    /// Entries eliminated as redundant, with their absorbers.
    pub absorptions: Vec<Absorption>,
    /// Communicated-section overrides from *partial* redundancy
    /// elimination: the entry ships only the listed residual section
    /// instead of its full vectorized section.
    pub section_overrides: Vec<(EntryId, gcomm_sections::Section)>,
    /// Optimal-search provenance (`Strategy::Optimal` only).
    pub search: Option<SearchOutcome>,
}

impl Schedule {
    /// Static communication call sites per processor — the paper's
    /// compile-time metric (Figure 10's table).
    pub fn static_messages(&self) -> usize {
        self.groups.len()
    }

    /// The overridden (residual) section for an entry, if partial
    /// redundancy elimination reduced it.
    pub fn section_override(&self, id: EntryId) -> Option<&gcomm_sections::Section> {
        self.section_overrides
            .iter()
            .find(|(e, _)| *e == id)
            .map(|(_, s)| s)
    }

    /// Static call sites of one kind.
    pub fn count_kind(&self, kind: CommKind) -> usize {
        self.groups.iter().filter(|g| g.kind == kind).count()
    }

    /// Number of entries eliminated by redundancy elimination.
    pub fn eliminated(&self) -> usize {
        self.absorptions.len()
    }

    /// The entry table row for an id.
    pub fn entry(&self, id: EntryId) -> &CommEntry {
        &self.entries[id.0 as usize]
    }

    /// A human-readable placement report, written into one buffer sized
    /// up front.
    pub fn report(&self, prog: &IrProgram) -> String {
        // A label is its array's name, a space and at most a rank-4 shift
        // (`shift(+1,+0,+0,+0)`), plus a `, ` separator.
        let label_len = |id: EntryId| prog.array(self.entry(id).array).name.len() + 24;
        let groups: usize = self
            .groups
            .iter()
            .map(|g| 48 + g.entries.iter().map(|&e| label_len(e)).sum::<usize>())
            .sum();
        let absorptions: usize = self
            .absorptions
            .iter()
            .map(|a| 32 + label_len(a.absorbed) + label_len(a.by))
            .sum();
        let mut out = String::with_capacity(80 + groups + absorptions);
        let _ = writeln!(
            out,
            "{:?}: {} entries, {} messages, {} eliminated",
            self.strategy,
            self.entries.len(),
            self.groups.len(),
            self.eliminated()
        );
        for g in &self.groups {
            let node = prog.cfg.node(g.pos.node);
            let _ = write!(
                out,
                "  at {:?} slot {} (level {}): {{",
                node.kind, g.pos.slot, node.level
            );
            for (i, &e) in g.entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", self.entry(e).label(prog));
            }
            out.push_str("}\n");
        }
        for a in &self.absorptions {
            let _ = writeln!(
                out,
                "  eliminated: {} (covered by {})",
                self.entry(a.absorbed).label(prog),
                self.entry(a.by).label(prog)
            );
        }
        out
    }
}
