//! Communication-descriptor generation: which references need messages.
//!
//! Under the owner-computes rule, a right-hand-side reference needs
//! communication when its data may live on a different processor than the
//! left-hand side it feeds. This module classifies every read of every
//! statement into a [`Mapping`] and materializes one [`CommEntry`] per
//! non-local pattern, applying two classic pHPF front-end optimizations:
//!
//! * **message coalescing** — same-pattern references within one statement
//!   share a single entry (e.g. `u(i+1,j)` appearing twice), and
//! * **diagonal subsumption** — a diagonal shift like `p(i+1,j+1)` is
//!   decomposed into its axis components, which augmented axis exchanges
//!   carry (§2.2: "the diagonal communication \[is\] subsumed by an
//!   augmented form of the NNC along the two axes").

use gcomm_ir::{AccessRef, ArrayId, IrProgram, StmtId, StmtKind, SubscriptIr};

use gcomm_sections::{Mapping, ReduceOp};

use crate::entry::{CommEntry, CommKind, EntryId};

/// Generates all communication entries of a program, in program order.
pub fn generate(prog: &IrProgram) -> Vec<CommEntry> {
    let mut gen = Generator {
        prog,
        out: Vec::new(),
        general_counter: 0,
    };
    for sid in 0..prog.stmts.len() as u32 {
        gen.stmt(StmtId(sid));
    }
    gen.out
}

struct Generator<'a> {
    prog: &'a IrProgram,
    out: Vec<CommEntry>,
    general_counter: u32,
}

impl<'a> Generator<'a> {
    fn stmt(&mut self, sid: StmtId) {
        let info = self.prog.stmt(sid);
        let (lhs, reads) = match &info.kind {
            StmtKind::Assign { lhs, reads, .. } => (Some(lhs), reads),
            StmtKind::Cond { reads } => (None, reads),
        };

        // Per-statement coalescing table for shift entries.
        let mut pending: Vec<CommEntry> = Vec::new();

        for (idx, read) in reads.iter().enumerate() {
            let arr = self.prog.array(read.access.array);
            if read.reduction {
                // Each reduction is its own runtime call (partial results
                // combined across processors).
                pending.push(self.fresh(
                    sid,
                    vec![idx],
                    read.access.array,
                    Mapping::Reduction { op: ReduceOp::Sum },
                    CommKind::Reduction,
                    format!("sum {}", arr.name),
                ));
                continue;
            }
            if arr.is_replicated() {
                continue; // replicated data (scalars) is always local
            }
            let mapping = match lhs {
                None => Mapping::Broadcast, // branch conditions need the data everywhere
                Some(l) => self.classify(l, &read.access),
            };
            match mapping {
                Mapping::Local => {}
                Mapping::Shift { offsets } if shifted_axes(&offsets) != 1 => {
                    // Diagonal subsumption: one axis-aligned entry per
                    // non-zero axis; the corner travels with the augmented
                    // axis exchanges.
                    for (k, &o) in offsets.iter().enumerate().filter(|&(_, &o)| o != 0) {
                        let mut axis_off = vec![0i64; offsets.len()];
                        axis_off[k] = o;
                        let m = Mapping::Shift { offsets: axis_off };
                        self.coalesce(&mut pending, sid, idx, read.access.array, m, &arr.name);
                    }
                }
                // An axis-aligned shift is its own entry as classified.
                m @ (Mapping::Shift { .. } | Mapping::Broadcast | Mapping::ToConstant) => {
                    self.coalesce(&mut pending, sid, idx, read.access.array, m, &arr.name);
                }
                Mapping::General(_) => {
                    let id = self.general_counter;
                    self.general_counter += 1;
                    pending.push(self.fresh(
                        sid,
                        vec![idx],
                        read.access.array,
                        Mapping::General(id),
                        CommKind::General,
                        format!("{} general", arr.name),
                    ));
                }
                Mapping::Reduction { .. } => unreachable!("reductions handled above"),
            }
        }
        self.out.append(&mut pending);
    }

    /// Adds `idx` to an existing same-pattern entry of this statement or
    /// creates a new one (classic message coalescing).
    fn coalesce(
        &mut self,
        pending: &mut Vec<CommEntry>,
        sid: StmtId,
        idx: usize,
        array: ArrayId,
        mapping: Mapping,
        name: &str,
    ) {
        if let Some(e) = pending
            .iter_mut()
            .find(|e| e.array == array && e.mapping == mapping)
        {
            e.reads.push(idx);
            return;
        }
        let kind = match &mapping {
            Mapping::Shift { .. } if mapping.is_nnc() => CommKind::Nnc,
            Mapping::Shift { .. } => CommKind::General,
            Mapping::Broadcast => CommKind::Broadcast,
            Mapping::ToConstant => CommKind::Gather,
            _ => CommKind::General,
        };
        let label = format!("{name} {mapping}");
        let e = self.fresh(sid, vec![idx], array, mapping, kind, label);
        pending.push(e);
    }

    fn fresh(
        &mut self,
        stmt: StmtId,
        reads: Vec<usize>,
        array: ArrayId,
        mapping: Mapping,
        kind: CommKind,
        label: String,
    ) -> CommEntry {
        CommEntry {
            id: EntryId(u32::MAX), // assigned by the caller after collection
            stmt,
            reads,
            array,
            mapping,
            kind,
            label,
        }
    }

    /// Classifies a read against the statement's left-hand side.
    fn classify(&self, lhs: &AccessRef, read: &AccessRef) -> Mapping {
        let larr = self.prog.array(lhs.array);
        let rarr = self.prog.array(read.array);
        if larr.is_replicated() {
            // Replicated result computed by everyone: everyone needs the
            // distributed operand.
            return Mapping::Broadcast;
        }
        let grid_rank = larr.distributed().count();
        if grid_rank != rarr.distributed().count() {
            return Mapping::General(0);
        }
        let mut offsets = Vec::with_capacity(grid_rank);
        for (ld, rd) in larr.distributed().zip(rarr.distributed()) {
            if larr.dist[ld] != rarr.dist[rd] {
                return Mapping::General(0);
            }
            let ls = &lhs.subs[ld];
            let rs = &read.subs[rd];
            let Some(raw) = elem_offset(ls, rs) else {
                return Mapping::General(0);
            };
            // Alignment offsets shift each array onto the shared template.
            let delta = raw + rarr.align_of(rd) - larr.align_of(ld);
            // Element offset → processor offset: any non-zero stencil offset
            // crosses to the neighbouring block (BLOCK) or neighbouring
            // processor (CYCLIC).
            offsets.push(delta.signum());
        }
        if offsets.iter().all(|&o| o == 0) {
            Mapping::Local
        } else {
            Mapping::Shift { offsets }
        }
    }
}

/// Number of grid axes a shift moves along.
fn shifted_axes(offsets: &[i64]) -> usize {
    offsets.iter().filter(|&&o| o != 0).count()
}

/// Constant element offset `read − lhs` along one dimension, when the two
/// subscripts are congruent (both elements, or ranges of equal length moving
/// together).
fn elem_offset(lhs: &SubscriptIr, read: &SubscriptIr) -> Option<i64> {
    match (lhs, read) {
        (SubscriptIr::Elem(a), SubscriptIr::Elem(b)) => b.const_diff(a),
        (
            SubscriptIr::Range {
                lo: llo, hi: lhi, ..
            },
            SubscriptIr::Range {
                lo: rlo, hi: rhi, ..
            },
        ) => {
            let dlo = rlo.const_diff(llo)?;
            let dhi = rhi.const_diff(lhi)?;
            (dlo == dhi).then_some(dlo)
        }
        _ => None,
    }
}

/// Assigns dense entry ids after generation (helper for the pipeline).
///
/// No entry carries [`Mapping::Local`] — local data needs no message —
/// and the redundancy scans rely on it: `Local ⊆ everything` is the one
/// case where [`Mapping::subset_of`] is not equality, so without `Local`
/// entries subsumption never crosses an `(array, mapping)` class
/// (`redundancy::subsumption_classes`).
pub fn number(mut entries: Vec<CommEntry>) -> Vec<CommEntry> {
    for (i, e) in entries.iter_mut().enumerate() {
        debug_assert!(e.mapping != Mapping::Local, "local entry {}", e.label);
        e.id = EntryId(i as u32);
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(src: &str) -> (IrProgram, Vec<CommEntry>) {
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap();
        let e = number(generate(&prog));
        (prog, e)
    }

    #[test]
    fn aligned_reads_are_local() {
        let (_, e) = entries(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
a(1:n, 1:n) = b(1:n, 1:n)
end",
        );
        assert!(e.is_empty());
    }

    #[test]
    fn shifted_read_is_nnc() {
        let (_, e) = entries(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
b(2:n, 1:n) = a(1:n-1, 1:n)
end",
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].kind, CommKind::Nnc);
        assert_eq!(
            e[0].mapping,
            Mapping::Shift {
                offsets: vec![-1, 0]
            }
        );
    }

    #[test]
    fn collapsed_dims_do_not_communicate() {
        // g is (*, block, block): a slab copy aligned on dims 2 and 3 is
        // local even though dim 1 subscripts differ.
        let (_, e) = entries(
            "
program t
param n, nx
real g(nx,n,n) distribute (*,block,block)
real glast(n,n) distribute (block,block)
do i = 2, nx
  glast(1:n, 1:n) = g(i, 1:n, 1:n)
enddo
end",
        );
        assert!(e.is_empty());
    }

    #[test]
    fn diagonal_decomposes_into_axis_shifts() {
        let (_, e) = entries(
            "
program t
param n
real z(n,n), p(n,n) distribute (block,block)
do i = 1, n - 1
  do j = 1, n - 1
    z(i, j) = p(i+1, j+1)
  enddo
enddo
end",
        );
        assert_eq!(e.len(), 2, "diagonal becomes two axis exchanges");
        let offs: Vec<_> = e
            .iter()
            .map(|x| match &x.mapping {
                Mapping::Shift { offsets } => offsets.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(offs.contains(&vec![1, 0]));
        assert!(offs.contains(&vec![0, 1]));
    }

    #[test]
    fn coalescing_merges_same_pattern_reads() {
        // u(i+1,j) appears twice and p(i+1,j) once: two entries total
        // (u east, p east), with the u entry serving two reads.
        let (_, e) = entries(
            "
program t
param n
real cu(n,n), p(n,n), u(n,n) distribute (block,block)
do i = 1, n - 1
  do j = 1, n
    cu(i, j) = p(i+1, j) * u(i+1, j) + u(i+1, j)
  enddo
enddo
end",
        );
        assert_eq!(e.len(), 2);
        let u_entry = e.iter().find(|x| x.label.starts_with("u ")).unwrap();
        assert_eq!(u_entry.reads.len(), 2);
    }

    #[test]
    fn reductions_are_separate_entries() {
        let (_, e) = entries(
            "
program t
param n
real g(n,n) distribute (block,block)
real s
s = sum(g(1, 1:n)) + sum(g(2, 1:n))
end",
        );
        assert_eq!(e.len(), 2);
        assert!(e.iter().all(|x| x.kind == CommKind::Reduction));
    }

    #[test]
    fn replicated_lhs_broadcasts_operand() {
        let (_, e) = entries(
            "
program t
param n
real a(n,n) distribute (block,block)
real s
s = a(1, 1)
end",
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].mapping, Mapping::Broadcast);
    }

    #[test]
    fn incongruent_subscripts_are_general() {
        let (_, e) = entries(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
b(1:n-1, 1:n) = a(2:n-1, 1:n)
end",
        );
        assert_eq!(e.len(), 1);
        assert!(matches!(e[0].mapping, Mapping::General(_)));
    }

    #[test]
    fn entry_ids_are_dense_and_ordered() {
        let (_, e) = entries(
            "
program t
param n
real a(n,n), b(n,n), c(n,n) distribute (block,block)
b(2:n, 1:n) = a(1:n-1, 1:n)
c(2:n, 1:n) = a(1:n-1, 1:n)
end",
        );
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].id, EntryId(0));
        assert_eq!(e[1].id, EntryId(1));
        assert!(e[0].stmt < e[1].stmt);
    }
}
