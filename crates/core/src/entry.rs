//! Communication entries: one per non-local reference pattern.

use std::fmt;

use gcomm_ir::{ArrayId, IrProgram, StmtId};
use gcomm_sections::Mapping;

/// Identifier of a communication entry within one analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(pub u32);

/// Broad classification of a communication (used for reporting and for the
/// size rules of combining).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// Nearest-neighbour (or general) shift exchange into overlap regions.
    Nnc,
    /// Global reduction of partial results.
    Reduction,
    /// Broadcast from one owner.
    Broadcast,
    /// Gather to the owner of a constant position.
    Gather,
    /// Anything else (opaque many-to-many).
    General,
}

/// One communication requirement: a use (or coalesced set of uses within a
/// statement) of remote data with a fixed mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEntry {
    /// This entry's id (index into the entry table).
    pub id: EntryId,
    /// The statement containing the use(s).
    pub stmt: StmtId,
    /// Indices into the statement's read list that this entry serves
    /// (several when classic message coalescing merged same-pattern
    /// references in one statement).
    pub reads: Vec<usize>,
    /// The referenced array.
    pub array: ArrayId,
    /// Sender→receiver mapping.
    pub mapping: Mapping,
    /// Classification.
    pub kind: CommKind,
}

impl CommEntry {
    /// True if this entry is a reduction.
    pub fn is_reduction(&self) -> bool {
        self.kind == CommKind::Reduction
    }

    /// Human-readable label, e.g. `p shift(+1,0)` or `sum g`: `sum {array}` for
    /// a reduction, `{array} general` for a general mapping, `{array}
    /// {mapping}` otherwise. Formatted where it is written (reports and
    /// diagnostics), never stored.
    pub fn label<'a>(&'a self, prog: &'a IrProgram) -> impl fmt::Display + 'a {
        Label { e: self, prog }
    }
}

struct Label<'a> {
    e: &'a CommEntry,
    prog: &'a IrProgram,
}

impl Label<'_> {
    fn write(&self, w: &mut impl fmt::Write) -> fmt::Result {
        let name: &str = &self.prog.array(self.e.array).name;
        match &self.e.mapping {
            Mapping::Reduction { .. } => {
                w.write_str("sum ")?;
                w.write_str(name)
            }
            Mapping::General(_) => {
                w.write_str(name)?;
                w.write_str(" general")
            }
            m => {
                w.write_str(name)?;
                w.write_char(' ')?;
                write!(w, "{m}")
            }
        }
    }
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.width().is_none() {
            return self.write(f);
        }
        // Padded like a `str` (`{:<20}`): format first, then pad.
        let mut s = String::new();
        self.write(&mut s)?;
        f.pad(&s)
    }
}
