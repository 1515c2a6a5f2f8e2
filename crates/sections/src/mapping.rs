//! Communication mappings: the `M` of an ASD `(D, M)`.
//!
//! A mapping describes the sender→receiver relationship of a communication
//! in the space of the processor grid (HPF template). Two communications can
//! be *combined* (§4.7) only when their mappings are identical or one is a
//! subset of the other, so that all but one message startup is saved.

use std::fmt;

/// Reduction operators supported by `sum(...)`-style communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReduceOp {
    /// Global addition.
    Sum,
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceOp::Sum => write!(f, "sum"),
        }
    }
}

/// The sender→receiver relationship of one communication. The order is
/// arbitrary but total: it groups equal mappings by sorting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mapping {
    /// Data is already local; no communication needed.
    Local,
    /// Template-space shift: every processor sends a boundary slab to the
    /// neighbour at `offsets` (one entry per grid axis). Nearest-neighbour
    /// communication (NNC) when every offset is within ±1.
    Shift {
        /// Per-grid-axis offset in processors.
        offsets: Vec<i64>,
    },
    /// Reduction of per-processor partial results to all processors.
    Reduction {
        /// Combining operator.
        op: ReduceOp,
    },
    /// One owner sends to all processors.
    Broadcast,
    /// All owners send to the single processor owning a constant position.
    ToConstant,
    /// An opaque many-to-many pattern; equal only to itself.
    General(u32),
}

impl Mapping {
    /// True for a nearest-neighbour shift (all offsets within ±1, not all
    /// zero).
    pub fn is_nnc(&self) -> bool {
        match self {
            Mapping::Shift { offsets } => {
                offsets.iter().any(|&o| o != 0) && offsets.iter().all(|&o| o.abs() <= 1)
            }
            _ => false,
        }
    }

    /// True if this mapping is a reduction.
    pub fn is_reduction(&self) -> bool {
        matches!(self, Mapping::Reduction { .. })
    }

    /// True when `self`'s sender→receiver pairs are a subset of `other`'s
    /// (the `M1 ⊆ M2` half of the paper's compatibility test). For the
    /// closed-form mappings this degenerates to equality, except that
    /// `Local` is a subset of everything.
    pub fn subset_of(&self, other: &Mapping) -> bool {
        if self == other {
            return true;
        }
        matches!(self, Mapping::Local)
    }

    /// True if two mappings may be combined into one message: identical, or
    /// one a subset of the other (§4.7: `M1 = M2 ∨ M1 ⊆ M2`).
    pub fn compatible(&self, other: &Mapping) -> bool {
        self.subset_of(other) || other.subset_of(self)
    }

    /// The number of distinct communication partners each processor has
    /// under this mapping on a grid with `nproc` processors (used by the
    /// §6.1 cost model).
    pub fn partners(&self, nproc: u64) -> u64 {
        match self {
            Mapping::Local => 0,
            Mapping::Shift { .. } => 1,
            // Tree-based reduction/broadcast: log2(P) rounds, one partner
            // per round.
            Mapping::Reduction { .. } | Mapping::Broadcast => {
                (64 - (nproc.max(1) - 1).leading_zeros()) as u64
            }
            Mapping::ToConstant => 1,
            Mapping::General(_) => nproc.saturating_sub(1),
        }
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mapping::Local => write!(f, "local"),
            Mapping::Shift { offsets } => {
                write!(f, "shift(")?;
                for (i, o) in offsets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{o:+}")?;
                }
                write!(f, ")")
            }
            Mapping::Reduction { op } => write!(f, "reduce({op})"),
            Mapping::Broadcast => write!(f, "bcast"),
            Mapping::ToConstant => write!(f, "gather"),
            Mapping::General(id) => write!(f, "general#{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnc_detection() {
        assert!(Mapping::Shift {
            offsets: vec![0, 1]
        }
        .is_nnc());
        assert!(Mapping::Shift {
            offsets: vec![-1, 1]
        }
        .is_nnc());
        assert!(!Mapping::Shift {
            offsets: vec![0, 0]
        }
        .is_nnc());
        assert!(!Mapping::Shift {
            offsets: vec![2, 0]
        }
        .is_nnc());
        assert!(!Mapping::Local.is_nnc());
    }

    #[test]
    fn compatibility_rules() {
        let e = Mapping::Shift {
            offsets: vec![0, 1],
        };
        let w = Mapping::Shift {
            offsets: vec![0, -1],
        };
        assert!(e.compatible(&e.clone()));
        assert!(!e.compatible(&w), "opposite shifts are separate messages");
        assert!(Mapping::Local.compatible(&e));
        let r = Mapping::Reduction { op: ReduceOp::Sum };
        assert!(r.compatible(&r.clone()));
        assert!(!r.compatible(&e));
        assert!(!Mapping::General(1).compatible(&Mapping::General(2)));
    }

    #[test]
    fn partner_counts() {
        let shift = Mapping::Shift {
            offsets: vec![1, 0],
        };
        assert_eq!(shift.partners(25), 1);
        let red = Mapping::Reduction { op: ReduceOp::Sum };
        assert_eq!(red.partners(8), 3);
        assert_eq!(red.partners(25), 5); // ceil(log2 25)
        assert_eq!(Mapping::Local.partners(25), 0);
        assert_eq!(Mapping::General(0).partners(25), 24);
    }

    #[test]
    fn display_nonempty() {
        for m in [
            Mapping::Local,
            Mapping::Shift {
                offsets: vec![1, -1],
            },
            Mapping::Reduction { op: ReduceOp::Sum },
            Mapping::Broadcast,
            Mapping::ToConstant,
            Mapping::General(3),
        ] {
            assert!(!m.to_string().is_empty());
        }
    }
}
