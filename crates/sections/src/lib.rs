//! # gcomm-sections — symbolic array sections, mappings, and ASDs
//!
//! The redundancy-elimination and message-combining analyses of *Global
//! Communication Analysis and Optimization* (PLDI 1996) operate on
//! **Available Section Descriptors** (ASDs, §4.6, after Gupta–Schonberg–
//! Srinivasan): a pair `(D, M)` of the *data* being communicated (an array
//! section) and the *mapping* describing which processors receive it.
//!
//! This crate provides:
//!
//! * [`symcmp`] — provable comparisons between affine bounds under the
//!   standard compiler assumption that size parameters are "large enough",
//! * [`section`] — regular sections (`lo:hi:step` per dimension) with
//!   subset, overlap, union-bounding-box, shape, and size operations,
//! * [`mapping`] — communication mappings: local, template-space shifts
//!   (nearest-neighbour when all offsets are within ±1), reductions,
//!   broadcasts, gathers to a constant processor, and opaque patterns,
//! * [`asd`] — the `(D, M)` descriptor with the paper's subsumption test
//!   `D1 ⊆ D2 ∧ M1(D1) ⊆ M2(D1)`.

pub mod asd;
pub mod mapping;
pub mod section;
pub mod symcmp;

pub use asd::Asd;
pub use mapping::{Mapping, ReduceOp};
pub use section::{DimSect, Section};
pub use symcmp::SymCtx;
