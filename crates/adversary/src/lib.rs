#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # sintra-adversary
//!
//! Generalized adversary structures for **SINTRA-RS** (Cachin,
//! *"Distributing Trust on the Internet"*, DSN 2001, §4).
//!
//! The classical fault model — "at most `t` of `n` servers fail" —
//! assumes faults strike servers independently and uniformly. Against a
//! malicious Internet adversary that assumption is fragile: one exploit
//! can take out every server running the same operating system at once.
//! The paper's answer is to describe *which subsets may fail together*
//! explicitly, as a monotone **adversary structure** `A`, and to require
//! only the `Q³` condition (no three sets of `A` cover the server set)
//! instead of `n > 3t`.
//!
//! This crate provides:
//!
//! * [`party`] — party identifiers and compact subset bitmasks,
//! * [`formula`] — monotone Boolean formulas over threshold gates
//!   `Θ_k^n`, the language in which structures are written,
//! * [`structure`] — [`structure::TrustStructure`], packaging the
//!   adversary/access structure pair, the `Q³`/`Q²` checks, and the
//!   generalized quorum predicates of §4.2 used by every protocol,
//! * [`attributes`] — server classification by attributes and faithful
//!   constructions of the paper's Examples 1 and 2,
//! * [`hybrid`] — the §6 extension treating crash failures separately
//!   from Byzantine corruptions.
//!
//! ## Example: the paper's 16-server grid
//!
//! ```
//! use sintra_adversary::attributes::{example2, example2_locations, example2_operating_systems};
//!
//! let ts = example2()?;
//! let corrupted = example2_locations().members(0)
//!     .union(&example2_operating_systems().members(1));
//! assert_eq!(corrupted.len(), 7);
//! assert!(ts.is_corruptible(&corrupted), "one site plus one OS is tolerated");
//! assert!(ts.satisfies_q3());
//! # Ok::<(), sintra_adversary::structure::StructureError>(())
//! ```

pub mod attributes;
pub mod formula;
pub mod hybrid;
pub mod party;
pub mod structure;

pub use formula::{Gate, MonotoneFormula};
pub use party::{PartyId, PartySet};
pub use structure::{StructureError, TrustStructure};
