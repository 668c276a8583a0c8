#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # SINTRA-RS
//!
//! A from-scratch Rust reproduction of **Christian Cachin,
//! *"Distributing Trust on the Internet"*, DSN 2001** — the architecture
//! later known as SINTRA (Secure INtrusion-Tolerant Replication
//! Architecture): secure, fault-tolerant service replication in a
//! completely asynchronous network where a malicious adversary corrupts
//! servers and controls all message scheduling.
//!
//! ## The stack
//!
//! ```text
//!  applications   │ certification authority, directory, notary, auth
//!  ───────────────┼──────────────────────────────────────────────────
//!  replication    │ deterministic state machines + threshold-signed
//!                 │ replies, client share recombination
//!  ───────────────┼──────────────────────────────────────────────────
//!  broadcast      │ secure causal atomic broadcast
//!                 │ atomic broadcast
//!                 │ multi-valued validated agreement (external validity)
//!                 │ binary randomized agreement (CKS, threshold coin)
//!                 │ reliable / consistent broadcast
//!  ───────────────┼──────────────────────────────────────────────────
//!  trust model    │ generalized Q³ adversary structures (beyond n>3t)
//!  ───────────────┼──────────────────────────────────────────────────
//!  cryptography   │ threshold coin / signatures / CCA encryption over
//!                 │ linear secret sharing (Benaloh-Leichter), all from
//!                 │ scratch on a 256-bit Schnorr group
//!  ───────────────┼──────────────────────────────────────────────────
//!  network        │ deterministic adversarial simulator + TCP runtime
//! ```
//!
//! ## Quickstart
//!
//! Deal a 4-server system tolerating one Byzantine corruption, replicate
//! a key-value directory, and order two writes:
//!
//! ```
//! use sintra::setup::dealt_system;
//! use sintra::rsm::{atomic_replicas, KvMachine};
//! use sintra::net::{RandomScheduler, Simulation};
//!
//! let (public, bundles) = dealt_system(4, 1, 42)?;
//! let replicas = atomic_replicas(public, bundles, |_| KvMachine::new(), 42);
//! let mut sim = Simulation::builder(replicas, RandomScheduler).seed(42).build();
//! sim.input(0, KvMachine::encode_set(b"name", b"sintra"));
//! sim.input(2, KvMachine::encode_set(b"year", b"2001"));
//! sim.run_until_quiet(50_000_000);
//! // All four replicas applied both writes in the same order.
//! for p in 0..4 {
//!     assert_eq!(sim.node(p).unwrap().machine().len(), 2);
//! }
//! # Ok::<(), sintra::adversary::StructureError>(())
//! ```

/// Generalized adversary structures (re-export of `sintra-adversary`).
pub mod adversary {
    pub use sintra_adversary::*;
}

/// Threshold cryptography substrate (re-export of `sintra-crypto`).
pub mod crypto {
    pub use sintra_crypto::*;
}

/// Network runtimes (re-export of `sintra-net`).
pub mod net {
    pub use sintra_net::*;
}

/// Observability: structured trace events, a bounded flight recorder,
/// per-instance metrics, and JSON/table sinks (re-export of
/// `sintra-obs`).
pub mod obs {
    pub use sintra_obs::*;
}

/// The broadcast/agreement protocol stack (re-export of
/// `sintra-protocols`).
pub mod protocols {
    pub use sintra_protocols::*;
}

/// State machine replication (re-export of `sintra-rsm`).
pub mod rsm {
    pub use sintra_rsm::*;
}

/// Trusted services (re-export of `sintra-apps`).
pub mod apps {
    pub use sintra_apps::*;
}

// The working set for instrumented runs, inlined at the crate root so
// a campaign or soak binary doesn't have to spell out the full paths.
#[doc(inline)]
pub use sintra_net::campaign::{run_campaign, CampaignPlan, CampaignReport};
#[doc(inline)]
pub use sintra_obs::{Event, EventKind, Layer, MetricsSnapshot, Obs};
#[doc(inline)]
pub use sintra_protocols::harness;

/// One-call system setup helpers.
pub mod setup {
    use sintra_adversary::structure::{StructureError, TrustStructure};
    use sintra_crypto::dealer::{Dealer, PublicParameters, ServerKeyBundle};
    use sintra_crypto::rng::SeededRng;

    /// Deals a classical `t`-of-`n` threshold system.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters (`t >= n` etc.).
    pub fn dealt_system(
        n: usize,
        t: usize,
        seed: u64,
    ) -> Result<(PublicParameters, Vec<ServerKeyBundle>), StructureError> {
        let ts = TrustStructure::threshold(n, t)?;
        Ok(Dealer::deal(&ts, &mut SeededRng::new(seed)))
    }

    /// Deals a system for an arbitrary trust structure.
    pub fn dealt_system_for(
        structure: &TrustStructure,
        seed: u64,
    ) -> (PublicParameters, Vec<ServerKeyBundle>) {
        Dealer::deal(structure, &mut SeededRng::new(seed))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn setup_helpers_work() {
        let (public, bundles) = crate::setup::dealt_system(4, 1, 1).unwrap();
        assert_eq!(public.n(), 4);
        assert_eq!(bundles.len(), 4);
        assert!(crate::setup::dealt_system(3, 3, 1).is_err());
        let ts = sintra_adversary::attributes::example1().unwrap();
        let (public, bundles) = crate::setup::dealt_system_for(&ts, 2);
        assert_eq!(public.n(), 9);
        assert_eq!(bundles.len(), 9);
    }
}
