#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # sintra-crypto
//!
//! Threshold-cryptography substrate for **SINTRA-RS**, a reproduction of
//! Christian Cachin's *"Distributing Trust on the Internet"* (DSN 2001).
//!
//! The paper's architecture rests on three threshold-cryptographic tools
//! (§2.1), all provided here over a shared 256-bit Schnorr group:
//!
//! * a **threshold coin-tossing scheme** ([`coin`]) — the
//!   Cachin-Kursawe-Shoup Diffie-Hellman coin that drives randomized
//!   Byzantine agreement,
//! * a **threshold signature scheme** ([`tsig`]) with the
//!   share / verify-share / combine / verify interface,
//! * a **threshold public-key cryptosystem** ([`tenc`]) — a TDH2-style
//!   labelled, chosen-ciphertext-secure scheme used by secure causal
//!   atomic broadcast.
//!
//! All three are *generic over linear secret sharing schemes* ([`lsss`]),
//! so they support not only `t`-out-of-`n` thresholds but the paper's
//! generalized `Q³` adversary structures (§4) via the Benaloh-Leichter
//! construction.
//!
//! Everything is built from scratch: fixed-width 256-bit arithmetic
//! ([`u256`], [`field`]), SHA-256 ([`hash`]), the group ([`group`]), plain
//! Schnorr signatures ([`schnorr`]), Chaum-Pedersen proofs ([`dleq`]), and
//! the trusted dealer of the paper's setup model ([`dealer`]).
//!
//! ## Quickstart
//!
//! ```
//! use sintra_crypto::rng::SeededRng;
//! use sintra_crypto::hash::Sha256;
//!
//! let digest = Sha256::digest(b"hello sintra");
//! assert_eq!(digest.len(), 32);
//! let mut rng = SeededRng::new(1);
//! let s = rng.next_scalar();
//! assert_eq!(s + s - s, s);
//! ```

pub mod coin;
pub mod dealer;
pub mod dleq;
pub mod field;
pub mod group;
pub mod hash;
pub mod lsss;
pub mod rng;
pub mod schnorr;
pub mod shamir;
pub mod tenc;
pub mod tsig;
pub mod u256;

pub use field::{Fp, Scalar};
pub use group::GroupElement;
pub use rng::SeededRng;
