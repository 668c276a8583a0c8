#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # sintra-protocols
//!
//! The secure asynchronous broadcast protocol stack of **SINTRA-RS**
//! (Cachin, *"Distributing Trust on the Internet"*, DSN 2001, §3),
//! built bottom-up exactly as the paper's architecture diagram:
//!
//! ```text
//! ┌─────────────────────────────────────────────┐
//! │      Secure Causal Atomic Broadcast         │  scabc
//! ├─────────────────────────────────────────────┤
//! │             Atomic Broadcast                │  abc
//! ├─────────────────────────────────────────────┤
//! │      Multi-valued Byzantine Agreement       │  mvba
//! ├──────────────────────┬──────────────────────┤
//! │ Broadcast Primitives │ Byzantine Agreement  │  rbc, cbc │ abba
//! └──────────────────────┴──────────────────────┘
//! ```
//!
//! * [`rbc`] — reliable broadcast (Bracha-Toueg, generalized quorums);
//! * [`cbc`] — consistent broadcast (echo broadcast with transferable
//!   threshold-signature vouchers);
//! * [`abba`] — randomized binary Byzantine agreement
//!   (Cachin-Kursawe-Shoup), expected-constant rounds, optionally
//!   *biased* with evidence-carrying 1-votes;
//! * [`mvba`] — multi-valued validated agreement with **external
//!   validity** (the paper's novel condition);
//! * [`abc`] — atomic broadcast: global rounds agreeing on sets of
//!   signed proposals, total order for state machine replication;
//! * [`scabc`] — secure causal atomic broadcast: CCA-threshold-encrypted
//!   requests ordered before decryption (input causality);
//! * [`fdabc`] — the *baseline* rotating-coordinator protocol with a
//!   timeout failure detector, used by the Figure-1 experiment to show
//!   what the asynchronous design buys.
//!
//! All protocols operate on [`sintra_adversary::TrustStructure`]
//! predicates, so the classical `n > 3t` and the paper's generalized
//! `Q³` structures (§4) run through identical code paths.

pub mod abba;
pub mod abc;
pub mod cbc;
pub mod codec;
pub mod common;
pub mod fdabc;
pub mod harness;
pub mod mvba;
pub mod nodes;
pub mod optimistic;
pub mod pool;
pub mod rbc;
pub mod scabc;
pub mod wire;
