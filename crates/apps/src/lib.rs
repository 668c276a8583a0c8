#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # sintra-apps
//!
//! Distributed trusted services on the SINTRA-RS architecture (Cachin,
//! *"Distributing Trust on the Internet"*, DSN 2001, §5).
//!
//! Each service is a deterministic [`sintra_rsm::StateMachine`]
//! replicated with [`sintra_rsm::atomic_replicas`] (or
//! [`sintra_rsm::causal_replicas`] when request confidentiality matters)
//! and answered with threshold-signature reply shares:
//!
//! * [`ca`] — a certification authority: the heart of a PKI, issuing
//!   threshold-signed certificates and managing revocation (§5.1);
//! * [`directory`] — a secure directory with authenticated lookups
//!   (DNS/LDAP-style, §5.1);
//! * [`notary`] — a digital notary / time-stamping registry whose
//!   requests must stay confidential until ordered (§5.2) — run it over
//!   secure causal atomic broadcast;
//! * [`auth`] — an authentication service issuing threshold-signed
//!   assertions.

pub mod auth;
pub mod ca;
pub mod codec;
pub mod directory;
pub mod notary;

pub use auth::{AuthRequest, AuthService};
pub use ca::{CaRequest, CertificationAuthority};
pub use directory::{DirRequest, DirectoryService};
pub use notary::{NotaryRequest, NotaryService};
