#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
//! # sintra-net
//!
//! Asynchronous-network substrate for **SINTRA-RS** (Cachin,
//! *"Distributing Trust on the Internet"*, DSN 2001).
//!
//! The paper's protocols are proved correct in a *completely
//! asynchronous* model where "the network is the adversary" (§2.2): the
//! adversary schedules every message, may delay any link arbitrarily
//! (but must eventually deliver between honest parties), and fully
//! controls corrupted servers. This crate substitutes for an Internet
//! deployment in two ways:
//!
//! * [`sim`] — a deterministic discrete-event simulator whose
//!   [`sim::Scheduler`] *is* the adversary: uniformly random, FIFO/LIFO,
//!   targeted starvation of victims, healing partitions, or arbitrary
//!   adaptive strategies with full view of message contents. Runs replay
//!   bit-identically from a seed, which is what the experiment harness
//!   needs.
//! * [`tcp_runtime`] — the same automata on real OS threads over real
//!   sockets, one node loop per replica driven by an epoll event loop
//!   ([`reactor`]), with seeded link faults from [`chaos`].
//!
//! Protocols are written once against the [`protocol::Protocol`]
//! automaton trait and run unchanged under both.

pub mod campaign;
pub mod chaos;
pub mod codec;
pub mod faults;
pub mod protocol;
pub mod reactor;
pub mod shard;
pub mod sim;
pub mod sys;
pub mod tcp_runtime;
#[cfg(test)]
mod thread_runtime;

pub use campaign::{
    replay_case, run_campaign, BehaviorKind, CampaignHooks, CampaignPlan, CampaignReport, CaseId,
    RunOutcome, SchedulerKind,
};
pub use chaos::{ChaosConfig, LinkFaults, Partition};
pub use codec::{CodecError, Reader, WireCodec, MAX_FRAME};
pub use protocol::{Effects, Protocol};
pub use shard::{ShardNetPlan, SHARD_BIND_RETRY};
pub use sim::{
    AdaptiveScheduler, Behavior, Envelope, FifoScheduler, LifoScheduler, LossyScheduler,
    PartitionScheduler, RandomScheduler, Scheduler, SimStats, Simulation, TargetedDelayScheduler,
};
pub use tcp_runtime::{
    run_tcp_loopback, run_tcp_node, run_tcp_node_driven, HandshakeError, LinkState, TcpNodeConfig,
    TcpNodeReport, TcpRuntime, DEFAULT_QUEUE_BYTES,
};
