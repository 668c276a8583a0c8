#![warn(missing_docs)]
//! # sintra-rsm
//!
//! Secure state machine replication for **SINTRA-RS** (Cachin,
//! *"Distributing Trust on the Internet"*, DSN 2001, §5).
//!
//! Trusted services are deterministic [`state::StateMachine`]s
//! replicated on all servers. Requests reach the replicas through an
//! ordering layer — plain atomic broadcast, or secure *causal* atomic
//! broadcast when request contents must stay confidential until they
//! are scheduled — and every replica answers with a partial reply
//! carrying a threshold-signature share. Clients recombine the shares
//! ([`client::ReplyCollector`]) into one answer verifiable against the
//! single service key, so the trust in `n` diverse servers condenses
//! back into one logical trusted service.

pub mod client;
pub mod codec;
pub mod config;
pub mod harness;
pub mod replica;
pub mod shard_router;
pub mod state;
pub mod txn;

pub use client::{ReplyCollector, ResubmittingClient, RsmClient, ServiceReply, TxnOutcome};
pub use config::ReplicaConfig;
pub use harness::{rsm_build, rsm_hooks, RsmNode};
pub use replica::{
    atomic_replica_with, atomic_replicas, atomic_replicas_with, causal_replica_with,
    causal_replicas, causal_replicas_with, ckpt_message, Ordered, OrderingLayer, Replica, Reply,
    RsmMessage, StableCheckpoint, DEFAULT_CKPT_INTERVAL,
};
pub use shard_router::{
    shard_config, shard_of, shard_tag, sharded_nodes, ShardId, ShardInput, ShardMessage,
    ShardReply, ShardedNode, MAX_SHARDS,
};
pub use state::{Checkpoint, EchoMachine, KvMachine, StateMachine};
pub use txn::{txid, txn_tokens, TxnAuth, TxnKvMachine, TxnTokens};
