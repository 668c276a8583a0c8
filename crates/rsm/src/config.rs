//! One builder for every replica knob.
//!
//! With G groups of n replicas, the same configuration — checkpoint
//! cadence, ordering-layer tuning, service tag, seed — must reach G×n
//! places identically. [`ReplicaConfig`] is the single value that
//! travels:
//! [`Replica::with_config`](crate::replica::Replica::with_config)
//! consumes it directly, and the shard router replicates it across
//! every group.

use sintra_adversary::party::PartyId;
use sintra_crypto::rng::SeededRng;
use sintra_protocols::abc::AbcTuning;
use sintra_protocols::common::Tag;

use crate::replica::DEFAULT_CKPT_INTERVAL;
use crate::shard_router::ShardId;

/// Complete replica configuration: service identity, checkpoint
/// cadence, ordering-layer tuning, and (for sharded deployments) the
/// group this replica orders for.
///
/// Build by chaining:
///
/// ```
/// use sintra_rsm::config::ReplicaConfig;
/// let cfg = ReplicaConfig::new()
///     .ckpt_interval(4)
///     .batch_cap(16)
///     .batch_bytes(64 << 10)
///     .pipeline_depth(2)
///     .seed(7);
/// assert_eq!(cfg.ckpt_interval, 4);
/// ```
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Domain-separation tag of the service. Sharded deployments derive
    /// one child tag per group from it (see
    /// [`shard_tag`](crate::shard_router::shard_tag)).
    pub tag: Tag,
    /// Checkpoint cadence in agreement rounds (≥ 1).
    pub ckpt_interval: u64,
    /// Ordering-layer hot-path tuning (batching + pipelining).
    pub tuning: AbcTuning,
    /// The shard (group) this replica orders for, if any: stamps
    /// per-shard metric labels and is carried by the shard router.
    pub shard: Option<ShardId>,
    /// Base seed for the replica's deterministic randomness; each
    /// party's rng is derived from it (see [`ReplicaConfig::rng_for`]).
    pub seed: u64,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            tag: Tag::root("rsm"),
            ckpt_interval: DEFAULT_CKPT_INTERVAL,
            tuning: AbcTuning::default(),
            shard: None,
            seed: 0,
        }
    }
}

impl ReplicaConfig {
    /// The default configuration: default checkpoint cadence and
    /// ordering-layer tuning, the `rsm` root tag, seed 0, no shard.
    pub fn new() -> ReplicaConfig {
        ReplicaConfig::default()
    }

    /// Sets the service tag.
    pub fn tag(mut self, tag: Tag) -> ReplicaConfig {
        self.tag = tag;
        self
    }

    /// Sets the checkpoint cadence in rounds (clamped to ≥ 1 on use).
    pub fn ckpt_interval(mut self, rounds: u64) -> ReplicaConfig {
        self.ckpt_interval = rounds;
        self
    }

    /// Sets the whole ordering-layer tuning at once.
    pub fn tuning(mut self, tuning: AbcTuning) -> ReplicaConfig {
        self.tuning = tuning;
        self
    }

    /// Sets the per-round proposal batch size.
    pub fn batch_cap(mut self, cap: usize) -> ReplicaConfig {
        self.tuning.batch_cap = cap;
        self
    }

    /// Sets the byte budget per proposed batch.
    pub fn batch_bytes(mut self, bytes: usize) -> ReplicaConfig {
        self.tuning.batch_bytes = bytes;
        self
    }

    /// Sets the rounds allowed concurrently in flight.
    pub fn pipeline_depth(mut self, depth: u64) -> ReplicaConfig {
        self.tuning.pipeline_depth = depth;
        self
    }

    /// Marks the replica as ordering for shard `shard`.
    pub fn shard(mut self, shard: ShardId) -> ReplicaConfig {
        self.shard = Some(shard);
        self
    }

    /// Sets the base randomness seed.
    pub fn seed(mut self, seed: u64) -> ReplicaConfig {
        self.seed = seed;
        self
    }

    /// The seed's sequential one-payload-per-round ordering profile
    /// (the unbatched benchmark baseline), keeping everything else.
    pub fn unbatched(mut self) -> ReplicaConfig {
        self.tuning = AbcTuning::unbatched();
        self
    }

    /// Derives party `party`'s replica rng from the base seed — the
    /// same derivation every builder helper has always used, so two
    /// deployments with equal configs are byte-for-byte reproducible.
    pub fn rng_for(&self, party: PartyId) -> SeededRng {
        SeededRng::new(self.seed ^ (party as u64).wrapping_mul(0xa076_1d64_78bd_642f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_defaults_match_layer_defaults() {
        let d = ReplicaConfig::default();
        assert_eq!(d.ckpt_interval, DEFAULT_CKPT_INTERVAL);
        assert_eq!(d.tuning, AbcTuning::default());
        assert!(d.shard.is_none());

        let c = ReplicaConfig::new()
            .ckpt_interval(4)
            .batch_cap(3)
            .batch_bytes(1 << 10)
            .pipeline_depth(5)
            .shard(2)
            .seed(99);
        assert_eq!(c.ckpt_interval, 4);
        assert_eq!(c.tuning.batch_cap, 3);
        assert_eq!(c.tuning.batch_bytes, 1 << 10);
        assert_eq!(c.tuning.pipeline_depth, 5);
        assert_eq!(c.shard, Some(2));
        assert_eq!(c.seed, 99);

        let u = ReplicaConfig::new().unbatched();
        assert_eq!(u.tuning, AbcTuning::unbatched());
    }

    #[test]
    fn rng_derivation_is_stable_per_party() {
        let cfg = ReplicaConfig::new().seed(7);
        let mut a = cfg.rng_for(0);
        let mut b = cfg.rng_for(0);
        assert_eq!(a.next_u64(), b.next_u64(), "same party, same stream");
        let mut c = cfg.rng_for(1);
        assert_ne!(cfg.rng_for(0).next_u64(), c.next_u64());
    }
}
