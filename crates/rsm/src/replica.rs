//! The replica engine: an ordering layer feeding a deterministic state
//! machine, answering with threshold-signature reply shares.
//!
//! §5: requests are delivered by atomic broadcast (or secure causal
//! atomic broadcast when request confidentiality matters); every server
//! applies them in the delivered order and returns a *partial answer* to
//! the client, who recombines. Because the service's signature scheme is
//! thresholdized, the partial answer carries a signature share over the
//! (request, answer) pair; a client combining shares from a qualified
//! set obtains a signature verifiable against the single service key —
//! clients need not know individual servers.

use crate::codec::{state_len, MAX_FRAME};
use crate::config::ReplicaConfig;
use crate::shard_router::ShardId;
use crate::state::StateMachine;
use sintra_adversary::party::{PartyId, PartySet};
use sintra_crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra_crypto::rng::SeededRng;
use sintra_crypto::tsig::{QuorumRule, SignatureShare, ThresholdSignature};
use sintra_net::protocol::{Context, Effects, Protocol};
use sintra_obs::{Event, EventKind, Layer};
use sintra_protocols::abc::{AbcMessage, AtomicBroadcast};
use sintra_protocols::common::{digest, Digest, Outbox, Tag};
use sintra_protocols::pool::VerifyPool;
use sintra_protocols::scabc::{ScabcMessage, SecureCausalAtomicBroadcast};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// One totally-ordered request as seen by the replica engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ordered {
    /// Position in the service's total order.
    pub seq: u64,
    /// The agreement round that fixed the position (deterministic
    /// across honest replicas; checkpoints bind to it).
    pub round: u64,
    /// Server whose proposal carried the request.
    pub origin: PartyId,
    /// The transport-layer dedup digest of the delivery: the payload
    /// digest for plain atomic broadcast, the *ciphertext* digest for
    /// the secure causal variant. Logged so state transfer can re-seed
    /// the transport's delivered-payload window exactly.
    pub tdigest: Digest,
    /// The request bytes.
    pub payload: Vec<u8>,
}

/// An ordering transport a replica can run on: plain atomic broadcast
/// or the secure causal variant.
pub trait OrderingLayer: core::fmt::Debug {
    /// Wire message type.
    type Message: Clone + core::fmt::Debug + Send;

    /// Submits a request for total ordering.
    fn submit(
        &mut self,
        payload: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<Self::Message>,
    ) -> Vec<Ordered>;

    /// Handles transport traffic.
    fn on_message(
        &mut self,
        from: PartyId,
        msg: Self::Message,
        rng: &mut SeededRng,
        out: &mut Outbox<Self::Message>,
    ) -> Vec<Ordered>;

    /// The current agreement round (lag detection for state transfer).
    fn current_round(&self) -> u64;

    /// Completed rounds the transport still retains (what its GC
    /// watermark bounds) — published as the `abc.retained_rounds`
    /// gauge so soak runs can assert boundedness.
    fn retained_rounds(&self) -> usize;

    /// Approximate bytes of retained transport state.
    fn retained_bytes(&self) -> usize;

    /// The transport's delivered-payload dedup window as
    /// `(delivery round, digest)` pairs in canonical order. Committed
    /// into checkpoint certificates so a rejoining replica restores
    /// dedup state it can trust.
    fn dedup_window(&self) -> Vec<(u64, Digest)>;

    /// Jumps past skipped history after a state transfer: delivery
    /// resumes at `next_seq` in round `next_round`, with the dedup
    /// window re-seeded from `dedup`.
    fn fast_forward(&mut self, next_seq: u64, next_round: u64, dedup: &[(u64, Digest)]);

    /// Tick hook: lets the transport apply off-thread verification
    /// verdicts and fire pipelined round transitions. Defaults to a
    /// no-op for transports without time-driven work.
    fn on_tick(&mut self, _rng: &mut SeededRng, _out: &mut Outbox<Self::Message>) -> Vec<Ordered> {
        Vec::new()
    }

    /// Agreement rounds currently open past the delivery frontier
    /// (published as the `abc.rounds_in_flight` gauge).
    fn rounds_in_flight(&self) -> u64 {
        0
    }

    /// Entry count of the transport's most recent proposal batch
    /// (published as the `abc.batch_size` gauge).
    fn last_batch_size(&self) -> u64 {
        0
    }

    /// Applies the ordering-layer portion of a [`ReplicaConfig`]
    /// (batching, pipelining, verification offload). Defaults to a
    /// no-op for transports without tunables.
    fn apply_config(&mut self, _cfg: &ReplicaConfig) {}
}

impl OrderingLayer for AtomicBroadcast {
    type Message = AbcMessage;

    fn submit(
        &mut self,
        payload: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<AbcMessage>,
    ) -> Vec<Ordered> {
        self.broadcast(payload, rng, out)
            .into_iter()
            .map(|d| Ordered {
                seq: d.seq,
                round: d.round,
                origin: d.origin,
                tdigest: digest(&d.payload),
                payload: d.payload,
            })
            .collect()
    }

    fn on_message(
        &mut self,
        from: PartyId,
        msg: AbcMessage,
        rng: &mut SeededRng,
        out: &mut Outbox<AbcMessage>,
    ) -> Vec<Ordered> {
        AtomicBroadcast::on_message(self, from, msg, rng, out)
            .into_iter()
            .map(|d| Ordered {
                seq: d.seq,
                round: d.round,
                origin: d.origin,
                tdigest: digest(&d.payload),
                payload: d.payload,
            })
            .collect()
    }

    fn current_round(&self) -> u64 {
        self.round()
    }

    fn retained_rounds(&self) -> usize {
        AtomicBroadcast::retained_rounds(self)
    }

    fn retained_bytes(&self) -> usize {
        AtomicBroadcast::retained_bytes(self)
    }

    fn dedup_window(&self) -> Vec<(u64, Digest)> {
        AtomicBroadcast::dedup_window(self)
    }

    fn fast_forward(&mut self, next_seq: u64, next_round: u64, dedup: &[(u64, Digest)]) {
        AtomicBroadcast::fast_forward(self, next_seq, next_round, dedup);
    }

    fn on_tick(&mut self, rng: &mut SeededRng, out: &mut Outbox<AbcMessage>) -> Vec<Ordered> {
        AtomicBroadcast::on_tick(self, rng, out)
            .into_iter()
            .map(|d| Ordered {
                seq: d.seq,
                round: d.round,
                origin: d.origin,
                tdigest: digest(&d.payload),
                payload: d.payload,
            })
            .collect()
    }

    fn rounds_in_flight(&self) -> u64 {
        AtomicBroadcast::rounds_in_flight(self)
    }

    fn last_batch_size(&self) -> u64 {
        AtomicBroadcast::last_batch_size(self)
    }

    fn apply_config(&mut self, cfg: &ReplicaConfig) {
        self.tune(&cfg.tuning);
        if cfg.verify_workers > 0 {
            self.set_verify_pool(VerifyPool::new(cfg.verify_workers));
        }
    }
}

impl OrderingLayer for SecureCausalAtomicBroadcast {
    type Message = ScabcMessage;

    fn submit(
        &mut self,
        payload: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<ScabcMessage>,
    ) -> Vec<Ordered> {
        // The request stays confidential until its order is fixed.
        self.broadcast_plaintext(&payload, b"rsm", rng, out)
            .into_iter()
            .map(|d| Ordered {
                seq: d.seq,
                round: d.round,
                origin: d.origin,
                tdigest: d.ct_digest,
                payload: d.plaintext,
            })
            .collect()
    }

    fn on_message(
        &mut self,
        from: PartyId,
        msg: ScabcMessage,
        rng: &mut SeededRng,
        out: &mut Outbox<ScabcMessage>,
    ) -> Vec<Ordered> {
        SecureCausalAtomicBroadcast::on_message(self, from, msg, rng, out)
            .into_iter()
            .map(|d| Ordered {
                seq: d.seq,
                round: d.round,
                origin: d.origin,
                tdigest: d.ct_digest,
                payload: d.plaintext,
            })
            .collect()
    }

    fn current_round(&self) -> u64 {
        self.abc().round()
    }

    fn retained_rounds(&self) -> usize {
        self.abc().retained_rounds()
    }

    fn retained_bytes(&self) -> usize {
        self.abc().retained_bytes()
    }

    fn dedup_window(&self) -> Vec<(u64, Digest)> {
        self.abc().dedup_window()
    }

    fn fast_forward(&mut self, next_seq: u64, next_round: u64, dedup: &[(u64, Digest)]) {
        SecureCausalAtomicBroadcast::fast_forward(self, next_seq, next_round, dedup);
    }

    fn on_tick(&mut self, rng: &mut SeededRng, out: &mut Outbox<ScabcMessage>) -> Vec<Ordered> {
        SecureCausalAtomicBroadcast::on_tick(self, rng, out)
            .into_iter()
            .map(|d| Ordered {
                seq: d.seq,
                round: d.round,
                origin: d.origin,
                tdigest: d.ct_digest,
                payload: d.plaintext,
            })
            .collect()
    }

    fn rounds_in_flight(&self) -> u64 {
        self.abc().rounds_in_flight()
    }

    fn last_batch_size(&self) -> u64 {
        self.abc().last_batch_size()
    }

    fn apply_config(&mut self, cfg: &ReplicaConfig) {
        self.abc_mut().tune(&cfg.tuning);
        if cfg.verify_workers > 0 {
            // Attach at the SCABC level so TDH2 decryption-share
            // batches go through the pool too, not just the ABC's
            // signature and coin shares.
            self.set_verify_pool(VerifyPool::new(cfg.verify_workers));
        }
    }
}

/// A partial service answer: the replica's response plus its signature
/// share. Clients combine shares from a qualified set into a service
/// signature ([`crate::client`]).
#[derive(Clone, Debug)]
pub struct Reply {
    /// Digest of the request this answers.
    pub request: Digest,
    /// Position of the request in the total order.
    pub seq: u64,
    /// The answering replica.
    pub replier: PartyId,
    /// The (deterministic) service answer.
    pub response: Vec<u8>,
    /// Signature share over `(request, seq, response)` under the
    /// service's threshold key.
    pub share: SignatureShare,
}

/// Builds the byte string the reply shares sign.
pub fn reply_message(tag: &Tag, request: &Digest, seq: u64, response: &[u8]) -> Vec<u8> {
    tag.message(&[b"reply", request, &seq.to_be_bytes(), response])
}

/// Builds the byte string checkpoint shares sign: the service tag binds
/// the certificate to this deployment, `seq`/`round` pin the prefix,
/// and `digest` commits to the machine state and the transport's
/// delivered-payload dedup window (see [`ckpt_digest`]).
pub fn ckpt_message(tag: &Tag, seq: u64, round: u64, digest: &Digest) -> Vec<u8> {
    tag.message(&[b"ckpt", &seq.to_be_bytes(), &round.to_be_bytes(), digest])
}

/// The digest a checkpoint certificate covers: the machine's state
/// root ([`StateMachine::checkpoint`]) *plus* the ordering layer's
/// delivered-payload dedup window. Binding the window into the
/// certificate means a rejoining replica restores dedup state vouched
/// for by a qualified quorum — its post-transfer skip/deliver decisions
/// then match the live quorum's exactly, so a Byzantine re-push of an
/// old payload cannot skew its sequence numbering relative to the
/// survivors.
pub fn ckpt_digest(state_root: &Digest, dedup: &[(u64, Digest)]) -> Digest {
    digest(&ckpt_preimage(state_root, dedup))
}

/// The bytes [`ckpt_digest`] hashes.
fn ckpt_preimage(state_root: &Digest, dedup: &[(u64, Digest)]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(36 + dedup.len() * 40);
    bytes.extend_from_slice(state_root);
    bytes.extend_from_slice(&(dedup.len() as u32).to_be_bytes());
    for (round, d) in dedup {
        bytes.extend_from_slice(&round.to_be_bytes());
        bytes.extend_from_slice(d);
    }
    bytes
}

/// Default checkpoint cadence in agreement rounds.
pub const DEFAULT_CKPT_INTERVAL: u64 = 8;

/// Cap on tracked submission times for the request-latency histogram.
const PENDING_LATENCY_CAP: usize = 4096;

/// Most log entries a single `State` response carries. A replica whose
/// lag exceeds the tail cap converges over repeated transfers (each
/// later checkpoint restarts the tail further along).
const STATE_TAIL_CAP: usize = 1024;

/// Cached replies retained for resubmitted requests.
const REPLY_CACHE_CAP: usize = 1024;

/// Initial state-fetch retry delay, in ticks; also the least spacing
/// at which a responder serves the same peer again, so an honest
/// fetcher's retries are never refused.
const FETCH_RETRY_TICKS: u64 = 8;

/// Largest `State` encoding worth building: what one transport frame
/// carries, less the shard id a [`crate::shard_router`] deployment
/// wraps around every message.
const STATE_FRAME_CAP: usize = MAX_FRAME - 4;

/// State-fetch retry backoff cap, in ticks.
const FETCH_RETRY_CAP: u64 = 128;

/// Fetch attempts before the job resolves: it adopts whatever certified
/// snapshot arrived (applying only the vouched tail prefix) or, with no
/// response at all, is abandoned. Without this cap a fetch for a
/// checkpoint nobody serves would rebroadcast `FetchState` forever.
const MAX_FETCH_ATTEMPTS: u32 = 8;

/// Most checkpoint-signature shares pooled from a single sender. A
/// Byzantine party can sign shares over arbitrary fabricated
/// `(seq, round, digest)` tuples; the cap keeps its pool footprint
/// bounded while honest senders (at most a couple of checkpoints in
/// flight) never hit it.
const CKPT_POOL_PER_SENDER: usize = 8;

/// How far past our current round a checkpoint share may claim and
/// still be pooled toward a certificate. Plausible near-future shares
/// (peers running slightly ahead) land inside it; anything farther is
/// at most a state-transfer *hint* (one slot per sender), never pooled.
const CKPT_POOL_LOOKAHEAD: u64 = 32;

/// How far past the replayed tail a `State` responder's claimed current
/// round may fast-forward us. Bounds the damage of a lying responder:
/// an over-claimed round would stall us waiting for a future round, so
/// the jump is clamped near what the certified prefix proves and later
/// checkpoint shares re-trigger a fetch if we are still behind.
const ROUND_JUMP_SLACK: u64 = 16;

/// Replica wire traffic: ordering-layer messages plus the
/// checkpoint/state-transfer control plane.
#[derive(Clone, Debug)]
pub enum RsmMessage<M> {
    /// Ordering-layer traffic, forwarded verbatim.
    Order(M),
    /// One replica's signature share over a checkpoint digest.
    CkptShare {
        /// Next sequence number after the checkpointed prefix.
        seq: u64,
        /// Round whose delivery completed the prefix.
        round: u64,
        /// Digest of the state-machine snapshot at the checkpoint.
        digest: Digest,
        /// Signature share over [`ckpt_message`].
        share: SignatureShare,
    },
    /// A lagging replica's request for a certified snapshot.
    FetchState {
        /// The requester's applied sequence number.
        have_seq: u64,
    },
    /// A certified snapshot plus the tail of ordered requests after it.
    State {
        /// Next sequence after the snapshot.
        seq: u64,
        /// Round of the checkpoint.
        round: u64,
        /// The responder's current agreement round (advisory; clamped
        /// by the receiver).
        next_round: u64,
        /// State-machine snapshot bytes.
        snapshot: Vec<u8>,
        /// The transport dedup window at the checkpoint (covered by the
        /// certificate together with the snapshot).
        dedup: Vec<(u64, Digest)>,
        /// Threshold certificate over the checkpoint message.
        cert: ThresholdSignature,
        /// Ordered requests after the snapshot:
        /// `(seq, round, transport digest, payload)`. NOT covered by
        /// the certificate — the receiver applies only entries vouched
        /// for by a qualified set of distinct responders.
        tail: Vec<(u64, u64, Digest, Vec<u8>)>,
    },
}

/// A checkpoint carrying a qualified-quorum certificate: the replica
/// serves state transfers from it and prunes everything older.
#[derive(Clone, Debug)]
pub struct StableCheckpoint<S> {
    /// Next sequence after the checkpointed prefix.
    pub seq: u64,
    /// Round whose delivery completed the prefix.
    pub round: u64,
    /// The [`ckpt_digest`] the certificate covers (state root ‖ dedup
    /// window).
    pub digest: Digest,
    /// The machine as it stood at the checkpoint. A clone, so it shares
    /// with the live machine whatever that has not written since;
    /// serialised only when a transfer is served.
    pub frozen: S,
    /// Length of `frozen.snapshot()`, known without serialising.
    pub encoded_len: usize,
    /// The transport dedup window at the checkpoint.
    pub dedup: Vec<(u64, Digest)>,
    /// Threshold signature over [`ckpt_message`] by a qualified set.
    pub cert: ThresholdSignature,
}

impl<S: StateMachine> StableCheckpoint<S> {
    /// Serialises the checkpointed state.
    pub fn snapshot(&self) -> Vec<u8> {
        self.frozen.snapshot()
    }
}

/// One ordered-log entry as shipped in a `State` tail:
/// `(seq, round, transport digest, payload)`.
type TailEntry = (u64, u64, Digest, Vec<u8>);

/// A locally taken checkpoint awaiting its certificate.
#[derive(Debug)]
struct PendingCkpt<S> {
    round: u64,
    digest: Digest,
    frozen: S,
    encoded_len: usize,
    dedup: Vec<(u64, Digest)>,
}

/// The best certified `State` response collected so far during a fetch,
/// with each responder's (uncertified) `next_round` claim and tail kept
/// separately: a tail entry is applied only once identical copies
/// arrive from a qualified set of distinct responders — a set no
/// corruptible coalition covers, so at least one honest replica vouches
/// for every applied entry — and the resume round is taken from a
/// responder group that vouched the *entire* tail, so the jump can
/// never skip past deliveries that were not replayed.
#[derive(Debug)]
struct Candidate {
    seq: u64,
    round: u64,
    digest: Digest,
    snapshot: Vec<u8>,
    dedup: Vec<(u64, Digest)>,
    cert: ThresholdSignature,
    tails: BTreeMap<PartyId, (u64, Vec<TailEntry>)>,
}

/// An in-flight state-transfer request with retry backoff, bounded
/// attempts, and the certified candidate under collection.
#[derive(Debug)]
struct FetchJob {
    retry_in: u64,
    backoff: u64,
    attempts: u32,
    candidate: Option<Candidate>,
}

/// A replicated-service node: ordering layer + state machine + reply
/// signing + checkpoint/state-transfer.
#[derive(Debug)]
pub struct Replica<L: OrderingLayer, S: StateMachine> {
    tag: Tag,
    layer: L,
    machine: S,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    rng: SeededRng,
    /// Next sequence number to apply.
    applied: u64,
    ckpt_interval: u64,
    /// Requests applied since the stable checkpoint: seq → (round,
    /// transport digest, payload). Served as the `State` tail; pruned
    /// at stabilization.
    log: BTreeMap<u64, (u64, Digest, Vec<u8>)>,
    /// Locally taken checkpoints awaiting certificates, keyed by seq.
    pending_ckpts: BTreeMap<u64, PendingCkpt<S>>,
    /// Verified checkpoint shares, keyed by (seq, round, digest).
    /// Bounded: only near-future rounds are pooled, with a per-sender
    /// cap, so Byzantine fabricated tuples cannot pin memory.
    ckpt_shares: HashMap<(u64, u64, Digest), Vec<SignatureShare>>,
    /// Each sender's latest far-ahead checkpoint claim (one slot per
    /// sender). A fetch starts only when the same claim is made by a
    /// qualified set of senders — a single Byzantine replica cannot
    /// put an up-to-date replica into fetch mode.
    ckpt_hints: Vec<Option<(u64, u64, Digest)>>,
    stable: Option<StableCheckpoint<S>>,
    /// Bytes the parked checkpoints (pending and stable) pin beyond the
    /// live state. Walking their buckets is too slow for the
    /// per-message gauge, so this is refreshed whenever a checkpoint is
    /// cut, certified or adopted — at least once per interval.
    parked_bytes: usize,
    /// Answered requests: seq → (request digest, response); lets a
    /// resubmitted request be re-answered without re-ordering it.
    reply_cache: BTreeMap<u64, (Digest, Vec<u8>)>,
    reply_index: HashMap<Digest, u64>,
    fetch: Option<FetchJob>,
    /// Ticks seen; the clock `served_at` is read against.
    ticks: u64,
    /// Per peer, the tick at which we last served it a `State`.
    served_at: Vec<Option<u64>>,
    /// Index of the last checkpoint-interval boundary acted on
    /// (`(round + 1) / ckpt_interval` at the triggering delivery).
    /// With pipelining, a boundary round can be empty (all-filler) and
    /// deliver nothing, so checkpoints fire at the first
    /// payload-carrying round at or past each boundary — identical at
    /// every replica, since all deliver the same payloads in the same
    /// rounds.
    ckpt_div: u64,
    /// Submission time (virtual `ctx.at`) of locally submitted requests
    /// not yet applied, keyed by request digest. Drives the
    /// `rsm.request_latency` histogram (p50/p99 end-to-end latency);
    /// bounded so a flood of never-ordered requests cannot pin memory.
    pending_at: HashMap<Digest, u64>,
    /// The shard (group) this replica orders for, if any. Stamps the
    /// per-shard metric labels so a G×n deployment stays attributable.
    shard: Option<ShardId>,
}

impl<L: OrderingLayer, S: StateMachine> Replica<L, S> {
    /// Assembles a replica from positional arguments with default
    /// checkpoint cadence and no shard identity.
    #[deprecated(note = "use Replica::with_config with a ReplicaConfig")]
    pub fn new(
        tag: Tag,
        layer: L,
        machine: S,
        public: Arc<PublicParameters>,
        bundle: Arc<ServerKeyBundle>,
        rng: SeededRng,
    ) -> Self {
        Self::assemble(
            tag,
            layer,
            machine,
            public,
            bundle,
            rng,
            DEFAULT_CKPT_INTERVAL,
            None,
        )
    }

    /// Assembles a replica from a [`ReplicaConfig`]: applies the
    /// ordering-layer tuning (batching, pipelining, verification
    /// offload), derives the party rng from the config seed, and stamps
    /// the shard identity.
    pub fn with_config(
        mut layer: L,
        machine: S,
        public: Arc<PublicParameters>,
        bundle: Arc<ServerKeyBundle>,
        cfg: &ReplicaConfig,
    ) -> Self {
        layer.apply_config(cfg);
        let rng = cfg.rng_for(bundle.party());
        Self::assemble(
            cfg.tag.clone(),
            layer,
            machine,
            public,
            bundle,
            rng,
            cfg.ckpt_interval.max(1),
            cfg.shard,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        tag: Tag,
        layer: L,
        machine: S,
        public: Arc<PublicParameters>,
        bundle: Arc<ServerKeyBundle>,
        rng: SeededRng,
        ckpt_interval: u64,
        shard: Option<ShardId>,
    ) -> Self {
        let n = public.n();
        Replica {
            tag,
            layer,
            machine,
            public,
            bundle,
            rng,
            applied: 0,
            ckpt_interval,
            log: BTreeMap::new(),
            pending_ckpts: BTreeMap::new(),
            ckpt_shares: HashMap::new(),
            ckpt_hints: vec![None; n],
            stable: None,
            parked_bytes: 0,
            reply_cache: BTreeMap::new(),
            reply_index: HashMap::new(),
            fetch: None,
            ticks: 0,
            served_at: vec![None; n],
            ckpt_div: 0,
            pending_at: HashMap::new(),
            shard,
        }
    }

    /// Read access to the state machine (inspection in tests).
    pub fn machine(&self) -> &S {
        &self.machine
    }

    /// Read access to the ordering layer (inspection in tests).
    pub fn layer(&self) -> &L {
        &self.layer
    }

    /// Mutable access to the ordering layer (test configuration).
    pub fn layer_mut(&mut self) -> &mut L {
        &mut self.layer
    }

    /// This replica's party id.
    pub fn party(&self) -> PartyId {
        self.bundle.party()
    }

    /// Next sequence number this replica will apply.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The latest certified checkpoint, if any.
    pub fn stable_checkpoint(&self) -> Option<&StableCheckpoint<S>> {
        self.stable.as_ref()
    }

    /// The checkpoint cadence in rounds.
    pub fn ckpt_interval(&self) -> u64 {
        self.ckpt_interval
    }

    /// Overrides the checkpoint cadence (clamped to ≥ 1).
    #[deprecated(note = "set ckpt_interval on a ReplicaConfig instead")]
    pub fn set_ckpt_interval(&mut self, rounds: u64) {
        self.ckpt_interval = rounds.max(1);
    }

    /// The shard this replica orders for, if it was built for one.
    pub fn shard(&self) -> Option<ShardId> {
        self.shard
    }

    /// Whether a state transfer is in flight.
    pub fn is_fetching(&self) -> bool {
        self.fetch.is_some()
    }

    /// Log entries retained since the last stable checkpoint.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Approximate bytes pinned by the log, reply cache, and parked
    /// checkpoints. A parked checkpoint counts for what it alone keeps
    /// alive — the state the live machine has since overwritten — not
    /// for the size of the state it describes.
    pub fn retained_bytes(&self) -> usize {
        let log: usize = self.log.values().map(|(_, _, p)| p.len() + 48).sum();
        let cache: usize = self.reply_cache.values().map(|(_, r)| r.len() + 40).sum();
        log + cache + self.parked_bytes
    }

    fn refresh_parked_bytes(&mut self) {
        let parked = |frozen: &S, encoded_len: usize, dedup: &[(u64, Digest)]| {
            frozen.pinned_bytes(&self.machine).unwrap_or(encoded_len) + dedup.len() * 40 + 48
        };
        let pending: usize = self
            .pending_ckpts
            .values()
            .map(|p| parked(&p.frozen, p.encoded_len, &p.dedup))
            .sum();
        let stable = self
            .stable
            .as_ref()
            .map_or(0, |s| parked(&s.frozen, s.encoded_len, &s.dedup));
        self.parked_bytes = pending + stable;
    }

    /// Total pooled checkpoint-signature shares (observability for the
    /// Byzantine-flooding bound tests).
    pub fn pooled_ckpt_shares(&self) -> usize {
        self.ckpt_shares.values().map(Vec::len).sum()
    }

    fn record(&self, ctx: &Context) {
        if !ctx.obs.is_enabled() {
            return;
        }
        ctx.obs
            .gauge_set(Layer::Rsm, "log_entries", self.log.len() as u64);
        ctx.obs
            .gauge_set(Layer::Rsm, "reply_cache", self.reply_cache.len() as u64);
        ctx.obs.gauge_set(
            Layer::Rsm,
            "stable_seq",
            self.stable.as_ref().map_or(0, |s| s.seq),
        );
        ctx.obs
            .gauge_set(Layer::Rsm, "retained_bytes", self.retained_bytes() as u64);
        ctx.obs.gauge_set(
            Layer::Abc,
            "retained_rounds",
            self.layer.retained_rounds() as u64,
        );
        ctx.obs.gauge_set(
            Layer::Abc,
            "retained_bytes",
            self.layer.retained_bytes() as u64,
        );
        ctx.obs.gauge_set(
            Layer::Abc,
            "rounds_in_flight",
            self.layer.rounds_in_flight(),
        );
        ctx.obs
            .gauge_set(Layer::Abc, "batch_size", self.layer.last_batch_size());
        if let Some(shard) = self.shard {
            // Per-group watermarks: which shard a gauge belongs to is
            // what makes a G×n benchmark attributable.
            ctx.obs.gauge_set_shard(
                Layer::Abc,
                "rounds_in_flight",
                shard,
                self.layer.rounds_in_flight(),
            );
            ctx.obs
                .gauge_set_shard(Layer::Shard, "round", shard, self.layer.current_round());
            ctx.obs
                .gauge_set_shard(Layer::Shard, "applied", shard, self.applied);
        }
    }

    fn cache_reply(&mut self, seq: u64, request: Digest, response: Vec<u8>) {
        self.reply_cache.insert(seq, (request, response));
        self.reply_index.insert(request, seq);
        while self.reply_cache.len() > REPLY_CACHE_CAP {
            if let Some((_, (req, _))) = self.reply_cache.pop_first() {
                self.reply_index.remove(&req);
            }
        }
    }

    fn answer(
        &mut self,
        ctx: &Context,
        ordered: Vec<Ordered>,
        fx: &mut Effects<RsmMessage<L::Message>, Reply>,
    ) {
        for i in 0..ordered.len() {
            let o = &ordered[i];
            ctx.obs.inc(Layer::Rsm, "ordered");
            let response = if ctx.obs.is_enabled() {
                let started = Instant::now();
                let response = self.machine.apply(&o.payload);
                ctx.obs
                    .observe(Layer::Rsm, "apply_ns", started.elapsed().as_nanos() as u64);
                response
            } else {
                self.machine.apply(&o.payload)
            };
            let request = digest(&o.payload);
            if let Some(at) = self.pending_at.remove(&request) {
                // End-to-end request latency in the runtime's time unit
                // (virtual steps in simulations, nanoseconds on the TCP
                // runtime) — submit to apply, through ordering.
                let elapsed = ctx.at.saturating_sub(at);
                ctx.obs.observe(Layer::Rsm, "request_latency", elapsed);
                if let Some(shard) = self.shard {
                    ctx.obs
                        .observe_shard(Layer::Rsm, "request_latency", shard, elapsed);
                }
            }
            let msg = reply_message(&self.tag, &request, o.seq, &response);
            let share = self.bundle.signing_key().sign_share(&msg, &mut self.rng);
            ctx.obs.event(
                Event::new(Layer::Rsm, EventKind::Deliver, self.bundle.party())
                    .round(o.seq as u32)
                    .at(ctx.at),
            );
            self.applied = o.seq + 1;
            self.log
                .insert(o.seq, (o.round, o.tdigest, o.payload.clone()));
            self.cache_reply(o.seq, request, response.clone());
            fx.output(Reply {
                request,
                seq: o.seq,
                replier: self.bundle.party(),
                response,
                share,
            });
            // The ordering layer never splits a round across delivery
            // batches, so the last entry of each round is a point every
            // honest replica reaches with identical state.
            let end_of_round = ordered.get(i + 1).is_none_or(|n| n.round != o.round);
            if end_of_round && (o.round + 1) / self.ckpt_interval > self.ckpt_div {
                self.ckpt_div = (o.round + 1) / self.ckpt_interval;
                self.take_checkpoint(o.seq + 1, o.round, ctx, fx);
            }
        }
    }

    fn take_checkpoint(
        &mut self,
        seq: u64,
        round: u64,
        ctx: &Context,
        fx: &mut Effects<RsmMessage<L::Message>, Reply>,
    ) {
        if self.stable.as_ref().is_some_and(|s| s.seq >= seq) {
            return;
        }
        let state = self.machine.checkpoint();
        let dedup = self.layer.dedup_window();
        let preimage = ckpt_preimage(&state.root, &dedup);
        let d = digest(&preimage);
        let msg = ckpt_message(&self.tag, seq, round, &d);
        let share = self.bundle.signing_key().sign_share(&msg, &mut self.rng);
        ctx.obs.inc(Layer::Rsm, "ckpt_taken");
        ctx.obs.add(
            Layer::Rsm,
            "ckpt_hashed_bytes",
            (state.hashed_bytes + preimage.len()) as u64,
        );
        self.pending_ckpts.insert(
            seq,
            PendingCkpt {
                round,
                digest: d,
                frozen: self.machine.clone(),
                encoded_len: state.encoded_len,
                dedup,
            },
        );
        self.refresh_parked_bytes();
        // Broadcast includes self: our own share joins the pool through
        // the normal delivery path.
        fx.broadcast(RsmMessage::CkptShare {
            seq,
            round,
            digest: d,
            share,
        });
    }

    #[allow(clippy::too_many_arguments)] // mirrors the CkptShare fields
    fn on_ckpt_share(
        &mut self,
        ctx: &Context,
        from: PartyId,
        seq: u64,
        round: u64,
        d: Digest,
        share: SignatureShare,
        fx: &mut Effects<RsmMessage<L::Message>, Reply>,
    ) {
        if share.party() != from || from >= self.ckpt_hints.len() {
            ctx.obs.inc(Layer::Rsm, "ckpt_share_rejected");
            return;
        }
        let msg = ckpt_message(&self.tag, seq, round, &d);
        if !self.public.signing().verify_share(&msg, &share) {
            ctx.obs.inc(Layer::Rsm, "ckpt_share_rejected");
            return;
        }
        // A verified share for a round far past ours means we missed
        // history the group may already have pruned. A single share is
        // only a *hint* — any one replica can sign shares over
        // fabricated tuples — so record it (one slot per sender) and
        // fetch once a qualified set of senders makes the same claim.
        if seq > self.applied && round > self.layer.current_round() + self.ckpt_interval {
            self.ckpt_hints[from] = Some((seq, round, d));
            self.maybe_start_fetch(ctx, fx);
            return; // far-ahead shares are never pooled: we cannot
                    // have a matching pending checkpoint to certify
        }
        if self.stable.as_ref().is_some_and(|s| s.seq >= seq) {
            return;
        }
        // Pool bounds (Byzantine senders can fabricate tuples freely):
        // only plausibly-near rounds, and only a capped number of
        // shares per sender.
        if round > self.layer.current_round() + CKPT_POOL_LOOKAHEAD {
            ctx.obs.inc(Layer::Rsm, "ckpt_share_rejected");
            return;
        }
        let pooled_from = self
            .ckpt_shares
            .values()
            .flat_map(|v| v.iter())
            .filter(|s| s.party() == from)
            .count();
        if pooled_from >= CKPT_POOL_PER_SENDER {
            ctx.obs.inc(Layer::Rsm, "ckpt_share_rejected");
            return;
        }
        let shares = self.ckpt_shares.entry((seq, round, d)).or_default();
        if shares.iter().any(|s| s.party() == share.party()) {
            return;
        }
        shares.push(share);
        let signers: PartySet = shares.iter().map(|s| s.party()).collect();
        if !self.public.structure().is_qualified(&signers) {
            return;
        }
        let Ok(cert) = self
            .public
            .signing()
            .combine_preverified(shares, QuorumRule::Qualified)
        else {
            return;
        };
        match self.pending_ckpts.remove(&seq) {
            Some(p) if p.digest == d && p.round == round => {
                ctx.obs.inc(Layer::Rsm, "ckpt_stable");
                self.stable = Some(StableCheckpoint {
                    seq,
                    round,
                    digest: d,
                    frozen: p.frozen,
                    encoded_len: p.encoded_len,
                    dedup: p.dedup,
                    cert,
                });
                self.prune_to(seq);
                self.refresh_parked_bytes();
            }
            Some(p) => {
                // A quorum certified a snapshot that differs from ours:
                // keep ours pending (and surface the divergence).
                ctx.obs.inc(Layer::Rsm, "ckpt_mismatch");
                self.pending_ckpts.insert(seq, p);
            }
            // We never took this checkpoint (still catching up).
            None => {}
        }
    }

    /// Drops rounds-old bookkeeping once a checkpoint at `seq` is
    /// certified: the log prefix, superseded pending checkpoints, and
    /// share pools for older checkpoints.
    fn prune_to(&mut self, seq: u64) {
        self.log = self.log.split_off(&seq);
        self.pending_ckpts = self.pending_ckpts.split_off(&(seq + 1));
        self.ckpt_shares.retain(|(s, _, _), _| *s > seq);
    }

    /// A checkpoint claimed — identically — by a qualified set of
    /// senders, strictly ahead of our applied prefix and current round.
    /// Qualified means no corruptible coalition covers the claimants,
    /// so at least one honest replica certifies the history exists.
    fn hinted_fetch_target(&self) -> Option<(u64, u64, Digest)> {
        let horizon = self.layer.current_round() + self.ckpt_interval;
        let mut groups: HashMap<(u64, u64, Digest), PartySet> = HashMap::new();
        for (p, hint) in self.ckpt_hints.iter().enumerate() {
            if let Some((seq, round, d)) = hint {
                if *seq > self.applied && *round > horizon {
                    groups.entry((*seq, *round, *d)).or_default().insert(p);
                }
            }
        }
        groups
            .into_iter()
            .filter(|(_, set)| self.public.structure().is_qualified(set))
            .map(|(claim, _)| claim)
            .max()
    }

    fn maybe_start_fetch(
        &mut self,
        ctx: &Context,
        fx: &mut Effects<RsmMessage<L::Message>, Reply>,
    ) {
        if self.fetch.is_some() || self.hinted_fetch_target().is_none() {
            return;
        }
        ctx.obs.inc(Layer::Rsm, "state_fetch_started");
        self.fetch = Some(FetchJob {
            retry_in: FETCH_RETRY_TICKS,
            backoff: FETCH_RETRY_TICKS,
            attempts: 0,
            candidate: None,
        });
        fx.broadcast(RsmMessage::FetchState {
            have_seq: self.applied,
        });
    }

    fn on_fetch_state(
        &mut self,
        ctx: &Context,
        from: PartyId,
        have_seq: u64,
        fx: &mut Effects<RsmMessage<L::Message>, Reply>,
    ) {
        let Some(stable) = &self.stable else { return };
        if stable.seq <= have_seq || from >= self.served_at.len() {
            return;
        }
        // A nine-byte request buys an encode and up to a megabyte on
        // the wire, so a peer is served no more often than an honest
        // fetcher asks.
        if self.served_at[from].is_some_and(|at| self.ticks < at + FETCH_RETRY_TICKS) {
            ctx.obs.inc(Layer::Rsm, "state_serve_throttled");
            return;
        }
        let tail = || self.log.range(stable.seq..).take(STATE_TAIL_CAP);
        let frame_len = state_len(
            stable.encoded_len,
            stable.dedup.len(),
            &stable.cert,
            tail().map(|(_, (_, _, p))| p.len()),
        );
        if frame_len > STATE_FRAME_CAP {
            // The transport would drop it at origin: don't serialise
            // what cannot be carried. Chunked pull lifts the limit.
            ctx.obs.inc(Layer::Rsm, "state_too_large");
            return;
        }
        self.served_at[from] = Some(self.ticks);
        ctx.obs.inc(Layer::Rsm, "state_served");
        fx.send(
            from,
            RsmMessage::State {
                seq: stable.seq,
                round: stable.round,
                next_round: self.layer.current_round(),
                snapshot: stable.snapshot(),
                dedup: stable.dedup.clone(),
                cert: stable.cert.clone(),
                tail: tail()
                    .map(|(s, (r, td, p))| (*s, *r, *td, p.clone()))
                    .collect(),
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_state(
        &mut self,
        ctx: &Context,
        from: PartyId,
        seq: u64,
        round: u64,
        next_round: u64,
        snapshot: Vec<u8>,
        dedup: Vec<(u64, Digest)>,
        cert: ThresholdSignature,
        tail: Vec<(u64, u64, Digest, Vec<u8>)>,
    ) {
        if seq <= self.applied {
            return;
        }
        // Transfers are strictly pull: unsolicited `State` pushes are
        // dropped, so a Byzantine replica cannot warp an up-to-date
        // replica forward at will.
        if self.fetch.is_none() {
            ctx.obs.inc(Layer::Rsm, "state_rejected");
            return;
        }
        // The certificate covers the state root, not the bytes: restore
        // them into a scratch machine and recompute it.
        let Some(root) = self.machine.snapshot_root(&snapshot) else {
            ctx.obs.inc(Layer::Rsm, "state_rejected");
            return;
        };
        let d = ckpt_digest(&root, &dedup);
        let msg = ckpt_message(&self.tag, seq, round, &d);
        if !self
            .public
            .signing()
            .verify(&msg, &cert, QuorumRule::Qualified)
        {
            ctx.obs.inc(Layer::Rsm, "state_rejected");
            return;
        }
        let job = self.fetch.as_mut().expect("checked above");
        match &mut job.candidate {
            Some(c) if c.seq == seq && c.round == round && c.digest == d => {
                c.tails.insert(from, (next_round, tail));
            }
            Some(c) if c.seq >= seq => {
                // Older than (or conflicting at) what we already hold;
                // agreement makes a genuine same-seq conflict of
                // certified checkpoints impossible, so keep the first.
                return;
            }
            _ => {
                let mut tails = BTreeMap::new();
                tails.insert(from, (next_round, tail));
                job.candidate = Some(Candidate {
                    seq,
                    round,
                    digest: d,
                    snapshot,
                    dedup,
                    cert,
                    tails,
                });
            }
        }
        self.try_adopt(ctx, false);
    }

    /// Resolves the fetch if it can: immediately once a qualified set
    /// of responders agrees on the *entire* transfer (the normal path),
    /// or — when `force`d by the retry cap — with whatever certified
    /// snapshot arrived, applying only the tail prefix that is still
    /// vouched and resuming at a conservatively early round.
    fn try_adopt(&mut self, ctx: &Context, force: bool) {
        let plan = match &self.fetch {
            Some(FetchJob {
                candidate: Some(c), ..
            }) => {
                let plan = plan_adoption(c, &self.public);
                if force || plan.target_round.is_some() {
                    Some(plan)
                } else {
                    None
                }
            }
            Some(_) => None,
            None => return,
        };
        let Some(plan) = plan else {
            if force {
                // Attempts exhausted with nothing certified to show:
                // abandon rather than rebroadcast forever.
                ctx.obs.inc(Layer::Rsm, "state_fetch_abandoned");
                self.fetch = None;
            }
            return;
        };
        let job = self.fetch.take().expect("checked above");
        let c = job.candidate.expect("checked above");
        self.adopt(ctx, c, plan);
    }

    fn adopt(&mut self, ctx: &Context, c: Candidate, plan: AdoptionPlan) {
        if c.seq <= self.applied {
            return; // caught up through the normal path meanwhile
        }
        if !self.machine.restore(&c.snapshot) {
            // A certified snapshot our machine cannot parse means a
            // code/version mismatch; the machine left itself untouched.
            ctx.obs.inc(Layer::Rsm, "state_rejected");
            return;
        }
        self.applied = c.seq;
        self.log.clear();
        self.reply_cache.clear();
        self.reply_index.clear();
        self.pending_ckpts.clear();
        self.ckpt_shares.retain(|(s, _, _), _| *s > c.seq);
        // Replay the vouched tail prefix; replies are cached but not
        // re-emitted — the original requesters already collected a
        // quorum, and resubmissions hit the cache.
        let mut dedup = c.dedup.clone();
        let mut last_round = c.round;
        // Bring the machine's digest cache up to date *before* freezing
        // it, so the frozen copy and the live machine share clean state
        // instead of each re-deriving (and un-sharing) it later.
        let state = self.machine.checkpoint();
        self.stable = Some(StableCheckpoint {
            seq: c.seq,
            round: c.round,
            digest: c.digest,
            frozen: self.machine.clone(),
            encoded_len: state.encoded_len,
            dedup: c.dedup,
            cert: c.cert,
        });
        for (s, r, td, payload) in plan.tail {
            let response = self.machine.apply(&payload);
            let request = digest(&payload);
            dedup.push((r, td));
            self.log.insert(s, (r, td, payload));
            self.cache_reply(s, request, response);
            self.applied = s + 1;
            last_round = r;
        }
        // Resume ordering after the replayed prefix. A vouched terminal
        // round is still clamped so a transfer can neither rewind us nor
        // strand us in a far-future round; without one, resume right
        // after the last replayed round — possibly a few (delivery-free)
        // rounds behind the group, which live traffic or the next
        // checkpoint recovers, whereas overshooting a delivering round
        // would diverge the sequence numbering forever.
        let target_round = match plan.target_round {
            Some(r) => r.clamp(last_round + 1, last_round + 1 + ROUND_JUMP_SLACK),
            None => last_round + 1,
        };
        self.layer.fast_forward(self.applied, target_round, &dedup);
        // Boundaries below the resume round are covered by the adopted
        // snapshot; don't re-checkpoint them.
        self.ckpt_div = self.ckpt_div.max(target_round / self.ckpt_interval);
        self.refresh_parked_bytes();
        ctx.obs.inc(Layer::Rsm, "state_adopted");
    }

    fn handle_input(
        &mut self,
        ctx: &Context,
        request: Vec<u8>,
        fx: &mut Effects<RsmMessage<L::Message>, Reply>,
    ) {
        let rd = digest(&request);
        // A resubmitted request that was already ordered is answered
        // from the cache — re-ordering it would burn a round and the
        // client only needs fresh shares.
        let cached = self.reply_index.get(&rd).and_then(|seq| {
            self.reply_cache
                .get(seq)
                .filter(|(req, _)| *req == rd)
                .map(|(_, resp)| (*seq, resp.clone()))
        });
        if let Some((seq, response)) = cached {
            ctx.obs.inc(Layer::Rsm, "reply_cache_hit");
            let msg = reply_message(&self.tag, &rd, seq, &response);
            let share = self.bundle.signing_key().sign_share(&msg, &mut self.rng);
            fx.output(Reply {
                request: rd,
                seq,
                replier: self.bundle.party(),
                response,
                share,
            });
            return;
        }
        if ctx.obs.is_enabled() && self.pending_at.len() < PENDING_LATENCY_CAP {
            self.pending_at.insert(rd, ctx.at);
        }
        let mut out = Outbox::new(self.public.n());
        let ordered = self.layer.submit(request, &mut self.rng, &mut out);
        for (to, m) in out {
            fx.send(to, RsmMessage::Order(m));
        }
        self.answer(ctx, ordered, fx);
        self.record(ctx);
    }

    fn handle_message(
        &mut self,
        ctx: &Context,
        from: PartyId,
        msg: RsmMessage<L::Message>,
        fx: &mut Effects<RsmMessage<L::Message>, Reply>,
    ) {
        match msg {
            RsmMessage::Order(m) => {
                let mut out = Outbox::new(self.public.n());
                let ordered = self.layer.on_message(from, m, &mut self.rng, &mut out);
                for (to, mm) in out {
                    fx.send(to, RsmMessage::Order(mm));
                }
                self.answer(ctx, ordered, fx);
            }
            RsmMessage::CkptShare {
                seq,
                round,
                digest,
                share,
            } => self.on_ckpt_share(ctx, from, seq, round, digest, share, fx),
            RsmMessage::FetchState { have_seq } => self.on_fetch_state(ctx, from, have_seq, fx),
            RsmMessage::State {
                seq,
                round,
                next_round,
                snapshot,
                dedup,
                cert,
                tail,
            } => self.on_state(
                ctx, from, seq, round, next_round, snapshot, dedup, cert, tail,
            ),
        }
        self.record(ctx);
    }

    fn handle_tick(&mut self, ctx: &Context, fx: &mut Effects<RsmMessage<L::Message>, Reply>) {
        self.ticks += 1;
        // Drive the ordering layer's tick first: off-thread verification
        // verdicts and pipelined round transitions arrive here, so this
        // must run even when no fetch job is active.
        let mut out = Outbox::new(self.public.n());
        let ordered = self.layer.on_tick(&mut self.rng, &mut out);
        for (to, m) in out {
            fx.send(to, RsmMessage::Order(m));
        }
        if !ordered.is_empty() {
            self.answer(ctx, ordered, fx);
            self.record(ctx);
        }
        let (exhausted, has_candidate);
        {
            let Some(job) = &mut self.fetch else { return };
            job.retry_in = job.retry_in.saturating_sub(1);
            if job.retry_in > 0 {
                return;
            }
            job.attempts += 1;
            job.backoff = (job.backoff * 2).min(FETCH_RETRY_CAP);
            job.retry_in = job.backoff;
            exhausted = job.attempts >= MAX_FETCH_ATTEMPTS;
            has_candidate = job.candidate.is_some();
        }
        if exhausted {
            // Resolve rather than retry forever: adopt the certified
            // candidate (with whatever tail prefix is vouched) or
            // abandon the fetch outright.
            self.try_adopt(ctx, true);
            return;
        }
        if !has_candidate && self.hinted_fetch_target().is_none() {
            // The hints that triggered the fetch no longer say we are
            // behind — we caught up through the normal path. Stop
            // asking peers who will never answer.
            ctx.obs.inc(Layer::Rsm, "state_fetch_cancelled");
            self.fetch = None;
            return;
        }
        ctx.obs.inc(Layer::Rsm, "state_fetch_retry");
        fx.broadcast(RsmMessage::FetchState {
            have_seq: self.applied,
        });
    }
}

/// How to finish a state transfer: the tail entries safe to replay and
/// — when a qualified responder group vouched the whole transfer — the
/// round to resume ordering in.
struct AdoptionPlan {
    tail: Vec<(u64, u64, Digest, Vec<u8>)>,
    /// `Some` only when responders that served *exactly* `tail` form a
    /// qualified set; the value is the smallest `next_round` they
    /// claimed. `None` means no terminal claim is trustworthy — resume
    /// at the round boundary the replayed prefix itself proves.
    target_round: Option<u64>,
}

/// Decides what a collected candidate justifies applying.
///
/// The happy path: responders whose full response (tail and all) is
/// byte-identical to the vouched tail form a qualified set. One of them
/// is honest, its response is self-consistent, so replaying the whole
/// tail and jumping to the group's smallest claimed `next_round` cannot
/// skip a delivering round. The smallest claim is used because a
/// too-early resume leaves us a recoverable laggard, while a lying high
/// claim would skip deliveries irrecoverably.
///
/// Otherwise only the per-entry vouched prefix is applied, and the
/// trailing round's entries are dropped too: a round delivers a batch,
/// and a prefix cut mid-batch (e.g. at [`STATE_TAIL_CAP`]) must not be
/// partially applied — the round is re-run or re-fetched instead. No
/// terminal round is trusted in that case.
fn plan_adoption(c: &Candidate, public: &PublicParameters) -> AdoptionPlan {
    let mut tail = vouched_tail(c, public);
    let full: PartySet = c
        .tails
        .iter()
        .filter(|(_, (_, t))| *t == tail)
        .map(|(p, _)| *p)
        .collect();
    if tail.len() < STATE_TAIL_CAP && public.structure().is_qualified(&full) {
        let target = c
            .tails
            .iter()
            .filter(|(p, _)| full.contains(**p))
            .map(|(_, (nr, _))| *nr)
            .min();
        return AdoptionPlan {
            tail,
            target_round: target,
        };
    }
    if let Some(&(_, r_last, _, _)) = tail.last() {
        tail.retain(|e| e.1 < r_last);
    }
    AdoptionPlan {
        tail,
        target_round: None,
    }
}

/// The longest tail prefix a qualified set of responders agrees on,
/// entry by entry: an applied entry carries identical
/// `(seq, round, transport digest, payload)` from responders no
/// corruptible coalition covers, so at least one honest replica vouches
/// for it. Entries past the first disagreement (or gap, or round
/// regression) are dropped — a later checkpoint covers them.
fn vouched_tail(c: &Candidate, public: &PublicParameters) -> Vec<TailEntry> {
    // Index each responder's tail by seq (first entry wins).
    let maps: Vec<(PartyId, HashMap<u64, &TailEntry>)> = c
        .tails
        .iter()
        .map(|(p, (_, tail))| {
            let mut m: HashMap<u64, &TailEntry> = HashMap::new();
            for e in tail {
                m.entry(e.0).or_insert(e);
            }
            (*p, m)
        })
        .collect();
    let mut out = Vec::new();
    let mut s = c.seq;
    let mut last_round = c.round;
    'next_seq: loop {
        let mut groups: Vec<(&TailEntry, PartySet)> = Vec::new();
        for (p, m) in &maps {
            if let Some(e) = m.get(&s) {
                match groups
                    .iter_mut()
                    .find(|(g, _)| g.1 == e.1 && g.2 == e.2 && g.3 == e.3)
                {
                    Some((_, set)) => {
                        set.insert(*p);
                    }
                    None => {
                        let mut set = PartySet::new();
                        set.insert(*p);
                        groups.push((e, set));
                    }
                }
            }
        }
        for (e, set) in groups {
            if e.1 >= last_round && public.structure().is_qualified(&set) {
                out.push((s, e.1, e.2, e.3.clone()));
                last_round = e.1;
                s += 1;
                continue 'next_seq;
            }
        }
        break;
    }
    out
}

impl<L: OrderingLayer, S: StateMachine> Protocol for Replica<L, S> {
    type Message = RsmMessage<L::Message>;
    type Input = Vec<u8>;
    type Output = Reply;

    fn on_input(&mut self, request: Vec<u8>, fx: &mut Effects<Self::Message, Reply>) {
        let ctx = Context::disabled(self.bundle.party(), self.public.n());
        self.handle_input(&ctx, request, fx);
    }

    fn on_message(
        &mut self,
        from: PartyId,
        msg: Self::Message,
        fx: &mut Effects<Self::Message, Reply>,
    ) {
        let ctx = Context::disabled(self.bundle.party(), self.public.n());
        self.handle_message(&ctx, from, msg, fx);
    }

    fn on_tick(&mut self, fx: &mut Effects<Self::Message, Reply>) {
        let ctx = Context::disabled(self.bundle.party(), self.public.n());
        self.handle_tick(&ctx, fx);
    }

    fn on_input_ctx(
        &mut self,
        ctx: &Context,
        request: Vec<u8>,
        fx: &mut Effects<Self::Message, Reply>,
    ) {
        self.handle_input(ctx, request, fx);
    }

    fn on_message_ctx(
        &mut self,
        ctx: &Context,
        from: PartyId,
        msg: Self::Message,
        fx: &mut Effects<Self::Message, Reply>,
    ) {
        self.handle_message(ctx, from, msg, fx);
    }

    fn on_tick_ctx(&mut self, ctx: &Context, fx: &mut Effects<Self::Message, Reply>) {
        self.handle_tick(ctx, fx);
    }

    /// A transport link to `peer` came (back) up: probe it with our
    /// stable checkpoint claim. A restarted replica receives one such
    /// share from every survivor; the shares carry identical
    /// `(seq, round, digest)` claims, so a qualified set of them forms
    /// a checkpoint *hint* (see [`Replica::handle_message`]'s
    /// `CkptShare` path) and state transfer engages immediately instead
    /// of waiting for the next periodic checkpoint boundary. Advisory
    /// only — the probe is the same evidence a routine `CkptShare`
    /// broadcast carries and is validated identically, so a spurious or
    /// Byzantine-timed link-up signal gains nothing.
    fn on_link_up_ctx(
        &mut self,
        ctx: &Context,
        peer: PartyId,
        fx: &mut Effects<Self::Message, Reply>,
    ) {
        if peer == self.bundle.party() {
            return;
        }
        // Copy the claim out first: signing needs `&mut self.rng`.
        let Some((seq, round, digest)) = self.stable.as_ref().map(|s| (s.seq, s.round, s.digest))
        else {
            return; // nothing checkpointed yet — nothing to probe with
        };
        let msg = ckpt_message(&self.tag, seq, round, &digest);
        let share = self.bundle.signing_key().sign_share(&msg, &mut self.rng);
        ctx.obs.inc(Layer::Rsm, "ckpt_probe_sent");
        fx.send(
            peer,
            RsmMessage::CkptShare {
                seq,
                round,
                digest,
                share,
            },
        );
    }
}

/// Builds one replica over plain atomic broadcast from `cfg`. The
/// ordering layer's tag is derived as `cfg.tag.child("abc", 0)`, so
/// per-shard service tags domain-separate their agreement traffic
/// automatically.
pub fn atomic_replica_with<S: StateMachine>(
    cfg: &ReplicaConfig,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    machine: S,
) -> Replica<AtomicBroadcast, S> {
    let layer = AtomicBroadcast::new(
        cfg.tag.child("abc", 0),
        Arc::clone(&public),
        Arc::clone(&bundle),
    );
    Replica::with_config(layer, machine, public, bundle, cfg)
}

/// Builds `n` replicas over plain atomic broadcast, all from the same
/// [`ReplicaConfig`].
pub fn atomic_replicas_with<S: StateMachine>(
    cfg: &ReplicaConfig,
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    make_machine: impl Fn(PartyId) -> S,
) -> Vec<Replica<AtomicBroadcast, S>> {
    let public = Arc::new(public);
    bundles
        .into_iter()
        .map(|b| {
            let party = b.party();
            atomic_replica_with(cfg, Arc::clone(&public), Arc::new(b), make_machine(party))
        })
        .collect()
}

/// Builds `n` replicas over plain atomic broadcast with default
/// configuration (convenience shim over [`atomic_replicas_with`]).
pub fn atomic_replicas<S: StateMachine>(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    make_machine: impl Fn(PartyId) -> S,
    seed: u64,
) -> Vec<Replica<AtomicBroadcast, S>> {
    atomic_replicas_with(
        &ReplicaConfig::new().seed(seed),
        public,
        bundles,
        make_machine,
    )
}

/// Builds one replica over secure causal atomic broadcast from `cfg`;
/// the layer tag is derived as `cfg.tag.child("scabc", 0)`.
pub fn causal_replica_with<S: StateMachine>(
    cfg: &ReplicaConfig,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    machine: S,
) -> Replica<SecureCausalAtomicBroadcast, S> {
    let layer = SecureCausalAtomicBroadcast::new(
        cfg.tag.child("scabc", 0),
        Arc::clone(&public),
        Arc::clone(&bundle),
    );
    Replica::with_config(layer, machine, public, bundle, cfg)
}

/// Builds `n` replicas over secure causal atomic broadcast, all from
/// the same [`ReplicaConfig`].
pub fn causal_replicas_with<S: StateMachine>(
    cfg: &ReplicaConfig,
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    make_machine: impl Fn(PartyId) -> S,
) -> Vec<Replica<SecureCausalAtomicBroadcast, S>> {
    let public = Arc::new(public);
    bundles
        .into_iter()
        .map(|b| {
            let party = b.party();
            causal_replica_with(cfg, Arc::clone(&public), Arc::new(b), make_machine(party))
        })
        .collect()
}

/// Builds `n` replicas over secure causal atomic broadcast with default
/// configuration (convenience shim over [`causal_replicas_with`]).
pub fn causal_replicas<S: StateMachine>(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    make_machine: impl Fn(PartyId) -> S,
    seed: u64,
) -> Vec<Replica<SecureCausalAtomicBroadcast, S>> {
    causal_replicas_with(
        &ReplicaConfig::new().seed(seed),
        public,
        bundles,
        make_machine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{EchoMachine, KvMachine};
    use sintra_adversary::structure::TrustStructure;
    use sintra_crypto::dealer::Dealer;
    use sintra_net::sim::{Behavior, RandomScheduler, Simulation};

    fn deal(n: usize, t: usize, seed: u64) -> (PublicParameters, Vec<ServerKeyBundle>) {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(seed);
        Dealer::deal(&ts, &mut rng)
    }

    #[test]
    fn replicas_answer_identically() {
        let (public, bundles) = deal(4, 1, 1);
        let replicas = atomic_replicas(public, bundles, |_| EchoMachine::new(), 1);
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(2)
            .build();
        sim.input(0, b"request-a".to_vec());
        sim.input(2, b"request-b".to_vec());
        sim.run_until_quiet(50_000_000);
        // Every replica answers both requests, with identical responses
        // and sequence numbers across replicas.
        let reference: Vec<(u64, Vec<u8>)> = sim
            .outputs(0)
            .iter()
            .map(|r| (r.seq, r.response.clone()))
            .collect();
        assert_eq!(reference.len(), 2);
        for p in 1..4 {
            let got: Vec<(u64, Vec<u8>)> = sim
                .outputs(p)
                .iter()
                .map(|r| (r.seq, r.response.clone()))
                .collect();
            assert_eq!(got, reference, "party {p}");
        }
    }

    #[test]
    fn kv_state_converges_across_replicas() {
        let (public, bundles) = deal(4, 1, 3);
        let replicas = atomic_replicas(public, bundles, |_| KvMachine::new(), 3);
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(4)
            .build();
        sim.input(0, KvMachine::encode_set(b"x", b"1"));
        sim.input(1, KvMachine::encode_set(b"y", b"2"));
        sim.run_until_quiet(50_000_000);
        for p in 0..4 {
            let m = sim.node(p).unwrap().machine();
            assert_eq!(m.len(), 2, "party {p} applied both writes");
        }
    }

    #[test]
    fn causal_replicas_work_and_tolerate_crash() {
        let (public, bundles) = deal(4, 1, 5);
        let replicas = causal_replicas(public, bundles, |_| EchoMachine::new(), 5);
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(6)
            .build();
        sim.corrupt(3, Behavior::Crash);
        sim.input(0, b"confidential".to_vec());
        sim.run_until_quiet(100_000_000);
        let reference: Vec<Vec<u8>> = sim.outputs(0).iter().map(|r| r.response.clone()).collect();
        assert_eq!(reference.len(), 1);
        for p in 1..3 {
            let got: Vec<Vec<u8>> = sim.outputs(p).iter().map(|r| r.response.clone()).collect();
            assert_eq!(got, reference, "party {p}");
        }
    }

    #[test]
    fn checkpoints_stabilize_and_prune_log() {
        let (public, bundles) = deal(4, 1, 9);
        let replicas = atomic_replicas_with(
            &ReplicaConfig::new().seed(9).ckpt_interval(4),
            public,
            bundles,
            |_| KvMachine::new(),
        );
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(10)
            .build();
        // One request per round: run to quiescence between inputs so
        // rounds (and therefore checkpoint boundaries) accumulate.
        for i in 0..18u32 {
            sim.input(
                (i % 4) as usize,
                KvMachine::encode_set(format!("k{i}").as_bytes(), b"v"),
            );
            sim.run_until_quiet(50_000_000);
        }
        for p in 0..4 {
            let node = sim.node(p).unwrap();
            let stable = node
                .stable_checkpoint()
                .unwrap_or_else(|| panic!("party {p} certified a checkpoint"));
            assert!(stable.seq >= 12, "party {p} stable at {}", stable.seq);
            // The log holds only entries past the stable checkpoint.
            assert!(
                node.log_len() <= (node.applied() - stable.seq) as usize,
                "party {p} pruned its log"
            );
            // The certified snapshot matches a fresh restore.
            let mut m = KvMachine::new();
            assert!(m.restore(&stable.snapshot()));
        }
    }

    #[test]
    fn resubmitted_request_answers_from_cache() {
        let (public, bundles) = deal(4, 1, 13);
        let verifier = public.clone();
        let replicas = atomic_replicas(public, bundles, |_| EchoMachine::new(), 13);
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(14)
            .build();
        sim.input(0, b"idempotent".to_vec());
        sim.run_until_quiet(50_000_000);
        assert_eq!(sim.outputs(0).len(), 1);
        let first = sim.outputs(0)[0].clone();
        let round_before = sim.node(0).unwrap().layer().current_round();
        // The same request again: answered from the reply cache, no new
        // ordering round burned.
        sim.input(0, b"idempotent".to_vec());
        sim.run_until_quiet(50_000_000);
        let outputs = sim.outputs(0);
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[1].seq, first.seq);
        assert_eq!(outputs[1].response, first.response);
        assert_eq!(
            sim.node(0).unwrap().layer().current_round(),
            round_before,
            "cache hit must not re-order the request"
        );
        // The fresh share still verifies (clients can combine it).
        let tag = Tag::root("rsm");
        let msg = reply_message(
            &tag,
            &outputs[1].request,
            outputs[1].seq,
            &outputs[1].response,
        );
        assert!(verifier.signing().verify_share(&msg, &outputs[1].share));
    }

    type AbcReplica = Replica<AtomicBroadcast, KvMachine>;
    type Queued = std::collections::VecDeque<(PartyId, PartyId, RsmMessage<AbcMessage>)>;

    fn pump(
        nodes: &mut [AbcReplica],
        queue: &mut Queued,
        dead: Option<PartyId>,
        replies: &mut Vec<Reply>,
    ) {
        while let Some((from, to, msg)) = queue.pop_front() {
            if Some(to) == dead || Some(from) == dead {
                continue;
            }
            let mut fx = Effects::for_parties(nodes.len());
            nodes[to].on_message(from, msg, &mut fx);
            replies.extend(fx.take_outputs());
            for (t, m) in fx.take_sends() {
                queue.push_back((to, t, m));
            }
        }
    }

    fn submit(
        nodes: &mut [AbcReplica],
        queue: &mut Queued,
        party: PartyId,
        payload: Vec<u8>,
        replies: &mut Vec<Reply>,
    ) {
        let mut fx = Effects::for_parties(nodes.len());
        nodes[party].on_input(payload, &mut fx);
        replies.extend(fx.take_outputs());
        for (t, m) in fx.take_sends() {
            queue.push_back((party, t, m));
        }
    }

    #[test]
    fn restarted_replica_rejoins_via_state_transfer() {
        let (public, bundles) = deal(4, 1, 17);
        let bundle3 = bundles[3].clone();
        let public_arc = Arc::new(public.clone());
        let mut nodes = atomic_replicas_with(
            &ReplicaConfig::new().seed(17).ckpt_interval(4),
            public,
            bundles,
            |_| KvMachine::new(),
        );
        let mut queue: Queued = Queued::new();
        let mut replies = Vec::new();
        // Warm-up with everyone alive.
        for i in 0..3u32 {
            submit(
                &mut nodes,
                &mut queue,
                0,
                KvMachine::encode_set(format!("w{i}").as_bytes(), b"v"),
                &mut replies,
            );
            pump(&mut nodes, &mut queue, None, &mut replies);
        }
        // Kill replica 3 and run far past the GC window: the survivors
        // keep ordering, checkpoint, and prune the history 3 missed.
        let dead = Some(3);
        for i in 0..57u32 {
            submit(
                &mut nodes,
                &mut queue,
                0,
                KvMachine::encode_set(format!("d{i}").as_bytes(), b"v"),
                &mut replies,
            );
            pump(&mut nodes, &mut queue, dead, &mut replies);
        }
        let survivor_round = nodes[0].layer().current_round();
        assert!(
            survivor_round >= 55,
            "survivors progressed {survivor_round} rounds"
        );
        let stable_seq = nodes[0]
            .stable_checkpoint()
            .expect("survivors certified checkpoints")
            .seq;
        assert!(stable_seq > 40);
        // Restart replica 3 from scratch: empty machine, round 0.
        nodes[3] = atomic_replica_with(
            &ReplicaConfig::new().seed(9_999).ckpt_interval(4),
            Arc::clone(&public_arc),
            Arc::new(bundle3),
            KvMachine::new(),
        );
        // Resume with everyone alive. The next checkpoint's shares show
        // replica 3 how far behind it is; it fetches the certified
        // snapshot, replays the tail, and fast-forwards its ordering
        // layer into the current round.
        for i in 0..8u32 {
            submit(
                &mut nodes,
                &mut queue,
                0,
                KvMachine::encode_set(format!("r{i}").as_bytes(), b"v"),
                &mut replies,
            );
            pump(&mut nodes, &mut queue, None, &mut replies);
        }
        assert!(!nodes[3].is_fetching(), "state transfer completed");
        assert_eq!(
            nodes[3].applied(),
            nodes[0].applied(),
            "rejoined replica caught up to the survivors"
        );
        assert_eq!(
            nodes[3].machine().snapshot(),
            nodes[0].machine().snapshot(),
            "state machines converged"
        );
        assert_eq!(
            nodes[3].layer().current_round(),
            nodes[0].layer().current_round()
        );
        // And it answers post-rejoin requests like everyone else.
        let post_rejoin = replies
            .iter()
            .filter(|r| r.replier == 3 && r.seq >= stable_seq)
            .count();
        assert!(post_rejoin > 0, "rejoined replica serves requests again");
    }

    /// Exercises the [`Protocol::on_link_up_ctx`] probe: when the
    /// transport reports the link to a restarted replica back up, the
    /// survivors' stable-checkpoint probes alone must pull it through
    /// state transfer — no new client traffic (and therefore no next
    /// checkpoint boundary) required.
    #[test]
    fn link_up_probe_triggers_state_transfer_without_new_traffic() {
        let (public, bundles) = deal(4, 1, 27);
        let bundle3 = bundles[3].clone();
        let public_arc = Arc::new(public.clone());
        let mut nodes = atomic_replicas_with(
            &ReplicaConfig::new().seed(27).ckpt_interval(4),
            public,
            bundles,
            |_| KvMachine::new(),
        );
        let mut queue: Queued = Queued::new();
        let mut replies = Vec::new();
        // Replica 3 dies; survivors order 30 rounds and checkpoint.
        for i in 0..30u32 {
            submit(
                &mut nodes,
                &mut queue,
                0,
                KvMachine::encode_set(format!("d{i}").as_bytes(), b"v"),
                &mut replies,
            );
            pump(&mut nodes, &mut queue, Some(3), &mut replies);
        }
        let stable_seq = nodes[0]
            .stable_checkpoint()
            .expect("survivors certified checkpoints")
            .seq;
        assert!(stable_seq > 20);
        // Restart replica 3 from scratch.
        nodes[3] = atomic_replica_with(
            &ReplicaConfig::new().seed(4_242).ckpt_interval(4),
            Arc::clone(&public_arc),
            Arc::new(bundle3),
            KvMachine::new(),
        );
        // A replica with no stable checkpoint has nothing to probe
        // with; a self-link probe is a no-op.
        let mut fx = Effects::for_parties(4);
        nodes[3].on_link_up_ctx(&Context::disabled(3, 4), 0, &mut fx);
        assert!(fx.take_sends().is_empty(), "fresh replica stays silent");
        nodes[0].on_link_up_ctx(&Context::disabled(0, 4), 0, &mut fx);
        assert!(fx.take_sends().is_empty(), "self probe is a no-op");
        // The survivors see the link to 3 come back up. Each probes
        // with its stable claim — targeted, not broadcast.
        for (p, node) in nodes.iter_mut().enumerate().take(3) {
            let mut fx = Effects::for_parties(4);
            node.on_link_up_ctx(&Context::disabled(p, 4), 3, &mut fx);
            let sends = fx.take_sends();
            assert_eq!(sends.len(), 1, "one probe from survivor {p}");
            assert_eq!(sends[0].0, 3, "probe targets the reconnected peer");
            assert!(matches!(sends[0].1, RsmMessage::CkptShare { seq, .. } if seq == stable_seq));
            for (t, m) in sends {
                queue.push_back((p, t, m));
            }
        }
        // The identical claims form a qualified hint; the fetch runs to
        // completion with no further inputs.
        pump(&mut nodes, &mut queue, None, &mut replies);
        assert!(!nodes[3].is_fetching(), "state transfer completed");
        assert_eq!(nodes[3].applied(), nodes[0].applied());
        assert_eq!(nodes[3].machine().snapshot(), nodes[0].machine().snapshot());
        assert_eq!(
            nodes[3].layer().current_round(),
            nodes[0].layer().current_round(),
            "ordering layer fast-forwarded into the current round"
        );
    }

    /// A [`ResubmittingClient`](crate::client::ResubmittingClient)
    /// whose first attempt's replies are lost must still converge when
    /// one replica crashes, restarts with amnesia, and rejoins via
    /// state transfer in between: the retry is answered from the
    /// survivors' reply caches at the original sequence number, and the
    /// restarted replica's re-submission of the stale request is
    /// deduplicated, never double-applied.
    #[test]
    fn resubmitting_client_survives_replica_restart() {
        use crate::client::{ReplyCollector, ResubmittingClient};
        let (public, bundles) = deal(4, 1, 33);
        let bundle3 = bundles[3].clone();
        let public_arc = Arc::new(public.clone());
        let mut nodes = atomic_replicas_with(
            &ReplicaConfig::new().seed(33).ckpt_interval(4),
            public,
            bundles,
            |_| KvMachine::new(),
        );
        let mut queue: Queued = Queued::new();
        let mut replies = Vec::new();
        let payload = KvMachine::encode_set(b"persist", b"me");
        let mut client =
            ResubmittingClient::new(Tag::root("rsm"), Arc::clone(&public_arc), payload.clone());
        // First attempt reaches every replica and is ordered once, but
        // every reply share is lost on the way back.
        for p in 0..4usize {
            submit(
                &mut nodes,
                &mut queue,
                p,
                client.payload().to_vec(),
                &mut replies,
            );
        }
        pump(&mut nodes, &mut queue, None, &mut replies);
        let rd = digest(&payload);
        let first_seq = replies
            .iter()
            .find(|r| r.request == rd)
            .expect("first attempt was ordered")
            .seq;
        assert!(client.result().is_none(), "replies lost: no answer yet");
        // Replica 3 crashes; survivors keep ordering. Stay within the
        // transport dedup window so the old request remains known.
        for i in 0..30u32 {
            submit(
                &mut nodes,
                &mut queue,
                0,
                KvMachine::encode_set(format!("d{i}").as_bytes(), b"v"),
                &mut replies,
            );
            pump(&mut nodes, &mut queue, Some(3), &mut replies);
        }
        // Restart 3 with amnesia; link-up probes pull it through state
        // transfer (reply cache and dedup window included).
        nodes[3] = atomic_replica_with(
            &ReplicaConfig::new().seed(8_484).ckpt_interval(4),
            Arc::clone(&public_arc),
            Arc::new(bundle3),
            KvMachine::new(),
        );
        for (p, node) in nodes.iter_mut().enumerate().take(3) {
            let mut fx = Effects::for_parties(4);
            node.on_link_up_ctx(&Context::disabled(p, 4), 3, &mut fx);
            for (t, m) in fx.take_sends() {
                queue.push_back((p, t, m));
            }
        }
        pump(&mut nodes, &mut queue, None, &mut replies);
        assert!(!nodes[3].is_fetching(), "restarted replica caught up");
        // The client's resubmission timer fires; the retry goes to all
        // four replicas, including the restarted one.
        let mut resent = None;
        for _ in 0..64 {
            if let Some(p) = client.on_tick() {
                resent = Some(p);
                break;
            }
        }
        let retry = resent.expect("resubmission timer fired");
        let mark = replies.len();
        for p in 0..4usize {
            submit(&mut nodes, &mut queue, p, retry.clone(), &mut replies);
        }
        pump(&mut nodes, &mut queue, None, &mut replies);
        for r in replies[mark..].iter().cloned() {
            client.on_reply(r);
        }
        let reply = client
            .result()
            .expect("client survived the restart")
            .clone();
        assert_eq!(reply.seq, first_seq, "answered at the original order");
        assert!(ReplyCollector::verify_signed(
            &public_arc,
            &Tag::root("rsm"),
            &payload,
            &reply
        ));
        // Safety: the client write and each filler applied exactly once
        // everywhere — the restarted replica's ignorance of the old
        // request must not smuggle in a double-apply.
        for (p, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.machine().len(),
                31,
                "party {p}: one client write + 30 fillers, no double-apply"
            );
        }
        assert_eq!(nodes[3].machine().snapshot(), nodes[0].machine().snapshot());
    }

    #[test]
    fn single_far_future_ckpt_share_does_not_trigger_fetch() {
        let (public, bundles) = deal(4, 1, 21);
        let b2 = bundles[2].clone();
        let b3 = bundles[3].clone();
        let mut nodes = atomic_replicas(public, bundles, |_| KvMachine::new(), 21);
        let mut rng = SeededRng::new(1);
        let tag = Tag::root("rsm");
        // A Byzantine replica signs a perfectly valid share over a
        // fabricated far-future checkpoint claim.
        let (seq, round, d) = (1_000u64, 1_000u64, [7u8; 32]);
        let msg = ckpt_message(&tag, seq, round, &d);
        let share = b3.signing_key().sign_share(&msg, &mut rng);
        let mut fx = Effects::for_parties(4);
        nodes[0].on_message(
            3,
            RsmMessage::CkptShare {
                seq,
                round,
                digest: d,
                share,
            },
            &mut fx,
        );
        assert!(!nodes[0].is_fetching(), "one hint must not start a fetch");
        assert!(fx.take_sends().is_empty(), "no FetchState broadcast");
        // Re-sending (or varying the claim) from the same sender still
        // occupies only its single hint slot.
        for s in 0..20u64 {
            let claim = (2_000 + s, 2_000 + s, [s as u8; 32]);
            let msg = ckpt_message(&tag, claim.0, claim.1, &claim.2);
            let share = b3.signing_key().sign_share(&msg, &mut rng);
            let mut fx = Effects::for_parties(4);
            nodes[0].on_message(
                3,
                RsmMessage::CkptShare {
                    seq: claim.0,
                    round: claim.1,
                    digest: claim.2,
                    share,
                },
                &mut fx,
            );
        }
        assert!(!nodes[0].is_fetching());
        // A second sender corroborating one claim makes the claimant
        // set qualified (at least one member is honest) — only then
        // does the fetch start.
        let msg = ckpt_message(&tag, seq, round, &d);
        let share2 = b2.signing_key().sign_share(&msg, &mut rng);
        let share3 = b3.signing_key().sign_share(&msg, &mut rng);
        let mut fx = Effects::for_parties(4);
        nodes[0].on_message(
            3,
            RsmMessage::CkptShare {
                seq,
                round,
                digest: d,
                share: share3,
            },
            &mut fx,
        );
        nodes[0].on_message(
            2,
            RsmMessage::CkptShare {
                seq,
                round,
                digest: d,
                share: share2,
            },
            &mut fx,
        );
        assert!(
            nodes[0].is_fetching(),
            "a qualified hint set triggers the fetch"
        );
    }

    #[test]
    fn unanswered_fetch_is_abandoned_after_bounded_attempts() {
        let (public, bundles) = deal(4, 1, 23);
        let b1 = bundles[1].clone();
        let b2 = bundles[2].clone();
        let mut nodes = atomic_replicas(public, bundles, |_| KvMachine::new(), 23);
        let mut rng = SeededRng::new(2);
        let tag = Tag::root("rsm");
        // A qualified set of (colluding, within the corruption bound's
        // worst case) senders fabricates a matching far-future claim no
        // honest peer can serve.
        let (seq, round, d) = (500u64, 500u64, [9u8; 32]);
        let msg = ckpt_message(&tag, seq, round, &d);
        for (p, b) in [(1, &b1), (2, &b2)] {
            let share = b.signing_key().sign_share(&msg, &mut rng);
            let mut fx = Effects::for_parties(4);
            nodes[0].on_message(
                p,
                RsmMessage::CkptShare {
                    seq,
                    round,
                    digest: d,
                    share,
                },
                &mut fx,
            );
        }
        assert!(nodes[0].is_fetching());
        // Nobody ever answers. The retry schedule is capped: after
        // MAX_FETCH_ATTEMPTS the job resolves (here: abandons, since
        // no certified candidate arrived) instead of rebroadcasting
        // FetchState forever.
        let mut broadcasts = 0usize;
        for _ in 0..4_000 {
            let mut fx = Effects::for_parties(4);
            nodes[0].on_tick(&mut fx);
            broadcasts += fx.take_sends().len();
        }
        assert!(
            !nodes[0].is_fetching(),
            "fetch abandoned, not retried forever"
        );
        assert_eq!(nodes[0].applied(), 0, "nothing fabricated was adopted");
        assert!(
            broadcasts <= MAX_FETCH_ATTEMPTS as usize * 4,
            "rebroadcast traffic is bounded, saw {broadcasts} sends"
        );
        // Quiet once abandoned.
        let mut fx = Effects::for_parties(4);
        nodes[0].on_tick(&mut fx);
        assert!(fx.take_sends().is_empty());
    }

    #[test]
    fn forged_state_tail_requires_qualified_vouchers() {
        let (public, bundles) = deal(4, 1, 25);
        let b0 = bundles[0].clone();
        let b1 = bundles[1].clone();
        let b3 = bundles[3].clone();
        let public_arc = Arc::new(public.clone());
        let mut nodes = atomic_replicas_with(
            &ReplicaConfig::new().seed(25).ckpt_interval(4),
            public,
            bundles,
            |_| KvMachine::new(),
        );
        let mut queue: Queued = Queued::new();
        let mut replies = Vec::new();
        // History with everyone alive: a certified checkpoint plus a
        // short log tail past it.
        for i in 0..10u32 {
            submit(
                &mut nodes,
                &mut queue,
                0,
                KvMachine::encode_set(format!("k{i}").as_bytes(), b"v"),
                &mut replies,
            );
            pump(&mut nodes, &mut queue, None, &mut replies);
        }
        let stable = nodes[0]
            .stable_checkpoint()
            .expect("stable checkpoint")
            .clone();
        assert!(stable.round > 4, "hint horizon reachable");
        assert!(
            nodes[0].applied() > stable.seq,
            "a tail exists past the checkpoint"
        );
        // Replica 3 restarts from scratch.
        nodes[3] = atomic_replica_with(
            &ReplicaConfig::new().seed(31).ckpt_interval(4),
            Arc::clone(&public_arc),
            Arc::new(b3),
            KvMachine::new(),
        );
        let mut rng = SeededRng::new(3);
        let tag = Tag::root("rsm");
        // The forged transfer: genuine certified snapshot, fabricated
        // tail entries. Unsolicited, it is dropped outright.
        let evil = KvMachine::encode_set(b"evil", b"1");
        let forged = RsmMessage::State {
            seq: stable.seq,
            round: stable.round,
            next_round: stable.round + 3,
            snapshot: stable.snapshot(),
            dedup: stable.dedup.clone(),
            cert: stable.cert.clone(),
            tail: (0..3u64)
                .map(|i| {
                    (
                        stable.seq + i,
                        stable.round + 1,
                        digest(&evil),
                        evil.clone(),
                    )
                })
                .collect(),
        };
        let mut fx = Effects::for_parties(4);
        nodes[3].on_message(2, forged.clone(), &mut fx);
        assert_eq!(nodes[3].applied(), 0, "unsolicited State is dropped");
        // Honest hints about the real checkpoint put replica 3 into
        // fetch mode.
        let msg = ckpt_message(&tag, stable.seq, stable.round, &stable.digest);
        let mut fetch_req = None;
        for (p, b) in [(0, &b0), (1, &b1)] {
            let share = b.signing_key().sign_share(&msg, &mut rng);
            let mut fx = Effects::for_parties(4);
            nodes[3].on_message(
                p,
                RsmMessage::CkptShare {
                    seq: stable.seq,
                    round: stable.round,
                    digest: stable.digest,
                    share,
                },
                &mut fx,
            );
            for (_, m) in fx.take_sends() {
                fetch_req = Some(m);
            }
        }
        assert!(nodes[3].is_fetching());
        let fetch_req = fetch_req.expect("FetchState broadcast");
        // The Byzantine responder answers first. The certificate
        // verifies (snapshot and dedup are genuine), but one responder
        // cannot vouch for a tail: nothing is adopted yet.
        let mut fx = Effects::for_parties(4);
        nodes[3].on_message(2, forged, &mut fx);
        assert!(nodes[3].is_fetching(), "single responder is not qualified");
        assert_eq!(nodes[3].applied(), 0);
        // Honest responders serve the real transfer; their identical
        // tails form a qualified group per entry and win over the
        // forged copies.
        for p in [0usize, 1] {
            let mut fx = Effects::for_parties(4);
            nodes[p].on_message(3, fetch_req.clone(), &mut fx);
            for (to, m) in fx.take_sends() {
                assert_eq!(to, 3);
                let mut fx3 = Effects::for_parties(4);
                nodes[3].on_message(p, m, &mut fx3);
            }
        }
        assert!(!nodes[3].is_fetching(), "transfer completed");
        assert_eq!(nodes[3].applied(), nodes[0].applied());
        assert_eq!(
            nodes[3].machine().snapshot(),
            nodes[0].machine().snapshot(),
            "forged tail entries were never applied"
        );
    }

    /// A context that records, so tests can read the `rsm.*` counters.
    fn observed(me: PartyId) -> Context {
        Context {
            obs: sintra_obs::Obs::enabled(16),
            ..Context::disabled(me, 4)
        }
    }

    /// Four replicas started from `machine`, one request ordered with a
    /// checkpoint every round, so each holds a stable checkpoint of it.
    fn nodes_with_stable_checkpoint(seed: u64, machine: &KvMachine) -> Vec<AbcReplica> {
        let (public, bundles) = deal(4, 1, seed);
        let mut nodes = atomic_replicas_with(
            &ReplicaConfig::new().seed(seed).ckpt_interval(1),
            public,
            bundles,
            |_| machine.clone(),
        );
        let mut queue = Queued::new();
        submit(
            &mut nodes,
            &mut queue,
            0,
            KvMachine::encode_set(b"k", b"v"),
            &mut Vec::new(),
        );
        pump(&mut nodes, &mut queue, None, &mut Vec::new());
        assert!(nodes[0].stable_checkpoint().is_some());
        nodes
    }

    /// `MAX_FRAME` is 1 MiB and the transport refuses a larger frame at
    /// origin, so a `State` over a bigger snapshot can never arrive:
    /// the responder must say so (`rsm.state_too_large`) without paying
    /// for the encode, instead of letting the fetcher time out on
    /// frames that were silently dropped.
    #[test]
    fn state_too_large_for_a_frame_is_refused_unserialised() {
        let mut big = KvMachine::new();
        for i in 0..20_000u32 {
            let mut key = [0u8; 16];
            key[12..].copy_from_slice(&i.to_be_bytes());
            big.apply(&KvMachine::encode_set(&key, &[7u8; 64]));
        }
        let mut nodes = nodes_with_stable_checkpoint(41, &big);
        let stable = nodes[0].stable_checkpoint().unwrap();
        assert!(stable.encoded_len > MAX_FRAME, "{}", stable.encoded_len);
        assert_eq!(stable.encoded_len, stable.snapshot().len());
        let ctx = observed(0);
        let mut fx = Effects::for_parties(4);
        nodes[0].on_message_ctx(&ctx, 3, RsmMessage::FetchState { have_seq: 0 }, &mut fx);
        assert!(fx.take_sends().is_empty(), "no State is emitted");
        let counters = ctx.obs.metrics_snapshot();
        assert_eq!(counters.counter("rsm.state_too_large"), 1);
        assert_eq!(counters.counter("rsm.state_served"), 0);
    }

    /// A `FetchState` is nine bytes and its answer is an encode plus up
    /// to a megabyte: one peer gets one answer per `FETCH_RETRY_TICKS`,
    /// which is as often as an honest fetcher asks.
    #[test]
    fn fetch_state_flood_from_one_peer_is_served_once_per_retry_period() {
        let mut nodes = nodes_with_stable_checkpoint(43, &KvMachine::new());
        let ctx = observed(0);
        let mut fx = Effects::for_parties(4);
        for _ in 0..100 {
            nodes[0].on_message_ctx(&ctx, 3, RsmMessage::FetchState { have_seq: 0 }, &mut fx);
        }
        let sends = fx.take_sends();
        assert_eq!(sends.len(), 1, "100 requests inside one tick, one State");
        assert!(matches!(sends[0], (3, RsmMessage::State { .. })));
        let counters = ctx.obs.metrics_snapshot();
        assert_eq!(counters.counter("rsm.state_served"), 1);
        assert_eq!(counters.counter("rsm.state_serve_throttled"), 99);
        // Another peer is not affected, and the flooder is served again
        // once a retry period has passed.
        nodes[0].on_message_ctx(&ctx, 2, RsmMessage::FetchState { have_seq: 0 }, &mut fx);
        assert_eq!(fx.take_sends().len(), 1);
        for _ in 0..FETCH_RETRY_TICKS {
            nodes[0].on_tick(&mut fx);
        }
        fx.take_sends();
        nodes[0].on_message_ctx(&ctx, 3, RsmMessage::FetchState { have_seq: 0 }, &mut fx);
        assert_eq!(fx.take_sends().len(), 1);
    }

    /// The certificate covers the state root, not the snapshot bytes,
    /// so the fetcher must recompute the root from what it was sent:
    /// flipping any one byte of a genuine snapshot — count, a length, a
    /// key, a value — gets the `State` rejected, and the untouched one
    /// is still adopted afterwards.
    #[test]
    fn state_with_one_flipped_snapshot_byte_is_rejected() {
        let (public, bundles) = deal(4, 1, 45);
        let (b0, b1, b3) = (bundles[0].clone(), bundles[1].clone(), bundles[3].clone());
        let public_arc = Arc::new(public.clone());
        let cfg = ReplicaConfig::new().seed(45).ckpt_interval(4);
        let mut nodes = atomic_replicas_with(&cfg, public, bundles, |_| KvMachine::new());
        let mut queue = Queued::new();
        for i in 0..10u32 {
            submit(
                &mut nodes,
                &mut queue,
                0,
                KvMachine::encode_set(format!("k{i}").as_bytes(), b"v"),
                &mut Vec::new(),
            );
            pump(&mut nodes, &mut queue, None, &mut Vec::new());
        }
        let stable = nodes[0].stable_checkpoint().expect("stable").clone();
        let snapshot = stable.snapshot();
        // Replica 3 restarts empty; two honest hints start its fetch.
        nodes[3] = atomic_replica_with(&cfg, public_arc, Arc::new(b3), KvMachine::new());
        let msg = ckpt_message(&Tag::root("rsm"), stable.seq, stable.round, &stable.digest);
        let mut rng = SeededRng::new(5);
        for (p, b) in [(0, &b0), (1, &b1)] {
            let share = b.signing_key().sign_share(&msg, &mut rng);
            let hint = RsmMessage::CkptShare {
                seq: stable.seq,
                round: stable.round,
                digest: stable.digest,
                share,
            };
            nodes[3].on_message(p, hint, &mut Effects::for_parties(4));
        }
        assert!(nodes[3].is_fetching());
        let transfer = |snapshot: Vec<u8>| RsmMessage::State {
            seq: stable.seq,
            round: stable.round,
            next_round: stable.round + 1,
            snapshot,
            dedup: stable.dedup.clone(),
            cert: stable.cert.clone(),
            tail: Vec::new(),
        };
        let ctx = observed(3);
        let mut fx = Effects::for_parties(4);
        for i in 0..snapshot.len() {
            let mut bad = snapshot.clone();
            bad[i] ^= 1;
            nodes[3].on_message_ctx(&ctx, 0, transfer(bad), &mut fx);
            assert_eq!(
                ctx.obs.metrics_snapshot().counter("rsm.state_rejected"),
                i as u64 + 1,
                "flip at byte {i}"
            );
        }
        assert!(nodes[3].is_fetching());
        assert_eq!(nodes[3].applied(), 0, "nothing tampered was adopted");
        for p in [0, 1] {
            nodes[3].on_message_ctx(&ctx, p, transfer(snapshot.clone()), &mut fx);
        }
        assert!(!nodes[3].is_fetching(), "the genuine transfer completes");
        assert_eq!(nodes[3].applied(), stable.seq);
        assert_eq!(nodes[3].machine().snapshot(), snapshot);
    }

    #[test]
    fn ckpt_share_pool_is_bounded_per_sender() {
        let (public, bundles) = deal(4, 1, 27);
        let b3 = bundles[3].clone();
        let mut nodes = atomic_replicas(public, bundles, |_| KvMachine::new(), 27);
        // A wide interval keeps every claim below the far-future hint
        // horizon, so this test exercises only the pooling path.
        #[allow(deprecated)] // the shim must keep working
        nodes[0].set_ckpt_interval(CKPT_POOL_LOOKAHEAD + 32);
        let mut rng = SeededRng::new(4);
        let tag = Tag::root("rsm");
        // A Byzantine sender floods fabricated near-round claims, each
        // with a valid share over a distinct (seq, round, digest). The
        // pool accepts at most CKPT_POOL_PER_SENDER of them.
        for i in 0..30u64 {
            let (seq, round, d) = (i + 1, (i % 8) + 1, [i as u8; 32]);
            let msg = ckpt_message(&tag, seq, round, &d);
            let share = b3.signing_key().sign_share(&msg, &mut rng);
            let mut fx = Effects::for_parties(4);
            nodes[0].on_message(
                3,
                RsmMessage::CkptShare {
                    seq,
                    round,
                    digest: d,
                    share,
                },
                &mut fx,
            );
        }
        assert_eq!(nodes[0].pooled_ckpt_shares(), CKPT_POOL_PER_SENDER);
        // Claims past the round lookahead (but below the hint horizon)
        // are rejected outright — they never reach the pool.
        let (seq, round, d) = (40u64, CKPT_POOL_LOOKAHEAD + 9, [41u8; 32]);
        let msg = ckpt_message(&tag, seq, round, &d);
        let share = b3.signing_key().sign_share(&msg, &mut rng);
        let mut fx = Effects::for_parties(4);
        nodes[0].on_message(
            3,
            RsmMessage::CkptShare {
                seq,
                round,
                digest: d,
                share,
            },
            &mut fx,
        );
        assert_eq!(nodes[0].pooled_ckpt_shares(), CKPT_POOL_PER_SENDER);
    }

    #[test]
    fn reply_shares_verify() {
        let (public, bundles) = deal(4, 1, 7);
        let verifier = public.clone();
        let replicas = atomic_replicas(public, bundles, |_| EchoMachine::new(), 7);
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(8)
            .build();
        sim.input(1, b"check-shares".to_vec());
        sim.run_until_quiet(50_000_000);
        let tag = Tag::root("rsm");
        for p in 0..4 {
            for r in sim.outputs(p) {
                let msg = reply_message(&tag, &r.request, r.seq, &r.response);
                assert!(
                    verifier.signing().verify_share(&msg, &r.share),
                    "party {p} reply share verifies"
                );
                assert_eq!(r.replier, p);
            }
        }
    }
}
