//! Atomic broadcast (total-order broadcast) over multi-valued Byzantine
//! agreement — the protocol of §3, following the Chandra-Toueg round
//! shape in the Byzantine model.
//!
//! All honest servers deliver the same messages in the same order, which
//! is what makes state machine replication possible. The protocol runs
//! in global rounds:
//!
//! 1. every party holds a queue of payloads to order (its own inputs
//!    plus payloads pushed by clients/peers — a broadcast sends the
//!    payload to everyone, so it enters every honest queue, which is
//!    what the paper's fairness condition rests on);
//! 2. at round `r` each party signs its queue head (or an explicit
//!    empty filler) and sends it to all;
//! 3. once properly signed proposals from a core quorum arrive, the
//!    party proposes that *list* to the round's [`Mvba`] instance; the
//!    **external validity** predicate accepts only lists of correctly
//!    signed round-`r` proposals from a core set of parties — so at
//!    least a qualified (honest-containing) set of the entries comes
//!    from honest parties;
//! 4. the decided list's payloads are delivered in a deterministic
//!    order, duplicates (already delivered in earlier rounds) skipped,
//!    and the next round begins.

use crate::common::{digest, Digest, Outbox, Tag, WireKind};
use crate::mvba::{Mvba, MvbaMessage, ValidityPredicate};
use crate::pool::VerifyPool;
use parking_lot::Mutex;
use sintra_adversary::party::{PartyId, PartySet};
use sintra_crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra_crypto::rng::SeededRng;
use sintra_crypto::schnorr::{PublicKey, Signature};
use sintra_net::codec::MAX_PAYLOAD;
use sintra_net::protocol::{Context, Effects, Protocol};
use sintra_obs::{Event, EventKind, Layer};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Weak};

/// Atomic-broadcast wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum AbcMessage {
    /// Payload dissemination: enters every honest party's queue (the
    /// fairness mechanism).
    Push(Vec<u8>),
    /// A party's signed round proposal: a bounded prefix of its queue
    /// (an empty batch = filler, nothing to order).
    Queued {
        /// Round number.
        round: u64,
        /// Proposed payloads, in queue order. Bounded by
        /// [`QUEUED_BATCH_DECODE_CAP`] entries and [`MAX_PAYLOAD`]
        /// total bytes; sub-payloads must be non-empty.
        batch: Vec<Vec<u8>>,
        /// Signature under the party's authentication key over
        /// `(tag, round, encode_batch(batch))`.
        sig: Signature,
    },
    /// Round-`r` multi-valued agreement traffic.
    Mvba {
        /// Round number.
        round: u64,
        /// The MVBA sub-message.
        inner: MvbaMessage,
    },
}

impl WireKind for AbcMessage {
    fn kind(&self) -> &'static str {
        match self {
            AbcMessage::Push(_) => "push",
            AbcMessage::Queued { .. } => "queued",
            AbcMessage::Mvba { .. } => "mvba",
        }
    }
}

/// Counts one ABC wire message under its own layer's per-kind counters
/// and forwards embedded MVBA traffic to that layer's breakdown.
pub(crate) fn observe_wire(ctx: &Context, dir: &'static str, m: &AbcMessage) {
    ctx.obs.inc2(Layer::Abc, dir, m.kind());
    if let AbcMessage::Mvba { inner, .. } = m {
        crate::mvba::observe_wire(ctx, dir, inner);
    }
}

/// One totally-ordered delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbcDeliver {
    /// Position in the total order (0-based, consecutive).
    pub seq: u64,
    /// The agreement round whose decided list carried the payload.
    /// Deterministic across honest parties, which is what lets the RSM
    /// layer bind checkpoints to a round number every replica agrees
    /// on.
    pub round: u64,
    /// The party whose round proposal carried the payload.
    pub origin: PartyId,
    /// The delivered payload.
    pub payload: Vec<u8>,
}

/// How far past the current round proposals and MVBA traffic are
/// accepted. Round numbers are attacker-chosen (a party can sign a
/// `Queued` proposal for any round with its own key), so without a
/// window a Byzantine party could open unboundedly many round entries
/// and instantiate unboundedly many MVBA machines. Honest parties only
/// run ahead by completed rounds, which requires core-quorum traffic.
const ROUND_LOOKAHEAD: u64 = 16;

/// How far *behind* the current round MVBA traffic is still served.
/// A party that advanced past round `r` keeps answering round-`r`
/// MVBA messages (in practice: CBC echoes for a starved party's list
/// proposal) so that a laggard can finish old rounds from transcripts
/// alone even after everyone else moved on. The window bounds how many
/// stale MVBA machines can be kept alive or re-instantiated.
const ROUND_RETROSPECT: u64 = 16;

/// Default per-sender budget of buffered pushed payloads (see
/// [`AtomicBroadcast::set_push_bound`]).
const DEFAULT_PUSH_BOUND: usize = 1024;

/// Default garbage-collection window (see
/// [`AtomicBroadcast::set_gc_window`]): the hard cap on how many
/// completed rounds of working state (decided lists, proposal sets,
/// MVBA machines) are retained for parties that have not acknowledged
/// them. A party that falls further behind than this must catch up via
/// the RSM checkpoint/state-transfer path instead of from round
/// transcripts.
const DEFAULT_GC_WINDOW: u64 = 64;

/// How many completed rounds of delivered-payload digests are kept for
/// duplicate suppression. This is a **protocol constant**, not a tuning
/// knob: whether round `r`'s decided list re-delivers a payload depends
/// on whether its digest is still inside the window, so every honest
/// party must prune by the same round-relative rule or total order
/// diverges. Within the window a payload is delivered at most once; a
/// copy re-proposed more than `DEDUP_ROUNDS` rounds after delivery is
/// re-delivered — identically at every honest party.
pub const DEDUP_ROUNDS: u64 = 64;

/// Hard cap on proposal-batch entry count, enforced by the wire codec,
/// by [`batch_within_bounds`], and by external validity (mirroring the
/// RSM layer's `DEDUP_DECODE_CAP` pattern: every decode path that a
/// Byzantine peer can reach is bounded). [`AbcTuning::batch_cap`] is
/// clamped to it by [`AtomicBroadcast::tune`], so honest batches always
/// pass.
pub const QUEUED_BATCH_DECODE_CAP: usize = 1024;

/// Default number of payloads proposed per round (see
/// [`AbcTuning::batch_cap`]).
const DEFAULT_BATCH_CAP: usize = 16;

/// Default byte budget per proposed batch (see
/// [`AbcTuning::batch_bytes`]).
const DEFAULT_BATCH_BYTES: usize = 64 << 10;

/// Hard cap on rounds concurrently in flight. This is a **protocol
/// constant**, not a tuning knob: a receiver interprets a `Queued`
/// proposal for round `r` as acknowledging delivery only through
/// `r - (MAX_PIPELINE_DEPTH - 1)`, so no honest configuration may run
/// further ahead of its deliveries than this. It must stay at or below
/// [`ROUND_LOOKAHEAD`] or a party's own pipelined proposals would fall
/// outside its peers' acceptance window.
pub const MAX_PIPELINE_DEPTH: u64 = 8;
const _: () = assert!(MAX_PIPELINE_DEPTH <= ROUND_LOOKAHEAD);

/// Default pipeline depth (see [`AbcTuning::pipeline_depth`]).
const DEFAULT_PIPELINE_DEPTH: u64 = 2;

/// How much less a round-`r` proposal proves than it used to: with
/// pipelining, an honest sender may propose up to
/// [`MAX_PIPELINE_DEPTH`] rounds past its delivery frontier.
const PIPELINE_ACK_SLACK: u64 = MAX_PIPELINE_DEPTH - 1;

/// The ABC hot-path tuning knobs as one value, so configuration
/// reaches every replica of every group identically. Out-of-range
/// values are clamped by [`AtomicBroadcast::tune`], never rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbcTuning {
    /// Max payloads proposed per round
    /// (`1..=`[`QUEUED_BATCH_DECODE_CAP`]).
    pub batch_cap: usize,
    /// Byte budget per proposed batch (the first payload is exempt so
    /// an oversized payload still makes progress).
    pub batch_bytes: usize,
    /// Rounds allowed concurrently in flight
    /// (`1..=`[`MAX_PIPELINE_DEPTH`]): round `r + 1` opens as soon as
    /// round `r` has a core proposal quorum (its MVBA is proposed to),
    /// without waiting for `r`'s decision; delivery stays strictly in
    /// round order.
    pub pipeline_depth: u64,
}

impl Default for AbcTuning {
    /// The defaults a freshly built endpoint already runs with.
    fn default() -> AbcTuning {
        AbcTuning {
            batch_cap: DEFAULT_BATCH_CAP,
            batch_bytes: DEFAULT_BATCH_BYTES,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
        }
    }
}

impl AbcTuning {
    /// The seed's sequential, one-payload-per-round configuration —
    /// the baseline the throughput benchmarks compare against.
    pub fn unbatched() -> AbcTuning {
        AbcTuning {
            batch_cap: 1,
            batch_bytes: DEFAULT_BATCH_BYTES,
            pipeline_depth: 1,
        }
    }
}

/// Atomic broadcast endpoint at one server.
pub struct AtomicBroadcast {
    tag: Tag,
    me: PartyId,
    n: usize,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    round: u64,
    /// Payloads awaiting ordering, each with its digest (hashed once, on
    /// entry).
    queue: VecDeque<(Digest, Vec<u8>)>,
    queued_digests: HashSet<Digest>,
    /// Delivered-payload digest → delivery round, for duplicate
    /// suppression. Windowed: entries older than [`DEDUP_ROUNDS`]
    /// before the delivering round are pruned (deterministically, so
    /// every honest party skips or re-delivers identically).
    delivered: HashMap<Digest, u64>,
    /// Delivery-round index over `delivered`, in delivery order within
    /// each round (drives pruning and the canonical window encoding).
    delivered_rounds: BTreeMap<u64, Vec<Digest>>,
    /// Per-sender count of still-queued pushed payloads; a sender whose
    /// debt reaches `push_bound` has further pushes dropped, so a
    /// Byzantine flooder cannot grow the queue without bound.
    push_debt: Vec<usize>,
    /// Which sender is charged for a queued pushed payload (released on
    /// delivery).
    charged: HashMap<Digest, PartyId>,
    push_bound: usize,
    /// Verified round proposals per round and party. Each round's map is
    /// shared with that round's validity predicate, which skips the
    /// signature of any list entry equal to one held here; dropping a
    /// round here drops that memo too (the predicate holds a `Weak`).
    proposals: BTreeMap<u64, Arc<ProposalMap>>,
    /// Per round: the digest of every payload some verified proposal in
    /// `proposals` carries — what the pipelining trigger consults to
    /// tell a payload already riding an open round from a fresh one.
    /// Filled and dropped together with `proposals`.
    carried: BTreeMap<u64, HashSet<Digest>>,
    sent_queued: BTreeSet<u64>,
    mvba_proposed: BTreeSet<u64>,
    mvbas: BTreeMap<u64, Mvba>,
    decided_lists: BTreeMap<u64, Vec<u8>>,
    next_seq: u64,
    /// Total rounds completed (observability for benchmarks).
    rounds_completed: u64,
    /// Highest round each peer has provably reached: a correctly signed
    /// `Queued` proposal for round `r` acknowledges delivery of every
    /// round below `r`. Our own entry tracks `self.round`.
    ack_round: Vec<u64>,
    /// Hard retention cap for completed-round state (see
    /// [`set_gc_window`](Self::set_gc_window)).
    gc_window: u64,
    /// Max payloads proposed per round (clamped to
    /// [`QUEUED_BATCH_DECODE_CAP`]).
    batch_cap: usize,
    /// Byte budget per proposed batch. Soft: the first payload of a
    /// batch is exempt, so an oversized payload still makes progress.
    batch_bytes: usize,
    /// Rounds allowed concurrently in flight (1 = the seed's strictly
    /// sequential rounds; clamped to [`MAX_PIPELINE_DEPTH`]).
    pipeline_depth: u64,
    /// Per open round: how many leading queue entries that round's
    /// proposal still covers. Batches are queue prefixes, so a batch of
    /// length `L` covers positions `0..L`; a delivery that removes a
    /// covered entry shrinks every cover past it, and a round falling
    /// behind the delivery frontier drops out. [`select_batch`]
    /// (Self::select_batch) extends its entry cap by the widest live
    /// cover so content already in flight does not crowd out new
    /// payloads. Bounded by [`MAX_PIPELINE_DEPTH`] entries.
    proposed_cover: BTreeMap<u64, usize>,
    /// Entry count of the most recently proposed batch (gauge).
    last_batch_size: u64,
}

impl core::fmt::Debug for AtomicBroadcast {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AtomicBroadcast")
            .field("me", &self.me)
            .field("round", &self.round)
            .field("queue_len", &self.queue.len())
            .field("delivered", &self.next_seq)
            .finish()
    }
}

impl AtomicBroadcast {
    /// Number of parties in the group.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Creates the endpoint.
    pub fn new(tag: Tag, public: Arc<PublicParameters>, bundle: Arc<ServerKeyBundle>) -> Self {
        let n = public.n();
        AtomicBroadcast {
            tag,
            me: bundle.party(),
            n,
            public,
            bundle,
            round: 0,
            queue: VecDeque::new(),
            queued_digests: HashSet::new(),
            delivered: HashMap::new(),
            delivered_rounds: BTreeMap::new(),
            push_debt: vec![0; n],
            charged: HashMap::new(),
            push_bound: DEFAULT_PUSH_BOUND,
            proposals: BTreeMap::new(),
            carried: BTreeMap::new(),
            sent_queued: BTreeSet::new(),
            mvba_proposed: BTreeSet::new(),
            mvbas: BTreeMap::new(),
            decided_lists: BTreeMap::new(),
            next_seq: 0,
            rounds_completed: 0,
            ack_round: vec![0; n],
            gc_window: DEFAULT_GC_WINDOW,
            batch_cap: DEFAULT_BATCH_CAP,
            batch_bytes: DEFAULT_BATCH_BYTES,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            proposed_cover: BTreeMap::new(),
            last_batch_size: 0,
        }
    }

    /// Number of payloads delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.next_seq
    }

    /// Number of agreement rounds completed.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Current round index.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Queue length (payloads awaiting ordering at this party).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of still-queued payloads pushed by `party` (observability
    /// for the flooding-bound tests).
    pub fn push_debt(&self, party: PartyId) -> usize {
        self.push_debt.get(party).copied().unwrap_or(0)
    }

    /// Number of rounds with live working state — proposal sets or MVBA
    /// machines (observability for the flooding-bound tests). Bounded by
    /// [`ROUND_LOOKAHEAD`] plus the current round.
    pub fn tracked_rounds(&self) -> usize {
        self.proposals.len().max(self.mvbas.len())
    }

    /// Number of completed rounds whose decided lists are still
    /// retained (the quantity the GC watermark bounds).
    pub fn retained_rounds(&self) -> usize {
        self.decided_lists.len()
    }

    /// Approximate bytes of retained completed-round state: decided
    /// list encodings, buffered round proposals with their payload
    /// digests, and the delivered-payload dedup window.
    pub fn retained_bytes(&self) -> usize {
        let lists: usize = self.decided_lists.values().map(Vec::len).sum();
        let props: usize = self
            .proposals
            .values()
            .map(|m| m.lock().values().map(|(p, _)| p.len() + 64).sum::<usize>())
            .sum::<usize>()
            + self.carried.values().map(|c| c.len() * 32).sum::<usize>();
        // digest + round key in both the map and the round index
        let dedup = self.delivered.len() * 80;
        lists + props + dedup
    }

    /// The delivered-payload dedup window as `(delivery round, digest)`
    /// pairs in canonical (round, delivery) order. Deterministic across
    /// honest parties at the same round boundary, so the RSM layer can
    /// commit it into checkpoint certificates and a rejoining replica
    /// can restore dedup state it can trust.
    pub fn dedup_window(&self) -> Vec<(u64, Digest)> {
        self.delivered_rounds
            .iter()
            .flat_map(|(r, ds)| ds.iter().map(move |d| (*r, *d)))
            .collect()
    }

    /// The stable low-watermark: every round below it has been pruned.
    /// It trails the slowest acknowledged party, but never lags the
    /// current round by more than the GC window — a silent (crashed or
    /// Byzantine) party cannot hold memory hostage; it rejoins via
    /// state transfer instead.
    pub fn gc_watermark(&self) -> u64 {
        let mut low = self.round;
        for (p, acked) in self.ack_round.iter().enumerate() {
            if p != self.me {
                low = low.min(*acked);
            }
        }
        low.max(self.round.saturating_sub(self.gc_window))
    }

    /// The GC retention cap, in rounds.
    pub fn gc_window(&self) -> u64 {
        self.gc_window
    }

    /// Sets the hard cap on retained completed rounds. State for rounds
    /// older than `window` below the current round is reclaimed even if
    /// some party never acknowledged them.
    pub fn set_gc_window(&mut self, window: u64) {
        self.gc_window = window.max(1);
    }

    /// The per-sender budget of buffered pushed payloads.
    pub fn push_bound(&self) -> usize {
        self.push_bound
    }

    /// Sets the per-sender budget of buffered pushed payloads. Once a
    /// sender has `bound` payloads queued, further pushes from it are
    /// dropped until deliveries release the debt.
    pub fn set_push_bound(&mut self, bound: usize) {
        self.push_bound = bound.max(1);
    }

    /// Max payloads proposed per round.
    pub fn batch_cap(&self) -> usize {
        self.batch_cap
    }

    /// Byte budget per proposed batch.
    pub fn batch_bytes(&self) -> usize {
        self.batch_bytes
    }

    /// Rounds allowed concurrently in flight.
    pub fn pipeline_depth(&self) -> u64 {
        self.pipeline_depth
    }

    /// Applies one [`AbcTuning`] — batch size, batch bytes, and
    /// pipeline depth together, each clamped to its range. The single
    /// entry point the RSM layer's `ReplicaConfig` drives.
    pub fn tune(&mut self, tuning: &AbcTuning) {
        self.batch_cap = tuning.batch_cap.clamp(1, QUEUED_BATCH_DECODE_CAP);
        self.batch_bytes = tuning.batch_bytes.clamp(1, MAX_PAYLOAD);
        self.pipeline_depth = tuning.pipeline_depth.clamp(1, MAX_PIPELINE_DEPTH);
    }

    /// Rounds currently open past the delivery frontier (gauge).
    pub fn rounds_in_flight(&self) -> u64 {
        self.sent_queued.range(self.round..).count() as u64
    }

    /// Entry count of the most recently proposed batch (gauge).
    pub fn last_batch_size(&self) -> u64 {
        self.last_batch_size
    }

    /// Always `None`: shares are verified inline. Kept only for the
    /// `benchmark/` package, which still reads it (see [`crate::pool`]).
    pub fn verify_pool(&self) -> Option<&VerifyPool> {
        None
    }

    fn queued_msg(&self, round: u64, payload: &[u8]) -> Vec<u8> {
        self.tag
            .message(&[b"queued", &round.to_be_bytes(), payload])
    }

    /// Broadcasts a payload: disseminates it so every honest server
    /// queues it (fairness), and joins the current round.
    ///
    /// Empty payloads are reserved as round fillers and rejected.
    pub fn broadcast(
        &mut self,
        payload: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<AbcMessage>,
    ) -> Vec<AbcDeliver> {
        assert!(
            !payload.is_empty(),
            "empty payloads are reserved as fillers"
        );
        out.broadcast(AbcMessage::Push(payload.clone()));
        // Enqueue locally as well; the self-addressed Push (if the
        // transport loops it back) deduplicates by digest.
        self.enqueue(payload);
        self.try_progress(rng, out)
    }

    /// Returns the payload's digest when it was newly queued.
    fn enqueue(&mut self, payload: Vec<u8>) -> Option<Digest> {
        let d = digest(&payload);
        if payload.is_empty() || self.delivered.contains_key(&d) || !self.queued_digests.insert(d) {
            return None;
        }
        self.queue.push_back((d, payload));
        Some(d)
    }

    /// Handles a message, returning any new total-order deliveries.
    pub fn on_message(
        &mut self,
        from: PartyId,
        msg: AbcMessage,
        rng: &mut SeededRng,
        out: &mut Outbox<AbcMessage>,
    ) -> Vec<AbcDeliver> {
        if from >= self.n {
            return Vec::new(); // out-of-range sender
        }
        match msg {
            AbcMessage::Push(payload) => {
                if self.push_debt[from] >= self.push_bound {
                    return Vec::new(); // flooding sender: buffer is bounded
                }
                if let Some(d) = self.enqueue(payload) {
                    self.push_debt[from] += 1;
                    self.charged.insert(d, from);
                }
                self.try_progress(rng, out)
            }
            AbcMessage::Queued { round, batch, sig } => {
                if round < self.round || round > self.round + ROUND_LOOKAHEAD {
                    return Vec::new(); // stale or beyond the round window
                }
                // Structural bounds before any crypto: the wire codec
                // enforces the same caps, but in-process senders (tests,
                // harness fault injectors) bypass it.
                if !batch_within_bounds(&batch) {
                    return Vec::new();
                }
                let encoded = encode_batch(&batch);
                let msg_bytes = self.queued_msg(round, &encoded);
                if !self.public.auth_key(from).verify(&msg_bytes, &sig) {
                    return Vec::new();
                }
                // A correctly signed proposal for round `r` proves the
                // sender delivered every round below `r` minus the
                // pipelining slack — it is the GC acknowledgement,
                // piggybacked on existing traffic.
                self.ack_round[from] =
                    self.ack_round[from].max(round.saturating_sub(PIPELINE_ACK_SLACK));
                if let Entry::Vacant(slot) =
                    self.proposals.entry(round).or_default().lock().entry(from)
                {
                    slot.insert((encoded, sig));
                    self.carried
                        .entry(round)
                        .or_default()
                        .extend(batch.iter().map(|p| digest(p)));
                }
                self.try_progress(rng, out)
            }
            AbcMessage::Mvba { round, inner } => {
                if round + ROUND_RETROSPECT < self.round || round > self.round + ROUND_LOOKAHEAD {
                    return Vec::new(); // outside the served round window
                }
                let mut sub = Outbox::new(self.n);
                let mvba = self.mvba_instance(round);
                let decision = mvba.on_message(from, inner, rng, &mut sub);
                for (to, m) in sub {
                    out.send(to, AbcMessage::Mvba { round, inner: m });
                }
                if let Some(list) = decision {
                    // Re-deciding an already-delivered round is idempotent
                    // (MVBA agreement: same round, same list).
                    self.decided_lists.insert(round, list);
                }
                self.try_progress(rng, out)
            }
        }
    }

    fn mvba_instance(&mut self, round: u64) -> &mut Mvba {
        if !self.mvbas.contains_key(&round) {
            // A round already closed here has no memo left to share.
            let known = if round >= self.round {
                Arc::downgrade(self.proposals.entry(round).or_default())
            } else {
                Weak::new()
            };
            let predicate = round_validity(&self.tag, round, Arc::clone(&self.public), known);
            let mvba = Mvba::new(
                self.tag.child("round", round),
                Arc::clone(&self.public),
                Arc::clone(&self.bundle),
                predicate,
            );
            self.mvbas.insert(round, mvba);
        }
        self.mvbas.get_mut(&round).expect("inserted above")
    }

    /// The prefix of the queue to propose next.
    ///
    /// Deliberately a *prefix*, never deduplicated against rounds still
    /// in flight: an MVBA may decide a list that excludes our proposal,
    /// so if a pipelined round `r + 1` skipped ahead to later queue
    /// entries and round `r`'s batch lost, the later entries would
    /// deliver first and break the per-origin FIFO fairness condition.
    /// Every delivered batch being a queue prefix as of its propose time
    /// is the fairness invariant; the delivery dedup window (well wider
    /// than [`MAX_PIPELINE_DEPTH`]) discards whatever an earlier round
    /// already ordered.
    ///
    /// Naive re-proposal would let in-flight content crowd out new
    /// payloads (a deep pipeline would carry the same `batch_cap`
    /// entries in every open round), so the entry cap *extends* past the
    /// widest still-covered prefix (`proposed_cover`): covered entries
    /// ride along unconditionally, and up to `batch_cap` fresh entries
    /// follow under a fresh `batch_bytes` budget (first fresh payload of
    /// an otherwise empty batch exempt, so an oversized head still makes
    /// progress). The whole batch stays within the receiver-enforced
    /// structural bounds ([`QUEUED_BATCH_DECODE_CAP`], [`MAX_PAYLOAD`]).
    fn select_batch(&self) -> Vec<Vec<u8>> {
        self.queue
            .iter()
            .take(self.batch_len())
            .map(|(_, p)| p.clone())
            .collect()
    }

    /// The widest queue prefix a still-open round of ours proposed.
    fn covered(&self) -> usize {
        self.proposed_cover.values().copied().max().unwrap_or(0)
    }

    /// Length of the queue prefix [`select_batch`](Self::select_batch)
    /// proposes.
    fn batch_len(&self) -> usize {
        let covered = self.covered();
        let cap = covered
            .saturating_add(self.batch_cap)
            .min(QUEUED_BATCH_DECODE_CAP);
        let mut len = 0usize;
        let mut total = 0usize;
        let mut fresh = 0usize;
        for (_, p) in self.queue.iter().take(cap) {
            if len > 0 && total + p.len() > MAX_PAYLOAD {
                break;
            }
            if len >= covered {
                if len > 0 && fresh + p.len() > self.batch_bytes {
                    break;
                }
                fresh += p.len();
            }
            total += p.len();
            len += 1;
        }
        len
    }

    /// Whether the queue prefix of length `len` holds a payload that no
    /// open round below `r` already carries — neither one of our own
    /// proposals (`proposed_cover`) nor a verified proposal of a peer
    /// (`carried`). The pipelining trigger: only such a payload is worth
    /// a round of its own while its predecessors are still in flight.
    ///
    /// A peer's proposal counts, not just ours, because its `Queued`
    /// often overtakes the submitter's `Push`: we then join the round
    /// with a filler, and the late-pushed payload is in nobody's cover
    /// here although every other party is already ordering it. Should
    /// all its carriers lose round `r`, the payload is fresh again the
    /// moment `r` closes (cover and `carried[r]` are dropped with it),
    /// so a proposer that advertises a payload and goes silent delays
    /// it by at most that one round.
    fn has_fresh_payload(&self, r: u64, len: usize) -> bool {
        self.queue
            .iter()
            .take(len)
            .skip(self.covered())
            .any(|(d, _)| {
                !self
                    .carried
                    .range(self.round..r)
                    .any(|(_, c)| c.contains(d))
            })
    }

    /// Tick hook: fires any enabled round transitions.
    pub fn on_tick(
        &mut self,
        rng: &mut SeededRng,
        out: &mut Outbox<AbcMessage>,
    ) -> Vec<AbcDeliver> {
        self.try_progress(rng, out)
    }

    /// Fires all enabled round transitions, across the whole pipeline
    /// window: up to `pipeline_depth` rounds may be open concurrently,
    /// each opening as soon as its predecessor has a core proposal
    /// quorum. Delivery stays strictly at the round frontier.
    fn try_progress(
        &mut self,
        rng: &mut SeededRng,
        out: &mut Outbox<AbcMessage>,
    ) -> Vec<AbcDeliver> {
        let mut delivered = Vec::new();
        loop {
            let mut advanced = false;
            let base = self.round;
            for r in base..base + self.pipeline_depth {
                // Round r > base opens only once round r-1 reached a
                // core proposal quorum (we proposed to its MVBA), and
                // then only for a payload no open round carries yet (or
                // because a peer opened it) — the pipelining trigger.
                // Concurrent rounds still propose overlapping queue
                // prefixes; delivery dedup keeps the overlap harmless
                // and FIFO-preserving (see `select_batch`).
                if r > base && !self.mvba_proposed.contains(&(r - 1)) {
                    break;
                }
                // 1. Join round r: sign and send a prefix of our queue
                //    (or a filler if others are active and we have
                //    nothing eligible).
                if !self.sent_queued.contains(&r) {
                    let round_active = self.proposals.get(&r).is_some_and(|p| !p.lock().is_empty())
                        || self.decided_lists.contains_key(&r);
                    let len = self.batch_len();
                    let worth_a_round = if r == base {
                        len > 0
                    } else {
                        self.has_fresh_payload(r, len)
                    };
                    if worth_a_round || round_active {
                        let batch = self.select_batch();
                        self.sent_queued.insert(r);
                        let encoded = encode_batch(&batch);
                        let sig = self
                            .bundle
                            .auth_key()
                            .sign(&self.queued_msg(r, &encoded), rng);
                        self.last_batch_size = batch.len() as u64;
                        self.proposed_cover.insert(r, batch.len());
                        out.broadcast(AbcMessage::Queued {
                            round: r,
                            batch,
                            sig,
                        });
                        advanced = true;
                    }
                }
                // 2. Propose the MVBA once a core quorum of proposals
                //    is in.
                if !self.mvba_proposed.contains(&r) && self.sent_queued.contains(&r) {
                    let holders: PartySet = self
                        .proposals
                        .get(&r)
                        .map(|p| p.lock().keys().copied().collect())
                        .unwrap_or_default();
                    if self.public.structure().is_core(&holders) {
                        self.mvba_proposed.insert(r);
                        let entries: Vec<(PartyId, Vec<u8>, Signature)> = self.proposals[&r]
                            .lock()
                            .iter()
                            .map(|(p, (payload, sig))| (*p, payload.clone(), *sig))
                            .collect();
                        let list = encode_list(&entries);
                        let mut sub = Outbox::new(self.n);
                        let mvba = self.mvba_instance(r);
                        let decision = mvba.propose(list, rng, &mut sub);
                        for (to, m) in sub {
                            out.send(to, AbcMessage::Mvba { round: r, inner: m });
                        }
                        if let Some(list) = decision {
                            self.decided_lists.insert(r, list);
                        }
                        advanced = true;
                    }
                }
            }
            // 3. Deliver the decided round at the frontier and advance.
            //    Out-of-order decisions (a pipelined round deciding
            //    before its predecessor) wait in `decided_lists`.
            let r = self.round;
            if let Some(list) = self.decided_lists.get(&r).cloned() {
                delivered.extend(self.deliver_list(r, &list));
                self.round = r + 1;
                // A closed round's proposal is settled — won or lost, it
                // no longer covers queue content (a loser's entries must
                // be eligible again under the normal cap).
                self.proposed_cover = self.proposed_cover.split_off(&self.round);
                self.rounds_completed += 1;
                self.ack_round[self.me] = self.round;
                self.collect_garbage();
                advanced = true;
            }
            if !advanced {
                break;
            }
        }
        delivered
    }

    /// Reclaims completed-round state below the stable low-watermark
    /// (decided lists, proposal sets) and outside the served window
    /// (MVBA machines, bookkeeping sets). Recent rounds stay answerable
    /// for laggards (see [`ROUND_RETROSPECT`]); anything older than the
    /// watermark is recoverable only via RSM state transfer.
    fn collect_garbage(&mut self) {
        let watermark = self.gc_watermark();
        self.decided_lists = self.decided_lists.split_off(&watermark);
        self.proposals = self.proposals.split_off(&self.round);
        self.carried = self.carried.split_off(&self.round);
        let keep_from = self.round.saturating_sub(ROUND_RETROSPECT);
        self.mvbas = self.mvbas.split_off(&keep_from);
        // Round flags are consulted for the pipeline window, which
        // starts at the current round — exactly what split_off keeps.
        self.sent_queued = self.sent_queued.split_off(&self.round);
        self.mvba_proposed = self.mvba_proposed.split_off(&self.round);
    }

    /// Jumps the endpoint forward after an out-of-band catch-up (RSM
    /// state transfer): delivery resumes at `next_seq` in round
    /// `next_round`. All working state for skipped rounds is dropped —
    /// their effects are already reflected in the restored application
    /// snapshot. The delivered-payload dedup window is re-seeded from
    /// `dedup` (taken from the certified checkpoint plus the vouched
    /// tail), so post-jump delivery decisions match the live quorum's
    /// exactly.
    pub fn fast_forward(&mut self, next_seq: u64, next_round: u64, dedup: &[(u64, Digest)]) {
        if next_round <= self.round && next_seq <= self.next_seq {
            return; // already caught up
        }
        self.next_seq = self.next_seq.max(next_seq);
        self.round = self.round.max(next_round);
        self.ack_round[self.me] = self.round;
        self.decided_lists = self.decided_lists.split_off(&self.round);
        self.proposals = self.proposals.split_off(&self.round);
        self.carried = self.carried.split_off(&self.round);
        self.mvbas = self.mvbas.split_off(&self.round);
        self.sent_queued = self.sent_queued.split_off(&self.round);
        self.mvba_proposed = self.mvba_proposed.split_off(&self.round);
        self.delivered.clear();
        self.delivered_rounds.clear();
        let horizon = self.round.saturating_sub(DEDUP_ROUNDS);
        for (r, d) in dedup {
            if *r >= horizon && self.delivered.insert(*d, *r).is_none() {
                self.delivered_rounds.entry(*r).or_default().push(*d);
            }
        }
        // Drop the pending queue: payloads pushed to us while we lagged
        // were mostly ordered (and reflected in the restored snapshot)
        // long ago. Re-proposing them would burn rounds the others skip
        // by dedup — and, with our own dedup history gone, we would
        // re-deliver them and our sequence numbers would skew forever.
        // An honest push reached every party, so anything genuinely
        // undelivered is still in the survivors' queues; clients retry.
        self.queue.clear();
        self.queued_digests.clear();
        self.proposed_cover.clear();
        self.charged.clear();
        self.push_debt.fill(0);
    }

    fn deliver_list(&mut self, round: u64, list: &[u8]) -> Vec<AbcDeliver> {
        // Rotate the dedup window first: the skip/deliver decision below
        // must depend only on digests within [`DEDUP_ROUNDS`] of this
        // round, the same rule at every honest party.
        let horizon = round.saturating_sub(DEDUP_ROUNDS);
        while let Some((&r, _)) = self.delivered_rounds.first_key_value() {
            if r >= horizon {
                break;
            }
            for d in self.delivered_rounds.remove(&r).unwrap_or_default() {
                self.delivered.remove(&d);
            }
        }
        let mut entries = decode_list(list).expect("decided lists passed external validity");
        entries.sort_by_key(|(party, _, _)| *party);
        let mut delivered = Vec::new();
        for (origin, encoded, _) in entries {
            // Each entry is a signed batch; sub-payloads deliver in
            // queue order within their origin's entry. An empty batch
            // is the round filler. Validity guaranteed decodability.
            let batch = decode_batch(encoded).expect("decided lists passed external validity");
            for payload in batch {
                let d = digest(&payload);
                if self.delivered.contains_key(&d) {
                    continue; // already delivered within the dedup window
                }
                self.delivered.insert(d, round);
                self.delivered_rounds.entry(round).or_default().push(d);
                // Drop from our own queue if pending, releasing the
                // pushing sender's budget. Covers are prefix lengths, so
                // removing a covered position shrinks every cover past
                // it by one.
                if self.queued_digests.remove(&d) {
                    if let Some(pos) = self.queue.iter().position(|(q, _)| *q == d) {
                        self.queue.remove(pos);
                        for cover in self.proposed_cover.values_mut() {
                            if *cover > pos {
                                *cover -= 1;
                            }
                        }
                    }
                }
                if let Some(p) = self.charged.remove(&d) {
                    self.push_debt[p] = self.push_debt[p].saturating_sub(1);
                }
                delivered.push(AbcDeliver {
                    seq: self.next_seq,
                    round,
                    origin,
                    payload,
                });
                self.next_seq += 1;
            }
        }
        delivered
    }
}

/// One round's verified `Queued` proposals, by party: the batch
/// encoding and its signature.
type ProposalMap = Mutex<HashMap<PartyId, (Vec<u8>, Signature)>>;

/// The external validity predicate for round `r`: the value must decode
/// to a list of distinct-party entries whose holders form a core set,
/// each correctly signed for this round (all signatures in one batch
/// equation, checked last).
///
/// `known` is this party's own round-`r` proposal map. An entry equal to
/// one held there — same party, same batch bytes, same signature bytes
/// — carries a signature this party verified when the `Queued` arrived,
/// so only the other entries are decoded and batch-verified. The verdict
/// is the one a full check gives; only its cost depends on local state.
fn round_validity(
    tag: &Tag,
    round: u64,
    public: Arc<PublicParameters>,
    known: Weak<ProposalMap>,
) -> ValidityPredicate {
    let tag = tag.clone();
    Arc::new(move |value: &[u8]| {
        let Some(entries) = decode_list(value) else {
            return false;
        };
        let mut holders = PartySet::new();
        let mut unknown = Vec::new();
        {
            let memo = known.upgrade();
            let memo = memo.as_deref().map(Mutex::lock);
            for &(party, payload, sig) in &entries {
                if party >= public.n() || !holders.insert(party) {
                    return false; // out of range or duplicate
                }
                // The entry payload must be a well-formed, bounded batch
                // encoding; delivery relies on it decoding cleanly.
                if decode_batch(payload).is_none() {
                    return false;
                }
                let seen = memo.as_ref().and_then(|m| m.get(&party));
                if seen.is_some_and(|(p, s)| p[..] == *payload && s.to_bytes() == *sig) {
                    continue;
                }
                let Some(sig) = Signature::from_bytes(sig) else {
                    return false;
                };
                unknown.push((
                    party,
                    tag.message(&[b"queued", &round.to_be_bytes(), payload]),
                    sig,
                ));
            }
        }
        if !public.structure().is_core(&holders) {
            return false;
        }
        let items: Vec<_> = unknown
            .iter()
            .map(|(party, msg, sig)| (public.auth_key(*party), &msg[..], sig))
            .collect();
        PublicKey::verify_batch(&items)
    })
}

/// Encodes a proposal list: `count ‖ (party ‖ len ‖ payload ‖ sig)*`.
fn encode_list(entries: &[(PartyId, Vec<u8>, Signature)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (party, payload, sig) in entries {
        out.extend_from_slice(&(*party as u32).to_be_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&sig.to_bytes());
    }
    out
}

/// One proposal-list entry as borrowed from the encoding.
type ListEntry<'a> = (PartyId, &'a [u8], &'a [u8; 64]);

/// Splits a proposal list into `(party, payload, signature bytes)`
/// entries borrowed from `bytes`; `None` on malformed framing.
/// Signatures stay undecoded, so a caller that needs only some of them
/// pays the subgroup test for those alone.
fn decode_list(bytes: &[u8]) -> Option<Vec<ListEntry<'_>>> {
    fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if rest.len() < n {
            return None;
        }
        let (head, tail) = rest.split_at(n);
        *rest = tail;
        Some(head)
    }
    let mut rest = bytes;
    let count = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
    if count > 4096 {
        return None; // sanity bound
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let party = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as PartyId;
        let len = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
        if len > 1 << 24 {
            return None;
        }
        let payload = take(&mut rest, len)?;
        let sig = take(&mut rest, 64)?.try_into().ok()?;
        out.push((party, payload, sig));
    }
    if !rest.is_empty() {
        return None;
    }
    Some(out)
}

/// Structural bounds on a proposal batch: entry count within
/// [`QUEUED_BATCH_DECODE_CAP`], no empty sub-payloads (empty batches —
/// not empty payloads — are the round filler), total bytes within
/// [`MAX_PAYLOAD`].
pub fn batch_within_bounds(batch: &[Vec<u8>]) -> bool {
    if batch.len() > QUEUED_BATCH_DECODE_CAP {
        return false;
    }
    let mut total = 0usize;
    for p in batch {
        if p.is_empty() {
            return false;
        }
        total += p.len();
        if total > MAX_PAYLOAD {
            return false;
        }
    }
    true
}

/// Encodes a proposal batch: `count ‖ (len ‖ payload)*`. `Queued`
/// signatures and MVBA list entries cover this encoding, so batch
/// boundaries are authenticated.
pub fn encode_batch(batch: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + batch.iter().map(|p| 4 + p.len()).sum::<usize>());
    out.extend_from_slice(&(batch.len() as u32).to_be_bytes());
    for p in batch {
        out.extend_from_slice(&(p.len() as u32).to_be_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// Decodes a proposal batch, enforcing the [`batch_within_bounds`]
/// caps; `None` on malformed or oversized input.
pub fn decode_batch(bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut rest = bytes;
    let take = |rest: &mut &[u8], n: usize| -> Option<Vec<u8>> {
        if rest.len() < n {
            return None;
        }
        let (head, tail) = rest.split_at(n);
        *rest = tail;
        Some(head.to_vec())
    };
    let count = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
    if count > QUEUED_BATCH_DECODE_CAP {
        return None;
    }
    let mut total = 0usize;
    let mut out = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let len = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
        if len == 0 {
            return None; // empty payloads are reserved
        }
        total += len;
        if total > MAX_PAYLOAD {
            return None;
        }
        out.push(take(&mut rest, len)?);
    }
    if !rest.is_empty() {
        return None;
    }
    Some(out)
}

/// [`Protocol`] adapter: one atomic-broadcast server as a simulator
/// node. Inputs are payloads to broadcast; outputs are total-order
/// deliveries.
#[derive(Debug)]
pub struct AbcNode {
    abc: AtomicBroadcast,
    rng: SeededRng,
}

impl AbcNode {
    /// Wraps an endpoint with its nonce RNG.
    pub fn new(abc: AtomicBroadcast, rng: SeededRng) -> Self {
        AbcNode { abc, rng }
    }

    /// Read access to the endpoint.
    pub fn endpoint(&self) -> &AtomicBroadcast {
        &self.abc
    }

    /// Mutable access to the endpoint (GC tuning, fast-forward).
    pub fn endpoint_mut(&mut self) -> &mut AtomicBroadcast {
        &mut self.abc
    }

    /// Publishes retained-state gauges so long-run boundedness is
    /// measurable rather than asserted.
    fn record_retention(&self, ctx: &Context) {
        ctx.obs.gauge_set(
            Layer::Abc,
            "retained_rounds",
            self.abc.retained_rounds() as u64,
        );
        ctx.obs.gauge_set(
            Layer::Abc,
            "retained_bytes",
            self.abc.retained_bytes() as u64,
        );
        ctx.obs.gauge_set(
            Layer::Abc,
            "tracked_rounds",
            self.abc.tracked_rounds() as u64,
        );
        ctx.obs
            .gauge_set(Layer::Abc, "rounds_in_flight", self.abc.rounds_in_flight());
        ctx.obs
            .gauge_set(Layer::Abc, "batch_size", self.abc.last_batch_size());
    }
}

impl Protocol for AbcNode {
    type Message = AbcMessage;
    type Input = Vec<u8>;
    type Output = AbcDeliver;

    fn on_input(&mut self, input: Vec<u8>, fx: &mut Effects<AbcMessage, AbcDeliver>) {
        let mut out = Outbox::new(self.abc.n());
        for d in self.abc.broadcast(input, &mut self.rng, &mut out) {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_message(
        &mut self,
        from: PartyId,
        msg: AbcMessage,
        fx: &mut Effects<AbcMessage, AbcDeliver>,
    ) {
        let mut out = Outbox::new(self.abc.n());
        for d in self.abc.on_message(from, msg, &mut self.rng, &mut out) {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_tick(&mut self, fx: &mut Effects<AbcMessage, AbcDeliver>) {
        let mut out = Outbox::new(self.abc.n());
        for d in self.abc.on_tick(&mut self.rng, &mut out) {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_input_ctx(
        &mut self,
        ctx: &Context,
        input: Vec<u8>,
        fx: &mut Effects<AbcMessage, AbcDeliver>,
    ) {
        if !ctx.obs.is_enabled() {
            return self.on_input(input, fx);
        }
        let (s0, o0) = (fx.sends().len(), fx.outputs().len());
        self.on_input(input, fx);
        for (_, m) in &fx.sends()[s0..] {
            observe_wire(ctx, "sent", m);
        }
        record_deliveries(ctx, fx, o0);
        self.record_retention(ctx);
    }

    fn on_message_ctx(
        &mut self,
        ctx: &Context,
        from: PartyId,
        msg: AbcMessage,
        fx: &mut Effects<AbcMessage, AbcDeliver>,
    ) {
        if !ctx.obs.is_enabled() {
            return self.on_message(from, msg, fx);
        }
        observe_wire(ctx, "recv", &msg);
        let (s0, o0) = (fx.sends().len(), fx.outputs().len());
        self.on_message(from, msg, fx);
        for (_, m) in &fx.sends()[s0..] {
            observe_wire(ctx, "sent", m);
        }
        record_deliveries(ctx, fx, o0);
        self.record_retention(ctx);
    }

    fn on_tick_ctx(&mut self, ctx: &Context, fx: &mut Effects<AbcMessage, AbcDeliver>) {
        if !ctx.obs.is_enabled() {
            return self.on_tick(fx);
        }
        let (s0, o0) = (fx.sends().len(), fx.outputs().len());
        self.on_tick(fx);
        for (_, m) in &fx.sends()[s0..] {
            observe_wire(ctx, "sent", m);
        }
        record_deliveries(ctx, fx, o0);
        self.record_retention(ctx);
    }
}

/// Records each total-order delivery appended past `mark`.
fn record_deliveries(ctx: &Context, fx: &Effects<AbcMessage, AbcDeliver>, mark: usize) {
    for d in &fx.outputs()[mark..] {
        ctx.obs.inc(Layer::Abc, "delivered");
        ctx.obs.event(
            Event::new(Layer::Abc, EventKind::Deliver, ctx.me)
                .value(d.seq)
                .at(ctx.at),
        );
    }
}

/// Builds `n` connected [`AbcNode`]s for a dealt system (test/bench
/// helper).
pub fn abc_nodes(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    seed: u64,
) -> Vec<AbcNode> {
    let public = Arc::new(public);
    bundles
        .into_iter()
        .map(|b| {
            let rng = SeededRng::new(seed ^ (b.party() as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
            AbcNode::new(
                AtomicBroadcast::new(Tag::root("abc"), Arc::clone(&public), Arc::new(b)),
                rng,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_adversary::structure::TrustStructure;
    use sintra_crypto::dealer::Dealer;
    use sintra_net::sim::{
        AdaptiveScheduler, Behavior, Envelope, FifoScheduler, LifoScheduler, RandomScheduler,
        Scheduler, Simulation,
    };

    fn nodes(n: usize, t: usize, seed: u64) -> Vec<AbcNode> {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(seed);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        abc_nodes(public, bundles, seed)
    }

    fn delivered_payloads(
        sim: &Simulation<AbcNode, impl sintra_net::sim::Scheduler<AbcMessage>>,
        p: usize,
    ) -> Vec<Vec<u8>> {
        sim.outputs(p).iter().map(|d| d.payload.clone()).collect()
    }

    #[test]
    fn single_broadcast_total_order() {
        let mut sim = Simulation::builder(nodes(4, 1, 1), RandomScheduler)
            .seed(2)
            .build();
        sim.input(0, b"m1".to_vec());
        sim.run_until_quiet(10_000_000);
        for p in 0..4 {
            assert_eq!(
                delivered_payloads(&sim, p),
                vec![b"m1".to_vec()],
                "party {p}"
            );
        }
    }

    #[test]
    fn concurrent_broadcasts_same_order_everywhere() {
        for seed in 0..3u64 {
            let mut sim = Simulation::builder(nodes(4, 1, 10 + seed), RandomScheduler)
                .seed(20 + seed)
                .build();
            for p in 0..4 {
                sim.input(p, format!("msg-from-{p}").into_bytes());
            }
            sim.run_until_quiet(50_000_000);
            let reference = delivered_payloads(&sim, 0);
            assert_eq!(reference.len(), 4, "all messages delivered (seed {seed})");
            for p in 1..4 {
                assert_eq!(
                    delivered_payloads(&sim, p),
                    reference,
                    "party {p} seed {seed}"
                );
            }
            // Sequence numbers are consecutive.
            for p in 0..4 {
                let seqs: Vec<u64> = sim.outputs(p).iter().map(|d| d.seq).collect();
                assert_eq!(seqs, (0..4).collect::<Vec<u64>>());
            }
        }
    }

    #[test]
    fn order_holds_under_lifo() {
        let mut sim = Simulation::builder(nodes(4, 1, 40), LifoScheduler)
            .seed(41)
            .build();
        for p in 0..4 {
            sim.input(p, format!("m{p}").into_bytes());
        }
        sim.run_until_quiet(50_000_000);
        let reference = delivered_payloads(&sim, 0);
        assert_eq!(reference.len(), 4);
        for p in 1..4 {
            assert_eq!(delivered_payloads(&sim, p), reference);
        }
    }

    #[test]
    fn crash_fault_does_not_block_ordering() {
        let mut sim = Simulation::builder(nodes(4, 1, 50), RandomScheduler)
            .seed(51)
            .build();
        sim.corrupt(3, Behavior::Crash);
        sim.input(0, b"a".to_vec());
        sim.input(1, b"b".to_vec());
        sim.run_until_quiet(50_000_000);
        let reference = delivered_payloads(&sim, 0);
        assert_eq!(reference.len(), 2);
        for p in 1..3 {
            assert_eq!(delivered_payloads(&sim, p), reference, "party {p}");
        }
    }

    #[test]
    fn multiple_messages_from_one_party() {
        let mut sim = Simulation::builder(nodes(4, 1, 60), RandomScheduler)
            .seed(61)
            .build();
        sim.input(0, b"first".to_vec());
        sim.input(0, b"second".to_vec());
        sim.input(0, b"third".to_vec());
        sim.run_until_quiet(100_000_000);
        let reference = delivered_payloads(&sim, 0);
        assert_eq!(reference.len(), 3);
        for p in 1..4 {
            assert_eq!(delivered_payloads(&sim, p), reference, "party {p}");
        }
    }

    #[test]
    fn duplicate_broadcast_delivered_once() {
        let mut sim = Simulation::builder(nodes(4, 1, 70), RandomScheduler)
            .seed(71)
            .build();
        sim.input(0, b"dup".to_vec());
        sim.input(1, b"dup".to_vec());
        sim.input(2, b"other".to_vec());
        sim.run_until_quiet(50_000_000);
        for p in 0..4 {
            let payloads = delivered_payloads(&sim, p);
            let dups = payloads.iter().filter(|x| x.as_slice() == b"dup").count();
            assert_eq!(dups, 1, "party {p}: dedup across parties");
            assert!(payloads.contains(&b"other".to_vec()));
        }
    }

    #[test]
    fn codec_roundtrip_and_bounds() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(1);
        let (_, bundles) = Dealer::deal(&ts, &mut rng);
        let sig = bundles[0].auth_key().sign(b"x", &mut rng);
        let entries = vec![
            (0, b"alpha".to_vec(), sig),
            (2, Vec::new(), sig),
            (3, vec![0u8; 300], sig),
        ];
        let encoded = encode_list(&entries);
        let decoded = decode_list(&encoded).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].1, b"alpha".to_vec());
        assert_eq!(decoded[1].1, Vec::<u8>::new());
        // Truncated input fails cleanly.
        assert!(decode_list(&encoded[..encoded.len() - 1]).is_none());
        assert!(decode_list(b"").is_none());
        // Trailing garbage fails.
        let mut padded = encoded;
        padded.push(0);
        assert!(decode_list(&padded).is_none());
    }

    #[test]
    fn push_flood_is_bounded_per_sender() {
        let mut ns = nodes(4, 1, 90);
        let node = &mut ns[0].abc;
        node.set_push_bound(8);
        let mut rng = SeededRng::new(1);
        let mut out = Outbox::new(node.n());
        // A Byzantine flooder pushes far more distinct payloads than the
        // per-sender budget; the honest queue absorbs only the budget.
        for i in 0..1_000u32 {
            node.on_message(
                3,
                AbcMessage::Push(format!("flood-{i}").into_bytes()),
                &mut rng,
                &mut out,
            );
        }
        assert_eq!(node.push_debt(3), 8, "debt capped at the bound");
        assert!(node.queue_len() <= 8, "queue growth bounded");
        // An honest pusher is unaffected by the flooder's exhausted
        // budget.
        node.on_message(1, AbcMessage::Push(b"honest".to_vec()), &mut rng, &mut out);
        assert_eq!(node.push_debt(1), 1);
        assert_eq!(node.queue_len(), 9);
    }

    #[test]
    fn far_future_rounds_create_no_state() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(2);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("abc");
        let mut node = AtomicBroadcast::new(
            tag.clone(),
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        let mut out = Outbox::new(node.n());
        // Correctly signed proposals for far-future rounds (round numbers
        // are attacker-chosen) are refused.
        for round in 1_000..1_100u64 {
            let batch = vec![b"attack".to_vec()];
            let sig = bundles[3].auth_key().sign(
                &tag.message(&[b"queued", &round.to_be_bytes(), &encode_batch(&batch)]),
                &mut rng,
            );
            node.on_message(
                3,
                AbcMessage::Queued { round, batch, sig },
                &mut rng,
                &mut out,
            );
        }
        assert_eq!(node.tracked_rounds(), 0, "no far-future proposal state");
        // Far-future MVBA traffic instantiates no agreement machine.
        let share = bundles[3].coin_key().share(b"x", &mut rng);
        node.on_message(
            3,
            AbcMessage::Mvba {
                round: 5_000,
                inner: MvbaMessage::ElectCoin { election: 0, share },
            },
            &mut rng,
            &mut out,
        );
        assert_eq!(node.tracked_rounds(), 0, "no far-future MVBA machine");
        // In-window traffic still lands.
        let batch = vec![b"near".to_vec()];
        let sig = bundles[2].auth_key().sign(
            &tag.message(&[b"queued", &3u64.to_be_bytes(), &encode_batch(&batch)]),
            &mut rng,
        );
        node.on_message(
            2,
            AbcMessage::Queued {
                round: 3,
                batch,
                sig,
            },
            &mut rng,
            &mut out,
        );
        assert_eq!(node.tracked_rounds(), 1);
    }

    #[test]
    fn retained_rounds_bounded_over_500_rounds() {
        // A single-party group completes rounds immediately, making 500
        // agreement rounds cheap; the regression is that decided lists
        // (and working state) stay bounded by the GC window instead of
        // growing with the round count.
        // batch_cap = 1 pins one payload per round — the test measures
        // GC over many rounds, not batching.
        let mut ns = nodes(1, 0, 100);
        ns[0].endpoint_mut().tune(&AbcTuning {
            batch_cap: 1,
            ..AbcTuning::default()
        });
        let mut sim = Simulation::builder(ns, RandomScheduler).seed(101).build();
        for i in 0..500u32 {
            sim.input(0, format!("payload-{i}").into_bytes());
        }
        sim.run_until_quiet(100_000_000);
        let abc = sim.node(0).unwrap().endpoint();
        assert_eq!(sim.outputs(0).len(), 500, "all payloads ordered");
        assert!(abc.rounds_completed() >= 500);
        assert!(
            (abc.retained_rounds() as u64) <= abc.gc_window(),
            "retained rounds {} exceed GC window {}",
            abc.retained_rounds(),
            abc.gc_window()
        );
        assert!(
            abc.tracked_rounds() <= (ROUND_RETROSPECT + ROUND_LOOKAHEAD) as usize + 1,
            "working state bounded"
        );
        // Deliveries carry their agreement round, consecutively.
        let rounds: Vec<u64> = sim.outputs(0).iter().map(|d| d.round).collect();
        assert!(rounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn silent_party_cannot_pin_memory() {
        // A crashed party never acknowledges any round; the hard GC cap
        // must reclaim state anyway.
        let mut ns = nodes(4, 1, 110);
        for node in &mut ns {
            node.endpoint_mut().set_gc_window(8);
        }
        let mut sim = Simulation::builder(ns, RandomScheduler).seed(111).build();
        sim.corrupt(3, Behavior::Crash);
        for i in 0..30u32 {
            sim.input(0, format!("m-{i}").into_bytes());
        }
        sim.run_until_quiet(200_000_000);
        let abc = sim.node(0).unwrap().endpoint();
        assert_eq!(sim.outputs(0).len(), 30);
        assert!(
            abc.retained_rounds() <= 8,
            "silent party pinned {} rounds of memory",
            abc.retained_rounds()
        );
    }

    #[test]
    fn fast_forward_jumps_round_and_seq() {
        let mut ns = nodes(4, 1, 120);
        let abc = ns[0].endpoint_mut();
        let seed = vec![(16, digest(b"old")), (5, digest(b"ancient"))];
        abc.fast_forward(42, 17, &seed);
        assert_eq!(abc.delivered_count(), 42);
        assert_eq!(abc.round(), 17);
        assert_eq!(abc.retained_rounds(), 0);
        // The seeded dedup window survives (within the horizon).
        assert_eq!(
            abc.dedup_window(),
            vec![(5, digest(b"ancient")), (16, digest(b"old"))]
        );
        // Fast-forwarding backwards is a no-op.
        abc.fast_forward(1, 2, &[]);
        assert_eq!(abc.delivered_count(), 42);
        assert_eq!(abc.round(), 17);
    }

    #[test]
    fn dedup_window_rotates_and_stays_bounded() {
        // A single-party group completes a round per broadcast. The
        // delivered-digest window must rotate at DEDUP_ROUNDS — so a
        // payload re-pushed long after delivery is delivered again
        // (windowed at-most-once), and memory stays bounded.
        let mut ns = nodes(1, 0, 130);
        ns[0].endpoint_mut().tune(&AbcTuning {
            batch_cap: 1,
            ..AbcTuning::default()
        });
        let mut sim = Simulation::builder(ns, RandomScheduler).seed(131).build();
        sim.input(0, b"evergreen".to_vec());
        sim.run_until_quiet(10_000_000);
        assert_eq!(sim.outputs(0).len(), 1);
        // Within the window, a re-push is suppressed.
        sim.input(0, b"evergreen".to_vec());
        sim.run_until_quiet(10_000_000);
        assert_eq!(sim.outputs(0).len(), 1, "deduped within the window");
        for i in 0..(DEDUP_ROUNDS + 8) {
            sim.input(0, format!("filler-{i}").into_bytes());
        }
        sim.run_until_quiet(200_000_000);
        let before = sim.outputs(0).len();
        sim.input(0, b"evergreen".to_vec());
        sim.run_until_quiet(10_000_000);
        assert_eq!(
            sim.outputs(0).len(),
            before + 1,
            "out-of-window duplicate is re-delivered"
        );
        let abc = sim.node(0).unwrap().endpoint();
        assert!(
            abc.dedup_window().len() as u64 <= DEDUP_ROUNDS + 1,
            "dedup window bounded, got {}",
            abc.dedup_window().len()
        );
        assert!(
            abc.retained_bytes() >= abc.dedup_window().len() * 80,
            "dedup window counted in retained bytes"
        );
    }

    #[test]
    fn batch_codec_roundtrip_and_hostile_inputs() {
        // Round trip, including the empty (filler) batch.
        let batch = vec![b"a".to_vec(), vec![7u8; 300], b"zz".to_vec()];
        assert_eq!(decode_batch(&encode_batch(&batch)).unwrap(), batch);
        assert_eq!(
            decode_batch(&encode_batch(&[])).unwrap(),
            Vec::<Vec<u8>>::new()
        );
        // Truncated and trailing input fail cleanly.
        let enc = encode_batch(&batch);
        assert!(decode_batch(&enc[..enc.len() - 1]).is_none());
        assert!(decode_batch(b"").is_none());
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_batch(&padded).is_none());
        // Empty sub-payloads are reserved (fillers are empty *batches*).
        let mut with_empty = Vec::new();
        with_empty.extend_from_slice(&1u32.to_be_bytes());
        with_empty.extend_from_slice(&0u32.to_be_bytes());
        assert!(decode_batch(&with_empty).is_none());
        // Entry count past the decode cap is refused without allocating.
        let mut flood = Vec::new();
        flood.extend_from_slice(&((QUEUED_BATCH_DECODE_CAP + 1) as u32).to_be_bytes());
        assert!(decode_batch(&flood).is_none());
        // Total bytes past MAX_PAYLOAD are refused even if each entry
        // is individually small enough.
        let big = vec![vec![0u8; MAX_PAYLOAD / 2 + 1]; 2];
        assert!(decode_batch(&encode_batch(&big)).is_none());
        assert!(!batch_within_bounds(&big));
        assert!(!batch_within_bounds(&[Vec::new()]));
        assert!(batch_within_bounds(&[b"x".to_vec()]));
    }

    #[test]
    fn select_batch_respects_caps_and_stays_a_prefix() {
        let mut ns = nodes(4, 1, 140);
        let abc = ns[0].endpoint_mut();
        abc.tune(&AbcTuning {
            batch_cap: 3,
            batch_bytes: 1 << 10,
            ..AbcTuning::default()
        });
        for i in 0..10u32 {
            abc.enqueue(format!("payload-{i}").into_bytes());
        }
        let batch = abc.select_batch();
        assert_eq!(batch.len(), 3, "entry cap honored");
        assert_eq!(batch[0], b"payload-0".to_vec(), "queue prefix order");
        // Selection is idempotent until a proposal or delivery mutates
        // the state: it stays a prefix, never skips ahead (the
        // FIFO-preserving rule — see `select_batch`).
        assert_eq!(abc.select_batch(), batch);
        // Once that prefix is in flight, a concurrent pipelined round
        // re-proposes it *and* extends past it by the entry cap, so
        // in-flight content never crowds out new payloads.
        abc.proposed_cover.insert(0, batch.len());
        let extended = abc.select_batch();
        assert_eq!(extended.len(), 6, "cap extends past the covered prefix");
        assert_eq!(extended[..3], batch[..], "covered prefix rides along");
        assert_eq!(extended[3], b"payload-3".to_vec(), "then fresh entries");
        // A delivery that removes a covered entry shrinks the cover:
        // position 0 leaves the queue, the cover drops to 2.
        abc.queue.pop_front();
        for cover in abc.proposed_cover.values_mut() {
            *cover -= 1;
        }
        assert_eq!(abc.select_batch().len(), 5, "cover shrank with the queue");
        abc.proposed_cover.clear();
        // The byte budget caps the fresh tail of a batch…
        abc.tune(&AbcTuning {
            batch_bytes: 1,
            ..AbcTuning::default()
        });
        assert_eq!(abc.select_batch().len(), 1, "byte budget caps the tail");
        // …but never starves an oversized head-of-queue payload.
        assert_eq!(abc.select_batch()[0], b"payload-1".to_vec());
        // Covered entries are budget-exempt (they already rode an
        // earlier round's budget); the fresh budget applies past them,
        // and with covered content aboard there is no head exemption —
        // an over-budget fresh entry waits for the covering round to
        // close rather than bloating a batch that already progresses.
        abc.proposed_cover.insert(0, 3);
        assert_eq!(
            abc.select_batch().len(),
            3,
            "fresh tail waits out the budget"
        );
    }

    #[test]
    fn batched_pipelined_run_matches_across_parties() {
        // Defaults (batch_cap > 1, pipeline_depth > 1) must preserve
        // agreement on one total order with multiple payloads per party.
        for seed in 0..2u64 {
            let mut sim = Simulation::builder(nodes(4, 1, 150 + seed), RandomScheduler)
                .seed(160 + seed)
                .build();
            for p in 0..4 {
                for i in 0..4u32 {
                    sim.input(p, format!("m-{p}-{i}").into_bytes());
                }
            }
            sim.run_until_quiet(200_000_000);
            let reference = delivered_payloads(&sim, 0);
            assert_eq!(reference.len(), 16, "all 16 payloads ordered (seed {seed})");
            for p in 1..4 {
                assert_eq!(delivered_payloads(&sim, p), reference, "party {p}");
            }
            // Batching buys amortization: 16 payloads in < 16 rounds.
            let abc = sim.node(0).unwrap().endpoint();
            assert!(
                abc.rounds_completed() < 16,
                "batching amortized rounds: {} completed",
                abc.rounds_completed()
            );
        }
    }

    /// Oldest-first, but every `Push` waits until nothing else is in
    /// flight — so peers' `Queued` proposals overtake the submitter's
    /// payload dissemination.
    fn push_last_scheduler() -> AdaptiveScheduler<AbcMessage> {
        AdaptiveScheduler::new(|inflight: &[Envelope<AbcMessage>], _, _| {
            inflight
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (matches!(e.msg, AbcMessage::Push(_)), e.sent_at))
                .map(|(i, _)| i)
                .expect("inflight nonempty")
        })
    }

    #[test]
    fn lone_request_is_ordered_by_exactly_one_round() {
        // Default tuning (pipeline depth 2). While round 0 is in flight
        // its payload is still in every queue; it must not buy a second
        // round — neither at its proposers (own cover) nor at a party
        // that joined with a filler because a peer's `Queued` overtook
        // the `Push` (carried by the peer's proposal).
        for (n, t) in [(4, 1), (10, 3)] {
            let schedulers: [Box<dyn Scheduler<AbcMessage>>; 2] =
                [Box::new(FifoScheduler), Box::new(push_last_scheduler())];
            for (i, scheduler) in schedulers.into_iter().enumerate() {
                let mut sim = Simulation::builder(nodes(n, t, 180), scheduler)
                    .seed(181)
                    .build();
                sim.input(0, b"lone".to_vec());
                sim.run_until_quiet(100_000_000);
                for p in 0..n {
                    assert_eq!(
                        delivered_payloads(&sim, p),
                        vec![b"lone".to_vec()],
                        "n={n} scheduler {i} party {p}"
                    );
                    assert_eq!(
                        sim.node(p).unwrap().endpoint().rounds_completed(),
                        1,
                        "n={n} scheduler {i} party {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn second_request_opens_a_round_before_the_first_delivers() {
        let mut sim = Simulation::builder(nodes(4, 1, 190), FifoScheduler)
            .seed(191)
            .build();
        sim.input(0, b"first".to_vec());
        sim.input(0, b"second".to_vec());
        // "second" is in no round-0 proposal, so round 1 opens for it as
        // soon as round 0 has its proposal quorum — two rounds in flight
        // means the frontier round has not delivered yet.
        let overlapped = sim.run_until(100_000_000, |s| {
            s.node(0).unwrap().endpoint().rounds_in_flight() == 2
        });
        assert!(overlapped, "round 1 never opened while round 0 was open");
        assert_eq!(sim.node(0).unwrap().endpoint().delivered_count(), 0);
        sim.run_until_quiet(100_000_000);
        for p in 0..4 {
            assert_eq!(
                delivered_payloads(&sim, p),
                vec![b"first".to_vec(), b"second".to_vec()],
                "party {p}"
            );
            assert_eq!(sim.node(p).unwrap().endpoint().rounds_completed(), 2);
        }
    }

    #[test]
    fn payload_whose_carriers_lose_is_fresh_once_the_round_closes() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(6);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let tag = Tag::root("abc");
        let mut node =
            AtomicBroadcast::new(tag.clone(), Arc::new(public), Arc::new(bundles[0].clone()));
        let queued = |party: usize, round: u64, batch: Vec<Vec<u8>>, rng: &mut SeededRng| {
            let msg = tag.message(&[b"queued", &round.to_be_bytes(), &encode_batch(&batch)]);
            let sig = bundles[party].auth_key().sign(&msg, rng);
            AbcMessage::Queued { round, batch, sig }
        };
        let x = b"advertised".to_vec();
        let mut out = Outbox::new(4);
        // Party 3 advertises X in round 0 before X reaches our queue: we
        // join with a filler. Then the push lands, and fillers from 1
        // and 2 complete the proposal quorum.
        let m = queued(3, 0, vec![x.clone()], &mut rng);
        node.on_message(3, m, &mut rng, &mut out);
        node.on_message(1, AbcMessage::Push(x.clone()), &mut rng, &mut out);
        for party in [1, 2] {
            let m = queued(party, 0, Vec::new(), &mut rng);
            node.on_message(party, m, &mut rng, &mut out);
        }
        assert!(node.mvba_proposed.contains(&0), "round 0 has its quorum");
        assert_eq!(node.proposed_cover[&0], 0, "we joined with a filler");
        assert_eq!(node.queue_len(), 1, "X is queued and in nobody's cover");
        assert_eq!(
            node.rounds_in_flight(),
            1,
            "X rides party 3's round-0 proposal: no round of its own"
        );
        // Round 0 decides a list that leaves party 3's proposal out.
        let losers: Vec<(PartyId, Vec<u8>, Signature)> = node.proposals[&0]
            .lock()
            .iter()
            .filter(|(party, _)| **party != 3)
            .map(|(party, (encoded, sig))| (*party, encoded.clone(), *sig))
            .collect();
        node.decided_lists.insert(0, encode_list(&losers));
        let mut out = Outbox::new(4);
        assert!(node.on_tick(&mut rng, &mut out).is_empty());
        // The round closed without X, its digest set went with it, and
        // the base round's rule proposes X at once.
        assert_eq!(node.round(), 1);
        assert!(node.carried.is_empty());
        assert!(out.as_slice().iter().any(|(_, m)| matches!(
            m,
            AbcMessage::Queued { round: 1, batch, .. } if *batch == vec![x.clone()]
        )));
    }

    #[test]
    fn advertise_then_silence_costs_at_most_one_round() {
        // Corrupted party 3 advertises X in a correctly signed round-0
        // proposal, pushes X to everyone, and never speaks again. An
        // honest party that holds both treats X as carried and opens no
        // round for it while round 0 is open; whether or not round 0's
        // decided list includes party 3's entry, X is out by round 1.
        for seed in 0..4u64 {
            let ts = TrustStructure::threshold(4, 1).unwrap();
            let mut rng = SeededRng::new(200 + seed);
            let (public, bundles) = Dealer::deal(&ts, &mut rng);
            let key = bundles[3].auth_key().clone();
            let batch = vec![b"advertised".to_vec()];
            let msg =
                Tag::root("abc").message(&[b"queued", &0u64.to_be_bytes(), &encode_batch(&batch)]);
            let sig = key.sign(&msg, &mut rng);
            let mut spoke = false;
            let advertiser = Behavior::Custom(Box::new(move |_, _, _| {
                if std::mem::replace(&mut spoke, true) {
                    return Vec::new();
                }
                (0..3)
                    .flat_map(|p| {
                        let queued = AbcMessage::Queued {
                            round: 0,
                            batch: batch.clone(),
                            sig,
                        };
                        [(p, queued), (p, AbcMessage::Push(batch[0].clone()))]
                    })
                    .collect()
            }));
            let mut sim = Simulation::builder(abc_nodes(public, bundles, seed), RandomScheduler)
                .seed(210 + seed)
                .corrupt(3, advertiser)
                .build();
            sim.input(0, b"honest".to_vec());
            sim.run_until_quiet(100_000_000);
            let reference = sim.outputs(0).to_vec();
            let mut payloads: Vec<&[u8]> = reference.iter().map(|d| d.payload.as_slice()).collect();
            payloads.sort();
            assert_eq!(
                payloads,
                vec![&b"advertised"[..], &b"honest"[..]],
                "seed {seed}"
            );
            assert!(reference.iter().all(|d| d.round <= 1), "seed {seed}");
            for p in 0..3 {
                assert_eq!(
                    sim.outputs(p),
                    reference.as_slice(),
                    "seed {seed} party {p}"
                );
                let rounds = sim.node(p).unwrap().endpoint().rounds_completed();
                assert!(rounds <= 2, "seed {seed} party {p}: {rounds} rounds");
            }
        }
    }

    #[test]
    fn pipelined_ack_carries_slack() {
        // A Queued for round r only proves delivery through
        // r - (MAX_PIPELINE_DEPTH - 1); the GC watermark must not
        // over-advance on pipelined proposals.
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(3);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("abc");
        let mut node = AtomicBroadcast::new(
            tag.clone(),
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        let mut out = Outbox::new(node.n());
        let round = 10u64;
        let batch = vec![b"ahead".to_vec()];
        let sig = bundles[3].auth_key().sign(
            &tag.message(&[b"queued", &round.to_be_bytes(), &encode_batch(&batch)]),
            &mut rng,
        );
        node.on_message(
            3,
            AbcMessage::Queued { round, batch, sig },
            &mut rng,
            &mut out,
        );
        assert_eq!(
            node.ack_round[3],
            round - PIPELINE_ACK_SLACK,
            "ack discounted by the pipeline slack"
        );
    }

    #[test]
    #[should_panic(expected = "reserved as fillers")]
    fn empty_broadcast_panics() {
        let mut ns = nodes(4, 1, 80);
        let mut rng = SeededRng::new(1);
        let n = ns[0].abc.n();
        ns[0]
            .abc
            .broadcast(Vec::new(), &mut rng, &mut Outbox::new(n));
    }

    /// The memo-free predicate, kept as the oracle: every entry's
    /// signature decoded and checked on its own.
    fn round_validity_oracle(
        tag: &Tag,
        round: u64,
        public: &PublicParameters,
        list: &[u8],
    ) -> bool {
        let Some(entries) = decode_list(list) else {
            return false;
        };
        let mut holders = PartySet::new();
        for &(party, payload, sig) in &entries {
            if party >= public.n() || !holders.insert(party) || decode_batch(payload).is_none() {
                return false;
            }
            let Some(sig) = Signature::from_bytes(sig) else {
                return false;
            };
            let msg = tag.message(&[b"queued", &round.to_be_bytes(), payload]);
            if !public.auth_key(party).verify(&msg, &sig) {
                return false;
            }
        }
        public.structure().is_core(&holders)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The round predicate with a proposal memo gives the oracle's
        /// verdict, and batch-verifies exactly the entries the memo does
        /// not hold. Cases: 0 every entry known, 1 one entry unknown,
        /// 2 a known entry with a payload byte flipped, 3 with a
        /// signature byte flipped, 4 an equivocating party whose entry is
        /// a second validly signed `Queued`, 5 one forged signature among
        /// known entries, 6 a random known subset.
        #[test]
        fn round_validity_matches_memo_free_oracle(
            seed in proptest::arbitrary::any::<u64>(),
            big in proptest::arbitrary::any::<bool>(),
            case in 0usize..7,
            known_mask in proptest::arbitrary::any::<u64>(),
        ) {
            let (n, t) = if big { (10, 3) } else { (4, 1) };
            let ts = TrustStructure::threshold(n, t).unwrap();
            let mut rng = SeededRng::new(seed);
            let (public, bundles) = Dealer::deal(&ts, &mut rng);
            let public = Arc::new(public);
            let tag = Tag::root("abc");
            let round = 3u64;
            let signed = |party: usize, batch: &[u8], rng: &mut SeededRng| {
                let msg = tag.message(&[b"queued", &round.to_be_bytes(), batch]);
                bundles[party].auth_key().sign(&msg, rng)
            };
            // A core set of holders: everyone, then removals while core.
            let mut holders: PartySet = (0..n).collect();
            for _ in 0..n {
                let mut fewer = holders;
                fewer.remove(rng.next_u64() as usize % n);
                if ts.is_core(&fewer) {
                    holders = fewer;
                }
            }
            let mut entries: Vec<(PartyId, Vec<u8>, Signature)> = holders
                .iter()
                .map(|p| {
                    let batch = encode_batch(&[format!("req-{p}-{seed}").into_bytes()]);
                    let sig = signed(p, &batch, &mut rng);
                    (p, batch, sig)
                })
                .collect();
            let memo: Arc<ProposalMap> = Arc::default();
            let known = |j: usize| match case {
                1 => j != 0,
                6 => known_mask >> (j % 64) & 1 == 1,
                _ => true,
            };
            for (j, (p, batch, sig)) in entries.iter().enumerate() {
                if known(j) {
                    memo.lock().insert(*p, (batch.clone(), *sig));
                }
            }
            let i = rng.next_u64() as usize % entries.len();
            match case {
                2 => *entries[i].1.last_mut().unwrap() ^= 1,
                3 => {
                    let mut bytes = entries[i].2.to_bytes();
                    bytes[63] ^= 1;
                    entries[i].2 = Signature::from_bytes(&bytes).expect("response bytes decode");
                }
                4 => {
                    let batch = encode_batch(&[b"equivocation".to_vec()]);
                    entries[i].2 = signed(entries[i].0, &batch, &mut rng);
                    entries[i].1 = batch;
                }
                5 => {
                    let other = (entries[i].0 + 1) % n;
                    entries[i].2 = signed(other, &entries[i].1, &mut rng);
                }
                _ => {}
            }
            let list = encode_list(&entries);
            let unknown = entries
                .iter()
                .filter(|(p, batch, sig)| memo.lock().get(p) != Some(&(batch.clone(), *sig)))
                .count() as u64;
            let oracle = round_validity_oracle(&tag, round, &public, &list);
            proptest::prop_assert_eq!(oracle, !matches!(case, 2 | 3 | 5));
            for (known, expect) in [(Arc::downgrade(&memo), unknown), (Weak::new(), entries.len() as u64)] {
                let predicate = round_validity(&tag, round, Arc::clone(&public), known);
                let before = sintra_obs::global::sigs_verified_count();
                proptest::prop_assert_eq!(predicate(&list), oracle);
                proptest::prop_assert_eq!(sintra_obs::global::sigs_verified_count() - before, expect);
            }
        }
    }

    #[test]
    fn proposal_memo_dies_with_its_round() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(7);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let tag = Tag::root("abc");
        let mut node =
            AtomicBroadcast::new(tag.clone(), Arc::new(public), Arc::new(bundles[0].clone()));
        let queued = |party: usize, round: u64, rng: &mut SeededRng| {
            let batch = vec![format!("{party}@{round}").into_bytes()];
            let msg = tag.message(&[b"queued", &round.to_be_bytes(), &encode_batch(&batch)]);
            let sig = bundles[party].auth_key().sign(&msg, rng);
            AbcMessage::Queued { round, batch, sig }
        };
        let mut out = Outbox::new(4);
        // Three proposals complete round 0's quorum: this party proposes
        // a list of entries it verified on arrival, so the validity
        // assert in `Mvba::propose` checks no signature.
        let before = sintra_obs::global::sig_verify_count();
        for party in 1..4 {
            let m = queued(party, 0, &mut rng);
            node.on_message(party, m, &mut rng, &mut out);
        }
        assert!(node.mvba_proposed.contains(&0));
        assert_eq!(sintra_obs::global::sig_verify_count(), before);
        let m = queued(1, 1, &mut rng);
        node.on_message(1, m, &mut rng, &mut out);
        let memo = |node: &AtomicBroadcast, r: u64| Arc::downgrade(&node.proposals[&r]);
        let (round0, round1) = (memo(&node, 0), memo(&node, 1));
        let no_memo_below_round = |node: &AtomicBroadcast| {
            node.proposals.keys().all(|r| *r >= node.round())
                && node.proposals.values().all(|m| Arc::strong_count(m) == 1)
        };
        // Round 0 decides: its memo goes with the garbage collection.
        let list = encode_list(
            &node.proposals[&0]
                .lock()
                .iter()
                .map(|(p, (batch, sig))| (*p, batch.clone(), *sig))
                .collect::<Vec<_>>(),
        );
        node.decided_lists.insert(0, list);
        node.on_tick(&mut rng, &mut out);
        assert_eq!(node.round(), 1);
        assert!(round0.upgrade().is_none(), "round 0's memo is dropped");
        assert!(round1.upgrade().is_some(), "the open round keeps its memo");
        assert!(no_memo_below_round(&node));
        // A state-transfer jump drops every skipped round's memo.
        node.fast_forward(10, 9, &[]);
        assert!(round1.upgrade().is_none(), "round 1's memo is dropped");
        assert!(no_memo_below_round(&node));
        // Late traffic for a closed round builds its machine with no memo.
        let share = bundles[3].coin_key().share(b"late", &mut rng);
        let inner = MvbaMessage::ElectCoin { election: 0, share };
        node.on_message(3, AbcMessage::Mvba { round: 2, inner }, &mut rng, &mut out);
        assert!(node.mvbas.contains_key(&2));
        assert!(no_memo_below_round(&node));
    }
}
