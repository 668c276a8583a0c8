//! Client-side request/response logic (§5).
//!
//! A client sends its request to enough servers that the corrupted ones
//! cannot suppress it (a non-corruptible set, classically more than `t`
//! servers — here we simply send to all), then collects partial
//! answers. Two recombination modes:
//!
//! * [`ReplyCollector::signed_reply`] — wait until *matching* answers
//!   carry signature shares from a qualified set, and combine them into
//!   a single threshold signature verifiable against the service's one
//!   public key (the paper's preferred mode: clients know a single key,
//!   not `n` servers);
//! * [`ReplyCollector::majority_reply`] — the classical `2t+1`-values
//!   majority vote over unsigned answers (generalized: answers from a
//!   strong set whose subset agreeing on one value is qualified).

use crate::replica::{reply_message, Reply};
use crate::shard_router::{shard_of, shard_tag, ShardId};
use crate::txn::{
    txid, txn_tokens, TxnKvMachine, TxnTokens, RESP_ABORTED, RESP_COMMITTED, RESP_PREPARED,
    RESP_REFUSED,
};
use sintra_adversary::party::PartySet;
use sintra_crypto::dealer::PublicParameters;
use sintra_crypto::tsig::{QuorumRule, ThresholdSignature};
use sintra_protocols::common::{digest, Digest, Tag};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A verified service answer.
#[derive(Clone, Debug)]
pub struct ServiceReply {
    /// The agreed answer.
    pub response: Vec<u8>,
    /// Position of the request in the service's total order.
    pub seq: u64,
    /// Threshold signature over `(request, seq, response)` under the
    /// service key (present in signed mode).
    pub signature: Option<ThresholdSignature>,
}

/// Collects reply shares for one request until a quorum rule is met.
#[derive(Debug)]
pub struct ReplyCollector {
    tag: Tag,
    public: Arc<PublicParameters>,
    request: Digest,
    /// Replies grouped by (seq, response digest).
    groups: HashMap<(u64, Digest), Vec<Reply>>,
}

impl ReplyCollector {
    /// Creates a collector for the request with the given payload.
    pub fn new(tag: Tag, public: Arc<PublicParameters>, request_payload: &[u8]) -> Self {
        ReplyCollector {
            tag,
            public,
            request: digest(request_payload),
            groups: HashMap::new(),
        }
    }

    /// The request digest replies must match.
    pub fn request(&self) -> Digest {
        self.request
    }

    /// Adds one reply share (invalid or foreign shares are dropped).
    /// Returns `true` if accepted.
    pub fn add(&mut self, reply: Reply) -> bool {
        if reply.request != self.request {
            return false;
        }
        let msg = reply_message(&self.tag, &reply.request, reply.seq, &reply.response);
        if !self.public.signing().verify_share(&msg, &reply.share) {
            return false;
        }
        if reply.share.party() != reply.replier {
            return false;
        }
        let key = (reply.seq, digest(&reply.response));
        let group = self.groups.entry(key).or_default();
        if group.iter().any(|r| r.replier == reply.replier) {
            return false; // one vote per replica
        }
        group.push(reply);
        true
    }

    /// Signed mode: returns the answer once matching replies from a
    /// qualified (non-corruptible) set can be combined into a threshold
    /// signature. A qualified set contains at least one honest replica,
    /// and honest replicas answer correctly and identically, so the
    /// matched answer is the service's answer.
    pub fn signed_reply(&self) -> Option<ServiceReply> {
        for ((seq, _), group) in &self.groups {
            let voters: PartySet = group.iter().map(|r| r.replier).collect();
            if !self.public.structure().is_qualified(&voters) {
                continue;
            }
            let reply = &group[0];
            let msg = reply_message(&self.tag, &self.request, *seq, &reply.response);
            let shares: Vec<_> = group.iter().map(|r| r.share).collect();
            if let Ok(sig) = self
                .public
                .signing()
                .combine(&msg, &shares, QuorumRule::Qualified)
            {
                return Some(ServiceReply {
                    response: reply.response.clone(),
                    seq: *seq,
                    signature: Some(sig),
                });
            }
        }
        None
    }

    /// Majority mode (the paper's `2t+1` rule): returns the answer once
    /// some answer group is itself qualified *and* total replies form a
    /// strong set — the generalized majority vote.
    pub fn majority_reply(&self) -> Option<ServiceReply> {
        let all_voters: PartySet = self
            .groups
            .values()
            .flat_map(|g| g.iter().map(|r| r.replier))
            .collect();
        if !self.public.structure().is_strong(&all_voters) {
            return None;
        }
        for ((seq, _), group) in &self.groups {
            let voters: PartySet = group.iter().map(|r| r.replier).collect();
            if self.public.structure().is_qualified(&voters) {
                return Some(ServiceReply {
                    response: group[0].response.clone(),
                    seq: *seq,
                    signature: None,
                });
            }
        }
        None
    }

    /// Verifies a signed reply independently (e.g. a third party
    /// checking a certificate produced by the service).
    pub fn verify_signed(
        public: &PublicParameters,
        tag: &Tag,
        request_payload: &[u8],
        reply: &ServiceReply,
    ) -> bool {
        let Some(sig) = &reply.signature else {
            return false;
        };
        let msg = reply_message(tag, &digest(request_payload), reply.seq, &reply.response);
        public
            .signing()
            .verify(&msg, sig, QuorumRule::Qualified, |_| false)
    }
}

/// Initial resubmission delay, in client clock ticks.
const INITIAL_RESEND_TICKS: u64 = 8;

/// Resubmission backoff cap, in client clock ticks.
const RESEND_BACKOFF_CAP: u64 = 256;

/// A retrying request driver. The original fire-and-forget pattern hung
/// forever when the first attempt's replies were lost; this client owns
/// a resubmission timer with exponential backoff instead. The caller
/// sends [`payload`](Self::payload) to the replicas once up front,
/// feeds every reply share to [`on_reply`](Self::on_reply), and drives
/// [`on_tick`](Self::on_tick) from its clock — a `Some` return is the
/// payload to resend to all replicas. Replicas answer resubmissions of
/// an already-ordered request from their reply cache, so retries are
/// idempotent.
#[derive(Debug)]
pub struct ResubmittingClient {
    collector: ReplyCollector,
    payload: Vec<u8>,
    resend_in: u64,
    backoff: u64,
    attempts: u32,
    result: Option<ServiceReply>,
}

impl ResubmittingClient {
    /// Creates a client for one request; the caller performs the first
    /// send of [`payload`](Self::payload).
    pub fn new(tag: Tag, public: Arc<PublicParameters>, payload: Vec<u8>) -> Self {
        ResubmittingClient {
            collector: ReplyCollector::new(tag, public, &payload),
            payload,
            resend_in: INITIAL_RESEND_TICKS,
            backoff: INITIAL_RESEND_TICKS,
            attempts: 1,
            result: None,
        }
    }

    /// The request bytes to send to the replicas.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Send attempts so far (including the initial one).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The verified answer, once collected.
    pub fn result(&self) -> Option<&ServiceReply> {
        self.result.as_ref()
    }

    /// Feeds one replica reply share; returns the verified answer once
    /// a qualified set of matching replies has been combined.
    pub fn on_reply(&mut self, reply: Reply) -> Option<&ServiceReply> {
        if self.result.is_none() {
            self.collector.add(reply);
            self.result = self.collector.signed_reply();
        }
        self.result.as_ref()
    }

    /// Advances the resubmission timer by one tick. Returns the payload
    /// to resend to every replica when the timer expires; the delay
    /// doubles on each expiry up to a cap.
    pub fn on_tick(&mut self) -> Option<Vec<u8>> {
        if self.result.is_some() {
            return None;
        }
        self.resend_in = self.resend_in.saturating_sub(1);
        if self.resend_in > 0 {
            return None;
        }
        self.backoff = (self.backoff * 2).min(RESEND_BACKOFF_CAP);
        self.resend_in = self.backoff;
        self.attempts += 1;
        Some(self.payload.clone())
    }
}

/// How long (in client ticks) a two-phase transaction may sit in the
/// prepare phase before the client presumes failure and drives aborts
/// everywhere. Larger than [`RESEND_BACKOFF_CAP`], so several prepare
/// retries fire first.
pub const TXN_ABORT_TICKS: u64 = 1024;

/// The final outcome of one [`RsmClient`] request.
#[derive(Clone, Debug)]
pub enum TxnOutcome {
    /// A single-key request's verified answer.
    Single(ServiceReply),
    /// Every touched shard committed the transaction.
    Committed,
    /// The transaction aborted (a shard voted no, or the prepare phase
    /// timed out) and every touched shard acknowledged the abort.
    Aborted,
    /// A shard's verified answer contradicted the decision being driven
    /// (e.g. `ABORTED` in reply to a commit entry). Impossible in the
    /// honest-client model — the decision capabilities of
    /// [`txn_tokens`] are never revealed for the other branch — so this
    /// surfaces txid reuse by another submitter or replica compromise
    /// beyond the tolerated structure. The transaction's effects are
    /// unknown; do not retry blindly.
    Indeterminate,
}

/// One in-flight phase of the sharded client.
#[derive(Debug)]
enum Phase {
    Idle,
    Single {
        shard: ShardId,
        driver: ResubmittingClient,
    },
    Prepare {
        id: Digest,
        /// The decision capabilities: commit/abort entries reveal the
        /// token for the branch taken, never the other one.
        tokens: TxnTokens,
        /// Each touched shard's slice of the ops (kept to rebuild
        /// nothing: decision entries carry only the txid and token).
        shards: Vec<ShardId>,
        drivers: BTreeMap<ShardId, ResubmittingClient>,
        prepared: BTreeSet<ShardId>,
        /// Ticks left before the client presumes abort.
        deadline: u64,
    },
    Decide {
        commit: bool,
        drivers: BTreeMap<ShardId, ResubmittingClient>,
        acked: BTreeSet<ShardId>,
    },
    Done(TxnOutcome),
}

/// The unified sharded-service client: one facade over reply
/// collection ([`ReplyCollector`]), retry ([`ResubmittingClient`]),
/// shard routing, and the two-phase cross-shard path.
///
/// * [`submit`](Self::submit) routes a single-key request to the group
///   owning the key;
/// * [`submit_txn`](Self::submit_txn) drives presumed-abort two-phase
///   commit across every touched group: an ordered prepare entry per
///   shard (committing to the transaction's decision tokens), then —
///   only once *all* shards verifiably answered `PREPARED` — an
///   ordered commit entry per shard revealing the commit token; any
///   abort vote or a prepare-phase timeout flips the decision to abort
///   for all, revealing the abort token instead.
///
/// The client is a passive automaton, like [`ResubmittingClient`]: the
/// caller injects each returned `(shard, payload)` into every replica
/// of that shard, feeds replica replies to [`on_reply`](Self::on_reply)
/// and clock ticks to [`on_tick`](Self::on_tick), and watches
/// [`result`](Self::result). One request is in flight at a time.
#[derive(Debug)]
pub struct RsmClient {
    tag: Tag,
    publics: Vec<Arc<PublicParameters>>,
    /// Durable secret the per-transaction decision tokens derive from
    /// ([`txn_tokens`]). Whoever holds it can decide this client's
    /// in-flight transactions — keep it as private as a signing key,
    /// and as durable: recovery after a coordinator crash needs it.
    secret: Digest,
    phase: Phase,
}

impl RsmClient {
    /// Creates a client for a deployment of `publics.len()` groups with
    /// base service tag `tag` (shard tags derive from it). `secret`
    /// must be unpredictable to the adversary and durable across client
    /// restarts — it is the transaction decision authority.
    pub fn new(tag: Tag, publics: Vec<Arc<PublicParameters>>, secret: Digest) -> Self {
        assert!(!publics.is_empty());
        RsmClient {
            tag,
            publics,
            secret,
            phase: Phase::Idle,
        }
    }

    /// Number of groups the deployment has.
    pub fn groups(&self) -> usize {
        self.publics.len()
    }

    /// The group owning `key`.
    pub fn shard_for(&self, key: &[u8]) -> ShardId {
        shard_of(key, self.publics.len())
    }

    /// Whether a request is currently in flight.
    pub fn is_busy(&self) -> bool {
        !matches!(self.phase, Phase::Idle | Phase::Done(_))
    }

    /// The outcome of the last request, once settled.
    pub fn result(&self) -> Option<&TxnOutcome> {
        match &self.phase {
            Phase::Done(outcome) => Some(outcome),
            _ => None,
        }
    }

    fn driver_for(&self, shard: ShardId, payload: Vec<u8>) -> ResubmittingClient {
        ResubmittingClient::new(
            shard_tag(&self.tag, shard),
            Arc::clone(&self.publics[shard]),
            payload,
        )
    }

    /// Submits a single-key request, routed by `key`. Returns the
    /// initial `(shard, payload)` send.
    ///
    /// # Panics
    /// If a request is already in flight.
    pub fn submit(&mut self, key: &[u8], payload: Vec<u8>) -> Vec<(ShardId, Vec<u8>)> {
        assert!(!self.is_busy(), "one request in flight at a time");
        let shard = self.shard_for(key);
        let driver = self.driver_for(shard, payload.clone());
        self.phase = Phase::Single { shard, driver };
        vec![(shard, payload)]
    }

    /// Submits a multi-key write transaction and drives two-phase
    /// commit across every touched group. Returns the initial prepare
    /// sends (one per touched shard).
    ///
    /// # Panics
    /// If a request is already in flight, or `ops` is empty.
    pub fn submit_txn(&mut self, ops: &[(Vec<u8>, Vec<u8>)]) -> Vec<(ShardId, Vec<u8>)> {
        assert!(!self.is_busy(), "one request in flight at a time");
        assert!(!ops.is_empty(), "a transaction needs at least one op");
        let id = txid(ops);
        let tokens = txn_tokens(&self.secret, &id);
        let auth = tokens.auth();
        let mut by_shard: BTreeMap<ShardId, Vec<crate::txn::TxnOp>> = BTreeMap::new();
        for (k, v) in ops {
            by_shard
                .entry(self.shard_for(k))
                .or_default()
                .push((k.clone(), v.clone()));
        }
        let mut sends = Vec::with_capacity(by_shard.len());
        let mut drivers = BTreeMap::new();
        let shards: Vec<ShardId> = by_shard.keys().copied().collect();
        for (shard, slice) in by_shard {
            let payload = TxnKvMachine::encode_prepare(&id, &auth, &slice);
            drivers.insert(shard, self.driver_for(shard, payload.clone()));
            sends.push((shard, payload));
        }
        self.phase = Phase::Prepare {
            id,
            tokens,
            shards,
            drivers,
            prepared: BTreeSet::new(),
            deadline: TXN_ABORT_TICKS,
        };
        sends
    }

    /// Flips the transaction into its decision phase: an ordered commit
    /// (or abort) entry per touched shard.
    fn decide(&mut self, commit: bool) -> Vec<(ShardId, Vec<u8>)> {
        let Phase::Prepare {
            id, tokens, shards, ..
        } = &self.phase
        else {
            return Vec::new();
        };
        // Reveal only the capability for the branch taken; the other
        // token never leaves the client, so the decision can never be
        // contradicted by a third party replaying this entry.
        let payload = if commit {
            TxnKvMachine::encode_commit(id, &tokens.commit)
        } else {
            TxnKvMachine::encode_abort(id, &tokens.abort)
        };
        let mut drivers = BTreeMap::new();
        let mut sends = Vec::with_capacity(shards.len());
        for &shard in shards {
            drivers.insert(shard, self.driver_for(shard, payload.clone()));
            sends.push((shard, payload.clone()));
        }
        self.phase = Phase::Decide {
            commit,
            drivers,
            acked: BTreeSet::new(),
        };
        sends
    }

    /// Feeds one replica reply share from `shard`. Returns follow-up
    /// sends (phase transitions: all-prepared → commits, abort vote →
    /// aborts).
    pub fn on_reply(&mut self, shard: ShardId, reply: Reply) -> Vec<(ShardId, Vec<u8>)> {
        match &mut self.phase {
            Phase::Idle | Phase::Done(_) => Vec::new(),
            Phase::Single { shard: s, driver } => {
                if shard == *s {
                    if let Some(answer) = driver.on_reply(reply) {
                        let outcome = TxnOutcome::Single(answer.clone());
                        self.phase = Phase::Done(outcome);
                    }
                }
                Vec::new()
            }
            Phase::Prepare {
                drivers, prepared, ..
            } => {
                let Some(driver) = drivers.get_mut(&shard) else {
                    return Vec::new();
                };
                let Some(answer) = driver.on_reply(reply) else {
                    return Vec::new();
                };
                if answer.response == RESP_PREPARED {
                    prepared.insert(shard);
                    if prepared.len() == drivers.len() {
                        return self.decide(true);
                    }
                    Vec::new()
                } else if answer.response == RESP_COMMITTED {
                    // The transaction already committed on this shard —
                    // a prior incarnation of this client (same secret,
                    // same txid) reached the commit decision before
                    // crashing. Commit is the only safe direction: every
                    // shard must have prepared back then, so the commit
                    // entries will apply or ack idempotently.
                    self.decide(true)
                } else {
                    // Abort vote, or any other verified answer (e.g. a
                    // stale abort decision surfacing): presume abort —
                    // safe because no commit entry was issued and the
                    // commit token is still secret.
                    self.decide(false)
                }
            }
            Phase::Decide {
                commit,
                drivers,
                acked,
            } => {
                let committed = *commit;
                let Some(driver) = drivers.get_mut(&shard) else {
                    return Vec::new();
                };
                let Some(answer) = driver.on_reply(reply) else {
                    return Vec::new();
                };
                // An ack must echo the decision being driven. A commit
                // answered `ABORTED` (or an abort answered `COMMITTED`)
                // means the shard decided the other way — counting it as
                // an ack would report an outcome some shard contradicts.
                let acks_decision = if committed {
                    answer.response == RESP_COMMITTED
                } else {
                    // `REFUSED` acks an abort: it proves the stage under
                    // this txid is not ours (token mismatch), so none of
                    // our writes are staged there — nothing to abort.
                    answer.response == RESP_ABORTED || answer.response == RESP_REFUSED
                };
                if !acks_decision {
                    self.phase = Phase::Done(TxnOutcome::Indeterminate);
                    return Vec::new();
                }
                acked.insert(shard);
                if acked.len() == drivers.len() {
                    self.phase = Phase::Done(if committed {
                        TxnOutcome::Committed
                    } else {
                        TxnOutcome::Aborted
                    });
                }
                Vec::new()
            }
        }
    }

    /// Advances retry timers (and the prepare-phase abort deadline) by
    /// one tick. Returns resubmission sends — or the abort sends, when
    /// the deadline expires.
    pub fn on_tick(&mut self) -> Vec<(ShardId, Vec<u8>)> {
        match &mut self.phase {
            Phase::Idle | Phase::Done(_) => Vec::new(),
            Phase::Single { shard, driver } => driver
                .on_tick()
                .map(|p| vec![(*shard, p)])
                .unwrap_or_default(),
            Phase::Prepare {
                drivers,
                prepared,
                deadline,
                ..
            } => {
                *deadline = deadline.saturating_sub(1);
                if *deadline == 0 {
                    // Presumed abort: some shard never answered. Abort
                    // everywhere — aborting a shard that did prepare
                    // releases its locks, aborting one that never saw
                    // the prepare just records a decision.
                    return self.decide(false);
                }
                let mut sends = Vec::new();
                for (&shard, driver) in drivers.iter_mut() {
                    if prepared.contains(&shard) {
                        continue;
                    }
                    if let Some(p) = driver.on_tick() {
                        sends.push((shard, p));
                    }
                }
                sends
            }
            Phase::Decide { drivers, acked, .. } => {
                let mut sends = Vec::new();
                for (&shard, driver) in drivers.iter_mut() {
                    if acked.contains(&shard) {
                        continue;
                    }
                    if let Some(p) = driver.on_tick() {
                        sends.push((shard, p));
                    }
                }
                sends
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{atomic_replicas, OrderingLayer};
    use crate::state::EchoMachine;
    use sintra_adversary::structure::TrustStructure;
    use sintra_crypto::dealer::Dealer;
    use sintra_crypto::rng::SeededRng;
    use sintra_net::sim::{RandomScheduler, Simulation};

    fn run_service(seed: u64) -> (Arc<PublicParameters>, Vec<Reply>) {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(seed);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public_arc = Arc::new(public.clone());
        let replicas = atomic_replicas(public, bundles, |_| EchoMachine::new(), seed);
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(seed + 1)
            .build();
        sim.input(0, b"the-request".to_vec());
        sim.run_until_quiet(50_000_000);
        let replies: Vec<Reply> = (0..4)
            .flat_map(|p| sim.outputs(p).iter().cloned())
            .collect();
        (public_arc, replies)
    }

    #[test]
    fn signed_reply_combines_and_verifies() {
        let (public, replies) = run_service(10);
        let mut collector =
            ReplyCollector::new(Tag::root("rsm"), Arc::clone(&public), b"the-request");
        let mut got = None;
        for r in replies {
            collector.add(r);
            if let Some(reply) = collector.signed_reply() {
                got = Some(reply);
                break;
            }
        }
        let reply = got.expect("qualified quorum of replies reached");
        assert!(ReplyCollector::verify_signed(
            &public,
            &Tag::root("rsm"),
            b"the-request",
            &reply
        ));
        // Tampered response fails verification.
        let mut bad = reply;
        bad.response.push(0);
        assert!(!ReplyCollector::verify_signed(
            &public,
            &Tag::root("rsm"),
            b"the-request",
            &bad
        ));
    }

    #[test]
    fn majority_reply_tolerates_lying_minority() {
        let (public, mut replies) = run_service(20);
        // Corrupt one replica's answers (t = 1): flip its response. Its
        // share no longer matches, so `add` drops it — emulate a liar by
        // regenerating a *valid-looking but different* answer is not
        // possible without its key; the collector's signature check is
        // the defense. Here we check the majority path with the liar's
        // replies simply removed.
        replies.retain(|r| r.replier != 3);
        let mut collector =
            ReplyCollector::new(Tag::root("rsm"), Arc::clone(&public), b"the-request");
        for r in replies {
            collector.add(r);
        }
        let reply = collector.majority_reply().expect("3 of 4 replies suffice");
        assert!(reply.signature.is_none());
        assert!(!reply.response.is_empty());
    }

    #[test]
    fn mismatched_or_duplicate_replies_rejected() {
        let (public, replies) = run_service(30);
        let mut collector =
            ReplyCollector::new(Tag::root("rsm"), Arc::clone(&public), b"other-request");
        // All replies are for "the-request": wrong digest, all rejected.
        let mut accepted = 0;
        for r in &replies {
            if collector.add(r.clone()) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 0);
        assert!(collector.signed_reply().is_none());
        // Correct collector accepts each replica once.
        let mut collector =
            ReplyCollector::new(Tag::root("rsm"), Arc::clone(&public), b"the-request");
        for r in &replies {
            collector.add(r.clone());
        }
        for r in &replies {
            assert!(!collector.add(r.clone()), "duplicates rejected");
        }
    }

    #[test]
    fn client_resubmits_after_dropped_replies() {
        // Fault campaign: the service orders the first attempt, but
        // every reply is lost on the way back. The old fire-and-forget
        // client hung forever here; the resubmitting client's timer
        // fires, the retry hits each replica's reply cache, and the
        // answer combines.
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(70);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public_arc = Arc::new(public.clone());
        let replicas = atomic_replicas(public, bundles, |_| EchoMachine::new(), 70);
        let mut sim = Simulation::builder(replicas, RandomScheduler)
            .seed(71)
            .build();
        let mut client = ResubmittingClient::new(
            Tag::root("rsm"),
            Arc::clone(&public_arc),
            b"retry-me".to_vec(),
        );
        sim.input(0, client.payload().to_vec());
        sim.run_until_quiet(50_000_000);
        // Drop the first-attempt replies: record how many each replica
        // produced and never feed them to the client.
        let dropped: Vec<usize> = (0..4).map(|p| sim.outputs(p).len()).collect();
        assert!(
            dropped.iter().sum::<usize>() > 0,
            "first attempt was ordered"
        );
        assert!(client.result().is_none(), "client has no answer yet");
        let round_before = sim.node(0).unwrap().layer().current_round();
        // Tick the client until its resubmission timer fires.
        let mut resent = None;
        for _ in 0..=INITIAL_RESEND_TICKS {
            if let Some(p) = client.on_tick() {
                resent = Some(p);
                break;
            }
        }
        let payload = resent.expect("resubmission timer fired");
        assert_eq!(client.attempts(), 2);
        for p in 0..4 {
            sim.input(p, payload.clone());
        }
        sim.run_until_quiet(50_000_000);
        // The retry is answered from the reply cache: no new round.
        assert_eq!(sim.node(0).unwrap().layer().current_round(), round_before);
        for (p, &start) in dropped.iter().enumerate() {
            for r in &sim.outputs(p)[start..] {
                client.on_reply(r.clone());
            }
        }
        let reply = client.result().expect("retry produced the answer");
        assert!(ReplyCollector::verify_signed(
            &public_arc,
            &Tag::root("rsm"),
            b"retry-me",
            reply
        ));
        // Once answered, the timer goes quiet.
        for _ in 0..1000 {
            assert!(client.on_tick().is_none());
        }
        assert_eq!(client.attempts(), 2);
    }

    #[test]
    fn resubmission_backoff_doubles() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(80);
        let (public, _) = Dealer::deal(&ts, &mut rng);
        let mut client = ResubmittingClient::new(Tag::root("rsm"), Arc::new(public), b"x".to_vec());
        let mut gaps = Vec::new();
        let mut since = 0u64;
        for _ in 0..1000 {
            since += 1;
            if client.on_tick().is_some() {
                gaps.push(since);
                since = 0;
            }
        }
        assert_eq!(&gaps[..4], &[8, 16, 32, 64], "exponential backoff");
        assert!(
            gaps.iter().all(|g| *g <= RESEND_BACKOFF_CAP),
            "delay capped"
        );
        assert_eq!(u64::from(client.attempts() - 1), gaps.len() as u64);
    }

    #[test]
    fn insufficient_replies_yield_nothing() {
        let (public, replies) = run_service(40);
        let mut collector =
            ReplyCollector::new(Tag::root("rsm"), Arc::clone(&public), b"the-request");
        // Only one reply: neither mode succeeds (t = 1).
        collector.add(replies.into_iter().next().unwrap());
        assert!(collector.signed_reply().is_none());
        assert!(collector.majority_reply().is_none());
    }

    // ---- RsmClient: the sharded facade ----

    use crate::config::ReplicaConfig;
    use crate::shard_router::{shard_of, sharded_nodes, ShardedNode};
    use crate::state::{KvMachine, StateMachine};
    use crate::txn::TxnKvMachine;
    use sintra_crypto::dealer::ServerKeyBundle;

    fn deal_groups(g: usize, n: usize, seed: u64) -> Vec<(PublicParameters, Vec<ServerKeyBundle>)> {
        let ts = TrustStructure::threshold(n, (n - 1) / 3).unwrap();
        (0..g)
            .map(|i| {
                let mut rng = SeededRng::new(seed.wrapping_add(i as u64).wrapping_mul(0x9e37));
                Dealer::deal(&ts, &mut rng)
            })
            .collect()
    }

    /// A key owned by `shard` in a `groups`-way deployment.
    fn key_on(shard: ShardId, groups: usize, hint: &str) -> Vec<u8> {
        (0u32..)
            .map(|i| format!("{hint}-{i}").into_bytes())
            .find(|k| shard_of(k, groups) == shard)
            .expect("some key lands on every shard")
    }

    /// Drives a client request to completion against a muxed sharded
    /// simulation: injects each send to every replica of its shard,
    /// feeds replies back, ticks timers when the sim quiesces without
    /// progress. `allow` filters sends (to emulate a partitioned
    /// shard).
    fn drive(
        sim: &mut Simulation<ShardedNode<TxnKvMachine>, RandomScheduler>,
        client: &mut RsmClient,
        sends: Vec<(ShardId, Vec<u8>)>,
        n: usize,
        mut allow: impl FnMut(&(ShardId, Vec<u8>)) -> bool,
    ) {
        let mut consumed = vec![0usize; n];
        let mut pending: Vec<(ShardId, Vec<u8>)> = sends.into_iter().filter(|s| allow(s)).collect();
        for _ in 0..200 {
            if client.result().is_some() {
                return;
            }
            for (shard, payload) in pending.drain(..) {
                for p in 0..n {
                    sim.input(p, (shard, payload.clone()));
                }
            }
            sim.run_until_quiet(50_000_000);
            let mut next = Vec::new();
            for (p, done) in consumed.iter_mut().enumerate() {
                let outs: Vec<(ShardId, Reply)> = sim.outputs(p)[*done..].to_vec();
                *done = sim.outputs(p).len();
                for (s, r) in outs {
                    next.extend(client.on_reply(s, r));
                }
            }
            if client.result().is_some() {
                return;
            }
            if next.is_empty() {
                // No forward progress from replies: advance the clock
                // until a retry or the abort deadline fires.
                for _ in 0..=TXN_ABORT_TICKS {
                    next = client.on_tick();
                    if !next.is_empty() || client.result().is_some() {
                        break;
                    }
                }
            }
            pending = next.into_iter().filter(|s| allow(s)).collect();
        }
        panic!("client did not settle within the iteration budget");
    }

    #[test]
    fn rsm_client_routes_single_key_to_owning_shard() {
        let groups = deal_groups(2, 4, 50);
        let publics: Vec<Arc<PublicParameters>> =
            groups.iter().map(|(p, _)| Arc::new(p.clone())).collect();
        let cfg = ReplicaConfig::new().seed(50).ckpt_interval(4);
        let nodes = sharded_nodes(&cfg, groups, |_, _| TxnKvMachine::new());
        let mut sim = Simulation::builder(nodes, RandomScheduler).seed(51).build();
        let mut client = RsmClient::new(Tag::root("rsm"), publics, [7u8; 32]);
        assert_eq!(client.groups(), 2);
        let key = b"route-me";
        let shard = client.shard_for(key);
        let payload = KvMachine::encode_set(key, b"v");
        let sends = client.submit(key, payload.clone());
        assert_eq!(sends, vec![(shard, payload)]);
        assert!(client.is_busy());
        drive(&mut sim, &mut client, sends, 4, |_| true);
        match client.result() {
            Some(TxnOutcome::Single(r)) => assert_eq!(r.response, b"OK"),
            other => panic!("expected single answer, got {other:?}"),
        }
        // The write landed on the owning shard only.
        for p in 0..4 {
            let node = sim.node(p).unwrap();
            assert_eq!(node.replica(shard).machine().kv().len(), 1);
            assert_eq!(node.replica(1 - shard).machine().kv().len(), 0);
        }
    }

    #[test]
    fn rsm_client_two_phase_commit_across_shards() {
        let groups = deal_groups(2, 4, 60);
        let publics: Vec<Arc<PublicParameters>> =
            groups.iter().map(|(p, _)| Arc::new(p.clone())).collect();
        let cfg = ReplicaConfig::new().seed(60).ckpt_interval(4);
        let nodes = sharded_nodes(&cfg, groups, |_, _| TxnKvMachine::new());
        let mut sim = Simulation::builder(nodes, RandomScheduler).seed(61).build();
        let mut client = RsmClient::new(Tag::root("rsm"), publics, [7u8; 32]);
        let ops = vec![
            (key_on(0, 2, "left"), b"1".to_vec()),
            (key_on(1, 2, "right"), b"2".to_vec()),
        ];
        let sends = client.submit_txn(&ops);
        assert_eq!(sends.len(), 2, "one prepare per touched shard");
        drive(&mut sim, &mut client, sends, 4, |_| true);
        assert!(matches!(client.result(), Some(TxnOutcome::Committed)));
        // Both shards applied their slice, and no locks remain.
        for p in 0..4 {
            let node = sim.node(p).unwrap();
            for (k, v) in &ops {
                let shard = shard_of(k, 2);
                let mut probe = node.replica(shard).machine().clone();
                let mut want = b"VAL ".to_vec();
                want.extend_from_slice(v);
                assert_eq!(probe.apply(&KvMachine::encode_get(k)), want);
                assert!(!node.replica(shard).machine().is_locked(k));
            }
            assert_eq!(node.replica(0).machine().pending_txns(), 0);
            assert_eq!(node.replica(1).machine().pending_txns(), 0);
        }
    }

    #[test]
    fn rsm_client_aborts_when_participant_unreachable() {
        let groups = deal_groups(2, 4, 70);
        let publics: Vec<Arc<PublicParameters>> =
            groups.iter().map(|(p, _)| Arc::new(p.clone())).collect();
        let cfg = ReplicaConfig::new().seed(70).ckpt_interval(4);
        let nodes = sharded_nodes(&cfg, groups, |_, _| TxnKvMachine::new());
        let mut sim = Simulation::builder(nodes, RandomScheduler).seed(71).build();
        let mut client = RsmClient::new(Tag::root("rsm"), publics, [7u8; 32]);
        let k0 = key_on(0, 2, "here");
        let k1 = key_on(1, 2, "gone");
        let ops = vec![(k0.clone(), b"1".to_vec()), (k1.clone(), b"2".to_vec())];
        let id = crate::txn::txid(&ops);
        let sends = client.submit_txn(&ops);
        // Shard 1 never sees the prepare (partitioned participant);
        // the deadline drives aborts everywhere.
        drive(&mut sim, &mut client, sends, 4, |(shard, payload)| {
            !(*shard == 1 && payload.first() == Some(&b'P'))
        });
        assert!(matches!(client.result(), Some(TxnOutcome::Aborted)));
        for p in 0..4 {
            let node = sim.node(p).unwrap();
            // Shard 0 prepared, then aborted: lock released, write
            // discarded, decision recorded.
            assert!(!node.replica(0).machine().is_locked(&k0));
            assert_eq!(node.replica(0).machine().kv().len(), 0);
            assert_eq!(node.replica(0).machine().decision(&id), Some(false));
            assert_eq!(node.replica(0).machine().pending_txns(), 0);
            // Shard 1 never applied anything but recorded the abort.
            assert_eq!(node.replica(1).machine().kv().len(), 0);
            assert_eq!(node.replica(1).machine().decision(&id), Some(false));
        }
    }
}
