//! Optimistic atomic broadcast (§6 "Optimistic Protocols"; after
//! Kursawe-Shoup, "Optimistic asynchronous atomic broadcast").
//!
//! The paper's randomized atomic broadcast pays for its unconditional
//! liveness: every batch runs elections and binary agreements. §6
//! suggests the most promising optimization — an **optimistic** protocol
//! that "runs very fast if no corruptions occur and all messages are
//! delivered promptly" but falls back to a slower, safe mode when a
//! problem is detected, with the hard requirement that *safety is never
//! violated*, not even during the fallback.
//!
//! This module implements that design:
//!
//! * **Fast path** (three fixed rounds, no randomness): a per-epoch
//!   sequencer assigns the next sequence number and broadcasts the
//!   payload; replicas exchange *prepare* signature shares, combine a
//!   strong-quorum prepared certificate, exchange *commit* shares, and
//!   deliver on a strong-quorum commit certificate. Strong-quorum
//!   intersection makes equivocation by the sequencer harmless: at most
//!   one digest per slot can ever be prepared in an epoch, and at most
//!   one can ever be committed across epochs (see the locking rule
//!   below).
//! * **Fallback** (randomized, asynchronous): when the optimism timer
//!   fires (the only timeout in the architecture — it gates *progress
//!   switching only*, never safety), replicas exchange signed complaints
//!   and, on a qualified quorum, run one [`Mvba`] instance to agree on a
//!   core set of signed **state reports**. The decided reports determine
//!   the *lock*: if any honest replica may have delivered slot `k`
//!   (equivalently: some report carries a prepared certificate for `k`),
//!   the next epoch must re-propose exactly that digest. This is the
//!   classical prepared-certificate hand-over argument, executed over a
//!   randomized agreement so the epoch change itself needs no timing
//!   assumption.
//!
//! The `optimistic` bench compares events-per-request against the full
//! randomized protocol (big win when the network is calm) and drives the
//! fallback under a corrupted sequencer (safety and liveness retained).

use crate::common::{digest, BatchedShares, Digest, Outbox, Tag, WireKind};
use crate::mvba::{Mvba, MvbaMessage, ValidityPredicate};
use sintra_adversary::party::{PartyId, PartySet};
use sintra_crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra_crypto::rng::SeededRng;
use sintra_crypto::schnorr::Signature;
use sintra_crypto::tsig::{QuorumRule, SignatureShare, ThresholdSignature};
use sintra_net::protocol::{Context, Effects, Protocol};
use sintra_obs::{Event, EventKind, Layer};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A prepared certificate carried through an epoch change: proof that
/// slot `seq` may have been committed with this digest.
#[derive(Clone, Debug)]
pub struct PreparedEntry {
    /// Epoch the certificate was formed in.
    pub epoch: u64,
    /// The slot.
    pub seq: u64,
    /// The payload digest.
    pub digest: Digest,
    /// Strong-quorum threshold signature over the prepare message.
    pub cert: ThresholdSignature,
    /// The payload itself (so the next sequencer can re-propose it).
    pub payload: Vec<u8>,
}

/// A replica's signed state report for an epoch change.
#[derive(Clone, Debug)]
pub struct StateReport {
    /// Reporting replica.
    pub party: PartyId,
    /// Epoch being abandoned.
    pub epoch: u64,
    /// Slots `0..last` are committed at the reporter.
    pub next_seq: u64,
    /// The reporter's prepared-but-possibly-uncommitted slot, if any.
    pub prepared: Option<PreparedEntry>,
    /// Signature under the reporter's authentication key.
    pub sig: Signature,
}

/// Optimistic-broadcast wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum OptMessage {
    /// Payload dissemination into every queue.
    Push(Vec<u8>),
    /// Sequencer's slot assignment.
    Propose {
        /// Epoch.
        epoch: u64,
        /// Slot.
        seq: u64,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Prepare signature share.
    Prepare {
        /// Epoch.
        epoch: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: Digest,
        /// Share over the prepare message.
        share: SignatureShare,
    },
    /// Commit signature share (sent once a prepared certificate is
    /// held).
    Commit {
        /// Epoch.
        epoch: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: Digest,
        /// Share over the commit message.
        share: SignatureShare,
    },
    /// Transferable delivery: commit certificate plus payload (catch-up
    /// for laggards).
    Deliver {
        /// Epoch.
        epoch: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: Digest,
        /// Strong-quorum commit certificate.
        cert: ThresholdSignature,
        /// The payload.
        payload: Vec<u8>,
    },
    /// Signed complaint against an epoch.
    Complain {
        /// The epoch being complained about.
        epoch: u64,
        /// Share over the complaint message.
        share: SignatureShare,
    },
    /// A signed state report for the epoch change.
    Report {
        /// Epoch being abandoned.
        epoch: u64,
        /// Encoded [`StateReport`].
        report: Vec<u8>,
    },
    /// Randomized agreement traffic for the epoch change.
    Change {
        /// Epoch being abandoned.
        epoch: u64,
        /// MVBA sub-message.
        inner: MvbaMessage,
    },
}

impl WireKind for OptMessage {
    fn kind(&self) -> &'static str {
        match self {
            OptMessage::Push(_) => "push",
            OptMessage::Propose { .. } => "propose",
            OptMessage::Prepare { .. } => "prepare",
            OptMessage::Commit { .. } => "commit",
            OptMessage::Deliver { .. } => "deliver",
            OptMessage::Complain { .. } => "complain",
            OptMessage::Report { .. } => "report",
            OptMessage::Change { .. } => "change",
        }
    }
}

/// Counts one optimistic-path wire message under its own layer and
/// forwards epoch-change MVBA traffic to that layer's breakdown.
pub(crate) fn observe_wire(ctx: &Context, dir: &'static str, m: &OptMessage) {
    ctx.obs.inc2(Layer::Optimistic, dir, m.kind());
    if let OptMessage::Change { inner, .. } = m {
        crate::mvba::observe_wire(ctx, dir, inner);
    }
}

/// One total-order delivery from the optimistic protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptDeliver {
    /// Slot (consecutive from 0).
    pub seq: u64,
    /// Epoch the slot committed in.
    pub epoch: u64,
    /// The payload.
    pub payload: Vec<u8>,
}

#[derive(Debug, Default)]
struct Slot {
    /// First proposal received (payload, digest).
    proposal: Option<(Vec<u8>, Digest)>,
    my_prepare_sent: bool,
    /// Prepare shares per digest (batch-verified at quorum time).
    prepare_shares: HashMap<Digest, BatchedShares<SignatureShare>>,
    prepared: Option<(Digest, ThresholdSignature)>,
    my_commit_sent: bool,
    /// Commit shares per digest (batch-verified at quorum time).
    commit_shares: HashMap<Digest, BatchedShares<SignatureShare>>,
    committed: bool,
}

/// Optimistic atomic broadcast endpoint at one server.
pub struct OptimisticBroadcast {
    tag: Tag,
    me: PartyId,
    n: usize,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    epoch: u64,
    queue: VecDeque<Vec<u8>>,
    queued_digests: HashSet<Digest>,
    delivered_digests: HashSet<Digest>,
    next_seq: u64,
    slots: HashMap<(u64, u64), Slot>,
    /// Commit-certified slots awaiting in-order emission.
    ready: BTreeMap<u64, (u64, Digest, ThresholdSignature, Vec<u8>)>,
    /// Lock adopted from the last epoch change: the digest slot
    /// `next_seq` must re-propose, if any honest replica may have
    /// delivered it.
    lock: Option<PreparedEntry>,
    // Complaint machinery (shares batch-verified at quorum time).
    complaints: HashMap<u64, BatchedShares<SignatureShare>>,
    my_complaint_sent: HashSet<u64>,
    /// Epochs whose fast path is abandoned.
    changing: HashSet<u64>,
    reports: HashMap<u64, HashMap<PartyId, Vec<u8>>>,
    changes: BTreeMap<u64, Mvba>,
    change_proposed: HashSet<u64>,
    change_done: HashSet<u64>,
    // Optimism timer.
    ticks_since_progress: u64,
    timeout_ticks: u64,
    /// Fast-path deliveries vs fallback epoch changes (observability).
    pub epoch_changes: u64,
}

impl core::fmt::Debug for OptimisticBroadcast {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OptimisticBroadcast")
            .field("me", &self.me)
            .field("epoch", &self.epoch)
            .field("next_seq", &self.next_seq)
            .field("queue", &self.queue.len())
            .finish()
    }
}

impl OptimisticBroadcast {
    /// Number of parties in the group.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Creates the endpoint. `timeout_ticks` is the optimism timer (in
    /// [`Protocol::on_tick`] ticks) before a stalled epoch is complained
    /// about; it affects only when the fallback engages, never safety.
    pub fn new(
        tag: Tag,
        public: Arc<PublicParameters>,
        bundle: Arc<ServerKeyBundle>,
        timeout_ticks: u64,
    ) -> Self {
        OptimisticBroadcast {
            tag,
            me: bundle.party(),
            n: public.n(),
            public,
            bundle,
            epoch: 0,
            queue: VecDeque::new(),
            queued_digests: HashSet::new(),
            delivered_digests: HashSet::new(),
            next_seq: 0,
            slots: HashMap::new(),
            ready: BTreeMap::new(),
            lock: None,
            complaints: HashMap::new(),
            my_complaint_sent: HashSet::new(),
            changing: HashSet::new(),
            reports: HashMap::new(),
            changes: BTreeMap::new(),
            change_proposed: HashSet::new(),
            change_done: HashSet::new(),
            ticks_since_progress: 0,
            timeout_ticks,
            epoch_changes: 0,
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of delivered payloads.
    pub fn delivered_count(&self) -> u64 {
        self.next_seq
    }

    fn sequencer(&self, epoch: u64) -> PartyId {
        (epoch % self.n as u64) as PartyId
    }

    fn prepare_msg(&self, epoch: u64, seq: u64, d: &Digest) -> Vec<u8> {
        self.tag
            .message(&[b"prep", &epoch.to_be_bytes(), &seq.to_be_bytes(), d])
    }

    fn commit_msg(&self, epoch: u64, seq: u64, d: &Digest) -> Vec<u8> {
        self.tag
            .message(&[b"commit", &epoch.to_be_bytes(), &seq.to_be_bytes(), d])
    }

    fn complain_msg(&self, epoch: u64) -> Vec<u8> {
        self.tag.message(&[b"complain", &epoch.to_be_bytes()])
    }

    fn report_msg(&self, epoch: u64, content: &[u8]) -> Vec<u8> {
        self.tag
            .message(&[b"report", &epoch.to_be_bytes(), content])
    }

    /// Broadcasts a payload for total ordering.
    pub fn broadcast(
        &mut self,
        payload: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        assert!(!payload.is_empty(), "empty payloads are reserved");
        out.broadcast(OptMessage::Push(payload.clone()));
        self.enqueue(payload);
        self.maybe_propose(rng, out);
        Vec::new()
    }

    fn enqueue(&mut self, payload: Vec<u8>) {
        let d = digest(&payload);
        if payload.is_empty()
            || self.delivered_digests.contains(&d)
            || !self.queued_digests.insert(d)
        {
            return;
        }
        self.queue.push_back(payload);
    }

    /// Sequencer work: propose the next slot if idle.
    fn maybe_propose(&mut self, _rng: &mut SeededRng, out: &mut Outbox<OptMessage>) {
        if self.sequencer(self.epoch) != self.me || self.changing.contains(&self.epoch) {
            return;
        }
        let seq = self.next_seq;
        if self.slots.contains_key(&(self.epoch, seq))
            && self.slots[&(self.epoch, seq)].proposal.is_some()
        {
            return; // already proposed / received
        }
        // A lock from the previous epoch takes precedence.
        let payload = if let Some(lock) = &self.lock {
            if lock.seq == seq {
                lock.payload.clone()
            } else if !self.queue.is_empty() {
                self.queue.front().cloned().expect("nonempty")
            } else {
                return;
            }
        } else if !self.queue.is_empty() {
            self.queue.front().cloned().expect("nonempty")
        } else {
            return;
        };
        out.broadcast(OptMessage::Propose {
            epoch: self.epoch,
            seq,
            payload,
        });
    }

    /// Handles a message; returns in-order deliveries.
    pub fn on_message(
        &mut self,
        from: PartyId,
        msg: OptMessage,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        match msg {
            OptMessage::Push(payload) => {
                self.enqueue(payload);
                self.maybe_propose(rng, out);
                Vec::new()
            }
            OptMessage::Propose {
                epoch,
                seq,
                payload,
            } => {
                self.on_propose(from, epoch, seq, payload, rng, out);
                Vec::new()
            }
            OptMessage::Prepare {
                epoch,
                seq,
                digest: d,
                share,
            } => {
                self.on_prepare(from, epoch, seq, d, share, rng, out);
                Vec::new()
            }
            OptMessage::Commit {
                epoch,
                seq,
                digest: d,
                share,
            } => self.on_commit(from, epoch, seq, d, share, rng, out),
            OptMessage::Deliver {
                epoch,
                seq,
                digest: d,
                cert,
                payload,
            } => self.on_deliver(epoch, seq, d, cert, payload, rng, out),
            OptMessage::Complain { epoch, share } => {
                self.on_complain(from, epoch, share, rng, out);
                Vec::new()
            }
            OptMessage::Report { epoch, report } => self.on_report(from, epoch, report, rng, out),
            OptMessage::Change { epoch, inner } => self.on_change(from, epoch, inner, rng, out),
        }
    }

    fn on_propose(
        &mut self,
        from: PartyId,
        epoch: u64,
        seq: u64,
        payload: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) {
        if epoch != self.epoch
            || from != self.sequencer(epoch)
            || self.changing.contains(&epoch)
            || seq != self.next_seq
            || payload.is_empty()
        {
            return;
        }
        let d = digest(&payload);
        // Locking rule: if the epoch change told us slot `seq` may have
        // been committed with a specific digest, refuse anything else.
        if let Some(lock) = &self.lock {
            if lock.seq == seq && lock.digest != d {
                return;
            }
        }
        let slot = self.slots.entry((epoch, seq)).or_default();
        if slot.proposal.is_some() {
            return; // first proposal wins; equivocation is ignored
        }
        slot.proposal = Some((payload, d));
        // Fast-path progress: the sequencer is alive and assigning.
        // (At most one reset per slot per epoch, so a corrupted
        // sequencer cannot stall the timer forever.)
        self.ticks_since_progress = 0;
        let slot = self.slots.entry((epoch, seq)).or_default();
        if !slot.my_prepare_sent {
            slot.my_prepare_sent = true;
            let msg = self.prepare_msg(epoch, seq, &d);
            let share = self.bundle.signing_key().sign_share(&msg, rng);
            out.broadcast(OptMessage::Prepare {
                epoch,
                seq,
                digest: d,
                share,
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_prepare(
        &mut self,
        from: PartyId,
        epoch: u64,
        seq: u64,
        d: Digest,
        share: SignatureShare,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) {
        if share.party() != from {
            return;
        }
        let msg = self.prepare_msg(epoch, seq, &d);
        let slot = self.slots.entry((epoch, seq)).or_default();
        if slot.prepared.is_some() {
            return;
        }
        let shares = slot.prepare_shares.entry(d).or_default();
        if !shares.insert(from, share) {
            return; // duplicate or previously culled sender
        }
        // A fresh share is fast-path progress (bounded: one per party
        // per slot, so corrupted parties cannot stall the timer).
        self.ticks_since_progress = 0;
        // Quorum-time batching: shares are only accepted structurally
        // above; once a candidate strong quorum exists they are verified
        // together (one multi-exp) and invalid senders culled before the
        // certificate is combined.
        if !self.public.structure().is_strong(&shares.holders()) {
            return;
        }
        let signing = self.public.signing();
        shares.settle(|batch| signing.verify_shares(&msg, batch, rng));
        let verified: Vec<SignatureShare> = shares.verified().values().cloned().collect();
        if let Ok(cert) = signing.combine_preverified(&verified, QuorumRule::Strong) {
            let slot = self.slots.entry((epoch, seq)).or_default();
            slot.prepared = Some((d, cert));
            self.ticks_since_progress = 0;
            if !slot.my_commit_sent {
                slot.my_commit_sent = true;
                let cmsg = self.commit_msg(epoch, seq, &d);
                let share = self.bundle.signing_key().sign_share(&cmsg, rng);
                out.broadcast(OptMessage::Commit {
                    epoch,
                    seq,
                    digest: d,
                    share,
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_commit(
        &mut self,
        from: PartyId,
        epoch: u64,
        seq: u64,
        d: Digest,
        share: SignatureShare,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        if share.party() != from {
            return Vec::new();
        }
        let msg = self.commit_msg(epoch, seq, &d);
        let slot = self.slots.entry((epoch, seq)).or_default();
        if slot.committed {
            return Vec::new();
        }
        let shares = slot.commit_shares.entry(d).or_default();
        if !shares.insert(from, share) {
            return Vec::new(); // duplicate or previously culled sender
        }
        self.ticks_since_progress = 0;
        if !self.public.structure().is_strong(&shares.holders()) {
            return Vec::new();
        }
        let signing = self.public.signing();
        shares.settle(|batch| signing.verify_shares(&msg, batch, rng));
        let verified: Vec<SignatureShare> = shares.verified().values().cloned().collect();
        if let Ok(cert) = signing.combine_preverified(&verified, QuorumRule::Strong) {
            let payload = self
                .slots
                .get(&(epoch, seq))
                .and_then(|s| s.proposal.clone())
                .filter(|(_, pd)| *pd == d)
                .map(|(p, _)| p);
            if let Some(payload) = payload {
                self.slots.entry((epoch, seq)).or_default().committed = true;
                // Help laggards with a transferable delivery.
                out.broadcast(OptMessage::Deliver {
                    epoch,
                    seq,
                    digest: d,
                    cert: cert.clone(),
                    payload: payload.clone(),
                });
                self.ready.insert(seq, (epoch, d, cert, payload));
                return self.drain_ready(rng, out);
            }
            // Certificate without payload: wait for a Deliver.
        }
        Vec::new()
    }

    #[allow(clippy::too_many_arguments)]
    fn on_deliver(
        &mut self,
        epoch: u64,
        seq: u64,
        d: Digest,
        cert: ThresholdSignature,
        payload: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        if digest(&payload) != d || seq < self.next_seq || self.ready.contains_key(&seq) {
            return Vec::new();
        }
        let msg = self.commit_msg(epoch, seq, &d);
        if !self
            .public
            .signing()
            .verify(&msg, &cert, QuorumRule::Strong, |_| false)
        {
            return Vec::new();
        }
        self.ready.insert(seq, (epoch, d, cert, payload));
        self.drain_ready(rng, out)
    }

    fn drain_ready(
        &mut self,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        let mut delivered = Vec::new();
        while let Some((epoch, d, _cert, payload)) = self.ready.remove(&self.next_seq) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.delivered_digests.insert(d);
            if self.queued_digests.remove(&d) {
                self.queue.retain(|p| digest(p) != d);
            }
            if self.lock.as_ref().is_some_and(|l| l.seq <= seq) {
                self.lock = None;
            }
            self.ticks_since_progress = 0;
            delivered.push(OptDeliver {
                seq,
                epoch,
                payload,
            });
        }
        if !delivered.is_empty() {
            self.maybe_propose(rng, out);
        }
        delivered
    }

    fn on_complain(
        &mut self,
        from: PartyId,
        epoch: u64,
        share: SignatureShare,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) {
        if share.party() != from || epoch < self.epoch {
            return;
        }
        let msg = self.complain_msg(epoch);
        let list = self.complaints.entry(epoch).or_default();
        if !list.insert(from, share) {
            return; // duplicate or previously culled sender
        }
        if !self.public.structure().is_qualified(&list.holders()) || self.changing.contains(&epoch)
        {
            return;
        }
        // Quorum-time batching: the complaint quorum must survive batch
        // verification before the epoch's fast path is abandoned.
        let signing = self.public.signing();
        list.settle(|batch| signing.verify_shares(&msg, batch, rng));
        if self.public.structure().is_qualified(&list.holders()) {
            // Echo our own complaint so everyone reaches the quorum, then
            // abandon the epoch's fast path and report state.
            self.send_complaint(epoch, rng, out);
            self.changing.insert(epoch);
            self.send_report(epoch, rng, out);
        }
    }

    fn send_complaint(&mut self, epoch: u64, rng: &mut SeededRng, out: &mut Outbox<OptMessage>) {
        if !self.my_complaint_sent.insert(epoch) {
            return;
        }
        let msg = self.complain_msg(epoch);
        let share = self.bundle.signing_key().sign_share(&msg, rng);
        out.broadcast(OptMessage::Complain { epoch, share });
    }

    fn send_report(&mut self, epoch: u64, rng: &mut SeededRng, out: &mut Outbox<OptMessage>) {
        // Report the prepared slot at the frontier, if any.
        let prepared = self
            .slots
            .get(&(epoch, self.next_seq))
            .and_then(|slot| {
                let (d, cert) = slot.prepared.clone()?;
                let (payload, pd) = slot.proposal.clone()?;
                if pd != d {
                    return None;
                }
                Some(PreparedEntry {
                    epoch,
                    seq: self.next_seq,
                    digest: d,
                    cert,
                    payload,
                })
            })
            // The adopted lock also counts as prepared state to carry
            // forward (it may be from an older epoch).
            .or_else(|| self.lock.clone());
        let mut report = StateReport {
            party: self.me,
            epoch,
            next_seq: self.next_seq,
            prepared,
            sig: Signature::placeholder(),
        };
        let content = encode_report_content(&report);
        report.sig = self
            .bundle
            .auth_key()
            .sign(&self.report_msg(epoch, &content), rng);
        let encoded = encode_report(&report);
        out.broadcast(OptMessage::Report {
            epoch,
            report: encoded,
        });
    }

    fn on_report(
        &mut self,
        from: PartyId,
        epoch: u64,
        report_bytes: Vec<u8>,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        if epoch < self.epoch || self.change_done.contains(&epoch) {
            return Vec::new();
        }
        let Some(report) = decode_report(&report_bytes) else {
            return Vec::new();
        };
        if report.party != from || report.epoch != epoch {
            return Vec::new();
        }
        if !verify_report(&self.public, &self.tag, &report) {
            return Vec::new();
        }
        self.reports
            .entry(epoch)
            .or_default()
            .insert(from, report_bytes);
        self.try_propose_change(epoch, rng, out)
    }

    /// Once a core set of reports is in (and we ourselves are in
    /// changing state), propose the list to the epoch-change agreement.
    fn try_propose_change(
        &mut self,
        epoch: u64,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        if !self.changing.contains(&epoch)
            || self.change_proposed.contains(&epoch)
            || self.change_done.contains(&epoch)
            || epoch != self.epoch
        {
            return Vec::new();
        }
        let holders: PartySet = self
            .reports
            .get(&epoch)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        if !self.public.structure().is_core(&holders) {
            return Vec::new();
        }
        self.change_proposed.insert(epoch);
        let list = encode_report_list(
            self.reports[&epoch]
                .values()
                .map(|b| b.as_slice())
                .collect::<Vec<_>>()
                .as_slice(),
        );
        let mut sub = Outbox::new(self.n);
        let mvba = self.change_instance(epoch);
        let decision = mvba.propose(list, rng, &mut sub);
        for (to, m) in sub {
            out.send(to, OptMessage::Change { epoch, inner: m });
        }
        if let Some(value) = decision {
            return self.finish_change(epoch, &value, rng, out);
        }
        Vec::new()
    }

    fn change_instance(&mut self, epoch: u64) -> &mut Mvba {
        let tag = self.tag.child("change", epoch);
        let public = Arc::clone(&self.public);
        let bundle = Arc::clone(&self.bundle);
        let predicate = change_validity(&self.tag, epoch, Arc::clone(&self.public));
        self.changes
            .entry(epoch)
            .or_insert_with(|| Mvba::new(tag, public, bundle, predicate))
    }

    fn on_change(
        &mut self,
        from: PartyId,
        epoch: u64,
        inner: MvbaMessage,
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        if self.change_done.contains(&epoch) {
            return Vec::new();
        }
        let mut sub = Outbox::new(self.n);
        let mvba = self.change_instance(epoch);
        let decision = mvba.on_message(from, inner, rng, &mut sub);
        for (to, m) in sub {
            out.send(to, OptMessage::Change { epoch, inner: m });
        }
        if let Some(value) = decision {
            return self.finish_change(epoch, &value, rng, out);
        }
        Vec::new()
    }

    /// Adopts the decided epoch change: compute the lock and move to the
    /// next epoch.
    fn finish_change(
        &mut self,
        epoch: u64,
        decided: &[u8],
        rng: &mut SeededRng,
        out: &mut Outbox<OptMessage>,
    ) -> Vec<OptDeliver> {
        self.change_done.insert(epoch);
        if epoch < self.epoch {
            return Vec::new();
        }
        let reports = decode_report_list(decided).expect("decided value passed validity");
        // The frontier every honest replica can be assumed to reach: the
        // highest reported committed prefix is transferable through
        // Deliver certificates already in flight; the lock protects the
        // first potentially-committed-but-unreported slot.
        let max_next = reports.iter().map(|r| r.next_seq).max().unwrap_or(0);
        // Highest-epoch prepared certificate at or beyond the frontier.
        let lock = reports
            .iter()
            .filter_map(|r| r.prepared.clone())
            .filter(|p| p.seq >= max_next.max(self.next_seq))
            .max_by_key(|p| p.epoch);
        self.lock = lock;
        self.epoch = epoch + 1;
        self.epoch_changes += 1;
        self.ticks_since_progress = 0;
        self.maybe_propose(rng, out);
        Vec::new()
    }

    /// The optimism timer: complain about the current epoch when pending
    /// work makes no progress.
    pub fn on_tick(&mut self, rng: &mut SeededRng, out: &mut Outbox<OptMessage>) {
        let pending = !self.queue.is_empty() || self.lock.is_some();
        if !pending || self.changing.contains(&self.epoch) {
            self.ticks_since_progress = 0;
            return;
        }
        self.ticks_since_progress += 1;
        if self.ticks_since_progress >= self.timeout_ticks {
            self.ticks_since_progress = 0;
            let epoch = self.epoch;
            self.send_complaint(epoch, rng, out);
        }
    }
}

/// External validity for the epoch-change agreement: a core set of
/// correctly signed reports for this epoch, with verifying prepared
/// certificates.
fn change_validity(tag: &Tag, epoch: u64, public: Arc<PublicParameters>) -> ValidityPredicate {
    let tag = tag.clone();
    Arc::new(move |value: &[u8]| {
        let Some(reports) = decode_report_list(value) else {
            return false;
        };
        let mut holders = PartySet::new();
        for r in &reports {
            if r.epoch != epoch || r.party >= public.n() || !holders.insert(r.party) {
                return false;
            }
            if !verify_report(&public, &tag, r) {
                return false;
            }
        }
        public.structure().is_core(&holders)
    })
}

fn verify_report(public: &PublicParameters, tag: &Tag, report: &StateReport) -> bool {
    let content = encode_report_content(report);
    let msg = tag.message(&[b"report", &report.epoch.to_be_bytes(), &content]);
    if !public.auth_key(report.party).verify(&msg, &report.sig) {
        return false;
    }
    if let Some(p) = &report.prepared {
        if digest(&p.payload) != p.digest {
            return false;
        }
        let pmsg = tag.message(&[
            b"prep",
            &p.epoch.to_be_bytes(),
            &p.seq.to_be_bytes(),
            &p.digest,
        ]);
        if !public
            .signing()
            .verify(&pmsg, &p.cert, QuorumRule::Strong, |_| false)
        {
            return false;
        }
    }
    true
}

// --- wire codecs -------------------------------------------------------

fn put(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_be_bytes());
    out.extend_from_slice(field);
}

fn take(rest: &mut &[u8], n: usize) -> Option<Vec<u8>> {
    if rest.len() < n {
        return None;
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Some(head.to_vec())
}

fn take_field(rest: &mut &[u8]) -> Option<Vec<u8>> {
    let len = u32::from_be_bytes(take(rest, 4)?.try_into().ok()?) as usize;
    if len > 1 << 24 {
        return None;
    }
    take(rest, len)
}

/// The signed portion of a report (everything except the signature).
fn encode_report_content(r: &StateReport) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(r.party as u32).to_be_bytes());
    out.extend_from_slice(&r.epoch.to_be_bytes());
    out.extend_from_slice(&r.next_seq.to_be_bytes());
    match &r.prepared {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&p.epoch.to_be_bytes());
            out.extend_from_slice(&p.seq.to_be_bytes());
            out.extend_from_slice(&p.digest);
            put(&mut out, &p.cert.to_bytes());
            put(&mut out, &p.payload);
        }
    }
    out
}

fn encode_report(r: &StateReport) -> Vec<u8> {
    let mut out = encode_report_content(r);
    out.extend_from_slice(&r.sig.to_bytes());
    out
}

fn decode_report(bytes: &[u8]) -> Option<StateReport> {
    let mut rest = bytes;
    let party = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as PartyId;
    let epoch = u64::from_be_bytes(take(&mut rest, 8)?.try_into().ok()?);
    let next_seq = u64::from_be_bytes(take(&mut rest, 8)?.try_into().ok()?);
    let has_prepared = take(&mut rest, 1)?[0];
    let prepared = match has_prepared {
        0 => None,
        1 => {
            let pepoch = u64::from_be_bytes(take(&mut rest, 8)?.try_into().ok()?);
            let pseq = u64::from_be_bytes(take(&mut rest, 8)?.try_into().ok()?);
            let d: Digest = take(&mut rest, 32)?.try_into().ok()?;
            let cert = ThresholdSignature::from_bytes(&take_field(&mut rest)?)?;
            let payload = take_field(&mut rest)?;
            Some(PreparedEntry {
                epoch: pepoch,
                seq: pseq,
                digest: d,
                cert,
                payload,
            })
        }
        _ => return None,
    };
    let sig_bytes: [u8; 64] = take(&mut rest, 64)?.try_into().ok()?;
    if !rest.is_empty() {
        return None;
    }
    Some(StateReport {
        party,
        epoch,
        next_seq,
        prepared,
        sig: Signature::from_bytes(&sig_bytes)?,
    })
}

fn encode_report_list(reports: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(reports.len() as u32).to_be_bytes());
    for r in reports {
        put(&mut out, r);
    }
    out
}

fn decode_report_list(bytes: &[u8]) -> Option<Vec<StateReport>> {
    let mut rest = bytes;
    let count = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
    if count > 4096 {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let r = take_field(&mut rest)?;
        out.push(decode_report(&r)?);
    }
    if !rest.is_empty() {
        return None;
    }
    Some(out)
}

/// [`Protocol`] adapter for simulator runs.
#[derive(Debug)]
pub struct OptNode {
    opt: OptimisticBroadcast,
    rng: SeededRng,
}

impl OptNode {
    /// Wraps an endpoint with its nonce RNG.
    pub fn new(opt: OptimisticBroadcast, rng: SeededRng) -> Self {
        OptNode { opt, rng }
    }

    /// Read access to the endpoint.
    pub fn endpoint(&self) -> &OptimisticBroadcast {
        &self.opt
    }
}

impl Protocol for OptNode {
    type Message = OptMessage;
    type Input = Vec<u8>;
    type Output = OptDeliver;

    fn on_input(&mut self, input: Vec<u8>, fx: &mut Effects<OptMessage, OptDeliver>) {
        let mut out = Outbox::new(self.opt.n());
        for d in self.opt.broadcast(input, &mut self.rng, &mut out) {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_message(
        &mut self,
        from: PartyId,
        msg: OptMessage,
        fx: &mut Effects<OptMessage, OptDeliver>,
    ) {
        let mut out = Outbox::new(self.opt.n());
        for d in self.opt.on_message(from, msg, &mut self.rng, &mut out) {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_tick(&mut self, fx: &mut Effects<OptMessage, OptDeliver>) {
        let mut out = Outbox::new(self.opt.n());
        self.opt.on_tick(&mut self.rng, &mut out);
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_input_ctx(
        &mut self,
        ctx: &Context,
        input: Vec<u8>,
        fx: &mut Effects<OptMessage, OptDeliver>,
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
    }

    fn on_message_ctx(
        &mut self,
        ctx: &Context,
        from: PartyId,
        msg: OptMessage,
        fx: &mut Effects<OptMessage, OptDeliver>,
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
    }

    fn on_tick_ctx(&mut self, ctx: &Context, fx: &mut Effects<OptMessage, OptDeliver>) {
        if !ctx.obs.is_enabled() {
            return self.on_tick(fx);
        }
        let s0 = fx.sends().len();
        self.on_tick(fx);
        for (_, m) in &fx.sends()[s0..] {
            observe_wire(ctx, "sent", m);
        }
    }
}

/// Records fast-path/fallback deliveries appended past `mark`, tagged
/// with the epoch the slot committed in.
fn record_deliveries(ctx: &Context, fx: &Effects<OptMessage, OptDeliver>, mark: usize) {
    for d in &fx.outputs()[mark..] {
        ctx.obs.inc(Layer::Optimistic, "delivered");
        ctx.obs.event(
            Event::new(Layer::Optimistic, EventKind::Deliver, ctx.me)
                .epoch(d.epoch.min(u32::MAX as u64) as u32)
                .value(d.seq)
                .at(ctx.at),
        );
    }
}

/// Builds `n` connected [`OptNode`]s.
pub fn opt_nodes(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    timeout_ticks: u64,
    seed: u64,
) -> Vec<OptNode> {
    let public = Arc::new(public);
    bundles
        .into_iter()
        .map(|b| {
            let rng = SeededRng::new(seed ^ (b.party() as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
            OptNode::new(
                OptimisticBroadcast::new(
                    Tag::root("opt"),
                    Arc::clone(&public),
                    Arc::new(b),
                    timeout_ticks,
                ),
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
    use sintra_net::sim::{Behavior, RandomScheduler, Simulation};

    fn nodes(n: usize, t: usize, timeout: u64, seed: u64) -> Vec<OptNode> {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(seed);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        opt_nodes(public, bundles, timeout, seed)
    }

    fn payloads(
        sim: &Simulation<OptNode, impl sintra_net::sim::Scheduler<OptMessage>>,
        p: usize,
    ) -> Vec<Vec<u8>> {
        sim.outputs(p).iter().map(|d| d.payload.clone()).collect()
    }

    #[test]
    fn fast_path_delivers_in_order() {
        let mut sim = Simulation::builder(nodes(4, 1, 50, 1), RandomScheduler)
            .seed(2)
            .build();
        sim.enable_ticks(4);
        sim.input(1, b"m1".to_vec());
        sim.input(2, b"m2".to_vec());
        sim.input(3, b"m3".to_vec());
        sim.run_until_quiet(1_000_000);
        let reference = payloads(&sim, 0);
        assert_eq!(reference.len(), 3, "all ordered on the fast path");
        for p in 1..4 {
            assert_eq!(payloads(&sim, p), reference, "party {p}");
        }
        // No epoch changes were needed.
        for p in 0..4 {
            assert_eq!(sim.node(p).unwrap().endpoint().epoch(), 0);
        }
    }

    #[test]
    fn fast_path_is_much_cheaper_than_full_abc() {
        // The ablation claim: same request, far fewer network events.
        let mut sim = Simulation::builder(nodes(4, 1, 50, 3), RandomScheduler)
            .seed(4)
            .build();
        sim.enable_ticks(4);
        sim.input(0, b"cheap".to_vec());
        sim.run_until_quiet(1_000_000);
        // Count actual message deliveries (idle clock rounds at the end
        // of the run are not network traffic).
        let opt_events = sim.stats().delivered + sim.stats().local_deliveries;
        assert_eq!(payloads(&sim, 2).len(), 1);
        // Full randomized ABC for one request measured ~159 events at
        // n=4 (see E6); the fast path should be several times cheaper.
        assert!(
            opt_events < 80,
            "fast path took {opt_events} events; expected well under full ABC"
        );
    }

    #[test]
    fn crashed_sequencer_triggers_fallback_and_recovers() {
        // Epoch 0's sequencer (party 0) is crashed: the optimism timer
        // fires, replicas complain, the randomized epoch change runs,
        // and epoch 1's sequencer (party 1) orders the queue.
        let mut sim = Simulation::builder(nodes(4, 1, 10, 5), RandomScheduler)
            .seed(6)
            .build();
        sim.enable_ticks(2);
        sim.corrupt(0, Behavior::Crash);
        sim.input(1, b"survives".to_vec());
        sim.run_until_quiet(50_000_000);
        let reference = payloads(&sim, 1);
        assert_eq!(
            reference,
            vec![b"survives".to_vec()],
            "delivered after fallback"
        );
        for p in 2..4 {
            assert_eq!(payloads(&sim, p), reference, "party {p}");
        }
        for p in 1..4 {
            let ep = sim.node(p).unwrap().endpoint();
            assert!(ep.epoch() >= 1, "party {p} moved past the dead epoch");
            assert!(ep.epoch_changes >= 1);
        }
    }

    #[test]
    fn equivocating_sequencer_cannot_split_order() {
        // Party 0 (sequencer) equivocates: different payloads to
        // different replicas for slot 0. At most one digest can gather a
        // strong prepare quorum, so honest replicas never deliver
        // different payloads at the same slot; the timer eventually
        // rotates the sequencer out and the queue drains.
        let mut sim = Simulation::builder(nodes(4, 1, 10, 7), RandomScheduler)
            .seed(8)
            .build();
        sim.enable_ticks(2);
        let mut fired = false;
        sim.corrupt(
            0,
            Behavior::Custom(Box::new(move |_from, msg: OptMessage, _| {
                if let OptMessage::Push(_) = msg {
                    if !fired {
                        fired = true;
                        return vec![
                            (
                                1,
                                OptMessage::Propose {
                                    epoch: 0,
                                    seq: 0,
                                    payload: b"fork-A".to_vec(),
                                },
                            ),
                            (
                                2,
                                OptMessage::Propose {
                                    epoch: 0,
                                    seq: 0,
                                    payload: b"fork-A".to_vec(),
                                },
                            ),
                            (
                                3,
                                OptMessage::Propose {
                                    epoch: 0,
                                    seq: 0,
                                    payload: b"fork-B".to_vec(),
                                },
                            ),
                        ];
                    }
                }
                vec![]
            })),
        );
        sim.input(1, b"client-request".to_vec());
        sim.run_until_quiet(50_000_000);
        let reference = payloads(&sim, 1);
        for p in 2..4 {
            assert_eq!(payloads(&sim, p), reference, "party {p} agrees");
        }
        // The client request must eventually be ordered (liveness via
        // fallback); the forks may or may not appear, but never split.
        assert!(reference.contains(&b"client-request".to_vec()));
    }

    #[test]
    fn multiple_requests_across_epochs() {
        // Crash the first sequencer mid-stream; later requests are
        // ordered by the next epoch with the prefix preserved.
        let mut sim = Simulation::builder(nodes(4, 1, 10, 9), RandomScheduler)
            .seed(10)
            .build();
        sim.enable_ticks(2);
        sim.input(1, b"r1".to_vec());
        sim.input(2, b"r2".to_vec());
        // Let epoch 0 order some of it, then kill the sequencer.
        sim.run_until(5_000, |s| !s.outputs(1).is_empty());
        sim.corrupt(0, Behavior::Crash);
        sim.input(3, b"r3".to_vec());
        sim.run_until_quiet(50_000_000);
        let reference = payloads(&sim, 1);
        assert_eq!(reference.len(), 3, "all three ordered: {reference:?}");
        for p in 2..4 {
            assert_eq!(payloads(&sim, p), reference, "party {p}");
        }
        // Sequence numbers are gapless.
        let seqs: Vec<u64> = sim.outputs(1).iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn laggard_catches_up_via_deliver_certificates() {
        // Starve one replica completely during the fast path; the
        // transferable Deliver certificates bring it to the same state
        // once its messages finally arrive.
        use sintra_net::sim::TargetedDelayScheduler;
        let mut sim = Simulation::builder(
            nodes(4, 1, 60, 13),
            TargetedDelayScheduler {
                victims: sintra_adversary::party::PartySet::singleton(3),
            },
        )
        .seed(14)
        .build();
        sim.enable_ticks(4);
        sim.input(1, b"fast-1".to_vec());
        sim.input(2, b"fast-2".to_vec());
        sim.run_until_quiet(5_000_000);
        let reference = payloads(&sim, 0);
        assert_eq!(reference.len(), 2);
        assert_eq!(payloads(&sim, 3), reference, "starved replica caught up");
    }

    #[test]
    fn report_codec_roundtrip() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(11);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        // Build a genuine prepared certificate.
        let tag = Tag::root("opt");
        let d = digest(b"payload");
        let pmsg = tag.message(&[b"prep", &0u64.to_be_bytes(), &0u64.to_be_bytes(), &d]);
        let shares: Vec<_> = bundles[..3]
            .iter()
            .map(|b| b.signing_key().sign_share(&pmsg, &mut rng))
            .collect();
        let cert = public
            .signing()
            .combine(&pmsg, &shares, QuorumRule::Strong)
            .unwrap();
        let mut report = StateReport {
            party: 2,
            epoch: 0,
            next_seq: 0,
            prepared: Some(PreparedEntry {
                epoch: 0,
                seq: 0,
                digest: d,
                cert,
                payload: b"payload".to_vec(),
            }),
            sig: Signature::placeholder(),
        };
        let content = encode_report_content(&report);
        report.sig = bundles[2].auth_key().sign(
            &tag.message(&[b"report", &0u64.to_be_bytes(), &content]),
            &mut rng,
        );
        let encoded = encode_report(&report);
        let decoded = decode_report(&encoded).unwrap();
        assert_eq!(decoded.party, 2);
        assert!(verify_report(&public, &tag, &decoded));
        // Tampering is caught.
        let mut bad = encoded.clone();
        bad[5] ^= 1;
        assert!(decode_report(&bad).is_none_or(|r| !verify_report(&public, &tag, &r)));
        // List roundtrip.
        let list = encode_report_list(&[&encoded]);
        assert_eq!(decode_report_list(&list).unwrap().len(), 1);
        assert!(decode_report_list(&list[..list.len() - 1]).is_none());
    }
}
