//! Secure causal atomic broadcast (§3, §5.2; after Reiter-Birman).
//!
//! Atomic broadcast plus **input causality**: client requests travel and
//! get *ordered* as threshold ciphertexts, and servers release their
//! decryption shares only *after* the ciphertext's position in the total
//! order is fixed. A corrupted server therefore learns nothing about a
//! request's content before its ordering is final — so it cannot have a
//! related request of its own scheduled first (the patent-office
//! front-running attack of §5.2). The threshold cryptosystem must be
//! CCA-secure for exactly this reason: otherwise the adversary could
//! submit a *mauled* related ciphertext; [`sintra_crypto::tenc`]'s TDH2
//! well-formedness proofs rule that out.
//!
//! Plaintexts are released in ciphertext order: decryption of position
//! `k` may finish before position `k-1`, so finished plaintexts are held
//! back until all predecessors are out.

use crate::abc::{AbcMessage, AtomicBroadcast};
use crate::common::{BatchedShares, Outbox, Tag, WireKind};
use sintra_adversary::party::PartyId;
use sintra_crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra_crypto::rng::SeededRng;
use sintra_crypto::tenc::{Ciphertext, DecryptionShare};
use sintra_net::protocol::{Context, Effects, Protocol};
use sintra_obs::{Event, EventKind, Layer};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Secure-causal-atomic-broadcast wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ScabcMessage {
    /// Underlying atomic-broadcast traffic (ciphertext payloads).
    Abc(AbcMessage),
    /// A decryption share for an ordered ciphertext.
    Share {
        /// Digest of the ciphertext the share belongs to.
        ct_digest: [u8; 32],
        /// The share with its validity proof.
        share: DecryptionShare,
    },
}

impl WireKind for ScabcMessage {
    fn kind(&self) -> &'static str {
        match self {
            ScabcMessage::Abc(_) => "abc",
            ScabcMessage::Share { .. } => "share",
        }
    }
}

/// One plaintext delivery in causal total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScabcDeliver {
    /// Consecutive position among decrypted requests.
    pub seq: u64,
    /// The agreement round that ordered the ciphertext (deterministic
    /// across honest parties; used by the RSM checkpoint protocol).
    pub round: u64,
    /// The server whose round proposal carried the ciphertext.
    pub origin: PartyId,
    /// Digest of the ordered ciphertext — the transport-layer dedup
    /// identity of this delivery (the RSM checkpoint protocol logs it so
    /// a state transfer can re-seed the dedup window exactly).
    pub ct_digest: [u8; 32],
    /// The ciphertext's public label (e.g. client identity).
    pub label: Vec<u8>,
    /// The decrypted request.
    pub plaintext: Vec<u8>,
}

#[derive(Debug)]
struct PendingDecryption {
    ciphertext: Ciphertext,
    digest: [u8; 32],
    round: u64,
    origin: PartyId,
    /// Decryption shares, proofs batch-verified once a qualified holder
    /// set exists.
    shares: BatchedShares<DecryptionShare>,
}

/// Default per-sender budget of decryption shares buffered before their
/// ciphertext is ordered locally (see
/// [`SecureCausalAtomicBroadcast::set_early_share_bound`]).
const DEFAULT_EARLY_SHARE_BOUND: usize = 256;

/// How many recently decrypted ciphertext digests are remembered so
/// that straggler shares (arriving after decryption finished) are
/// dropped instead of buffered as "early". Peers send shares at
/// ordering time, so anything older than this many requests is stale.
const COMPLETED_DIGEST_HISTORY: usize = 4096;

/// Secure causal atomic broadcast endpoint at one server.
pub struct SecureCausalAtomicBroadcast {
    abc: AtomicBroadcast,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    /// Ordered ciphertexts awaiting decryption, by causal sequence.
    pending: BTreeMap<u64, PendingDecryption>,
    /// Sequence lookup by ciphertext digest, for pending (ordered but
    /// not yet decrypted) ciphertexts only; evicted on decryption.
    seq_of: HashMap<[u8; 32], u64>,
    /// Shares that arrived before their ciphertext was ordered.
    early_shares: HashMap<[u8; 32], Vec<DecryptionShare>>,
    /// Per-sender count of buffered early shares; a sender at its bound
    /// has further early shares dropped, so a Byzantine party spraying
    /// shares for digests that never get ordered cannot grow the buffer
    /// without limit.
    early_debt: Vec<usize>,
    early_bound: usize,
    /// Ring of recently decrypted ciphertext digests; straggler shares
    /// for these are dropped rather than buffered (bounded memory for
    /// completed requests).
    completed: HashSet<[u8; 32]>,
    completed_order: VecDeque<[u8; 32]>,
    /// Decrypted but not yet emitted (held for order).
    decrypted: BTreeMap<u64, ScabcDeliver>,
    next_causal_seq: u64,
    next_emit_seq: u64,
}

impl core::fmt::Debug for SecureCausalAtomicBroadcast {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureCausalAtomicBroadcast")
            .field("abc", &self.abc)
            .field("pending", &self.pending.len())
            .field("emitted", &self.next_emit_seq)
            .finish()
    }
}

impl SecureCausalAtomicBroadcast {
    /// Number of parties in the group.
    pub fn n(&self) -> usize {
        self.abc.n()
    }

    /// Creates the endpoint.
    pub fn new(tag: Tag, public: Arc<PublicParameters>, bundle: Arc<ServerKeyBundle>) -> Self {
        let n = public.n();
        SecureCausalAtomicBroadcast {
            abc: AtomicBroadcast::new(tag, Arc::clone(&public), Arc::clone(&bundle)),
            public,
            bundle,
            pending: BTreeMap::new(),
            seq_of: HashMap::new(),
            early_shares: HashMap::new(),
            early_debt: vec![0; n],
            early_bound: DEFAULT_EARLY_SHARE_BOUND,
            completed: HashSet::new(),
            completed_order: VecDeque::new(),
            decrypted: BTreeMap::new(),
            next_causal_seq: 0,
            next_emit_seq: 0,
        }
    }

    /// Number of plaintexts emitted.
    pub fn delivered_count(&self) -> u64 {
        self.next_emit_seq
    }

    /// Number of decryption shares buffered for ciphertexts whose
    /// position in the total order is not yet known.
    pub fn buffered_shares(&self) -> usize {
        self.early_shares.values().map(Vec::len).sum()
    }

    /// Number of early shares currently buffered from `party`.
    pub fn early_share_debt(&self, party: PartyId) -> usize {
        self.early_debt.get(party).copied().unwrap_or(0)
    }

    /// Sets the per-sender budget of early-buffered decryption shares.
    pub fn set_early_share_bound(&mut self, bound: usize) {
        self.early_bound = bound.max(1);
    }

    /// Number of ordered-but-undecrypted ciphertexts.
    pub fn pending_decryptions(&self) -> usize {
        self.pending.len()
    }

    /// Number of ciphertext digests with live lookup state (equals the
    /// pending count once decryption evicts its entry — the regression
    /// the leak fix guards).
    pub fn tracked_digests(&self) -> usize {
        self.seq_of.len()
    }

    /// Read access to the underlying atomic-broadcast endpoint
    /// (retention gauges, GC tuning).
    pub fn abc(&self) -> &AtomicBroadcast {
        &self.abc
    }

    /// Mutable access to the underlying atomic-broadcast endpoint.
    pub fn abc_mut(&mut self) -> &mut AtomicBroadcast {
        &mut self.abc
    }

    /// Jumps the endpoint forward after an out-of-band catch-up (RSM
    /// state transfer): causal delivery resumes at `next_seq` in
    /// agreement round `next_round`. All in-flight decryption state for
    /// skipped positions is dropped — their plaintexts are already
    /// reflected in the restored application snapshot. `dedup` re-seeds
    /// the underlying transport's delivered-ciphertext window (digests
    /// from the certified checkpoint plus the vouched tail).
    pub fn fast_forward(&mut self, next_seq: u64, next_round: u64, dedup: &[(u64, [u8; 32])]) {
        if next_seq <= self.next_emit_seq && next_round <= self.abc.round() {
            return;
        }
        self.next_causal_seq = self.next_causal_seq.max(next_seq);
        self.next_emit_seq = self.next_emit_seq.max(next_seq);
        self.pending.clear();
        self.seq_of.clear();
        self.early_shares.clear();
        self.early_debt.iter_mut().for_each(|d| *d = 0);
        self.completed.clear();
        self.completed_order.clear();
        self.decrypted.clear();
        self.abc.fast_forward(next_seq, next_round, dedup);
    }

    /// Encrypts a request under the service public key and broadcasts
    /// the ciphertext (client-side convenience; a real client encrypts
    /// itself and hands the ciphertext to [`broadcast_ciphertext`]).
    ///
    /// [`broadcast_ciphertext`]: Self::broadcast_ciphertext
    pub fn broadcast_plaintext(
        &mut self,
        plaintext: &[u8],
        label: &[u8],
        rng: &mut SeededRng,
        out: &mut Outbox<ScabcMessage>,
    ) -> Vec<ScabcDeliver> {
        let ct = self.public.encryption().encrypt(plaintext, label, rng);
        self.broadcast_ciphertext(&ct, rng, out)
    }

    /// Broadcasts a client-provided ciphertext.
    pub fn broadcast_ciphertext(
        &mut self,
        ciphertext: &Ciphertext,
        rng: &mut SeededRng,
        out: &mut Outbox<ScabcMessage>,
    ) -> Vec<ScabcDeliver> {
        let mut sub = Outbox::new(self.abc.n());
        let delivered = self.abc.broadcast(ciphertext.to_bytes(), rng, &mut sub);
        for (to, m) in sub {
            out.send(to, ScabcMessage::Abc(m));
        }
        self.after_abc(delivered, rng, out)
    }

    /// Tick hook: drives the transport's tick (pipelined round
    /// transitions) and releases any resulting ordered plaintexts.
    pub fn on_tick(
        &mut self,
        rng: &mut SeededRng,
        out: &mut Outbox<ScabcMessage>,
    ) -> Vec<ScabcDeliver> {
        let mut sub = Outbox::new(self.abc.n());
        let delivered = self.abc.on_tick(rng, &mut sub);
        for (to, m) in sub {
            out.send(to, ScabcMessage::Abc(m));
        }
        self.after_abc(delivered, rng, out)
    }

    /// Handles a message, returning any plaintexts released in order.
    pub fn on_message(
        &mut self,
        from: PartyId,
        msg: ScabcMessage,
        rng: &mut SeededRng,
        out: &mut Outbox<ScabcMessage>,
    ) -> Vec<ScabcDeliver> {
        match msg {
            ScabcMessage::Abc(inner) => {
                let mut sub = Outbox::new(self.abc.n());
                let delivered = self.abc.on_message(from, inner, rng, &mut sub);
                for (to, m) in sub {
                    out.send(to, ScabcMessage::Abc(m));
                }
                self.after_abc(delivered, rng, out)
            }
            ScabcMessage::Share { ct_digest, share } => {
                if from >= self.n() || share.party() != from {
                    return Vec::new();
                }
                match self.seq_of.get(&ct_digest) {
                    Some(&seq) => {
                        self.add_share(seq, share);
                        self.try_decrypt(seq, rng);
                    }
                    None if self.completed.contains(&ct_digest) => {
                        // Straggler share for an already-decrypted
                        // ciphertext: useless, drop it.
                    }
                    None => {
                        // Ciphertext not ordered here yet; buffer, but
                        // charge the sender so spraying shares for
                        // never-ordered digests is bounded, and drop
                        // duplicates for the same digest.
                        if self.early_debt[from] >= self.early_bound {
                            return Vec::new();
                        }
                        let buf = self.early_shares.entry(ct_digest).or_default();
                        if buf.iter().all(|s| s.party() != from) {
                            buf.push(share);
                            self.early_debt[from] += 1;
                        }
                    }
                }
                self.emit_ready()
            }
        }
    }

    /// Processes ABC deliveries: parse ciphertexts, assign causal
    /// sequence numbers, release own decryption shares.
    fn after_abc(
        &mut self,
        delivered: Vec<crate::abc::AbcDeliver>,
        rng: &mut SeededRng,
        out: &mut Outbox<ScabcMessage>,
    ) -> Vec<ScabcDeliver> {
        for d in delivered {
            let ct = match Ciphertext::from_bytes(&d.payload) {
                Some(ct) if self.public.encryption().verify_ciphertext(&ct) => ct,
                // Malformed payloads are skipped identically by all
                // honest servers (the check is deterministic), so the
                // causal order stays consistent.
                _ => continue,
            };
            let seq = self.next_causal_seq;
            self.next_causal_seq += 1;
            let digest = ct.digest();
            self.seq_of.insert(digest, seq);
            // Release our share only now — the ciphertext's position in
            // the total order is fixed.
            if let Some(my_share) =
                self.bundle
                    .decryption_key()
                    .decrypt_share(self.public.encryption(), &ct, rng)
            {
                out.broadcast(ScabcMessage::Share {
                    ct_digest: digest,
                    share: my_share,
                });
            }
            self.pending.insert(
                seq,
                PendingDecryption {
                    ciphertext: ct,
                    digest,
                    round: d.round,
                    origin: d.origin,
                    shares: BatchedShares::new(),
                },
            );
            // Early shares may already complete this ciphertext; their
            // senders' buffering debt is released on consumption.
            for share in self.early_shares.remove(&digest).unwrap_or_default() {
                let p = share.party();
                if let Some(debt) = self.early_debt.get_mut(p) {
                    *debt = debt.saturating_sub(1);
                }
                self.add_share(seq, share);
            }
            self.try_decrypt(seq, rng);
        }
        self.emit_ready()
    }

    fn add_share(&mut self, seq: u64, share: DecryptionShare) {
        if let Some(p) = self.pending.get_mut(&seq) {
            p.shares.insert(share.party(), share);
        }
    }

    /// Attempts to finish a pending decryption. Proof checking is
    /// deferred until a structurally qualified holder set exists, then
    /// runs as one batch.
    fn try_decrypt(&mut self, seq: u64, rng: &mut SeededRng) {
        let Some(p) = self.pending.get(&seq) else {
            return;
        };
        if !self.public.structure().is_qualified(&p.shares.holders()) {
            return;
        }
        let enc = self.public.encryption();
        let p = self.pending.get_mut(&seq).expect("checked above");
        let ct = p.ciphertext.clone();
        p.shares.settle(|batch| enc.verify_shares(&ct, batch, rng));
        let p = self.pending.get(&seq).expect("checked above");
        let verified: Vec<DecryptionShare> = p.shares.verified().values().cloned().collect();
        let Ok(plaintext) = self
            .public
            .encryption()
            .combine_preverified(&p.ciphertext, &verified)
        else {
            return;
        };
        let p = self.pending.remove(&seq).expect("checked above");
        // The digest lookup exists to route shares to the pending entry;
        // once decrypted it would otherwise leak one entry per request,
        // forever. Remember the digest in the bounded completion ring so
        // straggler shares are recognised and dropped.
        self.seq_of.remove(&p.digest);
        if self.completed.insert(p.digest) {
            self.completed_order.push_back(p.digest);
            if self.completed_order.len() > COMPLETED_DIGEST_HISTORY {
                if let Some(old) = self.completed_order.pop_front() {
                    self.completed.remove(&old);
                }
            }
        }
        self.decrypted.insert(
            seq,
            ScabcDeliver {
                seq,
                round: p.round,
                origin: p.origin,
                ct_digest: p.digest,
                label: p.ciphertext.label().to_vec(),
                plaintext,
            },
        );
    }

    /// Emits decrypted requests in causal order.
    fn emit_ready(&mut self) -> Vec<ScabcDeliver> {
        let mut out = Vec::new();
        while let Some(d) = self.decrypted.remove(&self.next_emit_seq) {
            self.next_emit_seq += 1;
            out.push(d);
        }
        out
    }
}

/// [`Protocol`] adapter for simulator runs: inputs are (plaintext,
/// label) pairs encrypted locally; outputs are in-order plaintext
/// deliveries.
#[derive(Debug)]
pub struct ScabcNode {
    scabc: SecureCausalAtomicBroadcast,
    rng: SeededRng,
}

impl ScabcNode {
    /// Wraps an endpoint with its nonce RNG.
    pub fn new(scabc: SecureCausalAtomicBroadcast, rng: SeededRng) -> Self {
        ScabcNode { scabc, rng }
    }

    /// Read access to the endpoint.
    pub fn endpoint(&self) -> &SecureCausalAtomicBroadcast {
        &self.scabc
    }

    /// Mutable access to the endpoint (GC tuning, fast-forward).
    pub fn endpoint_mut(&mut self) -> &mut SecureCausalAtomicBroadcast {
        &mut self.scabc
    }
}

impl Protocol for ScabcNode {
    type Message = ScabcMessage;
    type Input = (Vec<u8>, Vec<u8>);
    type Output = ScabcDeliver;

    fn on_input(
        &mut self,
        (plaintext, label): (Vec<u8>, Vec<u8>),
        fx: &mut Effects<ScabcMessage, ScabcDeliver>,
    ) {
        let mut out = Outbox::new(self.scabc.n());
        for d in self
            .scabc
            .broadcast_plaintext(&plaintext, &label, &mut self.rng, &mut out)
        {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_message(
        &mut self,
        from: PartyId,
        msg: ScabcMessage,
        fx: &mut Effects<ScabcMessage, ScabcDeliver>,
    ) {
        let mut out = Outbox::new(self.scabc.n());
        for d in self.scabc.on_message(from, msg, &mut self.rng, &mut out) {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_input_ctx(
        &mut self,
        ctx: &Context,
        input: (Vec<u8>, Vec<u8>),
        fx: &mut Effects<ScabcMessage, ScabcDeliver>,
    ) {
        if !ctx.obs.is_enabled() {
            return self.on_input(input, fx);
        }
        let (s0, o0) = (fx.sends().len(), fx.outputs().len());
        self.on_input(input, fx);
        for (_, m) in &fx.sends()[s0..] {
            observe_wire(ctx, "sent", m);
        }
        self.record(ctx, fx, o0);
    }

    fn on_message_ctx(
        &mut self,
        ctx: &Context,
        from: PartyId,
        msg: ScabcMessage,
        fx: &mut Effects<ScabcMessage, ScabcDeliver>,
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
        self.record(ctx, fx, o0);
    }

    fn on_tick(&mut self, fx: &mut Effects<ScabcMessage, ScabcDeliver>) {
        let mut out = Outbox::new(self.scabc.n());
        for d in self.scabc.on_tick(&mut self.rng, &mut out) {
            fx.output(d);
        }
        for (to, m) in out {
            fx.send(to, m);
        }
    }

    fn on_tick_ctx(&mut self, ctx: &Context, fx: &mut Effects<ScabcMessage, ScabcDeliver>) {
        if !ctx.obs.is_enabled() {
            return self.on_tick(fx);
        }
        let (s0, o0) = (fx.sends().len(), fx.outputs().len());
        self.on_tick(fx);
        for (_, m) in &fx.sends()[s0..] {
            observe_wire(ctx, "sent", m);
        }
        self.record(ctx, fx, o0);
    }
}

impl ScabcNode {
    /// Records causal deliveries past `mark` and the buffered-share
    /// gauge (shares held for ciphertexts not yet ordered).
    fn record(&self, ctx: &Context, fx: &Effects<ScabcMessage, ScabcDeliver>, mark: usize) {
        ctx.obs.gauge_set(
            Layer::Scabc,
            "buffered_shares",
            self.scabc.buffered_shares() as u64,
        );
        ctx.obs.gauge_set(
            Layer::Scabc,
            "pending_decryptions",
            self.scabc.pending_decryptions() as u64,
        );
        ctx.obs.gauge_set(
            Layer::Scabc,
            "tracked_digests",
            self.scabc.tracked_digests() as u64,
        );
        let abc = self.scabc.abc();
        ctx.obs
            .gauge_set(Layer::Abc, "retained_rounds", abc.retained_rounds() as u64);
        ctx.obs
            .gauge_set(Layer::Abc, "retained_bytes", abc.retained_bytes() as u64);
        ctx.obs
            .gauge_set(Layer::Abc, "tracked_rounds", abc.tracked_rounds() as u64);
        ctx.obs
            .gauge_set(Layer::Abc, "rounds_in_flight", abc.rounds_in_flight());
        ctx.obs
            .gauge_set(Layer::Abc, "batch_size", abc.last_batch_size());
        for _ in &fx.outputs()[mark..] {
            ctx.obs.inc(Layer::Scabc, "delivered");
            ctx.obs
                .event(Event::new(Layer::Scabc, EventKind::Deliver, ctx.me).at(ctx.at));
        }
    }
}

/// Counts one SCABC wire message under its own layer and forwards the
/// embedded atomic-broadcast traffic to that layer's breakdown.
fn observe_wire(ctx: &Context, dir: &'static str, m: &ScabcMessage) {
    ctx.obs.inc2(Layer::Scabc, dir, m.kind());
    if let ScabcMessage::Abc(inner) = m {
        crate::abc::observe_wire(ctx, dir, inner);
    }
}

/// Builds `n` connected [`ScabcNode`]s for a dealt system.
pub fn scabc_nodes(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    seed: u64,
) -> Vec<ScabcNode> {
    let public = Arc::new(public);
    bundles
        .into_iter()
        .map(|b| {
            let rng = SeededRng::new(seed ^ (b.party() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            ScabcNode::new(
                SecureCausalAtomicBroadcast::new(
                    Tag::root("scabc"),
                    Arc::clone(&public),
                    Arc::new(b),
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

    fn setup(n: usize, t: usize, seed: u64) -> Vec<ScabcNode> {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(seed);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        scabc_nodes(public, bundles, seed)
    }

    fn plaintexts(
        sim: &Simulation<ScabcNode, impl sintra_net::sim::Scheduler<ScabcMessage>>,
        p: usize,
    ) -> Vec<Vec<u8>> {
        sim.outputs(p).iter().map(|d| d.plaintext.clone()).collect()
    }

    #[test]
    fn encrypt_order_decrypt_roundtrip() {
        let mut sim = Simulation::builder(setup(4, 1, 1), RandomScheduler)
            .seed(2)
            .build();
        sim.input(0, (b"file patent 17".to_vec(), b"client-a".to_vec()));
        sim.run_until_quiet(50_000_000);
        for p in 0..4 {
            assert_eq!(
                plaintexts(&sim, p),
                vec![b"file patent 17".to_vec()],
                "party {p}"
            );
            assert_eq!(sim.outputs(p)[0].label, b"client-a".to_vec());
        }
    }

    #[test]
    fn concurrent_requests_same_order_and_contents() {
        let mut sim = Simulation::builder(setup(4, 1, 10), RandomScheduler)
            .seed(11)
            .build();
        for p in 0..4 {
            sim.input(p, (format!("req-{p}").into_bytes(), b"l".to_vec()));
        }
        sim.run_until_quiet(100_000_000);
        let reference = plaintexts(&sim, 0);
        assert_eq!(reference.len(), 4);
        for p in 1..4 {
            assert_eq!(plaintexts(&sim, p), reference, "party {p}");
        }
        // Causal sequence numbers are consecutive.
        for p in 0..4 {
            let seqs: Vec<u64> = sim.outputs(p).iter().map(|d| d.seq).collect();
            assert_eq!(seqs, (0..4).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn tolerates_crash() {
        let mut sim = Simulation::builder(setup(4, 1, 20), RandomScheduler)
            .seed(21)
            .build();
        sim.corrupt(2, Behavior::Crash);
        sim.input(0, (b"r1".to_vec(), b"".to_vec()));
        sim.input(1, (b"r2".to_vec(), b"".to_vec()));
        sim.run_until_quiet(100_000_000);
        let reference = plaintexts(&sim, 0);
        assert_eq!(reference.len(), 2);
        for p in [1usize, 3] {
            assert_eq!(plaintexts(&sim, p), reference, "party {p}");
        }
    }

    #[test]
    fn malformed_ciphertext_payloads_skipped_consistently() {
        // A Byzantine server pushes garbage through the underlying ABC;
        // all honest servers skip it and stay consistent.
        let mut sim = Simulation::builder(setup(4, 1, 30), RandomScheduler)
            .seed(31)
            .build();
        sim.corrupt(
            3,
            Behavior::Custom(Box::new(|_from, msg: ScabcMessage, _| {
                // Forward ABC traffic unchanged (keeps the protocol
                // moving) but respond to any Share with garbage pushes.
                match msg {
                    ScabcMessage::Abc(inner) => (0..4)
                        .map(|p| (p, ScabcMessage::Abc(inner.clone())))
                        .collect(),
                    _ => vec![],
                }
            })),
        );
        sim.input(0, (b"good request".to_vec(), b"".to_vec()));
        sim.run_until_quiet(100_000_000);
        let reference = plaintexts(&sim, 0);
        assert_eq!(reference, vec![b"good request".to_vec()]);
        for p in 1..3 {
            assert_eq!(plaintexts(&sim, p), reference, "party {p}");
        }
    }

    #[test]
    fn confidentiality_until_ordering() {
        // Inspect the wire: before any Share message exists, no in-flight
        // message may contain the plaintext bytes. We check the weaker,
        // deterministic property that the ABC payload is the ciphertext
        // (not the plaintext).
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(40);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let mut node = SecureCausalAtomicBroadcast::new(
            Tag::root("conf"),
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        let mut out = Outbox::new(node.n());
        node.broadcast_plaintext(b"SECRET-REQUEST", b"lbl", &mut rng, &mut out);
        let needle = b"SECRET-REQUEST";
        for (_, msg) in &out {
            if let ScabcMessage::Abc(AbcMessage::Push(bytes)) = msg {
                assert!(
                    !bytes.windows(needle.len()).any(|w| w == needle),
                    "plaintext leaked into the broadcast payload"
                );
            }
        }
    }

    #[test]
    fn decryption_evicts_lookup_state() {
        // The digest→seq map and pending set must drain as requests
        // complete; before the leak fix, seq_of grew by one entry per
        // request forever.
        let mut sim = Simulation::builder(setup(4, 1, 60), RandomScheduler)
            .seed(61)
            .build();
        for i in 0..6u32 {
            sim.input(
                (i % 4) as usize,
                (format!("req-{i}").into_bytes(), b"l".to_vec()),
            );
        }
        sim.run_until_quiet(200_000_000);
        for p in 0..4 {
            assert_eq!(sim.outputs(p).len(), 6, "party {p} delivered all");
            let ep = sim.node(p).unwrap().endpoint();
            assert_eq!(ep.tracked_digests(), 0, "party {p} leaked seq_of entries");
            assert_eq!(ep.pending_decryptions(), 0, "party {p} leaked pending");
            assert_eq!(ep.buffered_shares(), 0, "party {p} leaked early shares");
        }
    }

    #[test]
    fn early_share_flood_is_bounded_per_sender() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(70);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let mut node = SecureCausalAtomicBroadcast::new(
            Tag::root("flood"),
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        node.set_early_share_bound(8);
        let mut out = Outbox::new(node.n());
        // A Byzantine server sprays valid-looking shares for ciphertext
        // digests that will never be ordered.
        let ct = public.encryption().encrypt(b"x", b"", &mut rng);
        let share = bundles[3]
            .decryption_key()
            .decrypt_share(public.encryption(), &ct, &mut rng)
            .unwrap();
        for i in 0..1_000u32 {
            let mut fake = [0u8; 32];
            fake[..4].copy_from_slice(&i.to_be_bytes());
            node.on_message(
                3,
                ScabcMessage::Share {
                    ct_digest: fake,
                    share: share.clone(),
                },
                &mut rng,
                &mut out,
            );
        }
        assert_eq!(node.early_share_debt(3), 8, "debt capped at the bound");
        assert_eq!(node.buffered_shares(), 8, "buffer growth bounded");
        // Duplicate shares for one digest from the same sender are
        // dropped rather than charged twice.
        let mut fresh = SecureCausalAtomicBroadcast::new(
            Tag::root("dup"),
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        for _ in 0..5 {
            fresh.on_message(
                3,
                ScabcMessage::Share {
                    ct_digest: [7u8; 32],
                    share: share.clone(),
                },
                &mut rng,
                &mut out,
            );
        }
        assert_eq!(fresh.early_share_debt(3), 1);
        assert_eq!(fresh.buffered_shares(), 1);
    }

    #[test]
    fn fast_forward_clears_decryption_state() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(80);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let mut node = SecureCausalAtomicBroadcast::new(
            Tag::root("ff"),
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        let mut out = Outbox::new(node.n());
        let ct = public.encryption().encrypt(b"y", b"", &mut rng);
        let share = bundles[2]
            .decryption_key()
            .decrypt_share(public.encryption(), &ct, &mut rng)
            .unwrap();
        node.on_message(
            2,
            ScabcMessage::Share {
                ct_digest: ct.digest(),
                share,
            },
            &mut rng,
            &mut out,
        );
        assert_eq!(node.buffered_shares(), 1);
        node.fast_forward(10, 5, &[]);
        assert_eq!(node.buffered_shares(), 0);
        assert_eq!(node.early_share_debt(2), 0);
        assert_eq!(node.delivered_count(), 10);
        assert_eq!(node.abc().round(), 5);
    }

    #[test]
    fn ciphertext_codec_roundtrip() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(50);
        let (public, _) = Dealer::deal(&ts, &mut rng);
        let ct = public.encryption().encrypt(b"msg", b"label", &mut rng);
        let bytes = ct.to_bytes();
        let parsed = Ciphertext::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, ct);
        assert!(Ciphertext::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Ciphertext::from_bytes(b"").is_none());
    }
}
