//! Consistent broadcast (echo broadcast with threshold-signature
//! voucher; Reiter-style, cf. §3).
//!
//! The cheaper sibling of reliable broadcast: it guarantees
//! **uniqueness** — no two honest parties deliver different payloads for
//! the same instance — but *not* totality: a party may never deliver and
//! must learn of the message by other means (which is exactly how the
//! multi-valued agreement protocol uses it, recovering missing proposals
//! via their vouchers).
//!
//! Message flow: the sender disseminates the payload; each recipient
//! returns a threshold-signature share over the payload digest *to the
//! sender only*; once the shares form a core quorum the sender combines
//! them into a transferable voucher and broadcasts it. Total message
//! count is `O(n)` versus reliable broadcast's `O(n²)` — the difference
//! experiment E3 measures.

use crate::common::{digest, BatchedShares, Digest, Outbox, Tag, WireKind};
use serde::{Deserialize, Serialize};
use sintra_adversary::party::{PartyId, PartySet};
use sintra_crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra_crypto::rng::SeededRng;
use sintra_crypto::tsig::{QuorumRule, SignatureShare, ThresholdSignature};
use std::sync::Arc;

/// Consistent-broadcast wire messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CbcMessage {
    /// Sender's payload dissemination.
    Send(Vec<u8>),
    /// Recipient's signature share over the payload digest (to sender).
    Echo(SignatureShare),
    /// Sender's combined voucher: payload + core-quorum threshold
    /// signature. Transferable: anyone can convince anyone else.
    Final(Vec<u8>, ThresholdSignature),
}

impl WireKind for CbcMessage {
    fn kind(&self) -> &'static str {
        match self {
            CbcMessage::Send(_) => "send",
            CbcMessage::Echo(_) => "echo",
            CbcMessage::Final(_, _) => "final",
        }
    }
}

/// A delivered consistent broadcast: payload plus its transferable
/// voucher.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Voucher {
    /// The delivered payload.
    pub payload: Vec<u8>,
    /// Core-quorum threshold signature over the instance tag and payload
    /// digest.
    pub signature: ThresholdSignature,
}

/// One consistent-broadcast instance at one party.
#[derive(Debug)]
pub struct ConsistentBroadcast {
    me: PartyId,
    n: usize,
    tag: Tag,
    sender: PartyId,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    /// Sender side: payload being vouched.
    my_payload: Option<(Vec<u8>, Digest)>,
    /// Sender side: collected echo shares, batch-verified only once a
    /// candidate core quorum exists (one share per party; duplicates and
    /// culled parties are rejected by the tracker).
    shares: BatchedShares<SignatureShare>,
    final_sent: bool,
    /// The echo share this party sent, with the digest it signed.
    echo: Option<(Digest, SignatureShare)>,
    delivered: bool,
    /// Parties whose `Final` failed verification. An honest party only
    /// sends a `Final` it combined or already validated, and the check is
    /// deterministic, so one failure convicts the sender: its later
    /// `Final`s for this instance are dropped unchecked.
    final_banned: PartySet,
}

impl ConsistentBroadcast {
    /// Number of parties in the group.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Creates an instance for a designated sender under `tag`.
    pub fn new(
        tag: Tag,
        sender: PartyId,
        public: Arc<PublicParameters>,
        bundle: Arc<ServerKeyBundle>,
    ) -> Self {
        ConsistentBroadcast {
            me: bundle.party(),
            n: public.n(),
            tag,
            sender,
            public,
            bundle,
            my_payload: None,
            shares: BatchedShares::new(),
            final_sent: false,
            echo: None,
            delivered: false,
            final_banned: PartySet::new(),
        }
    }

    fn signed_message(&self, d: &Digest) -> Vec<u8> {
        self.tag.message(&[b"cbc", d])
    }

    /// Whether this instance has delivered.
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Starts the broadcast (sender only).
    ///
    /// # Panics
    ///
    /// Panics if called at a non-sender party or twice.
    pub fn broadcast(&mut self, payload: Vec<u8>, out: &mut Outbox<CbcMessage>) {
        assert_eq!(self.me, self.sender, "only the sender may broadcast");
        assert!(self.my_payload.is_none(), "broadcast may start only once");
        let d = digest(&payload);
        self.my_payload = Some((payload.clone(), d));
        out.broadcast(CbcMessage::Send(payload));
    }

    /// Verifies a voucher independently of protocol state (used by
    /// higher layers when a payload arrives through recovery paths),
    /// skipping the signatures `known` names (see
    /// [`ThresholdSigScheme::verify`](sintra_crypto::tsig::ThresholdSigScheme::verify)).
    pub fn verify_voucher(
        public: &PublicParameters,
        tag: &Tag,
        voucher: &Voucher,
        known: impl Fn(&SignatureShare) -> bool,
    ) -> bool {
        let d = digest(&voucher.payload);
        let msg = tag.message(&[b"cbc", &d]);
        public
            .signing()
            .verify(&msg, &voucher.signature, QuorumRule::Core, known)
    }

    /// Handles a message; returns the voucher when this party delivers.
    pub fn on_message(
        &mut self,
        from: PartyId,
        msg: CbcMessage,
        rng: &mut SeededRng,
        out: &mut Outbox<CbcMessage>,
    ) -> Option<Voucher> {
        if from >= self.n {
            return None; // out-of-range sender
        }
        match msg {
            CbcMessage::Send(payload) => {
                if from != self.sender || self.echo.is_some() {
                    return None;
                }
                let d = digest(&payload);
                let to_sign = self.signed_message(&d);
                let share = self.bundle.signing_key().sign_share(&to_sign, rng);
                self.echo = Some((d, share));
                out.send(self.sender, CbcMessage::Echo(share));
                None
            }
            CbcMessage::Echo(share) => {
                // Only the sender collects shares.
                if self.me != self.sender || self.final_sent {
                    return None;
                }
                let (payload, d) = match &self.my_payload {
                    Some(p) => p.clone(),
                    None => return None,
                };
                if share.party() != from || !self.shares.insert(from, share) {
                    return None; // relayed foreign shares, dupes, culprits
                }
                // Quorum-time batching: echo shares are only accepted
                // structurally here; once a candidate core quorum exists
                // they are verified together (one multi-exp) and invalid
                // senders culled before the voucher is combined.
                if !self.public.structure().is_core(&self.shares.holders()) {
                    return None;
                }
                let to_sign = self.signed_message(&d);
                let signing = self.public.signing();
                self.shares
                    .settle(|batch| signing.verify_shares(&to_sign, batch, rng));
                let verified: Vec<SignatureShare> =
                    self.shares.verified().values().cloned().collect();
                if let Ok(sig) = signing.combine_preverified(&verified, QuorumRule::Core) {
                    self.final_sent = true;
                    out.broadcast(CbcMessage::Final(payload, sig));
                }
                None
            }
            CbcMessage::Final(payload, sig) => self.deliver_final(from, payload, sig),
        }
    }

    fn deliver_final(
        &mut self,
        from: PartyId,
        payload: Vec<u8>,
        sig: ThresholdSignature,
    ) -> Option<Voucher> {
        if self.delivered || self.final_banned.contains(from) {
            return None;
        }
        let voucher = Voucher {
            payload,
            signature: sig,
        };
        // Shares this party checked itself over this payload: its own
        // echo, and at the sender the echo shares it verified — so the
        // sender's own Final costs no exponentiation.
        let d = digest(&voucher.payload);
        let own_payload = self.my_payload.as_ref().is_some_and(|(_, mine)| *mine == d);
        let known = |s: &SignatureShare| {
            self.echo == Some((d, *s))
                || (own_payload && self.shares.verified().get(&s.party()) == Some(s))
        };
        if !Self::verify_voucher(&self.public, &self.tag, &voucher, known) {
            self.final_banned.insert(from);
            return None;
        }
        self.delivered = true;
        Some(voucher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::contexts;
    use sintra_adversary::structure::TrustStructure;
    use sintra_crypto::dealer::Dealer;
    use sintra_net::protocol::{Effects, Protocol};
    use sintra_net::sim::{Behavior, RandomScheduler, Simulation};

    #[derive(Debug)]
    struct CbcNode {
        cbc: ConsistentBroadcast,
        rng: SeededRng,
    }

    impl Protocol for CbcNode {
        type Message = CbcMessage;
        type Input = Vec<u8>;
        type Output = Vec<u8>;

        fn on_input(&mut self, input: Vec<u8>, fx: &mut Effects<CbcMessage, Vec<u8>>) {
            let mut out = Outbox::new(self.cbc.n());
            self.cbc.broadcast(input, &mut out);
            for (to, m) in out {
                fx.send(to, m);
            }
        }

        fn on_message(
            &mut self,
            from: PartyId,
            msg: CbcMessage,
            fx: &mut Effects<CbcMessage, Vec<u8>>,
        ) {
            let mut out = Outbox::new(self.cbc.n());
            if let Some(v) = self.cbc.on_message(from, msg, &mut self.rng, &mut out) {
                fx.output(v.payload);
            }
            for (to, m) in out {
                fx.send(to, m);
            }
        }
    }

    fn nodes(n: usize, t: usize, sender: PartyId, seed: u64) -> Vec<CbcNode> {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(seed);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        contexts(public, bundles, seed)
            .into_iter()
            .map(|c| CbcNode {
                cbc: ConsistentBroadcast::new(
                    Tag::root("cbc-test"),
                    sender,
                    Arc::new(c.public().clone()),
                    Arc::new(c.bundle().clone()),
                ),
                rng: c.rng.clone(),
            })
            .collect()
    }

    #[test]
    fn honest_sender_delivers_everywhere() {
        let mut sim = Simulation::builder(nodes(4, 1, 2, 1), RandomScheduler)
            .seed(2)
            .build();
        sim.input(2, b"payload".to_vec());
        sim.run_until_quiet(100_000);
        for p in 0..4 {
            assert_eq!(sim.outputs(p), &[b"payload".to_vec()], "party {p}");
        }
    }

    #[test]
    fn message_count_is_linear() {
        // CBC: n sends + n echoes + n finals = 3n messages (minus self
        // short-circuits), versus RBC's O(n²).
        let n = 7;
        let mut sim = Simulation::builder(nodes(n, 2, 0, 3), RandomScheduler)
            .seed(3)
            .build();
        sim.input(0, b"m".to_vec());
        sim.run_until_quiet(100_000);
        let sent = sim.stats().sent + sim.stats().local_deliveries;
        assert!(
            sent <= (3 * n) as u64 + 2,
            "expected ~3n messages, saw {sent}"
        );
        for p in 0..n {
            assert!(!sim.outputs(p).is_empty(), "party {p} delivered");
        }
    }

    #[test]
    fn tolerates_crashed_receivers() {
        let mut sim = Simulation::builder(nodes(4, 1, 0, 4), RandomScheduler)
            .seed(4)
            .build();
        sim.corrupt(3, Behavior::Crash);
        sim.input(0, b"m".to_vec());
        sim.run_until_quiet(100_000);
        for p in 0..3 {
            assert_eq!(sim.outputs(p), &[b"m".to_vec()], "party {p}");
        }
    }

    #[test]
    fn voucher_is_transferable() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(5);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("transfer");
        let mut sender = ConsistentBroadcast::new(
            tag.clone(),
            0,
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        let mut receivers: Vec<ConsistentBroadcast> = (1..4)
            .map(|p| {
                ConsistentBroadcast::new(
                    tag.clone(),
                    0,
                    Arc::clone(&public),
                    Arc::new(bundles[p].clone()),
                )
            })
            .collect();
        // Drive the instance by hand.
        let mut out = Outbox::new(sender.n());
        sender.broadcast(b"m".to_vec(), &mut out);
        let mut echoes = Vec::new();
        for (to, msg) in out {
            if to == 0 {
                continue;
            }
            let mut sub = Outbox::new(receivers[to - 1].n());
            receivers[to - 1].on_message(0, msg, &mut rng, &mut sub);
            echoes.extend(sub);
        }
        // Deliver echoes to the sender.
        let mut finals = Vec::new();
        for (to, msg) in echoes {
            assert_eq!(to, 0, "echo goes to the sender only");
            // Identify originating party from the share inside.
            if let CbcMessage::Echo(share) = &msg {
                let from = share.party();
                let mut sub = Outbox::new(sender.n());
                sender.on_message(from, msg, &mut rng, &mut sub);
                finals.extend(sub);
            }
        }
        // Sender emitted Final once a core quorum was reached.
        let (_, final_msg) = finals.first().expect("final emitted").clone();
        let voucher = if let CbcMessage::Final(payload, sig) = final_msg {
            Voucher {
                payload,
                signature: sig,
            }
        } else {
            panic!("expected final");
        };
        // Any third party can verify the voucher offline.
        assert!(ConsistentBroadcast::verify_voucher(
            &public,
            &tag,
            &voucher,
            |_| false
        ));
        // And it does not verify under another tag.
        assert!(!ConsistentBroadcast::verify_voucher(
            &public,
            &Tag::root("other"),
            &voucher,
            |_| false
        ));
    }

    #[test]
    fn forged_final_rejected() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(6);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("forge");
        let mut node = ConsistentBroadcast::new(
            tag.clone(),
            0,
            Arc::clone(&public),
            Arc::new(bundles[1].clone()),
        );
        // Build a voucher for "good" but claim it for "evil".
        let d = digest(b"good");
        let msg = tag.message(&[b"cbc", &d]);
        let shares: Vec<SignatureShare> = bundles[..3]
            .iter()
            .map(|b| b.signing_key().sign_share(&msg, &mut rng))
            .collect();
        let sig = public
            .signing()
            .combine(&msg, &shares, QuorumRule::Core)
            .unwrap();
        // A corrupted relay (party 3) claims it for "evil".
        let mut out = Outbox::new(node.n());
        let delivered = node.on_message(
            3,
            CbcMessage::Final(b"evil".to_vec(), sig.clone()),
            &mut rng,
            &mut out,
        );
        assert!(delivered.is_none(), "digest mismatch rejected");
        // The genuine payload goes through.
        let delivered = node.on_message(
            0,
            CbcMessage::Final(b"good".to_vec(), sig),
            &mut rng,
            &mut out,
        );
        assert!(delivered.is_some());
    }

    /// One broadcast at n = 4 in FIFO order: each party's `Final` check
    /// batch-verifies only the signatures it neither made nor verified.
    #[test]
    fn a_final_checks_only_shares_its_receiver_has_not() {
        let mut ns = nodes(4, 1, 0, 12);
        let mut queue = std::collections::VecDeque::new();
        let mut out = Outbox::new(4);
        ns[0].cbc.broadcast(b"m".to_vec(), &mut out);
        queue.extend(out.into_iter().map(|(to, m)| (0, to, m)));
        let mut cost = [None; 4];
        while let Some((from, to, m)) = queue.pop_front() {
            let is_final = matches!(m, CbcMessage::Final(..));
            let before = sintra_obs::global::sigs_verified_count();
            let node = &mut ns[to];
            let mut out = Outbox::new(4);
            let delivered = node.cbc.on_message(from, m, &mut node.rng, &mut out);
            if is_final {
                assert!(delivered.is_some(), "party {to} delivers");
                cost[to] = Some(sintra_obs::global::sigs_verified_count() - before);
            }
            queue.extend(out.into_iter().map(|(dest, m)| (to, dest, m)));
        }
        // The first three echoes (parties 0, 1, 2) form the voucher: the
        // sender verified all three, parties 1 and 2 each signed one.
        assert_eq!(cost, [Some(0), Some(2), Some(2), Some(3)]);
    }

    #[test]
    fn own_checks_are_known_only_for_the_payload_they_cover() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(13);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("equivocate");
        let mut node = ConsistentBroadcast::new(
            tag.clone(),
            0,
            Arc::clone(&public),
            Arc::new(bundles[1].clone()),
        );
        let mut out = Outbox::new(node.n());
        node.on_message(0, CbcMessage::Send(b"m1".to_vec()), &mut rng, &mut out);
        let Some((_, CbcMessage::Echo(echo))) = out.into_iter().next() else {
            panic!("the receiver echoes")
        };
        // A Byzantine sender packs that echo (over m1) with valid shares
        // over m2 into a "certificate" for m2.
        let m2 = tag.message(&[b"cbc", &digest(b"m2")]);
        let mut shares = vec![echo];
        shares.extend([0, 2].map(|p| bundles[p].signing_key().sign_share(&m2, &mut rng)));
        let sig = public
            .signing()
            .combine_preverified(&shares, QuorumRule::Core)
            .unwrap();
        let forged = CbcMessage::Final(b"m2".to_vec(), sig);
        let mut out = Outbox::new(node.n());
        assert!(node.on_message(0, forged, &mut rng, &mut out).is_none());
        // Likewise the sender's verified echo shares cover its own
        // payload only: its voucher for m1 relabelled as one for m2 fails.
        let mut sender = ConsistentBroadcast::new(
            tag.clone(),
            0,
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        sender.broadcast(b"m1".to_vec(), &mut out);
        let m1 = tag.message(&[b"cbc", &digest(b"m1")]);
        let mut out = Outbox::new(sender.n());
        for (p, bundle) in bundles.iter().enumerate().skip(1) {
            let share = bundle.signing_key().sign_share(&m1, &mut rng);
            sender.on_message(p, CbcMessage::Echo(share), &mut rng, &mut out);
        }
        let Some((_, CbcMessage::Final(_, voucher))) = out.into_iter().next() else {
            panic!("the sender combines a voucher")
        };
        let relabelled = CbcMessage::Final(b"m2".to_vec(), voucher);
        let mut out = Outbox::new(sender.n());
        assert!(sender
            .on_message(3, relabelled, &mut rng, &mut out)
            .is_none());
    }

    #[test]
    fn final_spam_costs_one_verification() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(9);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("spam");
        let mut node = ConsistentBroadcast::new(
            tag.clone(),
            0,
            Arc::clone(&public),
            Arc::new(bundles[1].clone()),
        );
        let msg = tag.message(&[b"cbc", &digest(b"m")]);
        let shares: Vec<SignatureShare> = bundles[..3]
            .iter()
            .map(|b| b.signing_key().sign_share(&msg, &mut rng))
            .collect();
        let sig = public
            .signing()
            .combine(&msg, &shares, QuorumRule::Core)
            .unwrap();
        // Party 3 floods forged Finals: the first failure bans it for the
        // instance, so the other 99 cost no verification.
        let before = sintra_obs::global::sig_verify_count();
        let mut out = Outbox::new(node.n());
        for _ in 0..100 {
            let forged = CbcMessage::Final(b"forged".to_vec(), sig.clone());
            assert!(node.on_message(3, forged, &mut rng, &mut out).is_none());
        }
        assert_eq!(sintra_obs::global::sig_verify_count() - before, 1);
        // The ban is per sender: an honest Final from another party (the
        // designated sender) still delivers.
        let honest = CbcMessage::Final(b"m".to_vec(), sig);
        assert!(node.on_message(0, honest, &mut rng, &mut out).is_some());
        assert_eq!(sintra_obs::global::sig_verify_count() - before, 2);
    }

    #[test]
    fn duplicate_shares_cannot_poison_aggregation() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(8);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("dup");
        let mut sender = ConsistentBroadcast::new(
            tag.clone(),
            0,
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        let mut out = Outbox::new(sender.n());
        sender.broadcast(b"m".to_vec(), &mut out);
        out.clear();
        let msg = tag.message(&[b"cbc", &digest(b"m")]);
        // The same party's valid share, repeated: counted once, so no
        // Final can be built from fewer distinct parties than a core
        // quorum (2t + 1 = 3 here, the sender's own share not included).
        let share1 = bundles[1].signing_key().sign_share(&msg, &mut rng);
        for _ in 0..3 {
            sender.on_message(1, CbcMessage::Echo(share1), &mut rng, &mut out);
        }
        assert!(out.is_empty(), "duplicates must not reach a quorum");
        // Distinct parties complete the quorum.
        for p in [2usize, 3] {
            let share = bundles[p].signing_key().sign_share(&msg, &mut rng);
            sender.on_message(p, CbcMessage::Echo(share), &mut rng, &mut out);
        }
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, CbcMessage::Final(_, _))),
            "distinct core quorum emits the Final"
        );
    }

    #[test]
    fn sender_ignores_foreign_or_invalid_echoes() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(7);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let tag = Tag::root("x");
        let mut sender = ConsistentBroadcast::new(
            tag.clone(),
            0,
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
        );
        let mut out = Outbox::new(sender.n());
        sender.broadcast(b"m".to_vec(), &mut out);
        out.clear();
        // Echo whose share was made by party 2 but arrives "from" 1.
        let d = digest(b"m");
        let msg = tag.message(&[b"cbc", &d]);
        let share2 = bundles[2].signing_key().sign_share(&msg, &mut rng);
        sender.on_message(1, CbcMessage::Echo(share2), &mut rng, &mut out);
        assert!(out.is_empty());
        // Echo over the wrong digest.
        let bad = bundles[1]
            .signing_key()
            .sign_share(&tag.message(&[b"cbc", &digest(b"other")]), &mut rng);
        sender.on_message(1, CbcMessage::Echo(bad), &mut rng, &mut out);
        assert!(out.is_empty());
    }
}
