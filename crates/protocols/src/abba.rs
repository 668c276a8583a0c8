//! Randomized binary Byzantine agreement
//! (Cachin-Kursawe-Shoup, PODC 2000 — "Random oracles in
//! Constantinople").
//!
//! The engine of the whole architecture (§3): agreement on one bit with
//! **optimal resilience** (`Q³` / `n > 3t`), expected **constant** round
//! count, and safety/liveness under *every* message schedule — the
//! randomized escape from the FLP impossibility that the paper builds
//! on. Structure per round `r`:
//!
//! 1. **pre-vote** — each party casts a justified pre-vote for a bit;
//! 2. **main-vote** — once a core quorum of pre-votes arrives, the party
//!    main-votes the unanimous bit, or `abstain` when it saw both bits;
//!    it also releases its share of round-`r`'s threshold coin;
//! 3. **decision** — a core quorum of unanimous main-votes decides; a
//!    mixed quorum carries the seen bit into round `r+1` ("hard"
//!    pre-vote); an all-abstain quorum pre-votes the **coin** value.
//!
//! Every vote carries a *justification* so that corrupted parties cannot
//! inject inconsistent votes: main-votes for `b` carry a threshold
//! signature over a core quorum of pre-votes for `b`; abstentions carry
//! one justified pre-vote for each bit; round-`r+1` pre-votes carry
//! either the hard or the coin justification. Deciders broadcast a
//! transferable decision proof (threshold signature over the unanimous
//! main-votes) and halt, which gives termination for everyone.
//!
//! ## Biased ("validated") mode
//!
//! Multi-valued agreement needs the *biased* variant: deciding 1 must
//! imply that some party really holds the candidate proposal. An
//! [`Abba`] constructed with [`Abba::new_biased`] therefore requires
//! every round-1 pre-vote for 1 to carry a piece of **evidence** `E`
//! (for MVBA: the consistent-broadcast voucher) accepted by a pluggable
//! validator. If no honest party inputs 1 and no valid evidence exists,
//! the instance decides 0 in round one; and any admissible 1-decision
//! transitively exposes validated evidence to an honest party, which is
//! exactly the retrieval-liveness argument of the multi-valued protocol.

use crate::common::{BatchedShares, Outbox, Tag, WireKind};
use serde::{Deserialize, Serialize};
use sintra_adversary::party::{PartyId, PartySet};
use sintra_crypto::coin::{CoinShare, CoinValue};
use sintra_crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra_crypto::rng::SeededRng;
use sintra_crypto::tsig::{QuorumRule, SignatureShare, ThresholdSignature};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A main-vote value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MainVoteValue {
    /// Vote for 0.
    Zero,
    /// Vote for 1.
    One,
    /// Abstain (saw both bits pre-voted).
    Abstain,
}

impl MainVoteValue {
    fn code(&self) -> u8 {
        match self {
            MainVoteValue::Zero => 0,
            MainVoteValue::One => 1,
            MainVoteValue::Abstain => 2,
        }
    }

    fn of_bit(b: bool) -> Self {
        if b {
            MainVoteValue::One
        } else {
            MainVoteValue::Zero
        }
    }
}

/// Justification attached to a pre-vote.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PreVoteJust<E> {
    /// Round 1: the party's input. In biased mode a pre-vote for 1 must
    /// carry validator-approved evidence; a pre-vote for 0 carries none.
    FirstRound(Option<E>),
    /// A core-quorum threshold signature on pre-votes for the same bit in
    /// the previous round (carried out of a mixed main-vote quorum).
    Hard(ThresholdSignature),
    /// A core-quorum threshold signature on `abstain` main-votes in the
    /// previous round; the pre-voted bit must equal that round's coin.
    Coin(ThresholdSignature),
}

/// A justified pre-vote.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PreVote<E> {
    /// Round number (1-based).
    pub round: u64,
    /// The pre-voted bit.
    pub value: bool,
    /// Why this pre-vote is admissible.
    pub just: PreVoteJust<E>,
    /// Signature share on `pre(round, value)` (doubles as the vote
    /// signature and as material for main-vote justifications).
    pub share: SignatureShare,
}

/// Justification attached to a main-vote.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MainVoteJust<E> {
    /// For a bit vote: threshold signature over a core quorum of
    /// pre-votes for that bit this round.
    Value(ThresholdSignature),
    /// For an abstention: one justified pre-vote for each bit.
    Abstain(Box<PreVote<E>>, Box<PreVote<E>>),
}

/// A justified main-vote.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MainVote<E> {
    /// Round number.
    pub round: u64,
    /// The vote.
    pub vote: MainVoteValue,
    /// Why this vote is admissible.
    pub just: MainVoteJust<E>,
    /// Signature share on `main(round, vote)`.
    pub share: SignatureShare,
}

/// ABBA wire messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AbbaMessage<E> {
    /// A pre-vote.
    PreVote(PreVote<E>),
    /// A main-vote.
    MainVote(MainVote<E>),
    /// A share of the round's threshold coin.
    Coin {
        /// Round the coin belongs to.
        round: u64,
        /// The coin share.
        share: CoinShare,
    },
    /// A transferable decision proof (threshold signature on a core
    /// quorum of unanimous main-votes).
    Decided {
        /// Deciding round.
        round: u64,
        /// The decided bit.
        value: bool,
        /// Core-quorum threshold signature on `main(round, value)`.
        proof: ThresholdSignature,
    },
}

impl<E> WireKind for AbbaMessage<E> {
    fn kind(&self) -> &'static str {
        match self {
            AbbaMessage::PreVote(_) => "pre_vote",
            AbbaMessage::MainVote(_) => "main_vote",
            AbbaMessage::Coin { .. } => "coin",
            AbbaMessage::Decided { .. } => "decided",
        }
    }
}

#[derive(Debug)]
struct RoundState<E> {
    // Pre-vote bookkeeping (first pre-vote per party). Justifications
    // are checked on arrival; the votes' own signature shares are
    // batch-verified only once a candidate core quorum exists, so
    // `prevote_parties` counts structurally accepted votes.
    prevote_parties: PartySet,
    prevote_by_value: [PartySet; 2],
    prevotes: [BatchedShares<PreVote<E>>; 2],
    // Main-vote bookkeeping (same lazy-share discipline).
    mainvote_parties: PartySet,
    mainvote_by_value: [PartySet; 3],
    mainvotes: [BatchedShares<SignatureShare>; 3],
    /// First valid bit main-vote's justification (pre-vote tsig), reused
    /// as the hard justification for the next round. The tsig itself is
    /// verified on arrival, so it stays usable even if its sender's own
    /// vote share is later culled.
    value_just: Option<(bool, ThresholdSignature)>,
    // Coin bookkeeping (one share per party; proofs batch-verified once
    // a qualified holder set exists).
    coin: BatchedShares<CoinShare>,
    coin_value: Option<CoinValue>,
    coin_share_sent: bool,
    // Phase flags.
    my_mainvote_sent: bool,
    main_quorum_done: bool,
    /// Set when the all-abstain quorum fired but the coin is not yet
    /// known; carries the abstain tsig for the coin justification.
    awaiting_coin: Option<ThresholdSignature>,
    /// Messages whose coin-justification cannot be checked yet. Bounded
    /// to [`PENDING_JUST_CAP`] entries per party.
    pending_coin_just: Vec<(PartyId, AbbaMessage<E>)>,
}

/// Per-party cap on deferred coin-justified messages per round. A party
/// legitimately defers at most one pre-vote per value plus one main-vote
/// whose justification embeds deferred pre-votes; anything beyond that
/// is a flooding attempt and is dropped.
const PENDING_JUST_CAP: usize = 4;

impl<E> Default for RoundState<E> {
    fn default() -> Self {
        RoundState {
            prevote_parties: PartySet::new(),
            prevote_by_value: [PartySet::new(), PartySet::new()],
            prevotes: [BatchedShares::new(), BatchedShares::new()],
            mainvote_parties: PartySet::new(),
            mainvote_by_value: [PartySet::new(), PartySet::new(), PartySet::new()],
            mainvotes: [
                BatchedShares::new(),
                BatchedShares::new(),
                BatchedShares::new(),
            ],
            value_just: None,
            coin: BatchedShares::new(),
            coin_value: None,
            coin_share_sent: false,
            my_mainvote_sent: false,
            main_quorum_done: false,
            awaiting_coin: None,
            pending_coin_just: Vec::new(),
        }
    }
}

impl<E> RoundState<E> {
    /// A fresh round whose share trackers inherit the instance-wide
    /// culprit set, so a sender attributed in an earlier round is
    /// rejected on arrival instead of re-verified.
    fn with_bans(banned: PartySet) -> Self {
        RoundState {
            prevotes: [
                BatchedShares::with_bans(banned),
                BatchedShares::with_bans(banned),
            ],
            mainvotes: [
                BatchedShares::with_bans(banned),
                BatchedShares::with_bans(banned),
                BatchedShares::with_bans(banned),
            ],
            coin: BatchedShares::with_bans(banned),
            ..Self::default()
        }
    }
}

/// Pluggable evidence validator for biased instances.
pub type EvidenceCheck<E> = Arc<dyn Fn(&E) -> bool + Send + Sync>;

/// One binary-agreement instance at one party.
///
/// Drive with [`propose`](Abba::propose) and
/// [`on_message`](Abba::on_message); the decided bit is returned once.
/// The type parameter `E` is the evidence attached to round-1 pre-votes
/// for 1 in biased mode; plain instances use `E = ()`.
pub struct Abba<E = ()> {
    tag: Tag,
    me: PartyId,
    n: usize,
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    /// `Some(check)` = biased mode.
    one_evidence: Option<EvidenceCheck<E>>,
    round: u64,
    started: bool,
    decided: Option<bool>,
    decision_sent: bool,
    rounds: BTreeMap<u64, RoundState<E>>,
    /// Instance-wide culprit cache: every party attributed by any batch
    /// settlement in any round. New rounds seed their trackers from this
    /// set, so a spamming Byzantine sender costs O(1) rejection per
    /// later share instead of a per-round full re-verify.
    instance_banned: PartySet,
}

impl<E> core::fmt::Debug for Abba<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Abba")
            .field("tag", &self.tag)
            .field("me", &self.me)
            .field("round", &self.round)
            .field("decided", &self.decided)
            .field("biased", &self.one_evidence.is_some())
            .finish()
    }
}

impl<E: Clone + core::fmt::Debug> Abba<E> {
    /// Number of parties in the group.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Creates an unbiased instance under `tag` (round-1 pre-votes carry
    /// no evidence).
    pub fn new(tag: Tag, public: Arc<PublicParameters>, bundle: Arc<ServerKeyBundle>) -> Self {
        Self::build(tag, public, bundle, None)
    }

    /// Creates a *biased* instance: round-1 pre-votes for 1 must carry
    /// evidence accepted by `check`.
    pub fn new_biased(
        tag: Tag,
        public: Arc<PublicParameters>,
        bundle: Arc<ServerKeyBundle>,
        check: EvidenceCheck<E>,
    ) -> Self {
        Self::build(tag, public, bundle, Some(check))
    }

    fn build(
        tag: Tag,
        public: Arc<PublicParameters>,
        bundle: Arc<ServerKeyBundle>,
        one_evidence: Option<EvidenceCheck<E>>,
    ) -> Self {
        Abba {
            tag,
            me: bundle.party(),
            n: public.n(),
            public,
            bundle,
            one_evidence,
            round: 0,
            started: false,
            decided: None,
            decision_sent: false,
            rounds: BTreeMap::new(),
            instance_banned: PartySet::new(),
        }
    }

    /// The decided value, if any.
    pub fn decision(&self) -> Option<bool> {
        self.decided
    }

    /// The current round (0 before [`propose`](Self::propose); rounds are
    /// 1-based). Exposed for the round-count experiments.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Parties attributed as culprits by any quorum-time batch
    /// settlement so far — a share of theirs (pre-vote, main-vote, or
    /// coin) failed cryptographic verification during the per-share
    /// fallback. Exposed so fault-injection campaigns can assert that
    /// attribution blames only corrupted parties.
    pub fn banned_parties(&self) -> PartySet {
        let mut banned = self.instance_banned;
        for rs in self.rounds.values() {
            for tracker in &rs.prevotes {
                banned = banned.union(tracker.banned());
            }
            for tracker in &rs.mainvotes {
                banned = banned.union(tracker.banned());
            }
            banned = banned.union(rs.coin.banned());
        }
        banned
    }

    fn pre_msg(&self, round: u64, value: bool) -> Vec<u8> {
        self.tag
            .message(&[b"pre", &round.to_be_bytes(), &[value as u8]])
    }

    fn main_msg(&self, round: u64, vote: MainVoteValue) -> Vec<u8> {
        self.tag
            .message(&[b"main", &round.to_be_bytes(), &[vote.code()]])
    }

    fn coin_name(&self, round: u64) -> Vec<u8> {
        self.tag.message(&[b"coin", &round.to_be_bytes()])
    }

    /// Whether a share over `pre(round, value)` equals one this party's
    /// round tracker already verified: a certificate signature that
    /// matches it needs no second check.
    fn known_prevote(&self, round: u64, value: bool) -> impl Fn(&SignatureShare) -> bool + '_ {
        let verified = self
            .rounds
            .get(&round)
            .map(|rs| rs.prevotes[value as usize].verified());
        move |s| {
            verified
                .and_then(|v| v.get(&s.party()))
                .is_some_and(|pv| pv.share == *s)
        }
    }

    /// [`known_prevote`](Self::known_prevote) for `main(round, vote)`.
    fn known_mainvote(
        &self,
        round: u64,
        vote: MainVoteValue,
    ) -> impl Fn(&SignatureShare) -> bool + '_ {
        let verified = self
            .rounds
            .get(&round)
            .map(|rs| rs.mainvotes[vote.code() as usize].verified());
        move |s| verified.and_then(|v| v.get(&s.party())) == Some(s)
    }

    /// Starts the instance with the party's input bit (no evidence;
    /// biased instances reject a 1-input this way).
    ///
    /// # Panics
    ///
    /// Panics on double-propose, or when proposing 1 without evidence in
    /// a biased instance.
    pub fn propose(
        &mut self,
        value: bool,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        assert!(
            !(value && self.one_evidence.is_some()),
            "biased instances require propose_with_evidence for a 1-input"
        );
        self.propose_inner(value, None, rng, out)
    }

    /// Starts a biased instance with input 1 and its evidence.
    ///
    /// # Panics
    ///
    /// Panics on double-propose or when the instance is not biased.
    pub fn propose_with_evidence(
        &mut self,
        evidence: E,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        assert!(
            self.one_evidence.is_some(),
            "evidence only applies to biased instances"
        );
        self.propose_inner(true, Some(evidence), rng, out)
    }

    fn propose_inner(
        &mut self,
        value: bool,
        evidence: Option<E>,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        assert!(!self.started, "propose may be called only once");
        self.started = true;
        self.round = 1;
        self.send_prevote(1, value, PreVoteJust::FirstRound(evidence), rng, out);
        // Messages received before the local input may already form
        // quorums (the network is asynchronous).
        self.progress(rng, out)
    }

    fn send_prevote(
        &mut self,
        round: u64,
        value: bool,
        just: PreVoteJust<E>,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) {
        let to_sign = self.pre_msg(round, value);
        let share = self.bundle.signing_key().sign_share(&to_sign, rng);
        let pv = PreVote {
            round,
            value,
            just,
            share,
        };
        out.broadcast(AbbaMessage::PreVote(pv));
    }

    /// Fully validates a pre-vote (signature share + justification).
    /// Returns `Ok(true)` if valid, `Ok(false)` if invalid, `Err(())` if
    /// the coin needed to check a coin justification is not yet known.
    /// Used for pre-votes embedded in abstain justifications (their
    /// senders are not accountable through the batch path) and by
    /// external callers; top-level arrivals go through
    /// [`validate_prevote_lazy`](Self::validate_prevote_lazy).
    fn validate_prevote(&self, from: PartyId, pv: &PreVote<E>) -> Result<bool, ()> {
        if pv.share.party() != from || pv.round == 0 {
            return Ok(false);
        }
        let to_sign = self.pre_msg(pv.round, pv.value);
        if !self.known_prevote(pv.round, pv.value)(&pv.share)
            && !self.public.signing().verify_share(&to_sign, &pv.share)
        {
            return Ok(false);
        }
        self.validate_prevote_just(pv)
    }

    /// Validates everything about a pre-vote *except* its own signature
    /// share, which is deferred to quorum-time batch verification. The
    /// justification stays eager: it is what makes the vote admissible,
    /// and a bogus justification must not occupy the sender's vote slot.
    fn validate_prevote_lazy(&self, from: PartyId, pv: &PreVote<E>) -> Result<bool, ()> {
        if pv.share.party() != from || pv.round == 0 {
            return Ok(false);
        }
        self.validate_prevote_just(pv)
    }

    fn validate_prevote_just(&self, pv: &PreVote<E>) -> Result<bool, ()> {
        match &pv.just {
            PreVoteJust::FirstRound(evidence) => {
                if pv.round != 1 {
                    return Ok(false);
                }
                match (&self.one_evidence, pv.value, evidence) {
                    // Unbiased: no evidence may be attached.
                    (None, _, None) => Ok(true),
                    (None, _, Some(_)) => Ok(false),
                    // Biased: 1 requires valid evidence, 0 forbids it.
                    (Some(check), true, Some(e)) => Ok(check(e)),
                    (Some(_), false, None) => Ok(true),
                    (Some(_), _, _) => Ok(false),
                }
            }
            PreVoteJust::Hard(sig) => {
                if pv.round < 2 {
                    return Ok(false);
                }
                let prev = self.pre_msg(pv.round - 1, pv.value);
                let known = self.known_prevote(pv.round - 1, pv.value);
                Ok(self
                    .public
                    .signing()
                    .verify(&prev, sig, QuorumRule::Core, known))
            }
            PreVoteJust::Coin(sig) => {
                if pv.round < 2 {
                    return Ok(false);
                }
                let prev = self.main_msg(pv.round - 1, MainVoteValue::Abstain);
                let known = self.known_mainvote(pv.round - 1, MainVoteValue::Abstain);
                if !self
                    .public
                    .signing()
                    .verify(&prev, sig, QuorumRule::Core, known)
                {
                    return Ok(false);
                }
                match self
                    .rounds
                    .get(&(pv.round - 1))
                    .and_then(|rs| rs.coin_value)
                {
                    Some(c) => Ok(c.bit() == pv.value),
                    None => Err(()), // defer until the coin is known
                }
            }
        }
    }

    /// Validates everything about a main-vote *except* its own signature
    /// share (deferred to quorum-time batching). Pre-votes embedded in
    /// an abstain justification are still *fully* verified — they come
    /// from third parties the batch path cannot hold accountable — except
    /// for a share this party's own tracker already verified.
    fn validate_mainvote_lazy(&self, from: PartyId, mv: &MainVote<E>) -> Result<bool, ()> {
        if mv.share.party() != from || mv.round == 0 {
            return Ok(false);
        }
        match (&mv.vote, &mv.just) {
            (MainVoteValue::Abstain, MainVoteJust::Abstain(pv0, pv1)) => {
                if pv0.round != mv.round || pv1.round != mv.round {
                    return Ok(false);
                }
                if pv0.value || !pv1.value {
                    return Ok(false);
                }
                let v0 = self.validate_prevote(pv0.share.party(), pv0)?;
                let v1 = self.validate_prevote(pv1.share.party(), pv1)?;
                Ok(v0 && v1)
            }
            (MainVoteValue::Zero | MainVoteValue::One, MainVoteJust::Value(sig)) => {
                let bit = mv.vote == MainVoteValue::One;
                let pre = self.pre_msg(mv.round, bit);
                let known = self.known_prevote(mv.round, bit);
                Ok(self
                    .public
                    .signing()
                    .verify(&pre, sig, QuorumRule::Core, known))
            }
            _ => Ok(false),
        }
    }

    /// Handles a message; returns the decided bit when the decision
    /// fires at this party.
    pub fn on_message(
        &mut self,
        from: PartyId,
        msg: AbbaMessage<E>,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        if self.decided.is_some() {
            // Halted; decision proof was already broadcast.
            return None;
        }
        if from >= self.n {
            return None; // out-of-range sender
        }
        match msg {
            // A vote from a sender already counted (or banned) for its
            // round would be dropped on record; drop it before its
            // justification costs a verification.
            AbbaMessage::PreVote(pv) if self.prevote_counted(from, pv.round) => None,
            AbbaMessage::MainVote(mv) if self.mainvote_counted(from, mv.round) => None,
            AbbaMessage::PreVote(pv) => match self.validate_prevote_lazy(from, &pv) {
                Ok(true) => {
                    self.record_prevote(from, pv);
                    self.progress(rng, out)
                }
                Ok(false) => None,
                Err(()) => {
                    self.defer_coin_just(from, pv.round, AbbaMessage::PreVote(pv));
                    None
                }
            },
            AbbaMessage::MainVote(mv) => match self.validate_mainvote_lazy(from, &mv) {
                Ok(true) => {
                    self.record_mainvote(from, mv);
                    self.progress(rng, out)
                }
                Ok(false) => None,
                Err(()) => {
                    self.defer_coin_just(from, mv.round, AbbaMessage::MainVote(mv));
                    None
                }
            },
            AbbaMessage::Coin { round, share } => {
                if share.party() != from || round == 0 {
                    return None;
                }
                let rs = self.round_state(round);
                if rs.coin_value.is_some() || !rs.coin.insert(from, share) {
                    return None; // coin known, duplicate, or banned party
                }
                self.try_coin(round, rng, out)
            }
            AbbaMessage::Decided {
                round,
                value,
                proof,
            } => {
                let vote = MainVoteValue::of_bit(value);
                let main = self.main_msg(round, vote);
                let known = self.known_mainvote(round, vote);
                if !self
                    .public
                    .signing()
                    .verify(&main, &proof, QuorumRule::Core, known)
                {
                    return None;
                }
                self.decide(round, value, proof, out)
            }
        }
    }

    /// Buffers a message whose coin justification cannot be checked
    /// until round `round - 1`'s coin is known, with a per-party cap so
    /// a Byzantine party cannot grow the buffer without bound.
    fn defer_coin_just(&mut self, from: PartyId, round: u64, msg: AbbaMessage<E>) {
        let rs = self.round_state(round - 1);
        let held = rs
            .pending_coin_just
            .iter()
            .filter(|(p, _)| *p == from)
            .count();
        if held < PENDING_JUST_CAP {
            rs.pending_coin_just.push((from, msg));
        }
    }

    /// Once a qualified holder set exists, batch-verifies the pending
    /// coin shares and combines the survivors (proofs are *not*
    /// re-checked by the combine — they settled in the batch).
    fn try_coin(
        &mut self,
        round: u64,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        let structure = self.public.structure().clone();
        let name = self.coin_name(round);
        let public = Arc::clone(&self.public);
        let rs = self.round_state(round);
        if rs.coin_value.is_some() || !structure.is_qualified(&rs.coin.holders()) {
            return None;
        }
        let caught = rs
            .coin
            .settle(|batch| public.coin().verify_shares(&name, batch, rng));
        for culprit in caught {
            self.ban_party(culprit);
        }
        let rs = self.round_state(round);
        let shares: Vec<CoinShare> = rs.coin.verified().values().cloned().collect();
        let value = self.public.coin().combine_preverified(&name, &shares)?;
        let rs = self.round_state(round);
        rs.coin_value = Some(value);
        // Re-inject deferred messages that waited on this coin.
        let pending = core::mem::take(&mut rs.pending_coin_just);
        for (p_from, p_msg) in pending {
            if let Some(d) = self.on_message(p_from, p_msg, rng, out) {
                return Some(d);
            }
        }
        self.progress(rng, out)
    }

    /// Whether `from` has a pre-vote counted in `round` or is banned —
    /// the first pre-vote per party counts, culprits are out.
    fn prevote_counted(&self, from: PartyId, round: u64) -> bool {
        self.instance_banned.contains(from)
            || self.rounds.get(&round).is_some_and(|rs| {
                rs.prevote_parties.contains(from)
                    || rs.prevotes.iter().any(|t| t.banned().contains(from))
            })
    }

    /// [`prevote_counted`](Self::prevote_counted) for main-votes.
    fn mainvote_counted(&self, from: PartyId, round: u64) -> bool {
        self.instance_banned.contains(from)
            || self.rounds.get(&round).is_some_and(|rs| {
                rs.mainvote_parties.contains(from)
                    || rs.mainvotes.iter().any(|t| t.banned().contains(from))
            })
    }

    /// Counts a validated pre-vote; `on_message` has already dropped one
    /// whose sender [`prevote_counted`](Self::prevote_counted).
    fn record_prevote(&mut self, from: PartyId, pv: PreVote<E>) {
        let rs = self.round_state(pv.round);
        let idx = pv.value as usize;
        if rs.prevotes[idx].insert(from, pv) {
            rs.prevote_parties.insert(from);
            rs.prevote_by_value[idx].insert(from);
        }
    }

    /// Counts a validated main-vote (see
    /// [`record_prevote`](Self::record_prevote)).
    fn record_mainvote(&mut self, from: PartyId, mv: MainVote<E>) {
        let rs = self.round_state(mv.round);
        let idx = mv.vote.code() as usize;
        if !rs.mainvotes[idx].insert(from, mv.share) {
            return;
        }
        rs.mainvote_parties.insert(from);
        rs.mainvote_by_value[idx].insert(from);
        if rs.value_just.is_none() {
            if let (MainVoteValue::Zero | MainVoteValue::One, MainVoteJust::Value(sig)) =
                (&mv.vote, &mv.just)
            {
                rs.value_just = Some((mv.vote == MainVoteValue::One, sig.clone()));
            }
        }
    }

    /// Runs all quorum checks for the current round until nothing fires.
    fn progress(&mut self, rng: &mut SeededRng, out: &mut Outbox<AbbaMessage<E>>) -> Option<bool> {
        loop {
            if !self.started || self.decided.is_some() {
                return None;
            }
            let round = self.round;
            if let Some(d) = self.try_mainvote_phase(round, rng, out) {
                return Some(d);
            }
            if let Some(d) = self.try_decision_phase(round, rng, out) {
                return Some(d);
            }
            if self.round == round {
                return None; // no transition fired
            }
        }
    }

    /// Pre-vote quorum → settle the batch → send main-vote + coin share.
    fn try_mainvote_phase(
        &mut self,
        round: u64,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        let structure = self.public.structure().clone();
        {
            let rs = self.round_state(round);
            if rs.my_mainvote_sent || !structure.is_core(&rs.prevote_parties) {
                return None;
            }
        }
        // A candidate core quorum exists: batch-verify the deferred
        // signature shares (one multi-exp per value class), cull any
        // culprits, and only proceed if the survivors still form a core.
        let msgs = [self.pre_msg(round, false), self.pre_msg(round, true)];
        let public = Arc::clone(&self.public);
        let rs = self.rounds.get_mut(&round).unwrap();
        let mut caught = Vec::new();
        for (idx, msg) in msgs.iter().enumerate() {
            let culprits = rs.prevotes[idx].settle(|batch| {
                let shares: Vec<SignatureShare> = batch.iter().map(|pv| pv.share).collect();
                public.signing().verify_shares(msg, &shares, rng)
            });
            for culprit in culprits {
                rs.prevote_parties.remove(culprit);
                rs.prevote_by_value[idx].remove(culprit);
                caught.push(culprit);
            }
        }
        for culprit in caught {
            self.ban_party(culprit);
        }
        let rs = self.rounds.get_mut(&round).unwrap();
        if !structure.is_core(&rs.prevote_parties) {
            return None; // culling broke the quorum; wait for more votes
        }
        rs.my_mainvote_sent = true;
        let zeros = rs.prevote_by_value[0];
        let ones = rs.prevote_by_value[1];
        let (vote, just) = if ones == rs.prevote_parties || zeros == rs.prevote_parties {
            let bit = ones == rs.prevote_parties;
            let shares: Vec<SignatureShare> = rs.prevotes[bit as usize]
                .verified()
                .values()
                .map(|pv| pv.share)
                .collect();
            let sig = public
                .signing()
                .combine_preverified(&shares, QuorumRule::Core)
                .expect("core quorum of unanimous pre-votes combines");
            (MainVoteValue::of_bit(bit), MainVoteJust::Value(sig))
        } else {
            let pv0 = rs.prevotes[0]
                .verified()
                .values()
                .next()
                .cloned()
                .expect("mixed quorum has a 0");
            let pv1 = rs.prevotes[1]
                .verified()
                .values()
                .next()
                .cloned()
                .expect("mixed quorum has a 1");
            (
                MainVoteValue::Abstain,
                MainVoteJust::Abstain(Box::new(pv0), Box::new(pv1)),
            )
        };
        let to_sign = self.main_msg(round, vote);
        let share = self.bundle.signing_key().sign_share(&to_sign, rng);
        out.broadcast(AbbaMessage::MainVote(MainVote {
            round,
            vote,
            just,
            share,
        }));
        // Release the round's coin share alongside the main-vote.
        let rs = self.round_state(round);
        if !rs.coin_share_sent {
            rs.coin_share_sent = true;
            let name = self.coin_name(round);
            let coin_share = self.bundle.coin_key().share(&name, rng);
            out.broadcast(AbbaMessage::Coin {
                round,
                share: coin_share,
            });
        }
        None
    }

    /// Main-vote quorum → decide / hard pre-vote / coin pre-vote.
    fn try_decision_phase(
        &mut self,
        round: u64,
        rng: &mut SeededRng,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        let structure = self.public.structure().clone();
        {
            let rs = self.round_state(round);
            if !rs.my_mainvote_sent || !structure.is_core(&rs.mainvote_parties) {
                return None;
            }
        }
        // Case 1: awaiting the coin from a previously fired all-abstain
        // quorum.
        let awaiting = self.rounds[&round].awaiting_coin.clone();
        if let Some(abstain_sig) = awaiting {
            let coin = self.rounds[&round].coin_value;
            if let Some(c) = coin {
                self.rounds.get_mut(&round).unwrap().awaiting_coin = None;
                self.round = round + 1;
                self.send_prevote(round + 1, c.bit(), PreVoteJust::Coin(abstain_sig), rng, out);
            }
            return None;
        }
        if self.rounds[&round].main_quorum_done {
            return None;
        }
        // A candidate core quorum of main-votes exists: settle the
        // deferred signature shares (one batch per vote class) before
        // committing to the quorum.
        let msgs = [
            self.main_msg(round, MainVoteValue::Zero),
            self.main_msg(round, MainVoteValue::One),
            self.main_msg(round, MainVoteValue::Abstain),
        ];
        let public = Arc::clone(&self.public);
        let rs = self.rounds.get_mut(&round).unwrap();
        let mut caught = Vec::new();
        for (idx, msg) in msgs.iter().enumerate() {
            let culprits =
                rs.mainvotes[idx].settle(|batch| public.signing().verify_shares(msg, batch, rng));
            for culprit in culprits {
                rs.mainvote_parties.remove(culprit);
                rs.mainvote_by_value[idx].remove(culprit);
                caught.push(culprit);
            }
        }
        for culprit in caught {
            self.ban_party(culprit);
        }
        let rs = self.rounds.get_mut(&round).unwrap();
        if !structure.is_core(&rs.mainvote_parties) {
            return None; // culling broke the quorum; wait for more votes
        }
        rs.main_quorum_done = true;

        let all = rs.mainvote_parties;
        let ones = rs.mainvote_by_value[1];
        let zeros = rs.mainvote_by_value[0];
        if ones == all || zeros == all {
            // Unanimous bit quorum: decide.
            let bit = ones == all;
            let shares: Vec<SignatureShare> = rs.mainvotes[bit as usize]
                .verified()
                .values()
                .cloned()
                .collect();
            let proof = public
                .signing()
                .combine_preverified(&shares, QuorumRule::Core)
                .expect("unanimous core main-vote quorum combines");
            return self.decide(round, bit, proof, out);
        }
        if !ones.is_empty() || !zeros.is_empty() {
            // Mixed: carry the seen bit with its hard justification.
            let (bit, sig) = self.rounds[&round]
                .value_just
                .clone()
                .expect("a bit main-vote was recorded with its justification");
            self.round = round + 1;
            self.send_prevote(round + 1, bit, PreVoteJust::Hard(sig), rng, out);
            return None;
        }
        // All abstain: pre-vote the coin.
        let abstain_shares: Vec<SignatureShare> = self.rounds[&round].mainvotes[2]
            .verified()
            .values()
            .cloned()
            .collect();
        let abstain_sig = public
            .signing()
            .combine_preverified(&abstain_shares, QuorumRule::Core)
            .expect("all-abstain core quorum combines");
        let coin = self.rounds[&round].coin_value;
        match coin {
            Some(c) => {
                self.round = round + 1;
                self.send_prevote(round + 1, c.bit(), PreVoteJust::Coin(abstain_sig), rng, out);
            }
            None => {
                self.rounds.get_mut(&round).unwrap().awaiting_coin = Some(abstain_sig);
            }
        }
        None
    }

    /// The round's state, created on first touch with the instance-wide
    /// culprit set pre-seeded into every share tracker.
    fn round_state(&mut self, round: u64) -> &mut RoundState<E> {
        let banned = self.instance_banned;
        self.rounds
            .entry(round)
            .or_insert_with(|| RoundState::with_bans(banned))
    }

    /// Propagates a culprit verdict to every round: the party's pending
    /// shares are dropped (with their aux-set membership) and future
    /// shares are rejected on arrival. Already-verified shares stay —
    /// they passed individually and quorums may have been built on them.
    fn ban_party(&mut self, culprit: PartyId) {
        self.instance_banned.insert(culprit);
        for rs in self.rounds.values_mut() {
            for idx in 0..2 {
                if rs.prevotes[idx].ban(culprit) {
                    rs.prevote_parties.remove(culprit);
                    rs.prevote_by_value[idx].remove(culprit);
                }
            }
            for idx in 0..3 {
                if rs.mainvotes[idx].ban(culprit) {
                    rs.mainvote_parties.remove(culprit);
                    rs.mainvote_by_value[idx].remove(culprit);
                }
            }
            rs.coin.ban(culprit);
        }
    }

    fn decide(
        &mut self,
        round: u64,
        value: bool,
        proof: ThresholdSignature,
        out: &mut Outbox<AbbaMessage<E>>,
    ) -> Option<bool> {
        if self.decided.is_some() {
            return None;
        }
        self.decided = Some(value);
        if !self.decision_sent {
            self.decision_sent = true;
            out.broadcast(AbbaMessage::Decided {
                round,
                value,
                proof,
            });
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::contexts;
    use sintra_adversary::structure::TrustStructure;
    use sintra_crypto::dealer::Dealer;
    use sintra_net::protocol::{Effects, Protocol};
    use sintra_net::sim::{Behavior, LifoScheduler, RandomScheduler, Simulation};

    type Msg = AbbaMessage<()>;

    #[derive(Debug)]
    pub struct AbbaNode {
        abba: Abba<()>,
        rng: SeededRng,
    }

    impl Protocol for AbbaNode {
        type Message = Msg;
        type Input = bool;
        type Output = bool;

        fn on_input(&mut self, input: bool, fx: &mut Effects<Msg, bool>) {
            let mut out = Outbox::new(self.abba.n());
            if let Some(d) = self.abba.propose(input, &mut self.rng, &mut out) {
                fx.output(d);
            }
            for (to, m) in out {
                fx.send(to, m);
            }
        }

        fn on_message(&mut self, from: PartyId, msg: Msg, fx: &mut Effects<Msg, bool>) {
            let mut out = Outbox::new(self.abba.n());
            if let Some(d) = self.abba.on_message(from, msg, &mut self.rng, &mut out) {
                fx.output(d);
            }
            for (to, m) in out {
                fx.send(to, m);
            }
        }
    }

    pub fn nodes(n: usize, t: usize, seed: u64) -> Vec<AbbaNode> {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(seed);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        contexts(public, bundles, seed)
            .into_iter()
            .map(|c| AbbaNode {
                abba: Abba::new(
                    Tag::root("abba-test"),
                    Arc::new(c.public().clone()),
                    Arc::new(c.bundle().clone()),
                ),
                rng: c.rng.clone(),
            })
            .collect()
    }

    fn check_agreement(
        sim: &Simulation<AbbaNode, impl sintra_net::sim::Scheduler<Msg>>,
        honest: &[usize],
    ) -> bool {
        let decisions: Vec<bool> = honest
            .iter()
            .filter_map(|p| sim.outputs(*p).first().copied())
            .collect();
        assert_eq!(
            decisions.len(),
            honest.len(),
            "every honest party must decide"
        );
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "agreement violated: {decisions:?}"
        );
        decisions[0]
    }

    #[test]
    fn unanimous_one_decides_one_fast() {
        let mut sim = Simulation::builder(nodes(4, 1, 1), RandomScheduler)
            .seed(2)
            .build();
        for p in 0..4 {
            sim.input(p, true);
        }
        sim.run_until_quiet(1_000_000);
        assert!(
            check_agreement(&sim, &[0, 1, 2, 3]),
            "validity: all-1 input decides 1"
        );
        // Fast path: decision in round 1.
        for p in 0..4 {
            assert!(sim.node(p).is_none_or(|n| n.abba.round() <= 2));
        }
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let mut sim = Simulation::builder(nodes(4, 1, 3), RandomScheduler)
            .seed(4)
            .build();
        for p in 0..4 {
            sim.input(p, false);
        }
        sim.run_until_quiet(1_000_000);
        assert!(!check_agreement(&sim, &[0, 1, 2, 3]));
    }

    #[test]
    fn mixed_inputs_agree() {
        for seed in 0..10u64 {
            let mut sim = Simulation::builder(nodes(4, 1, seed), RandomScheduler)
                .seed(1000 + seed)
                .build();
            sim.input(0, false);
            sim.input(1, true);
            sim.input(2, false);
            sim.input(3, true);
            sim.run_until_quiet(1_000_000);
            check_agreement(&sim, &[0, 1, 2, 3]);
        }
    }

    #[test]
    fn mixed_inputs_agree_under_lifo() {
        for seed in 0..5u64 {
            let mut sim = Simulation::builder(nodes(4, 1, 50 + seed), LifoScheduler)
                .seed(2000 + seed)
                .build();
            sim.input(0, true);
            sim.input(1, false);
            sim.input(2, true);
            sim.input(3, false);
            sim.run_until_quiet(1_000_000);
            check_agreement(&sim, &[0, 1, 2, 3]);
        }
    }

    #[test]
    fn tolerates_crash_fault() {
        for seed in 0..5u64 {
            let mut sim = Simulation::builder(nodes(4, 1, 90 + seed), RandomScheduler)
                .seed(3000 + seed)
                .build();
            sim.corrupt(3, Behavior::Crash);
            sim.input(0, true);
            sim.input(1, false);
            sim.input(2, true);
            sim.run_until_quiet(1_000_000);
            check_agreement(&sim, &[0, 1, 2]);
        }
    }

    #[test]
    fn larger_system_with_crashes() {
        let mut sim = Simulation::builder(nodes(7, 2, 7), RandomScheduler)
            .seed(8)
            .build();
        sim.corrupt(5, Behavior::Crash);
        sim.corrupt(6, Behavior::Crash);
        for p in 0..5 {
            sim.input(p, p % 2 == 0);
        }
        sim.run_until_quiet(5_000_000);
        check_agreement(&sim, &[0, 1, 2, 3, 4]);
    }

    /// Runs four nodes on all-1 inputs under a FIFO queue, delivering the
    /// first main-vote node 0 receives from a peer `copies` times;
    /// returns the decisions and the aggregate checks, and signatures in
    /// them, that those deliveries cost. With `fresh_signer`, one
    /// signature of that main-vote's justification is swapped for a fresh
    /// share by the same signer over the same pre-vote, which node 0 has
    /// not verified; every other signature is one node 0 has.
    fn fifo_run_duplicating_a_main_vote(
        copies: usize,
        fresh_signer: bool,
    ) -> (Vec<Option<bool>>, (u64, u64)) {
        let mut nodes = nodes(4, 1, 61);
        let mut queue: std::collections::VecDeque<(PartyId, PartyId, Msg)> =
            std::collections::VecDeque::new();
        let mut decisions = vec![None; 4];
        let mut step = |nodes: &mut Vec<AbbaNode>,
                        queue: &mut std::collections::VecDeque<(PartyId, PartyId, Msg)>,
                        p: PartyId,
                        m: Option<(PartyId, Msg)>| {
            let node = &mut nodes[p];
            let mut out = Outbox::new(4);
            let d = match m {
                None => node.abba.propose(true, &mut node.rng, &mut out),
                Some((from, m)) => node.abba.on_message(from, m, &mut node.rng, &mut out),
            };
            if d.is_some() {
                decisions[p] = d;
            }
            queue.extend(out.into_iter().map(|(to, m)| (to, p, m)));
        };
        for p in 0..4 {
            step(&mut nodes, &mut queue, p, None);
        }
        let mut cost = None;
        while let Some((to, from, mut m)) = queue.pop_front() {
            if cost.is_none() && to == 0 && from != 0 && matches!(m, AbbaMessage::MainVote(_)) {
                if fresh_signer {
                    m = with_one_fresh_signature(&mut nodes, m);
                }
                let before = sintra_obs::global::sig_verify_count();
                let sigs_before = sintra_obs::global::sigs_verified_count();
                for _ in 0..copies {
                    step(&mut nodes, &mut queue, to, Some((from, m.clone())));
                }
                cost = Some((
                    sintra_obs::global::sig_verify_count() - before,
                    sintra_obs::global::sigs_verified_count() - sigs_before,
                ));
                continue;
            }
            step(&mut nodes, &mut queue, to, Some((from, m)));
        }
        (decisions, cost.expect("node 0 received a peer's main-vote"))
    }

    /// Rebuilds a bit main-vote's justification from node 0's verified
    /// pre-vote shares, except for its last signer, whose share is signed
    /// afresh (so it is valid but new to node 0).
    fn with_one_fresh_signature(nodes: &mut [AbbaNode], m: Msg) -> Msg {
        let AbbaMessage::MainVote(mut mv) = m else {
            unreachable!("called on a main-vote")
        };
        let MainVoteJust::Value(cert) = &mv.just else {
            panic!("an all-1 run main-votes a bit")
        };
        let bit = mv.vote == MainVoteValue::One;
        let fresh = cert.signers().iter().last().expect("a core quorum signs");
        let pre = nodes[0].abba.pre_msg(mv.round, bit);
        let node = &mut nodes[fresh];
        let new_share = node
            .abba
            .bundle
            .signing_key()
            .sign_share(&pre, &mut node.rng);
        let verified = nodes[0].abba.rounds[&mv.round].prevotes[bit as usize].verified();
        let shares: Vec<SignatureShare> = cert
            .signers()
            .iter()
            .map(|p| {
                if p == fresh {
                    new_share
                } else {
                    verified[&p].share
                }
            })
            .collect();
        let cert = nodes[0]
            .abba
            .public
            .signing()
            .combine_preverified(&shares, QuorumRule::Core)
            .expect("the same signer set");
        mv.just = MainVoteJust::Value(cert);
        AbbaMessage::MainVote(mv)
    }

    #[test]
    fn duplicated_main_vote_costs_one_justification_check() {
        let (plain, plain_cost) = fifo_run_duplicating_a_main_vote(1, false);
        let (once, one_check) = fifo_run_duplicating_a_main_vote(1, true);
        let (fifty, fifty_checks) = fifo_run_duplicating_a_main_vote(50, true);
        assert_eq!(
            plain_cost,
            (0, 0),
            "node 0 verified every pre-vote share in the justification"
        );
        assert_eq!(one_check, (1, 1), "one new signature is one check");
        assert_eq!(
            fifty_checks, one_check,
            "49 copies are dropped before validation"
        );
        assert_eq!(once, vec![Some(true); 4]);
        assert_eq!(plain, once, "same decisions");
        assert_eq!(fifty, once, "same decisions");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Round-1 certificates checked by a party that already verified
        /// a random subset of the round's pre-vote and main-vote shares
        /// give the memo-free verdict (`verify` with nothing known), and
        /// batch exactly the signatures the trackers do not hold. Kinds:
        /// 0 `Value`, 1 `Hard`, 2 `Coin`, 3 `Decided`, 4 `Abstain` (its
        /// embedded pre-vote for 1 is the certificate's first signer's).
        /// Cases: 0 the subset as is, 1 every signature known, 2 one
        /// signer's share fresh (valid, unknown), 3 one signature forged.
        #[test]
        fn certificates_match_memo_free_oracle(
            seed in proptest::arbitrary::any::<u64>(),
            big in proptest::arbitrary::any::<bool>(),
            kind in 0usize..5,
            case in 0usize..4,
            known_mask in proptest::arbitrary::any::<u64>(),
        ) {
            let (n, t) = if big { (10, 3) } else { (4, 1) };
            let mut nodes = nodes(n, t, seed);
            let mut rng = SeededRng::new(seed);
            let abstain = nodes[0].abba.main_msg(1, MainVoteValue::Abstain);
            let (msg, vote) = match kind {
                2 => (abstain.clone(), MainVoteValue::Abstain),
                3 => (nodes[0].abba.main_msg(1, MainVoteValue::One), MainVoteValue::One),
                _ => (nodes[0].abba.pre_msg(1, true), MainVoteValue::One),
            };
            let sign = |nodes: &[AbbaNode], p: usize, m: &[u8], rng: &mut SeededRng| {
                nodes[p].abba.bundle.signing_key().sign_share(m, rng)
            };
            let signers: Vec<PartyId> = (0..n - t).collect();
            let i = signers[rng.next_u64() as usize % signers.len()];
            let known = |p: usize| match case {
                1 => true,
                2 if p == i => false,
                _ => known_mask >> p & 1 == 1,
            };
            // Node 0's round-1 trackers hold the known parties' shares.
            let mut shares = Vec::new();
            for &p in &signers {
                let share = sign(&nodes, p, &msg, &mut rng);
                shares.push(share);
                if !known(p) {
                    continue;
                }
                let rs = nodes[0].abba.round_state(1);
                if kind == 2 || kind == 3 {
                    rs.mainvotes[vote.code() as usize].insert(p, share);
                } else {
                    let just = PreVoteJust::FirstRound(None);
                    let pv = PreVote { round: 1, value: true, just, share };
                    rs.prevotes[1].insert(p, pv);
                }
            }
            let public = Arc::clone(&nodes[0].abba.public);
            let rs = nodes[0].abba.round_state(1);
            for tracker in rs.prevotes.iter_mut() {
                tracker.settle(|_| Ok(()));
            }
            for tracker in rs.mainvotes.iter_mut() {
                tracker.settle(|_| Ok(()));
            }
            let at = signers.iter().position(|&p| p == i).unwrap();
            match case {
                2 => shares[at] = sign(&nodes, i, &msg, &mut rng),
                3 => {
                    let mut bytes = shares[at].to_bytes();
                    bytes[67] ^= 1;
                    shares[at] = SignatureShare::from_bytes(&bytes).unwrap();
                }
                _ => {}
            }
            let unknown = signers
                .iter()
                .filter(|&&p| !known(p) || (case == 3 && p == i))
                .count() as u64;
            let cert = public.signing().combine_preverified(&shares, QuorumRule::Core).unwrap();
            let oracle = public.signing().verify(&msg, &cert, QuorumRule::Core, |_| false);
            proptest::prop_assert_eq!(oracle, case != 3);
            let abba = &mut nodes[0].abba;
            let mut out = Outbox::new(n);
            let before = sintra_obs::global::sigs_verified_count();
            let verdict = match kind {
                0 => {
                    let just = MainVoteJust::Value(cert);
                    let share = shares[0];
                    let mv = MainVote { round: 1, vote: MainVoteValue::One, just, share };
                    abba.validate_mainvote_lazy(signers[0], &mv) == Ok(true)
                }
                1 | 2 => {
                    let just = if kind == 1 { PreVoteJust::Hard(cert) } else { PreVoteJust::Coin(cert) };
                    let pv = PreVote { round: 2, value: true, just, share: shares[0] };
                    // A valid coin justification waits for the coin.
                    abba.validate_prevote_just(&pv) != Ok(false)
                }
                3 => {
                    let m = AbbaMessage::Decided { round: 1, value: true, proof: cert };
                    abba.on_message(1, m, &mut rng, &mut out) == Some(true)
                }
                _ => {
                    let zero = abba.pre_msg(1, false);
                    let pv0 = PreVote {
                        round: 1,
                        value: false,
                        just: PreVoteJust::FirstRound(None),
                        share: abba.bundle.signing_key().sign_share(&zero, &mut rng),
                    };
                    let pv1 = PreVote {
                        round: 1,
                        value: true,
                        just: PreVoteJust::FirstRound(None),
                        share: shares[at],
                    };
                    let just = MainVoteJust::Abstain(Box::new(pv0), Box::new(pv1));
                    let share = abba.bundle.signing_key().sign_share(&abstain, &mut rng);
                    let mv = MainVote { round: 1, vote: MainVoteValue::Abstain, just, share };
                    abba.validate_mainvote_lazy(0, &mv) == Ok(true)
                }
            };
            proptest::prop_assert_eq!(verdict, oracle);
            if kind != 4 {
                proptest::prop_assert_eq!(sintra_obs::global::sigs_verified_count() - before, unknown);
            }
        }
    }

    #[test]
    fn verified_shares_are_known_only_for_their_own_message() {
        // Node 0 verified everyone's round-1 pre-vote for 1 and main-vote
        // for 1. Their certificates relabelled to the other bit, or to
        // another round, must still fail.
        let mut nodes = nodes(4, 1, 62);
        let mut rng = SeededRng::new(63);
        let pre1 = nodes[0].abba.pre_msg(1, true);
        let main1 = nodes[0].abba.main_msg(1, MainVoteValue::One);
        let pre_shares: Vec<SignatureShare> = (0..4)
            .map(|p| {
                nodes[p]
                    .abba
                    .bundle
                    .signing_key()
                    .sign_share(&pre1, &mut rng)
            })
            .collect();
        let main_shares: Vec<SignatureShare> = (0..4)
            .map(|p| {
                nodes[p]
                    .abba
                    .bundle
                    .signing_key()
                    .sign_share(&main1, &mut rng)
            })
            .collect();
        let abba = &mut nodes[0].abba;
        let rs = abba.round_state(1);
        for (p, share) in pre_shares.iter().enumerate() {
            let just = PreVoteJust::FirstRound(None);
            let pv = PreVote {
                round: 1,
                value: true,
                just,
                share: *share,
            };
            rs.prevotes[1].insert(p, pv);
            rs.mainvotes[1].insert(p, main_shares[p]);
        }
        rs.prevotes[1].settle(|_| Ok(()));
        rs.mainvotes[1].settle(|_| Ok(()));
        let signing = abba.public.signing().clone();
        let pre_cert = signing
            .combine_preverified(&pre_shares, QuorumRule::Core)
            .unwrap();
        let main_cert = signing
            .combine_preverified(&main_shares, QuorumRule::Core)
            .unwrap();
        let zero = MainVote {
            round: 1,
            vote: MainVoteValue::Zero,
            just: MainVoteJust::Value(pre_cert.clone()),
            share: main_shares[0],
        };
        assert_eq!(abba.validate_mainvote_lazy(0, &zero), Ok(false));
        let hard = PreVote {
            round: 3,
            value: true,
            just: PreVoteJust::Hard(pre_cert),
            share: pre_shares[0],
        };
        assert_eq!(abba.validate_prevote_just(&hard), Ok(false));
        let coin = PreVote {
            round: 2,
            value: true,
            just: PreVoteJust::Coin(main_cert.clone()),
            share: pre_shares[0],
        };
        assert_eq!(abba.validate_prevote_just(&coin), Ok(false));
        let decided = AbbaMessage::Decided {
            round: 1,
            value: false,
            proof: main_cert,
        };
        assert_eq!(
            abba.on_message(1, decided, &mut rng, &mut Outbox::new(4)),
            None
        );
    }

    #[test]
    fn byzantine_spam_does_not_break_agreement() {
        // A corrupted party replays garbage versions of whatever it
        // receives.
        for seed in 0..5u64 {
            let mut sim = Simulation::builder(nodes(4, 1, 200 + seed), RandomScheduler)
                .seed(4000 + seed)
                .build();
            sim.corrupt(
                2,
                Behavior::Custom(Box::new(move |_from, msg: Msg, _| {
                    let mut sends: Vec<(PartyId, Msg)> = (0..4).map(|p| (p, msg.clone())).collect();
                    if let AbbaMessage::Decided { proof, .. } = &msg {
                        sends.push((
                            0,
                            AbbaMessage::Decided {
                                round: 1,
                                value: true,
                                proof: proof.clone(),
                            },
                        ));
                    }
                    sends
                })),
            );
            sim.input(0, false);
            sim.input(1, false);
            sim.input(3, false);
            sim.run_until_quiet(1_000_000);
            let v = check_agreement(&sim, &[0, 1, 3]);
            assert!(!v, "validity: unanimous honest 0-input must decide 0");
        }
    }

    #[test]
    fn biased_mode_decides_zero_without_evidence() {
        // Biased instances where nobody can produce evidence must decide
        // 0 even when corrupted parties scream 1.
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(30);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let check: EvidenceCheck<u64> = Arc::new(|e: &u64| *e == 42);
        #[derive(Debug)]
        struct Node {
            abba: Abba<u64>,
            rng: SeededRng,
        }
        impl Protocol for Node {
            type Message = AbbaMessage<u64>;
            type Input = bool;
            type Output = bool;
            fn on_input(&mut self, input: bool, fx: &mut Effects<AbbaMessage<u64>, bool>) {
                let mut out = Outbox::new(self.abba.n());
                if let Some(d) = self.abba.propose(input, &mut self.rng, &mut out) {
                    fx.output(d);
                }
                for (to, m) in out {
                    fx.send(to, m);
                }
            }
            fn on_message(
                &mut self,
                from: PartyId,
                msg: AbbaMessage<u64>,
                fx: &mut Effects<AbbaMessage<u64>, bool>,
            ) {
                let mut out = Outbox::new(self.abba.n());
                if let Some(d) = self.abba.on_message(from, msg, &mut self.rng, &mut out) {
                    fx.output(d);
                }
                for (to, m) in out {
                    fx.send(to, m);
                }
            }
        }
        let nodes: Vec<Node> = bundles
            .iter()
            .map(|b| Node {
                abba: Abba::new_biased(
                    Tag::root("biased"),
                    Arc::clone(&public),
                    Arc::new(b.clone()),
                    Arc::clone(&check),
                ),
                rng: SeededRng::new(31 + b.party() as u64),
            })
            .collect();
        let mut sim = Simulation::builder(nodes, RandomScheduler).seed(32).build();
        // Corrupted party 3 sends round-1 pre-votes for 1 with bogus
        // evidence to everyone.
        let bad_share = bundles[3].signing_key().sign_share(
            &Tag::root("biased").message(&[b"pre", &1u64.to_be_bytes(), &[1]]),
            &mut rng,
        );
        let bogus = AbbaMessage::PreVote(PreVote {
            round: 1,
            value: true,
            just: PreVoteJust::FirstRound(Some(7u64)), // fails the check
            share: bad_share,
        });
        sim.corrupt(
            3,
            Behavior::Custom(Box::new(move |_from, _msg, _| {
                (0..3).map(|p| (p, bogus.clone())).collect()
            })),
        );
        for p in 0..3 {
            sim.input(p, false);
        }
        sim.run_until_quiet(1_000_000);
        for p in 0..3 {
            assert_eq!(sim.outputs(p), &[false], "party {p} must decide 0");
        }
    }

    #[test]
    fn biased_mode_accepts_valid_evidence() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(40);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let public = Arc::new(public);
        let check: EvidenceCheck<u64> = Arc::new(|e: &u64| *e == 42);
        let mut abba: Abba<u64> = Abba::new_biased(
            Tag::root("b2"),
            Arc::clone(&public),
            Arc::new(bundles[0].clone()),
            Arc::clone(&check),
        );
        let mut out = Outbox::new(abba.n());
        abba.propose_with_evidence(42, &mut rng, &mut out);
        // The emitted pre-vote is self-validating.
        let pv = out
            .iter()
            .find_map(|(_, m)| match m {
                AbbaMessage::PreVote(pv) => Some(pv.clone()),
                _ => None,
            })
            .unwrap();
        let verifier: Abba<u64> = Abba::new_biased(
            Tag::root("b2"),
            Arc::clone(&public),
            Arc::new(bundles[1].clone()),
            check,
        );
        assert_eq!(verifier.validate_prevote(0, &pv), Ok(true));
        // Tampered evidence fails.
        let mut bad = pv;
        bad.just = PreVoteJust::FirstRound(Some(41));
        assert_eq!(verifier.validate_prevote(0, &bad), Ok(false));
    }

    #[test]
    #[should_panic(expected = "only once")]
    fn double_propose_panics() {
        let mut ns = nodes(4, 1, 13);
        let mut out = Outbox::new(ns[0].abba.n());
        let mut rng = SeededRng::new(1);
        ns[0].abba.propose(true, &mut rng, &mut out);
        ns[0].abba.propose(false, &mut rng, &mut out);
    }

    #[test]
    #[should_panic(expected = "propose_with_evidence")]
    fn biased_one_without_evidence_panics() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(50);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let check: EvidenceCheck<u64> = Arc::new(|_| true);
        let mut abba: Abba<u64> = Abba::new_biased(
            Tag::root("b3"),
            Arc::new(public),
            Arc::new(bundles[0].clone()),
            check,
        );
        abba.propose(true, &mut rng, &mut Outbox::new(abba.n()));
    }
}
