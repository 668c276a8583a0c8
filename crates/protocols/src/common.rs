//! Shared plumbing for the protocol stack: per-server context, instance
//! tags, and sub-protocol outboxes.

use sintra_adversary::party::{PartyId, PartySet};
use sintra_adversary::structure::TrustStructure;
use sintra_crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra_crypto::hash::Sha256;
use sintra_crypto::rng::SeededRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A 32-byte message digest.
pub type Digest = [u8; 32];

/// Stable lowercase names for wire-message variants, keyed into
/// per-kind `<layer>.sent.<kind>` / `<layer>.recv.<kind>` counters by
/// the observability layer. Implemented by every protocol's message
/// enum.
pub trait WireKind {
    /// The variant's stable metric-name component (e.g. `"echo"`).
    fn kind(&self) -> &'static str;
}

/// Counts every wire message appended to `fx` past `mark` under the
/// layer's `sent.<kind>` counters. Instrumented node adapters call
/// this after delegating to their uninstrumented handler.
pub(crate) fn count_sent<M: WireKind, O>(
    ctx: &sintra_net::protocol::Context,
    layer: sintra_obs::Layer,
    fx: &sintra_net::protocol::Effects<M, O>,
    mark: usize,
) {
    for (_, m) in &fx.sends()[mark..] {
        ctx.obs.inc2(layer, "sent", m.kind());
    }
}

/// Computes the digest of a payload.
pub fn digest(payload: &[u8]) -> Digest {
    Sha256::digest(payload)
}

/// Messages queued by a sub-protocol, addressed by party.
///
/// The outbox knows the group size of the instance that writes into it,
/// so protocols broadcast with [`Outbox::broadcast`] instead of every
/// call site re-supplying its own `n`. An outbox iterates as
/// `(PartyId, M)` pairs, oldest first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outbox<M> {
    n: usize,
    msgs: Vec<(PartyId, M)>,
}

impl<M> Outbox<M> {
    /// An empty outbox for a group of `n` parties.
    pub fn new(n: usize) -> Self {
        Outbox {
            n,
            msgs: Vec::new(),
        }
    }

    /// The group size this outbox was built for.
    pub fn group_size(&self) -> usize {
        self.n
    }

    /// Queues `msg` for one party (including self).
    pub fn send(&mut self, to: PartyId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Queues `msg` for every party in the group (including self;
    /// protocols count their own votes through the same path as
    /// everyone else's).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        assert!(
            self.n > 0,
            "Outbox built for an empty group; construct with Outbox::new(n)"
        );
        for to in 0..self.n {
            self.msgs.push((to, msg.clone()));
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// The queued messages, in queueing order.
    pub fn as_slice(&self) -> &[(PartyId, M)] {
        &self.msgs
    }

    /// Iterates over the queued messages without consuming them.
    pub fn iter(&self) -> core::slice::Iter<'_, (PartyId, M)> {
        self.msgs.iter()
    }

    /// Discards the queued messages, keeping the group size.
    pub fn clear(&mut self) {
        self.msgs.clear();
    }

    /// Drains the queued messages, leaving the outbox empty (and its
    /// group size intact).
    pub fn drain(&mut self) -> Vec<(PartyId, M)> {
        core::mem::take(&mut self.msgs)
    }

    /// Consumes the outbox into its queued messages.
    pub fn into_vec(self) -> Vec<(PartyId, M)> {
        self.msgs
    }
}

impl<M> IntoIterator for Outbox<M> {
    type Item = (PartyId, M);
    type IntoIter = std::vec::IntoIter<(PartyId, M)>;
    fn into_iter(self) -> Self::IntoIter {
        self.msgs.into_iter()
    }
}

impl<'a, M> IntoIterator for &'a Outbox<M> {
    type Item = &'a (PartyId, M);
    type IntoIter = core::slice::Iter<'a, (PartyId, M)>;
    fn into_iter(self) -> Self::IntoIter {
        self.msgs.iter()
    }
}

/// A hierarchical protocol-instance tag. Tags separate the cryptographic
/// domains of concurrent instances: signature shares, coin names, and
/// transcripts all bind the tag, so messages cannot be replayed across
/// instances (or across layers of the stack).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(Vec<u8>);

impl Tag {
    /// A root tag for a top-level instance.
    pub fn root(name: &str) -> Tag {
        let mut v = Vec::with_capacity(name.len() + 1);
        v.extend_from_slice(name.as_bytes());
        Tag(v)
    }

    /// Derives a child tag (unambiguous framing).
    pub fn child(&self, label: &str, index: u64) -> Tag {
        let mut v = self.0.clone();
        v.push(b'/');
        v.extend_from_slice(label.as_bytes());
        v.push(b':');
        v.extend_from_slice(&index.to_be_bytes());
        Tag(v)
    }

    /// The raw tag bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Builds the byte string signed/hashed for this tag and context
    /// fields.
    pub fn message(&self, fields: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.len() + 16);
        out.extend_from_slice(&(self.0.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.0);
        for f in fields {
            out.extend_from_slice(&(f.len() as u64).to_be_bytes());
            out.extend_from_slice(f);
        }
        out
    }
}

impl core::fmt::Debug for Tag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Tag(")?;
        for b in &self.0 {
            if b.is_ascii_graphic() {
                write!(f, "{}", *b as char)?;
            } else {
                write!(f, "\\x{:02x}", b)?;
            }
        }
        write!(f, ")")
    }
}

/// Quorum-time batch verification tracker for threshold shares.
///
/// The seed protocols verified every share's validity proof on arrival.
/// With random-linear-combination batch verification it is much cheaper
/// to accept shares *structurally*, wait until a candidate quorum is
/// present, and check the whole set with one multi-exponentiation. This
/// tracker holds the unverified pool and the settled set, and remembers
/// culprits: a party whose share fails settlement is banned, and later
/// shares from banned parties are dropped on arrival — a Byzantine
/// sender gets exactly one chance to poison a batch, so the expensive
/// per-share fallback runs at most once per faulty party.
///
/// The ban set doubles as the tracker's per-sender verdict cache: a
/// negative verdict for a sender is permanent and is checked in O(1) at
/// [`insert`](Self::insert) (positive verdicts cannot be cached across
/// batches — a later share from the same sender is different data, and
/// within one tracker a party contributes at most one share anyway).
/// Protocols that spin up one tracker per round seed each new round
/// with [`with_bans`](Self::with_bans) from an instance-wide culprit
/// set, so a sender attributed in round `r` costs zero verification
/// work in every round after `r` instead of re-poisoning each fresh
/// batch — without that propagation a spamming Byzantine sender forces
/// a full per-share fallback pass per round.
#[derive(Clone, Debug)]
pub struct BatchedShares<S> {
    pending: BTreeMap<PartyId, S>,
    verified: BTreeMap<PartyId, S>,
    banned: PartySet,
}

impl<S> Default for BatchedShares<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> BatchedShares<S> {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::with_bans(PartySet::new())
    }

    /// An empty tracker pre-seeded with known culprits: shares from
    /// `banned` parties are rejected on arrival without any
    /// verification. This is how per-round trackers inherit the
    /// instance-wide verdict cache (see the type docs).
    pub fn with_bans(banned: PartySet) -> Self {
        BatchedShares {
            pending: BTreeMap::new(),
            verified: BTreeMap::new(),
            banned,
        }
    }

    /// Bans `party` outright: its pending share (if any) is dropped and
    /// future shares are rejected on arrival. Used to propagate a
    /// culprit verdict from a sibling tracker (another round or phase
    /// of the same instance) — an invalid share proves its sender
    /// Byzantine everywhere, not just in the batch that caught it.
    /// Returns whether a pending share was dropped, so callers that
    /// mirror membership in auxiliary party sets can cull those too.
    pub fn ban(&mut self, party: PartyId) -> bool {
        let dropped = self.pending.remove(&party).is_some();
        self.banned.insert(party);
        dropped
    }

    /// Records a share from `party` (first share wins; banned parties
    /// and duplicates are ignored). Returns whether it was stored.
    pub fn insert(&mut self, party: PartyId, share: S) -> bool {
        if self.banned.contains(party)
            || self.pending.contains_key(&party)
            || self.verified.contains_key(&party)
        {
            return false;
        }
        self.pending.insert(party, share);
        true
    }

    /// Parties with a recorded (pending or settled) share — the
    /// candidate set for quorum checks.
    pub fn holders(&self) -> PartySet {
        let mut set = PartySet::new();
        for p in self.pending.keys().chain(self.verified.keys()) {
            set.insert(*p);
        }
        set
    }

    /// Whether any shares still await verification.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The settled shares, by party.
    pub fn verified(&self) -> &BTreeMap<PartyId, S> {
        &self.verified
    }

    /// Parties banned by earlier settlements.
    pub fn banned(&self) -> &PartySet {
        &self.banned
    }

    /// Batch-verifies all pending shares via `verify` (a closure over a
    /// scheme's `verify_shares`, returning the culprit parties on
    /// failure). Culprits are banned and their shares dropped; the
    /// survivors move to the settled set. Returns the banned-this-call
    /// culprits, empty when the whole batch was clean.
    pub fn settle(&mut self, verify: impl FnOnce(&[S]) -> Result<(), Vec<PartyId>>) -> Vec<PartyId>
    where
        S: Clone,
    {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let batch: Vec<S> = self.pending.values().cloned().collect();
        let culprits = match verify(&batch) {
            Ok(()) => Vec::new(),
            Err(culprits) => culprits,
        };
        for culprit in &culprits {
            self.pending.remove(culprit);
            self.banned.insert(*culprit);
        }
        self.verified.append(&mut self.pending);
        culprits
    }
}

/// Per-server protocol context: identity, public parameters, secret key
/// bundle, and a deterministic RNG stream for nonces.
#[derive(Clone, Debug)]
pub struct Context {
    public: Arc<PublicParameters>,
    bundle: Arc<ServerKeyBundle>,
    /// Nonce randomness (deterministic per seed for replayable runs).
    pub rng: SeededRng,
}

impl Context {
    /// Creates the context for one server.
    pub fn new(public: Arc<PublicParameters>, bundle: Arc<ServerKeyBundle>, seed: u64) -> Self {
        let me = bundle.party() as u64;
        Context {
            public,
            bundle,
            rng: SeededRng::new(seed ^ me.wrapping_mul(0x9e3779b97f4a7c15)),
        }
    }

    /// This server's party id.
    pub fn me(&self) -> PartyId {
        self.bundle.party()
    }

    /// Number of servers.
    pub fn n(&self) -> usize {
        self.public.n()
    }

    /// The public parameters.
    pub fn public(&self) -> &PublicParameters {
        &self.public
    }

    /// The secret key bundle.
    pub fn bundle(&self) -> &ServerKeyBundle {
        &self.bundle
    }

    /// The trust structure.
    pub fn structure(&self) -> &TrustStructure {
        self.public.structure()
    }
}

/// Builds the `n` per-server contexts for a dealt system (test/bench
/// helper).
pub fn contexts(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    seed: u64,
) -> Vec<Context> {
    let public = Arc::new(public);
    bundles
        .into_iter()
        .map(|b| Context::new(Arc::clone(&public), Arc::new(b), seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_adversary::structure::TrustStructure;
    use sintra_crypto::dealer::Dealer;

    #[test]
    fn tags_are_unambiguous() {
        let a = Tag::root("abc").child("round", 1).child("e", 2);
        let b = Tag::root("abc").child("round", 12).child("e", 2);
        assert_ne!(a, b);
        assert_ne!(a.message(&[b"x"]), b.message(&[b"x"]));
        assert_ne!(a.message(&[b"x", b"y"]), a.message(&[b"xy"]));
        assert!(format!("{a:?}").contains("abc"));
    }

    #[test]
    fn context_construction() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(1);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let ctxs = contexts(public, bundles, 7);
        assert_eq!(ctxs.len(), 4);
        for (i, c) in ctxs.iter().enumerate() {
            assert_eq!(c.me(), i);
            assert_eq!(c.n(), 4);
        }
        // RNG streams differ per party.
        let mut a = ctxs[0].rng.clone();
        let mut b = ctxs[1].rng.clone();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn broadcast_includes_self() {
        let mut out: Outbox<u8> = Outbox::new(3);
        out.broadcast(9);
        assert_eq!(out.as_slice(), &[(0, 9), (1, 9), (2, 9)]);
        assert_eq!(out.group_size(), 3);
        out.send(1, 7);
        assert_eq!(out.len(), 4);
        assert_eq!(out.drain().len(), 4);
        assert!(out.is_empty());
        assert_eq!(out.group_size(), 3, "drain keeps the group size");
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(digest(b"x"), digest(b"x"));
        assert_ne!(digest(b"x"), digest(b"y"));
    }

    #[test]
    fn batched_shares_dedups_and_tracks_holders() {
        let mut tracker: BatchedShares<u8> = BatchedShares::new();
        assert!(tracker.insert(1, 10));
        assert!(!tracker.insert(1, 11), "first share per party wins");
        assert!(tracker.insert(2, 20));
        assert!(tracker.has_pending());
        let holders = tracker.holders();
        assert!(holders.contains(1) && holders.contains(2) && holders.len() == 2);
        // A clean settlement moves everything to the verified set.
        assert!(tracker.settle(|_| Ok(())).is_empty());
        assert!(!tracker.has_pending());
        assert_eq!(tracker.verified().len(), 2);
        // Holders still counts settled shares; duplicates stay rejected.
        assert_eq!(tracker.holders().len(), 2);
        assert!(!tracker.insert(2, 21));
    }

    #[test]
    fn batched_shares_bans_culprits_once() {
        let mut tracker: BatchedShares<u8> = BatchedShares::new();
        tracker.insert(0, 1);
        tracker.insert(3, 99);
        // Settlement attributes party 3; its share is dropped, the
        // survivor is settled.
        let culprits = tracker.settle(|batch| {
            assert_eq!(batch, &[1, 99]);
            Err(vec![3])
        });
        assert_eq!(culprits, vec![3]);
        assert!(tracker.banned().contains(3));
        assert_eq!(tracker.verified().len(), 1);
        assert!(tracker.verified().contains_key(&0));
        // A banned party never re-enters, so it poisons at most one
        // batch.
        assert!(!tracker.insert(3, 100));
        assert!(!tracker.holders().contains(3));
        // Settling with nothing pending is a no-op.
        assert!(tracker.settle(|_| Err(vec![0])).is_empty());
        assert_eq!(tracker.verified().len(), 1);
    }

    #[test]
    fn batched_shares_inherit_and_propagate_bans() {
        let mut known = PartySet::new();
        known.insert(2);
        // A tracker seeded with a known culprit rejects it on arrival:
        // no share stored, so no verification (batch or fallback) ever
        // sees this sender again.
        let mut tracker: BatchedShares<u8> = BatchedShares::with_bans(known);
        assert!(!tracker.insert(2, 7));
        assert!(tracker.insert(0, 1));
        // Only party 0's share is pending: the banned sender's was
        // never stored.
        let holders = tracker.holders();
        assert!(tracker.has_pending());
        assert!(holders.contains(0) && !holders.contains(2) && holders.len() == 1);
        // A cross-tracker ban drops the pending share and blocks
        // re-entry, but leaves already-verified shares alone.
        assert!(tracker.insert(3, 9));
        tracker.settle(|_| Ok(())).is_empty().then_some(()).unwrap();
        assert!(tracker.insert(4, 4));
        tracker.ban(4);
        tracker.ban(3);
        assert!(!tracker.insert(4, 5));
        assert!(tracker.verified().contains_key(&3), "verified share kept");
        assert!(!tracker.holders().contains(4));
    }
}
