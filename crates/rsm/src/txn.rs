//! Cross-shard transactions: a key-value machine with two-phase hooks.
//!
//! A single SINTRA group orders its own requests totally, so single-key
//! operations need nothing beyond [`KvMachine`]. Once the keyspace is
//! partitioned across G groups ([`crate::shard_router`]), a multi-key
//! request touches several independent total orders, and atomicity has
//! to be rebuilt on top: the client drives a presumed-abort two-phase
//! commit where each touched shard first orders a *prepare* entry
//! (locking the keys and voting) and then a *commit* or *abort* entry
//! (applying or discarding the staged writes). Because every entry is
//! itself atomically broadcast within its shard, all honest replicas of
//! a shard take identical lock/commit/abort decisions — the machine
//! below stays deterministic, which is all the replication layer asks.
//!
//! ## Decision authority
//!
//! Ordered entries are visible to every replica of a shard, including
//! Byzantine ones, and anyone can order entries. If any party could
//! decide any prepared transaction, an adversary could race an abort
//! entry onto shard B while the coordinator's commit lands on shard A —
//! exactly the mixed commit/abort state two-phase commit exists to
//! prevent. Decisions are therefore capability-gated: the prepare entry
//! carries hash commitments to two fresh tokens ([`TxnAuth`]), and a
//! commit or abort entry for a *prepared* transaction must reveal the
//! matching preimage. The submitting client derives both tokens from a
//! durable secret ([`txn_tokens`]) and reveals only the one for the
//! decision it takes, so:
//!
//! * nobody but the client can decide a prepared transaction;
//! * once the client commits, the revealed commit token lets anyone
//!   *roll the commit forward* to the remaining shards (helping
//!   recovery), but the abort token stays secret, so the standing
//!   decision can never be contradicted — and symmetrically for abort;
//! * a Byzantine client revealing both tokens can only destroy the
//!   atomicity of *its own* transaction, which it could equally do by
//!   writing different values per shard in the first place. The
//!   guarantee is for honest clients.
//!
//! ## Abort rules (who may refuse what)
//!
//! * a **prepare** votes abort iff one of its keys is locked by a
//!   different in-flight transaction, or the transaction is already
//!   decided aborted — and the refusal itself is recorded as a decided
//!   abort, so the transaction can never commit here later. A prepare
//!   whose txid is already staged must match the staged content
//!   (ops *and* token commitments) byte-for-byte: a duplicate acks
//!   `PREPARED`, a mismatch is refused without touching the staged
//!   transaction — so an adversary who learns a victim's txid can
//!   neither hijack the staged writes nor kill the staged transaction
//!   by replaying the id with different content;
//! * a **commit** applies iff the transaction is pending-prepared and
//!   the entry reveals the commit-token preimage; a duplicate commit
//!   after the fact acks idempotently, a commit for an aborted or
//!   never-prepared transaction is refused without touching state;
//! * an **abort** of a *prepared* transaction requires the abort-token
//!   preimage; an abort of an unknown transaction always succeeds and
//!   records a decided abort (presumed abort — a shard that never
//!   prepared can never commit, so the record only bars a future
//!   prepare; the cost of an adversary pre-poisoning a txid it guessed
//!   is one aborted transaction, not a safety violation).
//!
//! Prepared entries are *not* unilaterally timed out by replicas: only
//! an ordered abort entry releases the locks (a replica-local timeout
//! would break determinism). The flip side of capability-gating is
//! that a coordinator that crashes *after* preparing and loses its
//! secret leaves the prepared transaction blocked — the classic 2PC
//! blocking window. Recovery requires the client's durable secret
//! (tokens are re-derivable from it via [`txn_tokens`]); with the
//! secret, presumed-abort recovery is: abort everywhere, unless some
//! shard already committed, in which case roll the revealed commit
//! token forward.

use crate::state::{Checkpoint, KvMachine, StateMachine};
use sintra_protocols::common::{digest, Digest};
use std::collections::{BTreeMap, VecDeque};

/// Most operations a single prepare entry may carry.
pub const MAX_TXN_OPS: usize = 256;

/// Decided-transaction records retained (FIFO). Older decisions are
/// forgotten; a commit for a forgotten transaction is refused anyway
/// (never-prepared), so pruning trades only ack idempotency, never
/// safety.
pub const DECIDED_CAP: usize = 1024;

/// Answer to a prepare that locked its keys and staged its writes.
pub const RESP_PREPARED: &[u8] = b"TXN PREPARED";
/// Answer voting abort (lock conflict or already-decided abort).
pub const RESP_ABORT_VOTE: &[u8] = b"TXN ABORT";
/// Answer to an applied (or duplicate) commit.
pub const RESP_COMMITTED: &[u8] = b"TXN COMMITTED";
/// Answer to an (idempotent) abort.
pub const RESP_ABORTED: &[u8] = b"TXN ABORTED";
/// Refusal of a commit for a transaction this shard never prepared.
pub const RESP_UNKNOWN: &[u8] = b"ERR unknown-txn";
/// Refusal of a single-key write whose key is locked by a transaction.
pub const RESP_LOCKED: &[u8] = b"ERR locked";
/// Refusal of an entry that fails the capability check: a commit/abort
/// of a prepared transaction without the matching token preimage, or a
/// prepare reusing a staged txid with different content. State is never
/// touched on this answer.
pub const RESP_REFUSED: &[u8] = b"ERR txn-auth";

/// One transaction write: `(key, value)`.
pub type TxnOp = (Vec<u8>, Vec<u8>);

/// The transaction id: a digest over the *full* canonical operation
/// list (all shards' writes), so every shard's prepare names the same
/// transaction. A shard only ever sees its own slice and cannot verify
/// the digest; binding is enforced locally instead — a staged txid
/// only accepts byte-identical re-prepares (see the module doc).
pub fn txid(ops: &[(Vec<u8>, Vec<u8>)]) -> Digest {
    let mut bytes = b"txn".to_vec();
    bytes.extend_from_slice(&(ops.len() as u32).to_be_bytes());
    for (k, v) in ops {
        bytes.extend_from_slice(&(k.len() as u32).to_be_bytes());
        bytes.extend_from_slice(k);
        bytes.extend_from_slice(&(v.len() as u32).to_be_bytes());
        bytes.extend_from_slice(v);
    }
    digest(&bytes)
}

/// Hash commitments to a transaction's two decision capabilities,
/// carried by every prepare entry and staged with the pending
/// transaction. Revealing the `h_commit` preimage authorizes commit,
/// the `h_abort` preimage authorizes abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnAuth {
    /// Digest of the commit token.
    pub h_commit: Digest,
    /// Digest of the abort token.
    pub h_abort: Digest,
}

/// The decision capability tokens held by the submitting client. Only
/// the token for the decision actually taken is ever revealed on the
/// wire; the other hash preimage stays secret forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnTokens {
    /// Preimage revealed by a commit entry.
    pub commit: Digest,
    /// Preimage revealed by an abort entry.
    pub abort: Digest,
}

impl TxnTokens {
    /// The hash commitments a prepare entry carries for these tokens.
    pub fn auth(&self) -> TxnAuth {
        TxnAuth {
            h_commit: digest(&self.commit),
            h_abort: digest(&self.abort),
        }
    }
}

/// Derives a transaction's decision tokens from the client's durable
/// secret. Deterministic in `(secret, id)`, so a client (or a recovery
/// agent holding the secret) can re-derive the tokens of a crashed
/// coordinator's in-flight transaction.
pub fn txn_tokens(secret: &Digest, id: &Digest) -> TxnTokens {
    let derive = |label: &[u8]| {
        let mut bytes = label.to_vec();
        bytes.extend_from_slice(secret);
        bytes.extend_from_slice(id);
        digest(&bytes)
    };
    TxnTokens {
        commit: derive(b"txn-commit"),
        abort: derive(b"txn-abort"),
    }
}

/// A staged (prepared, undecided) transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PendingTxn {
    auth: TxnAuth,
    ops: Vec<TxnOp>,
}

/// A key-value machine with two-phase-commit hooks. Wraps [`KvMachine`]
/// for plain `set`/`get` traffic and adds three transaction ops in the
/// same one-byte-discriminant framing (`P`repare / `C`ommit / `A`bort).
#[derive(Clone, Debug, Default)]
pub struct TxnKvMachine {
    inner: KvMachine,
    /// Keys locked by an in-flight prepared transaction.
    locks: BTreeMap<Vec<u8>, Digest>,
    /// Staged writes and token commitments of prepared transactions,
    /// keyed by txid.
    pending: BTreeMap<Digest, PendingTxn>,
    /// Recent decisions: txid → committed? Pruned FIFO at
    /// [`DECIDED_CAP`]; `decided_order` is the (deterministic)
    /// insertion order the pruning follows.
    decided: BTreeMap<Digest, bool>,
    decided_order: VecDeque<Digest>,
}

impl TxnKvMachine {
    /// Creates an empty store with no transactions in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a prepare entry for one shard's slice of the ops,
    /// committing to the transaction's decision tokens.
    pub fn encode_prepare(id: &Digest, auth: &TxnAuth, ops: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut out = vec![b'P'];
        out.extend_from_slice(id);
        out.extend_from_slice(&auth.h_commit);
        out.extend_from_slice(&auth.h_abort);
        out.extend_from_slice(&(ops.len() as u32).to_be_bytes());
        for (k, v) in ops {
            out.extend_from_slice(&(k.len() as u32).to_be_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(&(v.len() as u32).to_be_bytes());
            out.extend_from_slice(v);
        }
        out
    }

    /// Encodes a commit entry revealing the commit token.
    pub fn encode_commit(id: &Digest, token: &Digest) -> Vec<u8> {
        let mut out = vec![b'C'];
        out.extend_from_slice(id);
        out.extend_from_slice(token);
        out
    }

    /// Encodes an abort entry revealing the abort token.
    pub fn encode_abort(id: &Digest, token: &Digest) -> Vec<u8> {
        let mut out = vec![b'A'];
        out.extend_from_slice(id);
        out.extend_from_slice(token);
        out
    }

    /// The wrapped key-value store (reads go straight through).
    pub fn kv(&self) -> &KvMachine {
        &self.inner
    }

    /// Whether `key` is currently locked by a prepared transaction.
    pub fn is_locked(&self, key: &[u8]) -> bool {
        self.locks.contains_key(key)
    }

    /// The recorded decision for a transaction, if still retained:
    /// `Some(true)` committed, `Some(false)` aborted.
    pub fn decision(&self, id: &Digest) -> Option<bool> {
        self.decided.get(id).copied()
    }

    /// Prepared transactions currently holding locks.
    pub fn pending_txns(&self) -> usize {
        self.pending.len()
    }

    /// Canonical encoding of everything but the store: locks
    /// (BTreeMap order), staged transactions with their token
    /// commitments (BTreeMap order), decisions (deterministic FIFO
    /// order, flag per entry).
    fn encode_tables(&self) -> Vec<u8> {
        let mut out = (self.locks.len() as u32).to_be_bytes().to_vec();
        for (k, id) in &self.locks {
            out.extend_from_slice(&(k.len() as u32).to_be_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(id);
        }
        out.extend_from_slice(&(self.pending.len() as u32).to_be_bytes());
        for (id, staged) in &self.pending {
            out.extend_from_slice(id);
            out.extend_from_slice(&staged.auth.h_commit);
            out.extend_from_slice(&staged.auth.h_abort);
            out.extend_from_slice(&(staged.ops.len() as u32).to_be_bytes());
            for (k, v) in &staged.ops {
                out.extend_from_slice(&(k.len() as u32).to_be_bytes());
                out.extend_from_slice(k);
                out.extend_from_slice(&(v.len() as u32).to_be_bytes());
                out.extend_from_slice(v);
            }
        }
        out.extend_from_slice(&(self.decided_order.len() as u32).to_be_bytes());
        for id in &self.decided_order {
            out.extend_from_slice(id);
            out.push(u8::from(self.decided[id]));
        }
        out
    }

    fn record_decision(&mut self, id: Digest, committed: bool) {
        if self.decided.insert(id, committed).is_none() {
            self.decided_order.push_back(id);
            while self.decided_order.len() > DECIDED_CAP {
                if let Some(old) = self.decided_order.pop_front() {
                    self.decided.remove(&old);
                }
            }
        }
    }

    fn release(&mut self, id: &Digest) -> Option<Vec<TxnOp>> {
        let staged = self.pending.remove(id)?;
        self.locks.retain(|_, holder| holder != id);
        Some(staged.ops)
    }

    fn apply_prepare(&mut self, rest: &[u8]) -> Vec<u8> {
        let Some((id, auth, ops)) = decode_prepare_body(rest) else {
            return b"ERR malformed".to_vec();
        };
        match self.decided.get(&id) {
            Some(true) => return RESP_COMMITTED.to_vec(),
            Some(false) => return RESP_ABORT_VOTE.to_vec(),
            None => {}
        }
        if let Some(staged) = self.pending.get(&id) {
            if staged.auth == auth && staged.ops == ops {
                return RESP_PREPARED.to_vec(); // duplicate prepare
            }
            // Same txid, different content: someone is replaying the id
            // (a front-runner hijacking a victim's txid, or vice versa).
            // Refuse *without* touching the staged transaction — killing
            // it here would hand third parties the abort capability the
            // token scheme exists to withhold.
            return RESP_REFUSED.to_vec();
        }
        if ops.iter().any(|(k, _)| {
            self.locks
                .get(k.as_slice())
                .is_some_and(|holder| *holder != id)
        }) {
            // Lock conflict: vote no, and remember the refusal so this
            // transaction can never commit on this shard afterwards.
            self.record_decision(id, false);
            return RESP_ABORT_VOTE.to_vec();
        }
        for (k, _) in &ops {
            self.locks.insert(k.clone(), id);
        }
        self.pending.insert(id, PendingTxn { auth, ops });
        RESP_PREPARED.to_vec()
    }

    fn apply_commit(&mut self, rest: &[u8]) -> Vec<u8> {
        let Some((id, token)) = decode_decision_body(rest) else {
            return b"ERR malformed".to_vec();
        };
        if let Some(staged) = self.pending.get(&id) {
            if digest(&token) != staged.auth.h_commit {
                return RESP_REFUSED.to_vec();
            }
            let ops = self.release(&id).expect("pending entry just observed");
            for (k, v) in ops {
                self.inner.apply(&KvMachine::encode_set(&k, &v));
            }
            self.record_decision(id, true);
            return RESP_COMMITTED.to_vec();
        }
        match self.decided.get(&id) {
            Some(true) => RESP_COMMITTED.to_vec(), // duplicate commit
            // A sibling's abort decision (or a refused prepare) bars
            // the commit — the atomicity invariant the chaos campaign
            // asserts.
            Some(false) => RESP_ABORTED.to_vec(),
            None => RESP_UNKNOWN.to_vec(),
        }
    }

    fn apply_abort(&mut self, rest: &[u8]) -> Vec<u8> {
        let Some((id, token)) = decode_decision_body(rest) else {
            return b"ERR malformed".to_vec();
        };
        if self.decision(&id) == Some(true) {
            // An ordered commit beat the abort here: the decision
            // stands. (With token gating this arises only from an
            // honest roll-forward racing a Byzantine client's own
            // double-decision, or duplicated traffic.)
            return RESP_COMMITTED.to_vec();
        }
        if let Some(staged) = self.pending.get(&id) {
            // The prepared window is exactly where a forged abort could
            // contradict a commit landing on a sibling shard: require
            // the abort capability.
            if digest(&token) != staged.auth.h_abort {
                return RESP_REFUSED.to_vec();
            }
            self.release(&id);
            self.record_decision(id, false);
            return RESP_ABORTED.to_vec();
        }
        // Not prepared here (or already decided aborted): presumed
        // abort. No capability needed — a shard that never prepared can
        // never commit, so the record only bars a future prepare.
        self.record_decision(id, false);
        RESP_ABORTED.to_vec()
    }
}

fn decode_prepare_body(rest: &[u8]) -> Option<(Digest, TxnAuth, Vec<TxnOp>)> {
    let id: Digest = rest.get(..32)?.try_into().ok()?;
    let h_commit: Digest = rest.get(32..64)?.try_into().ok()?;
    let h_abort: Digest = rest.get(64..96)?.try_into().ok()?;
    let mut rest = rest.get(96..)?;
    let take = |rest: &mut &[u8], n: usize| -> Option<Vec<u8>> {
        if rest.len() < n {
            return None;
        }
        let (head, tail) = rest.split_at(n);
        *rest = tail;
        Some(head.to_vec())
    };
    let field = |rest: &mut &[u8]| -> Option<Vec<u8>> {
        let len = u32::from_be_bytes(take(rest, 4)?.try_into().ok()?) as usize;
        take(rest, len)
    };
    let count = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
    if count == 0 || count > MAX_TXN_OPS {
        return None;
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push((field(&mut rest)?, field(&mut rest)?));
    }
    if !rest.is_empty() {
        return None;
    }
    Some((id, TxnAuth { h_commit, h_abort }, ops))
}

fn decode_decision_body(rest: &[u8]) -> Option<(Digest, Digest)> {
    if rest.len() != 64 {
        return None;
    }
    let id: Digest = rest[..32].try_into().ok()?;
    let token: Digest = rest[32..].try_into().ok()?;
    Some((id, token))
}

impl StateMachine for TxnKvMachine {
    fn apply(&mut self, request: &[u8]) -> Vec<u8> {
        match request.split_first() {
            Some((b'P', rest)) => self.apply_prepare(rest),
            Some((b'C', rest)) => self.apply_commit(rest),
            Some((b'A', rest)) => self.apply_abort(rest),
            Some((b'S', rest)) if rest.len() >= 4 => {
                let klen = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
                if rest.len() >= 4 + klen && self.is_locked(&rest[4..4 + klen]) {
                    // A prepared transaction owns the key: refuse the
                    // interleaved write instead of clobbering staged
                    // state. The client retries after the decision.
                    return RESP_LOCKED.to_vec();
                }
                self.inner.apply(request)
            }
            _ => self.inner.apply(request),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        // Canonical: inner snapshot length-prefixed, then the 2PC
        // tables.
        let inner = self.inner.snapshot();
        let mut out = (inner.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&inner);
        out.extend_from_slice(&self.encode_tables());
        out
    }

    fn checkpoint(&mut self) -> Checkpoint {
        // The store's incremental root, composed with a hash of the
        // tables: they are small (bounded by in-flight transactions and
        // `DECIDED_CAP`), the store is not.
        let inner = self.inner.checkpoint();
        let tables = self.encode_tables();
        let mut bytes = inner.root.to_vec();
        bytes.extend_from_slice(&tables);
        Checkpoint {
            root: digest(&bytes),
            encoded_len: 4 + inner.encoded_len + tables.len(),
            hashed_bytes: inner.hashed_bytes + bytes.len(),
        }
    }

    fn pinned_bytes(&self, live: &Self) -> Option<usize> {
        Some(self.inner.pinned_bytes(&live.inner)? + self.encode_tables().len())
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let mut rest = snapshot;
        let take = |rest: &mut &[u8], n: usize| -> Option<Vec<u8>> {
            if rest.len() < n {
                return None;
            }
            let (head, tail) = rest.split_at(n);
            *rest = tail;
            Some(head.to_vec())
        };
        let len = |rest: &mut &[u8]| -> Option<usize> {
            Some(u32::from_be_bytes(take(rest, 4)?.try_into().ok()?) as usize)
        };
        let field = |rest: &mut &[u8]| -> Option<Vec<u8>> {
            let n = u32::from_be_bytes(take(rest, 4)?.try_into().ok()?) as usize;
            take(rest, n)
        };
        let id_of = |bytes: Vec<u8>| -> Option<Digest> { bytes.as_slice().try_into().ok() };
        let mut parse = || -> Option<TxnKvMachine> {
            let mut m = TxnKvMachine::new();
            let inner = field(&mut rest)?;
            if !m.inner.restore(&inner) {
                return None;
            }
            for _ in 0..len(&mut rest)? {
                let k = field(&mut rest)?;
                let id = id_of(take(&mut rest, 32)?)?;
                if m.locks.insert(k, id).is_some() {
                    return None; // duplicate lock key
                }
            }
            for _ in 0..len(&mut rest)? {
                let id = id_of(take(&mut rest, 32)?)?;
                let h_commit = id_of(take(&mut rest, 32)?)?;
                let h_abort = id_of(take(&mut rest, 32)?)?;
                let count = len(&mut rest)?;
                if count == 0 || count > MAX_TXN_OPS {
                    return None;
                }
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    ops.push((field(&mut rest)?, field(&mut rest)?));
                }
                let auth = TxnAuth { h_commit, h_abort };
                if m.pending.insert(id, PendingTxn { auth, ops }).is_some() {
                    return None; // duplicate staged txid
                }
            }
            let decided = len(&mut rest)?;
            if decided > DECIDED_CAP {
                return None;
            }
            for _ in 0..decided {
                let id = id_of(take(&mut rest, 32)?)?;
                let flag = *take(&mut rest, 1)?.first()?;
                if flag > 1 {
                    return None; // non-canonical decision flag
                }
                if m.decided.insert(id, flag != 0).is_some() {
                    return None; // duplicate decided id (skews pruning)
                }
                m.decided_order.push_back(id);
            }
            if !rest.is_empty() {
                return None;
            }
            // Semantic consistency no honest execution can violate:
            // every lock is held by a staged transaction, and every
            // staged transaction's keys are locked by exactly it.
            if !m
                .locks
                .values()
                .all(|holder| m.pending.contains_key(holder))
            {
                return None;
            }
            for (id, staged) in &m.pending {
                if !staged.ops.iter().all(|(k, _)| m.locks.get(k) == Some(id)) {
                    return None;
                }
            }
            Some(m)
        };
        match parse() {
            Some(m) => {
                *self = m;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(pairs: &[(&str, &str)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        pairs
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
            .collect()
    }

    const SECRET: Digest = [42u8; 32];

    /// `(id, tokens, auth)` for an op list under the test secret.
    fn keys_for(ops: &[(Vec<u8>, Vec<u8>)]) -> (Digest, TxnTokens, TxnAuth) {
        let id = txid(ops);
        let tokens = txn_tokens(&SECRET, &id);
        (id, tokens, tokens.auth())
    }

    #[test]
    fn prepare_commit_applies_all_writes() {
        let mut m = TxnKvMachine::new();
        let ops = ops(&[("a", "1"), ("b", "2")]);
        let (id, tokens, auth) = keys_for(&ops);
        assert_eq!(
            m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &ops)),
            RESP_PREPARED
        );
        assert!(m.is_locked(b"a") && m.is_locked(b"b"));
        // Reads pass through while locked; writes are refused.
        assert_eq!(m.apply(&KvMachine::encode_get(b"a")), b"MISSING");
        assert_eq!(m.apply(&KvMachine::encode_set(b"a", b"z")), RESP_LOCKED);
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id, &tokens.commit)),
            RESP_COMMITTED
        );
        assert!(!m.is_locked(b"a"));
        assert_eq!(m.apply(&KvMachine::encode_get(b"a")), b"VAL 1");
        assert_eq!(m.apply(&KvMachine::encode_get(b"b")), b"VAL 2");
        // Duplicate commit acks idempotently; late abort (even with the
        // genuine abort token) reports the standing decision.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id, &tokens.commit)),
            RESP_COMMITTED
        );
        assert_eq!(
            m.apply(&TxnKvMachine::encode_abort(&id, &tokens.abort)),
            RESP_COMMITTED
        );
        assert_eq!(m.decision(&id), Some(true));
    }

    #[test]
    fn conflicting_prepare_votes_abort_and_bars_commit() {
        let mut m = TxnKvMachine::new();
        let first = ops(&[("k", "1")]);
        let second = ops(&[("k", "2"), ("other", "x")]);
        let (id1, tokens1, auth1) = keys_for(&first);
        let (id2, tokens2, auth2) = keys_for(&second);
        assert_eq!(
            m.apply(&TxnKvMachine::encode_prepare(&id1, &auth1, &first)),
            RESP_PREPARED
        );
        assert_eq!(
            m.apply(&TxnKvMachine::encode_prepare(&id2, &auth2, &second)),
            RESP_ABORT_VOTE
        );
        // The refused transaction can never commit here, even with its
        // genuine commit token.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id2, &tokens2.commit)),
            RESP_ABORTED
        );
        assert_eq!(m.apply(&KvMachine::encode_get(b"other")), b"MISSING");
        // The first transaction is unaffected.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id1, &tokens1.commit)),
            RESP_COMMITTED
        );
        assert_eq!(m.apply(&KvMachine::encode_get(b"k")), b"VAL 1");
    }

    #[test]
    fn abort_releases_locks_and_discards_writes() {
        let mut m = TxnKvMachine::new();
        let ops = ops(&[("a", "1")]);
        let (id, tokens, auth) = keys_for(&ops);
        m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &ops));
        assert_eq!(
            m.apply(&TxnKvMachine::encode_abort(&id, &tokens.abort)),
            RESP_ABORTED
        );
        assert!(!m.is_locked(b"a"));
        assert_eq!(m.apply(&KvMachine::encode_get(b"a")), b"MISSING");
        // Idempotent; and a commit after the abort is refused.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_abort(&id, &tokens.abort)),
            RESP_ABORTED
        );
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id, &tokens.commit)),
            RESP_ABORTED
        );
        // A never-prepared commit is refused outright.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&[7u8; 32], &tokens.commit)),
            RESP_UNKNOWN
        );
    }

    #[test]
    fn decision_entries_require_the_matching_token() {
        // The review's race: all shards prepared, and an adversary who
        // watched the ordered prepare tries to abort here while the
        // coordinator's commit lands on a sibling shard. Without the
        // abort-token preimage the machine must refuse, leaving the
        // stage intact for the commit.
        let mut m = TxnKvMachine::new();
        let ops = ops(&[("a", "1")]);
        let (id, tokens, auth) = keys_for(&ops);
        m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &ops));
        // Forged token, and the (visible) hash commitments themselves.
        for bad in [[0xAAu8; 32], auth.h_abort, auth.h_commit] {
            assert_eq!(
                m.apply(&TxnKvMachine::encode_abort(&id, &bad)),
                RESP_REFUSED
            );
        }
        // Cross-capability replay: once a commit is ordered anywhere its
        // token is public — it still must not authorize an abort.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_abort(&id, &tokens.commit)),
            RESP_REFUSED
        );
        // Nor does the abort token authorize a commit.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id, &tokens.abort)),
            RESP_REFUSED
        );
        assert!(m.is_locked(b"a"), "stage survives every forgery");
        assert_eq!(m.decision(&id), None);
        // The real capabilities still work.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id, &tokens.commit)),
            RESP_COMMITTED
        );
        assert_eq!(m.apply(&KvMachine::encode_get(b"a")), b"VAL 1");
    }

    #[test]
    fn abort_of_unknown_txn_is_presumed_abort() {
        // No stage, no capability check: recording the abort is safe
        // because a shard that never prepared can never commit.
        let mut m = TxnKvMachine::new();
        let id = [9u8; 32];
        assert_eq!(
            m.apply(&TxnKvMachine::encode_abort(&id, &[0u8; 32])),
            RESP_ABORTED
        );
        assert_eq!(m.decision(&id), Some(false));
        // A late prepare for the poisoned id votes abort.
        let ops = ops(&[("x", "1")]);
        let auth = txn_tokens(&SECRET, &id).auth();
        assert_eq!(
            m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &ops)),
            RESP_ABORT_VOTE
        );
        assert_eq!(m.pending_txns(), 0);
    }

    #[test]
    fn mismatched_reprepare_cannot_hijack_or_kill_stage() {
        let mut m = TxnKvMachine::new();
        let victim_ops = ops(&[("a", "1")]);
        let (id, tokens, auth) = keys_for(&victim_ops);
        assert_eq!(
            m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &victim_ops)),
            RESP_PREPARED
        );
        // An attacker replays the victim's txid with its own content —
        // different ops, different token commitments, or both.
        let evil_ops = ops(&[("a", "evil")]);
        let evil_auth = txn_tokens(&[66u8; 32], &id).auth();
        for (ops_case, auth_case) in [
            (&evil_ops, &auth),
            (&victim_ops, &evil_auth),
            (&evil_ops, &evil_auth),
        ] {
            assert_eq!(
                m.apply(&TxnKvMachine::encode_prepare(&id, auth_case, ops_case)),
                RESP_REFUSED
            );
        }
        // The stage is untouched: a byte-identical duplicate still acks,
        // and the victim's commit applies the victim's writes.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &victim_ops)),
            RESP_PREPARED
        );
        assert_eq!(
            m.apply(&TxnKvMachine::encode_commit(&id, &tokens.commit)),
            RESP_COMMITTED
        );
        assert_eq!(m.apply(&KvMachine::encode_get(b"a")), b"VAL 1");
    }

    #[test]
    fn snapshot_roundtrips_with_transaction_state() {
        let mut m = TxnKvMachine::new();
        m.apply(&KvMachine::encode_set(b"base", b"v"));
        let committed = ops(&[("c", "1")]);
        let (cid, ctokens, cauth) = keys_for(&committed);
        m.apply(&TxnKvMachine::encode_prepare(&cid, &cauth, &committed));
        m.apply(&TxnKvMachine::encode_commit(&cid, &ctokens.commit));
        let staged = ops(&[("p", "2")]);
        let (pid, ptokens, pauth) = keys_for(&staged);
        m.apply(&TxnKvMachine::encode_prepare(&pid, &pauth, &staged));
        let snap = m.snapshot();
        let mut fresh = TxnKvMachine::new();
        assert!(fresh.restore(&snap));
        assert_eq!(fresh.snapshot(), snap, "canonical encoding");
        assert!(fresh.is_locked(b"p"));
        assert_eq!(fresh.decision(&cid), Some(true));
        // Restored state continues the protocol correctly — including
        // the capability check on the restored stage.
        assert_eq!(
            fresh.apply(&TxnKvMachine::encode_commit(&pid, &[0u8; 32])),
            RESP_REFUSED
        );
        assert_eq!(
            fresh.apply(&TxnKvMachine::encode_commit(&pid, &ptokens.commit)),
            RESP_COMMITTED
        );
        assert_eq!(fresh.apply(&KvMachine::encode_get(b"p")), b"VAL 2");
        assert!(!fresh.restore(b"garbage"));
        assert!(!fresh.restore(&snap[..snap.len() - 1]));
    }

    #[test]
    fn restore_rejects_semantically_inconsistent_snapshots() {
        let mut m = TxnKvMachine::new();
        let staged = ops(&[("p", "2")]);
        let (pid, _, pauth) = keys_for(&staged);
        m.apply(&TxnKvMachine::encode_prepare(&pid, &pauth, &staged));
        let aborted = ops(&[("q", "3")]);
        let (qid, qtokens, qauth) = keys_for(&aborted);
        m.apply(&TxnKvMachine::encode_prepare(&qid, &qauth, &aborted));
        m.apply(&TxnKvMachine::encode_abort(&qid, &qtokens.abort));
        let snap = m.snapshot();
        let mut fresh = TxnKvMachine::new();

        // Duplicate decided id: bump the decided count and append a
        // copy of the (sole) decided record.
        let decided_at = snap.len() - (32 + 1) - 4;
        let mut dup_decided = snap.clone();
        dup_decided[decided_at..decided_at + 4].copy_from_slice(&2u32.to_be_bytes());
        let record = snap[decided_at + 4..].to_vec();
        dup_decided.extend_from_slice(&record);
        assert!(!fresh.restore(&dup_decided), "duplicate decided id");

        // Non-canonical decision flag.
        let mut bad_flag = snap.clone();
        *bad_flag.last_mut().unwrap() = 2;
        assert!(!fresh.restore(&bad_flag), "decision flag must be 0/1");

        // A lock whose holder has no staged transaction: flip one byte
        // of the (single) lock's holder id. Lock section starts after
        // the length-prefixed inner snapshot and the lock count.
        let inner_len = u32::from_be_bytes(snap[..4].try_into().unwrap()) as usize;
        let lock_holder_at = 4 + inner_len + 4 + 4 + 1; // counts, klen, "p"
        let mut orphan_lock = snap.clone();
        orphan_lock[lock_holder_at] ^= 0xFF;
        assert!(!fresh.restore(&orphan_lock), "lock holder must be staged");

        // A staged transaction whose key is not locked by it: drop the
        // lock section entirely (count 0).
        let mut no_locks = snap[..4 + inner_len].to_vec();
        no_locks.extend_from_slice(&0u32.to_be_bytes());
        no_locks.extend_from_slice(&snap[lock_holder_at + 32..]);
        assert!(!fresh.restore(&no_locks), "staged keys must be locked");

        // The untampered snapshot still restores.
        assert!(fresh.restore(&snap));
    }

    #[test]
    fn decided_table_is_bounded() {
        let mut m = TxnKvMachine::new();
        for i in 0..(DECIDED_CAP + 10) {
            let ops = vec![(format!("k{i}").into_bytes(), b"v".to_vec())];
            let (id, tokens, auth) = keys_for(&ops);
            m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &ops));
            m.apply(&TxnKvMachine::encode_commit(&id, &tokens.commit));
        }
        assert_eq!(m.decided_order.len(), DECIDED_CAP);
        assert_eq!(m.decided.len(), DECIDED_CAP);
    }

    #[test]
    fn malformed_txn_ops_are_rejected() {
        let mut m = TxnKvMachine::new();
        assert_eq!(m.apply(b"P"), b"ERR malformed");
        assert_eq!(m.apply(b"C123"), b"ERR malformed");
        assert_eq!(m.apply(b"A"), b"ERR malformed");
        let ops = ops(&[("a", "1")]);
        let (id, tokens, auth) = keys_for(&ops);
        let mut truncated = TxnKvMachine::encode_prepare(&id, &auth, &ops);
        truncated.pop();
        assert_eq!(m.apply(&truncated), b"ERR malformed");
        // A decision entry without its token is malformed, not refused.
        assert_eq!(
            m.apply(&[b"C".as_ref(), id.as_ref()].concat()),
            b"ERR malformed"
        );
        let mut long = TxnKvMachine::encode_commit(&id, &tokens.commit);
        long.push(0);
        assert_eq!(m.apply(&long), b"ERR malformed");
        // An empty op list is meaningless and refused.
        assert_eq!(
            m.apply(&TxnKvMachine::encode_prepare(&id, &auth, &[])),
            b"ERR malformed"
        );
        assert_eq!(m.pending_txns(), 0);
    }
}
