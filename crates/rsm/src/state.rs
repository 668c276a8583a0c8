//! The replicated state machine abstraction (§5, after Schneider).
//!
//! Trusted services are deterministic state machines replicated on all
//! servers and initialized to the same state; atomic broadcast
//! guarantees that every honest replica applies the same sequence of
//! requests, hence computes the same sequence of answers.

use sintra_crypto::hash::Sha256;
use sintra_protocols::common::{digest, Digest};
use std::sync::Arc;

/// What [`StateMachine::checkpoint`] reports about the state it just
/// committed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Digest committing to every byte of state that can diverge; what
    /// the checkpoint certificate covers (with the dedup window).
    pub root: Digest,
    /// The length [`StateMachine::snapshot`] would have, known without
    /// serialising — a replica uses it to refuse a transfer no frame
    /// can carry before paying for the encode.
    pub encoded_len: usize,
    /// Bytes fed to the hash to bring `root` up to date (the
    /// `rsm.ckpt_hashed_bytes` counter).
    pub hashed_bytes: usize,
}

/// A deterministic application state machine.
///
/// Determinism is a *correctness requirement*: `apply` must depend only
/// on the current state and the request bytes (no clocks, no local
/// randomness), or replicas diverge.
///
/// `Clone` is how a replica parks a checkpoint: it keeps a frozen copy
/// of the machine and serialises it only when a state transfer is
/// actually served. A machine whose clone shares storage with the
/// original (see [`KvMachine`]) makes that copy cheap; for the others it
/// is the deep copy `snapshot()` used to be.
pub trait StateMachine: Clone + Send + core::fmt::Debug {
    /// Applies one ordered request and returns the service answer.
    fn apply(&mut self, request: &[u8]) -> Vec<u8>;

    /// Serializes the full machine state. The encoding must be
    /// *canonical* — two replicas in the same logical state must produce
    /// byte-identical snapshots.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the machine state with a decoded snapshot. Returns
    /// `false` (leaving the state untouched) on malformed input.
    fn restore(&mut self, snapshot: &[u8]) -> bool;

    /// Computes the state digest a checkpoint certificate is a threshold
    /// signature over. It must be a function of the logical state only
    /// and must commit to all of it. The default hashes the whole
    /// snapshot; a machine that can re-derive its digest from what
    /// changed since the previous call overrides this.
    fn checkpoint(&mut self) -> Checkpoint {
        let snapshot = self.snapshot();
        Checkpoint {
            root: digest(&snapshot),
            encoded_len: snapshot.len(),
            hashed_bytes: snapshot.len(),
        }
    }

    /// The root a machine holding the state `snapshot` encodes would
    /// report, or `None` if it does not decode: how a transferred
    /// snapshot is checked against a certificate. Restores into a
    /// scratch copy; `self` is untouched.
    fn snapshot_root(&self, snapshot: &[u8]) -> Option<Digest> {
        let mut scratch = self.clone();
        scratch.restore(snapshot).then(|| scratch.checkpoint().root)
    }

    /// For a machine whose clones share storage: the bytes this frozen
    /// copy keeps alive that `live` — the machine it was cloned from,
    /// some requests later — no longer shares with it. `None` for a
    /// deep copy, which pins its whole encoding.
    fn pinned_bytes(&self, _live: &Self) -> Option<usize> {
        None
    }
}

/// A trivial state machine for tests and examples: counts requests and
/// echoes them back with the count.
#[derive(Clone, Debug, Default)]
pub struct EchoMachine {
    applied: u64,
}

impl EchoMachine {
    /// Creates the machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of requests applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

impl StateMachine for EchoMachine {
    fn apply(&mut self, request: &[u8]) -> Vec<u8> {
        self.applied += 1;
        let mut out = self.applied.to_be_bytes().to_vec();
        out.extend_from_slice(request);
        out
    }

    fn snapshot(&self) -> Vec<u8> {
        self.applied.to_be_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let Ok(bytes) = <[u8; 8]>::try_from(snapshot) else {
            return false;
        };
        self.applied = u64::from_be_bytes(bytes);
        true
    }
}

/// Children per inner node of the [`KvMachine`] digest tree.
const FANOUT: usize = 16;

/// Buckets a [`KvMachine`] spreads its entries over: the leaves of a
/// complete three-level tree. A constant, not a setting — the bucket a
/// key lands in is part of the certified digest, so every replica of a
/// group must agree on it.
const BUCKETS: usize = FANOUT * FANOUT * FANOUT;

/// Inner nodes of the tree (1 + 16 + 256), stored breadth first: node
/// `i` has children `FANOUT * i + 1 ..= FANOUT * i + FANOUT`, and bucket
/// `b` is node `INNER + b`.
const INNER: usize = (BUCKETS - 1) / (FANOUT - 1);

/// Hash-input prefixes separating a bucket's entries from an inner
/// node's child digests.
const LEAF_PREFIX: u8 = 0;
const NODE_PREFIX: u8 = 1;

/// One leaf of the digest tree: the entries whose key digest selects
/// it. Reference counted, so a frozen copy of the machine shares every
/// bucket the live machine has not written since.
#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Sorted by key. A vector, not a map: a bucket holds a handful of
    /// entries and is copied whole on the first write after a clone.
    entries: Vec<Entry>,
    /// Snapshot-format length of `entries`.
    bytes: usize,
    /// Digest of `entries`; stale while the bucket's dirty bit is set.
    digest: Digest,
}

/// One key-value pair in a single allocation, `klen ‖ key ‖ value` with
/// a `u32` big-endian `klen`: every request writes a key, so resident
/// memory per key is what this costs.
#[derive(Clone, Debug)]
struct Entry(Box<[u8]>);

impl Entry {
    /// `key` is at most `u32::MAX` bytes: requests and snapshots both
    /// frame it with a `u32` length.
    fn new(key: &[u8], value: &[u8]) -> Self {
        let klen = (key.len() as u32).to_be_bytes();
        Entry([&klen[..], key, value].concat().into_boxed_slice())
    }

    fn klen(&self) -> usize {
        u32::from_be_bytes(self.0[..4].try_into().expect("4-byte prefix")) as usize
    }

    fn key(&self) -> &[u8] {
        &self.0[4..4 + self.klen()]
    }

    fn value(&self) -> &[u8] {
        &self.0[4 + self.klen()..]
    }

    /// Snapshot-format length: both fields with their `u32` prefixes.
    fn encoded_len(&self) -> usize {
        4 + self.0.len()
    }
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

/// Splits one `u32`-length-prefixed field off the front of `rest`.
fn take_field<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::from_be_bytes(take(rest, 4)?.try_into().ok()?) as usize;
    take(rest, len)
}

fn put_entry(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(value);
}

/// Digest of a bucket's entries; `scratch` is left holding the bytes
/// hashed.
fn leaf_digest(entries: &[Entry], scratch: &mut Vec<u8>) -> Digest {
    scratch.clear();
    scratch.push(LEAF_PREFIX);
    scratch.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for e in entries {
        put_entry(scratch, e.key(), e.value());
    }
    digest(scratch)
}

/// Digest of an inner node over its [`FANOUT`] children's digests.
fn node_digest<'a>(children: impl Iterator<Item = &'a Digest>) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    for child in children {
        h.update(child);
    }
    h.finalize()
}

/// The bucket a key lives in, read off its digest, so a client
/// cannot aim keys at one bucket without grinding hashes — and if it
/// does, that bucket costs what the whole store used to, never more.
fn bucket_of(key: &[u8]) -> usize {
    let d = digest(key);
    usize::from(u16::from_be_bytes([d[0], d[1]])) % BUCKETS
}

/// A key-value register machine (building block of the directory
/// service): requests are `set key value` / `get key` in a tiny binary
/// format.
///
/// Entries live in [`BUCKETS`] reference-counted buckets under a digest
/// tree. A write copies its one bucket if a clone still shares it
/// (`Arc::make_mut`) and marks it dirty; [`StateMachine::checkpoint`]
/// re-hashes the dirty buckets and the inner nodes above them, so it
/// costs what was written since the last one, and `clone()` copies
/// pointers, not entries.
#[derive(Clone, Debug)]
pub struct KvMachine {
    buckets: Vec<Arc<Bucket>>,
    /// Cached digests of the inner nodes; `nodes[0]` is the root.
    nodes: Vec<Digest>,
    /// Buckets written since `nodes` was brought up to date (bit set).
    dirty: [u64; BUCKETS / 64],
    len: usize,
    /// Snapshot-format length of all entries.
    bytes: usize,
}

impl Default for KvMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl KvMachine {
    /// Creates an empty store.
    pub fn new() -> Self {
        let empty = Arc::new(Bucket {
            digest: leaf_digest(&[], &mut Vec::new()),
            ..Bucket::default()
        });
        // All nodes of one level of the empty tree are equal: one hash
        // per level, leaves up.
        let mut nodes = vec![[0; 32]; INNER];
        let mut child = empty.digest;
        for level in [FANOUT + 1..INNER, 1..FANOUT + 1, 0..1] {
            child = node_digest(std::iter::repeat_n(&child, FANOUT));
            nodes[level].fill(child);
        }
        KvMachine {
            buckets: vec![empty; BUCKETS],
            nodes,
            dirty: [0; BUCKETS / 64],
            len: 0,
            bytes: 0,
        }
    }

    /// Encodes a `set` request.
    pub fn encode_set(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut out = vec![b'S'];
        out.extend_from_slice(&(key.len() as u32).to_be_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(value);
        out
    }

    /// Encodes a `get` request.
    pub fn encode_get(key: &[u8]) -> Vec<u8> {
        let mut out = vec![b'G'];
        out.extend_from_slice(key);
        out
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let entries = &self.buckets[bucket_of(key)].entries;
        let i = entries.binary_search_by(|e| e.key().cmp(key)).ok()?;
        Some(entries[i].value())
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) {
        let b = bucket_of(key);
        let bucket = Arc::make_mut(&mut self.buckets[b]);
        let entry = Entry::new(key, value);
        let added = entry.encoded_len();
        let removed = match bucket.entries.binary_search_by(|e| e.key().cmp(key)) {
            Ok(i) => std::mem::replace(&mut bucket.entries[i], entry).encoded_len(),
            Err(i) => {
                bucket.entries.insert(i, entry);
                self.len += 1;
                0
            }
        };
        bucket.bytes = bucket.bytes + added - removed;
        self.bytes = self.bytes + added - removed;
        self.dirty[b / 64] |= 1 << (b % 64);
    }

    /// Digest of tree node `i`, inner or leaf.
    fn node(&self, i: usize) -> &Digest {
        match i.checked_sub(INNER) {
            Some(b) => &self.buckets[b].digest,
            None => &self.nodes[i],
        }
    }

    /// Re-derives the cached digests along the dirty paths and returns
    /// the number of bytes hashed.
    fn rehash(&mut self) -> usize {
        let mut hashed = 0;
        // Tree indices of the nodes just re-hashed, ascending; all on
        // one level, so their parents are too.
        let mut level = Vec::new();
        let mut encoded = Vec::new();
        for word in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[word]);
            while bits != 0 {
                let b = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = Arc::make_mut(&mut self.buckets[b]);
                bucket.digest = leaf_digest(&bucket.entries, &mut encoded);
                hashed += encoded.len();
                level.push(INNER + b);
            }
        }
        while level.first().is_some_and(|&i| i != 0) {
            for i in &mut level {
                *i = (*i - 1) / FANOUT;
            }
            level.dedup();
            for &i in &level {
                let children = FANOUT * i + 1..=FANOUT * i + FANOUT;
                self.nodes[i] = node_digest(children.map(|c| self.node(c)));
                hashed += 1 + FANOUT * 32;
            }
        }
        hashed
    }
}

impl StateMachine for KvMachine {
    fn apply(&mut self, request: &[u8]) -> Vec<u8> {
        match request.split_first() {
            Some((b'S', rest)) if rest.len() >= 4 => {
                let klen = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
                if rest.len() < 4 + klen {
                    return b"ERR malformed".to_vec();
                }
                self.insert(&rest[4..4 + klen], &rest[4 + klen..]);
                b"OK".to_vec()
            }
            Some((b'G', key)) => match self.get(key) {
                Some(v) => {
                    let mut out = b"VAL ".to_vec();
                    out.extend_from_slice(v);
                    out
                }
                None => b"MISSING".to_vec(),
            },
            _ => b"ERR malformed".to_vec(),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        // Entries in key order whatever bucket they sit in, so the
        // encoding is canonical (and is what it was before buckets).
        let mut entries: Vec<&Entry> = Vec::with_capacity(self.len);
        for bucket in &self.buckets {
            entries.extend(&bucket.entries);
        }
        entries.sort_unstable_by_key(|e| e.key());
        let mut out = Vec::with_capacity(4 + self.bytes);
        out.extend_from_slice(&(self.len as u32).to_be_bytes());
        for e in entries {
            put_entry(&mut out, e.key(), e.value());
        }
        out
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let mut rest = snapshot;
        let Some(count) = take(&mut rest, 4) else {
            return false;
        };
        let count = u32::from_be_bytes(count.try_into().expect("4 bytes")) as usize;
        let mut restored = KvMachine::new();
        let mut prev: Option<&[u8]> = None;
        for _ in 0..count {
            let (Some(k), Some(v)) = (take_field(&mut rest), take_field(&mut rest)) else {
                return false;
            };
            // Only the canonical encoding decodes: one snapshot per
            // logical state, so a digest of either commits to both.
            if prev.is_some_and(|p| p >= k) {
                return false;
            }
            prev = Some(k);
            restored.insert(k, v);
        }
        if !rest.is_empty() {
            return false;
        }
        *self = restored;
        true
    }

    fn checkpoint(&mut self) -> Checkpoint {
        let hashed_bytes = self.rehash();
        Checkpoint {
            root: self.nodes[0],
            encoded_len: 4 + self.bytes,
            hashed_bytes,
        }
    }

    fn pinned_bytes(&self, live: &Self) -> Option<usize> {
        // The copy's own pointer and digest arrays, plus every bucket
        // the live machine has since replaced.
        let diverged: usize = self
            .buckets
            .iter()
            .zip(&live.buckets)
            .filter(|(mine, theirs)| !Arc::ptr_eq(mine, theirs))
            .map(|(mine, _)| mine.bytes)
            .sum();
        let arrays =
            std::mem::size_of_val(&self.buckets[..]) + std::mem::size_of_val(&self.nodes[..]);
        Some(arrays + diverged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_machine_counts() {
        let mut m = EchoMachine::new();
        let a = m.apply(b"x");
        let b = m.apply(b"x");
        assert_ne!(a, b, "answer includes the sequence count");
        assert_eq!(m.applied(), 2);
        assert_eq!(&a[8..], b"x");
    }

    #[test]
    fn kv_machine_set_get() {
        let mut m = KvMachine::new();
        assert_eq!(m.apply(&KvMachine::encode_get(b"k")), b"MISSING");
        assert_eq!(m.apply(&KvMachine::encode_set(b"k", b"v")), b"OK");
        assert_eq!(m.apply(&KvMachine::encode_get(b"k")), b"VAL v");
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn kv_machine_rejects_malformed() {
        let mut m = KvMachine::new();
        assert_eq!(m.apply(b""), b"ERR malformed");
        assert_eq!(m.apply(b"X"), b"ERR malformed");
        assert_eq!(m.apply(&[b'S', 0, 0, 0, 9]), b"ERR malformed");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = KvMachine::new();
        m.apply(&KvMachine::encode_set(b"a", b"1"));
        m.apply(&KvMachine::encode_set(b"bb", b"22"));
        let snap = m.snapshot();
        let mut fresh = KvMachine::new();
        assert!(fresh.restore(&snap));
        assert_eq!(fresh.snapshot(), snap, "canonical encoding");
        assert_eq!(fresh.apply(&KvMachine::encode_get(b"a")), b"VAL 1");
        // Malformed snapshots are rejected without clobbering state.
        assert!(!fresh.restore(b"garbage"));
        assert!(!fresh.restore(&snap[..snap.len() - 1]));
        assert_eq!(fresh.apply(&KvMachine::encode_get(b"bb")), b"VAL 22");

        let mut e = EchoMachine::new();
        e.apply(b"x");
        let snap = e.snapshot();
        let mut fresh = EchoMachine::new();
        assert!(fresh.restore(&snap));
        assert_eq!(fresh.applied(), 1);
        assert!(!fresh.restore(b"short"));
    }

    #[test]
    fn replicas_stay_identical() {
        // Determinism check: two replicas applying the same sequence
        // produce identical answers.
        let requests = [
            KvMachine::encode_set(b"a", b"1"),
            KvMachine::encode_get(b"a"),
            KvMachine::encode_set(b"a", b"2"),
            KvMachine::encode_get(b"a"),
        ];
        let mut m1 = KvMachine::new();
        let mut m2 = KvMachine::new();
        for r in &requests {
            assert_eq!(m1.apply(r), m2.apply(r));
        }
    }
}
