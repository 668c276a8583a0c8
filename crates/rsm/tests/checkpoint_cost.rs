//! The bucketed [`KvMachine`]: its state digest is a function of the
//! logical map and nothing else, a frozen copy is isolated from later
//! writes, and a checkpoint costs what changed since the last one — the
//! last stated as gates on bytes hashed, which repeat exactly, rather
//! than on time.

use proptest::prelude::*;
use sintra_rsm::txn::{txid, txn_tokens};
use sintra_rsm::{KvMachine, StateMachine, TxnKvMachine};
use std::collections::BTreeMap;

/// A write whose key is drawn from a small space, so sequences
/// overwrite as well as insert.
fn write() -> impl Strategy<Value = (u16, u8)> {
    (0u16..300, any::<u8>())
}

fn set(m: &mut impl StateMachine, key: u16, value: u8) {
    let key = format!("key-{key}");
    m.apply(&KvMachine::encode_set(key.as_bytes(), &[value; 9]));
}

/// A benchmark-sized entry: 16-byte key, 64-byte value.
fn set_sized(m: &mut KvMachine, key: u32, value: u8) {
    let mut k = [0u8; 16];
    k[..4].copy_from_slice(&key.to_be_bytes());
    m.apply(&KvMachine::encode_set(&k, &[value; 64]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Digest and snapshot depend on the final entries only: not on the
    /// order they arrived in, what they overwrote, or where checkpoints
    /// fell in between.
    #[test]
    fn digest_and_snapshot_are_functions_of_the_logical_map(
        writes in proptest::collection::vec(write(), 0..200),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..4),
    ) {
        let cuts: Vec<usize> = cuts.iter().map(|c| c.index(writes.len() + 1)).collect();
        let mut a = KvMachine::new();
        for (i, &(k, v)) in writes.iter().enumerate() {
            if cuts.contains(&i) {
                a.checkpoint();
            }
            set(&mut a, k, v);
        }
        // The same final map, reached backwards: every key first set to
        // a value it will not keep, then the keepers in reverse order.
        let last: BTreeMap<u16, u8> = writes.iter().copied().collect();
        let mut b = KvMachine::new();
        for (&k, &v) in &last {
            set(&mut b, k, v.wrapping_add(1));
        }
        b.checkpoint();
        for (&k, &v) in last.iter().rev() {
            set(&mut b, k, v);
        }
        prop_assert_eq!(a.len(), last.len());
        prop_assert_eq!(a.snapshot(), b.snapshot());
        let (ca, cb) = (a.checkpoint(), b.checkpoint());
        prop_assert_eq!(ca.root, cb.root);
        prop_assert_eq!(ca.encoded_len, a.snapshot().len());
        prop_assert_eq!(cb.encoded_len, ca.encoded_len);
    }

    /// The incrementally maintained root equals the root of a machine
    /// built from the snapshot — what a fetcher recomputes — wherever
    /// the checkpoints fell, for the plain store and under the 2PC
    /// wrapper.
    #[test]
    fn incremental_root_equals_root_of_restored_snapshot(
        writes in proptest::collection::vec(write(), 1..200),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..6),
    ) {
        let cuts: Vec<usize> = cuts.iter().map(|c| c.index(writes.len())).collect();
        let mut kv = KvMachine::new();
        let mut txn = TxnKvMachine::new();
        // A staged transaction, so the wrapper's tables are not empty.
        let ops = vec![(b"locked".to_vec(), b"1".to_vec())];
        let id = txid(&ops);
        let auth = txn_tokens(&[3u8; 32], &id).auth();
        txn.apply(&TxnKvMachine::encode_prepare(&id, &auth, &ops));
        for (i, &(k, v)) in writes.iter().enumerate() {
            set(&mut kv, k, v);
            set(&mut txn, k, v);
            if cuts.contains(&i) {
                kv.checkpoint();
                txn.checkpoint();
            }
        }
        let mut fresh = KvMachine::new();
        prop_assert!(fresh.restore(&kv.snapshot()));
        let incremental = kv.checkpoint().root;
        prop_assert_eq!(incremental, fresh.checkpoint().root);
        prop_assert_eq!(Some(incremental), kv.snapshot_root(&kv.snapshot()));
        // A second checkpoint with nothing written hashes nothing.
        prop_assert_eq!(kv.checkpoint().hashed_bytes, 0);

        let mut fresh = TxnKvMachine::new();
        prop_assert!(fresh.restore(&txn.snapshot()));
        let incremental = txn.checkpoint();
        prop_assert_eq!(incremental.root, fresh.checkpoint().root);
        prop_assert_eq!(incremental.encoded_len, txn.snapshot().len());
        // The tables are part of the commitment, not just the store.
        let tokens = txn_tokens(&[3u8; 32], &id);
        txn.apply(&TxnKvMachine::encode_abort(&id, &tokens.abort));
        prop_assert_ne!(incremental.root, txn.checkpoint().root);
    }

    /// A frozen copy taken at time T serialises to the T-state whatever
    /// is written afterwards, and pins no more than the buckets those
    /// writes replaced.
    #[test]
    fn frozen_copy_is_isolated_from_later_writes(
        before in proptest::collection::vec(write(), 0..150),
        after in proptest::collection::vec(write(), 1..150),
    ) {
        let mut live = KvMachine::new();
        for &(k, v) in &before {
            set(&mut live, k, v);
        }
        live.checkpoint();
        let at_t = live.snapshot();
        let frozen = live.clone();
        let shared = frozen.pinned_bytes(&live).expect("clones share buckets");
        for (i, &(k, v)) in after.iter().enumerate() {
            set(&mut live, k, v.wrapping_add(1));
            if i % 40 == 0 {
                live.checkpoint();
            }
        }
        prop_assert_eq!(frozen.snapshot(), at_t.clone());
        let pinned = frozen.pinned_bytes(&live).expect("clones share buckets") - shared;
        prop_assert!(pinned <= at_t.len(), "pinned {pinned} of {}", at_t.len());
        // Every key the later writes touched sits in a replaced bucket.
        let touched: BTreeMap<u16, u8> = after.iter().copied().collect();
        let existed: BTreeMap<u16, u8> = before.iter().copied().collect();
        let overwritten = touched.keys().filter(|k| existed.contains_key(k)).count();
        prop_assert!(pinned >= overwritten * (8 + "key-0".len() + 9));
    }
}

/// Bytes hashed by the checkpoint after `written` more keys land on a
/// store already holding `resident` (all benchmark-sized).
fn hashed_after(resident: u32, written: u32) -> (usize, usize) {
    let mut m = KvMachine::new();
    for i in 0..resident {
        set_sized(&mut m, i, 1);
    }
    let full = m.checkpoint().hashed_bytes;
    for i in resident..resident + written {
        set_sized(&mut m, i, 2);
    }
    (full, m.checkpoint().hashed_bytes)
}

/// The saturated benchmark's shape late in its window: 100 000 keys
/// resident, one checkpoint interval's 128 writes since the last
/// checkpoint. Hashing the snapshot would be 8.8 MB.
#[test]
fn checkpoint_hashes_what_changed_at_100k_keys() {
    let (full, incremental) = hashed_after(100_000, 128);
    assert!(
        full >= 100_000 * 88,
        "the first checkpoint covers everything"
    );
    assert!(
        incremental <= 512 * 1024,
        "128 writes over 100 000 keys hashed {incremental} bytes"
    );
}

/// A lightly loaded replica must not pay for the fan-out: 1 000 keys
/// resident and 8 written hash less than the 88 kB snapshot would.
#[test]
fn checkpoint_hashes_what_changed_at_1k_keys() {
    let (_, incremental) = hashed_after(1_000, 8);
    assert!(
        incremental <= 32 * 1024,
        "8 writes over 1 000 keys hashed {incremental} bytes"
    );
}
