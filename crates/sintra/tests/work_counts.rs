//! Whole-stack work pin: the exact messages and crypto operations that
//! ordering a few requests costs, on the ordering layer alone and on
//! the full replica stack, at n = 4 and n = 10.
//!
//! One seeded FIFO simulation on one thread has no clocks and no races,
//! so every count below repeats exactly. A change that alters what the
//! stack sends or verifies moves one of them; a change that only
//! restructures code must leave them all in place. If a change means
//! to move a count, update the constant and say why in the change.
//!
//! The `crypto.*` counters are process-global atomics, so this binary
//! holds a single test: nothing else may run in the process while it
//! counts.

use sintra::net::sim::{FifoScheduler, Simulation};
use sintra::net::Protocol;
use sintra::obs::global;
use sintra::protocols::abc::abc_nodes;
use sintra::rsm::{atomic_replicas_with, KvMachine, ReplicaConfig};
use sintra::setup::dealt_system;

/// What one run cost, summed over every node.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    /// Messages handed to the simulated network.
    sent: u64,
    /// `crypto.exp` delta.
    exp: u64,
    /// `crypto.multi_exp` delta.
    multi_exp: u64,
    /// `crypto.batch_verify` delta.
    batch_verify: u64,
    /// `crypto.membership_test` delta.
    membership_test: u64,
    /// Aggregate signature checks.
    sig_verify: u64,
    /// Signatures covered by those checks.
    sigs_verified: u64,
    /// Per-share re-verifications after a failed batch.
    share_fallback: u64,
}

/// Requests per burst and bursts per run: each burst is injected at
/// once and run to quiescence before the next.
const BURST: usize = 3;
const BURSTS: usize = 3;

fn counter(snapshot: &sintra::obs::MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// Orders `BURSTS × BURST` requests on `nodes` under the seeded FIFO
/// schedule and returns what it cost. Every node must output one item
/// per request.
fn order<P: Protocol<Input = Vec<u8>>>(nodes: Vec<P>) -> Work {
    let n = nodes.len();
    let mut sim = Simulation::builder(nodes, FifoScheduler).seed(5).build();
    let (before, sigs, signatures, fallbacks) = (
        global::snapshot(),
        global::sig_verify_count(),
        global::sigs_verified_count(),
        global::share_fallback_count(),
    );
    for b in 0..BURSTS {
        for i in 0..BURST {
            let key = format!("k{b}-{i}");
            sim.input(
                (b * BURST + i) % n,
                KvMachine::encode_set(key.as_bytes(), b"v"),
            );
        }
        sim.run_until_quiet(u64::MAX);
    }
    let after = global::snapshot();
    for p in 0..n {
        assert_eq!(sim.outputs(p).len(), BURSTS * BURST, "party {p} output");
    }
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    Work {
        sent: sim.stats().sent,
        exp: delta("crypto.exp"),
        multi_exp: delta("crypto.multi_exp"),
        batch_verify: delta("crypto.batch_verify"),
        membership_test: delta("crypto.membership_test"),
        sig_verify: global::sig_verify_count() - sigs,
        sigs_verified: global::sigs_verified_count() - signatures,
        share_fallback: global::share_fallback_count() - fallbacks,
    }
}

fn abc(n: usize, t: usize) -> Work {
    let (public, bundles) = dealt_system(n, t, 5).expect("valid (n, t)");
    order(abc_nodes(public, bundles, 5))
}

fn replicas(n: usize, t: usize) -> Work {
    let (public, bundles) = dealt_system(n, t, 5).expect("valid (n, t)");
    // Checkpoint every two rounds, so checkpoint shares and their
    // certificates are part of the pinned work.
    let cfg = ReplicaConfig::new().seed(5).ckpt_interval(2);
    order(atomic_replicas_with(&cfg, public, bundles, |_| {
        KvMachine::new()
    }))
}

/// A pinned count row, in [`Work`]'s field order.
fn pinned(c: [u64; 8]) -> Work {
    let [sent, exp, multi_exp, batch_verify, membership_test, sig_verify, sigs_verified, share_fallback] =
        c;
    Work {
        sent,
        exp,
        multi_exp,
        batch_verify,
        membership_test,
        sig_verify,
        sigs_verified,
        share_fallback,
    }
}

#[test]
fn whole_stack_work_is_pinned() {
    global::enable();
    // No element is decoded from bytes in a simulation, hence no
    // membership tests; all shares are honest, hence no fallbacks.
    assert_eq!(
        abc(4, 1),
        pinned([747, 654, 270, 120, 0, 102, 198, 0]),
        "abc n = 4"
    );
    assert_eq!(
        replicas(4, 1),
        pinned([771, 762, 270, 120, 0, 102, 198, 0]),
        "replicas n = 4"
    );
    assert_eq!(
        abc(10, 3),
        pinned([2781, 1617, 597, 150, 0, 387, 1827, 0]),
        "abc n = 10"
    );
    assert_eq!(
        replicas(10, 3),
        pinned([2871, 1917, 597, 150, 0, 387, 1827, 0]),
        "replicas n = 10"
    );
}
