//! **Experiment E8**: threshold-cryptography micro-benchmarks (§2.1 —
//! the paper's practicality argument: the schemes are "quite practical
//! given current processor speed").
//!
//! Measures share generation, share verification, and combination for
//! the threshold coin, threshold signatures, and the threshold
//! cryptosystem — across threshold parameters and the generalized
//! structures of §4.3 (whose LSSS gives each server several share
//! components).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sintra::adversary::attributes::{example1, example2};
use sintra::adversary::TrustStructure;
use sintra::crypto::dealer::{Dealer, PublicParameters, ServerKeyBundle};
use sintra::crypto::field::Scalar;
use sintra::crypto::group::GroupElement;
use sintra::crypto::hash::Sha256;
use sintra::crypto::rng::SeededRng;
use sintra::crypto::tsig::QuorumRule;

fn structures() -> Vec<(String, TrustStructure)> {
    vec![
        (
            "threshold-4-1".into(),
            TrustStructure::threshold(4, 1).unwrap(),
        ),
        (
            "threshold-7-2".into(),
            TrustStructure::threshold(7, 2).unwrap(),
        ),
        (
            "threshold-16-5".into(),
            TrustStructure::threshold(16, 5).unwrap(),
        ),
        ("example1-9".into(), example1().unwrap()),
        ("example2-16".into(), example2().unwrap()),
    ]
}

fn dealt(ts: &TrustStructure) -> (PublicParameters, Vec<ServerKeyBundle>) {
    Dealer::deal(ts, &mut SeededRng::new(42))
}

/// Smallest qualified share-holder prefix for combination benches.
fn qualified_prefix(public: &PublicParameters) -> usize {
    let n = public.n();
    for k in 1..=n {
        let set: sintra::adversary::PartySet = (0..k).collect();
        if public.structure().can_reconstruct(&set) {
            return k;
        }
    }
    n
}

fn bench_primitives(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let g = GroupElement::generator();
    let x = rng.next_scalar();
    c.bench_function("group/exponentiation", |b| b.iter(|| g.exp(&x)));
    c.bench_function("group/exp2-multiexp", |b| {
        b.iter(|| g.exp2(&x, &GroupElement::generator_h(), &x))
    });
    let data = vec![0u8; 1024];
    c.bench_function("hash/sha256-1KiB", |b| b.iter(|| Sha256::digest(&data)));
    let a = Scalar::from_u64(12345);
    c.bench_function("field/scalar-invert", |b| b.iter(|| a.invert()));
}

fn bench_coin(c: &mut Criterion) {
    let mut group = c.benchmark_group("coin");
    for (name, ts) in structures() {
        let (public, bundles) = dealt(&ts);
        let mut rng = SeededRng::new(2);
        group.bench_with_input(BenchmarkId::new("share", &name), &(), |b, _| {
            b.iter(|| bundles[0].coin_key().share(b"bench-coin", &mut rng))
        });
        let share = bundles[0]
            .coin_key()
            .share(b"bench-coin", &mut SeededRng::new(3));
        group.bench_with_input(BenchmarkId::new("verify-share", &name), &(), |b, _| {
            b.iter(|| public.coin().verify_share(b"bench-coin", &share))
        });
        let k = qualified_prefix(&public);
        let shares: Vec<_> = bundles[..k]
            .iter()
            .map(|bu| bu.coin_key().share(b"bench-coin", &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("combine", &name), &(), |b, _| {
            b.iter(|| public.coin().combine(b"bench-coin", &shares).unwrap())
        });
    }
    group.finish();
}

fn bench_tsig(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsig");
    for (name, ts) in structures() {
        let (public, bundles) = dealt(&ts);
        let mut rng = SeededRng::new(4);
        group.bench_with_input(BenchmarkId::new("sign-share", &name), &(), |b, _| {
            b.iter(|| bundles[0].signing_key().sign_share(b"msg", &mut rng))
        });
        let k = qualified_prefix(&public);
        let shares: Vec<_> = bundles[..k]
            .iter()
            .map(|bu| bu.signing_key().sign_share(b"msg", &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("combine-qualified", &name), &(), |b, _| {
            b.iter(|| {
                public
                    .signing()
                    .combine(b"msg", &shares, QuorumRule::Qualified)
                    .unwrap()
            })
        });
        let sig = public
            .signing()
            .combine(b"msg", &shares, QuorumRule::Qualified)
            .unwrap();
        group.bench_with_input(BenchmarkId::new("verify", &name), &(), |b, _| {
            b.iter(|| {
                public
                    .signing()
                    .verify(b"msg", &sig, QuorumRule::Qualified, |_| false)
            })
        });
    }
    group.finish();
}

fn bench_tenc(c: &mut Criterion) {
    let mut group = c.benchmark_group("tenc");
    let msg = vec![7u8; 256];
    for (name, ts) in structures() {
        let (public, bundles) = dealt(&ts);
        let mut rng = SeededRng::new(5);
        group.bench_with_input(BenchmarkId::new("encrypt-256B", &name), &(), |b, _| {
            b.iter(|| public.encryption().encrypt(&msg, b"label", &mut rng))
        });
        let ct = public
            .encryption()
            .encrypt(&msg, b"label", &mut SeededRng::new(6));
        group.bench_with_input(BenchmarkId::new("verify-ciphertext", &name), &(), |b, _| {
            b.iter(|| public.encryption().verify_ciphertext(&ct))
        });
        group.bench_with_input(BenchmarkId::new("decrypt-share", &name), &(), |b, _| {
            b.iter(|| {
                bundles[0]
                    .decryption_key()
                    .decrypt_share(public.encryption(), &ct, &mut rng)
                    .unwrap()
            })
        });
        let k = qualified_prefix(&public);
        let shares: Vec<_> = bundles[..k]
            .iter()
            .map(|bu| {
                bu.decryption_key()
                    .decrypt_share(public.encryption(), &ct, &mut rng)
                    .unwrap()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("combine", &name), &(), |b, _| {
            b.iter(|| public.encryption().combine(&ct, &shares).unwrap())
        });
    }
    group.finish();
}

fn bench_dealer(c: &mut Criterion) {
    let mut group = c.benchmark_group("dealer");
    group.sample_size(10);
    for (name, ts) in structures() {
        group.bench_with_input(BenchmarkId::new("deal", &name), &ts, |b, ts| {
            b.iter(|| Dealer::deal(ts, &mut SeededRng::new(7)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_coin,
    bench_tsig,
    bench_tenc,
    bench_dealer
);
criterion_main!(benches);
