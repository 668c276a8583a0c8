//! Property-based tests for the cryptographic substrate: field axioms,
//! hash behaviour, secret sharing correctness, and signature/proof
//! soundness under random inputs.

use proptest::prelude::*;
use sintra_adversary::formula::{Gate, MonotoneFormula};
use sintra_adversary::party::PartySet;
use sintra_crypto::dleq::DleqProof;
use sintra_crypto::field::{Fp, Scalar};
use sintra_crypto::group::GroupElement;
use sintra_crypto::hash::{Hasher, Sha256};
use sintra_crypto::lsss::SharingScheme;
use sintra_crypto::rng::SeededRng;
use sintra_crypto::schnorr::SigningKey;
use sintra_crypto::shamir::{lagrange_at_zero, Polynomial};
use sintra_crypto::u256::U256;

fn u256_strategy() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn u256_add_sub_roundtrip(a in u256_strategy(), b in u256_strategy()) {
        let (sum, _) = a.overflowing_add(&b);
        let (back, _) = sum.overflowing_sub(&b);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn u256_byte_roundtrip(a in u256_strategy()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn u256_mul_commutes(a in u256_strategy(), b in u256_strategy()) {
        prop_assert_eq!(a.widening_mul(&b), b.widening_mul(&a));
    }

    #[test]
    fn field_ring_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (Fp::from_u64(a), Fp::from_u64(b), Fp::from_u64(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn scalar_inversion(a in 1u64..) {
        let s = Scalar::from_u64(a);
        prop_assert_eq!(s * s.invert().unwrap(), Scalar::ONE);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..500), split in any::<prop::sample::Index>()) {
        let at = if data.is_empty() { 0 } else { split.index(data.len()) };
        let mut h = Sha256::new();
        h.update(&data[..at]);
        h.update(&data[at..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hasher_framing_injective(a in proptest::collection::vec(any::<u8>(), 0..40), b in proptest::collection::vec(any::<u8>(), 0..40)) {
        prop_assume!(a != b);
        let ha = Hasher::new("pt").field(&a).finish();
        let hb = Hasher::new("pt").field(&b).finish();
        prop_assert_ne!(ha, hb);
    }

    #[test]
    fn group_exponent_homomorphism(a in any::<u64>(), b in any::<u64>()) {
        let g = GroupElement::generator();
        let (sa, sb) = (Scalar::from_u64(a), Scalar::from_u64(b));
        prop_assert_eq!(g.exp(&sa).mul(&g.exp(&sb)), g.exp(&(sa + sb)));
    }

    #[test]
    fn membership_test_matches_exponentiation_oracle(v in u256_strategy(), e in u256_strategy()) {
        // The Legendre-symbol test against v^q == 1, on uniformly random
        // field elements (about half are residues) …
        let q = sintra_crypto::field::MODULUS_Q;
        let fp = Fp::from_u256(&v);
        let oracle = !fp.is_zero() && fp.pow(&q) == Fp::ONE;
        prop_assert_eq!(fp.legendre(), if fp.is_zero() { 0 } else if oracle { 1 } else { -1 });
        prop_assert_eq!(GroupElement::from_fp(fp).is_some(), oracle);
        // … and through the byte decoder, which also refuses v ≥ p.
        let canonical = v < Fp::modulus();
        prop_assert_eq!(GroupElement::from_bytes(&v.to_be_bytes()).is_some(), canonical && oracle);
        // Every power of a residue is a member; its negation never is.
        if oracle {
            let w = fp.pow(&e);
            prop_assert!(GroupElement::from_fp(w).is_some());
            prop_assert!(GroupElement::from_fp(-w).is_none());
        }
        // The symbol on plain integers agrees with the field's.
        prop_assert_eq!(fp.to_u256().jacobi(&Fp::modulus()), fp.legendre());
        prop_assert_eq!(v.jacobi(&Fp::modulus()), fp.legendre());
    }

    #[test]
    fn shamir_any_k_subset_reconstructs(seed in any::<u64>(), degree in 1usize..5) {
        let mut rng = SeededRng::new(seed);
        let secret = rng.next_scalar();
        let poly = Polynomial::random(secret, degree, &mut rng);
        let n = degree + 3;
        // Pick k = degree+1 distinct points from 1..=n deterministically
        // from the seed.
        let mut points: Vec<u64> = (1..=n as u64).collect();
        for i in (1..points.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            points.swap(i, j);
        }
        let chosen = &points[..degree + 1];
        let shares: Vec<(u64, Scalar)> = chosen.iter().map(|&x| (x, poly.eval_at(x))).collect();
        prop_assert_eq!(sintra_crypto::shamir::reconstruct(&shares), secret);
    }

    #[test]
    fn lagrange_partition_of_unity(k in 2usize..6) {
        let points: Vec<u64> = (1..=k as u64).collect();
        let sum: Scalar = lagrange_at_zero(&points).into_iter().sum();
        prop_assert_eq!(sum, Scalar::ONE);
    }

    #[test]
    fn lsss_threshold_reconstruction(seed in any::<u64>(), n in 3usize..8, bits in any::<u32>()) {
        let k = 2 + (seed as usize % (n - 1)).min(n - 2);
        let scheme = SharingScheme::new(MonotoneFormula::threshold(n, k).unwrap());
        let mut rng = SeededRng::new(seed);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        let set: PartySet = (0..n).filter(|p| (bits >> p) & 1 == 1).collect();
        let result = scheme.reconstruct(&set, &shares);
        if set.len() >= k {
            prop_assert_eq!(result, Some(secret));
        } else {
            prop_assert_eq!(result, None);
        }
    }

    #[test]
    fn lsss_nested_formula_respects_qualification(seed in any::<u64>(), bits in 0u32..64) {
        // ((0 AND 1) OR (2 AND 3 AND 4)) over 6 parties with party 5
        // irrelevant.
        let formula = MonotoneFormula::new(
            6,
            Gate::or(vec![
                Gate::and(vec![Gate::leaf(0), Gate::leaf(1)]),
                Gate::and(vec![Gate::leaf(2), Gate::leaf(3), Gate::leaf(4)]),
            ]),
        )
        .unwrap();
        let qualified = formula.eval(&(0..6).filter(|p| (bits >> p) & 1 == 1).collect());
        let scheme = SharingScheme::new(formula);
        let mut rng = SeededRng::new(seed);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        let set: PartySet = (0..6).filter(|p| (bits >> p) & 1 == 1).collect();
        match scheme.reconstruct(&set, &shares) {
            Some(got) => {
                prop_assert!(qualified);
                prop_assert_eq!(got, secret);
            }
            None => prop_assert!(!qualified),
        }
    }

    #[test]
    fn schnorr_rejects_wrong_message(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 1..50), other in proptest::collection::vec(any::<u8>(), 1..50)) {
        prop_assume!(msg != other);
        let mut rng = SeededRng::new(seed);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(&msg, &mut rng);
        prop_assert!(key.public_key().verify(&msg, &sig));
        prop_assert!(!key.public_key().verify(&other, &sig));
    }

    #[test]
    fn dleq_sound_for_random_exponents(seed in any::<u64>()) {
        let mut rng = SeededRng::new(seed);
        let g = GroupElement::generator();
        let h = GroupElement::hash_to_group("pt", b"h");
        let x = rng.next_scalar();
        let proof = DleqProof::prove("pt", &g, &g.exp(&x), &h, &h.exp(&x), &x, &mut rng);
        prop_assert!(proof.verify("pt", &g, &g.exp(&x), &h, &h.exp(&x)));
        // A different statement with the same proof fails.
        let y = x + Scalar::ONE;
        prop_assert!(!proof.verify("pt", &g, &g.exp(&y), &h, &h.exp(&y)));
    }
}
