//! Plain Schnorr signatures for per-server message authentication.
//!
//! The paper's model assumes authenticated point-to-point links,
//! bootstrapped from the trusted dealer / an external PKI. The dealer in
//! this implementation provisions every server (and client) with a
//! Schnorr key pair; protocol messages that must be attributable — the
//! signed proposals inside atomic broadcast, client requests, service
//! replies — carry these signatures. They are also the building block of
//! the aggregate threshold-signature scheme in [`crate::tsig`].

use crate::field::Scalar;
use crate::group::GroupElement;
use crate::hash::{Hasher, Sha256};
use crate::rng::SeededRng;
use serde::{Deserialize, Serialize};

/// A Schnorr signing key (secret scalar plus cached public key).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SigningKey {
    secret: Scalar,
    public: PublicKey,
}

/// A Schnorr public verification key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey(GroupElement);

/// A Schnorr signature in commitment/response form (`R = g^w`, `z`).
///
/// The commitment form (rather than challenge/response) is what makes
/// random-linear-combination *batch* verification possible: the verifier
/// can check `g^z = R · pk^c` as a group equation without recomputing
/// `R` inside the challenge hash, so many such equations can be folded
/// into one multi-exponentiation (see [`PublicKey::verify_batch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    pub(crate) commitment: GroupElement,
    pub(crate) response: Scalar,
}

impl SigningKey {
    /// Generates a fresh key pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use sintra_crypto::schnorr::SigningKey;
    /// use sintra_crypto::rng::SeededRng;
    ///
    /// let mut rng = SeededRng::new(1);
    /// let key = SigningKey::generate(&mut rng);
    /// let sig = key.sign(b"msg", &mut rng);
    /// assert!(key.public_key().verify(b"msg", &sig));
    /// ```
    pub fn generate(rng: &mut SeededRng) -> Self {
        let secret = rng.next_nonzero_scalar();
        let public = PublicKey(GroupElement::generator().exp(&secret));
        SigningKey { secret, public }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8], rng: &mut SeededRng) -> Signature {
        let w = rng.next_nonzero_scalar();
        let commitment = GroupElement::generator().exp(&w);
        let challenge = challenge(&self.public, &commitment, message);
        Signature {
            commitment,
            response: w + challenge * self.secret,
        }
    }
}

impl PublicKey {
    /// Verifies a signature over `message`: `g^z == R · pk^c`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let c = challenge(self, &sig.commitment, message);
        let lhs = GroupElement::generator().exp(&sig.response);
        lhs == sig.commitment.mul(&self.0.exp(&c))
    }

    /// Verifies many signatures, each under its own key and over its own
    /// message, as one random linear combination of their equations
    /// `g^{z_i} == R_i · pk_i^{c_i}`:
    ///
    /// ```text
    /// Π R_i^{r_i} · Π pk_i^{r_i c_i} == g^{Σ r_i z_i}
    /// ```
    ///
    /// — one multi-exponentiation against one fixed-base power of `g`,
    /// with `r_0 = 1` and 128-bit `r_i` hashed from every challenge and
    /// response. A challenge binds its key, commitment and message, so
    /// the weights are a random-oracle function of the whole batch:
    /// changing any signature redraws all of them, and an invalid batch
    /// passes with probability 2⁻¹²⁸ per attempt (DESIGN.md §8). That
    /// needs every element in the prime-order subgroup, which decoding
    /// guarantees. No rng is consumed, so callers stay deterministic.
    ///
    /// `true` on an empty batch, which costs nothing and is not
    /// counted. A `false` names no culprit.
    pub fn verify_batch(items: &[(&PublicKey, &[u8], &Signature)]) -> bool {
        if items.is_empty() {
            return true;
        }
        sintra_obs::global::crypto_sig_verify(items.len() as u64);
        // Consecutive items over one message (a certificate's signers)
        // share its hash midstate.
        let mut prefix_msg: &[u8] = &[];
        let mut prefix = challenge_prefix(prefix_msg);
        let mut transcript = Hasher::new("sintra/schnorr-batch");
        let mut challenges = Vec::with_capacity(items.len());
        for &(pk, msg, sig) in items {
            if msg != prefix_msg {
                prefix_msg = msg;
                prefix = challenge_prefix(msg);
            }
            let c = challenge_suffix(&prefix, pk, &sig.commitment);
            let mut cz = [0u8; 64];
            cz[..32].copy_from_slice(&c.to_be_bytes());
            cz[32..].copy_from_slice(&sig.response.to_be_bytes());
            transcript = transcript.fixed(&cz);
            challenges.push(c);
        }
        let seed = transcript.finish();
        let mut z = Scalar::ZERO;
        let mut terms = Vec::with_capacity(2 * items.len());
        for (i, (&(pk, _, sig), c)) in items.iter().zip(challenges).enumerate() {
            let r = if i == 0 {
                Scalar::ONE
            } else {
                batch_weight(&seed, i)
            };
            z = z + r * sig.response;
            terms.push((sig.commitment, r));
            terms.push((pk.0, r * c));
        }
        GroupElement::multi_exp(&terms) == GroupElement::generator().exp(&z)
    }

    /// The underlying group element (for batch verification).
    pub(crate) fn element(&self) -> &GroupElement {
        &self.0
    }

    /// Serializes to 32 bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes()
    }

    /// Parses and validates 32 bytes.
    ///
    /// # Errors
    ///
    /// Returns `None` if the bytes are not a valid group element.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        GroupElement::from_bytes(bytes).map(PublicKey)
    }
}

impl Signature {
    /// A structurally valid signature that verifies nothing — for
    /// initializing struct fields that are overwritten before use.
    pub fn placeholder() -> Self {
        Signature {
            commitment: GroupElement::identity(),
            response: Scalar::ZERO,
        }
    }

    /// Serialized size in bytes (always 64; mirrors the `size_bytes`
    /// accessors on the threshold objects so wire-size accounting can
    /// ask any crypto payload uniformly).
    pub fn size_bytes(&self) -> usize {
        64
    }

    /// Serializes as 64 bytes (commitment ‖ response, big-endian).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.commitment.to_bytes());
        out[32..].copy_from_slice(&self.response.to_be_bytes());
        out
    }

    /// Parses 64 bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` if the commitment bytes are not a canonical
    /// subgroup element.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Self> {
        let mut r = [0u8; 32];
        let mut z = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        z.copy_from_slice(&bytes[32..]);
        Some(Signature {
            commitment: GroupElement::from_bytes(&r)?,
            response: Scalar::from_be_bytes(&z),
        })
    }
}

pub(crate) fn challenge(pk: &PublicKey, commitment: &GroupElement, message: &[u8]) -> Scalar {
    challenge_suffix(&challenge_prefix(message), pk, commitment)
}

/// Hash midstate over the message, the part of the challenge preimage a
/// whole quorum of signature shares has in common. Batch verification
/// absorbs it once and replays the midstate per share.
pub(crate) fn challenge_prefix(message: &[u8]) -> Hasher {
    Hasher::new("sintra/schnorr").field(message)
}

pub(crate) fn challenge_suffix(
    prefix: &Hasher,
    pk: &PublicKey,
    commitment: &GroupElement,
) -> Scalar {
    // One contiguous absorb of the two 32-byte elements.
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&pk.to_bytes());
    buf[32..].copy_from_slice(&commitment.to_bytes());
    prefix.clone().fixed(&buf).finish_scalar()
}

/// Weight `i` of a [`PublicKey::verify_batch`] equation: the low 128
/// bits of `SHA-256(seed ‖ i)`, one compression block. Zero (probability
/// 2⁻¹²⁸) becomes one so no signature drops out of the sum.
fn batch_weight(seed: &[u8; 32], i: usize) -> Scalar {
    let mut h = Sha256::new();
    h.update(seed);
    h.update(&(i as u64).to_be_bytes());
    let mut wide = [0u8; 32];
    wide[16..].copy_from_slice(&h.finalize()[16..]);
    let r = Scalar::from_be_bytes(&wide);
    if r.is_zero() {
        Scalar::ONE
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = SeededRng::new(1);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello", &mut rng);
        assert!(key.public_key().verify(b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = SeededRng::new(2);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello", &mut rng);
        assert!(!key.public_key().verify(b"world", &sig));
        assert!(!key.public_key().verify(b"", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = SeededRng::new(3);
        let key1 = SigningKey::generate(&mut rng);
        let key2 = SigningKey::generate(&mut rng);
        let sig = key1.sign(b"hello", &mut rng);
        assert!(!key2.public_key().verify(b"hello", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut rng = SeededRng::new(4);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello", &mut rng);
        let bad = Signature {
            commitment: sig.commitment,
            response: sig.response + Scalar::ONE,
        };
        assert!(!key.public_key().verify(b"hello", &bad));
        let bad = Signature {
            commitment: sig.commitment.mul(&GroupElement::generator()),
            response: sig.response,
        };
        assert!(!key.public_key().verify(b"hello", &bad));
    }

    #[test]
    fn signature_byte_roundtrip() {
        let mut rng = SeededRng::new(7);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"bytes", &mut rng);
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(key.public_key().verify(b"bytes", &parsed));
        // A non-canonical commitment encoding must be rejected.
        assert!(Signature::from_bytes(&[0xff; 64]).is_none());
    }

    #[test]
    fn public_key_byte_roundtrip() {
        let mut rng = SeededRng::new(5);
        let key = SigningKey::generate(&mut rng);
        let pk = key.public_key();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        assert_eq!(PublicKey::from_bytes(&[0xff; 32]), None);
    }

    /// Signs `k` distinct messages under `k` fresh keys (the shape of an
    /// ABC proposal's entry signatures).
    fn signed(k: usize, seed: u64) -> (Vec<PublicKey>, Vec<Vec<u8>>, Vec<Signature>) {
        let mut rng = SeededRng::new(seed);
        let keys: Vec<SigningKey> = (0..k).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..k).map(|i| format!("entry {i}").into_bytes()).collect();
        let sigs = keys
            .iter()
            .zip(&msgs)
            .map(|(key, m)| key.sign(m, &mut rng))
            .collect();
        (keys.iter().map(|k| k.public_key()).collect(), msgs, sigs)
    }

    fn items<'a>(
        pks: &'a [PublicKey],
        msgs: &'a [Vec<u8>],
        sigs: &'a [Signature],
    ) -> Vec<(&'a PublicKey, &'a [u8], &'a Signature)> {
        pks.iter()
            .zip(msgs)
            .zip(sigs)
            .map(|((pk, m), s)| (pk, &m[..], s))
            .collect()
    }

    /// The batch equation under caller-chosen weights.
    fn combination_holds(items: &[(&PublicKey, &[u8], &Signature)], weights: &[Scalar]) -> bool {
        let mut z = Scalar::ZERO;
        let mut terms = Vec::new();
        for (&(pk, msg, sig), &r) in items.iter().zip(weights) {
            let c = challenge(pk, &sig.commitment, msg);
            z = z + r * sig.response;
            terms.push((sig.commitment, r));
            terms.push((pk.0, r * c));
        }
        terms.push((GroupElement::generator(), -z));
        GroupElement::multi_exp(&terms) == GroupElement::identity()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn verify_batch_matches_per_signature_oracle(
            seed in proptest::arbitrary::any::<u64>(),
            k in 1usize..8,
            corruption in 0usize..6,
            at in proptest::arbitrary::any::<u64>(),
        ) {
            let (pks, mut msgs, mut sigs) = signed(k, seed);
            let i = at as usize % k;
            let j = (i + 1) % k;
            match corruption {
                1 => sigs[i].response = sigs[i].response + Scalar::ONE,
                2 => sigs[i].commitment = sigs[i].commitment.mul(&GroupElement::generator()),
                3 => sigs.swap(i, j),
                4 => msgs[i].push(b'!'),
                _ => {}
            }
            let items = items(&pks, &msgs, &sigs);
            let oracle = items.iter().all(|(pk, m, s)| pk.verify(m, s));
            proptest::prop_assert_eq!(PublicKey::verify_batch(&items), oracle);
            proptest::prop_assert_eq!(oracle, !matches!(corruption, 1..=4) || (corruption == 3 && k == 1));
        }
    }

    #[test]
    fn verify_batch_of_nothing_holds() {
        let checks = sintra_obs::global::sig_verify_count();
        let sigs = sintra_obs::global::sigs_verified_count();
        assert!(PublicKey::verify_batch(&[]));
        assert_eq!(sintra_obs::global::sig_verify_count(), checks);
        assert_eq!(sintra_obs::global::sigs_verified_count(), sigs);
    }

    #[test]
    fn verify_batch_counts_one_check() {
        let (pks, msgs, sigs) = signed(5, 11);
        let before = sintra_obs::global::sig_verify_count();
        let sigs_before = sintra_obs::global::sigs_verified_count();
        assert!(PublicKey::verify_batch(&items(&pks, &msgs, &sigs)));
        assert_eq!(sintra_obs::global::sig_verify_count() - before, 1);
        assert_eq!(sintra_obs::global::sigs_verified_count() - sigs_before, 5);
    }

    #[test]
    fn errors_that_cancel_under_equal_weights_are_rejected() {
        // Shift one response up and another down by the same amount:
        // both signatures are invalid, but any equal weights on the pair
        // cancel the two errors. Pair (0, 1) cancels if the weights after
        // r_0 = 1 were 1; pair (1, 2) cancels for every constant weight.
        let (pks, msgs, sigs) = signed(3, 12);
        let delta = Scalar::from_u64(0xdead_beef);
        for (a, b) in [(0, 1), (1, 2)] {
            let mut bad = sigs.clone();
            bad[a].response = bad[a].response + delta;
            bad[b].response = bad[b].response - delta;
            let items = items(&pks, &msgs, &bad);
            assert!(!items[a].0.verify(items[a].1, items[a].2));
            assert!(!items[b].0.verify(items[b].1, items[b].2));
            for w in [Scalar::ONE, Scalar::from_u64(7)] {
                let weights = [Scalar::ONE, w, w];
                assert_eq!(
                    combination_holds(&items, &weights),
                    a != 0 || w == Scalar::ONE
                );
            }
            assert!(!PublicKey::verify_batch(&items), "pair ({a}, {b})");
        }
    }

    #[test]
    fn signatures_are_randomized_but_both_valid() {
        let mut rng = SeededRng::new(6);
        let key = SigningKey::generate(&mut rng);
        let s1 = key.sign(b"m", &mut rng);
        let s2 = key.sign(b"m", &mut rng);
        assert_ne!(s1, s2);
        assert!(key.public_key().verify(b"m", &s1));
        assert!(key.public_key().verify(b"m", &s2));
    }
}
