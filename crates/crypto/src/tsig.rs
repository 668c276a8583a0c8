//! Threshold signatures with the share / verify-share / combine / verify
//! interface the broadcast protocols consume.
//!
//! ## Substitution note (documented in DESIGN.md)
//!
//! The paper instantiates threshold signatures with Shoup's RSA scheme
//! (reference \[35\] of the paper), whose 2048-bit RSA arithmetic and
//! safe-prime key generation are
//! out of scope for this from-scratch reproduction. The protocols,
//! however, use threshold signatures only through the interface below
//! with three properties:
//!
//! 1. **share verifiability** — anyone can check a party's share,
//! 2. **unforgeability** — no corruptible coalition can assemble a valid
//!    signature,
//! 3. **combination** — a quorum of valid shares yields one object that
//!    convinces any verifier that a quorum endorsed the message.
//!
//! We provide these with an *aggregate multi-signature*: a signature
//! share is an individual Schnorr signature under the party's
//! dealer-certified key, and the combined object carries the signer set
//! plus their signatures. The only difference from Shoup's scheme is
//! size (`O(|quorum|)` instead of `O(1)`), which the benchmark suite
//! reports explicitly so the asymptotic gap stays visible. Protocol
//! logic is unchanged, including *dual-parameter* use: the quorum rule
//! ([`QuorumRule`]) is chosen per call, matching the paper's use of both
//! `t+1` and `n−t` signature thresholds.

use crate::field::Scalar;
use crate::group::GroupElement;
use crate::rng::SeededRng;
use crate::schnorr::{PublicKey, Signature, SigningKey};
use serde::{Deserialize, Serialize};
use sintra_adversary::party::{PartyId, PartySet};
use sintra_adversary::structure::TrustStructure;

/// Which generalized quorum a combined signature must certify.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuorumRule {
    /// Signer set not corruptible (the "`t+1`" rule) — proves at least
    /// one honest party signed.
    Qualified,
    /// Complement of the signer set corruptible (the "`n−t`" rule) — the
    /// largest quorum one can wait for without losing liveness.
    Core,
    /// Signer set not coverable by two corruptible sets (the "`2t+1`"
    /// rule).
    Strong,
}

/// Public verification side of the threshold signature scheme.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThresholdSigScheme {
    structure: TrustStructure,
    pubkeys: Vec<PublicKey>,
}

/// A party's signing key for the threshold scheme.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThresholdSigKey {
    party: PartyId,
    key: SigningKey,
}

/// One party's signature share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureShare {
    party: PartyId,
    signature: Signature,
}

impl SignatureShare {
    /// The issuing party.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Serialized size in bytes (party id + Schnorr signature).
    pub fn size_bytes(&self) -> usize {
        4 + 64
    }

    /// Serializes as 68 bytes: party id (u32 big-endian) followed by
    /// the 64-byte Schnorr signature.
    pub fn to_bytes(&self) -> [u8; 68] {
        let mut out = [0u8; 68];
        out[..4].copy_from_slice(&(self.party as u32).to_be_bytes());
        out[4..].copy_from_slice(&self.signature.to_bytes());
        out
    }

    /// Parses 68 bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` if the signature commitment is non-canonical.
    pub fn from_bytes(bytes: &[u8; 68]) -> Option<Self> {
        let party = u32::from_be_bytes(bytes[..4].try_into().expect("4-byte prefix")) as PartyId;
        let mut sig = [0u8; 64];
        sig.copy_from_slice(&bytes[4..]);
        Some(SignatureShare {
            party,
            signature: Signature::from_bytes(&sig)?,
        })
    }
}

/// A combined threshold signature: the signer set and their signatures
/// (ordered by ascending party id).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdSignature {
    signers: PartySet,
    signatures: Vec<Signature>,
}

impl ThresholdSignature {
    /// The certified signer set.
    pub fn signers(&self) -> &PartySet {
        &self.signers
    }

    /// Serialized size in bytes (for the message-size benchmarks).
    pub fn size_bytes(&self) -> usize {
        16 + self.signatures.len() * 64
    }

    /// Serializes to bytes: signer bitmask (16 B) followed by the
    /// signatures in signer order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&self.signers.bits().to_be_bytes());
        for sig in &self.signatures {
            out.extend_from_slice(&sig.to_bytes());
        }
        out
    }

    /// Parses bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed input (length must match the signer
    /// count exactly).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 16 {
            return None;
        }
        let signers = PartySet::from_bits(u128::from_be_bytes(bytes[..16].try_into().ok()?));
        let rest = &bytes[16..];
        if rest.len() != signers.len() * 64 {
            return None;
        }
        let signatures = rest
            .chunks_exact(64)
            .map(|c| crate::schnorr::Signature::from_bytes(c.try_into().expect("64-byte chunk")))
            .collect::<Option<Vec<_>>>()?;
        Some(ThresholdSignature {
            signers,
            signatures,
        })
    }
}

/// Errors from combining shares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CombineError {
    /// The (deduplicated, valid) signer set does not satisfy the rule.
    InsufficientQuorum,
}

impl core::fmt::Display for CombineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CombineError::InsufficientQuorum => {
                write!(f, "signer set does not satisfy quorum rule")
            }
        }
    }
}

impl std::error::Error for CombineError {}

impl ThresholdSigKey {
    /// The owning party.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Produces a signature share on `message`.
    pub fn sign_share(&self, message: &[u8], rng: &mut SeededRng) -> SignatureShare {
        SignatureShare {
            party: self.party,
            signature: self.key.sign(&domain_tagged(message), rng),
        }
    }
}

impl ThresholdSigScheme {
    pub(crate) fn from_parts(structure: TrustStructure, pubkeys: Vec<PublicKey>) -> Self {
        ThresholdSigScheme { structure, pubkeys }
    }

    /// The trust structure quorums are evaluated against.
    pub fn structure(&self) -> &TrustStructure {
        &self.structure
    }

    /// Verifies one signature share.
    pub fn verify_share(&self, message: &[u8], share: &SignatureShare) -> bool {
        share.party < self.pubkeys.len()
            && self.pubkeys[share.party].verify(&domain_tagged(message), &share.signature)
    }

    /// Tests whether a signer set satisfies a quorum rule.
    pub fn rule_satisfied(&self, signers: &PartySet, rule: QuorumRule) -> bool {
        match rule {
            QuorumRule::Qualified => self.structure.is_qualified(signers),
            QuorumRule::Core => self.structure.is_core(signers),
            QuorumRule::Strong => self.structure.is_strong(signers),
        }
    }

    /// Batch-verifies signature shares over one message with a single
    /// random-linear-combination multi-exponentiation: with short
    /// nonzero randomizers `r_i`,
    ///
    /// ```text
    /// g^{-Σ r_i z_i} · Π R_i^{r_i} · Π vk_i^{r_i c_i} == 1
    /// ```
    ///
    /// where `c_i` is share `i`'s Schnorr challenge. Roughly 3-5× cheaper
    /// than verifying a quorum share by share.
    ///
    /// # Errors
    ///
    /// Returns the attributed culprits: parties whose share is
    /// individually invalid (determined by per-share fallback when the
    /// batch equation fails, so honest senders are never blamed).
    pub fn verify_shares(
        &self,
        message: &[u8],
        shares: &[SignatureShare],
        rng: &mut SeededRng,
    ) -> Result<(), Vec<PartyId>> {
        let tagged = domain_tagged(message);
        let mut culprits: Vec<PartyId> = shares
            .iter()
            .filter(|s| s.party >= self.pubkeys.len())
            .map(|s| s.party)
            .collect();
        let in_range: Vec<&SignatureShare> = shares
            .iter()
            .filter(|s| s.party < self.pubkeys.len())
            .collect();
        let batch_ok = match in_range.as_slice() {
            [] => true,
            [share] => self.pubkeys[share.party].verify(&tagged, &share.signature),
            _ => {
                sintra_obs::global::crypto_batch_verify();
                let mut z = Scalar::ZERO;
                let mut terms = Vec::with_capacity(2 * in_range.len() + 1);
                let prefix = crate::schnorr::challenge_prefix(&tagged);
                for (i, share) in in_range.iter().enumerate() {
                    let pk = &self.pubkeys[share.party];
                    let sig = &share.signature;
                    let c = crate::schnorr::challenge_suffix(&prefix, pk, &sig.commitment);
                    // The first share's weight is fixed to 1 — see
                    // `dleq::batch_verify` for the soundness argument.
                    let r = if i == 0 {
                        Scalar::ONE
                    } else {
                        rng.next_randomizer()
                    };
                    z = z + r * sig.response;
                    terms.push((sig.commitment, r));
                    terms.push((*pk.element(), r * c));
                }
                terms.push((GroupElement::generator(), -z));
                GroupElement::multi_exp(&terms) == GroupElement::identity()
            }
        };
        if !batch_ok {
            // Per-share fallback attributes blame precisely.
            sintra_obs::global::crypto_share_fallback(in_range.len() as u64);
            culprits.extend(
                in_range
                    .iter()
                    .filter(|s| !self.pubkeys[s.party].verify(&tagged, &s.signature))
                    .map(|s| s.party),
            );
        }
        if culprits.is_empty() {
            Ok(())
        } else {
            culprits.sort_unstable();
            culprits.dedup();
            Err(culprits)
        }
    }

    /// Combines shares into a threshold signature certifying `rule`.
    /// Invalid shares are dropped; duplicates are deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`CombineError::InsufficientQuorum`] if the surviving
    /// signer set does not satisfy `rule`.
    pub fn combine(
        &self,
        message: &[u8],
        shares: &[SignatureShare],
        rule: QuorumRule,
    ) -> Result<ThresholdSignature, CombineError> {
        let verified: Vec<SignatureShare> = shares
            .iter()
            .filter(|s| self.verify_share(message, s))
            .copied()
            .collect();
        self.combine_preverified(&verified, rule)
    }

    /// Combines shares the caller already verified (individually or via
    /// [`verify_shares`]) without re-verifying them — the protocol-layer
    /// fast path, turning the former verify-on-every-arrival pattern
    /// from `O(k²)` exponentiations per quorum into none at combine
    /// time. Out-of-range parties are dropped; duplicates deduplicate.
    ///
    /// Feeding unverified shares here cannot forge anything: the
    /// combined signature still fails [`verify`](Self::verify). External
    /// callers should prefer the defensive [`combine`](Self::combine).
    ///
    /// # Errors
    ///
    /// Returns [`CombineError::InsufficientQuorum`] if the signer set
    /// does not satisfy `rule`.
    pub fn combine_preverified(
        &self,
        shares: &[SignatureShare],
        rule: QuorumRule,
    ) -> Result<ThresholdSignature, CombineError> {
        let mut by_party: Vec<Option<Signature>> = vec![None; self.pubkeys.len()];
        for share in shares {
            if share.party < self.pubkeys.len() {
                by_party[share.party] = Some(share.signature);
            }
        }
        let signers: PartySet = by_party
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(p, _)| p)
            .collect();
        if !self.rule_satisfied(&signers, rule) {
            return Err(CombineError::InsufficientQuorum);
        }
        let signatures = by_party.into_iter().flatten().collect();
        Ok(ThresholdSignature {
            signers,
            signatures,
        })
    }

    /// Verifies a combined signature against a quorum rule: the rule on
    /// the signer set and the length checks, then, in one
    /// [`PublicKey::verify_batch`] equation, every signature that is not
    /// `known` — with none left, no exponentiation at all.
    ///
    /// `known` names shares this verifier has itself already checked
    /// over the same `message`. It changes only the cost, never the
    /// verdict, as long as it holds nothing else. Pass `|_| false` to
    /// check every signature.
    pub fn verify(
        &self,
        message: &[u8],
        sig: &ThresholdSignature,
        rule: QuorumRule,
        known: impl Fn(&SignatureShare) -> bool,
    ) -> bool {
        if !self.rule_satisfied(&sig.signers, rule) {
            return false;
        }
        if sig.signers.len() != sig.signatures.len() {
            return false;
        }
        let tagged = domain_tagged(message);
        let mut items = Vec::with_capacity(sig.signatures.len());
        for (party, signature) in sig.signers.iter().zip(&sig.signatures) {
            let Some(pk) = self.pubkeys.get(party) else {
                return false;
            };
            let share = SignatureShare {
                party,
                signature: *signature,
            };
            if !known(&share) {
                items.push((pk, &tagged[..], signature));
            }
        }
        PublicKey::verify_batch(&items)
    }
}

/// Dealer-side generation (used by [`crate::dealer`]).
pub(crate) fn deal_tsig(
    structure: &TrustStructure,
    rng: &mut SeededRng,
) -> (ThresholdSigScheme, Vec<ThresholdSigKey>) {
    let keys: Vec<ThresholdSigKey> = (0..structure.n())
        .map(|party| ThresholdSigKey {
            party,
            key: SigningKey::generate(rng),
        })
        .collect();
    let pubkeys = keys.iter().map(|k| k.key.public_key()).collect();
    (
        ThresholdSigScheme::from_parts(structure.clone(), pubkeys),
        keys,
    )
}

fn domain_tagged(message: &[u8]) -> Vec<u8> {
    let mut tagged = b"sintra/tsig:".to_vec();
    tagged.extend_from_slice(message);
    tagged
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_adversary::attributes::example1;

    fn setup(
        n: usize,
        t: usize,
        seed: u64,
    ) -> (ThresholdSigScheme, Vec<ThresholdSigKey>, SeededRng) {
        let structure = TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(seed);
        let (scheme, keys) = deal_tsig(&structure, &mut rng);
        (scheme, keys, rng)
    }

    #[test]
    fn qualified_combine_and_verify() {
        let (scheme, keys, mut rng) = setup(4, 1, 1);
        let shares: Vec<SignatureShare> = keys[..2]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        let sig = scheme
            .combine(b"m", &shares, QuorumRule::Qualified)
            .unwrap();
        assert!(scheme.verify(b"m", &sig, QuorumRule::Qualified, |_| false));
        assert!(!scheme.verify(b"other", &sig, QuorumRule::Qualified, |_| false));
        assert_eq!(sig.signers().len(), 2);
    }

    #[test]
    fn rules_are_ordered() {
        let (scheme, keys, mut rng) = setup(4, 1, 2);
        // Core quorum needs n - t = 3 signers; strong needs 2t+1 = 3.
        let shares: Vec<SignatureShare> = keys[..3]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        let sig = scheme.combine(b"m", &shares, QuorumRule::Core).unwrap();
        assert!(scheme.verify(b"m", &sig, QuorumRule::Core, |_| false));
        assert!(scheme.verify(b"m", &sig, QuorumRule::Strong, |_| false));
        assert!(scheme.verify(b"m", &sig, QuorumRule::Qualified, |_| false));
        // Two signers fail core and strong rules.
        let sig2 = scheme
            .combine(b"m", &shares[..2], QuorumRule::Qualified)
            .unwrap();
        assert!(!scheme.verify(b"m", &sig2, QuorumRule::Core, |_| false));
        assert!(!scheme.verify(b"m", &sig2, QuorumRule::Strong, |_| false));
        assert_eq!(
            scheme.combine(b"m", &shares[..2], QuorumRule::Core),
            Err(CombineError::InsufficientQuorum)
        );
    }

    #[test]
    fn invalid_shares_dropped() {
        let (scheme, keys, mut rng) = setup(4, 1, 3);
        let good: Vec<SignatureShare> = keys[..2]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        // A share on a different message is invalid for "m".
        let bad = keys[2].sign_share(b"not-m", &mut rng);
        assert!(!scheme.verify_share(b"m", &bad));
        let mut shares = good.clone();
        shares.push(bad);
        let sig = scheme
            .combine(b"m", &shares, QuorumRule::Qualified)
            .unwrap();
        assert_eq!(sig.signers().len(), 2, "bad share must not count");
    }

    #[test]
    fn duplicates_do_not_inflate_quorum() {
        let (scheme, keys, mut rng) = setup(4, 1, 4);
        let s = keys[0].sign_share(b"m", &mut rng);
        let s2 = keys[0].sign_share(b"m", &mut rng);
        let err = scheme.combine(b"m", &[s, s2, s], QuorumRule::Qualified);
        assert_eq!(err, Err(CombineError::InsufficientQuorum));
    }

    #[test]
    fn corrupted_coalition_cannot_forge() {
        let (scheme, keys, mut rng) = setup(4, 1, 5);
        // Only the single corrupted party signs: the "signature" cannot
        // certify even the weakest rule.
        let shares = [keys[3].sign_share(b"forged", &mut rng)];
        assert!(scheme
            .combine(b"forged", &shares, QuorumRule::Qualified)
            .is_err());
    }

    #[test]
    fn verify_rejects_inflated_signer_claim() {
        let (scheme, keys, mut rng) = setup(4, 1, 6);
        let shares: Vec<SignatureShare> = keys[..2]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        let sig = scheme
            .combine(b"m", &shares, QuorumRule::Qualified)
            .unwrap();
        // Claim an extra signer without its signature.
        let mut signers = *sig.signers();
        signers.insert(3);
        let forged = ThresholdSignature {
            signers,
            signatures: sig.signatures.clone(),
        };
        assert!(!scheme.verify(b"m", &forged, QuorumRule::Qualified, |_| false));
    }

    #[test]
    fn generalized_structure_quorums() {
        let structure = example1().unwrap();
        let mut rng = SeededRng::new(7);
        let (scheme, keys) = deal_tsig(&structure, &mut rng);
        // All of class a (parties 0-3) is corruptible: cannot certify.
        let class_a: Vec<SignatureShare> =
            (0..4).map(|p| keys[p].sign_share(b"m", &mut rng)).collect();
        assert!(scheme
            .combine(b"m", &class_a, QuorumRule::Qualified)
            .is_err());
        // Three servers across two classes are qualified.
        let mixed: Vec<SignatureShare> = [0usize, 4, 6]
            .iter()
            .map(|p| keys[*p].sign_share(b"m", &mut rng))
            .collect();
        let sig = scheme.combine(b"m", &mixed, QuorumRule::Qualified).unwrap();
        assert!(scheme.verify(b"m", &sig, QuorumRule::Qualified, |_| false));
    }

    #[test]
    fn threshold_signature_byte_roundtrip() {
        let (scheme, keys, mut rng) = setup(4, 1, 9);
        let shares: Vec<SignatureShare> = keys[..3]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        let sig = scheme.combine(b"m", &shares, QuorumRule::Core).unwrap();
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), sig.size_bytes());
        let parsed = ThresholdSignature::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sig);
        assert!(scheme.verify(b"m", &parsed, QuorumRule::Core, |_| false));
        // Truncated or padded input is rejected.
        assert!(ThresholdSignature::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes;
        padded.push(0);
        assert!(ThresholdSignature::from_bytes(&padded).is_none());
        assert!(ThresholdSignature::from_bytes(&[]).is_none());
    }

    #[test]
    fn verify_shares_accepts_honest_quorum() {
        let (scheme, keys, mut rng) = setup(10, 3, 20);
        let shares: Vec<SignatureShare> =
            keys.iter().map(|k| k.sign_share(b"m", &mut rng)).collect();
        assert_eq!(scheme.verify_shares(b"m", &shares, &mut rng), Ok(()));
        assert_eq!(scheme.verify_shares(b"m", &shares[..1], &mut rng), Ok(()));
        assert_eq!(scheme.verify_shares(b"m", &[], &mut rng), Ok(()));
    }

    #[test]
    fn verify_shares_attributes_culprits() {
        let (scheme, keys, mut rng) = setup(10, 3, 21);
        let mut shares: Vec<SignatureShare> =
            keys.iter().map(|k| k.sign_share(b"m", &mut rng)).collect();
        // Party 4 signs the wrong message, party 7's response is mangled.
        shares[4] = keys[4].sign_share(b"not-m", &mut rng);
        shares[7].signature.response = shares[7].signature.response + Scalar::ONE;
        assert_eq!(
            scheme.verify_shares(b"m", &shares, &mut rng),
            Err(vec![4, 7])
        );
    }

    #[test]
    fn verify_shares_flags_out_of_range_party() {
        let (scheme, keys, mut rng) = setup(4, 1, 22);
        let mut shares: Vec<SignatureShare> =
            keys.iter().map(|k| k.sign_share(b"m", &mut rng)).collect();
        shares[0].party = 9;
        assert_eq!(scheme.verify_shares(b"m", &shares, &mut rng), Err(vec![9]));
    }

    #[test]
    fn combine_preverified_matches_defensive_combine() {
        let (scheme, keys, mut rng) = setup(7, 2, 23);
        let shares: Vec<SignatureShare> = keys[..5]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        let defensive = scheme.combine(b"m", &shares, QuorumRule::Strong).unwrap();
        let fast = scheme
            .combine_preverified(&shares, QuorumRule::Strong)
            .unwrap();
        assert_eq!(defensive, fast);
        assert!(scheme.verify(b"m", &fast, QuorumRule::Strong, |_| false));
        assert_eq!(
            scheme.combine_preverified(&shares[..2], QuorumRule::Strong),
            Err(CombineError::InsufficientQuorum)
        );
    }

    #[test]
    fn combine_preverified_cannot_launder_forgeries() {
        // An unverified garbage share sneaks through combine_preverified
        // but the combined signature still fails verification.
        let (scheme, keys, mut rng) = setup(4, 1, 24);
        let mut shares: Vec<SignatureShare> = keys[..3]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        shares[2] = keys[2].sign_share(b"forged", &mut rng);
        let sig = scheme
            .combine_preverified(&shares, QuorumRule::Core)
            .unwrap();
        assert!(!scheme.verify(b"m", &sig, QuorumRule::Core, |_| false));
    }

    /// The per-signature check `verify` replaced, kept as the oracle.
    fn verify_oracle(
        scheme: &ThresholdSigScheme,
        message: &[u8],
        sig: &ThresholdSignature,
        rule: QuorumRule,
    ) -> bool {
        let tagged = domain_tagged(message);
        scheme.rule_satisfied(&sig.signers, rule)
            && sig.signers.len() == sig.signatures.len()
            && sig.signers.iter().zip(&sig.signatures).all(|(party, s)| {
                party < scheme.pubkeys.len() && scheme.pubkeys[party].verify(&tagged, s)
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Valid certificates at (4,1), (10,3), (16,5) and §4.3 Example 1,
        /// and each single corruption of one, checked with a random
        /// subset of the genuine shares already known: the verdict is the
        /// oracle's, and exactly the unknown signatures are batched.
        #[test]
        fn verify_matches_per_signature_oracle(
            seed in proptest::arbitrary::any::<u64>(),
            which in 0usize..4,
            rule in 0usize..3,
            corruption in 0usize..8,
            known_mask in proptest::arbitrary::any::<u64>(),
        ) {
            let structure = match which {
                0 => TrustStructure::threshold(4, 1).unwrap(),
                1 => TrustStructure::threshold(10, 3).unwrap(),
                2 => TrustStructure::threshold(16, 5).unwrap(),
                _ => example1().unwrap(),
            };
            let rule = [QuorumRule::Qualified, QuorumRule::Core, QuorumRule::Strong][rule];
            let mut rng = SeededRng::new(seed);
            let (scheme, keys) = deal_tsig(&structure, &mut rng);
            // Every party, then random removals while the rule holds.
            let mut signers: PartySet = (0..structure.n()).collect();
            for _ in 0..structure.n() {
                let mut fewer = signers;
                fewer.remove(rng.next_u64() as usize % structure.n());
                if scheme.rule_satisfied(&fewer, rule) {
                    signers = fewer;
                }
            }
            let shares: Vec<SignatureShare> = signers
                .iter()
                .map(|p| keys[p].sign_share(b"m", &mut rng))
                .collect();
            let mut sig = scheme.combine_preverified(&shares, rule).unwrap();
            let k = sig.signatures.len();
            let i = rng.next_u64() as usize % k;
            let mut message: &[u8] = b"m";
            match corruption {
                1 => sig.signatures[i].response = sig.signatures[i].response + Scalar::ONE,
                2 => {
                    let r = &mut sig.signatures[i].commitment;
                    *r = r.mul(&GroupElement::generator());
                }
                3 => sig.signatures.swap(i, (i + 1) % k),
                4 => message = b"other",
                5 => {
                    // Drop signers (with their signatures) until the rule fails.
                    while scheme.rule_satisfied(&sig.signers, rule) {
                        let p = sig.signers.iter().next().unwrap();
                        sig.signers.remove(p);
                        sig.signatures.remove(0);
                    }
                }
                6 => {
                    sig.signatures.pop();
                }
                7 => sig.signatures.push(sig.signatures[0]),
                _ => {}
            }
            // What a verifier that checked some shares over "m" knows.
            let known: Vec<SignatureShare> = if message == b"m" {
                shares
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| known_mask >> (j % 64) & 1 == 1)
                    .map(|(_, s)| *s)
                    .collect()
            } else {
                Vec::new()
            };
            let unknown = if scheme.rule_satisfied(&sig.signers, rule)
                && sig.signers.len() == sig.signatures.len()
            {
                sig.signers
                    .iter()
                    .zip(&sig.signatures)
                    .filter(|&(party, &signature)| {
                        !known.contains(&SignatureShare { party, signature })
                    })
                    .count() as u64
            } else {
                0
            };
            let oracle = verify_oracle(&scheme, message, &sig, rule);
            proptest::prop_assert_eq!(scheme.verify(message, &sig, rule, |_| false), oracle);
            let before = sintra_obs::global::sigs_verified_count();
            proptest::prop_assert_eq!(
                scheme.verify(message, &sig, rule, |s| known.contains(s)),
                oracle
            );
            proptest::prop_assert_eq!(sintra_obs::global::sigs_verified_count() - before, unknown);
            proptest::prop_assert_eq!(oracle, corruption == 0 || (corruption == 3 && k == 1));
        }
    }

    #[test]
    fn single_signer_certificate_matches_oracle() {
        // k = 1: the one structure here whose quorums can be a single
        // party is "any one of four" — n = 4 with t = 0.
        let (scheme, keys, mut rng) = setup(4, 0, 25);
        let share = keys[2].sign_share(b"m", &mut rng);
        let mut sig = scheme
            .combine_preverified(&[share], QuorumRule::Qualified)
            .unwrap();
        assert_eq!(sig.signatures.len(), 1);
        assert!(scheme.verify(b"m", &sig, QuorumRule::Qualified, |_| false));
        assert!(verify_oracle(&scheme, b"m", &sig, QuorumRule::Qualified));
        sig.signatures[0].response = sig.signatures[0].response + Scalar::ONE;
        assert!(!scheme.verify(b"m", &sig, QuorumRule::Qualified, |_| false));
        assert!(!verify_oracle(&scheme, b"m", &sig, QuorumRule::Qualified));
    }

    #[test]
    fn size_reporting() {
        let (scheme, keys, mut rng) = setup(7, 2, 8);
        let shares: Vec<SignatureShare> = keys[..5]
            .iter()
            .map(|k| k.sign_share(b"m", &mut rng))
            .collect();
        let sig = scheme.combine(b"m", &shares, QuorumRule::Strong).unwrap();
        assert!(sig.size_bytes() >= 5 * 64);
    }
}
