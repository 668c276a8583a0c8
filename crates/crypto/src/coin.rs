//! Threshold coin-tossing (Cachin-Kursawe-Shoup, Diffie-Hellman based).
//!
//! The randomized Byzantine agreement protocol of the architecture draws
//! its unpredictable shared randomness from this scheme: for every coin
//! *name* `C` (round tag), the value `F(C) = H'(ĝ^x)` — where
//! `ĝ = hash-to-group(C)` and `x` is the dealer-shared master secret —
//! is a random bit (or bit string) that
//!
//! * no corruptible coalition can predict before some honest party has
//!   released its share (unpredictability, under CDH in the random
//!   oracle model), and
//! * any qualified set of verified shares reconstructs (robustness),
//!   share validity being guaranteed by Chaum-Pedersen proofs against
//!   the dealer-published verification keys.
//!
//! The scheme is generic over the linear secret sharing scheme, so it
//! works unchanged for the paper's generalized `Q³` structures.

use crate::dleq::DleqProof;
use crate::field::Scalar;
use crate::group::GroupElement;
use crate::hash::Hasher;
use crate::lsss::{LeafId, SharingScheme};
use crate::rng::SeededRng;
use serde::{Deserialize, Serialize};
use sintra_adversary::party::{PartyId, PartySet};
use std::collections::BTreeMap;

const DLEQ_DOMAIN: &str = "sintra/coin/share";

/// Public parameters of the coin: the sharing scheme and per-leaf
/// verification keys `g^{x_leaf}`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoinScheme {
    scheme: SharingScheme,
    verification: Vec<GroupElement>,
}

/// A party's secret key material: its share components of the master
/// secret.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoinSecretKey {
    party: PartyId,
    components: Vec<(LeafId, Scalar)>,
}

/// A coin share released by one party for a specific coin name, with
/// validity proofs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoinShare {
    party: PartyId,
    elements: Vec<(LeafId, GroupElement, DleqProof)>,
}

impl CoinShare {
    /// The issuing party.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Serialized size in bytes: party id and component count (u32
    /// each) plus per-component leaf id (u32), group element (32 B),
    /// and commitment-form Chaum-Pedersen proof (96 B). Matches the
    /// length of [`to_bytes`](Self::to_bytes) exactly.
    pub fn size_bytes(&self) -> usize {
        8 + self.elements.len() * (4 + 32 + 96)
    }

    /// Canonical byte encoding: `party (u32 BE) ‖ count (u32 BE) ‖
    /// (leaf u32 BE ‖ element 32 B ‖ proof 96 B)*`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&(self.party as u32).to_be_bytes());
        out.extend_from_slice(&(self.elements.len() as u32).to_be_bytes());
        for (leaf, element, proof) in &self.elements {
            out.extend_from_slice(&(*leaf as u32).to_be_bytes());
            out.extend_from_slice(&element.to_bytes());
            out.extend_from_slice(&proof.to_bytes());
        }
        out
    }

    /// Parses bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed input: wrong length for the declared
    /// component count, or a non-canonical group element or proof
    /// commitment in any component.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let party = u32::from_be_bytes(bytes[..4].try_into().ok()?) as PartyId;
        let count = u32::from_be_bytes(bytes[4..8].try_into().ok()?) as usize;
        let rest = &bytes[8..];
        if rest.len() != count * (4 + 32 + 96) {
            return None;
        }
        let elements = rest
            .chunks_exact(4 + 32 + 96)
            .map(|chunk| {
                let leaf = u32::from_be_bytes(chunk[..4].try_into().ok()?) as LeafId;
                let element = GroupElement::from_bytes(&chunk[4..36].try_into().ok()?)?;
                let proof = DleqProof::from_bytes(&chunk[36..].try_into().ok()?)?;
                Some((leaf, element, proof))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(CoinShare { party, elements })
    }

    /// Fault-injection helper: perturbs every share element (squaring it
    /// in the group) so the attached Chaum-Pedersen proofs no longer
    /// verify, while the party id and leaf layout stay structurally
    /// valid. Adversarial behaviors use this to exercise the
    /// batch-verification fallback and culprit attribution.
    pub fn tamper(&mut self) {
        for (_leaf, element, _proof) in &mut self.elements {
            *element = element.exp(&Scalar::from_u64(2));
        }
    }
}

impl CoinSecretKey {
    /// The owning party.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Applies a proactive refresh vector (a sharing of zero), replacing
    /// this epoch's components.
    pub(crate) fn apply_refresh(&mut self, deltas: &[Scalar]) {
        for (leaf, x) in &mut self.components {
            *x = *x + deltas[*leaf];
        }
    }

    /// Produces this party's share of the named coin.
    ///
    /// The `ĝ`-base exponentiations — one per component for the share
    /// element, one for its proof commitment — are computed up front.
    /// Nonces are drawn in component order first, so the share is
    /// bit-identical to the per-component construction for a given RNG
    /// state.
    pub fn share(&self, name: &[u8], rng: &mut SeededRng) -> CoinShare {
        let g = GroupElement::generator();
        let g_hat = coin_base(name);
        let nonces: Vec<Scalar> = self
            .components
            .iter()
            .map(|_| rng.next_nonzero_scalar())
            .collect();
        let mut exps = Vec::with_capacity(2 * self.components.len());
        for ((_leaf, x), w) in self.components.iter().zip(&nonces) {
            exps.push(*x);
            exps.push(*w);
        }
        let powers: Vec<GroupElement> = exps.iter().map(|e| g_hat.exp(e)).collect();
        let elements = self
            .components
            .iter()
            .zip(&nonces)
            .enumerate()
            .map(|(i, ((leaf, x), w))| {
                let vk = g.exp(x);
                let share = powers[2 * i];
                let commit_g = g.exp(w);
                let proof = DleqProof::prove_prepared(
                    DLEQ_DOMAIN,
                    &g,
                    &vk,
                    &g_hat,
                    &share,
                    x,
                    w,
                    commit_g,
                    powers[2 * i + 1],
                );
                (*leaf, share, proof)
            })
            .collect();
        CoinShare {
            party: self.party,
            elements,
        }
    }
}

impl CoinScheme {
    /// Assembles the scheme from dealer output (crate-internal; use
    /// [`crate::dealer::Dealer`]).
    pub(crate) fn from_parts(scheme: SharingScheme, verification: Vec<GroupElement>) -> Self {
        CoinScheme {
            scheme,
            verification,
        }
    }

    /// The underlying sharing scheme.
    pub fn sharing_scheme(&self) -> &SharingScheme {
        &self.scheme
    }

    /// Applies a proactive refresh vector to the verification keys
    /// (`vk_leaf ← vk_leaf · g^{δ_leaf}`).
    pub(crate) fn apply_refresh(&mut self, deltas: &[Scalar]) {
        let g = GroupElement::generator();
        for (leaf, vk) in self.verification.iter_mut().enumerate() {
            *vk = vk.mul(&g.exp(&deltas[leaf]));
        }
    }

    /// Structural validity: the party is in range and the share carries
    /// exactly its leaves, in layout order (no proof checks).
    fn share_layout_ok(&self, share: &CoinShare) -> bool {
        if share.party >= self.scheme.n() {
            return false;
        }
        let expected = self.scheme.leaves_by_party(share.party);
        expected.len() == share.elements.len()
            && share
                .elements
                .iter()
                .zip(expected)
                .all(|((leaf, _, _), expected_leaf)| leaf == expected_leaf)
    }

    /// Verifies a coin share: party must own each component leaf and each
    /// element must carry a valid equality proof against the
    /// corresponding verification key.
    pub fn verify_share(&self, name: &[u8], share: &CoinShare) -> bool {
        if !self.share_layout_ok(share) {
            return false;
        }
        let g = GroupElement::generator();
        let g_hat = coin_base(name);
        share.elements.iter().all(|(leaf, element, proof)| {
            proof.verify(DLEQ_DOMAIN, &g, &self.verification[*leaf], &g_hat, element)
        })
    }

    /// Batch-verifies a quorum of coin shares: all Chaum-Pedersen
    /// equations (across every element of every share) are folded into
    /// one random-linear-combination multi-exponentiation via
    /// [`crate::dleq::batch_verify`] — the quorum-time fast path that
    /// replaces per-arrival share verification.
    ///
    /// # Errors
    ///
    /// Returns the attributed culprits: parties whose share is
    /// structurally malformed or (determined by per-share fallback when
    /// the batch equation fails) carries an invalid proof. Honest
    /// senders are never blamed.
    pub fn verify_shares(
        &self,
        name: &[u8],
        shares: &[CoinShare],
        rng: &mut SeededRng,
    ) -> Result<(), Vec<PartyId>> {
        let g = GroupElement::generator();
        let g_hat = coin_base(name);
        let mut culprits: Vec<PartyId> = Vec::new();
        let mut statements = Vec::new();
        let mut batched: Vec<&CoinShare> = Vec::new();
        for share in shares {
            if !self.share_layout_ok(share) {
                culprits.push(share.party);
                continue;
            }
            for (leaf, element, proof) in &share.elements {
                statements.push((self.verification[*leaf], *element, *proof));
            }
            batched.push(share);
        }
        if !crate::dleq::batch_verify(DLEQ_DOMAIN, &g, &g_hat, &statements, rng) {
            sintra_obs::global::crypto_share_fallback(batched.len() as u64);
            culprits.extend(
                batched
                    .iter()
                    .filter(|s| !self.verify_share(name, s))
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

    /// Batch-verifies share quorums for *several* coin names (rounds) in
    /// one grouped multi-exponentiation via
    /// [`crate::dleq::batch_verify_grouped`]. Each round contributes a
    /// group over its own hashed base `ĝ = H(name)`; the shared
    /// generator and the fixed per-leaf verification keys repeat across
    /// groups and are merged inside the multi-exponentiation, so the
    /// per-round cost falls well below a standalone
    /// [`verify_shares`](Self::verify_shares) call. This is the
    /// batch-size axis of the verification engine's throughput sweep.
    ///
    /// Returns one verdict per input batch, in order. If the grouped
    /// equation fails, blame is attributed by falling back to per-round
    /// [`verify_shares`](Self::verify_shares) (which in turn falls back
    /// per share), so honest rounds still come back `Ok` and culprits
    /// are named exactly as in the single-round path.
    pub fn verify_share_batches(
        &self,
        batches: &[(&[u8], &[CoinShare])],
        rng: &mut SeededRng,
    ) -> Vec<Result<(), Vec<PartyId>>> {
        let g = GroupElement::generator();
        // Layout culprits are attributable without any group math; the
        // grouped equation covers only well-formed shares.
        let mut layout_culprits: Vec<Vec<PartyId>> = vec![Vec::new(); batches.len()];
        let mut groups = Vec::with_capacity(batches.len());
        for (i, (name, shares)) in batches.iter().enumerate() {
            let mut statements = Vec::new();
            for share in *shares {
                if !self.share_layout_ok(share) {
                    layout_culprits[i].push(share.party);
                    continue;
                }
                for (leaf, element, proof) in &share.elements {
                    statements.push((self.verification[*leaf], *element, *proof));
                }
            }
            groups.push((g, coin_base(name), statements));
        }
        let group_refs: Vec<crate::dleq::DleqGroup<'_>> = groups
            .iter()
            .map(|(g, h, s)| (*g, *h, s.as_slice()))
            .collect();
        if crate::dleq::batch_verify_grouped(DLEQ_DOMAIN, &group_refs, rng) {
            layout_culprits
                .into_iter()
                .map(|mut culprits| {
                    if culprits.is_empty() {
                        Ok(())
                    } else {
                        culprits.sort_unstable();
                        culprits.dedup();
                        Err(culprits)
                    }
                })
                .collect()
        } else {
            batches
                .iter()
                .map(|(name, shares)| self.verify_shares(name, shares, rng))
                .collect()
        }
    }

    /// Combines verified shares into the coin value.
    ///
    /// `shares` must all be for the same `name` and previously verified
    /// with [`verify_share`](Self::verify_share); unverified shares are
    /// re-checked here for defence in depth. Returns `None` if the share
    /// holders do not form a qualified set.
    pub fn combine(&self, name: &[u8], shares: &[CoinShare]) -> Option<CoinValue> {
        let verified: Vec<CoinShare> = shares
            .iter()
            .filter(|s| self.verify_share(name, s))
            .cloned()
            .collect();
        self.combine_preverified(name, &verified)
    }

    /// Combines shares the caller already verified (individually or via
    /// [`verify_shares`](Self::verify_shares)) without re-checking their
    /// proofs — the protocol-layer fast path. Structurally malformed
    /// shares are still dropped. Returns `None` if the share holders do
    /// not form a qualified set.
    pub fn combine_preverified(&self, name: &[u8], shares: &[CoinShare]) -> Option<CoinValue> {
        let mut holders = PartySet::new();
        let mut elements: BTreeMap<LeafId, GroupElement> = BTreeMap::new();
        for share in shares {
            if !self.share_layout_ok(share) {
                continue;
            }
            holders.insert(share.party);
            for (leaf, element, _) in &share.elements {
                elements.insert(*leaf, *element);
            }
        }
        let value = self.scheme.reconstruct_in_exponent(&holders, &elements)?;
        Some(CoinValue::from_element(name, &value))
    }
}

/// The reconstructed coin value, exposing bit and integer views.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoinValue {
    digest: [u8; 32],
}

impl CoinValue {
    fn from_element(name: &[u8], element: &GroupElement) -> Self {
        let digest = Hasher::new("sintra/coin/value")
            .field(name)
            .field(&element.to_bytes())
            .finish();
        CoinValue { digest }
    }

    /// The coin as a single bit (what binary agreement consumes).
    pub fn bit(&self) -> bool {
        self.digest[0] & 1 == 1
    }

    /// The coin as a 64-bit integer (for leader/permutation selection in
    /// multi-valued agreement).
    pub fn u64(&self) -> u64 {
        u64::from_be_bytes(self.digest[..8].try_into().expect("digest has 32 bytes"))
    }

    /// The full 32-byte value.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.digest
    }
}

/// Derives the per-coin base element `ĝ` from the coin name.
fn coin_base(name: &[u8]) -> GroupElement {
    GroupElement::hash_to_group("sintra/coin/base", name)
}

/// Dealer-side generation of a coin scheme (used by [`crate::dealer`]).
pub(crate) fn deal_coin(
    scheme: &SharingScheme,
    rng: &mut SeededRng,
) -> (CoinScheme, Vec<CoinSecretKey>) {
    let secret = rng.next_nonzero_scalar();
    let values = scheme.share(secret, rng);
    let g = GroupElement::generator();
    let verification: Vec<GroupElement> = values.iter().map(|v| g.exp(v)).collect();
    let keys = (0..scheme.n())
        .map(|party| CoinSecretKey {
            party,
            components: scheme
                .leaves_of(party)
                .into_iter()
                .map(|leaf| (leaf, values[leaf]))
                .collect(),
        })
        .collect();
    (CoinScheme::from_parts(scheme.clone(), verification), keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_adversary::attributes::example1;
    use sintra_adversary::structure::TrustStructure;

    fn threshold_setup(
        n: usize,
        t: usize,
        seed: u64,
    ) -> (CoinScheme, Vec<CoinSecretKey>, SeededRng) {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        let mut rng = SeededRng::new(seed);
        let (coin, keys) = deal_coin(&scheme, &mut rng);
        (coin, keys, rng)
    }

    #[test]
    fn shares_verify_and_combine() {
        let (coin, keys, mut rng) = threshold_setup(4, 1, 1);
        let shares: Vec<CoinShare> = keys.iter().map(|k| k.share(b"round-0", &mut rng)).collect();
        for s in &shares {
            assert!(coin.verify_share(b"round-0", s));
        }
        let value = coin
            .combine(b"round-0", &shares[..2])
            .expect("2 = t+1 shares suffice");
        // All parties derive the same value from any qualified subset.
        let value2 = coin.combine(b"round-0", &shares[2..]).unwrap();
        assert_eq!(value, value2);
    }

    #[test]
    fn insufficient_shares_fail() {
        let (coin, keys, mut rng) = threshold_setup(4, 1, 2);
        let share = keys[0].share(b"c", &mut rng);
        assert!(coin.combine(b"c", &[share]).is_none());
        assert!(coin.combine(b"c", &[]).is_none());
    }

    #[test]
    fn share_for_wrong_name_rejected() {
        let (coin, keys, mut rng) = threshold_setup(4, 1, 3);
        let share = keys[0].share(b"name-a", &mut rng);
        assert!(coin.verify_share(b"name-a", &share));
        assert!(!coin.verify_share(b"name-b", &share));
    }

    #[test]
    fn forged_share_rejected_and_ignored_in_combine() {
        let (coin, keys, mut rng) = threshold_setup(4, 1, 4);
        let mut forged = keys[0].share(b"c", &mut rng);
        // Corrupt the group element.
        forged.elements[0].1 = GroupElement::generator();
        assert!(!coin.verify_share(b"c", &forged));
        // Combine skips the bad share: with only one other good share the
        // holders are not qualified.
        let good = keys[1].share(b"c", &mut rng);
        assert!(coin
            .combine(b"c", &[forged.clone(), good.clone()])
            .is_none());
        // Adding a second good share reaches the t+1 quorum.
        let good2 = keys[2].share(b"c", &mut rng);
        assert!(coin.combine(b"c", &[forged, good, good2]).is_some());
    }

    #[test]
    fn different_names_give_independent_coins() {
        let (coin, keys, mut rng) = threshold_setup(4, 1, 5);
        let mut values = Vec::new();
        for round in 0u64..16 {
            let name = format!("round-{round}");
            let shares: Vec<CoinShare> = keys[..2]
                .iter()
                .map(|k| k.share(name.as_bytes(), &mut rng))
                .collect();
            values.push(coin.combine(name.as_bytes(), &shares).unwrap());
        }
        // Not all coins equal (overwhelming probability) and bits vary.
        let bits: Vec<bool> = values.iter().map(|v| v.bit()).collect();
        assert!(
            bits.iter().any(|b| *b) && bits.iter().any(|b| !*b),
            "16 coins should contain both bit values"
        );
    }

    #[test]
    fn generalized_structure_coin() {
        let ts = example1().unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        let mut rng = SeededRng::new(6);
        let (coin, keys) = deal_coin(&scheme, &mut rng);
        // Qualified: parties {0, 4, 6} (3 servers, 3 classes).
        let shares: Vec<CoinShare> = [0usize, 4, 6]
            .iter()
            .map(|p| keys[*p].share(b"c", &mut rng))
            .collect();
        let v1 = coin.combine(b"c", &shares).expect("qualified set combines");
        // Unqualified: all of class a.
        let class_a: Vec<CoinShare> = (0..4).map(|p| keys[p].share(b"c", &mut rng)).collect();
        assert!(coin.combine(b"c", &class_a).is_none());
        // A different qualified set agrees on the value.
        let shares2: Vec<CoinShare> = [1usize, 5, 7, 8]
            .iter()
            .map(|p| keys[*p].share(b"c", &mut rng))
            .collect();
        assert_eq!(coin.combine(b"c", &shares2), Some(v1));
    }

    #[test]
    fn verify_shares_accepts_honest_quorum() {
        let (coin, keys, mut rng) = threshold_setup(10, 3, 20);
        let shares: Vec<CoinShare> = keys.iter().map(|k| k.share(b"c", &mut rng)).collect();
        assert_eq!(coin.verify_shares(b"c", &shares, &mut rng), Ok(()));
        assert_eq!(coin.verify_shares(b"c", &shares[..1], &mut rng), Ok(()));
        assert_eq!(coin.verify_shares(b"c", &[], &mut rng), Ok(()));
    }

    #[test]
    fn verify_shares_attributes_corrupted_share() {
        let (coin, keys, mut rng) = threshold_setup(10, 3, 21);
        let mut shares: Vec<CoinShare> = keys.iter().map(|k| k.share(b"c", &mut rng)).collect();
        // Party 2's element is swapped out, party 6 proves for the wrong
        // coin name, party 8's layout is truncated.
        shares[2].elements[0].1 = GroupElement::generator();
        shares[6] = keys[6].share(b"other", &mut rng);
        shares[8].elements.clear();
        assert_eq!(
            coin.verify_shares(b"c", &shares, &mut rng),
            Err(vec![2, 6, 8])
        );
    }

    #[test]
    fn verify_share_batches_accepts_honest_rounds() {
        let (coin, keys, mut rng) = threshold_setup(10, 3, 24);
        let names: Vec<Vec<u8>> = (0..4u64)
            .map(|r| format!("round-{r}").into_bytes())
            .collect();
        let per_round: Vec<Vec<CoinShare>> = names
            .iter()
            .map(|name| keys.iter().map(|k| k.share(name, &mut rng)).collect())
            .collect();
        let batches: Vec<(&[u8], &[CoinShare])> = names
            .iter()
            .zip(&per_round)
            .map(|(n, s)| (n.as_slice(), s.as_slice()))
            .collect();
        let verdicts = coin.verify_share_batches(&batches, &mut rng);
        assert_eq!(verdicts, vec![Ok(()); 4]);
        // Degenerate shapes: no batches, and an empty round.
        assert!(coin.verify_share_batches(&[], &mut rng).is_empty());
        let empty: Vec<(&[u8], &[CoinShare])> = vec![(b"r", &[])];
        assert_eq!(coin.verify_share_batches(&empty, &mut rng), vec![Ok(())]);
    }

    #[test]
    fn verify_share_batches_attributes_culprits_per_round() {
        let (coin, keys, mut rng) = threshold_setup(10, 3, 25);
        let names: Vec<Vec<u8>> = (0..3u64)
            .map(|r| format!("round-{r}").into_bytes())
            .collect();
        let mut per_round: Vec<Vec<CoinShare>> = names
            .iter()
            .map(|name| keys.iter().map(|k| k.share(name, &mut rng)).collect())
            .collect();
        // Round 0 honest; round 1 has a forged element (party 4) and a
        // malformed layout (party 7); round 2 has a wrong-name proof
        // (party 1).
        per_round[1][4].elements[0].1 = GroupElement::generator();
        per_round[1][7].elements.clear();
        per_round[2][1] = keys[1].share(b"elsewhere", &mut rng);
        let batches: Vec<(&[u8], &[CoinShare])> = names
            .iter()
            .zip(&per_round)
            .map(|(n, s)| (n.as_slice(), s.as_slice()))
            .collect();
        let verdicts = coin.verify_share_batches(&batches, &mut rng);
        assert_eq!(
            verdicts,
            vec![Ok(()), Err(vec![4, 7]), Err(vec![1])],
            "honest rounds stay Ok, culprits attributed to their round"
        );
    }

    #[test]
    fn verify_share_batches_matches_per_round_verification() {
        let (coin, keys, mut rng) = threshold_setup(7, 2, 26);
        let names: Vec<Vec<u8>> = (0..5u64).map(|r| format!("n{r}").into_bytes()).collect();
        let per_round: Vec<Vec<CoinShare>> = names
            .iter()
            .map(|name| keys.iter().map(|k| k.share(name, &mut rng)).collect())
            .collect();
        let batches: Vec<(&[u8], &[CoinShare])> = names
            .iter()
            .zip(&per_round)
            .map(|(n, s)| (n.as_slice(), s.as_slice()))
            .collect();
        let grouped = coin.verify_share_batches(&batches, &mut rng);
        let individual: Vec<_> = batches
            .iter()
            .map(|(n, s)| coin.verify_shares(n, s, &mut rng))
            .collect();
        assert_eq!(grouped, individual);
    }

    /// Timing probe for the aggregation axis; run manually with
    /// `cargo test --release -p sintra-crypto -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn verify_share_batches_timing_probe() {
        let (coin, keys, mut rng) = threshold_setup(10, 3, 27);
        for batch in [1usize, 2, 4, 8, 16] {
            let names: Vec<Vec<u8>> = (0..batch as u64)
                .map(|r| format!("round-{r}").into_bytes())
                .collect();
            let per_round: Vec<Vec<CoinShare>> = names
                .iter()
                .map(|name| keys.iter().map(|k| k.share(name, &mut rng)).collect())
                .collect();
            let batches: Vec<(&[u8], &[CoinShare])> = names
                .iter()
                .zip(&per_round)
                .map(|(n, s)| (n.as_slice(), s.as_slice()))
                .collect();
            let mut grouped_best = u128::MAX;
            let mut single_best = u128::MAX;
            for _ in 0..10 {
                let t0 = std::time::Instant::now();
                let v = coin.verify_share_batches(&batches, &mut rng);
                grouped_best = grouped_best.min(t0.elapsed().as_nanos());
                assert!(v.iter().all(|r| r.is_ok()));
                let t0 = std::time::Instant::now();
                for (n, s) in &batches {
                    assert_eq!(coin.verify_shares(n, s, &mut rng), Ok(()));
                }
                single_best = single_best.min(t0.elapsed().as_nanos());
            }
            println!(
                "B={batch:2}  grouped={:8}ns/round  per-round={:8}ns/round  ratio={:.2}x",
                grouped_best / batch as u128,
                single_best / batch as u128,
                single_best as f64 / grouped_best as f64
            );
        }
    }

    #[test]
    fn combine_preverified_matches_defensive_combine() {
        let (coin, keys, mut rng) = threshold_setup(7, 2, 22);
        let shares: Vec<CoinShare> = keys[..3].iter().map(|k| k.share(b"c", &mut rng)).collect();
        let defensive = coin.combine(b"c", &shares).unwrap();
        let fast = coin.combine_preverified(b"c", &shares).unwrap();
        assert_eq!(defensive, fast);
        assert!(coin.combine_preverified(b"c", &shares[..1]).is_none());
    }

    #[test]
    fn generalized_structure_batch_verify() {
        let ts = example1().unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        let mut rng = SeededRng::new(23);
        let (coin, keys) = deal_coin(&scheme, &mut rng);
        let mut shares: Vec<CoinShare> = keys.iter().map(|k| k.share(b"c", &mut rng)).collect();
        assert_eq!(coin.verify_shares(b"c", &shares, &mut rng), Ok(()));
        shares[5].elements[0].1 = GroupElement::generator_h();
        assert_eq!(coin.verify_shares(b"c", &shares, &mut rng), Err(vec![5]));
    }

    #[test]
    fn coin_value_views() {
        let (coin, keys, mut rng) = threshold_setup(4, 1, 7);
        let shares: Vec<CoinShare> = keys[..2].iter().map(|k| k.share(b"v", &mut rng)).collect();
        let v = coin.combine(b"v", &shares).unwrap();
        assert_eq!(v.bit(), v.bytes()[0] & 1 == 1);
        let _ = v.u64();
    }
}
