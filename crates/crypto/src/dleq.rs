//! Chaum-Pedersen proofs of discrete-logarithm equality (NIZK).
//!
//! The robustness of every threshold scheme in the architecture rests on
//! share validity proofs: a party submitting a coin share `ĝ^x_i` or a
//! decryption share `u^x_i` must prove that the same exponent `x_i`
//! behind its public verification key `g^x_i` was used, without
//! revealing `x_i`. The Chaum-Pedersen protocol made non-interactive via
//! Fiat-Shamir (in the random-oracle model, which the paper explicitly
//! accepts for all its schemes) does exactly this.

use crate::field::Scalar;
use crate::group::GroupElement;
use crate::hash::Hasher;
use serde::{Deserialize, Serialize};

/// A non-interactive proof that `log_g(a) = log_h(b)`.
///
/// # Examples
///
/// ```
/// use sintra_crypto::dleq::DleqProof;
/// use sintra_crypto::group::GroupElement;
/// use sintra_crypto::rng::SeededRng;
///
/// let mut rng = SeededRng::new(1);
/// let x = rng.next_scalar();
/// let g = GroupElement::generator();
/// let h = GroupElement::hash_to_group("base", b"h");
/// let (a, b) = (g.exp(&x), h.exp(&x));
/// let proof = DleqProof::prove("demo", &g, &a, &h, &b, &x, &mut rng);
/// assert!(proof.verify("demo", &g, &a, &h, &b));
/// ```
/// The proof is kept in *commitment form* (`A = g^w`, `B = h^w`, `z`)
/// rather than challenge/response form: with the commitments explicit,
/// verification is a pair of pure group equations (`g^z = A·a^c`,
/// `h^z = B·b^c`), which is what allows a whole quorum of proofs to be
/// folded into a single multi-exponentiation in [`batch_verify`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DleqProof {
    pub(crate) commit_g: GroupElement,
    pub(crate) commit_h: GroupElement,
    pub(crate) response: Scalar,
}

impl DleqProof {
    /// Produces a proof that `a = g^x` and `b = h^x` for the same `x`.
    ///
    /// The `domain` string binds the proof to its protocol context so a
    /// proof generated for one purpose cannot be replayed in another.
    pub fn prove(
        domain: &str,
        g: &GroupElement,
        a: &GroupElement,
        h: &GroupElement,
        b: &GroupElement,
        x: &Scalar,
        rng: &mut crate::rng::SeededRng,
    ) -> DleqProof {
        Self::prove_midstate(&Self::challenge_prefix(domain, g, h), g, a, h, b, x, rng)
    }

    /// [`prove`](Self::prove) with the Fiat-Shamir midstate over
    /// `(domain, g, h)` precomputed by [`challenge_midstate`]
    /// (Self::challenge_midstate) — a TDH2 decryption share proves one
    /// statement per key leaf, all against the same base pair
    /// `(g, u)`, so the shared prefix is absorbed once per share
    /// instead of once per leaf. Proofs are bit-identical to
    /// [`prove`](Self::prove) given the same RNG state.
    pub(crate) fn prove_midstate(
        prefix: &Hasher,
        g: &GroupElement,
        a: &GroupElement,
        h: &GroupElement,
        b: &GroupElement,
        x: &Scalar,
        rng: &mut crate::rng::SeededRng,
    ) -> DleqProof {
        let w = rng.next_nonzero_scalar();
        let commit_g = g.exp(&w);
        let commit_h = h.exp(&w);
        let challenge = Self::challenge_suffix(prefix, a, b, &commit_g, &commit_h);
        let response = w + challenge * *x;
        DleqProof {
            commit_g,
            commit_h,
            response,
        }
    }

    /// The Fiat-Shamir midstate shared by every proof over the base
    /// pair `(g, h)` in `domain`; feed it to
    /// [`prove_midstate`](Self::prove_midstate) /
    /// [`verify_midstate`](Self::verify_midstate).
    pub(crate) fn challenge_midstate(domain: &str, g: &GroupElement, h: &GroupElement) -> Hasher {
        Self::challenge_prefix(domain, g, h)
    }

    /// Completes a proof whose nonce `w` and commitments `g^w`, `h^w`
    /// the caller computed — batched share generation precomputes the
    /// `h^w` exponentiations.
    /// The challenge and response are derived exactly as in
    /// [`prove`](Self::prove), so the resulting proof is bit-identical
    /// given the same nonce.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prove_prepared(
        domain: &str,
        g: &GroupElement,
        a: &GroupElement,
        h: &GroupElement,
        b: &GroupElement,
        x: &Scalar,
        w: &Scalar,
        commit_g: GroupElement,
        commit_h: GroupElement,
    ) -> DleqProof {
        let challenge = Self::challenge(domain, g, a, h, b, &commit_g, &commit_h);
        let response = *w + challenge * *x;
        DleqProof {
            commit_g,
            commit_h,
            response,
        }
    }

    /// Verifies the proof against the four public elements:
    /// `g^z == A · a^c` and `h^z == B · b^c`.
    pub fn verify(
        &self,
        domain: &str,
        g: &GroupElement,
        a: &GroupElement,
        h: &GroupElement,
        b: &GroupElement,
    ) -> bool {
        self.verify_midstate(&Self::challenge_prefix(domain, g, h), g, a, h, b)
    }

    /// [`verify`](Self::verify) with the `(domain, g, h)` midstate
    /// precomputed — the per-share fallback path of TDH2 checks every
    /// leaf proof of a share against the same base pair.
    pub(crate) fn verify_midstate(
        &self,
        prefix: &Hasher,
        g: &GroupElement,
        a: &GroupElement,
        h: &GroupElement,
        b: &GroupElement,
    ) -> bool {
        let c = Self::challenge_suffix(prefix, a, b, &self.commit_g, &self.commit_h);
        let neg_c = -c;
        g.exp2(&self.response, a, &neg_c) == self.commit_g
            && h.exp2(&self.response, b, &neg_c) == self.commit_h
    }

    /// Serializes as 96 bytes: `A ‖ B ‖ z` (two group elements and the
    /// response scalar, each 32 bytes big-endian).
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..32].copy_from_slice(&self.commit_g.to_bytes());
        out[32..64].copy_from_slice(&self.commit_h.to_bytes());
        out[64..].copy_from_slice(&self.response.to_be_bytes());
        out
    }

    /// Parses 96 bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` if either commitment is not a canonical subgroup
    /// element.
    pub fn from_bytes(bytes: &[u8; 96]) -> Option<Self> {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        let mut z = [0u8; 32];
        a.copy_from_slice(&bytes[..32]);
        b.copy_from_slice(&bytes[32..64]);
        z.copy_from_slice(&bytes[64..]);
        Some(DleqProof {
            commit_g: GroupElement::from_bytes(&a)?,
            commit_h: GroupElement::from_bytes(&b)?,
            response: Scalar::from_be_bytes(&z),
        })
    }

    pub(crate) fn challenge(
        domain: &str,
        g: &GroupElement,
        a: &GroupElement,
        h: &GroupElement,
        b: &GroupElement,
        commit_g: &GroupElement,
        commit_h: &GroupElement,
    ) -> Scalar {
        Self::challenge_suffix(
            &Self::challenge_prefix(domain, g, h),
            a,
            b,
            commit_g,
            commit_h,
        )
    }

    /// Hash midstate over the statement parts shared by a whole batch
    /// (the domain and the fixed base pair). [`batch_verify`] computes
    /// this once and replays the midstate per proof, so the shared
    /// prefix is absorbed once per batch instead of once per statement.
    fn challenge_prefix(domain: &str, g: &GroupElement, h: &GroupElement) -> Hasher {
        Hasher::new("sintra/dleq")
            .field(domain.as_bytes())
            .fixed(&g.to_bytes())
            .fixed(&h.to_bytes())
    }

    fn challenge_suffix(
        prefix: &Hasher,
        a: &GroupElement,
        b: &GroupElement,
        commit_g: &GroupElement,
        commit_h: &GroupElement,
    ) -> Scalar {
        // One contiguous absorb of the four 32-byte elements. The
        // challenge is 128 bits (see [`Hasher::finish_challenge`]):
        // enough for 2⁻¹²⁸ knowledge error, and it halves the digit
        // events the challenge-weighted terms contribute to the
        // verification multi-exponentiation.
        let mut buf = [0u8; 128];
        buf[..32].copy_from_slice(&a.to_bytes());
        buf[32..64].copy_from_slice(&b.to_bytes());
        buf[64..96].copy_from_slice(&commit_g.to_bytes());
        buf[96..].copy_from_slice(&commit_h.to_bytes());
        prefix.clone().fixed(&buf).finish_challenge()
    }
}

/// Verifies many Chaum-Pedersen proofs over the *same* base pair
/// `(g, h)` with a single random-linear-combination
/// multi-exponentiation.
///
/// Each statement `(a_i, b_i, proof_i)` claims `log_g(a_i) =
/// log_h(b_i)`. The verifier draws independent short (64-bit) nonzero
/// randomizers `r_i`, `s_i` for the two equations of each proof and
/// checks
///
/// ```text
/// g^{-Σ r_i z_i} · h^{-Σ s_i z_i} · Π A_i^{r_i} a_i^{r_i c_i}
///                                 · Π B_i^{s_i} b_i^{s_i c_i} == 1
/// ```
///
/// which holds whenever every individual proof verifies, and fails
/// except with probability ~2^-64 (per equation, over the freshly drawn
/// randomizers — the Bellare-Garay-Rabin small-exponents test) when any
/// proof is invalid. The two equations of one proof get *independent*
/// randomizers so a forger cannot cancel an error in the `g`-equation
/// against a compensating error in the `h`-equation.
///
/// The first proof's weights are fixed to `r_0 = s_0 = 1` (the standard
/// batching optimization): if only proof 0 is bad its residual stands
/// alone and the product misses 1 deterministically, and if any later
/// proof is bad its *random* weight already makes cancellation
/// negligible, so soundness is unchanged while proof 0's commitment
/// terms cost two multiplications instead of two short exponentiations.
///
/// A `false` result identifies no culprit — callers fall back to
/// per-proof [`DleqProof::verify`] to attribute blame.
pub fn batch_verify(
    domain: &str,
    g: &GroupElement,
    h: &GroupElement,
    statements: &[(GroupElement, GroupElement, DleqProof)],
    rng: &mut crate::rng::SeededRng,
) -> bool {
    match statements {
        [] => return true,
        [(a, b, proof)] => return proof.verify(domain, g, a, h, b),
        _ => sintra_obs::global::crypto_batch_verify(),
    }
    let mut terms = Vec::with_capacity(4 * statements.len() + 2);
    let mut first = true;
    fold_group(domain, g, h, statements, rng, &mut first, &mut terms);
    GroupElement::multi_exp(&terms) == GroupElement::identity()
}

/// One base-pair group of a grouped batch verification: the pair
/// `(g, h)` and the statements proved against it.
pub type DleqGroup<'a> = (
    GroupElement,
    GroupElement,
    &'a [(GroupElement, GroupElement, DleqProof)],
);

/// Verifies proof batches over *several* base pairs — e.g. one coin
/// quorum per round, each round with its own hashed base `ĝ` — in a
/// single multi-exponentiation.
///
/// This is the aggregation axis of the verification engine: relative to
/// calling [`batch_verify`] once per group, one grouped call shares a
/// single Straus squaring chain across every group and lets the
/// multi-exponentiation merge bases that repeat across groups (the
/// fixed verification keys `a_i` and the common generator), which is
/// where most of the per-group cost goes. Soundness is exactly that of
/// [`batch_verify`] run over the concatenation: every equation keeps
/// its own independent randomizer pair, so a bad proof in any group
/// sinks the whole product except with probability ~2⁻⁶⁴.
///
/// A `false` result identifies neither group nor culprit — callers
/// re-verify per group to attribute blame.
pub fn batch_verify_grouped(
    domain: &str,
    groups: &[DleqGroup<'_>],
    rng: &mut crate::rng::SeededRng,
) -> bool {
    match groups {
        [] => return true,
        [(g, h, statements)] => return batch_verify(domain, g, h, statements, rng),
        _ => sintra_obs::global::crypto_batch_verify(),
    }
    let total: usize = groups.iter().map(|(_, _, s)| s.len()).sum();
    let mut terms = Vec::with_capacity(4 * total + 2 * groups.len());
    let mut first = true;
    for (g, h, statements) in groups {
        fold_group(domain, g, h, statements, rng, &mut first, &mut terms);
    }
    GroupElement::multi_exp(&terms) == GroupElement::identity()
}

/// Appends one group's random-linear-combination terms to a pending
/// multi-exponentiation. `first` tracks whether the batch-wide `r = s =
/// 1` slot (see [`batch_verify`]) is still unclaimed.
fn fold_group(
    domain: &str,
    g: &GroupElement,
    h: &GroupElement,
    statements: &[(GroupElement, GroupElement, DleqProof)],
    rng: &mut crate::rng::SeededRng,
    first: &mut bool,
    terms: &mut Vec<(GroupElement, Scalar)>,
) {
    if statements.is_empty() {
        return;
    }
    let mut zg = Scalar::ZERO;
    let mut zh = Scalar::ZERO;
    let prefix = DleqProof::challenge_prefix(domain, g, h);
    for (a, b, proof) in statements {
        let c = DleqProof::challenge_suffix(&prefix, a, b, &proof.commit_g, &proof.commit_h);
        let (r, s) = if *first {
            *first = false;
            (Scalar::ONE, Scalar::ONE)
        } else {
            (rng.next_randomizer(), rng.next_randomizer())
        };
        zg = zg + r * proof.response;
        zh = zh + s * proof.response;
        terms.push((proof.commit_g, r));
        terms.push((*a, r * c));
        terms.push((proof.commit_h, s));
        terms.push((*b, s * c));
    }
    terms.push((*g, -zg));
    terms.push((*h, -zh));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn setup() -> (GroupElement, GroupElement, Scalar, SeededRng) {
        let mut rng = SeededRng::new(7);
        let g = GroupElement::generator();
        let h = GroupElement::hash_to_group("test", b"h");
        let x = rng.next_scalar();
        (g, h, x, rng)
    }

    #[test]
    fn valid_proof_verifies() {
        let (g, h, x, mut rng) = setup();
        let (a, b) = (g.exp(&x), h.exp(&x));
        let proof = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng);
        assert!(proof.verify("d", &g, &a, &h, &b));
    }

    /// The midstate prove/verify paths must be bit-identical to the
    /// plain ones: same proof bytes from the same RNG state, same
    /// accept/reject verdicts (including under a wrong midstate).
    #[test]
    fn midstate_paths_match_plain_prove_and_verify() {
        let (g, h, x, _) = setup();
        let (a, b) = (g.exp(&x), h.exp(&x));
        let prefix = DleqProof::challenge_midstate("d", &g, &h);
        let mut rng_plain = SeededRng::new(99);
        let mut rng_mid = SeededRng::new(99);
        let plain = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng_plain);
        let mid = DleqProof::prove_midstate(&prefix, &g, &a, &h, &b, &x, &mut rng_mid);
        assert_eq!(plain, mid, "midstate proof must be bit-identical");
        assert!(mid.verify_midstate(&prefix, &g, &a, &h, &b));
        assert!(mid.verify("d", &g, &a, &h, &b));
        let wrong_prefix = DleqProof::challenge_midstate("other-domain", &g, &h);
        assert!(!mid.verify_midstate(&wrong_prefix, &g, &a, &h, &b));
    }

    #[test]
    fn unequal_logs_rejected() {
        let (g, h, x, mut rng) = setup();
        let y = rng.next_scalar();
        let (a, b) = (g.exp(&x), h.exp(&y)); // different exponents
        let proof = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng);
        assert!(!proof.verify("d", &g, &a, &h, &b));
    }

    #[test]
    fn wrong_domain_rejected() {
        let (g, h, x, mut rng) = setup();
        let (a, b) = (g.exp(&x), h.exp(&x));
        let proof = DleqProof::prove("d1", &g, &a, &h, &b, &x, &mut rng);
        assert!(!proof.verify("d2", &g, &a, &h, &b));
    }

    #[test]
    fn swapped_statement_rejected() {
        let (g, h, x, mut rng) = setup();
        let (a, b) = (g.exp(&x), h.exp(&x));
        let proof = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng);
        assert!(!proof.verify("d", &g, &b, &h, &a));
    }

    #[test]
    fn tampered_proof_rejected() {
        let (g, h, x, mut rng) = setup();
        let (a, b) = (g.exp(&x), h.exp(&x));
        let proof = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng);
        let tampered = DleqProof {
            commit_g: proof.commit_g.mul(&g),
            ..proof
        };
        assert!(!tampered.verify("d", &g, &a, &h, &b));
        let tampered = DleqProof {
            commit_h: proof.commit_h.mul(&h),
            ..proof
        };
        assert!(!tampered.verify("d", &g, &a, &h, &b));
        let tampered = DleqProof {
            response: proof.response + Scalar::ONE,
            ..proof
        };
        assert!(!tampered.verify("d", &g, &a, &h, &b));
    }

    fn quorum(
        k: usize,
        rng: &mut SeededRng,
    ) -> (
        GroupElement,
        GroupElement,
        Vec<(GroupElement, GroupElement, DleqProof)>,
    ) {
        let g = GroupElement::generator();
        let h = GroupElement::hash_to_group("test", b"h");
        let statements = (0..k)
            .map(|_| {
                let x = rng.next_scalar();
                let (a, b) = (g.exp(&x), h.exp(&x));
                let proof = DleqProof::prove("d", &g, &a, &h, &b, &x, rng);
                (a, b, proof)
            })
            .collect();
        (g, h, statements)
    }

    #[test]
    fn batch_verify_accepts_valid_quorum() {
        let mut rng = SeededRng::new(11);
        for k in [0usize, 1, 2, 7, 16] {
            let (g, h, statements) = quorum(k, &mut rng);
            assert!(batch_verify("d", &g, &h, &statements, &mut rng), "k = {k}");
        }
    }

    #[test]
    fn batch_verify_rejects_any_single_corruption() {
        let mut rng = SeededRng::new(12);
        let (g, h, statements) = quorum(7, &mut rng);
        for victim in 0..statements.len() {
            // Corrupt the statement (b-component), the response, and a
            // commitment — each alone must sink the batch.
            let mut bad = statements.clone();
            bad[victim].1 = bad[victim].1.mul(&h);
            assert!(!batch_verify("d", &g, &h, &bad, &mut rng), "b @ {victim}");
            let mut bad = statements.clone();
            bad[victim].2.response = bad[victim].2.response + Scalar::ONE;
            assert!(!batch_verify("d", &g, &h, &bad, &mut rng), "z @ {victim}");
            let mut bad = statements.clone();
            bad[victim].2.commit_g = bad[victim].2.commit_g.mul(&g);
            assert!(!batch_verify("d", &g, &h, &bad, &mut rng), "A @ {victim}");
        }
    }

    /// An owned `(g, h, statements)` quorum as built by the test
    /// generators below.
    type OwnedQuorum = (
        GroupElement,
        GroupElement,
        Vec<(GroupElement, GroupElement, DleqProof)>,
    );

    /// Builds `count` quorums with distinct hashed bases (as coin rounds
    /// have) over a shared verification-key set, mirroring the shape the
    /// grouped verifier is designed for.
    fn grouped_quorums(count: usize, k: usize, rng: &mut SeededRng) -> Vec<OwnedQuorum> {
        let g = GroupElement::generator();
        let keys: Vec<Scalar> = (0..k).map(|_| rng.next_scalar()).collect();
        (0..count)
            .map(|round| {
                let h = GroupElement::hash_to_group("test/group", &(round as u64).to_be_bytes());
                let statements = keys
                    .iter()
                    .map(|x| {
                        let (a, b) = (g.exp(x), h.exp(x));
                        let proof = DleqProof::prove("d", &g, &a, &h, &b, x, rng);
                        (a, b, proof)
                    })
                    .collect();
                (g, h, statements)
            })
            .collect()
    }

    fn as_groups(quorums: &[OwnedQuorum]) -> Vec<DleqGroup<'_>> {
        quorums
            .iter()
            .map(|(g, h, s)| (*g, *h, s.as_slice()))
            .collect()
    }

    #[test]
    fn grouped_accepts_valid_groups() {
        let mut rng = SeededRng::new(31);
        for count in [0usize, 1, 2, 5] {
            let quorums = grouped_quorums(count, 4, &mut rng);
            assert!(
                batch_verify_grouped("d", &as_groups(&quorums), &mut rng),
                "count = {count}"
            );
        }
    }

    #[test]
    fn grouped_rejects_corruption_in_any_group() {
        let mut rng = SeededRng::new(32);
        let quorums = grouped_quorums(3, 4, &mut rng);
        for victim_group in 0..3 {
            for victim_stmt in [0usize, 3] {
                let mut bad = quorums.clone();
                let h = bad[victim_group].1;
                bad[victim_group].2[victim_stmt].1 = bad[victim_group].2[victim_stmt].1.mul(&h);
                assert!(
                    !batch_verify_grouped("d", &as_groups(&bad), &mut rng),
                    "group {victim_group}, statement {victim_stmt}"
                );
            }
        }
    }

    #[test]
    fn grouped_matches_per_group_verdicts() {
        // A grouped accept implies every group batch-verifies on its own.
        let mut rng = SeededRng::new(33);
        let quorums = grouped_quorums(4, 3, &mut rng);
        assert!(batch_verify_grouped("d", &as_groups(&quorums), &mut rng));
        for (g, h, statements) in &quorums {
            assert!(batch_verify("d", g, h, statements, &mut rng));
        }
    }

    #[test]
    fn grouped_handles_empty_and_mixed_groups() {
        let mut rng = SeededRng::new(34);
        let mut quorums = grouped_quorums(3, 3, &mut rng);
        quorums[1].2.clear();
        assert!(batch_verify_grouped("d", &as_groups(&quorums), &mut rng));
    }

    #[test]
    fn batch_verify_rejects_wrong_domain() {
        let mut rng = SeededRng::new(13);
        let (g, h, statements) = quorum(4, &mut rng);
        assert!(!batch_verify("other", &g, &h, &statements, &mut rng));
    }

    #[test]
    fn proofs_are_randomized() {
        let (g, h, x, mut rng) = setup();
        let (a, b) = (g.exp(&x), h.exp(&x));
        let p1 = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng);
        let p2 = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng);
        assert_ne!(p1, p2, "fresh nonce each time");
        assert!(p1.verify("d", &g, &a, &h, &b));
        assert!(p2.verify("d", &g, &a, &h, &b));
    }

    #[test]
    fn zero_exponent_statement() {
        // x = 0 gives identity elements; the proof must still round-trip.
        let (g, h, _, mut rng) = setup();
        let x = Scalar::ZERO;
        let (a, b) = (g.exp(&x), h.exp(&x));
        let proof = DleqProof::prove("d", &g, &a, &h, &b, &x, &mut rng);
        assert!(proof.verify("d", &g, &a, &h, &b));
    }
}
