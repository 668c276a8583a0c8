//! The trusted dealer of the paper's setup model (§2).
//!
//! SINTRA assumes a trusted dealer that generates and distributes all
//! secret values **once**, when the system is initialized; afterwards
//! the system processes an unlimited number of requests with no further
//! trusted interaction. The dealer here provisions, for a given
//! [`TrustStructure`]:
//!
//! * the threshold coin-tossing keys ([`crate::coin`]),
//! * the threshold signature keys ([`crate::tsig`]),
//! * the threshold decryption keys ([`crate::tenc`]), and
//! * a plain Schnorr authentication key pair per server (standing in for
//!   the external PKI that bootstraps authenticated channels).
//!
//! The output splits into one [`PublicParameters`] object (safe to give
//! to everyone, including clients and the adversary) and one
//! [`ServerKeyBundle`] per server (to be delivered secretly).

use crate::coin::{deal_coin, CoinScheme, CoinSecretKey};
use crate::lsss::SharingScheme;
use crate::rng::SeededRng;
use crate::schnorr::{PublicKey, SigningKey};
use crate::tenc::{deal_tenc, DecryptionSecretKey, EncryptionScheme};
use crate::tsig::{deal_tsig, ThresholdSigKey, ThresholdSigScheme};
use serde::{Deserialize, Serialize};
use sintra_adversary::party::PartyId;
use sintra_adversary::structure::TrustStructure;

/// Everything public about an initialized system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PublicParameters {
    structure: TrustStructure,
    coin: CoinScheme,
    encryption: EncryptionScheme,
    signing: ThresholdSigScheme,
    auth_keys: Vec<PublicKey>,
}

impl PublicParameters {
    /// The trust structure the system was dealt for.
    pub fn structure(&self) -> &TrustStructure {
        &self.structure
    }

    /// Number of servers.
    pub fn n(&self) -> usize {
        self.structure.n()
    }

    /// The threshold coin scheme (verification side).
    pub fn coin(&self) -> &CoinScheme {
        &self.coin
    }

    /// The threshold cryptosystem (public key + share verification).
    pub fn encryption(&self) -> &EncryptionScheme {
        &self.encryption
    }

    /// The threshold signature scheme (verification side).
    pub fn signing(&self) -> &ThresholdSigScheme {
        &self.signing
    }

    /// A server's message-authentication public key.
    ///
    /// # Panics
    ///
    /// Panics if `party` is out of range.
    pub fn auth_key(&self, party: PartyId) -> &PublicKey {
        &self.auth_keys[party]
    }

    /// Proactive epoch refresh (§6 of the paper): re-randomizes every
    /// coin and decryption share with a fresh sharing of **zero**, so
    /// the secrets — and therefore the service's public keys and all
    /// issued ciphertexts and coin values — are unchanged, but share
    /// material from before the refresh no longer verifies or combines.
    /// A mobile adversary that stole up to a corruptible set of shares
    /// in the previous epoch learns nothing that helps after it.
    ///
    /// This implementation is *dealer-driven*, matching the paper's
    /// setup model; fully asynchronous dealer-less proactive resharing
    /// is flagged there as an open problem (§6) and is out of scope.
    pub fn refresh_epoch(&mut self, bundles: &mut [ServerKeyBundle], rng: &mut SeededRng) {
        let scheme = SharingScheme::new(self.structure.sharing_formula());
        let coin_delta = scheme.refresh_vector(rng);
        let enc_delta = scheme.refresh_vector(rng);
        self.coin.apply_refresh(&coin_delta);
        self.encryption.apply_refresh(&enc_delta);
        for bundle in bundles {
            bundle.coin_key.apply_refresh(&coin_delta);
            bundle.decryption_key.apply_refresh(&enc_delta);
        }
    }
}

/// One server's secret key material.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerKeyBundle {
    party: PartyId,
    coin_key: CoinSecretKey,
    decryption_key: DecryptionSecretKey,
    signing_key: ThresholdSigKey,
    auth_key: SigningKey,
}

impl ServerKeyBundle {
    /// The server's index.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Secret coin-share key.
    pub fn coin_key(&self) -> &CoinSecretKey {
        &self.coin_key
    }

    /// Secret decryption-share key.
    pub fn decryption_key(&self) -> &DecryptionSecretKey {
        &self.decryption_key
    }

    /// Threshold signing key.
    pub fn signing_key(&self) -> &ThresholdSigKey {
        &self.signing_key
    }

    /// Plain authentication signing key.
    pub fn auth_key(&self) -> &SigningKey {
        &self.auth_key
    }
}

/// The trusted dealer.
#[derive(Debug)]
pub struct Dealer;

impl Dealer {
    /// Deals a complete system for `structure`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sintra_crypto::dealer::Dealer;
    /// use sintra_crypto::rng::SeededRng;
    /// use sintra_adversary::structure::TrustStructure;
    ///
    /// let ts = TrustStructure::threshold(4, 1).unwrap();
    /// let mut rng = SeededRng::new(1);
    /// let (public, bundles) = Dealer::deal(&ts, &mut rng);
    /// assert_eq!(bundles.len(), 4);
    /// assert_eq!(public.n(), 4);
    /// ```
    pub fn deal(
        structure: &TrustStructure,
        rng: &mut SeededRng,
    ) -> (PublicParameters, Vec<ServerKeyBundle>) {
        let sharing = SharingScheme::new(structure.sharing_formula());
        let (coin, coin_keys) = deal_coin(&sharing, rng);
        let (encryption, dec_keys) = deal_tenc(&sharing, rng);
        let (signing, sig_keys) = deal_tsig(structure, rng);
        let auth: Vec<SigningKey> = (0..structure.n())
            .map(|_| SigningKey::generate(rng))
            .collect();
        let auth_keys = auth.iter().map(|k| k.public_key()).collect();
        let bundles = coin_keys
            .into_iter()
            .zip(dec_keys)
            .zip(sig_keys)
            .zip(auth)
            .enumerate()
            .map(
                |(party, (((coin_key, decryption_key), signing_key), auth_key))| ServerKeyBundle {
                    party,
                    coin_key,
                    decryption_key,
                    signing_key,
                    auth_key,
                },
            )
            .collect();
        let public = PublicParameters {
            structure: structure.clone(),
            coin,
            encryption,
            signing,
            auth_keys,
        };
        (public, bundles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsig::QuorumRule;
    use sintra_adversary::attributes::example1;

    #[test]
    fn dealt_system_is_internally_consistent() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(1);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);

        // Coin works end to end.
        let shares: Vec<_> = bundles
            .iter()
            .map(|b| b.coin_key().share(b"round-1", &mut rng))
            .collect();
        assert!(public.coin().combine(b"round-1", &shares[..2]).is_some());

        // Encryption works end to end.
        let ct = public.encryption().encrypt(b"msg", b"lbl", &mut rng);
        let dec: Vec<_> = bundles[..2]
            .iter()
            .map(|b| {
                b.decryption_key()
                    .decrypt_share(public.encryption(), &ct, &mut rng)
                    .unwrap()
            })
            .collect();
        assert_eq!(public.encryption().combine(&ct, &dec).unwrap(), b"msg");

        // Threshold signatures work end to end.
        let sig_shares: Vec<_> = bundles[..2]
            .iter()
            .map(|b| b.signing_key().sign_share(b"m", &mut rng))
            .collect();
        let sig = public
            .signing()
            .combine(b"m", &sig_shares, QuorumRule::Qualified)
            .unwrap();
        assert!(public
            .signing()
            .verify(b"m", &sig, QuorumRule::Qualified, |_| false));

        // Authentication keys match.
        for b in &bundles {
            let s = b.auth_key().sign(b"auth", &mut rng);
            assert!(public.auth_key(b.party()).verify(b"auth", &s));
        }
    }

    #[test]
    fn party_indices_are_sequential() {
        let ts = TrustStructure::threshold(7, 2).unwrap();
        let mut rng = SeededRng::new(2);
        let (_, bundles) = Dealer::deal(&ts, &mut rng);
        for (i, b) in bundles.iter().enumerate() {
            assert_eq!(b.party(), i);
            assert_eq!(b.coin_key().party(), i);
            assert_eq!(b.decryption_key().party(), i);
            assert_eq!(b.signing_key().party(), i);
        }
    }

    #[test]
    fn deal_for_generalized_structure() {
        let ts = example1().unwrap();
        let mut rng = SeededRng::new(3);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        assert_eq!(bundles.len(), 9);
        // Class-a coalition cannot toss the coin alone.
        let class_a: Vec<_> = bundles[..4]
            .iter()
            .map(|b| b.coin_key().share(b"c", &mut rng))
            .collect();
        assert!(public.coin().combine(b"c", &class_a).is_none());
        // A cross-class set can.
        let mixed: Vec<_> = [0usize, 4, 6]
            .iter()
            .map(|p| bundles[*p].coin_key().share(b"c", &mut rng))
            .collect();
        assert!(public.coin().combine(b"c", &mixed).is_some());
    }

    #[test]
    fn proactive_refresh_preserves_secrets_and_invalidates_old_shares() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(20);
        let (mut public, mut bundles) = Dealer::deal(&ts, &mut rng);

        // Epoch 0 artifacts.
        let old_shares: Vec<_> = bundles
            .iter()
            .map(|b| b.coin_key().share(b"epoch-coin", &mut rng))
            .collect();
        let coin_before = public
            .coin()
            .combine(b"epoch-coin", &old_shares[..2])
            .unwrap();
        let ct = public.encryption().encrypt(b"pre-refresh", b"l", &mut rng);
        let old_pk = public.encryption().public_key().to_bytes();

        // Refresh into epoch 1.
        public.refresh_epoch(&mut bundles, &mut rng);

        // Public key unchanged; old ciphertext still decryptable with
        // NEW shares.
        assert_eq!(public.encryption().public_key().to_bytes(), old_pk);
        let new_dec: Vec<_> = bundles[..2]
            .iter()
            .map(|b| {
                b.decryption_key()
                    .decrypt_share(public.encryption(), &ct, &mut rng)
                    .unwrap()
            })
            .collect();
        assert_eq!(
            public.encryption().combine(&ct, &new_dec).unwrap(),
            b"pre-refresh"
        );

        // Coin values unchanged across the epoch boundary.
        let new_shares: Vec<_> = bundles
            .iter()
            .map(|b| b.coin_key().share(b"epoch-coin", &mut rng))
            .collect();
        let coin_after = public
            .coin()
            .combine(b"epoch-coin", &new_shares[..2])
            .unwrap();
        assert_eq!(coin_before, coin_after);

        // Old-epoch shares no longer verify against the refreshed keys
        // — stolen epoch-0 material is worthless.
        for s in &old_shares {
            assert!(!public.coin().verify_share(b"epoch-coin", s));
        }
        assert!(public.coin().combine(b"epoch-coin", &old_shares).is_none());
        // Mixing epochs does not help either: the old shares are
        // filtered out, leaving an unqualified set.
        let mixed = vec![old_shares[0].clone(), new_shares[1].clone()];
        assert!(public.coin().combine(b"epoch-coin", &mixed).is_none());
    }

    #[test]
    fn proactive_refresh_on_generalized_structure() {
        let ts = example1().unwrap();
        let mut rng = SeededRng::new(21);
        let (mut public, mut bundles) = Dealer::deal(&ts, &mut rng);
        let ct = public.encryption().encrypt(b"grid", b"", &mut rng);
        for _ in 0..3 {
            public.refresh_epoch(&mut bundles, &mut rng);
        }
        // Still decryptable by a qualified set after three epochs.
        let dec: Vec<_> = [0usize, 4, 6]
            .iter()
            .map(|p| {
                bundles[*p]
                    .decryption_key()
                    .decrypt_share(public.encryption(), &ct, &mut rng)
                    .unwrap()
            })
            .collect();
        assert_eq!(public.encryption().combine(&ct, &dec).unwrap(), b"grid");
    }

    #[test]
    fn distinct_seeds_give_distinct_systems() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let (p1, _) = Dealer::deal(&ts, &mut SeededRng::new(10));
        let (p2, _) = Dealer::deal(&ts, &mut SeededRng::new(11));
        assert_ne!(
            p1.encryption().public_key().to_bytes(),
            p2.encryption().public_key().to_bytes()
        );
    }
}
