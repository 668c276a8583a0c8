//! Golden transcript tests: byte-exact protocol outputs pinned from a
//! fixed seed.
//!
//! The crypto engine promises that every execution mode — sliding-window
//! and multi-exponentiation, fixed-base tables at any budgeted width —
//! produces *bit-identical* group elements, proofs, and signatures. The
//! unit tests check the modes against each other; these tests pin the
//! actual bytes, so any cross-mode divergence (or accidental transcript
//! format change — challenge width, hash domain, serialization order)
//! fails loudly.
//!
//! If a test here fails after an *intentional* transcript change
//! (e.g. a new Fiat-Shamir challenge width), regenerate the constants
//! with the printed actual values — and say so in the commit, because
//! every pinned value is a wire-format break.

use sintra_adversary::structure::TrustStructure;
use sintra_crypto::dealer::Dealer;
use sintra_crypto::rng::SeededRng;
use sintra_crypto::tsig::QuorumRule;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Coin transcript: one share's full wire encoding (elements + DLEQ
/// proofs, so this pins the 128-bit challenge derivation and the
/// share path) and the combined coin value.
#[test]
fn coin_share_and_value_bytes_are_pinned() {
    let ts = TrustStructure::threshold(4, 1).expect("valid structure");
    let mut rng = SeededRng::new(0xD15C);
    let (public, bundles) = Dealer::deal(&ts, &mut rng);
    let name = b"golden/coin/epoch-7";
    let shares: Vec<_> = bundles
        .iter()
        .map(|b| b.coin_key().share(name, &mut rng))
        .collect();
    for share in &shares {
        assert!(public.coin().verify_share(name, share));
    }
    assert_eq!(
        hex(&shares[0].to_bytes()),
        "0000000000000001000000005d285bf1ffc10e2668f370e7a58b9ac65fbf6cd69ac27a46709aa94ea75c06d49c0f94d8052e2982e6eda24d2f0a9626c47614430d4c240d5cb9720d9aaab4a10a0bdbf486f1811e32000e8e015cd7573247f71bfe496d722905b6d01d476ee41b59c40bd91c1bfab538145a22c36d5271236c87335112a33f860463942a6f2e",
        "coin share 0 wire bytes"
    );
    let value = public
        .coin()
        .combine(name, &shares)
        .expect("quorum combines");
    assert_eq!(
        hex(value.bytes()),
        "73d100c878e6a8bb52129842f59523e7b23d370ab9de29915bbcd4ae2aa494fa",
        "combined coin value"
    );
}

/// Signature transcript: one signature share and the combined
/// threshold signature.
#[test]
fn signature_bytes_are_pinned() {
    let ts = TrustStructure::threshold(4, 1).expect("valid structure");
    let mut rng = SeededRng::new(0x51ced);
    let (public, bundles) = Dealer::deal(&ts, &mut rng);
    let message = b"golden/message";
    let shares: Vec<_> = bundles
        .iter()
        .map(|b| b.signing_key().sign_share(message, &mut rng))
        .collect();
    assert_eq!(
        hex(&shares[0].to_bytes()),
        "000000003e6c82ce9158c9f24a21dd202d495506f48bdf5755257677337d4cefba210cdc4b1df2a10ca1cd7869ea2c9fcb454c5babe721488d48d375eaede04b87aa9b7b",
        "signature share 0 wire bytes"
    );
    let sig = public
        .signing()
        .combine(message, &shares, QuorumRule::Qualified)
        .expect("quorum combines");
    assert!(public
        .signing()
        .verify(message, &sig, QuorumRule::Qualified, |_| false));
    assert_eq!(
        hex(&sig.to_bytes()),
        "0000000000000000000000000000000f3e6c82ce9158c9f24a21dd202d495506f48bdf5755257677337d4cefba210cdc4b1df2a10ca1cd7869ea2c9fcb454c5babe721488d48d375eaede04b87aa9b7b03b3ed28ec549a0119496e7164803637a2f085e9bc47e590581b78f417e7736d1796c38ad898e71fb61626367ba276578fafe5bbee767081556a99ddb1f5a78828a9ec06171ee17154489a1d940288386709e8927aaaf4d62b4cec69012d74a302f4c19db7c8b4366ce769d929dcc5e1a562a76a9785fae3bf8ad2ed2d4cbf33b1a4f49f7633e3118b9c1019b6f38821fc22fbde3153d20714c6160f3bee9f3737bdc930f520c75de090da3107efdf8a77a77e6892a4a4a87d07c59de5cd5242",
        "combined signature bytes"
    );
}

/// Generator exponentiation through the budget-sized fixed-base table
/// pinned against an independently computed value — the table width
/// may change with the budget, the bytes may not.
#[test]
fn generator_table_exp_bytes_are_pinned() {
    use sintra_crypto::field::Scalar;
    use sintra_crypto::group::GroupElement;
    use sintra_crypto::u256::U256;

    let e = Scalar::from_u256(
        &U256::from_hex("123456789abcdef0fedcba9876543210deadbeefcafebabe0123456789abcdef")
            .expect("valid hex"),
    );
    // Same exponent as known_answers.rs's python-checked value.
    assert_eq!(
        hex(&GroupElement::generator().exp(&e).to_bytes()),
        "13fcc5181021c22cd1f46de9bfd8574ffc9d70f8fce4d520fff4a6533da1cb0b"
    );
}
