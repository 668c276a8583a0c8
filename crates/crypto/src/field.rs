//! Prime-field arithmetic modulo the two hard-coded group parameters.
//!
//! SINTRA-RS instantiates all discrete-log based threshold schemes over a
//! fixed Schnorr group: a 256-bit safe prime `p = 2q + 1` with prime `q`,
//! where the group of quadratic residues modulo `p` has prime order `q`.
//! This module provides the two fields involved:
//!
//! * [`Fp`] — integers modulo `p`, the representation field of group
//!   elements, and
//! * [`Scalar`] — integers modulo `q`, the exponent field used by secret
//!   sharing, signatures, and proofs.
//!
//! Elements are kept in Montgomery form internally; all Montgomery
//! constants were precomputed for the fixed moduli. The parameters are
//! deliberately small (256-bit) so that the protocol simulations and
//! benchmarks in this repository run quickly; they are structurally real
//! discrete-log parameters but **not of production strength**.

use crate::u256::U256;
use serde::{Deserialize, Serialize};

/// The safe prime `p` (256 bits) defining the ambient field of the group.
pub const MODULUS_P: U256 = U256::from_limbs([
    0x790f978549c8c24f,
    0x34f17ded4ba95a60,
    0xeb409d67747a6275,
    0xb7e9f735f74bf461,
]);

/// The prime group order `q = (p - 1) / 2` (255 bits).
pub const MODULUS_Q: U256 = U256::from_limbs([
    0x3c87cbc2a4e46127,
    0x9a78bef6a5d4ad30,
    0xf5a04eb3ba3d313a,
    0x5bf4fb9afba5fa30,
]);

/// Montgomery multiplication (CIOS) for a 4-limb odd modulus.
#[inline]
pub(crate) fn mont_mul(a: &U256, b: &U256, modulus: &U256, n0inv: u64) -> U256 {
    let a = a.limbs();
    let b = b.limbs();
    let n = modulus.limbs();
    let mut t = [0u64; 6];
    for &ai in a.iter() {
        // t += ai * b
        let mut carry = 0u128;
        for j in 0..4 {
            let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = t[4] as u128 + carry;
        t[4] = s as u64;
        t[5] = (s >> 64) as u64;
        // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
        let m = t[0].wrapping_mul(n0inv);
        let s = t[0] as u128 + m as u128 * n[0] as u128;
        let mut carry = s >> 64;
        for j in 1..4 {
            let s = t[j] as u128 + m as u128 * n[j] as u128 + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = t[4] as u128 + carry;
        t[3] = s as u64;
        let s2 = t[5] as u128 + (s >> 64);
        t[4] = s2 as u64;
        t[5] = (s2 >> 64) as u64;
    }
    let mut out = U256::from_limbs([t[0], t[1], t[2], t[3]]);
    // The CIOS loop keeps t < 2N, so a single conditional subtraction
    // suffices (t[4]/t[5] can only be nonzero before it).
    if t[4] != 0 || out >= *modulus {
        let (d, _) = out.overflowing_sub(modulus);
        out = d;
    }
    out
}

macro_rules! define_field {
    (
        $(#[$doc:meta])*
        $name:ident, modulus = $modulus:expr, n0inv = $n0inv:expr,
        r1 = $r1:expr, r2 = $r2:expr, inv_exp = $inv_exp:expr
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub struct $name(pub(crate) U256);

        impl $name {
            /// The additive identity.
            pub const ZERO: $name = $name(U256::ZERO);
            /// The multiplicative identity (Montgomery form of 1).
            pub const ONE: $name = $name($r1);

            /// The field modulus.
            pub fn modulus() -> U256 {
                $modulus
            }

            /// Creates a field element from an integer, reducing modulo the
            /// field's modulus.
            pub fn from_u256(v: &U256) -> Self {
                let reduced = if *v >= $modulus { v.reduce(&$modulus) } else { *v };
                // Convert to Montgomery form: v * R mod N = montmul(v, R^2).
                $name(mont_mul(&reduced, &$r2, &$modulus, $n0inv))
            }

            /// Creates a field element from a `u64`.
            pub fn from_u64(v: u64) -> Self {
                Self::from_u256(&U256::from_u64(v))
            }

            /// Returns the canonical (non-Montgomery) integer value.
            pub fn to_u256(&self) -> U256 {
                mont_mul(&self.0, &U256::ONE, &$modulus, $n0inv)
            }

            /// Serializes the canonical value as 32 big-endian bytes.
            pub fn to_be_bytes(&self) -> [u8; 32] {
                self.to_u256().to_be_bytes()
            }

            /// Parses 32 big-endian bytes, reducing modulo the modulus.
            pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
                Self::from_u256(&U256::from_be_bytes(bytes))
            }

            /// Returns `true` if the element is zero.
            pub fn is_zero(&self) -> bool {
                self.0.is_zero()
            }

            /// Field addition.
            pub fn add(&self, other: &Self) -> Self {
                let (sum, carry) = self.0.overflowing_add(&other.0);
                if carry || sum >= $modulus {
                    let (d, _) = sum.overflowing_sub(&$modulus);
                    $name(d)
                } else {
                    $name(sum)
                }
            }

            /// Field subtraction.
            pub fn sub(&self, other: &Self) -> Self {
                let (diff, borrow) = self.0.overflowing_sub(&other.0);
                if borrow {
                    let (d, _) = diff.overflowing_add(&$modulus);
                    $name(d)
                } else {
                    $name(diff)
                }
            }

            /// Field negation.
            pub fn neg(&self) -> Self {
                Self::ZERO.sub(self)
            }

            /// Field multiplication.
            pub fn mul(&self, other: &Self) -> Self {
                $name(mont_mul(&self.0, &other.0, &$modulus, $n0inv))
            }

            /// Field squaring.
            pub fn square(&self) -> Self {
                self.mul(self)
            }

            /// The precomputed inversion exponent `modulus - 2`.
            pub const INV_EXP: U256 = $inv_exp;

            /// Exponentiation by an arbitrary 256-bit integer exponent,
            /// using a width-4 sliding window over an odd-power table
            /// (8 precomputed entries, ~256 squarings + ~51 multiplies
            /// for a full-width exponent instead of ~128 multiplies).
            pub fn pow(&self, exp: &U256) -> Self {
                let bits = exp.bit_len();
                if bits == 0 {
                    return Self::ONE;
                }
                // Odd powers self^1, self^3, ..., self^15.
                let sq = self.square();
                let mut odd = [*self; 8];
                for i in 1..8 {
                    odd[i] = odd[i - 1].mul(&sq);
                }
                let mut result = Self::ONE;
                let mut i = bits as isize - 1;
                while i >= 0 {
                    if !exp.bit(i as usize) {
                        result = result.square();
                        i -= 1;
                        continue;
                    }
                    // Widest window (<= 4 bits) ending on a set bit.
                    let mut k = if i >= 3 { i - 3 } else { 0 };
                    while !exp.bit(k as usize) {
                        k += 1;
                    }
                    let mut val = 0usize;
                    for b in (k..=i).rev() {
                        result = result.square();
                        val = (val << 1) | exp.bit(b as usize) as usize;
                    }
                    result = result.mul(&odd[val >> 1]);
                    i = k - 1;
                }
                result
            }

            /// Multiplicative inverse via Fermat's little theorem
            /// (the modulus is prime), using the precomputed exponent
            /// [`Self::INV_EXP`].
            ///
            /// Returns `None` for zero.
            pub fn invert(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                Some(self.pow(&Self::INV_EXP))
            }

            /// Inverts every element of the slice in place with
            /// Montgomery's batch-inversion trick: one field inversion
            /// plus `3(n-1)` multiplications instead of `n` inversions.
            ///
            /// Returns `false` and leaves the slice untouched if any
            /// element is zero.
            pub fn batch_invert(elems: &mut [Self]) -> bool {
                if elems.iter().any(|e| e.is_zero()) {
                    return false;
                }
                // prefix[i] = product of elems[..i].
                let mut prefix = Vec::with_capacity(elems.len());
                let mut acc = Self::ONE;
                for e in elems.iter() {
                    prefix.push(acc);
                    acc = acc.mul(e);
                }
                let mut inv = match acc.invert() {
                    Some(i) => i,
                    None => return false,
                };
                for (e, p) in elems.iter_mut().zip(prefix).rev() {
                    let orig = *e;
                    *e = inv.mul(&p);
                    inv = inv.mul(&orig);
                }
                true
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}({})", stringify!($name), self.to_u256())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}", self.to_u256())
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::ZERO
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }

        impl core::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name::add(&self, &rhs)
            }
        }

        impl core::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name::sub(&self, &rhs)
            }
        }

        impl core::ops::Mul for $name {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name::mul(&self, &rhs)
            }
        }

        impl core::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name::neg(&self)
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, |acc, x| acc + x)
            }
        }
    };
}

define_field!(
    /// An element of the field `Z_p` where `p` is the 256-bit safe prime
    /// underlying the SINTRA group. Group elements live here.
    ///
    /// # Examples
    ///
    /// ```
    /// use sintra_crypto::field::Fp;
    ///
    /// let a = Fp::from_u64(3);
    /// let b = Fp::from_u64(4);
    /// assert_eq!(a * b, Fp::from_u64(12));
    /// ```
    Fp,
    modulus = MODULUS_P,
    n0inv = 0x18cd26e1d624eb51,
    r1 = U256::from_limbs([
        0x86f0687ab6373db1,
        0xcb0e8212b456a59f,
        0x14bf62988b859d8a,
        0x481608ca08b40b9e,
    ]),
    r2 = U256::from_limbs([
        0x0d1216594b51a840,
        0x5469258b3d0b9fd3,
        0x42378be77d9b7a8b,
        0x169a50bb578d21ed,
    ]),
    inv_exp = U256::from_limbs([
        0x790f978549c8c24d,
        0x34f17ded4ba95a60,
        0xeb409d67747a6275,
        0xb7e9f735f74bf461,
    ])
);

impl Fp {
    /// The Legendre symbol `(v/p)`: `1` for a nonzero square, `-1` for a
    /// non-square, `0` for zero. Computed by [`U256::jacobi`] straight
    /// on the Montgomery representation `v·R`: `R = 2^256` is itself a
    /// square, so the factor does not change the symbol. Variable-time —
    /// for public values only.
    pub fn legendre(&self) -> i8 {
        self.0.jacobi(&MODULUS_P)
    }
}

define_field!(
    /// An element of the exponent field `Z_q` where `q = (p-1)/2` is the
    /// prime order of the SINTRA group. Secrets, shares, signature nonces,
    /// and proof responses are scalars.
    ///
    /// # Examples
    ///
    /// ```
    /// use sintra_crypto::field::Scalar;
    ///
    /// let a = Scalar::from_u64(10);
    /// assert_eq!(a * a.invert().unwrap(), Scalar::ONE);
    /// ```
    Scalar,
    modulus = MODULUS_Q,
    n0inv = 0xb03d741808550169,
    r1 = U256::from_limbs([
        0x86f0687ab6373db2,
        0xcb0e8212b456a59f,
        0x14bf62988b859d8a,
        0x481608ca08b40b9e,
    ]),
    r2 = U256::from_limbs([
        0xaeb32c14ab091fe4,
        0x3e3179e98a8596a5,
        0xf62ecbd1f69033bb,
        0x0b1d94049588c729,
    ]),
    inv_exp = U256::from_limbs([
        0x3c87cbc2a4e46125,
        0x9a78bef6a5d4ad30,
        0xf5a04eb3ba3d313a,
        0x5bf4fb9afba5fa30,
    ])
);

/// Deterministic Miller-Rabin primality test with the given bases.
///
/// Used by the test suite to re-verify the hard-coded parameters; exposed
/// publicly so integrators swapping in their own parameters can check them.
pub fn is_probable_prime(n: &U256, rounds: &[u64]) -> bool {
    if *n < U256::from_u64(2) {
        return false;
    }
    for small in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let sm = U256::from_u64(small);
        if *n == sm {
            return true;
        }
        if n.reduce(&sm).is_zero() {
            return false;
        }
    }
    // Write n - 1 = d * 2^r.
    let (n_minus_1, _) = n.overflowing_sub(&U256::ONE);
    let mut d = n_minus_1;
    let mut r = 0u32;
    while !d.is_odd() {
        d = d.shr1();
        r += 1;
    }
    // Modular arithmetic mod n via the slow reduce path (setup-only code).
    let mul_mod = |a: &U256, b: &U256| -> U256 { U256::reduce_wide(&a.widening_mul(b), n) };
    let pow_mod = |base: &U256, exp: &U256| -> U256 {
        let mut result = U256::ONE;
        let mut b = base.reduce(n);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = mul_mod(&result, &b);
            }
            b = mul_mod(&b, &b);
        }
        result
    };
    'witness: for &a in rounds {
        let a = U256::from_u64(a);
        let mut x = pow_mod(&a, &d);
        if x == U256::ONE || x == n_minus_1 {
            continue;
        }
        for _ in 0..r.saturating_sub(1) {
            x = mul_mod(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const MR_BASES: &[u64] = &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

    #[test]
    fn parameters_are_prime() {
        assert!(is_probable_prime(&MODULUS_P, MR_BASES), "p must be prime");
        assert!(is_probable_prime(&MODULUS_Q, MR_BASES), "q must be prime");
    }

    #[test]
    fn p_is_safe_prime() {
        // p = 2q + 1
        let (two_q, carry) = MODULUS_Q.overflowing_add(&MODULUS_Q);
        assert!(!carry);
        let (p, carry) = two_q.overflowing_add(&U256::ONE);
        assert!(!carry);
        assert_eq!(p, MODULUS_P);
    }

    #[test]
    fn fp_basic_arithmetic() {
        let a = Fp::from_u64(1_000_000_007);
        let b = Fp::from_u64(998_244_353);
        assert_eq!(a + b, Fp::from_u64(1_000_000_007 + 998_244_353));
        assert_eq!((a - b) + b, a);
        assert_eq!(a * Fp::ONE, a);
        assert_eq!(a * Fp::ZERO, Fp::ZERO);
        assert_eq!(a + (-a), Fp::ZERO);
    }

    #[test]
    fn scalar_basic_arithmetic() {
        let a = Scalar::from_u64(42);
        let b = Scalar::from_u64(58);
        assert_eq!(a + b, Scalar::from_u64(100));
        assert_eq!(a * b, Scalar::from_u64(42 * 58));
        assert_eq!(a - a, Scalar::ZERO);
    }

    #[test]
    fn wraparound_addition() {
        // (p - 1) + 2 == 1 mod p
        let (p_minus_1, _) = MODULUS_P.overflowing_sub(&U256::ONE);
        let a = Fp::from_u256(&p_minus_1);
        assert_eq!(a + Fp::from_u64(2), Fp::ONE);
    }

    #[test]
    fn inversion() {
        for v in [1u64, 2, 3, 17, 65537, u64::MAX] {
            let a = Fp::from_u64(v);
            assert_eq!(a * a.invert().unwrap(), Fp::ONE, "Fp inverse of {v}");
            let s = Scalar::from_u64(v);
            assert_eq!(
                s * s.invert().unwrap(),
                Scalar::ONE,
                "Scalar inverse of {v}"
            );
        }
        assert!(Fp::ZERO.invert().is_none());
        assert!(Scalar::ZERO.invert().is_none());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let base = Fp::from_u64(7);
        let mut acc = Fp::ONE;
        for e in 0..20u64 {
            assert_eq!(base.pow(&U256::from_u64(e)), acc);
            acc = acc * base;
        }
    }

    #[test]
    fn inv_exp_constants_match_modulus_minus_two() {
        let (p2, borrow) = MODULUS_P.overflowing_sub(&U256::from_u64(2));
        assert!(!borrow);
        assert_eq!(Fp::INV_EXP, p2);
        let (q2, borrow) = MODULUS_Q.overflowing_sub(&U256::from_u64(2));
        assert!(!borrow);
        assert_eq!(Scalar::INV_EXP, q2);
    }

    #[test]
    fn sliding_window_pow_matches_naive() {
        // Plain MSB-first square-and-multiply as the reference.
        fn naive(base: &Fp, exp: &U256) -> Fp {
            let mut result = Fp::ONE;
            for i in (0..exp.bit_len()).rev() {
                result = result.square();
                if exp.bit(i) {
                    result = result.mul(base);
                }
            }
            result
        }
        // xorshift64* for pseudo-random exponents (no external RNG here).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        };
        for trial in 0..20 {
            let base = Fp::from_u64(next() | 1);
            let exp = U256::from_limbs([next(), next(), next(), next()]);
            assert_eq!(base.pow(&exp), naive(&base, &exp), "trial {trial}");
        }
        // Edge patterns: zero, one, all-ones, single high bit.
        let base = Fp::from_u64(7);
        for exp in [
            U256::ZERO,
            U256::ONE,
            U256::MAX,
            U256::from_limbs([0, 0, 0, 1 << 63]),
            U256::from_u64(0b1000_1000_1000_1001),
        ] {
            assert_eq!(base.pow(&exp), naive(&base, &exp), "edge {exp}");
        }
    }

    #[test]
    fn batch_invert_matches_individual() {
        let mut vals: Vec<Scalar> = (1..=17u64).map(|v| Scalar::from_u64(v * 997)).collect();
        let expected: Vec<Scalar> = vals.iter().map(|v| v.invert().unwrap()).collect();
        assert!(Scalar::batch_invert(&mut vals));
        assert_eq!(vals, expected);

        let mut fp_vals: Vec<Fp> = vec![Fp::from_u64(3), Fp::from_u64(1 << 40)];
        let fp_expected: Vec<Fp> = fp_vals.iter().map(|v| v.invert().unwrap()).collect();
        assert!(Fp::batch_invert(&mut fp_vals));
        assert_eq!(fp_vals, fp_expected);

        // Empty slice and single element are fine.
        assert!(Scalar::batch_invert(&mut []));
        let mut one = [Scalar::from_u64(5)];
        assert!(Scalar::batch_invert(&mut one));
        assert_eq!(one[0], Scalar::from_u64(5).invert().unwrap());
    }

    #[test]
    fn batch_invert_rejects_zero_untouched() {
        let mut vals = vec![Scalar::from_u64(3), Scalar::ZERO, Scalar::from_u64(9)];
        let before = vals.clone();
        assert!(!Scalar::batch_invert(&mut vals));
        assert_eq!(vals, before);
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) == 1 mod p for a != 0
        let (exp, _) = MODULUS_P.overflowing_sub(&U256::ONE);
        assert_eq!(Fp::from_u64(123456789).pow(&exp), Fp::ONE);
        let (exp, _) = MODULUS_Q.overflowing_sub(&U256::ONE);
        assert_eq!(Scalar::from_u64(987654321).pow(&exp), Scalar::ONE);
    }

    #[test]
    fn byte_roundtrip() {
        let a = Fp::from_u64(0xdead_beef);
        assert_eq!(Fp::from_be_bytes(&a.to_be_bytes()), a);
        let s = Scalar::from_u64(0xcafe_babe);
        assert_eq!(Scalar::from_be_bytes(&s.to_be_bytes()), s);
    }

    #[test]
    fn from_u256_reduces() {
        // Feeding the modulus itself must give zero.
        assert!(Fp::from_u256(&MODULUS_P).is_zero());
        assert!(Scalar::from_u256(&MODULUS_Q).is_zero());
        assert_eq!(Fp::from_u256(&U256::MAX), {
            let reduced = U256::MAX.reduce(&MODULUS_P);
            Fp::from_u256(&reduced)
        });
    }

    #[test]
    fn sum_iterator() {
        let total: Scalar = (1..=10u64).map(Scalar::from_u64).sum();
        assert_eq!(total, Scalar::from_u64(55));
    }

    #[test]
    fn montgomery_roundtrip_canonical() {
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            assert_eq!(Fp::from_u64(v).to_u256(), U256::from_u64(v));
            assert_eq!(Scalar::from_u64(v).to_u256(), U256::from_u64(v));
        }
    }

    #[test]
    fn composite_rejected_by_miller_rabin() {
        assert!(!is_probable_prime(&U256::from_u64(561), MR_BASES)); // Carmichael
        assert!(!is_probable_prime(&U256::from_u64(1), MR_BASES));
        assert!(!is_probable_prime(&U256::ZERO, MR_BASES));
        assert!(is_probable_prime(&U256::from_u64(2), MR_BASES));
        assert!(is_probable_prime(&U256::from_u64(104729), MR_BASES));
    }
}
