//! The SINTRA Schnorr group: quadratic residues modulo a safe prime.
//!
//! With `p = 2q + 1` and both prime, the squares modulo `p` form a cyclic
//! subgroup of prime order `q`. All discrete-log based threshold schemes
//! in this crate (coin-tossing, encryption, signatures, proofs) operate in
//! this group with exponents in [`Scalar`].
//!
//! Every [`GroupElement`] deserialized from untrusted input must be
//! validated with [`GroupElement::from_fp`] / [`GroupElement::from_bytes`],
//! which enforce subgroup membership — a corrupted server handing out
//! small-order garbage is part of the threat model.

use crate::field::{Fp, Scalar};
use crate::hash::Hasher;
use crate::simd::{LaneElem, QuadEngine};
use crate::u256::U256;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Term-count crossover from Straus's interleaved method to Pippenger's
/// bucket method: below this, Straus's per-term cost (~59
/// multiplications) beats Pippenger's marginal cost (~43) plus its fixed
/// per-window bucket aggregation.
const STRAUS_MAX_TERMS: usize = 320;

/// Term count at which the Straus accumulator switches to the 4-lane
/// SIMD engine (when AVX2 is compiled in and present). The lane-split
/// accumulator packs digit multiplies four per vector op, but pays for
/// it twice: the shared squaring chain becomes one *vector* op per bit
/// (~2.8× a scalar squaring), and every packed multiply gathers four
/// table entries from different lanes. Measured on the reference
/// hardware with the short-exponent mix batch verification actually
/// produces (64-bit weights, 192-bit weight·challenge products), the
/// scalar accumulator wins at every term count up to the Pippenger
/// crossover — so the lane-split path is not dispatched. It stays
/// built, tested, and bit-identical to the scalar plan for hardware
/// where the vector-to-scalar multiply ratio is wider (AVX-512 IFMA);
/// [`GroupElement::exp4`], whose independent squaring chains pack
/// perfectly, engages on such hardware through the engine's startup
/// calibration.
const STRAUS_SIMD_MIN_TERMS: usize = usize::MAX;

/// Term count at which `multi_exp` first scans for repeated bases.
/// Aggregated batch verification repeats the same fixed verification
/// keys across quorums; merging those terms (adding exponents mod `q`)
/// shrinks the multi-exponentiation before any window work happens.
const MERGE_MIN_TERMS: usize = 8;

/// The process-wide 4-lane Montgomery engine for `Fp`, shared by every
/// SIMD-split multi-exponentiation (construction computes the domain
/// constants, so it is done once).
fn fp_quad_engine() -> &'static QuadEngine {
    static ENGINE: OnceLock<QuadEngine> = OnceLock::new();
    ENGINE.get_or_init(|| QuadEngine::new(&Fp::modulus(), Fp::N0INV))
}

/// An element of the order-`q` subgroup of `Z_p^*`.
///
/// # Examples
///
/// ```
/// use sintra_crypto::group::GroupElement;
/// use sintra_crypto::field::Scalar;
///
/// let g = GroupElement::generator();
/// let x = Scalar::from_u64(12);
/// let y = Scalar::from_u64(30);
/// assert_eq!(g.exp(&x).mul(&g.exp(&y)), g.exp(&(x + y)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroupElement(Fp);

impl GroupElement {
    /// The group identity (1 mod p).
    pub fn identity() -> Self {
        GroupElement(Fp::ONE)
    }

    /// The standard generator `g = 4 = 2^2`, a quadratic residue.
    pub fn generator() -> Self {
        GroupElement(Fp::from_u64(4))
    }

    /// A second generator `h` with unknown discrete log relative to `g`,
    /// derived by hashing to the group (for Pedersen-style uses). Cached
    /// process-wide so [`exp`](Self::exp) can recognize it cheaply and
    /// dispatch to its fixed-base table.
    pub fn generator_h() -> Self {
        static H: OnceLock<GroupElement> = OnceLock::new();
        *H.get_or_init(|| Self::hash_to_group("sintra/generator-h", b"h"))
    }

    /// Validates subgroup membership of a field element.
    ///
    /// # Errors
    ///
    /// Returns `None` if `v` is zero or not in the order-`q` subgroup.
    pub fn from_fp(v: Fp) -> Option<Self> {
        sintra_obs::global::crypto_membership_test();
        // p = 2q + 1 is a safe prime, so the order-q subgroup is exactly
        // the nonzero squares: v^q == 1 iff the Legendre symbol (v/p) is
        // +1. Zero has symbol 0 and is rejected with the non-residues.
        (v.legendre() == 1).then_some(GroupElement(v))
    }

    /// Parses and validates a 32-byte big-endian encoding.
    ///
    /// # Errors
    ///
    /// Returns `None` if the bytes are not a canonical subgroup element.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let v = U256::from_be_bytes(bytes);
        if v >= Fp::modulus() {
            return None;
        }
        Self::from_fp(Fp::from_u256(&v))
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Returns the underlying field element.
    pub fn as_fp(&self) -> &Fp {
        &self.0
    }

    /// Group operation (multiplication mod p).
    pub fn mul(&self, other: &Self) -> Self {
        GroupElement(self.0.mul(&other.0))
    }

    /// Group inverse.
    pub fn inverse(&self) -> Self {
        GroupElement(self.0.invert().expect("group elements are nonzero"))
    }

    /// Exponentiation by a scalar.
    ///
    /// Exponentiations of the standard generator and of `h` are
    /// dispatched to process-wide fixed-base tables (built once, sized
    /// by [`set_table_budget`], one multiplication per nonzero window
    /// digit afterwards); other bases use the sliding-window
    /// [`Fp::pow`].
    pub fn exp(&self, exponent: &Scalar) -> Self {
        if let Some(table) = self.process_table() {
            return table.exp(exponent);
        }
        sintra_obs::global::crypto_exp();
        GroupElement(self.0.pow(&exponent.to_u256()))
    }

    /// The process-wide fixed-base table for this base, if it is one of
    /// the two bases every protocol reuses (`g` and `h`).
    fn process_table(&self) -> Option<&'static FixedBaseTable> {
        if self.0 == Self::generator().0 {
            Some(generator_table())
        } else if self.0 == Self::generator_h().0 {
            Some(generator_h_table())
        } else {
            None
        }
    }

    /// Four independent exponentiations of the same base in one pass of
    /// the 4-lane Montgomery engine.
    ///
    /// This is the shape SIMD exponentiation actually wins at: the four
    /// square-and-multiply chains are independent, so every vector
    /// operation carries four live multiplications — unlike a shared
    /// Straus chain, where the single squaring sequence is already
    /// amortized and vectorizing it costs more than it saves. All four
    /// lanes walk a fixed 4-bit window schedule against one shared
    /// 16-entry table held in the engine's vector domain. Results are
    /// bit-identical to four [`exp`](Self::exp) calls; when the engine's
    /// startup calibration finds the vector kernel unprofitable (the
    /// usual verdict on AVX2-only parts, whose 32×32 vector multiplies
    /// tie the scalar 64×64 kernel at best) the call falls back to
    /// exactly that.
    pub fn exp4(&self, exponents: &[Scalar; 4]) -> [Self; 4] {
        let engine = fp_quad_engine();
        if !engine.simd() {
            return core::array::from_fn(|i| self.exp(&exponents[i]));
        }
        for _ in 0..4 {
            sintra_obs::global::crypto_exp();
        }
        self.exp4_with(exponents, engine)
    }

    /// The engine-parameterized body of [`exp4`](Self::exp4); the
    /// engine's representation (vector or scalar fallback) decides how
    /// each quad operation executes, so tests can force either mode.
    fn exp4_with(&self, exponents: &[Scalar; 4], engine: &QuadEngine) -> [Self; 4] {
        let mut powers = [Fp::ONE; 16];
        powers[1] = self.0;
        for i in 2..16 {
            powers[i] = powers[i - 1].mul(&self.0);
        }
        let table: [LaneElem; 16] = core::array::from_fn(|i| engine.enter_lane(&powers[i].0));
        let limbs: [[u64; 4]; 4] = core::array::from_fn(|l| exponents[l].to_u256().limbs());
        let digit =
            |l: usize, pos: usize| ((limbs[l][pos / 16] >> ((pos % 16) * 4)) & 0xf) as usize;
        let Some(top) = (0..64).rev().find(|p| (0..4).any(|l| digit(l, *p) != 0)) else {
            return [Self::identity(); 4];
        };
        let schedule: Vec<[u8; 4]> = (0..=top)
            .rev()
            .map(|pos| core::array::from_fn(|l| digit(l, pos) as u8))
            .collect();
        let lanes = engine.exit4(&engine.window_pow(&table, &schedule));
        core::array::from_fn(|i| GroupElement(Fp(lanes[i])))
    }

    /// Exponentiates the same base by each scalar in `exponents`,
    /// routing groups of lanes through [`exp4`](Self::exp4) when the
    /// 4-lane engine is active and enough exponents remain to keep its
    /// lanes busy (three live lanes is the measured break-even against
    /// the scalar path). Bases with a process-wide fixed-base table
    /// (`g`, `h`) keep using it — faster than any generic method.
    pub fn exp_many(&self, exponents: &[Scalar]) -> Vec<Self> {
        let engine = fp_quad_engine();
        if !engine.simd() || self.process_table().is_some() {
            return exponents.iter().map(|e| self.exp(e)).collect();
        }
        let mut out = Vec::with_capacity(exponents.len());
        for chunk in exponents.chunks(4) {
            if chunk.len() >= 3 {
                let padded: [Scalar; 4] =
                    core::array::from_fn(|i| *chunk.get(i).unwrap_or(&Scalar::ZERO));
                out.extend_from_slice(&self.exp4(&padded)[..chunk.len()]);
            } else {
                out.extend(chunk.iter().map(|e| self.exp(e)));
            }
        }
        out
    }

    /// Computes `Π base_i^{e_i}` over all `(base_i, e_i)` pairs with a
    /// single shared squaring chain: Straus's interleaved method with
    /// 5-bit sliding windows for small and medium batches, Pippenger's
    /// bucket method for very large ones.
    ///
    /// Bit-for-bit equivalent to folding [`exp`](Self::exp) results with
    /// [`mul`](Self::mul), but `k` full exponentiations collapse into one
    /// pass (~256 squarings + ~`59k` multiplications, less for short
    /// exponents — batch-verification randomizers are 128-bit).
    pub fn multi_exp(terms: &[(GroupElement, Scalar)]) -> Self {
        // Merge terms sharing a base first: `b^x · b^y = b^(x+y mod q)`.
        // Aggregated verification calls repeat fixed bases (verification
        // keys, the generator) across quorums, and every merged term
        // removes its whole window table and digit-event share.
        let merged: Vec<(GroupElement, Scalar)>;
        let terms = if terms.len() >= MERGE_MIN_TERMS {
            let mut index: std::collections::HashMap<GroupElement, usize> =
                std::collections::HashMap::with_capacity(terms.len());
            let mut out: Vec<(GroupElement, Scalar)> = Vec::with_capacity(terms.len());
            for (b, e) in terms {
                match index.entry(*b) {
                    std::collections::hash_map::Entry::Occupied(o) => {
                        let i = *o.get();
                        out[i].1 = out[i].1 + *e;
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(out.len());
                        out.push((*b, *e));
                    }
                }
            }
            merged = out;
            &merged[..]
        } else {
            terms
        };
        match terms.len() {
            0 => Self::identity(),
            1 => terms[0].0.exp(&terms[0].1),
            k if k <= STRAUS_MAX_TERMS => {
                sintra_obs::global::crypto_multi_exp();
                let engine = fp_quad_engine();
                // The threshold is usize::MAX while the lane-split path is
                // benched off (see the constant's doc), which makes this
                // comparison degenerate by design.
                #[allow(clippy::absurd_extreme_comparisons)]
                let lane_split = k >= STRAUS_SIMD_MIN_TERMS && engine.simd();
                if lane_split {
                    Self::straus_simd(terms, engine)
                } else {
                    Self::straus(terms)
                }
            }
            _ => {
                sintra_obs::global::crypto_multi_exp();
                Self::pippenger(terms)
            }
        }
    }

    /// Straus's interleaved method with sliding windows: per-base tables
    /// of odd powers, one shared squaring chain, one table
    /// multiplication per odd digit of each exponent. The window width
    /// is chosen per term — 5 bits for full-size exponents, 4 bits for
    /// half-length ones (batch-verification randomizers), which halves
    /// the table-build cost exactly where there are too few digits to
    /// amortize the bigger table.
    fn straus(terms: &[(GroupElement, Scalar)]) -> Self {
        let plan = StrausPlan::new(terms);
        // Odd-power tables for all terms, packed end to end (8 or 16
        // entries per term depending on window width) so the whole
        // working set stays small and cache-resident.
        let mut flat: Vec<Fp> = Vec::with_capacity(plan.flat_len);
        for (i, (b, _)) in terms.iter().enumerate() {
            let w = plan.windows[i] as usize;
            let sq = b.0.square();
            let mut power = b.0;
            flat.push(power);
            for _ in 1..(1usize << (w - 1)) {
                power = power.mul(&sq);
                flat.push(power);
            }
        }
        let mut acc = Fp::ONE;
        let mut started = false;
        let mut next_event = 0usize;
        for pos in (0..256usize).rev() {
            if started {
                acc = acc.square();
            }
            // A digit multiplied in at bit `pos` is squared `pos` more
            // times, contributing `base^(d · 2^pos)`.
            for _ in 0..plan.count[pos] {
                acc = acc.mul(&flat[plan.sorted[next_event] as usize]);
                next_event += 1;
                started = true;
            }
        }
        GroupElement(acc)
    }

    /// Straus's method on the 4-lane SIMD engine: the same window plan
    /// as [`straus`](Self::straus), with
    ///
    /// * odd-power tables built four terms at a time in lockstep
    ///   (independent chains, perfect lane packing), stored in the
    ///   engine's vector domain so digit multiplies need no conversion;
    /// * **four** accumulator lanes sharing one vector squaring chain —
    ///   any digit event may enter any lane (the final result is the
    ///   product of all lanes), so up to four same-position events
    ///   collapse into one vector multiply, idle lanes padded with the
    ///   in-domain identity.
    ///
    /// The result is bit-identical to the scalar path: the engine exits
    /// to canonical standard-form residues and the lane product uses
    /// the ordinary field multiply.
    fn straus_simd(terms: &[(GroupElement, Scalar)], engine: &QuadEngine) -> Self {
        let plan = StrausPlan::new(terms);
        let one = engine.one_lane();
        let mut flat: Vec<LaneElem> = vec![one.clone(); plan.flat_len];
        // Group terms by window width so lockstep chains have uniform
        // length; each chunk of four same-width tables shares its
        // squaring and power chain.
        for w in 1..=5u8 {
            let idxs: Vec<usize> = (0..terms.len()).filter(|&i| plan.windows[i] == w).collect();
            for chunk in idxs.chunks(4) {
                let bases: [U256; 4] = core::array::from_fn(|k| {
                    // Duplicate the first base into empty lanes; their
                    // outputs are simply never read.
                    (terms[*chunk.get(k).unwrap_or(&chunk[0])].0).0 .0
                });
                let base_q = engine.enter4(&bases);
                let write = |flat: &mut Vec<LaneElem>, entry: usize, q: &crate::simd::QuadElem| {
                    let lanes = engine.split(q);
                    for (k, &ti) in chunk.iter().enumerate() {
                        flat[plan.rows[ti] as usize + entry] = lanes[k].clone();
                    }
                };
                write(&mut flat, 0, &base_q);
                if w > 1 {
                    let sq = engine.square(&base_q);
                    let mut power = base_q;
                    for entry in 1..(1usize << (w - 1)) {
                        engine.mul_assign(&mut power, &sq);
                        write(&mut flat, entry, &power);
                    }
                }
            }
        }
        let mut acc = engine.gather([&one, &one, &one, &one]);
        let mut started = false;
        let mut next_event = 0usize;
        for pos in (0..256usize).rev() {
            if started {
                engine.square_assign(&mut acc);
            }
            let mut remaining = plan.count[pos] as usize;
            while remaining > 0 {
                let take = remaining.min(4);
                let op = engine.gather(core::array::from_fn(|k| {
                    if k < take {
                        &flat[plan.sorted[next_event + k] as usize]
                    } else {
                        &one
                    }
                }));
                engine.mul_assign(&mut acc, &op);
                next_event += take;
                remaining -= take;
                started = true;
            }
        }
        let lanes = engine.exit4(&acc);
        let folded = Fp(lanes[0])
            .mul(&Fp(lanes[1]))
            .mul(&Fp(lanes[2]))
            .mul(&Fp(lanes[3]));
        GroupElement(folded)
    }

    /// Pippenger's bucket method with 6-bit windows: per window, each
    /// base is multiplied into the bucket of its exponent digit, and the
    /// buckets are aggregated with two running products. The fixed
    /// bucket-aggregation cost (~43 windows × 126 multiplications for
    /// 256-bit exponents) only amortizes past a few hundred terms, hence
    /// the high [`STRAUS_MAX_TERMS`] crossover.
    fn pippenger(terms: &[(GroupElement, Scalar)]) -> Self {
        const C: usize = 6;
        let exps: Vec<U256> = terms.iter().map(|(_, e)| e.to_u256()).collect();
        let max_bits = exps.iter().map(|e| e.bit_len()).max().unwrap_or(0);
        let windows = max_bits.div_ceil(C);
        let mut acc = Fp::ONE;
        for w in (0..windows).rev() {
            if w + 1 != windows {
                for _ in 0..C {
                    acc = acc.square();
                }
            }
            let mut buckets = [Fp::ONE; (1 << C) - 1];
            for ((base, _), e) in terms.iter().zip(&exps) {
                let mut d = 0usize;
                for b in (0..C).rev() {
                    d = (d << 1) | e.bit(w * C + b) as usize;
                }
                if d != 0 {
                    buckets[d - 1] = buckets[d - 1].mul(&base.0);
                }
            }
            // Σ d·bucket[d] via suffix running products.
            let mut running = Fp::ONE;
            let mut window_sum = Fp::ONE;
            for b in buckets.iter().rev() {
                running = running.mul(b);
                window_sum = window_sum.mul(&running);
            }
            acc = acc.mul(&window_sum);
        }
        GroupElement(acc)
    }

    /// Computes `self^a * other^b` (two-term multi-exponentiation).
    pub fn exp2(&self, a: &Scalar, other: &Self, b: &Scalar) -> Self {
        sintra_obs::global::crypto_multi_exp();
        // Shamir's trick: shared square-and-multiply over both exponents.
        let ea = a.to_u256();
        let eb = b.to_u256();
        let both = self.mul(other);
        let bits = ea.bit_len().max(eb.bit_len());
        let mut acc = Fp::ONE;
        for i in (0..bits).rev() {
            acc = acc.square();
            match (ea.bit(i), eb.bit(i)) {
                (true, true) => acc = acc.mul(&both.0),
                (true, false) => acc = acc.mul(&self.0),
                (false, true) => acc = acc.mul(&other.0),
                (false, false) => {}
            }
        }
        GroupElement(acc)
    }

    /// Hashes arbitrary bytes onto the group (squaring a uniform field
    /// element lands in the quadratic-residue subgroup). Used to derive
    /// per-coin bases with unknown discrete logarithms.
    pub fn hash_to_group(domain: &str, input: &[u8]) -> Self {
        let mut counter = 0u64;
        loop {
            let digest = Hasher::new(domain).field(input).field_u64(counter).finish();
            let candidate = Fp::from_u256(&U256::from_be_bytes(&digest));
            let squared = candidate.square();
            if !squared.is_zero() {
                return GroupElement(squared);
            }
            counter += 1;
        }
    }
}

/// The shared digit plan for a Straus multi-exponentiation: per-term
/// window widths and packed-table row offsets, plus every
/// sliding-window digit event counting-sorted by descending bit
/// position. Both the scalar and the SIMD accumulator walk the same
/// plan, which is what keeps their results bit-identical.
struct StrausPlan {
    /// Window width per term (1–5 bits by exponent size).
    windows: Vec<u8>,
    /// First packed-table index of each term's odd-power table.
    rows: Vec<u16>,
    /// Total packed-table entries across all terms.
    flat_len: usize,
    /// Digit events per bit position.
    count: [u32; 256],
    /// Packed-table index of each event, ordered by descending position.
    sorted: Vec<u16>,
}

impl StrausPlan {
    fn new(terms: &[(GroupElement, Scalar)]) -> Self {
        let mut windows = Vec::with_capacity(terms.len());
        let mut rows = Vec::with_capacity(terms.len());
        let mut flat_len = 0usize;
        // One event per sliding-window digit: `(low bit position,
        // packed-table index of the power to multiply in)`. 4 bytes
        // each; after a counting sort by descending position the main
        // loop walks them strictly linearly.
        let mut events: Vec<(u8, u16)> = Vec::with_capacity(44 * terms.len());
        for (_, e) in terms {
            let e = e.to_u256();
            let bit_len = e.bit_len();
            // Window width by exponent size: wider windows amortize
            // their bigger odd-power table only over enough digits.
            // Full-size exponents get width 5 (16 entries), half-length
            // batch-verification randomizers width 4 (8 entries), and
            // tiny exponents (e.g. the unit weight on a batch's first
            // proof) near-trivial tables.
            let w = match bit_len {
                0..=4 => 1usize,
                5..=16 => 2,
                17..=48 => 3,
                49..=128 => 4,
                _ => 5,
            };
            let row = flat_len as u16;
            windows.push(w as u8);
            rows.push(row);
            flat_len += 1usize << (w - 1);
            let limbs = e.limbs();
            let mut j = 0usize;
            while j < bit_len {
                // 64-bit view of the exponent starting at bit `j`.
                let (li, off) = (j / 64, j % 64);
                let mut chunk = limbs[li] >> off;
                if off != 0 && li + 1 < 4 {
                    chunk |= limbs[li + 1] << (64 - off);
                }
                if chunk == 0 {
                    j += 64;
                    continue;
                }
                let tz = chunk.trailing_zeros() as usize;
                if tz > 0 {
                    // Skip the zero run (re-fetch so the digit never
                    // straddles past the view).
                    j += tz;
                    continue;
                }
                // Odd digit of up to `w` bits starting at set bit `j`;
                // the term contributes `base^(d · 2^j)`.
                let d = (chunk & ((1 << w) - 1)) as u16;
                events.push((j as u8, row + (d >> 1)));
                j += w;
            }
        }
        // Counting sort by descending bit position.
        let mut count = [0u32; 256];
        for &(pos, _) in &events {
            count[pos as usize] += 1;
        }
        let mut cursor = [0u32; 256];
        let mut next_start = 0u32;
        for pos in (0..256usize).rev() {
            cursor[pos] = next_start;
            next_start += count[pos];
        }
        let mut sorted = vec![0u16; events.len()];
        for &(pos, idx) in &events {
            sorted[cursor[pos as usize] as usize] = idx;
            cursor[pos as usize] += 1;
        }
        StrausPlan {
            windows,
            rows,
            flat_len,
            count,
            sorted,
        }
    }
}

/// Precomputed fixed-base exponentiation table: `w`-bit windows over
/// 256-bit exponents, `rows[r][d-1] = base^(d · 2^(r·w))`.
///
/// Every [`exp`](FixedBaseTable::exp) costs one multiplication per
/// nonzero `w`-bit exponent digit and no squarings — at most
/// ⌈256/w⌉ multiplications, versus ~256 squarings plus ~51
/// multiplications for a cold sliding-window exponentiation. Wider
/// windows trade memory for speed: each extra bit of width halves
/// nothing but removes a slice of the digit count (64 muls at 4 bits,
/// 32 at 8 bits) while doubling the table. The process-wide tables for
/// `g` and `h` pick their width from [`set_table_budget`]; ad-hoc
/// tables built with [`new`](FixedBaseTable::new) default to 4-bit
/// windows (30 KiB, ~960 multiplications to build), a reasonable shape
/// for any base reused across many exponentiations (per-key
/// verification bases, a round's coin base).
#[derive(Clone)]
pub struct FixedBaseTable {
    base: GroupElement,
    bits: u32,
    rows: Vec<Vec<Fp>>,
}

impl FixedBaseTable {
    /// Builds a table for `base` with the default 4-bit windows.
    pub fn new(base: &GroupElement) -> Self {
        Self::with_window(base, 4)
    }

    /// Builds a table for `base` with `bits`-bit windows.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn with_window(base: &GroupElement, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "window width must be 1..=8 bits");
        let entries = (1usize << bits) - 1;
        let n_rows = 256usize.div_ceil(bits as usize);
        let mut rows = Vec::with_capacity(n_rows);
        let mut cur = base.0;
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(entries);
            row.push(cur);
            for d in 1..entries {
                let prev: Fp = row[d - 1];
                row.push(prev.mul(&cur));
            }
            cur = row[entries - 1].mul(&cur);
            rows.push(row);
        }
        FixedBaseTable {
            base: *base,
            bits,
            rows,
        }
    }

    /// The base the table was built for.
    pub fn base(&self) -> &GroupElement {
        &self.base
    }

    /// The window width in bits.
    pub fn window_bits(&self) -> u32 {
        self.bits
    }

    /// The memory held by the table's entries.
    pub fn table_bytes(&self) -> usize {
        self.rows.len() * ((1usize << self.bits) - 1) * core::mem::size_of::<Fp>()
    }

    /// Computes `base^exponent` from the table (one multiplication per
    /// nonzero exponent digit).
    pub fn exp(&self, exponent: &Scalar) -> GroupElement {
        sintra_obs::global::crypto_exp();
        let limbs = exponent.to_u256().limbs();
        let mut acc = Fp::ONE;
        for (r, row) in self.rows.iter().enumerate() {
            let d = window_digit(&limbs, r * self.bits as usize, self.bits);
            if d != 0 {
                acc = acc.mul(&row[d - 1]);
            }
        }
        GroupElement(acc)
    }
}

/// Extracts the `bits`-bit digit starting at bit `pos` of a little-endian
/// 256-bit limb array; bits past position 255 read as zero.
fn window_digit(limbs: &[u64; 4], pos: usize, bits: u32) -> usize {
    let li = pos / 64;
    let off = pos % 64;
    let mut chunk = limbs[li] >> off;
    if off != 0 && li + 1 < 4 {
        chunk |= limbs[li + 1] << (64 - off);
    }
    (chunk & ((1u64 << bits) - 1)) as usize
}

impl core::fmt::Debug for FixedBaseTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "FixedBaseTable({}, {}-bit)", self.base, self.bits)
    }
}

/// Default memory budget for the process-wide fixed-base tables:
/// 512 KiB, which fits 8-bit windows for both `g` and `h` (≈255 KiB
/// each) — the widest supported, halving per-exponentiation work
/// relative to the 4-bit default shape.
pub const DEFAULT_TABLE_BUDGET: usize = 512 * 1024;

static TABLE_BUDGET: AtomicUsize = AtomicUsize::new(DEFAULT_TABLE_BUDGET);

/// Sets the total memory budget, in bytes, shared by the process-wide
/// fixed-base tables (the standard generator and `h`). Each table's
/// window width is chosen as the widest whose combined footprint fits.
///
/// Call at startup, before the first exponentiation: the tables are
/// built once on first use and a later budget change does not resize
/// tables that already exist. Budgets below the 1-bit floor (~16 KiB
/// total) still build 1-bit tables — the floor is documented, not
/// silently exceeded by much.
pub fn set_table_budget(bytes: usize) {
    TABLE_BUDGET.store(bytes, Ordering::Relaxed);
}

/// The current fixed-base table memory budget in bytes.
pub fn table_budget() -> usize {
    TABLE_BUDGET.load(Ordering::Relaxed)
}

/// Number of process-wide fixed-base tables sharing the budget.
const PROCESS_TABLES: usize = 2;

/// Bytes of entries a `bits`-bit window table holds.
fn window_cost_bytes(bits: u32) -> usize {
    256usize.div_ceil(bits as usize) * ((1usize << bits) - 1) * core::mem::size_of::<Fp>()
}

/// Picks the widest window width whose process-wide tables together fit
/// `budget` bytes, flooring at 1-bit windows.
fn budget_window_bits(budget: usize) -> u32 {
    (1..=8u32)
        .rev()
        .find(|&b| PROCESS_TABLES * window_cost_bytes(b) <= budget)
        .unwrap_or(1)
}

/// The process-wide fixed-base table for the standard generator,
/// built on first use at the budget-selected window width.
/// [`GroupElement::exp`] dispatches to it automatically whenever the
/// base is the generator.
pub fn generator_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        FixedBaseTable::with_window(
            &GroupElement::generator(),
            budget_window_bits(table_budget()),
        )
    })
}

/// The process-wide fixed-base table for `h`, built on first use at the
/// budget-selected window width. [`GroupElement::exp`] dispatches to it
/// automatically whenever the base is `h`.
pub fn generator_h_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        FixedBaseTable::with_window(
            &GroupElement::generator_h(),
            budget_window_bits(table_budget()),
        )
    })
}

impl core::fmt::Debug for GroupElement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GroupElement({})", self.0)
    }
}

impl core::fmt::Display for GroupElement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::MODULUS_Q;

    #[test]
    fn generator_is_in_subgroup() {
        assert!(GroupElement::from_fp(*GroupElement::generator().as_fp()).is_some());
        assert!(GroupElement::from_fp(*GroupElement::generator_h().as_fp()).is_some());
    }

    #[test]
    fn generator_has_order_q() {
        let g = GroupElement::generator();
        // g^q must be the identity; g itself is not the identity.
        assert_ne!(g, GroupElement::identity());
        assert_eq!(GroupElement(g.0.pow(&MODULUS_Q)), GroupElement::identity());
    }

    #[test]
    fn exponent_laws() {
        let g = GroupElement::generator();
        let a = Scalar::from_u64(123);
        let b = Scalar::from_u64(456);
        assert_eq!(g.exp(&a).exp(&b), g.exp(&(a * b)));
        assert_eq!(g.exp(&a).mul(&g.exp(&b)), g.exp(&(a + b)));
        assert_eq!(g.exp(&Scalar::ZERO), GroupElement::identity());
        assert_eq!(g.exp(&Scalar::ONE), g);
    }

    #[test]
    fn inverse_cancels() {
        let g = GroupElement::generator();
        let x = g.exp(&Scalar::from_u64(777));
        assert_eq!(x.mul(&x.inverse()), GroupElement::identity());
    }

    #[test]
    fn exp2_matches_separate_exponentiations() {
        let g = GroupElement::generator();
        let h = GroupElement::generator_h();
        for (a, b) in [(0u64, 0u64), (1, 0), (0, 1), (123, 456), (u64::MAX, 7)] {
            let a = Scalar::from_u64(a);
            let b = Scalar::from_u64(b);
            assert_eq!(g.exp2(&a, &h, &b), g.exp(&a).mul(&h.exp(&b)));
        }
    }

    /// Exponentiation by plain square-and-multiply, bypassing both the
    /// fixed-base table and the sliding window — the reference all fast
    /// paths must match bit for bit.
    fn naive_exp(base: &GroupElement, e: &Scalar) -> GroupElement {
        let exp = e.to_u256();
        let mut acc = Fp::ONE;
        for i in (0..exp.bit_len()).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = acc.mul(&base.0);
            }
        }
        GroupElement(acc)
    }

    fn test_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        }
    }

    fn random_scalar(next: &mut impl FnMut() -> u64) -> Scalar {
        Scalar::from_u256(&U256::from_limbs([next(), next(), next(), next()]))
    }

    #[test]
    fn fixed_base_table_matches_naive() {
        let mut next = test_rng(0xfeed);
        for base in [
            GroupElement::generator(),
            GroupElement::generator_h(),
            GroupElement::hash_to_group("test/fbt", b"base"),
        ] {
            let table = FixedBaseTable::new(&base);
            assert_eq!(*table.base(), base);
            for _ in 0..10 {
                let e = random_scalar(&mut next);
                assert_eq!(table.exp(&e), naive_exp(&base, &e), "base {base} exp {e}");
            }
            assert_eq!(table.exp(&Scalar::ZERO), GroupElement::identity());
            assert_eq!(table.exp(&Scalar::ONE), base);
        }
    }

    #[test]
    fn generator_exp_uses_table_and_matches_naive() {
        let g = GroupElement::generator();
        let mut next = test_rng(0xabcd);
        for _ in 0..10 {
            let e = random_scalar(&mut next);
            assert_eq!(g.exp(&e), naive_exp(&g, &e));
        }
    }

    /// Every supported window width must produce bit-identical results,
    /// including at digit positions that straddle limb boundaries
    /// (widths 3, 5, 6, 7 do not divide 64).
    #[test]
    fn fixed_base_windows_agree_across_widths() {
        let base = GroupElement::hash_to_group("test/fbt-widths", b"base");
        let mut next = test_rng(0x71d7);
        let mut exps = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(u64::MAX),
            // All-ones exponent: every window digit nonzero.
            Scalar::from_u256(&U256::from_limbs([u64::MAX; 4])),
        ];
        for _ in 0..6 {
            exps.push(random_scalar(&mut next));
        }
        for bits in 1..=8u32 {
            let table = FixedBaseTable::with_window(&base, bits);
            assert_eq!(table.window_bits(), bits);
            assert_eq!(table.table_bytes(), window_cost_bytes(bits));
            for e in &exps {
                assert_eq!(table.exp(e), naive_exp(&base, e), "bits {bits} exp {e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "window width must be 1..=8 bits")]
    fn fixed_base_rejects_oversized_window() {
        FixedBaseTable::with_window(&GroupElement::generator(), 9);
    }

    /// The budget → window-width map: monotone, floors at 1 bit, and
    /// reaches the 8-bit maximum at the default budget.
    #[test]
    fn budget_selects_window_width() {
        assert_eq!(budget_window_bits(0), 1);
        assert_eq!(budget_window_bits(PROCESS_TABLES * window_cost_bytes(4)), 4);
        assert_eq!(budget_window_bits(DEFAULT_TABLE_BUDGET), 8);
        assert_eq!(budget_window_bits(usize::MAX), 8);
        let mut prev = 0;
        for budget in (0..=600).map(|k| k * 1024) {
            let bits = budget_window_bits(budget);
            assert!(bits >= prev, "width must not shrink as the budget grows");
            assert!(
                bits == 1 || PROCESS_TABLES * window_cost_bytes(bits) <= budget,
                "selected width must fit the budget (budget {budget}, bits {bits})"
            );
            prev = bits;
        }
    }

    /// The process-wide tables for `g` and `h` are budget-sized and the
    /// `exp` dispatch recognizes both bases.
    #[test]
    fn process_tables_are_budget_sized_and_dispatched() {
        let budget = table_budget();
        for table in [generator_table(), generator_h_table()] {
            assert_eq!(table.window_bits(), budget_window_bits(budget));
            assert!(
                PROCESS_TABLES * table.table_bytes()
                    <= budget.max(PROCESS_TABLES * window_cost_bytes(1))
            );
        }
        let h = GroupElement::generator_h();
        let mut next = test_rng(0xb0ff);
        for _ in 0..8 {
            let e = random_scalar(&mut next);
            assert_eq!(h.exp(&e), naive_exp(&h, &e));
        }
        assert_eq!(h.exp(&Scalar::ZERO), GroupElement::identity());
        assert_eq!(h.exp(&Scalar::ONE), h);
    }

    #[test]
    fn multi_exp_matches_naive_all_sizes() {
        let mut next = test_rng(0x5eed);
        // Cover empty, single, exp2-sized, the Straus range, both sides
        // of the crossover, and the Pippenger range.
        for k in [0usize, 1, 2, 3, 7, 16, 80, 320, 321, 400] {
            let terms: Vec<(GroupElement, Scalar)> = (0..k)
                .map(|i| {
                    let base = GroupElement::hash_to_group("test/me", &(i as u64).to_be_bytes());
                    // Alternate full-size and randomizer-size (128-bit)
                    // exponents, the mix batch verification produces.
                    let e = if i % 2 == 0 {
                        random_scalar(&mut next)
                    } else {
                        Scalar::from_u256(&U256::from_limbs([next(), next(), 0, 0]))
                    };
                    (base, e)
                })
                .collect();
            let expected = terms.iter().fold(GroupElement::identity(), |acc, (b, e)| {
                acc.mul(&naive_exp(b, e))
            });
            assert_eq!(GroupElement::multi_exp(&terms), expected, "k = {k}");
        }
    }

    /// Four independent same-base chains must agree with scalar `exp`
    /// bit-for-bit in both engine modes, including degenerate exponents.
    #[test]
    fn exp4_matches_scalar_exp() {
        let mut next = test_rng(0xe4e4);
        let base = GroupElement::hash_to_group("test/e4", b"base");
        let cases: [[Scalar; 4]; 3] = [
            core::array::from_fn(|_| random_scalar(&mut next)),
            [
                Scalar::ZERO,
                Scalar::ONE,
                Scalar::from_u64(next()),
                -Scalar::ONE,
            ],
            [Scalar::ZERO, Scalar::ZERO, Scalar::ZERO, Scalar::ZERO],
        ];
        for engine in [Some(QuadEngine::forced_scalar(&Fp::modulus(), Fp::N0INV))]
            .into_iter()
            .chain([QuadEngine::forced_vector(&Fp::modulus(), Fp::N0INV)])
            .flatten()
        {
            for exps in &cases {
                let got = base.exp4_with(exps, &engine);
                for l in 0..4 {
                    assert_eq!(
                        got[l],
                        base.exp(&exps[l]),
                        "lane {l}, simd = {}",
                        engine.simd()
                    );
                }
            }
        }
        // The public wrapper (whatever hardware dispatch it takes).
        let exps: [Scalar; 4] = core::array::from_fn(|_| random_scalar(&mut next));
        let got = base.exp4(&exps);
        for l in 0..4 {
            assert_eq!(got[l], base.exp(&exps[l]));
        }
    }

    #[test]
    fn exp_many_matches_scalar_exp() {
        let mut next = test_rng(0xe512);
        for base in [
            GroupElement::hash_to_group("test/em", b"base"),
            GroupElement::generator(),
        ] {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 9] {
                let exps: Vec<Scalar> = (0..len).map(|_| random_scalar(&mut next)).collect();
                let got = base.exp_many(&exps);
                let want: Vec<GroupElement> = exps.iter().map(|e| base.exp(e)).collect();
                assert_eq!(got, want, "len = {len}");
            }
        }
    }

    /// Timing probe for `exp4`; run manually with
    /// `cargo test --release --features avx2 -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn exp4_timing_probe() {
        let mut next = test_rng(0xe4aa);
        let base = GroupElement::hash_to_group("probe/e4", b"base");
        let exps: [Scalar; 4] = core::array::from_fn(|_| random_scalar(&mut next));
        let time = |f: &dyn Fn() -> [GroupElement; 4]| {
            let reps = 200;
            let mut best = u128::MAX;
            for _ in 0..5 {
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(f());
                }
                best = best.min(t0.elapsed().as_nanos() / reps);
            }
            best
        };
        let Some(engine) = QuadEngine::forced_vector(&Fp::modulus(), Fp::N0INV) else {
            println!("exp4: no AVX2, nothing to probe");
            return;
        };
        let scalar_ns = time(&|| core::array::from_fn(|i| base.exp(&exps[i])));
        let simd_ns = time(&|| base.exp4_with(&exps, &engine));
        println!(
            "exp4: scalar={scalar_ns}ns/4  simd={simd_ns}ns/4  ratio={:.2}x",
            scalar_ns as f64 / simd_ns as f64
        );
    }

    /// Timing probe for the SIMD dispatch threshold; run manually with
    /// `cargo test --release --features avx2 -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn straus_simd_timing_probe() {
        let mut next = test_rng(0xbea7);
        let Some(engine) = QuadEngine::forced_vector(&Fp::modulus(), Fp::N0INV) else {
            println!("straus_simd: no AVX2, nothing to probe");
            return;
        };
        for k in [42usize, 48, 64, 96, 160, 260, 320] {
            let terms: Vec<(GroupElement, Scalar)> = (0..k)
                .map(|i| {
                    let base = GroupElement::hash_to_group("probe", &(i as u64).to_be_bytes());
                    // Mirror the exponent mix of a grouped DLEQ batch:
                    // 64-bit weights, 192-bit weight·challenge products,
                    // and the occasional full-width merged exponent.
                    let e = if i % 13 == 12 {
                        random_scalar(&mut next)
                    } else if i % 2 == 0 {
                        Scalar::from_u64(next())
                    } else {
                        Scalar::from_u256(&U256::from_limbs([next(), next(), next(), 0]))
                    };
                    (base, e)
                })
                .collect();
            let time = |f: &dyn Fn() -> GroupElement| {
                let reps = 20;
                let mut best = u128::MAX;
                for _ in 0..5 {
                    let t0 = std::time::Instant::now();
                    for _ in 0..reps {
                        std::hint::black_box(f());
                    }
                    best = best.min(t0.elapsed().as_nanos() / reps);
                }
                best
            };
            let scalar_ns = time(&|| GroupElement::straus(&terms));
            let simd_ns = time(&|| GroupElement::straus_simd(&terms, &engine));
            println!(
                "k={k:4}  scalar={scalar_ns:8}ns  simd={simd_ns:8}ns  ratio={:.2}x",
                scalar_ns as f64 / simd_ns as f64
            );
        }
    }

    /// The SIMD-split Straus accumulator is bit-identical to the scalar
    /// one on the same plan — checked on both quad-engine modes so the
    /// test is meaningful even without AVX2 hardware.
    #[test]
    fn straus_simd_matches_scalar_straus() {
        let mut next = test_rng(0xd1ce);
        for k in [48usize, 63, 100] {
            let terms: Vec<(GroupElement, Scalar)> = (0..k)
                .map(|i| {
                    let base = GroupElement::hash_to_group("test/ss", &(i as u64).to_be_bytes());
                    let e = match i % 3 {
                        0 => random_scalar(&mut next),
                        1 => Scalar::from_u256(&U256::from_limbs([next(), next(), 0, 0])),
                        _ => Scalar::from_u64(next() & 0xffff),
                    };
                    (base, e)
                })
                .collect();
            let want = GroupElement::straus(&terms);
            for engine in [Some(QuadEngine::forced_scalar(&Fp::modulus(), Fp::N0INV))]
                .into_iter()
                .chain([QuadEngine::forced_vector(&Fp::modulus(), Fp::N0INV)])
                .flatten()
            {
                assert_eq!(
                    GroupElement::straus_simd(&terms, &engine),
                    want,
                    "k = {k}, simd = {}",
                    engine.simd()
                );
            }
        }
    }

    /// Repeated bases are merged before the window machinery runs; the
    /// result equals the unmerged fold, including exponent sums that
    /// wrap the group order.
    #[test]
    fn multi_exp_merges_repeated_bases() {
        let mut next = test_rng(0xfade);
        let bases: Vec<GroupElement> = (0..4)
            .map(|i| GroupElement::hash_to_group("test/mg", &(i as u64).to_be_bytes()))
            .collect();
        let terms: Vec<(GroupElement, Scalar)> = (0..24)
            .map(|i| (bases[i % 4], random_scalar(&mut next)))
            .collect();
        let expected = terms.iter().fold(GroupElement::identity(), |acc, (b, e)| {
            acc.mul(&naive_exp(b, e))
        });
        assert_eq!(GroupElement::multi_exp(&terms), expected);
    }

    #[test]
    fn multi_exp_handles_degenerate_exponents() {
        let g = GroupElement::generator();
        let h = GroupElement::generator_h();
        // All-zero exponents, tiny exponents, and repeated bases.
        let terms = vec![
            (g, Scalar::ZERO),
            (h, Scalar::ONE),
            (g, Scalar::from_u64(2)),
            (g, Scalar::ZERO),
        ];
        let expected = h.mul(&g.exp(&Scalar::from_u64(2)));
        assert_eq!(GroupElement::multi_exp(&terms), expected);
        let zeros = vec![(g, Scalar::ZERO); 60];
        assert_eq!(GroupElement::multi_exp(&zeros), GroupElement::identity());
    }

    #[test]
    fn non_subgroup_element_rejected() {
        // 2 is a quadratic non-residue mod a safe prime p ≡ 7 (mod 8)?
        // Rather than rely on that, find any non-residue by testing.
        let mut rejected = false;
        for v in 2u64..20 {
            if GroupElement::from_fp(Fp::from_u64(v)).is_none() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "some small integer must be a non-residue");
        assert!(GroupElement::from_fp(Fp::ZERO).is_none());
    }

    #[test]
    fn membership_fixed_cases() {
        // The oracle the Legendre-symbol test replaced.
        let oracle = |v: &Fp| !v.is_zero() && v.pow(&MODULUS_Q) == Fp::ONE;
        let p_minus_1 = Fp::ZERO - Fp::ONE;
        // p ≡ 3 (mod 4), so −1 is a non-residue.
        assert_eq!(Fp::modulus().limbs()[0] & 3, 3);
        assert!(GroupElement::from_fp(p_minus_1).is_none());
        assert!(GroupElement::from_fp(Fp::ZERO).is_none());
        assert_eq!(
            GroupElement::from_fp(Fp::ONE),
            Some(GroupElement::identity())
        );
        for v in [Fp::ZERO, Fp::ONE, p_minus_1]
            .into_iter()
            .chain((2u64..200).map(Fp::from_u64))
        {
            assert_eq!(GroupElement::from_fp(v).is_some(), oracle(&v), "{v}");
            // A residue's negation is a non-residue and vice versa.
            if !v.is_zero() {
                assert_ne!(
                    GroupElement::from_fp(v).is_some(),
                    GroupElement::from_fp(-v).is_some(),
                    "±{v}"
                );
            }
        }
        // Values at and above p never reach the symbol through bytes.
        let p = Fp::modulus();
        assert_eq!(GroupElement::from_bytes(&p.to_be_bytes()), None);
        let (p_plus_4, _) = p.overflowing_add(&U256::from_u64(4));
        assert_eq!(GroupElement::from_bytes(&p_plus_4.to_be_bytes()), None);
        assert_eq!(
            GroupElement::from_bytes(&U256::from_u64(4).to_be_bytes()),
            Some(GroupElement::generator())
        );
        assert_eq!(GroupElement::from_bytes(&[0u8; 32]), None);
    }

    #[test]
    fn byte_roundtrip_and_validation() {
        let g = GroupElement::generator().exp(&Scalar::from_u64(99));
        let bytes = g.to_bytes();
        assert_eq!(GroupElement::from_bytes(&bytes), Some(g));
        // Non-canonical encoding (>= p) must be rejected.
        let too_big = [0xffu8; 32];
        assert_eq!(GroupElement::from_bytes(&too_big), None);
    }

    #[test]
    fn hash_to_group_deterministic_and_distinct() {
        let a = GroupElement::hash_to_group("d", b"x");
        let b = GroupElement::hash_to_group("d", b"x");
        let c = GroupElement::hash_to_group("d", b"y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Result is a valid subgroup element.
        assert!(GroupElement::from_fp(*a.as_fp()).is_some());
    }
}
