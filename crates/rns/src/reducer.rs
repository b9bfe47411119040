//! Precomputed reduction state for the forwarding modulus.
//!
//! KAR's dataplane operation is `R mod s` for a fixed switch ID `s` and a
//! per-packet route ID `R`. [`BigUint::rem_u64`] re-derives the full
//! division state on every call (a quotient allocation plus one 128-bit
//! division per limb), which makes the *simulator* — not the routing
//! scheme — the per-hop bottleneck. A [`Reducer`] is built once per
//! switch and reduces any route ID without dividing at all:
//!
//! * powers of two (the paper's worked example uses switch ID 4) reduce
//!   with a mask;
//! * every other modulus uses the reciprocal method of Lemire, Kaser &
//!   Kurz ("Faster remainder by direct computation", 2019): with
//!   `c = ⌊2¹²⁸/d⌋ + 1`, the residue of any `u64` value `n` is
//!   `⌊((c·n mod 2¹²⁸) · d) / 2¹²⁸⌋`, exact whenever `n·d < 2¹²⁸` —
//!   always true for 64-bit operands;
//! * multi-limb route IDs fold limb by limb (Horner), re-using the same
//!   constant: for `d ≤ 2³²` each 32-bit half folds through the
//!   reciprocal (the intermediate `acc·2³² + half` stays below `2⁶⁴`),
//!   and for larger `d` the fold uses the cached `2⁶⁴ mod d`. The
//!   deployed case, `d < 2¹⁶`, instead reduces every limb on its own and
//!   folds two limbs per dependent step through the cached `2⁶⁴ mod d`
//!   and `2¹²⁸ mod d`: on a 20-limb route ID the serial chain is 10
//!   reductions instead of 40.
//!
//! The result is bit-for-bit identical to [`BigUint::rem_u64`] — the
//! simulator's `SwitchCtx::residue` asserts exactly that on every hop of
//! every debug build.

use crate::biguint::BigUint;

/// Division-free modular reduction by a fixed `u64` modulus.
///
/// # Examples
///
/// ```
/// use kar_rns::{BigUint, Reducer};
///
/// let r = Reducer::new(29);
/// assert_eq!(r.rem_u64(660), 660 % 29);
/// let big: BigUint = "123456789012345678901234567890".parse().unwrap();
/// assert_eq!(r.rem(&big), big.rem_u64(29));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reducer {
    d: u64,
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `d` is a power of two (including 1): residue is a mask.
    Pow2 { mask: u64 },
    /// `d < 2¹⁶`: reductions through the *64-bit* reciprocal
    /// `c64 = ⌊2⁶⁴/d⌋ + 1` — one native multiply plus one widening
    /// multiply each. Exact for any operand `n < d·2³²`, since then the
    /// error term satisfies `n·(d − 2⁶⁴ mod d) ≤ d²·2³² < 2⁶⁴`. A limb
    /// reduces as two 32-bit halves; limbs `hi, lo` below an accumulator
    /// fold as `acc·b128 + r(hi)·b64 + r(lo) < 2d² + d < d·2³²` with
    /// `b64 = 2⁶⁴ mod d`, `b128 = 2¹²⁸ mod d`. This is the deployed case:
    /// switch IDs are small coprimes (topo15/rnp28 max out below 2⁸).
    Tiny { c64: u64, b64: u64, b128: u64 },
    /// `2¹⁶ ≤ d ≤ 2³² − 1`: same Horner fold through the 128-bit
    /// reciprocal (the 64-bit one is no longer exact).
    Small { c: u128 },
    /// `d > 2³² − 1`: Horner over full limbs with `b64 = 2⁶⁴ mod d`.
    Large { c: u128, b64: u64 },
}

impl Reducer {
    /// Precomputes reduction constants for the modulus `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` (mirrors [`BigUint::rem_u64`]).
    pub fn new(d: u64) -> Self {
        assert!(d != 0, "division by zero");
        let mode = if d.is_power_of_two() {
            Mode::Pow2 { mask: d - 1 }
        } else if d < 1 << 16 {
            // c64 = ⌊2⁶⁴/d⌋ + 1; d is not a power of two, so it does not
            // divide 2⁶⁴ and ⌊(2⁶⁴−1)/d⌋ = ⌊2⁶⁴/d⌋.
            let b64 = (u64::MAX % d + 1) % d;
            Mode::Tiny {
                c64: u64::MAX / d + 1,
                b64,
                b128: b64 * b64 % d,
            }
        } else {
            // c = ⌊2¹²⁸/d⌋ + 1, same argument one level up.
            let c = u128::MAX / d as u128 + 1;
            if d <= u32::MAX as u64 {
                Mode::Small { c }
            } else {
                let b64 = ((u64::MAX % d) + 1) % d;
                Mode::Large { c, b64 }
            }
        };
        Reducer { d, mode }
    }

    /// The modulus this reducer was built for.
    pub fn modulus(&self) -> u64 {
        self.d
    }

    /// `n mod d` without dividing.
    #[inline]
    pub fn rem_u64(&self, n: u64) -> u64 {
        match self.mode {
            Mode::Pow2 { mask } => n & mask,
            Mode::Tiny { c64, .. } => tiny_limb(c64, n, self.d),
            Mode::Small { c } | Mode::Large { c, .. } => fastmod(c, n, self.d),
        }
    }

    /// `n mod d` for a multi-limb route ID, bit-identical to
    /// [`BigUint::rem_u64`] but with no quotient allocation and no
    /// 128-bit division on the hot path.
    pub fn rem(&self, n: &BigUint) -> u64 {
        let limbs = n.limbs();
        match self.mode {
            // A power-of-two modulus only sees the low limb.
            Mode::Pow2 { mask } => limbs.first().copied().unwrap_or(0) & mask,
            Mode::Tiny { c64, b64, b128 } => {
                // Limb residues do not depend on each other, so only the
                // pair fold is serial. An odd top limb seeds the
                // accumulator; pairs below it follow from the top down.
                let d = self.d;
                let (pairs, top) = limbs.split_at(limbs.len() & !1);
                let mut acc = top.first().map_or(0, |&limb| tiny_limb(c64, limb, d));
                for pair in pairs.rchunks_exact(2) {
                    let (lo, hi) = (tiny_limb(c64, pair[0], d), tiny_limb(c64, pair[1], d));
                    acc = fastmod64(c64, acc * b128 + hi * b64 + lo, d);
                }
                acc
            }
            Mode::Small { c } => {
                // acc < d ≤ 2³²−1, so acc·2³² + half fits a u64 and the
                // reciprocal fold is exact.
                let mut acc = 0u64;
                for &limb in limbs.iter().rev() {
                    acc = fastmod(c, acc << 32 | limb >> 32, self.d);
                    acc = fastmod(c, acc << 32 | limb & 0xffff_ffff, self.d);
                }
                acc
            }
            Mode::Large { b64, .. } => {
                // (acc·2⁶⁴ + limb) mod d = (acc·(2⁶⁴ mod d) + limb) mod d;
                // the intermediate is < d² + 2⁶⁴ < 2¹²⁸. One 128-bit
                // modulo per limb, but switch IDs above 2³² are not a
                // realistic deployment — this arm exists for totality.
                let mut acc = 0u64;
                for &limb in limbs.iter().rev() {
                    let t = acc as u128 * b64 as u128 + limb as u128;
                    acc = (t % self.d as u128) as u64;
                }
                acc
            }
        }
    }
}

/// `n mod d` via the 64-bit reciprocal `c64 = ⌊2⁶⁴/d⌋ + 1`.
///
/// Exactness condition: `n·(d − 2⁶⁴ mod d) < 2⁶⁴`, implied by
/// `n·d < 2⁶⁴` — the caller guarantees `n < d·2³²` and `d < 2¹⁶`.
#[inline]
fn fastmod64(c64: u64, n: u64, d: u64) -> u64 {
    let frac = c64.wrapping_mul(n);
    ((frac as u128 * d as u128) >> 64) as u64
}

/// A full `u64` mod `d < 2¹⁶`: it exceeds the 64-bit reciprocal's
/// exactness bound, so its halves fold (both operands stay below
/// `d·2³²`).
#[inline]
fn tiny_limb(c64: u64, n: u64, d: u64) -> u64 {
    let acc = fastmod64(c64, n >> 32, d);
    fastmod64(c64, acc << 32 | n & 0xffff_ffff, d)
}

/// `n mod d` via the precomputed reciprocal `c = ⌊2¹²⁸/d⌋ + 1`.
///
/// Exactness condition (Lemire et al., Thm. 1): `n·(d − 2¹²⁸ mod d) < 2¹²⁸`,
/// implied by `n·d < 2¹²⁸` — always true for 64-bit `n` and `d`.
#[inline]
fn fastmod(c: u128, n: u64, d: u64) -> u64 {
    let frac = c.wrapping_mul(n as u128);
    // ⌊frac·d / 2¹²⁸⌋ without a 256-bit type: split frac into 64-bit
    // halves; hi·d ≤ (2⁶⁴−1)² and the added carry is < 2⁶⁴, so the sum
    // cannot overflow u128.
    let lo = (frac as u64) as u128;
    let hi = frac >> 64;
    let d = d as u128;
    ((hi * d + ((lo * d) >> 64)) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_hardware_modulo_on_u64() {
        let divisors = [
            1u64,
            2,
            3,
            4,
            5,
            7,
            11,
            13,
            29,
            31,
            97,
            255,
            256,
            26_390,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u32::MAX as u64 + 2,
            (1 << 40) - 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let values = [
            0u64,
            1,
            2,
            44,
            660,
            26_390,
            u32::MAX as u64,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &d in &divisors {
            let r = Reducer::new(d);
            assert_eq!(r.modulus(), d);
            for &n in &values {
                assert_eq!(r.rem_u64(n), n % d, "{n} mod {d}");
            }
        }
    }

    #[test]
    fn matches_biguint_rem_on_multi_limb_values() {
        let vals: Vec<BigUint> = [
            "0",
            "1",
            "660",
            "170980810",
            "18446744073709551615",                    // 2^64 - 1
            "18446744073709551616",                    // 2^64
            "340282366920938463463374607431768211455", // 2^128 - 1
            "340282366920938463463374607431768211457",
            "123456789012345678901234567890123456789012345678901234567890",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        for d in [
            1u64,
            2,
            4,
            7,
            11,
            29,
            31,
            26_390,
            4_294_967_291,
            1 << 33,
            u64::MAX,
        ] {
            let r = Reducer::new(d);
            for v in &vals {
                assert_eq!(r.rem(v), v.rem_u64(d), "{v} mod {d}");
            }
        }
    }

    #[test]
    fn paper_worked_example() {
        // Route ID 660 over basis {4, 7, 11, 5} (paper §2.2).
        let route = BigUint::from(660u64);
        for (d, port) in [(4u64, 0u64), (7, 2), (11, 0), (5, 0)] {
            assert_eq!(Reducer::new(d).rem(&route), port);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_modulus_panics() {
        let _ = Reducer::new(0);
    }
}
