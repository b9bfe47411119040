//! A minimal arbitrary-precision unsigned integer.
//!
//! Route IDs in KAR are bounded by `M = Π sᵢ` (the product of the switch
//! IDs folded into the route). With full protection on a national-scale
//! backbone, `M` easily exceeds 128 bits, so the encoder needs true
//! arbitrary precision. We implement the minimal set of operations the
//! Chinese-Remainder encoder needs (add, sub, mul, divmod, comparison,
//! decimal/hex formatting) rather than pulling in an external bignum
//! crate — the dataplane encoding must stay self-contained and auditable.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limb
//! (the canonical form); zero is the empty limb vector.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision unsigned integer with `u64` limbs.
///
/// # Examples
///
/// ```
/// use kar_rns::BigUint;
///
/// let a = BigUint::from(26_390u64);
/// let b = &a * &BigUint::from(6_479u64);
/// assert_eq!(b.to_string(), "170980810");
/// assert_eq!(b.bits(), 28); // Table 1, partial protection
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BigUint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is `1`.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Builds a value from little-endian `u64` limbs (trailing zeros allowed).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut v = BigUint { limbs };
        v.normalize();
        v
    }

    /// A view of the little-endian limbs (canonical, no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits; `0` for the value `0`.
    ///
    /// This is `⌈log₂(self + 1)⌉`, i.e. the position of the highest set bit
    /// plus one. The paper's Eq. (9) bit length of a route-ID field for a
    /// modulus `M` is `(M - 1).bits()` — see [`crate::route_id_bit_length`].
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        match self.limbs.get(limb) {
            None => false,
            Some(&w) => (w >> (i % 64)) & 1 == 1,
        }
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// `self + other`.
    pub fn add_big(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned subtraction would underflow).
    pub fn sub_big(&self, other: &BigUint) -> BigUint {
        assert!(
            *self >= *other,
            "BigUint subtraction underflow: {self} - {other}"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// `self * other` (schoolbook; quadratic, fine for route-ID sizes).
    pub fn mul_big(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self * m` with a small multiplier.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = (a as u128) * (m as u128) + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// `(self / d, self % d)` with a small divisor.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn divmod_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = rem << 64 | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (BigUint::from_limbs(q), rem as u64)
    }

    /// `self % d` with a small divisor.
    ///
    /// This is the KAR *forwarding* operation: `output_port = R mod switch_id`.
    /// Only the running remainder of [`BigUint::divmod_u64`]'s long
    /// division is kept — no quotient is built, nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let d = d as u128;
        let rem = self
            .limbs
            .iter()
            .rev()
            .fold(0u128, |rem, &limb| (rem << 64 | limb as u128) % d);
        rem as u64
    }

    /// `(self / other, self % other)` by binary long division.
    ///
    /// Quadratic in the bit length; route IDs are at most a few thousand
    /// bits, so this is plenty.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn divmod_big(&self, other: &BigUint) -> (BigUint, BigUint) {
        assert!(!other.is_zero(), "division by zero");
        if let Some(d) = other.to_u64() {
            let (q, r) = self.divmod_u64(d);
            return (q, BigUint::from(r));
        }
        match self.cmp(other) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        let shift = self.bits() - other.bits();
        let mut rem = self.clone();
        let mut quot = BigUint::zero();
        // Walk the divisor down from the aligned position.
        let mut div = other.shl_bits(shift);
        for s in (0..=shift).rev() {
            if rem >= div {
                rem = rem.sub_big(&div);
                quot = quot.set_bit(s);
            }
            div = div.shr_bits(1);
        }
        (quot, rem)
    }

    /// `self % other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn rem_big(&self, other: &BigUint) -> BigUint {
        self.divmod_big(other).1
    }

    /// `self << n` bits.
    pub fn shl_bits(&self, n: u32) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &a in &self.limbs {
                out.push(a << bit_shift | carry);
                carry = a >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> n` bits.
    pub fn shr_bits(&self, n: u32) -> BigUint {
        let limb_shift = (n / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push(src[i] >> bit_shift | hi.checked_shl(64 - bit_shift).unwrap_or(0));
            }
        }
        BigUint::from_limbs(out)
    }

    /// Returns a copy with bit `i` set.
    pub fn set_bit(&self, i: u32) -> BigUint {
        let limb = (i / 64) as usize;
        let mut limbs = self.limbs.clone();
        if limbs.len() <= limb {
            limbs.resize(limb + 1, 0);
        }
        limbs[limb] |= 1u64 << (i % 64);
        BigUint::from_limbs(limbs)
    }

    /// Big-endian byte serialization (empty for zero) — the on-wire form of
    /// a route ID in a packet header.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Parses a big-endian byte slice (inverse of [`Self::to_bytes_be`]).
    pub fn from_bytes_be(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        BigUint::from_limbs(limbs)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_limbs(vec![v])
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $imp:ident) => {
        impl $trait for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$imp(rhs)
            }
        }
        impl $trait for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$imp(&rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$imp(rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$imp(&rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_big);
forward_binop!(Sub, sub, sub_big);
forward_binop!(Mul, mul, mul_big);
forward_binop!(Rem, rem, rem_big);

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_big(rhs);
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = self.sub_big(rhs);
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = self.mul_big(rhs);
    }
}

impl Shl<u32> for &BigUint {
    type Output = BigUint;
    fn shl(self, n: u32) -> BigUint {
        self.shl_bits(n)
    }
}

impl Shr<u32> for &BigUint {
    type Output = BigUint;
    fn shr(self, n: u32) -> BigUint {
        self.shr_bits(n)
    }
}

impl Sum for BigUint {
    fn sum<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        iter.fold(BigUint::zero(), |acc, x| acc.add_big(&x))
    }
}

impl Product for BigUint {
    fn product<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        iter.fold(BigUint::one(), |acc, x| acc.mul_big(&x))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        // Repeated division by the largest power of ten fitting a u64.
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        let mut parts: Vec<u64> = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divmod_u64(CHUNK);
            parts.push(r);
            cur = q;
        }
        let mut s = parts.last().unwrap().to_string();
        for part in parts.iter().rev().skip(1) {
            s.push_str(&format!("{part:019}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0x", "0");
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::Binary for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0b", "0");
        }
        let mut s = format!("{:b}", self.limbs.last().unwrap());
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:064b}"));
        }
        f.pad_integral(true, "0b", &s)
    }
}

/// Error returned when parsing a [`BigUint`] from a decimal string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    offending: char,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid digit `{}` in BigUint literal", self.offending)
    }
}

impl std::error::Error for ParseBigUintError {}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseBigUintError { offending: ' ' });
        }
        let mut out = BigUint::zero();
        for ch in s.chars() {
            if ch == '_' {
                continue;
            }
            let d = ch.to_digit(10).ok_or(ParseBigUintError { offending: ch })?;
            out = out.mul_u64(10).add_big(&BigUint::from(d as u64));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_identities() {
        let z = BigUint::zero();
        let o = BigUint::one();
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(z.bits(), 0);
        assert_eq!(o.bits(), 1);
        assert_eq!((&z + &o), o);
        assert_eq!((&o * &z), z);
    }

    #[test]
    fn from_u128_round_trips() {
        let v: u128 = 0x1234_5678_9abc_def0_0fed_cba9_8765_4321;
        let b = BigUint::from(v);
        assert_eq!(b.to_u128(), Some(v));
        assert_eq!(b.to_u64(), None);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let s = &a + &b;
        assert_eq!(s.to_u128(), Some(1u128 << 64));
        assert_eq!(s.limbs(), &[0, 1]);
    }

    #[test]
    fn sub_with_borrow_across_limbs() {
        let a = BigUint::from(1u128 << 64);
        let b = BigUint::one();
        let d = &a - &b;
        assert_eq!(d.to_u64(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::from(3u64) - BigUint::from(5u64);
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_u64;
        let b = 0xfeed_face_cafe_u64;
        let p = BigUint::from(a).mul_big(&BigUint::from(b));
        assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn mul_large_cross_limb() {
        let a = BigUint::from(u64::MAX).mul_big(&BigUint::from(u64::MAX));
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let expect = (u64::MAX as u128) * (u64::MAX as u128);
        assert_eq!(a.to_u128(), Some(expect));
    }

    #[test]
    fn divmod_u64_basic() {
        let a = BigUint::from(44u64);
        assert_eq!(a.rem_u64(4), 0);
        assert_eq!(a.rem_u64(7), 2);
        assert_eq!(a.rem_u64(11), 0);
    }

    #[test]
    fn divmod_u64_multi_limb() {
        let v: u128 = 123_456_789_012_345_678_901_234_567_890;
        let a = BigUint::from(v);
        let (q, r) = a.divmod_u64(97);
        assert_eq!(q.to_u128(), Some(v / 97));
        assert_eq!(r, (v % 97) as u64);
    }

    #[test]
    fn divmod_big_reconstructs() {
        let a = BigUint::from_str("340282366920938463463374607431768211456123456789").unwrap();
        let b = BigUint::from_str("987654321987654321").unwrap();
        let (q, r) = a.divmod_big(&b);
        assert!(r < b);
        assert_eq!(&q * &b + &r, a);
    }

    #[test]
    fn divmod_big_smaller_dividend() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(1u128 << 100);
        let (q, r) = a.divmod_big(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn rem_big_equal_values_is_zero() {
        let a = BigUint::from(1u128 << 100);
        assert!(a.rem_big(&a).is_zero());
    }

    #[test]
    fn shifts_round_trip() {
        let a = BigUint::from_str("12345678901234567890123456789").unwrap();
        for n in [0u32, 1, 7, 63, 64, 65, 130] {
            assert_eq!(a.shl_bits(n).shr_bits(n), a, "shift by {n}");
        }
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigUint::from(26_390u64 - 1).bits(), 15); // Table 1 row 1
        assert_eq!(BigUint::from(1u64).bits(), 1);
        assert_eq!(BigUint::from(255u64).bits(), 8);
        assert_eq!(BigUint::from(256u64).bits(), 9);
        assert_eq!(BigUint::from(1u128 << 64).bits(), 65);
    }

    #[test]
    fn display_and_parse_round_trip() {
        for s in ["0", "1", "44", "660", "26390", "170980810", "4409623710090"] {
            let v: BigUint = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        let big = "123456789012345678901234567890123456789012345678901234567890";
        let v: BigUint = big.parse().unwrap();
        assert_eq!(v.to_string(), big);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("12x4".parse::<BigUint>().is_err());
        assert!("".parse::<BigUint>().is_err());
    }

    #[test]
    fn parse_allows_separators() {
        assert_eq!(
            "26_390".parse::<BigUint>().unwrap(),
            BigUint::from(26390u64)
        );
    }

    #[test]
    fn hex_and_binary_formatting() {
        let v = BigUint::from(44u64);
        assert_eq!(format!("{v:x}"), "2c");
        assert_eq!(format!("{v:b}"), "101100");
        assert_eq!(format!("{:#x}", v), "0x2c");
        let z = BigUint::zero();
        assert_eq!(format!("{z:x}"), "0");
    }

    #[test]
    fn bytes_round_trip() {
        for s in ["0", "1", "65535", "65536", "18446744073709551616"] {
            let v: BigUint = s.parse().unwrap();
            assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        }
        assert!(BigUint::zero().to_bytes_be().is_empty());
    }

    #[test]
    fn ordering_is_numeric() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(1u128 << 64);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn sum_and_product_impls() {
        let vals = [2u64, 3, 5, 7];
        let s: BigUint = vals.iter().map(|&v| BigUint::from(v)).sum();
        let p: BigUint = vals.iter().map(|&v| BigUint::from(v)).product();
        assert_eq!(s.to_u64(), Some(17));
        assert_eq!(p.to_u64(), Some(210));
    }

    #[test]
    fn set_bit_and_bit() {
        let v = BigUint::zero().set_bit(70);
        assert!(v.bit(70));
        assert!(!v.bit(69));
        assert_eq!(v.bits(), 71);
    }

    #[test]
    fn mul_u64_carries() {
        let a = BigUint::from(u64::MAX);
        let p = a.mul_u64(u64::MAX);
        assert_eq!(p.to_u128(), Some(u64::MAX as u128 * u64::MAX as u128));
    }
}
