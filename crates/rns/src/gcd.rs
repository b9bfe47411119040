//! Greatest common divisor, extended Euclid, and modular inverses.
//!
//! KAR's encoder needs one inverse per switch — Eq. 7's `Lᵢ = Mᵢ⁻¹ mod sᵢ`,
//! or in the mixed-radix kernel `(s₀⋯sᵢ₋₁)⁻¹ mod sᵢ`. The switch IDs `sᵢ`
//! fit `u64`, so the inverse is computed in native arithmetic after
//! reducing the (large) product modulo `sᵢ`.

/// Greatest common divisor by the binary (Stein) algorithm.
///
/// `gcd(0, 0) == 0` by convention.
///
/// # Examples
///
/// ```
/// assert_eq!(kar_rns::gcd(44, 308), 44);
/// assert_eq!(kar_rns::gcd(4, 7), 1);
/// ```
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`.
///
/// Coefficients are returned as `i128` so that callers with `u64` inputs
/// never overflow.
///
/// # Examples
///
/// ```
/// let (g, x, y) = kar_rns::extended_gcd(240, 46);
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// ```
pub fn extended_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        return (a, 1, 0);
    }
    let (g, x1, y1) = extended_gcd(b, a % b);
    (g, y1, x1 - (a / b) * y1)
}

/// Modular multiplicative inverse: the `x` with `a·x ≡ 1 (mod m)`.
///
/// Returns `None` when `gcd(a, m) != 1` (no inverse exists) or when
/// `m < 2`.
///
/// This is Eq. (8) of the paper: `⟨Lᵢ·Mᵢ⟩_{sᵢ} = 1`.
///
/// # Examples
///
/// ```
/// // The paper's worked example: L₂ = ⟨44⁻¹⟩₇ = 4.
/// assert_eq!(kar_rns::mod_inverse(44, 7), Some(4));
/// // and L₁ = ⟨77⁻¹⟩₄ = 1:
/// assert_eq!(kar_rns::mod_inverse(77, 4), Some(1));
/// // No inverse when not coprime:
/// assert_eq!(kar_rns::mod_inverse(6, 4), None);
/// ```
pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    if m < 2 {
        return None;
    }
    // Iterative extended Euclid on `(m, a)` that tracks only the
    // coefficient of `a`, as a magnitude: the coefficients alternate in
    // sign (+1 for `a`, then −q₁, then +(1 + q₁q₂), …) and never exceed
    // `m` in magnitude, so `u64` holds them and no step divides an i128.
    let (mut r0, mut r1) = (m, if a < m { a } else { a % m });
    let (mut t0, mut t1) = (0u64, 1u64);
    let mut negative = true; // the sign of t0's coefficient (0 for m)
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 + q * t1);
        negative = !negative;
    }
    match (r0, negative) {
        (1, false) => Some(t0),
        (1, true) => Some(m - t0),
        _ => None,
    }
}

/// Least common multiple; saturates at `u64::MAX` on overflow.
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Returns `true` when `a` and `b` share no common factor (`gcd == 1`).
pub fn coprime(a: u64, b: u64) -> bool {
    gcd(a, b) == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 9), 9);
        assert_eq!(gcd(9, 0), 9);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(1 << 40, 1 << 20), 1 << 20);
    }

    #[test]
    fn gcd_is_commutative() {
        for a in [2u64, 15, 28, 1024, 99991] {
            for b in [3u64, 14, 27, 4096, 65537] {
                assert_eq!(gcd(a, b), gcd(b, a));
            }
        }
    }

    #[test]
    fn extended_gcd_bezout_identity() {
        for (a, b) in [(240i128, 46), (7, 4), (11, 5), (1, 1), (100, 0)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(a * x + b * y, g, "bezout for ({a},{b})");
        }
    }

    #[test]
    fn paper_worked_example_inverses() {
        // Section 2.2 primary route {4, 7, 11}:
        assert_eq!(mod_inverse(77, 4), Some(1));
        assert_eq!(mod_inverse(44, 7), Some(4));
        assert_eq!(mod_inverse(28, 11), Some(2));
        // Driven-deflection example {4, 7, 11, 5}:
        assert_eq!(mod_inverse(385, 4), Some(1));
        assert_eq!(mod_inverse(220, 7), Some(5));
        assert_eq!(mod_inverse(140, 11), Some(7));
        assert_eq!(mod_inverse(308, 5), Some(2));
    }

    #[test]
    fn inverse_verifies() {
        for m in [3u64, 4, 5, 7, 11, 13, 101, 997] {
            for a in 1..m {
                if gcd(a, m) == 1 {
                    let inv = mod_inverse(a, m).unwrap();
                    assert_eq!((a as u128 * inv as u128) % m as u128, 1);
                    assert!(inv < m);
                }
            }
        }
    }

    #[test]
    fn inverse_of_non_coprime_is_none() {
        assert_eq!(mod_inverse(4, 8), None);
        assert_eq!(mod_inverse(10, 15), None);
        assert_eq!(mod_inverse(0, 7), None);
    }

    #[test]
    fn inverse_degenerate_moduli() {
        assert_eq!(mod_inverse(3, 0), None);
        assert_eq!(mod_inverse(3, 1), None);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(7, 11), 77);
        assert_eq!(lcm(u64::MAX, 2), u64::MAX); // saturates
    }

    #[test]
    fn coprime_predicate() {
        assert!(coprime(4, 7));
        assert!(!coprime(4, 10));
        assert!(coprime(1, 1));
    }
}
