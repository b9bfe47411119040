//! Chinese-Remainder encoding of forwarding paths (paper §2.2).
//!
//! A route is the pair `(S, P)` of switch IDs and output ports. The route
//! ID is the unique `R ∈ [0, M)`, `M = Π sᵢ`, with `R mod sᵢ = pᵢ` for
//! every `i` (Eqs. 1–4). Because the CRT reconstruction is a commutative
//! sum, switches disjoint from the primary path can be folded in at any
//! time — the basis of *driven deflection forwarding paths*.
//!
//! Every entry point runs one kernel, Garner's mixed-radix form of the
//! same reconstruction. It keeps two little-endian limb buffers, `R` and
//! the running product `M`, and folds one modulus per step:
//!
//! ```text
//! d = (pᵢ − R mod sᵢ) · (M mod sᵢ)⁻¹ mod sᵢ,   R += M·d,   M ·= sᵢ
//! ```
//!
//! so after step `i` the buffer `R` is the unique value below
//! `s₀⋯sᵢ` with the first `i + 1` residues — Eq. 4's `R` at the last
//! step, bit for bit. Both remainders go through the modulus's
//! [`Reducer`], nothing divides a multi-limb number, and the only heap
//! memory is the two buffers, sized once from the moduli's bit lengths.
//! The step's inverse exists exactly when `sᵢ` is coprime to every
//! earlier modulus, so the same pass validates the basis: there is no
//! pairwise-gcd loop, and only a failing basis pays for
//! [`first_common_factor`] to name the offending pair. `R` does not
//! depend on the order of the steps, so the zero ports go first: while
//! `R` is 0 they need no addend, and over a basis validated already
//! ([`crt_encode`]'s) such a step skips the inverse and only multiplies
//! `M`, as Eq. 4 skipped its zero addends. The final `M` gives the Eq. 9
//! field width, `bits(M − 1)`, which the basis keeps.
//!
//! The literal Eq. 4 sum `⟨Σ pᵢ·Mᵢ·Lᵢ⟩_M` survives only as the test
//! oracle in `tests/crt_differential.rs`.

use crate::biguint::BigUint;
use crate::coprime::first_common_factor;
use crate::gcd::mod_inverse;
use crate::reducer::Reducer;
use std::fmt;

/// A validated pairwise-coprime modulo set (the switch IDs of one route).
///
/// # Examples
///
/// ```
/// use kar_rns::RnsBasis;
///
/// let basis = RnsBasis::new(vec![4, 7, 11])?;
/// assert_eq!(basis.product().to_string(), "308");
/// assert_eq!(basis.bit_length(), 9); // M − 1 = 307
/// # Ok::<(), kar_rns::RnsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RnsBasis {
    moduli: Vec<u64>,
    /// `bits(M − 1)`, read off the kernel's product when the basis was
    /// validated (a function of `moduli`, so equality is unaffected).
    bits: u32,
}

impl RnsBasis {
    /// Validates and wraps a modulo set.
    ///
    /// # Errors
    ///
    /// [`RnsError::NotCoprime`] if any pair shares a factor,
    /// [`RnsError::ModulusTooSmall`] if any modulus is below 2, or
    /// [`RnsError::Empty`] for an empty set.
    pub fn new(moduli: Vec<u64>) -> Result<Self, RnsError> {
        // All-zero residues: the pass only validates and multiplies.
        let sealed = garner(&moduli, |_| 0, false)?;
        Ok(RnsBasis {
            moduli,
            bits: sealed.bits,
        })
    }

    /// The moduli (switch IDs), in insertion order.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of moduli.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Returns `true` if the basis holds no moduli (never constructible —
    /// kept for API completeness alongside [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// `M = Π sᵢ` (Eq. 1) — the dynamic range of the route ID.
    pub fn product(&self) -> BigUint {
        BigUint::from_limbs(product_limbs(&self.moduli))
    }

    /// Bit length a packet-header field must have to carry any route ID of
    /// this basis: `bits(M − 1)`, i.e. `⌈log₂ M⌉` (Eq. 9).
    pub fn bit_length(&self) -> u32 {
        self.bits
    }
}

impl fmt::Display for RnsBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, m) in self.moduli.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

/// Bit length required by a route ID over `moduli` (Eq. 9): the field
/// must hold the largest ID, `M − 1`, so it is `bits(M − 1)` — which is
/// `⌈log₂ M⌉`, one more than `⌈log₂(M − 1)⌉` whenever `M − 1` is a power
/// of two (`{3}` needs 2 bits, `{17}` needs 5) — and 0 for an empty set.
/// The moduli need not be coprime (this also sizes a whole network's
/// allocation); every one must be non-zero.
///
/// # Examples
///
/// ```
/// // Table 1 of the paper (15-node network):
/// assert_eq!(kar_rns::route_id_bit_length(&[10, 7, 13, 29]), 15);
/// assert_eq!(kar_rns::route_id_bit_length(&[10, 7, 13, 29, 11, 19, 31]), 28);
/// assert_eq!(
///     kar_rns::route_id_bit_length(&[10, 7, 13, 29, 11, 19, 31, 17, 37, 41]),
///     43,
/// );
/// assert_eq!(kar_rns::route_id_bit_length(&[3]), 2); // the ID 2 = 0b10
/// ```
pub fn route_id_bit_length(moduli: &[u64]) -> u32 {
    bits_below(&product_limbs(moduli))
}

/// Encodes residues `P` over `basis` into the route ID `R`: the unique
/// `R ∈ [0, M)` with `R mod sᵢ = pᵢ`, which Eq. 4 writes as
/// `R = ⟨Σ pᵢ·Mᵢ·Lᵢ⟩_M` (computed in mixed radix, see the module docs).
///
/// # Errors
///
/// [`RnsError::LengthMismatch`] when `residues.len() != basis.len()`, or
/// [`RnsError::ResidueOutOfRange`] when some `pᵢ ≥ sᵢ` (a port index must
/// be representable as a residue of its switch ID).
///
/// # Examples
///
/// ```
/// use kar_rns::{crt_encode, RnsBasis};
///
/// // The paper's §2.2 example: switches {4, 7, 11}, ports {0, 2, 0} → R = 44.
/// let basis = RnsBasis::new(vec![4, 7, 11])?;
/// let r = crt_encode(&basis, &[0, 2, 0])?;
/// assert_eq!(r.to_u64(), Some(44));
/// # Ok::<(), kar_rns::RnsError>(())
/// ```
pub fn crt_encode(basis: &RnsBasis, residues: &[u64]) -> Result<BigUint, RnsError> {
    if residues.len() != basis.len() {
        return Err(RnsError::LengthMismatch {
            moduli: basis.len(),
            residues: residues.len(),
        });
    }
    Ok(garner(basis.moduli(), |i| residues[i], true)?.route_id)
}

/// Validates the switch IDs of `(switch_id, port)` pairs and encodes the
/// ports into the route ID in one pass — [`RnsBasis::new`] followed by
/// [`crt_encode`], with the same result and the same error for every
/// input, but with no pairwise-gcd loop.
///
/// # Errors
///
/// [`RnsError::Empty`], [`RnsError::ModulusTooSmall`] and
/// [`RnsError::NotCoprime`] as [`RnsBasis::new`] reports them, then
/// [`RnsError::ResidueOutOfRange`] for the first port not below its
/// switch ID (a shared factor anywhere wins over a bad port).
///
/// # Examples
///
/// ```
/// use kar_rns::crt_seal;
///
/// let (basis, r) = crt_seal(&[(4, 0), (7, 2), (11, 0)])?;
/// assert_eq!(r.to_u64(), Some(44));
/// assert_eq!((basis.moduli(), basis.bit_length()), (&[4, 7, 11][..], 9));
/// # Ok::<(), kar_rns::RnsError>(())
/// ```
pub fn crt_seal(pairs: &[(u64, u64)]) -> Result<(RnsBasis, BigUint), RnsError> {
    let moduli: Vec<u64> = pairs.iter().map(|&(s, _)| s).collect();
    let sealed = garner(&moduli, |i| pairs[i].1, false)?;
    let basis = RnsBasis {
        moduli,
        bits: sealed.bits,
    };
    Ok((basis, sealed.route_id))
}

/// What one kernel pass leaves: the route ID and the Eq. 9 width of its
/// basis.
struct Sealed {
    route_id: BigUint,
    bits: u32,
}

/// The CRT kernel (module docs): validates `moduli`, then folds
/// `port(i)` at `moduli[i]` one modulus at a time. `coprime` says the
/// moduli are a validated [`RnsBasis`], whose coprimality need not be
/// proven again.
///
/// The zero ports are folded first. `R` does not depend on the order,
/// and while it is still 0 a zero port needs no addend, so a route whose
/// ports are mostly 0 (a ring walked one way round) pays the full step
/// only for its few non-zero ports, wherever on the path they sit.
///
/// Errors come in [`RnsBasis::new`]-then-[`crt_encode`] order: the
/// moduli's own errors first, and a port out of range only once the whole
/// basis has proven coprime.
fn garner(moduli: &[u64], port: impl Fn(usize) -> u64, coprime: bool) -> Result<Sealed, RnsError> {
    if moduli.is_empty() {
        return Err(RnsError::Empty);
    }
    if let Some(&s) = moduli.iter().find(|&&s| s < 2) {
        return Err(RnsError::ModulusTooSmall { modulus: s });
    }
    // R < M: neither buffer ever reallocates.
    let limbs = product_capacity(moduli);
    let (mut r, mut m) = (Vec::with_capacity(limbs), Vec::with_capacity(limbs));
    m.push(1);
    // Out-of-range ports are non-zero, so the second pass meets the
    // first of them in input order.
    let mut out_of_range = None;
    for zero_ports in [true, false] {
        for (i, &s) in moduli.iter().enumerate() {
            let p = port(i);
            if (p == 0) != zero_ports {
                continue;
            }
            let p = if p < s {
                p
            } else {
                out_of_range.get_or_insert(RnsError::ResidueOutOfRange {
                    residue: p,
                    modulus: s,
                });
                0
            };
            if !garner_step(&mut r, &mut m, s, p, coprime) {
                return Err(not_coprime(moduli));
            }
        }
    }
    match out_of_range {
        Some(err) => Err(err),
        None => Ok(Sealed {
            bits: bits_below(&m),
            route_id: BigUint::from_limbs(r),
        }),
    }
}

/// One Garner step on little-endian limb buffers: adds to `R` the
/// multiple `M·d`, `d < s`, that makes it `p` mod `s` (so it stays below
/// `M·s` when it was below `M`), and multiplies `M` by `s`. Returns
/// `false`, touching nothing, when `M` has no inverse mod `s` — `s`
/// shares a factor with the moduli already folded.
///
/// `R` keeps its own length, so while the ports folded so far are all
/// zero it is empty and costs nothing. When `coprime` (the moduli are a
/// validated [`RnsBasis`]) and `R` is already `p` mod `s`, `d` is 0 and
/// the step only multiplies `M`: with the zero ports folded first, this
/// is where Eq. 4's skipped zero addends went. Otherwise the inverse is
/// computed, and is the step's coprimality check.
fn garner_step(r: &mut Vec<u64>, m: &mut Vec<u64>, s: u64, p: u64, coprime: bool) -> bool {
    let reducer = Reducer::new(s);
    let r_mod = reducer.rem_limbs(r);
    let diff = if p >= r_mod {
        p - r_mod
    } else {
        p + (s - r_mod)
    };
    if diff != 0 || !coprime {
        let Some(inv) = mod_inverse(reducer.rem_limbs(m), s) else {
            return false;
        };
        if diff != 0 {
            add_mul(r, m, mul_mod(&reducer, diff, inv));
        }
    }
    mul_in_place(m, s);
    true
}

/// `R += M·d` in place. `R` grows to `M`'s length first; a longer `R`
/// (only [`crt_extend`] of an ID at or above `M` has one) carries on
/// through its own top limbs.
fn add_mul(r: &mut Vec<u64>, m: &[u64], d: u64) {
    if r.len() < m.len() {
        r.resize(m.len(), 0);
    }
    let (low, high) = r.split_at_mut(m.len());
    let mut carry = 0u64;
    for (rk, &mk) in low.iter_mut().zip(m) {
        let t = *rk as u128 + mk as u128 * d as u128 + carry as u128;
        *rk = t as u64;
        carry = (t >> 64) as u64;
    }
    for rk in high {
        if carry == 0 {
            return;
        }
        let (sum, overflow) = rk.overflowing_add(carry);
        *rk = sum;
        carry = u64::from(overflow);
    }
    if carry != 0 {
        r.push(carry);
    }
}

/// `M ·= s` in place.
fn mul_in_place(m: &mut Vec<u64>, s: u64) {
    let mut carry = 0u64;
    for limb in m.iter_mut() {
        let t = *limb as u128 * s as u128 + carry as u128;
        *limb = t as u64;
        carry = (t >> 64) as u64;
    }
    if carry != 0 {
        m.push(carry);
    }
}

/// `a·b mod s` for `a, b < s`, through `s`'s reducer when the product
/// fits a `u64` (every switch ID below 2³²).
fn mul_mod(reducer: &Reducer, a: u64, b: u64) -> u64 {
    let t = a as u128 * b as u128;
    match u64::try_from(t) {
        Ok(t) => reducer.rem_u64(t),
        Err(_) => (t % reducer.modulus() as u128) as u64,
    }
}

/// `Π moduli` as little-endian limbs, multiplied in place in one buffer.
fn product_limbs(moduli: &[u64]) -> Vec<u64> {
    let mut m = Vec::with_capacity(product_capacity(moduli));
    m.push(1u64);
    for &s in moduli {
        mul_in_place(&mut m, s);
    }
    m
}

/// Limbs enough for `Π moduli`: each modulus adds at most its own bit
/// length to the product's.
fn product_capacity(moduli: &[u64]) -> usize {
    let width: usize = moduli
        .iter()
        .map(|&s| 64 - s.leading_zeros() as usize)
        .sum();
    width / 64 + 1
}

/// `bits(M − 1)` of a non-zero `M` given as limbs with a non-zero top
/// limb: `bits(M)`, less one when `M` is a power of two.
///
/// # Panics
///
/// Panics if `M` is zero (some modulus was zero).
fn bits_below(m: &[u64]) -> u32 {
    let (&top, low) = m.split_last().expect("a product has a limb");
    assert!(top != 0, "route_id_bit_length of a zero modulus");
    let bits = low.len() as u32 * 64 + (64 - top.leading_zeros());
    let power_of_two = top.is_power_of_two() && low.iter().all(|&limb| limb == 0);
    bits - u32::from(power_of_two)
}

/// The [`RnsError::NotCoprime`] that [`RnsBasis::new`] reports for
/// `moduli`, which are known not to be pairwise coprime.
fn not_coprime(moduli: &[u64]) -> RnsError {
    let (i, j, factor) =
        first_common_factor(moduli).expect("a modulus without an inverse shares a factor");
    RnsError::NotCoprime {
        a: moduli[i],
        b: moduli[j],
        factor,
    }
}

/// Decodes the residue (output port) of `route_id` at one switch (Eq. 3):
/// `pᵢ = R mod sᵢ`. This is the entire per-packet dataplane operation.
///
/// # Panics
///
/// Panics if `switch_id == 0`.
pub fn residue(route_id: &BigUint, switch_id: u64) -> u64 {
    route_id.rem_u64(switch_id)
}

/// Decodes all residues of `route_id` over `basis` (the RNS representation,
/// Eq. 2).
pub fn crt_decode(route_id: &BigUint, basis: &RnsBasis) -> Vec<u64> {
    basis
        .moduli()
        .iter()
        .map(|&s| route_id.rem_u64(s))
        .collect()
}

/// Extends an already-encoded route ID with one more `(switch, port)` pair
/// without re-encoding the existing residues.
///
/// Returns the unique `R' ∈ [0, M·s)` with `R' ≡ R (mod M)` and
/// `R' ≡ port (mod switch)`. This realizes the paper's observation that
/// protection segments can be folded into an existing route ID because the
/// CRT sum is commutative.
///
/// # Errors
///
/// [`RnsError::NotCoprime`] if `switch` shares a factor with the current
/// basis, [`RnsError::ResidueOutOfRange`] if `port ≥ switch`, or
/// [`RnsError::ModulusTooSmall`] if `switch < 2`.
///
/// # Examples
///
/// ```
/// use kar_rns::{crt_encode, crt_extend, RnsBasis};
///
/// // Extend the paper's R = 44 over {4,7,11} with (5, 0) → R = 660.
/// let basis = RnsBasis::new(vec![4, 7, 11])?;
/// let r = crt_encode(&basis, &[0, 2, 0])?;
/// let (r2, basis2) = crt_extend(&r, &basis, 5, 0)?;
/// assert_eq!(r2.to_u64(), Some(660));
/// assert_eq!(basis2.moduli(), &[4, 7, 11, 5]);
/// # Ok::<(), kar_rns::RnsError>(())
/// ```
pub fn crt_extend(
    route_id: &BigUint,
    basis: &RnsBasis,
    switch: u64,
    port: u64,
) -> Result<(BigUint, RnsBasis), RnsError> {
    if switch < 2 {
        return Err(RnsError::ModulusTooSmall { modulus: switch });
    }
    if port >= switch {
        return Err(RnsError::ResidueOutOfRange {
            residue: port,
            modulus: switch,
        });
    }
    // One kernel step on R and the basis product. `basis` is coprime, so
    // the step's inverse is the whole coprimality test of the new switch.
    let mut m = product_limbs(basis.moduli());
    let mut r = route_id.limbs().to_vec();
    let mut moduli = basis.moduli.clone();
    moduli.push(switch);
    if !garner_step(&mut r, &mut m, switch, port, false) {
        return Err(not_coprime(&moduli));
    }
    let extended = RnsBasis {
        moduli,
        bits: bits_below(&m),
    };
    let r2 = BigUint::from_limbs(r);
    debug_assert_eq!(r2.rem_u64(switch), port);
    Ok((r2, extended))
}

/// Errors of the RNS encode/decode layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RnsError {
    /// The modulo set was empty.
    Empty,
    /// A modulus below 2 cannot carry a residue.
    ModulusTooSmall {
        /// The offending modulus.
        modulus: u64,
    },
    /// Two moduli share a common factor.
    NotCoprime {
        /// First offending modulus.
        a: u64,
        /// Second offending modulus.
        b: u64,
        /// Their shared factor.
        factor: u64,
    },
    /// `residues.len()` disagreed with the basis length.
    LengthMismatch {
        /// Number of moduli in the basis.
        moduli: usize,
        /// Number of residues supplied.
        residues: usize,
    },
    /// A residue (output port) was not below its modulus (switch ID).
    ResidueOutOfRange {
        /// The offending residue.
        residue: u64,
        /// Its modulus.
        modulus: u64,
    },
}

impl fmt::Display for RnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RnsError::Empty => write!(f, "empty modulo set"),
            RnsError::ModulusTooSmall { modulus } => {
                write!(f, "modulus {modulus} is below 2")
            }
            RnsError::NotCoprime { a, b, factor } => {
                write!(f, "moduli {a} and {b} share factor {factor}")
            }
            RnsError::LengthMismatch { moduli, residues } => {
                write!(f, "{residues} residues supplied for {moduli} moduli")
            }
            RnsError::ResidueOutOfRange { residue, modulus } => {
                write!(f, "residue {residue} not below modulus {modulus}")
            }
        }
    }
}

impl std::error::Error for RnsError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(moduli: &[u64], residues: &[u64]) -> BigUint {
        crt_encode(&RnsBasis::new(moduli.to_vec()).unwrap(), residues).unwrap()
    }

    #[test]
    fn paper_primary_route_example() {
        // §2.2: switches {4,7,11}, ports {0,2,0} → R = 44.
        let r = encode(&[4, 7, 11], &[0, 2, 0]);
        assert_eq!(r.to_u64(), Some(44));
        assert_eq!(residue(&r, 4), 0);
        assert_eq!(residue(&r, 7), 2);
        assert_eq!(residue(&r, 11), 0);
    }

    #[test]
    fn paper_protected_route_example() {
        // §2.2: switches {4,7,11,5}, ports {0,2,0,0} → R = 660.
        let r = encode(&[4, 7, 11, 5], &[0, 2, 0, 0]);
        assert_eq!(r.to_u64(), Some(660));
        assert_eq!(residue(&r, 5), 0);
    }

    #[test]
    fn decode_recovers_all_residues() {
        let basis = RnsBasis::new(vec![4, 7, 11, 5]).unwrap();
        let r = crt_encode(&basis, &[3, 2, 10, 4]).unwrap();
        assert_eq!(crt_decode(&r, &basis), vec![3, 2, 10, 4]);
    }

    #[test]
    fn encode_is_order_independent() {
        // §2.2: "the switch order is irrelevant to derive the route ID".
        let a = encode(&[4, 7, 11, 5], &[0, 2, 0, 0]);
        let b = encode(&[5, 11, 7, 4], &[0, 0, 2, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn route_id_below_product() {
        let basis = RnsBasis::new(vec![10, 7, 13, 29]).unwrap();
        let m = basis.product();
        for ports in [[0u64, 0, 0, 0], [9, 6, 12, 28], [1, 2, 3, 4]] {
            let r = crt_encode(&basis, &ports).unwrap();
            assert!(r < m);
        }
    }

    #[test]
    fn extend_matches_full_reencode() {
        let basis = RnsBasis::new(vec![4, 7, 11]).unwrap();
        let r = crt_encode(&basis, &[0, 2, 0]).unwrap();
        let (r2, b2) = crt_extend(&r, &basis, 5, 0).unwrap();
        assert_eq!(r2, encode(&[4, 7, 11, 5], &[0, 2, 0, 0]));
        assert_eq!(b2.len(), 4);
        // Extending never changes existing residues (disjoint-extension).
        assert_eq!(crt_decode(&r2, &basis), vec![0, 2, 0]);
    }

    #[test]
    fn extend_chain_builds_full_protection() {
        // Fold three protection switches one at a time.
        let basis = RnsBasis::new(vec![10, 7, 13, 29]).unwrap();
        let r = crt_encode(&basis, &[1, 2, 0, 3]).unwrap();
        let mut cur = (r, basis);
        for (s, p) in [(11u64, 1u64), (19, 0), (31, 2)] {
            cur = crt_extend(&cur.0, &cur.1, s, p).unwrap();
        }
        assert_eq!(
            cur.0,
            encode(&[10, 7, 13, 29, 11, 19, 31], &[1, 2, 0, 3, 1, 0, 2])
        );
    }

    #[test]
    fn rejects_out_of_range_port() {
        let basis = RnsBasis::new(vec![4, 7]).unwrap();
        let err = crt_encode(&basis, &[4, 0]).unwrap_err();
        assert_eq!(
            err,
            RnsError::ResidueOutOfRange {
                residue: 4,
                modulus: 4
            }
        );
    }

    #[test]
    fn rejects_length_mismatch() {
        let basis = RnsBasis::new(vec![4, 7]).unwrap();
        let err = crt_encode(&basis, &[1]).unwrap_err();
        assert_eq!(
            err,
            RnsError::LengthMismatch {
                moduli: 2,
                residues: 1
            }
        );
    }

    #[test]
    fn rejects_non_coprime_basis() {
        let err = RnsBasis::new(vec![4, 10]).unwrap_err();
        assert_eq!(
            err,
            RnsError::NotCoprime {
                a: 4,
                b: 10,
                factor: 2
            }
        );
    }

    #[test]
    fn rejects_tiny_or_empty_basis() {
        assert_eq!(RnsBasis::new(vec![]).unwrap_err(), RnsError::Empty);
        assert_eq!(
            RnsBasis::new(vec![7, 1]).unwrap_err(),
            RnsError::ModulusTooSmall { modulus: 1 }
        );
    }

    #[test]
    fn extend_rejects_conflicting_switch() {
        let basis = RnsBasis::new(vec![4, 7, 11]).unwrap();
        let r = crt_encode(&basis, &[0, 2, 0]).unwrap();
        assert!(matches!(
            crt_extend(&r, &basis, 14, 0),
            Err(RnsError::NotCoprime { .. })
        ));
        assert!(matches!(
            crt_extend(&r, &basis, 5, 5),
            Err(RnsError::ResidueOutOfRange { .. })
        ));
    }

    #[test]
    fn table1_bit_lengths() {
        // Exactly the paper's Table 1 for our reconstructed topo15 IDs.
        assert_eq!(route_id_bit_length(&[10, 7, 13, 29]), 15);
        assert_eq!(route_id_bit_length(&[10, 7, 13, 29, 11, 19, 31]), 28);
        assert_eq!(
            route_id_bit_length(&[10, 7, 13, 29, 11, 19, 31, 17, 37, 41]),
            43
        );
    }

    #[test]
    fn bit_length_edge_cases() {
        assert_eq!(route_id_bit_length(&[]), 0);
        assert_eq!(route_id_bit_length(&[2]), 1); // M-1 = 1
        assert_eq!(route_id_bit_length(&[2, 3]), 3); // M-1 = 5 → 3 bits
    }

    /// Eq. 9 is `bits(M − 1)`, not `⌈log₂(M − 1)⌉`: they differ exactly
    /// when `M − 1` is a power of two, and the field must hold `M − 1`.
    #[test]
    fn bit_length_holds_m_minus_one_when_it_is_a_power_of_two() {
        for (moduli, bits) in [
            (&[3][..], 2),   // M-1 = 2 = 0b10
            (&[5], 3),       // M-1 = 4
            (&[17], 5),      // M-1 = 16
            (&[3, 11], 6),   // M-1 = 32
            (&[2], 1),       // M = 2
            (&[4], 2),       // M = 4
            (&[8], 3),       // M = 8
            (&[3, 5, 7], 7), // M-1 = 104, neither
        ] {
            assert_eq!(route_id_bit_length(moduli), bits, "{moduli:?}");
            let basis = RnsBasis::new(moduli.to_vec()).unwrap();
            assert_eq!(basis.bit_length(), bits, "{moduli:?}");
            // The largest ID of the basis fits, and needs every bit.
            let top = basis.product().sub_big(&BigUint::one());
            assert_eq!(top.bits(), bits, "{moduli:?}");
        }
    }

    #[test]
    fn seal_is_new_then_encode() {
        let (basis, r) = crt_seal(&[(4, 0), (7, 2), (11, 0), (5, 0)]).unwrap();
        assert_eq!(basis, RnsBasis::new(vec![4, 7, 11, 5]).unwrap());
        assert_eq!(r.to_u64(), Some(660));
        // A shared factor anywhere wins over an earlier bad port.
        assert_eq!(
            crt_seal(&[(5, 9), (7, 0), (14, 0)]).unwrap_err(),
            RnsError::NotCoprime {
                a: 7,
                b: 14,
                factor: 7
            }
        );
        assert_eq!(
            crt_seal(&[(4, 9), (7, 7)]).unwrap_err(),
            RnsError::ResidueOutOfRange {
                residue: 9,
                modulus: 4
            }
        );
        assert_eq!(crt_seal(&[]).unwrap_err(), RnsError::Empty);
    }

    #[test]
    fn extend_names_the_first_pair_sharing_a_factor() {
        let basis = RnsBasis::new(vec![9, 7, 10]).unwrap();
        let r = crt_encode(&basis, &[1, 2, 3]).unwrap();
        assert_eq!(
            crt_extend(&r, &basis, 35, 0).unwrap_err(),
            RnsError::NotCoprime {
                a: 7,
                b: 35,
                factor: 7
            }
        );
        // An ID at or above M still folds (the sum simply carries on).
        let big = basis.product().add_big(&r);
        let (r2, b2) = crt_extend(&big, &basis, 11, 4).unwrap();
        assert_eq!(crt_decode(&r2, &b2), vec![1, 2, 3, 4]);
        assert_eq!(b2.bit_length(), route_id_bit_length(&[9, 7, 10, 11]));
    }

    #[test]
    fn large_basis_exceeds_128_bits() {
        // 40 distinct primes → M far beyond u128; encode/decode must hold.
        let primes: Vec<u64> = (2..400u64)
            .filter(|&n| crate::is_prime(n))
            .take(40)
            .collect();
        let basis = RnsBasis::new(primes.clone()).unwrap();
        assert!(basis.bit_length() > 128);
        let ports: Vec<u64> = primes.iter().map(|&p| p - 1).collect();
        let r = crt_encode(&basis, &ports).unwrap();
        assert_eq!(crt_decode(&r, &basis), ports);
    }

    #[test]
    fn basis_display() {
        let basis = RnsBasis::new(vec![4, 7, 11]).unwrap();
        assert_eq!(basis.to_string(), "{4, 7, 11}");
    }
}
