//! Property-based tests of the RNS substrate (DESIGN.md invariants 1, 2, 3, 7).

use kar_rns::{
    crt_decode, crt_encode, crt_extend, gcd, is_prime, mod_inverse, pairwise_coprime,
    route_id_bit_length, BigUint, IdAllocator, IdStrategy, Reducer, RnsBasis,
};
use proptest::prelude::*;

/// Strategy: route IDs hugging limb boundaries — `2^(64k) + delta` for
/// small signed deltas — where the Horner fold's carry handling is most
/// likely to betray a reduction bug, plus fully random limb vectors.
fn limb_boundary_route_id() -> impl Strategy<Value = BigUint> {
    let boundary = (1u32..5, 0u64..4, any::<bool>()).prop_map(|(k, delta, below)| {
        // 2^(64k) is a 1 followed by k zero limbs.
        let mut limbs = vec![0u64; k as usize];
        limbs.push(1);
        let base = BigUint::from_limbs(limbs);
        if below {
            // 2^(64k) - 1 - delta: all-ones limbs minus a small offset.
            base.sub_big(&BigUint::from(delta + 1))
        } else {
            base.add_big(&BigUint::from(delta))
        }
    });
    let random = proptest::collection::vec(any::<u64>(), 0..5).prop_map(BigUint::from_limbs);
    prop_oneof![boundary, random]
}

/// Strategy: a pairwise-coprime modulo set built from distinct primes and a
/// possible power of two (like the paper's switch ID 4 or 10-style even ID).
fn coprime_set() -> impl Strategy<Value = Vec<u64>> {
    let primes: Vec<u64> = (3..2000u64).filter(|&n| is_prime(n)).collect();
    (
        proptest::sample::subsequence(primes, 1..12),
        1u32..4,
        any::<bool>(),
    )
        .prop_map(|(mut set, pow2, include_even)| {
            if include_even {
                set.push(1 << pow2);
            }
            set
        })
}

/// The moduli below 2¹⁶ worth pinning (the reducer's pair-fold arm, bar
/// topo15's power-of-two 4): small primes, the largest prime below 2¹⁶,
/// and every switch ID topo15 and rnp28 deploy.
fn tiny_moduli() -> Vec<u64> {
    let mut ids = vec![3, 5, 251, 65_521];
    ids.extend(kar_topology::topo15::build().switch_ids());
    ids.extend(kar_topology::rnp28::build().switch_ids());
    ids
}

/// The pair fold seeds its accumulator from an odd top limb, so every
/// limb count — odd and even — is its own case.
const MAX_LIMBS: usize = 48;

/// Limb-count × modulus × extreme value, exhaustively: all-ones limbs
/// (every residue at its largest) and a value whose only non-zero limb
/// is the top one (all the weight in the seed or the last pair).
#[test]
fn reducer_folds_every_limb_count_of_the_extremes() {
    for d in tiny_moduli() {
        let r = Reducer::new(d);
        for n in 1..=MAX_LIMBS {
            let mut high = vec![0u64; n];
            for top in [1, u64::MAX] {
                high[n - 1] = top;
                for limbs in [vec![u64::MAX; n], high.clone()] {
                    let v = BigUint::from_limbs(limbs);
                    assert_eq!(r.rem(&v), v.rem_u64(d), "{n} limbs mod {d}: {v}");
                }
            }
        }
    }
}

/// Strategy: a coprime set plus in-range residues for each modulus.
fn basis_with_residues() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    coprime_set().prop_flat_map(|set| {
        let residues: Vec<BoxedStrategy<u64>> = set.iter().map(|&m| (0..m).boxed()).collect();
        (Just(set), residues)
    })
}

proptest! {
    /// Invariant 1: decode(encode(S, P)) == P and 0 <= R < M.
    #[test]
    fn crt_round_trip((moduli, residues) in basis_with_residues()) {
        let basis = RnsBasis::new(moduli).unwrap();
        let r = crt_encode(&basis, &residues).unwrap();
        prop_assert!(r < basis.product());
        prop_assert_eq!(crt_decode(&r, &basis), residues);
    }

    /// Invariant 1 (uniqueness): two distinct residue vectors encode to
    /// distinct route IDs.
    #[test]
    fn crt_injective((moduli, residues) in basis_with_residues(), flip_idx in any::<proptest::sample::Index>()) {
        let basis = RnsBasis::new(moduli.clone()).unwrap();
        let i = flip_idx.index(moduli.len());
        let mut other = residues.clone();
        other[i] = (other[i] + 1) % moduli[i];
        prop_assume!(other != residues); // modulus 1 impossible, but be safe
        let r1 = crt_encode(&basis, &residues).unwrap();
        let r2 = crt_encode(&basis, &other).unwrap();
        prop_assert_ne!(r1, r2);
    }

    /// Invariant 2: extending a route ID with a disjoint switch never
    /// changes the residues of the original basis.
    #[test]
    fn extension_preserves_primary_residues(
        (moduli, residues) in basis_with_residues(),
        extra_port_seed in any::<u64>(),
    ) {
        let basis = RnsBasis::new(moduli.clone()).unwrap();
        let r = crt_encode(&basis, &residues).unwrap();
        // Find a prime coprime with everything in the basis.
        let extra = (2001..4000u64)
            .find(|&n| is_prime(n) && moduli.iter().all(|&m| gcd(m, n) == 1))
            .unwrap();
        let port = extra_port_seed % extra;
        let (r2, b2) = crt_extend(&r, &basis, extra, port).unwrap();
        prop_assert_eq!(crt_decode(&r2, &basis), residues);
        prop_assert_eq!(r2.rem_u64(extra), port);
        prop_assert!(r2 < b2.product());
    }

    /// Order independence of encoding (paper §2.2: the CRT sum is
    /// commutative, so the switch sequence is irrelevant).
    #[test]
    fn encode_order_independent((moduli, residues) in basis_with_residues(), seed in any::<u64>()) {
        let basis = RnsBasis::new(moduli.clone()).unwrap();
        let r1 = crt_encode(&basis, &residues).unwrap();
        // Deterministic permutation from the seed.
        let mut perm: Vec<usize> = (0..moduli.len()).collect();
        let mut s = seed;
        for i in (1..perm.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let moduli2: Vec<u64> = perm.iter().map(|&i| moduli[i]).collect();
        let residues2: Vec<u64> = perm.iter().map(|&i| residues[i]).collect();
        let r2 = crt_encode(&RnsBasis::new(moduli2).unwrap(), &residues2).unwrap();
        prop_assert_eq!(r1, r2);
    }

    /// CRT commutativity end-to-end (paper §2.2): take a primary path's
    /// switches and a disjoint set of protection switches; folding the
    /// protection switches into the primary route ID one at a time via
    /// `crt_extend` still decodes the correct port at *every* primary
    /// switch, and agrees with encoding the whole set in one shot.
    #[test]
    fn protection_fold_preserves_primary_ports(
        (moduli, residues) in basis_with_residues(),
        split_idx in any::<proptest::sample::Index>(),
    ) {
        prop_assume!(moduli.len() >= 2);
        // 1..len switches form the primary path; the rest protect it.
        let k = 1 + split_idx.index(moduli.len() - 1);
        let (primary_m, protect_m) = moduli.split_at(k);
        let (primary_p, protect_p) = residues.split_at(k);
        let mut basis = RnsBasis::new(primary_m.to_vec()).unwrap();
        let mut r = crt_encode(&basis, primary_p).unwrap();
        for (&switch, &port) in protect_m.iter().zip(protect_p) {
            let (r2, b2) = crt_extend(&r, &basis, switch, port).unwrap();
            r = r2;
            basis = b2;
        }
        // Every primary switch still computes its original output port…
        for (&switch, &port) in primary_m.iter().zip(primary_p) {
            prop_assert_eq!(r.rem_u64(switch), port);
        }
        // …every protection switch got its driven port…
        for (&switch, &port) in protect_m.iter().zip(protect_p) {
            prop_assert_eq!(r.rem_u64(switch), port);
        }
        // …and the fold equals the one-shot joint encoding.
        let joint = crt_encode(&RnsBasis::new(moduli.clone()).unwrap(), &residues).unwrap();
        prop_assert_eq!(r, joint);
    }

    /// Invariant 3: the allocator only produces pairwise-coprime sets with
    /// IDs above the port count.
    #[test]
    fn allocator_invariants(port_counts in proptest::collection::vec(1usize..12, 1..20)) {
        let mut alloc = IdAllocator::new(IdStrategy::SmallestPrimes);
        let mut ids = Vec::new();
        for &ports in &port_counts {
            let id = alloc.allocate(ports).unwrap();
            prop_assert!(id > ports as u64);
            ids.push(id);
        }
        prop_assert!(pairwise_coprime(&ids));
    }

    /// Invariant 3 for the prime-power strategy as well.
    #[test]
    fn allocator_coprime_strategy(port_counts in proptest::collection::vec(1usize..12, 1..20)) {
        let mut alloc = IdAllocator::new(IdStrategy::SmallestCoprime);
        for &ports in &port_counts {
            let id = alloc.allocate(ports).unwrap();
            prop_assert!(id > ports as u64);
        }
        prop_assert!(pairwise_coprime(alloc.allocated()));
    }

    /// Invariant 7: Eq. 9 bit length agrees with the BigUint bit count of
    /// M - 1.
    #[test]
    fn bit_length_matches_biguint(moduli in coprime_set()) {
        let m: BigUint = moduli.iter().map(|&x| BigUint::from(x)).product();
        let expect = m.sub_big(&BigUint::one()).bits();
        prop_assert_eq!(route_id_bit_length(&moduli), expect);
    }

    /// BigUint divmod is Euclidean: a = q*b + r with r < b.
    #[test]
    fn biguint_divmod_euclidean(a_limbs in proptest::collection::vec(any::<u64>(), 0..5),
                                b_limbs in proptest::collection::vec(any::<u64>(), 1..4)) {
        let a = BigUint::from_limbs(a_limbs);
        let b = BigUint::from_limbs(b_limbs);
        prop_assume!(!b.is_zero());
        let (q, r) = a.divmod_big(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul_big(&b).add_big(&r), a);
    }

    /// The remainder-only fold equals the remainder of the full long
    /// division, for 1–40-limb values and every divisor class: 1, 2, a
    /// u32 prime, `u64::MAX`, anything.
    #[test]
    fn rem_u64_is_divmod_u64s_remainder(
        limbs in proptest::collection::vec(any::<u64>(), 1..41),
        d in prop_oneof![Just(1u64), Just(2), Just(4_294_967_291), Just(u64::MAX), 1..u64::MAX],
    ) {
        let a = BigUint::from_limbs(limbs);
        prop_assert_eq!(a.rem_u64(d), a.divmod_u64(d).1);
    }

    /// BigUint decimal formatting round-trips through parsing.
    #[test]
    fn biguint_display_parse_round_trip(limbs in proptest::collection::vec(any::<u64>(), 0..5)) {
        let a = BigUint::from_limbs(limbs);
        let s = a.to_string();
        prop_assert_eq!(s.parse::<BigUint>().unwrap(), a);
    }

    /// BigUint big-endian bytes round-trip.
    #[test]
    fn biguint_bytes_round_trip(limbs in proptest::collection::vec(any::<u64>(), 0..6)) {
        let a = BigUint::from_limbs(limbs);
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    /// Modular inverse verifies against its definition whenever it exists.
    #[test]
    fn mod_inverse_verifies(a in 1u64..100_000, m in 2u64..100_000) {
        match mod_inverse(a, m) {
            Some(inv) => {
                prop_assert_eq!((a as u128 * inv as u128) % m as u128, 1);
                prop_assert!(inv < m);
            }
            None => prop_assert_ne!(gcd(a, m), 1),
        }
    }

    /// The precomputed [`Reducer`] agrees with naive BigUint division for
    /// every modulus class (power of two, small, > 2³²) on limb-boundary
    /// route IDs — the fast dataplane path must be bit-identical to the
    /// slow one or byte-identical replay breaks.
    #[test]
    fn reducer_matches_naive_modulo(
        route in limb_boundary_route_id(),
        d in prop_oneof![
            1u64..=1 << 17,                      // realistic switch IDs
            (0u32..64).prop_map(|s| 1u64 << s),  // every power of two
            (u32::MAX as u64 - 8)..(u32::MAX as u64 + 8), // Small/Large seam
            any::<u64>(),                        // totality
        ],
    ) {
        prop_assume!(d != 0);
        let r = Reducer::new(d);
        prop_assert_eq!(r.rem(&route), route.rem_u64(d), "{} mod {}", route, d);
        let low = route.limbs().first().copied().unwrap_or(0);
        prop_assert_eq!(r.rem_u64(low), low % d);
    }

    /// The same fold on random limbs of every count up to 48, against
    /// plain division, for the moduli of
    /// `reducer_folds_every_limb_count_of_the_extremes`.
    #[test]
    fn reducer_folds_random_limbs_of_either_parity(
        limbs in proptest::collection::vec(any::<u64>(), 1..MAX_LIMBS + 1),
        pick in any::<proptest::sample::Index>(),
    ) {
        let moduli = tiny_moduli();
        let d = moduli[pick.index(moduli.len())];
        let v = BigUint::from_limbs(limbs);
        prop_assert_eq!(Reducer::new(d).rem(&v), v.rem_u64(d), "{} mod {}", v, d);
    }

    /// gcd is commutative, associative with itself, and divides both args.
    #[test]
    fn gcd_laws(a in any::<u64>(), b in any::<u64>()) {
        let g = gcd(a, b);
        prop_assert_eq!(g, gcd(b, a));
        if g != 0 {
            prop_assert_eq!(a % g, 0);
            prop_assert_eq!(b % g, 0);
        } else {
            prop_assert_eq!(a, 0);
            prop_assert_eq!(b, 0);
        }
    }
}
