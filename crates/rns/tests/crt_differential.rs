//! The Garner kernel against the literal Eq. 4 encoder it replaced.
//!
//! `reference` keeps the encoder as it was before the kernel — the
//! `RnsBasis::new` pairwise-gcd check, the `⟨Σ pᵢ·Mᵢ·Lᵢ⟩_M` sum, the
//! `extended_gcd` inverse, the `crt_extend` fold and the product-then-
//! subtract Eq. 9 width — verbatim but for taking moduli as a slice. Every
//! entry point of the kernel (`RnsBasis::new`, `crt_encode`, `crt_seal`,
//! `crt_extend`, both bit lengths) must return exactly what it returns:
//! the same `BigUint`, the same width, and the same `Result`, errors and
//! their precedence included.

use kar_rns::{
    crt_encode, crt_extend, crt_seal, gcd, is_prime, mod_inverse, route_id_bit_length, BigUint,
    RnsBasis, RnsError,
};
use kar_topology::{gen, paths, rnp28, topo15, NodeId, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod reference {
    use kar_rns::{extended_gcd, first_common_factor, pairwise_coprime, BigUint, RnsError};

    /// `RnsBasis::new`'s validation.
    pub fn basis_new(moduli: &[u64]) -> Result<(), RnsError> {
        if moduli.is_empty() {
            return Err(RnsError::Empty);
        }
        if let Some(&m) = moduli.iter().find(|&&m| m < 2) {
            return Err(RnsError::ModulusTooSmall { modulus: m });
        }
        if !pairwise_coprime(moduli) {
            let (i, j, g) = first_common_factor(moduli).expect("checked not pairwise coprime");
            return Err(RnsError::NotCoprime {
                a: moduli[i],
                b: moduli[j],
                factor: g,
            });
        }
        Ok(())
    }

    /// `mod_inverse` through the recursive i128 extended Euclid.
    pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
        if m < 2 {
            return None;
        }
        let a = (a % m) as i128;
        let m = m as i128;
        let (g, x, _) = extended_gcd(a, m);
        if g != 1 {
            return None;
        }
        Some((x.rem_euclid(m)) as u64)
    }

    /// `RnsBasis::product`.
    pub fn product(moduli: &[u64]) -> BigUint {
        moduli.iter().map(|&m| BigUint::from(m)).product()
    }

    /// `route_id_bit_length`.
    pub fn route_id_bit_length(moduli: &[u64]) -> u32 {
        if moduli.is_empty() {
            return 0;
        }
        let m: BigUint = moduli.iter().map(|&m| BigUint::from(m)).product();
        if m.is_one() {
            return 0;
        }
        m.sub_big(&BigUint::one()).bits()
    }

    /// `crt_encode` over a validated basis: Eq. 4 term by term.
    pub fn crt_encode(moduli: &[u64], residues: &[u64]) -> Result<BigUint, RnsError> {
        if residues.len() != moduli.len() {
            return Err(RnsError::LengthMismatch {
                moduli: moduli.len(),
                residues: residues.len(),
            });
        }
        let m = product(moduli);
        let mut sum = BigUint::zero();
        for (&s_i, &p_i) in moduli.iter().zip(residues) {
            if p_i >= s_i {
                return Err(RnsError::ResidueOutOfRange {
                    residue: p_i,
                    modulus: s_i,
                });
            }
            if p_i == 0 {
                continue; // zero addend (the paper's example drops these too)
            }
            let m_i = m.divmod_u64(s_i).0; // Mᵢ = M / sᵢ (Eq. 6)
            let m_i_mod = m_i.rem_u64(s_i);
            let l_i = mod_inverse(m_i_mod, s_i)
                .expect("Mᵢ is coprime to sᵢ because the basis is pairwise coprime");
            // pᵢ·Lᵢ < sᵢ² fits u128 comfortably for u64 moduli; reduce mod sᵢ
            // first to keep the addend at `M` scale.
            let coeff = ((p_i as u128 * l_i as u128) % s_i as u128) as u64;
            sum += &m_i.mul_u64(coeff);
        }
        Ok(sum.rem_big(&m))
    }

    /// `crt_extend` over a validated basis.
    pub fn crt_extend(
        route_id: &BigUint,
        moduli: &[u64],
        switch: u64,
        port: u64,
    ) -> Result<(BigUint, Vec<u64>), RnsError> {
        if switch < 2 {
            return Err(RnsError::ModulusTooSmall { modulus: switch });
        }
        if port >= switch {
            return Err(RnsError::ResidueOutOfRange {
                residue: port,
                modulus: switch,
            });
        }
        let mut extended = moduli.to_vec();
        extended.push(switch);
        basis_new(&extended)?;
        let m = product(moduli);
        let m_mod_s = m.rem_u64(switch);
        let inv = mod_inverse(m_mod_s, switch).expect("extended basis is pairwise coprime");
        let r_mod_s = route_id.rem_u64(switch);
        // delta = (port - R) * M^{-1} mod s, in the least non-negative residue.
        let diff = (port as i128 - r_mod_s as i128).rem_euclid(switch as i128) as u64;
        let delta = ((diff as u128 * inv as u128) % switch as u128) as u64;
        let r2 = route_id.add_big(&m.mul_u64(delta));
        Ok((r2, extended))
    }
}

/// Every kernel entry point on one input, against the reference.
fn check(moduli: &[u64], residues: &[u64]) -> Result<(), TestCaseError> {
    let want = reference::basis_new(moduli).and_then(|()| reference::crt_encode(moduli, residues));
    let basis = RnsBasis::new(moduli.to_vec());
    prop_assert_eq!(
        basis.as_ref().err().cloned(),
        reference::basis_new(moduli).err(),
        "RnsBasis::new({:?})",
        moduli
    );
    let got = basis
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|b| crt_encode(b, residues));
    prop_assert_eq!(&got, &want, "crt_encode({:?}, {:?})", moduli, residues);
    if moduli.len() == residues.len() {
        let pairs: Vec<(u64, u64)> = moduli
            .iter()
            .copied()
            .zip(residues.iter().copied())
            .collect();
        let sealed = crt_seal(&pairs);
        prop_assert_eq!(
            sealed.as_ref().map(|(_, r)| r),
            want.as_ref(),
            "crt_seal({:?})",
            pairs
        );
        if let (Ok((sealed_basis, _)), Ok(basis)) = (&sealed, &basis) {
            prop_assert_eq!(sealed_basis, basis);
        }
    }
    if let Ok(basis) = &basis {
        let bits = reference::route_id_bit_length(moduli);
        prop_assert_eq!(basis.bit_length(), bits, "bit_length of {:?}", moduli);
        prop_assert_eq!(basis.product(), reference::product(moduli));
    }
    if moduli.iter().all(|&m| m != 0) {
        prop_assert_eq!(
            route_id_bit_length(moduli),
            reference::route_id_bit_length(moduli),
            "route_id_bit_length({:?})",
            moduli
        );
    }
    Ok(())
}

/// `check` on a valid basis with its ports, with every port 0 and with
/// every port at its largest.
fn check_route(moduli: &[u64], ports: &[u64]) {
    let zeros = vec![0; moduli.len()];
    let maxima: Vec<u64> = moduli.iter().map(|&m| m - 1).collect();
    for residues in [ports, &zeros, &maxima] {
        check(moduli, residues).unwrap();
        assert!(crt_encode(&RnsBasis::new(moduli.to_vec()).unwrap(), residues).is_ok());
    }
}

/// The largest prime `≤ v` (for `v ≥ 2`).
fn prime_at_most(mut v: u64) -> u64 {
    while !is_prime(v) {
        v -= 1;
    }
    v
}

/// Prime powers and composites below 2¹⁶ that a prime draw never makes.
const TINY_NON_PRIMES: [u64; 10] = [9, 25, 27, 49, 121, 125, 243, 343, 10, 4_095];

/// One candidate modulus from every reducer class: powers of two
/// (2 and 4 among them), values below 2¹⁶ (prime powers 9/25/27/49
/// among them), below 2³², and above 2³². Most draws below 2¹⁶ and half
/// of those above are primes, so long bases stay coprime.
fn candidate() -> impl Strategy<Value = u64> {
    const TINY: u64 = 1 << 16;
    const SMALL: u64 = 1 << 32;
    (0u8..16, any::<u64>()).prop_map(|(class, v)| match class {
        0 => [2, 4, 1 << (1 + v % 63)][(v % 3) as usize],
        1 => TINY_NON_PRIMES[(v % TINY_NON_PRIMES.len() as u64) as usize],
        2..=9 => prime_at_most(3 + v % (TINY - 3)),
        10 => 3 + v % (TINY - 3),
        11 => prime_at_most(TINY + v % (SMALL - TINY)),
        12 => TINY + v % (SMALL - TINY),
        13 | 14 => prime_at_most(v.max(SMALL)),
        _ => v.max(SMALL),
    })
}

/// A pairwise-coprime basis of 1–160 moduli: candidates kept greedily
/// when coprime to every modulus kept before them.
fn coprime_basis() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(candidate(), 1..220).prop_map(|candidates| {
        let mut kept: Vec<u64> = Vec::new();
        for c in candidates {
            if kept.len() < 160 && kept.iter().all(|&k| gcd(k, c) == 1) {
                kept.push(c);
            }
        }
        kept
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Valid bases of every reducer class: random, all-zero and
    /// all-maximal ports.
    #[test]
    fn kernel_equals_eq4_on_coprime_bases(
        moduli in coprime_basis(),
        seeds in proptest::collection::vec(any::<u64>(), 160..161),
        shape in 0u8..3,
    ) {
        let residues: Vec<u64> = moduli
            .iter()
            .zip(&seeds)
            .map(|(&m, &seed)| match shape {
                0 => seed % m,
                1 => 0,
                _ => m - 1,
            })
            .collect();
        check(&moduli, &residues)?;
    }

    /// Arbitrary inputs: empty sets, moduli 0 and 1, shared factors,
    /// ports out of range and mismatched lengths, alone and together.
    #[test]
    fn kernel_errors_equal_eq4s_in_order(
        moduli in proptest::collection::vec(
            prop_oneof![0u64..4, 2u64..64, (0usize..5).prop_map(|i| [7u64, 11, 13, 101, 65_521][i])],
            0..10,
        ),
        residues in proptest::collection::vec(0u64..72, 0..10),
        same_length in any::<bool>(),
    ) {
        let mut residues = residues;
        if same_length {
            residues.resize(moduli.len(), 1);
        }
        check(&moduli, &residues)?;
    }

    /// `crt_extend`: valid folds, shared factors, tiny switches, ports
    /// out of range, and IDs at or above `M`.
    #[test]
    fn extend_equals_the_reference_fold(
        moduli in coprime_basis(),
        seeds in proptest::collection::vec(any::<u64>(), 160..161),
        switch in prop_oneof![0u64..4, 2u64..1 << 16, any::<u64>()],
        port in prop_oneof![0u64..8, any::<u64>()],
        above in any::<bool>(),
    ) {
        let basis = RnsBasis::new(moduli.clone()).unwrap();
        let residues: Vec<u64> = moduli.iter().zip(&seeds).map(|(&m, &s)| s % m).collect();
        let mut r = crt_encode(&basis, &residues).unwrap();
        if above {
            r = r.add_big(&basis.product().mul_u64(seeds[0] | 1));
        }
        let got = crt_extend(&r, &basis, switch, port);
        let want = reference::crt_extend(&r, &moduli, switch, port);
        prop_assert_eq!(
            got.as_ref().map(|(r2, b2)| (r2, b2.moduli())),
            want.as_ref().map(|(r2, m2)| (r2, m2.as_slice()))
        );
        if let Ok((_, b2)) = &got {
            prop_assert_eq!(b2.bit_length(), reference::route_id_bit_length(b2.moduli()));
        }
    }

    /// The iterative inverse returns what the i128 extended Euclid did,
    /// on small moduli (where it runs) and across all of `u64`.
    #[test]
    fn mod_inverse_equals_extended_gcd(
        a in prop_oneof![0u64..1 << 16, any::<u64>()],
        m in prop_oneof![0u64..1 << 16, any::<u64>()],
    ) {
        prop_assert_eq!(mod_inverse(a, m), reference::mod_inverse(a, m), "{}⁻¹ mod {}", a, m);
    }
}

#[test]
fn mod_inverse_equals_extended_gcd_exhaustively_below_600() {
    for m in 0..600 {
        for a in 0..700 {
            assert_eq!(
                mod_inverse(a, m),
                reference::mod_inverse(a, m),
                "{a}⁻¹ mod {m}"
            );
        }
    }
}

/// `M` a power of two (one power-of-two modulus), and `M − 1` one:
/// `2ᵏ + 1` split into coprime factors, up to a three-limb `2⁹⁶ + 1`.
#[test]
fn bases_with_a_power_of_two_at_m_or_m_minus_one() {
    let pow2_m: Vec<Vec<u64>> = [1u32, 2, 3, 16, 63].iter().map(|&k| vec![1 << k]).collect();
    let pow2_m_minus_1: Vec<Vec<u64>> = vec![
        vec![3],
        vec![5],
        vec![9],
        vec![17],
        vec![3, 11],
        vec![5, 13],
        vec![3, 43],
        vec![19, 27],
        vec![25, 41],
        vec![17, 241],
        vec![257],
        vec![65_537],
        vec![641, 6_700_417],
        vec![274_177, 67_280_421_310_721],
        vec![641, 6_700_417, 18_446_744_069_414_584_321],
    ];
    for (moduli, m_minus_1_is_pow2) in pow2_m
        .iter()
        .map(|m| (m, false))
        .chain(pow2_m_minus_1.iter().map(|m| (m, true)))
    {
        let m = reference::product(moduli);
        let below = m.sub_big(&BigUint::one());
        let pow2 = if m_minus_1_is_pow2 { &below } else { &m };
        assert_eq!(
            pow2.clone(),
            BigUint::one().shl_bits(pow2.bits() - 1),
            "{moduli:?}"
        );
        let ports = vec![1; moduli.len()];
        check_route(moduli, &ports);
        assert_eq!(route_id_bit_length(moduli), below.bits(), "{moduli:?}");
    }
}

/// `(switch ID, port)` pairs along `path` plus protection segments, as
/// `EncodedRoute::collect_pairs` makes them (no duplicates here).
fn route_pairs(
    topo: &Topology,
    path: &[NodeId],
    protection: &[(NodeId, NodeId)],
) -> Vec<(u64, u64)> {
    let hops = path.windows(2).map(|w| (w[0], w[1]));
    hops.chain(protection.iter().copied())
        .filter_map(|(from, to)| Some((topo.switch_id(from)?, topo.port_towards(from, to)?)))
        .collect()
}

fn check_pairs(pairs: &[(u64, u64)]) {
    let (moduli, ports): (Vec<u64>, Vec<u64>) = pairs.iter().copied().unzip();
    check_route(&moduli, &ports);
}

/// Table 1's three topo15 routes: 15, 28 and 43 bits.
#[test]
fn table1_routes() {
    let topo = topo15::build();
    let primary = topo15::primary_route(&topo);
    let partial = topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION);
    let mut full = partial.clone();
    full.extend(topo15::protection_pairs(
        &topo,
        &topo15::FULL_EXTRA_PROTECTION,
    ));
    for (protection, bits) in [(vec![], 15), (partial, 28), (full, 43)] {
        let pairs = route_pairs(&topo, &primary, &protection);
        check_pairs(&pairs);
        assert_eq!(crt_seal(&pairs).unwrap().0.bit_length(), bits);
    }
}

/// The Fig. 7 route on rnp28 both ways, bare and with its protection
/// segments, and every rnp28 switch at once.
#[test]
fn fig7_routes() {
    let topo = rnp28::build();
    let forward: Vec<NodeId> = rnp28::FIG7_ROUTE.iter().map(|n| topo.expect(n)).collect();
    let reverse: Vec<NodeId> = forward.iter().rev().copied().collect();
    let protection: Vec<(NodeId, NodeId)> = rnp28::FIG7_PROTECTION
        .iter()
        .map(|(a, b)| (topo.expect(a), topo.expect(b)))
        .collect();
    for path in [&forward, &reverse] {
        for segments in [&[][..], &protection] {
            check_pairs(&route_pairs(&topo, path, segments));
        }
    }
    let ids = topo.switch_ids();
    let ports: Vec<u64> = ids.iter().map(|&id| id / 2).collect();
    check_route(&ids, &ports);
}

/// Half-ring routes of ring256 (the `dp-ring256-fleet` fleet's longest
/// paths) both ways round, the widest among them included.
#[test]
fn ring256_half_ring_routes() {
    let topo = gen::ring(256, kar_rns::IdStrategy::SmallestPrimes, Default::default());
    let hosts = topo.edge_nodes();
    let mut widest = 0;
    for i in (0..256).step_by(16) {
        for (a, b) in [(i, (i + 128) % 256), ((i + 128) % 256, i)] {
            let path = paths::bfs_shortest_path(&topo, hosts[a], hosts[b]).unwrap();
            let pairs = route_pairs(&topo, &path, &[]);
            assert!(pairs.len() >= 128, "{a} → {b}: {} switches", pairs.len());
            check_pairs(&pairs);
            widest = widest.max(crt_seal(&pairs).unwrap().0.bit_length());
        }
    }
    assert!(
        widest > 1_200,
        "the widest half-ring route has {widest} bits"
    );
}

/// A shared factor anywhere wins over a port out of range before it,
/// and a mismatched length is reported only for a valid basis.
#[test]
fn error_precedence_is_new_then_encode() {
    for (moduli, residues, want) in [
        (&[][..], &[][..], RnsError::Empty),
        (
            &[7, 1, 6, 4],
            &[9, 0, 0, 0],
            RnsError::ModulusTooSmall { modulus: 1 },
        ),
        (
            &[3, 5, 10, 9],
            &[3, 0, 0, 0],
            RnsError::NotCoprime {
                a: 3,
                b: 9,
                factor: 3,
            },
        ),
        (
            &[3, 5, 10, 9],
            &[0],
            RnsError::NotCoprime {
                a: 3,
                b: 9,
                factor: 3,
            },
        ),
        (
            &[3, 5, 7],
            &[0],
            RnsError::LengthMismatch {
                moduli: 3,
                residues: 1,
            },
        ),
        (
            &[3, 5, 7],
            &[1, 5, 9],
            RnsError::ResidueOutOfRange {
                residue: 5,
                modulus: 5,
            },
        ),
    ] {
        check(moduli, residues).unwrap();
        let got = RnsBasis::new(moduli.to_vec()).and_then(|b| crt_encode(&b, residues));
        assert_eq!(got, Err(want), "{moduli:?} / {residues:?}");
    }
}
