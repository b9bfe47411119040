//! Pairwise-coprime ID sets and allocation strategies.
//!
//! Every core switch in a KAR network carries a *switch ID*, and the whole
//! set must be pairwise coprime (the paper, §2: "the set of Switch IDs in
//! the network must be coprimes integers"). IDs need not be prime — the
//! paper's own example uses 4. A switch with `d` ports additionally needs
//! an ID strictly greater than the largest port index it must encode, i.e.
//! `id ≥ d` when ports are numbered `0..d`.

use crate::gcd::gcd;

/// Checks that all values in `ids` are pairwise coprime and `≥ 2`.
///
/// # Examples
///
/// ```
/// assert!(kar_rns::pairwise_coprime(&[4, 7, 11, 5]));
/// assert!(!kar_rns::pairwise_coprime(&[4, 10])); // share factor 2
/// ```
pub fn pairwise_coprime(ids: &[u64]) -> bool {
    if ids.iter().any(|&x| x < 2) {
        return false;
    }
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            if gcd(ids[i], ids[j]) != 1 {
                return false;
            }
        }
    }
    true
}

/// Returns the first offending pair `(i, j, gcd)` if `ids` is not pairwise
/// coprime, for diagnostics.
pub fn first_common_factor(ids: &[u64]) -> Option<(usize, usize, u64)> {
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            let g = gcd(ids[i], ids[j]);
            if g != 1 {
                return Some((i, j, g));
            }
        }
    }
    None
}

/// Strategy used by [`IdAllocator`] to hand out pairwise-coprime IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IdStrategy {
    /// Consecutive primes `2, 3, 5, 7, …` skipping those below the port
    /// count. Primes are automatically pairwise coprime, and small primes
    /// minimize `Π sᵢ`, i.e. the route-ID bit length (Eq. 9).
    #[default]
    SmallestPrimes,
    /// Smallest usable integers that stay pairwise coprime with everything
    /// allocated so far (allows prime powers such as 4, 9, 25 — like the
    /// paper's example ID 4). Can beat `SmallestPrimes` on bit length for
    /// small networks.
    SmallestCoprime,
    /// Primes in allocation order but starting from a floor, e.g. to leave
    /// room for port counts unknown at assignment time.
    PrimesFrom(u64),
    /// Consecutive primes capped at an exclusive ceiling — models hardware
    /// that stores switch IDs in a fixed field width (`PrimesBelow(1 << w)`
    /// for `w`-bit IDs). Unlike the open-ended strategies, this one
    /// genuinely exhausts: by the prime number theorem roughly
    /// `ceiling / ln(ceiling)` switches fit, which is what the scale
    /// campaign's key-growth study measures per strategy.
    PrimesBelow(u64),
}

/// Incremental allocator of pairwise-coprime switch IDs.
///
/// The controller (or a local setup procedure, §2 of the paper) assigns one
/// ID per core switch. Each request states the switch's port count so that
/// every port index `0..ports` is representable as a residue mod the ID.
///
/// # Examples
///
/// ```
/// use kar_rns::{IdAllocator, IdStrategy, pairwise_coprime};
///
/// let mut alloc = IdAllocator::new(IdStrategy::SmallestPrimes);
/// let ids: Vec<u64> = (0..8).map(|_| alloc.allocate(4).unwrap()).collect();
/// assert!(pairwise_coprime(&ids));
/// assert!(ids.iter().all(|&id| id > 4));
/// ```
#[derive(Debug, Clone)]
pub struct IdAllocator {
    strategy: IdStrategy,
    allocated: Vec<u64>,
    /// A contiguous run of candidates known unusable for good. IDs are
    /// never released and the strategy is fixed, so a candidate rejected
    /// once (not prime, or sharing a factor with an allocated ID — which
    /// includes every ID handed out) is rejected forever; `allocate`
    /// jumps over the run instead of re-testing it.
    dead: std::ops::Range<u64>,
}

impl IdAllocator {
    /// Creates an empty allocator with the given strategy.
    pub fn new(strategy: IdStrategy) -> Self {
        IdAllocator {
            strategy,
            allocated: Vec::new(),
            dead: 0..0,
        }
    }

    /// Creates an allocator pre-seeded with IDs already in use (e.g. when
    /// reconstructing the paper's hand-labelled topologies).
    ///
    /// # Errors
    ///
    /// Returns [`IdError::NotCoprime`] if the seed set is not pairwise
    /// coprime, mirroring the network-wide invariant.
    pub fn with_reserved(strategy: IdStrategy, reserved: &[u64]) -> Result<Self, IdError> {
        if !pairwise_coprime(reserved) {
            let (i, j, g) =
                first_common_factor(reserved).expect("non-coprime set must have an offending pair");
            return Err(IdError::NotCoprime {
                a: reserved[i],
                b: reserved[j],
                factor: g,
            });
        }
        Ok(IdAllocator {
            strategy,
            allocated: reserved.to_vec(),
            dead: 0..0,
        })
    }

    /// IDs handed out (or reserved) so far.
    pub fn allocated(&self) -> &[u64] {
        &self.allocated
    }

    /// Key-growth accounting: the route-ID bit length a route crossing
    /// *every* allocated switch would need, i.e. `(Π idᵢ − 1).bits()`
    /// (Eq. 9 applied to the whole allocation). This is the worst case
    /// over all routes in the network and the quantity the scale
    /// campaign tracks per [`IdStrategy`] as topologies grow.
    pub fn allocated_bits(&self) -> u32 {
        crate::crt::route_id_bit_length(&self.allocated)
    }

    /// Allocates the next ID for a switch with `ports` ports.
    ///
    /// The returned ID is strictly greater than `ports`, so that every port
    /// index `0..=ports` (including a possible sentinel) is a valid residue.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::Exhausted`] if no ID below an internal search
    /// bound stays coprime with all previously allocated IDs (practically
    /// unreachable for sane networks).
    pub fn allocate(&mut self, ports: usize) -> Result<u64, IdError> {
        let floor = match self.strategy {
            IdStrategy::PrimesFrom(f) => f.max(ports as u64 + 1),
            _ => ports as u64 + 1,
        };
        let start = floor.max(2);
        let mut candidate = start;
        let bound = match self.strategy {
            IdStrategy::PrimesBelow(ceiling) => ceiling.min(1u64 << 32),
            _ => 1u64 << 32,
        };
        let mut found = None;
        while candidate < bound {
            if self.dead.contains(&candidate) {
                candidate = self.dead.end;
                continue;
            }
            let ok = match self.strategy {
                IdStrategy::SmallestCoprime => true,
                IdStrategy::SmallestPrimes
                | IdStrategy::PrimesFrom(_)
                | IdStrategy::PrimesBelow(_) => is_prime(candidate),
            };
            if ok && self.allocated.iter().all(|&a| gcd(a, candidate) == 1) {
                found = Some(candidate);
                break;
            }
            candidate += 1;
        }
        // Everything in `start..end` is now unusable (the accepted ID
        // included): grow the remembered run when the two touch, else
        // keep the longer one.
        let end = found.map_or(candidate, |id| id + 1);
        if start <= self.dead.end && self.dead.start <= end {
            self.dead = self.dead.start.min(start)..self.dead.end.max(end);
        } else if end - start > self.dead.end - self.dead.start {
            self.dead = start..end;
        }
        let id = found.ok_or(IdError::Exhausted { ports })?;
        self.allocated.push(id);
        Ok(id)
    }
}

/// Errors from switch-ID allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdError {
    /// Two reserved IDs share a common factor.
    NotCoprime {
        /// First offending ID.
        a: u64,
        /// Second offending ID.
        b: u64,
        /// Their shared factor.
        factor: u64,
    },
    /// The allocator could not find a usable ID.
    Exhausted {
        /// Port count of the switch that could not be served.
        ports: usize,
    },
}

impl std::fmt::Display for IdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdError::NotCoprime { a, b, factor } => {
                write!(f, "switch ids {a} and {b} share factor {factor}")
            }
            IdError::Exhausted { ports } => {
                write!(f, "no coprime id available for a switch with {ports} ports")
            }
        }
    }
}

impl std::error::Error for IdError {}

/// Deterministic primality test, exact for all `u64` (Miller–Rabin with a
/// fixed witness set).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    // This witness set is exact for every n < 3.3 * 10^24 (Sorenson &
    // Webster), hence for all u64.
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_ids_are_coprime() {
        // Figure 1 uses {4, 5, 7, 11} and notes 4 is fine because the
        // requirement is pairwise coprimality, not primality.
        assert!(pairwise_coprime(&[4, 5, 7, 11]));
    }

    #[test]
    fn topo15_and_rnp_id_sets_are_coprime() {
        assert!(pairwise_coprime(&[
            10, 7, 13, 29, 11, 19, 31, 17, 37, 41, 23, 43
        ]));
        assert!(pairwise_coprime(&[
            7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
            101, 103, 107, 109, 113, 127
        ]));
    }

    #[test]
    fn rejects_shared_factors() {
        assert!(!pairwise_coprime(&[6, 9]));
        assert!(!pairwise_coprime(&[10, 5, 7]));
        assert_eq!(first_common_factor(&[7, 10, 5]), Some((1, 2, 5)));
        assert_eq!(first_common_factor(&[7, 11, 13]), None);
    }

    #[test]
    fn rejects_ids_below_two() {
        assert!(!pairwise_coprime(&[1, 7]));
        assert!(!pairwise_coprime(&[0]));
        assert!(pairwise_coprime(&[]));
    }

    #[test]
    fn allocator_smallest_primes_respects_port_floor() {
        let mut alloc = IdAllocator::new(IdStrategy::SmallestPrimes);
        let id = alloc.allocate(6).unwrap();
        assert_eq!(id, 7); // smallest prime > 6
        let id2 = alloc.allocate(2).unwrap();
        assert_eq!(id2, 3);
    }

    #[test]
    fn allocator_smallest_coprime_uses_prime_powers() {
        let mut alloc = IdAllocator::new(IdStrategy::SmallestCoprime);
        let ids: Vec<u64> = (0..6).map(|_| alloc.allocate(1).unwrap()).collect();
        // 4 is skipped (shares factor 2 with 2), 9 (shares 3), etc.
        assert_eq!(ids, vec![2, 3, 5, 7, 11, 13]);
        assert!(pairwise_coprime(&ids));
    }

    #[test]
    fn allocator_smallest_coprime_uses_prime_powers_when_base_free() {
        // Seeded with odd primes only, the smallest usable ID is 4 = 2²,
        // exactly like the paper's example switch ID 4 next to {5, 7, 11}.
        let mut alloc =
            IdAllocator::with_reserved(IdStrategy::SmallestCoprime, &[5, 7, 11]).unwrap();
        assert_eq!(alloc.allocate(3).unwrap(), 4);
        assert_eq!(alloc.allocate(3).unwrap(), 9);
        assert!(pairwise_coprime(alloc.allocated()));
    }

    #[test]
    fn allocator_with_reserved_extends_coprimality() {
        let mut alloc =
            IdAllocator::with_reserved(IdStrategy::SmallestPrimes, &[4, 5, 7, 11]).unwrap();
        for _ in 0..10 {
            let id = alloc.allocate(3).unwrap();
            assert!(alloc.allocated().iter().filter(|&&a| a == id).count() == 1);
        }
        assert!(pairwise_coprime(alloc.allocated()));
    }

    #[test]
    fn allocator_rejects_bad_seed() {
        let err = IdAllocator::with_reserved(IdStrategy::SmallestPrimes, &[6, 9]).unwrap_err();
        assert_eq!(
            err,
            IdError::NotCoprime {
                a: 6,
                b: 9,
                factor: 3
            }
        );
        assert!(err.to_string().contains("share factor 3"));
    }

    #[test]
    fn allocator_primes_from_floor() {
        let mut alloc = IdAllocator::new(IdStrategy::PrimesFrom(100));
        assert_eq!(alloc.allocate(2).unwrap(), 101);
        assert_eq!(alloc.allocate(2).unwrap(), 103);
    }

    #[test]
    fn primes_below_exhausts_at_the_ceiling() {
        // 8-bit switch IDs: primes > 2 and < 256. There are 53 such
        // primes (3..=251), so the 54th allocation must fail.
        let mut alloc = IdAllocator::new(IdStrategy::PrimesBelow(256));
        let mut got = Vec::new();
        loop {
            match alloc.allocate(2) {
                Ok(id) => {
                    assert!(id < 256);
                    got.push(id);
                }
                Err(e) => {
                    assert_eq!(e, IdError::Exhausted { ports: 2 });
                    break;
                }
            }
        }
        assert_eq!(got.len(), 53);
        assert!(pairwise_coprime(&got));
    }

    /// The allocator as it was before the dead-run shortcut: every call
    /// rescans from the floor. Kept verbatim as the differential oracle.
    fn allocate_rescanning(
        strategy: IdStrategy,
        allocated: &mut Vec<u64>,
        ports: usize,
    ) -> Result<u64, IdError> {
        let floor = match strategy {
            IdStrategy::PrimesFrom(f) => f.max(ports as u64 + 1),
            _ => ports as u64 + 1,
        };
        let mut candidate = floor.max(2);
        let bound = match strategy {
            IdStrategy::PrimesBelow(ceiling) => ceiling.min(1u64 << 32),
            _ => 1u64 << 32,
        };
        while candidate < bound {
            let ok = match strategy {
                IdStrategy::SmallestCoprime => true,
                IdStrategy::SmallestPrimes
                | IdStrategy::PrimesFrom(_)
                | IdStrategy::PrimesBelow(_) => is_prime(candidate),
            };
            if ok && allocated.iter().all(|&a| gcd(a, candidate) == 1) {
                allocated.push(candidate);
                return Ok(candidate);
            }
            candidate += 1;
        }
        Err(IdError::Exhausted { ports })
    }

    #[test]
    fn dead_run_shortcut_matches_the_rescanning_allocator() {
        use rand::{Rng, SeedableRng};
        const RESERVED: [u64; 3] = [4, 9, 35];
        let strategies = [
            IdStrategy::SmallestPrimes,
            IdStrategy::SmallestCoprime,
            IdStrategy::PrimesFrom(100),
            IdStrategy::PrimesBelow(1024), // 172 primes: exhausts mid-run
        ];
        for (seed, strategy) in strategies.into_iter().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            let mut fast = IdAllocator::with_reserved(strategy, &RESERVED).unwrap();
            let mut slow = RESERVED.to_vec();
            let mut exhausted = 0;
            for i in 0..300 {
                let ports = rng.gen_range(0..=40usize);
                let got = fast.allocate(ports);
                let want = allocate_rescanning(strategy, &mut slow, ports);
                assert_eq!(got, want, "{strategy:?}, allocation {i}, {ports} ports");
                exhausted += usize::from(got.is_err());
            }
            assert_eq!(fast.allocated(), slow);
            assert_eq!(
                exhausted > 0,
                matches!(strategy, IdStrategy::PrimesBelow(_)),
                "{strategy:?}: {exhausted} exhausted"
            );
        }
    }

    #[test]
    fn allocated_bits_tracks_key_growth() {
        let mut alloc = IdAllocator::new(IdStrategy::SmallestPrimes);
        assert_eq!(alloc.allocated_bits(), 0);
        let mut last = 0;
        for _ in 0..12 {
            alloc.allocate(2).unwrap();
            let bits = alloc.allocated_bits();
            assert!(bits > last, "every new ID must grow the worst-case key");
            last = bits;
        }
        // Matches Eq. 9 on the Table-1 basis.
        let table1 =
            IdAllocator::with_reserved(IdStrategy::SmallestPrimes, &[10, 7, 13, 29]).unwrap();
        assert_eq!(table1.allocated_bits(), 15);
    }

    #[test]
    fn primality_exactness_small_range() {
        let primes: Vec<u64> = (0..200u64).filter(|&n| is_prime(n)).collect();
        assert_eq!(
            primes,
            vec![
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
                173, 179, 181, 191, 193, 197, 199
            ]
        );
    }

    #[test]
    fn primality_large_values() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1, Mersenne prime
        assert!(!is_prime(2_147_483_649));
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime(18_446_744_073_709_551_615)); // u64::MAX = 3·5·17·257·641·65537·6700417
    }
}
