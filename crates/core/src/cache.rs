//! Shared route-encoding cache.
//!
//! Encoding a route is two very different jobs glued together: walking
//! the topology to collect `(switch_id, port)` residue pairs (cheap), and
//! sealing those pairs into a route ID with CRT arithmetic over
//! big integers (the expensive half). Experiment sweeps re-encode the same
//! routes for every repetition, so [`EncodingCache`] memoizes the sealing
//! step keyed by exactly the inputs that determine it: the residue pairs
//! plus the ingress uplink.
//!
//! Because an [`EncodedRoute`] is a pure function of that key — the
//! topology only matters for *collecting* the pairs — a hit is always
//! byte-identical to a recomputation: sharing one cache across runs,
//! sweeps, or worker threads can change speed, never results. The cache
//! is internally synchronized (`&self` methods), so experiment runners
//! share it between threads behind a plain `Arc`.

use crate::error::KarError;
use crate::protection::{resolve, Protection};
use crate::route::{EncodedRoute, RouteSpec};
use kar_topology::{NodeId, PortIx, Topology};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hit/miss/size counters of an [`EncodingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the CRT arithmetic.
    pub misses: u64,
    /// Distinct routes stored.
    pub entries: usize,
}

/// A thread-safe memo table for [`EncodedRoute::from_pairs`].
///
/// # Examples
///
/// ```
/// use kar::{EncodingCache, Protection};
/// use kar_topology::topo15;
///
/// let topo = topo15::build();
/// let cache = EncodingCache::new();
/// let first = cache.encode_with_protection(
///     &topo, topo15::primary_route(&topo), &Protection::AutoFull)?;
/// let second = cache.encode_with_protection(
///     &topo, topo15::primary_route(&topo), &Protection::AutoFull)?;
/// assert_eq!(first, second);
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), kar::KarError>(())
/// ```
#[derive(Debug, Default)]
pub struct EncodingCache {
    routes: Mutex<HashMap<RouteKey, EncodedRoute>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The `(residue pairs, uplink)` pair that fully determines an
/// [`EncodedRoute`] — see [`EncodedRoute::collect_pairs`].
type RouteKey = (Vec<(u64, PortIx)>, PortIx);

impl EncodingCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        EncodingCache::default()
    }

    /// [`EncodedRoute::encode`] with the CRT-arithmetic half memoized.
    ///
    /// # Errors
    ///
    /// Exactly those of [`EncodedRoute::encode`]. Errors are not cached:
    /// spec validation happens in the collection half, before lookup.
    ///
    /// One lock and one hash per call: a miss seals under the lock, from
    /// the key it inserts.
    pub fn encode(&self, topo: &Topology, spec: &RouteSpec) -> Result<EncodedRoute, KarError> {
        let key = EncodedRoute::collect_pairs(topo, spec)?;
        match self.routes.lock().expect("cache lock").entry(key) {
            Entry::Occupied(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(hit.get().clone())
            }
            Entry::Vacant(slot) => {
                let (pairs, uplink) = slot.key();
                let route = EncodedRoute::from_pairs(pairs.clone(), *uplink)?;
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(slot.insert(route).clone())
            }
        }
    }

    /// [`crate::protection::encode_with_protection`] backed by this cache.
    ///
    /// # Errors
    ///
    /// Same conditions as the uncached function.
    pub fn encode_with_protection(
        &self,
        topo: &Topology,
        primary: Vec<NodeId>,
        protection: &Protection,
    ) -> Result<EncodedRoute, KarError> {
        let segments = resolve(topo, &primary, protection);
        self.encode(topo, &RouteSpec::protected(primary, segments))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.routes.lock().expect("cache lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_topology::topo15;
    use std::sync::Arc;

    #[test]
    fn hit_equals_direct_encoding() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let spec = RouteSpec::unprotected(topo15::primary_route(&topo));
        let direct = EncodedRoute::encode(&topo, &spec).unwrap();
        assert_eq!(cache.encode(&topo, &spec).unwrap(), direct);
        assert_eq!(cache.encode(&topo, &spec).unwrap(), direct);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn protection_levels_are_distinct_entries() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let a = cache
            .encode_with_protection(&topo, topo15::primary_route(&topo), &Protection::None)
            .unwrap();
        let b = cache
            .encode_with_protection(&topo, topo15::primary_route(&topo), &Protection::AutoFull)
            .unwrap();
        assert_ne!(a.bit_length(), b.bit_length());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn invalid_specs_error_and_cache_nothing() {
        let topo = topo15::build();
        let cache = EncodingCache::new();
        let spec = RouteSpec::unprotected(vec![topo.expect("AS1")]);
        assert!(cache.encode(&topo, &spec).is_err());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn concurrent_lookups_agree() {
        let topo = topo15::build();
        let cache = Arc::new(EncodingCache::new());
        let spec = RouteSpec::unprotected(topo15::primary_route(&topo));
        let direct = EncodedRoute::encode(&topo, &spec).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(cache.encode(&topo, &spec).unwrap(), direct);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 200);
        assert_eq!(s.entries, 1);
        // A miss seals under the lock, so only the first lookup misses.
        assert_eq!(s.misses, 1, "stats: {s:?}");
    }
}
