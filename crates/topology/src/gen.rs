//! Synthetic topology generators for benchmarks, ablations, and property
//! tests: lines, rings, grids, and random connected graphs, each with
//! automatically assigned pairwise-coprime switch IDs.
//!
//! Every generator comes in two flavours: a panicking one (`ring`, …) for
//! tests and examples where ID allocation cannot fail, and a fallible
//! `try_*` one returning [`GenError`] when the [`IdStrategy`] runs out of
//! usable IDs — which genuinely happens at scale with bounded strategies
//! such as `IdStrategy::PrimesBelow`. The error reports how many switches
//! *did* get an ID, so a sweep can chart the achievable ceiling per
//! strategy instead of aborting.

use crate::builder::TopologyBuilder;
use crate::graph::{LinkParams, NodeId, Topology};
use kar_rns::{IdAllocator, IdError, IdStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ID allocation ran dry while generating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenError {
    /// Switches that received an ID before the allocator gave up — the
    /// achievable network size under this strategy and degree sequence.
    pub assigned: usize,
    /// Switches the generator needed in total.
    pub requested: usize,
    /// The underlying allocation failure.
    pub source: IdError,
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "id allocation exhausted after {}/{} switches: {}",
            self.assigned, self.requested, self.source
        )
    }
}

impl std::error::Error for GenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Assigns coprime IDs to `n` switches with the given degrees, reporting
/// how far allocation got when the strategy runs out of IDs.
fn try_assign_ids(strategy: IdStrategy, degrees: &[usize]) -> Result<Vec<u64>, GenError> {
    let mut alloc = IdAllocator::new(strategy);
    let mut ids = Vec::with_capacity(degrees.len());
    for &d in degrees {
        match alloc.allocate(d) {
            Ok(id) => ids.push(id),
            Err(source) => {
                return Err(GenError {
                    assigned: ids.len(),
                    requested: degrees.len(),
                    source,
                })
            }
        }
    }
    Ok(ids)
}

/// A line of `n` core switches with one edge host at each end.
///
/// Useful for encoding-size sweeps: the route-ID bit length grows with
/// path length (paper §2.3).
///
/// # Panics
///
/// Panics if `n == 0` or ID allocation is exhausted (use [`try_line`]).
pub fn line(n: usize, strategy: IdStrategy, params: LinkParams) -> Topology {
    try_line(n, strategy, params).expect("allocator exhausted")
}

/// Fallible form of [`line()`].
///
/// # Errors
///
/// [`GenError`] when the strategy cannot supply `n` coprime IDs.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn try_line(n: usize, strategy: IdStrategy, params: LinkParams) -> Result<Topology, GenError> {
    assert!(n > 0, "a line needs at least one switch");
    let mut degrees = vec![2usize; n];
    degrees[0] = 2; // host + next
    degrees[n - 1] = 2;
    let ids = try_assign_ids(strategy, &degrees)?;
    let mut b = TopologyBuilder::new();
    let src = b.edge("H0");
    let cores: Vec<NodeId> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| b.core(&format!("C{i}"), id))
        .collect();
    let dst = b.edge("H1");
    b.link(src, cores[0], params);
    for w in cores.windows(2) {
        b.link(w[0], w[1], params);
    }
    b.link(cores[n - 1], dst, params);
    Ok(b.build().expect("line construction is valid"))
}

/// A ring of `n ≥ 3` core switches, each with an attached edge host.
///
/// Rings give every node exactly one alternative direction — the smallest
/// topology where deflection routing is always possible.
///
/// # Panics
///
/// Panics if `n < 3` or ID allocation is exhausted (use [`try_ring`]).
pub fn ring(n: usize, strategy: IdStrategy, params: LinkParams) -> Topology {
    try_ring(n, strategy, params).expect("allocator exhausted")
}

/// Fallible form of [`ring`].
///
/// # Errors
///
/// [`GenError`] when the strategy cannot supply `n` coprime IDs.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn try_ring(n: usize, strategy: IdStrategy, params: LinkParams) -> Result<Topology, GenError> {
    assert!(n >= 3, "a ring needs at least three switches");
    let ids = try_assign_ids(strategy, &vec![3usize; n])?;
    let mut b = TopologyBuilder::new();
    let cores: Vec<NodeId> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| b.core(&format!("C{i}"), id))
        .collect();
    for i in 0..n {
        b.link(cores[i], cores[(i + 1) % n], params);
    }
    for (i, &c) in cores.iter().enumerate() {
        let h = b.edge(&format!("H{i}"));
        b.link(c, h, params);
    }
    Ok(b.build().expect("ring construction is valid"))
}

/// A `rows × cols` grid of core switches with hosts on the four corners.
///
/// # Panics
///
/// Panics if `rows * cols < 2` or ID allocation is exhausted (use
/// [`try_grid`]).
pub fn grid(rows: usize, cols: usize, strategy: IdStrategy, params: LinkParams) -> Topology {
    try_grid(rows, cols, strategy, params).expect("allocator exhausted")
}

/// Fallible form of [`grid`].
///
/// # Errors
///
/// [`GenError`] when the strategy cannot supply enough coprime IDs.
///
/// # Panics
///
/// Panics if `rows * cols < 2`.
pub fn try_grid(
    rows: usize,
    cols: usize,
    strategy: IdStrategy,
    params: LinkParams,
) -> Result<Topology, GenError> {
    assert!(rows * cols >= 2, "a grid needs at least two switches");
    let deg = |r: usize, c: usize| {
        let mut d = 0;
        if r > 0 {
            d += 1;
        }
        if r + 1 < rows {
            d += 1;
        }
        if c > 0 {
            d += 1;
        }
        if c + 1 < cols {
            d += 1;
        }
        d + 1 // room for a host port
    };
    let mut degrees = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            degrees.push(deg(r, c));
        }
    }
    let ids = try_assign_ids(strategy, &degrees)?;
    let mut b = TopologyBuilder::new();
    let mut cores = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            cores.push(b.core(&format!("C{r}_{c}"), ids[r * cols + c]));
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            let cur = cores[r * cols + c];
            if c + 1 < cols {
                b.link(cur, cores[r * cols + c + 1], params);
            }
            if r + 1 < rows {
                b.link(cur, cores[(r + 1) * cols + c], params);
            }
        }
    }
    for (label, (r, c)) in [
        ("H_NW", (0, 0)),
        ("H_NE", (0, cols - 1)),
        ("H_SW", (rows - 1, 0)),
        ("H_SE", (rows - 1, cols - 1)),
    ] {
        // Grids down to 1×2 still have distinct corner labels but may
        // share corner switches; skip duplicates.
        let corner = cores[r * cols + c];
        let h = b.edge(label);
        b.link(h, corner, params);
    }
    Ok(b.build().expect("grid construction is valid"))
}

/// Random connected wiring shared by [`try_random_connected`] and
/// [`try_random_connected_hosts`]: a random recursive spanning tree plus
/// `extra_links` chords. Returns the edge list and per-switch degrees
/// *excluding* host ports.
fn random_wiring(n: usize, extra_links: usize, seed: u64) -> (Vec<(usize, usize)>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Random recursive tree: node i attaches to a random predecessor.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 1..n {
        let p = rng.gen_range(0..i);
        edges.push((p, i));
        adj[p].push(i);
        adj[i].push(p);
    }
    let mut tries = 0;
    let mut added = 0;
    while added < extra_links && tries < extra_links * 50 {
        tries += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b || adj[a].contains(&b) {
            continue;
        }
        edges.push((a.min(b), a.max(b)));
        adj[a].push(b);
        adj[b].push(a);
        added += 1;
    }
    let degrees = adj.iter().map(Vec::len).collect();
    (edges, degrees)
}

/// A random connected graph: a spanning tree (guaranteeing connectivity)
/// plus `extra_links` random chords, seeded for reproducibility. Two edge
/// hosts attach to the first and last switch.
///
/// # Panics
///
/// Panics if `n < 2` or ID allocation is exhausted (use
/// [`try_random_connected`]).
pub fn random_connected(
    n: usize,
    extra_links: usize,
    seed: u64,
    strategy: IdStrategy,
    params: LinkParams,
) -> Topology {
    try_random_connected(n, extra_links, seed, strategy, params).expect("allocator exhausted")
}

/// Fallible form of [`random_connected`].
///
/// # Errors
///
/// [`GenError`] when the strategy cannot supply `n` coprime IDs.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn try_random_connected(
    n: usize,
    extra_links: usize,
    seed: u64,
    strategy: IdStrategy,
    params: LinkParams,
) -> Result<Topology, GenError> {
    assert!(n >= 2, "need at least two switches");
    let (edges, mut degrees) = random_wiring(n, extra_links, seed);
    for d in &mut degrees {
        *d += 1; // room for a potential host port
    }
    let ids = try_assign_ids(strategy, &degrees)?;
    let mut b = TopologyBuilder::new();
    let cores: Vec<NodeId> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| b.core(&format!("C{i}"), id))
        .collect();
    for &(x, y) in &edges {
        b.link(cores[x], cores[y], params);
    }
    let h0 = b.edge("H0");
    let h1 = b.edge("H1");
    b.link(h0, cores[0], params);
    b.link(h1, cores[n - 1], params);
    Ok(b.build().expect("random construction is valid"))
}

/// Like [`try_random_connected`] but with one edge host per switch
/// (`H0 … H{n-1}`, host `Hi` on switch `Ci`) — the workload shape the
/// scale campaign needs to drive hundreds of concurrent flows between
/// arbitrary node pairs.
///
/// # Errors
///
/// [`GenError`] when the strategy cannot supply `n` coprime IDs.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn try_random_connected_hosts(
    n: usize,
    extra_links: usize,
    seed: u64,
    strategy: IdStrategy,
    params: LinkParams,
) -> Result<Topology, GenError> {
    assert!(n >= 2, "need at least two switches");
    let (edges, mut degrees) = random_wiring(n, extra_links, seed);
    for d in &mut degrees {
        *d += 1; // every switch gets a host port
    }
    let ids = try_assign_ids(strategy, &degrees)?;
    let mut b = TopologyBuilder::new();
    let cores: Vec<NodeId> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| b.core(&format!("C{i}"), id))
        .collect();
    for &(x, y) in &edges {
        b.link(cores[x], cores[y], params);
    }
    for (i, &c) in cores.iter().enumerate() {
        let h = b.edge(&format!("H{i}"));
        b.link(h, c, params);
    }
    Ok(b.build().expect("random construction is valid"))
}

/// A k-ary fat-tree (k even): `k` pods of `k/2` edge and `k/2`
/// aggregation switches plus `(k/2)²` core switches — the canonical
/// data-center topology, included because SlickFlow (a system the paper
/// compares against) evaluates on it. One host attaches to the first
/// edge switch of each pod.
///
/// # Panics
///
/// Panics if `k` is odd or below 2, or ID allocation is exhausted (use
/// [`try_fat_tree`]).
pub fn fat_tree(k: usize, strategy: IdStrategy, params: LinkParams) -> Topology {
    try_fat_tree(k, strategy, params).expect("allocator exhausted")
}

/// Fallible form of [`fat_tree`].
///
/// # Errors
///
/// [`GenError`] when the strategy cannot supply enough coprime IDs.
///
/// # Panics
///
/// Panics if `k` is odd or below 2.
pub fn try_fat_tree(
    k: usize,
    strategy: IdStrategy,
    params: LinkParams,
) -> Result<Topology, GenError> {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even and ≥ 2"
    );
    let half = k / 2;
    let n_core = half * half;
    let n_agg = k * half;
    let n_edge_sw = k * half;
    // Degrees: core = k (one per pod); agg = k (half up, half down);
    // edge switch = half up + half hosts (we attach one host to the
    // first edge switch per pod, so degree ≤ half + 1).
    let mut degrees = Vec::new();
    degrees.extend(std::iter::repeat_n(k, n_core));
    degrees.extend(std::iter::repeat_n(k, n_agg));
    degrees.extend(std::iter::repeat_n(half + 1, n_edge_sw));
    let ids = try_assign_ids(strategy, &degrees)?;
    let mut b = TopologyBuilder::new();
    let core: Vec<NodeId> = (0..n_core)
        .map(|i| b.core(&format!("core{i}"), ids[i]))
        .collect();
    let agg: Vec<NodeId> = (0..n_agg)
        .map(|i| b.core(&format!("agg{}_{}", i / half, i % half), ids[n_core + i]))
        .collect();
    let edge_sw: Vec<NodeId> = (0..n_edge_sw)
        .map(|i| {
            b.core(
                &format!("edge{}_{}", i / half, i % half),
                ids[n_core + n_agg + i],
            )
        })
        .collect();
    for pod in 0..k {
        for a in 0..half {
            let agg_node = agg[pod * half + a];
            // Up: aggregation a connects to core group a.
            for c in 0..half {
                b.link(agg_node, core[a * half + c], params);
            }
            // Down: to every edge switch in the pod.
            for e in 0..half {
                b.link(agg_node, edge_sw[pod * half + e], params);
            }
        }
        let host = b.edge(&format!("H{pod}"));
        b.link(host, edge_sw[pod * half], params);
    }
    Ok(b.build().expect("fat-tree construction is valid"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::bfs_shortest_path;
    use kar_rns::pairwise_coprime;

    #[test]
    fn line_shape() {
        let t = line(5, IdStrategy::SmallestPrimes, LinkParams::default());
        assert_eq!(t.core_nodes().len(), 5);
        assert_eq!(t.edge_nodes().len(), 2);
        assert_eq!(t.link_count(), 6);
        assert!(t.is_connected());
        let p = bfs_shortest_path(&t, t.expect("H0"), t.expect("H1")).unwrap();
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn ring_shape() {
        let t = ring(6, IdStrategy::SmallestPrimes, LinkParams::default());
        assert_eq!(t.core_nodes().len(), 6);
        assert_eq!(t.edge_nodes().len(), 6);
        assert_eq!(t.link_count(), 12);
        assert!(t.is_connected());
        for c in t.core_nodes() {
            assert_eq!(t.node(c).degree(), 3);
        }
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 4, IdStrategy::SmallestPrimes, LinkParams::default());
        assert_eq!(t.core_nodes().len(), 12);
        // 3*3 + 2*4 internal links + 4 host links.
        assert_eq!(t.link_count(), 17 + 4);
        assert!(t.is_connected());
    }

    #[test]
    fn random_is_connected_and_coprime() {
        for seed in 0..5 {
            let t = random_connected(
                20,
                15,
                seed,
                IdStrategy::SmallestPrimes,
                LinkParams::default(),
            );
            assert!(t.is_connected(), "seed {seed}");
            assert!(pairwise_coprime(&t.switch_ids()));
            for c in t.core_nodes() {
                assert!(t.switch_id(c).unwrap() > t.node(c).degree() as u64);
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = random_connected(12, 6, 42, IdStrategy::SmallestPrimes, LinkParams::default());
        let b = random_connected(12, 6, 42, IdStrategy::SmallestPrimes, LinkParams::default());
        assert_eq!(a.switch_ids(), b.switch_ids());
        assert_eq!(a.link_count(), b.link_count());
        let c = random_connected(12, 6, 43, IdStrategy::SmallestPrimes, LinkParams::default());
        // Different seed gives a different wiring (ids may coincide).
        let same_links = a
            .links()
            .iter()
            .zip(c.links())
            .all(|(x, y)| (x.a, x.b) == (y.a, y.b));
        assert!(!same_links || a.link_count() != c.link_count());
    }

    #[test]
    fn random_hosts_attaches_one_host_per_switch() {
        let t =
            try_random_connected_hosts(16, 8, 7, IdStrategy::SmallestPrimes, LinkParams::default())
                .unwrap();
        assert_eq!(t.core_nodes().len(), 16);
        assert_eq!(t.edge_nodes().len(), 16);
        assert!(t.is_connected());
        assert!(pairwise_coprime(&t.switch_ids()));
        // Same seed, same wiring as the two-host variant plus the hosts.
        let two = random_connected(16, 8, 7, IdStrategy::SmallestPrimes, LinkParams::default());
        assert_eq!(t.switch_ids(), two.switch_ids());
    }

    #[test]
    fn exhaustion_surfaces_as_an_error_with_the_achievable_ceiling() {
        // Ring switches have degree 3 → IDs must be ≥ 5; primes below 13
        // leave exactly {5, 7, 11}, so a 10-ring fails after 3 switches.
        let err = try_ring(10, IdStrategy::PrimesBelow(13), LinkParams::default()).unwrap_err();
        assert_eq!(err.assigned, 3);
        assert_eq!(err.requested, 10);
        assert_eq!(err.source, kar_rns::IdError::Exhausted { ports: 3 });
        assert!(err.to_string().contains("3/10"));
        // A 3-ring with the same budget still succeeds.
        let t = try_ring(3, IdStrategy::PrimesBelow(13), LinkParams::default()).unwrap();
        assert_eq!(t.switch_ids(), vec![5, 7, 11]);
    }

    #[test]
    #[should_panic(expected = "allocator exhausted")]
    fn panicking_generator_still_panics_on_exhaustion() {
        let _ = ring(10, IdStrategy::PrimesBelow(13), LinkParams::default());
    }

    #[test]
    fn fat_tree_shape() {
        let t = fat_tree(4, IdStrategy::SmallestPrimes, LinkParams::default());
        // k=4: 4 core + 8 agg + 8 edge switches + 4 hosts.
        assert_eq!(t.core_nodes().len(), 20);
        assert_eq!(t.edge_nodes().len(), 4);
        // Links: agg-core 8*2 + agg-edge 8*2 + hosts 4 = 36.
        assert_eq!(t.link_count(), 36);
        assert!(t.is_connected());
        assert!(kar_rns::pairwise_coprime(&t.switch_ids()));
        for c in t.core_nodes() {
            assert!(t.switch_id(c).unwrap() > t.node(c).degree() as u64);
        }
        // Multiple equal-cost paths exist between pods.
        let p = bfs_shortest_path(&t, t.expect("H0"), t.expect("H1")).unwrap();
        assert_eq!(p.len(), 7); // host-edge-agg-core-agg-edge-host
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_rejects_odd_arity() {
        let _ = fat_tree(3, IdStrategy::SmallestPrimes, LinkParams::default());
    }

    #[test]
    fn strategies_affect_ids() {
        let p = line(4, IdStrategy::SmallestPrimes, LinkParams::default());
        let c = line(4, IdStrategy::SmallestCoprime, LinkParams::default());
        assert_eq!(p.switch_ids(), vec![3, 5, 7, 11]);
        assert_eq!(c.switch_ids(), vec![3, 4, 5, 7]);
    }
}
