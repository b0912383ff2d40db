//! Network topologies and the per-link fault model.
//!
//! The paper's protocol assumes a complete communication graph (any query
//! node can reach any agent), but the simulator also serves scenario
//! studies — doubly regular pooling schemes, gossip on sparse overlays —
//! that need structured topologies and heterogeneous link quality. A
//! [`Topology`] describes *who may talk to whom* and, optionally, *how
//! well each link behaves*:
//!
//! * [`Topology::complete`] — every pair of nodes is connected (the
//!   default; implicit, no adjacency is materialized even at `n = 10⁶`).
//! * [`Topology::ring`] — bidirectional cycle.
//! * [`Topology::grid`] — 4-neighbor rows × cols lattice (no wraparound).
//! * [`Topology::random_regular`] — random `d`-regular graph via the
//!   pairing model with deterministic switch repair.
//! * [`Topology::small_world`] — Watts–Strogatz ring lattice with random
//!   rewiring.
//!
//! Per-link overrides ([`Topology::with_link_faults`]) attach a
//! [`LinkFaults`] profile to individual directed links; the network-wide
//! [`crate::FaultConfig`] is then just the *default* profile every other
//! link uses — one instance of the general link model.
//!
//! Loopback (`u → u`) is always permitted regardless of topology: a node
//! may address a message to itself (e.g. the canonical push-sum self-push)
//! without the topology declaring a self-loop.

use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fault profile of one (directed) link: the general link model of which
/// the network-wide [`crate::FaultConfig`] is the uniform default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFaults {
    /// Probability that a message on this link is silently dropped.
    pub drop_prob: f64,
    /// Probability that a message on this link is duplicated (one extra
    /// copy, which then passes the drop/delay gates independently).
    pub dup_prob: f64,
    /// Maximum extra delivery delay in rounds (`0` disables delay).
    pub max_delay: u64,
}

impl LinkFaults {
    /// A perfectly reliable link: nothing dropped, duplicated or delayed.
    pub const RELIABLE: Self = Self {
        drop_prob: 0.0,
        dup_prob: 0.0,
        max_delay: 0,
    };

    /// Whether this profile can ever alter a message.
    pub fn is_reliable(&self) -> bool {
        self.drop_prob <= 0.0 && self.dup_prob <= 0.0 && self.max_delay == 0
    }
}

/// Adjacency representation.
#[derive(Debug, Clone)]
enum Repr {
    /// Every distinct pair is connected; nothing is materialized.
    Complete,
    /// CSR adjacency: `targets[offsets[v]..offsets[v + 1]]` are `v`'s
    /// neighbors in ascending id order.
    Sparse {
        offsets: Vec<usize>,
        targets: Vec<u32>,
    },
}

/// A communication topology over `n` nodes with optional per-link fault
/// overrides.
///
/// # Examples
///
/// ```
/// use npd_netsim::{NodeId, Topology};
///
/// let ring = Topology::ring(5);
/// assert_eq!(ring.degree(NodeId(0)), 2);
/// assert!(ring.contains_edge(NodeId(0), NodeId(4)));
/// assert!(!ring.contains_edge(NodeId(0), NodeId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    repr: Repr,
    /// Per-directed-link fault overrides, sorted by `(from, to)` for
    /// binary search.
    overrides: Vec<((u32, u32), LinkFaults)>,
}

impl Topology {
    /// The complete graph on `n` nodes (the classic synchronous model the
    /// paper's protocol assumes). No adjacency is materialized.
    pub fn complete(n: usize) -> Self {
        Self {
            n,
            repr: Repr::Complete,
            overrides: Vec::new(),
        }
    }

    /// Bidirectional ring: node `v` is connected to `v ± 1 (mod n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "Topology::ring: n={n} must be at least 2");
        let edges = (0..n).flat_map(|v| {
            let prev = (v + n - 1) % n;
            let next = (v + 1) % n;
            [(v, prev), (v, next)]
        });
        Self::from_directed_edges(n, edges)
    }

    /// 4-neighbor `rows × cols` grid without wraparound.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the grid has fewer than two
    /// nodes.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "Topology::grid: empty grid");
        let n = rows * cols;
        assert!(n >= 2, "Topology::grid: need at least two nodes");
        let mut edges = Vec::with_capacity(4 * n);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if r + 1 < rows {
                    edges.push((v, v + cols));
                    edges.push((v + cols, v));
                }
                if c + 1 < cols {
                    edges.push((v, v + 1));
                    edges.push((v + 1, v));
                }
            }
        }
        Self::from_directed_edges(n, edges)
    }

    /// Random `d`-regular graph sampled from the pairing (configuration)
    /// model, with self-loops and parallel edges repaired by deterministic
    /// edge switches. Fully determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n·d` is odd, `d == 0`, or `d >= n`.
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Self {
        assert!(d > 0, "Topology::random_regular: d must be positive");
        assert!(d < n, "Topology::random_regular: d={d} must be below n={n}");
        assert!(
            (n * d).is_multiple_of(2),
            "Topology::random_regular: n·d = {n}·{d} must be even"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Stub list: node v appears d times. A shuffle pairs consecutive
        // stubs; edge switches then repair self-loops and duplicates (their
        // expected count is O(d²), independent of n).
        let mut stubs: Vec<u32> = (0..n as u32)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        let mut pairs: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let edge_key = |a: u32, b: u32| ((a.min(b) as u64) << 32) | a.max(b) as u64;
        // Iteration-order invariant: `seen` is a pure membership probe
        // (insert/contains/remove by edge key). The repair loop walks
        // `pairs`/`bad` — indexable Vecs — so the sampled graph can never
        // observe the per-process hash seed. Any future use that *walks*
        // this set must switch to a sorted structure first.
        // xtask:allow(hash-iteration): duplicate-edge membership probe; repair loop iterates `pairs`, never this set
        let mut seen = std::collections::HashSet::with_capacity(pairs.len());
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if a == b || !seen.insert(edge_key(a, b)) {
                bad.push(i);
            }
        }
        let mut attempts = 0usize;
        while let Some(i) = bad.pop() {
            loop {
                attempts += 1;
                assert!(
                    attempts < 1000 * (bad.len() + 1) * (d * d + 1) + 10_000,
                    "Topology::random_regular: switch repair did not converge \
                     (n={n}, d={d}, seed={seed})"
                );
                let j = rng.gen_range(0..pairs.len());
                if j == i || bad.contains(&j) {
                    continue;
                }
                let (a, b) = pairs[i];
                let (c, e) = pairs[j];
                // Propose the switch (a,b),(c,e) → (a,e),(c,b); accept only
                // if both resulting pairs are valid simple edges.
                if a == e || c == b {
                    continue;
                }
                let (k1, k2) = (edge_key(a, e), edge_key(c, b));
                if k1 == k2 {
                    continue;
                }
                seen.remove(&edge_key(c, e));
                if seen.contains(&k1) || seen.contains(&k2) {
                    seen.insert(edge_key(c, e));
                    continue;
                }
                seen.insert(k1);
                seen.insert(k2);
                pairs[i] = (a, e);
                pairs[j] = (c, b);
                break;
            }
        }
        let edges = pairs
            .iter()
            .flat_map(|&(a, b)| [(a as usize, b as usize), (b as usize, a as usize)]);
        Self::from_directed_edges(n, edges)
    }

    /// Watts–Strogatz small world: a ring lattice where each node connects
    /// to its `k` nearest neighbors (`k/2` per side, `k` even), each edge
    /// rewired to a uniform random endpoint with probability `beta`.
    /// Fully determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or zero, `k >= n`, or `beta ∉ [0, 1]`.
    pub fn small_world(n: usize, k: usize, beta: f64, seed: u64) -> Self {
        assert!(
            k > 0 && k.is_multiple_of(2),
            "Topology::small_world: k={k} must be positive and even"
        );
        assert!(k < n, "Topology::small_world: k={k} must be below n={n}");
        assert!(
            (0.0..=1.0).contains(&beta),
            "Topology::small_world: beta={beta} is not a probability"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Iteration-order invariant: membership probe only — rewiring walks
        // the `undirected` Vec in ring order and asks `seen` about single
        // keys; the set is never iterated, so hash-seed order cannot leak
        // into the rewired edges. Keep it that way.
        // xtask:allow(hash-iteration): rewiring-collision membership probe; the loop iterates `undirected`, never this set
        let mut seen = std::collections::HashSet::with_capacity(n * k / 2);
        let edge_key = |a: usize, b: usize| ((a.min(b) as u64) << 32) | a.max(b) as u64;
        let mut undirected: Vec<(usize, usize)> = Vec::with_capacity(n * k / 2);
        for v in 0..n {
            for step in 1..=k / 2 {
                let u = (v + step) % n;
                seen.insert(edge_key(v, u));
                undirected.push((v, u));
            }
        }
        for edge in undirected.iter_mut() {
            if rng.gen::<f64>() >= beta {
                continue;
            }
            let (v, old) = *edge;
            // Rewire the far endpoint to a fresh uniform target; skip when
            // the node is saturated (no valid target after a few tries).
            for _ in 0..32 {
                let u = rng.gen_range(0..n);
                if u != v && !seen.contains(&edge_key(v, u)) {
                    seen.remove(&edge_key(v, old));
                    seen.insert(edge_key(v, u));
                    *edge = (v, u);
                    break;
                }
            }
        }
        let edges = undirected.iter().flat_map(|&(a, b)| [(a, b), (b, a)]);
        Self::from_directed_edges(n, edges)
    }

    /// Builds a sparse topology from directed edges (deduplicated).
    fn from_directed_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut adj: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| {
                assert!(a < n && b < n, "topology edge ({a}, {b}) out of range");
                (a as u32, b as u32)
            })
            .collect();
        adj.sort_unstable();
        adj.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(a, _) in &adj {
            offsets[a as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let targets = adj.into_iter().map(|(_, b)| b).collect();
        Self {
            n,
            repr: Repr::Sparse { offsets, targets },
            overrides: Vec::new(),
        }
    }

    /// Overrides the fault profile of the directed link `from → to`.
    ///
    /// Overrides take effect whenever the network has a fault model: a
    /// [`crate::FaultConfig`] ([`crate::Network::with_faults`]), which
    /// supplies the fault RNG seed and the default profile of every
    /// non-overridden link, or a [`crate::NodeFaultPlan`]
    /// ([`crate::Network::with_node_faults`]), whose seed drives the
    /// overrides when there is no config (other links are then reliable).
    /// A network with neither ignores them.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    #[must_use]
    pub fn with_link_faults(mut self, from: NodeId, to: NodeId, faults: LinkFaults) -> Self {
        assert!(
            from.0 < self.n && to.0 < self.n,
            "with_link_faults: link {from} → {to} out of range (n = {})",
            self.n
        );
        let key = (from.0 as u32, to.0 as u32);
        match self.overrides.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.overrides[i].1 = faults,
            Err(i) => self.overrides.insert(i, (key, faults)),
        }
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether this is the (implicit) complete graph.
    pub fn is_complete(&self) -> bool {
        matches!(self.repr, Repr::Complete)
    }

    /// Out-degree of `v` (excluding the always-available loopback).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        assert!(v.0 < self.n, "Topology::degree: {v} out of range");
        match &self.repr {
            Repr::Complete => self.n - 1,
            Repr::Sparse { offsets, .. } => offsets[v.0 + 1] - offsets[v.0],
        }
    }

    /// The `i`-th neighbor of `v`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `i >= degree(v)`.
    pub fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        match &self.repr {
            Repr::Complete => {
                assert!(i < self.n - 1, "Topology::neighbor: index {i} out of range");
                NodeId(if i < v.0 { i } else { i + 1 })
            }
            Repr::Sparse { offsets, targets } => {
                let lo = offsets[v.0];
                assert!(
                    i < offsets[v.0 + 1] - lo,
                    "Topology::neighbor: index {i} out of range for {v}"
                );
                NodeId(targets[lo + i] as usize)
            }
        }
    }

    /// Neighbors of `v` in ascending id order (sparse topologies only).
    ///
    /// Returns `None` for the complete topology, whose adjacency is
    /// implicit; use [`degree`](Self::degree)/[`neighbor`](Self::neighbor)
    /// there.
    pub fn neighbors(&self, v: NodeId) -> Option<&[u32]> {
        match &self.repr {
            Repr::Complete => None,
            Repr::Sparse { offsets, targets } => Some(&targets[offsets[v.0]..offsets[v.0 + 1]]),
        }
    }

    /// Whether the directed link `from → to` exists. Loopback (`from ==
    /// to`) is always considered present.
    pub fn contains_edge(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return from.0 < self.n;
        }
        match &self.repr {
            Repr::Complete => from.0 < self.n && to.0 < self.n,
            Repr::Sparse { offsets, targets } => {
                from.0 < self.n
                    && to.0 < self.n
                    && targets[offsets[from.0]..offsets[from.0 + 1]]
                        .binary_search(&(to.0 as u32))
                        .is_ok()
            }
        }
    }

    /// The fault override of the link `from → to`, if any.
    pub fn link_faults(&self, from: NodeId, to: NodeId) -> Option<&LinkFaults> {
        if self.overrides.is_empty() {
            return None;
        }
        let key = (from.0 as u32, to.0 as u32);
        self.overrides
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &self.overrides[i].1)
    }

    /// Whether any link carries a fault override.
    pub fn has_link_faults(&self) -> bool {
        !self.overrides.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_is_implicit() {
        let t = Topology::complete(1000);
        assert!(t.is_complete());
        assert_eq!(t.degree(NodeId(7)), 999);
        assert_eq!(t.neighbor(NodeId(3), 2), NodeId(2));
        assert_eq!(t.neighbor(NodeId(3), 3), NodeId(4));
        assert!(t.contains_edge(NodeId(0), NodeId(999)));
        assert!(t.neighbors(NodeId(0)).is_none());
    }

    #[test]
    fn ring_has_degree_two() {
        let t = Topology::ring(6);
        for v in 0..6 {
            assert_eq!(t.degree(NodeId(v)), 2, "node {v}");
        }
        assert_eq!(t.neighbors(NodeId(0)).unwrap(), &[1, 5]);
        assert!(t.contains_edge(NodeId(5), NodeId(0)));
        assert!(!t.contains_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn tiny_ring_dedups_parallel_edges() {
        // n = 2: prev and next coincide; the edge must appear once.
        let t = Topology::ring(2);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.neighbors(NodeId(1)).unwrap(), &[0]);
    }

    #[test]
    fn grid_corner_and_interior_degrees() {
        let t = Topology::grid(3, 4);
        assert_eq!(t.n(), 12);
        assert_eq!(t.degree(NodeId(0)), 2); // corner
        assert_eq!(t.degree(NodeId(1)), 3); // edge
        assert_eq!(t.degree(NodeId(5)), 4); // interior
        assert!(t.contains_edge(NodeId(0), NodeId(4)));
        assert!(!t.contains_edge(NodeId(3), NodeId(4))); // row wrap absent
    }

    #[test]
    fn random_regular_is_simple_and_regular() {
        for &(n, d, seed) in &[(16usize, 3usize, 1u64), (50, 4, 2), (101, 6, 3)] {
            let t = Topology::random_regular(n, d, seed);
            for v in 0..n {
                assert_eq!(t.degree(NodeId(v)), d, "n={n} d={d} node {v}");
                let nbrs = t.neighbors(NodeId(v)).unwrap();
                for w in nbrs.windows(2) {
                    assert!(w[0] < w[1], "duplicate or unsorted neighbor");
                }
                assert!(!nbrs.contains(&(v as u32)), "self-loop at {v}");
                // Symmetry.
                for &u in nbrs {
                    assert!(t.contains_edge(NodeId(u as usize), NodeId(v)));
                }
            }
        }
    }

    #[test]
    fn random_regular_is_deterministic() {
        let a = Topology::random_regular(40, 4, 9);
        let b = Topology::random_regular(40, 4, 9);
        for v in 0..40 {
            assert_eq!(a.neighbors(NodeId(v)), b.neighbors(NodeId(v)));
        }
    }

    #[test]
    fn small_world_preserves_edge_count() {
        let n = 60;
        let k = 4;
        for beta in [0.0, 0.3, 1.0] {
            let t = Topology::small_world(n, k, beta, 5);
            let total: usize = (0..n).map(|v| t.degree(NodeId(v))).sum();
            assert_eq!(total, n * k, "beta={beta}");
        }
        // beta = 0 is the pristine lattice.
        let lattice = Topology::small_world(n, k, 0.0, 5);
        assert_eq!(lattice.neighbors(NodeId(0)).unwrap(), &[1, 2, 58, 59]);
    }

    #[test]
    fn link_fault_overrides_are_point_lookups() {
        let bad = LinkFaults {
            drop_prob: 1.0,
            dup_prob: 0.0,
            max_delay: 0,
        };
        let t = Topology::complete(4)
            .with_link_faults(NodeId(0), NodeId(1), bad)
            .with_link_faults(NodeId(2), NodeId(3), LinkFaults::RELIABLE);
        assert!(t.has_link_faults());
        assert_eq!(t.link_faults(NodeId(0), NodeId(1)), Some(&bad));
        assert_eq!(t.link_faults(NodeId(1), NodeId(0)), None);
        assert!(t.link_faults(NodeId(2), NodeId(3)).unwrap().is_reliable());
    }

    #[test]
    fn loopback_is_always_an_edge() {
        assert!(Topology::ring(4).contains_edge(NodeId(2), NodeId(2)));
        assert!(Topology::complete(4).contains_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_rejects_odd_stub_count() {
        Topology::random_regular(5, 3, 0);
    }
}
