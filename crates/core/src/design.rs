//! The pooling-design layer: the bipartite multigraph between agents and
//! queries, and the pluggable schemes that sample it.
//!
//! Following the paper's model section, every query draws `Γ` agents
//! uniformly at random *with replacement* from the population, so an agent
//! can be wired to the same query multiple times (multi-edges). The
//! multigraph is stored query-major as run-length-encoded multisets, which
//! is what both the decoder (scatter query results to distinct members) and
//! the AMP baseline (biadjacency matrix) consume.
//!
//! The paper runs every experiment on that one i.i.d. design, but the
//! follow-up literature shows the design matrix is the main lever for
//! approximate recovery — doubly regular schemes (Hahn-Klimroth, Kaaser &
//! Rau 2023) and sparse constant-column constructions recover with fewer
//! queries at the same noise. This module therefore exposes the design as a
//! plug point:
//!
//! * [`DesignSpec`] — the one name of every design: a copyable,
//!   serializable enum carried by configuration types such as
//!   [`crate::Instance`] and the experiment harness's scenario registry.
//!   Its variants are the paper's i.i.d. multigraph, uniform `Γ`-subsets,
//!   the rotating balanced deck, the exactly doubly regular configuration
//!   model, the sparse constant-column design and the spatially-coupled
//!   band design.
//! * [`PoolingDesign`] — the trait [`DesignSpec`] implements: sample a
//!   [`PoolingGraph`] from `(n, m, Γ, rng)` plus metadata (name,
//!   agent/query regularity, expected slot profile). Its `sample` is the
//!   only sampling path; [`PoolingGraph::sample`] names the paper's design
//!   and calls it with [`DesignSpec::Iid`].

use crate::model::{GroundTruth, InstanceError};
use crate::noise::NoiseModel;
use npd_numerics::CsrMatrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
// xtask:allow(hash-iteration): used only as a multiplicity counter probed by key (see DesignSpec::sample_doubly_regular); never iterated
use std::collections::HashMap;
use std::fmt;

/// One query's multiset of agents, run-length encoded and sorted by agent
/// id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryMultiset {
    /// Distinct agent ids, ascending.
    agents: Vec<u32>,
    /// Multiplicities, parallel to `agents`.
    counts: Vec<u32>,
    /// Total number of slots (`Σ counts = Γ`).
    total: u32,
}

impl QueryMultiset {
    /// Builds from raw slot samples (unsorted, with repetitions).
    pub fn from_slots(mut slots: Vec<u32>) -> Self {
        slots.sort_unstable();
        let mut agents = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for &s in &slots {
            match counts.last_mut() {
                Some(c) if agents.last() == Some(&s) => *c += 1,
                _ => {
                    agents.push(s);
                    counts.push(1);
                }
            }
        }
        let total = slots.len() as u32;
        Self {
            agents,
            counts,
            total,
        }
    }

    /// Distinct agents in this query (`∂*a`), ascending.
    pub fn distinct_agents(&self) -> &[u32] {
        &self.agents
    }

    /// Number of distinct agents (`|∂*a|`).
    pub fn distinct_len(&self) -> usize {
        self.agents.len()
    }

    /// Total slots including multiplicities (`|∂a| = Γ`).
    pub fn total_slots(&self) -> u32 {
        self.total
    }

    /// Iterates `(agent, multiplicity)` pairs in ascending agent order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.agents.iter().copied().zip(self.counts.iter().copied())
    }

    /// Multiplicity of `agent` in this query (0 if absent).
    pub fn multiplicity(&self, agent: u32) -> u32 {
        match self.agents.binary_search(&agent) {
            Ok(i) => self.counts[i],
            Err(_) => 0,
        }
    }

    /// Number of slots that land on one-agents under `truth` — the exact
    /// noiseless measurement of this query.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range for `truth`.
    pub fn one_slots(&self, truth: &GroundTruth) -> u64 {
        self.iter()
            .filter(|&(a, _)| truth.is_one(a as usize))
            .map(|(_, c)| c as u64)
            .sum()
    }
}

/// The bipartite pooling multigraph: `n` agents, `m` queries of `Γ` slots
/// each.
///
/// # Examples
///
/// ```
/// use npd_core::PoolingGraph;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let graph = PoolingGraph::sample(100, 20, 50, &mut rng);
/// assert_eq!(graph.query_count(), 20);
/// assert_eq!(graph.query(0).total_slots(), 50);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolingGraph {
    n: usize,
    gamma: usize,
    queries: Vec<QueryMultiset>,
}

impl PoolingGraph {
    /// Samples the paper's design: `m` queries, each `Γ = gamma` slots
    /// drawn uniformly with replacement. It calls
    /// `DesignSpec::Iid.sample(n, m, gamma, rng)`; the other designs are
    /// sampled through their own [`DesignSpec`] variant.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `gamma == 0`, or `n > u32::MAX`.
    pub fn sample<R: Rng + ?Sized>(n: usize, m: usize, gamma: usize, rng: &mut R) -> Self {
        DesignSpec::Iid.sample(n, m, gamma, rng)
    }

    /// Builds a graph from explicit slot lists (one per query).
    ///
    /// All queries must have the same number of slots; this mirrors the
    /// paper's fixed-`Γ` design.
    ///
    /// # Panics
    ///
    /// Panics if a slot references an agent `>= n` or query sizes differ.
    pub fn from_slot_lists(n: usize, slot_lists: Vec<Vec<u32>>) -> Self {
        let gamma = slot_lists.first().map_or(0, Vec::len);
        for (j, slots) in slot_lists.iter().enumerate() {
            assert_eq!(
                slots.len(),
                gamma,
                "PoolingGraph::from_slot_lists: query {j} has {} slots, expected {gamma}",
                slots.len()
            );
            for &s in slots {
                assert!(
                    (s as usize) < n,
                    "PoolingGraph::from_slot_lists: agent {s} out of range for n={n}"
                );
            }
        }
        let queries = slot_lists
            .into_iter()
            .map(QueryMultiset::from_slots)
            .collect();
        Self { n, gamma, queries }
    }

    /// Builds a graph from explicit slot lists whose sizes may differ
    /// (ragged queries), recording `nominal_gamma` as the design's nominal
    /// query size.
    ///
    /// The exactly balanced designs ([`DesignSpec::DoublyRegular`],
    /// [`DesignSpec::SparseColumn`]) trade the paper's fixed `Γ` for degree
    /// regularity, so their pool sizes can differ by one (or more, for the
    /// free-pool sparse design); this constructor is their entry point.
    /// Consumers that need a per-query size must use
    /// [`QueryMultiset::total_slots`]; [`PoolingGraph::gamma`] only reports
    /// the nominal size.
    ///
    /// # Panics
    ///
    /// Panics if a slot references an agent `>= n` or `nominal_gamma == 0`.
    pub fn from_ragged_slot_lists(
        n: usize,
        nominal_gamma: usize,
        slot_lists: Vec<Vec<u32>>,
    ) -> Self {
        assert!(
            nominal_gamma > 0,
            "PoolingGraph::from_ragged_slot_lists: nominal_gamma must be positive"
        );
        for (j, slots) in slot_lists.iter().enumerate() {
            for &s in slots {
                assert!(
                    (s as usize) < n,
                    "PoolingGraph::from_ragged_slot_lists: query {j}: agent {s} out of range \
                     for n={n}"
                );
            }
        }
        let queries = slot_lists
            .into_iter()
            .map(QueryMultiset::from_slots)
            .collect();
        Self {
            n,
            gamma: nominal_gamma,
            queries,
        }
    }

    /// The running example of Figure 1: `n = 7` agents,
    /// `σ = (1,0,1,0,1,0,0)`, five queries of three slots each whose exact
    /// sums are `(2, 3, 1, 1, 1)`.
    ///
    /// The figure does not list the edges explicitly; this instance is a
    /// minimal multigraph consistent with the printed query results (query 1
    /// contains agent 2 twice, producing the multi-edge the caption points
    /// out).
    pub fn figure1_example() -> (Self, GroundTruth) {
        let truth = GroundTruth::from_bits(vec![true, false, true, false, true, false, false]);
        let graph = Self::from_slot_lists(
            7,
            vec![
                vec![0, 1, 2], // σ₀+σ₁+σ₂ = 2
                vec![0, 2, 2], // multi-edge on agent 2: 1+1+1 = 3
                vec![2, 3, 5], // 1
                vec![3, 4, 6], // 1
                vec![4, 5, 6], // 1
            ],
        );
        (graph, truth)
    }

    /// Population size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nominal slots per query `Γ`.
    ///
    /// Exact for the query-regular designs (every query has exactly `Γ`
    /// slots); for ragged designs built through
    /// [`from_ragged_slot_lists`](Self::from_ragged_slot_lists) this is the
    /// design's target size and [`mean_query_slots`](Self::mean_query_slots)
    /// gives the realized average.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// Mean realized slots per query (`Σⱼ |∂aⱼ| / m`).
    ///
    /// Equals [`gamma`](Self::gamma) exactly for query-regular designs;
    /// moment-based estimators use this so they stay exact on ragged
    /// designs. Returns the nominal `Γ` for an empty graph.
    pub fn mean_query_slots(&self) -> f64 {
        if self.queries.is_empty() {
            return self.gamma as f64;
        }
        let total: u64 = self.queries.iter().map(|q| q.total_slots() as u64).sum();
        total as f64 / self.queries.len() as f64
    }

    /// Number of queries `m`.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The `j`-th query.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn query(&self, j: usize) -> &QueryMultiset {
        &self.queries[j]
    }

    /// Iterates all queries in id order.
    pub fn queries(&self) -> &[QueryMultiset] {
        &self.queries
    }

    /// Draws the (noisy) measurement vector `σ̂` for the given ground truth.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        truth: &GroundTruth,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Vec<f64> {
        assert_eq!(
            truth.n(),
            self.n,
            "PoolingGraph::measure: ground truth size mismatch"
        );
        self.queries
            .iter()
            .map(|q| {
                let ones = q.one_slots(truth);
                let zeros = q.total_slots() as u64 - ones;
                noise.measure(ones, zeros, rng)
            })
            .collect()
    }

    /// Multi-degrees `Δᵢ` (slots per agent, counting multiplicity).
    pub fn multi_degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.n];
        for q in &self.queries {
            for (a, c) in q.iter() {
                deg[a as usize] += c as u64;
            }
        }
        deg
    }

    /// Distinct degrees `Δ*ᵢ` (number of distinct queries containing each
    /// agent).
    pub fn distinct_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n];
        for q in &self.queries {
            for &a in q.distinct_agents() {
                deg[a as usize] += 1;
            }
        }
        deg
    }

    /// The `m × n` biadjacency matrix with multiplicities as entries (the
    /// `A` consumed by AMP).
    pub fn to_csr(&self) -> CsrMatrix {
        // Queries are run-length encoded with ascending agent ids — exactly
        // CSR row form — so build directly instead of going through the
        // triplet bucket sort (an order of magnitude cheaper at paper
        // scale, where this conversion is AMP's per-run preprocessing).
        CsrMatrix::from_sorted_rows(
            self.query_count(),
            self.n,
            self.queries
                .iter()
                .map(|q| q.iter().map(|(a, c)| (a, c as f64))),
        )
    }
}

/// Structural metadata of a pooling design at a concrete `(n, m, Γ)`
/// operating point (see [`PoolingDesign::profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignProfile {
    /// Whether every agent receives *exactly* the same number of slots.
    pub agent_regular: bool,
    /// Whether every query has *exactly* `Γ` slots.
    pub query_regular: bool,
    /// Expected slots per agent (`Δᵢ`); exact for agent-regular designs.
    pub expected_agent_slots: f64,
    /// Expected slots per query; exact for query-regular designs.
    pub expected_query_slots: f64,
}

/// A scheme for sampling the bipartite pooling multigraph.
///
/// This is the extension point the experiment harness plugs workloads into:
/// a design maps `(n, m, Γ, rng)` to a [`PoolingGraph`] and describes its
/// own structure (name, regularity, expected slot profile). [`DesignSpec`]
/// is its one implementation, so a design catalog is a slice of
/// [`DesignSpec`]s. `sample` is generic over the RNG, so every slot draw
/// is monomorphized rather than sent through a trait object.
///
/// # Examples
///
/// ```
/// use npd_core::{DesignSpec, PoolingDesign};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// for design in [DesignSpec::Iid, DesignSpec::DoublyRegular] {
///     let graph = design.sample(100, 40, 20, &mut rng);
///     assert_eq!(graph.query_count(), 40);
///     // The profile's expected per-agent slot count matches the graph.
///     let profile = design.profile(100, 40, 20);
///     let total: u64 = graph.multi_degrees().iter().sum();
///     assert!((total as f64 / 100.0 - profile.expected_agent_slots).abs() < 2.0);
/// }
/// ```
pub trait PoolingDesign {
    /// Short stable identifier (`"iid"`, `"doubly-regular"`, …) used in
    /// reports and the scenario registry.
    fn name(&self) -> &'static str;

    /// Structural metadata at the `(n, m, gamma)` operating point.
    fn profile(&self, n: usize, m: usize, gamma: usize) -> DesignProfile;

    /// Samples the pooling graph: `m` queries over `n` agents with nominal
    /// query size `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `gamma == 0`, or `n > u32::MAX` (designs may add
    /// scheme-specific constraints, documented on each variant).
    fn sample<R: Rng + ?Sized>(
        &self,
        n: usize,
        m: usize,
        gamma: usize,
        rng: &mut R,
    ) -> PoolingGraph;
}

/// Exact agent degree targeted by the agent-regular designs: `m·Γ/n`
/// rounded to the nearest integer, floored at one slot per agent.
fn regular_agent_degree(n: usize, m: usize, gamma: usize) -> usize {
    (((m * gamma) as f64 / n as f64).round() as usize).max(1)
}

/// Band geometry shared by the batch sampler and the incremental
/// simulation: band `b` of `L` covers `[b·n/L, b·n/L + width)` mod `n`.
pub(crate) fn band_window(n: usize, bands: usize, band: usize) -> (usize, usize) {
    let l = bands.clamp(1, n);
    let start = (band % l) * n / l;
    let width = (2 * n).div_ceil(l).min(n);
    (start, width)
}

/// The name of a pooling design.
///
/// Configuration types ([`crate::Instance`], [`crate::CategoricalInstance`],
/// [`crate::IncrementalSim`], the experiment harness's sweep cells and
/// scenario registry) carry a `DesignSpec`, and its [`PoolingDesign`] impl
/// samples it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DesignSpec {
    /// The paper's design: every slot i.i.d. uniform, multi-edges allowed.
    ///
    /// Query-regular (exactly `Γ` slots per query) but only
    /// *concentration*-regular on the agent side: Lemma 3 of the paper
    /// bounds the degree spread by `ln n·√Δ`.
    #[default]
    Iid,
    /// Uniform `Γ`-subset queries: every slot is a distinct agent, so a
    /// query touches `Γ` distinct agents instead of `≈ γn`. This is the
    /// classic alternative from the group-testing literature; the ablation
    /// study (`repro ablations`) quantifies the resulting query savings.
    /// Requires `Γ ≤ n`.
    GammaSubset,
    /// Doubly-balanced allocation: slots are dealt from a rotating
    /// random-permutation deck that is reshuffled whenever it runs out, so
    /// after `m` queries every agent has degree `⌊mΓ/n⌋` or `⌈mΓ/n⌉` while
    /// every query still has exactly `Γ` slots — the *anytime*
    /// doubly-balanced scheme, degrees within ±1 at every query prefix (the
    /// constant-column-weight idea of the group-testing literature).
    ///
    /// Degree regularity is a double-edged sword here: dealing couples
    /// queries *within* a deck pass. At sparse query sizes (`Γ ≲ n/8`) the
    /// coupling is mild and the design measurably beats the paper's
    /// independent sampling under noise, but at the paper's dense `Γ = n/2`
    /// each pass deals two exactly complementary queries whose results are
    /// perfectly anti-correlated, inflating the score fluctuations of the
    /// maximum-neighborhood rule — `repro designs` quantifies both regimes.
    BalancedDeck,
    /// Exactly doubly regular design: every agent gets *exactly*
    /// `d = round(mΓ/n)` slots and pool sizes are balanced to within one
    /// slot, via a configuration-model pairing with switch repair (the
    /// doubly regular pooling schemes of Hahn-Klimroth, Kaaser & Rau 2023,
    /// arXiv:2303.00043).
    ///
    /// Construction: lay out `n·d` stubs (agent `i` repeated `d` times),
    /// shuffle them, and deal contiguous runs into the `m` pools — sizes
    /// `⌊nd/m⌋` or `⌈nd/m⌉`. A dealt pool can contain an agent twice;
    /// switch repair then exchanges each duplicate slot with a uniformly
    /// chosen slot of another pool whenever the exchange removes the
    /// duplicate without creating new ones (the same repair style as
    /// `npd_netsim::Topology::random_regular`). Switches preserve both
    /// agent degrees and pool sizes, so regularity is exact regardless of
    /// how many repairs run; in the (never observed at feasible densities)
    /// event that the attempt budget is exhausted a residual multi-edge is
    /// tolerated.
    ///
    /// Note the realized total `n·d` differs from the i.i.d. design's `m·Γ`
    /// by at most `n/2` slots (the rounding of `d`), so pool sizes sit
    /// within one of `nd/m ≈ Γ`.
    DoublyRegular,
    /// Sparse constant-column design: every agent joins *exactly*
    /// `d = round(mΓ/n)` distinct pools chosen uniformly at random, with no
    /// constraint on pool sizes.
    ///
    /// This is the classic (near-)constant tests-per-item design of the
    /// group testing literature, intended for the sparse regime `θ < 1/2`
    /// where the informative query size is far below the paper's `Γ = n/2`
    /// (see the sparse-regime constructions of arXiv:2312.14588). Pool
    /// sizes are sums of independent Bernoulli(`d/m`) indicators —
    /// multinomial-tight around `nd/m ≈ Γ` but not balanced.
    SparseColumn,
    /// Spatially-coupled (banded) design: queries cycle through `L` bands
    /// laid out along the agent axis, each drawing its `Γ` slots i.i.d.
    /// from a window of width `≈ 2n/L` starting at the band's offset
    /// (wrapping at `n`).
    ///
    /// Consecutive bands overlap by half a window, so information "couples"
    /// across the agent axis the way spatially-coupled sensing matrices do
    /// in compressed sensing; the resulting biadjacency matrix is
    /// block-banded after sorting queries by band, giving each query node
    /// locality (it only ever contacts a window of agents). With
    /// `bands == 1` the window is the whole population and the design
    /// degenerates to [`DesignSpec::Iid`].
    ///
    /// **Decoding caveat (measured, not hypothetical):** banding
    /// deliberately breaks the exchangeability that both the greedy rule's
    /// centering (Lemma 7 averages over a *uniform* second neighborhood)
    /// and vanilla AMP's i.i.d.-matrix assumption rest on. Conditional on
    /// the truth, a zero-agent whose windows are locally rich in one-agents
    /// out-scores an isolated one-agent *in expectation*, so exact recovery
    /// by any global top-`k` score rule fails persistently at strong
    /// coupling; recovery degrades gracefully as `L` shrinks. The scenario
    /// registry measures the surviving *overlap* instead of exact recovery
    /// for this design, and a block-aware SC-AMP (per-band state evolution)
    /// is the intended future consumer of the structure.
    SpatiallyCoupled {
        /// Number of bands `L` (clamped into `[1, n]` at sampling time).
        bands: usize,
    },
}

impl DesignSpec {
    /// The spatially-coupled spec the experiment harness uses: `L = 4`
    /// bands, i.e. windows of `n/2` with half-window overlap — strong
    /// enough banding to expose the structure, weak enough that global
    /// decoders retain most of their overlap.
    pub fn spatially_coupled() -> Self {
        DesignSpec::SpatiallyCoupled { bands: 4 }
    }

    /// Parses the stable [`name`](PoolingDesign::name) form (`"iid"`,
    /// `"doubly-regular"`, …) back into a spec; parametrized designs get
    /// their defaults (`"spatially-coupled"` →
    /// [`DesignSpec::spatially_coupled`]). Note this is the `name()` form,
    /// not the parametrized `Display` form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "iid" => Some(DesignSpec::Iid),
            "gamma-subset" => Some(DesignSpec::GammaSubset),
            "balanced-deck" => Some(DesignSpec::BalancedDeck),
            "doubly-regular" => Some(DesignSpec::DoublyRegular),
            "sparse-column" => Some(DesignSpec::SparseColumn),
            "spatially-coupled" => Some(DesignSpec::spatially_coupled()),
            _ => None,
        }
    }

    /// Checks the constraint this design puts on `(n, Γ)`: a `Γ`-subset
    /// query draws `Γ` distinct agents, so it needs `Γ ≤ n`.
    pub(crate) fn check(&self, n: usize, gamma: usize) -> Result<(), InstanceError> {
        if *self == DesignSpec::GammaSubset && gamma > n {
            return Err(InstanceError::QueryLargerThanPopulation { gamma, n });
        }
        Ok(())
    }

    /// The paper's i.i.d. sampler: `m` queries of `gamma` uniform slots
    /// each, drawn with replacement.
    fn sample_iid<R: Rng + ?Sized>(n: usize, m: usize, gamma: usize, rng: &mut R) -> PoolingGraph {
        let queries = (0..m)
            .map(|_| {
                let slots: Vec<u32> = (0..gamma).map(|_| rng.gen_range(0..n as u32)).collect();
                QueryMultiset::from_slots(slots)
            })
            .collect();
        PoolingGraph { n, gamma, queries }
    }

    /// Uniform `Γ`-subset queries via a reusable partial Fisher–Yates:
    /// after each query the array is still a permutation, so the next draw
    /// stays uniform.
    fn sample_subsets<R: Rng + ?Sized>(
        n: usize,
        m: usize,
        gamma: usize,
        rng: &mut R,
    ) -> PoolingGraph {
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let queries = (0..m)
            .map(|_| {
                for i in 0..gamma {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                QueryMultiset::from_slots(idx[..gamma].to_vec())
            })
            .collect();
        PoolingGraph { n, gamma, queries }
    }

    /// Rotating-deck queries: deal `Γ` slots per query, reshuffling the
    /// full permutation whenever it runs out, so agent degrees stay within
    /// one of each other at every prefix of the query sequence.
    fn sample_deck<R: Rng + ?Sized>(n: usize, m: usize, gamma: usize, rng: &mut R) -> PoolingGraph {
        let mut deck: Vec<u32> = (0..n as u32).collect();
        let mut pos = n; // empty deck forces the initial shuffle
        let queries = (0..m)
            .map(|_| {
                let mut slots = Vec::with_capacity(gamma);
                for _ in 0..gamma {
                    if pos == n {
                        for i in (1..n).rev() {
                            let j = rng.gen_range(0..=i);
                            deck.swap(i, j);
                        }
                        pos = 0;
                    }
                    slots.push(deck[pos]);
                    pos += 1;
                }
                QueryMultiset::from_slots(slots)
            })
            .collect();
        PoolingGraph { n, gamma, queries }
    }

    /// The configuration model with switch repair of
    /// [`DesignSpec::DoublyRegular`].
    fn sample_doubly_regular<R: Rng + ?Sized>(
        n: usize,
        m: usize,
        gamma: usize,
        rng: &mut R,
    ) -> PoolingGraph {
        if m == 0 {
            return PoolingGraph::from_ragged_slot_lists(n, gamma, Vec::new());
        }
        let d = regular_agent_degree(n, m, gamma);
        let total = n * d;

        // Configuration model: one stub per (agent, slot), shuffled.
        let mut stubs: Vec<u32> = (0..n as u32)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        for i in (1..total).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }

        // Deal contiguous runs into m pools of size ⌊total/m⌋ or ⌈total/m⌉.
        let base = total / m;
        let extra = total % m;
        let mut pools: Vec<Vec<u32>> = Vec::with_capacity(m);
        let mut offset = 0usize;
        for j in 0..m {
            let size = base + usize::from(j < extra);
            pools.push(stubs[offset..offset + size].to_vec());
            offset += size;
        }

        // Switch repair: find within-pool duplicates and exchange them with
        // slots of other pools. Counts track per-pool multiplicities so a
        // proposed switch can be vetoed in O(1).
        //
        // Iteration-order invariant: these maps are only ever *probed* by
        // key (`contains_key` / indexing / `get_mut`); every loop below
        // walks `pools`, never a map, so the per-process hash seed cannot
        // reach the sampled graph. Keep it that way.
        // xtask:allow(hash-iteration): multiplicity counter probed by key; loops iterate `pools`, never the map
        let mut counts: Vec<HashMap<u32, u32>> = pools
            .iter()
            .map(|pool| {
                // xtask:allow(hash-iteration): same membership-only counter as `counts` above
                let mut map = HashMap::with_capacity(pool.len());
                for &a in pool {
                    *map.entry(a).or_insert(0) += 1;
                }
                map
            })
            .collect();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for (p, pool) in pools.iter().enumerate() {
            let map = &counts[p];
            // xtask:allow(hash-iteration): duplicate detector; entries are probed per pool element in pool order, the map itself is never walked
            let mut seen: HashMap<u32, u32> = HashMap::new();
            for (idx, &a) in pool.iter().enumerate() {
                let c = seen.entry(a).or_insert(0);
                *c += 1;
                // Every occurrence beyond the first is a repair candidate.
                if *c > 1 {
                    debug_assert!(map[&a] >= *c);
                    dups.push((p, idx));
                }
            }
        }
        let mut attempts = 0usize;
        let budget = 200 * dups.len() + 10_000;
        'repair: while let Some((p, idx)) = dups.pop() {
            let a = pools[p][idx];
            if counts[p][&a] <= 1 {
                continue; // an earlier switch already fixed this pool
            }
            loop {
                attempts += 1;
                if attempts > budget {
                    break 'repair; // tolerate the residual multi-edge
                }
                let q = rng.gen_range(0..m);
                if q == p || pools[q].is_empty() {
                    continue;
                }
                let s = rng.gen_range(0..pools[q].len());
                let b = pools[q][s];
                // Accept only switches that strictly remove the duplicate:
                // b must be new to pool p, and a new to pool q.
                if b == a || counts[p].contains_key(&b) || counts[q].contains_key(&a) {
                    continue;
                }
                pools[p][idx] = b;
                pools[q][s] = a;
                #[allow(clippy::expect_used)]
                // xtask:allow(unwrap-audit): `a` was just read out of pools[p], and counts[p] mirrors pools[p] exactly
                let count_a = counts[p].get_mut(&a).expect("a present in pool p");
                *count_a -= 1;
                if counts[p][&a] == 0 {
                    counts[p].remove(&a);
                }
                counts[p].insert(b, 1);
                #[allow(clippy::expect_used)]
                // xtask:allow(unwrap-audit): `b` was just read out of pools[q], and counts[q] mirrors pools[q] exactly
                let count_b = counts[q].get_mut(&b).expect("b present in pool q");
                *count_b -= 1;
                if counts[q][&b] == 0 {
                    counts[q].remove(&b);
                }
                counts[q].insert(a, 1);
                break;
            }
        }
        PoolingGraph::from_ragged_slot_lists(n, gamma, pools)
    }

    /// Uniform `d`-subsets of pools per agent for
    /// [`DesignSpec::SparseColumn`].
    fn sample_sparse_column<R: Rng + ?Sized>(
        n: usize,
        m: usize,
        gamma: usize,
        rng: &mut R,
    ) -> PoolingGraph {
        if m == 0 {
            return PoolingGraph::from_ragged_slot_lists(n, gamma, Vec::new());
        }
        // Column weight: the agent-regular degree, capped at m since each
        // chosen pool is distinct.
        let d = regular_agent_degree(n, m, gamma).min(m);
        let mut pools: Vec<Vec<u32>> = vec![Vec::new(); m];
        // Reusable partial Fisher–Yates over pool ids (uniform d-subset per
        // agent, exactly like the Γ-subset query sampler transposed).
        let mut idx: Vec<u32> = (0..m as u32).collect();
        for agent in 0..n as u32 {
            for i in 0..d {
                let j = rng.gen_range(i..m);
                idx.swap(i, j);
                pools[idx[i] as usize].push(agent);
            }
        }
        PoolingGraph::from_ragged_slot_lists(n, gamma, pools)
    }

    /// Band-cycling windowed draws for [`DesignSpec::SpatiallyCoupled`].
    fn sample_banded<R: Rng + ?Sized>(
        n: usize,
        m: usize,
        gamma: usize,
        bands: usize,
        rng: &mut R,
    ) -> PoolingGraph {
        let pools: Vec<Vec<u32>> = (0..m)
            .map(|j| {
                let (start, width) = band_window(n, bands, j);
                (0..gamma)
                    .map(|_| ((start + rng.gen_range(0..width)) % n) as u32)
                    .collect()
            })
            .collect();
        PoolingGraph::from_ragged_slot_lists(n, gamma, pools)
    }
}

/// `Display` prints the stable [`PoolingDesign::name`] (plus parameters
/// where the design has any).
impl fmt::Display for DesignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignSpec::SpatiallyCoupled { bands } => {
                write!(f, "spatially-coupled(L={bands})")
            }
            other => f.write_str(other.name()),
        }
    }
}

impl PoolingDesign for DesignSpec {
    fn name(&self) -> &'static str {
        match self {
            DesignSpec::Iid => "iid",
            DesignSpec::GammaSubset => "gamma-subset",
            DesignSpec::BalancedDeck => "balanced-deck",
            DesignSpec::DoublyRegular => "doubly-regular",
            DesignSpec::SparseColumn => "sparse-column",
            DesignSpec::SpatiallyCoupled { .. } => "spatially-coupled",
        }
    }

    fn profile(&self, n: usize, m: usize, gamma: usize) -> DesignProfile {
        let query_regular = DesignProfile {
            agent_regular: false,
            query_regular: true,
            expected_agent_slots: (m * gamma) as f64 / n as f64,
            expected_query_slots: gamma as f64,
        };
        match *self {
            DesignSpec::Iid | DesignSpec::GammaSubset | DesignSpec::SpatiallyCoupled { .. } => {
                query_regular
            }
            // Deck dealing keeps degrees within ±1 (not exactly equal
            // unless mΓ divides n).
            DesignSpec::BalancedDeck => DesignProfile {
                agent_regular: (m * gamma).is_multiple_of(n),
                ..query_regular
            },
            DesignSpec::DoublyRegular => {
                let d = regular_agent_degree(n, m, gamma);
                DesignProfile {
                    agent_regular: true,
                    query_regular: (n * d).is_multiple_of(m.max(1)),
                    expected_agent_slots: d as f64,
                    expected_query_slots: (n * d) as f64 / m.max(1) as f64,
                }
            }
            DesignSpec::SparseColumn => {
                let d = regular_agent_degree(n, m, gamma).min(m.max(1));
                DesignProfile {
                    agent_regular: true,
                    query_regular: false,
                    expected_agent_slots: d as f64,
                    expected_query_slots: (n * d) as f64 / m.max(1) as f64,
                }
            }
        }
    }

    /// # Panics
    ///
    /// Panics if `n == 0`, `gamma == 0`, `n > u32::MAX`, or (for
    /// [`DesignSpec::GammaSubset`]) `gamma > n`.
    fn sample<R: Rng + ?Sized>(
        &self,
        n: usize,
        m: usize,
        gamma: usize,
        rng: &mut R,
    ) -> PoolingGraph {
        assert!(n > 0, "DesignSpec::sample: n must be positive");
        assert!(gamma > 0, "DesignSpec::sample: gamma must be positive");
        assert!(n <= u32::MAX as usize, "DesignSpec::sample: n too large");
        match *self {
            DesignSpec::Iid => Self::sample_iid(n, m, gamma, rng),
            DesignSpec::GammaSubset => {
                assert!(
                    self.check(n, gamma).is_ok(),
                    "DesignSpec::sample: gamma={gamma} exceeds n={n} without replacement"
                );
                Self::sample_subsets(n, m, gamma, rng)
            }
            DesignSpec::BalancedDeck => Self::sample_deck(n, m, gamma, rng),
            DesignSpec::DoublyRegular => Self::sample_doubly_regular(n, m, gamma, rng),
            DesignSpec::SparseColumn => Self::sample_sparse_column(n, m, gamma, rng),
            DesignSpec::SpatiallyCoupled { bands } => Self::sample_banded(n, m, gamma, bands, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn multiset_run_length_encoding() {
        let q = QueryMultiset::from_slots(vec![3, 1, 3, 3, 0]);
        assert_eq!(q.distinct_agents(), &[0, 1, 3]);
        assert_eq!(q.multiplicity(3), 3);
        assert_eq!(q.multiplicity(2), 0);
        assert_eq!(q.total_slots(), 5);
        assert_eq!(q.distinct_len(), 3);
        let pairs: Vec<_> = q.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (1, 1), (3, 3)]);
    }

    #[test]
    fn multiset_empty() {
        let q = QueryMultiset::from_slots(vec![]);
        assert_eq!(q.total_slots(), 0);
        assert_eq!(q.distinct_len(), 0);
    }

    #[test]
    fn one_slots_counts_multiplicity() {
        let truth = GroundTruth::from_bits(vec![true, false, true]);
        let q = QueryMultiset::from_slots(vec![0, 0, 1, 2]);
        assert_eq!(q.one_slots(&truth), 3); // agent 0 twice + agent 2 once
    }

    #[test]
    fn sample_has_exact_slot_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = PoolingGraph::sample(40, 10, 20, &mut rng);
        assert_eq!(g.n(), 40);
        assert_eq!(g.gamma(), 20);
        for q in g.queries() {
            assert_eq!(q.total_slots(), 20);
            assert!(q.distinct_agents().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn balanced_design_equalizes_degrees() {
        let mut rng = StdRng::seed_from_u64(7);
        let (n, m, gamma) = (60, 13, 25);
        let g = DesignSpec::BalancedDeck.sample(n, m, gamma, &mut rng);
        for q in g.queries() {
            assert_eq!(q.total_slots() as usize, gamma);
        }
        let degrees = g.multi_degrees();
        let lo = (m * gamma / n) as u64;
        let hi = lo + u64::from(m * gamma % n != 0);
        for (i, &d) in degrees.iter().enumerate() {
            assert!(
                d == lo || d == hi,
                "agent {i}: degree {d} outside {{{lo}, {hi}}}"
            );
        }
        assert_eq!(degrees.iter().sum::<u64>(), (m * gamma) as u64);
    }

    #[test]
    fn balanced_design_allows_gamma_above_n() {
        // Γ > n simply deals multiple full decks into one query.
        let mut rng = StdRng::seed_from_u64(8);
        let g = DesignSpec::BalancedDeck.sample(10, 3, 25, &mut rng);
        for q in g.queries() {
            assert_eq!(q.total_slots(), 25);
        }
        let degrees = g.multi_degrees();
        // 75 slots over 10 agents: degrees 7 or 8.
        assert!(degrees.iter().all(|&d| d == 7 || d == 8));
    }

    #[test]
    fn balanced_design_duplicates_only_at_deck_boundaries() {
        // Within one deck pass all slots are distinct; a query of Γ ≤ n
        // slots can contain an agent at most twice.
        let mut rng = StdRng::seed_from_u64(9);
        let g = DesignSpec::BalancedDeck.sample(50, 40, 25, &mut rng);
        for q in g.queries() {
            for (_, c) in q.iter() {
                assert!(c <= 2);
            }
        }
    }

    #[test]
    fn sample_total_slots_match_degrees() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = PoolingGraph::sample(30, 8, 15, &mut rng);
        let total: u64 = g.multi_degrees().iter().sum();
        assert_eq!(total, 8 * 15);
        // Distinct degree never exceeds multi degree or m.
        let multi = g.multi_degrees();
        for (i, &d) in g.distinct_degrees().iter().enumerate() {
            assert!(d as u64 <= multi[i]);
            assert!(d <= 8);
        }
    }

    #[test]
    fn degree_concentration_matches_lemma3() {
        // E[Δᵢ] = mΓ/n; with m = 200 queries of Γ = n/2 slots each, Δ ≈ 100.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 500;
        let g = PoolingGraph::sample(n, 200, n / 2, &mut rng);
        let deg = g.multi_degrees();
        let mean = deg.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1e-9); // exact: total slots fixed
        let min = *deg.iter().min().unwrap() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        // Lemma 3 width ln(n)·√Δ ≈ 62 around 100.
        assert!(min > 100.0 - 65.0, "min={min}");
        assert!(max < 100.0 + 65.0, "max={max}");
    }

    #[test]
    fn distinct_degree_tracks_gamma_constant() {
        // Lemma 4/Corollary 5: E[Δ*] = γ·m with γ = 1 − e^{−1/2}.
        let mut rng = StdRng::seed_from_u64(4);
        let (n, m) = (400, 300);
        let g = PoolingGraph::sample(n, m, n / 2, &mut rng);
        let mean = g.distinct_degrees().iter().map(|&d| d as f64).sum::<f64>() / n as f64;
        let want = npd_theory::GAMMA * m as f64;
        assert!(
            (mean - want).abs() / want < 0.02,
            "mean={mean}, want={want}"
        );
    }

    #[test]
    fn measure_noiseless_equals_one_slots() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = PoolingGraph::sample(20, 6, 10, &mut rng);
        let truth = GroundTruth::sample(20, 4, &mut rng);
        let r = g.measure(&truth, &NoiseModel::Noiseless, &mut rng);
        for (j, &v) in r.iter().enumerate() {
            assert_eq!(v, g.query(j).one_slots(&truth) as f64);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn measure_rejects_wrong_truth() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = PoolingGraph::sample(20, 2, 10, &mut rng);
        let truth = GroundTruth::sample(21, 4, &mut rng);
        g.measure(&truth, &NoiseModel::Noiseless, &mut rng);
    }

    #[test]
    fn figure1_example_matches_paper() {
        let (graph, truth) = PoolingGraph::figure1_example();
        assert_eq!(graph.n(), 7);
        assert_eq!(truth.ones(), &[0, 2, 4]);
        let mut rng = StdRng::seed_from_u64(0);
        let results = graph.measure(&truth, &NoiseModel::Noiseless, &mut rng);
        assert_eq!(results, vec![2.0, 3.0, 1.0, 1.0, 1.0]);
        // The deliberate multi-edge: agent 2 twice in query 1.
        assert_eq!(graph.query(1).multiplicity(2), 2);
    }

    #[test]
    fn csr_matches_multiset() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = PoolingGraph::sample(15, 5, 8, &mut rng);
        let a = g.to_csr();
        assert_eq!(a.rows(), 5);
        assert_eq!(a.cols(), 15);
        assert_eq!(a.sum(), (5 * 8) as f64);
        for (j, q) in g.queries().iter().enumerate() {
            for (agent, count) in q.iter() {
                assert_eq!(a.get(j, agent as usize), count as f64);
            }
        }
    }

    #[test]
    fn csr_reproduces_noiseless_measurements() {
        // A·σ must equal the noiseless measurement vector.
        let mut rng = StdRng::seed_from_u64(8);
        let g = PoolingGraph::sample(25, 7, 12, &mut rng);
        let truth = GroundTruth::sample(25, 5, &mut rng);
        let sigma: Vec<f64> = truth
            .bits()
            .iter()
            .map(|&b| if b { 1.0 } else { 0.0 })
            .collect();
        let via_matrix = g.to_csr().matvec(&sigma);
        let via_measure = g.measure(&truth, &NoiseModel::Noiseless, &mut rng);
        assert_eq!(via_matrix, via_measure);
    }

    #[test]
    fn without_replacement_slots_are_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = DesignSpec::GammaSubset.sample(50, 20, 25, &mut rng);
        for q in g.queries() {
            assert_eq!(q.distinct_len(), 25);
            assert!(q.iter().all(|(_, c)| c == 1));
        }
        // Multi-degree equals distinct degree for a simple design.
        let multi = g.multi_degrees();
        for (i, &d) in g.distinct_degrees().iter().enumerate() {
            assert_eq!(multi[i], d as u64);
        }
    }

    #[test]
    fn without_replacement_coverage_is_uniform() {
        // Each agent appears in a query with probability Γ/n exactly.
        let mut rng = StdRng::seed_from_u64(10);
        let (n, m, gamma) = (40usize, 2_000usize, 20usize);
        let g = DesignSpec::GammaSubset.sample(n, m, gamma, &mut rng);
        let expected = m as f64 * gamma as f64 / n as f64;
        for (i, &d) in g.distinct_degrees().iter().enumerate() {
            assert!(
                (d as f64 - expected).abs() < expected * 0.12,
                "agent {i}: {d} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn without_replacement_rejects_oversized_query() {
        let mut rng = StdRng::seed_from_u64(0);
        DesignSpec::GammaSubset.sample(5, 1, 6, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_slot_lists_rejects_bad_agent() {
        PoolingGraph::from_slot_lists(3, vec![vec![0, 3, 1]]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn from_slot_lists_rejects_ragged() {
        PoolingGraph::from_slot_lists(5, vec![vec![0, 1], vec![2]]);
    }

    /// FNV-1a over the full edge structure, used to pin sampler streams.
    fn graph_fingerprint(g: &PoolingGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(g.n() as u64);
        mix(g.query_count() as u64);
        for q in g.queries() {
            mix(u64::from(q.total_slots()));
            for (a, c) in q.iter() {
                mix(u64::from(a));
                mix(u64::from(c));
            }
        }
        h
    }

    #[test]
    fn iid_design_is_bit_identical_to_legacy_sampler() {
        // The paper's sampler is pinned: any change to its RNG call
        // sequence fails here, whichever name it is reached through.
        let g = PoolingGraph::sample(100, 20, 50, &mut StdRng::seed_from_u64(12345));
        assert_eq!(graph_fingerprint(&g), IID_FINGERPRINT);
        let g = DesignSpec::Iid.sample(100, 20, 50, &mut StdRng::seed_from_u64(12345));
        assert_eq!(graph_fingerprint(&g), IID_FINGERPRINT);
    }

    /// Fingerprint of `sample(100, 20, 50, seed=12345)` under the vendored
    /// xoshiro256++ StdRng, recorded when the design layer was introduced.
    const IID_FINGERPRINT: u64 = 0x1642_92EA_577C_AA40;

    #[test]
    fn doubly_regular_is_exactly_regular_and_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, m, gamma) = (120usize, 37usize, 45usize);
        let g = DesignSpec::DoublyRegular.sample(n, m, gamma, &mut rng);
        let d = (m as f64 * gamma as f64 / n as f64).round() as u64;
        for (i, &deg) in g.multi_degrees().iter().enumerate() {
            assert_eq!(deg, d, "agent {i}");
        }
        let sizes: Vec<u32> = g.queries().iter().map(|q| q.total_slots()).collect();
        let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "pool sizes spread {lo}..{hi}");
        // Switch repair converged at this density: all pools are duplicate
        // free.
        for q in g.queries() {
            assert!(q.iter().all(|(_, c)| c == 1));
        }
    }

    #[test]
    fn sparse_column_has_exact_column_weight() {
        let mut rng = StdRng::seed_from_u64(4);
        let (n, m, gamma) = (200usize, 64usize, 25usize);
        let g = DesignSpec::SparseColumn.sample(n, m, gamma, &mut rng);
        let d = ((m * gamma) as f64 / n as f64).round() as u64;
        for (i, &deg) in g.multi_degrees().iter().enumerate() {
            assert_eq!(deg, d, "agent {i}");
        }
        // Pools are simple (each agent at most once per pool).
        for q in g.queries() {
            assert!(q.iter().all(|(_, c)| c == 1));
        }
    }

    #[test]
    fn spatially_coupled_is_query_regular_and_banded() {
        let mut rng = StdRng::seed_from_u64(5);
        let (n, m, gamma, bands) = (160usize, 48usize, 40usize, 8usize);
        let g = DesignSpec::SpatiallyCoupled { bands }.sample(n, m, gamma, &mut rng);
        for (j, q) in g.queries().iter().enumerate() {
            assert_eq!(q.total_slots() as usize, gamma);
            // Every slot lies inside the query's band window.
            let (start, width) = band_window(n, bands, j);
            for &a in q.distinct_agents() {
                let offset = (a as usize + n - start) % n;
                assert!(offset < width, "query {j}: agent {a} outside its band");
            }
        }
        // Overlapping windows cover every agent across one band cycle.
        let covered = g.distinct_degrees().iter().filter(|&&d| d > 0).count();
        assert!(covered > n * 9 / 10, "only {covered}/{n} agents covered");
    }

    #[test]
    fn spatially_coupled_single_band_degenerates_to_iid_support() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = DesignSpec::SpatiallyCoupled { bands: 1 }.sample(50, 10, 25, &mut rng);
        let (start, width) = band_window(50, 1, 0);
        assert_eq!((start, width), (0, 50));
        assert_eq!(g.query_count(), 10);
    }

    #[test]
    fn design_spec_names_parse_and_display() {
        let specs = [
            DesignSpec::Iid,
            DesignSpec::GammaSubset,
            DesignSpec::BalancedDeck,
            DesignSpec::DoublyRegular,
            DesignSpec::SparseColumn,
            DesignSpec::spatially_coupled(),
        ];
        for spec in specs {
            assert_eq!(DesignSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(DesignSpec::parse("bogus"), None);
        assert_eq!(DesignSpec::default(), DesignSpec::Iid);
        assert_eq!(
            DesignSpec::spatially_coupled().to_string(),
            "spatially-coupled(L=4)"
        );
        assert_eq!(DesignSpec::DoublyRegular.to_string(), "doubly-regular");
    }

    #[test]
    fn design_profiles_are_consistent_with_samples() {
        let (n, m, gamma) = (90usize, 30usize, 30usize);
        let designs = [
            DesignSpec::Iid,
            DesignSpec::DoublyRegular,
            DesignSpec::SparseColumn,
            DesignSpec::spatially_coupled(),
        ];
        for (di, design) in designs.iter().enumerate() {
            let profile = design.profile(n, m, gamma);
            let mut rng = StdRng::seed_from_u64(100 + di as u64);
            let g = design.sample(n, m, gamma, &mut rng);
            let degrees = g.multi_degrees();
            if profile.agent_regular {
                let d = degrees[0];
                assert!(
                    degrees.iter().all(|&x| x == d),
                    "{}: profile claims agent regularity",
                    design.name()
                );
                assert_eq!(d as f64, profile.expected_agent_slots, "{}", design.name());
            }
            if profile.query_regular {
                assert!(
                    g.queries()
                        .iter()
                        .all(|q| q.total_slots() as f64 == profile.expected_query_slots),
                    "{}: profile claims query regularity",
                    design.name()
                );
            }
            let mean_deg = degrees.iter().sum::<u64>() as f64 / n as f64;
            assert!(
                (mean_deg - profile.expected_agent_slots).abs() <= 1.0,
                "{}: mean degree {mean_deg} vs profile {}",
                design.name(),
                profile.expected_agent_slots
            );
        }
    }

    #[test]
    fn ragged_constructor_records_nominal_gamma() {
        let g = PoolingGraph::from_ragged_slot_lists(5, 3, vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(g.gamma(), 3);
        assert_eq!(g.query(0).total_slots(), 3);
        assert_eq!(g.query(1).total_slots(), 2);
        assert!((g.mean_query_slots() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ragged_constructor_rejects_bad_agent() {
        PoolingGraph::from_ragged_slot_lists(3, 2, vec![vec![0, 3]]);
    }

    #[test]
    fn mean_query_slots_equals_gamma_on_regular_designs() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = PoolingGraph::sample(40, 12, 17, &mut rng);
        assert_eq!(g.mean_query_slots(), 17.0);
        let empty = PoolingGraph::from_ragged_slot_lists(4, 9, Vec::new());
        assert_eq!(empty.mean_query_slots(), 9.0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Run-length encoding preserves the multiset exactly.
            #[test]
            fn multiset_preserves_slots(slots in proptest::collection::vec(0u32..50, 0..100)) {
                let q = QueryMultiset::from_slots(slots.clone());
                prop_assert_eq!(q.total_slots() as usize, slots.len());
                // Agents strictly ascending, counts match a manual tally.
                prop_assert!(q.distinct_agents().windows(2).all(|w| w[0] < w[1]));
                for (agent, count) in q.iter() {
                    let manual = slots.iter().filter(|&&s| s == agent).count();
                    prop_assert_eq!(count as usize, manual);
                }
            }

            /// Sampled designs have exactly Γ slots per query under both
            /// schemes, and the biadjacency total equals m·Γ.
            #[test]
            fn sampled_design_invariants(
                n in 2usize..60,
                m in 0usize..20,
                seed in 0u64..100,
                without in proptest::bool::ANY,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let gamma = (n / 2).max(1);
                let design = if without {
                    DesignSpec::GammaSubset
                } else {
                    DesignSpec::Iid
                };
                let g = design.sample(n, m, gamma, &mut rng);
                for q in g.queries() {
                    prop_assert_eq!(q.total_slots() as usize, gamma);
                    if without {
                        prop_assert_eq!(q.distinct_len(), gamma);
                    }
                }
                prop_assert_eq!(g.to_csr().sum(), (m * gamma) as f64);
            }

            /// The doubly regular design is *exactly* agent-regular and its
            /// pool sizes are balanced to ±1, for arbitrary (n, m, Γ, seed)
            /// — the acceptance property of the design layer.
            #[test]
            fn doubly_regular_regularity_property(
                n in 2usize..80,
                m in 1usize..40,
                gamma_frac in 1usize..8,
                seed in 0u64..200,
            ) {
                let gamma = (n / gamma_frac).max(1);
                let mut rng = StdRng::seed_from_u64(seed);
                let g = DesignSpec::DoublyRegular.sample(n, m, gamma, &mut rng);
                let d = ((m * gamma) as f64 / n as f64).round().max(1.0) as u64;
                for &deg in &g.multi_degrees() {
                    prop_assert_eq!(deg, d);
                }
                let sizes: Vec<u32> =
                    g.queries().iter().map(|q| q.total_slots()).collect();
                let lo = *sizes.iter().min().expect("m >= 1");
                let hi = *sizes.iter().max().expect("m >= 1");
                prop_assert!(hi - lo <= 1, "pool sizes spread {}..{}", lo, hi);
                prop_assert_eq!(
                    sizes.iter().map(|&s| u64::from(s)).sum::<u64>(),
                    (n as u64) * d
                );
            }

            /// The sparse constant-column design has exact column weight
            /// min(round(mΓ/n), m) with simple pools.
            #[test]
            fn sparse_column_weight_property(
                n in 2usize..80,
                m in 1usize..40,
                gamma_frac in 1usize..8,
                seed in 0u64..200,
            ) {
                let gamma = (n / gamma_frac).max(1);
                let mut rng = StdRng::seed_from_u64(seed);
                let g = DesignSpec::SparseColumn.sample(n, m, gamma, &mut rng);
                let d = (((m * gamma) as f64 / n as f64).round().max(1.0) as u64)
                    .min(m as u64);
                for &deg in &g.multi_degrees() {
                    prop_assert_eq!(deg, d);
                }
                for q in g.queries() {
                    prop_assert!(q.iter().all(|(_, c)| c == 1));
                }
            }

            /// Noiseless measurements are always integers in [0, Γ] and
            /// channel measurements never exceed Γ.
            #[test]
            fn measurement_ranges(
                n in 4usize..40,
                k in 1usize..4,
                seed in 0u64..100,
                p in 0.0f64..0.6,
                q in 0.0f64..0.35,
            ) {
                prop_assume!(p + q < 1.0);
                let mut rng = StdRng::seed_from_u64(seed);
                let k = k.min(n);
                let truth = GroundTruth::sample(n, k, &mut rng);
                let g = PoolingGraph::sample(n, 5, n / 2, &mut rng);
                let gamma = (n / 2) as f64;
                for &r in &g.measure(&truth, &NoiseModel::Noiseless, &mut rng) {
                    prop_assert!(r >= 0.0 && r <= gamma && r.fract() == 0.0);
                }
                for &r in &g.measure(&truth, &NoiseModel::channel(p, q), &mut rng) {
                    prop_assert!(r >= 0.0 && r <= gamma);
                }
            }
        }
    }
}
