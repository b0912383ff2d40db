//! Comparator sorting networks.
//!
//! Step II of the paper's Algorithm 1 has the agents “sort themselves via a
//! sorting network” on their neighborhood scores (the paper cites Batcher's
//! classic construction). A sorting network is an *oblivious* sorting
//! algorithm — the sequence of compare-exchange operations is fixed in
//! advance — which makes it directly executable as a distributed protocol:
//! each layer is one synchronous round in which disjoint pairs of agents
//! exchange values.
//!
//! Provided constructions:
//!
//! * [`SortingNetwork::batcher_odd_even`] — Batcher's odd-even mergesort for
//!   arbitrary `n`, depth `O(log² n)`, size `O(n log² n)`. This is the
//!   network the distributed protocol uses.
//! * [`SortingNetwork::odd_even_transposition`] — the brick-wall network of
//!   depth `n`, used as a baseline in the round-complexity ablation.
//!
//! All constructions are validated in the test suite through the 0–1
//! principle: a comparator network sorts every input iff it sorts every
//! binary input.
//!
//! # Examples
//!
//! ```
//! use npd_sortnet::SortingNetwork;
//!
//! let net = SortingNetwork::batcher_odd_even(6);
//! let mut data = [5, 1, 4, 2, 6, 3];
//! net.apply(&mut data);
//! assert_eq!(data, [1, 2, 3, 4, 5, 6]);
//! assert!(net.depth() <= 6); // ⌈log₂6⌉(⌈log₂6⌉+1)/2 = 6 layers
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use serde::{Deserialize, Serialize};

/// One compare-exchange gate: after application, the minimum of the two
/// wired values sits at [`lo`](Self::lo) and the maximum at
/// [`hi`](Self::hi).
///
/// `lo` and `hi` are *positions*, and `lo > hi` is allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Comparator {
    /// Position receiving the smaller value.
    pub lo: usize,
    /// Position receiving the larger value.
    pub hi: usize,
}

impl Comparator {
    /// Creates a comparator.
    ///
    /// # Panics
    ///
    /// Panics if `lo == hi`.
    pub fn new(lo: usize, hi: usize) -> Self {
        assert_ne!(lo, hi, "Comparator: lo and hi must differ");
        Self { lo, hi }
    }

    /// The two wired positions in ascending position order.
    pub fn positions(&self) -> (usize, usize) {
        (self.lo.min(self.hi), self.lo.max(self.hi))
    }
}

/// A layered comparator network for a fixed input size.
///
/// Comparators within a layer touch disjoint positions, so a layer is one
/// parallel round; [`depth`](Self::depth) is therefore the round complexity
/// of the distributed sort.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortingNetwork {
    size: usize,
    layers: Vec<Vec<Comparator>>,
}

impl SortingNetwork {
    /// Builds a network from an ordered comparator sequence, packing the
    /// gates greedily into the earliest layer where both positions are free.
    ///
    /// Greedy packing preserves the sequential semantics because a gate is
    /// never placed before another gate that shares a wire.
    ///
    /// # Panics
    ///
    /// Panics if a comparator references a position `>= size`.
    pub fn from_comparators(size: usize, comparators: &[Comparator]) -> Self {
        let mut layers: Vec<Vec<Comparator>> = Vec::new();
        // earliest[pos] = first layer index where `pos` is unused.
        let mut earliest = vec![0usize; size];
        for &c in comparators {
            let (a, b) = c.positions();
            assert!(
                b < size,
                "SortingNetwork: comparator ({}, {}) out of range for size {size}",
                c.lo,
                c.hi
            );
            let layer = earliest[a].max(earliest[b]);
            if layer == layers.len() {
                layers.push(Vec::new());
            }
            layers[layer].push(c);
            earliest[a] = layer + 1;
            earliest[b] = layer + 1;
        }
        Self { size, layers }
    }

    /// Batcher's odd-even mergesort for arbitrary `n`.
    ///
    /// Uses the iterative power-of-two construction with out-of-range gates
    /// dropped; dropping is sound because padding the input with `+∞`
    /// sentinels above position `n − 1` makes exactly those gates no-ops.
    ///
    /// For `n ≤ 1` the network is empty.
    pub fn batcher_odd_even(n: usize) -> Self {
        let mut comparators = Vec::new();
        if n >= 2 {
            let n2 = n.next_power_of_two();
            let mut p = 1usize;
            while p < n2 {
                let mut k = p;
                while k >= 1 {
                    let mut j = k % p;
                    while j + k < n2 {
                        let limit = (k).min(n2 - j - k);
                        for i in 0..limit {
                            let a = i + j;
                            let b = i + j + k;
                            if (a / (2 * p)) == (b / (2 * p)) && b < n {
                                comparators.push(Comparator::new(a, b));
                            }
                        }
                        j += 2 * k;
                    }
                    if k == 1 {
                        break;
                    }
                    k /= 2;
                }
                p *= 2;
            }
        }
        Self::from_comparators(n, &comparators)
    }

    /// Odd-even transposition sort (“brick wall”), depth exactly `n` for
    /// `n ≥ 2`.
    ///
    /// Asymptotically worse than Batcher (`O(n)` rounds vs `O(log² n)`) but
    /// each node only ever talks to its two ring neighbors; used as a
    /// baseline in the communication ablation.
    pub fn odd_even_transposition(n: usize) -> Self {
        let mut comparators = Vec::new();
        if n >= 2 {
            for round in 0..n {
                let start = round % 2;
                let mut i = start;
                while i + 1 < n {
                    comparators.push(Comparator::new(i, i + 1));
                    i += 2;
                }
            }
        }
        Self::from_comparators(n, &comparators)
    }

    /// Input size the network is wired for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of parallel layers (distributed round complexity).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of compare-exchange gates.
    pub fn comparator_count(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// The layers, outermost first; gates within a layer touch disjoint
    /// positions.
    pub fn layers(&self) -> &[Vec<Comparator>] {
        &self.layers
    }

    /// Applies the network in place with natural ordering.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.size()`.
    pub fn apply<T: Ord>(&self, data: &mut [T]) {
        self.apply_by(data, |a, b| a.cmp(b));
    }

    /// Applies the network in place with a custom comparison.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.size()`.
    pub fn apply_by<T, F: FnMut(&T, &T) -> std::cmp::Ordering>(&self, data: &mut [T], mut cmp: F) {
        assert_eq!(
            data.len(),
            self.size,
            "SortingNetwork::apply: data length {} does not match network size {}",
            data.len(),
            self.size
        );
        for layer in &self.layers {
            for c in layer {
                if cmp(&data[c.lo], &data[c.hi]) == std::cmp::Ordering::Greater {
                    data.swap(c.lo, c.hi);
                }
            }
        }
    }

    /// Exhaustively checks the 0–1 principle: the network sorts all `2^n`
    /// binary inputs iff it sorts every input.
    ///
    /// # Panics
    ///
    /// Panics if `size > 24` (the check would be intractable).
    pub fn sorts_all_zero_one_inputs(&self) -> bool {
        assert!(
            self.size <= 24,
            "sorts_all_zero_one_inputs: size {} too large for exhaustive check",
            self.size
        );
        let n = self.size;
        for mask in 0u32..(1u32 << n) {
            let mut data: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
            self.apply(&mut data);
            if data.windows(2).any(|w| w[0] > w[1]) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn batcher_sorts_zero_one_small_sizes() {
        for n in 0..=10 {
            let net = SortingNetwork::batcher_odd_even(n);
            assert!(net.sorts_all_zero_one_inputs(), "batcher n={n}");
        }
    }

    #[test]
    fn batcher_sorts_zero_one_medium_sizes() {
        for n in [13, 16, 17] {
            let net = SortingNetwork::batcher_odd_even(n);
            assert!(net.sorts_all_zero_one_inputs(), "batcher n={n}");
        }
    }

    #[test]
    fn transposition_sorts_zero_one() {
        for n in 0..=9 {
            let net = SortingNetwork::odd_even_transposition(n);
            assert!(net.sorts_all_zero_one_inputs(), "transposition n={n}");
        }
    }

    #[test]
    fn batcher_depth_matches_formula_on_powers_of_two() {
        // Depth of odd-even mergesort on n = 2^t is t(t+1)/2.
        for t in 1..=6u32 {
            let n = 1usize << t;
            let net = SortingNetwork::batcher_odd_even(n);
            let want = (t * (t + 1) / 2) as usize;
            assert_eq!(net.depth(), want, "n={n}");
        }
    }

    #[test]
    fn transposition_depth_is_n() {
        // n = 2 compresses to a single layer (its odd round is empty);
        // beyond that the brick wall needs exactly n rounds.
        assert_eq!(SortingNetwork::odd_even_transposition(2).depth(), 1);
        for n in 3..10 {
            assert_eq!(SortingNetwork::odd_even_transposition(n).depth(), n);
        }
    }

    #[test]
    fn layers_are_disjoint() {
        for net in [
            SortingNetwork::batcher_odd_even(19),
            SortingNetwork::odd_even_transposition(11),
        ] {
            for (li, layer) in net.layers().iter().enumerate() {
                let mut seen = std::collections::HashSet::new();
                for c in layer {
                    assert!(seen.insert(c.lo), "layer {li} reuses position {}", c.lo);
                    assert!(seen.insert(c.hi), "layer {li} reuses position {}", c.hi);
                }
            }
        }
    }

    #[test]
    fn apply_sorts_concrete_input() {
        let net = SortingNetwork::batcher_odd_even(8);
        let mut data = [8, 7, 6, 5, 4, 3, 2, 1];
        net.apply(&mut data);
        assert_eq!(data, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn apply_by_sorts_floats_descending() {
        let net = SortingNetwork::batcher_odd_even(5);
        let mut data = [0.5, 2.5, 1.5, -1.0, 0.0];
        net.apply_by(&mut data, |a, b| b.partial_cmp(a).unwrap());
        assert_eq!(data, [2.5, 1.5, 0.5, 0.0, -1.0]);
    }

    #[test]
    fn apply_is_stable_under_equal_keys_by_position() {
        // Sorting networks are not stable in general; this documents that
        // equal keys keep *some* deterministic arrangement — applying twice
        // is idempotent.
        let net = SortingNetwork::batcher_odd_even(6);
        let mut a = [3, 1, 2, 1, 3, 2];
        net.apply(&mut a);
        let mut b = a;
        net.apply(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "does not match network size")]
    fn apply_wrong_length_panics() {
        let net = SortingNetwork::batcher_odd_even(4);
        net.apply(&mut [1, 2, 3]);
    }

    #[test]
    fn empty_and_single_networks() {
        for n in [0usize, 1] {
            let net = SortingNetwork::batcher_odd_even(n);
            assert_eq!(net.comparator_count(), 0);
            assert_eq!(net.depth(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn comparator_rejects_self_loop() {
        Comparator::new(3, 3);
    }

    #[test]
    fn from_comparators_greedy_layering() {
        // (0,1) and (2,3) can share a layer; (1,2) must come after.
        let net = SortingNetwork::from_comparators(
            4,
            &[
                Comparator::new(0, 1),
                Comparator::new(2, 3),
                Comparator::new(1, 2),
            ],
        );
        assert_eq!(net.depth(), 2);
        assert_eq!(net.layers()[0].len(), 2);
        assert_eq!(net.layers()[1].len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_comparators_rejects_out_of_range() {
        SortingNetwork::from_comparators(2, &[Comparator::new(0, 5)]);
    }

    proptest! {
        /// Batcher sorts arbitrary integer inputs (0–1 principle says the
        /// exhaustive binary tests already imply this; this is a belt-and-
        /// braces check on the apply path).
        #[test]
        fn batcher_sorts_random_inputs(mut data in proptest::collection::vec(-1000i32..1000, 0..64)) {
            let net = SortingNetwork::batcher_odd_even(data.len());
            let mut expected = data.clone();
            expected.sort_unstable();
            net.apply(&mut data);
            prop_assert_eq!(data, expected);
        }

        /// Result of applying any of the three networks is a permutation of
        /// the input (comparators only ever swap).
        #[test]
        fn apply_is_permutation(mut data in proptest::collection::vec(0u8..4, 2..32)) {
            let net = SortingNetwork::odd_even_transposition(data.len());
            let mut histogram_before = [0usize; 4];
            for &v in &data { histogram_before[v as usize] += 1; }
            net.apply(&mut data);
            let mut histogram_after = [0usize; 4];
            for &v in &data { histogram_after[v as usize] += 1; }
            prop_assert_eq!(histogram_before, histogram_after);
        }

        /// Depth of the layered representation never exceeds the number of
        /// comparators, and every gate survives layering.
        #[test]
        fn layering_preserves_gates(n in 2usize..40) {
            let net = SortingNetwork::batcher_odd_even(n);
            let total: usize = net.layers().iter().map(Vec::len).sum();
            prop_assert_eq!(total, net.comparator_count());
            prop_assert!(net.depth() <= total.max(1));
        }
    }
}
