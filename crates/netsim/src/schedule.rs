//! Doubling aggregation schedules on the id line.
//!
//! The deterministic gossip protocols in this workspace are built from
//! rounds of *doubling* message patterns over node ids `0..n`: at step `s`
//! a node talks to the peer `2^s` positions away. This module captures
//! these patterns as one reusable schedule object so the bounds, count and
//! tie phases of the top-`k` selection (and any future aggregation
//! protocol) share a single, tested wiring:
//!
//! * **Prefix scan** — node `i` sends its accumulator to `i + 2^s`; after
//!   `⌈log₂ n⌉` steps node `i` holds the aggregate of ids `0..=i`. Used by
//!   the tie-break phase, whose per-node *rank* is inherently a prefix.
//! * **All-reduce** — a hypercube/butterfly exchange (`i ↔ i ⊕ 2^s`) over
//!   the largest power-of-two core, with one fold-in and one fold-out round
//!   for the remainder ids. Every node ends with the *total* aggregate in
//!   `log₂ n + O(1)` rounds — half the latency of the classic scan followed
//!   by a top-down broadcast, which is why the bounds and count phases of
//!   the adaptive top-`k` selection use it.
//!
//! Both patterns assume an *order-insensitive, exact* merge operation
//! (`u64` sums, `f64` min/max), so any arrival order produces bit-identical
//! aggregates.

/// Send action of one node at one step of an all-reduce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduceSend {
    /// Send the accumulator to the destination and reset the accumulator to
    /// the merge identity (the destination now owns this node's mass; the
    /// total comes back in the fold-out round).
    FoldIn(usize),
    /// Exchange: send the accumulator to the butterfly partner and keep it.
    Exchange(usize),
    /// Send the (now complete) total to a remainder node.
    FoldOut(usize),
}

/// The doubling schedule for an id line of `n` nodes.
///
/// It stores `n` alone and derives the butterfly core and the step counts
/// with bit operations. Its methods are `#[inline]`: the generic
/// `TopKCore::step` calls them for every node in every round, and other
/// crates compile their own instances of it.
///
/// # Examples
///
/// ```
/// use npd_netsim::schedule::IdLine;
///
/// let line = IdLine::new(6);
/// assert_eq!(line.scan_rounds(), 4);      // ⌈log₂ 6⌉ + 1
/// assert_eq!(line.allreduce_rounds(), 5); // fold-in, 2 exchanges, fold-out, final merge
/// assert_eq!(line.scan_target(1, 0), Some(2));
/// assert_eq!(line.scan_target(5, 0), None); // falls off the line
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdLine {
    n: usize,
}

impl IdLine {
    /// Creates the schedule for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "IdLine: n must be positive");
        Self { n }
    }

    /// `⌊log₂ n⌋`: the exchange steps of the butterfly core, the largest
    /// power of two `≤ n`.
    #[inline]
    fn butterfly_steps(&self) -> u32 {
        self.n.ilog2()
    }

    /// `⌈log₂ n⌉`.
    #[inline]
    fn scan_steps(&self) -> u32 {
        usize::BITS - (self.n - 1).leading_zeros()
    }

    /// Number of nodes on the line.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds of a prefix-scan phase: `⌈log₂ n⌉` send steps plus the final
    /// merge-only step.
    #[inline]
    pub fn scan_rounds(&self) -> u64 {
        u64::from(self.scan_steps()) + 1
    }

    /// The destination of node `id`'s scan send at `step`, if any.
    #[inline]
    pub fn scan_target(&self, id: usize, step: u64) -> Option<usize> {
        if step >= u64::from(self.scan_steps()) {
            return None;
        }
        let dst = id + (1usize << step);
        (dst < self.n).then_some(dst)
    }

    /// Rounds of an all-reduce phase. Power-of-two lines run a pure
    /// butterfly (`log₂ n` exchanges + final merge); other lines add a
    /// fold-in round before and a fold-out round after.
    #[inline]
    pub fn allreduce_rounds(&self) -> u64 {
        let steps = u64::from(self.butterfly_steps());
        if self.n.is_power_of_two() {
            steps + 1
        } else {
            steps + 3
        }
    }

    /// The send action of node `id` at `step` of an all-reduce phase, if
    /// any. Steps at or beyond [`allreduce_rounds`](Self::allreduce_rounds)
    /// `- 1` are merge-only for every node.
    #[inline]
    pub fn allreduce_send(&self, id: usize, step: u64) -> Option<AllReduceSend> {
        let bfly = u64::from(self.butterfly_steps());
        if self.n.is_power_of_two() {
            if step < bfly {
                return Some(AllReduceSend::Exchange(id ^ (1usize << step)));
            }
            return None;
        }
        // Folded line: remainder ids park their mass on the core first.
        let core = 1usize << bfly;
        if step == 0 {
            return (id >= core).then(|| AllReduceSend::FoldIn(id - core));
        }
        if step <= bfly {
            if id < core {
                return Some(AllReduceSend::Exchange(id ^ (1usize << (step - 1))));
            }
            return None;
        }
        if step == bfly + 1 && id < core && id + core < self.n {
            return Some(AllReduceSend::FoldOut(id + core));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates one all-reduce phase of `u64` sums with synchronous
    /// message delivery and returns every node's final accumulator.
    fn simulate_allreduce_sum(values: &[u64]) -> Vec<u64> {
        let n = values.len();
        let line = IdLine::new(n);
        let mut acc = values.to_vec();
        let mut in_flight: Vec<(usize, u64)> = Vec::new();
        for step in 0..line.allreduce_rounds() {
            // Deliver last round's sends.
            for (dst, v) in std::mem::take(&mut in_flight) {
                acc[dst] += v;
            }
            for (id, a) in acc.iter_mut().enumerate() {
                match line.allreduce_send(id, step) {
                    Some(AllReduceSend::FoldIn(dst)) => {
                        in_flight.push((dst, *a));
                        *a = 0; // reset to the merge identity
                    }
                    Some(AllReduceSend::Exchange(dst)) | Some(AllReduceSend::FoldOut(dst)) => {
                        in_flight.push((dst, *a));
                    }
                    None => {}
                }
            }
        }
        for (dst, v) in in_flight {
            acc[dst] += v;
        }
        acc
    }

    /// Simulates one prefix-scan phase of `u64` sums.
    fn simulate_scan_sum(values: &[u64]) -> Vec<u64> {
        let n = values.len();
        let line = IdLine::new(n);
        let mut acc = values.to_vec();
        let mut in_flight: Vec<(usize, u64)> = Vec::new();
        for step in 0..line.scan_rounds() {
            for (dst, v) in std::mem::take(&mut in_flight) {
                acc[dst] += v;
            }
            for (id, &a) in acc.iter().enumerate() {
                if let Some(dst) = line.scan_target(id, step) {
                    in_flight.push((dst, a));
                }
            }
        }
        for (dst, v) in in_flight {
            acc[dst] += v;
        }
        acc
    }

    #[test]
    fn allreduce_totals_every_node_every_size() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let values: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
            let total: u64 = values.iter().sum();
            let acc = simulate_allreduce_sum(&values);
            for (id, &a) in acc.iter().enumerate() {
                assert_eq!(a, total, "n={n} id={id}");
            }
        }
    }

    #[test]
    fn scan_gives_inclusive_prefixes() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 33] {
            let values: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
            let acc = simulate_scan_sum(&values);
            let mut prefix = 0;
            for (id, &a) in acc.iter().enumerate() {
                prefix += values[id];
                assert_eq!(a, prefix, "n={n} id={id}");
            }
        }
    }

    #[test]
    fn allreduce_rounds_are_logarithmic() {
        assert_eq!(IdLine::new(1).allreduce_rounds(), 1);
        assert_eq!(IdLine::new(2).allreduce_rounds(), 2);
        assert_eq!(IdLine::new(4).allreduce_rounds(), 3);
        assert_eq!(IdLine::new(4096).allreduce_rounds(), 13);
        assert_eq!(IdLine::new(3).allreduce_rounds(), 4);
        assert_eq!(IdLine::new(4097).allreduce_rounds(), 15);
        // Versus 2·(⌈log₂ n⌉ + 1) for scan + broadcast.
        assert!(IdLine::new(4096).allreduce_rounds() < 2 * IdLine::new(4096).scan_rounds());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_line_is_rejected() {
        IdLine::new(0);
    }
}
