//! Row partitions and halo (ghost-row) exchange maps.
//!
//! A [`ShardMap`] fixes, once per solve, which contiguous row range each
//! shard owns and — from the fine-grid sparsity pattern — exactly which of
//! its values every neighbour reads: the ghost indices of the ordered pair
//! `(from, to)` are the columns owned by `from` that appear in `to`'s rows.
//! Senders gather values in ghost-index order, receivers scatter them back
//! by the same list, so halo assembly round-trips losslessly (the proptests
//! in this module pin that down for arbitrary partitions).

use asyncmg_sparse::Csr;
use std::ops::Range;

/// The static communication geometry of one sharded solve.
#[derive(Clone, Debug)]
pub struct ShardMap {
    ranges: Vec<Range<usize>>,
    /// `ghosts[from * n_shards + to]`: sorted column indices owned by
    /// `from` and referenced by rows of `to` (empty on the diagonal).
    ghosts: Vec<Vec<u32>>,
}

impl ShardMap {
    /// Builds the map for `ranges` (disjoint, contiguous, covering
    /// `0..a.nrows()` in order) over the sparsity of `a`.
    pub fn new(a: &Csr, ranges: Vec<Range<usize>>) -> Self {
        let s = ranges.len();
        assert!(s > 0, "at least one shard");
        let mut expect = 0;
        for r in &ranges {
            assert_eq!(r.start, expect, "ranges must tile 0..n contiguously");
            assert!(r.end >= r.start);
            expect = r.end;
        }
        assert_eq!(expect, a.nrows(), "ranges must cover every row");

        let owner = |col: usize| ranges.partition_point(|r| r.end <= col);
        let mut ghosts = vec![Vec::new(); s * s];
        for (to, range) in ranges.iter().enumerate() {
            for i in range.clone() {
                let (cols, _) = a.row(i);
                for &j in cols {
                    let from = owner(j as usize);
                    if from != to {
                        ghosts[from * s + to].push(j);
                    }
                }
            }
        }
        for list in &mut ghosts {
            list.sort_unstable();
            list.dedup();
        }
        ShardMap { ranges, ghosts }
    }

    /// Builds the map for `n_shards` equal chunks of `a`'s rows (the layout
    /// `Hierarchy::partitions` produces for the fine level).
    pub fn chunked(a: &Csr, n_shards: usize) -> Self {
        let n = a.nrows();
        let ranges = (0..n_shards).map(|p| asyncmg_threads::chunk_range(n, n_shards, p)).collect();
        Self::new(a, ranges)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The row range shard `s` owns.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.ranges[s].clone()
    }

    /// All row ranges.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// The shard owning row (or column) `i`: the tests' reference for the
    /// ghost lists.
    #[cfg(test)]
    fn owner_of(&self, i: usize) -> usize {
        self.ranges.partition_point(|r| r.end <= i)
    }

    /// The exact ghost indices of the ordered pair: columns owned by `from`
    /// that rows of `to` read. Sorted, unique.
    pub fn ghost_indices(&self, from: usize, to: usize) -> &[u32] {
        &self.ghosts[from * self.ranges.len() + to]
    }

    /// The peers shard `from` must send halo values to.
    pub fn neighbors_out(&self, from: usize) -> Vec<usize> {
        (0..self.ranges.len())
            .filter(|&to| to != from && !self.ghost_indices(from, to).is_empty())
            .collect()
    }

    /// The peers whose halo values shard `to` reads.
    pub(crate) fn neighbors_in(&self, to: usize) -> Vec<usize> {
        (0..self.ranges.len())
            .filter(|&from| from != to && !self.ghost_indices(from, to).is_empty())
            .collect()
    }

    /// Gathers `x` at the `(from, to)` ghost indices into `out`
    /// (cleared first).
    pub fn gather(&self, from: usize, to: usize, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.ghost_indices(from, to).iter().map(|&j| x[j as usize]));
    }

    /// Rewires the map after a declared death: `adopter` takes over
    /// `dead`'s rows and the ghost-exchange lists are rebuilt from the
    /// sparsity of `a` for the merged layout. Every shard strictly between
    /// the two must already own an empty range (i.e. have been adopted
    /// away earlier), so the merged range stays contiguous; `dead`'s range
    /// collapses to an empty range pinned at the merge boundary, keeping
    /// the `0..n` tiling invariant intact.
    ///
    /// Every participant of a solve applies the same adoption sequence in
    /// the same order, so the rewired maps — and hence the gather/scatter
    /// index lists — agree bit-for-bit (the proptests in
    /// `tests/shard_recovery.rs` pin this against a fresh
    /// [`ShardMap::new`] over the merged ranges).
    pub fn adopt(&mut self, a: &Csr, dead: usize, adopter: usize) {
        let s = self.ranges.len();
        assert!(dead < s && adopter < s, "shard index out of range");
        assert_ne!(dead, adopter, "a shard cannot adopt itself");
        let (lo, hi) = if adopter < dead { (adopter, dead) } else { (dead, adopter) };
        for k in lo + 1..hi {
            assert!(
                self.ranges[k].is_empty(),
                "shards between dead {dead} and adopter {adopter} must hold empty ranges"
            );
        }
        let merged = self.ranges[lo].start..self.ranges[hi].end;
        let mut ranges = self.ranges.clone();
        for (k, r) in ranges.iter_mut().enumerate().take(hi + 1).skip(lo) {
            *r = if k < adopter {
                merged.start..merged.start
            } else if k > adopter {
                merged.end..merged.end
            } else {
                merged.clone()
            };
        }
        *self = ShardMap::new(a, ranges);
    }

    /// Scatters received halo values back into `x` by the `(from, to)`
    /// ghost-index list. Returns `false` (leaving `x` untouched) when the
    /// length does not match the list — a malformed message.
    pub fn scatter(&self, from: usize, to: usize, vals: &[f64], x: &mut [f64]) -> bool {
        let idx = self.ghost_indices(from, to);
        if vals.len() != idx.len() {
            return false;
        }
        for (&j, &v) in idx.iter().zip(vals) {
            x[j as usize] = v;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmg_problems::stencil::laplacian_7pt;
    use proptest::prelude::*;

    fn map_for(n_shards: usize) -> (Csr, ShardMap) {
        let a = laplacian_7pt(4, 4, 4);
        let map = ShardMap::chunked(&a, n_shards);
        (a, map)
    }

    #[test]
    fn ghost_indices_match_sparsity_exactly() {
        let (a, map) = map_for(3);
        for to in 0..3 {
            // Reference: every off-shard column read by `to`'s rows.
            let mut expect: Vec<Vec<u32>> = vec![Vec::new(); 3];
            for i in map.range(to) {
                let (cols, _) = a.row(i);
                for &j in cols {
                    let from = map.owner_of(j as usize);
                    if from != to {
                        expect[from].push(j);
                    }
                }
            }
            for (from, exp) in expect.iter_mut().enumerate() {
                exp.sort_unstable();
                exp.dedup();
                assert_eq!(map.ghost_indices(from, to), exp.as_slice(), "{from}->{to}");
            }
        }
    }

    #[test]
    fn single_shard_has_no_neighbors() {
        let (_, map) = map_for(1);
        assert!(map.neighbors_out(0).is_empty());
        assert_eq!(map.range(0).len(), 64);
    }

    #[test]
    fn scatter_rejects_wrong_length() {
        let (_, map) = map_for(2);
        let mut x = vec![0.0; 64];
        assert!(!map.scatter(0, 1, &[1.0], &mut x));
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn adoption_merges_ranges_and_rewires_ghosts() {
        let a = laplacian_7pt(4, 4, 4);
        let mut map = ShardMap::chunked(&a, 3);
        let dead_rows = map.range(1);
        map.adopt(&a, 1, 0);
        assert_eq!(map.n_shards(), 3, "shard count is fixed for the solve");
        assert_eq!(map.range(0), 0..dead_rows.end);
        assert!(map.range(1).is_empty());
        // The rewired map agrees exactly with a fresh map over the merged
        // ranges: same ghosts, same neighbours.
        let fresh = ShardMap::new(&a, map.ranges().to_vec());
        for from in 0..3 {
            assert_eq!(map.neighbors_out(from), fresh.neighbors_out(from));
            for to in 0..3 {
                assert_eq!(map.ghost_indices(from, to), fresh.ghost_indices(from, to));
            }
        }
        // A dead shard has no rows, so nobody needs its values.
        assert!(map.neighbors_out(1).is_empty());
        // Chained adoption: with shard 1 empty, shard 2 can adopt shard 0
        // across it.
        map.adopt(&a, 0, 2);
        assert_eq!(map.range(2), 0..64);
        assert!(map.range(0).is_empty() && map.range(1).is_empty());
    }

    /// Turns arbitrary cut positions into a partition of `0..n` into
    /// contiguous non-empty ranges (the stand-in `proptest` has no
    /// `prop_map`, so tests draw raw cuts and call this in the body).
    fn ranges_from_cuts(n: usize, cuts: Vec<usize>) -> Vec<Range<usize>> {
        let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c > 0 && c < n).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut ranges = Vec::new();
        let mut start = 0;
        for c in cuts {
            ranges.push(start..c);
            start = c;
        }
        ranges.push(start..n);
        ranges
    }

    proptest! {
        /// Halo assembly round-trips losslessly for arbitrary partitions:
        /// gathering a sender's values and scattering them at the receiver
        /// reconstructs the sender's iterate at every ghost position.
        #[test]
        fn halo_round_trip_is_lossless(
            cuts in prop::collection::vec(1usize..64, 0..5),
            seed in 0u64..1000,
        ) {
            let a = laplacian_7pt(4, 4, 4);
            let map = ShardMap::new(&a, ranges_from_cuts(64, cuts));
            let s = map.n_shards();
            let x_true: Vec<f64> =
                (0..64).map(|i| ((i as u64).wrapping_mul(seed + 1) % 997) as f64).collect();
            for from in 0..s {
                for to in map.neighbors_out(from) {
                    let mut wire = Vec::new();
                    map.gather(from, to, &x_true, &mut wire);
                    let mut x_rx = vec![f64::NAN; 64];
                    prop_assert!(map.scatter(from, to, &wire, &mut x_rx));
                    for &j in map.ghost_indices(from, to) {
                        prop_assert_eq!(x_rx[j as usize].to_bits(), x_true[j as usize].to_bits());
                    }
                }
            }
        }

        /// Every ghost index is owned by the sender and actually read by
        /// the receiver, and every cross-shard dependency is covered.
        #[test]
        fn ghost_indices_are_exact(cuts in prop::collection::vec(1usize..64, 0..4)) {
            let a = laplacian_7pt(4, 4, 4);
            let map = ShardMap::new(&a, ranges_from_cuts(64, cuts));
            let s = map.n_shards();
            for from in 0..s {
                for to in 0..s {
                    for &j in map.ghost_indices(from, to) {
                        prop_assert_eq!(map.owner_of(j as usize), from);
                    }
                }
            }
            // Coverage: each off-shard read of each row appears in a list.
            for to in 0..s {
                for i in map.range(to) {
                    let (cols, _) = a.row(i);
                    for &j in cols {
                        let from = map.owner_of(j as usize);
                        if from != to {
                            prop_assert!(
                                map.ghost_indices(from, to).binary_search(&j).is_ok(),
                                "column {} of row {} missing from {}->{}", j, i, from, to
                            );
                        }
                    }
                }
            }
        }
    }
}
