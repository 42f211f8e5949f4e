//! Static loop partitioning and work-proportional thread-to-grid assignment.

/// The `part`-th of `nparts` contiguous chunks of `0..n` (OpenMP static
/// scheduling). Sizes differ by at most one.
pub fn chunk_range(n: usize, nparts: usize, part: usize) -> std::ops::Range<usize> {
    assert!(part < nparts);
    let base = n / nparts;
    let rem = n % nparts;
    let start = part * base + part.min(rem);
    let len = base + usize::from(part < rem);
    start..(start + len).min(n)
}

/// How threads are distributed over the grids of a multigrid hierarchy.
///
/// When there are at least as many threads as grids, every grid gets its own
/// team with a thread count proportional to the grid's work (Section IV of
/// the paper). With fewer threads than grids, consecutive grids share a
/// single-thread team so that every grid still makes progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridTeamLayout {
    /// `teams[t]` is the list of grid indices owned by team `t`
    /// (consecutive, ordered fine → coarse).
    pub teams: Vec<Vec<usize>>,
    /// `sizes[t]` is the number of threads in team `t`.
    pub sizes: Vec<usize>,
}

impl GridTeamLayout {
    /// Builds a layout for `ngrids` grids with per-grid work estimates
    /// `work[k]` (e.g. flops per correction) and `nthreads` threads.
    ///
    /// # Panics
    /// Panics when `ngrids == 0` or `nthreads == 0` or the lengths disagree.
    pub fn build(work: &[f64], nthreads: usize) -> Self {
        let ngrids = work.len();
        assert!(ngrids > 0 && nthreads > 0);
        if nthreads >= ngrids {
            let sizes = proportional_counts(work, nthreads);
            let teams = (0..ngrids).map(|k| vec![k]).collect();
            GridTeamLayout { teams, sizes }
        } else {
            // Fewer threads than grids: group consecutive grids into
            // `nthreads` teams of one thread each, balancing summed work
            // greedily from the fine end (fine grids carry most work).
            let total: f64 = work.iter().sum();
            let target = total / nthreads as f64;
            let mut teams: Vec<Vec<usize>> = Vec::with_capacity(nthreads);
            let mut cur: Vec<usize> = Vec::new();
            let mut acc = 0.0;
            for k in 0..ngrids {
                cur.push(k);
                acc += work[k];
                let remaining_teams = nthreads - teams.len();
                let remaining_grids = ngrids - k - 1;
                // Close the team when it met its target, but never leave
                // fewer grids than teams still to fill.
                if (acc >= target && remaining_teams > 1 && remaining_grids >= remaining_teams - 1)
                    || remaining_grids + 1 == remaining_teams
                {
                    teams.push(std::mem::take(&mut cur));
                    acc = 0.0;
                }
            }
            if !cur.is_empty() {
                teams.push(cur);
            }
            // `teams.len()` can fall short of `nthreads` in degenerate
            // cases (grids are atomic and cannot be split); the layout then
            // simply uses fewer teams.
            let sizes = vec![1; teams.len()];
            GridTeamLayout { teams, sizes }
        }
    }
}

/// Splits `nthreads` into integer counts proportional to `work`, every count
/// at least 1 (largest-remainder method).
fn proportional_counts(work: &[f64], nthreads: usize) -> Vec<usize> {
    let n = work.len();
    assert!(nthreads >= n);
    let total: f64 = work.iter().map(|w| w.max(1e-30)).sum();
    let spare = nthreads - n; // one thread reserved per grid
    let mut counts: Vec<usize> = vec![1; n];
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for (k, &w) in work.iter().enumerate() {
        let ideal = w.max(1e-30) / total * spare as f64;
        let floor = ideal.floor() as usize;
        counts[k] += floor;
        assigned += floor;
        fracs.push((ideal - floor as f64, k));
    }
    let mut left = spare - assigned;
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut i = 0;
    while left > 0 {
        counts[fracs[i % n].1] += 1;
        left -= 1;
        i += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_and_are_disjoint() {
        for n in [0usize, 1, 7, 100, 101] {
            for p in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![false; n];
                for part in 0..p {
                    for i in chunk_range(n, p, part) {
                        assert!(!covered[i], "overlap at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} p={p} not covered");
            }
        }
    }

    #[test]
    fn chunk_sizes_balanced() {
        let sizes: Vec<usize> = (0..4).map(|p| chunk_range(10, 4, p).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn proportional_respects_minimum() {
        let counts = proportional_counts(&[1000.0, 10.0, 1.0], 8);
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts.iter().all(|&c| c >= 1));
        assert!(counts[0] > counts[1]);
    }

    #[test]
    fn layout_one_team_per_grid() {
        let layout = GridTeamLayout::build(&[100.0, 25.0, 6.0], 12);
        assert_eq!(layout.teams.len(), 3);
        assert_eq!(layout.sizes.iter().sum::<usize>(), 12);
        assert_eq!(layout.teams[0], vec![0]);
        assert!(layout.sizes[0] >= layout.sizes[1]);
        assert!(layout.sizes[1] >= layout.sizes[2]);
        assert_eq!(layout.teams[2], vec![2]);
    }

    #[test]
    fn layout_fewer_threads_than_grids() {
        let layout = GridTeamLayout::build(&[100.0, 25.0, 6.0, 2.0, 1.0], 2);
        assert_eq!(layout.teams.len(), 2);
        assert_eq!(layout.sizes.iter().sum::<usize>(), 2);
        // Every grid owned exactly once.
        let mut grids: Vec<usize> = layout.teams.iter().flatten().copied().collect();
        grids.sort_unstable();
        assert_eq!(grids, vec![0, 1, 2, 3, 4]);
        // Teams are consecutive grid ranges.
        for team in &layout.teams {
            for w in team.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn layout_threads_equal_grids() {
        let layout = GridTeamLayout::build(&[5.0, 5.0, 5.0], 3);
        assert_eq!(layout.sizes, vec![1, 1, 1]);
        assert_eq!(layout.teams.len(), 3);
    }

    #[test]
    fn layout_single_grid() {
        let layout = GridTeamLayout::build(&[42.0], 6);
        assert_eq!(layout.teams.len(), 1);
        assert_eq!(layout.sizes, vec![6]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn chunks_always_tile(n in 0usize..500, p in 1usize..32) {
            let mut covered = vec![0u8; n];
            for part in 0..p {
                for i in chunk_range(n, p, part) {
                    covered[i] += 1;
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1));
        }

        #[test]
        fn chunk_sizes_differ_by_at_most_one(n in 1usize..500, p in 1usize..32) {
            let sizes: Vec<usize> = (0..p).map(|part| chunk_range(n, p, part).len()).collect();
            let lo = sizes.iter().min().unwrap();
            let hi = sizes.iter().max().unwrap();
            prop_assert!(hi - lo <= 1);
        }

        #[test]
        fn layout_conserves_threads_and_grids(
            work in proptest::collection::vec(1.0f64..1000.0, 1..10),
            nthreads in 1usize..64,
        ) {
            let layout = GridTeamLayout::build(&work, nthreads);
            // Every grid owned exactly once.
            let mut grids: Vec<usize> = layout.teams.iter().flatten().copied().collect();
            grids.sort_unstable();
            prop_assert_eq!(grids, (0..work.len()).collect::<Vec<_>>());
            // Thread count preserved when threads >= grids.
            if nthreads >= work.len() {
                prop_assert_eq!(layout.sizes.iter().sum::<usize>(), nthreads);
                prop_assert_eq!(layout.teams.len(), work.len());
            } else {
                prop_assert!(layout.teams.len() <= nthreads);
            }
            // No empty team.
            prop_assert!(layout.teams.iter().all(|t| !t.is_empty()));
            prop_assert!(layout.sizes.iter().all(|&s| s > 0));
        }
    }
}
