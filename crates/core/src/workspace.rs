//! The per-level buffer pool of the multigrid chain and the V-cycle.
//!
//! [`Workspace`] holds every level's temporaries — restricted residual,
//! correction, two general-purpose buffers, the sweep-start snapshot and,
//! for the async-GS smoother, the shared iterate — allocated once, sized
//! from the hierarchy. The buffers are racy ([`RacyVec`]): a team of
//! threads writes them in disjoint chunks between barriers. A team corrects
//! one grid at a time, so it needs one pool: each asynchronous team and the
//! threaded V-cycle hold one, and a sequential caller owns one and cycles
//! **allocation-free** out of it (see `chain.rs`).

use crate::setup::MgSetup;
use asyncmg_smoothers::SmootherKind;
use asyncmg_sparse::AtomicF64Vec;
use asyncmg_threads::RacyVec;
use std::ops::Range;

/// Pre-sized per-level work vectors of one team (or one sequential solve).
///
/// Every vector has level-`k` length at index `k`. The V-cycle keeps the
/// residual it consumes in `r[top]` and leaves its correction in `e[top]`;
/// the additive chain reads its fine-grid residual from the caller and
/// leaves grid `k`'s correction in `e[0]`.
pub struct Workspace {
    /// Restricted residual per level.
    pub(crate) r: Vec<RacyVec>,
    /// Correction per level (prolongated upward in place).
    pub(crate) e: Vec<RacyVec>,
    /// General-purpose buffer per level (`r_k − A_k e_k`, `A_k e_k`, the
    /// AFACx right-hand side).
    pub(crate) buf: Vec<RacyVec>,
    /// Second buffer per level (AFACx `P e_{k+1}`).
    pub(crate) buf2: Vec<RacyVec>,
    /// Sweep-start snapshot per level (multi-sweep and post-smoothing).
    pub(crate) snap: Vec<RacyVec>,
    /// Shared async-GS iterate per level (empty for other smoothers).
    pub(crate) gs: Vec<AtomicF64Vec>,
}

impl Workspace {
    /// Allocates every buffer a solve over `setup` can need.
    pub fn new(setup: &MgSetup) -> Self {
        Workspace::smoothing_on(setup, 0..setup.n_levels())
    }

    /// A pool whose smoothing buffers (`buf`, `buf2`, `snap`, `gs`) exist
    /// only on the levels in `smoothed` and are empty elsewhere: an
    /// asynchronous team smooths only on its grids and the level below
    /// them, but restricts and prolongs through every level above.
    pub(crate) fn smoothing_on(setup: &MgSetup, smoothed: Range<usize>) -> Self {
        let sizes = setup.hierarchy.level_sizes();
        let async_gs = setup.opts.smoother == SmootherKind::AsyncGs;
        let len = |k: usize, used: bool| if used { sizes[k] } else { 0 };
        let all = || (0..sizes.len()).map(|k| RacyVec::zeros(sizes[k])).collect();
        let some =
            || (0..sizes.len()).map(|k| RacyVec::zeros(len(k, smoothed.contains(&k)))).collect();
        Workspace {
            r: all(),
            e: all(),
            buf: some(),
            buf2: some(),
            snap: some(),
            gs: (0..sizes.len())
                .map(|k| AtomicF64Vec::zeros(len(k, async_gs && smoothed.contains(&k))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::MgOptions;
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::stencil::laplacian_7pt;

    #[test]
    fn workspace_sizes_match_hierarchy() {
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s = MgSetup::new(h, MgOptions::default());
        let ws = Workspace::new(&s);
        let sizes = s.hierarchy.level_sizes();
        assert_eq!(ws.r.len(), sizes.len());
        for (k, &m) in sizes.iter().enumerate() {
            for v in [&ws.r[k], &ws.e[k], &ws.buf[k], &ws.buf2[k], &ws.snap[k]] {
                assert_eq!(v.len(), m);
            }
        }
        assert!(ws.gs.iter().all(|v| v.is_empty()), "only async GS needs a shared iterate");
    }
}
