//! The per-solve buffer pool.
//!
//! Every sequential solver in this crate works on the same family of
//! per-level temporaries: a restricted residual, a correction, and one or
//! two general-purpose buffers per level, plus a fine-grid residual and
//! correction for the outer solve loop. [`Workspace`] allocates all of them
//! once, sized from the hierarchy, so the cycle loops of
//! [`mult`](crate::mult) and [`additive`](crate::additive) perform **zero
//! heap allocations** — every vector a cycle touches exists before the
//! first cycle starts.

use crate::setup::MgSetup;

/// Pre-sized per-level work vectors shared by the sequential solvers.
///
/// `r[k]`, `e[k]`, `buf[k]` and `buf2[k]` all have level-`k` length;
/// `res` and `corr` are fine-grid sized. The multiplicative cycle uses
/// `r`/`e`/`buf` (its driver keeps the fine-grid residual in `r[0]`), the
/// additive corrections additionally use `buf2` (AFACx's `P e_{k+1}`
/// products), and the additive solve loop uses `res`/`corr` for its
/// fine-grid residual and correction accumulator.
pub struct Workspace {
    /// Restricted residual per level (`r[0]` is the fine-grid residual the
    /// cycle consumes).
    pub(crate) r: Vec<Vec<f64>>,
    /// Correction per level (prolongated upward in place).
    pub(crate) e: Vec<Vec<f64>>,
    /// General-purpose buffer per level (smoother workspace, AFACx rhs).
    pub(crate) buf: Vec<Vec<f64>>,
    /// Second buffer per level (AFACx `P e_{k+1}` and `A_k P e_{k+1}`).
    pub(crate) buf2: Vec<Vec<f64>>,
    /// Fine-grid residual of the additive solve loop.
    pub(crate) res: Vec<f64>,
    /// Fine-grid correction accumulator of the additive solve loop.
    pub(crate) corr: Vec<f64>,
}

impl Workspace {
    /// Allocates every buffer a solve over `setup` can need.
    pub fn new(setup: &MgSetup) -> Self {
        let sizes = setup.hierarchy.level_sizes();
        let n = sizes[0];
        Workspace {
            r: sizes.iter().map(|&m| vec![0.0; m]).collect(),
            e: sizes.iter().map(|&m| vec![0.0; m]).collect(),
            buf: sizes.iter().map(|&m| vec![0.0; m]).collect(),
            buf2: sizes.iter().map(|&m| vec![0.0; m]).collect(),
            res: vec![0.0; n],
            corr: vec![0.0; n],
        }
    }

    /// Number of levels this workspace covers.
    pub fn n_levels(&self) -> usize {
        self.r.len()
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
        assert_eq!(ws.n_levels(), sizes.len());
        for (k, &m) in sizes.iter().enumerate() {
            assert_eq!(ws.r[k].len(), m);
            assert_eq!(ws.e[k].len(), m);
            assert_eq!(ws.buf[k].len(), m);
            assert_eq!(ws.buf2[k].len(), m);
        }
        assert_eq!(ws.res.len(), sizes[0]);
        assert_eq!(ws.corr.len(), sizes[0]);
    }
}
