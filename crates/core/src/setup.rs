//! Solver setup: hierarchy + smoothed interpolants + per-level smoothers.

use asyncmg_amg::{smoothed_interpolants, Hierarchy, InterpSmoothing};
use asyncmg_smoothers::{LevelSmoother, SmootherKind};
use asyncmg_sparse::{Csr, Kernel};
use std::sync::OnceLock;

/// How the coarsest-grid equations `A_ℓ e = r_ℓ` are solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoarseSolve {
    /// Dense LU (`A_ℓ⁻¹`, as in Algorithm 1 and Multadd's `Λ_ℓ`).
    Exact,
    /// Smoothing sweeps only (as in AFACx, Algorithm 2).
    Smooth {
        /// Number of sweeps.
        sweeps: usize,
    },
}

/// Options shared by every solver in this crate.
///
/// Marked `#[non_exhaustive]`: construct with [`MgOptions::default`] and
/// assign the fields you need.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct MgOptions {
    /// The smoother used on every non-coarsest level.
    pub smoother: SmootherKind,
    /// Jacobi weight used to *build the smoothed interpolants* `P̄`.
    /// The paper uses the ℓ1-Jacobi iteration matrix when the smoother is
    /// ℓ1-Jacobi and the ω-Jacobi iteration matrix otherwise ("to keep the
    /// smoothed interpolants sparse").
    pub interp_omega: f64,
    /// Number of modelled thread blocks for the block-GS smoothers in
    /// *sequential* executions (threaded executions override this with the
    /// actual team size).
    pub nblocks: usize,
    /// Coarsest-grid treatment for Mult/Multadd/BPX.
    pub coarse: CoarseSolve,
    /// Coarsest-grid treatment for AFACx (Algorithm 2 smooths).
    pub afacx_coarse: CoarseSolve,
    /// AFACx inner sweeps `s₁` (fine part of the V(s₁/s₂,0)-cycle).
    pub afacx_s1: usize,
    /// AFACx inner sweeps `s₂` (coarse part).
    pub afacx_s2: usize,
    /// Pre-smoothing sweeps (at least one) of the multiplicative cycle,
    /// sequential or threaded (the paper uses V(1,1)).
    pub n_pre: usize,
    /// Post-smoothing sweeps (at least one) of the multiplicative cycle,
    /// sequential or threaded.
    pub n_post: usize,
}

impl Default for MgOptions {
    fn default() -> Self {
        MgOptions {
            smoother: SmootherKind::WJacobi { omega: 0.9 },
            interp_omega: 0.9,
            nblocks: 4,
            coarse: CoarseSolve::Exact,
            afacx_coarse: CoarseSolve::Smooth { sweeps: 1 },
            afacx_s1: 1,
            afacx_s2: 1,
            n_pre: 1,
            n_post: 1,
        }
    }
}

/// Everything precomputed before solving: the hierarchy and per-level
/// smoothers, plus the smoothed interpolants once a method asks for them.
pub struct MgSetup {
    /// The AMG hierarchy (operators, interpolants, coarse LU).
    pub hierarchy: Hierarchy,
    /// Smoothed interpolants `(P̄_k, R̄_k = P̄_kᵀ)` for `k = 0..ℓ−1`, built
    /// on first use (see [`MgSetup::p_bar`]): on 27pt they hold more entries
    /// than the fine operator, and the multiplicative solvers never read
    /// them.
    p_bar: OnceLock<Vec<(Csr, Csr)>>,
    /// One smoother per level.
    pub smoothers: Vec<LevelSmoother>,
    /// The options this setup was built with.
    pub opts: MgOptions,
}

impl MgSetup {
    /// Builds the setup from a hierarchy.
    pub fn new(hierarchy: Hierarchy, opts: MgOptions) -> Self {
        // The hierarchy caches each level's diagonal; building smoothers
        // from it avoids re-searching every matrix row.
        let smoothers = hierarchy
            .levels
            .iter()
            .map(|l| LevelSmoother::with_diag(&l.a, &l.diag, opts.smoother, opts.nblocks))
            .collect();
        MgSetup { hierarchy, p_bar: OnceLock::new(), smoothers, opts }
    }

    /// The smoothed interpolants, built by whichever caller asks first.
    ///
    /// The threaded additive solvers must not pay this build (a sparse
    /// product per level) on a racing team thread — under a virtual
    /// scheduler a team blocked on the `OnceLock` would stall the schedule.
    /// `solve_async_*` therefore calls [`work_estimates`](Self::work_estimates)
    /// with `smoothed = true` on the calling thread before it spawns teams,
    /// which lands here first; the team workers only ever find it built.
    fn smoothed(&self) -> &[(Csr, Csr)] {
        self.p_bar.get_or_init(|| {
            let kind = match self.opts.smoother {
                SmootherKind::L1Jacobi => InterpSmoothing::L1Jacobi,
                _ => InterpSmoothing::WJacobi { omega: self.opts.interp_omega },
            };
            smoothed_interpolants(&self.hierarchy, kind)
        })
    }

    /// Whether `P̄`/`R̄` have been built yet.
    pub(crate) fn smoothed_built(&self) -> bool {
        self.p_bar.get().is_some()
    }

    /// Rebuilds the smoothers of `levels` with a different block count (used
    /// by the threaded solvers, where the block count is the team size).
    pub(crate) fn smoothers_for(
        &self,
        levels: std::ops::Range<usize>,
        nblocks: usize,
    ) -> Vec<LevelSmoother> {
        self.hierarchy.levels[levels]
            .iter()
            .map(|l| LevelSmoother::with_diag(&l.a, &l.diag, self.opts.smoother, nblocks))
            .collect()
    }

    /// Number of levels (`ℓ + 1`).
    pub fn n_levels(&self) -> usize {
        self.hierarchy.n_levels()
    }

    /// Fine-grid size.
    pub fn n(&self) -> usize {
        self.hierarchy.levels[0].a.nrows()
    }

    /// The operator on level `k`.
    pub fn a(&self, k: usize) -> &Csr {
        &self.hierarchy.levels[k].a
    }

    /// The kernel handle for level `k`: blocked (BSR) when the hierarchy
    /// installed a block twin on that level, plain CSR otherwise. All kernel
    /// results are bit-identical across the two, so solvers may dispatch
    /// freely through this handle.
    pub fn op(&self, k: usize) -> Kernel<'_> {
        self.hierarchy.levels[k].op()
    }

    /// Plain prolongation `P_{k+1}^k`.
    pub fn p(&self, k: usize) -> &Csr {
        self.hierarchy.levels[k].p.as_ref().expect("no P on coarsest level")
    }

    /// Plain restriction `(P_{k+1}^k)ᵀ`.
    pub fn r(&self, k: usize) -> &Csr {
        self.hierarchy.levels[k].r.as_ref().expect("no R on coarsest level")
    }

    /// Smoothed prolongation `P̄_{k+1}^k` (the first call to this,
    /// [`r_bar`](Self::r_bar) or a smoothed
    /// [`work_estimates`](Self::work_estimates) builds all of them).
    pub fn p_bar(&self, k: usize) -> &Csr {
        &self.smoothed()[k].0
    }

    /// Smoothed restriction `P̄ᵀ`.
    pub fn r_bar(&self, k: usize) -> &Csr {
        &self.smoothed()[k].1
    }

    /// Estimated flops for one correction of grid `k` under the given
    /// additive method — the "work" of Section IV used to distribute
    /// threads over grids.
    fn grid_work(&self, k: usize, smoothed: bool) -> f64 {
        let ell = self.n_levels() - 1;
        let mut flops = 0.0;
        // Restriction down and prolongation up through levels 0..k.
        for j in 0..k {
            let nnz = if smoothed { self.p_bar(j).nnz() } else { self.p(j).nnz() };
            flops += 4.0 * nnz as f64; // down + up, 2 flops per nnz
        }
        // Smoothing / solve at level k (+ level k+1 for AFACx-style work).
        flops += 2.0 * self.a(k).nnz() as f64;
        if k < ell {
            flops += 2.0 * self.a(k + 1).nnz() as f64;
        }
        flops.max(1.0)
    }

    /// Work estimates for all grids.
    pub fn work_estimates(&self, smoothed: bool) -> Vec<f64> {
        (0..self.n_levels()).map(|k| self.grid_work(k, smoothed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::stencil::laplacian_7pt;

    fn setup() -> MgSetup {
        let a = laplacian_7pt(8, 8, 8);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, MgOptions::default())
    }

    #[test]
    fn setup_has_consistent_shapes() {
        let s = setup();
        let ell = s.n_levels() - 1;
        assert_eq!(s.smoothed().len(), ell);
        assert_eq!(s.smoothers.len(), ell + 1);
        for k in 0..ell {
            assert_eq!(s.p(k).nrows(), s.a(k).nrows());
            assert_eq!(s.p(k).ncols(), s.a(k + 1).nrows());
            assert_eq!(s.p_bar(k).nrows(), s.p(k).nrows());
            assert_eq!(s.p_bar(k).ncols(), s.p(k).ncols());
        }
    }

    #[test]
    fn l1_smoother_switches_interp_weights() {
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s_j = MgSetup::new(
            h.clone(),
            MgOptions { smoother: SmootherKind::WJacobi { omega: 0.9 }, ..Default::default() },
        );
        let s_l1 =
            MgSetup::new(h, MgOptions { smoother: SmootherKind::L1Jacobi, ..Default::default() });
        assert!(s_j
            .p_bar(0)
            .vals()
            .iter()
            .zip(s_l1.p_bar(0).vals())
            .any(|(a, b)| (a - b).abs() > 1e-12));
    }

    fn bits(a: &Csr) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
        (a.row_ptr().to_vec(), a.col_idx().to_vec(), a.vals().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn lazy_interpolants_equal_the_eager_build_bitwise() {
        let a = laplacian_7pt(8, 8, 8);
        let h = build_hierarchy(a, &AmgOptions::default());
        for (smoother, kind) in [
            (SmootherKind::WJacobi { omega: 0.9 }, InterpSmoothing::WJacobi { omega: 0.7 }),
            (SmootherKind::L1Jacobi, InterpSmoothing::L1Jacobi),
        ] {
            let opts = MgOptions { smoother, interp_omega: 0.7, ..Default::default() };
            let s = MgSetup::new(h.clone(), opts);
            assert!(!s.smoothed_built());
            let eager = smoothed_interpolants(&h, kind);
            assert_eq!(eager.len(), s.n_levels() - 1);
            for (k, (p_bar, r_bar)) in eager.iter().enumerate() {
                assert_eq!(bits(s.p_bar(k)), bits(p_bar), "P̄_{k} {kind:?}");
                assert_eq!(bits(s.r_bar(k)), bits(r_bar), "R̄_{k} {kind:?}");
            }
        }
    }

    #[test]
    fn mult_solves_leave_interpolants_unbuilt() {
        let s = setup();
        let b = asyncmg_problems::rhs::random_rhs(s.n(), 3);
        let probe = asyncmg_telemetry::NoopProbe;
        let seq = crate::mult::solve_mult_probed(&s, &b, 3, None, &probe);
        let env = asyncmg_threads::ExecEnv::default();
        let par = crate::parallel_mult::solve_mult_threaded(&s, &b, 2, 3, None, &probe, env);
        assert!(seq.history[2] < 1.0 && par.relres < 1.0);
        assert!(!s.smoothed_built());
    }

    /// The ordering `solve_async` relies on: its `work_estimates(true)`
    /// call, made before any team thread exists, is what builds `P̄`; the
    /// plain estimate does not.
    #[test]
    fn smoothed_work_estimate_builds_interpolants_plain_does_not() {
        let s = setup();
        s.work_estimates(false);
        assert!(!s.smoothed_built());
        s.work_estimates(true);
        assert!(s.smoothed_built());
    }

    #[test]
    fn racing_first_uses_observe_one_build() {
        let s = setup();
        let gate = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|sc| {
            let racer = || {
                gate.wait();
                s.p_bar(0) as *const Csr as usize
            };
            let (ha, hb) = (sc.spawn(racer), sc.spawn(racer));
            (ha.join().expect("racer panicked"), hb.join().expect("racer panicked"))
        });
        assert_eq!(a, b);
        assert_eq!(a, s.p_bar(0) as *const Csr as usize);
    }

    #[test]
    fn work_estimates_are_positive_and_ordered_plain() {
        let s = setup();
        let w_smoothed = s.work_estimates(true);
        let w_plain = s.work_estimates(false);
        assert_eq!(w_smoothed.len(), s.n_levels());
        assert!(w_smoothed.iter().all(|&x| x >= 1.0));
        // Smoothed interpolants are denser, so per-grid work cannot shrink.
        for (ws, wp) in w_smoothed.iter().zip(&w_plain) {
            assert!(ws >= wp);
        }
        // With plain interpolants the finest grid carries the most work.
        assert!(w_plain[0] >= *w_plain.last().unwrap());
    }
}
