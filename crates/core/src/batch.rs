//! Batched multi-RHS multiplicative V-cycles.
//!
//! The solver service coalesces same-matrix requests into one blocked solve:
//! `nrhs` right-hand sides advance through the hierarchy together, with every
//! kernel (SpMM, blocked smoothing, per-column coarse solves) amortising the
//! matrix traversal across the columns.
//!
//! The whole module is built around one guarantee: **column `c` of a batched
//! solve is bit-identical to a solo [`solve_mult_probed`] of that column**.
//! Every blocked kernel keeps per-column accumulators in the exact single-RHS
//! accumulation order (see `dot4` in `asyncmg-sparse`), per-column stopping
//! is tracked independently (a column that converges is snapshotted at the
//! cycle where its solo run would have stopped, while the block keeps
//! cycling for the rest), and the residual norms are computed per column with
//! the same `vecops::norm2` the solo driver uses.
//!
//! [`solve_mult_probed`]: crate::mult::solve_mult_probed

use crate::setup::{CoarseSolve, MgSetup};
use asyncmg_sparse::vecops;

/// Per-column solve parameters of one batched request.
#[derive(Clone, Copy, Debug)]
pub struct BatchSpec {
    /// Early-stopping tolerance on the relative residual (`None` runs the
    /// column for its full `t_max` cycles).
    pub tol: Option<f64>,
    /// Cycle budget for this column (must be ≥ 1).
    pub t_max: usize,
}

impl Default for BatchSpec {
    fn default() -> Self {
        BatchSpec { tol: None, t_max: 50 }
    }
}

/// The result of one batched solve: `nrhs` columns, column-major.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Solutions, column `c` at `[c·n, (c+1)·n)`.
    pub x: Vec<f64>,
    /// Final relative residual per column (at that column's stopping cycle).
    pub relres: Vec<f64>,
    /// Cycles each column actually ran before freezing.
    pub cycles: Vec<usize>,
    /// Per-column relative-residual history (one entry per cycle run).
    pub history: Vec<Vec<f64>>,
}

impl BatchResult {
    /// Relative residual above which a column counts as diverged (far worse
    /// than the zero initial guess, whose relative residual is exactly 1).
    pub const DIVERGED_RELRES: f64 = 1e3;

    /// Columns whose solve failed numerically — a non-finite solution entry,
    /// a non-finite final residual, or clear divergence
    /// ([`BatchResult::DIVERGED_RELRES`]). The solver service splits these
    /// out of their batch and retries them solo down the degradation ladder
    /// so one poisoned right-hand side cannot fail its batch-mates.
    pub fn sick_columns(&self) -> Vec<usize> {
        let nrhs = self.relres.len();
        let n = self.x.len().checked_div(nrhs).unwrap_or(0);
        (0..nrhs)
            .filter(|&c| {
                !self.relres[c].is_finite()
                    || self.relres[c] >= Self::DIVERGED_RELRES
                    || self.x[c * n..(c + 1) * n].iter().any(|v| !v.is_finite())
            })
            .collect()
    }
}

/// Pre-sized per-level blocked work vectors: the multi-RHS analogue of
/// [`Workspace`](crate::workspace::Workspace), every buffer `nrhs` columns
/// wide. Owned and reused by the solver service across batches.
pub struct BlockWorkspace {
    nrhs: usize,
    /// Level sizes this workspace was built for (to detect setup changes).
    sizes: Vec<usize>,
    r: Vec<Vec<f64>>,
    e: Vec<Vec<f64>>,
    buf: Vec<Vec<f64>>,
}

impl BlockWorkspace {
    /// Allocates blocked buffers for `nrhs` columns over `setup`'s levels.
    pub fn new(setup: &MgSetup, nrhs: usize) -> Self {
        let sizes = setup.hierarchy.level_sizes();
        BlockWorkspace {
            nrhs,
            r: sizes.iter().map(|&m| vec![0.0; m * nrhs]).collect(),
            e: sizes.iter().map(|&m| vec![0.0; m * nrhs]).collect(),
            buf: sizes.iter().map(|&m| vec![0.0; m * nrhs]).collect(),
            sizes,
        }
    }

    /// The number of columns this workspace holds.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// Ensures the workspace covers `setup` with at least `nrhs` columns,
    /// reallocating only when the shape actually changed.
    pub fn ensure(&mut self, setup: &MgSetup, nrhs: usize) {
        if self.nrhs != nrhs || self.sizes != setup.hierarchy.level_sizes() {
            *self = BlockWorkspace::new(setup, nrhs);
        }
    }
}

/// One blocked multiplicative V-cycle over `nrhs` columns: updates the
/// column-major block `x` in place given the current blocked fine-grid
/// residual in `scratch.r[0]`. Mirrors `mult_vcycle` step for step; each
/// column's arithmetic is bit-identical to the single-RHS cycle.
pub fn mult_vcycle_block(
    setup: &MgSetup,
    nrhs: usize,
    x: &mut [f64],
    scratch: &mut BlockWorkspace,
) {
    debug_assert_eq!(scratch.nrhs, nrhs);
    let ell = setup.n_levels() - 1;
    // Downward sweep: pre-smooth and restrict.
    for k in 0..ell {
        let (r_head, r_tail) = scratch.r.split_at_mut(k + 1);
        let rk = &r_head[k];
        let ek = &mut scratch.e[k];
        let buf = &mut scratch.buf[k];
        setup.smoothers[k].apply_zero_multi(setup.a(k), nrhs, rk, ek);
        for _ in 1..setup.opts.n_pre {
            setup.smoothers[k].relax_multi(setup.a(k), nrhs, rk, ek, buf);
        }
        // r_{k+1} = Rᵀ (r_k − A_k e_k), column by column in one SpMM.
        setup.a(k).spmv_block(nrhs, ek, buf);
        for i in 0..buf.len() {
            buf[i] = rk[i] - buf[i];
        }
        setup.r(k).spmv_block(nrhs, buf, &mut r_tail[0]);
    }
    // Coarsest solve: e_ℓ = A_ℓ⁻¹ r_ℓ, per column (the dense LU forward/back
    // substitution is already a per-column operation).
    let m = setup.a(ell).nrows();
    match (setup.opts.coarse, &setup.hierarchy.coarse_lu) {
        (CoarseSolve::Exact, Some(lu)) => {
            for c in 0..nrhs {
                lu.solve(
                    &scratch.r[ell][c * m..(c + 1) * m],
                    &mut scratch.e[ell][c * m..(c + 1) * m],
                );
            }
        }
        _ => {
            let sweeps = match setup.opts.coarse {
                CoarseSolve::Smooth { sweeps } => sweeps,
                CoarseSolve::Exact => 2,
            };
            setup.smoothers[ell].apply_zero_multi(
                setup.a(ell),
                nrhs,
                &scratch.r[ell],
                &mut scratch.e[ell],
            );
            for _ in 1..sweeps {
                let (r, e, buf) = (&scratch.r[ell], &mut scratch.e[ell], &mut scratch.buf[ell]);
                setup.smoothers[ell].relax_multi(setup.a(ell), nrhs, r, e, buf);
            }
        }
    }
    // Upward sweep: prolongate and post-smooth.
    for k in (0..ell).rev() {
        let (e_head, e_tail) = scratch.e.split_at_mut(k + 1);
        let ek = &mut e_head[k];
        setup.p(k).spmv_block(nrhs, &e_tail[0], &mut scratch.buf[k]);
        for i in 0..ek.len() {
            ek[i] += scratch.buf[k][i];
        }
        for _ in 0..setup.opts.n_post.max(1) {
            setup.smoothers[k].relax_multi(
                setup.a(k),
                nrhs,
                &scratch.r[k],
                ek,
                &mut scratch.buf[k],
            );
        }
    }
    vecops::axpy(1.0, &scratch.e[0], x);
}

/// Runs batched multiplicative V(1,1)-cycles from `x = 0` over the
/// column-major block `b` (`specs.len()` columns), reusing `scratch`.
///
/// Columns stop independently: once column `c` meets its tolerance or
/// exhausts its `t_max`, its solution is snapshotted at that cycle — exactly
/// where a solo [`solve_mult_probed`](crate::mult::solve_mult_probed) of that
/// column would have stopped — while the remaining columns keep cycling.
pub fn solve_mult_batch_with(
    setup: &MgSetup,
    b: &[f64],
    specs: &[BatchSpec],
    scratch: &mut BlockWorkspace,
) -> BatchResult {
    let n = setup.n();
    let nrhs = specs.len();
    assert_eq!(b.len(), n * nrhs, "b must hold one column of length n per spec");
    assert!(specs.iter().all(|s| s.t_max >= 1), "every column needs t_max >= 1");
    scratch.ensure(setup, nrhs);
    let nb: Vec<f64> = (0..nrhs).map(|c| vecops::norm2(&b[c * n..(c + 1) * n])).collect();
    let mut x = vec![0.0; n * nrhs];
    let mut out = vec![0.0; n * nrhs];
    let mut relres = vec![f64::INFINITY; nrhs];
    let mut cycles = vec![0usize; nrhs];
    let mut history: Vec<Vec<f64>> = vec![Vec::new(); nrhs];
    let mut done = vec![false; nrhs];
    let t_limit = specs.iter().map(|s| s.t_max).max().unwrap_or(0);
    // One blocked residual per cycle, as in the solo driver: the end-of-cycle
    // residual is the next cycle's input, written straight into `scratch.r[0]`.
    setup.a(0).residual_block(nrhs, b, &x, &mut scratch.r[0]);
    for cycle in 0..t_limit {
        mult_vcycle_block(setup, nrhs, &mut x, scratch);
        setup.a(0).residual_block(nrhs, b, &x, &mut scratch.r[0]);
        let mut all_done = true;
        for c in 0..nrhs {
            if done[c] {
                continue;
            }
            let rn = vecops::norm2(&scratch.r[0][c * n..(c + 1) * n]);
            let rel = if nb[c] > 0.0 { rn / nb[c] } else { rn };
            history[c].push(rel);
            let converged = specs[c].tol.is_some_and(|t| rel < t);
            if converged || cycle + 1 == specs[c].t_max {
                relres[c] = rel;
                cycles[c] = cycle + 1;
                out[c * n..(c + 1) * n].copy_from_slice(&x[c * n..(c + 1) * n]);
                done[c] = true;
            } else {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
    }
    BatchResult { x: out, relres, cycles, history }
}

/// [`solve_mult_batch_with`] with a freshly allocated workspace.
pub fn solve_mult_batch(setup: &MgSetup, b: &[f64], specs: &[BatchSpec]) -> BatchResult {
    let mut scratch = BlockWorkspace::new(setup, specs.len());
    solve_mult_batch_with(setup, b, specs, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::solve_mult_probed;
    use crate::setup::MgOptions;
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
    use asyncmg_smoothers::SmootherKind;
    use asyncmg_telemetry::NoopProbe;

    fn setup_n(n: usize, opts: MgOptions) -> MgSetup {
        let a = laplacian_7pt(n, n, n);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, opts)
    }

    fn block_rhs(n: usize, nrhs: usize, seed0: u64) -> Vec<f64> {
        let mut b = Vec::with_capacity(n * nrhs);
        for c in 0..nrhs {
            b.extend(random_rhs(n, seed0 + c as u64));
        }
        b
    }

    #[test]
    fn batch_matches_solo_bitwise_fixed_cycles() {
        for kind in
            [SmootherKind::WJacobi { omega: 0.9 }, SmootherKind::L1Jacobi, SmootherKind::HybridJgs]
        {
            let s = setup_n(6, MgOptions { smoother: kind, ..Default::default() });
            let n = s.n();
            let nrhs = 3;
            let b = block_rhs(n, nrhs, 40);
            let specs = vec![BatchSpec { tol: None, t_max: 8 }; nrhs];
            let batch = solve_mult_batch(&s, &b, &specs);
            for c in 0..nrhs {
                let solo = solve_mult_probed(&s, &b[c * n..(c + 1) * n], 8, None, &NoopProbe);
                assert_eq!(batch.cycles[c], 8);
                for i in 0..n {
                    assert_eq!(
                        batch.x[c * n + i].to_bits(),
                        solo.x[i].to_bits(),
                        "{} col {c} row {i}",
                        kind.name()
                    );
                }
                assert_eq!(batch.history[c].len(), solo.history.len());
                for (h1, h2) in batch.history[c].iter().zip(&solo.history) {
                    assert_eq!(h1.to_bits(), h2.to_bits());
                }
            }
        }
    }

    #[test]
    fn batch_matches_solo_bitwise_with_per_column_stopping() {
        let s = setup_n(7, MgOptions::default());
        let n = s.n();
        // Heterogeneous tolerances and budgets: columns freeze at different
        // cycles while the block keeps going.
        let specs = [
            BatchSpec { tol: Some(1e-3), t_max: 30 },
            BatchSpec { tol: Some(1e-9), t_max: 30 },
            BatchSpec { tol: None, t_max: 5 },
        ];
        let b = block_rhs(n, specs.len(), 77);
        let batch = solve_mult_batch(&s, &b, &specs);
        assert!(batch.cycles[0] < batch.cycles[1], "loose tol must freeze earlier");
        for (c, spec) in specs.iter().enumerate() {
            let solo =
                solve_mult_probed(&s, &b[c * n..(c + 1) * n], spec.t_max, spec.tol, &NoopProbe);
            assert_eq!(batch.cycles[c], solo.history.len(), "col {c} cycle count");
            assert_eq!(batch.relres[c].to_bits(), solo.relres.to_bits(), "col {c}");
            for i in 0..n {
                assert_eq!(batch.x[c * n + i].to_bits(), solo.x[i].to_bits(), "col {c} row {i}");
            }
        }
    }

    /// One blocked residual per cycle is legal: a loop that recomputes
    /// `B − A X` at the top of every cycle gives every column the same bits,
    /// with columns freezing at different cycles.
    #[test]
    fn residual_reuse_matches_recomputing_every_cycle() {
        let s = setup_n(7, MgOptions::default());
        let n = s.n();
        let specs = [
            BatchSpec { tol: Some(1e-3), t_max: 30 },
            BatchSpec { tol: Some(1e-9), t_max: 30 },
            BatchSpec { tol: None, t_max: 5 },
        ];
        let nrhs = specs.len();
        let b = block_rhs(n, nrhs, 91);
        let batch = solve_mult_batch(&s, &b, &specs);
        assert!(batch.cycles[0] < batch.cycles[1] && batch.cycles[2] == 5);

        let mut scratch = BlockWorkspace::new(&s, nrhs);
        let mut x = vec![0.0; n * nrhs];
        let mut res = vec![0.0; n * nrhs];
        let mut history: Vec<Vec<f64>> = vec![Vec::new(); nrhs];
        let mut frozen: Vec<Option<Vec<f64>>> = vec![None; nrhs];
        for cycle in 0..30 {
            s.a(0).residual_block(nrhs, &b, &x, &mut scratch.r[0]);
            mult_vcycle_block(&s, nrhs, &mut x, &mut scratch);
            s.a(0).residual_block(nrhs, &b, &x, &mut res);
            for (c, spec) in specs.iter().enumerate() {
                if frozen[c].is_some() {
                    continue;
                }
                let col = c * n..(c + 1) * n;
                let rel = vecops::norm2(&res[col.clone()]) / vecops::norm2(&b[col.clone()]);
                history[c].push(rel);
                if spec.tol.is_some_and(|t| rel < t) || cycle + 1 == spec.t_max {
                    frozen[c] = Some(x[col].to_vec());
                }
            }
        }
        for c in 0..nrhs {
            assert_eq!(batch.cycles[c], history[c].len(), "col {c}");
            for (u, v) in batch.history[c].iter().zip(&history[c]) {
                assert_eq!(u.to_bits(), v.to_bits(), "col {c}");
            }
            let xc = frozen[c].as_ref().expect("every column stops within 30 cycles");
            for (u, v) in batch.x[c * n..(c + 1) * n].iter().zip(xc) {
                assert_eq!(u.to_bits(), v.to_bits(), "col {c}");
            }
        }
    }

    #[test]
    fn single_column_batch_equals_solo() {
        let s = setup_n(6, MgOptions::default());
        let n = s.n();
        let b = random_rhs(n, 5);
        let batch = solve_mult_batch(&s, &b, &[BatchSpec { tol: Some(1e-8), t_max: 40 }]);
        let solo = solve_mult_probed(&s, &b, 40, Some(1e-8), &NoopProbe);
        for i in 0..n {
            assert_eq!(batch.x[i].to_bits(), solo.x[i].to_bits(), "row {i}");
        }
        assert!(batch.relres[0] < 1e-8);
    }

    #[test]
    fn sick_columns_flags_nonfinite_and_diverged() {
        let healthy = BatchResult {
            x: vec![1.0, 2.0, 3.0, 4.0],
            relres: vec![1e-8, 0.5],
            cycles: vec![3, 3],
            history: vec![vec![1e-8], vec![0.5]],
        };
        assert!(healthy.sick_columns().is_empty());
        let sick = BatchResult {
            x: vec![1.0, f64::NAN, 3.0, 4.0, 5.0, 6.0],
            relres: vec![1e-8, f64::INFINITY, 1e9],
            cycles: vec![3, 3, 3],
            history: vec![Vec::new(); 3],
        };
        // Column 0 has a NaN entry, column 1 a non-finite residual, column 2
        // a diverged residual.
        assert_eq!(sick.sick_columns(), vec![0, 1, 2]);
    }

    #[test]
    fn workspace_ensure_reallocates_only_on_shape_change() {
        let s = setup_n(5, MgOptions::default());
        let mut ws = BlockWorkspace::new(&s, 2);
        let ptr = ws.r[0].as_ptr();
        ws.ensure(&s, 2);
        assert_eq!(ws.r[0].as_ptr(), ptr, "same shape must not reallocate");
        ws.ensure(&s, 4);
        assert_eq!(ws.nrhs(), 4);
    }
}
