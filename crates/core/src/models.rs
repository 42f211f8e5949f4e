//! Sequential simulation of the asynchronous multigrid models
//! (Section III, Equations 6, 7 and 10).
//!
//! Grid `k` has an update probability `p_k` drawn once from `U[α, 1]`; at
//! each time instant every still-active grid updates with its probability,
//! reading solution (or residual) components from a bounded-delay history.
//! The delay sampling follows the paper with the `min` → `max` correction
//! discussed in DESIGN.md: `z ∈ (max(z_k(τ_k), t − δ), t]`, so reads never
//! go backwards and never exceed the maximum delay δ.

use crate::additive::{grid_correction, AdditiveMethod};
use crate::setup::MgSetup;
use crate::workspace::Workspace;
use asyncmg_sparse::vecops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which asynchronous model to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Equation 6: whole-vector reads from a single past instant.
    SemiAsync,
    /// Equation 7: per-component reads of the solution vector.
    FullAsyncSolution,
    /// Equation 10: per-component reads of the residual vector.
    FullAsyncResidual,
}

/// Simulation parameters.
///
/// Marked `#[non_exhaustive]`: construct with [`ModelOptions::default`] and
/// assign the fields you need.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct ModelOptions {
    /// The model to simulate.
    pub model: ModelKind,
    /// Minimum update probability α (`p_k ~ U[α, 1]`).
    pub alpha: f64,
    /// Maximum read delay δ.
    pub delta: usize,
    /// Updates per grid before it stops (the paper uses 20).
    pub updates_per_grid: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            model: ModelKind::SemiAsync,
            alpha: 0.5,
            delta: 0,
            updates_per_grid: 20,
            seed: 1,
        }
    }
}

impl ModelOptions {
    /// Validates field ranges, returning a description of the first
    /// violation. [`simulate`] panics on the same conditions.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha.is_finite() && self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha {} out of (0, 1]", self.alpha));
        }
        if self.updates_per_grid == 0 {
            return Err("updates_per_grid must be positive".into());
        }
        Ok(())
    }
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct ModelResult {
    /// Final approximation.
    pub x: Vec<f64>,
    /// Final relative residual 2-norm.
    pub final_relres: f64,
    /// Number of time instants simulated.
    pub instants: usize,
    /// Updates performed by each grid.
    pub grid_updates: Vec<usize>,
}

/// A ring buffer of the last `δ + 1` vector snapshots.
struct History {
    snaps: Vec<Vec<f64>>,
    newest: usize, // time instant of snaps[newest % len]
}

impl History {
    fn new(initial: Vec<f64>, delta: usize) -> Self {
        let len = delta + 1;
        let snaps = vec![initial; len];
        History { snaps, newest: 0 }
    }

    fn at(&self, t: usize) -> &[f64] {
        debug_assert!(t <= self.newest && t + self.snaps.len() > self.newest);
        &self.snaps[t % self.snaps.len()]
    }

    fn push(&mut self, t: usize, v: &[f64]) {
        debug_assert_eq!(t, self.newest + 1);
        let len = self.snaps.len();
        self.snaps[t % len].copy_from_slice(v);
        self.newest = t;
    }
}

/// Simulates the chosen asynchronous model of the additive method `method`
/// on `A x = b` (from `x = 0`).
///
/// # Reproducibility
///
/// The simulation is fully deterministic: all randomness (per-grid update
/// probabilities and delay draws) comes from a [`StdRng`] seeded with
/// `opts.seed`, and the update sweep is sequential. Calling `simulate`
/// twice with the same `setup`, `method`, `b`, and `ModelOptions` returns a
/// bit-identical [`ModelResult`] — every element of `x`, `final_relres`,
/// `instants`, and `grid_updates` — on any machine with IEEE-754 `f64`
/// arithmetic. Tests may therefore assert exact equality on replays;
/// [`simulate_mean`] inherits the guarantee run by run.
pub fn simulate(
    setup: &MgSetup,
    method: AdditiveMethod,
    b: &[f64],
    opts: &ModelOptions,
) -> ModelResult {
    if let Err(msg) = opts.validate() {
        panic!("invalid ModelOptions: {msg}");
    }
    let n = setup.n();
    let ngrids = setup.n_levels();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let p: Vec<f64> = (0..ngrids).map(|_| rng.gen_range(opts.alpha..=1.0)).collect();

    let residual_based = opts.model == ModelKind::FullAsyncResidual;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // current residual (residual-based model)
    let mut history = if residual_based {
        History::new(r.clone(), opts.delta)
    } else {
        History::new(x.clone(), opts.delta)
    };

    // Last-read instants: per grid (semi) or per grid per component (full).
    let mut last_whole = vec![0usize; ngrids];
    let mut last_comp: Vec<Vec<u32>> = match opts.model {
        ModelKind::SemiAsync => Vec::new(),
        _ => vec![vec![0u32; n]; ngrids],
    };

    let mut scratch = Workspace::new(setup);
    let mut corr = vec![0.0; n];
    let mut sum = vec![0.0; n];
    let mut read = vec![0.0; n];
    let mut rbuf = vec![0.0; n];
    let mut updates = vec![0usize; ngrids];

    let nb = vecops::norm2(b);
    let cap = opts.updates_per_grid * 200 / (opts.alpha.min(1.0) as usize + 1).max(1)
        + opts.updates_per_grid * 1000;
    let mut t = 0usize;
    while updates.iter().any(|&u| u < opts.updates_per_grid) && t < cap {
        vecops::zero_rows(0..n, &mut sum);
        let mut any = false;
        for k in 0..ngrids {
            if updates[k] >= opts.updates_per_grid || !rng.gen_bool(p[k]) {
                continue;
            }
            any = true;
            // Assemble the vector this grid reads.
            match opts.model {
                ModelKind::SemiAsync => {
                    let lo = last_whole[k].max(t.saturating_sub(opts.delta));
                    let z = if lo >= t { t } else { rng.gen_range(lo + 1..=t) };
                    last_whole[k] = z;
                    read.copy_from_slice(history.at(z));
                }
                ModelKind::FullAsyncSolution | ModelKind::FullAsyncResidual => {
                    let lc = &mut last_comp[k];
                    for i in 0..n {
                        let lo = (lc[i] as usize).max(t.saturating_sub(opts.delta));
                        let z = if lo >= t { t } else { rng.gen_range(lo + 1..=t) };
                        lc[i] = z as u32;
                        read[i] = history.at(z)[i];
                    }
                }
            }
            if residual_based {
                // C_k applied directly to the (mixed-instant) residual.
                grid_correction(setup, method, k, &read, &mut corr, &mut scratch);
            } else {
                // B_k(x) = correction from the residual b − A x_read.
                setup.op(0).residual(b, &read, &mut rbuf);
                grid_correction(setup, method, k, &rbuf, &mut corr, &mut scratch);
            }
            vecops::axpy(1.0, &corr, &mut sum);
            updates[k] += 1;
        }
        // Advance one time instant.
        t += 1;
        if residual_based {
            // r ← r − A Σ corrections; x tracks the accumulated corrections.
            setup.op(0).spmv(&sum, &mut rbuf);
            for i in 0..n {
                r[i] -= rbuf[i];
                x[i] += sum[i];
            }
            history.push(t, &r);
        } else {
            vecops::axpy(1.0, &sum, &mut x);
            history.push(t, &x);
        }
        let _ = any;
    }

    let final_relres = if residual_based {
        if nb > 0.0 {
            vecops::norm2(&r) / nb
        } else {
            vecops::norm2(&r)
        }
    } else {
        setup.op(0).residual(b, &x, &mut rbuf);
        if nb > 0.0 {
            vecops::norm2(&rbuf) / nb
        } else {
            vecops::norm2(&rbuf)
        }
    };
    ModelResult { x, final_relres, instants: t, grid_updates: updates }
}

/// Mean final relative residual over `runs` seeded simulations (the paper
/// reports means of 20 runs).
pub fn simulate_mean(
    setup: &MgSetup,
    method: AdditiveMethod,
    b: &[f64],
    opts: &ModelOptions,
    runs: usize,
) -> f64 {
    let mut acc = 0.0;
    for run in 0..runs {
        let o = ModelOptions { seed: opts.seed.wrapping_add(run as u64 * 7919), ..*opts };
        acc += simulate(setup, method, b, &o).final_relres;
    }
    acc / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::MgOptions;
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};

    fn setup_n(n: usize) -> MgSetup {
        let a = laplacian_7pt(n, n, n);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, MgOptions::default())
    }

    #[test]
    fn alpha_one_delta_zero_matches_synchronous_additive() {
        // With p_k ≡ 1 and δ = 0, the semi-async model *is* the synchronous
        // additive method.
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let opts =
            ModelOptions { alpha: 1.0, delta: 0, updates_per_grid: 10, ..Default::default() };
        let sim = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        let sync = crate::additive::solve_additive_probed(
            &s,
            AdditiveMethod::Multadd,
            &b,
            10,
            None,
            &asyncmg_telemetry::NoopProbe,
        );
        assert_eq!(sim.instants, 10);
        assert!(
            (sim.final_relres - sync.relres).abs() < 1e-10 * sync.relres.max(1e-30),
            "sim {} vs sync {}",
            sim.final_relres,
            sync.relres
        );
    }

    #[test]
    fn semi_async_converges_with_small_alpha() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 5);
        let opts =
            ModelOptions { alpha: 0.1, delta: 0, updates_per_grid: 20, ..Default::default() };
        let sim = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        assert!(sim.final_relres < 1e-3, "relres {}", sim.final_relres);
        assert!(sim.grid_updates.iter().all(|&u| u == 20));
        assert!(sim.instants >= 20);
    }

    #[test]
    fn full_async_solution_converges_with_delay() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 5);
        let opts = ModelOptions {
            model: ModelKind::FullAsyncSolution,
            alpha: 0.3,
            delta: 4,
            updates_per_grid: 20,
            ..Default::default()
        };
        let sim = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        assert!(sim.final_relres < 1e-2, "relres {}", sim.final_relres);
    }

    #[test]
    fn full_async_residual_converges_with_delay() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 5);
        let opts = ModelOptions {
            model: ModelKind::FullAsyncResidual,
            alpha: 0.3,
            delta: 4,
            updates_per_grid: 20,
            ..Default::default()
        };
        let sim = simulate(&s, AdditiveMethod::Afacx, &b, &opts);
        assert!(sim.final_relres < 1e-1, "relres {}", sim.final_relres);
    }

    #[test]
    fn residual_based_x_is_consistent_with_r_when_delta_zero_alpha_one() {
        // With no asynchrony the tracked x must satisfy r = b − A x.
        let s = setup_n(5);
        let b = random_rhs(s.n(), 9);
        let opts = ModelOptions {
            model: ModelKind::FullAsyncResidual,
            alpha: 1.0,
            delta: 0,
            updates_per_grid: 8,
            ..Default::default()
        };
        let sim = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        let mut r = vec![0.0; s.n()];
        s.a(0).residual(&b, &sim.x, &mut r);
        let diff = vecops::norm2(&r) / vecops::norm2(&b);
        assert!(
            (diff - sim.final_relres).abs() < 1e-9,
            "tracked {} vs recomputed {}",
            sim.final_relres,
            diff
        );
    }

    #[test]
    fn smaller_alpha_converges_slower() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 4);
        let hi = ModelOptions { alpha: 0.9, updates_per_grid: 15, ..Default::default() };
        let lo = ModelOptions { alpha: 0.1, updates_per_grid: 15, ..Default::default() };
        let r_hi = simulate_mean(&s, AdditiveMethod::Multadd, &b, &hi, 5);
        let r_lo = simulate_mean(&s, AdditiveMethod::Multadd, &b, &lo, 5);
        assert!(r_lo > r_hi, "alpha .1 ({r_lo}) should be worse than .9 ({r_hi})");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = setup_n(5);
        let b = random_rhs(s.n(), 1);
        let opts =
            ModelOptions { alpha: 0.4, delta: 2, updates_per_grid: 10, ..Default::default() };
        let a = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        let c = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        assert_eq!(a.final_relres, c.final_relres);
        assert_eq!(a.instants, c.instants);
    }

    #[test]
    fn zero_delay_collapses_all_models_to_same_trajectory() {
        // With δ = 0 every read is the current vector and no delay samples
        // are drawn, so for a fixed seed the three models follow the exact
        // same trajectory.
        let s = setup_n(5);
        let b = random_rhs(s.n(), 12);
        let mk =
            |model| ModelOptions { model, alpha: 0.6, delta: 0, updates_per_grid: 12, seed: 31 };
        let semi = simulate(&s, AdditiveMethod::Multadd, &b, &mk(ModelKind::SemiAsync));
        let full = simulate(&s, AdditiveMethod::Multadd, &b, &mk(ModelKind::FullAsyncSolution));
        assert_eq!(semi.instants, full.instants);
        assert!(
            (semi.final_relres - full.final_relres).abs() < 1e-12 * semi.final_relres.max(1e-30)
        );
        for (a, c) in semi.x.iter().zip(&full.x) {
            assert!((a - c).abs() < 1e-14 * a.abs().max(1e-30));
        }
    }

    #[test]
    fn grids_stop_after_exactly_the_requested_updates() {
        let s = setup_n(5);
        let b = random_rhs(s.n(), 13);
        let opts = ModelOptions { alpha: 0.3, updates_per_grid: 7, ..Default::default() };
        let sim = simulate(&s, AdditiveMethod::Afacx, &b, &opts);
        assert!(sim.grid_updates.iter().all(|&u| u == 7), "{:?}", sim.grid_updates);
        // With α < 1 some instants must have skipped grids.
        assert!(sim.instants > 7);
    }

    #[test]
    fn bpx_model_overcorrects_too() {
        // The over-correction of BPX survives in the asynchronous model.
        let s = setup_n(5);
        let b = random_rhs(s.n(), 14);
        let opts = ModelOptions { alpha: 0.9, updates_per_grid: 12, ..Default::default() };
        let bpx = simulate(&s, AdditiveMethod::Bpx, &b, &opts);
        let ma = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        assert!(bpx.final_relres > 10.0 * ma.final_relres);
    }
}
