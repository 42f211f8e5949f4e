//! The classical multiplicative V-cycle (Algorithm 1, "Mult"), run
//! sequentially: the cycle in `chain.rs` as a team of one.

use crate::chain::Chain;
use crate::setup::MgSetup;
use crate::solver::SolveReport;
use crate::workspace::Workspace;
use asyncmg_sparse::vecops;
use asyncmg_telemetry::Probe;
use asyncmg_threads::TeamCtx;
use std::time::Instant;

/// One multiplicative V(s₁,s₂)-cycle (`MgOptions::{n_pre, n_post}`):
/// updates `x` in place given the current fine-grid residual in
/// `scratch.r[0]`. Allocation-free: every vector it touches lives in the
/// pre-sized [`Workspace`].
pub fn mult_vcycle(setup: &MgSetup, x: &mut [f64], scratch: &mut Workspace) {
    let ctx = TeamCtx::solo();
    Chain::solo(setup, scratch, &ctx).vcycle(0);
    vecops::axpy(1.0, scratch.e[0].as_mut_slice(), x);
}

/// The coarse-grid half of a multiplicative cycle, for callers that own the
/// fine level themselves (the sharded hub): restricts the fine-grid
/// residual `r_fine`, runs the V-cycle over levels `1..`, and prolongates
/// the level-1 correction into `c_fine` (overwritten). Returns `false`
/// without touching `c_fine` when the hierarchy has no coarse level.
pub fn coarse_correction(
    setup: &MgSetup,
    r_fine: &[f64],
    c_fine: &mut [f64],
    scratch: &mut Workspace,
) -> bool {
    if setup.n_levels() < 2 {
        return false;
    }
    setup.r(0).spmv(r_fine, scratch.r[1].as_mut_slice());
    let ctx = TeamCtx::solo();
    Chain::solo(setup, scratch, &ctx).vcycle(1);
    setup.p(0).spmv(scratch.e[1].as_mut_slice(), c_fine);
    true
}

/// Runs up to `t_max` multiplicative V-cycles from `x = 0`, recording
/// the relative residual after each cycle,
/// with tolerance-based early stopping and telemetry: each
/// cycle reports one correction event (the whole V-cycle, attributed to
/// grid 0, so the report has one `grid_corrections` entry) and one residual
/// sample to `probe`, and the run ends as soon as the relative residual
/// drops below `tol` (when given).
pub fn solve_mult_probed<P: Probe + ?Sized>(
    setup: &MgSetup,
    b: &[f64],
    t_max: usize,
    tol: Option<f64>,
    probe: &P,
) -> SolveReport {
    let epoch = Instant::now();
    let n = setup.n();
    let nb = vecops::norm2(b);
    let mut x = vec![0.0; n];
    // All per-cycle temporaries are pre-sized here; the loop below performs
    // no heap allocation.
    let mut scratch = Workspace::new(setup);
    let mut history = Vec::with_capacity(t_max);
    // One fine-grid residual per cycle: the end-of-cycle residual the
    // tolerance check needs is the next cycle's input, so it is computed
    // straight into `scratch.r[0]` (which the finished cycle no longer reads).
    setup.op(0).residual(b, &x, scratch.r[0].as_mut_slice());
    for cycle in 0..t_max {
        mult_vcycle(setup, &mut x, &mut scratch);
        setup.op(0).residual(b, &x, scratch.r[0].as_mut_slice());
        let rn = vecops::norm2(scratch.r[0].as_mut_slice());
        let rel = if nb > 0.0 { rn / nb } else { rn };
        history.push(rel);
        if probe.enabled() {
            let t_ns = epoch.elapsed().as_nanos() as u64;
            probe.correction(0, 0, cycle, t_ns, rel);
            probe.residual_sample(t_ns, rel);
        }
        if tol.is_some_and(|t| rel < t) {
            break;
        }
    }
    SolveReport::sequential(x, history, 1, tol, epoch.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::MgOptions;
    use crate::solver::{Method, Solver};
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_27pt, stencil::laplacian_7pt};
    use asyncmg_smoothers::SmootherKind;

    fn setup_n(n: usize, opts: MgOptions) -> MgSetup {
        let a = laplacian_7pt(n, n, n);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, opts)
    }

    fn run_mult(s: &MgSetup, b: &[f64], t_max: usize) -> SolveReport {
        Solver::new(s).method(Method::Mult).threads(0).t_max(t_max).run(b)
    }

    #[test]
    fn mult_converges_fast() {
        let s = setup_n(8, MgOptions::default());
        let b = random_rhs(s.n(), 11);
        let res = run_mult(&s, &b, 20);
        // Table I: sync Mult with ω-Jacobi needs ~75 cycles for 1e-9, i.e. a
        // convergence factor around 0.76; our hierarchy does a bit better.
        assert!(res.relres < 1e-4, "relres {}", res.relres);
        let res40 = run_mult(&s, &b, 40);
        assert!(res40.relres < 1e-9, "relres {}", res40.relres);
    }

    #[test]
    fn mult_converges_for_all_smoothers() {
        for kind in [
            SmootherKind::WJacobi { omega: 0.9 },
            SmootherKind::L1Jacobi,
            SmootherKind::HybridJgs,
            SmootherKind::AsyncGs,
        ] {
            let s = setup_n(6, MgOptions { smoother: kind, ..Default::default() });
            let b = random_rhs(s.n(), 2);
            let res = run_mult(&s, &b, 25);
            assert!(res.relres < 1e-7, "{}: {}", kind.name(), res.relres);
        }
    }

    #[test]
    fn grid_size_independent_convergence() {
        // The multigrid hallmark: residual reduction per cycle roughly flat
        // across problem sizes.
        let mut factors = Vec::new();
        for n in [6usize, 8, 10] {
            let s = setup_n(n, MgOptions::default());
            let b = random_rhs(s.n(), 7);
            let res = run_mult(&s, &b, 10);
            let f = (res.history[9] / res.history[4]).powf(1.0 / 5.0);
            factors.push(f);
        }
        for f in &factors {
            assert!(*f < 0.6, "convergence factor {f} too large: {factors:?}");
        }
        let spread = factors.iter().cloned().fold(0.0f64, f64::max)
            - factors.iter().cloned().fold(1.0f64, f64::min);
        assert!(spread < 0.3, "factors vary too much: {factors:?}");
    }

    #[test]
    fn mult_27pt_converges() {
        let a = laplacian_27pt(8, 8, 8);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s = MgSetup::new(h, MgOptions::default());
        let b = random_rhs(s.n(), 13);
        let res = run_mult(&s, &b, 20);
        assert!(res.relres < 1e-7, "relres {}", res.relres);
    }

    #[test]
    fn blocked_kernel_solve_is_bit_identical_to_csr() {
        // The whole point of the kernel layer: switching Csr ↔ Bsr must not
        // change a single bit of the solve.
        use asyncmg_problems::elasticity::elasticity_beam;
        use asyncmg_sparse::KernelSelect;
        let a = elasticity_beam(4, 2, 2, [4.0, 1.0, 1.0], Default::default());
        let b = random_rhs(a.nrows(), 5);
        let mut runs = Vec::new();
        for kernel in [KernelSelect::Csr, KernelSelect::Bsr] {
            let aopts = AmgOptions { num_functions: 3, kernel, ..AmgOptions::default() };
            let h = build_hierarchy(a.clone(), &aopts);
            // Elasticity needs the paper's damped settings (ω = 0.5 territory);
            // ℓ1-Jacobi gives guaranteed monotone decay on SPD systems.
            let mopts = MgOptions {
                smoother: SmootherKind::L1Jacobi,
                interp_omega: 0.5,
                ..Default::default()
            };
            let s = MgSetup::new(h, mopts);
            if kernel == KernelSelect::Bsr {
                assert_eq!(s.op(0).label(), "bsr", "fine elasticity level should be blocked");
            }
            runs.push(run_mult(&s, &b, 8));
        }
        // Scalar AMG on elasticity converges slowly (~0.94/cycle, see
        // bench/table1); just confirm the blocked run makes real progress.
        assert!(runs[1].relres.is_finite() && runs[1].relres < 0.9, "relres {}", runs[1].relres);
        for (u, v) in runs[0].x.iter().zip(&runs[1].x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert_eq!(runs[0].history, runs[1].history);
    }

    /// The driver computes one fine residual per cycle (the end-of-cycle
    /// check feeds the next cycle); a loop that recomputes `b − A x` at the
    /// top of every cycle must give the same bits.
    #[test]
    fn residual_reuse_matches_recomputing_every_cycle() {
        use asyncmg_telemetry::NoopProbe;
        let s = setup_n(7, MgOptions::default());
        let b = random_rhs(s.n(), 31);
        let nb = vecops::norm2(&b);
        for tol in [None, Some(1e-3)] {
            let (mut x, mut history) = (vec![0.0; s.n()], Vec::new());
            let mut scratch = Workspace::new(&s);
            let mut res = vec![0.0; s.n()];
            for _ in 0..12 {
                s.op(0).residual(&b, &x, scratch.r[0].as_mut_slice());
                mult_vcycle(&s, &mut x, &mut scratch);
                s.op(0).residual(&b, &x, &mut res);
                history.push(vecops::norm2(&res) / nb);
                if tol.is_some_and(|t| *history.last().unwrap() < t) {
                    break;
                }
            }
            let run = solve_mult_probed(&s, &b, 12, tol, &NoopProbe);
            assert_eq!(run.history.len(), history.len());
            assert!(tol.is_none() || history.len() < 12, "tolerance must stop the run early");
            for (u, v) in run.history.iter().zip(&history) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
            for (u, v) in run.x.iter().zip(&x) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn zero_rhs_stays_zero() {
        let s = setup_n(5, MgOptions::default());
        let b = vec![0.0; s.n()];
        let res = run_mult(&s, &b, 3);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn v22_cycle_converges_faster_than_v11() {
        let a = laplacian_7pt(7, 7, 7);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s11 = MgSetup::new(h.clone(), MgOptions::default());
        let s22 = MgSetup::new(h, MgOptions { n_pre: 2, n_post: 2, ..Default::default() });
        let b = random_rhs(s11.n(), 21);
        let r11 = run_mult(&s11, &b, 10);
        let r22 = run_mult(&s22, &b, 10);
        assert!(r22.relres < r11.relres, "V(2,2) {} should beat V(1,1) {}", r22.relres, r11.relres);
    }
}
