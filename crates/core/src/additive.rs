//! Additive multigrid corrections and the synchronous additive solvers
//! (BPX, Multadd, AFACx — Section II.B of the paper).
//!
//! Each additive method is characterised by the fine-grid correction its
//! grid `k` contributes:
//!
//! * **BPX** (Eq. 1): `P_k⁰ Λ_k (P_k⁰)ᵀ r` with plain interpolants,
//! * **Multadd** (Eq. 2): `P̄_k⁰ Λ_k (P̄_k⁰)ᵀ r` with *smoothed* interpolants
//!   and the symmetrized smoother `Λ_k = M̄_k⁻¹`,
//! * **AFACx** (Algorithm 2): a two-grid smoothing process with the modified
//!   right-hand side `r_k − A_k P e_{k+1}` that avoids over-correction.
//!
//! [`grid_correction`] computes one grid's correction from a fine-grid
//! residual: the chain in `chain.rs` run as a team of one, the same code
//! the asynchronous thread teams run. The synchronous solver here, the
//! simulation models and the additive preconditioner call it.

use crate::chain::Chain;
use crate::setup::MgSetup;
use crate::solver::SolveReport;
use crate::workspace::Workspace;
use asyncmg_sparse::vecops;
use asyncmg_telemetry::Probe;
use asyncmg_threads::TeamCtx;
use std::time::Instant;

/// The additive methods of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdditiveMethod {
    /// Additive variant of the multiplicative method (smoothed interpolants).
    Multadd,
    /// Asynchronous fast adaptive composite grid method with smoothing.
    Afacx,
    /// The classical BPX preconditioner (diverges as a solver; kept for
    /// study and tests).
    Bpx,
}

impl AdditiveMethod {
    /// Whether this method restricts/prolongates with the smoothed
    /// interpolants `P̄`.
    pub fn uses_smoothed_interpolants(self) -> bool {
        matches!(self, AdditiveMethod::Multadd)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AdditiveMethod::Multadd => "Multadd",
            AdditiveMethod::Afacx => "AFACx",
            AdditiveMethod::Bpx => "BPX",
        }
    }
}

/// Computes grid `k`'s additive correction from the fine-grid residual `r`,
/// writing it into `out` (fine-grid length). `scratch` is reused across
/// calls.
pub fn grid_correction(
    setup: &MgSetup,
    method: AdditiveMethod,
    k: usize,
    r: &[f64],
    out: &mut [f64],
    scratch: &mut Workspace,
) {
    let ctx = TeamCtx::solo();
    Chain::solo(setup, scratch, &ctx).correction(method, k, r, &mut |_| {});
    out.copy_from_slice(scratch.e[0].as_mut_slice());
}

/// Runs up to `t_max` synchronous additive V-cycles starting from `x = 0`:
/// each cycle starts from `r = b − A x`, every grid contributes its
/// correction from the *same* residual, and the corrections are summed.
/// Each cycle reports one correction event per grid and one residual sample
/// to `probe`, and the run ends as soon as the relative residual drops below
/// `tol` (when given). Every grid reports the cycle count as its
/// corrections.
pub fn solve_additive_probed<P: Probe + ?Sized>(
    setup: &MgSetup,
    method: AdditiveMethod,
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
    let (mut r, mut corr) = (vec![0.0; n], vec![0.0; n]);
    let mut history = Vec::with_capacity(t_max);
    // One fine-grid residual per cycle: the end-of-cycle residual of the
    // tolerance check is the next cycle's input.
    setup.op(0).residual(b, &x, &mut r);
    for cycle in 0..t_max {
        for k in 0..setup.n_levels() {
            grid_correction(setup, method, k, &r, &mut corr, &mut scratch);
            vecops::axpy(1.0, &corr, &mut x);
            if probe.enabled() {
                let t_ns = epoch.elapsed().as_nanos() as u64;
                probe.correction(0, k, cycle, t_ns, f64::NAN);
            }
        }
        setup.op(0).residual(b, &x, &mut r);
        let rel = if nb > 0.0 { vecops::norm2(&r) / nb } else { vecops::norm2(&r) };
        history.push(rel);
        if probe.enabled() {
            probe.residual_sample(epoch.elapsed().as_nanos() as u64, rel);
        }
        if tol.is_some_and(|t| rel < t) {
            break;
        }
    }
    SolveReport::sequential(x, history, setup.n_levels(), tol, epoch.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::MgOptions;
    use crate::solver::{Method, Solver};
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
    use asyncmg_smoothers::SmootherKind;

    fn setup(n: usize, opts: MgOptions) -> MgSetup {
        let a = laplacian_7pt(n, n, n);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, opts)
    }

    fn run_additive(s: &MgSetup, method: Method, b: &[f64], t_max: usize) -> SolveReport {
        Solver::new(s).method(method).threads(0).t_max(t_max).run(b)
    }

    #[test]
    fn multadd_converges() {
        let s = setup(8, MgOptions::default());
        let b = random_rhs(s.n(), 3);
        let res = run_additive(&s, Method::Multadd, &b, 30);
        assert!(res.relres < 1e-6, "Multadd relres {} after 30 cycles", res.relres);
    }

    #[test]
    fn afacx_converges() {
        let s = setup(8, MgOptions::default());
        let b = random_rhs(s.n(), 3);
        let res = run_additive(&s, Method::Afacx, &b, 60);
        assert!(res.relres < 1e-5, "AFACx relres {}", res.relres);
    }

    #[test]
    fn bpx_overcorrects_as_a_solver() {
        // Section II.B: plain BPX used as a solver over-corrects and
        // diverges (or stagnates) — exactly why Multadd/AFACx exist.
        let s = setup(8, MgOptions::default());
        let b = random_rhs(s.n(), 3);
        let res = run_additive(&s, Method::Bpx, &b, 20);
        let multadd = run_additive(&s, Method::Multadd, &b, 20);
        assert!(
            res.relres > 10.0 * multadd.relres,
            "BPX {} vs Multadd {}",
            res.relres,
            multadd.relres
        );
    }

    #[test]
    fn multadd_with_all_smoothers_converges() {
        for kind in [
            SmootherKind::WJacobi { omega: 0.9 },
            SmootherKind::L1Jacobi,
            SmootherKind::HybridJgs,
            SmootherKind::AsyncGs,
        ] {
            let s = setup(6, MgOptions { smoother: kind, ..Default::default() });
            let b = random_rhs(s.n(), 5);
            let res = run_additive(&s, Method::Multadd, &b, 40);
            assert!(res.relres < 1e-5, "{}: {}", kind.name(), res.relres);
        }
    }

    #[test]
    fn corrections_restricted_consistently() {
        // Grid 0 correction for Multadd is Λ₀ r (no interpolation at all).
        let s = setup(6, MgOptions::default());
        let b = random_rhs(s.n(), 1);
        let mut scratch = Workspace::new(&s);
        let mut out = vec![0.0; s.n()];
        grid_correction(&s, AdditiveMethod::Multadd, 0, &b, &mut out, &mut scratch);
        let mut expect = vec![0.0; s.n()];
        let mut buf = vec![0.0; s.n()];
        s.smoothers[0].multadd_lambda(s.a(0), &b, &mut expect, &mut buf);
        for i in 0..s.n() {
            assert!((out[i] - expect[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn coarsest_grid_correction_solves_restricted_system() {
        let s = setup(6, MgOptions::default());
        let ell = s.n_levels() - 1;
        let b = random_rhs(s.n(), 2);
        let mut scratch = Workspace::new(&s);
        let mut out = vec![0.0; s.n()];
        grid_correction(&s, AdditiveMethod::Multadd, ell, &b, &mut out, &mut scratch);
        // The correction must be nonzero and fine-grid sized.
        assert!(vecops::norm2(&out) > 0.0);
    }

    /// Hoisting the first residual out of the loop changes nothing: a loop
    /// that recomputes `b − A x` at the top of every cycle gives the same
    /// bits in `x` and `history`.
    #[test]
    fn residual_reuse_matches_recomputing_every_cycle() {
        use asyncmg_telemetry::NoopProbe;
        let s = setup(6, MgOptions::default());
        let b = random_rhs(s.n(), 8);
        let nb = vecops::norm2(&b);
        for (method, tol) in [
            (AdditiveMethod::Multadd, None),
            (AdditiveMethod::Multadd, Some(1e-4)),
            (AdditiveMethod::Afacx, None),
        ] {
            let n = s.n();
            let (mut x, mut r, mut corr) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut scratch = Workspace::new(&s);
            let mut history = Vec::new();
            for _ in 0..25 {
                s.op(0).residual(&b, &x, &mut r);
                for k in 0..s.n_levels() {
                    grid_correction(&s, method, k, &r, &mut corr, &mut scratch);
                    vecops::axpy(1.0, &corr, &mut x);
                }
                s.op(0).residual(&b, &x, &mut r);
                history.push(vecops::norm2(&r) / nb);
                if tol.is_some_and(|t| *history.last().unwrap() < t) {
                    break;
                }
            }
            let run = solve_additive_probed(&s, method, &b, 25, tol, &NoopProbe);
            assert_eq!(run.history.len(), history.len(), "{}", method.name());
            assert!(tol.is_none() || history.len() < 25, "tolerance must stop the run early");
            for (u, v) in run.history.iter().zip(&history) {
                assert_eq!(u.to_bits(), v.to_bits(), "{}", method.name());
            }
            for (u, v) in run.x.iter().zip(&x) {
                assert_eq!(u.to_bits(), v.to_bits(), "{}", method.name());
            }
        }
    }

    #[test]
    fn history_is_recorded_per_cycle() {
        let s = setup(5, MgOptions::default());
        let b = random_rhs(s.n(), 4);
        let res = run_additive(&s, Method::Multadd, &b, 7);
        assert_eq!(res.history.len(), 7);
        // Broadly decreasing.
        assert!(res.history.last().unwrap() < res.history.first().unwrap());
    }
}
