//! Preconditioned conjugate gradients.
//!
//! Section II.B notes that BPX "is typically used as a preconditioner"
//! because, as an additive solver, it over-corrects and diverges. This
//! module provides the CG solver that realises that use: any of the
//! multigrid operators of this crate (one multiplicative V-cycle, one BPX
//! application, one Multadd application) can serve as the SPD
//! preconditioner `B ≈ A⁻¹`.

use crate::additive::{grid_correction, AdditiveMethod};
use crate::mult::mult_vcycle;
use crate::setup::MgSetup;
use crate::solver::SolveReport;
use crate::workspace::Workspace;
use asyncmg_sparse::{vecops, Csr};
use asyncmg_telemetry::{NoopProbe, Probe};
use std::time::Instant;

/// An SPD preconditioner application `z = B r`.
pub trait Preconditioner {
    /// Applies the preconditioner.
    fn apply(&mut self, r: &[f64], z: &mut [f64]);
}

/// No preconditioning (`B = I`).
pub struct IdentityPrec;

impl Preconditioner for IdentityPrec {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Jacobi (diagonal) preconditioning.
pub struct JacobiPrec {
    inv_diag: Vec<f64>,
}

impl JacobiPrec {
    /// Builds from the matrix diagonal.
    pub fn new(a: &Csr) -> Self {
        JacobiPrec {
            inv_diag: a.diag().iter().map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 }).collect(),
        }
    }
}

impl Preconditioner for JacobiPrec {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        for i in 0..r.len() {
            z[i] = self.inv_diag[i] * r[i];
        }
    }
}

/// One multiplicative V(1,1)-cycle as a preconditioner.
///
/// With a symmetric smoother (Jacobi variants) the V(1,1)-cycle operator is
/// SPD, as required by CG.
pub struct VCyclePrec<'a> {
    setup: &'a MgSetup,
    scratch: Workspace,
}

impl<'a> VCyclePrec<'a> {
    /// Builds the preconditioner.
    pub fn new(setup: &'a MgSetup) -> Self {
        VCyclePrec { setup, scratch: Workspace::new(setup) }
    }
}

impl Preconditioner for VCyclePrec<'_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|v| *v = 0.0);
        self.scratch.r[0].as_mut_slice().copy_from_slice(r);
        mult_vcycle(self.setup, z, &mut self.scratch);
    }
}

/// One application of an additive method (BPX or Multadd) as a
/// preconditioner: `z = Σ_k P_k Λ_k P_kᵀ r`.
pub struct AdditivePrec<'a> {
    setup: &'a MgSetup,
    method: AdditiveMethod,
    scratch: Workspace,
    corr: Vec<f64>,
}

impl<'a> AdditivePrec<'a> {
    /// Builds the preconditioner for `method`.
    pub fn new(setup: &'a MgSetup, method: AdditiveMethod) -> Self {
        AdditivePrec { setup, method, scratch: Workspace::new(setup), corr: vec![0.0; setup.n()] }
    }
}

impl Preconditioner for AdditivePrec<'_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|v| *v = 0.0);
        for k in 0..self.setup.n_levels() {
            grid_correction(self.setup, self.method, k, r, &mut self.corr, &mut self.scratch);
            vecops::axpy(1.0, &self.corr, z);
        }
    }
}

/// Preconditioned conjugate gradients for SPD `A`, from `x = 0`, until
/// `‖r‖₂/‖b‖₂ < tol` or `max_iter` iterations. The report's `history` and
/// `relres` are recurrence residuals, and its one `grid_corrections` entry
/// is the iteration count.
pub fn pcg<P: Preconditioner>(
    a: &Csr,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    prec: &mut P,
) -> SolveReport {
    pcg_probed(a, b, tol, max_iter, prec, &NoopProbe)
}

/// [`pcg`] with telemetry: the recurrence residual of every iteration is
/// sampled into `probe`.
pub fn pcg_probed<P: Preconditioner, Pr: Probe + ?Sized>(
    a: &Csr,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    prec: &mut P,
    probe: &Pr,
) -> SolveReport {
    let epoch = Instant::now();
    let n = a.nrows();
    let nb = vecops::norm2(b).max(1e-300);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    prec.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = vecops::dot(&r, &z);
    let mut ap = vec![0.0; n];
    let mut history = Vec::new();
    for _ in 0..max_iter {
        a.spmv(&p, &mut ap);
        let pap = vecops::dot(&p, &ap);
        if pap <= 0.0 {
            // Indefinite preconditioned operator (e.g. a divergent additive
            // method used as B): stop rather than produce garbage.
            break;
        }
        let alpha = rz / pap;
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(-alpha, &ap, &mut r);
        let rel = vecops::norm2(&r) / nb;
        history.push(rel);
        if probe.enabled() {
            probe.residual_sample(epoch.elapsed().as_nanos() as u64, rel);
        }
        if rel < tol {
            break;
        }
        prec.apply(&r, &mut z);
        let rz_new = vecops::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    SolveReport::sequential(x, history, 1, Some(tol), epoch.elapsed())
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
    fn plain_cg_converges_slowly() {
        let s = setup_n(8);
        let b = random_rhs(s.n(), 1);
        let res = pcg(s.a(0), &b, 1e-8, 500, &mut IdentityPrec);
        assert!(res.converged, "CG failed: {:?}", res.history.last());
        assert!(res.history.len() > 20, "unexpectedly fast: {}", res.history.len());
    }

    #[test]
    fn jacobi_prec_converges() {
        let s = setup_n(8);
        let b = random_rhs(s.n(), 2);
        let mut prec = JacobiPrec::new(s.a(0));
        let res = pcg(s.a(0), &b, 1e-8, 500, &mut prec);
        assert!(res.converged);
    }

    #[test]
    fn vcycle_prec_is_much_faster_than_plain_cg() {
        let s = setup_n(8);
        let b = random_rhs(s.n(), 3);
        let plain = pcg(s.a(0), &b, 1e-8, 500, &mut IdentityPrec);
        let mut prec = VCyclePrec::new(&s);
        let mg = pcg(s.a(0), &b, 1e-8, 500, &mut prec);
        assert!(mg.converged);
        assert!(
            mg.history.len() * 2 <= plain.history.len(),
            "V-cycle PCG {} its vs plain {} its",
            mg.history.len(),
            plain.history.len()
        );
        assert!(mg.history.len() <= 15, "{} iterations", mg.history.len());
    }

    #[test]
    fn bpx_preconditioner_makes_cg_converge() {
        // The paper's point: BPX diverges as a solver but works as a
        // preconditioner.
        let s = setup_n(8);
        let b = random_rhs(s.n(), 4);
        let solver = crate::solver::Solver::new(&s)
            .method(crate::solver::Method::Bpx)
            .threads(0)
            .t_max(20)
            .run(&b);
        assert!(solver.relres > 1.0, "BPX-as-solver should over-correct");
        let mut prec = AdditivePrec::new(&s, AdditiveMethod::Bpx);
        let res = pcg(s.a(0), &b, 1e-8, 200, &mut prec);
        assert!(res.converged, "BPX-PCG failed");
        assert!(res.history.len() <= 60, "{} iterations", res.history.len());
    }

    #[test]
    fn multadd_preconditioner_converges_fast() {
        let s = setup_n(8);
        let b = random_rhs(s.n(), 5);
        let mut prec = AdditivePrec::new(&s, AdditiveMethod::Multadd);
        let res = pcg(s.a(0), &b, 1e-8, 100, &mut prec);
        assert!(res.converged);
        assert!(res.history.len() <= 20, "{} iterations", res.history.len());
    }

    #[test]
    fn solution_matches_direct_solve() {
        let s = setup_n(6);
        let xs = random_rhs(s.n(), 6);
        let mut b = vec![0.0; s.n()];
        s.a(0).spmv(&xs, &mut b);
        let mut prec = VCyclePrec::new(&s);
        let res = pcg(s.a(0), &b, 1e-12, 200, &mut prec);
        assert!(res.converged);
        for (g, e) in res.x.iter().zip(&xs) {
            assert!((g - e).abs() < 1e-8, "{g} vs {e}");
        }
    }
}
