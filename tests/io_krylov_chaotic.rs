//! Cross-crate integration: Matrix Market I/O → AMG setup → preconditioned
//! CG, and the chaotic-relaxation baseline against the multigrid solvers.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::additive::AdditiveMethod;
use asyncmg_core::krylov::{pcg, AdditivePrec, IdentityPrec, VCyclePrec};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::NoopProbe;
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt, TestSet};
use asyncmg_smoothers::chaotic::{async_jacobi_solve, jacobi_solve, rho_abs_jacobi};
use asyncmg_sparse::io::{read_matrix_market, write_matrix_market};

#[test]
fn matrix_survives_io_roundtrip_and_still_solves() {
    let a = laplacian_7pt(8, 8, 8);
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).unwrap();
    let a2 = read_matrix_market(buf.as_slice()).unwrap();
    assert_eq!(a, a2);
    let b = random_rhs(a2.nrows(), 3);
    let s = MgSetup::new(build_hierarchy(a2, &AmgOptions::default()), MgOptions::default());
    let res = solve_mult_probed(&s, &b, 30, None, &NoopProbe);
    assert!(res.relres < 1e-8, "{}", res.relres);
}

#[test]
fn all_test_sets_roundtrip_through_matrix_market() {
    for set in TestSet::all() {
        let a = set.matrix(6);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let a2 = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, a2, "{} roundtrip", set.name());
    }
}

#[test]
fn pcg_with_multigrid_beats_plain_cg_on_fem_laplace() {
    let a = TestSet::FemLaplace.matrix(11);
    let b = random_rhs(a.nrows(), 5);
    let s = MgSetup::new(build_hierarchy(a.clone(), &AmgOptions::default()), MgOptions::default());
    let plain = pcg(&a, &b, 1e-9, 2000, &mut IdentityPrec);
    let mut vc = VCyclePrec::new(&s);
    let mg = pcg(&a, &b, 1e-9, 2000, &mut vc);
    assert!(plain.converged && mg.converged);
    assert!(
        mg.history.len() * 2 <= plain.history.len(),
        "MG-PCG {} its vs CG {} its",
        mg.history.len(),
        plain.history.len()
    );
}

#[test]
fn bpx_precondition_iteration_count_roughly_level_independent() {
    // BPX's point: PCG iterations grow slowly (polylog) in problem size.
    let mut counts = Vec::new();
    for n in [8usize, 12, 16] {
        let a = laplacian_7pt(n, n, n);
        let b = random_rhs(a.nrows(), 2);
        let s =
            MgSetup::new(build_hierarchy(a.clone(), &AmgOptions::default()), MgOptions::default());
        let mut prec = AdditivePrec::new(&s, AdditiveMethod::Bpx);
        let r = pcg(&a, &b, 1e-8, 500, &mut prec);
        assert!(r.converged, "n={n}");
        counts.push(r.history.len());
    }
    // Far from the O(n^(1/3)) growth of plain CG: allow at most ~2x growth
    // from 8³ to 16³ (plain CG would grow ~2x per doubling with a much
    // larger constant).
    assert!(counts[2] <= counts[0] * 2, "BPX-PCG iterations grew too fast: {counts:?}");
}

#[test]
fn multigrid_crushes_chaotic_relaxation() {
    // The motivation of the whole paper: asynchronous *basic* methods are
    // robust but slow; multigrid converges orders faster per work unit.
    let a = laplacian_7pt(10, 10, 10);
    let b = random_rhs(a.nrows(), 4);
    assert!(rho_abs_jacobi(&a, 0.9, 100) < 1.0);
    let jac = jacobi_solve(&a, &b, 0.9, 100);
    let s = MgSetup::new(build_hierarchy(a.clone(), &AmgOptions::default()), MgOptions::default());
    let mg = solve_mult_probed(&s, &b, 30, None, &NoopProbe);
    assert!(mg.relres < jac.relres * 1e-2, "mult {} vs jacobi {}", mg.relres, jac.relres);
}

#[test]
fn async_jacobi_robust_across_thread_counts() {
    let a = laplacian_7pt(6, 6, 6);
    let b = random_rhs(a.nrows(), 6);
    for threads in [1usize, 2, 4] {
        let res = async_jacobi_solve(&a, &b, 0.9, 300, threads);
        assert!(res.relres < 1e-2, "{threads} threads: {}", res.relres);
    }
}
