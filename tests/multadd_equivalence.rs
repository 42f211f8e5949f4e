//! The theoretical backbone of Multadd (Section II.B.1): with the
//! symmetrized smoothing matrix `Λ_k = M̄_k⁻¹` and smoothed interpolants,
//! Multadd is *mathematically equivalent* to a symmetrized multiplicative
//! V(1,1)-cycle. For symmetric `M` (Jacobi), the V(1,1)-cycle of
//! Algorithm 1 with the same pre- and post-smoother is that symmetrized
//! cycle, so one cycle of each must produce the same iterate.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::additive::{solve_additive_probed, AdditiveMethod};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::{NoopProbe, SolveReport};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_27pt, stencil::laplacian_7pt};
use asyncmg_smoothers::SmootherKind;

fn setup(a: asyncmg_sparse::Csr, omega: f64) -> MgSetup {
    let h = build_hierarchy(a, &AmgOptions::default());
    let mut opts = MgOptions::default();
    opts.smoother = SmootherKind::WJacobi { omega };
    opts.interp_omega = omega;
    MgSetup::new(h, opts)
}

fn solve_mult(s: &MgSetup, b: &[f64], t: usize) -> SolveReport {
    solve_mult_probed(s, b, t, None, &NoopProbe)
}

fn solve_additive(s: &MgSetup, m: AdditiveMethod, b: &[f64], t: usize) -> SolveReport {
    solve_additive_probed(s, m, b, t, None, &NoopProbe)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn one_cycle_of_multadd_equals_one_symmetric_v_cycle_7pt() {
    let s = setup(laplacian_7pt(7, 7, 7), 0.9);
    let b = random_rhs(s.n(), 17);
    let mult = solve_mult(&s, &b, 1);
    let multadd = solve_additive(&s, AdditiveMethod::Multadd, &b, 1);
    let scale = mult.x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let diff = max_abs_diff(&mult.x, &multadd.x);
    assert!(diff < 1e-10 * scale.max(1e-30), "iterates differ by {diff} (scale {scale})");
}

#[test]
fn equivalence_holds_over_multiple_cycles() {
    let s = setup(laplacian_7pt(6, 6, 6), 0.8);
    let b = random_rhs(s.n(), 23);
    let mult = solve_mult(&s, &b, 5);
    let multadd = solve_additive(&s, AdditiveMethod::Multadd, &b, 5);
    let scale = mult.x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    assert!(max_abs_diff(&mult.x, &multadd.x) < 1e-9 * scale.max(1e-30));
    // Residual histories match cycle by cycle.
    for (h1, h2) in mult.history.iter().zip(&multadd.history) {
        assert!((h1 - h2).abs() < 1e-9 * h1.max(1e-30), "{h1} vs {h2}");
    }
}

#[test]
fn equivalence_holds_on_27pt_with_l1_jacobi() {
    let h = build_hierarchy(laplacian_27pt(6, 6, 6), &AmgOptions::default());
    let mut opts = MgOptions::default();
    opts.smoother = SmootherKind::L1Jacobi;
    let s = MgSetup::new(h, opts);
    let b = random_rhs(s.n(), 29);
    let mult = solve_mult(&s, &b, 3);
    let multadd = solve_additive(&s, AdditiveMethod::Multadd, &b, 3);
    let scale = mult.x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    assert!(
        max_abs_diff(&mult.x, &multadd.x) < 1e-9 * scale.max(1e-30),
        "l1-Jacobi equivalence broken"
    );
}

#[test]
fn equivalence_breaks_without_symmetrized_smoother() {
    // Sanity check that the test is actually discriminating: BPX (plain
    // smoother, plain interpolants) must NOT match the multiplicative cycle.
    let s = setup(laplacian_7pt(6, 6, 6), 0.9);
    let b = random_rhs(s.n(), 31);
    let mult = solve_mult(&s, &b, 1);
    let bpx = solve_additive(&s, AdditiveMethod::Bpx, &b, 1);
    let scale = mult.x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    assert!(max_abs_diff(&mult.x, &bpx.x) > 1e-6 * scale);
}
