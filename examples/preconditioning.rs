//! Multigrid as a preconditioner: the BPX story of Section II.B.
//!
//! BPX diverges when used as a standalone additive *solver* (the
//! over-correction problem that Multadd and AFACx fix), but it is an
//! excellent *preconditioner*. This example compares plain CG against CG
//! preconditioned with a V-cycle, BPX, and Multadd, and round-trips the
//! matrix through the Matrix Market format.
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example preconditioning [grid_length]
//! ```

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::additive::{solve_additive_probed, AdditiveMethod};
use asyncmg_core::krylov::{pcg, AdditivePrec, IdentityPrec, JacobiPrec, VCyclePrec};
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::NoopProbe;
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
use asyncmg_sparse::io::{read_matrix_market, write_matrix_market};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(16);
    let a = laplacian_7pt(n, n, n);
    println!("7pt Laplacian, {} rows, {} nnz", a.nrows(), a.nnz());

    // Round-trip through Matrix Market, as a user with an external matrix
    // would start.
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).expect("write .mtx");
    let a = read_matrix_market(buf.as_slice()).expect("read .mtx");
    println!("round-tripped through Matrix Market ({} bytes)\n", buf.len());

    let b = random_rhs(a.nrows(), 5);
    let h = build_hierarchy(a.clone(), &AmgOptions::default());
    let setup = MgSetup::new(h, MgOptions::default());
    let tol = 1e-8;

    // BPX as a standalone solver over-corrects:
    let bpx_solver = solve_additive_probed(&setup, AdditiveMethod::Bpx, &b, 20, None, &NoopProbe);
    println!(
        "BPX as a *solver*      : relres {:9.2e} after 20 cycles (diverges — Section II.B)",
        bpx_solver.relres
    );

    println!("\nCG to relres < {tol:.0e}:");
    let plain = pcg(&a, &b, tol, 2000, &mut IdentityPrec);
    println!("  no preconditioner    : {:>4} iterations", plain.history.len());
    let mut jac = JacobiPrec::new(&a);
    let r = pcg(&a, &b, tol, 2000, &mut jac);
    println!("  Jacobi               : {:>4} iterations", r.history.len());
    let mut bpx = AdditivePrec::new(&setup, AdditiveMethod::Bpx);
    let r = pcg(&a, &b, tol, 2000, &mut bpx);
    println!("  BPX                  : {:>4} iterations", r.history.len());
    let mut ma = AdditivePrec::new(&setup, AdditiveMethod::Multadd);
    let r = pcg(&a, &b, tol, 2000, &mut ma);
    println!("  Multadd              : {:>4} iterations", r.history.len());
    let mut vc = VCyclePrec::new(&setup);
    let r = pcg(&a, &b, tol, 2000, &mut vc);
    println!("  V(1,1)-cycle         : {:>4} iterations", r.history.len());
}
