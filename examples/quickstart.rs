//! Quickstart: solve a 3-D Poisson problem with asynchronous Multadd.
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example quickstart
//! ```

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::{Method, Solver};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};

fn main() {
    // 1. Assemble the 7-point Laplacian on a 20×20×20 grid.
    let n = 20;
    let a = laplacian_7pt(n, n, n);
    println!("matrix: {} rows, {} non-zeros", a.nrows(), a.nnz());
    let b = random_rhs(a.nrows(), 42);

    // 2. Build the AMG hierarchy (HMIS + classical modified interpolation,
    //    the paper's BoomerAMG configuration) and the solver setup.
    let hierarchy = build_hierarchy(a, &AmgOptions::default());
    println!(
        "hierarchy: {} levels, sizes {:?}, operator complexity {:.2}",
        hierarchy.n_levels(),
        hierarchy.level_sizes(),
        hierarchy.operator_complexity()
    );
    let setup = MgSetup::new(hierarchy, MgOptions::default());

    // 3. Classical multiplicative multigrid (the baseline, Algorithm 1),
    //    through the unified Solver builder.
    let mult = Solver::new(&setup).method(Method::Mult).t_max(20).run(&b);
    println!("sync Mult      : relres {:9.2e} after 20 V(1,1)-cycles", mult.relres);

    // 4. Asynchronous Multadd (Algorithm 5, local-res, lock-write): every
    //    grid corrects the shared solution with no global synchronisation.
    //    The teams stop once their residual view is below 1e-8 and the
    //    exact residual of the quiescent iterate confirms it.
    let report = Solver::new(&setup)
        .method(Method::Multadd)
        .threads(4)
        .t_max(100)
        .tolerance(1e-8)
        .with_trace()
        .run(&b);
    println!(
        "async Multadd  : relres {:9.2e} (converged: {}, {:?} corrections, {:.1?})",
        report.relres, report.converged, report.grid_corrections, report.elapsed
    );
    if let Some(trace) = &report.trace {
        let n_events: usize = trace.grids.iter().map(|g| g.events.len()).sum();
        println!(
            "trace          : {} residual samples, {} correction events",
            trace.residual_history.len(),
            n_events
        );
    }
}
