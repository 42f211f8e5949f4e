//! Solve the multi-material cantilever elasticity problem with all four
//! smoothers (the paper's hardest test set).
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example elasticity_beam [elements_along_beam]
//! ```

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::asynchronous::{solve_async, AsyncOptions};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::{ExecEnv, NoopProbe};
use asyncmg_problems::elasticity::{elasticity_beam, BeamMaterials};
use asyncmg_problems::rhs::random_rhs;
use asyncmg_smoothers::SmootherKind;

fn main() {
    let ex: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(12);
    let c = (ex / 4).max(1);
    let a = elasticity_beam(ex, c, c, [4.0, 1.0, 1.0], BeamMaterials::default());
    println!("elasticity beam {ex}x{c}x{c} elements: {} dofs, {} nnz", a.nrows(), a.nnz());
    let b = random_rhs(a.nrows(), 11);
    // The unknown approach (num_functions = 3) keeps the three displacement
    // components separate in coarsening/interpolation — without it scalar
    // AMG stagnates on elasticity (see DESIGN.md).
    let h = build_hierarchy(a, &AmgOptions { num_functions: 3, ..Default::default() });
    println!(
        "hierarchy: {} levels {:?}, complexity {:.2}\n",
        h.n_levels(),
        h.level_sizes(),
        h.operator_complexity()
    );

    println!("{:<12} {:>14} {:>16}", "smoother", "Mult relres", "async Multadd");
    for kind in [
        SmootherKind::WJacobi { omega: 0.5 },
        SmootherKind::L1Jacobi,
        SmootherKind::HybridJgs,
        SmootherKind::AsyncGs,
    ] {
        let mut mg = MgOptions::default();
        mg.smoother = kind;
        mg.interp_omega = 0.5;
        let setup = MgSetup::new(h.clone(), mg);
        let mult = solve_mult_probed(&setup, &b, 40, None, &NoopProbe);
        let mut opts = AsyncOptions::default();
        opts.t_max = 40;
        opts.n_threads = 4;
        let asy = solve_async(&setup, &b, &opts, &NoopProbe, ExecEnv::default());
        println!("{:<12} {:>14.2e} {:>16.2e}", kind.name(), mult.relres, asy.relres);
    }
}
