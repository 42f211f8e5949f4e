//! Simulate the asynchronous multigrid models of Section III: the effect of
//! the minimum update probability α and the maximum read delay δ on the
//! final residual (miniature Figures 1 and 2).
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example async_models [grid_length]
//! ```

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::additive::AdditiveMethod;
use asyncmg_core::models::{simulate_mean, ModelKind, ModelOptions};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::NoopProbe;
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_27pt};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(12);
    let runs = 5;
    let a = laplacian_27pt(n, n, n);
    println!("27pt, {} rows; mean of {runs} runs, 20 updates per grid\n", a.nrows());
    let b = random_rhs(a.nrows(), 3);
    let h = build_hierarchy(a, &AmgOptions { aggressive_levels: 1, ..Default::default() });
    let setup = MgSetup::new(h, MgOptions::default());

    let sync = solve_mult_probed(&setup, &b, 20, None, &NoopProbe);
    println!("synchronous Mult after 20 V(1,1)-cycles: {:9.2e}\n", sync.relres);

    println!("semi-async (δ = 0), relres vs minimum update probability α:");
    for method in [AdditiveMethod::Afacx, AdditiveMethod::Multadd] {
        print!("  {:<8}", method.name());
        for alpha in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let mut opts = ModelOptions::default();
            opts.model = ModelKind::SemiAsync;
            opts.alpha = alpha;
            opts.delta = 0;
            opts.updates_per_grid = 20;
            opts.seed = 1;
            let r = simulate_mean(&setup, method, &b, &opts, runs);
            print!("  α={alpha:.1}:{r:9.2e}");
        }
        println!();
    }

    println!("\nfull-async (α = .1), relres vs maximum delay δ:");
    for model in [ModelKind::FullAsyncSolution, ModelKind::FullAsyncResidual] {
        let name = match model {
            ModelKind::FullAsyncSolution => "solution-based",
            ModelKind::FullAsyncResidual => "residual-based",
            ModelKind::SemiAsync => unreachable!(),
        };
        for method in [AdditiveMethod::Afacx, AdditiveMethod::Multadd] {
            print!("  {:<8} {name:<15}", method.name());
            for delta in [1usize, 2, 4, 8, 16] {
                let mut opts = ModelOptions::default();
                opts.model = model;
                opts.alpha = 0.1;
                opts.delta = delta;
                opts.updates_per_grid = 20;
                opts.seed = 1;
                let r = simulate_mean(&setup, method, &b, &opts, runs);
                print!("  δ={delta:>2}:{r:9.2e}");
            }
            println!();
        }
    }
}
