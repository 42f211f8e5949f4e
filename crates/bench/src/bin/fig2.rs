//! Figure 2: final relative residual after 20 V-cycles vs grid length for
//! the **full-asynchronous model**, α = .1, five maximum delays, both the
//! solution-based (Equation 7) and residual-based (Equation 10) versions,
//! AFACx and Multadd, 27pt test set, vs synchronous Mult.
//!
//! ```sh
//! cargo run --release -p asyncmg-bench --bin fig2 [-- --sizes 10,14 --runs 3 --full]
//! ```
//!
//! Output: CSV `method,version,delta,grid_length,rows,relres`.

use asyncmg_bench::{build_setup, Cli};
use asyncmg_core::additive::AdditiveMethod;
use asyncmg_core::models::{simulate_mean, ModelKind, ModelOptions};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::NoopProbe;
use asyncmg_problems::{rhs::random_rhs, TestSet};
use asyncmg_smoothers::SmootherKind;

fn main() {
    let cli = Cli::from_env();
    let (sizes, runs) = if cli.flag("full") {
        (vec![40usize, 50, 60, 70, 80], 20usize)
    } else {
        (vec![10usize, 14, 18], 3)
    };
    let sizes = cli.list("sizes").unwrap_or(sizes);
    let runs = cli.get("runs").unwrap_or(runs);
    let deltas = [1usize, 2, 4, 8, 16];
    let alpha = 0.1;
    let cycles = 20;

    println!("method,version,delta,grid_length,rows,relres");
    for &n in &sizes {
        let setup = build_setup(TestSet::TwentySevenPt, n, 1, SmootherKind::WJacobi { omega: 0.9 });
        let b = random_rhs(setup.n(), 90 + n as u64);
        let sync = solve_mult_probed(&setup, &b, cycles, None, &NoopProbe);
        println!("Mult,sync,0,{n},{},{:e}", setup.n(), sync.relres);
        for (version, model) in
            [("solution", ModelKind::FullAsyncSolution), ("residual", ModelKind::FullAsyncResidual)]
        {
            for method in [AdditiveMethod::Afacx, AdditiveMethod::Multadd] {
                for &delta in &deltas {
                    let mut opts = ModelOptions::default();
                    opts.model = model;
                    opts.alpha = alpha;
                    opts.delta = delta;
                    opts.updates_per_grid = cycles;
                    opts.seed = 2000 + n as u64;
                    let relres = simulate_mean(&setup, method, &b, &opts, runs);
                    println!("{},{version},{delta},{n},{},{relres:e}", method.name(), setup.n());
                }
            }
        }
    }
}
