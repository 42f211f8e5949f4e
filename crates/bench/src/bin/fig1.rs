//! Figure 1: final relative residual after 20 V-cycles vs grid length for
//! the **semi-asynchronous model** (Equation 6), δ = 0, five minimum update
//! probabilities, AFACx and Multadd, 27pt test set, vs synchronous Mult.
//!
//! ```sh
//! cargo run --release -p asyncmg-bench --bin fig1 [-- --sizes 10,14,18 --runs 5 --full]
//! ```
//!
//! Output: CSV `method,alpha,grid_length,rows,relres` (`alpha = sync` for
//! the synchronous baseline).

use asyncmg_bench::plot::{log_plot, Series};
use asyncmg_bench::{build_setup, Cli};
use asyncmg_core::additive::AdditiveMethod;
use asyncmg_core::models::{simulate_mean, ModelKind, ModelOptions};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::NoopProbe;
use asyncmg_problems::{rhs::random_rhs, TestSet};
use asyncmg_smoothers::SmootherKind;
use std::collections::BTreeMap;

fn main() {
    let cli = Cli::from_env();
    // Paper scale: 40..80 step 10, 20 runs. Default: laptop scale.
    let (sizes, runs) = if cli.flag("full") {
        (vec![40usize, 50, 60, 70, 80], 20usize)
    } else {
        (vec![10usize, 14, 18, 22], 5)
    };
    let sizes = cli.list("sizes").unwrap_or(sizes);
    let runs = cli.get("runs").unwrap_or(runs);
    let alphas = [0.1, 0.3, 0.5, 0.7, 0.9];
    let cycles = 20;

    let mut curves: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    println!("method,alpha,grid_length,rows,relres");
    for &n in &sizes {
        // Figure 1 uses ω-Jacobi (ω = .9) and HMIS + 1 aggressive level.
        let setup = build_setup(TestSet::TwentySevenPt, n, 1, SmootherKind::WJacobi { omega: 0.9 });
        let b = random_rhs(setup.n(), 27 + n as u64);
        let sync = solve_mult_probed(&setup, &b, cycles, None, &NoopProbe);
        println!("Mult,sync,{n},{},{:e}", setup.n(), sync.relres);
        curves.entry("Mult (sync)".into()).or_default().push((n as f64, sync.relres));
        for method in [AdditiveMethod::Afacx, AdditiveMethod::Multadd] {
            for &alpha in &alphas {
                let mut opts = ModelOptions::default();
                opts.model = ModelKind::SemiAsync;
                opts.alpha = alpha;
                opts.delta = 0;
                opts.updates_per_grid = cycles;
                opts.seed = 1000 + n as u64;
                let relres = simulate_mean(&setup, method, &b, &opts, runs);
                println!("{},{alpha},{n},{},{relres:e}", method.name(), setup.n());
                curves
                    .entry(format!("{} a={alpha}", method.name()))
                    .or_default()
                    .push((n as f64, relres));
            }
        }
    }
    if cli.flag("plot") {
        for prefix in ["AFACx", "Multadd"] {
            let series: Vec<Series> = curves
                .iter()
                .filter(|(k, _)| k.starts_with(prefix) || k.starts_with("Mult ("))
                .map(|(k, v)| Series { label: k.clone(), points: v.clone() })
                .collect();
            eprintln!(
                "\n{}",
                log_plot(
                    &format!("Fig. 1 ({prefix}): relres after 20 V-cycles vs grid length"),
                    &series,
                    60,
                    16
                )
            );
        }
    }
}
