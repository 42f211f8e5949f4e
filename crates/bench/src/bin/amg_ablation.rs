//! Ablation over the AMG setup choices the paper takes from BoomerAMG:
//! coarsening algorithm (RS / PMIS / HMIS) × aggressive levels (0 / 1 / 2).
//! Reports hierarchy statistics and Mult convergence — this backs the
//! paper's configuration rather than reproducing a specific figure.
//!
//! ```sh
//! cargo run --release -p asyncmg-bench --bin amg_ablation [-- --size 14]
//! ```

use asyncmg_amg::{build_hierarchy, AmgOptions, Coarsening};
use asyncmg_bench::Cli;
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::NoopProbe;
use asyncmg_problems::{rhs::random_rhs, TestSet};

fn main() {
    let cli = Cli::from_env();
    let size: usize = cli.get("size").unwrap_or(14);
    let a = TestSet::TwentySevenPt.matrix(size);
    let b = random_rhs(a.nrows(), 3);
    println!("27pt grid length {size}: {} rows, {} nnz\n", a.nrows(), a.nnz());
    println!(
        "{:<10} {:>4} {:>7} {:>8} {:>8} {:>12} {:>10}",
        "coarsening", "agg", "levels", "op-cx", "grid-cx", "relres@20", "setup"
    );
    for coarsening in [Coarsening::Rs, Coarsening::Pmis, Coarsening::Hmis] {
        for aggressive in [0usize, 1, 2] {
            let t0 = std::time::Instant::now();
            let h = build_hierarchy(
                a.clone(),
                &AmgOptions { coarsening, aggressive_levels: aggressive, ..Default::default() },
            );
            let setup_time = t0.elapsed();
            let ocx = h.operator_complexity();
            let gcx = h.grid_complexity();
            let levels = h.n_levels();
            let setup = MgSetup::new(h, MgOptions::default());
            let res = solve_mult_probed(&setup, &b, 20, None, &NoopProbe);
            println!(
                "{:<10} {:>4} {:>7} {:>8.2} {:>8.2} {:>12.2e} {:>9.1?}",
                format!("{coarsening:?}"),
                aggressive,
                levels,
                ocx,
                gcx,
                res.relres,
                setup_time
            );
        }
    }
}
