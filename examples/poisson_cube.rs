//! Compare every solver variant on the 27-point Poisson problem — a
//! miniature of the paper's Table I row block for one matrix.
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example poisson_cube [grid_length] [threads]
//! ```

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::additive::{solve_additive_probed, AdditiveMethod};
use asyncmg_core::asynchronous::{solve_async, AsyncOptions, ResComp, WriteMode};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::parallel_mult::solve_mult_threaded;
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::{ExecEnv, NoopProbe};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_27pt};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let t_max = 20;

    let a = laplacian_27pt(n, n, n);
    println!(
        "27pt, grid length {n}: {} rows, {} nnz, {threads} threads, {t_max} V-cycles\n",
        a.nrows(),
        a.nnz()
    );
    let b = random_rhs(a.nrows(), 7);
    let h = build_hierarchy(a, &AmgOptions { aggressive_levels: 1, ..Default::default() });
    let setup = MgSetup::new(h, MgOptions::default());

    println!("{:<38} {:>10} {:>9}", "method", "relres", "time");
    let seq = solve_mult_probed(&setup, &b, t_max, None, &NoopProbe);
    println!("{:<38} {:>10.2e} {:>9}", "Mult (sequential)", seq.final_relres(), "-");
    let env = ExecEnv::default();
    let m = solve_mult_threaded(&setup, &b, threads, t_max, None, &NoopProbe, env);
    println!("{:<38} {:>10.2e} {:>8.1?}", "sync Mult (threaded)", m.relres, m.elapsed);

    let seq_add =
        solve_additive_probed(&setup, AdditiveMethod::Multadd, &b, t_max, None, &NoopProbe);
    println!("{:<38} {:>10.2e} {:>9}", "sync Multadd (sequential)", seq_add.final_relres(), "-");

    // AsyncOptions is #[non_exhaustive]: derive each variant from the default.
    let cfg = |f: &dyn Fn(&mut AsyncOptions)| {
        let mut o = AsyncOptions::default();
        o.t_max = t_max;
        o.n_threads = threads;
        f(&mut o);
        o
    };
    for (label, opts) in [
        ("sync Multadd, lock-write", cfg(&|o| o.sync = true)),
        ("Multadd, lock-write, local-res", cfg(&|_| ())),
        ("Multadd, lock-write, global-res", cfg(&|o| o.res_comp = ResComp::Global)),
        ("Multadd, atomic-write, local-res", cfg(&|o| o.write = WriteMode::Atomic)),
        (
            "r-Multadd, atomic-write, local-res",
            cfg(&|o| {
                o.write = WriteMode::Atomic;
                o.res_comp = ResComp::ResidualBased;
            }),
        ),
        ("AFACx, lock-write", cfg(&|o| o.method = AdditiveMethod::Afacx)),
    ] {
        let r = solve_async(&setup, &b, &opts, &NoopProbe, env);
        println!("{label:<38} {:>10.2e} {:>8.1?}", r.relres, r.elapsed);
    }
}
