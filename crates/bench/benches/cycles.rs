//! Whole-cycle benchmarks: one V(1,1)-cycle of Mult vs one full set of
//! additive corrections of Multadd/AFACx vs one threaded async round — the
//! per-cycle cost comparison underlying Table I's timing columns.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::additive::{solve_additive_probed, AdditiveMethod};
use asyncmg_core::asynchronous::{solve_async, AsyncOptions};
use asyncmg_core::mult::solve_mult_probed;
use asyncmg_core::parallel_mult::solve_mult_threaded;
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::{ExecEnv, NoopProbe};
use asyncmg_problems::{rhs::random_rhs, TestSet};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_cycles(c: &mut Criterion) {
    let a = TestSet::TwentySevenPt.matrix(12);
    let h = build_hierarchy(a, &AmgOptions { aggressive_levels: 1, ..Default::default() });
    let setup = MgSetup::new(h, MgOptions::default());
    let b = random_rhs(setup.n(), 5);

    c.bench_function("mult_5_cycles_sequential", |bench| {
        bench.iter(|| solve_mult_probed(&setup, black_box(&b), 5, None, &NoopProbe));
    });

    c.bench_function("multadd_5_cycles_sequential", |bench| {
        bench.iter(|| {
            solve_additive_probed(
                &setup,
                AdditiveMethod::Multadd,
                black_box(&b),
                5,
                None,
                &NoopProbe,
            )
        });
    });

    c.bench_function("afacx_5_cycles_sequential", |bench| {
        bench.iter(|| {
            solve_additive_probed(&setup, AdditiveMethod::Afacx, black_box(&b), 5, None, &NoopProbe)
        });
    });

    c.bench_function("mult_5_cycles_threaded_2t", |bench| {
        let env = ExecEnv::default();
        bench.iter(|| solve_mult_threaded(&setup, black_box(&b), 2, 5, None, &NoopProbe, env));
    });

    c.bench_function("async_multadd_5_corrections_2t", |bench| {
        let mut opts = AsyncOptions::default();
        opts.t_max = 5;
        opts.n_threads = 2;
        bench.iter(|| solve_async(&setup, black_box(&b), &opts, &NoopProbe, ExecEnv::default()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cycles
}
criterion_main!(benches);
