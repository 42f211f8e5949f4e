//! Cross-checks between the Section III simulation models, the sequential
//! additive solvers, and the Section IV threaded implementations.

use asyncmg_apps::paper_setup;
use asyncmg_core::additive::{solve_additive_probed, AdditiveMethod};
use asyncmg_core::asynchronous::{solve_async, AsyncOptions};
use asyncmg_core::models::{simulate, simulate_mean, ModelKind, ModelOptions};
use asyncmg_core::{ExecEnv, NoopProbe};
use asyncmg_problems::{rhs::random_rhs, TestSet};
use asyncmg_threads::VirtualSched;

/// `ModelOptions` is `#[non_exhaustive]`: build each variant off the default.
fn model_opts(f: impl FnOnce(&mut ModelOptions)) -> ModelOptions {
    let mut o = ModelOptions::default();
    f(&mut o);
    o
}

#[test]
fn all_three_models_coincide_when_synchronous() {
    // With α = 1 and δ = 0 there is no asynchrony: all three models reduce
    // to the synchronous additive method.
    let s = paper_setup(TestSet::TwentySevenPt, 7);
    let b = random_rhs(s.n(), 1);
    let sync = solve_additive_probed(&s, AdditiveMethod::Multadd, &b, 10, None, &NoopProbe).relres;
    for model in [ModelKind::SemiAsync, ModelKind::FullAsyncSolution, ModelKind::FullAsyncResidual]
    {
        let opts = model_opts(|o| {
            o.model = model;
            o.alpha = 1.0;
            o.delta = 0;
            o.updates_per_grid = 10;
            o.seed = 9;
        });
        let sim = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        // The models and the solver accumulate corrections in different
        // orders, so agreement is up to floating-point roundoff.
        assert!(
            (sim.final_relres - sync).abs() < 1e-5 * sync.max(1e-30),
            "{model:?}: {} vs {}",
            sim.final_relres,
            sync
        );
    }
}

#[test]
fn convergence_degrades_gracefully_with_delay() {
    // Figure 2's qualitative claim: larger δ converges more slowly, but
    // still converges.
    let s = paper_setup(TestSet::TwentySevenPt, 7);
    let b = random_rhs(s.n(), 2);
    for delta in [0usize, 4, 16] {
        let opts = model_opts(|o| {
            o.model = ModelKind::FullAsyncSolution;
            o.alpha = 0.5;
            o.delta = delta;
            o.updates_per_grid = 20;
            o.seed = 3;
        });
        let r = simulate_mean(&s, AdditiveMethod::Multadd, &b, &opts, 5);
        // Every delay still converges well below the initial residual;
        // strict monotonicity in δ only emerges with many more runs than a
        // unit test should afford.
        assert!(r < 1e-2, "delta {delta}: relres {r}");
    }
}

#[test]
fn residual_based_no_worse_than_solution_based_at_large_delay() {
    // Figure 2: the residual-based full-async model converges faster than
    // the solution-based one for large δ.
    let s = paper_setup(TestSet::TwentySevenPt, 7);
    let b = random_rhs(s.n(), 4);
    let mk = |model| {
        model_opts(|o| {
            o.model = model;
            o.alpha = 0.1;
            o.delta = 16;
            o.updates_per_grid = 20;
            o.seed = 5;
        })
    };
    let sol = simulate_mean(&s, AdditiveMethod::Multadd, &b, &mk(ModelKind::FullAsyncSolution), 5);
    let res = simulate_mean(&s, AdditiveMethod::Multadd, &b, &mk(ModelKind::FullAsyncResidual), 5);
    assert!(res <= sol * 3.0, "residual-based ({res}) much worse than solution-based ({sol})");
}

#[test]
fn simulation_and_threaded_solver_reach_similar_accuracy() {
    // The semi-async model with moderate asynchrony and the real threaded
    // local-res solver should land within a couple of orders of magnitude
    // of each other after the same number of corrections.
    let s = paper_setup(TestSet::SevenPt, 8);
    let b = random_rhs(s.n(), 6);
    let sim_opts = model_opts(|o| {
        o.model = ModelKind::SemiAsync;
        o.alpha = 0.8;
        o.delta = 0;
        o.updates_per_grid = 20;
        o.seed = 11;
    });
    let sim = simulate(&s, AdditiveMethod::Multadd, &b, &sim_opts);
    let mut opts = AsyncOptions::default();
    opts.t_max = 20;
    opts.n_threads = 4;
    // Where 20 corrections land is the schedule's to decide: compare under
    // a seeded one, and hold the OS-scheduled run only to what no schedule
    // changes.
    let sched = VirtualSched::new(1);
    let env = ExecEnv { sched: Some(&sched), ..Default::default() };
    let thr = solve_async(&s, &b, &opts, &NoopProbe, env);
    let ratio = (sim.final_relres / thr.relres).max(thr.relres / sim.final_relres);
    assert!(ratio < 1e3, "simulation {} vs threaded {}", sim.final_relres, thr.relres);
    let os = solve_async(&s, &b, &opts, &NoopProbe, ExecEnv::default());
    assert!(os.relres.is_finite());
    assert!(os.grid_corrections.iter().all(|&c| c == 20), "{:?}", os.grid_corrections);
}

#[test]
fn simulate_is_bitwise_reproducible_for_a_fixed_seed() {
    // The documented guarantee on `models::simulate`: same setup, rhs, and
    // `ModelOptions` (seed included) ⇒ bit-identical `ModelResult`, for
    // every model kind and with nonzero delay in play.
    let s = paper_setup(TestSet::SevenPt, 7);
    let b = random_rhs(s.n(), 21);
    for model in [ModelKind::SemiAsync, ModelKind::FullAsyncSolution, ModelKind::FullAsyncResidual]
    {
        let opts = model_opts(|o| {
            o.model = model;
            o.alpha = 0.35;
            o.delta = 5;
            o.updates_per_grid = 15;
            o.seed = 77;
        });
        let a = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        let c = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        assert_eq!(
            a.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{model:?}: x not bit-identical across replays"
        );
        assert_eq!(a.final_relres.to_bits(), c.final_relres.to_bits(), "{model:?}");
        assert_eq!(a.instants, c.instants, "{model:?}");
        assert_eq!(a.grid_updates, c.grid_updates, "{model:?}");
        // A different seed must actually change the sampled trajectory.
        let other = simulate(
            &s,
            AdditiveMethod::Multadd,
            &b,
            &model_opts(|o| {
                o.model = model;
                o.alpha = 0.35;
                o.delta = 5;
                o.updates_per_grid = 15;
                o.seed = 78;
            }),
        );
        assert_ne!(
            a.final_relres.to_bits(),
            other.final_relres.to_bits(),
            "{model:?}: seed 78 replayed seed 77 exactly"
        );
    }
}

#[test]
fn grid_size_independence_of_the_semi_async_model() {
    // Figure 1's headline: the final residual after 20 updates per grid is
    // roughly flat in the grid size.
    let mut finals = Vec::new();
    for n in [6usize, 8, 10] {
        let s = paper_setup(TestSet::TwentySevenPt, n);
        let b = random_rhs(s.n(), 8);
        let opts = model_opts(|o| {
            o.model = ModelKind::SemiAsync;
            o.alpha = 0.5;
            o.delta = 0;
            o.updates_per_grid = 20;
            o.seed = 13;
        });
        finals.push(simulate_mean(&s, AdditiveMethod::Multadd, &b, &opts, 3));
    }
    for w in finals.windows(2) {
        let ratio = (w[1] / w[0]).max(w[0] / w[1]);
        assert!(ratio < 100.0, "relres not size-independent: {finals:?}");
    }
}
