//! Tests of the asynchronous solver family.

use super::*;
use crate::parallel_mult::solve_mult_threaded;
use crate::setup::{MgOptions, MgSetup};
use crate::solver::SolveReport;
use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
use asyncmg_telemetry::NoopProbe;
use asyncmg_threads::{ExecEnv, VirtualSched};

fn setup_n(n: usize) -> MgSetup {
    let a = laplacian_7pt(n, n, n);
    let h = build_hierarchy(a, &AmgOptions::default());
    MgSetup::new(h, MgOptions::default())
}

/// Test shorthand: no probe, production environment.
fn solve(setup: &MgSetup, b: &[f64], opts: &AsyncOptions) -> SolveReport {
    solve_async(setup, b, opts, &NoopProbe, ExecEnv::default())
}

/// A fixed-count run's two halves. Where `t_max` corrections per grid land
/// is the OS schedule's to decide, so that run asserts only what no
/// schedule changes: every grid made exactly `t_max` corrections and the
/// iterate is finite. The accuracy `bound` is asserted under
/// `VirtualSched` seeds 0..4.
fn assert_converges(s: &MgSetup, b: &[f64], opts: &AsyncOptions, bound: f64) {
    let os = solve(s, b, opts);
    assert!(os.grid_corrections.iter().all(|&c| c == opts.t_max), "{:?}", os.grid_corrections);
    assert_eq!(os.corrects_mean, opts.t_max as f64);
    assert!(os.x.iter().all(|v| v.is_finite()));
    for seed in 0..4 {
        let sched = VirtualSched::new(seed);
        let env = ExecEnv { sched: Some(&sched), ..Default::default() };
        let par = solve_async(s, b, opts, &NoopProbe, env);
        assert!(par.relres < bound, "seed {seed}: relres {}", par.relres);
    }
}

fn smoothed_by(smoother: asyncmg_smoothers::SmootherKind) -> MgSetup {
    let h = build_hierarchy(laplacian_7pt(6, 6, 6), &AmgOptions::default());
    MgSetup::new(h, MgOptions { smoother, ..Default::default() })
}

#[test]
fn sync_multadd_matches_sequential_additive() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let seq = crate::additive::solve_additive_probed(
        &s,
        AdditiveMethod::Multadd,
        &b,
        8,
        None,
        &NoopProbe,
    );
    let par =
        solve(&s, &b, &AsyncOptions { sync: true, t_max: 8, n_threads: 4, ..Default::default() });
    eprintln!("seq {} par {}", seq.relres, par.relres);
    assert!(
        (par.relres - seq.relres).abs() < 1e-9 * seq.relres.max(1e-20),
        "threaded sync {} vs sequential {}",
        par.relres,
        seq.relres
    );
}

#[test]
fn async_local_res_converges() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    assert_converges(&s, &b, &AsyncOptions { t_max: 40, n_threads: 4, ..Default::default() }, 1e-2);
}

#[test]
fn async_global_res_converges_single_thread() {
    // With one thread the global residual is fully refreshed at every
    // correction, so global-res must converge deterministically; this
    // pins down the code path without scheduler sensitivity.
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let par = solve(
        &s,
        &b,
        &AsyncOptions { res_comp: ResComp::Global, t_max: 40, n_threads: 1, ..Default::default() },
    );
    assert!(par.relres < 1e-2, "global-res relres {}", par.relres);
}

#[test]
fn async_global_res_oversubscribed_shows_documented_degradation() {
    // Section IV/VI: with delayed grids, global-res residual components
    // go stale and the method converges slowly or diverges (the paper's
    // † entries). On an oversubscribed machine both outcomes occur; we
    // only require the run to terminate and report a finite residual.
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let par = solve(
        &s,
        &b,
        &AsyncOptions { res_comp: ResComp::Global, t_max: 20, n_threads: 4, ..Default::default() },
    );
    assert!(par.relres.is_finite());
    assert!(par.grid_corrections.iter().all(|&c| c == 20));
}

#[test]
fn async_atomic_write_converges() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let opts =
        AsyncOptions { write: WriteMode::Atomic, t_max: 40, n_threads: 4, ..Default::default() };
    assert_converges(&s, &b, &opts, 1e-2);
}

#[test]
fn r_multadd_residual_based_converges() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let opts = AsyncOptions {
        res_comp: ResComp::ResidualBased,
        write: WriteMode::Atomic,
        t_max: 40,
        n_threads: 4,
        ..Default::default()
    };
    assert_converges(&s, &b, &opts, 1e-2);
}

#[test]
fn criterion_two_overshoots_t_max() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let opts = AsyncOptions {
        criterion: StopCriterion::Two,
        t_max: 10,
        n_threads: 4,
        ..Default::default()
    };
    // Every grid does at least t_max corrections; some may do more
    // (Table I's Corrects ≥ V-cycles). How many more, and the accuracy they
    // reach, is the schedule's to decide: the bound is held to seeded runs.
    let os = solve(&s, &b, &opts);
    assert!(os.grid_corrections.iter().all(|&c| c >= 10), "{:?}", os.grid_corrections);
    assert!(os.x.iter().all(|v| v.is_finite()));
    for seed in 0..4 {
        let sched = VirtualSched::new(seed);
        let env = ExecEnv { sched: Some(&sched), ..Default::default() };
        let par = solve_async(&s, &b, &opts, &NoopProbe, env);
        assert!(par.grid_corrections.iter().all(|&c| c >= 10), "seed {seed}");
        assert!(par.relres < 1e-2, "seed {seed}: relres {}", par.relres);
    }
}

#[test]
fn async_afacx_converges() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let opts = AsyncOptions {
        method: AdditiveMethod::Afacx,
        t_max: 40,
        n_threads: 4,
        ..Default::default()
    };
    // Where 40 corrections land is the schedule's to decide: the
    // production run is held only to what no schedule changes, the
    // accuracy threshold to a seeded one.
    let os = solve(&s, &b, &opts);
    assert!(os.relres.is_finite());
    assert!(os.grid_corrections.iter().all(|&c| c >= 40), "{:?}", os.grid_corrections);
    let sched = VirtualSched::new(1);
    let env = ExecEnv { sched: Some(&sched), ..Default::default() };
    let par = solve_async(&s, &b, &opts, &NoopProbe, env);
    assert!(par.relres < 1e-2, "AFACx relres {}", par.relres);
}

#[test]
fn sync_afacx_matches_sequential() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 7);
    let seq =
        crate::additive::solve_additive_probed(&s, AdditiveMethod::Afacx, &b, 6, None, &NoopProbe);
    let par = solve(
        &s,
        &b,
        &AsyncOptions {
            method: AdditiveMethod::Afacx,
            sync: true,
            t_max: 6,
            n_threads: 4,
            ..Default::default()
        },
    );
    assert!(
        (par.relres - seq.relres).abs() < 1e-9 * seq.relres.max(1e-20),
        "threaded sync AFACx {} vs sequential {}",
        par.relres,
        seq.relres
    );
}

#[test]
fn async_with_async_gs_smoother_converges() {
    let s = smoothed_by(asyncmg_smoothers::SmootherKind::AsyncGs);
    let b = random_rhs(s.n(), 3);
    assert_converges(&s, &b, &AsyncOptions { t_max: 40, n_threads: 4, ..Default::default() }, 1e-2);
}

#[test]
fn async_with_hybrid_jgs_converges() {
    let s = smoothed_by(asyncmg_smoothers::SmootherKind::HybridJgs);
    let b = random_rhs(s.n(), 3);
    assert_converges(&s, &b, &AsyncOptions { t_max: 40, n_threads: 4, ..Default::default() }, 1e-2);
}

#[test]
fn more_threads_than_grids_is_fine() {
    let s = setup_n(5);
    let b = random_rhs(s.n(), 1);
    assert_converges(&s, &b, &AsyncOptions { t_max: 10, n_threads: 8, ..Default::default() }, 1e-1);
}

#[test]
fn fewer_threads_than_grids_is_fine() {
    let a = laplacian_7pt(10, 10, 10);
    let h = build_hierarchy(a, &AmgOptions::default());
    let s = MgSetup::new(h, MgOptions::default());
    assert!(s.n_levels() >= 2);
    let b = random_rhs(s.n(), 1);
    let par = solve(&s, &b, &AsyncOptions { t_max: 10, n_threads: 1, ..Default::default() });
    assert!(par.relres < 1e-1, "relres {}", par.relres);
    assert!(par.grid_corrections.iter().all(|&c| c == 10));
}

/// Threaded Mult runs the sequential cycle, `MgOptions::{n_pre, n_post,
/// coarse}` included, bit for bit at any thread count.
#[test]
fn threaded_mult_matches_sequential_for_jacobi() {
    use crate::setup::CoarseSolve;
    let h = build_hierarchy(laplacian_7pt(6, 6, 6), &AmgOptions::default());
    for (n_pre, n_post, coarse) in [
        (1, 1, CoarseSolve::Exact),
        (2, 2, CoarseSolve::Exact),
        (1, 1, CoarseSolve::Smooth { sweeps: 3 }),
    ] {
        let s = MgSetup::new(h.clone(), MgOptions { n_pre, n_post, coarse, ..Default::default() });
        let b = random_rhs(s.n(), 3);
        let seq = crate::mult::solve_mult_probed(&s, &b, 5, None, &NoopProbe);
        // A tolerance met after three cycles: both runs stop there, and the
        // threaded master's checks are the sequential history.
        let tol = seq.history[2] * 1.0001;
        let seq_tol = crate::mult::solve_mult_probed(&s, &b, 5, Some(tol), &NoopProbe);
        assert_eq!(seq_tol.history.len(), 3);
        for t in [1, 2, 3] {
            let par = solve_mult_threaded(&s, &b, t, 5, None, &NoopProbe, ExecEnv::default());
            let what = format!("V({n_pre},{n_post}) {coarse:?} T={t}");
            assert_eq!(par.relres.to_bits(), seq.relres.to_bits(), "{what}");
            for (u, v) in par.x.iter().zip(&seq.x) {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}");
            }
            let env = ExecEnv::default();
            let par = solve_mult_threaded(&s, &b, t, 5, Some(tol), &NoopProbe, env);
            let bits = |r: &SolveReport| r.history.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&par), bits(&seq_tol), "{what} tol");
            assert_eq!(par.grid_corrections, seq_tol.grid_corrections, "{what} tol");
        }
    }
}

#[test]
fn threaded_mult_converges_with_hybrid_jgs() {
    use asyncmg_smoothers::SmootherKind;
    let a = laplacian_7pt(6, 6, 6);
    let h = build_hierarchy(a, &AmgOptions::default());
    let s = MgSetup::new(h, MgOptions { smoother: SmootherKind::HybridJgs, ..Default::default() });
    let b = random_rhs(s.n(), 3);
    let par = solve_mult_threaded(&s, &b, 4, 20, None, &NoopProbe, ExecEnv::default());
    assert!(par.relres < 1e-7, "relres {}", par.relres);
}

#[test]
fn sync_afacx_multi_sweep_matches_sequential() {
    // V(2/2,0)-AFACx: threaded sync execution equals the sequential
    // solver, validating the multi-sweep team smoothing.
    use crate::setup::CoarseSolve;
    let a = laplacian_7pt(6, 6, 6);
    let h = build_hierarchy(a, &AmgOptions::default());
    let s = MgSetup::new(
        h,
        MgOptions {
            afacx_s1: 2,
            afacx_s2: 2,
            afacx_coarse: CoarseSolve::Smooth { sweeps: 2 },
            ..Default::default()
        },
    );
    let b = random_rhs(s.n(), 5);
    let seq =
        crate::additive::solve_additive_probed(&s, AdditiveMethod::Afacx, &b, 6, None, &NoopProbe);
    let par = solve(
        &s,
        &b,
        &AsyncOptions {
            method: AdditiveMethod::Afacx,
            sync: true,
            t_max: 6,
            n_threads: 4,
            ..Default::default()
        },
    );
    assert!(
        (par.relres - seq.relres).abs() < 1e-9 * seq.relres.max(1e-20),
        "threaded {} vs sequential {}",
        par.relres,
        seq.relres
    );
}

#[test]
fn sync_mode_matches_sequential_on_blocked_and_split_block_rows() {
    // The team loops run the range kernels on chunk-local slices: the
    // 27pt stencil plan, and on elasticity the BSR block-row kernel —
    // with T = 2 and 3 a chunk edge falls inside a 3×3 block row. A
    // single team adds its grids' corrections in the sequential
    // solver's order, so T = 1 must agree bit for bit; more teams agree
    // to rounding (the order they reach x in is the schedule's).
    use asyncmg_problems::{stencil::laplacian_27pt, TestSet};
    let elast = AmgOptions { num_functions: 3, ..AmgOptions::default() };
    let setups = [
        MgSetup::new(
            build_hierarchy(laplacian_27pt(12, 12, 12), &AmgOptions::default()),
            MgOptions::default(),
        ),
        MgSetup::new(build_hierarchy(TestSet::Elasticity.matrix(6), &elast), MgOptions::default()),
    ];
    assert_eq!(setups[1].op(0).label(), "bsr");
    for s in &setups {
        let b = random_rhs(s.n(), 9);
        for method in [AdditiveMethod::Multadd, AdditiveMethod::Afacx] {
            let seq = crate::additive::solve_additive_probed(s, method, &b, 6, None, &NoopProbe);
            for n_threads in [1, 2, 3] {
                let opts =
                    AsyncOptions { method, sync: true, t_max: 6, n_threads, ..Default::default() };
                let par = solve(s, &b, &opts);
                let what = format!("{} n={} T={n_threads}", method.name(), s.n());
                assert!(
                    (par.relres - seq.relres).abs() < 1e-9 * seq.relres,
                    "{what}: threaded sync {} vs sequential {}",
                    par.relres,
                    seq.relres
                );
                if n_threads == 1 {
                    for (u, v) in par.x.iter().zip(&seq.x) {
                        assert_eq!(u.to_bits(), v.to_bits(), "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn afacx_more_sweeps_converge_faster() {
    use crate::setup::CoarseSolve;
    let a = laplacian_7pt(6, 6, 6);
    let h = build_hierarchy(a, &AmgOptions::default());
    let b_opts = |s1, s2| MgOptions {
        afacx_s1: s1,
        afacx_s2: s2,
        afacx_coarse: CoarseSolve::Smooth { sweeps: s1 },
        ..Default::default()
    };
    let s1 = MgSetup::new(h.clone(), b_opts(1, 1));
    let s2 = MgSetup::new(h, b_opts(3, 3));
    let b = random_rhs(s1.n(), 8);
    let r1 = crate::additive::solve_additive_probed(
        &s1,
        AdditiveMethod::Afacx,
        &b,
        15,
        None,
        &NoopProbe,
    );
    let r2 = crate::additive::solve_additive_probed(
        &s2,
        AdditiveMethod::Afacx,
        &b,
        15,
        None,
        &NoopProbe,
    );
    assert!(r2.relres < r1.relres, "V(3/3,0) {} should beat V(1/1,0) {}", r2.relres, r1.relres);
}

// ---- fault injection and recovery -----------------------------------

use asyncmg_threads::{Corruption, Fault, FaultPlan};

fn faulted(
    s: &MgSetup,
    b: &[f64],
    opts: &AsyncOptions,
    plan: &FaultPlan,
    sched_seed: u64,
) -> SolveReport {
    let sched = VirtualSched::new(sched_seed);
    let env = ExecEnv { sched: Some(&sched), plan: Some(plan), ..Default::default() };
    solve_async(s, b, opts, &NoopProbe, env)
}

#[test]
fn defended_fault_free_run_is_clean() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let opts = AsyncOptions {
        t_max: 30,
        n_threads: 4,
        recovery: RecoveryOptions::defended(),
        ..Default::default()
    };
    let res = solve(&s, &b, &opts);
    assert!(res.faults.is_empty(), "no faults injected, none should be logged");
    assert_eq!(res.outcome, SolveOutcome::MaxIterations);
    assert!(res.outcome.is_ok());
    assert!(res.relres < 1e-2, "relres {}", res.relres);
    // The same run under seeded schedules.
    for seed in 0..4 {
        let sched = VirtualSched::new(seed);
        let env = ExecEnv { sched: Some(&sched), ..Default::default() };
        let res = solve_async(&s, &b, &opts, &NoopProbe, env);
        assert!(res.faults.is_empty(), "seed {seed}: {:?}", res.faults);
        assert!(res.relres < 1e-2, "seed {seed}: relres {}", res.relres);
    }
}

#[test]
fn unguarded_nan_corruption_faults_the_solve() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let plan =
        FaultPlan::new(1).with(Fault::CorruptWrite { grid: 0, at_round: 2, kind: Corruption::Nan });
    let opts = AsyncOptions { t_max: 10, n_threads: 4, ..Default::default() };
    let res = faulted(&s, &b, &opts, &plan, 11);
    assert_eq!(res.outcome, SolveOutcome::Faulted, "NaN must poison the unguarded iterate");
    assert!(!res.relres.is_finite());
    assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::WriteCorrupted { grid: 0 })));
}

#[test]
fn guarded_corruption_is_suppressed_and_degrades() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let plan =
        FaultPlan::new(2).with(Fault::CorruptWrite { grid: 1, at_round: 1, kind: Corruption::Inf });
    let opts = AsyncOptions {
        t_max: 20,
        n_threads: 4,
        recovery: RecoveryOptions::defended(),
        ..Default::default()
    };
    let res = faulted(&s, &b, &opts, &plan, 12);
    assert_eq!(res.outcome, SolveOutcome::Degraded);
    assert!(res.relres.is_finite() && res.relres < 1e-1, "relres {}", res.relres);
    assert!(res.x.iter().all(|v| v.is_finite()));
    assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::GuardTripped { grid: 1 })));
}

#[test]
fn crashed_team_degrades_but_rest_of_hierarchy_converges() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let plan = FaultPlan::new(3).with(Fault::Crash { team: 1, at_round: 0 });
    let opts = AsyncOptions {
        t_max: 30,
        n_threads: 4,
        recovery: RecoveryOptions::defended(),
        ..Default::default()
    };
    let res = faulted(&s, &b, &opts, &plan, 13);
    assert_eq!(res.outcome, SolveOutcome::Degraded);
    assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::TeamCrash { team: 1 })));
    // The crashed team did no corrections; the surviving grids finished
    // their budget and still reduced the residual.
    assert!(res.grid_corrections.contains(&0), "{:?}", res.grid_corrections);
    assert!(res.grid_corrections.contains(&30), "{:?}", res.grid_corrections);
    assert!(res.relres.is_finite() && res.relres < 1e-1, "relres {}", res.relres);
}

#[test]
fn dropped_writes_are_logged_and_solve_survives() {
    let s = setup_n(6);
    let ell = s.n_levels() - 1;
    let b = random_rhs(s.n(), 3);
    let plan = FaultPlan::new(4).with(Fault::DropWrite { grid: ell, prob: 1.0 });
    let opts = AsyncOptions {
        t_max: 20,
        n_threads: 4,
        recovery: RecoveryOptions::defended(),
        ..Default::default()
    };
    let res = faulted(&s, &b, &opts, &plan, 14);
    assert_eq!(res.outcome, SolveOutcome::Degraded);
    let drops = res
        .faults
        .iter()
        .filter(|f| matches!(f.kind, FaultKind::WriteDropped { grid } if grid as usize == ell))
        .count();
    assert_eq!(drops, 20, "every round of the coarsest grid drops");
    assert!(res.relres.is_finite() && res.relres < 1e-1, "relres {}", res.relres);
}

#[test]
fn repeated_corruption_quarantines_the_grid() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    // NaN (unlike a bit-flip, which can land back in range) trips the
    // guard on every hit, so four hits exceed the 3-strike quarantine
    // threshold deterministically.
    let mut plan = FaultPlan::new(5);
    for round in 1..=4 {
        plan = plan.with(Fault::CorruptWrite { grid: 1, at_round: round, kind: Corruption::Nan });
    }
    let opts = AsyncOptions {
        t_max: 20,
        n_threads: 4,
        recovery: RecoveryOptions::defended(), // quarantine_after: 3
        ..Default::default()
    };
    let res = faulted(&s, &b, &opts, &plan, 15);
    assert_eq!(res.outcome, SolveOutcome::Degraded);
    assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::Quarantined { grid: 1 })));
    assert!(res.relres.is_finite(), "quarantine must keep the iterate clean");
}

#[test]
fn wall_clock_timeout_reports_faulted() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let opts = AsyncOptions {
        t_max: 200_000,
        n_threads: 4,
        recovery: RecoveryOptions { max_wall: Some(Duration::ZERO), ..Default::default() },
        ..Default::default()
    };
    let res = solve(&s, &b, &opts);
    assert_eq!(res.outcome, SolveOutcome::Faulted);
    assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::Timeout)));
    assert!(
        res.grid_corrections.iter().all(|&c| c < 200_000),
        "timeout must cut the budget short: {:?}",
        res.grid_corrections
    );
}

#[test]
fn straggler_injection_is_logged_and_harmless() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let plan =
        FaultPlan::new(6).with(Fault::Straggler { worker: 0, from_round: 2, rounds: 3, steps: 7 });
    let opts = AsyncOptions { t_max: 20, n_threads: 4, ..Default::default() };
    let res = faulted(&s, &b, &opts, &plan, 16);
    assert_eq!(res.outcome, SolveOutcome::Degraded);
    assert!(res
        .faults
        .iter()
        .any(|f| matches!(f.kind, FaultKind::Straggler { worker: 0, steps: 7 })));
    assert!(res.relres < 1e-1, "a slow worker must not break convergence: {}", res.relres);
    assert!(res.grid_corrections.iter().all(|&c| c == 20), "{:?}", res.grid_corrections);
}

#[test]
fn faulted_replay_is_deterministic_under_virtual_sched() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 3);
    let plan = FaultPlan::new(7)
        .with(Fault::Crash { team: 2, at_round: 3 })
        .with(Fault::CorruptWrite { grid: 0, at_round: 2, kind: Corruption::BitFlip });
    let opts = AsyncOptions {
        t_max: 15,
        n_threads: 4,
        recovery: RecoveryOptions::defended(),
        ..Default::default()
    };
    let r1 = faulted(&s, &b, &opts, &plan, 17);
    let r2 = faulted(&s, &b, &opts, &plan, 17);
    assert_eq!(r1.outcome, r2.outcome);
    assert_eq!(r1.relres.to_bits(), r2.relres.to_bits(), "bit-identical replay");
    assert_eq!(r1.grid_corrections, r2.grid_corrections);
    let kinds = |r: &SolveReport| r.faults.iter().map(|f| f.kind).collect::<Vec<_>>();
    assert_eq!(kinds(&r1), kinds(&r2));
}

#[test]
fn recovery_options_validate_ranges() {
    assert!(RecoveryOptions::default().validate().is_ok());
    assert!(RecoveryOptions::defended().validate().is_ok());
    let r = RecoveryOptions { damping: 0.0, ..Default::default() };
    assert!(r.validate().is_err());
    let mut o =
        AsyncOptions { criterion: StopCriterion::tolerance(f64::NAN), ..Default::default() };
    assert!(o.validate().is_err());
    o.criterion = StopCriterion::One;
    o.n_threads = 0;
    assert!(o.validate().is_err());
}

#[test]
fn classify_is_the_one_outcome_rule() {
    use SolveOutcome::*;
    let at = |kind| FaultRecord { t_ns: 0, kind };
    let timeout = [at(FaultKind::Timeout)];
    let guard = [at(FaultKind::GuardTripped { grid: 1 })];
    let cases: [(f64, Option<f64>, &[FaultRecord], SolveOutcome); 14] = [
        // Non-finite residuals fault, with or without a tolerance.
        (f64::NAN, Some(1e-6), &[], Faulted),
        (f64::NAN, None, &[], Faulted),
        (f64::INFINITY, Some(1e-6), &[], Faulted),
        (f64::INFINITY, None, &guard, Faulted),
        // Divergence faults a tolerance run only.
        (DIVERGED, Some(1e-6), &[], Faulted),
        (2.0 * DIVERGED, Some(1e-6), &guard, Faulted),
        (DIVERGED, None, &[], MaxIterations),
        // A timeout faults even below tolerance.
        (1e-9, Some(1e-6), &timeout, Faulted),
        (0.5, None, &timeout, Faulted),
        // Any other fault degrades, converged or not.
        (1e-9, Some(1e-6), &guard, Degraded),
        (0.5, None, &guard, Degraded),
        // Fault-free: strictly below tolerance converges.
        (1e-9, Some(1e-6), &[], Converged),
        (1e-6, Some(1e-6), &[], MaxIterations),
        (1e-9, None, &[], MaxIterations),
    ];
    for (relres, tol, faults, want) in cases {
        assert_eq!(SolveOutcome::classify(relres, tol, faults), want, "{relres} {tol:?}");
    }
}
