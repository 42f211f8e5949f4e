//! Determinism proof for the schedule-controlled harness: the same
//! `VirtualSched` seed replays a bit-identical execution — solution vector,
//! scheduler decision sequence, and telemetry event stream — while
//! different seeds explore different interleavings.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{
    solve_async, solve_mult_threaded, AdditiveMethod, AsyncOptions, ExecEnv, Method, MgOptions,
    MgSetup, NoopProbe, ResComp, Solver, StopCriterion, WriteMode,
};
use asyncmg_harness::{CaseRun, FuzzCase};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
use asyncmg_threads::{ReadDelay, VirtualSched};

/// Bitwise comparison of two runs: solution, decisions, telemetry content.
/// Timestamps are the one nondeterministic field and are not compared.
fn assert_bit_identical(r1: &CaseRun, r2: &CaseRun) {
    let x1: Vec<u64> = r1.result.x.iter().map(|v| v.to_bits()).collect();
    let x2: Vec<u64> = r2.result.x.iter().map(|v| v.to_bits()).collect();
    assert_eq!(x1, x2, "solution vectors differ bitwise");
    assert_eq!(r1.result.relres.to_bits(), r2.result.relres.to_bits());
    assert_eq!(r1.result.grid_corrections, r2.result.grid_corrections);
    assert_eq!(r1.decisions, r2.decisions, "interleavings differ");
    assert_eq!(r1.fingerprint, r2.fingerprint);
    // Telemetry event streams: identical per-grid correction sequences.
    assert_eq!(r1.trace.grids.len(), r2.trace.grids.len());
    for (g1, g2) in r1.trace.grids.iter().zip(&r2.trace.grids) {
        assert_eq!(g1.corrections, g2.corrections);
        assert_eq!(g1.events.len(), g2.events.len());
        for (e1, e2) in g1.events.iter().zip(&g2.events) {
            assert_eq!(e1.index, e2.index);
            assert_eq!(e1.local_res.to_bits(), e2.local_res.to_bits());
        }
    }
    assert_eq!(r1.trace.residual_history.len(), r2.trace.residual_history.len());
    for (s1, s2) in r1.trace.residual_history.iter().zip(&r2.trace.residual_history) {
        assert_eq!(s1.relres.to_bits(), s2.relres.to_bits());
    }
    for (t1, t2) in r1.trace.phase_totals.iter().zip(&r2.trace.phase_totals) {
        assert_eq!(t1.count, t2.count, "phase occurrence counts differ");
    }
}

#[test]
fn same_seed_is_bit_identical() {
    let case = FuzzCase::base();
    assert_bit_identical(&case.run(42), &case.run(42));
}

#[test]
fn different_seeds_produce_different_interleavings() {
    let case = FuzzCase::base();
    let base = case.run(0);
    let mut any_schedule_differs = false;
    let mut any_result_differs = false;
    for seed in 1..6u64 {
        let run = case.run(seed);
        any_schedule_differs |= run.decisions != base.decisions;
        any_result_differs |= run.fingerprint != base.fingerprint;
    }
    assert!(any_schedule_differs, "5 seeds replayed the schedule of seed 0");
    // Different interleavings reorder racy floating-point accumulation, so
    // at least one seed must also change the numerical outcome.
    assert!(any_result_differs, "5 seeds left the solution bit-identical to seed 0");
}

#[test]
fn every_flavour_replays_deterministically() {
    // Each write × residual flavour (plus AFACx) crosses different racy
    // code paths; all must replay bit-identically.
    let mut cases = Vec::new();
    for write in [WriteMode::Lock, WriteMode::Atomic] {
        for res_comp in [ResComp::Local, ResComp::Global, ResComp::ResidualBased] {
            let mut c = FuzzCase::base();
            c.write = write;
            c.res_comp = res_comp;
            cases.push(c);
        }
    }
    let mut afacx = FuzzCase::base();
    afacx.method = AdditiveMethod::Afacx;
    cases.push(afacx);
    for case in &cases {
        let r1 = case.run(7);
        let r2 = case.run(7);
        assert_eq!(r1.fingerprint, r2.fingerprint, "replay diverged for {}", case.label());
        assert_eq!(r1.decisions, r2.decisions, "schedule diverged for {}", case.label());
    }
}

#[test]
fn delay_injection_is_deterministic_and_bounded() {
    let mut case = FuzzCase::base();
    case.delay = Some(ReadDelay { prob: 0.3, max_steps: 8 });
    let r1 = case.run(11);
    let r2 = case.run(11);
    assert_bit_identical(&r1, &r2);
    // Bounded staleness must not break Criterion 1 correction counts.
    assert!(r1.result.grid_corrections.iter().all(|&c| c == case.t_max));
    assert!(r1.result.relres.is_finite());
}

/// A tolerance stop is decided by the teams and confirmed between launches,
/// so it is as much a function of the seed as a count-based run: every
/// method × write × residual flavour, with and without delayed reads,
/// replays its solution, correction counts and decision log — across
/// however many launches the confirmation took.
#[test]
fn tolerance_stopped_runs_replay_bit_identically() {
    for method in [AdditiveMethod::Multadd, AdditiveMethod::Afacx] {
        for write in [WriteMode::Lock, WriteMode::Atomic] {
            for res_comp in [ResComp::Local, ResComp::Global, ResComp::ResidualBased] {
                for delay in [None, Some(ReadDelay { prob: 0.3, max_steps: 8 })] {
                    let mut case = FuzzCase::base();
                    case.method = method;
                    case.write = write;
                    case.res_comp = res_comp;
                    case.delay = delay;
                    case.criterion = StopCriterion::tolerance(1e-6);
                    case.t_max = 120;
                    let (r1, r2) = (case.run(13), case.run(13));
                    let label = case.label();
                    assert_eq!(bits(&r1.result.x), bits(&r2.result.x), "x of {label}");
                    assert_eq!(r1.result.grid_corrections, r2.result.grid_corrections, "{label}");
                    assert_eq!(r1.decisions, r2.decisions, "schedule of {label}");
                    assert_eq!(r1.fingerprint, r2.fingerprint, "{label}");
                    let r = &r1.result;
                    assert_eq!(r.stopped_on_tolerance, r.relres < 1e-6, "{label}: {}", r.relres);
                    assert!(r.grid_corrections.iter().all(|&c| c <= case.t_max), "{label}");
                }
            }
        }
    }
}

/// The production environment with only the scheduler replaced.
fn under(sched: &VirtualSched) -> ExecEnv<'_> {
    ExecEnv { sched: Some(sched), ..Default::default() }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn small_setup() -> MgSetup {
    let a = laplacian_7pt(6, 6, 6);
    let h = build_hierarchy(a, &AmgOptions::default());
    MgSetup::new(h, MgOptions::default())
}

#[test]
fn synchronous_mode_agrees_across_schedules() {
    // sync Multadd is fully barriered, but the order in which *teams* add
    // their corrections to the shared x between barriers is still
    // schedule-chosen, so results agree to rounding (the same bar the
    // tier-1 sync-vs-sequential test uses), not bitwise. Same-seed virtual
    // replays, by contrast, must be exactly identical.
    let setup = small_setup();
    let b = random_rhs(setup.n(), 3);
    let mut opts = AsyncOptions::default();
    opts.sync = true;
    opts.t_max = 6;
    opts.n_threads = 4;
    let os = solve_async(&setup, &b, &opts, &NoopProbe, ExecEnv::default());
    for seed in [0u64, 9] {
        let sched = VirtualSched::new(seed);
        let v = solve_async(&setup, &b, &opts, &NoopProbe, under(&sched));
        assert!(
            (v.relres - os.relres).abs() < 1e-9 * os.relres.max(1e-20),
            "sync relres diverged beyond rounding: virtual {} vs OS {} (seed {seed})",
            v.relres,
            os.relres
        );
    }
    let r1 = solve_async(&setup, &b, &opts, &NoopProbe, under(&VirtualSched::new(5)));
    let r2 = solve_async(&setup, &b, &opts, &NoopProbe, under(&VirtualSched::new(5)));
    assert_eq!(bits(&r1.x), bits(&r2.x), "same-seed sync replay was not bit-identical");
}

#[test]
fn threaded_mult_is_schedule_independent() {
    let setup = small_setup();
    let b = random_rhs(setup.n(), 5);
    let os = solve_mult_threaded(&setup, &b, 4, 5, None, &NoopProbe, ExecEnv::default());
    let sched = VirtualSched::new(3);
    let v = solve_mult_threaded(&setup, &b, 4, 5, None, &NoopProbe, under(&sched));
    assert_eq!(bits(&os.x), bits(&v.x));
    assert!(sched.steps() > 0, "virtual scheduler made no decisions");
}

/// The builder reaches the same seam: a seeded scheduler on `Solver` makes
/// a count-based asynchronous run replay bit for bit.
#[test]
fn solver_builder_replays_under_a_seeded_sched() {
    let setup = small_setup();
    let b = random_rhs(setup.n(), 11);
    let run = || {
        let sched = VirtualSched::new(5);
        let report = Solver::new(&setup).method(Method::Multadd).threads(4).sched(&sched).run(&b);
        assert!(sched.steps() > 0, "virtual scheduler made no decisions");
        report
    };
    let (r1, r2) = (run(), run());
    assert_eq!(bits(&r1.x), bits(&r2.x), "same-seed builder replay was not bit-identical");
    assert_eq!(r1.grid_corrections, r2.grid_corrections);
}
