//! Fault-injection integration tests: seeded failures, structured outcomes.
//!
//! Two layers:
//!
//! * a fault matrix fuzzed through the harness — every fault axis
//!   (straggler, team crash, corrupted write, dropped write) across write
//!   modes, stop criteria, methods and residual flavours, under several
//!   virtual-scheduler seeds. The oracle demands a *structured* ending for
//!   every interleaving: finite iterate, `Degraded` outcome, non-empty
//!   fault log, no hang (enforced by the deterministic scheduler's
//!   deadlock panic plus the defended wall-clock budget);
//! * the acceptance scenario of the resilience layer — one grid team
//!   killed *and* one racy correction write corrupted in the same solve,
//!   replayed bit-identically, with the surviving hierarchy still reducing
//!   the residual by three orders of magnitude.
//!
//! Replay a matrix failure with the printed `HARNESS_SEED=… HARNESS_CASE=…`
//! command (see `docs/robustness.md`).

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{
    solve_async, AdditiveMethod, AsyncOptions, ExecEnv, MgOptions, MgSetup, RecoveryOptions,
    ResComp, SolveOutcome, StopCriterion, WriteMode,
};
use asyncmg_harness::{fingerprint_run, run_fuzz, seeds_from_env, FaultAxis, FuzzCase, Oracle};
use asyncmg_problems::rhs::random_rhs;
use asyncmg_problems::stencil::laplacian_7pt;
use asyncmg_telemetry::{FaultKind, TelemetryProbe};
use asyncmg_threads::{Corruption, Fault, FaultPlan, VirtualSched};

/// The fault matrix: each injected-fault axis crossed with the solver
/// dimensions it interacts with (write path, stop criterion, method,
/// residual flavour). 20 configurations.
fn fault_matrix() -> Vec<FuzzCase> {
    let base = FuzzCase::base();
    let axes = [FaultAxis::Straggler, FaultAxis::Crash, FaultAxis::Corrupt, FaultAxis::Drop];
    let mut cases = Vec::new();
    for fault in axes {
        cases.push(FuzzCase { fault, ..base });
        cases.push(FuzzCase { fault, write: WriteMode::Atomic, ..base });
        cases.push(FuzzCase { fault, criterion: StopCriterion::Two, ..base });
        cases.push(FuzzCase { fault, method: AdditiveMethod::Afacx, ..base });
        cases.push(FuzzCase { fault, res_comp: ResComp::ResidualBased, ..base });
    }
    cases
}

/// Residual bar per axis. Suppressed or slowed corrections still converge;
/// a crashed team or systematically dropped writes only guarantee
/// boundedness (the structural checks — Degraded outcome, finite iterate,
/// non-empty fault log — always apply).
fn oracle_for(case: &FuzzCase) -> Oracle {
    let max_relres = match case.fault {
        FaultAxis::Straggler | FaultAxis::Corrupt => Some(0.5),
        _ => None,
    };
    Oracle { max_relres }
}

#[test]
fn fault_matrix_ends_structurally_across_seeds() {
    let cases = fault_matrix();
    let seeds = seeds_from_env(4);
    match run_fuzz(&cases, &seeds, oracle_for) {
        Ok(out) => {
            // 20 cases × 4 seeds unless narrowed via HARNESS_* env vars.
            let narrowed = std::env::var("HARNESS_SEED").is_ok()
                || std::env::var("HARNESS_CASE").is_ok()
                || std::env::var("HARNESS_FUZZ_SEEDS").is_ok();
            assert!(
                narrowed || out.runs >= 64,
                "fault smoke bar: expected >= 64 runs, did {}",
                out.runs
            );
        }
        Err(report) => panic!("{report}"),
    }
}

#[test]
fn fault_runs_replay_bit_identically() {
    for fault in [FaultAxis::Crash, FaultAxis::Corrupt, FaultAxis::Drop] {
        let case = FuzzCase { fault, ..FuzzCase::base() };
        let a = case.run(7);
        let b = case.run(7);
        assert_eq!(a.fingerprint, b.fingerprint, "replay of {} diverged", case.label());
        assert_eq!(a.decisions, b.decisions);
        let other = case.run(8);
        // Different schedule seed ⇒ different interleaving; for the
        // probabilistic drop axis even the injected faults differ.
        assert_eq!(other.result.outcome, SolveOutcome::Degraded);
    }
}

/// The acceptance scenario: a seeded plan kills one grid team and corrupts
/// one racy correction write. The solve must end structurally (Degraded,
/// within the defended wall-clock budget, never a hang or NaN), log the
/// crash and the quarantine of the corrupted level, and still reduce the
/// residual by ≥ 3 orders of magnitude with the surviving grids — twice,
/// bit-identically.
#[test]
fn killed_team_and_corrupted_write_degrade_deterministically() {
    let a = laplacian_7pt(6, 6, 6);
    let h = build_hierarchy(a, &AmgOptions::default());
    let setup = MgSetup::new(h, MgOptions::default());
    assert_eq!(setup.n_levels(), 3, "scenario expects a 3-level hierarchy");
    let b = random_rhs(setup.n(), 3);

    // Quarantine on the first strike: the single corrupted write must be
    // enough to retire its level.
    let mut recovery = RecoveryOptions::defended();
    recovery.quarantine_after = 1;
    let mut opts = AsyncOptions::default();
    opts.t_max = 150;
    opts.n_threads = 4;
    opts.recovery = recovery;

    // Kill the middle grid's team early; corrupt the coarsest grid's write.
    let plan = FaultPlan::new(0xFA17)
        .with(Fault::Crash { team: 1, at_round: 2 })
        .with(Fault::CorruptWrite { grid: 2, at_round: 1, kind: Corruption::Nan });

    let run = |sched_seed: u64| {
        let sched = VirtualSched::new(sched_seed);
        let mut probe = TelemetryProbe::with_threads(opts.n_threads);
        let env = ExecEnv { sched: Some(&sched), plan: Some(&plan), ..Default::default() };
        let result = solve_async(&setup, &b, &opts, &probe, env);
        let trace = probe.take_trace();
        let fp = fingerprint_run(&result, &trace);
        (result, fp)
    };

    let (r1, fp1) = run(42);
    let (r2, fp2) = run(42);

    // Bit-identical replay, faults included.
    assert_eq!(fp1, fp2, "faulted solve must replay bit-identically");
    assert_eq!(r1.relres.to_bits(), r2.relres.to_bits());

    // Structured ending: degraded, not faulted (so the wall-clock budget
    // was not hit), with the injected faults and the recovery response in
    // the log.
    assert_eq!(r1.outcome, SolveOutcome::Degraded);
    assert!(r1.relres.is_finite());
    assert!(r1.x.iter().all(|v| v.is_finite()));
    let has = |pred: &dyn Fn(&FaultKind) -> bool| r1.faults.iter().any(|f| pred(&f.kind));
    assert!(has(&|k| matches!(k, FaultKind::TeamCrash { team: 1 })));
    assert!(has(&|k| matches!(k, FaultKind::WriteCorrupted { grid: 2 })));
    assert!(has(&|k| matches!(k, FaultKind::GuardTripped { grid: 2 })));
    assert!(
        has(&|k| matches!(k, FaultKind::Quarantined { grid: 2 })),
        "corrupted level must be quarantined: {:?}",
        r1.faults
    );

    // The crashed team stopped early; the quarantined grid took its one
    // strike and was retired; the fine grid finished its budget.
    assert!(r1.grid_corrections[1] < 150, "crashed grid: {:?}", r1.grid_corrections);
    assert_eq!(r1.grid_corrections[0], 150, "surviving fine grid: {:?}", r1.grid_corrections);

    // The surviving hierarchy still reduces the residual by three orders
    // of magnitude.
    assert!(r1.relres <= 1e-3, "surviving grids reduced relres to only {}", r1.relres);
}
