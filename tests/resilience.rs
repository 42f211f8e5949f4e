//! Resilient-session integration tests (the PR-5 acceptance scenarios):
//! checkpoint/rollback, the retry ladder, bit-identical seeded replay with
//! virtual-clock backoff, and the deterministic watchdog timeout path.
//!
//! The headline scenario: a fault plan that crashes a grid team *and*
//! corrupts a correction write sends attempt 0 into a structured failure;
//! `Solver::resilient` retries from the best checkpoint, escalates at
//! least one ladder rung, and still reaches `relres ≤ 1e-6`, with the
//! escalation path recorded in both the `SessionReport` and the telemetry
//! JSON.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{
    EscalationReason, Method, MgOptions, MgSetup, RetryPolicy, Rung, SolveOutcome, Solver,
    VirtualClock,
};
use asyncmg_harness::{check_session, fingerprint_session, FaultAxis, FuzzCase, ResilienceAxis};
use asyncmg_problems::rhs::random_rhs;
use asyncmg_problems::stencil::laplacian_7pt;
use asyncmg_telemetry::FaultKind;
use asyncmg_threads::{Corruption, Fault, FaultPlan};
use proptest::prelude::*;
use std::time::Duration;

fn setup_n(n: usize) -> MgSetup {
    let a = laplacian_7pt(n, n, n);
    MgSetup::new(build_hierarchy(a, &AmgOptions::default()), MgOptions::default())
}

/// The PR-5 acceptance plan: grid team 1 crashes early and grid 2's
/// correction write is corrupted to NaN on the first async attempt.
fn acceptance_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with(Fault::Crash { team: 1, at_round: 2 }).with(Fault::CorruptWrite {
        grid: 2,
        at_round: 1,
        kind: Corruption::Nan,
    })
}

#[test]
fn crashed_and_corrupted_session_escalates_and_converges() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 0xFA17);
    let plan = acceptance_plan(0xFA17);
    let clock = VirtualClock::new();
    let report = Solver::new(&s)
        .method(Method::Multadd)
        .threads(4)
        .t_max(30)
        .tolerance(1e-6)
        .fault_plan(&plan)
        .session_seed(0xFA17)
        .clock(&clock)
        .retry(RetryPolicy {
            max_attempts: 6,
            backoff: Duration::from_millis(2),
            deadline: Some(Duration::from_secs(60)),
        })
        .with_trace()
        .resilient(&b);

    // The session converges despite the injected crash + corruption…
    assert!(report.converged, "session relres {} ({:?})", report.relres, report.outcome);
    assert!(report.relres <= 1e-6);
    assert_eq!(report.outcome, SolveOutcome::Converged);
    assert!(report.x.iter().all(|v| v.is_finite()));
    // …after escalating at least one rung off the fully async start.
    let escalations = report.escalations();
    assert!(!escalations.is_empty(), "no escalations recorded");
    assert_ne!(report.final_rung(), Some(Rung::AsyncAtomic));
    // Attempt 0 failed structurally (faulted or degraded, never silent).
    assert!(matches!(
        report.attempts[0].escalation,
        Some(EscalationReason::Faulted)
            | Some(EscalationReason::Degraded)
            | Some(EscalationReason::AboveTolerance)
    ));
    assert!(!report.attempts[0].faults.is_empty(), "attempt 0 logged no faults");
    // Checkpoints were taken and the escalation path reached the report.
    assert!(report.checkpoints.taken >= 1);
    // The merged trace records every attempt boundary and the JSON carries
    // the escalation path.
    let trace = report.trace.as_ref().expect("with_trace attaches a trace");
    assert_eq!(trace.attempts.len(), report.attempts.len());
    let json = trace.to_json();
    assert!(json.contains("\"schema\": \"asyncmg-trace-v5\""));
    assert!(json.contains("\"attempts\": ["));
    assert!(json.contains("\"rung\": \"async_atomic\""));
    assert!(json.contains("\"escalation\": \""));
    assert!(json.contains("\"checkpoints\": ["));
}

#[test]
fn seeded_session_replays_bit_identically_with_virtual_backoff() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 0xFA17);
    let run = || {
        let plan = acceptance_plan(0xFA17);
        let clock = VirtualClock::new();
        let report = Solver::new(&s)
            .method(Method::Multadd)
            .threads(4)
            .t_max(30)
            .tolerance(1e-6)
            .fault_plan(&plan)
            .session_seed(0xFA17)
            .clock(&clock)
            .retry(RetryPolicy {
                max_attempts: 6,
                backoff: Duration::from_millis(2),
                deadline: Some(Duration::from_secs(60)),
            })
            .with_trace()
            .resilient(&b);
        (fingerprint_session(&report), report)
    };
    let (fp_a, a) = run();
    let (fp_b, b2) = run();
    assert_eq!(fp_a, fp_b, "seeded sessions must replay bit-identically");
    for (u, v) in a.x.iter().zip(&b2.x) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
    assert_eq!(a.relres.to_bits(), b2.relres.to_bits());
    // Backoff and deadline run on the virtual clock: session "time" is the
    // exact sum of the backoff schedule, identical across replays (and no
    // wall-clock sleeping happened).
    assert_eq!(a.elapsed, b2.elapsed);
    let n_backoffs = a.attempts.len() as u32 - 1;
    let expected: Duration = (0..n_backoffs).map(|i| Duration::from_millis(2) * 2u32.pow(i)).sum();
    assert_eq!(a.elapsed, expected, "virtual session time must be the backoff sum");
}

#[test]
fn virtual_clock_expires_the_watchdog_budget_without_sleeping() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 7);
    let clock = VirtualClock::new();
    let wall = std::time::Instant::now();
    // A correction budget far beyond what the timeout allows: only the
    // watchdog can end this solve.
    let report = Solver::new(&s)
        .method(Method::Multadd)
        .threads(4)
        .t_max(50_000_000)
        .timeout(Duration::from_millis(50))
        .clock(&clock)
        .run(&b);
    assert_eq!(report.outcome, SolveOutcome::Faulted);
    assert!(
        report.faults.iter().any(|f| matches!(f.kind, FaultKind::Timeout)),
        "fault log {:?} lacks the timeout",
        report.faults
    );
    // The 50 ms budget elapsed on the virtual clock…
    assert!(clock.elapsed() >= Duration::from_millis(50));
    // …not on the wall clock (no real sleeping; generous CI margin).
    assert!(wall.elapsed() < Duration::from_secs(30));
}

#[test]
fn session_requires_a_tolerance() {
    let s = setup_n(6);
    let b = random_rhs(s.n(), 1);
    let err = Solver::new(&s).try_resilient(&b).unwrap_err();
    assert_eq!(err, asyncmg_core::SessionError::NoTolerance);
    assert!(err.to_string().contains("tolerance"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any PR-4 fault axis driven through the full ladder ends
    /// structurally: converged at 1e-6, or budget exhausted with a
    /// non-empty escalation log — never a hang (the virtual scheduler
    /// panics on deadlock), never a panic, never a non-finite iterate.
    #[test]
    fn any_fault_axis_ends_structurally(
        axis_idx in 0usize..5,
        session_seed in 0u64..(1u64 << 48),
    ) {
        let case = FuzzCase { fault: FaultAxis::ALL[axis_idx], ..FuzzCase::base() };
        let axis = ResilienceAxis::new(case);
        let run = axis.run(session_seed);
        if let Err(v) = check_session(&axis, &run) {
            prop_assert!(false, "session oracle violation: {v}");
        }
        // And the session replays bit-identically.
        let again = axis.run(session_seed);
        prop_assert_eq!(run.fingerprint, again.fingerprint);
    }
}
