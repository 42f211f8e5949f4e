//! Seeded schedule fuzzing of the asynchronous solvers.
//!
//! Every case is one solver configuration (matrix family × smoother ×
//! write mode × residual flavour, plus AFACx and delay-injected rows) run
//! under several `VirtualSched` seeds, each a distinct deterministic
//! interleaving of the racy code paths. The convergence oracle asserts the
//! schedule-independent contract: finite iterate, per-grid correction
//! counts in the stop-criterion envelope, telemetry agreeing with the
//! solver, and — where the paper guarantees it — the residual actually
//! dropping.
//!
//! Reproduce a printed failure with the `HARNESS_SEED=… HARNESS_CASE=…`
//! line from its message; see `docs/testing.md`.

use asyncmg_core::{AdditiveMethod, ResComp, StopCriterion, WriteMode};
use asyncmg_harness::{run_fuzz, seeds_from_env, FuzzCase, KernelAxis, MatrixFamily, Oracle};
use asyncmg_smoothers::SmootherKind;
use asyncmg_threads::ReadDelay;

/// The fuzz matrix: 2 families × 2 smoothers × 2 writes × 3 residual
/// flavours (24 Multadd cases), 4 AFACx rows, 4 delay-injected rows, 2
/// kernel-axis rows and 8 tolerance-stopped rows.
fn fuzz_matrix() -> Vec<FuzzCase> {
    let families = [MatrixFamily::SevenPt(6), MatrixFamily::TwentySevenPt(5)];
    let smoothers = [FuzzCase::base().smoother, SmootherKind::HybridJgs];
    let writes = [WriteMode::Lock, WriteMode::Atomic];
    let res_comps = [ResComp::Local, ResComp::Global, ResComp::ResidualBased];
    let mut cases = Vec::new();
    for family in families {
        for smoother in smoothers {
            for write in writes {
                for res_comp in res_comps {
                    let mut c = FuzzCase::base();
                    c.family = family;
                    c.smoother = smoother;
                    c.write = write;
                    c.res_comp = res_comp;
                    cases.push(c);
                }
            }
        }
    }
    // AFACx crosses a different correction phase (two-level smoothing).
    for family in families {
        for write in writes {
            let mut c = FuzzCase::base();
            c.family = family;
            c.method = AdditiveMethod::Afacx;
            c.write = write;
            cases.push(c);
        }
    }
    // Bounded-delay rows: the paper's δ model at implementation level.
    for res_comp in [ResComp::Local, ResComp::ResidualBased] {
        for write in writes {
            let mut c = FuzzCase::base();
            c.res_comp = res_comp;
            c.write = write;
            c.delay = Some(ReadDelay { prob: 0.25, max_steps: 10 });
            cases.push(c);
        }
    }
    // Kernel-axis rows: the blocked (BSR) and forced-scalar kernels must
    // satisfy exactly the oracle the default kernel does. (Strict cross-axis
    // fingerprint equality is asserted by the dedicated kernel_axis test.)
    for kernel in [KernelAxis::CsrScalar, KernelAxis::BsrSimd] {
        let mut c = FuzzCase::base();
        c.family = MatrixFamily::Elasticity(4);
        c.smoother = SmootherKind::L1Jacobi;
        c.kernel = kernel;
        cases.push(c);
    }
    // Tolerance-stopped rows: the in-team candidate stop and its
    // confirm-or-resume loop, per write × residual flavour, plus delayed
    // reads (stale snapshots are what make a candidate fail confirmation).
    for write in writes {
        for res_comp in res_comps {
            let mut c = FuzzCase::base();
            c.write = write;
            c.res_comp = res_comp;
            c.criterion = StopCriterion::tolerance(1e-6);
            c.t_max = 120;
            cases.push(c);
        }
        let mut c = FuzzCase::base();
        c.write = write;
        c.criterion = StopCriterion::tolerance(1e-6);
        c.t_max = 120;
        c.delay = Some(ReadDelay { prob: 0.25, max_steps: 10 });
        cases.push(c);
    }
    cases
}

/// Per-configuration convergence bar.
///
/// Local and residual-based runs must genuinely converge under any
/// schedule. Global-res reads stale residual components by design — the
/// paper's † entries show it can stagnate when grids are delayed — so the
/// oracle only requires boundedness there.
fn oracle_for(case: &FuzzCase) -> Oracle {
    // Elasticity converges slowly (~0.94/cycle for scalar AMG, as the
    // paper's Table I shows), so its rows only get the boundedness bar.
    // A tolerance row that runs out of budget must still have converged as
    // far as the count-based rows do; one that stops is below 1e-6 by the
    // oracle's own stopped-means-confirmed check.
    let max_relres = match case.res_comp {
        ResComp::Global => None,
        _ if matches!(case.family, MatrixFamily::Elasticity(_)) => None,
        ResComp::Local | ResComp::ResidualBased => Some(0.2),
    };
    Oracle { max_relres }
}

#[test]
fn fuzz_all_flavours_across_seeds() {
    let cases = fuzz_matrix();
    let seeds = seeds_from_env(3);
    match run_fuzz(&cases, &seeds, oracle_for) {
        Ok(outcome) => {
            eprintln!(
                "schedule fuzz: {} cases x {} seeds = {} runs, all oracles green",
                outcome.cases,
                seeds.len(),
                outcome.runs
            );
            // The CI smoke bar: at least 64 seed x config combinations when
            // running the full sweep (env overrides intentionally narrow
            // it for reproduction runs).
            let narrowed = std::env::var("HARNESS_SEED").is_ok()
                || std::env::var("HARNESS_CASE").is_ok()
                || std::env::var("HARNESS_FUZZ_SEEDS").is_ok();
            if !narrowed {
                assert!(outcome.runs >= 64, "only {} seed x config combos", outcome.runs);
            }
        }
        Err(report) => panic!("{report}"),
    }
}

#[test]
fn shrinking_finds_smallest_failing_seed() {
    // `run_fuzz` honours `HARNESS_CASE`, which a replay run sets to narrow
    // the sweep — that would filter this test's forced-failure case away.
    if std::env::var("HARNESS_CASE").is_ok() {
        eprintln!("skipping shrink self-test under HARNESS_CASE replay");
        return;
    }
    // Force a failure with an impossible oracle and check the report
    // pinpoints seed 0 (the smallest) and prints a replay command.
    let cases = vec![FuzzCase::base()];
    let seeds = [5u64, 6];
    let impossible = |_: &FuzzCase| Oracle { max_relres: Some(0.0) };
    let report = run_fuzz(&cases, &seeds, impossible).unwrap_err();
    assert!(report.contains("smallest failing seed: 0"), "{report}");
    assert!(report.contains("HARNESS_SEED=0"), "{report}");
    assert!(report.contains("HARNESS_CASE="), "{report}");
}
