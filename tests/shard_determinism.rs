//! Deterministic replay and cross-model agreement for the sharded
//! execution model (ISSUE 8 acceptance criteria).
//!
//! * Same `(axis, seed)` under `VirtualSched` + `VirtualTransport` replays
//!   bit-identically — fingerprint equality — including under message drop
//!   and `FaultPlan` crash injection.
//! * The sharded solver converges to relres ≤ 1e-6 on the 27-point and
//!   elasticity families at 1, 2 and 4 shards.
//! * Converged sharded solutions agree with the shared-memory
//!   `solve_mult_probed` reference (and with the async solver across all
//!   write × res-comp flavours) to schedule-independent bounds.
//! * Every solver family reports `Converged` exactly when its final
//!   residual is below the tolerance (`SolveOutcome::classify`).

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{
    solve_async, solve_mult_probed, AsyncOptions, ExecEnv, MgOptions, MgSetup, ResComp, Solver,
    StopCriterion, WriteMode,
};
use asyncmg_harness::{check_sharded, FaultAxis, MatrixFamily, NetAxis, ShardAxis};
use asyncmg_problems::rhs::random_rhs;
use asyncmg_shard::ShardedExt;
use asyncmg_telemetry::NoopProbe;
use asyncmg_threads::VirtualSched;

fn setup_for(family: MatrixFamily) -> MgSetup {
    let a = match family {
        MatrixFamily::SevenPt(n) => asyncmg_problems::stencil::laplacian_7pt(n, n, n),
        MatrixFamily::TwentySevenPt(n) => asyncmg_problems::stencil::laplacian_27pt(n, n, n),
        MatrixFamily::Elasticity(n) => asyncmg_problems::elasticity::elasticity_beam(
            n,
            2,
            2,
            [n as f64, 1.0, 1.0],
            Default::default(),
        ),
    };
    let aopts = AmgOptions { num_functions: family.num_functions(), ..AmgOptions::default() };
    let mut mg = MgOptions::default();
    if matches!(family, MatrixFamily::Elasticity(_)) {
        // Point Jacobi diverges on elasticity; the repo's elasticity
        // configuration (see examples/elasticity_beam.rs) uses ℓ1-Jacobi
        // and gentler interpolant smoothing.
        mg.smoother = asyncmg_smoothers::SmootherKind::L1Jacobi;
        mg.interp_omega = 0.5;
    }
    MgSetup::new(build_hierarchy(a, &aopts), mg)
}

/// Same seed ⇒ same bits, across network and fault profiles; the replay
/// hash covers solution bits, reductions, message counters and fault kinds.
#[test]
fn same_seed_replays_bit_identical() {
    let profiles = [
        (NetAxis::Ideal, FaultAxis::None),
        (NetAxis::Reorder, FaultAxis::None),
        (NetAxis::Drop, FaultAxis::None),
        (NetAxis::Drop, FaultAxis::Crash),
        (NetAxis::Lossy, FaultAxis::Crash),
        (NetAxis::Lossy, FaultAxis::Corrupt),
    ];
    for (net, fault) in profiles {
        let axis = ShardAxis { net, fault, max_relres: None, t_max: 24, ..ShardAxis::base() };
        let first = axis.run(7);
        let second = axis.run(7);
        assert_eq!(
            first.fingerprint,
            second.fingerprint,
            "{}: same seed must replay bit-identically",
            axis.label()
        );
        assert_eq!(first.decisions, second.decisions, "{}: schedule differs", axis.label());
        assert_eq!(
            first.result.x,
            second.result.x,
            "{}: solutions must match to the bit",
            axis.label()
        );
        check_sharded(&axis, &first).unwrap_or_else(|v| panic!("{v:?}"));
        if net.lossy() {
            // A different seed reshuffles drops and schedule: the replay
            // hash must see it.
            let other = axis.run(8);
            assert_ne!(
                first.fingerprint,
                other.fingerprint,
                "{}: different seeds should not collide",
                axis.label()
            );
        }
    }
}

/// Acceptance: relres ≤ 1e-6 on the 27-point and elasticity families at
/// 1, 2 and 4 shards, through the production entry point
/// (`Solver::sharded`, in-process rings, OS scheduling).
#[test]
fn sharded_reaches_tolerance_at_1_2_4_shards() {
    let families = [MatrixFamily::TwentySevenPt(8), MatrixFamily::Elasticity(2)];
    for family in families {
        let setup = setup_for(family);
        let b = random_rhs(setup.n(), 11);
        for n_shards in [1usize, 2, 4] {
            let result = Solver::new(&setup).tolerance(1e-7).t_max(1000).sharded(n_shards).run(&b);
            assert!(
                result.relres <= 1e-6,
                "{family:?} at {n_shards} shards: relres {} above 1e-6 ({:?}, {} hub cycles)",
                result.relres,
                result.outcome,
                result.hub_cycles
            );
            assert!(result.stats.conserved(), "{family:?} at {n_shards} shards: counters");
            assert!(result.stopped_on_tolerance, "{family:?} at {n_shards} shards: no stop");
        }
    }
}

/// Cross-model agreement: the sharded solver, the synchronous
/// multiplicative reference and the shared-memory async solver (every
/// write × res-comp flavour) all converge to the same solution within a
/// schedule-independent 1e-3 bound.
#[test]
fn sharded_agrees_with_shared_memory_models() {
    let setup = setup_for(MatrixFamily::SevenPt(6));
    let b = random_rhs(setup.n(), 5);

    let reference = solve_mult_probed(&setup, &b, 200, Some(1e-10), &NoopProbe);
    let ref_relres = reference.history.last().copied().unwrap_or(f64::INFINITY);
    assert!(ref_relres <= 1e-10, "reference did not converge: {ref_relres}");
    let scale = reference.x.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1.0);
    let agree = |x: &[f64], what: &str| {
        let diff = x.iter().zip(&reference.x).fold(0.0f64, |m, (&a, &r)| m.max((a - r).abs()));
        assert!(
            diff / scale <= 1e-3,
            "{what} diverges from the mult reference: relative max-abs {}",
            diff / scale
        );
    };

    for n_shards in [1usize, 2, 4] {
        let result = Solver::new(&setup).tolerance(1e-8).t_max(400).sharded(n_shards).run(&b);
        assert!(result.relres <= 1e-8, "sharded({n_shards}): {}", result.relres);
        agree(&result.x, &format!("sharded({n_shards})"));
    }

    // The shared-memory async solves run under a seeded `VirtualSched`, one
    // seed per flavour: under OS scheduling a team starved by the other
    // tests of this binary can spend its 200 corrections before the rest
    // catch up, so the bound would measure the host's load.
    let flavours = [WriteMode::Lock, WriteMode::Atomic]
        .into_iter()
        .flat_map(|w| [ResComp::Local, ResComp::Global, ResComp::ResidualBased].map(|r| (w, r)));
    for (seed, (write, res_comp)) in flavours.enumerate() {
        let sched = VirtualSched::new(seed as u64);
        let env = ExecEnv { sched: Some(&sched), ..ExecEnv::default() };
        let mut opts = AsyncOptions::default();
        opts.write = write;
        opts.res_comp = res_comp;
        if res_comp == ResComp::Global {
            // Global-res reads stale residual components by design and
            // carries no deep-convergence guarantee (the schedule-fuzz
            // oracle exempts it); bound it, don't compare it.
            opts.t_max = 16;
            let result = solve_async(&setup, &b, &opts, &NoopProbe, env);
            assert!(result.relres.is_finite(), "async {write:?}/{res_comp:?} went non-finite");
            continue;
        }
        opts.t_max = 200;
        opts.criterion = StopCriterion::tolerance(1e-8);
        let result = solve_async(&setup, &b, &opts, &NoopProbe, env);
        assert!(
            result.relres <= 1e-6,
            "async {write:?}/{res_comp:?} did not converge: {}",
            result.relres
        );
        agree(&result.x, &format!("async {write:?}/{res_comp:?}"));
    }
}

/// One outcome rule across every solver family: under a single tolerance,
/// the sequential, threaded-Mult, sync-Multadd, async-Multadd and
/// `sharded(2)` solves (the last two under a seeded `VirtualSched`) report
/// `Converged` exactly when their exact final residual is below it — with a
/// budget that reaches it and with one that cannot.
#[test]
fn every_family_reports_converged_iff_below_tolerance() {
    use asyncmg_core::{Method, SolveOutcome};
    const TOL: f64 = 1e-6;
    let setup = setup_for(MatrixFamily::SevenPt(6));
    let b = random_rhs(setup.n(), 9);
    for t_max in [2, 400] {
        let solver = Solver::new(&setup).tolerance(TOL).t_max(t_max);
        let seeded = VirtualSched::new(31);
        let sharded_sched = VirtualSched::new(32);
        let sharded = solver.sched(&sharded_sched).sharded(2).run(&b);
        let runs = [
            ("sequential", solver.method(Method::Mult).threads(0).run(&b)),
            ("threaded mult", solver.method(Method::Mult).threads(2).run(&b)),
            ("sync multadd", solver.method(Method::Multadd).threads(2).sync(true).run(&b)),
            ("async multadd", solver.method(Method::Multadd).threads(2).sched(&seeded).run(&b)),
        ];
        let mut outcomes: Vec<_> = runs.iter().map(|(w, r)| (*w, r.relres, r.outcome)).collect();
        outcomes.push(("sharded(2)", sharded.relres, sharded.outcome));
        for (what, relres, outcome) in outcomes {
            assert_eq!(
                outcome == SolveOutcome::Converged,
                relres < TOL,
                "{what}, t_max {t_max}: {outcome:?} at relres {relres:e}"
            );
            let expected =
                if t_max == 2 { SolveOutcome::MaxIterations } else { SolveOutcome::Converged };
            assert_eq!(outcome, expected, "{what}, t_max {t_max}: relres {relres:e}");
        }
    }
}
