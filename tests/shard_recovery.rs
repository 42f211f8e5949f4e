//! Self-healing sharded solves (ISSUE 9 acceptance criteria).
//!
//! * A solve whose shard crashes mid-run still reaches relres ≤ 1e-6 at 2
//!   and 4 shards: the hub's failure detector declares the death, evicts
//!   the zombie, and a surviving neighbor adopts the rows, warm-started
//!   from the hub's last checkpoint.
//! * The whole recovery pipeline — detection, adoption, ack + bounded
//!   retransmission — replays bit-identically from one seed pair under
//!   `VirtualSched` and a lossy `VirtualTransport`.
//! * Row adoption preserves halo exactness: the rewired `ShardMap` is
//!   indistinguishable from a fresh map over the merged partition
//!   (property-based, arbitrary partitions and adoption chains).
//! * `Solver::resilient` degrades through sharded rungs
//!   (`Sharded{2} → Sharded{1} → …`) via the `ShardedRungDriver`.
//! * Recovery events and the retransmit counter surface in the telemetry
//!   trace JSON.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{MgOptions, MgSetup, RetryPolicy, Rung, Solver};
use asyncmg_harness::{check_sharded, NetAxis, RecoveryAxis, ShardAxis};
use asyncmg_problems::rhs::random_rhs;
use asyncmg_problems::stencil::laplacian_7pt;
use asyncmg_shard::{
    sharded_ladder, ShardMap, ShardRecovery, ShardedExt, ShardedRungDriver, VirtualTransport,
};
use asyncmg_threads::{Fault, FaultPlan, VirtualClock, VirtualSched};
use proptest::prelude::*;
use std::ops::Range;

fn setup_7pt6() -> MgSetup {
    let a = laplacian_7pt(6, 6, 6);
    MgSetup::new(build_hierarchy(a, &AmgOptions::default()), MgOptions::default())
}

/// The healing axis: shard 1 crashes at epoch 3 and never returns; the
/// detector (threshold 8 epochs of fabric silence) declares it dead and a
/// neighbor adopts its rows.
fn heal_axis(n_shards: usize, net: NetAxis) -> ShardAxis {
    ShardAxis {
        n_shards,
        net,
        t_max: 400,
        tolerance: Some(1e-6),
        max_relres: Some(1e-6),
        recovery: RecoveryAxis::Adopt { crash_epoch: 3, threshold: 8 },
        ..ShardAxis::base()
    }
}

/// Crash-at-epoch acceptance: the one-shard-crashed solve reaches
/// relres ≤ 1e-6 at 2 and 4 shards, on clean and lossy fabrics, with the
/// crashed rank never returning — detection plus adoption carry the solve.
#[test]
fn crashed_shard_solve_reaches_tolerance() {
    for n_shards in [2, 4] {
        for net in [NetAxis::Ideal, NetAxis::Drop] {
            for seed in [1, 7] {
                let axis = heal_axis(n_shards, net);
                let run = axis.run(seed);
                if let Err(v) = check_sharded(&axis, &run) {
                    panic!("{} seed {seed}: {}", v.case, v.reason);
                }
                let r = &run.result;
                assert!(
                    r.relres <= 1e-6,
                    "s{n_shards} {net:?} seed {seed}: relres {} above 1e-6",
                    r.relres
                );
                assert_eq!(r.recovery.dead_shards, vec![1], "exactly the crashed shard dies");
                assert!(
                    r.recovery.adoptions.iter().any(|&(dead, _)| dead == 1),
                    "shard 1's rows were adopted"
                );
                // The crashed rank exits at its crash epoch and stays gone.
                assert!(r.shard_epochs[1] <= 3, "crashed shard ran past its crash epoch");
            }
        }
    }
}

/// Detection without adoption still terminates cleanly: the dead shard's
/// rows freeze at the hub's last checkpoint, so convergence is not
/// demanded, but the death is declared, the zombie evicted, and the run
/// stays finite and conservative (all checked by the oracle).
#[test]
fn detection_without_adoption_freezes_rows() {
    let axis = ShardAxis {
        n_shards: 3,
        t_max: 120,
        recovery: RecoveryAxis::Detect { crash_epoch: 3, threshold: 8 },
        max_relres: None,
        ..ShardAxis::base()
    };
    for seed in [1, 7] {
        let run = axis.run(seed);
        if let Err(v) = check_sharded(&axis, &run) {
            panic!("{} seed {seed}: {}", v.case, v.reason);
        }
        assert!(run.result.recovery.adoptions.is_empty());
    }
}

/// The full pipeline — crash, silence, declaration, eviction, adoption,
/// retransmission over a dropping fabric — is a pure function of the seed
/// pair: same seed, same fingerprint, down to the solution bits and the
/// recovery counters. The lossy fabric forces actual retransmits.
#[test]
fn recovery_replays_bit_identical_under_drops() {
    let axis = heal_axis(4, NetAxis::Drop);
    for seed in [1, 5, 23] {
        let a = axis.run(seed);
        let b = axis.run(seed);
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed} replay diverged");
        assert_eq!(a.decisions, b.decisions, "seed {seed} schedule diverged");
        let kinds: Vec<&str> = a.result.faults.iter().map(|f| f.kind.name()).collect();
        assert!(kinds.contains(&"shard_declared_dead"), "seed {seed}: no death event");
        assert!(kinds.contains(&"rows_adopted"), "seed {seed}: no adoption event");
        assert!(
            a.result.recovery.retransmits > 0,
            "seed {seed}: a 20 % drop fabric must force retransmits"
        );
        assert!(a.result.recovery.acks > 0, "seed {seed}: reliable sends were never acked");
        assert!(a.result.recovery.checkpoints > 0, "seed {seed}: no checkpoints accepted");
    }
}

/// `Solver::resilient` walks the sharded degradation ladder: a budget too
/// small for the wide rung escalates to narrower ones (S → S/2 → … → 1)
/// and then falls through to the shared-memory ladder, warm-starting each
/// attempt from the best hub-assembled checkpoint.
#[test]
fn resilient_session_degrades_through_sharded_rungs() {
    let setup = setup_7pt6();
    let b = random_rhs(setup.n(), 17);
    let driver = ShardedRungDriver::default();
    let ladder = sharded_ladder(2);
    assert_eq!(ladder[0], Rung::Sharded { shards: 2 });
    assert_eq!(ladder[1], Rung::Sharded { shards: 1 });
    let report = Solver::new(&setup)
        .tolerance(1e-8)
        .t_max(8)
        .retry(RetryPolicy { max_attempts: 9, ..RetryPolicy::default() })
        .session_seed(11)
        .ladder(&ladder)
        .shard_driver(&driver)
        .resilient(&b);
    assert!(report.converged, "relres {}", report.relres);
    assert!(report.relres <= 1e-8);
    // Eight epochs cannot reach 1e-8, so the session visited (at least)
    // both sharded rungs before the shared-memory ladder finished the job.
    assert_eq!(report.attempts[0].rung, Rung::Sharded { shards: 2 });
    assert_eq!(report.attempts[1].rung, Rung::Sharded { shards: 1 });
    assert!(report.attempts.len() > 2);
    assert!(
        report.attempts[1..].iter().any(|a| a.warm_start),
        "degraded rungs warm-start from the checkpoint store"
    );
    // Seeded sessions replay bit-identically through the sharded rungs too.
    let replay = Solver::new(&setup)
        .tolerance(1e-8)
        .t_max(8)
        .retry(RetryPolicy { max_attempts: 9, ..RetryPolicy::default() })
        .session_seed(11)
        .ladder(&ladder)
        .shard_driver(&driver)
        .resilient(&b);
    assert_eq!(report.relres.to_bits(), replay.relres.to_bits());
    for (u, v) in report.x.iter().zip(&replay.x) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}

/// `.sharded(n)` inherits the solver's whole execution environment, the
/// session clock included: a recovery-armed sharded solve built from a
/// virtual-clock solver polls that clock (not wall time), so two runs from
/// the same seeds agree bit for bit.
#[test]
fn sharded_solve_inherits_the_solver_clock_and_sched() {
    let setup = setup_7pt6();
    let b = random_rhs(setup.n(), 5);
    let run = || {
        let sched = VirtualSched::new(7);
        let clock = VirtualClock::new();
        let net = VirtualTransport::new(3, 1);
        let result = Solver::new(&setup)
            .t_max(40)
            .sched(&sched)
            .clock(&clock)
            .sharded(2)
            .transport(&net)
            .recovery(Some(ShardRecovery::default()))
            .run(&b);
        assert!(clock.elapsed() > std::time::Duration::ZERO, "the hub never polled the clock");
        assert!(sched.steps() > 0, "the virtual scheduler made no decisions");
        result
    };
    let (r1, r2) = (run(), run());
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r1.x), bits(&r2.x), "same seeds, same clock: replay must be bit-identical");
    assert_eq!(r1.relres.to_bits(), r2.relres.to_bits());
}

/// Recovery surfaces in telemetry: the trace JSON carries the death and
/// adoption events plus the hub's retransmit counter.
#[test]
fn recovery_events_surface_in_trace_json() {
    let setup = setup_7pt6();
    let b = random_rhs(setup.n(), 3);
    let sched = VirtualSched::new(9);
    let net = VirtualTransport::with_profile(5, 1234, 4, 0.2);
    let clock = VirtualClock::new();
    let plan = FaultPlan::new(9).with(Fault::Crash { team: 1, at_round: 3 });
    let result = Solver::new(&setup)
        .tolerance(1e-6)
        .t_max(200)
        .sched(&sched)
        .clock(&clock)
        .fault_plan(&plan)
        .sharded(4)
        .recovery(Some(ShardRecovery::default()))
        .transport(&net)
        .with_trace()
        .run(&b);
    let json = result.trace.expect("trace requested").to_json();
    assert!(json.contains("\"shard_declared_dead\""), "death event missing from trace");
    assert!(json.contains("\"rows_adopted\""), "adoption event missing from trace");
    assert!(json.contains("\"retransmits\""), "retransmit counter missing from trace");
    assert!(json.contains("\"asyncmg-trace-v5\""), "schema tag");
    assert_eq!(result.recovery.dead_shards, vec![1]);
}

/// Turns arbitrary cut positions into a partition of `0..n` into
/// contiguous ranges (same generator the halo unit tests use: the
/// stand-in `proptest` draws raw cuts, the body shapes them).
fn ranges_from_cuts(n: usize, cuts: Vec<usize>) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c > 0 && c < n).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut ranges = Vec::new();
    let mut start = 0;
    for c in cuts {
        ranges.push(start..c);
        start = c;
    }
    ranges.push(start..n);
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adoption preserves gather/scatter exactness for arbitrary
    /// partitions: after adopting a dead shard's rows, the live map's
    /// ghost lists, neighbor sets and halo round-trips agree exactly with
    /// a fresh `ShardMap` built over the merged partition.
    #[test]
    fn adoption_preserves_halo_exactness(
        cuts in prop::collection::vec(1usize..64, 1..5),
        dead_sel in 0usize..64,
        seed in 0u64..1000,
    ) {
        let a = laplacian_7pt(4, 4, 4);
        let ranges = ranges_from_cuts(64, cuts);
        let n_shards = ranges.len();
        prop_assume!(n_shards >= 2);
        let mut map = ShardMap::new(&a, ranges);
        let dead = dead_sel % n_shards;
        let adopter = if dead == 0 { 1 } else { dead - 1 };
        map.adopt(&a, dead, adopter);
        let fresh = ShardMap::new(&a, map.ranges().to_vec());
        let x = random_rhs(64, seed);
        let mut wire = Vec::new();
        let mut wire_fresh = Vec::new();
        for from in 0..n_shards {
            prop_assert_eq!(map.neighbors_out(from), fresh.neighbors_out(from));
            for to in (0..n_shards).filter(|&t| t != from) {
                prop_assert_eq!(map.ghost_indices(from, to), fresh.ghost_indices(from, to));
                map.gather(from, to, &x, &mut wire);
                fresh.gather(from, to, &x, &mut wire_fresh);
                prop_assert_eq!(&wire, &wire_fresh);
                // Scattering the gathered values reconstructs the sender's
                // iterate exactly at every ghost position.
                let mut y = vec![0.0; 64];
                prop_assert!(map.scatter(from, to, &wire, &mut y));
                for (&g, &v) in map.ghost_indices(from, to).iter().zip(&wire) {
                    prop_assert_eq!(y[g as usize].to_bits(), x[g as usize].to_bits());
                    prop_assert_eq!(v.to_bits(), x[g as usize].to_bits());
                }
            }
        }
        // The dead shard owns nothing and nobody needs its values.
        prop_assert!(map.range(dead).is_empty());
        prop_assert!(map.neighbors_out(dead).is_empty());
    }
}
