//! Self-healing sharded solves: a shard crashes mid-run and the solve
//! heals itself — failure detection, row adoption, reliable control-plane
//! delivery — then the resilient session degrades through sharded rungs.
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example self_healing_solve [n_shards] [crash_epoch]
//! ```
//!
//! Three acts:
//!
//! 1. An undefended sharded solve with shard 1 crashed at `crash_epoch`:
//!    the survivors finish their budget but the dead shard's error is
//!    stranded.
//! 2. The same crash with recovery armed (`ShardRecovery`), over a lossy
//!    seeded fabric: the hub declares the death, a neighbor adopts the
//!    rows, retransmission carries the control plane through 20 % message
//!    loss, and the solve converges — bit-identically replayable.
//! 3. A resilient session on the sharded ladder: each failed attempt
//!    halves the shard count (`Sharded 4 → 2 → 1 → …`), warm-started from
//!    the best hub-assembled checkpoint.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{MgOptions, MgSetup, RetryPolicy, Solver};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
use asyncmg_shard::{
    sharded_ladder, ShardRecovery, ShardedExt, ShardedRungDriver, VirtualTransport,
};
use asyncmg_threads::{Fault, FaultPlan, VirtualClock, VirtualSched};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_shards: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let crash_epoch: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    let a = laplacian_7pt(8, 8, 8);
    let setup = MgSetup::new(build_hierarchy(a, &AmgOptions::default()), MgOptions::default());
    let b = random_rhs(setup.n(), 7);
    println!(
        "7pt 8³: {} rows, {n_shards} shards + 1 hub, shard 1 crashes at epoch {crash_epoch}\n",
        setup.n()
    );

    let plan = FaultPlan::new(9).with(Fault::Crash { team: 1, at_round: crash_epoch });
    let seed = 42u64;
    let ranks = n_shards + 1;

    // 1. Undefended: the crash strands shard 1's rows.
    let sched = VirtualSched::new(seed);
    let net = VirtualTransport::new(ranks, seed);
    let undefended = Solver::new(&setup)
        .tolerance(1e-6)
        .t_max(400)
        .sched(&sched)
        .fault_plan(&plan)
        .sharded(n_shards)
        .transport(&net)
        .run(&b);
    println!(
        "undefended : relres {:9.2e} ({:?}) — the dead shard's error is stranded",
        undefended.relres, undefended.outcome
    );

    // 2. Recovery armed, 20 % data loss: detect, evict, adopt, converge.
    let heal = |seed: u64| {
        let sched = VirtualSched::new(seed);
        let net = VirtualTransport::with_profile(ranks, seed, 4, 0.2);
        let clock = VirtualClock::new();
        Solver::new(&setup)
            .tolerance(1e-6)
            .t_max(400)
            .sched(&sched)
            .clock(&clock)
            .fault_plan(&plan)
            .sharded(n_shards)
            .recovery(Some(ShardRecovery::default()))
            .transport(&net)
            .run(&b)
    };
    let healed = heal(seed);
    let rec = &healed.recovery;
    println!(
        "self-healed: relres {:9.2e} ({:?}) over a 20 % lossy fabric",
        healed.relres, healed.outcome
    );
    println!(
        "             dead {:?}, adoptions {:?}, {} retransmits, {} acks, {} checkpoints",
        rec.dead_shards, rec.adoptions, rec.retransmits, rec.acks, rec.checkpoints
    );
    let replay = heal(seed);
    println!(
        "             replay bit-identical: {}",
        healed.x.iter().zip(&replay.x).all(|(u, v)| u.to_bits() == v.to_bits())
            && healed.relres.to_bits() == replay.relres.to_bits()
    );

    // 3. The sharded degradation ladder inside a resilient session.
    let driver = ShardedRungDriver::default();
    let ladder = sharded_ladder(n_shards as u32);
    let report = Solver::new(&setup)
        .tolerance(1e-8)
        .t_max(12)
        .retry(RetryPolicy { max_attempts: 9, ..RetryPolicy::default() })
        .session_seed(11)
        .ladder(&ladder)
        .shard_driver(&driver)
        .resilient(&b);
    println!("\nsession    : relres {:9.2e}, converged {}", report.relres, report.converged);
    for a in &report.attempts {
        println!(
            "  attempt {}: {:<12} relres {:9.2e}{}{}",
            a.index,
            a.rung.name(),
            a.relres,
            if a.warm_start { "  warm-start" } else { "" },
            a.escalation.map(|e| format!("  → {}", e.name())).unwrap_or_default()
        );
    }
}
