//! The sharded execution model: one worker per shard, a hub for coarse
//! corrections, everything over explicit messages.
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example sharded_solve [n_shards] [nx]
//! ```
//!
//! Solves a 27-point Poisson problem with the production transport
//! (lock-free in-process rings), then replays the same problem over a
//! lossy seeded `VirtualTransport` under a `VirtualSched` — twice, to show
//! the replay is bit-identical fingerprint-for-fingerprint even while 40 %
//! of the data messages are dropped.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{MgOptions, MgSetup, Solver};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_27pt};
use asyncmg_shard::{solve_sharded, ShardOptions, ShardedExt, VirtualTransport};
use asyncmg_telemetry::NoopProbe;
use asyncmg_threads::{ExecEnv, VirtualSched};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_shards: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let nx: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);

    let a = laplacian_27pt(nx, nx, nx);
    let h = build_hierarchy(a, &AmgOptions::default());
    let setup = MgSetup::new(h, MgOptions::default());
    let b = random_rhs(setup.n(), 7);
    println!(
        "27pt {nx}³: {} rows, {} levels, {n_shards} shards + 1 hub\n",
        setup.n(),
        setup.n_levels()
    );

    // 1. Production path: in-process SPSC rings, OS scheduling.
    let result = Solver::new(&setup).tolerance(1e-8).t_max(400).sharded(n_shards).run(&b);
    println!(
        "in-process : relres {:9.2e} ({:?}), {} hub cycles, shard epochs {:?}",
        result.relres, result.outcome, result.hub_cycles, result.shard_epochs
    );
    println!(
        "             {} msgs sent, {} delivered, {} reductions published",
        result.stats.total_sent(),
        result.stats.total_delivered(),
        result.reductions.len()
    );

    // 2. Deterministic path: seeded lossy fabric under a virtual schedule.
    let opts =
        ShardOptions { n_shards, t_max: 40, tolerance: Some(1e-8), ..ShardOptions::default() };
    let lossy = |seed: u64| {
        let net = VirtualTransport::with_profile(n_shards + 1, seed, 12, 0.4);
        let sched = VirtualSched::new(seed);
        let env = ExecEnv { sched: Some(&sched), ..Default::default() };
        solve_sharded(&setup, &b, &opts, &net, &NoopProbe, env)
    };
    let first = lossy(42);
    let second = lossy(42);
    println!(
        "\nlossy replay: relres {:9.2e}, {} of {} data msgs dropped",
        first.relres,
        first.stats.total_dropped(),
        first.stats.total_sent()
    );
    assert_eq!(first.x, second.x, "same seed must replay bit-identically");
    assert_eq!(first.relres, second.relres);
    println!("bit-identical across replays: yes");
}
