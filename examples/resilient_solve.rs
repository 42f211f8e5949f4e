//! Resilient solve sessions: checkpoint/rollback, retry-with-backoff, and
//! the automatic degradation ladder surviving injected faults.
//!
//! ```sh
//! cargo run --release -p asyncmg-apps --example resilient_solve
//! ```
//!
//! A fault plan crashes one grid team and corrupts a correction write with
//! `NaN`. A plain async solve ends `Faulted`/`Degraded`; a resilient
//! session retries from the best checkpoint, walking the degradation
//! ladder (`async atomic → async lock → semi-async → sync mult → PCG`)
//! until the tolerance is met or the retry budget runs out.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_core::{Method, RetryPolicy, Solver};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
use asyncmg_threads::{Corruption, Fault, FaultPlan};
use std::time::Duration;

fn main() {
    // 1. A 3-D Poisson problem and its AMG hierarchy.
    let n = 16;
    let a = laplacian_7pt(n, n, n);
    println!("matrix: {} rows, {} non-zeros", a.nrows(), a.nnz());
    let b = random_rhs(a.nrows(), 42);
    let setup = MgSetup::new(build_hierarchy(a, &AmgOptions::default()), MgOptions::default());

    // 2. A hostile environment: grid team 1 crashes after two rounds and
    //    grid 2's first correction write is corrupted to NaN.
    let plan = FaultPlan::new(0xFA17)
        .with(Fault::Crash { team: 1, at_round: 2 })
        .with(Fault::CorruptWrite { grid: 2, at_round: 1, kind: Corruption::Nan });

    // 3. A plain async solve under this plan ends in a structured failure —
    //    the guards keep x finite, but the crashed team stalls convergence.
    let plain = Solver::new(&setup)
        .method(Method::Multadd)
        .threads(4)
        .t_max(30)
        .tolerance(1e-6)
        .fault_plan(&plan)
        .run(&b);
    println!(
        "plain async    : relres {:9.2e} ({:?}, {} faults logged)",
        plain.relres,
        plain.outcome,
        plain.faults.len()
    );

    // 4. The same configuration as a resilient session: every attempt ends
    //    with a checkpoint, failed attempts retry with exponential backoff
    //    from the best one, and each retry escalates one ladder rung with
    //    hardened recovery options.
    let report = Solver::new(&setup)
        .method(Method::Multadd)
        .threads(4)
        .t_max(30)
        .tolerance(1e-6)
        .fault_plan(&plan)
        .retry(RetryPolicy {
            max_attempts: 6,
            backoff: Duration::from_millis(2),
            deadline: Some(Duration::from_secs(30)),
        })
        .with_trace()
        .resilient(&b);

    println!(
        "resilient      : relres {:9.2e} (converged: {}, {} attempts, {:.1?})",
        report.relres,
        report.converged,
        report.attempts.len(),
        report.elapsed
    );
    for a in &report.attempts {
        println!(
            "  attempt {}: {:<12} relres {:9.2e} {:?}{}{}",
            a.index,
            a.rung.name(),
            a.relres,
            a.outcome,
            if a.warm_start { ", warm start" } else { "" },
            a.escalation.map_or(String::new(), |e| format!(" → escalate ({})", e.name())),
        );
    }
    println!(
        "checkpoints    : {} taken, {} restored, best relres {:?}",
        report.checkpoints.taken, report.checkpoints.restored, report.checkpoints.best_relres
    );
    if let Some(trace) = &report.trace {
        println!(
            "trace          : {} attempt records, {} checkpoint events ({})",
            trace.attempts.len(),
            trace.checkpoints.len(),
            asyncmg_telemetry::SolveTrace::SCHEMA
        );
    }
}
