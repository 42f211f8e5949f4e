//! Threaded classical multiplicative multigrid ("sync Mult").
//!
//! All threads cooperate on every level with OpenMP-style static
//! partitioning and a global barrier after each operation — the maximally
//! synchronous baseline of the paper's Table I and Figure 6. On every grid
//! of every cycle the full thread set synchronises several times, which is
//! exactly the cost asynchronous Multadd avoids. The cycle itself is the
//! V-cycle in `chain.rs`, run by one team of all threads.

use crate::asynchronous::SolveOutcome;
use crate::chain::Chain;
use crate::setup::MgSetup;
use crate::solver::SolveReport;
use crate::workspace::Workspace;
use asyncmg_sparse::vecops;
use asyncmg_telemetry::Probe;
use asyncmg_threads::{run_teams_sched, ExecEnv, OsSched, RacyBuf, RacyVec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Threaded multiplicative V-cycles with tolerance-based early stopping
/// and telemetry — the one public entry point of the family. Every cycle
/// starts with the team's parallel fine-grid residual `r₀ = b − A x`; when
/// `tol` is set (or `probe` records) that same `r₀` is also the exit test of
/// the cycle just finished: the master sums its squares in row order —
/// `n` flops, no extra SpMV — records the exact relative residual in the
/// report's `history`, samples it into `probe`, and stops all threads once
/// it is below `tol`. A final residual pass after cycle `t_max` keeps
/// "checked after every cycle" true. Like sequential Mult, the report has
/// one `grid_corrections` entry: the cycle count, attributed to grid 0.
///
/// The cycle is [`mult_vcycle`](crate::mult_vcycle)'s, with the same
/// `MgOptions::{n_pre, n_post, coarse}`; the block-GS smoothers are blocked
/// by the thread count. Every per-level loop is one call of a chunk-local
/// range kernel ([`Kernel::residual_rows`](asyncmg_sparse::Kernel::residual_rows)
/// and friends) on the rank's chunk, so BSR levels run the shared-x
/// block-row kernel and stencil levels the across-row plan, exactly as the
/// sequential cycle does.
///
/// The cycle is fully barriered, so any `env.sched` produces the same bits;
/// a [`VirtualSched`](asyncmg_threads::VirtualSched) makes the run
/// deterministic end to end. `env.clock` is unused (nothing here waits on
/// time), and `env.plan` must be empty: a crashed rank would deadlock the
/// barriers, exactly as in the asynchronous driver's `sync` mode.
pub fn solve_mult_threaded<P: Probe + ?Sized>(
    setup: &MgSetup,
    b: &[f64],
    n_threads: usize,
    t_max: usize,
    tol: Option<f64>,
    probe: &P,
    env: ExecEnv<'_>,
) -> SolveReport {
    assert!(
        env.plan.is_none_or(|p| p.is_empty()),
        "fault injection requires the asynchronous solver (a crashed rank would deadlock the \
         multiplicative cycle's barriers)"
    );
    let os_sched = OsSched::for_teams(&[n_threads]);
    let sched = env.sched.unwrap_or(&os_sched);
    let n = setup.n();
    let ws = Workspace::new(setup);
    let x = RacyVec::zeros(n);
    let smoothers = setup.smoothers_for(0..setup.n_levels(), n_threads);
    let nb = vecops::norm2(b);
    let nb_safe = if nb > 0.0 { nb } else { 1.0 };
    let check = tol.is_some() || probe.enabled();
    let stop = AtomicBool::new(false);
    let cycles_done = AtomicUsize::new(0);
    // Slot `c − 1` holds the check after cycle `c`: the master writes it,
    // and it is read after the join, so no lock sits on the cycle path.
    let history = RacyBuf::filled(if check { t_max } else { 0 }, 0.0);

    let epoch = Instant::now();
    run_teams_sched(&[n_threads], sched, |ctx| {
        let chain = Chain::new(setup, &smoothers, 0, &ws, &ctx);
        let rows = ctx.chunk(n);
        // `cycle` counts finished cycles. Every thread takes the same
        // branches: `check`, `t_max` and `cycle` are the same on all of them.
        let mut cycle = 0;
        loop {
            // r_0 after cycle `cycle − 1` is that cycle's exit test.
            let checking = check && cycle > 0;
            if cycle == t_max && !checking {
                break;
            }
            // r_0 = b − A x.
            {
                let xs = unsafe { x.as_slice() };
                let dst = unsafe { ws.r[0].slice_mut(rows.clone()) };
                setup.op(0).residual_rows(rows.clone(), b, xs, dst);
            }
            ctx.barrier();
            if checking {
                if ctx.is_team_master() {
                    let r0 = unsafe { ws.r[0].as_slice() };
                    let rel = vecops::norm2(r0) / nb_safe;
                    // SAFETY: only the master touches `history` before the
                    // join, and `cycle − 1 < t_max` (`check` sized it).
                    unsafe { history.set(cycle - 1, rel) };
                    if probe.enabled() {
                        let t_ns = epoch.elapsed().as_nanos() as u64;
                        probe.correction(ctx.global_rank, 0, cycle - 1, t_ns, rel);
                        probe.residual_sample(t_ns, rel);
                    }
                    if tol.is_some_and(|t| rel < t) {
                        stop.store(true, Ordering::Release);
                    }
                }
                ctx.barrier();
                if cycle == t_max || stop.load(Ordering::Acquire) {
                    break;
                }
            }
            chain.vcycle(0);
            // x += e_0.
            {
                let e0 = unsafe { ws.e[0].as_slice() };
                let dst = unsafe { x.slice_mut(rows.clone()) };
                for (off, i) in rows.clone().enumerate() {
                    dst[off] += e0[i];
                }
            }
            ctx.barrier();
            cycle += 1;
            if ctx.is_team_master() {
                cycles_done.store(cycle, Ordering::Release);
            }
        }
    });
    let elapsed = epoch.elapsed();

    let xv = unsafe { x.as_slice().to_vec() };
    let mut res = vec![0.0; n];
    setup.op(0).residual(b, &xv, &mut res);
    let relres = if nb > 0.0 { vecops::norm2(&res) / nb } else { vecops::norm2(&res) };
    let cycles = cycles_done.load(Ordering::Acquire);
    let mut history = history.into_vec();
    history.truncate(cycles);
    // The cycle is fully barriered, so the stop flag is only ever raised by
    // the master's exact residual check — it doubles as the "tolerance
    // actually observed" signal.
    SolveReport {
        x: xv,
        relres,
        converged: tol.is_none_or(|t| relres < t),
        stopped_on_tolerance: stop.load(Ordering::Acquire),
        grid_corrections: vec![cycles],
        corrects_mean: cycles as f64,
        history,
        elapsed,
        outcome: SolveOutcome::classify(relres, tol, &[]),
        faults: Vec::new(),
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::solve_mult_probed;
    use crate::setup::MgOptions;
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_27pt, TestSet};
    use asyncmg_smoothers::SmootherKind;
    use asyncmg_telemetry::{NoopProbe, TelemetryProbe};

    /// The two operator shapes the range kernels specialise on: a 27-point
    /// stencil (across-row plan; chunk edges fall inside SIMD runs) and 3×3
    /// block elasticity (BSR; chunk edges fall inside block rows).
    fn problems() -> Vec<(&'static str, MgSetup)> {
        let poisson = build_hierarchy(laplacian_27pt(12, 12, 12), &AmgOptions::default());
        let beam = build_hierarchy(
            TestSet::Elasticity.matrix(6),
            &AmgOptions { num_functions: 3, ..AmgOptions::default() },
        );
        let l1 = MgOptions { smoother: SmootherKind::L1Jacobi, ..Default::default() };
        let beam = MgSetup::new(beam, l1);
        assert_eq!(beam.op(0).label(), "bsr");
        vec![("27pt", MgSetup::new(poisson, MgOptions::default())), ("beam", beam)]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The relative residuals the master sampled, one per finished cycle.
    fn sampled(probe: &mut TelemetryProbe) -> Vec<u64> {
        probe.take_trace().residual_history.iter().map(|s| s.relres.to_bits()).collect()
    }

    /// Threaded Mult is sequential Mult, bit for bit — iterate, cycle count
    /// and every per-cycle relative residual — at any thread count, whether
    /// it stops on tolerance, only records, or runs unchecked.
    #[test]
    fn threaded_equals_sequential_bitwise() {
        const T_MAX: usize = 9;
        for (name, s) in problems() {
            let b = random_rhs(s.n(), 17);
            let fixed = solve_mult_probed(&s, &b, T_MAX, None, &NoopProbe);
            // A tolerance the run meets after a few cycles, short of T_MAX.
            let tol = fixed.history[3] * 1.0001;
            let early = solve_mult_probed(&s, &b, T_MAX, Some(tol), &NoopProbe);
            assert_eq!(early.history.len(), 4, "{name}");
            for t in [1usize, 2, 3, 7] {
                let tag = format!("{name} T={t}");
                // Tolerance set: stops where the sequential run stops.
                let mut probe = TelemetryProbe::with_threads(t);
                let env = ExecEnv::default();
                let par = solve_mult_threaded(&s, &b, t, T_MAX, Some(tol), &probe, env);
                assert_eq!(bits(&par.x), bits(&early.x), "{tag} tol: x");
                assert_eq!(par.grid_corrections[0], early.history.len(), "{tag} tol: cycles");
                assert!(par.stopped_on_tolerance, "{tag}");
                assert_eq!(sampled(&mut probe), bits(&early.history), "{tag} tol: rel");
                assert_eq!(bits(&par.history), bits(&early.history), "{tag} tol: history");
                // No tolerance, recording probe: the check still runs, after
                // every cycle including the last.
                let par = solve_mult_threaded(&s, &b, t, T_MAX, None, &probe, env);
                assert_eq!(bits(&par.x), bits(&fixed.x), "{tag} probe: x");
                assert_eq!(par.grid_corrections[0], T_MAX, "{tag} probe: cycles");
                assert!(!par.stopped_on_tolerance, "{tag}");
                assert_eq!(sampled(&mut probe), bits(&fixed.history), "{tag} probe: rel");
                assert_eq!(bits(&par.history), bits(&fixed.history), "{tag} probe: history");
                // Neither: exactly T_MAX cycles, nothing checked.
                let par = solve_mult_threaded(&s, &b, t, T_MAX, None, &NoopProbe, env);
                assert_eq!(bits(&par.x), bits(&fixed.x), "{tag} plain: x");
                assert_eq!(par.grid_corrections[0], T_MAX, "{tag} plain: cycles");
                assert_eq!(par.relres.to_bits(), fixed.relres.to_bits(), "{tag} plain");
                assert!(par.history.is_empty(), "{tag} plain: nothing checked");
            }
        }
    }

    #[test]
    fn zero_cycle_budget_runs_nothing() {
        let (_, s) = problems().swap_remove(0);
        let b = random_rhs(s.n(), 3);
        let mut probe = TelemetryProbe::with_threads(2);
        let par = solve_mult_threaded(&s, &b, 2, 0, Some(1e-6), &probe, ExecEnv::default());
        assert!(par.x.iter().all(|&v| v == 0.0));
        assert_eq!(par.grid_corrections[0], 0);
        assert!(sampled(&mut probe).is_empty());
    }
}
