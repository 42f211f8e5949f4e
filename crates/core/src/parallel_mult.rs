//! Threaded classical multiplicative multigrid ("sync Mult").
//!
//! All threads cooperate on every level with OpenMP-style static
//! partitioning and a global barrier after each operation — the maximally
//! synchronous baseline of the paper's Table I and Figure 6. On every grid
//! of every cycle the full thread set synchronises several times, which is
//! exactly the cost asynchronous Multadd avoids.

use crate::asynchronous::{AsyncResult, SolveOutcome};
use crate::setup::{CoarseSolve, MgSetup};
use asyncmg_smoothers::{LevelSmoother, SmootherKind};
use asyncmg_sparse::vecops;
use asyncmg_telemetry::Probe;
use asyncmg_threads::{run_teams_sched, ExecEnv, OsSched, RacyVec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Per-level thread-shared work vectors of the threaded multiplicative
/// cycle, allocated once per solve before the team starts.
struct SharedWorkspace {
    /// Residual per level.
    r: Vec<RacyVec>,
    /// Correction per level.
    e: Vec<RacyVec>,
    /// General-purpose buffer per level.
    buf: Vec<RacyVec>,
    /// Sweep-start snapshot per level (post-smoothing reads it).
    old: Vec<RacyVec>,
    /// The fine-grid iterate.
    x: RacyVec,
}

impl SharedWorkspace {
    fn new(sizes: &[usize]) -> Self {
        SharedWorkspace {
            r: sizes.iter().map(|&m| RacyVec::zeros(m)).collect(),
            e: sizes.iter().map(|&m| RacyVec::zeros(m)).collect(),
            buf: sizes.iter().map(|&m| RacyVec::zeros(m)).collect(),
            old: sizes.iter().map(|&m| RacyVec::zeros(m)).collect(),
            x: RacyVec::zeros(sizes[0]),
        }
    }
}

/// Threaded multiplicative V-cycles with tolerance-based early stopping
/// and telemetry — the one public entry point of the family. When `tol` is
/// set (or `probe` records), the master computes the exact relative residual
/// at the end of every cycle — an extra fine-grid SpMV that the plain
/// fixed-cycle run does not pay — samples it into `probe`, and stops all
/// threads once it is below `tol`.
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
) -> AsyncResult {
    assert!(
        env.plan.is_none_or(|p| p.is_empty()),
        "fault injection requires the asynchronous solver (a crashed rank would deadlock the \
         multiplicative cycle's barriers)"
    );
    let os_sched = OsSched::for_teams(&[n_threads]);
    let sched = env.sched.unwrap_or(&os_sched);
    let n = setup.n();
    let ell = setup.n_levels() - 1;
    let sizes = setup.hierarchy.level_sizes();
    let ws = SharedWorkspace::new(&sizes);
    let SharedWorkspace { r, e, buf, old, x } = &ws;
    // Cached per-level row partitions: `parts[k][rank]` is the rank's
    // contiguous chunk of level `k`, derived once on the hierarchy instead
    // of being re-split on every operation of every cycle.
    let parts = setup.hierarchy.partitions(n_threads);
    let smoothers: Vec<LevelSmoother> = setup.with_nblocks(n_threads);
    let nb = vecops::norm2(b);
    let nb_safe = if nb > 0.0 { nb } else { 1.0 };
    let check = tol.is_some() || probe.enabled();
    let stop = AtomicBool::new(false);
    let cycles_done = AtomicUsize::new(0);

    let start = Instant::now();
    let epoch = Instant::now();
    run_teams_sched(&[n_threads], sched, |ctx| {
        for cycle in 0..t_max {
            // r_0 = b − A x.
            {
                let xs = unsafe { x.as_slice() };
                let chunk = parts[0][ctx.rank].clone();
                let dst = unsafe { r[0].slice_mut(chunk.clone()) };
                for (off, i) in chunk.enumerate() {
                    dst[off] = b[i] - setup.op(0).row_dot(i, xs);
                }
            }
            ctx.barrier();
            // Downward sweep.
            for k in 0..ell {
                let a_k = setup.op(k);
                // Pre-smooth from zero: e_k = Λ r_k (rank's block).
                {
                    let rk = unsafe { r[k].as_slice() };
                    let range = rank_block(&smoothers[k], ctx.rank);
                    let dst = unsafe { e[k].slice_mut(range.clone()) };
                    smoothers[k].apply_zero_range_op(a_k, rk, dst, range);
                }
                ctx.barrier();
                // buf = r_k − A e_k.
                {
                    let rk = unsafe { r[k].as_slice() };
                    let ek = unsafe { e[k].as_slice() };
                    let chunk = parts[k][ctx.rank].clone();
                    let dst = unsafe { buf[k].slice_mut(chunk.clone()) };
                    for (off, i) in chunk.enumerate() {
                        dst[off] = rk[i] - a_k.row_dot(i, ek);
                    }
                }
                ctx.barrier();
                // r_{k+1} = Rᵀ buf.
                {
                    let src = unsafe { buf[k].as_slice() };
                    let rest = setup.r(k);
                    let chunk = parts[k + 1][ctx.rank].clone();
                    let dst = unsafe { r[k + 1].slice_mut(chunk.clone()) };
                    for (off, i) in chunk.enumerate() {
                        dst[off] = rest.row_dot(i, src);
                    }
                }
                ctx.barrier();
            }
            // Coarse solve by the master.
            match (setup.opts.coarse, &setup.hierarchy.coarse_lu) {
                (CoarseSolve::Exact, Some(lu)) => {
                    if ctx.is_team_master() {
                        let rl = unsafe { r[ell].as_slice() };
                        let dst = unsafe { e[ell].slice_mut(0..sizes[ell]) };
                        lu.solve(rl, dst);
                    }
                    ctx.barrier();
                }
                _ => {
                    let rl = unsafe { r[ell].as_slice() };
                    let range = rank_block(&smoothers[ell], ctx.rank);
                    let dst = unsafe { e[ell].slice_mut(range.clone()) };
                    smoothers[ell].apply_zero_range_op(setup.op(ell), rl, dst, range);
                    ctx.barrier();
                }
            }
            // Upward sweep.
            for k in (0..ell).rev() {
                let a_k = setup.op(k);
                // e_k += P e_{k+1} and snapshot into old.
                {
                    let src = unsafe { e[k + 1].as_slice() };
                    let p = setup.p(k);
                    let chunk = parts[k][ctx.rank].clone();
                    let dst = unsafe { e[k].slice_mut(chunk.clone()) };
                    let snap = unsafe { old[k].slice_mut(chunk.clone()) };
                    for (off, i) in chunk.enumerate() {
                        dst[off] += p.row_dot(i, src);
                        snap[off] = dst[off];
                    }
                }
                ctx.barrier();
                // Post-smooth: e_k ← relax(A_k, r_k, e_k) against the
                // sweep-start snapshot.
                {
                    let rk = unsafe { r[k].as_slice() };
                    let snap = unsafe { old[k].as_slice() };
                    let range = rank_block(&smoothers[k], ctx.rank);
                    let dst = unsafe { e[k].slice_mut(range.clone()) };
                    smoothers[k].relax_range_op(a_k, rk, dst, snap, range);
                }
                ctx.barrier();
            }
            // x += e_0.
            {
                let e0 = unsafe { e[0].as_slice() };
                let chunk = parts[0][ctx.rank].clone();
                let dst = unsafe { x.slice_mut(chunk.clone()) };
                for (off, i) in chunk.enumerate() {
                    dst[off] += e0[i];
                }
            }
            ctx.barrier();
            if ctx.is_team_master() {
                cycles_done.store(cycle + 1, Ordering::Release);
            }
            if check {
                // Every thread takes this branch or none: `check` depends
                // only on the call arguments.
                if ctx.is_team_master() {
                    let xs = unsafe { x.as_slice() };
                    let mut sum = 0.0;
                    for i in 0..n {
                        let v = b[i] - setup.op(0).row_dot(i, xs);
                        sum += v * v;
                    }
                    let rel = sum.sqrt() / nb_safe;
                    if probe.enabled() {
                        let t_ns = epoch.elapsed().as_nanos() as u64;
                        probe.correction(ctx.global_rank, 0, cycle, t_ns, rel);
                        probe.residual_sample(t_ns, rel);
                    }
                    if tol.is_some_and(|t| rel < t) {
                        stop.store(true, Ordering::Release);
                    }
                }
                ctx.barrier();
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    });
    let elapsed = start.elapsed();

    let xv = unsafe { x.as_slice().to_vec() };
    let mut res = vec![0.0; n];
    setup.op(0).residual(b, &xv, &mut res);
    let relres = if nb > 0.0 { vecops::norm2(&res) / nb } else { vecops::norm2(&res) };
    let cycles = cycles_done.load(Ordering::Acquire);
    // The cycle is fully barriered, so the stop flag is only ever raised by
    // the master's exact end-of-cycle residual check — it doubles as the
    // "tolerance actually observed" signal.
    let stopped_on_tolerance = stop.load(Ordering::Acquire);
    let outcome = if !relres.is_finite() {
        SolveOutcome::Faulted
    } else if tol.is_some_and(|t| stopped_on_tolerance || relres < t) {
        SolveOutcome::Converged
    } else {
        SolveOutcome::MaxIterations
    };
    AsyncResult {
        x: xv,
        relres,
        grid_corrections: vec![cycles; setup.n_levels()],
        corrects_mean: cycles as f64,
        elapsed,
        outcome,
        faults: Vec::new(),
        stopped_on_tolerance,
    }
}

/// The rank's smoother block, or an empty range when the level has fewer
/// blocks than the team has threads.
fn rank_block(sm: &LevelSmoother, rank: usize) -> std::ops::Range<usize> {
    if rank < sm.blocks().len() {
        sm.blocks()[rank].clone()
    } else {
        0..0
    }
}

/// `true` when the smoother makes the threaded cycle bit-identical to the
/// sequential one (Jacobi variants; block-GS depends on the block count).
pub fn threaded_matches_sequential(kind: SmootherKind) -> bool {
    !kind.is_block_gs()
}
