//! The team worker of [`solve_async`](super::solve_async) and its phases:
//! correct (the chain in `chain.rs`), write `x`, refresh the residual.

use super::launch::Shared;
use super::{ResComp, StopCriterion, WriteMode, DIVERGED};
use crate::chain::Chain;
use crate::setup::MgSetup;
use crate::workspace::Workspace;
use asyncmg_smoothers::LevelSmoother;
use asyncmg_sparse::{vecops, AtomicF64Vec};
use asyncmg_telemetry::{FaultKind, Phase, Probe};
use asyncmg_threads::{RacyVec, SchedPoint, TeamCtx};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Per-team thread-shared workspace.
pub(super) struct TeamData {
    /// The grids (levels) this team corrects, consecutive, fine → coarse.
    grids: Vec<usize>,
    /// The team's buffers: it corrects one grid at a time, and smooths on
    /// the levels of `smoothers` only.
    ws: Workspace,
    /// Smoothers of levels `grids[0]..` blocked by the team size (AFACx
    /// smooths one level below its grid too).
    smoothers: Vec<LevelSmoother>,
    x_local: RacyVec,
    r_local: RacyVec,
    delta: RacyVec,
    /// Team-coherent copy of the global stop flag (Criterion 2): the master
    /// samples `Shared::stop` once per round and publishes it here, so every
    /// team member takes the same break decision. Reading the global flag
    /// directly would let two members of one team observe different values
    /// (the store lands between their loads) — one would break while the
    /// other waits at the next team barrier forever.
    stop_local: AtomicBool,
    /// Team-coherent guard verdict for the current write (same pattern as
    /// `stop_local`: published by the master, separated by a barrier).
    verdict: AtomicBool,
    /// Team-coherent quarantine snapshot for the grid about to correct
    /// (published by the master like `stop_local`, so every member takes
    /// the same skip decision).
    skip_local: AtomicBool,
    /// Rounds this team has run, carried across the launches of a resumed
    /// solve so round-keyed fault decisions are not replayed. Written by the
    /// master as the team leaves, read by every member of the next launch.
    round: AtomicU64,
}

impl TeamData {
    /// The workspace of a team of `size` threads correcting `grids`.
    pub(super) fn new(setup: &MgSetup, grids: &[usize], size: usize) -> Self {
        let n = setup.n();
        let levels = grids[0]..(grids[grids.len() - 1] + 2).min(setup.n_levels());
        TeamData {
            grids: grids.to_vec(),
            ws: Workspace::smoothing_on(setup, levels.clone()),
            smoothers: setup.smoothers_for(levels, size),
            x_local: RacyVec::zeros(n),
            r_local: RacyVec::zeros(n),
            delta: RacyVec::zeros(n),
            stop_local: AtomicBool::new(false),
            verdict: AtomicBool::new(false),
            skip_local: AtomicBool::new(false),
            round: AtomicU64::new(0),
        }
    }
}

/// The per-thread procedure (Algorithm 5, generalised to teams that own
/// several grids and to the synchronous execution mode).
pub(super) fn team_worker<P: Probe + ?Sized>(
    shared: &Shared<'_, P>,
    team: &TeamData,
    ctx: &TeamCtx<'_>,
) {
    let setup = shared.setup;
    let opts = &shared.opts;
    let n = setup.n();
    let chain = Chain::new(setup, &team.smoothers, team.grids[0], &team.ws, ctx);
    // Initialise the local residual to the launch's starting residual.
    unsafe {
        let chunk = ctx.chunk(n);
        team.r_local.slice_mut(chunk.clone()).copy_from_slice(&shared.r_start.as_slice()[chunk]);
    }
    // Per-worker loop-iteration counter. Every member of a team sees the
    // same value at the same loop point, so fault decisions keyed to
    // (site, round) are team-coherent by construction. (Loaded ahead of the
    // barrier: the master stores it again only as the team leaves.)
    let mut round = team.round.load(Ordering::Acquire);
    ctx.barrier();
    if opts.sync {
        ctx.global_barrier();
    }
    // Local-res teams refresh `r_local` once per round, after the last of
    // their grids, so the grids correct additively from one residual as in
    // synchronous Multadd; the shared-residual flavours keep their per-write
    // update (their invariants need it).
    let round_residual = opts.res_comp == ResComp::Local && !opts.sync;

    loop {
        // Injected permanent crash: every member computes the same verdict
        // (a pure function of team and round), so the whole team leaves
        // together without tearing any barrier.
        if let Some(plan) = shared.plan {
            if plan.team_crashed(ctx.team_id, round) {
                if ctx.is_team_master() {
                    // A resumed launch finds its grids already dead: the
                    // crash is logged once.
                    let mut first = false;
                    for &k in &team.grids {
                        first |= !shared.dead[k].swap(true, Ordering::AcqRel);
                    }
                    if first {
                        shared.record_fault(FaultKind::TeamCrash { team: ctx.team_id as u32 });
                    }
                }
                break;
            }
        }
        let mut team_done = true;
        // Local-res: a grid corrected since `r_local` was last refreshed.
        let mut stale = false;
        for (pos, &k) in team.grids.iter().enumerate() {
            // Criterion 1 (and the Tolerance cap): a grid past t_max stops
            // correcting. The counter is only incremented by this team
            // between barriers, so all team threads read a consistent value
            // here.
            let count = shared.counters[k].load(Ordering::Acquire);
            let capped =
                matches!(opts.criterion, StopCriterion::One | StopCriterion::Tolerance { .. });
            if capped && !opts.sync && count >= opts.t_max {
                continue;
            }
            // Quarantine check. The master publishes a team-coherent
            // snapshot of the flag the same way the stop flag is
            // republished.
            if shared.defended {
                if ctx.is_team_master() {
                    team.skip_local
                        .store(shared.quarantined[k].load(Ordering::Acquire), Ordering::Release);
                }
                ctx.barrier();
                if team.skip_local.load(Ordering::Acquire) {
                    continue;
                }
            }
            team_done = false;
            // Phase timing by the team master only: it participates in
            // every team barrier, so its wall time spans the team-parallel
            // phase.
            let timing = shared.probe.enabled() && ctx.is_team_master();
            let mut t0 = if timing { shared.now_ns() } else { 0 };
            let mut lap = |phase| {
                if timing {
                    let now = shared.now_ns();
                    shared.probe.phase(ctx.global_rank, k, phase, t0, now - t0);
                    t0 = now;
                }
            };
            chain.correction(opts.method, k, unsafe { team.r_local.as_slice() }, &mut lap);
            let wrote = write_x_phase(shared, team, k, ctx, round);
            stale = round_residual && pos + 1 < team.grids.len();
            if !stale {
                residual_phase(shared, team, k, ctx, wrote);
            }
            if ctx.is_team_master() {
                shared.counters[k].fetch_add(1, Ordering::AcqRel);
                if shared.probe.enabled() {
                    // A local-res team that just refreshed r_local reports
                    // its norm, the round's local view of convergence; its
                    // earlier grids and the other flavours report NaN rather
                    // than pay for a norm.
                    let local_res = if round_residual && !stale {
                        let r = unsafe { team.r_local.as_slice() };
                        vecops::norm2(r) / shared.norm_b
                    } else {
                        f64::NAN
                    };
                    shared.probe.correction(ctx.global_rank, k, count, shared.now_ns(), local_res);
                }
            }
            ctx.barrier();
            if !opts.sync {
                // Let other teams run between corrections. On machines with
                // fewer cores than threads this keeps per-grid progress
                // roughly balanced, which Section VII identifies as
                // necessary for grid-size-independent convergence (the
                // paper's 272 threads on 68 KNL cores interleave the same
                // way). Under a virtual scheduler this is a preemption
                // point.
                ctx.sched_point(SchedPoint::Yield);
            }
        }
        if stale {
            // The team's last grid sat this round out (capped or
            // quarantined) after an earlier one corrected.
            let last = *team.grids.last().expect("a team owns at least one grid");
            residual_phase(shared, team, last, ctx, true);
        }

        // Injected straggling: burn extra scheduling decisions, delaying
        // only this worker. Purely per-worker (no shared state), so no
        // team coherence is needed; under a virtual scheduler each yield
        // is one descheduling.
        if let Some(plan) = shared.plan {
            let steps = plan.stall_steps(ctx.global_rank, round);
            if steps > 0 {
                if round == 0 || plan.stall_steps(ctx.global_rank, round - 1) == 0 {
                    shared.record_fault(FaultKind::Straggler {
                        worker: ctx.global_rank as u32,
                        steps,
                    });
                }
                for _ in 0..steps {
                    ctx.sched_point(SchedPoint::Yield);
                }
            }
        }
        round += 1;

        match (opts.sync, opts.criterion) {
            (true, criterion) => {
                // Synchronous execution: one global cycle done; global
                // residual SpMV, then everyone proceeds to the next cycle.
                ctx.global_barrier();
                for i in ctx.global_chunk(n) {
                    let v = shared.b[i] - setup.a(0).row_dot_atomic(i, &shared.x);
                    shared.r_glob.store(i, v);
                }
                ctx.global_barrier();
                load_rows(&shared.r_glob, ctx.chunk(n), unsafe {
                    team.r_local.slice_mut(ctx.chunk(n))
                });
                ctx.barrier();
                // The residual is already up to date here, so tolerance
                // checking (and trace sampling) is a norm away. Every
                // thread takes this branch or none — the decision depends
                // only on shared state.
                let tol = match criterion {
                    StopCriterion::Tolerance { relres, .. } => Some(relres),
                    _ => None,
                };
                if tol.is_some() || shared.probe.enabled() {
                    if ctx.is_global_master() {
                        let mut sum = 0.0;
                        for i in 0..n {
                            let v = shared.r_glob.load(i);
                            sum += v * v;
                        }
                        let relres = sum.sqrt() / shared.norm_b;
                        shared.probe.residual_sample(shared.now_ns(), relres);
                        if tol.is_some_and(|t| relres < t) {
                            shared.tol_stopped.store(true, Ordering::Release);
                            shared.stop.store(true, Ordering::Release);
                        }
                    }
                    ctx.global_barrier();
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                let cycles = shared.counters[team.grids[0]].load(Ordering::Acquire);
                if cycles >= opts.t_max {
                    break;
                }
            }
            (false, StopCriterion::One) => {
                if team_done {
                    break;
                }
                // Criterion 1 has no stop flag of its own, but a defended
                // run must still honour the watchdog's timeout stop. The
                // republish-then-barrier dance keeps the break team-
                // coherent; undefended runs skip it entirely (no extra
                // barrier, bit-identical schedules).
                if shared.defended {
                    if ctx.is_team_master() {
                        team.stop_local
                            .store(shared.stop.load(Ordering::Acquire), Ordering::Release);
                    }
                    ctx.barrier();
                    if team.stop_local.load(Ordering::Acquire) {
                        break;
                    }
                }
            }
            (false, StopCriterion::Tolerance { relres: tol }) => {
                // The team's latest residual view — exact for its snapshot
                // of x in local-res, its copy of the shared residual
                // otherwise — is n flops away. Below target (or diverged)
                // it raises the global flag: a candidate stop, confirmed or
                // resumed after the join. t_max caps each grid (so
                // `team_done` also terminates the team). The flag is
                // republished team-coherently, as for Criterion 2.
                if ctx.is_team_master() {
                    let r = unsafe { team.r_local.as_slice() };
                    let view = vecops::norm2(r) / shared.norm_b;
                    if shared.probe.enabled() {
                        shared.probe.residual_sample(shared.now_ns(), view);
                    }
                    // Written so that a NaN view stops too.
                    if !(view >= tol && view < DIVERGED) {
                        shared.stop.store(true, Ordering::Release);
                    }
                    team.stop_local.store(shared.stop.load(Ordering::Acquire), Ordering::Release);
                }
                ctx.barrier();
                if team.stop_local.load(Ordering::Acquire) || team_done {
                    break;
                }
            }
            (false, StopCriterion::Two) => {
                // Quarantined and crashed grids never reach t_max; counting
                // them as finished keeps the survivors from spinning forever
                // on a level that will never advance.
                if ctx.is_global_master()
                    && (0..shared.counters.len()).all(|k| shared.grid_finished(k))
                {
                    shared.stop.store(true, Ordering::Release);
                }
                // Publish a team-coherent snapshot of the flag (see
                // `TeamData::stop_local`).
                if ctx.is_team_master() {
                    team.stop_local.store(shared.stop.load(Ordering::Acquire), Ordering::Release);
                }
                ctx.barrier();
                if team.stop_local.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
    if ctx.is_team_master() {
        team.round.store(round, Ordering::Release);
    }
}

/// `x += e_0`, with lock-write or atomic-write.
///
/// This is the fault site for write corruption/drops and the recovery site
/// for the correction guard: a defended run may corrupt `e_0`, suppress it
/// (dropped, or guard-rejected with a strike), or scale it by the damping
/// factor before it reaches the shared iterate. Returns whether the write
/// was applied — residual bookkeeping must skip updates for suppressed
/// writes.
fn write_x_phase<P: Probe + ?Sized>(
    shared: &Shared<'_, P>,
    team: &TeamData,
    k: usize,
    ctx: &TeamCtx<'_>,
    round: u64,
) -> bool {
    let n = shared.setup.n();
    let rec = &shared.opts.recovery;
    // Injected faults on this round's write. Decisions are pure functions
    // of (grid, round): every team member computes the same verdict.
    if let Some(plan) = shared.plan {
        if plan.drops_write(k, round) {
            if ctx.is_team_master() {
                shared.record_fault(FaultKind::WriteDropped { grid: k as u32 });
            }
            return false;
        }
        if let Some(kind) = plan.corruption(k, round) {
            // The master mangles one entry of its own chunk, then a
            // barrier publishes the corruption before anyone (guard or
            // write loop) reads e_0.
            if ctx.is_team_master() {
                let chunk = ctx.chunk(n);
                if !chunk.is_empty() {
                    let dst = unsafe { team.ws.e[0].slice_mut(chunk.start..chunk.start + 1) };
                    dst[0] = plan.corrupt_value(kind, dst[0], k, round);
                }
                shared.record_fault(FaultKind::WriteCorrupted { grid: k as u32 });
            }
            ctx.barrier();
        }
    }
    // Correction guard: the master scans the (now stable) correction and
    // publishes a team-coherent verdict. A rejected correction never
    // reaches `x`; repeated rejections damp and eventually quarantine the
    // grid.
    let mut scale = 1.0;
    if shared.defended && rec.guard_corrections {
        if ctx.is_team_master() {
            let e0 = unsafe { team.ws.e[0].as_slice() };
            let bad = e0.iter().any(|&v| !v.is_finite() || v.abs() > rec.max_correction);
            team.verdict.store(bad, Ordering::Release);
            if bad {
                shared.record_fault(FaultKind::GuardTripped { grid: k as u32 });
                let strikes = shared.strikes[k].fetch_add(1, Ordering::AcqRel) + 1;
                if rec.quarantine_after > 0 && strikes >= rec.quarantine_after {
                    shared.quarantine(k);
                } else if rec.damping < 1.0 && strikes == 1 {
                    shared.record_fault(FaultKind::Damped { grid: k as u32 });
                }
            }
        }
        ctx.barrier();
        if team.verdict.load(Ordering::Acquire) {
            return false;
        }
        if rec.damping < 1.0 && shared.strikes[k].load(Ordering::Acquire) > 0 {
            scale = rec.damping;
        }
    }
    if scale != 1.0 {
        // Additive damping: scale the rows this member is about to write
        // (chunk-disjoint, so no barrier needed before the write below).
        let chunk = ctx.chunk(n);
        let dst = unsafe { team.ws.e[0].slice_mut(chunk.clone()) };
        for v in dst.iter_mut() {
            *v *= scale;
        }
    }
    let e0 = unsafe { team.ws.e[0].as_slice() };
    let timing = shared.probe.enabled() && ctx.is_team_master();
    let t0 = if timing { shared.now_ns() } else { 0 };
    match shared.opts.write {
        WriteMode::Lock => {
            if ctx.is_team_master() {
                // Acquired by the master, released by the master after the
                // team's write barrier — the explicit lock/unlock pair of
                // SpinLock fits this asymmetric protocol. Routed through
                // the scheduler so a virtual schedule can suspend the
                // holder without livelocking waiters.
                ctx.lock(&shared.x_lock);
            }
            ctx.barrier();
            shared.x.add_rows_exclusive(ctx.chunk(n), e0);
            ctx.barrier();
            if ctx.is_team_master() {
                ctx.unlock(&shared.x_lock);
            }
        }
        WriteMode::Atomic => {
            ctx.sched_point(SchedPoint::RacyWrite);
            shared.x.add_rows_atomic(ctx.chunk(n), e0);
            ctx.barrier();
        }
    }
    if timing {
        let now = shared.now_ns();
        shared.probe.phase(ctx.global_rank, k, Phase::SharedWrite, t0, now - t0);
    }
    true
}

/// `dst[i − rows.start] = src[i]` for `i` in `rows`: a thread's chunk of a
/// racy shared vector, copied into its chunk-local slice.
fn load_rows(src: &AtomicF64Vec, rows: std::ops::Range<usize>, dst: &mut [f64]) {
    for (d, i) in dst.iter_mut().zip(rows) {
        *d = src.load(i);
    }
}

/// Refresh the team-local residual (Algorithm 5 lines 11–19, plus the
/// residual-based variant).
fn residual_phase<P: Probe + ?Sized>(
    shared: &Shared<'_, P>,
    team: &TeamData,
    k: usize,
    ctx: &TeamCtx<'_>,
    wrote: bool,
) {
    let opts = &shared.opts;
    let a0 = shared.setup.op(0);
    let n = a0.nrows();
    if opts.sync {
        // The synchronous driver recomputes the residual globally at the end
        // of the cycle; nothing to do per grid.
        return;
    }
    let timing = shared.probe.enabled() && ctx.is_team_master();
    let t0 = if timing { shared.now_ns() } else { 0 };
    let r_local = unsafe { team.r_local.slice_mut(ctx.chunk(n)) };
    match opts.res_comp {
        ResComp::Local => {
            // Snapshot x, then recompute the residual locally. The snapshot
            // reads the racy shared iterate: a delay-injecting scheduler
            // deschedules the reader here so the snapshot it then takes is
            // up to δ decisions stale (the paper's delayed-read model).
            ctx.sched_point(SchedPoint::RacyRead);
            load_rows(&shared.x, ctx.chunk(n), unsafe { team.x_local.slice_mut(ctx.chunk(n)) });
            ctx.barrier();
            let x_local = unsafe { team.x_local.as_slice() };
            a0.residual_rows(ctx.chunk(n), shared.b, x_local, r_local);
        }
        ResComp::Global => {
            // Non-blocking global update of the rows this thread owns
            // globally (the "No Wait GlobalParfor" of Algorithm 5), reading
            // the racy shared x.
            ctx.sched_point(SchedPoint::RacyRead);
            for i in ctx.global_chunk(n) {
                let v = shared.b[i] - a0.csr().row_dot_atomic(i, &shared.x);
                shared.r_glob.store(i, v);
            }
            // Read the shared residual into local memory.
            ctx.sched_point(SchedPoint::RacyRead);
            load_rows(&shared.r_glob, ctx.chunk(n), r_local);
        }
        ResComp::ResidualBased => {
            // A suppressed write (dropped or guard-rejected) never changed x,
            // so the incremental update must be skipped too — applying it
            // would break the `r = b − A x` invariant permanently. The team
            // still refreshes r_local from the shared residual below.
            if wrote {
                // delta = A e_0 (team-parallel), then r_glob −= delta.
                let e0 = unsafe { team.ws.e[0].as_slice() };
                a0.spmv_rows(ctx.chunk(n), e0, unsafe { team.delta.slice_mut(ctx.chunk(n)) });
                ctx.barrier();
                let delta = unsafe { team.delta.as_slice() };
                match opts.write {
                    WriteMode::Lock => {
                        if ctx.is_team_master() {
                            ctx.lock(&shared.r_lock);
                        }
                        ctx.barrier();
                        for i in ctx.chunk(n) {
                            shared.r_glob.store(i, shared.r_glob.load(i) - delta[i]);
                        }
                        ctx.barrier();
                        if ctx.is_team_master() {
                            ctx.unlock(&shared.r_lock);
                        }
                    }
                    WriteMode::Atomic => {
                        ctx.sched_point(SchedPoint::RacyWrite);
                        for i in ctx.chunk(n) {
                            shared.r_glob.fetch_add(i, -delta[i]);
                        }
                        ctx.barrier();
                    }
                }
            }
            ctx.sched_point(SchedPoint::RacyRead);
            load_rows(&shared.r_glob, ctx.chunk(n), r_local);
        }
    }
    ctx.barrier();
    if timing {
        let now = shared.now_ns();
        shared.probe.phase(ctx.global_rank, k, Phase::ResidualUpdate, t0, now - t0);
    }
}
