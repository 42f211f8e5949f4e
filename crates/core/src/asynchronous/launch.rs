//! The launch/confirm loop of [`solve_async`] and its watchdog.

use super::worker::{team_worker, TeamData};
use super::{AsyncOptions, SolveOutcome, StopCriterion, DIVERGED};
use crate::setup::MgSetup;
use crate::solver::SolveReport;
use asyncmg_sparse::{vecops, AtomicF64Vec};
use asyncmg_telemetry::{FaultKind, FaultRecord, Probe};
use asyncmg_threads::{
    run_teams_sched, Clock, ExecEnv, FaultPlan, GridTeamLayout, OsClock, OsSched, RacyVec, SpinLock,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The shared state of one solve.
pub(super) struct Shared<'a, P: Probe + ?Sized> {
    pub(super) setup: &'a MgSetup,
    pub(super) b: &'a [f64],
    pub(super) x: AtomicF64Vec,
    pub(super) r_glob: AtomicF64Vec,
    /// The residual every team starts a launch from: `b` at first, the exact
    /// residual of the quiescent iterate when a tolerance solve resumes.
    /// Written only between launches, when no worker is alive.
    pub(super) r_start: RacyVec,
    pub(super) x_lock: SpinLock,
    pub(super) r_lock: SpinLock,
    pub(super) stop: AtomicBool,
    pub(super) counters: Vec<AtomicUsize>,
    pub(super) opts: AsyncOptions,
    pub(super) probe: &'a P,
    /// The clock every time-based decision reads ([`OsClock`] by default;
    /// a [`VirtualClock`](asyncmg_threads::VirtualClock) makes the
    /// watchdog's timeout deterministic and sleep-free in tests).
    pub(super) clock: &'a dyn Clock,
    /// `clock.now_ns()` at solve start (probe timestamps are relative).
    pub(super) start_ns: u64,
    /// `‖b‖₂`, with zero replaced by 1 so relative residuals stay defined.
    pub(super) norm_b: f64,
    /// The fault plan, when injecting.
    pub(super) plan: Option<&'a FaultPlan>,
    /// `plan.is_some() || recovery armed` — gates every extra barrier and
    /// check so undefended runs interleave bit-identically to the
    /// pre-recovery runtime.
    pub(super) defended: bool,
    /// Per-level quarantine flags (set by the guard, only ever read
    /// team-coherently through `TeamData::skip_local`).
    pub(super) quarantined: Vec<AtomicBool>,
    /// Per-level flags for grids whose team crashed and left.
    pub(super) dead: Vec<AtomicBool>,
    /// Per-level guard strike counters.
    pub(super) strikes: Vec<AtomicUsize>,
    /// The fault log (cold path: faults are rare by construction).
    pub(super) faults: Mutex<Vec<FaultRecord>>,
    /// Raised by the watchdog when the wall-clock budget is exhausted.
    pub(super) timed_out: AtomicBool,
    /// Raised by the synchronous cycle-end check that sees the tolerance
    /// met, or after the join by the exact residual that confirms an
    /// asynchronous candidate stop.
    pub(super) tol_stopped: AtomicBool,
}

impl<P: Probe + ?Sized> Shared<'_, P> {
    /// Nanoseconds since the solve epoch (for probe timestamps and the
    /// watchdog's budget — all through the clock, so a virtual clock
    /// controls the timeout).
    #[inline]
    pub(super) fn now_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Appends to the fault log and notifies the probe.
    pub(super) fn record_fault(&self, kind: FaultKind) {
        let t_ns = self.now_ns();
        self.faults.lock().unwrap().push(FaultRecord { t_ns, kind });
        self.probe.fault(t_ns, kind);
    }

    /// Whether level `k` will correct no more: budget spent, quarantined, or
    /// its team crashed (the last two only ever happen in defended runs).
    pub(super) fn grid_finished(&self, k: usize) -> bool {
        self.counters[k].load(Ordering::Acquire) >= self.opts.t_max
            || self.quarantined[k].load(Ordering::Acquire)
            || self.dead[k].load(Ordering::Acquire)
    }

    /// Quarantines level `k` (idempotent), logging the transition.
    pub(super) fn quarantine(&self, k: usize) {
        if !self.quarantined[k].swap(true, Ordering::AcqRel) {
            self.record_fault(FaultKind::Quarantined { grid: k as u32 });
        }
    }
}

/// Solves `A x = b` with the threaded additive solver (Algorithm 5) — the
/// one public entry point of the family; [`Solver`](crate::Solver) is the
/// ergonomic front over it.
///
/// Every correction, timed phase and residual sample is reported to
/// `probe`; with [`NoopProbe`](asyncmg_telemetry::NoopProbe) the hooks
/// compile to nothing. `env` is the execution environment
/// ([`ExecEnv::default`] = production):
///
/// * `env.sched` — under a [`VirtualSched`](asyncmg_threads::VirtualSched)
///   the whole solve (every barrier, racy read/write, lock acquisition and
///   end-of-correction yield) is serialized through the scheduler's seeded
///   PRNG, so the result is a deterministic function of the seed — under
///   every [`StopCriterion`], a resumed tolerance solve included (each
///   launch continues the scheduler's decision stream).
/// * `env.plan` — a seeded [`FaultPlan`] injecting stragglers, team
///   crashes, and corrupted or dropped correction writes, with
///   `opts.recovery` arming the countermeasures. Requires asynchronous
///   execution (`!opts.sync`): a crashed team would deadlock the global
///   barriers of the synchronous driver.
/// * `env.clock` — every time-based decision (the watchdog's `max_wall`
///   budget, the sleeps between its polls, all probe timestamps) reads it;
///   a [`VirtualClock`](asyncmg_threads::VirtualClock) expires a timeout
///   deterministically in microseconds (see `docs/robustness.md`).
///
/// The outcome is [`SolveOutcome::classify`] of the exact final residual,
/// the tolerance of a [`StopCriterion::Tolerance`] run and the fault log.
pub fn solve_async<P: Probe + ?Sized>(
    setup: &MgSetup,
    b: &[f64],
    opts: &AsyncOptions,
    probe: &P,
    env: ExecEnv<'_>,
) -> SolveReport {
    let n = setup.n();
    assert_eq!(b.len(), n);
    assert!(opts.n_threads > 0 && opts.t_max > 0);
    if let Err(msg) = opts.recovery.validate() {
        panic!("invalid RecoveryOptions: {msg}");
    }
    let plan = env.plan.filter(|p| !p.is_empty());
    assert!(
        plan.is_none() || !opts.sync,
        "fault injection requires asynchronous execution (a crashed team would deadlock the \
         synchronous driver's global barriers)"
    );
    // For the smoothed methods this call is also what builds `P̄`/`R̄`
    // (`MgSetup` makes them on first use): it must stay ahead of the team
    // spawn below so no racing worker ever pays, or blocks on, that build.
    let work = setup.work_estimates(opts.method.uses_smoothed_interpolants());
    let layout = GridTeamLayout::build(&work, opts.n_threads);
    // The production scheduler (team sizes are only known once the layout
    // is) is the fallback for an environment that names none.
    let os_sched = OsSched::for_teams(&layout.sizes);
    let sched = env.sched.unwrap_or(&os_sched);

    let teams: Vec<TeamData> = layout
        .teams
        .iter()
        .zip(&layout.sizes)
        .map(|(grids, &size)| TeamData::new(setup, grids, size))
        .collect();

    // Likewise the production clock (a virtual one makes the watchdog's
    // timeout deterministic).
    let os_clock = OsClock::new();
    let clock = env.clock.unwrap_or(&os_clock);
    let nb = vecops::norm2(b);
    let n_levels = setup.n_levels();
    let shared = Shared {
        setup,
        b,
        x: AtomicF64Vec::zeros(n),
        r_glob: AtomicF64Vec::from_slice(b),
        r_start: RacyVec::from_slice(b),
        x_lock: SpinLock::new(),
        r_lock: SpinLock::new(),
        stop: AtomicBool::new(false),
        counters: (0..n_levels).map(|_| AtomicUsize::new(0)).collect(),
        opts: *opts,
        probe,
        clock,
        start_ns: clock.now_ns(),
        norm_b: if nb > 0.0 { nb } else { 1.0 },
        plan,
        defended: plan.is_some() || opts.recovery.any_enabled(),
        quarantined: (0..n_levels).map(|_| AtomicBool::new(false)).collect(),
        dead: (0..n_levels).map(|_| AtomicBool::new(false)).collect(),
        strikes: (0..n_levels).map(|_| AtomicUsize::new(0)).collect(),
        faults: Mutex::new(Vec::new()),
        timed_out: AtomicBool::new(false),
        tol_stopped: AtomicBool::new(false),
    };

    let criterion_tol = match opts.criterion {
        StopCriterion::Tolerance { relres } => Some(relres),
        _ => None,
    };
    // Asynchronous tolerance runs confirm (or resume) their teams' stop.
    let tol = criterion_tol.filter(|_| !opts.sync);
    // Only a wall-clock budget needs an observer; any other solve is its
    // workers and nothing else. (A synchronous run's stop decision is read
    // between global barriers, which a watchdog's store would tear.)
    let max_wall = opts.recovery.max_wall.filter(|_| !opts.sync);
    let run_teams = || {
        run_teams_sched(&layout.sizes, sched, |ctx| {
            team_worker(&shared, &teams[ctx.team_id], &ctx);
        })
    };
    let start = Instant::now();
    let mut x = vec![0.0; n];
    let (elapsed, relres) = loop {
        if let Some(max_wall) = max_wall {
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| watchdog_loop(&shared, max_wall, &done));
                run_teams();
                done.store(true, Ordering::Release);
            });
        } else {
            run_teams();
        }
        let elapsed = start.elapsed();

        // Every worker has joined: `x` is quiescent and this residual exact.
        shared.x.snapshot(&mut x);
        // SAFETY: no worker (and no watchdog) is alive between launches, so
        // this is the only reference into `r_start`.
        let r = unsafe { shared.r_start.slice_mut(0..n) };
        setup.op(0).residual(b, &x, r);
        let relres = vecops::norm2(r) / shared.norm_b;
        if probe.enabled() {
            // The exact value closes each launch's residual trace, so every
            // instrumented solve has at least one sample.
            probe.residual_sample(shared.now_ns(), relres);
        }
        if tol.is_some_and(|t| relres < t) {
            shared.tol_stopped.store(true, Ordering::Release);
        }
        // A candidate stop that failed this confirmation resumes while that
        // can still help: the residual neither poisoned nor diverged, no
        // timeout, and budget left on a grid that is still correcting.
        let resume = tol.is_some_and(|t| relres >= t && relres < DIVERGED)
            && shared.stop.load(Ordering::Acquire)
            && !shared.timed_out.load(Ordering::Acquire)
            && !(0..n_levels).all(|k| shared.grid_finished(k));
        if !resume {
            break (elapsed, relres);
        }
        shared.stop.store(false, Ordering::Release);
        // The teams restart from `r_start`; the shared residual of the
        // global-res and residual-based flavours restarts with them.
        shared.r_glob.store_rows(0..n, r);
    };

    let grid_corrections: Vec<usize> =
        shared.counters.iter().map(|c| c.load(Ordering::Acquire)).collect();
    let corrects_mean =
        grid_corrections.iter().sum::<usize>() as f64 / grid_corrections.len() as f64;
    let faults = shared.faults.into_inner().unwrap();
    SolveReport {
        x,
        relres,
        converged: criterion_tol.is_none_or(|t| relres < t),
        stopped_on_tolerance: shared.tol_stopped.load(Ordering::Acquire),
        grid_corrections,
        corrects_mean,
        history: Vec::new(),
        elapsed,
        outcome: SolveOutcome::classify(relres, criterion_tol, &faults),
        faults,
        trace: None,
    }
}

/// The watchdog of a launch with a wall-clock budget: every millisecond of
/// clock time it checks `max_wall` and, once the budget is spent, logs the
/// timeout and raises the stop flag. It reads no solver state and never
/// decides a tolerance stop.
fn watchdog_loop<P: Probe + ?Sized>(shared: &Shared<'_, P>, max_wall: Duration, done: &AtomicBool) {
    let budget_ns = max_wall.as_nanos() as u64;
    loop {
        if done.load(Ordering::Acquire) {
            return;
        }
        shared.clock.sleep(Duration::from_millis(1));
        if done.load(Ordering::Acquire) {
            return;
        }
        // The workers check the (team-republished) stop flag once per
        // round, so any live team leaves within one round of corrections.
        if shared.now_ns() >= budget_ns {
            shared.record_fault(FaultKind::Timeout);
            shared.timed_out.store(true, Ordering::Release);
            shared.stop.store(true, Ordering::Release);
            return;
        }
    }
}
