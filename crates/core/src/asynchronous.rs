//! Shared-memory asynchronous (and synchronous-threaded) additive multigrid
//! — the paper's Section IV, Algorithm 5.
//!
//! Threads are partitioned into per-grid teams (work-proportional, Fig. 3).
//! Each team repeatedly computes its grid's correction and adds it to the
//! shared solution `x`, synchronising **only within the team**. The fine-grid
//! residual is obtained either by
//!
//! * **local-res** — the team recomputes `r = b − A x` itself from a private
//!   snapshot of `x`, or
//! * **global-res** — a shared residual vector is updated in a non-blocking
//!   global loop where every thread owns a static share of the rows, or
//! * **residual-based** (`r-Multadd`) — the shared residual is updated
//!   incrementally as `r ← r − A e` after each correction (Equation 10).
//!
//! Races on the shared vectors are handled with the paper's two options:
//! **lock-write** (a mutex held by the team master around a team-parallel
//! exclusive write) and **atomic-write** (element-wise atomic fetch-add).
//!
//! # Fault injection and recovery
//!
//! The runtime optionally runs *defended*: a seeded
//! [`FaultPlan`] injects stragglers, permanent
//! team crashes, and corrupted or dropped correction writes, while
//! [`RecoveryOptions`] arms the countermeasures — non-finite/magnitude
//! guards on corrections with per-level scalar damping and quarantine, and
//! a watchdog thread that enforces the hard wall-clock budget `max_wall`
//! and does nothing else — and [`SolveOutcome::classify`] turns the final
//! residual and the fault log into a structured outcome, so a faulted solve
//! reports instead of hanging. When neither a plan nor recovery is
//! configured, none of the extra barriers or checks run, no thread besides
//! the team workers exists, and the solver is bit-identical to the
//! undefended runtime.
//!
//! # Tolerance stopping
//!
//! [`StopCriterion::Tolerance`] adds no observer thread: a team's master
//! raises the stop flag when the team's own residual view is below the
//! target at a round end. That is only a *candidate* (the view is a racy
//! snapshot): after the join [`solve_async`] takes the exact residual of the
//! quiescent iterate and either reports the stop or launches the teams
//! again from it. So `stopped_on_tolerance` implies `relres < tol` under any
//! schedule, and a seeded [`VirtualSched`](asyncmg_threads::VirtualSched)
//! replays tolerance-stopped runs bit for bit.

use crate::additive::AdditiveMethod;
use crate::setup::{CoarseSolve, MgSetup};
use asyncmg_smoothers::{async_gs_sweep, LevelSmoother, SmootherKind};
use asyncmg_sparse::{vecops, AtomicF64Vec, Csr};
use asyncmg_telemetry::{FaultKind, FaultRecord, Phase, Probe};
use asyncmg_threads::{
    run_teams_sched, Clock, ExecEnv, FaultPlan, GridTeamLayout, OsClock, OsSched, RacyVec,
    SchedPoint, SpinLock, TeamCtx,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the fine-grid residual is computed (Section IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResComp {
    /// Each team recomputes its own full residual (more work, fresher data).
    Local,
    /// A shared residual updated by a non-blocking global loop.
    Global,
    /// `r-Multadd` (Equation 10): the shared residual is updated
    /// incrementally as `r ← r − A e` after each correction instead of being
    /// recomputed from `x`.
    ResidualBased,
}

/// How racy writes to shared vectors are performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteMode {
    /// Team master holds a lock while the team writes (lock-write).
    Lock,
    /// Element-wise atomic fetch-add (atomic-write).
    Atomic,
}

/// Convergence-detection criterion (Section V).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopCriterion {
    /// Each grid stops after exactly `t_max` own corrections.
    One,
    /// A master thread raises a stop flag once *all* grids have done at
    /// least `t_max` corrections; grids keep correcting until they see it.
    Two,
    /// Stop once the global relative residual drops below `relres`, with
    /// `t_max` corrections per grid as a hard cap. Asynchronous teams check
    /// their own residual view at round ends and the stop is confirmed on
    /// the quiescent iterate (module docs); synchronous runs check at cycle
    /// ends. A residual that goes non-finite or grows to 10⁶ × `‖b‖` stops
    /// the solve as [`SolveOutcome::Faulted`].
    Tolerance {
        /// Target relative residual 2-norm.
        relres: f64,
    },
}

impl StopCriterion {
    /// Tolerance stopping at the given relative residual.
    pub fn tolerance(relres: f64) -> Self {
        StopCriterion::Tolerance { relres }
    }
}

/// Relative residual at which a tolerance solve counts as diverged: 10⁶ ×
/// the starting residual (`x₀ = 0`, so that is `‖b‖`).
const DIVERGED: f64 = 1e6;

/// Detection-and-recovery configuration for the asynchronous runtime.
///
/// Everything defaults to *off*: a default-constructed value adds no
/// barriers, no guards and no watchdog, so the solver behaves (and
/// interleaves) exactly as without a recovery layer. Arm individual
/// defences by assigning fields, or start from [`RecoveryOptions::defended`].
///
/// Marked `#[non_exhaustive]`: construct with [`RecoveryOptions::default`]
/// and assign the fields you need.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct RecoveryOptions {
    /// Guard correction writes: a correction containing a non-finite entry
    /// or one larger than [`RecoveryOptions::max_correction`] is suppressed
    /// (never reaches the shared iterate) and counts a *strike* against its
    /// grid.
    pub guard_corrections: bool,
    /// Quarantine a grid once it accumulates this many strikes: its
    /// corrections stop being applied for the rest of the solve
    /// (0 = never quarantine).
    pub quarantine_after: usize,
    /// Scalar damping of a struck grid's subsequent corrections: once a
    /// grid has at least one strike its corrections are multiplied by this
    /// factor. 1.0 disables damping.
    pub damping: f64,
    /// Magnitude bound for the guard: any correction entry with absolute
    /// value above this is treated like a non-finite one.
    pub max_correction: f64,
    /// Hard wall-clock budget for an asynchronous solve. A watchdog thread
    /// (spawned only when this is set) raises the stop flag and the result
    /// reports [`SolveOutcome::Faulted`] when it is exceeded. `None` =
    /// unbounded.
    pub max_wall: Option<Duration>,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            guard_corrections: false,
            quarantine_after: 0,
            damping: 1.0,
            max_correction: 1e12,
            max_wall: None,
        }
    }
}

impl RecoveryOptions {
    /// The full defensive posture: guards with quarantine after 3 strikes
    /// and 0.5 damping, and a 60 s wall-clock budget.
    pub fn defended() -> Self {
        RecoveryOptions {
            guard_corrections: true,
            quarantine_after: 3,
            damping: 0.5,
            max_correction: 1e8,
            max_wall: Some(Duration::from_secs(60)),
        }
    }

    /// Whether any defence is armed.
    pub fn any_enabled(&self) -> bool {
        self.guard_corrections || self.max_wall.is_some()
    }

    /// Validates field ranges, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        // NaN must fail every range check, so the comparisons are written
        // to reject incomparable values.
        if self.damping.is_nan() || self.damping <= 0.0 || self.damping > 1.0 {
            return Err(format!("recovery damping {} out of (0, 1]", self.damping));
        }
        if self.max_correction.is_nan() || self.max_correction <= 0.0 {
            return Err(format!("recovery max_correction {} not positive", self.max_correction));
        }
        Ok(())
    }
}

/// How a solve ended.
///
/// Ordered by severity: a fault-free tolerance stop is `Converged`; a run
/// that only exhausted its correction budget is `MaxIterations`; any run
/// whose fault log is non-empty but which still produced a finite iterate
/// is `Degraded`; a timed-out, diverged or non-finite run is `Faulted`.
/// Every solver family decides it with [`SolveOutcome::classify`].
/// Declaration order is the severity ordinal (`outcome as u64`) that run
/// fingerprints hash, so it is fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The tolerance criterion was met (and nothing went wrong).
    Converged,
    /// The correction budget ran out before any tolerance was met
    /// (count-based criteria always end here when fault-free).
    MaxIterations,
    /// Faults were injected or recovery actions taken, but the solve still
    /// produced a finite iterate; consult the fault log.
    Degraded,
    /// The solve timed out, diverged or its final residual is non-finite.
    Faulted,
}

impl SolveOutcome {
    /// The one rule that decides how a solve ended, from its exact final
    /// relative residual, its tolerance (`None` for count-based runs) and
    /// its fault log:
    ///
    /// 1. `Faulted` — `relres` is non-finite, the log holds a
    ///    [`FaultKind::Timeout`], or a tolerance run ended at `relres ≥ 10⁶`;
    /// 2. otherwise `Degraded` — the log is non-empty;
    /// 3. otherwise `Converged` — iff `relres < tol`;
    /// 4. otherwise `MaxIterations`.
    pub fn classify(relres: f64, tol: Option<f64>, faults: &[FaultRecord]) -> SolveOutcome {
        if !relres.is_finite()
            || faults.iter().any(|f| f.kind == FaultKind::Timeout)
            || (tol.is_some() && relres >= DIVERGED)
        {
            SolveOutcome::Faulted
        } else if !faults.is_empty() {
            SolveOutcome::Degraded
        } else if tol.is_some_and(|t| relres < t) {
            SolveOutcome::Converged
        } else {
            SolveOutcome::MaxIterations
        }
    }

    /// `true` for the two non-pathological endings.
    pub fn is_ok(self) -> bool {
        matches!(self, SolveOutcome::Converged | SolveOutcome::MaxIterations)
    }
}

/// Options for the threaded solver.
///
/// Marked `#[non_exhaustive]`: construct with [`AsyncOptions::default`] and
/// assign the fields you need.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct AsyncOptions {
    /// Additive method (Multadd or AFACx; BPX is supported but diverges).
    pub method: AdditiveMethod,
    /// Residual computation flavour (including the residual-based
    /// `r-Multadd`).
    pub res_comp: ResComp,
    /// Shared-write flavour.
    pub write: WriteMode,
    /// Stop criterion.
    pub criterion: StopCriterion,
    /// Corrections per grid ("V-cycles").
    pub t_max: usize,
    /// Total threads.
    pub n_threads: usize,
    /// Execute synchronously: grids still correct concurrently, but every
    /// cycle ends with a global barrier and a global residual SpMV (the
    /// paper's "sync Multadd"/"sync AFACx").
    pub sync: bool,
    /// Detection-and-recovery configuration (all off by default).
    pub recovery: RecoveryOptions,
}

impl Default for AsyncOptions {
    fn default() -> Self {
        AsyncOptions {
            method: AdditiveMethod::Multadd,
            res_comp: ResComp::Local,
            write: WriteMode::Lock,
            criterion: StopCriterion::One,
            t_max: 20,
            n_threads: 4,
            sync: false,
            recovery: RecoveryOptions::default(),
        }
    }
}

impl AsyncOptions {
    /// Validates field ranges, returning a description of the first
    /// violation. The panicking entry points only assert the basics; use
    /// this (or `Solver::try_run`) for untrusted configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_threads == 0 {
            return Err("n_threads must be positive".into());
        }
        if self.t_max == 0 {
            return Err("t_max must be positive".into());
        }
        if let StopCriterion::Tolerance { relres } = self.criterion {
            if !(relres.is_finite() && relres > 0.0) {
                return Err(format!("tolerance {relres} must be finite and positive"));
            }
        }
        self.recovery.validate()
    }
}

/// Outcome of a threaded solve.
#[derive(Clone, Debug)]
pub struct AsyncResult {
    /// The final approximation.
    pub x: Vec<f64>,
    /// Final relative residual 2-norm (recomputed exactly after the run).
    pub relres: f64,
    /// Corrections performed by each grid.
    pub grid_corrections: Vec<usize>,
    /// Mean corrections per grid (the paper's "Corrects" column).
    pub corrects_mean: f64,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// How the solve ended (structured, never by hanging).
    pub outcome: SolveOutcome,
    /// Injected faults and recovery actions, in time order (empty for
    /// fault-free solves).
    pub faults: Vec<FaultRecord>,
    /// Whether the solve stopped because the tolerance was met: an
    /// asynchronous run sets it only once the exact residual of the
    /// quiescent iterate confirmed a team's candidate stop (so it implies
    /// `relres < tol`), a synchronous run at the cycle-end check that saw
    /// the residual below target.
    pub stopped_on_tolerance: bool,
}

/// Per-grid thread-shared workspace.
struct GridData {
    /// Grid (level) index.
    k: usize,
    /// Restricted residuals per level `1..=k` (`c[0]` is the team's
    /// `r_local`). `c[j]` has level-`j` length.
    c: Vec<RacyVec>,
    /// Corrections per level `0..=k`.
    e: Vec<RacyVec>,
    /// Level-`k` buffer.
    buf: RacyVec,
    /// Second level-`k` buffer.
    buf2: RacyVec,
    /// AFACx: level-`k+1` restricted residual and correction.
    c1: Option<RacyVec>,
    e1: Option<RacyVec>,
    /// Sweep-start snapshots for multi-sweep smoothing (V(s₁/s₂,0)) at
    /// levels `k` and `k+1`.
    snap: RacyVec,
    snap1: Option<RacyVec>,
    /// Async-GS iterates at levels `k` and `k+1`.
    gs_k: AtomicF64Vec,
    gs_k1: Option<AtomicF64Vec>,
    /// Smoothers with block counts equal to the team size.
    sm_k: LevelSmoother,
    sm_k1: Option<LevelSmoother>,
}

impl GridData {
    fn new(setup: &MgSetup, k: usize, team_size: usize) -> Self {
        let sizes = setup.hierarchy.level_sizes();
        let ell = setup.n_levels() - 1;
        let nk = sizes[k];
        let nk1 = if k < ell { sizes[k + 1] } else { 0 };
        let is_async_gs = setup.opts.smoother == SmootherKind::AsyncGs;
        GridData {
            k,
            c: (0..=k).map(|j| RacyVec::zeros(sizes[j])).collect(),
            e: (0..=k).map(|j| RacyVec::zeros(sizes[j])).collect(),
            buf: RacyVec::zeros(nk),
            buf2: RacyVec::zeros(nk),
            c1: (k < ell).then(|| RacyVec::zeros(nk1)),
            e1: (k < ell).then(|| RacyVec::zeros(nk1)),
            snap: RacyVec::zeros(nk),
            snap1: (k < ell).then(|| RacyVec::zeros(nk1)),
            gs_k: AtomicF64Vec::zeros(if is_async_gs { nk } else { 0 }),
            gs_k1: (k < ell && is_async_gs).then(|| AtomicF64Vec::zeros(nk1)),
            sm_k: LevelSmoother::with_diag(
                setup.a(k),
                &setup.hierarchy.levels[k].diag,
                setup.opts.smoother,
                team_size,
            ),
            sm_k1: (k < ell).then(|| {
                LevelSmoother::with_diag(
                    setup.a(k + 1),
                    &setup.hierarchy.levels[k + 1].diag,
                    setup.opts.smoother,
                    team_size,
                )
            }),
        }
    }
}

/// Per-team thread-shared workspace.
struct TeamData {
    grids: Vec<GridData>,
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

/// The shared state of one solve.
struct Shared<'a, P: Probe + ?Sized> {
    setup: &'a MgSetup,
    b: &'a [f64],
    x: AtomicF64Vec,
    r_glob: AtomicF64Vec,
    /// The residual every team starts a launch from: `b` at first, the exact
    /// residual of the quiescent iterate when a tolerance solve resumes.
    /// Written only between launches, when no worker is alive.
    r_start: RacyVec,
    x_lock: SpinLock,
    r_lock: SpinLock,
    stop: AtomicBool,
    counters: Vec<AtomicUsize>,
    opts: AsyncOptions,
    probe: &'a P,
    /// The clock every time-based decision reads ([`OsClock`] by default;
    /// a [`VirtualClock`](asyncmg_threads::VirtualClock) makes the
    /// watchdog's timeout deterministic and sleep-free in tests).
    clock: &'a dyn Clock,
    /// `clock.now_ns()` at solve start (probe timestamps are relative).
    start_ns: u64,
    /// `‖b‖₂`, with zero replaced by 1 so relative residuals stay defined.
    norm_b: f64,
    /// The fault plan, when injecting.
    plan: Option<&'a FaultPlan>,
    /// `plan.is_some() || recovery armed` — gates every extra barrier and
    /// check so undefended runs interleave bit-identically to the
    /// pre-recovery runtime.
    defended: bool,
    /// Per-level quarantine flags (set by the guard, only ever read
    /// team-coherently through `TeamData::skip_local`).
    quarantined: Vec<AtomicBool>,
    /// Per-level flags for grids whose team crashed and left.
    dead: Vec<AtomicBool>,
    /// Per-level guard strike counters.
    strikes: Vec<AtomicUsize>,
    /// The fault log (cold path: faults are rare by construction).
    faults: Mutex<Vec<FaultRecord>>,
    /// Raised by the watchdog when the wall-clock budget is exhausted.
    timed_out: AtomicBool,
    /// Raised by the synchronous cycle-end check that sees the tolerance
    /// met, or after the join by the exact residual that confirms an
    /// asynchronous candidate stop.
    tol_stopped: AtomicBool,
}

impl<P: Probe + ?Sized> Shared<'_, P> {
    /// Nanoseconds since the solve epoch (for probe timestamps and the
    /// watchdog's budget — all through the clock, so a virtual clock
    /// controls the timeout).
    #[inline]
    fn now_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Appends to the fault log and notifies the probe.
    fn record_fault(&self, kind: FaultKind) {
        let t_ns = self.now_ns();
        self.faults.lock().unwrap().push(FaultRecord { t_ns, kind });
        self.probe.fault(t_ns, kind);
    }

    /// Whether level `k` will correct no more: budget spent, quarantined, or
    /// its team crashed (the last two only ever happen in defended runs).
    fn grid_finished(&self, k: usize) -> bool {
        self.counters[k].load(Ordering::Acquire) >= self.opts.t_max
            || self.quarantined[k].load(Ordering::Acquire)
            || self.dead[k].load(Ordering::Acquire)
    }

    /// Quarantines level `k` (idempotent), logging the transition.
    fn quarantine(&self, k: usize) {
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
) -> AsyncResult {
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
        .map(|(grids, &size)| TeamData {
            grids: grids.iter().map(|&k| GridData::new(setup, k, size)).collect(),
            x_local: RacyVec::zeros(n),
            r_local: RacyVec::zeros(n),
            delta: RacyVec::zeros(n),
            stop_local: AtomicBool::new(false),
            verdict: AtomicBool::new(false),
            skip_local: AtomicBool::new(false),
            round: AtomicU64::new(0),
        })
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
    AsyncResult {
        x,
        relres,
        grid_corrections,
        corrects_mean,
        elapsed,
        outcome: SolveOutcome::classify(relres, criterion_tol, &faults),
        faults,
        stopped_on_tolerance: shared.tol_stopped.load(Ordering::Acquire),
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

/// The per-thread procedure (Algorithm 5, generalised to teams that own
/// several grids and to the synchronous execution mode).
fn team_worker<P: Probe + ?Sized>(shared: &Shared<'_, P>, team: &TeamData, ctx: &TeamCtx<'_>) {
    let setup = shared.setup;
    let opts = &shared.opts;
    let n = setup.n();
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
                    for grid in &team.grids {
                        first |= !shared.dead[grid.k].swap(true, Ordering::AcqRel);
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
        for (pos, grid) in team.grids.iter().enumerate() {
            // Criterion 1 (and the Tolerance cap): a grid past t_max stops
            // correcting. The counter is only incremented by this team
            // between barriers, so all team threads read a consistent value
            // here.
            let count = shared.counters[grid.k].load(Ordering::Acquire);
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
                    team.skip_local.store(
                        shared.quarantined[grid.k].load(Ordering::Acquire),
                        Ordering::Release,
                    );
                }
                ctx.barrier();
                if team.skip_local.load(Ordering::Acquire) {
                    continue;
                }
            }
            team_done = false;
            correction_phase(shared, team, grid, ctx);
            let wrote = write_x_phase(shared, team, grid, ctx, round);
            stale = round_residual && pos + 1 < team.grids.len();
            if !stale {
                residual_phase(shared, team, grid, ctx, wrote);
            }
            if ctx.is_team_master() {
                shared.counters[grid.k].fetch_add(1, Ordering::AcqRel);
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
                    shared.probe.correction(
                        ctx.global_rank,
                        grid.k,
                        count,
                        shared.now_ns(),
                        local_res,
                    );
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
            let last = team.grids.last().expect("a team owns at least one grid");
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
                let cycles = shared.counters[team.grids[0].k].load(Ordering::Acquire);
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

/// Restrict the team-local residual to level `k`, compute the correction
/// `e_k`, and prolongate it back to `e_0` (team-parallel, team barriers).
fn correction_phase<P: Probe + ?Sized>(
    shared: &Shared<'_, P>,
    team: &TeamData,
    grid: &GridData,
    ctx: &TeamCtx<'_>,
) {
    let setup = shared.setup;
    let opts = &shared.opts;
    let k = grid.k;
    let ell = setup.n_levels() - 1;
    let smoothed = opts.method.uses_smoothed_interpolants();
    debug_assert!(!smoothed || ell == 0 || setup.smoothed_built(), "P̄ must be built before teams");
    // Phase timing by the team master only: it participates in every team
    // barrier, so its wall time spans the team-parallel phase.
    let timing = shared.probe.enabled() && ctx.is_team_master();
    let mut t0 = if timing { shared.now_ns() } else { 0 };

    // Downward: c_{j+1} = R_j c_j (c_0 = r_local).
    for j in 0..k {
        let restrict: &Csr = if smoothed { setup.r_bar(j) } else { setup.r(j) };
        let src = unsafe {
            if j == 0 {
                team.r_local.as_slice()
            } else {
                grid.c[j].as_slice()
            }
        };
        let rows = ctx.chunk(restrict.nrows());
        restrict.spmv_rows(rows.clone(), src, unsafe { grid.c[j + 1].slice_mut(rows) });
        ctx.barrier();
    }
    let c_k: &[f64] = unsafe {
        if k == 0 {
            team.r_local.as_slice()
        } else {
            grid.c[k].as_slice()
        }
    };
    if timing && k > 0 {
        let now = shared.now_ns();
        shared.probe.phase(ctx.global_rank, k, Phase::Restrict, t0, now - t0);
        t0 = now;
    }

    // Level-k correction.
    match opts.method {
        AdditiveMethod::Multadd | AdditiveMethod::Bpx => {
            if k == ell {
                team_coarse_solve(shared, grid, c_k, ctx, setup.opts.coarse);
            } else if opts.method == AdditiveMethod::Multadd {
                team_multadd_lambda(shared, grid, c_k, ctx);
            } else {
                team_smooth_zero(shared, grid, c_k, Level::K, ctx, 1);
            }
        }
        AdditiveMethod::Afacx => {
            if k == ell {
                team_coarse_solve(shared, grid, c_k, ctx, setup.opts.afacx_coarse);
            } else {
                // c1 = R_k c_k (plain restriction).
                let restrict = setup.r(k);
                let rows = ctx.chunk(restrict.nrows());
                let c1 = unsafe { grid.c1.as_ref().unwrap().slice_mut(rows.clone()) };
                restrict.spmv_rows(rows, c_k, c1);
                ctx.barrier();
                // e1 = smooth(A_{k+1}, c1) from zero.
                let c1 = unsafe { grid.c1.as_ref().unwrap().as_slice() };
                team_smooth_zero(shared, grid, c1, Level::K1, ctx, setup.opts.afacx_s2);
                // buf2 = P_k e1 ; buf = c_k − A_k buf2.
                let e1 = unsafe { grid.e1.as_ref().unwrap().as_slice() };
                let p = setup.p(k);
                let rows = ctx.chunk(p.nrows());
                p.spmv_rows(rows.clone(), e1, unsafe { grid.buf2.slice_mut(rows.clone()) });
                ctx.barrier();
                let buf2 = unsafe { grid.buf2.as_slice() };
                setup
                    .op(k)
                    .residual_rows(rows.clone(), c_k, buf2, unsafe { grid.buf.slice_mut(rows) });
                ctx.barrier();
                let g = unsafe { grid.buf.as_slice() };
                team_smooth_zero(shared, grid, g, Level::K, ctx, setup.opts.afacx_s1);
            }
        }
    }
    if timing {
        let now = shared.now_ns();
        shared.probe.phase(ctx.global_rank, k, Phase::Smooth, t0, now - t0);
        t0 = now;
    }

    // Upward: e_j = P_j e_{j+1}.
    for j in (0..k).rev() {
        let prolong: &Csr = if smoothed { setup.p_bar(j) } else { setup.p(j) };
        let src = unsafe { grid.e[j + 1].as_slice() };
        let rows = ctx.chunk(prolong.nrows());
        prolong.spmv_rows(rows.clone(), src, unsafe { grid.e[j].slice_mut(rows) });
        ctx.barrier();
    }
    if timing && k > 0 {
        let now = shared.now_ns();
        shared.probe.phase(ctx.global_rank, k, Phase::Prolong, t0, now - t0);
    }
}

/// Which level a smoothing call targets.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Level {
    K,
    K1,
}

/// `e = Λ c` for the symmetrized Multadd smoother (Jacobi variants) or one
/// block-GS application (hybrid/async), team-parallel.
fn team_multadd_lambda<P: Probe + ?Sized>(
    shared: &Shared<'_, P>,
    grid: &GridData,
    c: &[f64],
    ctx: &TeamCtx<'_>,
) {
    let setup = shared.setup;
    let a = setup.a(grid.k);
    let sm = &grid.sm_k;
    match sm.kind() {
        SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
            let w = sm.weights();
            let nk = a.nrows();
            // e = W c.
            let rows = ctx.chunk(nk);
            {
                let dst = unsafe { grid.e[grid.k].slice_mut(rows.clone()) };
                for (off, i) in rows.clone().enumerate() {
                    dst[off] = w[i] * c[i];
                }
            }
            ctx.barrier();
            // buf = A e.
            let e = unsafe { grid.e[grid.k].as_slice() };
            let rows = ctx.chunk(nk);
            setup.op(grid.k).spmv_rows(rows.clone(), e, unsafe { grid.buf.slice_mut(rows) });
            ctx.barrier();
            // e_i = w_i (2 m_ii e_i − buf_i): own rows only.
            let rows = ctx.chunk(nk);
            {
                let buf = unsafe { grid.buf.as_slice() };
                let dst = unsafe { grid.e[grid.k].slice_mut(rows.clone()) };
                for (off, i) in rows.clone().enumerate() {
                    dst[off] = w[i] * (2.0 * sm.m_diagonal(i) * dst[off] - buf[i]);
                }
            }
            ctx.barrier();
        }
        SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
            team_smooth_zero(shared, grid, c, Level::K, ctx, 1);
        }
    }
}

/// Team-parallel smoothing from a zero initial guess: `sweeps` relaxations
/// on `A e = c` at level `k` or `k+1` (the `s₁`/`s₂` of an AFACx
/// V(s₁/s₂,0)-cycle).
fn team_smooth_zero<P: Probe + ?Sized>(
    shared: &Shared<'_, P>,
    grid: &GridData,
    c: &[f64],
    level: Level,
    ctx: &TeamCtx<'_>,
    sweeps: usize,
) {
    let setup = shared.setup;
    let (a, sm, e, snap) = match level {
        Level::K => (setup.a(grid.k), &grid.sm_k, &grid.e[grid.k], &grid.snap),
        Level::K1 => (
            setup.a(grid.k + 1),
            grid.sm_k1.as_ref().unwrap(),
            grid.e1.as_ref().unwrap(),
            grid.snap1.as_ref().unwrap(),
        ),
    };
    let nk = a.nrows();
    match sm.kind() {
        SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi | SmootherKind::HybridJgs => {
            let range = block_or_chunk(sm, ctx);
            {
                let dst = unsafe { e.slice_mut(range.clone()) };
                sm.apply_zero_range(a, c, dst, range.clone());
            }
            ctx.barrier();
            for _ in 1..sweeps {
                // Snapshot the iterate, then relax each block against it.
                {
                    let es = unsafe { e.as_slice() };
                    let chunk = ctx.chunk(nk);
                    let dst = unsafe { snap.slice_mut(chunk.clone()) };
                    for (off, i) in chunk.enumerate() {
                        dst[off] = es[i];
                    }
                }
                ctx.barrier();
                {
                    let old = unsafe { snap.as_slice() };
                    let dst = unsafe { e.slice_mut(range.clone()) };
                    sm.relax_range(a, c, dst, old, range.clone());
                }
                ctx.barrier();
            }
        }
        SmootherKind::AsyncGs => {
            // The shared iterate is only allocated for the async-GS
            // smoother.
            let gs = match level {
                Level::K => &grid.gs_k,
                Level::K1 => grid.gs_k1.as_ref().unwrap(),
            };
            // Zero the shared iterate, sweep asynchronously (no barrier
            // between threads during the sweeps), then copy back.
            let chunk = ctx.chunk(nk);
            for i in chunk.clone() {
                gs.store(i, 0.0);
            }
            ctx.barrier();
            let block = block_or_chunk(sm, ctx);
            for _ in 0..sweeps {
                async_gs_sweep(a, c, gs, sm.weights(), block.clone());
            }
            ctx.barrier();
            let chunk = ctx.chunk(nk);
            let dst = unsafe { e.slice_mut(chunk.clone()) };
            for (off, i) in chunk.enumerate() {
                dst[off] = gs.load(i);
            }
            ctx.barrier();
        }
    }
}

/// The rank's smoother block, or an idle (empty) range when the level has
/// fewer blocks than the team has threads.
fn block_or_chunk(sm: &LevelSmoother, ctx: &TeamCtx<'_>) -> std::ops::Range<usize> {
    sm.blocks().get(ctx.rank).cloned().unwrap_or(0..0)
}

/// Coarse solve by the team master (dense LU), or smoothing sweeps.
fn team_coarse_solve<P: Probe + ?Sized>(
    shared: &Shared<'_, P>,
    grid: &GridData,
    c: &[f64],
    ctx: &TeamCtx<'_>,
    coarse: CoarseSolve,
) {
    let setup = shared.setup;
    match (coarse, &setup.hierarchy.coarse_lu) {
        (CoarseSolve::Exact, Some(lu)) => {
            if ctx.is_team_master() {
                let dst = unsafe { grid.e[grid.k].slice_mut(0..lu.dim()) };
                lu.solve(c, dst);
            }
            ctx.barrier();
        }
        (CoarseSolve::Smooth { sweeps }, _) => {
            team_smooth_zero(shared, grid, c, Level::K, ctx, sweeps);
        }
        (CoarseSolve::Exact, None) => {
            // Singular coarsest operator: fall back to smoothing.
            team_smooth_zero(shared, grid, c, Level::K, ctx, 2);
        }
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
    grid: &GridData,
    ctx: &TeamCtx<'_>,
    round: u64,
) -> bool {
    let n = shared.setup.n();
    let rec = &shared.opts.recovery;
    // Injected faults on this round's write. Decisions are pure functions
    // of (grid, round): every team member computes the same verdict.
    if let Some(plan) = shared.plan {
        if plan.drops_write(grid.k, round) {
            if ctx.is_team_master() {
                shared.record_fault(FaultKind::WriteDropped { grid: grid.k as u32 });
            }
            return false;
        }
        if let Some(kind) = plan.corruption(grid.k, round) {
            // The master mangles one entry of its own chunk, then a
            // barrier publishes the corruption before anyone (guard or
            // write loop) reads e_0.
            if ctx.is_team_master() {
                let chunk = ctx.chunk(n);
                if !chunk.is_empty() {
                    let dst = unsafe { grid.e[0].slice_mut(chunk.start..chunk.start + 1) };
                    dst[0] = plan.corrupt_value(kind, dst[0], grid.k, round);
                }
                shared.record_fault(FaultKind::WriteCorrupted { grid: grid.k as u32 });
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
            let e0 = unsafe { grid.e[0].as_slice() };
            let bad = e0.iter().any(|&v| !v.is_finite() || v.abs() > rec.max_correction);
            team.verdict.store(bad, Ordering::Release);
            if bad {
                shared.record_fault(FaultKind::GuardTripped { grid: grid.k as u32 });
                let strikes = shared.strikes[grid.k].fetch_add(1, Ordering::AcqRel) + 1;
                if rec.quarantine_after > 0 && strikes >= rec.quarantine_after {
                    shared.quarantine(grid.k);
                } else if rec.damping < 1.0 && strikes == 1 {
                    shared.record_fault(FaultKind::Damped { grid: grid.k as u32 });
                }
            }
        }
        ctx.barrier();
        if team.verdict.load(Ordering::Acquire) {
            return false;
        }
        if rec.damping < 1.0 && shared.strikes[grid.k].load(Ordering::Acquire) > 0 {
            scale = rec.damping;
        }
    }
    if scale != 1.0 {
        // Additive damping: scale the rows this member is about to write
        // (chunk-disjoint, so no barrier needed before the write below).
        let chunk = ctx.chunk(n);
        let dst = unsafe { grid.e[0].slice_mut(chunk.clone()) };
        for v in dst.iter_mut() {
            *v *= scale;
        }
    }
    let e0 = unsafe { grid.e[0].as_slice() };
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
        shared.probe.phase(ctx.global_rank, grid.k, Phase::SharedWrite, t0, now - t0);
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
    grid: &GridData,
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
                let e0 = unsafe { grid.e[0].as_slice() };
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
        shared.probe.phase(ctx.global_rank, grid.k, Phase::ResidualUpdate, t0, now - t0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_mult::solve_mult_threaded;
    use crate::setup::MgOptions;
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
    use asyncmg_telemetry::NoopProbe;

    fn setup_n(n: usize) -> MgSetup {
        let a = laplacian_7pt(n, n, n);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, MgOptions::default())
    }

    /// Test shorthand: no probe, production environment.
    fn solve(setup: &MgSetup, b: &[f64], opts: &AsyncOptions) -> AsyncResult {
        solve_async(setup, b, opts, &NoopProbe, ExecEnv::default())
    }

    #[test]
    fn sync_multadd_matches_sequential_additive() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let seq = crate::additive::solve_additive_probed(
            &s,
            AdditiveMethod::Multadd,
            &b,
            8,
            None,
            &NoopProbe,
        );
        let par = solve(
            &s,
            &b,
            &AsyncOptions { sync: true, t_max: 8, n_threads: 4, ..Default::default() },
        );
        eprintln!("seq {} par {}", seq.final_relres(), par.relres);
        assert!(
            (par.relres - seq.final_relres()).abs() < 1e-9 * seq.final_relres().max(1e-20),
            "threaded sync {} vs sequential {}",
            par.relres,
            seq.final_relres()
        );
    }

    #[test]
    fn async_local_res_converges() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let par = solve(&s, &b, &AsyncOptions { t_max: 40, n_threads: 4, ..Default::default() });
        assert!(par.relres < 1e-2, "relres {}", par.relres);
        assert!(par.grid_corrections.iter().all(|&c| c == 40));
        assert_eq!(par.corrects_mean, 40.0);
    }

    #[test]
    fn async_global_res_converges_single_thread() {
        // With one thread the global residual is fully refreshed at every
        // correction, so global-res must converge deterministically; this
        // pins down the code path without scheduler sensitivity.
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let par = solve(
            &s,
            &b,
            &AsyncOptions {
                res_comp: ResComp::Global,
                t_max: 40,
                n_threads: 1,
                ..Default::default()
            },
        );
        assert!(par.relres < 1e-2, "global-res relres {}", par.relres);
    }

    #[test]
    fn async_global_res_oversubscribed_shows_documented_degradation() {
        // Section IV/VI: with delayed grids, global-res residual components
        // go stale and the method converges slowly or diverges (the paper's
        // † entries). On an oversubscribed machine both outcomes occur; we
        // only require the run to terminate and report a finite residual.
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let par = solve(
            &s,
            &b,
            &AsyncOptions {
                res_comp: ResComp::Global,
                t_max: 20,
                n_threads: 4,
                ..Default::default()
            },
        );
        assert!(par.relres.is_finite());
        assert!(par.grid_corrections.iter().all(|&c| c == 20));
    }

    #[test]
    fn async_atomic_write_converges() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let par = solve(
            &s,
            &b,
            &AsyncOptions {
                write: WriteMode::Atomic,
                t_max: 40,
                n_threads: 4,
                ..Default::default()
            },
        );
        assert!(par.relres < 1e-2, "atomic-write relres {}", par.relres);
    }

    #[test]
    fn r_multadd_residual_based_converges() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let par = solve(
            &s,
            &b,
            &AsyncOptions {
                res_comp: ResComp::ResidualBased,
                write: WriteMode::Atomic,
                t_max: 40,
                n_threads: 4,
                ..Default::default()
            },
        );
        assert!(par.relres < 1e-2, "r-Multadd relres {}", par.relres);
    }

    #[test]
    fn criterion_two_overshoots_t_max() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let par = solve(
            &s,
            &b,
            &AsyncOptions {
                criterion: StopCriterion::Two,
                t_max: 10,
                n_threads: 4,
                ..Default::default()
            },
        );
        // Every grid does at least t_max corrections; some may do more
        // (Table I's Corrects ≥ V-cycles).
        assert!(par.grid_corrections.iter().all(|&c| c >= 10), "{:?}", par.grid_corrections);
        assert!(par.relres < 1e-2);
    }

    #[test]
    fn async_afacx_converges() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let opts = AsyncOptions {
            method: AdditiveMethod::Afacx,
            t_max: 40,
            n_threads: 4,
            ..Default::default()
        };
        // Where 40 corrections land is the schedule's to decide: the
        // production run is held only to what no schedule changes, the
        // accuracy threshold to a seeded one.
        let os = solve(&s, &b, &opts);
        assert!(os.relres.is_finite());
        assert!(os.grid_corrections.iter().all(|&c| c >= 40), "{:?}", os.grid_corrections);
        let sched = VirtualSched::new(1);
        let env = ExecEnv { sched: Some(&sched), ..Default::default() };
        let par = solve_async(&s, &b, &opts, &NoopProbe, env);
        assert!(par.relres < 1e-2, "AFACx relres {}", par.relres);
    }

    #[test]
    fn sync_afacx_matches_sequential() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 7);
        let seq = crate::additive::solve_additive_probed(
            &s,
            AdditiveMethod::Afacx,
            &b,
            6,
            None,
            &NoopProbe,
        );
        let par = solve(
            &s,
            &b,
            &AsyncOptions {
                method: AdditiveMethod::Afacx,
                sync: true,
                t_max: 6,
                n_threads: 4,
                ..Default::default()
            },
        );
        assert!(
            (par.relres - seq.final_relres()).abs() < 1e-9 * seq.final_relres().max(1e-20),
            "threaded sync AFACx {} vs sequential {}",
            par.relres,
            seq.final_relres()
        );
    }

    #[test]
    fn async_with_async_gs_smoother_converges() {
        use asyncmg_smoothers::SmootherKind;
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s =
            MgSetup::new(h, MgOptions { smoother: SmootherKind::AsyncGs, ..Default::default() });
        let b = random_rhs(s.n(), 3);
        let par = solve(&s, &b, &AsyncOptions { t_max: 40, n_threads: 4, ..Default::default() });
        assert!(par.relres < 1e-2, "async GS relres {}", par.relres);
    }

    #[test]
    fn async_with_hybrid_jgs_converges() {
        use asyncmg_smoothers::SmootherKind;
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s =
            MgSetup::new(h, MgOptions { smoother: SmootherKind::HybridJgs, ..Default::default() });
        let b = random_rhs(s.n(), 3);
        let par = solve(&s, &b, &AsyncOptions { t_max: 40, n_threads: 4, ..Default::default() });
        assert!(par.relres < 1e-2, "hybrid JGS relres {}", par.relres);
    }

    #[test]
    fn more_threads_than_grids_is_fine() {
        let s = setup_n(5);
        let b = random_rhs(s.n(), 1);
        let par = solve(&s, &b, &AsyncOptions { t_max: 10, n_threads: 8, ..Default::default() });
        assert!(par.relres < 1e-1);
    }

    #[test]
    fn fewer_threads_than_grids_is_fine() {
        let a = laplacian_7pt(10, 10, 10);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s = MgSetup::new(h, MgOptions::default());
        assert!(s.n_levels() >= 2);
        let b = random_rhs(s.n(), 1);
        let par = solve(&s, &b, &AsyncOptions { t_max: 10, n_threads: 1, ..Default::default() });
        assert!(par.relres < 1e-1, "relres {}", par.relres);
        assert!(par.grid_corrections.iter().all(|&c| c == 10));
    }

    #[test]
    fn threaded_mult_matches_sequential_for_jacobi() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let seq = crate::mult::solve_mult_probed(&s, &b, 5, None, &NoopProbe);
        let par = solve_mult_threaded(&s, &b, 4, 5, None, &NoopProbe, ExecEnv::default());
        assert!(
            (par.relres - seq.final_relres()).abs() < 1e-10 * seq.final_relres().max(1e-20),
            "threaded {} vs sequential {}",
            par.relres,
            seq.final_relres()
        );
    }

    #[test]
    fn threaded_mult_converges_with_hybrid_jgs() {
        use asyncmg_smoothers::SmootherKind;
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s =
            MgSetup::new(h, MgOptions { smoother: SmootherKind::HybridJgs, ..Default::default() });
        let b = random_rhs(s.n(), 3);
        let par = solve_mult_threaded(&s, &b, 4, 20, None, &NoopProbe, ExecEnv::default());
        assert!(par.relres < 1e-7, "relres {}", par.relres);
    }

    #[test]
    fn sync_afacx_multi_sweep_matches_sequential() {
        // V(2/2,0)-AFACx: threaded sync execution equals the sequential
        // solver, validating the multi-sweep team smoothing.
        use crate::setup::CoarseSolve;
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        let s = MgSetup::new(
            h,
            MgOptions {
                afacx_s1: 2,
                afacx_s2: 2,
                afacx_coarse: CoarseSolve::Smooth { sweeps: 2 },
                ..Default::default()
            },
        );
        let b = random_rhs(s.n(), 5);
        let seq = crate::additive::solve_additive_probed(
            &s,
            AdditiveMethod::Afacx,
            &b,
            6,
            None,
            &NoopProbe,
        );
        let par = solve(
            &s,
            &b,
            &AsyncOptions {
                method: AdditiveMethod::Afacx,
                sync: true,
                t_max: 6,
                n_threads: 4,
                ..Default::default()
            },
        );
        assert!(
            (par.relres - seq.final_relres()).abs() < 1e-9 * seq.final_relres().max(1e-20),
            "threaded {} vs sequential {}",
            par.relres,
            seq.final_relres()
        );
    }

    #[test]
    fn sync_mode_matches_sequential_on_blocked_and_split_block_rows() {
        // The team loops run the range kernels on chunk-local slices: the
        // 27pt stencil plan, and on elasticity the BSR block-row kernel —
        // with T = 2 and 3 a chunk edge falls inside a 3×3 block row. A
        // single team adds its grids' corrections in the sequential
        // solver's order, so T = 1 must agree bit for bit; more teams agree
        // to rounding (the order they reach x in is the schedule's).
        use asyncmg_problems::{stencil::laplacian_27pt, TestSet};
        let elast = AmgOptions { num_functions: 3, ..AmgOptions::default() };
        let setups = [
            MgSetup::new(
                build_hierarchy(laplacian_27pt(12, 12, 12), &AmgOptions::default()),
                MgOptions::default(),
            ),
            MgSetup::new(
                build_hierarchy(TestSet::Elasticity.matrix(6), &elast),
                MgOptions::default(),
            ),
        ];
        assert_eq!(setups[1].op(0).label(), "bsr");
        for s in &setups {
            let b = random_rhs(s.n(), 9);
            for method in [AdditiveMethod::Multadd, AdditiveMethod::Afacx] {
                let seq =
                    crate::additive::solve_additive_probed(s, method, &b, 6, None, &NoopProbe);
                for n_threads in [1, 2, 3] {
                    let opts = AsyncOptions {
                        method,
                        sync: true,
                        t_max: 6,
                        n_threads,
                        ..Default::default()
                    };
                    let par = solve(s, &b, &opts);
                    let what = format!("{} n={} T={n_threads}", method.name(), s.n());
                    assert!(
                        (par.relres - seq.final_relres()).abs() < 1e-9 * seq.final_relres(),
                        "{what}: threaded sync {} vs sequential {}",
                        par.relres,
                        seq.final_relres()
                    );
                    if n_threads == 1 {
                        for (u, v) in par.x.iter().zip(&seq.x) {
                            assert_eq!(u.to_bits(), v.to_bits(), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn afacx_more_sweeps_converge_faster() {
        use crate::setup::CoarseSolve;
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        let b_opts = |s1, s2| MgOptions {
            afacx_s1: s1,
            afacx_s2: s2,
            afacx_coarse: CoarseSolve::Smooth { sweeps: s1 },
            ..Default::default()
        };
        let s1 = MgSetup::new(h.clone(), b_opts(1, 1));
        let s2 = MgSetup::new(h, b_opts(3, 3));
        let b = random_rhs(s1.n(), 8);
        let r1 = crate::additive::solve_additive_probed(
            &s1,
            AdditiveMethod::Afacx,
            &b,
            15,
            None,
            &NoopProbe,
        );
        let r2 = crate::additive::solve_additive_probed(
            &s2,
            AdditiveMethod::Afacx,
            &b,
            15,
            None,
            &NoopProbe,
        );
        assert!(
            r2.final_relres() < r1.final_relres(),
            "V(3/3,0) {} should beat V(1/1,0) {}",
            r2.final_relres(),
            r1.final_relres()
        );
    }

    // ---- fault injection and recovery -----------------------------------

    use asyncmg_threads::{Corruption, Fault, FaultPlan, VirtualSched};

    fn faulted(
        s: &MgSetup,
        b: &[f64],
        opts: &AsyncOptions,
        plan: &FaultPlan,
        sched_seed: u64,
    ) -> AsyncResult {
        let sched = VirtualSched::new(sched_seed);
        let env = ExecEnv { sched: Some(&sched), plan: Some(plan), ..Default::default() };
        solve_async(s, b, opts, &NoopProbe, env)
    }

    #[test]
    fn defended_fault_free_run_is_clean() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let opts = AsyncOptions {
            t_max: 30,
            n_threads: 4,
            recovery: RecoveryOptions::defended(),
            ..Default::default()
        };
        let res = solve(&s, &b, &opts);
        assert!(res.faults.is_empty(), "no faults injected, none should be logged");
        assert_eq!(res.outcome, SolveOutcome::MaxIterations);
        assert!(res.outcome.is_ok());
        assert!(res.relres < 1e-2, "relres {}", res.relres);
    }

    #[test]
    fn unguarded_nan_corruption_faults_the_solve() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let plan = FaultPlan::new(1).with(Fault::CorruptWrite {
            grid: 0,
            at_round: 2,
            kind: Corruption::Nan,
        });
        let opts = AsyncOptions { t_max: 10, n_threads: 4, ..Default::default() };
        let res = faulted(&s, &b, &opts, &plan, 11);
        assert_eq!(res.outcome, SolveOutcome::Faulted, "NaN must poison the unguarded iterate");
        assert!(!res.relres.is_finite());
        assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::WriteCorrupted { grid: 0 })));
    }

    #[test]
    fn guarded_corruption_is_suppressed_and_degrades() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let plan = FaultPlan::new(2).with(Fault::CorruptWrite {
            grid: 1,
            at_round: 1,
            kind: Corruption::Inf,
        });
        let opts = AsyncOptions {
            t_max: 20,
            n_threads: 4,
            recovery: RecoveryOptions::defended(),
            ..Default::default()
        };
        let res = faulted(&s, &b, &opts, &plan, 12);
        assert_eq!(res.outcome, SolveOutcome::Degraded);
        assert!(res.relres.is_finite() && res.relres < 1e-1, "relres {}", res.relres);
        assert!(res.x.iter().all(|v| v.is_finite()));
        assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::GuardTripped { grid: 1 })));
    }

    #[test]
    fn crashed_team_degrades_but_rest_of_hierarchy_converges() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let plan = FaultPlan::new(3).with(Fault::Crash { team: 1, at_round: 0 });
        let opts = AsyncOptions {
            t_max: 30,
            n_threads: 4,
            recovery: RecoveryOptions::defended(),
            ..Default::default()
        };
        let res = faulted(&s, &b, &opts, &plan, 13);
        assert_eq!(res.outcome, SolveOutcome::Degraded);
        assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::TeamCrash { team: 1 })));
        // The crashed team did no corrections; the surviving grids finished
        // their budget and still reduced the residual.
        assert!(res.grid_corrections.contains(&0), "{:?}", res.grid_corrections);
        assert!(res.grid_corrections.contains(&30), "{:?}", res.grid_corrections);
        assert!(res.relres.is_finite() && res.relres < 1e-1, "relres {}", res.relres);
    }

    #[test]
    fn dropped_writes_are_logged_and_solve_survives() {
        let s = setup_n(6);
        let ell = s.n_levels() - 1;
        let b = random_rhs(s.n(), 3);
        let plan = FaultPlan::new(4).with(Fault::DropWrite { grid: ell, prob: 1.0 });
        let opts = AsyncOptions {
            t_max: 20,
            n_threads: 4,
            recovery: RecoveryOptions::defended(),
            ..Default::default()
        };
        let res = faulted(&s, &b, &opts, &plan, 14);
        assert_eq!(res.outcome, SolveOutcome::Degraded);
        let drops = res
            .faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::WriteDropped { grid } if grid as usize == ell))
            .count();
        assert_eq!(drops, 20, "every round of the coarsest grid drops");
        assert!(res.relres.is_finite() && res.relres < 1e-1, "relres {}", res.relres);
    }

    #[test]
    fn repeated_corruption_quarantines_the_grid() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        // NaN (unlike a bit-flip, which can land back in range) trips the
        // guard on every hit, so four hits exceed the 3-strike quarantine
        // threshold deterministically.
        let mut plan = FaultPlan::new(5);
        for round in 1..=4 {
            plan =
                plan.with(Fault::CorruptWrite { grid: 1, at_round: round, kind: Corruption::Nan });
        }
        let opts = AsyncOptions {
            t_max: 20,
            n_threads: 4,
            recovery: RecoveryOptions::defended(), // quarantine_after: 3
            ..Default::default()
        };
        let res = faulted(&s, &b, &opts, &plan, 15);
        assert_eq!(res.outcome, SolveOutcome::Degraded);
        assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::Quarantined { grid: 1 })));
        assert!(res.relres.is_finite(), "quarantine must keep the iterate clean");
    }

    #[test]
    fn wall_clock_timeout_reports_faulted() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let opts = AsyncOptions {
            t_max: 200_000,
            n_threads: 4,
            recovery: RecoveryOptions { max_wall: Some(Duration::ZERO), ..Default::default() },
            ..Default::default()
        };
        let res = solve(&s, &b, &opts);
        assert_eq!(res.outcome, SolveOutcome::Faulted);
        assert!(res.faults.iter().any(|f| matches!(f.kind, FaultKind::Timeout)));
        assert!(
            res.grid_corrections.iter().all(|&c| c < 200_000),
            "timeout must cut the budget short: {:?}",
            res.grid_corrections
        );
    }

    #[test]
    fn straggler_injection_is_logged_and_harmless() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let plan = FaultPlan::new(6).with(Fault::Straggler {
            worker: 0,
            from_round: 2,
            rounds: 3,
            steps: 7,
        });
        let opts = AsyncOptions { t_max: 20, n_threads: 4, ..Default::default() };
        let res = faulted(&s, &b, &opts, &plan, 16);
        assert_eq!(res.outcome, SolveOutcome::Degraded);
        assert!(res
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Straggler { worker: 0, steps: 7 })));
        assert!(res.relres < 1e-1, "a slow worker must not break convergence: {}", res.relres);
        assert!(res.grid_corrections.iter().all(|&c| c == 20), "{:?}", res.grid_corrections);
    }

    #[test]
    fn faulted_replay_is_deterministic_under_virtual_sched() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        let plan = FaultPlan::new(7)
            .with(Fault::Crash { team: 2, at_round: 3 })
            .with(Fault::CorruptWrite { grid: 0, at_round: 2, kind: Corruption::BitFlip });
        let opts = AsyncOptions {
            t_max: 15,
            n_threads: 4,
            recovery: RecoveryOptions::defended(),
            ..Default::default()
        };
        let r1 = faulted(&s, &b, &opts, &plan, 17);
        let r2 = faulted(&s, &b, &opts, &plan, 17);
        assert_eq!(r1.outcome, r2.outcome);
        assert_eq!(r1.relres.to_bits(), r2.relres.to_bits(), "bit-identical replay");
        assert_eq!(r1.grid_corrections, r2.grid_corrections);
        let kinds = |r: &AsyncResult| r.faults.iter().map(|f| f.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&r1), kinds(&r2));
    }

    #[test]
    fn recovery_options_validate_ranges() {
        assert!(RecoveryOptions::default().validate().is_ok());
        assert!(RecoveryOptions::defended().validate().is_ok());
        let r = RecoveryOptions { damping: 0.0, ..Default::default() };
        assert!(r.validate().is_err());
        let mut o =
            AsyncOptions { criterion: StopCriterion::tolerance(f64::NAN), ..Default::default() };
        assert!(o.validate().is_err());
        o.criterion = StopCriterion::One;
        o.n_threads = 0;
        assert!(o.validate().is_err());
    }

    #[test]
    fn classify_is_the_one_outcome_rule() {
        use SolveOutcome::*;
        let at = |kind| FaultRecord { t_ns: 0, kind };
        let timeout = [at(FaultKind::Timeout)];
        let guard = [at(FaultKind::GuardTripped { grid: 1 })];
        let cases: [(f64, Option<f64>, &[FaultRecord], SolveOutcome); 14] = [
            // Non-finite residuals fault, with or without a tolerance.
            (f64::NAN, Some(1e-6), &[], Faulted),
            (f64::NAN, None, &[], Faulted),
            (f64::INFINITY, Some(1e-6), &[], Faulted),
            (f64::INFINITY, None, &guard, Faulted),
            // Divergence faults a tolerance run only.
            (DIVERGED, Some(1e-6), &[], Faulted),
            (2.0 * DIVERGED, Some(1e-6), &guard, Faulted),
            (DIVERGED, None, &[], MaxIterations),
            // A timeout faults even below tolerance.
            (1e-9, Some(1e-6), &timeout, Faulted),
            (0.5, None, &timeout, Faulted),
            // Any other fault degrades, converged or not.
            (1e-9, Some(1e-6), &guard, Degraded),
            (0.5, None, &guard, Degraded),
            // Fault-free: strictly below tolerance converges.
            (1e-9, Some(1e-6), &[], Converged),
            (1e-6, Some(1e-6), &[], MaxIterations),
            (1e-9, None, &[], MaxIterations),
        ];
        for (relres, tol, faults, want) in cases {
            assert_eq!(SolveOutcome::classify(relres, tol, faults), want, "{relres} {tol:?}");
        }
    }
}
