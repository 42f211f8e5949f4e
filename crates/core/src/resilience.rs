//! Resilient solve sessions: checkpoint/rollback, retry with backoff, and
//! an automatic degradation ladder.
//!
//! The asynchronous runtime of this crate can already *survive* faults —
//! guards, quarantine, the wall-clock watchdog
//! ([`asynchronous`](crate::asynchronous)) — but a survived fault usually
//! costs convergence: the solve ends [`Degraded`](SolveOutcome::Degraded) or
//! [`Faulted`](SolveOutcome::Faulted) above tolerance. This module adds the
//! session layer that turns those structured failures into eventual
//! success:
//!
//! * Checkpoints — the session snapshots its iterate at every attempt end
//!   and keeps the best; retries warm-start from it instead of from zero
//!   (rollback-to-best-known).
//! * [`RetryPolicy`] — bounded attempts, exponential backoff between them,
//!   and an overall deadline whose remainder is split evenly across the
//!   attempts still available (each asynchronous attempt gets the slice as
//!   its watchdog `max_wall`).
//! * [`Rung`] — the degradation ladder: fully asynchronous atomic-write →
//!   asynchronous lock-write → semi-asynchronous → synchronous
//!   multiplicative V-cycles → V-cycle-preconditioned CG
//!   ([`krylov`](crate::krylov)). Each failed attempt escalates one rung;
//!   asynchronous rungs retried after a fault failure run defended with
//!   progressively tightened damping.
//!
//! Every time-based decision of the session — backoff sleeps, the deadline,
//! checkpoint timestamps — goes through the session's
//! [`Clock`](asyncmg_threads::Clock), so a test can drive the whole retry
//! schedule with a [`VirtualClock`](asyncmg_threads::VirtualClock) without
//! sleeping wall-clock time. A session seeded with
//! [`Solver::session_seed`](crate::Solver::session_seed) replays
//! bit-identically: attempt `a` runs under `VirtualSched::new(mix(seed, a))`
//! with count-based stopping, and the session itself computes the exact
//! relative residual that drives every convergence and escalation decision.

use crate::additive::AdditiveMethod;
use crate::asynchronous::{
    solve_async, AsyncOptions, RecoveryOptions, SolveOutcome, StopCriterion, WriteMode,
};
use crate::krylov::{pcg_probed, VCyclePrec};
use crate::mult::solve_mult_probed;
use crate::setup::MgSetup;
use crate::solver::{SolveError, SolveReport, Solver};
use asyncmg_sparse::vecops;
use asyncmg_telemetry::{
    AttemptRecord, FaultKind, FaultRecord, NoopProbe, Phase, Probe, ResidualSample, SolveTrace,
    TelemetryProbe,
};
use asyncmg_threads::{ExecEnv, OsClock, Sched, VirtualSched};
use std::time::{Duration, Instant};

/// One snapshot of the session iterate, its exact relative residual and
/// the attempt that produced it.
#[derive(Clone, Debug)]
struct Checkpoint {
    x: Vec<f64>,
    relres: f64,
    attempt: u32,
}

/// Keeps the best checkpoint seen so far (lowest finite relative residual),
/// plus taken/restored counters. Owned by the session loop, its only user;
/// the best-so-far policy means a warm start always goes to the best known
/// state, never to an older or worse one.
#[derive(Debug, Default)]
struct CheckpointStore {
    best: Option<Checkpoint>,
    taken: usize,
    restored: usize,
}

impl CheckpointStore {
    fn new() -> Self {
        CheckpointStore::default()
    }

    /// Offers a snapshot; it becomes the best checkpoint iff its residual
    /// is finite and strictly better than the current best. Returns whether
    /// it was kept.
    fn offer(&mut self, x: &[f64], relres: f64, attempt: u32) -> bool {
        self.taken += 1;
        let better = relres.is_finite() && self.best.as_ref().is_none_or(|c| relres < c.relres);
        if better {
            self.best = Some(Checkpoint { x: x.to_vec(), relres, attempt });
        }
        better
    }

    fn best(&self) -> Option<Checkpoint> {
        self.best.clone()
    }

    /// Records that a retry warm-started from the best checkpoint.
    fn mark_restored(&mut self) {
        self.restored += 1;
    }

    fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            taken: self.taken,
            restored: self.restored,
            best_relres: self.best.as_ref().map(|c| c.relres),
            best_attempt: self.best.as_ref().map(|c| c.attempt),
        }
    }
}

/// Checkpoint activity of one session.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CheckpointStats {
    /// Snapshots taken: one per attempt end.
    pub taken: usize,
    /// Retries that warm-started from the best checkpoint.
    pub restored: usize,
    /// Relative residual of the best checkpoint, if any was kept.
    pub best_relres: Option<f64>,
    /// Attempt that produced the best checkpoint.
    pub best_attempt: Option<u32>,
}

/// One rung of the degradation ladder, fastest-and-most-fragile first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// A sharded message-passing solve over this many shard workers,
    /// executed through the session's [`ShardRungDriver`]. Not part of the
    /// default ladder; `asyncmg-shard`'s `sharded_ladder` prefixes a
    /// halving sequence (S → S/2 → … → 1) onto [`Rung::LADDER`], so each
    /// escalation retries with fewer shards, warm-started from the best
    /// hub-assembled checkpoint.
    Sharded {
        /// Shard-worker count for this rung (the hub adds one more rank).
        shards: u32,
    },
    /// Fully asynchronous additive solve, atomic shared writes.
    AsyncAtomic,
    /// Fully asynchronous additive solve, lock shared writes.
    AsyncLock,
    /// Semi-asynchronous: concurrent grids with a global barrier per cycle
    /// (fault injection is dropped — the synchronous driver's barriers
    /// cannot survive a crashed team).
    SemiAsync,
    /// The sequential multiplicative V(1,1)-cycle baseline.
    SyncMult,
    /// Last resort: V-cycle-preconditioned conjugate gradients.
    Pcg,
}

impl Rung {
    /// The default full ladder, in escalation order.
    pub const LADDER: [Rung; 5] =
        [Rung::AsyncAtomic, Rung::AsyncLock, Rung::SemiAsync, Rung::SyncMult, Rung::Pcg];

    /// Stable lowercase name (used in the trace JSON schema).
    pub fn name(self) -> &'static str {
        match self {
            Rung::Sharded { .. } => "sharded",
            Rung::AsyncAtomic => "async_atomic",
            Rung::AsyncLock => "async_lock",
            Rung::SemiAsync => "semi_async",
            Rung::SyncMult => "sync_mult",
            Rung::Pcg => "pcg",
        }
    }

    /// Whether this rung runs the asynchronous threaded backend (the only
    /// rungs fault plans apply to).
    fn is_async(self) -> bool {
        matches!(self, Rung::AsyncAtomic | Rung::AsyncLock)
    }
}

/// What a resilient session is driving toward.
///
/// Tolerance-free requests (`tol: None` at the service layer) still need a
/// rescue path when their solve faults: [`SessionGoal::Budget`] runs the
/// same ladder but declares an attempt successful as soon as it finishes
/// *cleanly* — no fault, a finite residual — rather than requiring a target
/// residual. The ladder then exists purely to survive faults, not to
/// sharpen the answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SessionGoal {
    /// Reach a relative residual below this tolerance.
    Tolerance(f64),
    /// No tolerance: succeed on the first attempt that runs its budget to
    /// completion without faulting and leaves a finite residual.
    Budget,
}

impl SessionGoal {
    /// Whether an attempt with exact relative residual `relres` and
    /// structured outcome `outcome` satisfies this goal.
    fn met(self, relres: f64, outcome: SolveOutcome) -> bool {
        match self {
            SessionGoal::Tolerance(tol) => relres < tol,
            SessionGoal::Budget => {
                relres.is_finite()
                    && matches!(outcome, SolveOutcome::Converged | SolveOutcome::MaxIterations)
            }
        }
    }

    /// The residual target used to derive per-attempt shifted tolerances
    /// (budget goals run every rung to its full budget).
    fn tol(self) -> f64 {
        match self {
            SessionGoal::Tolerance(tol) => tol,
            SessionGoal::Budget => 0.0,
        }
    }
}

/// Retry budget of a resilient session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Hard cap on attempts (≥ 1).
    pub max_attempts: u32,
    /// Base backoff slept (through the session clock) before retry `a`,
    /// scaled by `2^(a-1)`.
    pub backoff: Duration,
    /// Overall wall-clock deadline for the session. Before each attempt the
    /// remaining budget is split evenly over the attempts still allowed,
    /// and an asynchronous attempt gets that slice as its watchdog
    /// `max_wall`. `None` = unbounded.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 6, backoff: Duration::from_millis(2), deadline: None }
    }
}

impl RetryPolicy {
    /// Validates field ranges, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("retry max_attempts must be at least 1".into());
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return Err("retry deadline must be non-zero".into());
        }
        Ok(())
    }
}

/// Why a session escalated past an attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscalationReason {
    /// The attempt ended [`SolveOutcome::Faulted`] (non-finite iterate or
    /// a hard failure).
    Faulted,
    /// The attempt ended [`SolveOutcome::Degraded`] above tolerance.
    Degraded,
    /// The attempt's watchdog budget expired (timeout in the fault log).
    Stalled,
    /// The attempt finished cleanly but above tolerance.
    AboveTolerance,
}

impl EscalationReason {
    /// Stable lowercase name (used in the trace JSON schema).
    pub fn name(self) -> &'static str {
        match self {
            EscalationReason::Faulted => "faulted",
            EscalationReason::Degraded => "degraded",
            EscalationReason::Stalled => "stalled",
            EscalationReason::AboveTolerance => "above_tolerance",
        }
    }
}

/// What one attempt of a session did.
#[derive(Clone, Debug)]
pub struct AttemptReport {
    /// Attempt number (0-based).
    pub index: u32,
    /// The ladder rung it ran on.
    pub rung: Rung,
    /// Exact relative residual of the session iterate after the attempt.
    pub relres: f64,
    /// The attempt's structured outcome (session-level: an attempt whose
    /// exact residual meets the tolerance is `Converged` even if the
    /// backend reported degradation).
    pub outcome: SolveOutcome,
    /// Mean corrections per grid (asynchronous rungs), cycles (`SyncMult`)
    /// or iterations (`Pcg`).
    pub corrections: f64,
    /// Wall-clock duration of the attempt.
    pub elapsed: Duration,
    /// The attempt's fault log (injected faults and recovery actions).
    pub faults: Vec<FaultRecord>,
    /// Whether the attempt warm-started from a checkpoint.
    pub warm_start: bool,
    /// Why the session escalated past this attempt (`None` for the
    /// converging or final attempt).
    pub escalation: Option<EscalationReason>,
    /// The derived scheduler seed, for seeded (deterministic) sessions.
    pub sched_seed: Option<u64>,
}

/// The outcome of a resilient session: the final iterate plus the full
/// per-attempt history.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The best iterate the session produced.
    pub x: Vec<f64>,
    /// Its exact relative residual.
    pub relres: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Structured session outcome.
    pub outcome: SolveOutcome,
    /// Every attempt, in order, with escalation reasons.
    pub attempts: Vec<AttemptReport>,
    /// Checkpoint activity.
    pub checkpoints: CheckpointStats,
    /// Session duration on the session clock (virtual-clock sessions
    /// report virtual time).
    pub elapsed: Duration,
    /// Whether the session stopped because [`RetryPolicy::deadline`]
    /// expired before the attempts were exhausted.
    pub deadline_exhausted: bool,
    /// Merged telemetry across all attempts, when
    /// [`Solver::with_trace`](crate::Solver::with_trace) was set (attempt
    /// timelines are shifted onto the session clock).
    pub trace: Option<SolveTrace>,
}

impl SessionReport {
    /// The escalation path: `(attempt index, reason)` for every attempt the
    /// session moved past.
    pub fn escalations(&self) -> Vec<(u32, EscalationReason)> {
        self.attempts.iter().filter_map(|a| a.escalation.map(|e| (a.index, e))).collect()
    }

    /// The rung the final attempt ran on.
    pub fn final_rung(&self) -> Option<Rung> {
        self.attempts.last().map(|a| a.rung)
    }
}

/// A configuration failure detected before any session work starts.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// Resilient sessions need a target: set [`Solver::tolerance`](crate::Solver::tolerance).
    NoTolerance,
    /// The ladder contains a [`Rung::Sharded`] rung but no
    /// [`ShardRungDriver`] was installed
    /// ([`Solver::shard_driver`](crate::Solver::shard_driver)).
    MissingShardDriver,
    /// The [`RetryPolicy`] is out of range.
    InvalidRetry(String),
    /// The underlying solver configuration or right-hand side is invalid.
    Solve(SolveError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoTolerance => {
                write!(f, "resilient sessions need a tolerance to retry toward")
            }
            SessionError::MissingShardDriver => {
                write!(f, "the ladder has a sharded rung but no shard driver is installed")
            }
            SessionError::InvalidRetry(msg) => write!(f, "invalid retry policy: {msg}"),
            SessionError::Solve(e) => write!(f, "invalid session configuration: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for SessionError {
    fn from(e: SolveError) -> Self {
        SessionError::Solve(e)
    }
}

/// Derives attempt `a`'s scheduler seed from the session seed (splitmix64
/// finalizer, so consecutive attempts get decorrelated interleavings).
pub(crate) fn mix(seed: u64, attempt: u32) -> u64 {
    let mut z = seed ^ (attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sharded-rung request, handed to the session's [`ShardRungDriver`]:
/// solve `A·dx = b` (the session's shifted system) to `tolerance`.
pub struct ShardAttempt<'a> {
    /// The hierarchy the session runs on.
    pub setup: &'a MgSetup,
    /// Right-hand side of the shifted system (`r0 = b − A·x0`).
    pub b: &'a [f64],
    /// Shard-worker count of the rung.
    pub shards: u32,
    /// Epoch budget per shard (the session's `t_max`).
    pub t_max: usize,
    /// Target relative residual on the shifted system.
    pub tolerance: f64,
    /// Derived attempt seed for seeded sessions: `Some` means the driver
    /// must run the fully virtual deterministic stack (seeded scheduler,
    /// seeded transport, virtual clock) so the attempt replays
    /// bit-identically. `None` means production transports and the OS
    /// clock.
    pub seed: Option<u64>,
}

/// Executes [`Rung::Sharded`] rungs for a resilient session. Implemented by
/// `asyncmg-shard` (the core crate cannot depend on it); installed with
/// [`Solver::shard_driver`](crate::Solver::shard_driver).
pub trait ShardRungDriver: Sync {
    /// Runs one sharded attempt. The session reads the report's `x` (the
    /// assembled `dx`), `outcome`, `corrects_mean` (the attempt's
    /// corrections), `elapsed` and `faults`.
    fn run(&self, attempt: &ShardAttempt<'_>) -> SolveReport;
}

/// Stable lowercase outcome name (used in the trace JSON schema).
fn outcome_name(outcome: SolveOutcome) -> &'static str {
    match outcome {
        SolveOutcome::Converged => "converged",
        SolveOutcome::MaxIterations => "max_iterations",
        SolveOutcome::Degraded => "degraded",
        SolveOutcome::Faulted => "faulted",
    }
}

/// Executes one ladder rung on the shifted system `A·dx = r0` to relative
/// residual `attempt_tol` (so the unshifted iterate `x0 + dx` meets the
/// session tolerance); the report's `x` is `dx`.
// `AsyncOptions` is `#[non_exhaustive]`, so fields are set on a default
// rather than via a struct literal.
#[allow(clippy::too_many_arguments, clippy::field_reassign_with_default)]
fn run_rung(
    solver: &Solver<'_>,
    rung: Rung,
    r0: &[f64],
    attempt_tol: f64,
    seed: Option<u64>,
    slice: Option<Duration>,
    fault_failures: u32,
    probe: &dyn Probe,
) -> SolveReport {
    let setup = solver.setup;
    match rung {
        Rung::Sharded { shards } => {
            // Validated by `run_session` before the loop starts.
            let driver = solver.shard_driver.expect("sharded rung without a driver");
            let attempt = ShardAttempt {
                setup,
                b: r0,
                shards,
                t_max: solver.t_max,
                tolerance: attempt_tol,
                seed,
            };
            driver.run(&attempt)
        }
        Rung::AsyncAtomic | Rung::AsyncLock | Rung::SemiAsync => {
            let deterministic = seed.is_some();
            let mut recovery = solver.recovery;
            if fault_failures > 0 {
                // Retrying after a fault failure: arm the defensive posture
                // (unless the caller already configured one) and tighten
                // the damping one notch per extra failure.
                if !recovery.any_enabled() {
                    recovery = RecoveryOptions::defended();
                }
                recovery.damping =
                    (recovery.damping * 0.5f64.powi(fault_failures as i32 - 1)).max(0.25);
            }
            if deterministic {
                // A wall-clock budget fires nondeterministically under the
                // serialised virtual scheduler; seeded sessions rely on the
                // exact session-level residual check instead.
                recovery.max_wall = None;
            } else if let Some(slice) = slice {
                recovery.max_wall = Some(recovery.max_wall.map_or(slice, |w| w.min(slice)));
            }
            let criterion = if deterministic {
                // Count-based stopping: a seeded attempt spends exactly its
                // budget, and the session computes the exact residual
                // itself afterwards.
                StopCriterion::One
            } else {
                StopCriterion::tolerance(attempt_tol)
            };
            // `AsyncOptions` is `#[non_exhaustive]`, so fields are set on a
            // default rather than via a struct literal.
            let mut opts = AsyncOptions::default();
            opts.method = solver.method.additive().unwrap_or(AdditiveMethod::Multadd);
            opts.res_comp = solver.res_comp;
            opts.write = match rung {
                Rung::AsyncAtomic => WriteMode::Atomic,
                Rung::AsyncLock => WriteMode::Lock,
                _ => solver.write,
            };
            opts.criterion = criterion;
            opts.t_max = solver.t_max;
            opts.n_threads = solver.threads.max(1);
            opts.sync = rung == Rung::SemiAsync;
            opts.recovery = recovery;
            // Per-attempt environment: a scheduler only when seeded (a fresh
            // one per attempt, so each replays from its own seed), the plan
            // only on rungs that can survive a crash, and always the OS
            // clock — the session clock times backoff and deadlines, not the
            // attempt's watchdog.
            let vs = seed.map(VirtualSched::new);
            let env = ExecEnv {
                sched: vs.as_ref().map(|v| v as &dyn Sched),
                plan: solver.env.plan.filter(|_| rung.is_async()),
                clock: None,
            };
            solve_async(setup, r0, &opts, probe, env)
        }
        Rung::SyncMult => solve_mult_probed(setup, r0, solver.t_max, Some(attempt_tol), probe),
        Rung::Pcg => {
            let mut prec = VCyclePrec::new(setup);
            let iters = solver.t_max.max(100);
            pcg_probed(setup.a(0), r0, attempt_tol, iters, &mut prec, probe)
        }
    }
}

/// Runs the resilient session loop for [`Solver::try_resilient`](crate::Solver::try_resilient).
pub(crate) fn run_session(solver: &Solver<'_>, b: &[f64]) -> Result<SessionReport, SessionError> {
    let tol = solver.tolerance.ok_or(SessionError::NoTolerance)?;
    run_session_goal(solver, b, SessionGoal::Tolerance(tol))
}

/// Runs the resilient session loop toward an explicit [`SessionGoal`] (the
/// entry point behind [`Solver::try_fallback`](crate::Solver::try_fallback)).
pub(crate) fn run_session_goal(
    solver: &Solver<'_>,
    b: &[f64],
    goal: SessionGoal,
) -> Result<SessionReport, SessionError> {
    let tol = goal.tol();
    solver.retry.validate().map_err(SessionError::InvalidRetry)?;
    solver.validate(b)?;
    let ladder: &[Rung] = if solver.ladder.is_empty() { &Rung::LADDER } else { solver.ladder };
    if ladder.iter().any(|r| matches!(r, Rung::Sharded { .. })) && solver.shard_driver.is_none() {
        return Err(SessionError::MissingShardDriver);
    }
    let policy = solver.retry;
    let setup = solver.setup;
    let n = setup.n();
    let a0 = setup.a(0);
    let os_clock = OsClock::new();
    let clock = solver.env.clock.unwrap_or(&os_clock);
    let t0 = clock.now_ns();
    let now = || clock.now_ns().saturating_sub(t0);
    let norm_b = vecops::norm2(b).max(1e-300);
    let mut store = CheckpointStore::new();

    let mut trace = solver.collect_trace.then(SolveTrace::default);
    let mut attempts: Vec<AttemptReport> = Vec::new();
    let mut x = vec![0.0; n];
    let mut relres = f64::INFINITY;
    let mut deadline_exhausted = false;
    let mut converged = false;
    let mut rung_idx = 0usize;
    let mut fault_failures = 0u32;

    for attempt in 0..policy.max_attempts {
        if attempt > 0 {
            // Exponential backoff through the session clock (a virtual
            // clock advances instead of sleeping).
            clock.sleep(policy.backoff * 2u32.saturating_pow(attempt - 1));
        }
        let elapsed = Duration::from_nanos(now());
        let mut slice = None;
        if let Some(deadline) = policy.deadline {
            if elapsed >= deadline {
                deadline_exhausted = true;
                break;
            }
            // Split the remaining budget evenly over the attempts left.
            slice = Some((deadline - elapsed) / (policy.max_attempts - attempt));
        }
        let start_ns = now();
        let rung = ladder[rung_idx.min(ladder.len() - 1)];
        let seed = solver.session_seed.map(|s| mix(s, attempt));

        // Warm start: roll forward from the best checkpoint when it beats
        // the zero guess (whose relative residual is exactly 1).
        let best = store.best().filter(|c| c.relres < 1.0);
        let warm_start = best.is_some();
        let (x0, restored_relres) = match best {
            Some(c) => {
                store.mark_restored();
                (c.x, c.relres)
            }
            None => (vec![0.0; n], 1.0),
        };
        // Shifted system: solve A·dx = r0 = b − A·x0, then x = x0 + dx.
        let mut r0 = vec![0.0; n];
        if warm_start {
            a0.spmv(&x0, &mut r0);
            for i in 0..n {
                r0[i] = b[i] - r0[i];
            }
        } else {
            r0.copy_from_slice(b);
        }
        let norm_r0 = vecops::norm2(&r0).max(1e-300);
        if matches!(goal, SessionGoal::Tolerance(_)) && norm_r0 / norm_b < tol {
            // The restored checkpoint already meets the tolerance.
            x = x0;
            relres = norm_r0 / norm_b;
            converged = true;
            attempts.push(AttemptReport {
                index: attempt,
                rung,
                relres,
                outcome: SolveOutcome::Converged,
                corrections: 0.0,
                elapsed: Duration::ZERO,
                faults: Vec::new(),
                warm_start,
                escalation: None,
                sched_seed: seed,
            });
            break;
        }
        // The shifted tolerance that makes the unshifted iterate meet the
        // session target: ‖r0 − A·dx‖/‖b‖ < tol ⇔ shifted relres < this.
        let attempt_tol = tol * norm_b / norm_r0;

        let mut tp = solver
            .collect_trace
            // One ring per worker plus the session's own (index
            // `n_threads`) for its checkpoint phases.
            .then(|| TelemetryProbe::with_threads(solver.threads.max(1) + 1));
        let run = {
            let probe: &dyn Probe = match (&tp, solver.probe) {
                (Some(p), _) => p,
                (None, Some(p)) => p,
                (None, None) => &NoopProbe,
            };
            if warm_start && probe.enabled() {
                probe.checkpoint(0, attempt, restored_relres, true);
            }
            let run = run_rung(solver, rung, &r0, attempt_tol, seed, slice, fault_failures, probe);
            // End-of-attempt checkpoint, the session's only one (seeded
            // sessions take it too).
            let ckpt_start = Instant::now();
            let mut xa = x0;
            for i in 0..n {
                xa[i] += run.x[i];
            }
            let mut ax = vec![0.0; n];
            a0.spmv(&xa, &mut ax);
            let mut sum = 0.0;
            for i in 0..n {
                let v = b[i] - ax[i];
                sum += v * v;
            }
            let rel = sum.sqrt() / norm_b;
            store.offer(&xa, rel, attempt);
            if probe.enabled() {
                let t_ns = run.elapsed.as_nanos() as u64;
                // Recorded on the ring one past the last worker's (probes
                // sized for workers only drop the event safely).
                let dur = ckpt_start.elapsed().as_nanos() as u64;
                probe.phase(solver.threads.max(1), 0, Phase::Checkpoint, t_ns, dur);
                probe.checkpoint(t_ns, attempt, rel, false);
            }
            (run, xa, rel)
        };
        let (run, xa, rel) = run;

        let attempt_converged = goal.met(rel, run.outcome);
        let escalation = if attempt_converged {
            None
        } else {
            Some(match run.outcome {
                SolveOutcome::Faulted
                    if run.faults.iter().any(|f| matches!(f.kind, FaultKind::Timeout)) =>
                {
                    EscalationReason::Stalled
                }
                SolveOutcome::Faulted => EscalationReason::Faulted,
                SolveOutcome::Degraded => EscalationReason::Degraded,
                _ => EscalationReason::AboveTolerance,
            })
        };
        // Budget goals keep the attempt's own outcome (`MaxIterations` is a
        // clean finish, not a convergence claim).
        let outcome = if attempt_converged && matches!(goal, SessionGoal::Tolerance(_)) {
            SolveOutcome::Converged
        } else {
            run.outcome
        };

        if let (Some(trace), Some(tp)) = (trace.as_mut(), tp.as_mut()) {
            trace.absorb(tp.take_trace(), start_ns);
            trace.residual_history.push(ResidualSample { t_ns: now(), relres: rel });
            trace.residual_history.sort_by_key(|s| s.t_ns);
        }
        if let Some(trace) = trace.as_mut() {
            trace.attempts.push(AttemptRecord {
                index: attempt,
                rung: rung.name().into(),
                start_ns,
                elapsed_ns: run.elapsed.as_nanos() as u64,
                relres: rel,
                outcome: outcome_name(outcome).into(),
                escalation: escalation.map(|e| e.name().into()),
            });
        }
        attempts.push(AttemptReport {
            index: attempt,
            rung,
            relres: rel,
            outcome,
            corrections: run.corrects_mean,
            elapsed: run.elapsed,
            faults: run.faults,
            warm_start,
            escalation,
            sched_seed: seed,
        });

        if rel.is_finite() && rel < relres {
            x = xa;
            relres = rel;
        }
        if attempt_converged {
            converged = true;
            break;
        }
        if matches!(outcome, SolveOutcome::Faulted | SolveOutcome::Degraded) {
            fault_failures += 1;
        }
        rung_idx = (rung_idx + 1).min(ladder.len().saturating_sub(1));
    }

    // The session's answer is the best known state, checkpoint included.
    if let Some(c) = store.best() {
        if c.relres < relres {
            x = c.x;
            relres = c.relres;
        }
    }
    let outcome = if converged {
        match goal {
            SessionGoal::Tolerance(_) => SolveOutcome::Converged,
            // The goal-meeting attempt's own outcome (clean `MaxIterations`
            // stays visible to the caller).
            SessionGoal::Budget => attempts.last().map_or(SolveOutcome::Converged, |a| a.outcome),
        }
    } else if !relres.is_finite() {
        SolveOutcome::Faulted
    } else if attempts.iter().any(|a| !a.faults.is_empty()) {
        SolveOutcome::Degraded
    } else {
        SolveOutcome::MaxIterations
    };
    if let Some(trace) = trace.as_mut() {
        trace.checkpoints.sort_by_key(|c| c.t_ns);
    }
    Ok(SessionReport {
        x,
        relres,
        converged,
        outcome,
        checkpoints: store.stats(),
        attempts,
        elapsed: Duration::from_nanos(now()),
        deadline_exhausted,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{MgOptions, MgSetup};
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};

    fn setup_n(n: usize) -> MgSetup {
        let a = laplacian_7pt(n, n, n);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, MgOptions::default())
    }

    #[test]
    fn checkpoint_store_keeps_the_best() {
        let mut store = CheckpointStore::new();
        assert!(store.best().is_none());
        assert!(store.offer(&[1.0], 0.5, 0));
        assert!(!store.offer(&[2.0], 0.9, 0)); // worse: rejected
        assert!(!store.offer(&[3.0], f64::NAN, 1)); // non-finite: rejected
        assert!(store.offer(&[4.0], 0.1, 1));
        let best = store.best().unwrap();
        assert_eq!(best.x, vec![4.0]);
        assert_eq!(best.attempt, 1);
        store.mark_restored();
        let stats = store.stats();
        assert_eq!(
            stats,
            CheckpointStats {
                taken: 4,
                restored: 1,
                best_relres: Some(0.1),
                best_attempt: Some(1),
            }
        );
    }

    #[test]
    fn retry_policy_validates() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy { max_attempts: 0, ..Default::default() }.validate().is_err());
        assert!(RetryPolicy { deadline: Some(Duration::ZERO), ..Default::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn ladder_names_are_stable() {
        let names: Vec<_> = Rung::LADDER.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["async_atomic", "async_lock", "semi_async", "sync_mult", "pcg"]);
        assert!(Rung::AsyncAtomic.is_async());
        assert!(Rung::AsyncLock.is_async());
        assert!(!Rung::SemiAsync.is_async());
        assert_eq!(Rung::Sharded { shards: 4 }.name(), "sharded");
        assert!(!Rung::Sharded { shards: 4 }.is_async());
    }

    #[test]
    fn sharded_ladder_without_a_driver_is_rejected() {
        let s = setup_n(4);
        let b = random_rhs(s.n(), 14);
        let ladder = [Rung::Sharded { shards: 2 }, Rung::Pcg];
        let err =
            crate::Solver::new(&s).tolerance(1e-8).ladder(&ladder).try_resilient(&b).unwrap_err();
        assert_eq!(err, SessionError::MissingShardDriver);
        assert!(err.to_string().contains("shard driver"));
    }

    #[test]
    fn mix_decorrelates_attempts() {
        assert_eq!(mix(42, 0), mix(42, 0));
        assert_ne!(mix(42, 0), mix(42, 1));
        assert_ne!(mix(42, 0), mix(43, 0));
    }

    #[test]
    fn session_errors_display_and_chain() {
        let e = SessionError::NoTolerance;
        assert!(e.to_string().contains("tolerance"));
        let e = SessionError::Solve(SolveError::NonFiniteRhs { index: 3 });
        assert!(e.to_string().contains("entry 3"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&SessionError::NoTolerance).is_none());
    }

    #[test]
    fn clean_session_converges_on_first_attempt() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 11);
        let report = crate::Solver::new(&s).threads(2).t_max(500).tolerance(1e-8).resilient(&b);
        assert!(report.converged, "relres {}", report.relres);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.final_rung(), Some(Rung::AsyncAtomic));
        assert!(report.escalations().is_empty());
        assert!(report.relres <= 1e-8);
    }

    #[test]
    fn seeded_session_is_deterministic() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 12);
        let run = |seed| {
            crate::Solver::new(&s)
                .threads(3)
                .t_max(30)
                .tolerance(1e-6)
                .session_seed(seed)
                .resilient(&b)
        };
        let a = run(7);
        let c = run(7);
        assert_eq!(a.relres.to_bits(), c.relres.to_bits());
        assert_eq!(a.x.len(), c.x.len());
        for (u, v) in a.x.iter().zip(&c.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert_eq!(a.attempts.len(), c.attempts.len());
    }

    #[test]
    fn budget_goal_succeeds_without_a_tolerance() {
        let s = setup_n(5);
        let b = random_rhs(s.n(), 21);
        // No tolerance: `try_resilient` refuses, `try_fallback` runs a
        // budget-goal session and succeeds on the first clean attempt.
        let solver = crate::Solver::new(&s).threads(2).t_max(10).session_seed(3);
        assert_eq!(solver.try_resilient(&b).unwrap_err(), SessionError::NoTolerance);
        let report = solver.try_fallback(&b).unwrap();
        assert!(report.converged, "clean budget run must satisfy the goal");
        assert_eq!(report.attempts.len(), 1);
        assert!(report.relres.is_finite());
        // A clean full-budget finish is not a convergence claim.
        assert!(matches!(report.outcome, SolveOutcome::Converged | SolveOutcome::MaxIterations));
    }

    #[test]
    fn budget_goal_is_deterministic_when_seeded() {
        let s = setup_n(5);
        let b = random_rhs(s.n(), 22);
        let run =
            || crate::Solver::new(&s).threads(3).t_max(8).session_seed(9).try_fallback(&b).unwrap();
        let a = run();
        let c = run();
        assert_eq!(a.relres.to_bits(), c.relres.to_bits());
        for (u, v) in a.x.iter().zip(&c.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn ladder_reaches_pcg_when_budget_is_tiny() {
        // One correction per grid cannot reach 1e-10: the ladder must walk
        // all the way down and PCG (capped at max(t_max,100) iterations)
        // finishes the job.
        let s = setup_n(6);
        let b = random_rhs(s.n(), 13);
        let report = crate::Solver::new(&s)
            .threads(2)
            .t_max(1)
            .tolerance(1e-10)
            .session_seed(5)
            .resilient(&b);
        assert!(report.converged, "relres {}", report.relres);
        assert_eq!(report.final_rung(), Some(Rung::Pcg));
        assert!(report.attempts.len() >= 5);
        assert!(report.escalations().iter().all(|(_, r)| *r == EscalationReason::AboveTolerance));
        // Warm starts kicked in after the first checkpoint.
        assert!(report.checkpoints.restored >= 1);
        assert!(report.attempts.last().unwrap().warm_start);
    }
}
