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
//! [`FaultPlan`](asyncmg_threads::FaultPlan) injects stragglers, permanent
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
use asyncmg_telemetry::{FaultKind, FaultRecord};
use std::time::Duration;

mod launch;
#[cfg(test)]
mod tests;
mod worker;

pub use launch::solve_async;

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
