//! Solver telemetry for the asyncmg workspace.
//!
//! The asynchronous solvers of the paper run "blind": stop criteria count
//! corrections and the relative residual is only recomputed after the run.
//! This crate adds the observability layer needed to see *inside* a solve —
//! convergence trajectories, per-grid progress skew, and where wall-clock
//! time goes (the data behind the paper's Figures 4–6):
//!
//! * [`Probe`] — the hook trait solvers call on the hot path. The default
//!   implementation of every method is an empty `#[inline]` body, so the
//!   [`NoopProbe`] compiles to nothing measurable; solvers are generic over
//!   `P: Probe` and monomorphise the no-op away.
//! * [`EventRing`] — a fixed-capacity, single-writer ring buffer. Each
//!   solver thread records into its own ring: no allocation and no locking
//!   on the hot path, merged once after the run.
//! * [`TelemetryProbe`] — the recording probe: one ring per thread, exact
//!   per-grid correction counters, and a low-rate global residual trace fed
//!   by the solver's team masters and cycle ends.
//! * [`SolveTrace`] — the merged result (residual history, per-grid
//!   correction timelines, phase-time breakdown) with JSON export
//!   (`docs/telemetry.md` describes the schema).

pub mod recorder;
pub mod ring;
pub mod service;
pub mod trace;

pub use recorder::TelemetryProbe;
pub use ring::EventRing;
pub use service::{CacheEvent, ServiceEvent, ServiceStats};
pub use trace::{
    AttemptRecord, CheckpointRecord, CorrectionRecord, GridTimeline, PhaseTotal, ReductionRecord,
    ResidualSample, ShardMessageStats, SolveTrace,
};

/// What happened in one fault event — an *injected* failure (from a
/// `FaultPlan`) or a *recovery* action the runtime took in response.
///
/// Grid ids are hierarchy level indices; worker/team ids follow the
/// solver's `GridTeamLayout`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Injected: a worker was stalled for `steps` scheduler yields.
    Straggler { worker: u32, steps: u32 },
    /// Injected: grid team `team` stopped making progress permanently.
    TeamCrash { team: u32 },
    /// Injected: a correction write on `grid` was corrupted before the
    /// guard saw it.
    WriteCorrupted { grid: u32 },
    /// Injected: a correction write on `grid` was dropped entirely.
    WriteDropped { grid: u32 },
    /// Recovery: the non-finite/magnitude guard rejected a correction on
    /// `grid` (the write was suppressed).
    GuardTripped { grid: u32 },
    /// Recovery: `grid` accumulated enough strikes that its corrections
    /// are now additively damped.
    Damped { grid: u32 },
    /// Recovery: `grid` was quarantined — its corrections are no longer
    /// applied to the shared iterate.
    Quarantined { grid: u32 },
    /// Recovery: the watchdog saw no heartbeat from `grid` within the
    /// configured stall window.
    Stalled { grid: u32 },
    /// Recovery: divergence detected; the iterate was rolled back to the
    /// last known-good snapshot.
    Rollback,
    /// Recovery: the hard wall-clock timeout fired and stopped the solve.
    Timeout,
    /// Recovery: the sharded hub's failure detector declared shard `shard`
    /// dead (bounded silence in epochs or clock time, or retransmit
    /// exhaustion).
    ShardDeclaredDead { shard: u32 },
    /// Recovery: a dead shard's row range was adopted — shard `from`'s rows
    /// now belong to surviving shard `to`.
    RowsAdopted { from: u32, to: u32 },
}

impl FaultKind {
    /// Stable lowercase name (used in the JSON schema).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::TeamCrash { .. } => "team_crash",
            FaultKind::WriteCorrupted { .. } => "write_corrupted",
            FaultKind::WriteDropped { .. } => "write_dropped",
            FaultKind::GuardTripped { .. } => "guard_tripped",
            FaultKind::Damped { .. } => "damped",
            FaultKind::Quarantined { .. } => "quarantined",
            FaultKind::Stalled { .. } => "stalled",
            FaultKind::Rollback => "rollback",
            FaultKind::Timeout => "timeout",
            FaultKind::ShardDeclaredDead { .. } => "shard_declared_dead",
            FaultKind::RowsAdopted { .. } => "rows_adopted",
        }
    }

    /// The grid (level) this fault concerns, when it concerns one.
    pub fn grid(self) -> Option<u32> {
        match self {
            FaultKind::WriteCorrupted { grid }
            | FaultKind::WriteDropped { grid }
            | FaultKind::GuardTripped { grid }
            | FaultKind::Damped { grid }
            | FaultKind::Quarantined { grid }
            | FaultKind::Stalled { grid } => Some(grid),
            _ => None,
        }
    }
}

/// One entry of a solve's fault log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRecord {
    /// Nanoseconds since the solve epoch.
    pub t_ns: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// The instrumented phases of one grid correction (Algorithm 5), plus the
/// timed stages of the hierarchy setup.
///
/// Setup events use the hierarchy *level being built* as their `grid`
/// argument, so a trace shows where each level's build time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Restriction of the residual down to the grid's level.
    Restrict,
    /// The level-`k` smoothing / Λ application (or coarse solve).
    Smooth,
    /// Prolongation of the correction back to the fine grid.
    Prolong,
    /// The racy `x += e` write (lock-write or atomic-write).
    SharedWrite,
    /// Local/global/residual-based refresh of the fine-grid residual.
    ResidualUpdate,
    /// Setup: strength-of-connection graph and C/F coarsening of one level.
    SetupStrength,
    /// Setup: interpolation operator construction (including smoothing of
    /// the interpolant when enabled).
    SetupInterp,
    /// Setup: the Galerkin product `Pᵀ A P` and restriction transpose.
    SetupRap,
    /// Resilience: a checkpoint snapshot of the shared iterate (watchdog
    /// cadence or quarantine-triggered).
    Checkpoint,
}

impl Phase {
    /// All phases: the solve pipeline in order, then the setup stages, then
    /// the resilience snapshots.
    pub const ALL: [Phase; 9] = [
        Phase::Restrict,
        Phase::Smooth,
        Phase::Prolong,
        Phase::SharedWrite,
        Phase::ResidualUpdate,
        Phase::SetupStrength,
        Phase::SetupInterp,
        Phase::SetupRap,
        Phase::Checkpoint,
    ];

    /// Stable lowercase name (used in the JSON schema).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Restrict => "restrict",
            Phase::Smooth => "smooth",
            Phase::Prolong => "prolong",
            Phase::SharedWrite => "shared_write",
            Phase::ResidualUpdate => "residual_update",
            Phase::SetupStrength => "setup_strength",
            Phase::SetupInterp => "setup_interp",
            Phase::SetupRap => "setup_rap",
            Phase::Checkpoint => "checkpoint",
        }
    }

    /// Dense index into [`Phase::ALL`].
    pub fn index(self) -> usize {
        match self {
            Phase::Restrict => 0,
            Phase::Smooth => 1,
            Phase::Prolong => 2,
            Phase::SharedWrite => 3,
            Phase::ResidualUpdate => 4,
            Phase::SetupStrength => 5,
            Phase::SetupInterp => 6,
            Phase::SetupRap => 7,
            Phase::Checkpoint => 8,
        }
    }
}

/// One recorded solver event.
///
/// Timestamps are nanoseconds since the solve's epoch (the caller owns the
/// clock; probes only record).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// Grid `grid` finished its `index`-th correction at `t_ns`.
    /// `local_res` is the team-local residual norm when cheaply available,
    /// `NaN` otherwise.
    Correction { grid: u32, index: u32, t_ns: u64, local_res: f64 },
    /// One timed phase of a correction.
    Phase { grid: u32, phase: Phase, start_ns: u64, dur_ns: u64 },
}

/// Solver-side telemetry hooks.
///
/// Implementations must be cheap and thread-safe: solvers call these from
/// every worker thread. The `thread` argument is the caller's global rank,
/// which recording probes use to pick a single-writer ring — callers must
/// pass their own rank and nothing else.
pub trait Probe: Sync {
    /// Whether events will be recorded. Solvers use this to skip timestamp
    /// acquisition entirely; with [`NoopProbe`] the branch constant-folds
    /// to `false` and disappears.
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    /// A grid finished a correction.
    #[inline(always)]
    fn correction(&self, _thread: usize, _grid: usize, _index: usize, _t_ns: u64, _local_res: f64) {
    }

    /// A timed phase of a correction completed.
    #[inline(always)]
    fn phase(&self, _thread: usize, _grid: usize, _phase: Phase, _start_ns: u64, _dur_ns: u64) {}

    /// A relative residual was observed: a team master's own view at a
    /// round end of a tolerance-stopped asynchronous solve, the exact value
    /// at a synchronous cycle end and after every asynchronous launch. Only
    /// the latter are confirmed: a view below the tolerance may be followed
    /// by a higher exact sample and a resumed launch.
    #[inline(always)]
    fn residual_sample(&self, _t_ns: u64, _relres: f64) {}

    /// A fault was injected or a recovery action taken. Cold path: faults
    /// are rare by construction, so recording probes may lock here.
    #[inline(always)]
    fn fault(&self, _t_ns: u64, _kind: FaultKind) {}

    /// A resilience checkpoint was taken (`restored == false`) or the
    /// iterate was restored from one (`restored == true`). Cold path, like
    /// [`Probe::fault`]: checkpoints happen at watchdog cadence, not in the
    /// correction hot loop.
    #[inline(always)]
    fn checkpoint(&self, _t_ns: u64, _attempt: u32, _relres: f64, _restored: bool) {}
}

/// The default probe: records nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

impl<P: Probe + ?Sized> Probe for &P {
    #[inline(always)]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline(always)]
    fn correction(&self, thread: usize, grid: usize, index: usize, t_ns: u64, local_res: f64) {
        (**self).correction(thread, grid, index, t_ns, local_res);
    }

    #[inline(always)]
    fn phase(&self, thread: usize, grid: usize, phase: Phase, start_ns: u64, dur_ns: u64) {
        (**self).phase(thread, grid, phase, start_ns, dur_ns);
    }

    #[inline(always)]
    fn residual_sample(&self, t_ns: u64, relres: f64) {
        (**self).residual_sample(t_ns, relres);
    }

    #[inline(always)]
    fn fault(&self, t_ns: u64, kind: FaultKind) {
        (**self).fault(t_ns, kind);
    }

    #[inline(always)]
    fn checkpoint(&self, t_ns: u64, attempt: u32, relres: f64, restored: bool) {
        (**self).checkpoint(t_ns, attempt, relres, restored);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_disabled() {
        assert!(!NoopProbe.enabled());
        // And usable through the blanket reference impl / dyn dispatch.
        let p: &dyn Probe = &NoopProbe;
        assert!(!Probe::enabled(&p));
        p.correction(0, 0, 0, 0, f64::NAN);
        p.phase(0, 0, Phase::Smooth, 0, 1);
        p.residual_sample(0, 1.0);
        p.fault(0, FaultKind::Timeout);
        p.checkpoint(0, 0, 1.0, false);
    }

    #[test]
    fn fault_kind_names_and_grids() {
        assert_eq!(FaultKind::Quarantined { grid: 3 }.name(), "quarantined");
        assert_eq!(FaultKind::Quarantined { grid: 3 }.grid(), Some(3));
        assert_eq!(FaultKind::Timeout.grid(), None);
        // The sharded recovery events are shard-scoped rather than grid-scoped.
        assert_eq!(FaultKind::ShardDeclaredDead { shard: 2 }.name(), "shard_declared_dead");
        assert_eq!(FaultKind::RowsAdopted { from: 2, to: 1 }.name(), "rows_adopted");
        assert_eq!(FaultKind::ShardDeclaredDead { shard: 2 }.grid(), None);
        assert_eq!(FaultKind::RowsAdopted { from: 2, to: 1 }.grid(), None);
    }

    #[test]
    fn phase_indices_match_all() {
        for (i, ph) in Phase::ALL.iter().enumerate() {
            assert_eq!(ph.index(), i);
        }
    }
}
