//! The unified solver front-end.
//!
//! Every solver of this crate — the sequential V-cycle and additive methods,
//! the threaded synchronous baselines, and the asynchronous thread-team
//! solver — is reachable through one builder:
//!
//! ```
//! use asyncmg_amg::{build_hierarchy, AmgOptions};
//! use asyncmg_core::{Method, MgOptions, MgSetup, Solver};
//! use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
//!
//! let a = laplacian_7pt(8, 8, 8);
//! let b = random_rhs(a.nrows(), 0);
//! let setup = MgSetup::new(build_hierarchy(a, &AmgOptions::default()), MgOptions::default());
//! let report = Solver::new(&setup)
//!     .method(Method::Multadd)
//!     .threads(4)
//!     .t_max(1000)
//!     .tolerance(1e-8)
//!     .run(&b);
//! // `converged` is schedule-independent: an asynchronous run reports a
//! // tolerance stop only once the exact residual of the quiescent iterate
//! // confirmed it, and resumes otherwise.
//! assert!(report.converged);
//! assert!(report.outcome == asyncmg_core::SolveOutcome::Converged);
//! ```
//!
//! `threads(0)` selects the sequential backend, `threads(n)` with
//! [`Solver::sync`] the synchronous-threaded one, and `threads(n)` alone the
//! asynchronous solver of the paper. A [`Probe`] can observe any backend;
//! [`Solver::with_trace`] records a full [`SolveTrace`] without writing a
//! probe by hand. [`Solver::timeout`], [`Solver::recovery`] and
//! [`Solver::fault_plan`] configure the resilience layer of the
//! asynchronous backend; [`Solver::try_run`] validates inputs and options
//! up front, returning a typed [`SolveError`] instead of panicking.

use crate::additive::{solve_additive_probed, AdditiveMethod};
use crate::asynchronous::{
    solve_async, AsyncOptions, AsyncResult, RecoveryOptions, ResComp, SolveOutcome, StopCriterion,
    WriteMode,
};
use crate::mult::solve_mult_probed;
use crate::parallel_mult::solve_mult_threaded;
use crate::resilience::{
    run_session, RetryPolicy, Rung, SessionError, SessionReport, ShardRungDriver,
};
use crate::setup::MgSetup;
use asyncmg_telemetry::{FaultRecord, NoopProbe, Probe, SolveTrace, TelemetryProbe};
use asyncmg_threads::{Clock, ExecEnv, FaultPlan, Sched};
use std::time::Duration;

/// Which multigrid method the [`Solver`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// The classical multiplicative V(1,1)-cycle (Algorithm 1).
    Mult,
    /// The additive variant of Mult with smoothed interpolants (Eq. 2).
    Multadd,
    /// The asynchronous fast adaptive composite grid method (Algorithm 2).
    Afacx,
    /// Plain BPX (diverges as a solver; kept for study).
    Bpx,
}

impl Method {
    /// The additive method this maps to, or `None` for Mult.
    pub(crate) fn additive(self) -> Option<AdditiveMethod> {
        match self {
            Method::Mult => None,
            Method::Multadd => Some(AdditiveMethod::Multadd),
            Method::Afacx => Some(AdditiveMethod::Afacx),
            Method::Bpx => Some(AdditiveMethod::Bpx),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Mult => "Mult",
            Method::Multadd => "Multadd",
            Method::Afacx => "AFACx",
            Method::Bpx => "BPX",
        }
    }
}

/// The outcome of a [`Solver`] run, common to all backends.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The final approximation.
    pub x: Vec<f64>,
    /// Final relative residual 2-norm (recomputed exactly after the run).
    pub relres: f64,
    /// Whether the tolerance (if one was set) was reached: `relres` is
    /// below it.
    pub converged: bool,
    /// Corrections (or cycles) performed by each grid.
    pub grid_corrections: Vec<usize>,
    /// Mean corrections per grid (the paper's "Corrects" column).
    pub corrects_mean: f64,
    /// Per-cycle relative residual history, when the backend computes one
    /// (sequential backends always; threaded backends only when a tolerance
    /// or probe makes them check).
    pub history: Vec<f64>,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// How the solve ended (structured: converged, budget exhausted,
    /// degraded by faults, or faulted outright — never by hanging).
    pub outcome: SolveOutcome,
    /// Injected faults and recovery actions in time order (empty for
    /// fault-free runs).
    pub faults: Vec<FaultRecord>,
    /// The recorded telemetry, when [`Solver::with_trace`] was used.
    pub trace: Option<SolveTrace>,
}

/// A validation failure detected by [`Solver::try_run`] before any solve
/// work starts.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The right-hand side length does not match the fine-grid dimension.
    RhsLength {
        /// Fine-grid dimension.
        expected: usize,
        /// Supplied rhs length.
        got: usize,
    },
    /// The right-hand side contains a non-finite entry.
    NonFiniteRhs {
        /// Index of the first offending entry.
        index: usize,
    },
    /// An option is out of range (description of the first violation).
    InvalidOptions(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::RhsLength { expected, got } => {
                write!(f, "rhs has {got} entries but the fine grid has {expected}")
            }
            SolveError::NonFiniteRhs { index } => write!(f, "rhs entry {index} is not finite"),
            SolveError::InvalidOptions(msg) => write!(f, "invalid solver options: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A read-only snapshot of the scalar knobs of a [`Solver`], for extension
/// layers that build on the builder from outside this crate (the sharded
/// execution model of `asyncmg-shard` reads one to seed its own options).
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SolverConfig {
    /// Selected multigrid method.
    pub method: Method,
    /// Configured thread count (`0` = sequential).
    pub threads: usize,
    /// Correction / cycle budget.
    pub t_max: usize,
    /// Tolerance, when one was set.
    pub tolerance: Option<f64>,
}

/// Builder-style front-end over all solvers in this crate.
///
/// Defaults: [`Method::Multadd`], 4 threads, 20 corrections per grid, no
/// tolerance (fixed correction count), local-res, lock-write, asynchronous
/// execution, no telemetry.
#[derive(Clone, Copy)]
pub struct Solver<'a> {
    pub(crate) setup: &'a MgSetup,
    pub(crate) method: Method,
    pub(crate) threads: usize,
    pub(crate) t_max: usize,
    pub(crate) tolerance: Option<f64>,
    pub(crate) res_comp: ResComp,
    pub(crate) write: WriteMode,
    pub(crate) criterion: StopCriterion,
    pub(crate) sync: bool,
    pub(crate) recovery: RecoveryOptions,
    pub(crate) env: ExecEnv<'a>,
    pub(crate) probe: Option<&'a dyn Probe>,
    pub(crate) collect_trace: bool,
    pub(crate) retry: RetryPolicy,
    pub(crate) session_seed: Option<u64>,
    pub(crate) ladder: &'a [Rung],
    pub(crate) shard_driver: Option<&'a dyn ShardRungDriver>,
}

impl<'a> Solver<'a> {
    /// A solver over `setup` with the default configuration.
    pub fn new(setup: &'a MgSetup) -> Self {
        let defaults = AsyncOptions::default();
        Solver {
            setup,
            method: Method::Multadd,
            threads: defaults.n_threads,
            t_max: defaults.t_max,
            tolerance: None,
            res_comp: defaults.res_comp,
            write: defaults.write,
            criterion: defaults.criterion,
            sync: defaults.sync,
            recovery: defaults.recovery,
            env: ExecEnv::default(),
            probe: None,
            collect_trace: false,
            retry: RetryPolicy::default(),
            session_seed: None,
            ladder: &Rung::LADDER,
            shard_driver: None,
        }
    }

    /// The setup this solver was built over, with the builder's lifetime
    /// (extension-layer hook: lets `asyncmg-shard` re-target the same
    /// hierarchy).
    pub fn setup_ref(&self) -> &'a MgSetup {
        self.setup
    }

    /// Snapshot of the scalar configuration (extension-layer hook).
    pub fn config(&self) -> SolverConfig {
        SolverConfig {
            method: self.method,
            threads: self.threads,
            t_max: self.t_max,
            tolerance: self.tolerance,
        }
    }

    /// The execution environment — scheduler, clock, fault plan — every
    /// threaded backend runs under (extension-layer hook: a
    /// `.sharded(n)` solve inherits it whole).
    pub fn env(&self) -> ExecEnv<'a> {
        self.env
    }

    /// Selects the multigrid method.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Number of threads; `0` selects the sequential backend.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Maximum corrections per grid (cycles). Always enforced, also under a
    /// tolerance.
    pub fn t_max(mut self, t_max: usize) -> Self {
        self.t_max = t_max;
        self
    }

    /// Stop when the relative residual drops below `relres` (capped by
    /// [`Solver::t_max`]). Asynchronous teams check their own residual view
    /// every round; a stop is reported only after the exact residual of the
    /// quiescent iterate confirmed it (see [`StopCriterion::Tolerance`]).
    pub fn tolerance(mut self, relres: f64) -> Self {
        self.tolerance = Some(relres);
        self
    }

    /// Residual computation flavour for the asynchronous backend.
    pub fn res_comp(mut self, res_comp: ResComp) -> Self {
        self.res_comp = res_comp;
        self
    }

    /// Shared-write flavour for the asynchronous backend.
    pub fn write_mode(mut self, write: WriteMode) -> Self {
        self.write = write;
        self
    }

    /// Stop criterion for the asynchronous backend when *no* tolerance is
    /// set (a tolerance always selects [`StopCriterion::Tolerance`]).
    pub fn criterion(mut self, criterion: StopCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Execute the additive methods synchronously (global barrier and
    /// residual recomputation every cycle).
    pub fn sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    /// Hard wall-clock budget for the asynchronous backend: on expiry the
    /// watchdog stops all teams and the report's outcome is
    /// [`SolveOutcome::Faulted`]. Shorthand for setting
    /// [`RecoveryOptions::max_wall`].
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.recovery.max_wall = Some(budget);
        self
    }

    /// Full detection-and-recovery configuration for the asynchronous
    /// backend. Replaces anything set through [`Solver::timeout`].
    pub fn recovery(mut self, recovery: RecoveryOptions) -> Self {
        self.recovery = recovery;
        self
    }

    /// Injects a seeded deterministic [`FaultPlan`] into the asynchronous
    /// backend (resilience testing). Requires asynchronous execution; the
    /// injected faults and any recovery actions appear in
    /// [`SolveReport::faults`].
    pub fn fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.env.plan = Some(plan);
        self
    }

    /// Runs the threaded backends under `sched` instead of a fresh
    /// [`OsSched`](asyncmg_threads::OsSched) — a seeded
    /// [`VirtualSched`](asyncmg_threads::VirtualSched) makes a run
    /// bit-reproducible, tolerance-stopped ones included. A second `run`
    /// on the same scheduler continues its decision stream rather than
    /// replaying it, so hand each run you want to compare a fresh one; the
    /// sequential backends have no workers to schedule and resilient
    /// sessions derive one scheduler per attempt from
    /// [`Solver::session_seed`], so both ignore this.
    pub fn sched(mut self, sched: &'a dyn Sched) -> Self {
        self.env.sched = Some(sched);
        self
    }

    /// Observes the run with a caller-owned [`Probe`].
    pub fn probe(mut self, probe: &'a dyn Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Records telemetry internally and attaches the [`SolveTrace`] to the
    /// report. Overrides [`Solver::probe`].
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Retry budget of a resilient session ([`Solver::resilient`]):
    /// attempt cap, backoff, and overall deadline.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Makes a resilient session deterministic: attempt `a` runs under a
    /// `VirtualSched` seeded from `(seed, a)` with count-based stopping,
    /// so the whole session — escalations, warm starts and final bits —
    /// replays identically for the same seed.
    pub fn session_seed(mut self, seed: u64) -> Self {
        self.session_seed = Some(seed);
        self
    }

    /// The clock of every solve built from this solver: `Solver::run` and
    /// a `.sharded(n)` solve hand it to the watchdog / failure detector, a
    /// resilient session also reads it for backoff, deadline and checkpoint
    /// timestamps. A [`VirtualClock`](asyncmg_threads::VirtualClock) makes
    /// every timeout path deterministic and sleep-free.
    pub fn clock(mut self, clock: &'a dyn Clock) -> Self {
        self.env.clock = Some(clock);
        self
    }

    /// Replaces the degradation ladder of [`Solver::resilient`] (escalation
    /// walks the slice left to right and stays on the last rung). An empty
    /// slice selects the default [`Rung::LADDER`].
    pub fn ladder(mut self, ladder: &'a [Rung]) -> Self {
        self.ladder = ladder;
        self
    }

    /// Installs the driver that executes [`Rung::Sharded`] ladder rungs
    /// (`asyncmg-shard` provides one). Required before a resilient session
    /// whose ladder contains a sharded rung.
    pub fn shard_driver(mut self, driver: &'a dyn ShardRungDriver) -> Self {
        self.shard_driver = Some(driver);
        self
    }

    /// Runs a resilient session: checkpoint/rollback, retry with backoff,
    /// and the automatic degradation ladder, until the tolerance is met or
    /// the [`RetryPolicy`] is exhausted. Requires [`Solver::tolerance`].
    ///
    /// # Panics
    ///
    /// On invalid configuration; use [`Solver::try_resilient`] for a typed
    /// error.
    pub fn resilient(&self, b: &[f64]) -> SessionReport {
        match self.try_resilient(b) {
            Ok(report) => report,
            Err(e) => panic!("resilient session failed to start: {e}"),
        }
    }

    /// [`Solver::resilient`] with up-front validation instead of panicking.
    pub fn try_resilient(&self, b: &[f64]) -> Result<SessionReport, SessionError> {
        run_session(self, b)
    }

    /// Runs a resilient session toward whatever goal this solver has: the
    /// configured [`Solver::tolerance`], or — unlike
    /// [`Solver::try_resilient`], which rejects tolerance-free solvers —
    /// [`SessionGoal::Budget`](crate::resilience::SessionGoal::Budget) when
    /// none is set (succeed on the first attempt that runs its budget
    /// cleanly). This is the rescue entry point the solver service uses for
    /// sick batch columns, whose requests may not carry a tolerance.
    pub fn try_fallback(&self, b: &[f64]) -> Result<SessionReport, SessionError> {
        let goal = self.tolerance.map_or(
            crate::resilience::SessionGoal::Budget,
            crate::resilience::SessionGoal::Tolerance,
        );
        crate::resilience::run_session_goal(self, b, goal)
    }

    /// The [`AsyncOptions`] this builder resolves to for the threaded
    /// additive backends.
    fn async_options(&self, method: AdditiveMethod) -> AsyncOptions {
        let criterion = match self.tolerance {
            Some(relres) => StopCriterion::Tolerance { relres },
            None => self.criterion,
        };
        AsyncOptions {
            method,
            res_comp: self.res_comp,
            write: self.write,
            t_max: self.t_max,
            n_threads: self.threads,
            sync: self.sync,
            criterion,
            recovery: self.recovery,
        }
    }

    /// Validates the right-hand side and every configured option without
    /// running anything (the checks behind [`Solver::try_run`] and
    /// [`Solver::try_resilient`]).
    pub(crate) fn validate(&self, b: &[f64]) -> Result<(), SolveError> {
        let n = self.setup.n();
        if b.len() != n {
            return Err(SolveError::RhsLength { expected: n, got: b.len() });
        }
        if let Some(index) = b.iter().position(|v| !v.is_finite()) {
            return Err(SolveError::NonFiniteRhs { index });
        }
        if self.t_max == 0 {
            return Err(SolveError::InvalidOptions("t_max must be positive".into()));
        }
        if let Some(t) = self.tolerance {
            if !(t.is_finite() && t > 0.0) {
                return Err(SolveError::InvalidOptions(format!(
                    "tolerance {t} must be finite and positive"
                )));
            }
        }
        if self.env.plan.is_some_and(|p| !p.is_empty()) && (self.sync || self.threads == 0) {
            return Err(SolveError::InvalidOptions(
                "fault injection requires the asynchronous threaded backend".into(),
            ));
        }
        if self.threads > 0 {
            let method = self.method.additive().unwrap_or(AdditiveMethod::Multadd);
            self.async_options(method).validate().map_err(SolveError::InvalidOptions)?;
        } else {
            self.recovery.validate().map_err(SolveError::InvalidOptions)?;
        }
        Ok(())
    }

    /// [`Solver::run`] with up-front validation: the right-hand side and
    /// every configured option are checked before any thread is spawned,
    /// returning a typed [`SolveError`] instead of panicking mid-solve.
    pub fn try_run(&self, b: &[f64]) -> Result<SolveReport, SolveError> {
        self.validate(b)?;
        // Not in `validate`: a session runs Mult as Multadd on its async
        // rungs and honours the plan there; here a crashed rank would hang.
        if self.method == Method::Mult && self.env.plan.is_some_and(|p| !p.is_empty()) {
            return Err(SolveError::InvalidOptions(
                "fault injection requires Multadd/AFACx".into(),
            ));
        }
        Ok(self.run(b))
    }

    /// Runs the configured solver on `b`.
    pub fn run(&self, b: &[f64]) -> SolveReport {
        if self.collect_trace {
            // One ring per worker thread; residual samples go through the
            // probe's mutex, not a ring.
            let mut probe = TelemetryProbe::with_threads(self.threads.max(1));
            let mut report = self.run_with(b, &probe);
            report.trace = Some(probe.take_trace());
            report
        } else if let Some(probe) = self.probe {
            self.run_with(b, &probe)
        } else {
            self.run_with(b, &NoopProbe)
        }
    }

    /// Runs with an explicit probe (monomorphised per probe type).
    fn run_with<P: Probe + ?Sized>(&self, b: &[f64], probe: &P) -> SolveReport {
        match (self.threads, self.method.additive()) {
            (0, None) => {
                let start = std::time::Instant::now();
                let res = solve_mult_probed(self.setup, b, self.t_max, self.tolerance, probe);
                sequential_report(res, start.elapsed(), 1, self.tolerance)
            }
            (0, Some(method)) => {
                let start = std::time::Instant::now();
                let res =
                    solve_additive_probed(self.setup, method, b, self.t_max, self.tolerance, probe);
                sequential_report(res, start.elapsed(), self.setup.n_levels(), self.tolerance)
            }
            (threads, None) => {
                let res = solve_mult_threaded(
                    self.setup,
                    b,
                    threads,
                    self.t_max,
                    self.tolerance,
                    probe,
                    self.env,
                );
                threaded_report(res, self.tolerance)
            }
            (_, Some(method)) => {
                let opts = self.async_options(method);
                let res = solve_async(self.setup, b, &opts, probe, self.env);
                threaded_report(res, self.tolerance)
            }
        }
    }
}

/// Report for the sequential backends: the cycle count is the history
/// length, identical on every grid, and the per-cycle tolerance check is
/// exact (no racy reads), so `relres < tol` is authoritative.
fn sequential_report(
    res: crate::additive::SolveResult,
    elapsed: Duration,
    n_grids: usize,
    tolerance: Option<f64>,
) -> SolveReport {
    let cycles = res.history.len();
    let relres = res.final_relres();
    SolveReport {
        x: res.x,
        relres,
        converged: tolerance.is_none_or(|t| relres < t),
        grid_corrections: vec![cycles; n_grids],
        corrects_mean: cycles as f64,
        history: res.history,
        elapsed,
        outcome: SolveOutcome::classify(relres, tolerance, &[]),
        faults: Vec::new(),
        trace: None,
    }
}

/// Report for the threaded backends, whose outcome the backend already
/// classified: `converged` is an exact final residual below the target.
fn threaded_report(res: AsyncResult, tolerance: Option<f64>) -> SolveReport {
    SolveReport {
        converged: tolerance.is_none_or(|t| res.relres < t),
        x: res.x,
        relres: res.relres,
        grid_corrections: res.grid_corrections,
        corrects_mean: res.corrects_mean,
        history: Vec::new(),
        elapsed: res.elapsed,
        outcome: res.outcome,
        faults: res.faults,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::MgOptions;
    use asyncmg_amg::{build_hierarchy, AmgOptions};
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};

    fn setup_n(n: usize) -> MgSetup {
        let a = laplacian_7pt(n, n, n);
        let h = build_hierarchy(a, &AmgOptions::default());
        MgSetup::new(h, MgOptions::default())
    }

    #[test]
    fn sequential_mult_through_builder() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 1);
        let report = Solver::new(&s).method(Method::Mult).threads(0).t_max(20).run(&b);
        assert!(report.relres < 1e-5, "relres {}", report.relres);
        assert_eq!(report.history.len(), 20);
        assert_eq!(report.grid_corrections, vec![20]);
    }

    #[test]
    fn sequential_tolerance_stops_early() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 2);
        let report =
            Solver::new(&s).method(Method::Mult).threads(0).t_max(100).tolerance(1e-6).run(&b);
        assert!(report.converged);
        assert!(report.relres < 1e-6);
        assert!(report.history.len() < 100, "stopped after {} cycles", report.history.len());
    }

    #[test]
    fn async_multadd_through_builder() {
        // The reached accuracy depends on the interleaving, so it is asserted
        // under seeded schedules rather than the OS scheduler.
        let s = setup_n(6);
        let b = random_rhs(s.n(), 3);
        for seed in 0..4 {
            let sched = asyncmg_threads::VirtualSched::new(seed);
            let report =
                Solver::new(&s).method(Method::Multadd).threads(4).t_max(40).sched(&sched).run(&b);
            assert!(report.relres < 1e-2, "seed {seed}: relres {}", report.relres);
            assert!(report.grid_corrections.iter().all(|&c| c == 40), "seed {seed}");
        }
    }

    #[test]
    fn trace_collection_matches_counters() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 4);
        let report =
            Solver::new(&s).method(Method::Multadd).threads(4).t_max(10).with_trace().run(&b);
        let trace = report.trace.expect("with_trace attaches a trace");
        assert_eq!(trace.grid_corrections(), report.grid_corrections);
        assert!(!trace.residual_history.is_empty());
    }

    #[test]
    fn threaded_mult_through_builder() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 5);
        let report = Solver::new(&s).method(Method::Mult).threads(4).t_max(20).run(&b);
        assert!(report.relres < 1e-5, "relres {}", report.relres);
    }

    #[test]
    fn try_run_validates_inputs() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 6);

        let short = vec![1.0; s.n() - 1];
        assert!(matches!(
            Solver::new(&s).try_run(&short),
            Err(SolveError::RhsLength { got, .. }) if got == s.n() - 1
        ));

        let mut poisoned = b.clone();
        poisoned[3] = f64::NAN;
        assert_eq!(
            Solver::new(&s).try_run(&poisoned).err(),
            Some(SolveError::NonFiniteRhs { index: 3 })
        );

        assert!(matches!(
            Solver::new(&s).tolerance(-1.0).try_run(&b),
            Err(SolveError::InvalidOptions(_))
        ));
        assert!(matches!(Solver::new(&s).t_max(0).try_run(&b), Err(SolveError::InvalidOptions(_))));

        let plan = asyncmg_threads::FaultPlan::new(1)
            .with(asyncmg_threads::Fault::Crash { team: 0, at_round: 0 });
        assert!(matches!(
            Solver::new(&s).sync(true).fault_plan(&plan).try_run(&b),
            Err(SolveError::InvalidOptions(_))
        ));
        // Threaded Mult is barriered end to end: a crashed rank would hang
        // it, so the plan is rejected rather than silently ignored.
        assert!(matches!(
            Solver::new(&s).method(Method::Mult).threads(4).fault_plan(&plan).try_run(&b),
            Err(SolveError::InvalidOptions(_))
        ));
        // ... by `try_run` only: a session honours it on its Multadd rungs.
        let mult = Solver::new(&s).method(Method::Mult).threads(4).fault_plan(&plan);
        assert_eq!(mult.validate(&b), Ok(()));

        let bad = RecoveryOptions { damping: -1.0, ..Default::default() };
        assert!(matches!(
            Solver::new(&s).recovery(bad).try_run(&b),
            Err(SolveError::InvalidOptions(_))
        ));
    }

    #[test]
    fn try_run_solves_valid_input() {
        let s = setup_n(6);
        let b = random_rhs(s.n(), 7);
        let report = Solver::new(&s)
            .method(Method::Multadd)
            .threads(4)
            .t_max(500)
            .tolerance(1e-6)
            .timeout(Duration::from_secs(60))
            .try_run(&b)
            .expect("valid configuration");
        assert!(report.converged);
        assert_eq!(report.outcome, SolveOutcome::Converged);
        assert!(report.faults.is_empty());
    }

    #[test]
    fn fault_plan_through_builder_degrades_report() {
        use asyncmg_threads::{Corruption, Fault, FaultPlan};
        let s = setup_n(6);
        let b = random_rhs(s.n(), 8);
        let plan = FaultPlan::new(9).with(Fault::CorruptWrite {
            grid: 0,
            at_round: 1,
            kind: Corruption::Nan,
        });
        let report = Solver::new(&s)
            .method(Method::Multadd)
            .threads(4)
            .t_max(20)
            .recovery(RecoveryOptions::defended())
            .fault_plan(&plan)
            .run(&b);
        assert_eq!(report.outcome, SolveOutcome::Degraded);
        assert!(!report.faults.is_empty());
        assert!(report.relres.is_finite());
    }

    #[test]
    fn model_options_validate_ranges() {
        use crate::models::ModelOptions;
        assert!(ModelOptions::default().validate().is_ok());
        assert!(ModelOptions { alpha: 0.0, ..Default::default() }.validate().is_err());
        assert!(ModelOptions { alpha: f64::NAN, ..Default::default() }.validate().is_err());
        assert!(ModelOptions { updates_per_grid: 0, ..Default::default() }.validate().is_err());
    }
}
