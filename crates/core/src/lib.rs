//! Asynchronous multigrid methods — a Rust reproduction of
//! Wolfson-Pou & Chow, *Asynchronous Multigrid Methods*, IPDPS 2019.
//!
//! The crate offers these layers:
//!
//! * [`setup`] — [`setup::MgSetup`] bundles an AMG hierarchy (from
//!   `asyncmg-amg`) with smoothed interpolants and per-level smoothers,
//! * the multigrid chain (restrict → level-`k` correction → prolong) and
//!   the multiplicative V-cycle, each written once over a thread team
//!   (`chain.rs`); every solver below except the batched driver runs them,
//!   the sequential ones as a team of one,
//! * sequential solvers — [`mult::solve_mult_probed`] (the classical
//!   V-cycle, Algorithm 1), [`additive::solve_additive_probed`] (BPX,
//!   Multadd, AFACx, Section II) and the batched multi-RHS driver
//!   [`batch::solve_mult_batch`], all cycling allocation-free out of
//!   pre-sized workspaces,
//! * [`models`] — sequential simulations of the semi-async and full-async
//!   models (Section III, Equations 6, 7 and 10),
//! * [`asynchronous`] / [`parallel_mult`] — the shared-memory thread-team
//!   implementations (Section IV, Algorithm 5): global-res / local-res,
//!   lock-write / atomic-write, the residual-based `r-Multadd`, both stop
//!   criteria, and the synchronous threaded baselines — one entry point
//!   per family ([`solve_async`], [`solve_mult_threaded`]), each taking the
//!   scheduler / clock / fault plan it runs under as one [`ExecEnv`],
//! * [`solver`] — the unified [`Solver`] builder that dispatches to any of
//!   the above, with tolerance-based stopping and telemetry
//!   (`asyncmg-telemetry`) on every backend. Every solver above except the
//!   batched driver and the simulations reports one [`SolveReport`].
//!
//! # Quick start
//!
//! ```
//! use asyncmg_amg::{build_hierarchy, AmgOptions};
//! use asyncmg_core::{Method, MgOptions, MgSetup, Solver};
//! use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};
//!
//! let a = laplacian_7pt(8, 8, 8);
//! let b = random_rhs(a.nrows(), 0);
//! let setup = MgSetup::new(build_hierarchy(a, &AmgOptions::default()), MgOptions::default());
//! // Asynchronous Multadd on 4 threads until the relative residual is
//! // below 1e-8 (with up to 1000 corrections per grid as a cap), with a
//! // full telemetry trace.
//! let report = Solver::new(&setup)
//!     .method(Method::Multadd)
//!     .threads(4)
//!     .t_max(1000)
//!     .tolerance(1e-8)
//!     .with_trace()
//!     .run(&b);
//! // `converged` is schedule-independent: a tolerance stop is reported
//! // only once the exact residual of the quiescent iterate confirmed it.
//! assert!(report.converged);
//! let trace = report.trace.as_ref().unwrap();
//! assert_eq!(trace.grid_corrections(), report.grid_corrections);
//! ```

// Indexed loops over multiple parallel arrays are the house style for
// numerical kernels; the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod additive;
pub mod asynchronous;
pub mod batch;
mod chain;
pub mod error;
pub mod krylov;
pub mod models;
pub mod mult;
pub mod parallel_mult;
pub mod resilience;
pub mod setup;
pub mod solver;
pub mod workspace;

pub use additive::{grid_correction, solve_additive_probed, AdditiveMethod};
pub use asynchronous::{
    solve_async, AsyncOptions, RecoveryOptions, ResComp, SolveOutcome, StopCriterion, WriteMode,
};
pub use batch::{
    mult_vcycle_block, solve_mult_batch, solve_mult_batch_with, BatchResult, BatchSpec,
    BlockWorkspace,
};
pub use error::Error;
pub use krylov::{
    pcg, pcg_probed, AdditivePrec, IdentityPrec, JacobiPrec, Preconditioner, VCyclePrec,
};
pub use models::{simulate, simulate_mean, ModelKind, ModelOptions, ModelResult};
pub use mult::{coarse_correction, mult_vcycle, solve_mult_probed};
pub use parallel_mult::solve_mult_threaded;
pub use resilience::{
    AttemptReport, CheckpointStats, EscalationReason, RetryPolicy, Rung, SessionError, SessionGoal,
    SessionReport, ShardAttempt, ShardRungDriver,
};
pub use setup::{CoarseSolve, MgOptions, MgSetup};
pub use solver::{Method, SolveError, SolveReport, Solver, SolverConfig};
pub use workspace::Workspace;

// Re-exported so downstream users can name probes, fault plans and the
// wrapped error types without depending on the lower crates directly.
pub use asyncmg_amg::BuildError;
pub use asyncmg_sparse::CsrError;
pub use asyncmg_telemetry::{
    FaultKind, FaultRecord, NoopProbe, Phase, Probe, SolveTrace, TelemetryProbe,
};
pub use asyncmg_threads::{Clock, Corruption, ExecEnv, Fault, FaultPlan, OsClock, VirtualClock};
