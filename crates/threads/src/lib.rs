//! Thread teams, barriers and static loop partitioning.
//!
//! The paper implements asynchronous multigrid in OpenMP: every grid `k` of
//! the hierarchy owns a subset of threads, operations inside a grid are
//! OpenMP `parallel for` loops over that subset with static scheduling, and
//! *only* the threads of one grid synchronise with each other (the blue
//! `Sync()` calls of Figure 3). This crate provides the equivalent runtime:
//!
//! * [`SpinBarrier`] — a sense-reversing barrier used for both team-local and
//!   global synchronisation points,
//! * [`chunk_range`] — OpenMP-style static partitioning of an iteration
//!   space,
//! * [`partition`] — work-proportional assignment of threads to grids
//!   (Section IV: "threads are distributed among the grids to balance the
//!   amount of work"),
//! * [`TeamCtx`] / [`run_teams`] — a fork-join entry point that launches one
//!   OS thread per team member and hands each a context describing its team,
//! * [`RacyVec`] — a shared `f64` buffer written in disjoint ranges between
//!   barriers (team-local vectors of Algorithm 5),
//! * [`RacyBuf`] — its generic sibling for index/value arrays filled at
//!   disjoint positions by the parallel setup-phase kernels,
//! * [`SpinLock`] — the raw lock behind the paper's lock-write option,
//! * [`SpscRing`] — a bounded lock-free single-producer/single-consumer
//!   ring, the per-rank-pair wire of the sharded message-passing transport,
//! * [`Sched`] / [`OsSched`] / [`VirtualSched`] — the schedule abstraction:
//!   every point where a team worker touches real concurrency goes through
//!   a [`Sched`], so the same solver code runs under the production
//!   scheduler or under a deterministic seeded one for testing
//!   ([`run_teams_sched`]),
//! * [`ExecEnv`] — the `{ sched, clock, plan }` parameter object every
//!   threaded solver entry point takes (`default()` = production),
//! * [`FaultPlan`] — seeded, deterministic fault injection (stragglers,
//!   team crashes, corrupted/dropped writes) whose decisions are pure
//!   functions of the injection site, composable with either scheduler,
//! * [`Clock`] / [`OsClock`] / [`VirtualClock`] — the time abstraction:
//!   watchdog budgets, stall windows and session backoff/deadlines read
//!   time through a [`Clock`], so timeout paths are testable (and the
//!   resilience session replayable) without sleeping wall-clock time.

// Indexed loops over multiple parallel arrays are the house style for
// numerical kernels; the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod barrier;
pub mod clock;
pub mod fault;
pub mod lock;
pub mod partition;
pub mod racy;
pub mod sched;
pub mod spsc;
pub mod team;

pub use barrier::SpinBarrier;
pub use clock::{Clock, OsClock, VirtualClock};
pub use fault::{Corruption, Fault, FaultPlan};
pub use lock::SpinLock;
pub use partition::{chunk_range, GridTeamLayout};
pub use racy::{RacyBuf, RacyVec};
pub use sched::{run_teams_sched, ExecEnv, OsSched, ReadDelay, Sched, SchedPoint, VirtualSched};
pub use spsc::SpscRing;
pub use team::{run_teams, TeamCtx};
