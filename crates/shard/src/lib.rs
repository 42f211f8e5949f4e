//! Sharded message-passing execution of asynchronous multigrid.
//!
//! The shared-memory solvers in `asyncmg-core` model the paper's
//! asynchronous smoothing with racy reads of one shared iterate. This crate
//! recasts the same algorithm over *explicit messages*: the fine grid is
//! row-partitioned into shards (reusing the hierarchy's partition cache),
//! each shard runs its own worker, and every cross-shard dependency —
//! halo ghost values, coarse-grid corrections, the residual-norm reduction —
//! travels through a [`Transport`]. Nothing ever blocks on the hub: a
//! missing halo means smoothing against slightly stale ghosts (a shard
//! only waits for a neighbour more than a few epochs behind), and the norm
//! reduction ([`NormReducer`]) completes epochs out-of-band, exactly the
//! asynchronous semantics of the paper with the races made inspectable.
//!
//! Two transports ship:
//!
//! * [`InProcChannel`] — production: a matrix of lock-free SPSC rings.
//! * [`VirtualTransport`] — testing: seeded delay/reorder/drop, composable
//!   with [`FaultPlan`](asyncmg_threads::FaultPlan) (sender-side drops model
//!   node loss; the transport adds link loss), and deterministic under
//!   [`VirtualSched`](asyncmg_threads::VirtualSched) — same seeds, same
//!   bits.
//!
//! Entry points: [`Solver::sharded`](ShardedExt::sharded) for the builder,
//! [`solve_sharded`] for explicit transport + execution-environment
//! ([`ExecEnv`](asyncmg_threads::ExecEnv)) control.
//!
//! ```
//! use asyncmg_core::{MgSetup, Solver};
//! use asyncmg_shard::ShardedExt;
//!
//! let a = asyncmg_problems::stencil::laplacian_27pt(8, 8, 8);
//! let h = asyncmg_amg::build_hierarchy(a, &asyncmg_amg::AmgOptions::default());
//! let setup = MgSetup::new(h, Default::default());
//! let b = vec![1.0; setup.n()];
//! let result = Solver::new(&setup).tolerance(1e-8).t_max(200).sharded(2).run(&b);
//! assert!(result.relres < 1e-8);
//! ```

pub mod halo;
pub mod inproc;
pub mod msg;
pub mod recovery;
pub mod reduce;
pub mod rung;
pub mod solve;
pub mod solver_ext;
pub mod transport;
pub mod virtual_net;

pub use halo::ShardMap;
pub use inproc::InProcChannel;
pub use msg::Msg;
pub use recovery::{RecoveryReport, ShardRecovery};
pub use reduce::{NormReducer, Reduction};
pub use rung::{sharded_ladder, ShardedRungDriver};
pub use solve::{solve_sharded, ShardOptions, ShardResult};
pub use solver_ext::{Sharded, ShardedExt};
pub use transport::{RankCounters, Transport, TransportStats};
pub use virtual_net::VirtualTransport;
