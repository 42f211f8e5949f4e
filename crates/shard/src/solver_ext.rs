//! The ergonomic entry point: [`Solver::sharded`](ShardedExt::sharded).
//!
//! [`Sharded`] is a configured sharded solve, built from a core
//! [`Solver`]: tolerance and budget carry over from its
//! [`SolverConfig`](asyncmg_core::SolverConfig), and the whole execution
//! environment — scheduler, clock, fault plan — from [`Solver::env`], so
//! set those on the `Solver` before `.sharded(n)`. Defaults are
//! production-grade ([`InProcChannel`] sized for the epoch budget, one OS
//! thread per rank); deterministic testing swaps in
//! [`VirtualTransport`](crate::VirtualTransport) here and a
//! [`VirtualSched`](asyncmg_threads::VirtualSched) /
//! [`VirtualClock`](asyncmg_threads::VirtualClock) on the `Solver`.

use crate::inproc::InProcChannel;
use crate::recovery::ShardRecovery;
use crate::solve::{solve_sharded, ShardOptions, ShardResult};
use crate::transport::Transport;
use asyncmg_core::{MgSetup, SolveError, Solver};
use asyncmg_telemetry::{NoopProbe, ReductionRecord, TelemetryProbe};
use asyncmg_threads::ExecEnv;

/// Extends the core [`Solver`] builder with a sharded execution model.
pub trait ShardedExt<'a> {
    /// A sharded solve over `n_shards` shard workers plus one hub rank,
    /// inheriting the solver's epoch budget, tolerance and execution
    /// environment (scheduler, clock, fault plan).
    fn sharded(&self, n_shards: usize) -> Sharded<'a>;
}

impl<'a> ShardedExt<'a> for Solver<'a> {
    fn sharded(&self, n_shards: usize) -> Sharded<'a> {
        let cfg = self.config();
        Sharded {
            setup: self.setup_ref(),
            opts: ShardOptions {
                n_shards,
                t_max: cfg.t_max,
                tolerance: cfg.tolerance,
                ..ShardOptions::default()
            },
            env: self.env(),
            collect_trace: false,
            transport: None,
        }
    }
}

/// A configured sharded solve. Construct via
/// [`Solver::sharded`](ShardedExt::sharded), adjust with the builder
/// methods, then [`run`](Sharded::run) or [`try_run`](Sharded::try_run).
pub struct Sharded<'a> {
    setup: &'a MgSetup,
    opts: ShardOptions,
    env: ExecEnv<'a>,
    collect_trace: bool,
    transport: Option<&'a dyn Transport>,
}

impl<'a> Sharded<'a> {
    /// Sets the smoothing sweeps per epoch.
    pub fn sweeps(mut self, sweeps: usize) -> Self {
        self.opts.sweeps = sweeps;
        self
    }

    /// Sets the damping factor applied to coarse corrections.
    pub fn damping(mut self, damping: f64) -> Self {
        self.opts.damping = damping;
        self
    }

    /// Overrides the transport. Must connect `n_shards + 1` ranks.
    pub fn transport(mut self, transport: &'a dyn Transport) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Arms (or disarms) self-healing: the hub-side failure detector, row
    /// adoption, periodic checkpoints and the reliable control plane (see
    /// [`ShardRecovery`]). `None` — the default — keeps the undefended
    /// solve bit-identical to the recovery-free model.
    pub fn recovery(mut self, recovery: Option<ShardRecovery>) -> Self {
        self.opts.recovery = recovery;
        self
    }

    /// Records telemetry: the result's `trace` carries per-rank message
    /// statistics and the published reductions (schema `asyncmg-trace-v5`).
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Validates the configuration and runs the sharded solve.
    pub fn try_run(&self, b: &[f64]) -> Result<ShardResult, SolveError> {
        let n = self.setup.n();
        if b.len() != n {
            return Err(SolveError::RhsLength { expected: n, got: b.len() });
        }
        if let Some(index) = b.iter().position(|v| !v.is_finite()) {
            return Err(SolveError::NonFiniteRhs { index });
        }
        let o = &self.opts;
        if o.n_shards == 0 {
            return Err(SolveError::InvalidOptions("n_shards must be at least 1".into()));
        }
        if o.n_shards > n {
            return Err(SolveError::InvalidOptions(format!(
                "n_shards {} exceeds the fine-grid dimension {n}",
                o.n_shards
            )));
        }
        if o.t_max == 0 {
            return Err(SolveError::InvalidOptions("t_max must be positive".into()));
        }
        if o.sweeps == 0 {
            return Err(SolveError::InvalidOptions("sweeps must be at least 1".into()));
        }
        if let Some(t) = o.tolerance {
            if !t.is_finite() || t <= 0.0 {
                return Err(SolveError::InvalidOptions(format!("tolerance {t} must be positive")));
            }
        }
        if !(o.damping > 0.0 && o.damping <= 2.0) {
            return Err(SolveError::InvalidOptions(format!(
                "damping {} outside (0, 2]",
                o.damping
            )));
        }
        let ranks = o.n_shards + 1;
        if let Some(t) = self.transport {
            if t.n_ranks() != ranks {
                return Err(SolveError::InvalidOptions(format!(
                    "transport connects {} ranks but the solve needs {ranks}",
                    t.n_ranks()
                )));
            }
        }

        let default_net;
        let transport: &dyn Transport = match self.transport {
            Some(t) => t,
            None => {
                default_net = if o.recovery.is_some() {
                    // Recovery traffic (checkpoints, retransmits, acks,
                    // adoption) needs headroom beyond the undefended budget.
                    InProcChannel::for_epochs_resilient(ranks, o.t_max)
                } else {
                    InProcChannel::for_epochs(ranks, o.t_max)
                };
                &default_net
            }
        };

        let mut result = if self.collect_trace {
            let mut probe = TelemetryProbe::with_threads(ranks);
            let mut result = solve_sharded(self.setup, b, o, transport, &probe, self.env);
            let mut trace = probe.take_trace();
            trace.messages = result.stats.to_telemetry();
            // The hub is the reliable sender: attribute its retransmits.
            if let Some(hub) = trace.messages.last_mut() {
                hub.retransmits = result.recovery.retransmits;
            }
            trace.reductions = result
                .reductions
                .iter()
                .map(|r| ReductionRecord {
                    epoch: r.epoch,
                    relres: r.relres,
                    parts: r.parts,
                    t_ns: 0,
                })
                .collect();
            result.trace = Some(trace);
            result
        } else {
            solve_sharded(self.setup, b, o, transport, &NoopProbe, self.env)
        };
        result.x.shrink_to_fit();
        Ok(result)
    }

    /// [`Self::try_run`], panicking on configuration errors.
    pub fn run(&self, b: &[f64]) -> ShardResult {
        match self.try_run(b) {
            Ok(r) => r,
            Err(e) => panic!("sharded solve misconfigured: {e}"),
        }
    }
}
