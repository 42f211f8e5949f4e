//! The sharded rung of the resilient-session ladder.
//!
//! `asyncmg-core`'s degradation ladder ([`Rung`]) knows a
//! [`Rung::Sharded`] variant but cannot execute it — the core crate has no
//! dependency on the sharded model. This module closes the loop:
//! [`ShardedRungDriver`] implements [`ShardRungDriver`] over
//! [`solve_sharded`], and [`sharded_ladder`] builds the escalation
//! sequence the paper's resilience story wants — start wide, halve the
//! shard count on every failed attempt (S → S/2 → … → 1), then fall
//! through to the existing shared-memory ladder. Every sharded attempt
//! runs with recovery armed, so a crashed shard degrades the attempt
//! instead of hanging the session, and the session's checkpoint store
//! warm-starts the next, narrower rung from the hub-assembled iterate.

use crate::inproc::InProcChannel;
use crate::recovery::ShardRecovery;
use crate::solve::{solve_sharded, ShardOptions};
use crate::transport::Transport;
use crate::virtual_net::VirtualTransport;
use asyncmg_core::{Rung, ShardAttempt, ShardAttemptOutcome, ShardRungDriver};
use asyncmg_telemetry::NoopProbe;
use asyncmg_threads::{ExecEnv, VirtualClock, VirtualSched};

/// Executes [`Rung::Sharded`] session rungs with self-healing armed.
///
/// Seeded sessions get the fully virtual deterministic stack — a
/// [`VirtualSched`] and [`VirtualTransport`] derived from the attempt seed
/// plus a [`VirtualClock`] — so a resilient session that degrades through
/// sharded rungs replays bit-identically. Unseeded sessions run the
/// production stack: [`InProcChannel`] sized for recovery traffic and
/// [`ExecEnv::default`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedRungDriver {
    /// Recovery knobs armed for every attempt (default:
    /// [`ShardRecovery::default`]).
    pub recovery: ShardRecovery,
}

impl ShardRungDriver for ShardedRungDriver {
    fn run(&self, at: &ShardAttempt<'_>) -> ShardAttemptOutcome {
        let n_shards = (at.shards as usize).clamp(1, at.setup.n());
        let opts = ShardOptions {
            n_shards,
            t_max: at.t_max,
            tolerance: Some(at.tolerance),
            recovery: Some(self.recovery),
            ..ShardOptions::default()
        };
        let ranks = n_shards + 1;
        // Same transport-seed derivation as the harness, so a session
        // attempt and a standalone replay agree bit for bit.
        let virt = at.seed.map(|seed| {
            let net = VirtualTransport::new(ranks, seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
            (VirtualSched::new(seed), net, VirtualClock::new())
        });
        let inproc;
        let (net, env): (&dyn Transport, ExecEnv<'_>) = match &virt {
            Some((sched, net, clock)) => {
                (net, ExecEnv { sched: Some(sched), clock: Some(clock), plan: None })
            }
            None => {
                inproc = InProcChannel::for_epochs_resilient(ranks, at.t_max);
                (&inproc, ExecEnv::default())
            }
        };
        let result = solve_sharded(at.setup, at.b, &opts, net, &NoopProbe, env);
        ShardAttemptOutcome {
            x: result.x,
            outcome: result.outcome,
            corrections: result.hub_cycles as f64,
            elapsed: result.elapsed,
            faults: result.faults,
        }
    }
}

/// The sharded degradation ladder: `shards`, then half of that, halving
/// down to one shard, then the full shared-memory ladder
/// ([`Rung::LADDER`]). `sharded_ladder(4)` is
/// `[Sharded 4, Sharded 2, Sharded 1, AsyncAtomic, …, Pcg]`.
pub fn sharded_ladder(shards: u32) -> Vec<Rung> {
    let mut ladder = Vec::new();
    let mut s = shards.max(1);
    loop {
        ladder.push(Rung::Sharded { shards: s });
        if s == 1 {
            break;
        }
        s /= 2;
    }
    ladder.extend(Rung::LADDER);
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_halves_down_to_one_then_falls_through() {
        let l = sharded_ladder(4);
        assert_eq!(
            &l[..3],
            &[
                Rung::Sharded { shards: 4 },
                Rung::Sharded { shards: 2 },
                Rung::Sharded { shards: 1 }
            ]
        );
        assert_eq!(&l[3..], &Rung::LADDER);
        assert_eq!(sharded_ladder(0).len(), 1 + Rung::LADDER.len());
        assert_eq!(sharded_ladder(1)[0], Rung::Sharded { shards: 1 });
    }
}
