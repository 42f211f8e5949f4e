//! The shard axis of the harness: sharded solves under seeded transports,
//! seeded schedules and fault plans, with replay fingerprints and a
//! conservation-aware oracle.
//!
//! A [`ShardAxis`] pins everything that shapes a sharded execution — the
//! matrix family, the shard count, the network profile
//! ([`NetAxis`]: delay/reorder/drop), and the [`FaultAxis`] reused from the
//! shared-memory matrix (fault decisions are pure functions of the plan
//! seed, so they inject identically over messages). [`ShardAxis::run`]
//! executes under a [`VirtualSched`] and a [`VirtualTransport`] both
//! derived from one seed: the run is a pure function of `(axis, seed)` and
//! [`fingerprint_sharded`] hashes everything it determines — solution bits,
//! reductions, per-rank message counters, fault kinds — and nothing it
//! doesn't (timestamps). [`check_sharded`] is the oracle: finiteness,
//! message conservation, strictly monotone reduction epochs, fault/outcome
//! consistency, and (where the axis demands it) convergence.

use crate::case::{FaultAxis, MatrixFamily};
use crate::fingerprint::Fnv;
use crate::oracle::Violation;
use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{MgOptions, MgSetup, SolveOutcome};
use asyncmg_problems::rhs::random_rhs;
use asyncmg_shard::{
    solve_sharded, RecoveryReport, ShardOptions, ShardRecovery, ShardResult, VirtualTransport,
};
use asyncmg_telemetry::NoopProbe;
use asyncmg_threads::{ExecEnv, Fault, FaultPlan, VirtualClock, VirtualSched};

/// The network profile of a sharded fuzz run: how the seeded
/// [`VirtualTransport`] treats data messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetAxis {
    /// No delay, no loss — ordering still follows the seeded sequence.
    Ideal,
    /// Small uniform delays (up to 4 transport ops): mild reordering.
    Delay,
    /// Large delays (up to 24 ops): heavy cross-sender reordering.
    Reorder,
    /// Mild delays plus 20 % data-message loss.
    Drop,
    /// Heavy delays plus 40 % loss — the stress profile.
    Lossy,
}

/// The self-healing axis of a sharded fuzz run: whether recovery is armed
/// and whether a deterministic mid-solve crash exercises it. The crash is
/// injected into shard 1 via [`Fault::Crash`] on top of whatever the
/// [`FaultAxis`] already injects, and the solve runs on a
/// [`VirtualClock`] so detection and retransmission replay bit-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAxis {
    /// Recovery disarmed — the undefended model, bit-identical to the
    /// pre-recovery solver.
    Off,
    /// Recovery armed with adoption off: shard 1 crashes at `crash_epoch`,
    /// the detector (epoch-gap threshold `threshold`) declares it dead and
    /// evicts it, and its rows freeze.
    Detect {
        /// Epoch at which shard 1 crashes.
        crash_epoch: u64,
        /// Detector silence threshold in epochs.
        threshold: u64,
    },
    /// Full self-healing: detection plus row adoption by a surviving
    /// neighbor, warm-started from the hub's last checkpoint.
    Adopt {
        /// Epoch at which shard 1 crashes.
        crash_epoch: u64,
        /// Detector silence threshold in epochs.
        threshold: u64,
    },
}

impl RecoveryAxis {
    /// The recovery knobs this axis arms, `None` for [`RecoveryAxis::Off`].
    pub fn recovery(self) -> Option<ShardRecovery> {
        match self {
            RecoveryAxis::Off => None,
            RecoveryAxis::Detect { threshold, .. } => Some(ShardRecovery {
                silence_epochs: threshold,
                adopt: false,
                ..ShardRecovery::default()
            }),
            RecoveryAxis::Adopt { threshold, .. } => Some(ShardRecovery {
                silence_epochs: threshold,
                adopt: true,
                ..ShardRecovery::default()
            }),
        }
    }

    /// The crash epoch of the injected death, if the axis injects one.
    pub fn crash_epoch(self) -> Option<u64> {
        match self {
            RecoveryAxis::Off => None,
            RecoveryAxis::Detect { crash_epoch, .. } | RecoveryAxis::Adopt { crash_epoch, .. } => {
                Some(crash_epoch)
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            RecoveryAxis::Off => "",
            RecoveryAxis::Detect { .. } => "/detect",
            RecoveryAxis::Adopt { .. } => "/heal",
        }
    }
}

impl NetAxis {
    /// All profiles, `Ideal` first (the order test matrices iterate in).
    pub const ALL: [NetAxis; 5] =
        [NetAxis::Ideal, NetAxis::Delay, NetAxis::Reorder, NetAxis::Drop, NetAxis::Lossy];

    /// Whether the profile loses data messages (convergence demands relax).
    pub fn lossy(self) -> bool {
        matches!(self, NetAxis::Drop | NetAxis::Lossy)
    }

    /// The seeded transport this profile builds over `ranks` ranks.
    pub fn transport(self, ranks: usize, seed: u64) -> VirtualTransport {
        let (delay, drop) = match self {
            NetAxis::Ideal => (0, 0.0),
            NetAxis::Delay => (4, 0.0),
            NetAxis::Reorder => (24, 0.0),
            NetAxis::Drop => (4, 0.2),
            NetAxis::Lossy => (24, 0.4),
        };
        VirtualTransport::with_profile(ranks, seed, delay, drop)
    }

    fn label(self) -> &'static str {
        match self {
            NetAxis::Ideal => "",
            NetAxis::Delay => "/net-delay",
            NetAxis::Reorder => "/net-reorder",
            NetAxis::Drop => "/net-drop",
            NetAxis::Lossy => "/net-lossy",
        }
    }
}

/// One sharded configuration of the fuzz matrix. An axis plus a seed
/// identifies a run completely.
#[derive(Clone, Copy, Debug)]
pub struct ShardAxis {
    /// Test problem.
    pub family: MatrixFamily,
    /// Shard-worker count (the hub adds one rank).
    pub n_shards: usize,
    /// Network profile of the virtual transport.
    pub net: NetAxis,
    /// Fault-injection axis, reused from the shared-memory matrix: the
    /// plan's grid/team/worker sites address shards here.
    pub fault: FaultAxis,
    /// Seed of the right-hand side.
    pub rhs_seed: u64,
    /// Epoch budget per shard.
    pub t_max: usize,
    /// Stopping tolerance handed to the solve (optional).
    pub tolerance: Option<f64>,
    /// Relative residual the oracle demands, when the configuration is
    /// clean enough to demand one (`None` skips the convergence check).
    pub max_relres: Option<f64>,
    /// Self-healing axis: recovery knobs plus the deterministic crash that
    /// exercises them.
    pub recovery: RecoveryAxis,
}

impl ShardAxis {
    /// A baseline axis; test matrices mutate individual fields.
    pub fn base() -> Self {
        ShardAxis {
            family: MatrixFamily::SevenPt(6),
            n_shards: 2,
            net: NetAxis::Ideal,
            fault: FaultAxis::None,
            rhs_seed: 3,
            t_max: 80,
            tolerance: None,
            max_relres: Some(2e-3),
            recovery: RecoveryAxis::Off,
        }
    }

    /// A compact, filterable name: `shard/7pt6/s2/net-drop/crash/heal`.
    pub fn label(&self) -> String {
        format!(
            "shard/{}/s{}{}{}{}",
            self.family.label(),
            self.n_shards,
            self.net.label(),
            self.fault.label(),
            self.recovery.label()
        )
    }

    fn setup(&self) -> MgSetup {
        let a = self.family.build();
        let aopts =
            AmgOptions { num_functions: self.family.num_functions(), ..AmgOptions::default() };
        MgSetup::new(build_hierarchy(a, &aopts), MgOptions::default())
    }

    /// Runs the axis once: `VirtualSched` and `VirtualTransport` are both
    /// derived from `seed`, so the whole [`ShardRun`] — fingerprint
    /// included — is a deterministic function of `(self, seed)`.
    pub fn run(&self, seed: u64) -> ShardRun {
        let setup = self.setup();
        let b = random_rhs(setup.n(), self.rhs_seed);
        let opts = ShardOptions {
            n_shards: self.n_shards,
            t_max: self.t_max,
            tolerance: self.tolerance,
            sweeps: 1,
            damping: 1.0,
            recovery: self.recovery.recovery(),
        };
        let sched = VirtualSched::new(seed);
        // A distinct stream for the fabric so network and schedule
        // randomness stay decoupled per seed.
        let net =
            self.net.transport(self.n_shards + 1, seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let mut plan = self.fault.plan(seed);
        if let Some(at_round) = self.recovery.crash_epoch() {
            // The recovery axes kill shard 1 mid-solve on top of whatever
            // the fault axis injects.
            plan = Some(
                plan.unwrap_or_else(|| FaultPlan::new(seed))
                    .with(Fault::Crash { team: 1, at_round }),
            );
        }
        // The virtual clock makes detector deadlines and retransmit backoff
        // pure functions of the schedule (time only advances on hub polls).
        let clock = VirtualClock::new();
        let env = ExecEnv { sched: Some(&sched), clock: Some(&clock), plan: plan.as_ref() };
        let result = solve_sharded(&setup, &b, &opts, &net, &NoopProbe, env);
        let decisions = sched.decisions();
        let fingerprint = fingerprint_sharded(&result);
        ShardRun { result, decisions, fingerprint }
    }
}

/// The outcome of one schedule- and transport-controlled sharded run.
pub struct ShardRun {
    /// The solver result.
    pub result: ShardResult,
    /// The virtual scheduler's decision sequence.
    pub decisions: Vec<u32>,
    /// Canonical replay hash (see [`fingerprint_sharded`]).
    pub fingerprint: u64,
}

/// The canonical fingerprint of one sharded solve: bit-exact over the
/// solution, the exact relative residual, per-shard epoch counts, hub
/// cycles, every published reduction, the per-rank transport counters, the
/// recovery report (deaths, adoptions, retransmit/ack/checkpoint/eviction
/// counters), the outcome and the fault-kind stream. Wall-clock fields
/// (`elapsed`, fault timestamps) are excluded — two replays of the same
/// interleaving differ only there.
pub fn fingerprint_sharded(result: &ShardResult) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(result.x.len() as u64);
    for &v in &result.x {
        h.write_f64(v);
    }
    h.write_f64(result.relres);
    h.write_u64(result.stopped_on_tolerance as u64);
    h.write_u64(result.shard_epochs.len() as u64);
    for &e in &result.shard_epochs {
        h.write_u64(e);
    }
    h.write_u64(result.hub_cycles);
    h.write_u64(result.reductions.len() as u64);
    for r in &result.reductions {
        h.write_u64(r.epoch);
        h.write_f64(r.relres);
        h.write_u64(r.parts as u64);
    }
    for c in &result.stats.per_rank {
        h.write_u64(c.sent);
        h.write_u64(c.delivered);
        h.write_u64(c.dropped);
        h.write_u64(c.overflowed);
    }
    h.write_u64(result.stats.pending);
    let rec = &result.recovery;
    h.write_u64(rec.dead_shards.len() as u64);
    for &d in &rec.dead_shards {
        h.write_u64(d as u64);
    }
    h.write_u64(rec.adoptions.len() as u64);
    for &(dead, adopter) in &rec.adoptions {
        h.write_u64(dead as u64);
        h.write_u64(adopter as u64);
    }
    h.write_u64(rec.retransmits);
    h.write_u64(rec.acks);
    h.write_u64(rec.checkpoints);
    h.write_u64(rec.evictions);
    h.write_u64(match result.outcome {
        SolveOutcome::Converged => 0,
        SolveOutcome::MaxIterations => 1,
        SolveOutcome::Degraded => 2,
        SolveOutcome::Faulted => 3,
    });
    h.write_u64(result.faults.len() as u64);
    for f in &result.faults {
        h.write_bytes(f.kind.name().as_bytes());
    }
    h.finish()
}

/// The sharded oracle. Checks, in order:
///
/// 1. finiteness of the solution and residual;
/// 2. message conservation (`sent = delivered + dropped + overflowed +
///    pending` per the quiescent counter snapshot) — retransmitted
///    reliable wrappers are ordinary sends, so the balance holds with
///    recovery armed too;
/// 3. strictly increasing reduction epochs, each combining the live shard
///    count: exactly `n_shards` contributions undefended, between
///    `n_shards - deaths` and `n_shards` once the detector retires parts;
/// 4. per-shard epoch counts within the budget;
/// 5. fault/outcome consistency: a finite run is `Degraded` exactly when
///    its fault log is non-empty, and the deterministic fault axes
///    (straggler/crash/corrupt) must actually have injected;
/// 6. recovery/report consistency: [`RecoveryAxis::Off`] must leave an
///    all-zero report (undefended purity), the recovery axes must declare
///    the crashed shard dead and evict it, adoption happens exactly on
///    [`RecoveryAxis::Adopt`], and the fault log carries the matching
///    `shard_declared_dead` / `rows_adopted` events;
/// 7. the axis's convergence demand (`max_relres`), when set.
pub fn check_sharded(axis: &ShardAxis, run: &ShardRun) -> Result<(), Violation> {
    let fail = |reason: String| Violation { case: axis.label(), reason };
    let r = &run.result;
    if let Some(i) = r.x.iter().position(|v| !v.is_finite()) {
        return Err(fail(format!("non-finite x[{i}]")));
    }
    if !r.relres.is_finite() {
        return Err(fail(format!("non-finite relres {}", r.relres)));
    }
    if !r.stats.conserved() {
        return Err(fail(format!(
            "message conservation violated: sent {} != delivered {} + dropped {} + overflowed {} + pending {}",
            r.stats.total_sent(),
            r.stats.total_delivered(),
            r.stats.total_dropped(),
            r.stats.total_overflowed(),
            r.stats.pending
        )));
    }
    for pair in r.reductions.windows(2) {
        if pair[0].epoch >= pair[1].epoch {
            return Err(fail(format!(
                "reduction epochs not strictly increasing: {} then {}",
                pair[0].epoch, pair[1].epoch
            )));
        }
    }
    let deaths = r.recovery.dead_shards.len();
    for red in &r.reductions {
        let lo = axis.n_shards.saturating_sub(deaths).max(1);
        if !(lo..=axis.n_shards).contains(&(red.parts as usize)) {
            return Err(fail(format!(
                "reduction at epoch {} combined {} parts, expected {lo}..={}",
                red.epoch, red.parts, axis.n_shards
            )));
        }
    }
    for pair in r.reductions.windows(2) {
        if pair[0].parts < pair[1].parts {
            return Err(fail(format!(
                "reduction parts grew from {} to {} — a retired shard came back",
                pair[0].parts, pair[1].parts
            )));
        }
    }
    if r.shard_epochs.len() != axis.n_shards {
        return Err(fail(format!(
            "{} epoch counters for {} shards",
            r.shard_epochs.len(),
            axis.n_shards
        )));
    }
    for (s, &e) in r.shard_epochs.iter().enumerate() {
        if e > axis.t_max as u64 {
            return Err(fail(format!("shard {s} ran {e} epochs over budget {}", axis.t_max)));
        }
    }
    let degraded_expected = !r.faults.is_empty();
    if degraded_expected != (r.outcome == SolveOutcome::Degraded) {
        return Err(fail(format!(
            "outcome {:?} inconsistent with {} logged faults",
            r.outcome,
            r.faults.len()
        )));
    }
    if matches!(axis.fault, FaultAxis::Straggler | FaultAxis::Crash | FaultAxis::Corrupt)
        && r.faults.is_empty()
    {
        return Err(fail(format!("{:?} axis injected no faults", axis.fault)));
    }
    let kinds: Vec<&str> = r.faults.iter().map(|f| f.kind.name()).collect();
    match axis.recovery {
        RecoveryAxis::Off => {
            if r.recovery != RecoveryReport::default() {
                return Err(fail(format!(
                    "recovery disarmed but the report is non-zero: {:?}",
                    r.recovery
                )));
            }
        }
        RecoveryAxis::Detect { .. } | RecoveryAxis::Adopt { .. } => {
            if !r.recovery.dead_shards.contains(&1) {
                return Err(fail(format!(
                    "crashed shard 1 never declared dead: {:?}",
                    r.recovery.dead_shards
                )));
            }
            if r.recovery.evictions < r.recovery.dead_shards.len() as u64 {
                return Err(fail(format!(
                    "{} deaths but only {} evictions",
                    r.recovery.dead_shards.len(),
                    r.recovery.evictions
                )));
            }
            if !kinds.contains(&"shard_declared_dead") {
                return Err(fail("no shard_declared_dead event in the fault log".into()));
            }
            let adopting = matches!(axis.recovery, RecoveryAxis::Adopt { .. });
            if adopting {
                if !r.recovery.adoptions.iter().any(|&(dead, _)| dead == 1) {
                    return Err(fail(format!(
                        "adoption armed but shard 1's rows were never adopted: {:?}",
                        r.recovery.adoptions
                    )));
                }
                if !kinds.contains(&"rows_adopted") {
                    return Err(fail("no rows_adopted event in the fault log".into()));
                }
            } else if !r.recovery.adoptions.is_empty() {
                return Err(fail(format!(
                    "adoption disarmed but adoptions happened: {:?}",
                    r.recovery.adoptions
                )));
            }
        }
    }
    if let Some(bound) = axis.max_relres {
        if r.relres > bound {
            return Err(fail(format!("relres {} above the axis bound {bound}", r.relres)));
        }
    }
    Ok(())
}
