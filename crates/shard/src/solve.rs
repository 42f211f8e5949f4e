//! The sharded solve: shard workers, the hub, and the result type.
//!
//! Execution model (see `docs/sharding.md`):
//!
//! * `S` *shard workers*, ranks `0..S`, each own one contiguous row range
//!   of the fine grid (from `Hierarchy::partitions`). Per epoch a shard
//!   drains its inbox (halo values, coarse corrections, stop requests),
//!   smooths its own rows against its local snapshot, computes its residual
//!   segment, and fires halo values at its neighbours plus a residual
//!   segment and a partial norm at the hub. Missing messages just mean this
//!   epoch smooths against slightly stale ghosts — the asynchronous model
//!   of the paper, recast over messages — but the staleness is bounded: a
//!   shard more than `MAX_LEAD` epochs ahead of a halo neighbour yields
//!   until that neighbour's halos catch up.
//! * One *hub*, rank `S`, assembles residual segments, runs the coarse
//!   half of the multiplicative cycle (`coarse_correction`) when every live
//!   shard has contributed a residual fresher than the last correction
//!   that reflects it on its own rows and in every ghost it read (or, where
//!   a correction can be lost, run two epochs past it, the lost-correction
//!   valve) so corrections are never compounded from stale data — and
//!   broadcasts per-shard correction segments. It also runs the
//!   never-blocking norm reduction ([`NormReducer`]) and broadcasts
//!   `NormComplete`/`Stop`.
//! * A `Stop` is a candidate: after the join the exact residual of the
//!   assembled iterate confirms it, or the shards that left on it are
//!   launched again from that iterate, with their epochs, correction counts
//!   and the hub's bookkeeping carried over.
//!
//! Faults compose at the send boundary: a `FaultPlan`'s stragglers stall a
//! shard's epoch loop, crashes end it early, corruption garbles the first
//! outgoing data value of the epoch (receiver-side finiteness guards
//! reject the message and log `GuardTripped`), and drop faults suppress the
//! epoch's outgoing data wholesale — identically over any transport.
//!
//! # Recovery
//!
//! With [`ShardOptions::recovery`] armed the solve heals itself instead of
//! merely observing loss:
//!
//! * A crashed shard goes *silent* — no `Done`, no publication — and the
//!   hub's **failure detector** declares it dead after bounded silence:
//!   either the most advanced live shard ran
//!   [`silence_epochs`](crate::ShardRecovery::silence_epochs) past the
//!   silent shard's last heard epoch (progress-based, schedule-exact under
//!   `VirtualSched`), or [`silence`](crate::ShardRecovery::silence) of
//!   clock time passed (the backstop when nobody makes progress), or a
//!   reliable payload exhausted its retransmit budget. Time comes from the
//!   [`Clock`] abstraction, so `VirtualClock` replays are bit-identical.
//! * The hub then **adopts the rows away**: the nearest live shard's range
//!   grows over the dead one's (the hub's last received checkpoint seeds
//!   the adopted rows), `ShardMap::adopt` rewires the ghost lists on every
//!   participant, and the solve keeps running toward tolerance with one
//!   rank permanently gone. A geometry version stamped on every data
//!   message fences stale layouts and false-positive zombies.
//! * Corrections, adoptions and stop travel the **reliable control plane**
//!   (ack + bounded retransmit with exponential backoff) so recovery
//!   survives transports that drop or reorder; halos and other data stay
//!   fire-and-forget.
//!
//! With `recovery: None` (the default) none of this code runs and the
//! solve is bit-identical to the undefended model above.

use crate::halo::ShardMap;
use crate::msg::Msg;
use crate::recovery::{RecoveryReport, ReliableReceiver, ReliableSender, ShardRecovery};
use crate::reduce::{NormReducer, Reduction};
use crate::transport::{Transport, TransportStats};
use asyncmg_core::{coarse_correction, MgSetup, SolveOutcome, Workspace};
use asyncmg_sparse::vecops;
use asyncmg_telemetry::{FaultKind, FaultRecord, Probe, SolveTrace};
use asyncmg_threads::{
    run_teams_sched, Clock, ExecEnv, FaultPlan, OsClock, OsSched, RacyVec, SchedPoint, TeamCtx,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many epochs a shard may run ahead of the epoch it last heard each
/// halo neighbour reach (bounded staleness). Without the bound a shard the
/// OS schedules more often spends its whole budget while a neighbour is
/// still early on, and the solve ends far from tolerance.
const MAX_LEAD: u64 = 4;

/// Knobs of a sharded solve.
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Number of shard workers (the hub adds one more rank).
    pub n_shards: usize,
    /// Epoch budget per shard.
    pub t_max: usize,
    /// Stop once a completed reduction falls below this relative residual.
    pub tolerance: Option<f64>,
    /// Smoothing sweeps per epoch.
    pub sweeps: usize,
    /// Damping applied to coarse corrections before they are sent.
    pub damping: f64,
    /// Self-healing knobs; `None` (the default) keeps the undefended
    /// model bit-identical to the pre-recovery behaviour.
    pub recovery: Option<ShardRecovery>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            n_shards: 2,
            t_max: 60,
            tolerance: None,
            sweeps: 1,
            damping: 1.0,
            recovery: None,
        }
    }
}

/// The outcome of a sharded solve.
#[derive(Clone, Debug)]
pub struct ShardResult {
    /// The assembled approximation.
    pub x: Vec<f64>,
    /// Exact relative residual, recomputed after the run.
    pub relres: f64,
    /// Whether the solve stopped on the tolerance: the hub's reduction fell
    /// below it, broadcast `Stop`, and the exact residual of the assembled
    /// iterate confirmed it (`relres < tolerance`).
    pub stopped_on_tolerance: bool,
    /// Structured outcome: [`SolveOutcome::classify`] of `relres`, the
    /// tolerance and the fault log, so `Converged` implies `relres < tol`
    /// whatever `stopped_on_tolerance` says.
    pub outcome: SolveOutcome,
    /// Injected faults and guard trips, in occurrence order.
    pub faults: Vec<FaultRecord>,
    /// Epochs each shard completed.
    pub shard_epochs: Vec<u64>,
    /// Coarse-correction cycles the hub performed.
    pub hub_cycles: u64,
    /// Completed norm reductions, in publication order (strictly
    /// increasing epochs).
    pub reductions: Vec<Reduction>,
    /// Transport counter snapshot after the run (quiescent, so
    /// [`TransportStats::conserved`] must hold).
    pub stats: TransportStats,
    /// What recovery did (all-zero when [`ShardOptions::recovery`] was off
    /// or never triggered).
    pub recovery: RecoveryReport,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Telemetry, when the caller ran with a recording probe (filled by
    /// [`Sharded::run`](crate::Sharded::run), `None` from the raw entry
    /// point).
    pub trace: Option<SolveTrace>,
}

/// What the hub hands back across the team join: the recovery ledger plus
/// the checkpoint segments of dead, never-adopted shards — spliced into the
/// output at quiescence so the write cannot race a zombie's publication —
/// and the state a resumed launch's hub continues from.
#[derive(Default)]
struct HubOutcome {
    report: RecoveryReport,
    backfill: Vec<(Range<usize>, Vec<f64>)>,
    carry: Option<HubCarry>,
}

/// The hub's assembly and correction bookkeeping, carried from one launch
/// to the next so cycle numbers, acks and reduction epochs run on.
struct HubCarry {
    r_asm: Vec<f64>,
    have: Vec<Option<u64>>,
    used: Vec<Option<u64>>,
    acks: Vec<u64>,
    cycles: u64,
    reducer: NormReducer,
}

/// Where one launch of the ranks starts: from zero, or — after a stop the
/// exact residual did not confirm — from the previous launch's state.
struct Launch {
    /// The full-length iterate every shard starts from.
    x0: Vec<f64>,
    /// Per shard: `None` if it left for good (budget or crash), else the
    /// epoch and the number of hub corrections it resumes from.
    resume: Vec<Option<(u64, u64)>>,
}

/// Everything the workers share, borrowed for the duration of the team
/// scope.
struct Shared<'a> {
    setup: &'a MgSetup,
    b: &'a [f64],
    opts: &'a ShardOptions,
    map: &'a ShardMap,
    transport: &'a dyn Transport,
    plan: Option<&'a FaultPlan>,
    out: &'a RacyVec,
    stop_flag: &'a AtomicBool,
    faults: &'a Mutex<Vec<FaultRecord>>,
    reductions: &'a Mutex<Vec<Reduction>>,
    shard_epochs: &'a [AtomicU64],
    /// Per shard, written at its exit: `None` unless it left on a `Stop`
    /// (the one exit a later launch resumes from), else the hub
    /// corrections it had applied.
    shard_exit: &'a [Mutex<Option<u64>>],
    hub_cycles: &'a AtomicU64,
    hub_out: &'a Mutex<HubOutcome>,
    launch: &'a Launch,
    norm_b: f64,
    clock: &'a dyn Clock,
    /// Clock reading at solve start; [`Shared::now`] reports offsets so
    /// timestamps stay comparable across clock implementations.
    t0: u64,
}

impl Shared<'_> {
    fn now(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.t0)
    }

    fn log_fault<P: Probe + ?Sized>(&self, probe: &P, kind: FaultKind) {
        let t_ns = self.now();
        self.faults.lock().unwrap().push(FaultRecord { t_ns, kind });
        if probe.enabled() {
            probe.fault(t_ns, kind);
        }
    }
}

/// Runs a sharded solve over an explicit transport — the one public entry
/// point of the family ([`Sharded`](crate::Sharded) wraps it with a
/// production transport and validation). `transport` must connect
/// `opts.n_shards + 1` ranks (rank `S` is the hub).
///
/// `env` is the execution environment ([`ExecEnv::default`] = one OS
/// thread per rank, OS clock, no faults): `env.clock` drives the recovery
/// layer's silence deadlines and retransmit backoff, `env.plan` injects
/// faults at the shards' send boundary. A `VirtualSched` +
/// [`VirtualTransport`](crate::VirtualTransport) +
/// [`VirtualClock`](asyncmg_threads::VirtualClock) replays full
/// detect → adopt → converge runs bit-identically.
pub fn solve_sharded<P: Probe + ?Sized>(
    setup: &MgSetup,
    b: &[f64],
    opts: &ShardOptions,
    transport: &dyn Transport,
    probe: &P,
    env: ExecEnv<'_>,
) -> ShardResult {
    let n = setup.n();
    let s_count = opts.n_shards;
    assert_eq!(b.len(), n, "rhs length");
    assert!(s_count >= 1, "at least one shard");
    assert!(s_count <= n, "more shards than rows");
    assert_eq!(transport.n_ranks(), s_count + 1, "transport must connect n_shards + 1 ranks");

    // Row layout from the hierarchy's partition cache (level 0).
    let ranges = setup.hierarchy.partitions(s_count)[0].clone();
    let map = ShardMap::new(setup.a(0), ranges);

    let os_clock = OsClock::new();
    let clock = env.clock.unwrap_or(&os_clock);

    let mut out = RacyVec::zeros(n);
    let stop_flag = AtomicBool::new(false);
    let faults = Mutex::new(Vec::new());
    let reductions = Mutex::new(Vec::new());
    let shard_epochs: Vec<AtomicU64> = (0..s_count).map(|_| AtomicU64::new(0)).collect();
    let shard_exit: Vec<Mutex<Option<u64>>> = (0..s_count).map(|_| Mutex::new(None)).collect();
    let hub_cycles = AtomicU64::new(0);
    let hub_out = Mutex::new(HubOutcome::default());
    let start = Instant::now();
    let norm_b = vecops::norm2(b);
    let t0 = clock.now_ns();
    let team_sizes = vec![1usize; s_count + 1];
    let os_sched = OsSched::for_teams(&team_sizes);
    let sched = env.sched.unwrap_or(&os_sched);
    let mut launch = Launch { x0: vec![0.0; n], resume: vec![Some((0, 0)); s_count] };

    let (x, relres, stopped_on_tolerance) = loop {
        stop_flag.store(false, Ordering::Release);
        let shared = Shared {
            setup,
            b,
            opts,
            map: &map,
            transport,
            plan: env.plan,
            out: &out,
            stop_flag: &stop_flag,
            faults: &faults,
            reductions: &reductions,
            shard_epochs: &shard_epochs,
            shard_exit: &shard_exit,
            hub_cycles: &hub_cycles,
            hub_out: &hub_out,
            launch: &launch,
            norm_b,
            clock,
            t0,
        };
        run_teams_sched(&team_sizes, sched, |ctx| {
            if ctx.team_id < s_count {
                shard_worker(&shared, probe, &ctx, ctx.team_id);
            } else {
                hub_worker(&shared, probe, &ctx);
            }
        });

        // Quiescent now: assemble and measure exactly.
        let x = out.as_mut_slice();
        // Dead shards that nobody adopted left their rows unwritten; the
        // hub's last checkpoints are the best surviving values for them.
        for (range, vals) in std::mem::take(&mut hub_out.lock().unwrap().backfill) {
            x[range].copy_from_slice(&vals);
        }
        let x = x.to_vec();
        let mut r = vec![0.0; n];
        setup.a(0).residual(b, &x, &mut r);
        let norm = vecops::norm2(&r);
        let relres = if norm_b > 0.0 { norm / norm_b } else { norm };
        let below = opts.tolerance.is_some_and(|t| relres < t);
        let stopped = stop_flag.load(Ordering::Acquire);
        // A completed reduction below tolerance is only a candidate stop: it
        // summed partial norms taken against different ghosts, and the
        // shards ran on after them. Unless the exact residual confirms it,
        // resume the shards that left on the `Stop` — while nothing
        // diverged or was poisoned, and with recovery off (its ledger and
        // reliable channels belong to one launch).
        let resume: Vec<Option<(u64, u64)>> = (0..s_count)
            .map(|t| {
                let corr = (*shard_exit[t].lock().unwrap())?;
                Some((shard_epochs[t].load(Ordering::Acquire), corr))
            })
            .collect();
        let again = stopped
            && !below
            && opts.recovery.is_none()
            && resume.iter().any(Option::is_some)
            && SolveOutcome::classify(relres, opts.tolerance, &faults.lock().unwrap())
                != SolveOutcome::Faulted;
        if !again {
            break (x, relres, stopped && below);
        }
        // Every shard that runs again must contribute afresh before a
        // reduction can complete, so each launch costs budget.
        if let Some(carry) = hub_out.lock().unwrap().carry.as_mut() {
            carry.reducer.clear_pending();
        }
        launch = Launch { x0: x, resume };
    };

    let HubOutcome { report, .. } = hub_out.into_inner().unwrap();
    let faults = faults.into_inner().unwrap();
    ShardResult {
        x,
        relres,
        stopped_on_tolerance,
        outcome: SolveOutcome::classify(relres, opts.tolerance, &faults),
        faults,
        shard_epochs: shard_epochs.iter().map(|e| e.load(Ordering::Acquire)).collect(),
        hub_cycles: hub_cycles.load(Ordering::Acquire),
        reductions: reductions.into_inner().unwrap(),
        stats: transport.stats(),
        recovery: report,
        elapsed: start.elapsed(),
        trace: None,
    }
}

/// One shard's epoch loop.
fn shard_worker<P: Probe + ?Sized>(cx: &Shared<'_>, probe: &P, team: &TeamCtx<'_>, s: usize) {
    let Some((mut epochs_done, mut corr_seen)) = cx.launch.resume[s] else {
        return; // left for good in an earlier launch
    };
    // Recovery rewires the geometry live, so every worker drives its own
    // copy of the map (identical to the shared one while no adoption is
    // applied).
    let mut map = cx.map.clone();
    let mut rs = map.range(s);
    let hub = map.n_shards();
    let a = cx.setup.a(0);
    let smoother = &cx.setup.smoothers[0];
    let mut neighbors = map.neighbors_out(s);
    let mut senders = map.neighbors_in(s);
    let n = cx.b.len();
    let rec = cx.opts.recovery;

    // Full-length local iterate: authoritative on own rows, halo-refreshed
    // ghosts elsewhere (never read outside own rows' sparsity).
    let mut x = cx.launch.x0.clone();
    let mut block = vec![0.0; rs.len()];
    let mut r = vec![0.0; n];
    let mut wire = Vec::new();
    // Per shard: the epoch its halos show it has reached (`u64::MAX` once
    // it sent its final values). The bound waits on halos, so it holds
    // only where every halo arrives intact: recovery off, no fault plan,
    // and (checked while waiting) a transport that has lost nothing.
    let mut peer_epoch: Vec<u64> =
        cx.launch.resume.iter().map(|r| r.map_or(u64::MAX, |(e, _)| e)).collect();
    // Per shard: the hub corrections its ghost values here reflect.
    let mut ghost_corr: Vec<u64> =
        cx.launch.resume.iter().map(|r| r.map_or(u64::MAX, |(_, c)| c)).collect();
    let bounded = rec.is_none() && cx.plan.is_none();
    // Whether the epoch loop ended on a `Stop`.
    let mut stopped = false;
    // Geometry version: adoptions applied so far. Messages tagged with a
    // different version describe a layout this shard is not at and are
    // silently discarded (not faults — just staleness).
    let mut ver: u32 = 0;
    let mut rel_rx = ReliableReceiver::default();
    // Adoptions that arrived ahead of their turn, keyed by index.
    let mut pending_adopts: BTreeMap<u32, (u32, u32, Vec<f64>)> = BTreeMap::new();
    // A crashed or evicted shard exits *silently*: no `Done`, no published
    // rows — node loss as the hub's failure detector sees it.
    let mut silent = false;

    'epochs: while epochs_done < cx.opts.t_max as u64 {
        let e = epochs_done;
        team.sched_point(SchedPoint::Yield);
        if let Some(plan) = cx.plan {
            let steps = plan.stall_steps(s, e);
            if steps > 0 {
                cx.log_fault(probe, FaultKind::Straggler { worker: s as u32, steps });
                for _ in 0..steps {
                    team.sched_point(SchedPoint::Yield);
                }
            }
            if plan.team_crashed(s, e) {
                cx.log_fault(probe, FaultKind::TeamCrash { team: s as u32 });
                if rec.is_some() {
                    silent = true;
                }
                break 'epochs;
            }
        }

        // Drain the inbox: halo ghosts, coarse corrections, adoptions,
        // stop requests. Reliable wrappers are acked on every delivery and
        // unwrapped exactly once.
        while let Some(wire_msg) = cx.transport.try_recv(s) {
            team.sched_point(SchedPoint::RacyRead);
            let msg = match wire_msg {
                Msg::Reliable { seq, inner } => {
                    cx.transport.send(s, hub, Msg::Ack { from: s as u32, seq });
                    if !rel_rx.accept(seq) {
                        continue; // duplicate delivery: acked, not reapplied
                    }
                    *inner
                }
                m => m,
            };
            match msg {
                Msg::Halo { from, epoch, ver: v, corr_seen: c, vals } => {
                    if v != ver {
                        continue; // stale geometry (or a fenced zombie)
                    }
                    let f = from as usize;
                    let seen = &mut peer_epoch[f];
                    *seen = if epoch == u64::MAX { epoch } else { (*seen).max(epoch + 1) };
                    let ok = vals.iter().all(|v| v.is_finite()) && map.scatter(f, s, &vals, &mut x);
                    if ok {
                        ghost_corr[f] = c;
                    } else {
                        cx.log_fault(probe, FaultKind::GuardTripped { grid: from });
                    }
                }
                Msg::Correction { cycle, ver: v, vals } => {
                    if v != ver {
                        continue;
                    }
                    // With recovery armed, a reordered or retransmitted
                    // correction can arrive after a newer one was applied;
                    // correcting backwards would undo converged progress.
                    // (Undefended keeps the pre-recovery behaviour.)
                    if rec.is_some() && cycle < corr_seen {
                        continue;
                    }
                    if vals.len() == rs.len() && vals.iter().all(|v| v.is_finite()) {
                        for (xi, v) in x[rs.clone()].iter_mut().zip(&vals) {
                            *xi += v;
                        }
                        corr_seen = corr_seen.max(cycle + 1);
                    } else {
                        // The malformed segment came from the hub — log the
                        // sender, consistent with the halo guard above.
                        cx.log_fault(probe, FaultKind::GuardTripped { grid: hub as u32 });
                    }
                }
                Msg::Adopt { index, dead, adopter, vals } => {
                    pending_adopts.insert(index, (dead, adopter, vals));
                    // Apply in index order; each applied adoption bumps the
                    // version and may unlock the next buffered one.
                    while let Some((dead, adopter, vals)) = pending_adopts.remove(&ver) {
                        let dead_range = map.range(dead as usize);
                        map.adopt(a, dead as usize, adopter as usize);
                        ver += 1;
                        rs = map.range(s);
                        neighbors = map.neighbors_out(s);
                        senders = map.neighbors_in(s);
                        if s == adopter as usize {
                            block.resize(rs.len(), 0.0);
                            // Warm-start the adopted rows from the hub's
                            // checkpoint; an empty payload keeps the local
                            // halo-informed values.
                            if vals.len() == dead_range.len() && vals.iter().all(|v| v.is_finite())
                            {
                                x[dead_range].copy_from_slice(&vals);
                            }
                        }
                    }
                }
                Msg::Stop => {
                    stopped = true;
                    break 'epochs;
                }
                Msg::Evict => {
                    silent = true;
                    break 'epochs;
                }
                // `NormComplete` is informational to a shard; the remaining
                // variants are hub-bound and never addressed here.
                _ => {}
            }
        }

        // Too far ahead of a neighbour: yield and drain again, same epoch.
        if bounded
            && senders.iter().any(|&t| e > peer_epoch[t].saturating_add(MAX_LEAD))
            && !lost_any(cx.transport)
        {
            continue;
        }

        // Smooth own rows against the local snapshot.
        for _ in 0..cx.opts.sweeps.max(1) {
            smoother.relax_range(a, cx.b, &mut block, &x, rs.clone());
            x[rs.clone()].copy_from_slice(&block);
        }

        // Own residual segment and its squared norm.
        a.residual_rows(rs.clone(), cx.b, &x, &mut r[rs.clone()]);
        let sumsq = vecops::sumsq_rows(rs.clone(), &r);

        // Outgoing data — suppressed wholesale by a drop fault (node loss).
        if cx.plan.is_some_and(|p| p.drops_write(s, e)) {
            cx.log_fault(probe, FaultKind::WriteDropped { grid: s as u32 });
        } else {
            let mut corrupt = cx.plan.and_then(|p| p.corruption(s, e));
            for &t in &neighbors {
                map.gather(s, t, &x, &mut wire);
                if let Some(kind) = corrupt.take() {
                    wire[0] = cx.plan.unwrap().corrupt_value(kind, wire[0], s, e);
                    cx.log_fault(probe, FaultKind::WriteCorrupted { grid: s as u32 });
                }
                let vals = wire.clone();
                let m = Msg::Halo { from: s as u32, epoch: e, ver, corr_seen, vals };
                cx.transport.send(s, t, m);
                team.sched_point(SchedPoint::RacyWrite);
            }
            // The segment reflects a correction only once every ghost it
            // read does too.
            let corr = senders.iter().fold(corr_seen, |m, &t| m.min(ghost_corr[t]));
            let mut seg = r[rs.clone()].to_vec();
            if let Some(kind) = corrupt.take() {
                seg[0] = cx.plan.unwrap().corrupt_value(kind, seg[0], s, e);
                cx.log_fault(probe, FaultKind::WriteCorrupted { grid: s as u32 });
            }
            cx.transport.send(
                s,
                hub,
                Msg::Residual { from: s as u32, epoch: e, ver, corr_seen: corr, vals: seg },
            );
            cx.transport.send(s, hub, Msg::PartialNorm { from: s as u32, epoch: e, ver, sumsq });
            if let Some(rc) = rec {
                if rc.checkpoint_every > 0 && e % rc.checkpoint_every == 0 {
                    let vals = x[rs.clone()].to_vec();
                    let m = Msg::Checkpoint { from: s as u32, epoch: e, ver, vals };
                    cx.transport.send(s, hub, m);
                }
            }
            team.sched_point(SchedPoint::RacyWrite);
        }

        epochs_done = e + 1;
        if probe.enabled() {
            probe.correction(team.global_rank, s, e as usize, cx.now(), sumsq.sqrt());
        }
    }

    if !silent {
        if !stopped {
            // Leaving for good (budget or crash): final values, stamped
            // epoch `u64::MAX`, so no neighbour waits on this shard again.
            for &t in &neighbors {
                map.gather(s, t, &x, &mut wire);
                let vals = wire.clone();
                let m =
                    Msg::Halo { from: s as u32, epoch: u64::MAX, ver, corr_seen: u64::MAX, vals };
                cx.transport.send(s, t, m);
            }
        }
        // Terminal control: even a budget-exhausted shard's `Done` reaches
        // the hub so the run always terminates.
        cx.transport.send(s, hub, Msg::Done { from: s as u32 });
        // Publish the owned segment of the solution (disjoint ranges; the
        // join provides the release/acquire edge).
        unsafe { cx.out.slice_mut(rs.clone()) }.copy_from_slice(&x[rs]);
    }
    cx.shard_epochs[s].store(epochs_done, Ordering::Release);
    *cx.shard_exit[s].lock().unwrap() = stopped.then_some(corr_seen);
}

/// A shard rank as the hub sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Peer {
    /// Heard from (or expected) recently; participates in gates and
    /// broadcasts.
    Live,
    /// Sent `Done` — a clean exit, rows published.
    Finished,
    /// Declared dead by the failure detector — rows adopted or frozen,
    /// every later message from it discarded.
    Dead,
}

/// The hub: residual assembly, coarse cycles, the norm reduction, failure
/// detection, row adoption, the reliable control plane, and termination.
fn hub_worker<P: Probe + ?Sized>(cx: &Shared<'_>, probe: &P, team: &TeamCtx<'_>) {
    let s_count = cx.map.n_shards();
    let hub = s_count;
    let n = cx.b.len();
    let a = cx.setup.a(0);
    let has_coarse = cx.setup.n_levels() > 1;
    let tol = cx.opts.tolerance;
    let rec = cx.opts.recovery;

    let mut map = cx.map.clone();
    let carry = cx.hub_out.lock().unwrap().carry.take();
    let HubCarry { mut r_asm, mut have, mut used, mut acks, mut cycles, mut reducer } = carry
        .unwrap_or_else(|| HubCarry {
            r_asm: vec![0.0; n],
            have: vec![None; s_count],
            used: vec![None; s_count],
            acks: vec![0; s_count],
            cycles: 0,
            reducer: NormReducer::new(s_count, cx.norm_b),
        });
    let mut c = vec![0.0; n];
    let mut ws = Workspace::new(cx.setup);
    // A shard that left for good in an earlier launch does not run again.
    let mut peer: Vec<Peer> = (cx.launch.resume.iter())
        .map(|r| if r.is_some() { Peer::Live } else { Peer::Finished })
        .collect();
    let mut terminated = peer.iter().filter(|&&p| p == Peer::Finished).count();
    let mut stop_sent = false;

    // Recovery state. Geometry version = adoptions applied; data messages
    // tagged with any other version are stale and discarded.
    let mut hub_ver: u32 = 0;
    let mut report = RecoveryReport::default();
    let start_ns = cx.now();
    let mut last_ns: Vec<u64> = vec![start_ns; s_count];
    // Fabric-event clock: every message the hub processes ticks it once. A
    // shard's progress silence is measured against this clock — "the hub
    // heard this much total traffic with nothing from s" — which stays
    // deterministic under `VirtualSched` and, unlike a cross-shard epoch
    // gap, does not evict healthy shards that legitimately run slower
    // (interior shards drain about twice the halo traffic of edge shards).
    let mut events: u64 = 0;
    let mut last_event: Vec<u64> = vec![0; s_count];
    // One epoch of a live shard's fabric traffic is ~4 messages; a payload
    // unacked past a full epoch of everyone's traffic is worth resending
    // even if the clock never advanced (busy drains freeze a VirtualClock).
    let rto_ev = 4 * s_count as u64;
    let mut rel_tx: Vec<ReliableSender> = match &rec {
        Some(r) => (0..s_count).map(|_| ReliableSender::new(r, rto_ev)).collect(),
        None => Vec::new(),
    };
    // Freshest accepted checkpoint values per row, and per shard the epoch
    // of its last accepted checkpoint.
    let mut ckpt = vec![0.0; n];
    let mut ckpt_epoch: Vec<Option<u64>> = vec![None; s_count];

    while terminated < s_count {
        team.sched_point(SchedPoint::Yield);
        let mut received_any = false;
        // With recovery armed the drain is burst-bounded: a fabric that
        // never pauses would otherwise starve the failure detector (and the
        // correction path) for the whole solve. Undefended keeps the
        // unbounded drain, bit-identical to the pre-recovery model.
        let mut burst = if rec.is_some() { 8 * s_count + 16 } else { usize::MAX };
        while burst > 0 {
            let Some(msg) = cx.transport.try_recv(hub) else { break };
            burst -= 1;
            received_any = true;
            team.sched_point(SchedPoint::RacyRead);
            if rec.is_some() {
                // Liveness bookkeeping: any message from a live shard —
                // even one tagged with a stale geometry version — proves
                // the shard is running.
                events += 1;
                let heard = match &msg {
                    Msg::Residual { from, .. }
                    | Msg::PartialNorm { from, .. }
                    | Msg::Checkpoint { from, .. }
                    | Msg::Ack { from, .. }
                    | Msg::Done { from } => Some(*from as usize),
                    _ => None,
                };
                if let Some(f) = heard {
                    if peer[f] == Peer::Dead {
                        continue; // fenced: a zombie's messages are void
                    }
                    last_ns[f] = cx.now();
                    last_event[f] = events;
                }
            }
            match msg {
                Msg::Residual { from, epoch, ver, corr_seen, vals } => {
                    if ver != hub_ver {
                        continue; // stale geometry
                    }
                    let f = from as usize;
                    let rs = map.range(f);
                    if vals.len() == rs.len() && vals.iter().all(|v| v.is_finite()) {
                        // Reordering can deliver an older segment after a
                        // newer one; keep only the freshest.
                        if have[f].is_none_or(|h| epoch > h) {
                            r_asm[rs].copy_from_slice(&vals);
                            have[f] = Some(epoch);
                            acks[f] = corr_seen;
                        }
                    } else {
                        cx.log_fault(probe, FaultKind::GuardTripped { grid: from });
                    }
                }
                // A partial norm only covers the rows its sender owned
                // under `ver`'s geometry; mixing coverage would publish a
                // wrong global norm.
                Msg::PartialNorm { epoch, ver, sumsq, .. }
                    if sumsq.is_finite() && ver == hub_ver =>
                {
                    reducer.offer(epoch, sumsq);
                }
                Msg::Checkpoint { from, epoch, ver, vals } => {
                    let f = from as usize;
                    if ver == hub_ver && peer[f] == Peer::Live {
                        let rs = map.range(f);
                        if vals.len() == rs.len()
                            && vals.iter().all(|v| v.is_finite())
                            && ckpt_epoch[f].is_none_or(|p| epoch > p)
                        {
                            ckpt[rs].copy_from_slice(&vals);
                            ckpt_epoch[f] = Some(epoch);
                            report.checkpoints += 1;
                        }
                    }
                }
                Msg::Ack { from, seq } => {
                    let f = from as usize;
                    if rec.is_some() && peer[f] == Peer::Live {
                        rel_tx[f].on_ack(seq);
                        report.acks += 1;
                    }
                }
                Msg::Done { from } => {
                    let f = from as usize;
                    if peer[f] == Peer::Live {
                        peer[f] = Peer::Finished;
                        terminated += 1;
                        if rec.is_some() {
                            rel_tx[f].abandon();
                        }
                    }
                }
                // Halo/Correction/NormComplete/Stop are never hub-bound;
                // non-finite partial norms are discarded.
                _ => {}
            }
        }

        // Publish every newly completed reduction (strictly increasing
        // epochs), broadcast it, and stop on tolerance.
        while let Some(red) = reducer.try_complete() {
            cx.reductions.lock().unwrap().push(red);
            if probe.enabled() {
                probe.residual_sample(cx.now(), red.relres);
            }
            for (t, _) in peer.iter().enumerate().filter(|(_, &p)| p == Peer::Live) {
                let m = Msg::NormComplete { epoch: red.epoch, relres: red.relres };
                cx.transport.send(hub, t, m);
            }
            if !stop_sent && tol.is_some_and(|t| red.relres < t) {
                cx.stop_flag.store(true, Ordering::Release);
                stop_sent = true;
                for (t, _) in peer.iter().enumerate().filter(|(_, &p)| p == Peer::Live) {
                    let now_ns = cx.now();
                    let m = match rel_tx.get_mut(t) {
                        Some(tx) => tx.send(Msg::Stop, now_ns, events),
                        None => Msg::Stop,
                    };
                    cx.transport.send(hub, t, m);
                }
            }
        }

        // The recovery layer: idle pacing, retransmission, the failure
        // detector, and row adoption.
        if let Some(r) = &rec {
            if !received_any {
                // An empty drain advances the clock — this is what walks a
                // `VirtualClock` toward the silence deadline and bounds the
                // everything-crashed case in real time.
                cx.clock.sleep(r.poll);
            }
            let now_ns = cx.now();
            for t in (0..s_count).filter(|&t| peer[t] == Peer::Live) {
                for m in rel_tx[t].due(now_ns, events) {
                    report.retransmits += 1;
                    cx.transport.send(hub, t, m);
                }
            }

            // The failure detector. Progress-based silence: the fabric
            // delivered `silence_epochs` epochs' worth of traffic (a live
            // shard sends the hub ~4 messages per epoch) with nothing from
            // the silent shard. Disabled once `Stop` went out — traffic
            // stops then, and a slow finisher is not a death. Clock-based
            // silence and retransmit exhaustion back it up.
            let silent_events = r.silence_epochs.max(1).saturating_mul(4 * s_count as u64);
            let silence_ns = r.silence.as_nanos() as u64;
            for s in 0..s_count {
                if peer[s] != Peer::Live {
                    continue;
                }
                let gap = !stop_sent && events.saturating_sub(last_event[s]) >= silent_events;
                let quiet = now_ns.saturating_sub(last_ns[s]) >= silence_ns;
                let exhausted = rel_tx[s].exhausted(now_ns, events);
                if !(gap || quiet || exhausted) {
                    continue;
                }

                // Declare the death.
                peer[s] = Peer::Dead;
                terminated += 1;
                report.dead_shards.push(s as u32);
                cx.log_fault(probe, FaultKind::ShardDeclaredDead { shard: s as u32 });
                rel_tx[s].abandon();
                have[s] = None;
                // Fence a potential false positive: an evicted zombie
                // exits silently instead of publishing adopted-away rows.
                cx.transport.send(hub, s, Msg::Evict);
                report.evictions += 1;
                // Survivor coverage changes: expect one fewer part and
                // discard mixed-coverage pending epochs.
                reducer.retire_part();
                reducer.clear_pending();

                if !r.adopt || stop_sent {
                    continue;
                }
                // Adopt the rows to the nearest live shard whose path to
                // the dead range crosses only already-emptied ranges.
                let adopter = (1..s_count)
                    .flat_map(|d| [s.checked_sub(d), s.checked_add(d).filter(|&t| t < s_count)])
                    .flatten()
                    .find(|&t| {
                        let (lo, hi) = if t < s { (t, s) } else { (s, t) };
                        peer[t] == Peer::Live && (lo + 1..hi).all(|k| map.range(k).is_empty())
                    });
                let Some(adopter) = adopter else {
                    continue;
                };
                let dead_range = map.range(s);
                let seed_vals: Vec<f64> = if ckpt_epoch[s].is_some() {
                    ckpt[dead_range.clone()].to_vec()
                } else {
                    Vec::new()
                };
                map.adopt(a, s, adopter);
                let index = hub_ver;
                hub_ver += 1;
                report.adoptions.push((s as u32, adopter as u32));
                cx.log_fault(probe, FaultKind::RowsAdopted { from: s as u32, to: adopter as u32 });
                for t in (0..s_count).filter(|&t| peer[t] == Peer::Live) {
                    let vals = if t == adopter { seed_vals.clone() } else { Vec::new() };
                    let payload =
                        Msg::Adopt { index, dead: s as u32, adopter: adopter as u32, vals };
                    let wire = rel_tx[t].send(payload, now_ns, events);
                    cx.transport.send(hub, t, wire);
                }
            }
        }

        if stop_sent || !has_coarse || peer.iter().all(|&p| p != Peer::Live) {
            continue;
        }
        // Rows nobody updates any more — a shard that left for good, or
        // died with its rows not adopted — keep a frozen residual segment;
        // correcting from it would feed the same residual in again and
        // again.
        if (0..s_count).any(|t| peer[t] != Peer::Live && !map.range(t).is_empty()) {
            continue;
        }
        // Correct only from a caught-up snapshot: a burst-capped drain that
        // did not run dry left newer residuals queued, and a correction
        // computed from the stale assembly would overshoot what the shards
        // have since smoothed away. (Undefended drains are unbounded, so
        // `burst` is always positive there and this never skips.)
        if burst == 0 {
            continue;
        }

        // Correct only from residuals that fully reflect the previous
        // correction — *including through halos*. A residual sent one epoch
        // after a correction still carries pre-correction ghost values in
        // its cross-shard terms, and correcting the same smooth error twice
        // is exactly the overshoot that destabilises a hot hub. Two epochs
        // suffice: one for every neighbour to apply the correction and send
        // halos, one to smooth against the corrected ghosts.
        let fresh = (0..s_count).all(|t| {
            peer[t] != Peer::Live
                || match (have[t], used[t]) {
                    (Some(h), Some(u)) => h >= u + 2,
                    (Some(_), None) => true,
                    (None, _) => false,
                }
        });
        if !fresh {
            continue;
        }
        // …and every assembled segment reflects the previous correction, on
        // its own rows and in every ghost it read. Only where a correction
        // can be lost — recovery armed, or a transport that has dropped or
        // overflowed a message — wait two more epochs at most, then assume
        // it was lost and move on rather than stall forever.
        let acked = (0..s_count).all(|t| peer[t] != Peer::Live || acks[t] >= cycles);
        let patient = (0..s_count).all(|t| {
            peer[t] != Peer::Live
                || match (have[t], used[t]) {
                    (Some(h), Some(u)) => h >= u + 4,
                    (Some(h), None) => h >= 1,
                    (None, _) => false,
                }
        });
        if !(acked || patient && (rec.is_some() || lost_any(cx.transport))) {
            continue;
        }

        if coarse_correction(cx.setup, &r_asm, &mut c, &mut ws) {
            let now_ns = if rec.is_some() { cx.now() } else { 0 };
            for (t, _) in peer.iter().enumerate().filter(|(_, &p)| p == Peer::Live) {
                let rs = map.range(t);
                let vals: Vec<f64> = c[rs].iter().map(|&v| v * cx.opts.damping).collect();
                let payload = Msg::Correction { cycle: cycles, ver: hub_ver, vals };
                let m = match rel_tx.get_mut(t) {
                    Some(tx) => {
                        // A fresher correction supersedes any unacked older
                        // one — retransmitting a stale correction onto a
                        // nearly-converged iterate would undo progress.
                        tx.supersede(|m| matches!(m, Msg::Correction { .. }));
                        tx.send(payload, now_ns, events)
                    }
                    None => payload,
                };
                cx.transport.send(hub, t, m);
            }
            team.sched_point(SchedPoint::RacyWrite);
            used.copy_from_slice(&have);
            cycles += 1;
            if probe.enabled() {
                probe.correction(
                    team.global_rank,
                    s_count,
                    (cycles - 1) as usize,
                    cx.now(),
                    f64::NAN,
                );
            }
        }
    }
    cx.hub_cycles.store(cycles, Ordering::Release);
    cx.hub_out.lock().unwrap().carry = Some(HubCarry { r_asm, have, used, acks, cycles, reducer });

    if rec.is_some() {
        // Hand the recovery ledger — plus checkpoint segments for dead,
        // never-adopted rows — across the join. The backfill happens at
        // quiescence so it cannot race a zombie's publication.
        let mut out = cx.hub_out.lock().unwrap();
        for &s in &report.dead_shards {
            let s = s as usize;
            let range = map.range(s);
            if !range.is_empty() && ckpt_epoch[s].is_some() {
                out.backfill.push((range.clone(), ckpt[range].to_vec()));
            }
        }
        out.report = report;
    }
}

/// Whether the fabric has lost a message so far (dropped or overflowed).
fn lost_any(transport: &dyn Transport) -> bool {
    let stats = transport.stats();
    stats.total_dropped() + stats.total_overflowed() > 0
}
