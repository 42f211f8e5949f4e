//! The long-lived solver service and its fault-tolerant plane.
//!
//! # Lock discipline: snapshot → dispatch → publish
//!
//! [`SolverService::process_batch`] holds the service-wide mutex only for
//! *admission* (deadline expiry, batch selection, breaker checks, cache
//! lookup) and *publication* (writing outcomes, stats, breaker
//! transitions). The numeric solve itself runs under the dispatched cache
//! entry's own lock, so `submit`/`status`/`take` — and dispatches of other
//! matrices — never stall behind a long solve. Same-fingerprint dispatches
//! serialize on the entry lock, which is exactly the ordering the blocked
//! workspace needs. Locks are always taken service-then-entry, never the
//! reverse, so the two can never deadlock.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use asyncmg_core::{
    solve_mult_batch_with, BatchSpec, RecoveryOptions, RetryPolicy, SolveError, Solver,
};
use asyncmg_sparse::{vecops, Csr};
use asyncmg_telemetry::{CacheEvent, ServiceEvent, ServiceStats};
use asyncmg_threads::{Clock, OsClock};

use crate::cache::{CachedSetup, HierarchyCache};
use crate::chaos::corrupt_value;
use crate::request::{
    Priority, Rejection, RequestStatus, ResilienceOptions, ServiceError, ServiceOptions,
    SolveRequest, SolveResponse, Stopped, SubmitError, Ticket, TicketState,
};

/// A queued request after submit-time validation.
struct Queued {
    ticket: u64,
    fingerprint: u64,
    a: Arc<Csr>,
    b: Vec<f64>,
    spec: BatchSpec,
    /// Absolute service-clock deadline, `u64::MAX` when none — also the
    /// slack ordering key (smaller deadline = less slack).
    deadline_ns: u64,
    priority: Priority,
}

/// How many recently fingerprinted matrices to remember by identity.
const FP_MEMO_CAP: usize = 8;

/// Per-fingerprint circuit breaker state.
#[derive(Clone, Copy, Debug, PartialEq)]
enum BreakerState {
    /// Serving normally; `failures` consecutive failed dispatches so far.
    Closed,
    /// Failing fast until `until_ns` on the service clock.
    Open { until_ns: u64 },
    /// Backoff elapsed; the next dispatch runs as a probe.
    HalfOpen,
}

#[derive(Clone, Copy, Debug)]
struct Breaker {
    state: BreakerState,
    /// Consecutive failed dispatches (reset by any clean dispatch).
    failures: u32,
    /// Times this breaker has opened (doubles the backoff each time).
    trips: u32,
}

impl Breaker {
    fn new() -> Self {
        Breaker { state: BreakerState::Closed, failures: 0, trips: 0 }
    }
}

/// Everything one dispatch carries out of the admission phase.
struct Dispatch {
    fingerprint: u64,
    batch: Vec<Queued>,
    entry: Arc<Mutex<CachedSetup>>,
    hit: bool,
    dispatch: u64,
    /// Snapshot of the resilience configuration (None = undefended).
    resilience: Option<ResilienceOptions>,
    /// Whether this fingerprint is under suspicion — a half-open breaker
    /// probe, or a fingerprint that failed before. Arms the defended
    /// recovery posture in rescue sessions.
    probe: bool,
}

struct Inner {
    opts: ServiceOptions,
    cache: HierarchyCache,
    queue: Vec<Queued>,
    /// Resolved outcomes keyed by ticket id. A `BTreeMap` so the bounded
    /// store can evict the *oldest* unclaimed outcome deterministically
    /// (ticket ids are issued monotonically).
    resolved: BTreeMap<u64, RequestStatus>,
    /// Tickets popped from the queue and currently solving off-lock; they
    /// still read as [`TicketState::Queued`].
    in_flight: Vec<u64>,
    next_ticket: u64,
    /// Monotone dispatch counter (the chaos-plan key).
    dispatches: u64,
    stats: ServiceStats,
    /// Memoized content fingerprints keyed by matrix allocation identity,
    /// so resubmitting the same `Arc<Csr>` skips rehashing the matrix.
    fp_memo: Vec<(Weak<Csr>, u64)>,
    breakers: HashMap<u64, Breaker>,
    events: Vec<ServiceEvent>,
}

impl Inner {
    /// Content fingerprint of `a`, memoized by allocation identity. The
    /// `Weak` guard keeps a recycled address from ever aliasing a freed
    /// matrix: an entry only matches while its original `Arc` is alive,
    /// and `Arc::ptr_eq` on a live upgrade pins the exact allocation.
    /// Memoization never changes the value, only who pays for hashing.
    fn fingerprint_of(&mut self, a: &Arc<Csr>) -> u64 {
        self.fp_memo.retain(|(w, _)| w.strong_count() > 0);
        for (w, fp) in &self.fp_memo {
            if let Some(live) = w.upgrade() {
                if Arc::ptr_eq(&live, a) {
                    return *fp;
                }
            }
        }
        let fp = a.fingerprint();
        if self.fp_memo.len() >= FP_MEMO_CAP {
            self.fp_memo.remove(0);
        }
        self.fp_memo.push((Arc::downgrade(a), fp));
        fp
    }

    /// Stores an outcome, evicting the oldest unclaimed one beyond the
    /// resolved-store capacity.
    fn resolve(&mut self, ticket: u64, status: RequestStatus) {
        self.resolved.insert(ticket, status);
        let cap = self.opts.resolved_capacity.max(1);
        while self.resolved.len() > cap {
            self.resolved.pop_first();
            self.stats.resolved_evicted += 1;
        }
    }

    /// Mirrors the cache's counters into the stats snapshot.
    fn sync_cache_counters(&mut self) {
        let (h, m, ev) = self.cache.counters();
        self.stats.cache_hits = h;
        self.stats.cache_misses = m;
        self.stats.evictions = ev;
    }

    /// Records a failed dispatch of `fingerprint` (defended services
    /// only): opens the breaker at the threshold, or re-opens a half-open
    /// one with doubled backoff.
    fn breaker_failure(&mut self, fingerprint: u64, now_ns: u64) {
        let Some(res) = self.opts.resilience.as_ref() else { return };
        let threshold = res.breaker_threshold.max(1);
        let backoff_ns = res.breaker_backoff.as_nanos() as u64;
        let b = self.breakers.entry(fingerprint).or_insert_with(Breaker::new);
        b.failures += 1;
        let should_open = matches!(b.state, BreakerState::HalfOpen) || b.failures >= threshold;
        if should_open && !matches!(b.state, BreakerState::Open { .. }) {
            b.trips += 1;
            let until_ns =
                now_ns.saturating_add(backoff_ns.saturating_mul(1u64 << (b.trips - 1).min(20)));
            b.state = BreakerState::Open { until_ns };
            self.stats.breaker_opened += 1;
            self.events.push(ServiceEvent::BreakerOpened {
                fingerprint,
                until_ns,
                failures: b.failures,
            });
        }
    }

    /// Records a clean dispatch of `fingerprint`: closes a half-open
    /// breaker and resets the failure streak.
    fn breaker_success(&mut self, fingerprint: u64) {
        if self.opts.resilience.is_none() {
            return;
        }
        if let Some(b) = self.breakers.get_mut(&fingerprint) {
            if b.state == BreakerState::HalfOpen {
                b.state = BreakerState::Closed;
                self.stats.breaker_closed += 1;
                self.events.push(ServiceEvent::BreakerClosed { fingerprint });
            }
            b.failures = 0;
        }
    }

    /// Drops `tickets` from the in-flight set.
    fn land(&mut self, tickets: &[u64]) {
        self.in_flight.retain(|t| !tickets.contains(t));
    }
}

/// Splitmix64 finalizer: derives a rescue-session seed from the service
/// seed and the ticket id, so every rescue replays bit-identically yet
/// decorrelated from its neighbours.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A long-lived solver front end.
///
/// The service owns what [`Solver`](asyncmg_core::Solver) borrows per call:
/// AMG hierarchies (cached by matrix content fingerprint), blocked
/// workspaces, and the clock. Callers [`submit`](SolverService::submit)
/// cheap [`SolveRequest`] descriptions; each
/// [`process_batch`](SolverService::process_batch) dispatches the most
/// urgent queued matrix, coalescing up to `batch_window` same-matrix
/// right-hand sides into one blocked multiplicative solve. Batching is
/// *bit-transparent*: the blocked kernels keep per-column accumulation in
/// the exact order of the single-RHS path, so a request's solution is
/// bit-identical no matter how many neighbours rode along.
///
/// Admission control is deadline-aware. A request may carry a deadline on
/// the service clock; at dispatch the service rejects requests whose
/// deadline has already passed, and requests it estimates (from a running
/// per-matrix cost average) cannot finish in time. With a
/// [`VirtualClock`](asyncmg_threads::VirtualClock) the whole pipeline is
/// deterministic — solves take zero virtual time, so rejection depends only
/// on explicit `advance` calls, and the cache event log and stats replay
/// exactly.
///
/// With [`ServiceOptions::resilience`] configured the service is
/// *defended*: cached hierarchies are checksummed at build and re-verified
/// on every hit (poisoned entries quarantine and rebuild), sick batch
/// columns are split from their healthy batch-mates and retried solo down
/// the degradation ladder under a deadline-derived
/// [`RetryPolicy`](asyncmg_core::RetryPolicy), and repeated failed
/// dispatches of one fingerprint open a per-fingerprint circuit breaker
/// ([`Rejection::CircuitOpen`] fail-fast with a retry-after hint, half-open
/// probes after clock-based backoff). Every transition lands in
/// [`service_events`](SolverService::service_events). An undefended
/// service runs the classic dispatch path bit-identically.
pub struct SolverService {
    inner: Mutex<Inner>,
    clock: Arc<dyn Clock + Send + Sync>,
}

impl SolverService {
    /// A service on the OS clock.
    pub fn new(opts: ServiceOptions) -> Self {
        SolverService::with_clock(opts, Arc::new(OsClock::new()))
    }

    /// A service reading time (for deadlines, breaker backoff, and cost
    /// estimates) from the given clock.
    pub fn with_clock(opts: ServiceOptions, clock: Arc<dyn Clock + Send + Sync>) -> Self {
        assert!(opts.batch_window >= 1, "batch window must be at least 1");
        assert!(opts.queue_capacity >= 1, "queue capacity must be at least 1");
        assert!(opts.resolved_capacity >= 1, "resolved capacity must be at least 1");
        let cache = HierarchyCache::new(opts.cache_capacity);
        SolverService {
            inner: Mutex::new(Inner {
                opts,
                cache,
                queue: Vec::new(),
                resolved: BTreeMap::new(),
                in_flight: Vec::new(),
                next_ticket: 0,
                dispatches: 0,
                stats: ServiceStats::default(),
                fp_memo: Vec::new(),
                breakers: HashMap::new(),
                events: Vec::new(),
            }),
            clock,
        }
    }

    /// Validates and enqueues a request.
    ///
    /// With [`ServiceOptions::shed_high_water`] set, pushing the queue past
    /// the high-water mark sheds the globally worst victim — lowest
    /// [`Priority`], then most slack, then youngest — as
    /// [`Rejection::Shed`]. The victim may be the request just submitted;
    /// either way its ticket resolves (never silently dropped), so `Ok`
    /// here means "admitted to the ticket space", not "will be solved".
    pub fn submit(&self, req: SolveRequest) -> Result<Ticket, SubmitError> {
        let n = req.a.nrows();
        if req.b.len() != n {
            return Err(SolveError::RhsLength { expected: n, got: req.b.len() }.into());
        }
        if let Some(i) = req.b.iter().position(|v| !v.is_finite()) {
            return Err(SolveError::NonFiniteRhs { index: i }.into());
        }
        if req.t_max == 0 {
            return Err(SolveError::InvalidOptions("t_max must be at least 1".into()).into());
        }

        let mut inner = self.inner.lock().unwrap();
        if inner.queue.len() >= inner.opts.queue_capacity {
            inner.stats.rejected_queue_full += 1;
            return Err(SubmitError::QueueFull { capacity: inner.opts.queue_capacity });
        }
        let deadline_ns = match req.deadline {
            Some(d) => self.clock.now_ns().saturating_add(d.as_nanos() as u64),
            None => u64::MAX,
        };
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        let fingerprint = inner.fingerprint_of(&req.a);
        inner.queue.push(Queued {
            ticket,
            fingerprint,
            a: req.a,
            b: req.b,
            spec: BatchSpec { tol: req.tolerance, t_max: req.t_max },
            deadline_ns,
            priority: req.priority,
        });

        // Graceful overload shedding at the high-water mark.
        if let Some(hw) = inner.opts.shed_high_water {
            if inner.queue.len() > hw {
                let victim = (0..inner.queue.len())
                    .min_by_key(|&i| {
                        let q = &inner.queue[i];
                        (q.priority, std::cmp::Reverse(q.deadline_ns), std::cmp::Reverse(q.ticket))
                    })
                    .expect("queue is non-empty above the high-water mark");
                let shed = inner.queue.remove(victim);
                let queue_depth = inner.queue.len();
                inner
                    .resolve(shed.ticket, RequestStatus::Rejected(Rejection::Shed { queue_depth }));
                inner.stats.shed += 1;
                inner.events.push(ServiceEvent::Shed { ticket: shed.ticket });
            }
        }
        inner.stats.queue_depth = inner.queue.len() as u64;
        inner.stats.max_queue_depth = inner.stats.max_queue_depth.max(inner.stats.queue_depth);
        Ok(Ticket(ticket))
    }

    /// Dispatches one batch: expires overdue requests, picks the queued
    /// matrix with the least slack, coalesces up to `batch_window` of its
    /// right-hand sides, and runs one blocked solve — off the service
    /// lock. Returns the number of requests resolved (completed or
    /// rejected); 0 means the queue was empty.
    pub fn process_batch(&self) -> usize {
        // ---- Phase 1: admission, under the service lock. ----
        let (dispatch, mut resolved_count) = {
            let mut guard = self.inner.lock().unwrap();
            let inner = &mut *guard;
            if inner.queue.is_empty() {
                return 0;
            }
            let now = self.clock.now_ns();
            let mut resolved_count = 0usize;

            // Expire requests whose deadline has already passed.
            let mut i = 0;
            while i < inner.queue.len() {
                if inner.queue[i].deadline_ns <= now {
                    let q = inner.queue.remove(i);
                    inner.resolve(
                        q.ticket,
                        RequestStatus::Rejected(Rejection::DeadlineExpired {
                            deadline_ns: q.deadline_ns,
                            now_ns: now,
                        }),
                    );
                    inner.stats.rejected_deadline += 1;
                    resolved_count += 1;
                } else {
                    i += 1;
                }
            }
            if inner.queue.is_empty() {
                inner.stats.queue_depth = 0;
                return resolved_count;
            }

            // Least slack first; submission order breaks ties.
            inner.queue.sort_by_key(|q| (q.deadline_ns, q.ticket));
            let fp = inner.queue[0].fingerprint;
            let window = inner.opts.batch_window;
            let mut batch: Vec<Queued> = Vec::new();
            let mut i = 0;
            while i < inner.queue.len() && batch.len() < window {
                if inner.queue[i].fingerprint == fp {
                    batch.push(inner.queue.remove(i));
                } else {
                    i += 1;
                }
            }
            inner.stats.queue_depth = inner.queue.len() as u64;

            let resilience = inner.opts.resilience.clone();

            // Circuit breaker: fail fast while open, probe when the
            // backoff has elapsed.
            let mut probe = false;
            if resilience.is_some() {
                if let Some(b) = inner.breakers.get_mut(&fp) {
                    if let BreakerState::Open { until_ns } = b.state {
                        if now < until_ns {
                            let retry_after_ns = until_ns - now;
                            for q in batch {
                                inner.resolve(
                                    q.ticket,
                                    RequestStatus::Rejected(Rejection::CircuitOpen {
                                        fingerprint: fp,
                                        retry_after_ns,
                                    }),
                                );
                                inner.stats.rejected_circuit_open += 1;
                                resolved_count += 1;
                            }
                            return resolved_count;
                        }
                        b.state = BreakerState::HalfOpen;
                        probe = true;
                        inner.events.push(ServiceEvent::BreakerHalfOpen { fingerprint: fp });
                    }
                }
            }

            let dispatch_no = inner.dispatches;
            inner.dispatches += 1;

            // Chaos: forced poisoning of the cached hierarchy about to be
            // dispatched.
            if let Some(chaos) = resilience.as_ref().and_then(|r| r.chaos.as_ref()) {
                if chaos.poisons(dispatch_no) {
                    inner.cache.poison(fp);
                }
            }

            let fp_faulted = inner.breakers.get(&fp).is_some_and(|b| b.failures > 0 || b.trips > 0);

            let (entry, hit) = match inner.cache.get_or_build(fp, &batch[0].a, &inner.opts) {
                Ok(pair) => pair,
                Err(e) => {
                    for q in batch {
                        inner.resolve(
                            q.ticket,
                            RequestStatus::Rejected(Rejection::BuildFailed(e.clone())),
                        );
                        resolved_count += 1;
                    }
                    inner.breaker_failure(fp, now);
                    inner.sync_cache_counters();
                    return resolved_count;
                }
            };
            inner.in_flight.extend(batch.iter().map(|q| q.ticket));
            (
                Dispatch {
                    fingerprint: fp,
                    batch,
                    entry,
                    hit,
                    dispatch: dispatch_no,
                    resilience,
                    probe: probe || fp_faulted,
                },
                resolved_count,
            )
        };

        // ---- Phase 2: the numeric work, off the service lock. ----
        resolved_count += self.run_dispatch(dispatch);
        resolved_count
    }

    /// Runs one admitted dispatch: integrity check, the blocked solve,
    /// chaos injection, sick-column rescue, and publication.
    fn run_dispatch(&self, d: Dispatch) -> usize {
        let Dispatch { fingerprint: fp, batch, mut entry, mut hit, dispatch, resilience, .. } = d;
        let tickets: Vec<u64> = batch.iter().map(|q| q.ticket).collect();
        let defended = resilience.is_some();
        let mut primary_failed = false;
        let mut resolved_count = 0usize;

        let mut entry_guard = entry.lock().unwrap();

        // Cache integrity: cheap re-verify on every hit; quarantine and
        // rebuild poisoned entries (defended services only — verification
        // is the only defended step that touches the undefended path, and
        // it reads, never writes, so solutions stay bit-identical).
        if defended && hit && !entry_guard.verify() {
            drop(entry_guard);
            let rebuilt = {
                let mut guard = self.inner.lock().unwrap();
                let inner = &mut *guard;
                inner.cache.quarantine(fp);
                inner.stats.quarantined += 1;
                inner.events.push(ServiceEvent::Quarantined { fingerprint: fp });
                primary_failed = true;
                match inner.cache.get_or_build(fp, &batch[0].a, &inner.opts) {
                    Ok((e, _)) => {
                        inner.sync_cache_counters();
                        e
                    }
                    Err(e) => {
                        for q in &batch {
                            inner.resolve(
                                q.ticket,
                                RequestStatus::Rejected(Rejection::BuildFailed(e.clone())),
                            );
                            resolved_count += 1;
                        }
                        inner.breaker_failure(fp, self.clock.now_ns());
                        inner.land(&tickets);
                        inner.sync_cache_counters();
                        return resolved_count;
                    }
                }
            };
            entry = rebuilt;
            entry_guard = entry.lock().unwrap();
            hit = false;
        }

        // Deadline feasibility from the per-matrix cost average: a request
        // that cannot finish its full cycle budget in its remaining slack
        // is rejected instead of started. An estimate of 0 (no timed
        // dispatch yet — always the case under a virtual clock) admits.
        let now = self.clock.now_ns();
        let ema = entry_guard.ema_ns_per_cycle_rhs;
        let mut infeasible: Vec<(u64, Rejection)> = Vec::new();
        let mut batch = batch;
        if ema > 0.0 {
            batch.retain(|q| {
                if q.deadline_ns == u64::MAX {
                    return true;
                }
                let estimated_ns = (ema * q.spec.t_max as f64) as u64;
                if now.saturating_add(estimated_ns) > q.deadline_ns {
                    infeasible.push((
                        q.ticket,
                        Rejection::DeadlineInfeasible {
                            deadline_ns: q.deadline_ns,
                            estimated_ns,
                            now_ns: now,
                        },
                    ));
                    false
                } else {
                    true
                }
            });
        }
        if batch.is_empty() {
            drop(entry_guard);
            let mut guard = self.inner.lock().unwrap();
            let inner = &mut *guard;
            for (t, rej) in infeasible {
                inner.resolve(t, RequestStatus::Rejected(rej));
                inner.stats.rejected_deadline += 1;
                resolved_count += 1;
            }
            inner.land(&tickets);
            inner.sync_cache_counters();
            return resolved_count;
        }

        // One blocked solve over the coalesced right-hand sides.
        let k = batch.len();
        let n = entry_guard.setup.n();
        let mut b = vec![0.0; n * k];
        let mut specs = Vec::with_capacity(k);
        for (c, q) in batch.iter().enumerate() {
            b[c * n..(c + 1) * n].copy_from_slice(&q.b);
            specs.push(q.spec);
        }
        let t0 = self.clock.now_ns();
        let mut result = {
            let CachedSetup { setup, scratch, .. } = &mut *entry_guard;
            scratch.ensure(setup, k);
            solve_mult_batch_with(setup, &b, &specs, scratch)
        };
        let elapsed = self.clock.now_ns().saturating_sub(t0);
        let total_cycles: usize = result.cycles.iter().sum();
        if elapsed > 0 && total_cycles > 0 {
            let per = elapsed as f64 / total_cycles as f64;
            entry_guard.ema_ns_per_cycle_rhs = if ema > 0.0 { 0.5 * ema + 0.5 * per } else { per };
        }

        // Chaos: corrupt one solution column of this dispatch, then
        // recompute its *true* residual so detection earns its keep.
        if let Some(chaos) = resilience.as_ref().and_then(|r| r.chaos.as_ref()) {
            if let Some((col, kind)) = chaos.corrupt_column(dispatch) {
                if col < k {
                    let v = &mut result.x[col * n];
                    *v = corrupt_value(kind, *v);
                    let mut r = vec![0.0; n];
                    entry_guard.setup.a(0).residual(
                        &b[col * n..(col + 1) * n],
                        &result.x[col * n..(col + 1) * n],
                        &mut r,
                    );
                    let nb = vecops::norm2(&b[col * n..(col + 1) * n]).max(1e-300);
                    result.relres[col] = vecops::norm2(&r) / nb;
                }
            }
        }

        // Batch fault isolation: non-finite / diverged columns are split
        // out and retried solo down the degradation ladder; healthy
        // batch-mates complete normally.
        let sick = if defended { result.sick_columns() } else { Vec::new() };
        primary_failed |= !sick.is_empty();
        let mut rescues: HashMap<usize, (RequestStatus, ServiceEvent, u32)> = HashMap::new();
        if let Some(res) = resilience.as_ref().filter(|_| !sick.is_empty()) {
            let clock_ref: &dyn Clock = &*self.clock;
            for &c in &sick {
                let q = &batch[c];
                let mut retry = RetryPolicy {
                    max_attempts: res.rescue_attempts.max(1),
                    backoff: res.rescue_backoff,
                    deadline: None,
                };
                if q.deadline_ns != u64::MAX {
                    let now = self.clock.now_ns();
                    if now >= q.deadline_ns {
                        rescues.insert(
                            c,
                            (
                                RequestStatus::Rejected(Rejection::DeadlineExpired {
                                    deadline_ns: q.deadline_ns,
                                    now_ns: now,
                                }),
                                ServiceEvent::Rescued {
                                    ticket: q.ticket,
                                    attempts: 0,
                                    converged: false,
                                },
                                0,
                            ),
                        );
                        continue;
                    }
                    // Remaining slack becomes the session deadline; the
                    // session splits it evenly over the attempts left.
                    retry.deadline = Some(Duration::from_nanos(q.deadline_ns - now));
                }
                let mut solver = Solver::new(&entry_guard.setup)
                    .threads(res.rescue_threads.max(1))
                    .t_max(q.spec.t_max)
                    .retry(retry)
                    .clock(clock_ref);
                if let Some(t) = q.spec.tol {
                    solver = solver.tolerance(t);
                }
                if let Some(seed) = res.session_seed {
                    solver = solver.session_seed(mix(seed, q.ticket));
                }
                if let Some(plan) = res.fault_plan.as_ref() {
                    solver = solver.fault_plan(plan);
                }
                if d.probe {
                    // A fault was observed on this fingerprint before:
                    // arm the defensive posture from the first attempt.
                    solver = solver.recovery(RecoveryOptions::defended());
                }
                let (status, attempts, converged) = match solver.try_fallback(&q.b) {
                    Ok(report) => {
                        let attempts = report.attempts.len() as u32;
                        if report.converged {
                            (
                                RequestStatus::Completed(SolveResponse {
                                    x: report.x,
                                    relres: report.relres,
                                    converged: q.spec.tol.is_some_and(|t| report.relres < t),
                                    stopped: if q.spec.tol.is_some() {
                                        Stopped::Tolerance
                                    } else {
                                        Stopped::Budget
                                    },
                                    cycles: result.cycles[c],
                                    history: result.history[c].clone(),
                                    cache_hit: hit,
                                    batch_size: k,
                                    rescued: true,
                                }),
                                attempts,
                                true,
                            )
                        } else {
                            (
                                RequestStatus::Rejected(Rejection::SolveFailed {
                                    relres: report.relres,
                                    attempts,
                                }),
                                attempts,
                                false,
                            )
                        }
                    }
                    // Session-level config errors cannot occur for a
                    // submit-validated request, but stay typed anyway.
                    Err(_) => (
                        RequestStatus::Rejected(Rejection::SolveFailed {
                            relres: f64::INFINITY,
                            attempts: 0,
                        }),
                        0,
                        false,
                    ),
                };
                rescues.insert(
                    c,
                    (
                        status,
                        ServiceEvent::Rescued { ticket: q.ticket, attempts, converged },
                        attempts,
                    ),
                );
            }
        }
        drop(entry_guard);

        // ---- Phase 3: publication, under the service lock. ----
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        for (t, rej) in infeasible {
            inner.resolve(t, RequestStatus::Rejected(rej));
            inner.stats.rejected_deadline += 1;
            resolved_count += 1;
        }
        for (c, q) in batch.iter().enumerate() {
            let status = match rescues.remove(&c) {
                Some((status, event, attempts)) => {
                    inner.events.push(event);
                    match &status {
                        RequestStatus::Completed(_) => {
                            inner.stats.rescued += 1;
                            inner.stats.retries += u64::from(attempts.saturating_sub(1));
                            inner.stats.completed += 1;
                        }
                        RequestStatus::Rejected(_) => {
                            inner.stats.rescue_failed += 1;
                            inner.stats.retries += u64::from(attempts.saturating_sub(1));
                        }
                    }
                    status
                }
                None => {
                    let relres = result.relres[c];
                    let converged = q.spec.tol.is_some_and(|t| relres < t);
                    inner.stats.completed += 1;
                    RequestStatus::Completed(SolveResponse {
                        x: result.x[c * n..(c + 1) * n].to_vec(),
                        relres,
                        converged,
                        stopped: if converged { Stopped::Tolerance } else { Stopped::Budget },
                        cycles: result.cycles[c],
                        history: result.history[c].clone(),
                        cache_hit: hit,
                        batch_size: k,
                        rescued: false,
                    })
                }
            };
            inner.resolve(q.ticket, status);
            resolved_count += 1;
        }
        inner.stats.batches += 1;
        inner.stats.batched_rhs += k as u64;
        if defended {
            if primary_failed {
                inner.breaker_failure(fp, self.clock.now_ns());
            } else {
                inner.breaker_success(fp);
            }
        }
        inner.land(&tickets);
        inner.sync_cache_counters();
        resolved_count
    }

    /// Processes batches until the queue is empty; returns the number of
    /// requests resolved.
    pub fn drain(&self) -> usize {
        let mut total = 0;
        loop {
            let n = self.process_batch();
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    /// Where `ticket` currently stands — every case distinguishable:
    /// never-issued tickets read [`TicketState::Unknown`], already-claimed
    /// (or evicted-unclaimed) ones read [`TicketState::Claimed`].
    pub fn status(&self, ticket: Ticket) -> TicketState {
        let inner = self.inner.lock().unwrap();
        if ticket.0 >= inner.next_ticket {
            return TicketState::Unknown;
        }
        if let Some(s) = inner.resolved.get(&ticket.0) {
            return TicketState::Ready(s.clone());
        }
        if inner.in_flight.contains(&ticket.0) || inner.queue.iter().any(|q| q.ticket == ticket.0) {
            return TicketState::Queued;
        }
        TicketState::Claimed
    }

    /// Removes and returns `ticket`'s outcome. A still-queued ticket
    /// returns [`TicketState::Queued`] and stays queued; taking twice
    /// returns [`TicketState::Claimed`] the second time.
    pub fn take(&self, ticket: Ticket) -> TicketState {
        let mut inner = self.inner.lock().unwrap();
        if ticket.0 >= inner.next_ticket {
            return TicketState::Unknown;
        }
        if let Some(s) = inner.resolved.remove(&ticket.0) {
            return TicketState::Ready(s);
        }
        if inner.in_flight.contains(&ticket.0) || inner.queue.iter().any(|q| q.ticket == ticket.0) {
            return TicketState::Queued;
        }
        TicketState::Claimed
    }

    /// Submits `req` and processes batches until it resolves.
    ///
    /// Other queued requests may resolve along the way; their outcomes stay
    /// claimable by ticket.
    pub fn solve(&self, req: SolveRequest) -> Result<SolveResponse, ServiceError> {
        let ticket = self.submit(req)?;
        loop {
            match self.take(ticket) {
                TicketState::Ready(RequestStatus::Completed(r)) => return Ok(r),
                TicketState::Ready(RequestStatus::Rejected(r)) => return Err(r.into()),
                TicketState::Queued => {
                    self.process_batch();
                }
                TicketState::Claimed | TicketState::Unknown => {
                    unreachable!("ticket resolved but outcome missing (resolved store too small?)")
                }
            }
        }
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.lock().unwrap().stats
    }

    /// The cache event log so far, in decision order.
    pub fn cache_events(&self) -> Vec<CacheEvent> {
        self.inner.lock().unwrap().cache.events().to_vec()
    }

    /// The fault-plane event log so far (breaker transitions, quarantines,
    /// sheds, rescues), in decision order. Empty for undefended services
    /// unless shedding is enabled.
    pub fn service_events(&self) -> Vec<ServiceEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// Number of hierarchies currently cached.
    pub fn cached_hierarchies(&self) -> usize {
        self.inner.lock().unwrap().cache.len()
    }
}
