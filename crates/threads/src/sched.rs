//! Schedule abstraction: where team workers touch real concurrency.
//!
//! The solvers of `asyncmg-core` interact with the outside world at a small
//! set of *scheduling points*: team and global barriers, acquisition of the
//! shared-write locks, racy reads/writes of the shared vectors, and the
//! voluntary yield between corrections. [`Sched`] abstracts exactly those
//! points, so the same solver code can run in two worlds:
//!
//! * [`OsSched`] — the production world. Barriers are [`SpinBarrier`]s,
//!   locks spin, yields call [`std::thread::yield_now`], and racy
//!   read/write points cost nothing. This is bit-for-bit the behaviour the
//!   solvers had before the abstraction existed.
//! * [`VirtualSched`] — the testing world. All workers still run on their
//!   own OS threads, but the scheduler admits **exactly one at a time**:
//!   every scheduling point hands control back to a seeded PRNG that picks
//!   the next runnable worker. The execution is logically single-threaded
//!   and therefore *deterministic*: the same seed replays the same
//!   interleaving, the same floating-point operation order, and the same
//!   telemetry event stream. A bounded-delay model (the paper's `δ`) can be
//!   injected at racy-read points by descheduling the reader for up to
//!   `max_steps` scheduling decisions.
//!
//! The virtual scheduler also turns liveness bugs into diagnostics: if no
//! worker is runnable and none is delayed, it panics with a dump of every
//! worker's wait state instead of hanging the test suite.

use crate::barrier::SpinBarrier;
use crate::clock::Clock;
use crate::fault::FaultPlan;
use crate::lock::SpinLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Condvar, Mutex, MutexGuard};

/// What kind of scheduling point a worker reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPoint {
    /// The worker is about to read racy shared state (a snapshot of the
    /// shared iterate or residual). Delay injection targets these points.
    RacyRead,
    /// The worker is about to write racy shared state.
    RacyWrite,
    /// A voluntary end-of-correction yield.
    Yield,
}

/// The points where team workers touch real concurrency.
///
/// Implementations must be callable from every worker thread. The `worker`
/// argument is always the caller's global rank.
pub trait Sched: Sync {
    /// Called once by [`run_teams_sched`] before any worker starts.
    fn launch(&self, team_sizes: &[usize]);

    /// Called by worker `worker` before its closure body runs.
    fn worker_start(&self, worker: usize);

    /// Called after worker `worker`'s closure returns (or unwinds, with
    /// `panicked` set).
    fn worker_exit(&self, worker: usize, panicked: bool);

    /// Synchronises the workers of team `team`.
    fn team_barrier(&self, worker: usize, team: usize);

    /// Synchronises *all* workers.
    fn global_barrier(&self, worker: usize);

    /// A non-blocking scheduling point (racy access or voluntary yield).
    fn point(&self, worker: usize, kind: SchedPoint);

    /// Acquires a shared lock. Schedulers mediate this so a descheduled
    /// lock holder cannot livelock a spinning waiter.
    fn lock(&self, worker: usize, lock: &SpinLock);

    /// Releases a shared lock previously acquired through [`Sched::lock`].
    fn unlock(&self, worker: usize, lock: &SpinLock);
}

/// The production scheduler: real threads, spin barriers, spin locks.
///
/// Behaviour is identical to the pre-[`Sched`] runtime: team and global
/// barriers are [`SpinBarrier`]s sized at construction, racy points are
/// no-ops, and [`SchedPoint::Yield`] maps to [`std::thread::yield_now`].
///
/// An *oversubscribed* launch — more workers than the process may use cores
/// (Linux only) — binds worker `w` to allowed core `w mod cores`. Workers
/// that yield after every correction never sleep, so the kernel's balancer
/// leaves them where `fork` queued them: measured on 2 cores with 4 one-
/// thread teams, the fine-grid team keeps one core and three teams share the
/// other for the whole solve (an idle core beside a 3-deep queue for 40 ms),
/// and a fixed-count solve lands anywhere in 1e-8 .. 8e-3. Spread evenly it
/// lands in 1e-8 .. 3e-7. A launch that fits the cores is left to the OS.
pub struct OsSched {
    sizes: Vec<usize>,
    team_barriers: Vec<SpinBarrier>,
    global_barrier: SpinBarrier,
    /// The cores to spread the workers over; empty when the launch fits.
    pin_to: Vec<usize>,
}

impl OsSched {
    /// A scheduler for teams of the given sizes.
    pub fn for_teams(team_sizes: &[usize]) -> Self {
        let n_workers: usize = team_sizes.iter().sum();
        let mut pin_to = affinity::allowed_cores();
        if n_workers <= pin_to.len() {
            pin_to.clear();
        }
        OsSched {
            sizes: team_sizes.to_vec(),
            team_barriers: team_sizes.iter().map(|&s| SpinBarrier::new(s)).collect(),
            global_barrier: SpinBarrier::new(n_workers),
            pin_to,
        }
    }
}

/// Thread-to-core binding through the C library `std` already links.
#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t` is 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        // pid 0 is the calling thread; both return 0 on success.
        fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    }

    /// The cores the calling thread (and so any thread it spawns) may run
    /// on; empty if the kernel will not say.
    pub(super) fn allowed_cores() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is WORDS * 8 writable bytes.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Binds the calling thread to `core`; on failure it stays unbound.
    pub(super) fn pin(core: usize) {
        let mut mask = [0u64; WORDS];
        mask[core / 64] = 1 << (core % 64);
        // SAFETY: `mask` is WORDS * 8 readable bytes.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(super) fn allowed_cores() -> Vec<usize> {
        Vec::new()
    }
    pub(super) fn pin(_core: usize) {}
}

impl Sched for OsSched {
    fn launch(&self, team_sizes: &[usize]) {
        assert_eq!(team_sizes, &self.sizes[..], "OsSched built for different team sizes");
    }

    fn worker_start(&self, worker: usize) {
        if !self.pin_to.is_empty() {
            affinity::pin(self.pin_to[worker % self.pin_to.len()]);
        }
    }

    fn worker_exit(&self, _worker: usize, _panicked: bool) {}

    #[inline]
    fn team_barrier(&self, _worker: usize, team: usize) {
        self.team_barriers[team].wait();
    }

    #[inline]
    fn global_barrier(&self, _worker: usize) {
        self.global_barrier.wait();
    }

    #[inline]
    fn point(&self, _worker: usize, kind: SchedPoint) {
        if kind == SchedPoint::Yield {
            std::thread::yield_now();
        }
    }

    #[inline]
    fn lock(&self, _worker: usize, lock: &SpinLock) {
        lock.lock();
    }

    #[inline]
    fn unlock(&self, _worker: usize, lock: &SpinLock) {
        lock.unlock();
    }
}

/// The execution environment of one threaded solve: who schedules the
/// workers, what time is, and which faults are injected.
///
/// [`ExecEnv::default`] is production — the solve builds an [`OsSched`] for
/// its own team layout and a fresh [`OsClock`](crate::OsClock), and injects
/// nothing. Tests override single fields:
/// `ExecEnv { sched: Some(&VirtualSched::new(7)), ..Default::default() }`.
#[derive(Clone, Copy, Default)]
pub struct ExecEnv<'a> {
    /// Scheduler mediating every barrier, lock, racy access and yield. A
    /// [`VirtualSched`] makes the interleaving (hence the floating-point
    /// result and the telemetry event content) a function of its seed.
    pub sched: Option<&'a dyn Sched>,
    /// Clock behind every time-based decision (watchdog budgets and stall
    /// windows, detector silence deadlines, retransmit backoff, probe
    /// timestamps). A [`VirtualClock`](crate::VirtualClock) makes timeout
    /// paths deterministic and sleep-free.
    pub clock: Option<&'a dyn Clock>,
    /// Seeded fault injection; decisions are pure functions of the plan's
    /// seed and the injection site, so they compose with either scheduler.
    pub plan: Option<&'a FaultPlan>,
}

/// Bounded-delay injection at racy-read points (the paper's `δ` model,
/// applied to the implementation instead of the sequential simulation).
#[derive(Clone, Copy, Debug)]
pub struct ReadDelay {
    /// Probability that a racy read is delayed at all.
    pub prob: f64,
    /// Maximum delay in scheduling decisions (`δ`): a delayed reader is
    /// descheduled for `1..=max_steps` decisions, so the data it then reads
    /// is at most that many decisions stale.
    pub max_steps: u64,
}

/// A worker's scheduling status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Not yet arrived at `worker_start`.
    NotStarted,
    /// Eligible to be scheduled.
    Runnable,
    /// Waiting at the team barrier of the given team.
    TeamWait(usize),
    /// Waiting at the global barrier.
    GlobalWait,
    /// Waiting for the lock with the given address to be released.
    LockWait(usize),
    /// Descheduled until the decision counter reaches the given step.
    Delayed(u64),
    /// The worker's closure returned.
    Done,
}

struct VState {
    rng: StdRng,
    sizes: Vec<usize>,
    team_of: Vec<usize>,
    status: Vec<Status>,
    team_arrived: Vec<usize>,
    global_arrived: usize,
    started: usize,
    current: Option<usize>,
    step: u64,
    poisoned: bool,
    held_locks: Vec<usize>,
    log: Vec<u32>,
}

/// A deterministic virtual scheduler.
///
/// Workers still run on OS threads, but at most one is admitted at any
/// instant; at every scheduling point the next runnable worker is chosen by
/// a PRNG seeded at construction. Identical seeds therefore replay
/// bit-identical executions — interleaving, floating-point results and
/// telemetry event content (wall-clock timestamps excepted) — regardless of
/// core count or OS scheduling.
///
/// A `VirtualSched` may be launched again once every worker of the previous
/// launch has exited (a resumed tolerance solve does): the PRNG stream, the
/// step counter and the decision log span the whole object, so a later
/// launch *continues* the stream rather than replaying it and the sequence
/// of launches stays a pure function of the seed. Create a fresh instance
/// for each run you want to compare against another.
pub struct VirtualSched {
    state: Mutex<VState>,
    cv: Condvar,
    /// Immutable after construction; read on the racy-read path.
    delay: Option<ReadDelay>,
}

impl VirtualSched {
    /// A scheduler replaying the interleaving identified by `seed`, without
    /// delay injection.
    pub fn new(seed: u64) -> Self {
        Self::build(seed, None)
    }

    /// A scheduler that additionally injects bounded read delays.
    pub fn with_delay(seed: u64, delay: ReadDelay) -> Self {
        assert!((0.0..=1.0).contains(&delay.prob), "delay prob out of [0,1]");
        assert!(delay.max_steps > 0, "zero-step delay");
        Self::build(seed, Some(delay))
    }

    fn build(seed: u64, delay: Option<ReadDelay>) -> Self {
        VirtualSched {
            state: Mutex::new(VState {
                rng: StdRng::seed_from_u64(seed),
                sizes: Vec::new(),
                team_of: Vec::new(),
                status: Vec::new(),
                team_arrived: Vec::new(),
                global_arrived: 0,
                started: 0,
                current: None,
                step: 0,
                poisoned: false,
                held_locks: Vec::new(),
                log: Vec::new(),
            }),
            cv: Condvar::new(),
            delay,
        }
    }

    /// The sequence of scheduling decisions made so far (worker global
    /// ranks, in decision order). Two runs interleave identically if and
    /// only if their decision sequences are equal.
    pub fn decisions(&self) -> Vec<u32> {
        self.guard().log.clone()
    }

    /// Number of scheduling decisions made so far.
    pub fn steps(&self) -> u64 {
        self.guard().step
    }

    fn guard(&self) -> MutexGuard<'_, VState> {
        // The poisoned flag, not mutex poisoning, is the error channel: a
        // worker that panics poisons the schedule explicitly in
        // `worker_exit`, and every waiter re-panics from `wait_until_mine`.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Picks the next worker to run, waking delayed workers (advancing the
    /// virtual step counter when everyone is delayed) and detecting
    /// deadlock.
    fn pick_next(&self, st: &mut VState) {
        loop {
            let runnable: Vec<usize> =
                (0..st.status.len()).filter(|&w| st.status[w] == Status::Runnable).collect();
            if !runnable.is_empty() {
                let pick = if runnable.len() == 1 {
                    runnable[0]
                } else {
                    runnable[st.rng.gen_range(0..runnable.len())]
                };
                st.current = Some(pick);
                st.step += 1;
                st.log.push(pick as u32);
                self.cv.notify_all();
                return;
            }
            // Nobody is runnable: wake delayed workers, jumping the step
            // counter forward when every live worker is delayed.
            let min_until = st
                .status
                .iter()
                .filter_map(|s| match s {
                    Status::Delayed(until) => Some(*until),
                    _ => None,
                })
                .min();
            if let Some(until) = min_until {
                st.step = st.step.max(until);
                let step = st.step;
                for s in st.status.iter_mut() {
                    if matches!(s, Status::Delayed(u) if *u <= step) {
                        *s = Status::Runnable;
                    }
                }
                continue;
            }
            if st.status.iter().all(|&s| s == Status::Done) {
                st.current = None;
                self.cv.notify_all();
                return;
            }
            // Workers are stuck on barriers or locks with nobody to free
            // them: a real deadlock in the code under test.
            st.poisoned = true;
            let dump: Vec<String> =
                st.status.iter().enumerate().map(|(w, s)| format!("worker {w}: {s:?}")).collect();
            self.cv.notify_all();
            panic!("VirtualSched deadlock after {} decisions:\n  {}", st.step, dump.join("\n  "));
        }
    }

    /// Blocks the calling worker until it is the scheduled one.
    fn wait_until_mine<'a>(
        &'a self,
        mut st: MutexGuard<'a, VState>,
        worker: usize,
    ) -> MutexGuard<'a, VState> {
        loop {
            if st.poisoned {
                drop(st);
                panic!("VirtualSched schedule poisoned by another worker's panic");
            }
            if st.current == Some(worker) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Applies a status change for `worker`, schedules the next worker, and
    /// blocks until `worker` is scheduled again.
    fn reschedule(&self, worker: usize, set: impl FnOnce(&mut VState)) {
        let mut st = self.guard();
        set(&mut st);
        self.pick_next(&mut st);
        let _st = self.wait_until_mine(st, worker);
    }
}

impl Sched for VirtualSched {
    fn launch(&self, team_sizes: &[usize]) {
        let n: usize = team_sizes.iter().sum();
        let mut st = self.guard();
        assert!(
            st.status.iter().all(|&s| s == Status::Done),
            "VirtualSched launched while workers of the previous launch are live"
        );
        // The rng, step counter and decision log run on across launches.
        st.sizes = team_sizes.to_vec();
        st.team_of =
            team_sizes.iter().enumerate().flat_map(|(t, &s)| std::iter::repeat_n(t, s)).collect();
        st.status = vec![Status::NotStarted; n];
        st.team_arrived = vec![0; team_sizes.len()];
        st.global_arrived = 0;
        st.started = 0;
        st.held_locks.clear();
    }

    fn worker_start(&self, worker: usize) {
        let mut st = self.guard();
        st.status[worker] = Status::Runnable;
        st.started += 1;
        // Nobody runs until every worker has checked in, so the first
        // scheduling decision sees the full worker set no matter how the OS
        // staggers thread spawning.
        if st.started == st.status.len() {
            self.pick_next(&mut st);
        }
        let _st = self.wait_until_mine(st, worker);
    }

    fn worker_exit(&self, worker: usize, panicked: bool) {
        let mut st = self.guard();
        if panicked {
            st.poisoned = true;
            self.cv.notify_all();
            return;
        }
        st.status[worker] = Status::Done;
        st.current = None;
        self.pick_next(&mut st);
    }

    fn team_barrier(&self, worker: usize, team: usize) {
        let mut st = self.guard();
        st.team_arrived[team] += 1;
        if st.team_arrived[team] == st.sizes[team] {
            st.team_arrived[team] = 0;
            for w in 0..st.status.len() {
                if st.team_of[w] == team && st.status[w] == Status::TeamWait(team) {
                    st.status[w] = Status::Runnable;
                }
            }
            st.status[worker] = Status::Runnable;
        } else {
            st.status[worker] = Status::TeamWait(team);
        }
        self.pick_next(&mut st);
        let _st = self.wait_until_mine(st, worker);
    }

    fn global_barrier(&self, worker: usize) {
        let mut st = self.guard();
        st.global_arrived += 1;
        if st.global_arrived == st.status.len() {
            st.global_arrived = 0;
            for s in st.status.iter_mut() {
                if *s == Status::GlobalWait {
                    *s = Status::Runnable;
                }
            }
            st.status[worker] = Status::Runnable;
        } else {
            st.status[worker] = Status::GlobalWait;
        }
        self.pick_next(&mut st);
        let _st = self.wait_until_mine(st, worker);
    }

    fn point(&self, worker: usize, kind: SchedPoint) {
        let delay = self.delay;
        self.reschedule(worker, |st| {
            st.status[worker] = Status::Runnable;
            if kind == SchedPoint::RacyRead {
                if let Some(d) = delay {
                    if st.rng.gen_bool(d.prob) {
                        let until = st.step + 1 + st.rng.gen_range(0..d.max_steps);
                        st.status[worker] = Status::Delayed(until);
                    }
                }
            }
        });
    }

    fn lock(&self, worker: usize, lock: &SpinLock) {
        let addr = lock as *const SpinLock as usize;
        // Acquisition is itself a preemption point: another worker may be
        // scheduled (and may take the lock) before this one proceeds.
        self.reschedule(worker, |st| st.status[worker] = Status::Runnable);
        loop {
            let mut st = self.guard();
            if !st.held_locks.contains(&addr) {
                st.held_locks.push(addr);
                return;
            }
            st.status[worker] = Status::LockWait(addr);
            self.pick_next(&mut st);
            let _st = self.wait_until_mine(st, worker);
            // Scheduled again after a release; retry (another worker may
            // have re-acquired in between).
        }
    }

    fn unlock(&self, worker: usize, lock: &SpinLock) {
        let addr = lock as *const SpinLock as usize;
        let mut st = self.guard();
        let pos = st.held_locks.iter().position(|&a| a == addr).expect("unlock of unheld lock");
        st.held_locks.swap_remove(pos);
        for s in st.status.iter_mut() {
            if *s == Status::LockWait(addr) {
                *s = Status::Runnable;
            }
        }
        let _ = worker;
        // No reschedule: releasing is not a read of shared state, and the
        // caller continues deterministically to its next scheduling point.
    }
}

/// Joins workers to the scheduler for the duration of the closure, marking
/// the exit even on unwind so a panicking worker cannot hang the others.
struct WorkerGuard<'a> {
    sched: &'a dyn Sched,
    worker: usize,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.sched.worker_exit(self.worker, std::thread::panicking());
    }
}

/// [`crate::run_teams`] generalised over a [`Sched`]: runs `f` on
/// `Σ team_sizes` threads grouped into teams under the given scheduler,
/// then joins them. Panics in any worker propagate.
pub fn run_teams_sched<F>(team_sizes: &[usize], sched: &dyn Sched, f: F)
where
    F: Fn(crate::team::TeamCtx<'_>) + Sync,
{
    assert!(!team_sizes.is_empty());
    assert!(team_sizes.iter().all(|&s| s > 0), "empty team");
    let n_threads: usize = team_sizes.iter().sum();
    sched.launch(team_sizes);
    std::thread::scope(|scope| {
        let mut global_rank = 0usize;
        for (team_id, &size) in team_sizes.iter().enumerate() {
            for rank in 0..size {
                let ctx =
                    crate::team::TeamCtx::new(team_id, rank, size, global_rank, n_threads, sched);
                let f = &f;
                scope.spawn(move || {
                    let worker = ctx.global_rank;
                    sched.worker_start(worker);
                    let _guard = WorkerGuard { sched, worker };
                    f(ctx);
                });
                global_rank += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A small racy workload: each worker appends its rank to a shared log
    /// at every scheduling point, so the log *is* the interleaving.
    fn run_logged(sched: &VirtualSched, team_sizes: &[usize], rounds: usize) -> Vec<usize> {
        let log = Mutex::new(Vec::new());
        run_teams_sched(team_sizes, sched, |ctx| {
            for _ in 0..rounds {
                ctx.sched_point(SchedPoint::RacyRead);
                log.lock().unwrap().push(ctx.global_rank);
                ctx.sched_point(SchedPoint::Yield);
            }
            ctx.barrier();
        });
        log.into_inner().unwrap()
    }

    #[test]
    fn virtual_runs_every_worker() {
        let count = AtomicUsize::new(0);
        let sched = VirtualSched::new(1);
        run_teams_sched(&[2, 3], &sched, |ctx| {
            assert_eq!(ctx.n_threads, 5);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn same_seed_replays_identical_interleaving() {
        let s1 = VirtualSched::new(42);
        let s2 = VirtualSched::new(42);
        let log1 = run_logged(&s1, &[2, 2], 8);
        let log2 = run_logged(&s2, &[2, 2], 8);
        assert_eq!(log1, log2);
        assert_eq!(s1.decisions(), s2.decisions());
        assert!(s1.steps() > 0);
    }

    #[test]
    fn different_seeds_explore_different_interleavings() {
        let base = {
            let s = VirtualSched::new(0);
            run_logged(&s, &[2, 2], 8);
            s.decisions()
        };
        let any_differs = (1..8u64).any(|seed| {
            let s = VirtualSched::new(seed);
            run_logged(&s, &[2, 2], 8);
            s.decisions() != base
        });
        assert!(any_differs, "8 seeds produced identical schedules");
    }

    #[test]
    fn delay_injection_stays_deterministic() {
        let d = ReadDelay { prob: 0.5, max_steps: 6 };
        let s1 = VirtualSched::with_delay(9, d);
        let s2 = VirtualSched::with_delay(9, d);
        assert_eq!(run_logged(&s1, &[3], 10), run_logged(&s2, &[3], 10));
        assert_eq!(s1.decisions(), s2.decisions());
    }

    #[test]
    fn relaunch_continues_the_seeded_stream() {
        // Two launches on one scheduler: the concatenated decision log is a
        // pure function of the seed, and the second launch does not replay
        // the first.
        let two_launches = |seed: u64| {
            let s = VirtualSched::new(seed);
            let first = run_logged(&s, &[2, 2], 6);
            let after_first = s.decisions().len();
            let second = run_logged(&s, &[2, 2], 6);
            (first, second, after_first, s.decisions())
        };
        let (a1, a2, cut, log_a) = two_launches(21);
        let (b1, b2, _, log_b) = two_launches(21);
        assert_eq!((&a1, &a2), (&b1, &b2));
        assert_eq!(log_a, log_b);
        assert!(log_a.len() > cut, "the second launch made no decisions");
        assert_ne!(log_a[..cut], log_a[cut..], "the second launch replayed the first");
        let any_differs = (22..30u64).any(|seed| two_launches(seed).3 != log_a);
        assert!(any_differs, "8 seeds produced identical two-launch schedules");
    }

    #[test]
    fn relaunch_while_workers_are_live_panics() {
        let sched = VirtualSched::new(0);
        let refused = AtomicUsize::new(0);
        run_teams_sched(&[1], &sched, |_| {
            let attempt = std::panic::AssertUnwindSafe(|| sched.launch(&[1]));
            if std::panic::catch_unwind(attempt).is_err() {
                refused.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(refused.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn virtual_barriers_and_global_barriers_synchronise() {
        // Phase counter: within each phase every worker must observe the
        // same value, which only holds if the barrier is honoured.
        let phase = AtomicUsize::new(0);
        let sched = VirtualSched::new(7);
        run_teams_sched(&[2, 2], &sched, |ctx| {
            for p in 0..5 {
                assert_eq!(phase.load(Ordering::SeqCst), p);
                ctx.global_barrier();
                if ctx.is_global_master() {
                    phase.fetch_add(1, Ordering::SeqCst);
                }
                ctx.global_barrier();
            }
        });
        assert_eq!(phase.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn virtual_lock_is_mutually_exclusive() {
        // The critical section spans scheduling points; without lock
        // mediation two workers would interleave inside it.
        let lock = SpinLock::new();
        let inside = AtomicUsize::new(0);
        let sched = VirtualSched::new(3);
        run_teams_sched(&[4], &sched, |ctx| {
            for _ in 0..6 {
                ctx.lock(&lock);
                assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                ctx.sched_point(SchedPoint::Yield);
                assert_eq!(inside.fetch_sub(1, Ordering::SeqCst), 1);
                ctx.unlock(&lock);
                ctx.sched_point(SchedPoint::Yield);
            }
        });
    }

    #[test]
    #[should_panic]
    fn virtual_detects_deadlock() {
        // Worker 0 waits at the team barrier; worker 1 exits without ever
        // arriving. Under OsSched this would hang; VirtualSched panics.
        let sched = VirtualSched::new(0);
        run_teams_sched(&[2], &sched, |ctx| {
            if ctx.rank == 0 {
                ctx.barrier();
            }
        });
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn os_sched_pins_only_oversubscribed_launches() {
        let cores = affinity::allowed_cores();
        assert!(!cores.is_empty());
        // One worker more than there are cores: worker w sits on core
        // w mod cores and nowhere else. A launch that fits keeps the
        // process's whole set.
        for (n_workers, pinned) in [(cores.len() + 1, true), (cores.len(), false)] {
            let seen = Mutex::new(vec![Vec::new(); n_workers]);
            run_teams_sched(&[n_workers], &OsSched::for_teams(&[n_workers]), |ctx| {
                seen.lock().unwrap()[ctx.global_rank] = affinity::allowed_cores();
            });
            for (w, got) in seen.into_inner().unwrap().into_iter().enumerate() {
                let want = if pinned { vec![cores[w % cores.len()]] } else { cores.clone() };
                assert_eq!(got, want, "worker {w} of {n_workers}");
            }
        }
    }

    #[test]
    fn os_sched_runs_same_closures() {
        let count = AtomicUsize::new(0);
        let sched = OsSched::for_teams(&[2, 1]);
        run_teams_sched(&[2, 1], &sched, |ctx| {
            ctx.sched_point(SchedPoint::RacyRead);
            ctx.sched_point(SchedPoint::RacyWrite);
            ctx.sched_point(SchedPoint::Yield);
            ctx.barrier();
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }
}
