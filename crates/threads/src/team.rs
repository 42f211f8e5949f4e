//! Fork-join execution of grid teams.
//!
//! [`run_teams`] launches one OS thread per team member and calls the
//! provided closure with a [`TeamCtx`] describing the thread's position.
//! All threads are joined before `run_teams` returns, so the closure may
//! borrow stack data (`std::thread::scope`).
//!
//! Synchronisation is delegated to a [`Sched`]: `run_teams` uses the
//! production [`OsSched`] (spin barriers, real concurrency), while
//! [`run_teams_sched`](crate::run_teams_sched) accepts any scheduler —
//! notably the deterministic [`VirtualSched`](crate::VirtualSched) used by
//! the test harness.

use crate::lock::SpinLock;
use crate::partition::chunk_range;
use crate::sched::{OsSched, Sched, SchedPoint};

/// Where a thread sits: its team, its rank within the team, and the
/// scheduler mediating its synchronisation points.
pub struct TeamCtx<'a> {
    /// Index of this thread's team.
    pub team_id: usize,
    /// Rank within the team, `0..team_size`.
    pub rank: usize,
    /// Number of threads in this team.
    pub team_size: usize,
    /// Rank among all threads, `0..n_threads`.
    pub global_rank: usize,
    /// Total number of threads across all teams.
    pub n_threads: usize,
    sched: &'a dyn Sched,
}

impl<'a> TeamCtx<'a> {
    /// Builds a context for one worker. Used by the `run_teams*` entry
    /// points; solver code receives contexts rather than creating them.
    pub(crate) fn new(
        team_id: usize,
        rank: usize,
        team_size: usize,
        global_rank: usize,
        n_threads: usize,
        sched: &'a dyn Sched,
    ) -> Self {
        TeamCtx { team_id, rank, team_size, global_rank, n_threads, sched }
    }

    /// The context of a team of one on the calling thread: rank 0 of team
    /// 0 among 1 thread, whose barriers, scheduling points and locks are
    /// no-ops. Team-parallel code called with it runs sequentially, with
    /// every chunk the whole range — the one body serves both callers.
    pub fn solo() -> TeamCtx<'static> {
        TeamCtx::new(0, 0, 1, 0, 1, &Solo)
    }

    /// Synchronises the threads of this team (the blue `Sync()` of Fig. 3).
    #[inline]
    pub fn barrier(&self) {
        self.sched.team_barrier(self.global_rank, self.team_id);
    }

    /// Synchronises *all* threads (the red `Sync()` of Fig. 3; used only by
    /// the synchronous variants).
    #[inline]
    pub fn global_barrier(&self) {
        self.sched.global_barrier(self.global_rank);
    }

    /// Announces a scheduling point (racy access or voluntary yield) to the
    /// scheduler. Free under [`OsSched`] except for `Yield`, which maps to
    /// [`std::thread::yield_now`].
    #[inline]
    pub fn sched_point(&self, kind: SchedPoint) {
        self.sched.point(self.global_rank, kind);
    }

    /// Acquires a shared lock through the scheduler. Must be paired with
    /// [`TeamCtx::unlock`] on the same lock.
    #[inline]
    pub fn lock(&self, lock: &SpinLock) {
        self.sched.lock(self.global_rank, lock);
    }

    /// Releases a lock acquired with [`TeamCtx::lock`].
    #[inline]
    pub fn unlock(&self, lock: &SpinLock) {
        self.sched.unlock(self.global_rank, lock);
    }

    /// This thread's static chunk of a loop over `0..n`, split across the
    /// team.
    #[inline]
    pub fn chunk(&self, n: usize) -> std::ops::Range<usize> {
        chunk_range(n, self.team_size, self.rank)
    }

    /// This thread's static chunk of a loop over `0..n`, split across *all*
    /// threads (the `GlobalParFor` of Algorithm 5).
    #[inline]
    pub fn global_chunk(&self, n: usize) -> std::ops::Range<usize> {
        chunk_range(n, self.n_threads, self.global_rank)
    }

    /// Whether this thread is its team's master (rank 0).
    #[inline]
    pub fn is_team_master(&self) -> bool {
        self.rank == 0
    }

    /// Whether this thread is the global master (global rank 0).
    #[inline]
    pub fn is_global_master(&self) -> bool {
        self.global_rank == 0
    }
}

/// The scheduler of [`TeamCtx::solo`]: one worker, nothing to wait for.
struct Solo;

impl Sched for Solo {
    fn launch(&self, _team_sizes: &[usize]) {}
    fn worker_start(&self, _worker: usize) {}
    fn worker_exit(&self, _worker: usize, _panicked: bool) {}
    fn team_barrier(&self, _worker: usize, _team: usize) {}
    fn global_barrier(&self, _worker: usize) {}
    fn point(&self, _worker: usize, _kind: SchedPoint) {}
    fn lock(&self, _worker: usize, _lock: &SpinLock) {}
    fn unlock(&self, _worker: usize, _lock: &SpinLock) {}
}

/// Runs `f` on `Σ team_sizes` threads grouped into teams, then joins them.
///
/// `f` receives each thread's [`TeamCtx`]. Panics in any thread propagate.
/// Equivalent to [`run_teams_sched`](crate::run_teams_sched) with an
/// [`OsSched`].
pub fn run_teams<F>(team_sizes: &[usize], f: F)
where
    F: Fn(TeamCtx<'_>) + Sync,
{
    let sched = OsSched::for_teams(team_sizes);
    crate::sched::run_teams_sched(team_sizes, &sched, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_thread_runs_once() {
        let count = AtomicUsize::new(0);
        run_teams(&[2, 3, 1], |ctx| {
            assert!(ctx.rank < ctx.team_size);
            assert!(ctx.global_rank < ctx.n_threads);
            assert_eq!(ctx.n_threads, 6);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn global_ranks_are_unique_and_dense() {
        let seen = [const { AtomicUsize::new(0) }; 5];
        run_teams(&[1, 2, 2], |ctx| {
            seen[ctx.global_rank].fetch_add(1, Ordering::SeqCst);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn team_chunks_tile_iteration_space() {
        let n = 37;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_teams(&[4], |ctx| {
            for i in ctx.chunk(n) {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn global_chunks_tile_across_teams() {
        let n = 23;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_teams(&[2, 3], |ctx| {
            for i in ctx.global_chunk(n) {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn team_barrier_synchronises_only_team() {
        // Two teams progress through different numbers of phases without
        // deadlocking, proving team barriers are independent.
        run_teams(&[2, 2], |ctx| {
            let phases = if ctx.team_id == 0 { 10 } else { 3 };
            for _ in 0..phases {
                ctx.barrier();
            }
        });
    }

    #[test]
    fn solo_context_is_a_whole_team_of_one() {
        let ctx = TeamCtx::solo();
        assert_eq!((ctx.team_size, ctx.n_threads), (1, 1));
        assert!(ctx.is_team_master() && ctx.is_global_master());
        assert_eq!(ctx.chunk(37), 0..37);
        let lock = SpinLock::new();
        ctx.lock(&lock);
        ctx.barrier();
        ctx.sched_point(SchedPoint::Yield);
        ctx.unlock(&lock);
    }

    #[test]
    fn masters_identified() {
        let team_masters = AtomicUsize::new(0);
        let global_masters = AtomicUsize::new(0);
        run_teams(&[3, 3], |ctx| {
            if ctx.is_team_master() {
                team_masters.fetch_add(1, Ordering::SeqCst);
            }
            if ctx.is_global_master() {
                global_masters.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(team_masters.load(Ordering::SeqCst), 2);
        assert_eq!(global_masters.load(Ordering::SeqCst), 1);
    }
}
