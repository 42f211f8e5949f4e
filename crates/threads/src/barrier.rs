//! A reusable sense-reversing spin barrier.
//!
//! The barrier spins briefly and then yields to the OS scheduler, which keeps
//! it correct and reasonably fast even when threads are heavily
//! oversubscribed (the reproduction environment has more threads than
//! cores, like the paper's 272-thread KNL runs on 68 cores).

use std::sync::atomic::{AtomicUsize, Ordering};

/// A reusable barrier for a fixed set of threads.
///
/// `wait` provides Acquire/Release synchronisation: all writes performed by
/// any participant before the barrier are visible to every participant after
/// it — exactly the guarantee OpenMP's implicit barriers give, and the
/// guarantee the blocking parallel loops of the paper's Algorithm 5 rely on.
pub struct SpinBarrier {
    num: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `num` threads. `num == 0` is treated as 1.
    pub fn new(num: usize) -> Self {
        SpinBarrier { num: num.max(1), count: AtomicUsize::new(0), generation: AtomicUsize::new(0) }
    }

    /// Blocks until all `num` threads have called `wait`.
    pub fn wait(&self) {
        if self.num == 1 {
            // Still need to order memory for the single-threaded degenerate
            // case used in tests; a fence is enough.
            std::sync::atomic::fence(Ordering::AcqRel);
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.num {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscription-friendly: give the core away so the
                    // laggard can run.
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn single_thread_is_noop() {
        let b = SpinBarrier::new(1);
        b.wait();
        b.wait();
    }

    #[test]
    fn orders_phases() {
        // Each thread increments a phase counter; after every barrier all
        // participants must observe the same phase count.
        let n = 4;
        let b = Arc::new(SpinBarrier::new(n));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = Arc::clone(&b);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for phase in 1..=20usize {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    let seen = c.load(Ordering::SeqCst);
                    assert_eq!(seen, phase * n, "phase {phase}");
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn reusable_many_times() {
        let n = 3;
        let b = Arc::new(SpinBarrier::new(n));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn zero_participants_clamped() {
        let b = SpinBarrier::new(0);
        assert_eq!(b.num, 1);
        b.wait();
    }
}
