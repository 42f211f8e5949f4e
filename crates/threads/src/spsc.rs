//! A bounded lock-free single-producer/single-consumer ring.
//!
//! This is the wire of the sharded execution model: every ordered pair of
//! shard ranks owns one [`SpscRing`], the sending rank pushes from its
//! worker thread, the receiving rank pops from its own, and neither side
//! ever blocks — a full ring rejects the push (the caller counts it as an
//! overflow) and an empty ring returns `None`. The implementation is the
//! classical Lamport queue: a power-of-two slot array indexed by two
//! monotonically increasing counters, `head` advanced only by the consumer
//! and `tail` only by the producer, with release/acquire ordering so a slot
//! write happens-before the counter increment that publishes it.
//!
//! # Contract
//!
//! Like [`RacyVec`](crate::RacyVec), safety is by caller discipline rather
//! than by type-level ownership: [`SpscRing`] is `Sync`, but at most one
//! thread may call [`SpscRing::push`] and at most one (possibly different)
//! thread may call [`SpscRing::pop`] at any point in time. The sharded
//! transport upholds this by construction — rank `s` is the only pusher of
//! ring `(s, t)` and rank `t` its only popper. Concurrent pushes (or
//! concurrent pops) from two threads are undefined behaviour.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded lock-free SPSC queue of `T`.
///
/// See the module docs for the single-producer/single-consumer contract.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Capacity mask (`slots.len() - 1`; the length is a power of two).
    mask: usize,
    /// Next slot the consumer reads. Only the consumer advances this.
    head: AtomicUsize,
    /// Next slot the producer writes. Only the producer advances this.
    tail: AtomicUsize,
}

// SAFETY: the single-producer/single-consumer contract (module docs) makes
// every slot access exclusive: a slot is written only while it is invisible
// to the consumer (tail not yet published) and read only after the
// release-store of `tail` made the write visible, and never reused before
// the consumer's release-store of `head`.
unsafe impl<T: Send> Sync for SpscRing<T> {}
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding at least `capacity` elements (rounded up to the next
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
        SpscRing { slots, mask: cap - 1, head: AtomicUsize::new(0), tail: AtomicUsize::new(0) }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Pushes `v`, or returns it back if the ring is full. Producer-side
    /// only (see the contract).
    pub fn push(&self, v: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.slots.len() {
            return Err(v);
        }
        // SAFETY: `tail` is unpublished, so the consumer cannot touch this
        // slot, and the producer contract rules out a concurrent push.
        unsafe { (*self.slots[tail & self.mask].get()).write(v) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pops the oldest element, or `None` if the ring is empty. Never
    /// blocks. Consumer-side only (see the contract).
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: the acquire-load of `tail` ordered us after the slot
        // write, and the consumer contract rules out a concurrent pop; the
        // slot holds an initialised value that is read exactly once.
        let v = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    /// Number of queued elements (approximate under concurrency; exact when
    /// the ring is quiescent).
    pub fn len(&self) -> usize {
        // Head first: the consumer never moves it past a tail it has seen,
        // so the tail read after it is never behind it and the difference
        // cannot wrap while both ends move. Pushes between the two reads
        // can still carry it past the capacity, hence the clamp.
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.slots.len())
    }

    /// `true` when no element is queued (same caveat as [`SpscRing::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Exclusive access: drain whatever the consumer left behind.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let ring = SpscRing::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            assert!(ring.push(i).is_ok());
        }
        assert_eq!(ring.push(99), Err(99));
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let ring = SpscRing::with_capacity(2);
        for round in 0..1000 {
            assert!(ring.push(round).is_ok());
            assert!(ring.push(round + 1).is_ok());
            assert_eq!(ring.pop(), Some(round));
            assert_eq!(ring.pop(), Some(round + 1));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn concurrent_producer_consumer_preserves_stream() {
        let ring = Arc::new(SpscRing::with_capacity(8));
        let n = 10_000u64;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sent = 0u64;
                while sent < n {
                    if ring.push(sent).is_ok() {
                        sent += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expect = 0u64;
        while expect < n {
            if let Some(v) = ring.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(ring.is_empty());
    }

    /// An observer thread reading `len` while both ends move never sees
    /// more than the capacity (a tail read before the head used to wrap).
    #[test]
    fn len_stays_within_capacity_while_both_ends_move() {
        let ring = Arc::new(SpscRing::with_capacity(8));
        let n = 200_000u64;
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sent = 0u64;
                while sent < n {
                    if ring.push(sent).is_ok() {
                        sent += 1;
                    }
                }
            })
        };
        let consumer = {
            let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut got = 0u64;
                while got < n {
                    if ring.pop().is_some() {
                        got += 1;
                    }
                }
                done.store(true, Ordering::Release);
            })
        };
        while !done.load(Ordering::Acquire) {
            let len = ring.len();
            assert!(len <= ring.capacity(), "len {len} above capacity {}", ring.capacity());
        }
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    #[test]
    fn drops_leftover_elements() {
        // A type with a drop side effect to confirm leftovers are released.
        let ring = SpscRing::with_capacity(4);
        ring.push(Arc::new(7)).unwrap();
        ring.push(Arc::new(8)).unwrap();
        let held = Arc::new(9);
        ring.push(Arc::clone(&held)).unwrap();
        drop(ring);
        assert_eq!(Arc::strong_count(&held), 1);
    }
}
