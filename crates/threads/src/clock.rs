//! Clock abstraction for every time-based solver decision.
//!
//! The asynchronous watchdog's wall-clock budget (`max_wall`), the sharded
//! failure detector's silence deadlines and the resilience session's
//! backoff/deadline arithmetic all need *a* notion of elapsed time — but reading `Instant::now()`
//! directly makes those paths untestable under the deterministic
//! [`VirtualSched`](crate::VirtualSched): a test would have to really sleep
//! out a 50 ms budget, and the moment the timeout fires would still be racy.
//!
//! [`Clock`] routes every such read and sleep through a trait object:
//!
//! * [`OsClock`] — production: monotonic `Instant` reads and real
//!   `thread::sleep`. The default everywhere, bit-identical to the
//!   pre-abstraction behaviour.
//! * [`VirtualClock`] — testing: a monotonic atomic nanosecond counter that
//!   only advances when someone *sleeps on it* (or calls
//!   [`VirtualClock::advance`]). A watchdog polling on a virtual clock
//!   burns no wall-clock time at all, and a 60-second virtual budget
//!   expires after a deterministic number of poll slices.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic clock plus the ability to wait on it.
///
/// `now_ns` is nanoseconds since an arbitrary per-clock epoch (callers
/// compare differences, never absolute values). `sleep` blocks the calling
/// thread for `d` of *this clock's* time — which for a virtual clock means
/// advancing the counter and returning immediately.
pub trait Clock: Sync {
    /// Nanoseconds since this clock's epoch.
    fn now_ns(&self) -> u64;

    /// Waits `d` of this clock's time.
    fn sleep(&self, d: Duration);
}

/// The production clock: monotonic OS time and real sleeps.
pub struct OsClock {
    epoch: Instant,
}

impl OsClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        OsClock { epoch: Instant::now() }
    }
}

impl Default for OsClock {
    fn default() -> Self {
        OsClock::new()
    }
}

impl Clock for OsClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A deterministic clock: time is an atomic counter that advances only
/// through [`Clock::sleep`] or [`VirtualClock::advance`].
///
/// Sleeping on a virtual clock never blocks, so a test that exercises a
/// 60-second watchdog budget finishes in microseconds. When a single
/// thread owns all sleeps (the resilience session between attempts), every
/// `now_ns` reading is a pure function of the calls made so far — which is
/// what makes session backoff and deadline splitting replay bit-identically.
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at time zero.
    pub fn new() -> Self {
        VirtualClock { nanos: AtomicU64::new(0) }
    }

    /// Advances the clock by `d` without sleeping.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }

    /// The current virtual time as a [`Duration`].
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.now_ns())
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl Clock for VirtualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.nanos.load(Ordering::Acquire)
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_clock_is_monotonic() {
        let c = OsClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_only_moves_when_told() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        let t0 = Instant::now();
        c.sleep(Duration::from_secs(3600));
        // An hour of virtual sleep costs no wall-clock time.
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(c.now_ns(), 3600 * 1_000_000_000);
        c.advance(Duration::from_nanos(5));
        assert_eq!(c.now_ns(), 3600 * 1_000_000_000 + 5);
        assert_eq!(c.elapsed(), Duration::from_nanos(3600 * 1_000_000_000 + 5));
    }

    #[test]
    fn clocks_work_through_dyn_dispatch() {
        let v = VirtualClock::new();
        let c: &dyn Clock = &v;
        c.sleep(Duration::from_millis(2));
        assert_eq!(c.now_ns(), 2_000_000);
    }
}
