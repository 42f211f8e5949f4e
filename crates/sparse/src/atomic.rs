//! Shared `f64` vectors with atomic element access.
//!
//! The paper's Algorithm 5 keeps the approximation `x` (and, for global-res,
//! the fine-grid residual `r`) in memory that every grid's threads read and
//! write without synchronisation. In Rust that sharing must go through
//! atomics; [`AtomicF64Vec`] stores each element as an `AtomicU64` holding the
//! f64 bit pattern.
//!
//! All plain loads and stores use `Relaxed` ordering: asynchronous iterative
//! methods are *defined* to tolerate arbitrarily stale element values
//! (Equation 5 of the paper), so no cross-element ordering is required. The
//! inter-thread visibility needed at team boundaries is provided by the team
//! barriers in `asyncmg-threads`, which synchronise with Acquire/Release.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-length vector of `f64` elements with atomic access.
pub struct AtomicF64Vec {
    data: Box<[AtomicU64]>,
}

impl AtomicF64Vec {
    /// A zero-initialised vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        let data = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
        AtomicF64Vec { data }
    }

    /// A vector initialised from a slice.
    pub fn from_slice(s: &[f64]) -> Self {
        let data = s.iter().map(|&v| AtomicU64::new(v.to_bits())).collect();
        AtomicF64Vec { data }
    }

    /// Length of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Atomically loads element `i` (relaxed).
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Atomically stores element `i` (relaxed).
    #[inline]
    pub fn store(&self, i: usize, v: f64) {
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `v` to element `i` via a compare-exchange loop.
    ///
    /// This is the *atomic-write* option of Section IV: an atomic
    /// fetch-and-add on a double.
    #[inline]
    pub fn fetch_add(&self, i: usize, v: f64) {
        let cell = &self.data[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Copies elements `range` into `dst[range]` (relaxed loads).
    fn snapshot_rows(&self, range: std::ops::Range<usize>, dst: &mut [f64]) {
        for i in range {
            dst[i] = self.load(i);
        }
    }

    /// Copies the whole vector into `dst`.
    pub fn snapshot(&self, dst: &mut [f64]) {
        self.snapshot_rows(0..self.len(), dst);
    }

    /// Stores `src[range]` into elements `range` (relaxed stores).
    pub fn store_rows(&self, range: std::ops::Range<usize>, src: &[f64]) {
        for i in range {
            self.store(i, src[i]);
        }
    }

    /// Adds `src[range]` into elements `range` using plain store
    /// (read-modify-write that is *not* atomic across threads — only safe
    /// when `range`s are disjoint between writers, as in lock-write).
    pub fn add_rows_exclusive(&self, range: std::ops::Range<usize>, src: &[f64]) {
        for i in range {
            self.store(i, self.load(i) + src[i]);
        }
    }

    /// Adds `src[range]` into elements `range` with atomic fetch-add.
    pub fn add_rows_atomic(&self, range: std::ops::Range<usize>, src: &[f64]) {
        for i in range {
            self.fetch_add(i, src[i]);
        }
    }

    /// Materialises the contents as a `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }
}

impl std::fmt::Debug for AtomicF64Vec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicF64Vec").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip() {
        let v = AtomicF64Vec::from_slice(&[1.5, -2.25, 0.0]);
        assert_eq!(v.load(0), 1.5);
        assert_eq!(v.load(1), -2.25);
        v.store(2, 7.0);
        assert_eq!(v.to_vec(), vec![1.5, -2.25, 7.0]);
    }

    #[test]
    fn fetch_add_accumulates() {
        let v = AtomicF64Vec::zeros(1);
        for _ in 0..100 {
            v.fetch_add(0, 0.5);
        }
        assert_eq!(v.load(0), 50.0);
    }

    #[test]
    fn concurrent_fetch_add_is_exact() {
        // 0.5 sums are exact in binary floating point, so the result is
        // deterministic regardless of interleaving.
        let v = Arc::new(AtomicF64Vec::zeros(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let v = Arc::clone(&v);
            handles.push(std::thread::spawn(move || {
                for i in 0..4 {
                    for _ in 0..1000 {
                        v.fetch_add(i, 0.5);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4 {
            assert_eq!(v.load(i), 2000.0);
        }
    }

    #[test]
    fn snapshot_and_store_rows() {
        let v = AtomicF64Vec::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = vec![0.0; 4];
        v.snapshot_rows(1..3, &mut dst);
        assert_eq!(dst, vec![0.0, 2.0, 3.0, 0.0]);
        v.store_rows(0..2, &[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(v.to_vec(), vec![9.0, 8.0, 3.0, 4.0]);
    }

    #[test]
    fn add_rows_variants_agree() {
        let a = AtomicF64Vec::from_slice(&[1.0, 1.0]);
        let b = AtomicF64Vec::from_slice(&[1.0, 1.0]);
        let add = [0.5, -0.25];
        a.add_rows_exclusive(0..2, &add);
        b.add_rows_atomic(0..2, &add);
        assert_eq!(a.to_vec(), b.to_vec());
    }
}
