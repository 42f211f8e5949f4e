//! The hierarchy cache: content-fingerprinted AMG setups with LRU eviction
//! and build-time integrity checksums.
//!
//! The cache key is [`Csr::fingerprint`] — a word-wise hash of the matrix
//! shape and CSR arrays — so two structurally identical matrices share one hierarchy
//! no matter how they were constructed. Every lookup appends a
//! [`CacheEvent`] to a log that is a pure function of the request stream,
//! which the harness folds into replay fingerprints.
//!
//! Entries are `Arc<Mutex<CachedSetup>>`: the service snapshots the `Arc`
//! under its own lock and runs the numeric solve under the *entry* lock
//! only, so a long solve on one matrix never stalls `submit`/`status` or
//! dispatches of other matrices. Each entry carries a sampled checksum of
//! its hierarchy values, computed at build; a defended service re-verifies
//! it cheaply on every hit and [`quarantine`](HierarchyCache::quarantine)s
//! poisoned entries for rebuild.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use asyncmg_amg::{try_build_hierarchy, BuildError};
use asyncmg_core::{BlockWorkspace, MgSetup};
use asyncmg_sparse::Csr;
use asyncmg_telemetry::CacheEvent;

use crate::request::ServiceOptions;

/// Cap on checksum samples per hierarchy level, so verification stays a
/// negligible fraction of even one V-cycle.
const CHECKSUM_SAMPLES_PER_LEVEL: usize = 1024;

/// FNV-1a over the hierarchy's operator values, sampled with a per-level
/// stride (index 0 of every level is always included, so single-value
/// corruption of a leading entry is always caught; strided corruption
/// elsewhere is caught with probability `samples / nnz`).
pub(crate) fn hierarchy_checksum(setup: &MgSetup) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fold = |h: &mut u64, bits: u64| {
        *h ^= bits;
        *h = h.wrapping_mul(0x100_0000_01b3);
    };
    for k in 0..setup.n_levels() {
        let vals = setup.a(k).vals();
        fold(&mut h, vals.len() as u64);
        let stride = (vals.len() / CHECKSUM_SAMPLES_PER_LEVEL).max(1);
        let mut i = 0;
        while i < vals.len() {
            fold(&mut h, vals[i].to_bits());
            i += stride;
        }
    }
    h
}

/// A cached setup plus the per-matrix state the service reuses across
/// dispatches.
pub(crate) struct CachedSetup {
    /// The AMG hierarchy, interpolants and smoothers.
    pub setup: MgSetup,
    /// Blocked workspace, resized in place as batch widths change.
    pub scratch: BlockWorkspace,
    /// Exponential moving average of solve cost in nanoseconds per
    /// (cycle × right-hand side); 0 until the first timed dispatch. Feeds
    /// the deadline-infeasibility estimate.
    pub ema_ns_per_cycle_rhs: f64,
    /// Sampled checksum of the hierarchy values at build time.
    pub checksum: u64,
}

impl CachedSetup {
    /// Whether the hierarchy still matches its build-time checksum.
    pub fn verify(&self) -> bool {
        hierarchy_checksum(&self.setup) == self.checksum
    }
}

/// Fingerprint-keyed LRU cache of AMG setups.
pub(crate) struct HierarchyCache {
    map: HashMap<u64, (Arc<Mutex<CachedSetup>>, u64)>,
    capacity: usize,
    tick: u64,
    events: Vec<CacheEvent>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl HierarchyCache {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        HierarchyCache {
            map: HashMap::new(),
            capacity,
            tick: 0,
            events: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the cached entry for `fingerprint`, building (and possibly
    /// evicting) on a miss. The returned flag is `true` on a hit.
    pub fn get_or_build(
        &mut self,
        fingerprint: u64,
        a: &Csr,
        opts: &ServiceOptions,
    ) -> Result<(Arc<Mutex<CachedSetup>>, bool), BuildError> {
        self.tick += 1;
        if let Some((entry, last_used)) = self.map.get_mut(&fingerprint) {
            self.hits += 1;
            self.events.push(CacheEvent::Hit { fingerprint });
            *last_used = self.tick;
            return Ok((entry.clone(), true));
        }

        let hierarchy = try_build_hierarchy(a.clone(), &opts.amg)?;
        let setup = MgSetup::new(hierarchy, opts.mg);
        let scratch = BlockWorkspace::new(&setup, 1);
        let checksum = hierarchy_checksum(&setup);

        if self.map.len() >= self.capacity {
            // Deterministic LRU: the stamp is a unique monotone counter, so
            // the minimum is unambiguous.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(&fp, _)| fp)
                .expect("cache is non-empty at capacity");
            self.map.remove(&victim);
            self.evictions += 1;
            self.events.push(CacheEvent::Evict { fingerprint: victim });
        }

        self.misses += 1;
        self.events.push(CacheEvent::Miss { fingerprint });
        let entry = Arc::new(Mutex::new(CachedSetup {
            setup,
            scratch,
            ema_ns_per_cycle_rhs: 0.0,
            checksum,
        }));
        self.map.insert(fingerprint, (entry.clone(), self.tick));
        Ok((entry, false))
    }

    /// Drops a poisoned entry and logs the quarantine. Returns whether the
    /// fingerprint was cached.
    pub fn quarantine(&mut self, fingerprint: u64) -> bool {
        if self.map.remove(&fingerprint).is_some() {
            self.events.push(CacheEvent::Quarantine { fingerprint });
            true
        } else {
            false
        }
    }

    /// Scribbles a non-finite value into the cached hierarchy of
    /// `fingerprint` (chaos injection: simulated memory corruption of
    /// long-lived cache state). Returns whether an entry was poisoned.
    pub fn poison(&mut self, fingerprint: u64) -> bool {
        match self.map.get(&fingerprint) {
            Some((entry, _)) => {
                let mut e = entry.lock().unwrap();
                if let Some(v) = e.setup.hierarchy.levels[0].a.vals_mut().first_mut() {
                    *v = f64::NAN;
                }
                true
            }
            None => false,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn events(&self) -> &[CacheEvent] {
        &self.events
    }

    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmg_problems::stencil::laplacian_7pt;

    fn opts() -> ServiceOptions {
        ServiceOptions::default()
    }

    #[test]
    fn hit_after_miss_and_lru_eviction() {
        let mut cache = HierarchyCache::new(2);
        let o = opts();
        let m1 = laplacian_7pt(4, 4, 4);
        let m2 = laplacian_7pt(5, 4, 4);
        let m3 = laplacian_7pt(6, 4, 4);
        let (f1, f2, f3) = (m1.fingerprint(), m2.fingerprint(), m3.fingerprint());

        assert!(!cache.get_or_build(f1, &m1, &o).unwrap().1);
        assert!(!cache.get_or_build(f2, &m2, &o).unwrap().1);
        assert!(cache.get_or_build(f1, &m1, &o).unwrap().1);
        // m2 is now least recently used; inserting m3 evicts it.
        assert!(!cache.get_or_build(f3, &m3, &o).unwrap().1);
        assert_eq!(cache.len(), 2);
        assert!(!cache.get_or_build(f2, &m2, &o).unwrap().1);

        assert_eq!(cache.counters(), (1, 4, 2));
        let evicted: Vec<u64> = cache
            .events()
            .iter()
            .filter(|e| matches!(e, CacheEvent::Evict { .. }))
            .map(|e| e.fingerprint())
            .collect();
        assert_eq!(evicted, vec![f2, f1]);
    }

    #[test]
    fn build_failure_surfaces_and_caches_nothing() {
        let mut cache = HierarchyCache::new(2);
        let bad = Csr::from_raw(2, 3, vec![0, 1, 1], vec![0], vec![1.0]);
        let err = match cache.get_or_build(bad.fingerprint(), &bad, &opts()) {
            Err(e) => e,
            Ok(_) => panic!("non-square matrix must not build"),
        };
        assert!(matches!(err, BuildError::NotSquare { .. }));
        assert_eq!(cache.len(), 0);
        assert!(cache.events().is_empty());
    }

    #[test]
    fn checksum_catches_poisoning_and_quarantine_drops_the_entry() {
        let mut cache = HierarchyCache::new(2);
        let o = opts();
        let m = laplacian_7pt(4, 4, 4);
        let fp = m.fingerprint();
        let (entry, _) = cache.get_or_build(fp, &m, &o).unwrap();
        assert!(entry.lock().unwrap().verify(), "fresh build must verify");

        assert!(cache.poison(fp));
        assert!(!entry.lock().unwrap().verify(), "poisoned entry must fail verification");

        assert!(cache.quarantine(fp));
        assert_eq!(cache.len(), 0);
        assert!(!cache.quarantine(fp), "already quarantined");
        assert_eq!(
            cache.events().last().map(|e| e.name()),
            Some("quarantine"),
            "quarantine must be logged"
        );
        // The rebuild is an ordinary miss with a fresh, verifying entry.
        let (rebuilt, hit) = cache.get_or_build(fp, &m, &o).unwrap();
        assert!(!hit);
        assert!(rebuilt.lock().unwrap().verify());
        assert!(!cache.poison(0xdead_beef), "unknown fingerprint is a no-op");
    }
}
