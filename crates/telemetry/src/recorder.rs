//! The recording probe: per-thread rings + exact counters + residual trace.

use crate::ring::EventRing;
use crate::trace::{CheckpointRecord, ResidualSample, SolveTrace};
use crate::{Event, FaultKind, FaultRecord, Phase, Probe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bound on grid (level) ids tracked by the exact correction
/// counters. AMG hierarchies in this workspace have well under 64 levels.
const MAX_GRIDS: usize = 64;

/// A [`Probe`] that records events into per-thread rings.
///
/// Hot-path recording (corrections, phases) is lock-free: thread `t` writes
/// only to ring `t`. The exact per-grid correction counters are relaxed
/// atomic increments (cheap, and exact even when rings overwrite). Only the
/// low-rate residual trace — fed by team masters at round ends, a few
/// hundred samples per solve — takes a lock.
pub struct TelemetryProbe {
    rings: Vec<EventRing>,
    corrections: Vec<AtomicU64>,
    residuals: Mutex<Vec<ResidualSample>>,
    faults: Mutex<Vec<FaultRecord>>,
    checkpoints: Mutex<Vec<CheckpointRecord>>,
}

impl TelemetryProbe {
    /// A probe for up to `n_threads` recording threads, each with a ring of
    /// `capacity` events.
    pub fn new(n_threads: usize, capacity: usize) -> Self {
        TelemetryProbe {
            rings: (0..n_threads.max(1)).map(|_| EventRing::new(capacity)).collect(),
            corrections: (0..MAX_GRIDS).map(|_| AtomicU64::new(0)).collect(),
            residuals: Mutex::new(Vec::new()),
            faults: Mutex::new(Vec::new()),
            checkpoints: Mutex::new(Vec::new()),
        }
    }

    /// A probe sized for a typical solve: 16 Ki events per thread.
    pub fn with_threads(n_threads: usize) -> Self {
        TelemetryProbe::new(n_threads, 16 * 1024)
    }

    /// Number of rings (recording threads) this probe supports.
    pub fn n_threads(&self) -> usize {
        self.rings.len()
    }

    /// Merges all rings into a [`SolveTrace`], clearing the recorder.
    ///
    /// Takes `&mut self`, which guarantees every recording thread has been
    /// joined (they held `&self`).
    pub fn take_trace(&mut self) -> SolveTrace {
        let mut dropped = 0;
        let mut events: Vec<Event> = Vec::new();
        for ring in &mut self.rings {
            dropped += ring.dropped();
            events.extend(ring.drain());
        }
        let n_grids = self
            .corrections
            .iter()
            .rposition(|c| c.load(Ordering::Relaxed) > 0)
            .map_or(0, |p| p + 1);
        let counts: Vec<u64> =
            self.corrections[..n_grids].iter().map(|c| c.swap(0, Ordering::Relaxed)).collect();
        // Team masters stamp a sample before taking the mutex, so two teams
        // can push out of stamp order; the stable sort restores time order.
        let mut residuals = std::mem::take(&mut *self.residuals.lock().unwrap());
        residuals.sort_by_key(|s| s.t_ns);
        let faults = std::mem::take(&mut *self.faults.lock().unwrap());
        let mut checkpoints = std::mem::take(&mut *self.checkpoints.lock().unwrap());
        checkpoints.sort_by_key(|c| c.t_ns);
        let mut trace = SolveTrace::from_events(events, &counts, residuals, dropped, faults);
        trace.checkpoints = checkpoints;
        trace
    }
}

impl Probe for TelemetryProbe {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn correction(&self, thread: usize, grid: usize, index: usize, t_ns: u64, local_res: f64) {
        if grid < MAX_GRIDS {
            self.corrections[grid].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(ring) = self.rings.get(thread) {
            // SAFETY: the Probe contract — `thread` is the caller's own
            // global rank, so each ring has a single writer; the merge in
            // `take_trace` requires `&mut self`, after threads are joined.
            unsafe {
                ring.push(Event::Correction {
                    grid: grid as u32,
                    index: index as u32,
                    t_ns,
                    local_res,
                });
            }
        }
    }

    #[inline]
    fn phase(&self, thread: usize, grid: usize, phase: Phase, start_ns: u64, dur_ns: u64) {
        if let Some(ring) = self.rings.get(thread) {
            // SAFETY: as in `correction`.
            unsafe {
                ring.push(Event::Phase { grid: grid as u32, phase, start_ns, dur_ns });
            }
        }
    }

    #[inline]
    fn residual_sample(&self, t_ns: u64, relres: f64) {
        self.residuals.lock().unwrap().push(ResidualSample { t_ns, relres });
    }

    #[inline]
    fn fault(&self, t_ns: u64, kind: FaultKind) {
        self.faults.lock().unwrap().push(FaultRecord { t_ns, kind });
    }

    #[inline]
    fn checkpoint(&self, t_ns: u64, attempt: u32, relres: f64, restored: bool) {
        self.checkpoints.lock().unwrap().push(CheckpointRecord { t_ns, attempt, relres, restored });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_merges_across_threads() {
        let mut probe = TelemetryProbe::new(4, 128);
        std::thread::scope(|s| {
            let probe = &probe;
            for t in 0..4usize {
                s.spawn(move || {
                    for i in 0..10usize {
                        probe.correction(t, t % 2, i, (t * 100 + i) as u64, f64::NAN);
                        probe.phase(t, t % 2, Phase::Smooth, i as u64, 5);
                    }
                });
            }
            probe.residual_sample(1, 0.5);
            probe.residual_sample(2, 0.25);
            probe.fault(3, FaultKind::GuardTripped { grid: 0 });
            probe.checkpoint(4, 0, 0.25, false);
        });
        let trace = probe.take_trace();
        assert_eq!(trace.grid_corrections(), vec![20, 20]);
        assert_eq!(trace.phase_totals[Phase::Smooth.index()].count, 40);
        assert_eq!(trace.residual_history.len(), 2);
        assert_eq!(
            trace.faults,
            vec![FaultRecord { t_ns: 3, kind: FaultKind::GuardTripped { grid: 0 } }]
        );
        assert_eq!(
            trace.checkpoints,
            vec![CheckpointRecord { t_ns: 4, attempt: 0, relres: 0.25, restored: false }]
        );
        assert_eq!(trace.dropped_events, 0);
        // The recorder is cleared for reuse.
        assert!(probe.take_trace().grid_corrections().is_empty());
    }

    #[test]
    fn out_of_range_thread_ids_are_ignored() {
        let mut probe = TelemetryProbe::new(1, 8);
        probe.correction(5, 0, 0, 0, f64::NAN); // counter still counts
        let trace = probe.take_trace();
        assert_eq!(trace.grid_corrections(), vec![1]);
        assert!(trace.grids[0].events.is_empty());
    }
}
