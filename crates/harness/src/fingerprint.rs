//! Canonical run fingerprints: hash what a schedule determines, skip what
//! it doesn't.
//!
//! Wall-clock timestamps (`t_ns`, phase durations, `elapsed`) differ
//! between two replays of the *same* interleaving, so they are excluded.
//! Everything else — solution bits, residual bits, per-grid correction
//! event streams, phase occurrence counts — is a pure function of the
//! schedule and is folded into a 64-bit FNV-1a digest.

use asyncmg_core::SolveReport;
use asyncmg_telemetry::{FaultKind, SolveTrace};

/// The FNV-1a digest engine, re-exported from `asyncmg-sparse` where it now
/// lives so that the solver service can key its hierarchy cache on
/// [`Csr::fingerprint`](asyncmg_sparse::Csr::fingerprint) without depending
/// on the harness. The harness API is unchanged.
pub use asyncmg_sparse::Fnv;

/// The canonical fingerprint of one solve: bit-exact over the solution
/// vector, the final relative residual, the residual history values,
/// per-grid correction counts and event streams (index and local residual,
/// not timestamps), and phase occurrence counts (not durations).
///
/// Two runs under the same [`VirtualSched`](asyncmg_threads::VirtualSched)
/// seed produce equal fingerprints; a different interleaving that changes
/// any floating-point accumulation order changes the fingerprint.
pub fn fingerprint_run(result: &SolveReport, trace: &SolveTrace) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(result.x.len() as u64);
    for &v in &result.x {
        h.write_f64(v);
    }
    h.write_f64(result.relres);
    h.write_u64(result.grid_corrections.len() as u64);
    for &c in &result.grid_corrections {
        h.write_u64(c as u64);
    }
    h.write_u64(trace.residual_history.len() as u64);
    for s in &trace.residual_history {
        h.write_f64(s.relres);
    }
    h.write_u64(trace.grids.len() as u64);
    for g in &trace.grids {
        h.write_u64(g.corrections);
        h.write_u64(g.events.len() as u64);
        for e in &g.events {
            h.write_u64(e.index as u64);
            h.write_f64(e.local_res);
        }
    }
    for t in &trace.phase_totals {
        h.write_u64(t.count);
    }
    h.write_u64(trace.dropped_events);
    // Outcome and fault log: kinds and their sites are schedule-determined
    // (fault decisions are pure functions of plan seed and site); the
    // records' wall-clock timestamps are not, so only the kinds are hashed.
    h.write_u64(result.outcome as u64);
    h.write_u64(result.faults.len() as u64);
    for f in &result.faults {
        h.write_bytes(f.kind.name().as_bytes());
        h.write_u64(f.kind.grid().map_or(u64::MAX, u64::from));
        if let FaultKind::Straggler { worker, steps } = f.kind {
            h.write_u64(worker as u64);
            h.write_u64(steps as u64);
        }
        if let FaultKind::TeamCrash { team } = f.kind {
            h.write_u64(team as u64);
        }
    }
    h.finish()
}
