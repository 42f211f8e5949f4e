//! The merged outcome of an instrumented solve, and its JSON export.

use crate::{Event, FaultRecord, Phase};

/// One observation of the global relative residual.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResidualSample {
    /// Nanoseconds since the solve epoch.
    pub t_ns: u64,
    /// Relative residual 2-norm at that instant.
    pub relres: f64,
}

/// One correction in a grid's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrectionRecord {
    /// The grid's own correction counter at this event.
    pub index: u32,
    /// Nanoseconds since the solve epoch.
    pub t_ns: u64,
    /// Team-local residual norm if cheaply available, else `NaN`.
    pub local_res: f64,
}

/// The correction timeline of one grid.
#[derive(Clone, Debug, Default)]
pub struct GridTimeline {
    /// Exact number of corrections performed (counter-backed: correct even
    /// when ring overwrite dropped some events).
    pub corrections: u64,
    /// The retained correction events, in time order.
    pub events: Vec<CorrectionRecord>,
}

/// Accumulated time of one phase across all threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTotal {
    /// Number of timed occurrences.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub total_ns: u64,
}

/// One resilience checkpoint event: a snapshot taken (`restored == false`)
/// or the iterate restored from the best known snapshot (`restored ==
/// true`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointRecord {
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// The session attempt this checkpoint belongs to (0 for plain solves).
    pub attempt: u32,
    /// Relative residual of the snapshot.
    pub relres: f64,
    /// `true` when the event is a rollback *to* a checkpoint rather than
    /// the taking of one.
    pub restored: bool,
}

/// One attempt boundary of a resilience session.
#[derive(Clone, Debug, PartialEq)]
pub struct AttemptRecord {
    /// Attempt number (0-based).
    pub index: u32,
    /// Degradation-ladder rung the attempt ran on (stable lowercase name,
    /// e.g. `async_atomic`, `pcg`).
    pub rung: String,
    /// Nanoseconds since the trace epoch at which the attempt started.
    pub start_ns: u64,
    /// Wall-clock duration of the attempt in nanoseconds.
    pub elapsed_ns: u64,
    /// Exact relative residual after the attempt.
    pub relres: f64,
    /// Structured outcome name (`converged`, `max_iterations`, `degraded`,
    /// `faulted`).
    pub outcome: String,
    /// Why the session escalated past this attempt, when it did.
    pub escalation: Option<String>,
}

/// Per-rank message counters of one sharded solve (schema v3 `"messages"`
/// array). Ranks `0..S` are shard workers, rank `S` the hub. The transport
/// invariant `sent == delivered + dropped + overflowed + pending` is
/// checked by the harness oracle, not here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardMessageStats {
    /// Shard rank the counters belong to.
    pub rank: u32,
    /// Messages this rank handed to the transport.
    pub sent: u64,
    /// Messages this rank received.
    pub delivered: u64,
    /// Messages addressed to this rank the transport dropped (lossy or
    /// faulted links).
    pub dropped: u64,
    /// Messages addressed to this rank rejected by a full ring.
    pub overflowed: u64,
    /// Reliable control-plane payloads this rank retransmitted (non-zero
    /// only for the hub of a recovery-armed sharded solve; additive v3
    /// field, absent counts as zero).
    pub retransmits: u64,
}

/// One completed asynchronous residual reduction (schema v3 `"reductions"`
/// array): the epoch's partial norms from every shard arrived and the
/// global relative residual was published.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReductionRecord {
    /// Shard epoch the reduction covers.
    pub epoch: u64,
    /// Published global relative residual.
    pub relres: f64,
    /// Number of partial norms combined (the shard count).
    pub parts: u32,
    /// Nanoseconds since the trace epoch at publication.
    pub t_ns: u64,
}

/// Everything observed during one instrumented solve.
#[derive(Clone, Debug, Default)]
pub struct SolveTrace {
    /// Low-rate global residual trace (team masters' round-end views, sync
    /// cycle ends, the exact value after each launch), in time order.
    pub residual_history: Vec<ResidualSample>,
    /// Per-grid correction timelines, indexed by grid (level) id.
    pub grids: Vec<GridTimeline>,
    /// Phase-time breakdown, indexed like [`Phase::ALL`].
    pub phase_totals: [PhaseTotal; Phase::ALL.len()],
    /// Events lost to ring-buffer overwriting (0 unless a run outgrew its
    /// rings).
    pub dropped_events: u64,
    /// Injected faults and recovery actions, in time order (empty for
    /// fault-free solves).
    pub faults: Vec<FaultRecord>,
    /// Resilience checkpoint events, in time order (empty unless a session
    /// or a checkpoint hook ran).
    pub checkpoints: Vec<CheckpointRecord>,
    /// Resilience-session attempt boundaries, in order (empty for plain
    /// solves).
    pub attempts: Vec<AttemptRecord>,
    /// Per-rank message counters, by rank (empty unless a sharded solve
    /// ran).
    pub messages: Vec<ShardMessageStats>,
    /// Completed residual reductions of a sharded solve, in publication
    /// order — epochs are strictly increasing (empty for non-sharded
    /// solves).
    pub reductions: Vec<ReductionRecord>,
}

impl SolveTrace {
    /// Builds a trace from merged ring events, exact per-grid counters, the
    /// residual history, and the fault log.
    pub fn from_events(
        mut events: Vec<Event>,
        corrections: &[u64],
        residual_history: Vec<ResidualSample>,
        dropped_events: u64,
        mut faults: Vec<FaultRecord>,
    ) -> Self {
        let n_grids = corrections.len().max(
            events
                .iter()
                .map(|e| match e {
                    Event::Correction { grid, .. } | Event::Phase { grid, .. } => {
                        *grid as usize + 1
                    }
                })
                .max()
                .unwrap_or(0),
        );
        events.sort_by_key(|e| match e {
            Event::Correction { t_ns, .. } => *t_ns,
            Event::Phase { start_ns, .. } => *start_ns,
        });
        let mut grids: Vec<GridTimeline> = vec![GridTimeline::default(); n_grids];
        for (g, &c) in corrections.iter().enumerate() {
            grids[g].corrections = c;
        }
        let mut phase_totals = [PhaseTotal::default(); Phase::ALL.len()];
        for e in events {
            match e {
                Event::Correction { grid, index, t_ns, local_res } => {
                    grids[grid as usize].events.push(CorrectionRecord { index, t_ns, local_res });
                }
                Event::Phase { phase, dur_ns, .. } => {
                    let t = &mut phase_totals[phase.index()];
                    t.count += 1;
                    t.total_ns += dur_ns;
                }
            }
        }
        faults.sort_by_key(|f| f.t_ns);
        SolveTrace {
            residual_history,
            grids,
            phase_totals,
            dropped_events,
            faults,
            checkpoints: Vec::new(),
            attempts: Vec::new(),
            messages: Vec::new(),
            reductions: Vec::new(),
        }
    }

    /// Appends `other` (one attempt of a resilience session) onto this
    /// trace, shifting all of its timestamps by `offset_ns` so the merged
    /// timeline stays monotone. Correction counters, phase totals and
    /// dropped-event counts accumulate; event streams concatenate.
    pub fn absorb(&mut self, other: SolveTrace, offset_ns: u64) {
        self.residual_history.extend(
            other
                .residual_history
                .into_iter()
                .map(|s| ResidualSample { t_ns: s.t_ns + offset_ns, ..s }),
        );
        if self.grids.len() < other.grids.len() {
            self.grids.resize(other.grids.len(), GridTimeline::default());
        }
        for (dst, src) in self.grids.iter_mut().zip(other.grids) {
            dst.corrections += src.corrections;
            dst.events.extend(
                src.events.into_iter().map(|e| CorrectionRecord { t_ns: e.t_ns + offset_ns, ..e }),
            );
        }
        for (dst, src) in self.phase_totals.iter_mut().zip(other.phase_totals) {
            dst.count += src.count;
            dst.total_ns += src.total_ns;
        }
        self.dropped_events += other.dropped_events;
        self.faults.extend(
            other.faults.into_iter().map(|f| FaultRecord { t_ns: f.t_ns + offset_ns, ..f }),
        );
        self.checkpoints.extend(
            other
                .checkpoints
                .into_iter()
                .map(|c| CheckpointRecord { t_ns: c.t_ns + offset_ns, ..c }),
        );
        self.attempts.extend(
            other
                .attempts
                .into_iter()
                .map(|a| AttemptRecord { start_ns: a.start_ns + offset_ns, ..a }),
        );
        if self.messages.len() < other.messages.len() {
            self.messages.extend(
                (self.messages.len()..other.messages.len())
                    .map(|rank| ShardMessageStats { rank: rank as u32, ..Default::default() }),
            );
        }
        for (dst, src) in self.messages.iter_mut().zip(other.messages) {
            dst.sent += src.sent;
            dst.delivered += src.delivered;
            dst.dropped += src.dropped;
            dst.overflowed += src.overflowed;
            dst.retransmits += src.retransmits;
        }
        self.reductions.extend(
            other.reductions.into_iter().map(|r| ReductionRecord { t_ns: r.t_ns + offset_ns, ..r }),
        );
    }

    /// Per-grid correction counts (the shape of `SolveReport::grid_corrections`).
    pub fn grid_corrections(&self) -> Vec<usize> {
        self.grids.iter().map(|g| g.corrections as usize).collect()
    }

    /// The final observed relative residual, if any was sampled.
    pub fn final_relres(&self) -> Option<f64> {
        self.residual_history.last().map(|s| s.relres)
    }

    /// The schema identifier [`SolveTrace::to_json`] emits.
    pub const SCHEMA: &'static str = "asyncmg-trace-v5";

    /// The schema identifier of a serialised trace, if it carries one
    /// (version-compatibility checks of golden files).
    pub fn schema_of(json: &str) -> Option<&str> {
        let tail = json.split("\"schema\"").nth(1)?;
        let tail = tail.split('"').nth(1)?;
        Some(tail)
    }

    /// Serialises the trace to JSON (schema `asyncmg-trace-v5`; see
    /// `docs/telemetry.md`). v4 adds the `"retransmits"` counter to each
    /// `"messages"` entry (v3 added the `"messages"` and `"reductions"`
    /// arrays of the sharded execution model); every v3 field is unchanged,
    /// so consumers keyed on field names still parse newer traces.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("{{\n  \"schema\": \"{}\",\n", Self::SCHEMA));
        out.push_str(&format!("  \"dropped_events\": {},\n", self.dropped_events));

        out.push_str("  \"residual_history\": [");
        for (i, s) in self.residual_history.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"t_ns\": {}, \"relres\": {}}}",
                s.t_ns,
                json_f64(s.relres)
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"phase_totals\": [");
        for (i, (ph, t)) in Phase::ALL.iter().zip(&self.phase_totals).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"phase\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
                ph.name(),
                t.count,
                t.total_ns
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"grids\": [");
        for (g, timeline) in self.grids.iter().enumerate() {
            if g > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"grid\": {g}, \"corrections\": {}, \"events\": [",
                timeline.corrections
            ));
            for (i, e) in timeline.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"index\": {}, \"t_ns\": {}, \"local_res\": {}}}",
                    e.index,
                    e.t_ns,
                    json_f64(e.local_res)
                ));
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"faults\": [");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"t_ns\": {}, \"kind\": \"{}\"{}}}",
                f.t_ns,
                f.kind.name(),
                fault_detail(f.kind)
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"checkpoints\": [");
        for (i, c) in self.checkpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"t_ns\": {}, \"attempt\": {}, \"relres\": {}, \"restored\": {}}}",
                c.t_ns,
                c.attempt,
                json_f64(c.relres),
                c.restored
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"attempts\": [");
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let escalation = match &a.escalation {
                Some(reason) => format!("\"{reason}\""),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "\n    {{\"index\": {}, \"rung\": \"{}\", \"start_ns\": {}, \"elapsed_ns\": {}, \
                 \"relres\": {}, \"outcome\": \"{}\", \"escalation\": {}}}",
                a.index,
                a.rung,
                a.start_ns,
                a.elapsed_ns,
                json_f64(a.relres),
                a.outcome,
                escalation
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"messages\": [");
        for (i, m) in self.messages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rank\": {}, \"sent\": {}, \"delivered\": {}, \"dropped\": {}, \
                 \"overflowed\": {}, \"retransmits\": {}}}",
                m.rank, m.sent, m.delivered, m.dropped, m.overflowed, m.retransmits
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"reductions\": [");
        for (i, r) in self.reductions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"epoch\": {}, \"relres\": {}, \"parts\": {}, \"t_ns\": {}}}",
                r.epoch,
                json_f64(r.relres),
                r.parts,
                r.t_ns
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Kind-specific JSON fields of one fault record (leading comma included).
fn fault_detail(kind: crate::FaultKind) -> String {
    use crate::FaultKind::*;
    match kind {
        Straggler { worker, steps } => format!(", \"worker\": {worker}, \"steps\": {steps}"),
        TeamCrash { team } => format!(", \"team\": {team}"),
        WriteCorrupted { grid }
        | WriteDropped { grid }
        | GuardTripped { grid }
        | Damped { grid }
        | Quarantined { grid } => format!(", \"grid\": {grid}"),
        ShardDeclaredDead { shard } => format!(", \"shard\": {shard}"),
        RowsAdopted { from, to } => format!(", \"from\": {from}, \"to\": {to}"),
        Timeout => String::new(),
    }
}

/// JSON-safe float rendering: finite values in scientific notation, NaN and
/// infinities as `null` (JSON has no representation for them).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> SolveTrace {
        let events = vec![
            Event::Phase { grid: 0, phase: Phase::Smooth, start_ns: 5, dur_ns: 10 },
            Event::Correction { grid: 1, index: 0, t_ns: 20, local_res: f64::NAN },
            Event::Correction { grid: 0, index: 0, t_ns: 10, local_res: 0.5 },
            Event::Phase { grid: 0, phase: Phase::Smooth, start_ns: 30, dur_ns: 7 },
        ];
        SolveTrace::from_events(
            events,
            &[1, 1],
            vec![
                ResidualSample { t_ns: 0, relres: 1.0 },
                ResidualSample { t_ns: 50, relres: 1e-3 },
            ],
            0,
            vec![
                FaultRecord { t_ns: 40, kind: crate::FaultKind::Quarantined { grid: 1 } },
                FaultRecord { t_ns: 15, kind: crate::FaultKind::TeamCrash { team: 1 } },
            ],
        )
    }

    #[test]
    fn events_are_grouped_and_sorted() {
        let t = sample_trace();
        assert_eq!(t.grids.len(), 2);
        assert_eq!(t.grid_corrections(), vec![1, 1]);
        assert_eq!(t.grids[0].events[0].t_ns, 10);
        assert_eq!(t.phase_totals[Phase::Smooth.index()], PhaseTotal { count: 2, total_ns: 17 });
        assert_eq!(t.final_relres(), Some(1e-3));
        // Fault records are sorted by time.
        assert_eq!(t.faults[0].kind, crate::FaultKind::TeamCrash { team: 1 });
        assert_eq!(t.faults[1].kind, crate::FaultKind::Quarantined { grid: 1 });
    }

    #[test]
    fn counters_win_over_retained_events() {
        // Ring overwrite lost events: counters still report the truth.
        let t = SolveTrace::from_events(vec![], &[40, 38], vec![], 12, vec![]);
        assert_eq!(t.grid_corrections(), vec![40, 38]);
        assert_eq!(t.dropped_events, 12);
        assert!(t.faults.is_empty());
    }

    #[test]
    fn json_is_well_formed_and_nan_is_null() {
        let mut trace = sample_trace();
        trace.checkpoints.push(CheckpointRecord {
            t_ns: 25,
            attempt: 0,
            relres: 0.5,
            restored: false,
        });
        trace.attempts.push(AttemptRecord {
            index: 0,
            rung: "async_atomic".into(),
            start_ns: 0,
            elapsed_ns: 60,
            relres: 1e-3,
            outcome: "degraded".into(),
            escalation: Some("degraded".into()),
        });
        trace.messages.push(ShardMessageStats {
            rank: 0,
            sent: 12,
            delivered: 10,
            dropped: 1,
            overflowed: 0,
            retransmits: 2,
        });
        trace.reductions.push(ReductionRecord { epoch: 3, relres: 1e-4, parts: 2, t_ns: 55 });
        let json = trace.to_json();
        assert!(json.contains("\"schema\": \"asyncmg-trace-v5\""));
        assert_eq!(SolveTrace::schema_of(&json), Some(SolveTrace::SCHEMA));
        assert!(json.contains("\"rank\": 0, \"sent\": 12, \"delivered\": 10"));
        assert!(json.contains("\"overflowed\": 0, \"retransmits\": 2"));
        assert!(json.contains("\"epoch\": 3, \"relres\": 1e-4, \"parts\": 2"));
        assert!(json.contains("\"local_res\": null"));
        assert!(json.contains("\"phase\": \"smooth\""));
        assert!(json.contains("\"kind\": \"team_crash\", \"team\": 1"));
        assert!(json.contains("\"kind\": \"quarantined\", \"grid\": 1"));
        assert!(json.contains("\"attempt\": 0, \"relres\": 5e-1, \"restored\": false"));
        assert!(json.contains("\"rung\": \"async_atomic\""));
        assert!(json.contains("\"escalation\": \"degraded\""));
        // Balanced braces/brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn absorb_shifts_and_accumulates() {
        let mut a = sample_trace();
        let mut b = sample_trace();
        b.messages.push(ShardMessageStats { rank: 0, sent: 4, delivered: 3, ..Default::default() });
        b.reductions.push(ReductionRecord { epoch: 0, relres: 0.5, parts: 1, t_ns: 7 });
        b.checkpoints.push(CheckpointRecord { t_ns: 5, attempt: 1, relres: 0.1, restored: true });
        b.attempts.push(AttemptRecord {
            index: 1,
            rung: "pcg".into(),
            start_ns: 0,
            elapsed_ns: 9,
            relres: 1e-9,
            outcome: "converged".into(),
            escalation: None,
        });
        let base_corrections = a.grid_corrections();
        a.absorb(b, 100);
        // Counters accumulate, event streams concatenate with shifted times.
        assert_eq!(a.grid_corrections(), vec![base_corrections[0] * 2, base_corrections[1] * 2]);
        assert_eq!(a.residual_history.last().unwrap().t_ns, 150);
        assert_eq!(a.phase_totals[Phase::Smooth.index()].count, 4);
        assert_eq!(a.faults.last().unwrap().t_ns, 140);
        assert_eq!(a.checkpoints.last().unwrap().t_ns, 105);
        assert_eq!(a.attempts.last().unwrap().start_ns, 100);
        assert_eq!(a.messages.last().unwrap().sent, 4);
        assert_eq!(a.reductions.last().unwrap().t_ns, 107);
    }
}
