//! Convergence oracles: what must hold for *every* interleaving.

use crate::case::{CaseRun, FaultAxis, FuzzCase};
use asyncmg_core::{SolveOutcome, StopCriterion};

/// The properties a schedule-fuzzed run is checked against.
///
/// The bar is deliberately schedule-independent: the paper proves (and
/// Section VI measures) convergence for *families* of asynchronous
/// executions, so any single interleaving violating the oracle is a bug —
/// either in the solver or in the oracle's model of it.
///
/// For fault-injected cases (`case.fault != FaultAxis::None`) the bar
/// changes shape rather than dropping: the iterate must stay finite and the
/// outcome must be *structured* — `Degraded` with a non-empty fault log —
/// never `Faulted`, never a hang; crashed or quarantined grids are allowed
/// below the correction envelope.
#[derive(Clone, Copy, Debug)]
pub struct Oracle {
    /// Required final relative residual, or `None` when the configuration
    /// is only guaranteed to stay bounded (the paper's † entries: global-res
    /// under heavy staleness can stagnate legitimately).
    pub max_relres: Option<f64>,
}

impl Oracle {
    /// Checks a run. `Err` carries a human-readable violation description.
    pub fn check(&self, case: &FuzzCase, run: &CaseRun) -> Result<(), Violation> {
        let r = &run.result;
        let faulted_case = case.fault != FaultAxis::None;
        // No NaN/Inf anywhere: an async schedule may slow convergence but
        // must never corrupt the iterate — and with defended recovery, an
        // injected corruption must be suppressed before it reaches x.
        if !r.relres.is_finite() {
            return Err(Violation::new(case, format!("non-finite relres {}", r.relres)));
        }
        if let Some(i) = r.x.iter().position(|v| !v.is_finite()) {
            return Err(Violation::new(case, format!("non-finite x[{i}] = {}", r.x[i])));
        }
        if faulted_case {
            // The solve must end structurally: a logged, degraded outcome.
            if r.outcome != SolveOutcome::Degraded {
                return Err(Violation::new(
                    case,
                    format!("fault-injected run ended {:?}, expected Degraded", r.outcome),
                ));
            }
            if r.faults.is_empty() {
                return Err(Violation::new(case, "fault-injected run logged no faults".into()));
            }
        } else if !r.faults.is_empty() {
            return Err(Violation::new(
                case,
                format!("fault-free run logged {} faults", r.faults.len()),
            ));
        }
        if let Some(tol) = self.max_relres {
            if r.relres >= tol {
                return Err(Violation::new(
                    case,
                    format!("relres {} above oracle threshold {tol}", r.relres),
                ));
            }
        }
        // A reported tolerance stop is a confirmed one, and a run that did
        // not reach the target says so.
        if let StopCriterion::Tolerance { relres: tol } = case.criterion {
            if r.stopped_on_tolerance != (r.relres < tol) {
                return Err(Violation::new(
                    case,
                    format!(
                        "stopped_on_tolerance = {} with relres {} against {tol}",
                        r.stopped_on_tolerance, r.relres
                    ),
                ));
            }
        }
        // Correction-count envelope per stop criterion: under Criterion 1
        // every grid performs exactly `t_max` corrections regardless of
        // schedule; under Criterion 2 at least `t_max`, with a generous cap
        // catching runaway grids (a team that never observes the stop flag);
        // a tolerance stop may come at any count up to the `t_max` cap.
        // Fault injection can legitimately push grids below the floor
        // (crashed teams, quarantined grids), never above the cap.
        let envelope = match case.criterion {
            StopCriterion::One => (case.t_max, case.t_max),
            StopCriterion::Two => (case.t_max, case.t_max.saturating_mul(50)),
            StopCriterion::Tolerance { .. } => (0, case.t_max),
        };
        let floor = if faulted_case { 0 } else { envelope.0 };
        for (k, &c) in r.grid_corrections.iter().enumerate() {
            if c < floor || c > envelope.1 {
                return Err(Violation::new(
                    case,
                    format!(
                        "grid {k} performed {c} corrections, outside envelope [{}, {}]",
                        floor, envelope.1
                    ),
                ));
            }
        }
        // Telemetry must agree with the solver's own counters.
        let traced = run.trace.grid_corrections();
        if traced != r.grid_corrections {
            return Err(Violation::new(
                case,
                format!(
                    "trace corrections {traced:?} disagree with solver counters {:?}",
                    r.grid_corrections
                ),
            ));
        }
        Ok(())
    }
}

/// A failed oracle check, tied to the case that produced it.
#[derive(Debug)]
pub struct Violation {
    /// The case's label.
    pub case: String,
    /// What went wrong.
    pub reason: String,
}

impl Violation {
    fn new(case: &FuzzCase, reason: String) -> Self {
        Violation { case: case.label(), reason }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.case, self.reason)
    }
}

impl std::error::Error for Violation {}
