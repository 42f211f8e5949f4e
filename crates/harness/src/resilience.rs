//! The resilient-session axis of the harness: drive fault plans through the
//! full degradation ladder and check the *final* outcome, not just one
//! solve's.
//!
//! A [`ResilienceAxis`] wraps a PR-4 [`FuzzCase`] (problem, method,
//! write/residual flavours, fault axis) and runs it through
//! [`Solver::resilient`] with a seeded deterministic session: attempt `a`
//! executes under `VirtualSched::new(mix(session_seed, a))`, so the whole
//! session — escalations, warm starts, final bits — is a pure function of
//! `(axis, session_seed)`. [`check_session`] is the session oracle: the run
//! must end structurally (converged at tolerance, or retry budget exhausted
//! with a non-empty escalation log), never hang, and never yield a
//! non-finite iterate.

use crate::case::{FaultAxis, FuzzCase};
use crate::fingerprint::Fnv;
use crate::oracle::Violation;
use asyncmg_core::{AdditiveMethod, Method, RetryPolicy, SessionReport, SolveOutcome, Solver};
use asyncmg_problems::rhs::random_rhs;

/// One resilient-session configuration of the fuzz matrix.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceAxis {
    /// The underlying fuzz case. Its stop criterion is ignored — sessions
    /// always target [`ResilienceAxis::tolerance`]; its fault axis is
    /// injected on the asynchronous ladder rungs.
    pub case: FuzzCase,
    /// Session tolerance (the oracle's convergence bar).
    pub tolerance: f64,
    /// Retry budget — the default ladder has 5 rungs, so 6 attempts walk
    /// it end to end with one retry to spare.
    pub max_attempts: u32,
}

impl ResilienceAxis {
    /// An axis over `case` with the default session bar (1e-6, 6 attempts).
    pub fn new(case: FuzzCase) -> Self {
        ResilienceAxis { case, tolerance: 1e-6, max_attempts: 6 }
    }

    /// A filterable label: the case's label plus the session suffix.
    pub fn label(&self) -> String {
        format!("{}/session", self.case.label())
    }

    /// Runs the session deterministically under `session_seed`, recording
    /// telemetry. The returned [`SessionRun`] is a pure function of
    /// `(self, session_seed)` up to wall-clock durations, which the
    /// fingerprint excludes.
    pub fn run(&self, session_seed: u64) -> SessionRun {
        let setup = self.case.setup();
        let b = random_rhs(setup.n(), self.case.rhs_seed);
        let method = match self.case.method {
            AdditiveMethod::Multadd => Method::Multadd,
            AdditiveMethod::Afacx => Method::Afacx,
            AdditiveMethod::Bpx => Method::Bpx,
        };
        let plan = self.case.fault.plan(session_seed);
        let mut solver = Solver::new(&setup)
            .method(method)
            .threads(self.case.n_threads)
            .t_max(self.case.t_max)
            .res_comp(self.case.res_comp)
            .write_mode(self.case.write)
            .tolerance(self.tolerance)
            .retry(RetryPolicy { max_attempts: self.max_attempts, ..Default::default() })
            .session_seed(session_seed)
            .with_trace();
        if let Some(plan) = plan.as_ref() {
            solver = solver.fault_plan(plan);
        }
        let report = solver.resilient(&b);
        let fingerprint = fingerprint_session(&report);
        SessionRun { report, fingerprint }
    }
}

/// The outcome of one schedule-controlled resilient session.
pub struct SessionRun {
    /// The full session report (attempts, escalations, checkpoints, trace).
    pub report: SessionReport,
    /// Canonical hash of the session (see [`fingerprint_session`]).
    pub fingerprint: u64,
}

/// The canonical fingerprint of one session: bit-exact over the final
/// iterate and residual, the per-attempt rungs, outcomes, residuals,
/// escalation reasons and fault-kind streams, and the checkpoint counters.
/// Wall-clock durations and timestamps are excluded, so two replays of the
/// same seeded session produce equal fingerprints.
pub fn fingerprint_session(report: &SessionReport) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(report.x.len() as u64);
    for &v in &report.x {
        h.write_f64(v);
    }
    h.write_f64(report.relres);
    h.write_u64(report.converged as u64);
    h.write_u64(report.outcome as u64);
    h.write_u64(report.deadline_exhausted as u64);
    h.write_u64(report.attempts.len() as u64);
    for a in &report.attempts {
        h.write_u64(a.index as u64);
        h.write_bytes(a.rung.name().as_bytes());
        h.write_f64(a.relres);
        h.write_u64(a.outcome as u64);
        h.write_f64(a.corrections);
        h.write_u64(a.warm_start as u64);
        h.write_bytes(a.escalation.map_or("", |e| e.name()).as_bytes());
        h.write_u64(a.sched_seed.unwrap_or(u64::MAX));
        h.write_u64(a.faults.len() as u64);
        for f in &a.faults {
            h.write_bytes(f.kind.name().as_bytes());
            h.write_u64(f.kind.grid().map_or(u64::MAX, u64::from));
        }
    }
    h.write_u64(report.checkpoints.taken as u64);
    h.write_u64(report.checkpoints.restored as u64);
    h.finish()
}

/// The session oracle: what must hold for *every* fault plan and seed.
///
/// A resilient session must end structurally — either converged at the
/// axis tolerance, or with its retry budget exhausted and a non-empty
/// escalation log explaining every failed attempt — with a finite iterate
/// either way. Fault-free axes must additionally log no faults at all.
pub fn check_session(axis: &ResilienceAxis, run: &SessionRun) -> Result<(), Violation> {
    let r = &run.report;
    let fail = |reason: String| Violation { case: axis.label(), reason };
    if let Some(i) = r.x.iter().position(|v| !v.is_finite()) {
        return Err(fail(format!("non-finite x[{i}] = {}", r.x[i])));
    }
    if r.attempts.is_empty() {
        return Err(fail("session made no attempts".into()));
    }
    if r.attempts.len() > axis.max_attempts as usize {
        return Err(fail(format!(
            "{} attempts exceed the budget of {}",
            r.attempts.len(),
            axis.max_attempts
        )));
    }
    if r.converged {
        if r.relres.is_nan() || r.relres > axis.tolerance {
            return Err(fail(format!(
                "converged session reports relres {} above tolerance {}",
                r.relres, axis.tolerance
            )));
        }
        if r.outcome != SolveOutcome::Converged {
            return Err(fail(format!("converged session reports outcome {:?}", r.outcome)));
        }
        // Every attempt before the converging one must carry an escalation
        // reason; the converging one must not.
        let (last, rest) = r.attempts.split_last().unwrap();
        if last.escalation.is_some() {
            return Err(fail("converging attempt carries an escalation reason".into()));
        }
        if let Some(a) = rest.iter().find(|a| a.escalation.is_none()) {
            return Err(fail(format!("non-final attempt {} lacks an escalation reason", a.index)));
        }
    } else {
        if r.attempts.len() != axis.max_attempts as usize && !r.deadline_exhausted {
            return Err(fail(format!(
                "unconverged session stopped after {} of {} attempts without a deadline",
                r.attempts.len(),
                axis.max_attempts
            )));
        }
        if r.escalations().is_empty() {
            return Err(fail("unconverged session has an empty escalation log".into()));
        }
    }
    if axis.case.fault == FaultAxis::None && r.attempts.iter().any(|a| !a.faults.is_empty()) {
        return Err(fail("fault-free session logged faults".into()));
    }
    // The trace must carry one attempt record per attempt.
    if let Some(trace) = r.trace.as_ref() {
        if trace.attempts.len() != r.attempts.len() {
            return Err(fail(format!(
                "trace has {} attempt records for {} attempts",
                trace.attempts.len(),
                r.attempts.len()
            )));
        }
    }
    Ok(())
}
