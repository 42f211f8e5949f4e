//! The five workloads: what one operation is, how it is timed, how its
//! answer is checked.
//!
//! Every workload is a closed loop with one client — the service runs
//! `process_batch` on the caller's thread, so a caller waits for each reply
//! before sending the next request — driven from this single thread. Only
//! the program's public entry points are inside the clock; generating the
//! inputs and checking the answers are outside it.

use std::sync::Arc;
use std::time::Instant;

use asyncmg_core::{
    solve_mult_batch_with, BatchSpec, BlockWorkspace, Method, MgSetup, SolveReport, Solver,
};
use asyncmg_problems::rhs::random_rhs;
use asyncmg_service::{
    RequestStatus, ServiceOptions, SolveRequest, SolveResponse, SolverService, TicketState,
};
use asyncmg_sparse::{fingerprint_csr, Csr};

use crate::problem::{prepare, relres, replay_build, request_order, same_shape, Problem, TOL};
use crate::stats::median;
use crate::trace::Tracer;

/// Right-hand sides per `svc-batch` burst: the service's default batch
/// window, so one burst is exactly one blocked dispatch.
pub const BURST: usize = 8;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SvcWarm,
    SvcCold,
    SvcBatch,
    DirectSync,
    DirectAsync,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::SvcWarm, Kind::SvcCold, Kind::SvcBatch, Kind::DirectSync, Kind::DirectAsync];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SvcWarm => "svc-warm",
            Kind::SvcCold => "svc-cold",
            Kind::SvcBatch => "svc-batch",
            Kind::DirectSync => "direct-sync",
            Kind::DirectAsync => "direct-async",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// One line for `BENCHMARK.json`: which layers the workload stresses
    /// and which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Kind::SvcWarm => "SolverService::solve on a cached 27pt n=32 hierarchy: solve phase only (nrhs=1 blocked V-cycles), set-up and hashing bypassed; a set-up change must not move it",
            Kind::SvcCold => "six equal-volume 27pt boxes cycled through a 4-entry LRU: 0 % hits, every op pays fingerprint + AMG set-up + MgSetup + a short solve; the V-cycle does little",
            Kind::SvcBatch => "bursts of 8 same-matrix submits, drain, 8 takes: the multi-RHS blocked kernels and the queue/coalescing path, which single-RHS kernels bypass",
            Kind::DirectSync => "threaded synchronous Mult on elasticity n=16 (BSR 3x3, ~430 barriered cycles on an L2-resident matrix): per-cycle fixed cost; service and async runtime bypassed",
            Kind::DirectAsync => "asynchronous Multadd on 27pt n=24 (2 aggressive levels, l1-Jacobi, local-res, lock-write): the paper's time-to-tolerance; service, batching and set-up bypassed",
        }
    }

    /// Harness-recomputed relative residual above which an answer is wrong.
    /// The synchronous paths stop on an exact residual; the asynchronous
    /// monitor races the workers and lands at up to 1.15e-6.
    pub fn relres_limit(self) -> f64 {
        match self {
            Kind::DirectAsync => 2.0 * TOL,
            _ => TOL,
        }
    }

    /// Share of operations that may fail before the run counts as wrong.
    pub fn allowed_failure_share(self) -> f64 {
        match self {
            Kind::DirectAsync => 0.02,
            _ => 0.0,
        }
    }

    fn problem(self, smoke: bool) -> Problem {
        match (self, smoke) {
            (Kind::SvcWarm, false) => Problem::poisson_service(32),
            (Kind::SvcWarm, true) => Problem::poisson_service(12),
            (Kind::SvcCold, false) => Problem::poisson_boxes(&[
                [24, 24, 24],
                [16, 36, 24],
                [18, 32, 24],
                [12, 48, 24],
                [32, 18, 24],
                [36, 16, 24],
            ]),
            (Kind::SvcCold, true) => Problem::poisson_boxes(&[
                [10, 10, 10],
                [5, 20, 10],
                [20, 5, 10],
                [4, 25, 10],
                [25, 4, 10],
                [10, 20, 5],
            ]),
            (Kind::SvcBatch, false) => Problem::poisson_service(24),
            (Kind::SvcBatch, true) => Problem::poisson_service(10),
            (Kind::DirectSync, false) => Problem::elasticity(16),
            (Kind::DirectSync, true) => Problem::elasticity(8),
            (Kind::DirectAsync, false) => Problem::poisson_paper(24),
            (Kind::DirectAsync, true) => Problem::poisson_paper(10),
        }
    }
}

/// What one operation did.
pub struct OpOutcome {
    /// Seconds inside the program's public entry points.
    pub seconds: f64,
    /// Right-hand sides solved and verified.
    pub rhs_ok: usize,
    /// Whether the operation errored, was rejected, did not converge, or
    /// returned an answer the harness's own residual check refuses.
    pub failed: bool,
    /// Cycles (synchronous) or mean corrections per grid (asynchronous).
    pub cycles: f64,
    /// Index of the operation's span when traced.
    pub span: Option<usize>,
}

pub struct Workload {
    pub kind: Kind,
    pub problem: Problem,
    pub threads: usize,
    /// One prepared set-up per matrix of the problem: the direct workloads
    /// solve on it, the traced pass replays the service's hidden layers on
    /// it and measures the layers on it. Empty on an untraced service
    /// workload, where it would only sit in `peak_rss_mb` on top of what
    /// the service holds.
    pub setups: Vec<MgSetup>,
    service: Option<SolverService>,
    /// `svc-cold`: seeded request order over the matrices, cycled.
    order: Vec<usize>,
    issued: usize,
    /// Workspace of the replayed solves (traced service workloads).
    scratch: Option<BlockWorkspace>,
    /// Seed of the next right-hand side.
    rhs_seed: u64,
}

impl Workload {
    /// Generates the inputs from `seed` and warms up: caches filled and lazy
    /// state forced, except on `svc-cold`, whose users pay the set-up on
    /// every operation (it only runs one round so that the cache is full and
    /// evicting).
    pub fn new(kind: Kind, seed: u64, threads: usize, smoke: bool, traced: bool) -> Workload {
        Workload::on(kind, kind.problem(smoke), seed, threads, traced)
    }

    /// A `svc-warm`-style workload on this (direct) workload's problem, for
    /// the service-layer numbers of a workload that bypasses the service.
    pub fn service_standin(&mut self) -> Workload {
        self.rhs_seed = self.rhs_seed.wrapping_add(1);
        Workload::on(Kind::SvcWarm, self.problem.clone(), self.rhs_seed, self.threads, true)
    }

    fn on(kind: Kind, problem: Problem, seed: u64, threads: usize, traced: bool) -> Workload {
        let is_service = matches!(kind, Kind::SvcWarm | Kind::SvcCold | Kind::SvcBatch);
        let setups = if traced || !is_service {
            problem.matrices.iter().map(|a| prepare(a, &problem)).collect()
        } else {
            Vec::new()
        };

        let service = is_service.then(|| {
            SolverService::new(ServiceOptions {
                cache_capacity: 4,
                amg: problem.amg.clone(),
                mg: problem.mg,
                ..ServiceOptions::default()
            })
        });
        let order = request_order(problem.matrices.len(), seed);
        let scratch = (is_service && traced).then(|| BlockWorkspace::new(&setups[0], 1));

        let mut w = Workload {
            kind,
            problem,
            threads,
            setups,
            service,
            order,
            issued: 0,
            scratch,
            // Spread the seeds, so that consecutive `--seed`s do not draw
            // each other's right-hand sides one operation apart.
            rhs_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let warmups = match kind {
            Kind::SvcCold => w.problem.matrices.len(),
            _ => 2,
        };
        let mut off = Tracer::new(false);
        for _ in 0..warmups {
            w.op(&mut off);
        }
        w
    }

    /// Runs one operation, timed, then checks its answer.
    pub fn op(&mut self, t: &mut Tracer) -> OpOutcome {
        match self.kind {
            Kind::SvcWarm => self.op_solve(0, self.problem.matrices[0].clone(), t),
            Kind::SvcCold => {
                let m = self.order[self.issued % self.order.len()];
                self.issued += 1;
                // A fresh allocation per request: the service memoizes
                // fingerprints by `Arc` identity, and a client that sends a
                // matrix it has never sent before pays the hashing.
                let a = Arc::new(Csr::clone(&self.problem.matrices[m]));
                self.op_solve(m, a, t)
            }
            Kind::SvcBatch => self.op_burst(t),
            Kind::DirectSync => self.op_direct(Method::Mult, t),
            Kind::DirectAsync => self.op_direct(Method::Multadd, t),
        }
    }

    fn request(&self, a: Arc<Csr>, b: Vec<f64>) -> SolveRequest {
        SolveRequest::new(a, b).tolerance(TOL).t_max(self.problem.t_max)
    }

    fn spec(&self) -> BatchSpec {
        BatchSpec { tol: Some(TOL), t_max: self.problem.t_max }
    }

    fn response_ok(&self, m: usize, b: &[f64], r: &SolveResponse) -> bool {
        r.converged && relres(&self.problem.matrices[m], b, &r.x) <= self.kind.relres_limit()
    }

    /// `SolverService::solve` of one right-hand side against matrix `m`.
    fn op_solve(&mut self, m: usize, a: Arc<Csr>, t: &mut Tracer) -> OpOutcome {
        let b = self.rhs();
        let req = self.request(a.clone(), b.clone());
        let service = self.service.as_ref().expect("service workload");
        let (res, seconds, span) = t.op("service.solve", |_| service.solve(req));
        let (ok, cycles) = match &res {
            Ok(r) => (self.response_ok(m, &b, r), r.cycles as f64),
            Err(_) => (false, f64::NAN),
        };

        if let (Some(op), Ok(r)) = (span, &res) {
            let spec = self.spec();
            if r.cache_hit {
                // A hit hides one blocked solve on the cached set-up.
                let (setup, scratch) = (&self.setups[m], self.scratch.as_mut().expect("scratch"));
                t.replay_under(op, "core.solve_batch", |_| {
                    std::hint::black_box(solve_mult_batch_with(setup, &b, &[spec], scratch));
                });
            } else {
                // A miss hides the whole set-up as well.
                t.replay_under(op, "sparse.fingerprint", |_| {
                    std::hint::black_box(fingerprint_csr(&a));
                });
                let copy = t.replay_under(op, "sparse.clone", |_| (*a).clone());
                let amg = &self.problem.amg;
                let h = t.replay_under(op, "amg.build", |t| replay_build(copy, amg, t));
                assert!(
                    same_shape(&h, &self.setups[m].hierarchy),
                    "the replayed hierarchy build no longer mirrors build_hierarchy"
                );
                let mg = self.problem.mg;
                let setup = t.replay_under(op, "core.mgsetup", |_| MgSetup::new(h, mg));
                let mut ws =
                    t.replay_under(op, "core.workspace", |_| BlockWorkspace::new(&setup, 1));
                t.replay_under(op, "core.solve_batch", |_| {
                    std::hint::black_box(solve_mult_batch_with(&setup, &b, &[spec], &mut ws));
                });
            }
        }
        OpOutcome { seconds, rhs_ok: ok as usize, failed: !ok, cycles, span }
    }

    /// One burst: `BURST` submits of same-matrix right-hand sides, one
    /// `drain`, `BURST` takes.
    fn op_burst(&mut self, t: &mut Tracer) -> OpOutcome {
        let a = self.problem.matrices[0].clone();
        let bs: Vec<Vec<f64>> = (0..BURST).map(|_| self.rhs()).collect();
        let reqs: Vec<SolveRequest> =
            bs.iter().map(|b| self.request(a.clone(), b.clone())).collect();
        let service = self.service.as_ref().expect("service workload");
        let (states, seconds, span) = t.op("service.burst", |t| {
            let tickets: Vec<_> =
                reqs.into_iter().map(|r| t.span("service.submit", |_| service.submit(r))).collect();
            t.span("service.drain", |_| service.drain());
            tickets
                .into_iter()
                .map(|ticket| ticket.ok().map(|k| t.span("service.take", |_| service.take(k))))
                .collect::<Vec<_>>()
        });

        let mut rhs_ok = 0;
        let mut cycles = Vec::new();
        for (b, state) in bs.iter().zip(&states) {
            if let Some(TicketState::Ready(RequestStatus::Completed(r))) = state {
                // A burst that was not coalesced into one dispatch is a
                // different operation from the one this workload measures.
                if r.batch_size == BURST && self.response_ok(0, b, r) {
                    rhs_ok += 1;
                }
                cycles.push(r.cycles as f64);
            }
        }
        if let Some(op) = span {
            let specs = vec![self.spec(); BURST];
            let block: Vec<f64> = bs.concat();
            let (setup, scratch) = (&self.setups[0], self.scratch.as_mut().expect("scratch"));
            t.replay_under(op, "core.solve_batch", |_| {
                std::hint::black_box(solve_mult_batch_with(setup, &block, &specs, scratch));
            });
        }
        let cycles = if cycles.is_empty() { f64::NAN } else { median(&cycles) };
        OpOutcome { seconds, rhs_ok, failed: rhs_ok != BURST, cycles, span }
    }

    /// The solver configured as this workload runs it.
    pub fn solver<'a>(&self, setup: &'a MgSetup, method: Method) -> Solver<'a> {
        Solver::new(setup)
            .method(method)
            .threads(self.threads)
            .tolerance(TOL)
            .t_max(self.problem.t_max)
    }

    /// `Solver::run` of one right-hand side on the prepared set-up.
    fn op_direct(&mut self, method: Method, t: &mut Tracer) -> OpOutcome {
        let b = self.rhs();
        let setup = &self.setups[0];
        let solver = self.solver(setup, method);
        let (report, seconds, span) = t.op("solver.run", |_| solver.run(&b));
        let ok = self.report_ok(&b, &report);
        OpOutcome { seconds, rhs_ok: ok as usize, failed: !ok, cycles: report.corrects_mean, span }
    }

    /// Whether a direct solve of `b` met the tolerance by the harness's own
    /// residual.
    pub fn report_ok(&self, b: &[f64], report: &SolveReport) -> bool {
        report.converged
            && relres(&self.problem.matrices[0], b, &report.x) <= self.kind.relres_limit()
    }

    /// `setup_s`: the median seconds of [`prepare`], at least `SETUP_REPS`
    /// times round-robin over the problem's matrices (each of the six
    /// `svc-cold` boxes twice), each set-up dropped before the next is
    /// built. Call it once `peak_rss_mb` has been read: every rebuild may
    /// leave the heap a step higher than the one before (`svc-warm`: 58.4
    /// MiB after the first, 58.4 to 66 after the eleventh), which the
    /// program, building each hierarchy once, does not do to itself.
    pub fn time_setups(&self) -> f64 {
        let m = self.problem.matrices.len();
        let times: Vec<f64> = (0..SETUP_REPS.div_ceil(m) * m)
            .map(|rep| {
                let t0 = Instant::now();
                let setup = prepare(&self.problem.matrices[rep % m], &self.problem);
                let seconds = t0.elapsed().as_secs_f64();
                drop(setup);
                seconds
            })
            .collect();
        median(&times)
    }

    pub fn service(&self) -> Option<&SolverService> {
        self.service.as_ref()
    }

    /// The next right-hand side: entries uniform in `[-1, 1]` (the paper's
    /// Section V inputs). Every matrix of a problem has the same row count.
    pub fn rhs(&mut self) -> Vec<f64> {
        self.rhs_seed = self.rhs_seed.wrapping_add(1);
        random_rhs(self.problem.matrices[0].nrows(), self.rhs_seed)
    }
}
