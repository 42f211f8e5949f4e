//! The asynchronous tolerance stop: decided inside the teams, confirmed on
//! the quiescent iterate, resumed when the confirmation fails.
//!
//! The `OsSched` tests assert only what no schedule changes (a reported stop
//! is a confirmed one; who runs; how a run without budget or with a poisoned
//! iterate ends). Everything that depends on an interleaving — the resume
//! path above all — runs under a seeded `VirtualSched`.

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{
    solve_async, AdditiveMethod, AsyncOptions, AsyncResult, ExecEnv, MgOptions, MgSetup, NoopProbe,
    RecoveryOptions, ResComp, SolveOutcome, StopCriterion, WriteMode,
};
use asyncmg_problems::elasticity::elasticity_beam;
use asyncmg_problems::rhs::random_rhs;
use asyncmg_problems::stencil::{laplacian_27pt, laplacian_7pt};
use asyncmg_telemetry::{FaultKind, Phase, Probe};
use asyncmg_threads::{
    Corruption, Fault, FaultPlan, OsSched, ReadDelay, Sched, SchedPoint, SpinLock, VirtualClock,
    VirtualSched,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const TOL: f64 = 1e-6;

/// A scheduler that counts launches and worker starts on its way to the
/// real one. The production `OsSched` is sized by the first launch.
struct CountingSched<'a> {
    inner: Option<&'a dyn Sched>,
    os: std::sync::OnceLock<OsSched>,
    launches: AtomicUsize,
    starts: AtomicUsize,
}

impl<'a> CountingSched<'a> {
    fn over(inner: &'a dyn Sched) -> Self {
        CountingSched { inner: Some(inner), ..Self::os() }
    }

    fn os() -> Self {
        CountingSched {
            inner: None,
            os: std::sync::OnceLock::new(),
            launches: AtomicUsize::new(0),
            starts: AtomicUsize::new(0),
        }
    }

    fn sched(&self) -> &dyn Sched {
        match self.inner {
            Some(s) => s,
            None => self.os.get().expect("launched"),
        }
    }

    fn launches(&self) -> usize {
        self.launches.load(Ordering::SeqCst)
    }

    fn starts(&self) -> usize {
        self.starts.load(Ordering::SeqCst)
    }
}

impl Sched for CountingSched<'_> {
    fn launch(&self, team_sizes: &[usize]) {
        self.launches.fetch_add(1, Ordering::SeqCst);
        if self.inner.is_none() {
            self.os.get_or_init(|| OsSched::for_teams(team_sizes));
        }
        self.sched().launch(team_sizes);
    }
    fn worker_start(&self, worker: usize) {
        self.starts.fetch_add(1, Ordering::SeqCst);
        self.sched().worker_start(worker);
    }
    fn worker_exit(&self, worker: usize, panicked: bool) {
        self.sched().worker_exit(worker, panicked);
    }
    fn team_barrier(&self, worker: usize, team: usize) {
        self.sched().team_barrier(worker, team);
    }
    fn global_barrier(&self, worker: usize) {
        self.sched().global_barrier(worker);
    }
    fn point(&self, worker: usize, kind: SchedPoint) {
        self.sched().point(worker, kind);
    }
    fn lock(&self, worker: usize, lock: &SpinLock) {
        self.sched().lock(worker, lock);
    }
    fn unlock(&self, worker: usize, lock: &SpinLock) {
        self.sched().unlock(worker, lock);
    }
}

fn setup_7pt(n: usize) -> MgSetup {
    let h = build_hierarchy(laplacian_7pt(n, n, n), &AmgOptions::default());
    MgSetup::new(h, MgOptions::default())
}

fn setup_27pt(n: usize) -> MgSetup {
    let h = build_hierarchy(laplacian_27pt(n, n, n), &AmgOptions::default());
    MgSetup::new(h, MgOptions::default())
}

fn setup_elasticity(n: usize) -> MgSetup {
    let a = elasticity_beam(n, 2, 2, [n as f64, 1.0, 1.0], Default::default());
    let h = build_hierarchy(a, &AmgOptions { num_functions: 3, ..AmgOptions::default() });
    MgSetup::new(h, MgOptions::default())
}

fn tol_opts(t_max: usize, n_threads: usize) -> AsyncOptions {
    let mut opts = AsyncOptions::default();
    opts.criterion = StopCriterion::tolerance(TOL);
    opts.t_max = t_max;
    opts.n_threads = n_threads;
    opts
}

fn under(sched: &dyn Sched) -> ExecEnv<'_> {
    ExecEnv { sched: Some(sched), ..Default::default() }
}

/// (a) Honest stop: whatever the OS schedule, write mode, residual flavour
/// or team layout, a reported tolerance stop is below the tolerance by the
/// exact residual — no accuracy threshold, only the implication.
#[test]
fn a_reported_stop_is_a_confirmed_stop_under_any_os_schedule() {
    for (name, setup) in [("27pt10", setup_27pt(10)), ("elast6", setup_elasticity(6))] {
        let b = random_rhs(setup.n(), 5);
        for method in [AdditiveMethod::Multadd, AdditiveMethod::Afacx] {
            for res_comp in [ResComp::Local, ResComp::Global, ResComp::ResidualBased] {
                for write in [WriteMode::Lock, WriteMode::Atomic] {
                    for threads in [2, 3, 5] {
                        let mut opts = tol_opts(150, threads);
                        opts.method = method;
                        opts.res_comp = res_comp;
                        opts.write = write;
                        let r = solve_async(&setup, &b, &opts, &NoopProbe, ExecEnv::default());
                        let what = format!("{name} {method:?}/{res_comp:?}/{write:?} T={threads}");
                        assert_eq!(r.stopped_on_tolerance, r.relres < TOL, "{what}: {}", r.relres);
                        if r.outcome == SolveOutcome::Converged {
                            assert!(r.relres < TOL, "{what}: converged at {}", r.relres);
                        }
                        assert!(r.grid_corrections.iter().all(|&c| c <= 150), "{what}");
                    }
                }
            }
        }
    }
}

/// Schedules whose first candidate fails its confirmation, found by
/// `resume_seed_scan` under the delay below: the paper-default flavour, and
/// global-res, whose resume also restarts the shared residual.
const RESUMING: [(ResComp, u64); 2] = [(ResComp::Local, 9), (ResComp::Global, 11)];
const RESUME_DELAY: ReadDelay = ReadDelay { prob: 0.5, max_steps: 40 };
const RESUME_THREADS: usize = 6;

fn resume_run(res_comp: ResComp, seed: u64) -> (AsyncResult, usize, usize) {
    let setup = setup_7pt(6);
    let b = random_rhs(setup.n(), 3);
    let mut opts = tol_opts(200, RESUME_THREADS);
    opts.res_comp = res_comp;
    let inner = VirtualSched::with_delay(seed, RESUME_DELAY);
    let sched = CountingSched::over(&inner);
    let r = solve_async(&setup, &b, &opts, &NoopProbe, under(&sched));
    (r, sched.launches(), sched.starts())
}

/// (c) Resume path: a candidate raised from a stale view is not reported;
/// the teams launch again from the exact residual and the solve still ends
/// below the tolerance, inside its budget, replayably.
#[test]
fn a_failed_confirmation_resumes_and_still_converges() {
    for (res_comp, seed) in RESUMING {
        let (r, launches, starts) = resume_run(res_comp, seed);
        assert!(launches >= 2, "{res_comp:?} seed {seed} no longer resumes");
        assert_eq!(starts, RESUME_THREADS * launches);
        assert!(r.stopped_on_tolerance && r.relres < TOL, "{res_comp:?}: relres {}", r.relres);
        assert_eq!(r.outcome, SolveOutcome::Converged);
        assert!(r.grid_corrections.iter().all(|&c| c <= 200), "{:?}", r.grid_corrections);
        let (again, launches_again, _) = resume_run(res_comp, seed);
        assert_eq!(launches, launches_again);
        assert_eq!(r.grid_corrections, again.grid_corrections);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.x), bits(&again.x), "a resumed solve must replay bit for bit");
    }
}

/// Prints the seeds that resume, for re-pinning `RESUMING`:
/// `cargo test -p asyncmg-harness --test async_tolerance -- --ignored --nocapture`.
#[test]
#[ignore = "seed search helper"]
fn resume_seed_scan() {
    for res_comp in [ResComp::Local, ResComp::Global] {
        for seed in 0..16 {
            let (r, launches, _) = resume_run(res_comp, seed);
            if launches > 1 {
                eprintln!("{res_comp:?} seed {seed}: {launches} launches, relres {:.3e}", r.relres);
            }
        }
    }
}

/// (d) Budget: a target the budget cannot reach ends `MaxIterations` after
/// one launch — no candidate, nothing to confirm, nothing to resume.
#[test]
fn an_unreachable_tolerance_spends_the_budget_once() {
    let setup = setup_7pt(6);
    let b = random_rhs(setup.n(), 3);
    let sched = CountingSched::os();
    let r = solve_async(&setup, &b, &tol_opts(3, 3), &NoopProbe, under(&sched));
    assert_eq!(r.outcome, SolveOutcome::MaxIterations);
    assert!(!r.stopped_on_tolerance && r.relres >= TOL);
    assert_eq!(r.grid_corrections, vec![3; setup.n_levels()]);
    assert_eq!(sched.launches(), 1);
}

/// (e) Growth: an unguarded corrupted write under `.tolerance()` — `Inf`,
/// or a bit flip that leaves a huge finite entry — ends `Faulted` at the
/// next round end instead of running to `t_max`.
#[test]
fn unguarded_corruption_faults_a_tolerance_solve_early() {
    let setup = setup_7pt(6);
    let b = random_rhs(setup.n(), 3);
    let t_max = 10_000;
    // Plan seed 2 flips the top exponent bit of grid 0's round-2 entry:
    // finite, and some 10³⁰⁰ out of scale.
    for (kind, plan_seed) in [(Corruption::Inf, 0), (Corruption::BitFlip, 2)] {
        let plan =
            FaultPlan::new(plan_seed).with(Fault::CorruptWrite { grid: 0, at_round: 2, kind });
        let inner = VirtualSched::new(11);
        let sched = CountingSched::over(&inner);
        let env = ExecEnv { sched: Some(&sched), plan: Some(&plan), ..Default::default() };
        let r = solve_async(&setup, &b, &tol_opts(t_max, 4), &NoopProbe, env);
        assert_eq!(r.outcome, SolveOutcome::Faulted, "{kind:?}: relres {}", r.relres);
        assert!(!r.stopped_on_tolerance);
        assert!(r.faults.iter().any(|f| matches!(f.kind, FaultKind::WriteCorrupted { grid: 0 })));
        assert!(sched.launches() <= 2, "{kind:?}: {} launches", sched.launches());
        assert!(
            r.grid_corrections.iter().all(|&c| c < t_max / 10),
            "{kind:?} ran on: {:?}",
            r.grid_corrections
        );
        if kind == Corruption::BitFlip {
            let worst = r.x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(worst.is_finite() && worst > 1e100, "largest entry {worst}");
        }
    }
}

/// (e, continued) Growth without any poison: BPX diverges as a solver, so
/// under `.tolerance()` its residual climbs past 10⁶ × the start while
/// staying finite — `Faulted`, long before the budget is spent.
#[test]
fn a_diverging_method_stops_loudly() {
    let setup = setup_7pt(6);
    let b = random_rhs(setup.n(), 3);
    let t_max = 100_000;
    let mut opts = tol_opts(t_max, 3);
    opts.method = AdditiveMethod::Bpx;
    let sched = VirtualSched::new(4);
    let r = solve_async(&setup, &b, &opts, &NoopProbe, under(&sched));
    assert_eq!(r.outcome, SolveOutcome::Faulted, "relres {}", r.relres);
    assert!(r.relres.is_finite() && r.relres >= 1e6, "relres {}", r.relres);
    assert!(r.grid_corrections.iter().all(|&c| c < t_max / 10), "{:?}", r.grid_corrections);
    assert!(r.faults.is_empty());
}

/// Records the highest rank any per-thread event came from.
struct RankProbe(AtomicUsize);

impl Probe for RankProbe {
    fn enabled(&self) -> bool {
        true
    }
    fn correction(&self, thread: usize, _: usize, _: usize, _: u64, _: f64) {
        self.0.fetch_max(thread, Ordering::SeqCst);
    }
    fn phase(&self, thread: usize, _: usize, _: Phase, _: u64, _: u64) {
        self.0.fetch_max(thread, Ordering::SeqCst);
    }
}

/// (f) No observer: a plain `.tolerance()` solve is its T workers and
/// nothing else — every launch starts exactly T, and no event comes from a
/// rank past the last worker.
#[test]
fn a_plain_tolerance_solve_runs_only_its_workers() {
    let setup = setup_27pt(8);
    let b = random_rhs(setup.n(), 2);
    let threads = 3;
    let sched = CountingSched::os();
    let probe = RankProbe(AtomicUsize::new(0));
    let r = solve_async(&setup, &b, &tol_opts(200, threads), &probe, under(&sched));
    assert_eq!(r.stopped_on_tolerance, r.relres < TOL);
    assert_eq!(sched.starts(), threads * sched.launches());
    assert!(probe.0.load(Ordering::SeqCst) < threads, "an event from outside the teams");
}

/// (f, continued) The watchdog is still there when recovery asks for it: a
/// tolerance solve that cannot finish is timed out by `max_wall` on a
/// virtual clock, without the watchdog ever becoming a scheduled worker.
#[test]
fn the_watchdog_still_times_out_a_stalled_tolerance_solve() {
    let setup = setup_7pt(6);
    let b = random_rhs(setup.n(), 3);
    let mut opts = tol_opts(usize::MAX / 2, 3);
    opts.criterion = StopCriterion::tolerance(1e-300);
    opts.recovery = RecoveryOptions::default();
    opts.recovery.max_wall = Some(Duration::from_secs(5));
    let clock = VirtualClock::new();
    let sched = CountingSched::os();
    let env = ExecEnv { sched: Some(&sched), clock: Some(&clock), ..Default::default() };
    let r = solve_async(&setup, &b, &opts, &NoopProbe, env);
    assert_eq!(r.outcome, SolveOutcome::Faulted);
    assert!(r.faults.iter().any(|f| matches!(f.kind, FaultKind::Timeout)));
    assert!(!r.stopped_on_tolerance);
    assert_eq!((sched.launches(), sched.starts()), (1, 3));
}
