//! One fuzzable solver configuration and its schedule-controlled runner.

use crate::fingerprint::fingerprint_run;
use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{
    solve_async, AdditiveMethod, AsyncOptions, MgOptions, MgSetup, RecoveryOptions, ResComp,
    SolveReport, StopCriterion, WriteMode,
};
use asyncmg_problems::elasticity::elasticity_beam;
use asyncmg_problems::rhs::random_rhs;
use asyncmg_problems::stencil::{laplacian_27pt, laplacian_7pt};
use asyncmg_smoothers::SmootherKind;
use asyncmg_sparse::{simd, KernelSelect};
use asyncmg_telemetry::TelemetryProbe;
use asyncmg_threads::{Corruption, ExecEnv, Fault, FaultPlan, ReadDelay, VirtualSched};

/// The test-problem families the fuzz matrix draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixFamily {
    /// 7-point Laplacian on an `n³` grid.
    SevenPt(usize),
    /// 27-point Laplacian on an `n³` grid.
    TwentySevenPt(usize),
    /// Elasticity cantilever beam, `n × 2 × 2` elements (3 dofs per node —
    /// the natural home of the blocked kernel axis).
    Elasticity(usize),
}

impl MatrixFamily {
    pub(crate) fn build(&self) -> asyncmg_sparse::Csr {
        match *self {
            MatrixFamily::SevenPt(n) => laplacian_7pt(n, n, n),
            MatrixFamily::TwentySevenPt(n) => laplacian_27pt(n, n, n),
            MatrixFamily::Elasticity(n) => {
                elasticity_beam(n, 2, 2, [n as f64, 1.0, 1.0], Default::default())
            }
        }
    }

    /// Interleaved unknowns per node (BoomerAMG's `num_functions`).
    pub fn num_functions(&self) -> usize {
        match *self {
            MatrixFamily::Elasticity(_) => 3,
            _ => 1,
        }
    }

    pub(crate) fn label(&self) -> String {
        match *self {
            MatrixFamily::SevenPt(n) => format!("7pt{n}"),
            MatrixFamily::TwentySevenPt(n) => format!("27pt{n}"),
            MatrixFamily::Elasticity(n) => format!("elast{n}"),
        }
    }
}

/// The fault-injection axis of the fuzz matrix. A non-`None` axis arms
/// [`RecoveryOptions::defended`] for the run, so the oracle can demand a
/// structured degraded outcome instead of a hang or a poisoned iterate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAxis {
    /// No injection: the plain fuzz configuration.
    None,
    /// Worker 0 is descheduled for extra steps over a window of rounds.
    Straggler,
    /// Grid team 1 crashes early and never corrects again.
    Crash,
    /// Grid 0's correction write is replaced by NaN at round 2.
    Corrupt,
    /// Grid 1's correction writes are dropped with probability ½ per round.
    Drop,
}

impl FaultAxis {
    /// All axes, `None` first (the order test matrices iterate in).
    pub const ALL: [FaultAxis; 5] = [
        FaultAxis::None,
        FaultAxis::Straggler,
        FaultAxis::Crash,
        FaultAxis::Corrupt,
        FaultAxis::Drop,
    ];

    /// The fault plan this axis injects, keyed to `seed` (probabilistic
    /// decisions and bit-flip targets vary with the scheduler seed; the
    /// injected sites are fixed per axis). `None` for [`FaultAxis::None`].
    pub fn plan(self, seed: u64) -> Option<FaultPlan> {
        match self {
            FaultAxis::None => None,
            FaultAxis::Straggler => Some(FaultPlan::new(seed).with(Fault::Straggler {
                worker: 0,
                from_round: 2,
                rounds: 4,
                steps: 5,
            })),
            FaultAxis::Crash => {
                Some(FaultPlan::new(seed).with(Fault::Crash { team: 1, at_round: 3 }))
            }
            FaultAxis::Corrupt => Some(FaultPlan::new(seed).with(Fault::CorruptWrite {
                grid: 0,
                at_round: 2,
                kind: Corruption::Nan,
            })),
            FaultAxis::Drop => {
                Some(FaultPlan::new(seed).with(Fault::DropWrite { grid: 1, prob: 0.5 }))
            }
        }
    }

    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultAxis::None => "",
            FaultAxis::Straggler => "/straggler",
            FaultAxis::Crash => "/crash",
            FaultAxis::Corrupt => "/corrupt",
            FaultAxis::Drop => "/drop",
        }
    }
}

/// The kernel axis of the fuzz matrix: which operator representation the
/// hierarchy uses and whether the explicit-SIMD kernels are on or off.
///
/// Every kernel layer promises bit-identical results, so the oracle demands
/// that *all* axis values of a case produce the same run fingerprint — a
/// kernel choice that perturbs a single bit anywhere is a harness failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelAxis {
    /// The default `AmgOptions` kernel (`KernelSelect::default()`), SIMD
    /// auto-detected.
    Auto,
    /// Scalar CSR kernels, SIMD disabled.
    CsrScalar,
    /// CSR kernels with SIMD on wherever the CPU has it.
    CsrSimd,
    /// Blocked BSR kernels, SIMD disabled.
    BsrScalar,
    /// Blocked BSR kernels with SIMD on wherever the CPU has it.
    BsrSimd,
}

impl KernelAxis {
    /// All axes, `Auto` first (the order test matrices iterate in).
    pub const ALL: [KernelAxis; 5] = [
        KernelAxis::Auto,
        KernelAxis::CsrScalar,
        KernelAxis::CsrSimd,
        KernelAxis::BsrScalar,
        KernelAxis::BsrSimd,
    ];

    /// The kernel selection this axis pins in [`asyncmg_amg::AmgOptions`].
    pub fn select(self) -> KernelSelect {
        match self {
            KernelAxis::Auto => KernelSelect::default(),
            KernelAxis::CsrScalar | KernelAxis::CsrSimd => KernelSelect::Csr,
            KernelAxis::BsrScalar | KernelAxis::BsrSimd => KernelSelect::Bsr,
        }
    }

    /// The SIMD mode this axis pins process-wide for the run.
    pub fn simd_mode(self) -> simd::SimdMode {
        match self {
            KernelAxis::CsrScalar | KernelAxis::BsrScalar => simd::SimdMode::Off,
            KernelAxis::Auto | KernelAxis::CsrSimd | KernelAxis::BsrSimd => simd::SimdMode::Auto,
        }
    }

    fn label(self) -> &'static str {
        match self {
            KernelAxis::Auto => "",
            KernelAxis::CsrScalar => "/csr-scalar",
            KernelAxis::CsrSimd => "/csr-simd",
            KernelAxis::BsrScalar => "/bsr-scalar",
            KernelAxis::BsrSimd => "/bsr-simd",
        }
    }
}

/// One solver configuration of the fuzz matrix. Every field that affects
/// the execution is explicit, so a case plus a scheduler seed identifies a
/// run completely.
#[derive(Clone, Copy, Debug)]
pub struct FuzzCase {
    /// Test problem.
    pub family: MatrixFamily,
    /// Additive method under test.
    pub method: AdditiveMethod,
    /// Smoother on every level.
    pub smoother: SmootherKind,
    /// Shared-write flavour.
    pub write: WriteMode,
    /// Residual computation flavour.
    pub res_comp: ResComp,
    /// Stop criterion. All three replay under a seed: the tolerance stop is
    /// decided inside the teams and confirmed between launches.
    pub criterion: StopCriterion,
    /// Corrections per grid.
    pub t_max: usize,
    /// Worker count.
    pub n_threads: usize,
    /// Seed of the right-hand side.
    pub rhs_seed: u64,
    /// Optional bounded read-delay injection (the paper's `δ`).
    pub delay: Option<ReadDelay>,
    /// Fault-injection axis (a non-`None` axis arms defended recovery).
    pub fault: FaultAxis,
    /// Kernel axis (operator representation × SIMD mode). Must never change
    /// the fingerprint.
    pub kernel: KernelAxis,
}

impl FuzzCase {
    /// A baseline case; the fuzz matrix mutates individual fields.
    pub fn base() -> Self {
        let mut opts = AsyncOptions::default();
        opts.t_max = 16;
        opts.n_threads = 3;
        FuzzCase {
            family: MatrixFamily::SevenPt(6),
            method: opts.method,
            smoother: MgOptions::default().smoother,
            write: opts.write,
            res_comp: opts.res_comp,
            criterion: opts.criterion,
            t_max: opts.t_max,
            n_threads: opts.n_threads,
            rhs_seed: 3,
            delay: None,
            fault: FaultAxis::None,
            kernel: KernelAxis::Auto,
        }
    }

    /// A compact, filterable name: `7pt6/multadd/wjacobi/lock/local`.
    pub fn label(&self) -> String {
        let method = match self.method {
            AdditiveMethod::Multadd => "multadd",
            AdditiveMethod::Afacx => "afacx",
            AdditiveMethod::Bpx => "bpx",
        };
        let smoother = match self.smoother {
            SmootherKind::WJacobi { .. } => "wjacobi",
            SmootherKind::L1Jacobi => "l1jacobi",
            SmootherKind::HybridJgs => "hybridjgs",
            SmootherKind::AsyncGs => "asyncgs",
        };
        let write = match self.write {
            WriteMode::Lock => "lock",
            WriteMode::Atomic => "atomic",
        };
        let res = match self.res_comp {
            ResComp::Local => "local",
            ResComp::Global => "global",
            ResComp::ResidualBased => "rbased",
        };
        let delay = if self.delay.is_some() { "/delay" } else { "" };
        let tol =
            if matches!(self.criterion, StopCriterion::Tolerance { .. }) { "/tol" } else { "" };
        format!(
            "{}/{method}/{smoother}/{write}/{res}{tol}{delay}{}{}",
            self.family.label(),
            self.fault.label(),
            self.kernel.label()
        )
    }

    pub(crate) fn setup(&self) -> MgSetup {
        let a = self.family.build();
        let aopts = AmgOptions {
            num_functions: self.family.num_functions(),
            kernel: self.kernel.select(),
            ..AmgOptions::default()
        };
        let h = build_hierarchy(a, &aopts);
        let mut opts = MgOptions::default();
        opts.smoother = self.smoother;
        MgSetup::new(h, opts)
    }

    fn async_opts(&self) -> AsyncOptions {
        let mut opts = AsyncOptions::default();
        opts.method = self.method;
        opts.res_comp = self.res_comp;
        opts.write = self.write;
        opts.criterion = self.criterion;
        opts.t_max = self.t_max;
        opts.n_threads = self.n_threads;
        opts.sync = false;
        if self.fault != FaultAxis::None {
            // Fault cases run defended so injected failures end in a
            // structured Degraded/Faulted outcome rather than a poisoned
            // iterate; fault-free cases stay bit-identical to earlier
            // harness revisions (no extra barriers).
            opts.recovery = RecoveryOptions::defended();
        }
        opts
    }

    /// Runs the case once under the virtual scheduler seeded with
    /// `sched_seed`, recording telemetry. The returned [`CaseRun`] is a
    /// deterministic function of `(self, sched_seed)` up to wall-clock
    /// timestamps, which the fingerprint excludes.
    pub fn run(&self, sched_seed: u64) -> CaseRun {
        // Pin the process-wide SIMD mode for this run. All modes are
        // bit-identical by construction, so a concurrent run under another
        // mode cannot change any result — the pin only controls which
        // implementation executes.
        simd::set_mode(self.kernel.simd_mode());
        let setup = self.setup();
        let b = random_rhs(setup.n(), self.rhs_seed);
        let opts = self.async_opts();
        let sched = match self.delay {
            Some(d) => VirtualSched::with_delay(sched_seed, d),
            None => VirtualSched::new(sched_seed),
        };
        let plan = self.fault.plan(sched_seed);
        let mut probe = TelemetryProbe::with_threads(self.n_threads);
        let env = ExecEnv { sched: Some(&sched), plan: plan.as_ref(), ..Default::default() };
        let result = solve_async(&setup, &b, &opts, &probe, env);
        let trace = probe.take_trace();
        let decisions = sched.decisions();
        let fingerprint = fingerprint_run(&result, &trace);
        CaseRun { result, trace, decisions, fingerprint }
    }
}

/// The outcome of one schedule-controlled run.
pub struct CaseRun {
    /// The solver result (solution, residual, correction counts).
    pub result: SolveReport,
    /// The recorded telemetry trace.
    pub trace: asyncmg_telemetry::SolveTrace,
    /// The scheduler's decision sequence (worker ranks in decision order).
    pub decisions: Vec<u32>,
    /// Canonical hash of the run (see [`fingerprint_run`]).
    pub fingerprint: u64,
}
