//! Shared harness for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each binary prints CSV-ish rows to stdout. All accept `--full` to run at
//! paper scale; the defaults are laptop-scale so the whole suite finishes in
//! minutes on one core (see EXPERIMENTS.md).

// Indexed loops over multiple parallel arrays are the house style for
// numerical kernels; the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod plot;

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_problems::TestSet;
use asyncmg_smoothers::SmootherKind;

/// Minimal command-line parsing: `--key value` pairs and bare flags.
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Cli { args: std::env::args().skip(1).collect() }
    }

    /// Whether flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == &format!("--{name}"))
    }

    /// The value following `--name`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let key = format!("--{name}");
        self.args.windows(2).find(|w| w[0] == key).and_then(|w| w[1].parse().ok())
    }

    /// A comma-separated list following `--name`.
    pub fn list<T: std::str::FromStr>(&self, name: &str) -> Option<Vec<T>> {
        let key = format!("--{name}");
        self.args
            .windows(2)
            .find(|w| w[0] == key)
            .map(|w| w[1].split(',').filter_map(|s| s.parse().ok()).collect())
    }
}

/// The per-problem Jacobi weight of Table I (ω = .9 for the stencil sets,
/// ω = .5 for the MFEM sets).
pub fn paper_omega(set: TestSet) -> f64 {
    match set {
        TestSet::SevenPt | TestSet::TwentySevenPt => 0.9,
        _ => 0.5,
    }
}

/// Builds the paper's BoomerAMG-equivalent hierarchy and solver setup for
/// `set` at grid length `n`.
pub fn build_setup(
    set: TestSet,
    n: usize,
    aggressive_levels: usize,
    smoother: SmootherKind,
) -> MgSetup {
    let a = set.matrix(n);
    // Elasticity has 3 interleaved displacement dofs per node; the unknown
    // approach is essential there (as in BoomerAMG's num_functions).
    let num_functions = if set == TestSet::Elasticity { 3 } else { 1 };
    let h =
        build_hierarchy(a, &AmgOptions { aggressive_levels, num_functions, ..Default::default() });
    let mut opts = MgOptions::default();
    opts.smoother = smoother;
    opts.interp_omega = paper_omega(set);
    MgSetup::new(h, opts)
}

/// The four smoothers of Table I for a given test set.
pub fn paper_smoothers(set: TestSet) -> [SmootherKind; 4] {
    [
        SmootherKind::WJacobi { omega: paper_omega(set) },
        SmootherKind::L1Jacobi,
        SmootherKind::HybridJgs,
        SmootherKind::AsyncGs,
    ]
}

/// One measured point of the time-to-tolerance protocol.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// V-cycles requested.
    pub vcycles: usize,
    /// Mean relative residual over the runs.
    pub relres: f64,
    /// Mean wall-clock seconds.
    pub secs: f64,
    /// Mean corrections per grid.
    pub corrects: f64,
}

/// Result of the protocol: the first sweep point under tolerance.
#[derive(Clone, Copy, Debug)]
pub struct ToleranceResult {
    /// The point that crossed the tolerance.
    pub point: SweepPoint,
    /// Whether the tolerance was actually reached (`false` ⇒ `point` is the
    /// last measured one; the paper marks this case †).
    pub reached: bool,
}

/// The paper's Section V measurement protocol: measure `(relres, secs,
/// corrects)` at increasing V-cycle counts (averaged over `runs`) and report
/// the first multiple of `step` whose mean residual crosses `tau`.
///
/// The search first brackets the crossing geometrically (`step, 2·step,
/// 4·step, …`) and then refines arithmetically inside the bracket, which
/// costs `O(crossing)` solves instead of the naive `O(crossing²/step)` —
/// same reported granularity as the paper's `5, 10, …` sweep.
///
/// `measure(t_max, run_index)` performs one solve.
pub fn time_to_tolerance<F>(
    tau: f64,
    step: usize,
    max_cycles: usize,
    runs: usize,
    mut measure: F,
) -> ToleranceResult
where
    F: FnMut(usize, usize) -> (f64, f64, f64),
{
    let eval = |t: usize, measure: &mut F| -> SweepPoint {
        let mut relres = 0.0;
        let mut secs = 0.0;
        let mut corrects = 0.0;
        for run in 0..runs {
            let (r, s, c) = measure(t, run);
            relres += r;
            secs += s;
            corrects += c;
        }
        SweepPoint {
            vcycles: t,
            relres: relres / runs as f64,
            secs: secs / runs as f64,
            corrects: corrects / runs as f64,
        }
    };
    // Geometric bracketing.
    let mut lo = 0usize; // largest t known to fail
    let hi_point: Option<SweepPoint>;
    let mut last = SweepPoint { vcycles: 0, relres: f64::INFINITY, secs: 0.0, corrects: 0.0 };
    let mut t = step;
    loop {
        let point = eval(t.min(max_cycles), &mut measure);
        if point.relres < tau {
            hi_point = Some(point);
            break;
        }
        if !point.relres.is_finite() || point.relres > 1e6 {
            return ToleranceResult { point, reached: false };
        }
        last = point;
        lo = t.min(max_cycles);
        if t >= max_cycles {
            return ToleranceResult { point: last, reached: false };
        }
        t = (t * 2).min(max_cycles);
    }
    // Binary refinement on multiples of `step`: smallest t in (lo, hi] whose
    // mean residual crosses tau (residuals are near-monotone in t).
    let mut hi = hi_point.unwrap();
    let mut lo_t = lo;
    while hi.vcycles > lo_t + step {
        let mid = (lo_t + (hi.vcycles - lo_t) / 2) / step * step;
        if mid <= lo_t || mid >= hi.vcycles {
            break;
        }
        let point = eval(mid, &mut measure);
        if point.relres < tau {
            hi = point;
        } else {
            lo_t = mid;
        }
    }
    let _ = last;
    ToleranceResult { point: hi, reached: true }
}

/// Formats a `ToleranceResult` like a Table I cell: `time corrects vcycles`
/// or `† † †` for divergence/non-convergence.
pub fn table_cell(r: &ToleranceResult) -> String {
    if r.reached {
        format!("{:.4} {:>4.0} {:>4}", r.point.secs, r.point.corrects, r.point.vcycles)
    } else {
        "†      †    †".to_string()
    }
}

/// One solver configuration of Table I.
#[derive(Clone, Copy, Debug)]
pub enum MethodCfg {
    /// Classical multiplicative multigrid, threaded ("sync Mult").
    Mult,
    /// An additive configuration run by [`asyncmg_core::solve_async`].
    Additive(asyncmg_core::AsyncOptions),
}

/// The twelve method rows of Table I, in the paper's order.
pub fn table1_methods() -> Vec<(&'static str, MethodCfg)> {
    use asyncmg_core::additive::AdditiveMethod as M;
    use asyncmg_core::{AsyncOptions, ResComp, WriteMode};
    // AsyncOptions is #[non_exhaustive]: derive each row from the default.
    let cfg = |f: &dyn Fn(&mut AsyncOptions)| {
        let mut o = AsyncOptions::default();
        f(&mut o);
        MethodCfg::Additive(o)
    };
    vec![
        ("sync Mult", MethodCfg::Mult),
        ("sync Multadd, lock-write", cfg(&|o| o.sync = true)),
        (
            "sync Multadd, atomic-write",
            cfg(&|o| {
                o.sync = true;
                o.write = WriteMode::Atomic;
            }),
        ),
        (
            "sync AFACx, lock-write",
            cfg(&|o| {
                o.method = M::Afacx;
                o.sync = true;
            }),
        ),
        (
            "sync AFACx, atomic-write",
            cfg(&|o| {
                o.method = M::Afacx;
                o.sync = true;
                o.write = WriteMode::Atomic;
            }),
        ),
        ("AFACx, lock-write", cfg(&|o| o.method = M::Afacx)),
        (
            "AFACx, atomic-write",
            cfg(&|o| {
                o.method = M::Afacx;
                o.write = WriteMode::Atomic;
            }),
        ),
        ("Multadd, lock-write, global-res", cfg(&|o| o.res_comp = ResComp::Global)),
        ("Multadd, lock-write, local-res", cfg(&|_| ())),
        (
            "Multadd, atomic-write, global-res",
            cfg(&|o| {
                o.write = WriteMode::Atomic;
                o.res_comp = ResComp::Global;
            }),
        ),
        ("Multadd, atomic-write, local-res", cfg(&|o| o.write = WriteMode::Atomic)),
        (
            "r-Multadd, atomic-write, local-res",
            cfg(&|o| {
                o.write = WriteMode::Atomic;
                o.res_comp = ResComp::ResidualBased;
            }),
        ),
    ]
}

/// Runs one method configuration for `t_max` cycles; returns
/// `(relres, secs, mean corrects per grid)`.
pub fn run_method(
    cfg: &MethodCfg,
    setup: &MgSetup,
    b: &[f64],
    t_max: usize,
    n_threads: usize,
    criterion: asyncmg_core::StopCriterion,
) -> (f64, f64, f64) {
    use asyncmg_core::{ExecEnv, NoopProbe};
    let env = ExecEnv::default();
    match cfg {
        MethodCfg::Mult => {
            let r = asyncmg_core::solve_mult_threaded(
                setup, b, n_threads, t_max, None, &NoopProbe, env,
            );
            (r.relres, r.elapsed.as_secs_f64(), t_max as f64)
        }
        MethodCfg::Additive(opts) => {
            let mut opts = *opts;
            opts.t_max = t_max;
            opts.n_threads = n_threads;
            opts.criterion = criterion;
            let r = asyncmg_core::solve_async(setup, b, &opts, &NoopProbe, env);
            (r.relres, r.elapsed.as_secs_f64(), r.corrects_mean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_table1_methods() {
        let m = table1_methods();
        assert_eq!(m.len(), 12);
        assert_eq!(m[0].0, "sync Mult");
        assert_eq!(m[11].0, "r-Multadd, atomic-write, local-res");
    }

    #[test]
    fn run_method_executes_both_kinds() {
        let s = build_setup(TestSet::SevenPt, 6, 0, SmootherKind::WJacobi { omega: 0.9 });
        let b = asyncmg_problems::rhs::random_rhs(s.n(), 0);
        for (name, cfg) in table1_methods().iter().take(2) {
            let (relres, secs, corrects) =
                run_method(cfg, &s, &b, 5, 2, asyncmg_core::StopCriterion::One);
            assert!(relres < 1.0, "{name}: {relres}");
            assert!(secs >= 0.0);
            assert!(corrects >= 5.0);
        }
    }

    #[test]
    fn protocol_finds_first_crossing() {
        // relres halves per 5 cycles: 0.5^(t/5).
        let res = time_to_tolerance(1e-3, 5, 100, 2, |t, _run| {
            (0.5f64.powf(t as f64 / 5.0), t as f64 * 0.01, t as f64)
        });
        assert!(res.reached);
        assert_eq!(res.point.vcycles, 50);
    }

    #[test]
    fn protocol_reports_failure() {
        let res = time_to_tolerance(1e-3, 10, 40, 1, |_, _| (0.5, 0.0, 0.0));
        assert!(!res.reached);
        assert_eq!(res.point.vcycles, 40);
        assert!(table_cell(&res).contains('†'));
    }

    #[test]
    fn protocol_stops_on_divergence() {
        let mut calls = 0;
        let res = time_to_tolerance(1e-9, 5, 1000, 1, |t, _| {
            calls += 1;
            (1e3f64.powf(t as f64 / 5.0), 0.0, 0.0)
        });
        assert!(!res.reached);
        assert!(calls <= 3, "kept sweeping after divergence");
    }

    #[test]
    fn paper_omegas() {
        assert_eq!(paper_omega(TestSet::SevenPt), 0.9);
        assert_eq!(paper_omega(TestSet::FemLaplace), 0.5);
    }

    #[test]
    fn build_setup_works_for_all_sets() {
        for set in TestSet::all() {
            let s = build_setup(set, 6, 0, SmootherKind::WJacobi { omega: paper_omega(set) });
            assert!(s.n() > 0);
        }
    }
}

#[cfg(test)]
mod cli_tests {
    use super::Cli;

    fn cli(args: &[&str]) -> Cli {
        Cli { args: args.iter().map(|s| s.to_string()).collect() }
    }

    #[test]
    fn flags_and_values() {
        let c = cli(&["--full", "--size", "30", "--tau", "1e-9"]);
        assert!(c.flag("full"));
        assert!(!c.flag("quick"));
        assert_eq!(c.get::<usize>("size"), Some(30));
        assert_eq!(c.get::<f64>("tau"), Some(1e-9));
        assert_eq!(c.get::<usize>("missing"), None);
    }

    #[test]
    fn lists_parse() {
        let c = cli(&["--sizes", "10,20,30"]);
        assert_eq!(c.list::<usize>("sizes"), Some(vec![10, 20, 30]));
        assert_eq!(c.list::<usize>("threads"), None);
    }

    #[test]
    fn malformed_values_ignored() {
        let c = cli(&["--size", "abc"]);
        assert_eq!(c.get::<usize>("size"), None);
        let c = cli(&["--sizes", "1,x,3"]);
        assert_eq!(c.list::<usize>("sizes"), Some(vec![1, 3]));
    }
}
