//! `asyncmg-perf`: one benchmark of the asyncmg workspace — five workloads,
//! four end-to-end metrics, a per-layer budget — measured strictly from
//! outside, through the public API the program's users call.
//!
//! ```text
//! asyncmg-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--threads T] [--smoke]
//! asyncmg-perf --all   [--seed N] [--seconds S] [--threads T] [--smoke]
//! asyncmg-perf --smoke                      (= --all --smoke)
//! asyncmg-perf --aa    [--seed N] [--seconds S] [--threads T]
//! asyncmg-perf compare <base.json> <new.json>
//! asyncmg-perf contract                     (prints BENCHMARK.json)
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

// Indexed loops over parallel arrays are this workspace's house style for
// numerical kernels.
#![allow(clippy::needless_range_loop)]

mod host;
mod json;
mod layers;
mod problem;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use stats::{median, percentile};
use trace::Tracer;
use workload::{Kind, OpOutcome, Workload};

/// End-to-end metrics: name, unit, which way is better, and the share of
/// the parent's median by which a change may worsen it. One bound per
/// metric covers all workloads, so each is the loosest any workload needs:
/// at least twice the widest move of a median between two sets of ten runs
/// and (`setup_s` apart) three times the widest spread within a set, on the
/// reference host (`benchmark/README.md` has the numbers).
pub const E2E_METRICS: &[(&str, &str, &str, f64)] = &[
    ("solve_p50_ms", "ms", "lower", 0.10),
    ("rhs_per_s", "1/s", "higher", 0.10),
    ("setup_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.07),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;
const SMOKE_SECONDS: f64 = 0.4;
/// Share of `--seconds` the traced pass spends on traced operations; the
/// rest of its time goes to the per-layer measurements.
const TRACED_SHARE: f64 = 0.3;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub threads: usize,
    pub smoke: bool,
}

impl Args {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { SMOKE_SECONDS } else { RUN_SECONDS as f64 })
    }
}

enum Mode {
    Single,
    All,
    Aa,
    Compare(String, String),
    Contract,
}

fn parse_args() -> Result<(Mode, Args), String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        threads: host::default_threads(),
        smoke: false,
    };
    let mut mode = None;
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let v = value(&mut it, "--workload")?;
                args.workload = Some(Kind::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload '{v}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = num("--seed", value(&mut it, "--seed")?)?,
            "--seconds" => {
                let s: f64 = num("--seconds", value(&mut it, "--seconds")?)?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = num::<u8>("--trace", value(&mut it, "--trace")?)? != 0,
            "--threads" => {
                let t: usize = num("--threads", value(&mut it, "--threads")?)?;
                if t == 0 || t > host::nproc() {
                    return Err(format!("--threads must be in 1..={} (nproc)", host::nproc()));
                }
                args.threads = t;
            }
            "--smoke" => args.smoke = true,
            "--all" => mode = Some(Mode::All),
            "--aa" => mode = Some(Mode::Aa),
            "contract" => mode = Some(Mode::Contract),
            "compare" => {
                let base = value(&mut it, "compare")?;
                let new = value(&mut it, "compare")?;
                mode = Some(Mode::Compare(base, new));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let mode = match (mode, args.workload, args.smoke) {
        (Some(m), _, _) => m,
        (None, Some(_), _) => Mode::Single,
        (None, None, true) => Mode::All,
        (None, None, false) => {
            return Err(
                "nothing to do: give --workload, --all, --smoke, --aa, compare or contract".into()
            )
        }
    };
    Ok((mode, args))
}

fn main() -> ExitCode {
    let (mode, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("asyncmg-perf: {e}");
            return ExitCode::from(64);
        }
    };
    let ok = match mode {
        Mode::Single => run_single(&args),
        Mode::All => report::run_all(&args),
        Mode::Aa => report::run_aa(&args),
        Mode::Compare(base, new) => report::compare_files(&base, &new),
        Mode::Contract => {
            print!("{}", report::contract().to_pretty());
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What one pass over a workload produced.
struct Pass {
    ops: Vec<OpOutcome>,
    /// Name, unit, value.
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: Vec<(String, Json)>,
    correct: bool,
}

/// The pass with tracing off: operations until `--seconds` have passed (at
/// least five), then the set-ups, and the end-to-end metrics over both.
fn timed_pass(w: &mut Workload, args: &Args) -> Pass {
    let mut off = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds());
    let mut ops = Vec::new();
    while ops.len() < 5 || Instant::now() < deadline {
        ops.push(w.op(&mut off));
    }
    let secs: Vec<f64> = ops.iter().map(|o| o.seconds).collect();
    let busy: f64 = secs.iter().sum();
    let rhs_ok: usize = ops.iter().map(|o| o.rhs_ok).sum();
    // The peak before the set-ups are timed: see `Workload::time_setups`.
    let peak_rss = host::peak_rss_mib();
    // In the order of `E2E_METRICS`.
    let values = [median(&secs) * 1e3, rhs_ok as f64 / busy, w.time_setups(), peak_rss];
    let cycles: Vec<f64> = ops.iter().map(|o| o.cycles).filter(|c| c.is_finite()).collect();
    let detail = vec![
        ("busy_s".to_string(), Json::Num(busy)),
        ("rhs_verified".to_string(), Json::Num(rhs_ok as f64)),
        ("tail".to_string(), tail(&secs)),
        ("cycles_p50".to_string(), Json::num(median(&cycles))),
    ];
    let metrics = E2E_METRICS.iter().zip(values).map(|(m, v)| (m.0, m.1, v)).collect();
    Pass { ops, metrics, detail, correct: true }
}

/// The traced pass: traced operations, then the per-layer measurements; the
/// spans go to `trace-<workload>.json`. `None` when that file cannot be
/// written.
fn traced_pass(w: &mut Workload, args: &Args, out: &std::path::Path) -> Option<Pass> {
    let kind = w.kind;
    let mut t = Tracer::new(true);
    let layers = layers::measure(w, args.seconds() * TRACED_SHARE, args.smoke, &mut t);
    let file = format!("trace-{}.json", kind.name());
    if let Err(e) = t.write(&out.join(&file), kind.name()) {
        eprintln!("asyncmg-perf: cannot write {file} in {}: {e}", out.display());
        return None;
    }
    let metrics = layers::LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| (name, unit, layers.get(name)))
        .collect();
    // The workload's design, checked by the program's own counters: the
    // cache must be hit on every warm and batched operation and on no cold
    // one.
    let hit_ratio = layers.get("service.cache.hit_ratio");
    let expected = match kind {
        Kind::SvcWarm | Kind::SvcBatch => Some(1.0),
        Kind::SvcCold => Some(0.0),
        _ => None,
    };
    let correct = expected.is_none_or(|e| hit_ratio == e);
    if !correct {
        eprintln!(
            "asyncmg-perf: {} expects cache hit ratio {expected:?}, measured {hit_ratio}",
            kind.name()
        );
    }
    let detail = vec![
        ("trace_file".to_string(), Json::str(file)),
        ("notes".to_string(), Json::obj(layers.notes.iter().map(|(k, v)| (*k, v.clone())))),
    ];
    Some(Pass { ops: layers.ops, metrics, detail, correct })
}

/// One workload, one pass, in this process. Prints every metric by name and
/// unit to stderr, then on stdout a `DETAIL` line for `--all`/`--aa` and,
/// last, the result object the driver reads.
fn run_single(args: &Args) -> bool {
    let kind = args.workload.expect("single mode has a workload");
    let out = host::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| host::pin_environment(&out)) {
        eprintln!("asyncmg-perf: cannot prepare {}: {e}", out.display());
        return false;
    }
    let started = Instant::now();
    let mut w = Workload::new(kind, args.seed, args.threads, args.smoke, args.trace);
    let startup_wall = started.elapsed().as_secs_f64();

    let pass =
        if args.trace { traced_pass(&mut w, args, &out) } else { Some(timed_pass(&mut w, args)) };
    let Some(Pass { ops, metrics, mut detail, mut correct }) = pass else { return false };

    let attempted = ops.len();
    let failed = ops.iter().filter(|o| o.failed).count();
    correct &= failed as f64 <= kind.allowed_failure_share() * attempted as f64;
    correct &= metrics.iter().all(|m| m.2.is_finite());

    eprintln!(
        "{} [{}] seed {} threads {} trace {}: {} ops, {} failed, start-up {:.2} s, total {:.1} s",
        kind.name(),
        w.problem.label,
        args.seed,
        args.threads,
        args.trace as u8,
        attempted,
        failed,
        startup_wall,
        started.elapsed().as_secs_f64()
    );
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<36} {value:>14.6} {unit}");
    }

    detail.extend([
        ("workload".to_string(), Json::str(kind.name())),
        ("problem".to_string(), Json::str(w.problem.label.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("threads".to_string(), Json::Num(args.threads as f64)),
        ("ops".to_string(), Json::Num(attempted as f64)),
        ("wall_s".to_string(), Json::Num(started.elapsed().as_secs_f64())),
    ]);
    println!("DETAIL {}", Json::Obj(detail).to_line());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().filter(|m| m.2.is_finite()).map(|&(name, unit, value)| {
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
            })),
        ),
    ]);
    println!("{}", result.to_line());
    correct
}

/// Tail latency, reported but not gated: p90 always, p95 and p99 when at
/// least ten samples lie beyond them, and the maximum.
fn tail(secs: &[f64]) -> Json {
    let mut pairs = vec![("samples", Json::Num(secs.len() as f64))];
    for (name, p) in [("solve_p90_ms", 90.0), ("solve_p95_ms", 95.0), ("solve_p99_ms", 99.0)] {
        let (v, beyond) = percentile(secs, p);
        if p == 90.0 || beyond >= 10 {
            pairs.push((name, Json::Num(v * 1e3)));
        }
    }
    pairs.push(("solve_max_ms", Json::Num(percentile(secs, 100.0).0 * 1e3)));
    Json::obj(pairs)
}
