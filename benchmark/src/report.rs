//! The multi-run modes: `--all` (every workload in its own process, both
//! passes, one result file), `--aa` (the timed pass twice, judged against
//! the bounds), `compare` (two result files, one row per workload and
//! metric), and `contract` (the `BENCHMARK.json` this code implements).

use std::path::Path;
use std::process::{Command, Stdio};

use crate::host;
use crate::json::Json;
use crate::layers::LAYER_METRICS;
use crate::stats::{median, quartiles, spread};
use crate::workload::Kind;
use crate::{Args, E2E_METRICS, RUN_SECONDS};

const SCHEMA: &str = "asyncmg-perf-v1";
/// Runs per set of `--aa`: what the driver takes per side.
const AA_RUNS: usize = 10;
/// Timed runs per workload of `--all`: the fewest that give each side of a
/// `compare` a spread (at three runs the quartiles are the extremes).
const ALL_RUNS: usize = 3;

/// The `BENCHMARK.json` of the repository root, from the same tables the
/// measurements use.
pub fn contract() -> Json {
    let metric = |name: &str, unit: &str, better: &str| {
        vec![("name", Json::str(name)), ("unit", Json::str(unit)), ("better", Json::str(better))]
    };
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Kind::ALL
                    .iter()
                    .map(|k| {
                        Json::obj([("name", Json::str(k.name())), ("why", Json::str(k.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                E2E_METRICS
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        let mut m = metric(name, unit, better);
                        m.push(("bound", Json::Num(bound)));
                        Json::obj(m)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(LAYER_METRICS.iter().map(|&(n, u, b)| Json::obj(metric(n, u, b))).collect()),
        ),
    ])
}

/// One child run of one workload: its result object with the `DETAIL`
/// object merged in under `"detail"`. `None` when the child produced no
/// result; a result with `correct: false` is still returned.
fn run_child(args: &Args, kind: Kind, seed: u64, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &args.threads.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // stderr passes through: the child's per-metric lines are the progress
    // report.
    let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let Json::Obj(mut result) = Json::parse(lines.next()?).ok()? else { return None };
    if let Some(detail) = lines.next().and_then(|l| l.strip_prefix("DETAIL ")) {
        result.push(("detail".into(), Json::parse(detail).ok()?));
    }
    Some(Json::Obj(result))
}

fn is_correct(run: &Json) -> bool {
    run.get("correct") == Some(&Json::Bool(true))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload — `runs` timed passes on consecutive seeds and, with
/// `traced`, one traced pass — and returns the result document plus whether
/// every run was correct.
fn collect(args: &Args, runs: usize, first_seed: u64, traced: bool) -> (Json, bool) {
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for kind in kinds {
        let mut entry = Vec::new();
        let timed: Vec<Json> =
            (0..runs as u64).filter_map(|i| run_child(args, kind, first_seed + i, false)).collect();
        all_correct &= timed.len() == runs && timed.iter().all(is_correct);
        entry.push(("runs", Json::Arr(timed)));
        if traced {
            match run_child(args, kind, first_seed, true) {
                Some(t) => {
                    all_correct &= is_correct(&t);
                    entry.push(("traced", t));
                }
                None => all_correct = false,
            }
        }
        workloads.push((kind.name(), Json::obj(entry)));
    }
    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("host", host::describe(args.threads)),
        ("first_seed", Json::Num(first_seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("run_seconds", Json::Num(args.seconds())),
        ("smoke", Json::Bool(args.smoke)),
        (
            "bounds",
            Json::obj(E2E_METRICS.iter().map(|&(name, _, _, bound)| (name, Json::Num(bound)))),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    (doc, all_correct)
}

fn write_doc(name: &str, doc: &Json) -> bool {
    let path = host::out_dir().join(name);
    let written = std::fs::create_dir_all(host::out_dir())
        .and_then(|()| std::fs::write(&path, doc.to_pretty()));
    match written {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("asyncmg-perf: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// The values of one end-to-end metric over the timed runs of a workload.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .map(|runs| runs.iter().filter_map(|r| metric_value(r, metric)).collect())
        .unwrap_or_default()
}

fn workload_names(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .and_then(Json::as_obj)
        .map(|w| w.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// `--all`: prints every metric of every workload by name and unit, writes
/// `result.json`, and fails on any wrong answer.
pub fn run_all(args: &Args) -> bool {
    // `--smoke` gates on "runs and verifies", not on timing: one run each.
    let runs = if args.smoke { 1 } else { ALL_RUNS };
    let (doc, correct) = collect(args, runs, args.seed, true);
    println!();
    for workload in workload_names(&doc) {
        let entry = doc.get("workloads").and_then(|w| w.get(&workload)).expect("listed workload");
        println!("== {workload}");
        let (mut attempted, mut failed) = (0.0, 0.0);
        for run in entry.get("runs").and_then(Json::as_arr).unwrap_or_default() {
            attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        }
        println!("  {:<36} {failed} / {attempted}", "ops_failed / ops_attempted");
        for &(name, unit, _, _) in E2E_METRICS {
            let v = values(&doc, &workload, name);
            match quartiles(&v) {
                Some((q1, q3)) => println!(
                    "  {name:<36} {:>14.6} {unit}  (q1 {q1:.6}, q3 {q3:.6}, {} runs)",
                    median(&v),
                    v.len()
                ),
                None => println!("  {name:<36} {:>14.6} {unit}", median(&v)),
            }
        }
        let detail = |key: &str| {
            entry
                .get("runs")
                .and_then(Json::as_arr)
                .and_then(|r| r.first()?.get("detail")?.get(key))
        };
        if let Some(tail) = detail("tail").and_then(Json::as_obj) {
            for (name, v) in tail.iter().filter(|(n, _)| n != "samples") {
                println!(
                    "  tail.{name:<31} {:>14.6} ms  (not gated)",
                    v.as_f64().unwrap_or(f64::NAN)
                );
            }
        }
        let Some(traced) = entry.get("traced") else { continue };
        for &(name, unit, _) in LAYER_METRICS {
            let v = metric_value(traced, name).unwrap_or(f64::NAN);
            println!("  {name:<36} {v:>14.6} {unit}");
        }
        if let Some(notes) =
            traced.get("detail").and_then(|d| d.get("notes")).and_then(Json::as_obj)
        {
            for (name, v) in notes {
                println!("  note {name}: {}", v.to_line());
            }
        }
        for line in budget_checks(&workload, &doc, traced) {
            println!("  check {line}");
        }
    }
    let written = write_doc(if args.smoke { "result-smoke.json" } else { "result.json" }, &doc);
    if !correct {
        eprintln!("asyncmg-perf: at least one run was wrong or did not finish");
    }
    correct && written
}

/// Whether the layer budget adds up to the end-to-end number, for the two
/// workloads where it should. Informational: a later change may move a
/// share, and that is a finding, not a failure of the run.
fn budget_checks(workload: &str, doc: &Json, traced: &Json) -> Vec<String> {
    let layer = |name: &str| metric_value(traced, name).unwrap_or(f64::NAN);
    let mut out = Vec::new();
    if workload == "svc-cold" {
        let share = layer("trace.replayed_share");
        out.push(format!(
            "replayed constituents cover {:.1} % of the whole-op span (budget sums at >= 90 %): {}",
            share * 100.0,
            if share >= 0.9 { "ok" } else { "OFF" }
        ));
    }
    if workload == "svc-warm" {
        // The service cycles through the blocked kernels even for a lone
        // request, so the per-cycle cost that adds up is that of the
        // blocked solve loop, not of `mult_vcycle`.
        let measured =
            median(&values(doc, workload, "solve_p50_ms")) - layer("service.overhead.ms");
        let predicted = layer("core.cycle_block1.ms") * layer("core.cycles");
        let off = predicted / measured - 1.0;
        out.push(format!(
            "core.cycle_block1.ms x core.cycles = {predicted:.2} ms against solve_p50_ms - service.overhead.ms = {measured:.2} ms ({:+.1} %, within 15 %): {}",
            off * 100.0,
            if off.abs() <= 0.15 { "ok" } else { "OFF" }
        ));
        out.push(format!(
            "for scale, core.vcycle.ms x core.cycles = {:.2} ms: the single-RHS kernel path (stencil/BSR) the service does not take",
            layer("core.vcycle.ms") * layer("core.cycles")
        ));
    }
    out
}

/// One row of a comparison: both sides' medians and quartiles, the change
/// in the "worse" direction, and the verdict against the bound.
fn compare_docs(base: &Json, new: &Json, aa: bool) -> (Vec<String>, bool) {
    let mut rows = vec![format!(
        "{:<13} {:<13} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base p50", "spread", "new p50", "spread", "worse", "bound"
    )];
    let mut ok = true;
    for workload in workload_names(base) {
        for &(name, _, better, bound) in E2E_METRICS {
            let (b, n) = (values(base, &workload, name), values(new, &workload, name));
            if b.is_empty() || n.is_empty() {
                rows.push(format!("{workload:<13} {name:<13} missing on one side"));
                ok = false;
                continue;
            }
            let (mb, mn) = (median(&b), median(&n));
            let worse = if better == "lower" { mn / mb - 1.0 } else { 1.0 - mn / mb };
            let (sb, sn) = (spread(&b), spread(&n));
            // The driver's acceptance rule, held to on every metric: both
            // spreads within the bound, and the median not worse by more
            // than it. A side of one run has no spread, so the row has no
            // verdict.
            let verdict = match sb.zip(sn) {
                None => "n/a: single run",
                Some((sb, sn)) => match (aa, sb > bound || sn > bound, worse > bound) {
                    (true, false, false) => "PASS",
                    (true, _, _) => "FAIL",
                    (false, true, _) => "unresolved",
                    (false, false, true) => "REGRESSED",
                    (false, false, false) => "ok",
                },
            };
            ok &= matches!(verdict, "PASS" | "ok");
            let pct =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
            rows.push(format!(
                "{workload:<13} {name:<13} {mb:>12.4} {:>8} {mn:>12.4} {:>8} {:>+7.2}% {:>5.0}%  {verdict}",
                pct(sb),
                pct(sn),
                worse * 100.0,
                bound * 100.0
            ));
        }
    }
    (rows, ok)
}

/// `--aa`: the timed pass twice on disjoint seeds, judged as the driver
/// judges the benchmark itself (and `setup_s` by its spread as well, which
/// the driver lets pass).
pub fn run_aa(args: &Args) -> bool {
    let (a, correct_a) = collect(args, AA_RUNS, args.seed, false);
    let (b, correct_b) = collect(args, AA_RUNS, args.seed + AA_RUNS as u64, false);
    let (rows, pass) = compare_docs(&a, &b, true);
    println!();
    for row in &rows {
        println!("{row}");
    }
    let written = write_doc("aa-a.json", &a)
        && write_doc("aa-b.json", &b)
        && std::fs::write(host::out_dir().join("aa.txt"), rows.join("\n") + "\n").is_ok();
    correct_a && correct_b && pass && written
}

/// `compare base.json new.json`.
pub fn compare_files(base: &str, new: &str) -> bool {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => Ok(doc),
            other => Err(format!("{path}: schema {other:?}, expected {SCHEMA}")),
        }
    };
    match (load(base), load(new)) {
        (Ok(b), Ok(n)) => {
            let (rows, ok) = compare_docs(&b, &n, false);
            for row in rows {
                println!("{row}");
            }
            ok
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("asyncmg-perf: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is generated (`run.sh contract > BENCHMARK.json`);
    /// this fails when the tables moved and the file was not regenerated.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), contract());
    }

    /// A result document of one workload whose every metric reads `runs[i]`
    /// in run `i`.
    fn doc(runs: &[f64]) -> Json {
        let run = |v: &f64| {
            let metrics = E2E_METRICS.iter().map(|m| (m.0, Json::obj([("value", Json::Num(*v))])));
            Json::obj([("metrics", Json::obj(metrics))])
        };
        let entry = Json::obj([("runs", Json::Arr(runs.iter().map(run).collect()))]);
        Json::obj([("workloads", Json::obj([("w", entry)]))])
    }

    /// The verdict of every row of `compare base new`, in `E2E_METRICS` order.
    fn verdicts(base: &[f64], new: &[f64]) -> Vec<String> {
        let (rows, _) = compare_docs(&doc(base), &doc(new), false);
        rows[1..].iter().map(|r| r.rsplit("%  ").next().unwrap().to_string()).collect()
    }

    #[test]
    fn compare_verdicts() {
        let steady = [100.0, 101.0, 102.0];
        assert_eq!(verdicts(&steady, &steady), ["ok"; 4]);
        // Three tenths more: worse where lower is better, better for
        // rhs_per_s.
        assert_eq!(
            verdicts(&steady, &[130.0, 131.0, 132.0]),
            ["REGRESSED", "ok", "REGRESSED", "REGRESSED"]
        );
        // A spread beyond every bound leaves every metric open, setup_s too.
        assert_eq!(verdicts(&steady, &[100.0, 130.0, 160.0]), ["unresolved"; 4]);
        assert_eq!(verdicts(&steady, &[100.0]), ["n/a: single run"; 4]);
    }

    /// The flow the README documents, on the committed reference result:
    /// compared with itself, every row resolves to `ok`.
    #[test]
    fn committed_baseline_resolves_against_itself() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline/result.json");
        let text = std::fs::read_to_string(path).expect("baseline/result.json");
        let doc = Json::parse(&text).expect("valid JSON");
        let (rows, ok) = compare_docs(&doc, &doc, false);
        assert!(ok, "{}", rows.join("\n"));
        assert_eq!(rows.len(), 1 + Kind::ALL.len() * E2E_METRICS.len());
    }
}
