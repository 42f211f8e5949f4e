//! Per-layer measurements of the traced pass.
//!
//! Layers are this repository's crates. Everything is measured from outside,
//! by timing calls into each crate's public functions on the matrices,
//! hierarchy and options of the workload being run, so a layer number and
//! the workload's end-to-end number describe the same inputs. Times are
//! medians over repeated calls; byte counts are computed from array sizes
//! (they ignore cache misses).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use asyncmg_amg::{smoothed_interpolants, try_build_hierarchy, InterpSmoothing};
use asyncmg_core::{
    mult_vcycle, mult_vcycle_block, solve_mult_batch_with, BatchSpec, BlockWorkspace, Method,
    MgSetup, Solver, Workspace, WriteMode,
};
use asyncmg_service::{RequestStatus, ServiceOptions, SolveRequest, SolverService, TicketState};
use asyncmg_shard::{InProcChannel, Msg, ShardMap, ShardedExt, Transport, TransportStats};
use asyncmg_smoothers::SmootherKind;
use asyncmg_sparse::{fingerprint_csr, rap, rap_parallel, AtomicF64Vec, Csr};
use asyncmg_telemetry::ServiceStats;
use asyncmg_threads::{run_teams, SpinLock, SpscRing};

use crate::host;
use crate::json::Json;
use crate::problem::{relres, replay_build, TOL};
use crate::stats::{mean, median, quartiles};
use crate::trace::Tracer;
use crate::workload::{OpOutcome, Workload, BURST};

/// Every per-layer metric, in report order: name, unit, which way is better.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("sparse.spmv.gbs", "GB/s", "higher"),
    ("sparse.residual.gbs", "GB/s", "higher"),
    ("sparse.spmv_block8.gbs", "GB/s", "higher"),
    ("sparse.rap.s", "s", "lower"),
    ("sparse.rap_par.s", "s", "lower"),
    ("sparse.transpose.s", "s", "lower"),
    ("sparse.fingerprint.gbs", "GB/s", "higher"),
    ("sparse.stream_l3.gbs", "GB/s", "higher"),
    ("sparse.stream_dram.gbs", "GB/s", "higher"),
    ("amg.strength.s", "s", "lower"),
    ("amg.coarsen.s", "s", "lower"),
    ("amg.interp.s", "s", "lower"),
    ("amg.build.s", "s", "lower"),
    ("amg.smoothed_interp.s", "s", "lower"),
    ("amg.levels", "count", "lower"),
    ("amg.op_complexity", "ratio", "lower"),
    ("amg.grid_complexity", "ratio", "lower"),
    ("smoothers.relax.ns_per_nnz", "ns", "lower"),
    ("smoothers.relax_multi8.ns_per_nnz", "ns", "lower"),
    ("threads.barrier.ns", "ns", "lower"),
    ("threads.team_spawn.us", "us", "lower"),
    ("threads.lock_add.ns_per_elem", "ns", "lower"),
    ("threads.atomic_add.ns_per_elem", "ns", "lower"),
    ("threads.spsc.ns_per_msg", "ns", "lower"),
    ("core.mgsetup.s", "s", "lower"),
    ("core.vcycle.ms", "ms", "lower"),
    ("core.vcycle_block8.ms", "ms", "lower"),
    ("core.cycle_block1.ms", "ms", "lower"),
    ("core.cycles", "count", "lower"),
    ("core.corrects_mean", "count", "lower"),
    ("core.corrects_q1", "count", "lower"),
    ("core.corrects_q3", "count", "lower"),
    ("core.mult_seq.tts_ms", "ms", "lower"),
    ("core.mult_par.tts_ms", "ms", "lower"),
    ("core.multadd_sync.tts_ms", "ms", "lower"),
    ("core.multadd_async.tts_ms", "ms", "lower"),
    ("core.multadd_async_atomic.tts_ms", "ms", "lower"),
    ("core.async.tol_met_ratio", "ratio", "higher"),
    ("service.overhead.ms", "ms", "lower"),
    ("service.submit.us", "us", "lower"),
    ("service.fingerprint_miss.ms", "ms", "lower"),
    ("service.take.us", "us", "lower"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("service.cache.evictions", "count", "lower"),
    ("service.batch_size.mean", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("shard.map_build.s", "s", "lower"),
    ("shard.s1.tts_ms", "ms", "lower"),
    ("shard.s2.tts_ms", "ms", "lower"),
    ("shard.s2.converged_ratio", "ratio", "higher"),
    ("shard.msgs_per_epoch", "count", "lower"),
    ("shard.bytes_per_epoch", "B", "lower"),
    ("telemetry.trace_overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.replayed_share", "ratio", "higher"),
];

/// Calls per kernel-sized measurement.
const KERNEL_CALLS: usize = 40;
/// Calls per set-up-sized measurement (tens of milliseconds each).
const SETUP_CALLS: usize = 7;
/// Solves per time-to-tolerance comparator: at least this many,
const TTS_RUNS: usize = 3;
/// at most this many,
const TTS_MAX_RUNS: usize = 7;
/// and in between as many as fit into this many seconds for all comparators
/// together (elasticity takes a second per asynchronous solve).
const TTS_BUDGET_S: f64 = 6.0;

pub struct Layers {
    /// The operations of the traced pass, traced and untraced alike.
    pub ops: Vec<OpOutcome>,
    pub values: Vec<(&'static str, f64)>,
    /// Facts that are not numbers: which kernel ran, array sizes, ratios
    /// with their base.
    pub notes: Vec<(&'static str, Json)>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|m| m.0 == name), "unlisted metric {name}");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|v| v.0 == name).map_or(f64::NAN, |v| v.1)
    }
}

/// Median seconds of `calls` calls of `f`, after one untimed call.
fn time_median(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Seconds of one call of `f`.
fn time_once<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// The traced operations of the workload: every other operation is traced
/// (spans, replayed constituents), the rest run untraced in the same loop,
/// so the tracing overhead is a ratio of two medians from one run.
pub fn traced_ops(
    w: &mut Workload,
    seconds: f64,
    t: &mut Tracer,
) -> (Vec<OpOutcome>, Vec<OpOutcome>) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    while traced.len() < 3 || plain.len() < 3 || Instant::now() < deadline {
        t.set_enabled(traced.len() <= plain.len());
        let out = w.op(t);
        if out.span.is_some() {
            traced.push(out);
        } else {
            plain.push(out);
        }
    }
    t.set_enabled(true);
    (traced, plain)
}

/// All per-layer metrics of one workload.
pub fn measure(w: &mut Workload, seconds: f64, smoke: bool, t: &mut Tracer) -> Layers {
    let mut l = Layers { ops: Vec::new(), values: Vec::new(), notes: Vec::new() };
    let before = w.service().map(|s| s.stats());
    let (traced, plain) = traced_ops(w, seconds, t);
    trace_metrics(&mut l, &traced, &plain, t);
    match before {
        Some(before) => service_metrics(&mut l, w, before, &traced, t),
        None => {
            // The direct workloads bypass the service: a few `svc-warm`
            // operations on their matrix and options stand in, traced into
            // the same file.
            let mut standin = w.service_standin();
            let before = standin.service().expect("a service workload").stats();
            let (traced, _) = traced_ops(&mut standin, 0.0, t);
            service_metrics(&mut l, &mut standin, before, &traced, t);
        }
    }
    sparse_metrics(&mut l, w, smoke);
    amg_metrics(&mut l, w);
    smoother_metrics(&mut l, w);
    thread_metrics(&mut l, w);
    core_metrics(&mut l, w);
    shard_metrics(&mut l, w);
    l.ops = traced.into_iter().chain(plain).collect();
    l
}

fn trace_metrics(l: &mut Layers, traced: &[OpOutcome], plain: &[OpOutcome], t: &Tracer) {
    let p50 = |ops: &[OpOutcome]| median(&ops.iter().map(|o| o.seconds).collect::<Vec<_>>());
    l.put("trace.overhead_ratio", p50(traced) / p50(plain));
    // The budget sums when the replayed constituents account for the
    // operation: 1 − (self time of the layer that hides them) / whole.
    let shares: Vec<f64> = traced
        .iter()
        .filter_map(|o| o.span)
        .map(|id| t.replayed_seconds(id) / t.spans()[id].seconds())
        .collect();
    l.put("trace.replayed_share", median(&shares) + 0.0);
    l.notes.push(("trace.ops", Json::Num(traced.len() as f64)));
}

/// Service-layer numbers of a service workload `w`, from its traced
/// operations `traced` and its counters since `before`.
fn service_metrics(
    l: &mut Layers,
    w: &mut Workload,
    before: ServiceStats,
    traced: &[OpOutcome],
    t: &Tracer,
) {
    // Self time of the service: the whole operation minus the constituents
    // replayed for it.
    let overheads: Vec<f64> = traced
        .iter()
        .filter_map(|o| o.span)
        .map(|id| t.spans()[id].seconds() - t.replayed_seconds(id))
        .collect();
    l.put("service.overhead.ms", median(&overheads) * 1e3);

    let after = w.service().expect("a service workload").stats();
    let lookups = after.cache_lookups() - before.cache_lookups();
    l.put(
        "service.cache.hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / lookups as f64,
    );
    l.put("service.cache.evictions", (after.evictions - before.evictions) as f64);
    l.put(
        "service.batch_size.mean",
        (after.batched_rhs - before.batched_rhs) as f64 / (after.batches - before.batches) as f64,
    );
    l.put(
        "service.rejected",
        (after.rejected_deadline
            + after.rejected_queue_full
            + after.rejected_circuit_open
            + after.shed
            + after.rescue_failed) as f64,
    );

    // Submit and take in isolation, on a service of their own so the
    // workload's counters above stay the workload's.
    let a = w.problem.matrices[0].clone();
    let b = w.rhs();
    let micro = SolverService::new(ServiceOptions {
        amg: w.problem.amg.clone(),
        mg: w.problem.mg,
        ..ServiceOptions::default()
    });
    // One cycle per request: what is timed is the queue, not the solve.
    let request = |a: &Arc<Csr>, b: Vec<f64>| SolveRequest::new(a.clone(), b).t_max(1);
    micro.solve(request(&a, b.clone())).expect("micro service solve");
    let (mut submit, mut take, mut miss) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..SETUP_CALLS {
        // A burst of known handles, then one first submit of a new handle
        // to the same content (pays the hashing, hits the cache).
        let mut tickets = Vec::new();
        for _ in 0..BURST - 1 {
            let req = request(&a, b.clone());
            let (s, ticket) = time_once(|| micro.submit(req));
            submit.push(s);
            tickets.push(ticket.expect("queue has room"));
        }
        let fresh = Arc::new(Csr::clone(&a));
        let req = request(&fresh, b.clone());
        let (s, ticket) = time_once(|| micro.submit(req));
        miss.push(s);
        tickets.push(ticket.expect("queue has room"));
        micro.drain();
        for ticket in tickets {
            let (s, state) = time_once(|| micro.take(ticket));
            take.push(s);
            assert!(
                matches!(state, TicketState::Ready(RequestStatus::Completed(_))),
                "micro service round {round} did not complete"
            );
        }
    }
    l.put("service.submit.us", median(&submit) * 1e6);
    l.put("service.take.us", median(&take) * 1e6);
    l.put("service.fingerprint_miss.ms", median(&miss) * 1e3);
}

/// `a[i] = b[i] + s·c[i]` over three arrays of `n` doubles; GB/s counting
/// 24 bytes per element (computed: the write-allocate read is not counted).
fn triad_gbs(n: usize, calls: usize) -> f64 {
    let (b, c) = (vec![1.0f64; n], vec![2.0f64; n]);
    let mut a = vec![0.0f64; n];
    let secs = time_median(calls, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
    });
    24.0 * n as f64 / secs / 1e9
}

fn sparse_metrics(l: &mut Layers, w: &mut Workload, smoke: bool) {
    let x = w.rhs();
    let b = w.rhs();
    let setup = &w.setups[0];
    let (a, op) = (setup.a(0), setup.op(0));
    let (n, nnz) = (a.nrows(), a.nnz());
    let matrix_bytes = (nnz * 12 + (n + 1) * 4) as f64;
    let mut y = vec![0.0; n];

    let label =
        if a.stencil_stats().is_some() && op.bsr().is_none() { "stencil" } else { op.label() };
    l.notes.push(("sparse.spmv.kernel", Json::str(label)));
    let secs = time_median(KERNEL_CALLS, || op.spmv(black_box(&x), &mut y));
    l.put("sparse.spmv.gbs", (matrix_bytes + 16.0 * n as f64) / secs / 1e9);
    let secs = time_median(KERNEL_CALLS, || op.residual(&b, black_box(&x), &mut y));
    l.put("sparse.residual.gbs", (matrix_bytes + 24.0 * n as f64) / secs / 1e9);

    let x8: Vec<f64> = (0..8).flat_map(|_| x.iter().copied()).collect();
    let mut y8 = vec![0.0; 8 * n];
    let secs = time_median(KERNEL_CALLS, || a.spmv_block(8, black_box(&x8), &mut y8));
    l.put("sparse.spmv_block8.gbs", (matrix_bytes + 128.0 * n as f64) / secs / 1e9);

    let p = setup.p(0);
    l.put("sparse.rap.s", time_median(SETUP_CALLS, || drop(black_box(rap(a, p)))));
    let threads = w.threads;
    l.put(
        "sparse.rap_par.s",
        time_median(SETUP_CALLS, || drop(black_box(rap_parallel(a, p, threads)))),
    );
    l.put("sparse.transpose.s", time_median(KERNEL_CALLS, || drop(black_box(p.transpose()))));
    let secs = time_median(KERNEL_CALLS, || {
        black_box(fingerprint_csr(a));
    });
    l.put("sparse.fingerprint.gbs", matrix_bytes / secs / 1e9);

    // Stream triad in the same run, at the workload's footprint (the three
    // arrays together as large as the fine operator and its two vectors)
    // and far outside the last-level cache (each array four times L3).
    let footprint = matrix_bytes as usize + 16 * n;
    l.put("sparse.stream_l3.gbs", triad_gbs(footprint / 24, KERNEL_CALLS));
    let l3 = host::cache_bytes(3).unwrap_or(32 << 20);
    let dram_array = if smoke { 8 << 20 } else { (4 * l3).min(512 << 20) };
    l.put("sparse.stream_dram.gbs", triad_gbs(dram_array / 8, 5));
    l.notes.push((
        "sparse.stream.bytes",
        Json::obj([
            ("l3_resident_total", Json::Num(footprint as f64)),
            ("dram_per_array", Json::Num(dram_array as f64)),
            ("l3", Json::Num(l3 as f64)),
        ]),
    ));
}

fn amg_metrics(l: &mut Layers, w: &mut Workload) {
    let a: &Csr = &w.problem.matrices[0];
    let amg = &w.problem.amg;
    // Phase times: total over the levels of one build, median over builds.
    let mut phases: Vec<(&str, Vec<f64>)> =
        vec![("amg.strength", vec![]), ("amg.coarsen", vec![]), ("amg.interp", vec![])];
    for _ in 0..SETUP_CALLS {
        let mut t = Tracer::new(true);
        black_box(replay_build(a.clone(), amg, &mut t));
        for (name, totals) in &mut phases {
            totals.push(t.spans().iter().filter(|s| s.name == *name).map(|s| s.seconds()).sum());
        }
    }
    l.put("amg.strength.s", median(&phases[0].1));
    l.put("amg.coarsen.s", median(&phases[1].1));
    l.put("amg.interp.s", median(&phases[2].1));

    let builds: Vec<f64> = (0..SETUP_CALLS)
        .map(|_| {
            let copy = a.clone();
            time_once(|| black_box(try_build_hierarchy(copy, amg).expect("valid input"))).0
        })
        .collect();
    l.put("amg.build.s", median(&builds));

    let setup = &w.setups[0];
    let h = &setup.hierarchy;
    let kind = match w.problem.mg.smoother {
        SmootherKind::L1Jacobi => InterpSmoothing::L1Jacobi,
        _ => InterpSmoothing::WJacobi { omega: w.problem.mg.interp_omega },
    };
    l.put(
        "amg.smoothed_interp.s",
        time_median(SETUP_CALLS, || drop(black_box(smoothed_interpolants(h, kind)))),
    );
    l.put("amg.levels", h.n_levels() as f64);
    l.put("amg.op_complexity", h.operator_complexity());
    l.put("amg.grid_complexity", h.grid_complexity());
    l.notes.push((
        "amg.level_rows",
        Json::Arr(h.level_sizes().into_iter().map(|r| Json::Num(r as f64)).collect()),
    ));
}

fn smoother_metrics(l: &mut Layers, w: &mut Workload) {
    let b = w.rhs();
    let setup = &w.setups[0];
    let (a, n) = (setup.a(0), setup.n());
    let nnz = a.nnz() as f64;
    let (mut x, mut buf) = (vec![0.0; n], vec![0.0; n]);
    let secs = time_median(KERNEL_CALLS, || {
        setup.smoothers[0].relax_op(setup.op(0), &b, &mut x, &mut buf)
    });
    l.put("smoothers.relax.ns_per_nnz", secs * 1e9 / nnz);
    let b8: Vec<f64> = (0..8).flat_map(|_| b.iter().copied()).collect();
    let (mut x8, mut buf8) = (vec![0.0; 8 * n], vec![0.0; 8 * n]);
    let secs =
        time_median(KERNEL_CALLS, || setup.smoothers[0].relax_multi(a, 8, &b8, &mut x8, &mut buf8));
    l.put("smoothers.relax_multi8.ns_per_nnz", secs * 1e9 / (8.0 * nnz));
}

fn thread_metrics(l: &mut Layers, w: &mut Workload) {
    let threads = w.threads;
    let spawn = time_median(KERNEL_CALLS, || run_teams(&[threads], |_| {}));
    l.put("threads.team_spawn.us", spawn * 1e6);
    const ROUNDS: usize = 20_000;
    let rounds = time_median(5, || {
        run_teams(&[threads], |ctx| {
            for _ in 0..ROUNDS {
                ctx.barrier();
            }
        })
    });
    l.put("threads.barrier.ns", (rounds - spawn).max(0.0) * 1e9 / ROUNDS as f64);

    // The two shared-write protocols of the asynchronous solver, as its
    // teams run them: every thread adds its chunk of a correction into the
    // shared iterate, under the master's lock or with atomic adds.
    let n = w.setups[0].n();
    let e = w.rhs();
    let x = AtomicF64Vec::zeros(n);
    let lock = SpinLock::new();
    const WRITES: usize = 200;
    let locked = time_median(5, || {
        run_teams(&[threads], |ctx| {
            for _ in 0..WRITES {
                if ctx.is_team_master() {
                    ctx.lock(&lock);
                }
                ctx.barrier();
                x.add_rows_exclusive(ctx.chunk(n), &e);
                ctx.barrier();
                if ctx.is_team_master() {
                    ctx.unlock(&lock);
                }
            }
        })
    });
    let atomic = time_median(5, || {
        run_teams(&[threads], |ctx| {
            for _ in 0..WRITES {
                x.add_rows_atomic(ctx.chunk(n), &e);
                ctx.barrier();
            }
        })
    });
    let per_elem = |secs: f64| (secs - spawn).max(0.0) * 1e9 / (WRITES * n) as f64;
    l.put("threads.lock_add.ns_per_elem", per_elem(locked));
    l.put("threads.atomic_add.ns_per_elem", per_elem(atomic));

    // One producer, one consumer, as between two shard ranks. On a
    // single-core host both ends run on this thread.
    const MSGS: u64 = 200_000;
    let ring: SpscRing<u64> = SpscRing::with_capacity(1024);
    let secs = time_median(5, || {
        let consume = |want: u64| {
            let mut got = 0;
            while got < want {
                match ring.pop() {
                    Some(v) => got += black_box(v).min(1),
                    None => std::hint::spin_loop(),
                }
            }
        };
        if host::nproc() >= 2 {
            std::thread::scope(|s| {
                s.spawn(|| consume(MSGS));
                for i in 0..MSGS {
                    while ring.push(i + 1).is_err() {
                        std::hint::spin_loop();
                    }
                }
            });
        } else {
            for i in 0..MSGS {
                ring.push(i + 1).expect("ring drained every message");
                consume(1);
            }
        }
    });
    l.put("threads.spsc.ns_per_msg", secs * 1e9 / MSGS as f64);
}

/// What one comparator did over its solves.
#[derive(Default)]
struct Tts {
    secs: Vec<f64>,
    /// Mean corrections per grid (cycles, for the synchronous solvers).
    corrects: Vec<f64>,
    /// Solves that met the tolerance by the harness's own residual.
    met: usize,
}

impl Tts {
    fn ms(&self) -> f64 {
        median(&self.secs) * 1e3
    }
}

/// Solves every right-hand side with every solver, the solvers taking turns
/// on each right-hand side so that drift of the host during the section
/// lands on all of them alike. After the first round the number of rounds
/// is fitted to `TTS_BUDGET_S` seconds, between `TTS_RUNS` and `bs.len()`.
fn time_to_tolerance(w: &Workload, solvers: &[Solver<'_>], bs: &[Vec<f64>]) -> Vec<Tts> {
    let mut out: Vec<Tts> = solvers.iter().map(|_| Tts::default()).collect();
    let mut rounds = bs.len();
    for (round, b) in bs.iter().enumerate() {
        if round >= rounds {
            break;
        }
        let (round_secs, ()) = time_once(|| {
            for (solver, tts) in solvers.iter().zip(&mut out) {
                let (s, report) = time_once(|| solver.run(b));
                tts.secs.push(s);
                tts.corrects.push(report.corrects_mean);
                tts.met += (relres(&w.problem.matrices[0], b, &report.x) <= TOL) as usize;
            }
        });
        if round == 0 {
            rounds = ((TTS_BUDGET_S / round_secs) as usize).clamp(TTS_RUNS, bs.len());
        }
    }
    out
}

fn core_metrics(l: &mut Layers, w: &mut Workload) {
    let bs: Vec<Vec<f64>> = (0..TTS_MAX_RUNS).map(|_| w.rhs()).collect();
    let setup = &w.setups[0];
    let n = setup.n();

    let h = &setup.hierarchy;
    let mg = w.problem.mg;
    let times: Vec<f64> = (0..SETUP_CALLS)
        .map(|_| {
            let copy = h.clone();
            time_once(|| black_box(MgSetup::new(copy, mg))).0
        })
        .collect();
    l.put("core.mgsetup.s", median(&times));

    // One cycle on zero vectors: the kernels' cost does not depend on the
    // values, and the cycle's residual input is not reachable from outside.
    let mut x = vec![0.0; n];
    let mut ws = Workspace::new(setup);
    l.put(
        "core.vcycle.ms",
        time_median(KERNEL_CALLS, || mult_vcycle(setup, &mut x, &mut ws)) * 1e3,
    );
    let mut x8 = vec![0.0; 8 * n];
    let mut ws8 = BlockWorkspace::new(setup, 8);
    l.put(
        "core.vcycle_block8.ms",
        time_median(KERNEL_CALLS, || mult_vcycle_block(setup, 8, &mut x8, &mut ws8)) * 1e3,
    );

    // One cycle of the blocked solve loop with a single column, residual
    // checks included: what the service pays per cycle of a lone request.
    const CYCLES: usize = 5;
    let mut ws1 = BlockWorkspace::new(setup, 1);
    let spec = BatchSpec { tol: None, t_max: CYCLES };
    let secs = time_median(SETUP_CALLS, || {
        black_box(solve_mult_batch_with(setup, &bs[0], &[spec], &mut ws1));
    });
    l.put("core.cycle_block1.ms", secs * 1e3 / CYCLES as f64);

    // The Fig. 6 comparators on this workload's problem, the plain
    // single-threaded baseline first, and the asynchronous solver a second
    // time with tracing on: the NoopProbe path must stay free.
    let multadd = w.solver(setup, Method::Multadd);
    let tts = time_to_tolerance(
        w,
        &[
            w.solver(setup, Method::Mult).threads(0),
            w.solver(setup, Method::Mult),
            multadd.sync(true),
            multadd,
            multadd.with_trace(),
            multadd.write_mode(WriteMode::Atomic),
        ],
        &bs,
    );
    let [seq, par, sync, lock, traced, atomic] = &tts[..] else { unreachable!("six solvers") };
    let (seq_ms, par_ms, async_ms) = (seq.ms(), par.ms(), lock.ms());
    l.put("core.mult_seq.tts_ms", seq_ms);
    l.put("core.cycles", median(&seq.corrects));
    l.put("core.mult_par.tts_ms", par_ms);
    l.put("core.multadd_sync.tts_ms", sync.ms());
    l.put("core.multadd_async.tts_ms", async_ms);
    l.put("core.multadd_async_atomic.tts_ms", atomic.ms());
    l.put("telemetry.trace_overhead_ratio", traced.ms() / async_ms);
    let corrects: Vec<f64> = lock.corrects.iter().chain(&atomic.corrects).copied().collect();
    l.put("core.corrects_mean", mean(&corrects));
    let (q1, q3) = quartiles(&corrects).expect("at least two asynchronous runs");
    l.put("core.corrects_q1", q1);
    l.put("core.corrects_q3", q3);
    l.put("core.async.tol_met_ratio", (lock.met + atomic.met) as f64 / corrects.len() as f64);
    l.notes.push(("core.tts.solves_each", Json::Num(seq.secs.len() as f64)));

    // Thread-scaling ratios, each with its base. One core cannot show
    // scaling, so there they are refused rather than reported as losses.
    let threads = w.threads;
    let ratio = |value: f64, base: &str| {
        if host::nproc() == 1 {
            Json::obj([
                ("value", Json::Null),
                ("reason", Json::str("nproc == 1: no thread scaling to measure")),
            ])
        } else {
            Json::obj([("value", Json::num(value)), ("base", Json::str(base))])
        }
    };
    l.notes.push((
        "core.par_efficiency",
        ratio(
            seq_ms / (threads as f64 * par_ms),
            "core.mult_seq.tts_ms / (T x core.mult_par.tts_ms)",
        ),
    ));
    l.notes.push((
        "core.async_over_sync",
        ratio(async_ms / par_ms, "core.multadd_async.tts_ms / core.mult_par.tts_ms"),
    ));
}

/// The production ring fabric with message and payload counters in front:
/// the transport's own per-rank counters count messages, not bytes.
struct Counting {
    inner: InProcChannel,
    bytes: AtomicU64,
}

impl Transport for Counting {
    fn n_ranks(&self) -> usize {
        self.inner.n_ranks()
    }

    fn send(&self, from: usize, to: usize, msg: Msg) {
        // Payload doubles plus a nominal 32-byte header per message.
        let payload = match &msg {
            Msg::Halo { vals, .. }
            | Msg::Residual { vals, .. }
            | Msg::Correction { vals, .. }
            | Msg::Checkpoint { vals, .. }
            | Msg::Adopt { vals, .. } => vals.len(),
            _ => 0,
        };
        self.bytes.fetch_add(32 + 8 * payload as u64, Ordering::Relaxed);
        self.inner.send(from, to, msg);
    }

    fn try_recv(&self, rank: usize) -> Option<Msg> {
        self.inner.try_recv(rank)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Un-gated: `Solver::sharded(2)` diverges under OS scheduling on most
/// runs today, so these exist to give the fix a before and an after.
fn shard_metrics(l: &mut Layers, w: &mut Workload) {
    // Enough epochs for a working solve on any of the problems; a
    // diverging one runs them all.
    let budget = w.problem.t_max.max(200);
    let bs: Vec<Vec<f64>> = (0..TTS_RUNS).map(|_| w.rhs()).collect();
    let setup = &w.setups[0];
    let a = setup.a(0);
    l.put(
        "shard.map_build.s",
        time_median(KERNEL_CALLS, || drop(black_box(ShardMap::chunked(a, 2)))),
    );
    for (shards, name) in [(1usize, "shard.s1.tts_ms"), (2, "shard.s2.tts_ms")] {
        let (mut secs, mut converged) = (Vec::new(), 0usize);
        let (mut msgs, mut bytes, mut epochs) = (0u64, 0u64, 0u64);
        for b in &bs {
            let net = Counting {
                inner: InProcChannel::for_epochs(shards + 1, budget),
                bytes: AtomicU64::new(0),
            };
            let solver = Solver::new(setup).tolerance(TOL).t_max(budget);
            let (s, result) = time_once(|| solver.sharded(shards).transport(&net).run(b));
            secs.push(s);
            converged += (relres(&w.problem.matrices[0], b, &result.x) <= TOL) as usize;
            msgs += result.stats.total_sent();
            bytes += net.bytes.load(Ordering::Relaxed);
            epochs += result.shard_epochs.iter().max().copied().unwrap_or(0);
        }
        l.put(name, median(&secs) * 1e3);
        if shards == 2 {
            l.put("shard.s2.converged_ratio", converged as f64 / TTS_RUNS as f64);
            l.put("shard.msgs_per_epoch", msgs as f64 / epochs.max(1) as f64);
            l.put("shard.bytes_per_epoch", bytes as f64 / epochs.max(1) as f64);
        }
    }
}
