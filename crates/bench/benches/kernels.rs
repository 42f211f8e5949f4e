//! Raw-speed kernel benchmark: scalar per-row vs across-row SIMD SpMV and
//! scalar CSR vs blocked BSR on the paper's operators.
//!
//! Every kernel under test is *bit-identical* to the scalar `dot4` baseline
//! — this benchmark is a pure wall-clock comparison, no accuracy axis.
//!
//! Run with `cargo bench -p asyncmg-bench --bench kernels`; it prints a JSON
//! report to stdout (the committed baseline is `BENCH_kernels.json` at the
//! repo root) and a human-readable summary to stderr. `-- --smoke` selects a
//! seconds-long CI-sized run.
//!
//! The report is environment-aware: it records the host fingerprint (arch,
//! `nproc`, detected SIMD feature), and any measurement the host cannot
//! support honestly — SIMD rows on machines without the feature, thread
//! counts above `nproc` — is recorded as `null` (skipped), never as a loss.

use asyncmg_problems::elasticity::elasticity_beam;
use asyncmg_problems::TestSet;
use asyncmg_sparse::{simd, Bsr, Csr};
use asyncmg_threads::chunk_range;
use std::hint::black_box;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Minimum wall-clock seconds over `reps` calls of `f`.
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Seconds per SpMV under `mode`, with enough inner iterations to dwarf
/// timer granularity.
fn time_spmv(
    a: &Csr,
    x: &[f64],
    y: &mut [f64],
    reps: usize,
    iters: usize,
    mode: simd::SimdMode,
) -> f64 {
    simd::set_mode(mode);
    time_min(reps, || {
        for _ in 0..iters {
            a.spmv(black_box(x), y);
        }
    }) / iters as f64
}

fn time_spmv_bsr(
    a: &Bsr,
    x: &[f64],
    y: &mut [f64],
    reps: usize,
    iters: usize,
    mode: simd::SimdMode,
) -> f64 {
    simd::set_mode(mode);
    time_min(reps, || {
        for _ in 0..iters {
            a.spmv(black_box(x), y);
        }
    }) / iters as f64
}

/// Seconds per team-parallel SpMV over `nt` scoped threads (contiguous row
/// chunks). Only called when `nt` fits the host.
fn time_spmv_parallel(a: &Csr, x: &[f64], reps: usize, iters: usize, nt: usize) -> f64 {
    let n = a.nrows();
    let mut ys: Vec<Vec<f64>> = (0..nt).map(|r| vec![0.0; chunk_range(n, nt, r).len()]).collect();
    time_min(reps, || {
        for _ in 0..iters {
            std::thread::scope(|s| {
                for (r, y) in ys.iter_mut().enumerate() {
                    s.spawn(move || {
                        let range = chunk_range(n, nt, r);
                        a.spmv_rows(range, black_box(x), y);
                    });
                }
            });
        }
    }) / iters as f64
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.9}"),
        None => "null".to_string(),
    }
}

fn fmt_opt2(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "null".to_string(),
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let simd_ok = simd::supported();
    if host == 1 {
        eprintln!(
            "warning: single-core host — parallel thread counts above 1 are skipped (null), \
             not measured as losses"
        );
    }

    let (sizes, elast_ex, reps, iters): (&[usize], &[usize], usize, usize) =
        if smoke { (&[12], &[6], 2, 5) } else { (&[10, 16, 24, 32], &[8, 12, 16], 7, 20) };

    let mut cases = Vec::new();

    // Scalar stencil: the across-row SIMD axis on the 27-point Laplacian.
    for &n in sizes {
        let a = TestSet::TwentySevenPt.matrix(n);
        let x = asyncmg_problems::rhs::random_rhs(a.ncols(), 1);
        let mut y = vec![0.0; a.nrows()];
        let scalar = time_spmv(&a, &x, &mut y, reps, iters, simd::SimdMode::Off);
        let vect = simd_ok.then(|| time_spmv(&a, &x, &mut y, reps, iters, simd::SimdMode::Force));
        let speedup = vect.map(|v| scalar / v);
        // Which kernel the SIMD row actually ran: the across-row stencil
        // plan when the operator has run structure, else per-row dot4.
        simd::set_mode(simd::SimdMode::Force);
        let stencil = a.stencil_stats();
        simd::set_mode(simd::SimdMode::Off);
        let mut par = Vec::new();
        for &nt in &THREADS {
            // Thread counts the host cannot run in parallel are skipped.
            let t = (nt <= host).then(|| time_spmv_parallel(&a, &x, reps, iters, nt));
            par.push(format!("\"{nt}\": {}", fmt_opt(t)));
        }
        let gnzs = a.nnz() as f64 / scalar / 1e9;
        let coverage = stencil.map(|s| s.covered_rows as f64 / a.nrows() as f64);
        eprintln!(
            "27pt n={n} ({} rows, {} nnz): scalar {:.3} ms ({:.2} Gnnz/s), simd {} ms, \
             speedup {}, stencil coverage {}",
            a.nrows(),
            a.nnz(),
            scalar * 1e3,
            gnzs,
            fmt_opt(vect.map(|v| v * 1e3)),
            fmt_opt2(speedup),
            fmt_opt2(coverage),
        );
        cases.push(format!(
            "    {{ \"grid\": \"27pt\", \"n\": {n}, \"rows\": {}, \"nnz\": {}, \"kernel\": \"csr\", \
             \"simd_kernel\": \"{}\", \"stencil_coverage\": {}, \
             \"spmv_scalar_s\": {scalar:.9}, \"spmv_simd_s\": {}, \"simd_speedup\": {}, \
             \"spmv_parallel_s\": {{ {} }} }}",
            a.nrows(),
            a.nnz(),
            if stencil.is_some() { "stencil" } else { "dot4" },
            fmt_opt2(coverage),
            fmt_opt(vect),
            fmt_opt2(speedup),
            par.join(", ")
        ));
    }

    // Elasticity: the blocked (BSR) axis, natural 3×3 blocks.
    for &ex in elast_ex {
        let a = elasticity_beam(ex, 4, 4, [ex as f64, 1.0, 1.0], Default::default());
        let bsr = Bsr::from_csr(&a, 3).expect("elasticity is 3-aligned");
        assert_eq!(bsr.fill(), 0, "elasticity pattern must be fully block-dense");
        let x = asyncmg_problems::rhs::random_rhs(a.ncols(), 2);
        let mut y = vec![0.0; a.nrows()];
        let csr_scalar = time_spmv(&a, &x, &mut y, reps, iters, simd::SimdMode::Off);
        let csr_simd =
            simd_ok.then(|| time_spmv(&a, &x, &mut y, reps, iters, simd::SimdMode::Force));
        let bsr_scalar = time_spmv_bsr(&bsr, &x, &mut y, reps, iters, simd::SimdMode::Off);
        let bsr_simd =
            simd_ok.then(|| time_spmv_bsr(&bsr, &x, &mut y, reps, iters, simd::SimdMode::Force));
        simd::set_mode(simd::SimdMode::Off);
        // The headline blocked-kernel claim: best BSR variant against the
        // scalar dot4 CSR baseline.
        let best_bsr = bsr_simd.map_or(bsr_scalar, |v| v.min(bsr_scalar));
        let speedup = csr_scalar / best_bsr;
        eprintln!(
            "elasticity ex={ex} ({} rows, {} nnz): csr {:.3} ms, bsr {:.3} ms, speedup {:.2}x",
            a.nrows(),
            a.nnz(),
            csr_scalar * 1e3,
            best_bsr * 1e3,
            speedup
        );
        cases.push(format!(
            "    {{ \"grid\": \"elasticity\", \"n\": {ex}, \"rows\": {}, \"nnz\": {}, \
             \"kernel\": \"bsr\", \"block\": 3, \"fill\": {}, \
             \"spmv_csr_scalar_s\": {csr_scalar:.9}, \"spmv_csr_simd_s\": {}, \
             \"spmv_bsr_scalar_s\": {bsr_scalar:.9}, \"spmv_bsr_simd_s\": {}, \
             \"bsr_speedup\": {speedup:.2} }}",
            a.nrows(),
            a.nnz(),
            bsr.fill(),
            fmt_opt(csr_simd),
            fmt_opt(bsr_simd),
        ));
    }

    println!("{{");
    println!("  \"bench\": \"kernels\",");
    println!("  \"smoke\": {smoke},");
    println!("  \"host\": {{ \"arch\": \"{}\", \"threads\": {host}, \"simd\": \"{}\", \"simd_supported\": {simd_ok} }},", std::env::consts::ARCH, simd::capability_name());
    println!("  \"threads\": [1, 2, 4, 8],");
    println!("  \"cases\": [");
    println!("{}", cases.join(",\n"));
    println!("  ]");
    println!("}}");
}
