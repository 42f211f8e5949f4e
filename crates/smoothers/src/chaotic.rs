//! Chaotic relaxation: standalone asynchronous basic iterative methods
//! (Section II.C; Chazan & Miranker 1969).
//!
//! These are the methods asynchronous-iteration research classically
//! studied, included both as the historical baseline the paper improves on
//! and to validate the convergence condition `ρ(|G|) < 1` of Equation 5.

use asyncmg_sparse::{vecops, AtomicF64Vec, Csr};
use asyncmg_threads::chunk_range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Estimates the spectral radius of `|G|`, the element-wise absolute value
/// of the weighted-Jacobi iteration matrix `G = I − ω D⁻¹ A`, by power
/// iteration (valid because `|G|` is non-negative, so the dominant
/// eigenvector is non-negative).
pub fn rho_abs_jacobi(a: &Csr, omega: f64, iters: usize) -> f64 {
    let n = a.nrows();
    let w: Vec<f64> = a.diag().iter().map(|&d| if d != 0.0 { omega / d } else { 0.0 }).collect();
    let mut x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let mut rho = 0.0;
    for _ in 0..iters {
        // y = |G| x, row by row: |G|_ij = |δ_ij − w_i a_ij|.
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            let mut saw_diag = false;
            for (&j, &v) in cols.iter().zip(vals) {
                let ju = j as usize;
                let g = if ju == i {
                    saw_diag = true;
                    1.0 - w[i] * v
                } else {
                    -w[i] * v
                };
                acc += g.abs() * x[ju];
            }
            if !saw_diag {
                acc += x[i];
            }
            y[i] = acc;
        }
        rho = vecops::norm2(&y) / vecops::norm2(&x).max(1e-300);
        let scale = 1.0 / vecops::norm2(&y).max(1e-300);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi * scale;
        }
    }
    rho
}

/// Result of a chaotic-relaxation solve.
#[derive(Clone, Debug)]
pub struct ChaoticResult {
    /// The approximation.
    pub x: Vec<f64>,
    /// Final relative residual.
    pub relres: f64,
    /// Total relaxations performed (all threads).
    pub relaxations: usize,
}

/// Synchronous weighted-Jacobi solver (the `t`-superscripted iteration of
/// Equation 3), for baseline comparisons.
pub fn jacobi_solve(a: &Csr, b: &[f64], omega: f64, sweeps: usize) -> ChaoticResult {
    let n = a.nrows();
    let w: Vec<f64> = a.diag().iter().map(|&d| if d != 0.0 { omega / d } else { 0.0 }).collect();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    for _ in 0..sweeps {
        for i in 0..n {
            x[i] += w[i] * r[i];
        }
        a.residual(b, &x, &mut r);
    }
    let relres = vecops::rel_norm(&r, b);
    ChaoticResult { x, relres, relaxations: sweeps * n }
}

/// How many block sweeps a thread of [`async_jacobi_solve`] may run ahead of
/// the average.
const MAX_LEAD: usize = 2;

/// Asynchronous weighted-Jacobi solver (Equation 5): each thread owns a
/// block of rows and relaxes it repeatedly, reading the shared iterate
/// without any synchronisation and publishing each update immediately.
/// Converges whenever `ρ(|G|) < 1`.
///
/// The relaxation budget is shared: the threads together perform
/// `sweeps_per_thread × n_threads` block sweeps, and none runs more than
/// `MAX_LEAD` (2) sweeps ahead of the average — it yields until the others
/// catch up. So this is Equation 5 with its delays bounded at two sweeps,
/// *not* the free-running iteration: reads are still unsynchronised and
/// every interleaving inside the bound occurs, but a lead above 2 is never
/// exercised and per-block sweep counts differ by at most 2 either side of
/// the mean ([`ChaoticResult::relaxations`] counts what each block actually
/// took). The bound is what Equation 5's convergence theory assumes and an
/// OS scheduler does not provide on a sub-millisecond run: with a budget per
/// thread, a thread that runs before its neighbour is scheduled spends all
/// its sweeps against the neighbour's initial guess — one block-Jacobi outer
/// step, whatever the count — and with an unbounded shared budget it spends
/// the neighbour's too.
pub fn async_jacobi_solve(
    a: &Csr,
    b: &[f64],
    omega: f64,
    sweeps_per_thread: usize,
    n_threads: usize,
) -> ChaoticResult {
    let n = a.nrows();
    let w: Vec<f64> = a.diag().iter().map(|&d| if d != 0.0 { omega / d } else { 0.0 }).collect();
    let x = AtomicF64Vec::zeros(n);
    let budget = sweeps_per_thread * n_threads;
    // Sweeps handed out so far. It publishes no data (`x` is atomic), so
    // relaxed ordering is enough.
    let taken = AtomicUsize::new(0);
    let relaxations = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let (x, w, b, taken, relaxations) = (&x, &w, b, &taken, &relaxations);
            let block = chunk_range(n, n_threads, t);
            scope.spawn(move || {
                let mut mine = 0;
                loop {
                    let total = taken.load(Ordering::Relaxed);
                    if total >= budget {
                        break;
                    }
                    // The thread with the fewest sweeps is never above the
                    // average, so somebody can always proceed.
                    if mine * n_threads > total + MAX_LEAD * n_threads {
                        std::thread::yield_now();
                        continue;
                    }
                    if taken.fetch_add(1, Ordering::Relaxed) >= budget {
                        break;
                    }
                    for i in block.clone() {
                        // x_i ← x_i + w_i (b_i − Σ_j a_ij x_j), reading the
                        // freshest available x values.
                        let acc = b[i] - a.row_dot_atomic(i, x);
                        x.store(i, x.load(i) + w[i] * acc);
                    }
                    mine += 1;
                    std::thread::yield_now();
                }
                relaxations.fetch_add(mine * block.len(), Ordering::Relaxed);
            });
        }
    });
    let xv = x.to_vec();
    let mut r = vec![0.0; n];
    a.residual(b, &xv, &mut r);
    let relres = vecops::rel_norm(&r, b);
    ChaoticResult { x: xv, relres, relaxations: relaxations.into_inner() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt};

    #[test]
    fn rho_abs_below_one_for_dd_laplacian() {
        // ω-Jacobi on a strictly diagonally dominant M-matrix satisfies
        // ρ(|G|) < 1 for ω ∈ (0, 1].
        let a = laplacian_7pt(6, 6, 6);
        let rho = rho_abs_jacobi(&a, 0.9, 100);
        assert!(rho < 1.0, "rho {rho}");
        assert!(rho > 0.5, "rho suspiciously small: {rho}");
    }

    #[test]
    fn rho_abs_exceeds_one_for_overrelaxed() {
        // Over-relaxation (ω = 2) breaks the asynchronous condition.
        let a = laplacian_7pt(5, 5, 5);
        let rho = rho_abs_jacobi(&a, 2.0, 100);
        assert!(rho > 1.0, "rho {rho}");
    }

    #[test]
    fn sync_jacobi_converges() {
        let a = laplacian_7pt(5, 5, 5);
        let b = random_rhs(a.nrows(), 1);
        let res = jacobi_solve(&a, &b, 0.9, 400);
        assert!(res.relres < 1e-3, "relres {}", res.relres);
    }

    #[test]
    fn async_jacobi_converges_when_rho_below_one() {
        let a = laplacian_7pt(5, 5, 5);
        assert!(rho_abs_jacobi(&a, 0.9, 50) < 1.0);
        let b = random_rhs(a.nrows(), 2);
        let res = async_jacobi_solve(&a, &b, 0.9, 400, 4);
        assert!(res.relres < 1e-2, "relres {}", res.relres);
        // 1600 block sweeps, counted: the four blocks hold 31 or 32 rows.
        assert!((1600 * 31..=1600 * 32).contains(&res.relaxations), "{}", res.relaxations);
    }

    #[test]
    fn async_matches_sync_single_thread() {
        // One thread and per-sweep residual refresh ≙ Gauss-Seidel-flavoured
        // Jacobi; with one thread the async path is deterministic and at
        // least as accurate as plain Jacobi for this matrix.
        let a = laplacian_7pt(4, 4, 4);
        let b = random_rhs(a.nrows(), 3);
        let sync = jacobi_solve(&a, &b, 0.9, 100);
        let asy = async_jacobi_solve(&a, &b, 0.9, 100, 1);
        assert!(asy.relres <= sync.relres * 1.5, "async {} sync {}", asy.relres, sync.relres);
        assert_eq!(asy.relaxations, sync.relaxations);
    }
}
