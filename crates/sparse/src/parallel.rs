//! Thread-parallel setup-phase kernels: SpGEMM, transpose and the Galerkin
//! triple product.
//!
//! The solve phase of the paper is parallel from the start, but a serial
//! setup phase caps end-to-end speedup (Amdahl). These kernels parallelise
//! the three operators the hierarchy build spends its time in, using the same
//! fork-join team machinery (`asyncmg-threads`) as the solvers — no external
//! thread pool.
//!
//! Every kernel follows the classic two-pass row-block scheme used by
//! BoomerAMG's Galerkin products:
//!
//! 1. **Symbolic pass** — each thread walks a contiguous block of rows
//!    (static `chunk_range` partitioning) and counts the entries it will
//!    produce, writing per-row (or per-thread-per-column) counts at disjoint
//!    positions.
//! 2. A serial **prefix sum** over the counts fixes the output layout and
//!    sizes the index/value arrays exactly — no reallocation, no guessing.
//! 3. **Numeric pass** — each thread fills its region of the shared output
//!    ([`RacyBuf`]) through provably disjoint writes.
//!
//! Because each thread processes its rows in the same order with the same
//! per-row dense-accumulator merge as the serial kernels, the output is
//! **bit-identical** to the serial result at any thread count — the property
//! tests in this module assert exact equality, and parallel setup can be
//! enabled by default without perturbing convergence histories.

use crate::csr::Csr;
use crate::spgemm::spgemm;
use asyncmg_threads::{run_teams, RacyBuf};

/// Threads to use for a setup kernel over a matrix with `nnz` stored entries,
/// when the caller asks for automatic selection:
/// `min(available_parallelism, 8, nnz / 65536)`, at least 1.
///
/// Small matrices (the coarse grids of a hierarchy) stay serial: forking a
/// team costs more than the multiply. The threshold is deliberately
/// conservative — a 27-point 3-D operator crosses it around a `20³` grid.
/// The rule depends only on `nnz` and the host's core count, and any thread
/// count produces bit-identical results.
pub fn auto_setup_threads(nnz: usize) -> usize {
    const MIN_NNZ_PER_THREAD: usize = 64 * 1024;
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    hw.min(8).min(nnz / MIN_NNZ_PER_THREAD).max(1)
}

/// Computes `C = A B` on `n_threads` threads; bit-identical to
/// [`spgemm`].
///
/// Two fork-joins: a symbolic pass counting each output row's entries
/// (per-thread marker arrays, disjoint per-row count writes), then — after a
/// serial prefix sum sizes the output exactly — a numeric pass where each
/// thread fills the contiguous output region of its row block with the same
/// dense-accumulator merge as the serial kernel.
pub fn spgemm_parallel(a: &Csr, b: &Csr, n_threads: usize) -> Csr {
    assert_eq!(a.ncols(), b.nrows(), "dimension mismatch in spgemm_parallel");
    let nrows = a.nrows();
    let ncols = b.ncols();
    let nt = n_threads.max(1).min(nrows.max(1));
    if nt <= 1 {
        return spgemm(a, b);
    }

    // Pass 1 (symbolic): count the entries of each output row.
    let row_nnz = RacyBuf::<u32>::filled(nrows, 0);
    run_teams(&[nt], |ctx| {
        let rows = ctx.chunk(nrows);
        // SAFETY: row blocks are disjoint across ranks and threads are
        // joined before any read.
        let counts = unsafe { row_nnz.slice_mut(rows.clone()) };
        let mut marker = vec![u32::MAX; ncols];
        for (i, cnt) in rows.clone().zip(counts.iter_mut()) {
            let mut n = 0u32;
            let (a_cols, _) = a.row(i);
            for &k in a_cols {
                let (b_cols, _) = b.row(k as usize);
                for &j in b_cols {
                    if marker[j as usize] != i as u32 {
                        marker[j as usize] = i as u32;
                        n += 1;
                    }
                }
            }
            *cnt = n;
        }
    });

    // Serial prefix sum fixes the exact output layout.
    let row_nnz = row_nnz.into_vec();
    let mut row_ptr = vec![0u32; nrows + 1];
    for i in 0..nrows {
        row_ptr[i + 1] = row_ptr[i] + row_nnz[i];
    }
    let nnz = row_ptr[nrows] as usize;

    // Pass 2 (numeric): each thread owns the contiguous output region
    // spanned by its row block.
    let col_idx = RacyBuf::<u32>::filled(nnz, 0);
    let vals = RacyBuf::<f64>::filled(nnz, 0.0);
    run_teams(&[nt], |ctx| {
        let rows = ctx.chunk(nrows);
        let lo = row_ptr[rows.start] as usize;
        let hi = row_ptr[rows.end] as usize;
        // SAFETY: [lo, hi) regions of consecutive row blocks are disjoint
        // (row_ptr is monotone) and threads are joined before any read.
        let (my_cols, my_vals) = unsafe { (col_idx.slice_mut(lo..hi), vals.slice_mut(lo..hi)) };
        let mut acc = vec![0.0f64; ncols];
        let mut marker = vec![u32::MAX; ncols];
        let mut touched: Vec<u32> = Vec::new();
        let mut out = 0usize;
        for i in rows {
            touched.clear();
            let (a_cols, a_vals) = a.row(i);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k as usize);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    let ju = j as usize;
                    if marker[ju] != i as u32 {
                        marker[ju] = i as u32;
                        acc[ju] = av * bv;
                        touched.push(j);
                    } else {
                        acc[ju] += av * bv;
                    }
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                my_cols[out] = j;
                my_vals[out] = acc[j as usize];
                out += 1;
            }
        }
        debug_assert_eq!(out, hi - lo);
    });

    Csr::from_raw(nrows, ncols, row_ptr, col_idx.into_vec(), vals.into_vec())
}

/// Computes `Aᵀ` on `n_threads` threads; bit-identical to
/// [`Csr::transpose`].
///
/// Pass 1 histograms column occurrences into per-thread stripes of a flat
/// `n_threads × ncols` count array; a serial combine turns the stripes into
/// row pointers plus one insertion cursor per `(thread, column)` pair; pass 2
/// scatters each thread's row block through its cursors. Within an output
/// row, entries appear in increasing original-row order (threads own
/// ascending row blocks and walk them in order), so columns come out sorted
/// exactly as in the serial kernel.
pub fn transpose_parallel(a: &Csr, n_threads: usize) -> Csr {
    let nrows = a.nrows();
    let ncols = a.ncols();
    let nt = n_threads.max(1).min(nrows.max(1));
    if nt <= 1 {
        return a.transpose();
    }

    // Pass 1: per-thread column histograms in disjoint stripes.
    let counts = RacyBuf::<u32>::filled(nt * ncols, 0);
    run_teams(&[nt], |ctx| {
        let rows = ctx.chunk(nrows);
        let stripe = ctx.rank * ncols;
        // SAFETY: stripes are disjoint per rank; threads joined before read.
        let my = unsafe { counts.slice_mut(stripe..stripe + ncols) };
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        for k in row_ptr[rows.start] as usize..row_ptr[rows.end] as usize {
            my[col_idx[k] as usize] += 1;
        }
    });

    // Serial combine: row pointers and one cursor per (thread, column).
    let counts = counts.into_vec();
    let mut row_ptr = vec![0u32; ncols + 1];
    let mut next = vec![0u32; nt * ncols];
    let mut off = 0u32;
    for j in 0..ncols {
        row_ptr[j] = off;
        for t in 0..nt {
            next[t * ncols + j] = off;
            off += counts[t * ncols + j];
        }
    }
    row_ptr[ncols] = off;
    debug_assert_eq!(off as usize, a.nnz());

    // Pass 2: scatter. Every (thread, column) cursor walks a range disjoint
    // from all others by construction of `next`.
    let out_cols = RacyBuf::<u32>::filled(a.nnz(), 0);
    let out_vals = RacyBuf::<f64>::filled(a.nnz(), 0.0);
    let next = RacyBuf::from_vec(next);
    run_teams(&[nt], |ctx| {
        let rows = ctx.chunk(nrows);
        let stripe = ctx.rank * ncols;
        // SAFETY: cursor stripes are disjoint per rank, and the output
        // positions they yield are disjoint across all ranks; threads are
        // joined before any read.
        let my_next = unsafe { next.slice_mut(stripe..stripe + ncols) };
        for i in rows {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let dst = my_next[j as usize] as usize;
                unsafe {
                    out_cols.set(dst, i as u32);
                    out_vals.set(dst, v);
                }
                my_next[j as usize] += 1;
            }
        }
    });

    Csr::from_raw(ncols, nrows, row_ptr, out_cols.into_vec(), out_vals.into_vec())
}

/// The Galerkin triple product `A_c = Pᵀ A P` on `n_threads` threads;
/// bit-identical to [`rap`](crate::spgemm::rap).
///
/// Same structure as the serial version — `R = Pᵀ` formed explicitly, then
/// `R (A P)` — with each of the three operators parallelised.
pub fn rap_parallel(a: &Csr, p: &Csr, n_threads: usize) -> Csr {
    assert_eq!(a.nrows(), a.ncols());
    assert_eq!(a.ncols(), p.nrows());
    let r = transpose_parallel(p, n_threads);
    let ap = spgemm_parallel(a, p, n_threads);
    spgemm_parallel(&r, &ap, n_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::spgemm::rap;

    fn tridiag(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    fn linear_interp(n_fine: usize) -> Csr {
        let nc = n_fine / 2;
        let mut p = Coo::new(n_fine, nc);
        for c in 0..nc {
            let f = 2 * c;
            p.push(f, c, 1.0);
            if f + 1 < n_fine {
                p.push(f + 1, c, 0.5);
                if c + 1 < nc {
                    p.push(f + 1, c + 1, 0.5);
                }
            }
        }
        p.to_csr()
    }

    #[test]
    fn spgemm_parallel_matches_serial() {
        let a = tridiag(31);
        let p = linear_interp(31);
        let serial = spgemm(&a, &p);
        for nt in [1, 2, 3, 7, 16] {
            assert_eq!(spgemm_parallel(&a, &p, nt), serial, "nt={nt}");
        }
    }

    #[test]
    fn transpose_parallel_matches_serial() {
        let mut c = Coo::new(5, 9);
        c.push(0, 8, 1.0);
        c.push(0, 0, -2.0);
        c.push(2, 4, 3.5);
        c.push(4, 4, 0.25);
        c.push(4, 0, 7.0);
        let a = c.to_csr();
        let serial = a.transpose();
        for nt in [1, 2, 3, 7, 16] {
            assert_eq!(transpose_parallel(&a, nt), serial, "nt={nt}");
        }
    }

    #[test]
    fn rap_parallel_matches_serial() {
        let a = tridiag(40);
        let p = linear_interp(40);
        let serial = rap(&a, &p);
        for nt in [1, 2, 4, 7] {
            assert_eq!(rap_parallel(&a, &p, nt), serial, "nt={nt}");
        }
    }

    #[test]
    fn degenerate_shapes() {
        // Empty matrix and empty product.
        let e = Csr::from_raw(0, 0, vec![0], vec![], vec![]);
        assert_eq!(spgemm_parallel(&e, &e, 4), spgemm(&e, &e));
        assert_eq!(transpose_parallel(&e, 4), e.transpose());
        // All-zero-rows rectangular matrix.
        let z = Csr::from_raw(3, 5, vec![0, 0, 0, 0], vec![], vec![]);
        assert_eq!(transpose_parallel(&z, 2), z.transpose());
        let z2 = Csr::from_raw(5, 2, vec![0; 6], vec![], vec![]);
        assert_eq!(spgemm_parallel(&z, &z2, 3), spgemm(&z, &z2));
    }

    #[test]
    fn more_threads_than_rows() {
        let a = tridiag(3);
        assert_eq!(spgemm_parallel(&a, &a, 64), spgemm(&a, &a));
        assert_eq!(transpose_parallel(&a, 64), a.transpose());
    }

    #[test]
    fn auto_threads_is_serial_for_small_and_bounded() {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        for nnz in [0, 1000, 65_535, 131_072, 343_000, 100_000_000, usize::MAX / 2] {
            assert_eq!(auto_setup_threads(nnz), nproc.min(8).min(nnz / 65_536).max(1), "nnz {nnz}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coo::Coo;
    use crate::spgemm::rap;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random sparse matrix with roughly `per_row` entries per row,
    /// deterministic in `seed`.
    fn random_csr(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Coo::new(nrows, ncols);
        for i in 0..nrows {
            let mut cols: Vec<usize> = (0..per_row).map(|_| rng.gen_range(0..ncols)).collect();
            cols.sort_unstable();
            cols.dedup();
            for j in cols {
                c.push(i, j, rng.gen_range(-2.0..2.0));
            }
        }
        c.to_csr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The satellite requirement: parallel kernels bit-identical to the
        // serial ones at 1, 2 and 7 threads on random CSR matrices. Exact
        // `==` (not ULP tolerance) is intentional — identical per-row
        // accumulation order makes the results byte-equal.
        #[test]
        fn spgemm_parallel_bit_identical(
            m in 1usize..40,
            k in 1usize..40,
            n in 1usize..40,
            per_row in 1usize..6,
            seed in 0u64..1_000_000,
        ) {
            let a = random_csr(m, k, per_row, seed);
            let b = random_csr(k, n, per_row, seed.wrapping_add(1));
            let serial = spgemm(&a, &b);
            for nt in [1usize, 2, 7] {
                prop_assert_eq!(&spgemm_parallel(&a, &b, nt), &serial);
            }
        }

        #[test]
        fn transpose_parallel_bit_identical(
            m in 1usize..60,
            n in 1usize..60,
            per_row in 1usize..6,
            seed in 0u64..1_000_000,
        ) {
            let a = random_csr(m, n, per_row, seed);
            let serial = a.transpose();
            for nt in [1usize, 2, 7] {
                prop_assert_eq!(&transpose_parallel(&a, nt), &serial);
            }
        }

        #[test]
        fn rap_parallel_bit_identical(
            n_fine in 2usize..50,
            per_row in 1usize..5,
            seed in 0u64..1_000_000,
        ) {
            // A square (not necessarily symmetric) fine operator and a
            // random interpolation-shaped P.
            let a = random_csr(n_fine, n_fine, per_row + 1, seed);
            let p = random_csr(n_fine, (n_fine / 2).max(1), per_row, seed.wrapping_add(2));
            let serial = rap(&a, &p);
            for nt in [1usize, 2, 7] {
                prop_assert_eq!(&rap_parallel(&a, &p, nt), &serial);
            }
        }
    }
}
