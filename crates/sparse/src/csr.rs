//! Compressed sparse row matrices and their matrix-vector kernels.
//!
//! Row-range variants of the vector kernels (`*_rows`) exist so that a thread
//! team can split a kernel over its members with static scheduling, exactly
//! like the OpenMP `parallel for` loops in the paper's Algorithms 3–5. Their
//! output is the caller's chunk-local slice (row `i` lands at index
//! `i − rows.start`), so each member passes the part of the shared output it
//! owns and nothing else.

use crate::atomic::AtomicF64Vec;
// The shared sparse dot kernel `Σ_k vals[k] · x[col[k]]` lives in the `simd`
// module (the scalar four-accumulator loop; scalar on x86-64 by measurement,
// a bit-identical NEON variant on aarch64). Every row-dot kernel of [`Csr`] —
// serial, ranged and atomic — funnels through its accumulation order, so
// sequential and thread-team solves stay comparable at round-off level
// regardless of how rows are partitioned or which instruction set executes
// them. Explicit SIMD enters only through the across-row stencil plan.
use crate::simd::dot4;
use crate::stencil::{StencilPlan, StencilStats};
use std::sync::OnceLock;

/// Two-column fused sparse dot: one pass over the row's nonzeros, each
/// column keeping the exact [`dot4`] accumulation order. Fusing shares the
/// index decode and value load across the columns, which single-column
/// repetition pays per column.
#[inline(always)]
fn dot4_pair(vals: &[f64], cols: &[u32], x0: &[f64], x1: &[f64]) -> (f64, f64) {
    let n = vals.len();
    debug_assert_eq!(cols.len(), n);
    debug_assert!(cols.iter().all(|&c| (c as usize) < x0.len() && (c as usize) < x1.len()));
    let n4 = n & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut b0, mut b1, mut b2, mut b3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0;
    while k < n4 {
        // SAFETY: `k + 3 < n4 <= n` bounds vals/cols; every stored column
        // index is `< ncols <= x*.len()` (validated by `from_raw`, checked
        // by the `debug_assert` above).
        unsafe {
            let (c0, c1, c2, c3) = (
                *cols.get_unchecked(k) as usize,
                *cols.get_unchecked(k + 1) as usize,
                *cols.get_unchecked(k + 2) as usize,
                *cols.get_unchecked(k + 3) as usize,
            );
            let (v0, v1, v2, v3) = (
                *vals.get_unchecked(k),
                *vals.get_unchecked(k + 1),
                *vals.get_unchecked(k + 2),
                *vals.get_unchecked(k + 3),
            );
            a0 += v0 * *x0.get_unchecked(c0);
            a1 += v1 * *x0.get_unchecked(c1);
            a2 += v2 * *x0.get_unchecked(c2);
            a3 += v3 * *x0.get_unchecked(c3);
            b0 += v0 * *x1.get_unchecked(c0);
            b1 += v1 * *x1.get_unchecked(c1);
            b2 += v2 * *x1.get_unchecked(c2);
            b3 += v3 * *x1.get_unchecked(c3);
        }
        k += 4;
    }
    let (mut ta, mut tb) = (0.0f64, 0.0f64);
    while k < n {
        // SAFETY: as above, `k < n`.
        unsafe {
            let c = *cols.get_unchecked(k) as usize;
            let v = *vals.get_unchecked(k);
            ta += v * *x0.get_unchecked(c);
            tb += v * *x1.get_unchecked(c);
        }
        k += 1;
    }
    ((a0 + a1) + (a2 + a3) + ta, (b0 + b1) + (b2 + b3) + tb)
}

/// Four-column fused sparse dot: like [`dot4_pair`] but amortising the
/// index decode and value load over four columns (16 live accumulators —
/// at the register budget, which is why wider fusion stops here).
#[inline(always)]
fn dot4_quad(
    vals: &[f64],
    cols: &[u32],
    x0: &[f64],
    x1: &[f64],
    x2: &[f64],
    x3: &[f64],
) -> (f64, f64, f64, f64) {
    let n = vals.len();
    debug_assert_eq!(cols.len(), n);
    debug_assert!(cols.iter().all(|&c| (c as usize) < x0.len()));
    let n4 = n & !3;
    let mut a = [0.0f64; 4];
    let mut b = [0.0f64; 4];
    let mut c_ = [0.0f64; 4];
    let mut d = [0.0f64; 4];
    let mut k = 0;
    while k < n4 {
        // SAFETY: `k + 3 < n4 <= n` bounds vals/cols; every stored column
        // index is `< ncols <= x*.len()` (validated by `from_raw`, checked
        // by the `debug_assert` above — all four blocks share `ncols`).
        unsafe {
            let (c0, c1, c2, c3) = (
                *cols.get_unchecked(k) as usize,
                *cols.get_unchecked(k + 1) as usize,
                *cols.get_unchecked(k + 2) as usize,
                *cols.get_unchecked(k + 3) as usize,
            );
            let (v0, v1, v2, v3) = (
                *vals.get_unchecked(k),
                *vals.get_unchecked(k + 1),
                *vals.get_unchecked(k + 2),
                *vals.get_unchecked(k + 3),
            );
            a[0] += v0 * *x0.get_unchecked(c0);
            a[1] += v1 * *x0.get_unchecked(c1);
            a[2] += v2 * *x0.get_unchecked(c2);
            a[3] += v3 * *x0.get_unchecked(c3);
            b[0] += v0 * *x1.get_unchecked(c0);
            b[1] += v1 * *x1.get_unchecked(c1);
            b[2] += v2 * *x1.get_unchecked(c2);
            b[3] += v3 * *x1.get_unchecked(c3);
            c_[0] += v0 * *x2.get_unchecked(c0);
            c_[1] += v1 * *x2.get_unchecked(c1);
            c_[2] += v2 * *x2.get_unchecked(c2);
            c_[3] += v3 * *x2.get_unchecked(c3);
            d[0] += v0 * *x3.get_unchecked(c0);
            d[1] += v1 * *x3.get_unchecked(c1);
            d[2] += v2 * *x3.get_unchecked(c2);
            d[3] += v3 * *x3.get_unchecked(c3);
        }
        k += 4;
    }
    let mut t = [0.0f64; 4];
    while k < n {
        // SAFETY: as above, `k < n`.
        unsafe {
            let ci = *cols.get_unchecked(k) as usize;
            let v = *vals.get_unchecked(k);
            t[0] += v * *x0.get_unchecked(ci);
            t[1] += v * *x1.get_unchecked(ci);
            t[2] += v * *x2.get_unchecked(ci);
            t[3] += v * *x3.get_unchecked(ci);
        }
        k += 1;
    }
    (
        (a[0] + a[1]) + (a[2] + a[3]) + t[0],
        (b[0] + b[1]) + (b[2] + b[3]) + t[1],
        (c_[0] + c_[1]) + (c_[2] + c_[3]) + t[2],
        (d[0] + d[1]) + (d[2] + d[3]) + t[3],
    )
}

/// Runs the fused sparse dot over all `nrhs` columns of the column-major
/// block `x` (stride `ncols`), writing one result per column through `out`.
/// Columns go through [`dot4_quad`] four at a time, then [`dot4_pair`],
/// then a [`dot4`] cleanup, so every column's sum is bit-identical to a
/// solo [`dot4`].
#[inline(always)]
fn dot4_block(
    vals: &[f64],
    cols: &[u32],
    nrhs: usize,
    ncols: usize,
    x: &[f64],
    mut out: impl FnMut(usize, f64),
) {
    let mut c = 0;
    while c + 4 <= nrhs {
        let (r0, r1, r2, r3) = dot4_quad(
            vals,
            cols,
            &x[c * ncols..(c + 1) * ncols],
            &x[(c + 1) * ncols..(c + 2) * ncols],
            &x[(c + 2) * ncols..(c + 3) * ncols],
            &x[(c + 3) * ncols..(c + 4) * ncols],
        );
        out(c, r0);
        out(c + 1, r1);
        out(c + 2, r2);
        out(c + 3, r3);
        c += 4;
    }
    if c + 2 <= nrhs {
        let (r0, r1) = dot4_pair(
            vals,
            cols,
            &x[c * ncols..(c + 1) * ncols],
            &x[(c + 1) * ncols..(c + 2) * ncols],
        );
        out(c, r0);
        out(c + 1, r1);
        c += 2;
    }
    if c < nrhs {
        out(c, dot4(vals, cols, &x[c * ncols..(c + 1) * ncols]));
    }
}

/// A structural or value defect found by [`Csr::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr` does not have `nrows + 1` entries.
    RowPtrLength {
        /// `nrows + 1`.
        expected: usize,
        /// Actual `row_ptr` length.
        got: usize,
    },
    /// `row_ptr`, `col_idx` and `vals` disagree about the entry count.
    NnzMismatch {
        /// `row_ptr.last()`.
        row_ptr_last: usize,
        /// `col_idx.len()`.
        col_idx: usize,
        /// `vals.len()`.
        vals: usize,
    },
    /// `row_ptr` decreases at this row.
    RowPtrNotMonotone {
        /// Offending row.
        row: usize,
    },
    /// A column index is out of range.
    ColOutOfRange {
        /// Offending row.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Matrix column count.
        ncols: usize,
    },
    /// Column indices within a row are not strictly increasing.
    ColsNotSorted {
        /// Offending row.
        row: usize,
    },
    /// A stored value is NaN or infinite.
    NonFiniteValue {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::RowPtrLength { expected, got } => {
                write!(f, "row_ptr has {got} entries, expected {expected}")
            }
            CsrError::NnzMismatch { row_ptr_last, col_idx, vals } => write!(
                f,
                "entry counts disagree: row_ptr says {row_ptr_last}, col_idx {col_idx}, vals {vals}"
            ),
            CsrError::RowPtrNotMonotone { row } => write!(f, "row_ptr decreases at row {row}"),
            CsrError::ColOutOfRange { row, col, ncols } => {
                write!(f, "row {row} references column {col} of a {ncols}-column matrix")
            }
            CsrError::ColsNotSorted { row } => {
                write!(f, "columns of row {row} are not strictly increasing")
            }
            CsrError::NonFiniteValue { row, col } => {
                write!(f, "entry ({row}, {col}) is not finite")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// A sparse matrix in compressed sparse row format.
///
/// Column indices are `u32` (half the memory of `usize` indices, the usual
/// HPC choice); columns are sorted within each row.
#[derive(Debug)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
    /// Lazily built across-row SIMD plan (see [`crate::stencil`]): `None`
    /// inside means "checked, not stencil-structured". Purely a kernel
    /// cache — cloning resets it, equality ignores it, and the `&mut`
    /// accessors drop it so a stale repack can never be applied.
    plan: OnceLock<Option<Box<StencilPlan>>>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.clone(),
            plan: OnceLock::new(),
        }
    }
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.vals == other.vals
    }
}

impl Csr {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (debug builds also verify that
    /// columns are in range and sorted).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1);
        assert_eq!(col_idx.len(), vals.len());
        assert_eq!(*row_ptr.last().unwrap() as usize, col_idx.len());
        #[cfg(debug_assertions)]
        {
            for i in 0..nrows {
                let lo = row_ptr[i] as usize;
                let hi = row_ptr[i + 1] as usize;
                assert!(lo <= hi);
                for k in lo..hi {
                    assert!((col_idx[k] as usize) < ncols);
                    if k > lo {
                        assert!(col_idx[k - 1] < col_idx[k], "row {i} not sorted");
                    }
                }
            }
        }
        Csr { nrows, ncols, row_ptr, col_idx, vals, plan: OnceLock::new() }
    }

    /// Full structural and value validation, independent of build profile.
    ///
    /// Unlike the `debug_assert`s in [`Csr::from_raw`], this checks release
    /// builds too and reports the defect instead of panicking: row-pointer
    /// monotonicity, column range and ordering, and entry finiteness. Use
    /// it on untrusted input before handing the matrix to a solver.
    pub fn validate(&self) -> Result<(), CsrError> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(CsrError::RowPtrLength {
                expected: self.nrows + 1,
                got: self.row_ptr.len(),
            });
        }
        if *self.row_ptr.last().unwrap() as usize != self.vals.len()
            || self.col_idx.len() != self.vals.len()
        {
            return Err(CsrError::NnzMismatch {
                row_ptr_last: *self.row_ptr.last().unwrap() as usize,
                col_idx: self.col_idx.len(),
                vals: self.vals.len(),
            });
        }
        for i in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            if lo > hi {
                return Err(CsrError::RowPtrNotMonotone { row: i });
            }
            for k in lo..hi {
                if self.col_idx[k] as usize >= self.ncols {
                    return Err(CsrError::ColOutOfRange {
                        row: i,
                        col: self.col_idx[k] as usize,
                        ncols: self.ncols,
                    });
                }
                if k > lo && self.col_idx[k - 1] >= self.col_idx[k] {
                    return Err(CsrError::ColsNotSorted { row: i });
                }
                if !self.vals[k].is_finite() {
                    return Err(CsrError::NonFiniteValue { row: i, col: self.col_idx[k] as usize });
                }
            }
        }
        Ok(())
    }

    /// Builds a CSR matrix from raw parts whose rows may be unsorted,
    /// normalising with [`Csr::sort_rows`] before returning. Use this for
    /// externally produced arrays (foreign libraries, file formats that do
    /// not guarantee ordering); [`Csr::from_raw`] requires sorted rows.
    ///
    /// # Panics
    /// Panics if the array shapes are inconsistent.
    pub fn from_unsorted_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1);
        assert_eq!(col_idx.len(), vals.len());
        assert_eq!(*row_ptr.last().unwrap() as usize, col_idx.len());
        let mut a = Csr { nrows, ncols, row_ptr, col_idx, vals, plan: OnceLock::new() };
        a.sort_rows();
        a
    }

    /// Sorts each row's entries by column index, in place.
    ///
    /// Every kernel in this crate — and the BSR conversion in
    /// [`crate::bsr`] — assumes sorted columns; matrices built by
    /// [`Coo`](crate::coo::Coo) already are, but externally imported raw
    /// arrays may not be. This normaliser makes them so. Duplicate columns
    /// are left adjacent (their order preserved) and still rejected by
    /// [`Csr::validate`]; merge duplicates through a
    /// [`Coo`](crate::coo::Coo) round trip instead.
    pub fn sort_rows(&mut self) {
        self.plan.take();
        let mut perm: Vec<u32> = Vec::new();
        let mut scratch_c: Vec<u32> = Vec::new();
        let mut scratch_v: Vec<f64> = Vec::new();
        for i in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            let cols = &self.col_idx[lo..hi];
            if cols.windows(2).all(|w| w[0] <= w[1]) {
                continue;
            }
            perm.clear();
            perm.extend(0..(hi - lo) as u32);
            perm.sort_by_key(|&k| cols[k as usize]);
            scratch_c.clear();
            scratch_v.clear();
            scratch_c.extend(perm.iter().map(|&k| self.col_idx[lo + k as usize]));
            scratch_v.extend(perm.iter().map(|&k| self.vals[lo + k as usize]));
            self.col_idx[lo..hi].copy_from_slice(&scratch_c);
            self.vals[lo..hi].copy_from_slice(&scratch_v);
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n as u32).collect();
        let col_idx = (0..n as u32).collect();
        let vals = vec![1.0; n];
        Csr { nrows: n, ncols: n, row_ptr, col_idx, vals, plan: OnceLock::new() }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The raw row-pointer array (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The raw column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The raw value array.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable access to the value array (structure is fixed).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        self.plan.take();
        &mut self.vals
    }

    /// The cached stencil plan when one applies: built on first use by the
    /// SIMD SpMV path, `None` while SIMD is off/unsupported or when the
    /// matrix lacks run structure (see [`crate::stencil`]).
    #[inline]
    fn stencil_plan(&self) -> Option<&StencilPlan> {
        if !crate::simd::active() {
            return None;
        }
        self.plan.get_or_init(|| StencilPlan::build(self).map(Box::new)).as_deref()
    }

    /// Summary of the across-row SIMD plan for this matrix, or `None` when
    /// no plan applies (SIMD off or unsupported, or the matrix is not
    /// stencil-structured). Benchmarks and tests use this to report which
    /// kernel actually ran.
    pub fn stencil_stats(&self) -> Option<StencilStats> {
        self.stencil_plan().map(|p| p.stats())
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// The entry at `(i, j)`, or `0.0` when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// The main diagonal as a dense vector (`0.0` where absent).
    pub fn diag(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows];
        self.diag_into(&mut d);
        d
    }

    /// Writes the main diagonal into `out` (`0.0` where absent), locating
    /// each entry with a binary search over the row's sorted columns.
    pub fn diag_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.nrows);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            out[i] = match cols.binary_search(&(i as u32)) {
                Ok(k) => vals[k],
                Err(_) => 0.0,
            };
        }
    }

    /// Row-wise ℓ1 norms `Σ_j |a_ij|`, the diagonal of the ℓ1-Jacobi
    /// smoothing matrix of the paper's Section V.
    pub fn l1_row_norms(&self) -> Vec<f64> {
        (0..self.nrows).map(|i| self.row(i).1.iter().map(|v| v.abs()).sum()).collect()
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_rows(0..self.nrows, x, y);
    }

    /// `y[i − rows.start] = (A x)[i]` for `i` in `rows` — the row-range
    /// kernel used by thread teams. `y` is the caller's *chunk-local* slice
    /// (`y.len() == rows.len()`, checked in release builds), which is what
    /// a thread owning one chunk of a shared vector can pass without
    /// aliasing its team-mates; `x` is the full vector.
    ///
    /// When SIMD is active and the matrix is stencil-structured, this runs
    /// the across-row plan of [`crate::stencil`]; each row's result is
    /// bit-identical to the scalar per-row path regardless of the range
    /// partitioning.
    pub fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        // The vector kernels read/write through raw pointers; check the
        // slice contract in release builds too before entering them.
        assert!(rows.end <= self.nrows && x.len() >= self.ncols);
        assert_eq!(y.len(), rows.len(), "y must be the chunk-local slice of `rows`");
        if let Some(plan) = self.stencil_plan() {
            plan.spmv_rows(self, rows, x, y);
            return;
        }
        for (d, i) in y.iter_mut().zip(rows) {
            *d = self.row_dot(i, x);
        }
    }

    /// Single-row dot product `(A x)_i`.
    #[inline]
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        dot4(&self.vals[lo..hi], &self.col_idx[lo..hi], x)
    }

    /// Single-row dot product reading `x` from a shared atomic vector.
    ///
    /// This is the kernel inside asynchronous Gauss-Seidel and the global-res
    /// residual update, where `x` is concurrently mutated by other grids.
    /// The accumulation order matches [`Csr::row_dot`] (same 4-way unrolled
    /// scheme) so synchronous thread-team solves reproduce sequential ones.
    #[inline]
    pub fn row_dot_atomic(&self, i: usize, x: &AtomicF64Vec) -> f64 {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        let (vals, cols) = (&self.vals[lo..hi], &self.col_idx[lo..hi]);
        let n = vals.len();
        let n4 = n & !3;
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut k = 0;
        while k < n4 {
            a0 += vals[k] * x.load(cols[k] as usize);
            a1 += vals[k + 1] * x.load(cols[k + 1] as usize);
            a2 += vals[k + 2] * x.load(cols[k + 2] as usize);
            a3 += vals[k + 3] * x.load(cols[k + 3] as usize);
            k += 4;
        }
        let mut tail = 0.0f64;
        while k < n {
            tail += vals[k] * x.load(cols[k] as usize);
            k += 1;
        }
        (a0 + a1) + (a2 + a3) + tail
    }

    /// `r[i − rows.start] = (b − A x)[i]` for `i` in `rows` — residual
    /// kernel; `r` is chunk-local as in [`Csr::spmv_rows`], `b` and `x` are
    /// full vectors.
    ///
    /// Stencil-planned like [`Csr::spmv_rows`]: the dots land in `r` first,
    /// then `r = b[rows] − r` — the same `b[i] − dot` each scalar row
    /// computes, so the result stays bit-identical.
    pub fn residual_rows(&self, rows: std::ops::Range<usize>, b: &[f64], x: &[f64], r: &mut [f64]) {
        assert!(rows.end <= self.nrows && x.len() >= self.ncols && b.len() >= self.nrows);
        assert_eq!(r.len(), rows.len(), "r must be the chunk-local slice of `rows`");
        if let Some(plan) = self.stencil_plan() {
            plan.spmv_rows(self, rows.clone(), x, r);
            for (d, &bi) in r.iter_mut().zip(&b[rows]) {
                *d = bi - *d;
            }
            return;
        }
        for (d, i) in r.iter_mut().zip(rows) {
            *d = b[i] - self.row_dot(i, x);
        }
    }

    /// `r = b − A x`.
    pub fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.residual_rows(0..self.nrows, b, x, r);
    }

    /// Blocked SpMM `Y = A X` over `nrhs` column vectors.
    ///
    /// `x` holds `nrhs` columns of length `ncols` back to back; `y` receives
    /// `nrhs` columns of length `nrows` in the same layout. Column `c` of the
    /// result is bit-identical to `spmv` applied to column `c` alone: the
    /// row's `vals`/`col_idx` slices are loaded once and reused across all
    /// columns, but each column accumulates in exactly the [`Csr::row_dot`]
    /// order (the shared `dot4` scheme). The blocked form only amortises the
    /// matrix structure traversal across the columns.
    pub fn spmv_block(&self, nrhs: usize, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols * nrhs, "x must hold nrhs columns of length ncols");
        assert_eq!(y.len(), self.nrows * nrhs, "y must hold nrhs columns of length nrows");
        for i in 0..self.nrows {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            let (vals, cols) = (&self.vals[lo..hi], &self.col_idx[lo..hi]);
            let nrows = self.nrows;
            dot4_block(vals, cols, nrhs, self.ncols, x, |c, v| y[c * nrows + i] = v);
        }
    }

    /// Blocked residual `R = B − A X` over `nrhs` columns (layout as in
    /// [`Csr::spmv_block`]). Column `c` is bit-identical to [`Csr::residual`]
    /// on column `c` alone.
    pub fn residual_block(&self, nrhs: usize, b: &[f64], x: &[f64], r: &mut [f64]) {
        assert_eq!(x.len(), self.ncols * nrhs, "x must hold nrhs columns of length ncols");
        assert_eq!(b.len(), self.nrows * nrhs, "b must hold nrhs columns of length nrows");
        assert_eq!(r.len(), self.nrows * nrhs, "r must hold nrhs columns of length nrows");
        for i in 0..self.nrows {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            let (vals, cols) = (&self.vals[lo..hi], &self.col_idx[lo..hi]);
            let nrows = self.nrows;
            dot4_block(vals, cols, nrhs, self.ncols, x, |c, v| {
                r[c * nrows + i] = b[c * nrows + i] - v;
            });
        }
    }

    /// The transpose as a new CSR matrix (used for restriction `R = Pᵀ`).
    pub fn transpose(&self) -> Csr {
        // One array serves as both prefix sum and insertion cursor: during
        // the fill, `row_ptr[j]` walks from the start of output row `j` to
        // its end (= the start of row `j + 1`), so a single right-shift
        // afterwards restores the row pointers without a second allocation.
        let mut row_ptr = vec![0u32; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        for i in 0..self.nrows {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            for k in lo..hi {
                let j = self.col_idx[k] as usize;
                let dst = row_ptr[j] as usize;
                col_idx[dst] = i as u32;
                vals[dst] = self.vals[k];
                row_ptr[j] += 1;
            }
        }
        for j in (1..=self.ncols).rev() {
            row_ptr[j] = row_ptr[j - 1];
        }
        row_ptr[0] = 0;
        // Rows of the transpose are produced in increasing original-row
        // order, so columns are already sorted.
        Csr { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, vals, plan: OnceLock::new() }
    }

    /// Whether the matrix is numerically symmetric to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Structures differ; fall back to slow entry-wise comparison.
            for i in 0..self.nrows {
                let (cols, vals) = self.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    if (v - self.get(j as usize, i)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.vals.iter().zip(&t.vals).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Scales row `i` by `s[i]` in place (`A ← diag(s) A`).
    pub fn scale_rows(&mut self, s: &[f64]) {
        assert_eq!(s.len(), self.nrows);
        self.plan.take();
        for i in 0..self.nrows {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            for v in &mut self.vals[lo..hi] {
                *v *= s[i];
            }
        }
    }

    /// Converts to a dense row-major array (tests and the coarse solve).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                d[i * self.ncols + j as usize] = v;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn small() -> Csr {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut c = Coo::new(3, 3);
        for i in 0..3usize {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i < 2 {
                c.push(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn spmv_tridiag() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
    }

    #[test]
    fn residual_matches_definition() {
        let a = small();
        let b = [1.0, 1.0, 1.0];
        let x = [0.5, 1.0, 0.5];
        let mut r = [0.0; 3];
        a.residual(&b, &x, &mut r);
        let mut ax = [0.0; 3];
        a.spmv(&x, &mut ax);
        for i in 0..3 {
            assert!((r[i] - (b[i] - ax[i])).abs() < 1e-15);
        }
    }

    #[test]
    fn sort_rows_normalises_unsorted_input() {
        let a = Csr::from_unsorted_raw(
            2,
            4,
            vec![0, 3, 5],
            vec![3, 0, 2, 1, 0],
            vec![30.0, 0.5, 20.0, 11.0, 10.0],
        );
        assert!(a.validate().is_ok());
        assert_eq!(a.row(0), (&[0u32, 2, 3][..], &[0.5, 20.0, 30.0][..]));
        assert_eq!(a.row(1), (&[0u32, 1][..], &[10.0, 11.0][..]));
        // Already-sorted rows are untouched (fast path).
        let mut b = a.clone();
        b.sort_rows();
        assert_eq!(a, b);
    }

    #[test]
    fn sort_rows_keeps_duplicates_for_validate() {
        let a = Csr::from_unsorted_raw(1, 3, vec![0, 3], vec![2, 1, 2], vec![1.0, 2.0, 3.0]);
        assert!(matches!(a.validate(), Err(CsrError::ColsNotSorted { row: 0 })));
    }

    #[test]
    fn transpose_of_symmetric_is_identical() {
        let a = small();
        let t = a.transpose();
        assert_eq!(a, t);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn transpose_rectangular() {
        let mut c = Coo::new(2, 3);
        c.push(0, 0, 1.0);
        c.push(0, 2, 2.0);
        c.push(1, 1, 3.0);
        let a = c.to_csr();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn diag_and_l1() {
        let a = small();
        assert_eq!(a.diag(), vec![2.0, 2.0, 2.0]);
        assert_eq!(a.l1_row_norms(), vec![3.0, 4.0, 3.0]);
    }

    #[test]
    fn identity_behaves() {
        let i3 = Csr::identity(3);
        let x = [5.0, -1.0, 2.0];
        let mut y = [0.0; 3];
        i3.spmv(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn spmv_rows_partitions_compose() {
        let a = small();
        let x = [1.0, -2.0, 0.5];
        let mut full = [0.0; 3];
        a.spmv(&x, &mut full);
        let mut split = [0.0; 3];
        a.spmv_rows(0..1, &x, &mut split[..1]);
        a.spmv_rows(1..3, &x, &mut split[1..]);
        assert_eq!(full, split);
    }

    /// An irregular matrix with row lengths straddling the 4-way unroll
    /// boundary (1..=6 nonzeros per row), to exercise both the unrolled body
    /// and the tail of `dot4` in the blocked kernels.
    fn irregular(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0 + (i % 3) as f64);
            for d in 1..=(i % 6) {
                if i >= d {
                    c.push(i, i - d, -1.0 / (d as f64 + 0.5));
                }
            }
        }
        c.to_csr()
    }

    fn columns(n: usize, nrhs: usize) -> Vec<f64> {
        // Deterministic, irregular values; splitmix64-style mixing.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        (0..n * nrhs)
            .map(|_| {
                s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(0x94d0_49bb_1331_11eb);
                ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn spmv_block_matches_per_column_spmv_bitwise() {
        let a = irregular(31);
        let nrhs = 4;
        let x = columns(31, nrhs);
        let mut y = vec![0.0; 31 * nrhs];
        a.spmv_block(nrhs, &x, &mut y);
        for c in 0..nrhs {
            let mut solo = vec![0.0; 31];
            a.spmv(&x[c * 31..(c + 1) * 31], &mut solo);
            for i in 0..31 {
                assert_eq!(y[c * 31 + i].to_bits(), solo[i].to_bits(), "row {i} col {c}");
            }
        }
    }

    #[test]
    fn residual_block_matches_per_column_residual_bitwise() {
        let a = irregular(17);
        let nrhs = 3;
        let x = columns(17, nrhs);
        let b = columns(17, nrhs);
        let mut r = vec![0.0; 17 * nrhs];
        a.residual_block(nrhs, &b, &x, &mut r);
        for c in 0..nrhs {
            let mut solo = vec![0.0; 17];
            a.residual(&b[c * 17..(c + 1) * 17], &x[c * 17..(c + 1) * 17], &mut solo);
            for i in 0..17 {
                assert_eq!(r[c * 17 + i].to_bits(), solo[i].to_bits(), "row {i} col {c}");
            }
        }
    }

    #[test]
    fn spmv_block_single_column_equals_spmv() {
        let a = irregular(29);
        let x = columns(29, 1);
        let mut blocked = vec![0.0; 29];
        let mut plain = vec![0.0; 29];
        a.spmv_block(1, &x, &mut blocked);
        a.spmv(&x, &mut plain);
        assert_eq!(blocked, plain);
    }

    #[test]
    fn scale_rows_applies() {
        let mut a = small();
        a.scale_rows(&[1.0, 2.0, 0.5]);
        assert_eq!(a.get(1, 0), -2.0);
        assert_eq!(a.get(2, 2), 1.0);
    }

    #[test]
    fn validate_accepts_well_formed_matrices() {
        assert_eq!(small().validate(), Ok(()));
        assert_eq!(Csr::identity(5).validate(), Ok(()));
        assert_eq!(
            Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, -2.0]).validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_reports_defects() {
        // Built through the private constructor so defective raw parts can
        // bypass from_raw's panics.
        let mut a = small();
        a.vals[1] = f64::NAN;
        assert!(matches!(a.validate(), Err(CsrError::NonFiniteValue { .. })));

        let a = Csr {
            nrows: 2,
            ncols: 2,
            row_ptr: vec![0, 1, 2],
            col_idx: vec![0, 5],
            vals: vec![1.0, 1.0],
            plan: OnceLock::new(),
        };
        assert_eq!(a.validate(), Err(CsrError::ColOutOfRange { row: 1, col: 5, ncols: 2 }));

        let a = Csr {
            nrows: 2,
            ncols: 2,
            row_ptr: vec![0, 2, 2],
            col_idx: vec![1, 0],
            vals: vec![1.0, 1.0],
            plan: OnceLock::new(),
        };
        assert_eq!(a.validate(), Err(CsrError::ColsNotSorted { row: 0 }));

        let a = Csr {
            nrows: 1,
            ncols: 1,
            row_ptr: vec![0, 2],
            col_idx: vec![0],
            vals: vec![1.0],
            plan: OnceLock::new(),
        };
        assert!(matches!(a.validate(), Err(CsrError::NnzMismatch { .. })));
    }
}
