//! Block sparse row storage with small dense `b×b` blocks.
//!
//! Systems of PDEs discretised with `num_functions` unknowns per mesh node
//! (the elasticity problems store 3 displacement components per node, dofs
//! interleaved) produce matrices whose nonzero pattern is a grid of dense
//! `b×b` blocks. BSR exploits that: one column index per *block* instead of
//! per entry (b× fewer index loads), and the `b` right-hand-side values of
//! `x` a block touches are contiguous and shared by all `b` rows of the
//! block (b× fewer `x` loads in the block-row kernels).
//!
//! ## Bit-identity contract
//!
//! Every kernel reproduces the CSR scalar path bit for bit. The value layout
//! makes this natural: within a block row, the entries of each *scalar* row
//! are stored as one contiguous segment in column order — exactly the flat
//! `(vals, cols)` stream [`Csr`] holds for that row when the block pattern
//! has no fill-in. The kernels then apply the shared `dot4` accumulation
//! scheme (entry `k` in lane `k mod 4`, tail of `n mod 4` entries, combined
//! `(a0+a1)+(a2+a3)+tail`; see [`crate::simd`]) over that stream, so
//! `Bsr::row_dot(i, x)` computes the *same floating-point operations in the
//! same order* as `Csr::row_dot(i, x)`.
//!
//! Conversion tracks [`fill`](Bsr::fill): the number of explicit zeros the
//! blocking added. When `fill() == 0` the flat stream is identical to the
//! source CSR stream and every result is unconditionally bit-identical.
//! When fill-in was added, the inserted zeros shift the lane assignment of
//! subsequent entries, which can change low-order bits — the hierarchy
//! therefore only installs BSR operators on levels that convert with zero
//! fill (which the elasticity assembly guarantees: its element loop stores
//! every block entry, including exact zeros).

use crate::csr::Csr;
use crate::simd;

/// Errors from [`Bsr::from_csr`].
#[derive(Debug, PartialEq, Eq)]
pub enum BsrError {
    /// Block size must be at least 1.
    ZeroBlock,
    /// Matrix dimensions are not multiples of the block size.
    Unaligned { nrows: usize, ncols: usize, b: usize },
    /// A source row's columns were not strictly increasing; normalise with
    /// [`Csr::sort_rows`] first.
    ColsNotSorted { row: usize },
}

impl std::fmt::Display for BsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BsrError::ZeroBlock => write!(f, "block size must be >= 1"),
            BsrError::Unaligned { nrows, ncols, b } => {
                write!(f, "{nrows}x{ncols} matrix is not partitionable into {b}x{b} blocks")
            }
            BsrError::ColsNotSorted { row } => {
                write!(f, "columns of row {row} are not strictly increasing")
            }
        }
    }
}

impl std::error::Error for BsrError {}

/// A sparse matrix of dense `b×b` blocks.
///
/// Storage: `row_ptr` counts *blocks* per block row; `col_idx` holds sorted
/// *block* column indices. `vals` holds, for each block row, `b` contiguous
/// segments — segment `r` is scalar row `block_row·b + r`'s entries in
/// column order (length `nblocks·b`). This "row-segment" layout keeps every
/// scalar row's values contiguous, which is what lets the kernels replay the
/// CSR `dot4` stream exactly (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Bsr {
    nrows: usize,
    ncols: usize,
    b: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
    fill: usize,
}

impl Bsr {
    /// Converts a CSR matrix (strictly-sorted columns required; see
    /// [`Csr::sort_rows`]) into `b×b` blocks.
    ///
    /// The conversion is lossless: [`to_csr`](Bsr::to_csr) reproduces the
    /// source exactly when no fill-in was needed, and reproduces every
    /// source entry (plus explicit zeros for padded positions) otherwise.
    /// [`fill`](Bsr::fill) reports how many zeros were added.
    pub fn from_csr(a: &Csr, b: usize) -> Result<Bsr, BsrError> {
        if b == 0 {
            return Err(BsrError::ZeroBlock);
        }
        if !a.nrows().is_multiple_of(b) || !a.ncols().is_multiple_of(b) {
            return Err(BsrError::Unaligned { nrows: a.nrows(), ncols: a.ncols(), b });
        }
        let nbr = a.nrows() / b;
        let mut row_ptr = Vec::with_capacity(nbr + 1);
        row_ptr.push(0u32);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut bcols: Vec<u32> = Vec::new();
        for bi in 0..nbr {
            // Union of the b rows' block columns (each row sorted, so the
            // union is a sort + dedup of at most b short sorted lists).
            bcols.clear();
            for r in 0..b {
                let i = bi * b + r;
                let (cols, _) = a.row(i);
                for w in cols.windows(2) {
                    if w[0] >= w[1] {
                        return Err(BsrError::ColsNotSorted { row: i });
                    }
                }
                bcols.extend(cols.iter().map(|&c| c / b as u32));
            }
            bcols.sort_unstable();
            bcols.dedup();
            let nblk = bcols.len();
            row_ptr.push(row_ptr[bi] + nblk as u32);
            let base = vals.len();
            vals.resize(base + nblk * b * b, 0.0);
            // Scatter each scalar row into its contiguous segment. Both the
            // row's columns and `bcols` ascend, so a single cursor suffices.
            for r in 0..b {
                let (cols, v) = a.row(bi * b + r);
                let seg = &mut vals[base + r * nblk * b..base + (r + 1) * nblk * b];
                let mut bj = 0usize;
                for (&c, &val) in cols.iter().zip(v) {
                    let target = c / b as u32;
                    while bcols[bj] != target {
                        bj += 1;
                    }
                    seg[bj * b + (c as usize % b)] = val;
                }
            }
            col_idx.extend_from_slice(&bcols);
        }
        let fill = vals.len() - a.nnz();
        Ok(Bsr { nrows: a.nrows(), ncols: a.ncols(), b, row_ptr, col_idx, vals, fill })
    }

    /// Expands back to CSR, materialising every stored entry (including any
    /// fill-in zeros). With [`fill`](Bsr::fill)` == 0` this is the exact
    /// inverse of [`from_csr`](Bsr::from_csr).
    pub fn to_csr(&self) -> Csr {
        let nnz = self.vals.len();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0u32);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for i in 0..self.nrows {
            let (seg, bcols) = self.row_seg(i);
            for (j, &bc) in bcols.iter().enumerate() {
                for c in 0..self.b {
                    col_idx.push(bc * self.b as u32 + c as u32);
                    vals.push(seg[j * self.b + c]);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr::from_raw(self.nrows, self.ncols, row_ptr, col_idx, vals)
    }

    /// Number of scalar rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of scalar columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Stored scalar entries (`nblocks · b²`).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Explicit zeros added by the conversion. `0` means the source pattern
    /// was fully block-dense and every kernel is unconditionally
    /// bit-identical to the CSR path.
    pub fn fill(&self) -> usize {
        self.fill
    }

    /// Scalar row `i` as (contiguous value segment, block columns). The
    /// segment holds `bcols.len()·b` values; entry `j·b + c` multiplies
    /// `x[bcols[j]·b + c]`.
    #[inline]
    fn row_seg(&self, i: usize) -> (&[f64], &[u32]) {
        let bi = i / self.b;
        let r = i % self.b;
        let (lo, hi) = (self.row_ptr[bi] as usize, self.row_ptr[bi + 1] as usize);
        let nblk = hi - lo;
        let base = lo * self.b * self.b;
        let seg = &self.vals[base + r * nblk * self.b..base + (r + 1) * nblk * self.b];
        (seg, &self.col_idx[lo..hi])
    }

    /// The three row segments and block columns of block row `bi` (b = 3).
    #[inline]
    fn block_row3(&self, bi: usize) -> (&[f64], &[f64], &[f64], &[u32]) {
        debug_assert_eq!(self.b, 3);
        let (lo, hi) = (self.row_ptr[bi] as usize, self.row_ptr[bi + 1] as usize);
        let nblk = hi - lo;
        let base = lo * 9;
        let l = nblk * 3;
        let s = &self.vals[base..base + 3 * l];
        (&s[0..l], &s[l..2 * l], &s[2 * l..3 * l], &self.col_idx[lo..hi])
    }

    /// `Σ_k row_i[k] · x[col_k]` with the exact `dot4` accumulation order of
    /// [`Csr::row_dot`] — the edge rows of a range that cuts a block row.
    pub(crate) fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let (seg, bcols) = self.row_seg(i);
        bdot(seg, bcols, self.b, x)
    }

    /// `y = A x` (all rows).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_rows(0..self.nrows, x, y);
    }

    /// `y[i − rows.start] = A[i,:]·x` for `i` in `rows`; `y` is the
    /// caller's chunk-local slice (`y.len() == rows.len()`, checked in
    /// release builds) as in [`Csr::spmv_rows`]. The range need not be
    /// block-aligned; interior whole block rows go through the fast shared-x
    /// kernel, edge rows fall back to per-row dots (same bits either way).
    pub fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), rows.len(), "y must be the chunk-local slice of `rows`");
        let first = rows.start;
        self.for_rows(rows, x, |i, v| y[i - first] = v);
    }

    /// `r[i − rows.start] = b[i] − A[i,:]·x` for `i` in `rows` (`r`
    /// chunk-local, `b` and `x` full vectors); bit-identical to
    /// [`Csr::residual_rows`].
    pub fn residual_rows(&self, rows: std::ops::Range<usize>, b: &[f64], x: &[f64], r: &mut [f64]) {
        assert_eq!(r.len(), rows.len(), "r must be the chunk-local slice of `rows`");
        let first = rows.start;
        self.for_rows(rows, x, |i, v| r[i - first] = b[i] - v);
    }

    /// `r = b − A x` (all rows).
    pub fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.residual_rows(0..self.nrows, b, x, r);
    }

    /// Runs `out(i, A[i,:]·x)` for every `i` in `rows`, using the b=3
    /// block-row kernel where the range covers whole block rows.
    #[inline]
    fn for_rows<F: FnMut(usize, f64)>(&self, rows: std::ops::Range<usize>, x: &[f64], mut out: F) {
        // The AVX-512 block-row kernel reads `x` through raw pointers.
        assert!(rows.end <= self.nrows && x.len() >= self.ncols);
        let b = self.b;
        if b != 3 {
            for i in rows {
                out(i, self.row_dot(i, x));
            }
            return;
        }
        let mut i = rows.start;
        // Head: rows before the first block boundary inside the range.
        while i < rows.end && !i.is_multiple_of(3) {
            out(i, self.row_dot(i, x));
            i += 1;
        }
        // Middle: whole block rows through the shared-x kernel.
        while i + 3 <= rows.end {
            let (s0, s1, s2, bcols) = self.block_row3(i / 3);
            let (y0, y1, y2) = bdot3(s0, s1, s2, bcols, x);
            out(i, y0);
            out(i + 1, y1);
            out(i + 2, y2);
            i += 3;
        }
        // Tail: a final partial block row.
        while i < rows.end {
            out(i, self.row_dot(i, x));
            i += 1;
        }
    }

    /// The dense `b×b` diagonal blocks, row-major, in block-row order —
    /// block `i` of the result is `A[ib..(i+1)b, ib..(i+1)b]`. Absent
    /// diagonal blocks come back zero-filled (consistent with
    /// [`Csr::diag`]'s zero for a missing diagonal).
    fn diag_blocks(&self) -> Vec<f64> {
        let b = self.b;
        let nbr = self.nrows / b;
        let mut out = vec![0.0; nbr * b * b];
        for bi in 0..nbr {
            let (lo, hi) = (self.row_ptr[bi] as usize, self.row_ptr[bi + 1] as usize);
            // Sorted block columns: binary search for the diagonal block.
            if let Ok(j) = self.col_idx[lo..hi].binary_search(&(bi as u32)) {
                let nblk = hi - lo;
                let base = lo * b * b;
                for r in 0..b {
                    let seg = &self.vals[base + r * nblk * b..];
                    out[bi * b * b + r * b..bi * b * b + (r + 1) * b]
                        .copy_from_slice(&seg[j * b..(j + 1) * b]);
                }
            }
        }
        out
    }

    /// The scalar diagonal, bit-identical to [`Csr::diag_into`].
    pub fn diag_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.nrows);
        let blocks = self.diag_blocks();
        let b = self.b;
        for i in 0..self.nrows {
            let (bi, r) = (i / b, i % b);
            out[i] = blocks[bi * b * b + r * b + r];
        }
    }
}

/// `dot4`-ordered dot product over a BSR row's flat stream: entry `k` (block
/// `k / b`, lane `k mod 4`) multiplies `x[bcols[k/b]·b + k%b]`. Bit-identical
/// to [`crate::simd::dot4_scalar`] on the equivalent CSR row.
#[inline]
fn bdot(seg: &[f64], bcols: &[u32], b: usize, x: &[f64]) -> f64 {
    let n = seg.len();
    debug_assert_eq!(n, bcols.len() * b);
    let n4 = n & !3;
    let mut acc = [0.0f64; 4];
    let mut tail = 0.0f64;
    let mut k = 0usize;
    for &bc in bcols {
        let xo = bc as usize * b;
        for c in 0..b {
            let p = seg[k] * x[xo + c];
            if k < n4 {
                acc[k & 3] += p;
            } else {
                tail += p;
            }
            k += 1;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Shared-x 3×3 block-row kernel: computes the three scalar-row dots of one
/// block row in a single pass over the blocks, loading each `x` triplet once
/// for all three rows. Groups of four blocks (12 entries — the lane pattern
/// `k mod 4` repeats every 12) unroll with fixed lane assignments; per-lane
/// accumulation order is ascending `k` throughout, so each row's result is
/// bit-identical to its solo `dot4`.
#[inline]
fn bdot3(s0: &[f64], s1: &[f64], s2: &[f64], bcols: &[u32], x: &[f64]) -> (f64, f64, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        // AVX-512 only: an AVX2 variant has to gather the shared x vectors
        // (three `vgatherdpd` per 4-block group) and measured 0.87 ns/nnz
        // against 0.50 for `bdot3_scalar` and 0.30 for the AVX-512 kernel.
        if simd::active() && simd::avx512_supported() {
            // SAFETY: segment lengths are `3·bcols.len()` by construction
            // and block columns are in range (validated in `from_csr` via
            // the source CSR); the feature check gates the instruction set.
            return unsafe { bdot3_avx512(s0, s1, s2, bcols, x) };
        }
    }
    bdot3_scalar(s0, s1, s2, bcols, x)
}

/// Scalar shared-x 3×3 block-row kernel (see [`bdot3`]).
#[inline]
fn bdot3_scalar(s0: &[f64], s1: &[f64], s2: &[f64], bcols: &[u32], x: &[f64]) -> (f64, f64, f64) {
    let nblk = bcols.len();
    let n = 3 * nblk;
    debug_assert!(s0.len() == n && s1.len() == n && s2.len() == n);
    let n4 = n & !3;
    let ngroups = n4 / 12;
    let mut a = [0.0f64; 4];
    let mut b = [0.0f64; 4];
    let mut c = [0.0f64; 4];
    let (mut at, mut bt, mut ct) = (0.0f64, 0.0f64, 0.0f64);
    let mut j = 0usize;
    for _ in 0..ngroups {
        let k = j * 3;
        let (c0, c1, c2, c3) = (
            bcols[j] as usize * 3,
            bcols[j + 1] as usize * 3,
            bcols[j + 2] as usize * 3,
            bcols[j + 3] as usize * 3,
        );
        // The 12 shared x values of this 4-block group.
        let xg = [
            x[c0],
            x[c0 + 1],
            x[c0 + 2],
            x[c1],
            x[c1 + 1],
            x[c1 + 2], //
            x[c2],
            x[c2 + 1],
            x[c2 + 2],
            x[c3],
            x[c3 + 1],
            x[c3 + 2],
        ];
        // Entry k+o goes to lane (k+o) mod 4 = o mod 4 (k is a multiple of
        // 12); per-lane adds stay in ascending-entry order.
        for o in 0..12 {
            a[o & 3] += s0[k + o] * xg[o];
        }
        for o in 0..12 {
            b[o & 3] += s1[k + o] * xg[o];
        }
        for o in 0..12 {
            c[o & 3] += s2[k + o] * xg[o];
        }
        j += 4;
    }
    // Remainder blocks: generic per-entry lane/tail split.
    let mut k = j * 3;
    while j < nblk {
        let xo = bcols[j] as usize * 3;
        for cc in 0..3 {
            let xv = x[xo + cc];
            let (p0, p1, p2) = (s0[k] * xv, s1[k] * xv, s2[k] * xv);
            if k < n4 {
                a[k & 3] += p0;
                b[k & 3] += p1;
                c[k & 3] += p2;
            } else {
                at += p0;
                bt += p1;
                ct += p2;
            }
            k += 1;
        }
        j += 1;
    }
    (
        (a[0] + a[1]) + (a[2] + a[3]) + at,
        (b[0] + b[1]) + (b[2] + b[3]) + bt,
        (c[0] + c[1]) + (c[2] + c[3]) + ct,
    )
}

/// One 4-block group of the AVX-512 3×3 kernel: assembles the three shared
/// `x` vectors and folds 12 entries of each of the three row segments into
/// the caller's lane accumulators, in exact scalar `dot4` order.
///
/// # Safety
/// Needs `avx512f`+`avx512vl`; `sp0/sp1/sp2` must have 12 readable entries,
/// `bc` 4 readable block columns whose triplets are in bounds of `x`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn group4(
    xp: *const f64,
    sp0: *const f64,
    sp1: *const f64,
    sp2: *const f64,
    bc: *const u32,
    va: &mut core::arch::x86_64::__m256d,
    vb: &mut core::arch::x86_64::__m256d,
    vc: &mut core::arch::x86_64::__m256d,
) {
    use core::arch::x86_64::*;
    let (c0, c1, c2, c3) = (
        *bc as usize * 3,
        *bc.add(1) as usize * 3,
        *bc.add(2) as usize * 3,
        *bc.add(3) as usize * 3,
    );
    // Shared x vectors by pairs of fault-suppressing masked loads:
    // x0 = [A0,A1,A2,B0], x1 = [B1,B2,C0,C1], x2 = [C2,D0,D1,D2]. High-part
    // bases may point before x when a block column is 0 — wrapping
    // arithmetic, lanes masked off (never accessed architecturally).
    let x0 = _mm256_mask_loadu_pd(
        _mm256_maskz_loadu_pd(0b0111, xp.add(c0)),
        0b1000,
        xp.wrapping_add(c1).wrapping_sub(3),
    );
    let x1 = _mm256_mask_loadu_pd(
        _mm256_maskz_loadu_pd(0b0011, xp.add(c1 + 1)),
        0b1100,
        xp.wrapping_add(c2).wrapping_sub(2),
    );
    let x2 = _mm256_mask_loadu_pd(
        _mm256_maskz_loadu_pd(0b0001, xp.add(c2 + 2)),
        0b1110,
        xp.wrapping_add(c3).wrapping_sub(1),
    );
    *va = _mm256_add_pd(*va, _mm256_mul_pd(_mm256_loadu_pd(sp0), x0));
    *va = _mm256_add_pd(*va, _mm256_mul_pd(_mm256_loadu_pd(sp0.add(4)), x1));
    *va = _mm256_add_pd(*va, _mm256_mul_pd(_mm256_loadu_pd(sp0.add(8)), x2));
    *vb = _mm256_add_pd(*vb, _mm256_mul_pd(_mm256_loadu_pd(sp1), x0));
    *vb = _mm256_add_pd(*vb, _mm256_mul_pd(_mm256_loadu_pd(sp1.add(4)), x1));
    *vb = _mm256_add_pd(*vb, _mm256_mul_pd(_mm256_loadu_pd(sp1.add(8)), x2));
    *vc = _mm256_add_pd(*vc, _mm256_mul_pd(_mm256_loadu_pd(sp2), x0));
    *vc = _mm256_add_pd(*vc, _mm256_mul_pd(_mm256_loadu_pd(sp2.add(4)), x1));
    *vc = _mm256_add_pd(*vc, _mm256_mul_pd(_mm256_loadu_pd(sp2.add(8)), x2));
}

/// AVX-512VL shared-x 3×3 block-row kernel: per 4-block group, three shared
/// `x` vectors are assembled once from pairs of fault-suppressing masked
/// triplet loads (no hardware gather) and reused by all three rows (three
/// contiguous value loads + three `mul`+`add` per row). Vector lane `l`
/// accumulates exactly the scalar lane `l` in ascending-entry order —
/// bit-identical to [`bdot3_scalar`]. No FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn bdot3_avx512(
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    bcols: &[u32],
    x: &[f64],
) -> (f64, f64, f64) {
    use core::arch::x86_64::*;
    let nblk = bcols.len();
    let n = 3 * nblk;
    let n4 = n & !3;
    let ngroups = n4 / 12;
    let mut va = _mm256_setzero_pd();
    let mut vb = _mm256_setzero_pd();
    let mut vc = _mm256_setzero_pd();
    let xp = x.as_ptr();
    let mut j = 0usize;
    // Two groups (8 blocks) per iteration: halves the loop overhead and
    // widens the out-of-order window across the x-assembly latency chains.
    // The adds into va/vb/vc keep their textual (= scalar dot4) order, so
    // unrolling does not perturb a single bit.
    while j + 8 <= n4 / 3 {
        group4(
            xp,
            s0.as_ptr().add(j * 3),
            s1.as_ptr().add(j * 3),
            s2.as_ptr().add(j * 3),
            bcols.as_ptr().add(j),
            &mut va,
            &mut vb,
            &mut vc,
        );
        group4(
            xp,
            s0.as_ptr().add(j * 3 + 12),
            s1.as_ptr().add(j * 3 + 12),
            s2.as_ptr().add(j * 3 + 12),
            bcols.as_ptr().add(j + 4),
            &mut va,
            &mut vb,
            &mut vc,
        );
        j += 8;
    }
    while j + 4 <= n4 / 3 {
        let k = j * 3;
        let (c0, c1, c2, c3) = (
            *bcols.get_unchecked(j) as usize * 3,
            *bcols.get_unchecked(j + 1) as usize * 3,
            *bcols.get_unchecked(j + 2) as usize * 3,
            *bcols.get_unchecked(j + 3) as usize * 3,
        );
        // Shared x vectors assembled by pairs of fault-suppressing masked
        // loads (low lanes from one triplet, high lanes blended from the
        // next): x0 = [A0,A1,A2,B0], x1 = [B1,B2,C0,C1], x2 = [C2,D0,D1,D2].
        // High-part bases may point up to 3 elements before x when a block
        // column is 0 — built with wrapping arithmetic, and those lanes are
        // masked off (never accessed architecturally).
        let x0 = _mm256_mask_loadu_pd(
            _mm256_maskz_loadu_pd(0b0111, xp.add(c0)),
            0b1000,
            xp.wrapping_add(c1).wrapping_sub(3),
        );
        let x1 = _mm256_mask_loadu_pd(
            _mm256_maskz_loadu_pd(0b0011, xp.add(c1 + 1)),
            0b1100,
            xp.wrapping_add(c2).wrapping_sub(2),
        );
        let x2 = _mm256_mask_loadu_pd(
            _mm256_maskz_loadu_pd(0b0001, xp.add(c2 + 2)),
            0b1110,
            xp.wrapping_add(c3).wrapping_sub(1),
        );
        // Sequential adds into the same accumulator preserve ascending
        // per-lane entry order (k+o, then k+o+4, then k+o+8 into lane o).
        va = _mm256_add_pd(va, _mm256_mul_pd(_mm256_loadu_pd(s0.as_ptr().add(k)), x0));
        va = _mm256_add_pd(va, _mm256_mul_pd(_mm256_loadu_pd(s0.as_ptr().add(k + 4)), x1));
        va = _mm256_add_pd(va, _mm256_mul_pd(_mm256_loadu_pd(s0.as_ptr().add(k + 8)), x2));
        vb = _mm256_add_pd(vb, _mm256_mul_pd(_mm256_loadu_pd(s1.as_ptr().add(k)), x0));
        vb = _mm256_add_pd(vb, _mm256_mul_pd(_mm256_loadu_pd(s1.as_ptr().add(k + 4)), x1));
        vb = _mm256_add_pd(vb, _mm256_mul_pd(_mm256_loadu_pd(s1.as_ptr().add(k + 8)), x2));
        vc = _mm256_add_pd(vc, _mm256_mul_pd(_mm256_loadu_pd(s2.as_ptr().add(k)), x0));
        vc = _mm256_add_pd(vc, _mm256_mul_pd(_mm256_loadu_pd(s2.as_ptr().add(k + 4)), x1));
        vc = _mm256_add_pd(vc, _mm256_mul_pd(_mm256_loadu_pd(s2.as_ptr().add(k + 8)), x2));
        j += 4;
    }
    let _ = ngroups;
    let mut k = j * 3;
    if k < n4 {
        // One or two 4-entry lane quads remain before the dot4 tail; their
        // x vectors follow the x0/x1 recipes over the trailing blocks
        // (entry k + 3 < n4 guarantees block j + 1 exists, and k + 7 < n4
        // block j + 2). Keeping these in lanes — instead of the old scalar
        // fallback through memory accumulators — preserves the exact lane
        // order and removes the dominant per-row overhead.
        let ca = *bcols.get_unchecked(j) as usize * 3;
        let cb = *bcols.get_unchecked(j + 1) as usize * 3;
        let xq = _mm256_mask_loadu_pd(
            _mm256_maskz_loadu_pd(0b0111, xp.add(ca)),
            0b1000,
            xp.wrapping_add(cb).wrapping_sub(3),
        );
        va = _mm256_add_pd(va, _mm256_mul_pd(_mm256_loadu_pd(s0.as_ptr().add(k)), xq));
        vb = _mm256_add_pd(vb, _mm256_mul_pd(_mm256_loadu_pd(s1.as_ptr().add(k)), xq));
        vc = _mm256_add_pd(vc, _mm256_mul_pd(_mm256_loadu_pd(s2.as_ptr().add(k)), xq));
        if k + 4 < n4 {
            let cc = *bcols.get_unchecked(j + 2) as usize * 3;
            let xq1 = _mm256_mask_loadu_pd(
                _mm256_maskz_loadu_pd(0b0011, xp.add(cb + 1)),
                0b1100,
                xp.wrapping_add(cc).wrapping_sub(2),
            );
            va = _mm256_add_pd(va, _mm256_mul_pd(_mm256_loadu_pd(s0.as_ptr().add(k + 4)), xq1));
            vb = _mm256_add_pd(vb, _mm256_mul_pd(_mm256_loadu_pd(s1.as_ptr().add(k + 4)), xq1));
            vc = _mm256_add_pd(vc, _mm256_mul_pd(_mm256_loadu_pd(s2.as_ptr().add(k + 4)), xq1));
        }
        k = n4;
    }
    let mut a = [0.0f64; 4];
    let mut b = [0.0f64; 4];
    let mut c = [0.0f64; 4];
    _mm256_storeu_pd(a.as_mut_ptr(), va);
    _mm256_storeu_pd(b.as_mut_ptr(), vb);
    _mm256_storeu_pd(c.as_mut_ptr(), vc);
    let (mut at, mut bt, mut ct) = (0.0f64, 0.0f64, 0.0f64);
    // The dot4 tail: the final n − n4 (< 4) entries, sequentially.
    while k < n {
        let blk = k / 3;
        let xv = *x.get_unchecked(*bcols.get_unchecked(blk) as usize * 3 + k % 3);
        at += *s0.get_unchecked(k) * xv;
        bt += *s1.get_unchecked(k) * xv;
        ct += *s2.get_unchecked(k) * xv;
        k += 1;
    }
    (
        (a[0] + a[1]) + (a[2] + a[3]) + at,
        (b[0] + b[1]) + (b[2] + b[3]) + bt,
        (c[0] + c[1]) + (c[2] + c[3]) + ct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::simd::{set_mode, SimdMode};

    /// Block-dense random matrix: every stored block is fully dense (the
    /// elasticity pattern), so conversion has zero fill.
    fn block_dense(nbr: usize, nbc: usize, b: usize, seed: u64) -> Csr {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(0x94d0_49bb_1331_11eb);
            s
        };
        let mut c = Coo::new(nbr * b, nbc * b);
        for bi in 0..nbr {
            for bj in 0..nbc {
                // Keep the diagonal block plus a pseudo-random ~40% of the rest.
                if bi != bj.min(nbr - 1) && next() % 5 >= 2 {
                    continue;
                }
                for r in 0..b {
                    for cc in 0..b {
                        let v = ((next() >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0;
                        c.push(bi * b + r, bj * b + cc, v);
                    }
                }
            }
        }
        c.to_csr()
    }

    fn dense_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed ^ 0x5851_f42d_4c95_7f2d;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(0x94d0_49bb_1331_11eb);
                ((s >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn round_trip_is_lossless_on_block_dense() {
        for b in [1usize, 2, 3, 4] {
            let a = block_dense(5, 4, b, 42 + b as u64);
            let bsr = Bsr::from_csr(&a, b).unwrap();
            assert_eq!(bsr.fill(), 0, "b={b}");
            assert_eq!(bsr.to_csr(), a, "b={b}");
        }
    }

    #[test]
    fn conversion_with_fill_preserves_entries() {
        // A scalar tridiagonal matrix has ragged 2×2 blocks → fill-in.
        let mut c = Coo::new(6, 6);
        for i in 0..6 {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
            }
            if i + 1 < 6 {
                c.push(i, i + 1, -1.0);
            }
        }
        let a = c.to_csr();
        let bsr = Bsr::from_csr(&a, 2).unwrap();
        assert!(bsr.fill() > 0);
        let back = bsr.to_csr();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(back.get(i, j), a.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn spmv_bitwise_matches_csr_when_no_fill() {
        for b in [2usize, 3, 4] {
            let a = block_dense(7, 7, b, 9 + b as u64);
            let bsr = Bsr::from_csr(&a, b).unwrap();
            assert_eq!(bsr.fill(), 0);
            let _guard = crate::simd::test_mode_lock();
            let x = dense_vec(a.ncols(), 5);
            let mut yc = vec![0.0; a.nrows()];
            let mut yb = vec![0.0; a.nrows()];
            a.spmv(&x, &mut yc);
            for mode in [SimdMode::Off, SimdMode::Auto] {
                set_mode(mode);
                bsr.spmv(&x, &mut yb);
                for i in 0..yc.len() {
                    assert_eq!(yb[i].to_bits(), yc[i].to_bits(), "b={b} row {i} {mode:?}");
                }
            }
            set_mode(SimdMode::Auto);
        }
    }

    #[test]
    fn unaligned_ranges_match_csr() {
        let a = block_dense(6, 6, 3, 77);
        let bsr = Bsr::from_csr(&a, 3).unwrap();
        let x = dense_vec(a.ncols(), 6);
        let n = a.nrows();
        let mut yc = vec![0.0; n];
        let mut yb = vec![0.0; n];
        for range in [0..n, 1..n, 2..n - 1, 4..5, 0..0, 7..14] {
            yc.iter_mut().for_each(|v| *v = -9.0);
            yb.iter_mut().for_each(|v| *v = -9.0);
            a.spmv_rows(range.clone(), &x, &mut yc[range.clone()]);
            bsr.spmv_rows(range.clone(), &x, &mut yb[range.clone()]);
            for i in 0..n {
                assert_eq!(yb[i].to_bits(), yc[i].to_bits(), "range {range:?} row {i}");
            }
        }
    }

    #[test]
    fn residual_and_row_dot_match_csr() {
        let a = block_dense(5, 5, 3, 123);
        let bsr = Bsr::from_csr(&a, 3).unwrap();
        let x = dense_vec(a.ncols(), 1);
        let rhs = dense_vec(a.nrows(), 2);
        let mut rc = vec![0.0; a.nrows()];
        let mut rb = vec![0.0; a.nrows()];
        a.residual(&rhs, &x, &mut rc);
        bsr.residual(&rhs, &x, &mut rb);
        for i in 0..rc.len() {
            assert_eq!(rb[i].to_bits(), rc[i].to_bits(), "row {i}");
            assert_eq!(bsr.row_dot(i, &x).to_bits(), a.row_dot(i, &x).to_bits(), "row {i}");
        }
    }

    #[test]
    fn diag_matches_csr() {
        let a = block_dense(6, 6, 3, 3);
        let bsr = Bsr::from_csr(&a, 3).unwrap();
        let mut db = vec![0.0; a.nrows()];
        bsr.diag_into(&mut db);
        assert_eq!(db, a.diag());
        let blocks = bsr.diag_blocks();
        for bi in 0..2 {
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(blocks[bi * 9 + r * 3 + c], a.get(bi * 3 + r, bi * 3 + c));
                }
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = block_dense(2, 2, 3, 0);
        assert_eq!(Bsr::from_csr(&a, 0).unwrap_err(), BsrError::ZeroBlock);
        assert!(matches!(Bsr::from_csr(&a, 4).unwrap_err(), BsrError::Unaligned { .. }));
        assert!(Bsr::from_csr(&a, 2).is_ok());
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::from_raw(0, 0, vec![0], vec![], vec![]);
        let bsr = Bsr::from_csr(&a, 3).unwrap();
        assert_eq!(bsr.nnz(), 0);
        assert_eq!(bsr.to_csr(), a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coo::Coo;
    use crate::simd::{set_mode, SimdMode};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random block-dense matrix (every stored block fully dense → zero
    /// fill) with the diagonal block always present.
    fn random_block_dense(nbr: usize, nbc: usize, b: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Coo::new(nbr * b, nbc * b);
        for bi in 0..nbr {
            for bj in 0..nbc {
                if bi != bj.min(nbc - 1) && rng.gen_range(0usize..10) >= 4 {
                    continue;
                }
                for r in 0..b {
                    for cc in 0..b {
                        c.push(bi * b + r, bj * b + cc, rng.gen_range(-2.0..2.0));
                    }
                }
            }
        }
        c.to_csr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Satellite: Csr↔Bsr round-trip losslessness on block-aligned
        // matrices (exact ==, not ULP tolerance).
        #[test]
        fn round_trip_lossless(
            nbr in 1usize..8,
            nbc in 1usize..8,
            b in 1usize..5,
            seed in 0u64..1_000_000,
        ) {
            let a = random_block_dense(nbr, nbc, b, seed);
            let bsr = Bsr::from_csr(&a, b).unwrap();
            prop_assert_eq!(bsr.fill(), 0);
            prop_assert_eq!(&bsr.to_csr(), &a);
        }

        // Satellite: BSR spmv/residual bitwise-equal to the CSR kernels on
        // block-aligned matrices, with the SIMD path both off and on.
        #[test]
        fn spmv_bitwise_equals_csr(
            nbr in 1usize..8,
            b in 1usize..5,
            seed in 0u64..1_000_000,
        ) {
            let a = random_block_dense(nbr, nbr, b, seed);
            let bsr = Bsr::from_csr(&a, b).unwrap();
            let _guard = crate::simd::test_mode_lock();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let rhs: Vec<f64> = (0..a.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut yc = vec![0.0; a.nrows()];
            let mut yb = vec![0.0; a.nrows()];
            let mut rc = vec![0.0; a.nrows()];
            let mut rb = vec![0.0; a.nrows()];
            a.spmv(&x, &mut yc);
            a.residual(&rhs, &x, &mut rc);
            for mode in [SimdMode::Off, SimdMode::Auto] {
                set_mode(mode);
                bsr.spmv(&x, &mut yb);
                bsr.residual(&rhs, &x, &mut rb);
                set_mode(SimdMode::Auto);
                for i in 0..a.nrows() {
                    prop_assert_eq!(yb[i].to_bits(), yc[i].to_bits());
                    prop_assert_eq!(rb[i].to_bits(), rc[i].to_bits());
                }
            }
        }
    }
}
