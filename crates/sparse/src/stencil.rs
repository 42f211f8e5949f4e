//! Across-row SIMD SpMV for stencil-structured matrices.
//!
//! The per-row `dot4` kernel cannot use wide vectors profitably on a sparse
//! row: the column indices force gathers (measured 3.4× *slower* than the
//! scalar loop, which is why [`crate::simd::dot4`] is scalar on x86-64), and
//! a 27-point row is only ~27 entries long. Stencil matrices have a much
//! better axis: *consecutive rows share the same column-offset pattern*. On a 3D finite-difference grid,
//! every interior x-line is a maximal run of rows whose columns are
//! `i + o` for a fixed offset list `o` — so lane `l` of a vector can carry
//! row `i + l`, the value loads become contiguous, and the `x` loads become
//! unit-stride vectors instead of gathers.
//!
//! `StencilPlan` (crate-private) detects those runs once per matrix
//! (pattern comparison is
//! translate-invariant: `cols[k] − i` must match) and repacks the run values
//! into lane-plane-major storage (`vals[base + j·stride + r]` holds offset
//! `j` of run-row `r`). The kernels then process up to 8 rows per vector op
//! (AVX-512, with masked tails) or 4 (AVX2 fallback).
//!
//! **Bit-identity.** Lane `l` of every vector op belongs wholly to row
//! `i + l`, and the offset loop walks the row's entries in exactly the
//! scalar [`crate::simd::dot4`] order: entry `k` accumulates into lane
//! accumulator `k mod 4`, the remainder into a separate tail accumulator,
//! combined as `(a0 + a1) + (a2 + a3) + tail`. Each row's result is
//! therefore bit-identical to the scalar path, independent of how a row
//! range is chunked — the proptests in this module and in `csr.rs` pin that
//! down at every lane remainder.
//!
//! The plan is a cache owned by [`Csr`] (built lazily on the first SIMD
//! SpMV, invalidated by value mutation); matrices without enough run
//! structure (Galerkin coarse operators, irregular graphs) get `None` once
//! and keep the per-row path.

use crate::csr::Csr;
use std::ops::Range;

/// Runs shorter than this are not worth the plan bookkeeping.
const MIN_RUN: usize = 4;

/// Lane-group width the value planes are padded to (AVX-512 lanes).
const LANES: usize = 8;

/// One maximal run of consecutive rows sharing a column-offset pattern.
#[derive(Clone, Copy, Debug)]
struct Run {
    /// First row of the run.
    start: u32,
    /// Number of rows.
    len: u32,
    /// Index into the deduplicated pattern table.
    pid: u32,
    /// Element offset of this run's value planes (before the alignment
    /// shift).
    base: u32,
}

/// Precomputed across-row vectorization plan for a stencil-structured CSR
/// matrix. See the module docs for the layout and bit-identity argument.
#[derive(Clone, Debug)]
pub(crate) struct StencilPlan {
    /// Concatenated column-offset patterns (`col − row`, strictly
    /// increasing within a pattern).
    pat_offsets: Vec<i64>,
    /// Pattern `p` occupies `pat_offsets[pat_ptr[p]..pat_ptr[p + 1]]`.
    pat_ptr: Vec<u32>,
    /// Runs in increasing row order, non-overlapping.
    runs: Vec<Run>,
    /// Lane-plane-major value copies: offset `j` of run-row `r` lives at
    /// `vals[shift + base + j·stride + r]` with `stride = len` rounded up
    /// to [`LANES`]. Allocated with a 2·[`LANES`] tail pad so every
    /// (possibly misaligned, range-clipped) vector load stays in bounds.
    vals: Vec<f64>,
    /// Elements to skip so `vals[shift]` sits on a 64-byte boundary; bases
    /// and strides are 8-multiples, so full-group value loads are then
    /// whole cache lines.
    shift: usize,
    /// Rows covered by runs (the rest take the scalar per-row path).
    covered: usize,
}

/// Plan summary for benchmarks and diagnostics; see
/// [`Csr::stencil_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StencilStats {
    /// Distinct column-offset patterns.
    pub patterns: usize,
    /// Maximal same-pattern row runs.
    pub runs: usize,
    /// Rows covered by runs; the remaining rows use the per-row kernel.
    pub covered_rows: usize,
}

impl StencilPlan {
    /// Detects run structure in `a` and builds the plan, or `None` when
    /// runs cover less than half the rows (the repack would cost more than
    /// the kernel saves). Only x86-64 hosts have the vector kernels, so
    /// other targets always get `None`.
    pub(crate) fn build(a: &Csr) -> Option<StencilPlan> {
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = a;
            None
        }
        #[cfg(target_arch = "x86_64")]
        {
            Self::detect(a)
        }
    }

    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn detect(a: &Csr) -> Option<StencilPlan> {
        use std::collections::HashMap;
        let nrows = a.nrows();
        let rp = a.row_ptr();
        let cols = a.col_idx();
        let avals = a.vals();
        let pattern_of = |i: usize| -> &[u32] { &cols[rp[i] as usize..rp[i + 1] as usize] };
        let same_pattern = |i: usize, j: usize| -> bool {
            let (pi, pj) = (pattern_of(i), pattern_of(j));
            pi.len() == pj.len()
                && pi.iter().zip(pj).all(|(&ci, &cj)| ci as i64 - i as i64 == cj as i64 - j as i64)
        };
        let mut pat_offsets = Vec::new();
        let mut pat_ptr = vec![0u32];
        let mut pat_ids: HashMap<Vec<i64>, u32> = HashMap::new();
        let mut runs = Vec::new();
        let mut total = 0usize;
        let mut covered = 0usize;
        let mut i = 0usize;
        while i < nrows {
            let mut end = i + 1;
            while end < nrows && same_pattern(i, end) {
                end += 1;
            }
            let len = end - i;
            if len >= MIN_RUN && rp[i + 1] > rp[i] {
                let key: Vec<i64> = pattern_of(i).iter().map(|&c| c as i64 - i as i64).collect();
                let pid = *pat_ids.entry(key.clone()).or_insert_with(|| {
                    pat_offsets.extend_from_slice(&key);
                    pat_ptr.push(pat_offsets.len() as u32);
                    (pat_ptr.len() - 2) as u32
                });
                let stride = (len + LANES - 1) & !(LANES - 1);
                runs.push(Run { start: i as u32, len: len as u32, pid, base: total as u32 });
                total += key.len() * stride;
                covered += len;
            }
            i = end;
        }
        if covered * 2 < nrows {
            return None;
        }
        // Tail pad: a range-clipped chunk may start at any row offset `r`
        // within a run, so a load of `LANES` values from the last plane can
        // reach `LANES − 1` past `total`; the alignment shift adds up to
        // `LANES − 1` more. Padding zeros contribute `0 · 0` in lanes the
        // store mask drops.
        let mut vals = vec![0.0f64; total + 2 * LANES];
        // `align_offset` on `*const f64` counts elements, not bytes.
        let shift = vals.as_ptr().align_offset(64);
        for &Run { start, len, pid, base } in &runs {
            let (start, len, base) = (start as usize, len as usize, base as usize);
            let m = (pat_ptr[pid as usize + 1] - pat_ptr[pid as usize]) as usize;
            let stride = (len + LANES - 1) & !(LANES - 1);
            for r in 0..len {
                let lo = rp[start + r] as usize;
                for j in 0..m {
                    vals[shift + base + j * stride + r] = avals[lo + j];
                }
            }
        }
        Some(StencilPlan { pat_offsets, pat_ptr, runs, vals, shift, covered })
    }

    /// Plan summary for diagnostics.
    pub(crate) fn stats(&self) -> StencilStats {
        StencilStats {
            patterns: self.pat_ptr.len() - 1,
            runs: self.runs.len(),
            covered_rows: self.covered,
        }
    }

    /// `dst[i − rows.start] = (A x)[i]` for `i` in `rows`, bit-identical to
    /// the scalar per-row path; `dst` is the caller's chunk-local slice.
    ///
    /// Rows inside runs go through the vector kernels (clipped to `rows`);
    /// gap rows fall back to [`Csr::row_dot`]. The caller (`Csr`) has
    /// checked `rows.end ≤ nrows`, `x.len() ≥ ncols`,
    /// `dst.len() == rows.len()`.
    pub(crate) fn spmv_rows(&self, a: &Csr, rows: Range<usize>, x: &[f64], dst: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: plans are only built (see `Csr::stencil_plan`) when
            // `simd::active()`, which requires AVX2; the AVX-512 variant
            // additionally checks its features at runtime.
            if crate::simd::avx512_supported() {
                unsafe { self.spmv_rows_avx512(a, rows, x, dst) }
            } else {
                unsafe { self.spmv_rows_avx2(a, rows, x, dst) }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            // Plans are never built off x86-64, but keep the fallback total.
            for (d, i) in dst.iter_mut().zip(rows) {
                *d = a.row_dot(i, x);
            }
        }
    }

    /// AVX-512 kernel: up to 8 rows per vector op; remainders of ≤ 4 rows
    /// drop to a masked 256-bit block instead of wasting half a zmm.
    ///
    /// # Safety
    /// Requires `avx512f` + `avx512vl`; `rows.end ≤ a.nrows()`,
    /// `x.len() ≥ a.ncols()`, `dst.len() == rows.len()`, and `self` built
    /// from this `a`'s current structure and values.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn spmv_rows_avx512(&self, a: &Csr, rows: Range<usize>, x: &[f64], dst: &mut [f64]) {
        use core::arch::x86_64::*;
        let xp = x.as_ptr();
        // Row `i` lands in `dst[i − first]`.
        let first = rows.start;
        let yp = dst.as_mut_ptr();
        let mut next = rows.start;
        for run in &self.runs {
            let (start, len) = (run.start as usize, run.len as usize);
            if start + len <= rows.start {
                continue;
            }
            if start >= rows.end {
                break;
            }
            let lo = next.max(start);
            let hi = rows.end.min(start + len);
            for i in next..lo {
                dst[i - first] = a.row_dot(i, x);
            }
            next = hi;
            let pid = run.pid as usize;
            let off = &self.pat_offsets[self.pat_ptr[pid] as usize..self.pat_ptr[pid + 1] as usize];
            let m = off.len();
            let m4 = m & !3;
            let stride = (len + LANES - 1) & !(LANES - 1);
            let vp = self.vals.as_ptr().add(self.shift + run.base as usize);
            let mut i = lo;
            while i < hi {
                let r = i - start;
                let cl = (hi - i).min(8);
                if cl <= 4 {
                    let mask: __mmask8 = (1u8 << cl) - 1;
                    let mut a0 = _mm256_setzero_pd();
                    let mut a1 = _mm256_setzero_pd();
                    let mut a2 = _mm256_setzero_pd();
                    let mut a3 = _mm256_setzero_pd();
                    let mut j = 0;
                    while j + 4 <= m4 {
                        let o0 = *off.get_unchecked(j);
                        let o1 = *off.get_unchecked(j + 1);
                        let o2 = *off.get_unchecked(j + 2);
                        let o3 = *off.get_unchecked(j + 3);
                        a0 = _mm256_add_pd(
                            a0,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add(j * stride + r)),
                                _mm256_maskz_loadu_pd(mask, xp.offset(i as isize + o0 as isize)),
                            ),
                        );
                        a1 = _mm256_add_pd(
                            a1,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 1) * stride + r)),
                                _mm256_maskz_loadu_pd(mask, xp.offset(i as isize + o1 as isize)),
                            ),
                        );
                        a2 = _mm256_add_pd(
                            a2,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 2) * stride + r)),
                                _mm256_maskz_loadu_pd(mask, xp.offset(i as isize + o2 as isize)),
                            ),
                        );
                        a3 = _mm256_add_pd(
                            a3,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 3) * stride + r)),
                                _mm256_maskz_loadu_pd(mask, xp.offset(i as isize + o3 as isize)),
                            ),
                        );
                        j += 4;
                    }
                    let mut tv = _mm256_setzero_pd();
                    while j < m {
                        let o = *off.get_unchecked(j);
                        tv = _mm256_add_pd(
                            tv,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add(j * stride + r)),
                                _mm256_maskz_loadu_pd(mask, xp.offset(i as isize + o as isize)),
                            ),
                        );
                        j += 1;
                    }
                    let s = _mm256_add_pd(
                        _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)),
                        tv,
                    );
                    _mm256_mask_storeu_pd(yp.add(i - first), mask, s);
                    i += cl;
                    continue;
                }
                let mask: __mmask8 = if cl == 8 { 0xff } else { (1u8 << cl) - 1 };
                let mut a0 = _mm512_setzero_pd();
                let mut a1 = _mm512_setzero_pd();
                let mut a2 = _mm512_setzero_pd();
                let mut a3 = _mm512_setzero_pd();
                let mut j = 0;
                while j + 4 <= m4 {
                    let o0 = *off.get_unchecked(j);
                    let o1 = *off.get_unchecked(j + 1);
                    let o2 = *off.get_unchecked(j + 2);
                    let o3 = *off.get_unchecked(j + 3);
                    a0 = _mm512_add_pd(
                        a0,
                        _mm512_mul_pd(
                            _mm512_loadu_pd(vp.add(j * stride + r)),
                            _mm512_maskz_loadu_pd(mask, xp.offset(i as isize + o0 as isize)),
                        ),
                    );
                    a1 = _mm512_add_pd(
                        a1,
                        _mm512_mul_pd(
                            _mm512_loadu_pd(vp.add((j + 1) * stride + r)),
                            _mm512_maskz_loadu_pd(mask, xp.offset(i as isize + o1 as isize)),
                        ),
                    );
                    a2 = _mm512_add_pd(
                        a2,
                        _mm512_mul_pd(
                            _mm512_loadu_pd(vp.add((j + 2) * stride + r)),
                            _mm512_maskz_loadu_pd(mask, xp.offset(i as isize + o2 as isize)),
                        ),
                    );
                    a3 = _mm512_add_pd(
                        a3,
                        _mm512_mul_pd(
                            _mm512_loadu_pd(vp.add((j + 3) * stride + r)),
                            _mm512_maskz_loadu_pd(mask, xp.offset(i as isize + o3 as isize)),
                        ),
                    );
                    j += 4;
                }
                let mut tv = _mm512_setzero_pd();
                while j < m {
                    let o = *off.get_unchecked(j);
                    tv = _mm512_add_pd(
                        tv,
                        _mm512_mul_pd(
                            _mm512_loadu_pd(vp.add(j * stride + r)),
                            _mm512_maskz_loadu_pd(mask, xp.offset(i as isize + o as isize)),
                        ),
                    );
                    j += 1;
                }
                let s =
                    _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(a0, a1), _mm512_add_pd(a2, a3)), tv);
                _mm512_mask_storeu_pd(yp.add(i - first), mask, s);
                i += 8;
            }
        }
        for i in next..rows.end {
            dst[i - first] = a.row_dot(i, x);
        }
    }

    /// AVX2 fallback: 4 rows per vector op, `vmaskmovpd` for the
    /// fault-suppressed `x` loads and masked stores of partial chunks.
    ///
    /// # Safety
    /// Requires `avx2`; preconditions as in [`Self::spmv_rows_avx512`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn spmv_rows_avx2(&self, a: &Csr, rows: Range<usize>, x: &[f64], dst: &mut [f64]) {
        use core::arch::x86_64::*;
        let xp = x.as_ptr();
        // Row `i` lands in `dst[i − first]`.
        let first = rows.start;
        let yp = dst.as_mut_ptr();
        let mut next = rows.start;
        for run in &self.runs {
            let (start, len) = (run.start as usize, run.len as usize);
            if start + len <= rows.start {
                continue;
            }
            if start >= rows.end {
                break;
            }
            let lo = next.max(start);
            let hi = rows.end.min(start + len);
            for i in next..lo {
                dst[i - first] = a.row_dot(i, x);
            }
            next = hi;
            let pid = run.pid as usize;
            let off = &self.pat_offsets[self.pat_ptr[pid] as usize..self.pat_ptr[pid + 1] as usize];
            let m = off.len();
            let m4 = m & !3;
            let stride = (len + LANES - 1) & !(LANES - 1);
            let vp = self.vals.as_ptr().add(self.shift + run.base as usize);
            let mut i = lo;
            while i < hi {
                let r = i - start;
                let cl = (hi - i).min(4);
                // Lanes `cl..4` are masked: `vmaskmovpd` suppresses their
                // faults and reads them as zero, the store drops them.
                let mask = match cl {
                    4 => _mm256_set1_epi64x(-1),
                    3 => _mm256_setr_epi64x(-1, -1, -1, 0),
                    2 => _mm256_setr_epi64x(-1, -1, 0, 0),
                    _ => _mm256_setr_epi64x(-1, 0, 0, 0),
                };
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                let mut a2 = _mm256_setzero_pd();
                let mut a3 = _mm256_setzero_pd();
                let mut j = 0;
                while j + 4 <= m4 {
                    let o0 = *off.get_unchecked(j);
                    let o1 = *off.get_unchecked(j + 1);
                    let o2 = *off.get_unchecked(j + 2);
                    let o3 = *off.get_unchecked(j + 3);
                    if cl == 4 {
                        a0 = _mm256_add_pd(
                            a0,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add(j * stride + r)),
                                _mm256_loadu_pd(xp.offset(i as isize + o0 as isize)),
                            ),
                        );
                        a1 = _mm256_add_pd(
                            a1,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 1) * stride + r)),
                                _mm256_loadu_pd(xp.offset(i as isize + o1 as isize)),
                            ),
                        );
                        a2 = _mm256_add_pd(
                            a2,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 2) * stride + r)),
                                _mm256_loadu_pd(xp.offset(i as isize + o2 as isize)),
                            ),
                        );
                        a3 = _mm256_add_pd(
                            a3,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 3) * stride + r)),
                                _mm256_loadu_pd(xp.offset(i as isize + o3 as isize)),
                            ),
                        );
                    } else {
                        a0 = _mm256_add_pd(
                            a0,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add(j * stride + r)),
                                _mm256_maskload_pd(xp.offset(i as isize + o0 as isize), mask),
                            ),
                        );
                        a1 = _mm256_add_pd(
                            a1,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 1) * stride + r)),
                                _mm256_maskload_pd(xp.offset(i as isize + o1 as isize), mask),
                            ),
                        );
                        a2 = _mm256_add_pd(
                            a2,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 2) * stride + r)),
                                _mm256_maskload_pd(xp.offset(i as isize + o2 as isize), mask),
                            ),
                        );
                        a3 = _mm256_add_pd(
                            a3,
                            _mm256_mul_pd(
                                _mm256_loadu_pd(vp.add((j + 3) * stride + r)),
                                _mm256_maskload_pd(xp.offset(i as isize + o3 as isize), mask),
                            ),
                        );
                    }
                    j += 4;
                }
                let mut tv = _mm256_setzero_pd();
                while j < m {
                    let o = *off.get_unchecked(j);
                    let xv = if cl == 4 {
                        _mm256_loadu_pd(xp.offset(i as isize + o as isize))
                    } else {
                        _mm256_maskload_pd(xp.offset(i as isize + o as isize), mask)
                    };
                    tv = _mm256_add_pd(
                        tv,
                        _mm256_mul_pd(_mm256_loadu_pd(vp.add(j * stride + r)), xv),
                    );
                    j += 1;
                }
                let s =
                    _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)), tv);
                _mm256_maskstore_pd(yp.add(i - first), mask, s);
                i += cl;
            }
        }
        for i in next..rows.end {
            dst[i - first] = a.row_dot(i, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::coo::Coo;
    use crate::csr::Csr;
    use crate::simd::{set_mode, test_mode_lock, SimdMode};
    use proptest::prelude::*;

    /// 27-point stencil on an `n³` grid: the run-rich operator the plan is
    /// built for (every interior x-line is one run).
    fn twenty_seven_pt(n: usize) -> Csr {
        let id = |i: usize, j: usize, k: usize| i * n * n + j * n + k;
        let mut c = Coo::new(n * n * n, n * n * n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    for di in -1i64..=1 {
                        for dj in -1i64..=1 {
                            for dk in -1i64..=1 {
                                let (ii, jj, kk) = (i as i64 + di, j as i64 + dj, k as i64 + dk);
                                if ii < 0
                                    || jj < 0
                                    || kk < 0
                                    || ii >= n as i64
                                    || jj >= n as i64
                                    || kk >= n as i64
                                {
                                    continue;
                                }
                                let w = if (di, dj, dk) == (0, 0, 0) { 26.0 } else { -1.0 };
                                c.push(
                                    id(i, j, k),
                                    id(ii as usize, jj as usize, kk as usize),
                                    w + 0.01 * (id(i, j, k) % 7) as f64,
                                );
                            }
                        }
                    }
                }
            }
        }
        c.to_csr()
    }

    fn dense_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(0x94d0_49bb_1331_11eb);
                ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn plan_detected_on_stencil_not_on_irregular() {
        if !crate::simd::supported() || !cfg!(target_arch = "x86_64") {
            return;
        }
        let _guard = test_mode_lock();
        let a = twenty_seven_pt(6);
        set_mode(SimdMode::Off);
        assert!(a.stencil_stats().is_none(), "no plan while SIMD is off");
        set_mode(SimdMode::Auto);
        let stats = a.stencil_stats().expect("27pt must be stencil-structured");
        // Every x-line interior (n − 2 of n rows) is covered.
        assert!(stats.covered_rows * 2 >= a.nrows());
        assert!(stats.runs >= 36, "one run per x-line at least");
        // Irregular row lengths defeat run detection.
        let mut c = Coo::new(64, 64);
        for i in 0..64usize {
            c.push(i, i, 4.0);
            for d in 1..=(i % 5) {
                if i >= d {
                    c.push(i, i - d, -1.0);
                }
            }
        }
        assert!(c.to_csr().stencil_stats().is_none());
    }

    #[test]
    fn stencil_spmv_and_residual_bit_identical_to_scalar() {
        let _guard = test_mode_lock();
        for n in [4usize, 5, 6] {
            let a = twenty_seven_pt(n);
            let x = dense_vec(a.ncols(), n as u64);
            let b = dense_vec(a.nrows(), n as u64 + 17);
            let nr = a.nrows();
            let (mut y0, mut y1) = (vec![0.0; nr], vec![0.0; nr]);
            let (mut r0, mut r1) = (vec![0.0; nr], vec![0.0; nr]);
            set_mode(SimdMode::Off);
            a.spmv(&x, &mut y0);
            a.residual(&b, &x, &mut r0);
            set_mode(SimdMode::Auto);
            a.spmv(&x, &mut y1);
            a.residual(&b, &x, &mut r1);
            for i in 0..nr {
                assert_eq!(y1[i].to_bits(), y0[i].to_bits(), "spmv n={n} row {i}");
                assert_eq!(r1[i].to_bits(), r0[i].to_bits(), "residual n={n} row {i}");
            }
        }
    }

    /// Row-range clipping at every lane remainder: chunk boundaries landing
    /// anywhere inside a run (offsets 0..=8 from either end) must not change
    /// a single bit of any row.
    #[test]
    fn clipped_ranges_bit_identical_at_every_remainder() {
        let _guard = test_mode_lock();
        let a = twenty_seven_pt(5);
        let nr = a.nrows();
        let x = dense_vec(a.ncols(), 3);
        let mut reference = vec![0.0; nr];
        set_mode(SimdMode::Off);
        a.spmv(&x, &mut reference);
        set_mode(SimdMode::Auto);
        let mut y = vec![0.0; nr];
        for split in 0..=16usize {
            let mid = (nr / 3 + split).min(nr);
            y.iter_mut().for_each(|v| *v = f64::NAN);
            a.spmv_rows(0..mid, &x, &mut y[..mid]);
            a.spmv_rows(mid..nr, &x, &mut y[mid..]);
            for i in 0..nr {
                assert_eq!(y[i].to_bits(), reference[i].to_bits(), "split {split} row {i}");
            }
        }
        // Narrow windows: every width 1..=9 at every alignment near a run.
        for start in 40..56usize {
            for w in 1..=9usize {
                let end = (start + w).min(nr);
                y.iter_mut().for_each(|v| *v = f64::NAN);
                a.spmv_rows(start..end, &x, &mut y[start..end]);
                for i in start..end {
                    assert_eq!(
                        y[i].to_bits(),
                        reference[i].to_bits(),
                        "win {start}..{end} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn value_mutation_invalidates_plan() {
        let _guard = test_mode_lock();
        let mut a = twenty_seven_pt(4);
        let x = dense_vec(a.ncols(), 9);
        let nr = a.nrows();
        let mut y = vec![0.0; nr];
        set_mode(SimdMode::Auto);
        a.spmv(&x, &mut y); // builds and uses the plan
        for v in a.vals_mut() {
            *v *= 2.0; // must drop the stale repack
        }
        let mut y2 = vec![0.0; nr];
        a.spmv(&x, &mut y2);
        set_mode(SimdMode::Off);
        let mut yref = vec![0.0; nr];
        a.spmv(&x, &mut yref);
        set_mode(SimdMode::Auto);
        for i in 0..nr {
            assert_eq!(y2[i].to_bits(), yref[i].to_bits(), "row {i}");
            assert_eq!(y2[i].to_bits(), (2.0 * y[i]).to_bits(), "doubling row {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random banded matrices (translate-invariant bands, so runs of
        /// every remainder class arise) with random dirty borders: the
        /// planned path must be bit-identical to scalar on every row and
        /// for an arbitrary two-cut range partition.
        #[test]
        fn planned_spmv_bit_identical_on_random_bands(
            nrows in 16usize..96,
            band_vec in proptest::collection::vec(-6i64..=6, 1..=5),
            border in 0usize..4,
            cuts in proptest::collection::vec(0usize..96, 2),
            seed in 0u64..1000,
        ) {
            let bands: std::collections::BTreeSet<i64> = band_vec.iter().copied().collect();
            let mut c = Coo::new(nrows, nrows);
            for i in 0..nrows {
                // Dirty border rows break the leading/trailing runs so the
                // clip logic sees gaps; they get a diagonal only.
                if i < border || i + border > nrows {
                    c.push(i, i, 1.0 + i as f64);
                    continue;
                }
                for &b in &bands {
                    let j = i as i64 + b;
                    if (0..nrows as i64).contains(&j) {
                        c.push(i, j as usize, 0.1 + ((i * 31 + j as usize) % 13) as f64);
                    }
                }
                if !bands.contains(&0) {
                    c.push(i, i, 3.0);
                }
            }
            let a = c.to_csr();
            let x = dense_vec(nrows, seed);
            let _guard = test_mode_lock();
            set_mode(SimdMode::Off);
            let mut yref = vec![0.0; nrows];
            a.spmv(&x, &mut yref);
            set_mode(SimdMode::Auto);
            let mut y = vec![0.0; nrows];
            a.spmv(&x, &mut y);
            let (mut c0, mut c1) = (cuts[0] % (nrows + 1), cuts[1] % (nrows + 1));
            if c0 > c1 {
                std::mem::swap(&mut c0, &mut c1);
            }
            let mut yp = vec![0.0; nrows];
            a.spmv_rows(0..c0, &x, &mut yp[..c0]);
            a.spmv_rows(c0..c1, &x, &mut yp[c0..c1]);
            a.spmv_rows(c1..nrows, &x, &mut yp[c1..]);
            for i in 0..nrows {
                prop_assert_eq!(y[i].to_bits(), yref[i].to_bits(), "full row {}", i);
                prop_assert_eq!(yp[i].to_bits(), yref[i].to_bits(), "split row {}", i);
            }
        }
    }
}
