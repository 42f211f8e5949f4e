//! Kernel selection: which storage format executes a level's hot loops.
//!
//! [`KernelSelect`] is the user-facing policy knob (on `AmgOptions` in the
//! `asyncmg-amg` crate); [`Kernel`] is the per-operator dispatch handle the
//! solve loops call through. Every [`Kernel`] method is **bit-identical**
//! across variants — the BSR kernels replay the CSR `dot4` accumulation
//! stream exactly (see [`crate::bsr`]) — so kernel choice affects speed,
//! never results, and deterministic-replay fingerprints are stable across
//! the whole kernel axis.
//!
//! Explicit SIMD is a separate, process-wide axis ([`crate::simd`]): it
//! applies where vector lanes map to rows — the across-row stencil plan
//! behind the CSR range kernels and the AVX-512 3×3 block-row kernel behind
//! the BSR ones — and never to the per-row dot, which is scalar.

use crate::bsr::Bsr;
use crate::csr::Csr;

/// Which kernel layer a solver should use for its per-level operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelSelect {
    /// Always use the scalar-row CSR kernels.
    Csr,
    /// Use BSR wherever applicable (block-aligned, zero fill-in) and CSR
    /// elsewhere. The default.
    #[default]
    Bsr,
}

/// A borrowed view of one operator plus the kernel that should execute it.
///
/// The CSR form is always present (coarsening, transposes, Gauss–Seidel row
/// sweeps and the atomic async kernels all read it); the BSR form rides
/// along when the level installed one. The hot vector kernels — `spmv`,
/// `residual` and their row ranges — dispatch to BSR when available.
#[derive(Clone, Copy)]
pub enum Kernel<'a> {
    /// Scalar-row CSR kernels.
    Csr(&'a Csr),
    /// Blocked kernels over `bsr`, with the CSR twin for everything the
    /// blocked layer does not cover.
    Bsr { csr: &'a Csr, bsr: &'a Bsr },
}

impl<'a> Kernel<'a> {
    /// The CSR form (always available).
    #[inline]
    pub fn csr(&self) -> &'a Csr {
        match self {
            Kernel::Csr(a) => a,
            Kernel::Bsr { csr, .. } => csr,
        }
    }

    /// The BSR form, when this kernel is blocked.
    #[inline]
    pub fn bsr(&self) -> Option<&'a Bsr> {
        match self {
            Kernel::Csr(_) => None,
            Kernel::Bsr { bsr, .. } => Some(bsr),
        }
    }

    /// Stable label for telemetry and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Csr(_) => "csr",
            Kernel::Bsr { .. } => "bsr",
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.csr().nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.csr().ncols()
    }

    /// Stored entries of the CSR form.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.csr().nnz()
    }

    /// `y = A x`.
    #[inline]
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        match self {
            Kernel::Csr(a) => a.spmv(x, y),
            Kernel::Bsr { bsr, .. } => bsr.spmv(x, y),
        }
    }

    /// `y[i − rows.start] = A[i,:]·x` for `i` in `rows`; `y` is the
    /// caller's chunk-local slice (`y.len() == rows.len()`).
    #[inline]
    pub fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        match self {
            Kernel::Csr(a) => a.spmv_rows(rows, x, y),
            Kernel::Bsr { bsr, .. } => bsr.spmv_rows(rows, x, y),
        }
    }

    /// `r = b − A x`.
    #[inline]
    pub fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        match self {
            Kernel::Csr(a) => a.residual(b, x, r),
            Kernel::Bsr { bsr, .. } => bsr.residual(b, x, r),
        }
    }

    /// `r[i − rows.start] = b[i] − A[i,:]·x` for `i` in `rows`; `r` is
    /// chunk-local as in [`Kernel::spmv_rows`], `b` and `x` are full vectors.
    #[inline]
    pub fn residual_rows(&self, rows: std::ops::Range<usize>, b: &[f64], x: &[f64], r: &mut [f64]) {
        match self {
            Kernel::Csr(a) => a.residual_rows(rows, b, x, r),
            Kernel::Bsr { bsr, .. } => bsr.residual_rows(rows, b, x, r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn small_block3() -> Csr {
        let mut c = Coo::new(6, 6);
        for bi in 0..2 {
            for bj in 0..2 {
                for r in 0..3 {
                    for cc in 0..3 {
                        c.push(bi * 3 + r, bj * 3 + cc, (bi + bj + r + cc) as f64 + 0.5);
                    }
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn kernel_variants_agree() {
        let a = small_block3();
        let bsr = Bsr::from_csr(&a, 3).unwrap();
        let kc = Kernel::Csr(&a);
        let kb = Kernel::Bsr { csr: &a, bsr: &bsr };
        assert_eq!(kc.label(), "csr");
        assert_eq!(kb.label(), "bsr");
        assert_eq!(kb.nrows(), 6);
        assert!(kb.bsr().is_some() && kc.bsr().is_none());
        let x: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..6).map(|i| (i as f64).cos()).collect();
        let (mut y0, mut y1) = (vec![0.0; 6], vec![0.0; 6]);
        kc.spmv(&x, &mut y0);
        kb.spmv(&x, &mut y1);
        assert_eq!(y0, y1);
        kc.residual(&b, &x, &mut y0);
        kb.residual(&b, &x, &mut y1);
        assert_eq!(y0, y1);
    }
}

#[cfg(test)]
mod proptests {
    //! The chunk-local output contract of the row-range kernels: for any row
    //! range, `spmv_rows`/`residual_rows` into a `rows.len()`-long `dst`
    //! equal the corresponding slice of `spmv`/`residual` bit for bit — for
    //! [`Csr`] with and without a stencil plan, for [`Bsr`], and through
    //! [`Kernel`] — and a `dst` of any other length is refused.

    use super::*;
    use crate::coo::Coo;
    use crate::simd::{set_mode, test_mode_lock, SimdMode};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Translate-invariant bands with a dirty border: long same-pattern row
    /// runs (the stencil plan applies under SIMD) broken by diagonal-only
    /// rows, so ranges cut runs mid-vector and cross gaps.
    fn banded(n: usize, border: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Coo::new(n, n);
        for i in 0..n {
            if i < border || i + border >= n {
                c.push(i, i, 1.0 + i as f64);
                continue;
            }
            for d in [-5i64, -1, 0, 1, 5] {
                let j = i as i64 + d;
                if (0..n as i64).contains(&j) {
                    c.push(i, j as usize, rng.gen_range(-2.0..2.0));
                }
            }
        }
        c.to_csr()
    }

    /// Block-dense 3×3 pattern (zero fill), the elasticity shape.
    fn block3(nbr: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Coo::new(nbr * 3, nbr * 3);
        for bi in 0..nbr {
            for bj in 0..nbr {
                if bi != bj && rng.gen_range(0usize..10) >= 4 {
                    continue;
                }
                for r in 0..3 {
                    for cc in 0..3 {
                        c.push(bi * 3 + r, bj * 3 + cc, rng.gen_range(-2.0..2.0));
                    }
                }
            }
        }
        c.to_csr()
    }

    fn vector(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Checks every range against the full kernels of `op`, under both SIMD
    /// modes. The `NaN` pre-fill catches a row the kernel skips.
    fn check_ranges(op: Kernel<'_>, ranges: &[std::ops::Range<usize>], seed: u64) {
        let n = op.nrows();
        let x = vector(op.ncols(), seed);
        let b = vector(n, seed ^ 0x5eed);
        let _guard = test_mode_lock();
        for mode in [SimdMode::Off, SimdMode::Auto] {
            set_mode(mode);
            let (mut y, mut r) = (vec![0.0; n], vec![0.0; n]);
            op.spmv(&x, &mut y);
            op.residual(&b, &x, &mut r);
            for rows in ranges {
                let mut dst = vec![f64::NAN; rows.len()];
                op.spmv_rows(rows.clone(), &x, &mut dst);
                for (d, i) in dst.iter().zip(rows.clone()) {
                    assert_eq!(d.to_bits(), y[i].to_bits(), "spmv {rows:?} row {i} {mode:?}");
                }
                dst.fill(f64::NAN);
                op.residual_rows(rows.clone(), &b, &x, &mut dst);
                for (d, i) in dst.iter().zip(rows.clone()) {
                    assert_eq!(d.to_bits(), r[i].to_bits(), "residual {rows:?} row {i} {mode:?}");
                }
            }
        }
        set_mode(SimdMode::Auto);
    }

    /// The random two-cut partition plus the fixed shapes the contract names:
    /// empty, single row, whole matrix.
    fn ranges_of(n: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
        let (mut c0, mut c1) = (cuts[0] % (n + 1), cuts[1] % (n + 1));
        if c0 > c1 {
            std::mem::swap(&mut c0, &mut c1);
        }
        vec![0..c0, c0..c1, c1..n, c0..c0, c0.min(n - 1)..c0.min(n - 1) + 1, 0..n]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn csr_range_kernels_write_chunk_local_slices(
            n in 24usize..120,
            border in 0usize..4,
            cuts in proptest::collection::vec(0usize..120, 2),
            seed in 0u64..1000,
        ) {
            let a = banded(n, border, seed);
            check_ranges(Kernel::Csr(&a), &ranges_of(n, &cuts), seed);
        }

        #[test]
        fn bsr_range_kernels_write_chunk_local_slices(
            nbr in 2usize..12,
            cuts in proptest::collection::vec(0usize..36, 2),
            seed in 0u64..1000,
        ) {
            // Cuts are arbitrary scalar rows, so most are not multiples of 3:
            // head and tail rows of a range leave the block-row kernel.
            let a = block3(nbr, seed);
            let bsr = Bsr::from_csr(&a, 3).unwrap();
            prop_assert_eq!(bsr.fill(), 0);
            check_ranges(Kernel::Bsr { csr: &a, bsr: &bsr }, &ranges_of(a.nrows(), &cuts), seed);
        }
    }

    #[test]
    fn stencil_plan_is_what_the_csr_kernel_test_exercises() {
        if !crate::simd::supported() || !cfg!(target_arch = "x86_64") {
            return;
        }
        let _guard = test_mode_lock();
        set_mode(SimdMode::Auto);
        assert!(banded(64, 3, 1).stencil_stats().is_some());
    }

    #[test]
    #[should_panic(expected = "chunk-local")]
    fn csr_kernel_refuses_a_full_length_dst() {
        let a = banded(32, 0, 1);
        let x = vector(32, 2);
        Kernel::Csr(&a).spmv_rows(8..16, &x, &mut vec![0.0; 32]);
    }

    #[test]
    #[should_panic(expected = "chunk-local")]
    fn bsr_kernel_refuses_a_short_dst() {
        let a = block3(4, 1);
        let bsr = Bsr::from_csr(&a, 3).unwrap();
        let (x, b) = (vector(12, 2), vector(12, 3));
        Kernel::Bsr { csr: &a, bsr: &bsr }.residual_rows(2..9, &b, &x, &mut [0.0; 6]);
    }
}
