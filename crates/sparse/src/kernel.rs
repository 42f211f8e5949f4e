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
    /// Use BSR where it is both applicable (block-aligned, zero fill-in)
    /// and judged profitable by the host calibration (or by the built-in
    /// default of "blocks of 2 or more are worth it" when no calibration
    /// is cached). The default.
    #[default]
    Auto,
    /// Always use the scalar-row CSR kernels.
    Csr,
    /// Use BSR wherever applicable (block-aligned, zero fill-in),
    /// regardless of calibration; falls back to CSR elsewhere.
    Bsr,
}

impl KernelSelect {
    /// Parses the common spellings used by env vars / CLI flags.
    pub fn parse(s: &str) -> Option<KernelSelect> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(KernelSelect::Auto),
            "csr" | "scalar" => Some(KernelSelect::Csr),
            "bsr" | "block" | "blocked" => Some(KernelSelect::Bsr),
            _ => None,
        }
    }

    /// Stable label for bench output and fuzz-case names.
    pub fn label(&self) -> &'static str {
        match self {
            KernelSelect::Auto => "auto",
            KernelSelect::Csr => "csr",
            KernelSelect::Bsr => "bsr",
        }
    }
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

    /// `y[i] = A[i,:]·x` for `i` in `rows`.
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

    /// `r[i] = b[i] − A[i,:]·x` for `i` in `rows`.
    #[inline]
    pub fn residual_rows(&self, rows: std::ops::Range<usize>, b: &[f64], x: &[f64], r: &mut [f64]) {
        match self {
            Kernel::Csr(a) => a.residual_rows(rows, b, x, r),
            Kernel::Bsr { bsr, .. } => bsr.residual_rows(rows, b, x, r),
        }
    }

    /// `A[i,:]·x`.
    #[inline]
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        match self {
            Kernel::Csr(a) => a.row_dot(i, x),
            Kernel::Bsr { bsr, .. } => bsr.row_dot(i, x),
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
        assert_eq!(kc.row_dot(4, &x).to_bits(), kb.row_dot(4, &x).to_bits());
    }

    #[test]
    fn select_parses_and_labels() {
        assert_eq!(KernelSelect::parse("auto"), Some(KernelSelect::Auto));
        assert_eq!(KernelSelect::parse("CSR"), Some(KernelSelect::Csr));
        assert_eq!(KernelSelect::parse("blocked"), Some(KernelSelect::Bsr));
        assert_eq!(KernelSelect::parse("gpu"), None);
        assert_eq!(KernelSelect::default().label(), "auto");
    }
}
