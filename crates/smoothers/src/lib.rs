//! Multigrid smoothers (Section V of the paper).
//!
//! Four smoothers are implemented, matching the paper's experimental set:
//!
//! * **ω-Jacobi** — `M = D/ω`,
//! * **ℓ1-Jacobi** — `M_ii = Σ_j |a_ij|`; guarantees monotone A-norm error
//!   decay for SPD matrices,
//! * **hybrid Jacobi–Gauss-Seidel** — block Jacobi with one forward
//!   Gauss-Seidel sweep inside each (thread-owned) block,
//! * **asynchronous Gauss-Seidel** — the same block structure, but executed
//!   by concurrent threads that write each relaxed value to shared memory
//!   immediately (Equation 5's asynchronous model); in a sequential setting
//!   it coincides with hybrid JGS.
//!
//! [`LevelSmoother`] precomputes diagonals and block ranges for one level.
//! Sequential kernels serve the synchronous solvers and the simulation
//! models; block kernels plus [`async_gs_sweep`] serve the thread-team
//! implementations.

// Indexed loops over multiple parallel arrays are the house style for
// numerical kernels; the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod chaotic;

use asyncmg_sparse::{AtomicF64Vec, Csr, Kernel};
use asyncmg_threads::chunk_range;

/// Smoother selection, with parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SmootherKind {
    /// Weighted Jacobi with weight ω.
    WJacobi {
        /// The damping weight.
        omega: f64,
    },
    /// ℓ1-Jacobi.
    L1Jacobi,
    /// Hybrid Jacobi–Gauss-Seidel with one sweep per block.
    HybridJgs,
    /// Asynchronous Gauss-Seidel (hybrid JGS executed asynchronously).
    AsyncGs,
}

impl SmootherKind {
    /// Short name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SmootherKind::WJacobi { .. } => "w-Jacobi",
            SmootherKind::L1Jacobi => "l1-Jacobi",
            SmootherKind::HybridJgs => "hybrid JGS",
            SmootherKind::AsyncGs => "async GS",
        }
    }
}

/// A smoother bound to one level's matrix: precomputed weights and block
/// layout.
#[derive(Clone, Debug)]
pub struct LevelSmoother {
    kind: SmootherKind,
    /// `M⁻¹` diagonal for the Jacobi variants (`ω/a_ii` or `1/Σ|a_ij|`);
    /// `1/a_ii` for the GS variants.
    weight: Vec<f64>,
    /// Raw diagonal (for the symmetrized application).
    diag: Vec<f64>,
    /// Contiguous row blocks, one per (modelled) thread.
    blocks: Vec<std::ops::Range<usize>>,
}

impl LevelSmoother {
    /// Builds a smoother for matrix `a` with `nblocks` thread blocks
    /// (relevant for the GS variants; ignored by the Jacobi variants).
    pub fn new(a: &Csr, kind: SmootherKind, nblocks: usize) -> Self {
        Self::with_diag(a, &a.diag(), kind, nblocks)
    }

    /// As [`LevelSmoother::new`], but reusing a precomputed main diagonal of
    /// `a` — hierarchies cache one per level, so per-solve smoother
    /// construction stops re-searching the matrix.
    pub fn with_diag(a: &Csr, diag: &[f64], kind: SmootherKind, nblocks: usize) -> Self {
        let n = a.nrows();
        assert_eq!(diag.len(), n);
        let weight: Vec<f64> = match kind {
            SmootherKind::WJacobi { omega } => {
                diag.iter().map(|&d| if d != 0.0 { omega / d } else { 0.0 }).collect()
            }
            SmootherKind::L1Jacobi => {
                a.l1_row_norms().iter().map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 }).collect()
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                diag.iter().map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 }).collect()
            }
        };
        let nb = nblocks.max(1).min(n.max(1));
        let blocks = (0..nb).map(|b| chunk_range(n, nb, b)).collect();
        LevelSmoother { kind, weight, diag: diag.to_vec(), blocks }
    }

    /// The smoother kind.
    pub fn kind(&self) -> SmootherKind {
        self.kind
    }

    /// The block ranges (one per modelled thread).
    pub fn blocks(&self) -> &[std::ops::Range<usize>] {
        &self.blocks
    }

    /// One sweep from a zero initial guess: `e = Λ r` (sequential).
    pub fn apply_zero(&self, a: &Csr, r: &[f64], e: &mut [f64]) {
        self.apply_zero_op(Kernel::Csr(a), r, e);
    }

    /// [`Self::apply_zero`] through a [`Kernel`] handle. The Gauss-Seidel
    /// variants always sweep the scalar CSR rows (their forward solves are
    /// inherently row-serial); results are bit-identical either way.
    pub fn apply_zero_op(&self, a: Kernel<'_>, r: &[f64], e: &mut [f64]) {
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                for i in 0..r.len() {
                    e[i] = self.weight[i] * r[i];
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                for b in 0..self.blocks.len() {
                    self.apply_zero_block(a.csr(), r, e, b);
                }
            }
        }
    }

    /// One block of `apply_zero` (GS variants): forward solve with the block
    /// lower triangle, zero initial guess. Rows outside `block` are not
    /// touched and treated as zero.
    fn apply_zero_block(&self, a: &Csr, r: &[f64], e: &mut [f64], block: usize) {
        let range = self.blocks[block].clone();
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                for i in range {
                    e[i] = self.weight[i] * r[i];
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                let start = range.start;
                for i in range {
                    let (cols, vals) = a.row(i);
                    let mut acc = r[i];
                    for (&j, &v) in cols.iter().zip(vals) {
                        let ju = j as usize;
                        if ju >= start && ju < i {
                            acc -= v * e[ju];
                        }
                    }
                    e[i] = acc * self.weight[i];
                }
            }
        }
    }

    /// One in-place relaxation `x ← x + M⁻¹ (b − A x)` (sequential).
    ///
    /// `buf` must have length `n`; it holds the residual (Jacobi) or the
    /// sweep-start iterate (hybrid JGS, where off-block values are read from
    /// the start of the sweep, modelling concurrent block execution).
    pub fn relax(&self, a: &Csr, b: &[f64], x: &mut [f64], buf: &mut [f64]) {
        self.relax_op(Kernel::Csr(a), b, x, buf);
    }

    /// [`Self::relax`] through a [`Kernel`] handle: the Jacobi variants'
    /// residual SpMV dispatches to the blocked kernel when one is installed
    /// (bit-identical by construction); the Gauss-Seidel sweeps stay on the
    /// scalar CSR rows.
    pub fn relax_op(&self, a: Kernel<'_>, b: &[f64], x: &mut [f64], buf: &mut [f64]) {
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                a.residual(b, x, buf);
                for i in 0..x.len() {
                    x[i] += self.weight[i] * buf[i];
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                let a = a.csr();
                buf.copy_from_slice(x);
                for range in &self.blocks {
                    let start = range.start;
                    let end = range.end;
                    for i in range.clone() {
                        let (cols, vals) = a.row(i);
                        let mut acc = b[i];
                        for (&j, &v) in cols.iter().zip(vals) {
                            let ju = j as usize;
                            // In-block, already-relaxed rows read the new
                            // value; everything else reads the sweep-start
                            // value.
                            if ju >= start && ju < end && ju < i {
                                acc -= v * x[ju];
                            } else if ju != i {
                                acc -= v * buf[ju];
                            }
                        }
                        x[i] = acc * self.weight[i];
                    }
                }
            }
        }
    }

    /// Multi-RHS [`Self::apply_zero`]: one zero-guess sweep per column of the
    /// `nrhs`-column block `r` into `e` (column-major; column `c` occupies
    /// `[c·n, (c+1)·n)`).
    ///
    /// Each column relaxes in exactly the single-RHS order — the GS forward
    /// solves share each row's `(cols, vals)` slices across columns but keep
    /// per-column accumulators — so column `c` is bit-identical to
    /// `apply_zero` on that column alone.
    pub fn apply_zero_multi(&self, a: &Csr, nrhs: usize, r: &[f64], e: &mut [f64]) {
        let n = self.weight.len();
        debug_assert_eq!(r.len(), n * nrhs);
        debug_assert_eq!(e.len(), n * nrhs);
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                for c in 0..nrhs {
                    let base = c * n;
                    for i in 0..n {
                        e[base + i] = self.weight[i] * r[base + i];
                    }
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                for range in &self.blocks {
                    let start = range.start;
                    for i in range.clone() {
                        let (cols, vals) = a.row(i);
                        for c in 0..nrhs {
                            let base = c * n;
                            let mut acc = r[base + i];
                            for (&j, &v) in cols.iter().zip(vals) {
                                let ju = j as usize;
                                if ju >= start && ju < i {
                                    acc -= v * e[base + ju];
                                }
                            }
                            e[base + i] = acc * self.weight[i];
                        }
                    }
                }
            }
        }
    }

    /// Multi-RHS [`Self::relax`]: one in-place relaxation per column of the
    /// `nrhs`-column blocks `b`/`x` (layout as in [`Self::apply_zero_multi`]).
    /// `buf` must have length `n · nrhs`.
    ///
    /// Column `c` is bit-identical to `relax` on that column alone: the
    /// Jacobi variants compute the full blocked residual first (per-column
    /// `dot4` order) and then update, and the GS variants read sweep-start
    /// values from the per-column snapshot exactly as the single-RHS kernel
    /// does.
    pub fn relax_multi(&self, a: &Csr, nrhs: usize, b: &[f64], x: &mut [f64], buf: &mut [f64]) {
        let n = self.weight.len();
        debug_assert_eq!(b.len(), n * nrhs);
        debug_assert_eq!(x.len(), n * nrhs);
        debug_assert_eq!(buf.len(), n * nrhs);
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                a.residual_block(nrhs, b, x, buf);
                for c in 0..nrhs {
                    let base = c * n;
                    for i in 0..n {
                        x[base + i] += self.weight[i] * buf[base + i];
                    }
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                buf.copy_from_slice(x);
                for range in &self.blocks {
                    let start = range.start;
                    let end = range.end;
                    for i in range.clone() {
                        let (cols, vals) = a.row(i);
                        for c in 0..nrhs {
                            let base = c * n;
                            let mut acc = b[base + i];
                            for (&j, &v) in cols.iter().zip(vals) {
                                let ju = j as usize;
                                if ju >= start && ju < end && ju < i {
                                    acc -= v * x[base + ju];
                                } else if ju != i {
                                    acc -= v * buf[base + ju];
                                }
                            }
                            x[base + i] = acc * self.weight[i];
                        }
                    }
                }
            }
        }
    }

    /// `M⁻¹` diagonal weights (`ω/a_ii`, `1/Σ|a_ij|`, or `1/a_ii`).
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }

    /// The diagonal of the smoothing matrix `M` at row `i`.
    pub fn m_diagonal(&self, i: usize) -> f64 {
        self.m_diag(i)
    }

    /// [`Self::apply_zero_range`] through a [`Kernel`] handle. Both branches
    /// are row-local (diagonal scaling or a block-triangular solve), so this
    /// always runs on the scalar CSR rows; it exists so kernel-dispatching
    /// callers need not unwrap the handle themselves.
    pub fn apply_zero_range_op(
        &self,
        a: Kernel<'_>,
        r: &[f64],
        e_block: &mut [f64],
        range: std::ops::Range<usize>,
    ) {
        self.apply_zero_range(a.csr(), r, e_block, range);
    }

    /// Team-parallel form of one block of [`Self::apply_zero`], writing into the
    /// caller's *block-local* slice `e_block` (`e_block.len() == range.len()`,
    /// holding rows `range`). For the GS variants, `range` must be one of the
    /// smoother's block ranges so the forward solve stays inside the slice.
    pub fn apply_zero_range(
        &self,
        a: &Csr,
        r: &[f64],
        e_block: &mut [f64],
        range: std::ops::Range<usize>,
    ) {
        debug_assert_eq!(e_block.len(), range.len());
        let start = range.start;
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                for i in range {
                    e_block[i - start] = self.weight[i] * r[i];
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                for i in range {
                    let (cols, vals) = a.row(i);
                    let mut acc = r[i];
                    for (&j, &v) in cols.iter().zip(vals) {
                        let ju = j as usize;
                        if ju >= start && ju < i {
                            acc -= v * e_block[ju - start];
                        }
                    }
                    e_block[i - start] = acc * self.weight[i];
                }
            }
        }
    }

    /// Team-parallel in-place relaxation over one block: rows `range` of the
    /// new iterate are written into `x_block` (block-local slice), reading
    /// already-relaxed in-block values from `x_block` and everything else
    /// from the sweep-start snapshot `x_old`.
    pub fn relax_range(
        &self,
        a: &Csr,
        b: &[f64],
        x_block: &mut [f64],
        x_old: &[f64],
        range: std::ops::Range<usize>,
    ) {
        self.relax_range_op(Kernel::Csr(a), b, x_block, x_old, range);
    }

    /// [`Self::relax_range`] through a [`Kernel`] handle: the Jacobi
    /// variants compute their residual rows with one range-kernel call
    /// straight into `x_block` (BSR block rows or the stencil plan where the
    /// level has them, bit-identical either way) and apply the weighted
    /// update in place; the Gauss-Seidel sweeps stay on CSR rows.
    pub fn relax_range_op(
        &self,
        a: Kernel<'_>,
        b: &[f64],
        x_block: &mut [f64],
        x_old: &[f64],
        range: std::ops::Range<usize>,
    ) {
        debug_assert_eq!(x_block.len(), range.len());
        let start = range.start;
        let end = range.end;
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                a.residual_rows(range.clone(), b, x_old, x_block);
                for (xb, i) in x_block.iter_mut().zip(range) {
                    *xb = x_old[i] + self.weight[i] * *xb;
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                let a = a.csr();
                for i in range {
                    let (cols, vals) = a.row(i);
                    let mut acc = b[i];
                    for (&j, &v) in cols.iter().zip(vals) {
                        let ju = j as usize;
                        if ju >= start && ju < end && ju < i {
                            acc -= v * x_block[ju - start];
                        } else if ju != i {
                            acc -= v * x_old[ju];
                        }
                    }
                    x_block[i - start] = acc * self.weight[i];
                }
            }
        }
    }

    /// The symmetrized Multadd operator `Λ = M̄⁻¹ = M⁻ᵀ (M + Mᵀ − A) M⁻¹`
    /// applied to `r` (Jacobi variants; the GS variants use
    /// [`Self::apply_zero`] as the paper's block-diagonal `Λ̄`).
    ///
    /// `buf` must have length `n`.
    pub fn multadd_lambda(&self, a: &Csr, r: &[f64], y: &mut [f64], buf: &mut [f64]) {
        self.multadd_lambda_op(Kernel::Csr(a), r, y, buf);
    }

    /// [`Self::multadd_lambda`] through a [`Kernel`] handle (the interior
    /// `A t` product dispatches to the blocked kernel when installed).
    pub fn multadd_lambda_op(&self, a: Kernel<'_>, r: &[f64], y: &mut [f64], buf: &mut [f64]) {
        match self.kind {
            SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi => {
                // t = M⁻¹ r.
                for i in 0..r.len() {
                    y[i] = self.weight[i] * r[i];
                }
                // buf = (M + Mᵀ − A) t = 2 M t − A t  (M diagonal).
                a.spmv(y, buf);
                for i in 0..r.len() {
                    let m_ii = self.m_diag(i);
                    buf[i] = 2.0 * m_ii * y[i] - buf[i];
                }
                // y = M⁻ᵀ buf = M⁻¹ buf.
                for i in 0..r.len() {
                    y[i] = self.weight[i] * buf[i];
                }
            }
            SmootherKind::HybridJgs | SmootherKind::AsyncGs => {
                self.apply_zero_op(a, r, y);
            }
        }
    }

    /// The diagonal of the smoothing matrix `M`.
    fn m_diag(&self, i: usize) -> f64 {
        if self.weight[i] != 0.0 {
            1.0 / self.weight[i]
        } else {
            self.diag[i]
        }
    }
}

/// One asynchronous Gauss-Seidel sweep over `block`, reading and writing the
/// shared iterate `x` element-wise (Equation 5): each relaxed value is
/// published immediately, and neighbouring values may be any mix of old and
/// new.
pub fn async_gs_sweep(
    a: &Csr,
    b: &[f64],
    x: &AtomicF64Vec,
    inv_diag: &[f64],
    block: std::ops::Range<usize>,
) {
    for i in block {
        let (cols, vals) = a.row(i);
        let mut acc = b[i];
        for (&j, &v) in cols.iter().zip(vals) {
            let ju = j as usize;
            if ju != i {
                acc -= v * x.load(ju);
            }
        }
        x.store(i, acc * inv_diag[i]);
    }
}

/// Inverse diagonal of `a` (helper for [`async_gs_sweep`]).
pub fn inv_diag(a: &Csr) -> Vec<f64> {
    a.diag().iter().map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmg_problems::stencil::laplacian_7pt;
    use asyncmg_sparse::vecops;

    fn residual_norm(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.residual(b, x, &mut r);
        vecops::norm2(&r)
    }

    fn test_problem() -> (Csr, Vec<f64>) {
        let a = laplacian_7pt(6, 6, 6);
        let b = asyncmg_problems::rhs::random_rhs(a.nrows(), 42);
        (a, b)
    }

    #[test]
    fn all_smoothers_reduce_residual() {
        let (a, b) = test_problem();
        for kind in [
            SmootherKind::WJacobi { omega: 0.9 },
            SmootherKind::L1Jacobi,
            SmootherKind::HybridJgs,
            SmootherKind::AsyncGs,
        ] {
            let sm = LevelSmoother::new(&a, kind, 4);
            let mut x = vec![0.0; a.nrows()];
            let mut buf = vec![0.0; a.nrows()];
            let r0 = residual_norm(&a, &b, &x);
            for _ in 0..10 {
                sm.relax(&a, &b, &mut x, &mut buf);
            }
            let r1 = residual_norm(&a, &b, &x);
            assert!(r1 < 0.5 * r0, "{}: {r0} -> {r1}", kind.name());
        }
    }

    #[test]
    fn jacobi_apply_zero_is_scaled_residual() {
        let (a, b) = test_problem();
        let sm = LevelSmoother::new(&a, SmootherKind::WJacobi { omega: 0.9 }, 1);
        let mut e = vec![0.0; a.nrows()];
        sm.apply_zero(&a, &b, &mut e);
        let d = a.diag();
        for i in 0..a.nrows() {
            assert!((e[i] - 0.9 * b[i] / d[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn l1_weights_are_l1_norms() {
        let (a, _) = test_problem();
        let sm = LevelSmoother::new(&a, SmootherKind::L1Jacobi, 1);
        let l1 = a.l1_row_norms();
        let r = vec![1.0; a.nrows()];
        let mut e = vec![0.0; a.nrows()];
        sm.apply_zero(&a, &r, &mut e);
        for i in 0..a.nrows() {
            assert!((e[i] - 1.0 / l1[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn hybrid_one_block_is_plain_gs_solve() {
        // With a single block, apply_zero solves L e = r exactly.
        let (a, b) = test_problem();
        let sm = LevelSmoother::new(&a, SmootherKind::HybridJgs, 1);
        let mut e = vec![0.0; a.nrows()];
        sm.apply_zero(&a, &b, &mut e);
        // Verify L e = r row by row.
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                if (j as usize) <= i {
                    acc += v * e[j as usize];
                }
            }
            assert!((acc - b[i]).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn hybrid_blocks_only_couple_within_block() {
        let (a, b) = test_problem();
        let nb = 8;
        let sm = LevelSmoother::new(&a, SmootherKind::HybridJgs, nb);
        let mut e = vec![0.0; a.nrows()];
        sm.apply_zero(&a, &b, &mut e);
        // Computing each block independently must give the same answer.
        let mut e2 = vec![0.0; a.nrows()];
        for blk in (0..nb).rev() {
            sm.apply_zero_block(&a, &b, &mut e2, blk);
        }
        for i in 0..a.nrows() {
            assert!((e[i] - e2[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn symmetrized_lambda_is_symmetric_operator() {
        // ⟨Λ u, v⟩ = ⟨u, Λ v⟩ for the symmetrized Jacobi operator.
        let (a, _) = test_problem();
        let n = a.nrows();
        let sm = LevelSmoother::new(&a, SmootherKind::WJacobi { omega: 0.9 }, 1);
        let u = asyncmg_problems::rhs::random_rhs(n, 1);
        let v = asyncmg_problems::rhs::random_rhs(n, 2);
        let mut lu = vec![0.0; n];
        let mut lv = vec![0.0; n];
        let mut buf = vec![0.0; n];
        sm.multadd_lambda(&a, &u, &mut lu, &mut buf);
        sm.multadd_lambda(&a, &v, &mut lv, &mut buf);
        let a1 = vecops::dot(&lu, &v);
        let a2 = vecops::dot(&u, &lv);
        assert!((a1 - a2).abs() < 1e-10 * a1.abs().max(1.0));
    }

    #[test]
    fn symmetrized_jacobi_matches_formula() {
        // M̄⁻¹ = ωD⁻¹ (2D/ω − A) ωD⁻¹ for M = D/ω.
        let (a, b) = test_problem();
        let n = a.nrows();
        let omega = 0.7;
        let sm = LevelSmoother::new(&a, SmootherKind::WJacobi { omega }, 1);
        let mut y = vec![0.0; n];
        let mut buf = vec![0.0; n];
        sm.multadd_lambda(&a, &b, &mut y, &mut buf);
        let d = a.diag();
        let t: Vec<f64> = (0..n).map(|i| omega * b[i] / d[i]).collect();
        let mut at = vec![0.0; n];
        a.spmv(&t, &mut at);
        for i in 0..n {
            let u = 2.0 * d[i] / omega * t[i] - at[i];
            let expect = omega / d[i] * u;
            assert!((y[i] - expect).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn async_gs_sequential_matches_hybrid_single_block() {
        let (a, b) = test_problem();
        let n = a.nrows();
        let sm = LevelSmoother::new(&a, SmootherKind::HybridJgs, 1);
        let mut e = vec![0.0; n];
        sm.apply_zero(&a, &b, &mut e);
        let x = AtomicF64Vec::zeros(n);
        async_gs_sweep(&a, &b, &x, &inv_diag(&a), 0..n);
        for i in 0..n {
            assert!((x.load(i) - e[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn async_gs_concurrent_converges() {
        // Concurrent sweeps from several threads still converge (ρ(|G|)<1
        // for this diagonally dominant matrix).
        let (a, b) = test_problem();
        let n = a.nrows();
        let x = AtomicF64Vec::zeros(n);
        let idiag = inv_diag(&a);
        let nthreads = 4;
        std::thread::scope(|s| {
            for t in 0..nthreads {
                let (a, b, x, idiag) = (&a, &b, &x, &idiag);
                s.spawn(move || {
                    let block = chunk_range(n, nthreads, t);
                    for _ in 0..50 {
                        async_gs_sweep(a, b, x, idiag, block.clone());
                    }
                });
            }
        });
        let xv = x.to_vec();
        let rn = residual_norm(&a, &b, &xv);
        let r0 = vecops::norm2(&b);
        // The OS may serialise the threads completely (e.g. on one core), in
        // which case the run degenerates to a single pass of exact-block
        // Gauss-Seidel — still a solid reduction, but not full convergence.
        assert!(rn < 0.5 * r0, "residual {rn} vs {r0}");
    }

    #[test]
    fn relax_fixed_point_is_solution() {
        // If x solves Ax=b, relax leaves it unchanged.
        let (a, _) = test_problem();
        let n = a.nrows();
        let xs = asyncmg_problems::rhs::random_rhs(n, 9);
        let mut b = vec![0.0; n];
        a.spmv(&xs, &mut b);
        for kind in
            [SmootherKind::WJacobi { omega: 0.9 }, SmootherKind::L1Jacobi, SmootherKind::HybridJgs]
        {
            let sm = LevelSmoother::new(&a, kind, 3);
            let mut x = xs.clone();
            let mut buf = vec![0.0; n];
            sm.relax(&a, &b, &mut x, &mut buf);
            for i in 0..n {
                assert!((x[i] - xs[i]).abs() < 1e-10, "{} row {i}", kind.name());
            }
        }
    }

    #[test]
    fn apply_zero_range_matches_blocked_apply() {
        let (a, b) = test_problem();
        let nb = 4;
        let sm = LevelSmoother::new(&a, SmootherKind::HybridJgs, nb);
        let mut e = vec![0.0; a.nrows()];
        sm.apply_zero(&a, &b, &mut e);
        for blk in 0..nb {
            let range = sm.blocks()[blk].clone();
            let mut local = vec![0.0; range.len()];
            sm.apply_zero_range(&a, &b, &mut local, range.clone());
            for (off, i) in range.enumerate() {
                assert!((local[off] - e[i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn relax_range_matches_relax() {
        let (a, b) = test_problem();
        let n = a.nrows();
        for kind in [SmootherKind::WJacobi { omega: 0.8 }, SmootherKind::HybridJgs] {
            let nb = 3;
            let sm = LevelSmoother::new(&a, kind, nb);
            let x0 = asyncmg_problems::rhs::random_rhs(n, 6);
            let mut x_seq = x0.clone();
            let mut buf = vec![0.0; n];
            sm.relax(&a, &b, &mut x_seq, &mut buf);
            // Ranged version: every block against the x0 snapshot.
            let mut x_par = x0.clone();
            for blk in 0..nb {
                let range = sm.blocks()[blk].clone();
                let mut local = vec![0.0; range.len()];
                local.copy_from_slice(&x0[range.clone()]);
                sm.relax_range(&a, &b, &mut local, &x0, range.clone());
                x_par[range.clone()].copy_from_slice(&local);
            }
            for i in 0..n {
                assert!((x_seq[i] - x_par[i]).abs() < 1e-13, "{} row {i}", kind.name());
            }
        }
    }

    #[test]
    fn apply_zero_multi_matches_per_column_bitwise() {
        let (a, _) = test_problem();
        let n = a.nrows();
        let nrhs = 3;
        let mut r = Vec::with_capacity(n * nrhs);
        for c in 0..nrhs {
            r.extend(asyncmg_problems::rhs::random_rhs(n, 100 + c as u64));
        }
        for kind in [
            SmootherKind::WJacobi { omega: 0.9 },
            SmootherKind::L1Jacobi,
            SmootherKind::HybridJgs,
            SmootherKind::AsyncGs,
        ] {
            let sm = LevelSmoother::new(&a, kind, 4);
            let mut e = vec![0.0; n * nrhs];
            sm.apply_zero_multi(&a, nrhs, &r, &mut e);
            for c in 0..nrhs {
                let mut solo = vec![0.0; n];
                sm.apply_zero(&a, &r[c * n..(c + 1) * n], &mut solo);
                for i in 0..n {
                    assert_eq!(
                        e[c * n + i].to_bits(),
                        solo[i].to_bits(),
                        "{} col {c} row {i}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn relax_multi_matches_per_column_bitwise() {
        let (a, _) = test_problem();
        let n = a.nrows();
        let nrhs = 4;
        let mut b = Vec::with_capacity(n * nrhs);
        let mut x0 = Vec::with_capacity(n * nrhs);
        for c in 0..nrhs {
            b.extend(asyncmg_problems::rhs::random_rhs(n, 200 + c as u64));
            x0.extend(asyncmg_problems::rhs::random_rhs(n, 300 + c as u64));
        }
        for kind in [
            SmootherKind::WJacobi { omega: 0.8 },
            SmootherKind::L1Jacobi,
            SmootherKind::HybridJgs,
            SmootherKind::AsyncGs,
        ] {
            let sm = LevelSmoother::new(&a, kind, 3);
            let mut x = x0.clone();
            let mut buf = vec![0.0; n * nrhs];
            // Two sweeps so the second starts from a multi-updated iterate.
            sm.relax_multi(&a, nrhs, &b, &mut x, &mut buf);
            sm.relax_multi(&a, nrhs, &b, &mut x, &mut buf);
            for c in 0..nrhs {
                let mut solo: Vec<f64> = x0[c * n..(c + 1) * n].to_vec();
                let mut sbuf = vec![0.0; n];
                sm.relax(&a, &b[c * n..(c + 1) * n], &mut solo, &mut sbuf);
                sm.relax(&a, &b[c * n..(c + 1) * n], &mut solo, &mut sbuf);
                for i in 0..n {
                    assert_eq!(
                        x[c * n + i].to_bits(),
                        solo[i].to_bits(),
                        "{} col {c} row {i}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(SmootherKind::WJacobi { omega: 0.9 }.name(), "w-Jacobi");
        assert_eq!(SmootherKind::L1Jacobi.name(), "l1-Jacobi");
        assert_eq!(SmootherKind::HybridJgs.name(), "hybrid JGS");
        assert_eq!(SmootherKind::AsyncGs.name(), "async GS");
    }
}
