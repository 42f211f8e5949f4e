//! Building the multigrid hierarchy (the BoomerAMG-substitute setup phase).

use crate::coarsen::{aggressive_coarsen, coarsen, n_coarse, Coarsening};
use crate::interp::{build_interpolation, Interpolation};
use crate::strength::classical_strength_funcs;
use asyncmg_sparse::{
    auto_setup_threads, rap_parallel, transpose_parallel, Bsr, Csr, CsrError, DenseLu, Kernel,
    KernelSelect,
};
use asyncmg_telemetry::{NoopProbe, Phase, Probe};
use asyncmg_threads::chunk_range;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// One level of the hierarchy.
#[derive(Clone, Debug)]
pub struct Level {
    /// The operator `A_k`.
    pub a: Csr,
    /// Prolongation `P_{k+1}^k` (absent on the coarsest level).
    pub p: Option<Csr>,
    /// Restriction `R = Pᵀ`, stored explicitly for fast SpMV.
    pub r: Option<Csr>,
    /// Cached main diagonal of `a`: smoothers reuse it instead of searching
    /// the matrix again on every solve.
    pub diag: Vec<f64>,
    /// Blocked twin of `a`, installed when the level's pattern is fully
    /// block-dense (see [`Level::install_bsr`]). Kernel dispatch through
    /// [`Level::op`] prefers it; results are bit-identical either way.
    pub bsr: Option<Bsr>,
}

impl Level {
    /// A level with its diagonal cache built from `a`.
    pub fn new(a: Csr, p: Option<Csr>, r: Option<Csr>) -> Self {
        let diag = a.diag();
        Level { a, p, r, diag, bsr: None }
    }

    /// Attempts to install a blocked (`b×b` BSR) twin of this level's
    /// operator, returning whether it was installed.
    ///
    /// Installation requires the conversion to add **zero fill-in** — a
    /// fully block-dense pattern, as produced by the elasticity assembly.
    /// That restriction is what makes the blocked kernels unconditionally
    /// bit-identical to the CSR ones: with fill, the inserted zeros would
    /// shift the `dot4` lane assignment of subsequent entries. Block size 1
    /// is declined (it is plain CSR with extra indirection).
    pub fn install_bsr(&mut self, b: usize) -> bool {
        if b < 2 {
            return false;
        }
        match Bsr::from_csr(&self.a, b) {
            Ok(bsr) if bsr.fill() == 0 => {
                self.bsr = Some(bsr);
                true
            }
            _ => false,
        }
    }

    /// The kernel handle solve loops should dispatch through: the blocked
    /// twin when installed, the CSR operator otherwise.
    pub fn op(&self) -> Kernel<'_> {
        match &self.bsr {
            Some(bsr) => Kernel::Bsr { csr: &self.a, bsr },
            None => Kernel::Csr(&self.a),
        }
    }
}

/// A complete multigrid hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Levels, fine (0) to coarse (ℓ).
    pub levels: Vec<Level>,
    /// Dense LU of the coarsest operator; `None` if it was singular.
    pub coarse_lu: Option<DenseLu>,
    /// Lazily cached per-level row partitions (see [`Hierarchy::partitions`]).
    partition_cache: OnceLock<(usize, Vec<Vec<Range<usize>>>)>,
}

/// Setup options mirroring the paper's BoomerAMG configuration.
#[derive(Clone, Debug)]
pub struct AmgOptions {
    /// Strength threshold θ.
    pub theta: f64,
    /// Coarsening algorithm (the paper uses HMIS).
    pub coarsening: Coarsening,
    /// Interpolation for non-aggressive levels (the paper uses classical
    /// modified).
    pub interp: Interpolation,
    /// Number of *aggressive* levels from the finest (the paper uses 1 for
    /// Figures 4 and 2 for Table I); aggressive levels use multipass
    /// interpolation.
    pub aggressive_levels: usize,
    /// Maximum number of levels.
    pub max_levels: usize,
    /// Stop coarsening when a level has at most this many rows.
    pub max_coarse: usize,
    /// Interpolation truncation factor.
    pub trunc: f64,
    /// Seed for the PMIS random weights.
    pub seed: u64,
    /// Number of interleaved unknowns per node (BoomerAMG's "unknown
    /// approach" for PDE systems; 3 for the elasticity test set).
    pub num_functions: usize,
    /// Threads for the setup-phase sparse kernels (Galerkin products and
    /// transposes). `0` picks automatically from the matrix size and the
    /// hardware; `1` forces serial. Any value produces bit-identical
    /// operators — the parallel kernels reproduce the serial results exactly.
    pub setup_threads: usize,
    /// Which kernel layer executes the per-level hot loops. `Bsr` (the
    /// default) installs blocked operators on levels where
    /// `num_functions`-sized blocks apply with zero fill-in and keeps CSR
    /// elsewhere; `Csr` never blocks. Results are bit-identical across both
    /// settings.
    pub kernel: KernelSelect,
}

impl Default for AmgOptions {
    fn default() -> Self {
        AmgOptions {
            theta: 0.25,
            coarsening: Coarsening::Hmis,
            interp: Interpolation::ClassicalModified,
            aggressive_levels: 0,
            max_levels: 25,
            max_coarse: 40,
            trunc: 0.0,
            seed: 0xA5A5,
            num_functions: 1,
            setup_threads: 0,
            kernel: KernelSelect::Bsr,
        }
    }
}

impl Hierarchy {
    /// A hierarchy from levels and the coarse factorisation.
    pub fn new(levels: Vec<Level>, coarse_lu: Option<DenseLu>) -> Self {
        Hierarchy { levels, coarse_lu, partition_cache: OnceLock::new() }
    }

    /// Number of levels (the paper's `ℓ + 1`).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Per-level contiguous row partitions for `nparts` workers:
    /// `partitions(n)[k][p]` is worker `p`'s row range on level `k`.
    ///
    /// The first requested part count is computed once and cached — solvers
    /// use one thread count for a whole run, so repeated solves stop
    /// re-deriving the same partitions. A different part count is computed on
    /// the fly without disturbing the cache.
    pub fn partitions(&self, nparts: usize) -> Cow<'_, [Vec<Range<usize>>]> {
        assert!(nparts > 0);
        let compute = || {
            self.levels
                .iter()
                .map(|l| (0..nparts).map(|p| chunk_range(l.a.nrows(), nparts, p)).collect())
                .collect::<Vec<Vec<Range<usize>>>>()
        };
        let (cached_n, cached) = self.partition_cache.get_or_init(|| (nparts, compute()));
        if *cached_n == nparts {
            Cow::Borrowed(cached.as_slice())
        } else {
            Cow::Owned(compute())
        }
    }

    /// Rows per level.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.a.nrows()).collect()
    }

    /// Operator complexity `Σ nnz(A_k) / nnz(A_0)`.
    pub fn operator_complexity(&self) -> f64 {
        let total: usize = self.levels.iter().map(|l| l.a.nnz()).sum();
        total as f64 / self.levels[0].a.nnz() as f64
    }

    /// Grid complexity `Σ n_k / n_0`.
    pub fn grid_complexity(&self) -> f64 {
        let total: usize = self.levels.iter().map(|l| l.a.nrows()).sum();
        total as f64 / self.levels[0].a.nrows() as f64
    }
}

/// A validation failure detected by [`try_build_hierarchy`].
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// The fine-grid operator has no rows.
    EmptyMatrix,
    /// The fine-grid operator is not square.
    NotSquare {
        /// Row count.
        nrows: usize,
        /// Column count.
        ncols: usize,
    },
    /// The fine-grid operator has a structural defect or non-finite entry.
    BadMatrix(CsrError),
    /// An option is out of range (description of the first violation).
    InvalidOptions(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyMatrix => write!(f, "fine-grid operator has no rows"),
            BuildError::NotSquare { nrows, ncols } => {
                write!(f, "fine-grid operator is {nrows}x{ncols}, not square")
            }
            BuildError::BadMatrix(e) => write!(f, "bad fine-grid operator: {e}"),
            BuildError::InvalidOptions(msg) => write!(f, "invalid AMG options: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a hierarchy from the fine-grid operator.
pub fn build_hierarchy(a: Csr, opts: &AmgOptions) -> Hierarchy {
    build_hierarchy_probed(a, opts, &NoopProbe)
}

/// [`build_hierarchy`] with up-front validation: the operator's structure
/// and values and the option ranges are checked before setup starts,
/// returning a typed [`BuildError`] instead of panicking (or silently
/// building a poisoned hierarchy from non-finite entries).
pub fn try_build_hierarchy(a: Csr, opts: &AmgOptions) -> Result<Hierarchy, BuildError> {
    if a.nrows() == 0 {
        return Err(BuildError::EmptyMatrix);
    }
    if a.nrows() != a.ncols() {
        return Err(BuildError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    a.validate().map_err(BuildError::BadMatrix)?;
    if !(a.diag().iter().all(|&d| d != 0.0)) {
        return Err(BuildError::InvalidOptions(
            "fine-grid operator has a zero diagonal entry (smoothers divide by it)".into(),
        ));
    }
    if !(opts.theta.is_finite() && (0.0..=1.0).contains(&opts.theta)) {
        return Err(BuildError::InvalidOptions(format!("theta {} out of [0, 1]", opts.theta)));
    }
    if !(opts.trunc.is_finite() && (0.0..1.0).contains(&opts.trunc)) {
        return Err(BuildError::InvalidOptions(format!("trunc {} out of [0, 1)", opts.trunc)));
    }
    if opts.max_levels < 2 {
        return Err(BuildError::InvalidOptions(format!(
            "max_levels {} leaves no room for a coarse grid",
            opts.max_levels
        )));
    }
    if opts.num_functions == 0 {
        return Err(BuildError::InvalidOptions("num_functions must be positive".into()));
    }
    Ok(build_hierarchy(a, opts))
}

/// Builds a hierarchy, reporting per-level setup timings to `probe`.
///
/// Three phases are timed for every level built: [`Phase::SetupStrength`]
/// (strength graph + coarsening), [`Phase::SetupInterp`] (interpolation
/// construction) and [`Phase::SetupRap`] (the Galerkin product and the
/// restriction transpose). Events carry the index of the level being
/// coarsened as their grid id, so a `SolveTrace` shows where each level's
/// build time went.
pub fn build_hierarchy_probed<P: Probe + ?Sized>(
    a: Csr,
    opts: &AmgOptions,
    probe: &P,
) -> Hierarchy {
    assert_eq!(a.nrows(), a.ncols());
    let epoch = Instant::now();
    let enabled = probe.enabled();
    let now_ns = |epoch: &Instant| epoch.elapsed().as_nanos() as u64;
    let mut levels: Vec<Level> = Vec::new();
    let mut current = a;
    let mut level_idx = 0usize;
    // Per-dof function labels for the unknown approach; coarse dofs inherit
    // the label of their C-point.
    let mut funcs: Option<Vec<u8>> = (opts.num_functions > 1)
        .then(|| (0..current.nrows()).map(|i| (i % opts.num_functions) as u8).collect());
    while current.nrows() > opts.max_coarse && levels.len() + 1 < opts.max_levels {
        let t0 = if enabled { now_ns(&epoch) } else { 0 };
        let s = classical_strength_funcs(&current, opts.theta, funcs.as_deref());
        let aggressive = level_idx < opts.aggressive_levels;
        let seed = opts.seed.wrapping_add(level_idx as u64);
        let cf = if aggressive {
            aggressive_coarsen(&s, opts.coarsening, seed)
        } else {
            coarsen(&s, opts.coarsening, seed)
        };
        if enabled {
            let t1 = now_ns(&epoch);
            probe.phase(0, level_idx, Phase::SetupStrength, t0, t1 - t0);
        }
        let nc = n_coarse(&cf);
        if nc == 0 || nc >= current.nrows() {
            break; // coarsening stalled
        }
        let interp_kind = if aggressive { Interpolation::Multipass } else { opts.interp };
        let t0 = if enabled { now_ns(&epoch) } else { 0 };
        let p = build_interpolation(&current, &s, &cf, interp_kind, opts.trunc);
        if enabled {
            let t1 = now_ns(&epoch);
            probe.phase(0, level_idx, Phase::SetupInterp, t0, t1 - t0);
        }
        if p.ncols() == 0 {
            break;
        }
        let threads = if opts.setup_threads == 0 {
            auto_setup_threads(current.nnz())
        } else {
            opts.setup_threads
        };
        let t0 = if enabled { now_ns(&epoch) } else { 0 };
        let coarse = rap_parallel(&current, &p, threads);
        let r = transpose_parallel(&p, threads);
        if enabled {
            let t1 = now_ns(&epoch);
            probe.phase(0, level_idx, Phase::SetupRap, t0, t1 - t0);
        }
        if let Some(f) = &funcs {
            funcs = Some(
                cf.iter()
                    .enumerate()
                    .filter(|&(_, &c)| c == crate::coarsen::Cf::C)
                    .map(|(i, _)| f[i])
                    .collect(),
            );
        }
        levels.push(Level::new(current, Some(p), Some(r)));
        current = coarse;
        level_idx += 1;
    }
    let coarse_lu = DenseLu::factor(&current);
    levels.push(Level::new(current, None, None));
    if opts.kernel == KernelSelect::Bsr && opts.num_functions > 1 {
        for level in &mut levels {
            // Installs only where the pattern is fully block-dense (fill-free),
            // so dispatching through the blocked kernels stays bit-identical.
            level.install_bsr(opts.num_functions);
        }
    }
    Hierarchy::new(levels, coarse_lu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmg_problems::stencil::{laplacian_27pt, laplacian_7pt};

    #[test]
    fn hierarchy_shrinks_levels() {
        let a = laplacian_7pt(10, 10, 10);
        let h = build_hierarchy(a, &AmgOptions::default());
        assert!(h.n_levels() >= 2, "expected multilevel, got {}", h.n_levels());
        let sizes = h.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "level sizes not decreasing: {sizes:?}");
        }
        assert!(*sizes.last().unwrap() <= 40);
        assert!(h.coarse_lu.is_some());
    }

    #[test]
    fn coarse_operators_stay_symmetric() {
        let a = laplacian_27pt(8, 8, 8);
        let h = build_hierarchy(a, &AmgOptions::default());
        for (k, level) in h.levels.iter().enumerate() {
            assert!(level.a.is_symmetric(1e-10), "level {k} not symmetric");
        }
    }

    #[test]
    fn aggressive_reduces_complexity() {
        let a = laplacian_27pt(10, 10, 10);
        let plain = build_hierarchy(a.clone(), &AmgOptions::default());
        let agg = build_hierarchy(a, &AmgOptions { aggressive_levels: 1, ..AmgOptions::default() });
        assert!(
            agg.levels[1].a.nrows() < plain.levels[1].a.nrows(),
            "aggressive first coarse level {} vs plain {}",
            agg.levels[1].a.nrows(),
            plain.levels[1].a.nrows()
        );
        assert!(agg.operator_complexity() < plain.operator_complexity());
    }

    #[test]
    fn elasticity_installs_blocked_kernel_and_stays_bitwise() {
        // The elasticity assembly stores every 3×3 block entry (including
        // exact zeros) and eliminates clamped nodes whole, so the fine level
        // is fully block-dense and must convert fill-free.
        let a = asyncmg_problems::TestSet::Elasticity.matrix(6);
        let opts = AmgOptions { num_functions: 3, ..AmgOptions::default() };
        let h = build_hierarchy(a, &opts);
        let fine = &h.levels[0];
        assert!(fine.bsr.is_some(), "fine elasticity level should install BSR");
        assert_eq!(fine.bsr.as_ref().unwrap().fill(), 0);
        assert_eq!(fine.op().label(), "bsr");
        // Dispatching through the kernel handle is bit-identical to CSR.
        let n = fine.a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 / 13.0 - 0.5).collect();
        let (mut yc, mut yk) = (vec![0.0; n], vec![0.0; n]);
        fine.a.spmv(&x, &mut yc);
        fine.op().spmv(&x, &mut yk);
        for i in 0..n {
            assert_eq!(yk[i].to_bits(), yc[i].to_bits(), "row {i}");
        }
        // Forcing CSR leaves every level unblocked.
        let a2 = asyncmg_problems::TestSet::Elasticity.matrix(6);
        let h2 = build_hierarchy(
            a2,
            &AmgOptions { num_functions: 3, kernel: KernelSelect::Csr, ..AmgOptions::default() },
        );
        assert!(h2.levels.iter().all(|l| l.bsr.is_none()));
        assert_eq!(h2.levels[0].op().label(), "csr");
    }

    #[test]
    fn scalar_problems_stay_unblocked() {
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        assert!(h.levels.iter().all(|l| l.bsr.is_none()));
    }

    #[test]
    fn restriction_is_transpose_of_p() {
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        for level in &h.levels {
            if let (Some(p), Some(r)) = (&level.p, &level.r) {
                assert_eq!(&p.transpose(), r);
            }
        }
    }

    #[test]
    fn galerkin_identity_holds() {
        // A_{k+1} = Pᵀ A_k P entry-wise.
        let a = laplacian_7pt(5, 5, 5);
        let h = build_hierarchy(a, &AmgOptions::default());
        if h.n_levels() >= 2 {
            let p = h.levels[0].p.as_ref().unwrap();
            let expect = asyncmg_sparse::rap(&h.levels[0].a, p);
            let got = &h.levels[1].a;
            assert_eq!(got.nrows(), expect.nrows());
            for i in 0..got.nrows() {
                for (&j, &v) in got.row(i).0.iter().zip(got.row(i).1) {
                    assert!((v - expect.get(i, j as usize)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn small_matrix_is_single_level() {
        let a = laplacian_7pt(3, 3, 3); // 27 rows ≤ max_coarse
        let h = build_hierarchy(a, &AmgOptions::default());
        assert_eq!(h.n_levels(), 1);
        assert!(h.coarse_lu.is_some());
    }

    #[test]
    fn complexities_reported() {
        let a = laplacian_7pt(8, 8, 8);
        let h = build_hierarchy(a, &AmgOptions::default());
        assert!(h.operator_complexity() >= 1.0);
        assert!(h.grid_complexity() >= 1.0);
        assert!(h.operator_complexity() < 3.0, "complexity blow-up");
    }

    #[test]
    fn level_diag_is_cached() {
        let a = laplacian_7pt(6, 6, 6);
        let h = build_hierarchy(a, &AmgOptions::default());
        for level in &h.levels {
            assert_eq!(level.diag, level.a.diag());
        }
    }

    #[test]
    fn partitions_tile_levels_and_cache() {
        let a = laplacian_7pt(7, 7, 7);
        let h = build_hierarchy(a, &AmgOptions::default());
        let parts = h.partitions(4);
        assert_eq!(parts.len(), h.n_levels());
        for (k, level_parts) in parts.iter().enumerate() {
            assert_eq!(level_parts.len(), 4);
            let n = h.levels[k].a.nrows();
            let mut covered = 0usize;
            for (p, r) in level_parts.iter().enumerate() {
                assert_eq!(r.start, covered, "level {k} part {p} not contiguous");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
        // Same count hits the cache (borrowed); a different one is computed
        // fresh (owned) with the right shape.
        assert!(matches!(h.partitions(4), std::borrow::Cow::Borrowed(_)));
        let other = h.partitions(3);
        assert!(matches!(other, std::borrow::Cow::Owned(_)));
        assert_eq!(other[0].len(), 3);
    }

    #[test]
    fn parallel_setup_matches_serial_setup() {
        // setup_threads is numerically transparent: any thread count yields
        // the exact same hierarchy.
        let a = laplacian_27pt(8, 8, 8);
        let serial =
            build_hierarchy(a.clone(), &AmgOptions { setup_threads: 1, ..Default::default() });
        for nt in [2usize, 5] {
            let par =
                build_hierarchy(a.clone(), &AmgOptions { setup_threads: nt, ..Default::default() });
            assert_eq!(par.n_levels(), serial.n_levels());
            for (ls, lp) in serial.levels.iter().zip(&par.levels) {
                assert_eq!(ls.a, lp.a, "operators differ at {nt} threads");
                assert_eq!(ls.p, lp.p);
                assert_eq!(ls.r, lp.r);
            }
        }
    }

    #[test]
    fn probed_build_reports_setup_phases() {
        use asyncmg_telemetry::TelemetryProbe;
        let a = laplacian_7pt(8, 8, 8);
        let mut probe = TelemetryProbe::new(1, 1024);
        let h = build_hierarchy_probed(a, &AmgOptions::default(), &probe);
        assert!(h.n_levels() >= 2);
        let trace = probe.take_trace();
        let built = h.n_levels() as u64 - 1; // one event set per level built
        for ph in [Phase::SetupStrength, Phase::SetupInterp, Phase::SetupRap] {
            let t = trace.phase_totals[ph.index()];
            assert!(t.count >= built, "{}: {} events for {built} levels", ph.name(), t.count);
        }
    }
}

#[cfg(test)]
mod unknown_approach_tests {
    use super::*;
    use asyncmg_problems::elasticity::{elasticity_beam, BeamMaterials};
    use asyncmg_problems::stencil::laplacian_7pt;

    #[test]
    fn unknown_approach_unmixes_elasticity_interpolation() {
        let a = elasticity_beam(6, 2, 2, [3.0, 1.0, 1.0], BeamMaterials::default());
        let h3 = build_hierarchy(a, &AmgOptions { num_functions: 3, ..Default::default() });
        // With per-function labels, P never couples different displacement
        // components: column functions are inherited from C points, and each
        // F row only references same-function C points. Verify via the
        // Galerkin chain: check P's sparsity respects the label partition on
        // the finest level.
        let p = h3.levels[0].p.as_ref().expect("multilevel");
        // Reconstruct coarse labels the same way the builder does: C points
        // in increasing dof order. A fine dof i (function i%3) must only
        // interpolate from coarse dofs with the same label; equivalently,
        // every coarse column referenced from rows of different functions
        // would be a violation.
        let mut col_func: Vec<Option<u8>> = vec![None; p.ncols()];
        for i in 0..p.nrows() {
            let f = (i % 3) as u8;
            for &j in p.row(i).0 {
                match col_func[j as usize] {
                    None => col_func[j as usize] = Some(f),
                    Some(existing) => {
                        assert_eq!(existing, f, "column {j} mixes functions");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_approach_fixes_elasticity_convergence() {
        // The motivating property: scalar AMG stagnates on elasticity while
        // the unknown approach converges (tested through the core solver in
        // the workspace integration tests; here we check hierarchy shape).
        let a = elasticity_beam(8, 2, 2, [4.0, 1.0, 1.0], BeamMaterials::default());
        let scalar = build_hierarchy(a.clone(), &AmgOptions::default());
        let nf3 = build_hierarchy(a, &AmgOptions { num_functions: 3, ..Default::default() });
        // Unknown-approach coarsening is less aggressive (per-component
        // grids) and must still terminate with a usable coarse solve.
        assert!(nf3.n_levels() >= 2);
        assert!(nf3.coarse_lu.is_some());
        let _ = scalar;
    }

    #[test]
    fn try_build_accepts_a_good_operator() {
        let a = laplacian_7pt(6, 6, 6);
        let h = try_build_hierarchy(a, &AmgOptions::default()).expect("valid operator");
        assert!(h.n_levels() >= 2);
    }

    #[test]
    fn try_build_rejects_bad_input() {
        let a = laplacian_7pt(4, 4, 4);

        let wide = Csr::from_raw(2, 3, vec![0, 1, 2], vec![0, 2], vec![1.0, 1.0]);
        assert!(matches!(
            try_build_hierarchy(wide, &AmgOptions::default()),
            Err(BuildError::NotSquare { nrows: 2, ncols: 3 })
        ));

        let mut vals: Vec<f64> = a.vals().to_vec();
        vals[0] = f64::INFINITY;
        let poisoned =
            Csr::from_raw(a.nrows(), a.ncols(), a.row_ptr().to_vec(), a.col_idx().to_vec(), vals);
        assert!(matches!(
            try_build_hierarchy(poisoned, &AmgOptions::default()),
            Err(BuildError::BadMatrix(_))
        ));

        let bad_theta = AmgOptions { theta: 1.5, ..Default::default() };
        assert!(matches!(
            try_build_hierarchy(a.clone(), &bad_theta),
            Err(BuildError::InvalidOptions(_))
        ));
        let bad_levels = AmgOptions { max_levels: 1, ..Default::default() };
        assert!(matches!(try_build_hierarchy(a, &bad_levels), Err(BuildError::InvalidOptions(_))));
    }
}
