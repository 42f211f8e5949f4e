//! Inputs: the matrices and options of each workload, the seeded request
//! order, the set-up every workload pays before its first cycle, and the
//! harness's own answer check.

use std::sync::Arc;

use asyncmg_amg::coarsen::{aggressive_coarsen, coarsen, n_coarse, Cf};
use asyncmg_amg::interp::build_interpolation;
use asyncmg_amg::strength::classical_strength_funcs;
use asyncmg_amg::{try_build_hierarchy, AmgOptions, Hierarchy, Interpolation, Level};
use asyncmg_core::{BlockWorkspace, MgOptions, MgSetup};
use asyncmg_problems::stencil::laplacian_27pt;
use asyncmg_problems::TestSet;
use asyncmg_smoothers::SmootherKind;
use asyncmg_sparse::{
    auto_setup_threads, fingerprint_csr, rap_parallel, transpose_parallel, Csr, DenseLu,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// The relative residual every solve is asked for.
pub const TOL: f64 = 1e-6;

/// The order in which `svc-cold` requests its `n` matrices: a Fisher–Yates
/// shuffle of `0..n` drawn from `seed`.
pub fn request_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// `‖b − A x‖₂ / ‖b‖₂` with a plain CSR loop owned by the harness: none of
/// the program's SIMD, stencil or BSR kernels is trusted to check the
/// program's own answers.
pub fn relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    if x.len() != a.ncols() || b.len() != a.nrows() {
        return f64::INFINITY;
    }
    let (row_ptr, col_idx, vals) = (a.row_ptr(), a.col_idx(), a.vals());
    let (mut rr, mut bb) = (0.0f64, 0.0f64);
    for i in 0..a.nrows() {
        let mut ax = 0.0;
        for k in row_ptr[i] as usize..row_ptr[i + 1] as usize {
            ax += vals[k] * x[col_idx[k] as usize];
        }
        let r = b[i] - ax;
        rr += r * r;
        bb += b[i] * b[i];
    }
    let rel = (rr / bb).sqrt();
    if rel.is_finite() {
        rel
    } else {
        f64::INFINITY
    }
}

/// What a workload solves and how the program is configured for it.
#[derive(Clone)]
pub struct Problem {
    /// Human-readable description, recorded in the result file.
    pub label: String,
    /// One matrix, or the six equal-volume boxes of `svc-cold`; behind the
    /// handle the service takes, so that a request of a known matrix is not
    /// a second copy of it in `peak_rss_mb`.
    pub matrices: Vec<Arc<Csr>>,
    pub amg: AmgOptions,
    pub mg: MgOptions,
    /// Cycle budget; generous, so that only a broken solver exhausts it.
    pub t_max: usize,
}

fn mg_l1() -> MgOptions {
    let mut mg = MgOptions::default();
    mg.smoother = SmootherKind::L1Jacobi;
    mg
}

impl Problem {
    /// 27-point Laplacian on an `n³` cube with the service's defaults.
    pub fn poisson_service(n: usize) -> Problem {
        Problem {
            label: format!("27pt n={n}, service defaults"),
            matrices: vec![Arc::new(laplacian_27pt(n, n, n))],
            amg: AmgOptions::default(),
            mg: MgOptions::default(),
            t_max: 100,
        }
    }

    /// Six 27-point boxes of equal volume and different aspect, so that six
    /// different fingerprints cost the same to set up and to solve.
    pub fn poisson_boxes(dims: &[[usize; 3]]) -> Problem {
        Problem {
            label: format!("27pt boxes {dims:?}, service defaults"),
            matrices: dims.iter().map(|d| Arc::new(laplacian_27pt(d[0], d[1], d[2]))).collect(),
            amg: AmgOptions::default(),
            mg: MgOptions::default(),
            t_max: 100,
        }
    }

    /// Multi-material beam elasticity: three unknowns per node, no
    /// aggressive coarsening, ℓ1-Jacobi (the only configuration of this
    /// repo that converges on it).
    pub fn elasticity(n: usize) -> Problem {
        Problem {
            label: format!("elasticity n={n}, num_functions=3, l1-Jacobi"),
            matrices: vec![Arc::new(TestSet::Elasticity.matrix(n))],
            amg: AmgOptions { num_functions: 3, ..AmgOptions::default() },
            mg: mg_l1(),
            t_max: 3000,
        }
    }

    /// The paper's Table I configuration on the 27-point set: two
    /// aggressive levels, ℓ1-Jacobi.
    pub fn poisson_paper(n: usize) -> Problem {
        Problem {
            label: format!("27pt n={n}, 2 aggressive levels, l1-Jacobi"),
            matrices: vec![Arc::new(laplacian_27pt(n, n, n))],
            amg: AmgOptions { aggressive_levels: 2, ..AmgOptions::default() },
            mg: mg_l1(),
            t_max: 1000,
        }
    }
}

/// Everything paid before the first cycle of `a`, through the same public
/// calls the service makes on a cache miss (`Csr::fingerprint`, a copy of
/// the matrix, `try_build_hierarchy`, `MgSetup::new` which also builds the
/// smoothed interpolants, the blocked workspace) plus one SpMV per level,
/// which forces the lazily installed stencil plans.
pub fn prepare(a: &Csr, p: &Problem) -> MgSetup {
    std::hint::black_box(fingerprint_csr(a));
    let hierarchy =
        try_build_hierarchy(a.clone(), &p.amg).expect("benchmark matrices are valid AMG inputs");
    let setup = MgSetup::new(hierarchy, p.mg);
    std::hint::black_box(BlockWorkspace::new(&setup, 1));
    for k in 0..setup.n_levels() {
        let n = setup.a(k).nrows();
        let mut y = vec![0.0; n];
        setup.op(k).spmv(&vec![0.0; n], &mut y);
        std::hint::black_box(y);
    }
    setup
}

/// `build_hierarchy` re-run from its public constituents, one span each, so
/// that a set-up hidden inside one service call can be budgeted. Mirrors
/// `asyncmg_amg::build_hierarchy_probed` step for step; callers check the
/// result against the real build with [`same_shape`].
pub fn replay_build(a: Csr, opts: &AmgOptions, t: &mut Tracer) -> Hierarchy {
    let mut levels = Vec::new();
    let mut current = a;
    let mut funcs: Option<Vec<u8>> = (opts.num_functions > 1)
        .then(|| (0..current.nrows()).map(|i| (i % opts.num_functions) as u8).collect());
    while current.nrows() > opts.max_coarse && levels.len() + 1 < opts.max_levels {
        let k = levels.len();
        let s = t.span("amg.strength", |_| {
            classical_strength_funcs(&current, opts.theta, funcs.as_deref())
        });
        let aggressive = k < opts.aggressive_levels;
        let seed = opts.seed.wrapping_add(k as u64);
        let cf = t.span("amg.coarsen", |_| {
            if aggressive {
                aggressive_coarsen(&s, opts.coarsening, seed)
            } else {
                coarsen(&s, opts.coarsening, seed)
            }
        });
        let nc = n_coarse(&cf);
        if nc == 0 || nc >= current.nrows() {
            break;
        }
        let kind = if aggressive { Interpolation::Multipass } else { opts.interp };
        let p = t.span("amg.interp", |_| build_interpolation(&current, &s, &cf, kind, opts.trunc));
        if p.ncols() == 0 {
            break;
        }
        let threads = match opts.setup_threads {
            0 => auto_setup_threads(current.nnz()),
            n => n,
        };
        let coarse = t.span("sparse.rap", |_| rap_parallel(&current, &p, threads));
        let r = t.span("sparse.transpose", |_| transpose_parallel(&p, threads));
        if let Some(f) = &funcs {
            funcs = Some(
                cf.iter().zip(f).filter(|(&c, _)| c == Cf::C).map(|(_, &label)| label).collect(),
            );
        }
        levels.push(Level::new(current, Some(p), Some(r)));
        current = coarse;
    }
    let lu = t.span("sparse.coarse_lu", |_| DenseLu::factor(&current));
    levels.push(Level::new(current, None, None));
    if opts.num_functions > 1 && opts.kernel != asyncmg_sparse::KernelSelect::Csr {
        t.span("sparse.bsr_install", |_| {
            for level in &mut levels {
                level.install_bsr(opts.num_functions);
            }
        });
    }
    Hierarchy::new(levels, lu)
}

/// Whether two hierarchies have the same rows and non-zeros on every level.
pub fn same_shape(a: &Hierarchy, b: &Hierarchy) -> bool {
    a.n_levels() == b.n_levels()
        && a.levels.iter().zip(&b.levels).all(|(x, y)| {
            x.a.nrows() == y.a.nrows()
                && x.a.nnz() == y.a.nnz()
                && x.bsr.is_some() == y.bsr.is_some()
        })
}
