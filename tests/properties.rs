//! Property-based tests (proptest) on the core data structures and solver
//! invariants.
#![allow(clippy::needless_range_loop)]

use asyncmg_amg::{build_hierarchy, AmgOptions, Coarsening};
use asyncmg_core::setup::{MgOptions, MgSetup};
use asyncmg_sparse::{rap, spgemm, Coo, Csr};
use proptest::prelude::*;

/// A random diagonally dominant SPD-ish sparse matrix.
fn dd_matrix(n: usize, entries: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    for &(i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i != j {
            let v = -(v.abs());
            coo.push(i, j, v);
            coo.push(j, i, v);
            row_sums[i] += v.abs();
            row_sums[j] += v.abs();
        }
    }
    for i in 0..n {
        coo.push(i, i, row_sums[i] + 1.0);
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transpose_is_involutive(
        entries in prop::collection::vec((0usize..30, 0usize..30, -5.0f64..5.0), 1..120)
    ) {
        let a = dd_matrix(30, &entries);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spmv_is_linear(
        entries in prop::collection::vec((0usize..20, 0usize..20, -3.0f64..3.0), 1..60),
        x in prop::collection::vec(-10.0f64..10.0, 20),
        y in prop::collection::vec(-10.0f64..10.0, 20),
        c in -4.0f64..4.0,
    ) {
        let a = dd_matrix(20, &entries);
        let mut ax = vec![0.0; 20];
        let mut ay = vec![0.0; 20];
        a.spmv(&x, &mut ax);
        a.spmv(&y, &mut ay);
        let z: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| c * xi + yi).collect();
        let mut az = vec![0.0; 20];
        a.spmv(&z, &mut az);
        for i in 0..20 {
            let expect = c * ax[i] + ay[i];
            prop_assert!((az[i] - expect).abs() < 1e-9 * (1.0 + expect.abs()));
        }
    }

    #[test]
    fn spgemm_associates_with_spmv(
        entries in prop::collection::vec((0usize..15, 0usize..15, -3.0f64..3.0), 1..50),
        x in prop::collection::vec(-5.0f64..5.0, 15),
    ) {
        // (A·A) x == A (A x)
        let a = dd_matrix(15, &entries);
        let aa = spgemm(&a, &a);
        let mut ax = vec![0.0; 15];
        a.spmv(&x, &mut ax);
        let mut aax = vec![0.0; 15];
        a.spmv(&ax, &mut aax);
        let mut aax2 = vec![0.0; 15];
        aa.spmv(&x, &mut aax2);
        for i in 0..15 {
            prop_assert!((aax[i] - aax2[i]).abs() < 1e-8 * (1.0 + aax[i].abs()));
        }
    }

    #[test]
    fn rap_is_symmetric_for_random_dd_matrices(
        entries in prop::collection::vec((0usize..24, 0usize..24, -3.0f64..3.0), 10..100)
    ) {
        let a = dd_matrix(24, &entries);
        let s = asyncmg_amg::classical_strength(&a, 0.25);
        let cf = asyncmg_amg::coarsen::coarsen(&s, Coarsening::Hmis, 1);
        let nc = asyncmg_amg::coarsen::n_coarse(&cf);
        prop_assume!(nc > 0 && nc < 24);
        let p = asyncmg_amg::interp::build_interpolation(
            &a, &s, &cf, asyncmg_amg::Interpolation::ClassicalModified, 0.0);
        let ac = rap(&a, &p);
        prop_assert!(ac.is_symmetric(1e-9));
        prop_assert_eq!(ac.nrows(), nc);
    }

    #[test]
    fn hierarchy_always_terminates_and_shrinks(
        entries in prop::collection::vec((0usize..40, 0usize..40, -3.0f64..3.0), 30..200)
    ) {
        let a = dd_matrix(40, &entries);
        let h = build_hierarchy(a, &AmgOptions { max_coarse: 8, ..Default::default() });
        let sizes = h.level_sizes();
        for w in sizes.windows(2) {
            prop_assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn mult_reduces_residual_on_random_dd_systems(
        entries in prop::collection::vec((0usize..30, 0usize..30, -3.0f64..3.0), 20..150),
        bvec in prop::collection::vec(-1.0f64..1.0, 30),
    ) {
        let a = dd_matrix(30, &entries);
        let h = build_hierarchy(a, &AmgOptions { max_coarse: 8, ..Default::default() });
        let s = MgSetup::new(h, MgOptions::default());
        let res =
            asyncmg_core::mult::solve_mult_probed(&s, &bvec, 15, None, &asyncmg_core::NoopProbe);
        // Diagonally dominant + damped Jacobi ⇒ convergent cycle.
        prop_assert!(res.relres < 0.9, "relres {}", res.relres);
    }

    #[test]
    fn dense_lu_solves_random_dd_systems(
        entries in prop::collection::vec((0usize..12, 0usize..12, -3.0f64..3.0), 5..60),
        xs in prop::collection::vec(-5.0f64..5.0, 12),
    ) {
        let a = dd_matrix(12, &entries);
        let lu = asyncmg_sparse::DenseLu::factor(&a).expect("dd matrix nonsingular");
        let mut b = vec![0.0; 12];
        a.spmv(&xs, &mut b);
        let got = lu.solve_vec(&b);
        for i in 0..12 {
            prop_assert!((got[i] - xs[i]).abs() < 1e-7 * (1.0 + xs[i].abs()));
        }
    }

    #[test]
    fn empty_rows_survive_spmv_diag_and_transpose(
        entries in prop::collection::vec((0usize..18, 0usize..18, -4.0f64..4.0), 1..80),
        x in prop::collection::vec(-5.0f64..5.0, 18),
    ) {
        // Rows ≡ 0 (mod 3) are left completely empty — the parallel setup
        // kernels hit such rows on aggressive coarsenings and must not
        // mis-index them.
        let n = 18;
        let mut coo = Coo::new(n, n);
        for &(i, j, v) in &entries {
            let (i, j) = (i % n, j % n);
            if i % 3 != 0 {
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let mut ax = vec![1.0; n];
        a.spmv(&x, &mut ax);
        let d = a.diag();
        let mut d2 = vec![-1.0; n];
        a.diag_into(&mut d2);
        for i in (0..n).step_by(3) {
            prop_assert_eq!(a.row(i).0.len(), 0, "row {} not empty", i);
            prop_assert_eq!(ax[i], 0.0);
            prop_assert_eq!(d[i], 0.0);
        }
        prop_assert_eq!(&d, &d2);
        // Empty rows become empty columns of the transpose and round-trip.
        let t = a.transpose();
        for i in (0..n).step_by(3) {
            for j in 0..n {
                prop_assert_eq!(t.get(j, i), 0.0);
            }
        }
        prop_assert_eq!(t.transpose(), a);
    }

    #[test]
    fn coo_duplicate_entries_sum_on_conversion(
        entries in prop::collection::vec((0usize..14, 0usize..14, -4.0f64..4.0), 1..60),
    ) {
        // Deduplicate positions so each (i, j) is pushed exactly twice in
        // the doubled matrix: summing v + v is exact in IEEE arithmetic,
        // making bitwise comparison against the 2v single-push matrix valid.
        let n = 14;
        let mut seen = std::collections::HashSet::new();
        let mut once = Coo::new(n, n);
        let mut twice = Coo::new(n, n);
        for &(i, j, v) in &entries {
            let (i, j) = (i % n, j % n);
            if seen.insert((i, j)) {
                once.push(i, j, 2.0 * v);
                twice.push(i, j, v);
                twice.push(i, j, v);
            }
        }
        let a = once.to_csr();
        let b = twice.to_csr();
        prop_assert_eq!(b.nnz(), a.nnz(), "duplicates not merged");
        prop_assert_eq!(b, a);
    }

    #[test]
    fn rectangular_transpose_preserves_every_entry(
        entries in prop::collection::vec((0usize..11, 0usize..17, -4.0f64..4.0), 1..70),
    ) {
        // Rectangular matrices (interpolation operators are n×nc) must
        // transpose entry-exactly, swap their dimensions, and round-trip.
        let (m, n) = (11, 17);
        let mut coo = Coo::new(m, n);
        let mut seen = std::collections::HashSet::new();
        for &(i, j, v) in &entries {
            if seen.insert((i, j)) {
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let t = a.transpose();
        prop_assert_eq!(t.nrows(), n);
        prop_assert_eq!(t.ncols(), m);
        prop_assert_eq!(t.nnz(), a.nnz());
        for i in 0..m {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                prop_assert_eq!(t.get(*c as usize, i), *v);
            }
        }
        prop_assert_eq!(t.transpose(), a);
    }

    #[test]
    fn diag_is_zero_where_diagonal_entry_is_missing(
        entries in prop::collection::vec((0usize..16, 0usize..16, 0.5f64..4.0), 1..80),
        missing in prop::collection::vec(0usize..16, 1..8),
    ) {
        // Strictly off-diagonal entries everywhere except a few explicit
        // diagonal survivors: `diag`/`diag_into` must report 0.0 exactly at
        // the missing positions instead of panicking or mis-binary-searching.
        let n = 16;
        let missing: std::collections::HashSet<usize> = missing.into_iter().collect();
        let mut coo = Coo::new(n, n);
        for &(i, j, v) in &entries {
            let (i, j) = (i % n, j % n);
            if i != j {
                coo.push(i, j, v);
            }
        }
        for i in 0..n {
            if !missing.contains(&i) {
                coo.push(i, i, 1.0 + i as f64);
            }
        }
        let a = coo.to_csr();
        let d = a.diag();
        let mut d2 = vec![f64::NAN; n];
        a.diag_into(&mut d2);
        for i in 0..n {
            let expect = if missing.contains(&i) { 0.0 } else { 1.0 + i as f64 };
            prop_assert_eq!(d[i], expect, "diag[{}]", i);
            prop_assert_eq!(d2[i], expect, "diag_into[{}]", i);
        }
    }

    #[test]
    fn interpolation_rows_bounded_and_c_rows_identity(
        entries in prop::collection::vec((0usize..25, 0usize..25, -3.0f64..3.0), 20..120)
    ) {
        let a = dd_matrix(25, &entries);
        let s = asyncmg_amg::classical_strength(&a, 0.25);
        let cf = asyncmg_amg::coarsen::coarsen(&s, Coarsening::Pmis, 2);
        let nc = asyncmg_amg::coarsen::n_coarse(&cf);
        prop_assume!(nc > 0);
        let p = asyncmg_amg::interp::build_interpolation(
            &a, &s, &cf, asyncmg_amg::Interpolation::ClassicalModified, 0.0);
        let (cmap, _) = asyncmg_amg::interp::coarse_map(&cf);
        for i in 0..25 {
            if cf[i] == asyncmg_amg::Cf::C {
                let (cols, vals) = p.row(i);
                prop_assert_eq!(cols, &[cmap[i]][..]);
                prop_assert_eq!(vals, &[1.0][..]);
            } else {
                // Diagonally dominant rows give bounded weights.
                for v in p.row(i).1 {
                    prop_assert!(v.abs() < 10.0, "weight {v}");
                }
            }
        }
    }
}
