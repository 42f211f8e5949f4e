//! Classical strength of connection.
//!
//! Point `i` *strongly depends* on point `j` when
//! `−a_ij ≥ θ · max_{k≠i} (−a_ik)` (negative-coupling convention, the
//! BoomerAMG default for the M-matrix-like problems of the paper). For rows
//! whose off-diagonal entries are all non-negative (they occur in the
//! elasticity set) the absolute-value variant is used as a fallback so such
//! rows still acquire strong neighbours.

use asyncmg_sparse::Csr;

/// The strength graph: `S` holds the strong *dependencies* of each row
/// (`S[i]` = the set of `j` that `i` strongly depends on), `S^T` the strong
/// *influences*.
#[derive(Clone, Debug)]
pub struct Strength {
    /// Strong dependencies, as a CSR pattern (values are all 1.0).
    pub s: Csr,
    /// Transpose pattern: `st.row(j)` lists the points influenced by `j`.
    pub st: Csr,
}

impl Strength {
    /// Number of points.
    pub fn n(&self) -> usize {
        self.s.nrows()
    }

    /// Strong dependencies of point `i`.
    pub fn deps(&self, i: usize) -> &[u32] {
        self.s.row(i).0
    }

    /// Points strongly influenced by `j`.
    pub fn influences(&self, j: usize) -> &[u32] {
        self.st.row(j).0
    }
}

/// Computes the classical strength graph with threshold `theta`
/// (BoomerAMG's default for 3-D problems is 0.25).
pub fn classical_strength(a: &Csr, theta: f64) -> Strength {
    classical_strength_nf(a, theta, 1)
}

/// Classical strength for a PDE *system* with `num_functions` interleaved
/// unknowns per node (dof `i` belongs to function `i % num_functions`).
///
/// This is BoomerAMG's "unknown approach": only couplings between dofs of
/// the same function count as (potentially) strong, so coarsening and
/// interpolation act on each solution component separately. Without it,
/// scalar AMG stagnates on elasticity because interpolation mixes
/// displacement components and loses the rigid-body modes.
fn classical_strength_nf(a: &Csr, theta: f64, num_functions: usize) -> Strength {
    assert!(num_functions >= 1);
    if num_functions == 1 {
        return classical_strength_funcs(a, theta, None);
    }
    let funcs: Vec<u8> = (0..a.nrows()).map(|i| (i % num_functions) as u8).collect();
    classical_strength_funcs(a, theta, Some(&funcs))
}

/// Classical strength with an explicit per-dof function label (the unknown
/// approach on coarse levels, where labels are inherited from the fine
/// grid's C-points rather than deducible from the dof index).
pub fn classical_strength_funcs(a: &Csr, theta: f64, funcs: Option<&[u8]>) -> Strength {
    if let Some(f) = funcs {
        assert_eq!(f.len(), a.nrows());
    }
    let n = a.nrows();
    let mut row_ptr = vec![0u32; n + 1];
    let mut col_idx: Vec<u32> = Vec::new();
    for i in 0..n {
        let (cols, vals) = a.row(i);
        // Largest negative coupling; fall back to absolute values when the
        // row has no negative off-diagonals.
        let same_func = |j: u32| match funcs {
            None => true,
            Some(f) => f[j as usize] == f[i],
        };
        let mut max_neg = 0.0f64;
        let mut max_abs = 0.0f64;
        for (&j, &v) in cols.iter().zip(vals) {
            if j as usize != i && same_func(j) {
                max_neg = max_neg.max(-v);
                max_abs = max_abs.max(v.abs());
            }
        }
        let (threshold, use_abs) =
            if max_neg > 0.0 { (theta * max_neg, false) } else { (theta * max_abs, true) };
        if threshold > 0.0 {
            for (&j, &v) in cols.iter().zip(vals) {
                if j as usize == i || !same_func(j) {
                    continue;
                }
                let coupling = if use_abs { v.abs() } else { -v };
                if coupling >= threshold && coupling > 0.0 {
                    col_idx.push(j);
                }
            }
        }
        row_ptr[i + 1] = col_idx.len() as u32;
    }
    let vals = vec![1.0; col_idx.len()];
    let s = Csr::from_raw(n, n, row_ptr, col_idx, vals);
    let st = s.transpose();
    Strength { s, st }
}

/// The distance-2 strength graph restricted to a point subset, used by
/// aggressive coarsening: points `i, j` of the subset are connected when
/// `j ∈ S(i)` or there is a path `i → k → j` in `S` (any intermediate `k`).
pub fn distance2_strength(s: &Strength, subset: &[bool]) -> Csr {
    let n = s.n();
    let mut row_ptr = vec![0u32; n + 1];
    let mut col_idx: Vec<u32> = Vec::new();
    let mut marker = vec![u32::MAX; n];
    for i in 0..n {
        if subset[i] {
            marker[i] = i as u32; // exclude self
            let mut local: Vec<u32> = Vec::new();
            for &j in s.deps(i) {
                let ju = j as usize;
                if subset[ju] && marker[ju] != i as u32 {
                    marker[ju] = i as u32;
                    local.push(j);
                }
                // Two-hop through any k (inside or outside the subset).
                for &l in s.deps(ju) {
                    let lu = l as usize;
                    if subset[lu] && marker[lu] != i as u32 {
                        marker[lu] = i as u32;
                        local.push(l);
                    }
                }
            }
            local.sort_unstable();
            col_idx.extend_from_slice(&local);
        }
        row_ptr[i + 1] = col_idx.len() as u32;
    }
    let vals = vec![1.0; col_idx.len()];
    Csr::from_raw(n, n, row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmg_sparse::Coo;

    fn laplace1d(n: usize) -> Csr {
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

    #[test]
    fn tridiag_all_neighbours_strong() {
        let s = classical_strength(&laplace1d(5), 0.25);
        assert_eq!(s.deps(0), &[1]);
        assert_eq!(s.deps(2), &[1, 3]);
        assert_eq!(s.influences(2), &[1, 3]);
    }

    #[test]
    fn threshold_filters_weak() {
        // Row 0: strong -4 to col 1, weak -0.5 to col 2.
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 5.0);
        c.push(0, 1, -4.0);
        c.push(0, 2, -0.5);
        c.push(1, 1, 5.0);
        c.push(1, 0, -4.0);
        c.push(2, 2, 5.0);
        c.push(2, 0, -0.5);
        let s = classical_strength(&c.to_csr(), 0.25);
        assert_eq!(s.deps(0), &[1]);
        assert_eq!(s.deps(2), &[0]); // its only (max) coupling is strong
    }

    #[test]
    fn positive_offdiagonal_fallback() {
        // All-positive off-diagonals: abs fallback keeps the large one.
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 3.0);
        c.push(0, 1, 2.0);
        c.push(1, 1, 3.0);
        c.push(1, 0, 2.0);
        let s = classical_strength(&c.to_csr(), 0.25);
        assert_eq!(s.deps(0), &[1]);
    }

    #[test]
    fn diagonal_matrix_has_empty_strength() {
        let s = classical_strength(&Csr::identity(4), 0.25);
        for i in 0..4 {
            assert!(s.deps(i).is_empty());
        }
    }

    #[test]
    fn distance2_reaches_two_hops() {
        let s = classical_strength(&laplace1d(5), 0.1);
        let subset = vec![true; 5];
        let s2 = distance2_strength(&s, &subset);
        // Point 2 reaches 0,1,3,4 within two hops.
        assert_eq!(s2.row(2).0, &[0, 1, 3, 4]);
        // Self is excluded.
        assert!(!s2.row(2).0.contains(&2));
    }

    #[test]
    fn distance2_respects_subset() {
        let s = classical_strength(&laplace1d(5), 0.1);
        let subset = vec![true, false, true, false, true];
        let s2 = distance2_strength(&s, &subset);
        // 0 reaches 2 through excluded 1 (two hops allowed through any k).
        assert_eq!(s2.row(0).0, &[2]);
        assert_eq!(s2.row(2).0, &[0, 4]);
        // Excluded rows are empty.
        assert!(s2.row(1).0.is_empty());
    }
}

#[cfg(test)]
mod unknown_approach_tests {
    use super::*;
    use asyncmg_sparse::Coo;

    /// 2-function interleaved system: strong same-function couplings plus
    /// strong cross-function couplings that must be filtered.
    fn two_function_matrix() -> Csr {
        let mut c = Coo::new(4, 4);
        for i in 0..4usize {
            c.push(i, i, 4.0);
        }
        c.push(0, 2, -2.0); // same function (0)
        c.push(2, 0, -2.0);
        c.push(1, 3, -2.0); // same function (1)
        c.push(3, 1, -2.0);
        c.push(0, 1, -3.0); // cross function — stronger, but must be ignored
        c.push(1, 0, -3.0);
        c.to_csr()
    }

    #[test]
    fn nf_filters_cross_function_couplings() {
        let a = two_function_matrix();
        let scalar = classical_strength(&a, 0.25);
        assert!(scalar.deps(0).contains(&1), "scalar strength sees cross coupling");
        let nf = classical_strength_nf(&a, 0.25, 2);
        assert_eq!(nf.deps(0), &[2]);
        assert_eq!(nf.deps(1), &[3]);
        assert!(!nf.deps(0).contains(&1));
    }

    #[test]
    fn explicit_funcs_match_modulo_labels() {
        let a = two_function_matrix();
        let by_nf = classical_strength_nf(&a, 0.25, 2);
        let funcs = vec![0u8, 1, 0, 1];
        let by_funcs = classical_strength_funcs(&a, 0.25, Some(&funcs));
        assert_eq!(by_nf.s, by_funcs.s);
    }

    #[test]
    fn nf_one_is_scalar_strength() {
        let a = two_function_matrix();
        assert_eq!(classical_strength(&a, 0.25).s, classical_strength_nf(&a, 0.25, 1).s);
    }
}
