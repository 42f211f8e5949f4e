//! C/F coarsening: Ruge-Stüben first pass, PMIS, HMIS and aggressive
//! (two-stage) coarsening.
//!
//! The paper generates its hierarchies with BoomerAMG using *HMIS coarsening
//! with one or two aggressive levels*. HMIS (De Sterck, Yang & Heys 2006)
//! combines one pass of the classical Ruge-Stüben algorithm with a PMIS pass
//! over the resulting C-points; aggressive coarsening re-coarsens the
//! C-points once more over the distance-2 strength graph.

use crate::strength::{distance2_strength, Strength};

/// The C/F split assignment of one point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cf {
    /// Coarse point (survives to the next level).
    C,
    /// Fine point (interpolated).
    F,
    /// Not yet decided (only during the algorithms).
    Undecided,
}

/// Available coarsening algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coarsening {
    /// Classical Ruge-Stüben, first pass only.
    Rs,
    /// Parallel modified independent set.
    Pmis,
    /// Hybrid MIS: RS first pass followed by PMIS over its C-points
    /// (the paper's BoomerAMG choice).
    Hmis,
}

/// Deterministic xorshift-style generator for PMIS tie-breaking weights.
/// Implemented inline so the AMG crate needs no RNG dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs the selected coarsening on strength graph `s`.
pub fn coarsen(s: &Strength, method: Coarsening, seed: u64) -> Vec<Cf> {
    match method {
        Coarsening::Rs => rs_first_pass(s),
        Coarsening::Pmis => {
            let all = vec![true; s.n()];
            pmis_on_subset(s.s(), s, &all, seed)
        }
        Coarsening::Hmis => hmis(s, seed),
    }
}

/// Two-stage aggressive coarsening: coarsen with `method`, then re-coarsen
/// the C-points with PMIS on the distance-2 strength graph.
pub fn aggressive_coarsen(s: &Strength, method: Coarsening, seed: u64) -> Vec<Cf> {
    let stage1 = coarsen(s, method, seed);
    let c_mask: Vec<bool> = stage1.iter().map(|&c| c == Cf::C).collect();
    if c_mask.iter().filter(|&&c| c).count() <= 1 {
        return stage1;
    }
    let s2 = distance2_strength(s, &c_mask);
    let s2t = s2.transpose();
    let strength2 = Strength { s: s2, st: s2t };
    pmis_on_subset(strength2.s(), &strength2, &c_mask, seed.wrapping_add(1))
}

impl Strength {
    fn s(&self) -> &asyncmg_sparse::Csr {
        &self.s
    }
}

/// Classical Ruge-Stüben first pass with the influence-count measure.
///
/// Greedily picks the undecided point with the largest measure
/// `λ_i = |Sᵀ_i ∩ undecided| (+ bonus for F-neighbours)`, makes it C, makes
/// everything that strongly depends on it F, and bumps the measures of
/// those F-points' other dependencies.
fn rs_first_pass(s: &Strength) -> Vec<Cf> {
    let n = s.n();
    let mut cf = vec![Cf::Undecided; n];
    let mut measure: Vec<i64> = (0..n).map(|i| s.influences(i).len() as i64).collect();
    // Bucket queue with lazy deletion.
    let max_m = measure.iter().copied().max().unwrap_or(0).max(0) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_m + 1 + n];
    for i in 0..n {
        buckets[measure[i] as usize].push(i as u32);
    }
    let mut top = buckets.len() - 1;
    let mut decided = 0usize;

    // Points that influence nothing and depend on nothing can never
    // contribute to interpolation; they become F immediately.
    for i in 0..n {
        if s.influences(i).is_empty() && s.deps(i).is_empty() {
            cf[i] = Cf::F;
            decided += 1;
        }
    }

    while decided < n {
        // Pop the highest-measure undecided point.
        let i = loop {
            while top > 0 && buckets[top].is_empty() {
                top -= 1;
            }
            match buckets[top].pop() {
                Some(cand) => {
                    let c = cand as usize;
                    if cf[c] == Cf::Undecided && measure[c] as usize == top {
                        break Some(c);
                    }
                }
                None => break None,
            }
        };
        let Some(i) = i else { break };
        cf[i] = Cf::C;
        decided += 1;
        // Everything that strongly depends on i becomes F.
        for &j in s.influences(i) {
            let ju = j as usize;
            if cf[ju] == Cf::Undecided {
                cf[ju] = Cf::F;
                decided += 1;
                // New F-point: its other undecided dependencies become more
                // attractive C candidates.
                for &k in s.deps(ju) {
                    let ku = k as usize;
                    if cf[ku] == Cf::Undecided {
                        measure[ku] += 1;
                        let m = measure[ku] as usize;
                        if m >= buckets.len() {
                            buckets.resize(m + 1, Vec::new());
                        }
                        buckets[m].push(k);
                        if m > top {
                            top = m;
                        }
                    }
                }
            }
        }
    }
    // Anything left over (isolated cycles) becomes F.
    for c in &mut cf {
        if *c == Cf::Undecided {
            *c = Cf::F;
        }
    }
    cf
}

/// PMIS restricted to `candidates`: non-candidates start as F, candidates
/// compete with weights `|influences| + U[0,1)` over the edges of `graph`.
fn pmis_on_subset(
    graph: &asyncmg_sparse::Csr,
    s: &Strength,
    candidates: &[bool],
    seed: u64,
) -> Vec<Cf> {
    let n = s.n();
    let mut rng = SplitMix64(seed ^ 0xD1B54A32D192ED03);
    let mut cf = vec![Cf::Undecided; n];
    let mut weight = vec![0.0f64; n];
    let gt = graph.transpose();
    for i in 0..n {
        if !candidates[i] {
            cf[i] = Cf::F;
            continue;
        }
        let infl = gt.row(i).0.len();
        weight[i] = infl as f64 + rng.next_f64();
        // A candidate with no strong connections at all can neither
        // interpolate nor be interpolated: keep it as C so its equation
        // reaches the coarse grid (BoomerAMG keeps such points too when they
        // arise from subset restriction).
        if infl == 0 && graph.row(i).0.is_empty() {
            cf[i] = Cf::C;
        }
    }
    loop {
        let mut changed = false;
        // Select the distributed independent set: undecided points that are
        // local weight maxima over undecided neighbours.
        let mut new_c: Vec<usize> = Vec::new();
        for i in 0..n {
            if cf[i] != Cf::Undecided {
                continue;
            }
            let mut is_max = true;
            for &j in graph.row(i).0.iter().chain(gt.row(i).0) {
                let ju = j as usize;
                if cf[ju] == Cf::Undecided && weight[ju] >= weight[i] && ju != i {
                    // Ties are impossible w.p. 1; resolve deterministically.
                    if weight[ju] > weight[i] || ju > i {
                        is_max = false;
                        break;
                    }
                }
            }
            if is_max {
                new_c.push(i);
            }
        }
        for &i in &new_c {
            if cf[i] == Cf::Undecided {
                cf[i] = Cf::C;
                changed = true;
            }
        }
        // Undecided points that strongly depend on a new C point become F.
        for i in 0..n {
            if cf[i] == Cf::Undecided {
                let has_c_dep = graph.row(i).0.iter().any(|&j| cf[j as usize] == Cf::C);
                if has_c_dep {
                    cf[i] = Cf::F;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if cf.iter().all(|&c| c != Cf::Undecided) {
            break;
        }
    }
    for c in &mut cf {
        if *c == Cf::Undecided {
            *c = Cf::F;
        }
    }
    cf
}

/// HMIS: RS first pass, then PMIS over the RS C-points with distance-1
/// strength edges.
fn hmis(s: &Strength, seed: u64) -> Vec<Cf> {
    let stage1 = rs_first_pass(s);
    let c_mask: Vec<bool> = stage1.iter().map(|&c| c == Cf::C).collect();
    if c_mask.iter().filter(|&&c| c).count() <= 1 {
        return stage1;
    }
    pmis_on_subset(&s.s, s, &c_mask, seed)
}

/// Counts C points.
pub fn n_coarse(cf: &[Cf]) -> usize {
    cf.iter().filter(|&&c| c == Cf::C).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strength::classical_strength;
    use asyncmg_sparse::{Coo, Csr};

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

    fn laplace2d(n: usize) -> Csr {
        let m = n * n;
        let mut c = Coo::new(m, m);
        for j in 0..n {
            for i in 0..n {
                let id = i + n * j;
                c.push(id, id, 4.0);
                if i > 0 {
                    c.push(id, id - 1, -1.0);
                }
                if i + 1 < n {
                    c.push(id, id + 1, -1.0);
                }
                if j > 0 {
                    c.push(id, id - n, -1.0);
                }
                if j + 1 < n {
                    c.push(id, id + n, -1.0);
                }
            }
        }
        c.to_csr()
    }

    fn check_valid_split(s: &Strength, cf: &[Cf]) {
        // No undecided points remain.
        assert!(cf.iter().all(|&c| c != Cf::Undecided));
        // Nontrivial split on connected graphs.
        let nc = n_coarse(cf);
        assert!(nc > 0);
        assert!(nc < cf.len(), "everything became C");
        let _ = s;
    }

    #[test]
    fn rs_splits_1d_line() {
        let a = laplace1d(20);
        let s = classical_strength(&a, 0.25);
        let cf = rs_first_pass(&s);
        check_valid_split(&s, &cf);
        // 1-D line: every F point must have a strong C neighbour.
        for i in 0..20 {
            if cf[i] == Cf::F {
                assert!(
                    s.deps(i).iter().any(|&j| cf[j as usize] == Cf::C),
                    "F point {i} has no C neighbour"
                );
            }
        }
        // Roughly half the points coarse.
        let nc = n_coarse(&cf);
        assert!((6..=14).contains(&nc), "nc={nc}");
    }

    #[test]
    fn pmis_splits_2d_grid() {
        let a = laplace2d(10);
        let s = classical_strength(&a, 0.25);
        let cf = coarsen(&s, Coarsening::Pmis, 42);
        check_valid_split(&s, &cf);
        // PMIS: C points form an independent set in the strength graph.
        for i in 0..100 {
            if cf[i] == Cf::C {
                for &j in s.deps(i) {
                    assert_ne!(cf[j as usize], Cf::C, "adjacent C points {i},{j}");
                }
            }
        }
        // Every F point has a strong C neighbour (grid is connected).
        for i in 0..100 {
            if cf[i] == Cf::F {
                assert!(s.deps(i).iter().any(|&j| cf[j as usize] == Cf::C));
            }
        }
    }

    #[test]
    fn hmis_coarser_than_rs() {
        let a = laplace2d(12);
        let s = classical_strength(&a, 0.25);
        let rs = n_coarse(&rs_first_pass(&s));
        let hm = n_coarse(&hmis(&s, 7));
        assert!(hm <= rs, "HMIS ({hm}) should not exceed RS ({rs})");
        assert!(hm > 0);
    }

    #[test]
    fn aggressive_coarser_than_plain() {
        let a = laplace2d(16);
        let s = classical_strength(&a, 0.25);
        let plain = n_coarse(&coarsen(&s, Coarsening::Hmis, 3));
        let agg = n_coarse(&aggressive_coarsen(&s, Coarsening::Hmis, 3));
        assert!(agg < plain, "aggressive {agg} vs plain {plain}");
        assert!(agg > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = laplace2d(8);
        let s = classical_strength(&a, 0.25);
        let c1 = coarsen(&s, Coarsening::Pmis, 5);
        let c2 = coarsen(&s, Coarsening::Pmis, 5);
        assert_eq!(c1, c2);
    }

    #[test]
    fn isolated_points_become_f_in_rs() {
        let s = classical_strength(&Csr::identity(4), 0.25);
        let cf = rs_first_pass(&s);
        assert!(cf.iter().all(|&c| c == Cf::F));
    }

    #[test]
    fn two_point_system() {
        let a = laplace1d(2);
        let s = classical_strength(&a, 0.25);
        for method in [Coarsening::Rs, Coarsening::Pmis, Coarsening::Hmis] {
            let cf = coarsen(&s, method, 1);
            assert_eq!(n_coarse(&cf), 1, "{method:?}");
        }
    }
}
