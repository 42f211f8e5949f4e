//! Dense vector kernels with row-range variants.
//!
//! Each kernel mirrors one of the OpenMP `parallel for` loops of the paper's
//! implementation; the `_rows` variants operate on a sub-range so a thread
//! team can statically partition the loop.

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

/// Partial dot product over `rows`.
fn dot_rows(rows: std::ops::Range<usize>, x: &[f64], y: &[f64]) -> f64 {
    rows.map(|i| x[i] * y[i]).sum()
}

/// Full dot product.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    dot_rows(0..x.len(), x, y)
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Partial sum of squares over `rows` (combine across a team, then sqrt).
pub fn sumsq_rows(rows: std::ops::Range<usize>, x: &[f64]) -> f64 {
    rows.map(|i| x[i] * x[i]).sum()
}

/// `x[rows] = 0`.
pub fn zero_rows(rows: std::ops::Range<usize>, x: &mut [f64]) {
    for v in &mut x[rows] {
        *v = 0.0;
    }
}

/// `x[rows] *= alpha`.
pub fn scale_rows(rows: std::ops::Range<usize>, alpha: f64, x: &mut [f64]) {
    for v in &mut x[rows] {
        *v *= alpha;
    }
}

/// Relative residual norm `‖b − Ax‖₂ / ‖b‖₂` given precomputed `r = b − Ax`.
pub fn rel_norm(r: &[f64], b: &[f64]) -> f64 {
    let nb = norm2(b);
    if nb == 0.0 {
        norm2(r)
    } else {
        norm2(r) / nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn dot_and_norm() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn ranged_kernels_compose() {
        let x = [1.0, -2.0, 3.0, -4.0];
        let full = dot(&x, &x);
        let split = dot_rows(0..2, &x, &x) + dot_rows(2..4, &x, &x);
        assert_eq!(full, split);

        let mut a = [0.0, -2.0, 3.0, 0.0];
        zero_rows(1..2, &mut a);
        assert_eq!(a, [0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn scale_rows_touches_only_the_range() {
        let mut z = [4.0, 4.0, 4.0];
        scale_rows(0..2, 0.5, &mut z);
        assert_eq!(z, [2.0, 2.0, 4.0]);
    }

    #[test]
    fn rel_norm_handles_zero_rhs() {
        assert_eq!(rel_norm(&[3.0, 4.0], &[0.0, 0.0]), 5.0);
        assert_eq!(rel_norm(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(rel_norm(&[1.0, 0.0], &[0.0, 2.0]), 0.5);
    }
}
