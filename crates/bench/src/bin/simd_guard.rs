//! SIMD guard: time every explicit-SIMD kernel `SimdMode::Auto` selects on
//! this host against its scalar twin, on the paper's operators, and exit
//! non-zero when one runs at less than [`SIMD_FLOOR`] of the scalar speed —
//! so a vector path that loses (as the gather `dot4` did, 3.4×) fails CI
//! instead of shipping.
//!
//! ```text
//! cargo run --release -p asyncmg-bench --bin simd_guard
//! ```

use asyncmg_problems::{rhs::random_rhs, TestSet};
use asyncmg_sparse::simd::{self, SimdMode};
use asyncmg_sparse::Bsr;
use std::hint::black_box;
use std::time::Instant;

/// Slowest an explicit-SIMD kernel may run relative to its scalar twin: wide
/// enough for a noisy shared runner, far inside any real loss.
const SIMD_FLOOR: f64 = 0.8;

/// Best-of-7 seconds per call of `kernel` under `mode` (20 calls per timing).
fn time_under(mode: SimdMode, kernel: &mut dyn FnMut()) -> f64 {
    simd::set_mode(mode);
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..20 {
            kernel();
        }
        best = best.min(t.elapsed().as_secs_f64() / 20.0);
    }
    best
}

/// Times `kernel` under `Off` and under `Auto`, prints both times and the
/// speed ratio, and returns whether the ratio clears [`SIMD_FLOOR`].
fn holds_up(name: &str, kernel: &mut dyn FnMut()) -> bool {
    let scalar = time_under(SimdMode::Off, kernel);
    let auto = time_under(SimdMode::Auto, kernel);
    let ratio = scalar / auto;
    let ok = ratio >= SIMD_FLOOR;
    eprintln!(
        "{name}: scalar {:.1} us, simd {:.1} us, speed ratio {ratio:.2} (floor {SIMD_FLOOR}) {}",
        scalar * 1e6,
        auto * 1e6,
        if ok { "ok" } else { "LOSES" }
    );
    ok
}

/// The guard over every explicit-SIMD kernel `Auto` selects: the
/// stencil-plan SpMV against scalar row dots on 27pt, and the 3×3 block-row
/// SIMD kernel against `bdot3_scalar` on elasticity.
fn simd_paths_hold_up() -> bool {
    let prev = simd::mode();
    let a = TestSet::TwentySevenPt.matrix(24);
    let e = TestSet::Elasticity.matrix(32);
    let bsr = Bsr::from_csr(&e, 3).expect("elasticity has 3 dofs per node");
    let (xa, xe) = (random_rhs(a.ncols(), 1), random_rhs(e.ncols(), 1));
    let (mut ya, mut ye) = (vec![0.0; a.nrows()], vec![0.0; e.nrows()]);
    let stencil =
        holds_up("27pt n=24 CSR spmv (stencil plan)", &mut || a.spmv(black_box(&xa), &mut ya));
    let block = holds_up("elasticity n=32 BSR 3x3 spmv", &mut || bsr.spmv(black_box(&xe), &mut ye));
    simd::set_mode(prev);
    stencil && block
}

fn main() {
    if !simd::supported() {
        eprintln!("no explicit-SIMD kernels on this host; nothing to guard");
    } else if !simd_paths_hold_up() {
        eprintln!("error: an explicit-SIMD kernel Auto selects is slower than its scalar twin");
        std::process::exit(1);
    }
}
