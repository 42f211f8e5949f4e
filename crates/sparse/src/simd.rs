//! The shared sparse-dot kernel `dot4`, and the process-wide switch for the
//! explicit-SIMD kernels built around its accumulation order.
//!
//! Every row-oriented kernel in this crate accumulates through one scheme:
//! four independent lanes over the row's nonzeros (entry `k` lands in lane
//! `k mod 4`), combined as `(a0 + a1) + (a2 + a3) + tail`, where `tail` sums
//! the last `n mod 4` entries (see [`dot4_scalar`]). Any kernel that keeps
//! lane `j` doing the same multiplies and adds in the same order, and reduces
//! with the same parenthesisation, is **bit-identical** to that loop. No FMA
//! is used anywhere — fusing the multiply and add would change the rounding
//! and break the bit-identity contract the deterministic-replay harness
//! depends on.
//!
//! ## Where SIMD is used, and where it is not
//!
//! Explicit SIMD lives only in kernels whose vector lanes map to *rows*, so
//! every load is contiguous: the across-row stencil plan of
//! [`crate::stencil`] (AVX-512 / AVX2) and the AVX-512 3×3 block-row kernel
//! of [`crate::bsr`]. The per-row dot itself is **scalar on x86-64**. Putting
//! one row's four accumulators in one vector register needs a hardware
//! gather (`vgatherdpd`) per four nonzeros, and on the reference host that
//! costs 2.47 ns/nnz against 0.72 ns/nnz for the scalar loop below (27pt
//! n=24, `Csr::spmv_block(1)`) — a loss no mode should be able to select, so
//! there is no such kernel. On aarch64 [`dot4`] has a NEON
//! variant that fetches `x` with scalar loads (no vector gather to lose to).
//!
//! Selection is process-global: the `ASYNCMG_SIMD` environment variable
//! (`off`/`0`/`scalar` disables; anything else, `force`/`on`/`1` included,
//! auto-detects) read once at first use, overridable at runtime with
//! [`set_mode`] (a test and `simd_guard` knob). Because every SIMD kernel is
//! bit-identical to the scalar one, switching modes never changes any
//! numerical result — only which instructions produce it.

use std::sync::atomic::{AtomicU8, Ordering};

/// How the explicit-SIMD kernels (stencil plan, BSR block rows, NEON `dot4`)
/// are picked over their scalar twins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SimdMode {
    /// Use SIMD when the CPU supports it (the default).
    Auto = 1,
    /// Always use the scalar loop.
    Off = 2,
}

// 0 = unresolved (read env on first use), otherwise a `SimdMode as u8`.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The mode an `ASYNCMG_SIMD` value selects. `force`/`on`/`1` are accepted
/// spellings of the default: `Auto` already uses SIMD wherever the CPU can
/// run it, so there is nothing further to force.
fn mode_from(value: Option<&str>) -> SimdMode {
    match value {
        Some("off") | Some("0") | Some("scalar") => SimdMode::Off,
        _ => SimdMode::Auto,
    }
}

/// Overrides the SIMD mode for this process (tests and the `simd_guard`
/// bin use this; production code normally leaves the environment-derived
/// default alone). Numerical results are unaffected — the SIMD paths are
/// bit-identical to the scalar one.
pub fn set_mode(mode: SimdMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The currently selected [`SimdMode`].
#[inline]
pub fn mode() -> SimdMode {
    if resolve_mode() == SimdMode::Off as u8 {
        SimdMode::Off
    } else {
        SimdMode::Auto
    }
}

#[inline]
fn resolve_mode() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m != 0 {
        return m;
    }
    let m = mode_from(std::env::var("ASYNCMG_SIMD").ok().as_deref()) as u8;
    // A racing set_mode wins: only replace the unresolved sentinel.
    let _ = MODE.compare_exchange(0, m, Ordering::Relaxed, Ordering::Relaxed);
    MODE.load(Ordering::Relaxed)
}

/// Whether this CPU can run the explicit-SIMD kernels at all.
#[inline]
pub fn supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // Cached by std after the first query.
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true // NEON is part of the AArch64 baseline.
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Whether the explicit-SIMD kernels are currently selected: the mode is not
/// [`SimdMode::Off`] and the CPU [`supported`] them.
#[inline]
pub fn active() -> bool {
    mode() == SimdMode::Auto && supported()
}

/// Whether the widened AVX-512 variants of the blocked and stencil kernels
/// can run on this CPU. They need masked loads/stores and two-source
/// permutes on 256-bit vectors in addition to the 512-bit foundation:
/// `avx512f` + `avx512vl`.
#[inline]
pub fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // Cached by std after the first query.
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The best vector capability this CPU *has*, independent of the current
/// mode: `"avx512"`, `"avx2"`, `"neon"` or `"scalar"`. Host fingerprints use
/// this so a scalar-mode measurement still records what the machine supports.
/// (The per-row [`dot4`] is scalar on x86-64 whatever this says.)
pub fn capability_name() -> &'static str {
    if !supported() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_supported() {
            "avx512"
        } else {
            "avx2"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "scalar"
    }
}

/// The scalar reference implementation: four independent accumulators
/// (hides the FMA latency chain) with `get_unchecked` indexing, entry `k`
/// in lane `k mod 4`, the last `n mod 4` entries in a separate `tail`
/// accumulator, combined as `(a0 + a1) + (a2 + a3) + tail`.
///
/// This is the kernel every SIMD path must reproduce bit for bit, and on
/// x86-64 it *is* [`dot4`].
#[inline(always)]
pub fn dot4_scalar(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    let n = vals.len();
    debug_assert_eq!(cols.len(), n);
    debug_assert!(cols.iter().all(|&c| (c as usize) < x.len()));
    let n4 = n & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0;
    while k < n4 {
        // SAFETY: `k + 3 < n4 <= n` bounds vals/cols; every stored column
        // index is `< ncols <= x.len()` (validated by `Csr::from_raw`,
        // checked by the `debug_assert` above).
        unsafe {
            a0 += *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize);
            a1 +=
                *vals.get_unchecked(k + 1) * *x.get_unchecked(*cols.get_unchecked(k + 1) as usize);
            a2 +=
                *vals.get_unchecked(k + 2) * *x.get_unchecked(*cols.get_unchecked(k + 2) as usize);
            a3 +=
                *vals.get_unchecked(k + 3) * *x.get_unchecked(*cols.get_unchecked(k + 3) as usize);
        }
        k += 4;
    }
    let mut tail = 0.0f64;
    while k < n {
        // SAFETY: as above, `k < n`.
        unsafe {
            tail += *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize);
        }
        k += 1;
    }
    (a0 + a1) + (a2 + a3) + tail
}

/// NEON lane-exact `dot4`: lanes `(a0, a1)` and `(a2, a3)` live in two
/// 2×f64 vectors; `x` is gathered with scalar loads (AArch64 has no vector
/// gather), values load contiguously, `mul` + `add` (no FMA).
#[cfg(target_arch = "aarch64")]
unsafe fn dot4_neon(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    use core::arch::aarch64::*;
    let n = vals.len();
    let n4 = n & !3;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    let mut k = 0;
    while k < n4 {
        // SAFETY: `k + 3 < n4 <= n` bounds vals/cols; every column index is
        // `< x.len()` (validated by `Csr::from_raw`).
        let x01 = [
            *x.get_unchecked(*cols.get_unchecked(k) as usize),
            *x.get_unchecked(*cols.get_unchecked(k + 1) as usize),
        ];
        let x23 = [
            *x.get_unchecked(*cols.get_unchecked(k + 2) as usize),
            *x.get_unchecked(*cols.get_unchecked(k + 3) as usize),
        ];
        let v01 = vld1q_f64(vals.as_ptr().add(k));
        let v23 = vld1q_f64(vals.as_ptr().add(k + 2));
        acc01 = vaddq_f64(acc01, vmulq_f64(v01, vld1q_f64(x01.as_ptr())));
        acc23 = vaddq_f64(acc23, vmulq_f64(v23, vld1q_f64(x23.as_ptr())));
        k += 4;
    }
    let a0 = vgetq_lane_f64::<0>(acc01);
    let a1 = vgetq_lane_f64::<1>(acc01);
    let a2 = vgetq_lane_f64::<0>(acc23);
    let a3 = vgetq_lane_f64::<1>(acc23);
    let mut tail = 0.0f64;
    while k < n {
        // SAFETY: `k < n`; column in range as above.
        tail += *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize);
        k += 1;
    }
    (a0 + a1) + (a2 + a3) + tail
}

/// Shared sparse dot kernel `Σ_k vals[k] · x[col[k]]`: [`dot4_scalar`],
/// except on aarch64 where the bit-identical NEON variant runs while
/// [`active`]. See the module docs for why x86-64 has no vector variant.
#[inline(always)]
pub fn dot4(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    #[cfg(target_arch = "aarch64")]
    {
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert!(cols.iter().all(|&c| (c as usize) < x.len()));
        if active() {
            // SAFETY: NEON is baseline on AArch64; slice lengths and column
            // ranges are checked by the debug_asserts above and guaranteed
            // by `Csr::from_raw` for matrix-derived calls.
            return unsafe { dot4_neon(vals, cols, x) };
        }
    }
    dot4_scalar(vals, cols, x)
}

/// Serialises tests that mutate or assert on the process-global SIMD mode
/// (the test harness runs tests concurrently; results are mode-independent
/// by bit-identity, but assertions *about the mode itself* are not).
#[cfg(test)]
pub(crate) fn test_mode_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values (splitmix64-style mixing).
    fn mixed(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(0x94d0_49bb_1331_11eb);
                ((s >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn cols_mod(n: usize, xlen: usize, seed: u64) -> Vec<u32> {
        let mut s = seed ^ 0x5851_f42d_4c95_7f2d;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(0x94d0_49bb_1331_11eb);
                ((s >> 33) as usize % xlen) as u32
            })
            .collect()
    }

    #[test]
    fn simd_matches_scalar_at_every_lane_remainder() {
        let _guard = test_mode_lock();
        // Lengths covering remainders 0..=7 twice, plus degenerate cases.
        let x = mixed(97, 1);
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 31, 64, 100] {
            let vals = mixed(n, 2 + n as u64);
            let cols = cols_mod(n, x.len(), 3 + n as u64);
            let scalar = dot4_scalar(&vals, &cols, &x);
            set_mode(SimdMode::Auto);
            let auto = dot4(&vals, &cols, &x);
            set_mode(SimdMode::Off);
            let off = dot4(&vals, &cols, &x);
            set_mode(SimdMode::Auto);
            assert_eq!(auto.to_bits(), scalar.to_bits(), "auto, n={n}");
            assert_eq!(off.to_bits(), scalar.to_bits(), "off, n={n}");
        }
    }

    #[test]
    fn mode_knob_round_trips() {
        let _guard = test_mode_lock();
        set_mode(SimdMode::Off);
        assert_eq!(mode(), SimdMode::Off);
        assert!(!active());
        set_mode(SimdMode::Auto);
        assert_eq!(mode(), SimdMode::Auto);
        assert_eq!(active(), supported());

        for v in [None, Some("auto"), Some("force"), Some("on"), Some("1")] {
            assert_eq!(mode_from(v), SimdMode::Auto, "{v:?}");
        }
        for v in [Some("off"), Some("0"), Some("scalar")] {
            assert_eq!(mode_from(v), SimdMode::Off, "{v:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The lane contract: dot4 bit-identical to dot4_scalar at every
        // lane remainder 0..=7 (lengths 4·blocks + rem cover each remainder
        // class with and without a full vector body), on random values,
        // random column patterns and every mode. Trivially true on x86-64,
        // where dot4 is the scalar loop; load-bearing for NEON on aarch64.
        #[test]
        fn dot4_bit_identical_across_modes(
            rem in 0usize..8,
            blocks in 0usize..6,
            xlen in 1usize..64,
            seed in 0u64..1_000_000,
        ) {
            let _guard = super::test_mode_lock();
            let n = blocks * 4 + rem;
            let mut rng = StdRng::seed_from_u64(seed);
            let x: Vec<f64> = (0..xlen).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let cols: Vec<u32> = (0..n).map(|_| rng.gen_range(0..xlen) as u32).collect();
            let reference = dot4_scalar(&vals, &cols, &x);
            for m in [SimdMode::Off, SimdMode::Auto] {
                set_mode(m);
                let got = dot4(&vals, &cols, &x);
                set_mode(SimdMode::Auto);
                prop_assert_eq!(got.to_bits(), reference.to_bits());
            }
        }
    }
}
