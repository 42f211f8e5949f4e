//! Host calibration: measure, once per machine, which kernels pay off.
//!
//! The thread-count heuristics and kernel defaults in this workspace were
//! tuned on one development box; the whole point of an *environment-aware*
//! perf layer is to stop hard-coding them. This module measures, on the
//! actual host:
//!
//! * the **serial/parallel crossover** for the setup-phase kernels (the
//!   smallest matrix where a 2-thread transpose beats the serial one), which
//!   drives [`auto_setup_threads`](crate::parallel::auto_setup_threads);
//! * the **CSR/BSR speedup** on a 3×3 block-dense operator, which drives
//!   `KernelSelect::Auto`.
//!
//! ## Determinism rules
//!
//! Library code never measures implicitly — a timing loop inside
//! `build_hierarchy` would make test runs machine-load-dependent. Instead:
//!
//! * [`get`] only *loads* a cached calibration (from
//!   `$ASYNCMG_CALIBRATION_FILE`, else `~/.cache/asyncmg/calibration.json`),
//!   validated against the current [`HostFingerprint`] and format version;
//!   absent or stale caches silently fall back to the built-in defaults.
//!   Setting `ASYNCMG_CALIBRATE=1` additionally measures-and-saves on first
//!   use (opt-in, for long-running production processes).
//! * [`Calibration::measure`] and [`Calibration::save`] measure and save
//!   unconditionally; the `calibrate` bin in `asyncmg-bench` (see
//!   `tools/calibrate.sh`) calls them explicitly.
//!
//! Whatever the calibration says, results never change — kernel and thread
//! choices are bit-transparent by construction — and the values are clamped
//! to the documented safe ranges so a corrupt cache cannot produce
//! pathological behaviour.

use crate::bsr::Bsr;
use crate::coo::Coo;
use crate::csr::Csr;
use crate::simd;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Format version of the cache file; bump when the measurement scheme or
/// schema changes so stale caches re-measure instead of mis-parsing.
pub const CALIBRATION_VERSION: u32 = 2;

/// Floor for the calibrated parallel-crossover threshold: below this many
/// nonzeros a fork-join can never pay for itself, and the clamp keeps the
/// small-matrix-stays-serial invariant the tests rely on even under a
/// corrupt cache.
pub const MIN_NNZ_PER_THREAD_FLOOR: usize = 16 * 1024;

/// Hard cap on setup threads, matching the pre-calibration heuristic.
pub const MAX_SETUP_THREADS_CAP: usize = 8;

/// Identity of the machine a calibration was measured on. A cached file
/// whose fingerprint differs from the running host is ignored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Target architecture (`x86_64`, `aarch64`, ...).
    pub arch: String,
    /// Available hardware parallelism (`nproc`).
    pub nproc: usize,
    /// Best instruction set the explicit-SIMD kernels can use on this CPU
    /// (`avx512`, `avx2`, `neon` or `scalar`) — independent of the current
    /// runtime mode.
    pub simd: String,
}

impl HostFingerprint {
    /// Fingerprint of the machine this process runs on.
    pub fn current() -> HostFingerprint {
        HostFingerprint {
            arch: std::env::consts::ARCH.to_string(),
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            simd: simd::capability_name().to_string(),
        }
    }
}

/// Measured kernel characteristics of one host.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    /// The machine the numbers were measured on.
    pub fingerprint: HostFingerprint,
    /// Nonzeros per thread below which setup kernels stay serial.
    pub min_nnz_per_thread: usize,
    /// Largest setup-kernel team worth forking on this host.
    pub max_setup_threads: usize,
    /// Measured BSR-over-CSR SpMV speedup on a 3×3 block operator.
    pub bsr_speedup: f64,
    /// Whether `KernelSelect::Auto` should install BSR operators.
    pub use_bsr: bool,
}

impl Default for Calibration {
    /// The built-in assumptions used when no calibration is cached: the
    /// historical 64 Ki-nnz crossover, up to 8 setup threads, and "BSR is
    /// worth it wherever applicable".
    fn default() -> Calibration {
        Calibration {
            fingerprint: HostFingerprint::current(),
            min_nnz_per_thread: 64 * 1024,
            max_setup_threads: MAX_SETUP_THREADS_CAP,
            bsr_speedup: 1.0,
            use_bsr: true,
        }
    }
}

/// Where the calibration cache lives: `$ASYNCMG_CALIBRATION_FILE` if set,
/// else `$XDG_CACHE_HOME/asyncmg/calibration.json`, else
/// `~/.cache/asyncmg/calibration.json`. `None` when no home directory can
/// be determined.
pub fn cache_path() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("ASYNCMG_CALIBRATION_FILE") {
        if !p.is_empty() {
            return Some(PathBuf::from(p));
        }
    }
    let base = match std::env::var("XDG_CACHE_HOME") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => {
            let home = std::env::var("HOME").ok().filter(|h| !h.is_empty())?;
            PathBuf::from(home).join(".cache")
        }
    };
    Some(base.join("asyncmg").join("calibration.json"))
}

impl Calibration {
    /// Serialises to the cache-file JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"version\": {},\n  \"fingerprint\": {{ \"arch\": \"{}\", \"nproc\": {}, \"simd\": \"{}\" }},\n  \"min_nnz_per_thread\": {},\n  \"max_setup_threads\": {},\n  \"bsr_speedup\": {:.3},\n  \"use_bsr\": {}\n}}\n",
            CALIBRATION_VERSION,
            self.fingerprint.arch,
            self.fingerprint.nproc,
            self.fingerprint.simd,
            self.min_nnz_per_thread,
            self.max_setup_threads,
            self.bsr_speedup,
            self.use_bsr,
        )
    }

    /// Parses a cache file. Returns `None` on malformed input or a format
    /// version other than [`CALIBRATION_VERSION`].
    pub fn from_json(s: &str) -> Option<Calibration> {
        if json_num(s, "version")? as u32 != CALIBRATION_VERSION {
            return None;
        }
        Some(Calibration {
            fingerprint: HostFingerprint {
                arch: json_str(s, "arch")?,
                nproc: json_num(s, "nproc")? as usize,
                simd: json_str(s, "simd")?,
            },
            min_nnz_per_thread: json_num(s, "min_nnz_per_thread")? as usize,
            max_setup_threads: json_num(s, "max_setup_threads")? as usize,
            bsr_speedup: json_num(s, "bsr_speedup")?,
            use_bsr: json_bool(s, "use_bsr")?,
        })
    }

    /// Clamps every field to its documented safe range.
    fn clamped(mut self) -> Calibration {
        self.min_nnz_per_thread = self.min_nnz_per_thread.clamp(MIN_NNZ_PER_THREAD_FLOOR, 1 << 24);
        self.max_setup_threads = self.max_setup_threads.clamp(1, MAX_SETUP_THREADS_CAP);
        self
    }

    /// Loads the cached calibration if present, parseable, current-version
    /// and measured on this machine.
    pub fn load() -> Option<Calibration> {
        let path = cache_path()?;
        let text = std::fs::read_to_string(path).ok()?;
        let cal = Calibration::from_json(&text)?;
        if cal.fingerprint != HostFingerprint::current() {
            return None;
        }
        Some(cal.clamped())
    }

    /// Writes this calibration to the cache path, creating parent
    /// directories as needed.
    pub fn save(&self) -> std::io::Result<()> {
        let path = cache_path().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no cache directory")
        })?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Runs the measurement pass (a few hundred milliseconds) and returns
    /// the resulting calibration. Does not touch the cache; see
    /// [`Calibration::save`].
    pub fn measure() -> Calibration {
        let fp = HostFingerprint::current();

        // --- CSR vs BSR SpMV on a 3×3 block-dense operator (compared with
        //     the ambient SIMD setting on both sides) ---
        let ab = block3_csr(6_000);
        let bsr = Bsr::from_csr(&ab, 3).expect("generator is 3-aligned");
        debug_assert_eq!(bsr.fill(), 0);
        let xb = vec![0.25; ab.ncols()];
        let mut yb = vec![0.0; ab.nrows()];
        let t_csr = time_min(5, || ab.spmv(&xb, &mut yb));
        let t_bsr = time_min(5, || bsr.spmv(&xb, &mut yb));
        let bsr_speedup = if t_bsr > 0.0 { t_csr / t_bsr } else { 1.0 };

        // --- serial/parallel crossover for the setup kernels ---
        let (min_nnz_per_thread, max_setup_threads) = if fp.nproc < 2 {
            // No second core: parallel setup can only lose.
            (64 * 1024, 1)
        } else {
            let mut crossover = None;
            for rows in [2_000usize, 4_000, 8_000, 16_000, 32_000] {
                let m = banded_csr(rows, 27);
                let t1 = time_min(3, || drop(crate::parallel::transpose_parallel(&m, 1)));
                let t2 = time_min(3, || drop(crate::parallel::transpose_parallel(&m, 2)));
                if t2 < t1 * 0.9 {
                    crossover = Some(m.nnz() / 2);
                    break;
                }
            }
            match crossover {
                Some(c) => (c, fp.nproc.min(MAX_SETUP_THREADS_CAP)),
                None => (1 << 24, 1),
            }
        };

        Calibration {
            fingerprint: fp,
            min_nnz_per_thread,
            max_setup_threads,
            bsr_speedup,
            use_bsr: bsr_speedup >= 1.05,
        }
        .clamped()
    }
}

static LOADED: OnceLock<Option<Calibration>> = OnceLock::new();

/// The process-wide calibration, if one is available.
///
/// Loads the cache on first call (and, when `ASYNCMG_CALIBRATE=1`, measures
/// and saves if the cache is absent or stale). Returns `None` when nothing
/// is cached — callers fall back to the built-in defaults. Never measures
/// unless explicitly opted in, so test runs stay machine-load-independent.
pub fn get() -> Option<&'static Calibration> {
    LOADED
        .get_or_init(|| {
            if let Some(c) = Calibration::load() {
                return Some(c);
            }
            if std::env::var("ASYNCMG_CALIBRATE").is_ok_and(|v| v == "1") {
                let c = Calibration::measure();
                let _ = c.save();
                return Some(c);
            }
            None
        })
        .as_ref()
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_min<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// A square banded matrix with `diags` diagonals (27 ≈ the 27-point
/// stencil's row density), used as the measurement workload.
fn banded_csr(n: usize, diags: usize) -> Csr {
    let half = diags / 2;
    let mut c = Coo::new(n, n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        for j in lo..hi {
            c.push(i, j, if i == j { diags as f64 } else { -1.0 / (diags as f64) });
        }
    }
    c.to_csr()
}

/// A 3×3 block-dense band matrix (`nbr` block rows, up to 9 blocks per
/// block row), the elasticity-like BSR measurement workload.
fn block3_csr(nbr: usize) -> Csr {
    let mut c = Coo::new(nbr * 3, nbr * 3);
    for bi in 0..nbr {
        let lo = bi.saturating_sub(4);
        let hi = (bi + 5).min(nbr);
        for bj in lo..hi {
            for r in 0..3 {
                for cc in 0..3 {
                    let v = if bi == bj && r == cc { 12.0 } else { -0.125 };
                    c.push(bi * 3 + r, bj * 3 + cc, v);
                }
            }
        }
    }
    c.to_csr()
}

// --- minimal flat-JSON field extraction (the cache schema is flat and
// generated by `to_json`; this is not a general JSON parser) ---

fn json_field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = s.find(&pat)? + pat.len();
    let rest = s[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    Some(rest)
}

fn json_num(s: &str, key: &str) -> Option<f64> {
    let rest = json_field(s, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_bool(s: &str, key: &str) -> Option<bool> {
    let rest = json_field(s, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn json_str(s: &str, key: &str) -> Option<String> {
    let rest = json_field(s, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let cal = Calibration {
            fingerprint: HostFingerprint { arch: "x86_64".into(), nproc: 4, simd: "avx2".into() },
            min_nnz_per_thread: 123_456,
            max_setup_threads: 4,
            bsr_speedup: 1.5,
            use_bsr: false,
        };
        let parsed = Calibration::from_json(&cal.to_json()).unwrap();
        assert_eq!(parsed, cal);
    }

    #[test]
    fn version_mismatch_rejected() {
        let cal = Calibration::default();
        let bumped = cal.to_json().replace(
            &format!("\"version\": {CALIBRATION_VERSION}"),
            &format!("\"version\": {}", CALIBRATION_VERSION + 1),
        );
        assert!(Calibration::from_json(&bumped).is_none());
        assert!(Calibration::from_json("not json at all").is_none());
        // A cache file as format version 1 wrote it: ignored whole, not
        // read for the fields the two versions share.
        let v1 = r#"{
  "version": 1,
  "fingerprint": { "arch": "x86_64", "nproc": 4, "simd": "avx2" },
  "min_nnz_per_thread": 123456,
  "max_setup_threads": 4,
  "simd_speedup": 2.125,
  "bsr_speedup": 1.500,
  "use_simd": true,
  "use_bsr": false
}
"#;
        assert!(Calibration::from_json(v1).is_none());
    }

    #[test]
    fn clamps_hold() {
        let wild = Calibration {
            min_nnz_per_thread: 0,
            max_setup_threads: 10_000,
            ..Calibration::default()
        }
        .clamped();
        assert_eq!(wild.min_nnz_per_thread, MIN_NNZ_PER_THREAD_FLOOR);
        assert_eq!(wild.max_setup_threads, MAX_SETUP_THREADS_CAP);
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        assert_eq!(HostFingerprint::current(), HostFingerprint::current());
        assert!(HostFingerprint::current().nproc >= 1);
    }
}
