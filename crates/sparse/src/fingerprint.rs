//! Content fingerprints: a small FNV-1a digest ([`Fnv`]) and the [`Csr`]
//! matrix fingerprint ([`fingerprint_csr`], a word-wise hash of its own).
//!
//! The digest started life in `asyncmg-harness` as the engine behind run
//! fingerprints (hashing solution bits and telemetry event streams for
//! replay comparisons), which is why it stays byte-wise and frozen: goldens
//! are built on it. The solver service needs a content key one layer lower —
//! a hierarchy cache keys built AMG setups by the *content* of the system
//! matrix — and pays for it on every cold request, so the matrix fingerprint
//! hashes whole 64-bit words over four independent lanes instead of folding
//! the arrays through [`Fnv`] byte by byte.

use crate::csr::Csr;

/// FNV-1a, 64-bit. Small, dependency-free, and stable across platforms —
/// exactly what a golden fingerprint or cache key needs (this is a digest
/// for comparisons, not a collision-resistant hash).
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh digest.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern, canonicalising NaN so that the many
    /// NaN payloads compare equal (the solvers report `NaN` for "not
    /// computed" local residuals).
    pub fn write_f64(&mut self, v: f64) {
        let bits = if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        self.write_u64(bits);
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Four independent multiply–xorshift lanes over 64-bit words: word `i` of
/// an array folds into lane `i mod 4`, so four multiply chains are in flight
/// and the hash runs at memory speed rather than at one byte per multiply.
struct Lanes([u64; 4]);

impl Lanes {
    /// Odd multiplier (2⁶⁴/φ); also seeds the lanes, rotated so no two lanes
    /// start equal.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        Lanes([Self::K, Self::K.rotate_left(16), Self::K.rotate_left(32), Self::K.rotate_left(48)])
    }

    /// One lane step. For a fixed state this is a bijection of `w` (xor,
    /// odd multiply and xorshift all are), and for a fixed `w` a bijection
    /// of the state — so a change confined to one lane always changes that
    /// lane's final state — and it does not commute, so order matters.
    #[inline(always)]
    fn mix(s: u64, w: u64) -> u64 {
        let m = (s ^ w).wrapping_mul(Self::K);
        m ^ (m >> 32)
    }

    /// Folds up to four words, word `l` into lane `l`.
    #[inline(always)]
    fn fold(&mut self, words: impl IntoIterator<Item = u64>) {
        for (lane, w) in self.0.iter_mut().zip(words) {
            *lane = Self::mix(*lane, w);
        }
    }

    /// Folds a `u32` array two entries per word (an odd tail is padded with
    /// a zero high half; the caller has folded the length already).
    fn fold_u32s(&mut self, v: &[u32]) {
        let pack = |p: &[u32]| p[0] as u64 | (p.get(1).copied().unwrap_or(0) as u64) << 32;
        let mut groups = v.chunks_exact(8);
        for g in &mut groups {
            self.fold(g.chunks_exact(2).map(pack));
        }
        self.fold(groups.remainder().chunks(2).map(pack));
    }

    /// Folds an `f64` array by bit pattern, NaN payloads canonicalised as in
    /// [`Fnv::write_f64`].
    fn fold_f64s(&mut self, v: &[f64]) {
        let bits = |x: &f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
        let mut groups = v.chunks_exact(4);
        for g in &mut groups {
            self.fold(g.iter().map(bits));
        }
        self.fold(groups.remainder().iter().map(bits));
    }

    fn finish(&self) -> u64 {
        self.0.iter().fold(Self::K, |h, &lane| Self::mix(h, lane))
    }
}

/// The content fingerprint of a CSR matrix: a word-wise multiply–xorshift
/// hash over the shape (`nrows`, `ncols`, `nnz`, folded first so arrays of
/// different lengths can never present the same word stream) and all three
/// storage arrays (`row_ptr`, `col_idx` two indices per word, and the bit
/// patterns of `vals`).
///
/// Structurally and bit-for-bit value-identical matrices fingerprint equal,
/// which is the equivalence a hierarchy cache needs, since the AMG setup is a
/// deterministic function of those arrays; different matrices collide with
/// probability about 2⁻⁶⁴ (a cache key, not a collision-resistant hash). The
/// value is stable within a build of this crate, not a persisted format.
pub fn fingerprint_csr(a: &Csr) -> u64 {
    let mut h = Lanes::new();
    h.fold([a.nrows() as u64, a.ncols() as u64, a.nnz() as u64]);
    h.fold_u32s(a.row_ptr());
    h.fold_u32s(a.col_idx());
    h.fold_f64s(a.vals());
    h.finish()
}

impl Csr {
    /// The content fingerprint of this matrix (see [`fingerprint_csr`]).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_csr(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn tridiag(n: usize) -> Csr {
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
    fn fnv_is_deterministic_and_order_sensitive() {
        let mut a = Fnv::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn nan_payloads_canonicalise() {
        let mut a = Fnv::new();
        a.write_f64(f64::NAN);
        let mut b = Fnv::new();
        b.write_f64(f64::from_bits(f64::NAN.to_bits() | 1));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn equal_matrices_fingerprint_equal() {
        assert_eq!(tridiag(16).fingerprint(), tridiag(16).fingerprint());
    }

    #[test]
    fn fingerprint_sees_shape_and_values() {
        let base = tridiag(16);
        assert_ne!(base.fingerprint(), tridiag(17).fingerprint());
        let mut bumped = tridiag(16);
        let v = bumped.vals_mut()[0];
        bumped.vals_mut()[0] = f64::from_bits(v.to_bits() ^ 1);
        assert_ne!(base.fingerprint(), bumped.fingerprint());
    }

    /// One entry per row, so any column assignment is a valid sorted CSR.
    fn one_per_row(cols: Vec<u32>, vals: Vec<f64>) -> Csr {
        let n = cols.len();
        Csr::from_raw(n, 16, (0..=n as u32).collect(), cols, vals)
    }

    #[test]
    fn fingerprint_sees_a_swap_within_one_lane() {
        // Words 0 and 4 of an array fold into the same lane; the lane step
        // does not commute, so exchanging them must show.
        let cols: Vec<u32> = (0..16).collect();
        let vals: Vec<f64> = (0..16).map(|i| 1.0 + i as f64).collect();
        let base = one_per_row(cols.clone(), vals.clone());
        let mut v = vals.clone();
        v.swap(0, 4);
        assert_ne!(base.fingerprint(), one_per_row(cols.clone(), v).fingerprint());
        // `col_idx` packs two indices per word: pairs 0 and 4 are entries
        // 0..2 and 8..10.
        let mut c = cols.clone();
        c.swap(0, 8);
        c.swap(1, 9);
        assert_ne!(base.fingerprint(), one_per_row(c, vals).fingerprint());
    }

    #[test]
    fn fingerprint_sees_an_odd_col_idx_tail() {
        // 11 entries: five full words and a half-filled last one.
        let cols: Vec<u32> = (0..11).collect();
        let vals = vec![1.0; 11];
        let base = one_per_row(cols.clone(), vals.clone());
        let mut c = cols;
        c[10] = 15;
        assert_ne!(base.fingerprint(), one_per_row(c, vals).fingerprint());
    }
}
