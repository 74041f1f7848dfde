//! Fixed inputs and digests for the golden-model tests, which pin a fit's
//! exact output to a value recorded before an optimization changed how it
//! is computed. The data depends on no RNG implementation.

use crate::Matrix;

/// FNV-1a 64 over a byte stream.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A fixed value in [0, 1) per index (SplitMix64 finalizer).
pub(crate) fn unit(i: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A fixed `n × 6` dataset with `k` noisy classes: two continuous signals,
/// a one-hot pair, the first signal coarsened to half units and a
/// constant.
pub(crate) fn dataset(n: usize, k: usize) -> (Matrix, Vec<u32>) {
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let class = ((unit(4 * i) * k as f64) as usize).min(k - 1);
        let a = class as f64 + 1.2 * (unit(4 * i + 1) - 0.5);
        let b = 0.7 * class as f64 - 0.9 * (unit(4 * i + 2) - 0.5);
        let hot = if unit(4 * i + 3) < 0.4 { 1.0 } else { 0.0 };
        rows.push(vec![a, b, hot, 1.0 - hot, (2.0 * a).round() / 2.0, 1.0]);
        // One label in ten is flipped so no epoch fits the data exactly.
        let label = if i % 10 == 3 { (class + 1) % k } else { class };
        labels.push(label as u32);
    }
    (Matrix::from_vecs(&rows), labels)
}
