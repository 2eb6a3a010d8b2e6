//! Order statistics over small samples, and the FNV-1a input fingerprint.

/// Summary of a sample of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median — the spread the
    /// benchmark contract bounds.
    pub fn spread(&self) -> f64 {
        ratio(self.q3 - self.q1, self.median)
    }
}

/// The `p`-quantile (0 < p < 1) of an ascending sample by the exclusive
/// method — position `p * (n + 1)`, linearly interpolated, clamped to the
/// sample's ends — which is what Python's `statistics.quantiles` gives for
/// three or more values (below that Python extrapolates; this clamps).
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Median, quartiles, minimum and count of `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        q3: quantile_sorted(&sorted, 0.75),
    })
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, 64 bit: the fingerprint recorded for every workload input.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A fingerprint as the 16 hex digits stored in `fingerprints.json`.
pub fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min), (10, 1.0));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4, 5, 9]
        let s = summarize(&[9.0, 2.0, 4.0, 11.0, 5.0, 4.0, 7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 5.0, 9.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1, 2, 3]
        let s = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // Two values: positions fall outside the sample and clamp.
        let s = summarize(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 15.0, 20.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((summarize(&v).unwrap().spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(&[b"foobar"]), 0x8594_4171_f739_67e8);
        // Chunking does not change the hash.
        assert_eq!(fnv1a64(&[b"foo", b"", b"bar"]), fnv1a64(&[b"foobar"]));
        assert_eq!(hex64(0xab), "00000000000000ab");
    }
}
