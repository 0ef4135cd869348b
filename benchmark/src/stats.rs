//! Order statistics and input/outcome digests.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100):
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (total order, so a NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median, averaging the middle pair of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from the same values elsewhere. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for very small samples, where Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound is checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// 64-bit FNV-1a over a byte stream: cheap, stable across platforms and
/// releases, and enough to notice that an input or an outcome list moved.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes samples by their exact bit patterns.
    pub fn samples(&mut self, data: &[f64]) {
        for v in data {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(relative_spread(&v), Some((8.25 - 2.75) / 5.5));
    }

    #[test]
    fn digests_are_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::default();
        a.bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv::default();
        foobar.bytes(b"foobar");
        assert_eq!(foobar.finish(), 0x8594_4171_f739_67e8);
        // Samples hash by bit pattern: -0.0 and 0.0 differ, equal inputs agree.
        let mut x = Fnv::default();
        x.samples(&[0.0, 1.5]);
        let mut y = Fnv::default();
        y.samples(&[-0.0, 1.5]);
        let mut z = Fnv::default();
        z.samples(&[0.0, 1.5]);
        assert_ne!(x.finish(), y.finish());
        assert_eq!(x.finish(), z.finish());
    }
}
