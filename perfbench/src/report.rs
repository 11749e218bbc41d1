//! Small measurement helpers: exact percentiles, run digests, peak memory
//! and a flat JSON object writer (the benchmark has no serde).

use std::fmt::Write as _;

/// The `q`-quantile of `sorted` by the nearest-rank rule (the smallest
/// sample with at least `q` of the samples at or below it); 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a over `bytes`: the digest two runs of one virtual leg must
/// agree on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A flat JSON object built field by field, printed on one line.
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{k}\": ");
    }

    /// Add a number (non-finite values are written as 0).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.body, "{v:?}");
        self
    }

    /// Add a string (no characters that need escaping).
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "\"{v}\"");
        self
    }

    /// Add a list of numbers.
    pub fn list(&mut self, k: &str, v: &[f64]) -> &mut Self {
        self.key(k);
        let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        let _ = write!(self.body, "[{}]", items.join(", "));
        self
    }

    /// Add a nested object.
    pub fn obj(&mut self, k: &str, v: &Json) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 0.999), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_is_one_flat_line() {
        let mut inner = Json::default();
        inner.num("a", 1.5);
        let mut j = Json::default();
        j.str("w", "fits")
            .num("n", 2.0)
            .list("l", &[1.0])
            .obj("o", &inner);
        assert_eq!(
            j.to_string(),
            r#"{"w": "fits", "n": 2.0, "l": [1.0], "o": {"a": 1.5}}"#
        );
    }
}
