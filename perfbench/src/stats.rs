//! Small numeric and text helpers of the harness: order statistics, the
//! tail-percentile rule, peak-memory parsing, metric names and hashing.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// A single value is its own quartiles; an empty slice has none.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let cut = |i: usize| {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// The percentiles the tail rule may report, highest last.
const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples strictly beyond its nearest-rank position, with its value.
/// `None` when not even the median qualifies (fewer than 20 samples).
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = ((p * n as f64).ceil() as usize).max(1);
        (rank <= n && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set in MiB from the text of `/proc/self/status`
/// (the `VmHWM:` line, which the kernel reports in kB).
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// The process's own peak resident set in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// A metric name: 1 to 64 characters from `[A-Za-z0-9_.-]`, starting with
/// a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// 64-bit FNV-1a, the digest of canonical outputs and source files.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds a string followed by a separator byte.
    pub fn field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0]);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one string.
pub fn fnv(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    h.finish()
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((0.5, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((0.9, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((0.99, 990.0)));
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big), Some((0.999, 9990.0)));
    }

    #[test]
    fn vmhwm_is_parsed_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(200.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "setup_s",
            "attacks.sat_s.b05",
            "sat.round_ms.p50",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "ünï",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_and_splitmix_are_stable() {
        assert_eq!(fnv(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(splitmix(1), splitmix(2));
        assert_eq!(splitmix(7), splitmix(7));
    }
}
