//! Host facts, summary statistics, a seeded generator and the arrival
//! schedules the workloads replay.

use std::time::Instant;

/// Linux `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`, ...).
fn status_kib(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(f64::NAN) / 1024.0
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS:").unwrap_or(f64::NAN) / 1024.0
}

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The commit the checkout was made from, read from `.git` without running
/// git; `unknown` outside a repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Percentile `q` in [0, 1] of an ascending slice, linearly interpolated
/// between closest ranks (numpy's default). NaN for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The highest of the usual reporting percentiles (up to p99.9) that has
/// at least ten samples beyond it, or `None` when even the median lacks ten.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5].into_iter().find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// Share of a run's windows whose values `fast_mean` averages.
pub const FAST_SHARE: f64 = 0.05;
/// Share for windows that need both cores unimpeded at once, as the
/// pool-sharded forwards of a capacity window do: such windows are rarer
/// than windows of one busy thread, so the fastest twentieth of them rests
/// on too few to repeat from run to run (12-15% spread over eight seeds,
/// against 8% for the fastest fifth).
pub const RATE_SHARE: f64 = 0.2;
/// Share of a run's windows whose samples a tail percentile pools: wider
/// than [`FAST_SHARE`], so the tail rests on enough samples.
pub const TAIL_SHARE: f64 = 0.1;

/// Indices of the fastest `share` of windows (at least one), by a
/// per-window time where lower is faster.
///
/// Shared hosts alternate between unimpeded and contended periods, from a
/// tenth of a second to many seconds long, that slow every instruction
/// alike (by ~1.6x on the 2-core host these figures were tuned on); a
/// run's median then mostly says which periods the run caught, and a run
/// can spend most of a minute contended. Measuring over the fastest
/// twentieth of many short windows measures the program in its unimpeded
/// periods, and still moves with any change that slows every window. A
/// change that slows only some windows shows less or not at all.
pub fn fast_windows(times: &[f64], share: f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..times.len()).collect();
    idx.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    idx.truncate(((times.len() as f64 * share).ceil() as usize).max(1));
    idx
}

/// Mean of the best `share` of per-window values.
pub fn fast_mean(values: &[f64], share: f64, lower_is_better: bool) -> f64 {
    let keys: Vec<f64> = values.iter().map(|&v| if lower_is_better { v } else { -v }).collect();
    let idx = fast_windows(&keys, share);
    idx.iter().map(|&i| values[i]).sum::<f64>() / idx.len() as f64
}

/// Median, tail percentile and sample count of a timing sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// p99 (interpolated; the table states whether `n` supports it).
    pub p99: f64,
    /// Highest percentile with ≥ 10 samples beyond it.
    pub tail_q: Option<f64>,
    /// Value at `tail_q`.
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise unsorted samples.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(v.len());
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
            tail_q,
            tail: tail_q.map_or(f64::NAN, |q| percentile(&v, q)),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// `p50 12.3 | p99 45.6 (n 5000)` for the report table.
    pub fn describe(&self) -> String {
        let tail = match self.tail_q {
            Some(q) => format!("p{} {:.1}", q * 100.0, self.tail),
            None => "no tail percentile".into(),
        };
        format!("p50 {:.1} | {tail} | max {:.1} (n {})", self.p50, self.max, self.n)
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own schedules,
/// independent of the library's RNG so input generation never shifts when
/// the library's random streams change.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (ns from the phase start) of `n` Poisson arrivals at `rate`
/// per second. Deterministic in `(n, rate, seed)`.
pub fn poisson_arrivals(n: usize, rate: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.unit().ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// A send order for items of different cost: a permutation of
/// `0..costs.len()` in which every run of consecutive items has close to the
/// cost mix of the whole set. Items are ranked by cost (ties in a seeded
/// random order) and the ranks are visited with a golden-ratio stride, so
/// consecutive picks land far apart in the ranking and any window covers it
/// evenly. Timing windows then differ by how the host ran, not by which
/// requests they happened to hold. Deterministic in `(costs, seed)`.
pub fn stratified_order(costs: &[usize], seed: u64) -> Vec<usize> {
    let n = costs.len();
    let mut rng = SplitMix::new(seed);
    let mut ranked: Vec<(usize, u64, usize)> =
        costs.iter().enumerate().map(|(i, &c)| (c, rng.next_u64(), i)).collect();
    ranked.sort_unstable();
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut step = ((n as f64 * 0.618_033_988_749_895).round() as usize).max(1);
    while n > 1 && gcd(step, n) != 1 {
        step += 1;
    }
    (0..n).map(|k| ranked[k * step % n].2).collect()
}

/// Derive an independent sub-seed for one purpose from the run seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn fast_windows_pick_the_fastest_twentieth() {
        let v: Vec<f64> = (0..40).rev().map(f64::from).collect();
        assert_eq!(fast_windows(&v, FAST_SHARE), vec![39, 38]);
        assert_eq!(fast_windows(&v, TAIL_SHARE), vec![39, 38, 37, 36]);
        assert_eq!(fast_windows(&[3.0], FAST_SHARE), vec![0]);
        assert_eq!(fast_mean(&v, FAST_SHARE, true), 0.5);
        assert_eq!(fast_mean(&v, FAST_SHARE, false), 38.5);
        assert_eq!(fast_mean(&v, RATE_SHARE, false), 35.5);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_q, Some(0.99));
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_arrivals(20_000, 1000.0, 7);
        assert_eq!(a, poisson_arrivals(20_000, 1000.0, 7));
        assert_ne!(a, poisson_arrivals(20_000, 1000.0, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let secs = *a.last().unwrap() as f64 / 1e9;
        let rate = a.len() as f64 / secs;
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
    }

    #[test]
    fn stratified_order_is_a_seeded_permutation_with_even_windows() {
        // A third cheap, a third middling, a third dear, in clumps.
        let costs: Vec<usize> = (0..3000).map(|i| [14, 28, 48][i / 1000]).collect();
        let order = stratified_order(&costs, 5);
        assert_eq!(order, stratified_order(&costs, 5));
        assert_ne!(order, stratified_order(&costs, 6));
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..3000).collect::<Vec<_>>());
        for w in order.chunks(30) {
            for c in [14, 28, 48] {
                let k = w.iter().filter(|&&i| costs[i] == c).count();
                assert!((9..=11).contains(&k), "{k} of cost {c} in a window of 30");
            }
        }
        assert_eq!(stratified_order(&[3], 1), vec![0]);
        assert!(stratified_order(&[], 1).is_empty());
    }

    #[test]
    fn sub_seeds_differ_by_purpose() {
        assert_eq!(sub_seed(3, 1), sub_seed(3, 1));
        assert_ne!(sub_seed(3, 1), sub_seed(3, 2));
        assert_ne!(sub_seed(3, 1), sub_seed(4, 1));
    }
}
