//! The arithmetic behind every reported number: percentiles, window medians, the
//! in-limit fraction, the open-loop schedule and the quartile spread `compare` uses.

use usp_linalg::topk::nan_class_cmp_f64;

/// Sorts ascending with NaN last (the workspace's comparator convention).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| nan_class_cmp_f64(*a, *b));
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at least
/// `p` of the samples at or below it. `p` in `[0, 1]`; an empty slice gives NaN.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Width of a reporting window. Short, because on a host that hangs for milliseconds at
/// a time a window is only as good as its worst stall: interleaved runs of identical
/// code spread 73 % on the open loop's p99 with 250 ms windows, 16 % with 100 ms and 6 %
/// with 50 ms. A window then holds 400 to 4 000 replies, so its own 99th percentile
/// rests on 4 to 40 samples beyond it; the reported figure is a mean over dozens of
/// windows (see [`fast_mean`]).
pub const WINDOW_NS: u64 = 50_000_000;

/// One window of a request series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Requests in the window, answered or not.
    pub sent: usize,
    /// Answered requests per second.
    pub rate_per_s: f64,
    /// Median and 99th percentile latency of the window's answered requests.
    pub p50: f64,
    pub p99: f64,
    /// Share of the requests *sent* that were answered within the limit: a request that
    /// was shed, failed or never answered is in the window and misses.
    pub in_limit: f64,
    /// Requests answered within the limit per second.
    pub in_limit_per_s: f64,
}

/// Cuts `(t_ns, latency)` samples into the consecutive `width_ns` windows that tile
/// `[t0_ns, t1_ns)`. A request without an answer carries `f64::INFINITY`: it counts as
/// sent, misses the limit and is left out of the rate and the percentiles. The trailing
/// partial window is left out; a span shorter than one window is summarised whole.
/// A window without an answer has rate 0 and NaN percentiles.
pub fn time_windows(
    samples: &[(u64, f64)],
    t0_ns: u64,
    t1_ns: u64,
    width_ns: u64,
    limit: f64,
) -> Vec<Window> {
    assert!(width_ns > 0, "time_windows: zero-width window");
    let span = t1_ns.saturating_sub(t0_ns);
    let (count, width) = match span / width_ns {
        0 => (1, span.max(1)),
        n => (n as usize, width_ns),
    };
    let mut slots: Vec<(usize, Vec<f64>)> = vec![(0, Vec::new()); count];
    for &(t_ns, latency) in samples {
        let slot = (t_ns.saturating_sub(t0_ns) / width) as usize;
        if t_ns >= t0_ns && slot < count {
            slots[slot].0 += 1;
            if latency.is_finite() {
                slots[slot].1.push(latency);
            }
        }
    }
    slots
        .into_iter()
        .map(|(sent, mut answered)| {
            sort(&mut answered);
            let within = answered.iter().filter(|&&x| x <= limit).count();
            Window {
                sent,
                rate_per_s: answered.len() as f64 * 1e9 / width as f64,
                p50: percentile(&answered, 0.50),
                p99: percentile(&answered, 0.99),
                in_limit: within as f64 / sent.max(1) as f64,
                in_limit_per_s: within as f64 * 1e9 / width as f64,
            }
        })
        .collect()
}

/// Share of the windows taken as the program's own speed. The sandbox host slows down by
/// a quarter to a half for seconds at a time (a pure arithmetic loop shows it), hangs for
/// a second now and then, and interference only ever makes a window slower; the serving
/// loop also alternates between two phase-locked regimes whose latencies differ by a
/// quarter. So a figure is the mean over the tenth of the windows nearest its better
/// end: robust to the slow stretches like an order statistic near the fast end, without
/// flipping between the regimes like one. Between runs of identical code it spreads about
/// half as much as the median over windows.
pub const FAST_SHARE: f64 = 0.10;

/// The mean of the `FAST_SHARE` of `values` nearest the better end (at least one value),
/// NaNs left out.
pub fn fast_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    sort(&mut v);
    if higher_is_better {
        v.reverse();
    }
    let keep = ((v.len() as f64 * FAST_SHARE).ceil() as usize).max(1);
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// [`fast_mean`] of one figure of every window.
pub fn fast_mean_of(
    windows: &[Window],
    figure: impl Fn(&Window) -> f64,
    higher_is_better: bool,
) -> f64 {
    fast_mean(
        &windows.iter().map(figure).collect::<Vec<_>>(),
        higher_is_better,
    )
}

/// Open-loop schedule: request `i` is due `i / rate` seconds after the start.
pub fn due_time_ns(i: u64, rate_qps: f64) -> u64 {
    (i as f64 * 1e9 / rate_qps) as u64
}

/// Requests due by `elapsed_ns` (request 0 is due at the start), capped at `total`.
pub fn due_count(elapsed_ns: u64, rate_qps: f64, total: u64) -> u64 {
    let due = (elapsed_ns as f64 * rate_qps / 1e9).floor() as u64 + 1;
    due.min(total)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// "exclusive" method), which is what the driver computes spreads with.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles: need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j, delta = divmod(i * (n + 1), 4), j clamped to [1, n - 1].
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        return f64::INFINITY;
    }
    ((q[2] - q[0]) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd_and_nan_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v = vec![2.0, f64::NAN, 1.0];
        sort(&mut v);
        assert_eq!(&v[..2], &[1.0, 2.0]);
        assert!(v[2].is_nan());
    }

    #[test]
    fn time_windows_tile_the_span_and_count_every_request_sent() {
        const MS: u64 = 1_000_000;
        // Three 100 ms windows from t0 = 1 s: two replies of 1 and 3 ms; one reply of
        // 20 ms and one request never answered; nothing. A partial fourth is left out.
        let samples = [
            (1_000 * MS, 1.0),
            (1_099 * MS, 3.0),
            (1_100 * MS, 20.0),
            (1_150 * MS, f64::INFINITY),
            (1_310 * MS, 1.0),
            (999 * MS, 1.0), // before the span
        ];
        let w = time_windows(&samples, 1_000 * MS, 1_350 * MS, 100 * MS, 10.0);
        assert_eq!(w.len(), 3);
        assert_eq!(
            (
                w[0].sent,
                w[0].rate_per_s,
                w[0].p50,
                w[0].p99,
                w[0].in_limit
            ),
            (2, 20.0, 1.0, 3.0, 1.0)
        );
        assert_eq!(
            (w[1].sent, w[1].rate_per_s, w[1].p50, w[1].in_limit),
            (2, 10.0, 20.0, 0.0)
        );
        assert_eq!((w[2].sent, w[2].rate_per_s, w[2].in_limit), (0, 0.0, 0.0));
        assert!(w[2].p50.is_nan());
        // A span shorter than one window is summarised whole.
        let w = time_windows(&samples[..2], 1_000 * MS, 1_100 * MS, 250 * MS, 2.0);
        assert_eq!(
            (
                w.len(),
                w[0].sent,
                w[0].rate_per_s,
                w[0].in_limit,
                w[0].in_limit_per_s
            ),
            (1, 2, 20.0, 0.5, 10.0)
        );
    }

    #[test]
    fn fast_mean_averages_the_tenth_nearest_the_better_end() {
        // Twenty windows, half of them slowed by the host: the figure ignores those.
        let mut rates: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        rates.extend((0..10).map(|i| 70.0 + f64::from(i)));
        assert_eq!(fast_mean(&rates, true), (109.0 + 108.0) / 2.0);
        let mut latencies: Vec<f64> = (0..10).map(|i| 2.0 + f64::from(i)).collect();
        latencies.extend([35.0, 36.0, 37.0, 38.0, f64::NAN]);
        assert_eq!(fast_mean(&latencies, false), (2.0 + 3.0) / 2.0);
        // Never fewer than one window, never a NaN from an empty one.
        assert_eq!(fast_mean(&[5.0, 9.0], true), 9.0);
        assert!(fast_mean(&[f64::NAN], true).is_nan());
    }

    #[test]
    fn open_loop_schedule_is_evenly_spaced_and_self_consistent() {
        let rate = 16_000.0;
        assert_eq!(due_time_ns(0, rate), 0);
        assert_eq!(due_time_ns(16_000, rate), 1_000_000_000);
        assert_eq!(due_time_ns(1, rate), 62_500);
        // Everything due at or before `t` has been counted at `t`, nothing later has.
        for i in [0u64, 1, 7, 15_999, 40_000] {
            let t = due_time_ns(i, rate);
            assert!(
                due_count(t, rate, u64::MAX) > i,
                "request {i} not due at {t}"
            );
            if i > 0 {
                assert!(due_count(t - 1_000, rate, u64::MAX) <= i);
            }
        }
        assert_eq!(due_count(10_000_000_000, rate, 500), 500);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartile_spread(&v), 1.0);
    }
}
