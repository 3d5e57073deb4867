//! Order statistics over the benchmark's own samples.

/// Median of `v` (sorts in place). `NaN`-free input is the caller's
/// contract; an empty slice gives 0.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A percentile read from the benchmark's samples, with how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// Percentile in `[0, 100]`.
    pub pct: f64,
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

impl Percentile {
    fn at(sorted: &[f64], pct: f64) -> Percentile {
        let r = rank(sorted.len(), pct / 100.0);
        Percentile { pct, value: sorted[r], beyond: sorted.len() - r - 1, n: sorted.len() }
    }

    /// `p50=123.4us (n=5000)`-style label for the human-readable lines.
    pub fn label(&self, unit: &str) -> String {
        format!("p{}={:.3}{unit} (n={}, {} beyond)", self.pct, self.value, self.n, self.beyond)
    }
}

/// Samples beyond a tail percentile needed before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The p50 of `samples` (sorts in place); `None` when empty.
pub fn p50(samples: &mut [f64]) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(Percentile::at(samples, 50.0))
}

/// The tail: the highest of p99 and p90 with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. Smaller samples fall back to
/// p75, then p50, so a short window still reports a percentile it can
/// support rather than an extreme order statistic. Sorts in place.
pub fn tail(samples: &mut [f64]) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    [99.0, 90.0, 75.0]
        .into_iter()
        .map(|pct| Percentile::at(samples, pct))
        .find(|p| p.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| Some(Percentile::at(samples, 50.0)))
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (sorts in place); an
/// empty slice gives 0.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

/// Samples per slice of [`quiet`]: enough for a p99 with twenty samples
/// beyond it.
const SLICE_MIN: usize = 2000;
/// Slices [`quiet`] cuts a window into at most.
const MAX_SLICES: usize = 40;

/// A percentile read from one slice of a window.
#[derive(Debug, Clone, Copy)]
pub struct Sliced {
    pub at: Percentile,
    pub slices: usize,
}

impl Sliced {
    pub fn label(&self, unit: &str) -> String {
        format!("{} in the lower-quartile slice of {}", self.at.label(unit), self.slices)
    }
}

/// A percentile of the window's quieter part. `samples`, in the order
/// they were taken, are cut into equal slices of at least [`SLICE_MIN`]
/// (at most [`MAX_SLICES`]), `stat` ([`p50`] or [`tail`]) is read per
/// slice, and the lower quartile of those is reported. On a shared host a
/// neighbour's bursts of CPU use slow every call for a second or so at a
/// time and move a whole-window percentile from run to run; a slowdown of
/// the program moves every slice. Fewer than `2 * SLICE_MIN` samples make
/// one slice: the whole-window `stat`.
pub fn quiet(samples: &[f64], stat: fn(&mut [f64]) -> Option<Percentile>) -> Option<Sliced> {
    if samples.is_empty() {
        return None;
    }
    let slices = (samples.len() / SLICE_MIN).clamp(1, MAX_SLICES);
    let len = samples.len() / slices;
    let mut per_slice: Vec<Percentile> = (0..slices)
        .filter_map(|s| {
            let end = if s + 1 == slices { samples.len() } else { (s + 1) * len };
            stat(&mut samples[s * len..end].to_vec())
        })
        .collect();
    per_slice.sort_by(|a, b| a.value.total_cmp(&b.value));
    let at = *per_slice.get(rank(per_slice.len(), 0.25))?;
    Some(Sliced { at, slices })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&mut v).expect("non-empty");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&mut v).expect("non-empty");
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 180.0, 20));
        let mut v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&mut v).expect("non-empty").pct, 75.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!((quantile(&mut v, 0.25), quantile(&mut v, 0.75)), (2.0, 6.0));
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn quiet_skips_a_noisy_stretch() {
        // Four slices of 2000; the last one is ten times slower.
        let mut v: Vec<f64> = (0..8000).map(|i| f64::from(i % 2000)).collect();
        v[6000..].iter_mut().for_each(|x| *x *= 10.0);
        let t = quiet(&v, tail).expect("non-empty");
        assert_eq!((t.slices, t.at.pct, t.at.value, t.at.n), (4, 99.0, 1979.0, 2000));
        assert_eq!(quiet(&v, p50).expect("non-empty").at.value, 999.0);
        // Too few samples to slice: the whole-window percentile.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = quiet(&v, tail).expect("non-empty");
        assert_eq!((t.slices, t.at.pct, t.at.value), (1, 90.0, 180.0));
        assert!(quiet(&[], tail).is_none());
    }
}
