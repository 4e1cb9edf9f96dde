//! Timing statistics: the warm-up/measure phase split, medians,
//! quartiles, the tail-percentile rule and self time.
//!
//! Every function here is pure over slices of samples, so the rules the
//! benchmark reports by are unit-tested without a clock.

/// How a run splits its episodes into a discarded warm-up and a
/// measured part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Host seconds of episodes discarded before measuring (at least
    /// one episode is always discarded when this is positive).
    pub warmup_s: f64,
    /// Host seconds of measured episodes to collect.
    pub measure_s: f64,
    /// Measured episodes to collect even when `measure_s` is reached
    /// sooner (the tail rule needs eleven).
    pub min_measured: usize,
}

impl Phase {
    /// How many leading episodes of `durations` are warm-up: the
    /// shortest prefix whose total reaches `warmup_s`, and at least one
    /// episode when `warmup_s` is positive.
    pub fn warmup_len(&self, durations: &[f64]) -> usize {
        if self.warmup_s <= 0.0 {
            return 0;
        }
        let mut total = 0.0;
        for (i, d) in durations.iter().enumerate() {
            total += d;
            if total >= self.warmup_s {
                return i + 1;
            }
        }
        durations.len()
    }

    /// The measured episodes of `durations` (everything after warm-up).
    pub fn measured<'a>(&self, durations: &'a [f64]) -> &'a [f64] {
        &durations[self.warmup_len(durations)..]
    }

    /// Whether a run that has produced `durations` may stop: warm-up is
    /// over and at least one measured episode exists, with both the
    /// measured time and count reached.
    pub fn done(&self, durations: &[f64]) -> bool {
        let measured = self.measured(durations);
        measured.len() >= self.min_measured.max(1) && measured.iter().sum::<f64>() >= self.measure_s
    }
}

/// A sorted copy of `samples` (total order, so NaN cannot scramble it).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two middle samples for an even count);
/// `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(samples, n=4)` (the default
/// "exclusive" method), so a spread computed here matches one computed
/// from the printed results. A single sample is its own quartiles;
/// `NaN`s for no samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    let ld = s.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// The nearest-rank percentile `p` (in `(0, 100]`) of `samples`; `NaN`
/// for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The samples beyond a reported tail value, at least.
pub const TAIL_BEYOND: usize = 10;

/// A tail value and where it sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value is at: the share of samples at or below
    /// it, in percent.
    pub percentile: f64,
    /// The sample value.
    pub value: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples beyond
/// it, or `None` with too few samples to have one.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = n - 1 - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        value: s[k],
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

/// A layer's self time: its span's duration minus the time its child
/// spans cover (children are sequential calls inside the parent, so
/// their durations add). Clamped at zero against clock jitter.
pub fn self_time(parent: f64, children: &[f64]) -> f64 {
    (parent - children.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_discards_a_time_prefix_and_at_least_one_episode() {
        let phase = Phase {
            warmup_s: 1.0,
            measure_s: 2.0,
            min_measured: 2,
        };
        assert_eq!(phase.warmup_len(&[0.4, 0.4, 0.4, 0.4]), 3);
        assert_eq!(phase.warmup_len(&[5.0, 0.1]), 1);
        assert_eq!(phase.measured(&[0.4, 0.4, 0.4, 0.7, 0.8]), &[0.7, 0.8]);
        let none = Phase {
            warmup_s: 0.0,
            ..phase
        };
        assert_eq!(none.warmup_len(&[0.4, 0.4]), 0);
    }

    #[test]
    fn a_run_stops_after_both_measured_time_and_count() {
        let phase = Phase {
            warmup_s: 0.5,
            measure_s: 1.0,
            min_measured: 3,
        };
        assert!(!phase.done(&[]));
        assert!(!phase.done(&[0.6]));
        assert!(!phase.done(&[0.6, 2.0])); // time reached, count not
        assert!(!phase.done(&[0.6, 0.1, 0.1, 0.1])); // count reached, time not
        assert!(phase.done(&[0.6, 0.5, 0.3, 0.3]));
        let quick = Phase {
            warmup_s: 0.0,
            measure_s: 0.0,
            min_measured: 1,
        };
        assert!(!quick.done(&[]));
        assert!(quick.done(&[0.01]));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // The exclusive method extrapolates beyond two samples:
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 99.0), 3.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert!(tail(&[1.0; 10]).is_none());
        // 1000 samples: p99 with exactly ten beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).unwrap().percentile, 99.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(10.0, &[2.0, 3.0]), 5.0);
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(1.0, &[0.6, 0.6]), 0.0);
    }
}
