//! E6 — CSI-feedback localization (paper §IV.B, ref \[8\]).
//!
//! Paper setting: an IEEE 802.11ac explicit-feedback CSI learning system
//! extracting 624 features per frame, evaluated on device-free user
//! localization over seven positions under six behaviour/antenna
//! patterns. Reported: ≈96 % accuracy "when the behavior of the user is
//! walking and the orientations of the antennas have divergence".

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_data::csi::{AntennaOrientation, CsiGenerator, CsiPattern, CsiSample};
use zeiot_sensing::csi::CsiLocalizer;

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Training samples per position per pattern.
    pub train_per_position: usize,
    /// Test samples per position per pattern.
    pub test_per_position: usize,
    /// k of the k-NN backend.
    pub k: usize,
    /// Master seed (environment + sampling).
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            train_per_position: 40,
            test_per_position: 15,
            k: 5,
            seed: 19,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            train_per_position: 12,
            test_per_position: 5,
            k: 3,
            seed: 19,
        }
    }
}

fn to_pairs(samples: Vec<CsiSample>) -> Vec<(Vec<f64>, usize)> {
    samples
        .into_iter()
        .map(|s| (s.features, s.position))
        .collect()
}

fn pattern_name(p: CsiPattern) -> String {
    let behaviour = if p.walking { "walking" } else { "stationary" };
    let antenna = match p.antenna {
        AntennaOrientation::Aligned => "aligned",
        AntennaOrientation::Divergent => "divergent",
        AntennaOrientation::Mixed => "mixed",
    };
    format!("{behaviour}/{antenna}")
}

/// Runs E6 with one sweep point per behaviour/antenna pattern, each
/// sampling from its own derived stream; results are identical for every
/// thread count.
pub fn run(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    let generator = CsiGenerator::new(params.seed).expect("generator");
    let patterns = CsiPattern::all();

    let sweep = runner.run_seeded(
        params.seed ^ 0xABCD,
        patterns.len(),
        |index, rng, _recorder| {
            let (train, test) = generator.split(
                patterns[index],
                params.train_per_position,
                params.test_per_position,
                rng,
            );
            let localizer = CsiLocalizer::fit(&to_pairs(train), params.k).expect("fit");
            localizer.evaluate(&to_pairs(test)).accuracy()
        },
    );

    let mut report = ExperimentReport::new(
        "E6",
        "Device-free localization from 802.11ac CSI feedback (7 positions × 6 patterns)",
    );
    let mut best = (0.0f64, String::new());
    let mut accuracies = Vec::new();
    for (pattern, &acc) in patterns.iter().zip(&sweep.outputs) {
        accuracies.push(acc);
        if acc > best.0 {
            best = (acc, pattern_name(*pattern));
        }
        report.push(Row::measured_only(
            format!("accuracy ({})", pattern_name(*pattern)),
            acc,
            "fraction",
        ));
    }
    report.push(Row::with_paper(
        "best-pattern accuracy",
        0.96,
        best.0,
        "fraction",
    ));
    report.push(Row::measured_only(
        "pattern spread (max − min)",
        accuracies.iter().copied().fold(f64::MIN, f64::max)
            - accuracies.iter().copied().fold(f64::MAX, f64::min),
        "fraction",
    ));
    report.push_series("per-pattern accuracy", accuracies);
    // Record which pattern won for EXPERIMENTS.md.
    report.push(Row::measured_only(
        format!("best pattern is {}", best.1),
        1.0,
        "flag",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_the_shape() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        let best = report.row("best-pattern accuracy").unwrap().measured;
        assert!(best > 0.85, "best={best}");
        // The walking/divergent pattern should be the winner (or tied).
        let walking_div = report.row("accuracy (walking/divergent)").unwrap().measured;
        assert!(best - walking_div < 0.08, "best={best} wd={walking_div}");
    }

    #[test]
    fn six_pattern_rows_present() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        let pattern_rows = report
            .rows
            .iter()
            .filter(|r| r.metric.starts_with("accuracy ("))
            .count();
        assert_eq!(pattern_rows, 6);
    }
}
