//! E4 — train-car congestion and positioning (paper §IV.B, ref \[65\]).
//!
//! Paper results: car-level positioning accuracy ≈83 %; three-level
//! congestion estimation F-measure ≈0.82, via likelihood functions and
//! majority voting weighted by positioning reliability. The unweighted
//! vote is the ablation (DESIGN.md §5.4).

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::rng::SeedRng;
use zeiot_data::train::{TrainScene, TrainSceneGenerator};
use zeiot_nn::eval::ConfusionMatrix;
use zeiot_sensing::train::{CongestionEstimator, LabelledScene, TrainObservation};

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Calibration scenes.
    pub train_scenes: usize,
    /// Evaluation scenes.
    pub test_scenes: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            train_scenes: 60,
            test_scenes: 30,
            seed: 13,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            train_scenes: 20,
            test_scenes: 8,
            seed: 13,
        }
    }
}

/// Converts a generated scene into the estimator's input form.
pub fn to_labelled(scene: &TrainScene) -> LabelledScene {
    LabelledScene {
        observation: TrainObservation {
            cars: scene.cars(),
            reference_car: scene.reference_car.clone(),
            user_to_reference: scene.user_to_reference.clone(),
            user_to_user: scene.user_to_user.clone(),
        },
        user_car: scene.user_car.clone(),
        congestion: scene.congestion.iter().map(|c| c.index()).collect(),
    }
}

/// Per-scene evaluation tallies, merged in scene order after the sweep.
struct SceneTally {
    pos_correct: usize,
    pos_total: usize,
    /// `(truth, weighted prediction, unweighted prediction)` per car.
    votes: Vec<(usize, usize, usize)>,
}

/// Runs E4 with the test-scene evaluation fanned out across threads.
/// Scene generation and estimator fitting stay serial (they thread one
/// RNG); evaluation is RNG-free, so per-scene tallies folded in scene
/// order are identical for every thread count.
pub fn run(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    let generator = TrainSceneGenerator::paper_train().expect("paper train");
    let mut rng = SeedRng::new(params.seed);
    let train: Vec<LabelledScene> = (0..params.train_scenes)
        .map(|_| to_labelled(&generator.scene(&mut rng)))
        .collect();
    let test: Vec<LabelledScene> = (0..params.test_scenes)
        .map(|_| to_labelled(&generator.scene(&mut rng)))
        .collect();

    let estimator = CongestionEstimator::fit(&train).expect("fit");

    let sweep = runner.run_seeded(params.seed, test.len(), |index, _rng, _recorder| {
        let scene = &test[index];
        let positions = estimator.estimate_positions(&scene.observation);
        let pos_total = positions.iter().zip(&scene.user_car).count();
        let pos_correct = positions
            .iter()
            .zip(&scene.user_car)
            .filter(|(p, &truth)| p.car == truth)
            .count();
        let weighted = estimator.estimate_congestion(&scene.observation, &positions, true);
        let unweighted = estimator.estimate_congestion(&scene.observation, &positions, false);
        SceneTally {
            pos_correct,
            pos_total,
            votes: (0..scene.observation.cars)
                .map(|car| (scene.congestion[car], weighted[car], unweighted[car]))
                .collect(),
        }
    });

    let mut pos_correct = 0usize;
    let mut pos_total = 0usize;
    let mut cm_weighted = ConfusionMatrix::new(3);
    let mut cm_unweighted = ConfusionMatrix::new(3);
    for tally in &sweep.outputs {
        pos_correct += tally.pos_correct;
        pos_total += tally.pos_total;
        for &(truth, weighted, unweighted) in &tally.votes {
            cm_weighted.record(truth, weighted);
            cm_unweighted.record(truth, unweighted);
        }
    }
    let pos_accuracy = pos_correct as f64 / pos_total as f64;

    let mut report = ExperimentReport::new(
        "E4",
        "Car-level positioning & 3-level congestion from Bluetooth RSSI",
    );
    report.push(Row::with_paper(
        "car-level positioning accuracy",
        0.83,
        pos_accuracy,
        "fraction",
    ));
    report.push(Row::with_paper(
        "congestion F-measure (weighted vote)",
        0.82,
        cm_weighted.macro_f1().unwrap_or(0.0),
        "macro-F1",
    ));
    report.push(Row::measured_only(
        "congestion F-measure (unweighted ablation)",
        cm_unweighted.macro_f1().unwrap_or(0.0),
        "macro-F1",
    ));
    report.push(Row::measured_only(
        "congestion accuracy (weighted)",
        cm_weighted.accuracy(),
        "fraction",
    ));
    report.push(Row::measured_only(
        "congestion ordinal error ≤1 level",
        cm_weighted.within_k(1),
        "fraction",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_the_shape() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        let pos = report
            .row("car-level positioning accuracy")
            .unwrap()
            .measured;
        let f1 = report
            .row("congestion F-measure (weighted vote)")
            .unwrap()
            .measured;
        // Shape: positioning well above the 1/6 chance level; congestion
        // well above the 1/3 chance level.
        assert!(pos > 0.6, "pos={pos}");
        assert!(f1 > 0.5, "f1={f1}");
        let within1 = report
            .row("congestion ordinal error ≤1 level")
            .unwrap()
            .measured;
        assert!(within1 > 0.9, "within1={within1}");
    }

    #[test]
    fn conversion_preserves_scene_shape() {
        let generator = TrainSceneGenerator::paper_train().unwrap();
        let mut rng = SeedRng::new(1);
        let scene = generator.scene(&mut rng);
        let labelled = to_labelled(&scene);
        assert_eq!(labelled.observation.cars, 6);
        assert_eq!(labelled.user_car.len(), labelled.observation.users());
        assert_eq!(labelled.congestion.len(), 6);
        assert!(labelled.congestion.iter().all(|&c| c < 3));
    }
}
