//! The ablation suite of DESIGN.md §5, as one harness.
//!
//! Each ablation isolates one design decision and reports the metric it
//! trades: assignment strategy → peak communication cost; weight-update
//! independence → accuracy and replica divergence; dummy carriers →
//! backscatter delivery under thin WLAN traffic; value caching → traffic
//! saved per strategy; resilience → peak cost as nodes die.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_backscatter::mac::{simulate, MacConfig, MacFaults, MacMode};
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_data::gait::GaitGenerator;
use zeiot_microdeep::replace::plan_incremental;
use zeiot_microdeep::{Assignment, CnnConfig, CostModel, DistributedCnn, WeightUpdate};
use zeiot_net::Topology;

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Gait windows for the weight-update ablation.
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Simulated seconds for the MAC ablation.
    pub mac_seconds: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            samples: 400,
            epochs: 12,
            mac_seconds: 30,
            seed: 5,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            samples: 150,
            epochs: 6,
            mac_seconds: 8,
            seed: 5,
        }
    }
}

/// Runs the ablation suite. Its arms run serially, so the runner is
/// unused; it keeps the signature every experiment shares.
pub fn run(params: &Params, _runner: &SweepRunner) -> ExperimentReport {
    let mut report = ExperimentReport::new("A0", "Ablation suite (DESIGN.md §5)");
    let config = CnnConfig::new(10, 8, 8, 4, 3, 2, 16, 2).expect("valid");
    let graph = config.unit_graph().expect("valid");
    let topo = Topology::grid(8, 8, 0.5, 0.75).expect("valid");
    let cost = CostModel::new(&topo);

    // --- 1. Assignment strategies. ---
    let strategies: [(&str, Assignment); 3] = [
        ("centralized", Assignment::centralized(&graph, &topo)),
        (
            "grid-projection",
            Assignment::grid_projection(&graph, &topo),
        ),
        (
            "balanced-correspondence",
            Assignment::balanced_correspondence(&graph, &topo),
        ),
    ];
    for (name, assignment) in &strategies {
        let plain = cost.forward_cost(&graph, assignment);
        let cached = cost.forward_cost_cached(&graph, assignment);
        report.push(Row::measured_only(
            format!("max cost, {name}"),
            plain.max_cost() as f64,
            "msgs/pass",
        ));
        report.push(Row::measured_only(
            format!("caching saves, {name}"),
            1.0 - cached.max_cost() as f64 / plain.max_cost() as f64,
            "fraction of peak",
        ));
    }

    // --- 2. Weight-update independence. ---
    let mut rng = SeedRng::new(params.seed);
    let data = GaitGenerator::paper_array()
        .expect("valid")
        .generate(params.samples, 5, &mut rng);
    let split = data.len() * 4 / 5;
    let (train, test) = data.split_at(split);
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    for (name, update) in [
        ("synchronized", WeightUpdate::Synchronized),
        ("per-node replicas", WeightUpdate::Independent),
        ("per-unit", WeightUpdate::PerUnit),
    ] {
        let mut train_rng = rng.split();
        let mut net = DistributedCnn::new(config, assignment.clone(), update, &mut train_rng);
        for _ in 0..params.epochs {
            net.train_epoch(train, 0.05, 16, &mut train_rng);
        }
        report.push(Row::measured_only(
            format!("accuracy, {name} updates"),
            net.accuracy(test),
            "fraction",
        ));
        report.push(Row::measured_only(
            format!("divergence, {name} updates"),
            net.replica_divergence(),
            "L2",
        ));
    }

    // --- 3. Dummy carriers under thin WLAN traffic. ---
    let mut thin = MacConfig::default_with_devices(10).expect("valid");
    thin.wlan_arrival_rate_hz = 2.0;
    let duration = SimDuration::from_secs(params.mac_seconds);
    let mut mac_rng = SeedRng::new(params.seed);
    let with_dummies = simulate(
        &thin,
        MacMode::Scheduled,
        duration,
        &mut mac_rng,
        &MacFaults::none(),
        None,
        None,
    );
    let mut mac_rng = SeedRng::new(params.seed);
    let without = simulate(
        &thin,
        MacMode::Naive,
        duration,
        &mut mac_rng,
        &MacFaults::none(),
        None,
        None,
    );
    report.push(Row::measured_only(
        "bs delivery, thin WLAN, with dummy carriers",
        with_dummies.backscatter_delivery_ratio(),
        "fraction",
    ));
    report.push(Row::measured_only(
        "bs delivery, thin WLAN, without (naive)",
        without.backscatter_delivery_ratio(),
        "fraction",
    ));
    report.push(Row::measured_only(
        "dummy airtime paid",
        with_dummies.dummy_overhead(),
        "fraction",
    ));

    // --- 4. Resilience: peak cost as nodes die. ---
    let mut kills = Vec::new();
    let mut peaks = Vec::new();
    for kill in [0usize, 4, 8, 16] {
        let failed: Vec<NodeId> = (0..kill as u32).map(|i| NodeId::new(i * 3 + 1)).collect();
        let (repaired, _) = plan_incremental(&graph, &topo, &assignment, &failed, usize::MAX);
        let degraded = topo.without_nodes(&failed);
        let c = CostModel::new(&degraded).forward_cost(&graph, &repaired);
        kills.push(kill as f64);
        peaks.push(c.max_cost() as f64);
    }
    report.push_series("failed nodes", kills);
    report.push_series("peak cost after recovery", peaks);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_suite_orders_hold() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        // Assignment ordering.
        let central = report.row("max cost, centralized").unwrap().measured;
        let balanced = report
            .row("max cost, balanced-correspondence")
            .unwrap()
            .measured;
        assert!(balanced < central);
        // Caching helps centralized more than balanced.
        let save_central = report.row("caching saves, centralized").unwrap().measured;
        let save_balanced = report
            .row("caching saves, balanced-correspondence")
            .unwrap()
            .measured;
        assert!(save_central > save_balanced);
        // Synchronized never diverges.
        let sync_div = report
            .row("divergence, synchronized updates")
            .unwrap()
            .measured;
        assert!(sync_div < 1e-6);
        // Dummy carriers rescue thin-traffic delivery.
        let with = report
            .row("bs delivery, thin WLAN, with dummy carriers")
            .unwrap()
            .measured;
        let without = report
            .row("bs delivery, thin WLAN, without (naive)")
            .unwrap()
            .measured;
        assert!(with > without + 0.3, "with={with} without={without}");
    }
}
