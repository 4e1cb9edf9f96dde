//! E9 — distributed inference under radio faults and brownouts.
//!
//! No table in the paper corresponds to this harness; it probes the
//! *robustness* claim implicit in §IV.C: a CNN spread across a sensor
//! mesh must keep producing answers when the mesh misbehaves. The sweep
//! crosses packet-loss rates with recovery policies over a MicroDeep
//! deployment and reports the accuracy / traffic / latency trade-off
//! each policy buys:
//!
//! - **fail-fast** — any lost activation aborts the inference (an abort
//!   scores as a misclassification). The curve collapses almost
//!   immediately: with hundreds of cross-node messages per pass, even
//!   2 % loss kills nearly every inference.
//! - **retransmit** — lost messages are retried on a deterministic
//!   backoff schedule, trading extra traffic and hop-latency for
//!   survival at moderate loss.
//! - **zero-fill / last-value-hold** — lost activations are substituted
//!   and the inference completes degraded; accuracy decays smoothly
//!   with the loss rate.
//!
//! A final brownout scenario derives outage windows for three mesh
//! nodes from `zeiot-energy` capacitor traces (a 15 µW harvest cannot
//! sustain the 20 µW compute draw, so the devices duty-cycle) and trains
//! the CNN *through* the resulting fault fabric.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_core::units::Watt;
use zeiot_energy::capacitor::Capacitor;
use zeiot_energy::consumer::PowerProfile;
use zeiot_energy::harvester::ConstantSource;
use zeiot_energy::intermittent::IntermittentDevice;
use zeiot_fault::{DegradeMode, FaultPlan, FaultStats, RecoveryPolicy};
use zeiot_microdeep::lossy::LossyRuntime;
use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, WeightUpdate};
use zeiot_net::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::Label;
use zeiot_serve::{Tenant, TenantSpec};

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Labelled samples per class.
    pub samples_per_class: usize,
    /// Training epochs (baseline and brownout arms alike).
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            samples_per_class: 60,
            epochs: 15,
            seed: 42,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            samples_per_class: 30,
            epochs: 6,
            seed: 42,
        }
    }
}

/// Packet-loss rates swept per policy.
pub const LOSS_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// The recovery policies swept, with their report labels.
pub fn policies() -> [RecoveryPolicy; 4] {
    [
        RecoveryPolicy::FailFast,
        RecoveryPolicy::Retransmit {
            max_retries: 2,
            timeout: SimDuration::from_millis(50),
            backoff: 2.0,
        },
        RecoveryPolicy::Degrade {
            mode: DegradeMode::ZeroFill,
        },
        RecoveryPolicy::Degrade {
            mode: DegradeMode::LastValueHold,
        },
    ]
}

/// The experiment's deployment: a 3×3 mesh whose corner-to-corner links
/// need two hops, hosting a small 8×8 CNN.
///
/// # Panics
///
/// Never; the layout is statically valid.
pub fn deployment() -> Topology {
    Topology::grid(3, 3, 2.0, 3.0).expect("valid layout")
}

/// The experiment's CNN.
///
/// # Panics
///
/// Never; the geometry is statically valid.
pub fn cnn_config() -> CnnConfig {
    CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).expect("valid geometry")
}

/// Synthetic two-class 8×8 intensity data: class 0 lights the top-left
/// quadrant, class 1 the bottom-right, with mild Gaussian noise.
fn generate_data(samples_per_class: usize, rng: &mut SeedRng) -> Vec<(Tensor, usize)> {
    let mut data = Vec::with_capacity(samples_per_class * 2);
    for _ in 0..samples_per_class {
        for class in 0..2usize {
            let mut img = Tensor::zeros(vec![1, 8, 8]);
            for y in 0..4 {
                for x in 0..4 {
                    let (yy, xx) = if class == 0 { (y, x) } else { (y + 4, x + 4) };
                    img.set(&[0, yy, xx], 1.0 + rng.normal_with(0.0, 0.1) as f32);
                }
            }
            data.push((img, class));
        }
    }
    data
}

/// The clean baseline E9–E13 share: [`generate_data`] split 80/20 into
/// train and test sets, and a [`DistributedCnn`] on [`deployment`]
/// trained losslessly on the train set.
pub(crate) struct Baseline {
    /// The first 80 % of the data.
    pub train: Vec<(Tensor, usize)>,
    /// The held-out 20 %.
    pub test: Vec<(Tensor, usize)>,
    /// The trained model.
    pub model: DistributedCnn,
    /// The trained model's JSON snapshot, which sweep points restore.
    pub json: String,
}

impl Baseline {
    /// Generates the data and trains the model for `epochs`, each draw
    /// from its own stream of `seed` (`0xDA7A` data, `0x0DE1` weights,
    /// `0x7124` shuffling).
    pub(crate) fn train(seed: u64, samples_per_class: usize, epochs: usize) -> Self {
        let mut data_rng = SeedRng::with_stream(seed, 0xDA7A);
        let mut train = generate_data(samples_per_class, &mut data_rng);
        let test = train.split_off(train.len() * 4 / 5);

        let config = cnn_config();
        let graph = config.unit_graph().expect("valid config");
        let assignment = Assignment::balanced_correspondence(&graph, &deployment());
        let mut model_rng = SeedRng::with_stream(seed, 0x0DE1);
        let mut model = DistributedCnn::new(
            config,
            assignment,
            WeightUpdate::Independent,
            &mut model_rng,
        );
        let mut train_rng = SeedRng::with_stream(seed, 0x7124);
        for _ in 0..epochs {
            model.train_epoch(&train, 0.08, 8, &mut train_rng);
        }
        let json = model.to_json().expect("serializable model");
        Self {
            train,
            test,
            model,
            json,
        }
    }

    /// One serving tenant per spec, each over a fresh copy of the model
    /// restored from its snapshot and drawing requests from the test set.
    pub(crate) fn tenants(&self, specs: impl IntoIterator<Item = TenantSpec>) -> Vec<Tenant> {
        specs
            .into_iter()
            .map(|spec| {
                let net = DistributedCnn::from_json(&self.json).expect("validated snapshot");
                Tenant::new(spec, net, self.test.clone()).expect("non-empty pool")
            })
            .collect()
    }
}

/// One inference pass's worth of simulated time on the mesh.
pub(crate) const PASS_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Brownout-harvesting mesh nodes in the final scenario.
const BROWNOUT_NODES: [u32; 3] = [0, 4, 8];

/// Simulated-time budget of the capacitor traces driving the brownout
/// outage windows.
pub(crate) const TRACE_BUDGET: SimDuration = SimDuration::from_secs(120);

/// A duty-cycling zero-energy device: the 15 µW harvest cannot sustain
/// the backscatter tag's 20 µW compute draw, so the capacitor browns out
/// periodically.
pub(crate) fn brownout_device() -> IntermittentDevice<ConstantSource> {
    IntermittentDevice::new(
        ConstantSource::new(Watt::new(15e-6)).expect("positive harvest"),
        Capacitor::new(100e-6, 2.4, 1.8, 3.0).expect("valid capacitor"),
        PowerProfile::backscatter_tag().expect("valid profile"),
        SimDuration::from_millis(10),
    )
    .expect("valid device")
}

/// Per-point outcome of the sweep.
struct PointOutcome {
    accuracy: f64,
    stats: FaultStats,
    downtime: f64,
}

/// Runs E9: a clean baseline is trained once, then every (policy ×
/// loss-rate) point re-evaluates it through its own fault fabric as a
/// parallel sweep point, plus one brownout point that trains through
/// the faults. Results are identical for every thread count.
pub fn run(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    // The shared clean baseline, trained losslessly once; sweep points
    // restore it from its validated JSON snapshot.
    let mut baseline = Baseline::train(params.seed, params.samples_per_class, params.epochs);
    let clean_accuracy = baseline.model.accuracy(&baseline.test);
    let (train, test) = (&baseline.train[..], &baseline.test[..]);
    let config = *baseline.model.config();
    let assignment = baseline.model.assignment();
    let topo = deployment();

    let plan_seed = params.seed ^ 0xFA17;
    let policy_set = policies();
    let points = policy_set.len() * LOSS_RATES.len() + 1;
    let brownout_index = points - 1;

    let sweep = runner.run_seeded(params.seed ^ 0xE9FA, points, |index, rng, recorder| {
        if index < brownout_index {
            // Inference-time faults on the pre-trained model, restored
            // from its validated JSON snapshot.
            let mut net = DistributedCnn::from_json(&baseline.json).expect("validated snapshot");
            let policy = policy_set[index / LOSS_RATES.len()];
            let rate = LOSS_RATES[index % LOSS_RATES.len()];
            let plan = FaultPlan::uniform(plan_seed, rate).expect("valid rate");
            let mut rt = LossyRuntime::new(plan, policy, &topo, PASS_PERIOD);
            let accuracy = net.accuracy_lossy(test, &mut rt);
            rt.record_to(recorder, Label::Global);
            PointOutcome {
                accuracy,
                stats: *rt.stats(),
                downtime: 0.0,
            }
        } else {
            // Brownouts: capacitor-trace outages on three nodes plus 5 %
            // loss, zero-fill recovery, training *through* the faults
            // from the same initial weights the baseline started from.
            let mut plan = FaultPlan::uniform(plan_seed ^ 0xB0, 0.05).expect("valid rate");
            let horizon = SimTime::ZERO + TRACE_BUDGET;
            for node in BROWNOUT_NODES {
                let trace = brownout_device().power_trace(TRACE_BUDGET, rng);
                plan = plan
                    .with_outages_from_trace(NodeId::new(node), &trace, horizon)
                    .expect("valid trace");
            }
            let downtime = BROWNOUT_NODES
                .iter()
                .map(|&n| plan.downtime_fraction(NodeId::new(n), horizon))
                .sum::<f64>()
                / BROWNOUT_NODES.len() as f64;
            let mut rt = LossyRuntime::new(
                plan,
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                &topo,
                PASS_PERIOD,
            );
            let mut fresh_rng = SeedRng::with_stream(plan_seed, 0x0DE1);
            let mut net = DistributedCnn::new(
                config,
                assignment.clone(),
                WeightUpdate::Independent,
                &mut fresh_rng,
            );
            let mut epoch_rng = SeedRng::with_stream(plan_seed, 0x7124);
            for _ in 0..params.epochs {
                net.train_epoch_lossy(train, 0.08, 8, &mut epoch_rng, &mut rt);
            }
            let accuracy = net.accuracy_lossy(test, &mut rt);
            rt.record_to(recorder, Label::Global);
            PointOutcome {
                accuracy,
                stats: *rt.stats(),
                downtime,
            }
        }
    });

    let mut report = ExperimentReport::new(
        "E9",
        "Distributed inference under lossy links, recovery policies and brownouts",
    );
    report.push(Row::measured_only(
        "accuracy (clean baseline)",
        clean_accuracy,
        "fraction",
    ));
    for (p, policy) in policy_set.iter().enumerate() {
        let curve: Vec<f64> = (0..LOSS_RATES.len())
            .map(|r| sweep.outputs[p * LOSS_RATES.len() + r].accuracy)
            .collect();
        for (r, &rate) in LOSS_RATES.iter().enumerate() {
            report.push(Row::measured_only(
                format!("accuracy ({}, p={rate:.2})", policy.label()),
                curve[r],
                "fraction",
            ));
        }
        report.push_series(format!("accuracy vs loss ({})", policy.label()), curve);
    }
    // Traffic and latency: what each policy pays at 10 % loss.
    for (p, policy) in policy_set.iter().enumerate() {
        let stats = &sweep.outputs[p * LOSS_RATES.len() + 3].stats;
        report.push(Row::measured_only(
            format!("traffic overhead ({}, p=0.10)", policy.label()),
            stats.traffic_overhead(),
            "attempts/msg",
        ));
    }
    let retransmit = &sweep.outputs[LOSS_RATES.len() + 3].stats;
    report.push(Row::measured_only(
        "mean recovery latency (retransmit, p=0.10)",
        retransmit.mean_recovery_latency_hops(),
        "hops",
    ));
    let fail_fast = &sweep.outputs[2].stats;
    report.push(Row::measured_only(
        "inferences aborted (fail-fast, p=0.05)",
        fail_fast.aborted as f64,
        "count",
    ));
    let lossless = &sweep.outputs[0].stats;
    report.push(Row::measured_only(
        "messages per inference (lossless)",
        lossless.sent as f64 / test.len() as f64,
        "msgs",
    ));
    let brownout = &sweep.outputs[brownout_index];
    report.push(Row::measured_only(
        "accuracy (brownout training, 5% loss, zero-fill)",
        brownout.accuracy,
        "fraction",
    ));
    report.push(Row::measured_only(
        "mean node downtime (brownout nodes)",
        brownout.downtime,
        "fraction",
    ));
    report.push(Row::measured_only(
        "degraded deliveries (brownout)",
        brownout.stats.degraded as f64,
        "count",
    ));
    report.attach_metrics(sweep.metrics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_shows_policy_ordering() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        let clean = report.row("accuracy (clean baseline)").unwrap().measured;
        assert!(clean > 0.8, "clean={clean}");
        // p=0: every policy matches the clean baseline exactly.
        for policy in policies() {
            let at_zero = report
                .row(&format!("accuracy ({}, p=0.00)", policy.label()))
                .unwrap()
                .measured;
            assert_eq!(at_zero, clean, "{}", policy.label());
        }
        // Fail-fast collapses at moderate loss; degrade stays well above
        // the random-guess floor (0.5 for two classes).
        let ff = report.row("accuracy (fail-fast, p=0.10)").unwrap().measured;
        let zf = report.row("accuracy (zero-fill, p=0.10)").unwrap().measured;
        assert!(ff < 0.2, "fail-fast={ff}");
        assert!(zf > 0.5, "zero-fill={zf}");
        assert!(zf > ff);
        // Retransmission costs traffic but buys delivery.
        let overhead = report
            .row("traffic overhead (retransmit, p=0.10)")
            .unwrap()
            .measured;
        assert!(overhead > 1.0, "overhead={overhead}");
        // The brownout arm completes and reports real downtime.
        let downtime = report
            .row("mean node downtime (brownout nodes)")
            .unwrap()
            .measured;
        assert!(downtime > 0.0 && downtime < 1.0, "downtime={downtime}");
    }
}
