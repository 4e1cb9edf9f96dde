//! E10 — multi-tenant inference serving under load and degradation.
//!
//! No table in the paper corresponds to this harness; it extends E9's
//! robustness probe from *one inference at a time* to *a serving layer
//! under offered load*: many context-recognition tenants sharing a
//! sensor mesh, each with its own request stream and latency contract
//! (`zeiot-serve`). The sweep crosses three axes over a MicroDeep
//! deployment trained once and shared by every point:
//!
//! - **offered load** — the same tenant mix at 0.25×, 1× and 3× its
//!   nominal rates. Light load is latency-bound (idle worker, p99 ≈
//!   batch time); overload is shed-bound (bounded queues shed with
//!   typed reasons rather than growing without bound).
//! - **shard count** — 1, 2, 4 worker shards for the same 1× load.
//!   More shards cut queueing delay until each shard holds one tenant.
//! - **micro-batch size** — 1, 4, 8 at 1× load. Batching amortizes the
//!   per-dispatch overhead, trading a little per-request service jitter
//!   for throughput headroom.
//!
//! A final group serves through `zeiot-fault` fabrics and walks the
//! degradation ladder: zero-fill and last-value-hold substitution keep
//! every request answered (degraded accuracy), while fail-fast plus the
//! stale-result cache answers aborted passes from the tenant's last
//! good logits — accuracy decays but the serving layer never goes
//! silent.

use super::e9_faults::{Baseline, PASS_PERIOD};
use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_net::Topology;
use zeiot_serve::{
    ArrivalProcess, DegradedServing, ServeConfig, ServeReport, Server, Tenant, TenantSpec,
};

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Labelled samples per class (training + tenant request pools).
    pub samples_per_class: usize,
    /// Training epochs for the shared baseline model.
    pub epochs: usize,
    /// Simulated serving horizon per sweep point, in seconds.
    pub horizon_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            samples_per_class: 60,
            epochs: 15,
            horizon_secs: 10,
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
            horizon_secs: 4,
            seed: 42,
        }
    }
}

/// Load multipliers swept over the nominal tenant mix.
pub const LOAD_SCALES: [f64; 3] = [0.25, 1.0, 3.0];

/// Shard counts swept at nominal load.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Micro-batch sizes swept at nominal load.
pub const BATCH_SIZES: [usize; 3] = [1, 4, 8];

/// Worker time per inference.
const SERVICE_TIME: SimDuration = SimDuration::from_millis(40);

/// Fixed worker time per dispatched micro-batch.
const BATCH_OVERHEAD: SimDuration = SimDuration::from_millis(10);

/// Relative deadline granted to every request.
const DEADLINE: SimDuration = SimDuration::from_millis(400);

/// One degradation setting of the final sweep group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Degradation {
    /// No fabric: exact in-memory serving.
    Lossless,
    /// Serve through a lossy fabric, substituting lost activations.
    Substitute {
        /// The substitution mode.
        mode: DegradeMode,
        /// Per-attempt drop probability.
        loss: f64,
    },
    /// Fail-fast fabric with the stale-result cache as fallback.
    StaleFallback {
        /// Per-attempt drop probability.
        loss: f64,
    },
}

impl Degradation {
    /// A short stable label for report rows.
    pub fn label(&self) -> String {
        match self {
            Degradation::Lossless => "lossless".to_owned(),
            Degradation::Substitute { mode, loss } => {
                let mode = match mode {
                    DegradeMode::ZeroFill => "zero-fill",
                    DegradeMode::LastValueHold => "last-value-hold",
                };
                format!("{mode}, p={loss:.3}")
            }
            Degradation::StaleFallback { loss } => format!("stale-cache, p={loss:.3}"),
        }
    }
}

/// The degradation settings swept (the lossless entry is the reference).
pub fn degradations() -> [Degradation; 4] {
    [
        Degradation::Lossless,
        Degradation::Substitute {
            mode: DegradeMode::ZeroFill,
            loss: 0.05,
        },
        Degradation::Substitute {
            mode: DegradeMode::LastValueHold,
            loss: 0.05,
        },
        Degradation::StaleFallback { loss: 0.001 },
    ]
}

/// One sweep point: a serving configuration to measure.
#[derive(Debug, Clone, PartialEq)]
struct PointSpec {
    shards: usize,
    batch: usize,
    load_scale: f64,
    degradation: Degradation,
}

/// The full deterministic point list: load × shards × batch groups, then
/// the degradation settings.
fn point_specs() -> Vec<PointSpec> {
    let nominal = |shards, batch, load_scale| PointSpec {
        shards,
        batch,
        load_scale,
        degradation: Degradation::Lossless,
    };
    let mut points: Vec<PointSpec> = LOAD_SCALES.iter().map(|&s| nominal(2, 4, s)).collect();
    points.extend(
        SHARD_COUNTS
            .iter()
            .filter(|&&n| n != 2)
            .map(|&n| nominal(n, 4, 1.0)),
    );
    points.extend(
        BATCH_SIZES
            .iter()
            .filter(|&&b| b != 4)
            .map(|&b| nominal(2, b, 1.0)),
    );
    points.extend(
        degradations()
            .into_iter()
            .skip(1) // lossless is the load group's 1.0× point
            .map(|d| PointSpec {
                shards: 2,
                batch: 4,
                load_scale: 1.0,
                degradation: d,
            }),
    );
    points
}

/// Index of the nominal point (1.0× load, 2 shards, batch 4) that the
/// shard/batch/degradation groups are compared against.
const NOMINAL: usize = 1;

/// The serving deployment: E9's mesh and CNN, so the messages-per-pass
/// and fault behaviour match the established numbers.
pub fn deployment() -> Topology {
    super::e9_faults::deployment()
}

/// The nominal tenant mix: three context-recognition applications with
/// different arrival shapes and the same latency contract (shared with
/// E11–E13).
pub(crate) fn tenant_specs(load_scale: f64) -> Vec<TenantSpec> {
    let mix = [
        ("motion", ArrivalProcess::poisson(8.0)),
        (
            "doors",
            ArrivalProcess::periodic(SimDuration::from_millis(150)),
        ),
        (
            "hvac",
            ArrivalProcess::bursts(
                3,
                SimDuration::from_millis(5),
                SimDuration::from_millis(400),
            ),
        ),
    ];
    mix.into_iter()
        .map(|(name, arrivals)| TenantSpec::new(name, arrivals.scaled(load_scale), DEADLINE))
        .collect()
}

/// A server over `topo` with the E10 worker timing: `shards` shards
/// dispatching micro-batches of up to `batch` from 16-deep queues
/// (shared with E11–E14).
pub(crate) fn server(shards: usize, batch: usize, topo: Topology, tenants: Vec<Tenant>) -> Server {
    let config = ServeConfig::new(shards, batch, 16, SERVICE_TIME)
        .expect("valid config")
        .with_batch_overhead(BATCH_OVERHEAD);
    Server::new(config, topo, tenants).expect("tenants present")
}

/// Runs E10: one clean baseline is trained and shared, then every sweep
/// point builds a fresh server over it and serves its tenant mix for the
/// horizon. Results are identical for every thread count.
pub fn run(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    let mut baseline = Baseline::train(params.seed, params.samples_per_class, params.epochs);
    let clean_accuracy = baseline.model.accuracy(&baseline.test);

    let horizon = SimDuration::from_secs(params.horizon_secs);
    let plan_seed = params.seed ^ 0xFA17;
    let specs = point_specs();

    let sweep = runner.run_seeded(
        params.seed ^ 0xE10A,
        specs.len(),
        |index, _rng, recorder| {
            let spec = &specs[index];
            let tenants = baseline.tenants(tenant_specs(spec.load_scale));
            let mut server = server(spec.shards, spec.batch, deployment(), tenants);
            server = match spec.degradation {
                Degradation::Lossless => server,
                Degradation::Substitute { mode, loss } => server.with_degraded(DegradedServing {
                    plan: FaultPlan::uniform(plan_seed, loss).expect("valid rate"),
                    policy: RecoveryPolicy::Degrade { mode },
                    pass_period: PASS_PERIOD,
                    stale_cache: false,
                    replace: None,
                }),
                Degradation::StaleFallback { loss } => server.with_degraded(DegradedServing {
                    plan: FaultPlan::uniform(plan_seed, loss).expect("valid rate"),
                    policy: RecoveryPolicy::FailFast,
                    pass_period: PASS_PERIOD,
                    stale_cache: true,
                    replace: None,
                }),
            };
            let outcome = server.run(params.seed, horizon, Some(recorder));
            outcome.report
        },
    );
    let reports: &[ServeReport] = &sweep.outputs;

    let mut report = ExperimentReport::new(
        "E10",
        "Multi-tenant inference serving: load, sharding, batching and degraded-mode fallback",
    );
    report.push(Row::measured_only(
        "accuracy (clean baseline, direct)",
        clean_accuracy,
        "fraction",
    ));

    // Load group: throughput saturates and shedding takes over.
    for (i, &scale) in LOAD_SCALES.iter().enumerate() {
        let total = reports[i].total();
        report.push(Row::measured_only(
            format!("throughput ({scale:.2}x load)"),
            total.throughput_hz(horizon),
            "req/s",
        ));
        report.push(Row::measured_only(
            format!("shed rate ({scale:.2}x load)"),
            total.shed_rate(),
            "fraction",
        ));
        report.push(Row::measured_only(
            format!("p99 latency ({scale:.2}x load)"),
            total.p99_latency().unwrap_or(0.0) * 1e3,
            "ms",
        ));
    }

    // Per-tenant contract report at nominal load.
    let nominal = &reports[NOMINAL];
    for (name, stats) in &nominal.tenants {
        report.push(Row::measured_only(
            format!("throughput (tenant {name})"),
            stats.throughput_hz(horizon),
            "req/s",
        ));
        report.push(Row::measured_only(
            format!("p50 latency (tenant {name})"),
            stats.p50_latency().unwrap_or(0.0) * 1e3,
            "ms",
        ));
        report.push(Row::measured_only(
            format!("p99 latency (tenant {name})"),
            stats.p99_latency().unwrap_or(0.0) * 1e3,
            "ms",
        ));
        report.push(Row::measured_only(
            format!("deadline miss rate (tenant {name})"),
            stats.deadline_miss_rate(),
            "fraction",
        ));
    }

    // Shard group: p99 vs shard count at nominal load.
    let shard_report = |n: usize| -> &ServeReport {
        if n == 2 {
            nominal
        } else {
            let offset = SHARD_COUNTS
                .iter()
                .filter(|&&c| c != 2)
                .position(|&c| c == n);
            &reports[LOAD_SCALES.len() + offset.expect("swept shard count")]
        }
    };
    let shard_curve: Vec<f64> = SHARD_COUNTS
        .iter()
        .map(|&n| shard_report(n).total().p99_latency().unwrap_or(0.0) * 1e3)
        .collect();
    for (&n, &p99) in SHARD_COUNTS.iter().zip(&shard_curve) {
        report.push(Row::measured_only(
            format!("p99 latency ({n} shards)"),
            p99,
            "ms",
        ));
    }
    report.push_series("p99 latency vs shards (ms)", shard_curve);

    // Batch group: amortized overhead at nominal load.
    let batch_report = |b: usize| -> &ServeReport {
        if b == 4 {
            nominal
        } else {
            let offset = BATCH_SIZES
                .iter()
                .filter(|&&c| c != 4)
                .position(|&c| c == b);
            &reports[LOAD_SCALES.len() + SHARD_COUNTS.len() - 1 + offset.expect("swept batch size")]
        }
    };
    let batch_curve: Vec<f64> = BATCH_SIZES
        .iter()
        .map(|&b| batch_report(b).total().p99_latency().unwrap_or(0.0) * 1e3)
        .collect();
    for (&b, &p99) in BATCH_SIZES.iter().zip(&batch_curve) {
        report.push(Row::measured_only(
            format!("p99 latency (batch {b})"),
            p99,
            "ms",
        ));
    }
    report.push_series("p99 latency vs batch (ms)", batch_curve);

    // Degradation group: accuracy under each setting (the lossless
    // reference is the nominal point).
    let degradation_base = specs.len() - (degradations().len() - 1);
    for (d, setting) in degradations().into_iter().enumerate() {
        let point = if d == 0 {
            nominal
        } else {
            &reports[degradation_base + d - 1]
        };
        let total = point.total();
        report.push(Row::measured_only(
            format!("serving accuracy ({})", setting.label()),
            total.accuracy(),
            "fraction",
        ));
        if d > 0 {
            report.push(Row::measured_only(
                format!("served degraded+stale ({})", setting.label()),
                (total.degraded + total.stale) as f64,
                "count",
            ));
        }
    }
    let stale_point = reports[specs.len() - 1].total();
    report.push(Row::measured_only(
        "stale answers (stale-cache setting)",
        stale_point.stale as f64,
        "count",
    ));
    report.push(Row::measured_only(
        "failed requests (stale-cache setting)",
        stale_point.failed as f64,
        "count",
    ));

    report.attach_metrics(sweep.metrics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_shows_serving_behaviour() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        let clean = report
            .row("accuracy (clean baseline, direct)")
            .unwrap()
            .measured;
        assert!(clean > 0.8, "clean={clean}");
        // Serving losslessly at nominal load matches direct accuracy:
        // same model, same inputs, same forward pass.
        let lossless = report.row("serving accuracy (lossless)").unwrap().measured;
        assert_eq!(lossless, clean);
        // Overload sheds; light load does not.
        let light = report.row("shed rate (0.25x load)").unwrap().measured;
        let heavy = report.row("shed rate (3.00x load)").unwrap().measured;
        assert_eq!(light, 0.0, "light-load shed={light}");
        assert!(heavy > 0.2, "overload shed={heavy}");
        // Degraded settings still serve (accuracy above the random-guess
        // floor is not guaranteed at every loss rate, but answers are).
        let zf = report
            .row("serving accuracy (zero-fill, p=0.050)")
            .unwrap()
            .measured;
        assert!(zf > 0.0, "zero-fill accuracy={zf}");
        let stale = report
            .row("stale answers (stale-cache setting)")
            .unwrap()
            .measured;
        assert!(stale > 0.0, "stale={stale}");
    }

    #[test]
    fn point_list_is_stable() {
        let specs = point_specs();
        assert_eq!(
            specs.len(),
            LOAD_SCALES.len()
                + (SHARD_COUNTS.len() - 1)
                + (BATCH_SIZES.len() - 1)
                + (degradations().len() - 1)
        );
        assert_eq!(specs[NOMINAL].load_scale, 1.0);
        assert_eq!(specs[NOMINAL].shards, 2);
        assert_eq!(specs[NOMINAL].batch, 4);
    }
}
