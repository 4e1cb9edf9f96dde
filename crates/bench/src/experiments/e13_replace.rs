//! E13 — runtime re-placement under brownouts: recovery × outage ×
//! budget.
//!
//! No table in the paper corresponds to this harness; it evaluates the
//! runtime re-placement engine (`zeiot_microdeep::replace`, DESIGN.md
//! §12) against the static alternatives it subsumes. One baseline is
//! trained and shared; every sweep point fixes an outage level (how
//! many mesh nodes duty-cycle on `zeiot-energy` capacitor traces), a
//! migration budget and a recovery policy, then serves the E10 tenant
//! mix four times — once per [`Recovery`] arm — through the *same*
//! fault fabric, and the report answers:
//!
//! - **what does re-placement buy?** Per-arm serving accuracy, logit
//!   deviation from the clean model, and substituted (degraded) fabric
//!   deliveries: the engine re-homes units off dark nodes between
//!   requests instead of letting their outputs degrade for the rest of
//!   the run. Units migrate; dead *sensors* do not — so the headline
//!   is restored compute fidelity (`none − incremental` logit
//!   deviation), and restoration is bounded by surviving input
//!   coverage.
//! - **what does it cost?** Migrations executed, state-handoff frames
//!   and their radio cost — handoffs ride the lossy fabric and are
//!   charged against it like any other traffic.
//! - **is it honest about budgets?** The incremental arm strands units
//!   rather than exceed its per-epoch migration budget;
//!   `budget_exhausted` epochs are reported per point.
//! - **is it deterministic?** Zero-outage points produce byte-identical
//!   reports across all four arms (the engine is a strict no-op without
//!   faults), and the report and trace JSONL export are byte-identical
//!   across `--threads 1/4` (CI diffs the `e13_replace` bin's output).

use super::e10_serving::{deployment, server, tenant_specs};
use super::e9_faults::{brownout_device, Baseline, PASS_PERIOD, TRACE_BUDGET};
use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::id::NodeId;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_microdeep::replace::{apply_offline, plan_incremental, ReplaceConfig};
use zeiot_microdeep::DistributedCnn;
use zeiot_obs::trace::{Trace, TraceSampler, Tracer};
use zeiot_serve::{DegradedServing, Outcome, ServeReport, Tenant};

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Labelled samples per class (training + tenant request pools).
    pub samples_per_class: usize,
    /// Training epochs for the shared baseline model.
    pub epochs: usize,
    /// Simulated serving horizon per arm, in seconds.
    pub horizon_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Deterministic trace sampling rate in `[0, 1]`.
    pub sample_rate: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            samples_per_class: 40,
            epochs: 10,
            horizon_secs: 8,
            seed: 42,
            sample_rate: 0.25,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            samples_per_class: 24,
            epochs: 5,
            horizon_secs: 3,
            seed: 42,
            sample_rate: 0.5,
        }
    }
}

/// How a run recovers from node outages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No recovery: the static placement degrades for the whole run.
    None,
    /// Offline pre-repair: units are moved off every node that will
    /// *ever* brown out, before serving starts — the a-priori §V
    /// resilience repair the engine subsumes, with perfect foresight
    /// and free state transfer.
    Static,
    /// The runtime engine, warm-started incremental search under the
    /// point's migration budget.
    Incremental,
    /// The runtime engine, full re-solve (unbounded migrations).
    FullResolve,
}

impl Recovery {
    fn label(self) -> &'static str {
        match self {
            Recovery::None => "none",
            Recovery::Static => "static",
            Recovery::Incremental => "incremental",
            Recovery::FullResolve => "full-resolve",
        }
    }
}

/// The four recovery arms every sweep point serves through.
pub const ARMS: [Recovery; 4] = [
    Recovery::None,
    Recovery::Static,
    Recovery::Incremental,
    Recovery::FullResolve,
];

/// Brownout node counts swept (0 = healthy mesh).
pub const OUTAGE_LEVELS: [usize; 3] = [0, 2, 3];

/// Per-epoch migration budgets swept (incremental arm only).
pub const BUDGETS: [usize; 2] = [1, 8];

/// Recovery policies swept for lost fabric messages.
pub const POLICIES: [RecoveryPolicy; 2] = [
    RecoveryPolicy::Degrade {
        mode: DegradeMode::ZeroFill,
    },
    RecoveryPolicy::Retransmit {
        max_retries: 2,
        timeout: SimDuration::from_millis(50),
        backoff: 2.0,
    },
];

/// Per-attempt fabric loss rate outside outage windows. Kept at zero
/// so the arms differ only in how they handle *outages*: migration
/// trades spatial locality for availability, and a background loss
/// floor would tax the relocated units' longer routes and muddy the
/// recovery comparison.
const LOSS_RATE: f64 = 0.0;

/// Brownout candidates in dark-first order: [`OUTAGE_LEVELS`] level
/// `k` puts capacitor traces on the first `k`. Nodes 6 and 2 sit in
/// the mesh's signal-free corners (neither class lights their sensor
/// quadrant) yet host dense compute under `balanced_correspondence` —
/// their brownouts are fully recoverable by re-placement, while the
/// no-recovery arm loses hidden features and a logit unit outright.
/// Node 5 additionally covers class-1 pixels, so level 3 shows the
/// physics bound: units migrate, dead sensors do not.
const BROWNOUT_NODES: [u32; 3] = [6, 2, 5];

/// `(outage level, budget, policy)` of sweep point `index`, row-major
/// over [`OUTAGE_LEVELS`] × [`BUDGETS`] × [`POLICIES`].
pub fn point(index: usize) -> (usize, usize, RecoveryPolicy) {
    let per_level = BUDGETS.len() * POLICIES.len();
    (
        OUTAGE_LEVELS[index / per_level],
        BUDGETS[(index / POLICIES.len()) % BUDGETS.len()],
        POLICIES[index % POLICIES.len()],
    )
}

/// Stable label of sweep point `index`.
fn point_label(index: usize) -> String {
    let (level, budget, policy) = point(index);
    format!("{level} dark, budget {budget}, {}", policy_label(&policy))
}

fn policy_label(policy: &RecoveryPolicy) -> &'static str {
    match policy {
        RecoveryPolicy::Degrade { .. } => "zero-fill",
        RecoveryPolicy::Retransmit { .. } => "retransmit",
        _ => "other",
    }
}

/// What one arm of one sweep point produced.
#[derive(Debug, Clone)]
struct ArmResult {
    report: ServeReport,
    traces: Vec<Trace>,
    /// Mean |served logit − clean-model logit| over every answered
    /// request — the compute-fidelity axis argmax accuracy is too
    /// coarse to resolve (amputating dense features rarely flips the
    /// easy two-class decision, but it always bends the logits).
    logit_deviation: f64,
}

impl ArmResult {
    /// Serving accuracy over the arm's labelled completions.
    fn accuracy(&self) -> f64 {
        let total = self.report.total();
        if total.labelled == 0 {
            0.0
        } else {
            total.correct as f64 / total.labelled as f64
        }
    }

    /// Fabric deliveries substituted (degraded) across the arm's run.
    fn degraded(&self) -> f64 {
        self.report
            .fault
            .as_ref()
            .map_or(0.0, |f| f.degraded as f64)
    }
}

/// One sweep point: the four arms in [`ARMS`] order.
#[derive(Debug, Clone)]
struct PointResult {
    arms: Vec<ArmResult>,
}

/// Runs E13: one clean baseline is trained and shared; each sweep
/// point derives its outage windows from capacitor traces, then serves
/// the E10 tenant mix once per recovery arm through an identical fault
/// fabric. Returns the report plus every sampled trace in `(point,
/// arm, tenant, seq)` order — byte-identical across thread counts.
pub fn run(params: &Params, runner: &SweepRunner) -> (ExperimentReport, Vec<Trace>) {
    let mut baseline = Baseline::train(params.seed, params.samples_per_class, params.epochs);
    let topo = deployment();
    let graph = baseline.model.config().unit_graph().expect("valid config");

    let horizon = SimDuration::from_secs(params.horizon_secs);
    let plan_seed = params.seed ^ 0xFA17;
    let rate = params.sample_rate.clamp(0.0, 1.0);
    let points = OUTAGE_LEVELS.len() * BUDGETS.len() * POLICIES.len();
    let pool = &baseline.test;
    // Clean-model reference logits per pool sample (request `seq`
    // serves `pool[seq % len]`), for the per-arm fidelity axis.
    let refs: Vec<Vec<f32>> = pool
        .iter()
        .map(|(x, _)| baseline.model.forward(x).data().to_vec())
        .collect();

    let sweep = runner.run_seeded(params.seed ^ 0xE13A, points, |index, rng, recorder| {
        let (level, budget, policy) = point(index);

        // The point's fault fabric: a low uniform loss floor plus
        // capacitor-trace outage windows on the first `level` brownout
        // nodes. Every arm serves through a clone of this plan.
        let mut plan = FaultPlan::uniform(plan_seed, LOSS_RATE).expect("valid rate");
        let trace_horizon = SimTime::ZERO + TRACE_BUDGET;
        for &node in BROWNOUT_NODES.iter().take(level) {
            let trace = brownout_device().power_trace(TRACE_BUDGET, rng);
            plan = plan
                .with_outages_from_trace(NodeId::new(node), &trace, trace_horizon)
                .expect("valid trace");
        }
        // The a-priori casualty list the static arm repairs against:
        // every node whose capacitor ever browns out.
        let union_down: Vec<NodeId> = (0..topo.len() as u32)
            .map(NodeId::new)
            .filter(|&n| plan.outage_windows(n).next().is_some())
            .collect();

        let arms = ARMS
            .iter()
            .enumerate()
            .map(|(arm_index, &arm)| {
                let tenants: Vec<Tenant> = tenant_specs(1.0)
                    .into_iter()
                    .map(|ts| {
                        let mut net =
                            DistributedCnn::from_json(&baseline.json).expect("validated snapshot");
                        if arm == Recovery::Static && !union_down.is_empty() {
                            let (_, outcome) = {
                                let current = net.assignment().clone();
                                plan_incremental(&graph, &topo, &current, &union_down, usize::MAX)
                            };
                            apply_offline(&mut net, &graph, &outcome.migrations, &union_down);
                        }
                        Tenant::new(ts, net, pool.clone()).expect("non-empty pool")
                    })
                    .collect();
                let mut server = server(2, 4, deployment(), tenants);
                server = server.with_degraded(DegradedServing {
                    plan: plan.clone(),
                    policy,
                    pass_period: PASS_PERIOD,
                    stale_cache: true,
                    replace: match arm {
                        Recovery::None | Recovery::Static => None,
                        Recovery::Incremental => Some(ReplaceConfig::incremental(budget)),
                        Recovery::FullResolve => Some(ReplaceConfig::full_resolve()),
                    },
                });
                // Sampling is a pure function of (seed, point, arm,
                // trace id), so the sampled set is invariant to
                // threads and completion order.
                let mut tracer = Tracer::new(TraceSampler::rate(
                    params.seed ^ 0xE13 ^ ((index as u64) << 8) ^ ((arm_index as u64) << 4),
                    rate,
                ));
                // Only the incremental arm feeds the point's recorder:
                // serve time-series are append-only in virtual time,
                // which restarts at zero for every arm, and the engine
                // counters are what the metrics export is for.
                let rec = (arm == Recovery::Incremental).then_some(&mut *recorder);
                let outcome = server.run_traced(params.seed, horizon, rec, Some(&mut tracer));
                let (mut dev_sum, mut dev_n) = (0.0f64, 0usize);
                for c in &outcome.completions {
                    if let Outcome::Served { logits, .. } = &c.outcome {
                        let reference = &refs[(c.seq % refs.len() as u64) as usize];
                        for (&a, &b) in logits.iter().zip(reference) {
                            dev_sum += (f64::from(a) - f64::from(b)).abs();
                            dev_n += 1;
                        }
                    }
                }
                ArmResult {
                    report: outcome.report,
                    traces: tracer.take_finished(),
                    logit_deviation: if dev_n == 0 {
                        0.0
                    } else {
                        dev_sum / dev_n as f64
                    },
                }
            })
            .collect();
        PointResult { arms }
    });

    let mut report = ExperimentReport::new(
        "E13",
        "Runtime re-placement under brownouts: recovery arm x outage level x migration budget",
    );

    for (index, result) in sweep.outputs.iter().enumerate() {
        let label = point_label(index);
        for (arm, outcome) in ARMS.iter().zip(&result.arms) {
            report.push(Row::measured_only(
                format!("serving accuracy ({}, {label})", arm.label()),
                outcome.accuracy(),
                "fraction",
            ));
            report.push(Row::measured_only(
                format!("logit deviation ({}, {label})", arm.label()),
                outcome.logit_deviation,
                "logits",
            ));
            report.push(Row::measured_only(
                format!("degraded deliveries ({}, {label})", arm.label()),
                outcome.degraded(),
                "count",
            ));
        }
        for (name, arm_index) in [("incremental", 2), ("full-resolve", 3)] {
            let rstats = result.arms[arm_index].report.replace.unwrap_or_default();
            report.push(Row::measured_only(
                format!("migrations ({name}, {label})"),
                rstats.migrations as f64,
                "count",
            ));
            report.push(Row::measured_only(
                format!("handoff cost ({name}, {label})"),
                rstats.handoff_cost as f64,
                "hops",
            ));
        }
        let rstats = result.arms[2].report.replace.unwrap_or_default();
        report.push(Row::measured_only(
            format!("budget-exhausted epochs ({label})"),
            rstats.budget_exhausted as f64,
            "count",
        ));
    }

    // Fidelity the runtime engine restored over the no-recovery floor,
    // per point — the headline column. Restoration is bounded by
    // physics (units migrate off dark nodes, dead *sensors* do not),
    // which is why level 3 restores less than level 2: node 5's
    // class-1 pixels die with it.
    let restored: Vec<f64> = sweep
        .outputs
        .iter()
        .map(|r| r.arms[0].logit_deviation - r.arms[2].logit_deviation)
        .collect();
    for (index, delta) in restored.iter().enumerate() {
        report.push(Row::measured_only(
            format!("fidelity restored incr-none ({})", point_label(index)),
            *delta,
            "logits",
        ));
    }
    report.push_series("fidelity restored by point", restored);

    report.attach_metrics(sweep.metrics);
    let traces: Vec<Trace> = sweep
        .outputs
        .into_iter()
        .flat_map(|p| p.arms.into_iter().flat_map(|a| a.traces))
        .collect();
    (report, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_obs::trace::SpanLayer;

    #[test]
    fn point_grid_is_row_major() {
        assert_eq!(point(0).0, 0);
        assert_eq!(point(0).1, 1);
        assert_eq!(point(3).1, 8);
        assert_eq!(point(4).0, 2);
        assert_eq!(point(11).0, 3);
        assert_eq!(point(11).1, 8);
    }

    #[test]
    fn zero_outage_points_are_byte_identical_across_arms() {
        let params = Params::reduced();
        let (report, _) = run(&params, &SweepRunner::serial());
        // At outage level 0 the engine is a strict no-op, so all four
        // arms must land on the same accuracy and fault totals.
        for index in 0..BUDGETS.len() * POLICIES.len() {
            let label = point_label(index);
            let acc: Vec<f64> = ARMS
                .iter()
                .map(|arm| {
                    report
                        .row(&format!("serving accuracy ({}, {label})", arm.label()))
                        .expect("row present")
                        .measured
                })
                .collect();
            assert!(
                acc.iter().all(|&a| a.to_bits() == acc[0].to_bits()),
                "zero-outage arms diverged at {label}: {acc:?}"
            );
            let degraded: Vec<f64> = ARMS
                .iter()
                .map(|arm| {
                    report
                        .row(&format!("degraded deliveries ({}, {label})", arm.label()))
                        .expect("row present")
                        .measured
                })
                .collect();
            assert!(
                degraded.iter().all(|&d| d == degraded[0]),
                "zero-outage fault totals diverged at {label}: {degraded:?}"
            );
            assert_eq!(
                report
                    .row(&format!("migrations (incremental, {label})"))
                    .expect("row present")
                    .measured,
                0.0
            );
        }
    }

    #[test]
    fn replacement_beats_no_recovery_and_stays_in_budget() {
        let params = Params::reduced();
        let (report, traces) = run(&params, &SweepRunner::serial());
        let dark: Vec<usize> = [2, 3].iter().flat_map(|&l| points_at_level(l)).collect();
        // Under brownouts the incremental engine must migrate, pay
        // real handoff cost, and never out-migrate the full re-solve.
        let mut migrated = false;
        for &index in &dark {
            let label = point_label(index);
            let moves = row(&report, &format!("migrations (incremental, {label})"));
            let full_moves = row(&report, &format!("migrations (full-resolve, {label})"));
            assert!(
                moves <= full_moves,
                "budgeted engine out-migrated the full re-solve at {label}"
            );
            if moves > 0.0 {
                migrated = true;
                assert!(row(&report, &format!("handoff cost (incremental, {label})")) > 0.0);
            }
        }
        assert!(migrated, "no dark point migrated anything");
        // Fidelity is asserted on the zero-fill points: retransmit
        // retries already ride out the brownout windows (the none arm
        // sits at zero deviation), so re-placement has nothing to
        // restore there. Under zero-fill degrade the engine must
        // strictly restore fidelity, converge to the full re-solve at
        // the top budget, and show a budget dose-response.
        for &index in &dark {
            let (_, budget, policy) = point(index);
            if !matches!(policy, RecoveryPolicy::Degrade { .. }) {
                continue;
            }
            let label = point_label(index);
            let none_dev = row(&report, &format!("logit deviation (none, {label})"));
            let incr_dev = row(&report, &format!("logit deviation (incremental, {label})"));
            let full_dev = row(&report, &format!("logit deviation (full-resolve, {label})"));
            assert!(
                none_dev > 0.0,
                "brownouts left the no-recovery arm unscathed at {label}"
            );
            assert!(
                incr_dev < none_dev,
                "incremental did not restore fidelity at {label}: {incr_dev} vs {none_dev}"
            );
            if budget == BUDGETS[BUDGETS.len() - 1] {
                assert!(
                    incr_dev <= full_dev + 0.05,
                    "incremental fell behind the full re-solve at {label}: {incr_dev} vs {full_dev}"
                );
                // Accuracy non-regression only holds once the budget
                // lets repair outpace the transient: a budget-1 repair
                // crawls through asymmetric half-repaired states (one
                // logit path restored, the other still dark) that can
                // flip the argmax even while mean fidelity improves.
                let none_acc = row(&report, &format!("serving accuracy (none, {label})"));
                let incr_acc = row(&report, &format!("serving accuracy (incremental, {label})"));
                assert!(
                    incr_acc >= none_acc,
                    "incremental lost accuracy to no-recovery at {label}"
                );
            }
        }
        // Dose-response: at each dark level the bigger budget recovers
        // at least as much fidelity as the smaller one.
        for level in [2usize, 3] {
            let devs: Vec<f64> = BUDGETS
                .iter()
                .map(|&b| {
                    row(
                        &report,
                        &format!(
                            "logit deviation (incremental, {level} dark, budget {b}, zero-fill)"
                        ),
                    )
                })
                .collect();
            assert!(
                devs.windows(2).all(|w| w[1] <= w[0]),
                "budget dose-response broken at level {level}: {devs:?}"
            );
        }
        // Migration handoffs leave replace.migrate hop spans in the
        // sampled traces.
        assert!(
            traces.iter().any(|t| t
                .spans
                .iter()
                .any(|s| s.layer == SpanLayer::Hop && s.name == "replace.migrate")),
            "no replace.migrate spans sampled"
        );
    }

    #[test]
    fn report_and_traces_are_reproducible() {
        let (report_a, traces_a) = run(&Params::reduced(), &SweepRunner::serial());
        let (report_b, traces_b) = run(&Params::reduced(), &SweepRunner::serial());
        assert_eq!(report_a.to_json(), report_b.to_json());
        assert_eq!(traces_a, traces_b);
    }

    fn row(report: &ExperimentReport, label: &str) -> f64 {
        report.row(label).expect("row present").measured
    }

    fn points_at_level(level: usize) -> Vec<usize> {
        (0..OUTAGE_LEVELS.len() * BUDGETS.len() * POLICIES.len())
            .filter(|&i| point(i).0 == level)
            .collect()
    }
}
