//! X1 — design-support planner scaling (paper §III.B / §V extension).
//!
//! The paper does not evaluate this system (it states it as a research
//! challenge); this harness characterizes our implementation: collection
//! round length versus network size and channel count, the feasibility
//! frontier for a 1 Hz collection cycle, and replanning behaviour under
//! failures.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::id::NodeId;
use zeiot_core::time::SimDuration;
use zeiot_net::Topology;
use zeiot_plan::planner::{Planner, Requirements};

/// Tunable experiment size.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Square-grid side lengths to sweep (network sizes side²).
    pub grid_sides: Vec<usize>,
    /// Channel counts to sweep.
    pub channels: Vec<usize>,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            grid_sides: vec![3, 5, 7, 9],
            channels: vec![1, 2, 4],
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            grid_sides: vec![3, 5],
            channels: vec![1, 2],
        }
    }
}

/// Runs X1. The planner runs serially, so the runner is unused; it
/// keeps the signature every experiment shares.
///
/// # Panics
///
/// Panics if either sweep list is empty.
pub fn run(params: &Params, _runner: &SweepRunner) -> ExperimentReport {
    assert!(
        !params.grid_sides.is_empty() && !params.channels.is_empty(),
        "sweeps must be non-empty"
    );
    let req_base = Requirements {
        cycle: SimDuration::from_secs(1),
        payload_bits: 256,
        bit_rate_bps: 250e3,
        channels: 1,
    };

    let mut report = ExperimentReport::new(
        "X1",
        "Design-support planner: collection schedule scaling (extension)",
    );
    for &channels in &params.channels {
        let mut lengths = Vec::new();
        for &side in &params.grid_sides {
            let topo = Topology::grid(side, side, 2.0, 3.0).expect("valid grid");
            let planner = Planner::new(&topo, NodeId::new(0)).expect("valid sink");
            let req = Requirements {
                channels,
                ..req_base
            };
            let plan = planner.plan(&req).expect("valid requirements");
            lengths.push(plan.schedule.length() as f64);
        }
        report.push_series(format!("schedule slots ({channels} ch)"), lengths);
    }
    report.push_series(
        "network size (nodes)",
        params.grid_sides.iter().map(|&s| (s * s) as f64).collect(),
    );

    // Feasibility at the largest size.
    let side = *params.grid_sides.last().expect("non-empty");
    let topo = Topology::grid(side, side, 2.0, 3.0).expect("valid grid");
    let planner = Planner::new(&topo, NodeId::new(0)).expect("valid sink");
    let plan1 = planner.plan(&req_base).expect("valid");
    report.push(Row::measured_only(
        format!("round duration, {} nodes, 1 ch", side * side),
        plan1.round_duration.as_secs_f64() * 1e3,
        "ms",
    ));
    report.push(Row::measured_only(
        "max collection rate, 1 ch",
        plan1.max_rate_hz(),
        "rounds/s",
    ));
    let min_ch = planner.minimum_channels(&req_base, 8);
    report.push(Row::measured_only(
        "minimum channels for 1 Hz cycle",
        min_ch.map(|c| c as f64).unwrap_or(f64::NAN),
        "channels",
    ));

    // Replanning under 10 % failures.
    let failed: Vec<NodeId> = (1..=(side * side / 10).max(1))
        .map(|i| NodeId::new((i * 7 % (side * side)).max(1) as u32))
        .collect();
    let repaired = planner
        .replan_after_failures(&req_base, &failed)
        .expect("sink survives");
    report.push(Row::measured_only(
        "round duration after 10% failures",
        repaired.round_duration.as_secs_f64() * 1e3,
        "ms",
    ));
    report.push(Row::measured_only(
        "uncovered nodes after replanning",
        repaired.uncovered.len() as f64,
        "nodes",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_has_sane_scaling() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        let one_ch = &report
            .series
            .iter()
            .find(|(n, _)| n == "schedule slots (1 ch)")
            .unwrap()
            .1;
        let two_ch = &report
            .series
            .iter()
            .find(|(n, _)| n == "schedule slots (2 ch)")
            .unwrap()
            .1;
        // Larger networks need longer rounds; more channels never hurt.
        assert!(one_ch[1] > one_ch[0]);
        for (a, b) in one_ch.iter().zip(two_ch) {
            assert!(b <= a, "2ch {b} > 1ch {a}");
        }
        let rate = report.row("max collection rate, 1 ch").unwrap().measured;
        assert!(rate > 1.0, "rate={rate}");
    }
}
