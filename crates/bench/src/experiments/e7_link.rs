//! E7 — ambient backscatter link range and throughput (paper §I/Fig. 1).
//!
//! The paper's framing claims: "Wi-Fi-based ambient backscatter is able
//! to transmit and receive data in several tens of meters with several
//! Mbps" and "some recent RFID technologies enable several meters of
//! transmission". This harness sweeps the tag→receiver distance for the
//! two link profiles (ZigBee-backscatter testbed and full-duplex Wi-Fi
//! AP) and reports PER/goodput curves plus the 90 %-success range.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_backscatter::phy::BackscatterLink;

/// Tunable experiment size.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Tag→receiver distances (metres) to sweep.
    pub distances_m: Vec<f64>,
    /// Exciter→tag distance (metres).
    pub exciter_to_tag_m: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            distances_m: vec![
                1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0,
            ],
            exciter_to_tag_m: 1.0,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            distances_m: vec![1.0, 10.0, 40.0, 100.0],
            exciter_to_tag_m: 1.0,
        }
    }
}

/// Runs E7 with the distance sweep fanned out across threads; the link
/// model is RNG-free, so results are identical for every thread count.
///
/// # Panics
///
/// Panics if `params.distances_m` is empty.
pub fn run(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    assert!(!params.distances_m.is_empty(), "need at least one distance");
    let zigbee = BackscatterLink::zigbee_testbed().expect("profile");
    let wifi = BackscatterLink::wifi_full_duplex_ap().expect("profile");

    let sweep = runner.run_seeded(0, params.distances_m.len(), |index, _rng, _recorder| {
        let d = params.distances_m[index];
        let e2r = params.exciter_to_tag_m + d; // colinear geometry
        let point = |link: &BackscatterLink| {
            (
                1.0 - link.packet_success(params.exciter_to_tag_m, d, e2r),
                link.goodput_bps(params.exciter_to_tag_m, d, e2r),
            )
        };
        (point(&zigbee), point(&wifi))
    });

    let mut zig_per = Vec::new();
    let mut zig_goodput = Vec::new();
    let mut wifi_per = Vec::new();
    let mut wifi_goodput = Vec::new();
    for &((zp, zg), (wp, wg)) in &sweep.outputs {
        zig_per.push(zp);
        zig_goodput.push(zg);
        wifi_per.push(wp);
        wifi_goodput.push(wg);
    }
    let zig_range = zigbee
        .max_range_m(params.exciter_to_tag_m, 0.9, 500.0)
        .unwrap_or(0.0);
    let wifi_range = wifi
        .max_range_m(params.exciter_to_tag_m, 0.9, 500.0)
        .unwrap_or(0.0);

    let mut report =
        ExperimentReport::new("E7", "Backscatter link range and throughput vs distance");
    // Paper: "several tens of meters" → nominal 30 m reference.
    report.push(Row::with_paper(
        "90%-success range, ZigBee backscatter",
        30.0,
        zig_range,
        "m",
    ));
    report.push(Row::measured_only(
        "90%-success range, full-duplex Wi-Fi AP",
        wifi_range,
        "m",
    ));
    report.push(Row::measured_only(
        "goodput at 5 m, ZigBee backscatter",
        zig_goodput[params
            .distances_m
            .iter()
            .position(|&d| d >= 5.0)
            .unwrap_or(0)],
        "bit/s",
    ));
    report.push_series("distance (m)", params.distances_m.clone());
    report.push_series("PER (ZigBee)", zig_per);
    report.push_series("PER (Wi-Fi AP)", wifi_per);
    report.push_series("goodput (ZigBee, bit/s)", zig_goodput);
    report.push_series("goodput (Wi-Fi AP, bit/s)", wifi_goodput);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_the_shape() {
        let report = run(&Params::reduced(), &SweepRunner::serial());
        let range = report
            .row("90%-success range, ZigBee backscatter")
            .unwrap()
            .measured;
        // "Several tens of meters".
        assert!(range > 10.0 && range < 200.0, "range={range}");
        // PER grows with distance.
        let per = &report
            .series
            .iter()
            .find(|(n, _)| n == "PER (ZigBee)")
            .unwrap()
            .1;
        assert!(per.first().unwrap() < per.last().unwrap());
        assert!(*per.last().unwrap() > 0.9);
    }
}
