//! Thread-count invariance tests (see DESIGN.md §7b and `sweep.rs`).
//!
//! A sweep fanned out over 4 worker threads must produce the byte-exact
//! report, metrics snapshot and trace export of the serial run — the
//! contract CI's determinism job re-checks end-to-end by diffing the
//! binaries' `--threads 1` and `--threads 4` output. E13 is the
//! load-bearing entry: its re-placement engine mutates per-tenant
//! placements mid-run, so any hidden cross-point state would surface
//! here first.

use zeiot_bench::experiments::{e13_replace, e14_venue, e1_temperature};
use zeiot_bench::SweepRunner;

#[test]
fn e1_report_is_thread_count_invariant() {
    let params = e1_temperature::Params::reduced();
    let serial = e1_temperature::run(&params, &SweepRunner::serial());
    let threaded = e1_temperature::run(&params, &SweepRunner::new(4));
    assert_eq!(serial.to_json(), threaded.to_json());
}

#[test]
fn e13_report_snapshot_and_traces_are_thread_count_invariant() {
    let params = e13_replace::Params::reduced();
    let (serial, serial_traces) = e13_replace::run(&params, &SweepRunner::serial());
    let (threaded, threaded_traces) = e13_replace::run(&params, &SweepRunner::new(4));
    // The metrics snapshot rides inside the report JSON; compare it
    // separately first so a drift there fails with a focused message.
    assert_eq!(
        serial.metrics, threaded.metrics,
        "replace.* counters diverged across thread counts"
    );
    assert_eq!(serial.to_json(), threaded.to_json());
    assert_eq!(
        serial_traces, threaded_traces,
        "sampled traces diverged across thread counts"
    );
}

#[test]
fn e14_report_snapshot_and_traces_are_thread_count_invariant() {
    let params = e14_venue::Params::reduced();
    let (serial, serial_traces) = e14_venue::run(&params, &SweepRunner::serial());
    let (threaded, threaded_traces) = e14_venue::run(&params, &SweepRunner::new(4));
    assert_eq!(
        serial.metrics, threaded.metrics,
        "fusion.* counters diverged across thread counts"
    );
    assert_eq!(serial.to_json(), threaded.to_json());
    assert_eq!(
        serial_traces, threaded_traces,
        "sampled traces diverged across thread counts"
    );
}
