//! Golden-report regression tests.
//!
//! E1, E4, E12, E13 and E14 reduced reports at the default seed are committed as
//! JSON fixtures; any change to data generation, training, evaluation, or
//! the sweep layer that shifts a single byte of the report fails here. To
//! re-bless after an intentional change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p zeiot-bench --test golden_reports
//! ```

use std::path::PathBuf;
use zeiot_bench::experiments::{e12_quant, e13_replace, e14_venue, e1_temperature, e4_train};
use zeiot_bench::SweepRunner;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with BLESS_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden fixture; if intentional, re-bless with BLESS_GOLDEN=1"
    );
}

#[test]
fn e1_reduced_report_matches_golden() {
    let report = e1_temperature::run(&e1_temperature::Params::reduced(), &SweepRunner::serial());
    check_golden("e1_reduced.json", &report.to_json());
}

#[test]
fn e4_reduced_report_matches_golden() {
    let report = e4_train::run(&e4_train::Params::reduced(), &SweepRunner::serial());
    check_golden("e4_reduced.json", &report.to_json());
}

#[test]
fn e12_reduced_report_matches_golden() {
    let report = e12_quant::run(&e12_quant::Params::reduced(), &SweepRunner::serial()).0;
    check_golden("e12_reduced.json", &report.to_json());
}

#[test]
fn e13_reduced_report_matches_golden() {
    let report = e13_replace::run(&e13_replace::Params::reduced(), &SweepRunner::serial()).0;
    check_golden("e13_reduced.json", &report.to_json());
}

#[test]
fn e14_reduced_report_matches_golden() {
    let report = e14_venue::run(&e14_venue::Params::reduced(), &SweepRunner::serial()).0;
    check_golden("e14_reduced.json", &report.to_json());
}
