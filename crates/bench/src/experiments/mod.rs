//! The experiment harnesses (see DESIGN.md §4 for the index).
//!
//! Each module exposes a `Params` struct whose `Default` is the
//! paper-scale configuration, a `reduced()` constructor for fast CI runs,
//! and one entry point, `run(&Params, &SweepRunner)`. It returns the
//! `ExperimentReport`, or `(ExperimentReport, Vec<Trace>)` for the traced
//! experiments E11–E14. Results are identical for every thread count;
//! pass `SweepRunner::serial()` to run on the calling thread.
//!
//! E9–E13 share one fixture set: E9's deployment, CNN, data and trained
//! baseline (`e9_faults::Baseline`), and E10's tenant mix and serving
//! constants.

pub mod ablations;
pub mod e10_serving;
pub mod e11_slo;
pub mod e12_quant;
pub mod e13_replace;
pub mod e14_venue;
pub mod e1_temperature;
pub mod e2_motion;
pub mod e3_mac;
pub mod e4_train;
pub mod e5_counting;
pub mod e6_csi;
pub mod e7_link;
pub mod e8_energy;
pub mod e9_faults;
pub mod x1_planner;
pub mod x2_fusion;
