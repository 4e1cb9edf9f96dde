//! E14 harness: `cargo run --release -p zeiot-bench --bin e14_venue
//! [--observations N] [--training N] [--seed N] [--rate F]
//! [--threads N] [--json 1] [--jsonl PATH] [--trace-jsonl PATH]`.
//!
//! Sweeps venue scenario (train-line rush hour / stadium event day) ×
//! fabric fault level × fusion policy over the four modality tenants
//! and reports fused vs single-modality context accuracy, the fusion
//! margin, and graceful-fallback counters. `--trace-jsonl PATH`
//! additionally exports every sampled causal trace as JSON Lines (one
//! trace per line, `(point, tenant, seq)` order — byte-identical
//! across `--threads` values; CI diffs it). Inspect the dump with
//! `cargo run -p zeiot-obs --bin trace-report -- PATH`.

use zeiot_bench::cli::{override_f64, override_u64, override_usize, run_traced_experiment};
use zeiot_bench::experiments::e14_venue::{run, Params};

fn main() {
    run_traced_experiment(
        &["observations", "training", "seed", "rate"],
        |map, runner| {
            let mut params = Params::default();
            override_usize(map, "observations", &mut params.observations);
            override_usize(map, "training", &mut params.training_per_level);
            override_u64(map, "seed", &mut params.seed);
            override_f64(map, "rate", &mut params.sample_rate);
            run(&params, runner)
        },
    );
}
