//! E13 harness: `cargo run --release -p zeiot-bench --bin e13_replace
//! [--samples N] [--epochs N] [--horizon N] [--seed N] [--rate F]
//! [--threads N] [--json 1] [--jsonl PATH] [--trace-jsonl PATH]`.
//!
//! Sweeps recovery arm (none / static pre-repair / incremental engine /
//! full re-solve) × brownout outage level × migration budget × loss
//! policy over the serving layer and reports accuracy retained,
//! migrations and state-handoff cost. `--trace-jsonl PATH` additionally
//! exports every sampled causal trace as JSON Lines (one trace per
//! line, `(point, arm, tenant, seq)` order — byte-identical across
//! `--threads` values; CI diffs it). Inspect the dump with `cargo run
//! -p zeiot-obs --bin trace-report -- PATH`.

use zeiot_bench::cli::{override_f64, override_u64, override_usize, run_traced_experiment};
use zeiot_bench::experiments::e13_replace::{run, Params};

fn main() {
    run_traced_experiment(
        &["samples", "epochs", "horizon", "seed", "rate"],
        |map, runner| {
            let mut params = Params::default();
            override_usize(map, "samples", &mut params.samples_per_class);
            override_usize(map, "epochs", &mut params.epochs);
            override_u64(map, "horizon", &mut params.horizon_secs);
            override_u64(map, "seed", &mut params.seed);
            override_f64(map, "rate", &mut params.sample_rate);
            run(&params, runner)
        },
    );
}
