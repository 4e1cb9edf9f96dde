//! Ablation-suite harness: `cargo run --release -p zeiot-bench --bin
//! ablations [--samples N] [--epochs N] [--mac_seconds N] [--seed N]
//! [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::ablations::{run, Params};

fn main() {
    run_experiment(
        &["samples", "epochs", "mac_seconds", "seed"],
        |map, runner| {
            let mut params = Params::default();
            override_usize(map, "samples", &mut params.samples);
            override_usize(map, "epochs", &mut params.epochs);
            override_u64(map, "mac_seconds", &mut params.mac_seconds);
            override_u64(map, "seed", &mut params.seed);
            run(&params, runner)
        },
    );
}
