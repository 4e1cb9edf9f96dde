//! E1 harness: `cargo run --release -p zeiot-bench --bin e1_temperature
//! [--samples N] [--epochs N] [--seed N] [--threads N] [--json 1]
//! [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::e1_temperature::{run, Params};

fn main() {
    run_experiment(&["samples", "epochs", "seed"], |map, runner| {
        let mut params = Params::default();
        override_usize(map, "samples", &mut params.samples);
        override_usize(map, "epochs", &mut params.epochs);
        override_u64(map, "seed", &mut params.seed);
        run(&params, runner)
    });
}
