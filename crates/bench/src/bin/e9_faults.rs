//! E9 harness: `cargo run --release -p zeiot-bench --bin e9_faults
//! [--samples N] [--epochs N] [--seed N] [--threads N] [--json 1]
//! [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::e9_faults::{run, Params};

fn main() {
    run_experiment(&["samples", "epochs", "seed"], |map, runner| {
        let mut params = Params::default();
        override_usize(map, "samples", &mut params.samples_per_class);
        override_usize(map, "epochs", &mut params.epochs);
        override_u64(map, "seed", &mut params.seed);
        run(&params, runner)
    });
}
