//! E2 harness: `cargo run --release -p zeiot-bench --bin e2_motion
//! [--samples N] [--epochs N] [--subjects N] [--seed N] [--threads N]
//! [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::e2_motion::{run, Params};

fn main() {
    run_experiment(&["samples", "epochs", "subjects", "seed"], |map, runner| {
        let mut params = Params::default();
        override_usize(map, "samples", &mut params.samples);
        override_usize(map, "epochs", &mut params.epochs);
        override_usize(map, "subjects", &mut params.subjects);
        override_u64(map, "seed", &mut params.seed);
        run(&params, runner)
    });
}
