//! E10 harness: `cargo run --release -p zeiot-bench --bin e10_serving
//! [--samples N] [--epochs N] [--horizon N] [--seed N] [--threads N]
//! [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::e10_serving::{run, Params};

fn main() {
    run_experiment(&["samples", "epochs", "horizon", "seed"], |map, runner| {
        let mut params = Params::default();
        override_usize(map, "samples", &mut params.samples_per_class);
        override_usize(map, "epochs", &mut params.epochs);
        override_u64(map, "horizon", &mut params.horizon_secs);
        override_u64(map, "seed", &mut params.seed);
        run(&params, runner)
    });
}
