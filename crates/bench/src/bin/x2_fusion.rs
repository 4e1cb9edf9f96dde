//! X2 harness: `cargo run --release -p zeiot-bench --bin x2_fusion
//! [--seed N] [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, run_experiment};
use zeiot_bench::experiments::x2_fusion::{run, Params};

fn main() {
    run_experiment(&["seed"], |map, runner| {
        let mut params = Params::default();
        override_u64(map, "seed", &mut params.seed);
        run(&params, runner)
    });
}
