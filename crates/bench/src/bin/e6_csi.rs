//! E6 harness: `cargo run --release -p zeiot-bench --bin e6_csi
//! [--train_per_position N] [--test_per_position N] [--k N] [--seed N]
//! [--threads N] [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::e6_csi::{run, Params};

fn main() {
    run_experiment(
        &["train_per_position", "test_per_position", "k", "seed"],
        |map, runner| {
            let mut params = Params::default();
            override_usize(map, "train_per_position", &mut params.train_per_position);
            override_usize(map, "test_per_position", &mut params.test_per_position);
            override_usize(map, "k", &mut params.k);
            override_u64(map, "seed", &mut params.seed);
            run(&params, runner)
        },
    );
}
