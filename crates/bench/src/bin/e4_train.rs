//! E4 harness: `cargo run --release -p zeiot-bench --bin e4_train
//! [--train_scenes N] [--test_scenes N] [--seed N] [--threads N]
//! [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::e4_train::{run, Params};

fn main() {
    run_experiment(&["train_scenes", "test_scenes", "seed"], |map, runner| {
        let mut params = Params::default();
        override_usize(map, "train_scenes", &mut params.train_scenes);
        override_usize(map, "test_scenes", &mut params.test_scenes);
        override_u64(map, "seed", &mut params.seed);
        run(&params, runner)
    });
}
