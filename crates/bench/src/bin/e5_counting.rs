//! E5 harness: `cargo run --release -p zeiot-bench --bin e5_counting
//! [--max_people N] [--train_rounds N] [--test_rounds N] [--seed N]
//! [--threads N] [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, override_usize, run_experiment};
use zeiot_bench::experiments::e5_counting::{run, Params};

fn main() {
    run_experiment(
        &["max_people", "train_rounds", "test_rounds", "seed"],
        |map, runner| {
            let mut params = Params::default();
            override_usize(map, "max_people", &mut params.max_people);
            override_usize(map, "train_rounds", &mut params.train_rounds);
            override_usize(map, "test_rounds", &mut params.test_rounds);
            override_u64(map, "seed", &mut params.seed);
            run(&params, runner)
        },
    );
}
