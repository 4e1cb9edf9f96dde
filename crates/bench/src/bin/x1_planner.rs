//! X1 harness: `cargo run --release -p zeiot-bench --bin x1_planner
//! [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::run_experiment;
use zeiot_bench::experiments::x1_planner::{run, Params};

fn main() {
    run_experiment(&[], |_map, runner| run(&Params::default(), runner));
}
