//! E8 harness: `cargo run --release -p zeiot-bench --bin e8_energy
//! [--seconds N] [--seed N] [--threads N] [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_u64, run_experiment};
use zeiot_bench::experiments::e8_energy::{run, Params};

fn main() {
    run_experiment(&["seconds", "seed"], |map, runner| {
        let mut params = Params::default();
        override_u64(map, "seconds", &mut params.seconds);
        override_u64(map, "seed", &mut params.seed);
        run(&params, runner)
    });
}
