//! E7 harness: `cargo run --release -p zeiot-bench --bin e7_link
//! [--exciter_to_tag_m M] [--threads N] [--json 1] [--jsonl PATH]`.

use zeiot_bench::cli::{override_f64, run_experiment};
use zeiot_bench::experiments::e7_link::{run, Params};

fn main() {
    run_experiment(&["exciter_to_tag_m"], |map, runner| {
        let mut params = Params::default();
        override_f64(map, "exciter_to_tag_m", &mut params.exciter_to_tag_m);
        run(&params, runner)
    });
}
