#!/usr/bin/env python3
"""Build and run the zeiot benchmark.

From the repository root:

    python3 perfbench/run.py --workload serve_clean --seed 42 --seconds 10 --trace 0

builds `perfbench/` (a Cargo package of its own, into `$CARGO_TARGET_DIR`,
default `.bench_build`) and runs one workload; the last stdout line is the
JSON result. Two more subcommands drive repeated runs:

    python3 perfbench/run.py collect --out base.json [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py heldout [--seed 7] [--runs 3] [--workloads a,b]

`collect` writes every run's result into one file for `compare.py`.
`heldout` runs the default seed and a held-out seed and fails unless every
end-to-end median of the held-out seed is within the metric's bound of the
default seed's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

DEFAULT_SEED = 42
WORKLOADS = ["serve_clean", "serve_degraded", "train_lossy", "venue_fusion"]


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path, or exits with
    cargo's code when the build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    code = subprocess.call(cmd, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        sys.exit(code if 0 < code < 256 else 1)
    return target_dir() / "release" / "zeiot-perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """One benchmark run; returns its parsed result line."""
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def options(argv, defaults):
    opts = dict(defaults)
    it = iter(argv)
    for flag in it:
        key = flag.lstrip("-").replace("-", "_")
        if not flag.startswith("--") or key not in opts:
            sys.exit(f"perfbench: unknown option {flag}; known: {sorted(opts)}")
        opts[key] = next(it, None)
        if opts[key] is None:
            sys.exit(f"perfbench: {flag} needs a value")
    return opts


def collect(binary, workloads, seeds, seconds, trace):
    runs = []
    for w in workloads:
        for s in seeds:
            result = run_once(binary, w, s, seconds, trace)
            print(f"{w} seed {s}: correct={result['correct']}", file=sys.stderr)
            runs.append({"workload": w, "seed": s, "trace": trace, "result": result})
    return {"runs": runs}


def main(argv):
    spec = compare.load_spec()
    seconds = str(spec.get("run_seconds", 10))
    if argv and argv[0] == "collect":
        o = options(argv[1:], {"out": None, "workloads": ",".join(WORKLOADS),
                               "seeds": "1-10", "seconds": seconds, "trace": "0"})
        if not o["out"]:
            sys.exit("perfbench: collect needs --out")
        data = collect(build(), o["workloads"].split(","), parse_seeds(o["seeds"]),
                       o["seconds"], int(o["trace"]))
        Path(o["out"]).write_text(json.dumps(data, indent=1) + "\n")
        return 0
    if argv and argv[0] == "heldout":
        o = options(argv[1:], {"seed": "7", "runs": "3", "seconds": seconds,
                               "workloads": ",".join(WORKLOADS)})
        binary = build()
        workloads = o["workloads"].split(",")
        runs = int(o["runs"])
        base = collect(binary, workloads, [DEFAULT_SEED] * runs, o["seconds"], 0)
        head = collect(binary, workloads, [int(o["seed"])] * runs, o["seconds"], 0)
        rows = compare.compare(base, head, spec)
        print(f"held-out seed {o['seed']} against default seed {DEFAULT_SEED}, {runs} runs each\n")
        print(compare.render(rows))
        outside = [r for r in rows if r.bound is not None and abs(r.ratio - 1) > r.bound]
        for r in outside:
            print(f"outside bound: {r.workload} {r.metric} ratio {r.ratio:.4f} > ±{r.bound}")
        return 1 if outside else 0
    binary = build()
    return subprocess.call([str(binary), *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
