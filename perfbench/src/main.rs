//! zeiot-perfbench: host-time benchmark of the zeiot serving, lossy
//! training and venue-fusion paths.
//!
//! ```text
//! zeiot-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! zeiot is a deterministic simulator: every simulated statistic is a
//! fixed output for a given seed, so the benchmark *checks* those
//! outputs and *measures* host time and memory. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it runs the traced
//! variant of each episode and prints the per-layer metrics. The last
//! stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! See `README.md` next to this crate for the metric definitions.

mod cnn;
mod metrics;
mod serve;
mod stats;
mod train;
mod venue;

use metrics::{Digest, Metrics};
use stats::Phase;
use std::process::ExitCode;
use std::time::Instant;

/// The seed whose `serve_degraded` completions digest is recorded.
pub const DEFAULT_SEED: u64 = 42;

/// Set-ups per untraced run; `setup_s` is their median. The first
/// builds the workload; the rest are spread evenly over the measured
/// time, so the median samples the same host conditions as the
/// episodes.
const SETUP_REPS: usize = 9;

/// Host seconds of episodes discarded before measuring.
const WARMUP_S: f64 = 1.0;

/// Measured episodes a run collects at least (the tail rule needs
/// eleven).
const MIN_EPISODES: usize = 11;

/// One untraced episode as the workload measured it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Episode {
    /// Host seconds of the timed work (output checks excluded).
    pub secs: f64,
    /// Work units the episode completed.
    pub units: u64,
    /// Units whose output failed a check.
    pub failed: u64,
}

/// One traced iteration: the same work run untraced and traced.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedEpisode {
    /// Host seconds of the untraced run.
    pub untraced_secs: f64,
    /// Host seconds of the traced run.
    pub traced_secs: f64,
    /// Work units the traced run completed.
    pub units: u64,
    /// Units whose output failed a check (including traced ≠ untraced).
    pub failed: u64,
}

/// A benchmark workload. Set-up is timed by the harness; episodes time
/// their own work so output checks stay outside the measurement.
pub trait Workload: Sized {
    /// Builds everything the episodes need. `compile_ms` collects
    /// per-scenario compile times for workloads that compile one.
    fn setup(seed: u64, compile_ms: &mut Vec<f64>) -> Self;

    /// One-off output checks after set-up; `false` fails the run.
    fn check(&mut self) -> bool;

    /// One untraced episode.
    fn episode(&mut self) -> Episode;

    /// One traced iteration, recording per-layer samples internally.
    fn traced(&mut self) -> TracedEpisode;

    /// The per-layer metrics this workload measures itself, from what
    /// [`Workload::traced`] recorded; `compile_ms` as in set-up.
    fn layers(&self, compile_ms: &[f64]) -> Metrics;
}

/// A workload's two run modes.
struct Entry {
    name: &'static str,
    untraced: fn(u64, f64) -> RunResult,
    traced: fn(u64, Phase) -> (Metrics, u64, u64),
}

const fn entry<W: Workload>(name: &'static str) -> Entry {
    Entry {
        name,
        untraced: run_untraced::<W>,
        traced: traced_layers::<W>,
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [Entry; 4] = [
    entry::<serve::Serve<false>>("serve_clean"),
    entry::<serve::Serve<true>>("serve_degraded"),
    entry::<train::Train>("train_lossy"),
    entry::<venue::VenueFusion>("venue_fusion"),
];

fn workload(name: &str) -> Option<&'static Entry> {
    WORKLOADS.iter().find(|e| e.name == name)
}

/// What a run prints.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

/// Builds `W` once; returns it with the host seconds taken.
fn timed_setup<W: Workload>(seed: u64, compile_ms: &mut Vec<f64>) -> (W, f64) {
    let start = Instant::now();
    let w = W::setup(seed, compile_ms);
    (w, start.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> RunResult {
    let mut compile_ms = Vec::new();
    let (mut w, first_setup) = timed_setup::<W>(seed, &mut compile_ms);
    let mut setup_secs = vec![first_setup];
    let checked = w.check();
    let phase = Phase {
        warmup_s: WARMUP_S,
        measure_s: seconds,
        min_measured: MIN_EPISODES,
    };
    let mut episodes: Vec<Episode> = Vec::new();
    let mut durations: Vec<f64> = Vec::new();
    while !phase.done(&durations) {
        let e = w.episode();
        durations.push(e.secs);
        episodes.push(e);
        let measured: f64 = phase.measured(&durations).iter().sum();
        let next = seconds * setup_secs.len() as f64 / SETUP_REPS as f64;
        if setup_secs.len() < SETUP_REPS && measured >= next {
            setup_secs.push(timed_setup::<W>(seed, &mut compile_ms).1);
        }
    }
    while setup_secs.len() < SETUP_REPS {
        setup_secs.push(timed_setup::<W>(seed, &mut compile_ms).1);
    }
    let warm = phase.warmup_len(&durations);
    let measured = &episodes[warm..];
    let measured_secs = phase.measured(&durations);
    let rates: Vec<f64> = measured.iter().map(|e| e.units as f64 / e.secs).collect();
    let attempted: u64 = episodes.iter().map(|e| e.units).sum();
    let failed = if checked {
        episodes.iter().map(|e| e.failed).sum()
    } else {
        attempted
    };

    // On a shared 2-vCPU host the speed swings up to ~1.7x between states
    // that last from under a second to minutes, so an episode median or
    // tail lands in either state from run to run. The fast-side
    // quantiles below move far less; the median and tail are printed as
    // notes and reported by the traced run.
    let mut metrics = Metrics::default();
    metrics.put("setup_s", stats::median(&setup_secs), "s");
    metrics.put("throughput_per_s", stats::percentile(&rates, 95.0), "1/s");
    metrics.put(
        "episode_p5_ms",
        stats::percentile(measured_secs, 5.0) * 1e3,
        "ms",
    );
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    let mut notes = vec![episode_note(measured_secs)];
    notes.push(format!(
        "failed_share = {} ({failed} of {attempted} units)",
        failed as f64 / attempted.max(1) as f64
    ));
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The episode median, quartiles and tail of `secs`, as a note line.
fn episode_note(secs: &[f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(secs);
    let tail = stats::tail(secs).map_or("no tail (under 11 episodes)".to_owned(), |t| {
        format!(
            "tail p{:.1} {:.4} ms ({} beyond)",
            t.percentile,
            t.value * 1e3,
            t.beyond
        )
    });
    format!(
        "{} episodes: p50 {:.4} ms, quartiles {:.4} / {:.4} ms, {tail}",
        secs.len(),
        q2 * 1e3,
        q1 * 1e3,
        q3 * 1e3
    )
}

/// Traced iterations of `W` under `phase`; returns its per-layer
/// metrics with the tracing overhead, and the attempted/failed units.
fn traced_layers<W: Workload>(seed: u64, phase: Phase) -> (Metrics, u64, u64) {
    let mut compile_ms = Vec::new();
    let (mut w, _) = timed_setup::<W>(seed, &mut compile_ms);
    let checked = w.check();
    let mut iterations: Vec<TracedEpisode> = Vec::new();
    let mut durations: Vec<f64> = Vec::new();
    while !phase.done(&durations) {
        let start = Instant::now();
        let t = w.traced();
        durations.push(start.elapsed().as_secs_f64());
        iterations.push(t);
    }
    let measured = &iterations[phase.warmup_len(&durations)..];
    let untraced: Vec<f64> = measured.iter().map(|t| t.untraced_secs).collect();
    let traced: Vec<f64> = measured.iter().map(|t| t.traced_secs).collect();
    let mut metrics = w.layers(&compile_ms);
    metrics.put("bench.episode_p50_ms", stats::median(&untraced) * 1e3, "ms");
    if let Some(t) = stats::tail(&untraced) {
        metrics.put("bench.episode_tail_ms", t.value * 1e3, "ms");
    }
    metrics.put(
        "bench.trace_overhead_ms",
        (stats::median(&traced) - stats::median(&untraced)) * 1e3,
        "ms",
    );
    let attempted: u64 = iterations.iter().map(|t| t.units).sum();
    let failed = if checked {
        iterations.iter().map(|t| t.failed).sum()
    } else {
        attempted
    };
    (metrics, attempted, failed)
}

/// The traced run: the workload's own traced iterations for `seconds`,
/// then one short traced iteration of each other workload for the
/// per-layer metrics of layers this workload does not exercise (so
/// every traced run reports the full per-layer set).
fn run_traced(own: &Entry, seed: u64, seconds: f64) -> RunResult {
    let (mut metrics, mut attempted, mut failed) = (own.traced)(
        seed,
        Phase {
            warmup_s: WARMUP_S,
            measure_s: seconds,
            min_measured: MIN_EPISODES,
        },
    );
    let mut notes = Vec::new();
    for other in metrics::FILL_ORDER.iter().filter_map(|n| workload(n)) {
        if other.name == own.name || metrics::PER_LAYER.iter().all(|(n, _)| metrics.has(n)) {
            continue;
        }
        let (filled, a, f) = (other.traced)(
            seed,
            Phase {
                warmup_s: 0.0,
                measure_s: 0.0,
                min_measured: 1,
            },
        );
        attempted += a;
        failed += f;
        for name in metrics.fill_from(&filled) {
            notes.push(format!("{name} from one traced {} iteration", other.name));
        }
    }
    let missing: Vec<&str> = metrics::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !metrics.has(n))
        .collect();
    assert!(missing.is_empty(), "no workload measured {missing:?}");
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: metrics.only(&metrics::PER_LAYER),
        notes,
    }
}

struct Args {
    workload: &'static Entry,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = crate::workload(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zeiot-perfbench: {e}");
            eprintln!(
                "usage: zeiot-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|e| e.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        run_traced(args.workload, args.seed, args.seconds)
    } else {
        (args.workload.untraced)(args.seed, args.seconds)
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in out.metrics.iter() {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// FNV-1a digest of a served outcome's completions, field by field (so
/// it does not depend on `Debug` formatting).
pub fn completions_digest(completions: &[zeiot_serve::Completion]) -> u64 {
    use zeiot_serve::Outcome as O;
    let mut d = Digest::new();
    for c in completions {
        d.u64(c.tenant as u64);
        d.u64(c.seq);
        d.u64(c.arrival.as_nanos());
        match &c.outcome {
            O::Served {
                completion,
                mode,
                logits,
                prediction,
                missed_deadline,
            } => {
                d.str("served");
                d.u64(completion.as_nanos());
                d.str(mode.label());
                for v in logits {
                    d.u64(u64::from(v.to_bits()));
                }
                d.u64(*prediction as u64);
                d.u64(u64::from(*missed_deadline));
            }
            O::Shed { reason } => {
                d.str("shed");
                d.str(reason.label());
            }
            O::Failed => d.str("failed"),
        }
    }
    d.finish()
}
