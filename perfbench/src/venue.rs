//! `venue_fusion`: the E14 composite venues at their default scale.
//! Set-up compiles both venue scenarios. A venue point serves the four
//! modality tenants through a 5 % uniform zero-fill fabric with E14's
//! trace sampling, then applies every fusion policy at every
//! observation instant. An episode is one point of each venue, so
//! episode times are not a mix of two venues' different costs.
//!
//! The traced variant times each `FusionEngine::estimate` call and the
//! traced serving run, and runs the same point once more through
//! `Server::run` without a tracer, whose outcome must be byte-identical.

use crate::metrics::{Digest, Metrics};
use crate::serve::{counts, Counts};
use crate::stats::median;
use crate::{completions_digest, Episode, TracedEpisode, Workload};
use std::time::Instant;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_net::Topology;
use zeiot_obs::trace::{TraceSampler, Tracer};
use zeiot_scenario::{
    log_posterior, mode_discount, reliability_weight, CompiledScenario, Evidence, FusionEngine,
    FusionPolicy, Scenario, Venue, DEFAULT_EVIDENCE_FLOOR,
};
use zeiot_serve::{DegradedServing, Outcome, ServeConfig, ServeOutcome, Server, ServiceMode};

/// E14's default scale and sampling rate.
const OBSERVATIONS: usize = 48;
const TRAINING_PER_LEVEL: usize = 30;
const SAMPLE_RATE: f64 = 0.25;
/// E14's nominal fault level, and that point's index within a venue's
/// three fault levels (which seeds its trace sampler).
const LOSS: f64 = 0.05;
const LOSS_INDEX: u64 = 1;

const SERVICE_TIME: SimDuration = SimDuration::from_millis(40);
const BATCH_OVERHEAD: SimDuration = SimDuration::from_millis(10);
const PASS_PERIOD: SimDuration = SimDuration::from_millis(500);

/// One modality's answer at one instant: its service mode and class
/// scores, or nothing when the request was shed or failed.
type Answer = Option<(ServiceMode, Vec<f64>)>;

/// What one venue point produced.
struct Point {
    outcome: ServeOutcome,
    /// Host seconds of the serving run alone.
    run_secs: f64,
    /// Host seconds of the whole point.
    secs: f64,
    /// Digest of the completions, fused estimates and trace shape.
    digest: u64,
    /// Every fusion stream accounted for every instant.
    accounted: bool,
}

/// The venue-fusion workload.
#[derive(Debug)]
pub struct VenueFusion {
    seed: u64,
    compiled: Vec<CompiledScenario>,
    topo: Topology,
    /// Per venue: the first point's digest and serve counts.
    reference: Vec<Option<(u64, Counts)>>,
    fuse_us: Vec<f64>,
    venue_run_ms: Vec<f64>,
    traced_run_s: f64,
    plain_run_s: f64,
}

impl VenueFusion {
    fn server(&self, v: usize) -> Server {
        let tenants = self.compiled[v]
            .make_tenants(self.topo.len())
            .expect("compiled pools");
        let config = ServeConfig::new(4, 4, 16, SERVICE_TIME)
            .expect("valid config")
            .with_batch_overhead(BATCH_OVERHEAD);
        Server::new(config, self.topo.clone(), tenants)
            .expect("tenants present")
            .with_degraded(DegradedServing {
                plan: FaultPlan::uniform(self.seed ^ 0xFA17, LOSS).expect("valid rate"),
                policy: RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                pass_period: PASS_PERIOD,
                stale_cache: true,
                replace: None,
            })
    }

    /// Runs venue `v`'s point; with `time_fusion`, records each
    /// estimate's host time.
    fn point(&mut self, v: usize, time_fusion: bool) -> Point {
        let start = Instant::now();
        let mut server = self.server(v);
        let scenario = &self.compiled[v];
        let sampler_seed = self.seed ^ 0xE14 ^ ((v as u64 * 3 + LOSS_INDEX) << 8);
        let mut tracer = Tracer::new(TraceSampler::rate(sampler_seed, SAMPLE_RATE));
        let run_start = Instant::now();
        let outcome = server.run_traced(self.seed, scenario.horizon(), None, Some(&mut tracer));
        let run_secs = run_start.elapsed().as_secs_f64();
        let traces = tracer.take_finished();

        let observations = scenario.truth.len();
        let modalities = scenario.modalities();
        let weights: Vec<f64> = modalities
            .iter()
            .zip(&outcome.report.tenants)
            .map(|(m, (_, stats))| reliability_weight(m.calib_accuracy, stats))
            .collect();
        let mut answers: Vec<Vec<Answer>> = vec![vec![None; observations]; modalities.len()];
        for c in &outcome.completions {
            if let Outcome::Served { mode, logits, .. } = &c.outcome {
                if (c.seq as usize) < observations {
                    answers[c.tenant][c.seq as usize] =
                        Some((*mode, logits.iter().map(|&x| f64::from(x)).collect()));
                }
            }
        }
        let mut digest = Digest::new();
        let mut accounted = true;
        for policy in FusionPolicy::ALL {
            let mut engine = FusionEngine::new(policy);
            for (k, &truth) in scenario.truth.iter().enumerate() {
                let evidence: Vec<Evidence> = answers
                    .iter()
                    .zip(&weights)
                    .map(|(row, &w)| match &row[k] {
                        Some((mode, scores)) => Evidence {
                            log_scores: log_posterior(scores, DEFAULT_EVIDENCE_FLOOR),
                            weight: w * mode_discount(*mode),
                        },
                        None => Evidence {
                            log_scores: Vec::new(),
                            weight: 0.0,
                        },
                    })
                    .collect();
                let estimate = if time_fusion {
                    let call = Instant::now();
                    let e = engine.estimate(&evidence);
                    self.fuse_us.push(call.elapsed().as_secs_f64() * 1e6);
                    e
                } else {
                    engine.estimate(&evidence)
                };
                digest.u64(estimate.map_or(u64::MAX, |e| e as u64));
                digest.u64(u64::from(estimate == Some(truth)));
            }
            let s = engine.stats();
            accounted &= s.fused + s.fallback + s.abstained == observations as u64;
        }
        let secs = start.elapsed().as_secs_f64();
        digest.u64(completions_digest(&outcome.completions));
        digest.u64(traces.len() as u64);
        digest.u64(traces.iter().map(|t| t.spans.len() as u64).sum());
        Point {
            outcome,
            run_secs,
            secs,
            digest: digest.finish(),
            accounted,
        }
    }

    /// Whether venue `v`'s point repeats its reference.
    fn repeats(&self, v: usize, p: &Point) -> bool {
        p.accounted && self.reference[v] == Some((p.digest, counts(&p.outcome)))
    }
}

impl Workload for VenueFusion {
    fn setup(seed: u64, compile_ms: &mut Vec<f64>) -> Self {
        let compiled = Venue::ALL
            .iter()
            .map(|&venue| {
                let start = Instant::now();
                let c = Scenario::new(venue, OBSERVATIONS, TRAINING_PER_LEVEL, seed)
                    .compile()
                    .expect("valid scenario spec");
                compile_ms.push(start.elapsed().as_secs_f64() * 1e3);
                c
            })
            .collect();
        Self {
            seed,
            compiled,
            topo: Topology::grid(3, 3, 2.0, 3.0).expect("valid layout"),
            reference: vec![None; Venue::ALL.len()],
            fuse_us: Vec::new(),
            venue_run_ms: Vec::new(),
            traced_run_s: 0.0,
            plain_run_s: 0.0,
        }
    }

    fn check(&mut self) -> bool {
        let mut ok = true;
        for v in 0..self.compiled.len() {
            let p = self.point(v, false);
            ok &= p.accounted && p.outcome.report.total().served > 0;
            self.reference[v] = Some((p.digest, counts(&p.outcome)));
        }
        ok
    }

    fn episode(&mut self) -> Episode {
        let mut e = Episode::default();
        for v in 0..self.compiled.len() {
            let p = self.point(v, false);
            let units = self.compiled[v].truth.len() as u64;
            e.secs += p.secs;
            e.units += units;
            e.failed += if self.repeats(v, &p) { 0 } else { units };
        }
        e
    }

    /// One iteration covers both venues: each point untraced, traced,
    /// and served once more through `Server::run` without a tracer.
    fn traced(&mut self) -> TracedEpisode {
        let mut it = TracedEpisode::default();
        for v in 0..self.compiled.len() {
            let units = self.compiled[v].truth.len() as u64;
            let untraced = self.point(v, false);
            let traced = self.point(v, true);
            self.venue_run_ms.push(traced.run_secs * 1e3);

            let mut server = self.server(v);
            let start = Instant::now();
            let plain = server.run(self.seed, self.compiled[v].horizon(), None);
            self.plain_run_s += start.elapsed().as_secs_f64();
            self.traced_run_s += traced.run_secs;

            let identical = format!("{plain:?}") == format!("{:?}", traced.outcome);
            let ok = identical && self.repeats(v, &untraced) && self.repeats(v, &traced);
            it.untraced_secs += untraced.secs;
            it.traced_secs += traced.secs;
            it.units += units;
            it.failed += if ok { 0 } else { units };
        }
        it
    }

    fn layers(&self, compile_ms: &[f64]) -> Metrics {
        let mut m = Metrics::default();
        m.put("scenario.compile_ms", median(compile_ms), "ms");
        m.put("scenario.fuse_us.p50", median(&self.fuse_us), "us");
        m.put("serve.venue_run_ms", median(&self.venue_run_ms), "ms");
        m.put(
            "obs.trace_share",
            (self.traced_run_s - self.plain_run_s) / self.plain_run_s,
            "share",
        );
        // Serve counts of one venue pair (both venues' points).
        let mut pair = Counts::default();
        for (_, c) in self.reference.iter().flatten() {
            pair.offered += c.offered;
            pair.answered += c.answered;
            pair.shed += c.shed;
            pair.degraded += c.degraded;
        }
        pair.put_serve(&mut m);
        m
    }
}
