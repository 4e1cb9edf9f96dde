//! `serve_clean` and `serve_degraded`: four tenants of the temperature
//! CNN (two f32, two int8) served through `Server::run` with Poisson
//! arrivals a little above the shards' simulated capacity — in memory,
//! or through a 5 % uniform zero-fill fabric.
//!
//! The traced variant swaps every CNN tenant for a benchmark-owned
//! [`ServeModel`] that calls the same public forward functions and
//! records each call's host time and fabric counter deltas; the traced
//! outcome must be byte-identical to the untraced one.

use crate::cnn::{baseline, same_bits, Baseline, Model};
use crate::metrics::Metrics;
use crate::stats::{median, percentile, self_time};
use crate::{completions_digest, Episode, TracedEpisode, Workload, DEFAULT_SEED};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, FaultPlan, FaultStats, RecoveryPolicy};
use zeiot_microdeep::LossyRuntime;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::SpanScope;
use zeiot_serve::{
    ArrivalProcess, DegradedServing, QuantMode, ServeConfig, ServeModel, ServeOutcome, Server,
    Tenant, TenantSpec,
};

/// The tenants, in server order (tenant `t` is served by shard `t % 2`,
/// so each shard hosts one f32 and one int8 tenant).
const TENANTS: [(&str, QuantMode); 4] = [
    ("f32-a", QuantMode::F32),
    ("f32-b", QuantMode::F32),
    ("int8-a", QuantMode::Int8),
    ("int8-b", QuantMode::Int8),
];

/// Poisson arrivals per tenant per simulated second. A shard serves at
/// most `BATCH / (BATCH_OVERHEAD + BATCH · SERVICE_TIME)` ≈ 23.5 req/s;
/// its two tenants offer 48, about twice that, so its four-deep queue
/// fills and sheds and the answered count stays at capacity (52–55 per
/// horizon over seeds 1–10) whatever the arrival seed.
const RATE: f64 = 24.0;

/// Simulated serving horizon of one episode.
const HORIZON: SimDuration = SimDuration::from_millis(1000);

const SHARDS: usize = 2;
const BATCH: usize = 4;
const QUEUE: usize = 4;
const SERVICE_TIME: SimDuration = SimDuration::from_millis(40);
const BATCH_OVERHEAD: SimDuration = SimDuration::from_millis(10);
const DEADLINE: SimDuration = SimDuration::from_millis(400);
const PASS_PERIOD: SimDuration = SimDuration::from_millis(500);
const LOSS: f64 = 0.05;
const POLICY: RecoveryPolicy = RecoveryPolicy::Degrade {
    mode: DegradeMode::ZeroFill,
};

/// The `serve_degraded` completions digest at [`DEFAULT_SEED`].
const RECORDED_DEGRADED_DIGEST: u64 = 0x24ec_40d9_a0b4_4161;

/// One model call the traced wrapper saw.
#[derive(Debug, Clone)]
struct Call {
    tenant: usize,
    int8: bool,
    secs: f64,
    /// Fabric counter deltas of the call (zero in memory).
    fault: FaultStats,
    /// The input of a lossy call, for the plain-vs-lossy comparison.
    input: Option<Tensor>,
}

/// The traced tenant model: the same forward calls as a CNN tenant,
/// timed from outside.
#[derive(Debug)]
struct Timed {
    tenant: usize,
    model: Model,
    log: Arc<Mutex<Vec<Call>>>,
}

impl Timed {
    fn push(&self, call: Call) {
        self.log.lock().expect("call log").push(call);
    }
}

impl ServeModel for Timed {
    fn infer(&mut self, input: &Tensor) -> Vec<f32> {
        let start = Instant::now();
        let logits = self.model.forward(input);
        let secs = start.elapsed().as_secs_f64();
        self.push(Call {
            tenant: self.tenant,
            int8: self.model.is_int8(),
            secs,
            fault: FaultStats::default(),
            input: None,
        });
        logits.data().to_vec()
    }

    fn infer_lossy(
        &mut self,
        input: &Tensor,
        rt: &mut LossyRuntime,
        scope: Option<&mut SpanScope<'_>>,
    ) -> Option<Vec<f32>> {
        let before = *rt.stats();
        let start = Instant::now();
        let logits = self.model.forward_lossy(input, rt, scope);
        let secs = start.elapsed().as_secs_f64();
        self.push(Call {
            tenant: self.tenant,
            int8: self.model.is_int8(),
            secs,
            fault: rt.stats().delta_since(&before),
            input: Some(input.clone()),
        });
        logits.map(|t| t.data().to_vec())
    }
}

/// The simulated counts of one serve run, which must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub offered: u64,
    pub answered: u64,
    pub shed: u64,
    pub degraded: u64,
    pub drops: u64,
    pub degraded_values: u64,
}

impl Counts {
    /// Writes the `serve.*` counts into `m`.
    pub fn put_serve(&self, m: &mut Metrics) {
        m.put("serve.offered", self.offered as f64, "count");
        m.put("serve.answered", self.answered as f64, "count");
        m.put("serve.shed", self.shed as f64, "count");
        m.put("serve.degraded", self.degraded as f64, "count");
    }
}

pub fn counts(out: &ServeOutcome) -> Counts {
    let total = out.report.total();
    let fault = out.report.fault.unwrap_or_default();
    Counts {
        offered: total.offered,
        answered: total.served,
        shed: total.shed_shard_full + total.shed_tenant_limit,
        degraded: total.degraded,
        drops: fault.drops,
        degraded_values: fault.degraded,
    }
}

/// A serve workload; `DEGRADED` serves through the lossy fabric.
#[derive(Debug)]
pub struct Serve<const DEGRADED: bool> {
    seed: u64,
    base: Baseline,
    server: Server,
    /// The wrapper-tenant server, built at the first traced iteration.
    traced_server: Option<Server>,
    log: Arc<Mutex<Vec<Call>>>,
    /// Per-tenant in-memory models for direct calls.
    direct: Vec<Model>,
    reference: Option<(u64, Counts)>,
    self_ms: Vec<f64>,
    calls: Vec<Call>,
    /// Direct in-memory time of each lossy call's input: `(int8, secs)`.
    plain: Vec<(bool, f64)>,
}

impl<const DEGRADED: bool> Serve<DEGRADED> {
    fn specs() -> impl Iterator<Item = TenantSpec> {
        TENANTS.iter().map(|&(name, quant)| {
            TenantSpec::new(name, ArrivalProcess::poisson(RATE), DEADLINE).with_quant(quant)
        })
    }

    fn run(&mut self) -> (ServeOutcome, f64) {
        let start = Instant::now();
        let out = self.server.run(self.seed, HORIZON, None);
        (out, start.elapsed().as_secs_f64())
    }

    /// Whether `out` repeats the reference episode.
    fn repeats(&self, out: &ServeOutcome) -> bool {
        self.reference == Some((completions_digest(&out.completions), counts(out)))
    }
}

fn build_server(seed: u64, base: &Baseline, tenants: Vec<Tenant>, degraded: bool) -> Server {
    let config = ServeConfig::new(SHARDS, BATCH, QUEUE, SERVICE_TIME)
        .expect("valid config")
        .with_batch_overhead(BATCH_OVERHEAD);
    let server = Server::new(config, base.topo.clone(), tenants).expect("tenants present");
    if !degraded {
        return server;
    }
    server.with_degraded(DegradedServing {
        plan: FaultPlan::uniform(seed ^ 0xFA17, LOSS).expect("valid rate"),
        policy: POLICY,
        pass_period: PASS_PERIOD,
        stale_cache: false,
        replace: None,
    })
}

impl<const DEGRADED: bool> Workload for Serve<DEGRADED> {
    fn setup(seed: u64, _compile_ms: &mut Vec<f64>) -> Self {
        let base = baseline(seed);
        let tenants: Vec<Tenant> = Self::specs()
            .map(|spec| Tenant::new(spec, base.net.clone(), base.pool.clone()).expect("pool"))
            .collect();
        let server = build_server(seed, &base, tenants, DEGRADED);
        Self {
            seed,
            base,
            server,
            traced_server: None,
            log: Arc::default(),
            direct: Vec::new(),
            reference: None,
            self_ms: Vec::new(),
            calls: Vec::new(),
            plain: Vec::new(),
        }
    }

    fn check(&mut self) -> bool {
        self.direct = TENANTS
            .iter()
            .map(|&(_, quant)| Model::new(self.base.net.clone(), quant, &self.base.pool))
            .collect();
        let (out, _) = self.run();
        let digest = completions_digest(&out.completions);
        self.reference = Some((digest, counts(&out)));
        println!("  check: completions digest {digest:#018x}");
        let mut ok = counts(&out).answered > 0;
        if DEGRADED {
            // A lossless plan must reproduce the in-memory pass exactly.
            for model in &mut self.direct {
                for (input, _) in self.base.pool.iter().take(2) {
                    let mut rt = LossyRuntime::new(
                        FaultPlan::lossless(),
                        POLICY,
                        &self.base.topo,
                        PASS_PERIOD,
                    );
                    let lossy = model.forward_lossy(input, &mut rt, None);
                    let plain = model.forward(input);
                    ok &= lossy.is_some_and(|l| same_bits(l.data(), plain.data()));
                }
            }
            if self.seed == DEFAULT_SEED {
                ok &= digest == RECORDED_DEGRADED_DIGEST;
            }
        } else {
            // Served logits equal direct calls on the same inputs.
            for c in &out.completions {
                if let zeiot_serve::Outcome::Served { logits, .. } = &c.outcome {
                    let (input, _) = &self.base.pool[c.seq as usize % self.base.pool.len()];
                    let direct = self.direct[c.tenant].forward(input);
                    ok &= same_bits(logits, direct.data());
                }
            }
        }
        ok
    }

    fn episode(&mut self) -> Episode {
        let (out, secs) = self.run();
        let units = out.report.total().served;
        Episode {
            secs,
            units,
            failed: if self.repeats(&out) { 0 } else { units },
        }
    }

    fn traced(&mut self) -> TracedEpisode {
        let (untraced, untraced_secs) = self.run();
        if self.traced_server.is_none() {
            let tenants = Self::specs()
                .enumerate()
                .map(|(t, spec)| {
                    let model = Model::new(self.base.net.clone(), spec.quant, &self.base.pool);
                    let timed = Timed {
                        tenant: t,
                        model,
                        log: Arc::clone(&self.log),
                    };
                    Tenant::with_model(spec, Box::new(timed), self.base.pool.clone()).expect("pool")
                })
                .collect();
            self.traced_server = Some(build_server(self.seed, &self.base, tenants, DEGRADED));
        }
        let server = self.traced_server.as_mut().expect("built above");
        self.log.lock().expect("call log").clear();
        let start = Instant::now();
        let traced = server.run(self.seed, HORIZON, None);
        let traced_secs = start.elapsed().as_secs_f64();

        let calls = std::mem::take(&mut *self.log.lock().expect("call log"));
        let call_secs: Vec<f64> = calls.iter().map(|c| c.secs).collect();
        self.self_ms.push(self_time(traced_secs, &call_secs) * 1e3);
        for call in &calls {
            if let Some(input) = &call.input {
                let model = &mut self.direct[call.tenant];
                let start = Instant::now();
                let _ = model.forward(input);
                self.plain.push((call.int8, start.elapsed().as_secs_f64()));
            }
        }
        self.calls.extend(calls);

        let identical = format!("{untraced:?}") == format!("{traced:?}");
        let units = traced.report.total().served;
        TracedEpisode {
            untraced_secs,
            traced_secs,
            units,
            failed: if identical && self.repeats(&traced) {
                0
            } else {
                units
            },
        }
    }

    fn layers(&self, _compile_ms: &[f64]) -> Metrics {
        let mut m = Metrics::default();
        m.put("serve.self_ms", median(&self.self_ms), "ms");
        if let Some((_, c)) = self.reference {
            c.put_serve(&mut m);
        }
        let us = |int8: bool| -> Vec<f64> {
            self.calls
                .iter()
                .filter(|c| c.int8 == int8)
                .map(|c| c.secs * 1e6)
                .collect()
        };
        let plain_us = |int8: bool| -> Vec<f64> {
            self.plain
                .iter()
                .filter(|p| p.0 == int8)
                .map(|p| p.1 * 1e6)
                .collect()
        };
        let put_pcts = |m: &mut Metrics, prefix: &str, samples: &[f64]| {
            m.put(&format!("{prefix}.p50"), median(samples), "us");
            m.put(&format!("{prefix}.p99"), percentile(samples, 99.0), "us");
        };
        if !DEGRADED {
            put_pcts(&mut m, "microdeep.f32_forward_us", &us(false));
            put_pcts(&mut m, "microdeep.int8_forward_us", &us(true));
            return m;
        }
        put_pcts(&mut m, "microdeep.lossy.f32_forward_us", &us(false));
        put_pcts(&mut m, "microdeep.lossy.int8_forward_us", &us(true));
        put_pcts(&mut m, "microdeep.f32_forward_us", &plain_us(false));
        put_pcts(&mut m, "microdeep.int8_forward_us", &plain_us(true));
        let lossy_s: f64 = self.calls.iter().map(|c| c.secs).sum();
        let plain_s: f64 = self.plain.iter().map(|p| p.1).sum();
        let sent: u64 = self.calls.iter().map(|c| c.fault.sent).sum();
        m.put(
            "microdeep.lossy.transport_share",
            1.0 - plain_s / lossy_s,
            "share",
        );
        m.put(
            "fault.ns_per_message",
            (lossy_s - plain_s) * 1e9 / sent as f64,
            "ns",
        );
        m.put(
            "fault.messages_per_pass",
            sent as f64 / self.calls.len() as f64,
            "count",
        );
        if let Some((_, c)) = self.reference {
            m.put("fault.drops", c.drops as f64, "count");
            m.put("fault.degraded_values", c.degraded_values as f64, "count");
        }
        m
    }
}
