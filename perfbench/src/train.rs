//! `train_lossy`: lossy training epochs of the temperature CNN through
//! the 5 % uniform zero-fill fabric. Every episode trains one epoch from
//! the same baseline, so its result must repeat exactly.
//!
//! The traced variant runs `train_epoch_lossy`'s loop from outside —
//! shuffle, forward, backward, apply gradients — timing each call, and
//! must end on the same weights.

use crate::cnn::{baseline, same_bits, Baseline};
use crate::metrics::{digest_str, Metrics};
use crate::stats::median;
use crate::{Episode, TracedEpisode, Workload};
use std::time::Instant;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, FaultPlan, FaultStats, RecoveryPolicy};
use zeiot_microdeep::{DistributedCnn, LossyRuntime};
use zeiot_nn::loss::cross_entropy;

const LR: f32 = 0.05;
const BATCH: usize = 8;
const LOSS: f64 = 0.05;
const PASS_PERIOD: SimDuration = SimDuration::from_millis(500);
const POLICY: RecoveryPolicy = RecoveryPolicy::Degrade {
    mode: DegradeMode::ZeroFill,
};

/// What an epoch produced: the mean loss bits, the weights digest, and
/// the fabric counters — all of which must repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochResult {
    loss: Option<u32>,
    weights: u64,
    fault: FaultStats,
}

/// The lossy-training workload.
#[derive(Debug)]
pub struct Train {
    seed: u64,
    base: Baseline,
    reference: Option<EpochResult>,
    forward_us: Vec<f64>,
    backward_us: Vec<f64>,
    apply_us: Vec<f64>,
    plain_forward_us: Vec<f64>,
    forward_sent: u64,
    backward_sent: u64,
    forwards: u64,
    backwards: u64,
}

impl Train {
    fn runtime(&self, plan: FaultPlan) -> LossyRuntime {
        LossyRuntime::new(plan, POLICY, &self.base.topo, PASS_PERIOD)
    }

    fn plan(&self) -> FaultPlan {
        FaultPlan::uniform(self.seed ^ 0xFA17, LOSS).expect("valid rate")
    }

    fn shuffle_rng(&self) -> SeedRng {
        SeedRng::with_stream(self.seed, 0x5EED)
    }

    fn result(net: &DistributedCnn, loss: Option<f32>, rt: &LossyRuntime) -> EpochResult {
        EpochResult {
            loss: loss.map(f32::to_bits),
            weights: digest_str(&net.to_json().expect("serializable model")),
            fault: *rt.stats(),
        }
    }

    /// One `train_epoch_lossy` call from the baseline; returns its
    /// result and host seconds.
    fn epoch(&self) -> (EpochResult, f64) {
        let mut net = self.base.net.clone();
        let mut rt = self.runtime(self.plan());
        let mut rng = self.shuffle_rng();
        let start = Instant::now();
        let loss = net.train_epoch_lossy(&self.base.train, LR, BATCH, &mut rng, &mut rt);
        let secs = start.elapsed().as_secs_f64();
        (Self::result(&net, loss, &rt), secs)
    }

    /// The same epoch with `train_epoch_lossy`'s loop run from outside,
    /// timing every forward, backward and gradient step.
    fn traced_epoch(&mut self) -> (EpochResult, f64) {
        let mut net = self.base.net.clone();
        let mut rt = self.runtime(self.plan());
        let mut rng = self.shuffle_rng();
        let data = &self.base.train;
        let epoch_start = Instant::now();
        let mut order: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut order);
        let mut total = 0.0;
        let mut completed = 0usize;
        for batch in order.chunks(BATCH) {
            let mut batch_loss = 0.0;
            let mut batch_completed = 0usize;
            for &i in batch {
                let (x, t) = &data[i];
                let before = *rt.stats();
                let start = Instant::now();
                let out = net.forward_lossy(x, &mut rt);
                self.forward_us.push(start.elapsed().as_secs_f64() * 1e6);
                self.forward_sent += rt.stats().delta_since(&before).sent;
                self.forwards += 1;
                match out {
                    Some(logits) => {
                        let (loss, grad) = cross_entropy(&logits, *t);
                        batch_loss += loss;
                        let before = *rt.stats();
                        let start = Instant::now();
                        net.backward_lossy(&grad, &mut rt);
                        self.backward_us.push(start.elapsed().as_secs_f64() * 1e6);
                        self.backward_sent += rt.stats().delta_since(&before).sent;
                        self.backwards += 1;
                        batch_completed += 1;
                    }
                    None => rt.note_aborted(),
                }
                rt.advance_pass();
            }
            total += batch_loss;
            completed += batch_completed;
            if batch_completed > 0 {
                let start = Instant::now();
                net.apply_gradients(LR / batch_completed as f32);
                self.apply_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        let loss = (completed > 0).then(|| total / completed as f32);
        let secs = epoch_start.elapsed().as_secs_f64();
        (Self::result(&net, loss, &rt), secs)
    }
}

impl Workload for Train {
    fn setup(seed: u64, _compile_ms: &mut Vec<f64>) -> Self {
        Self {
            seed,
            base: baseline(seed),
            reference: None,
            forward_us: Vec::new(),
            backward_us: Vec::new(),
            apply_us: Vec::new(),
            plain_forward_us: Vec::new(),
            forward_sent: 0,
            backward_sent: 0,
            forwards: 0,
            backwards: 0,
        }
    }

    fn check(&mut self) -> bool {
        // A lossless plan trains exactly like the in-memory epoch.
        let mut plain = self.base.net.clone();
        let plain_loss = plain.train_epoch(&self.base.train, LR, BATCH, &mut self.shuffle_rng());
        let mut lossless = self.base.net.clone();
        let mut rt = self.runtime(FaultPlan::lossless());
        let lossless_loss = lossless.train_epoch_lossy(
            &self.base.train,
            LR,
            BATCH,
            &mut self.shuffle_rng(),
            &mut rt,
        );
        let mut ok = lossless_loss.map(f32::to_bits) == Some(plain_loss.to_bits())
            && plain.to_json() == lossless.to_json();
        let (input, _) = &self.base.pool[0];
        let mut rt = self.runtime(FaultPlan::lossless());
        let lossy = self.base.net.clone().forward_lossy(input, &mut rt);
        let direct = self.base.net.clone().forward(input);
        ok &= lossy.is_some_and(|l| same_bits(l.data(), direct.data()));

        let (result, _) = self.epoch();
        println!("  check: epoch weights digest {:#018x}", result.weights);
        self.reference = Some(result);
        ok && result.loss.is_some()
    }

    fn episode(&mut self) -> Episode {
        let (result, secs) = self.epoch();
        let units = self.base.train.len() as u64;
        Episode {
            secs,
            units,
            failed: if Some(result) == self.reference {
                0
            } else {
                units
            },
        }
    }

    fn traced(&mut self) -> TracedEpisode {
        let (untraced, untraced_secs) = self.epoch();
        let (traced, traced_secs) = self.traced_epoch();
        // Plain forward time on the same samples, for the transport cost.
        let mut net = self.base.net.clone();
        for (x, _) in &self.base.train {
            let start = Instant::now();
            let _ = net.forward(x);
            self.plain_forward_us
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
        let units = self.base.train.len() as u64;
        let ok = Some(untraced) == self.reference && Some(traced) == self.reference;
        TracedEpisode {
            untraced_secs,
            traced_secs,
            units,
            failed: if ok { 0 } else { units },
        }
    }

    fn layers(&self, _compile_ms: &[f64]) -> Metrics {
        let mut m = Metrics::default();
        m.put(
            "microdeep.lossy.forward_us.p50",
            median(&self.forward_us),
            "us",
        );
        m.put(
            "microdeep.lossy.backward_us.p50",
            median(&self.backward_us),
            "us",
        );
        m.put(
            "microdeep.apply_gradients_us.p50",
            median(&self.apply_us),
            "us",
        );
        m.put(
            "microdeep.f32_forward_us.p50",
            median(&self.plain_forward_us),
            "us",
        );
        m.put(
            "microdeep.f32_forward_us.p99",
            crate::stats::percentile(&self.plain_forward_us, 99.0),
            "us",
        );
        let lossy_s: f64 = self.forward_us.iter().sum::<f64>() / 1e6;
        let plain_s: f64 = self.plain_forward_us.iter().sum::<f64>() / 1e6;
        // Forward calls and plain calls cover the same samples once per
        // iteration, so their sums compare like for like.
        m.put(
            "fault.ns_per_message",
            (lossy_s - plain_s) * 1e9 / self.forward_sent as f64,
            "ns",
        );
        m.put(
            "fault.messages_per_pass",
            self.forward_sent as f64 / self.forwards as f64,
            "count",
        );
        m.put(
            "fault.backward_messages_per_sample",
            self.backward_sent as f64 / self.backwards as f64,
            "count",
        );
        if let Some(r) = self.reference {
            m.put("fault.drops", r.fault.drops as f64, "count");
            m.put("fault.degraded_values", r.fault.degraded as f64, "count");
        }
        m
    }
}
