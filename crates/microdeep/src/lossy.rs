//! Lossy distributed execution.
//!
//! The plain [`DistributedCnn`] forward/backward passes assume a perfect
//! radio fabric: every cross-node activation and gradient arrives intact.
//! This module executes the same network through a
//! [`zeiot_fault::LinkFabric`], so every CNN edge whose producer and
//! consumer live on different nodes becomes a real message that can be
//! dropped, delayed into a brownout window, retransmitted, corrupted, or
//! substituted by a degrade policy.
//!
//! The passes are the executor's (`crate::exec`) traversals over
//! `FabricLink` instead of the in-memory link, so with
//! [`zeiot_fault::FaultPlan::lossless`] (whose fast path never perturbs a
//! value) the lossy pass is **byte-for-byte identical** to the plain one.
//! Under faults, all loss decisions are pure hashes of the message
//! coordinates, so a run is reproducible across thread counts and
//! repetitions.
//!
//! Recovery semantics per [`RecoveryPolicy`]:
//!
//! * `FailFast` — the first lost forward message aborts the inference
//!   ([`DistributedCnn::forward_lossy`] returns `None`).
//! * `Retransmit` — each lost message is retried on the fabric's
//!   simulated-time backoff schedule; exhaustion aborts like `FailFast`.
//! * `Degrade` — lost values are substituted (zero, or the last value
//!   delivered on that edge) and the inference continues degraded.
//!
//! Backward gradient messages never abort the pass under any policy: a
//! lost contribution is lost mass (zero-filled), as on a real mesh, where
//! a producer cannot block a distributed epoch on one edge. Weight
//! gradients use each node's own cached forward values rather than every
//! consumer's possibly-corrupted copy.

use crate::assignment::Assignment;
use crate::distributed::DistributedCnn;
use crate::exec::{self, Link, Wire};
use std::collections::BTreeMap;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, Delivery, FaultPlan, FaultStats, LinkFabric, RecoveryPolicy};
use zeiot_net::routing::RoutingTable;
use zeiot_net::topology::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::{ClockDomain, SpanEvent, SpanLayer, SpanScope};
use zeiot_obs::{Label, Recorder};

/// Public edge stage reserved for non-CNN tenants (sensing feature
/// gathers in `zeiot-scenario`); disjoint from the CNN stages 0–3 so
/// last-value-hold caches never alias across model kinds.
pub const STAGE_SENSING: u64 = 4;

fn edge_key(stage: u64, producer: usize, consumer: usize) -> u64 {
    (stage << 56) | ((producer as u64) << 28) | consumer as u64
}

/// The transport state a lossy pass runs against: the fault fabric, the
/// mesh routes (for hop-accurate recovery latency), and the
/// last-value-hold cache.
#[derive(Debug)]
pub struct LossyRuntime {
    fabric: LinkFabric,
    routes: RoutingTable,
    /// Last value delivered per edge, for `DegradeMode::LastValueHold`.
    last_seen: BTreeMap<u64, f32>,
    /// Simulated time one full inference pass occupies; advanced after
    /// every sample so brownout windows move across the run.
    pass_period: SimDuration,
}

impl LossyRuntime {
    /// Builds a runtime over `topo`'s shortest-path routes. `pass_period`
    /// is how much simulated time each inference pass advances the
    /// fabric's clock (one sensing cycle).
    pub fn new(
        plan: FaultPlan,
        policy: RecoveryPolicy,
        topo: &Topology,
        pass_period: SimDuration,
    ) -> Self {
        Self {
            fabric: LinkFabric::new(plan, policy),
            routes: RoutingTable::shortest_paths(topo),
            last_seen: BTreeMap::new(),
            pass_period,
        }
    }

    /// The running fault counters.
    pub fn stats(&self) -> &FaultStats {
        self.fabric.stats()
    }

    /// The underlying fabric (clock, plan, policy).
    pub fn fabric(&self) -> &LinkFabric {
        &self.fabric
    }

    /// Writes the fault counters into `recorder` under `label`.
    pub fn record_to(&self, recorder: &mut Recorder, label: Label) {
        self.fabric.stats().record_to(recorder, label);
    }

    /// Advances the fabric clock by one pass period.
    pub fn advance_pass(&mut self) {
        let period = self.pass_period;
        self.fabric.advance(period);
    }

    /// Counts a consuming computation the caller had to give up on (a
    /// [`DistributedCnn::forward_lossy`] that returned `None`); external
    /// drivers such as a serving layer use this to keep the fabric's
    /// `aborted` stat honest.
    pub fn note_aborted(&mut self) {
        self.fabric.note_aborted();
    }

    /// Mutable fabric access for in-crate transports that are not
    /// per-edge fetches (the re-placement engine's state handoffs).
    pub(crate) fn fabric_mut(&mut self) -> &mut LinkFabric {
        &mut self.fabric
    }

    pub(crate) fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.routes.hop_distance(src, dst).unwrap_or(1).max(1) as u32
    }

    /// Transports one scalar over the edge `(stage, producer,
    /// consumer)` from `src` to `dst`: the one per-edge transport, used
    /// by the distributed CNN's passes and by external estimators
    /// (sensing tenants) that gather features over the same lossy
    /// fabric. Colocated endpoints are free (no message, no stats),
    /// matching [`crate::cost::CostModel`]'s counting; `None` means the
    /// message was lost and the recovery policy does not degrade.
    /// External callers should use a stage at or above
    /// [`STAGE_SENSING`] so their last-value-hold state never collides
    /// with the CNN's edges.
    pub fn transport(
        &mut self,
        value: f32,
        src: NodeId,
        dst: NodeId,
        stage: u64,
        producer: usize,
        consumer: usize,
    ) -> Option<f32> {
        if src == dst {
            return Some(value);
        }
        let key = edge_key(stage, producer, consumer);
        if let Some(value) = self.deliver(value, src, dst) {
            self.last_seen.insert(key, value);
            return Some(value);
        }
        let substitute = match self.fabric.policy().degrade_mode()? {
            DegradeMode::ZeroFill => 0.0,
            DegradeMode::LastValueHold => self.last_seen.get(&key).copied().unwrap_or(0.0),
        };
        self.fabric.note_degraded();
        Some(substitute)
    }

    /// Transports one backward gradient contribution; losses zero-fill
    /// under every policy (see the module docs).
    fn transport_gradient(&mut self, grad: f32, src: NodeId, dst: NodeId) -> f32 {
        if src == dst {
            return grad;
        }
        self.deliver(grad, src, dst).unwrap_or(0.0)
    }

    /// One cross-node message over the routed path: the value as
    /// received (possibly corrupted), or `None` when the fabric gave up.
    fn deliver(&mut self, value: f32, src: NodeId, dst: NodeId) -> Option<f32> {
        let hops = self.hops(src, dst);
        match self.fabric.transmit_over(src, dst, hops) {
            Delivery::Delivered { corrupted, .. } => Some(if corrupted {
                let seq = self.fabric.next_seq() - 1;
                self.fabric.plan().corrupt_value(value, src, dst, seq)
            } else {
                value
            }),
            Delivery::Failed { .. } => None,
        }
    }
}

/// Brackets one consumer unit's burst of cross-node fetches: fault
/// counters and fabric clock copied before, deltas turned into a hop
/// span after. If the burst aborts mid-way (`?`) the probe is simply
/// dropped — no span, matching "the unit never finished pulling".
pub(crate) struct HopProbe {
    before: FaultStats,
    t0: zeiot_core::time::SimTime,
}

impl HopProbe {
    pub(crate) fn open(rt: &LossyRuntime) -> Self {
        Self {
            before: *rt.stats(),
            t0: rt.fabric.now(),
        }
    }

    /// Emits a fabric-clock hop span under `scope` if the unit actually
    /// pulled any cross-node message (colocated fetches are free and
    /// leave no span).
    pub(crate) fn close(self, rt: &LossyRuntime, scope: &mut SpanScope<'_>, name: &'static str) {
        let d = rt.stats().delta_since(&self.before);
        if d.sent == 0 {
            return;
        }
        let t1 = rt.fabric.now();
        let span = scope.push_span(SpanLayer::Hop, name, ClockDomain::Fabric, self.t0, t1);
        scope.event(span, t1, SpanEvent::Messages { sent: d.sent });
        if d.drops > 0 {
            scope.event(span, t1, SpanEvent::Loss { drops: d.drops });
        }
        if d.retries > 0 {
            scope.event(span, t1, SpanEvent::Retransmit { retries: d.retries });
        }
        let substituted = d.degraded + d.corrupted;
        if substituted > 0 {
            scope.event(span, t1, SpanEvent::Degraded { substituted });
        }
    }
}

/// The executor's link through a [`LossyRuntime`]: resolves unit
/// coordinates to hosts, ships every cross-node value over the fabric,
/// and brackets each consumer unit's pulls in a hop span when a trace
/// scope is given.
pub(crate) struct FabricLink<'r, 's> {
    rt: &'r mut LossyRuntime,
    scope: Option<&'r mut SpanScope<'s>>,
    probe: Option<HopProbe>,
    /// The open consumer: its edge stage, unit and host.
    stage: u64,
    consumer: usize,
    host: NodeId,
}

impl<'r, 's> FabricLink<'r, 's> {
    pub(crate) fn new(rt: &'r mut LossyRuntime, scope: Option<&'r mut SpanScope<'s>>) -> Self {
        Self {
            rt,
            scope,
            probe: None,
            stage: 0,
            consumer: 0,
            host: NodeId::new(0),
        }
    }
}

impl Link for FabricLink<'_, '_> {
    fn open(&mut self, at: &Assignment, stage: u64, consumer: usize) {
        (self.stage, self.consumer) = (stage, consumer);
        self.host = at.host_of(stage as usize + 1, consumer);
        if self.scope.is_some() {
            self.probe = Some(HopProbe::open(self.rt));
        }
    }

    fn pull<A: Wire>(&mut self, at: &Assignment, producer: usize, value: A) -> Option<A> {
        let (stage, consumer) = (self.stage, self.consumer);
        let src = at.host_of(stage as usize, producer);
        let image = value.to_wire();
        let got = self
            .rt
            .transport(image, src, self.host, stage, producer, consumer)?;
        Some(A::from_wire(got))
    }

    fn close(&mut self, hop: &'static str) {
        if let (Some(scope), Some(probe)) = (self.scope.as_deref_mut(), self.probe.take()) {
            probe.close(self.rt, scope, hop);
        }
    }

    fn push_back(&mut self, at: &Assignment, producer: usize, grad: f32) -> f32 {
        let dst = at.host_of(self.stage as usize, producer);
        self.rt.transport_gradient(grad, self.host, dst)
    }

    fn end_pass(&mut self, completed: bool) {
        if !completed {
            self.rt.note_aborted();
        }
        self.rt.advance_pass();
    }
}

impl DistributedCnn {
    /// Forward pass through a lossy fabric. Returns `None` when a lost
    /// message aborts the inference (fail-fast, or retransmission
    /// exhausted); under a degrade policy the pass always completes.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward_lossy(&mut self, input: &Tensor, rt: &mut LossyRuntime) -> Option<Tensor> {
        self.forward_lossy_traced(input, rt, None)
    }

    /// [`DistributedCnn::forward_lossy`] with per-unit hop spans pushed
    /// under `scope` (when given): every consumer unit that pulls at
    /// least one cross-node message contributes a fabric-clock
    /// [`SpanLayer::Hop`] span (`hop.conv`, `hop.pool`, `hop.hidden`,
    /// `hop.logit`) annotated with message/loss/retransmit/degrade
    /// counts. Probes observe, never perturb.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward_lossy_traced(
        &mut self,
        input: &Tensor,
        rt: &mut LossyRuntime,
        scope: Option<&mut SpanScope<'_>>,
    ) -> Option<Tensor> {
        exec::forward(self, input, &mut FabricLink::new(rt, scope))
    }

    /// Backward pass through a lossy fabric: gradient contributions that
    /// cross nodes are transported and zero-filled on loss (never
    /// aborting — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if called before a completed [`DistributedCnn::forward_lossy`].
    pub fn backward_lossy(&mut self, grad_logits: &Tensor, rt: &mut LossyRuntime) {
        exec::backward(self, grad_logits, &mut FabricLink::new(rt, None));
    }

    /// Trains one epoch through a lossy fabric; aborted samples (lost
    /// messages under a non-degrading policy) are skipped and counted via
    /// the fabric's `aborted` stat. Returns the mean loss over completed
    /// samples, or `None` if every sample aborted.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_size` is zero.
    pub fn train_epoch_lossy(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
        rt: &mut LossyRuntime,
    ) -> Option<f32> {
        let mut link = FabricLink::new(rt, None);
        let (total, completed) =
            exec::train_epoch(self, data, lr, batch_size, rng, &mut link, None);
        (completed > 0).then(|| total / completed as f32)
    }

    /// Accuracy over a labelled set through a lossy fabric; an aborted
    /// inference counts as a misclassification (the mesh produced no
    /// answer).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn accuracy_lossy(&mut self, data: &[(Tensor, usize)], rt: &mut LossyRuntime) -> f64 {
        exec::accuracy(self, data, &mut FabricLink::new(rt, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::config::CnnConfig;
    use crate::distributed::WeightUpdate;
    use zeiot_fault::DegradeMode;

    fn small_setup(
        update: WeightUpdate,
        seed: u64,
    ) -> (DistributedCnn, Vec<(Tensor, usize)>, Topology) {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut rng = SeedRng::new(seed);
        let net = DistributedCnn::new(config, assignment, update, &mut rng);

        let mut data = Vec::new();
        let mut drng = SeedRng::new(99);
        for _ in 0..30 {
            for class in 0..2usize {
                let mut img = Tensor::zeros(vec![1, 8, 8]);
                for y in 0..4 {
                    for x in 0..4 {
                        let (yy, xx) = if class == 0 { (y, x) } else { (y + 4, x + 4) };
                        img.set(&[0, yy, xx], 1.0 + drng.normal_with(0.0, 0.1) as f32);
                    }
                }
                data.push((img, class));
            }
        }
        (net, data, topo)
    }

    fn runtime(plan: FaultPlan, policy: RecoveryPolicy, topo: &Topology) -> LossyRuntime {
        LossyRuntime::new(plan, policy, topo, SimDuration::from_millis(500))
    }

    #[test]
    fn lossless_forward_is_bit_identical_to_plain_forward() {
        for update in [
            WeightUpdate::Synchronized,
            WeightUpdate::Independent,
            WeightUpdate::PerUnit,
        ] {
            let (mut a, data, topo) = small_setup(update, 5);
            let (mut b, _, _) = small_setup(update, 5);
            let mut rt = runtime(FaultPlan::lossless(), RecoveryPolicy::FailFast, &topo);
            for (x, _) in data.iter().take(8) {
                let plain = a.forward(x);
                let lossy = b.forward_lossy(x, &mut rt).expect("lossless never aborts");
                assert_eq!(plain.data(), lossy.data(), "{update:?}");
            }
        }
    }

    #[test]
    fn lossless_training_is_bit_identical_to_plain_training() {
        let (mut plain, data, topo) = small_setup(WeightUpdate::Independent, 6);
        let (mut lossy, _, _) = small_setup(WeightUpdate::Independent, 6);
        let mut rng_a = SeedRng::new(3);
        let mut rng_b = SeedRng::new(3);
        let mut rt = runtime(FaultPlan::lossless(), RecoveryPolicy::FailFast, &topo);
        for _ in 0..3 {
            let la = plain.train_epoch(&data, 0.05, 8, &mut rng_a);
            let lb = lossy
                .train_epoch_lossy(&data, 0.05, 8, &mut rng_b, &mut rt)
                .expect("lossless epoch completes");
            assert_eq!(la, lb);
        }
        for (x, _) in data.iter().take(8) {
            assert_eq!(plain.forward(x).data(), lossy.forward(x).data());
        }
        // The fabric carried messages but touched none of them.
        assert!(rt.stats().sent > 0);
        assert_eq!(rt.stats().drops, 0);
        assert_eq!(rt.stats().sent, rt.stats().delivered);
    }

    #[test]
    fn fail_fast_aborts_under_certain_loss() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 7);
        let plan = FaultPlan::uniform(1, 1.0).unwrap();
        let mut rt = runtime(plan, RecoveryPolicy::FailFast, &topo);
        assert!(net.forward_lossy(&data[0].0, &mut rt).is_none());
        let acc = net.accuracy_lossy(&data, &mut rt);
        assert_eq!(acc, 0.0);
        assert!(rt.stats().aborted > 0);
    }

    #[test]
    fn degrade_policies_never_abort() {
        for mode in [DegradeMode::ZeroFill, DegradeMode::LastValueHold] {
            let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 8);
            let plan = FaultPlan::uniform(2, 0.3).unwrap();
            let mut rt = runtime(plan, RecoveryPolicy::Degrade { mode }, &topo);
            for (x, _) in data.iter().take(10) {
                assert!(net.forward_lossy(x, &mut rt).is_some(), "{mode:?}");
            }
            assert!(rt.stats().degraded > 0, "{mode:?}");
        }
    }

    #[test]
    fn retransmission_survives_moderate_loss() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 9);
        let plan = FaultPlan::uniform(3, 0.05).unwrap();
        let policy = RecoveryPolicy::Retransmit {
            max_retries: 4,
            timeout: SimDuration::from_millis(20),
            backoff: 2.0,
        };
        let mut rt = runtime(plan, policy, &topo);
        let completed = data
            .iter()
            .take(20)
            .filter(|(x, _)| net.forward_lossy(x, &mut rt).is_some())
            .count();
        // p(per-message failure) = 0.05^5: essentially everything makes it.
        assert!(completed >= 19, "completed={completed}");
        assert!(rt.stats().retries > 0);
        assert!(rt.stats().recovered > 0);
    }

    #[test]
    fn lossy_runs_are_reproducible() {
        let run = || {
            let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 10);
            let plan = FaultPlan::uniform(4, 0.1).unwrap();
            let mut rt = runtime(
                plan,
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::LastValueHold,
                },
                &topo,
            );
            let mut rng = SeedRng::new(5);
            let loss = net.train_epoch_lossy(&data, 0.05, 8, &mut rng, &mut rt);
            let acc = net.accuracy_lossy(&data, &mut rt);
            (loss, acc, *rt.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degraded_training_still_learns_under_loss() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 11);
        let plan = FaultPlan::uniform(5, 0.1).unwrap();
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let mut rng = SeedRng::new(6);
        for _ in 0..12 {
            net.train_epoch_lossy(&data, 0.08, 8, &mut rng, &mut rt);
        }
        let acc = net.accuracy_lossy(&data, &mut rt);
        assert!(acc > 0.6, "acc={acc}");
    }

    #[test]
    fn outage_windows_black_out_a_node() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 12);
        // Node 4 (center of the 3×3 grid) dark for the whole run.
        let plan = FaultPlan::lossless()
            .with_outage(
                NodeId::new(4),
                zeiot_core::time::SimTime::ZERO,
                zeiot_core::time::SimTime::from_secs(3600),
            )
            .unwrap();
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let out = net.forward_lossy(&data[0].0, &mut rt);
        assert!(out.is_some());
        assert!(rt.stats().degraded > 0, "center node exchanges messages");
    }

    #[test]
    fn traced_forward_matches_untraced_and_emits_hop_spans() {
        use zeiot_core::time::SimTime;
        use zeiot_obs::trace::{TraceSampler, Tracer};
        let (mut a, data, topo) = small_setup(WeightUpdate::Independent, 14);
        let (mut b, _, _) = small_setup(WeightUpdate::Independent, 14);
        let mk = || {
            runtime(
                FaultPlan::uniform(7, 0.1).unwrap(),
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                &topo,
            )
        };
        let (mut rt_a, mut rt_b) = (mk(), mk());
        let mut tracer = Tracer::new(TraceSampler::always());
        let root = tracer
            .begin(0, 0, "serve.request", SpanLayer::Request, SimTime::ZERO)
            .unwrap();
        let mut scope = tracer.scope(0, 0, root).unwrap();
        let plain = a.forward_lossy(&data[0].0, &mut rt_a).unwrap();
        let traced = b
            .forward_lossy_traced(&data[0].0, &mut rt_b, Some(&mut scope))
            .unwrap();
        // Probes observe, never perturb: outputs and fault counters are
        // byte-identical with and without tracing.
        assert_eq!(plain.data(), traced.data());
        assert_eq!(*rt_a.stats(), *rt_b.stats());
        tracer.finish(0, 0, SimTime::ZERO);
        let trace = tracer.take_finished().remove(0);
        let hop_spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.layer == SpanLayer::Hop)
            .collect();
        assert!(!hop_spans.is_empty(), "cross-node fetches must leave spans");
        assert!(hop_spans.iter().all(|s| s.clock == ClockDomain::Fabric));
        // Every fabric transmission attempt is accounted to some hop span.
        let span_messages: u64 = hop_spans
            .iter()
            .flat_map(|s| &s.events)
            .map(|e| match e.event {
                SpanEvent::Messages { sent } => sent,
                _ => 0,
            })
            .sum();
        assert_eq!(span_messages, rt_b.stats().sent);
    }

    #[test]
    fn stats_reach_the_recorder() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 13);
        let plan = FaultPlan::uniform(6, 0.2).unwrap();
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let _ = net.forward_lossy(&data[0].0, &mut rt);
        let mut rec = Recorder::new();
        rt.record_to(&mut rec, Label::Global);
        assert_eq!(
            rec.counter_value("fault.sent", &Label::Global),
            rt.stats().sent
        );
        assert!(rec.counter_value("fault.degraded", &Label::Global) > 0);
    }
}
