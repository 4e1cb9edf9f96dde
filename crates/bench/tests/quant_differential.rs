//! Differential testing of the int8 inference path against f32.
//!
//! Three properties, checked end-to-end through the public APIs:
//!
//! 1. **Accuracy-preserving**: across a sweep of random topologies,
//!    weight-update modes, seeds and inputs, the quantized forward pass
//!    agrees with the f32 forward pass on the top-1 class almost always,
//!    and every logit stays within a small error band around its f32
//!    value (scaled by the sample's logit spread, since symmetric
//!    per-tensor quantization has input-dependent absolute error).
//!    Across the same sweep, a lossless fabric reproduces the in-memory
//!    passes bit for bit, for both numerics, traced or not, and for a
//!    training epoch.
//! 2. **Thread-invariant**: the E12 report and its trace export are
//!    byte-identical between a serial and a 4-thread sweep runner.
//! 3. **Layout-invariant**: serving the identical int8 tenant workload
//!    through 1 shard and through 3 shards yields bit-identical logits
//!    per `(tenant, seq)` — integer accumulation leaves no room for
//!    scheduling-dependent rounding.

use std::collections::BTreeMap;

use zeiot_bench::experiments::e12_quant;
use zeiot_bench::sweep::SweepRunner;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_fault::{FaultPlan, RecoveryPolicy};
use zeiot_microdeep::{
    Assignment, CnnConfig, DistributedCnn, LossyRuntime, QuantizedCnn, WeightUpdate,
};
use zeiot_net::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::{traces_to_jsonl, SpanLayer, TraceSampler, Tracer};
use zeiot_serve::{ArrivalProcess, Outcome, QuantMode, ServeConfig, Server, Tenant, TenantSpec};

/// Two-class 8×8 synthetic scenes: class 0 lights the upper-left
/// quadrant, class 1 the lower-right, with small Gaussian jitter.
/// (The e10 generator is crate-private; this is the integration-test
/// equivalent.)
fn labelled_scenes(per_class: usize, rng: &mut SeedRng) -> Vec<(Tensor, usize)> {
    let mut scenes = Vec::with_capacity(per_class * 2);
    for _ in 0..per_class {
        for class in 0..2usize {
            let mut img = Tensor::zeros(vec![1, 8, 8]);
            for y in 0..4 {
                for x in 0..4 {
                    let (yy, xx) = if class == 0 { (y, x) } else { (y + 4, x + 4) };
                    img.set(&[0, yy, xx], 1.0 + rng.normal_with(0.0, 0.1) as f32);
                }
            }
            scenes.push((img, class));
        }
    }
    scenes
}

/// Trains a small deployment and returns `(f32 model, int8 model, test
/// set)` sharing identical learned weights.
fn trained_pair(
    seed: u64,
    topo: Topology,
    update: WeightUpdate,
) -> (DistributedCnn, QuantizedCnn, Vec<(Tensor, usize)>) {
    let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
    let graph = config.unit_graph().unwrap();
    let assignment = Assignment::balanced_correspondence(&graph, &topo);

    let mut data_rng = SeedRng::with_stream(seed, 0xD1FF);
    let data = labelled_scenes(24, &mut data_rng);
    let split = data.len() * 4 / 5;
    let (train, test) = data.split_at(split);

    let mut model_rng = SeedRng::with_stream(seed, 0x10DE);
    let mut net = DistributedCnn::new(config, assignment, update, &mut model_rng);
    let mut train_rng = SeedRng::with_stream(seed, 0x7E57);
    for _ in 0..6 {
        net.train_epoch(train, 0.08, 8, &mut train_rng);
    }

    let calibration: Vec<Tensor> = train.iter().map(|(x, _)| x.clone()).collect();
    let mut frozen = net.clone();
    let quantized = QuantizedCnn::new(&mut frozen, &calibration);
    (net, quantized, test.to_vec())
}

/// A fabric over `topo` that delivers every message untouched.
fn lossless(topo: &Topology) -> LossyRuntime {
    LossyRuntime::new(
        FaultPlan::lossless(),
        RecoveryPolicy::FailFast,
        topo,
        SimDuration::from_millis(500),
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn int8_tracks_f32_across_topologies_and_seeds() {
    let cases: Vec<(u64, Topology, WeightUpdate)> = vec![
        (
            11,
            Topology::grid(3, 3, 2.0, 3.0).unwrap(),
            WeightUpdate::Independent,
        ),
        (
            29,
            Topology::grid(4, 4, 2.0, 3.0).unwrap(),
            WeightUpdate::Independent,
        ),
        (
            47,
            Topology::grid(3, 3, 2.0, 3.0).unwrap(),
            WeightUpdate::PerUnit,
        ),
        (
            83,
            Topology::grid(2, 5, 2.0, 3.0).unwrap(),
            WeightUpdate::Independent,
        ),
        (
            61,
            Topology::grid(4, 3, 2.0, 3.0).unwrap(),
            WeightUpdate::Synchronized,
        ),
    ];

    let mut total = 0usize;
    let mut agreed = 0usize;
    for (seed, topo, update) in cases {
        let (mut f32_model, mut int8_model, test) = trained_pair(seed, topo.clone(), update);
        let mut rt = lossless(&topo);
        let mut tracer = Tracer::new(TraceSampler::always());
        let mut case_agreed = 0usize;
        for (seq, (x, _)) in (0u64..).zip(&test) {
            let f = f32_model.forward(x);
            let q = int8_model.forward_quantized(x);

            // Lossless fabric == in-memory pass, bit for bit.
            let f_fabric = f32_model
                .forward_lossy(x, &mut rt)
                .expect("lossless never aborts");
            assert_eq!(bits(&f), bits(&f_fabric), "seed {seed}: f32 fabric pass");
            let q_fabric = int8_model
                .forward_quantized_lossy_traced(x, &mut rt, None)
                .expect("lossless never aborts");
            assert_eq!(bits(&q), bits(&q_fabric), "seed {seed}: int8 fabric pass");
            let root = tracer
                .begin(0, seq, "serve.request", SpanLayer::Request, SimTime::ZERO)
                .unwrap();
            let mut scope = tracer.scope(0, seq, root).unwrap();
            let q_traced = int8_model
                .forward_quantized_lossy_traced(x, &mut rt, Some(&mut scope))
                .expect("lossless never aborts");
            assert_eq!(bits(&q), bits(&q_traced), "seed {seed}: traced int8 pass");
            rt.advance_pass();

            if f.argmax() == q.argmax() {
                case_agreed += 1;
            }
            // Per-logit band: quantization error scales with the logit
            // magnitude the activation/weight scales were chosen for.
            let span = f.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
            for (&a, &b) in f.data().iter().zip(q.data()) {
                let delta = (a - b).abs();
                assert!(
                    delta <= 0.15 * span,
                    "seed {seed}: logit drifted {delta} (f32 {a}, int8 {b}, span {span})"
                );
            }
        }
        assert!(
            case_agreed * 10 >= test.len() * 8,
            "seed {seed}: top-1 agreement {case_agreed}/{}",
            test.len()
        );

        // A lossless training epoch is the in-memory epoch, bit for bit.
        let mut plain = f32_model.clone();
        let mut fabric = f32_model;
        let plain_loss = plain.train_epoch(&test, 0.08, 8, &mut SeedRng::with_stream(seed, 0xE90C));
        let fabric_loss = fabric
            .train_epoch_lossy(
                &test,
                0.08,
                8,
                &mut SeedRng::with_stream(seed, 0xE90C),
                &mut lossless(&topo),
            )
            .expect("lossless epoch completes");
        assert_eq!(plain_loss.to_bits(), fabric_loss.to_bits(), "seed {seed}");
        for (x, _) in &test {
            assert_eq!(
                bits(&plain.forward(x)),
                bits(&fabric.forward(x)),
                "seed {seed}"
            );
        }
        assert_eq!(
            plain.to_json(),
            fabric.to_json(),
            "seed {seed}: trained weights"
        );
        total += test.len();
        agreed += case_agreed;
    }
    assert!(
        agreed * 10 >= total * 9,
        "aggregate top-1 agreement too low: {agreed}/{total}"
    );
}

#[test]
fn e12_report_and_traces_are_bit_exact_across_thread_counts() {
    let params = e12_quant::Params::reduced();
    let (serial_report, serial_traces) =
        e12_quant::run_with_traces(&params, &SweepRunner::serial());
    let (threaded_report, threaded_traces) =
        e12_quant::run_with_traces(&params, &SweepRunner::new(4));
    assert_eq!(serial_report.to_json(), threaded_report.to_json());
    assert_eq!(
        traces_to_jsonl(&serial_traces),
        traces_to_jsonl(&threaded_traces)
    );
    assert!(!serial_traces.is_empty());
}

#[test]
fn int8_serving_logits_are_bit_exact_across_shard_layouts() {
    let deadline = SimDuration::from_millis(400);
    let horizon = SimDuration::from_secs(3);
    let service_time = SimDuration::from_millis(20);
    let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();

    let completions_with = |shards: usize| {
        let mut data_rng = SeedRng::with_stream(5, 0xD1FF);
        let pool = labelled_scenes(12, &mut data_rng);
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut model_rng = SeedRng::with_stream(5, 0x10DE);
        let net = DistributedCnn::new(
            config,
            assignment,
            WeightUpdate::Independent,
            &mut model_rng,
        );
        let spec = TenantSpec::new("diff", ArrivalProcess::poisson(6.0), deadline)
            .with_quant(QuantMode::Int8);
        let tenant = Tenant::new(spec, net, pool).unwrap();
        let serve_config = ServeConfig::new(shards, 2, 32, service_time).unwrap();
        let mut server = Server::new(serve_config, topo.clone(), vec![tenant]).unwrap();
        server.run(77, horizon, None)
    };

    let one = completions_with(1);
    let three = completions_with(3);

    // Index logits by (tenant, seq): shard layout may reorder
    // completion times, but every answered request must carry the
    // identical bit pattern.
    let logits_by_seq = |outcome: &zeiot_serve::ServeOutcome| {
        let mut map: BTreeMap<(usize, u64), Vec<u32>> = BTreeMap::new();
        for c in &outcome.completions {
            if let Outcome::Served { logits, .. } = &c.outcome {
                map.insert(
                    (c.tenant, c.seq),
                    logits.iter().map(|v| v.to_bits()).collect(),
                );
            }
        }
        map
    };
    let one_map = logits_by_seq(&one);
    let three_map = logits_by_seq(&three);
    assert!(!one_map.is_empty());
    for (key, bits) in &one_map {
        if let Some(other) = three_map.get(key) {
            assert_eq!(bits, other, "request {key:?} answered differently");
        }
    }
    // Light load, no fabric: both layouts answer every request.
    assert_eq!(one_map.len(), three_map.len());
}
