//! The executor: the one forward and one backward traversal of the
//! distributed CNN.
//!
//! The placement is the network's execution plan: every CNN edge whose
//! producer and consumer units sit on different nodes is a radio message.
//! The passes below walk that plan unit by unit, generic at compile time
//! over the **numerics** ([`Numerics`]: f32 [`DistributedCnn`], or i8 with
//! exact i32 accumulation, [`crate::QuantizedCnn`]) and over the **link**
//! every edge crosses ([`Link`]: the in-memory [`Colocated`], or
//! [`crate::lossy::FabricLink`] through a [`crate::LossyRuntime`]). The
//! link sees unit coordinates only, so the identity link costs nothing
//! per scalar, and a lossless fabric reproduces the in-memory pass bit
//! for bit: it is the same loop with a different link.
//!
//! Accumulation order is fixed here and nowhere else: a conv unit starts
//! from its bias and adds over (input channel, ky, kx); a dense unit is
//! `bias + Σ`; a pool unit keeps the first maximum (strict `>`).

use crate::assignment::Assignment;
use crate::config::CnnConfig;
use crate::distributed::{DistributedCnn, Params};
use std::borrow::Cow;
use zeiot_core::rng::SeedRng;
use zeiot_nn::loss::cross_entropy;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::{Label, Recorder};

/// Edge stages: stage `s` carries the outputs of assignment layer `s`
/// (0 = input units) to layer `s + 1`.
pub(crate) const STAGE_INPUT_CONV: u64 = 0;
pub(crate) const STAGE_CONV_POOL: u64 = 1;
pub(crate) const STAGE_POOL_HIDDEN: u64 = 2;
pub(crate) const STAGE_HIDDEN_LOGIT: u64 = 3;

/// An activation on the air: the fabric carries its exact `f32` image.
pub(crate) trait Wire: Copy + PartialOrd {
    /// Below every activation: where a max-pool window starts.
    const FLOOR: Self;
    fn to_wire(self) -> f32;
    /// Reads back a received image, which corruption or degrade
    /// substitution may have replaced with any `f32`.
    fn from_wire(image: f32) -> Self;
}

/// A model's parameters in its element types, how they combine, and what
/// the model keeps from each layer.
pub(crate) trait Numerics {
    type W: Copy;
    type Act: Wire;
    type Acc: Copy + Default;
    /// Hop span names of the conv, pool, hidden and logit layers.
    const HOPS: [&'static str; 4];

    /// The network's geometry and placement.
    fn plan(&self) -> (&CnnConfig, &Assignment);
    /// The input in the activation domain.
    fn load<'a>(&mut self, input: &'a Tensor) -> Cow<'a, [Self::Act]>;
    /// Kernel `[in_channels, k, k]` and bias of conv unit `unit`.
    fn conv_kernel(&self, unit: usize, channel: usize) -> (&[Self::W], Self::Acc);
    /// Weights `[out, in]` and biases of the dense layer fed by `stage`.
    fn dense(&self, stage: u64) -> (&[Self::W], &[Self::Acc]);
    /// `acc + w · x`.
    fn mac(acc: Self::Acc, w: Self::W, x: Self::Act) -> Self::Acc;
    /// `bias + Σ row · x`.
    fn dot(bias: Self::Acc, row: &[Self::W], x: &[Self::Act]) -> Self::Acc;
    /// ReLU activations of the conv or hidden layer (fed by `stage`).
    fn activate(&mut self, stage: u64, pre: Vec<Self::Acc>) -> Vec<Self::Act>;
    /// The pool layer's output and each pool unit's argmax conv unit.
    fn pooled(&mut self, pooled: &[Self::Act], argmax: Vec<usize>);
    /// Real logits from the logit accumulators, closing a completed pass.
    fn finish(&mut self, input: &Tensor, logits: Vec<Self::Acc>) -> Vec<f32>;
}

/// What a CNN edge crosses. The executor names units; only a fabric link
/// resolves them to hosts.
pub(crate) trait Link {
    /// Unit `consumer` of layer `stage + 1` starts exchanging with its
    /// producers in layer `stage`.
    fn open(&mut self, at: &Assignment, stage: u64, consumer: usize);
    /// One activation from `producer` to the open consumer; `None`
    /// aborts the pass.
    fn pull<A: Wire>(&mut self, at: &Assignment, producer: usize, value: A) -> Option<A>;
    /// Every producer's activation to the open consumer, collected in
    /// `buf` unless the link can hand out `producers` itself.
    fn gather<'v, A: Wire>(
        &mut self,
        at: &Assignment,
        producers: &'v [A],
        buf: &'v mut Vec<A>,
    ) -> Option<&'v [A]> {
        buf.clear();
        for (producer, &v) in producers.iter().enumerate() {
            buf.push(self.pull(at, producer, v)?);
        }
        Some(buf)
    }
    /// The open consumer is done; `hop` names its layer.
    fn close(&mut self, hop: &'static str);
    /// One gradient contribution from the open consumer to `producer`.
    fn push_back(&mut self, at: &Assignment, producer: usize, grad: f32) -> f32;
    /// A sample's pass is over; `completed` is false if it aborted.
    fn end_pass(&mut self, completed: bool);
}

/// The in-memory identity link.
pub(crate) struct Colocated;

impl Link for Colocated {
    #[inline]
    fn open(&mut self, _: &Assignment, _: u64, _: usize) {}
    fn pull<A: Wire>(&mut self, _: &Assignment, _: usize, value: A) -> Option<A> {
        Some(value)
    }
    fn gather<'v, A: Wire>(
        &mut self,
        _: &Assignment,
        x: &'v [A],
        _: &'v mut Vec<A>,
    ) -> Option<&'v [A]> {
        Some(x)
    }
    #[inline]
    fn close(&mut self, _: &'static str) {}
    #[inline]
    fn push_back(&mut self, _: &Assignment, _: usize, grad: f32) -> f32 {
        grad
    }
    fn end_pass(&mut self, _: bool) {}
}

/// One forward pass; `None` when the link aborts it.
///
/// # Panics
///
/// Panics if the input shape disagrees with the config.
pub(crate) fn forward<N: Numerics, L: Link>(
    net: &mut N,
    input: &Tensor,
    link: &mut L,
) -> Option<Tensor> {
    let c = *net.plan().0;
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    assert_eq!(
        input.shape(),
        &[c.in_channels(), c.in_height(), c.in_width()],
        "input shape mismatch"
    );
    let [conv_hop, pool_hop, hidden_hop, logit_hop] = N::HOPS;
    let x = net.load(input);
    let conv = conv_layer(net, &x, link, conv_hop)?;
    let relu = net.activate(STAGE_INPUT_CONV, conv);
    let (pooled, argmax) = pool_layer(net, &relu, link, pool_hop)?;
    net.pooled(&pooled, argmax);
    let hidden = dense_layer(net, &pooled, STAGE_POOL_HIDDEN, link, hidden_hop)?;
    let hidden = net.activate(STAGE_POOL_HIDDEN, hidden);
    let logits = dense_layer(net, &hidden, STAGE_HIDDEN_LOGIT, link, logit_hop)?;
    let logits = net.finish(input, logits);
    // zeiot-audit: allow(p1) -- the logit layer has one unit per class by the config's geometry, checked at construction and from_json
    Some(Tensor::from_vec(vec![c.classes()], logits).expect("logit shape"))
}

// Each layer is its own function so that the optimizer sees one small
// loop nest at a time: the accumulator stays in a register and the
// pooling select compiles branch-free. Nested loops (no per-unit
// division) and preallocated outputs (no call in a unit loop) serve the
// same end.

/// Every conv unit pulls its receptive field, in (input channel, ky, kx)
/// order.
#[inline(never)]
fn conv_layer<N: Numerics, L: Link>(
    net: &N,
    x: &[N::Act],
    link: &mut L,
    hop: &'static str,
) -> Option<Vec<N::Acc>> {
    let (c, at) = net.plan();
    let (oh, ow) = c.conv_dims();
    let (ic, ih, iw, k) = (c.in_channels(), c.in_height(), c.in_width(), c.kernel());
    let mut conv = vec![N::Acc::default(); c.conv_channels() * oh * ow];
    for channel in 0..c.conv_channels() {
        for oy in 0..oh {
            for ox in 0..ow {
                let unit = (channel * oh + oy) * ow + ox;
                let (weights, mut acc) = net.conv_kernel(unit, channel);
                link.open(at, STAGE_INPUT_CONV, unit);
                let mut w_off = 0;
                for icn in 0..ic {
                    for ky in 0..k {
                        let row = icn * ih * iw + (oy + ky) * iw + ox;
                        // zeiot-audit: allow(p1) -- receptive fields and kernels stay inside their tables by the config's geometry, checked at construction and from_json
                        for (producer, &v) in (row..).zip(&x[row..row + k]) {
                            let v = link.pull(at, producer, v)?;
                            acc = N::mac(acc, weights[w_off], v);
                            w_off += 1;
                        }
                    }
                }
                link.close(hop);
                conv[unit] = acc;
            }
        }
    }
    Some(conv)
}

/// Every pool unit pulls its window and keeps the first maximum; returns
/// the pooled activations and each one's argmax conv unit.
#[inline(never)]
fn pool_layer<N: Numerics, L: Link>(
    net: &N,
    relu: &[N::Act],
    link: &mut L,
    hop: &'static str,
) -> Option<(Vec<N::Act>, Vec<usize>)> {
    let (c, at) = net.plan();
    let ((oh, ow), (ph, pw), p) = (c.conv_dims(), c.pool_dims(), c.pool());
    let mut pooled = vec![N::Act::FLOOR; c.conv_channels() * ph * pw];
    let mut argmax = vec![0; pooled.len()];
    for ch in 0..c.conv_channels() {
        for py in 0..ph {
            for px in 0..pw {
                let unit = (ch * ph + py) * pw + px;
                let (mut best, mut best_off) = (N::Act::FLOOR, 0);
                link.open(at, STAGE_CONV_POOL, unit);
                for ky in 0..p {
                    let row = ch * oh * ow + (py * p + ky) * ow + px * p;
                    // zeiot-audit: allow(p1) -- pool windows tile the conv output by the config's geometry, checked at construction and from_json
                    for (off, &v) in (row..).zip(&relu[row..row + p]) {
                        let v = link.pull(at, off, v)?;
                        let better = v > best;
                        best_off = if better { off } else { best_off };
                        best = if better { v } else { best };
                    }
                }
                link.close(hop);
                pooled[unit] = best;
                argmax[unit] = best_off;
            }
        }
    }
    Some((pooled, argmax))
}

/// Every unit of the dense layer fed by `stage` pulls the whole vector `x`.
fn dense_layer<N: Numerics, L: Link>(
    net: &N,
    x: &[N::Act],
    stage: u64,
    link: &mut L,
    hop: &'static str,
) -> Option<Vec<N::Acc>> {
    let ((weights, biases), at) = (net.dense(stage), net.plan().1);
    let mut buf = Vec::new();
    let mut out = vec![N::Acc::default(); biases.len()];
    let units = weights.chunks_exact(x.len()).zip(biases).zip(&mut out);
    for (unit, ((row, &bias), slot)) in units.enumerate() {
        link.open(at, stage, unit);
        let received = link.gather(at, x, &mut buf)?;
        link.close(hop);
        *slot = N::dot(bias, row, received);
    }
    Some(out)
}

/// One backward pass from a loss gradient on the logits. Gradient
/// contributions travel over `link` from each consumer back to its
/// producers; weight gradients use each node's own cached forward values.
///
/// # Panics
///
/// Panics if called before a completed forward pass.
pub(crate) fn backward<L: Link>(net: &mut DistributedCnn, grad_logits: &Tensor, link: &mut L) {
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    let input = net.last_input.as_ref().expect("backward before forward");
    let (c, at) = (&net.config, &net.assignment);
    let grad_out = grad_logits.data();
    let grad = dense_backward(
        &mut net.dense2,
        &net.hidden_out,
        grad_out,
        STAGE_HIDDEN_LOGIT,
        at,
        link,
    );
    let grad = relu_backward(&grad, &net.hidden_pre_relu);
    let grad_pool = dense_backward(
        &mut net.dense1,
        &net.pool_out,
        &grad,
        STAGE_POOL_HIDDEN,
        at,
        link,
    );

    // Un-pool: each pool unit's gradient flows back to its argmax.
    let (oh, ow) = c.conv_dims();
    let mut grad_relu = vec![0.0f32; c.conv_channels() * oh * ow];
    for (unit, (&src, &g)) in net.pool_argmax.iter().zip(&grad_pool).enumerate() {
        if g != 0.0 {
            link.open(at, STAGE_CONV_POOL, unit);
            // zeiot-audit: allow(p1) -- argmax offsets, kernel tables and receptive fields all follow the config's geometry, checked at construction and from_json
            grad_relu[src] += link.push_back(at, src, g);
        }
    }

    // Conv kernels: local to each unit's node, from its cached inputs.
    let (ic, ih, iw, k) = (c.in_channels(), c.in_height(), c.in_width(), c.kernel());
    let grad_conv = relu_backward(&grad_relu, &net.conv_pre_relu);
    for channel in 0..c.conv_channels() {
        for oy in 0..oh {
            for ox in 0..ow {
                let unit = (channel * oh + oy) * ow + ox;
                let g = grad_conv[unit];
                if g == 0.0 {
                    continue;
                }
                let (grad_w, grad_b, slot) = match &mut net.per_unit {
                    Some(pk) => (&mut pk.grad_weights, &mut pk.grad_bias, unit),
                    // Validated deployments keep a replica on every conv host.
                    None => match net.replicas.get_mut(&net.conv_unit_host[unit]) {
                        Some(rep) => (&mut rep.grad_weights, &mut rep.grad_bias, channel),
                        None => continue,
                    },
                };
                grad_b.data_mut()[slot] += g;
                let kernel_len = ic * k * k;
                let grad_w = &mut grad_w.data_mut()[slot * kernel_len..(slot + 1) * kernel_len];
                let mut w_off = 0;
                for icn in 0..ic {
                    for ky in 0..k {
                        let row = icn * ih * iw + (oy + ky) * iw + ox;
                        for &v in &input.data()[row..row + k] {
                            grad_w[w_off] += g * v;
                            w_off += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Backward through a dense layer with inputs `x`: accumulates its
/// gradients and returns the gradient on `x`.
fn dense_backward<L: Link>(
    params: &mut Params,
    x: &[f32],
    grad_out: &[f32],
    stage: u64,
    at: &Assignment,
    link: &mut L,
) -> Vec<f32> {
    let mut grad_in = vec![0.0f32; x.len()];
    let rows = params
        .weights
        .data()
        .chunks_exact(x.len())
        .zip(params.grad_weights.data_mut().chunks_exact_mut(x.len()))
        .zip(params.grad_bias.data_mut());
    for (consumer, (&g, ((w_row, gw_row), gb))) in grad_out.iter().zip(rows).enumerate() {
        if g == 0.0 {
            continue;
        }
        *gb += g;
        link.open(at, stage, consumer);
        let cols = w_row.iter().zip(gw_row).zip(x).zip(grad_in.iter_mut());
        for (producer, (((&w, gw), &v), gi)) in cols.enumerate() {
            *gw += g * v;
            *gi += link.push_back(at, producer, g * w);
        }
    }
    grad_in
}

/// ReLU backward: the gradient passes where the pre-activation was
/// positive.
fn relu_backward(grad: &[f32], pre: &[f32]) -> Vec<f32> {
    let pass = |(&g, &v): (&f32, &f32)| if v > 0.0 { g } else { 0.0 };
    grad.iter().zip(pre).map(pass).collect()
}

/// One training epoch over `link`. Samples whose forward pass aborts are
/// skipped; each batch's update is scaled by its completed samples.
/// Returns `(summed loss, completed samples)`.
///
/// # Panics
///
/// Panics if `data` is empty or `batch_size` is zero.
pub(crate) fn train_epoch<L: Link>(
    net: &mut DistributedCnn,
    data: &[(Tensor, usize)],
    lr: f32,
    batch_size: usize,
    rng: &mut SeedRng,
    link: &mut L,
    mut observe: Option<&mut Recorder>,
) -> (f32, usize) {
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    assert!(!data.is_empty() && batch_size > 0, "invalid training call");
    let mut order: Vec<usize> = (0..data.len()).collect();
    rng.shuffle(&mut order);
    let (mut total, mut completed) = (0.0, 0usize);
    for batch in order.chunks(batch_size) {
        let (mut batch_loss, mut batch_completed) = (0.0, 0usize);
        for (x, t) in batch.iter().filter_map(|&i| data.get(i)) {
            let logits = forward(net, x, link);
            if let Some(logits) = &logits {
                let (loss, grad) = cross_entropy(logits, *t);
                batch_loss += loss;
                backward(net, &grad, link);
                batch_completed += 1;
            }
            link.end_pass(logits.is_some());
        }
        total += batch_loss;
        completed += batch_completed;
        if batch_completed == 0 {
            continue;
        }
        net.apply_gradients(lr / batch_completed as f32);
        if let Some(rec) = observe.as_deref_mut() {
            let drift = net.replica_divergence();
            let loss = f64::from(batch_loss / batch_completed as f32);
            rec.set_gauge("microdeep.replica_drift", Label::Global, drift);
            rec.observe("microdeep.replica_drift_step", Label::Global, drift);
            rec.observe("microdeep.batch_loss", Label::Global, loss);
        }
    }
    (total, completed)
}

/// Accuracy over a labelled set through `link`; an aborted pass is a
/// miss.
///
/// # Panics
///
/// Panics if `data` is empty.
pub(crate) fn accuracy<L: Link>(
    net: &mut DistributedCnn,
    data: &[(Tensor, usize)],
    link: &mut L,
) -> f64 {
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    assert!(!data.is_empty(), "empty evaluation set");
    let mut correct = 0usize;
    for (x, t) in data {
        let logits = forward(net, x, link);
        correct += usize::from(logits.as_ref().is_some_and(|l| l.argmax() == *t));
        link.end_pass(logits.is_some());
    }
    correct as f64 / data.len() as f64
}
