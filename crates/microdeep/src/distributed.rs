//! Distributed training semantics.
//!
//! MicroDeep executes the canonical CNN *in place* on the mesh. Dense
//! units own their weight rows, so their updates are local and exact. The
//! convolution is different: its kernel is shared by every spatial unit,
//! but those units live on many nodes — keeping one shared kernel would
//! require gradient aggregation traffic every step. MicroDeep instead
//! gives each hosting node a *replica* of the kernel and lets it update
//! the replica **independently** from the gradients of its own units only
//! (paper §IV.C: "Weights of units are updated independently by each
//! sensor node to avoid communication overhead, sacrificing some
//! accuracy").
//!
//! [`DistributedCnn`] implements both semantics:
//!
//! * [`WeightUpdate::Synchronized`] — replica gradients are summed and a
//!   common update applied everywhere; numerically identical to the
//!   centralized baseline (used to verify the machinery and as the
//!   ablation's upper bound);
//! * [`WeightUpdate::Independent`] — each replica applies only its own
//!   accumulated gradient; replicas drift apart and accuracy typically
//!   lands a couple of points below the baseline, with zero
//!   weight-synchronization traffic.

use crate::assignment::Assignment;
use crate::config::CnnConfig;
use crate::exec::{self, Colocated, Numerics, Wire, STAGE_INPUT_CONV, STAGE_POOL_HIDDEN};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::Recorder;

/// How convolution kernel replicas are updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightUpdate {
    /// Sum replica gradients, apply one common update (exact SGD).
    Synchronized,
    /// Each node updates its kernel replica from local gradients only —
    /// replicas drift apart.
    Independent,
    /// Every conv unit owns its kernel (locally-connected layer): weight
    /// sharing is dropped so each unit's update is complete with zero
    /// communication — the most faithful reading of the paper's "weights
    /// of units are updated independently by each sensor node".
    PerUnit,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ConvReplica {
    pub(crate) weights: Tensor, // [oc, ic, k, k]
    pub(crate) bias: Tensor,    // [oc]
    pub(crate) grad_weights: Tensor,
    pub(crate) grad_bias: Tensor,
    /// Number of conv units hosted by this replica's node.
    pub(crate) units: usize,
}

/// A weight table with its gradient accumulators: a dense layer
/// (`[out, in]`, `[out]`), or the per-unit conv kernels of a
/// [`WeightUpdate::PerUnit`] model (`[units, in_channels, k, k]`, `[units]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Params {
    pub(crate) weights: Tensor,
    pub(crate) bias: Tensor,
    pub(crate) grad_weights: Tensor,
    pub(crate) grad_bias: Tensor,
}

impl Params {
    /// A freshly initialized dense layer.
    fn new(in_len: usize, out_len: usize, rng: &mut SeedRng) -> Self {
        let scale = (6.0 / in_len as f32).sqrt();
        Self::with_weights(Tensor::uniform(vec![out_len, in_len], scale, rng))
    }

    /// A table over `weights` with zero biases and gradients.
    fn with_weights(weights: Tensor) -> Self {
        let shape = weights.shape().to_vec();
        let out = shape.first().copied().unwrap_or(0);
        let (bias, grad_bias) = (Tensor::zeros(vec![out]), Tensor::zeros(vec![out]));
        let grad_weights = Tensor::zeros(shape);
        Self {
            weights,
            bias,
            grad_weights,
            grad_bias,
        }
    }

    fn apply(&mut self, lr: f32) {
        self.weights.add_scaled(&self.grad_weights, -lr);
        self.bias.add_scaled(&self.grad_bias, -lr);
        self.grad_weights.fill_zero();
        self.grad_bias.fill_zero();
    }

    /// Whether weights and gradients have `shape`, and biases `shape[0]`.
    fn shaped(&self, shape: &[usize]) -> bool {
        let (w, g) = (self.weights.shape(), self.grad_weights.shape());
        let rows = shape.first();
        w == shape
            && g == shape
            && rows == Some(&self.bias.len())
            && rows == Some(&self.grad_bias.len())
    }
}

/// The canonical CNN executed with per-node convolution replicas.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, WeightUpdate};
/// use zeiot_net::Topology;
/// use zeiot_core::rng::SeedRng;
/// use zeiot_nn::tensor::Tensor;
///
/// let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2)?;
/// let topo = Topology::grid(3, 3, 2.0, 3.0)?;
/// let graph = config.unit_graph()?;
/// let assignment = Assignment::balanced_correspondence(&graph, &topo);
/// let mut rng = SeedRng::new(1);
/// let mut net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
/// let logits = net.forward(&Tensor::zeros(vec![1, 8, 8]));
/// assert_eq!(logits.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistributedCnn {
    pub(crate) config: CnnConfig,
    pub(crate) update: WeightUpdate,
    /// The full placement (inputs pinned to sensors, units to hosts) —
    /// what the lossy execution path routes messages against.
    pub(crate) assignment: Assignment,
    /// Host node of each conv output unit (layer-1 unit order).
    pub(crate) conv_unit_host: Vec<NodeId>,
    pub(crate) replicas: BTreeMap<NodeId, ConvReplica>,
    pub(crate) per_unit: Option<Params>,
    pub(crate) dense1: Params,
    pub(crate) dense2: Params,
    // Forward caches.
    pub(crate) last_input: Option<Tensor>,
    pub(crate) conv_pre_relu: Vec<f32>,
    pub(crate) pool_out: Vec<f32>,
    pub(crate) pool_argmax: Vec<usize>,
    pub(crate) hidden_pre_relu: Vec<f32>,
    pub(crate) hidden_out: Vec<f32>,
}

impl DistributedCnn {
    /// Builds a distributed CNN over `assignment`. All replicas start
    /// from one common initialization (the initial broadcast every
    /// distributed learner performs).
    ///
    /// # Panics
    ///
    /// Panics if the assignment's layer sizes disagree with the config.
    pub fn new(
        config: CnnConfig,
        assignment: Assignment,
        update: WeightUpdate,
        rng: &mut SeedRng,
    ) -> Self {
        // zeiot-audit: allow(p1) -- `CnnConfig::new` validates the geometry, so its unit graph always builds
        let graph = config.unit_graph().expect("validated config");
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert_eq!(
            assignment.layer_count(),
            graph.layer_count(),
            "assignment does not match config"
        );
        let conv_units = graph.units_in_layer(1);
        let conv_unit_host: Vec<NodeId> =
            (0..conv_units).map(|u| assignment.host_of(1, u)).collect();

        // Common initial parameters.
        let (oc, ic, k) = (
            config.conv_channels(),
            config.in_channels(),
            config.kernel(),
        );
        let fan_in = (ic * k * k) as f32;
        let init_w = Tensor::uniform(vec![oc, ic, k, k], (6.0 / fan_in).sqrt(), rng);
        let init_b = Tensor::zeros(vec![oc]);

        let mut replicas = BTreeMap::new();
        for host in &conv_unit_host {
            replicas
                .entry(*host)
                .or_insert_with(|| ConvReplica {
                    weights: init_w.clone(),
                    bias: init_b.clone(),
                    grad_weights: Tensor::zeros(vec![oc, ic, k, k]),
                    grad_bias: Tensor::zeros(vec![oc]),
                    units: 0,
                })
                .units += 1;
        }

        // Per-unit kernels start from the shared initialization of their
        // output channel (the one-time broadcast every node receives).
        let per_unit = (update == WeightUpdate::PerUnit).then(|| {
            let per_ch = conv_units / oc;
            let mut weights = Tensor::zeros(vec![conv_units, ic, k, k]);
            let kernel_len = ic * k * k;
            // Channel `o`'s kernel seeds units `o * per_ch .. (o + 1) * per_ch`.
            let channels = weights.data_mut().chunks_mut(per_ch * kernel_len);
            for (src, units) in init_w.data().chunks(kernel_len).zip(channels) {
                for dst in units.chunks_mut(kernel_len) {
                    dst.copy_from_slice(src);
                }
            }
            Params::with_weights(weights)
        });

        let dense1 = Params::new(config.feature_len(), config.hidden(), rng);
        let dense2 = Params::new(config.hidden(), config.classes(), rng);
        Self {
            config,
            update,
            assignment,
            conv_unit_host,
            replicas,
            per_unit,
            dense1,
            dense2,
            last_input: None,
            conv_pre_relu: Vec::new(),
            pool_out: Vec::new(),
            pool_argmax: Vec::new(),
            hidden_pre_relu: Vec::new(),
            hidden_out: Vec::new(),
        }
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Serializes the full model (placement + every node's weights) to
    /// JSON — what a gateway would persist so a re-deployed mesh can
    /// resume without retraining.
    ///
    /// # Errors
    ///
    /// Returns an error string if serialization fails (it cannot for
    /// well-formed models).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Restores a model from [`DistributedCnn::to_json`] output.
    ///
    /// The restored model is validated against its own config's unit
    /// graph before being returned: a persisted placement or replica set
    /// that no longer matches the config (a config edit, a truncated
    /// file, a hand-patched deployment) is rejected here instead of
    /// panicking deep inside [`DistributedCnn::forward`].
    ///
    /// # Errors
    ///
    /// Returns an error string on malformed input or on a model whose
    /// placement, replicas or parameter shapes are inconsistent with its
    /// config.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let model: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        model.validate()?;
        Ok(model)
    }

    /// Checks internal consistency: the assignment matches the config's
    /// unit graph, every conv unit has a hosting replica, and all
    /// parameter tensors have the shapes the config dictates.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let c = &self.config;
        let hosted = validate_placement(
            c,
            &self.assignment,
            &self.conv_unit_host,
            self.replicas.keys(),
        )?;
        let (oc, ic, k) = (c.conv_channels(), c.in_channels(), c.kernel());
        let kernel = [oc, ic, k, k];
        for (node, rep) in &self.replicas {
            let shaped = rep.weights.shape() == kernel && rep.grad_weights.shape() == kernel;
            let biased = rep.bias.len() == oc && rep.grad_bias.len() == oc;
            if Some(&rep.units) != hosted.get(node) || !shaped || !biased {
                return Err(format!(
                    "replica on {node:?} claims {} units (hosts {:?}), kernel shape {:?}",
                    rep.units,
                    hosted.get(node),
                    rep.weights.shape()
                ));
            }
        }
        let units = self.conv_unit_host.len();
        let per_unit_ok = match (&self.per_unit, self.update) {
            (Some(pk), WeightUpdate::PerUnit) => pk.shaped(&[units, ic, k, k]),
            (per_unit, update) => per_unit.is_none() && update != WeightUpdate::PerUnit,
        };
        if !per_unit_ok {
            return Err(format!("per-unit kernels disagree with {:?}", self.update));
        }
        if !self.dense1.shaped(&[c.hidden(), c.feature_len()])
            || !self.dense2.shaped(&[c.classes(), c.hidden()])
        {
            return Err("dense parameters have the wrong shape".to_string());
        }
        Ok(())
    }

    /// The placement this network executes over.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Mean pairwise L2 distance between replica kernels — 0 under
    /// synchronized updates, growing under independent updates. In
    /// PerUnit mode, the mean L2 distance of each unit's kernel to its
    /// output channel's mean kernel (how far weight sharing has been
    /// abandoned).
    pub fn replica_divergence(&self) -> f64 {
        if let Some(pk) = &self.per_unit {
            let units = pk.bias.len();
            let oc = self.config.conv_channels();
            let per_ch = units / oc;
            let kernel_len = pk.weights.len() / units;
            let mut total = 0.0f64;
            for channel in pk.weights.data().chunks(per_ch * kernel_len).take(oc) {
                let mut mean = vec![0.0f64; kernel_len];
                for w in channel.chunks(kernel_len) {
                    for (m, &x) in mean.iter_mut().zip(w) {
                        *m += x as f64 / per_ch as f64;
                    }
                }
                for w in channel.chunks(kernel_len) {
                    let d: f64 = w
                        .iter()
                        .zip(&mean)
                        .map(|(&x, &m)| (x as f64 - m).powi(2))
                        .sum();
                    total += d.sqrt();
                }
            }
            return total / units as f64;
        }
        let replicas: Vec<&ConvReplica> = self.replicas.values().collect();
        if replicas.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut pairs = 0usize;
        for (i, a) in replicas.iter().enumerate() {
            for b in replicas.iter().skip(i + 1) {
                let d: f32 = a
                    .weights
                    .data()
                    .iter()
                    .zip(b.weights.data())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                total += (d as f64).sqrt();
                pairs += 1;
            }
        }
        total / pairs as f64
    }

    /// Forward pass; numerically identical to the centralized baseline
    /// whenever all replicas are equal.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        // zeiot-audit: allow(p1) -- the colocated link never drops a value, so the pass always completes
        exec::forward(self, input, &mut Colocated).expect("colocated passes complete")
    }

    /// Backward pass from a loss gradient on the logits, accumulating
    /// per-replica convolution gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DistributedCnn::forward`].
    pub fn backward(&mut self, grad_logits: &Tensor) {
        exec::backward(self, grad_logits, &mut Colocated);
    }

    /// Applies accumulated gradients according to the update mode.
    pub fn apply_gradients(&mut self, lr: f32) {
        let units = self.conv_unit_host.len();
        match (&mut self.per_unit, self.update) {
            // Locally-connected: each unit's gradient is complete for its
            // own kernel, but carries ~1/positions of the gradient mass a
            // shared kernel would accumulate; compensate so the units
            // learn at the shared-kernel pace.
            (Some(pk), _) => pk.apply(lr * (units / self.config.conv_channels()) as f32),
            (None, WeightUpdate::Synchronized) => {
                // Sum replica gradients (each unit contributed to exactly
                // one replica, so the sum is the full-batch gradient) and
                // apply the common update to every replica.
                let oc = self.config.conv_channels();
                let ic = self.config.in_channels();
                let k = self.config.kernel();
                let mut total_w = Tensor::zeros(vec![oc, ic, k, k]);
                let mut total_b = Tensor::zeros(vec![oc]);
                for rep in self.replicas.values() {
                    total_w.add_scaled(&rep.grad_weights, 1.0);
                    total_b.add_scaled(&rep.grad_bias, 1.0);
                }
                for rep in self.replicas.values_mut() {
                    rep.weights.add_scaled(&total_w, -lr);
                    rep.bias.add_scaled(&total_b, -lr);
                    rep.grad_weights.fill_zero();
                    rep.grad_bias.fill_zero();
                }
            }
            (None, _) => {
                for rep in self.replicas.values_mut() {
                    // Mild compensation for seeing only a fraction of the
                    // units' gradients: scale by the square root of the
                    // hosting ratio. Full compensation (the raw ratio)
                    // makes sparse replicas take huge noisy steps and
                    // destroys accuracy; none makes them learn too
                    // slowly.
                    let boost = if rep.units > 0 {
                        (units as f32 / rep.units as f32).sqrt()
                    } else {
                        0.0
                    };
                    rep.weights.add_scaled(&rep.grad_weights, -lr * boost);
                    rep.bias.add_scaled(&rep.grad_bias, -lr * boost);
                    rep.grad_weights.fill_zero();
                    rep.grad_bias.fill_zero();
                }
            }
        }
        self.dense1.apply(lr);
        self.dense2.apply(lr);
    }

    /// Trains one epoch; returns the mean loss.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_size` is zero.
    pub fn train_epoch(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
    ) -> f32 {
        let (total, completed) =
            exec::train_epoch(self, data, lr, batch_size, rng, &mut Colocated, None);
        total / completed as f32
    }

    /// Like [`DistributedCnn::train_epoch`], additionally recording
    /// per-step observability metrics: after every batch update the
    /// current replica divergence is written to the
    /// `microdeep.replica_drift` gauge and the
    /// `microdeep.replica_drift_step` histogram, and the batch's mean
    /// loss to `microdeep.batch_loss`. The trained weights are bit-for-bit
    /// identical to an unobserved epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_size` is zero.
    pub fn train_epoch_observed(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
        recorder: &mut Recorder,
    ) -> f32 {
        let (total, completed) = exec::train_epoch(
            self,
            data,
            lr,
            batch_size,
            rng,
            &mut Colocated,
            Some(recorder),
        );
        total / completed as f32
    }

    /// Accuracy over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn accuracy(&mut self, data: &[(Tensor, usize)]) -> f64 {
        exec::accuracy(self, data, &mut Colocated)
    }
}

/// Checks a deployment's placement against its config: the assignment
/// matches the config's unit graph, the conv host table agrees with the
/// assignment, and the kernel replicas sit exactly on the nodes hosting
/// conv units. Returns the number of conv units on each hosting node.
pub(crate) fn validate_placement<'a>(
    c: &CnnConfig,
    assignment: &Assignment,
    conv_unit_host: &[NodeId],
    replica_nodes: impl Iterator<Item = &'a NodeId>,
) -> Result<BTreeMap<NodeId, usize>, String> {
    let graph = c.unit_graph().map_err(|e| format!("invalid config: {e}"))?;
    let needed: Vec<usize> = (0..graph.layer_count())
        .map(|l| graph.units_in_layer(l))
        .collect();
    let placed: Vec<usize> = std::iter::once(assignment.input_count())
        .chain(assignment.layer_sizes().iter().copied())
        .collect();
    if placed != needed {
        return Err(format!(
            "assignment places {placed:?} units per layer, config needs {needed:?}"
        ));
    }
    // `needed` has one entry per layer of a validated config, so it
    // always holds the conv layer.
    let conv_units = needed.get(1).copied().unwrap_or(0);
    if conv_unit_host.len() != conv_units {
        return Err(format!(
            "conv host table has {} entries, config has {conv_units} conv units",
            conv_unit_host.len(),
        ));
    }
    let mut hosted: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (u, &host) in conv_unit_host.iter().enumerate() {
        if host != assignment.host_of(1, u) {
            return Err(format!(
                "conv unit {u} hosted on {host:?} but assigned to {:?}",
                assignment.host_of(1, u)
            ));
        }
        *hosted.entry(host).or_default() += 1;
    }
    if !replica_nodes.eq(hosted.keys()) {
        return Err(format!(
            "replica nodes disagree with hosting nodes {:?}",
            hosted.keys().collect::<Vec<_>>()
        ));
    }
    Ok(hosted)
}

impl Wire for f32 {
    const FLOOR: Self = f32::NEG_INFINITY;

    #[inline]
    fn to_wire(self) -> f32 {
        self
    }

    #[inline]
    fn from_wire(image: f32) -> Self {
        image
    }
}

/// The training numerics: f32 throughout, caching every layer for
/// [`DistributedCnn::backward`] (and [`crate::QuantizedCnn::new`]'s
/// calibration).
impl Numerics for DistributedCnn {
    type W = f32;
    type Act = f32;
    type Acc = f32;
    const HOPS: [&'static str; 4] = ["hop.conv", "hop.pool", "hop.hidden", "hop.logit"];

    fn plan(&self) -> (&CnnConfig, &Assignment) {
        (&self.config, &self.assignment)
    }

    fn load<'a>(&mut self, input: &'a Tensor) -> Cow<'a, [f32]> {
        Cow::Borrowed(input.data())
    }

    // Inlined so the accumulator it seeds stays in a register. Runs
    // once per conv unit and channel in every pass, so it keeps the
    // plain indexes.
    #[inline(always)]
    fn conv_kernel(&self, unit: usize, channel: usize) -> (&[f32], f32) {
        let kernel_len = self.config.in_channels() * self.config.kernel() * self.config.kernel();
        let (table, slot) = match &self.per_unit {
            Some(pk) => ((&pk.weights, &pk.bias), unit),
            None => {
                // zeiot-audit: allow(p1) -- the executor passes conv units and channels of this config; `new` builds the host table, replicas and kernels from the config, and `from_json` runs `validate`, which checks one host per conv unit, a replica on every hosting node, and every table shaped to the config
                let rep = &self.replicas[&self.conv_unit_host[unit]];
                ((&rep.weights, &rep.bias), channel)
            }
        };
        let weights = &table.0.data()[slot * kernel_len..(slot + 1) * kernel_len];
        (weights, table.1.data()[slot])
    }

    fn dense(&self, stage: u64) -> (&[f32], &[f32]) {
        let layer = if stage == STAGE_POOL_HIDDEN {
            &self.dense1
        } else {
            &self.dense2
        };
        (layer.weights.data(), layer.bias.data())
    }

    #[inline]
    fn mac(acc: f32, w: f32, x: f32) -> f32 {
        acc + w * x
    }

    #[inline]
    fn dot(bias: f32, row: &[f32], x: &[f32]) -> f32 {
        bias + row.iter().zip(x).map(|(w, v)| w * v).sum::<f32>()
    }

    fn activate(&mut self, stage: u64, pre: Vec<f32>) -> Vec<f32> {
        let relu: Vec<f32> = pre.iter().map(|&v| v.max(0.0)).collect();
        if stage == STAGE_INPUT_CONV {
            self.conv_pre_relu = pre;
        } else {
            self.hidden_pre_relu = pre;
            self.hidden_out.clone_from(&relu);
        }
        relu
    }

    fn pooled(&mut self, pooled: &[f32], argmax: Vec<usize>) {
        self.pool_out.clear();
        self.pool_out.extend_from_slice(pooled);
        self.pool_argmax = argmax;
    }

    fn finish(&mut self, input: &Tensor, logits: Vec<f32>) -> Vec<f32> {
        self.last_input = Some(input.clone());
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_net::Topology;
    use zeiot_obs::Label;

    fn setup(update: WeightUpdate, seed: u64) -> (DistributedCnn, Vec<(Tensor, usize)>) {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut rng = SeedRng::new(seed);
        let net = DistributedCnn::new(config, assignment, update, &mut rng);

        // Spatial two-class task: bright top-left vs bright bottom-right.
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
        (net, data)
    }

    #[test]
    fn synchronized_matches_centralized_forward() {
        // With equal replicas, the distributed forward equals a
        // centralized conv with the same weights — verified by checking
        // determinism across update modes before any training.
        let (mut a, data) = setup(WeightUpdate::Synchronized, 7);
        let (mut b, _) = setup(WeightUpdate::Independent, 7);
        for (x, _) in data.iter().take(5) {
            assert_eq!(a.forward(x).data(), b.forward(x).data());
        }
    }

    #[test]
    fn synchronized_replicas_never_diverge() {
        let (mut net, data) = setup(WeightUpdate::Synchronized, 8);
        let mut rng = SeedRng::new(1);
        for _ in 0..3 {
            net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        assert!(net.replica_divergence() < 1e-6);
    }

    #[test]
    fn independent_replicas_diverge() {
        let (mut net, data) = setup(WeightUpdate::Independent, 8);
        let mut rng = SeedRng::new(1);
        for _ in 0..3 {
            net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        assert!(
            net.replica_divergence() > 1e-4,
            "{}",
            net.replica_divergence()
        );
    }

    #[test]
    fn both_modes_learn_the_task() {
        for update in [WeightUpdate::Synchronized, WeightUpdate::Independent] {
            let (mut net, data) = setup(update, 9);
            let mut rng = SeedRng::new(2);
            for _ in 0..20 {
                net.train_epoch(&data, 0.08, 8, &mut rng);
            }
            let acc = net.accuracy(&data);
            assert!(acc > 0.85, "{update:?}: acc={acc}");
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let (mut net, data) = setup(WeightUpdate::Independent, 10);
        let mut rng = SeedRng::new(3);
        let first = net.train_epoch(&data, 0.05, 8, &mut rng);
        let mut last = first;
        for _ in 0..10 {
            last = net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        assert!(last < first, "first={first} last={last}");
    }

    #[test]
    fn serde_round_trip_preserves_the_model() {
        let (mut net, data) = setup(WeightUpdate::PerUnit, 21);
        let mut rng = SeedRng::new(9);
        for _ in 0..3 {
            net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        let json = net.to_json().unwrap();
        let mut restored = DistributedCnn::from_json(&json).unwrap();
        for (x, _) in data.iter().take(10) {
            assert_eq!(net.forward(x).data(), restored.forward(x).data());
        }
        assert!(DistributedCnn::from_json("not json").is_err());
    }

    #[test]
    fn from_json_rejects_tampered_models() {
        let (net, _) = setup(WeightUpdate::Independent, 22);
        let json = net.to_json().unwrap();
        assert!(DistributedCnn::from_json(&json).is_ok());

        // Textually tamper the persisted model the way a config edit or a
        // hand-patched deployment would, and require a clean error
        // instead of the pre-validation behavior (a panic deep inside
        // forward()).
        let tamper = |from: &str, to: &str| -> String {
            let out = json.replacen(from, to, 1);
            assert_ne!(out, json, "tamper target `{from}` missing from JSON");
            out
        };

        // Config no longer matching the persisted placement: the model
        // was built for 8×8 inputs / 2 classes.
        assert!(DistributedCnn::from_json(&tamper("\"in_height\":8", "\"in_height\":10")).is_err());
        assert!(DistributedCnn::from_json(&tamper("\"classes\":2", "\"classes\":3")).is_err());

        // A replica claiming to host the wrong number of conv units.
        let bad_units = tamper("\"units\":8}", "\"units\":9}");
        let err = DistributedCnn::from_json(&bad_units).unwrap_err();
        assert!(err.contains("replica"), "unexpected error: {err}");

        // A placement entry pointing a conv unit at a node other than
        // the one the assignment records.
        let first_host = json
            .split("\"conv_unit_host\":[")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("conv_unit_host present");
        let other = if first_host == "3" { "4" } else { "3" };
        assert!(DistributedCnn::from_json(&tamper(
            &format!("\"conv_unit_host\":[{first_host},"),
            &format!("\"conv_unit_host\":[{other},"),
        ))
        .is_err());

        // A replica weight tensor reshaped away from [oc, ic, k, k].
        assert!(
            DistributedCnn::from_json(&tamper("\"shape\":[2,1,3,3]", "\"shape\":[2,1,9]")).is_err()
        );
    }

    #[test]
    fn observed_epoch_trains_identically_and_records_drift() {
        let (mut plain, data) = setup(WeightUpdate::Independent, 30);
        let (mut observed, _) = setup(WeightUpdate::Independent, 30);
        let mut rng_a = SeedRng::new(4);
        let mut rng_b = SeedRng::new(4);
        let mut rec = Recorder::new();
        let loss_a = plain.train_epoch(&data, 0.05, 8, &mut rng_a);
        let loss_b = observed.train_epoch_observed(&data, 0.05, 8, &mut rng_b, &mut rec);
        assert_eq!(loss_a, loss_b);
        for (x, _) in data.iter().take(5) {
            assert_eq!(plain.forward(x).data(), observed.forward(x).data());
        }
        let drift = rec
            .gauge("microdeep.replica_drift", &Label::Global)
            .unwrap();
        assert_eq!(drift, observed.replica_divergence());
        let steps = rec
            .histogram_ref("microdeep.replica_drift_step", &Label::Global)
            .unwrap();
        assert_eq!(steps.len(), data.len().div_ceil(8));
        assert!(rec
            .histogram_ref("microdeep.batch_loss", &Label::Global)
            .is_some());
    }

    #[test]
    #[should_panic]
    fn backward_before_forward_panics() {
        let (mut net, _) = setup(WeightUpdate::Independent, 12);
        let g = Tensor::zeros(vec![2]);
        net.backward(&g);
    }
}
