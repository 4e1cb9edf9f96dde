//! The paper's temperature CNN (17×25 input on the 10×5 sensor grid),
//! built and briefly trained from a seed, and a model handle that runs
//! it in f32 or int8.

use zeiot_core::rng::SeedRng;
use zeiot_data::temperature::TemperatureFieldGenerator;
use zeiot_microdeep::{
    Assignment, CnnConfig, DistributedCnn, LossyRuntime, QuantizedCnn, WeightUpdate,
};
use zeiot_net::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::SpanScope;
use zeiot_serve::QuantMode;

/// Labelled samples the baseline trains on (and `train_lossy` epochs
/// run over).
pub const TRAIN_SAMPLES: usize = 32;

/// Labelled samples every tenant's request pool (and int8 calibration
/// set) holds.
pub const POOL_SAMPLES: usize = 32;

/// The trained baseline every workload starts from.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// The f32 deployment.
    pub net: DistributedCnn,
    /// The 10×5 sensor mesh it is deployed on.
    pub topo: Topology,
    /// Training samples.
    pub train: Vec<(Tensor, usize)>,
    /// Request pool / calibration samples.
    pub pool: Vec<(Tensor, usize)>,
}

/// Generates the lounge data, places the CNN on the mesh and trains it
/// for two plain epochs — all derived from `seed`.
pub fn baseline(seed: u64) -> Baseline {
    let mut data_rng = SeedRng::with_stream(seed, 0xDA7A);
    let generator = TemperatureFieldGenerator::paper_lounge().expect("paper lounge");
    let mut train = generator.generate(TRAIN_SAMPLES + POOL_SAMPLES, &mut data_rng);
    TemperatureFieldGenerator::normalize(&mut train);
    let pool = train.split_off(TRAIN_SAMPLES);

    let config = CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2).expect("valid geometry");
    let topo = Topology::grid(10, 5, 5.0, 7.6).expect("valid layout");
    let graph = config.unit_graph().expect("valid config");
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    let mut model_rng = SeedRng::with_stream(seed, 0x0DE1);
    let mut net = DistributedCnn::new(
        config,
        assignment,
        WeightUpdate::Independent,
        &mut model_rng,
    );
    let mut train_rng = SeedRng::with_stream(seed, 0x7124);
    for _ in 0..2 {
        net.train_epoch(&train, 0.05, 8, &mut train_rng);
    }
    Baseline {
        net,
        topo,
        train,
        pool,
    }
}

/// A tenant's model as `zeiot_serve::Tenant::new` builds it: the f32
/// deployment, plus the frozen int8 model calibrated on the pool when
/// serving in int8.
#[derive(Debug, Clone)]
pub struct Model {
    net: DistributedCnn,
    quantized: Option<QuantizedCnn>,
}

impl Model {
    /// Freezes `net` for `quant`, calibrating int8 on `pool` exactly
    /// like `Tenant::new`.
    pub fn new(mut net: DistributedCnn, quant: QuantMode, pool: &[(Tensor, usize)]) -> Self {
        let quantized = (quant == QuantMode::Int8).then(|| {
            let calibration: Vec<Tensor> = pool.iter().map(|(x, _)| x.clone()).collect();
            QuantizedCnn::new(&mut net, &calibration)
        });
        Self { net, quantized }
    }

    /// Whether this model runs the int8 path.
    pub fn is_int8(&self) -> bool {
        self.quantized.is_some()
    }

    /// The in-memory forward pass.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        match &mut self.quantized {
            Some(q) => q.forward_quantized(input),
            None => self.net.forward(input),
        }
    }

    /// The forward pass through the lossy fabric `rt`.
    pub fn forward_lossy(
        &mut self,
        input: &Tensor,
        rt: &mut LossyRuntime,
        scope: Option<&mut SpanScope<'_>>,
    ) -> Option<Tensor> {
        match &mut self.quantized {
            Some(q) => q.forward_quantized_lossy_traced(input, rt, scope),
            None => self.net.forward_lossy_traced(input, rt, scope),
        }
    }
}

/// Whether two score vectors are bit-for-bit equal.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
