//! Named metrics with units, the per-layer catalogue, and the output
//! digest.

/// Every per-layer metric a traced run prints, with its unit.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("serve.self_ms", "ms"),
    ("serve.offered", "count"),
    ("serve.answered", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.venue_run_ms", "ms"),
    ("microdeep.f32_forward_us.p50", "us"),
    ("microdeep.f32_forward_us.p99", "us"),
    ("microdeep.int8_forward_us.p50", "us"),
    ("microdeep.int8_forward_us.p99", "us"),
    ("microdeep.apply_gradients_us.p50", "us"),
    ("microdeep.lossy.f32_forward_us.p50", "us"),
    ("microdeep.lossy.f32_forward_us.p99", "us"),
    ("microdeep.lossy.int8_forward_us.p50", "us"),
    ("microdeep.lossy.int8_forward_us.p99", "us"),
    ("microdeep.lossy.transport_share", "share"),
    ("microdeep.lossy.forward_us.p50", "us"),
    ("microdeep.lossy.backward_us.p50", "us"),
    ("fault.ns_per_message", "ns"),
    ("fault.messages_per_pass", "count"),
    ("fault.backward_messages_per_sample", "count"),
    ("fault.drops", "count"),
    ("fault.degraded_values", "count"),
    ("scenario.compile_ms", "ms"),
    ("scenario.fuse_us.p50", "us"),
    ("obs.trace_share", "share"),
    ("bench.episode_p50_ms", "ms"),
    ("bench.episode_tail_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
];

/// The workloads a traced run borrows missing per-layer metrics from,
/// in order of preference.
pub const FILL_ORDER: [&str; 4] = [
    "serve_degraded",
    "train_lossy",
    "serve_clean",
    "venue_fusion",
];

/// An ordered set of named metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_owned(), value, unit),
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    /// Whether `name` is set.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _, _)| n == name)
    }

    /// Copies every metric of `other` that `self` lacks; returns their
    /// names.
    pub fn fill_from(&mut self, other: &Metrics) -> Vec<String> {
        let mut filled = Vec::new();
        for (name, value, unit) in &other.0 {
            if !self.has(name) {
                self.0.push((name.clone(), *value, unit));
                filled.push(name.clone());
            }
        }
        filled
    }

    /// The metrics named in `catalogue`, in its order.
    pub fn only(&self, catalogue: &[(&str, &str)]) -> Metrics {
        Metrics(
            catalogue
                .iter()
                .filter_map(|(name, _)| self.0.iter().find(|(n, _, _)| n == name).cloned())
                .collect(),
        )
    }

    /// `(name, value, unit)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value
    /// (a metric with no samples) is written as `null`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_owned()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A 64-bit FNV-1a digest for output checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes in a string and its length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The FNV-1a digest of a string.
pub fn digest_str(s: &str) -> u64 {
    let mut d = Digest::new();
    d.str(s);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_keep_order_replace_and_fill() {
        let mut a = Metrics::default();
        a.put("x", 1.0, "ms");
        a.put("y", 2.0, "s");
        a.put("x", 3.0, "ms");
        let mut b = Metrics::default();
        b.put("y", 9.0, "s");
        b.put("z", 4.5, "count");
        assert_eq!(a.fill_from(&b), vec!["z".to_owned()]);
        assert_eq!(
            a.to_json(),
            "{\"x\": {\"value\": 3.0, \"unit\": \"ms\"}, \"y\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"z\": {\"value\": 4.5, \"unit\": \"count\"}}"
        );
        let only = a.only(&[("z", "count"), ("x", "ms"), ("w", "ms")]);
        let names: Vec<&str> = only.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, ["z", "x"]);
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest_str("ab"), digest_str("ba"));
    }

    #[test]
    fn catalogue_names_are_unique() {
        for (i, (a, _)) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[i + 1..].iter().all(|(b, _)| a != b), "{a} twice");
        }
    }
}
