//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints the whole catalogue for its mode: the end-to-end
//! metrics untraced, the per-layer metrics traced. A layer a workload does
//! not execute reports the work it did there: zero calls, zero time.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("tok_per_s", "tok/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed", "count"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("request.sample_ms", "ms"),
    ("control.route.calls", "count"),
    ("control.route_ms", "ms"),
    ("control.admission.calls", "count"),
    ("control.admission_ms", "ms"),
    ("scheduler.select.calls", "count"),
    ("scheduler.select_ms", "ms"),
    ("scheduler.victim.calls", "count"),
    ("scheduler.victim_ms", "ms"),
    ("scheduler.ticks", "count"),
    ("scheduler.admit_ms", "ms"),
    ("scheduler.prefill_chunks_ms", "ms"),
    ("scheduler.make_room_ms", "ms"),
    ("scheduler.decode_lens_ms", "ms"),
    ("scheduler.decode_step_ms", "ms"),
    ("scheduler.mean_decode_batch", "seq"),
    ("ledger.grow.calls", "count"),
    ("ledger.grow_ms", "ms"),
    ("ledger.grow.page_crossings", "count"),
    ("ledger.grow.useful_ratio", "ratio"),
    ("ledger.grow.refused", "count"),
    ("ledger.admit.calls", "count"),
    ("ledger.release.calls", "count"),
    ("ledger.swap_out.calls", "count"),
    ("ledger.swap_in.calls", "count"),
    ("gpusim.price.calls", "count"),
    ("gpusim.price_ms", "ms"),
    ("cluster.driver_ms", "ms"),
    ("sim.makespan_s", "sim_s"),
    ("sim.mean_ttft_s", "sim_s"),
    ("sim.p99_latency_s", "sim_s"),
    ("sim.preemptions", "count"),
    ("sim.swap_outs", "count"),
    ("sim.peak_pages", "pages"),
    ("model.synth_ms", "ms"),
    ("model.calibration_ms", "ms"),
    ("core.quantize_block_ms", "ms"),
    ("block_exec.pack_ms", "ms"),
    ("model_exec.step_base_ms", "ms"),
    ("model_exec.step_ms_per_1k_ctx", "ms/ktok"),
    ("kernels.gemm_w4a8_us", "us"),
    ("kernels.quantize_act_us", "us"),
    ("kernels.decode_attention_us", "us"),
    ("kv_cache.read_head_us", "us"),
    ("kv_cache.append_token_us", "us"),
    ("tensor.logits_matmul_us", "us"),
    ("kernels.gemm_w4a8.macs", "MAC"),
    ("kernels.gemm_w4a8.bytes", "B"),
    ("kernels.decode_attention.bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replay_overhead_ratio", "ratio"),
    ("trace.replay_fidelity", "bool"),
];

/// One run's verdict and numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or sequences) the workload offered.
    pub attempted: u64,
    /// Requests shed or errored.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Failed output checks, one line each; empty means correct.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `catalogue`, in catalogue order. A metric the run did not touch
    /// reads 0; a non-finite value fails the run.
    pub fn json(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut parts = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() {
                v
            } else {
                self.failures
                    .push(format!("metric {name} is not finite ({v})"));
                0.0
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(sample: &[f64]) -> f64 {
    assert!(!sample.is_empty(), "median of an empty sample");
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 64-bit FNV-1a over a stream of words: the digest runs are compared by.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
