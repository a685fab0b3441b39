//! The real-bytes workload: a reduced Llama-3-8B (GQA 8:2) QoQ-quantized
//! to W4A8KV4 with g32 progressive weights, deployed through
//! `ModelRuntime`, serving an offline batch with shared prefixes and
//! chunked prefill. This is the one workload where the W4A8 GEMMs, KV4
//! paged attention and the real KV cache do the work.
//!
//! The traced run replays `deploy`'s parts, times `ModelRuntime::step`
//! over the workload's context range, times each kernel per call at the
//! workload's shapes, and replays the serve's schedule through the public
//! `Scheduler` against a counting ledger. Host-time spans inside
//! `serve_with` (per-request TTFT) are not taken: they need hooks in the
//! program.

use std::collections::BTreeMap;

use qserve_core::kv_quant::KvPrecision;
use qserve_core::pipeline::{quantize_block, DeployedWeight, QoqConfig, WeightGranularity};
use qserve_kernels::attention::{decode_attention_fp16, QuantizedKvHead};
use qserve_kernels::gemm::{gemm_w4a8_per_channel, gemm_w4a8_per_group, quantize_activations_int8};
use qserve_model::forward::collect_calibration;
use qserve_model::synth::{SynthesisOptions, SyntheticModel};
use qserve_model::ModelConfig;
use qserve_serve::block_exec::BlockRuntime;
use qserve_serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};
use qserve_serve::model_exec::ServedRequest;
use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, RequestId, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{
    MemoryAware, PageBudget, Reservation, SchedOptions, Scheduler, SchedulingPolicy,
};
use qserve_serve::ModelRuntime;
use qserve_tensor::rng::TensorRng;
use qserve_tensor::Matrix;

use crate::host::{self, timed, Span, Stopwatch};
use crate::metrics::{median, Digest, Outcome};
use crate::probe::{CountingLedger, TickSpans, TracedPolicy};
use crate::Size;

/// Timed serves per untraced run, at least.
const MIN_REPS: usize = 3;
/// Deployments timed per untraced run, at least (each serve deploys fresh).
const MIN_SETUPS: usize = 5;
/// Seed of the calibration tokens (fixed: part of the deployment, not of
/// the workload).
const CALIB_SEED: u64 = 1;
/// Calibration tokens per deployment.
const CALIB_TOKENS: usize = 64;
/// KV cache pages per deployment: far above what the batch can hold.
const PAGES: usize = 1024;
/// Page size `ModelRuntime::deploy` gives its cache.
const PAGE_TOKENS: usize = 16;
/// Requests checked against a solo greedy run per untraced run.
const SOLO_SAMPLE: usize = 2;
/// Untraced/traced serve pairs a traced run takes medians over.
const TRACE_PAIRS: usize = 2;

/// The runtime workload: its request batch and serving knobs.
pub struct RuntimeCase {
    /// The seeded offline batch.
    pub spec: WorkloadSpec,
    batch_limit: usize,
    opts: SchedOptions,
}

impl RuntimeCase {
    /// `runtime_w4a8kv4`: 16 requests, 4 tenant groups × a 32-token shared
    /// prefix, 32 private and 24 output tokens each, batch limit 8,
    /// 16-token chunks, memory-aware admission.
    ///
    /// Lengths are fixed so the seed moves prompts, tenant membership and
    /// admission order but not the amount of work (uniform lengths spread
    /// the serve's wall time by ~15% from seed to seed), and short enough
    /// that a run takes the median of about ten serves: on a shared host,
    /// three long serves spread the median by as much.
    pub fn new(size: Size, seed: u64) -> Self {
        let (n, input, output, prefix, chunk) = match size {
            Size::Full => (16, 32, 24, 32, 16),
            Size::Tiny => (4, 12, 6, 16, 8),
        };
        Self {
            spec: WorkloadSpec {
                num_requests: n,
                input: LengthDist::Fixed(input),
                output: LengthDist::Fixed(output),
                arrival: ArrivalPattern::Batch,
                sharing: PrefixSharing::Groups {
                    groups: 4,
                    prefix_len: prefix,
                },
                slo: SloSpec::None,
                seed,
            },
            batch_limit: 8,
            opts: SchedOptions {
                share_prefixes: true,
                chunk_tokens: Some(chunk),
                ..SchedOptions::default()
            },
        }
    }

    /// One line of workload parameters, printed before the result.
    pub fn describe(&self) -> String {
        format!(
            "workload runtime_w4a8kv4 model={} qoq=w4a8kv4 g32 progressive requests={} input={:?} \
             output={:?} sharing={:?} batch_limit={} opts={:?} policy=memory-aware loop=offline-batch",
            model_config().name,
            self.spec.num_requests,
            self.spec.input,
            self.spec.output,
            self.spec.sharing,
            self.batch_limit,
            self.opts,
        )
    }

    fn serve(
        &self,
        rt: &mut ModelRuntime,
        policy: Box<dyn SchedulingPolicy>,
    ) -> Result<Vec<ServedRequest>, String> {
        rt.serve_with(&self.spec, self.batch_limit, policy, self.opts)
            .map_err(|e| format!("runtime_w4a8kv4: serve_with failed: {e:?}"))
    }

    /// Checks one serve's outputs against the sampled requests into `out`.
    fn check_served(&self, served: &[ServedRequest], out: &mut Outcome) {
        let requests = self.spec.sample();
        out.check(served.len() == requests.len(), || {
            format!(
                "runtime_w4a8kv4: served {} of {} requests",
                served.len(),
                requests.len()
            )
        });
        for (s, r) in served.iter().zip(&requests) {
            out.check(s.id == r.id && s.output.len() == r.output_len, || {
                format!(
                    "runtime_w4a8kv4: request {:?} produced {} tokens, wanted {}",
                    r.id,
                    s.output.len(),
                    r.output_len
                )
            });
        }
    }
}

/// The reduced Llama-3-8B: hidden 128, 2 layers, 8 query / 2 KV heads.
fn model_config() -> ModelConfig {
    SyntheticModel::reduced_config(&ModelConfig::llama3_8b(), 128, 2)
}

/// The paper's full QoQ recipe with g32 progressive weight groups.
fn qoq() -> QoqConfig {
    QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(32),
        ..QoqConfig::w4a8kv4_g128()
    }
}

fn calib_tokens(vocab: usize) -> Vec<u32> {
    TensorRng::seed(CALIB_SEED).token_sequence(CALIB_TOKENS, vocab)
}

/// Set-up: model synthesis plus `ModelRuntime::deploy`.
fn setup() -> ModelRuntime {
    let model = SyntheticModel::generate(model_config(), SynthesisOptions::default());
    ModelRuntime::deploy(&model, &qoq(), &calib_tokens(model.config.vocab), PAGES)
}

/// Digest of every served token, prompt and step index.
pub fn fingerprint(served: &[ServedRequest]) -> String {
    let mut d = Digest::default();
    for s in served {
        d.word(s.id.0);
        d.word(s.first_token_step as u64);
        d.word(s.finish_step as u64);
        for &t in s.prompt.iter().chain(&s.output) {
            d.word(u64::from(t));
        }
        d.word(u64::MAX);
    }
    d.hex()
}

/// The untraced run: deploy and serve repeatedly for `seconds`, then check
/// a sample of requests against solo greedy generation.
pub fn measure(case: &RuntimeCase, seconds: f64, out: &mut Outcome) -> Result<String, String> {
    let sw = Stopwatch::start();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<(String, Vec<ServedRequest>)> = None;
    while walls.len() < MIN_REPS || sw.secs() < seconds {
        let (setup_s, mut rt) = timed(setup);
        setups.push(setup_s);
        host::reset_peak_rss()?;
        let (wall, served) = timed(|| case.serve(&mut rt, Box::new(MemoryAware::default())));
        peaks.push(host::peak_rss_mb()?);
        let served = served?;
        case.check_served(&served, out);
        out.check(rt.cache().used_pages() == 0, || {
            format!(
                "runtime_w4a8kv4: {} pages still held after the serve",
                rt.cache().used_pages()
            )
        });
        let fp = fingerprint(&served);
        match &first {
            None => first = Some((fp, served)),
            Some((f0, _)) => out.check(*f0 == fp, || {
                format!(
                    "runtime_w4a8kv4: serve {} differs from serve 1",
                    walls.len() + 1
                )
            }),
        }
        walls.push(wall);
    }
    let (fp, served) = first.expect("at least one serve");

    // Solo greedy generation on a fresh deployment, for a seed-chosen sample.
    let (setup_s, mut solo) = timed(setup);
    setups.push(setup_s);
    let (seed, n) = (case.spec.seed as usize, served.len());
    for k in 0..SOLO_SAMPLE.min(n) {
        let r = &served[(seed + k * n / SOLO_SAMPLE) % n];
        let seq = solo
            .start_sequence()
            .map_err(|e| format!("solo sequence: {e:?}"))?;
        let expect = solo
            .generate_greedy(seq, &r.prompt, r.output.len())
            .map_err(|e| format!("solo generation: {e:?}"))?;
        out.check(expect == r.output, || {
            format!(
                "runtime_w4a8kv4: request {:?} differs from solo generate_greedy",
                r.id
            )
        });
        solo.finish_sequence(seq)
            .map_err(|e| format!("solo release: {e:?}"))?;
    }
    while setups.len() < MIN_SETUPS {
        setups.push(timed(setup).0);
    }

    let tokens: usize = served.iter().map(|s| s.output.len()).sum();
    let wall = median(&walls);
    out.attempted = case.spec.num_requests as u64;
    out.failed = (case.spec.num_requests - served.len()) as u64;
    out.set("wall_s", wall);
    out.set("tok_per_s", tokens as f64 / wall);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", median(&peaks));
    out.set("completed", served.len() as f64);
    eprintln!(
        "runtime_w4a8kv4: {} serves, wall median {wall:.4} s, {tokens} tokens, setup median {:.4} s",
        walls.len(),
        median(&setups)
    );
    Ok(fp)
}

/// What the schedule replay learned per request.
#[derive(Default)]
struct ScheduleTrace {
    /// Prompt tokens each request aliased from a resident sibling.
    shared: BTreeMap<RequestId, usize>,
    /// `(first_token_step, finish_step)` per request.
    steps: BTreeMap<RequestId, (usize, usize)>,
}

/// Replays `serve_with`'s scheduling (model steps as the clock) through
/// the public `Scheduler` methods, against the same peak-reserving page
/// ledger geometry; `probe.timed` adds host time at each tick boundary.
fn replay_schedule(
    case: &RuntimeCase,
    layers: usize,
    probe: &mut TickSpans,
) -> (ScheduleTrace, CountingLedger) {
    let pages = PageBudget::new(PAGE_TOKENS, layers, PAGES, Reservation::Peak);
    let mut ledger = CountingLedger::new(pages, probe.timed);
    let mut t = ScheduleTrace::default();
    let mut sched = Scheduler::with_options(
        case.spec.sample(),
        case.batch_limit,
        Box::new(MemoryAware::default()),
        case.opts,
    );
    while !sched.is_done() {
        probe.ticks += 1;
        let wave = probe
            .admit
            .time_if(probe.timed, || sched.admit(&mut ledger));
        let mut prefill_steps = 0usize;
        for ((&id, &full), &shared) in wave
            .ids
            .iter()
            .zip(&wave.prefill_lens)
            .zip(&wave.shared_lens)
        {
            t.shared.insert(id, shared);
            if case.opts.chunk_tokens.is_none() {
                prefill_steps += full - shared;
            }
        }
        if let Some(c) = case.opts.chunk_tokens {
            let chunks = probe
                .prefill_chunks
                .time_if(probe.timed, || sched.prefill_chunks(c));
            prefill_steps += chunks.iter().map(|&(_, n, _)| n).sum::<usize>();
        }
        if prefill_steps > 0 {
            sched.charge_prefill(prefill_steps as f64);
        }
        if sched.running().is_empty() {
            sched.idle_until_arrival();
            continue;
        }
        probe
            .make_room
            .time_if(probe.timed, || sched.make_room(&mut ledger));
        let decodable = sched
            .running()
            .iter()
            .filter(|r| r.prefill_remaining() == 0)
            .count();
        if decodable == 0 {
            continue;
        }
        probe.decode_ticks += 1;
        probe.decoded_seqs += decodable as u64;
        probe
            .decode_step
            .time_if(probe.timed, || sched.decode_step(1.0, &mut ledger));
    }
    for r in sched.finished() {
        let first = r.first_token_s.unwrap_or(f64::NAN);
        let finish = r.finish_s.unwrap_or(f64::NAN);
        t.steps.insert(r.id, (first as usize, finish as usize));
    }
    (t, ledger)
}

/// Median per-call time in microseconds of `f`, over `batches` batches of
/// `per_batch` calls.
fn per_call_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let (s, ()) = timed(|| {
            for _ in 0..per_batch {
                f();
            }
        });
        samples.push(s / per_batch as f64 * 1e6);
    }
    median(&samples)
}

/// Bytes one W4A8 GEMM call moves for a single-token activation: packed
/// INT4 codes, level-1 INT8 group scale/zero pairs, level-0 FP16 channel
/// scales, INT8 activations plus their FP16 scale, FP16 outputs.
fn gemm_bytes(n: usize, k: usize, group: usize) -> usize {
    n * k / 2 + 2 * n * (k / group) + 2 * n + k + 2 + 2 * n
}

/// The traced run: per-layer numbers for the runtime workload. Returns the
/// served outputs' fingerprint.
pub fn trace(case: &RuntimeCase, out: &mut Outcome) -> Result<String, String> {
    let cfg = model_config();
    let qoq = qoq();

    // Untraced and traced serves, interleaved so host drift hits both;
    // the policy is the one trait object `serve_with` accepts.
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..TRACE_PAIRS {
        let mut rt = setup();
        let (wall, served) = timed(|| case.serve(&mut rt, Box::new(MemoryAware::default())));
        walls.push(wall);
        let served = served?;
        let (tx, rx) = std::sync::mpsc::channel();
        let policy = TracedPolicy::new(Box::new(MemoryAware::default()), tx);
        let mut rt = setup();
        let (wall, traced) = timed(|| case.serve(&mut rt, Box::new(policy)));
        traced_walls.push(wall);
        out.check(fingerprint(&traced?) == fingerprint(&served), || {
            "runtime_w4a8kv4: wrapping the policy changed the served tokens".to_string()
        });
        let spans = rx.recv().map_err(|e| format!("policy record lost: {e}"))?;
        last = Some((served, spans));
    }
    let (served, policy) = last.expect("at least one serve pair");
    case.check_served(&served, out);
    let (wall_untraced, wall_traced) = (median(&walls), median(&traced_walls));

    let mut samples = Vec::new();
    for _ in 0..5 {
        samples.push(timed(|| case.spec.sample()).0);
    }

    // The schedule replay, checked against the served step indices.
    let mut replay_untimed = Vec::new();
    for _ in 0..5 {
        replay_untimed
            .push(timed(|| replay_schedule(case, cfg.layers, &mut TickSpans::new(false))).0);
    }
    let mut probe = TickSpans::new(true);
    let (replay_timed, (sched, ledger)) = timed(|| replay_schedule(case, cfg.layers, &mut probe));
    let mut fidelity = sched.steps.len() == served.len();
    for s in &served {
        fidelity &= sched.steps.get(&s.id) == Some(&(s.first_token_step, s.finish_step));
    }
    out.check(fidelity, || {
        "runtime_w4a8kv4: the schedule replay diverged from serve_with".to_string()
    });

    // Work per model step, summed over every step the serve ran: prefill
    // steps cover the un-aliased prompt, decode steps every output token
    // but the last (its forward pass is skipped).
    let slot_bytes = KvCacheConfig {
        page_tokens: PAGE_TOKENS,
        kv_heads: cfg.kv_heads,
        head_dim: cfg.head_dim(),
        layers: cfg.layers,
        precision: qoq.kv_precision,
    }
    .token_slot_bytes();
    let (mut steps, mut ctx_sum, mut max_ctx) = (0usize, 0usize, 0usize);
    for s in &served {
        let shared = sched.shared.get(&s.id).copied().unwrap_or(0);
        let last = s.prompt.len() + s.output.len().saturating_sub(1);
        for pos in shared..last {
            steps += 1;
            ctx_sum += pos + 1;
        }
        max_ctx = max_ctx.max(last);
    }
    let mean_ctx = (ctx_sum / steps.max(1)).max(1);

    // Deployment, part by part.
    let mut synth = Vec::new();
    let mut calibration = Vec::new();
    let mut quantize = Vec::new();
    let mut pack = Vec::new();
    let mut last_qb = None;
    for _ in 0..3 {
        let (s, model) =
            timed(|| SyntheticModel::generate(cfg.clone(), SynthesisOptions::default()));
        synth.push(s);
        let tokens = calib_tokens(cfg.vocab);
        let (s, calib) = timed(|| collect_calibration(&model, &tokens));
        calibration.push(s);
        let (mut q_s, mut p_s) = (0.0, 0.0);
        for (block, x) in model.blocks.iter().zip(&calib) {
            let (s, qb) = timed(|| quantize_block(block, x, &qoq));
            q_s += s;
            let (s, runtime) = timed(|| BlockRuntime::new(&qb));
            p_s += s;
            drop(runtime);
            last_qb = Some(qb);
        }
        quantize.push(q_s);
        pack.push(p_s);
    }
    let qb = last_qb.expect("the model has blocks");

    // `step` over the workload's context range: intercept and slope.
    let mut rt = setup();
    let mut per_pos: Vec<Vec<f64>> = vec![Vec::new(); max_ctx];
    let tokens = TensorRng::seed(case.spec.seed).token_sequence(max_ctx, cfg.vocab);
    for _ in 0..3 {
        let seq = rt
            .start_sequence()
            .map_err(|e| format!("step sequence: {e:?}"))?;
        for (pos, &tok) in tokens.iter().enumerate() {
            let (s, r) = timed(|| rt.step(seq, tok));
            r.map_err(|e| format!("step: {e:?}"))?;
            per_pos[pos].push(s * 1e3);
        }
        rt.finish_sequence(seq)
            .map_err(|e| format!("step release: {e:?}"))?;
    }
    let xs: Vec<f64> = (1..=max_ctx).map(|c| c as f64).collect();
    let ys: Vec<f64> = per_pos.iter().map(|v| median(v)).collect();
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let base = my - slope * mx;

    // Kernels, per call, at the workload's shapes.
    let mut rng = TensorRng::seed(case.spec.seed ^ 0x6b65_726e);
    let mut gemm_us = Vec::new();
    let (mut macs_per_step, mut bytes_per_step) = (0usize, 0usize);
    for (_, w) in &qb.deployed {
        let (n_out, k_in, group) = match w {
            DeployedWeight::Progressive(p) => (p.n(), p.k(), p.group_size()),
            DeployedWeight::PerChannel(p) => (p.n(), p.k(), p.k()),
        };
        let xq = quantize_activations_int8(&rng.gaussian(1, k_in, 1.0));
        gemm_us.push(per_call_us(31, 16, || {
            let y = match w {
                DeployedWeight::Progressive(p) => gemm_w4a8_per_group(&xq, p),
                DeployedWeight::PerChannel(p) => gemm_w4a8_per_channel(&xq, p),
            };
            std::hint::black_box(y);
        }));
        macs_per_step += n_out * k_in * cfg.layers;
        bytes_per_step += gemm_bytes(n_out, k_in, group) * cfg.layers;
    }
    let x = rng.gaussian(1, cfg.hidden, 1.0);
    let quantize_us = per_call_us(31, 64, || {
        std::hint::black_box(quantize_activations_int8(&x));
    });

    let d = cfg.head_dim();
    let kv_width = cfg.kv_heads * d;
    let mut head = QuantizedKvHead::new(KvPrecision::Int4);
    for _ in 0..mean_ctx {
        let k = rng.gaussian(1, d, 1.0);
        let v = rng.gaussian(1, d, 1.0);
        head.append(k.row(0), v.row(0));
    }
    let q = rng.gaussian(1, d, 1.0);
    let attention_us = per_call_us(31, 16, || {
        std::hint::black_box(decode_attention_fp16(q.row(0), &head));
    });

    let cache_cfg = KvCacheConfig {
        page_tokens: PAGE_TOKENS,
        kv_heads: cfg.kv_heads,
        head_dim: d,
        layers: 1,
        precision: qoq.kv_precision,
    };
    let kv = rng.gaussian(2 * mean_ctx, kv_width, 1.0);
    let mut append = Span::default();
    let mut cache = PagedKvCache::new(cache_cfg, 4 * mean_ctx.div_ceil(PAGE_TOKENS) + 4);
    for round in 0..4u64 {
        let seq = SequenceId(round);
        cache
            .register(seq)
            .map_err(|e| format!("cache register: {e:?}"))?;
        for t in 0..mean_ctx {
            append
                .time(|| cache.append_token(seq, 0, kv.row(2 * t), kv.row(2 * t + 1)))
                .map_err(|e| format!("append_token: {e:?}"))?;
        }
        if round < 3 {
            cache
                .release(seq)
                .map_err(|e| format!("cache release: {e:?}"))?;
        }
    }
    let read_us = per_call_us(31, 8, || {
        std::hint::black_box(cache.read_head(SequenceId(3), 0, 0).ok());
    });

    let h = rng.gaussian(1, cfg.hidden, 1.0);
    let embedding: Matrix = rng.gaussian(cfg.vocab, cfg.hidden, 1.0);
    let logits_us = per_call_us(31, 8, || {
        std::hint::black_box(h.matmul_nt(&embedding));
    });

    out.set("request.sample_ms", median(&samples) * 1e3);
    policy.report(out);
    probe.report(out);
    CountingLedger::report(std::slice::from_ref(&ledger), out);
    out.set("model.synth_ms", median(&synth) * 1e3);
    out.set("model.calibration_ms", median(&calibration) * 1e3);
    out.set("core.quantize_block_ms", median(&quantize) * 1e3);
    out.set("block_exec.pack_ms", median(&pack) * 1e3);
    out.set("model_exec.step_base_ms", base);
    out.set("model_exec.step_ms_per_1k_ctx", slope * 1e3);
    out.set(
        "kernels.gemm_w4a8_us",
        gemm_us.iter().sum::<f64>() / gemm_us.len() as f64,
    );
    out.set("kernels.quantize_act_us", quantize_us);
    out.set("kernels.decode_attention_us", attention_us);
    out.set("kv_cache.read_head_us", read_us);
    out.set(
        "kv_cache.append_token_us",
        append.secs / append.calls.max(1) as f64 * 1e6,
    );
    out.set("tensor.logits_matmul_us", logits_us);
    out.set("kernels.gemm_w4a8.macs", (steps * macs_per_step) as f64);
    out.set("kernels.gemm_w4a8.bytes", (steps * bytes_per_step) as f64);
    out.set(
        "kernels.decode_attention.bytes",
        (ctx_sum * cfg.layers * slot_bytes) as f64,
    );
    out.set("trace.overhead_ratio", wall_traced / wall_untraced);
    out.set(
        "trace.replay_overhead_ratio",
        replay_timed / median(&replay_untimed),
    );
    out.set("trace.replay_fidelity", if fidelity { 1.0 } else { 0.0 });
    out.attempted = case.spec.num_requests as u64;
    out.failed = (case.spec.num_requests - served.len()) as u64;
    eprintln!(
        "runtime_w4a8kv4: untraced {wall_untraced:.4} s, traced {wall_traced:.4} s, {steps} model steps, \
         mean context {mean_ctx}, schedule replay {}",
        if fidelity { "ok" } else { "VOID" }
    );
    Ok(fingerprint(&served))
}
