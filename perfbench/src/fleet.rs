//! The two simulated-fleet workloads: a 4×A100 Llama-2-7B QServe
//! per-channel fleet behind the cluster's event-driven core.
//!
//! Arrivals are an open loop in *simulated* time: the whole Poisson trace
//! is generated from the seed and replayed offline by `Cluster::serve_paged`,
//! so the host generator can never run late and there is no lateness to
//! report.
//!
//! The untraced run times `serve_paged` end to end. The traced run wraps
//! the trait objects the cluster accepts (routing, admission, the
//! scheduling-policy factory), records every routing decision, and then
//! replays each replica's share through the public `Scheduler` tick
//! methods in the order the engine's tick calls them, against a counting
//! `KvBudget` over a `PageBudget` and the engine's public latency
//! functions. The replay must reproduce every replica's `ReplicaReport`,
//! or the trace is void.

use std::sync::mpsc::{channel, Sender};

use qserve_gpusim::{GpuSpec, HostLink};
use qserve_model::ModelConfig;
use qserve_serve::cluster::{
    Admission, AdmissionPolicy, AdmitAll, Cluster, ClusterReport, LeastOutstanding, PrefixAffinity,
    ReplicaView, RoutingPolicy,
};
use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, Request, RequestId, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{
    AdmittedWave, Fcfs, KvBudget, MemoryAware, PreemptionMode, Reservation, SchedOptions,
    Scheduler, SchedulingPolicy,
};
use qserve_serve::{ServingEngine, SystemConfig};

use crate::host::{self, timed, Span, Stopwatch};
use crate::metrics::{median, Digest, Outcome};
use crate::probe::{CountingLedger, PolicySpans, TickSpans, TracedPolicy};
use crate::Size;

/// Serves timed per untraced run, at least.
const MIN_REPS: usize = 3;
/// Fleet constructions timed per `setup_s` sample: one construction takes
/// microseconds, so a sample is the mean over a batch.
const SETUP_BATCH: usize = 4096;
/// Untraced/traced serve pairs, and untimed replays, a traced run takes
/// medians over.
const TRACE_REPS: usize = 3;

/// One fleet workload: trace shape, control plane and tick options.
pub struct FleetCase {
    /// Workload name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The seeded trace.
    pub spec: WorkloadSpec,
    routing: fn() -> Box<dyn RoutingPolicy>,
    policy: fn() -> Box<dyn SchedulingPolicy>,
    opts: SchedOptions,
}

/// Page reservation on every replica of both fleets.
const RESERVATION: Reservation = Reservation::OnDemand;

impl FleetCase {
    /// `fleet_overload`: `mega_sweep`'s trace shape — production lengths
    /// (64–256 in, 16–64 out), Poisson at 640 rps (just above the ~615 rps
    /// service rate), least-outstanding routing, memory-aware admission,
    /// recompute preemption, no sharing or chunking. 150k requests build
    /// the backlog behind a preemption storm (tens of thousands of
    /// preemptions) while one serve stays under a second on one core, so a
    /// run's median is over dozens of serves.
    pub fn overload(size: Size, seed: u64) -> Self {
        let n = match size {
            Size::Full => 150_000,
            Size::Tiny => 3_000,
        };
        Self {
            name: "fleet_overload",
            spec: WorkloadSpec::production(n, 640.0, seed),
            routing: || Box::new(LeastOutstanding),
            policy: || Box::new(MemoryAware::default()),
            opts: SchedOptions::default(),
        }
    }

    /// `fleet_prefix_swap`: 64 tenant groups with a 1024-token system
    /// prompt, 3072–6144 private and 256–512 output tokens, Poisson at
    /// 8 rps (just above the ~7.5 rps service rate), prefix-affinity
    /// routing, FCFS admission, shared prefixes, 512-token chunks and swap
    /// preemption to a 4× host tier. 20k requests fill the page pool to its
    /// peak and swap hundreds of victims out, at well under a second per
    /// serve.
    pub fn prefix_swap(size: Size, seed: u64) -> Self {
        let n = match size {
            Size::Full => 20_000,
            Size::Tiny => 400,
        };
        Self {
            name: "fleet_prefix_swap",
            spec: WorkloadSpec {
                num_requests: n,
                input: LengthDist::Uniform { lo: 3072, hi: 6144 },
                output: LengthDist::Uniform { lo: 256, hi: 512 },
                arrival: ArrivalPattern::Poisson { rate_rps: 8.0 },
                sharing: PrefixSharing::Groups {
                    groups: 64,
                    prefix_len: 1024,
                },
                slo: SloSpec::None,
                seed,
            },
            routing: || Box::new(PrefixAffinity::default()),
            policy: || Box::new(Fcfs),
            opts: SchedOptions {
                share_prefixes: true,
                chunk_tokens: Some(512),
                preemption: PreemptionMode::Swap,
            },
        }
    }

    /// The four identical replicas, as `mega_sweep` builds them.
    fn engines() -> Vec<ServingEngine> {
        let a100 = ServingEngine::new(
            GpuSpec::a100(),
            ModelConfig::llama2_7b(),
            SystemConfig::QServePerChannel,
        )
        .expect("A100 serves Llama-2-7B");
        vec![a100; 4]
    }

    /// Set-up: the fleet and its control plane.
    fn build(&self) -> Cluster {
        Cluster::heterogeneous(Self::engines(), (self.routing)())
    }

    fn serve(&self, cluster: &mut Cluster) -> Result<ClusterReport, String> {
        cluster
            .serve_paged(&self.spec, self.policy, RESERVATION, self.opts)
            .map_err(|e| format!("{}: serve_paged failed: {e}", self.name))
    }

    /// One line of workload parameters, printed before the result.
    pub fn describe(&self) -> String {
        format!(
            "workload {} requests={} input={:?} output={:?} arrival={:?} sharing={:?} \
             routing={} policy={} reservation={:?} opts={:?} loop=open-in-simulated-time",
            self.name,
            self.spec.num_requests,
            self.spec.input,
            self.spec.output,
            self.spec.arrival,
            self.spec.sharing,
            (self.routing)().name(),
            (self.policy)().name(),
            RESERVATION,
            self.opts,
        )
    }

    /// Checks one report's conservation invariants into `out`. Neither
    /// fleet installs a shedding admission policy, so every request must
    /// also finish.
    fn check_report(&self, r: &ClusterReport, out: &mut Outcome) {
        let n = self.spec.num_requests;
        out.check(r.completed + r.shed == n, || {
            format!(
                "{}: completed {} + shed {} != requests {n}",
                self.name, r.completed, r.shed
            )
        });
        out.check(r.completed == n, || {
            format!("{}: completed {} of {n} requests", self.name, r.completed)
        });
        let routed: usize = r.per_replica.iter().map(|p| p.routed).sum();
        out.check(routed + r.shed == n, || {
            format!(
                "{}: routed {routed} + shed {} != requests {n}",
                self.name, r.shed
            )
        });
    }
}

/// Digest of everything a perf change must leave bit-identical: the
/// simulated outputs, per-replica state and every finished id in order.
pub fn fingerprint(r: &ClusterReport) -> String {
    let mut d = Digest::default();
    for w in [
        r.completed,
        r.generated_tokens,
        r.shed,
        r.preemptions,
        r.swap_outs,
    ] {
        d.word(w as u64);
    }
    for w in [r.swap_out_pages, r.swap_in_pages, r.max_replica_peak_pages] {
        d.word(w as u64);
    }
    for f in [
        r.makespan_s,
        r.mean_ttft_s,
        r.p50_latency_s,
        r.p99_latency_s,
    ] {
        d.word(f.to_bits());
    }
    for f in [r.sketch_p50_latency_s, r.sketch_p99_latency_s] {
        d.word(f.to_bits());
    }
    for p in &r.per_replica {
        for w in [
            p.routed,
            p.completed,
            p.generated_tokens,
            p.preemptions,
            p.peak_unique_pages,
        ] {
            d.word(w as u64);
        }
        d.word(p.clock_s.to_bits());
        d.word(p.busy_s.to_bits());
        for id in &p.finished {
            d.word(id.0);
        }
    }
    d.hex()
}

/// The untraced run: serve repeatedly for `seconds` (at least
/// [`MIN_REPS`] times), each on a freshly built fleet, and report medians.
pub fn measure(case: &FleetCase, seconds: f64, out: &mut Outcome) -> Result<String, String> {
    let sw = Stopwatch::start();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<(String, ClusterReport)> = None;
    while walls.len() < MIN_REPS || sw.secs() < seconds {
        let (batch_s, built) = timed(|| {
            let mut last = None;
            for _ in 0..SETUP_BATCH {
                last = Some(case.build());
            }
            last.expect("a non-empty setup batch")
        });
        setups.push(batch_s / SETUP_BATCH as f64);
        let mut cluster = built;
        host::reset_peak_rss()?;
        let (wall, report) = timed(|| case.serve(&mut cluster));
        peaks.push(host::peak_rss_mb()?);
        let report = report?;
        case.check_report(&report, out);
        let fp = fingerprint(&report);
        match &first {
            None => first = Some((fp, report)),
            Some((f0, _)) => out.check(*f0 == fp, || {
                format!(
                    "{}: serve {} differs from serve 1 ({fp} vs {f0})",
                    case.name,
                    walls.len() + 1
                )
            }),
        }
        walls.push(wall);
    }
    let (fp, report) = first.expect("at least one serve");
    let wall = median(&walls);
    out.attempted = case.spec.num_requests as u64;
    out.failed = report.shed as u64;
    out.set("wall_s", wall);
    out.set("tok_per_s", report.generated_tokens as f64 / wall);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", median(&peaks));
    out.set("completed", report.completed as f64);
    eprintln!(
        "{}: {} serves, wall median {wall:.4} s (min {:.4}, max {:.4}), {} completed, {} shed, \
         {} preemptions, {} swap-outs",
        case.name,
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        report.completed,
        report.shed,
        report.preemptions,
        report.swap_outs
    );
    Ok(fp)
}

// ---------------------------------------------------------------------------
// Traced run: wrapped control-plane objects
// ---------------------------------------------------------------------------

/// What a wrapped control-plane object reports when the cluster drops it.
enum Record {
    Route {
        span: Span,
        choices: Vec<(RequestId, usize)>,
    },
    Admission(Span),
}

/// Times every routing decision and remembers where each request went.
struct TracedRouting {
    inner: Box<dyn RoutingPolicy>,
    span: Span,
    choices: Vec<(RequestId, usize)>,
    tx: Sender<Record>,
}

impl RoutingPolicy for TracedRouting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn route(&mut self, req: &Request, replicas: &[ReplicaView]) -> usize {
        let inner = &mut self.inner;
        let choice = self.span.time(|| inner.route(req, replicas));
        self.choices.push((req.id, choice));
        choice
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.span = Span::default();
        self.choices.clear();
    }
}

impl Drop for TracedRouting {
    fn drop(&mut self) {
        let choices = std::mem::take(&mut self.choices);
        // The receiver outlives the cluster; a send can only fail if the
        // trace was abandoned, and then nobody needs the record.
        let _ = self.tx.send(Record::Route {
            span: self.span,
            choices,
        });
    }
}

/// Times every admission decision.
struct TracedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    span: Span,
    tx: Sender<Record>,
}

impl AdmissionPolicy for TracedAdmission {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn decide(&mut self, req: &Request, replicas: &[ReplicaView]) -> Admission {
        let inner = &mut self.inner;
        self.span.time(|| inner.decide(req, replicas))
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.span = Span::default();
    }
}

impl Drop for TracedAdmission {
    fn drop(&mut self) {
        let _ = self.tx.send(Record::Admission(self.span));
    }
}

// ---------------------------------------------------------------------------
// Traced run: the tick replay
// ---------------------------------------------------------------------------

/// What one replica's replay must agree with its `ReplicaReport` on.
#[derive(Debug, PartialEq, Eq)]
struct ReplicaState {
    clock_bits: u64,
    preemptions: usize,
    peak_pages: usize,
    completed: usize,
}

/// Replays one replica's routed share through the public tick methods,
/// in the order the engine's scratch tick calls them.
fn replay_replica(
    engine: &ServingEngine,
    opts: SchedOptions,
    batch_limit: usize,
    policy: Box<dyn SchedulingPolicy>,
    requests: Vec<Request>,
    budget: &mut dyn KvBudget,
    probe: &mut TickSpans,
) -> ReplicaState {
    let mut sched = Scheduler::with_options(requests, batch_limit, policy, opts);
    let mut wave = AdmittedWave::default();
    let mut chunks: Vec<(RequestId, usize, usize)> = Vec::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let (mut ids, mut preempted, mut done) = (Vec::new(), Vec::new(), Vec::new());
    let mut lens: Vec<usize> = Vec::new();
    let page_bytes = engine.kv_page_bytes() as f64;
    while !sched.is_done() {
        probe.ticks += 1;
        probe
            .admit
            .time_if(probe.timed, || sched.admit_into(budget, &mut wave));
        match opts.chunk_tokens {
            None => {
                if !wave.ids.is_empty() {
                    pairs.clear();
                    pairs.extend(
                        wave.prefill_lens
                            .iter()
                            .zip(&wave.shared_lens)
                            .map(|(&full, &shared)| (full - shared, shared)),
                    );
                    let dt = probe
                        .price
                        .time_if(probe.timed, || engine.prefill_latency_chunked(&pairs));
                    sched.charge_prefill(dt);
                }
            }
            Some(c) => {
                probe
                    .prefill_chunks
                    .time_if(probe.timed, || sched.prefill_chunks_into(c, &mut chunks));
                if !chunks.is_empty() {
                    pairs.clear();
                    pairs.extend(chunks.iter().map(|&(_, c, p)| (c, p)));
                    let dt = probe
                        .price
                        .time_if(probe.timed, || engine.prefill_latency_chunked(&pairs));
                    sched.charge_prefill(dt);
                }
            }
        }
        if sched.running().is_empty() {
            if !sched.is_done() {
                sched.idle_until_arrival();
            }
            continue;
        }
        probe.make_room.time_if(probe.timed, || {
            sched.make_room_into(budget, &mut ids, &mut preempted)
        });
        let swap_pages = sched.take_tick_swap_pages();
        if swap_pages > 0 {
            let dt = probe.price.time_if(probe.timed, || {
                HostLink::pcie4().transfer_latency(swap_pages as f64 * page_bytes)
            });
            sched.charge_swap(dt);
        }
        probe
            .decode_lens
            .time_if(probe.timed, || sched.decoding_seq_lens_into(&mut lens));
        if lens.is_empty() {
            continue;
        }
        probe.decode_ticks += 1;
        probe.decoded_seqs += lens.len() as u64;
        let dt = probe
            .price
            .time_if(probe.timed, || engine.decode_step_latency_hetero(&lens));
        probe.decode_step.time_if(probe.timed, || {
            sched.decode_step_into(dt, budget, &mut done)
        });
    }
    ReplicaState {
        clock_bits: sched.clock().to_bits(),
        preemptions: sched.preemptions(),
        peak_pages: budget.peak_pages(),
        completed: sched.finished().len(),
    }
}

/// Replays the whole fleet from a routing record, returning each
/// replica's end state. A timed replay runs against counting ledgers and
/// returns them; an untimed one runs against plain `PageBudget`s.
fn replay_fleet(
    case: &FleetCase,
    shares: &[Vec<Request>],
    probe: &mut TickSpans,
) -> Result<(Vec<ReplicaState>, Vec<CountingLedger>), String> {
    let engines = FleetCase::engines();
    let mut states = Vec::with_capacity(shares.len());
    let mut ledgers = Vec::new();
    for (engine, share) in engines.iter().zip(shares) {
        let (mut budget, batch_limit) = engine
            .paged_budget(&case.spec, RESERVATION)
            .map_err(|e| format!("{}: paged_budget failed: {e}", case.name))?;
        if case.opts.preemption == PreemptionMode::Swap {
            budget.enable_host_tier(4 * budget.total_pages());
        }
        if share.is_empty() {
            states.push(ReplicaState {
                clock_bits: 0,
                preemptions: 0,
                peak_pages: 0,
                completed: 0,
            });
            continue;
        }
        let requests = share.clone();
        let policy = (case.policy)();
        let state = if probe.timed {
            let mut counted = CountingLedger::new(budget, true);
            let s = replay_replica(
                engine,
                case.opts,
                batch_limit,
                policy,
                requests,
                &mut counted,
                probe,
            );
            ledgers.push(counted);
            s
        } else {
            replay_replica(
                engine,
                case.opts,
                batch_limit,
                policy,
                requests,
                &mut budget,
                probe,
            )
        };
        states.push(state);
    }
    Ok((states, ledgers))
}

/// Replica states as the cluster reported them.
fn reported_states(r: &ClusterReport) -> Vec<ReplicaState> {
    r.per_replica
        .iter()
        .map(|p| ReplicaState {
            clock_bits: p.clock_s.to_bits(),
            preemptions: p.preemptions,
            peak_pages: p.peak_unique_pages,
            completed: p.completed,
        })
        .collect()
}

/// What one traced serve recorded at the control-plane boundaries.
#[derive(Default)]
struct ControlTrace {
    route: Span,
    admission: Span,
    policy: PolicySpans,
    choices: Vec<(RequestId, usize)>,
}

/// One serve with every control-plane trait object the cluster accepts
/// wrapped: routing, admission and the scheduling-policy factory.
fn traced_serve(case: &FleetCase) -> Result<(f64, ClusterReport, ControlTrace), String> {
    let (tx, rx) = channel::<Record>();
    let (policy_tx, policy_rx) = channel::<PolicySpans>();
    let (wall, report) = {
        let routing = TracedRouting {
            inner: (case.routing)(),
            span: Span::default(),
            choices: Vec::new(),
            tx: tx.clone(),
        };
        let admission = TracedAdmission {
            inner: Box::new(AdmitAll),
            span: Span::default(),
            tx,
        };
        let mut cluster = Cluster::heterogeneous(FleetCase::engines(), Box::new(routing))
            .with_admission(Box::new(admission));
        let make_policy = move || -> Box<dyn SchedulingPolicy> {
            Box::new(TracedPolicy::new((case.policy)(), policy_tx.clone()))
        };
        timed(|| cluster.serve_paged(&case.spec, &make_policy, RESERVATION, case.opts))
    };
    let report = report.map_err(|e| format!("{}: traced serve failed: {e}", case.name))?;
    let mut t = ControlTrace::default();
    for rec in rx.iter() {
        match rec {
            Record::Route { span, choices } => {
                t.route.add(span);
                t.choices = choices;
            }
            Record::Admission(span) => t.admission.add(span),
        }
    }
    for spans in policy_rx.iter() {
        t.policy.add(spans);
    }
    Ok((wall, report, t))
}

/// The traced run: per-layer numbers for one fleet workload. Returns the
/// untraced report's fingerprint.
pub fn trace(case: &FleetCase, out: &mut Outcome) -> Result<String, String> {
    // Untraced and traced serves, interleaved so host drift hits both.
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..TRACE_REPS {
        let mut cluster = case.build();
        let (wall, report) = timed(|| case.serve(&mut cluster));
        walls.push(wall);
        let report = report?;
        let (traced_wall, traced_report, control) = traced_serve(case)?;
        traced_walls.push(traced_wall);
        out.check(fingerprint(&traced_report) == fingerprint(&report), || {
            format!(
                "{}: wrapping the control plane changed the report",
                case.name
            )
        });
        last = Some((report, control));
    }
    let (report, control) = last.expect("at least one serve pair");
    case.check_report(&report, out);
    let wall_untraced = median(&walls);
    let wall_traced = median(&traced_walls);
    let ControlTrace {
        route,
        admission,
        policy,
        choices,
    } = control;

    // Each replica's share, from the routing record.
    let (sample_s, trace) = timed(|| case.spec.sample());
    let mut samples = vec![sample_s];
    for _ in 1..TRACE_REPS {
        samples.push(timed(|| case.spec.sample()).0);
    }
    let replicas = report.per_replica.len();
    let mut owner = vec![usize::MAX; trace.len()];
    for &(id, replica) in &choices {
        owner[id.0 as usize] = replica;
    }
    let mut shares: Vec<Vec<Request>> = vec![Vec::new(); replicas];
    for req in trace {
        let o = owner[req.id.0 as usize];
        if o < replicas {
            shares[o].push(req);
        }
    }

    // Untimed replays (what the event loop adds on top of them is
    // cluster.driver_ms), then the timed one.
    let expected = reported_states(&report);
    let mut replay_walls = Vec::new();
    let mut fidelity = true;
    for _ in 0..TRACE_REPS {
        let (w, replayed) = timed(|| replay_fleet(case, &shares, &mut TickSpans::new(false)));
        fidelity &= replayed?.0 == expected;
        replay_walls.push(w);
    }
    let replay_untimed = median(&replay_walls);
    let mut probe = TickSpans::new(true);
    let (replay_timed, replayed) = timed(|| replay_fleet(case, &shares, &mut probe));
    let (states, ledgers) = replayed?;
    fidelity &= states == expected;
    out.check(fidelity, || {
        format!(
            "{}: the tick replay did not reproduce every ReplicaReport",
            case.name
        )
    });

    out.set("request.sample_ms", median(&samples) * 1e3);
    out.set("control.route.calls", route.calls as f64);
    out.set("control.route_ms", route.ms());
    out.set("control.admission.calls", admission.calls as f64);
    out.set("control.admission_ms", admission.ms());
    policy.report(out);
    probe.report(out);
    CountingLedger::report(&ledgers, out);
    out.set("gpusim.price.calls", probe.price.calls as f64);
    out.set("gpusim.price_ms", probe.price.ms());
    out.set("cluster.driver_ms", (wall_untraced - replay_untimed) * 1e3);
    out.set("sim.makespan_s", report.makespan_s);
    out.set("sim.mean_ttft_s", report.mean_ttft_s);
    out.set("sim.p99_latency_s", report.p99_latency_s);
    out.set("sim.preemptions", report.preemptions as f64);
    out.set("sim.swap_outs", report.swap_outs as f64);
    out.set("sim.peak_pages", report.max_replica_peak_pages as f64);
    out.set("trace.overhead_ratio", wall_traced / wall_untraced);
    out.set("trace.replay_overhead_ratio", replay_timed / replay_untimed);
    out.set("trace.replay_fidelity", if fidelity { 1.0 } else { 0.0 });
    out.attempted = case.spec.num_requests as u64;
    out.failed = report.shed as u64;
    eprintln!(
        "{}: untraced wall {wall_untraced:.4} s, traced {wall_traced:.4} s, replay {replay_untimed:.4} s \
         untimed / {replay_timed:.4} s timed, fidelity {}",
        case.name,
        if fidelity { "ok" } else { "VOID" }
    );
    Ok(fingerprint(&report))
}
