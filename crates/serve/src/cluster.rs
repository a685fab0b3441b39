//! Multi-replica cluster serving: the **event-loop driver**. N independent
//! engine replicas — possibly of *different hardware* — advanced by a
//! deterministic event queue, with every *decision* delegated to the
//! control plane ([`crate::control`]) and every *report* assembled by
//! [`crate::report`].
//!
//! The paper's serving results are single-engine; production traffic scales
//! *out* — many replicas, each a (possibly tensor-parallel) engine with its
//! own KV page pool, scheduler core and clock, fed by a router that decides
//! *whether* to serve each arriving request at all, and if so *where*. The
//! split of responsibilities:
//!
//! * a [`Replica`] is one [`ServingEngine`] (its own [`qserve_gpusim`] spec
//!   and TP group — an A100 and an L40S can share one fleet) driving its
//!   own [`Scheduler`] against its own [`PageBudget`], with a
//!   [`Lifecycle`] tracking its accepting/online/epoch state and its
//!   provisioned-time windows (the fleet-cost integral);
//! * the [`ControlPlane`] owns each arrival's fate: admission
//!   ([`AdmitAll`], [`DeadlineFeasible`], [`PriorityShed`]), routing
//!   ([`RoundRobin`], [`LeastOutstanding`], [`PrefixAffinity`],
//!   [`DeadlineAware`]), and — with a [`MigrationConfig`] — whether a
//!   saturated prefix group's COW pages should *move* to an underloaded
//!   replica instead of queueing or re-prefilling (this driver executes
//!   the copy: both page ledgers charged, the transfer priced at link
//!   bandwidth, the destination's scheduler warmed so later group members
//!   alias the moved pages);
//! * an optional [`AutoscaleConfig`] polls an [`AutoscalePolicy`] on a
//!   fixed cadence and closes the gap to its target through the *fault
//!   machinery* — scale-down injects a `Drain` fault, scale-up a `Restart`
//!   fault — so autoscaled lifecycles are exactly fault-plan lifecycles;
//! * [`Cluster::serve_paged`] replays the workload in arrival order and
//!   hands the end-of-run state to [`crate::report`] for aggregation into
//!   a [`ClusterReport`].
//!
//! A 1-replica cluster performs exactly the ticks
//! [`ServingEngine::run_workload_paged_with`] performs, so its numbers are
//! bit-identical to the single-engine report; a static fleet under the
//! extracted control plane replays the inline PR-8 driver decision for
//! decision — the invariants that pin this layer to the golden-snapshot
//! CSVs.

use crate::engine::{EngineUnavailable, ServingEngine, SpeedProfile, TickScratch};
use crate::event::EventQueue;
use crate::fault::{Fault, FaultKind, FaultPlan, Lifecycle};
use crate::host_tier::HOST_TIER_PAGES_PER_DEVICE_PAGE;
use crate::report::{aggregate, MigrationTotals, ReplicaSlice};
use crate::request::{Request, WorkloadSpec};
use crate::scheduler::{
    KvBudget, PageBudget, PreemptionMode, Reservation, SchedOptions, Scheduler, SchedulingPolicy,
};

pub use crate::control::{
    Admission, AdmissionPolicy, AdmitAll, AutoscaleConfig, AutoscalePolicy, ControlPlane,
    DeadlineAware, DeadlineFeasible, LeastOutstanding, MigrationConfig, Placement, PrefixAffinity,
    PriorityShed, QueuePressureScaler, ReplicaView, RoundRobin, RoutingPolicy,
};
pub use crate::report::{ClusterReport, ReplicaReport};

// ---------------------------------------------------------------------------
// Replicas
// ---------------------------------------------------------------------------

/// What the cluster's event queue is waiting on. Purely descriptive — every
/// event advances its lane the same way (arrivals run a control-plane
/// decision; replica events run one tick) — but naming the *reason* a
/// replica re-arms keeps traces and the queue's ordering contract legible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Lane 0: the next request reaches the front door.
    Arrival,
    /// A replica's next tick retires or decodes resident requests. Carries
    /// the replica's lifecycle epoch at arming time: a crash or restart
    /// bumps the epoch, so any event armed before it pops as stale and is
    /// dropped instead of ticking a dead incarnation.
    Completion(u64),
    /// A replica's next tick advances a chunked prefill one chunk (same
    /// epoch stamp).
    ChunkBoundary(u64),
    /// Lane `u64::MAX`: a scheduled lifecycle event — index into the run's
    /// fault table (plan faults plus dynamically chained restarts).
    Fault(usize),
    /// Lane `u64::MAX`: the autoscaler's periodic decision point. Injects
    /// `Drain`/`Restart` faults at the decision instant, then re-arms one
    /// interval later (while arrivals remain).
    Autoscale,
}

/// The fault lane sorts after every arrival (lane 0) and replica lane
/// (`i + 1`) at an equal timestamp: a crash at `t` observes the world with
/// that instant's arrival routed and every tick due at `t` taken.
const FAULT_LANE: u64 = u64::MAX;

/// One engine replica: its own scheduler core, page ledger and clock,
/// advanced one tick at a time — the incremental form of
/// [`ServingEngine::run_scheduled_with`]'s loop body. Lifecycle flags
/// (accepting/online/epoch) and the provisioned-time bill live in
/// [`Lifecycle`], shared with the fault layer.
struct Replica {
    engine: ServingEngine,
    speed: SpeedProfile,
    sched: Scheduler,
    budget: PageBudget,
    routed: usize,
    /// Per-replica tick buffers, reused across the replica's whole run.
    scratch: TickScratch,
    /// Accepting/online/epoch state plus the GPU-seconds windows — one
    /// state machine for fault plans and the autoscaler alike.
    life: Lifecycle,
    /// Requests routed here but requeued away by a crash — keeps the
    /// `waiting` arithmetic honest (`routed` is never decremented).
    requeued_away: usize,
}

impl Replica {
    fn done(&self) -> bool {
        self.sched.is_done()
    }

    fn clock(&self) -> f64 {
        self.sched.clock()
    }

    /// Control-plane snapshot. O(1): the outstanding-work figure comes
    /// from the scheduler's incremental counter, so probing every replica
    /// per arrival costs O(replicas), not O(residents).
    fn view(&self, index: usize) -> ReplicaView {
        ReplicaView {
            index,
            clock_s: self.clock(),
            outstanding_tokens: self.sched.outstanding_tokens(),
            // Requests requeued away by a crash never finish here, so they
            // leave the waiting arithmetic with `requeued_away`, not
            // `finished`.
            waiting: self.routed
                - self.requeued_away
                - self.sched.running().len()
                - self.sched.finished().len(),
            running: self.sched.running().len(),
            accepting: self.life.accepting(),
            online: self.life.online(),
            host_used_pages: self.budget.host_used_pages(),
            host_capacity_pages: self.budget.host_capacity_pages(),
            speed: self.speed,
        }
    }

    /// The pre-event-core snapshot: same fields, but the outstanding work
    /// comes from the O(residents) ground-truth scan. Kept for the
    /// step-driven reference driver so its benchmarked cost profile stays
    /// the one the event core actually replaced.
    fn view_scan(&self, index: usize) -> ReplicaView {
        ReplicaView {
            outstanding_tokens: self.sched.outstanding_tokens_scan(),
            ..self.view(index)
        }
    }

    fn submit(&mut self, req: Request) {
        self.routed += 1;
        self.sched.submit(req);
    }

    /// One scheduling tick — [`ServingEngine::scheduler_tick`], the same
    /// loop body `run_scheduled_with` drives, so a lone replica replays the
    /// single-engine run exactly by construction. Allocates its scratch per
    /// tick; the step-driven reference keeps this cost profile.
    fn tick(&mut self) {
        self.engine.scheduler_tick(&mut self.sched, &mut self.budget);
    }

    /// [`Replica::tick`] with the replica-owned scratch buffers — identical
    /// arithmetic, zero per-tick allocation; the event core's hot path.
    fn tick_scratch(&mut self) {
        self.engine
            .scheduler_tick_scratch(&mut self.sched, &mut self.budget, &mut self.scratch);
    }

    /// Replays this replica's slice of the event loop up to `barrier`: tick
    /// after tick while the event the queue *would* re-arm — `(clock, lane)`
    /// under the queue's `(time bits, lane)` order, with `-0.0` normalized
    /// the way [`EventQueue::push`] does — still precedes the barrier key.
    /// Exactly the ticks the sequential loop would pop before reaching the
    /// barrier event, because between them this replica's events outrank
    /// everything else in the queue and touch only replica-local state.
    /// A replica that drains mid-window closes its provisioned-time bill at
    /// its own clock, as the sequential arm does; upgrade completions never
    /// reach here (windows are disabled for plans containing upgrades).
    fn advance_to_barrier(&mut self, lane: u64, barrier: Option<(f64, u64)>) {
        loop {
            self.tick_scratch();
            if self.done() {
                let idle_at = self.clock();
                self.life.release_idle(idle_at);
                return;
            }
            let Some((bt, bl)) = barrier else { continue };
            let bits = self.clock().to_bits();
            // −0.0 has the sign bit set; fold it onto +0.0 so the integer
            // comparison agrees with the queue's normalized push order.
            let tb = if bits == 1u64 << 63 { 0 } else { bits };
            if (tb, lane) >= (bt.to_bits(), bl) {
                return;
            }
        }
    }

    /// What this replica's next tick will do — the event kind it re-arms
    /// the queue with: a chunk boundary while any resident prefill is
    /// mid-chunking, otherwise a completion step.
    fn next_event(&self) -> Event {
        if self.sched.options().chunk_tokens.is_some()
            && self.sched.running().iter().any(|r| r.prefill_remaining() > 0)
        {
            Event::ChunkBoundary(self.life.epoch())
        } else {
            Event::Completion(self.life.epoch())
        }
    }

    /// End-of-run borrow for [`crate::report::aggregate`].
    fn slice(&self) -> ReplicaSlice<'_> {
        ReplicaSlice {
            sched: &self.sched,
            gpu: self.speed.gpu,
            kv_page_bytes: self.engine.kv_page_bytes(),
            routed: self.routed,
            requeued_away: self.requeued_away,
            restarts: self.life.restarts(),
            peak_pages: self.budget.peak_pages(),
            provisioned_s: self.life.provisioned_s(),
            provisioned_open_since: self.life.provisioned_open_since(),
        }
    }
}

// ---------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------

/// N independent engine replicas behind a [`ControlPlane`]. Each replica
/// carries its *own* [`ServingEngine`] — its own GPU spec, TP plan,
/// page-pool sizing and prefill/decode cost model — so a fleet may mix
/// hardware (e.g. A100 and L40S replicas).
pub struct Cluster {
    engines: Vec<ServingEngine>,
    control: ControlPlane,
    autoscale: Option<AutoscaleConfig>,
    /// Private worker pool for intra-run replica parallelism; `None` uses
    /// the process-global pool (sized by `QSERVE_THREADS`). Tests that
    /// compare thread counts in one process set this per cluster.
    pool: Option<qserve_tensor::pool::Pool>,
}

impl Cluster {
    /// A homogeneous cluster: `replicas` copies of `engine` routed by
    /// `policy`, admitting everything.
    ///
    /// # Panics
    /// Panics if `replicas` is zero.
    pub fn new(engine: ServingEngine, replicas: usize, policy: Box<dyn RoutingPolicy>) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        Self::heterogeneous(vec![engine; replicas], policy)
    }

    /// A heterogeneous fleet: one engine per replica, in fleet order, each
    /// with its own spec-derived cost model and page pool. Admits
    /// everything until [`Cluster::with_admission`] installs a policy.
    ///
    /// # Panics
    /// Panics if `engines` is empty.
    pub fn heterogeneous(engines: Vec<ServingEngine>, policy: Box<dyn RoutingPolicy>) -> Self {
        assert!(!engines.is_empty(), "a cluster needs at least one replica");
        Self {
            engines,
            control: ControlPlane::new(policy, Box::new(AdmitAll)),
            autoscale: None,
            pool: None,
        }
    }

    /// Overrides the worker pool driving intra-run replica parallelism
    /// (builder-style). The default is the process-global pool, sized by
    /// `QSERVE_THREADS` or the machine's available parallelism;
    /// `threads == 1` forces fully sequential event handling. Every thread
    /// count produces the same bit-identical report — this knob trades
    /// wall-clock only.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Some(qserve_tensor::pool::Pool::new(threads));
        self
    }

    /// Installs an admission policy (builder-style); [`AdmitAll`] before.
    pub fn with_admission(mut self, admission: Box<dyn AdmissionPolicy>) -> Self {
        self.control.set_admission(admission);
        self
    }

    /// Enables control-plane prefix migration (builder-style): a saturated
    /// group's pin moves to an underloaded replica and — when
    /// `migration.migrate_pages` — its COW prefix pages are copied there
    /// over `migration.link`.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.control.set_migration(Some(migration));
        self
    }

    /// Installs an elastic autoscaler (builder-style). Replicas
    /// `autoscale.initial_online..` start as standbys — online but not
    /// accepting, billing no GPU-seconds until the scaler wakes them.
    ///
    /// # Panics
    /// Panics if the initial online count is zero or exceeds the fleet, or
    /// if the decision interval is not positive.
    pub fn with_autoscaler(mut self, autoscale: AutoscaleConfig) -> Self {
        assert!(
            autoscale.initial_online >= 1 && autoscale.initial_online <= self.engines.len(),
            "initial online count {} outside 1..={}",
            autoscale.initial_online,
            self.engines.len()
        );
        assert!(autoscale.interval_s > 0.0, "autoscale interval must be positive");
        self.autoscale = Some(autoscale);
        self
    }

    /// The routing policy's report name.
    pub fn routing_name(&self) -> &'static str {
        self.control.routing_name()
    }

    /// The admission policy's report name.
    pub fn admission_name(&self) -> &'static str {
        self.control.admission_name()
    }

    /// Builds one fresh replica per engine, each sized by *its own*
    /// [`ServingEngine::paged_budget`] — shared by the event-driven driver
    /// and the step-driven reference so both serve the same fleet.
    /// Replicas past the autoscaler's initial online count start as
    /// standbys.
    fn build_replicas(
        &self,
        spec: &WorkloadSpec,
        mk_policy: &impl Fn() -> Box<dyn SchedulingPolicy>,
        reservation: Reservation,
        opts: SchedOptions,
    ) -> Result<Vec<Replica>, EngineUnavailable> {
        let initial_online =
            self.autoscale.as_ref().map_or(self.engines.len(), |a| a.initial_online);
        self.engines
            .iter()
            .enumerate()
            .map(|(i, engine)| -> Result<Replica, EngineUnavailable> {
                let (mut budget, batch_limit) = engine.paged_budget(spec, reservation)?;
                if opts.preemption == PreemptionMode::Swap {
                    budget.enable_host_tier(HOST_TIER_PAGES_PER_DEVICE_PAGE * budget.total_pages());
                }
                Ok(Replica {
                    engine: engine.clone(),
                    speed: engine.speed_profile(),
                    sched: Scheduler::open(batch_limit, mk_policy(), opts),
                    budget,
                    routed: 0,
                    scratch: TickScratch::default(),
                    life: Lifecycle::fresh(i < initial_online),
                    requeued_away: 0,
                })
            })
            .collect()
    }

    /// The workload trace in front-door order: sorted by `(arrival_s, id)`.
    fn sorted_trace(spec: &WorkloadSpec) -> Vec<Request> {
        let mut requests = spec.sample();
        requests.sort_by(|a, b| {
            a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id))
        });
        requests
    }

    /// Serves `spec` across the cluster with paged admission on every
    /// replica — the **event-driven core**. One deterministic
    /// [`EventQueue`] (keyed `(time.to_bits(), lane, seq)`; lane 0 is the
    /// front-door arrival stream, lane `i + 1` is replica `i`) holds at
    /// most one entry per busy replica plus the next arrival, and the run
    /// is a single pop loop:
    ///
    /// * **next-arrival** — the control plane sees an O(1)-per-replica
    ///   snapshot as of the arrival instant and decides shed / route /
    ///   migrate-then-route; the owning replica is armed at its clock (if
    ///   it was drained);
    /// * **next-completion** / **next-chunk-boundary** — the replica runs
    ///   exactly one scheduling tick (scratch-reusing, allocation-free) and
    ///   is re-armed at its advanced clock until it drains.
    ///
    /// Because the heap pops `(time, lane)` in the same order the retired
    /// step driver's min-clock scans selected (arrivals win time-ties, then
    /// replicas by index), every replica performs the identical tick
    /// sequence — bit-identical reports — at O(log replicas) per event
    /// instead of O(replicas) per step and O(residents) per load probe.
    ///
    /// # Errors
    /// [`EngineUnavailable::OutOfMemory`] when a worst-case request exceeds
    /// some replica's page pool.
    ///
    /// # Panics
    /// Panics if the routing policy returns an out-of-range replica index.
    pub fn serve_paged(
        &mut self,
        spec: &WorkloadSpec,
        mk_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
        reservation: Reservation,
        opts: SchedOptions,
    ) -> Result<ClusterReport, EngineUnavailable> {
        self.serve_paged_faulty(spec, mk_policy, reservation, opts, &FaultPlan::none())
    }

    /// Hands `req` to replica `choice`, arming its event lane if it was
    /// drained (a drained replica had no queue entry; it re-enters at its
    /// current clock — its first tick idles it forward to the new
    /// request's arrival if needed).
    fn deliver(reps: &mut [Replica], choice: usize, req: Request, queue: &mut EventQueue<Event>) {
        let was_drained = reps[choice].done();
        reps[choice].submit(req);
        if was_drained {
            queue.push(reps[choice].clock(), choice as u64 + 1, reps[choice].next_event());
        }
    }

    /// Routes one already-admitted request (a crash victim, or a parked
    /// request delivered at a restart) through the control plane's
    /// requeue path (admission bypassed — the request was admitted once
    /// and the cluster owes it a finish). Returns the request back when
    /// *no* replica accepts work (the caller parks it until a restart).
    fn route_requeued(
        control: &mut ControlPlane,
        reps: &mut [Replica],
        views: &mut Vec<ReplicaView>,
        queue: &mut EventQueue<Event>,
        req: Request,
    ) -> Option<Request> {
        views.clear();
        views.extend(reps.iter().enumerate().map(|(i, r)| r.view(i)));
        let Some(choice) = control.place_requeued(&req, views) else {
            return Some(req);
        };
        assert!(
            choice < reps.len(),
            "routing policy '{}' picked replica {} of {}",
            control.routing_name(),
            choice,
            reps.len()
        );
        Self::deliver(reps, choice, req, queue);
        None
    }

    /// A replica that drained with an upgrade pending goes offline for its
    /// downtime: bump the epoch (stale events drop) and chain a restart
    /// fault at `clock + downtime` on the fault lane.
    fn begin_upgrade_downtime(
        rep: &mut Replica,
        replica: usize,
        faults: &mut Vec<Fault>,
        queue: &mut EventQueue<Event>,
    ) {
        let (downtime_s, _) =
            rep.life.pending_upgrade().expect("upgrade downtime without a pending upgrade");
        let restart_at = rep.clock() + downtime_s;
        rep.life.go_offline(rep.clock());
        faults.push(Fault { at_s: restart_at, replica, kind: FaultKind::Restart });
        queue.push(restart_at, FAULT_LANE, Event::Fault(faults.len() - 1));
    }

    /// Executes a [`Placement::Migrate`]: copies prefix group `group`'s
    /// COW pages from `from` to `to`, charging the destination's page
    /// ledger for the copy (the source keeps its pages — its residents are
    /// still decoding against them), anchoring the imported pool so it
    /// survives until members arrive, warming the destination scheduler so
    /// those members alias the moved prefix instead of re-prefilling, and
    /// pricing the transfer into the destination's clock at link
    /// bandwidth. A destination that already holds the pool, or lacks the
    /// free pages, declines the copy — the request still routes there (the
    /// pin moved), it just rebuilds the prefix the slow way.
    fn migrate_group(
        reps: &mut [Replica],
        group: u64,
        from: usize,
        to: usize,
        link: qserve_gpusim::HostLink,
        now: f64,
        totals: &mut MigrationTotals,
    ) {
        let Some(pages_per_layer) = reps[from].budget.pool_pages_per_layer(group) else {
            // The source pool already drained (its last member finished
            // between the saturation estimate and now): nothing to copy.
            return;
        };
        let Some(pages) = reps[to].budget.import_pool(group, pages_per_layer) else {
            return;
        };
        let warm_tokens = pages_per_layer * reps[to].budget.page_tokens();
        reps[to].sched.install_warm_prefix(group, warm_tokens);
        let bytes =
            u64::try_from(pages).expect("page count fits u64") * reps[to].engine.kv_page_bytes();
        // The copy lands as of the arrival instant and occupies the
        // destination for the transfer time — identical cost shape to a
        // swap, but across the replica fabric.
        reps[to].sched.advance_clock_to(now);
        reps[to].sched.charge_migration(link.transfer_latency(bytes as f64));
        totals.migrations += 1;
        totals.pages += pages;
        totals.bytes += bytes;
    }

    /// [`Cluster::serve_paged`] with a deterministic lifecycle [`FaultPlan`]
    /// injected as a third event lane (`u64::MAX`, so at equal timestamps a
    /// fault fires *after* the arrival and every replica tick at that
    /// instant — replicas observe the world as of the fault time first):
    ///
    /// * **crash** — the replica's KV pool dies: every resident request
    ///   loses its pages (and its prefill progress — accounted as
    ///   `lost_prefill_tokens`) and is requeued through the control plane
    ///   to the surviving replicas with `ready_s` re-stamped to the crash
    ///   instant. The replica goes offline and non-accepting; its epoch
    ///   bump drops any in-flight queue event.
    /// * **drain** — admission-only: the replica stops accepting, residents
    ///   finish normally (what an operator does before maintenance).
    /// * **restart** — a drained replica re-opens; a crashed or upgrading
    ///   replica comes back online with a clean pool, its clock advanced to
    ///   the restart instant. Requests parked while *no* replica accepted
    ///   are delivered here.
    /// * **upgrade** — drain, wait for residents, sit out `downtime_s`,
    ///   restart; when `rolling`, the restart chains the same upgrade to
    ///   the next replica, so exactly one replica is down at a time.
    ///
    /// The autoscaler (when installed) shares this machinery wholesale: its
    /// periodic decision event appends `Drain`/`Restart` faults to the same
    /// table and the same handlers execute them — scale-down *is* a drain,
    /// scale-up *is* a restart, so elastic lifecycles cannot diverge from
    /// fault-injection semantics.
    ///
    /// Arrivals while no replica accepts are shed (tier-accounted like any
    /// admission shed); requeued work is parked instead — it was admitted
    /// once, so it waits for the next restart rather than being dropped,
    /// and only a run that *ends* with no restart sheds it.
    ///
    /// With [`FaultPlan::none`] the fault lane is empty, every epoch stays
    /// 0, every replica accepts throughout — the run is bit-identical to
    /// the fault-free driver by construction.
    ///
    /// # Errors
    /// [`EngineUnavailable::OutOfMemory`] when a worst-case request exceeds
    /// some replica's page pool.
    ///
    /// # Panics
    /// Panics if the routing policy returns an out-of-range replica index,
    /// if the plan targets a replica the fleet doesn't have, or if a crash
    /// or the end-of-run audit leaves a page ledger inconsistent.
    pub fn serve_paged_faulty(
        &mut self,
        spec: &WorkloadSpec,
        mk_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
        reservation: Reservation,
        opts: SchedOptions,
        plan: &FaultPlan,
    ) -> Result<ClusterReport, EngineUnavailable> {
        // Fresh replicas get a fresh control plane: no pins, cursors or
        // pressure state from a previous serve may leak in.
        self.control.reset();
        if let Some(auto) = &mut self.autoscale {
            auto.policy.reset();
        }
        let mut reps = self.build_replicas(spec, &mk_policy, reservation, opts)?;
        let mut shed: Vec<Request> = Vec::new();
        // Admitted-then-crashed requests with nowhere to go (no replica
        // accepting): they wait for a restart instead of being shed.
        let mut parked: Vec<Request> = Vec::new();
        let mut requeued = 0usize;
        let mut lost_prefill = 0usize;
        let mut migration_totals = MigrationTotals::default();

        const ARRIVAL_LANE: u64 = 0;
        let mut queue: EventQueue<Event> = EventQueue::new();
        // The runtime fault table: plan faults up front, chained restarts,
        // rolling-upgrade hops and autoscaler decisions appended as the
        // run discovers them.
        let mut faults: Vec<Fault> = plan.faults().to_vec();
        for (idx, f) in faults.iter().enumerate() {
            assert!(
                f.replica < reps.len(),
                "fault plan targets replica {} of a {}-replica fleet",
                f.replica,
                reps.len()
            );
            queue.push(f.at_s, FAULT_LANE, Event::Fault(idx));
        }
        if let Some(auto) = &self.autoscale {
            queue.push(auto.interval_s, FAULT_LANE, Event::Autoscale);
        }
        let mut arrivals = Self::sorted_trace(spec).into_iter();
        let mut next_arrival = arrivals.next();
        if let Some(r) = &next_arrival {
            queue.push(r.arrival_s, ARRIVAL_LANE, Event::Arrival);
        }
        // One views buffer reused across every arrival decision.
        let mut views: Vec<ReplicaView> = Vec::with_capacity(reps.len());
        // Intra-run replica parallelism: consecutive fresh replica-lane
        // events form a *window* bounded by the next arrival/fault/autoscale
        // key (or a second event on a lane already windowed). Replicas in a
        // window touch only replica-local state until the barrier, so they
        // advance concurrently and merge back bit-identically. Upgrade
        // completions are the one replica-tick outcome that mutates shared
        // state (`begin_upgrade_downtime` appends faults mid-arm), and the
        // only sources of new `Upgrade` entries at runtime are rolling
        // chains of *planned* upgrades — the autoscaler injects only
        // `Drain`/`Restart` — so a plan-level scan is a sound gate.
        let pool = match &self.pool {
            Some(p) => p,
            None => qserve_tensor::pool::global(),
        };
        let windows_enabled = pool.threads() > 1
            && !plan
                .faults()
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Upgrade { .. }));
        let mut window: Vec<usize> = Vec::with_capacity(reps.len());
        let mut sorted_window: Vec<usize> = Vec::with_capacity(reps.len());
        while let Some((now, lane, kind)) = queue.pop() {
            match kind {
                Event::Arrival => {
                    let req = next_arrival.take().expect("arrival event without a request");
                    views.clear();
                    views.extend(reps.iter().enumerate().map(|(i, r)| r.view(i)));
                    match self.control.place(&req, &views) {
                        Placement::Shed => shed.push(req),
                        Placement::Route(choice) => {
                            assert!(
                                choice < reps.len(),
                                "routing policy '{}' picked replica {} of {}",
                                self.control.routing_name(),
                                choice,
                                reps.len()
                            );
                            Self::deliver(&mut reps, choice, req, &mut queue);
                        }
                        Placement::Migrate { group, from, to } => {
                            assert!(
                                to < reps.len() && from < reps.len(),
                                "control plane migrated group {group} between replicas {from}→{to} of {}",
                                reps.len()
                            );
                            let link = self
                                .control
                                .migration()
                                .expect("migrate placement without a migration config")
                                .link;
                            Self::migrate_group(
                                &mut reps,
                                group,
                                from,
                                to,
                                link,
                                now,
                                &mut migration_totals,
                            );
                            Self::deliver(&mut reps, to, req, &mut queue);
                        }
                    }
                    next_arrival = arrivals.next();
                    if let Some(r) = &next_arrival {
                        queue.push(r.arrival_s, ARRIVAL_LANE, Event::Arrival);
                    }
                }
                Event::Completion(epoch) | Event::ChunkBoundary(epoch) => {
                    // lint: allow(raw-cast) -- lane = replica index + 1 by construction, so the u64 → usize round trip is exact
                    let i = (lane - 1) as usize;
                    if epoch != reps[i].life.epoch() {
                        // Armed by a previous incarnation; the crash or
                        // restart that bumped the epoch already decided
                        // this replica's future.
                        continue;
                    }
                    if windows_enabled {
                        window.clear();
                        window.push(i);
                        // Widen: pull every queue head that is a *fresh*
                        // replica event on a lane not yet in the window.
                        // Stale-epoch heads drop here exactly as the check
                        // above would drop them; a head on a windowed lane
                        // stops the scan (it could depend on this window's
                        // outcome), as does any arrival/fault/autoscale key.
                        loop {
                            let Some((_, l2)) = queue.peek() else { break };
                            if l2 == ARRIVAL_LANE || l2 == FAULT_LANE {
                                break;
                            }
                            // lint: allow(raw-cast) -- replica lane, exact as above
                            let j = (l2 - 1) as usize;
                            if window.contains(&j) {
                                break;
                            }
                            let Some((_, _, k2)) = queue.pop() else { break };
                            let fresh = match k2 {
                                Event::Completion(e2) | Event::ChunkBoundary(e2) => {
                                    e2 == reps[j].life.epoch()
                                }
                                _ => unreachable!("non-replica event on replica lane {l2}"),
                            };
                            if fresh {
                                window.push(j);
                            }
                        }
                        if window.len() > 1 {
                            let barrier = queue.peek();
                            sorted_window.clear();
                            sorted_window.extend_from_slice(&window);
                            sorted_window.sort_unstable();
                            // Carve disjoint `&mut Replica`s out of the
                            // fleet (ascending order makes each split valid)
                            // and advance them concurrently to the barrier.
                            let mut lanes: Vec<(u64, &mut Replica)> =
                                Vec::with_capacity(sorted_window.len());
                            let mut tail = reps.as_mut_slice();
                            let mut base = 0usize;
                            for &j in &sorted_window {
                                let (_, rest) = tail.split_at_mut(j - base);
                                let (one, rest) = rest.split_at_mut(1);
                                lanes.push((j as u64 + 1, &mut one[0]));
                                tail = rest;
                                base = j + 1;
                            }
                            pool.par_map_mut(&mut lanes, |_, (l, rep)| {
                                rep.advance_to_barrier(*l, barrier);
                            });
                            // Sequential merge: one re-arm per still-busy
                            // replica. Lanes are distinct, so push order
                            // (and thus `seq`) cannot affect pop order.
                            for &j in &window {
                                if !reps[j].done() {
                                    queue.push(
                                        reps[j].clock(),
                                        j as u64 + 1,
                                        reps[j].next_event(),
                                    );
                                }
                            }
                            continue;
                        }
                        // Singleton window: the sequential arm below is
                        // already the exact replay.
                    }
                    reps[i].tick_scratch();
                    if reps[i].done() {
                        if reps[i].life.pending_upgrade().is_some() {
                            // Last resident finished under a pending
                            // upgrade: the downtime starts now.
                            Self::begin_upgrade_downtime(
                                &mut reps[i],
                                i,
                                &mut faults,
                                &mut queue,
                            );
                        } else {
                            // A drained (non-accepting) replica going idle
                            // leaves the fleet bill; accepting replicas
                            // stay provisioned (no-op).
                            let idle_at = reps[i].clock();
                            reps[i].life.release_idle(idle_at);
                        }
                    } else {
                        queue.push(reps[i].clock(), lane, reps[i].next_event());
                    }
                }
                Event::Fault(idx) => {
                    let Fault { replica, kind, .. } = faults[idx];
                    match kind {
                        FaultKind::Crash => {
                            let victims = {
                                let rep = &mut reps[replica];
                                if rep.life.crash(now) {
                                    let (victims, lost) =
                                        rep.sched.evict_all(&mut rep.budget);
                                    // Anchored (migrated-in) pools die with
                                    // the replica: release the control
                                    // plane's refs, then audit that every
                                    // page the crash destroyed was
                                    // released, none minted.
                                    rep.budget.release_anchors();
                                    rep.budget.assert_consistent();
                                    assert_eq!(
                                        rep.budget.free_pages(),
                                        rep.budget.total_pages(),
                                        "crash left pages allocated on replica {replica}"
                                    );
                                    lost_prefill += lost;
                                    rep.requeued_away += victims.len();
                                    victims
                                } else {
                                    Vec::new()
                                }
                            };
                            for mut req in victims {
                                // Requeued work becomes eligible at the
                                // crash instant; TTFT/latency still run
                                // from the original arrival.
                                req.ready_s = now;
                                req.requeues += 1;
                                requeued += 1;
                                if let Some(back) = Self::route_requeued(
                                    &mut self.control,
                                    &mut reps,
                                    &mut views,
                                    &mut queue,
                                    req,
                                ) {
                                    parked.push(back);
                                }
                            }
                        }
                        FaultKind::Drain => {
                            let rep = &mut reps[replica];
                            rep.life.drain();
                            if rep.done() {
                                // Already idle: the bill closes at the
                                // drain instant, not at some stale clock.
                                rep.life.release_idle(now);
                            }
                        }
                        FaultKind::Restart => {
                            let chained = {
                                let rep = &mut reps[replica];
                                if !rep.life.online() {
                                    // A crashed/upgrading replica comes
                                    // back with its clock at the restart
                                    // instant (an online drained replica
                                    // re-opens admission only).
                                    rep.sched.advance_clock_to(now);
                                }
                                rep.life.restart(now)
                            };
                            if let Some((downtime_s, true)) = chained {
                                if replica + 1 < reps.len() {
                                    // Rolling: this replica is back, the
                                    // next one starts its upgrade now.
                                    faults.push(Fault {
                                        at_s: now,
                                        replica: replica + 1,
                                        kind: FaultKind::Upgrade { downtime_s, rolling: true },
                                    });
                                    queue.push(now, FAULT_LANE, Event::Fault(faults.len() - 1));
                                }
                            }
                            // A replica accepts again: deliver parked work.
                            for req in std::mem::take(&mut parked) {
                                if let Some(back) = Self::route_requeued(
                                    &mut self.control,
                                    &mut reps,
                                    &mut views,
                                    &mut queue,
                                    req,
                                ) {
                                    parked.push(back);
                                }
                            }
                        }
                        FaultKind::Upgrade { downtime_s, rolling } => {
                            let rep = &mut reps[replica];
                            if rep.life.online() {
                                rep.life.begin_upgrade(downtime_s, rolling);
                                if rep.done() {
                                    // Already idle: the downtime starts at
                                    // the fault instant, not the stale
                                    // clock of its last tick.
                                    rep.sched.advance_clock_to(now);
                                    Self::begin_upgrade_downtime(
                                        &mut reps[replica],
                                        replica,
                                        &mut faults,
                                        &mut queue,
                                    );
                                }
                            } else if rolling && replica + 1 < reps.len() {
                                // A dead replica can't upgrade; pass the
                                // wave along so the fleet still finishes.
                                faults.push(Fault {
                                    at_s: now,
                                    replica: replica + 1,
                                    kind: FaultKind::Upgrade { downtime_s, rolling },
                                });
                                queue.push(now, FAULT_LANE, Event::Fault(faults.len() - 1));
                            }
                        }
                    }
                }
                Event::Autoscale => {
                    // The scaler acts (and re-arms) only while traffic
                    // still arrives; after the last arrival the fleet
                    // drains naturally and the run can end.
                    if next_arrival.is_none() {
                        continue;
                    }
                    let auto =
                        self.autoscale.as_mut().expect("autoscale event without a config");
                    views.clear();
                    views.extend(reps.iter().enumerate().map(|(i, r)| r.view(i)));
                    let accepting = views.iter().filter(|v| v.accepting).count();
                    let target =
                        auto.policy.target_online(now, &views).clamp(1, reps.len());
                    if target > accepting {
                        // Wake standbys (and drained/crashed replicas),
                        // lowest index first, through Restart faults — the
                        // exact path a fault-plan restart takes. Replicas
                        // mid-upgrade keep their pending downtime.
                        let mut need = target - accepting;
                        for (i, rep) in reps.iter().enumerate() {
                            if need == 0 {
                                break;
                            }
                            if !rep.life.accepting() && rep.life.pending_upgrade().is_none() {
                                faults.push(Fault {
                                    at_s: now,
                                    replica: i,
                                    kind: FaultKind::Restart,
                                });
                                queue.push(now, FAULT_LANE, Event::Fault(faults.len() - 1));
                                need -= 1;
                            }
                        }
                    } else if target < accepting {
                        // Drain the highest-index accepting replicas —
                        // scale-down *is* the drain fault.
                        let mut excess = accepting - target;
                        for (i, rep) in reps.iter().enumerate().rev() {
                            if excess == 0 {
                                break;
                            }
                            if rep.life.accepting() {
                                faults.push(Fault {
                                    at_s: now,
                                    replica: i,
                                    kind: FaultKind::Drain,
                                });
                                queue.push(now, FAULT_LANE, Event::Fault(faults.len() - 1));
                                excess -= 1;
                            }
                        }
                    }
                    queue.push(now + auto.interval_s, FAULT_LANE, Event::Autoscale);
                }
            }
        }
        // A run that ends with work still parked had no restart to deliver
        // it to: those requests are shed, keeping the workload partition
        // (finished ∪ shed) exact.
        shed.append(&mut parked);
        // End-of-run ledger audit: migration charged pages on two ledgers,
        // the autoscaler opened and closed replicas — every budget must
        // still balance from first principles.
        for rep in &reps {
            rep.budget.assert_consistent();
        }
        let slices: Vec<ReplicaSlice<'_>> = reps.iter().map(Replica::slice).collect();
        Ok(aggregate(
            self.control.routing_name(),
            self.control.admission_name(),
            &slices,
            &shed,
            requeued,
            lost_prefill,
            migration_totals,
        ))
    }

    /// The retired step-driven driver, kept verbatim as the equivalence
    /// oracle for the event core (`props!` tests) and the baseline arm of
    /// the `event_core` wall-clock benchmark. Its cost profile is the one
    /// the event core replaced: an O(replicas) min-clock scan per step, an
    /// O(residents) outstanding-work scan per replica per arrival, and a
    /// freshly allocated snapshot/scratch set per decision. Not part of the
    /// serving API.
    ///
    /// # Panics
    /// Panics if the control plane asks for a migration — the step driver
    /// exists to pin *static* configurations bit-for-bit and models no
    /// page movement.
    #[doc(hidden)]
    pub fn serve_paged_step_reference(
        &mut self,
        spec: &WorkloadSpec,
        mk_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
        reservation: Reservation,
        opts: SchedOptions,
    ) -> Result<ClusterReport, EngineUnavailable> {
        /// Index of the lowest-clock replica that still has work and whose
        /// clock is strictly below `horizon` (ties to the lowest index) —
        /// the linear scan the event queue's ordering subsumes.
        fn laggard(reps: &[Replica], horizon: f64) -> Option<usize> {
            let mut best: Option<usize> = None;
            for (i, r) in reps.iter().enumerate() {
                if r.done() || r.clock() >= horizon {
                    continue;
                }
                if best.is_none_or(|b| r.clock() < reps[b].clock()) {
                    best = Some(i);
                }
            }
            best
        }

        self.control.reset();
        let mut reps = self.build_replicas(spec, &mk_policy, reservation, opts)?;
        let mut shed: Vec<Request> = Vec::new();
        for req in Self::sorted_trace(spec) {
            // Advance every replica that still has work and lags this
            // arrival (lowest clock first, ties to the lowest index), so
            // the decision observes each replica as of the arrival instant.
            while let Some(i) = laggard(&reps, req.arrival_s) {
                reps[i].tick();
            }
            let views: Vec<ReplicaView> =
                reps.iter().enumerate().map(|(i, r)| r.view_scan(i)).collect();
            match self.control.place(&req, &views) {
                Placement::Shed => shed.push(req),
                Placement::Route(choice) => {
                    assert!(
                        choice < reps.len(),
                        "routing policy '{}' picked replica {} of {}",
                        self.control.routing_name(),
                        choice,
                        reps.len()
                    );
                    reps[choice].submit(req);
                }
                Placement::Migrate { .. } => {
                    panic!("the step reference models no page migration")
                }
            }
        }
        // Drain: keep ticking the furthest-behind replica until all finish.
        while let Some(i) = laggard(&reps, f64::INFINITY) {
            reps[i].tick();
        }
        let slices: Vec<ReplicaSlice<'_>> = reps.iter().map(Replica::slice).collect();
        Ok(aggregate(
            self.control.routing_name(),
            self.control.admission_name(),
            &slices,
            &shed,
            0,
            0,
            MigrationTotals::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::SystemConfig;
    use crate::request::{ArrivalPattern, PrefixSharing, Slo, SloSpec};
    use crate::scheduler::{Fcfs, MemoryAware};
    use qserve_gpusim::{GpuSpec, HostLink, TpGroup};
    use qserve_model::ModelConfig;

    fn engine() -> ServingEngine {
        ServingEngine::new(
            GpuSpec::a100(),
            ModelConfig::llama2_7b(),
            SystemConfig::QServePerChannel,
        )
        .expect("A100 serves Llama-2-7B")
    }

    fn shared_spec() -> WorkloadSpec {
        WorkloadSpec::shared_prefix(4, 2048, 48, 71)
    }

    #[test]
    fn one_replica_cluster_bit_identical_to_single_engine() {
        // The pinning invariant: a 1-replica TP=1 cluster performs exactly
        // the single-engine ticks, so every shared report field matches bit
        // for bit.
        let e = engine();
        for (spec, opts) in [
            (WorkloadSpec::mixed(32, 23), SchedOptions::default()),
            (
                shared_spec(),
                SchedOptions { share_prefixes: true, chunk_tokens: Some(512), ..SchedOptions::default() },
            ),
        ] {
            let single = e
                .run_workload_paged_with(
                    &spec,
                    Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    opts,
                )
                .expect("serves");
            let mut cluster = Cluster::new(e.clone(), 1, Box::new(RoundRobin::default()));
            let report = cluster
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    opts,
                )
                .expect("serves");
            assert!(
                report.matches_single_engine(&single),
                "cluster {:?} drifted from single-engine {:?}",
                report,
                single
            );
        }
    }

    #[test]
    fn one_replica_cluster_matches_single_engine_with_arrivals() {
        let e = engine();
        let spec = WorkloadSpec::chat(24, 5)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 4.0 });
        let single = e
            .run_workload_paged_with(
                &spec,
                Box::new(Fcfs),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        let mut cluster = Cluster::new(e, 1, Box::new(LeastOutstanding));
        let report = cluster
            .serve_paged(
                &spec,
                || Box::new(Fcfs),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        assert!(report.matches_single_engine(&single));
    }

    #[test]
    fn scaling_out_replicas_lifts_throughput() {
        let e = engine();
        let spec = WorkloadSpec::mixed(192, 11);
        let run = |n: usize| {
            Cluster::new(e.clone(), n, Box::new(LeastOutstanding))
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.completed, 192);
        assert_eq!(four.completed, 192);
        assert_eq!(one.generated_tokens, four.generated_tokens);
        assert!(
            four.throughput_tps > one.throughput_tps * 2.0,
            "4 replicas should scale throughput well past 2×: {} vs {}",
            four.throughput_tps,
            one.throughput_tps
        );
        assert!(four.makespan_s < one.makespan_s);
        assert!(four.p99_latency_s < one.p99_latency_s, "queueing delay must shrink");
        // Work actually spread: every replica saw requests.
        assert!(four.per_replica.iter().all(|r| r.routed > 0));
    }

    #[test]
    fn routing_policies_place_every_request_exactly_once() {
        let e = engine();
        let spec = shared_spec();
        let policies: Vec<Box<dyn RoutingPolicy>> = vec![
            Box::new(RoundRobin::default()),
            Box::new(LeastOutstanding),
            Box::new(PrefixAffinity::default()),
            Box::new(DeadlineAware),
        ];
        for policy in policies {
            let name = policy.name();
            let report = Cluster::new(e.clone(), 3, policy)
                .serve_paged(
                    &spec,
                    || Box::new(Fcfs),
                    Reservation::OnDemand,
                    SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
                )
                .expect("serves");
            assert_eq!(report.completed, 48, "{} dropped requests", name);
            assert_eq!(
                report.per_replica.iter().map(|r| r.routed).sum::<usize>(),
                48,
                "{} routed a request twice or not at all",
                name
            );
            for r in &report.per_replica {
                assert_eq!(r.completed, r.routed, "{} lost a routed request", name);
            }
        }
    }

    #[test]
    fn prefix_affinity_pins_groups_and_cuts_peak_pages() {
        // 4 tenants on 4 replicas: affinity stores each system prompt on
        // one replica; round-robin replicates every prompt everywhere. The
        // per-replica unique-page high-water and the TTFT must both win.
        let e = engine();
        let spec = shared_spec();
        let run = |policy: Box<dyn RoutingPolicy>| {
            Cluster::new(e.clone(), 4, policy)
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
                )
                .expect("serves")
        };
        let rr = run(Box::new(RoundRobin::default()));
        let affinity = run(Box::new(PrefixAffinity::default()));
        assert_eq!(rr.completed, 48);
        assert_eq!(affinity.completed, 48);
        assert!(
            affinity.max_replica_peak_pages < rr.max_replica_peak_pages,
            "affinity must dedupe prefixes per replica: {} vs {}",
            affinity.max_replica_peak_pages,
            rr.max_replica_peak_pages
        );
        assert!(
            affinity.mean_ttft_s < rr.mean_ttft_s,
            "affinity must alias more prefixes (lower TTFT): {} vs {}",
            affinity.mean_ttft_s,
            rr.mean_ttft_s
        );
    }

    #[test]
    fn tensor_parallel_replicas_serve_faster_per_replica() {
        // A replica may be a whole TP group: same cluster, beefier engines.
        let spec = WorkloadSpec::mixed(32, 7);
        let run = |e: ServingEngine| {
            Cluster::new(e, 2, Box::new(LeastOutstanding))
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let tp1 = run(engine());
        let tp4 = run(
            ServingEngine::with_tp(
                GpuSpec::a100(),
                ModelConfig::llama2_7b(),
                SystemConfig::QServePerChannel,
                TpGroup::nvlink(4),
            )
            .expect("builds"),
        );
        assert_eq!(tp4.completed, 32);
        assert!(
            tp4.throughput_tps > tp1.throughput_tps,
            "TP=4 replicas {} must outserve TP=1 {}",
            tp4.throughput_tps,
            tp1.throughput_tps
        );
    }

    #[test]
    fn repeated_serves_on_one_cluster_replay_identically() {
        // serve_paged rebuilds replicas per call and resets the control
        // plane, so a second serve on the same Cluster must equal the
        // first (and a fresh Cluster) — no pins or cursor state leak
        // across runs.
        let e = engine();
        let spec = shared_spec();
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let serve = |c: &mut Cluster| {
            c.serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts)
                .expect("serves")
        };
        for policy in [0usize, 1] {
            let mk: Box<dyn Fn() -> Box<dyn RoutingPolicy>> = match policy {
                0 => Box::new(|| Box::new(PrefixAffinity::default()) as Box<dyn RoutingPolicy>),
                _ => Box::new(|| Box::new(RoundRobin::default()) as Box<dyn RoutingPolicy>),
            };
            let mut reused = Cluster::new(e.clone(), 3, mk());
            let first = serve(&mut reused);
            let second = serve(&mut reused);
            assert_eq!(first, second, "state leaked across serves");
            let fresh = serve(&mut Cluster::new(e.clone(), 3, mk()));
            assert_eq!(first, fresh, "reused cluster diverged from a fresh one");
        }
    }

    #[test]
    fn heterogeneous_fleet_serves_and_reports_per_replica_specs() {
        // 1×A100 + 1×L40S: both serve, the report names each replica's GPU,
        // and work-normalized routing sends the A100 more work than the
        // slower L40S.
        let a100 = engine();
        let l40s = ServingEngine::new(
            GpuSpec::l40s(),
            ModelConfig::llama2_7b(),
            SystemConfig::QServePerGroup,
        )
        .expect("L40S serves Llama-2-7B");
        let spec = WorkloadSpec::chat(64, 13);
        let report = Cluster::heterogeneous(
            vec![a100.clone(), l40s.clone()],
            Box::new(LeastOutstanding),
        )
        .serve_paged(
            &spec,
            || Box::new(MemoryAware::default()),
            Reservation::OnDemand,
            SchedOptions::default(),
        )
        .expect("serves");
        assert_eq!(report.completed, 64);
        assert_eq!(report.shed, 0);
        assert_eq!(report.per_replica[0].gpu, "A100-80G-SXM4");
        assert_eq!(report.per_replica[1].gpu, "L40S-48G");
        assert!(
            report.per_replica[0].generated_tokens > report.per_replica[1].generated_tokens,
            "the faster A100 must absorb more work: {} vs {}",
            report.per_replica[0].generated_tokens,
            report.per_replica[1].generated_tokens
        );
        // Utilization is a sane fraction on every replica.
        for r in &report.per_replica {
            assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9, "util {}", r.utilization);
            assert!(r.busy_s <= r.clock_s + 1e-9);
        }
        // No SLOs ⇒ goodput is throughput and attainment is total.
        assert_eq!(report.goodput_tps.to_bits(), report.throughput_tps.to_bits());
        assert_eq!(report.slo_attainment, 1.0);
    }

    #[test]
    fn homogeneous_admit_all_fleet_identical_to_plain_constructor() {
        // The PR-4 pinning invariant, rephrased: Cluster::new is
        // Cluster::heterogeneous with N copies + AdmitAll, bit for bit.
        let e = engine();
        let spec = shared_spec();
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let plain = Cluster::new(e.clone(), 3, Box::new(LeastOutstanding))
            .serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts)
            .expect("serves");
        let hetero = Cluster::heterogeneous(
            vec![e.clone(), e.clone(), e],
            Box::new(LeastOutstanding),
        )
        .with_admission(Box::new(AdmitAll))
        .serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts)
        .expect("serves");
        assert_eq!(plain, hetero);
    }

    #[test]
    fn all_shed_report_is_edge_safe() {
        // An impossible deadline on every request + deadline admission:
        // everything is shed, nothing runs, and the report stays finite.
        let e = engine();
        let spec = WorkloadSpec::chat(12, 3).with_slos(SloSpec::Cycle(vec![
            Slo::interactive(0.0, 0.0),
        ]));
        let report = Cluster::new(e, 2, Box::new(RoundRobin::default()))
            .with_admission(Box::new(DeadlineFeasible))
            .serve_paged(
                &spec,
                || Box::new(Fcfs),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("constructs replicas");
        assert_eq!(report.completed, 0);
        assert_eq!(report.shed, 12);
        assert_eq!(report.shed_ids.len(), 12);
        assert_eq!(report.shed_by_tier, [12, 0, 0]);
        assert_eq!(report.generated_tokens, 0);
        assert_eq!(report.throughput_tps, 0.0);
        assert_eq!(report.goodput_tps, 0.0);
        assert_eq!(report.slo_attainment, 0.0);
        assert_eq!(report.mean_ttft_s, 0.0);
        assert_eq!(report.p50_latency_s, 0.0);
        assert_eq!(report.p99_latency_s, 0.0);
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.gpu_seconds, 0.0);
        for r in &report.per_replica {
            assert_eq!(r.routed, 0);
            assert_eq!(r.utilization, 0.0);
        }
    }

    #[test]
    fn event_core_matches_step_reference_on_fixed_configs() {
        // The event-driven driver must finish the same requests at
        // bit-identical times as the retired step-driven reference — full
        // ClusterReport equality (floats compared via derived PartialEq).
        let e = engine();
        for (spec, opts, replicas) in [
            (WorkloadSpec::mixed(96, 11), SchedOptions::default(), 3),
            (
                WorkloadSpec::chat(48, 5)
                    .with_arrivals(ArrivalPattern::Poisson { rate_rps: 4.0 }),
                SchedOptions::default(),
                2,
            ),
            (
                shared_spec(),
                SchedOptions { share_prefixes: true, chunk_tokens: Some(512), ..SchedOptions::default() },
                2,
            ),
        ] {
            let mut cluster =
                Cluster::new(e.clone(), replicas, Box::new(LeastOutstanding));
            let event = cluster
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    opts,
                )
                .expect("event core serves");
            let step = cluster
                .serve_paged_step_reference(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    opts,
                )
                .expect("step reference serves");
            assert_eq!(event, step, "event core diverged from the step driver");
        }
    }

    qserve_tensor::props! {
        /// Randomized equivalence oracle: across fleet sizes, workloads,
        /// arrival patterns, SLO mixes, scheduling policies, routers and
        /// admission gates, the event core and the step-driven reference
        /// produce bit-identical [`ClusterReport`]s on the same trace.
        fn event_core_is_bit_identical_to_step_reference(rng, cases = 12) {
            let replicas = rng.int_in(1, 4) as usize;
            let n = rng.int_in(16, 48) as usize;
            let seed = rng.int_in(0, 1 << 20) as u64;
            let mut spec = if rng.int_in(0, 1) == 0 {
                WorkloadSpec::chat(n, seed)
            } else {
                WorkloadSpec::mixed(n, seed)
            };
            spec = match rng.int_in(0, 2) {
                0 => spec, // offline batch
                1 => spec.with_arrivals(ArrivalPattern::Uniform {
                    rate_rps: f64::from(rng.uniform(2.0, 16.0)),
                }),
                _ => spec.with_arrivals(ArrivalPattern::Poisson {
                    rate_rps: f64::from(rng.uniform(2.0, 16.0)),
                }),
            };
            if rng.int_in(0, 1) == 1 {
                spec = spec.with_slos(SloSpec::Cycle(vec![
                    Slo::interactive(2.0, 8.0),
                    Slo::standard(6.0, 20.0),
                    Slo::best_effort(),
                ]));
            }
            let share = rng.int_in(0, 3) == 0;
            if share {
                spec = spec.with_sharing(PrefixSharing::Groups {
                    groups: 2,
                    prefix_len: 256,
                });
            }
            let opts = SchedOptions {
                share_prefixes: share,
                chunk_tokens: if rng.int_in(0, 1) == 1 { Some(256) } else { None },
                ..SchedOptions::default()
            };
            let mk_policy = {
                let pick = rng.int_in(0, 1);
                move || -> Box<dyn SchedulingPolicy> {
                    match pick {
                        0 => Box::new(Fcfs),
                        _ => Box::new(MemoryAware::default()),
                    }
                }
            };
            let routing: Box<dyn RoutingPolicy> = match rng.int_in(0, 3) {
                0 => Box::new(RoundRobin::default()),
                1 => Box::new(LeastOutstanding),
                2 => Box::new(DeadlineAware),
                _ => Box::new(PrefixAffinity::default()),
            };
            let admission: Box<dyn AdmissionPolicy> = match rng.int_in(0, 2) {
                0 => Box::new(AdmitAll),
                1 => Box::new(DeadlineFeasible),
                _ => Box::new(PriorityShed::default()),
            };
            let mut cluster = Cluster::new(engine(), replicas, routing)
                .with_admission(admission);
            let event = cluster
                .serve_paged(&spec, &mk_policy, Reservation::OnDemand, opts)
                .expect("event core serves");
            let step = cluster
                .serve_paged_step_reference(&spec, &mk_policy, Reservation::OnDemand, opts)
                .expect("step reference serves");
            assert_eq!(event, step, "event core diverged from the step driver");
        }
    }

    qserve_tensor::props! {
        /// Thread-count invariance oracle: across random fleet sizes,
        /// workloads, arrival patterns, scheduling policies, routers and
        /// fault plans (including rolling upgrades, which disable barrier
        /// windows entirely), a parallel cluster produces a
        /// [`ClusterReport`] bit-identical to the single-threaded run.
        fn thread_count_never_changes_the_report(rng, cases = 8) {
            let replicas = rng.int_in(2, 4) as usize;
            let n = rng.int_in(24, 64) as usize;
            let seed = rng.int_in(0, 1 << 20) as u64;
            let threads = rng.int_in(2, 4) as usize;
            let mut spec = if rng.int_in(0, 1) == 0 {
                WorkloadSpec::chat(n, seed)
            } else {
                WorkloadSpec::mixed(n, seed)
            };
            if rng.int_in(0, 2) > 0 {
                spec = spec.with_arrivals(ArrivalPattern::Poisson {
                    rate_rps: f64::from(rng.uniform(4.0, 24.0)),
                });
            }
            let opts = SchedOptions {
                chunk_tokens: if rng.int_in(0, 1) == 1 { Some(256) } else { None },
                ..SchedOptions::default()
            };
            let plan = match rng.int_in(0, 2) {
                0 => FaultPlan::none(),
                1 => FaultPlan::seeded(seed ^ 0x5eed, replicas, 30.0, 3),
                _ => FaultPlan::none().rolling_upgrade(replicas, 4.0, 1.0),
            };
            let mk_policy = {
                let pick = rng.int_in(0, 1);
                move || -> Box<dyn SchedulingPolicy> {
                    match pick {
                        0 => Box::new(Fcfs),
                        _ => Box::new(MemoryAware::default()),
                    }
                }
            };
            let route_pick = rng.int_in(0, 2);
            let mk_routing = move || -> Box<dyn RoutingPolicy> {
                match route_pick {
                    0 => Box::new(RoundRobin::default()),
                    1 => Box::new(LeastOutstanding),
                    _ => Box::new(DeadlineAware),
                }
            };
            let run = |t: usize| {
                Cluster::new(engine(), replicas, mk_routing())
                    .with_threads(t)
                    .serve_paged_faulty(&spec, &mk_policy, Reservation::OnDemand, opts, &plan)
                    .expect("cluster serves")
            };
            let sequential = run(1);
            let parallel = run(threads);
            assert_eq!(
                sequential, parallel,
                "report diverged between 1 and {threads} pool threads"
            );
        }
    }

    #[test]
    fn equal_timestamp_cross_lane_ticks_merge_in_lane_order() {
        // The adversarial tie case for barrier windows: an offline batch
        // split round-robin across identical replicas makes every replica's
        // chunk boundaries collide at bit-equal timestamps, so each window
        // is all ties and the `(time bits, lane)` comparison alone decides
        // who stops at the barrier. Any off-by-one in the tie-break (`>` vs
        // `>=`, or ticking *at* the barrier time) reorders merged events
        // and shows up as a report diff against the sequential driver.
        let spec = WorkloadSpec::chat(60, 9);
        let run = |threads: usize| {
            Cluster::new(engine(), 3, Box::new(RoundRobin::default()))
                .with_threads(threads)
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("cluster serves")
        };
        let sequential = run(1);
        let parallel = run(3);
        // The scenario must actually exercise concurrent lanes…
        assert_eq!(sequential.completed, 60);
        assert!(sequential.per_replica.iter().all(|r| r.routed == 20));
        // …and the tie-heavy windows must not reorder a single event.
        assert_eq!(sequential, parallel, "equal-timestamp windows reordered events");
    }

    #[test]
    fn deadline_admission_protects_goodput_under_overload() {
        // Overload a small cluster with deadline-carrying traffic: admit-all
        // serves everything late (low attainment), deadline admission sheds
        // the infeasible tail and lifts both attainment and goodput.
        let e = engine();
        let spec = WorkloadSpec::mixed(768, 7)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 96.0 })
            .with_slos(SloSpec::Cycle(vec![
                Slo::interactive(2.0, 8.0),
                Slo::standard(6.0, 20.0),
                Slo::best_effort(),
            ]));
        let run = |admission: Box<dyn AdmissionPolicy>| {
            Cluster::new(e.clone(), 4, Box::new(LeastOutstanding))
                .with_admission(admission)
                .serve_paged(
                    &spec,
                    || Box::new(Fcfs),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let all = run(Box::new(AdmitAll));
        let gated = run(Box::new(DeadlineFeasible));
        assert_eq!(all.shed, 0);
        assert_eq!(all.completed, 768);
        assert!(all.slo_attainment < 1.0, "overload must cause admit-all misses");
        assert!(gated.shed > 0, "overload must force shedding");
        assert_eq!(gated.completed + gated.shed, 768, "partition");
        assert!(
            gated.slo_attainment > all.slo_attainment,
            "deadline admission must lift attainment: {} vs {}",
            gated.slo_attainment,
            all.slo_attainment
        );
        assert!(
            gated.goodput_tps > all.goodput_tps,
            "deadline admission must lift goodput: {} vs {}",
            gated.goodput_tps,
            all.goodput_tps
        );
        // Goodput never exceeds raw throughput, and the ratio percentiles
        // are ordered.
        for r in [&all, &gated] {
            assert!(r.goodput_tps <= r.throughput_tps + 1e-9);
            assert!(r.slo_ratio_p50 <= r.slo_ratio_p99);
        }
    }

    #[test]
    fn static_fleet_bills_gpu_seconds_for_the_whole_makespan() {
        // Without an autoscaler every replica is provisioned from t=0 to
        // the cluster makespan: per-replica provisioned time equals the
        // makespan bit-for-bit and the fleet bill is n × makespan.
        let report = Cluster::new(engine(), 3, Box::new(LeastOutstanding))
            .serve_paged(
                &WorkloadSpec::mixed(96, 11),
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        for r in &report.per_replica {
            assert_eq!(r.provisioned_s.to_bits(), report.makespan_s.to_bits());
        }
        assert!((report.gpu_seconds - 3.0 * report.makespan_s).abs() < 1e-9);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migrated_pages, 0);
        assert_eq!(report.migrated_bytes, 0);
    }

    /// A shared-prefix overload aimed at one pinned home: one big group,
    /// Poisson arrivals well past a single replica's capacity.
    fn saturating_group_spec(n: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec::shared_prefix(1, 2048, n, seed)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 48.0 })
    }

    #[test]
    fn saturated_group_migrates_and_beats_staying_pinned() {
        let e = engine();
        let spec = saturating_group_spec(96, 41);
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let pinned = Cluster::new(e.clone(), 2, Box::new(PrefixAffinity::default()))
            .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
            .expect("serves");
        let cfg = MigrationConfig {
            saturation_queue_s: 0.5,
            relief_ratio: 0.5,
            migrate_pages: true,
            link: HostLink::nvlink_p2p(),
        };
        let mut migrating = Cluster::new(e.clone(), 2, Box::new(LeastOutstanding))
            .with_migration(cfg);
        let moved = migrating
            .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
            .expect("serves");
        // Affinity funnels the whole group onto one replica; migration
        // spreads it once the home saturates — and nothing is lost.
        assert_eq!(pinned.completed, 96);
        assert_eq!(moved.completed, 96, "migration must not lose requests");
        assert_eq!(moved.shed, 0);
        assert!(moved.migrations > 0, "the saturated home must trigger a migration");
        assert!(moved.migrated_pages > 0);
        assert_eq!(
            moved.migrated_bytes,
            u64::try_from(moved.migrated_pages).expect("fits") * e.kv_page_bytes(),
            "migration bytes must price exactly the copied pages"
        );
        assert!(
            moved.throughput_tps > pinned.throughput_tps,
            "migration must beat a saturated pin: {} vs {}",
            moved.throughput_tps,
            pinned.throughput_tps
        );
        // Both replicas served group members after the move.
        assert!(moved.per_replica.iter().all(|r| r.completed > 0));
        // Determinism: an identical second serve replays bit-for-bit.
        let replay = migrating
            .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
            .expect("serves");
        assert_eq!(moved, replay);
    }

    #[test]
    fn autoscaler_wakes_standbys_under_load_and_bills_less_than_static_max() {
        let e = engine();
        // A burst the initial single replica cannot absorb.
        let spec = WorkloadSpec::mixed(192, 17)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 24.0 });
        let run_static = |n: usize| {
            Cluster::new(e.clone(), n, Box::new(LeastOutstanding))
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let static_max = run_static(4);
        let mut elastic = Cluster::new(e.clone(), 4, Box::new(LeastOutstanding))
            .with_autoscaler(AutoscaleConfig {
                policy: Box::new(QueuePressureScaler {
                    min_replicas: 1,
                    max_replicas: 4,
                    scale_up_queue_s: 2.0,
                    scale_down_queue_s: 0.5,
                }),
                interval_s: 2.0,
                initial_online: 1,
            });
        let auto = elastic
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        assert_eq!(auto.completed, 192, "autoscaling must not lose requests");
        assert_eq!(auto.shed, 0);
        // The burst forced a scale-up past the initial singleton...
        assert!(
            auto.per_replica.iter().filter(|r| r.routed > 0).count() > 1,
            "the scaler never woke a standby"
        );
        // ...and the bill stays under always-on 4×makespan (standbys wake
        // late, drain early).
        assert!(
            auto.gpu_seconds < 4.0 * auto.makespan_s,
            "elastic bill {} must undercut always-on {}",
            auto.gpu_seconds,
            4.0 * auto.makespan_s
        );
        assert!(auto.gpu_seconds > 0.0);
        // Static fleets are invariant to the new accounting.
        assert!((static_max.gpu_seconds - 4.0 * static_max.makespan_s).abs() < 1e-9);
        // Determinism under autoscaling.
        let replay = elastic
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        assert_eq!(auto, replay);
    }

    qserve_tensor::props! {
        /// Migration conservation: across random fleets, workloads and
        /// saturation-triggered migrations, finished ∪ shed still
        /// partitions the workload exactly, nothing is lost, the migrated
        /// byte accounting matches the copied pages, and the run is
        /// deterministic (the end-of-run `assert_consistent` audit inside
        /// the driver checks both ledgers on every serve).
        fn migration_conserves_requests_and_pages(rng, cases = 8) {
            let replicas = rng.int_in(2, 4) as usize;
            let n = rng.int_in(24, 64) as usize;
            let seed = rng.int_in(0, 1 << 20) as u64;
            let groups = rng.int_in(1, 2) as usize;
            let mut spec = WorkloadSpec::shared_prefix(groups, 1024, n, seed)
                .with_arrivals(ArrivalPattern::Poisson {
                    rate_rps: f64::from(rng.uniform(8.0, 32.0)),
                });
            if rng.int_in(0, 1) == 1 {
                spec = spec.with_slos(SloSpec::Cycle(vec![
                    Slo::interactive(2.0, 8.0),
                    Slo::best_effort(),
                ]));
            }
            let cfg = MigrationConfig {
                saturation_queue_s: f64::from(rng.uniform(1.0, 6.0)),
                relief_ratio: 0.5,
                migrate_pages: rng.int_in(0, 3) > 0,
                link: if rng.int_in(0, 1) == 0 {
                    HostLink::nvlink_p2p()
                } else {
                    HostLink::pcie4()
                },
            };
            let opts = SchedOptions {
                share_prefixes: true,
                chunk_tokens: if rng.int_in(0, 1) == 1 { Some(256) } else { None },
                ..SchedOptions::default()
            };
            let mut cluster = Cluster::new(engine(), replicas, Box::new(LeastOutstanding))
                .with_migration(cfg);
            let report = cluster
                .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
                .expect("serves");
            // Partition: every request finished on exactly one replica or
            // was shed — never both, never neither.
            let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            for rep in &report.per_replica {
                for id in &rep.finished {
                    assert!(seen.insert(id.0), "request {} finished twice", id.0);
                }
            }
            for id in &report.shed_ids {
                assert!(seen.insert(id.0), "request {} both finished and shed", id.0);
            }
            assert_eq!(seen.len(), n, "finished ∪ shed must partition the workload");
            assert_eq!(report.completed + report.shed, n);
            // Byte accounting: every migrated page priced exactly once.
            if !cfg.migrate_pages {
                assert_eq!(report.migrations, 0, "repin-only must copy nothing");
            }
            // Determinism (which also re-runs the in-driver ledger audits).
            let replay = cluster
                .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
                .expect("serves");
            assert_eq!(report, replay);
        }
    }
}
