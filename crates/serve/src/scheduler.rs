//! The request-lifecycle scheduler core: one event-driven continuous-batching
//! state machine shared by every serving path.
//!
//! The core owns the queue → running → finished lifecycle of
//! [`Request`]s — admission order (delegated to a pluggable
//! [`SchedulingPolicy`]), KV-memory gating (delegated to a [`KvBudget`]),
//! recompute-style preemption, clock/phase accounting, and latency
//! statistics. It deliberately does *not* know what a step costs or what
//! executes it: the analytic engine drives it with cost-model latencies
//! ([`crate::ServingEngine`]), while the functional path drives it with real
//! quantized forward passes over the paged KV4 cache
//! ([`crate::ModelRuntime::serve`]). That split is what keeps exactly one
//! decode/prefill accounting implementation in the tree.
//!
//! A driver loop ticks the core:
//!
//! ```text
//! while !done {
//!     admit(budget)            // policy picks, budget gates, wave returned
//!     charge_prefill(dt)       // driver prices the admitted wave
//!     make_room(budget)        // grow every resident; preempt on pressure
//!     decode_step(dt, budget)  // one token for the whole batch; retire
//! }
//! ```

use std::collections::{BTreeMap, VecDeque};

use crate::host_tier::{HostTier, SwappedEntry};
use crate::request::{Request, RequestId, RequestState};
use crate::sketch::{PercentileSketch, EXACT_STATS_MAX};

// ---------------------------------------------------------------------------
// KV memory budgets
// ---------------------------------------------------------------------------

/// Abstracts "is there KV memory for this?" so admission and growth can be
/// gated by a real page pool, a simulated one, or nothing at all.
pub trait KvBudget {
    /// Tokens that could still be cached before the pool runs out
    /// (page-granular approximation; `usize::MAX` when unbounded).
    fn free_tokens(&self) -> usize;

    /// Reserves what admitting a request needs: it starts at `start_tokens`
    /// (prompt + recomputed output) and may reach `peak_tokens`. Returns
    /// `false` to refuse admission.
    fn admit(&mut self, id: RequestId, start_tokens: usize, peak_tokens: usize) -> bool;

    /// Like [`KvBudget::admit`], but the first `shared_tokens` of the
    /// request's prompt belong to prefix-sharing group `group`: a budget
    /// that models page sharing charges those pages once per *group* (fully
    /// covered pages only — the partial boundary page is private, mirroring
    /// the copy-on-write duplicate in [`crate::PagedKvCache`]). The default
    /// ignores sharing and reserves the full footprint.
    fn admit_shared(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared_tokens: usize,
        start_tokens: usize,
        peak_tokens: usize,
    ) -> bool {
        let _ = (group, shared_tokens);
        self.admit(id, start_tokens, peak_tokens)
    }

    /// Accounts one more cached token for `id`; `false` means the pool is
    /// exhausted and someone must be preempted.
    fn grow(&mut self, id: RequestId) -> bool;

    /// Returns everything `id` holds to the pool.
    fn release(&mut self, id: RequestId);

    /// Spills `id`'s *private* pages to a modeled host-memory tier,
    /// freeing them on device while keeping any shared-pool reference
    /// (shared prefix pages stay resident — siblings are reading them).
    /// Returns the device pages freed, or `None` when the budget has no
    /// host tier or the tier is full — the caller must fall back to
    /// recompute preemption.
    fn swap_out(&mut self, _id: RequestId) -> Option<usize> {
        None
    }

    /// Brings a swapped-out request's pages back on device. Returns the
    /// device pages re-acquired, or `None` when the device pool cannot
    /// hold them yet. Implementations must fail loudly (panic, not
    /// `None`) when `id` was never swapped out or its holdings were
    /// released in the meantime — that is ledger corruption, not
    /// back-pressure.
    fn swap_in(&mut self, _id: RequestId) -> Option<usize> {
        None
    }

    /// High-water mark of unique pages in use (0 for budgets that do not
    /// track pages) — the true-residency number `prefix_sweep` reports.
    fn peak_pages(&self) -> usize {
        0
    }
}

/// No memory gating: admission is limited by the batch limit alone. This is
/// the legacy engine behavior, where the batch limit is already derived from
/// peak-sized KV budgeting ([`crate::memory::MemoryPlan::max_batch`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedBudget;

impl KvBudget for UnboundedBudget {
    fn free_tokens(&self) -> usize {
        usize::MAX
    }
    fn admit(&mut self, _id: RequestId, _start: usize, _peak: usize) -> bool {
        true
    }
    fn grow(&mut self, _id: RequestId) -> bool {
        true
    }
    fn release(&mut self, _id: RequestId) {}
}

/// How a [`PageBudget`] reserves pages at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reservation {
    /// Reserve the request's *peak* footprint up front: growth can never
    /// fail, so no preemption — the conservative sizing real schedulers use
    /// for admission (and what the legacy batch limit encodes).
    Peak,
    /// Reserve only the current footprint and allocate pages as sequences
    /// grow: admits far more concurrency, at the price of preemptions when
    /// the pool runs dry mid-decode (vLLM-style).
    OnDemand,
}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// Tokens in the entry's *private* region (beyond any shared pool pages).
    tokens: usize,
    reserved_per_layer: usize,
    /// Prefix-sharing pool this entry holds a reference on.
    group: Option<u64>,
}

/// The null link of the slab's intrusive list.
const NIL: usize = usize::MAX;

/// One slab cell of a [`PageBudget`]: a resident's entry plus its links on
/// the admission-order list. A freed cell keeps stale contents until it is
/// reused; only the id index and the list say which cells are live.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: RequestId,
    entry: PageEntry,
    prev: usize,
    next: usize,
}

/// One prefix-sharing group's pooled pages: charged once, refcounted by the
/// resident group members — the ledger twin of the cache's page refcounts.
#[derive(Debug, Clone, Copy)]
struct SharedPool {
    pages_per_layer: usize,
    refs: usize,
}

/// A page ledger mirroring [`crate::PagedKvCache`]'s allocation arithmetic
/// (fixed pool of fixed-size pages, one page table per layer, refcounted
/// prefix sharing) without storing bytes — the memory model the scheduler
/// admits and preempts against.
///
/// Resident entries live in a slab (`slots` plus a free-slot list), with a
/// `RequestId → slot` index serving admit, release, swap and the audit.
/// Live slots are threaded on an intrusive list in admission order:
/// admission and swap-in append, release and swap-out unlink. That is
/// exactly the order of [`Scheduler::running`], so the scheduler's
/// per-tick `grow` walk visits the list front to back. `grow` therefore
/// first tries a cursor left on the slot after the last one grown, and
/// falls back to the index only when that slot belongs to another id (a
/// resident still chunk-prefilling, say). The hint is always checked
/// against the id, so a miss costs one index lookup, never correctness:
/// growth is O(1) on the hot path instead of a map walk per resident.
#[derive(Debug, Clone)]
pub struct PageBudget {
    page_tokens: usize,
    layers: usize,
    total_pages: usize,
    free_pages: usize,
    peak_used: usize,
    mode: Reservation,
    /// Entry slab; a slot is live iff `index` maps some id to it.
    slots: Vec<Slot>,
    /// Dead slots awaiting reuse (LIFO).
    free_slots: Vec<usize>,
    /// Live id → slot.
    index: BTreeMap<RequestId, usize>,
    /// Ends of the admission-order list of live slots (`NIL` when empty).
    head: usize,
    tail: usize,
    /// The slot after the last one grown (`NIL` or a live slot) — the
    /// verified hint [`KvBudget::grow`] tries before the index.
    cursor: usize,
    pools: BTreeMap<u64, SharedPool>,
    /// Pools holding a control-plane *anchor* reference: prefix pages
    /// imported by a cross-replica migration stay resident (and the pool
    /// alive) even before the first local member admits, and between
    /// members. One anchor is at most one extra reference per pool.
    anchors: std::collections::BTreeSet<u64>,
    /// Modeled host-memory tier for swap-style preemption (`None` = no
    /// tier, swaps refuse and callers fall back to recompute).
    host: Option<HostTier>,
}

impl PageBudget {
    /// A ledger over `total_pages` pages of `page_tokens` tokens each, with
    /// one page table per layer.
    pub fn new(page_tokens: usize, layers: usize, total_pages: usize, mode: Reservation) -> Self {
        assert!(page_tokens > 0 && layers > 0, "degenerate page geometry");
        Self {
            page_tokens,
            layers,
            total_pages,
            free_pages: total_pages,
            peak_used: 0,
            mode,
            slots: Vec::new(),
            free_slots: Vec::new(),
            index: BTreeMap::new(),
            head: NIL,
            tail: NIL,
            cursor: NIL,
            pools: BTreeMap::new(),
            anchors: std::collections::BTreeSet::new(),
            host: None,
        }
    }

    /// Attaches a host-memory tier of `capacity_pages` pages, enabling
    /// swap-style preemption ([`KvBudget::swap_out`] /
    /// [`KvBudget::swap_in`]). Idempotent re-sizing is not supported: the
    /// tier must be attached before any swap.
    ///
    /// # Panics
    /// Panics if a tier is already attached.
    pub fn enable_host_tier(&mut self, capacity_pages: usize) {
        assert!(self.host.is_none(), "host tier already attached");
        self.host = Some(HostTier::new(capacity_pages));
    }

    /// The attached host tier, if any — read-only view for audits and
    /// reports.
    pub fn host_tier(&self) -> Option<&HostTier> {
        self.host.as_ref()
    }

    /// Total pages in the pool.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Tokens per page — the pool's page geometry, needed by callers that
    /// convert a pool's per-layer page count back into prefix tokens.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> usize {
        self.free_pages
    }

    /// Pages currently charged to residents and shared pools.
    pub fn used_pages(&self) -> usize {
        self.total_pages.checked_sub(self.free_pages).expect("ledger drift: free exceeds total")
    }

    /// Audits the ledger from first principles: the free count must equal
    /// the total minus every resident's private reservation and every
    /// shared pool's pages, and each pool's refcount must equal the number
    /// of resident entries referencing it. The slab is audited too: the id
    /// index, the admission-order list and the free-slot list must
    /// partition the slots, the list's `prev`/`next` links must be
    /// symmetric, and the grow cursor must be `NIL` or a live slot.
    /// Preemption/re-admission regression tests call this step-wise; it is
    /// `assert!`-based, so it bites in release builds too.
    ///
    /// # Panics
    /// Panics on any drift between the counters and the entry/pool maps.
    pub fn assert_consistent(&self) {
        self.assert_slab_consistent();
        let reserved: usize = self
            .entries()
            .map(|e| e.reserved_per_layer * self.layers)
            .sum();
        let pooled: usize = self
            .pools
            .values()
            .map(|p| p.pages_per_layer * self.layers)
            .sum();
        assert_eq!(
            self.free_pages + reserved + pooled,
            self.total_pages,
            "page ledger drift: free {} + reserved {} + pooled {} != total {}",
            self.free_pages,
            reserved,
            pooled,
            self.total_pages
        );
        for (g, pool) in &self.pools {
            // Swapped-out members keep their pool reference: their shared
            // prefix pages stay on device even while the private pages sit
            // in the host tier. A migration anchor is one more reference,
            // held by the control plane rather than a member.
            let resident = self.entries().filter(|e| e.group == Some(*g)).count();
            let swapped = self
                .host
                .as_ref()
                .map_or(0, |h| h.entries().filter(|(_, e)| e.group == Some(*g)).count());
            let anchor = usize::from(self.anchors.contains(g));
            assert_eq!(pool.refs, resident + swapped + anchor, "pool {} refcount drift", g);
            assert!(
                resident + swapped + anchor > 0,
                "pool {} outlived its last member",
                g
            );
        }
        for g in &self.anchors {
            assert!(self.pools.contains_key(g), "anchor references a dead pool {}", g);
        }
        for e in self.entries() {
            if let Some(g) = e.group {
                assert!(self.pools.contains_key(&g), "entry references a dead pool {}", g);
            }
        }
        if let Some(host) = &self.host {
            host.assert_consistent();
            for (id, e) in host.entries() {
                assert!(
                    !self.index.contains_key(&id),
                    "request {:?} is both resident and swapped out",
                    id
                );
                if let Some(g) = e.group {
                    assert!(
                        self.pools.contains_key(&g),
                        "swapped entry references a dead pool {}",
                        g
                    );
                }
            }
        }
    }

    /// The slab half of [`PageBudget::assert_consistent`]: walks the
    /// admission-order list from `head`, checking link symmetry and that
    /// every listed slot is indexed under its own id, then checks that the
    /// list, the index and the free-slot list partition the slab.
    fn assert_slab_consistent(&self) {
        let mut listed = vec![false; self.slots.len()];
        let mut len = 0usize;
        let mut prev = NIL;
        let mut at = self.head;
        while at != NIL {
            assert!(at < self.slots.len(), "slab link {} out of bounds", at);
            assert!(!listed[at], "slab list revisits slot {}", at);
            listed[at] = true;
            let slot = &self.slots[at];
            assert_eq!(slot.prev, prev, "slab prev/next asymmetry at slot {}", at);
            assert_eq!(
                self.index.get(&slot.id),
                Some(&at),
                "slab slot {} ({:?}) is listed but not indexed there",
                at,
                slot.id
            );
            len += 1;
            prev = at;
            at = slot.next;
        }
        assert_eq!(self.tail, prev, "slab tail is not the list's last slot");
        assert_eq!(len, self.index.len(), "slab list length != index length");
        assert!(
            self.cursor == NIL || listed.get(self.cursor) == Some(&true),
            "grow cursor {} is not a live slot",
            self.cursor
        );
        for &s in &self.free_slots {
            assert!(s < self.slots.len(), "free slot {} out of bounds", s);
            assert!(!listed[s], "slot {} is both live and free", s);
            listed[s] = true;
        }
        assert_eq!(
            len + self.free_slots.len(),
            self.slots.len(),
            "slab slots leaked: {} live + {} free != {}",
            len,
            self.free_slots.len(),
            self.slots.len()
        );
    }

    /// Resident entries, in index (id) order.
    fn entries(&self) -> impl Iterator<Item = &PageEntry> {
        self.index.values().map(|&s| &self.slots[s].entry)
    }

    /// Appends a resident entry for `id` at the tail of the admission-order
    /// list, reusing a dead slot when one exists. Returns `false` (and
    /// changes nothing) when `id` is already resident.
    fn link(&mut self, id: RequestId, entry: PageEntry) -> bool {
        let std::collections::btree_map::Entry::Vacant(vacant) = self.index.entry(id) else {
            return false;
        };
        let slot = Slot { id, entry, prev: self.tail, next: NIL };
        let at = match self.free_slots.pop() {
            Some(at) => {
                self.slots[at] = slot;
                at
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        vacant.insert(at);
        match self.tail {
            NIL => self.head = at,
            t => self.slots[t].next = at,
        }
        self.tail = at;
        true
    }

    /// Removes `id`'s entry from the index and the list and frees its slot;
    /// a cursor resting on it moves to its successor. `None` when `id` is
    /// not resident.
    fn unlink(&mut self, id: RequestId) -> Option<PageEntry> {
        let at = self.index.remove(&id)?;
        let Slot { entry, prev, next, .. } = self.slots[at];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
        if self.cursor == at {
            self.cursor = next;
        }
        self.free_slots.push(at);
        Some(entry)
    }

    /// Pages one sequence of `tokens` needs per layer.
    fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }

    fn take(&mut self, pages: usize) {
        self.free_pages =
            self.free_pages.checked_sub(pages).expect("page take exceeds the free pool");
        self.peak_used = self.peak_used.max(self.used_pages());
    }

    /// Drops one reference on shared pool `g`, freeing its pages with the
    /// last member. Hard asserts (not debug_assert) so an accounting bug
    /// cannot wrap the counter in release builds.
    fn unref_pool(&mut self, g: u64) {
        let pool = self.pools.get_mut(&g).expect("entry references a dead pool");
        pool.refs = pool
            .refs
            .checked_sub(1)
            .expect("shared pool refcount underflow");
        if pool.refs == 0 {
            self.free_pages += pool.pages_per_layer * self.layers;
            self.pools.remove(&g);
        }
    }

    /// Pages per layer held by prefix pool `group`, if the pool is resident
    /// here — what a cross-replica migration exports.
    pub fn pool_pages_per_layer(&self, group: u64) -> Option<usize> {
        self.pools.get(&group).map(|p| p.pages_per_layer)
    }

    /// Imports a prefix group's pooled pages from another replica: charges
    /// `pages_per_layer × layers` physical pages to this ledger and anchors
    /// the pool with one control-plane reference, so it survives until the
    /// anchor is released even with zero local members. Returns the
    /// physical pages taken, or `None` when the pool already exists here
    /// (the prefix is already warm — nothing to move), the import is empty,
    /// or the free list cannot cover it.
    pub fn import_pool(&mut self, group: u64, pages_per_layer: usize) -> Option<usize> {
        if pages_per_layer == 0 || self.pools.contains_key(&group) {
            return None;
        }
        let need = pages_per_layer * self.layers;
        if need > self.free_pages {
            return None;
        }
        self.take(need);
        self.pools.insert(group, SharedPool { pages_per_layer, refs: 1 });
        self.anchors.insert(group);
        Some(need)
    }

    /// Drops the control-plane anchor on `group`, if one exists; the pool's
    /// pages free once its last member also leaves.
    pub fn release_anchor(&mut self, group: u64) {
        if self.anchors.remove(&group) {
            self.unref_pool(group);
        }
    }

    /// Drops every control-plane anchor — a crashed replica's imported
    /// prefix pages die with its pool, so the post-crash audit can demand
    /// an empty ledger.
    pub fn release_anchors(&mut self) {
        for g in std::mem::take(&mut self.anchors) {
            self.unref_pool(g);
        }
    }

    /// Host-tier pages in use (0 without a tier) — surfaced to the control
    /// plane through the replica snapshot.
    pub fn host_used_pages(&self) -> usize {
        self.host.as_ref().map_or(0, HostTier::used_pages)
    }

    /// Host-tier capacity in pages (0 without a tier).
    pub fn host_capacity_pages(&self) -> usize {
        self.host.as_ref().map_or(0, HostTier::capacity_pages)
    }
}

impl KvBudget for PageBudget {
    fn free_tokens(&self) -> usize {
        self.free_pages / self.layers * self.page_tokens
    }

    fn admit(&mut self, id: RequestId, start_tokens: usize, peak_tokens: usize) -> bool {
        self.admit_shared(id, None, 0, start_tokens, peak_tokens)
    }

    fn admit_shared(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared_tokens: usize,
        start_tokens: usize,
        peak_tokens: usize,
    ) -> bool {
        // Only fully covered prefix pages are shared; the partial boundary
        // page is private (the cache would copy-on-write it anyway).
        let group = group.filter(|_| shared_tokens >= self.page_tokens);
        let (pool_need, covered_tokens) = match group {
            None => (0, 0),
            Some(g) => {
                let own_pages = shared_tokens / self.page_tokens;
                match self.pools.get(&g) {
                    // Joining an existing pool costs nothing; alias at most
                    // what the pool actually holds.
                    Some(pool) => (0, own_pages.min(pool.pages_per_layer) * self.page_tokens),
                    None => (own_pages * self.layers, own_pages * self.page_tokens),
                }
            }
        };
        let reserve_tokens = match self.mode {
            Reservation::Peak => peak_tokens,
            Reservation::OnDemand => start_tokens,
        };
        let per_layer = self.pages_for(reserve_tokens.saturating_sub(covered_tokens));
        let need = per_layer * self.layers + pool_need;
        if need > self.free_pages {
            return false;
        }
        self.take(need);
        if let Some(g) = group {
            let pool = self.pools.entry(g).or_insert(SharedPool {
                pages_per_layer: covered_tokens / self.page_tokens,
                refs: 0,
            });
            pool.refs += 1;
        }
        let linked = self.link(
            id,
            PageEntry {
                tokens: start_tokens
                    .checked_sub(covered_tokens)
                    .expect("shared coverage exceeds the request's start tokens"),
                reserved_per_layer: per_layer,
                group,
            },
        );
        assert!(linked, "request {:?} admitted twice", id);
        true
    }

    fn grow(&mut self, id: RequestId) -> bool {
        let at = match self.slots.get(self.cursor) {
            Some(slot) if slot.id == id => self.cursor,
            _ => *self.index.get(&id).expect("grow() on unadmitted request"),
        };
        let slot = &mut self.slots[at];
        let entry = &mut slot.entry;
        entry.tokens += 1;
        let need_per_layer = entry.tokens.div_ceil(self.page_tokens);
        if need_per_layer <= entry.reserved_per_layer {
            self.cursor = slot.next;
            return true;
        }
        let need = (need_per_layer - entry.reserved_per_layer) * self.layers;
        if need > self.free_pages {
            entry.tokens =
                entry.tokens.checked_sub(1).expect("grow() rollback on an empty entry");
            // The caller evicts a victim and retries this same id.
            self.cursor = at;
            return false;
        }
        entry.reserved_per_layer = need_per_layer;
        self.cursor = slot.next;
        self.take(need);
        true
    }

    fn release(&mut self, id: RequestId) {
        if let Some(entry) = self.unlink(id) {
            self.free_pages += entry.reserved_per_layer * self.layers;
            if let Some(g) = entry.group {
                self.unref_pool(g);
            }
            assert!(self.free_pages <= self.total_pages, "page ledger over-released");
        } else if let Some(swapped) = self.host.as_mut().and_then(|h| h.evict(id)) {
            // Releasing a swapped-out request frees host pages, not device
            // pages — but its shared-pool reference (device-resident) must
            // still be dropped, or the pool leaks.
            if let Some(g) = swapped.group {
                self.unref_pool(g);
            }
            assert!(self.free_pages <= self.total_pages, "page ledger over-released");
        }
    }

    fn swap_out(&mut self, id: RequestId) -> Option<usize> {
        // No tier attached → the caller falls back to recompute.
        let host_free = self.host.as_ref()?.free_pages();
        let at = *self.index.get(&id).expect("swap_out() on unadmitted request");
        let pages = self.slots[at].entry.reserved_per_layer * self.layers;
        if pages > host_free {
            return None;
        }
        let entry = self.unlink(id).expect("checked above");
        let host = self.host.as_mut().expect("checked above");
        host.park(
            id,
            SwappedEntry {
                tokens: entry.tokens,
                reserved_per_layer: entry.reserved_per_layer,
                pages,
                group: entry.group,
            },
        );
        // The pool reference (if any) is deliberately kept: the swapped
        // member still pins its shared prefix pages on device.
        self.free_pages += pages;
        assert!(self.free_pages <= self.total_pages, "page ledger over-released");
        Some(pages)
    }

    fn swap_in(&mut self, id: RequestId) -> Option<usize> {
        let host = self.host.as_mut().expect("swap_in() without a host tier");
        // Loud on a missing entry: swapping back pages whose owner was
        // released is ledger corruption, not back-pressure.
        let pages = host.pages_of(id);
        if pages > self.free_pages {
            return None;
        }
        let swapped = host.take(id);
        self.take(pages);
        let linked = self.link(
            id,
            PageEntry {
                tokens: swapped.tokens,
                reserved_per_layer: swapped.reserved_per_layer,
                group: swapped.group,
            },
        );
        assert!(linked, "request {:?} swapped in while already resident", id);
        Some(pages)
    }

    fn peak_pages(&self) -> usize {
        self.peak_used
    }
}

// ---------------------------------------------------------------------------
// Scheduling policies
// ---------------------------------------------------------------------------

/// Decides *which* queued request is admitted next and *who* gets preempted
/// under memory pressure. Policies see only arrived requests; batch-limit
/// and budget gating stay in the core.
///
/// `Send` so a replica (which owns its policy) can be advanced on a pool
/// worker between cluster barriers; policies are consulted from exactly one
/// thread at a time, so no `Sync` bound is needed.
pub trait SchedulingPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Index into `waiting` (arrived requests, FCFS order) of the next
    /// request to admit, or `None` to hold admission this tick.
    fn select(&self, waiting: &[Request], running: &[Request], budget: &dyn KvBudget)
        -> Option<usize>;

    /// Index into `running` of the preemption victim when the pool runs dry.
    /// Default: the most recently admitted resident (LIFO, protects the
    /// oldest request's progress).
    fn victim(&self, running: &[Request]) -> Option<usize> {
        running.len().checked_sub(1)
    }
}

/// First-come-first-served continuous batching — the classic (and legacy)
/// admission order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }
    fn select(&self, waiting: &[Request], _running: &[Request], _budget: &dyn KvBudget)
        -> Option<usize> {
        (!waiting.is_empty()).then_some(0)
    }
}

/// Shortest-job-first: admits the arrived request with the least remaining
/// output work, shrinking mean latency on mixed workloads at the price of
/// delaying long requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst;

impl SchedulingPolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "sjf"
    }
    fn select(&self, waiting: &[Request], _running: &[Request], _budget: &dyn KvBudget)
        -> Option<usize> {
        waiting
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.remaining(), r.input_len, r.id))
            .map(|(i, _)| i)
    }
}

/// Memory-aware admission: FCFS order, but a request is only admitted while
/// the free page pool covers its prefill footprint plus `headroom` of its
/// remaining output — aggressive enough to beat peak reservation, cautious
/// enough to keep preemption storms rare. Pair with an
/// [`Reservation::OnDemand`] [`PageBudget`]; preemption (LIFO victim)
/// backstops the optimism.
#[derive(Debug, Clone, Copy)]
pub struct MemoryAware {
    /// Fraction of a candidate's remaining output that must fit in free
    /// pages at admission time (0 = fully optimistic, 1 = peak-conservative).
    pub headroom: f64,
}

impl Default for MemoryAware {
    fn default() -> Self {
        Self { headroom: 0.5 }
    }
}

impl SchedulingPolicy for MemoryAware {
    fn name(&self) -> &'static str {
        "memory-aware"
    }
    fn select(&self, waiting: &[Request], _running: &[Request], budget: &dyn KvBudget)
        -> Option<usize> {
        let r = waiting.first()?;
        // lint: allow(raw-cast) -- admission headroom is a deliberate f64 estimate; ceil() is finite and non-negative, so the cast is exact
        let need = r.prefill_len() + (r.remaining() as f64 * self.headroom).ceil() as usize;
        (budget.free_tokens() >= need).then_some(0)
    }
}

// ---------------------------------------------------------------------------
// The scheduler core
// ---------------------------------------------------------------------------

/// One admitted wave: ids plus the per-request token counts the driver must
/// prefill (prompt + recomputed output for re-admitted preemptees).
#[derive(Debug, Clone, Default)]
pub struct AdmittedWave {
    /// Admitted request ids, in admission order.
    pub ids: Vec<RequestId>,
    /// Matching prefill token counts (the *full* target, shared included).
    pub prefill_lens: Vec<usize>,
    /// Tokens of each prefill aliased from a resident group member's prefix
    /// pages — already cached, so the driver must not charge compute for
    /// them (all zeros unless sharing is enabled).
    pub shared_lens: Vec<usize>,
}

/// What happens to a preemption victim when the page pool runs dry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptionMode {
    /// Wipe the victim's pages and recompute its prefill on re-admission
    /// (vLLM-style) — the legacy behavior and the default.
    #[default]
    Recompute,
    /// Spill the victim's private pages to the budget's host-memory tier
    /// and swap them back on re-admission at link cost; falls back to
    /// recompute when no tier is attached or the tier is full.
    Swap,
}

/// Knobs for the prefix-sharing and chunked-prefill extensions. The default
/// (`sharing off, chunking off, recompute preemption`) reproduces the
/// legacy scheduler tick-for-tick, which is what keeps the paper protocol
/// CSVs byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedOptions {
    /// Alias resident same-group prefixes at admission instead of
    /// recomputing them ([`crate::request::PrefixSharing`] workloads).
    pub share_prefixes: bool,
    /// Split prompts into chunks of at most this many tokens, interleaved
    /// with decode steps (`None` = whole-prompt prefill at admission).
    pub chunk_tokens: Option<usize>,
    /// Preemption flavor under memory pressure: recompute (default) or
    /// swap to the host tier.
    pub preemption: PreemptionMode,
}

/// Aggregate timing statistics over the finished requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerStats {
    /// Final clock, seconds.
    pub clock_s: f64,
    /// Time spent in prefill.
    pub prefill_time_s: f64,
    /// Time spent in decode.
    pub decode_time_s: f64,
    /// Requests finished.
    pub completed: usize,
    /// Output tokens generated across finished requests.
    pub generated_tokens: usize,
    /// Mean end-to-end latency (arrival → last token).
    pub mean_latency_s: f64,
    /// Worst end-to-end latency.
    pub max_latency_s: f64,
    /// Median end-to-end latency.
    pub p50_latency_s: f64,
    /// 95th-percentile end-to-end latency.
    pub p95_latency_s: f64,
    /// 99th-percentile end-to-end latency.
    pub p99_latency_s: f64,
    /// Mean time-to-first-token.
    pub mean_ttft_s: f64,
    /// Preemption events over the run.
    pub preemptions: usize,
    /// Swap-out preemption events over the run (victims spilled to the
    /// host tier instead of wiped).
    pub swap_outs: usize,
    /// Device pages moved host-ward by swap-out preemptions.
    pub swap_out_pages: usize,
    /// Device pages moved back by swap-in re-admissions.
    pub swap_in_pages: usize,
    /// Time spent moving pages across the host link.
    pub swap_time_s: f64,
    /// Median latency from the streaming sketch (always computed; the
    /// authoritative percentile source above [`EXACT_STATS_MAX`] finishes).
    pub sketch_p50_latency_s: f64,
    /// 99th-percentile latency from the streaming sketch.
    pub sketch_p99_latency_s: f64,
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `(0, 1]`):
/// the smallest element with at least a `q` fraction of the sample at or
/// below it. Well-defined for every sample size — a single-element slice
/// returns that element for every `q` (so p50/p95/p99 of a one-request run
/// all equal its latency), and `q = 1` returns the maximum; no index
/// arithmetic at the array edge.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    // `q > 0` makes rank ≥ 1 and `q ≤ 1` makes rank ≤ len, but float
    // rounding could break either bound; saturate instead of trusting it.
    let idx = rank.saturating_sub(1).min(sorted.len() - 1);
    sorted[idx]
}

/// The continuous-batching lifecycle state machine. See the module docs for
/// the driver contract.
pub struct Scheduler {
    policy: Box<dyn SchedulingPolicy>,
    batch_limit: usize,
    opts: SchedOptions,
    /// Not-yet-running requests (queued + preempted + swapped), sorted by
    /// `(ready_s, id)` so the eligible prefix is FCFS-ordered (`ready_s`
    /// equals `arrival_s` except for requests requeued off a crashed
    /// replica, which become eligible at the crash time). A deque so the
    /// common FCFS admission (`remove(0)`) is O(1) instead of shifting
    /// the whole backlog.
    pending: VecDeque<Request>,
    /// Admitted requests, in admission order (LIFO preemption indexes this).
    running: Vec<Request>,
    finished: Vec<Request>,
    clock: f64,
    prefill_time: f64,
    decode_time: f64,
    /// Time spent moving KV pages across the host link (swap preemption).
    swap_time: f64,
    preemptions: usize,
    /// Swap-out preemption events (host-tier spills).
    swap_outs: usize,
    /// Cumulative pages spilled to / restored from the host tier.
    swap_out_pages: usize,
    swap_in_pages: usize,
    /// Pages moved across the host link since the driver last drained the
    /// counter ([`Scheduler::take_tick_swap_pages`]) — what one tick must
    /// be priced for.
    tick_swap_pages: usize,
    /// Incremental twin of [`Scheduler::outstanding_tokens_scan`]: for every
    /// queued/running request, `owed = prefill_remaining() + remaining()`
    /// collapses to `input_len + output_len − prefilled`, so the counter
    /// only moves when `prefilled` changes or a request enters/leaves the
    /// pending∪running set. Keeping it current makes the router's per-
    /// arrival load probe O(1) instead of O(residents).
    outstanding: usize,
    /// Prefix tokens warmed by a cross-replica page migration, per sharing
    /// group: an imported pool's fully covered tokens are aliasable by new
    /// members even before any sibling runs here — the compute half of the
    /// migration (the page half lives in [`PageBudget::import_pool`]).
    warm_prefixes: std::collections::BTreeMap<u64, usize>,
    /// Time spent receiving migrated prefix pages over the peer link.
    migration_time: f64,
    /// Streaming end-to-end latency accumulator, fed once per retirement
    /// with the same `latency_s()` float the exact path reads later.
    latency_sketch: PercentileSketch,
}

/// Tokens of work still owed to one queued or running request.
fn owed(r: &Request) -> usize {
    r.prefill_remaining() + r.remaining()
}

impl Scheduler {
    /// Builds a scheduler over `requests` with a fixed concurrency limit and
    /// the legacy behavior (no sharing, whole-prompt prefill).
    ///
    /// # Panics
    /// Panics if `batch_limit` is zero or `requests` is empty.
    pub fn new(
        requests: Vec<Request>,
        batch_limit: usize,
        policy: Box<dyn SchedulingPolicy>,
    ) -> Self {
        Self::with_options(requests, batch_limit, policy, SchedOptions::default())
    }

    /// Builds a scheduler with explicit prefix-sharing / chunked-prefill
    /// options.
    ///
    /// # Panics
    /// Panics if `batch_limit` is zero, `requests` is empty, or a chunk size
    /// of zero tokens is requested.
    pub fn with_options(
        mut requests: Vec<Request>,
        batch_limit: usize,
        policy: Box<dyn SchedulingPolicy>,
        opts: SchedOptions,
    ) -> Self {
        assert!(!requests.is_empty(), "nothing to schedule");
        requests.sort_by(|a, b| {
            a.ready_s.total_cmp(&b.ready_s).then(a.id.cmp(&b.id))
        });
        let mut sched = Self::open(batch_limit, policy, opts);
        sched.outstanding = requests.iter().map(owed).sum();
        sched.pending = requests.into();
        sched
    }

    /// Builds an *open* scheduler with no requests yet: callers submit work
    /// incrementally via [`Scheduler::submit`] — how a cluster replica
    /// receives requests one routing decision at a time. Starts in the done
    /// state ([`Scheduler::is_done`]) until the first submission.
    ///
    /// # Panics
    /// Panics if `batch_limit` is zero or a chunk size of zero tokens is
    /// requested.
    pub fn open(batch_limit: usize, policy: Box<dyn SchedulingPolicy>, opts: SchedOptions) -> Self {
        assert!(batch_limit > 0, "batch limit must be positive");
        assert!(opts.chunk_tokens != Some(0), "chunk size must be positive");
        Self {
            policy,
            batch_limit,
            opts,
            pending: VecDeque::new(),
            running: Vec::new(),
            finished: Vec::new(),
            clock: 0.0,
            prefill_time: 0.0,
            decode_time: 0.0,
            swap_time: 0.0,
            preemptions: 0,
            swap_outs: 0,
            swap_out_pages: 0,
            swap_in_pages: 0,
            tick_swap_pages: 0,
            outstanding: 0,
            warm_prefixes: std::collections::BTreeMap::new(),
            migration_time: 0.0,
            latency_sketch: PercentileSketch::new(),
        }
    }

    /// Submits one more request, keeping the pending queue sorted by
    /// `(ready_s, id)`. The request becomes admissible once the clock
    /// reaches its ready time, exactly as if it had been present from
    /// construction.
    pub fn submit(&mut self, req: Request) {
        self.outstanding += owed(&req);
        let at = self
            .pending
            .partition_point(|r| (r.ready_s, r.id) <= (req.ready_s, req.id));
        self.pending.insert(at, req);
    }

    /// The sharing/chunking options this scheduler runs under — the single
    /// source of truth a driver must price ticks against.
    pub fn options(&self) -> SchedOptions {
        self.opts
    }

    /// Tokens of work still owed to queued + running requests: un-prefilled
    /// prompt/recompute tokens plus un-generated output tokens. The
    /// "outstanding work" a cluster router balances replicas by. O(1) — an
    /// incrementally maintained counter, audited against the full scan in
    /// debug builds.
    pub fn outstanding_tokens(&self) -> usize {
        debug_assert_eq!(
            self.outstanding,
            self.outstanding_tokens_scan(),
            "outstanding-token counter drifted from the ground-truth scan"
        );
        self.outstanding
    }

    /// Ground-truth recomputation of [`Scheduler::outstanding_tokens`] by
    /// scanning every queued + running request — O(residents). The retired
    /// step-driven reference driver still uses this, which is one of the
    /// per-arrival scans the event core's counter eliminates.
    #[doc(hidden)]
    pub fn outstanding_tokens_scan(&self) -> usize {
        self.pending.iter().chain(&self.running).map(owed).sum()
    }

    /// Current simulation clock, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Seconds this scheduler has spent doing work (prefill + decode +
    /// swap and migration transfers) — excludes idle gaps waiting for
    /// arrivals, so `busy ÷ makespan` is a cluster replica's utilization.
    /// (A zero migration term adds exactly `+0.0`, which cannot move any
    /// non-negative sum by a bit.)
    pub fn busy_time_s(&self) -> f64 {
        self.prefill_time + self.decode_time + self.swap_time + self.migration_time
    }

    /// All requests finished?
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// The running batch, in admission order.
    pub fn running(&self) -> &[Request] {
        &self.running
    }

    /// Current KV length of every running sequence, in admission order.
    pub fn running_seq_lens(&self) -> Vec<usize> {
        self.running.iter().map(|r| r.seq_len).collect()
    }

    /// KV lengths of the sequences that will decode this tick — the running
    /// requests whose (possibly chunked) prefill has completed. Without
    /// chunking every resident qualifies, so this equals
    /// [`Scheduler::running_seq_lens`].
    pub fn decoding_seq_lens(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.decoding_seq_lens_into(&mut out);
        out
    }

    /// Allocation-free twin of [`Scheduler::decoding_seq_lens`]: clears and
    /// refills `out` so a driver can reuse one scratch buffer per tick.
    pub fn decoding_seq_lens_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.running
                .iter()
                .filter(|r| r.prefill_remaining() == 0)
                .map(|r| r.seq_len),
        );
    }

    /// Longest prefix of `candidate`'s prompt already materialized by a
    /// resident member of its sharing group — the tokens a fork can alias
    /// instead of recomputing.
    fn shared_grant(&self, candidate: &Request) -> usize {
        let Some(group) = candidate.prefix_group else { return 0 };
        // A migrated-in prefix is aliasable even with no resident sibling:
        // its pages arrived warm over the peer link.
        let warm = self
            .warm_prefixes
            .get(&group)
            .map_or(0, |&t| t.min(candidate.prefix_len));
        self.running
            .iter()
            .filter(|r| r.prefix_group == Some(group))
            .map(|r| candidate.prefix_len.min(r.prefix_len).min(r.prefilled))
            .max()
            .unwrap_or(0)
            .max(warm)
    }

    /// Marks `tokens` of sharing group `group`'s prefix as warm: admitted
    /// members alias them like a resident sibling's pages. Installed by the
    /// cluster driver after a successful [`PageBudget::import_pool`]; kept
    /// at the maximum over repeated installs.
    pub fn install_warm_prefix(&mut self, group: u64, tokens: usize) {
        let slot = self.warm_prefixes.entry(group).or_insert(0);
        *slot = (*slot).max(tokens);
    }

    /// The finished requests (arbitrary completion order).
    pub fn finished(&self) -> &[Request] {
        &self.finished
    }

    /// The policy's report name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Preemption events so far (available before anything finishes,
    /// unlike [`Scheduler::stats`]).
    pub fn preemptions(&self) -> usize {
        self.preemptions
    }

    /// Number of pending requests that are eligible by the current clock.
    fn arrived(&self) -> usize {
        // `pending` is sorted by ready time, so the eligible set is a prefix.
        self.pending.partition_point(|r| r.ready_s <= self.clock)
    }

    /// Admission tick: repeatedly let the policy pick among arrived requests
    /// and the budget confirm, until the batch limit is hit, the policy
    /// holds, or the budget refuses. When the machine is idle the first
    /// arrived request is force-admitted past a holding policy — a policy
    /// may shape order, not deadlock the system.
    pub fn admit(&mut self, budget: &mut dyn KvBudget) -> AdmittedWave {
        let mut wave = AdmittedWave::default();
        self.admit_into(budget, &mut wave);
        wave
    }

    /// Allocation-free twin of [`Scheduler::admit`]: clears and refills
    /// `wave` in place so a driver can reuse one wave across ticks.
    pub fn admit_into(&mut self, budget: &mut dyn KvBudget, wave: &mut AdmittedWave) {
        wave.ids.clear();
        wave.prefill_lens.clear();
        wave.shared_lens.clear();
        while self.running.len() < self.batch_limit {
            let arrived = self.arrived();
            if arrived == 0 {
                break;
            }
            // Policies see the arrived prefix as one slice; a deque can
            // wrap, so straighten it first (amortized O(1): the queue only
            // wraps after front removals, and straightening is a rotate).
            if self.pending.as_slices().0.len() < arrived {
                self.pending.make_contiguous();
            }
            let choice = self
                .policy
                .select(&self.pending.as_slices().0[..arrived], &self.running, budget)
                .or_else(|| {
                    // Idle machine: progress beats policy caution.
                    (self.running.is_empty() && wave.ids.is_empty()).then_some(0)
                });
            let Some(idx) = choice else { break };
            assert!(idx < arrived, "policy selected an unarrived request");
            let candidate = &self.pending[idx];
            // A swapped-out candidate re-admits by swapping its pages back,
            // not by prefilling: its KV state survived eviction, so it joins
            // the batch directly (never part of the prefill wave) and the
            // driver prices the page transfer instead of recompute.
            if candidate.state == RequestState::Swapped {
                let id = candidate.id;
                let Some(pages) = budget.swap_in(id) else {
                    assert!(
                        !(self.running.is_empty() && wave.ids.is_empty()),
                        "request {:?} can never swap back onto an idle device",
                        id
                    );
                    break;
                };
                self.tick_swap_pages += pages;
                self.swap_in_pages += pages;
                let mut req = self.pending.remove(idx).expect("policy index in bounds");
                req.state = RequestState::Running;
                self.running.push(req);
                continue;
            }
            // Prefix-aware admission hold: when a resident sibling is still
            // chunk-prefilling a prefix this candidate could alias, admitting
            // now would recompute it privately. Holding a tick gets the
            // prefix for free — strictly less total work. (Whole-prompt
            // prefill materializes at admission, so it never holds.)
            if self.opts.share_prefixes && !self.running.is_empty() {
                let grant = self.shared_grant(candidate);
                let potential = candidate
                    .prefix_group
                    .map(|g| {
                        self.running
                            .iter()
                            .filter(|r| r.prefix_group == Some(g))
                            .map(|r| candidate.prefix_len.min(r.prefix_len))
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                if potential > grant {
                    break;
                }
            }
            let (group, shared) = if self.opts.share_prefixes {
                let grant = self.shared_grant(candidate);
                let resident = candidate.prefix_group.is_some_and(|g| {
                    self.running.iter().any(|r| r.prefix_group == Some(g))
                });
                // Share the group's page pool when actually aliasing
                // (grant > 0) or when founding it (no resident member). A
                // member that must recompute the prefix *while* a sibling is
                // still chunk-prefilling it holds a private copy — exactly
                // what the cache would do.
                let group = if grant > 0 || !resident { candidate.prefix_group } else { None };
                (group, grant)
            } else {
                (None, 0)
            };
            // Pages-wise, a founder's pool covers its whole prefix (it will
            // compute it); a joiner's coverage is exactly what it aliases.
            let pool_tokens = match (group, shared) {
                (None, _) => 0,
                (Some(_), 0) => candidate.prefix_len,
                (Some(_), grant) => grant,
            };
            if !budget.admit_shared(
                candidate.id,
                group,
                pool_tokens,
                candidate.prefill_len(),
                candidate.peak_len(),
            ) {
                assert!(
                    !(self.running.is_empty() && wave.ids.is_empty()),
                    "request {:?} (peak {} tokens) can never fit the KV budget",
                    candidate.id,
                    candidate.peak_len()
                );
                break;
            }
            let mut req = self.pending.remove(idx).expect("policy index in bounds");
            req.state = RequestState::Running;
            req.shared_len = shared;
            // Whole-prompt prefill materializes at admission; chunked
            // prefill starts from the aliased prefix and catches up via
            // `prefill_chunks` ticks.
            let was_prefilled = req.prefilled;
            req.prefilled = match self.opts.chunk_tokens {
                None => req.prefill_len(),
                Some(_) => shared,
            };
            req.seq_len = req.prefilled;
            // `prefilled` moved forward: the owed-work counter shrinks by
            // exactly the tokens materialized (or aliased) at admission.
            self.outstanding = self
                .outstanding
                .checked_sub(req.prefilled - was_prefilled)
                .expect("outstanding-token counter underflow at admission");
            wave.ids.push(req.id);
            wave.prefill_lens.push(req.prefill_len());
            wave.shared_lens.push(shared);
            self.running.push(req);
        }
    }

    /// One chunked-prefill tick: every running request still prefilling
    /// advances by at most `chunk_tokens` tokens and is reported as
    /// `(id, new_tokens, past_tokens)` — `past_tokens` being the context
    /// those new tokens attend over (aliased prefix + earlier chunks). The
    /// driver prices the returned chunks (e.g. via
    /// `attention_prefill_latency_chunked`) and calls
    /// [`Scheduler::charge_prefill`].
    ///
    /// # Panics
    /// Panics if `chunk_tokens` is zero.
    pub fn prefill_chunks(&mut self, chunk_tokens: usize) -> Vec<(RequestId, usize, usize)> {
        let mut out = Vec::new();
        self.prefill_chunks_into(chunk_tokens, &mut out);
        out
    }

    /// Allocation-free twin of [`Scheduler::prefill_chunks`]: clears and
    /// refills `out`.
    ///
    /// # Panics
    /// Panics if `chunk_tokens` is zero.
    pub fn prefill_chunks_into(
        &mut self,
        chunk_tokens: usize,
        out: &mut Vec<(RequestId, usize, usize)>,
    ) {
        assert!(chunk_tokens > 0, "chunk size must be positive");
        out.clear();
        let mut taken = 0usize;
        for r in &mut self.running {
            let remaining = r.prefill_remaining();
            if remaining > 0 {
                let take = remaining.min(chunk_tokens);
                out.push((r.id, take, r.prefilled));
                r.prefilled += take;
                r.seq_len = r.prefilled;
                taken += take;
            }
        }
        self.outstanding = self
            .outstanding
            .checked_sub(taken)
            .expect("outstanding-token counter underflow in chunked prefill");
    }

    /// Charges `dt` seconds of prefill work for the last admitted wave.
    pub fn charge_prefill(&mut self, dt: f64) {
        self.clock += dt;
        self.prefill_time += dt;
    }

    /// Pages moved across the host link since the last drain — swap-outs
    /// from [`Scheduler::make_room`] plus swap-ins from
    /// [`Scheduler::admit`]. The driver drains this once per tick, prices
    /// the transfer (e.g. [`qserve_gpusim::HostLink::transfer_latency`])
    /// and calls [`Scheduler::charge_swap`]; zero pages must be charged
    /// zero seconds.
    pub fn take_tick_swap_pages(&mut self) -> usize {
        std::mem::take(&mut self.tick_swap_pages)
    }

    /// Charges `dt` seconds of host-link transfer for this tick's swapped
    /// pages.
    pub fn charge_swap(&mut self, dt: f64) {
        self.clock += dt;
        self.swap_time += dt;
    }

    /// Charges `dt` seconds of peer-link transfer for a migrated-in prefix
    /// pool — the receiving replica stalls while the pages land. Zero pages
    /// must be charged zero seconds (the caller prices via
    /// [`qserve_gpusim::HostLink::transfer_latency`], which is exactly
    /// `0.0` for an empty transfer).
    pub fn charge_migration(&mut self, dt: f64) {
        self.clock += dt;
        self.migration_time += dt;
    }

    /// Seconds spent receiving migrated prefix pages.
    pub fn migration_time_s(&self) -> f64 {
        self.migration_time
    }

    /// Cumulative swap-out preemption events.
    pub fn swap_outs(&self) -> usize {
        self.swap_outs
    }

    /// Cumulative device pages spilled to the host tier.
    pub fn swap_out_pages(&self) -> usize {
        self.swap_out_pages
    }

    /// Cumulative device pages restored from the host tier.
    pub fn swap_in_pages(&self) -> usize {
        self.swap_in_pages
    }

    /// Evicts *everything* — running, swapped, and queued alike — exactly
    /// as a replica crash does: every budget holding is released, each
    /// victim's materialized state is wiped (KV gone; `generated` tokens
    /// are kept and re-owed honestly — re-admission recomputes prompt +
    /// generated, like recompute preemption), and the drained requests are
    /// returned in id order for the caller to requeue elsewhere. The
    /// second return is the materialized tokens lost to the crash.
    ///
    /// The scheduler itself survives (clock, finished list, statistics):
    /// a restarted replica resumes reporting where it left off.
    pub fn evict_all(&mut self, budget: &mut dyn KvBudget) -> (Vec<Request>, usize) {
        let mut victims: Vec<Request> = std::mem::take(&mut self.pending).into();
        victims.append(&mut self.running);
        let mut lost = 0usize;
        for req in &mut victims {
            match req.state {
                RequestState::Running | RequestState::Swapped => budget.release(req.id),
                _ => {}
            }
            // Wiping `prefilled` re-owes the work; queued victims had
            // nothing materialized, so they contribute zero.
            lost += req.prefilled;
            req.state = RequestState::Queued;
            req.seq_len = 0;
            req.prefilled = 0;
            req.shared_len = 0;
        }
        // Nothing is pending or running any more, so nothing is owed here;
        // the requeued requests will re-owe their work wherever they land.
        self.outstanding = 0;
        // Migrated-in prefixes died with the KV pool: the caller releases
        // the budget's anchors, and no future member may alias dead pages.
        self.warm_prefixes.clear();
        victims.sort_by(|a, b| a.id.cmp(&b.id));
        (victims, lost)
    }

    /// Advances the clock to `t` if it lags (no-op otherwise) — how a
    /// restarted replica skips its offline window without charging busy
    /// time.
    pub fn advance_clock_to(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Accounts one token of KV growth for every resident about to decode,
    /// preempting (policy-chosen victims, recompute-style) until the budget
    /// fits. Residents still in chunked prefill do not grow — their prompt
    /// footprint was reserved at admission. Returns the preempted ids. Call
    /// once per tick, before pricing the decode step, so the step is costed
    /// on the surviving batch.
    ///
    /// # Panics
    /// Panics if a lone resident cannot grow — the pool is too small for
    /// even one request, which admission should have refused.
    pub fn make_room(&mut self, budget: &mut dyn KvBudget) -> Vec<RequestId> {
        let mut preempted = Vec::new();
        let mut ids = Vec::new();
        self.make_room_into(budget, &mut ids, &mut preempted);
        preempted
    }

    /// Allocation-free twin of [`Scheduler::make_room`]: `ids` is internal
    /// scratch for the decodable-resident worklist, `preempted` receives the
    /// evicted ids; both are cleared and refilled.
    pub fn make_room_into(
        &mut self,
        budget: &mut dyn KvBudget,
        ids: &mut Vec<RequestId>,
        preempted: &mut Vec<RequestId>,
    ) {
        ids.clear();
        preempted.clear();
        ids.extend(
            self.running
                .iter()
                .filter(|r| r.prefill_remaining() == 0)
                .map(|r| r.id),
        );
        // Ids leave `running` during this call only as eviction victims:
        // either preempted (collected in `preempted`) or swapped out. A
        // membership check against those few victims replaces a full
        // O(running) rescan per id — same skip decision, linear tick.
        let mut swapped: Vec<RequestId> = Vec::new();
        for &id in ids.iter() {
            loop {
                if preempted.contains(&id) || swapped.contains(&id) {
                    break; // already evicted as someone else's victim
                }
                if budget.grow(id) {
                    break;
                }
                assert!(
                    self.running.len() > 1,
                    "KV budget cannot hold even one growing sequence (request {:?})",
                    id
                );
                let victim = self
                    .policy
                    .victim(&self.running)
                    .filter(|&v| v < self.running.len())
                    .unwrap_or(self.running.len() - 1);
                // Never evict the oldest resident: guarantees someone always
                // finishes, so preemption cannot livelock.
                let victim = victim.max(1);
                if self.opts.preemption == PreemptionMode::Swap {
                    if let Some(pages) = budget.swap_out(self.running[victim].id) {
                        self.tick_swap_pages += pages;
                        self.swap_out_pages += pages;
                        self.swap_outs += 1;
                        swapped.push(self.running[victim].id);
                        let mut req = self.running.remove(victim);
                        // KV state survives on the host tier: `seq_len` /
                        // `prefilled` are kept, so nothing is re-owed — the
                        // driver pays the page transfer, not recompute.
                        req.state = RequestState::Swapped;
                        let at = self.pending.partition_point(|r| {
                            (r.ready_s, r.id) <= (req.ready_s, req.id)
                        });
                        self.pending.insert(at, req);
                        continue;
                    }
                }
                preempted.push(self.running[victim].id);
                self.preempt(victim, budget);
            }
        }
    }

    fn preempt(&mut self, idx: usize, budget: &mut dyn KvBudget) {
        let mut req = self.running.remove(idx);
        budget.release(req.id);
        req.state = RequestState::Preempted;
        req.seq_len = 0;
        // Resetting `prefilled` re-owes the recompute work (prompt plus the
        // tokens generated so far): the counter grows by what was wiped.
        self.outstanding += req.prefilled;
        req.prefilled = 0;
        req.shared_len = 0;
        req.preemptions += 1;
        self.preemptions += 1;
        // Re-queue at its original ready slot so FCFS re-admits it first.
        let at = self.pending.partition_point(|r| {
            (r.ready_s, r.id) <= (req.ready_s, req.id)
        });
        self.pending.insert(at, req);
    }

    /// One decode step for the decodable part of the running batch: charges
    /// `dt`, advances every fully-prefilled resident by one token, stamps
    /// TTFTs, retires finished requests (releasing their budget) and returns
    /// their ids. Residents still in chunked prefill are untouched.
    ///
    /// # Panics
    /// Panics if no resident is ready to decode.
    pub fn decode_step(&mut self, dt: f64, budget: &mut dyn KvBudget) -> Vec<RequestId> {
        let mut done = Vec::new();
        self.decode_step_into(dt, budget, &mut done);
        done
    }

    /// Allocation-free twin of [`Scheduler::decode_step`]: clears and
    /// refills `done` with the retired ids.
    ///
    /// Advance, stamp and retire happen in one in-order pass over the
    /// running batch that compacts it in place: survivors keep their
    /// admission order, and retirees are released and pushed to `done` and
    /// the finished list in that same order. A tick that retires nothing
    /// moves no request.
    ///
    /// # Panics
    /// Panics if no resident is ready to decode.
    pub fn decode_step_into(
        &mut self,
        dt: f64,
        budget: &mut dyn KvBudget,
        done: &mut Vec<RequestId>,
    ) {
        self.clock += dt;
        self.decode_time += dt;
        let clock = self.clock;
        done.clear();
        let mut decoded = 0usize;
        let retiring = self.running.extract_if(.., |r| {
            if r.prefill_remaining() > 0 {
                return false;
            }
            r.seq_len += 1;
            r.generated += 1;
            // The decoded token is materialized context too: `prefilled`
            // tracks it so `prefill_remaining()` stays 0 while decoding.
            r.prefilled += 1;
            decoded += 1;
            if r.first_token_s.is_none() {
                r.first_token_s = Some(clock);
            }
            // Only a token decoded this tick can satisfy this (residents
            // never linger at their output length across ticks).
            r.generated == r.output_len
        });
        for mut req in retiring {
            budget.release(req.id);
            req.state = RequestState::Finished;
            req.finish_s = Some(clock);
            // A retiring request owes nothing (its final token was just
            // counted), so only the sketch needs feeding here — with the
            // very float the exact path reads from `finished` later.
            self.latency_sketch.insert(req.latency_s().expect("finished"));
            done.push(req.id);
            self.finished.push(req);
        }
        assert!(decoded > 0, "decode_step with no decodable resident");
        self.outstanding = self
            .outstanding
            .checked_sub(decoded)
            .expect("outstanding-token counter underflow in decode");
    }

    /// Advances the clock to the next pending arrival (no-op when something
    /// has already arrived).
    ///
    /// # Panics
    /// Panics if nothing is pending.
    pub fn idle_until_arrival(&mut self) {
        assert!(!self.pending.is_empty(), "idle with nothing pending");
        self.clock = self.clock.max(self.pending[0].ready_s);
    }

    /// The streaming latency accumulator, fed once per retirement — what
    /// cluster aggregation merges (in replica order) instead of re-reading
    /// every finished request.
    pub fn latency_sketch(&self) -> &PercentileSketch {
        &self.latency_sketch
    }

    /// Timing statistics over the finished requests. At or below
    /// [`EXACT_STATS_MAX`] completions the percentiles come from the exact
    /// sorted buffer (byte-stable with every golden CSV); above it the
    /// O(n log n) sort is skipped and the streaming sketch is authoritative.
    /// The `sketch_*` fields always carry the sketch's view, so the two
    /// paths can be compared on any run.
    ///
    /// # Panics
    /// Panics if nothing has finished yet.
    pub fn stats(&self) -> SchedulerStats {
        assert!(!self.finished.is_empty(), "stats before any completion");
        debug_assert_eq!(
            self.latency_sketch.len() as usize,
            self.finished.len(),
            "latency sketch missed a retirement"
        );
        let n = self.finished.len() as f64;
        let ttft_sum: f64 = self.finished.iter().map(|r| r.ttft_s().expect("finished")).sum();
        let (mean_latency_s, max_latency_s, p50, p95, p99) =
            if self.finished.len() <= EXACT_STATS_MAX {
                let mut latencies: Vec<f64> =
                    self.finished.iter().map(|r| r.latency_s().expect("finished")).collect();
                latencies.sort_by(f64::total_cmp);
                (
                    latencies.iter().sum::<f64>() / n,
                    *latencies.last().unwrap(),
                    percentile(&latencies, 0.50),
                    percentile(&latencies, 0.95),
                    percentile(&latencies, 0.99),
                )
            } else {
                let sk = &self.latency_sketch;
                (sk.mean(), sk.max(), sk.quantile(0.50), sk.quantile(0.95), sk.quantile(0.99))
            };
        SchedulerStats {
            clock_s: self.clock,
            prefill_time_s: self.prefill_time,
            decode_time_s: self.decode_time,
            completed: self.finished.len(),
            generated_tokens: self.finished.iter().map(|r| r.generated).sum(),
            mean_latency_s,
            max_latency_s,
            p50_latency_s: p50,
            p95_latency_s: p95,
            p99_latency_s: p99,
            mean_ttft_s: ttft_sum / n,
            preemptions: self.preemptions,
            swap_outs: self.swap_outs,
            swap_out_pages: self.swap_out_pages,
            swap_in_pages: self.swap_in_pages,
            swap_time_s: self.swap_time,
            sketch_p50_latency_s: self.latency_sketch.quantile(0.50),
            sketch_p99_latency_s: self.latency_sketch.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkloadSpec;

    fn drive(
        mut sched: Scheduler,
        budget: &mut dyn KvBudget,
        prefill_cost: f64,
        decode_cost: f64,
    ) -> SchedulerStats {
        let mut guard = 0usize;
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 1_000_000, "scheduler failed to converge");
            let wave = sched.admit(budget);
            if !wave.ids.is_empty() {
                sched.charge_prefill(prefill_cost * wave.ids.len() as f64);
            }
            if sched.running().is_empty() {
                sched.idle_until_arrival();
                continue;
            }
            sched.make_room(budget);
            if sched.running().is_empty() {
                continue;
            }
            sched.decode_step(decode_cost, budget);
        }
        sched.stats()
    }

    #[test]
    fn fcfs_completes_everything_in_order() {
        let reqs = WorkloadSpec::fixed(8, 4, 10).sample();
        let sched = Scheduler::new(reqs, 3, Box::new(Fcfs));
        let stats = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.generated_tokens, 40);
        assert!(stats.p50_latency_s <= stats.p95_latency_s);
        assert!(stats.p95_latency_s <= stats.p99_latency_s);
        assert!(stats.p99_latency_s <= stats.max_latency_s);
        assert!(stats.mean_ttft_s > 0.0 && stats.mean_ttft_s <= stats.mean_latency_s);
        assert_eq!(stats.preemptions, 0);
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        // One long job arrives first, shorts queue behind it; with batch 1,
        // SJF clears every short before the long one.
        let mut reqs = vec![crate::request::Request::new(crate::request::RequestId(0), 8, 64, 0.0)];
        for i in 1..5u64 {
            reqs.push(crate::request::Request::new(crate::request::RequestId(i), 8, 2, 0.0));
        }
        let sched = Scheduler::new(reqs.clone(), 1, Box::new(ShortestJobFirst));
        let sjf = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        let sched = Scheduler::new(reqs, 1, Box::new(Fcfs));
        let fcfs = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        assert!(
            sjf.mean_latency_s < fcfs.mean_latency_s,
            "SJF mean {} should beat FCFS {}",
            sjf.mean_latency_s,
            fcfs.mean_latency_s
        );
    }

    #[test]
    fn page_budget_tracks_cache_arithmetic() {
        let mut b = PageBudget::new(4, 2, 8, Reservation::OnDemand);
        let id = RequestId(0);
        assert!(b.admit(id, 5, 16)); // 2 pages × 2 layers
        assert_eq!(b.free_pages(), 4);
        for _ in 0..3 {
            assert!(b.grow(id)); // 6,7,8 tokens: still 2 pages
        }
        assert_eq!(b.free_pages(), 4);
        assert!(b.grow(id)); // 9 tokens: 3rd page on both layers
        assert_eq!(b.free_pages(), 2);
        b.release(id);
        assert_eq!(b.free_pages(), 8);
    }

    #[test]
    fn peak_reservation_never_fails_growth() {
        let mut b = PageBudget::new(4, 1, 4, Reservation::Peak);
        let id = RequestId(1);
        assert!(b.admit(id, 1, 16)); // all 4 pages reserved up front
        assert!(!b.admit(RequestId(2), 1, 4), "pool exhausted by the peak hold");
        for _ in 0..15 {
            assert!(b.grow(id));
        }
    }

    #[test]
    fn on_demand_budget_forces_preemption_and_still_completes() {
        // Pool: 16 pages × 4 tokens, 1 layer = 64 token slots. Four requests
        // peak at 34 tokens each (2+32): peak reservation fits one at a
        // time; on-demand admits all four (4×2=8 tokens to start) and must
        // preempt as they grow toward 4×34 = 136 > 64.
        let reqs = WorkloadSpec::fixed(2, 32, 4).sample();
        let mut budget = PageBudget::new(4, 1, 16, Reservation::OnDemand);
        let sched = Scheduler::new(reqs, 4, Box::new(MemoryAware { headroom: 0.0 }));
        let stats = drive(sched, &mut budget, 0.1, 0.01);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.generated_tokens, 128);
        assert!(stats.preemptions > 0, "tight pool must force preemption");
        assert_eq!(budget.free_pages(), budget.total_pages(), "all pages returned");
    }

    #[test]
    fn page_budget_pools_shared_prefix_pages() {
        // Page 4 tokens, 2 layers, 32-token shared prefix = 8 pool pages
        // per layer → 16 pool pages total. Each member privately holds its
        // 6 suffix+output... (peak 40 - 32 covered = 8 tokens = 2 pages ×
        // 2 layers = 4 pages).
        let mut b = PageBudget::new(4, 2, 64, Reservation::Peak);
        assert!(b.admit_shared(RequestId(0), Some(7), 32, 36, 40));
        assert_eq!(b.free_pages(), 64 - 16 - 4, "pool + first private part");
        assert!(b.admit_shared(RequestId(1), Some(7), 32, 36, 40));
        assert_eq!(b.free_pages(), 64 - 16 - 8, "second member joins the pool free");
        // An unshared admission of the same shape pays full freight.
        assert!(b.admit_shared(RequestId(2), None, 0, 36, 40));
        assert_eq!(b.free_pages(), 64 - 16 - 8 - 20);
        // Pool pages outlive the first member and free with the last.
        b.release(RequestId(0));
        assert_eq!(b.free_pages(), 64 - 16 - 4 - 20);
        b.release(RequestId(1));
        assert_eq!(b.free_pages(), 64 - 20);
        b.release(RequestId(2));
        assert_eq!(b.free_pages(), 64);
        assert_eq!(b.peak_pages(), 16 + 8 + 20, "high-water of unique pages");
    }

    #[test]
    fn page_budget_partial_prefix_page_stays_private() {
        // A 5-token prefix over 4-token pages shares only the one full page;
        // the boundary page is private (the cache would COW it).
        let mut b = PageBudget::new(4, 1, 16, Reservation::OnDemand);
        assert!(b.admit_shared(RequestId(0), Some(1), 5, 8, 8));
        // Pool: 1 page; private: 8 - 4 covered = 4 tokens = 1 page.
        assert_eq!(b.free_pages(), 14);
        // Below one page of sharing, the group is ignored outright.
        assert!(b.admit_shared(RequestId(1), Some(2), 3, 8, 8));
        assert_eq!(b.free_pages(), 12);
        b.release(RequestId(0));
        b.release(RequestId(1));
        assert_eq!(b.free_pages(), 16);
    }

    #[test]
    fn shared_admission_grants_resident_prefixes() {
        // Two tenants (groups 0 and 1), prefix 8, suffix 4, output 4. With
        // sharing on, the wave's later same-group members alias the first's
        // prefix.
        let mk = |id: u64, group: u64| {
            crate::request::Request::new(crate::request::RequestId(id), 12, 4, 0.0)
                .with_prefix(group, 8)
        };
        let reqs = vec![mk(0, 0), mk(1, 0), mk(2, 1), mk(3, 0)];
        let mut sched = Scheduler::with_options(
            reqs.clone(),
            4,
            Box::new(Fcfs),
            SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
        );
        let wave = sched.admit(&mut UnboundedBudget);
        assert_eq!(wave.prefill_lens, vec![12, 12, 12, 12]);
        assert_eq!(
            wave.shared_lens,
            vec![0, 8, 0, 8],
            "group 0's prefix is aliased once resident; group 1 pays its own"
        );
        // Sharing off: no grants.
        let mut sched = Scheduler::new(reqs, 4, Box::new(Fcfs));
        let wave = sched.admit(&mut UnboundedBudget);
        assert_eq!(wave.shared_lens, vec![0, 0, 0, 0]);
    }

    #[test]
    fn chunked_prefill_interleaves_and_completes() {
        // Prompts of 10 tokens, chunk 4: prefill takes ticks 1-3 (4+4+2)
        // while earlier-finished... then 5 decode ticks.
        let reqs = WorkloadSpec::fixed(10, 5, 3).sample();
        let mut sched = Scheduler::with_options(
            reqs,
            2,
            Box::new(Fcfs),
            SchedOptions { share_prefixes: false, chunk_tokens: Some(4), ..SchedOptions::default() },
        );
        let budget: &mut dyn KvBudget = &mut UnboundedBudget;
        let mut guard = 0;
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 10_000);
            let wave = sched.admit(budget);
            // Chunked admission materializes nothing up front.
            for (&id, &shared) in wave.ids.iter().zip(&wave.shared_lens) {
                let r = sched.running().iter().find(|r| r.id == id).unwrap();
                assert_eq!(r.prefilled, shared);
            }
            let chunks = sched.prefill_chunks(4);
            for &(_, new, past) in &chunks {
                assert!(new <= 4 && past + new <= 10);
            }
            if !chunks.is_empty() {
                sched.charge_prefill(0.1 * chunks.len() as f64);
            }
            sched.make_room(budget);
            if sched.decoding_seq_lens().is_empty() {
                continue;
            }
            sched.decode_step(0.01, budget);
        }
        let stats = sched.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.generated_tokens, 15);
        assert!(stats.prefill_time_s > 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn percentile_single_sample_well_defined_for_all_q() {
        // The single-request edge case: every percentile of a one-element
        // sample is that element — p50 == p95 == p99 == max, no index
        // arithmetic at the array edge.
        for q in [0.001, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[3.25], q), 3.25, "q = {}", q);
        }
        // Two samples: the nearest-rank split lands between them.
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
    }

    #[test]
    fn single_request_stats_have_degenerate_percentiles() {
        let reqs = WorkloadSpec::fixed(8, 4, 1).sample();
        let sched = Scheduler::new(reqs, 2, Box::new(Fcfs));
        let stats = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.p50_latency_s, stats.max_latency_s);
        assert_eq!(stats.p95_latency_s, stats.max_latency_s);
        assert_eq!(stats.p99_latency_s, stats.max_latency_s);
        assert_eq!(stats.mean_latency_s, stats.max_latency_s);
    }

    #[test]
    fn open_scheduler_with_submissions_matches_constructed() {
        // Submitting the same requests one by one to an open scheduler must
        // replay the constructed scheduler tick for tick — the identity the
        // 1-replica cluster equivalence rests on.
        let reqs = WorkloadSpec::mixed(12, 9)
            .with_arrivals(crate::request::ArrivalPattern::Uniform { rate_rps: 4.0 })
            .sample();
        let constructed = Scheduler::new(reqs.clone(), 3, Box::new(Fcfs));
        let mut open = Scheduler::open(3, Box::new(Fcfs), SchedOptions::default());
        assert!(open.is_done(), "an open scheduler starts drained");
        assert_eq!(open.outstanding_tokens(), 0);
        for r in reqs {
            open.submit(r);
        }
        assert!(!open.is_done());
        assert!(open.outstanding_tokens() > 0);
        let a = drive(constructed, &mut UnboundedBudget, 0.1, 0.01);
        let b = drive(open, &mut UnboundedBudget, 0.1, 0.01);
        assert_eq!(a, b);
    }

    #[test]
    fn outstanding_tokens_counts_owed_work() {
        let reqs = vec![crate::request::Request::new(crate::request::RequestId(0), 8, 4, 0.0)];
        let mut sched = Scheduler::new(reqs, 1, Box::new(Fcfs));
        assert_eq!(sched.outstanding_tokens(), 12);
        sched.admit(&mut UnboundedBudget);
        // Whole-prompt prefill materialized at admission: output remains.
        assert_eq!(sched.outstanding_tokens(), 4);
        sched.decode_step(0.01, &mut UnboundedBudget);
        assert_eq!(sched.outstanding_tokens(), 3);
    }

    #[test]
    fn outstanding_counter_survives_preemption_churn() {
        // The incremental counter must track the ground-truth scan through
        // the messiest path: on-demand admission, growth failure, preempt,
        // recompute re-admission. `outstanding_tokens()` debug-asserts the
        // two agree at every probe.
        let reqs = WorkloadSpec::fixed(2, 32, 4).sample();
        let mut budget = PageBudget::new(4, 1, 16, Reservation::OnDemand);
        let mut sched = Scheduler::new(reqs, 4, Box::new(MemoryAware { headroom: 0.0 }));
        let mut guard = 0usize;
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 100_000);
            sched.admit(&mut budget);
            assert_eq!(sched.outstanding_tokens(), sched.outstanding_tokens_scan());
            if sched.running().is_empty() {
                sched.idle_until_arrival();
                continue;
            }
            sched.make_room(&mut budget);
            assert_eq!(sched.outstanding_tokens(), sched.outstanding_tokens_scan());
            if sched.running().is_empty() {
                continue;
            }
            sched.decode_step(0.01, &mut budget);
            assert_eq!(sched.outstanding_tokens(), sched.outstanding_tokens_scan());
        }
        assert!(sched.stats().preemptions > 0, "the churn path was not exercised");
        assert_eq!(sched.outstanding_tokens(), 0);
    }

    #[test]
    fn stats_sketch_fields_track_exact_percentiles() {
        let reqs = WorkloadSpec::mixed(64, 9)
            .with_arrivals(crate::request::ArrivalPattern::Poisson { rate_rps: 8.0 })
            .sample();
        let sched = Scheduler::new(reqs, 4, Box::new(Fcfs));
        let stats = drive(sched, &mut UnboundedBudget, 0.05, 0.01);
        // Below EXACT_STATS_MAX the exact path is authoritative; the sketch
        // must agree to within one bucket width (2.2%) from below.
        for (exact, sketch) in [
            (stats.p50_latency_s, stats.sketch_p50_latency_s),
            (stats.p99_latency_s, stats.sketch_p99_latency_s),
        ] {
            assert!(
                sketch <= exact && exact <= sketch * (1.0 + 1.0 / 32.0),
                "sketch {sketch} vs exact {exact}"
            );
        }
    }

    #[test]
    fn staggered_arrivals_idle_correctly() {
        let reqs = WorkloadSpec::fixed(4, 2, 3)
            .with_arrivals(crate::request::ArrivalPattern::Uniform { rate_rps: 0.5 })
            .sample();
        let sched = Scheduler::new(reqs, 2, Box::new(Fcfs));
        let stats = drive(sched, &mut UnboundedBudget, 0.0, 0.1);
        assert_eq!(stats.completed, 3);
        // Last arrival at t=4s; the clock must have idled past it.
        assert!(stats.clock_s >= 4.0);
    }
}
