//! Differential oracle for the page ledger.
//!
//! [`PageBudget`] keeps its resident entries in a slab threaded on an
//! admission-order list, and `grow` tries a cursor hint before its id
//! index. None of that may change a single answer. This suite drives random
//! sequences of `admit_shared` / `grow` / `release` / `swap_out` /
//! `swap_in` / `import_pool` / `release_anchor` through a `PageBudget` and
//! through [`RefLedger`], a plain-`BTreeMap` model of the same arithmetic
//! kept here, and demands equal return values, free pages and peak pages
//! after every step, with the ledger's own audit passing throughout.
//!
//! The grow calls come both as in-order sweeps over the residents (what
//! the scheduler's `make_room` does, so the cursor hits) and as single
//! grows of random residents (so it misses). Ids come from a small pool,
//! so released and swapped ids are re-admitted and slab slots are reused.

use std::collections::{BTreeMap, BTreeSet};

use qserve_serve::request::RequestId;
use qserve_serve::scheduler::{KvBudget, PageBudget, Reservation};
use qserve_tensor::props;
use qserve_tensor::rng::TensorRng;

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    tokens: usize,
    reserved_per_layer: usize,
    group: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct RefSwapped {
    entry: RefEntry,
    pages: usize,
}

/// The reference ledger: every holding in an ordered map, every operation
/// a direct lookup.
struct RefLedger {
    page_tokens: usize,
    layers: usize,
    total: usize,
    free: usize,
    peak: usize,
    mode: Reservation,
    entries: BTreeMap<RequestId, RefEntry>,
    /// Group → (pages per layer, refs).
    pools: BTreeMap<u64, (usize, usize)>,
    anchors: BTreeSet<u64>,
    /// Host-tier capacity in pages (`None` = no tier).
    host_capacity: Option<usize>,
    host_used: usize,
    swapped: BTreeMap<RequestId, RefSwapped>,
}

impl RefLedger {
    fn new(page_tokens: usize, layers: usize, total: usize, mode: Reservation) -> Self {
        Self {
            page_tokens,
            layers,
            total,
            free: total,
            peak: 0,
            mode,
            entries: BTreeMap::new(),
            pools: BTreeMap::new(),
            anchors: BTreeSet::new(),
            host_capacity: None,
            host_used: 0,
            swapped: BTreeMap::new(),
        }
    }

    fn take(&mut self, pages: usize) {
        self.free = self.free.checked_sub(pages).expect("reference over-take");
        self.peak = self.peak.max(self.total.checked_sub(self.free).expect("free <= total"));
    }

    fn unref(&mut self, g: u64) {
        let pool = self.pools.get_mut(&g).expect("reference pool alive");
        pool.1 = pool.1.checked_sub(1).expect("reference refcount underflow");
        if pool.1 == 0 {
            self.free += pool.0 * self.layers;
            self.pools.remove(&g);
        }
    }

    fn admit_shared(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared: usize,
        start: usize,
        peak: usize,
    ) -> bool {
        let group = group.filter(|_| shared >= self.page_tokens);
        let (pool_need, covered) = match group {
            None => (0, 0),
            Some(g) => {
                let own = shared / self.page_tokens;
                match self.pools.get(&g) {
                    Some(&(held, _)) => (0, own.min(held) * self.page_tokens),
                    None => (own * self.layers, own * self.page_tokens),
                }
            }
        };
        let reserve = match self.mode {
            Reservation::Peak => peak,
            Reservation::OnDemand => start,
        };
        let per_layer = reserve.saturating_sub(covered).div_ceil(self.page_tokens);
        let need = per_layer * self.layers + pool_need;
        if need > self.free {
            return false;
        }
        self.take(need);
        if let Some(g) = group {
            self.pools.entry(g).or_insert((covered / self.page_tokens, 0)).1 += 1;
        }
        let entry = RefEntry {
            tokens: start.checked_sub(covered).expect("coverage within start"),
            reserved_per_layer: per_layer,
            group,
        };
        assert!(self.entries.insert(id, entry).is_none(), "reference double admit");
        true
    }

    fn grow(&mut self, id: RequestId) -> bool {
        let e = self.entries.get_mut(&id).expect("reference grow of a non-resident");
        e.tokens += 1;
        let need_per_layer = e.tokens.div_ceil(self.page_tokens);
        if need_per_layer <= e.reserved_per_layer {
            return true;
        }
        let need = (need_per_layer - e.reserved_per_layer) * self.layers;
        if need > self.free {
            e.tokens -= 1;
            return false;
        }
        e.reserved_per_layer = need_per_layer;
        self.take(need);
        true
    }

    fn release(&mut self, id: RequestId) {
        if let Some(e) = self.entries.remove(&id) {
            self.free += e.reserved_per_layer * self.layers;
            if let Some(g) = e.group {
                self.unref(g);
            }
        } else if let Some(s) = self.swapped.remove(&id) {
            self.host_used -= s.pages;
            if let Some(g) = s.entry.group {
                self.unref(g);
            }
        }
    }

    fn swap_out(&mut self, id: RequestId) -> Option<usize> {
        let capacity = self.host_capacity?;
        let e = self.entries[&id];
        let pages = e.reserved_per_layer * self.layers;
        if pages > capacity - self.host_used {
            return None;
        }
        self.entries.remove(&id);
        self.swapped.insert(id, RefSwapped { entry: e, pages });
        self.host_used += pages;
        self.free += pages;
        Some(pages)
    }

    fn swap_in(&mut self, id: RequestId) -> Option<usize> {
        let pages = self.swapped[&id].pages;
        if pages > self.free {
            return None;
        }
        let s = self.swapped.remove(&id).expect("checked above");
        self.host_used -= pages;
        self.take(pages);
        self.entries.insert(id, s.entry);
        Some(pages)
    }

    fn import_pool(&mut self, group: u64, pages_per_layer: usize) -> Option<usize> {
        if pages_per_layer == 0 || self.pools.contains_key(&group) {
            return None;
        }
        let need = pages_per_layer * self.layers;
        if need > self.free {
            return None;
        }
        self.take(need);
        self.pools.insert(group, (pages_per_layer, 1));
        self.anchors.insert(group);
        Some(need)
    }

    fn release_anchor(&mut self, group: u64) {
        if self.anchors.remove(&group) {
            self.unref(group);
        }
    }
}

/// The ledger under test, its reference, and the residents in admission
/// order (the order the scheduler's running batch keeps).
struct Pair {
    real: PageBudget,
    model: RefLedger,
    order: Vec<RequestId>,
}

impl Pair {
    fn check(&self, step: usize) {
        self.real.assert_consistent();
        assert_eq!(self.real.free_pages(), self.model.free, "free pages, step {step}");
        assert_eq!(self.real.peak_pages(), self.model.peak, "peak pages, step {step}");
        assert_eq!(self.real.host_used_pages(), self.model.host_used, "host pages, step {step}");
    }

    fn grow(&mut self, id: RequestId) -> bool {
        let got = self.real.grow(id);
        assert_eq!(got, self.model.grow(id), "grow({id:?})");
        got
    }

    fn release(&mut self, id: RequestId) {
        self.real.release(id);
        self.model.release(id);
        self.order.retain(|&r| r != id);
    }

    fn swap_out(&mut self, id: RequestId) -> Option<usize> {
        let got = self.real.swap_out(id);
        assert_eq!(got, self.model.swap_out(id), "swap_out({id:?})");
        if got.is_some() {
            self.order.retain(|&r| r != id);
        }
        got
    }

    /// Evicts the youngest resident, by swap when `swap` and the tier has
    /// room, else by release — the scheduler's LIFO victim.
    fn evict_last(&mut self, swap: bool) -> RequestId {
        let victim = *self.order.last().expect("a resident to evict");
        if !(swap && self.swap_out(victim).is_some()) {
            self.release(victim);
        }
        victim
    }

    /// One scheduler-style growth sweep: every resident grows once, in
    /// admission order; a refused grow evicts the youngest resident and
    /// retries, exactly like `make_room`.
    fn sweep(&mut self, swap: bool) {
        for id in self.order.clone() {
            loop {
                if !self.order.contains(&id) {
                    break; // evicted as an earlier grower's victim
                }
                if self.grow(id) {
                    break;
                }
                if self.order.len() == 1 {
                    self.release(id);
                    break;
                }
                self.evict_last(swap);
            }
        }
    }
}

fn random_ledger(rng: &mut TensorRng) -> Pair {
    let page_tokens = rng.int_in(1, 8) as usize;
    let layers = rng.int_in(1, 3) as usize;
    let total = rng.int_in(8, 96) as usize;
    let mode = if rng.int_in(0, 3) == 0 { Reservation::Peak } else { Reservation::OnDemand };
    let mut real = PageBudget::new(page_tokens, layers, total, mode);
    let mut model = RefLedger::new(page_tokens, layers, total, mode);
    if rng.int_in(0, 3) > 0 {
        let capacity = rng.int_in(0, 2 * total as i64) as usize;
        real.enable_host_tier(capacity);
        model.host_capacity = Some(capacity);
    }
    Pair { real, model, order: Vec::new() }
}

props! {
    /// The slab ledger answers every call exactly like the map-based
    /// reference, under random mixes of every ledger operation, with grows
    /// both in and out of admission order and ids reused after release.
    fn page_budget_matches_the_map_reference(rng) {
        let mut p = random_ledger(rng);
        let swap = p.model.host_capacity.is_some();
        let steps = rng.int_in(100, 400) as usize;
        for step in 0..steps {
            let id = RequestId(rng.int_in(0, 11) as u64);
            let resident = p.model.entries.contains_key(&id);
            let swapped = p.model.swapped.contains_key(&id);
            match rng.int_in(0, 9) {
                0 | 1 if !resident && !swapped => {
                    let start = rng.int_in(1, 40) as usize;
                    let peak = start + rng.int_in(0, 40) as usize;
                    let group = (rng.int_in(0, 2) > 0).then(|| rng.int_in(0, 3) as u64);
                    let shared = rng.int_in(0, start as i64) as usize;
                    let got = p.real.admit_shared(id, group, shared, start, peak);
                    assert_eq!(got, p.model.admit_shared(id, group, shared, start, peak));
                    if got {
                        p.order.push(id);
                    }
                }
                2 | 3 => p.sweep(swap),
                4 if resident => {
                    p.grow(id);
                }
                5 => p.release(id),
                6 if resident => {
                    p.swap_out(id);
                }
                7 if swapped => {
                    let got = p.real.swap_in(id);
                    assert_eq!(got, p.model.swap_in(id), "swap_in({id:?})");
                    if got.is_some() {
                        p.order.push(id);
                    }
                }
                8 => {
                    let group = rng.int_in(0, 3) as u64;
                    let pages_per_layer = rng.int_in(0, 4) as usize;
                    assert_eq!(
                        p.real.import_pool(group, pages_per_layer),
                        p.model.import_pool(group, pages_per_layer),
                        "import_pool({group}, {pages_per_layer})"
                    );
                }
                9 => {
                    let group = rng.int_in(0, 3) as u64;
                    p.real.release_anchor(group);
                    p.model.release_anchor(group);
                }
                _ => {}
            }
            p.check(step);
        }
        // Draining every holding returns the ledger to empty.
        for id in p.order.clone() {
            p.release(id);
        }
        for id in p.model.swapped.keys().copied().collect::<Vec<_>>() {
            p.release(id);
        }
        for group in 0..4 {
            p.real.release_anchor(group);
            p.model.release_anchor(group);
        }
        p.check(steps);
        assert_eq!(p.real.free_pages(), p.real.total_pages(), "drained ledger holds pages");
    }
}
