//! The modeled host-memory KV tier behind swap-style preemption.
//!
//! A [`HostTier`] is the ledger of KV pages that have been spilled off the
//! device by [`crate::PageBudget`]'s swap path: a bounded pool of host
//! pages plus, per swapped-out request, exactly what must come back on
//! swap-in (private token count, per-layer page reservation, and the
//! shared-prefix pool it still references). Shared prefix pages never move
//! — siblings keep reading them on device — so only *private* pages cross
//! the link, and the driver prices that transfer via
//! [`qserve_gpusim::HostLink`].
//!
//! Like the device ledger, every subtraction is checked: swapping back an
//! entry that was released in the meantime (or never parked) is ledger
//! corruption and fails loudly instead of minting pages.

use std::collections::BTreeMap;

use crate::request::RequestId;

/// Host-tier pages attached per device page when a simulated engine or
/// cluster replica serves with swap preemption. Host DRAM dwarfs device
/// HBM, so the tier is deliberately generous: swap policy, not host
/// capacity, decides preemption outcomes.
pub const HOST_TIER_PAGES_PER_DEVICE_PAGE: usize = 4;

/// What one swapped-out request holds in host memory — everything needed
/// to rebuild its device-side [`crate::PageBudget`] entry on swap-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwappedEntry {
    /// Tokens in the entry's private region at swap-out time.
    pub tokens: usize,
    /// Private pages per layer the entry held on device.
    pub reserved_per_layer: usize,
    /// Total pages across all layers — what moved over the link and what
    /// [`HostTier::used_pages`] accounts.
    pub pages: usize,
    /// Prefix-sharing pool the entry still references; its pages stayed
    /// on device, pinned by this reference.
    pub group: Option<u64>,
}

/// A bounded host-memory page pool holding swapped-out KV state.
#[derive(Debug, Clone)]
pub struct HostTier {
    capacity_pages: usize,
    used_pages: usize,
    swapped: BTreeMap<RequestId, SwappedEntry>,
}

impl HostTier {
    /// An empty tier of `capacity_pages` host pages.
    pub fn new(capacity_pages: usize) -> Self {
        Self { capacity_pages, used_pages: 0, swapped: BTreeMap::new() }
    }

    /// Total host pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Host pages currently holding swapped KV state.
    pub fn used_pages(&self) -> usize {
        self.used_pages
    }

    /// Host pages still free.
    pub fn free_pages(&self) -> usize {
        self.capacity_pages
            .checked_sub(self.used_pages)
            .expect("host tier ledger drift: used exceeds capacity")
    }

    /// Number of requests currently swapped out.
    pub fn len(&self) -> usize {
        self.swapped.len()
    }

    /// True when nothing is swapped out.
    pub fn is_empty(&self) -> bool {
        self.swapped.is_empty()
    }

    /// Whether `id` is currently swapped out.
    pub fn contains(&self, id: RequestId) -> bool {
        self.swapped.contains_key(&id)
    }

    /// Iterates the swapped entries in id order (deterministic).
    pub fn entries(&self) -> impl Iterator<Item = (RequestId, &SwappedEntry)> {
        self.swapped.iter().map(|(&id, e)| (id, e))
    }

    /// Total pages the entry for `id` holds.
    ///
    /// # Panics
    /// Panics when `id` is not swapped out — asking the size of released
    /// (or never-parked) holdings is ledger corruption.
    pub fn pages_of(&self, id: RequestId) -> usize {
        self.swapped
            .get(&id)
            .expect("swap-in of a request with no host-tier holdings (released or never swapped)")
            .pages
    }

    /// Parks `entry` for `id`, charging its pages against the tier.
    ///
    /// # Panics
    /// Panics if `id` is already parked or the tier lacks room — callers
    /// must check [`HostTier::free_pages`] first (the device budget does).
    pub fn park(&mut self, id: RequestId, entry: SwappedEntry) {
        assert!(
            entry.pages <= self.free_pages(),
            "host tier overflow: parking {} pages with {} free",
            entry.pages,
            self.free_pages()
        );
        self.used_pages += entry.pages;
        let prev = self.swapped.insert(id, entry);
        assert!(prev.is_none(), "request {:?} swapped out twice", id);
    }

    /// Removes and returns `id`'s entry for swap-in.
    ///
    /// # Panics
    /// Panics when `id` is not swapped out, and on any `checked_sub`
    /// drift between the entry and the used-page counter.
    pub fn take(&mut self, id: RequestId) -> SwappedEntry {
        let entry = self
            .swapped
            .remove(&id)
            .expect("swap-in of a request with no host-tier holdings (released or never swapped)");
        self.used_pages = self
            .used_pages
            .checked_sub(entry.pages)
            .expect("host tier ledger drift: entry pages exceed used");
        entry
    }

    /// Removes `id`'s entry if present (release of a swapped-out request
    /// that finished its life off-device — e.g. shed or crashed). Unlike
    /// [`HostTier::take`], absence is fine: release is idempotent.
    pub fn evict(&mut self, id: RequestId) -> Option<SwappedEntry> {
        let entry = self.swapped.remove(&id)?;
        self.used_pages = self
            .used_pages
            .checked_sub(entry.pages)
            .expect("host tier ledger drift: entry pages exceed used");
        Some(entry)
    }

    /// Audits the tier from first principles: the used-page counter must
    /// equal the sum over parked entries.
    ///
    /// # Panics
    /// Panics on drift.
    pub fn assert_consistent(&self) {
        let parked: usize = self.swapped.values().map(|e| e.pages).sum();
        assert_eq!(
            self.used_pages, parked,
            "host tier drift: used {} != parked {}",
            self.used_pages, parked
        );
        assert!(
            self.used_pages <= self.capacity_pages,
            "host tier overflow: used {} > capacity {}",
            self.used_pages,
            self.capacity_pages
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pages: usize) -> SwappedEntry {
        SwappedEntry { tokens: pages * 4, reserved_per_layer: pages, pages, group: None }
    }

    #[test]
    fn park_take_round_trip_conserves_pages() {
        let mut tier = HostTier::new(8);
        tier.park(RequestId(1), entry(3));
        tier.assert_consistent();
        assert_eq!(tier.used_pages(), 3);
        assert_eq!(tier.free_pages(), 5);
        assert!(tier.contains(RequestId(1)));
        assert_eq!(tier.pages_of(RequestId(1)), 3);
        let back = tier.take(RequestId(1));
        assert_eq!(back, entry(3));
        tier.assert_consistent();
        assert_eq!(tier.used_pages(), 0);
        assert!(tier.is_empty());
    }

    #[test]
    fn evict_is_idempotent_but_take_is_loud() {
        let mut tier = HostTier::new(8);
        tier.park(RequestId(2), entry(2));
        assert_eq!(tier.evict(RequestId(2)), Some(entry(2)));
        assert_eq!(tier.evict(RequestId(2)), None, "second evict is a no-op");
        tier.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "no host-tier holdings")]
    fn take_after_release_fails_loudly() {
        let mut tier = HostTier::new(8);
        tier.park(RequestId(3), entry(2));
        tier.evict(RequestId(3));
        let _ = tier.take(RequestId(3));
    }

    #[test]
    #[should_panic(expected = "host tier overflow")]
    fn park_past_capacity_fails_loudly() {
        let mut tier = HostTier::new(2);
        tier.park(RequestId(4), entry(3));
    }

    #[test]
    #[should_panic(expected = "swapped out twice")]
    fn double_park_fails_loudly() {
        let mut tier = HostTier::new(8);
        tier.park(RequestId(5), entry(1));
        tier.park(RequestId(5), entry(1));
    }
}
