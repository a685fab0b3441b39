//! Probes shared by the traced runs: a counting page ledger, a timed
//! scheduling policy and the per-tick spans of a schedule replay. Each
//! wraps a public trait of `qserve_serve` or times calls to its public
//! methods; nothing here reaches inside the program.

use std::cell::Cell;
use std::sync::mpsc::Sender;

use qserve_serve::request::{Request, RequestId};
use qserve_serve::scheduler::{KvBudget, PageBudget, SchedulingPolicy};

use crate::host::Span;
use crate::metrics::Outcome;

/// Counts every call into a `PageBudget`; times `grow` when `timed`.
pub struct CountingLedger {
    inner: PageBudget,
    timed: bool,
    grow: Span,
    crossings: u64,
    refused: u64,
    admits: u64,
    releases: u64,
    swap_outs: u64,
    swap_ins: u64,
}

impl CountingLedger {
    /// Wraps `inner`.
    pub fn new(inner: PageBudget, timed: bool) -> Self {
        Self {
            inner,
            timed,
            grow: Span::default(),
            crossings: 0,
            refused: 0,
            admits: 0,
            releases: 0,
            swap_outs: 0,
            swap_ins: 0,
        }
    }

    /// Records the `ledger.*` metrics summed over `ledgers`.
    pub fn report(ledgers: &[CountingLedger], out: &mut Outcome) {
        let sum = |f: fn(&CountingLedger) -> u64| ledgers.iter().map(f).sum::<u64>();
        let (calls, crossings) = (sum(|l| l.grow.calls), sum(|l| l.crossings));
        out.set("ledger.grow.calls", calls as f64);
        out.set("ledger.grow_ms", ledgers.iter().map(|l| l.grow.ms()).sum());
        out.set("ledger.grow.page_crossings", crossings as f64);
        out.set(
            "ledger.grow.useful_ratio",
            crossings as f64 / calls.max(1) as f64,
        );
        out.set("ledger.grow.refused", sum(|l| l.refused) as f64);
        out.set("ledger.admit.calls", sum(|l| l.admits) as f64);
        out.set("ledger.release.calls", sum(|l| l.releases) as f64);
        out.set("ledger.swap_out.calls", sum(|l| l.swap_outs) as f64);
        out.set("ledger.swap_in.calls", sum(|l| l.swap_ins) as f64);
    }
}

impl KvBudget for CountingLedger {
    fn free_tokens(&self) -> usize {
        self.inner.free_tokens()
    }
    fn admit(&mut self, id: RequestId, start_tokens: usize, peak_tokens: usize) -> bool {
        self.admits += 1;
        self.inner.admit(id, start_tokens, peak_tokens)
    }
    fn admit_shared(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared_tokens: usize,
        start_tokens: usize,
        peak_tokens: usize,
    ) -> bool {
        self.admits += 1;
        self.inner
            .admit_shared(id, group, shared_tokens, start_tokens, peak_tokens)
    }
    /// A grow that changes the ledger's used-page count crossed a page
    /// boundary; the rest only bumped a token count.
    fn grow(&mut self, id: RequestId) -> bool {
        let before = self.inner.used_pages();
        let inner = &mut self.inner;
        let ok = self.grow.time_if(self.timed, || inner.grow(id));
        if !ok {
            self.refused += 1;
        } else if self.inner.used_pages() != before {
            self.crossings += 1;
        }
        ok
    }
    fn release(&mut self, id: RequestId) {
        self.releases += 1;
        self.inner.release(id);
    }
    fn swap_out(&mut self, id: RequestId) -> Option<usize> {
        self.swap_outs += 1;
        self.inner.swap_out(id)
    }
    fn swap_in(&mut self, id: RequestId) -> Option<usize> {
        self.swap_ins += 1;
        self.inner.swap_in(id)
    }
    fn peak_pages(&self) -> usize {
        self.inner.peak_pages()
    }
}

/// Host time in a scheduling policy's two calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicySpans {
    /// `SchedulingPolicy::select`.
    pub select: Span,
    /// `SchedulingPolicy::victim`.
    pub victim: Span,
}

impl PolicySpans {
    /// Folds another policy's spans into these.
    pub fn add(&mut self, other: PolicySpans) {
        self.select.add(other.select);
        self.victim.add(other.victim);
    }

    /// Records the `scheduler.select*` and `scheduler.victim*` metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("scheduler.select.calls", self.select.calls as f64);
        out.set("scheduler.select_ms", self.select.ms());
        out.set("scheduler.victim.calls", self.victim.calls as f64);
        out.set("scheduler.victim_ms", self.victim.ms());
    }
}

/// Times a scheduling policy's calls; sends the totals when the serve that
/// owns it drops it.
pub struct TracedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    spans: Cell<PolicySpans>,
    tx: Sender<PolicySpans>,
}

impl TracedPolicy {
    /// Wraps `inner`, reporting to `tx`.
    pub fn new(inner: Box<dyn SchedulingPolicy>, tx: Sender<PolicySpans>) -> Self {
        Self {
            inner,
            spans: Cell::default(),
            tx,
        }
    }
}

impl SchedulingPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn select(
        &self,
        waiting: &[Request],
        running: &[Request],
        budget: &dyn KvBudget,
    ) -> Option<usize> {
        let mut spans = self.spans.get();
        let pick = spans
            .select
            .time(|| self.inner.select(waiting, running, budget));
        self.spans.set(spans);
        pick
    }
    fn victim(&self, running: &[Request]) -> Option<usize> {
        let mut spans = self.spans.get();
        let pick = spans.victim.time(|| self.inner.victim(running));
        self.spans.set(spans);
        pick
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        // The receiver outlives the serve; a failed send means the trace
        // was abandoned and nobody needs the record.
        let _ = self.tx.send(self.spans.get());
    }
}

/// Counts and (when `timed`) host time at each scheduler tick boundary,
/// summed over a replay.
#[derive(Debug, Default)]
pub struct TickSpans {
    /// Whether the spans below are timed (counts always are).
    pub timed: bool,
    /// Ticks taken.
    pub ticks: u64,
    /// Admission (`admit`/`admit_into`).
    pub admit: Span,
    /// Chunked-prefill slicing.
    pub prefill_chunks: Span,
    /// Growth and preemption (`make_room`).
    pub make_room: Span,
    /// Gathering the decoding sequences' lengths.
    pub decode_lens: Span,
    /// The decode step and retirements.
    pub decode_step: Span,
    /// Cost-model pricing of prefill, swap and decode.
    pub price: Span,
    /// Ticks that decoded.
    pub decode_ticks: u64,
    /// Sequences decoded, summed over those ticks.
    pub decoded_seqs: u64,
}

impl TickSpans {
    /// Untimed (`timed == false`) or timed spans.
    pub fn new(timed: bool) -> Self {
        Self {
            timed,
            ..Self::default()
        }
    }

    /// Records the tick-level `scheduler.*` metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("scheduler.ticks", self.ticks as f64);
        out.set("scheduler.admit_ms", self.admit.ms());
        out.set("scheduler.prefill_chunks_ms", self.prefill_chunks.ms());
        out.set("scheduler.make_room_ms", self.make_room.ms());
        out.set("scheduler.decode_lens_ms", self.decode_lens.ms());
        out.set("scheduler.decode_step_ms", self.decode_step.ms());
        out.set(
            "scheduler.mean_decode_batch",
            self.decoded_seqs as f64 / self.decode_ticks.max(1) as f64,
        );
    }
}
