//! Everything the benchmark reads from the host rather than from the
//! program under test: the wall clock, the command line, peak resident
//! memory and the environment line printed with every result. The
//! determinism lint forbids wall-clock and environment access outside the
//! timing modules, so each such use below carries a visible allow.

// lint: allow(wall-clock) -- the benchmark measures host time; this module is its only clock
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
// lint: allow(wall-clock) -- the benchmark's timer type
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer now.
    pub fn start() -> Self {
        // lint: allow(wall-clock) -- reading the benchmark's clock
        Self(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` once, returning its wall time in seconds and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let sw = Stopwatch::start();
    let out = f();
    (sw.secs(), out)
}

/// Calls into one layer boundary: how many, and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls recorded.
    pub calls: u64,
    /// Seconds spent inside them.
    pub secs: f64,
}

impl Span {
    /// Times one call of `f` into this span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (s, out) = timed(f);
        self.calls += 1;
        self.secs += s;
        out
    }

    /// [`Span::time`] when `on`; otherwise only runs `f`.
    pub fn time_if<R>(&mut self, on: bool, f: impl FnOnce() -> R) -> R {
        if on {
            self.time(f)
        } else {
            self.calls += 1;
            f()
        }
    }

    /// Milliseconds spent in the span.
    pub fn ms(&self) -> f64 {
        self.secs * 1e3
    }

    /// Folds another span's totals into this one.
    pub fn add(&mut self, other: Span) {
        self.calls += other.calls;
        self.secs += other.secs;
    }
}

/// The process's command-line arguments, program name excluded.
pub fn args() -> Vec<String> {
    // lint: allow(wall-clock) -- the benchmark reads its own command line
    std::env::args().skip(1).collect()
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or since start), in MiB: the kernel's `VmHWM`.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current resident size, so the
/// next [`peak_rss_mb`] sees only what happened after this call.
///
/// # Errors
/// When `/proc/self/clear_refs` is not writable.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS mark: {e}"))
}

/// The environment every result is tied to: the worker-pool width the
/// program actually runs with, the host's available parallelism and the
/// build profile.
pub fn env_line() -> String {
    format!(
        "env pool_threads={} nproc={} profile={}",
        qserve_tensor::pool::global().threads(),
        qserve_tensor::pool::default_parallelism(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}
