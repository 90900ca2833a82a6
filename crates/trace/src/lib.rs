//! Event tracing and self-profiling for the ESTEEM simulator stack.
//!
//! The interval log (`esteem-stats`) answers *what* each interval did;
//! this crate answers *why*: which module reconfigurations fired (and the
//! Algorithm 1 inputs that justified them), which refresh batches ran,
//! what the DRAM-contention model charged, where the harness's run cache
//! hit, and where simulator wall-time goes. Three layers:
//!
//! * **Events** — a typed [`TraceEvent`] taxonomy recorded through a
//!   cheap, cloneable [`Tracer`] handle into a [`TraceSink`] (the default
//!   [`RingTracer`] is a bounded drop-oldest ring buffer, so tracing a
//!   long run can never exhaust memory).
//! * **Self-profiling** — [`prof_span!`] wall-clock spans over the
//!   simulator quantum loop, controller intervals, the refresh engine,
//!   and harness experiment stages. Feature-gated (`self-profile`) *and*
//!   runtime-filtered, so a disabled tracer costs one branch per site.
//! * **Export** — Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`) and a compact JSONL event log the offline
//!   `esteem-analyze` analyzer consumes (see [`export`]).
//!
//! **Zero-cost-when-disabled contract.** A disabled tracer
//! ([`Tracer::off`], also `Default`) holds no allocation; every emit
//! site reduces to a `None` check and event construction is skipped
//! entirely (emission takes a closure). Tracing is a strictly read-only
//! tap: attaching a tracer must never change simulation results — the
//! golden-report tests in `esteem-harness` pin that down byte-for-byte.

pub mod event;
pub mod export;
pub mod filter;
pub mod prof;

pub use event::{EventKind, TraceEvent};
pub use filter::TraceFilter;
pub use prof::SpanGuard;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A destination for trace events. Implementations must be cheap per
/// record — the tracer already holds the lock when calling.
pub trait TraceSink: Send {
    fn record(&mut self, ev: TraceEvent);

    /// Events discarded so far (ring overflow); sinks that never drop
    /// report zero.
    fn dropped(&self) -> u64 {
        0
    }

    /// Takes every buffered event (oldest first). Streaming sinks that
    /// write through on record return nothing.
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Copies the buffered events without consuming them (oldest
    /// first). The flight recorder uses this so a live inspection
    /// never steals events from the eventual post-run drain.
    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Flushes buffered output, surfacing any deferred I/O error.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bounded drop-oldest ring buffer of events (the default sink).
///
/// Dropping the *oldest* events keeps the tail of the run — the part a
/// post-mortem usually cares about — and the drop count is reported so
/// an analyzer can state coverage honestly instead of silently
/// truncating.
#[derive(Debug)]
pub struct RingTracer {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingTracer {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            cap: capacity,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingTracer {
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }
}

/// Collects every event unboundedly (tests and short programmatic runs).
#[derive(Debug, Default)]
pub struct VecTraceSink {
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecTraceSink {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.clone()
    }
}

struct Shared {
    filter: TraceFilter,
    epoch: Instant,
    sink: Mutex<Box<dyn TraceSink>>,
}

/// A cheap, cloneable handle to a shared trace sink.
///
/// The disabled handle ([`Tracer::off`]) is a `None`: no allocation, and
/// every operation is a single branch. Enabled handles share one sink
/// behind a mutex — events are cold-path (interval/window granularity),
/// so contention is irrelevant, and a poisoned lock is recovered rather
/// than propagated (a tracer must never take down a sweep thread).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("on", &self.inner.is_some())
            .finish()
    }
}

impl Tracer {
    /// The disabled tracer: records nothing, costs one branch per site.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// A tracer recording into `sink`, keeping only kinds `filter` allows.
    pub fn new(sink: Box<dyn TraceSink>, filter: TraceFilter) -> Self {
        Self {
            inner: Some(Arc::new(Shared {
                filter,
                epoch: Instant::now(),
                sink: Mutex::new(sink),
            })),
        }
    }

    /// Convenience: a [`RingTracer`]-backed tracer.
    pub fn ring(capacity: usize, filter: TraceFilter) -> Self {
        Self::new(Box::new(RingTracer::new(capacity)), filter)
    }

    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events of `kind` are currently being recorded.
    #[inline]
    pub fn enabled(&self, kind: EventKind) -> bool {
        match &self.inner {
            None => false,
            Some(s) => s.filter.allows(kind),
        }
    }

    /// Records the event `build` produces, if `kind` is enabled. The
    /// closure runs only when the event will actually be kept, so emit
    /// sites pay nothing for construction when tracing is off.
    #[inline]
    pub fn emit(&self, kind: EventKind, build: impl FnOnce() -> TraceEvent) {
        if let Some(s) = &self.inner {
            if s.filter.allows(kind) {
                lock_sink(s).record(build());
            }
        }
    }

    /// Microseconds since this tracer was created (span timestamps).
    pub fn elapsed_us(&self) -> f64 {
        match &self.inner {
            None => 0.0,
            Some(s) => s.epoch.elapsed().as_secs_f64() * 1e6,
        }
    }

    /// Opens a wall-clock profiling span; the returned guard records a
    /// [`TraceEvent::Span`] when dropped. With the `self-profile` feature
    /// off, or span events disabled, this is a no-op guard.
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        prof::span(self, name)
    }

    /// Takes every buffered event from the sink (oldest first).
    pub fn drain(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(s) => lock_sink(s).drain(),
        }
    }

    /// Copies the buffered events without consuming them (oldest
    /// first) — a read-only tap for live inspection endpoints.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(s) => lock_sink(s).snapshot(),
        }
    }

    /// Events dropped by the sink so far.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(s) => lock_sink(s).dropped(),
        }
    }

    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            None => Ok(()),
            Some(s) => lock_sink(s).flush(),
        }
    }
}

fn lock_sink(s: &Shared) -> std::sync::MutexGuard<'_, Box<dyn TraceSink>> {
    // Poison recovery: a panicked thread elsewhere must not disable
    // tracing (the buffer is plain data, always consistent).
    s.sink.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refresh_ev(cycle: u64) -> TraceEvent {
        TraceEvent::RefreshBatch {
            cycle,
            refreshes: 1,
            invalidations: 0,
            pending: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_construction() {
        let t = Tracer::off();
        assert!(!t.is_on());
        let mut built = false;
        t.emit(EventKind::Refresh, || {
            built = true;
            refresh_ev(1)
        });
        assert!(!built, "construction must be skipped when off");
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.flush().is_ok());
    }

    #[test]
    fn filter_suppresses_disallowed_kinds() {
        let t = Tracer::ring(16, TraceFilter::none().with(EventKind::Reconfig));
        t.emit(EventKind::Refresh, || refresh_ev(5));
        t.emit(EventKind::Reconfig, || TraceEvent::ReconfigApply {
            cycle: 5,
            slot_transitions: 1,
            writebacks: 0,
            discards: 0,
        });
        let evs = t.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind(), EventKind::Reconfig);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::ring(3, TraceFilter::all());
        for c in 0..5 {
            t.emit(EventKind::Refresh, || refresh_ev(c));
        }
        assert_eq!(t.dropped(), 2);
        let evs = t.drain();
        assert_eq!(
            evs.iter().map(|e| e.cycle().unwrap()).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest events dropped first"
        );
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let t = Tracer::ring(8, TraceFilter::all());
        for c in 0..3 {
            t.emit(EventKind::Refresh, || refresh_ev(c));
        }
        assert_eq!(t.snapshot().len(), 3);
        assert_eq!(t.snapshot().len(), 3, "snapshot leaves the buffer intact");
        assert_eq!(t.drain().len(), 3, "drain still sees everything");
        assert!(t.snapshot().is_empty());
        assert!(Tracer::off().snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::ring(16, TraceFilter::all());
        let u = t.clone();
        t.emit(EventKind::Refresh, || refresh_ev(1));
        u.emit(EventKind::Refresh, || refresh_ev(2));
        assert_eq!(t.drain().len(), 2);
    }

    #[test]
    fn vec_sink_collects_unboundedly() {
        let t = Tracer::new(Box::new(VecTraceSink::default()), TraceFilter::all());
        for c in 0..100 {
            t.emit(EventKind::Refresh, || refresh_ev(c));
        }
        assert_eq!(t.drain().len(), 100);
        assert_eq!(t.dropped(), 0);
    }
}
