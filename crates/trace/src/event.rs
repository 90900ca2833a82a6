//! The typed event taxonomy (see DESIGN.md §12 for the narrative form).
//!
//! Every event is a self-contained record: it carries the simulated cycle
//! it happened at (or wall-clock microseconds for profiler spans) plus
//! the inputs that justified it, so an offline reader never needs the
//! simulator's state to interpret a trace. Events serialize with serde's
//! external tagging (`{"ReconfigDecision": {...}}`), one JSON object per
//! line in the compact JSONL log.

use esteem_stats::IntervalSample;
use serde::{Deserialize, Serialize};

/// Event classes, used by [`TraceFilter`](crate::TraceFilter) to select
/// what a tracer records and by the exporters to assign Perfetto tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Controller decisions and applied reconfigurations.
    Reconfig,
    /// Refresh batches performed by the refresh engine.
    Refresh,
    /// Bank-contention window rollovers (DRAM-contention stalls).
    Bank,
    /// Run-cache lookups in the experiment harness.
    RunCache,
    /// Interval observation samples bridged from `esteem-stats`.
    Interval,
    /// Wall-clock self-profiling spans (`prof_span!`).
    Span,
}

impl EventKind {
    /// All kinds, in filter-name order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Reconfig,
        EventKind::Refresh,
        EventKind::Bank,
        EventKind::RunCache,
        EventKind::Interval,
        EventKind::Span,
    ];

    /// The name used in `--trace-filter` lists.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Reconfig => "reconfig",
            EventKind::Refresh => "refresh",
            EventKind::Bank => "bank",
            EventKind::RunCache => "runcache",
            EventKind::Interval => "interval",
            EventKind::Span => "span",
        }
    }

    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    pub(crate) fn bit(self) -> u8 {
        match self {
            EventKind::Reconfig => 1 << 0,
            EventKind::Refresh => 1 << 1,
            EventKind::Bank => 1 << 2,
            EventKind::RunCache => 1 << 3,
            EventKind::Interval => 1 << 4,
            EventKind::Span => 1 << 5,
        }
    }
}

/// One structured trace event.
///
/// Cycle-stamped variants describe *simulated* time; [`TraceEvent::Span`]
/// describes *wall* time (microseconds since the tracer was created).
/// The two never share a Perfetto track.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// One module's Algorithm 1 decision at an interval boundary, with
    /// the inputs that justified it: the interval's leader-set hit mass,
    /// the anomaly count behind the non-LRU guard, and whether shrink
    /// confirmation deferred the request.
    ReconfigDecision {
        cycle: u64,
        module: u16,
        /// Active ways before the decision.
        prev_ways: u8,
        /// What Algorithm 1 asked for this interval.
        want_ways: u8,
        /// What was actually applied (damping may defer or clamp).
        applied_ways: u8,
        /// Total ATD hits the decision was computed over.
        total_hits: u64,
        /// Non-monotone LRU-position inversions counted by the guard.
        anomalies: u64,
        /// Whether the non-LRU guard limited turn-off.
        non_lru: bool,
        /// Whether shrink confirmation deferred the request this interval.
        deferred: bool,
        /// Valid lines resident in the module when the decision fired
        /// (the data at stake in a shrink).
        valid_lines: u64,
    },
    /// Aggregate work of one applied reconfiguration (all modules).
    ReconfigApply {
        cycle: u64,
        slot_transitions: u64,
        writebacks: u64,
        discards: u64,
    },
    /// One refresh-engine advance that performed work.
    RefreshBatch {
        cycle: u64,
        refreshes: u64,
        invalidations: u64,
        /// Lines still queued in the polyphase scheduler afterwards for
        /// an individual visit (zero for purely periodic policies; RPV's
        /// steady lines wait in rows and are not counted).
        pending: u64,
    },
    /// One bank-contention window rollover: the modelled DRAM-contention
    /// stall every demand access will pay over the next window.
    BankWindow {
        cycle: u64,
        /// Refresh operations folded into the closed window (all banks).
        refreshes: u64,
        /// Mean modelled wait per access, cycles.
        mean_wait: f64,
        /// Mean bank utilization over the closed window.
        utilization: f64,
    },
    /// One run-cache lookup in the experiment harness.
    RunCache { fingerprint: u64, hit: bool },
    /// One interval observation: the interval log's record (deltas over
    /// the interval).
    Interval(IntervalSample),
    /// One wall-clock self-profiling span.
    Span {
        name: String,
        /// Microseconds since the tracer's epoch.
        start_us: f64,
        /// Span duration, microseconds.
        dur_us: f64,
    },
}

impl TraceEvent {
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::ReconfigDecision { .. } | TraceEvent::ReconfigApply { .. } => {
                EventKind::Reconfig
            }
            TraceEvent::RefreshBatch { .. } => EventKind::Refresh,
            TraceEvent::BankWindow { .. } => EventKind::Bank,
            TraceEvent::RunCache { .. } => EventKind::RunCache,
            TraceEvent::Interval(_) => EventKind::Interval,
            TraceEvent::Span { .. } => EventKind::Span,
        }
    }

    /// Simulated cycle for cycle-stamped events; `None` for spans and
    /// run-cache lookups (which have no simulated timestamp).
    pub fn cycle(&self) -> Option<u64> {
        match *self {
            TraceEvent::ReconfigDecision { cycle, .. }
            | TraceEvent::ReconfigApply { cycle, .. }
            | TraceEvent::RefreshBatch { cycle, .. }
            | TraceEvent::BankWindow { cycle, .. } => Some(cycle),
            TraceEvent::Interval(ref s) => Some(s.cycle),
            TraceEvent::RunCache { .. } | TraceEvent::Span { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.name()), Some(k));
        }
        assert_eq!(EventKind::parse("bogus"), None);
    }

    #[test]
    fn event_kind_and_cycle() {
        let ev = TraceEvent::RefreshBatch {
            cycle: 100,
            refreshes: 3,
            invalidations: 0,
            pending: 7,
        };
        assert_eq!(ev.kind(), EventKind::Refresh);
        assert_eq!(ev.cycle(), Some(100));
        let span = TraceEvent::Span {
            name: "run".into(),
            start_us: 0.0,
            dur_us: 12.5,
        };
        assert_eq!(span.kind(), EventKind::Span);
        assert_eq!(span.cycle(), None);
    }

    #[test]
    fn events_serialize_externally_tagged_and_roundtrip() {
        let ev = TraceEvent::ReconfigDecision {
            cycle: 10_000_000,
            module: 3,
            prev_ways: 16,
            want_ways: 3,
            applied_ways: 16,
            total_hits: 18506,
            anomalies: 1,
            non_lru: false,
            deferred: true,
            valid_lines: 4096,
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.starts_with("{\"ReconfigDecision\":{"));
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }
}
