//! Unified statistics and observability for the ESTEEM simulator stack.
//!
//! Every simulated component (caches, refresh engine, bank contention,
//! main memory, cores, controllers) exposes its counters through one
//! mechanism instead of the system simulator hand-mirroring each one:
//!
//! * **Typed stats** — [`Counter`] (monotone event counts), [`Gauge`]
//!   (instantaneous values), and [`TimeWeighted`] (exact integer
//!   `value x cycles` integrals, replacing float accumulation whose
//!   summation order is a determinism hazard).
//! * **Distributions** — [`Histogram`], a lock-free log-linear (HDR
//!   style) bucketed histogram with ~1.6% bounded relative error,
//!   constant size, and no allocation on record; sparse
//!   [`HistogramSnapshot`]s are mergeable, delta-able, and answer
//!   quantile queries (the daemon's stage-latency p50/p95/p99).
//! * **Hierarchical collection** — components implement [`StatsSource`]
//!   and write their stats into a [`Scope`]; nesting scopes yields
//!   slash-separated paths (`"l2/hits"`, `"cores/0/instructions"`).
//!   One full collection pass produces a [`StatsReading`].
//! * **Warm-up snapshot/delta** — [`StatsRegistry`] stores the reading
//!   taken at the end of warm-up and subtracts it from the final
//!   reading, so reports only ever see post-warm-up deltas. This
//!   replaces the simulator's hand-written `Snapshot` struct and its
//!   field-by-field subtraction code.
//! * **Interval observation** — an [`IntervalObserver`] sink receives
//!   one [`IntervalSample`] per observation interval (per-module way
//!   counts, refresh/hit counters, energy-model inputs);
//!   [`JsonlSink`] streams them as JSON Lines (the
//!   `esteem-sim --interval-log PATH` flag).
//!
//! Collection is pull-based and read-only: components keep their bare
//! `u64` fields on the hot path and only materialize [`StatValue`]s at
//! collection points (warm-up boundary, observation intervals, end of
//! run), so the registry adds zero per-access cost and cannot perturb
//! simulation determinism.

pub mod histogram;
pub mod observer;
pub mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use observer::{read_interval_log, IntervalObserver, IntervalSample, JsonlSink};
pub use registry::{
    escape_label_value, labeled, Scope, StatValue, StatsReading, StatsRegistry, StatsSource,
};

/// A monotonically increasing event count.
///
/// A thin newtype over `u64` rather than an atomic: the simulator is
/// deterministic and single-threaded per run, and the wrapper exists to
/// mark intent (monotone; delta-meaningful) at collection boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    pub const fn new() -> Self {
        Counter(0)
    }

    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// An instantaneous value (no delta semantics; the latest sample wins).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(0.0)
    }

    #[inline]
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }

    #[inline]
    pub fn get(&self) -> f64 {
        self.0
    }
}

/// Exact integral of an integer quantity over cycles (`sum value_i * dt_i`).
///
/// Accumulates in `u128`, so the sum is associative and overflow-free for
/// any realistic run (a 4 MB cache has 2^16 slots; even 2^64 cycles of
/// full activity stays below 2^80). Time-averaged fractions are then one
/// division at report time instead of a float sum whose rounding depends
/// on accumulation order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeWeighted(u128);

impl TimeWeighted {
    pub const fn new() -> Self {
        TimeWeighted(0)
    }

    /// Adds `value` held constant over `cycles` cycles.
    #[inline]
    pub fn accumulate(&mut self, value: u64, cycles: u64) {
        self.0 += u128::from(value) * u128::from(cycles);
    }

    /// The raw `value x cycles` integral.
    #[inline]
    pub fn integral(&self) -> u128 {
        self.0
    }

    /// Mean value over a span: `integral / span_cycles` in f64.
    pub fn mean_over(&self, span_cycles: u64) -> f64 {
        if span_cycles == 0 {
            0.0
        } else {
            self.0 as f64 / span_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn gauge_latest_wins() {
        let mut g = Gauge::new();
        g.set(1.5);
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn time_weighted_is_exact_and_order_independent() {
        // Values chosen so naive f64 accumulation would round: u128 must
        // hold them exactly in any order.
        let mut a = TimeWeighted::new();
        let mut b = TimeWeighted::new();
        let items = [(u64::MAX / 4, 3u64), (1, 1), (1 << 40, 1 << 20)];
        for &(v, t) in &items {
            a.accumulate(v, t);
        }
        for &(v, t) in items.iter().rev() {
            b.accumulate(v, t);
        }
        assert_eq!(a, b);
        assert_eq!(
            a.integral(),
            items
                .iter()
                .map(|&(v, t)| u128::from(v) * u128::from(t))
                .sum::<u128>()
        );
    }

    #[test]
    fn time_weighted_mean() {
        let mut w = TimeWeighted::new();
        w.accumulate(10, 100);
        w.accumulate(20, 100);
        assert_eq!(w.mean_over(200), 15.0);
        assert_eq!(w.mean_over(0), 0.0);
    }
}
