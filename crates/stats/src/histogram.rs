//! Log-linear latency histograms (HDR-style).
//!
//! A [`Histogram`] records non-negative integer samples (the stack uses
//! microseconds) into a fixed set of buckets arranged log-linearly:
//! tier 0 holds one bucket per value in `[0, 64)` (exact), and each
//! tier `t >= 1` covers `[64 * 2^(t-1), 64 * 2^t)` with 64 linear
//! sub-buckets of width `2^(t-1)`. Reporting a bucket by its highest
//! contained value bounds the relative quantile error at `1/64`
//! (~1.6%) for every representable value, values below 64 are exact,
//! and values at or beyond [`Histogram::MAX_TRACKABLE`] saturate into
//! the top bucket (counted in `saturated`, never lost).
//!
//! Recording is one relaxed `fetch_add` into a preallocated
//! `AtomicU64` slab — no allocation, no lock, shareable across threads
//! behind a plain `Arc`. Collection points take a cheap sparse
//! [`HistogramSnapshot`] (only occupied buckets), which is the value
//! type that flows through [`crate::StatsReading`]: snapshots merge
//! bucket-wise (associative, commutative), subtract for warm-up
//! deltas, and answer quantile queries by cumulative rank walk.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two tier. 64 gives ~1.6% max relative
/// error; tier 0 then covers `[0, 64)` exactly.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
/// Tiers beyond tier 0. Tier 33 tops out at `64 * 2^33 = 2^39`
/// (~6.4 days in microseconds) — far past any latency this stack can
/// legitimately report, while keeping a histogram at ~17 KiB.
const TIERS: u32 = 33;
const BUCKETS: usize = (SUB as usize) * (TIERS as usize + 1);

/// Bucket index for `v` (values >= MAX_TRACKABLE map to the top bucket).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    // v >= 64: msb >= 6. Tier t = msb - 5 covers [2^(t+5), 2^(t+6)).
    let msb = 63 - v.leading_zeros();
    let tier = (msb - SUB_BITS + 1).min(TIERS);
    let sub = (v >> (tier - 1)).saturating_sub(SUB).min(SUB - 1);
    (tier as usize) * (SUB as usize) + sub as usize
}

/// Lowest value mapping into bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    let tier = (i as u64) >> SUB_BITS;
    let sub = (i as u64) & (SUB - 1);
    if tier == 0 {
        sub
    } else {
        (SUB + sub) << (tier - 1)
    }
}

/// Highest value mapping into bucket `i` (the reported representative:
/// quantiles never under-estimate).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    let tier = (i as u64) >> SUB_BITS;
    if tier == 0 {
        bucket_lower(i)
    } else {
        bucket_lower(i) + (1u64 << (tier - 1)) - 1
    }
}

/// Concurrent fixed-size log-linear histogram. See the module docs for
/// the bucket scheme; all methods take `&self` and are thread-safe.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    saturated: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Values `>= MAX_TRACKABLE` saturate into the top bucket.
    pub const MAX_TRACKABLE: u64 = SUB << TIERS;

    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: one relaxed `fetch_add` per
    /// atomic touched, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples (merge paths, weighted records).
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if v >= Self::MAX_TRACKABLE {
            self.saturated.fetch_add(n, Ordering::Relaxed);
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sparse point-in-time copy. Under concurrent recording the
    /// snapshot is "torn but sane": every bucket count is a valid past
    /// value and `count()` is recomputed from the buckets so the
    /// invariant `sum of buckets == count` always holds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
                count += c;
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            saturated: self.saturated.load(Ordering::Relaxed),
        }
    }

    /// Folds a snapshot back in (cross-thread aggregation).
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        for &(i, c) in &snap.buckets {
            self.buckets[i as usize].fetch_add(c, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
        self.saturated.fetch_add(snap.saturated, Ordering::Relaxed);
    }
}

/// Immutable sparse snapshot of a [`Histogram`]: only occupied buckets,
/// ordered by bucket index. This is the `StatValue::Histogram` payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket_index, count)`, ascending by index, counts > 0.
    buckets: Vec<(u32, u64)>,
    count: u64,
    sum: u64,
    max: u64,
    saturated: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples that saturated at [`Histogram::MAX_TRACKABLE`].
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the highest value of the
    /// bucket containing the sample of rank `ceil(q * count)`. Exact
    /// for values < 64, within ~1.6% above (never an under-estimate
    /// of the bucketed sample). Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                // Never report past the true observed maximum.
                return bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// Bucket-wise sum. Associative and commutative; `max` takes the
    /// larger side.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    use std::cmp::Ordering::*;
                    match ia.cmp(&ib) {
                        Less => {
                            buckets.push((ia, ca));
                            a.next();
                        }
                        Greater => {
                            buckets.push((ib, cb));
                            b.next();
                        }
                        Equal => {
                            buckets.push((ia, ca + cb));
                            a.next();
                            b.next();
                        }
                    }
                }
                (Some(_), None) => {
                    buckets.extend(a.by_ref().copied());
                }
                (None, Some(_)) => {
                    buckets.extend(b.by_ref().copied());
                }
                (None, None) => break,
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
            saturated: self.saturated + other.saturated,
        }
    }

    /// `self - base`, bucket-wise saturating (warm-up deltas; a reset
    /// histogram must not wrap). `max` passes through unchanged — a
    /// maximum cannot be un-observed.
    pub fn delta_since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut count = 0u64;
        let mut bi = base.buckets.iter().peekable();
        for &(i, c) in &self.buckets {
            while bi.peek().is_some_and(|&&(j, _)| j < i) {
                bi.next();
            }
            let b = match bi.peek() {
                Some(&&(j, bc)) if j == i => bc,
                _ => 0,
            };
            let d = c.saturating_sub(b);
            if d > 0 {
                buckets.push((i, d));
                count += d;
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(base.sum),
            max: self.max,
            saturated: self.saturated.saturating_sub(base.saturated),
        }
    }

    /// Iterates occupied buckets as `(lower, upper, count)` with
    /// inclusive value bounds, ascending (the exposition and sparkline
    /// source).
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(i, c)| (bucket_lower(i as usize), bucket_upper(i as usize), c))
    }

    /// Collapses the occupied bucket range into at most `cells` groups
    /// of equal bucket-index width, returning each group's count — the
    /// input for a terminal sparkline. Empty snapshot -> empty vec.
    pub fn compact_cells(&self, cells: usize) -> Vec<u64> {
        if self.buckets.is_empty() || cells == 0 {
            return Vec::new();
        }
        let lo = self.buckets[0].0 as usize;
        let hi = self.buckets[self.buckets.len() - 1].0 as usize;
        let span = hi - lo + 1;
        let cells = cells.min(span);
        let mut out = vec![0u64; cells];
        for &(i, c) in &self.buckets {
            let cell = (i as usize - lo) * cells / span;
            out[cell] += c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_below_64_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), SUB);
        for (k, (lower, upper, c)) in s.iter_buckets().enumerate() {
            assert_eq!(lower, k as u64);
            assert_eq!(upper, k as u64, "tier-0 buckets hold exactly one value");
            assert_eq!(c, 1);
        }
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Every tier boundary and its neighbours land in the right
        // bucket: index(lower) == index(upper) == i, and index(upper+1)
        // == i+1.
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1, "first value past bucket {i}");
            assert!(hi < bucket_lower(i + 1), "buckets are disjoint");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // For a wide spread of values, the reported bucket upper bound
        // is >= v and within 1/64 relative error.
        let mut v = 1u64;
        while v < Histogram::MAX_TRACKABLE {
            let i = bucket_index(v);
            let rep = bucket_upper(i);
            assert!(rep >= v);
            let err = (rep - v) as f64 / v as f64;
            assert!(err <= 1.0 / 64.0 + 1e-9, "v={v} rep={rep} err={err}");
            v = v.saturating_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn saturation_at_representable_edge() {
        let h = Histogram::new();
        h.record(Histogram::MAX_TRACKABLE - 1);
        h.record(Histogram::MAX_TRACKABLE);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.saturated(), 2);
        assert_eq!(s.max(), u64::MAX);
        // All three land in representable buckets; nothing is lost.
        assert_eq!(s.iter_buckets().map(|(_, _, c)| c).sum::<u64>(), 3);
        // Quantiles cap at the representable edge (top bucket's upper
        // bound), the documented saturation semantics.
        assert_eq!(s.quantile(1.0), Histogram::MAX_TRACKABLE - 1);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        // A bimodal-ish spread.
        for v in [1u64, 2, 3, 50, 100, 1000, 1001, 5000, 100_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut prev = 0;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let v = s.quantile(q);
            assert!(v >= prev, "quantile must be monotone in q");
            prev = v;
        }
        assert_eq!(s.quantile(1.0), 100_000.min(s.max()));
        assert!(s.quantile(0.0) >= 1);
        // p50 of 10 samples = rank 5 = value 100.
        assert_eq!(s.quantile(0.5), 100);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 2, 3, 70, 900]);
        let b = mk(&[3, 70, 100_000]);
        let c = mk(&[0, 64, 65, 1 << 30]);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let all = a.merge(&b).merge(&c);
        assert_eq!(all.count(), 12);
        assert_eq!(all.sum(), a.sum() + b.sum() + c.sum());
        assert_eq!(all.max(), 1 << 30);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let (xs, ys) = ([5u64, 5, 900, 1 << 20], [0u64, 63, 64, 900]);
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        let all = Histogram::new();
        for &v in &xs {
            h1.record(v);
            all.record(v);
        }
        for &v in &ys {
            h2.record(v);
            all.record(v);
        }
        assert_eq!(h1.snapshot().merge(&h2.snapshot()), all.snapshot());
    }

    #[test]
    fn delta_since_subtracts_bucketwise() {
        let h = Histogram::new();
        h.record(10);
        h.record(500);
        let base = h.snapshot();
        h.record(10);
        h.record(7777);
        let d = h.snapshot().delta_since(&base);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 10 + 7777);
        let buckets: Vec<_> = d.iter_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (10, 10, 1));
        assert!(buckets[1].0 <= 7777 && 7777 <= buckets[1].1);
        // Delta against self is empty.
        let s = h.snapshot();
        assert!(s.delta_since(&s).is_empty());
        assert_eq!(s.delta_since(&s).count(), 0);
    }

    #[test]
    fn record_n_and_merge_snapshot_roundtrip() {
        let h = Histogram::new();
        h.record_n(42, 1000);
        let g = Histogram::new();
        g.merge_snapshot(&h.snapshot());
        g.record(42);
        let s = g.snapshot();
        assert_eq!(s.count(), 1001);
        assert_eq!(s.quantile(0.5), 42);
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    fn compact_cells_preserves_total_count() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 200, 5000, 5001, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        for n in [1usize, 2, 8, 16, 1000] {
            let cells = s.compact_cells(n);
            assert!(cells.len() <= n);
            assert_eq!(cells.iter().sum::<u64>(), s.count(), "cells={n}");
        }
        assert!(s.compact_cells(0).is_empty());
        assert!(HistogramSnapshot::default().compact_cells(8).is_empty());
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + (i % 97));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 40_000);
        assert_eq!(s.iter_buckets().map(|(_, _, c)| c).sum::<u64>(), 40_000);
    }
}
