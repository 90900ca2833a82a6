//! The refresh engine: drives a [`RefreshPolicy`] against a cache array.
//!
//! The engine is advanced to the current cycle once per simulation quantum
//! (the system simulator's outer loop). Between advances, the simulator
//! reports every charge-restoring demand event via [`RefreshEngine::on_access`]
//! (or [`RefreshEngine::on_access_batch`]) so the polyphase schedule
//! stays consistent with the cache contents.
//!
//! Polyphase-valid (RPV) keeps lines that were refreshed and not touched
//! since in per-phase, per-bank *steady rows* instead of walking them
//! every period (see [`crate::scheduler`]), so a phase boundary costs
//! O(banks) plus one visit per line touched since its last refresh. Two
//! consequences for callers:
//!
//! * Lines the cache invalidates on its own (way turn-off,
//!   `invalidate_line`) leave their rows at the next `advance`, which
//!   notices them through the cache's monotone
//!   [`SetAssocCache::invalidated_lines`] counter and sweeps the steady
//!   lines once. (A queued line needs no such help: its visit finds it
//!   invalid and drops it.)
//! * A steady line's refreshes do not write its `last_update`. Readers of
//!   retention clocks call [`RefreshEngine::sync_last_update`] first; no
//!   report reads them.
//!
//! Each bank refreshes one line per cycle (pipelined, paper §6.1), so a
//! refresh op costs the bank exactly one cycle of availability; the counts
//! produced here feed both the energy model (`N_R`) and the
//! [`BankContention`](crate::BankContention) timing model.

use esteem_cache::{AccessOutcome, SetAssocCache};

use crate::errors::RetentionVariation;
use crate::policy::RefreshPolicy;
use crate::retention::RetentionSpec;
use crate::scheduler::{DueAction, PolyphaseScheduler};

/// Refresh/invalidation work performed by one `advance` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdvanceReport {
    pub refreshes: u64,
    /// Lines invalidated instead of refreshed: RPD's eager invalidations
    /// and multi-periodic's uncorrectable-failure scrubs.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
pub struct RefreshEngine {
    policy: RefreshPolicy,
    retention: RetentionSpec,
    ways: u8,
    sched: Option<PolyphaseScheduler>,
    /// Retention-variation model (multi-periodic policy only).
    variation: RetentionVariation,
    /// The cache's [`SetAssocCache::invalidated_lines`] at the last
    /// steady-row sweep (polyphase-valid only).
    seen_invalidations: u64,
    /// Next period boundary (periodic policies).
    next_period_end: u64,
    /// Per-bank refresh ops since the last [`Self::drain_bank_refreshes`].
    bank_window: Vec<u64>,
    total_refreshes: u64,
    total_invalidations: u64,
    /// Reusable scrub-victim buffer (multi-periodic policy): avoids a
    /// Vec allocation per scrub pass.
    scratch_victims: Vec<(u32, u8)>,
}

impl RefreshEngine {
    pub fn new(policy: RefreshPolicy, retention: RetentionSpec, cache: &SetAssocCache) -> Self {
        let g = *cache.geometry();
        let sched = policy.is_polyphase().then(|| {
            let s =
                PolyphaseScheduler::new(retention.period_cycles, policy.phases(), g.total_slots());
            // RPD's clean lines drop at their due boundary, so only RPV
            // can count untouched lines in rows instead of visiting them.
            if matches!(policy, RefreshPolicy::PolyphaseValid { .. }) {
                s.with_steady_rows(g.ways, g.banks)
            } else {
                s
            }
        });
        let first_period = match policy {
            RefreshPolicy::MultiPeriodic { periods, .. } => {
                retention.period_cycles * u64::from(periods.max(1))
            }
            _ => retention.period_cycles,
        };
        Self {
            policy,
            retention,
            ways: g.ways,
            sched,
            variation: RetentionVariation::default(),
            seen_invalidations: cache.invalidated_lines(),
            next_period_end: first_period,
            bank_window: vec![0; g.banks as usize],
            total_refreshes: 0,
            total_invalidations: 0,
            scratch_victims: Vec::new(),
        }
    }

    pub fn policy(&self) -> RefreshPolicy {
        self.policy
    }

    /// Overrides the retention-variation model (multi-periodic policy).
    pub fn with_variation(mut self, variation: RetentionVariation) -> Self {
        self.variation = variation;
        self
    }

    /// Reports a demand access (hit or fill): reads and writes restore the
    /// cell charge, which postpones the line's next polyphase refresh.
    #[inline]
    pub fn on_access(&mut self, outcome: &AccessOutcome, cycle: u64) {
        let id = self.line_id_outcome(outcome);
        if let Some(sched) = &mut self.sched {
            sched.touch(id, cycle);
        }
    }

    #[inline]
    fn line_id_outcome(&self, o: &AccessOutcome) -> u32 {
        o.set * u32::from(self.ways) + u32::from(o.way)
    }

    /// Whether [`Self::on_access`] has any effect under the active policy.
    /// Only the polyphase policies keep a per-line refresh schedule that
    /// demand accesses postpone; for the periodic policies the batched
    /// hot path can skip buffering access events entirely.
    #[inline]
    pub fn needs_access_feed(&self) -> bool {
        self.sched.is_some()
    }

    /// Batch counterpart of [`Self::on_access`]: replays a block's worth
    /// of `(outcome, cycle)` events in order. Because `on_access` only
    /// touches the polyphase schedule — which nothing reads until the next
    /// [`Self::advance`] — deferring the events to an end-of-block drain
    /// is observationally identical to feeding them per access.
    pub fn on_access_batch(&mut self, events: &[(AccessOutcome, u64)]) {
        let Some(sched) = &mut self.sched else {
            return;
        };
        for (o, cycle) in events {
            let id = o.set * u32::from(self.ways) + u32::from(o.way);
            sched.touch(id, *cycle);
        }
    }

    /// Advances refresh processing to `to_cycle`, performing every due
    /// refresh. For periodic policies this fires at retention-period
    /// boundaries; for polyphase policies at phase boundaries.
    pub fn advance(&mut self, cache: &mut SetAssocCache, to_cycle: u64) -> AdvanceReport {
        let mut report = AdvanceReport::default();
        match self.policy {
            RefreshPolicy::NoRefresh => {}
            RefreshPolicy::PeriodicAll => {
                while self.next_period_end <= to_cycle {
                    // Every *active slot* is refreshed, valid or not.
                    // Active slots stripe uniformly over banks (modules are
                    // contiguous set ranges, banks stripe sets, and both
                    // counts are powers of two), so distribute evenly.
                    let slots = cache.active_slots();
                    self.add_uniform(slots);
                    report.refreshes += slots;
                    self.next_period_end += self.retention.period_cycles;
                }
            }
            RefreshPolicy::PeriodicValid => {
                while self.next_period_end <= to_cycle {
                    // Borrow the per-bank counts directly: `cache` and
                    // `self.bank_window` are disjoint, so no copy is needed.
                    for (w, n) in self
                        .bank_window
                        .iter_mut()
                        .zip(cache.valid_lines_per_bank())
                    {
                        *w += n;
                        report.refreshes += n;
                    }
                    self.next_period_end += self.retention.period_cycles;
                }
            }
            RefreshPolicy::MultiPeriodic { periods, ecc_bits } => {
                let k = periods.max(1);
                let stretch = self.retention.period_cycles * u64::from(k);
                // Reuse the scrub-victim buffer across periods and calls.
                let mut victims = std::mem::take(&mut self.scratch_victims);
                while self.next_period_end <= to_cycle {
                    // Scrub pass over valid lines: refresh the survivors,
                    // invalidate the (deterministic) uncorrectable ones.
                    let g = *cache.geometry();
                    victims.clear();
                    cache.for_each_valid(|set, way, _| {
                        let line = set * u32::from(g.ways) + u32::from(way);
                        if self.variation.line_fails(line, k, ecc_bits) {
                            victims.push((set, way));
                        } else {
                            self.bank_window[g.bank_of(set) as usize] += 1;
                            report.refreshes += 1;
                        }
                    });
                    for &(set, way) in &victims {
                        cache.invalidate_line(set, way);
                        report.invalidations += 1;
                    }
                    self.next_period_end += stretch;
                }
                self.scratch_victims = victims;
            }
            RefreshPolicy::PolyphaseValid { .. } => {
                let sched = self.sched.as_mut().expect("polyphase has a scheduler");
                let split = split_line(self.ways);
                // Steady lines the cache invalidated on its own since the
                // last advance must leave their rows before rows count.
                if cache.invalidated_lines() != self.seen_invalidations {
                    self.seen_invalidations = cache.invalidated_lines();
                    sched.retain_steady(|line| {
                        let (set, way) = split(line);
                        cache.line(set, way).valid
                    });
                }
                report.refreshes +=
                    sched.advance_steady(to_cycle, &mut self.bank_window, |line, boundary| {
                        let (set, way) = split(line);
                        cache.refresh_line(set, way, boundary)
                    });
                #[cfg(feature = "strict-invariants")]
                {
                    // Rows count exactly the steady lines, all valid.
                    let mut steady = 0u64;
                    sched.for_each_steady(|line, _| {
                        let (set, way) = split(line);
                        assert!(cache.line(set, way).valid, "steady line {line} is invalid");
                        steady += 1;
                    });
                    assert_eq!(steady, sched.steady_lines(), "steady-row census drift");
                }
            }
            RefreshPolicy::PolyphaseDirty { .. } => {
                let sched = self.sched.as_mut().expect("polyphase has a scheduler");
                let split = split_line(self.ways);
                let g = *cache.geometry();
                let banks = &mut self.bank_window;
                sched.advance(to_cycle, |line, boundary| {
                    let (set, way) = split(line);
                    let l = cache.line(set, way);
                    if !l.valid {
                        return DueAction::Drop;
                    }
                    if l.dirty {
                        cache.refresh_line(set, way, boundary);
                        banks[g.bank_of(set) as usize] += 1;
                        report.refreshes += 1;
                        DueAction::Refreshed
                    } else {
                        // Clean and idle for a full period: drop it rather
                        // than spend a refresh — a later miss refetches it.
                        cache.invalidate_line(set, way);
                        report.invalidations += 1;
                        DueAction::Drop
                    }
                });
            }
        }
        self.total_refreshes += report.refreshes;
        self.total_invalidations += report.invalidations;
        report
    }

    fn add_uniform(&mut self, total: u64) {
        let b = self.bank_window.len() as u64;
        let base = total / b;
        let rem = (total % b) as usize;
        for (i, w) in self.bank_window.iter_mut().enumerate() {
            *w += base + u64::from(i < rem);
        }
    }

    /// Per-bank refresh ops since the previous drain; resets the window.
    /// The system simulator calls this at each contention-window boundary.
    pub fn drain_bank_refreshes(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        self.drain_bank_refreshes_into(&mut out);
        out
    }

    /// Allocation-free variant of [`Self::drain_bank_refreshes`]: copies
    /// the per-bank window into `out` (cleared first) and resets it. The
    /// hot simulator loop calls this with a reusable scratch buffer.
    pub fn drain_bank_refreshes_into(&mut self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.bank_window);
        self.bank_window.fill(0);
    }

    /// Lines queued for an individual visit in the polyphase scheduler,
    /// stale entries included (zero for periodic policies, which keep no
    /// queue). RPV's steady lines wait in rows, not in the queue, and are
    /// not counted. Interval-boundary observability: a growing queue is
    /// the signature of a refresh storm building up.
    pub fn queued_lines(&self) -> u64 {
        self.sched.as_ref().map_or(0, |s| s.queued_entries() as u64)
    }

    /// Writes the retention clock of every RPV steady line into `cache`:
    /// the latest boundary of its row, which is what a per-line refresh
    /// walk would have stored. Call it before reading `last_update`
    /// (oracle comparisons, retention-safety tests); a no-op for every
    /// other policy.
    pub fn sync_last_update(&self, cache: &mut SetAssocCache) {
        let Some(sched) = &self.sched else {
            return;
        };
        let split = split_line(self.ways);
        sched.for_each_steady(|line, at| {
            let (set, way) = split(line);
            cache.refresh_line(set, way, at);
        });
    }

    /// Lifetime refresh count (`N_R` deltas are taken from this).
    pub fn total_refreshes(&self) -> u64 {
        self.total_refreshes
    }

    pub fn total_invalidations(&self) -> u64 {
        self.total_invalidations
    }

    pub fn retention(&self) -> RetentionSpec {
        self.retention
    }
}

impl esteem_stats::StatsSource for RefreshEngine {
    /// Registers lifetime refresh work (`refreshes`, `invalidations`)
    /// into the stats tree.
    fn collect(&self, out: &mut esteem_stats::Scope<'_>) {
        out.counter("refreshes", self.total_refreshes);
        out.counter("invalidations", self.total_invalidations);
    }
}

/// Decomposes a packed line id back into `(set, way)`. The polyphase drain
/// does this once per due line; every real geometry has power-of-two
/// associativity, so prefer shift/mask over two hardware divisions (the
/// branch is on a captured constant, predicted after the first entry).
#[inline]
fn split_line(ways: u8) -> impl Fn(u32) -> (u32, u8) {
    let w = u32::from(ways);
    let shift = w.trailing_zeros();
    move |line: u32| {
        if w.is_power_of_two() {
            (line >> shift, (line & (w - 1)) as u8)
        } else {
            (line / w, (line % w) as u8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esteem_cache::CacheGeometry;

    fn cache() -> SetAssocCache {
        // 64 sets x 4 ways, 2 banks, 4 modules.
        let g = CacheGeometry::from_capacity(16 << 10, 4, 64, 2, 4);
        SetAssocCache::new(g, None)
    }

    fn ret(cycles: u64) -> RetentionSpec {
        RetentionSpec {
            period_cycles: cycles,
        }
    }

    #[test]
    fn periodic_all_refreshes_every_slot() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::PeriodicAll, ret(1000), &c);
        let r = e.advance(&mut c, 3000);
        // 3 periods x 256 slots.
        assert_eq!(r.refreshes, 3 * 256);
        let banks = e.drain_bank_refreshes();
        assert_eq!(banks, vec![384, 384]);
    }

    #[test]
    fn periodic_all_scales_with_active_slots() {
        let mut c = cache();
        for m in 0..4 {
            c.set_module_active_ways(m, 1, 0);
        }
        let mut e = RefreshEngine::new(RefreshPolicy::PeriodicAll, ret(1000), &c);
        let r = e.advance(&mut c, 1000);
        assert_eq!(r.refreshes, c.active_slots());
        assert_eq!(r.refreshes, 64); // 64 sets x 1 way, no leaders
    }

    #[test]
    fn periodic_valid_refreshes_only_valid() {
        let mut c = cache();
        // Fill 10 lines.
        for t in 0..10u64 {
            c.access(c.geometry().block_of(t + 1, (t % 64) as u32), false, 0);
        }
        let mut e = RefreshEngine::new(RefreshPolicy::PeriodicValid, ret(1000), &c);
        let r = e.advance(&mut c, 1000);
        assert_eq!(r.refreshes, 10);
    }

    #[test]
    fn access_feed_needed_only_for_polyphase() {
        let c = cache();
        for (policy, needed) in [
            (RefreshPolicy::NoRefresh, false),
            (RefreshPolicy::PeriodicAll, false),
            (RefreshPolicy::PeriodicValid, false),
            (RefreshPolicy::RPV, true),
        ] {
            let e = RefreshEngine::new(policy, ret(1000), &c);
            assert_eq!(e.needs_access_feed(), needed, "{policy:?}");
        }
    }

    #[test]
    fn batched_access_feed_matches_per_access_feed() {
        let mut c1 = cache();
        let mut c2 = c1.clone();
        let mut scalar = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c1);
        let mut batched = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c2);
        let mut events = Vec::new();
        for t in 0..200u64 {
            let b = c1.geometry().block_of(t % 9, (t * 7 % 64) as u32);
            let now = t * 37;
            let o1 = c1.access(b, t % 3 == 0, now);
            scalar.on_access(&o1, now);
            let o2 = c2.access(b, t % 3 == 0, now);
            assert_eq!(o1, o2);
            events.push((o2, now));
        }
        batched.on_access_batch(&events);
        let r1 = scalar.advance(&mut c1, 20_000);
        let r2 = batched.advance(&mut c2, 20_000);
        assert_eq!(r1, r2);
        assert_eq!(
            scalar.drain_bank_refreshes(),
            batched.drain_bank_refreshes()
        );
    }

    #[test]
    fn no_refresh_does_nothing() {
        let mut c = cache();
        c.access(42, true, 0);
        let mut e = RefreshEngine::new(RefreshPolicy::NoRefresh, ret(100), &c);
        assert_eq!(e.advance(&mut c, 1_000_000), AdvanceReport::default());
    }

    #[test]
    fn rpv_skips_retouched_lines() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c);
        let b = c.geometry().block_of(7, 3);
        let o = c.access(b, false, 10);
        e.on_access(&o, 10);
        // Keep touching the line every 400 cycles: it must never be
        // refreshed, because every touch restores the charge.
        let mut cycle = 10;
        for _ in 0..10 {
            cycle += 400;
            let r = e.advance(&mut c, cycle);
            assert_eq!(r.refreshes, 0, "retouched line refreshed at {cycle}");
            let o = c.access(b, false, cycle);
            e.on_access(&o, cycle);
        }
        // Stop touching: exactly one refresh per retention period follows.
        let r = e.advance(&mut c, cycle + 3000);
        assert!(r.refreshes >= 2 && r.refreshes <= 3, "got {}", r.refreshes);
    }

    #[test]
    fn rpv_refreshes_idle_valid_line_each_period() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c);
        let o = c.access(c.geometry().block_of(9, 1), true, 0);
        e.on_access(&o, 0);
        let r = e.advance(&mut c, 5000);
        assert_eq!(r.refreshes, 5);
        // The refresh at 1000 made the line steady: later refreshes
        // (2000..5000) come from its row and leave its clock implicit.
        assert_eq!(c.line(o.set, o.way).last_update, 1000);
        e.sync_last_update(&mut c);
        assert_eq!(c.line(o.set, o.way).last_update, 5000);
    }

    #[test]
    fn rpv_drops_evicted_lines() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c);
        let set = 5u32;
        // Fill the set's 4 ways then evict the first by a 5th block.
        for t in 1..=5u64 {
            let o = c.access(c.geometry().block_of(t, set), false, t);
            e.on_access(&o, t);
        }
        // 4 valid lines remain; one refresh each per period.
        let r = e.advance(&mut c, 1100);
        assert_eq!(r.refreshes, 4);
    }

    #[test]
    fn rpd_invalidates_clean_refreshes_dirty() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPD, ret(1000), &c);
        let clean = c.access(c.geometry().block_of(1, 0), false, 0);
        let dirty = c.access(c.geometry().block_of(1, 1), true, 0);
        e.on_access(&clean, 0);
        e.on_access(&dirty, 0);
        let r = e.advance(&mut c, 1000);
        assert_eq!(r.refreshes, 1);
        assert_eq!(r.invalidations, 1);
        assert!(!c.line(clean.set, clean.way).valid);
        assert!(c.line(dirty.set, dirty.way).valid);
        // The dirty line keeps being refreshed each period.
        let r = e.advance(&mut c, 3000);
        assert_eq!(r.refreshes, 2);
        assert_eq!(r.invalidations, 0);
    }

    #[test]
    fn reconfig_invalidation_unschedules() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c);
        let o = c.access(c.geometry().block_of(3, 9), false, 0);
        e.on_access(&o, 0);
        // The engine is not told; the line's visit finds it invalid.
        c.invalidate_line(o.set, o.way);
        assert_eq!(e.advance(&mut c, 10_000).refreshes, 0);
        assert_eq!(e.queued_lines(), 0);
    }

    /// Way turn-off and `invalidate_line` do not tell the engine; a
    /// steady line they invalidate must still stop being refreshed.
    #[test]
    fn silent_invalidation_of_steady_lines_stops_refreshes() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c);
        // Set 9 is in module 0 (16 sets per module); fill all 4 ways,
        // plus one line in set 40 (module 2).
        let mut outs: Vec<_> = (1..=4u64)
            .map(|t| c.access(c.geometry().block_of(t, 9), false, 0))
            .collect();
        outs.push(c.access(c.geometry().block_of(1, 40), false, 0));
        for o in &outs {
            e.on_access(o, 0);
        }
        // The refresh at 1000 makes all five lines steady.
        assert_eq!(e.advance(&mut c, 1000).refreshes, 5);
        assert_eq!(e.queued_lines(), 0, "steady lines wait in rows");
        // Shrink module 0 to one way: three of set 9's lines go.
        let out = c.set_module_active_ways(0, 1, 1500);
        assert_eq!(out.discards, 3);
        assert_eq!(e.advance(&mut c, 2000).refreshes, 2);
        // Then drop the set-40 line directly.
        c.invalidate_line(outs[4].set, outs[4].way);
        assert_eq!(e.advance(&mut c, 3000).refreshes, 1);
        let banks = e.drain_bank_refreshes();
        assert_eq!(banks.iter().sum::<u64>(), 8);
    }

    /// A touch takes a steady line out of its row; it is refreshed one
    /// retention period after the touch's phase, then rejoins a row.
    #[test]
    fn touch_moves_steady_line_to_its_new_phase() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c);
        let b = c.geometry().block_of(3, 5);
        let o = c.access(b, false, 0);
        e.on_access(&o, 0);
        assert_eq!(e.advance(&mut c, 1000).refreshes, 1);
        // Touch in phase [1500, 1750): next due 2500, not 2000.
        let o = c.access(b, false, 1600);
        e.on_access(&o, 1600);
        assert_eq!(e.advance(&mut c, 2499).refreshes, 0);
        assert_eq!(e.advance(&mut c, 2500).refreshes, 1);
        assert_eq!(e.advance(&mut c, 4500).refreshes, 2);
        e.sync_last_update(&mut c);
        assert_eq!(c.line(o.set, o.way).last_update, 4500);
    }

    #[test]
    fn multi_periodic_stretches_interval_and_scrubs() {
        let mut c = cache();
        // Fill 200 lines.
        for t in 0..200u64 {
            c.access(c.geometry().block_of(t / 64 + 1, (t % 64) as u32), false, 0);
        }
        let mut e = RefreshEngine::new(
            RefreshPolicy::MultiPeriodic {
                periods: 4,
                ecc_bits: 0,
            },
            ret(1000),
            &c,
        )
        .with_variation(crate::errors::RetentionVariation {
            weak_ppm: 100_000.0, // exaggerated so scrubs occur in 200 lines
            ..Default::default()
        });
        // Nothing happens for the first 3 nominal periods.
        assert_eq!(e.advance(&mut c, 3999), AdvanceReport::default());
        // At 4 periods: survivors refreshed, weak lines scrubbed.
        let r = e.advance(&mut c, 4000);
        assert!(r.refreshes > 0);
        assert!(r.invalidations > 0, "exaggerated variation must scrub");
        assert_eq!(r.refreshes + r.invalidations, 200);
        // Scrubbed lines are genuinely invalid now.
        assert_eq!(c.valid_lines(), r.refreshes);
        // A full cycle refreshes 4x less often than periodic-valid would.
        let r2 = e.advance(&mut c, 8000);
        assert_eq!(r2.refreshes + r2.invalidations, c.valid_lines());
    }

    #[test]
    fn queued_lines_reflects_polyphase_backlog() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::RPV, ret(1000), &c);
        assert_eq!(e.queued_lines(), 0);
        for t in 0..5u64 {
            let o = c.access(c.geometry().block_of(t + 1, t as u32), false, 0);
            e.on_access(&o, 0);
        }
        assert_eq!(e.queued_lines(), 5);
        // Periodic policies keep no queue at all.
        let p = RefreshEngine::new(RefreshPolicy::PeriodicAll, ret(1000), &c);
        assert_eq!(p.queued_lines(), 0);
    }

    #[test]
    fn bank_window_drains() {
        let mut c = cache();
        let mut e = RefreshEngine::new(RefreshPolicy::PeriodicAll, ret(1000), &c);
        e.advance(&mut c, 1000);
        let w1 = e.drain_bank_refreshes();
        assert_eq!(w1.iter().sum::<u64>(), 256);
        let w2 = e.drain_bank_refreshes();
        assert_eq!(w2.iter().sum::<u64>(), 0);
        assert_eq!(e.total_refreshes(), 256);
    }
}
