//! Property tests: refresh-safety invariants of the engine + cache
//! combination under arbitrary access streams.

use esteem_cache::{CacheGeometry, SetAssocCache};
use esteem_edram::{RefreshEngine, RefreshPolicy, RetentionSpec};
use proptest::prelude::*;

fn small_cache() -> SetAssocCache {
    // 16 sets x 4 ways, 2 banks.
    SetAssocCache::new(CacheGeometry::from_capacity(4 << 10, 4, 64, 2, 1), None)
}

const RETENTION: u64 = 1000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RPV safety: every *valid* line's charge age (now - last_update)
    /// never exceeds one retention period plus one phase of slack, no
    /// matter how accesses and engine advances interleave.
    #[test]
    fn rpv_never_violates_retention(
        steps in proptest::collection::vec((0u64..200, 1u64..40, any::<bool>()), 1..300),
    ) {
        let mut cache = small_cache();
        let mut eng = RefreshEngine::new(
            RefreshPolicy::RPV,
            RetentionSpec { period_cycles: RETENTION },
            &cache,
        );
        let phase = RETENTION / 4;
        let mut now = 0u64;
        for &(block, gap, write) in &steps {
            now += gap;
            eng.advance(&mut cache, now);
            let out = cache.access(block, write, now);
            eng.on_access(&out, now);
            // Steady lines' refreshes leave their clocks implicit.
            eng.sync_last_update(&mut cache);
            // Check the invariant over all valid lines at this instant.
            // A line is due at phase_floor(last_update) + RETENTION, and
            // the engine may lag by the un-advanced gap; the bound below
            // holds because we advanced to `now` first.
            cache.for_each_valid(|set, way, line| {
                let age = now.saturating_sub(line.last_update);
                assert!(
                    age <= RETENTION + phase,
                    "line ({set},{way}) aged {age} > bound at {now}"
                );
            });
        }
    }

    /// Refresh-count agreement: for an idle (untouched) population of
    /// valid lines, RPV performs exactly one refresh per line per
    /// retention period — the same count periodic-valid produces.
    #[test]
    fn idle_rpv_matches_periodic_valid(
        nlines in 1u64..60,
        periods in 1u64..6,
    ) {
        let mut c1 = small_cache();
        let mut c2 = small_cache();
        let mut rpv = RefreshEngine::new(
            RefreshPolicy::RPV,
            RetentionSpec { period_cycles: RETENTION },
            &c1,
        );
        let mut pv = RefreshEngine::new(
            RefreshPolicy::PeriodicValid,
            RetentionSpec { period_cycles: RETENTION },
            &c2,
        );
        // Fill both with the same lines at cycle 0 (phase 0), then idle.
        for b in 0..nlines {
            let o1 = c1.access(b, false, 0);
            rpv.on_access(&o1, 0);
            let o2 = c2.access(b, false, 0);
            pv.on_access(&o2, 0);
        }
        let horizon = RETENTION * periods;
        let r1 = rpv.advance(&mut c1, horizon);
        let r2 = pv.advance(&mut c2, horizon);
        prop_assert_eq!(r1.refreshes, r2.refreshes);
        prop_assert_eq!(r1.refreshes, c1.valid_lines() * periods);
    }

    /// Under any stream, RPV refreshes no more than periodic-valid would
    /// (touch-skips only ever remove refreshes) and at least zero.
    #[test]
    fn rpv_refresh_count_bounded_by_periodic_valid(
        steps in proptest::collection::vec((0u64..100, 1u64..30), 10..200),
    ) {
        let run = |policy: RefreshPolicy| {
            let mut cache = small_cache();
            let mut eng = RefreshEngine::new(
                policy,
                RetentionSpec { period_cycles: RETENTION },
                &cache,
            );
            let mut now = 0u64;
            let mut total = 0u64;
            for &(block, gap) in &steps {
                now += gap;
                total += eng.advance(&mut cache, now).refreshes;
                let out = cache.access(block, false, now);
                eng.on_access(&out, now);
            }
            // Drain one final full period so pending refreshes land.
            total += eng.advance(&mut cache, now + 2 * RETENTION).refreshes;
            total
        };
        let rpv = run(RefreshPolicy::RPV);
        let pv = run(RefreshPolicy::PeriodicValid);
        // One period of slack: RPV's phase alignment may defer a refresh
        // into the drain window that periodic-valid already performed.
        prop_assert!(
            rpv <= pv + 64,
            "RPV refreshed {rpv} > periodic-valid {pv} + slack"
        );
    }
}
