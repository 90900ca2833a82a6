//! Lazy calendar queue for polyphase (per-line) refresh scheduling.
//!
//! Refrint's polyphase policies track, per line, the *phase* of the
//! retention period in which the line was last updated, and refresh the
//! line at the start of that phase in the next retention period. We
//! implement this with a ring of phase-boundary buckets holding line ids:
//!
//! * `touch(line, cycle)` computes the line's next due boundary
//!   (`phase_floor(cycle) + retention`) and pushes the line into that
//!   boundary's bucket;
//! * re-touching a line simply *overwrites* its authoritative due cycle;
//!   the superseded bucket entry becomes stale and is filtered when its
//!   bucket is drained (lazy deletion — O(1) per touch, no search);
//! * `advance(to)` drains every boundary bucket up to `to`, invoking the
//!   policy callback for entries whose due cycle still matches.
//!
//! All due cycles are multiples of the phase length, so a bucket maps to
//! exactly one boundary at a time as long as the ring spans more than one
//! retention period (`ring_len = (2 * phases + 2).next_power_of_two()`;
//! rounding up to a power of two makes the bucket index a mask).
//!
//! **Steady rows (polyphase-valid only).** A line refreshed at boundary
//! `bq` and neither touched nor invalidated since is due again at every
//! `bq + k * phases`, so walking it once per period buys nothing. With
//! [`PolyphaseScheduler::with_steady_rows`], such a *steady* line leaves
//! the calendar: it is counted in `rows[bq % phases][bank]` instead, and
//! [`PolyphaseScheduler::advance_steady`] adds the whole row to the
//! refresh totals at each boundary — O(banks) — and walks only the lines
//! touched since their last refresh. A touch, or a
//! [`PolyphaseScheduler::retain_steady`] sweep after invalidations, takes
//! a steady line back out of its row. The state lives in the `due` array:
//! a queued line's due phase index is always `>= phases` (a touch adds
//! `phases` to a non-negative quotient), so an entry `r < phases` means
//! "steady in row `r`" with no extra per-line storage.
//!
//! `touch` sits on the L2 access hot path (every hit and fill of a
//! polyphase technique lands here), so the phase-floor computation avoids
//! hardware division: the phase length is inverted once at construction
//! into a 64-bit fixed-point reciprocal and each quotient is a widening
//! multiply plus shift (exact for the cycle ranges the simulator can
//! produce; see `PhaseDiv`).

use esteem_cache::{strict_assert, strict_assert_eq};

/// What the policy callback decided for a due line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DueAction {
    /// The line was refreshed; reschedule one retention period later.
    Refreshed,
    /// The line no longer needs scheduling (invalid, invalidated by RPD,
    /// or superseded).
    Drop,
}

/// Sentinel meaning "not scheduled".
const UNSCHEDULED: u32 = u32::MAX;

/// Steady-line populations, one row of per-bank counts per phase residue
/// (see the module docs).
#[derive(Debug, Clone)]
struct SteadyRows {
    /// `counts[r * banks + b]`: steady lines of bank `b` in row `r`.
    counts: Vec<u64>,
    banks: usize,
    /// Line ids are `set * ways + way`; banks stripe sets.
    ways: u32,
    bank_mask: u32,
}

impl SteadyRows {
    #[inline]
    fn slot(&self, row: u32, line: u32) -> usize {
        let set = if self.ways.is_power_of_two() {
            line >> self.ways.trailing_zeros()
        } else {
            line / self.ways
        };
        row as usize * self.banks + (set & self.bank_mask) as usize
    }
}

/// How many entries ahead the drain passes software-prefetch. Far enough
/// to cover an L3/memory load, near enough that the touched lines are
/// still cached when the walk arrives.
const DRAIN_LOOKAHEAD: usize = 8;

/// Division by a fixed phase length via a precomputed 64-bit reciprocal.
///
/// `magic = ceil(2^64 / d)`, so `(x * magic) >> 64 = floor(x/d)` whenever
/// `x * (magic*d - 2^64) < 2^64`; since the rounding excess is at most `d`,
/// gating on `d <= 2^20` makes the fast path exact for every `x < 2^44` —
/// far beyond any cycle count the simulator reaches (a full run is under
/// 2^40 cycles). Larger or unit divisors fall back to plain division.
#[derive(Debug, Clone, Copy)]
struct PhaseDiv {
    d: u64,
    /// `ceil(2^64 / d)` when the fast path applies, else 0.
    magic: u64,
}

impl PhaseDiv {
    fn new(d: u64) -> Self {
        assert!(d >= 1);
        let magic = if d > 1 && d <= (1 << 20) {
            (u128::from(u64::MAX) / u128::from(d) + 1) as u64
        } else {
            0
        };
        Self { d, magic }
    }

    /// `floor(x / d)`.
    #[inline]
    fn quot(&self, x: u64) -> u64 {
        let q = if self.d == 1 {
            x
        } else if self.magic != 0 {
            ((u128::from(x) * u128::from(self.magic)) >> 64) as u64
        } else {
            x / self.d
        };
        strict_assert_eq!(q, x / self.d, "reciprocal division wrong for x={x}");
        q
    }
}

#[derive(Debug, Clone)]
pub struct PolyphaseScheduler {
    phase_len: u64,
    /// Reciprocal divider for `phase_len` (the hot-path phase floor).
    phase_div: PhaseDiv,
    /// `retention / phase_len`: bucket distance of one retention period.
    phases: u64,
    ring: Vec<Vec<u32>>,
    /// `ring.len() - 1`; the ring length is a power of two.
    ring_mask: u64,
    /// Authoritative due boundary per line, stored as a phase index
    /// (`due_cycle / phase_len`, `UNSCHEDULED` if none). Touch and drain
    /// both hit this array at random line offsets, one entry per L2 line;
    /// u32 halves it so the working set stays cache-resident. Phase
    /// indices fit easily: a full run is under 2^40 cycles and the
    /// shortest real phase is tens of thousands of cycles.
    due: Vec<u32>,
    /// Next phase boundary not yet processed.
    next_boundary: u64,
    /// `next_boundary / phase_len`, maintained incrementally.
    next_boundary_quot: u64,
    /// Steady-line rows, when enabled ([`Self::with_steady_rows`]).
    steady: Option<SteadyRows>,
}

impl PolyphaseScheduler {
    pub fn new(retention_cycles: u64, phases: u8, total_lines: u64) -> Self {
        assert!(phases >= 1, "at least one phase");
        assert!(
            retention_cycles.is_multiple_of(u64::from(phases)),
            "retention ({retention_cycles}) must be a multiple of the phase count ({phases})"
        );
        let phase_len = retention_cycles / u64::from(phases);
        let ring_len = (2 * phases as usize + 2).next_power_of_two();
        Self {
            phase_len,
            phase_div: PhaseDiv::new(phase_len),
            phases: u64::from(phases),
            ring: vec![Vec::new(); ring_len],
            ring_mask: ring_len as u64 - 1,
            due: vec![UNSCHEDULED; total_lines as usize],
            next_boundary: phase_len,
            next_boundary_quot: 1,
            steady: None,
        }
    }

    /// Enables steady rows for a cache of `ways`-way sets striped over
    /// `banks` (a power of two) banks; line ids are `set * ways + way`.
    /// Only [`Self::advance_steady`] creates steady lines.
    pub fn with_steady_rows(mut self, ways: u8, banks: u8) -> Self {
        assert!(banks.is_power_of_two(), "banks must be a power of two");
        let banks = usize::from(banks);
        self.steady = Some(SteadyRows {
            counts: vec![0; self.phases as usize * banks],
            banks,
            ways: u32::from(ways),
            bank_mask: banks as u32 - 1,
        });
        self
    }

    /// Takes `line` out of steady row `row`.
    #[inline]
    fn leave_row(&mut self, line: u32, row: u32) {
        let rows = self.steady.as_mut().expect("steady line without rows");
        let i = rows.slot(row, line);
        rows.counts[i] -= 1;
    }

    /// Bucket of a boundary given its phase index (`boundary / phase_len`).
    #[inline]
    fn bucket_of_quot(&self, quot: u64) -> usize {
        (quot & self.ring_mask) as usize
    }

    /// Records a charge-restoring event (fill, hit, refresh) on `line` at
    /// `cycle`; the line's next refresh is due at the start of this phase,
    /// one retention period later.
    pub fn touch(&mut self, line: u32, cycle: u64) {
        // due = phase_floor(cycle) + retention; since retention is exactly
        // `phases` phase lengths, the due boundary's phase index is the
        // cycle's quotient plus `phases` — one quotient, no second divide.
        let q = self.phase_div.quot(cycle);
        let due_q = q + self.phases;
        // Hard (not debug) assert: a due quotient that reaches the u32
        // sentinel would alias UNSCHEDULED and silently never refresh the
        // line. Unreachable for real runs (< 2^40 cycles, phase lengths in
        // the tens of thousands), so the predictable branch is free.
        assert!(due_q < u64::from(UNSCHEDULED), "phase index overflows u32");
        // Touches never trail the drain point: the simulator reports
        // accesses at cycles >= the last `advance` target, so the due
        // boundary is always still ahead of the next one to process.
        strict_assert!(
            due_q >= self.next_boundary_quot,
            "touch at cycle {cycle} schedules an already-drained boundary"
        );
        let d = self.due[line as usize];
        if d == due_q as u32 {
            return; // re-touched within the same phase: already queued
        }
        if u64::from(d) < self.phases {
            self.leave_row(line, d);
        }
        self.due[line as usize] = due_q as u32;
        let b = self.bucket_of_quot(due_q);
        self.ring[b].push(line);
    }

    /// Currently scheduled due cycle of a line (for tests/invariants); for
    /// a steady line, the next boundary of its row.
    pub fn due_of(&self, line: u32) -> Option<u64> {
        match self.due[line as usize] {
            UNSCHEDULED => None,
            r if u64::from(r) < self.phases => {
                let nq = self.next_boundary_quot;
                let ahead = (u64::from(r) + self.phases - nq % self.phases) % self.phases;
                Some((nq + ahead) * self.phase_len)
            }
            d => Some(u64::from(d) * self.phase_len),
        }
    }

    /// Calls `f(line, cycle)` for every steady line with the boundary of
    /// its latest refresh: the latest processed boundary of its row. This
    /// is the retention clock the per-line walk would have written.
    pub fn for_each_steady(&self, mut f: impl FnMut(u32, u64)) {
        // Steady lines exist only once a boundary `>= phases` has been
        // processed, so `last >= phases > r` below.
        let last = self.next_boundary_quot - 1;
        for (line, &d) in self.due.iter().enumerate() {
            let r = u64::from(d);
            if r < self.phases {
                let q = last - (last - r) % self.phases;
                f(line as u32, q * self.phase_len);
            }
        }
    }

    /// Takes every steady line for which `keep` is false out of its row
    /// and unschedules it — one pass over all lines, for invalidations
    /// that happened outside the scheduler.
    pub fn retain_steady(&mut self, mut keep: impl FnMut(u32) -> bool) {
        for line in 0..self.due.len() as u32 {
            let d = self.due[line as usize];
            if u64::from(d) < self.phases && !keep(line) {
                self.leave_row(line, d);
                self.due[line as usize] = UNSCHEDULED;
            }
        }
    }

    /// Walks the bucket of boundary `bq`, calling `visit(line)` for every
    /// line genuinely due there; `visit` returns the line's new `due`
    /// entry, which is re-queued if it is a future boundary.
    fn drain_bucket(&mut self, bq: u64, mut visit: impl FnMut(u32) -> u32) {
        let b = self.bucket_of_quot(bq);
        // Swap the bucket out (not `mem::take`, which would free its
        // allocation: swapping back afterwards keeps the bucket's grown
        // capacity across ring revolutions instead of re-growing from
        // zero every period).
        let mut entries = Vec::new();
        std::mem::swap(&mut entries, &mut self.ring[b]);
        let mut kept = 0usize;
        for i in 0..entries.len() {
            // The due-cycle lookups hit `due` in schedule order —
            // random in memory; pull the entry a few iterations ahead
            // into cache while this one resolves.
            if let Some(&ahead) = entries.get(i + DRAIN_LOOKAHEAD) {
                esteem_cache::prefetch_read(&self.due[ahead as usize]);
            }
            let line = entries[i];
            let d = self.due[line as usize];
            if d != bq as u32 {
                // Not due at this boundary. Usually a stale entry
                // (re-touched into another bucket, dropped, or now
                // steady) to drop — but a line touched far enough ahead of
                // the drain point wraps the ring and lands in this bucket
                // for a *future* revolution; discarding it would lose its
                // refresh entirely (found by the differential checker:
                // repros div-0-{1,4,9}). Keep exactly the queued entries
                // whose authoritative due still maps here.
                if d != UNSCHEDULED
                    && u64::from(d) >= self.phases
                    && self.bucket_of_quot(u64::from(d)) == b
                {
                    strict_assert!(
                        u64::from(d) > bq,
                        "entry for a past boundary survived its drain"
                    );
                    entries[kept] = line;
                    kept += 1;
                }
                continue;
            }
            let nd = visit(line);
            self.due[line as usize] = nd;
            if nd != UNSCHEDULED && u64::from(nd) >= self.phases {
                // A re-queue is one retention period (`phases`
                // boundaries) ahead; `phases < ring_len`, so never bucket
                // `b` itself — the drained bucket stays empty while we
                // iterate.
                let nb = self.bucket_of_quot(u64::from(nd));
                self.ring[nb].push(line);
            }
        }
        strict_assert!(self.ring[b].is_empty(), "drained bucket repopulated");
        entries.truncate(kept);
        std::mem::swap(&mut entries, &mut self.ring[b]);
    }

    /// Processes all phase boundaries `<= to`, calling `on_due(line,
    /// boundary)` for every line genuinely due. A `Refreshed` answer
    /// reschedules the line one retention period later; `Drop` unschedules.
    pub fn advance(&mut self, to: u64, mut on_due: impl FnMut(u32, u64) -> DueAction) {
        while self.next_boundary <= to {
            let (boundary, bq) = (self.next_boundary, self.next_boundary_quot);
            let requeue = (bq + self.phases) as u32;
            self.drain_bucket(bq, |line| match on_due(line, boundary) {
                DueAction::Refreshed => requeue,
                DueAction::Drop => UNSCHEDULED,
            });
            self.next_boundary += self.phase_len;
            self.next_boundary_quot += 1;
        }
    }

    /// Steady-row form of [`Self::advance`] (requires
    /// [`Self::with_steady_rows`]): at each boundary `<= to`, adds the
    /// boundary's steady row to `bank_window`, then calls `refresh(line,
    /// boundary)` for every queued line due there. A line it refreshes
    /// (`true`) joins the row and is counted in `bank_window` too; one it
    /// cannot (`false`: invalid) is unscheduled. Returns the number of
    /// refreshes. Steady lines must all still need refreshing: callers
    /// take invalidated ones out with [`Self::retain_steady`] first.
    pub fn advance_steady(
        &mut self,
        to: u64,
        bank_window: &mut [u64],
        mut refresh: impl FnMut(u32, u64) -> bool,
    ) -> u64 {
        let mut rows = self.steady.take().expect("steady rows enabled");
        let mut total = 0u64;
        while self.next_boundary <= to {
            let (boundary, bq) = (self.next_boundary, self.next_boundary_quot);
            let row = (bq % self.phases) as u32;
            let counts = &rows.counts[row as usize * rows.banks..][..rows.banks];
            for (w, &n) in bank_window.iter_mut().zip(counts) {
                *w += n;
                total += n;
            }
            self.drain_bucket(bq, |line| {
                if !refresh(line, boundary) {
                    return UNSCHEDULED;
                }
                let i = rows.slot(row, line);
                rows.counts[i] += 1;
                bank_window[i % rows.banks] += 1;
                total += 1;
                row
            });
            self.next_boundary += self.phase_len;
            self.next_boundary_quot += 1;
        }
        self.steady = Some(rows);
        total
    }

    /// Steady lines in all rows (tests and invariant checks).
    pub fn steady_lines(&self) -> u64 {
        self.steady.as_ref().map_or(0, |r| r.counts.iter().sum())
    }

    pub fn phase_len(&self) -> u64 {
        self.phase_len
    }

    /// Total queued entries including stale ones (memory watermark,
    /// tests). Steady lines wait in no bucket and are not counted.
    pub fn queued_entries(&self) -> usize {
        self.ring.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect_refreshes(sched: &mut PolyphaseScheduler, to: u64) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        sched.advance(to, |line, at| {
            out.push((line, at));
            DueAction::Refreshed
        });
        out
    }

    #[test]
    fn untouched_line_never_refreshed() {
        let mut s = PolyphaseScheduler::new(100, 4, 8);
        let r = collect_refreshes(&mut s, 1000);
        assert!(r.is_empty());
    }

    #[test]
    fn touched_line_refreshed_once_per_period() {
        let mut s = PolyphaseScheduler::new(100, 4, 8);
        s.touch(3, 10); // phase 0 -> due at 100
        let r = collect_refreshes(&mut s, 350);
        // Due at 100, then rescheduled 200, 300.
        assert_eq!(r, vec![(3, 100), (3, 200), (3, 300)]);
    }

    #[test]
    fn phase_alignment() {
        let mut s = PolyphaseScheduler::new(100, 4, 8);
        s.touch(1, 60); // phase 2 (cycles 50..75) -> due at 150
        let r = collect_refreshes(&mut s, 160);
        assert_eq!(r, vec![(1, 150)]);
    }

    #[test]
    fn retouch_postpones_refresh() {
        let mut s = PolyphaseScheduler::new(100, 4, 8);
        s.touch(5, 10); // due 100
                        // Advance to 90, then re-touch at 95 (phase 3) -> due moves to 175.
        let r = collect_refreshes(&mut s, 90);
        assert!(r.is_empty());
        s.touch(5, 95);
        let r = collect_refreshes(&mut s, 174);
        assert!(r.is_empty(), "refresh at 100 must have been skipped");
        let r = collect_refreshes(&mut s, 175);
        assert_eq!(r, vec![(5, 175)]);
    }

    #[test]
    fn drop_action_stops_rescheduling() {
        let mut s = PolyphaseScheduler::new(100, 4, 8);
        s.touch(7, 0);
        let mut calls = 0;
        s.advance(400, |_, _| {
            calls += 1;
            DueAction::Drop
        });
        assert_eq!(calls, 1);
    }

    /// Advances through the steady-row path with every line valid;
    /// returns the refresh count and the per-bank window.
    fn steady_refreshes(s: &mut PolyphaseScheduler, to: u64, banks: usize) -> (u64, Vec<u64>) {
        let mut window = vec![0; banks];
        let n = s.advance_steady(to, &mut window, |_, _| true);
        (n, window)
    }

    #[test]
    fn steady_rows_count_untouched_lines_every_period() {
        // 4 ways, 2 banks: lines 0..4 are set 0 (bank 0), 4..8 set 1.
        let mut s = PolyphaseScheduler::new(100, 4, 16).with_steady_rows(4, 2);
        s.touch(1, 10); // due 100 (row 0)
        s.touch(5, 60); // due 150 (row 2)
        assert_eq!(steady_refreshes(&mut s, 150, 2), (2, vec![1, 1]));
        assert_eq!(s.steady_lines(), 2);
        assert_eq!(s.queued_entries(), 0, "steady lines leave the calendar");
        assert_eq!(s.due_of(1), Some(200));
        assert_eq!(s.due_of(5), Some(250));
        // Three more periods: each line once per period.
        assert_eq!(steady_refreshes(&mut s, 450, 2), (6, vec![3, 3]));
        let mut clocks = Vec::new();
        s.for_each_steady(|line, at| clocks.push((line, at)));
        assert_eq!(clocks, vec![(1, 400), (5, 450)]);
    }

    #[test]
    fn touch_and_retain_leave_steady_rows() {
        let mut s = PolyphaseScheduler::new(100, 4, 16).with_steady_rows(4, 2);
        s.touch(1, 0);
        s.touch(2, 0);
        s.touch(6, 0);
        assert_eq!(steady_refreshes(&mut s, 100, 2).0, 3);
        s.touch(1, 130); // leaves row 0; due 225
        s.retain_steady(|line| line != 6);
        assert_eq!(s.steady_lines(), 1);
        assert_eq!(s.due_of(6), None);
        assert_eq!(steady_refreshes(&mut s, 200, 2), (1, vec![1, 0]));
        assert_eq!(steady_refreshes(&mut s, 225, 2), (1, vec![1, 0]));
        assert_eq!(s.steady_lines(), 2);
        // Row 0 (line 2) at 300 and 400, row 1 (line 1) at 325.
        assert_eq!(steady_refreshes(&mut s, 400, 2), (3, vec![3, 0]));
    }

    #[test]
    #[should_panic(expected = "multiple of the phase count")]
    fn rejects_indivisible_retention() {
        PolyphaseScheduler::new(101, 4, 8);
    }

    /// Regression (differential checker, repros div-0-{1,4,9}): a touch
    /// more than `ring_len - phases` phases ahead of the drain point wraps
    /// the calendar ring into a bucket that is drained for an *earlier*
    /// boundary first; the drain used to discard the future-due entry,
    /// silently losing every subsequent refresh of the line.
    #[test]
    fn far_ahead_touch_survives_ring_wraparound() {
        // phases = 4 -> ring_len = 16, phase_len = 25. A touch at 505 is
        // due at 600 (phase index 24), which shares bucket 8 with the
        // boundary at 200 (phase index 8).
        let mut s = PolyphaseScheduler::new(100, 4, 8);
        s.touch(2, 505);
        let r = collect_refreshes(&mut s, 550);
        assert!(r.is_empty(), "nothing is due before 600, got {r:?}");
        let r = collect_refreshes(&mut s, 600);
        assert_eq!(
            r,
            vec![(2, 600)],
            "far-ahead entry was lost when bucket 8 drained at boundary 200"
        );
        // And the line keeps its periodic schedule afterwards.
        let r = collect_refreshes(&mut s, 800);
        assert_eq!(r, vec![(2, 700), (2, 800)]);
    }

    /// A touch exactly on a phase boundary belongs to the phase *starting*
    /// there: the refresh comes one full retention period later, not at
    /// the boundary one phase earlier.
    #[test]
    fn touch_exactly_on_boundary_schedules_full_period() {
        let mut s = PolyphaseScheduler::new(100, 4, 8);
        s.touch(6, 100);
        let r = collect_refreshes(&mut s, 199);
        assert!(r.is_empty());
        let r = collect_refreshes(&mut s, 200);
        assert_eq!(r, vec![(6, 200)]);
    }

    /// The largest phase index below the sentinel still schedules.
    #[test]
    fn touch_at_max_representable_phase_index_is_fine() {
        let mut s = PolyphaseScheduler::new(4, 4, 8); // phase_len = 1
        let cycle = u64::from(UNSCHEDULED) - 5; // due_q = u32::MAX - 1
        s.touch(0, cycle);
        assert_eq!(s.due_of(0), Some(u64::from(UNSCHEDULED) - 1));
    }

    /// One past it would alias UNSCHEDULED and silently drop the line —
    /// the guard must be a hard error, not a debug-only one.
    #[test]
    #[should_panic(expected = "overflows u32")]
    fn touch_one_past_max_phase_index_panics() {
        let mut s = PolyphaseScheduler::new(4, 4, 8);
        s.touch(0, u64::from(UNSCHEDULED) - 4); // due_q == the sentinel
    }

    proptest! {
        /// The fixed-point reciprocal agrees with hardware division across
        /// the divisor range it claims (including the gate boundaries).
        #[test]
        fn phase_div_matches_division(
            d in prop_oneof![1u64..=1 << 21, (1u64 << 20) - 2..(1 << 20) + 2, 1u64 << 20..1 << 32],
            x in 0u64..1 << 44,
        ) {
            let pd = PhaseDiv::new(d);
            prop_assert_eq!(pd.quot(x), x / d);
        }

        /// Safety: with a Refreshed answer to every due event, the gap
        /// between consecutive charge-restoring events of a line never
        /// exceeds one retention period plus one phase (the worst-case
        /// deferral of phase-floor alignment is < one phase).
        #[test]
        fn retention_never_violated(
            touches in proptest::collection::vec((0u32..16, 0u64..5_000), 1..300),
        ) {
            let retention = 400u64;
            let phases = 4u64;
            let mut s = PolyphaseScheduler::new(retention, phases as u8, 16);
            let mut sorted = touches.clone();
            sorted.sort_by_key(|&(_, c)| c);
            let mut last_restore = [None::<u64>; 16];
            let mut max_gap = 0u64;
            let mut clock = 0u64;
            let final_cycle = sorted.last().map(|&(_, c)| c).unwrap_or(0) + 3 * retention;
            sorted.push((0, final_cycle)); // flush the schedule at the end
            for (line, cycle) in sorted {
                let cycle = cycle.max(clock);
                // Drain due refreshes before this touch.
                let lr = &mut last_restore;
                let mg = &mut max_gap;
                s.advance(cycle, |l, at| {
                    if let Some(prev) = lr[l as usize] {
                        *mg = (*mg).max(at - prev);
                    }
                    lr[l as usize] = Some(at);
                    DueAction::Refreshed
                });
                s.touch(line, cycle);
                last_restore[line as usize] = Some(cycle);
                clock = cycle;
            }
            // Worst-case deferral from phase-floor alignment is < 1 phase.
            prop_assert!(
                max_gap <= retention + retention / phases,
                "charge-restore gap {max_gap} exceeds retention bound"
            );
        }
    }
}
