//! Layer replays for the traced simulator runs. Each layer's public entry
//! point runs on the inputs the traced run itself consumed, and its host
//! time is recorded with the operation count:
//!
//! * `workloads`: `AccessStream::fill_encoded`, one bundle per L1 access
//!   the core made;
//! * `cache`: `SetAssocCache::access_batch_l1` on that stream, then scalar
//!   `SetAssocCache::access` on the L2 geometry, fed the L1's misses and
//!   write-backs spread over the run in time;
//! * `edram`: `RefreshEngine::on_access_batch` (polyphase policies only),
//!   `RefreshEngine::advance` at every quantum boundary, and
//!   `drain_bank_refreshes_into` plus `BankContention::roll_window` once
//!   per window;
//! * `core`: `EsteemController::run_interval` at every interval (ESTEEM
//!   only), and the report build: `EnergyBreakdown::compute` plus
//!   `serde_json::to_string`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use esteem_cache::SetAssocCache;
use esteem_core::{EsteemController, SimReport, SystemConfig};
use esteem_edram::{BankContention, RefreshEngine};
use esteem_energy::{EnergyBreakdown, EnergyParams};
use esteem_workloads::{AccessStream, BenchmarkProfile};

/// Bundles per front-end refill; the simulator tops its buffer up a few
/// thousand at a time.
const BLOCK: usize = 4096;
/// Repeats of the report build, which is too short to time once.
const REPORT_REPS: u32 = 32;

/// Host time (ns) and operation counts of every replayed layer, summed over
/// a sweep's cells.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub gen_ns: f64,
    pub bundles: u64,
    pub l1_ns: f64,
    pub l1_hits: u64,
    pub l2_ns: f64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub refresh_ns: f64,
    pub periods: u64,
    pub feed_ns: f64,
    pub feed_events: u64,
    pub window_ns: f64,
    pub windows: u64,
    pub controller_ns: f64,
    pub intervals: u64,
    pub slot_transitions: u64,
    /// Report build time, one report per cell.
    pub report_ns: f64,
    pub reports: u64,
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Replays one cell's layers on the inputs of its traced run, whose report
/// is `report`, and adds their times and counts to `t`.
pub fn replay(
    cfg: &SystemConfig,
    profiles: &[BenchmarkProfile],
    report: &SimReport,
    t: &mut LayerTotals,
) {
    // Warm-up plus the measured region: the span the simulator's clock
    // covered.
    let run_cycles = cfg.warmup_cycles + report.cycles;
    let mut l2_stream = Vec::new();
    for (core, (profile, pc)) in profiles.iter().zip(&report.per_core).enumerate() {
        // A core's lifetime L1 hits plus misses are exactly the bundles it
        // consumed.
        let bundles = pc.l1_hits + pc.l1_misses;
        front_end(
            cfg,
            profile,
            core as u32,
            bundles,
            run_cycles,
            t,
            &mut l2_stream,
        );
    }
    // Interleave the cores' L2 traffic in time; the sort is stable, so each
    // core keeps its own order.
    l2_stream.sort_by_key(|&(cycle, _)| cycle);
    back_end(cfg, run_cycles, &l2_stream, t);
    report_build(cfg, report, t);
}

/// One core's front end in refill-sized blocks: generation, then the L1
/// kernel. Appends what the L1 passes on to the L2 as
/// `(cycle, block << 1 | write)`, at its bundle's share of the run.
fn front_end(
    cfg: &SystemConfig,
    profile: &BenchmarkProfile,
    core: u32,
    bundles: u64,
    run_cycles: u64,
    t: &mut LayerTotals,
    l2_stream: &mut Vec<(u64, u64)>,
) {
    let mut stream = AccessStream::new(profile, core, cfg.seed);
    let mut l1 = SetAssocCache::new(cfg.l1_geometry(), None);
    l1.set_retention_tracking(false);
    let (mut enc, mut instrs, mut recs, mut wbs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut done = 0;
    while done < bundles {
        let n = (bundles - done).min(BLOCK as u64) as usize;
        enc.clear();
        instrs.clear();
        recs.clear();
        wbs.clear();
        let t0 = Instant::now();
        stream.fill_encoded(&mut enc, &mut instrs, n);
        let t1 = Instant::now();
        l1.access_batch_l1(&enc, &mut recs, &mut wbs);
        let t2 = Instant::now();
        t.gen_ns += ns(t1 - t0);
        t.l1_ns += ns(t2 - t1);
        let mut writebacks = wbs.iter();
        for (i, (rec, &e)) in recs.iter().zip(&enc).enumerate() {
            if rec.hit() {
                t.l1_hits += 1;
                continue;
            }
            let cycle = (done + i as u64) * run_cycles / bundles;
            // The demand fill reads; the evicted dirty line is a full-line
            // write.
            l2_stream.push((cycle, e & !1));
            if rec.has_writeback() {
                let wb = writebacks.next().expect("one write-back per flagged miss");
                l2_stream.push((cycle, (wb << 1) | 1));
            }
        }
        done += n as u64;
    }
    t.bundles += bundles;
}

/// The L2 and everything behind it, one retention period at a time: the
/// period's accesses, the refresh access feed, a refresh advance at each
/// quantum boundary, the window roll, and any controller interval that
/// falls due. The simulator does this housekeeping every quantum; batching
/// it per period keeps the timers out of the per-access loop.
fn back_end(cfg: &SystemConfig, run_cycles: u64, stream: &[(u64, u64)], t: &mut LayerTotals) {
    let policy = cfg.technique.refresh_policy();
    let mut l2 = SetAssocCache::new(cfg.l2_geometry(), cfg.leader_stride());
    l2.set_retention_tracking(policy.is_polyphase());
    let mut refresh = RefreshEngine::new(policy, cfg.retention, &l2);
    let period = cfg.retention.period_cycles;
    let mut contention =
        BankContention::new(cfg.l2_banks, period).with_params(2.0, cfg.bank_burst_lines);
    let mut controller = cfg
        .technique
        .algo_params()
        .map(|p| EsteemController::new(*p));
    let mut next_interval = cfg
        .technique
        .algo_params()
        .map_or(u64::MAX, |p| p.interval_cycles);
    let feed_on = refresh.needs_access_feed();
    let mut feed = Vec::new();
    let mut bank_counts = vec![0u64; usize::from(cfg.l2_banks)];
    let mut bank_refreshes = Vec::new();
    let mut next = 0;
    let mut start = 0;
    while start < run_cycles {
        let end = start + period;
        let t0 = Instant::now();
        while let Some(&(cycle, enc)) = stream.get(next).filter(|r| r.0 < end) {
            let out = l2.access(enc >> 1, enc & 1 == 1, cycle);
            t.l2_hits += u64::from(out.hit);
            bank_counts[usize::from(out.bank)] += 1;
            if feed_on {
                feed.push((out, cycle));
            }
            next += 1;
        }
        let t1 = Instant::now();
        if feed_on {
            refresh.on_access_batch(&feed);
            t.feed_ns += ns(t1.elapsed());
            t.feed_events += feed.len() as u64;
            feed.clear();
        }
        contention.record_accesses(&bank_counts);
        bank_counts.fill(0);
        let t2 = Instant::now();
        let mut boundary = start + cfg.quantum_cycles;
        while boundary <= end {
            black_box(refresh.advance(&mut l2, boundary));
            boundary += cfg.quantum_cycles;
        }
        let t3 = Instant::now();
        refresh.drain_bank_refreshes_into(&mut bank_refreshes);
        contention.roll_window(end, &bank_refreshes);
        let t4 = Instant::now();
        t.l2_ns += ns(t1 - t0);
        t.refresh_ns += ns(t3 - t2);
        t.periods += 1;
        t.window_ns += ns(t4 - t3);
        t.windows += 1;
        if let Some(ctl) = controller.as_mut() {
            while next_interval <= end {
                let t5 = Instant::now();
                let act = ctl.run_interval(&mut l2, next_interval);
                t.controller_ns += ns(t5.elapsed());
                t.intervals += 1;
                t.slot_transitions += act.slot_transitions;
                next_interval += ctl.params().interval_cycles;
            }
        }
        start = end;
    }
    t.l2_accesses += stream.len() as u64;
    black_box(contention.mean_wait());
}

/// The report build: the energy model plus the JSON encoding every report
/// goes through on its way to a file or a client.
fn report_build(cfg: &SystemConfig, report: &SimReport, t: &mut LayerTotals) {
    let params = EnergyParams::for_l2_capacity(cfg.l2_capacity);
    let t0 = Instant::now();
    for _ in 0..REPORT_REPS {
        black_box(EnergyBreakdown::compute(&params, black_box(&report.inputs)));
        black_box(serde_json::to_string(black_box(report)).expect("report serializes"));
    }
    t.report_ns += ns(t0.elapsed()) / f64::from(REPORT_REPS);
    t.reports += 1;
}
