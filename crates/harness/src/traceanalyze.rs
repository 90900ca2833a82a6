//! Offline trace analysis for the `esteem-analyze` binary.
//!
//! Consumes the compact JSONL event log written by `esteem-sim --trace`
//! (and/or an `--interval-log` file) and produces:
//!
//! - per-module way-occupancy timelines and reconfiguration churn,
//! - energy attribution per interval through the paper's eq. (2)–(8),
//! - span aggregation for the self-profiler,
//! - run-cache hit/miss totals,
//! - anomaly findings: refresh storms, way-allocation thrash, and
//!   intervals whose energy sits more than Nσ from the run mean.
//!
//! It also validates Chrome trace-event JSON exports (event counts and
//! per-track timestamp monotonicity) so CI can smoke-test `--trace`
//! output without a browser.

use serde::{map_get, Serialize, Value};

use esteem_energy::{EnergyBreakdown, EnergyInputs, EnergyParams};
use esteem_stats::IntervalSample;
use esteem_trace::TraceEvent;

/// Knobs for the anomaly detectors.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AnalyzerParams {
    /// Way-thrash: flag a module whose applied way count flips at least
    /// this many times...
    pub thrash_k: u32,
    /// ...within this many consecutive controller intervals.
    pub thrash_w: usize,
    /// Z-score threshold for refresh storms and energy outliers.
    pub sigma: f64,
    /// Core clock for cycle → seconds conversion (paper: 2 GHz).
    pub clock_hz: f64,
    /// L2 capacity for Table 2 energy constants (paper: 4 MB single-core).
    pub l2_capacity: u64,
}

impl Default for AnalyzerParams {
    fn default() -> Self {
        Self {
            thrash_k: 4,
            thrash_w: 8,
            sigma: 3.0,
            clock_hz: 2.0e9,
            l2_capacity: 4 << 20,
        }
    }
}

/// One step of a module's way-occupancy timeline (a change point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WayStep {
    pub cycle: u64,
    pub ways: u8,
}

/// Per-module reconfiguration history.
#[derive(Debug, Clone, Serialize)]
pub struct ModuleTimeline {
    pub module: u16,
    /// Way-count change points, starting with the first decision seen.
    pub timeline: Vec<WayStep>,
    /// Decisions observed for this module.
    pub decisions: u64,
    /// Applied way-count changes (the module's churn).
    pub flips: u64,
    /// Decisions deferred by shrink confirmation.
    pub deferred: u64,
    /// Decisions limited by the non-LRU anomaly guard.
    pub non_lru: u64,
    /// Mean applied ways across decisions.
    pub mean_ways: f64,
}

/// A module whose allocation flipped >= K times within W intervals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ThrashFinding {
    pub module: u16,
    /// Flips in the worst window.
    pub flips: u32,
    /// Window length in controller intervals.
    pub window: usize,
    /// Cycle of the last decision in the worst window.
    pub end_cycle: u64,
}

/// An interval whose refresh count sits far above the run mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RefreshStorm {
    pub cycle: u64,
    pub refreshes: u64,
    pub z: f64,
}

/// Refresh activity rollup (batch events + storm detection).
#[derive(Debug, Clone, Default, Serialize)]
pub struct RefreshSummary {
    pub batches: u64,
    pub refreshes: u64,
    pub invalidations: u64,
    /// Largest polyphase backlog observed after any batch: lines queued
    /// for an individual visit, not RPV's steady lines.
    pub max_pending: u64,
    /// Intervals with refresh z-score >= sigma (needs interval samples).
    pub storms: Vec<RefreshStorm>,
}

/// An interval whose modelled energy sits > sigma σ from the run mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyOutlier {
    pub cycle: u64,
    pub total_j: f64,
    pub z: f64,
}

/// Energy attribution over the interval series (eq. 2–8 per interval).
#[derive(Debug, Clone, Serialize)]
pub struct EnergyAttribution {
    pub intervals: u64,
    /// Summed per-class energy across intervals.
    pub breakdown: EnergyBreakdown,
    pub total_j: f64,
    pub mean_interval_j: f64,
    pub outliers: Vec<EnergyOutlier>,
}

/// Wall-clock profiler spans aggregated by name.
#[derive(Debug, Clone, Serialize)]
pub struct SpanAgg {
    pub name: String,
    pub count: u64,
    pub total_us: f64,
    pub mean_us: f64,
    pub max_us: f64,
}

/// Bank-contention window rollup.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct BankSummary {
    pub windows: u64,
    pub mean_wait_cycles: f64,
    pub mean_utilization: f64,
}

/// Run-cache lookup totals.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RunCacheSummary {
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
}

/// Everything the analyzer extracts from one trace.
#[derive(Debug, Clone, Serialize)]
pub struct Analysis {
    pub params: AnalyzerParams,
    pub events: u64,
    /// `(kind name, count)` in filter-name order, zero counts omitted.
    pub event_counts: Vec<(String, u64)>,
    pub modules: Vec<ModuleTimeline>,
    /// Applied reconfigurations (all modules merged).
    pub reconfig_applies: u64,
    pub reconfig_writebacks: u64,
    pub reconfig_discards: u64,
    pub reconfig_slot_transitions: u64,
    pub thrash: Vec<ThrashFinding>,
    pub refresh: RefreshSummary,
    pub bank: BankSummary,
    pub runcache: RunCacheSummary,
    pub energy: Option<EnergyAttribution>,
    pub spans: Vec<SpanAgg>,
}

/// Population mean and standard deviation; `(0, 0)` for empty input.
fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The interval samples of `Interval` trace events, for analyses that
/// were run without a separate `--interval-log` file.
pub fn intervals_from_events(events: &[TraceEvent]) -> Vec<IntervalSample> {
    events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Interval(sample) => Some(sample.clone()),
            _ => None,
        })
        .collect()
}

fn module_timelines(events: &[TraceEvent]) -> Vec<ModuleTimeline> {
    let mut modules: Vec<ModuleTimeline> = Vec::new();
    for ev in events {
        let &TraceEvent::ReconfigDecision {
            cycle,
            module,
            applied_ways,
            non_lru,
            deferred,
            ..
        } = ev
        else {
            continue;
        };
        let entry = match modules.iter_mut().find(|m| m.module == module) {
            Some(m) => m,
            None => {
                modules.push(ModuleTimeline {
                    module,
                    timeline: Vec::new(),
                    decisions: 0,
                    flips: 0,
                    deferred: 0,
                    non_lru: 0,
                    mean_ways: 0.0,
                });
                modules.last_mut().expect("just pushed")
            }
        };
        entry.decisions += 1;
        entry.deferred += u64::from(deferred);
        entry.non_lru += u64::from(non_lru);
        entry.mean_ways += f64::from(applied_ways);
        match entry.timeline.last() {
            Some(last) if last.ways == applied_ways => {}
            Some(_) => {
                entry.flips += 1;
                entry.timeline.push(WayStep {
                    cycle,
                    ways: applied_ways,
                });
            }
            None => entry.timeline.push(WayStep {
                cycle,
                ways: applied_ways,
            }),
        }
    }
    for m in &mut modules {
        m.mean_ways /= m.decisions.max(1) as f64;
    }
    modules.sort_by_key(|m| m.module);
    modules
}

/// Sliding-window thrash detection over each module's decision sequence:
/// the worst window of `thrash_w` consecutive decisions with at least
/// `thrash_k` applied-way flips.
fn detect_thrash(events: &[TraceEvent], params: &AnalyzerParams) -> Vec<ThrashFinding> {
    // Per module: (cycle, applied_ways) in trace order.
    let mut series: Vec<(u16, Vec<(u64, u8)>)> = Vec::new();
    for ev in events {
        let &TraceEvent::ReconfigDecision {
            cycle,
            module,
            applied_ways,
            ..
        } = ev
        else {
            continue;
        };
        match series.iter_mut().find(|(m, _)| *m == module) {
            Some((_, s)) => s.push((cycle, applied_ways)),
            None => series.push((module, vec![(cycle, applied_ways)])),
        }
    }
    let mut findings = Vec::new();
    for (module, s) in &series {
        // flips[i] = 1 iff decision i changed the way count.
        let flips: Vec<u32> = s.windows(2).map(|w| u32::from(w[0].1 != w[1].1)).collect();
        let mut worst: Option<ThrashFinding> = None;
        // A window of W decisions spans W-1 potential flips.
        let span = params.thrash_w.saturating_sub(1).max(1);
        for start in 0..flips.len() {
            let end = (start + span).min(flips.len());
            let count: u32 = flips[start..end].iter().sum();
            if count >= params.thrash_k && worst.is_none_or(|w| count > w.flips) {
                worst = Some(ThrashFinding {
                    module: *module,
                    flips: count,
                    window: params.thrash_w,
                    end_cycle: s[end].0,
                });
            }
        }
        findings.extend(worst);
    }
    findings.sort_by_key(|f| (std::cmp::Reverse(f.flips), f.module));
    findings
}

fn refresh_summary(
    events: &[TraceEvent],
    intervals: &[IntervalSample],
    params: &AnalyzerParams,
) -> RefreshSummary {
    let mut out = RefreshSummary::default();
    for ev in events {
        let &TraceEvent::RefreshBatch {
            refreshes,
            invalidations,
            pending,
            ..
        } = ev
        else {
            continue;
        };
        out.batches += 1;
        out.refreshes += refreshes;
        out.invalidations += invalidations;
        out.max_pending = out.max_pending.max(pending);
    }
    let series: Vec<f64> = intervals.iter().map(|s| s.refreshes as f64).collect();
    let (mean, std) = mean_std(&series);
    if std > 0.0 {
        for s in intervals {
            let z = (s.refreshes as f64 - mean) / std;
            if z >= params.sigma {
                out.storms.push(RefreshStorm {
                    cycle: s.cycle,
                    refreshes: s.refreshes,
                    z,
                });
            }
        }
    }
    out
}

fn energy_attribution(
    intervals: &[IntervalSample],
    params: &AnalyzerParams,
) -> Option<EnergyAttribution> {
    if intervals.is_empty() {
        return None;
    }
    let ep = EnergyParams::for_l2_capacity(params.l2_capacity);
    let mut breakdown = EnergyBreakdown::default();
    let mut totals = Vec::with_capacity(intervals.len());
    for s in intervals {
        let b = EnergyBreakdown::compute(
            &ep,
            &EnergyInputs {
                seconds: s.span_cycles as f64 / params.clock_hz,
                active_fraction: s.active_fraction,
                l2_hits: s.l2_hits,
                l2_misses: s.l2_misses,
                refreshes: s.refreshes,
                mem_accesses: s.mem_reads + s.mem_writes,
                block_transitions: s.slot_transitions,
            },
        );
        totals.push(b.total());
        breakdown.add(&b);
    }
    let (mean, std) = mean_std(&totals);
    let mut outliers = Vec::new();
    if std > 0.0 {
        for (s, &t) in intervals.iter().zip(&totals) {
            let z = (t - mean) / std;
            if z.abs() >= params.sigma {
                outliers.push(EnergyOutlier {
                    cycle: s.cycle,
                    total_j: t,
                    z,
                });
            }
        }
    }
    Some(EnergyAttribution {
        intervals: intervals.len() as u64,
        total_j: breakdown.total(),
        mean_interval_j: mean,
        breakdown,
        outliers,
    })
}

fn span_aggregation(events: &[TraceEvent]) -> Vec<SpanAgg> {
    let mut aggs: Vec<SpanAgg> = Vec::new();
    for ev in events {
        let TraceEvent::Span { name, dur_us, .. } = ev else {
            continue;
        };
        let entry = match aggs.iter_mut().find(|a| &a.name == name) {
            Some(a) => a,
            None => {
                aggs.push(SpanAgg {
                    name: name.clone(),
                    count: 0,
                    total_us: 0.0,
                    mean_us: 0.0,
                    max_us: 0.0,
                });
                aggs.last_mut().expect("just pushed")
            }
        };
        entry.count += 1;
        entry.total_us += dur_us;
        entry.max_us = entry.max_us.max(*dur_us);
    }
    for a in &mut aggs {
        a.mean_us = a.total_us / a.count.max(1) as f64;
    }
    aggs.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    aggs
}

/// Runs every analysis over one event log. `intervals` is the interval
/// series to use for refresh-storm and energy analysis; pass the
/// `--interval-log` contents when available, otherwise
/// [`intervals_from_events`].
pub fn analyze(
    events: &[TraceEvent],
    intervals: &[IntervalSample],
    params: &AnalyzerParams,
) -> Analysis {
    let mut event_counts = Vec::new();
    for kind in esteem_trace::EventKind::ALL {
        let n = events.iter().filter(|e| e.kind() == kind).count() as u64;
        if n > 0 {
            event_counts.push((kind.name().to_owned(), n));
        }
    }
    let (mut applies, mut writebacks, mut discards, mut transitions) = (0, 0, 0, 0);
    let mut runcache = RunCacheSummary::default();
    let mut bank = BankSummary::default();
    for ev in events {
        match *ev {
            TraceEvent::ReconfigApply {
                slot_transitions,
                writebacks: wb,
                discards: d,
                ..
            } => {
                applies += 1;
                writebacks += wb;
                discards += d;
                transitions += slot_transitions;
            }
            TraceEvent::RunCache { hit, .. } => {
                runcache.lookups += 1;
                if hit {
                    runcache.hits += 1;
                } else {
                    runcache.misses += 1;
                }
            }
            TraceEvent::BankWindow {
                mean_wait,
                utilization,
                ..
            } => {
                bank.windows += 1;
                bank.mean_wait_cycles += mean_wait;
                bank.mean_utilization += utilization;
            }
            _ => {}
        }
    }
    if bank.windows > 0 {
        bank.mean_wait_cycles /= bank.windows as f64;
        bank.mean_utilization /= bank.windows as f64;
    }
    Analysis {
        params: *params,
        events: events.len() as u64,
        event_counts,
        modules: module_timelines(events),
        reconfig_applies: applies,
        reconfig_writebacks: writebacks,
        reconfig_discards: discards,
        reconfig_slot_transitions: transitions,
        thrash: detect_thrash(events, params),
        refresh: refresh_summary(events, intervals, params),
        bank,
        runcache,
        energy: energy_attribution(intervals, params),
        spans: span_aggregation(events),
    }
}

/// Human-readable report (the binary's default output).
pub fn render(a: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let counts: Vec<String> = a
        .event_counts
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    let _ = writeln!(s, "events: {} ({})", a.events, counts.join(", "));
    if !a.modules.is_empty() {
        let _ = writeln!(s, "\nway occupancy (per module):");
        for m in &a.modules {
            let last = m.timeline.last().map_or(0, |w| w.ways);
            let _ = writeln!(
                s,
                "  module {:>2}: {:>4} decisions, {:>3} flips, mean {:.2} ways, \
                 last {:>2}, deferred {}, non-LRU-guarded {}",
                m.module, m.decisions, m.flips, m.mean_ways, last, m.deferred, m.non_lru
            );
        }
        let _ = writeln!(
            s,
            "reconfig churn: {} applies, {} writebacks, {} discards, {} slot transitions",
            a.reconfig_applies,
            a.reconfig_writebacks,
            a.reconfig_discards,
            a.reconfig_slot_transitions
        );
    }
    if a.refresh.batches > 0 {
        let _ = writeln!(
            s,
            "\nrefresh: {} batches, {} refreshes, {} invalidations, max backlog {}",
            a.refresh.batches, a.refresh.refreshes, a.refresh.invalidations, a.refresh.max_pending
        );
    }
    if a.bank.windows > 0 {
        let _ = writeln!(
            s,
            "bank contention: {} windows, mean wait {:.3} cycles, utilization {:.3}",
            a.bank.windows, a.bank.mean_wait_cycles, a.bank.mean_utilization
        );
    }
    if a.runcache.lookups > 0 {
        let _ = writeln!(
            s,
            "run cache: {} lookups ({} hits, {} misses)",
            a.runcache.lookups, a.runcache.hits, a.runcache.misses
        );
    }
    if let Some(e) = &a.energy {
        let b = &e.breakdown;
        let _ = writeln!(
            s,
            "\nenergy over {} intervals: {:.4} J = L2(leak {:.4} + dyn {:.4} + refresh {:.4}) \
             + MM(leak {:.4} + dyn {:.4}) + algo {:.6}",
            e.intervals,
            e.total_j,
            b.l2_leakage,
            b.l2_dynamic,
            b.l2_refresh,
            b.mm_leakage,
            b.mm_dynamic,
            b.algo
        );
    }
    if !a.spans.is_empty() {
        let _ = writeln!(s, "\nself-profile (wall clock):");
        for sp in &a.spans {
            let _ = writeln!(
                s,
                "  {:<24} {:>6} calls  total {:>10.1} us  mean {:>9.1} us  max {:>9.1} us",
                sp.name, sp.count, sp.total_us, sp.mean_us, sp.max_us
            );
        }
    }
    let _ = writeln!(s, "\nanomalies:");
    let mut any = false;
    for t in &a.thrash {
        any = true;
        let _ = writeln!(
            s,
            "  way thrash: module {} flipped {} times within {} intervals (ending cycle {})",
            t.module, t.flips, t.window, t.end_cycle
        );
    }
    for st in &a.refresh.storms {
        any = true;
        let _ = writeln!(
            s,
            "  refresh storm: cycle {} refreshed {} lines (z = {:.2})",
            st.cycle, st.refreshes, st.z
        );
    }
    if let Some(e) = &a.energy {
        for o in &e.outliers {
            any = true;
            let _ = writeln!(
                s,
                "  energy outlier: cycle {} used {:.6} J (z = {:+.2})",
                o.cycle, o.total_j, o.z
            );
        }
    }
    if !any {
        let _ = writeln!(s, "  none");
    }
    s
}

/// Summary of a validated Chrome trace-event JSON export.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ChromeSummary {
    /// Non-metadata events.
    pub events: u64,
    /// Metadata records (`ph == "M"`).
    pub metadata: u64,
    /// Distinct `(pid, tid)` tracks carrying events.
    pub tracks: u64,
}

/// Validates a Chrome trace-event JSON document: it must parse, carry a
/// `traceEvents` array, and every track's timestamps must be monotonic
/// non-decreasing in file order (what Perfetto relies on).
pub fn validate_chrome_trace(json: &str) -> Result<ChromeSummary, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let root = doc.as_map().ok_or("root is not an object")?;
    let events = map_get(root, "traceEvents")
        .map_err(|e| e.to_string())?
        .as_seq()
        .ok_or("traceEvents is not an array")?;
    let num = |v: &Value| -> Result<f64, String> {
        match *v {
            Value::I64(i) => Ok(i as f64),
            Value::U64(u) => Ok(u as f64),
            Value::F64(f) => Ok(f),
            _ => Err("expected a number".into()),
        }
    };
    let mut summary = ChromeSummary::default();
    // (pid, tid) -> last ts seen, in file order.
    let mut tracks: Vec<((i64, i64), f64)> = Vec::new();
    for (idx, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{idx}]: {msg}");
        let m = ev.as_map().ok_or_else(|| at("not an object"))?;
        let ph = map_get(m, "ph")
            .map_err(|e| at(&e.to_string()))?
            .as_str()
            .ok_or_else(|| at("ph is not a string"))?;
        if ph == "M" {
            summary.metadata += 1;
            continue;
        }
        summary.events += 1;
        let pid =
            num(map_get(m, "pid").map_err(|e| at(&e.to_string()))?).map_err(|e| at(&e))? as i64;
        let tid =
            num(map_get(m, "tid").map_err(|e| at(&e.to_string()))?).map_err(|e| at(&e))? as i64;
        let ts = num(map_get(m, "ts").map_err(|e| at(&e.to_string()))?).map_err(|e| at(&e))?;
        match tracks.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(at(&format!(
                        "track ({pid}, {tid}) timestamps not monotonic: {ts} after {last}"
                    )));
                }
                *last = ts;
            }
            None => tracks.push(((pid, tid), ts)),
        }
    }
    summary.tracks = tracks.len() as u64;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(cycle: u64, module: u16, ways: u8) -> TraceEvent {
        TraceEvent::ReconfigDecision {
            cycle,
            module,
            prev_ways: 16,
            want_ways: ways,
            applied_ways: ways,
            total_hits: 100,
            anomalies: 0,
            non_lru: false,
            deferred: false,
            valid_lines: 64,
        }
    }

    fn interval(cycle: u64, refreshes: u64, hits: u64) -> IntervalSample {
        IntervalSample {
            cycle,
            span_cycles: 1_000_000,
            ways: vec![16],
            active_fraction: 1.0,
            l2_hits: hits,
            l2_misses: 10,
            l2_writebacks: 1,
            refreshes,
            invalidations: 0,
            mem_reads: 5,
            mem_writes: 5,
            slot_transitions: 0,
            instructions: 1_000_000,
        }
    }

    #[test]
    fn timelines_track_flips_and_means() {
        let events = [
            decision(10, 0, 16),
            decision(20, 0, 8),
            decision(30, 0, 8),
            decision(40, 0, 12),
            decision(10, 1, 4),
        ];
        let modules = module_timelines(&events);
        assert_eq!(modules.len(), 2);
        let m0 = &modules[0];
        assert_eq!((m0.module, m0.decisions, m0.flips), (0, 4, 2));
        assert_eq!(
            m0.timeline,
            vec![
                WayStep {
                    cycle: 10,
                    ways: 16
                },
                WayStep { cycle: 20, ways: 8 },
                WayStep {
                    cycle: 40,
                    ways: 12
                },
            ]
        );
        assert!((m0.mean_ways - 11.0).abs() < 1e-12);
        assert_eq!(modules[1].module, 1);
    }

    #[test]
    fn thrash_detected_only_above_threshold() {
        // Module 0 oscillates every interval; module 1 is stable.
        let mut events = Vec::new();
        for i in 0..10u64 {
            let ways = if i % 2 == 0 { 4 } else { 12 };
            events.push(decision(i * 100, 0, ways));
            events.push(decision(i * 100, 1, 8));
        }
        let params = AnalyzerParams::default();
        let findings = detect_thrash(&events, &params);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].module, 0);
        assert!(findings[0].flips >= params.thrash_k);

        // A stricter K silences it.
        let strict = AnalyzerParams {
            thrash_k: 20,
            ..params
        };
        assert!(detect_thrash(&events, &strict).is_empty());
    }

    #[test]
    fn refresh_storm_flags_the_spike() {
        let mut intervals: Vec<IntervalSample> =
            (0..20).map(|i| interval(i * 1_000_000, 1000, 50)).collect();
        intervals.push(interval(20_000_000, 50_000, 50));
        let summary = refresh_summary(&[], &intervals, &AnalyzerParams::default());
        assert_eq!(summary.storms.len(), 1);
        assert_eq!(summary.storms[0].cycle, 20_000_000);
        assert!(summary.storms[0].z > 3.0);
    }

    #[test]
    fn energy_attribution_finds_outliers_and_sums_classes() {
        let mut intervals: Vec<IntervalSample> =
            (0..20).map(|i| interval(i * 1_000_000, 1000, 50)).collect();
        // One interval with a huge memory-traffic spike.
        let mut hot = interval(20_000_000, 1000, 50);
        hot.mem_reads = 2_000_000;
        intervals.push(hot);
        let e = energy_attribution(&intervals, &AnalyzerParams::default()).unwrap();
        assert_eq!(e.intervals, 21);
        assert!((e.total_j - e.breakdown.total()).abs() < 1e-12);
        assert_eq!(e.outliers.len(), 1);
        assert_eq!(e.outliers[0].cycle, 20_000_000);
        assert!(e.outliers[0].z > 3.0);
        // Uniform series -> no outliers.
        let flat = energy_attribution(&intervals[..20], &AnalyzerParams::default()).unwrap();
        assert!(flat.outliers.is_empty());
    }

    #[test]
    fn span_aggregation_sorts_by_total() {
        let events = [
            TraceEvent::Span {
                name: "a".into(),
                start_us: 0.0,
                dur_us: 1.0,
            },
            TraceEvent::Span {
                name: "b".into(),
                start_us: 0.0,
                dur_us: 10.0,
            },
            TraceEvent::Span {
                name: "a".into(),
                start_us: 2.0,
                dur_us: 3.0,
            },
        ];
        let aggs = span_aggregation(&events);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].name, "b");
        assert_eq!(aggs[1].count, 2);
        assert!((aggs[1].total_us - 4.0).abs() < 1e-12);
        assert!((aggs[1].mean_us - 2.0).abs() < 1e-12);
        assert!((aggs[1].max_us - 3.0).abs() < 1e-12);
    }

    #[test]
    fn analyze_end_to_end_counts_and_renders() {
        let mut events = vec![
            decision(10_000_000, 0, 8),
            TraceEvent::ReconfigApply {
                cycle: 10_000_000,
                slot_transitions: 16,
                writebacks: 3,
                discards: 1,
            },
            TraceEvent::RefreshBatch {
                cycle: 100_000,
                refreshes: 500,
                invalidations: 2,
                pending: 40,
            },
            TraceEvent::BankWindow {
                cycle: 100_000,
                refreshes: 500,
                mean_wait: 1.5,
                utilization: 0.25,
            },
            TraceEvent::RunCache {
                fingerprint: 7,
                hit: true,
            },
            TraceEvent::RunCache {
                fingerprint: 8,
                hit: false,
            },
            TraceEvent::Span {
                name: "sim.run".into(),
                start_us: 0.0,
                dur_us: 100.0,
            },
        ];
        events.push(TraceEvent::Interval(IntervalSample {
            cycle: 10_000_000,
            span_cycles: 10_000_000,
            ways: vec![8, 8],
            active_fraction: 0.5,
            l2_hits: 100,
            l2_misses: 10,
            l2_writebacks: 3,
            refreshes: 500,
            invalidations: 2,
            mem_reads: 10,
            mem_writes: 5,
            slot_transitions: 16,
            instructions: 9_000_000,
        }));
        let intervals = intervals_from_events(&events);
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0].refreshes, 500);
        let a = analyze(&events, &intervals, &AnalyzerParams::default());
        assert_eq!(a.events, 8);
        assert_eq!(a.reconfig_applies, 1);
        assert_eq!(a.reconfig_writebacks, 3);
        assert_eq!(a.refresh.batches, 1);
        assert_eq!(a.runcache.hits, 1);
        assert_eq!(a.runcache.misses, 1);
        assert_eq!(a.bank.windows, 1);
        let e = a.energy.as_ref().unwrap();
        assert!(e.total_j > 0.0);
        let text = render(&a);
        assert!(text.contains("module  0"), "got:\n{text}");
        assert!(text.contains("run cache: 2 lookups"), "got:\n{text}");
        assert!(text.contains("sim.run"), "got:\n{text}");
        assert!(text.contains("none"), "got:\n{text}");
        // The analysis serializes (for --json).
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("\"events\":8"));
    }

    #[test]
    fn chrome_validation_accepts_exporter_output_and_rejects_regressions() {
        let events = [
            TraceEvent::RefreshBatch {
                cycle: 2_000,
                refreshes: 10,
                invalidations: 0,
                pending: 0,
            },
            TraceEvent::RefreshBatch {
                cycle: 1_000,
                refreshes: 5,
                invalidations: 0,
                pending: 0,
            },
        ];
        let json = esteem_trace::export::chrome_trace(&events);
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.events, 2);
        assert!(summary.metadata > 0);
        assert_eq!(summary.tracks, 1);

        // Hand-built non-monotonic track fails.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"i","pid":0,"tid":1,"ts":5.0,"s":"t"},
            {"name":"b","ph":"i","pid":0,"tid":1,"ts":4.0,"s":"t"}]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("not monotonic"), "got: {err}");
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
