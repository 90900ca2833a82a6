//! The simulator sweeps. Each cell runs through `Simulator::new` and
//! `Simulator::run`, as `esteem-repro` runs it, with the run cache cleared
//! first.

use std::collections::BTreeMap;
use std::time::Instant;

use esteem_core::{SimReport, Simulator, SystemConfig, Technique};
use esteem_harness::{default_algo, dual_core_cfg, runcache, Scale};
use esteem_trace::{EventKind, TraceEvent, TraceFilter, Tracer};
use esteem_workloads::{mixes::mix_by_acronym, BenchmarkProfile};

use crate::layers::{self, LayerTotals};
use crate::metrics::{fnv1a, median, percentile, ratio, status_mib, Metrics, Outcome, Tally};
use crate::Args;

/// One sweep: dual-core mixes, each under baseline, ESTEEM and RPV.
pub struct SimWorkload {
    pub name: &'static str,
    retention_us: f64,
    /// Front-end refill threads (`Simulator::with_threads`).
    threads: usize,
    /// Table 1 mix acronyms.
    members: &'static [&'static str],
}

/// Huge-working-set and streaming members miss the L1 often: the L2, bank
/// contention, memory and refresh carry the work, beside generation, the
/// L1 kernel and the threaded refill with its barrier.
pub const THRASH: SimWorkload = SimWorkload {
    name: "sim-thrash",
    retention_us: 40.0,
    threads: 2,
    members: &["McLu", "SoMi", "LsLb"],
};

/// Span ring capacity, far above the few spans per 1000-cycle quantum one
/// run records, so that none is dropped.
const SPAN_RING: usize = 1 << 22;

/// Stored report digests, one `workload seed member technique digest` per
/// line.
const DIGESTS: &str = include_str!("../digests.txt");

struct Cell {
    member: &'static str,
    cfg: SystemConfig,
    profiles: Vec<BenchmarkProfile>,
}

/// The sweep's cells at `Scale::Quick`: 10 M instructions per core after
/// 7.5 M warm-up cycles.
fn cells(w: &SimWorkload, seed: u64) -> Vec<Cell> {
    let scale = Scale::Quick;
    let mut algo = default_algo(2);
    algo.interval_cycles = scale.interval_cycles();
    let mut out = Vec::new();
    for &member in w.members {
        let mix = mix_by_acronym(member).expect("the sweep names a known mix");
        let profiles = vec![mix.a, mix.b];
        for technique in [Technique::Baseline, Technique::Esteem(algo), Technique::Rpv] {
            let mut cfg = dual_core_cfg(technique, scale, w.retention_us);
            cfg.seed = seed;
            out.push(Cell {
                member,
                cfg,
                profiles: profiles.clone(),
            });
        }
    }
    out
}

struct Timed {
    setup_s: f64,
    run_s: f64,
    report: SimReport,
}

fn run_cell(cell: &Cell, threads: usize, tracer: Option<&Tracer>) -> Timed {
    runcache::clear();
    let cfg = cell.cfg.clone();
    let t0 = Instant::now();
    let mut sim = Simulator::new(cfg, &cell.profiles, cell.member).with_threads(threads);
    if let Some(t) = tracer {
        sim = sim.with_tracer(t.clone());
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = sim.run();
    Timed {
        setup_s,
        run_s: t1.elapsed().as_secs_f64(),
        report,
    }
}

fn digest(report: &SimReport) -> u64 {
    fnv1a(
        serde_json::to_string(report)
            .expect("report serializes")
            .as_bytes(),
    )
}

fn stored_digest(workload: &str, seed: u64, member: &str, technique: &str) -> Option<u64> {
    let seed = seed.to_string();
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, s, m, t, d] if w == workload && s == seed && m == member && t == technique => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        })
}

/// Checks each report against the digest stored for its cell and seed,
/// where there is one, and against the cell's first report.
struct Checker {
    workload: &'static str,
    seed: u64,
    expected: Vec<Option<u64>>,
    tally: Tally,
}

impl Checker {
    fn new(w: &SimWorkload, seed: u64, cells: usize) -> Self {
        Checker {
            workload: w.name,
            seed,
            expected: vec![None; cells],
            tally: Tally::default(),
        }
    }

    fn report(&mut self, k: usize, cell: &Cell, report: &SimReport) {
        let got = digest(report);
        let technique = cell.cfg.technique.name();
        let (workload, seed) = (self.workload, self.seed);
        let want = *self.expected[k].get_or_insert_with(|| {
            stored_digest(workload, seed, cell.member, technique).unwrap_or(got)
        });
        let complete = report.per_core.len() == cell.profiles.len()
            && report
                .per_core
                .iter()
                .all(|c| c.instructions == cell.cfg.sim_instructions);
        self.tally.check(got == want && complete, || {
            format!(
                "{} {technique}: report digest {got:016x}, expected {want:016x}",
                cell.member
            )
        });
    }
}

pub fn run(w: &SimWorkload, args: &Args) -> Outcome {
    let cells = cells(w, args.seed);
    if args.trace {
        return traced(w, &cells, args.seed);
    }
    let mut check = Checker::new(w, args.seed, cells.len());
    let mut setup = vec![Vec::<f64>::new(); cells.len()];
    let mut runs = vec![Vec::<f64>::new(); cells.len()];
    let mut instructions = vec![0u64; cells.len()];
    let start = Instant::now();
    // Cycle through the cells until the window closes; each runs at least
    // once.
    let mut i = 0;
    while i < cells.len() || start.elapsed().as_secs_f64() < args.seconds {
        let k = i % cells.len();
        let t = run_cell(&cells[k], w.threads, None);
        check.report(k, &cells[k], &t.report);
        setup[k].push(t.setup_s);
        runs[k].push(t.run_s);
        instructions[k] = t.report.total_instructions();
        i += 1;
    }
    // Each cell's median, summed over the sweep.
    let setup: Vec<f64> = setup.iter().map(|v| median(v)).collect();
    let runs: Vec<f64> = runs.iter().map(|v| median(v)).collect();
    let latency_ms: Vec<f64> = setup
        .iter()
        .zip(&runs)
        .map(|(s, r)| (s + r) * 1e3)
        .collect();
    let mut m = Metrics::default();
    m.set(
        "sim_minstr_per_s",
        instructions.iter().sum::<u64>() as f64 / 1e6 / runs.iter().sum::<f64>(),
    );
    m.set(
        "jobs_per_s",
        cells.len() as f64 / (latency_ms.iter().sum::<f64>() / 1e3),
    );
    m.set("job_latency_p50_ms", median(&latency_ms));
    m.set("job_latency_p99_ms", percentile(&latency_ms, 0.99));
    m.set("setup_s", setup.iter().sum());
    m.set("peak_rss_mb", status_mib("VmHWM"));
    m.set("success_rate", 1.0 - check.tally.error_rate());
    let notes = vec![format!(
        "{i} cell runs; job latencies are the medians of the {} cells",
        cells.len()
    )];
    Outcome {
        tally: check.tally,
        metrics: m,
        notes,
    }
}

/// The traced run: each cell once untraced and once with a span ring
/// attached (alternating which goes first, so neither always meets cold
/// caches), then a replay of every layer's entry points on the traced
/// run's own inputs.
fn traced(w: &SimWorkload, cells: &[Cell], seed: u64) -> Outcome {
    let mut check = Checker::new(w, seed, cells.len());
    let mut spans = BTreeMap::new();
    let mut lt = LayerTotals::default();
    let (mut plain_s, mut traced_s, mut setup_s) = (0.0, 0.0, 0.0);
    let (mut refreshes, mut mem_accesses, mut dropped) = (0u64, 0u64, 0u64);
    for (k, cell) in cells.iter().enumerate() {
        let tracer = Tracer::ring(SPAN_RING, TraceFilter::none().with(EventKind::Span));
        let (plain, traced) = if k % 2 == 0 {
            let plain = run_cell(cell, w.threads, None);
            (plain, run_cell(cell, w.threads, Some(&tracer)))
        } else {
            let traced = run_cell(cell, w.threads, Some(&tracer));
            (run_cell(cell, w.threads, None), traced)
        };
        check.report(k, cell, &plain.report);
        check.report(k, cell, &traced.report);
        plain_s += plain.setup_s + plain.run_s;
        traced_s += traced.setup_s + traced.run_s;
        setup_s += traced.setup_s;
        dropped += tracer.dropped();
        add_span_self_us(&tracer.drain(), &mut spans);
        layers::replay(&cell.cfg, &cell.profiles, &traced.report, &mut lt);
        refreshes += traced.report.refreshes;
        mem_accesses += traced.report.mem_accesses;
    }
    if dropped > 0 {
        check
            .tally
            .check(false, || format!("the span ring dropped {dropped} spans"));
    }
    let span_ms = |name: &str| spans.get(name).copied().unwrap_or(0.0) / 1e3;
    let mut m = Metrics::default();
    let bundles = lt.bundles as f64;
    let l2_accesses = lt.l2_accesses as f64;
    m.set("workloads.gen_ns_per_bundle", ratio(lt.gen_ns, bundles));
    m.set("workloads.bundles", bundles);
    m.set("cache.l1_ns_per_access", ratio(lt.l1_ns, bundles));
    m.set("cache.l1_accesses", bundles);
    m.set("cache.l1_hit_ratio", ratio(lt.l1_hits as f64, bundles));
    m.set("cache.l2_ns_per_access", ratio(lt.l2_ns, l2_accesses));
    m.set("cache.l2_accesses", l2_accesses);
    m.set("cache.l2_hit_ratio", ratio(lt.l2_hits as f64, l2_accesses));
    m.set(
        "edram.refresh_ns_per_period",
        ratio(lt.refresh_ns, lt.periods as f64),
    );
    m.set(
        "edram.feed_ns_per_access",
        ratio(lt.feed_ns, lt.feed_events as f64),
    );
    m.set("edram.window_ns", ratio(lt.window_ns, lt.windows as f64));
    m.set("edram.refreshes", refreshes as f64);
    m.set("mem.accesses", mem_accesses as f64);
    m.set(
        "core.controller_us_per_interval",
        ratio(lt.controller_ns / 1e3, lt.intervals as f64),
    );
    m.set("core.intervals", lt.intervals as f64);
    m.set("core.slot_transitions", lt.slot_transitions as f64);
    m.set("core.setup_ms", setup_s * 1e3);
    m.set(
        "core.report_us",
        ratio(lt.report_ns / 1e3, lt.reports as f64),
    );
    for (metric, span) in [
        ("span.sim_run_self_ms", "sim.run"),
        ("span.block_refill_ms", "block.refill"),
        ("span.block_barrier_ms", "block.barrier"),
        ("span.refresh_batch_drain_ms", "refresh.batch_drain"),
        ("span.refresh_window_ms", "refresh.window"),
        ("span.controller_interval_ms", "controller.interval"),
    ] {
        m.set(metric, span_ms(span));
    }

    // Self time per layer, anchored in the spans. The front end's wall
    // time (refill plus barrier) splits between generation and the L1
    // kernel in the ratio the replay measured; with a refill pool, what
    // exceeds the replayed work spread over the pool's threads is the
    // pool's own (`par`). The self time of `sim.run` holds the refresh
    // advance, the report build and the L2; the replay's measurements of
    // those come out of it in turn. What remains, the core loop and the
    // miss path around the L2, is the residual.
    let front_ms = span_ms("block.refill") + span_ms("block.barrier");
    let replayed_front_ms = (lt.gen_ns + lt.l1_ns) / 1e6;
    let pool_threads = w.threads.min(cells[0].profiles.len()).max(1) as f64;
    let front_work_ms = front_ms.min(replayed_front_ms / pool_threads);
    let par_ms = if w.threads > 1 {
        front_ms - front_work_ms
    } else {
        0.0
    };
    let workloads_ms = front_work_ms * ratio(lt.gen_ns, lt.gen_ns + lt.l1_ns);
    let l1_ms = front_work_ms - workloads_ms;
    let mut run_self_ms = span_ms("sim.run");
    let mut take = |replayed_ns: f64| {
        let ms = (replayed_ns / 1e6).min(run_self_ms).max(0.0);
        run_self_ms -= ms;
        ms
    };
    let advance_ms = take(lt.refresh_ns);
    let report_ms = take(lt.report_ns);
    let l2_ms = take(lt.l2_ns);
    let layer_ms = [
        ("self.workloads_ms", workloads_ms),
        ("self.cache_ms", l1_ms + l2_ms),
        (
            "self.edram_ms",
            advance_ms + span_ms("refresh.batch_drain") + span_ms("refresh.window"),
        ),
        (
            "self.core_ms",
            setup_s * 1e3 + span_ms("controller.interval") + report_ms,
        ),
        ("self.par_ms", par_ms),
    ];
    let mut covered_ms = 0.0;
    for (name, ms) in layer_ms {
        m.set(name, ms);
        covered_ms += ms;
    }
    let wall_ms = traced_s * 1e3;
    m.set("trace.wall_ms", wall_ms);
    m.set("trace.residual_frac", 1.0 - ratio(covered_ms, wall_ms));
    m.set("trace.overhead_frac", ratio(traced_s, plain_s) - 1.0);
    m.set("error_rate", check.tally.error_rate());
    Outcome {
        tally: check.tally,
        metrics: m,
        notes: Vec::new(),
    }
}

/// Adds each span's self time, in µs, to its name's total: the span's
/// duration less the spans nested directly inside it. The simulator opens
/// every span on its own thread, so spans nest strictly.
fn add_span_self_us(events: &[TraceEvent], totals: &mut BTreeMap<String, f64>) {
    let mut spans: Vec<(f64, f64, &str)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span {
                name,
                start_us,
                dur_us,
            } => Some((*start_us, start_us + dur_us, name.as_str())),
            _ => None,
        })
        .collect();
    // On equal starts the outer (longer) span comes first.
    spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
    let mut add = |name: &str, us: f64| *totals.entry(name.to_owned()).or_default() += us;
    let mut open: Vec<usize> = Vec::new();
    for (i, &(start, end, name)) in spans.iter().enumerate() {
        while open.last().is_some_and(|&p| spans[p].1 <= start) {
            open.pop();
        }
        add(name, end - start);
        if let Some(&parent) = open.last() {
            add(spans[parent].2, start - end);
        }
        open.push(i);
    }
}

/// Prints the report digest of every cell of the sweep for `seed`, in the
/// format of `digests.txt`.
pub fn print_digests(seed: u64) {
    let w = &THRASH;
    for cell in cells(w, seed) {
        let report = run_cell(&cell, w.threads, None).report;
        println!(
            "{} {seed} {} {} {:016x}",
            w.name,
            cell.member,
            cell.cfg.technique.name(),
            digest(&report)
        );
    }
}
