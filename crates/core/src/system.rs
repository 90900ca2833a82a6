//! The multicore system simulator.

use esteem_cache::{AccessOutcome, L1Rec, SetAssocCache};
use esteem_edram::{BankContention, RefreshEngine};
use esteem_energy::{EnergyBreakdown, EnergyInputs, EnergyParams};
use esteem_mem::MainMemory;
use esteem_stats::{
    Counter, IntervalObserver, IntervalSample, StatsReading, StatsRegistry, StatsSource,
    TimeWeighted,
};
use esteem_trace::{prof_span, EventKind, TraceEvent, Tracer};
use esteem_workloads::{AccessStream, BenchmarkProfile, Bundle};

use crate::config::SystemConfig;
use crate::controller::{self, CacheController, IntervalCtx};
use crate::core_model::{CoreState, Step, CYCLE_FP_SHIFT};
use crate::report::{CoreReport, SimReport};
use crate::tape::{self, Feed, FrontEnd};

/// Deterministic trace-driven multicore simulator.
///
/// Cores advance in fixed-size time quanta (relaxed barrier
/// synchronisation, the approach Sniper itself uses for scalability): each
/// quantum, every core executes until its local clock passes the quantum
/// boundary; then the refresh engine, contention windows, and the cache
/// controller run. The loop ends when every core has reached its
/// instruction target; early finishers keep running so the shared L2 keeps
/// seeing their traffic (paper §6.4 methodology).
///
/// **Controller.** The reconfiguration policy is a boxed
/// [`CacheController`] selected from the technique: ESTEEM's interval
/// engine, the passive [`controller::NullController`] for the
/// baseline/Refrint family, or the static-ways ablation. The quantum loop
/// only knows the trait.
///
/// **Warm-up.** The first `warmup_cycles` stand in for the paper's
/// 10 B-instruction fast-forward: caches fill and the controller
/// converges. At the first quantum boundary past the warm-up the simulator
/// takes one [`StatsReading`] of every component (and marks each core's
/// instruction/cycle position); the final report contains only
/// post-reading deltas, computed by the [`StatsRegistry`].
///
/// **Observation.** An optional [`IntervalObserver`] (attached with
/// [`Simulator::with_observer`]) receives one [`IntervalSample`] per
/// observation interval — the controller's reconfiguration interval when
/// it has one, otherwise one retention period — plus a final partial
/// sample at the end of the run. Observers are read-only taps; attaching
/// one cannot change simulation results.
///
/// **Front ends.** Each core's workload stream and private L1 (its front
/// end) feed the core a tape of fixed-size chunks. [`Simulator::run`]
/// shares the filling with a front-end thread of its own when a CPU is
/// spare, and fills them inline otherwise; the report is byte-identical
/// either way.
pub struct Simulator {
    cfg: SystemConfig,
    workload_label: String,
    cores: Vec<CoreState>,
    fronts: Vec<FrontEnd>,
    l2: SetAssocCache,
    refresh: RefreshEngine,
    contention: BankContention,
    mem: MainMemory,
    controller: Box<dyn CacheController>,
    clock: u64,
    next_window: u64,
    /// Exact integral of active slots over time (for the time-averaged
    /// `F_A`): integer cycle-slot accounting, associative by construction.
    active_slot_integral: TimeWeighted,
    /// The paper's `N_L`: line slots that changed power state.
    n_l: Counter,
    reconfig_writebacks: Counter,
    reconfig_discards: Counter,
    /// Reusable buffer for per-bank refresh drains (avoids a Vec
    /// allocation every contention window).
    bank_refresh_scratch: Vec<u64>,
    /// Deferred refresh-scheduler access feed: `(outcome, cycle)` per L2
    /// access this quantum, drained in one batch at the quantum boundary
    /// (only populated when the active policy consults access times —
    /// see [`RefreshEngine::needs_access_feed`]).
    refresh_feed: Vec<(AccessOutcome, u64)>,
    feed_refresh: bool,
    /// Deferred per-bank L2 access counts for this quantum, folded into
    /// the contention tracker in one batch at the quantum boundary. The
    /// modelled wait is constant within a contention window, so deferring
    /// the counting is byte-identical to per-access recording.
    bank_counts: Vec<u64>,
    /// Warm-up reading and measured-region delta handling.
    registry: StatsRegistry,
    /// Trace tap (disabled by default; see [`Simulator::with_tracer`]).
    tracer: Tracer,
    observer: Option<Box<dyn IntervalObserver>>,
    /// Observation cadence in cycles (see type docs).
    obs_period: u64,
    next_obs: u64,
    /// Reading at the previous observation (samples carry deltas).
    last_obs: StatsReading,
    last_obs_cycle: u64,
}

impl Simulator {
    /// Builds a simulator for `profiles[i]` on core `i`. The label names
    /// the workload in reports (a benchmark name or a mix acronym).
    pub fn new(cfg: SystemConfig, profiles: &[BenchmarkProfile], label: &str) -> Self {
        cfg.validate();
        assert_eq!(
            profiles.len(),
            cfg.cores as usize,
            "one benchmark profile per core"
        );
        let mut l2 = SetAssocCache::new(cfg.l2_geometry(), cfg.leader_stride());
        // Only the polyphase refresh family consults per-line retention
        // clocks on demand accesses; skip the bookkeeping otherwise.
        l2.set_retention_tracking(cfg.technique.refresh_policy().is_polyphase());
        let refresh = RefreshEngine::new(cfg.technique.refresh_policy(), cfg.retention, &l2);
        let contention = BankContention::new(cfg.l2_banks, cfg.retention.period_cycles)
            .with_params(2.0, cfg.bank_burst_lines);
        let mem = MainMemory::new(cfg.mem, cfg.retention.period_cycles);
        let controller = controller::for_technique(&cfg.technique);
        let (cores, fronts) = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                // The SRAM L1s have no retention clock to maintain.
                let mut l1 = SetAssocCache::new(cfg.l1_geometry(), None);
                l1.set_retention_tracking(false);
                (
                    CoreState::new(i as u32, p, cfg.l1_geometry().ways, cfg.sim_instructions),
                    FrontEnd::new(AccessStream::new(p, i as u32, cfg.seed), l1),
                )
            })
            .unzip();
        let feed_refresh = refresh.needs_access_feed();
        let bank_counts = vec![0u64; cfg.l2_banks as usize];
        let next_window = cfg.retention.period_cycles;
        let obs_period = controller
            .interval_cycles()
            .unwrap_or(cfg.retention.period_cycles);
        Self {
            cfg,
            workload_label: label.to_owned(),
            cores,
            fronts,
            l2,
            refresh,
            contention,
            mem,
            controller,
            clock: 0,
            next_window,
            active_slot_integral: TimeWeighted::new(),
            n_l: Counter::new(),
            reconfig_writebacks: Counter::new(),
            reconfig_discards: Counter::new(),
            bank_refresh_scratch: Vec::new(),
            refresh_feed: Vec::new(),
            feed_refresh,
            bank_counts,
            registry: StatsRegistry::new(),
            tracer: Tracer::off(),
            observer: None,
            obs_period,
            next_obs: obs_period,
            last_obs: StatsReading::new(),
            last_obs_cycle: 0,
        }
    }

    /// Convenience: single-core simulator.
    pub fn single(cfg: SystemConfig, profile: &BenchmarkProfile) -> Self {
        let label = profile.name.to_owned();
        Self::new(cfg, std::slice::from_ref(profile), &label)
    }

    /// A no-op, kept for source compatibility: the thread count of a run
    /// is not an option. [`Simulator::run`] starts a front-end thread
    /// when a CPU is spare and otherwise fills the front ends inline.
    /// Due for deletion with its last caller, the benchmark's sweep.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Attaches a per-interval observer (builder style). At most one;
    /// later calls replace earlier ones.
    pub fn with_observer(mut self, observer: Box<dyn IntervalObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a trace tap (builder style). The tracer is a cheap clone
    /// of a shared handle; the caller keeps its own to drain/export after
    /// the run. Strictly read-only: attaching a tracer must never change
    /// simulation results (pinned by the golden-report tests).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The controller driving this run (diagnostics).
    pub fn controller_name(&self) -> &'static str {
        self.controller.name()
    }

    /// One full hierarchical reading of every component's statistics.
    /// Pull-based and read-only: nothing on the access hot path, called
    /// only at warm-up/observation/finish boundaries.
    fn sample_stats(&self) -> StatsReading {
        let mut r = StatsReading::new();
        r.scope("sim", |s| s.counter("clock", self.clock));
        r.scope("l2", |s| {
            self.l2.collect(s);
            s.weighted("active_slot_cycles", self.active_slot_integral.integral());
        });
        r.register("refresh", &self.refresh);
        r.register("bank", &self.contention);
        r.register("mem", &self.mem);
        r.scope("reconfig", |s| {
            s.counter("slot_transitions", self.n_l.get());
            s.counter("writebacks", self.reconfig_writebacks.get());
            s.counter("discards", self.reconfig_discards.get());
        });
        r.scope("controller", |s| {
            s.counter("intervals", self.controller.log().len() as u64)
        });
        r.scope("cores", |s| {
            for (i, c) in self.cores.iter().enumerate() {
                s.register(&i.to_string(), c);
            }
        });
        r
    }

    fn take_warmup_reading(&mut self) {
        for c in &mut self.cores {
            c.mark_warmup();
        }
        let reading = self.sample_stats();
        self.registry.mark_warmup(reading);
    }

    /// One shared-L2 access. `now` is the issuing core's local cycle.
    /// Returns the access's total latency (bank wait + L2 latency +, on a
    /// miss, the memory round trip). `full_line_write` marks an L1
    /// write-back: it carries the whole line, so an L2 miss allocates
    /// *without* fetching from memory (write-validate); demand accesses
    /// fetch on miss.
    fn l2_access(&mut self, block: u64, write: bool, full_line_write: bool, now: u64) -> f64 {
        let out = self.l2.access(block, write, now);
        // Refresh-scheduler touches and bank access counts are deferred to
        // a single batch drain at the quantum boundary: nothing reads
        // either before then, and the modelled bank wait is constant
        // within a contention window, so `peek_wait` here returns exactly
        // what the recording `access` call would have.
        if self.feed_refresh {
            self.refresh_feed.push((out, now));
        }
        let wait = self.contention.peek_wait(out.bank);
        self.bank_counts[out.bank as usize] += 1;
        let mut lat = f64::from(self.cfg.l2_latency) + wait;
        if !out.hit {
            if !full_line_write {
                lat += self.mem.read();
            }
            if out.writeback.is_some() {
                self.mem.write();
            }
        }
        lat
    }

    /// Services one L1 miss on core `i` (the core has already charged the
    /// bundle's execution cycles via [`CoreState::run_hits`]).
    fn miss_path(&mut self, i: usize, bundle: &Bundle, l1: L1Rec) {
        let now = self.cores[i].cycle();
        // Demand fill: the L2 copy stays clean (write-back L1 owns the
        // dirtiness until eviction).
        let lat = self.l2_access(bundle.mem.block, false, false, now);
        let overlap = self.cfg.overlap_cycles;
        self.cores[i].stall(lat, overlap);
        // Evicted dirty L1 line: posted full-line write to the L2.
        if l1.has_writeback() {
            let wb = self.cores[i].pop_writeback();
            let _ = self.l2_access(wb, true, true, now);
        }
        self.cores[i].note_progress();
    }

    /// Hands core `i` its next tape chunk: a queued one, or one this
    /// thread fills (inline, or piped while the front-end thread is busy
    /// elsewhere), or else the one it waits for. `block.refill` books all
    /// of it.
    fn next_chunk(&mut self, i: usize, feed: &mut Feed<'_>) {
        prof_span!(self.tracer, "block.refill");
        feed.next_chunk(i, self.cores[i].next_chunk_slot());
    }

    /// Whether interval samples need to be computed — for an attached
    /// observer, a tracer recording interval events, or both.
    fn observing(&self) -> bool {
        self.observer.is_some() || self.tracer.enabled(EventKind::Interval)
    }

    /// Flushes the quantum's deferred access feeds into the refresh
    /// scheduler and contention tracker — must run before anything reads
    /// either (refresh advance, window roll, controller).
    fn drain_access_feeds(&mut self) {
        if !self.refresh_feed.is_empty() {
            prof_span!(self.tracer, "refresh.batch_drain");
            self.refresh.on_access_batch(&self.refresh_feed);
            self.refresh_feed.clear();
        }
        self.contention.record_accesses(&self.bank_counts);
        self.bank_counts.fill(0);
    }

    /// End-of-quantum housekeeping at time `qend`.
    fn quantum_end(&mut self, qend: u64) {
        self.drain_access_feeds();
        let refreshed = self.refresh.advance(&mut self.l2, qend);
        if refreshed.refreshes > 0 || refreshed.invalidations > 0 {
            self.tracer
                .emit(EventKind::Refresh, || TraceEvent::RefreshBatch {
                    cycle: qend,
                    refreshes: refreshed.refreshes,
                    invalidations: refreshed.invalidations,
                    pending: self.refresh.queued_lines(),
                });
        }
        if qend >= self.next_window {
            prof_span!(self.tracer, "refresh.window");
            let mut refr = std::mem::take(&mut self.bank_refresh_scratch);
            self.refresh.drain_bank_refreshes_into(&mut refr);
            self.contention.roll_window(qend, &refr);
            self.tracer
                .emit(EventKind::Bank, || TraceEvent::BankWindow {
                    cycle: qend,
                    refreshes: refr.iter().sum(),
                    mean_wait: self.contention.mean_wait(),
                    utilization: self.contention.mean_utilization(),
                });
            self.bank_refresh_scratch = refr;
            self.mem.roll_window(qend);
            while self.next_window <= qend {
                self.next_window += self.cfg.retention.period_cycles;
            }
        }
        if self.controller.due(qend) {
            prof_span!(self.tracer, "controller.interval");
            let act = self.controller.on_interval(IntervalCtx {
                l2: &mut self.l2,
                now: qend,
                tracer: &self.tracer,
            });
            self.n_l.add(act.slot_transitions);
            self.reconfig_writebacks.add(act.writebacks);
            self.reconfig_discards.add(act.discards);
            // Flushed dirty lines travel to memory.
            for _ in 0..act.writebacks {
                self.mem.write();
            }
        }
        #[cfg(feature = "strict-invariants")]
        let integral_before = self.active_slot_integral.integral();
        self.active_slot_integral
            .accumulate(self.l2.active_slots(), self.cfg.quantum_cycles);
        #[cfg(feature = "strict-invariants")]
        {
            assert!(
                self.l2.active_slots() <= self.l2.geometry().total_slots(),
                "active slots exceed the cache's slot count"
            );
            // Cycle-slot integral monotonicity: the integral grows by
            // exactly `active_slots * quantum` every quantum — no drift,
            // no overflow wrap.
            assert_eq!(
                self.active_slot_integral.integral(),
                integral_before
                    + u128::from(self.l2.active_slots()) * u128::from(self.cfg.quantum_cycles),
                "cycle-slot integral drift"
            );
        }
        self.clock = qend;
        if self.observing() && qend >= self.next_obs {
            self.emit_observation(qend);
            while self.next_obs <= qend {
                self.next_obs += self.obs_period;
            }
        }
    }

    /// Emits one [`IntervalSample`] covering `(last_obs_cycle, now]` to
    /// the observer (if any) and the trace tap (if recording intervals).
    fn emit_observation(&mut self, now: u64) {
        let current = self.sample_stats();
        let d = current.delta_since(&self.last_obs);
        let instructions = (0..self.cores.len())
            .map(|i| d.counter(&format!("cores/{i}/instructions")))
            .sum();
        let sample = IntervalSample {
            cycle: now,
            span_cycles: now - self.last_obs_cycle,
            ways: self.l2.module_ways().to_vec(),
            active_fraction: self.l2.active_fraction(),
            l2_hits: d.counter("l2/hits"),
            l2_misses: d.counter("l2/misses"),
            l2_writebacks: d.counter("l2/writebacks"),
            refreshes: d.counter("refresh/refreshes"),
            invalidations: d.counter("refresh/invalidations"),
            mem_reads: d.counter("mem/reads"),
            mem_writes: d.counter("mem/writes"),
            slot_transitions: d.counter("reconfig/slot_transitions"),
            instructions,
        };
        if let Some(obs) = self.observer.as_mut() {
            obs.on_interval(&sample);
        }
        self.tracer
            .emit(EventKind::Interval, || TraceEvent::Interval(sample));
        self.last_obs = current;
        self.last_obs_cycle = now;
    }

    /// Runs to completion and produces the report.
    ///
    /// The calling thread holds a CPU claim for the run
    /// ([`esteem_par::hold_cpu`]; a sweep or daemon worker already holds
    /// one). If one more claim fits ([`esteem_par::claim_spare_cpu`]),
    /// a thread of their own fills the front ends beside this one;
    /// otherwise they are filled inline. With `ESTEEM_THREADS=1` a run
    /// never starts a thread.
    pub fn run(self) -> SimReport {
        self.run_claimed().0
    }

    /// [`Simulator::run`], also saying whether the front ends were piped.
    pub(crate) fn run_claimed(self) -> (SimReport, bool) {
        let _cpu = esteem_par::hold_cpu();
        let spare = esteem_par::claim_spare_cpu();
        let piped = spare.is_some();
        (self.run_fed(piped), piped)
    }

    /// Runs to completion with the front ends piped (filled by a thread
    /// of their own and this one), or filled inline.
    pub(crate) fn run_fed(mut self, piped: bool) -> SimReport {
        prof_span!(self.tracer, "sim.run");
        let mut fronts = std::mem::take(&mut self.fronts);
        if piped {
            tape::piped(fronts, |pipe| self.simulate(&mut Feed::Piped(pipe)));
        } else {
            self.simulate(&mut Feed::Inline(&mut fronts));
        }
        self.finish()
    }

    /// The quantum loop, until every core has reached its target.
    fn simulate(&mut self, feed: &mut Feed<'_>) {
        // In a single-core system the run ends exactly at the instruction
        // target (so technique-independent counters like miss counts are
        // computed over identical instruction streams); in multicore runs
        // early finishers keep executing, per the paper's methodology.
        let single = self.cores.len() == 1;
        while self.cores.iter().any(|c| !c.reached_target()) {
            let qend = self.clock + self.cfg.quantum_cycles;
            // Quantum boundary in fixed-point units: the inner loop is a
            // pure integer compare per instruction bundle.
            let qend_fp = qend << CYCLE_FP_SHIFT;
            for i in 0..self.cores.len() {
                loop {
                    match self.cores[i].run_hits(qend_fp, single) {
                        Step::Miss(bundle, l1) => self.miss_path(i, &bundle, l1),
                        Step::Dry => self.next_chunk(i, feed),
                        Step::Done => break,
                    }
                }
            }
            self.quantum_end(qend);
            if !self.registry.warmed() && qend >= self.cfg.warmup_cycles {
                self.take_warmup_reading();
            }
        }
    }

    fn finish(mut self) -> SimReport {
        if self.observing() {
            // Close the tail: a final partial sample unless the run ended
            // exactly on an observation boundary.
            if self.clock > self.last_obs_cycle {
                self.emit_observation(self.clock);
            }
            if let Some(obs) = self.observer.as_mut() {
                obs.flush().expect("interval-log write failed");
            }
        }
        // Measured region = everything after the warm-up reading.
        let warm = self.registry.warmup_reading();
        let m = self.sample_stats().delta_since(&warm);
        let cycles = m.counter("sim/clock");
        let seconds = cycles as f64 / self.cfg.clock_hz;
        let total_slots = self.l2.geometry().total_slots() as f64;
        let active_fraction = if cycles > 0 {
            // The integral delta is an exact integer below 2^53 for any
            // realistic run, so this divides the same quantity the old
            // f64 accumulator carried — bit-identical results.
            (m.weighted("l2/active_slot_cycles") as f64 / (total_slots * cycles as f64)).min(1.0)
        } else {
            1.0
        };
        let inputs = EnergyInputs {
            seconds,
            active_fraction,
            l2_hits: m.counter("l2/hits"),
            l2_misses: m.counter("l2/misses"),
            refreshes: m.counter("refresh/refreshes"),
            mem_accesses: m.counter("mem/reads") + m.counter("mem/writes"),
            block_transitions: m.counter("reconfig/slot_transitions"),
        };
        let params = EnergyParams::for_l2_capacity(self.cfg.l2_capacity);
        let energy = EnergyBreakdown::compute(&params, &inputs);
        let per_core = self
            .cores
            .iter()
            .map(|c| CoreReport {
                instructions: c.target_instructions,
                cycles: (c.cycles_at_target.expect("run() completed")
                    - c.cycles_at_warmup.expect("target implies warmed"))
                    as f64
                    / crate::core_model::CYCLE_FP_ONE as f64,
                ipc: c.ipc(),
                l1_hits: c.l1_stats().hits,
                l1_misses: c.l1_stats().misses,
            })
            .collect();
        let intervals_logged = warm.counter("controller/intervals") as usize;
        SimReport {
            workload: self.workload_label,
            technique: self.cfg.technique.name().to_owned(),
            cycles,
            per_core,
            inputs,
            energy,
            l2_hits: m.counter("l2/hits"),
            l2_misses: m.counter("l2/misses"),
            l2_writebacks: m.counter("l2/writebacks"),
            refreshes: m.counter("refresh/refreshes"),
            refresh_invalidations: m.counter("refresh/invalidations"),
            mem_accesses: m.counter("mem/reads") + m.counter("mem/writes"),
            active_ratio: active_fraction,
            intervals: self.controller.log()[intervals_logged..].to_vec(),
            final_bank_wait: self.contention.mean_wait(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlgoParams, Technique};
    use esteem_stats::observer::VecSink;
    use esteem_workloads::benchmark_by_name;

    /// Small, fast config for tests.
    fn quick(technique: Technique, instrs: u64) -> SystemConfig {
        let mut cfg = SystemConfig::paper_single_core(technique);
        cfg.sim_instructions = instrs;
        cfg.warmup_cycles = 200_000;
        cfg
    }

    fn quick_algo() -> AlgoParams {
        // Shorter interval so tiny test runs still reconfigure.
        AlgoParams {
            interval_cycles: 500_000,
            ..AlgoParams::paper_single_core()
        }
    }

    #[test]
    fn baseline_runs_and_reports() {
        let p = benchmark_by_name("gamess").unwrap();
        let r = Simulator::single(quick(Technique::Baseline, 500_000), &p).run();
        assert_eq!(r.per_core.len(), 1);
        assert!(r.per_core[0].ipc > 0.1 && r.per_core[0].ipc < 4.0);
        assert_eq!(r.active_ratio, 1.0, "baseline never reconfigures");
        assert!(r.refreshes > 0, "baseline must refresh");
        assert!(r.energy.total() > 0.0);
        assert!(r.intervals.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let p = benchmark_by_name("gcc").unwrap();
        let a = Simulator::single(quick(Technique::Baseline, 300_000), &p).run();
        let b = Simulator::single(quick(Technique::Baseline, 300_000), &p).run();
        assert_eq!(a, b, "simulation must be bit-deterministic");
    }

    #[test]
    fn esteem_reduces_active_ratio_and_refreshes() {
        let p = benchmark_by_name("gamess").unwrap();
        // Warm-up must cover the shrink-confirmation streak (3 intervals of
        // 500k cycles) so the measured region sees the converged cache.
        let mut base_cfg = quick(Technique::Baseline, 3_000_000);
        base_cfg.warmup_cycles = 2_000_000;
        let mut est_cfg = quick(Technique::Esteem(quick_algo()), 3_000_000);
        est_cfg.warmup_cycles = 2_000_000;
        let base = Simulator::single(base_cfg, &p).run();
        let est = Simulator::single(est_cfg, &p).run();
        assert!(
            est.active_ratio < 0.6,
            "gamess is tiny; ESTEEM should turn most ways off (got {})",
            est.active_ratio
        );
        assert!(
            est.refreshes < base.refreshes / 2,
            "refreshes: esteem {} vs base {}",
            est.refreshes,
            base.refreshes
        );
        assert!(!est.intervals.is_empty());
    }

    #[test]
    fn rpv_refreshes_less_than_baseline() {
        let p = benchmark_by_name("gamess").unwrap();
        let base = Simulator::single(quick(Technique::Baseline, 1_000_000), &p).run();
        let rpv = Simulator::single(quick(Technique::Rpv, 1_000_000), &p).run();
        assert!(rpv.refreshes < base.refreshes);
        assert_eq!(rpv.active_ratio, 1.0, "RPV never turns the cache off");
    }

    #[test]
    fn dual_core_runs_both_to_target() {
        let a = benchmark_by_name("gobmk").unwrap();
        let b = benchmark_by_name("nekbone").unwrap();
        let mut cfg = SystemConfig::paper_dual_core(Technique::Baseline);
        cfg.sim_instructions = 300_000;
        cfg.warmup_cycles = 200_000;
        let r = Simulator::new(cfg, &[a, b], "GkNe").run();
        assert_eq!(r.per_core.len(), 2);
        for c in &r.per_core {
            assert_eq!(c.instructions, 300_000);
            assert!(c.ipc > 0.05);
        }
    }

    #[test]
    fn ecc_refresh_technique_end_to_end() {
        let p = benchmark_by_name("hmmer").unwrap();
        let base = Simulator::single(quick(Technique::Baseline, 600_000), &p).run();
        let ecc = Simulator::single(
            quick(
                Technique::EccRefresh {
                    periods: 4,
                    ecc_bits: 1,
                },
                600_000,
            ),
            &p,
        )
        .run();
        // Refreshing every 4th period cuts refresh volume by roughly 4x
        // (valid-only and scrubs move it a bit further).
        assert!(
            ecc.refreshes < base.refreshes / 2,
            "ecc {} vs base {}",
            ecc.refreshes,
            base.refreshes
        );
        assert_eq!(ecc.active_ratio, 1.0, "ECC refresh never powers off");
    }

    #[test]
    fn energy_inputs_consistent_with_counters() {
        let p = benchmark_by_name("milc").unwrap();
        let r = Simulator::single(quick(Technique::Baseline, 500_000), &p).run();
        assert_eq!(r.inputs.l2_hits, r.l2_hits);
        assert_eq!(r.inputs.l2_misses, r.l2_misses);
        assert_eq!(r.inputs.refreshes, r.refreshes);
        assert_eq!(r.inputs.mem_accesses, r.mem_accesses);
        // Streaming: plenty of misses and memory traffic.
        assert!(r.l2_misses > 1000);
        assert!(r.mem_accesses >= r.l2_misses);
    }

    #[test]
    fn static_ways_technique_end_to_end() {
        let p = benchmark_by_name("gamess").unwrap();
        let base = Simulator::single(quick(Technique::Baseline, 600_000), &p).run();
        let stat = Simulator::single(quick(Technique::StaticWays { ways: 4 }, 600_000), &p).run();
        // 4 of 16 ways powered: F_A converges to 0.25 (warm-up covers the
        // single reconfiguration, so the measured region is all post-shrink).
        assert!(
            (stat.active_ratio - 0.25).abs() < 1e-9,
            "active ratio {}",
            stat.active_ratio
        );
        assert!(stat.refreshes < base.refreshes / 2);
        assert!(
            stat.intervals.is_empty(),
            "the one-shot shrink happens during warm-up"
        );
        assert_eq!(stat.technique, "static-ways");
    }

    /// A sink wrapper sharing collected samples with the test through an
    /// `Arc<Mutex<..>>` (the simulator consumes the box it is given).
    struct SharedSink(std::sync::Arc<std::sync::Mutex<VecSink>>);

    impl IntervalObserver for SharedSink {
        fn on_interval(&mut self, sample: &IntervalSample) {
            self.0.lock().unwrap().on_interval(sample);
        }
    }

    #[test]
    fn observer_streams_interval_samples() {
        let p = benchmark_by_name("gamess").unwrap();
        let shared = std::sync::Arc::new(std::sync::Mutex::new(VecSink::new()));
        let cfg = quick(Technique::Esteem(quick_algo()), 1_500_000);
        let r = Simulator::single(cfg, &p)
            .with_observer(Box::new(SharedSink(shared.clone())))
            .run();
        let samples = std::mem::take(&mut shared.lock().unwrap().samples);
        assert!(samples.len() >= 3, "got {} samples", samples.len());
        // Cadence: ESTEEM's interval (500k), plus a final partial sample.
        for s in &samples[..samples.len() - 1] {
            assert_eq!(s.span_cycles, 500_000);
            assert_eq!(s.cycle % 500_000, 0);
            assert_eq!(s.ways.len(), 8, "one way count per module");
        }
        assert!(samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
        // Deltas must add up to lifetime totals: compare the summed
        // refresh deltas with the engine's lifetime counter via the
        // measured report plus its warm-up share.
        let total_refreshes: u64 = samples.iter().map(|s| s.refreshes).sum();
        assert!(total_refreshes >= r.refreshes);
        let total_instrs: u64 = samples.iter().map(|s| s.instructions).sum();
        assert!(total_instrs >= 1_500_000);
    }

    #[test]
    fn observer_does_not_perturb_results() {
        let p = benchmark_by_name("gcc").unwrap();
        let plain = Simulator::single(quick(Technique::Esteem(quick_algo()), 400_000), &p).run();
        let shared = std::sync::Arc::new(std::sync::Mutex::new(VecSink::new()));
        let observed = Simulator::single(quick(Technique::Esteem(quick_algo()), 400_000), &p)
            .with_observer(Box::new(SharedSink(shared)))
            .run();
        assert_eq!(plain, observed, "observer must be a read-only tap");
    }

    #[test]
    fn tracer_is_read_only_tap_and_captures_events() {
        use esteem_trace::{EventKind, TraceFilter, Tracer};
        let p = benchmark_by_name("gamess").unwrap();
        let plain = Simulator::single(quick(Technique::Esteem(quick_algo()), 1_500_000), &p).run();
        let tracer = Tracer::ring(1 << 16, TraceFilter::all());
        let traced = Simulator::single(quick(Technique::Esteem(quick_algo()), 1_500_000), &p)
            .with_tracer(tracer.clone())
            .run();
        assert_eq!(plain, traced, "tracer must be a read-only tap");
        let evs = tracer.drain();
        let count = |k: EventKind| evs.iter().filter(|e| e.kind() == k).count();
        // >= 2 ESTEEM intervals of 500k cycles in 1.5M+ cycles, each
        // producing 8 module decisions + 1 apply.
        assert!(count(EventKind::Reconfig) >= 18, "{evs:?}");
        assert!(count(EventKind::Refresh) > 0);
        assert!(count(EventKind::Bank) > 0);
        assert!(count(EventKind::Interval) >= 3);
        // Cycle stamps are monotone within each kind.
        for k in [EventKind::Refresh, EventKind::Bank, EventKind::Interval] {
            let cycles: Vec<u64> = evs
                .iter()
                .filter(|e| e.kind() == k)
                .filter_map(|e| e.cycle())
                .collect();
            assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{k:?} not sorted");
        }
    }

    #[test]
    fn trace_filter_limits_recorded_kinds() {
        use esteem_trace::{EventKind, TraceFilter, Tracer};
        let p = benchmark_by_name("gamess").unwrap();
        let tracer = Tracer::ring(1 << 16, TraceFilter::none().with(EventKind::Reconfig));
        Simulator::single(quick(Technique::Esteem(quick_algo()), 1_000_000), &p)
            .with_tracer(tracer.clone())
            .run();
        let evs = tracer.drain();
        assert!(!evs.is_empty());
        assert!(evs.iter().all(|e| e.kind() == EventKind::Reconfig));
    }

    /// The techniques whose back ends differ most: passive, ESTEEM's
    /// interval engine, and RPV's polyphase refresh.
    fn three_techniques() -> [Technique; 3] {
        [
            Technique::Baseline,
            Technique::Esteem(quick_algo()),
            Technique::Rpv,
        ]
    }

    /// Runs `build()` once with the front ends filled inline and once
    /// piped through a front-end thread; the reports must serialize to
    /// the same bytes.
    fn assert_piped_matches_inline(what: &str, build: impl Fn() -> Simulator) -> SimReport {
        let inline = build().run_fed(false);
        let piped = build().run_fed(true);
        assert_eq!(
            serde_json::to_string(&inline).unwrap(),
            serde_json::to_string(&piped).unwrap(),
            "{what}: piped report differs from inline"
        );
        inline
    }

    #[test]
    fn piped_front_ends_give_byte_identical_single_core_reports() {
        let p = benchmark_by_name("gcc").unwrap();
        for technique in three_techniques() {
            // An odd target: the single-core break lands mid-chunk.
            let cfg = quick(technique, 300_001);
            let r = assert_piped_matches_inline("gcc", || Simulator::single(cfg.clone(), &p));
            let bundles = r.per_core[0].l1_hits + r.per_core[0].l1_misses;
            assert_ne!(bundles % tape::CHUNK_BUNDLES as u64, 0);
        }
    }

    #[test]
    fn piped_front_ends_give_byte_identical_reports_shorter_than_a_chunk() {
        let p = benchmark_by_name("mcf").unwrap();
        for technique in three_techniques() {
            let mut cfg = quick(technique, 500);
            cfg.warmup_cycles = 1000;
            let r = assert_piped_matches_inline("short mcf", || Simulator::single(cfg.clone(), &p));
            let bundles = r.per_core[0].l1_hits + r.per_core[0].l1_misses;
            assert!(bundles < tape::CHUNK_BUNDLES as u64, "{bundles} bundles");
        }
    }

    #[test]
    fn piped_front_ends_give_byte_identical_dual_core_reports() {
        // McLu: mcf crawls while lu races ahead, so one core consumes
        // its tape far faster than the other.
        let mix = esteem_workloads::mixes::mix_by_acronym("McLu").unwrap();
        for technique in three_techniques() {
            let mut cfg = SystemConfig::paper_dual_core(technique);
            cfg.sim_instructions = 200_000;
            cfg.warmup_cycles = 100_000;
            let r = assert_piped_matches_inline("McLu", || {
                Simulator::new(cfg.clone(), &[mix.a.clone(), mix.b.clone()], "McLu")
            });
            let [a, b] = [&r.per_core[0], &r.per_core[1]].map(|c| c.l1_hits + c.l1_misses);
            assert!(a.max(b) > 2 * a.min(b), "tapes consumed: {a} and {b}");
        }
    }

    #[test]
    fn one_thread_budget_starts_no_front_end_thread() {
        // `ESTEEM_THREADS` is process-wide. The other tests of this
        // binary that read it only decide whether to pipe, which no
        // report depends on, and no other test sets it.
        let p = benchmark_by_name("gamess").unwrap();
        let prior = std::env::var("ESTEEM_THREADS").ok();
        std::env::set_var("ESTEEM_THREADS", "1");
        let (report, piped) =
            Simulator::single(quick(Technique::Baseline, 50_000), &p).run_claimed();
        match prior {
            Some(v) => std::env::set_var("ESTEEM_THREADS", v),
            None => std::env::remove_var("ESTEEM_THREADS"),
        }
        assert!(!piped, "ESTEEM_THREADS=1 must keep the run on one thread");
        assert_eq!(report.per_core[0].instructions, 50_000);
    }

    /// Panics on the observer's second interval, in the middle of a run.
    struct PanicOnSecond(u32);

    impl IntervalObserver for PanicOnSecond {
        fn on_interval(&mut self, _: &IntervalSample) {
            self.0 += 1;
            assert!(self.0 < 2, "observer gave up");
        }
    }

    #[test]
    fn a_panicking_piped_run_unwinds_and_joins_its_front_end() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let p = benchmark_by_name("gamess").unwrap();
            let sim = Simulator::single(quick(Technique::Baseline, 2_000_000), &p)
                .with_observer(Box::new(PanicOnSecond(0)));
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_fed(true)));
            let _ = tx.send(caught.map_err(|e| esteem_par::panic_message(e.as_ref())));
        });
        // `catch_unwind` can only return once the run's thread scope has
        // joined its front-end thread, so an answer in time means that
        // thread has exited.
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the panicking run must unwind within 10 s");
        let msg = result.expect_err("the observer's panic is the run's panic");
        assert!(msg.contains("observer gave up"), "got: {msg}");
    }

    #[test]
    fn observer_cadence_falls_back_to_retention_period() {
        let p = benchmark_by_name("gamess").unwrap();
        let shared = std::sync::Arc::new(std::sync::Mutex::new(VecSink::new()));
        Simulator::single(quick(Technique::Baseline, 400_000), &p)
            .with_observer(Box::new(SharedSink(shared.clone())))
            .run();
        let samples = std::mem::take(&mut shared.lock().unwrap().samples);
        assert!(!samples.is_empty());
        // Retention period is 100k cycles (50us at 2 GHz).
        assert_eq!(samples[0].cycle, 100_000);
        assert_eq!(samples[0].ways, vec![16], "baseline: one full module");
        assert!((samples[0].active_fraction - 1.0).abs() < 1e-12);
    }
}
