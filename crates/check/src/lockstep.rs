//! Runs a fuzzed case through the optimized stack and the oracle in
//! lockstep, comparing every observable.
//!
//! The harness drives `SetAssocCache` + `RefreshEngine` exactly the way
//! `esteem_core::System` does: demand accesses are reported to the refresh
//! engine via `on_access`, reconfigurations go through
//! `set_module_active_ways` (turned-off lines are *not* reported to the
//! engine — it finds them on its own at the next advance, matching the
//! simulator), and the engine is advanced to the current cycle at every
//! `Advance` op. After each advance the engine materializes the retention
//! clocks it keeps implicitly ([`RefreshEngine::sync_last_update`]) and
//! the *entire* observable state is compared: line states,
//! every lifetime counter, the ATD histograms, the drained per-bank refresh
//! windows, and the eq. 2–8 energy identities evaluated over both sides'
//! counters. A panic out of the optimized stack (e.g. a promoted
//! `strict-invariants` assert) is caught and reported as a divergence at
//! the op that raised it, so it minimizes like any mismatch.
//!
//! Cases whose cache has the L1 shape ([`runs_l1_replica`]) are also
//! replayed through the kernel behind every L1 in the simulator,
//! [`SetAssocCache::access_batch_l1`], on an independent plain cache
//! (`L1Replica`). Accesses accumulate between comparison points and flush
//! as one block (the way the simulator's front end refills), each
//! [`L1Rec`] is compared against the scalar path's outcome, and at every
//! advance the replica's counters and occupancy must match too; a final
//! sweep compares every line. An L1-kernel bug therefore minimizes to a
//! repro exactly like an oracle mismatch.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use esteem_cache::{encode_l1_access, AccessOutcome, CacheGeometry, L1Rec, SetAssocCache};
use esteem_edram::{RefreshEngine, RefreshPolicy, RetentionSpec};
use esteem_energy::{EnergyBreakdown, EnergyInputs, EnergyParams};

use crate::fuzz::{Case, Op};
use crate::oracle::{CaseConfig, CheckPolicy, OracleModel};
use crate::Divergence;

thread_local! {
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Replaces the process panic hook with one that records the message
/// (with location) for [`run_case`] instead of printing a backtrace. Call
/// once before a fuzzing loop; without it every strict-invariant panic
/// spams stderr while being converted into a [`Divergence`] anyway.
pub fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        LAST_PANIC.with(|c| *c.borrow_mut() = Some(msg));
    }));
}

/// Translates the fuzzer's policy tag into the optimized stack's enum.
pub fn to_refresh_policy(policy: CheckPolicy, phases: u8) -> RefreshPolicy {
    match policy {
        CheckPolicy::PeriodicAll => RefreshPolicy::PeriodicAll,
        CheckPolicy::PeriodicValid => RefreshPolicy::PeriodicValid,
        CheckPolicy::PolyphaseValid => RefreshPolicy::PolyphaseValid { phases },
        CheckPolicy::PolyphaseDirty => RefreshPolicy::PolyphaseDirty { phases },
    }
}

/// Runs one case to completion; `Some` carries the first divergence (or
/// caught panic), `None` means the optimized stack and the oracle agreed
/// on every compared observable.
pub fn run_case(case: &Case) -> Option<Divergence> {
    LAST_PANIC.with(|c| *c.borrow_mut() = None);
    let op_index = RefCell::new(0usize);
    let result = catch_unwind(AssertUnwindSafe(|| run_case_inner(case, &op_index)));
    match result {
        Ok(d) => d,
        Err(payload) => {
            let msg = LAST_PANIC
                .with(|c| c.borrow_mut().take())
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                })
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Some(Divergence {
                op_index: *op_index.borrow(),
                field: "panic".into(),
                expected: "no panic".into(),
                got: msg,
            })
        }
    }
}

macro_rules! diff {
    ($at:expr, $field:expr, $oracle:expr, $optimized:expr) => {{
        let (o, g) = (&$oracle, &$optimized);
        if o != g {
            return Some(Divergence {
                op_index: $at,
                field: $field.to_string(),
                expected: format!("{o:?}"),
                got: format!("{g:?}"),
            });
        }
    }};
}

struct Harness {
    cache: SetAssocCache,
    engine: RefreshEngine,
    oracle: OracleModel,
    params: EnergyParams,
    now: u64,
    /// Accumulated `N_L` (reconfiguration slot transitions) per side.
    opt_transitions: u64,
    ora_transitions: u64,
    /// Accumulated reconfiguration write-backs per side (part of `A_MM`).
    opt_reconf_wb: u64,
    ora_reconf_wb: u64,
    /// The L1-kernel replica, present iff [`runs_l1_replica`].
    l1: Option<L1Replica>,
}

/// Builds the optimized cache for `cfg` the way the simulator would:
/// per-access retention clocks are maintained only for policies that read
/// them.
pub(crate) fn optimized_cache(cfg: &CaseConfig) -> SetAssocCache {
    let geom = CacheGeometry {
        sets: cfg.sets,
        ways: cfg.ways,
        line_bytes: 64,
        banks: cfg.banks,
        modules: cfg.modules,
        tag_bits: 40,
    };
    geom.validate();
    let mut cache = SetAssocCache::new(geom, cfg.leader_stride);
    cache.set_retention_tracking(cfg.policy.is_polyphase());
    cache
}

/// Whether [`run_case`] also replays `case` through the L1 replica: its
/// cache qualifies for [`SetAssocCache::access_batch_l1`] and the case
/// never reconfigures it (the simulator's L1s keep all ways on, and a
/// shrunk cache no longer qualifies).
pub fn runs_l1_replica(case: &Case) -> bool {
    !case.ops.iter().any(|op| matches!(op, Op::Reconfig { .. }))
        && optimized_cache(&case.config).supports_l1_batch()
}

/// Divergence field prefix of the L1 replica.
const L1_TAG: &str = "l1";

/// An independent plain cache fed exclusively through
/// [`SetAssocCache::access_batch_l1`]. It has no refresh engine because
/// the simulator's L1s have none; the cases it runs on use periodic
/// policies, whose `advance` leaves cache state untouched, so it tracks
/// the scalar cache exactly.
struct L1Replica {
    cache: SetAssocCache,
    /// Encoded accesses since the last flush, the scalar outcome each must
    /// reproduce, and the op index it came from.
    pending: Vec<u64>,
    expected: Vec<AccessOutcome>,
    at: Vec<usize>,
    recs: Vec<L1Rec>,
    writebacks: Vec<u64>,
}

impl L1Replica {
    fn new(geom: CacheGeometry) -> Self {
        let mut cache = SetAssocCache::new(geom, None);
        cache.set_retention_tracking(false);
        Self {
            cache,
            pending: Vec::new(),
            expected: Vec::new(),
            at: Vec::new(),
            recs: Vec::new(),
            writebacks: Vec::new(),
        }
    }

    fn push(&mut self, at: usize, block: u64, write: bool, expected: AccessOutcome) {
        self.pending.push(encode_l1_access(block, write));
        self.expected.push(expected);
        self.at.push(at);
    }

    /// Runs the buffered accesses through the L1 kernel, compares each
    /// record against the scalar path's outcome, and folds its stats.
    fn flush(&mut self) -> Option<Divergence> {
        self.recs.clear();
        self.writebacks.clear();
        self.cache
            .access_batch_l1(&self.pending, &mut self.recs, &mut self.writebacks);
        let mut writebacks = self.writebacks.iter().copied();
        for (i, &rec) in self.recs.iter().enumerate() {
            let (want, at) = (&self.expected[i], self.at[i]);
            diff!(at, format!("{L1_TAG}.hit"), want.hit, rec.hit());
            if want.hit {
                diff!(at, format!("{L1_TAG}.hit_pos"), want.hit_pos, rec.hit_pos());
            }
            diff!(
                at,
                format!("{L1_TAG}.has_writeback"),
                want.writeback.is_some(),
                rec.has_writeback()
            );
            if rec.has_writeback() {
                diff!(
                    at,
                    format!("{L1_TAG}.writeback"),
                    want.writeback,
                    writebacks.next()
                );
            }
            self.cache.apply_rec_stats(rec, self.pending[i] & 1 != 0);
        }
        if let Some(&at) = self.at.last() {
            diff!(
                at,
                format!("{L1_TAG}.stray_writeback"),
                None::<u64>,
                writebacks.next()
            );
        }
        self.pending.clear();
        self.expected.clear();
        self.at.clear();
        None
    }

    /// Compares the replica's lifetime counters and occupancy against the
    /// scalar cache's.
    fn compare_stats(&self, at: usize, scalar: &SetAssocCache) -> Option<Divergence> {
        let (want, got) = (&scalar.stats, &self.cache.stats);
        diff!(at, format!("{L1_TAG}.hits"), want.hits, got.hits);
        diff!(at, format!("{L1_TAG}.misses"), want.misses, got.misses);
        diff!(at, format!("{L1_TAG}.writes"), want.writes, got.writes);
        diff!(
            at,
            format!("{L1_TAG}.writebacks"),
            want.writebacks,
            got.writebacks
        );
        diff!(
            at,
            format!("{L1_TAG}.pos_hits"),
            want.pos_hits,
            got.pos_hits
        );
        diff!(
            at,
            format!("{L1_TAG}.valid_lines"),
            scalar.valid_lines(),
            self.cache.valid_lines()
        );
        None
    }

    /// Final whole-state sweep against the scalar cache (run once, after
    /// the closing flush): any silent state skew the outcome comparison
    /// missed surfaces here at the latest.
    fn compare_lines(&self, at: usize, scalar: &SetAssocCache) -> Option<Divergence> {
        let g = scalar.geometry();
        for set in 0..g.sets {
            for way in 0..g.ways {
                let want = scalar.line(set, way);
                let got = self.cache.line(set, way);
                let field = |f: &str| format!("{L1_TAG}.line[{set}][{way}].{f}");
                diff!(at, field("valid"), want.valid, got.valid);
                if want.valid {
                    diff!(at, field("dirty"), want.dirty, got.dirty);
                    diff!(at, field("tag"), want.tag, got.tag);
                }
            }
        }
        self.cache.assert_invariants();
        None
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: mutates the scalar cache after the last oracle
    /// comparison, just before the L1 replica's final line sweep.
    static BEFORE_L1_SWEEP: std::cell::Cell<Option<fn(&mut SetAssocCache)>> =
        const { std::cell::Cell::new(None) };
}

fn run_case_inner(case: &Case, op_index: &RefCell<usize>) -> Option<Divergence> {
    let cfg = &case.config;
    let cache = optimized_cache(cfg);
    let geom = *cache.geometry();
    let engine = RefreshEngine::new(
        to_refresh_policy(cfg.policy, cfg.phases),
        RetentionSpec {
            period_cycles: cfg.retention,
        },
        &cache,
    );
    let mut h = Harness {
        params: EnergyParams::for_l2_capacity(geom.capacity_bytes()),
        cache,
        engine,
        oracle: OracleModel::new(cfg),
        now: 0,
        opt_transitions: 0,
        ora_transitions: 0,
        opt_reconf_wb: 0,
        ora_reconf_wb: 0,
        l1: runs_l1_replica(case).then(|| L1Replica::new(geom)),
    };

    for (at, op) in case.ops.iter().enumerate() {
        *op_index.borrow_mut() = at;
        match *op {
            Op::Access {
                block,
                write,
                dcycles,
            } => {
                h.now += dcycles;
                let opt = h.cache.access(block, write, h.now);
                h.engine.on_access(&opt, h.now);
                let ora = h.oracle.access(block, write, h.now);
                diff!(at, "access.hit", ora.hit, opt.hit);
                diff!(at, "access.set", ora.set, opt.set);
                diff!(at, "access.bank", ora.bank, opt.bank);
                diff!(at, "access.module", ora.module, opt.module);
                diff!(at, "access.leader", ora.leader, opt.leader);
                diff!(at, "access.way", ora.way, opt.way);
                if ora.hit {
                    diff!(at, "access.hit_pos", ora.hit_pos, opt.hit_pos);
                } else {
                    diff!(
                        at,
                        "access.evicted_valid",
                        ora.evicted_valid,
                        opt.evicted_valid
                    );
                    diff!(at, "access.writeback", ora.writeback, opt.writeback);
                }
                // Queue for the L1 replica; it flushes as one block at the
                // next advance, like the simulator's refill.
                if let Some(l1) = &mut h.l1 {
                    l1.push(at, block, write, opt);
                }
            }
            Op::Reconfig { module, ways } => {
                let opt = h.cache.set_module_active_ways(module, ways, h.now);
                let ora = h.oracle.reconfig(module, ways, h.now);
                h.opt_transitions += opt.slot_transitions;
                h.ora_transitions += ora.slot_transitions;
                h.opt_reconf_wb += opt.writebacks;
                h.ora_reconf_wb += ora.writebacks;
                diff!(at, "reconfig.writebacks", ora.writebacks, opt.writebacks);
                diff!(at, "reconfig.discards", ora.discards, opt.discards);
                diff!(
                    at,
                    "reconfig.slot_transitions",
                    ora.slot_transitions,
                    opt.slot_transitions
                );
                diff!(
                    at,
                    "module_ways",
                    h.oracle.module_ways(),
                    h.cache.module_ways()
                );
            }
            Op::Advance { dcycles } => {
                h.now += dcycles;
                if let Some(d) = advance_and_compare(&mut h, at) {
                    return Some(d);
                }
            }
        }
    }

    // Final flush: push every pending refresh through, then do one last
    // full-state comparison — including the whole-cache sweep of the L1
    // replica against the scalar cache.
    let at = case.ops.len();
    *op_index.borrow_mut() = at;
    h.now += 3 * cfg.retention;
    if let Some(d) = advance_and_compare(&mut h, at) {
        return Some(d);
    }
    #[cfg(test)]
    if let Some(corrupt) = BEFORE_L1_SWEEP.with(std::cell::Cell::take) {
        corrupt(&mut h.cache);
    }
    h.l1.as_ref().and_then(|l1| l1.compare_lines(at, &h.cache))
}

fn advance_and_compare(h: &mut Harness, at: usize) -> Option<Divergence> {
    // The L1 replica flushes its buffered block before the refresh engine
    // advances, matching the simulator's refill-then-advance order.
    if let Some(d) = h.l1.as_mut().and_then(L1Replica::flush) {
        return Some(d);
    }
    let rep = h.engine.advance(&mut h.cache, h.now);
    h.engine.sync_last_update(&mut h.cache);
    let (ora_r, ora_i) = h.oracle.advance_refresh(h.now);
    diff!(at, "advance.refreshes", ora_r, rep.refreshes);
    diff!(at, "advance.invalidations", ora_i, rep.invalidations);
    if let Some(d) = compare_full(h, at) {
        return Some(d);
    }
    // The scalar side checked out against the oracle; now the replica
    // must match the scalar counters exactly.
    h.l1.as_ref().and_then(|l1| l1.compare_stats(at, &h.cache))
}

/// The post-advance whole-state comparison.
fn compare_full(h: &mut Harness, at: usize) -> Option<Divergence> {
    let cfg = h.oracle.config().clone();
    let cache = &h.cache;
    let oracle = &h.oracle;

    // Lifetime access counters.
    diff!(at, "stats.hits", oracle.hits, cache.stats.hits);
    diff!(at, "stats.misses", oracle.misses, cache.stats.misses);
    diff!(
        at,
        "stats.writebacks",
        oracle.writebacks,
        cache.stats.writebacks
    );
    diff!(at, "stats.writes", oracle.writes, cache.stats.writes);
    diff!(at, "stats.pos_hits", oracle.pos_hits, cache.stats.pos_hits);

    // Occupancy, per-bank distribution, powered slots, way masks.
    diff!(at, "valid_lines", oracle.valid_lines(), cache.valid_lines());
    diff!(
        at,
        "valid_per_bank",
        oracle.valid_per_bank(),
        cache.valid_lines_per_bank().to_vec()
    );
    diff!(
        at,
        "active_slots",
        oracle.active_slots(),
        cache.active_slots()
    );
    diff!(at, "module_ways", oracle.module_ways(), cache.module_ways());

    // ATD leader-set accounting: histogram credit and leader census.
    for m in 0..cfg.modules {
        diff!(
            at,
            format!("atd.module_hits[{m}]"),
            oracle.atd_hits[m as usize],
            cache.atd.module_hits(m).to_vec()
        );
        diff!(
            at,
            format!("atd.leaders_in_module[{m}]"),
            oracle.leaders_in_module(m),
            cache.atd.leaders_in_module(m)
        );
    }

    // Refresh totals and the per-bank contention windows.
    diff!(
        at,
        "refresh.total",
        oracle.total_refreshes,
        h.engine.total_refreshes()
    );
    diff!(
        at,
        "refresh.invalidations",
        oracle.total_invalidations,
        h.engine.total_invalidations()
    );
    let ora_banks = h.oracle.drain_bank_refreshes();
    let opt_banks = h.engine.drain_bank_refreshes();
    diff!(at, "refresh.bank_window", ora_banks, opt_banks);

    // Full line-state sweep.
    let track = cfg.policy.is_polyphase();
    for set in 0..cfg.sets {
        for way in 0..cfg.ways {
            let opt = h.cache.line(set, way);
            let (valid, dirty, tag, last_update) = h.oracle.line(set, way);
            diff!(at, format!("line[{set}][{way}].valid"), valid, opt.valid);
            if valid {
                diff!(at, format!("line[{set}][{way}].dirty"), dirty, opt.dirty);
                diff!(at, format!("line[{set}][{way}].tag"), tag, opt.tag);
                if track {
                    diff!(
                        at,
                        format!("line[{set}][{way}].last_update"),
                        last_update,
                        opt.last_update
                    );
                }
            }
        }
    }

    // Structural self-check of the optimized cache (counter recounts, LRU
    // permutations, mask containment, ATD census). Panics are caught by
    // the run_case catch_unwind and surfaced as divergences.
    h.cache.assert_invariants();

    // Eq. 2–8 energy identities from both sides' counters. The inputs were
    // compared above, so any disagreement here isolates a divergence in
    // the derived quantities (active fraction, A_MM synthesis, N_L).
    let seconds = h.now as f64 / 2.0e9;
    let opt_in = EnergyInputs {
        seconds,
        active_fraction: h.cache.active_fraction(),
        l2_hits: h.cache.stats.hits,
        l2_misses: h.cache.stats.misses,
        refreshes: h.engine.total_refreshes(),
        mem_accesses: h.cache.stats.misses + h.cache.stats.writebacks + h.opt_reconf_wb,
        block_transitions: h.opt_transitions,
    };
    let total_slots = u64::from(cfg.sets) * u64::from(cfg.ways);
    let ora_in = EnergyInputs {
        seconds,
        active_fraction: h.oracle.active_slots() as f64 / total_slots as f64,
        l2_hits: h.oracle.hits,
        l2_misses: h.oracle.misses,
        refreshes: h.oracle.total_refreshes,
        mem_accesses: h.oracle.misses + h.oracle.writebacks + h.ora_reconf_wb,
        block_transitions: h.ora_transitions,
    };
    let opt_e = EnergyBreakdown::compute(&h.params, &opt_in);
    let ora_e = EnergyBreakdown::compute(&h.params, &ora_in);
    diff!(at, "energy.l2_leakage", ora_e.l2_leakage, opt_e.l2_leakage);
    diff!(at, "energy.l2_dynamic", ora_e.l2_dynamic, opt_e.l2_dynamic);
    diff!(at, "energy.l2_refresh", ora_e.l2_refresh, opt_e.l2_refresh);
    diff!(at, "energy.mm_leakage", ora_e.mm_leakage, opt_e.mm_leakage);
    diff!(at, "energy.mm_dynamic", ora_e.mm_dynamic, opt_e.mm_dynamic);
    diff!(at, "energy.algo", ora_e.algo, opt_e.algo);
    diff!(at, "energy.total", ora_e.total(), opt_e.total());

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CaseConfig;

    fn base_config(policy: CheckPolicy) -> CaseConfig {
        CaseConfig {
            sets: 16,
            ways: 4,
            banks: 2,
            modules: 2,
            leader_stride: Some(8),
            policy,
            retention: 400,
            phases: if policy.is_polyphase() { 4 } else { 1 },
        }
    }

    /// A hand-written, straight-line case agrees end to end.
    #[test]
    fn simple_case_agrees() {
        for policy in [
            CheckPolicy::PeriodicAll,
            CheckPolicy::PeriodicValid,
            CheckPolicy::PolyphaseValid,
            CheckPolicy::PolyphaseDirty,
        ] {
            let case = Case {
                config: base_config(policy),
                ops: vec![
                    Op::Access {
                        block: 3,
                        write: true,
                        dcycles: 10,
                    },
                    Op::Access {
                        block: 19,
                        write: false,
                        dcycles: 10,
                    },
                    Op::Access {
                        block: 3,
                        write: false,
                        dcycles: 10,
                    },
                    Op::Advance { dcycles: 500 },
                    Op::Reconfig { module: 0, ways: 1 },
                    Op::Access {
                        block: 35,
                        write: true,
                        dcycles: 5,
                    },
                    Op::Advance { dcycles: 900 },
                    Op::Reconfig { module: 0, ways: 4 },
                    Op::Advance { dcycles: 2000 },
                ],
            };
            assert_eq!(run_case(&case), None, "policy {policy:?} diverged");
        }
    }

    /// An L1-shaped case: one module, one bank, no leaders, a periodic
    /// policy, and enough same-set traffic for hits, dirty evictions and
    /// several flushes.
    fn l1_case() -> Case {
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(Op::Access {
                block: (i % 7) * 16 + i % 3,
                write: i % 4 == 0,
                dcycles: 7,
            });
            if i % 10 == 9 {
                ops.push(Op::Advance { dcycles: 150 });
            }
        }
        Case {
            config: CaseConfig {
                banks: 1,
                modules: 1,
                leader_stride: None,
                ..base_config(CheckPolicy::PeriodicValid)
            },
            ops,
        }
    }

    #[test]
    fn l1_case_agrees() {
        let case = l1_case();
        assert!(runs_l1_replica(&case));
        assert_eq!(run_case(&case), None);
    }

    /// Skewing the scalar cache after the last oracle comparison leaves
    /// only the L1 replica's final line sweep to notice, and it does.
    #[test]
    fn l1_sweep_catches_corrupted_line() {
        BEFORE_L1_SWEEP.with(|h| {
            h.set(Some(|cache: &mut SetAssocCache| {
                // A dirty fill of a block the case never touches.
                cache.access(1 << 20, true, 0);
            }))
        });
        let d = run_case(&l1_case()).expect("the sweep must see the corrupted line");
        assert!(d.field.starts_with(L1_TAG), "wrong field: {d}");
        assert_eq!(d.op_index, l1_case().ops.len());
    }

    /// A panic out of the optimized stack is converted into a divergence
    /// pinned to the op that raised it (here: an out-of-range
    /// reconfiguration, which `set_module_active_ways` rejects with an
    /// assert before the oracle runs).
    #[test]
    fn panic_becomes_divergence() {
        let case = Case {
            config: base_config(CheckPolicy::PeriodicValid),
            ops: vec![Op::Reconfig { module: 0, ways: 9 }],
        };
        let d = run_case(&case).expect("out-of-range reconfig must diverge");
        assert_eq!(d.field, "panic");
        assert_eq!(d.op_index, 0);
        assert!(d.got.contains("1..=A"), "payload lost: {}", d.got);
    }
}
