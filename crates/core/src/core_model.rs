//! Per-core execution state and cycle accounting.

use esteem_cache::{L1Rec, SetAssocCache};
use esteem_workloads::{AccessStream, BenchmarkProfile, Bundle, MemRef};

/// Fixed-point shift for per-core cycle accounting: cycles are tracked
/// as `u64` in units of 2^-20 cycles (~1e-6 cycle resolution, headroom
/// to 2^44 cycles ≈ 4.8 hours at 1 GHz). Integer accounting keeps the
/// per-instruction inner loop free of f64 compares and makes cycle
/// arithmetic exactly associative (bit-deterministic regardless of
/// accumulation order).
pub const CYCLE_FP_SHIFT: u32 = 20;

/// One cycle in fixed-point units.
pub const CYCLE_FP_ONE: u64 = 1 << CYCLE_FP_SHIFT;

/// One core: its workload stream, private L1D, and local clock.
///
/// The timing model (DESIGN.md §3 substitution 2): a bundle of `n`
/// instructions costs `n * cpi_base` cycles of execution; if its memory
/// reference misses the L1, the core additionally stalls for the *visible*
/// part of the L2/memory round trip:
/// `max(0, latency - overlap) / mlp`, where `overlap` models the OOO
/// window hiding short latencies and `mlp` the benchmark's memory-level
/// parallelism. L1 hits are free (the 2-cycle pipelined L1 is part of
/// `cpi_base`).
#[derive(Debug, Clone)]
pub struct CoreState {
    pub id: u32,
    /// Workload stream + private L1D + prefetched access block.
    front: FrontEnd,
    /// Local clock in fixed-point units of 2^-20 cycles
    /// (see [`CYCLE_FP_SHIFT`]).
    pub cycles_fp: u64,
    /// Instructions retired (including warm-up).
    pub instructions: u64,
    /// Instruction count when warm-up ended (set by the simulator).
    pub instrs_at_warmup: Option<u64>,
    /// Fixed-point cycle count when warm-up ended (set by the simulator).
    pub cycles_at_warmup: Option<u64>,
    /// *Measured* instructions after warm-up at which IPC is recorded.
    pub target_instructions: u64,
    /// Fixed-point cycle count when the target was reached (`None` until
    /// then).
    pub cycles_at_target: Option<u64>,
    /// `cpi_base` in fixed-point cycle units per instruction.
    cpi_fp: u64,
    /// Fixed-point units per visible stall cycle: `2^20 / mlp`.
    fp_per_stall_cycle: f64,
}

/// The core's front end: workload stream, private L1D, and a block of
/// *prefetched* bundles already run through the L1 batch kernel.
///
/// The simulator consumes `(bundle, l1_rec)` pairs one at a time via
/// [`CoreState::next_access`]; when the buffer runs low,
/// [`FrontEnd::top_up`] generates the next block of bundles and pushes
/// their memory references through
/// [`SetAssocCache::access_batch_l1`] — the batched L1-shape form of
/// [`SetAssocCache::access`] — in one call.
/// Because the L1 has no retention clock and its lifetime stats are
/// applied at *consume* time ([`SetAssocCache::apply_rec_stats`]),
/// running the L1 ahead of the core's clock is unobservable — every
/// externally visible number is identical to the one-access-at-a-time
/// path (pinned by the golden-report and determinism tests).
#[derive(Debug, Clone)]
pub struct FrontEnd {
    stream: AccessStream,
    l1d: SetAssocCache,
    /// Prefetched bundles in struct-of-arrays form, 13 bytes per bundle:
    /// the packed `(block, write)` encoding the kernel consumes, the
    /// instruction count, and the byte-sized L1 outcome. Keeping the
    /// buffers this small is what keeps a refill pass CPU-cache-resident
    /// next to the simulator's L2 model.
    enc: Vec<u64>,
    instrs: Vec<u32>,
    recs: Vec<L1Rec>,
    /// Dirty-eviction block addresses, in access order (rare, so they ride
    /// in a side vector instead of widening every record).
    wbs: Vec<u64>,
    wb_cursor: usize,
    /// Next unconsumed index.
    cursor: usize,
    /// Buffered-bundle level that triggers a refill at a quantum start
    /// (sized to cover a typical quantum; an atypical one falls back to an
    /// inline [`FrontEnd::top_up`] with identical content).
    reserve: usize,
    /// Buffer size to generate up to when topping up.
    target: usize,
}

impl FrontEnd {
    fn new(stream: AccessStream, l1d: SetAssocCache) -> Self {
        assert!(
            l1d.supports_l1_batch(),
            "core L1s must qualify for the compact batch kernel"
        );
        Self {
            stream,
            l1d,
            enc: Vec::new(),
            instrs: Vec::new(),
            recs: Vec::new(),
            wbs: Vec::new(),
            wb_cursor: 0,
            cursor: 0,
            reserve: 1,
            target: 256,
        }
    }

    #[inline]
    fn buffered(&self) -> usize {
        self.enc.len() - self.cursor
    }

    /// Refills the prefetch buffer to `target` bundles if fewer than
    /// `reserve` remain: drains the consumed prefix, generates fresh
    /// bundles, and runs their memory references through the L1 batch
    /// kernel in one call.
    pub fn top_up(&mut self) {
        if self.buffered() >= self.reserve {
            return;
        }
        if self.cursor > 0 {
            self.enc.drain(..self.cursor);
            self.instrs.drain(..self.cursor);
            self.recs.drain(..self.cursor);
            self.wbs.drain(..self.wb_cursor);
            self.cursor = 0;
            self.wb_cursor = 0;
        }
        let fresh = self.enc.len();
        self.stream
            .fill_encoded(&mut self.enc, &mut self.instrs, self.target);
        self.l1d
            .access_batch_l1(&self.enc[fresh..], &mut self.recs, &mut self.wbs);
        debug_assert_eq!(self.enc.len(), self.recs.len());
    }
}

impl CoreState {
    pub fn new(
        id: u32,
        profile: &BenchmarkProfile,
        l1d: SetAssocCache,
        target_instructions: u64,
        seed: u64,
    ) -> Self {
        Self {
            id,
            front: FrontEnd::new(AccessStream::new(profile, id, seed), l1d),
            cycles_fp: 0,
            instructions: 0,
            instrs_at_warmup: None,
            cycles_at_warmup: None,
            target_instructions,
            cycles_at_target: None,
            cpi_fp: (profile.cpi_base * CYCLE_FP_ONE as f64).round() as u64,
            fp_per_stall_cycle: CYCLE_FP_ONE as f64 / profile.mlp,
        }
    }

    /// Local clock in whole cycles (what the cache/refresh models see).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycles_fp >> CYCLE_FP_SHIFT
    }

    /// Local clock in (fractional) cycles, for reporting.
    #[inline]
    pub fn cycles_f64(&self) -> f64 {
        self.cycles_fp as f64 / CYCLE_FP_ONE as f64
    }

    /// Marks the end of this core's warm-up (called once by the simulator
    /// when the global warm-up cycle count passes).
    pub fn mark_warmup(&mut self) {
        debug_assert!(self.cycles_at_warmup.is_none());
        self.instrs_at_warmup = Some(self.instructions);
        self.cycles_at_warmup = Some(self.cycles_fp);
    }

    /// Whether this core has finished its warm-up region.
    pub fn warmed(&self) -> bool {
        self.cycles_at_warmup.is_some()
    }

    /// Whether this core has reached its measurement target. (It keeps
    /// running afterwards in multicore runs, to keep exerting realistic
    /// pressure on the shared L2 — the paper's methodology, §6.4.)
    pub fn reached_target(&self) -> bool {
        self.cycles_at_target.is_some()
    }

    /// Pulls the next bundle *directly from the stream* (bypassing the
    /// prefetch buffer) and charges its execution cycles; the memory
    /// reference is returned for the caller to route through the
    /// hierarchy. Call [`Self::stall`] with the resulting visible latency.
    ///
    /// Unit-test path: do not mix with [`Self::next_access`] — the
    /// simulator drives cores exclusively through the batched front end.
    #[inline]
    pub fn fetch_bundle(&mut self) -> Bundle {
        let b = self.front.stream.next_bundle();
        self.cycles_fp += u64::from(b.instrs) * self.cpi_fp;
        self.instructions += u64::from(b.instrs);
        b
    }

    /// Pops the next prefetched `(bundle, L1 rec)` pair, charging the
    /// bundle's execution cycles and folding the rec into the L1's
    /// lifetime stats (stats are deferred to consume time so prefetching
    /// ahead of the core's clock never shows up in any counter).
    #[inline]
    pub fn next_access(&mut self) -> (Bundle, L1Rec) {
        let fe = &mut self.front;
        if fe.cursor >= fe.enc.len() {
            // The quantum outran the buffered reserve (or the caller
            // skipped [`Self::configure_block`]): refill inline. The batch
            // is pure core-local state, so the content is identical no
            // matter where the refill happens.
            fe.top_up();
        }
        let enc = fe.enc[fe.cursor];
        let instrs = fe.instrs[fe.cursor];
        let r = fe.recs[fe.cursor];
        fe.cursor += 1;
        let write = enc & 1 != 0;
        fe.l1d.apply_rec_stats(r, write);
        self.cycles_fp += u64::from(instrs) * self.cpi_fp;
        self.instructions += u64::from(instrs);
        (
            Bundle {
                instrs,
                mem: MemRef {
                    block: enc >> 1,
                    write,
                },
            },
            r,
        )
    }

    /// Consumes prefetched bundles until the quantum boundary `qend_fp`,
    /// a measurement-target break (single-core runs), or an L1 miss.
    ///
    /// L1 hits — the overwhelmingly common case — are folded entirely
    /// inside this loop: stats, cycle/instruction accounting, and the
    /// target check never leave the core's own state, so the simulator
    /// pays the cross-struct dispatch (`self.cores[i]`, L2 borrow) only
    /// on misses. A returned miss has had its execution cycles charged
    /// and stats applied, but *not* its [`Self::note_progress`] — the
    /// caller performs the stall first, exactly like the one-at-a-time
    /// path did.
    #[inline]
    pub fn run_hits(&mut self, qend_fp: u64, single: bool) -> Option<(Bundle, L1Rec)> {
        let fe = &mut self.front;
        loop {
            if self.cycles_fp >= qend_fp || (single && self.cycles_at_target.is_some()) {
                return None;
            }
            if fe.cursor >= fe.enc.len() {
                // Quantum outran the reserve: refill inline (same content
                // regardless of where the refill happens).
                fe.top_up();
            }
            let enc = fe.enc[fe.cursor];
            let instrs = fe.instrs[fe.cursor];
            let r = fe.recs[fe.cursor];
            fe.cursor += 1;
            let write = enc & 1 != 0;
            fe.l1d.apply_rec_stats(r, write);
            self.cycles_fp += u64::from(instrs) * self.cpi_fp;
            self.instructions += u64::from(instrs);
            if !r.hit() {
                return Some((
                    Bundle {
                        instrs,
                        mem: MemRef {
                            block: enc >> 1,
                            write,
                        },
                    },
                    r,
                ));
            }
            // `note_progress`, inlined so the front-end borrow can stay
            // live across iterations.
            if self.cycles_at_target.is_none() {
                if let Some(w) = self.instrs_at_warmup {
                    if self.instructions >= w + self.target_instructions {
                        self.cycles_at_target = Some(self.cycles_fp);
                    }
                }
            }
        }
    }

    /// Pops the next dirty-eviction block address. Must be called exactly
    /// once, in order, for each consumed rec with
    /// [`L1Rec::has_writeback`] set (the simulator's miss path).
    #[inline]
    pub fn pop_writeback(&mut self) -> u64 {
        let fe = &mut self.front;
        let wb = fe.wbs[fe.wb_cursor];
        fe.wb_cursor += 1;
        wb
    }

    /// Sizes the prefetch block: the refill trigger covers a typical
    /// quantum's bundle consumption (capped so the buffers stay
    /// CPU-cache-resident — an atypical quantum falls back to an inline
    /// refill with identical content), and each top-up generates a few
    /// thousand bundles to amortise the batch-kernel entry.
    pub fn configure_block(&mut self, quantum_cycles: u64) {
        let fe = &mut self.front;
        // Upper bound on one quantum's bundle consumption (a bundle
        // carries >= 1 instruction and stalls only lengthen a quantum).
        let per_quantum = (quantum_cycles << CYCLE_FP_SHIFT) / self.cpi_fp + 2;
        fe.reserve = (per_quantum as usize).min(1024);
        fe.target = fe.reserve + 4096;
    }

    /// Refills the prefetch buffer in place (no-op while it still holds
    /// the quantum reserve).
    pub fn top_up_front(&mut self) {
        self.front.top_up();
    }

    /// The core's private L1D.
    #[inline]
    pub fn l1d(&self) -> &SetAssocCache {
        &self.front.l1d
    }

    /// Charges a memory stall of `latency` raw cycles, applying the
    /// overlap window and the benchmark's MLP.
    #[inline]
    pub fn stall(&mut self, latency: f64, overlap: f64) {
        let visible = latency - overlap;
        if visible > 0.0 {
            self.cycles_fp += (visible * self.fp_per_stall_cycle) as u64;
        }
    }

    /// Records the IPC measurement point if just crossed.
    #[inline]
    pub fn note_progress(&mut self) {
        if self.cycles_at_target.is_none() {
            if let Some(w) = self.instrs_at_warmup {
                if self.instructions >= w + self.target_instructions {
                    self.cycles_at_target = Some(self.cycles_fp);
                }
            }
        }
    }

    /// IPC over the measured region (panics before the target is reached).
    pub fn ipc(&self) -> f64 {
        let c = self
            .cycles_at_target
            .expect("IPC requested before the core reached its target");
        let w = self.cycles_at_warmup.expect("target implies warmed");
        self.target_instructions as f64 / ((c - w) as f64 / CYCLE_FP_ONE as f64)
    }

    pub fn profile(&self) -> &BenchmarkProfile {
        self.front.stream.profile()
    }
}

impl esteem_stats::StatsSource for CoreState {
    /// Registers retirement progress and L1D traffic; the private L1
    /// nests as a sub-scope (`cores/<i>/l1/hits`).
    fn collect(&self, out: &mut esteem_stats::Scope<'_>) {
        out.counter("instructions", self.instructions);
        out.counter("cycles_fp", self.cycles_fp);
        out.register("l1", self.l1d());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esteem_cache::CacheGeometry;
    use esteem_workloads::benchmark_by_name;

    fn l1() -> SetAssocCache {
        let mut c = SetAssocCache::new(CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1), None);
        // Mirror the simulator's L1 construction: no retention clocks, so
        // the front end qualifies for the compact batch kernel.
        c.set_retention_tracking(false);
        c
    }

    #[test]
    fn cycle_accounting() {
        let p = benchmark_by_name("gamess").unwrap();
        let mut c = CoreState::new(0, &p, l1(), 1000, 7);
        c.mark_warmup();
        let b = c.fetch_bundle();
        // Fixed-point quantises cpi_base to 2^-20 cycle units: exact to
        // ~1e-6 per instruction.
        let tol = f64::from(b.instrs) / CYCLE_FP_ONE as f64;
        assert!((c.cycles_f64() - f64::from(b.instrs) * p.cpi_base).abs() <= tol);
        c.stall(100.0, 8.0);
        let expect = f64::from(b.instrs) * p.cpi_base + 92.0 / p.mlp;
        assert!((c.cycles_f64() - expect).abs() <= tol + 1.0 / CYCLE_FP_ONE as f64);
        // Overlap swallows short latencies entirely.
        let before = c.cycles_fp;
        c.stall(5.0, 8.0);
        assert_eq!(c.cycles_fp, before);
    }

    #[test]
    fn fixed_point_accumulation_is_exact_integer_math() {
        let p = benchmark_by_name("gamess").unwrap();
        let mut a = CoreState::new(0, &p, l1(), 1000, 7);
        let mut b = CoreState::new(0, &p, l1(), 1000, 7);
        // Same bundles in the same order must give bit-identical clocks.
        for _ in 0..1000 {
            a.fetch_bundle();
            b.fetch_bundle();
        }
        assert_eq!(a.cycles_fp, b.cycles_fp);
        // Whole-cycle view is the floor of the fractional clock.
        assert_eq!(a.cycle(), (a.cycles_f64().floor()) as u64);
    }

    #[test]
    fn target_recording() {
        let p = benchmark_by_name("povray").unwrap();
        let mut c = CoreState::new(0, &p, l1(), 100, 7);
        // Simulate a warm-up region of ~50 instructions.
        while c.instructions < 50 {
            c.fetch_bundle();
        }
        c.mark_warmup();
        assert!(c.warmed());
        while !c.reached_target() {
            c.fetch_bundle();
            c.note_progress();
        }
        assert!(c.instructions >= 150);
        let ipc = c.ipc();
        assert!(ipc > 0.0 && ipc < 10.0, "ipc {ipc} out of sane range");
        // Running past the target must not change the recorded point.
        let at = c.cycles_at_target;
        c.fetch_bundle();
        c.note_progress();
        assert_eq!(c.cycles_at_target, at);
    }
}
