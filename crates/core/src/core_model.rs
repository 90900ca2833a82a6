//! Per-core execution state and cycle accounting.

use esteem_cache::{CacheStats, L1Rec};
use esteem_workloads::{BenchmarkProfile, Bundle, MemRef};

use crate::tape::Chunk;

/// Fixed-point shift for per-core cycle accounting: cycles are tracked
/// as `u64` in units of 2^-20 cycles (~1e-6 cycle resolution, headroom
/// to 2^44 cycles ≈ 4.8 hours at 1 GHz). Integer accounting keeps the
/// per-instruction inner loop free of f64 compares and makes cycle
/// arithmetic exactly associative (bit-deterministic regardless of
/// accumulation order).
pub const CYCLE_FP_SHIFT: u32 = 20;

/// One cycle in fixed-point units.
pub const CYCLE_FP_ONE: u64 = 1 << CYCLE_FP_SHIFT;

/// One core: its tape position, L1 lifetime stats, and local clock.
///
/// The timing model (DESIGN.md §3 substitution 2): a bundle of `n`
/// instructions costs `n * cpi_base` cycles of execution; if its memory
/// reference misses the L1, the core additionally stalls for the *visible*
/// part of the L2/memory round trip:
/// `max(0, latency - overlap) / mlp`, where `overlap` models the OOO
/// window hiding short latencies and `mlp` the benchmark's memory-level
/// parallelism. L1 hits are free (the 2-cycle pipelined L1 is part of
/// `cpi_base`).
///
/// The core's workload stream and L1 live in its front end, which may
/// run on another thread; the core consumes the front end's output one
/// tape chunk at a time and folds each consumed L1 outcome into its own
/// [`CacheStats`].
#[derive(Debug, Clone)]
pub struct CoreState {
    pub id: u32,
    /// The chunk being consumed, and the next unconsumed bundle and
    /// write-back in it.
    chunk: Chunk,
    cursor: usize,
    wb_cursor: usize,
    /// L1D lifetime stats, applied per consumed bundle.
    l1_stats: CacheStats,
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

/// What [`CoreState::run_hits`] stopped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// An L1 miss, for the simulator's miss path.
    Miss(Bundle, L1Rec),
    /// The chunk is spent: hand the core its next one, then call again.
    Dry,
    /// The quantum boundary, or a single-core run's target.
    Done,
}

impl CoreState {
    /// A core running `profile` whose private L1D has `l1_ways` ways.
    pub fn new(id: u32, profile: &BenchmarkProfile, l1_ways: u8, target_instructions: u64) -> Self {
        Self {
            id,
            chunk: Chunk::allocated(),
            cursor: 0,
            wb_cursor: 0,
            l1_stats: CacheStats::new(l1_ways),
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

    /// The spent chunk, for the feed to replace with the next one; the
    /// cursors restart at its first bundle.
    pub(crate) fn next_chunk_slot(&mut self) -> &mut Chunk {
        self.cursor = 0;
        self.wb_cursor = 0;
        &mut self.chunk
    }

    /// Consumes bundles until the quantum boundary `qend_fp`, a
    /// measurement-target break (single-core runs), an L1 miss, or the
    /// end of the chunk.
    ///
    /// L1 hits — the overwhelmingly common case — are folded entirely
    /// inside this loop: stats, cycle/instruction accounting, and the
    /// target check never leave the core's own state, so the simulator
    /// pays the cross-struct dispatch (`self.cores[i]`, L2 borrow) only
    /// on misses. A returned miss has had its execution cycles charged
    /// and stats applied, but *not* its [`Self::note_progress`] — the
    /// caller performs the stall first.
    #[inline]
    pub(crate) fn run_hits(&mut self, qend_fp: u64, single: bool) -> Step {
        let chunk = &self.chunk;
        loop {
            if self.cycles_fp >= qend_fp || (single && self.cycles_at_target.is_some()) {
                return Step::Done;
            }
            if self.cursor >= chunk.enc.len() {
                return Step::Dry;
            }
            let enc = chunk.enc[self.cursor];
            let instrs = chunk.instrs[self.cursor];
            let r = chunk.recs[self.cursor];
            self.cursor += 1;
            let write = enc & 1 != 0;
            self.l1_stats.apply_rec(r, write);
            self.cycles_fp += u64::from(instrs) * self.cpi_fp;
            self.instructions += u64::from(instrs);
            if !r.hit() {
                return Step::Miss(
                    Bundle {
                        instrs,
                        mem: MemRef {
                            block: enc >> 1,
                            write,
                        },
                    },
                    r,
                );
            }
            // `note_progress`, inlined so the chunk borrow can stay live
            // across iterations.
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
        let wb = self.chunk.wbs[self.wb_cursor];
        self.wb_cursor += 1;
        wb
    }

    /// The private L1D's lifetime stats, counted per consumed bundle.
    #[inline]
    pub fn l1_stats(&self) -> &CacheStats {
        &self.l1_stats
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
}

impl esteem_stats::StatsSource for CoreState {
    /// Registers retirement progress and L1D traffic; the private L1's
    /// counters nest as a sub-scope (`cores/<i>/l1/hits`).
    fn collect(&self, out: &mut esteem_stats::Scope<'_>) {
        out.counter("instructions", self.instructions);
        out.counter("cycles_fp", self.cycles_fp);
        out.scope("l1", |l1| {
            l1.counter("hits", self.l1_stats.hits);
            l1.counter("misses", self.l1_stats.misses);
            l1.counter("writebacks", self.l1_stats.writebacks);
            l1.counter("writes", self.l1_stats.writes);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::FrontEnd;
    use esteem_cache::{CacheGeometry, SetAssocCache};
    use esteem_workloads::{benchmark_by_name, AccessStream};

    /// A core and its front end, built as the simulator builds them.
    fn core(name: &str, target: u64) -> (CoreState, FrontEnd) {
        let p = benchmark_by_name(name).unwrap();
        let mut l1 = SetAssocCache::new(CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1), None);
        // No retention clocks, so the front end qualifies for the compact
        // batch kernel.
        l1.set_retention_tracking(false);
        let fe = FrontEnd::new(AccessStream::new(&p, 0, 7), l1);
        (CoreState::new(0, &p, 4, target), fe)
    }

    /// Consumes exactly one bundle (a quantum boundary one fixed-point
    /// unit ahead stops the core after it), refilling inline.
    fn fetch(c: &mut CoreState, fe: &mut FrontEnd) -> u64 {
        let before = c.instructions;
        let qend_fp = c.cycles_fp + 1;
        while c.run_hits(qend_fp, false) == Step::Dry {
            fe.fill(c.next_chunk_slot());
        }
        c.instructions - before
    }

    #[test]
    fn cycle_accounting() {
        let p = benchmark_by_name("gamess").unwrap();
        let (mut c, mut fe) = core("gamess", 1000);
        c.mark_warmup();
        let instrs = fetch(&mut c, &mut fe) as f64;
        // Fixed-point quantises cpi_base to 2^-20 cycle units: exact to
        // ~1e-6 per instruction.
        let tol = instrs / CYCLE_FP_ONE as f64;
        assert!((c.cycles_f64() - instrs * p.cpi_base).abs() <= tol);
        c.stall(100.0, 8.0);
        let expect = instrs * p.cpi_base + 92.0 / p.mlp;
        assert!((c.cycles_f64() - expect).abs() <= tol + 1.0 / CYCLE_FP_ONE as f64);
        // Overlap swallows short latencies entirely.
        let before = c.cycles_fp;
        c.stall(5.0, 8.0);
        assert_eq!(c.cycles_fp, before);
    }

    #[test]
    fn fixed_point_accumulation_is_exact_integer_math() {
        let (mut a, mut fa) = core("gamess", 1000);
        let (mut b, mut fb) = core("gamess", 1000);
        // Same bundles in the same order must give bit-identical clocks.
        for _ in 0..1000 {
            fetch(&mut a, &mut fa);
            fetch(&mut b, &mut fb);
        }
        assert_eq!(a.cycles_fp, b.cycles_fp);
        assert_eq!(a.l1_stats(), b.l1_stats());
        assert_eq!(a.l1_stats().accesses(), 1000);
        // Whole-cycle view is the floor of the fractional clock.
        assert_eq!(a.cycle(), (a.cycles_f64().floor()) as u64);
    }

    #[test]
    fn target_recording() {
        let (mut c, mut fe) = core("povray", 100);
        // Simulate a warm-up region of ~50 instructions.
        while c.instructions < 50 {
            fetch(&mut c, &mut fe);
        }
        c.mark_warmup();
        assert!(c.warmed());
        while !c.reached_target() {
            fetch(&mut c, &mut fe);
            c.note_progress();
        }
        assert!(c.instructions >= 150);
        let ipc = c.ipc();
        assert!(ipc > 0.0 && ipc < 10.0, "ipc {ipc} out of sane range");
        // Running past the target must not change the recorded point.
        let at = c.cycles_at_target;
        fetch(&mut c, &mut fe);
        c.note_progress();
        assert_eq!(c.cycles_at_target, at);
    }
}
