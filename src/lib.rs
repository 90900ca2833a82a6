//! # ESTEEM — energy-saving reconfiguration for eDRAM caches
//!
//! Facade crate for the reproduction of *"Improving Energy Efficiency of
//! Embedded DRAM Caches for High-end Computing Systems"* (Mittal, Vetter,
//! Li — HPDC 2014). It re-exports the workspace crates so applications can
//! depend on a single `esteem` crate:
//!
//! * [`cache`] — set-associative cache model with per-module way masks and
//!   the embedded set-sampling profiler (ATD);
//! * [`edram`] — eDRAM retention, refresh policies (baseline periodic-all,
//!   periodic-valid, Refrint RPV/RPD) and the bank-contention model;
//! * [`mem`] — main-memory timing with bandwidth-derived queueing;
//! * [`workloads`] — synthetic statistical twins of the 29 SPEC CPU2006 +
//!   5 HPC benchmarks and the paper's 17 dual-core mixes;
//! * [`energy`] — the paper's §6.3 energy model and §6.4 metrics;
//! * [`stats`] — typed counters, the hierarchical stats registry with
//!   warm-up delta handling, and per-interval observers (JSONL logs);
//! * [`trace`] — ring-buffered event tracing, Perfetto export, and the
//!   offline analyzer;
//! * [`core`] — ESTEEM itself (Algorithm 1 + interval engine) and the
//!   multicore system simulator;
//! * [`par`] — deterministic order-preserving parallel sweeps;
//! * [`harness`] — regenerators for every table and figure;
//! * [`serve`] — the `esteem-serve` job daemon (HTTP API, bounded
//!   priority queue, run-cache dedupe, crash-safe journal) and its
//!   client library;
//! * [`cluster`] — the `esteem-coord` coordinator: an `esteem-serve`
//!   daemon whose jobs run on N worker daemons, placed by run-cache
//!   fingerprint over a consistent-hash ring with bounded loads and
//!   re-dispatched off dead nodes, plus the sweep API and a merge of
//!   per-node journals;
//! * [`check`] — the differential oracle checker (`esteem-check`): a
//!   naive reference model fuzzed in lockstep against the optimized
//!   cache/refresh stack, with case minimization and reproducer replay.
//!
//! ## Quickstart
//!
//! ```
//! use esteem::core::{Simulator, SystemConfig, Technique, AlgoParams};
//! use esteem::workloads::benchmark_by_name;
//!
//! let gamess = benchmark_by_name("gamess").unwrap();
//! let mut cfg = SystemConfig::paper_single_core(
//!     Technique::Esteem(AlgoParams::paper_single_core()));
//! cfg.sim_instructions = 1_000_000; // tiny demo run
//! cfg.warmup_cycles = 100_000;
//! let report = Simulator::single(cfg, &gamess).run();
//! assert!(report.energy.total() > 0.0);
//! ```

pub use esteem_cache as cache;
pub use esteem_check as check;
pub use esteem_cluster as cluster;
pub use esteem_core as core;
pub use esteem_edram as edram;
pub use esteem_energy as energy;
pub use esteem_harness as harness;
pub use esteem_mem as mem;
pub use esteem_par as par;
pub use esteem_serve as serve;
pub use esteem_stats as stats;
pub use esteem_trace as trace;
pub use esteem_workloads as workloads;
