//! ESTEEM — the paper's contribution — and the system simulator that
//! evaluates it.
//!
//! This crate ties the substrates together into the evaluated system
//! (paper §6.1): per-core private L1s, a shared banked eDRAM L2 with a
//! refresh engine and a bank-contention timing model, a bandwidth-limited
//! main memory, and synthetic workload streams. On top of that it
//! implements:
//!
//! * [`esteem::algorithm1`] — the paper's Algorithm 1 (per-module
//!   alpha-coverage way selection with the non-LRU anomaly guard);
//! * [`controller::CacheController`] — the pluggable reconfiguration-policy
//!   trait the quantum loop drives: ESTEEM's interval engine, the passive
//!   [`controller::NullController`] behind the baseline/Refrint
//!   comparators, and the [`controller::StaticWaysController`] ablation;
//! * [`esteem::EsteemController`] — the interval engine: every
//!   `interval_cycles` it reads the ATD counters, runs Algorithm 1, applies
//!   the per-module way masks (flushing turned-off ways), and logs the
//!   decision (the data behind Figure 2);
//! * [`system::Simulator`] — the deterministic quantum-interleaved
//!   multicore simulation loop, with component statistics pulled into an
//!   `esteem-stats` registry at warm-up/interval/finish boundaries and an
//!   optional per-interval JSONL observer;
//! * [`runner`] — paired baseline-vs-technique runs producing the paper's
//!   §6.4 metrics (energy saving %, weighted/fair speedup, RPKI decrease,
//!   MPKI increase, active ratio).
//!
//! Timing model (DESIGN.md §3, substitution 2): cores retire instruction
//! *bundles* at `cpi_base`; an L1 miss stalls the core for the visible part
//! of the L2 (and, on an L2 miss, main-memory) latency, divided by the
//! benchmark's memory-level parallelism. Refresh interference reaches the
//! core through the L2 bank-contention wait. L1 hits are folded into
//! `cpi_base` (the 2-cycle L1 is pipelined), and the instruction stream is
//! modelled as always hitting the L1I.

pub mod config;
pub mod controller;
pub mod core_model;
pub mod esteem;
pub mod report;
pub mod runner;
pub mod system;
mod tape;

pub use config::{AlgoParams, SystemConfig, Technique};
pub use controller::{
    CacheController, ControllerAction, IntervalCtx, NullController, StaticWaysController,
};
pub use esteem::EsteemController;
pub use report::{CoreReport, IntervalRecord, SimReport};
pub use runner::{run_comparison, Comparison};
pub use system::Simulator;
