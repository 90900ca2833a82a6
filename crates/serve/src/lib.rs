//! `esteem-serve`: a resident job server that turns the one-shot
//! simulator into a long-running sweep service.
//!
//! The experiment harness runs thousands of short deterministic
//! simulations; spawning a fresh process per run pays process startup,
//! cold caches, and cold file-system state every time. This crate keeps
//! one warm daemon up instead:
//!
//! * [`http`] — a minimal hand-rolled HTTP/1.1 server (std only; the
//!   workspace is offline and vendors every dependency).
//! * [`job`] — job specs (wire format mirrors the `esteem-sim` CLI
//!   flags), per-job state, and blocking progress-event streams.
//! * [`queue`] — bounded priority queue with per-client fairness and
//!   optional priority aging. It is the daemon's one overload
//!   mechanism: a submit that finds it full is shed with 429 and a
//!   `Retry-After` hint derived from queue-wait p50.
//! * [`journal`] — crash-safe append-only JSONL journal + recovery.
//! * [`server`] — the daemon: resident worker threads that pop the
//!   [`queue`] directly, run-cache-backed dedupe (identical in-flight
//!   configs coalesce onto one execution), panic isolation, and the
//!   JSON API. A worker asks a [`Runner`] for the report of a job that
//!   missed the run cache: the in-process simulator by default, a remote
//!   worker on the `esteem-coord` coordinator.
//! * [`cluster`] — the [`ClusterHook`] through which a cluster role
//!   adds routes, status and metrics, and a worker's membership agent.
//! * [`observe`] — one timing record per job, which feeds the
//!   stage-latency histograms (submit, queue wait, cache lookup, run,
//!   serialize, end-to-end by outcome), worker utilization, and the
//!   bounded flight recorder behind `/v1/flight-recorder` and the panic
//!   crash dump.
//! * [`client`] — a minimal blocking HTTP client used by
//!   `esteem-client`, `esteem-top`, and the end-to-end tests; its
//!   [`RetryPolicy`] honors server `Retry-After` hints on 429.
//!
//! API summary (see DESIGN.md §13 for the full contract):
//!
//! | Route                     | Meaning                                |
//! |---------------------------|----------------------------------------|
//! | `POST /v1/jobs`           | submit a [`job::JobSpec`] (JSON)       |
//! | `GET /v1/jobs/{id}`       | status + result when done              |
//! | `GET /v1/jobs/{id}/events`| chunked JSONL interval-sample stream   |
//! | `GET /metrics`            | text exposition: counters, gauges, and |
//! |                           | stage-latency histogram buckets        |
//! | `GET /v1/status`          | JSON snapshot for `esteem-top`: queue, |
//! |                           | workers, stage percentiles, hit rate   |
//! | `GET /v1/flight-recorder` | recent per-job stage timings           |
//! | `GET /v1/health`          | liveness probe                         |
//! | `POST /v1/shutdown`       | graceful drain and exit                |

pub mod client;
pub mod cluster;
pub mod http;
pub mod job;
pub mod journal;
pub mod observe;
pub mod queue;
pub mod server;

pub use client::RetryPolicy;
pub use cluster::{ClusterAgent, ClusterConfig, ClusterHook};
pub use job::{Job, JobSpec, JobState};
pub use journal::{Journal, Recovery};
pub use observe::{JobTiming, Outcome, ServeMetrics};
pub use queue::{JobQueue, PushError, QueuedJob};
pub use server::{
    spawn, spawn_with, Daemon, LocalRunner, Plane, RunOutcome, Runner, ServerOptions,
};
