//! Coordinator + N workers sweep fabric over [`esteem_serve`] daemons.
//!
//! The coordinator accepts the same `POST /v1/jobs` API as a single
//! daemon plus a `POST /v1/sweeps` batch endpoint, shards cells to
//! workers by run-cache fingerprint over a consistent-hash ring
//! ([`ring`]), steals queued work from stragglers using the workers'
//! per-stage latency histograms as the signal ([`dispatch`]), and
//! journals every decision so a coordinator restart reconstructs
//! cluster state. The coordinator journal is the daemon's own
//! [`esteem_serve::journal`], with `sweep` and `dispatch` records on top.
//! Per-node worker journals fold into one recoverable view with
//! [`merge`].
//!
//! Everything rides on determinism: a cell is a pure function of its
//! spec, so re-dispatching off a dead or slow worker can change *where*
//! work ran but never *what* the merged sweep report contains — it
//! stays byte-identical to a single-node run.

pub mod coordinator;
pub mod dispatch;
pub mod merge;
pub mod ring;

pub use coordinator::{spawn, Coordinator, CoordinatorOptions, MAX_SWEEP_CELLS};
pub use dispatch::{CJobState, Cluster, ClusterCounters, DispatchOptions, MemberSnapshot};
pub use merge::{merge_journals, MergedJob, MergedView};
pub use ring::HashRing;
