//! Coordinator + N workers sweep fabric over [`esteem_serve`] daemons.
//!
//! The coordinator is a stock `esteem-serve` daemon with two additions:
//! a remote runner ([`fleet`]) that runs each job on a worker daemon in
//! place of the local simulator, and the fabric's own routes
//! ([`coordinator`]): worker registration and the `POST /v1/sweeps`
//! batch API. Its job table, submit path, run cache, journal, status and
//! metrics are the daemon's. A job goes to its run-cache fingerprint's
//! owner on a consistent-hash ring ([`ring`]), or clockwise past it when
//! that node is dead, draining or full; a job whose node fails moves to
//! the next one. The journal is the daemon's own
//! [`esteem_serve::journal`], with `sweep` and `dispatch` records on
//! top. Per-node worker journals fold into one recoverable view with
//! [`merge`].
//!
//! Everything rides on determinism: a cell is a pure function of its
//! spec, so re-dispatching off a dead worker can change *where* work ran
//! but never *what* the merged sweep report contains — it stays
//! byte-identical to a single-node run.

pub mod coordinator;
pub mod fleet;
pub mod merge;
pub mod ring;

pub use coordinator::{spawn, Coordinator, MAX_SWEEP_CELLS};
pub use fleet::{ClusterCounters, Fleet, MemberSnapshot};
pub use merge::{merge_journals, MergedJob, MergedView};
pub use ring::HashRing;
