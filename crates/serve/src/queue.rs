//! Bounded job queue with priorities, per-client fairness, and
//! (optional) priority aging.
//!
//! Selection order when a worker pops:
//! 1. highest *effective* `priority` first (effective = base priority
//!    plus one level per [`aging`](JobQueue::with_aging) interval of
//!    pops the entry has waited through; with aging disabled, effective
//!    = base);
//! 2. among equal priorities, the client served *least recently* goes
//!    first (round-robin across clients, so one client flooding the
//!    queue cannot starve another);
//! 3. among entries of the same client and priority, FIFO.
//!
//! Entries are stored as per-(priority, client) FIFO rings indexed by a
//! priority-ordered map, so a pop inspects one ring *front* per live
//! (priority, client) pair instead of linear-scanning every queued
//! entry — draining an n-deep queue is O(n · pairs), not O(n²). The
//! per-client "last served" stamps are bounded at
//! [`MAX_SERVED_CLIENTS`]: once exceeded, the stalest stamps belonging
//! to clients with nothing queued are evicted (an evicted client that
//! returns is simply "never served" again, which only biases fairness
//! *toward* it). Clients with queued work are never evicted, so
//! ordering among live clients is unaffected.
//!
//! The queue is bounded; [`JobQueue::push`] never blocks — a full queue
//! is an explicit [`PushError::Full`] that the HTTP layer turns into a
//! 429 shed. Journal recovery uses [`JobQueue::push_recovered`], which
//! ignores the cap: jobs already accepted (and journaled) before a crash
//! must not be dropped by a restart.
//!
//! A [paused](JobQueue::set_paused) queue still accepts pushes but pops
//! nothing until it is resumed or closed; the flag is read under the
//! queue's own lock, so a worker already blocked in
//! [`JobQueue::pop_blocking`] cannot slip a job past a pause.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Cap on remembered per-client "last served" stamps; see module docs.
pub const MAX_SERVED_CLIENTS: usize = 1024;

/// One queued entry (the job body lives in the server's job table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    pub job_id: u64,
    pub priority: u8,
    pub client: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity — shed the request.
    Full,
    /// Queue closed (daemon draining).
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full"),
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

#[derive(Debug)]
struct Entry {
    job: QueuedJob,
    /// Monotone arrival stamp (FIFO tie-break).
    seq: u64,
    /// `pops` at enqueue time; aging is measured in pops waited since.
    enqueue_pops: u64,
}

#[derive(Debug)]
struct Inner {
    /// base priority -> client -> FIFO ring. Empty rings (and empty
    /// priority levels) are removed eagerly, so iteration cost tracks
    /// the *live* (priority, client) pairs, not history.
    rings: BTreeMap<u8, HashMap<String, VecDeque<Entry>>>,
    /// Total queued entries across all rings.
    len: usize,
    seq: u64,
    /// Monotone pop stamp; `served[client]` is the stamp of that
    /// client's most recent pop (0 = never served).
    pops: u64,
    served: HashMap<String, u64>,
    /// Queued-entry count per client (all priorities); guards `served`
    /// eviction — a client with work in flight keeps its stamp.
    queued: HashMap<String, usize>,
    paused: bool,
    closed: bool,
}

/// See the module docs for ordering semantics.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
    /// Pops an entry must wait through per +1 effective priority;
    /// 0 disables aging.
    aging_step: u64,
}

/// Base priority raised one level per `step` pops waited (0 = off).
fn effective_priority(base: u8, enqueue_pops: u64, pops: u64, step: u64) -> u8 {
    if step == 0 {
        return base;
    }
    let aged = ((pops - enqueue_pops) / step).min(u64::from(u8::MAX)) as u8;
    base.saturating_add(aged)
}

impl JobQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                rings: BTreeMap::new(),
                len: 0,
                seq: 0,
                pops: 0,
                served: HashMap::new(),
                queued: HashMap::new(),
                paused: false,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            aging_step: 0,
        }
    }

    /// Enables priority aging: an entry gains one effective priority
    /// level per `step` pops it waits through (0 keeps aging off).
    pub fn with_aging(mut self, step: u64) -> Self {
        self.aging_step = step;
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn enqueue(inner: &mut Inner, job: QueuedJob) {
        let seq = inner.seq;
        inner.seq += 1;
        let enqueue_pops = inner.pops;
        *inner.queued.entry(job.client.clone()).or_insert(0) += 1;
        inner
            .rings
            .entry(job.priority)
            .or_default()
            .entry(job.client.clone())
            .or_default()
            .push_back(Entry {
                job,
                seq,
                enqueue_pops,
            });
        inner.len += 1;
    }

    /// Non-blocking enqueue; a full queue sheds instead of waiting.
    pub fn push(&self, job: QueuedJob) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.len >= self.capacity {
            return Err(PushError::Full);
        }
        Self::enqueue(&mut inner, job);
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueue bypassing the capacity cap (journal recovery, and the
    /// cells of a sweep accepted as a whole).
    pub fn push_recovered(&self, job: QueuedJob) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        Self::enqueue(&mut inner, job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an entry is available and the queue is not paused,
    /// or the queue is closed and empty (then `None` — a worker's exit
    /// signal). A closed queue drains even while paused.
    pub fn pop_blocking(&self) -> Option<QueuedJob> {
        let mut inner = self.lock();
        loop {
            let selected = if inner.paused && !inner.closed {
                None
            } else {
                Self::select(self.aging_step, &inner)
            };
            if let Some((base, client)) = selected {
                let job = Self::take(&mut inner, base, &client);
                inner.pops += 1;
                let stamp = inner.pops;
                inner.served.insert(client, stamp);
                Self::evict_served(&mut inner);
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The (base priority, client) ring whose front entry serves next,
    /// per the module-doc ordering. Only ring fronts compete: within a
    /// ring the front has the smallest seq *and* (being oldest) the
    /// highest effective priority, so it dominates its ring.
    fn select(aging_step: u64, inner: &Inner) -> Option<(u8, String)> {
        let mut best: Option<((u16, u64, u64), u8, &str)> = None;
        for (&base, clients) in inner.rings.iter().rev() {
            for (client, ring) in clients {
                let front = ring.front().expect("empty rings are removed eagerly");
                let eff = effective_priority(base, front.enqueue_pops, inner.pops, aging_step);
                let last_served = inner.served.get(client).copied().unwrap_or(0);
                // Smallest key wins: invert priority (higher effective
                // priority -> smaller key), then least-recently-served
                // client, then arrival order.
                let key = (u16::from(u8::MAX - eff), last_served, front.seq);
                if best.as_ref().is_none_or(|(bk, _, _)| key < *bk) {
                    best = Some((key, base, client));
                }
            }
            // Without aging, effective = base, so nothing at a lower
            // base level can beat the level just scanned.
            if aging_step == 0 && best.is_some() {
                break;
            }
        }
        best.map(|(_, base, client)| (base, client.to_string()))
    }

    fn take(inner: &mut Inner, base: u8, client: &str) -> QueuedJob {
        let clients = inner.rings.get_mut(&base).expect("selected level exists");
        let ring = clients.get_mut(client).expect("selected ring exists");
        let entry = ring.pop_front().expect("selected ring is non-empty");
        if ring.is_empty() {
            clients.remove(client);
            if clients.is_empty() {
                inner.rings.remove(&base);
            }
        }
        inner.len -= 1;
        match inner.queued.get_mut(client) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                inner.queued.remove(client);
            }
        }
        entry.job
    }

    /// Caps `served` at [`MAX_SERVED_CLIENTS`] by dropping the stalest
    /// stamps of clients with nothing queued (live clients are exempt).
    /// Evicts down to half the cap, so the O(cap) scan runs once per
    /// cap/2 pops instead of on every pop past the threshold.
    fn evict_served(inner: &mut Inner) {
        if inner.served.len() <= MAX_SERVED_CLIENTS {
            return;
        }
        let mut idle: Vec<(u64, String)> = inner
            .served
            .iter()
            .filter(|(client, _)| !inner.queued.contains_key(*client))
            .map(|(client, &stamp)| (stamp, client.clone()))
            .collect();
        idle.sort_unstable();
        let excess = inner.served.len() - MAX_SERVED_CLIENTS / 2;
        for (_, client) in idle.into_iter().take(excess) {
            inner.served.remove(&client);
        }
    }

    /// Pauses (`true`) or resumes (`false`) pops; pushes are unaffected.
    pub fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.ready.notify_all();
    }

    /// Closes the queue: pushes fail, pops drain what remains (paused
    /// or not) then return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of per-client "last served" stamps held (introspection;
    /// bounded by [`MAX_SERVED_CLIENTS`] plus live clients).
    pub fn served_clients(&self) -> usize {
        self.lock().served.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, priority: u8, client: &str) -> QueuedJob {
        QueuedJob {
            job_id: id,
            priority,
            client: client.into(),
        }
    }

    fn drain_ids(q: &JobQueue) -> Vec<u64> {
        q.close();
        std::iter::from_fn(|| q.pop_blocking())
            .map(|j| j.job_id)
            .collect()
    }

    #[test]
    fn fifo_within_one_client() {
        let q = JobQueue::new(8);
        for id in 0..4 {
            q.push(job(id, 1, "a")).unwrap();
        }
        assert_eq!(drain_ids(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn higher_priority_wins() {
        let q = JobQueue::new(8);
        q.push(job(0, 1, "a")).unwrap();
        q.push(job(1, 9, "a")).unwrap();
        q.push(job(2, 5, "a")).unwrap();
        assert_eq!(drain_ids(&q), vec![1, 2, 0]);
    }

    #[test]
    fn equal_priority_round_robins_across_clients() {
        let q = JobQueue::new(16);
        // Client a floods first; client b's lone jobs must interleave.
        for id in 0..3 {
            q.push(job(id, 1, "a")).unwrap();
        }
        q.push(job(10, 1, "b")).unwrap();
        q.push(job(11, 1, "b")).unwrap();
        // Never-served clients tie at stamp 0, then FIFO: a's 0 goes
        // first, which stamps a, so b runs next, and so on.
        assert_eq!(drain_ids(&q), vec![0, 10, 1, 11, 2]);
    }

    #[test]
    fn priority_trumps_fairness() {
        let q = JobQueue::new(8);
        q.push(job(0, 1, "a")).unwrap();
        q.push(job(1, 1, "b")).unwrap();
        q.push(job(2, 9, "a")).unwrap();
        // a's high-priority job jumps the line even though fairness
        // would prefer b; afterwards a is stamped as served, so b's
        // equal-priority job goes before a's remaining one.
        assert_eq!(drain_ids(&q), vec![2, 1, 0]);
    }

    #[test]
    fn full_queue_sheds_and_recovery_bypasses_cap() {
        let q = JobQueue::new(2);
        q.push(job(0, 1, "a")).unwrap();
        q.push(job(1, 1, "a")).unwrap();
        assert_eq!(q.push(job(2, 1, "a")), Err(PushError::Full));
        q.push_recovered(job(3, 1, "a")).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn closed_queue_refuses_pushes_and_drains() {
        let q = JobQueue::new(4);
        q.push(job(0, 1, "a")).unwrap();
        q.close();
        assert_eq!(q.push(job(1, 1, "a")), Err(PushError::Closed));
        assert_eq!(q.pop_blocking().map(|j| j.job_id), Some(0));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_blocking());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(job(42, 1, "a")).unwrap();
        assert_eq!(t.join().unwrap().map(|j| j.job_id), Some(42));
    }

    /// A paused queue pops nothing, even to a worker already blocked in
    /// `pop_blocking`; `close` still drains it.
    #[test]
    fn paused_queue_pops_nothing_until_closed() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let (tx, rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            while let Some(j) = q2.pop_blocking() {
                tx.send(j.job_id).unwrap();
            }
        });
        // The worker is (or soon will be) blocked waiting for work.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.set_paused(true);
        q.push(job(1, 1, "a")).unwrap();
        q.push(job(2, 9, "a")).unwrap();
        let wait = std::time::Duration::from_millis(100);
        assert!(rx.recv_timeout(wait).is_err(), "paused queue popped");
        assert_eq!(q.len(), 2);
        q.close();
        t.join().unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![2, 1]);
        assert_eq!(q.pop_blocking(), None);
    }

    /// Regression (leak): 10k distinct client names must not pin 10k
    /// served stamps forever.
    #[test]
    fn served_map_stays_bounded_across_10k_clients() {
        let q = JobQueue::new(16);
        for i in 0..10_000u64 {
            q.push(job(i, 1, &format!("client-{i}"))).unwrap();
            assert_eq!(q.pop_blocking().map(|j| j.job_id), Some(i));
        }
        assert!(
            q.served_clients() <= MAX_SERVED_CLIENTS,
            "served map leaked: {} stamps",
            q.served_clients()
        );
    }

    /// Regression (aging): under a *sustained* high-priority flood —
    /// fresh p2 arrivals between every pop — a waiting p1 job ages up
    /// to p2 and wins the fairness tie. Same-age entries age together,
    /// so only fresh arrivals can be overtaken: a one-shot burst still
    /// drains in strict priority order.
    #[test]
    fn aging_promotes_starved_low_priority_job() {
        // One p2 push before every pop: the flood never lets up.
        let sustained = |q: &JobQueue, rounds: u64| -> Vec<u64> {
            q.push(job(100, 1, "slow")).unwrap();
            let mut order = Vec::new();
            for id in 0..rounds {
                q.push(job(id, 2, "flood")).unwrap();
                order.push(q.pop_blocking().unwrap().job_id);
            }
            order
        };
        // Without aging the p1 job is starved for all 10 rounds.
        let q = JobQueue::new(16);
        assert_eq!(sustained(&q, 10), (0..10).collect::<Vec<u64>>());
        // With aging every 2 pops: after 2 pops the p1 job reaches
        // effective p2 and beats the fresh arrival (never served).
        let q = JobQueue::new(16).with_aging(2);
        assert_eq!(sustained(&q, 4), vec![0, 1, 100, 2]);
        // The flood itself still drains FIFO afterwards.
        assert_eq!(drain_ids(&q), vec![3]);
    }

    /// The legacy selection: linear scan of a flat entry vector,
    /// exactly as shipped before the ring rewrite. The differential
    /// test below pins the rewrite to these semantics byte-for-byte.
    struct Legacy {
        entries: Vec<(QueuedJob, u64)>,
        seq: u64,
        pops: u64,
        served: HashMap<String, u64>,
    }

    impl Legacy {
        fn new() -> Self {
            Self {
                entries: Vec::new(),
                seq: 0,
                pops: 0,
                served: HashMap::new(),
            }
        }

        fn push(&mut self, job: QueuedJob) {
            let seq = self.seq;
            self.seq += 1;
            self.entries.push((job, seq));
        }

        fn pop(&mut self) -> Option<u64> {
            let served = &self.served;
            let idx = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (job, seq))| {
                    let last_served = served.get(&job.client).copied().unwrap_or(0);
                    (u8::MAX - job.priority, last_served, *seq)
                })
                .map(|(idx, _)| idx)?;
            let (job, _) = self.entries.swap_remove(idx);
            self.pops += 1;
            let stamp = self.pops;
            self.served.insert(job.client, stamp);
            Some(job.job_id)
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Regression (O(n²) rewrite): randomized push/pop sequences pop in
    /// exactly the order the legacy linear-scan selection produced.
    #[test]
    fn differential_ring_selection_matches_legacy() {
        for seed in 1..=8u64 {
            let mut rng = seed;
            let q = JobQueue::new(1 << 16);
            let mut legacy = Legacy::new();
            let mut next_id = 0u64;
            let mut queued = 0usize;
            for _ in 0..400 {
                let r = splitmix64(&mut rng);
                if queued == 0 || r % 100 < 60 {
                    let priority = ((r >> 8) % 4) as u8;
                    let client = format!("c{}", (r >> 16) % 5);
                    q.push(job(next_id, priority, &client)).unwrap();
                    legacy.push(job(next_id, priority, &client));
                    next_id += 1;
                    queued += 1;
                } else {
                    let got = q.pop_blocking().map(|j| j.job_id);
                    assert_eq!(got, legacy.pop(), "divergence (seed {seed})");
                    queued -= 1;
                }
            }
            let rest: Vec<u64> = drain_ids(&q);
            let legacy_rest: Vec<u64> = std::iter::from_fn(|| legacy.pop()).collect();
            assert_eq!(rest, legacy_rest, "drain divergence (seed {seed})");
        }
    }
}
