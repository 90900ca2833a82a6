//! The front-end tape: each core's workload stream and private L1, run
//! ahead of the core in fixed-size chunks.
//!
//! A core's front end takes no feedback from the L2 (no inclusion, no
//! back-invalidation), so its output is a pure function of the core's
//! stream: the packed access, the instruction count and the L1 outcome of
//! every bundle, plus the dirty evictions. [`FrontEnd::fill`] writes the
//! next [`CHUNK_BUNDLES`] of them into a [`Chunk`]; the core consumes
//! chunks in order ([`crate::core_model::CoreState::run_hits`]) and
//! applies the L1's lifetime stats as it consumes, so how far ahead the
//! tape runs is unobservable.
//!
//! A [`Feed`] says where the chunks are filled: *inline*, on the
//! simulation thread when a core's chunk runs out, or *piped*, by one
//! front-end thread per run ([`piped`]) that keeps at most two full
//! chunks queued per core. Both fill the same chunks in the same order,
//! so reports are byte-identical either way.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use esteem_cache::{L1Rec, SetAssocCache};
use esteem_workloads::AccessStream;

/// Bundles per chunk: large enough that a hand-off (one lock, one wake)
/// is noise next to filling it, small enough that a run's chunks stay
/// CPU-cache-resident next to the L2 model (13 bytes a bundle).
pub(crate) const CHUNK_BUNDLES: usize = 4096;

/// Full chunks a core may have queued ahead of the one it consumes.
const QUEUED_PER_CORE: usize = 2;

/// How long the simulation thread spins for a chunk before it sleeps:
/// about twice the time to fill one, so that a run whose front end is the
/// slower side hands off without a sleep and a wake per chunk.
const SPIN: Duration = Duration::from_micros(250);

/// [`CHUNK_BUNDLES`] consecutive bundles of one core in struct-of-arrays
/// form: the packed `(block << 1) | write` access the L1 kernel consumes,
/// the instruction count and the byte-sized L1 outcome. Dirty-eviction
/// block addresses ride in a side vector, in access order (rare, so they
/// do not widen every record).
#[derive(Debug, Clone, Default)]
pub(crate) struct Chunk {
    pub(crate) enc: Vec<u64>,
    pub(crate) instrs: Vec<u32>,
    pub(crate) recs: Vec<L1Rec>,
    pub(crate) wbs: Vec<u64>,
}

impl Chunk {
    /// A chunk that a fill never grows, so that every allocation of a
    /// piped run happens on the simulation thread.
    pub(crate) fn allocated() -> Self {
        Self {
            enc: Vec::with_capacity(CHUNK_BUNDLES),
            instrs: Vec::with_capacity(CHUNK_BUNDLES),
            recs: Vec::with_capacity(CHUNK_BUNDLES),
            wbs: Vec::with_capacity(CHUNK_BUNDLES),
        }
    }
}

/// One core's front end: its workload stream and private L1D.
#[derive(Debug, Clone)]
pub(crate) struct FrontEnd {
    stream: AccessStream,
    l1d: SetAssocCache,
}

impl FrontEnd {
    pub(crate) fn new(stream: AccessStream, l1d: SetAssocCache) -> Self {
        assert!(
            l1d.supports_l1_batch(),
            "core L1s must qualify for the compact batch kernel"
        );
        Self { stream, l1d }
    }

    /// Overwrites `chunk` with the stream's next [`CHUNK_BUNDLES`]
    /// bundles, run through the L1 batch kernel in one call.
    pub(crate) fn fill(&mut self, chunk: &mut Chunk) {
        chunk.enc.clear();
        chunk.instrs.clear();
        chunk.recs.clear();
        chunk.wbs.clear();
        self.stream
            .fill_encoded(&mut chunk.enc, &mut chunk.instrs, CHUNK_BUNDLES);
        self.l1d
            .access_batch_l1(&chunk.enc, &mut chunk.recs, &mut chunk.wbs);
        debug_assert_eq!(chunk.enc.len(), chunk.recs.len());
    }
}

/// Where a run's chunks come from.
pub(crate) enum Feed<'a> {
    /// Filled on the simulation thread when a core runs out.
    Inline(&'a mut [FrontEnd]),
    /// Filled ahead by the run's front-end thread.
    Piped(&'a Pipe),
}

impl Feed<'_> {
    /// Replaces core `core`'s spent `chunk` with its next one.
    pub(crate) fn next_chunk(&mut self, core: usize, chunk: &mut Chunk) {
        match self {
            Feed::Inline(fronts) => fronts[core].fill(chunk),
            Feed::Piped(pipe) => pipe.next_chunk(core, chunk),
        }
    }
}

/// The queues between a run's front-end thread and its simulation
/// thread: per core, the full chunks in tape order and the spent ones the
/// producer may refill.
pub(crate) struct Pipe {
    state: Mutex<PipeState>,
    /// Signalled on a hand-off the other side sleeps on, and on hang-up.
    /// At most one side sleeps at a time: the producer only when every
    /// core has [`QUEUED_PER_CORE`] chunks queued, the consumer only when
    /// its core has none.
    changed: Condvar,
    /// Chunks pushed so far, for the consumer to spin on. It publishes no
    /// data (the chunks travel under the mutex), so it is `Relaxed`.
    pushed: AtomicU64,
}

struct PipeState {
    full: Vec<VecDeque<Chunk>>,
    spent: Vec<Vec<Chunk>>,
    /// Which side sleeps on `changed`, if any.
    producer_sleeps: bool,
    consumer_sleeps: bool,
    /// Set by whichever side stops first; the other stops waiting.
    hung_up: bool,
    /// The front-end thread's panic, re-raised on the simulation thread.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pipe {
    fn new(cores: usize) -> Self {
        Self {
            state: Mutex::new(PipeState {
                full: (0..cores)
                    .map(|_| VecDeque::with_capacity(QUEUED_PER_CORE + 1))
                    .collect(),
                // The consumer's own chunk joins these after its first
                // hand-off: QUEUED_PER_CORE + 1 chunks per core in all.
                spent: (0..cores)
                    .map(|_| {
                        let mut v = Vec::with_capacity(QUEUED_PER_CORE + 1);
                        v.resize_with(QUEUED_PER_CORE, Chunk::allocated);
                        v
                    })
                    .collect(),
                producer_sleeps: false,
                consumer_sleeps: false,
                hung_up: false,
                panic: None,
            }),
            changed: Condvar::new(),
            pushed: AtomicU64::new(0),
        }
    }

    /// Every update under the lock leaves the state valid, and no fill
    /// runs while it is held, so a poisoned lock is used as it is: the
    /// hang-up must get through while the other side unwinds.
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, PipeState>) -> MutexGuard<'a, PipeState> {
        self.changed
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn hang_up(&self) {
        self.lock().hung_up = true;
        self.changed.notify_all();
    }

    /// Consumer side: swaps core `core`'s spent `chunk` for the next full
    /// one, spinning and then sleeping until the producer has queued one.
    /// If the producer has stopped (it panicked), re-raises its panic.
    fn next_chunk(&self, core: usize, chunk: &mut Chunk) {
        let spin_until = Instant::now() + SPIN;
        let mut st = self.lock();
        loop {
            if let Some(next) = st.full[core].pop_front() {
                let spent = std::mem::replace(chunk, next);
                st.spent[core].push(spent);
                let wake = st.producer_sleeps;
                drop(st);
                if wake {
                    self.changed.notify_all();
                }
                return;
            }
            if st.hung_up {
                let payload = st
                    .panic
                    .take()
                    .unwrap_or_else(|| Box::new("the front-end thread stopped early"));
                drop(st);
                panic::resume_unwind(payload);
            }
            if Instant::now() < spin_until {
                let seen = self.pushed.load(Ordering::Relaxed);
                drop(st);
                while self.pushed.load(Ordering::Relaxed) == seen && Instant::now() < spin_until {
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                }
                st = self.lock();
            } else {
                st.consumer_sleeps = true;
                st = self.wait(st);
                st.consumer_sleeps = false;
            }
        }
    }

    /// Producer side: fills chunks until hung up, always for the core
    /// with the fewest queued (the lowest index on a tie).
    fn produce(&self, fronts: &mut [FrontEnd]) {
        loop {
            let (core, mut chunk) = {
                let mut st = self.lock();
                loop {
                    if st.hung_up {
                        return;
                    }
                    let next = (0..fronts.len())
                        .filter(|&i| !st.spent[i].is_empty())
                        .min_by_key(|&i| st.full[i].len());
                    if let Some(i) = next {
                        let chunk = st.spent[i].pop().expect("filtered non-empty");
                        break (i, chunk);
                    }
                    st.producer_sleeps = true;
                    st = self.wait(st);
                    st.producer_sleeps = false;
                }
            };
            fronts[core].fill(&mut chunk);
            let mut st = self.lock();
            st.full[core].push_back(chunk);
            let wake = st.consumer_sleeps;
            drop(st);
            self.pushed.fetch_add(1, Ordering::Relaxed);
            if wake {
                self.changed.notify_all();
            }
        }
    }
}

/// Hangs up the pipe when dropped, so that neither side of a run waits
/// forever on the other once one of them returns or unwinds.
struct HangUp<'a>(&'a Pipe);

impl Drop for HangUp<'_> {
    fn drop(&mut self) {
        self.0.hang_up();
    }
}

/// Runs `consume` on the calling thread while one scoped front-end thread
/// fills chunks from `fronts` into the [`Pipe`] it reads. The thread is
/// joined before this returns or unwinds; a panic on it surfaces as
/// `consume`'s panic.
pub(crate) fn piped<R>(fronts: &mut [FrontEnd], consume: impl FnOnce(&Pipe) -> R) -> R {
    let pipe = Pipe::new(fronts.len());
    std::thread::scope(|s| {
        let pipe = &pipe;
        std::thread::Builder::new()
            .name("esteem-front".into())
            .spawn_scoped(s, move || {
                let _hang_up = HangUp(pipe);
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| pipe.produce(fronts)))
                {
                    pipe.lock().panic = Some(payload);
                }
            })
            .expect("spawn the front-end thread");
        let _hang_up = HangUp(pipe);
        consume(pipe)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use esteem_cache::CacheGeometry;
    use esteem_workloads::benchmark_by_name;
    use std::time::{Duration, Instant};

    fn front(core: u32) -> FrontEnd {
        let p = benchmark_by_name("mcf").unwrap();
        let mut l1 = SetAssocCache::new(CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1), None);
        l1.set_retention_tracking(false);
        FrontEnd::new(AccessStream::new(&p, core, 3), l1)
    }

    fn tape(feed: &mut Feed<'_>, core: usize, chunks: usize) -> Vec<Chunk> {
        let mut chunk = Chunk::default();
        (0..chunks)
            .map(|_| {
                feed.next_chunk(core, &mut chunk);
                chunk.clone()
            })
            .collect()
    }

    #[test]
    fn piped_chunks_equal_inline_chunks() {
        let mut inline = vec![front(0), front(1)];
        let mut feed = Feed::Inline(&mut inline);
        let want: Vec<_> = (0..2).map(|c| tape(&mut feed, c, 7)).collect();
        let mut fronts = vec![front(0), front(1)];
        // Uneven consumption: core 1 reads all its chunks before core 0.
        let got = piped(&mut fronts, |pipe| {
            let mut feed = Feed::Piped(pipe);
            let one = tape(&mut feed, 1, 7);
            vec![tape(&mut feed, 0, 7), one]
        });
        for (w, g) in want.iter().flatten().zip(got.iter().flatten()) {
            assert_eq!(w.enc, g.enc);
            assert_eq!(w.instrs, g.instrs);
            assert_eq!(w.recs, g.recs);
            assert_eq!(w.wbs, g.wbs);
        }
        assert!(want[0][0].recs.iter().any(|r| !r.hit()), "mcf misses");
    }

    #[test]
    fn producer_panic_surfaces_on_the_consumer() {
        // A front end whose L1 fails the kernel's shape check panics in
        // its first fill, on the front-end thread.
        let mut bad = front(0);
        bad.l1d.set_retention_tracking(true);
        let mut fronts = vec![bad];
        let t0 = Instant::now();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            piped(&mut fronts, |pipe| {
                Feed::Piped(pipe).next_chunk(0, &mut Chunk::default());
            })
        }))
        .expect_err("the producer's panic reaches the consumer");
        assert!(t0.elapsed() < Duration::from_secs(10));
        let msg = esteem_par::panic_message(caught.as_ref());
        assert!(msg.contains("non-L1-shaped"), "got: {msg}");
    }
}
