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
//! simulation thread when a core's chunk runs out, or *piped*
//! ([`piped`]), by both threads of a run. A front-end thread fills ahead,
//! keeping at most two full chunks queued per core, and the simulation
//! thread fills too whenever a core runs dry: that core's chunk in place
//! if its front end is free, and otherwise another core's, while it waits.
//! Each front end is filled by one side at a time, strictly in tape
//! order, so both feeds fill the same chunks in the same order and
//! reports are byte-identical either way.

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
    /// Filled ahead by the run's front-end thread, and by the simulation
    /// thread whenever a core runs dry ([`Pipe`]).
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
/// thread: per core, the full chunks in tape order, the spent ones either
/// side may refill, and the front end that fills them.
pub(crate) struct Pipe {
    state: Mutex<PipeState>,
    /// Signalled on a hand-off the other side sleeps on, and on hang-up.
    /// At most one side sleeps at a time: the producer only when no core
    /// has both a spent chunk and a free front end, the consumer only
    /// while the producer fills its core's front end.
    changed: Condvar,
    /// Chunks pushed so far, for the consumer to spin on. It publishes no
    /// data (the chunks travel under the mutex), so it is `Relaxed`.
    pushed: AtomicU64,
}

struct PipeState {
    full: Vec<VecDeque<Chunk>>,
    spent: Vec<Vec<Chunk>>,
    /// Each core's front end, `None` while a side fills from it: taking it
    /// out is the claim that keeps its chunks in tape order.
    fronts: Vec<Option<FrontEnd>>,
    /// Which side sleeps on `changed`, if any.
    producer_sleeps: bool,
    consumer_sleeps: bool,
    /// Set by whichever side stops first; the other stops waiting.
    hung_up: bool,
    /// The front-end thread's panic, re-raised on the simulation thread.
    panic: Option<Box<dyn Any + Send>>,
}

impl PipeState {
    /// Claims the front end and a spent chunk of the core with the fewest
    /// chunks queued (the lowest index on a tie), among those that have
    /// both free.
    fn claim(&mut self) -> Option<(usize, FrontEnd, Chunk)> {
        let core = (0..self.fronts.len())
            .filter(|&i| self.fronts[i].is_some() && !self.spent[i].is_empty())
            .min_by_key(|&i| self.full[i].len())?;
        let front = self.fronts[core].take().expect("filtered present");
        let chunk = self.spent[core].pop().expect("filtered non-empty");
        Some((core, front, chunk))
    }

    /// Queues a chunk filled from a claim and frees its front end.
    fn queue(&mut self, core: usize, front: FrontEnd, chunk: Chunk) {
        self.full[core].push_back(chunk);
        self.fronts[core] = Some(front);
    }
}

impl Pipe {
    fn new(fronts: Vec<FrontEnd>) -> Self {
        let cores = fronts.len();
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
                fronts: fronts.into_iter().map(Some).collect(),
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

    /// Wakes the producer if it sleeps, after `st` freed a front end or a
    /// spent chunk.
    fn wake_producer(&self, st: MutexGuard<'_, PipeState>) {
        let wake = st.producer_sleeps;
        drop(st);
        if wake {
            self.changed.notify_all();
        }
    }

    /// Consumer side: replaces core `core`'s spent `chunk` with its next
    /// one. That is the core's first queued chunk if it has one; otherwise
    /// the consumer fills `chunk` in place when the core's front end is
    /// free. While the producer fills it, the consumer fills the next
    /// chunk of any other core it can claim, and spins and then sleeps
    /// only when there is none. If the producer has stopped (it
    /// panicked), re-raises its panic.
    fn next_chunk(&self, core: usize, chunk: &mut Chunk) {
        let mut spin_until = None;
        let mut st = self.lock();
        loop {
            if let Some(next) = st.full[core].pop_front() {
                let spent = std::mem::replace(chunk, next);
                st.spent[core].push(spent);
                self.wake_producer(st);
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
            // Nothing is queued, so the front end's next chunk is this
            // core's next one.
            if let Some(mut front) = st.fronts[core].take() {
                drop(st);
                front.fill(chunk);
                let mut st = self.lock();
                st.fronts[core] = Some(front);
                self.wake_producer(st);
                return;
            }
            if let Some((other, mut front, mut next)) = st.claim() {
                drop(st);
                front.fill(&mut next);
                st = self.lock();
                st.queue(other, front, next);
                if st.producer_sleeps {
                    self.changed.notify_all();
                }
                continue;
            }
            let until = *spin_until.get_or_insert_with(|| Instant::now() + SPIN);
            if Instant::now() < until {
                let seen = self.pushed.load(Ordering::Relaxed);
                drop(st);
                while self.pushed.load(Ordering::Relaxed) == seen && Instant::now() < until {
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

    /// Producer side: fills chunks until hung up, from whichever core
    /// [`PipeState::claim`] picks.
    fn produce(&self) {
        loop {
            let (core, mut front, mut chunk) = {
                let mut st = self.lock();
                loop {
                    if st.hung_up {
                        return;
                    }
                    if let Some(claimed) = st.claim() {
                        break claimed;
                    }
                    st.producer_sleeps = true;
                    st = self.wait(st);
                    st.producer_sleeps = false;
                }
            };
            front.fill(&mut chunk);
            let mut st = self.lock();
            st.queue(core, front, chunk);
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
/// helps it fill chunks from `fronts`, through the [`Pipe`] it reads. The
/// thread is joined before this returns or unwinds; a panic on it surfaces
/// as `consume`'s panic.
pub(crate) fn piped<R>(fronts: Vec<FrontEnd>, consume: impl FnOnce(&Pipe) -> R) -> R {
    let pipe = Pipe::new(fronts);
    std::thread::scope(|s| {
        let pipe = &pipe;
        std::thread::Builder::new()
            .name("esteem-front".into())
            .spawn_scoped(s, move || {
                let _hang_up = HangUp(pipe);
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| pipe.produce())) {
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

    /// Reads chunks core by core in `order`, each core through a slot of
    /// its own as [`crate::core_model::CoreState`] does; returns each
    /// core's tape.
    fn read(feed: &mut Feed<'_>, order: &[usize]) -> Vec<Vec<Chunk>> {
        let cores = order.iter().max().map_or(0, |&c| c + 1);
        let mut slots = vec![Chunk::default(); cores];
        let mut tapes = vec![Vec::new(); cores];
        for &core in order {
            feed.next_chunk(core, &mut slots[core]);
            tapes[core].push(slots[core].clone());
        }
        tapes
    }

    /// `got` must be the inline tapes of `front(0..)`, chunk for chunk.
    fn assert_inline_tapes(got: &[Vec<Chunk>]) {
        let mut inline: Vec<_> = (0..got.len() as u32).map(front).collect();
        let mut feed = Feed::Inline(&mut inline);
        for (core, tape) in got.iter().enumerate() {
            let want = read(&mut feed, &vec![core; tape.len()]).remove(core);
            assert_eq!(want.len(), tape.len());
            for (i, (w, g)) in want.iter().zip(tape).enumerate() {
                let at = format!("core {core} chunk {i}");
                assert_eq!(w.enc, g.enc, "{at}");
                assert_eq!(w.instrs, g.instrs, "{at}");
                assert_eq!(w.recs, g.recs, "{at}");
                assert_eq!(w.wbs, g.wbs, "{at}");
            }
        }
        assert!(got[0][0].recs.iter().any(|r| !r.hit()), "mcf misses");
    }

    #[test]
    fn piped_chunks_equal_inline_chunks() {
        // Uneven consumption: core 1 reads all its chunks first, then
        // core 2 reads two chunks for each of core 0's.
        let order: Vec<usize> = [1; 7]
            .into_iter()
            .chain((0..15).map(|i| if i % 3 == 0 { 0 } else { 2 }))
            .collect();
        let fronts = vec![front(0), front(1), front(2)];
        let got = piped(fronts, |pipe| read(&mut Feed::Piped(pipe), &order));
        assert_inline_tapes(&got);
    }

    #[test]
    fn a_pipe_without_a_producer_is_filled_by_its_consumer() {
        let pipe = Pipe::new(vec![front(0), front(1), front(2)]);
        let got = read(&mut Feed::Piped(&pipe), &[2, 0, 0, 1, 2, 2, 0, 1]);
        assert_inline_tapes(&got);
    }

    #[test]
    fn a_consumer_waiting_on_its_front_end_fills_the_other_cores() {
        let pipe = Pipe::new(vec![front(0), front(1), front(2)]);
        // The test thread claims core 0's front end as the producer
        // would, so the consumer's wait for core 0 fills cores 1 and 2.
        let (core, mut fe, mut chunk) = pipe.lock().claim().expect("all free");
        assert_eq!(core, 0);
        let got = std::thread::scope(|s| {
            let consumer = s.spawn(|| read(&mut Feed::Piped(&pipe), &[0, 1, 1, 1, 2, 0, 2, 2]));
            let t0 = Instant::now();
            while !pipe.lock().consumer_sleeps {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "consumer never slept"
                );
                std::thread::yield_now();
            }
            {
                let st = pipe.lock();
                assert_eq!([st.full[1].len(), st.full[2].len()], [2, 2]);
            }
            fe.fill(&mut chunk);
            pipe.lock().queue(0, fe, chunk);
            pipe.changed.notify_all();
            consumer.join().expect("the consumer finishes")
        });
        assert_inline_tapes(&got);
    }

    #[test]
    fn producer_panic_surfaces_on_the_consumer() {
        // A front end whose L1 fails the kernel's shape check panics in
        // its first fill, on whichever thread claims it first: either way
        // the run's panic is the fill's.
        let mut bad = front(0);
        bad.l1d.set_retention_tracking(true);
        let t0 = Instant::now();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            piped(vec![bad], |pipe| {
                Feed::Piped(pipe).next_chunk(0, &mut Chunk::default());
            })
        }))
        .expect_err("the fill's panic reaches the consumer");
        assert!(t0.elapsed() < Duration::from_secs(10));
        let msg = esteem_par::panic_message(caught.as_ref());
        assert!(msg.contains("non-L1-shaped"), "got: {msg}");
    }
}
