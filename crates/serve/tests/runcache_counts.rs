//! Run-cache lookups and runs per job, in a test binary of their own:
//! the run cache and its hit/miss counters are process-global, so the
//! tests here take turns and no other test may look anything up beside
//! them.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use esteem_harness::runcache;
use esteem_serve::{
    client, spawn, spawn_with, Job, JobSpec, Journal, LocalRunner, Plane, RunOutcome, Runner,
    ServerOptions,
};

/// Held by each test for its whole run.
static RUN_CACHE: Mutex<()> = Mutex::new(());

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        workload: "gamess".into(),
        instructions: 20_000,
        warmup: Some(200_000),
        seed,
        ..JobSpec::default()
    }
}

/// Every job is looked up once before it runs: a fresh job counts one
/// miss, a resubmission one hit, and a job recovered from the journal
/// one lookup at restart (a hit finishes it there, a miss re-runs it).
fn opts(journal: &std::path::Path) -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".into(),
        journal_path: Some(journal.to_path_buf()),
        ..ServerOptions::default()
    }
}

/// A fresh directory for one test's journal.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esteem-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_job_is_looked_up_in_the_run_cache_once() {
    let _turn = RUN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("lookups");
    let journal = dir.join("journal.jsonl");
    let opts = || opts(&journal);
    runcache::clear();

    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let fresh: Vec<u64> = (1..=3)
        .map(|seed| client::submit(&addr, &spec(seed)).unwrap().job)
        .collect();
    for &job in &fresh {
        client::fetch(&addr, job, Duration::from_millis(5)).unwrap();
    }
    assert_eq!(runcache::stats(), (0, 3), "one miss per fresh job");
    for seed in 1..=2 {
        assert!(client::submit(&addr, &spec(seed)).unwrap().cached);
    }
    assert_eq!(runcache::stats(), (2, 3), "one hit per resubmission");
    let (_, status) = client::request(&addr, "GET", "/v1/status", None).unwrap();
    assert!(
        status.contains("\"runcache\":{\"hits\":2,\"misses\":3,"),
        "{status}"
    );
    daemon.shutdown();
    daemon.wait();

    // Two jobs a crash left unfinished: one whose result the cache
    // holds, one it does not.
    let j = Journal::open(&journal).unwrap();
    for (id, seed) in [(100, 1), (101, 4)] {
        let fp = spec(seed).resolve().unwrap().fingerprint;
        j.submit(id, None, fp, &spec(seed));
        j.start(id);
    }
    drop(j);
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    // The five earlier jobs are done and job 100's result is cached: six
    // hits. Job 101 misses once and runs; job 100 completes as a cached
    // job.
    client::fetch(&addr, 101, Duration::from_millis(5)).unwrap();
    assert_eq!(runcache::stats(), (2 + 6, 3 + 1));
    assert_eq!(daemon.counters().recovered.load(Relaxed), 7);
    assert_eq!(daemon.counters().completed.load(Relaxed), 2);
    assert_eq!(daemon.counters().cached.load(Relaxed), 1);
    let (state, _) = client::poll(&addr, 100).unwrap();
    assert_eq!(state, "done");
    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counts its runs and fails the first `fail` of them.
struct CountingRunner {
    runs: AtomicU64,
    fail: u64,
}

impl Runner for CountingRunner {
    fn run(&self, plane: &Plane, job: &Job) -> RunOutcome {
        if self.runs.fetch_add(1, Relaxed) < self.fail {
            return RunOutcome::Failed("injected".into());
        }
        LocalRunner.run(plane, job)
    }
}

/// What a daemon did with a recovered journal.
struct Recovered {
    runs: u64,
    /// Each job's report as JSON, or its error.
    jobs: Vec<Result<String, String>>,
    completed: u64,
    cached: u64,
}

/// Recovers a journal holding three done jobs and one unfinished job of
/// one fingerprint into a daemon with an empty run cache whose first
/// `fail` runs fail.
fn recover_four_of_one_fingerprint(fail: u64) -> Recovered {
    let _turn = RUN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir(&format!("followers-{fail}"));
    let journal = dir.join("journal.jsonl");
    let j = Journal::open(&journal).unwrap();
    let fp = spec(9).resolve().unwrap().fingerprint;
    for id in 1..=4 {
        j.submit(id, None, fp, &spec(9));
        j.start(id);
        if id <= 3 {
            j.done(id);
        }
    }
    drop(j);
    runcache::clear();
    let runner = Arc::new(CountingRunner {
        runs: AtomicU64::new(0),
        fail,
    });
    let daemon = spawn_with(opts(&journal), runner.clone(), None).unwrap();
    let addr = daemon.addr().to_string();
    let jobs = (1..=4)
        .map(|id| {
            let report = client::fetch(&addr, id, Duration::from_millis(5))?;
            Ok(serde_json::to_string(&report).unwrap())
        })
        .collect();
    assert_eq!(runcache::stats(), (0, 1), "one lookup for the fingerprint");
    let c = daemon.counters();
    assert_eq!(c.recovered.load(Relaxed), 4);
    let (completed, cached) = (c.completed.load(Relaxed), c.cached.load(Relaxed));
    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
    Recovered {
        runs: runner.runs.load(Relaxed),
        jobs,
        completed,
        cached,
    }
}

/// Recovered jobs of one fingerprint the run cache does not hold run
/// once: the first re-runs and the others finish with its report.
#[test]
fn recovered_jobs_of_one_fingerprint_run_once() {
    let r = recover_four_of_one_fingerprint(0);
    assert_eq!(r.runs, 1);
    let report = r.jobs[0].as_ref().expect("job 1 is done");
    for (id, job) in (1..).zip(&r.jobs) {
        assert_eq!(job.as_ref(), Ok(report), "job {id}");
    }
    // The run, and job 4, which its last life left unfinished.
    assert_eq!((r.completed, r.cached), (2, 1));
}

/// When the run a recovered job waits for fails, that job runs instead,
/// and the others wait for it.
#[test]
fn a_failed_run_passes_its_followers_to_the_next_one() {
    let r = recover_four_of_one_fingerprint(1);
    assert_eq!(r.runs, 2);
    let err = r.jobs[0].as_ref().expect_err("job 1 failed");
    assert!(err.contains("injected"), "{err}");
    let report = r.jobs[1].as_ref().expect("job 2 is done");
    for (id, job) in (2..).zip(&r.jobs[1..]) {
        assert_eq!(job.as_ref(), Ok(report), "job {id}");
    }
    assert_eq!((r.completed, r.cached), (2, 1));
}
