//! Crash-safe append-only job journal, shared by the `esteem-serve`
//! daemon and the `esteem-coord` coordinator.
//!
//! One JSON object per line, written at every job state transition and
//! flushed to the OS per record (a run-cache hit's submit and done lines
//! go out together, in one write). A record therefore survives a crash
//! of the process, but not a power loss: records are not fsync'd.
//!
//! ```text
//! {"event":"submit","job":3,"fingerprint":"00ab..","spec":{..},"t":1754500000}
//! {"event":"submit","job":4,"sweep":1,"fingerprint":"00cd..","spec":{..},"t":..}
//! {"event":"sweep","sweep":1,"jobs":[4,5],"t":..}
//! {"event":"coalesce","into":3,"t":..}
//! {"event":"start","job":3,"t":..}
//! {"event":"dispatch","job":4,"node":"w1","t":..}
//! {"event":"done","job":3,"t":..}
//! {"event":"fail","job":3,"error":"..","t":..}
//! ```
//!
//! The daemon writes `coalesce` and `start`; the coordinator writes
//! `sweep`, `dispatch` and submits that carry a `sweep`.
//!
//! Recovery replays the log on start:
//! * `done` jobs come back as done; the report itself is *not* in the
//!   journal (it can be megabytes) — it is re-materialized from the run
//!   cache by fingerprint, and if the cache no longer holds it the job
//!   is simply re-queued (the simulator is deterministic, so re-running
//!   reproduces the identical report).
//! * `fail` jobs come back failed with their recorded error.
//! * submitted-but-unfinished jobs (crash mid-run) are re-queued.
//! * if a job id is submitted twice, its outcomes resolve to the first
//!   submit.
//! * a torn final line (crash mid-write) is skipped, not fatal.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{map_get, Deserialize, Serialize, Value};

use crate::job::JobSpec;

/// Append-side handle. `Journal::none()` disables journaling (all
/// records are dropped), which keeps call sites branch-free.
pub struct Journal {
    file: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
}

fn epoch_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl Journal {
    /// Opens (creating or appending) the journal at `path`.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self {
            file: Some(Mutex::new(std::io::BufWriter::new(file))),
        })
    }

    /// A disabled journal: every record is a no-op.
    pub fn none() -> Self {
        Self { file: None }
    }

    fn record(&self, fields: Vec<(String, Value)>) {
        self.records([fields]);
    }

    /// Appends records as consecutive lines under one lock and one flush.
    fn records<const N: usize>(&self, records: [Vec<(String, Value)>; N]) {
        let Some(file) = &self.file else { return };
        let t = epoch_secs();
        let mut text = String::new();
        for mut fields in records {
            fields.push(("t".into(), t.to_value()));
            text += &serde_json::to_string(&Value::Map(fields)).expect("journal record serializes");
            text.push('\n');
        }
        let mut w = file.lock().unwrap_or_else(|e| e.into_inner());
        // Flush per call: the journal exists for crash recovery, so a
        // record buffered in userspace is a record lost.
        let _ = w.write_all(text.as_bytes());
        let _ = w.flush();
    }

    /// Flushes and fsyncs everything written so far.
    fn sync_all(&self) -> std::io::Result<()> {
        let Some(file) = &self.file else {
            return Ok(());
        };
        let mut w = file.lock().unwrap_or_else(|e| e.into_inner());
        w.flush()?;
        w.get_ref().sync_all()
    }

    /// Records a coordinator sweep and its member jobs, in cell order.
    pub fn sweep(&self, sweep: u64, jobs: &[u64]) {
        self.record(vec![
            ("event".into(), Value::Str("sweep".into())),
            ("sweep".into(), sweep.to_value()),
            (
                "jobs".into(),
                Value::Seq(jobs.iter().map(|j| j.to_value()).collect()),
            ),
        ]);
    }

    /// Records a submitted job; `sweep` is the coordinator sweep it
    /// belongs to, if any.
    pub fn submit(&self, job: u64, sweep: Option<u64>, fingerprint: u64, spec: &JobSpec) {
        self.record(submit_fields(job, sweep, fingerprint, spec));
    }

    /// Records a job answered from the run cache: its `submit` and
    /// `done` lines, in one write. A crash that tears the `done` line
    /// leaves the submit alone, which replays as unfinished (re-queued).
    pub fn cached(&self, job: u64, sweep: Option<u64>, fingerprint: u64, spec: &JobSpec) {
        self.records([
            submit_fields(job, sweep, fingerprint, spec),
            done_fields(job),
        ]);
    }

    /// Records that a duplicate submission coalesced onto job `into`.
    /// Coalesced submissions have no id of their own — they *are* the
    /// primary job — so only the target is recorded.
    pub fn coalesce(&self, into: u64) {
        self.record(vec![
            ("event".into(), Value::Str("coalesce".into())),
            ("into".into(), into.to_value()),
        ]);
    }

    pub fn start(&self, job: u64) {
        self.record(vec![
            ("event".into(), Value::Str("start".into())),
            ("job".into(), job.to_value()),
        ]);
    }

    /// Records that the coordinator sent `job` to worker `node`.
    pub fn dispatch(&self, job: u64, node: &str) {
        self.record(vec![
            ("event".into(), Value::Str("dispatch".into())),
            ("job".into(), job.to_value()),
            ("node".into(), Value::Str(node.into())),
        ]);
    }

    pub fn done(&self, job: u64) {
        self.record(done_fields(job));
    }

    pub fn fail(&self, job: u64, error: &str) {
        self.record(vec![
            ("event".into(), Value::Str("fail".into())),
            ("job".into(), job.to_value()),
            ("error".into(), Value::Str(error.into())),
        ]);
    }

    /// Marks a compacted journal head. Carries the highest job id ever
    /// allocated so id allocation stays monotonic even when the records
    /// of the highest jobs (e.g. coalesced ones) were compacted away.
    pub fn compact_marker(&self, max_id: u64) {
        self.record(vec![
            ("event".into(), Value::Str("compact".into())),
            ("max_id".into(), max_id.to_value()),
        ]);
    }
}

fn submit_fields(
    job: u64,
    sweep: Option<u64>,
    fingerprint: u64,
    spec: &JobSpec,
) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("event".into(), Value::Str("submit".into())),
        ("job".into(), job.to_value()),
    ];
    if let Some(s) = sweep {
        fields.push(("sweep".into(), s.to_value()));
    }
    fields.push((
        "fingerprint".into(),
        Value::Str(format!("{fingerprint:016x}")),
    ));
    fields.push(("spec".into(), spec.to_value()));
    fields
}

fn done_fields(job: u64) -> Vec<(String, Value)> {
    vec![
        ("event".into(), Value::Str("done".into())),
        ("job".into(), job.to_value()),
    ]
}

/// Outcome of one journaled job after replay.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredOutcome {
    /// Submitted (possibly started) but never finished: re-queue.
    Unfinished,
    /// Finished successfully; report must be re-materialized from the
    /// run cache (or by re-running).
    Done,
    Failed(String),
}

#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    pub id: u64,
    pub spec: JobSpec,
    pub fingerprint: u64,
    /// The coordinator sweep the job belongs to (`None` for daemon jobs
    /// and single coordinator submits).
    pub sweep: Option<u64>,
    pub outcome: RecoveredOutcome,
}

#[derive(Debug, Default)]
pub struct Recovery {
    /// In submit order.
    pub jobs: Vec<RecoveredJob>,
    /// Coordinator sweeps: sweep id -> member job ids, in cell order.
    pub sweeps: Vec<(u64, Vec<u64>)>,
    /// Highest job id seen (id allocation resumes above it).
    pub max_id: u64,
    /// Highest sweep id seen.
    pub max_sweep_id: u64,
    /// Lines that failed to parse (only the torn tail is expected).
    pub skipped_lines: u64,
}

/// Replays a journal file. A missing file is an empty recovery (first
/// boot), not an error.
///
/// Corruption anywhere in the file — a torn tail, an overwritten middle
/// line, even bytes that are not UTF-8 — skips that line (counted in
/// [`Recovery::skipped_lines`]) and keeps replaying. Recovery must never
/// refuse to boot the daemon over a damaged record: the worst case for a
/// skipped line is a job replayed as unfinished, and re-running is safe
/// because the simulator is deterministic. (`BufRead::lines` would abort
/// the whole replay with an I/O error on the first non-UTF-8 byte.)
pub fn recover(path: &Path) -> std::io::Result<Recovery> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::default()),
        Err(e) => return Err(e),
    };
    let mut rec = Recovery::default();
    // Job id -> position in `rec.jobs`, so each outcome line resolves in
    // O(1) and replay stays linear in journal length.
    let mut index: HashMap<u64, usize> = HashMap::new();
    for raw in bytes.split(|&b| b == b'\n') {
        if raw.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            rec.skipped_lines += 1;
            continue;
        };
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            rec.skipped_lines += 1;
            continue;
        };
        if apply(&mut rec, &mut index, &v).is_none() {
            rec.skipped_lines += 1;
        }
    }
    Ok(rec)
}

fn apply(rec: &mut Recovery, index: &mut HashMap<u64, usize>, v: &Value) -> Option<()> {
    let m = v.as_map()?;
    let event = map_get(m, "event").ok()?.as_str()?;
    // Coalesced submissions never executed separately; nothing to
    // recover (the primary job carries the work).
    if event == "coalesce" {
        return Some(());
    }
    // Compaction marker: restores the id high-water mark recorded when
    // the journal head was rewritten.
    if event == "compact" {
        let max = u64::from_value(map_get(m, "max_id").ok()?).ok()?;
        rec.max_id = rec.max_id.max(max);
        return Some(());
    }
    if event == "sweep" {
        let id = u64::from_value(map_get(m, "sweep").ok()?).ok()?;
        let jobs: Vec<u64> = map_get(m, "jobs")
            .ok()?
            .as_seq()?
            .iter()
            .map(|j| u64::from_value(j).ok())
            .collect::<Option<_>>()?;
        rec.max_sweep_id = rec.max_sweep_id.max(id);
        rec.sweeps.push((id, jobs));
        return Some(());
    }
    let id = u64::from_value(map_get(m, "job").ok()?).ok()?;
    rec.max_id = rec.max_id.max(id);
    match event {
        "submit" => {
            let spec = JobSpec::from_value(map_get(m, "spec").ok()?).ok()?;
            let fp = map_get(m, "fingerprint").ok()?.as_str()?;
            let fingerprint = u64::from_str_radix(fp, 16).ok()?;
            let sweep = match map_get(m, "sweep") {
                Ok(s) => Some(u64::from_value(s).ok()?),
                Err(_) => None,
            };
            // Outcomes resolve to the first submit of an id.
            index.entry(id).or_insert(rec.jobs.len());
            rec.jobs.push(RecoveredJob {
                id,
                spec,
                fingerprint,
                sweep,
                outcome: RecoveredOutcome::Unfinished,
            });
        }
        // Progress markers: where a job ran is not recovered state.
        "start" | "dispatch" => {}
        "done" => {
            rec.jobs[*index.get(&id)?].outcome = RecoveredOutcome::Done;
        }
        "fail" => {
            let error = map_get(m, "error").ok()?.as_str()?.to_owned();
            rec.jobs[*index.get(&id)?].outcome = RecoveredOutcome::Failed(error);
        }
        _ => return None,
    }
    Some(())
}

/// What [`compact`] did, for operator-facing reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Jobs surviving compaction (all of them — compaction drops
    /// *records*, never jobs).
    pub jobs: usize,
    /// Jobs in a terminal state (done/failed): one submit + one outcome
    /// record each after compaction.
    pub terminal: usize,
    /// Jobs still unfinished: submit record only (they re-queue on
    /// replay, which is safe because the simulator is deterministic).
    pub unfinished: usize,
    /// Non-blank journal lines before / after the rewrite.
    pub lines_before: u64,
    pub lines_after: u64,
    /// Unparseable lines dropped by the rewrite.
    pub skipped: u64,
}

/// Rewrites the journal at `path`, keeping every `sweep` record, one
/// `submit` record per job, and the terminal `done`/`fail` record where
/// one exists. Intermediate `start` and `dispatch` records, `coalesce`
/// markers, corrupt lines, and all superseded history are dropped, so
/// long-lived daemons stop replaying unbounded history on restart.
///
/// The rewrite goes to a temp file in the same directory, is fsync'd,
/// and lands with an atomic rename, so a crash mid-compaction leaves the
/// original journal untouched.
pub fn compact(path: &Path) -> std::io::Result<CompactStats> {
    let rec = recover(path)?;
    let lines_before = match std::fs::read(path) {
        Ok(bytes) => bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.iter().all(u8::is_ascii_whitespace))
            .count() as u64,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e),
    };
    let tmp = path.with_extension("compact-tmp");
    let _ = std::fs::remove_file(&tmp);
    let out = Journal::open(&tmp)?;
    out.compact_marker(rec.max_id);
    for (id, jobs) in &rec.sweeps {
        out.sweep(*id, jobs);
    }
    let mut terminal = 0usize;
    for job in &rec.jobs {
        out.submit(job.id, job.sweep, job.fingerprint, &job.spec);
        match &job.outcome {
            RecoveredOutcome::Done => {
                out.done(job.id);
                terminal += 1;
            }
            RecoveredOutcome::Failed(err) => {
                out.fail(job.id, err);
                terminal += 1;
            }
            RecoveredOutcome::Unfinished => {}
        }
    }
    out.sync_all()?;
    drop(out);
    std::fs::rename(&tmp, path)?;
    Ok(CompactStats {
        jobs: rec.jobs.len(),
        terminal,
        unfinished: rec.jobs.len() - terminal,
        lines_before,
        lines_after: 1 + (rec.sweeps.len() + rec.jobs.len() + terminal) as u64,
        skipped: rec.skipped_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("esteem-journal-{}-{name}", std::process::id()))
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            workload: "gamess".into(),
            seed,
            ..JobSpec::default()
        }
    }

    #[test]
    fn round_trips_all_outcomes() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.submit(1, None, 0xabc, &spec(1));
        j.start(1);
        j.done(1);
        j.submit(2, None, 0xdef, &spec(2));
        j.start(2);
        j.fail(2, "panicked: boom");
        j.submit(3, None, 0x123, &spec(3));
        j.coalesce(3);
        j.submit(5, None, 0x456, &spec(5));
        j.start(5);
        // A coordinator sweep of jobs 6 and 7, dispatched to workers.
        j.submit(6, Some(1), 0x6, &spec(6));
        j.submit(7, Some(1), 0x7, &spec(7));
        j.sweep(1, &[6, 7]);
        j.dispatch(6, "w1");
        j.dispatch(7, "w2");
        j.done(6);
        // Crash here: job 3 queued, job 5 running, job 7 dispatched.
        drop(j);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.max_id, 7);
        assert_eq!(rec.max_sweep_id, 1);
        assert_eq!(rec.sweeps, vec![(1, vec![6, 7])]);
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.jobs.len(), 6);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Done);
        assert_eq!(rec.jobs[0].fingerprint, 0xabc);
        assert_eq!(rec.jobs[0].sweep, None);
        assert_eq!(
            rec.jobs[1].outcome,
            RecoveredOutcome::Failed("panicked: boom".into())
        );
        assert_eq!(rec.jobs[2].outcome, RecoveredOutcome::Unfinished);
        assert_eq!(rec.jobs[3].outcome, RecoveredOutcome::Unfinished);
        assert_eq!(rec.jobs[3].spec.seed, 5);
        assert_eq!(rec.jobs[4].outcome, RecoveredOutcome::Done);
        assert_eq!(rec.jobs[4].sweep, Some(1));
        assert_eq!(rec.jobs[5].outcome, RecoveredOutcome::Unfinished);
        assert_eq!(rec.jobs[5].sweep, Some(1));
        let _ = std::fs::remove_file(&path);
    }

    /// A coordinator journal in the exact format existing journals use
    /// (keys in writer order, `t` last) replays in full, and the writer
    /// still produces those bytes up to the `t` value.
    #[test]
    fn coordinator_journal_format_is_stable() {
        let path = tmp("coord-format.jsonl");
        let s1 = serde_json::to_string(&spec(1).to_value()).unwrap();
        let s2 = serde_json::to_string(&spec(2).to_value()).unwrap();
        let s3 = serde_json::to_string(&spec(3).to_value()).unwrap();
        let body = format!(
            "{{\"event\":\"submit\",\"job\":1,\"sweep\":1,\"fingerprint\":\"000000000000000a\",\"spec\":{s1},\"t\":0}}\n\
             {{\"event\":\"submit\",\"job\":2,\"sweep\":1,\"fingerprint\":\"000000000000000b\",\"spec\":{s2},\"t\":0}}\n\
             {{\"event\":\"sweep\",\"sweep\":1,\"jobs\":[1,2],\"t\":0}}\n\
             {{\"event\":\"submit\",\"job\":3,\"fingerprint\":\"000000000000000c\",\"spec\":{s3},\"t\":0}}\n\
             {{\"event\":\"dispatch\",\"job\":1,\"node\":\"w1\",\"t\":0}}\n\
             {{\"event\":\"dispatch\",\"job\":2,\"node\":\"w2\",\"t\":0}}\n\
             {{\"event\":\"done\",\"job\":1,\"t\":0}}\n\
             {{\"event\":\"fail\",\"job\":2,\"error\":\"boom\",\"t\":0}}\n\
             {{\"event\":\"dispatch\",\"job\":3,\"node\":\"w1\",\"t\":0}}\n"
        );

        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.submit(1, Some(1), 0xa, &spec(1));
        j.submit(2, Some(1), 0xb, &spec(2));
        j.sweep(1, &[1, 2]);
        j.submit(3, None, 0xc, &spec(3));
        j.dispatch(1, "w1");
        j.dispatch(2, "w2");
        j.done(1);
        j.fail(2, "boom");
        j.dispatch(3, "w1");
        drop(j);
        let written: String = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| format!("{},\"t\":0}}\n", &l[..l.rfind(",\"t\":").unwrap()]))
            .collect();
        assert_eq!(written, body, "writer drifted from the on-disk format");

        std::fs::write(&path, body).unwrap();
        let rec = recover(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.max_id, 3);
        assert_eq!(rec.max_sweep_id, 1);
        assert_eq!(rec.sweeps, vec![(1, vec![1, 2])]);
        assert_eq!(rec.jobs.len(), 3);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Done);
        assert_eq!(rec.jobs[0].sweep, Some(1));
        assert_eq!(rec.jobs[0].fingerprint, 0xa);
        assert_eq!(rec.jobs[1].outcome, RecoveredOutcome::Failed("boom".into()));
        assert_eq!(rec.jobs[2].outcome, RecoveredOutcome::Unfinished);
        assert_eq!(rec.jobs[2].sweep, None);
    }

    /// A submit line as the writer produced it while specs still carried
    /// the simulator's refill thread count replays without a skip, and
    /// its spec equals today's default-threaded spec.
    #[test]
    fn legacy_submit_line_with_threads_replays() {
        let path = tmp("legacy-threads.jsonl");
        std::fs::write(
            &path,
            "{\"event\":\"submit\",\"job\":1,\"fingerprint\":\"00000000000000ab\",\
             \"spec\":{\"workload\":\"gamess\",\"technique\":\"esteem\",\"retention_us\":50.0,\
             \"instructions\":10000000,\"alpha\":0.97,\"a_min\":3,\"interval\":10000000,\
             \"rs\":64,\"ecc_periods\":4,\"ecc_bits\":1,\"ways\":4,\"seed\":1,\
             \"threads\":2,\"priority\":1,\"client\":\"anon\"},\"t\":0}\n\
             {\"event\":\"done\",\"job\":1,\"t\":0}\n",
        )
        .unwrap();
        let rec = recover(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].spec, spec(1));
        assert_eq!(rec.jobs[0].fingerprint, 0xab);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Done);
    }

    /// Replay resolves outcome lines by id in O(1): 100k jobs (a submit
    /// and a done line each) recover in a few seconds even unoptimized,
    /// while a per-line scan of the job list (~5e9 id compares here)
    /// takes tens of seconds even in a release build.
    #[test]
    fn recovery_is_linear_in_journal_length() {
        const JOBS: u64 = 100_000;
        let path = tmp("linear.jsonl");
        let spec = serde_json::to_string(&spec(1).to_value()).unwrap();
        let mut body = String::new();
        for id in 1..=JOBS {
            body += &format!(
                "{{\"event\":\"submit\",\"job\":{id},\"fingerprint\":\"{id:016x}\",\"t\":0,\"spec\":{spec}}}\n\
                 {{\"event\":\"done\",\"job\":{id},\"t\":0}}\n"
            );
        }
        std::fs::write(&path, body).unwrap();
        let t0 = std::time::Instant::now();
        let rec = recover(&path).unwrap();
        let elapsed = t0.elapsed();
        let _ = std::fs::remove_file(&path);
        assert_eq!(rec.jobs.len(), JOBS as usize);
        assert_eq!(rec.skipped_lines, 0);
        assert!(rec.jobs.iter().all(|j| j.outcome == RecoveredOutcome::Done));
        assert!(
            elapsed < std::time::Duration::from_secs(15),
            "replaying {JOBS} jobs took {elapsed:?}"
        );
    }

    /// A run-cache hit's pair of lines reads byte-for-byte like a
    /// separate submit and done, and replays as done; torn inside its
    /// done line, the submit alone replays as unfinished.
    #[test]
    fn cached_hit_pair_replays_and_its_torn_tail_requeues() {
        let strip_t = |text: &str| -> Vec<String> {
            text.lines()
                .map(|l| l[..l.rfind(",\"t\":").unwrap()].to_owned())
                .collect()
        };
        let pair = tmp("cached-pair.jsonl");
        let separate = tmp("cached-separate.jsonl");
        let _ = std::fs::remove_file(&pair);
        let _ = std::fs::remove_file(&separate);
        Journal::open(&pair).unwrap().cached(4, None, 0x4, &spec(4));
        let j = Journal::open(&separate).unwrap();
        j.submit(4, None, 0x4, &spec(4));
        j.done(4);
        drop(j);
        let text = std::fs::read_to_string(&pair).unwrap();
        assert_eq!(
            strip_t(&text),
            strip_t(&std::fs::read_to_string(&separate).unwrap())
        );
        let _ = std::fs::remove_file(&separate);

        let rec = recover(&pair).unwrap();
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.max_id, 4);
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].spec, spec(4));
        assert_eq!(rec.jobs[0].fingerprint, 0x4);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Done);

        // Crash mid-write: the done line is cut short.
        let cut = text.rfind("\"job\"").unwrap();
        std::fs::write(&pair, &text[..cut]).unwrap();
        let rec = recover(&pair).unwrap();
        let _ = std::fs::remove_file(&pair);
        assert_eq!(rec.skipped_lines, 1);
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Unfinished);
    }

    #[test]
    fn torn_tail_is_skipped() {
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.submit(1, None, 0x1, &spec(1));
        drop(j);
        // Simulate a crash mid-write of the next record.
        {
            let mut f = std::fs::File::options().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"done\",\"jo").unwrap();
        }
        let rec = recover(&path).unwrap();
        assert_eq!(rec.skipped_lines, 1);
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Unfinished);
        let _ = std::fs::remove_file(&path);
    }

    /// A line clobbered *mid-file* (disk corruption, partial overwrite)
    /// must not abort replay or poison the records after it — including
    /// when the clobber is not valid UTF-8, which used to surface as an
    /// I/O error from `BufRead::lines` and fail the whole recovery.
    #[test]
    fn corrupt_middle_line_is_skipped_and_counted() {
        let path = tmp("midline.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.submit(1, None, 0x1, &spec(1));
        j.done(1);
        j.submit(2, None, 0x2, &spec(2));
        j.done(2);
        drop(j);
        // Clobber line 2 (`done 1`) in place with non-UTF-8 garbage of
        // the same length, preserving the newline.
        let bytes = std::fs::read(&path).unwrap();
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let mut out = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if i == 1 {
                out.extend(vec![0xFF_u8; line.len()]);
            } else {
                out.extend_from_slice(line);
            }
            if i + 1 < lines.len() {
                out.push(b'\n');
            }
        }
        std::fs::write(&path, out).unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.skipped_lines, 1);
        assert_eq!(rec.jobs.len(), 2);
        // Job 1 lost its `done` record: replayed as unfinished (re-queue),
        // which is safe because the simulator is deterministic.
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Unfinished);
        // Job 2's records, after the corruption, still replay fully.
        assert_eq!(rec.jobs[1].outcome, RecoveredOutcome::Done);
        assert_eq!(rec.max_id, 2);
        let _ = std::fs::remove_file(&path);
    }

    /// An event for a job id with no surviving `submit` (e.g. the submit
    /// line was the corrupted one) is skipped, not a panic.
    #[test]
    fn orphan_event_counts_as_skipped() {
        let path = tmp("orphan.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.submit(1, None, 0x1, &spec(1));
        j.done(7);
        j.fail(8, "boom");
        drop(j);
        // An orphan cut mid-write by a crash is a torn tail as well.
        {
            let mut f = std::fs::File::options().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"done\",\"jo").unwrap();
        }
        let rec = recover(&path).unwrap();
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Unfinished);
        assert_eq!(rec.skipped_lines, 3);
        // Orphans still advance the id high-water mark.
        assert_eq!(rec.max_id, 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_keeps_outcomes_and_id_high_water_mark() {
        let path = tmp("compact.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.submit(1, None, 0xa, &spec(1));
        j.start(1);
        j.done(1);
        j.submit(2, Some(1), 0xb, &spec(2));
        j.sweep(1, &[2]);
        j.coalesce(2);
        j.start(2);
        j.fail(2, "boom");
        j.submit(3, Some(2), 0xc, &spec(3));
        j.sweep(2, &[3]);
        j.dispatch(3, "w1");
        j.start(3);
        // Job 9 exists only as an orphaned done record (its submit line
        // was lost) — compaction drops it but must keep max_id = 9.
        j.done(9);
        drop(j);
        let stats = compact(&path).unwrap();
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.terminal, 2);
        assert_eq!(stats.unfinished, 1);
        assert_eq!(stats.lines_before, 13);
        // marker + 2 sweeps + 3 submits + 2 outcomes
        assert_eq!(stats.lines_after, 8);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.max_id, 9);
        assert_eq!(rec.sweeps, vec![(1, vec![2]), (2, vec![3])]);
        assert_eq!(rec.max_sweep_id, 2);
        assert_eq!(rec.jobs[2].sweep, Some(2));
        assert_eq!(rec.jobs.len(), 3);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Done);
        assert_eq!(rec.jobs[1].outcome, RecoveredOutcome::Failed("boom".into()));
        assert_eq!(rec.jobs[2].outcome, RecoveredOutcome::Unfinished);
        assert_eq!(rec.jobs[0].fingerprint, 0xa);
        // Compaction is idempotent.
        let stats2 = compact(&path).unwrap();
        assert_eq!(stats2.lines_after, stats.lines_after);
        assert_eq!(stats2.lines_before, stats.lines_after);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_corrupt_lines() {
        let path = tmp("compact-corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.submit(1, None, 0x1, &spec(1));
        j.done(1);
        drop(j);
        {
            let mut f = std::fs::File::options().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"done\",\"jo").unwrap();
        }
        let stats = compact(&path).unwrap();
        assert_eq!(stats.skipped, 1);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.jobs.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compacting_a_missing_journal_fails_cleanly() {
        // recover() treats missing as empty, but compaction of a path
        // that never existed still writes an empty compacted journal.
        let path = tmp("compact-missing.jsonl");
        let _ = std::fs::remove_file(&path);
        let stats = compact(&path).unwrap();
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.lines_after, 1);
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_empty_recovery() {
        let rec = recover(Path::new("/nonexistent/esteem-journal.jsonl")).unwrap();
        assert!(rec.jobs.is_empty());
        assert_eq!(rec.max_id, 0);
    }

    #[test]
    fn disabled_journal_is_a_no_op() {
        let j = Journal::none();
        j.submit(1, None, 0x1, &spec(1));
        j.done(1);
    }

    #[test]
    fn reopen_appends_rather_than_truncates() {
        let path = tmp("append.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            j.submit(1, None, 0x1, &spec(1));
        }
        {
            let j = Journal::open(&path).unwrap();
            j.done(1);
        }
        let rec = recover(&path).unwrap();
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Done);
        let _ = std::fs::remove_file(&path);
    }
}
