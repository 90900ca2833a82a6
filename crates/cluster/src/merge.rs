//! Journal merge: folds per-node worker journals into one recoverable
//! view of the cluster's work.
//!
//! Each worker keeps its own crash-safe journal (see
//! [`esteem_serve::journal`]). After a sweep — or after losing the
//! coordinator — the union of those journals is the ground truth of
//! what ran where. Jobs are keyed by run-cache *fingerprint*, not job
//! id: ids are per-node counters and collide across nodes, while the
//! fingerprint identifies the work itself, so a job re-dispatched after
//! a node death shows up as one logical entry with multiple attempts.
//!
//! Outcome precedence is `Done > Failed > Unfinished`: the simulator is
//! deterministic, so any node finishing a cell proves the cell done; a
//! `Failed`/`Done` disagreement for the same fingerprint is recorded as
//! a conflict (it indicates non-determinism or version skew and must
//! not pass silently).

use std::collections::HashMap;
use std::path::Path;

use esteem_serve::journal::{recover, RecoveredOutcome};
use serde::{Serialize, Value};

/// One logical job in the merged view.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedJob {
    pub fingerprint: u64,
    pub workload: String,
    /// `(node, outcome-name)` per attempt, in input-node order.
    pub attempts: Vec<(String, &'static str)>,
    /// Folded outcome under Done > Failed > Unfinished.
    pub outcome: &'static str,
    /// Error text of the first failed attempt, if any.
    pub error: Option<String>,
}

/// The merged cluster view.
#[derive(Debug, Default)]
pub struct MergedView {
    /// Fingerprint-keyed jobs in first-seen order.
    pub jobs: Vec<MergedJob>,
    /// Corrupt lines skipped across all inputs.
    pub skipped_lines: u64,
    /// Fingerprints where one node reported Done and another Failed.
    pub conflicts: Vec<u64>,
}

fn outcome_name(o: &RecoveredOutcome) -> &'static str {
    match o {
        RecoveredOutcome::Done => "done",
        RecoveredOutcome::Failed(_) => "failed",
        RecoveredOutcome::Unfinished => "unfinished",
    }
}

fn rank(name: &str) -> u8 {
    match name {
        "done" => 2,
        "failed" => 1,
        _ => 0,
    }
}

/// Merges `(node name, journal path)` pairs into one view.
pub fn merge_journals(inputs: &[(String, &Path)]) -> std::io::Result<MergedView> {
    let mut view = MergedView::default();
    let mut index: HashMap<u64, usize> = HashMap::new();
    for (node, path) in inputs {
        let rec = recover(path)?;
        view.skipped_lines += rec.skipped_lines;
        for job in rec.jobs {
            let name = outcome_name(&job.outcome);
            let slot = *index.entry(job.fingerprint).or_insert_with(|| {
                view.jobs.push(MergedJob {
                    fingerprint: job.fingerprint,
                    workload: job.spec.workload.clone(),
                    attempts: Vec::new(),
                    outcome: "unfinished",
                    error: None,
                });
                view.jobs.len() - 1
            });
            let merged = &mut view.jobs[slot];
            merged.attempts.push((node.clone(), name));
            // Done vs Failed on the same work is a determinism violation.
            let terminal_disagrees = (merged.outcome == "done" && name == "failed")
                || (merged.outcome == "failed" && name == "done");
            if terminal_disagrees && !view.conflicts.contains(&job.fingerprint) {
                view.conflicts.push(job.fingerprint);
            }
            if rank(name) > rank(merged.outcome) {
                merged.outcome = name;
            }
            if let (None, RecoveredOutcome::Failed(e)) = (&merged.error, &job.outcome) {
                merged.error = Some(e.clone());
            }
        }
    }
    Ok(view)
}

impl MergedView {
    /// Counts by folded outcome: (done, failed, unfinished).
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for j in &self.jobs {
            match j.outcome {
                "done" => t.0 += 1,
                "failed" => t.1 += 1,
                _ => t.2 += 1,
            }
        }
        t
    }

    /// JSON rendering for `esteem-coord merge`.
    pub fn to_value(&self) -> Value {
        let (done, failed, unfinished) = self.totals();
        Value::Map(vec![
            (
                "jobs".into(),
                Value::Seq(
                    self.jobs
                        .iter()
                        .map(|j| {
                            let mut m = vec![
                                (
                                    "fingerprint".into(),
                                    Value::Str(format!("{:016x}", j.fingerprint)),
                                ),
                                ("workload".into(), Value::Str(j.workload.clone())),
                                ("outcome".into(), Value::Str(j.outcome.into())),
                                (
                                    "attempts".into(),
                                    Value::Seq(
                                        j.attempts
                                            .iter()
                                            .map(|(node, o)| {
                                                Value::Map(vec![
                                                    ("node".into(), Value::Str(node.clone())),
                                                    ("outcome".into(), Value::Str((*o).into())),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ];
                            if let Some(e) = &j.error {
                                m.push(("error".into(), Value::Str(e.clone())));
                            }
                            Value::Map(m)
                        })
                        .collect(),
                ),
            ),
            ("done".into(), done.to_value()),
            ("failed".into(), failed.to_value()),
            ("unfinished".into(), unfinished.to_value()),
            ("skipped_lines".into(), self.skipped_lines.to_value()),
            (
                "conflicts".into(),
                Value::Seq(
                    self.conflicts
                        .iter()
                        .map(|fp| Value::Str(format!("{fp:016x}")))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esteem_serve::{JobSpec, Journal};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("esteem-merge-{}-{name}", std::process::id()))
    }

    fn spec(workload: &str) -> JobSpec {
        JobSpec {
            workload: workload.into(),
            ..JobSpec::default()
        }
    }

    #[test]
    fn merges_two_nodes_with_redispatch_under_done_precedence() {
        let p1 = tmp("w1.jsonl");
        let p2 = tmp("w2.jsonl");
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
        {
            let j = Journal::open(&p1).unwrap();
            j.submit(1, None, 0xaa, &spec("gamess"));
            j.done(1);
            // Fingerprint 0xbb dispatched here but the node died.
            j.submit(2, None, 0xbb, &spec("mcf"));
        }
        {
            let j = Journal::open(&p2).unwrap();
            // Re-dispatched 0xbb finished on the second node.
            j.submit(1, None, 0xbb, &spec("mcf"));
            j.done(1);
        }
        let view = merge_journals(&[("w1".into(), &p1), ("w2".into(), &p2)]).unwrap();
        assert_eq!(view.jobs.len(), 2);
        assert_eq!(view.totals(), (2, 0, 0));
        assert!(view.conflicts.is_empty());
        let bb = view.jobs.iter().find(|j| j.fingerprint == 0xbb).unwrap();
        assert_eq!(bb.outcome, "done");
        assert_eq!(
            bb.attempts,
            vec![("w1".into(), "unfinished"), ("w2".into(), "done")]
        );
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn done_failed_disagreement_is_a_conflict() {
        let p1 = tmp("c1.jsonl");
        let p2 = tmp("c2.jsonl");
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
        {
            let j = Journal::open(&p1).unwrap();
            j.submit(1, None, 0xcc, &spec("gamess"));
            j.done(1);
        }
        {
            let j = Journal::open(&p2).unwrap();
            j.submit(1, None, 0xcc, &spec("gamess"));
            j.fail(1, "boom");
        }
        let view = merge_journals(&[("w1".into(), &p1), ("w2".into(), &p2)]).unwrap();
        assert_eq!(view.conflicts, vec![0xcc]);
        // Done still wins the fold; the conflict flags the investigation.
        assert_eq!(view.jobs[0].outcome, "done");
        assert_eq!(view.jobs[0].error.as_deref(), Some("boom"));
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }
}
