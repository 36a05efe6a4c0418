//! A search's `--report` counters describe the work the search did.  Each
//! round collects the cumulative proposal set, and its collection counts
//! only the points and baselines it resolves first, so nothing is counted
//! twice — with or without a journal, which hands every earlier round's
//! points back to the next round.  This file holds one test, so the
//! process-wide simulator-run counter sees only these searches' runs.

use acic::{Metrics, Objective, Trainer};
use acic_search::{run_search, Budget, SearchConfig, SearchOutcome, Strategy};
use std::fs;
use std::path::{Path, PathBuf};

const COUNTERS: [&str; 10] = [
    "train.points.attempted",
    "train.points.completed",
    "train.points.resumed",
    "train.points.skipped",
    "train.runs.retried",
    "train.runs.aborted",
    "train.faults.tolerated",
    "train.baseline.runs",
    "train.db.points",
    "search.store_hits",
];

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

/// One bandit search of three rounds of three, with its metrics and the
/// simulator runs it made.
fn search(t: &Trainer, journal: Option<&Path>) -> (SearchOutcome, Metrics, u64) {
    let points = t.sample_points(3);
    let m = Metrics::new();
    let cfg = SearchConfig {
        metrics: Some(&m),
        journal,
        ..SearchConfig::new(
            Strategy::Bandit,
            Budget::measurements(9).with_batch(3),
            Objective::Performance,
        )
    };
    let before = acic_cloudsim::arena::stats().runs;
    let out = run_search(t, &points, &cfg).unwrap();
    let sim_runs = acic_cloudsim::arena::stats().runs - before;
    (out, m, sim_runs)
}

#[test]
fn search_report_counts_each_simulator_run_once() {
    let t = Trainer::with_paper_ranking(7);

    let (out, m, sim_runs) = search(&t, None);
    let report = &out.collection.report;
    assert!(out.plan.rounds.len() >= 3, "three rounds of three");
    assert_eq!(m.counter("sim.arena.runs"), sim_runs, "the search's simulator runs");
    assert_eq!(m.counter("train.points.completed"), report.completed as u64);
    assert_eq!(m.counter("train.baseline.runs"), report.baseline_runs as u64);
    assert_eq!(m.counter("search.measurements"), out.plan.measurements() as u64);

    // A fresh journal: every later round reloads the points the earlier
    // rounds journaled, yet this session simulated them all, so the
    // counters are the unjournaled search's and nothing reads `resumed`.
    let path = tmp("report-counters.journal");
    let (journaled, jm, journaled_runs) = search(&t, Some(&path));
    assert_eq!(journaled.plan.render(), out.plan.render());
    assert_eq!(journaled_runs, sim_runs);
    assert_eq!(jm.counter("sim.arena.runs"), journaled_runs);
    for name in COUNTERS {
        assert_eq!(jm.counter(name), m.counter(name), "{name}");
    }
    assert_eq!(jm.counter("train.points.resumed"), 0);
    assert_eq!(jm.counter("train.points.completed"), report.planned as u64);

    // Resumed from half of that journal: the points it still holds are
    // `resumed`, the rest `completed`, each counted once.
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let (resumed, rm, resumed_runs) = search(&t, Some(&path));
    assert_eq!(resumed.plan.render(), out.plan.render());
    assert_eq!(rm.counter("sim.arena.runs"), resumed_runs);
    assert!(resumed_runs < sim_runs, "the journal saved runs");
    let (done, again) = (rm.counter("train.points.completed"), rm.counter("train.points.resumed"));
    assert!(again > 0 && done > 0, "{again} resumed, {done} completed");
    assert_eq!(done + again, report.planned as u64);
    assert_eq!(rm.counter("train.points.attempted"), done);
    assert_eq!(rm.counter("train.db.points"), report.planned as u64);
    fs::remove_file(&path).unwrap();
}
