//! Incremental collection: an adaptive search simulates every proposed
//! point, and every baseline behind them, exactly once — not the whole
//! cumulative proposal set each round — and still returns the collection
//! a one-shot campaign over the proposed points would.
//!
//! One `#[test]` in its own binary: `cloudsim::arena::stats()` counts runs
//! process-wide, so no other test may simulate while the deltas are read.

use acic::training::CollectOptions;
use acic::{Objective, Trainer};
use acic_fsim::FaultPlan;
use acic_search::{run_search, Budget, SearchConfig, Strategy};

#[test]
fn search_simulates_each_point_and_baseline_once() {
    let plain = Trainer::with_paper_ranking(20131117);
    let faulted =
        Trainer::with_paper_ranking(20131117).with_faults(FaultPlan::papers_observed_rate());
    for (label, t) in [("plain", plain), ("faulted", faulted)] {
        let points = t.sample_points(5);
        let cfg = SearchConfig::new(
            Strategy::Bandit,
            Budget::measurements(30).with_batch(4),
            Objective::Performance,
        );
        let before = acic_cloudsim::arena::stats().runs;
        let out = run_search(&t, &points, &cfg).unwrap();
        let search_runs = acic_cloudsim::arena::stats().runs - before;
        assert!(out.plan.rounds.len() > 2, "{label}: the search must span several rounds");

        let union: Vec<usize> = {
            let mut ixs: Vec<usize> =
                out.plan.rounds.iter().flat_map(|r| r.proposed.iter().copied()).collect();
            ixs.sort_unstable();
            ixs
        };
        let before = acic_cloudsim::arena::stats().runs;
        let once = t
            .collect_with(&points, &CollectOptions { subset: Some(&union), ..Default::default() })
            .unwrap();
        let once_runs = acic_cloudsim::arena::stats().runs - before;

        assert_eq!(out.collection.db.to_text(), once.db.to_text(), "{label}: database");
        assert_eq!(out.collection.report, once.report, "{label}: report");
        assert!(once_runs >= (union.len() + once.report.baseline_runs) as u64, "{label}");
        assert_eq!(
            search_runs, once_runs,
            "{label}: the search must simulate each point and baseline exactly once"
        );
    }
}
