//! PB-guided space walking — the low-training-budget predictor (paper
//! §4.3) — plus the random-walk strawman it is compared against in
//! Figure 9.
//!
//! The walk is the triple ⟨S, s0, δ⟩: S is the *system* configuration
//! space, s0 the baseline configuration, and δ the greedy strategy that
//! walks the system dimensions in PB-rank order, sampling each dimension's
//! values with real (here: simulated) IOR runs of the target application's
//! characteristics and fixing the best value before moving on.
//!
//! The same ⟨S, s0, δ⟩ machinery seeds the adaptive campaign planners of
//! [`crate::planner`]: [`opening_book`] orders a *grid* of points by their
//! distance from s0 in perturbed dimensions — single-dimension probes
//! first, exactly the order δ explores — giving every planner a shared
//! deterministic cold-start order.  (This module moved here from
//! `acic::walk` so Figure 9 and the planners share one code path.)

use acic::space::{AppPoint, ParamId, SpacePoint, SystemConfig};
use acic::{AcicError, Objective};
use acic_cloudsim::rng::SplitMix64;
use acic_iobench::run_ior;

/// Result of one walk.
#[derive(Debug, Clone)]
pub struct WalkOutcome {
    /// The configuration the walk settled on.
    pub config: SystemConfig,
    /// IOR test runs spent (the walk's training budget).
    pub runs: usize,
    /// Simulated money spent on those runs, USD.
    pub cost_usd: f64,
    /// The best observed metric along the walk (lower is better).
    pub best_metric: f64,
    /// Candidates whose measurement errored or returned a non-finite
    /// metric.  Such candidates can never be fixed as a dimension's "best"
    /// — the walk keeps the incumbent value and moves on, so a dimension
    /// whose every candidate fails degrades to a no-op instead of
    /// poisoning the result or aborting the whole walk.
    pub skipped: usize,
}

/// The system-side dimensions in walking order for the given ranking
/// (non-system parameters in the ranking are skipped — the application
/// half is fixed by the query).
fn system_dims(ranking: &[ParamId]) -> Vec<ParamId> {
    ranking.iter().copied().filter(|p| p.is_system()).collect()
}

/// Evaluate one candidate with an IOR run of the app's characteristics.
fn measure(
    system: &SystemConfig,
    app: &AppPoint,
    objective: Objective,
    seed: u64,
) -> Result<(f64, f64), AcicError> {
    let report = run_ior(&system.to_io_system(app.nprocs), &app.to_ior(), seed)?;
    Ok((objective.metric(&report), report.cost))
}

/// Walk the system configuration space in the order given by `ranking`
/// (PB-guided when the ranking comes from the reducer; any order works,
/// which is how the random walk reuses this).
pub fn guided_walk(
    ranking: &[ParamId],
    app: &AppPoint,
    objective: Objective,
    seed: u64,
) -> Result<WalkOutcome, AcicError> {
    walk_with(ranking, app, objective, seed, &mut measure)
}

/// A walk's measurement function: `(system, app, objective, seed)` to
/// `(metric, cost)`.
pub type Measure<'a> =
    dyn FnMut(&SystemConfig, &AppPoint, Objective, u64) -> Result<(f64, f64), AcicError> + 'a;

/// The walk engine with an injectable measurement function (tests use
/// this to exercise failing candidates without a failable simulator).
///
/// Failure policy: the baseline (s0) measurement must succeed with a
/// finite metric — there is nothing to anchor the walk otherwise, so it
/// fails with a typed error.  Candidate failures (errors or non-finite
/// metrics) only skip that candidate: the dimension keeps its incumbent
/// value, `skipped` counts the loss, and the walk continues.  A
/// non-finite metric can therefore never be fixed as a "best" value.
pub fn walk_with(
    ranking: &[ParamId],
    app: &AppPoint,
    objective: Objective,
    seed: u64,
    measure: &mut Measure,
) -> Result<WalkOutcome, AcicError> {
    let app = app.normalized();
    let mut current = SystemConfig::baseline();
    let mut runs = 0usize;
    let mut cost = 0.0f64;
    let mut skipped = 0usize;

    // Baseline measurement anchors the walk (s0).
    let (mut best_metric, c0) = measure(&current, &app, objective, seed)?;
    if !best_metric.is_finite() {
        return Err(AcicError::Invalid(format!(
            "baseline measurement produced a non-finite {objective:?} metric ({best_metric}); \
             the walk has no anchor"
        )));
    }
    runs += 1;
    cost += c0;

    for dim in system_dims(ranking) {
        // Sample every value of this dimension with the rest held fixed.
        // The walk constructs configurations dimension-wise rather than
        // drawing from the enumerated grid, so it deliberately does not go
        // through `CandidateMatrix` — its `valid_for` checks are on points
        // the matrix's fixed universe need not contain.
        let mut best_here = current;
        for index in 0..dim.value_count() {
            let mut p = SpacePoint { system: current, app };
            dim.apply(index, &mut p);
            let candidate = p.system.normalized();
            if candidate == current || !candidate.valid_for(app.nprocs) {
                continue;
            }
            match measure(&candidate, &app, objective, seed.wrapping_add(runs as u64)) {
                Ok((metric, run_cost)) if metric.is_finite() => {
                    runs += 1;
                    cost += run_cost;
                    if metric < best_metric {
                        best_metric = metric;
                        best_here = candidate;
                    }
                }
                Ok((_, run_cost)) => {
                    // The run happened (and is paid for) but its metric is
                    // unusable; it must not win the dimension.
                    runs += 1;
                    cost += run_cost;
                    skipped += 1;
                }
                Err(_) => skipped += 1,
            }
        }
        current = best_here;
    }

    Ok(WalkOutcome { config: current, runs, cost_usd: cost, best_metric, skipped })
}

/// One random-ordering walk (Figure 9's strawman): the same greedy
/// procedure over a uniformly shuffled dimension order.
pub fn random_walk(
    app: &AppPoint,
    objective: Objective,
    seed: u64,
) -> Result<WalkOutcome, AcicError> {
    let mut order = ParamId::ALL.to_vec();
    let mut rng = SplitMix64::new(seed);
    rng.shuffle(&mut order);
    guided_walk(&order, app, objective, rng.next_u64())
}

/// The walk's ⟨S, s0, δ⟩ ordering generalized to an enumerated grid: rank
/// every row by how many feature coordinates differ from the s0 row
/// (bit-exact comparison, ties broken by grid index, which inherits the
/// PB-rank odometer order of `Trainer::sample_points`).  Rows perturbing a
/// single dimension come first — the opening book every planner uses
/// before it has observations to learn from.
pub fn opening_book(rows: &[Vec<f64>], s0: &[f64]) -> Vec<usize> {
    let diffs: Vec<usize> = rows
        .iter()
        .map(|r| {
            r.iter()
                .zip(s0)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count()
        })
        .collect();
    let mut ix: Vec<usize> = (0..rows.len()).collect();
    ix.sort_by_key(|&i| (diffs[i], i));
    ix
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::Trainer;
    use acic_cloudsim::units::mib;

    fn app() -> AppPoint {
        let mut a = SpacePoint::default_point().app;
        a.data_size = mib(128.0);
        a.collective = true;
        a
    }

    #[test]
    fn walk_never_loses_to_the_baseline() {
        let ranking = Trainer::with_paper_ranking(0).ranking;
        let w = guided_walk(&ranking, &app(), Objective::Performance, 3).unwrap();
        let (baseline_metric, _) =
            measure(&SystemConfig::baseline(), &app(), Objective::Performance, 3).unwrap();
        assert!(
            w.best_metric <= baseline_metric,
            "greedy walk must end at least as good as s0"
        );
        assert!(w.config.valid_for(64));
    }

    #[test]
    fn walk_budget_is_linear_in_dimensions() {
        let ranking = Trainer::with_paper_ranking(0).ranking;
        let w = guided_walk(&ranking, &app(), Objective::Cost, 5).unwrap();
        // 6 system dims with 2–3 values each: far under the 28-candidate
        // exhaustive sweep.  When the walk stays on NFS, the server-count
        // and stripe dimensions collapse (normalization makes their
        // candidates equal the current config), so as few as 5 runs
        // suffice; the ceiling is 1 + Σ over dims of (values − 1) + the
        // extra NFS→PVFS2 probes ≈ 12.
        assert!(w.runs >= 5 && w.runs <= 14, "runs = {}", w.runs);
        assert!(w.cost_usd > 0.0);
    }

    #[test]
    fn random_walks_vary_with_seed() {
        let a = app();
        let outcomes: Vec<String> = (0..6)
            .map(|s| random_walk(&a, Objective::Performance, s).unwrap().config.notation())
            .collect();
        let distinct: std::collections::BTreeSet<&String> = outcomes.iter().collect();
        // Not a hard guarantee, but over 6 seeds the orderings should not
        // all collapse to one answer in a space with real trade-offs.
        assert!(!distinct.is_empty());
    }

    #[test]
    fn erroring_candidates_skip_instead_of_aborting_or_winning() {
        // Pre-fix, guided_walk propagated any candidate measurement error
        // with `?`, aborting the entire walk.  Now a dimension whose every
        // candidate fails must degrade to a no-op: baseline config kept,
        // baseline metric intact, failures counted.
        let ranking = Trainer::with_paper_ranking(0).ranking;
        let a = app();
        let baseline = SystemConfig::baseline();
        let mut failures = 0usize;
        let w = walk_with(&ranking, &a, Objective::Performance, 3, &mut |sys, app, obj, seed| {
            if *sys == SystemConfig::baseline() {
                measure(sys, app, obj, seed)
            } else {
                failures += 1;
                Err(AcicError::Invalid("injected candidate failure".into()))
            }
        })
        .unwrap();
        assert_eq!(w.config, baseline, "no candidate may win via a failed measurement");
        assert_eq!(w.runs, 1, "only the baseline ran");
        assert!(w.skipped > 0 && w.skipped == failures);
        assert!(w.best_metric.is_finite());
    }

    #[test]
    fn nan_candidates_never_fix_a_bogus_best() {
        // A NaN metric compares false against everything; pre-fix it was
        // silently dropped without being counted, and an all-NaN dimension
        // left no trace.  It must be counted as skipped and never win.
        let ranking = Trainer::with_paper_ranking(0).ranking;
        let a = app();
        let w = walk_with(&ranking, &a, Objective::Performance, 3, &mut |sys, app, obj, seed| {
            if *sys == SystemConfig::baseline() {
                measure(sys, app, obj, seed)
            } else {
                Ok((f64::NAN, 0.01))
            }
        })
        .unwrap();
        assert_eq!(w.config, SystemConfig::baseline());
        assert!(w.best_metric.is_finite(), "NaN leaked into best_metric");
        assert!(w.skipped > 0);
        assert!(w.runs > 1, "NaN runs still happened and are paid for");
    }

    #[test]
    fn non_finite_baseline_is_a_typed_error() {
        let ranking = Trainer::with_paper_ranking(0).ranking;
        let a = app();
        let err = walk_with(&ranking, &a, Objective::Performance, 3, &mut |_, _, _, _| {
            Ok((f64::NAN, 0.0))
        })
        .unwrap_err();
        match err {
            AcicError::Invalid(msg) => assert!(msg.contains("anchor"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn clean_walks_report_zero_skips() {
        let ranking = Trainer::with_paper_ranking(0).ranking;
        let w = guided_walk(&ranking, &app(), Objective::Performance, 3).unwrap();
        assert_eq!(w.skipped, 0);
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let ranking = Trainer::with_paper_ranking(0).ranking;
        let a = app();
        let w1 = guided_walk(&ranking, &a, Objective::Performance, 9).unwrap();
        let w2 = guided_walk(&ranking, &a, Objective::Performance, 9).unwrap();
        assert_eq!(w1.config, w2.config);
        assert_eq!(w1.runs, w2.runs);
    }

    #[test]
    fn opening_book_orders_by_perturbation_count_then_index() {
        let s0 = vec![0.0, 0.0, 0.0];
        let rows = vec![
            vec![1.0, 1.0, 1.0], // 3 diffs
            vec![0.0, 0.0, 0.0], // 0 diffs (s0 itself)
            vec![0.0, 1.0, 0.0], // 1 diff
            vec![1.0, 0.0, 0.0], // 1 diff
            vec![1.0, 1.0, 0.0], // 2 diffs
        ];
        assert_eq!(opening_book(&rows, &s0), vec![1, 2, 3, 4, 0]);
    }
}
