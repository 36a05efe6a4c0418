//! The training database and the IOR-driven trainer.
//!
//! "Rather than case-by-case learning/prediction, we enable reusable
//! training by adopting a generic synthetic I/O benchmark and
//! systematically sampling the parameter space" (paper §1).  Each training
//! point records the *improvement over the baseline configuration* rather
//! than an absolute metric, which is what lets IOR training transfer to
//! applications that report performance differently (§4.2).
//!
//! Collection is fault-tolerant and restartable (§5.6 observation 5: the
//! authors lost I/O-server connections about hourly during training).  The
//! trainer carries a [`FaultPlan`] and a [`RetryPolicy`]; aborted runs are
//! retried on deterministic derived seeds with exponential-backoff
//! *accounting*, unsalvageable points are skipped and recorded in a
//! [`CollectionReport`], and an optional append-only journal
//! ([`crate::journal`]) checkpoints every finished point so a killed
//! campaign resumes bit-identically.

use crate::commit::CommitConfig;
use crate::error::AcicError;
use crate::features::encode;
use crate::journal::{self, CampaignId, JournalEntry, JournalWriter};
use crate::objective::Objective;
use crate::obs::Metrics;
use crate::resilience::{Collection, CollectionReport, PointProvenance, RetryPolicy, SkippedPoint};
use crate::space::{AppPoint, ParamId, SpacePoint, SystemConfig};
use acic_cart::Dataset;
use acic_cloudsim::error::CloudSimError;
use acic_cloudsim::pricing::CostModel;
use acic_cloudsim::rng::SplitMix64;
use acic_fsim::{FaultPlan, IoSystem};
use acic_iobench::{run_ior_faulted, IorConfig, IorReport};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;

/// One training observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingPoint {
    /// System half of the sampled point.
    pub system: SystemConfig,
    /// Application half of the sampled point.
    pub app: AppPoint,
    /// `baseline_time / this_time` (higher is better; eq. (2)).
    pub perf_improvement: f64,
    /// `baseline_cost / this_cost` (higher is better).
    pub cost_improvement: f64,
}

/// The (shareable, incrementally growable) training database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingDb {
    /// All observations.
    pub points: Vec<TrainingPoint>,
    /// Simulated wall-clock spent collecting, seconds (the "dozens to
    /// hundreds of hours" of §2; includes retry waste and backoff when
    /// faults are injected).
    pub collect_secs: f64,
    /// Simulated money spent collecting, USD (Figure 8's right axis).
    pub collect_cost_usd: f64,
}

impl TrainingDb {
    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no observations have been collected.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Incremental training: fold another database in (user-contributed
    /// data points, §2 "expandability").
    pub fn merge(&mut self, other: TrainingDb) {
        self.points.extend(other.points);
        self.collect_secs += other.collect_secs;
        self.collect_cost_usd += other.collect_cost_usd;
    }

    /// Data aging (§2: "deal with cloud hardware/software upgrades with
    /// common data aging methods"): keep only the newest `keep` points.
    pub fn age_to(&mut self, keep: usize) {
        if self.points.len() > keep {
            self.points.drain(0..self.points.len() - keep);
        }
    }

    /// Materialize as a CART dataset for the given objective.
    pub fn to_dataset(&self, objective: Objective) -> Dataset {
        let mut d = Dataset::new(crate::features::schema());
        for p in &self.points {
            let target = match objective {
                Objective::Performance => p.perf_improvement,
                Objective::Cost => p.cost_improvement,
            };
            d.push(encode(&p.system, &p.app), target);
        }
        d
    }
}

/// Options controlling a collection campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectOptions<'a> {
    /// Checkpoint journal: created when the file is absent, resumed when
    /// present (the resumed campaign must be identical — same seed, point
    /// list, fault plan, and retry policy).
    pub journal: Option<&'a Path>,
    /// Observability sink for counters and time accounting.
    pub metrics: Option<&'a Metrics>,
    /// Return the first unrecoverable point's error instead of recording
    /// skips (the legacy `collect_points` behavior).
    pub strict: bool,
    /// Collect only these indices of `points` (adaptive planners measure
    /// batches through this).  The campaign identity — and therefore every
    /// per-point seed and journal fingerprint — stays that of the *full*
    /// point list, so a subset measurement is bit-identical to the same
    /// point measured by an exhaustive campaign.  `None` collects all.
    pub subset: Option<&'a [usize]>,
    /// Lookup-before-measure: points whose canonical configuration key is
    /// already in the durable store are answered from it (zero simulated
    /// runs, no baseline) instead of re-simulated.  Store hits are counted
    /// in [`CollectionReport::store_hits`] and never journaled — resuming
    /// a campaign therefore requires the same store, which re-answers them
    /// identically.
    pub lookup: Option<&'a crate::store::SampleLookup>,
    /// How the journal's writer plane commits: entries are coalesced into
    /// groups of up to `commit.batch` whole lines per flush (`batch = 1`
    /// is the per-point oracle).  Journal bytes are identical at every
    /// batch size; only durability amortization changes.
    pub commit: CommitConfig,
}

/// Collects training data by running the IOR workalike over PB-guided
/// samples of the exploration space.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Parameter importance order; training sweeps the first `top_n` of
    /// these and leaves the rest at their defaults.
    pub ranking: Vec<ParamId>,
    /// Root seed for per-run jitter.
    pub seed: u64,
    /// Failure injection applied to every simulated run (off by default).
    pub faults: FaultPlan,
    /// Retry/skip policy for failed runs.
    pub retry: RetryPolicy,
}

impl Trainer {
    /// A trainer with an explicit ranking, no fault injection, and the
    /// default retry policy.
    pub fn new(ranking: Vec<ParamId>, seed: u64) -> Self {
        Self { ranking, seed, faults: FaultPlan::NONE, retry: RetryPolicy::DEFAULT }
    }

    /// A trainer using the paper's published Table 1 ranking.
    pub fn with_paper_ranking(seed: u64) -> Self {
        let mut ranking = ParamId::ALL.to_vec();
        ranking.sort_by_key(|p| p.paper_rank());
        Self::new(ranking, seed)
    }

    /// Inject failures into every collection run (paper §5.6 obs 5).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the retry/skip policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The sampled grid over the `top_n` most important parameters
    /// (deduplicated after normalization, invalid points dropped).
    pub fn sample_points(&self, top_n: usize) -> Vec<SpacePoint> {
        let dims: Vec<ParamId> = self.ranking.iter().copied().take(top_n).collect();
        let mut points = Vec::new();
        let mut counters = vec![0usize; dims.len()];
        loop {
            let mut p = SpacePoint::default_point();
            for (d, &ix) in dims.iter().zip(&counters) {
                d.apply(ix, &mut p);
            }
            let p = p.normalized();
            if p.is_valid() {
                points.push(p);
            }
            // Odometer increment over the per-dimension value counts.
            let mut carry = true;
            for (d, c) in dims.iter().zip(counters.iter_mut()) {
                if !carry {
                    break;
                }
                *c += 1;
                if *c == d.value_count() {
                    *c = 0;
                } else {
                    carry = false;
                }
            }
            if carry {
                break;
            }
        }
        dedup_points(points)
    }

    /// Run the sampled grid and build the database.  Every sampled point
    /// and its baseline run execute on the simulated cloud; collection
    /// time/money are accumulated from both.
    pub fn collect(&self, top_n: usize) -> Result<TrainingDb, AcicError> {
        let points = self.sample_points(top_n);
        self.collect_points(&points)
    }

    /// Run an explicit list of points (used for incremental contributions).
    /// Fails fast on the first unrecoverable point.
    pub fn collect_points(&self, points: &[SpacePoint]) -> Result<TrainingDb, AcicError> {
        let opts = CollectOptions { strict: true, ..Default::default() };
        Ok(self.collect_with(points, &opts)?.db)
    }

    /// The identity of a campaign over `points`: the root seed, the point
    /// list, and the fault/retry configuration (anything that changes the
    /// collected bits changes the fingerprint).
    pub fn campaign_id(&self, points: &[SpacePoint]) -> CampaignId {
        let mut words: Vec<u64> = vec![
            self.seed,
            self.faults.phase_fail_prob.to_bits(),
            self.faults.retry_penalty_secs.to_bits(),
            self.faults.abort_prob.to_bits(),
            u64::from(self.retry.max_retries),
            self.retry.backoff_base_secs.to_bits(),
            self.retry.backoff_factor.to_bits(),
            self.retry.point_budget_secs.to_bits(),
            points.len() as u64,
        ];
        for p in points {
            words.extend(point_bits(p));
        }
        CampaignId { seed: self.seed, points: points.len(), fingerprint: fnv1a(&words) }
    }

    /// The full fault-tolerant collection engine: run `points` under the
    /// trainer's fault plan with bounded deterministic retries, optionally
    /// checkpointing every finished point to (and resuming from) a journal.
    ///
    /// The returned database is bit-identical for a given campaign at any
    /// worker count, whether run straight through or killed and resumed —
    /// every attempt's seed is a pure function of `(campaign seed, point
    /// index, attempt)`, and assembly always walks points in index order.
    /// This is the one-call case of [`Self::collector`].
    pub fn collect_with(
        &self,
        points: &[SpacePoint],
        opts: &CollectOptions,
    ) -> Result<Collection, AcicError> {
        self.collector(points).collect(opts)
    }

    /// An incremental collection session over the campaign `points`: each
    /// [`Collector::collect`] call simulates only the wanted points (and
    /// baselines) no earlier call on this collector has simulated, and
    /// returns exactly what a fresh [`Self::collect_with`] on the same
    /// options and journal state would.  Adaptive campaigns collect their
    /// growing proposal set through one collector.
    pub fn collector<'a>(&'a self, points: &'a [SpacePoint]) -> Collector<'a> {
        Collector {
            trainer: self,
            points,
            id: self.campaign_id(points),
            runs: Vec::new(),
            baselines: BTreeMap::new(),
        }
    }

    /// Collect one point: baseline (precomputed per app half) plus the
    /// sampled configuration, both under the fault plan with bounded
    /// retries.
    fn run_point(
        &self,
        i: usize,
        p: &SpacePoint,
        root: &SplitMix64,
        baselines: &BTreeMap<Vec<u64>, BaselineEntry>,
    ) -> PointRun {
        let app_key = app_bits(&p.app);
        let entry = baselines
            .get(&app_key)
            .expect("baseline precomputed for every simulated app half");
        // Borrow straight from the shared entry — no report clone at all
        // (the old mutexed cache cloned the full IorReport per point,
        // while holding the cache lock).
        let baseline: &IorReport = match &entry.result {
            Ok(r) => r,
            Err(e) => {
                // The whole app half is uncollectable; charge nothing here
                // (the baseline's own waste is reported once per app key).
                return PointRun {
                    index: i,
                    attempts: 0,
                    error: Some(e.clone()),
                    ..PointRun::empty(i)
                };
            }
        };

        let sys = p.system.to_io_system(p.app.nprocs);
        let cost_of = cost_fn(&sys);
        // Attempt 0 keeps the historical seed derivation (bit-compat with
        // fault-free campaigns); retries derive fresh deterministic seeds.
        let point_rng = root.derive(i as u64);
        let seed_of = |attempt: u32| {
            if attempt == 0 {
                point_rng.clone().next_u64()
            } else {
                point_rng.derive(u64::from(attempt)).next_u64()
            }
        };
        let run = retry_run(&sys, &p.app.to_ior(), seed_of, self.faults, &self.retry, &cost_of);
        match run.result {
            Ok(report) => {
                let tp = TrainingPoint {
                    system: p.system,
                    app: p.app,
                    perf_improvement: Objective::Performance
                        .improvement(baseline.secs(), report.secs()),
                    cost_improvement: Objective::Cost.improvement(baseline.cost, report.cost),
                };
                let sim = report.secs() + baseline.secs();
                PointRun {
                    index: i,
                    tp: Some(tp),
                    secs: sim + run.wasted_secs + run.backoff_secs,
                    cost: report.cost + baseline.cost + run.wasted_cost,
                    sim_secs: sim,
                    attempts: run.retries + 1,
                    retries: run.retries,
                    aborts: run.aborts,
                    faults: report.outcome.faults,
                    backoff_secs: run.backoff_secs,
                    wasted_secs: run.wasted_secs,
                    wasted_cost: run.wasted_cost,
                    error: None,
                    resumed: false,
                    from_store: false,
                }
            }
            Err(e) => PointRun {
                index: i,
                secs: run.wasted_secs + run.backoff_secs,
                cost: run.wasted_cost,
                attempts: run.retries + 1,
                retries: run.retries,
                aborts: run.aborts,
                backoff_secs: run.backoff_secs,
                wasted_secs: run.wasted_secs,
                wasted_cost: run.wasted_cost,
                error: Some(e),
                ..PointRun::empty(i)
            },
        }
    }

    /// One baseline run, executed exactly once per distinct app half by
    /// the shared-nothing pre-stage.  The result (and its retry
    /// accounting) is a pure function of `(campaign seed, app key)`, so
    /// the precomputed table is bit-identical to what the old racing
    /// per-worker cache converged to.
    fn compute_baseline(
        &self,
        root: &SplitMix64,
        baseline_sys: &SystemConfig,
        app: &AppPoint,
        app_key: &[u64],
    ) -> BaselineEntry {
        let sys = baseline_sys.to_io_system(app.nprocs);
        let cost_of = cost_fn(&sys);
        // The baseline seed must be a function of the app key, not of the
        // point index: every point sharing an app half shares the same
        // baseline report, however the campaign is scheduled or subset.
        let chain = {
            let mut r = root.derive(u64::MAX);
            for &w in app_key {
                r = r.derive(w);
            }
            r
        };
        let seed_of = |attempt: u32| {
            if attempt == 0 {
                chain.clone().next_u64()
            } else {
                chain.derive(u64::from(attempt)).next_u64()
            }
        };
        let run = retry_run(&sys, &app.to_ior(), seed_of, self.faults, &self.retry, &cost_of);
        BaselineEntry {
            faults: run.result.as_ref().map(|r| r.outcome.faults).unwrap_or(0),
            result: run.result,
            retries: run.retries,
            aborts: run.aborts,
            backoff_secs: run.backoff_secs,
            wasted_secs: run.wasted_secs,
            wasted_cost: run.wasted_cost,
        }
    }
}

/// One campaign's incremental collection session (see
/// [`Trainer::collector`]).
///
/// The collector keeps every point it has simulated, by grid index, and
/// every baseline, by app key.  Each [`Self::collect`] call resolves its
/// wanted points in precedence order — journal entries (counted as
/// `resumed`), then store hits (looked up afresh on every call, never
/// kept), then points this collector already simulated (counted as
/// `completed`, as re-simulating them would be), and only then new
/// simulations.  Every run is a pure function of `(campaign seed, grid
/// index)` or `(campaign seed, app key)`, so a reused run is the run a
/// re-simulation would produce, bit for bit.
#[derive(Debug)]
pub struct Collector<'a> {
    trainer: &'a Trainer,
    points: &'a [SpacePoint],
    id: CampaignId,
    /// Simulated points, sorted by grid index (never journal restores or
    /// store hits).
    runs: Vec<PointRun>,
    /// Simulated baselines by app key.
    baselines: BTreeMap<Vec<u64>, BaselineEntry>,
}

impl Collector<'_> {
    /// The identity of this collector's campaign (computed once).
    pub fn campaign_id(&self) -> CampaignId {
        self.id
    }

    /// The run this collector simulated for grid index `i`, if any.
    fn simulated(&self, i: usize) -> Option<&PointRun> {
        self.runs.binary_search_by_key(&i, |run| run.index).ok().map(|k| &self.runs[k])
    }

    /// Collect the points `opts` wants (see [`Trainer::collect_with`]),
    /// simulating only those this collector does not hold yet.
    pub fn collect(&mut self, opts: &CollectOptions) -> Result<Collection, AcicError> {
        let points = self.points;
        let wanted: Vec<usize> = match opts.subset {
            None => (0..points.len()).collect(),
            Some(ixs) => {
                let set: std::collections::BTreeSet<usize> = ixs.iter().copied().collect();
                if let Some(&bad) = set.iter().rev().find(|&&i| i >= points.len()) {
                    return Err(AcicError::Invalid(format!(
                        "subset index {bad} out of range for a {}-point campaign",
                        points.len()
                    )));
                }
                set.into_iter().collect()
            }
        };
        let mut restored: BTreeMap<usize, JournalEntry> = BTreeMap::new();
        let writer = match opts.journal {
            None => None,
            Some(path) if path.exists() => {
                let state = journal::load(path, &self.id)?;
                restored = state.entries;
                // Truncate any torn tail before appending: without this the
                // first resumed entry would weld onto the fragment.
                Some(JournalWriter::resume_with(path, state.valid_bytes, opts.commit)?)
            }
            Some(path) => Some(JournalWriter::create_with(path, &self.id, opts.commit)?),
        };

        let arena_before = acic_cloudsim::arena::stats();
        let root = SplitMix64::new(self.trainer.seed);
        let baseline_sys = SystemConfig::baseline();

        let todo: Vec<usize> =
            wanted.iter().copied().filter(|i| !restored.contains_key(i)).collect();

        // Lookup-before-measure resolved up front: store-hit status is a
        // pure function of the lookup index, which makes the journal
        // emission order — todo minus store hits, ascending — computable
        // before any simulation runs.
        let hits: Vec<Option<crate::store::StoreSample>> = todo
            .iter()
            .map(|&i| opts.lookup.and_then(|l| l.get(point_key(&points[i])).copied()))
            .collect();
        // Journal sequence ranks: the writer plane commits entries in
        // campaign index order regardless of scheduling, so journal bytes
        // are identical at any worker count and any commit batch.  Points
        // this collector already simulated are journaled like fresh ones.
        let mut seq_of: Vec<u64> = vec![u64::MAX; todo.len()];
        let mut next_seq = 0u64;
        for (t, hit) in hits.iter().enumerate() {
            if hit.is_none() {
                seq_of[t] = next_seq;
                next_seq += 1;
                if let (Some(w), Some(run)) = (&writer, self.simulated(todo[t])) {
                    w.append_seq(seq_of[t], &run.to_journal_entry());
                }
            }
        }

        // Shared-nothing baseline stage: deduplicate the distinct app
        // halves behind this call's measured points, run each baseline
        // this collector lacks exactly once in parallel, and keep it —
        // no mutexed cache, no under-lock clones, no filled-twice races.
        // Each baseline is a pure function of `(campaign seed, app key)`.
        let mut apps: BTreeMap<Vec<u64>, AppPoint> = BTreeMap::new();
        for (t, &i) in todo.iter().enumerate() {
            if hits[t].is_none() {
                apps.entry(app_bits(&points[i].app)).or_insert(points[i].app);
            }
        }
        let missing: Vec<(&Vec<u64>, &AppPoint)> =
            apps.iter().filter(|(key, _)| !self.baselines.contains_key(*key)).collect();
        let computed: Vec<(Vec<u64>, BaselineEntry)> = missing
            .into_par_iter()
            .map(|(key, app)| {
                let entry = self.trainer.compute_baseline(&root, &baseline_sys, app, key);
                (key.clone(), entry)
            })
            .collect();
        self.baselines.extend(computed);

        // This session's work: store hits and points not yet simulated.
        let session: Vec<usize> = (0..todo.len())
            .filter(|&t| hits[t].is_some() || self.simulated(todo[t]).is_none())
            .collect();
        let session_start = std::time::Instant::now();
        let fresh: Vec<PointRun> = session
            .par_iter()
            .map(|&t| {
                let i = todo[t];
                if let Some(hit) = hits[t] {
                    // Answered from the durable store: no simulation, no
                    // baseline, nothing journaled (the store itself is the
                    // durable record; a resume re-answers identically).
                    return PointRun {
                        tp: Some(hit.point),
                        attempts: hit.attempts,
                        from_store: true,
                        ..PointRun::empty(i)
                    };
                }
                let run = self.trainer.run_point(i, &points[i], &root, &self.baselines);
                if let Some(w) = &writer {
                    // Sequenced append: the writer plane buffers this until
                    // every earlier entry has committed before it.  I/O
                    // errors surface at finish() below.
                    w.append_seq(seq_of[t], &run.to_journal_entry());
                }
                run
            })
            .collect();
        let session_secs = session_start.elapsed().as_secs_f64();
        let commit_stats = match writer {
            Some(w) => Some(w.finish()?),
            None => None,
        };
        let mut store_runs: BTreeMap<usize, PointRun> = BTreeMap::new();
        self.runs.reserve(fresh.len());
        for run in fresh {
            if run.from_store {
                store_runs.insert(run.index, run);
            } else {
                self.runs.push(run);
            }
        }
        self.runs.sort_by_key(|run| run.index);
        let restored: BTreeMap<usize, PointRun> = restored
            .into_iter()
            .filter(|(index, _)| wanted.binary_search(index).is_ok())
            .map(|(index, entry)| (index, PointRun::from_journal(entry)))
            .collect();

        // Deterministic assembly over `wanted` (index order), so sums —
        // and therefore the database bits — never depend on scheduling or
        // on which call simulated a point.  A journal may hold more than
        // the subset asks for (an adaptive campaign resumed with a smaller
        // cumulative batch); only wanted indices are assembled.
        let mut db = TrainingDb::default();
        let mut report = CollectionReport { planned: wanted.len(), ..Default::default() };
        for &i in &wanted {
            let run = restored
                .get(&i)
                .or_else(|| store_runs.get(&i))
                .or_else(|| self.simulated(i))
                .expect("collection left an unfilled campaign slot (journal/todo split is broken)");
            if run.resumed {
                report.resumed += 1;
            }
            if run.from_store {
                report.store_hits += 1;
            }
            match run.tp {
                Some(tp) => {
                    if !run.resumed {
                        report.completed += 1;
                    }
                    report.point_log.push(PointProvenance {
                        index: run.index,
                        attempts: run.attempts,
                    });
                    db.points.push(tp);
                }
                None => report.skipped.push(SkippedPoint {
                    index: run.index,
                    attempts: run.attempts,
                    error: run
                        .error
                        .clone()
                        .unwrap_or_else(|| AcicError::Invalid("unrecorded failure".into())),
                }),
            }
            db.collect_secs += run.secs;
            db.collect_cost_usd += run.cost;
            report.retries += run.retries as usize;
            report.aborts += run.aborts as usize;
            report.faults_tolerated += run.faults;
            report.backoff_secs += run.backoff_secs;
            report.wasted_secs += run.wasted_secs;
            report.wasted_cost_usd += run.wasted_cost;
            report.sim_secs += run.sim_secs;
        }
        // Baseline overhead is keyed per distinct app half, so it is
        // reported once per baseline (BTreeMap order keeps it stable).
        for key in apps.keys() {
            let b = &self.baselines[key];
            report.baseline_runs += 1;
            report.retries += b.retries as usize;
            report.aborts += b.aborts as usize;
            report.backoff_secs += b.backoff_secs;
            report.wasted_secs += b.wasted_secs;
            report.wasted_cost_usd += b.wasted_cost;
            if b.result.is_ok() {
                report.faults_tolerated += b.faults;
            }
        }
        if let Some(stats) = commit_stats {
            report.group_commits = stats.group_commits as usize;
        }

        if let Some(m) = opts.metrics {
            m.incr("train.points.attempted", (report.planned - report.resumed) as u64);
            m.incr("train.points.completed", report.completed as u64);
            m.incr("train.points.resumed", report.resumed as u64);
            m.incr("train.points.skipped", report.skipped.len() as u64);
            m.incr("train.runs.retried", report.retries as u64);
            m.incr("train.runs.aborted", report.aborts as u64);
            m.incr("train.faults.tolerated", report.faults_tolerated as u64);
            m.incr("train.baseline.runs", report.baseline_runs as u64);
            m.incr("train.db.points", db.len() as u64);
            if report.store_hits > 0 {
                m.incr("search.store_hits", report.store_hits as u64);
            }
            m.observe_secs("train.sim_secs", db.collect_secs);
            m.observe_secs("train.backoff_secs", report.backoff_secs);
            // Writer-plane accounting: how well the group commit amortized
            // durability, and how far the reorder/accumulation buffer grew.
            if let Some(stats) = commit_stats {
                m.incr("journal.group_commits", stats.group_commits);
                m.record_max("journal.queue_high_water", stats.queue_high_water);
            }
            // Collection throughput of this session's parallel loop (real
            // wall clock, not simulated seconds) — the number BENCH_train
            // gates.
            if !session.is_empty() && session_secs > 0.0 {
                m.record_max(
                    "train.points_per_sec",
                    (session.len() as f64 / session_secs).round() as u64,
                );
            }
            // Simulator arena health: runs executed during this call and
            // how many of them missed the recycled pools.  A warm steady
            // state shows a large run delta with a (near-)zero miss delta
            // — the allocation-free campaign loop.
            let arena_after = acic_cloudsim::arena::stats();
            m.incr("sim.arena.runs", arena_after.runs.saturating_sub(arena_before.runs));
            m.incr(
                "sim.arena.pool_misses",
                arena_after.pool_misses.saturating_sub(arena_before.pool_misses),
            );
        }

        if opts.strict {
            if let Some(sk) = report.skipped.first() {
                return Err(sk.error.clone());
            }
        }
        Ok(Collection { db, report })
    }
}

/// Session accounting for one cached baseline.
#[derive(Debug, Clone)]
struct BaselineEntry {
    result: Result<IorReport, AcicError>,
    retries: u32,
    aborts: u32,
    backoff_secs: f64,
    wasted_secs: f64,
    wasted_cost: f64,
    faults: usize,
}

/// Everything one campaign point contributed.
#[derive(Debug, Clone)]
struct PointRun {
    index: usize,
    tp: Option<TrainingPoint>,
    /// Simulated seconds charged to the database for this point.
    secs: f64,
    /// Simulated USD charged to the database for this point.
    cost: f64,
    /// Successful-run share of `secs` (excludes waste and backoff).
    sim_secs: f64,
    attempts: u32,
    retries: u32,
    aborts: u32,
    faults: usize,
    backoff_secs: f64,
    wasted_secs: f64,
    wasted_cost: f64,
    error: Option<AcicError>,
    resumed: bool,
    /// Answered from the durable store (lookup-before-measure) — zero
    /// simulated runs, nothing journaled.
    from_store: bool,
}

impl PointRun {
    fn empty(index: usize) -> Self {
        Self {
            index,
            tp: None,
            secs: 0.0,
            cost: 0.0,
            sim_secs: 0.0,
            attempts: 0,
            retries: 0,
            aborts: 0,
            faults: 0,
            backoff_secs: 0.0,
            wasted_secs: 0.0,
            wasted_cost: 0.0,
            error: None,
            resumed: false,
            from_store: false,
        }
    }

    fn from_journal(entry: JournalEntry) -> Self {
        match entry {
            JournalEntry::Ok { index, attempts, secs, cost, point } => Self {
                tp: Some(point),
                attempts,
                secs,
                cost,
                resumed: true,
                ..Self::empty(index)
            },
            JournalEntry::Skip { index, attempts, secs, cost, reason } => Self {
                secs,
                cost,
                attempts,
                error: Some(AcicError::Invalid(reason)),
                resumed: true,
                ..Self::empty(index)
            },
        }
    }

    fn to_journal_entry(&self) -> JournalEntry {
        match &self.tp {
            Some(point) => JournalEntry::Ok {
                index: self.index,
                attempts: self.attempts,
                secs: self.secs,
                cost: self.cost,
                point: *point,
            },
            None => JournalEntry::Skip {
                index: self.index,
                attempts: self.attempts,
                secs: self.secs,
                cost: self.cost,
                reason: self
                    .error
                    .as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "unrecorded failure".into()),
            },
        }
    }
}

/// Outcome of a bounded-retry run sequence.
struct RetriedRun {
    result: Result<IorReport, AcicError>,
    retries: u32,
    aborts: u32,
    backoff_secs: f64,
    wasted_secs: f64,
    wasted_cost: f64,
}

/// Run `cfg` on `sys`, retrying transient (injected-fault) errors on
/// deterministic per-attempt seeds with exponential-backoff accounting.
/// Permanent errors never retry; exceeding the retry count or the
/// per-point budget gives up with the terminal error.
fn retry_run(
    sys: &IoSystem,
    cfg: &IorConfig,
    seed_of: impl Fn(u32) -> u64,
    faults: FaultPlan,
    retry: &RetryPolicy,
    cost_of: &impl Fn(f64) -> f64,
) -> RetriedRun {
    let mut retries = 0u32;
    let mut aborts = 0u32;
    let mut backoff_secs = 0.0f64;
    let mut wasted_secs = 0.0f64;
    let mut wasted_cost = 0.0f64;
    let mut attempt = 0u32;
    let result = loop {
        match run_ior_faulted(sys, cfg, seed_of(attempt), faults) {
            Ok(r) => break Ok(r),
            Err(e) => {
                let e = AcicError::from(e);
                if let AcicError::Sim(CloudSimError::InjectedFault { time, .. }) = &e {
                    aborts += 1;
                    wasted_secs += *time;
                    wasted_cost += cost_of(*time);
                }
                if !e.is_transient() || attempt >= retry.max_retries {
                    break Err(e);
                }
                attempt += 1;
                retries += 1;
                backoff_secs += retry.backoff_before(attempt);
                if wasted_secs + backoff_secs > retry.point_budget_secs {
                    break Err(AcicError::Invalid(format!(
                        "per-point budget of {:.0}s exhausted after {} attempt(s)",
                        retry.point_budget_secs, attempt
                    )));
                }
            }
        }
    };
    RetriedRun { result, retries, aborts, backoff_secs, wasted_secs, wasted_cost }
}

/// Cost of `secs` of simulated time on `sys`'s cluster (used to bill the
/// wasted time of aborted attempts, like the authors paid for theirs).
fn cost_fn(sys: &IoSystem) -> impl Fn(f64) -> f64 {
    let instances = sys.cluster.total_instances();
    let instance_type = sys.cluster.instance_type;
    move |secs: f64| CostModel::default().linear_cost(secs, instances, instance_type)
}

/// FNV-1a over a word stream (campaign fingerprinting, store sample keys).
pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Encode one observation as the 17 tab-separated fields shared by the
/// database text format and the checkpoint journal.
pub(crate) fn point_to_line(p: &TrainingPoint) -> String {
    let sys = &p.system;
    let app = &p.app;
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        crate::features::device_code(sys.device) as u8,
        matches!(sys.fs, acic_fsim::FsType::Pvfs2) as u8,
        matches!(sys.instance_type, acic_cloudsim::instance::InstanceType::Cc2_8xlarge) as u8,
        sys.io_servers,
        matches!(sys.placement, acic_cloudsim::cluster::Placement::Dedicated) as u8,
        sys.stripe_size,
        app.nprocs,
        app.io_procs,
        crate::features::api_code(app.api) as u8,
        app.iterations,
        app.data_size,
        app.request_size,
        matches!(app.op, acic_fsim::IoOp::Write) as u8,
        app.collective as u8,
        app.shared_file as u8,
        p.perf_improvement,
        p.cost_improvement,
    )
}

/// Parse the 17 fields written by [`point_to_line`].
pub(crate) fn point_from_fields(f: &[&str], lineno: usize) -> Result<TrainingPoint, AcicError> {
    use acic_cloudsim::cluster::Placement;
    use acic_cloudsim::device::DeviceKind;
    use acic_cloudsim::instance::InstanceType;
    use acic_fsim::{FsType, IoApi, IoOp};

    let bad = |reason: &str| AcicError::Codec { line: lineno, reason: reason.into() };
    if f.len() != 17 {
        return Err(bad("expected 17 tab-separated fields"));
    }
    let num = |i: usize| -> Result<f64, AcicError> { f[i].parse().map_err(|_| bad("bad number")) };
    let flag = |i: usize| -> Result<bool, AcicError> { Ok(num(i)? != 0.0) };
    Ok(TrainingPoint {
        system: SystemConfig {
            device: match num(0)? as u8 {
                0 => DeviceKind::Ebs,
                1 => DeviceKind::Ephemeral,
                2 => DeviceKind::Ssd,
                _ => return Err(bad("bad device code")),
            },
            fs: if flag(1)? { FsType::Pvfs2 } else { FsType::Nfs },
            instance_type: if flag(2)? {
                InstanceType::Cc2_8xlarge
            } else {
                InstanceType::Cc1_4xlarge
            },
            io_servers: num(3)? as usize,
            placement: if flag(4)? { Placement::Dedicated } else { Placement::PartTime },
            stripe_size: num(5)?,
        },
        app: AppPoint {
            nprocs: num(6)? as usize,
            io_procs: num(7)? as usize,
            api: match num(8)? as u8 {
                0 => IoApi::Posix,
                1 => IoApi::MpiIo,
                2 => IoApi::Hdf5,
                3 => IoApi::NetCdf,
                _ => return Err(bad("bad api code")),
            },
            iterations: num(9)? as usize,
            data_size: num(10)?,
            request_size: num(11)?,
            op: if flag(12)? { IoOp::Write } else { IoOp::Read },
            collective: flag(13)?,
            shared_file: flag(14)?,
        },
        perf_improvement: num(15)?,
        cost_improvement: num(16)?,
    })
}

impl TrainingDb {
    /// Serialize as a versioned, line-oriented text format (the paper's
    /// released training data is a similar flat table; no external
    /// serialization dependency needed).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "acic-db v1").unwrap();
        writeln!(s, "collect_secs={} collect_cost_usd={}", self.collect_secs, self.collect_cost_usd)
            .unwrap();
        for p in &self.points {
            writeln!(s, "{}", point_to_line(p)).unwrap();
        }
        s
    }

    /// Parse the [`Self::to_text`] format.
    pub fn from_text(text: &str) -> Result<TrainingDb, AcicError> {
        let bad = |line: usize, reason: &str| AcicError::Codec { line, reason: reason.into() };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| bad(1, "empty input"))?;
        if header.trim() != "acic-db v1" {
            return Err(bad(1, "unknown version header"));
        }
        let (_, stats) = lines.next().ok_or_else(|| bad(2, "missing stats line"))?;
        let mut db = TrainingDb::default();
        for field in stats.split_whitespace() {
            let (key, value) = field.split_once('=').ok_or_else(|| bad(2, "malformed stats"))?;
            let value: f64 = value.parse().map_err(|_| bad(2, "bad stats number"))?;
            match key {
                "collect_secs" => db.collect_secs = value,
                "collect_cost_usd" => db.collect_cost_usd = value,
                _ => return Err(bad(2, "unknown stats key")),
            }
        }

        for (lineno, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            db.points.push(point_from_fields(&f, lineno + 1)?);
        }
        Ok(db)
    }
}

/// Bit-exact key of an app half (for baseline caching).
fn app_bits(app: &AppPoint) -> Vec<u64> {
    let a = app.normalized();
    vec![
        a.nprocs as u64,
        a.io_procs as u64,
        crate::features::api_code(a.api) as u64,
        a.iterations as u64,
        a.data_size.to_bits(),
        a.request_size.to_bits(),
        u64::from(a.op == acic_fsim::IoOp::Write),
        u64::from(a.collective),
        u64::from(a.shared_file),
    ]
}

/// Bit-exact key of a whole point.
pub(crate) fn point_bits(p: &SpacePoint) -> Vec<u64> {
    let mut k: Vec<u64> = encode(&p.system, &p.app).iter().map(|v| v.to_bits()).collect();
    k.extend(app_bits(&p.app));
    k
}

/// The canonical configuration key of a space point: FNV-1a over its
/// bit-exact encoding.  This is the same key [`crate::store::sample_key`]
/// derives from a collected observation, which is what lets a planner (or
/// the trainer's lookup-before-measure path) ask the durable store "has
/// this exact configuration been measured before?" without re-simulating.
pub fn point_key(p: &SpacePoint) -> u64 {
    fnv1a(&point_bits(p))
}

fn dedup_points(points: Vec<SpacePoint>) -> Vec<SpacePoint> {
    let mut seen = std::collections::BTreeSet::new();
    points
        .into_iter()
        .filter(|p| seen.insert(point_bits(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ranking_starts_with_data_size_and_op() {
        let t = Trainer::with_paper_ranking(1);
        assert_eq!(t.ranking[0], ParamId::DataSize);
        assert_eq!(t.ranking[1], ParamId::ReadWrite);
        assert_eq!(t.ranking[2], ParamId::IoServers);
        assert_eq!(t.ranking.len(), 15);
    }

    #[test]
    fn sample_points_grow_with_top_n() {
        let t = Trainer::with_paper_ranking(1);
        let p1 = t.sample_points(1).len();
        let p3 = t.sample_points(3).len();
        let p5 = t.sample_points(5).len();
        assert!(p1 < p3 && p3 < p5, "{p1} {p3} {p5}");
        // Top-1 = data size alone: 6 values.
        assert_eq!(p1, 6);
    }

    #[test]
    fn sampled_points_are_valid_and_unique() {
        let t = Trainer::with_paper_ranking(1);
        let pts = t.sample_points(6);
        for p in &pts {
            assert!(p.is_valid());
        }
        let mut keys: Vec<_> = pts.iter().map(point_bits).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicates survived dedup");
    }

    #[test]
    fn collect_produces_improvements_and_costs() {
        let t = Trainer::with_paper_ranking(7);
        let db = t.collect(2).unwrap();
        assert!(!db.is_empty());
        assert!(db.collect_secs > 0.0);
        assert!(db.collect_cost_usd > 0.0);
        for p in &db.points {
            assert!(p.perf_improvement > 0.0 && p.perf_improvement.is_finite());
            assert!(p.cost_improvement > 0.0 && p.cost_improvement.is_finite());
        }
        // The baseline configuration itself must appear with improvement ≈ 1
        // only if sampled; weaker invariant: some point beats the baseline.
        assert!(db.points.iter().any(|p| p.perf_improvement > 1.0));
    }

    #[test]
    fn merge_and_age() {
        let t = Trainer::with_paper_ranking(3);
        let mut a = t.collect(1).unwrap();
        let b = t.collect(2).unwrap();
        let (la, lb) = (a.len(), b.len());
        let cost_sum = a.collect_cost_usd + b.collect_cost_usd;
        a.merge(b);
        assert_eq!(a.len(), la + lb);
        assert!((a.collect_cost_usd - cost_sum).abs() < 1e-12);
        a.age_to(4);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn to_dataset_has_matching_rows_and_targets() {
        let t = Trainer::with_paper_ranking(5);
        let db = t.collect(2).unwrap();
        let ds = db.to_dataset(Objective::Performance);
        assert_eq!(ds.len(), db.len());
        let ds_cost = db.to_dataset(Objective::Cost);
        assert_eq!(ds_cost.len(), db.len());
    }

    #[test]
    fn codec_round_trips() {
        let t = Trainer::with_paper_ranking(5);
        let db = t.collect(3).unwrap();
        let text = db.to_text();
        let back = TrainingDb::from_text(&text).unwrap();
        assert_eq!(back.len(), db.len());
        assert!((back.collect_cost_usd - db.collect_cost_usd).abs() < 1e-9);
        for (a, b) in db.points.iter().zip(&back.points) {
            assert_eq!(a.system, b.system);
            assert_eq!(a.app, b.app);
            assert_eq!(a.perf_improvement, b.perf_improvement);
            assert_eq!(a.cost_improvement, b.cost_improvement);
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(matches!(TrainingDb::from_text(""), Err(AcicError::Codec { line: 1, .. })));
        assert!(TrainingDb::from_text("acic-db v2\n").is_err());
        assert!(TrainingDb::from_text("acic-db v1\ncollect_secs=0 collect_cost_usd=0\n1\t2\n")
            .is_err());
        let bad_num = "acic-db v1\ncollect_secs=0 collect_cost_usd=0\n\
                       x\t0\t1\t1\t1\t0\t64\t64\t1\t10\t1e6\t1e6\t1\t0\t1\t1.0\t1.0\n";
        assert!(TrainingDb::from_text(bad_num).is_err());
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let t = Trainer::with_paper_ranking(11);
        let a = t.collect(2).unwrap();
        let b = t.collect(2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_collection_retries_and_still_completes() {
        // The paper's observed rate, cranked up so aborts are certain to
        // appear in a small campaign.
        let plan = FaultPlan { phase_fail_prob: 0.05, retry_penalty_secs: 35.0, abort_prob: 0.5 };
        let t = Trainer::with_paper_ranking(13).with_faults(plan);
        let points = t.sample_points(2);
        let c = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert_eq!(c.db.len(), points.len(), "retries must save every point");
        assert!(c.report.is_complete());
        assert!(c.report.aborts > 0, "this plan must produce aborts");
        assert_eq!(c.report.retries, c.report.aborts, "every abort retried");
        assert!(c.report.backoff_secs > 0.0);
        // Fault overhead is charged to the campaign clock.
        let clean = Trainer::with_paper_ranking(13).collect(2).unwrap();
        assert!(c.db.collect_secs > clean.collect_secs);
    }

    #[test]
    fn hopeless_faults_skip_and_record_instead_of_failing() {
        let plan = FaultPlan { phase_fail_prob: 1.0, retry_penalty_secs: 35.0, abort_prob: 1.0 };
        let t = Trainer::with_paper_ranking(5)
            .with_faults(plan)
            .with_retry(RetryPolicy { max_retries: 2, ..RetryPolicy::DEFAULT });
        let points = t.sample_points(1);
        let c = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert!(c.db.is_empty(), "every run aborts, nothing collectable");
        assert_eq!(c.report.skipped.len(), points.len());
        assert!(!c.report.is_complete());
        for sk in &c.report.skipped {
            assert!(sk.error.is_transient(), "terminal error is the injected fault");
        }
        // The baseline runs' wasted attempts are still accounted.
        assert!(c.report.wasted_secs > 0.0);
        assert!(c.report.aborts > 0);

        // Strict mode (the legacy `collect_points` path) surfaces the error.
        let err = t.collect_points(&points).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let plan = FaultPlan { phase_fail_prob: 1.0, retry_penalty_secs: 35.0, abort_prob: 1.0 };
        let t = Trainer::with_paper_ranking(5).with_faults(plan).with_retry(RetryPolicy {
            max_retries: 50,
            point_budget_secs: 10.0,
            ..RetryPolicy::DEFAULT
        });
        let points = t.sample_points(1);
        let c = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert_eq!(c.report.skipped.len(), points.len());
        for sk in &c.report.skipped {
            assert!(sk.error.to_string().contains("budget"), "{}", sk.error);
            assert!(sk.attempts < 51, "budget must stop retries early");
        }
    }

    #[test]
    fn faulted_collection_is_deterministic_per_seed() {
        let t = Trainer::with_paper_ranking(11).with_faults(FaultPlan::papers_observed_rate());
        let points = t.sample_points(2);
        let a = t.collect_with(&points, &CollectOptions::default()).unwrap();
        let b = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert_eq!(a.db, b.db);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn metrics_observe_the_campaign() {
        let m = Metrics::new();
        let t = Trainer::with_paper_ranking(3);
        let points = t.sample_points(1);
        let opts = CollectOptions { metrics: Some(&m), ..Default::default() };
        let c = t.collect_with(&points, &opts).unwrap();
        assert_eq!(m.counter("train.points.attempted"), points.len() as u64);
        assert_eq!(m.counter("train.points.completed"), c.db.len() as u64);
        assert_eq!(m.counter("train.db.points"), c.db.len() as u64);
        assert!(m.total_secs("train.sim_secs") > 0.0);
    }

    #[test]
    fn concurrent_baseline_fills_stay_deterministic() {
        // Regression for the mutexed baseline cache (which cloned full
        // IorReports under the lock and could be filled racily): the
        // shared-nothing pre-stage must produce identical observations
        // AND identical baseline accounting at every worker count, under
        // faults (where per-attempt retry waste would expose any
        // schedule-dependent baseline).
        let plan = FaultPlan { phase_fail_prob: 0.05, retry_penalty_secs: 35.0, abort_prob: 0.5 };
        let t = Trainer::with_paper_ranking(99).with_faults(plan);
        // 5 dims is the smallest campaign where distinct points share app
        // halves (96 points over 24 baselines) — the sharing the shared
        // baseline table must keep deterministic.
        let points = t.sample_points(5);
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = t.collect_with(&points, &CollectOptions::default()).unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "8");
        let parallel = t.collect_with(&points, &CollectOptions::default()).unwrap();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(serial.db, parallel.db, "worker count changed the database");
        assert_eq!(serial.report, parallel.report, "worker count changed baseline accounting");
        assert!(serial.report.baseline_runs >= 1);
        assert!(
            points.len() > serial.report.baseline_runs,
            "campaign must share baselines across points to exercise the fan-out"
        );
    }

    #[test]
    fn collector_matches_fresh_collect_with_on_every_call() {
        use crate::store::{samples_from_collection, SampleLookup};
        let t = Trainer::with_paper_ranking(17).with_faults(FaultPlan::papers_observed_rate());
        let points = t.sample_points(5);
        let n = points.len();
        // A store measured by another campaign answers every seventh point.
        let other = Trainer::with_paper_ranking(3);
        let answered: Vec<usize> = (0..n).step_by(7).collect();
        let opts = CollectOptions { subset: Some(&answered), ..Default::default() };
        let pre = other.collect_with(&points, &opts).unwrap();
        let samples = samples_from_collection(&other.campaign_id(&points), &pre).unwrap();
        let lookup = SampleLookup::from_samples(samples);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-journals");
        std::fs::create_dir_all(&dir).unwrap();
        let (mine, theirs) = (dir.join("collector.journal"), dir.join("collector-fresh.journal"));
        let _ = std::fs::remove_file(&mine);
        let _ = std::fs::remove_file(&theirs);

        let every = |step: usize, from: usize| -> Vec<usize> { (from..n).step_by(step).collect() };
        let mut grown = every(4, 0);
        grown.extend(every(4, 1));
        let steps: Vec<(&str, Option<Vec<usize>>, bool, bool)> = vec![
            ("first batch", Some(every(8, 0)), false, false),
            ("grows between earlier points", Some(every(4, 0)), false, false),
            ("grows again, store answers some", Some(grown.clone()), true, false),
            ("shrinks", Some(grown[..grown.len() / 3].to_vec()), true, false),
            ("creates a journal", Some(every(2, 0)), false, true),
            ("resumes the journal, whole grid", None, true, true),
            ("resumes the journal, shrunk", Some(every(8, 3)), false, true),
        ];
        let mut collector = t.collector(&points);
        assert_eq!(collector.campaign_id(), t.campaign_id(&points));
        for (what, subset, use_lookup, use_journal) in steps {
            if mine.exists() {
                std::fs::copy(&mine, &theirs).unwrap();
            }
            let opts = |path| CollectOptions {
                subset: subset.as_deref(),
                lookup: if use_lookup { Some(&lookup) } else { None },
                journal: if use_journal { Some(path) } else { None },
                ..Default::default()
            };
            let got = collector.collect(&opts(mine.as_path())).unwrap();
            let want = t.collect_with(&points, &opts(theirs.as_path())).unwrap();
            assert_eq!(got.db.to_text(), want.db.to_text(), "{what}: database");
            assert_eq!(got.report, want.report, "{what}: report");
            if use_journal {
                assert_eq!(
                    std::fs::read(&mine).unwrap(),
                    std::fs::read(&theirs).unwrap(),
                    "{what}"
                );
            }
            assert!(!got.db.is_empty(), "{what}");
            assert_eq!(use_lookup, got.report.store_hits > 0, "{what}");
            if what.starts_with("resumes") {
                assert!(got.report.resumed > 0, "{what}");
            }
        }
        let _ = std::fs::remove_file(&mine);
        let _ = std::fs::remove_file(&theirs);
    }

    #[test]
    fn campaign_id_changes_with_plan_and_points() {
        let t = Trainer::with_paper_ranking(1);
        let p1 = t.sample_points(1);
        let p2 = t.sample_points(2);
        let a = t.campaign_id(&p1);
        assert_eq!(a, t.campaign_id(&p1), "fingerprint is stable");
        assert_ne!(a.fingerprint, t.campaign_id(&p2).fingerprint);
        let faulted = Trainer::with_paper_ranking(1).with_faults(FaultPlan::papers_observed_rate());
        assert_ne!(a.fingerprint, faulted.campaign_id(&p1).fingerprint);
    }
}
