//! The training side of the lifecycle, driven through the public APIs of
//! `acic` (core) and `acic-search`: a journaled campaign into a durable
//! store, its publish, the adaptive search, and — in the traced run only —
//! replays of the layer calls those public entry points make internally.

use crate::env::Stopwatch;
use crate::report::Report;
use crate::stats::{fnv, median, FNV_OFFSET};
use crate::trace::Tracer;
use acic::journal::{self, JournalEntry, JournalWriter};
use acic::space::SpacePoint;
use acic::store::hash_samples;
use acic::training::CollectOptions;
use acic::{CommitConfig, Objective, Predictor, PublishedSnapshot, Store, Trainer};
use acic_cart::{CompiledModel, Model, ModelKind};
use acic_search::{run_search, Budget, SearchConfig, Strategy};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The paper-ranking campaign spans the top 11 dimensions (6384 points).
pub const DIMS: usize = 11;
/// Adaptive search: measurements proposed per round.
pub const SEARCH_BATCH: usize = 32;

/// Remove and recreate `dir`.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)
}

/// Fingerprints of everything a campaign leaves behind; two runs of one
/// seed must agree on all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignBytes {
    pub journal: u64,
    pub db_text: u64,
    pub manifest: u64,
    pub snapshot: u64,
}

/// One journaled campaign plus its publish.  Times are unshared seconds
/// ([`crate::env::Lap::s`]).
pub struct CampaignRun {
    pub collect_s: f64,
    pub publish_s: f64,
    pub bytes: CampaignBytes,
    pub db_text: String,
    pub predictor: Predictor,
    pub db: acic::TrainingDb,
    pub skipped: usize,
    pub sim_runs: u64,
    pub pool_misses: u64,
    pub group_commits: usize,
    pub wal_batches: usize,
}

fn read_fnv(path: &Path) -> Result<u64, String> {
    fs::read(path)
        .map(|b| fnv(FNV_OFFSET, &b))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Collect `points` with a checkpoint journal into a fresh durable store
/// (sync on, default commit batch), then publish: open → compact → hash →
/// CART fit and compile → snapshot write.
pub fn campaign(
    trainer: &Trainer,
    points: &[SpacePoint],
    dir: &Path,
    tr: &mut Tracer,
) -> Result<CampaignRun, String> {
    fresh_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal_path = dir.join("journal.log");
    let store_dir = dir.join("store");
    let snapshot_path = dir.join("snapshot.txt");
    // The default commit plane: batch 32, sync on.
    let commit = CommitConfig::default();
    let opts = CollectOptions {
        journal: Some(&journal_path),
        commit,
        ..Default::default()
    };
    let id = trainer.campaign_id(points);
    let mut store = Store::open(&store_dir).map_err(|e| e.to_string())?;

    let root = tr.open("campaign.iteration", 0);
    let arena = acic_cloudsim::arena::stats();
    let t = Stopwatch::start();
    let col = tr.span("training.collect_with", 0, || {
        trainer.collect_with(points, &opts)
    });
    let arena_after = acic_cloudsim::arena::stats();
    let col = col.map_err(|e| e.to_string())?;
    let ingest = tr
        .span("store.ingest", 0, || {
            store.ingest_collection_with(&id, &col, commit)
        })
        .map_err(|e| e.to_string())?;
    let collect = t.lap();
    drop(store);

    let t = Stopwatch::start();
    let publish = tr.open("publish", 0);
    let mut store = tr
        .span("store.open", 0, || Store::open(&store_dir))
        .map_err(|e| e.to_string())?;
    tr.span("store.compact", 0, || store.compact())
        .map_err(|e| e.to_string())?;
    let (samples, hash) = tr.span("store.hash", 0, || {
        let samples = store.canonical();
        let hash = hash_samples(&samples);
        (samples, hash)
    });
    let seed = trainer.seed;
    let snapshot = PublishedSnapshot {
        hash,
        seed,
        model: ModelKind::Cart,
        samples,
    };
    let db = snapshot.to_training_db();
    let predictor = tr
        .span("predictor.train", 0, || {
            Predictor::train_with(&db, seed, ModelKind::Cart)
        })
        .map_err(|e| e.to_string())?;
    tr.span("snapshot.write", 0, || snapshot.write(&snapshot_path))
        .map_err(|e| e.to_string())?;
    tr.close(publish);
    let publish = t.lap();
    tr.close(root);

    let db_text = col.db.to_text();
    let bytes = CampaignBytes {
        journal: read_fnv(&journal_path)?,
        db_text: fnv(FNV_OFFSET, db_text.as_bytes()),
        manifest: read_fnv(&store_dir.join("MANIFEST"))?,
        snapshot: read_fnv(&snapshot_path)?,
    };
    Ok(CampaignRun {
        collect_s: collect.s(),
        publish_s: publish.s(),
        bytes,
        db_text,
        predictor,
        db,
        skipped: col.report.skipped.len(),
        sim_runs: arena_after.runs - arena.runs,
        pool_misses: arena_after.pool_misses - arena.pool_misses,
        group_commits: col.report.group_commits,
        wal_batches: ingest.batches,
    })
}

/// Record a campaign's end-to-end samples (unless it was a warm-up) and
/// its failures.
pub fn record_campaign(r: &mut Report, points: usize, run: &CampaignRun, warmup: bool) {
    if !warmup {
        r.rate("campaign.points_per_s", points as f64, run.collect_s);
        r.sample("publish_s", run.publish_s);
    }
    r.count(points as u64, run.skipped as u64);
}

/// Repeated campaigns of one seed must leave identical bytes behind.
pub fn check_campaign_bytes(r: &mut Report, runs: &[CampaignBytes]) {
    let first = runs[0];
    for (what, differs) in [
        ("journal", runs.iter().any(|b| b.journal != first.journal)),
        (
            "database text",
            runs.iter().any(|b| b.db_text != first.db_text),
        ),
        (
            "store MANIFEST",
            runs.iter().any(|b| b.manifest != first.manifest),
        ),
        (
            "published snapshot",
            runs.iter().any(|b| b.snapshot != first.snapshot),
        ),
    ] {
        r.check(
            format!(
                "campaign {what} identical across {} runs of the seed",
                runs.len()
            ),
            !differs,
        );
    }
}

/// The database text must not depend on the journal.
pub fn check_journal_free(r: &mut Report, trainer: &Trainer, points: &[SpacePoint], db_text: &str) {
    let oracle = trainer.collect_with(points, &CollectOptions::default());
    let same = oracle.map(|c| c.db.to_text() == db_text).unwrap_or(false);
    r.check(
        "campaign database text equals a journal-free collect_with",
        same,
    );
}

/// Layer replays behind one campaign (traced run only, off the blocking
/// path): every point's and baseline's `IorConfig::workload` and
/// `fsim::Executor::run` on its `IoSystem`, the journal rewritten entry by
/// entry through `JournalWriter`, and the CART fit split from its compile.
pub fn replay_campaign_layers(
    r: &mut Report,
    tr: &mut Tracer,
    trainer: &Trainer,
    points: &[SpacePoint],
    run: &CampaignRun,
    dir: &Path,
) -> Result<(), String> {
    // iobench + fsim (which drives cloudsim): one call per point, and one
    // per distinct baseline app half, the way the campaign issues them.
    let mut apps: Vec<acic::AppPoint> = Vec::new();
    for p in points {
        if !apps.iter().any(|a| a == &p.app) {
            apps.push(p.app);
        }
    }
    let baseline = acic::SystemConfig::baseline();
    let jobs = points
        .iter()
        .map(|p| (p.system, p.app))
        .chain(apps.iter().map(|&a| (baseline, a)));
    for (i, (system, app)) in jobs.enumerate() {
        let sys = system.to_io_system(app.nprocs);
        let cfg = app.to_ior();
        let workload = tr.span("iobench.workload", i as u64, || cfg.workload());
        let exec = acic_fsim::Executor::new(sys);
        let out = tr.span("fsim.run", i as u64, || {
            exec.run(&workload, trainer.seed ^ i as u64)
        });
        out.map_err(|e| format!("fsim replay of job {i}: {e}"))?;
    }
    let us = |name| {
        tr.aggregate(name)
            .and_then(|a| median(a.durations.samples()))
            .unwrap_or(f64::NAN)
            / 1e3
    };
    r.layer("iobench.workload_us", us("iobench.workload"));
    r.layer("fsim.run_us", us("fsim.run"));
    let fsim = tr.aggregate("fsim.run").expect("fsim replayed");
    r.layer("fsim.run_total_ms", fsim.total_ns as f64 / 1e6);
    r.layer("fsim.run_calls", fsim.count as f64);
    r.layer("cloudsim.runs", run.sim_runs as f64);
    r.layer(
        "cloudsim.pool_miss_ratio",
        run.pool_misses as f64 / run.sim_runs.max(1) as f64,
    );
    r.layer(
        "campaign.sim_runs_per_point",
        run.sim_runs as f64 / points.len() as f64,
    );

    // Journal: rewrite the campaign's entries through a fresh writer.
    let id = trainer.campaign_id(points);
    let original = dir.join("journal.log");
    let copy = dir.join("journal-replay.log");
    let _ = fs::remove_file(&copy);
    let state = journal::load(&original, &id).map_err(|e| e.to_string())?;
    let entries: Vec<&JournalEntry> = state.entries.values().collect();
    let commit = CommitConfig::default();
    let t = Instant::now();
    let stats = tr.span("journal.append", 0, || -> Result<_, acic::AcicError> {
        let w = JournalWriter::create_with(&copy, &id, commit)?;
        for (seq, e) in entries.iter().enumerate() {
            w.append_seq(seq as u64, e);
        }
        w.finish()
    });
    let append_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = stats.map_err(|e| e.to_string())?;
    r.check(
        "journal replay through JournalWriter reproduces the campaign journal",
        fs::read(&copy).ok() == fs::read(&original).ok(),
    );
    r.layer("journal.append_ms", append_ms);
    r.layer("journal.group_commits", run.group_commits as f64);
    r.layer(
        "journal.entries_per_commit",
        stats.entries as f64 / stats.group_commits.max(1) as f64,
    );
    r.layer("store.wal_batches", run.wal_batches as f64);

    // CART: fit and compile apart, per objective, on the published db.
    // Predictor::train_with seeds the cost model with `seed ^ 1`.
    for (objective, seed) in [
        (Objective::Performance, trainer.seed),
        (Objective::Cost, trainer.seed ^ 1),
    ] {
        let data = run.db.to_dataset(objective);
        let model = tr.span("cart.fit", 0, || Model::fit(&data, ModelKind::Cart, seed));
        tr.span("cart.compile", 0, || CompiledModel::compile(&model));
    }
    let ms = |name| {
        tr.aggregate(name)
            .map_or(f64::NAN, |a| a.total_ns as f64 / 1e6)
    };
    r.layer("cart.fit_ms", ms("cart.fit"));
    r.layer("cart.compile_ms", ms("cart.compile"));
    Ok(())
}

/// Per-iteration means of the publish and ingest spans (traced run).
pub fn record_campaign_spans(r: &mut Report, tr: &Tracer) {
    let mean_ms = |name| {
        tr.aggregate(name).map_or(f64::NAN, |a| {
            a.total_ns as f64 / a.count.max(1) as f64 / 1e6
        })
    };
    for (metric, span) in [
        ("store.ingest_ms", "store.ingest"),
        ("store.open_ms", "store.open"),
        ("store.compact_ms", "store.compact"),
        ("store.hash_ms", "store.hash"),
        ("predictor.train_ms", "predictor.train"),
        ("store.snapshot_write_ms", "snapshot.write"),
    ] {
        r.layer(metric, mean_ms(span));
    }
}

pub struct SearchRun {
    /// Unshared seconds ([`crate::env::Lap::s`]).
    pub search_s: f64,
    pub plan: String,
    pub rounds: Vec<Vec<usize>>,
    pub measurements: usize,
    pub skipped: usize,
    pub sim_runs: u64,
}

/// The default adaptive search over `points` (`acic train --search
/// bandit`): a budget of 10% of the grid, [`SEARCH_BATCH`] per round, no
/// journal.
pub fn search(
    trainer: &Trainer,
    points: &[SpacePoint],
    tr: &mut Tracer,
) -> Result<SearchRun, String> {
    let budget = Budget::measurements(points.len().div_ceil(10)).with_batch(SEARCH_BATCH);
    let cfg = SearchConfig::new(Strategy::Bandit, budget, Objective::Performance);
    let arena = acic_cloudsim::arena::stats();
    let t = Stopwatch::start();
    let out = tr
        .span("search.run", 0, || run_search(trainer, points, &cfg))
        .map_err(|e| e.to_string())?;
    let search_s = t.lap().s();
    let sim_runs = acic_cloudsim::arena::stats().runs - arena.runs;
    Ok(SearchRun {
        search_s,
        plan: out.plan.render(),
        rounds: out.plan.rounds.iter().map(|r| r.proposed.clone()).collect(),
        measurements: out.plan.measurements(),
        skipped: out.collection.report.skipped.len(),
        sim_runs,
    })
}

pub fn record_search(r: &mut Report, run: &SearchRun, warmup: bool) {
    if !warmup {
        r.sample("search_s", run.search_s);
    }
    r.count(run.measurements as u64, run.skipped as u64);
}

/// Split traced searches into planning and collection by replaying the
/// executed plan's rounds — each round's cumulative subset — through
/// `Trainer::collect_with`, the way `run_search` collects them.  Planning
/// is the median traced `run_search` time minus the replayed collection;
/// returns that median (ms).
pub fn replay_search_layers(
    r: &mut Report,
    tr: &mut Tracer,
    trainer: &Trainer,
    points: &[SpacePoint],
    run: &SearchRun,
) -> Result<f64, String> {
    let search_ms = tr
        .aggregate("search.run")
        .and_then(|a| median(a.durations.samples()))
        .map_or(run.search_s * 1e3, |ns| ns / 1e6);
    let mut subset: Vec<usize> = Vec::new();
    let t = Instant::now();
    for (i, round) in run.rounds.iter().enumerate() {
        subset.extend(round);
        subset.sort_unstable();
        let opts = CollectOptions {
            subset: Some(&subset),
            ..Default::default()
        };
        tr.span("search.collect_round", i as u64, || {
            trainer.collect_with(points, &opts)
        })
        .map_err(|e| e.to_string())?;
    }
    let collect_ms = t.elapsed().as_secs_f64() * 1e3;
    r.layer("search.collect_ms", collect_ms);
    r.layer("search.plan_ms", (search_ms - collect_ms).max(0.0));
    r.layer("search.rounds", run.rounds.len() as f64);
    r.layer("search.measurements", run.measurements as f64);
    r.layer("search.sim_runs", run.sim_runs as f64);
    r.layer(
        "search.sim_runs_per_measurement",
        run.sim_runs as f64 / run.measurements.max(1) as f64,
    );
    Ok(search_ms)
}

/// Where a workload keeps its files: inside the checkout, one directory
/// per process so concurrent runs never share a store.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
}
