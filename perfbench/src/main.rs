//! Lifecycle benchmark of the ACIC reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload campaign|search|serve_hot|serve_cold|all] [--seed N] \
//!     [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs its set-up, then spends `--seconds` measuring: most
//! of it on its own phase, the rest on the lifecycle stages it does not
//! exercise itself (so every run reports every metric).  Times are taken
//! in unshared time, with what the hypervisor stole taken out (see
//! `env`).  It checks every output, and prints each metric with unit,
//! sample count, median and spread, the checks, the environment, and as
//! the last line one JSON result.  `--trace 1` runs
//! the same work with spans around every call into the program's layers
//! and reports the per-layer metrics instead of the end-to-end ones.
//! See `perfbench/README.md`.

mod env;
mod lifecycle;
mod report;
mod serve;
mod stats;
mod trace;

use acic::{Predictor, Trainer};
use acic_cart::ModelKind;
use env::Stopwatch;
use lifecycle::{fresh_dir, CampaignRun, DIMS};
use report::Report;
use serve::Service;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["campaign", "search", "serve_hot", "serve_cold"];
/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 20131117;
/// Set-up is repeated this many times per run; `setup_s` is the mean.
/// A serve set-up runs a whole campaign, so it is repeated fewer times.
const SETUP_REPS: usize = 40;
const SERVE_SETUP_REPS: usize = 5;
/// Share (percent) of `--seconds` spent on the workload's own phase.  The
/// rest goes to the lifecycle stages the workload does not exercise
/// itself: the result line carries every end-to-end metric on every
/// workload.
const OWN_PERCENT: u32 = 60;
/// Fewest repeats of a campaign or search in any phase.
const MIN_REPS: usize = 3;
/// Hot swaps during a `serve_cold` window.
const COLD_PUBLISHES: u64 = 3;
/// Span records kept for the trace file (totals cover every span).
const TRACE_RECORDS: usize = 1 << 17;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One workload's run: its tracer, its report, its files.
struct Run {
    seed: u64,
    traced: bool,
    budget: Duration,
    dir: PathBuf,
    tr: Tracer,
    r: Report,
    /// Mean blocking-path time of one unit of the workload's own phase,
    /// untraced and traced, for the tracing overhead.
    unit_s: [Vec<f64>; 2],
    /// Speed-probe times (ns) taken between units of work.
    probes: Vec<f64>,
}

impl Run {
    fn trainer(&self) -> Trainer {
        Trainer::with_paper_ranking(self.seed)
    }

    /// Take the host's speed between two units of work.
    fn probe(&mut self) {
        self.probes.push(env::speed_probe_ns());
    }

    /// Express the run's end-to-end times at the reference host speed: the
    /// reference probe time over the run's median probe time.
    fn record_host_speed(&mut self) {
        if let Some(p) = stats::median(&self.probes) {
            let speed = env::PROBE_REFERENCE_NS / p;
            self.r.set_host_speed(speed);
            self.r.note(format!(
                "host speed {speed:.3} of the reference: speed probe median {:.3} ms over {} \
                 probes (reference {:.3} ms)",
                p / 1e6,
                self.probes.len(),
                env::PROBE_REFERENCE_NS / 1e6
            ));
        }
    }

    /// Measuring time of the workload's own phase.
    fn own_budget(&self) -> Duration {
        self.budget * OWN_PERCENT / 100
    }

    /// Measuring time left for the other lifecycle stages.
    fn rest_budget(&self) -> Duration {
        self.budget - self.own_budget()
    }

    /// Sample the grid, under a span.
    fn points(&mut self, trainer: &Trainer) -> Vec<acic::space::SpacePoint> {
        self.tr
            .span("space.sample_points", 0, || trainer.sample_points(DIMS))
    }

    /// The workload's own phase is timed in units (a campaign, a search, a
    /// serve window).  A traced run spends the first half of its budget
    /// untraced and the second traced, so tracing overhead is measured in
    /// one process.
    fn phase_traced(&self, started: Instant) -> bool {
        self.traced && started.elapsed() >= self.own_budget() / 2
    }

    /// The set-up of `campaign` and `search`: grid sampling (and for the
    /// campaign a fresh work directory), [`SETUP_REPS`] times.  It runs on
    /// this thread alone, so each repeat is timed on the thread's CPU
    /// clock, which the guest kernel keeps free of stolen time.
    fn sampling_setup(&mut self, fresh: bool) -> Result<Vec<acic::space::SpacePoint>, String> {
        let trainer = self.trainer();
        let mut points = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = env::thread_cpu_ns();
            points = self.points(&trainer);
            if fresh {
                fresh_dir(&self.dir).map_err(|e| e.to_string())?;
            }
            self.r
                .sample("setup_s", (env::thread_cpu_ns() - t) as f64 / 1e9);
        }
        self.record_sample_points();
        Ok(points)
    }

    fn record_sample_points(&mut self) {
        if let Some(a) = self.tr.aggregate("space.sample_points") {
            let ms = a.total_ns as f64 / a.count as f64 / 1e6;
            self.r.layer("space.sample_points_ms", ms);
        }
    }

    /// Self times along the blocking path of the workload's own phase,
    /// by span name under `root`, plus the residual (the root's own self
    /// time) and the tracing overhead.
    fn record_blocking_path(&mut self, root: &'static str, children: &[&'static str]) {
        let Some(top) = self.tr.aggregate(root) else {
            return;
        };
        let total = top.total_ns as f64;
        let mut lines = vec![format!(
            "blocking path of {root}: {:.1} ms over {} unit(s), self times:",
            total / 1e6,
            top.count
        )];
        let mut accounted = 0.0;
        for c in children {
            if let Some(a) = self.tr.aggregate(c) {
                accounted += a.self_ns as f64;
                lines.push(format!(
                    "  {c:<24} {:>10.1} ms self {:>5.1}%  ({} calls)",
                    a.self_ns as f64 / 1e6,
                    100.0 * a.self_ns as f64 / total,
                    a.count
                ));
            }
        }
        let residual = top.self_ns as f64;
        lines.push(format!(
            "  {:<24} {:>10.1} ms self {:>5.1}%  (benchmark code between calls)",
            "residual",
            residual / 1e6,
            100.0 * residual / total
        ));
        lines.push(format!(
            "  children + residual = {:.1}% of {root}",
            100.0 * (accounted + residual) / total
        ));
        self.r.layer("trace.blocking_ms", total / 1e6);
        self.r.layer("trace.residual_share", residual / total);
        self.record_overhead();
        for l in lines {
            self.r.note(l);
        }
    }

    fn record_overhead(&mut self) {
        let [plain, traced] = &self.unit_s;
        if let (Some(a), Some(b)) = (stats::median(plain), stats::median(traced)) {
            self.r.layer("trace.overhead_share", b / a - 1.0);
            self.r.note(format!(
                "tracing overhead: traced unit {:.3} ms vs untraced {:.3} ms ({:+.1}%, {} vs {} units)",
                b * 1e3,
                a * 1e3,
                100.0 * (b / a - 1.0),
                traced.len(),
                plain.len()
            ));
        }
    }

    fn finish_trace(&mut self, workload: &str) {
        self.r.layer(
            "trace.spans",
            self.tr.aggregates().values().map(|a| a.count).sum::<u64>() as f64,
        );
        let path = Path::new(".bench_work").join(format!("trace-{workload}-{}.tsv", self.seed));
        match std::fs::write(&path, self.tr.render_records()) {
            Ok(()) => self.r.note(format!(
                "{} span records written to {}",
                self.tr.records().len(),
                path.display()
            )),
            Err(e) => self.r.note(format!("span records not written: {e}")),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let set = env::overridden();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {set:?} set: the benchmark measures the production \
             defaults (unset them)"
        );
        std::process::exit(2);
    }
    match run_all(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            let _ = std::fs::remove_dir_all(lifecycle::work_root());
            std::process::exit(1);
        }
    }
}

fn run_all(args: &Args) -> Result<String, String> {
    let work = lifecycle::work_root();
    fresh_dir(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let environment = env::Environment::probe(&work);
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for &w in &workloads {
        if workloads.len() > 1 {
            env::reset_peak_rss();
        }
        let mut run = Run {
            seed: args.seed,
            traced: args.trace,
            budget: Duration::from_secs(args.seconds),
            dir: work.join(w),
            tr: Tracer::new(false, TRACE_RECORDS),
            r: Report::default(),
            unit_s: [Vec::new(), Vec::new()],
            probes: Vec::new(),
        };
        eprintln!(
            "perfbench: {w} seed {} for {} s (trace {})",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        run.probe();
        match w {
            "campaign" => campaign(&mut run)?,
            "search" => search(&mut run)?,
            "serve_hot" => serve_workload(&mut run, serve::HOT_POOL, 0)?,
            _ => serve_workload(&mut run, serve::COLD_POOL, COLD_PUBLISHES)?,
        }
        run.probe();
        run.record_host_speed();
        if args.trace {
            run.r.layer("store.fsync_us", environment.fsync_us);
            run.finish_trace(w);
        }
        let r = &mut run.r;
        let declared: &[(&str, &str)] = if args.trace {
            &report::PER_LAYER
        } else {
            &report::END_TO_END
        };
        let missing: Vec<&str> = declared
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| {
                if args.trace {
                    !r.has_layer(n)
                } else {
                    !r.has(n)
                }
            })
            .collect();
        r.check(
            format!("every declared metric measured (missing: {missing:?})"),
            missing.is_empty(),
        );
        print!("{}", r.render(w, args.trace));
        correct &= r.correct();
        attempted += r.attempted;
        failed += r.failed;
        let prefix = if workloads.len() > 1 {
            format!("{w}.")
        } else {
            String::new()
        };
        r.json_metrics(args.trace, &prefix, &mut metrics);
    }
    println!("env {}", environment.render());
    let _ = std::fs::remove_dir_all(&work);
    // Only removes the parent when nothing else (a trace file) is in it.
    let _ = std::fs::remove_dir(".bench_work");
    Ok(report::result_line(correct, attempted, failed, &metrics))
}

/// `campaign`: the dims-11 journaled campaign into a fresh store and its
/// publish, repeated for the budget.
fn campaign(run: &mut Run) -> Result<(), String> {
    let trainer = run.trainer();
    run.tr.set_on(run.traced);
    let points = run.sampling_setup(true)?;

    let started = Instant::now();
    let mut bytes = Vec::new();
    let mut last: Option<CampaignRun> = None;
    // The first campaign warms the simulator pools and the page cache; it
    // is checked and counted but not timed.
    while started.elapsed() < run.own_budget() || bytes.len() < MIN_REPS {
        let traced = run.phase_traced(started);
        run.tr.set_on(traced);
        drop(last.take());
        run.probe();
        let c = lifecycle::campaign(&trainer, &points, &run.dir, &mut run.tr)?;
        run.tr.set_on(false);
        let warmup = bytes.is_empty();
        lifecycle::record_campaign(&mut run.r, points.len(), &c, warmup);
        if !warmup {
            run.unit_s[usize::from(traced)].push(c.collect_s + c.publish_s);
        }
        bytes.push(c.bytes);
        last = Some(c);
    }
    run.r.derived("peak_rss_mb", env::peak_rss_mib(), 1);
    let last = last.expect("at least one campaign");
    lifecycle::check_campaign_bytes(&mut run.r, &bytes);
    lifecycle::check_journal_free(&mut run.r, &trainer, &points, &last.db_text);
    run.tr.set_on(run.traced);
    if run.traced {
        lifecycle::record_campaign_spans(&mut run.r, &run.tr);
        run.record_blocking_path(
            "campaign.iteration",
            &[
                "training.collect_with",
                "store.ingest",
                "publish",
                "store.open",
                "store.compact",
                "store.hash",
                "predictor.train",
                "snapshot.write",
            ],
        );
        lifecycle::replay_campaign_layers(
            &mut run.r,
            &mut run.tr,
            &trainer,
            &points,
            &last,
            &run.dir,
        )?;
    }
    let rest = run.rest_budget();
    companion_search(run, &trainer, &points, rest / 2)?;
    companion_serve(run, last.predictor, last.db.len(), rest / 2)
}

/// `search`: the default bandit search over the dims-11 grid, repeated for
/// the budget; the rendered plan must not change between repeats.
fn search(run: &mut Run) -> Result<(), String> {
    let trainer = run.trainer();
    run.tr.set_on(run.traced);
    let points = run.sampling_setup(false)?;

    let started = Instant::now();
    let mut plans: Vec<String> = Vec::new();
    let mut last = None;
    let mut repeats = 0;
    // The first search is a warm-up: checked and counted, not timed.
    while started.elapsed() < run.own_budget() || repeats < MIN_REPS {
        let traced = run.phase_traced(started);
        run.probe();
        run.tr.set_on(traced);
        let s = lifecycle::search(&trainer, &points, &mut run.tr)?;
        run.tr.set_on(false);
        let warmup = repeats == 0;
        lifecycle::record_search(&mut run.r, &s, warmup);
        if !warmup {
            run.unit_s[usize::from(traced)].push(s.search_s);
        }
        repeats += 1;
        if !plans.contains(&s.plan) {
            plans.push(s.plan.clone());
        }
        last = Some(s);
    }
    run.r.derived("peak_rss_mb", env::peak_rss_mib(), 1);
    run.r.check(
        format!("search: rendered Plan identical across {repeats} runs of the seed"),
        plans.len() == 1,
    );
    let last = last.expect("at least one search");
    run.tr.set_on(run.traced);
    if run.traced {
        let search_ms =
            lifecycle::replay_search_layers(&mut run.r, &mut run.tr, &trainer, &points, &last)?;
        run.r.note(
            "blocking path of search.run: search.collect_ms is replayed, search.plan_ms is the \
             remainder, so the residual is zero by construction"
                .into(),
        );
        run.r.layer("trace.blocking_ms", search_ms);
        run.r.layer("trace.residual_share", 0.0);
        run.record_overhead();
    }
    // The lifecycle around the search: campaigns and their publish, then
    // a serve window on what they published.
    let rest = run.rest_budget();
    let c = companion_campaigns(run, &trainer, &points, rest / 2)?;
    companion_serve(run, c.predictor, c.db.len(), rest / 2)
}

/// `serve_hot` / `serve_cold`: a single-node server on the model the
/// workload seed's campaign publishes, driven by the closed loop over a
/// `pool`-request working set, with `publishes` hot swaps mid-window.
fn serve_workload(run: &mut Run, pool: usize, publishes: u64) -> Result<(), String> {
    let trainer = run.trainer();
    let stream = serve::stream(run.seed, pool);
    let mut service: Option<Service> = None;
    let mut republish = Vec::new();
    let mut bytes = Vec::new();
    let mut points = Vec::new();
    run.tr.set_on(run.traced);
    for rep in 0..SERVE_SETUP_REPS {
        // Each set-up starts from the same memory state.
        drop(service.take());
        republish.clear();
        run.probe();
        let t = Stopwatch::start();
        points = run.points(&trainer);
        let c = lifecycle::campaign(&trainer, &points, &run.dir, &mut run.tr)?;
        // One set of hot-swap predictors per window (two in a traced run).
        let windows = if run.traced { 2 } else { 1 };
        republish = (1..=publishes * windows)
            .map(|k| Predictor::train_with(&c.db, run.seed.wrapping_add(k), ModelKind::Cart))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        service = Some(Service::start(
            c.predictor.clone(),
            c.db.len(),
            &stream,
            pool.min(4096),
        )?);
        run.r.sample("setup_s", t.lap().s());
        // The first campaign of the process warms the simulator pools.
        lifecycle::record_campaign(&mut run.r, points.len(), &c, rep == 0);
        bytes.push(c.bytes);
    }
    run.tr.set_on(false);
    run.record_sample_points();
    let mut service = service.expect("a started server");
    lifecycle::check_campaign_bytes(&mut run.r, &bytes);

    // Own phase: an untraced window, and in the traced run a second,
    // traced window of the same length (the untraced one is the overhead
    // baseline).
    let halves: &[bool] = if run.traced { &[false, true] } else { &[false] };
    let mut first = 0u64;
    for &traced in halves {
        let window = run.own_budget() / halves.len() as u32;
        run.tr.set_on(traced);
        let swaps = republish.split_off(republish.len() - publishes as usize);
        run.probe();
        let w = serve::closed_loop(&mut service, &stream, first, window, swaps, &mut run.tr);
        run.tr.set_on(false);
        run.probe();
        run.unit_s[usize::from(traced)].push(w.lap.s() / w.answered.max(1) as f64);
        if traced {
            run.r.count(w.answered + w.failed, w.failed);
        } else {
            serve::record_window(&mut run.r, &w);
            run.r.derived("peak_rss_mb", env::peak_rss_mib(), 1);
        }
        serve::verify(
            &mut run.r,
            if traced { "traced window" } else { "window" },
            &service,
            &stream,
            first,
            &w,
        );
        if traced {
            run.tr.set_on(true);
            serve::record_layers(&mut run.r, &mut run.tr, &mut service, &stream, &w);
        }
        first += w.submitted;
    }
    if run.traced {
        run.record_blocking_path(
            "serve.window",
            &["serve.submit", "serve.wait", "serve.check", "serve.publish"],
        );
    }
    service.server.shutdown();
    let rest = run.rest_budget();
    companion_campaigns(run, &trainer, &points, rest / 2)?;
    companion_search(run, &trainer, &points, rest / 2)
}

/// The campaign stage for `share` of the budget, for a workload whose own
/// phase is not campaigns; every campaign must leave the same bytes.
fn companion_campaigns(
    run: &mut Run,
    trainer: &Trainer,
    points: &[acic::space::SpacePoint],
    share: Duration,
) -> Result<CampaignRun, String> {
    run.tr.set_on(run.traced);
    let started = Instant::now();
    let mut c = None;
    let mut bytes = Vec::new();
    while started.elapsed() < share || bytes.len() < MIN_REPS {
        drop(c.take());
        run.probe();
        let next = lifecycle::campaign(trainer, points, &run.dir, &mut run.tr)?;
        lifecycle::record_campaign(&mut run.r, points.len(), &next, false);
        bytes.push(next.bytes);
        c = Some(next);
    }
    lifecycle::check_campaign_bytes(&mut run.r, &bytes);
    let c = c.expect("at least one campaign");
    if run.traced {
        lifecycle::record_campaign_spans(&mut run.r, &run.tr);
        lifecycle::replay_campaign_layers(&mut run.r, &mut run.tr, trainer, points, &c, &run.dir)?;
    }
    Ok(c)
}

/// The search stage for `share` of the budget, for a workload that does
/// not search by itself; the rendered plan must not change.
fn companion_search(
    run: &mut Run,
    trainer: &Trainer,
    points: &[acic::space::SpacePoint],
    share: Duration,
) -> Result<(), String> {
    run.tr.set_on(run.traced);
    let started = Instant::now();
    let mut plans: Vec<String> = Vec::new();
    let mut last = None;
    while started.elapsed() < share || plans.len() < MIN_REPS {
        run.probe();
        let s = lifecycle::search(trainer, points, &mut run.tr)?;
        lifecycle::record_search(&mut run.r, &s, false);
        plans.push(s.plan.clone());
        last = Some(s);
    }
    run.r.check(
        format!(
            "search: rendered Plan identical across {} runs of the seed",
            plans.len()
        ),
        plans.iter().all(|p| *p == plans[0]),
    );
    if run.traced {
        let last = last.expect("at least one search");
        lifecycle::replay_search_layers(&mut run.r, &mut run.tr, trainer, points, &last)?;
    }
    Ok(())
}

/// A `share`-long serve_hot-shaped window on `predictor`, for a workload
/// that does not serve by itself.
fn companion_serve(
    run: &mut Run,
    predictor: Predictor,
    db_points: usize,
    share: Duration,
) -> Result<(), String> {
    let stream = serve::stream(run.seed, serve::HOT_POOL);
    let mut service = Service::start(predictor, db_points, &stream, serve::HOT_POOL)?;
    run.tr.set_on(run.traced);
    run.probe();
    let w = serve::closed_loop(&mut service, &stream, 0, share, Vec::new(), &mut run.tr);
    run.probe();
    serve::record_window(&mut run.r, &w);
    serve::verify(&mut run.r, "companion window", &service, &stream, 0, &w);
    if run.traced {
        serve::record_layers(&mut run.r, &mut run.tr, &mut service, &stream, &w);
    }
    service.server.shutdown();
    Ok(())
}
