//! The serving side of the lifecycle, driven through `acic-serve`'s public
//! API: a single-node `Server` with the default `ServeConfig`, loaded by
//! one generator thread in a closed loop that keeps a fixed window of
//! requests in flight, and the checks and layer probes around it.  The
//! generator and the server's worker share one pinned CPU, so the steal
//! of that CPU alone is what a window's time is discounted by.

use crate::env;
use crate::report::Report;
use crate::stats::{fnv, median, FnvHasher, LatencyHistogram, FNV_OFFSET};
use crate::trace::Tracer;
use acic::{CacheKey, Metrics, Predictor, SystemConfig};
use acic_serve::cluster::harness::Trace;
use acic_serve::{CachedTopK, ModelSnapshot, ResultCache, ServeConfig, Server};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::mem::discriminant;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests kept in flight by the generator.
const WINDOW: usize = 32;
/// Every this many requests, one is also timed on the process CPU clock
/// (a read costs ~0.4 µs, too much for every ~2 µs request).
const CPU_TIMED_EVERY: u64 = 16;
/// Working set of `serve_hot`: far below the cache capacity.
pub const HOT_POOL: usize = 64;
/// Working set of `serve_cold`: far above the cache capacity.
pub const COLD_POOL: usize = 100_000;

/// The workload's request stream: the cluster harness's seeded trace over
/// a `pool`-request working set; request `i` is `trace.request(i)`.
pub fn stream(seed: u64, pool: usize) -> Trace {
    Trace::with_pool(seed, 0, pool)
}

/// Pins the calling thread to [`env::serve_cpu`] while it lives, then
/// gives it every CPU back.
struct Pinned;

impl Pinned {
    fn new() -> Self {
        let cpu = env::serve_cpu();
        env::pin(cpu..cpu + 1);
        Self
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        env::pin(0..env::nproc());
    }
}

/// A started server and every snapshot generation it has served, so
/// answers can be checked against the generation that produced them.
pub struct Service {
    pub server: Server,
    snapshots: Vec<Arc<ModelSnapshot>>,
    db_points: usize,
}

impl Service {
    /// Start with the default configuration and warm the cache with the
    /// first `warm` requests of the pool.
    pub fn start(
        predictor: Predictor,
        db_points: usize,
        stream: &Trace,
        warm: usize,
    ) -> Result<Self, String> {
        // The worker inherits the generator's CPU.
        let _pinned = Pinned::new();
        let server = Server::start(predictor, db_points, ServeConfig::default(), Metrics::new())
            .map_err(|e| e.to_string())?;
        let h = server.handle();
        for req in stream.pool().iter().take(warm) {
            h.query(*req).map_err(|e| format!("warm-up: {e}"))?;
        }
        let snapshots = vec![server.snapshot()];
        Ok(Self {
            server,
            snapshots,
            db_points,
        })
    }

    fn publish(&mut self, predictor: Predictor) -> u64 {
        let v = self.server.publish(predictor, self.db_points);
        self.snapshots.push(self.server.snapshot());
        v
    }
}

/// What one closed-loop window did.
pub struct Window {
    pub answered: u64,
    pub failed: u64,
    /// Submit-to-reply latency (ns) of every [`CPU_TIMED_EVERY`]th
    /// request on the process CPU clock, and of every failed request.
    latency: LatencyHistogram,
    /// Every request's submit-to-reply wall latency (ns).
    wall_latency: LatencyHistogram,
    /// The window's wall time and the steal on the serving CPU.
    pub lap: env::Lap,
    /// First request index admitted on each generation.
    boundaries: Vec<(u64, u64)>,
    failed_ids: Vec<u64>,
    pub submitted: u64,
    wrong_version: u64,
    served_digest: u64,
}

impl Window {
    /// The generation request `i` was admitted on.
    fn version_of(&self, i: u64) -> u64 {
        self.boundaries
            .iter()
            .rev()
            .find(|(from, _)| *from <= i)
            .map_or(0, |b| b.1)
    }

    fn fail(&mut self, i: u64) {
        self.failed += 1;
        self.failed_ids.push(i);
        self.latency.push_failed();
        self.wall_latency.push_failed();
    }
}

/// FNV over every value of a top-k payload that `render_payload` prints
/// (each configuration's fields and score bits), without formatting them:
/// formatting every reply would load the serving CPU with the benchmark's
/// own work.
fn payload_hash(top: &[(SystemConfig, f64)]) -> u64 {
    let mut h = FnvHasher(FNV_OFFSET);
    for (c, score) in top {
        discriminant(&c.device).hash(&mut h);
        discriminant(&c.fs).hash(&mut h);
        discriminant(&c.instance_type).hash(&mut h);
        discriminant(&c.placement).hash(&mut h);
        h.write_u64(c.io_servers as u64);
        h.write_u64(c.stripe_size.to_bits());
        h.write_u64(score.to_bits());
    }
    h.finish()
}

/// Digest step over one answered request: its index and its payload hash.
fn digest_step(d: u64, i: u64, payload_hash: u64) -> u64 {
    fnv(fnv(d, &i.to_le_bytes()), &payload_hash.to_le_bytes())
}

/// Drive `service` for `duration` from this thread, `WINDOW` requests in
/// flight, starting at request index `first`.  `republish` predictors are
/// hot-swapped in at evenly spaced instants.  A request's latency runs
/// from submit to reply; a failed one counts as infinite.
pub fn closed_loop(
    service: &mut Service,
    stream: &Trace,
    first: u64,
    duration: Duration,
    mut republish: Vec<Predictor>,
    tr: &mut Tracer,
) -> Window {
    let h = service.server.handle();
    let mut inflight: VecDeque<(u64, Instant, Option<u64>, acic_serve::Pending)> =
        VecDeque::with_capacity(WINDOW);
    let publishes = republish.len() as u32;
    let publish_at: Vec<Duration> = (1..=publishes)
        .map(|k| duration * k / (publishes + 1))
        .collect();
    republish.reverse();
    let mut w = Window {
        answered: 0,
        failed: 0,
        latency: LatencyHistogram::new(),
        wall_latency: LatencyHistogram::new(),
        lap: env::Lap {
            wall_s: 0.0,
            steal: 0.0,
        },
        boundaries: vec![(first, service.server.version())],
        failed_ids: Vec::new(),
        submitted: 0,
        wrong_version: 0,
        served_digest: FNV_OFFSET,
    };
    let root = tr.open("serve.window", first);
    let _pinned = Pinned::new();
    let sw = env::Stopwatch::start_on(env::serve_cpu());
    let t0 = Instant::now();
    let mut next = first;
    let mut submitting = true;
    loop {
        while submitting && inflight.len() < WINDOW {
            let now = Instant::now();
            let elapsed = now - t0;
            if elapsed >= duration {
                submitting = false;
                break;
            }
            if publish_at
                .get(publishes as usize - republish.len())
                .is_some_and(|&at| elapsed >= at)
            {
                let p = republish.pop().expect("a predictor per publish instant");
                let v = tr.span("serve.publish", next, || service.publish(p));
                w.boundaries.push((next, v));
            }
            let req = stream.request(next as usize);
            let s = tr.open("serve.submit", next);
            let cpu = next
                .is_multiple_of(CPU_TIMED_EVERY)
                .then(env::process_cpu_ns);
            let t = Instant::now();
            let pending = h.submit_blocking(req);
            tr.close(s);
            match pending {
                Ok(p) => inflight.push_back((next, t, cpu, p)),
                Err(_) => w.fail(next),
            }
            next += 1;
        }
        let Some((i, t, cpu, pending)) = inflight.pop_front() else {
            break;
        };
        let s = tr.open("serve.wait", i);
        let reply = pending.wait();
        let done = Instant::now();
        let cpu_done = cpu.map(|c| env::process_cpu_ns() - c);
        tr.close(s);
        let s = tr.open("serve.check", i);
        match reply {
            Ok(resp) => {
                w.wall_latency.push((done - t).as_nanos() as u64);
                if let Some(ns) = cpu_done {
                    w.latency.push(ns);
                }
                if resp.snapshot_version != w.version_of(i) {
                    w.wrong_version += 1;
                }
                let hash = payload_hash(&resp.top);
                w.served_digest = digest_step(w.served_digest, i, hash);
                w.answered += 1;
            }
            Err(_) => w.fail(i),
        }
        tr.close(s);
    }
    w.lap = sw.lap();
    tr.close(root);
    w.submitted = next - first;
    w
}

/// Check a window: every reply came from the generation its request was
/// admitted on, and the payload digest over answered requests equals the
/// digest of answering the same requests directly with
/// `ModelSnapshot::answer` on that generation.
pub fn verify(
    r: &mut Report,
    label: &str,
    service: &Service,
    stream: &Trace,
    first: u64,
    w: &Window,
) {
    let it = service.server.config().instance_type;
    let snapshot_of = |v: u64| service.snapshots.iter().find(|s| s.version() == v);
    let failed: HashSet<u64> = w.failed_ids.iter().copied().collect();
    let ids = (first..first + w.submitted).filter(|i| !failed.contains(i));
    let key_of = |i: u64| (stream.request(i as usize).key(it), w.version_of(i));
    let distinct: Vec<(CacheKey, u64)> = ids
        .clone()
        .map(key_of)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let hashes: Vec<Option<u64>> = distinct
        .par_iter()
        .map(|&(key, v)| Some(payload_hash(&snapshot_of(v)?.answer(&key))))
        .collect();
    let direct: HashMap<(CacheKey, u64), Option<u64>> = distinct.into_iter().zip(hashes).collect();
    let mut digest = FNV_OFFSET;
    let mut unknown = 0u64;
    for i in ids {
        match direct[&key_of(i)] {
            Some(h) => digest = digest_step(digest, i, h),
            None => unknown += 1,
        }
    }
    r.check(
        format!(
            "{label}: {} replies on the generation admitted (of {})",
            w.answered - w.wrong_version,
            w.answered
        ),
        w.wrong_version == 0 && unknown == 0,
    );
    r.check(
        format!(
            "{label}: payload digest {:016x} over {} answered requests equals ModelSnapshot::answer's {:016x}",
            w.served_digest, w.answered, digest
        ),
        digest == w.served_digest && w.answered > 0,
    );
}

/// Record a window's metrics: answered requests per unshared second of
/// the serving CPU (wall time less the share the hypervisor stole from
/// it), and the nearest-rank p50 and p99 of submit-to-reply latency on the
/// process CPU clock over every [`CPU_TIMED_EVERY`]th request (a failed
/// request counts as infinite).  The serving pair is alone on its CPU and
/// keeps it busy, so its CPU time is the wall time with the stolen time
/// taken out; the wall-clock quantiles over every request are printed
/// next to them.
pub fn record_window(r: &mut Report, w: &Window) {
    let us = |ns: Option<f64>| ns.map_or(f64::NAN, |x| x / 1e3);
    r.derived("serve.rps", w.answered as f64 / w.lap.s(), w.answered);
    let n = w.latency.len();
    r.derived("serve.p50_us", us(w.latency.quantile(0.5)), n);
    let p99 = us(w.latency.quantile_with_tail(0.99));
    r.layer("serve.p99_us", p99);
    let wall = &w.wall_latency;
    r.note(format!(
        "serve window: {} answered, {} failed in {:.3} s wall, steal {:.3} on the serving CPU; \
         serve.p99_us {p99:.3} us (n={n}); wall latency p50 {:.1} us, p99 {:.1} us{}",
        w.answered,
        w.failed,
        w.lap.wall_s,
        w.lap.steal,
        us(wall.quantile(0.5)),
        us(wall.quantile_with_tail(0.99)),
        wall.tail().map_or(String::new(), |(p, ns)| format!(
            ", p{p:.5} {:.1} us",
            ns / 1e3
        )),
    ));
    r.count(w.answered + w.failed, w.failed);
}

/// Per-layer serve metrics after a traced window: the server's own stage
/// histograms and counters, the submit spans, and standalone probes of
/// `Predictor::top_k`, a `ResultCache` of the server's shape and
/// `Server::publish`.
pub fn record_layers(
    r: &mut Report,
    tr: &mut Tracer,
    service: &mut Service,
    stream: &Trace,
    w: &Window,
) {
    let m = service.server.metrics();
    let q_us = |name: &str, q: f64| m.latency_quantile(name, q).map_or(f64::NAN, |s| s * 1e6);
    for (p50, p99, hist) in [
        (
            "serve.queue_wait_us.p50",
            "serve.queue_wait_us.p99",
            "serve.queue_wait",
        ),
        (
            "serve.predict_us.p50",
            "serve.predict_us.p99",
            "serve.predict",
        ),
        (
            "serve.cache_hit_us.p50",
            "serve.cache_hit_us.p99",
            "serve.cache_hit",
        ),
    ] {
        r.layer(p50, q_us(hist, 0.5));
        r.layer(p99, q_us(hist, 0.99));
    }
    let (_, _, hit_ratio) = service.server.cache_stats();
    r.layer("serve.cache.hit_ratio", hit_ratio);
    let shed = service.server.shed_count() as f64;
    r.layer(
        "serve.shed_ratio",
        shed / (w.answered as f64 + shed).max(1.0),
    );
    r.layer(
        "serve.requests_per_batch",
        m.counter("serve.requests_served") as f64 / m.counter("serve.batches").max(1) as f64,
    );
    let submit = tr
        .aggregate("serve.submit")
        .and_then(|a| median(a.durations.samples()));
    r.layer("serve.submit_us", submit.map_or(f64::NAN, |ns| ns / 1e3));

    // Predictor::top_k alone on the workload's distinct requests (the
    // first 4096 of a larger pool).
    let snapshot = service.server.snapshot();
    let it = service.server.config().instance_type;
    let mut top_k = Vec::new();
    for req in stream.pool().iter().take(4096) {
        let t = Instant::now();
        let answer = snapshot
            .predictor()
            .top_k(&req.app, req.objective, it, req.k);
        top_k.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(answer);
    }
    r.layer("predictor.top_k_us", median(&top_k).unwrap_or(f64::NAN));

    // A standalone cache of the server's capacity and shard count, driven
    // by the window's key sequence: get, and insert on a miss.
    let cfg = service.server.config();
    let cache = ResultCache::new(cfg.cache_capacity, cfg.cache_shards);
    let value: CachedTopK = Arc::new(snapshot.answer(&stream.request(0).key(it)));
    let (mut get_ns, mut gets, mut insert_ns, mut inserts) = (0u128, 0u64, 0u128, 0u64);
    for i in 0..w.submitted.clamp(1, 200_000) {
        let key = stream.request(i as usize).key(it);
        let t = Instant::now();
        let hit = cache.get(&key, 1);
        get_ns += t.elapsed().as_nanos();
        gets += 1;
        if hit.is_none() {
            let t = Instant::now();
            cache.insert(key, 1, Arc::clone(&value));
            insert_ns += t.elapsed().as_nanos();
            inserts += 1;
        }
    }
    r.layer("cache.get_us", get_ns as f64 / gets.max(1) as f64 / 1e3);
    r.layer(
        "cache.insert_us",
        insert_ns as f64 / inserts.max(1) as f64 / 1e3,
    );

    // Server::publish: the window's hot swaps, or one probe after it.
    let mut span = "serve.publish";
    if tr.aggregate(span).is_none() {
        span = "serve.publish_probe";
        let p = snapshot.predictor().clone();
        tr.span(span, 0, || service.publish(p));
    }
    let publish = tr.aggregate(span).expect("a publish was traced");
    r.layer(
        "snapshot.publish_us",
        publish.total_ns as f64 / publish.count as f64 / 1e3,
    );
}
