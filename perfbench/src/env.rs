//! The environment every result records, the production-default check
//! that refuses a run whose engine or thread count was overridden, and the
//! clocks that take time stolen by the hypervisor out of a measurement:
//! the `/proc/stat` steal share over a stretch of work ([`Stopwatch`]),
//! the CPU-time clocks, and pinning to one CPU.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Variables that swap the program off its production defaults: the
/// simulator engine, the inference plane, and the collection pool size.
pub const OVERRIDES: [&str; 3] = ["ACIC_SIM", "ACIC_ENGINE", "RAYON_NUM_THREADS"];

pub struct Environment {
    /// The guest's CPU times when the run started.
    cpu_at_start: CpuTimes,
    pub nproc: usize,
    pub rayon_threads: usize,
    pub fsync_us: f64,
    pub profile: &'static str,
    pub commit: String,
}

impl Environment {
    pub fn probe(work: &Path) -> Self {
        Self {
            cpu_at_start: CpuTimes::now(),
            nproc: nproc(),
            rayon_threads: rayon::current_num_threads(),
            fsync_us: probe_fsync_us(work),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: commit(),
        }
    }

    /// The environment as one JSON object.  `steal_share` is the share of
    /// the CPU time the guest wanted while the run lasted that the
    /// hypervisor gave to other guests (see [`CpuTimes`]).
    pub fn render(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rayon_threads\": {}, \"fsync_us\": {:.1}, \"profile\": \"{}\", \
             \"commit\": \"{}\", \"steal_share\": {:.4}}}",
            self.nproc,
            self.rayon_threads,
            self.fsync_us,
            self.profile,
            self.commit,
            CpuTimes::now().steal_share_since(&self.cpu_at_start)
        )
    }
}

/// The overriding variables that are set, by name.
pub fn overridden() -> Vec<&'static str> {
    OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Median microseconds of a write + `sync_data` pair in `dir`: the cost of
/// one durable commit on the filesystem the campaign writes to.
pub fn probe_fsync_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut file) = fs::File::create(&path) else {
        return f64::NAN;
    };
    let mut samples = Vec::with_capacity(32);
    for i in 0..32u32 {
        let t = Instant::now();
        if file
            .write_all(format!("probe {i}\n").as_bytes())
            .and_then(|_| file.sync_data())
            .is_err()
        {
            break;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = fs::remove_file(&path);
    crate::stats::median(&samples).unwrap_or(f64::NAN)
}

/// The commit the benchmark was built from: `git rev-parse HEAD` when the
/// checkout is a git repository, else `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Busy and stolen CPU time in jiffies, from `/proc/stat`: of every CPU
/// of the guest summed, or of one CPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    busy: u64,
    steal: u64,
}

impl CpuTimes {
    /// All CPUs together.  Zeros where `/proc/stat` cannot be read, so no
    /// time is discounted.
    pub fn now() -> Self {
        Self::read("cpu ")
    }

    /// One CPU.
    pub fn of(cpu: usize) -> Self {
        Self::read(&format!("cpu{cpu} "))
    }

    fn read(prefix: &str) -> Self {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with(prefix)) else {
            return Self::default();
        };
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        // user, nice, system, irq, softirq; then steal.
        Self {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the CPU time the guest wanted since `earlier` that the
    /// hypervisor gave to other guests: a runnable stretch of work took
    /// `1 / (1 - share)` times its unshared length.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Times a stretch of work together with the share of it the hypervisor
/// stole (see [`CpuTimes::steal_share_since`]).
pub struct Stopwatch {
    t: Instant,
    cpu: Option<usize>,
    times: CpuTimes,
}

/// What a [`Stopwatch`] read.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub wall_s: f64,
    pub steal: f64,
}

impl Lap {
    /// Wall seconds with the stolen share taken out: how long the work
    /// takes when the guest has its CPUs to itself.
    pub fn s(&self) -> f64 {
        self.wall_s * (1.0 - self.steal)
    }
}

impl Stopwatch {
    /// Counts the steal of every CPU: for work spread over the machine.
    pub fn start() -> Self {
        Self::start_with(None)
    }

    /// Counts the steal of `cpu` alone: for work pinned to it.
    pub fn start_on(cpu: usize) -> Self {
        Self::start_with(Some(cpu))
    }

    fn start_with(cpu: Option<usize>) -> Self {
        Self {
            cpu,
            times: Self::times(cpu),
            t: Instant::now(),
        }
    }

    fn times(cpu: Option<usize>) -> CpuTimes {
        cpu.map_or_else(CpuTimes::now, CpuTimes::of)
    }

    pub fn lap(&self) -> Lap {
        let wall_s = self.t.elapsed().as_secs_f64();
        Lap {
            wall_s,
            steal: Self::times(self.cpu).steal_share_since(&self.times),
        }
    }
}

/// CPU time of every thread of this process so far, in nanoseconds.
/// The guest kernel leaves time the hypervisor stole out of it.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `clock_gettime` on one of the Linux CPU-time clocks.
fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    unsafe { clock_gettime(clock, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// What [`speed_probe_ns`] takes, in nanoseconds, at the reference host
/// speed every end-to-end time is expressed at: about its median on the
/// 2-vCPU guest the README's readings come from.
pub const PROBE_REFERENCE_NS: f64 = 1.2e6;

/// Benchmark-owned fixed work, timed on the calling thread's CPU clock
/// (median of seven repeats, ~1.2 ms each): 50,000 dependent reads and
/// writes at random places of a 4 MiB table, then sorting 16,384 numbers.
/// On a shared host the time it takes moves with the neighbours' load even
/// when nothing is stolen (shared cores and caches), and the program's
/// times move with it; none of the program's code is in it, so no change
/// to the program moves it.
pub fn speed_probe_ns() -> f64 {
    use std::cell::RefCell;
    thread_local! {
        static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![0; (4 << 20) / 8]);
    }
    TABLE.with(|table| {
        let mut t = table.borrow_mut();
        let n = t.len();
        let mut times = Vec::with_capacity(7);
        for rep in 0..7u64 {
            let start = thread_cpu_ns();
            let mut state = rep;
            let mut acc = 0u64;
            for _ in 0..50_000 {
                let i = (crate::stats::splitmix(&mut state) % n as u64) as usize;
                acc = acc.wrapping_add(t[i]);
                t[i] ^= acc | 1;
            }
            let mut v: Vec<u64> = (0..16_384)
                .map(|_| crate::stats::splitmix(&mut state))
                .collect();
            v.sort_unstable();
            std::hint::black_box((acc, &v));
            times.push((thread_cpu_ns() - start) as f64);
        }
        crate::stats::median(&times).unwrap_or(f64::NAN)
    })
}

/// The CPU the serving pair (the generator thread and the server's
/// worker) is pinned to: the last one, away from where interrupts land.
pub fn serve_cpu() -> usize {
    nproc() - 1
}

/// CPUs available to the process when it started (before any pinning).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Restrict the calling thread to the CPUs in `cpus` (threads it spawns
/// inherit the mask).  Linux `sched_setaffinity`, best effort; a no-op
/// elsewhere.
#[cfg(target_os = "linux")]
pub fn pin(cpus: std::ops::Range<usize>) {
    /// `cpu_set_t`: a fixed 1024-bit mask.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut mask = CpuSet { bits: [0; 16] };
    for c in cpus.filter(|c| *c < 1024) {
        mask.bits[c / 64] |= 1u64 << (c % 64);
    }
    // SAFETY: pid 0 is the calling thread; the mask outlives the call and
    // its size is passed explicitly.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: std::ops::Range<usize>) {}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Reset the peak-resident mark so the next workload in the same process
/// starts its own peak (Linux `clear_refs` code 5).  Best effort.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_stolen_over_wanted_cpu_time() {
        let before = CpuTimes {
            busy: 1000,
            steal: 100,
        };
        let after = CpuTimes {
            busy: 1300,
            steal: 200,
        };
        assert_eq!(after.steal_share_since(&before), 0.25);
        // No CPU time wanted: nothing to discount.
        assert_eq!(before.steal_share_since(&before), 0.0);
    }

    #[test]
    fn lap_discounts_the_stolen_share() {
        let lap = Lap {
            wall_s: 2.0,
            steal: 0.25,
        };
        assert_eq!(lap.s(), 1.5);
    }

    #[test]
    fn proc_stat_lines_parse() {
        // Every Linux guest has an aggregate line and one per CPU.
        if fs::metadata("/proc/stat").is_ok() {
            let all = CpuTimes::now();
            let first = CpuTimes::of(0);
            assert!(all.busy >= first.busy && all.steal >= first.steal);
        }
    }
}
