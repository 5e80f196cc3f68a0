//! What every workload shares: process probes (CPU time, peak RSS, host
//! steal), medians, the metric list and the one-line JSON result.

use crate::Args;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Median of a sample (mean of the middle pair for even counts); `NaN`
/// for an empty sample, which [`Outcome::print`] reports as incorrect.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, live or
/// exited, at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86_64/aarch64 Linux) that outlives the call, and the
    // clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host-wide steal ticks so far (the `steal` column of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    HostCpu::now().steal
}

/// The host's CPU time so far, in ticks, summed over every CPU: time
/// spent running (`user`, `nice`, `system`, `irq`, `softirq`) and time
/// the hypervisor stole from a vCPU that wanted to run (`steal`). Idle
/// vCPUs are not stolen from. All zero where `/proc/stat` is unreadable.
pub struct HostCpu {
    busy: u64,
    steal: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |k: usize| f.get(k).copied().unwrap_or(0);
        HostCpu {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the CPU time wanted since `earlier` that the hypervisor
    /// stole, in [0, 1]; 0 when nothing ran or nothing was stolen.
    pub fn stolen_since(&self, earlier: &HostCpu) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Wall time with the host's stolen share taken out: what the interval
/// would have taken had the hypervisor run this host's vCPUs whenever
/// they wanted to run. Stolen time slows every running thread alike, so
/// an interval during which a share `stolen` of the wanted CPU time was
/// stolen ran at `1 - stolen` of its speed.
pub fn unstolen(wall: Duration, stolen: f64) -> Duration {
    wall.mul_f64(1.0 - stolen.clamp(0.0, 1.0))
}

/// Wall and CPU time of one timed operation, and the host's CPU
/// counters at its start.
pub struct OpTimer {
    wall: Instant,
    cpu: Duration,
    host: HostCpu,
}

/// What [`OpTimer::stop`] measured.
pub struct OpTime {
    pub wall: Duration,
    pub cpu: Duration,
    /// Share of the host's wanted CPU time stolen during the operation.
    pub stolen: f64,
}

impl OpTimer {
    pub fn start() -> OpTimer {
        OpTimer {
            host: HostCpu::now(),
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    /// Wall time since [`OpTimer::start`].
    pub fn elapsed(&self) -> Duration {
        self.wall.elapsed()
    }

    pub fn stop(&self) -> OpTime {
        let wall = self.wall.elapsed();
        let cpu = process_cpu().saturating_sub(self.cpu);
        OpTime {
            wall,
            cpu,
            stolen: HostCpu::now().stolen_since(&self.host),
        }
    }
}

/// Set-ups per run: `setup_s` is the median of their [`unstolen`] wall
/// times, since one set-up of about a second moves with host load more
/// than the median of five does.
pub const SETUPS: usize = 5;

/// Set the workload up `SETUPS` times and keep the last state. All but
/// the last run in child processes of this executable (`--setup-only
/// 1`), so every set-up starts in a fresh process and the process the
/// metrics come from has set up once, as a beamline service does: five
/// set-ups in one process left its allocator holding the freed memory
/// of the earlier ones (`beamtime` peak RSS 14.4 MB after one, 21.5 MB
/// after five). A `--setup-only` child sets up once.
pub fn repeated_setup<S>(
    args: &Args,
    setup: impl FnOnce() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    if !args.setup_only {
        for _ in 1..SETUPS {
            times.push(child_setup(args)?);
        }
    }
    let timer = OpTimer::start();
    let state = setup()?;
    let t = timer.stop();
    times.push(unstolen(t.wall, t.stolen).as_secs_f64());
    eprintln!("set-up times (s): {times:?}");
    Ok((state, median(&times)))
}

/// Run one set-up of the same workload and seed in a child process and
/// return its `setup_s`.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout
        .lines()
        .last()
        .and_then(|l| l.split("\"setup_s\": {\"value\": ").nth(1))
        .and_then(|v| v.split(',').next())
        .and_then(|v| v.trim().parse::<f64>().ok());
    match value {
        Some(v) if out.status.success() && stdout.contains("\"correct\": true") => Ok(v),
        _ => Err(format!("set-up child failed ({})", out.status)),
    }
}

/// The benchmark's scratch directory for one run, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(workload: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(".beambench").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // leave no empty parent behind when this was the only run
        std::fs::remove_dir(self.0.parent().unwrap_or(Path::new(""))).ok();
    }
}

/// Total bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A run's result: operations attempted/failed, correctness, metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs were judged wrong; empty when every check passed.
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Worst value seen of each output-quality figure, printed for the
    /// record next to the floor its check enforces.
    quality: std::collections::BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Set metric `name`, replacing an earlier value of the same name.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, ..)| n == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// The result of a `--setup-only` child: its set-up time alone.
    pub fn setup_only(setup_s: f64) -> Outcome {
        let mut out = Outcome {
            attempted: 1,
            ..Default::default()
        };
        out.put("setup_s", setup_s, "s");
        out
    }

    /// Record a failed check; the run stays whole but reads incorrect.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Keep the lowest `value` seen under `name`.
    pub fn note_min(&mut self, name: &'static str, value: f64) {
        let v = self.quality.entry(name).or_insert(value);
        *v = v.min(value);
    }

    /// Keep the highest `value` seen under `name`.
    pub fn note_max(&mut self, name: &'static str, value: f64) {
        let v = self.quality.entry(name).or_insert(value);
        *v = v.max(value);
    }

    /// Print the environment block and, as the last line of standard
    /// output, the JSON result.
    pub fn print(mut self, env: &EnvBlock) {
        for (name, v, _) in &self.metrics {
            if !v.is_finite() {
                self.errors.push(format!("metric {name} is not finite"));
            }
        }
        for e in &self.errors {
            eprintln!("check failed: {e}");
        }
        if !self.quality.is_empty() {
            let q: Vec<String> = self
                .quality
                .iter()
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect();
            println!("# quality {}", q.join(" "));
        }
        println!(
            "# env cores={} simd={} rayon_threads={} steal_ticks={} wall_s={:.3}",
            env.cores,
            env.simd,
            env.rayon_threads,
            steal_ticks().saturating_sub(env.steal_at_start),
            env.started.elapsed().as_secs_f64()
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Host facts a run is judged against: cores, SIMD path, rayon
/// threads, and the steal ticks at start (the delta is printed).
pub struct EnvBlock {
    pub cores: usize,
    pub simd: &'static str,
    pub rayon_threads: usize,
    steal_at_start: u64,
    started: Instant,
}

impl EnvBlock {
    pub fn capture() -> EnvBlock {
        EnvBlock {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: als_tomo::simd::detect().name(),
            rayon_threads: rayon::current_num_threads(),
            steal_at_start: steal_ticks(),
            started: Instant::now(),
        }
    }
}

/// Per-operation timings of the untraced loop (or the end-to-end half
/// of a traced round). Wall-clock figures are kept [`unstolen`] with the
/// operation's stolen share.
#[derive(Default)]
pub struct OpLog {
    /// The workload's headline user wait, ms.
    pub wait_ms: Vec<f64>,
    /// The same wait as the clock read it, stolen time included, ms.
    pub raw_wait_ms: Vec<f64>,
    /// Time until the scan's raw data is on disk and readable, ms.
    pub ready_ms: Vec<f64>,
    /// Whole-operation wall time, s.
    pub wall_s: Vec<f64>,
    /// Whole-operation process CPU time, ms.
    pub cpu_ms: Vec<f64>,
    /// Share of the host's wanted CPU time stolen per operation.
    pub stolen: Vec<f64>,
}

impl OpLog {
    /// Log one operation: its headline wait, its time to data ready and
    /// its [`OpTime`] (`t.wall` stands for the operation's wall time
    /// unless `wall` names another interval).
    pub fn push(&mut self, wait: Duration, ready: Duration, wall: Option<Duration>, t: &OpTime) {
        self.wait_ms.push(ms(unstolen(wait, t.stolen)));
        self.raw_wait_ms.push(ms(wait));
        self.ready_ms.push(ms(unstolen(ready, t.stolen)));
        self.wall_s
            .push(unstolen(wall.unwrap_or(t.wall), t.stolen).as_secs_f64());
        self.cpu_ms.push(ms(t.cpu));
        self.stolen.push(t.stolen);
    }

    /// The end-to-end metrics; `prefix` is `""` untraced, `"traced."`
    /// for the traced run's own end-to-end numbers.
    pub fn report(&self, out: &mut Outcome, prefix: &str, scans_per_op: f64) {
        out.put(&format!("{prefix}wait_p50_ms"), median(&self.wait_ms), "ms");
        out.put(
            &format!("{prefix}data_ready_p50_ms"),
            median(&self.ready_ms),
            "ms",
        );
        out.put(
            &format!("{prefix}scans_per_s"),
            scans_per_op / median(&self.wall_s),
            "1/s",
        );
        out.put(
            &format!("{prefix}cpu_ms_per_scan"),
            median(&self.cpu_ms) / scans_per_op,
            "ms",
        );
        println!(
            "# host stolen_share_p50={:.4} raw_wait_p50_ms={:.3} ({} operations)",
            median(&self.stolen),
            median(&self.raw_wait_ms),
            self.wait_ms.len()
        );
    }
}

/// Per-layer samples of a traced run: timings keep every sample and
/// report the median, counts report their value.
#[derive(Default)]
pub struct Layers {
    samples: std::collections::BTreeMap<&'static str, Vec<f64>>,
    counts: std::collections::BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn time(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Time `f` in `unit_scale` units per second (1e3 for ms, 1e6 for µs).
    pub fn span<T>(&mut self, name: &'static str, unit_scale: f64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.time(name, t.elapsed().as_secs_f64() * unit_scale);
        r
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Emit every metric of `names`; a layer this workload does not run
    /// reads 0 (the traced run's end-to-end figures are put over theirs
    /// afterwards).
    pub fn report(&self, out: &mut Outcome, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            let v = match (self.samples.get(name), self.counts.get(name)) {
                (Some(s), _) => median(s),
                (None, Some(&c)) => c,
                (None, None) => 0.0,
            };
            out.put(name, v, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{unstolen, HostCpu};
    use std::time::Duration;

    #[test]
    fn stolen_share_scales_wall_time() {
        let t0 = HostCpu {
            busy: 100,
            steal: 10,
        };
        let t1 = HostCpu {
            busy: 160,
            steal: 50,
        };
        assert_eq!(t1.stolen_since(&t0), 0.4);
        assert_eq!(t0.stolen_since(&t0), 0.0);
        let d = Duration::from_millis(100);
        assert_eq!(unstolen(d, 0.4), Duration::from_millis(60));
        assert_eq!(unstolen(d, 0.0), d);
    }
}
