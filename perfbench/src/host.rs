//! Host context recorded with every run, so a run on a busy or throttled
//! host can be recognized: CPU count and vector extensions, and the CPU
//! steal share and load average over the timed phase, read from `/proc`.

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// (steal, total). `None` where `/proc` is unavailable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is already
    // included in user and nice)
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Share of CPU time the hypervisor stole between two readings of
/// [`cpu_jiffies`]; 0 where unknown.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn simd_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        format!(
            "avx2={} avx512f={}",
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512f")
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "avx2=false avx512f=false".to_string()
    }
}

/// Host readings taken when a timed phase starts.
pub struct HostWindow {
    jiffies: Option<(u64, u64)>,
}

impl HostWindow {
    pub fn start() -> HostWindow {
        HostWindow {
            jiffies: cpu_jiffies(),
        }
    }

    /// One line describing the host over the window since `start`.
    pub fn finish(self) -> String {
        let steal = match self.jiffies {
            Some(_) => format!("{:.2}%", 100.0 * steal_share(self.jiffies, cpu_jiffies())),
            None => "unknown".to_string(),
        };
        let load = loadavg().map_or("unknown".to_string(), |l| format!("{l:.2}"));
        format!(
            "host: nproc={} {} cpu_steal={steal} loadavg_1m={load}",
            nproc(),
            simd_flags()
        )
    }
}
