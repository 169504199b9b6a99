//! Small measurement helpers: percentiles, Prometheus text, process memory.

/// The value at quantile `q` of `samples` (nearest rank on a sorted copy);
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest quantile, up to 0.99, that leaves at least ten samples
/// beyond it (0.5 when there are fewer than twenty samples).
pub fn tail_q(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Median and tail of a sample set, with the tail's quantile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub n: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let q = tail_q(samples.len());
        Latency {
            p50: quantile(samples, 0.5),
            tail: quantile(samples, q),
            tail_q: q,
            n: samples.len(),
        }
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sum of every sample of metric `name` (all label sets) in a Prometheus
/// text exposition.
pub fn prom_sum(text: &str, name: &str) -> f64 {
    prom_sum_where(text, name, "")
}

/// Like [`prom_sum`], restricted to samples whose label set contains
/// `label` (e.g. `route="/v1/score"`).
pub fn prom_sum_where(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
            (metric == name && labels.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Peak resident set (`VmHWM`) of the current process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the files under `dir`, recursively (0 when it does not
/// exist).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
