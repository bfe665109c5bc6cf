//! What one run reports: metrics, request counts, provenance, and the
//! result line.

use std::fmt::Write as _;
use std::path::Path;

/// Failure reasons kept for printing; the count covers every failure.
const FAILURES_KEPT: usize = 10;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics of the result line, in order.
    pub metrics: Vec<Metric>,
    /// Figures printed for a reader but not part of the result line.
    pub extra: Vec<Metric>,
    /// Provenance and diagnostics, `key = value`.
    pub notes: Vec<(String, String)>,
    /// Reasons for the first failed requests, printed with the result.
    pub failures: Vec<String>,
    /// Run-level checks that failed (a stale store, phases that disagree):
    /// they invalidate the run without being requests.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one attempted request and whether it failed.
    pub fn count(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(reason);
            }
        }
    }

    /// Fail the run as a whole.
    pub fn invalidate(&mut self, reason: String) {
        self.invalid.push(reason);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.invalid.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The run's result as one line of JSON.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// Print every figure for a reader, then the result line last.
    pub fn print(&self) {
        for (k, v) in &self.notes {
            println!("# {k} = {v}");
        }
        for reason in &self.failures {
            println!("! failed: {reason}");
        }
        for reason in &self.invalid {
            println!("! invalid run: {reason}");
        }
        println!(
            "failed_ratio = {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for m in self.metrics.iter().chain(&self.extra) {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.result_line());
    }
}

/// Host fingerprint from `/proc/cpuinfo`: CPU model, logical cores, and the
/// vector ISA flags the kernels can use.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cores = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let flags = field("flags");
    let isa: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| {
            [
                "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512vl", "neon", "asimd",
            ]
            .contains(f)
        })
        .collect();
    format!(
        "{} | {} cores | {}",
        field("model name"),
        cores,
        isa.join(" ")
    )
}

/// The git revision of the checkout when it is a git work tree, read from
/// `.git` without running git.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unavailable (not a git work tree)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|r| r.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

/// Peak resident memory of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
