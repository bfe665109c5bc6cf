//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary accepts the same flags, and rejects any other flag or a
//! malformed value:
//!
//! ```text
//! --executor simulated|smooth|measured   back end used to time algorithms
//! --scale <0..1>                         workload scale factor (default 1.0 for
//!                                        simulated, 0.02 for measured)
//! --seed <u64>                           random seed for Experiment 1
//! --out <dir>                            output directory for CSV artifacts
//! --sizes <max>                          largest square size for Figure 1
//! ```

#![forbid(unsafe_code)]

use lamb_experiments::{LineConfig, SearchConfig};
use lamb_kernels::BlockConfig;
use lamb_perfmodel::{Executor, MachineModel, MeasuredExecutor, SimulatedExecutor};
use std::path::PathBuf;

/// Which executor back end a binary should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Deterministic analytic machine model (default; paper-scale feasible).
    Simulated,
    /// Analytic model without abrupt variant switches (ablation).
    SimulatedSmooth,
    /// Real kernels, wall-clock timing, paper measurement protocol.
    Measured,
}

impl ExecutorKind {
    /// Parse from the `--executor` flag value.
    #[must_use]
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "simulated" | "sim" => Some(ExecutorKind::Simulated),
            "smooth" | "simulated-smooth" => Some(ExecutorKind::SimulatedSmooth),
            "measured" | "real" => Some(ExecutorKind::Measured),
            _ => None,
        }
    }

    /// Short name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::Simulated => "simulated",
            ExecutorKind::SimulatedSmooth => "simulated-smooth",
            ExecutorKind::Measured => "measured",
        }
    }
}

/// Options shared by every figure/table binary.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Executor back end.
    pub executor: ExecutorKind,
    /// Workload scale in `(0, 1]`, applied to anomaly targets and sample caps.
    pub scale: f64,
    /// Seed for Experiment 1 sampling.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Largest square size used for Figure 1 sweeps.
    pub max_size: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            executor: ExecutorKind::Simulated,
            scale: 1.0,
            seed: 20220829,
            out_dir: PathBuf::from("results"),
            max_size: 3000,
        }
    }
}

impl RunOptions {
    /// Parse options from an iterator of command-line arguments (not
    /// including the program name).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag, a flag missing its value, or
    /// a malformed value (an unknown executor, a non-numeric scale, ...).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = RunOptions::default();
        let mut explicit_scale = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("flag {flag} requires a value"))
            };
            match flag.as_str() {
                "--executor" => {
                    let v = value()?;
                    opts.executor = ExecutorKind::parse(&v).ok_or_else(|| {
                        format!("unknown executor `{v}` (expected simulated, smooth or measured)")
                    })?;
                }
                "--scale" => {
                    let scale = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("invalid --scale: {e}"))?;
                    if scale.is_nan() {
                        return Err("invalid --scale: NaN".into());
                    }
                    opts.scale = scale.clamp(1.0e-6, 1.0);
                    explicit_scale = true;
                }
                "--seed" => {
                    opts.seed = value()?
                        .parse()
                        .map_err(|e| format!("invalid --seed: {e}"))?;
                }
                "--out" => opts.out_dir = PathBuf::from(value()?),
                "--sizes" => {
                    let max: usize = value()?
                        .parse()
                        .map_err(|e| format!("invalid --sizes: {e}"))?;
                    opts.max_size = max.max(100);
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (expected --executor, --scale, --seed, --out or --sizes)"
                    ))
                }
            }
        }
        // Measured runs are wall-clock expensive: default to a small scale
        // unless the user explicitly asked for more.
        if opts.executor == ExecutorKind::Measured && !explicit_scale {
            opts.scale = 0.02;
            opts.max_size = opts.max_size.min(1200);
        }
        Ok(opts)
    }

    /// Parse options from the process arguments; on malformed arguments,
    /// print the error and exit with a non-zero status.
    #[must_use]
    pub fn from_env() -> Self {
        RunOptions::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(1);
        })
    }

    /// Build the requested executor.
    #[must_use]
    pub fn build_executor(&self) -> Box<dyn Executor> {
        match self.executor {
            ExecutorKind::Simulated => Box::new(SimulatedExecutor::paper_like()),
            ExecutorKind::SimulatedSmooth => Box::new(SimulatedExecutor::paper_like_smooth()),
            ExecutorKind::Measured => Box::new(MeasuredExecutor::new(
                MachineModel::generic_laptop(),
                BlockConfig::default(),
                10,
                64 * 1024 * 1024,
            )),
        }
    }

    /// The scaled Experiment-1 configuration for the matrix chain.
    #[must_use]
    pub fn chain_search_config(&self) -> SearchConfig {
        SearchConfig {
            seed: self.seed,
            ..SearchConfig::paper_chain().scaled(self.scale)
        }
    }

    /// The scaled Experiment-1 configuration for `A·Aᵀ·B`.
    #[must_use]
    pub fn aatb_search_config(&self) -> SearchConfig {
        SearchConfig {
            seed: self.seed,
            ..SearchConfig::paper_aatb().scaled(self.scale)
        }
    }

    /// The Experiment-2 configuration, capped for measured runs.
    #[must_use]
    pub fn line_config(&self) -> LineConfig {
        let cfg = LineConfig::paper();
        if self.executor == ExecutorKind::Measured {
            cfg.with_max_anomalies(((3.0 * self.scale * 100.0).ceil() as usize).max(1))
        } else {
            cfg
        }
    }

    /// Sizes for the Figure-1 sweep: 100 to `max_size` in steps of 100.
    #[must_use]
    pub fn figure1_sizes(&self) -> Vec<usize> {
        (1..=self.max_size / 100).map(|i| i * 100).collect()
    }
}

/// Print a driver report plus the artifact list in a uniform way.
pub fn print_output(title: &str, output: &lamb_experiments::DriverOutput) {
    println!("==== {title} ====");
    println!("{}", output.report);
    for (label, path) in &output.artifacts {
        println!("  wrote {label}: {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_scale_simulated() {
        let o = RunOptions::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.executor, ExecutorKind::Simulated);
        assert!((o.scale - 1.0).abs() < 1e-12);
        assert_eq!(o.chain_search_config().target_anomalies, 100);
        assert_eq!(o.aatb_search_config().target_anomalies, 1000);
        assert_eq!(o.figure1_sizes().len(), 30);
    }

    #[test]
    fn flags_are_parsed() {
        let o = RunOptions::parse(
            [
                "--executor",
                "measured",
                "--seed",
                "7",
                "--out",
                "/tmp/x",
                "--sizes",
                "800",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(o.executor, ExecutorKind::Measured);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.max_size, 800);
        // Measured defaults to a reduced scale.
        assert!(o.scale < 0.1);
        assert!(o.line_config().max_anomalies.is_some());
        // Unknown flags, missing values and malformed values are errors.
        for (args, needle) in [
            (&["--executor", "measurd"][..], "measurd"),
            (&["--scale", "half"], "--scale"),
            (&["--scale", "NaN"], "--scale"),
            (&["--seed", "-1"], "--seed"),
            (&["--sizes", "many"], "--sizes"),
            (&["--out"], "--out"),
            (&["--bogus"], "--bogus"),
            (&["measured"], "measured"),
        ] {
            let err = RunOptions::parse(args.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn explicit_scale_overrides_measured_default() {
        let o = RunOptions::parse(
            ["--executor", "measured", "--scale", "0.5"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!((o.scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn executor_kind_parsing() {
        assert_eq!(ExecutorKind::parse("sim"), Some(ExecutorKind::Simulated));
        assert_eq!(
            ExecutorKind::parse("smooth"),
            Some(ExecutorKind::SimulatedSmooth)
        );
        assert_eq!(ExecutorKind::parse("real"), Some(ExecutorKind::Measured));
        assert_eq!(ExecutorKind::parse("gpu"), None);
        for (flag, kind) in [
            ("smooth", ExecutorKind::SimulatedSmooth),
            ("real", ExecutorKind::Measured),
        ] {
            let o = RunOptions::parse(["--executor", flag].iter().map(|s| s.to_string())).unwrap();
            assert_eq!(o.executor, kind);
        }
        let err = RunOptions::parse(["--executor", "gpu"].iter().map(|s| s.to_string()));
        assert!(err.unwrap_err().contains("unknown executor `gpu`"));
        assert_eq!(ExecutorKind::Measured.name(), "measured");
    }

    #[test]
    fn executors_can_be_built() {
        for kind in [ExecutorKind::Simulated, ExecutorKind::SimulatedSmooth] {
            let o = RunOptions {
                executor: kind,
                ..RunOptions::default()
            };
            let exec = o.build_executor();
            assert!(exec.machine().peak_flops > 0.0);
        }
    }
}
