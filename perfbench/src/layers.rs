//! The per-layer figures of the traced run.
//!
//! The layers are the workspace crates a request passes through: `expr`,
//! `plan`, `perfmodel`, `select`, `kernels` and `matrix` (operand
//! materialisation, reported as `perfmodel.operand_setup_ms` because it
//! happens inside `execute_algorithm`). A figure a workload cannot produce
//! is reported as 0 with the reason printed beside it.

use crate::report::Outcome;
use crate::setup::{Calibration, KernelTally, KERNEL_OPS};
use crate::stats::median;
use crate::trace::Tracer;
use lamb_plan::Plan;
use std::collections::BTreeMap;

/// Every per-layer figure with its unit, in report order.
pub fn spec() -> Vec<(String, &'static str)> {
    let mut spec: Vec<(String, &'static str)> = [
        ("expr.parse_us", "us"),
        ("expr.enumerate_us", "us"),
        ("expr.cse_us", "us"),
        ("expr.candidates_per_req", "count"),
        ("plan.self_us", "us"),
        ("plan.batch_scaling", "ratio"),
        ("plan.cache_hit_ratio", "ratio"),
        ("plan.cache_lookups", "count"),
        ("plan.factor_reuse_ratio", "ratio"),
        ("plan.factor_cache_hits", "count"),
        ("perfmodel.predict_us", "us"),
        ("perfmodel.isolated_calls", "count"),
        ("perfmodel.calibrate_s", "s"),
        ("perfmodel.operand_setup_ms", "ms"),
        ("select.select_us", "us"),
        ("select.predicted_anomaly_ratio", "ratio"),
        ("select.minflops_over_chosen", "ratio"),
        ("kernels.fma_peak_gflops", "GFLOP/s"),
        ("kernels.n1024.gemm.pct_peak", "%"),
        ("kernels.n1024.trsm.pct_peak", "%"),
        ("kernels.n1024.potrf.pct_peak", "%"),
        ("trace.overhead_ratio", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for op in KERNEL_OPS {
        for (suffix, unit) in [
            ("calls", "count"),
            ("busy_s", "s"),
            ("gflops", "GFLOP/s"),
            ("pct_peak", "%"),
            ("flops_per_byte", "FLOP/B"),
        ] {
            spec.push((format!("kernels.{op}.{suffix}"), unit));
        }
    }
    spec
}

/// Per-layer figures gathered during a traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    /// Kernel calls of the run: set-up calibration and executions.
    pub tally: KernelTally,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Medians of the per-request self times of the replayed stages and of
    /// `plan_with`'s remainder.
    pub fn spans(&mut self, tracer: &Tracer) {
        let selfs = tracer.self_times();
        for (span, figure) in [
            ("expr.parse", "expr.parse_us"),
            ("expr.enumerate", "expr.enumerate_us"),
            ("expr.cse", "expr.cse_us"),
            ("plan.plan_with", "plan.self_us"),
            ("perfmodel.predict", "perfmodel.predict_us"),
            ("select.select", "select.select_us"),
        ] {
            if let Some(samples) = selfs.get(span) {
                self.set(figure, median(samples) * 1e6);
            }
        }
    }

    /// Selection figures over a set of plans, from predicted times.
    pub fn plan_figures(&mut self, plans: &[Plan]) {
        let anomalies = plans
            .iter()
            .filter(|p| p.predicted_anomaly() == Some(true))
            .count();
        self.set(
            "select.predicted_anomaly_ratio",
            anomalies as f64 / plans.len().max(1) as f64,
        );
        if !self.values.contains_key("select.minflops_over_chosen") {
            let (mut minflops, mut chosen) = (0.0, 0.0);
            for p in plans {
                minflops += p.flop_optimal_score().predicted_seconds.unwrap_or(0.0);
                chosen += p.chosen_score().predicted_seconds.unwrap_or(0.0);
            }
            self.set("select.minflops_over_chosen", minflops / chosen);
        }
    }

    /// Emit every per-layer figure as a metric of the result line. With a
    /// measured bandwidth, each kernel's roofline ratio is printed beside
    /// them: its rate over min(FMA peak, intensity × bandwidth).
    pub fn finish(mut self, out: &mut Outcome, fma_peak_gflops: f64, bandwidth_gbps: Option<f64>) {
        for op in KERNEL_OPS {
            let Some(t) = self.tally.ops.get(op).cloned() else {
                continue;
            };
            let gflops = if t.busy_s > 0.0 {
                t.flops as f64 / t.busy_s / 1e9
            } else {
                0.0
            };
            self.set(&format!("kernels.{op}.calls"), t.calls as f64);
            self.set(&format!("kernels.{op}.busy_s"), t.busy_s);
            self.set(&format!("kernels.{op}.gflops"), gflops);
            self.set(
                &format!("kernels.{op}.pct_peak"),
                100.0 * gflops / fma_peak_gflops,
            );
            let intensity = t.flops as f64 / t.bytes.max(1) as f64;
            self.set(&format!("kernels.{op}.flops_per_byte"), intensity);
            if let Some(bw) = bandwidth_gbps.filter(|_| t.flops > 0) {
                let roof = fma_peak_gflops.min(intensity * bw);
                out.extra(
                    &format!("kernels.{op}.roofline_ratio"),
                    gflops / roof,
                    "ratio",
                );
            }
        }
        let mut absent = Vec::new();
        for (name, unit) in spec() {
            let value = self.values.get(&name).copied().unwrap_or_else(|| {
                absent.push(name.clone());
                0.0
            });
            out.metric(&name, value, unit);
        }
        if !absent.is_empty() {
            out.note("per_layer.not_exercised (reported as 0)", absent.join(" "));
        }
    }
}

/// Record the set-up figures: `setup_s` (median over the repeated set-ups),
/// and for the traced run the calibration's call count, time and kernels.
pub fn note_setup(out: &mut Outcome, layers: &mut Layers, walls: &[f64], cals: &[Calibration]) {
    out.metric("setup_s", median(walls), "s");
    out.note("setup.repeats", walls.len());
    out.note(
        "setup.walls_s",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let calls: Vec<f64> = cals.iter().map(|c| c.isolated_calls as f64).collect();
    let secs: Vec<f64> = cals.iter().map(|c| c.calibrate_s).collect();
    layers.set("perfmodel.isolated_calls", median(&calls));
    layers.set("perfmodel.calibrate_s", median(&secs));
    if let Some(last) = cals.last() {
        layers.tally.merge(&last.tally);
    }
}
