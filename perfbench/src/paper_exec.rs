//! `paper_exec`: the paper's two expressions planned and executed.
//!
//! Instances lie on the axis-aligned lines of the paper's Figure 8
//! (`A*B*C*D`) and Figure 11 (`A*A^T*B`). Each request is parsed, planned
//! top-8 against the store, and then every candidate of its plan runs once
//! on the native kernels, as in the paper's experiments, so the chosen
//! algorithm can be judged against the FLOP-minimal one and the rest.
//!
//! Running every candidate, not just the chosen one, keeps the executed
//! work a fixed function of the inputs. The lines pass through the regions
//! where candidates tie: GEMM against SYMM at equal FLOPs, and SYRK against
//! GEMM where the anomaly begins. Measured isolated calls vary by more than
//! those ties from one set-up to the next, so the chosen algorithm of such
//! an instance differs between runs of one seed however the calls are
//! timed. The choices are still made, checked and reported
//! (`paper_exec.choices_digest`), but they do not decide what runs. GEMM,
//! SYRK and SYMM do nearly all of the work.

use crate::report::Outcome;
use crate::setup::{self, KernelTally};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Args, Layers};
use lamb_expr::Algorithm;
use lamb_matrix::ops::{max_abs, max_abs_diff};
use lamb_matrix::Matrix;
use lamb_perfmodel::{Executor, MeasuredExecutor, ReferenceBackend};
use lamb_plan::{BatchRequest, Plan, PredictionCache};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// The lines: expression, the point the paper's figure passes through, and
/// the dimension it varies.
const LINES: [(&str, &[usize], usize); 5] = [
    ("A*B*C*D", &[331, 279, 338, 854, 427], 4),
    ("A*B*C*D", &[320, 172, 293, 919, 284], 3),
    ("A*A^T*B", &[227, 260, 549], 0),
    ("A*A^T*B", &[80, 514, 768], 1),
    ("A*A^T*B", &[110, 301, 938], 2),
];

/// Points per line, one in the middle of each of as many equal strata of
/// the offsets.
const POINTS_PER_LINE: usize = 24;

/// Offsets along a line, in the paper's steps of 10, up to this many steps
/// either side of the figure's point.
const MAX_STEPS: usize = 20;

/// Largest relative difference two algorithms' results may show.
const TOLERANCE: f64 = 1e-9;

/// The instances as batch-file lines. The set is the same for every seed:
/// the seed orders the requests and fills the operands, so runs with
/// different seeds measure the same work.
fn instances() -> Vec<String> {
    let span = 2 * MAX_STEPS + 1;
    let mut lines = Vec::new();
    for (expr, base, dim) in LINES {
        for stratum in 0..POINTS_PER_LINE {
            let middle = (2 * stratum + 1) * span / (2 * POINTS_PER_LINE);
            let step = middle as i64 - MAX_STEPS as i64;
            let mut dims = base.to_vec();
            dims[dim] = (base[dim] as i64 + 10 * step).clamp(20, 1200) as usize;
            let dims: Vec<String> = dims.iter().map(ToString::to_string).collect();
            lines.push(format!("{expr} {}", dims.join(" ")));
        }
    }
    lines
}

/// Relative difference between a result and its reference.
pub fn relative_error(result: &Matrix, reference: &Matrix) -> f64 {
    max_abs_diff(result, reference).map_or(f64::INFINITY, |d| d / max_abs(reference).max(1e-300))
}

/// Run `f`, turning a panic inside the program into an error.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

struct Instance {
    line: String,
    /// The reference backend's result, for a plan with a single candidate.
    reference: Option<Matrix>,
}

fn digest(items: &[String]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in items.join("\n").bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Figures the traced requests accumulate.
#[derive(Default)]
pub struct ExecTrace {
    pub operand_setup_s: Vec<f64>,
    pub minflops_s: f64,
    pub chosen_s: f64,
    pub candidates: Vec<f64>,
    pub plans: Vec<Plan>,
    pub tally: KernelTally,
}

impl ExecTrace {
    /// Record one traced execution: its kernel calls, and its operand
    /// set-up time (wall minus the calls' own times).
    pub fn record(&mut self, alg: &Algorithm, timing: &lamb_perfmodel::AlgorithmTiming, wall: f64) {
        self.operand_setup_s
            .push((wall - timing.sum_of_calls()).max(0.0));
        self.tally.record_timing(alg, timing);
    }
}

/// The executors and shared cache a request runs against.
struct Runner {
    cache: Arc<PredictionCache>,
    planning: MeasuredExecutor,
    native: MeasuredExecutor,
    reference: MeasuredExecutor,
}

impl Runner {
    /// Execute every candidate of `plan`. Untraced, each returns its
    /// result; traced, each runs through `execute_algorithm` inside a span
    /// for its per-call times, and its result is computed later, outside
    /// the clock. Returns the executed seconds of each candidate.
    fn execute_all(
        &mut self,
        plan: &Plan,
        tracer: &mut Tracer,
        rid: u64,
        root: SpanId,
        mut traced: Option<&mut ExecTrace>,
        results: &mut Vec<Matrix>,
    ) -> Result<Vec<f64>, String> {
        let mut seconds = Vec::with_capacity(plan.algorithms.len());
        for alg in &plan.algorithms {
            let span = tracer.open("perfmodel.execute", rid, Some(root));
            let start = Instant::now();
            if let Some(t) = traced.as_deref_mut() {
                let timing = guarded(|| self.native.execute_algorithm(alg));
                let wall = start.elapsed().as_secs_f64();
                tracer.close(span);
                let timing = timing?;
                t.record(alg, &timing, wall);
                seconds.push(timing.seconds);
            } else {
                results.push(guarded(|| self.native.compute_result(alg))?);
                seconds.push(start.elapsed().as_secs_f64());
                tracer.close(span);
            }
        }
        Ok(seconds)
    }

    /// One request: parse → plan → execute every candidate, timed. The
    /// checks, and in a traced request the replay of the planning stages
    /// and the results, come after the clock stops. Returns the latency.
    fn request(
        &mut self,
        inst: &mut Instance,
        tracer: &mut Tracer,
        rid: u64,
        mut traced: Option<&mut ExecTrace>,
    ) -> Result<f64, String> {
        let start = Instant::now();
        let root = tracer.open("request", rid, None);
        let req = tracer
            .time("expr.parse", rid, Some(root), || {
                BatchRequest::parse_line(&inst.line, 1)
            })
            .map_err(|e| e.to_string());
        let plan_span = tracer.open("plan.plan_with", rid, Some(root));
        let planned = req.as_ref().map_err(Clone::clone).and_then(|req| {
            setup::planner(&req.expr, &self.cache)
                .plan_with(&req.dims, &mut self.planning)
                .map_err(|e| e.to_string())
        });
        tracer.close(plan_span);
        let mut results = Vec::new();
        let executed = planned.as_ref().map_err(Clone::clone).and_then(|plan| {
            self.execute_all(plan, tracer, rid, root, traced.as_deref_mut(), &mut results)
        });
        tracer.close(root);
        let latency = start.elapsed().as_secs_f64();
        let (req, plan, seconds) = match (req, planned, executed) {
            (Ok(r), Ok(p), Ok(s)) => (r, p, s),
            (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
                return Err(format!("`{}`: {e}", inst.line))
            }
        };
        if let Some(t) = traced.as_deref_mut() {
            let candidates = crate::plan_warm::replay(
                tracer,
                rid,
                plan_span,
                &req,
                &plan,
                &self.cache,
                &mut self.planning,
            )
            .map_err(|e| format!("`{}`: {e}", inst.line))?;
            t.candidates.push(candidates as f64);
            // The paper's question: how long the FLOP-minimal algorithm
            // takes against the chosen one, both executed.
            t.minflops_s += seconds[plan.flop_optimal_score().index];
            t.chosen_s += seconds[plan.chosen];
            for alg in &plan.algorithms {
                results.push(
                    guarded(|| self.native.compute_result(alg))
                        .map_err(|e| format!("`{}`: execution failed: {e}", inst.line))?,
                );
            }
        }
        self.check(inst, &plan, &results)?;
        if let Some(t) = traced {
            t.plans.push(plan);
        }
        Ok(latency)
    }

    /// Every candidate's result must match the chosen one's; a plan with a
    /// single candidate is checked against the reference backend.
    fn check(&self, inst: &mut Instance, plan: &Plan, results: &[Matrix]) -> Result<(), String> {
        let chosen = &results[plan.chosen];
        let mut against = Vec::new();
        if results.len() == 1 {
            if inst.reference.is_none() {
                inst.reference = Some(
                    guarded(|| self.reference.compute_result(plan.chosen_algorithm()))
                        .map_err(|e| format!("`{}`: reference backend failed: {e}", inst.line))?,
                );
            }
            against.push((
                "the reference backend",
                inst.reference.as_ref().expect("set above"),
            ));
        }
        for (alg, result) in plan.algorithms.iter().zip(results) {
            against.push((alg.name.as_str(), result));
        }
        for (name, other) in against {
            let err = relative_error(chosen, other);
            if err > TOLERANCE {
                return Err(format!(
                    "`{}`: {} differs from {name} by {err:e}",
                    inst.line,
                    plan.chosen_algorithm().name
                ));
            }
        }
        Ok(())
    }
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut Layers) -> Result<(), String> {
    let setups = if args.trace { 1 } else { crate::SETUP_REPEATS };
    let (lines, store, walls, calibrations) = setup::repeated_setup(setups, || {
        let mut lines = instances();
        crate::shuffle(&mut lines, args.seed);
        let requests = lines
            .iter()
            .map(|l| BatchRequest::parse_line(l, 1).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((lines, requests))
    })?;
    crate::layers::note_setup(out, layers, &walls, &calibrations);
    let mut instances: Vec<Instance> = lines
        .into_iter()
        .map(|line| Instance {
            line,
            reference: None,
        })
        .collect();
    out.note("paper_exec.instances", instances.len());

    let mut runner = Runner {
        cache: Arc::new(PredictionCache::from_table(&store.calls)),
        planning: setup::executor(0),
        native: setup::executor(args.seed),
        reference: setup::executor(args.seed).with_backend(Arc::new(ReferenceBackend)),
    };
    let before = runner.cache.stats();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<crate::Pass> = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let mut traced = ExecTrace::default();
    let mut rid = 0u64;
    // Whole passes only, so every run measures the same requests. In a
    // traced run, untraced and traced passes alternate.
    let mut pass = 0u64;
    while pass == 0 || (args.trace && pass == 1) || Instant::now() < deadline {
        let traced_pass = args.trace && pass % 2 == 1;
        let mut untraced = crate::Pass::default();
        // Each pass takes its own seeded order: what a request finds left
        // behind by the one before it (caches, freed memory) moves its
        // latency, and the blocks average that over several orders.
        crate::shuffle(&mut instances, crate::pass_seed(args.seed, pass));
        for inst in &mut instances {
            rid += 1;
            let outcome = if traced_pass {
                runner.request(inst, &mut tracer, rid, Some(&mut traced))
            } else {
                runner.request(inst, &mut off, rid, None)
            };
            match outcome {
                Ok(l) if traced_pass => traced_latencies.push(l),
                Ok(l) => untraced.latencies.push(l),
                Err(e) => {
                    out.count(Some(e));
                    continue;
                }
            }
            out.count(None);
        }
        if !traced_pass {
            untraced.served = untraced.latencies.len();
            untraced.busy_s = untraced.latencies.iter().sum();
            passes.push(untraced);
        }
        pass += 1;
    }
    let (hits, misses) = runner.cache.stats();
    let (hits, misses) = (hits - before.0, misses - before.1);
    if misses > 0 {
        out.invalidate(format!(
            "{misses} prediction-cache misses: the store is stale"
        ));
    }
    note_choices(&instances, &runner, out);
    crate::report_passes(out, &passes, 0.90, "latency_p90_ms");
    if args.trace {
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.latencies.iter().copied())
            .collect();
        finish_trace(
            args,
            out,
            layers,
            &tracer,
            traced,
            &latencies,
            &traced_latencies,
        );
        layers.set(
            "plan.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.set("plan.cache_lookups", (hits + misses) as f64);
    }
    Ok(())
}

/// Note the chosen algorithm of every instance, sorted by request line, and a
/// digest of them to compare across runs of one seed.
fn note_choices(instances: &[Instance], runner: &Runner, out: &mut Outcome) {
    let mut names = Vec::new();
    let mut planning = setup::executor(0);
    let mut sorted: Vec<&Instance> = instances.iter().collect();
    sorted.sort_by(|a, b| a.line.cmp(&b.line));
    for inst in sorted {
        let name = BatchRequest::parse_line(&inst.line, 1)
            .ok()
            .and_then(|req| {
                setup::planner(&req.expr, &runner.cache)
                    .plan_with(&req.dims, &mut planning)
                    .ok()
            })
            .map_or_else(|| "-".to_string(), |p| p.chosen_algorithm().name.clone());
        names.push(format!("{}: {name}", inst.line));
    }
    out.note("paper_exec.choices_digest", digest(&names));
    out.note("paper_exec.choices", names.join(" | "));
}

/// Per-layer figures shared by the two execution workloads.
pub fn finish_trace(
    args: &Args,
    out: &mut Outcome,
    layers: &mut Layers,
    tracer: &Tracer,
    traced: ExecTrace,
    untraced: &[f64],
    traced_latencies: &[f64],
) {
    layers.spans(tracer);
    layers.tally.merge(&traced.tally);
    layers.set(
        "perfmodel.operand_setup_ms",
        median(&traced.operand_setup_s) * 1e3,
    );
    if traced.chosen_s > 0.0 {
        layers.set(
            "select.minflops_over_chosen",
            traced.minflops_s / traced.chosen_s,
        );
    }
    if !traced.candidates.is_empty() {
        layers.set(
            "expr.candidates_per_req",
            crate::stats::mean(&traced.candidates),
        );
    }
    layers.plan_figures(&traced.plans);
    layers.set(
        "trace.overhead_ratio",
        median(traced_latencies) / median(untraced),
    );
    out.note("trace.traced_requests", traced_latencies.len());
    crate::write_trace(args, tracer, out);
}
