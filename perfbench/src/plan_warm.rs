//! `plan_warm`: warm planning of a seeded request stream.
//!
//! Requests are drawn from every standing scenario plus the factor-reuse
//! family, with dimensions snapped to a palette so shapes recur as serving
//! traffic does. Each request arrives as batch-file text, is parsed, and is
//! planned top-8 under `MinPredictedTime` against a store warmed in set-up.
//! Enumeration, CSE, prediction lookup and selection do all the work; no
//! kernel runs after set-up.

use crate::report::Outcome;
use crate::setup::{self, TOP_K};
use crate::stats::{median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::{layers, Args, Layers};
use lamb_experiments::{all_scenarios, factor_reuse_scenarios};
use lamb_expr::{eliminate_common_subexpressions, Expression};
use lamb_perfmodel::Executor;
use lamb_plan::{
    BatchPlanner, BatchRequest, CachingExecutor, MinPredictedTime, Plan, PredictionCache,
    SelectionPolicy,
};
use std::sync::Arc;
use std::time::Instant;

/// Dimension palette: recurring shapes from 32 to 256, each equally
/// likely. Planning work does not grow with matrix order, but set-up time
/// does: every distinct call of the stream is timed on the real kernels,
/// and orders up to 768 would make that ~12 GFLOP per set-up.
const PALETTE: [usize; 7] = [32, 48, 64, 96, 128, 192, 256];

/// Requests per scenario in the stream: four times the palette, so every
/// dimension of every scenario takes each palette value four times.
const PER_SCENARIO: usize = 4 * PALETTE.len();

/// Seed of the fixed design that pairs the palette values of a scenario's
/// dimensions.
const DESIGN_SEED: u64 = 0x0dd_5eed;

/// The request stream as batch-file lines, in seeded order. Each dimension
/// position of a scenario runs through its own fixed permutation of the
/// palette, so every value occurs equally often. The set of requests is the
/// same for every seed; the seed orders the stream, so runs with different
/// seeds measure the same work.
fn stream(seed: u64) -> Vec<String> {
    let mut scenarios = all_scenarios();
    scenarios.extend(factor_reuse_scenarios());
    let mut lines = Vec::with_capacity(scenarios.len() * PER_SCENARIO);
    for (s, scenario) in scenarios.iter().enumerate() {
        let text = scenario.expression.name();
        let columns: Vec<Vec<usize>> = (0..scenario.expression.num_dims())
            .map(|j| {
                let mut column: Vec<usize> = (0..PER_SCENARIO)
                    .map(|k| PALETTE[k % PALETTE.len()])
                    .collect();
                crate::shuffle(&mut column, DESIGN_SEED ^ ((s as u64) << 32 | j as u64));
                column
            })
            .collect();
        for k in 0..PER_SCENARIO {
            let mut dims: Vec<usize> = columns.iter().map(|c| c[k]).collect();
            // A least-squares operand must be at least as tall as it is
            // wide; `A^+` puts the column count first.
            if text.contains("^+") && dims[0] > dims[1] {
                dims.swap(0, 1);
            }
            let dims: Vec<String> = dims.iter().map(ToString::to_string).collect();
            lines.push(format!("{text} {}", dims.join(" ")));
        }
    }
    crate::shuffle(&mut lines, seed);
    lines
}

fn parse_all(lines: &[String]) -> Result<Vec<BatchRequest>, String> {
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| BatchRequest::parse_line(l, i + 1).map_err(|e| e.to_string()))
        .collect()
}

#[derive(Default)]
struct SeqPass {
    latencies: Vec<f64>,
    chosen: Vec<Option<String>>,
    plans: Vec<Plan>,
    candidates: Vec<f64>,
    busy_s: f64,
}

/// One sequential pass over the stream by one client. With the tracer on,
/// each request's parse and `plan_with` are spans, and after the clock
/// stops the planning stages are replayed as children of the latter.
fn sequential_pass(
    lines: &[String],
    cache: &Arc<PredictionCache>,
    executor: &mut dyn Executor,
    tracer: &mut Tracer,
    first_rid: u64,
    out: &mut Outcome,
    keep_plans: bool,
) -> SeqPass {
    let mut pass = SeqPass::default();
    for (i, line) in lines.iter().enumerate() {
        let rid = first_rid + i as u64;
        let start = Instant::now();
        let root = tracer.open("request", rid, None);
        let parsed = tracer
            .time("expr.parse", rid, Some(root), || {
                BatchRequest::parse_line(line, i + 1)
            })
            .map_err(|e| e.to_string());
        let plan_span = tracer.open("plan.plan_with", rid, Some(root));
        let planned = parsed.as_ref().map_err(Clone::clone).and_then(|req| {
            setup::planner(&req.expr, cache)
                .plan_with(&req.dims, executor)
                .map_err(|e| e.to_string())
        });
        tracer.close(plan_span);
        tracer.close(root);
        let dt = start.elapsed().as_secs_f64();
        pass.latencies.push(dt);
        pass.busy_s += dt;
        let planned = match (&parsed, planned) {
            (Ok(req), Ok(plan)) if tracer.is_on() => {
                replay(tracer, rid, plan_span, req, &plan, cache, executor).map(|n| {
                    pass.candidates.push(n as f64);
                    plan
                })
            }
            (_, planned) => planned,
        };
        match planned {
            Ok(plan) => {
                pass.chosen.push(Some(plan.chosen_algorithm().name.clone()));
                if keep_plans {
                    pass.plans.push(plan);
                }
                out.count(None);
            }
            Err(e) => {
                pass.chosen.push(None);
                out.count(Some(format!("`{line}`: {e}")));
            }
        }
    }
    pass
}

/// Replay the stages of `plan_with` through the crates' public functions,
/// each in a span recorded as a child of the `plan_with` span, so that
/// span's self time is what the stages leave over. Returns the number of
/// enumerated candidates.
///
/// # Errors
///
/// A replayed stage that fails or disagrees with the plan.
pub fn replay(
    tracer: &mut Tracer,
    rid: u64,
    plan_span: SpanId,
    req: &BatchRequest,
    plan: &Plan,
    cache: &PredictionCache,
    executor: &mut dyn Executor,
) -> Result<usize, String> {
    let enumerated = tracer
        .time("expr.enumerate", rid, Some(plan_span), || {
            req.expr.algorithms_pruned(&req.dims, Some(TOP_K))
        })
        .map_err(|e| format!("replayed enumeration failed: {e}"))?;
    tracer.time("expr.cse", rid, Some(plan_span), || {
        enumerated
            .iter()
            .map(|a| eliminate_common_subexpressions(a).algorithm)
            .collect::<Vec<_>>()
    });
    let mut caching = CachingExecutor::new(executor, cache);
    let predicted: Vec<f64> = tracer.time("perfmodel.predict", rid, Some(plan_span), || {
        plan.algorithms
            .iter()
            .map(|a| caching.predict_from_isolated_calls(a).seconds)
            .collect()
    });
    let selected = tracer.time("select.select", rid, Some(plan_span), || {
        MinPredictedTime.select(&plan.algorithms, &mut caching)
    });
    let same_scores = predicted
        .iter()
        .zip(&plan.scores)
        .all(|(p, s)| s.predicted_seconds == Some(*p));
    if selected.ok() != Some(plan.chosen) || !same_scores {
        return Err("replayed stages disagree with plan_with".to_string());
    }
    Ok(enumerated.len())
}

/// Plan the whole stream `passes` times with `BatchPlanner::plan_batch`;
/// returns (requests planned, wall seconds per pass, the first pass's
/// choices).
fn batch_passes(
    text: &str,
    planner: &BatchPlanner,
    passes: usize,
    out: &mut Outcome,
) -> (usize, Vec<f64>, Vec<Option<String>>) {
    let mut planned = 0;
    let mut walls = Vec::new();
    let mut first = Vec::new();
    while walls.len() < passes {
        let start = Instant::now();
        let outcome = BatchRequest::parse_file(text).map(|reqs| planner.plan_batch(&reqs));
        walls.push(start.elapsed().as_secs_f64());
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                out.invalidate(format!("batch parse: {e}"));
                break;
            }
        };
        planned += outcome.results.len();
        for r in &outcome.results {
            out.count(r.as_ref().err().map(|e| format!("batch plan: {e}")));
        }
        if first.is_empty() {
            first = outcome
                .results
                .iter()
                .map(|r| r.as_ref().ok().map(|p| p.chosen_algorithm().name.clone()))
                .collect();
        }
    }
    (planned, walls, first)
}

fn check_same_choices(seq: &[Option<String>], batch: &[Option<String>], out: &mut Outcome) {
    let differing = seq.iter().zip(batch).filter(|(a, b)| a != b).count();
    out.note("plan_warm.batch_choice_mismatches", differing);
    if differing > 0 || seq.len() != batch.len() {
        out.invalidate(format!(
            "{differing} of {} requests chose differently in the batch phase",
            seq.len()
        ));
    }
}

fn check_all_hits(
    cache: &PredictionCache,
    before: (usize, usize),
    out: &mut Outcome,
) -> (usize, usize) {
    let (hits, misses) = cache.stats();
    let (hits, misses) = (hits - before.0, misses - before.1);
    out.note("plan_warm.cache_lookups", hits + misses);
    if misses > 0 {
        out.invalidate(format!(
            "{misses} prediction-cache misses in warm planning: the store is stale"
        ));
    }
    (hits, misses)
}

fn batch_planner(cache: &Arc<PredictionCache>) -> BatchPlanner {
    BatchPlanner::new()
        .policy(MinPredictedTime)
        .top_k(TOP_K)
        .shared_cache(Arc::clone(cache))
        .executor_factory(|| Box::new(setup::executor(0)))
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut Layers) -> Result<(), String> {
    let setups = if args.trace { 1 } else { crate::SETUP_REPEATS };
    let (lines, store, walls, calibrations) = setup::repeated_setup(setups, || {
        let lines = stream(args.seed);
        let requests = parse_all(&lines)?;
        Ok((lines, requests))
    })?;
    layers::note_setup(out, layers, &walls, &calibrations);
    let text = lines.join("\n");
    out.note("plan_warm.requests_per_pass", lines.len());
    let workers = rayon::current_num_threads();
    out.note("threads", workers);
    let cache = Arc::new(PredictionCache::from_table(&store.calls));
    let mut executor = setup::executor(0);
    let start = Instant::now();
    let seconds = std::time::Duration::from_secs_f64(args.seconds);
    let before = cache.stats();
    let mut off = Tracer::new(false);

    if !args.trace {
        // Each round is one sequential pass (latency) and one batch pass
        // (throughput), so a burst of load hits both phases alike.
        let batch_cache = Arc::new(PredictionCache::from_table(&store.calls));
        let planner = batch_planner(&batch_cache);
        let mut passes = Vec::new();
        let mut lines = lines;
        while passes.is_empty() || start.elapsed() < seconds {
            // Each round takes its own seeded order of the stream, so the
            // blocks average over orders as well as over time.
            crate::shuffle(&mut lines, crate::pass_seed(args.seed, passes.len() as u64));
            let text = lines.join("\n");
            let seq = sequential_pass(&lines, &cache, &mut executor, &mut off, 0, out, false);
            let (planned, walls, batch_choices) = batch_passes(&text, &planner, 1, out);
            if passes.is_empty() {
                check_same_choices(&seq.chosen, &batch_choices, out);
            }
            passes.push(crate::Pass {
                latencies: seq.latencies,
                served: planned,
                busy_s: walls.iter().sum(),
            });
        }
        check_all_hits(&cache, before, out);
        check_all_hits(&batch_cache, (0, 0), out);
        crate::report_passes(out, &passes, 0.99, "latency_p99_ms");
        return Ok(());
    }

    // Traced run: untraced and traced passes alternate over the same stream
    // so the overhead ratio compares like with like.
    let mut tracer = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut seq_pass_s = Vec::new();
    let mut candidates = Vec::new();
    let mut plans = Vec::new();
    let mut passes = 0u64;
    while passes < 2 || start.elapsed() < seconds {
        let first = passes * lines.len() as u64;
        if passes.is_multiple_of(2) {
            let pass = sequential_pass(
                &lines,
                &cache,
                &mut executor,
                &mut off,
                first,
                out,
                plans.is_empty(),
            );
            seq_pass_s.push(pass.busy_s);
            untraced.extend(pass.latencies);
            if plans.is_empty() {
                plans = pass.plans;
            }
        } else {
            let pass = sequential_pass(
                &lines,
                &cache,
                &mut executor,
                &mut tracer,
                first,
                out,
                false,
            );
            traced.extend(pass.latencies);
            candidates.extend(pass.candidates);
        }
        passes += 1;
    }
    let (_, walls, _) = batch_passes(&text, &batch_planner(&cache), 3, out);
    let (hits, misses) = check_all_hits(&cache, before, out);
    layers.set(
        "plan.batch_scaling",
        median(&seq_pass_s) / (median(&walls) * workers as f64),
    );
    layers.set(
        "plan.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("plan.cache_lookups", (hits + misses) as f64);
    layers.set("expr.candidates_per_req", crate::stats::mean(&candidates));
    layers.plan_figures(&plans);
    layers.spans(&tracer);
    layers.set(
        "trace.overhead_ratio",
        quantile(&traced, 0.5).unwrap_or(f64::NAN) / quantile(&untraced, 0.5).unwrap_or(f64::NAN),
    );
    out.note("trace.traced_requests", traced.len());
    out.note("trace.untraced_requests", untraced.len());
    crate::write_trace(args, &tracer, out);
    Ok(())
}
