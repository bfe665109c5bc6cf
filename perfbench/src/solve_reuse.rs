//! `solve_reuse`: batches of structured solves sharing a factor cache.
//!
//! Each batch holds three solves against one SPD `S`, an LU solve chain, a
//! QR least-squares chain, left and right triangular solves, and a repeated
//! Gram product, at orders 200–600. A `BatchPlanner` sharing a
//! `FactorCache` plans the batch; the chosen algorithms then run in input
//! order against that cache, so later requests read the factors earlier
//! ones wrote. POTRF, GETRF, QR and TRSM do most of the work.

use crate::paper_exec::{guarded, relative_error, ExecTrace};
use crate::report::Outcome;
use crate::setup::{self, TOP_K};
use crate::trace::Tracer;
use crate::{Args, Layers};
use lamb_matrix::Matrix;
use lamb_perfmodel::{Executor, MeasuredExecutor};
use lamb_plan::{BatchPlanner, BatchRequest, FactorCache, MinPredictedTime, Plan, PredictionCache};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Orders of the square (or, for least squares, the taller) operands. A
/// cycle of batches gives every request slot each order exactly once.
const ORDERS: [usize; 5] = [200, 300, 400, 500, 600];

/// Right-hand-side widths, as many as orders so a cycle can give every
/// width slot each width once.
const WIDTHS: [usize; 5] = [40, 70, 100, 130, 160];

/// Request slots whose order the schedule sets.
const SLOTS: usize = 6;

/// Request slots whose right-hand-side width the schedule sets.
const WIDTH_SLOTS: usize = 8;

/// Largest relative difference between a result computed with reuse and
/// the same request computed without.
const TOLERANCE: f64 = 1e-9;

/// One batch's requests as batch-file lines, for the slot orders `n` and
/// widths `w`; `s` holds three different widths for the solves against S.
fn batch_lines(n: [usize; SLOTS], w: [usize; WIDTH_SLOTS], s: [usize; 3]) -> Vec<String> {
    // Three different right-hand sides against one S: the first solve
    // factors S, the others read its factor from the cache.
    let mut lines: Vec<String> = s
        .iter()
        .map(|&k| format!("S[spd]^-1*B {} {k}", n[0]))
        .collect();
    lines.push(format!("A^-1*B*C {} {} {}", n[1], w[0], w[1]));
    // A^+ takes its column count first; A is n x (3n/4).
    lines.push(format!(
        "A^+*B*C {} {} {} {}",
        n[2] * 3 / 4,
        n[2],
        w[2],
        w[3]
    ));
    lines.push(format!("L[lower]^-1*A*B {} {} {}", n[3], w[4], w[5]));
    lines.push(format!("B*L[lower]^-1 {} {}", w[6], n[4]));
    lines.push(format!("A*A^T*A*A^T*B {} {} {}", n[5], n[5] / 2, w[7]));
    lines
}

/// A cycle of batches: slot `j` of batch `b` takes order `b + j` (and
/// width `b + 2j`) of the lists, cyclically, so every slot sees each order
/// and width once per cycle. The cycle is the same for every seed: the seed
/// orders its batches and fills the operands, so runs with different seeds
/// measure the same work.
fn batches(seed: u64) -> Vec<Vec<String>> {
    let mut cycle: Vec<Vec<String>> = (0..ORDERS.len())
        .map(|b| {
            let n = std::array::from_fn(|j| ORDERS[(b + j) % ORDERS.len()]);
            let w = std::array::from_fn(|j| WIDTHS[(b + 2 * j) % WIDTHS.len()]);
            let s = std::array::from_fn(|i| WIDTHS[(b + i) % WIDTHS.len()]);
            batch_lines(n, w, s)
        })
        .collect();
    crate::shuffle(&mut cycle, seed);
    cycle
}

/// Results without reuse, keyed by request line and algorithm name.
type References = HashMap<(String, String), Matrix>;

fn check(
    line: &str,
    plan: &Plan,
    result: &Matrix,
    native: &MeasuredExecutor,
    references: &mut References,
) -> Result<(), String> {
    let alg = plan.chosen_algorithm();
    let key = (line.to_string(), alg.name.clone());
    if !references.contains_key(&key) {
        let plain = guarded(|| native.compute_result(alg))
            .map_err(|e| format!("`{line}`: execution without reuse failed: {e}"))?;
        references.insert(key.clone(), plain);
    }
    let err = relative_error(result, &references[&key]);
    if err > TOLERANCE {
        return Err(format!(
            "`{line}`: {} with reuse differs from without by {err:e}",
            alg.name
        ));
    }
    Ok(())
}

/// Totals over the executed requests.
#[derive(Default)]
struct Reuse {
    reused_flops: u64,
    flops: u64,
    cache_hits: usize,
}

/// The executor, shared prediction cache and checking state batches run
/// against.
struct Runner {
    cache: Arc<PredictionCache>,
    native: MeasuredExecutor,
    references: References,
    reuse: Reuse,
}

impl Runner {
    fn planner(&self, factors: &Arc<FactorCache>) -> BatchPlanner {
        BatchPlanner::new()
            .policy(MinPredictedTime)
            .top_k(TOP_K)
            .shared_cache(Arc::clone(&self.cache))
            .factor_cache(Arc::clone(factors))
            .executor_factory(|| Box::new(setup::executor(0)))
    }

    /// Plan one batch and execute its requests in order against the
    /// batch's factor cache. Returns per-request latencies (the request's
    /// share of the batch's parse and plan time plus its own execution) and
    /// the batch's busy time; checks run outside the clock. Traced, the
    /// batch's parse and plan and each execution are spans, executions run
    /// through `execute_algorithm_reusing` for their per-call times, and
    /// the results are recomputed for the check against a second factor
    /// cache.
    fn batch(
        &mut self,
        lines: &[String],
        tracer: &mut Tracer,
        first_rid: u64,
        mut traced: Option<&mut ExecTrace>,
        out: &mut Outcome,
    ) -> (Vec<f64>, f64) {
        let factors = Arc::new(FactorCache::new());
        let check_factors = FactorCache::new();
        let start = Instant::now();
        let text = lines.join("\n");
        let parsed = tracer.time("expr.parse_file", first_rid, None, || {
            BatchRequest::parse_file(&text)
        });
        let span = tracer.open("plan.plan_batch", first_rid, None);
        let outcome = parsed.map(|reqs| self.planner(&factors).plan_batch(&reqs));
        tracer.close(span);
        let plan_s = start.elapsed().as_secs_f64();
        let plan_share = plan_s / lines.len() as f64;
        let mut busy_s = plan_s;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                for line in lines {
                    out.count(Some(format!("`{line}`: batch parse: {e}")));
                }
                return (Vec::new(), busy_s);
            }
        };
        let mut latencies = Vec::with_capacity(lines.len());
        for ((rid, line), planned) in (first_rid..).zip(lines).zip(outcome.results) {
            let plan = match planned {
                Ok(p) => p,
                Err(e) => {
                    out.count(Some(format!("`{line}`: {e}")));
                    continue;
                }
            };
            let alg = plan.chosen_algorithm();
            let root = tracer.open("request", rid, None);
            let span = tracer.open("perfmodel.execute", rid, Some(root));
            let start = Instant::now();
            let executed = match traced.as_deref_mut() {
                Some(t) => guarded(|| self.native.execute_algorithm_reusing(alg, factors.as_ref()))
                    .map(|(timing, report)| {
                        t.record(alg, &timing, start.elapsed().as_secs_f64());
                        (None, report)
                    }),
                None => guarded(|| self.native.compute_result_reusing(alg, factors.as_ref()))
                    .map(|(result, report)| (Some(result), report)),
            };
            let exec_s = start.elapsed().as_secs_f64();
            tracer.close(span);
            tracer.close(root);
            busy_s += exec_s;
            let checked = executed
                .and_then(|(result, report)| {
                    self.reuse.reused_flops += report.reused_flops;
                    self.reuse.flops += alg.flops();
                    match result {
                        Some(r) => Ok(r),
                        None => guarded(|| self.native.compute_result_reusing(alg, &check_factors))
                            .map(|(r, _)| r),
                    }
                })
                .map_err(|e| format!("`{line}`: execution failed: {e}"))
                .and_then(|result| check(line, &plan, &result, &self.native, &mut self.references));
            match checked {
                Ok(()) => {
                    latencies.push(plan_share + exec_s);
                    if let Some(t) = traced.as_deref_mut() {
                        t.plans.push(plan);
                    }
                    out.count(None);
                }
                Err(e) => out.count(Some(e)),
            }
        }
        self.reuse.cache_hits += factors.hits();
        (latencies, busy_s)
    }
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut Layers) -> Result<(), String> {
    let setups = if args.trace { 1 } else { crate::SETUP_REPEATS };
    let (cycle, store, walls, calibrations) = setup::repeated_setup(setups, || {
        let cycle = batches(args.seed);
        let requests = cycle
            .iter()
            .flatten()
            .map(|l| BatchRequest::parse_line(l, 1).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((cycle, requests))
    })?;
    crate::layers::note_setup(out, layers, &walls, &calibrations);
    out.note("solve_reuse.batches_per_cycle", cycle.len());
    out.note("solve_reuse.requests_per_batch", cycle[0].len());

    let mut runner = Runner {
        cache: Arc::new(PredictionCache::from_table(&store.calls)),
        native: setup::executor(args.seed),
        references: References::new(),
        reuse: Reuse::default(),
    };
    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let mut traced = ExecTrace::default();
    let mut passes: Vec<crate::Pass> = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut cycles = 0usize;
    let mut rid = 0u64;
    let before = runner.cache.stats();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    // Whole cycles only, so every run measures the same requests. In a
    // traced run, untraced and traced cycles alternate, so both see every
    // batch.
    while cycles == 0 || (args.trace && cycles == 1) || Instant::now() < deadline {
        let traced_cycle = args.trace && cycles % 2 == 1;
        let mut pass = crate::Pass::default();
        for lines in &cycle {
            if traced_cycle {
                traced_latencies.extend(
                    runner
                        .batch(lines, &mut tracer, rid, Some(&mut traced), out)
                        .0,
                );
            } else {
                let (latencies, busy_s) = runner.batch(lines, &mut off, rid, None, out);
                pass.served += latencies.len();
                pass.latencies.extend(latencies);
                pass.busy_s += busy_s;
            }
            rid += lines.len() as u64;
        }
        if !traced_cycle {
            passes.push(pass);
        }
        cycles += 1;
    }
    let (hits, misses) = runner.cache.stats();
    let (hits, misses) = (hits - before.0, misses - before.1);
    if misses > 0 {
        out.invalidate(format!(
            "{misses} prediction-cache misses: the store is stale"
        ));
    }
    out.note("solve_reuse.cycles_run", cycles);
    crate::report_passes(out, &passes, 0.90, "latency_p90_ms");
    if args.trace {
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.latencies.iter().copied())
            .collect();
        let reuse = &runner.reuse;
        layers.set(
            "plan.factor_reuse_ratio",
            reuse.reused_flops as f64 / reuse.flops.max(1) as f64,
        );
        layers.set("plan.factor_cache_hits", reuse.cache_hits as f64);
        layers.set(
            "plan.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.set("plan.cache_lookups", (hits + misses) as f64);
        crate::paper_exec::finish_trace(
            args,
            out,
            layers,
            &tracer,
            traced,
            &latencies,
            &traced_latencies,
        );
    }
    Ok(())
}
