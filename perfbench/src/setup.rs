//! Set-up shared by the workloads: the calibration store built by timing
//! real isolated kernel calls, the executors, and the per-kernel tally.

use lamb_expr::{Algorithm, KernelCall, KernelOp};
use lamb_kernels::BlockConfig;
use lamb_perfmodel::{
    AlgorithmTiming, CalibrationStore, CallTimeTable, Executor, MachineModel, MeasuredExecutor,
};
use lamb_plan::{BatchRequest, MinPredictedTime, Planner, PredictionCache};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Candidates kept per request: every workload plans top-8.
pub const TOP_K: usize = 8;

/// The kernel mnemonics reported per layer, in report order.
pub const KERNEL_OPS: [&str; 12] = [
    "gemm",
    "syrk",
    "symm",
    "trmm",
    "trsm",
    "potrf",
    "getrf",
    "qr",
    "ormqr",
    "copy",
    "factortri",
    "laswp",
];

/// The kernel configuration of every timed call: the default blocking, on
/// one thread. On a small shared VM a parallel kernel waits for its slowest
/// thread, so any time stolen from either vCPU stalls the whole call; one
/// thread per kernel keeps the figures steady run to run. Kernel threading
/// is therefore not measured here.
pub fn block_config() -> BlockConfig {
    BlockConfig::serial()
}

/// The executor that times isolated calls and runs chosen algorithms once
/// on the native kernels, warm (no cache flush: the workloads execute
/// requests back to back in one process, so a warm cache is what the
/// predictions must describe), with operands filled from `seed`.
pub fn executor(seed: u64) -> MeasuredExecutor {
    MeasuredExecutor::new(MachineModel::generic_laptop(), block_config(), 1, 0).with_seed(seed)
}

/// A planner for one request against the shared, store-warmed cache.
pub fn planner<'e>(
    expr: &'e lamb_expr::TreeExpression,
    cache: &Arc<PredictionCache>,
) -> Planner<'e> {
    Planner::for_expression(expr)
        .policy(MinPredictedTime)
        .top_k(TOP_K)
        .shared_cache(Arc::clone(cache))
}

/// Per-kernel work: calls, busy seconds, FLOPs and bytes touched.
#[derive(Debug, Default, Clone)]
pub struct OpTally {
    pub calls: u64,
    pub busy_s: f64,
    pub flops: u64,
    pub bytes: u64,
}

/// Kernel work per mnemonic.
#[derive(Debug, Default, Clone)]
pub struct KernelTally {
    pub ops: BTreeMap<&'static str, OpTally>,
}

/// Bytes a call reads and writes, counting each operand once: the computed
/// denominator of its arithmetic intensity.
fn call_bytes(alg: &Algorithm, call: &KernelCall) -> u64 {
    call.inputs
        .iter()
        .chain([&call.output])
        .collect::<HashSet<_>>()
        .into_iter()
        .filter_map(|id| alg.operand(*id))
        .map(|info| info.bytes())
        .sum()
}

impl KernelTally {
    fn record(&mut self, op: &KernelOp, flops: u64, bytes: u64, seconds: f64) {
        let t = self.ops.entry(op.mnemonic()).or_default();
        t.calls += 1;
        t.busy_s += seconds;
        t.flops += flops;
        t.bytes += bytes;
    }

    /// Tally every executed call of a timed algorithm (calls served from a
    /// factor store report zero seconds and are not counted).
    pub fn record_timing(&mut self, alg: &Algorithm, timing: &AlgorithmTiming) {
        for c in &timing.per_call {
            let call = &alg.calls[c.index];
            if c.seconds > 0.0 {
                self.record(&call.op, c.flops, call_bytes(alg, call), c.seconds);
            }
        }
    }

    pub fn merge(&mut self, other: &KernelTally) {
        for (op, t) in &other.ops {
            let mine = self.ops.entry(op).or_default();
            mine.calls += t.calls;
            mine.busy_s += t.busy_s;
            mine.flops += t.flops;
            mine.bytes += t.bytes;
        }
    }
}

/// One set-up: the calibration store for a workload's requests.
pub struct Calibration {
    pub store: CalibrationStore,
    /// Distinct calls timed, once each.
    pub isolated_calls: usize,
    /// Seconds spent calibrating, input generation excluded.
    pub calibrate_s: f64,
    pub tally: KernelTally,
}

/// Build the calibration store for `requests` the way a cold server does:
/// plan every distinct request once against an empty prediction cache, so
/// the planner times each isolated call its top-8 candidates make, once, on
/// the real kernels, and export the cache. The repeated set-ups of a run
/// supply the repetitions (see [`repeated_setup`]).
///
/// # Errors
///
/// A request that cannot be planned.
pub fn calibrate(requests: &[BatchRequest]) -> Result<Calibration, String> {
    let start = Instant::now();
    let cache = Arc::new(PredictionCache::new());
    let mut executor = executor(0);
    let mut seen = HashSet::new();
    let mut plans = Vec::new();
    for req in requests {
        if !seen.insert((req.text.clone(), req.dims.clone())) {
            continue;
        }
        let plan = planner(&req.expr, &cache)
            .plan_with(&req.dims, &mut executor)
            .map_err(|e| format!("calibrating `{} {:?}`: {e}", req.text, req.dims))?;
        plans.push(plan);
    }
    let calibrate_s = start.elapsed().as_secs_f64();
    let table = cache.snapshot();
    let mut tally = KernelTally::default();
    let mut tallied = HashSet::new();
    for alg in plans.iter().flat_map(|p| &p.algorithms) {
        for call in &alg.calls {
            if let Some(seconds) = table.get(&call.op) {
                if tallied.insert(call.op.timing_key()) {
                    tally.record(&call.op, call.flops(), call_bytes(alg, call), seconds);
                }
            }
        }
    }
    let mut store = CalibrationStore::new(executor.machine().clone(), "measured");
    store.meta.block_fingerprint = block_config().fingerprint();
    store.meta.timing_reps = 1;
    store.calls = table;
    Ok(Calibration {
        isolated_calls: store.calls.len(),
        store,
        calibrate_s,
        tally,
    })
}

/// The store whose every call time is the median of that call's times in
/// `stores` (all built for the same requests).
pub fn median_store(stores: &[CalibrationStore]) -> CalibrationStore {
    let mut times: HashMap<KernelOp, Vec<f64>> = HashMap::new();
    for store in stores {
        for (op, seconds) in store.calls.entries() {
            times.entry(op.clone()).or_default().push(seconds);
        }
    }
    let mut merged = stores[0].clone();
    merged.calls = CallTimeTable::from_entries(
        times
            .into_iter()
            .map(|(op, samples)| (op, crate::stats::median(&samples))),
    );
    merged
}

/// Repeat the workload's set-up `times` times (input generation plus
/// calibration) and keep the per-call median store. Each set-up times
/// every call once, so the repeats, seconds apart, are the repetitions
/// behind each store entry: a burst of load that slows one set-up moves
/// few medians. Returns the inputs, the merged store, each set-up's wall
/// time, and the calibrations.
///
/// # Errors
///
/// A request that fails to generate or calibrate.
pub fn repeated_setup<T>(
    times: usize,
    mut generate: impl FnMut() -> Result<(T, Vec<BatchRequest>), String>,
) -> Result<(T, CalibrationStore, Vec<f64>, Vec<Calibration>), String> {
    let mut inputs = None;
    let mut walls = Vec::with_capacity(times);
    let mut calibrations = Vec::with_capacity(times);
    for _ in 0..times {
        let start = Instant::now();
        let (input, requests) = generate()?;
        let calibration = calibrate(&requests)?;
        walls.push(start.elapsed().as_secs_f64());
        eprintln!(
            "perfbench: set-up {}/{times}: {:.2} s, {} isolated calls",
            walls.len(),
            walls[walls.len() - 1],
            calibration.isolated_calls
        );
        calibrations.push(calibration);
        inputs = Some(input);
    }
    let stores: Vec<CalibrationStore> = calibrations.iter().map(|c| c.store.clone()).collect();
    let store = median_store(&stores);
    Ok((
        inputs.expect("at least one set-up"),
        store,
        walls,
        calibrations,
    ))
}
