//! The builder-style [`Planner`], and the one planning pipeline it shares
//! with [`BatchPlanner`](crate::BatchPlanner).

use crate::cache::{CachingExecutor, PredictionCache};
use crate::factor_cache::{effective_flops, FactorCache, ReuseAwareExecutor};
use crate::plan::{AlgorithmScore, Plan, PlanError};
use lamb_expr::{
    cacheable_identities, eliminate_common_subexpressions, Algorithm, Expression, KernelOp,
    OperandId,
};
use lamb_perfmodel::{CalibrationStore, CallTimeTable, Executor, FactorStore, SimulatedExecutor};
use lamb_select::{AlgorithmMeasurement, InstanceEvaluation, MinFlops, SelectionPolicy, Strategy};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Builds the executor one planning worker times algorithms with.
pub(crate) type ExecutorFactory = Arc<dyn Fn() -> Box<dyn Executor> + Send + Sync>;

/// The settings [`Planner`] and [`BatchPlanner`](crate::BatchPlanner)
/// share, and the one planning pipeline that runs under them.
pub(crate) struct Settings {
    pub(crate) policy: Arc<dyn SelectionPolicy>,
    pub(crate) factory: ExecutorFactory,
    pub(crate) threshold: f64,
    pub(crate) score_predictions: bool,
    pub(crate) top_k: Option<usize>,
    pub(crate) cache: Arc<PredictionCache>,
    pub(crate) use_cse: bool,
    pub(crate) factor_cache: Option<Arc<FactorCache>>,
}

impl Settings {
    /// The defaults under `policy`: the paper-like simulated executor, the
    /// 10% anomaly threshold of Experiment 1, predicted-time scoring, a cold
    /// prediction cache, CSE on, no factor cache and no enumeration cap.
    pub(crate) fn new(policy: Arc<dyn SelectionPolicy>) -> Self {
        Settings {
            policy,
            factory: Arc::new(|| Box::new(SimulatedExecutor::paper_like())),
            threshold: 0.10,
            score_predictions: true,
            top_k: None,
            cache: Arc::new(PredictionCache::new()),
            use_cse: true,
            factor_cache: None,
        }
    }

    /// The attached factor cache, if any.
    fn factors(&self) -> Option<&dyn FactorStore> {
        self.factor_cache.as_deref().map(|fc| fc as _)
    }

    /// The planning pipeline: validate → enumerate + CSE → dedup → debug
    /// verify gate → score → select. With `factors`, resident factors score
    /// as free and the chosen algorithm's factors become resident.
    pub(crate) fn plan(
        &self,
        expr: &dyn Expression,
        dims: &[usize],
        executor: &mut dyn Executor,
        factors: Option<&dyn FactorStore>,
    ) -> Result<Plan, PlanError> {
        let (algorithms, duplicates_removed) = self.candidates(expr, dims)?;
        let (scores, chosen) = self.score_and_select(&algorithms, executor, factors)?;
        if let Some(store) = factors {
            note_resident(store, &algorithms[chosen]);
        }
        Ok(Plan {
            dims: dims.to_vec(),
            expression: expr.name(),
            algorithms,
            scores,
            chosen,
            policy: self.policy.name(),
            duplicates_removed,
            threshold: self.threshold,
            factory: Arc::clone(&self.factory),
            cache: Arc::clone(&self.cache),
        })
    }

    /// The pipeline up to scoring: the deduplicated, verified candidates and
    /// the number of duplicates dropped.
    fn candidates(
        &self,
        expr: &dyn Expression,
        dims: &[usize],
    ) -> Result<(Vec<Algorithm>, usize), PlanError> {
        // Zero dimensions are deliberately *not* rejected here: every kernel,
        // FLOP model and executor handles degenerate (empty) operands, and
        // the degenerate-dimension proptests drive zero- and unit-sized
        // instances through this exact path.
        if dims.len() != expr.num_dims() {
            return Err(PlanError::DimensionMismatch {
                expected: expr.num_dims(),
                got: dims.len(),
            });
        }
        // With CSE on, every candidate is rewritten into its shared (DAG)
        // form so each distinct node is computed — and charged — once.
        let mut enumerated = expr.algorithms_pruned(dims, self.top_k)?;
        if self.use_cse {
            enumerated = enumerated
                .iter()
                .map(|a| eliminate_common_subexpressions(a).algorithm)
                .collect();
        }
        // Deduplicate on the *post-CSE* canonical form: rewrites can derive
        // sequences that only become identical once their internal
        // duplicates are merged.
        let (algorithms, duplicates_removed) = dedup_by_signature(enumerated);
        if algorithms.is_empty() {
            return Err(PlanError::NoAlgorithms);
        }
        // Debug-mode gate: every candidate the policy may pick must pass the
        // static analyser. Compiled out in release builds (no timing skew).
        for alg in &algorithms {
            lamb_verify::debug_assert_verified(alg);
        }
        Ok((algorithms, duplicates_removed))
    }

    /// Score `algorithms` and let the policy choose among them, both through
    /// the same executor.
    pub(crate) fn score_and_select(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
        factors: Option<&dyn FactorStore>,
    ) -> Result<(Vec<AlgorithmScore>, usize), PlanError> {
        self.scoring(executor, factors, |exec| {
            let scores = score(algorithms, exec, factors, self.score_predictions);
            Ok((scores, self.policy.select(algorithms, exec)?))
        })
    }

    /// Run `f` with `executor` routed through the prediction cache and, with
    /// `factors`, through the residency discount.
    fn scoring<R>(
        &self,
        executor: &mut dyn Executor,
        factors: Option<&dyn FactorStore>,
        f: impl FnOnce(&mut dyn Executor) -> R,
    ) -> R {
        let mut caching = CachingExecutor::new(executor, &self.cache);
        match factors {
            Some(store) => f(&mut ReuseAwareExecutor::new(&mut caching, store)),
            None => f(&mut caching),
        }
    }

    /// Map `f` over `items` across rayon workers: one contiguous chunk and
    /// one executor from the factory per worker, results in input order.
    pub(crate) fn fan_out<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T, &mut dyn Executor) -> R + Sync,
    ) -> Vec<R> {
        let workers = rayon::current_num_threads().min(items.len()).max(1);
        let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(workers).max(1)).collect();
        let per_chunk: Vec<Vec<R>> = chunks
            .into_par_iter()
            .map(|chunk| {
                let mut executor = (self.factory)();
                chunk
                    .iter()
                    .map(|item| f(item, executor.as_mut()))
                    .collect()
            })
            .collect();
        per_chunk.into_iter().flatten().collect()
    }
}

/// The one scoring function: each algorithm's FLOPs (net of resident factors
/// with `factors`) and, when `predict`, its time predicted from the
/// isolated-call benchmarks of `executor`. Without `factors` no factor
/// identity is built.
fn score(
    algorithms: &[Algorithm],
    executor: &mut dyn Executor,
    factors: Option<&dyn FactorStore>,
    predict: bool,
) -> Vec<AlgorithmScore> {
    algorithms
        .iter()
        .enumerate()
        .map(|(index, alg)| AlgorithmScore {
            index,
            name: alg.name.clone(),
            flops: factors.map_or_else(|| alg.flops(), |store| effective_flops(alg, store)),
            predicted_seconds: predict.then(|| executor.predict_from_isolated_calls(alg).seconds),
        })
        .collect()
}

/// Mark `alg`'s cacheable factors resident in `store`, for the instances
/// planned after it (bytes arrive when an execution computes them).
pub(crate) fn note_resident(store: &dyn FactorStore, alg: &Algorithm) {
    for (_, _, identity) in cacheable_identities(alg) {
        store.note(&identity);
    }
}

/// The builder methods [`Planner`] and [`BatchPlanner`](crate::BatchPlanner)
/// share: each sets or reads one field of their common [`Settings`].
macro_rules! settings_builders {
    () => {
        /// Enable or disable common-subexpression elimination over the
        /// enumerated kernel-call sequences (on by default). With CSE on,
        /// every candidate algorithm is rewritten so identical
        /// subcomputations — repeated POTRFs of one SPD operand, repeated
        /// SYRK Gram products, repeated TRSM half-solves — are computed once
        /// and referenced thereafter, and the FLOP scores charge each
        /// distinct node once. Disable for an ablation (`--no-cse` in the
        /// CLI).
        #[must_use]
        pub fn cse(mut self, enabled: bool) -> Self {
            self.settings.use_cse = enabled;
            self
        }

        /// Use `policy` to choose among the enumerated algorithms.
        #[must_use]
        pub fn policy(mut self, policy: impl SelectionPolicy + 'static) -> Self {
            self.settings.policy = Arc::new(policy);
            self
        }

        /// Use the built-in policy named by `strategy`.
        #[must_use]
        pub fn strategy(mut self, strategy: Strategy) -> Self {
            self.settings.policy = Arc::from(strategy.to_policy());
            self
        }

        /// Time algorithms with executors built by `factory`: one per
        /// [`Planner::plan`](crate::Planner::plan) call, and one per worker
        /// thread in [`Planner::plan_grid`](crate::Planner::plan_grid) and
        /// [`BatchPlanner::plan_batch`](crate::BatchPlanner::plan_batch).
        #[must_use]
        pub fn executor_factory(
            mut self,
            factory: impl Fn() -> Box<dyn Executor> + Send + Sync + 'static,
        ) -> Self {
            self.settings.factory = Arc::new(factory);
            self
        }

        /// Time-score threshold used when plans classify anomalies (paper:
        /// 10% in Experiment 1, 5% in Experiments 2-3).
        #[must_use]
        pub fn threshold(mut self, threshold: f64) -> Self {
            self.settings.threshold = threshold;
            self
        }

        /// Restrict enumeration to the `k` algorithms with the smallest FLOP
        /// counts (branch-and-bound pruned by the general enumerator). This
        /// keeps planning tractable on long chains, whose full algorithm set
        /// grows factorially.
        #[must_use]
        pub fn top_k(mut self, k: usize) -> Self {
            self.settings.top_k = Some(k.max(1));
            self
        }

        /// Share `cache` with other planners and batch planners: every
        /// planner wired to the same cache benchmarks each distinct kernel
        /// call at most once between them.
        #[must_use]
        pub fn shared_cache(mut self, cache: Arc<PredictionCache>) -> Self {
            self.settings.cache = cache;
            self
        }

        /// Warm-start the prediction cache from a persisted
        /// [`CalibrationStore`]: every kernel call whose timing key the store
        /// covers is a cache hit instead of a fresh benchmark. See the
        /// `calibrate` CLI command and [`Self::snapshot_cache`] for the other
        /// half of the round trip.
        ///
        /// Stores written by `calibrate --autotune` also carry the autotuned
        /// `BlockConfig` ([`CalibrationStore::tuned_block_config`]); build
        /// the measured executors under that configuration so the preloaded
        /// timings describe the blocking actually run (the CLI's executor
        /// factory does this).
        #[must_use]
        pub fn with_store(self, store: &CalibrationStore) -> Self {
            self.settings.cache.preload(&store.calls);
            self
        }

        /// Export the prediction cache (preloaded entries plus everything
        /// benchmarked since) as a [`CallTimeTable`], e.g. to merge back
        /// into a calibration store.
        #[must_use]
        pub fn snapshot_cache(&self) -> CallTimeTable {
            self.settings.cache.snapshot()
        }

        /// `(hits, misses)` of the shared prediction cache since
        /// construction.
        #[must_use]
        pub fn cache_stats(&self) -> (usize, usize) {
            self.settings.cache.stats()
        }
    };
}
pub(crate) use settings_builders;

/// Plans expression instances: enumerate the mathematically equivalent
/// algorithms, score them, and let a [`SelectionPolicy`] choose.
///
/// ```
/// use lamb_expr::AatbExpression;
/// use lamb_plan::Planner;
/// use lamb_select::MinPredictedTime;
///
/// let expr = AatbExpression::new();
/// let planner = Planner::for_expression(&expr).policy(MinPredictedTime);
/// let plan = planner.plan(&[80, 514, 768]).unwrap();
/// let outcome = plan.execute();
/// // On this paper instance the cheapest algorithms are not the fastest,
/// // and the prediction-based policy avoids the trap.
/// assert!(outcome.is_anomaly());
/// assert!(outcome.regret() < 0.05);
/// ```
pub struct Planner<'e> {
    expr: &'e dyn Expression,
    settings: Settings,
}

impl<'e> Planner<'e> {
    /// Start planning for `expr` with the defaults: the `MinFlops` policy
    /// (what Linnea/Armadillo/Julia do), the paper-like simulated executor,
    /// predicted-time scoring enabled, and the 10% anomaly threshold of
    /// Experiment 1.
    #[must_use]
    pub fn for_expression(expr: &'e dyn Expression) -> Self {
        Planner {
            expr,
            settings: Settings::new(Arc::new(MinFlops)),
        }
    }

    settings_builders!();

    /// Share a [`FactorCache`] with other planners (typically through a
    /// [`crate::BatchPlanner`] batch): cacheable factors already resident in
    /// the cache score as free — zero FLOPs, zero predicted seconds — so
    /// `MinPredictedTime` (and `Hybrid`) prefer algorithms that reuse them,
    /// and each plan's chosen algorithm registers its own factors for later
    /// instances. Off by default: without a factor cache, planning is
    /// completely independent across instances.
    #[must_use]
    pub fn factor_cache(mut self, cache: Arc<FactorCache>) -> Self {
        self.settings.factor_cache = Some(cache);
        self
    }

    /// Time algorithms with clones of `executor` (one clone per worker in
    /// [`Planner::plan_grid`]).
    #[must_use]
    pub fn executor<E: Executor + Clone + Sync + 'static>(self, executor: E) -> Self {
        self.executor_factory(move || Box::new(executor.clone()))
    }

    /// Whether [`Plan::scores`](crate::Plan) should include predicted times
    /// (benchmarked through the shared cache). Disable for tight loops that
    /// only need the FLOP scores and the policy's choice.
    #[must_use]
    pub fn score_predictions(mut self, enabled: bool) -> Self {
        self.settings.score_predictions = enabled;
        self
    }

    /// The expression being planned.
    #[must_use]
    pub fn expression(&self) -> &'e dyn Expression {
        self.expr
    }

    /// The shared prediction cache: distinct kernel calls benchmarked so far.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.settings.cache.len()
    }

    /// Plan one instance with a fresh executor from the factory.
    ///
    /// ```
    /// use lamb_expr::TreeExpression;
    /// use lamb_plan::{MinPredictedTime, Planner};
    ///
    /// let expr = TreeExpression::parse("A*A^T*B").unwrap();
    /// let planner = Planner::for_expression(&expr).policy(MinPredictedTime);
    /// let plan = planner.plan(&[80, 514, 768]).unwrap();
    ///
    /// // Five mathematically equivalent algorithms, each scored by FLOPs and
    /// // by predicted time from (cached) isolated-call benchmarks.
    /// assert_eq!(plan.algorithms.len(), 5);
    /// assert!(plan.scores.iter().all(|s| s.predicted_seconds.is_some()));
    /// // On this paper instance the FLOP-cheapest algorithm is NOT the one
    /// // the prediction-based policy picks: the anomaly the paper studies.
    /// let min_flops = plan.scores.iter().map(|s| s.flops).min().unwrap();
    /// assert_ne!(plan.chosen_score().flops, min_flops);
    /// ```
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan(&self, dims: &[usize]) -> Result<Plan, PlanError> {
        let mut executor = (self.settings.factory)();
        self.plan_with(dims, executor.as_mut())
    }

    /// Plan one instance, consulting `executor` (through the shared
    /// prediction cache) for predicted times.
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan_with(
        &self,
        dims: &[usize],
        executor: &mut dyn Executor,
    ) -> Result<Plan, PlanError> {
        self.settings
            .plan(self.expr, dims, executor, self.settings.factors())
    }

    /// Plan a batch of instances, fanning out across worker threads: the
    /// grid is split into one contiguous chunk per worker, each worker
    /// builds one executor from the factory, and the prediction cache is
    /// shared by all of them.
    ///
    /// Results come back in input order, one per instance; an invalid
    /// instance yields its own `Err` without failing the rest. Verdicts are
    /// independent of the number of worker threads because the deterministic
    /// executors key their timings on the kernel-call signatures alone.
    #[must_use]
    pub fn plan_grid(&self, grid: &[Vec<usize>]) -> Vec<Result<Plan, PlanError>> {
        self.settings
            .fan_out(grid, |dims, executor| self.plan_with(dims, executor))
    }

    /// Build the *predicted* evaluation of one instance: per-algorithm times
    /// formed by summing (cached) isolated-call benchmarks — the predictor of
    /// the paper's Experiment 3. Classify the result to get the predicted
    /// anomaly verdict.
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn predict_instance(
        &self,
        dims: &[usize],
        executor: &mut dyn Executor,
    ) -> Result<InstanceEvaluation, PlanError> {
        let (algorithms, _) = self.settings.candidates(self.expr, dims)?;
        let factors = self.settings.factors();
        let scores = self.settings.scoring(executor, factors, |exec| {
            score(&algorithms, exec, factors, true)
        });
        let measurements = scores
            .into_iter()
            .map(|s| AlgorithmMeasurement {
                index: s.index,
                name: s.name,
                flops: s.flops,
                // Always predicted: `score` ran with `predict` on.
                seconds: s.predicted_seconds.unwrap_or_default(),
            })
            .collect();
        Ok(InstanceEvaluation {
            dims: dims.to_vec(),
            measurements,
        })
    }
}

/// The behavioural identity of an algorithm: its kernel-call signature
/// (operation, operand wiring) with the presentational labels stripped.
type CallSignature = Vec<(KernelOp, Vec<OperandId>, OperandId)>;

fn call_signature(alg: &Algorithm) -> CallSignature {
    alg.calls
        .iter()
        .map(|c| (c.op.clone(), c.inputs.clone(), c.output))
        .collect()
}

/// Drop algorithms whose kernel-call signature duplicates an earlier one
/// (rewrites can derive the same sequence along different paths), returning
/// the survivors in order and the number removed.
fn dedup_by_signature(algorithms: Vec<Algorithm>) -> (Vec<Algorithm>, usize) {
    let before = algorithms.len();
    let mut seen: HashSet<CallSignature> = HashSet::with_capacity(before);
    let deduped: Vec<Algorithm> = algorithms
        .into_iter()
        .filter(|alg| seen.insert(call_signature(alg)))
        .collect();
    let removed = before - deduped.len();
    (deduped, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_expr::{AatbExpression, GenerateError, MatrixChainExpression, TreeExpression};
    use lamb_select::{MinPredictedTime, Oracle, SelectError};

    #[test]
    fn planning_validates_dimensions() {
        let expr = AatbExpression::new();
        let planner = Planner::for_expression(&expr);
        assert_eq!(
            planner.plan(&[10, 20]).unwrap_err(),
            PlanError::DimensionMismatch {
                expected: 3,
                got: 2
            }
        );
        // Zero dimensions are legal degenerate instances, not errors: they
        // plan (and execute to empty/zero results) like any other size.
        let degenerate = planner.plan(&[10, 0, 30]).unwrap();
        assert_eq!(degenerate.chosen_algorithm().output().unwrap().cols, 30);
    }

    #[test]
    fn default_policy_is_min_flops() {
        let expr = MatrixChainExpression::abcd();
        let planner = Planner::for_expression(&expr);
        let plan = planner.plan(&[100, 20, 300, 20, 500]).unwrap();
        assert_eq!(plan.policy, "min-flops");
        let min = plan.scores.iter().map(|s| s.flops).min().unwrap();
        assert_eq!(plan.chosen_score().flops, min);
        assert_eq!(plan.algorithms.len(), 6);
        assert_eq!(plan.expression, expr.name());
    }

    #[test]
    fn scores_include_predictions_by_default_and_can_be_disabled() {
        let expr = AatbExpression::new();
        let planner = Planner::for_expression(&expr);
        let plan = planner.plan(&[80, 100, 120]).unwrap();
        assert!(plan.scores.iter().all(|s| s.predicted_seconds.is_some()));
        assert!(planner.cache_len() > 0);

        let lean = Planner::for_expression(&expr).score_predictions(false);
        let plan = lean.plan(&[80, 100, 120]).unwrap();
        assert!(plan.scores.iter().all(|s| s.predicted_seconds.is_none()));
        assert_eq!(lean.cache_len(), 0, "min-flops must not benchmark");
    }

    #[test]
    fn policy_and_strategy_builders_agree() {
        let expr = AatbExpression::new();
        let dims = [400usize, 100, 1100];
        let via_policy = Planner::for_expression(&expr)
            .policy(MinPredictedTime)
            .plan(&dims)
            .unwrap();
        let via_strategy = Planner::for_expression(&expr)
            .strategy(Strategy::MinPredictedTime)
            .plan(&dims)
            .unwrap();
        assert_eq!(via_policy.chosen, via_strategy.chosen);
        assert_eq!(via_policy.policy, via_strategy.policy);
    }

    #[test]
    fn execution_judges_the_choice_against_the_optimum() {
        let expr = AatbExpression::new();
        let oracle = Planner::for_expression(&expr).policy(Oracle);
        let outcome = oracle.plan(&[300, 700, 900]).unwrap().execute();
        assert!(outcome.regret() < 1e-12, "the oracle has no regret");
        assert_eq!(outcome.timings.len(), 5);
        assert!(outcome.best_seconds > 0.0);
    }

    #[test]
    fn select_errors_surface_as_plan_errors() {
        // A planner over an expression that enumerates nothing.
        struct Empty;
        impl Expression for Empty {
            fn name(&self) -> String {
                "empty".into()
            }
            fn num_dims(&self) -> usize {
                1
            }
            fn algorithms(&self, _dims: &[usize]) -> Result<Vec<Algorithm>, GenerateError> {
                Ok(Vec::new())
            }
        }
        let expr = Empty;
        let planner = Planner::for_expression(&expr);
        assert_eq!(planner.plan(&[10]).unwrap_err(), PlanError::NoAlgorithms);
        // And the SelectError conversion is exercised directly.
        assert_eq!(
            PlanError::from(SelectError::EmptyAlgorithmSet),
            PlanError::Select(SelectError::EmptyAlgorithmSet)
        );
    }

    #[test]
    fn enumeration_errors_surface_as_plan_errors() {
        struct Broken;
        impl Expression for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn num_dims(&self) -> usize {
                1
            }
            fn algorithms(&self, _dims: &[usize]) -> Result<Vec<Algorithm>, GenerateError> {
                Err(GenerateError::Empty)
            }
        }
        let expr = Broken;
        let planner = Planner::for_expression(&expr);
        assert_eq!(
            planner.plan(&[10]).unwrap_err(),
            PlanError::Generate(GenerateError::Empty)
        );
        let message = planner.plan(&[10]).unwrap_err().to_string();
        assert!(message.contains("enumeration failed"), "{message}");
    }

    #[test]
    fn duplicate_call_signatures_are_removed_and_reported() {
        // An expression that (artificially) enumerates the same algorithm
        // twice under different names.
        struct Doubled;
        impl Expression for Doubled {
            fn name(&self) -> String {
                "doubled".into()
            }
            fn num_dims(&self) -> usize {
                3
            }
            fn algorithms(&self, dims: &[usize]) -> Result<Vec<Algorithm>, GenerateError> {
                let aatb = AatbExpression::new();
                let mut algs = aatb.algorithms(dims)?;
                let mut twin = algs[0].clone();
                twin.name = "the same algorithm again".into();
                for call in &mut twin.calls {
                    call.label = format!("{} (relabelled)", call.label);
                }
                algs.push(twin);
                Ok(algs)
            }
        }
        let expr = Doubled;
        let plan = Planner::for_expression(&expr)
            .plan(&[80, 100, 120])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 1, "the relabelled twin is a dup");
        assert_eq!(plan.algorithms.len(), 5);
        // The paper expressions have no duplicates.
        let aatb = AatbExpression::new();
        let plan = Planner::for_expression(&aatb)
            .plan(&[80, 100, 120])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 0);
        assert_eq!(plan.algorithms.len(), 5);
    }

    #[test]
    fn dedup_happens_on_the_post_cse_canonical_form() {
        use lamb_expr::{KernelCall, KernelOp, OperandId, OperandInfo, OperandRole};
        use lamb_matrix::{Structure, Trans};
        // (A*B)*(A*B) on square operands, enumerated two ways: one algorithm
        // shares the product T = A*B, its twin recomputes it into a second
        // intermediate. The kernel-call signatures differ *until* CSE merges
        // the recomputation, at which point the twin collapses onto the
        // original and must be removed as a duplicate.
        struct TwinnedByRedundancy;
        impl Expression for TwinnedByRedundancy {
            fn name(&self) -> String {
                "twinned".into()
            }
            fn num_dims(&self) -> usize {
                1
            }
            fn algorithms(&self, dims: &[usize]) -> Result<Vec<Algorithm>, GenerateError> {
                let s = dims[0];
                let square = |id: usize, name: &str, role: OperandRole| OperandInfo {
                    id: OperandId(id),
                    rows: s,
                    cols: s,
                    role,
                    name: name.to_string(),
                    structure: Structure::General,
                };
                let gemm = |a: usize, b: usize, out: usize, label: &str| KernelCall {
                    op: KernelOp::Gemm {
                        transa: Trans::No,
                        transb: Trans::No,
                        m: s,
                        n: s,
                        k: s,
                    },
                    inputs: vec![OperandId(a), OperandId(b)],
                    output: OperandId(out),
                    label: label.to_string(),
                };
                let shared = Algorithm {
                    name: "share the product".into(),
                    operands: vec![
                        square(0, "A", OperandRole::Input),
                        square(1, "B", OperandRole::Input),
                        square(2, "T", OperandRole::Intermediate),
                        square(3, "out", OperandRole::Output),
                    ],
                    calls: vec![gemm(0, 1, 2, "T = A B"), gemm(2, 2, 3, "out = T T")],
                };
                let mut twin = shared.clone();
                twin.name = "recompute the product".into();
                twin.operands
                    .push(square(4, "T (recomputed)", OperandRole::Intermediate));
                twin.calls = vec![
                    gemm(0, 1, 2, "T = A B"),
                    gemm(0, 1, 4, "T' = A B (again)"),
                    gemm(2, 4, 3, "out = T T'"),
                ];
                Ok(vec![shared, twin])
            }
        }
        let expr = TwinnedByRedundancy;
        // With CSE (the default) the twin is canonicalised back onto the
        // original and deduplicated.
        let plan = Planner::for_expression(&expr)
            .score_predictions(false)
            .plan(&[32])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 1, "the twin is a post-CSE dup");
        assert_eq!(plan.algorithms.len(), 1);
        // The --no-cse ablation sees two genuinely different call sequences.
        let plan = Planner::for_expression(&expr)
            .score_predictions(false)
            .cse(false)
            .plan(&[32])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 0, "pre-CSE the signatures differ");
        assert_eq!(plan.algorithms.len(), 2);
    }

    #[test]
    fn a_shared_factor_cache_warms_successive_plans() {
        let expr = TreeExpression::parse("S[spd]^-1*B").unwrap();
        let cache = Arc::new(crate::FactorCache::new());
        let planner = Planner::for_expression(&expr)
            .policy(MinPredictedTime)
            .factor_cache(Arc::clone(&cache));
        let cold = planner.plan(&[120, 16]).unwrap();
        assert!(
            !cache.is_empty(),
            "the chosen algorithm's factors are registered"
        );
        let warm = planner.plan(&[120, 16]).unwrap();
        let cold_seconds = cold.chosen_score().predicted_seconds.unwrap();
        let warm_seconds = warm.chosen_score().predicted_seconds.unwrap();
        assert!(
            warm_seconds < cold_seconds,
            "resident factors must discount the warm prediction \
             ({warm_seconds} vs {cold_seconds})"
        );
        assert!(
            warm.chosen_score().flops < cold.chosen_score().flops,
            "effective FLOPs are discounted once the factors are resident"
        );
        // Without the factor cache the two plans are identical (and both
        // match the cold plan): planning stays instance-independent.
        let independent = Planner::for_expression(&expr).policy(MinPredictedTime);
        let first = independent.plan(&[120, 16]).unwrap();
        let second = independent.plan(&[120, 16]).unwrap();
        assert_eq!(first.chosen, second.chosen);
        assert_eq!(
            first.chosen_score().predicted_seconds,
            second.chosen_score().predicted_seconds
        );
    }

    #[test]
    fn predict_instance_agrees_with_plan_scores_with_and_without_factors() {
        let spd = TreeExpression::parse("S[spd]^-1*B").unwrap();
        let aatb = AatbExpression::new();
        let cases: [(&dyn Expression, &[usize]); 2] = [(&spd, &[96, 12]), (&aatb, &[80, 514, 768])];
        for (expr, dims) in cases {
            for factors in [None, Some(Arc::new(FactorCache::new()))] {
                let mut planner = Planner::for_expression(expr).policy(MinPredictedTime);
                if let Some(fc) = &factors {
                    planner = planner.factor_cache(Arc::clone(fc));
                    // Make the chosen algorithm's factors resident first.
                    planner.plan(dims).unwrap();
                }
                let mut executor = SimulatedExecutor::paper_like();
                let predicted = planner.predict_instance(dims, &mut executor).unwrap();
                let plan = planner.plan_with(dims, &mut executor).unwrap();
                assert_eq!(predicted.measurements.len(), plan.scores.len());
                for (m, s) in predicted.measurements.iter().zip(&plan.scores) {
                    assert_eq!((m.index, &m.name, m.flops), (s.index, &s.name, s.flops));
                    assert_eq!(
                        Some(m.seconds.to_bits()),
                        s.predicted_seconds.map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn best_predicted_seconds_tolerates_nan() {
        let expr = AatbExpression::new();
        let mut plan = Planner::for_expression(&expr)
            .plan(&[80, 100, 120])
            .unwrap();
        plan.scores[0].predicted_seconds = Some(f64::NAN);
        let rest = plan.scores[1..]
            .iter()
            .filter_map(|s| s.predicted_seconds)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(plan.best_predicted_seconds(), Some(rest));
    }

    #[test]
    fn top_k_limits_the_scored_algorithm_set() {
        let expr = TreeExpression::parse("A*B*C*D*E*F").unwrap();
        let planner = Planner::for_expression(&expr).score_predictions(false);
        let dims = [60, 20, 90, 30, 120, 40, 70];
        let full = planner.plan(&dims).unwrap();
        assert_eq!(full.algorithms.len(), 120); // 5!
        let pruned_planner = Planner::for_expression(&expr)
            .score_predictions(false)
            .top_k(8);
        let pruned = pruned_planner.plan(&dims).unwrap();
        assert_eq!(pruned.algorithms.len(), 8);
        // The pruned set contains the FLOP-cheapest algorithm, so min-flops
        // selection is unaffected.
        assert_eq!(
            pruned.chosen_score().flops,
            full.scores.iter().map(|s| s.flops).min().unwrap()
        );
    }

    #[test]
    fn plan_grid_builds_at_most_one_executor_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let expr = AatbExpression::new();
        let built = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let planner = Planner::for_expression(&expr).executor_factory(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            Box::new(lamb_perfmodel::SimulatedExecutor::paper_like())
        });
        let grid: Vec<Vec<usize>> = (1..=64).map(|i| vec![20 + i, 100, 200]).collect();
        let results = planner.plan_grid(&grid);
        assert_eq!(results.len(), 64);
        assert!(results.iter().all(Result::is_ok));
        let factories = built.load(Ordering::Relaxed);
        assert!(
            factories <= rayon::current_num_threads(),
            "{factories} executors for {} workers",
            rayon::current_num_threads()
        );
    }

    #[test]
    fn the_shared_cache_spans_instances() {
        let expr = AatbExpression::new();
        let planner = Planner::for_expression(&expr).policy(MinPredictedTime);
        let _ = planner.plan(&[80, 100, 120]).unwrap();
        let after_first = planner.cache_stats();
        // The same instance again: only hits, no new misses.
        let _ = planner.plan(&[80, 100, 120]).unwrap();
        let after_second = planner.cache_stats();
        assert_eq!(after_first.1, after_second.1, "no new benchmarks");
        assert!(after_second.0 > after_first.0, "cache hits increased");
    }
}
