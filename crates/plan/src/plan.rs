//! The output of planning: a scored, selected algorithm set that can be
//! executed and judged.

use crate::cache::PredictionCache;
use crate::planner::ExecutorFactory;
use lamb_expr::{Algorithm, GenerateError};
use lamb_perfmodel::{AlgorithmTiming, Executor};
use lamb_select::{AlgorithmMeasurement, Classification, InstanceEvaluation, SelectError};
use std::fmt;
use std::sync::Arc;

/// Why a planner could not produce a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The dimension tuple had the wrong length for the expression.
    DimensionMismatch {
        /// Number of dimensions the expression requires.
        expected: usize,
        /// Number of dimensions supplied.
        got: usize,
    },
    /// The expression enumerated no algorithms for this instance.
    NoAlgorithms,
    /// Algorithm enumeration itself failed (shape inconsistency, degenerate
    /// chain, inconsistent operand reuse, ...).
    Generate(GenerateError),
    /// The selection policy failed.
    Select(SelectError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} dimension sizes, got {got}")
            }
            PlanError::NoAlgorithms => write!(f, "the expression enumerated no algorithms"),
            PlanError::Generate(e) => write!(f, "enumeration failed: {e}"),
            PlanError::Select(e) => write!(f, "selection failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<SelectError> for PlanError {
    fn from(e: SelectError) -> Self {
        PlanError::Select(e)
    }
}

impl From<GenerateError> for PlanError {
    fn from(e: GenerateError) -> Self {
        PlanError::Generate(e)
    }
}

/// Per-algorithm scores recorded while planning.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmScore {
    /// Index of the algorithm in the plan's algorithm list.
    pub index: usize,
    /// Algorithm name.
    pub name: String,
    /// FLOP count on this instance (Section 3.1 models).
    pub flops: u64,
    /// Time predicted from (cached) isolated-call benchmarks, when the
    /// planner was asked to score predictions (`None` otherwise).
    pub predicted_seconds: Option<f64>,
}

/// A fully planned expression instance: the enumerated algorithm set, its
/// scores, and the policy's choice. Produced by
/// [`Planner::plan`](crate::Planner::plan); execute it with
/// [`Plan::execute`] or [`Plan::execute_with`].
#[derive(Clone)]
pub struct Plan {
    /// The instance's dimension tuple.
    pub dims: Vec<usize>,
    /// Name of the expression that was planned.
    pub expression: String,
    /// Every mathematically equivalent algorithm for this instance.
    pub algorithms: Vec<Algorithm>,
    /// One score entry per algorithm.
    pub scores: Vec<AlgorithmScore>,
    /// Index (into `algorithms`) of the algorithm the policy selected.
    pub chosen: usize,
    /// Name of the policy that made the choice.
    pub policy: String,
    /// How many enumerated algorithms were dropped because their kernel-call
    /// signature duplicated an earlier one (rewrites can derive the same
    /// call sequence along different paths).
    pub duplicates_removed: usize,
    pub(crate) threshold: f64,
    pub(crate) factory: ExecutorFactory,
    pub(crate) cache: Arc<PredictionCache>,
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("dims", &self.dims)
            .field("expression", &self.expression)
            .field("algorithms", &self.algorithms.len())
            .field("chosen", &self.chosen)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// The algorithm the policy selected.
    #[must_use]
    pub fn chosen_algorithm(&self) -> &Algorithm {
        &self.algorithms[self.chosen]
    }

    /// The score entry of the chosen algorithm.
    #[must_use]
    pub fn chosen_score(&self) -> &AlgorithmScore {
        &self.scores[self.chosen]
    }

    /// The score entry of the FLOP-minimal algorithm — what a pure FLOP
    /// discriminant (Linnea, Armadillo, Julia) would select.
    #[must_use]
    pub fn flop_optimal_score(&self) -> &AlgorithmScore {
        self.scores
            .iter()
            .min_by_key(|s| s.flops)
            .expect("a plan has at least one algorithm")
    }

    /// The smallest predicted time over all algorithms, when predictions
    /// were scored.
    #[must_use]
    pub fn best_predicted_seconds(&self) -> Option<f64> {
        self.scores
            .iter()
            .filter_map(|s| s.predicted_seconds)
            .min_by(f64::total_cmp)
    }

    /// The anomaly time-score threshold this plan was made under.
    #[must_use]
    pub fn anomaly_threshold(&self) -> f64 {
        self.threshold
    }

    /// Whether the FLOP-minimal algorithm is *predicted* to be more than the
    /// plan's threshold slower than the predicted-fastest algorithm — the
    /// paper's anomaly definition evaluated on predictions. `None` when the
    /// plan was made without prediction scoring.
    #[must_use]
    pub fn predicted_anomaly(&self) -> Option<bool> {
        let flop_optimal = self.flop_optimal_score().predicted_seconds?;
        let best = self.best_predicted_seconds()?;
        Some(flop_optimal > best * (1.0 + self.threshold))
    }

    /// Execute every algorithm with a fresh executor from the planner's
    /// factory and judge the choice. See [`Plan::execute_with`].
    #[must_use]
    pub fn execute(&self) -> PlanExecution {
        let mut executor = (self.factory)();
        self.execute_with(executor.as_mut())
    }

    /// Execute every algorithm of the instance with `executor`, classify the
    /// instance (anomaly or not) at the planner's threshold, and judge the
    /// policy's choice against the empirical optimum.
    #[must_use]
    pub fn execute_with(&self, executor: &mut dyn Executor) -> PlanExecution {
        let timings: Vec<AlgorithmTiming> = self
            .algorithms
            .iter()
            .map(|alg| executor.execute_algorithm(alg))
            .collect();
        let measurements = timings
            .iter()
            .enumerate()
            .map(|(i, t)| AlgorithmMeasurement {
                index: i,
                name: t.algorithm_name.clone(),
                flops: t.flops,
                seconds: t.seconds,
            })
            .collect();
        let evaluation = InstanceEvaluation {
            dims: self.dims.clone(),
            measurements,
        };
        let verdict = evaluation.classify(self.threshold);
        let chosen_seconds = timings[self.chosen].seconds;
        let best_seconds = timings
            .iter()
            .map(|t| t.seconds)
            .fold(f64::INFINITY, f64::min);
        PlanExecution {
            evaluation,
            verdict,
            timings,
            chosen: self.chosen,
            chosen_seconds,
            best_seconds,
        }
    }

    /// The shared prediction cache backing this plan (and its planner).
    #[must_use]
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }
}

/// The result of executing a [`Plan`]: timings for every algorithm, the
/// anomaly verdict, and how the policy's choice fared.
#[derive(Debug, Clone)]
pub struct PlanExecution {
    /// Execution times of every algorithm, as an anomaly-classification
    /// input.
    pub evaluation: InstanceEvaluation,
    /// The anomaly classification at the planner's threshold.
    pub verdict: Classification,
    /// Full per-call timings of every algorithm.
    pub timings: Vec<AlgorithmTiming>,
    /// Index of the algorithm the policy selected.
    pub chosen: usize,
    /// Actual execution time of the chosen algorithm (seconds).
    pub chosen_seconds: f64,
    /// Actual execution time of the best algorithm (seconds).
    pub best_seconds: f64,
}

impl PlanExecution {
    /// Relative slowdown of the chosen algorithm versus the empirical optimum
    /// (0 means the policy picked a fastest algorithm).
    #[must_use]
    pub fn regret(&self) -> f64 {
        if self.best_seconds <= 0.0 {
            return 0.0;
        }
        (self.chosen_seconds - self.best_seconds).max(0.0) / self.best_seconds
    }

    /// Whether the instance is an anomaly (the minimum-FLOPs algorithms are
    /// all measurably slower than the fastest) at the planner's threshold.
    #[must_use]
    pub fn is_anomaly(&self) -> bool {
        self.verdict.is_anomaly
    }
}
