//! Anomaly classification (Section 3.3 of the paper).
//!
//! An instance is an *anomaly* when none of the cheapest (minimum FLOP count)
//! algorithms is among the fastest algorithms, and the time score exceeds a
//! threshold (10% in Experiment 1, 5% in Experiments 2 and 3).

use crate::scores::{flop_score, time_score};
use std::collections::HashMap;

/// FLOP count and execution time of one algorithm on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmMeasurement {
    /// Index of the algorithm in the expression's algorithm list.
    pub index: usize,
    /// Algorithm name.
    pub name: String,
    /// FLOP count on this instance.
    pub flops: u64,
    /// Execution (or predicted) time in seconds on this instance.
    pub seconds: f64,
}

/// The evaluation of every algorithm of an expression on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceEvaluation {
    /// The instance's dimension tuple.
    pub dims: Vec<usize>,
    /// One measurement per algorithm.
    pub measurements: Vec<AlgorithmMeasurement>,
}

/// The outcome of classifying one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Indices of the cheapest algorithms (minimum FLOP count, with ties).
    pub cheapest: Vec<usize>,
    /// Indices of the fastest algorithms (minimum time, with ties).
    pub fastest: Vec<usize>,
    /// Time score of Section 3.3.
    pub time_score: f64,
    /// FLOP score of Section 3.3.
    pub flop_score: f64,
    /// Whether the instance is classified as an anomaly at the requested
    /// threshold.
    pub is_anomaly: bool,
}

impl InstanceEvaluation {
    /// Indices of the algorithms with the minimum FLOP count.
    #[must_use]
    pub fn cheapest_set(&self) -> Vec<usize> {
        let Some(min) = self.measurements.iter().map(|m| m.flops).min() else {
            return Vec::new();
        };
        self.measurements
            .iter()
            .filter(|m| m.flops == min)
            .map(|m| m.index)
            .collect()
    }

    /// Indices of the algorithms with the minimum execution time. Ties within
    /// a relative tolerance of `1e-12` are kept (exact float ties are rare but
    /// possible with simulated timings).
    #[must_use]
    pub fn fastest_set(&self) -> Vec<usize> {
        let Some(min) = self
            .measurements
            .iter()
            .map(|m| m.seconds)
            .min_by(f64::total_cmp)
        else {
            return Vec::new();
        };
        self.measurements
            .iter()
            .filter(|m| m.seconds <= min * (1.0 + 1e-12))
            .map(|m| m.index)
            .collect()
    }

    /// The evaluation a *shared-factor family* actually experiences: each
    /// algorithm's measurement reduced by the work that factors resident
    /// from earlier instances of the family already paid for.
    ///
    /// `discounts` maps an algorithm index to `(flops, seconds)` to deduct —
    /// typically the FLOP count and predicted time of its cached POTRF /
    /// SYRK / TRSM calls. Indices absent from the map are unchanged;
    /// deductions saturate at zero. Classifying the result answers whether
    /// the instance is still an anomaly once factor reuse is priced in:
    /// families whose shared-factor algorithm is FLOP-expensive standalone
    /// but effectively free warm flip their verdict here.
    #[must_use]
    pub fn with_reuse_discount(&self, discounts: &HashMap<usize, (u64, f64)>) -> Self {
        let measurements = self
            .measurements
            .iter()
            .map(|m| {
                let &(flops, seconds) = discounts.get(&m.index).unwrap_or(&(0, 0.0));
                AlgorithmMeasurement {
                    index: m.index,
                    name: m.name.clone(),
                    flops: m.flops.saturating_sub(flops),
                    seconds: (m.seconds - seconds).max(0.0),
                }
            })
            .collect();
        InstanceEvaluation {
            dims: self.dims.clone(),
            measurements,
        }
    }

    /// Classify the instance at the given time-score threshold.
    #[must_use]
    pub fn classify(&self, time_score_threshold: f64) -> Classification {
        let cheapest = self.cheapest_set();
        let fastest = self.fastest_set();
        if cheapest.is_empty() || fastest.is_empty() {
            return Classification {
                cheapest,
                fastest,
                time_score: 0.0,
                flop_score: 0.0,
                is_anomaly: false,
            };
        }
        let by_index = |idx: usize| {
            self.measurements
                .iter()
                .find(|m| m.index == idx)
                .expect("index from the measurement set")
        };
        // Shortest time among the cheapest algorithms.
        let t_cheapest = cheapest
            .iter()
            .map(|&i| by_index(i).seconds)
            .fold(f64::INFINITY, f64::min);
        // Shortest time overall.
        let t_fastest = fastest
            .iter()
            .map(|&i| by_index(i).seconds)
            .fold(f64::INFINITY, f64::min);
        // FLOP count of the cheapest algorithms and of the cheapest among the
        // fastest algorithms.
        let f_cheapest = cheapest
            .iter()
            .map(|&i| by_index(i).flops)
            .min()
            .unwrap_or(0);
        let f_fastest = fastest
            .iter()
            .map(|&i| by_index(i).flops)
            .min()
            .unwrap_or(0);

        let ts = time_score(t_cheapest, t_fastest);
        let fs = flop_score(f_cheapest, f_fastest);
        let disjoint = !cheapest.iter().any(|i| fastest.contains(i));
        Classification {
            cheapest,
            fastest,
            time_score: ts,
            flop_score: fs,
            is_anomaly: disjoint && ts > time_score_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(entries: &[(u64, f64)]) -> InstanceEvaluation {
        InstanceEvaluation {
            dims: vec![0; 3],
            measurements: entries
                .iter()
                .enumerate()
                .map(|(i, &(flops, seconds))| AlgorithmMeasurement {
                    index: i,
                    name: format!("alg {i}"),
                    flops,
                    seconds,
                })
                .collect(),
        }
    }

    #[test]
    fn cheapest_and_fastest_sets_handle_ties() {
        let e = eval(&[(100, 2.0), (100, 1.5), (200, 1.0), (200, 1.0)]);
        assert_eq!(e.cheapest_set(), vec![0, 1]);
        assert_eq!(e.fastest_set(), vec![2, 3]);
        // A NaN time is never the fastest, and does not panic.
        assert_eq!(eval(&[(100, f64::NAN), (200, 1.0)]).fastest_set(), vec![1]);
    }

    #[test]
    fn anomaly_when_sets_are_disjoint_and_score_exceeds_threshold() {
        // Cheapest (100 FLOPs) takes 2.0 s; an algorithm with 150 FLOPs takes 1.0 s.
        let e = eval(&[(100, 2.0), (150, 1.0)]);
        let c = e.classify(0.10);
        assert!(c.is_anomaly);
        assert!((c.time_score - 0.5).abs() < 1e-12);
        assert!((c.flop_score - (50.0 / 150.0)).abs() < 1e-12);
        assert_eq!(c.cheapest, vec![0]);
        assert_eq!(c.fastest, vec![1]);
    }

    #[test]
    fn not_an_anomaly_when_a_cheapest_algorithm_is_fastest() {
        let e = eval(&[(100, 1.0), (150, 1.2), (300, 4.0)]);
        let c = e.classify(0.10);
        assert!(!c.is_anomaly);
        assert_eq!(c.time_score, 0.0);
        assert_eq!(c.flop_score, 0.0);
    }

    #[test]
    fn threshold_filters_marginal_anomalies() {
        // Disjoint sets but only 5% faster: not an anomaly at the 10% threshold,
        // an anomaly at the 1% threshold.
        let e = eval(&[(100, 1.00), (150, 0.95)]);
        assert!(!e.classify(0.10).is_anomaly);
        assert!(e.classify(0.01).is_anomaly);
    }

    #[test]
    fn tie_between_cheapest_algorithms_uses_their_best_time() {
        // Two cheapest algorithms, one slow, one fast; the fast one is the
        // overall fastest, so no anomaly.
        let e = eval(&[(100, 3.0), (100, 1.0), (400, 1.1)]);
        let c = e.classify(0.05);
        assert!(!c.is_anomaly);
        // And when the expensive algorithm is fastest, the time score compares
        // against the *better* of the cheapest pair.
        let e2 = eval(&[(100, 3.0), (100, 2.0), (400, 1.0)]);
        let c2 = e2.classify(0.05);
        assert!(c2.is_anomaly);
        assert!((c2.time_score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flop_score_uses_cheapest_among_fastest() {
        // Two fastest algorithms tie on time; the FLOP score uses the cheaper
        // of the two (300, not 500).
        let e = eval(&[(100, 2.0), (300, 1.0), (500, 1.0)]);
        let c = e.classify(0.05);
        assert!(c.is_anomaly);
        assert!((c.flop_score - (200.0 / 300.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_severity_example() {
        // "performing 45% more FLOPs reduces the execution time by 40%".
        let e = eval(&[(1000, 1.0), (1450, 0.6)]);
        let c = e.classify(0.10);
        assert!(c.is_anomaly);
        assert!((c.time_score - 0.4).abs() < 1e-12);
        assert!((c.flop_score - 450.0 / 1450.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_discounts_flip_shared_factor_verdicts() {
        use std::collections::HashMap;
        // Standalone: algorithm 0 (a direct method) is both cheapest and
        // fastest; the factor-based algorithm 1 pays its factorisation.
        let e = eval(&[(100, 1.0), (180, 1.6)]);
        assert!(!e.classify(0.10).is_anomaly);
        // Warm in a shared-factor family, algorithm 1's factor is resident:
        // deduct its factorisation cost. It becomes the fastest while
        // algorithm 0 stays FLOP-cheapest — an anomaly the standalone
        // evaluation cannot see.
        let discounts: HashMap<usize, (u64, f64)> = [(1, (60, 1.2))].into();
        let warm = e.with_reuse_discount(&discounts);
        assert_eq!(warm.measurements[1].flops, 120);
        let c = warm.classify(0.10);
        assert!(c.is_anomaly, "factor reuse flips the verdict: {c:?}");
        assert_eq!(c.fastest, vec![1]);
        // Unmentioned indices are untouched; deductions saturate at zero.
        assert_eq!(warm.measurements[0], e.measurements[0]);
        let floor = e.with_reuse_discount(&[(0, (1000, 99.0)), (1, (1000, 99.0))].into());
        assert_eq!(floor.measurements[0].flops, 0);
        assert_eq!(floor.measurements[1].seconds, 0.0);
    }

    #[test]
    fn empty_evaluation_is_not_an_anomaly() {
        let e = eval(&[]);
        let c = e.classify(0.1);
        assert!(!c.is_anomaly);
        assert!(c.cheapest.is_empty());
    }
}
