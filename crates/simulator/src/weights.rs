//! Task weight realization: deterministic planning estimates or Gaussian
//! samples (paper §III-A: weights follow `N(w̄, σ)`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wfs_workflow::Workflow;

/// How task weights are realized during a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightModel {
    /// Every task takes exactly its mean weight `w̄`.
    Mean,
    /// Every task takes its conservative weight `w̄ + σ` — what the
    /// budget-aware algorithms plan with, and what HEFTBUDG+'s internal
    /// `simulate()` evaluates (paper Alg. 5).
    Conservative,
    /// Weights drawn from `N(w̄, σ)`, truncated below at a small positive
    /// floor; the seed makes runs reproducible.
    Stochastic {
        /// RNG seed; one stream for the whole workflow, consumed in task-id
        /// order.
        seed: u64,
    },
    /// Weights drawn from a log-normal matched to each task's `(w̄, σ)` —
    /// same first two moments as [`WeightModel::Stochastic`] but with a
    /// heavy right tail (stragglers). An extension beyond the paper's
    /// Gaussian assumption, used to study the online re-scheduling of §VI:
    /// interrupting a straggler only pays when long durations signal *more*
    /// work remaining, which thin Gaussian tails never do.
    HeavyTail {
        /// RNG seed, consumed in task-id order.
        seed: u64,
    },
}

/// Fraction of the mean used as the truncation floor for Gaussian samples
/// (a task cannot have negative or zero work).
const TRUNCATION_FLOOR: f64 = 0.01;

/// Realize the weight of every task under the given model. Index = task id.
pub fn realize_weights(wf: &Workflow, model: WeightModel) -> Vec<f64> {
    let mut weights = Vec::new();
    realize_weights_into(wf, model, &mut weights);
    weights
}

/// [`realize_weights`] into `out`, replacing its contents and reusing its
/// allocation.
pub(crate) fn realize_weights_into(wf: &Workflow, model: WeightModel, out: &mut Vec<f64>) {
    out.clear();
    let tasks = wf.tasks().iter();
    match model {
        WeightModel::Mean => out.extend(tasks.map(|t| t.weight.mean)),
        WeightModel::Conservative => out.extend(tasks.map(|t| t.weight.conservative())),
        WeightModel::Stochastic { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            out.extend(tasks.map(|t| {
                let z = sample_standard_normal(&mut rng);
                let w = t.weight.mean + t.weight.std_dev * z;
                w.max(t.weight.mean * TRUNCATION_FLOOR)
            }));
        }
        WeightModel::HeavyTail { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            out.extend(tasks.map(|t| {
                // Log-normal with the task's mean and std dev:
                // s² = ln(1 + (σ/w̄)²), μ = ln(w̄) − s²/2.
                let cv2 = (t.weight.std_dev / t.weight.mean).powi(2);
                let s2 = (1.0 + cv2).ln();
                let mu = t.weight.mean.ln() - s2 / 2.0;
                let z = sample_standard_normal(&mut rng);
                (mu + s2.sqrt() * z).exp().max(t.weight.mean * TRUNCATION_FLOOR)
            }));
        }
    }
}

/// One standard-normal sample via the Box–Muller transform (we avoid the
/// `rand_distr` dependency; see DESIGN.md §6).
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    // u1 in (0, 1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_workflow::gen::bag_of_tasks;
    use wfs_workflow::{StochasticWeight, WorkflowBuilder};

    fn wf_with_sigma(n: usize, mean: f64, sigma: f64) -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        for i in 0..n {
            b.add_task(format!("t{i}"), StochasticWeight::new(mean, sigma));
        }
        b.build().unwrap()
    }

    #[test]
    fn mean_model_returns_means() {
        let wf = wf_with_sigma(3, 100.0, 25.0);
        assert_eq!(realize_weights(&wf, WeightModel::Mean), vec![100.0; 3]);
    }

    #[test]
    fn conservative_model_adds_sigma() {
        let wf = wf_with_sigma(3, 100.0, 25.0);
        assert_eq!(realize_weights(&wf, WeightModel::Conservative), vec![125.0; 3]);
    }

    #[test]
    fn stochastic_is_deterministic_per_seed() {
        let wf = wf_with_sigma(10, 100.0, 30.0);
        let a = realize_weights(&wf, WeightModel::Stochastic { seed: 42 });
        let b = realize_weights(&wf, WeightModel::Stochastic { seed: 42 });
        let c = realize_weights(&wf, WeightModel::Stochastic { seed: 43 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stochastic_with_zero_sigma_is_mean() {
        let wf = wf_with_sigma(5, 100.0, 0.0);
        let w = realize_weights(&wf, WeightModel::Stochastic { seed: 7 });
        assert!(w.iter().all(|&x| (x - 100.0).abs() < 1e-12));
    }

    #[test]
    fn samples_are_always_positive() {
        // Even with σ = mean (the paper's most extreme setting), truncation
        // keeps weights positive.
        let wf = wf_with_sigma(2000, 50.0, 50.0);
        for seed in 0..5 {
            let w = realize_weights(&wf, WeightModel::Stochastic { seed });
            assert!(w.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn sample_statistics_match_gaussian() {
        // Empirical mean/std of Box–Muller over many draws.
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn heavy_tail_matches_mean_and_is_skewed() {
        let wf = wf_with_sigma(20_000, 100.0, 100.0);
        let w = realize_weights(&wf, WeightModel::HeavyTail { seed: 3 });
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 100.0).abs() < 3.0, "mean {mean}");
        // Heavy right tail: the max sample dwarfs anything a Gaussian with
        // the same moments produces; the median sits below the mean.
        let gauss = realize_weights(&wf, WeightModel::Stochastic { seed: 3 });
        let max_ht = w.iter().cloned().fold(f64::MIN, f64::max);
        let max_g = gauss.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max_ht > max_g, "heavy tail max {max_ht} <= gaussian max {max_g}");
        let mut sorted = w.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        assert!(median < mean, "median {median} not below mean {mean}");
    }

    #[test]
    fn heavy_tail_deterministic_per_seed() {
        let wf = wf_with_sigma(50, 100.0, 50.0);
        let a = realize_weights(&wf, WeightModel::HeavyTail { seed: 9 });
        let b = realize_weights(&wf, WeightModel::HeavyTail { seed: 9 });
        assert_eq!(a, b);
    }

    #[test]
    fn realized_weights_track_task_means() {
        // Average realized weight over seeds approaches the task mean.
        let wf = bag_of_tasks(1, 100.0, 0.0);
        let wf = {
            // give it sigma 20
            let mut b = WorkflowBuilder::new("x");
            b.add_task("t", StochasticWeight::new(100.0, 20.0));
            let _ = wf;
            b.build().unwrap()
        };
        let reps = 4000;
        let avg: f64 = (0..reps)
            .map(|s| realize_weights(&wf, WeightModel::Stochastic { seed: s })[0])
            .sum::<f64>()
            / reps as f64;
        assert!((avg - 100.0).abs() < 1.5, "avg {avg}");
    }
}
