//! Parameterized generators for the Pegasus-style benchmark workflows the
//! paper evaluates on (CYBERSHAKE, LIGO, MONTAGE), plus EPIGENOMICS and
//! synthetic shapes used in tests and extensions.
//!
//! The paper generates its DAGs with the Pegasus WorkflowGenerator (5
//! instances per type, 30/60/90 tasks, §V-A). We reproduce the *structural*
//! properties it describes for each type — branching shape, weight balance,
//! data-size skew — with deterministic seeded randomness, so instance `i` of
//! a given type/size is reproducible bit-for-bit.

mod cybershake;
mod epigenomics;
mod ligo;
mod montage;
mod sipht;
mod synthetic;

pub use cybershake::{cybershake, CYBERSHAKE_MIN_TASKS};
pub use epigenomics::{epigenomics, EPIGENOMICS_MIN_TASKS};
pub use ligo::{ligo, LIGO_MIN_TASKS};
pub use montage::{montage, MONTAGE_MIN_TASKS};
pub use sipht::{sipht, SIPHT_MIN_TASKS};
pub use synthetic::{bag_of_tasks, chain, fork_join, layered_random, LayeredParams};

use crate::graph::Workflow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One megabyte, in bytes.
pub const MB: f64 = 1e6;
/// One gigabyte, in bytes.
pub const GB: f64 = 1e9;

/// Configuration common to all benchmark generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Requested number of tasks (the generator hits it exactly; minimum
    /// varies per workflow type and is documented on each generator).
    pub tasks: usize,
    /// Seed selecting the instance (the paper uses 5 instances per type).
    pub seed: u64,
    /// Standard deviation of each task weight, as a ratio of its mean
    /// (the paper sweeps 0.25/0.50/0.75/1.00).
    pub sigma_ratio: f64,
}

impl GenConfig {
    /// Convenience constructor with the paper's default σ = 50 %.
    pub fn new(tasks: usize, seed: u64) -> Self {
        Self { tasks, seed, sigma_ratio: 0.5 }
    }

    /// Override the σ/mean ratio.
    pub fn with_sigma_ratio(mut self, ratio: f64) -> Self {
        self.sigma_ratio = ratio;
        self
    }
}

/// The three benchmark types of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkType {
    /// Parallel generator/filter pairs feeding two agglomerators; half the
    /// tasks carry huge input data.
    CyberShake,
    /// Repeated {parallel set → per-set agglomerator} blocks; near
    /// bag-of-tasks; one oversized input.
    Ligo,
    /// Highly interconnected mosaicking pipeline; balanced weights and data.
    Montage,
}

impl BenchmarkType {
    /// Generate an instance of this benchmark type.
    pub fn generate(self, cfg: GenConfig) -> Workflow {
        match self {
            BenchmarkType::CyberShake => cybershake(cfg),
            BenchmarkType::Ligo => ligo(cfg),
            BenchmarkType::Montage => montage(cfg),
        }
    }

    /// Canonical lowercase name (`cybershake`, `ligo`, `montage`).
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkType::CyberShake => "cybershake",
            BenchmarkType::Ligo => "ligo",
            BenchmarkType::Montage => "montage",
        }
    }

    /// All three benchmark types, in the paper's order.
    pub const ALL: [BenchmarkType; 3] =
        [BenchmarkType::CyberShake, BenchmarkType::Ligo, BenchmarkType::Montage];
}

impl std::str::FromStr for BenchmarkType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cybershake" => Ok(BenchmarkType::CyberShake),
            "ligo" | "inspiral" => Ok(BenchmarkType::Ligo),
            "montage" => Ok(BenchmarkType::Montage),
            other => Err(format!("unknown benchmark type `{other}`")),
        }
    }
}

/// Seeded RNG shared by the generators.
pub(crate) fn rng_for(cfg: &GenConfig, salt: u64) -> StdRng {
    StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt))
}

/// Multiply `base` by a uniform factor in `[1-rel, 1+rel]` — the per-task
/// variation the Pegasus generator applies around profiled means.
pub(crate) fn jitter(rng: &mut StdRng, base: f64, rel: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&rel));
    base * (1.0 + rng.gen_range(-rel..=rel))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::analysis::stats;

    #[test]
    fn all_types_hit_requested_task_counts() {
        for ty in BenchmarkType::ALL {
            for n in [30, 60, 90] {
                let wf = ty.generate(GenConfig::new(n, 1));
                assert_eq!(wf.task_count(), n, "{} with n={n}", ty.name());
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for ty in BenchmarkType::ALL {
            let a = ty.generate(GenConfig::new(60, 7));
            let b = ty.generate(GenConfig::new(60, 7));
            assert_eq!(a.to_json(), b.to_json(), "{}", ty.name());
        }
    }

    #[test]
    fn different_seeds_give_different_weights() {
        for ty in BenchmarkType::ALL {
            let a = ty.generate(GenConfig::new(60, 1));
            let b = ty.generate(GenConfig::new(60, 2));
            let same = a
                .tasks()
                .iter()
                .zip(b.tasks())
                .all(|(x, y)| (x.weight.mean - y.weight.mean).abs() < 1e-12);
            assert!(!same, "{} instances 1 and 2 are identical", ty.name());
        }
    }

    #[test]
    fn sigma_ratio_is_honored() {
        for ty in BenchmarkType::ALL {
            let wf = ty.generate(GenConfig::new(30, 1).with_sigma_ratio(0.75));
            for t in wf.tasks() {
                assert!((t.weight.std_dev - 0.75 * t.weight.mean).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn benchmark_type_parses_from_str() {
        assert_eq!("montage".parse::<BenchmarkType>().unwrap(), BenchmarkType::Montage);
        assert_eq!("LIGO".parse::<BenchmarkType>().unwrap(), BenchmarkType::Ligo);
        assert_eq!("inspiral".parse::<BenchmarkType>().unwrap(), BenchmarkType::Ligo);
        assert!("frobnicate".parse::<BenchmarkType>().is_err());
    }

    #[test]
    fn montage_is_more_connected_than_ligo() {
        // The paper contrasts MONTAGE ("plenty highly inter-connected
        // tasks") with LIGO ("structure near a Bag of Tasks"): edge density
        // must reflect that.
        let m = stats(&montage(GenConfig::new(90, 1)));
        let l = stats(&ligo(GenConfig::new(90, 1)));
        let density = |s: &crate::analysis::WorkflowStats| s.edges as f64 / s.tasks as f64;
        assert!(
            density(&m) > density(&l),
            "montage density {} should exceed ligo density {}",
            density(&m),
            density(&l)
        );
    }

    #[test]
    fn external_io_present_on_all_types() {
        for ty in BenchmarkType::ALL {
            let wf = ty.generate(GenConfig::new(30, 1));
            assert!(wf.external_input_data() > 0.0, "{} has no external input", ty.name());
            assert!(wf.external_output_data() > 0.0, "{} has no external output", ty.name());
        }
    }
}
