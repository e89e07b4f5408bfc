//! Randomized invariant tests over the workflow substrate: every
//! generator, every analysis, arbitrary shapes.
//!
//! Formerly proptest-based; now plain seeded loops so the suite builds
//! offline. Each test draws its cases from a fixed-seed `StdRng`, so
//! failures are reproducible by case index.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wfs_workflow::analysis::{bottom_levels, heft_order, levels, stats};
use wfs_workflow::gen::{
    cybershake, epigenomics, layered_random, ligo, montage, sipht, GenConfig, LayeredParams,
};
use wfs_workflow::Workflow;

const CASES: u64 = 48;

/// Any benchmark workflow: type × size × seed × σ.
fn random_benchmark(rng: &mut StdRng) -> Workflow {
    let ty = rng.gen_range(0..5usize);
    let n = rng.gen_range(12..120usize);
    let cfg = GenConfig::new(n, rng.gen_range(0..500u64))
        .with_sigma_ratio(rng.gen_range(0.0..=1.0f64));
    match ty {
        0 => montage(cfg),
        1 => cybershake(cfg),
        2 => ligo(cfg),
        3 => epigenomics(cfg),
        _ => sipht(cfg),
    }
}

fn random_layered(rng: &mut StdRng) -> Workflow {
    layered_random(
        LayeredParams {
            layers: rng.gen_range(1..6usize),
            width: rng.gen_range(1..7usize),
            edge_prob: rng.gen_range(0.05..0.95f64),
            work: 100.0,
            data: 1e6,
        },
        GenConfig {
            tasks: 0,
            seed: rng.gen_range(0..500u64),
            sigma_ratio: 0.5,
        },
    )
}

/// Generators always emit valid DAGs with positive weights and
/// non-negative data, hitting the exact task count.
#[test]
fn benchmark_generators_sound() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD00D_0001 + case);
        let wf = random_benchmark(&mut rng);
        assert!(wf.task_count() >= 12, "case {case}");
        assert_eq!(wf.topological_order().len(), wf.task_count(), "case {case}");
        for t in wf.tasks() {
            assert!(t.weight.mean > 0.0, "case {case}");
            assert!(t.weight.std_dev >= 0.0, "case {case}");
            assert!(
                t.external_input >= 0.0 && t.external_output >= 0.0,
                "case {case}"
            );
        }
        for e in wf.edges() {
            assert!(e.size >= 0.0, "case {case}");
        }
        // Round-trips through JSON.
        let back = Workflow::from_json(&wf.to_json()).unwrap();
        assert_eq!(back.task_count(), wf.task_count(), "case {case}");
    }
}

/// Levels partition the tasks; level(t) > level(pred) for every edge.
#[test]
fn levels_partition_and_respect_edges() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD00D_0002 + case);
        let wf = random_layered(&mut rng);
        let lv = levels(&wf);
        let total: usize = lv.iter().map(Vec::len).sum();
        assert_eq!(total, wf.task_count(), "case {case}");
        let mut depth = vec![0; wf.task_count()];
        for (level, layer) in lv.iter().enumerate() {
            for t in layer {
                depth[t.index()] = level;
            }
        }
        for e in wf.edges() {
            assert!(
                depth[e.from.0 as usize] < depth[e.to.0 as usize],
                "case {case}"
            );
        }
        // Tasks within one level are pairwise independent (no direct edge).
        for layer in &lv {
            for e in wf.edges() {
                assert!(
                    !(layer.contains(&e.from) && layer.contains(&e.to)),
                    "case {case}: edge inside a level"
                );
            }
        }
    }
}

/// Bottom levels decrease along edges and exceed the task's own
/// execution time; the HEFT order is a linear extension.
#[test]
fn bottom_levels_sound() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD00D_0003 + case);
        let wf = random_benchmark(&mut rng);
        let speed = rng.gen_range(1.0..100.0f64);
        let bw = rng.gen_range(1e6..1e9f64);
        let rank = bottom_levels(&wf, speed, bw);
        for t in wf.task_ids() {
            let own = wf.task(t).weight.conservative() / speed;
            assert!(rank[t.0 as usize] >= own - 1e-9, "case {case}");
        }
        for e in wf.edges() {
            assert!(
                rank[e.from.0 as usize] > rank[e.to.0 as usize],
                "case {case}"
            );
        }
        let order = heft_order(&wf, speed, bw);
        let mut pos = vec![0usize; wf.task_count()];
        for (i, t) in order.iter().enumerate() {
            pos[t.0 as usize] = i;
        }
        for e in wf.edges() {
            assert!(
                pos[e.from.0 as usize] < pos[e.to.0 as usize],
                "case {case}"
            );
        }
    }
}

/// Stats are internally consistent.
#[test]
fn stats_consistent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD00D_0005 + case);
        let wf = random_benchmark(&mut rng);
        let s = stats(&wf);
        assert_eq!(s.tasks, wf.task_count(), "case {case}");
        assert_eq!(s.edges, wf.edge_count(), "case {case}");
        assert!(s.width >= 1 && s.width <= s.tasks, "case {case}");
        assert!(s.depth >= 1 && s.depth <= s.tasks, "case {case}");
        assert!(s.entries >= 1 && s.exits >= 1, "case {case}");
        assert!(s.width * s.depth >= s.tasks, "case {case}: width*depth bounds tasks");
        assert!((s.total_work - wf.total_mean_work()).abs() < 1e-6, "case {case}");
    }
}

/// σ re-scaling is idempotent in distribution parameters.
#[test]
fn sigma_rescale() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD00D_0006 + case);
        let wf = random_benchmark(&mut rng);
        let r = rng.gen_range(0.0..=1.0f64);
        let scaled = wf.clone().with_sigma_ratio(r);
        for (a, b) in wf.tasks().iter().zip(scaled.tasks()) {
            assert_eq!(a.weight.mean, b.weight.mean, "case {case}");
            assert!(
                (b.weight.std_dev - r * b.weight.mean).abs() < 1e-9,
                "case {case}"
            );
        }
    }
}
