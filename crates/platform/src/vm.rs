//! VM categories: the heterogeneous processing units of the platform.

use serde::{Deserialize, Serialize};

/// Index of a VM category within a [`crate::Platform`]. Categories are
/// sorted by non-decreasing hourly cost (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CategoryId(pub u32);

impl CategoryId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CategoryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cat{}", self.0)
    }
}

/// A VM category `k`: speed `s_k`, per-hour cost `c_h,k`, one-time init
/// cost `c_ini,k`, boot delay `t_boot` (uncharged), and processor count
/// `n_k` (paper §III-B; the evaluation uses single-processor VMs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmCategory {
    /// Display name, e.g. `small`.
    pub name: String,
    /// Instructions per second (work units/s; we use Gflop/s scale).
    pub speed: f64,
    /// Cost per hour of usage, in dollars (`c_h,k`).
    pub cost_per_hour: f64,
    /// One-time cost charged when the VM is started (`c_ini,k`).
    pub init_cost: f64,
    /// Boot delay in seconds before the VM can process tasks (`t_boot`);
    /// this time is *not* charged (paper §III-B).
    pub boot_time: f64,
    /// Number of processors `n_k` (1 in the paper's evaluation).
    pub processors: u32,
}

impl VmCategory {
    /// A new single-processor category. Panics on non-positive speed or
    /// negative costs/delays (platform definitions are code, not input).
    pub fn new(
        name: impl Into<String>,
        speed: f64,
        cost_per_hour: f64,
        init_cost: f64,
        boot_time: f64,
    ) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "VM speed must be positive");
        assert!(cost_per_hour.is_finite() && cost_per_hour >= 0.0);
        assert!(init_cost.is_finite() && init_cost >= 0.0);
        assert!(boot_time.is_finite() && boot_time >= 0.0);
        Self { name: name.into(), speed, cost_per_hour, init_cost, boot_time, processors: 1 }
    }

    /// Cost per *second* of usage.
    #[inline]
    pub fn cost_per_second(&self) -> f64 {
        self.cost_per_hour / 3600.0
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;

    #[test]
    fn per_second_cost() {
        let c = VmCategory::new("m", 20.0, 3.6, 0.0, 0.0);
        assert!((c.cost_per_second() - 0.001).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        VmCategory::new("bad", 0.0, 0.1, 0.0, 0.0);
    }
}
