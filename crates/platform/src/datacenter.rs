//! The datacenter: the single crossing point of all data exchanges.

use serde::{Deserialize, Serialize};

/// Datacenter parameters (paper §III-B/C). All VM↔VM communication is
/// relayed through it; external input/output data also transit here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Datacenter {
    /// Bandwidth between any VM and the datacenter, bytes/s, identical in
    /// both directions (`bw`).
    pub bandwidth: f64,
    /// Cost per hour of datacenter usage (`c_h,DC`), charged over
    /// `H_end,last − H_start,first` (Eq. 2).
    pub cost_per_hour: f64,
    /// Transfer cost per byte for data crossing the platform boundary
    /// (`c_iof`), applied to `size(d_in,DC) + size(d_DC,out)` (Eq. 2).
    pub io_cost_per_byte: f64,
}

impl Datacenter {
    /// A new datacenter. Panics on non-positive bandwidth / negative costs.
    pub fn new(bandwidth: f64, cost_per_hour: f64, io_cost_per_byte: f64) -> Self {
        assert!(bandwidth.is_finite() && bandwidth > 0.0, "bandwidth must be positive");
        assert!(cost_per_hour.is_finite() && cost_per_hour >= 0.0);
        assert!(io_cost_per_byte.is_finite() && io_cost_per_byte >= 0.0);
        Self { bandwidth, cost_per_hour, io_cost_per_byte }
    }

    /// Cost per second of datacenter usage.
    #[inline]
    pub fn cost_per_second(&self) -> f64 {
        self.cost_per_hour / 3600.0
    }

    /// The full datacenter cost `C_DC` (Eq. 2) for an execution spanning
    /// `duration` seconds and moving `external_bytes` across the boundary.
    pub fn cost(&self, duration: f64, external_bytes: f64) -> f64 {
        external_bytes * self.io_cost_per_byte + duration * self.cost_per_second()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;

    #[test]
    fn cost_combines_io_and_duration() {
        let dc = Datacenter::new(1e6, 3.6, 1e-9);
        // 1 GB external + 10 s duration at $0.001/s.
        let c = dc.cost(10.0, 1e9);
        assert!((c - (1.0 + 0.01)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        Datacenter::new(0.0, 0.0, 0.0);
    }
}
