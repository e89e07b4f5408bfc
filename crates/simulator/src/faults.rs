//! Seeded, deterministic fault injection (DESIGN.md §9).
//!
//! Three event families, each driven by its own RNG stream derived from one
//! master seed so runs are bit-reproducible and the families are
//! statistically independent:
//!
//! - **Crash-stop VM failures** ([`CrashModel`]): a time-to-failure is drawn
//!   per VM (exponential or Weibull) when the VM becomes operational. At the
//!   crash instant the in-flight task's work and every in-flight transfer of
//!   that VM are lost; the occupied interval up to the crash stays billed
//!   per Eq. 1.
//! - **Transient boot failures** ([`BootFaultModel`]): each boot attempt
//!   fails independently with a fixed probability; every failed attempt
//!   repeats the (uncharged) boot delay, scaled by a retry backoff. Past
//!   `max_retries` failures the instance is abandoned and never becomes
//!   operational.
//! - **Datacenter degradation windows** ([`DegradationModel`]): intervals
//!   during which the datacenter bandwidth (and aggregate capacity) is
//!   scaled down, stretching in-flight transfers under the engine's
//!   fair-share machinery.
//!
//! With [`FaultConfig::none`] — or with every family configured at rate
//! zero — the engine's behavior is bit-identical to the fault-free
//! simulator: no events are injected and no arithmetic changes.

use crate::report::SimulationReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer — decorrelates per-stream seeds derived from one
/// master seed (the standard seed-stretching construction).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed of sub-stream `stream` from a master `seed`. Used for
/// the per-VM fault streams and for per-epoch reseeding during recovery.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    splitmix(seed ^ splitmix(stream))
}

/// One exponential sample with the given mean (inverse-CDF on a uniform
/// draw; the repo deliberately avoids a `rand_distr` dependency).
pub(crate) fn sample_exponential(mean: f64, rng: &mut StdRng) -> f64 {
    // u in [0, 1) so 1-u is in (0, 1] and the log is finite.
    let u: f64 = rng.gen();
    mean * -(1.0 - u).ln()
}

/// Crash-stop VM failures: time-to-failure from boot end, drawn per VM.
///
/// [`CrashModel::exponential`] and [`CrashModel::weibull`] are the only
/// ways to build one, so every model has passed their checks. A literal
/// such as this non-positive scale does not compile:
///
/// ```compile_fail,E0451
/// use wfs_simulator::CrashModel;
///
/// let crash = CrashModel { scale: -100.0, shape: 1.0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashModel {
    /// Weibull scale `λ` in seconds. With `shape == 1` this is the mean
    /// time between failures; `f64::INFINITY` disables crashes (the rate-0
    /// configuration).
    pub(crate) scale: f64,
    /// Weibull shape `k`; `1.0` gives exponential inter-arrivals, `< 1`
    /// infant mortality, `> 1` wear-out.
    pub(crate) shape: f64,
}

impl CrashModel {
    /// Exponential inter-arrivals with the given mean time between
    /// failures. `f64::INFINITY` yields a rate-0 model (never crashes).
    pub fn exponential(mtbf: f64) -> Self {
        assert!(mtbf > 0.0, "MTBF must be positive, got {mtbf}");
        Self { scale: mtbf, shape: 1.0 }
    }

    /// Weibull time-to-failure with the given scale and shape.
    pub fn weibull(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "Weibull scale must be positive, got {scale}");
        assert!(shape.is_finite() && shape > 0.0, "Weibull shape must be positive, got {shape}");
        Self { scale, shape }
    }

    /// Draw one time-to-failure.
    pub(crate) fn sample_ttf(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen();
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }
}

/// Transient boot failures with retry-and-backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootFaultModel {
    /// Probability that one boot attempt fails (`0.0` = rate-0).
    pub(crate) fail_prob: f64,
    /// Failed attempts tolerated before the instance is abandoned.
    pub(crate) max_retries: u32,
    /// Each retry's boot delay is the category boot time times
    /// `backoff^attempt` (`1.0` = plain repetition).
    pub(crate) backoff: f64,
}

impl BootFaultModel {
    /// Boot attempts fail with probability `fail_prob`; up to `max_retries`
    /// re-boots before abandoning the instance. Backoff factor 1.0.
    pub fn new(fail_prob: f64, max_retries: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&fail_prob),
            "boot failure probability must be in [0, 1), got {fail_prob}"
        );
        Self { fail_prob, max_retries, backoff: 1.0 }
    }

    /// Grow each retry's boot delay geometrically.
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        assert!(backoff.is_finite() && backoff >= 1.0, "backoff must be >= 1");
        self.backoff = backoff;
        self
    }
}

/// Datacenter degradation windows: alternating OK/degraded intervals with
/// exponential gap and duration, scaling the bandwidth while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationModel {
    /// Bandwidth (and aggregate capacity) multiplier while degraded, in
    /// `(0, 1]` (`1.0` = rate-0: windows occur but change nothing).
    pub(crate) factor: f64,
    /// Mean gap between windows (seconds, exponential).
    pub(crate) mean_gap: f64,
    /// Mean window duration (seconds, exponential).
    pub(crate) mean_duration: f64,
}

impl DegradationModel {
    /// Windows scaling bandwidth by `factor`, exponential gaps/durations.
    pub fn new(factor: f64, mean_gap: f64, mean_duration: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "degradation factor must be in (0, 1], got {factor}");
        assert!(mean_gap.is_finite() && mean_gap > 0.0, "mean gap must be positive");
        assert!(mean_duration.is_finite() && mean_duration > 0.0, "mean duration must be positive");
        Self { factor, mean_gap, mean_duration }
    }
}

/// RNG stream tags (one namespace per event family; per-VM streams pack the
/// VM index above the tag).
const STREAM_CRASH: u64 = 1;
const STREAM_BOOT: u64 = 2;
const STREAM_DEGRADE: u64 = 3;

/// Complete fault-injection configuration: one master seed plus up to three
/// event families. Families left `None` inject nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; per-family, per-VM streams are derived from it via
    /// [`stream_seed`].
    pub seed: u64,
    /// Crash-stop VM failures.
    pub crash: Option<CrashModel>,
    /// Transient boot failures.
    pub boot: Option<BootFaultModel>,
    /// Datacenter degradation windows.
    pub degradation: Option<DegradationModel>,
}

impl FaultConfig {
    /// No faults at all — [`crate::simulate`] uses this internally; the
    /// engine behaves bit-identically to the pre-fault simulator.
    pub fn none() -> Self {
        Self { seed: 0, crash: None, boot: None, degradation: None }
    }

    /// An empty config with the given master seed; add families with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self { seed, crash: None, boot: None, degradation: None }
    }

    /// Enable crash-stop VM failures.
    pub fn with_crash(mut self, crash: CrashModel) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Enable transient boot failures.
    pub fn with_boot(mut self, boot: BootFaultModel) -> Self {
        self.boot = Some(boot);
        self
    }

    /// Enable datacenter degradation windows.
    pub fn with_degradation(mut self, d: DegradationModel) -> Self {
        self.degradation = Some(d);
        self
    }

    /// Same families, different master seed (per-epoch reseeding during
    /// recovery).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when no event family is configured.
    pub fn is_none(&self) -> bool {
        self.crash.is_none() && self.boot.is_none() && self.degradation.is_none()
    }

    /// The crash-TTF stream of VM `vm`.
    pub(crate) fn crash_rng(&self, vm: usize) -> StdRng {
        let vm = u64::try_from(vm).unwrap_or(u64::MAX >> 2);
        StdRng::seed_from_u64(stream_seed(self.seed, (vm << 2) | STREAM_CRASH))
    }

    /// The boot-attempt stream of VM `vm`.
    pub(crate) fn boot_rng(&self, vm: usize) -> StdRng {
        let vm = u64::try_from(vm).unwrap_or(u64::MAX >> 2);
        StdRng::seed_from_u64(stream_seed(self.seed, (vm << 2) | STREAM_BOOT))
    }

    /// The (single) degradation-window stream.
    pub(crate) fn degrade_rng(&self) -> StdRng {
        StdRng::seed_from_u64(stream_seed(self.seed, STREAM_DEGRADE))
    }
}

/// Counters accumulated by one faulted simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Crash-stop failures that hit a VM with work left.
    pub crashes: usize,
    /// Tasks whose in-flight computation was lost to a crash.
    pub tasks_lost: usize,
    /// Failed boot attempts that were retried.
    pub boot_retries: usize,
    /// Instances abandoned after exhausting boot retries.
    pub boot_abandoned: usize,
    /// Degradation windows that overlapped live work.
    pub degradation_windows: usize,
    /// Total seconds spent inside degradation windows.
    pub degraded_seconds: f64,
    /// Compute seconds lost in flight to crashes.
    pub wasted_compute_seconds: f64,
    /// Billed seconds after a crashed VM's last completed activity — paid
    /// for (Eq. 1) but productive of nothing durable.
    pub wasted_billed_seconds: f64,
}

impl FaultStats {
    /// Accumulate another run's counters (recovery aggregates epochs).
    pub fn merge(&mut self, other: &FaultStats) {
        self.crashes += other.crashes;
        self.tasks_lost += other.tasks_lost;
        self.boot_retries += other.boot_retries;
        self.boot_abandoned += other.boot_abandoned;
        self.degradation_windows += other.degradation_windows;
        self.degraded_seconds += other.degraded_seconds;
        self.wasted_compute_seconds += other.wasted_compute_seconds;
        self.wasted_billed_seconds += other.wasted_billed_seconds;
    }
}

/// Outcome of one faulted simulation: the (possibly partial) execution
/// report plus everything the recovery layer needs to re-plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRun {
    /// Execution report; with faults it may cover only part of the
    /// workflow (records of tasks that never ran are zeroed).
    pub report: SimulationReport,
    /// Injected-fault counters.
    pub stats: FaultStats,
    /// Per task: computation finished during this run.
    pub finished: Vec<bool>,
    /// Per task: *durably* complete — computation finished AND every output
    /// needed later is safe at the datacenter (data on a VM is volatile;
    /// only uploaded bytes survive the epoch). Only durable tasks may be
    /// dropped from the residual DAG when re-planning.
    pub durable: Vec<bool>,
    /// Per VM: actual boot delay (base delay plus fault retries); `None`
    /// for VMs that were never booked or whose boot was abandoned.
    pub boot_delays: Vec<Option<f64>>,
    /// True when every task is durably complete.
    pub complete: bool,
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;

    #[test]
    fn stream_seed_decorrelates() {
        let a = stream_seed(1, 0);
        let b = stream_seed(1, 1);
        let c = stream_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(a, stream_seed(1, 0));
    }

    #[test]
    fn exponential_sample_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mean = 500.0;
        let avg: f64 = (0..n).map(|_| sample_exponential(mean, &mut rng)).sum::<f64>() / n as f64;
        assert!((avg - mean).abs() < mean * 0.02, "avg {avg}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let m = CrashModel::weibull(300.0, 1.0);
        let e = CrashModel::exponential(300.0);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(m.sample_ttf(&mut r1), e.sample_ttf(&mut r2));
        }
    }

    #[test]
    fn infinite_mtbf_never_crashes() {
        let m = CrashModel::exponential(f64::INFINITY);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(m.sample_ttf(&mut rng).is_infinite());
        }
    }

    #[test]
    fn config_builders_compose() {
        let f = FaultConfig::new(9)
            .with_crash(CrashModel::exponential(1000.0))
            .with_boot(BootFaultModel::new(0.1, 3).with_backoff(1.5))
            .with_degradation(DegradationModel::new(0.25, 600.0, 60.0));
        assert!(!f.is_none());
        assert_eq!(f.with_seed(11).seed, 11);
        assert!(FaultConfig::none().is_none());
    }

    #[test]
    fn stats_merge_adds_everything() {
        let mut a = FaultStats { crashes: 1, wasted_billed_seconds: 2.0, ..Default::default() };
        let b = FaultStats { crashes: 2, boot_retries: 3, wasted_billed_seconds: 0.5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.crashes, 3);
        assert_eq!(a.boot_retries, 3);
        assert_eq!(a.wasted_billed_seconds, 2.5);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1)")]
    fn certain_boot_failure_rejected() {
        BootFaultModel::new(1.0, 3);
    }

    #[test]
    #[should_panic(expected = "factor must be in (0, 1]")]
    fn zero_degradation_factor_rejected() {
        DegradationModel::new(0.0, 10.0, 10.0);
    }
}
