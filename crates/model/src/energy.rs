//! The calibrated energy proxy: a weighted combination of modeled op time
//! and attributed allocation bytes.
//!
//! The paper names energy as its future-work cost dimension. Without a
//! power meter, the best portable stand-in is a *proxy*: energy spent on a
//! workload is dominated by (a) the time the CPU is busy executing its
//! critical operations and (b) the memory traffic its allocation churn
//! induces (allocator work now, GC/page pressure later). This module fits
//! the two weights **once per process against wall time on this machine**,
//! mirroring how `cs-trace` calibrates its tracer costs:
//!
//! * `time_weight` — measured ns per *modeled time unit*, fitted by timing
//!   65,536 appends whose modeled cost is known (`ArrayList` populate,
//!   3 units/op in [`default_models`](crate::default_models)), as 16 vectors
//!   each grown from empty to 4,096 `u64`s, so the growth the model
//!   amortizes is timed too.
//! * `alloc_weight` — measured ns per *allocated byte*, fitted by timing
//!   65,536 boxed 64-byte allocations and their frees, 512 held at a time.
//!   This is the machine-specific replacement for the synthetic
//!   `0.05 ns/byte` the shipped curves assume; it prices allocator work
//!   on memory the process already has, not page faults.
//!
//! Both loops together hold at most 64 KiB live (48 KiB while the last
//! append run moves its buffer), so the fit neither faults in fresh pages
//! nor moves the process's peak RSS. It runs once per process, on first
//! use, in 2–3 ms on a 2-vCPU x86 VM. In the engine only the audit reads
//! the weights: the energy columns of an explanation, which it renders for
//! a switch's `Selection` event or an `explain` call, never on an analysis
//! pass that keeps its variant and never while building an engine. The
//! static advisor reads them when asked to (`advise --calibrated`).
//!
//! The shipped [`default_models`](crate::default_models) keep their
//! synthetic `time + 0.05·alloc` Energy curves — models are data, fitted
//! once, and persisted files must not depend on the measuring machine. The
//! calibrated weights apply *at rendering time*: the audit prices each
//! candidate's energy as
//! `time_weight · tc_time + alloc_weight · tc_alloc_rate`, and benches
//! honesty-check the result against measured wall time (the proxy must stay
//! within one order of magnitude — see `alloc_sweep`).

use std::sync::OnceLock;
use std::time::Instant;

/// Modeled cost (time units per op) of the calibration workload: an
/// amortized `ArrayList` append (`default_models` populate curve).
const CAL_MODEL_UNITS_PER_OP: f64 = 3.0;
/// Iterations of the calibration loops: enough to amortize timer overhead.
const CAL_ITERS: usize = 64 * 1024;
/// Appends per vector in the time loop: a 32 KiB vector at its largest.
const CAL_APPEND_RUN: usize = 4 * 1024;
/// Payload size of the allocation-calibration loop, bytes per allocation.
const CAL_ALLOC_BYTES: usize = 64;
/// Payloads the allocation loop holds before freeing them: 32 KiB.
const CAL_CHURN_BATCH: usize = 512;

/// Weights of the energy proxy `E = time_weight · t + alloc_weight · a`
/// with `t` in modeled time units and `a` in allocated bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyWeights {
    /// Energy (ns-equivalent) per modeled time unit.
    pub time_weight: f64,
    /// Energy (ns-equivalent) per allocated byte.
    pub alloc_weight: f64,
}

/// The synthetic weights the shipped Energy curves assume
/// (`time + 0.05 · alloc`), used wherever no calibration pass has run.
pub const SYNTHETIC_WEIGHTS: EnergyWeights = EnergyWeights {
    time_weight: 1.0,
    alloc_weight: 0.05,
};

impl EnergyWeights {
    /// The proxy: combined energy cost of `time_cost` modeled time units
    /// plus `alloc_bytes` bytes of allocation churn.
    #[inline]
    pub fn energy(&self, time_cost: f64, alloc_bytes: f64) -> f64 {
        self.time_weight * time_cost + self.alloc_weight * alloc_bytes
    }

    /// The allocation share of [`energy`](EnergyWeights::energy) — what the
    /// `alloc_driven` explanation flag subtracts to decide whether the
    /// allocation term decided an energy-ruled selection.
    #[inline]
    pub fn alloc_component(&self, alloc_bytes: f64) -> f64 {
        self.alloc_weight * alloc_bytes
    }
}

impl Default for EnergyWeights {
    fn default() -> Self {
        SYNTHETIC_WEIGHTS
    }
}

fn measure_time_weight() -> f64 {
    // Time CAL_ITERS amortized appends — the workload whose modeled cost
    // per op is CAL_MODEL_UNITS_PER_OP — in runs that each grow a vector
    // from empty, so the doublings are paid as the model amortizes them.
    let start = Instant::now();
    for _ in 0..CAL_ITERS / CAL_APPEND_RUN {
        let mut v: Vec<u64> = Vec::new();
        for i in 0..CAL_APPEND_RUN as u64 {
            v.push(i);
        }
        std::hint::black_box(&v);
    }
    let nanos = start.elapsed().as_nanos() as f64;
    (nanos / CAL_ITERS as f64) / CAL_MODEL_UNITS_PER_OP
}

fn measure_alloc_weight() -> f64 {
    // Time CAL_ITERS boxed allocations of CAL_ALLOC_BYTES each; the slope
    // is ns per byte of allocation churn. Dropping each batch of boxes
    // includes the free half of the churn, which is the honest per-byte
    // price of a byte that does not stay live.
    let mut held: Vec<Box<[u8; CAL_ALLOC_BYTES]>> = Vec::with_capacity(CAL_CHURN_BATCH);
    let start = Instant::now();
    for _ in 0..CAL_ITERS / CAL_CHURN_BATCH {
        for _ in 0..CAL_CHURN_BATCH {
            held.push(Box::new([0u8; CAL_ALLOC_BYTES]));
        }
        std::hint::black_box(&held);
        held.clear();
    }
    let nanos = start.elapsed().as_nanos() as f64;
    nanos / (CAL_ITERS * CAL_ALLOC_BYTES) as f64
}

/// Fits the energy weights against wall time, once per process, and caches
/// the result (the cs-trace `TracerCosts` pattern). The fit is clamped to a
/// sane band — a preempted calibration loop on a loaded CI box must not
/// produce weights that invert every selection.
pub fn calibrated_weights() -> EnergyWeights {
    static WEIGHTS: OnceLock<EnergyWeights> = OnceLock::new();
    *WEIGHTS.get_or_init(|| {
        let time_weight = measure_time_weight().clamp(0.05, 20.0);
        let alloc_weight = measure_alloc_weight().clamp(0.005, 5.0);
        EnergyWeights {
            time_weight,
            alloc_weight,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_weights_match_the_shipped_energy_curves() {
        // default_models builds Energy as time + 0.05·alloc; the synthetic
        // weights must reproduce that combination exactly.
        let e = SYNTHETIC_WEIGHTS.energy(100.0, 400.0);
        assert!((e - (100.0 + 0.05 * 400.0)).abs() < 1e-12);
        assert_eq!(SYNTHETIC_WEIGHTS.alloc_component(400.0), 20.0);
        assert_eq!(EnergyWeights::default(), SYNTHETIC_WEIGHTS);
    }

    #[test]
    fn calibration_is_cached_and_in_band() {
        let a = calibrated_weights();
        let b = calibrated_weights();
        assert_eq!(a, b, "one fit per process");
        assert!((0.05..=20.0).contains(&a.time_weight), "{a:?}");
        assert!((0.005..=5.0).contains(&a.alloc_weight), "{a:?}");
    }

    #[test]
    fn energy_is_monotone_in_both_terms() {
        let w = calibrated_weights();
        assert!(w.energy(10.0, 100.0) < w.energy(20.0, 100.0));
        assert!(w.energy(10.0, 100.0) < w.energy(10.0, 200.0));
    }
}
