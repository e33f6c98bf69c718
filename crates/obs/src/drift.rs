//! The phase-shift detector: EWMA bands over each site's op-mix and
//! allocation rate, and over the process's allocation per frame, fired as
//! `phase_shift` incidents.
//!
//! The paper's core premise is that workloads have *phases* — the
//! collection that wins during a load phase loses during a lookup phase —
//! and the engine re-selects when the observed profile moves. This module
//! is the operational mirror of that premise: it watches the same
//! observables the selector consumes (op-mix fractions and allocation
//! bytes per op, per site) and raises an incident the moment a site's
//! behaviour breaks out of its recent band, so an operator sees the phase
//! change at the same time the engine does — or sees one the engine's
//! round cadence has not reacted to yet.
//!
//! Mechanics, per site and per dimension: an EWMA of the value and an EWMA
//! of its absolute deviation. A frame whose value lands further than
//! `max(6 × deviation, floor)` from the mean fires once (edge-latched);
//! while breached the band keeps absorbing observations, so it
//! re-converges onto the new regime and re-arms — a second genuine shift
//! can fire again, but a sustained new normal cannot ring forever. A band
//! arms after 8 scored frames. Frames with fewer than 64 new ops are
//! accumulated rather than scored, so idle sites neither fire nor decay
//! their bands.
//!
//! The process is one more subject: the pseudo-site `process` (id
//! `u64::MAX`; engines mint site ids from 0), banded on one dimension,
//! `alloc_bytes_per_frame` — the bytes the process allocated since the
//! previous frame, read from the `cs-heap` ledger. It uses the same band
//! with a 1 MiB floor and is scored on every frame after the first, since
//! it has no ops to accumulate. The band is two-sided, so a sharp drop in
//! allocation fires as well as a burst. Without the counting allocator the
//! ledger reads 0 and the band never fires. This band is the stack's only
//! allocation-spike detector.
//!
//! The tuning is fixed: the constants below are the only settings.
//!
//! This module is on the sampler path and is covered by the analyzer's
//! `no-blocking-io-in-sampler-path` lint: no filesystem or socket tokens
//! may appear here.

use std::collections::HashMap;

use crate::window::{trend_point, SiteSample};

/// The banded dimensions of a site, in reporting order: the four op-mix
/// fractions (`OpKind::index()` order) then the allocation rate.
pub const DRIFT_DIMENSIONS: [&str; 5] = [
    "populate_fraction",
    "contains_fraction",
    "iterate_fraction",
    "middle_fraction",
    "alloc_bytes_per_op",
];

/// Scored frames a band must absorb before it arms. Below this the
/// detector only learns.
const WARMUP_FRAMES: u32 = 8;
/// Band half-width as a multiple of the EWMA mean absolute deviation.
const BAND_K: f64 = 6.0;
/// Minimum new ops for a site frame to be scored; smaller deltas
/// accumulate into the next frame instead.
const MIN_FRAME_OPS: u64 = 64;
/// EWMA smoothing factor; higher adapts faster.
const ALPHA: f64 = 0.2;
/// Band floor for the op-mix fractions, so a near-constant mix
/// (deviation ~0) does not fire on measurement jitter.
const MIX_MIN_BAND: f64 = 0.10;
/// Band floor for `alloc_bytes_per_op`, in bytes.
const ALLOC_MIN_BAND: f64 = 32.0;
/// Band floor for the process's `alloc_bytes_per_frame`: 1 MiB, so an
/// idle process's wobble stays quiet.
const PROCESS_MIN_BAND: f64 = (1u64 << 20) as f64;

/// The process pseudo-site's id, label and one dimension.
const PROCESS_SITE_ID: u64 = u64::MAX;
const PROCESS_SITE: &str = "process";
const PROCESS_DIMENSION: &str = "alloc_bytes_per_frame";

/// One fired drift: site, dimension, and the evidence (observed value vs
/// the band it escaped). This is the `detail` payload of the
/// `phase_shift` flight-recorder incident.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// Engine-assigned site id; `u64::MAX` for the `process` pseudo-site.
    pub site_id: u64,
    /// Site label; `"process"` for the process pseudo-site.
    pub site: String,
    /// Which dimension broke band: one of [`DRIFT_DIMENSIONS`] for a site,
    /// `alloc_bytes_per_frame` for the process.
    pub dimension: &'static str,
    /// The value that escaped.
    pub observed: f64,
    /// The band centre at firing time.
    pub mean: f64,
    /// The band half-width at firing time.
    pub band: f64,
    /// Ops in the scored frame (0 for the process, which has no ops).
    pub ops_in_frame: u64,
}

/// EWMA mean + EWMA mean-absolute-deviation with an edge latch.
#[derive(Debug, Clone, Default)]
struct Band {
    mean: f64,
    dev: f64,
    scored: u32,
    breached: bool,
}

impl Band {
    /// Scores one observation; returns `Some((mean, half_width))` exactly
    /// when the value *newly* crosses out of band.
    fn observe(&mut self, x: f64, floor: f64) -> Option<(f64, f64)> {
        if self.scored == 0 {
            self.mean = x;
        }
        let fired = if self.scored >= WARMUP_FRAMES {
            let half = (BAND_K * self.dev).max(floor);
            let out = (x - self.mean).abs() > half;
            let newly = out && !self.breached;
            self.breached = out;
            newly.then_some((self.mean, half))
        } else {
            None
        };
        // Absorb after scoring, so the band fired against is the one the
        // value actually escaped; absorbing while breached re-converges
        // the band onto the new regime and re-arms the latch.
        self.dev = (1.0 - ALPHA) * self.dev + ALPHA * (x - self.mean).abs();
        self.mean = (1.0 - ALPHA) * self.mean + ALPHA * x;
        self.scored += 1;
        fired
    }
}

#[derive(Debug, Default)]
struct SiteState {
    /// The cumulative sample the next scored frame deltas against. Only
    /// replaced when a frame is scored, so sub-threshold deltas accumulate.
    basis: Option<SiteSample>,
    bands: [Band; 5],
    name: String,
}

/// Per-site, per-dimension drift detection over cumulative site samples,
/// plus the `process` pseudo-site's allocation band.
#[derive(Debug, Default)]
pub struct DriftDetector {
    sites: HashMap<u64, SiteState>,
    /// The previous frame's process ledger reading (`None` before the
    /// first frame).
    process_basis: Option<u64>,
    process_band: Band,
    fired_total: u64,
}

impl DriftDetector {
    /// Creates a detector with no history.
    pub fn new() -> DriftDetector {
        DriftDetector::default()
    }

    /// Drift events fired over this detector's lifetime.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Scores one sampler tick: the cumulative site samples, and the
    /// process's cumulative allocated bytes (the `cs-heap` ledger's
    /// `alloc_bytes`). Returns every newly fired drift.
    pub fn observe(&mut self, samples: &[SiteSample], process_alloc_bytes: u64) -> Vec<DriftEvent> {
        let mut events = Vec::new();
        for sample in samples {
            let state = self.sites.entry(sample.id).or_default();
            state.name = sample.name.clone();
            let Some(basis) = &state.basis else {
                state.basis = Some(sample.clone());
                continue;
            };
            let point = trend_point(0, basis, sample);
            if point.ops_in_frame < MIN_FRAME_OPS {
                continue;
            }
            let values = [
                point.mix[0],
                point.mix[1],
                point.mix[2],
                point.mix[3],
                point.alloc_bytes_per_op,
            ];
            for (dim, (band, value)) in state.bands.iter_mut().zip(values).enumerate() {
                let floor = if dim < 4 {
                    MIX_MIN_BAND
                } else {
                    ALLOC_MIN_BAND
                };
                if let Some((mean, half)) = band.observe(value, floor) {
                    events.push(DriftEvent {
                        site_id: sample.id,
                        site: state.name.clone(),
                        dimension: DRIFT_DIMENSIONS[dim],
                        observed: value,
                        mean,
                        band: half,
                        ops_in_frame: point.ops_in_frame,
                    });
                }
            }
            state.basis = Some(sample.clone());
        }
        if let Some(prev) = self.process_basis.replace(process_alloc_bytes) {
            let value = process_alloc_bytes.saturating_sub(prev) as f64;
            if let Some((mean, half)) = self.process_band.observe(value, PROCESS_MIN_BAND) {
                events.push(DriftEvent {
                    site_id: PROCESS_SITE_ID,
                    site: PROCESS_SITE.to_owned(),
                    dimension: PROCESS_DIMENSION,
                    observed: value,
                    mean,
                    band: half,
                    ops_in_frame: 0,
                });
            }
        }
        self.fired_total += events.len() as u64;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, ops: [u64; 4], alloc_bytes: u64) -> SiteSample {
        SiteSample {
            id,
            name: format!("s{id}"),
            ops,
            total_ops: ops.iter().sum(),
            alloc_bytes,
        }
    }

    /// The basis frame plus the warm-up: the first frame a band can fire on
    /// comes right after these.
    const ARMING_FRAMES: u32 = WARMUP_FRAMES + 1;

    /// Feeds `n` frames of a steady 90/10 populate/contains mix.
    fn warm_up(d: &mut DriftDetector, n: u32, start: &mut [u64; 4]) {
        for _ in 0..n {
            start[0] += 90;
            start[1] += 10;
            let fired = d.observe(&[sample(1, *start, 0)], 0);
            assert!(fired.is_empty(), "steady mix must not fire: {fired:?}");
        }
    }

    #[test]
    fn op_mix_flip_fires_once_and_relatches() {
        let mut d = DriftDetector::new();
        let mut ops = [0u64; 4];
        warm_up(&mut d, ARMING_FRAMES, &mut ops);

        // Phase flip: the same site goes read-heavy.
        ops[0] += 10;
        ops[1] += 90;
        let fired = d.observe(&[sample(1, ops, 0)], 0);
        let dims: Vec<&str> = fired.iter().map(|e| e.dimension).collect();
        assert!(
            dims.contains(&"populate_fraction") && dims.contains(&"contains_fraction"),
            "flip breaks both mix bands: {fired:?}"
        );
        assert_eq!(fired[0].site, "s1");
        assert!(fired[0].observed < fired[0].mean, "populate fraction fell");

        // Sustained new regime: latched, no re-fire while out of band.
        ops[0] += 10;
        ops[1] += 90;
        assert!(d.observe(&[sample(1, ops, 0)], 0).is_empty(), "latched");
        assert_eq!(d.fired_total(), dims.len() as u64);
    }

    #[test]
    fn detector_rearms_after_reconverging_then_fires_on_next_shift() {
        let mut d = DriftDetector::new();
        let mut ops = [0u64; 4];
        warm_up(&mut d, ARMING_FRAMES, &mut ops);
        ops[0] += 10;
        ops[1] += 90;
        assert!(
            !d.observe(&[sample(1, ops, 0)], 0).is_empty(),
            "first shift"
        );
        // Hold the new regime long enough for the EWMA to re-centre.
        for _ in 0..30 {
            ops[0] += 10;
            ops[1] += 90;
            d.observe(&[sample(1, ops, 0)], 0);
        }
        // Shift back: must fire again (the latch re-armed in between).
        ops[0] += 90;
        ops[1] += 10;
        let fired = d.observe(&[sample(1, ops, 0)], 0);
        assert!(!fired.is_empty(), "re-armed detector fires on the way back");
    }

    #[test]
    fn alloc_rate_spike_fires_the_alloc_dimension() {
        let mut d = DriftDetector::new();
        let mut ops = [0u64; 4];
        let mut bytes = 0u64;
        for _ in 0..ARMING_FRAMES {
            ops[0] += 100;
            bytes += 800; // steady 8 B/op
            assert!(d.observe(&[sample(1, ops, bytes)], 0).is_empty());
        }
        ops[0] += 100;
        bytes += 80_000; // 800 B/op
        let fired = d.observe(&[sample(1, ops, bytes)], 0);
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].dimension, "alloc_bytes_per_op");
        assert!((fired[0].observed - 800.0).abs() < 1e-9);
    }

    #[test]
    fn sub_threshold_frames_accumulate_instead_of_scoring() {
        let mut d = DriftDetector::new();
        let mut ops = [0u64; 4];
        warm_up(&mut d, ARMING_FRAMES, &mut ops);
        // One-op flipped frames: each below MIN_FRAME_OPS, none scored…
        for _ in 0..MIN_FRAME_OPS - 1 {
            ops[1] += 1;
            assert!(d.observe(&[sample(1, ops, 0)], 0).is_empty());
        }
        // …until the accumulated delta reaches the threshold and the
        // flipped mix (all contains, no populate) is scored at once.
        ops[1] += 1;
        let fired = d.observe(&[sample(1, ops, 0)], 0);
        assert!(!fired.is_empty(), "accumulated flip scored: {fired:?}");
    }

    #[test]
    fn sites_are_banded_independently() {
        let mut d = DriftDetector::new();
        let mut a = [0u64; 4];
        let mut b = [0u64; 4];
        for _ in 0..ARMING_FRAMES {
            a[0] += 100;
            b[1] += 100;
            assert!(d.observe(&[sample(1, a, 0), sample(2, b, 0)], 0).is_empty());
        }
        // Only site 2 flips.
        a[0] += 100;
        b[0] += 100;
        let fired = d.observe(&[sample(1, a, 0), sample(2, b, 0)], 0);
        assert!(!fired.is_empty());
        assert!(fired.iter().all(|e| e.site_id == 2), "{fired:?}");
    }

    /// Feeds `frames` ledger readings, each `delta(i)` bytes past the last,
    /// and returns every event fired.
    fn feed_process(
        d: &mut DriftDetector,
        ledger: &mut u64,
        frames: u64,
        delta: impl Fn(u64) -> u64,
    ) -> Vec<DriftEvent> {
        let mut fired = Vec::new();
        for i in 0..frames {
            *ledger += delta(i);
            fired.extend(d.observe(&[], *ledger));
        }
        fired
    }

    #[test]
    fn process_burst_calm_burst_fires_twice() {
        const MIB: u64 = 1 << 20;
        // Calm frames carry ~27 kB with a little jitter.
        let calm = |i: u64| 26_500 + (i * 337) % 1_000;
        let mut d = DriftDetector::new();
        let mut ledger = 0;
        let mut fired = feed_process(&mut d, &mut ledger, u64::from(ARMING_FRAMES), calm);
        assert!(fired.is_empty(), "calm frames fired: {fired:?}");
        fired.extend(feed_process(&mut d, &mut ledger, 1, |_| 8 * MIB));
        assert_eq!(fired.len(), 1, "the burst fires: {fired:?}");
        fired.extend(feed_process(&mut d, &mut ledger, 1, calm));
        assert_eq!(fired.len(), 1, "one calm frame releases without firing");
        fired.extend(feed_process(&mut d, &mut ledger, 1, |_| 32 * MIB));
        fired.extend(feed_process(&mut d, &mut ledger, 4, calm));
        assert_eq!(fired.len(), 2, "{fired:?}");
        for event in &fired {
            assert_eq!(event.site, "process");
            assert_eq!(event.site_id, u64::MAX);
            assert_eq!(event.dimension, "alloc_bytes_per_frame");
            assert_eq!(event.ops_in_frame, 0);
            assert!(event.observed > event.mean + event.band, "{event:?}");
        }
        assert_eq!(fired[0].observed, (8 * MIB) as f64);
        assert_eq!(
            fired[0].band, PROCESS_MIN_BAND,
            "a calm history bands at the floor"
        );
        assert_eq!(fired[1].observed, (32 * MIB) as f64);
        assert_eq!(d.fired_total(), 2);
    }

    #[test]
    fn process_band_never_fires_on_a_zero_ledger() {
        // Without the counting allocator every ledger reading is zero.
        let mut d = DriftDetector::new();
        assert!(feed_process(&mut d, &mut 0, 64, |_| 0).is_empty());
        assert_eq!(d.fired_total(), 0);
    }

    #[test]
    fn process_wobble_below_the_floor_never_fires() {
        // Deltas anywhere in [0, 1 MiB) stay within the floor of any mean
        // they can produce, however much they swing.
        let wobble = |i: u64| (i * 2_654_435_761) % (1 << 20);
        let mut d = DriftDetector::new();
        assert!(feed_process(&mut d, &mut 0, 200, wobble).is_empty());
    }
}
