//! The windowed time-series: a fixed ring of cumulative frames the sampler
//! fills and the query API reads deltas/rates out of.
//!
//! Each [`Frame`] is a point-in-time copy of every *cumulative* observable
//! the sampler can reach without I/O: the counter series of the telemetry
//! registry (flattened to `name{label="value",…}` keys, exactly the
//! Prometheus series identity) plus the raw per-site samples the drift
//! detector consumes. Because frames store cumulative totals, any pair of
//! frames yields an exact delta — the window never loses precision to
//! pre-aggregation, and evicting old frames only narrows the horizon.
//!
//! This module is on the sampler path and is covered by the analyzer's
//! `no-blocking-io-in-sampler-path` lint: no filesystem or socket tokens
//! may appear here.

use std::collections::VecDeque;

/// One per-site cumulative sample, the drift detector's unit of input.
/// Copied out of the runtime's [`SiteStats`](cs_runtime::SiteStats)
/// atomics; all fields are lifetime totals, not deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSample {
    /// Engine-assigned site id.
    pub id: u64,
    /// Site label.
    pub name: String,
    /// Exact flushed op totals, indexed by `OpKind::index()`.
    pub ops: [u64; 4],
    /// Sum of `ops`.
    pub total_ops: u64,
    /// Attributed allocation bytes: exact while a counting allocator is
    /// active (every op runs under an alloc guard), 0 without one.
    pub alloc_bytes: u64,
}

/// One sampler tick: a timestamp plus every cumulative observable.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Nanoseconds since the observation plane started (monotone).
    pub t_ns: u64,
    /// Flattened counter series, sorted by key. Keys are the Prometheus
    /// series identity: `name` for unlabelled series,
    /// `name{k="v",…}` for labelled ones.
    pub counters: Vec<(String, u64)>,
    /// Per-site cumulative samples at this tick.
    pub sites: Vec<SiteSample>,
}

impl Frame {
    /// The cumulative value of `key` in this frame, if sampled.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.counters[i].1)
    }

    fn site(&self, id: u64) -> Option<&SiteSample> {
        self.sites.iter().find(|s| s.id == id)
    }
}

/// One point of a per-site trend: the frame-over-frame delta expressed as
/// an op-mix distribution plus the allocation rate, i.e. exactly the
/// dimensions the drift detector bands.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Timestamp of the later frame of the delta pair.
    pub t_ns: u64,
    /// Ops executed between the two frames.
    pub ops_in_frame: u64,
    /// Fraction of `ops_in_frame` per op kind (`OpKind::index()` order);
    /// all zero when no ops ran in the interval.
    pub mix: [f64; 4],
    /// Attributed allocation bytes per op over the interval.
    pub alloc_bytes_per_op: f64,
}

/// A fixed-capacity ring of [`Frame`]s with delta/rate queries. Bounded by
/// construction: the ring allocates its full capacity up front and evicts
/// oldest-first.
#[derive(Debug)]
pub struct Window {
    frames: VecDeque<Frame>,
    capacity: usize,
}

impl Window {
    /// Creates an empty window holding at most `capacity` frames
    /// (minimum 2 — a single frame can answer no delta query).
    pub fn new(capacity: usize) -> Window {
        let capacity = capacity.max(2);
        Window {
            frames: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends a frame, evicting the oldest when full.
    pub fn push(&mut self, frame: Frame) {
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frame has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The window's time span in nanoseconds (oldest frame to newest).
    pub fn span_ns(&self) -> u64 {
        match (self.frames.front(), self.frames.back()) {
            (Some(first), Some(last)) => last.t_ns.saturating_sub(first.t_ns),
            _ => 0,
        }
    }

    /// The newest frame, if any.
    pub fn latest(&self) -> Option<&Frame> {
        self.frames.back()
    }

    /// Counter increase across the window: newest cumulative value minus
    /// oldest. `None` until two frames carry the key. Saturating, so a
    /// counter reset (process restart behind the same window) reads as 0
    /// rather than wrapping.
    pub fn delta(&self, key: &str) -> Option<u64> {
        let first = self.first_with(key)?;
        let last = self.last_with(key)?;
        Some(last.1.saturating_sub(first.1))
    }

    /// Counter rate over the window in events per second, from the same
    /// frame pair as [`Window::delta`]. `None` until two frames carry the
    /// key or when they carry identical timestamps.
    pub fn rate(&self, key: &str) -> Option<f64> {
        let first = self.first_with(key)?;
        let last = self.last_with(key)?;
        let dt_ns = last.0.saturating_sub(first.0);
        if dt_ns == 0 {
            return None;
        }
        let d = last.1.saturating_sub(first.1);
        Some(d as f64 / (dt_ns as f64 / 1e9))
    }

    /// Every counter key present in the newest frame.
    pub fn keys(&self) -> Vec<String> {
        self.frames
            .back()
            .map(|f| f.counters.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    }

    /// The per-frame trend of site `id`: one [`TrendPoint`] per adjacent
    /// frame pair in which the site appears. Empty until the site shows up
    /// in at least two frames.
    pub fn site_trend(&self, id: u64) -> Vec<TrendPoint> {
        let mut points = Vec::with_capacity(self.frames.len().saturating_sub(1));
        let mut prev: Option<&SiteSample> = None;
        for frame in &self.frames {
            let Some(cur) = frame.site(id) else { continue };
            if let Some(p) = prev {
                points.push(trend_point(frame.t_ns, p, cur));
            }
            prev = Some(cur);
        }
        points
    }

    fn first_with(&self, key: &str) -> Option<(u64, u64)> {
        self.frames
            .iter()
            .find_map(|f| f.counter(key).map(|v| (f.t_ns, v)))
    }

    fn last_with(&self, key: &str) -> Option<(u64, u64)> {
        let first = self.first_with(key)?;
        let last = self
            .frames
            .iter()
            .rev()
            .find_map(|f| f.counter(key).map(|v| (f.t_ns, v)))?;
        // A single matching frame answers nothing: delta needs a pair.
        if first.0 == last.0 && self.frames.iter().filter(|f| f.counter(key).is_some()).count() < 2
        {
            return None;
        }
        Some(last)
    }
}

/// The delta between two cumulative samples of one site, normalised to the
/// drift detector's dimensions.
pub(crate) fn trend_point(t_ns: u64, prev: &SiteSample, cur: &SiteSample) -> TrendPoint {
    let ops_in_frame = cur.total_ops.saturating_sub(prev.total_ops);
    let mut mix = [0.0f64; 4];
    if ops_in_frame > 0 {
        for (i, m) in mix.iter_mut().enumerate() {
            *m = cur.ops[i].saturating_sub(prev.ops[i]) as f64 / ops_in_frame as f64;
        }
    }
    let alloc = cur.alloc_bytes.saturating_sub(prev.alloc_bytes);
    let alloc_bytes_per_op = if ops_in_frame > 0 {
        alloc as f64 / ops_in_frame as f64
    } else {
        0.0
    };
    TrendPoint {
        t_ns,
        ops_in_frame,
        mix,
        alloc_bytes_per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(t_ns: u64, counters: &[(&str, u64)], sites: Vec<SiteSample>) -> Frame {
        let mut counters: Vec<(String, u64)> = counters
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect();
        counters.sort();
        Frame { t_ns, counters, sites }
    }

    fn site(id: u64, ops: [u64; 4], alloc_bytes: u64) -> SiteSample {
        SiteSample {
            id,
            name: format!("site-{id}"),
            ops,
            total_ops: ops.iter().sum(),
            alloc_bytes,
        }
    }

    #[test]
    fn delta_and_rate_use_first_and_last_carrying_frames() {
        let mut w = Window::new(8);
        w.push(frame(0, &[("a", 100)], vec![]));
        w.push(frame(1_000_000_000, &[("a", 160), ("b", 5)], vec![]));
        w.push(frame(2_000_000_000, &[("a", 220), ("b", 9)], vec![]));
        assert_eq!(w.delta("a"), Some(120));
        assert_eq!(w.rate("a"), Some(60.0));
        // `b` appears only in the last two frames: its window is shorter.
        assert_eq!(w.delta("b"), Some(4));
        assert_eq!(w.rate("b"), Some(4.0));
        assert_eq!(w.delta("missing"), None);
        assert_eq!(w.span_ns(), 2_000_000_000);
    }

    #[test]
    fn single_frame_answers_no_delta() {
        let mut w = Window::new(4);
        w.push(frame(0, &[("a", 7)], vec![]));
        assert_eq!(w.delta("a"), None);
        assert_eq!(w.rate("a"), None);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let mut w = Window::new(3);
        for i in 0..10u64 {
            w.push(frame(i * 1_000, &[("a", i * 10)], vec![]));
        }
        assert_eq!(w.len(), 3);
        // Oldest surviving frame is i=7: delta spans 7..9.
        assert_eq!(w.delta("a"), Some(20));
    }

    #[test]
    fn counter_reset_saturates_to_zero() {
        let mut w = Window::new(4);
        w.push(frame(0, &[("a", 500)], vec![]));
        w.push(frame(1_000, &[("a", 20)], vec![]));
        assert_eq!(w.delta("a"), Some(0));
    }

    #[test]
    fn site_trend_yields_mix_and_alloc_rate_per_adjacent_pair() {
        let mut w = Window::new(8);
        w.push(frame(0, &[], vec![site(1, [90, 10, 0, 0], 0)]));
        w.push(frame(1_000, &[], vec![site(1, [180, 20, 0, 0], 800)]));
        w.push(frame(2_000, &[], vec![site(1, [190, 110, 0, 0], 1000)]));
        let trend = w.site_trend(1);
        assert_eq!(trend.len(), 2);
        assert_eq!(trend[0].ops_in_frame, 100);
        assert!((trend[0].mix[0] - 0.9).abs() < 1e-12);
        assert!((trend[0].alloc_bytes_per_op - 8.0).abs() < 1e-12);
        // Second interval flips toward reads.
        assert!((trend[1].mix[1] - 0.9).abs() < 1e-12);
        assert!((trend[1].alloc_bytes_per_op - 2.0).abs() < 1e-12);
        assert!(w.site_trend(99).is_empty());
    }

    #[test]
    fn idle_interval_is_all_zero_not_nan() {
        let mut w = Window::new(4);
        w.push(frame(0, &[], vec![site(1, [10, 0, 0, 0], 100)]));
        w.push(frame(1_000, &[], vec![site(1, [10, 0, 0, 0], 100)]));
        let trend = w.site_trend(1);
        assert_eq!(trend.len(), 1);
        assert_eq!(trend[0].ops_in_frame, 0);
        assert_eq!(trend[0].mix, [0.0; 4]);
        assert_eq!(trend[0].alloc_bytes_per_op, 0.0);
    }
}
