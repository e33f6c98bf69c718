//! Monitored-window bookkeeping: window size and finished ratio (paper §4.3).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Configuration of a context's monitoring round.
///
/// Defaults are the paper's evaluation settings (§5): window size 100,
/// finished ratio 0.6, monitoring rate 50 ms.
///
/// # Examples
///
/// ```
/// use cs_profile::WindowConfig;
///
/// let cfg = WindowConfig::default();
/// assert_eq!(cfg.window_size, 100);
/// assert!((cfg.finished_ratio - 0.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Number of instances monitored per round. Only this many of the
    /// instances created by a context are wrapped with a recorder, bounding
    /// the monitoring overhead when a site allocates millions of instances.
    pub window_size: usize,
    /// Fraction of the monitored instances that must have finished their
    /// life-cycle before the round may be analyzed.
    pub finished_ratio: f64,
    /// Period of the background analyzer.
    pub monitoring_rate: Duration,
    /// Minimum number of monitored instances before a round may be analyzed,
    /// guarding against decisions from one or two early samples when a site
    /// allocates slowly.
    pub min_samples: usize,
    /// Exponential decay applied to the accumulated workload history at
    /// every analysis round (1.0 = never forget). The default of 0.5 makes
    /// recent windows dominate, which is what lets contexts re-converge on
    /// phase changes (paper Fig. 6).
    pub history_decay: f64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_size: 100,
            finished_ratio: 0.6,
            monitoring_rate: Duration::from_millis(50),
            min_samples: 10,
            history_decay: 0.5,
        }
    }
}

impl WindowConfig {
    /// Number of finished profiles required before analysis, given how many
    /// instances were actually monitored this round.
    pub fn required_finished(&self, started: usize) -> usize {
        ((self.finished_ratio * started as f64).ceil() as usize).max(1)
    }

    /// Whether a round with `started` monitored instances of which
    /// `finished` have completed is ready for analysis.
    pub fn round_ready(&self, started: usize, finished: usize) -> bool {
        started >= self.min_samples.min(self.window_size).max(1)
            && finished >= self.required_finished(started)
    }
}

/// Lock-free per-round monitoring state shared between an allocation context
/// and the handles it creates.
///
/// # Examples
///
/// ```
/// use cs_profile::WindowState;
///
/// let w = WindowState::new();
/// assert_eq!(w.try_claim_slot(2), Some(0)); // window of 2: first instance monitored
/// assert_eq!(w.try_claim_slot(2), Some(1));
/// assert_eq!(w.try_claim_slot(2), None); // window exhausted
/// assert_eq!(w.started(), 2);
/// w.reset();
/// assert_eq!(w.started(), 0);
/// ```
#[derive(Debug, Default)]
pub struct WindowState {
    started: AtomicUsize,
}

impl WindowState {
    /// Creates a fresh round with no monitored instances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to claim a monitoring slot in a window of `window_size`.
    /// Returns the slot's index in the round (`0..window_size`) if the new
    /// instance should be monitored, `None` once the window is full.
    pub fn try_claim_slot(&self, window_size: usize) -> Option<usize> {
        self.started
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                if n < window_size {
                    Some(n + 1)
                } else {
                    None
                }
            })
            .ok()
    }

    /// Number of instances monitored in the current round.
    pub fn started(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    /// Starts a new monitoring round.
    pub fn reset(&self) {
        self.started.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5() {
        let cfg = WindowConfig::default();
        assert_eq!(cfg.window_size, 100);
        assert!((cfg.finished_ratio - 0.6).abs() < 1e-12);
        assert_eq!(cfg.monitoring_rate, Duration::from_millis(50));
    }

    #[test]
    fn required_finished_rounds_up() {
        let cfg = WindowConfig::default();
        assert_eq!(cfg.required_finished(100), 60);
        assert_eq!(cfg.required_finished(99), 60); // ceil(59.4)
        assert_eq!(cfg.required_finished(1), 1);
        assert_eq!(cfg.required_finished(0), 1);
    }

    #[test]
    fn round_ready_semantics() {
        let cfg = WindowConfig {
            min_samples: 10,
            ..WindowConfig::default()
        };
        assert!(!cfg.round_ready(5, 5), "below min samples");
        assert!(!cfg.round_ready(100, 59), "below finished ratio");
        assert!(cfg.round_ready(100, 60));
        assert!(cfg.round_ready(10, 6));
    }

    #[test]
    fn round_ready_with_tiny_window() {
        let cfg = WindowConfig {
            window_size: 2,
            min_samples: 10,
            ..WindowConfig::default()
        };
        // min_samples is capped at the window size.
        assert!(cfg.round_ready(2, 2));
    }

    #[test]
    fn claim_slots_up_to_window() {
        let w = WindowState::new();
        let claimed: Vec<usize> = (0..10).filter_map(|_| w.try_claim_slot(7)).collect();
        assert_eq!(
            claimed,
            (0..7).collect::<Vec<_>>(),
            "slots are handed out in order"
        );
        assert_eq!(w.started(), 7);
    }

    #[test]
    fn concurrent_claims_never_exceed_window() {
        let w = std::sync::Arc::new(WindowState::new());
        let total: usize = (0..8)
            .map(|_| {
                let w = w.clone();
                std::thread::spawn(move || (0..100).filter_map(|_| w.try_claim_slot(50)).count())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn reset_opens_a_new_round() {
        let w = WindowState::new();
        assert_eq!(w.try_claim_slot(1), Some(0));
        assert_eq!(w.try_claim_slot(1), None);
        w.reset();
        assert_eq!(w.try_claim_slot(1), Some(0));
    }
}
