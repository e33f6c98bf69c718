//! Push-based event subscription: [`EngineEventSink`] and the panic-safe
//! dispatcher behind [`Switch::subscribe`](crate::Switch::subscribe).
//!
//! The engine's event log (paper §4.4) is pull-only: a host has to remember
//! to poll [`Switch::event_log`](crate::Switch::event_log), and anything
//! evicted from the bounded ring before the poll is gone. Sinks close that
//! gap — every [`EngineEvent`] is delivered to each registered sink *at
//! record time*, before the ring can drop it, which is what the telemetry
//! layer (`cs-telemetry`) builds its metrics and JSONL audit stream on.
//!
//! ## Subscriber contract
//!
//! * `on_event` is called once per event, in record order, from whichever
//!   thread recorded the event (an analysis pass, or `build()` for model
//!   fallbacks). Delivery happens *outside* every engine lock: a sink may
//!   call back into the engine (query the log, subscribe another sink) but
//!   must not assume the event is already visible in `event_log()` ordering
//!   relative to other threads.
//! * A sink that panics is **disconnected**: the panic is contained, the
//!   sink is removed from the registry, and the disconnect is counted
//!   (visible in [`EngineHealth::sink_disconnects`](crate::EngineHealth)).
//!   The engine never lets a subscriber poison adaptation.
//! * `on_analysis_pass` is called after every analysis pass (clean or
//!   panicked) with the pass's wall-clock duration; the default
//!   implementation ignores it.
//! * Sinks must be cheap: they run on the analyzer thread. Buffer or hand
//!   off anything slow.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::event::EngineEvent;

/// A subscriber receiving every [`EngineEvent`] at record time.
///
/// See the module-level documentation for the delivery contract. Implementations
/// must be `Send + Sync`: events are dispatched from the thread that
/// recorded them (analyzer thread, or any thread calling
/// [`Switch::analyze_now`](crate::Switch::analyze_now)).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use cs_core::{EngineEvent, EngineEventSink};
///
/// #[derive(Default)]
/// struct CountingSink(AtomicU64);
///
/// impl EngineEventSink for CountingSink {
///     fn on_event(&self, _event: &EngineEvent) {
///         self.0.fetch_add(1, Ordering::Relaxed);
///     }
///     fn name(&self) -> &str {
///         "counting"
///     }
/// }
/// ```
pub trait EngineEventSink: Send + Sync {
    /// Receives one recorded event. Panicking here disconnects the sink.
    fn on_event(&self, event: &EngineEvent);

    /// Receives the wall-clock duration of one completed analysis pass
    /// (clean or panicked). Default: ignored.
    fn on_analysis_pass(&self, duration: Duration) {
        let _ = duration;
    }

    /// Diagnostic name reported when the dispatcher disconnects the sink.
    fn name(&self) -> &str {
        "sink"
    }
}

/// The engine's sink registry and panic-isolating dispatcher.
#[derive(Default)]
pub(crate) struct SinkRegistry {
    /// The subscribed sinks as a copy-on-write snapshot: a dispatch clones
    /// the `Arc`, not the list, so it allocates nothing; subscribing and
    /// disconnecting a panicked sink swap in a new list.
    sinks: Mutex<Arc<[Arc<dyn EngineEventSink>]>>,
    disconnects: AtomicU64,
}

impl fmt::Debug for SinkRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkRegistry")
            .field("sinks", &self.sinks.lock().len())
            .field("disconnects", &self.disconnects.load(Ordering::Relaxed))
            .finish()
    }
}

impl SinkRegistry {
    pub(crate) fn subscribe(&self, sink: Arc<dyn EngineEventSink>) {
        let mut sinks = self.sinks.lock();
        *sinks = sinks.iter().cloned().chain([sink]).collect();
    }

    pub(crate) fn len(&self) -> usize {
        self.sinks.lock().len()
    }

    pub(crate) fn disconnects(&self) -> u64 {
        self.disconnects.load(Ordering::Relaxed)
    }

    /// Delivers `events`, in order, to every registered sink.
    ///
    /// The registry lock is released before any sink code runs (sinks may
    /// re-enter the engine), and each sink is wrapped in `catch_unwind`: a
    /// panicking sink loses the rest of the batch, is unsubscribed, and is
    /// counted — other sinks and the engine are unaffected.
    pub(crate) fn dispatch(&self, events: &[EngineEvent]) {
        if events.is_empty() {
            return;
        }
        self.for_each_isolated(|sink| {
            for event in events {
                sink.on_event(event);
            }
        });
    }

    /// Delivers one analysis-pass duration to every registered sink, with
    /// the same panic isolation as [`SinkRegistry::dispatch`].
    pub(crate) fn dispatch_pass(&self, duration: Duration) {
        self.for_each_isolated(|sink| sink.on_analysis_pass(duration));
    }

    fn for_each_isolated(&self, call: impl Fn(&dyn EngineEventSink)) {
        let sinks = Arc::clone(&self.sinks.lock());
        let mut dead: Vec<Arc<dyn EngineEventSink>> = Vec::new();
        for sink in sinks.iter() {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&**sink)));
            if outcome.is_err() {
                dead.push(Arc::clone(sink));
            }
        }
        if !dead.is_empty() {
            self.disconnects
                .fetch_add(dead.len() as u64, Ordering::Relaxed);
            let mut sinks = self.sinks.lock();
            *sinks = sinks
                .iter()
                .filter(|s| !dead.iter().any(|d| Arc::ptr_eq(s, d)))
                .cloned()
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TransitionEvent;
    use cs_collections::Abstraction;

    struct Recorder(Mutex<Vec<String>>);

    impl EngineEventSink for Recorder {
        fn on_event(&self, event: &EngineEvent) {
            self.0.lock().push(event.kind_name().to_owned());
        }
        fn name(&self) -> &str {
            "recorder"
        }
    }

    struct Bomb;

    impl EngineEventSink for Bomb {
        fn on_event(&self, _event: &EngineEvent) {
            panic!("sink bomb");
        }
        fn name(&self) -> &str {
            "bomb"
        }
    }

    fn transition(round: u64) -> EngineEvent {
        EngineEvent::Transition(TransitionEvent::new(
            1,
            "s",
            Abstraction::List,
            "a",
            "b",
            round,
        ))
    }

    #[test]
    fn dispatch_preserves_order_per_sink() {
        let registry = SinkRegistry::default();
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        registry.subscribe(rec.clone());
        registry.dispatch(&[transition(0), transition(1)]);
        registry.dispatch(&[transition(2)]);
        assert_eq!(rec.0.lock().len(), 3);
    }

    #[test]
    fn panicking_sink_is_disconnected_and_counted() {
        let registry = SinkRegistry::default();
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        registry.subscribe(Arc::new(Bomb));
        registry.subscribe(rec.clone());
        assert_eq!(registry.len(), 2);

        registry.dispatch(&[transition(0)]);
        assert_eq!(registry.len(), 1, "bomb removed");
        assert_eq!(registry.disconnects(), 1);
        assert_eq!(rec.0.lock().len(), 1, "healthy sink still delivered");

        // Subsequent dispatches never touch the disconnected sink again.
        registry.dispatch(&[transition(1)]);
        assert_eq!(registry.disconnects(), 1);
        assert_eq!(rec.0.lock().len(), 2);
    }

    #[test]
    fn pass_durations_reach_sinks() {
        struct PassSink(AtomicU64);
        impl EngineEventSink for PassSink {
            fn on_event(&self, _event: &EngineEvent) {}
            fn on_analysis_pass(&self, duration: Duration) {
                self.0
                    .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
            }
        }
        let registry = SinkRegistry::default();
        let sink = Arc::new(PassSink(AtomicU64::new(0)));
        registry.subscribe(sink.clone());
        registry.dispatch_pass(Duration::from_nanos(250));
        assert_eq!(sink.0.load(Ordering::Relaxed), 250);
    }
}
