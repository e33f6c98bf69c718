//! Concurrent collection point for finished workload profiles.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::WorkloadProfile;

#[derive(Debug)]
struct SinkInner {
    queue: VecDeque<WorkloadProfile>,
    capacity: usize,
    /// Profiles discarded because the queue was full.
    dropped: u64,
    /// Profiles ever pushed (accepted), including ones later evicted.
    pushed: u64,
}

/// A cheaply clonable, thread-safe sink that monitored handles push their
/// [`WorkloadProfile`] into when they finish (the paper's feedback channel
/// from collection instances to their allocation context).
///
/// Handles may be moved across threads and dropped anywhere; the periodic
/// analyzer drains the sink from its own thread. A `parking_lot` mutex over
/// a queue is faster here than a lock-free queue would be: pushes are rare
/// (only monitored instances, only at end-of-life) and the critical section
/// is a few nanoseconds.
///
/// The sink caps the pending-profile queue: when the analyzer stalls (or
/// dies) while instances keep finishing, the oldest profiles are dropped
/// first and counted in [`ProfileSink::dropped`], so monitoring degrades to
/// a bounded-memory sliding window instead of growing without limit.
///
/// # Examples
///
/// ```
/// use cs_profile::{ProfileSink, WorkloadProfile};
///
/// let sink = ProfileSink::bounded(16);
/// let clone = sink.clone();
/// std::thread::spawn(move || {
///     clone.push(WorkloadProfile::default());
/// })
/// .join()
/// .unwrap();
/// assert_eq!(sink.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileSink {
    inner: Arc<Mutex<SinkInner>>,
}

impl ProfileSink {
    /// Creates an empty sink that retains at most `capacity` pending
    /// profiles, dropping the oldest on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "sink capacity must be nonzero");
        ProfileSink {
            inner: Arc::new(Mutex::new(SinkInner {
                queue: VecDeque::new(),
                capacity,
                dropped: 0,
                pushed: 0,
            })),
        }
    }

    /// Pushes a finished profile, evicting the oldest pending profile if the
    /// capacity is reached.
    ///
    /// Every finished profile in the process funnels through here — the
    /// single-owner handle path on drop and the concurrent runtime's epoch
    /// flushes alike — so the profile handoff itself is spanned as a
    /// [`Flush`](cs_trace::Phase::Flush). Application time is *not*
    /// credited here: the concurrent runtime credits wall intervals at its
    /// shard flush boundaries (`cs_trace::credit_app_ops`), and
    /// crediting the profile's sampled in-op nanos too would double-count
    /// the same work through a much smaller denominator.
    pub fn push(&self, profile: WorkloadProfile) {
        let _span = cs_trace::span(cs_trace::Phase::Flush, 0);
        let mut inner = self.inner.lock();
        while inner.queue.len() >= inner.capacity {
            inner.queue.pop_front();
            inner.dropped += 1;
        }
        inner.queue.push_back(profile);
        inner.pushed += 1;
    }

    /// Number of profiles ever pushed into this sink, including profiles
    /// later evicted by the capacity bound. `pushed() - dropped()` is the
    /// number of profiles the analyzer actually got to see.
    pub fn pushed(&self) -> u64 {
        self.inner.lock().pushed
    }

    /// Number of profiles currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Returns `true` if no profiles are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of profiles dropped to overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Removes and returns all buffered profiles, oldest first. The queue
    /// keeps its capacity, so the next window's pushes do not regrow it.
    pub fn drain(&self) -> Vec<WorkloadProfile> {
        self.inner.lock().queue.drain(..).collect()
    }

    /// Removes every buffered profile, oldest first, handing each to
    /// `each` under the sink's lock: the analysis pass folds them into its
    /// history this way without collecting a `Vec`. `each` must not push
    /// into this sink.
    pub fn drain_each(&self, each: impl FnMut(WorkloadProfile)) {
        self.inner.lock().queue.drain(..).for_each(each);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpCounters, OpKind};

    /// A profile whose only content is its max size.
    fn sized(max_size: usize) -> WorkloadProfile {
        WorkloadProfile::new(OpCounters::new(), max_size)
    }

    #[test]
    fn push_then_drain_round_trips() {
        let sink = ProfileSink::bounded(10);
        for i in 0..10 {
            sink.push(sized(i));
        }
        assert_eq!(sink.len(), 10);
        let drained = sink.drain();
        assert_eq!(drained.len(), 10);
        assert!(sink.is_empty());
        assert_eq!(drained[9].max_size(), 9);
    }

    #[test]
    fn drain_each_visits_oldest_first_and_empties() {
        let sink = ProfileSink::bounded(4);
        for i in 0..4 {
            sink.push(sized(i));
        }
        let mut seen = Vec::new();
        sink.drain_each(|p| seen.push(p.max_size()));
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(sink.is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = ProfileSink::bounded(1);
        let clone = sink.clone();
        clone.push(WorkloadProfile::default());
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn concurrent_pushes_are_all_recorded() {
        let sink = ProfileSink::bounded(800);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = sink.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let mut counters = OpCounters::new();
                        counters.increment(OpKind::Contains);
                        s.push(WorkloadProfile::new(counters, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 800);
    }

    #[test]
    fn bounded_sink_drops_oldest_and_counts() {
        let sink = ProfileSink::bounded(3);
        for i in 0..7usize {
            sink.push(sized(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 4);
        assert_eq!(sink.pushed(), 7, "evicted profiles still count as pushed");
        assert_eq!(sink.capacity(), 3);
        // The newest three survive, oldest first.
        let kept: Vec<usize> = sink.drain().iter().map(|p| p.max_size()).collect();
        assert_eq!(kept, vec![4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_is_rejected() {
        let _ = ProfileSink::bounded(0);
    }
}
