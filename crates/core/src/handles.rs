//! Switch handles: what `ctx.create_*()` returns.
//!
//! A handle owns the underlying variant (an [`AnyList`]/[`AnySet`]/
//! [`AnyMap`]) and, when the allocation context sampled this instance for
//! monitoring, an [`OpRecorder`] that counts critical operations. When the
//! handle is dropped, the recorder is folded into a
//! [`WorkloadProfile`](cs_profile::WorkloadProfile) and pushed into the
//! context's sink — the Rust equivalent of the paper's `WeakReference`-based
//! end-of-life detection (§4.3), but exact and overhead-free.

use std::hash::Hash;
use std::time::Instant;

use cs_collections::{AnyList, AnyMap, AnySet, HeapSize, ListOps, MapOps, SetOps};
use cs_heap::{AllocDelta, AllocGuard};
use cs_profile::{ClockSampler, OpKind, OpRecorder, ProfileSink};

/// Monitoring payload carried by sampled instances.
#[derive(Debug)]
pub(crate) struct Monitor {
    recorder: OpRecorder,
    clock: ClockSampler,
    sink: ProfileSink,
}

impl Monitor {
    pub(crate) fn new(sink: ProfileSink, clock: ClockSampler) -> Self {
        Monitor {
            recorder: OpRecorder::new(),
            clock,
            sink,
        }
    }

    #[cfg(test)]
    pub(crate) fn clock_period(&self) -> u64 {
        self.clock.period()
    }

    /// The fast path's whole bookkeeping: the op's count and size.
    #[inline]
    fn count(&mut self, op: OpKind, size: usize) {
        self.recorder.record(op);
        self.recorder.observe_size(size);
    }

    fn record(&mut self, op: OpKind, size: usize, nanos: u64, alloc: AllocDelta) {
        // Spans the monitoring bookkeeping only — the op body already ran.
        // Single-owner handles don't know their context id; the span is
        // site-anonymous (site 0), unlike the runtime's per-site op spans.
        let _span = cs_trace::op_span(0);
        self.count(op, size);
        self.recorder.add_nanos(nanos);
        if alloc.count > 0 {
            self.recorder.add_alloc(alloc.count, alloc.bytes);
        }
    }

    fn finish(self) {
        let Monitor { recorder, sink, .. } = self;
        sink.push(recorder.finish());
    }
}

/// Runs an op body on the instrumented path: inside an alloc guard, and
/// between two clock reads when `scale` is set. Returns the body's output,
/// its wall time scaled by `scale` (0 when unclocked) and the churn it
/// allocated. Kept out of line so the fast path in `timed!` stays small.
#[inline(never)]
fn instrumented<R>(scale: Option<u64>, body: impl FnOnce() -> R) -> (R, u64, AllocDelta) {
    let guard = AllocGuard::begin();
    let start = scale.map(|scale| (scale, Instant::now()));
    let out = body();
    let nanos = start.map_or(0, |(scale, s)| {
        (s.elapsed().as_nanos() as u64).saturating_mul(scale)
    });
    (out, nanos, guard.finish())
}

/// Runs `$body`; when the instance is monitored, additionally records the
/// op. Every monitored op advances the recorder's [`ClockSampler`] and
/// records its count and its size, evaluated *after* the body so call sites
/// can report post-operation length. An op takes the fast path — body,
/// count, size, nothing more — when the sampler does not clock it, heap
/// counting is off and tracing is off: one branch over the three flags.
/// Otherwise it takes the `instrumented` path: an alloc guard, the op
/// span, and, on the clocked op, two clock reads whose nanos are scaled by
/// the sampler's period. Counts and sizes are therefore exact on every op,
/// and allocation attribution is exact whenever counting is on. The alloc
/// guard closes before the recorder runs, so monitoring bookkeeping never
/// pollutes the attribution window. Unmonitored instances execute the body
/// alone.
macro_rules! timed {
    ($self:ident, $op:expr, $len:expr, $body:expr) => {{
        match $self.monitor.as_mut() {
            None => $body,
            Some(m) => {
                let clocked = m.clock.tick();
                if clocked | cs_heap::counting_active() | cs_trace::enabled() {
                    let scale = clocked.then_some(m.clock.period());
                    let (out, nanos, alloc) = instrumented(scale, || $body);
                    m.record($op, $len, nanos, alloc);
                    out
                } else {
                    let out = $body;
                    m.count($op, $len);
                    out
                }
            }
        }
    }};
}

/// A list handle created by a [`ListContext`](crate::ListContext).
///
/// Forwards every operation to the underlying variant; monitored instances
/// additionally count the paper's critical operations (populate, contains,
/// iterate, middle).
///
/// # Examples
///
/// ```
/// use cs_collections::ListKind;
/// use cs_core::Switch;
///
/// let engine = Switch::builder().build();
/// let ctx = engine.list_context::<i32>(ListKind::Array);
/// let mut list = ctx.create_list();
/// list.push(1);
/// list.insert(0, 0);
/// assert_eq!(list.as_vec(), vec![0, 1]);
/// ```
#[derive(Debug)]
pub struct SwitchList<T: Eq + Hash + Clone> {
    inner: AnyList<T>,
    monitor: Option<Monitor>,
}

impl<T: Eq + Hash + Clone> SwitchList<T> {
    pub(crate) fn new(inner: AnyList<T>, monitor: Option<Monitor>) -> Self {
        SwitchList { inner, monitor }
    }

    /// Whether this instance was sampled for monitoring.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// The underlying variant.
    pub fn inner(&self) -> &AnyList<T> {
        &self.inner
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        ListOps::len(&self.inner)
    }

    /// Returns `true` if the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `value` (critical op: *populate*).
    pub fn push(&mut self, value: T) {
        timed!(
            self,
            OpKind::Populate,
            ListOps::len(&self.inner),
            ListOps::push(&mut self.inner, value)
        )
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        ListOps::pop(&mut self.inner)
    }

    /// Inserts at `index` (critical op: *middle*).
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        timed!(
            self,
            OpKind::Middle,
            ListOps::len(&self.inner),
            ListOps::list_insert(&mut self.inner, index, value)
        )
    }

    /// Removes at `index` (critical op: *middle*).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        timed!(
            self,
            OpKind::Middle,
            ListOps::len(&self.inner) + 1,
            ListOps::list_remove(&mut self.inner, index)
        )
    }

    /// Returns the element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        ListOps::get(&self.inner, index)
    }

    /// Replaces the element at `index`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: T) -> T {
        ListOps::set(&mut self.inner, index, value)
    }

    /// Membership test (critical op: *contains*).
    pub fn contains(&mut self, value: &T) -> bool {
        timed!(
            self,
            OpKind::Contains,
            ListOps::len(&self.inner),
            ListOps::contains(&self.inner, value)
        )
    }

    /// Visits every element in order (critical op: *iterate*).
    pub fn for_each(&mut self, mut f: impl FnMut(&T)) {
        timed!(
            self,
            OpKind::Iterate,
            ListOps::len(&self.inner),
            ListOps::for_each_value(&self.inner, &mut f)
        )
    }

    /// Copies the elements into a `Vec` (counts as an iteration).
    pub fn as_vec(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|v| out.push(v.clone()));
        out
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        ListOps::clear(&mut self.inner);
    }
}

impl<T: Eq + Hash + Clone> HeapSize for SwitchList<T> {
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<T: Eq + Hash + Clone> Drop for SwitchList<T> {
    fn drop(&mut self) {
        if let Some(m) = self.monitor.take() {
            m.finish();
        }
    }
}

/// A set handle created by a [`SetContext`](crate::SetContext).
///
/// # Examples
///
/// ```
/// use cs_collections::SetKind;
/// use cs_core::Switch;
///
/// let engine = Switch::builder().build();
/// let ctx = engine.set_context::<i32>(SetKind::Chained);
/// let mut set = ctx.create_set();
/// assert!(set.insert(1));
/// assert!(set.contains(&1));
/// ```
#[derive(Debug)]
pub struct SwitchSet<T: Eq + Hash + Clone> {
    inner: AnySet<T>,
    monitor: Option<Monitor>,
}

impl<T: Eq + Hash + Clone> SwitchSet<T> {
    pub(crate) fn new(inner: AnySet<T>, monitor: Option<Monitor>) -> Self {
        SwitchSet { inner, monitor }
    }

    /// Whether this instance was sampled for monitoring.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// The underlying variant.
    pub fn inner(&self) -> &AnySet<T> {
        &self.inner
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        SetOps::len(&self.inner)
    }

    /// Returns `true` if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `value` (critical op: *populate*); returns `true` if new.
    pub fn insert(&mut self, value: T) -> bool {
        timed!(
            self,
            OpKind::Populate,
            SetOps::len(&self.inner),
            SetOps::insert(&mut self.inner, value)
        )
    }

    /// Membership test (critical op: *contains*).
    pub fn contains(&mut self, value: &T) -> bool {
        timed!(
            self,
            OpKind::Contains,
            SetOps::len(&self.inner),
            SetOps::contains(&self.inner, value)
        )
    }

    /// Removes `value` (critical op: *middle*); returns `true` if present.
    pub fn remove(&mut self, value: &T) -> bool {
        timed!(
            self,
            OpKind::Middle,
            SetOps::len(&self.inner),
            SetOps::set_remove(&mut self.inner, value)
        )
    }

    /// Visits every element (critical op: *iterate*).
    pub fn for_each(&mut self, mut f: impl FnMut(&T)) {
        timed!(
            self,
            OpKind::Iterate,
            SetOps::len(&self.inner),
            SetOps::for_each_value(&self.inner, &mut f)
        )
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        SetOps::clear(&mut self.inner);
    }
}

impl<T: Eq + Hash + Clone> HeapSize for SwitchSet<T> {
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<T: Eq + Hash + Clone> Drop for SwitchSet<T> {
    fn drop(&mut self) {
        if let Some(m) = self.monitor.take() {
            m.finish();
        }
    }
}

/// A map handle created by a [`MapContext`](crate::MapContext).
///
/// # Examples
///
/// ```
/// use cs_collections::MapKind;
/// use cs_core::Switch;
///
/// let engine = Switch::builder().build();
/// let ctx = engine.map_context::<&str, i32>(MapKind::Chained);
/// let mut map = ctx.create_map();
/// map.insert("k", 1);
/// assert_eq!(map.get(&"k"), Some(&1));
/// ```
#[derive(Debug)]
pub struct SwitchMap<K: Eq + Hash + Clone, V: Clone> {
    inner: AnyMap<K, V>,
    monitor: Option<Monitor>,
}

impl<K: Eq + Hash + Clone, V: Clone> SwitchMap<K, V> {
    pub(crate) fn new(inner: AnyMap<K, V>, monitor: Option<Monitor>) -> Self {
        SwitchMap { inner, monitor }
    }

    /// Whether this instance was sampled for monitoring.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// The underlying variant.
    pub fn inner(&self) -> &AnyMap<K, V> {
        &self.inner
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        MapOps::len(&self.inner)
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or replaces (critical op: *populate*).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        timed!(
            self,
            OpKind::Populate,
            MapOps::len(&self.inner),
            MapOps::map_insert(&mut self.inner, key, value)
        )
    }

    /// Key lookup (critical op: *contains*).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        timed!(
            self,
            OpKind::Contains,
            MapOps::len(&self.inner),
            MapOps::map_get(&self.inner, key)
        )
    }

    /// Key membership test (critical op: *contains*).
    pub fn contains_key(&mut self, key: &K) -> bool {
        timed!(
            self,
            OpKind::Contains,
            MapOps::len(&self.inner),
            MapOps::contains_key(&self.inner, key)
        )
    }

    /// Removes the entry for `key` (critical op: *middle*).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        timed!(
            self,
            OpKind::Middle,
            MapOps::len(&self.inner),
            MapOps::map_remove(&mut self.inner, key)
        )
    }

    /// Visits every entry (critical op: *iterate*).
    pub fn for_each(&mut self, mut f: impl FnMut(&K, &V)) {
        timed!(
            self,
            OpKind::Iterate,
            MapOps::len(&self.inner),
            MapOps::for_each_entry(&self.inner, &mut f)
        )
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        MapOps::clear(&mut self.inner);
    }
}

impl<K: Eq + Hash + Clone, V: Clone> HeapSize for SwitchMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for SwitchMap<K, V> {
    fn drop(&mut self) {
        if let Some(m) = self.monitor.take() {
            m.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_collections::ListKind;
    use cs_profile::OpKind;

    fn monitored_list() -> (SwitchList<i64>, ProfileSink) {
        let sink = ProfileSink::bounded(1);
        let list = SwitchList::new(
            AnyList::new(ListKind::Array),
            Some(Monitor::new(sink.clone(), ClockSampler::new(8, 0))),
        );
        (list, sink)
    }

    #[test]
    fn unmonitored_handle_reports_nothing() {
        let sink = ProfileSink::bounded(1);
        {
            let mut l: SwitchList<i64> = SwitchList::new(AnyList::new(ListKind::Array), None);
            l.push(1);
            assert!(!l.is_monitored());
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn monitored_handle_reports_profile_on_drop() {
        let (mut list, sink) = monitored_list();
        for v in 0..10 {
            list.push(v);
        }
        for v in 0..5 {
            list.contains(&v);
        }
        list.insert(3, 99);
        list.for_each(|_| {});
        assert!(sink.is_empty(), "profile only lands on drop");
        drop(list);
        let profiles = sink.drain();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.count(OpKind::Populate), 10);
        assert_eq!(p.count(OpKind::Contains), 5);
        assert_eq!(p.count(OpKind::Middle), 1);
        assert_eq!(p.count(OpKind::Iterate), 1);
        assert_eq!(p.max_size(), 11);
    }

    #[test]
    fn remove_records_pre_removal_size() {
        let (mut list, sink) = monitored_list();
        for v in 0..8 {
            list.push(v);
        }
        list.remove(0);
        drop(list);
        let p = &sink.drain()[0];
        assert_eq!(p.max_size(), 8);
    }

    #[test]
    fn set_handle_counts_ops() {
        use cs_collections::SetKind;
        let sink = ProfileSink::bounded(1);
        {
            let mut set: SwitchSet<i64> = SwitchSet::new(
                AnySet::new(SetKind::Chained),
                Some(Monitor::new(sink.clone(), ClockSampler::new(8, 0))),
            );
            for v in 0..6 {
                set.insert(v);
            }
            set.contains(&3);
            set.remove(&3);
            set.for_each(|_| {});
        }
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), 6);
        assert_eq!(p.count(OpKind::Contains), 1);
        assert_eq!(p.count(OpKind::Middle), 1);
        assert_eq!(p.count(OpKind::Iterate), 1);
        assert_eq!(p.max_size(), 6);
    }

    #[test]
    fn map_handle_counts_ops() {
        use cs_collections::MapKind;
        let sink = ProfileSink::bounded(1);
        {
            let mut map: SwitchMap<i64, i64> = SwitchMap::new(
                AnyMap::new(MapKind::Array),
                Some(Monitor::new(sink.clone(), ClockSampler::new(8, 0))),
            );
            for k in 0..4 {
                map.insert(k, k);
            }
            map.get(&1);
            map.contains_key(&2);
            map.remove(&3);
        }
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), 4);
        assert_eq!(p.count(OpKind::Contains), 2);
        assert_eq!(p.count(OpKind::Middle), 1);
    }

    #[test]
    fn monitored_handle_accumulates_wall_time() {
        let (mut list, sink) = monitored_list();
        for v in 0..1_000 {
            list.push(v);
        }
        for v in 0..1_000 {
            list.contains(&v);
        }
        drop(list);
        let p = &sink.drain()[0];
        assert!(
            p.elapsed_nanos() > 0,
            "2000 monitored ops should accumulate measurable wall time"
        );
    }

    #[test]
    fn only_clocked_ops_read_the_clock_and_they_are_scaled() {
        // A copy of the handle's sampler predicts which ops it clocks: the
        // others record no wall time, the clocked ones record a multiple
        // of the period, and every op is counted either way.
        let (mut list, sink) = monitored_list();
        let nanos = |l: &SwitchList<i64>| l.monitor.as_ref().unwrap().recorder.elapsed_nanos();
        let mut oracle = list.monitor.as_ref().unwrap().clock;
        let period = oracle.period();
        let mut clocked_ops = 0;
        for v in 0..64 {
            let before = nanos(&list);
            let clocked = oracle.tick();
            list.push(v);
            let added = nanos(&list) - before;
            if clocked {
                clocked_ops += 1;
                assert_eq!(added % period, 0, "a clocked op is scaled by the period");
            } else {
                assert_eq!(added, 0, "an unclocked op records no wall time");
            }
        }
        assert_eq!(
            clocked_ops,
            64 / period,
            "one op in every period is clocked"
        );
        assert!(nanos(&list) > 0, "the clocked ops measured wall time");
        drop(list);
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), 64, "every op is still counted");
        assert_eq!(p.max_size(), 64);
    }

    #[test]
    fn alternating_handles_on_one_thread_are_both_clocked() {
        // Each recorder samples its own op stream. A per-thread tick would
        // hand every clocked op to one of two strictly alternating handles.
        std::thread::spawn(|| {
            let engine = crate::Switch::builder().build();
            let ctx = engine.list_context::<i64>(ListKind::Array);
            let (mut a, mut b) = (ctx.create_list(), ctx.create_list());
            assert!(a.is_monitored() && b.is_monitored());
            for v in 0..64 {
                a.push(v);
                b.push(v);
            }
            let nanos = |l: &SwitchList<i64>| l.monitor.as_ref().unwrap().recorder.elapsed_nanos();
            assert!(nanos(&a) > 0, "first handle clocked");
            assert!(nanos(&b) > 0, "second handle clocked");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unmonitored_handle_carries_no_wall_time() {
        let sink = ProfileSink::bounded(1);
        let mut l: SwitchList<i64> = SwitchList::new(AnyList::new(ListKind::Array), None);
        for v in 0..100 {
            l.push(v);
        }
        drop(l);
        assert!(sink.is_empty());
    }

    #[test]
    fn handle_forwards_heap_accounting() {
        let (mut list, _sink) = monitored_list();
        for v in 0..100 {
            list.push(v);
        }
        assert!(list.heap_bytes() >= 100 * std::mem::size_of::<i64>());
        assert!(list.allocated_bytes() >= list.heap_bytes() as u64);
    }
}
