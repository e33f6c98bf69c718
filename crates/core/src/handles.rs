//! Switch handles: what `ctx.create_*()` returns.
//!
//! A handle owns the underlying variant (an [`AnyList`]/[`AnySet`]/
//! [`AnyMap`]) and, when the allocation context sampled this instance for
//! monitoring, an [`OpRecorder`]: the record of its critical operations,
//! which owns the handle's clock sampler and measures every op the fast
//! path in `timed!` does not take. When the handle is dropped, the
//! recorder is folded into a
//! [`WorkloadProfile`](cs_profile::WorkloadProfile) and pushed into the
//! context's sink — the Rust equivalent of the paper's `WeakReference`-based
//! end-of-life detection (§4.3), but exact and overhead-free.

use std::hash::Hash;

use cs_collections::{AnyList, AnyMap, AnySet, HeapSize, ListOps, MapOps, SetOps};
use cs_profile::{ops_instrumented, ClockSampler, OpKind, OpRecorder, ProfileSink};

/// Monitoring payload carried by sampled instances.
#[derive(Debug)]
pub(crate) struct Monitor {
    recorder: OpRecorder,
    /// Whether heap counting or tracing was on when the monitor was
    /// claimed: every op then takes the instrumented path.
    instrumented: bool,
    sink: ProfileSink,
}

impl Monitor {
    pub(crate) fn new(sink: ProfileSink, clock: ClockSampler) -> Self {
        Monitor {
            recorder: OpRecorder::new(clock),
            instrumented: ops_instrumented(),
            sink,
        }
    }

    #[cfg(test)]
    pub(crate) fn clock(&self) -> ClockSampler {
        self.recorder.clock()
    }

    fn finish(self) {
        let Monitor { recorder, sink, .. } = self;
        sink.push(recorder.finish());
    }
}

/// Runs `$body`; when the instance is monitored, additionally records the
/// op. Every monitored op ticks the recorder's [`ClockSampler`] and
/// records its count and its size, evaluated *after* the body so call sites
/// can report post-operation length. An op takes the fast path — body,
/// count, size, nothing more — when the sampler does not clock it and the
/// monitor's `instrumented` flag is clear: one branch over two bits. The
/// flag records whether heap counting or tracing was on when the monitor
/// was claimed and is never re-read, so a handle claimed while tracing is
/// off records no op spans for its life. Any other op is the recorder's
/// [`OpRecorder::measure`], under a site-anonymous op span (site 0: a
/// single-owner handle does not know its context id, unlike a runtime
/// shard). Unmonitored instances execute the body alone.
macro_rules! timed {
    ($self:ident, $op:expr, $len:expr, $body:expr) => {{
        match $self.monitor.as_mut() {
            None => $body,
            Some(m) => {
                let clocked = m.recorder.tick();
                if clocked | m.instrumented {
                    m.recorder.measure(0, $op, clocked, || ($body, $len))
                } else {
                    let out = $body;
                    m.recorder.count($op, $len);
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

    fn nanos(l: &SwitchList<i64>) -> u64 {
        l.monitor.as_ref().unwrap().recorder.elapsed_nanos()
    }

    #[test]
    fn only_clocked_ops_read_the_clock_and_they_are_scaled() {
        // A copy of the handle's sampler predicts which ops it clocks and
        // each clocked op's scale, its block's period: the other ops record
        // no wall time, the clocked ones a multiple of their scale, and
        // every op is counted either way. 3,000 ops cross all five periods
        // of a sampler backing off from 3 to 40.
        let sink = ProfileSink::bounded(1);
        let mut list = SwitchList::new(
            AnyList::new(ListKind::Array),
            Some(Monitor::new(sink.clone(), ClockSampler::backoff(3, 40, 5))),
        );
        let mut oracle = list.monitor.as_ref().unwrap().recorder.clock();
        let mut scales = Vec::new();
        for v in 0..3_000 {
            let before = nanos(&list);
            let clocked = oracle.tick();
            list.push(v);
            let added = nanos(&list) - before;
            if clocked {
                let scale = oracle.period();
                scales.push(scale);
                assert_eq!(added % scale, 0, "op {v} is scaled by its block's period");
            } else {
                assert_eq!(added, 0, "an unclocked op records no wall time");
            }
        }
        assert_eq!(&scales[..32], &[3; 32], "32 clocked ops per period");
        let mut periods = scales.clone();
        periods.dedup();
        assert_eq!(periods, [3, 6, 12, 24, 40]);
        assert!(nanos(&list) > 0, "the clocked ops measured wall time");
        drop(list);
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), 3_000, "every op counted");
        assert_eq!(p.max_size(), 3_000);
    }

    #[test]
    fn a_first_window_list_clocks_a_few_hundred_of_10_000_ops() {
        // A first-window monitor starts at 8 and backs off with no ceiling:
        // of 10,000 ops it clocks at most 200, where one in 8 is 1,250.
        // Every op is still counted, and its size observed.
        let engine = crate::Switch::builder().build();
        let ctx = engine.list_context::<i64>(ListKind::Array);
        let clock = ctx.core().claim_monitor().expect("first slot").clock();
        assert_eq!(clock, ClockSampler::backoff(8, u64::MAX, 0));
        let sink = ProfileSink::bounded(1);
        let mut list = SwitchList::new(
            AnyList::new(ListKind::Array),
            Some(Monitor::new(sink.clone(), clock)),
        );
        let mut oracle = clock;
        let (mut clocked, mut timed) = (0, 0);
        for v in 0..10_000i64 {
            let before = nanos(&list);
            clocked += usize::from(oracle.tick());
            match v % 4 {
                0 | 1 => list.push(v),
                2 => assert!(list.contains(&(v / 2))),
                _ => list.insert(0, v),
            }
            timed += usize::from(nanos(&list) > before);
        }
        assert!(clocked <= 200, "{clocked} of 10,000 ops clocked");
        assert!(timed <= clocked, "only the oracle's ops read the clock");
        drop(list);
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), 5_000);
        assert_eq!(p.count(OpKind::Contains), 2_500);
        assert_eq!(p.count(OpKind::Middle), 2_500);
        assert_eq!(p.max_size(), 7_500);
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

    /// Monitored handles of every variant against `std` oracles, on the
    /// first window's clock schedule: contents after every iterate, and the
    /// drained profile's per-op counts and max size against the script's
    /// tallies. Scripts of 300 to 1,500 ops cross one to four back-off
    /// periods. No assertion reads wall time.
    mod oracle {
        use super::*;
        use cs_collections::{MapKind, SetKind};
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Add(i64),
            Remove(i64),
            Contains(i64),
            Middle(usize, i64),
            Iterate,
            /// An op the handle does not record (pop/get/set, clear).
            Unrecorded(i64),
        }

        fn script() -> impl Strategy<Value = Vec<Op>> {
            let op = prop_oneof![
                6 => (-40i64..40).prop_map(Op::Add),
                3 => (-40i64..40).prop_map(Op::Remove),
                6 => (-40i64..40).prop_map(Op::Contains),
                2 => (0usize..64, -40i64..40).prop_map(|(i, v)| Op::Middle(i, v)),
                1 => Just(Op::Iterate),
                1 => (-40i64..40).prop_map(Op::Unrecorded),
            ];
            proptest::collection::vec(op, 300..1_500)
        }

        /// The per-op counts and max size a script's recorded ops imply.
        #[derive(Debug, Default)]
        struct Tally {
            counts: [u64; 4],
            max_size: usize,
        }

        impl Tally {
            fn note(&mut self, op: OpKind, size: usize) {
                self.counts[op.index()] += 1;
                self.max_size = self.max_size.max(size);
            }

            fn check(&self, sink: &ProfileSink) {
                let profiles = sink.drain();
                assert_eq!(profiles.len(), 1);
                for op in OpKind::ALL {
                    assert_eq!(profiles[0].count(op), self.counts[op.index()], "{op}");
                }
                assert_eq!(profiles[0].max_size(), self.max_size);
            }
        }

        fn monitor(sink: &ProfileSink, seed: u64) -> Option<Monitor> {
            let clock = ClockSampler::backoff(8, u64::MAX, seed);
            Some(Monitor::new(sink.clone(), clock))
        }

        proptest! {
            #[test]
            fn lists_match_a_vec_and_their_tallies(script in script(), seed in 0u64..1_000) {
                for &kind in ListKind::ALL.iter() {
                    let sink = ProfileSink::bounded(1);
                    let mut list = SwitchList::new(AnyList::new(kind), monitor(&sink, seed));
                    let (mut oracle, mut tally) = (Vec::new(), Tally::default());
                    for &op in &script {
                        match op {
                            Op::Add(v) => {
                                list.push(v);
                                oracle.push(v);
                                tally.note(OpKind::Populate, oracle.len());
                            }
                            Op::Remove(v) if !oracle.is_empty() => {
                                let at = v.unsigned_abs() as usize % oracle.len();
                                tally.note(OpKind::Middle, oracle.len());
                                prop_assert_eq!(list.remove(at), oracle.remove(at));
                            }
                            Op::Remove(_) => prop_assert_eq!(list.pop(), oracle.pop()),
                            Op::Contains(v) => {
                                prop_assert_eq!(list.contains(&v), oracle.contains(&v));
                                tally.note(OpKind::Contains, oracle.len());
                            }
                            Op::Middle(i, v) => {
                                let at = i % (oracle.len() + 1);
                                list.insert(at, v);
                                oracle.insert(at, v);
                                tally.note(OpKind::Middle, oracle.len());
                            }
                            Op::Iterate => {
                                prop_assert_eq!(list.as_vec(), oracle.clone(), "{}", kind);
                                tally.note(OpKind::Iterate, oracle.len());
                            }
                            Op::Unrecorded(v) => {
                                let at = v.unsigned_abs() as usize;
                                prop_assert_eq!(list.get(at), oracle.get(at));
                                if at < oracle.len() {
                                    let old = std::mem::replace(&mut oracle[at], v);
                                    prop_assert_eq!(list.set(at, v), old);
                                }
                                prop_assert_eq!(list.pop(), oracle.pop());
                            }
                        }
                        prop_assert_eq!(list.len(), oracle.len());
                    }
                    drop(list);
                    tally.check(&sink);
                }
            }

            #[test]
            fn sets_match_a_btree_set_and_their_tallies(script in script(), seed in 0u64..1_000) {
                for &kind in SetKind::ALL.iter() {
                    let sink = ProfileSink::bounded(1);
                    let mut set = SwitchSet::new(AnySet::new(kind), monitor(&sink, seed));
                    let (mut oracle, mut tally) = (BTreeSet::new(), Tally::default());
                    for &op in &script {
                        match op {
                            Op::Add(v) | Op::Middle(_, v) => {
                                prop_assert_eq!(set.insert(v), oracle.insert(v));
                                tally.note(OpKind::Populate, oracle.len());
                            }
                            Op::Remove(v) => {
                                prop_assert_eq!(set.remove(&v), oracle.remove(&v));
                                tally.note(OpKind::Middle, oracle.len());
                            }
                            Op::Contains(v) => {
                                prop_assert_eq!(set.contains(&v), oracle.contains(&v));
                                tally.note(OpKind::Contains, oracle.len());
                            }
                            Op::Iterate => {
                                let mut got = BTreeSet::new();
                                set.for_each(|&v| assert!(got.insert(v), "{v} visited twice"));
                                prop_assert_eq!(&got, &oracle, "{}", kind);
                                tally.note(OpKind::Iterate, oracle.len());
                            }
                            Op::Unrecorded(v) if v % 8 == 0 => {
                                set.clear();
                                oracle.clear();
                            }
                            Op::Unrecorded(_) => {}
                        }
                        prop_assert_eq!(set.len(), oracle.len());
                    }
                    drop(set);
                    tally.check(&sink);
                }
            }

            #[test]
            fn maps_match_a_btree_map_and_their_tallies(script in script(), seed in 0u64..1_000) {
                for &kind in MapKind::ALL.iter() {
                    let sink = ProfileSink::bounded(1);
                    let mut map = SwitchMap::new(AnyMap::new(kind), monitor(&sink, seed));
                    let (mut oracle, mut tally) = (BTreeMap::new(), Tally::default());
                    for &op in &script {
                        match op {
                            Op::Add(v) | Op::Middle(_, v) => {
                                prop_assert_eq!(map.insert(v, 3 * v), oracle.insert(v, 3 * v));
                                tally.note(OpKind::Populate, oracle.len());
                            }
                            Op::Remove(v) => {
                                prop_assert_eq!(map.remove(&v), oracle.remove(&v));
                                tally.note(OpKind::Middle, oracle.len());
                            }
                            Op::Contains(v) if v % 2 == 0 => {
                                prop_assert_eq!(map.get(&v), oracle.get(&v));
                                tally.note(OpKind::Contains, oracle.len());
                            }
                            Op::Contains(v) => {
                                prop_assert_eq!(map.contains_key(&v), oracle.contains_key(&v));
                                tally.note(OpKind::Contains, oracle.len());
                            }
                            Op::Iterate => {
                                let mut got = BTreeMap::new();
                                map.for_each(|&k, &v| {
                                    assert!(got.insert(k, v).is_none(), "{k} visited twice");
                                });
                                prop_assert_eq!(&got, &oracle, "{}", kind);
                                tally.note(OpKind::Iterate, oracle.len());
                            }
                            Op::Unrecorded(v) if v % 8 == 0 => {
                                map.clear();
                                oracle.clear();
                            }
                            Op::Unrecorded(_) => {}
                        }
                        prop_assert_eq!(map.len(), oracle.len());
                    }
                    drop(map);
                    tally.check(&sink);
                }
            }
        }
    }
}
