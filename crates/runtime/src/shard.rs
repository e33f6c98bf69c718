//! Lock-striped shards: the op protocol [`ConcurrentMap`](crate::ConcurrentMap)
//! and [`ConcurrentSet`](crate::ConcurrentSet) share, and the place their
//! ops are recorded.
//!
//! Each shard holds the engine-selected variant *and* the record of the ops
//! that reach it — an [`OpRecorder`], which owns the shard's
//! [`ClockSampler`], and the time of its last flush — behind the mutex every
//! op takes anyway, so recording needs no thread-local access and writes
//! nothing outside the shard.
//!
//! * **Epochs.** A shard's recorder is drained under its lock once it holds
//!   `flush_ops` ops, once it is older than the flush interval (probed every
//!   64 ops of the shard), on a handle or runtime `flush`, and when the
//!   handle's last clone drops. The drained profile reaches
//!   [`SiteShared::ingest`] only after the lock is released; the flushing
//!   thread credits its ops to `cs-trace`.
//! * **Migration cut.** A shard whose variant lags the site's kind — found
//!   by an op, which then migrates it, or by a flush — publishes its
//!   recorded ops to the site's exact totals only, not to the engine, so no
//!   op that ran on the old variant enters the window verifying the switch.
//! * **Sampling.** A shard clocks one op in `P` (migration and body, not
//!   the wait for the lock, which counts as `contended`) and scales its
//!   nanos by `P`, the site's [`ContextCore::clock_period`]. It reads `P`
//!   when built, after each flush and at each migration, keeping its
//!   countdown while `P` is unchanged; its phase is seeded with its index.
//!   While counting is active every op is measured, so counts, sizes and
//!   allocation attribution are exact.
//! * **Fast and slow path.** An op whose shard is current, whose clock
//!   does not fire and whose shard's countdown to the next trigger check
//!   has not run out records its count, its size and the contended bit,
//!   nothing else. Every other op takes the slow path, the one place the
//!   cut and the triggers run; its migration and body are the recorder's
//!   [`OpRecorder::measure`] (the clock, the alloc guard and the op span).
//!   It re-reads whether counting or tracing is on — if so, the countdown
//!   stays at 1 and every op comes back — and sets the countdown, at most
//!   64, so a change of either reaches the shard within 64 ops.

use std::sync::Arc;
use std::time::Instant;

use cs_collections::{AnyMap, AnySet, MapKind, MapOps, SetKind, SetOps};
use cs_core::{ContextCore, Kind};
use cs_profile::{ops_instrumented, ClockSampler, OpKind, OpRecorder, WorkloadProfile};
use parking_lot::Mutex;

use crate::site::SiteShared;
use crate::RuntimeConfig;

/// The time trigger is probed every `CLOCK_CHECK_MASK + 1` ops of a shard,
/// not on every op.
const CLOCK_CHECK_MASK: u64 = 63;

/// A variant enum a shard can hold and migrate between kinds.
pub(crate) trait Variant {
    type Kind: Kind;
    fn kind(&self) -> Self::Kind;
    fn len(&self) -> usize;
    fn clear(&mut self);
    /// Moves the contents into a fresh collection of variant `kind`.
    fn migrate(&mut self, kind: Self::Kind);
}

impl<K: Eq + std::hash::Hash + Clone, V: Clone> Variant for AnyMap<K, V> {
    type Kind = MapKind;
    fn kind(&self) -> MapKind {
        AnyMap::kind(self)
    }
    fn len(&self) -> usize {
        MapOps::len(self)
    }
    fn clear(&mut self) {
        MapOps::clear(self);
    }
    fn migrate(&mut self, kind: MapKind) {
        let old = std::mem::replace(self, AnyMap::new(MapKind::Array));
        *self = old.switched_to(kind);
    }
}

impl<T: Eq + std::hash::Hash + Clone> Variant for AnySet<T> {
    type Kind = SetKind;
    fn kind(&self) -> SetKind {
        AnySet::kind(self)
    }
    fn len(&self) -> usize {
        SetOps::len(self)
    }
    fn clear(&mut self) {
        SetOps::clear(self);
    }
    fn migrate(&mut self, kind: SetKind) {
        let old = std::mem::replace(self, AnySet::new(SetKind::Array));
        *self = old.switched_to(kind);
    }
}

/// One stripe: the collection and the record of the ops that reached it.
pub(crate) struct Shard<C> {
    data: C,
    /// The index of `data`'s variant in its kind family, set at build and
    /// at migration: the fast path compares it with the site's
    /// [`ContextCore::current_index`].
    kind: usize,
    rec: OpRecorder,
    last_flush: Instant,
    /// Ops up to and including the next one that must take the slow path:
    /// the next whose recorded count reaches `flush_ops` or a multiple of
    /// 64, or, while counting or tracing is on, the next op (1). Set by
    /// every slow-path op. A drain outside an op (a flush, a cut) leaves it
    /// as it is: emptying the recorder only moves the next check later, so
    /// the countdown runs out early, never late.
    countdown: u64,
}

impl<C: Variant> Shard<C> {
    /// A shard holding `data`, its clock `clock`, its epoch starting `now`.
    /// Its first op takes the slow path, which sets the countdown.
    pub(crate) fn new(data: C, clock: ClockSampler, now: Instant) -> Self {
        Shard {
            kind: data.kind().index(),
            data,
            rec: OpRecorder::new(clock),
            last_flush: now,
            countdown: 1,
        }
    }
}

impl<C> Shard<C> {
    /// Ends the shard's epoch: empties the recorder and re-arms its clock
    /// with the site's period.
    fn drain(&mut self, now: Instant, period: u64, seed: u64) -> WorkloadProfile {
        self.last_flush = now;
        self.rec.arm(period, seed);
        self.rec.drain()
    }
}

/// The shards of one concurrent handle, and the site they record into.
pub(crate) struct Shards<C: Variant> {
    pub(crate) site: Arc<SiteShared>,
    pub(crate) core: Arc<ContextCore<C::Kind>>,
    flush_ops: u64,
    flush_nanos: u64,
    pub(crate) shards: Box<[Mutex<Shard<C>>]>,
    mask: u64,
}

impl<C: Variant> Shards<C> {
    /// `config.shards` shards (rounded up to a power of two), all built on
    /// one clock reading: `stripe` makes each from the site's current kind,
    /// a clock armed with the site's period and seeded with the shard's
    /// index, and that reading.
    pub(crate) fn new(
        site: Arc<SiteShared>,
        core: Arc<ContextCore<C::Kind>>,
        config: &RuntimeConfig,
        stripe: impl Fn(C::Kind, ClockSampler, Instant) -> Mutex<Shard<C>>,
    ) -> Self {
        let n = config.shards.next_power_of_two();
        let (kind, period, now) = (core.current_kind(), core.clock_period(), Instant::now());
        let shards = (0..n as u64)
            .map(|seed| stripe(kind, ClockSampler::new(period, seed), now))
            .collect();
        Shards {
            site,
            core,
            flush_ops: config.flush_ops.max(1),
            flush_nanos: u64::try_from(config.flush_interval.as_nanos()).unwrap_or(u64::MAX),
            shards,
            mask: (n - 1) as u64,
        }
    }

    /// One critical op on the shard that owns `hash` (its upper bits, so
    /// the variant's own probing, which uses the low bits, stays
    /// uncorrelated with the shard choice).
    #[inline]
    pub(crate) fn op<R>(&self, op: OpKind, hash: u64, f: impl FnOnce(&mut C) -> R) -> R {
        self.locked_op(((hash >> 48) & self.mask) as usize, op, f)
    }

    /// Runs `visit` over every shard, one at a time, each recorded as one
    /// *iterate* op so the profile weighs a traversal by the data walked.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&C)) {
        for index in 0..self.shards.len() {
            self.locked_op(index, OpKind::Iterate, |data| visit(data));
        }
    }

    /// Locks shard `index` (noting whether the lock was contended), runs
    /// the op under the lock, and publishes a drained epoch after release.
    #[inline]
    fn locked_op<R>(&self, index: usize, op: OpKind, f: impl FnOnce(&mut C) -> R) -> R {
        let lock = &self.shards[index];
        let (mut shard, contended) = match lock.try_lock() {
            Some(shard) => (shard, false),
            None => (lock.lock(), true),
        };
        let (out, epoch) = self.record(&mut shard, index as u64, op, contended, f);
        drop(shard);
        if let Some(profile) = epoch {
            self.publish(profile);
        }
        out
    }

    /// The op under the shard lock. It takes the fast path — the body,
    /// then its count, its size and the contended bit — when its shard's
    /// variant is current, the clock does not fire on it and the countdown
    /// has not run out; every other op takes [`Shards::record_slow`].
    /// Returns the op's output and, on an epoch boundary, the drained
    /// recorder.
    #[inline]
    fn record<R>(
        &self,
        shard: &mut Shard<C>,
        seed: u64,
        op: OpKind,
        contended: bool,
        f: impl FnOnce(&mut C) -> R,
    ) -> (R, Option<WorkloadProfile>) {
        let fast = shard.countdown > 1
            && !shard.rec.clock().fires_next()
            && shard.kind == self.core.current_index();
        if !fast {
            return self.record_slow(shard, seed, op, contended, f);
        }
        shard.countdown -= 1;
        // Never fires here: it only moves the sampler's countdown on.
        shard.rec.tick();
        let out = f(&mut shard.data);
        shard.rec.count(op, shard.data.len());
        if contended {
            shard.rec.note_contended();
        }
        (out, None)
    }

    /// The op's slow path: the migration cut if the shard lags, migration
    /// plus body measured by the recorder, the count and time triggers,
    /// then the countdown to the next op that must come here.
    #[inline(never)]
    fn record_slow<R>(
        &self,
        shard: &mut Shard<C>,
        seed: u64,
        op: OpKind,
        contended: bool,
        f: impl FnOnce(&mut C) -> R,
    ) -> (R, Option<WorkloadProfile>) {
        let want = self.core.current_index();
        let lagging = shard.kind != want;
        if lagging {
            self.cut(shard, seed);
        }
        let clocked = shard.rec.tick();
        let out = shard.rec.measure(self.site.id(), op, clocked, || {
            if lagging {
                shard.data.migrate(C::Kind::from_index(want));
                shard.kind = want;
            }
            let out = f(&mut shard.data);
            (out, shard.data.len())
        });
        if contended {
            shard.rec.note_contended();
        }
        let recorded = shard.rec.total_ops();
        let boundary = if recorded >= self.flush_ops {
            Some(Instant::now())
        } else if recorded & CLOCK_CHECK_MASK == 0 {
            let now = Instant::now();
            let age = now.duration_since(shard.last_flush).as_nanos() as u64;
            (age >= self.flush_nanos).then_some(now)
        } else {
            None
        };
        let epoch = boundary.map(|now| shard.drain(now, self.core.clock_period(), seed));
        // Below `flush_ops` now: a count that reached it was drained.
        let recorded = if epoch.is_some() { 0 } else { recorded };
        shard.countdown = if ops_instrumented() {
            1
        } else {
            (self.flush_ops - recorded).min(CLOCK_CHECK_MASK + 1 - (recorded & CLOCK_CHECK_MASK))
        };
        (out, epoch)
    }

    /// The migration cut: a lagging shard's recorded ops reach the site's
    /// exact totals and `cs-trace`, but not the engine, and its clock takes
    /// up the site's current period.
    fn cut(&self, shard: &mut Shard<C>, seed: u64) {
        if shard.rec.total_ops() > 0 {
            let stale = shard.rec.drain();
            self.site.publish_totals(&stale);
            cs_trace::credit_app_ops(stale.total_ops());
        }
        shard.rec.arm(self.core.clock_period(), seed);
    }

    /// Hands one drained epoch to the site, outside any shard lock.
    fn publish(&self, profile: WorkloadProfile) {
        let ops = profile.total_ops();
        // The flush span covers the whole epoch handoff: the batched atomic
        // adds plus the engine-core ingest (a nested Ingest span) and the
        // sink push.
        let _span = cs_trace::span(cs_trace::Phase::Flush, self.site.id());
        self.site.ingest(profile);
        // The wall interval since this thread's previous credit counts as
        // application time for the published ops, whichever thread ran them.
        cs_trace::credit_app_ops(ops);
    }

    /// Publishes every shard's recorded ops, from any thread; a shard that
    /// lags the site's kind is cut instead.
    pub(crate) fn flush(&self) {
        let now = Instant::now();
        let (want, period) = (self.core.current_index(), self.core.clock_period());
        for (seed, lock) in self.shards.iter().enumerate() {
            let epoch = {
                let mut shard = lock.lock();
                if shard.kind != want {
                    self.cut(&mut shard, seed as u64);
                    None
                } else {
                    (shard.rec.total_ops() > 0).then(|| shard.drain(now, period, seed as u64))
                }
            };
            if let Some(profile) = epoch {
                self.publish(profile);
            }
        }
    }

    /// Total entries (a point-in-time sum; not recorded as an op).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().data.len()).sum()
    }

    /// Empties every shard (not recorded as an op).
    pub(crate) fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().data.clear();
        }
    }
}

impl<C: Variant> Drop for Shards<C> {
    /// The last clone of a handle publishes its residue.
    fn drop(&mut self) {
        self.flush();
    }
}

/// A handle's shards with the element types erased, so the runtime's
/// registry can flush every live site through a `Weak` without owning it.
pub(crate) trait Publish: Send + Sync {
    fn flush(&self);
}

impl<C: Variant + Send> Publish for Shards<C> {
    fn flush(&self) {
        Shards::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use cs_collections::hash_one;
    use cs_core::Switch;

    fn test_map(flush_ops: u64, shards: usize) -> Shards<AnyMap<u64, u64>> {
        timed_map(flush_ops, Duration::MAX, shards)
    }

    fn timed_map(
        flush_ops: u64,
        flush_interval: Duration,
        shards: usize,
    ) -> Shards<AnyMap<u64, u64>> {
        let engine = Switch::builder().build();
        let ctx = engine.named_map_context::<u64, u64>(MapKind::Chained, "shard-test");
        let site = Arc::new(SiteShared::new(ctx.core().clone()));
        let config = RuntimeConfig {
            shards,
            flush_ops,
            flush_interval,
        };
        Shards::new(site, Arc::clone(ctx.core()), &config, |kind, clock, now| {
            Mutex::new(Shard::new(AnyMap::new(kind), clock, now))
        })
    }

    fn insert(shards: &Shards<AnyMap<u64, u64>>, key: u64) {
        shards.op(OpKind::Populate, hash_one(&key), |m| m.map_insert(key, key));
    }

    #[test]
    fn ops_buffer_in_the_shard_until_count_trigger() {
        let shards = test_map(10, 1);
        for key in 0..9 {
            insert(&shards, key);
        }
        // Nine ops buffered: nothing shared yet.
        assert_eq!(shards.site.stats().total_ops, 0);
        assert_eq!(shards.site.stats().flushes, 0);
        insert(&shards, 9);
        // The tenth op crossed the epoch: one flush carrying all ten.
        let stats = shards.site.stats();
        assert_eq!(stats.total_ops, 10);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.max_size, 10);
        shards.flush();
        assert_eq!(shards.site.stats().flushes, 1, "empty buffers do not flush");
    }

    #[test]
    fn the_time_trigger_is_probed_every_64_ops() {
        // An interval of zero has always run out, so each probe flushes:
        // ops 64, 128 and 192 of 200, never the count trigger.
        let shards = timed_map(1_000_000, Duration::ZERO, 1);
        for key in 0..200 {
            insert(&shards, key);
        }
        let stats = shards.site.stats();
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.total_ops, 192);
    }

    mod triggers {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The countdown sends to the triggers exactly the ops a recount
            /// after every op would: against that model, the same flushes
            /// carry the same ops, explicit flushes interleaved.
            #[test]
            fn flushes_match_a_recount_after_every_op(
                flush_ops in 1u64..300,
                probes_flush in 0u8..2,
                script in proptest::collection::vec(0u8..50, 1..1_500),
            ) {
                let interval = if probes_flush == 1 { Duration::ZERO } else { Duration::MAX };
                let shards = timed_map(flush_ops, interval, 1);
                let (mut held, mut published, mut flushes) = (0u64, 0u64, 0u64);
                for (key, &step) in script.iter().enumerate() {
                    if step == 0 {
                        shards.flush();
                    } else {
                        insert(&shards, key as u64);
                        held += 1;
                    }
                    let probe = probes_flush == 1 && held % 64 == 0;
                    if held > 0 && (step == 0 || held >= flush_ops || probe) {
                        (published, flushes, held) = (published + held, flushes + 1, 0);
                    }
                    let stats = shards.site.stats();
                    prop_assert_eq!((stats.flushes, stats.total_ops), (flushes, published));
                }
            }
        }
    }

    #[test]
    fn explicit_flush_retires_partial_buffers() {
        let shards = test_map(1_000_000, 4);
        for key in 0..5u64 {
            shards.op(OpKind::Contains, hash_one(&key), |m| m.contains_key(&key));
        }
        assert_eq!(shards.site.stats().total_ops, 0);
        shards.flush();
        let stats = shards.site.stats();
        assert_eq!(stats.total_ops, 5);
        assert_eq!(stats.ops[OpKind::Contains.index()], 5);
        // One flush per shard that held ops.
        let touched = (0..5u64)
            .map(|key| (hash_one(&key) >> 48) & shards.mask)
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(stats.flushes, touched.len() as u64);
    }

    #[test]
    fn residue_outlives_the_thread_and_the_last_drop_publishes_it() {
        let shards = Arc::new(test_map(1_000_000, 2));
        let site = Arc::clone(&shards.site);
        let worker = Arc::clone(&shards);
        std::thread::spawn(move || (0..17).for_each(|key| insert(&worker, key)))
            .join()
            .unwrap();
        // The ops live in the shards, not the exited thread.
        assert_eq!(site.stats().total_ops, 0);
        drop(shards);
        assert_eq!(site.stats().total_ops, 17);
    }

    #[test]
    fn interleaved_sites_on_one_thread_are_each_clocked() {
        // Default period, one op in 8 per shard before the first window.
        let runtime = crate::Runtime::new(Switch::builder().build());
        let a = runtime.named_concurrent_map::<u64, u64>(MapKind::Chained, "shard-a");
        let b = runtime.named_concurrent_map::<u64, u64>(MapKind::Chained, "shard-b");
        for k in 0..64 {
            a.insert(k, k);
            b.insert(k, k);
        }
        runtime.flush();
        for map in [a.id(), b.id()] {
            let stats = runtime.site_stats(map).expect("registered site");
            assert_eq!(stats.total_ops, 64);
            assert!(stats.sampled_nanos > 0, "site {map} was clocked");
        }
    }

    #[test]
    fn sampled_timing_accumulates_scaled_nanos() {
        let shards = test_map(4, 1);
        for key in 0..64 {
            shards.op(OpKind::Contains, hash_one(&key), |m| {
                std::hint::black_box((0..50).sum::<u64>());
                m.contains_key(&key)
            });
        }
        shards.flush();
        assert!(
            shards.site.stats().sampled_nanos > 0,
            "one op in 8 is clocked, so nanos must accumulate"
        );
    }

    #[test]
    fn a_shard_whose_kind_index_lags_takes_the_slow_path_and_migrates() {
        let shards = test_map(1_000_000, 1);
        for key in 0..70 {
            insert(&shards, key);
        }
        let chained = shards.core.current_index();
        {
            // The site has moved on to Chained while this shard still holds
            // Array, with its fast path otherwise open.
            let mut shard = shards.shards[0].lock();
            shard.data.migrate(MapKind::Array);
            shard.kind = MapKind::Array.index();
            shard.countdown = 64;
            shard.rec.arm(1_000, 1);
            assert!(!shard.rec.clock().fires_next());
        }
        insert(&shards, 70);
        let shard = shards.shards[0].lock();
        assert_eq!(shard.kind, chained);
        assert_eq!(shard.data.kind(), MapKind::Chained);
        assert_eq!(Variant::len(&shard.data), 71, "migration kept every entry");
        // The cut published the 70 ops recorded on the lagging variant to
        // the site's exact totals, not as an epoch.
        let stats = shards.site.stats();
        assert_eq!((stats.total_ops, stats.flushes), (70, 0));
        assert_eq!(shard.rec.total_ops(), 1);
    }

    #[test]
    fn a_shard_keeps_its_countdown_until_the_period_changes() {
        let shards = test_map(1_000_000, 1);
        let mut shard = shards.shards[0].lock();
        let period = shard.rec.clock().period();
        assert_eq!(period, shards.core.clock_period());
        // Seed 0 clocks the first op, then one in every period.
        assert!(shard.rec.tick());
        shard.rec.arm(period, 0);
        assert!((1..period).all(|_| !shard.rec.tick()), "countdown kept");
        assert!(shard.rec.tick());
        shard.rec.arm(1, 0);
        assert!(shard.rec.tick() && shard.rec.tick(), "re-armed at P = 1");
    }
}
