//! The counting fast path: per-thread, cache-padded heap counters.
//!
//! Every allocator event lands on a [`ThreadCounters`] block owned by the
//! calling thread. The block's fields are atomics only so *other* threads
//! may read them (the process account, a snapshot); the owner is the sole
//! writer and uses plain relaxed load+store pairs — the cache line stays in
//! the owner's cache and the hot path performs zero shared writes, the same
//! owner-only idiom as the cs-trace span rings.
//!
//! Registration (the once-per-thread cold path) is the only place a lock is
//! taken or memory is allocated. Because registration itself allocates
//! (an `Arc`, a `Vec` push) *inside* the allocator, a thread-local re-entry
//! flag routes those nested events — and any event arriving while the
//! thread's TLS is being torn down — to a process-global [`ORPHAN`] block,
//! so the process account stays exact: it is, by construction, the sum of
//! every thread block plus the orphan block.
//!
//! The `no-alloc-in-heap-count-path` analyzer lint pins the fast-path items
//! in this file (and the guards in [`guard`](crate::guard)) allocation- and
//! lock-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One thread's heap counters, padded to a cache line so two threads'
/// blocks never share one (the "zero shared writes" guarantee is physical,
/// not just logical).
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct ThreadCounters {
    pub alloc_count: AtomicU64,
    pub alloc_bytes: AtomicU64,
    pub dealloc_count: AtomicU64,
    pub dealloc_bytes: AtomicU64,
    pub realloc_count: AtomicU64,
    pub realloc_bytes: AtomicU64,
    /// Set when the owning thread exits; the block stays registered (its
    /// counts must keep contributing to the process account) but the
    /// live-thread gauge stops counting it.
    pub retired: AtomicBool,
}

impl ThreadCounters {
    /// Owner-only add: plain load+store, no RMW instruction. Safe because
    /// each block has exactly one writer (its owning thread, or — for the
    /// orphan block — writers serialized per event by the x86/ARM store
    /// itself being a single count that may race only against other orphan
    /// writers, see [`orphan_add`]).
    #[inline]
    fn add(&self, counter: &AtomicU64, n: u64) {
        let _ = self;
        counter.store(
            counter.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

/// Registry of every thread block ever created. Blocks are never removed:
/// an exited thread's history is part of the process account.
fn registry() -> &'static Mutex<Vec<Arc<ThreadCounters>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadCounters>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Catch-all for events that cannot reach a thread block: nested events
/// fired by registration itself, and events during TLS teardown. Unlike
/// thread blocks this one *is* shared, so it uses real `fetch_add`s —
/// acceptable because it only sees cold-path traffic.
static ORPHAN: ThreadCounters = ThreadCounters {
    alloc_count: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
    dealloc_count: AtomicU64::new(0),
    dealloc_bytes: AtomicU64::new(0),
    realloc_count: AtomicU64::new(0),
    realloc_bytes: AtomicU64::new(0),
    retired: AtomicBool::new(false),
};

/// Whether any [`CountingAlloc`](crate::CountingAlloc) traffic has ever
/// been observed (set once, on the first thread registration).
static ACTIVE: AtomicBool = AtomicBool::new(false);

struct Registered(Arc<ThreadCounters>);

impl Drop for Registered {
    fn drop(&mut self) {
        self.0.retired.store(true, Ordering::Relaxed);
    }
}

thread_local! {
    /// This thread's block, once registered. `Option` + manual init (not
    /// `LazyCell`) so the fast path is a plain borrow check.
    static LOCAL: std::cell::RefCell<Option<Registered>> = const { std::cell::RefCell::new(None) };
    /// Re-entry flag: true while this thread is inside registration, so the
    /// allocations registration performs route to [`ORPHAN`] instead of
    /// recursing forever.
    static REGISTERING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[derive(Clone, Copy)]
pub(crate) enum Event {
    Alloc,
    Dealloc,
    Realloc,
}

/// Records one allocator event of `bytes` for the calling thread. This is
/// THE fast path: one TLS access and one relaxed load+store pair per
/// counter when the thread is registered.
#[inline]
pub(crate) fn note(event: Event, bytes: u64) {
    let hit = LOCAL.try_with(|slot| {
        if let Ok(borrow) = slot.try_borrow() {
            if let Some(reg) = borrow.as_ref() {
                apply(&reg.0, event, bytes);
                return true;
            }
        }
        false
    });
    if hit == Ok(true) {
        return;
    }
    note_slow(event, bytes);
}

#[inline]
fn apply(c: &ThreadCounters, event: Event, bytes: u64) {
    match event {
        Event::Alloc => {
            c.add(&c.alloc_count, 1);
            c.add(&c.alloc_bytes, bytes);
        }
        Event::Dealloc => {
            c.add(&c.dealloc_count, 1);
            c.add(&c.dealloc_bytes, bytes);
        }
        Event::Realloc => {
            c.add(&c.realloc_count, 1);
            c.add(&c.realloc_bytes, bytes);
        }
    }
}

/// Registers a counter block for the calling thread. Must run with the
/// `LOCAL` key alive; returns `false` when re-entered (registration's own
/// allocations) so the caller falls back to the orphan block.
fn register(slot: &std::cell::RefCell<Option<Registered>>) -> bool {
    if slot.borrow().is_some() {
        return true;
    }
    if REGISTERING.with(|r| r.get()) {
        return false;
    }
    REGISTERING.with(|r| r.set(true));
    // These two allocations recurse into `note`, hit the flag above, and
    // land on ORPHAN — bounded, by construction.
    let block = Arc::new(ThreadCounters::default());
    registry()
        .lock()
        .expect("heap registry poisoned")
        .push(Arc::clone(&block));
    *slot.borrow_mut() = Some(Registered(block));
    REGISTERING.with(|r| r.set(false));
    true
}

/// Cold path: first event on a thread (register a block, then count on
/// it), an event fired *by* registration, or an event after TLS teardown.
#[cold]
fn note_slow(event: Event, bytes: u64) {
    // Reaching any note path at all means a CountingAlloc is installed and
    // routing traffic here (`register` alone — via `pin_thread` — does not
    // flip this, so an uncounted process stays inactive).
    ACTIVE.store(true, Ordering::Relaxed);
    let registered = LOCAL.try_with(register);
    match registered {
        Ok(true) => {
            // Registration succeeded; the triggering event counts on the
            // fresh block.
            let _ = LOCAL.try_with(|slot| {
                if let Some(reg) = slot.borrow().as_ref() {
                    apply(&reg.0, event, bytes);
                }
            });
        }
        _ => orphan_add(event, bytes),
    }
}

fn orphan_add(event: Event, bytes: u64) {
    match event {
        Event::Alloc => {
            ORPHAN.alloc_count.fetch_add(1, Ordering::Relaxed);
            ORPHAN.alloc_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        Event::Dealloc => {
            ORPHAN.dealloc_count.fetch_add(1, Ordering::Relaxed);
            ORPHAN.dealloc_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        Event::Realloc => {
            ORPHAN.realloc_count.fetch_add(1, Ordering::Relaxed);
            ORPHAN.realloc_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of one heap ledger — a thread's, the orphan
/// block's, or the whole process's (see [`HeapAccount::delta_since`]).
///
/// The ledger convention: `alloc_*` counts every allocation event
/// *including* the allocating half of a `realloc`; `dealloc_*` counts every
/// free including the freeing half of a `realloc`; `realloc_*` counts
/// realloc events separately (bytes = requested new sizes) as an
/// informational churn measure. `alloc_bytes - dealloc_bytes` is therefore
/// exactly the live heap delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapAccount {
    /// Allocation events (alloc, alloc_zeroed, and realloc's new block).
    pub alloc_count: u64,
    /// Bytes requested by those allocation events.
    pub alloc_bytes: u64,
    /// Free events (dealloc, and realloc's old block).
    pub dealloc_count: u64,
    /// Bytes released by those free events.
    pub dealloc_bytes: u64,
    /// Realloc events (also counted in `alloc_*`/`dealloc_*`).
    pub realloc_count: u64,
    /// Bytes requested as realloc new sizes.
    pub realloc_bytes: u64,
}

impl HeapAccount {
    fn read(c: &ThreadCounters) -> HeapAccount {
        HeapAccount {
            alloc_count: c.alloc_count.load(Ordering::Relaxed),
            alloc_bytes: c.alloc_bytes.load(Ordering::Relaxed),
            dealloc_count: c.dealloc_count.load(Ordering::Relaxed),
            dealloc_bytes: c.dealloc_bytes.load(Ordering::Relaxed),
            realloc_count: c.realloc_count.load(Ordering::Relaxed),
            realloc_bytes: c.realloc_bytes.load(Ordering::Relaxed),
        }
    }

    fn add(&mut self, other: &HeapAccount) {
        self.alloc_count = self.alloc_count.wrapping_add(other.alloc_count);
        self.alloc_bytes = self.alloc_bytes.wrapping_add(other.alloc_bytes);
        self.dealloc_count = self.dealloc_count.wrapping_add(other.dealloc_count);
        self.dealloc_bytes = self.dealloc_bytes.wrapping_add(other.dealloc_bytes);
        self.realloc_count = self.realloc_count.wrapping_add(other.realloc_count);
        self.realloc_bytes = self.realloc_bytes.wrapping_add(other.realloc_bytes);
    }

    /// Bytes currently live according to this ledger
    /// (`alloc_bytes - dealloc_bytes`, saturating: a windowed delta may
    /// free more than it allocated).
    pub fn live_bytes(&self) -> u64 {
        self.alloc_bytes.saturating_sub(self.dealloc_bytes)
    }

    /// The ledger's growth since an earlier snapshot of the same ledger.
    pub fn delta_since(&self, earlier: &HeapAccount) -> HeapAccount {
        HeapAccount {
            alloc_count: self.alloc_count.wrapping_sub(earlier.alloc_count),
            alloc_bytes: self.alloc_bytes.wrapping_sub(earlier.alloc_bytes),
            dealloc_count: self.dealloc_count.wrapping_sub(earlier.dealloc_count),
            dealloc_bytes: self.dealloc_bytes.wrapping_sub(earlier.dealloc_bytes),
            realloc_count: self.realloc_count.wrapping_sub(earlier.realloc_count),
            realloc_bytes: self.realloc_bytes.wrapping_sub(earlier.realloc_bytes),
        }
    }
}

/// The process-wide heap account: the exact sum of every thread block ever
/// registered plus the orphan block. Identity the exactness tests lean on:
/// this is literally the same counters the per-thread snapshots read, so
/// `process = Σ threads + orphan` holds bit-for-bit at any quiescent point.
pub fn process_account() -> HeapAccount {
    let mut total = HeapAccount::read(&ORPHAN);
    for block in registry().lock().expect("heap registry poisoned").iter() {
        total.add(&HeapAccount::read(block));
    }
    total
}

/// The orphan ledger alone: events that could not be attributed to a
/// registered thread (registration's own allocations, TLS-teardown
/// stragglers). Exactness harnesses subtract this from the process delta.
pub fn orphan_account() -> HeapAccount {
    HeapAccount::read(&ORPHAN)
}

/// The calling thread's own ledger (zeros before its first counted event).
/// This is the read the attribution guards build deltas from, so it must
/// stay allocation-free.
pub fn thread_account() -> HeapAccount {
    LOCAL
        .try_with(|slot| match slot.try_borrow().ok().as_deref() {
            Some(Some(reg)) => HeapAccount::read(&reg.0),
            _ => HeapAccount::default(),
        })
        .unwrap_or_default()
}

/// Number of thread blocks ever registered (exited threads included) and
/// how many belong to still-live threads, as `(total, live)`.
pub fn thread_blocks() -> (usize, usize) {
    let reg = registry().lock().expect("heap registry poisoned");
    let live = reg
        .iter()
        .filter(|b| !b.retired.load(Ordering::Relaxed))
        .count();
    (reg.len(), live)
}

/// Whether a [`CountingAlloc`](crate::CountingAlloc) has observed any
/// traffic in this process. `false` means every counter and guard delta
/// will read zero — callers can skip exporting dead metrics.
#[inline]
pub fn counting_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Ensures the calling thread's counter block exists, so a measurement
/// window opened right after never has this thread's registration bytes
/// counted as workload (they land on the orphan ledger either way, but
/// pinning up front keeps them out of the window entirely). Harmless and
/// cheap when already registered; registers nothing when no
/// [`CountingAlloc`](crate::CountingAlloc) is installed — the block would
/// simply stay at zero, which is also fine.
pub fn pin_thread() {
    let _ = LOCAL.try_with(register);
}
