//! Allocation observability for CollectionSwitch (cs-heap).
//!
//! The paper selects collections on time and memory footprint; the
//! workspace's models also price *allocation churn* — but until this crate
//! nothing ever **observed** it. cs-heap closes the loop with three pieces,
//! all dependency-free:
//!
//! 1. [`CountingAlloc`] — a `#[global_allocator]` wrapper around
//!    [`std::alloc::System`] that counts every alloc/dealloc/realloc
//!    (events and bytes) on per-thread, cache-padded counters. The hot path
//!    performs zero shared writes; the process account is the exact sum of
//!    the per-thread ledgers (plus a cold-path orphan ledger). Opt-in:
//!    only binaries that *install* it pay for it — the library crates
//!    merely read counters, which are all zero otherwise.
//! 2. [`AllocGuard`] — scoped per-site attribution: the cs-runtime op path
//!    and the cs-core handle path bracket each monitored op so its
//!    `alloc_count`/`alloc_bytes` delta rides the flushed
//!    `WorkloadProfile` exactly like sampled wall time. Guards nest
//!    without double-counting (see the exclusion-ledger notes on
//!    [`AllocGuard`]).
//! 3. [`process_account`] / [`peak_rss_bytes`] — the process-level heap
//!    and RSS observables. The ledger is frozen into every flight-recorder
//!    incident (`heap`) and every sweep artifact (`process.account`), and
//!    cs-obs bands its allocation per sampler tick; peak RSS is scraped as
//!    `cs_process_peak_rss_bytes`.
//!
//! ## Installing the allocator (bench/test binaries only)
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc::new();
//! ```
//!
//! ## Attribution exactness
//!
//! While counting is active, every op of a monitored handle and of a
//! runtime shard runs inside an [`AllocGuard`], so attribution is exact:
//! the sum of per-site attributed bytes over any quiescent window equals
//! the sum of the participating threads' ledger deltas, provided all
//! allocation on those threads happens inside guards; and the process
//! account equals Σ thread ledgers + orphan ledger bit-for-bit at any
//! quiescent point. `BENCH_alloc.json`'s CI gate asserts it;
//! `tests/exactness.rs` stresses it under 4 threads.

#![deny(missing_docs)]

mod counters;
mod guard;

pub use counters::{
    counting_active, orphan_account, pin_thread, process_account, thread_account, thread_blocks,
    HeapAccount,
};
pub use guard::{AllocDelta, AllocGuard};

use std::alloc::{GlobalAlloc, Layout, System};

use counters::Event;

/// A counting wrapper around the system allocator. Install it with
/// `#[global_allocator]` in binaries that want heap observability; see the
/// crate docs. Zero-sized; all state lives in the per-thread ledgers.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Creates the allocator (const, for `static` installation).
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

// SAFETY: delegates every operation verbatim to `System` and only adds
// counter bookkeeping after the fact; layout contracts are untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            counters::note(Event::Alloc, layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            counters::note(Event::Alloc, layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        counters::note(Event::Dealloc, layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Ledger convention (see HeapAccount): a realloc is a free of
            // the old block plus an allocation of the new one, and is
            // additionally counted on the realloc ledger.
            counters::note(Event::Dealloc, layout.size() as u64);
            counters::note(Event::Alloc, new_size as u64);
            counters::note(Event::Realloc, new_size as u64);
        }
        new_ptr
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `0` where unavailable (non-Linux, restricted
/// procfs). A coarse, kernel-truth complement to the allocator ledgers:
/// RSS sees mapping reuse and fragmentation the byte counters cannot.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// How long this process has been alive.
///
/// On Linux this is kernel truth: the process start time from field 22 of
/// `/proc/self/stat` (clock ticks since boot) subtracted from
/// `/proc/uptime` — correct even for code that loads this crate long after
/// `main` started. Elsewhere (or under restricted procfs) it degrades to
/// time since this function was first called, which still yields a
/// monotone, strictly increasing uptime gauge.
pub fn process_uptime() -> std::time::Duration {
    #[cfg(target_os = "linux")]
    {
        if let Some(d) = proc_uptime() {
            return d;
        }
    }
    fallback_uptime()
}

#[cfg(target_os = "linux")]
fn proc_uptime() -> Option<std::time::Duration> {
    // /proc/uptime: "<seconds since boot> <idle seconds>".
    let boot_secs: f64 = std::fs::read_to_string("/proc/uptime")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    // /proc/self/stat field 22 (1-based) is starttime in clock ticks since
    // boot. The comm field (2) can contain spaces but is parenthesized, so
    // split after the last ')': field 22 overall is index 19 of the tail.
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let tail = &stat[stat.rfind(')')? + 1..];
    let start_ticks: f64 = tail.split_whitespace().nth(19)?.parse().ok()?;
    // USER_HZ is fixed at 100 on every Linux ABI this repo targets; reading
    // it portably needs sysconf, which would drag in libc for one constant.
    let start_secs = start_ticks / 100.0;
    let up = boot_secs - start_secs;
    if up.is_finite() && up >= 0.0 {
        Some(std::time::Duration::from_secs_f64(up))
    } else {
        None
    }
}

fn fallback_uptime() -> std::time::Duration {
    use std::sync::OnceLock;
    static FIRST_SEEN: OnceLock<std::time::Instant> = OnceLock::new();
    FIRST_SEEN.get_or_init(std::time::Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_uptime_is_positive_and_monotone() {
        // Both /proc sources tick at 10ms granularity, so a freshly
        // started process can legitimately read zero — sample, wait past
        // a tick, and require the clock to have advanced.
        let a = process_uptime();
        std::thread::sleep(std::time::Duration::from_millis(25));
        let b = process_uptime();
        assert!(b > std::time::Duration::ZERO, "uptime must be positive");
        assert!(b > a, "uptime must advance: {a:?} -> {b:?}");
    }

    #[test]
    fn accounts_default_to_zero_without_installation() {
        // This test binary does NOT install CountingAlloc, so every ledger
        // read must degrade to zeros, never panic.
        assert_eq!(thread_account(), HeapAccount::default());
        assert!(!counting_active());
        let p = process_account();
        assert_eq!(p.alloc_bytes, 0);
        assert_eq!(p.live_bytes(), 0);
    }

    #[test]
    fn pin_thread_registers_a_block() {
        pin_thread();
        let (total, live) = thread_blocks();
        assert!(total >= 1, "pin registered a block");
        assert!(live >= 1);
        // Still zero traffic: registration does not invent events on the
        // thread ledger.
        assert_eq!(thread_account(), HeapAccount::default());
    }

    #[test]
    fn delta_arithmetic() {
        let a = HeapAccount {
            alloc_count: 10,
            alloc_bytes: 1000,
            dealloc_count: 4,
            dealloc_bytes: 400,
            realloc_count: 1,
            realloc_bytes: 64,
        };
        let b = HeapAccount {
            alloc_count: 4,
            alloc_bytes: 300,
            dealloc_count: 1,
            dealloc_bytes: 100,
            realloc_count: 0,
            realloc_bytes: 0,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.alloc_count, 6);
        assert_eq!(d.alloc_bytes, 700);
        assert_eq!(d.live_bytes(), 700 - 300);
        assert_eq!(a.live_bytes(), 600);
    }

    #[test]
    fn peak_rss_is_sane() {
        let rss = peak_rss_bytes();
        // On Linux this process certainly maps more than a megabyte; on
        // other platforms the helper degrades to 0.
        if cfg!(target_os = "linux") {
            assert!(rss > 1 << 20, "VmHWM parsed: {rss}");
        }
    }
}
