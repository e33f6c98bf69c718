//! Multi-thread attribution exactness (ISSUE 8 satellite).
//!
//! Installs [`CountingAlloc`] for this test binary and stresses the
//! documented exactness identity under 4 threads: per-site guard deltas,
//! per-thread ledger deltas, and the process-global account must agree
//! exactly when all workload allocation happens inside guards.
//!
//! No libtest harness (`harness = false` in Cargo.toml): the identity
//! partitions the *entire* process account across threads this binary
//! spawned, and libtest's harness threads allocate at unpredictable
//! times inside the measurement window. A plain `main` owns every
//! thread in the process; a failed assertion still exits nonzero.

use std::sync::{Arc, Barrier};

use cs_heap::{
    orphan_account, pin_thread, process_account, thread_account, AllocGuard, CountingAlloc,
    HeapAccount,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const THREADS: usize = 4;
const SITES: usize = 3;
const ROUNDS: usize = 200;

/// Per-thread workload: ROUNDS rounds, each attributing a known-shape
/// allocation burst to each of SITES sites. Returns (per-site deltas,
/// thread gross churn delta).
///
/// After self-snapshotting, the worker parks on `measured` and stays
/// parked until `release`: thread teardown allocates (TLS destructors,
/// std exit machinery) into this thread's still-live block, so the main
/// thread must take its process-wide snapshot while every worker is
/// quiescent — barrier waits are allocation-free, a returning thread is
/// not.
fn worker(
    id: usize,
    measured: &Barrier,
    release: &Barrier,
) -> ([cs_heap::AllocDelta; SITES], HeapAccount) {
    pin_thread();
    let before = thread_account();
    let mut per_site = [cs_heap::AllocDelta::default(); SITES];
    for round in 0..ROUNDS {
        for (site, acc) in per_site.iter_mut().enumerate() {
            let g = AllocGuard::begin();
            // Deterministic churn, different per site/thread/round so no
            // two sites could pass by symmetric accident.
            let n = 16 + (site * 8) + (id * 4) + (round % 7);
            let v: Vec<u64> = (0..n as u64).collect();
            let s = format!("site-{site}-{id}-{}", v.len());
            std::hint::black_box((&v, &s));
            drop((v, s));
            let d = g.finish();
            acc.count += d.count;
            acc.bytes += d.bytes;
        }
    }
    let delta = thread_account().delta_since(&before);
    measured.wait();
    release.wait();
    (per_site, delta)
}

fn main() {
    // Quiesce: pin the main thread and snapshot the world.
    pin_thread();
    let process_before = process_account();
    let main_before = thread_account();
    let orphan_before = orphan_account();

    let barrier = Arc::new(Barrier::new(THREADS));
    // +1: the main thread participates, so it can snapshot the process
    // while every worker is parked between `measured` and `release` —
    // worker-exit allocations land outside the measurement window.
    let measured = Arc::new(Barrier::new(THREADS + 1));
    let release = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|id| {
            let barrier = Arc::clone(&barrier);
            let measured = Arc::clone(&measured);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                barrier.wait();
                worker(id, &measured, &release)
            })
        })
        .collect();
    measured.wait();

    let process_delta = process_account().delta_since(&process_before);
    let main_delta = thread_account().delta_since(&main_before);
    let orphan_delta = orphan_account().delta_since(&orphan_before);

    release.wait();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Identity 1 — per-thread partition: every thread's site-attributed
    // sum equals its gross ledger churn exactly (all workload allocation
    // happened inside guards, nothing leaked, nothing double-counted).
    let mut sites_total_bytes = 0u64;
    let mut sites_total_count = 0u64;
    let mut threads_churn_bytes = 0u64;
    let mut threads_churn_count = 0u64;
    for (id, (per_site, delta)) in results.iter().enumerate() {
        let site_bytes: u64 = per_site.iter().map(|d| d.bytes).sum();
        let site_count: u64 = per_site.iter().map(|d| d.count).sum();
        let churn_bytes = delta.alloc_bytes;
        let churn_count = delta.alloc_count;
        assert_eq!(
            site_bytes, churn_bytes,
            "thread {id}: attributed bytes != thread ledger churn"
        );
        assert_eq!(
            site_count, churn_count,
            "thread {id}: attributed events != thread ledger churn"
        );
        assert!(site_bytes > 0, "thread {id} must have allocated");
        sites_total_bytes += site_bytes;
        sites_total_count += site_count;
        threads_churn_bytes += churn_bytes;
        threads_churn_count += churn_count;
    }
    assert_eq!(sites_total_bytes, threads_churn_bytes);
    assert_eq!(sites_total_count, threads_churn_count);

    // Identity 2 — the process account is the sum of its parts: worker
    // ledgers + the main thread (spawn/join machinery allocates here) +
    // the orphan ledger (worker TLS registration, teardown stragglers).
    // Nothing else allocates in this single-test binary between the two
    // quiescent snapshots.
    let accounted_alloc_bytes = results.iter().map(|(_, d)| d.alloc_bytes).sum::<u64>()
        + main_delta.alloc_bytes
        + orphan_delta.alloc_bytes;
    assert_eq!(
        process_delta.alloc_bytes, accounted_alloc_bytes,
        "process alloc bytes must equal workers + main + orphan exactly"
    );
    let accounted_alloc_count = results.iter().map(|(_, d)| d.alloc_count).sum::<u64>()
        + main_delta.alloc_count
        + orphan_delta.alloc_count;
    assert_eq!(
        process_delta.alloc_count, accounted_alloc_count,
        "process alloc events must equal workers + main + orphan exactly"
    );

    // And the ledger is self-consistent: everything the workload allocated
    // and dropped was also freed somewhere in the process.
    assert!(process_delta.dealloc_count > 0);
}
