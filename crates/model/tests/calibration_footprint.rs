//! The energy-proxy calibration's footprint. This binary installs an
//! allocator that tracks live and peak live heap bytes, and holds one test
//! so that its `calibrated_weights()` call is the process's first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAlloc;

impl PeakAlloc {
    fn grow(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // A moving realloc holds both blocks for a moment.
            Self::grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        moved
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

#[test]
fn first_calibration_peaks_at_most_64_kib_live() {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let weights = cs_model::calibrated_weights();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert!(peak <= 64 * 1024, "calibration peaked at {peak} B live");
    assert!((0.05..=20.0).contains(&weights.time_weight), "{weights:?}");
    assert!((0.005..=5.0).contains(&weights.alloc_weight), "{weights:?}");
}
