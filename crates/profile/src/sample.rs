//! Wall-clock sampling shared by every monitored op path.
//!
//! Two `Instant::now()` calls cost more than many of the ops they bracket,
//! so neither monitored core handles nor runtime sites clock every op. Each
//! thread keeps one op tick; an op reads the clock when the advanced tick
//! has its low bits (`mask`) clear, and the caller scales the measured nanos
//! by `mask + 1`, an unbiased estimate of the whole op stream's wall time.
//! Only the clock is sampled: op counts, sizes and allocation attribution
//! are recorded on every op by their callers.

use std::cell::Cell;

/// Default timing sample rate as a power of two: one monitored op in
/// `1 << CLOCK_SAMPLE_SHIFT` (8) reads the wall clock. Core handles always
/// use it; runtime sites start from it
/// (`RuntimeConfig::sample_shift`).
pub const CLOCK_SAMPLE_SHIFT: u32 = 3;

thread_local! {
    /// Per-thread monitored-op tick, used only for the sampling decision.
    static TICK: Cell<u64> = const { Cell::new(0) };
}

/// Advances the calling thread's op tick and returns whether this op is the
/// one in `mask + 1` that reads the wall clock. `mask` must be one less than
/// a power of two; `0` samples every op.
///
/// # Examples
///
/// ```
/// let sampled = (0..64).filter(|_| cs_profile::clock_sampled(7)).count();
/// assert_eq!(sampled, 8);
/// ```
#[inline]
pub fn clock_sampled(mask: u64) -> bool {
    TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v & mask == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_op_in_mask_plus_one_is_sampled() {
        // A fresh thread starts its tick at zero, so the count is exact.
        std::thread::spawn(|| {
            let mask = (1u64 << CLOCK_SAMPLE_SHIFT) - 1;
            let sampled: Vec<usize> = (0..32).filter(|_| clock_sampled(mask)).collect();
            assert_eq!(sampled, vec![7, 15, 23, 31]);
            assert!((0..5).all(|_| clock_sampled(0)), "mask 0 samples every op");
        })
        .join()
        .unwrap();
    }
}
