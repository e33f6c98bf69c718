//! Wall-clock sampling shared by every monitored op path.
//!
//! Two `Instant::now()` calls cost more than many of the ops they bracket,
//! so neither monitored core handles nor runtime sites clock every op. Each
//! recorder owns a [`ClockSampler`]: a countdown that clocks one op in every
//! `P` of *its own* op stream, the caller scaling that op's nanos by `P`.
//! The phase of the first clocked op comes from a seed, so recorders seeded
//! with consecutive values (the slots of one monitoring window) cover every
//! phase, and fewer than `P` of them still spread over the whole period:
//! each op is clocked with probability exactly `1/P`, whatever else
//! runs on the thread, and the scaled sum is an unbiased estimate of the
//! stream's wall time. Only the clock is sampled: op counts, sizes and
//! allocation attribution are recorded on every op by the callers.

/// `2^64 / φ`, the golden-ratio step of Fibonacci hashing.
const GOLDEN_STEP: u128 = 0x9E37_79B9_7F4A_7C15;

/// The step that scatters consecutive seeds over the phases of `period`:
/// `⌊period / φ⌋`, moved up to the first value coprime to `period`. Being
/// coprime, `period` consecutive seeds take every phase once. Being close to
/// `period / φ`, a run of fewer seeds (a window with fewer instances than
/// `period`) leaves near-even gaps over the whole period rather than
/// clocking only its first positions.
fn phase_step(period: u64) -> u64 {
    let mut step = ((u128::from(period) * GOLDEN_STEP) >> 64) as u64;
    while !coprime(step, period) {
        step += 1;
    }
    step
}

/// Whether `a` and `b` share no factor, by Stein's binary GCD: no division,
/// which matters because every monitored create builds a sampler.
fn coprime(a: u64, b: u64) -> bool {
    if a == 0 || b == 0 {
        return a | b == 1;
    }
    if (a | b) & 1 == 0 {
        return false;
    }
    let (mut a, mut b) = (a >> a.trailing_zeros(), b);
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a == 1;
        }
    }
}

/// A per-recorder countdown that decides which ops read the wall clock.
///
/// # Examples
///
/// ```
/// use cs_profile::ClockSampler;
///
/// // Eight samplers with consecutive seeds clock every phase once.
/// let clocked: u64 = (0..8)
///     .map(|seed| {
///         let mut s = ClockSampler::new(8, seed);
///         (0..64).filter(|_| s.tick()).count() as u64
///     })
///     .sum();
/// assert_eq!(clocked * 8, 8 * 64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ClockSampler {
    period: u64,
    countdown: u64,
}

impl ClockSampler {
    /// A sampler clocking one op in `period` (`0` is treated as `1`, every
    /// op). The first clocked op is op `1 + phase`, the phase in
    /// `[0, period)` derived from `seed`.
    pub fn new(period: u64, seed: u64) -> Self {
        let period = period.max(1);
        let step = phase_step(period);
        let phase = match seed.checked_mul(step) {
            Some(product) => product % period,
            None => (u128::from(seed) * u128::from(step) % u128::from(period)) as u64,
        };
        ClockSampler {
            period,
            countdown: phase + 1,
        }
    }

    /// Advances past one op and returns whether that op reads the clock.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.period;
            true
        } else {
            false
        }
    }

    /// Ops each clocked op stands for: the factor its nanos are scaled by.
    #[inline]
    pub fn period(&self) -> u64 {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ops clocked by one sampler over `ops` ops.
    fn clocked(mut s: ClockSampler, ops: u64) -> u64 {
        (0..ops).filter(|_| s.tick()).count() as u64
    }

    #[test]
    fn consecutive_seeds_clock_each_op_exactly_once_per_period() {
        // P samplers with consecutive seeds take every phase once, so
        // together they clock L ops of L: scaled by P, exactly P·L.
        for period in [1u64, 2, 3, 8, 82, 195, 1_000] {
            for ops in [0, 1, period - 1, period, 5 * period + 3] {
                let total: u64 = (0..period)
                    .map(|i| clocked(ClockSampler::new(period, 17 + i), ops))
                    .sum();
                assert_eq!(total * period, period * ops, "P={period} L={ops}");
            }
        }
    }

    #[test]
    fn binary_gcd_agrees_with_euclid() {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        for a in 0..200 {
            for b in 0..200 {
                assert_eq!(coprime(a, b), gcd(a, b) == 1, "a={a} b={b}");
            }
        }
        assert!(coprime(u64::MAX, u64::MAX - 1));
    }

    #[test]
    fn one_op_in_every_period_after_the_first() {
        for seed in 0..20 {
            let mut s = ClockSampler::new(8, seed);
            let at: Vec<u64> = (1..=40).filter(|_| s.tick()).collect();
            assert!((1..=8).contains(&at[0]), "first clocked op lands in [1, P]");
            assert!(at.windows(2).all(|w| w[1] - w[0] == 8));
        }
        assert_eq!(
            clocked(ClockSampler::new(1, 5), 9),
            9,
            "P = 1 clocks every op"
        );
        assert_eq!(clocked(ClockSampler::new(0, 5), 9), 9, "P = 0 reads as 1");
    }

    #[test]
    fn a_window_of_slots_spreads_its_phases_over_the_period() {
        // 100 slots, fewer than the period: their first clocked ops must
        // cover the whole period, and for every instance length L they
        // must clock within a few ops of the 100·L/P a uniform phase would.
        // Periods that divide 2^61 - 2, or are powers of two, are included:
        // a multiplier that is ±1 modulo them would not scatter at all.
        for period in [82u64, 105, 117, 128, 150, 155, 195, 256, 1_000, 4_096] {
            let mut firsts: Vec<u64> = (0..100)
                .map(|seed| {
                    let mut s = ClockSampler::new(period, seed);
                    (1..=period)
                        .find(|_| s.tick())
                        .expect("one clocked op per period")
                })
                .collect();
            firsts.sort_unstable();
            let widest_gap = firsts
                .windows(2)
                .map(|w| w[1] - w[0])
                .chain([firsts[0] + period - firsts[firsts.len() - 1]])
                .max()
                .expect("100 phases");
            assert!(
                widest_gap * 100 <= 5 * period,
                "P={period}: phases leave a gap of {widest_gap}"
            );
            // After its first clocked op, a sampler clocks one op per period
            // (`one_op_in_every_period_after_the_first`).
            for len in 1..=2 * period {
                let total: u64 = firsts
                    .iter()
                    .map(|&first| {
                        if len < first {
                            0
                        } else {
                            (len - first) / period + 1
                        }
                    })
                    .sum();
                let uniform = 100.0 * len as f64 / period as f64;
                assert!(
                    (total as f64 - uniform).abs() <= 4.0,
                    "P={period} L={len}: {total} clocked, uniform phases give {uniform:.1}"
                );
            }
        }
    }
}
