//! Wall-clock sampling shared by every monitored op path.
//!
//! Two `Instant::now()` calls cost more than many of the ops they bracket,
//! so neither monitored core handles nor runtime sites clock every op. Each
//! recorder owns a [`ClockSampler`]: a countdown that splits *its own* op
//! stream into blocks of `P` ops and clocks one op in each block, the caller
//! scaling that op's nanos by `P`. The phase of the clocked op within its
//! block comes from a seed, so recorders seeded with consecutive values (the
//! slots of one monitoring window) cover every phase, and fewer than `P` of
//! them still spread over the whole period: each op is clocked with
//! probability exactly `1/P`, whatever else runs on the thread, and the
//! scaled sum is an unbiased estimate of the stream's wall time. Only the
//! clock is sampled: op counts, sizes and allocation attribution are
//! recorded on every op by the callers.
//!
//! A sampler may also back off: it starts at a period `P0` and doubles the
//! period after every 32 clocked ops, up to a ceiling. A new period opens
//! at the end of the current block with a fresh phase from the same seed,
//! so block boundaries do not depend on the seed, every op is still
//! clocked with probability exactly 1/(its block's period), and scaling
//! each clocked op by its own block's period keeps the sum unbiased. With
//! no ceiling, a stream of `L` ops clocks about `32·log2(1 + L/(32·P0))`
//! ops instead of `L/P0`, which is what a window whose op volume is not
//! known in advance needs.

/// Clocked ops a backing-off sampler spends at one period before doubling
/// it.
const CLOCKS_PER_LEVEL: u32 = 32;

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

/// The phase of `seed` within `period`: `seed × step mod period`.
fn phase(period: u64, seed: u64) -> u64 {
    let step = phase_step(period);
    match seed.checked_mul(step) {
        Some(product) => product % period,
        None => (u128::from(seed) * u128::from(step) % u128::from(period)) as u64,
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
///
/// // Backing off from 8 with no ceiling, 20,000 ops clock at most 200.
/// let mut s = ClockSampler::backoff(8, u64::MAX, 3);
/// assert!((0..20_000).filter(|_| s.tick()).count() <= 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSampler {
    /// Length of the current block: the scale of the op last clocked.
    period: u64,
    ceiling: u64,
    countdown: u64,
    seed: u64,
    /// Clocked ops left at this period; 0 once the next clocked op opens
    /// the doubled period.
    level_left: u32,
}

impl ClockSampler {
    /// A sampler clocking one op in `period` (`0` is treated as `1`, every
    /// op). The first clocked op is op `1 + phase`, the phase in
    /// `[0, period)` derived from `seed`.
    pub fn new(period: u64, seed: u64) -> Self {
        Self::backoff(period, period, seed)
    }

    /// A sampler starting at period `start` (`0` is treated as `1`) that
    /// doubles its period after every 32 clocked ops until it reaches
    /// `ceiling` (`u64::MAX` for none; a ceiling below `start` reads as
    /// `start`, which is [`ClockSampler::new`]'s fixed schedule). Each
    /// period opens at the end of the previous period's last block, with a
    /// phase derived from `seed` as `new` derives it.
    pub fn backoff(start: u64, ceiling: u64, seed: u64) -> Self {
        let period = start.max(1);
        ClockSampler {
            period,
            ceiling: ceiling.max(period),
            countdown: phase(period, seed) + 1,
            seed,
            level_left: CLOCKS_PER_LEVEL,
        }
    }

    /// Advances past one op and returns whether that op reads the clock.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            if self.period == self.ceiling {
                self.countdown = self.period;
            } else {
                self.back_off();
            }
            true
        } else {
            false
        }
    }

    /// Whether the next [`tick`](Self::tick) clocks its op.
    #[inline]
    pub fn fires_next(&self) -> bool {
        self.countdown == 1
    }

    /// Schedules the next clocked op of a sampler below its ceiling: one
    /// period on, or, after the level's last clocked op, the fresh phase of
    /// the doubled period counted from the end of this block.
    #[inline(never)]
    fn back_off(&mut self) {
        if self.level_left == 0 {
            // This op opens the period the level's last op scheduled.
            self.period = self.next_period();
            self.level_left = CLOCKS_PER_LEVEL;
        }
        self.level_left -= 1;
        self.countdown = if self.level_left > 0 {
            self.period
        } else {
            let next = self.next_period();
            (self.period - phase(self.period, self.seed)).saturating_add(phase(next, self.seed))
        };
    }

    fn next_period(&self) -> u64 {
        self.period.saturating_mul(2).min(self.ceiling)
    }

    /// Ops each clocked op stands for: the length of the block the last
    /// clocked op fell in (before the first, the starting period), the
    /// factor its nanos are scaled by.
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
    fn backing_off_keeps_the_scaled_sum_exact_over_a_cycle_of_seeds() {
        // Block boundaries do not depend on the seed, and as many
        // consecutive seeds as the lcm of the level periods take every
        // phase of every level equally often. Scaling each clocked op by
        // its own block's period, their sums add up to seeds × L exactly.
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        const LEN: usize = 20_000;
        for (start, ceiling) in [(8u64, 64u64), (8, 195), (3, 40), (8, 4_096), (1, 8)] {
            let mut seeds = start;
            let mut period = start;
            while period < ceiling {
                period = (2 * period).min(ceiling);
                seeds = seeds / gcd(seeds, period) * period;
            }
            // scaled[i]: the scales of op i summed over the seeds.
            let mut scaled = vec![0u64; LEN];
            for seed in 40..40 + seeds {
                let mut s = ClockSampler::backoff(start, ceiling, seed);
                for at in scaled.iter_mut() {
                    if s.tick() {
                        *at += s.period();
                    }
                }
            }
            let mut sum = 0;
            for (len, at) in scaled.iter().enumerate() {
                assert_eq!(sum, seeds * len as u64, "P0={start} Pmax={ceiling} L={len}");
                sum += at;
            }
            assert_eq!(sum, seeds * LEN as u64, "P0={start} Pmax={ceiling} L={LEN}");
        }
    }

    #[test]
    fn each_period_clocks_one_op_per_block_at_its_own_phase() {
        for seed in 0..50 {
            let mut s = ClockSampler::backoff(3, 40, seed);
            let (mut period, mut level_start, mut in_level) = (3, 0, 0);
            for op in 0..6_000u64 {
                if !s.tick() {
                    continue;
                }
                if in_level == 32 && period < 40 {
                    level_start += 32 * period;
                    period = (2 * period).min(40);
                    in_level = 0;
                }
                in_level += 1;
                assert_eq!(s.period(), period, "seed {seed} op {op}");
                let block = (op - level_start) / period;
                assert_eq!(block, in_level - 1, "one clocked op per block");
                assert_eq!((op - level_start) % period, phase(period, seed));
            }
            assert_eq!(period, 40, "the ceiling is reached and kept");
        }
    }

    #[test]
    fn backing_off_from_8_clocks_at_most_200_of_20_000_ops() {
        for seed in 0..64 {
            let n = clocked(ClockSampler::backoff(8, u64::MAX, seed), 20_000);
            assert!(n <= 200, "seed {seed}: {n} clocked");
        }
        assert_eq!(clocked(ClockSampler::new(8, 0), 20_000), 2_500);
    }

    #[test]
    fn a_ceiling_at_or_below_the_start_is_the_fixed_schedule() {
        for seed in 0..20 {
            for period in [1u64, 3, 8, 195] {
                let fixed = ClockSampler::new(period, seed);
                assert_eq!(ClockSampler::backoff(period, period, seed), fixed);
                assert_eq!(ClockSampler::backoff(period, period / 2, seed), fixed);
                let (mut a, mut b) = (fixed, ClockSampler::backoff(period, 0, seed));
                assert!((0..5_000).all(|_| a.tick() == b.tick() && a.period() == period));
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

    #[test]
    fn fires_next_predicts_every_tick() {
        for mut s in [ClockSampler::new(7, 3), ClockSampler::backoff(3, 40, 5)] {
            for op in 0..3_000 {
                let predicted = s.fires_next();
                assert_eq!(s.tick(), predicted, "op {op}");
            }
        }
    }
}
