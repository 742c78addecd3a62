//! Timing and order statistics shared by the baseline bins.
//!
//! Every timed number in a `BENCH_*.json` comes through here, so each
//! statistic has one definition:
//!
//! - [`upper_median`] is `sorted[len / 2]`: the upper of the two middle
//!   samples on even lengths, never an average.
//! - [`samples`] makes one untimed warm-up call, then times `reps` calls;
//!   [`median_time`] and [`min_time`] reduce those samples.
//! - [`interleaved`] alternates two measured sides round for round, so
//!   load drift on a shared host biases neither side.

use std::time::Instant;

/// Seconds per call of `f` over `reps` timed calls, after one untimed
/// warm-up call.
pub fn samples(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Upper median of [`samples`]: seconds per call of `f`.
pub fn median_time(reps: usize, f: impl FnMut()) -> f64 {
    upper_median(&mut samples(reps, f))
}

/// Minimum of [`samples`]: seconds per call of `f`. The minimum, not the
/// median, for kernel microbenches: shared hosts show long contended
/// stretches that shift the median run to run, while the fastest observed
/// call converges on the uncontended speed a kernel contract is about.
pub fn min_time(reps: usize, f: impl FnMut()) -> f64 {
    samples(reps, f).into_iter().fold(f64::INFINITY, f64::min)
}

/// Sorts `samples` ascending in place and returns `samples[len / 2]`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn upper_median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Calls `a(round)` then `b(round)` for rounds `0..=reps`, and returns
/// each side's results for rounds `1..=reps`: round 0 is a warm-up of
/// both sides whose results are dropped.
pub fn interleaved<A, B>(
    reps: usize,
    mut a: impl FnMut(usize) -> A,
    mut b: impl FnMut(usize) -> B,
) -> (Vec<A>, Vec<B>) {
    a(0);
    b(0);
    (1..=reps).map(|round| (a(round), b(round))).unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_median_takes_the_upper_middle_sample() {
        assert_eq!(upper_median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(upper_median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(upper_median(&mut [7.0]), 7.0);
    }

    #[test]
    fn upper_median_leaves_the_samples_sorted() {
        let mut samples = [3.0, 1.0, 2.0, 0.5];
        upper_median(&mut samples);
        assert_eq!(samples, [0.5, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn samples_drop_one_warm_up_call() {
        let mut calls = 0;
        let timed = samples(5, || calls += 1);
        assert_eq!(calls, 6);
        assert_eq!(timed.len(), 5);
        assert!(timed.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn warm_up_call_is_excluded_from_the_statistics() {
        // The first call sleeps far longer than the rest; neither the
        // median nor the minimum may see it.
        let slow_first = || {
            let mut first = true;
            move || {
                if first {
                    first = false;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            }
        };
        assert!(median_time(1, slow_first()) < 0.05);
        assert!(min_time(3, slow_first()) < 0.05);
    }

    #[test]
    fn min_time_is_the_fastest_sample() {
        let mut call = 0;
        let min = min_time(4, || {
            // Call 0 is the warm-up; timed calls 1..=4 sleep 100, 5, 100,
            // 100 ms.
            let ms = [0, 100, 5, 100, 100][call];
            call += 1;
            std::thread::sleep(std::time::Duration::from_millis(ms));
        });
        assert!((0.005..0.1).contains(&min), "min {min}");
    }

    #[test]
    fn interleaved_alternates_after_a_shared_warm_up() {
        let log = std::cell::RefCell::new(Vec::new());
        let (a, b) = interleaved(
            3,
            |round| {
                log.borrow_mut().push(('a', round));
                round * 10
            },
            |round| {
                log.borrow_mut().push(('b', round));
                round * 100
            },
        );
        assert_eq!(a, [10, 20, 30]);
        assert_eq!(b, [100, 200, 300]);
        let order: Vec<char> = log.into_inner().iter().map(|&(side, _)| side).collect();
        assert_eq!(order, ['a', 'b', 'a', 'b', 'a', 'b', 'a', 'b']);
    }
}
