//! Seeded search over [`SocAggregate`]: any order, any partition merged
//! back and any add/remove history must give the bits a fold of the same
//! values from scratch gives, and the mean must stay within its stated
//! bound of a reference. Then the engine side: [`FleetEngine::stats`]
//! must not depend on the shard or worker count.

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{
    CellConfig, CellId, FleetConfig, FleetEngine, FleetStats, SocAggregate, Telemetry,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

/// Every field of a summary, bit-exact.
fn bits(stats: &FleetStats) -> [u64; 5] {
    [
        stats.cells as u64,
        stats.reporting as u64,
        stats.mean_soc.to_bits(),
        stats.min_soc.to_bits(),
        stats.max_soc.to_bits(),
    ]
}

/// A value from a pool heavy in edge cases: ±0, 1, subnormals, NaN,
/// out-of-range values, and a few repeated interior values (so min and max
/// are often held by several cells).
fn value(rng: &mut StdRng) -> f64 {
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        f64::MIN_POSITIVE,
        0.25,
        0.75,
        -0.5,
        1.5,
        f64::NAN,
        0.5,
    ];
    match rng.gen_range(0..4) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        // Subnormals.
        1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        _ => rng.gen::<f64>(),
    }
}

fn values(rng: &mut StdRng, nan: bool) -> Vec<f64> {
    let len = rng.gen_range(0..200);
    (0..len)
        .map(|_| value(rng))
        .filter(|v| nan || !v.is_nan())
        .collect()
}

#[test]
fn permuted_inputs_give_identical_bits() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut socs = values(&mut rng, seed % 4 == 0);
        let whole = SocAggregate::fold(socs.iter().copied());
        let expected = bits(&whole.finish(socs.len() + 3));
        for _ in 0..8 {
            socs.shuffle(&mut rng);
            let again = SocAggregate::fold(socs.iter().copied());
            assert_eq!(again, whole, "seed {seed}");
            assert_eq!(bits(&again.finish(socs.len() + 3)), expected, "seed {seed}");
        }
    }
}

#[test]
fn signed_zeros_and_nan_have_one_meaning() {
    let stats = |socs: &[f64]| bits(&FleetStats::fold(socs.len(), socs.iter().copied()));
    assert_eq!(stats(&[-0.0, 0.0]), stats(&[0.0, -0.0]));
    assert_eq!(stats(&[-0.0])[3], 0.0f64.to_bits(), "−0 reads as +0");
    let with_nan = FleetStats::fold(3, [0.2, f64::NAN, 0.6]);
    assert!(with_nan.mean_soc.is_nan());
    assert_eq!((with_nan.min_soc, with_nan.max_soc), (0.2, 0.6));
    let all_nan = FleetStats::fold(2, [f64::NAN, f64::NAN]);
    assert_eq!(all_nan.reporting, 2);
    assert!(all_nan.mean_soc.is_nan() && all_nan.min_soc.is_nan() && all_nan.max_soc.is_nan());
    // Uncounting NaNs in one step leaves what a fold without them gives.
    let mut placeheld = SocAggregate::fold([f64::NAN, 0.2, f64::NAN, 0.6, f64::NAN]);
    placeheld.remove_nans(3);
    assert_eq!(placeheld, SocAggregate::fold([0.2, 0.6]));
    let none = FleetStats::fold(4, []);
    assert_eq!(bits(&none), [4, 0, 0, 0, 0]);
}

#[test]
fn out_of_range_values_count_as_clamped() {
    let clamped = FleetStats::fold(3, [-0.5, 1.5, 0.25]);
    let inside = FleetStats::fold(3, [0.0, 1.0, 0.25]);
    assert_eq!(bits(&clamped), bits(&inside));
    assert_eq!((clamped.min_soc, clamped.max_soc), (0.0, 1.0));
    // Removing 1.5 takes away one copy of the max, 1.0.
    let mut aggregate = SocAggregate::fold([1.5, 0.25, 1.0]);
    aggregate.remove(1.5);
    assert_eq!(aggregate, SocAggregate::fold([0.25, 1.0]));
}

#[test]
fn merging_any_partition_equals_folding_the_whole() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let socs = values(&mut rng, seed % 3 == 0);
        let whole = SocAggregate::fold(socs.iter().copied());
        let parts = rng.gen_range(1..9);
        let mut partials = vec![Vec::new(); parts];
        for &soc in &socs {
            partials[rng.gen_range(0..parts)].push(soc);
        }
        let mut partials: Vec<SocAggregate> = partials
            .iter()
            .map(|part| SocAggregate::fold(part.iter().copied()))
            .collect();
        partials.shuffle(&mut rng);
        let mut merged = SocAggregate::EMPTY;
        for partial in &partials {
            merged.merge(partial);
        }
        assert_eq!(merged, whole, "seed {seed}");
        assert_eq!(
            bits(&merged.finish(9)),
            bits(&whole.finish(9)),
            "seed {seed}"
        );
    }
}

/// Adds and removes values, often taking every copy of the min or the max.
/// Exactness may be lost only by such a removal, and whenever the
/// aggregate is exact it equals a fold of the values left. A lost extreme
/// stays lost for a while; rescanning the values left, with NaN
/// placeholders among them, or adding back the value whose last copy went
/// must restore it.
#[test]
fn add_remove_histories_equal_a_fold_from_scratch() {
    let (mut lost, mut restored, mut rescanned) = (0, 0, 0);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let mut socs: Vec<f64> = Vec::new();
        let mut aggregate = SocAggregate::EMPTY;
        // The extreme whose last copy went, while the aggregate is not exact.
        let mut gone = f64::NAN;
        for _ in 0..400 {
            let before = FleetStats::fold(0, socs.iter().copied());
            let was_exact = aggregate.is_exact();
            if socs.is_empty() || rng.gen_bool(0.45) {
                let soc = if !was_exact && rng.gen_bool(0.3) {
                    gone
                } else {
                    value(&mut rng)
                };
                socs.push(soc);
                aggregate.add(soc);
                restored += usize::from(!was_exact && aggregate.is_exact());
            } else {
                // Take the min or the max one copy at a time, or any value.
                let target = match rng.gen_range(0..3) {
                    0 => Some(before.min_soc),
                    1 => Some(before.max_soc),
                    _ => None,
                };
                let at = target
                    .and_then(|t| socs.iter().position(|&s| s.clamp(0.0, 1.0) == t))
                    .unwrap_or_else(|| rng.gen_range(0..socs.len()));
                let soc = socs.swap_remove(at);
                aggregate.remove(soc);
                if was_exact && !aggregate.is_exact() {
                    lost += 1;
                    gone = soc.clamp(0.0, 1.0);
                    assert!(
                        [before.min_soc, before.max_soc].contains(&gone),
                        "seed {seed}: only the last copy of an extreme loses it"
                    );
                }
            }
            let fold = SocAggregate::fold(socs.iter().copied());
            assert_eq!(aggregate.reporting(), fold.reporting(), "seed {seed}");
            if aggregate.is_exact() {
                assert_eq!(aggregate, fold, "seed {seed}");
                assert_eq!(bits(&aggregate.finish(7)), bits(&fold.finish(7)));
            } else if rng.gen_bool(0.2) {
                let mut column = socs.clone();
                column.extend([f64::NAN; 3]);
                column.shuffle(&mut rng);
                aggregate.rescan_extremes(column);
                assert_eq!(aggregate, fold, "seed {seed}");
                rescanned += 1;
            }
        }
    }
    assert!(
        lost > 1_000,
        "the search must take every copy of an extreme often ({lost})"
    );
    assert!(
        restored > 300,
        "and restore lost extremes by adding ({restored})"
    );
    assert!(rescanned > 300, "and by rescanning ({rescanned})");
}

/// Neumaier-compensated sum: within 2⁻⁵² · Σ of the exact sum for
/// non-negative inputs of this size.
fn compensated_sum(socs: &[f64]) -> f64 {
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for &x in socs {
        let t = sum + x;
        carry += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + carry
}

/// `SocAggregate::finish` states `|mean − μ| ≤ 2⁻⁵² + 2⁻⁵¹ · μ`; the
/// reference mean is itself within 2⁻⁵¹ · μ of μ.
#[test]
fn mean_stays_within_its_bound_of_a_reference() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        let mut socs: Vec<f64> = values(&mut rng, false)
            .into_iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect();
        // Long runs too, where a float sum's error would grow.
        socs.extend((0..rng.gen_range(0..5_000)).map(|_| rng.gen::<f64>()));
        if socs.is_empty() {
            continue;
        }
        let stats = FleetStats::fold(socs.len(), socs.iter().copied());
        let reference = compensated_sum(&socs) / socs.len() as f64;
        let bound = 2f64.powi(-52) + 2f64.powi(-50) * reference;
        assert!(
            (stats.mean_soc - reference).abs() <= bound,
            "seed {seed}: mean {} vs reference {reference}",
            stats.mean_soc
        );
        let min = socs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = socs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(
            stats.min_soc.to_bits(),
            (min + 0.0).to_bits(),
            "seed {seed}"
        );
        assert_eq!(
            stats.max_soc.to_bits(),
            (max + 0.0).to_bits(),
            "seed {seed}"
        );
    }
}

/// The same history fed to engines of every shard and worker count gives
/// bit-identical stats, tick after tick, with some cells never reporting.
#[test]
fn engine_stats_are_bit_identical_across_shards_and_workers() {
    let topologies = [1, 3, 8]
        .into_iter()
        .flat_map(|shards| [0, 2].map(|workers| (shards, workers)));
    let runs: Vec<Vec<[u64; 5]>> = topologies
        .map(|(shards, workers)| {
            let mut engine = FleetEngine::new(
                untrained_model(),
                FleetConfig {
                    shards,
                    micro_batch: 16,
                    workers,
                    ..FleetConfig::default()
                },
            );
            let cells: CellId = 300;
            for id in 0..cells {
                engine.register(
                    id,
                    CellConfig {
                        initial_soc: 0.2 + 0.7 * ((id % 11) as f64 / 10.0),
                        capacity_ah: 2.5,
                    },
                );
            }
            let mut rng = StdRng::seed_from_u64(4_000);
            (1..=12)
                .map(|tick| {
                    // Ids ≥ 280 never report.
                    for _ in 0..rng.gen_range(1..400) {
                        let id = rng.gen_range(0..280);
                        engine.ingest(
                            id,
                            Telemetry {
                                time_s: f64::from(tick) + id as f64 * 1e-4,
                                voltage_v: rng.gen_range(3.0..4.2),
                                current_a: rng.gen_range(-3.0..6.0),
                                temperature_c: rng.gen_range(5.0..40.0),
                            },
                        );
                    }
                    engine.process_pending();
                    bits(&engine.stats())
                })
                .collect()
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run, &runs[0]);
    }
    let last = runs[0].last().expect("ticks ran");
    assert_eq!(last[..2], [300, 280]);
    assert_ne!(last[3], last[4], "the SoCs must spread");
}
