//! Tests for the `xdx-obs` observability core: concurrent recording,
//! shard-merge determinism, bucket boundary properties, sparse wire-form
//! round trips, and phase-trace accounting. The ascending-name contract of
//! the server's `Stats` rows is pinned where those rows are built, in
//! `tests/server_integration.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xml_data_exchange::obs::{
    bucket_lower, bucket_of, bucket_upper, Histogram, HistogramSnapshot, Trace, BUCKETS,
};

/// Concurrent recording into one histogram loses nothing: count and sum
/// are exact, min/max are the true extremes, and the buckets total the
/// record count.
#[test]
fn concurrent_records_are_all_counted() {
    let hist = Histogram::new();
    let threads = 8usize;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let hist = &hist;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                for _ in 0..per_thread {
                    hist.record(rng.gen_range(0..1u64 << 40));
                }
            });
        }
    });
    let snap = hist.snapshot();
    assert_eq!(snap.count, threads as u64 * per_thread);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    // Recompute the expected aggregate sequentially from the same seeds.
    let mut expect_sum = 0u64;
    let mut expect_min = u64::MAX;
    let mut expect_max = 0u64;
    for t in 0..threads {
        let mut rng = StdRng::seed_from_u64(t as u64);
        for _ in 0..per_thread {
            let v = rng.gen_range(0..1u64 << 40);
            expect_sum += v;
            expect_min = expect_min.min(v);
            expect_max = expect_max.max(v);
        }
    }
    assert_eq!(snap.sum, expect_sum);
    assert_eq!(snap.min, expect_min);
    assert_eq!(snap.max, expect_max);
}

/// Merging per-shard snapshots equals recording everything into one
/// histogram, and the merge is order-independent.
#[test]
fn shard_merge_is_deterministic() {
    let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
    let reference = Histogram::new();
    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..50_000u64 {
        let v = rng.gen_range(0..u64::MAX / 2);
        shards[(i % 4) as usize].record(v);
        reference.record(v);
    }
    let snaps: Vec<HistogramSnapshot> = shards.iter().map(Histogram::snapshot).collect();
    let mut forward = HistogramSnapshot::default();
    for s in &snaps {
        forward.merge(s);
    }
    let mut backward = HistogramSnapshot::default();
    for s in snaps.iter().rev() {
        backward.merge(s);
    }
    assert_eq!(forward, backward, "merge must be order-independent");
    assert_eq!(forward, reference.snapshot(), "merge must be lossless");
}

/// Sparse wire form round-trips losslessly.
#[test]
fn sparse_roundtrip_is_lossless() {
    let hist = Histogram::new();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..1000 {
        hist.record(rng.gen_range(0..1u64 << 50));
    }
    let snap = hist.snapshot();
    let back = HistogramSnapshot::from_sparse(
        snap.count,
        snap.sum,
        snap.min,
        snap.max,
        snap.nonzero_buckets(),
    );
    assert_eq!(snap, back);
}

/// Bucket totals from an untrusted peer may sum past `u64::MAX`: the
/// sparse rebuild and the percentile walk saturate instead of overflowing.
#[test]
fn sparse_rebuild_and_percentiles_saturate() {
    let snap = HistogramSnapshot::from_sparse(u64::MAX, 0, 1, 8, [(3, u64::MAX), (3, 5), (4, 9)]);
    assert_eq!(snap.buckets[3], u64::MAX);
    assert_eq!(snap.percentile(100.0), bucket_upper(3));
    let spread = HistogramSnapshot::from_sparse(u64::MAX, 0, 1, 8, [(1, u64::MAX - 1), (2, 7)]);
    assert_eq!(spread.p50(), bucket_upper(1));
    assert_eq!(spread.percentile(100.0), bucket_upper(2));
}

/// A trace charges every phase boundary and totals its phases.
#[test]
fn trace_phases_accumulate() {
    let mut t = Trace::new();
    std::thread::sleep(std::time::Duration::from_millis(2));
    t.step(0);
    std::thread::sleep(std::time::Duration::from_millis(1));
    t.step(1);
    t.step(0); // repeated phases accumulate
    t.add_ns(2, 500);
    assert!(t.phase_ns(0) >= 2_000_000);
    assert!(t.phase_ns(1) >= 1_000_000);
    assert_eq!(t.phase_ns(2), 500);
    assert_eq!(t.total_ns(), t.phase_ns(0) + t.phase_ns(1) + 500);
    assert!(t.wall_ns() >= t.phase_ns(0) + t.phase_ns(1));
}

proptest! {
    /// Every value lands in the bucket whose bounds contain it, and the
    /// bucket edges tile the `u64` range without gap or overlap.
    #[test]
    fn bucket_bounds_contain_their_values(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..256 {
            // Stress the boundaries: powers of two and their neighbors.
            let exp = rng.gen_range(0..64u32);
            let base = 1u64.checked_shl(exp).unwrap_or(0);
            let arbitrary = rng.gen_range(0..u64::MAX);
            for v in [
                base.saturating_sub(1),
                base,
                base.saturating_add(1),
                arbitrary,
            ] {
                let b = bucket_of(v);
                prop_assert!(b < BUCKETS);
                prop_assert!(bucket_lower(b) <= v, "lower({b}) > {v}");
                prop_assert!(v <= bucket_upper(b), "{v} > upper({b})");
                if b > 0 {
                    prop_assert_eq!(bucket_upper(b - 1) + 1, bucket_lower(b));
                }
            }
        }
    }

    /// Percentiles are ordered, bracketed by min/max, and p100 is exact.
    #[test]
    fn percentiles_are_ordered_and_bracketed(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hist = Histogram::new();
        let n = rng.gen_range(1..200usize);
        let mut max = 0u64;
        let mut min = u64::MAX;
        for _ in 0..n {
            let width = rng.gen_range(1..63u32);
            let v = rng.gen_range(0..1u64 << width);
            max = max.max(v);
            min = min.min(v);
            hist.record(v);
        }
        let snap = hist.snapshot();
        let (p50, p90, p99) = (snap.p50(), snap.p90(), snap.p99());
        prop_assert!(p50 <= p90 && p90 <= p99);
        prop_assert!(min <= p50, "p50 {p50} below min {min}");
        prop_assert!(p99 <= max, "p99 {p99} above max {max}");
        prop_assert_eq!(snap.percentile(100.0), max);
        prop_assert_eq!(snap.min, min);
        prop_assert_eq!(snap.max, max);
    }
}
