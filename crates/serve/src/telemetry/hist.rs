//! Fixed-bucket log-linear latency histograms with atomic buckets.
//!
//! The hot path pays two relaxed `fetch_add`s per observation — one bucket
//! increment and one running-sum update — with zero allocation and no
//! locks. Bucket boundaries are log-linear: each power-of-two octave is
//! split into `SUBS` equal sub-buckets, so relative error is bounded by
//! `1/SUBS` (25%) everywhere above the floor, which is plenty for p50/p99/
//! p999 over request latencies spanning microseconds to minutes.
//!
//! Layout: bucket 0 holds everything below `2^FLOOR_LOG2` ns (512 ns —
//! below the resolution anyone tunes against), then `OCTAVES` octaves ×
//! `SUBS` sub-buckets, then one overflow bucket. `2^(9+32)` ns ≈ 36.6
//! minutes, so the overflow bucket only catches pathologies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// log2 of the smallest resolvable value; bucket 0 is `[0, 2^FLOOR_LOG2)`.
const FLOOR_LOG2: u32 = 9;
/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 2;
/// Sub-buckets per power-of-two octave.
const SUBS: usize = 1 << SUB_BITS;
/// Octaves covered above the floor before overflow.
const OCTAVES: usize = 32;
/// Total bucket count: floor + octaves × subs + overflow.
pub const NBUCKETS: usize = 2 + OCTAVES * SUBS;

/// Maps a nanosecond value to its bucket index.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < (1u64 << FLOOR_LOG2) {
        return 0;
    }
    let lz = 63 - ns.leading_zeros();
    let octave = (lz - FLOOR_LOG2) as usize;
    let sub = ((ns >> (lz - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (1 + octave * SUBS + sub).min(NBUCKETS - 1)
}

/// Inclusive lower bound of a bucket, in nanoseconds.
pub fn bucket_floor(idx: usize) -> u64 {
    if idx == 0 {
        return 0;
    }
    let i = idx - 1;
    let base = 1u64 << (FLOOR_LOG2 as usize + i / SUBS);
    base + (i % SUBS) as u64 * (base >> SUB_BITS)
}

/// Exclusive upper bound of a bucket, in nanoseconds (overflow is
/// unbounded).
pub fn bucket_ceil(idx: usize) -> u64 {
    if idx >= NBUCKETS - 1 {
        return u64::MAX;
    }
    bucket_floor(idx + 1)
}

/// A latency histogram over nanoseconds with atomic fixed buckets.
pub struct LatencyHistogram {
    buckets: [AtomicU64; NBUCKETS],
    sum_ns: AtomicU64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count())
            .field("sum_ns", &snap.sum_ns)
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation. Two relaxed `fetch_add`s; no allocation.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one observation from a [`Duration`].
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Copies the counters out for percentile math off the hot path.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub counts: Vec<u64>,
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observation in nanoseconds, if any were recorded.
    pub fn mean_ns(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum_ns as f64 / n as f64)
    }

    /// Index of the bucket containing the `q`-quantile observation
    /// (nearest-rank), or `None` when empty.
    pub fn percentile_bucket(&self, q: f64) -> Option<usize> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        Some(self.counts.len() - 1)
    }

    /// `q`-quantile estimate in nanoseconds: the midpoint of the bucket the
    /// nearest-rank observation landed in (its floor for the overflow
    /// bucket). Error is bounded by the bucket width, i.e. 25% relative.
    pub fn percentile_ns(&self, q: f64) -> Option<f64> {
        let idx = self.percentile_bucket(q)?;
        let lo = bucket_floor(idx);
        if idx >= NBUCKETS - 1 {
            return Some(lo as f64);
        }
        Some((lo + bucket_ceil(idx)) as f64 / 2.0)
    }

    /// `q`-quantile estimate in milliseconds.
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        self.percentile_ns(q).map(|ns| ns / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        let mut prev = 0u64;
        for idx in 0..NBUCKETS {
            let lo = bucket_floor(idx);
            let hi = bucket_ceil(idx);
            assert!(lo < hi, "bucket {idx}: [{lo}, {hi})");
            if idx > 0 {
                assert_eq!(lo, prev, "bucket {idx} floor == bucket {} ceil", idx - 1);
            }
            prev = hi;
        }
        // Every bucket's own floor maps back to itself, and the value just
        // below the ceiling does too.
        for idx in 0..NBUCKETS - 1 {
            assert_eq!(bucket_of(bucket_floor(idx)), idx, "floor of {idx}");
            assert_eq!(bucket_of(bucket_ceil(idx) - 1), idx, "ceil-1 of {idx}");
        }
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn percentiles_land_in_the_exact_references_bucket() {
        // Log-uniform sample spanning sub-microsecond to tens of seconds.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let mut values: Vec<u64> = (0..5000)
            .map(|_| {
                let exp: f64 = rng.gen_range(2.0..10.5);
                10f64.powf(exp) as u64
            })
            .collect();
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record_ns(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), values.len() as u64);
        for q in [0.5, 0.9, 0.99, 0.999] {
            // Exact nearest-rank reference over the sorted sample.
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let idx = snap.percentile_bucket(q).unwrap();
            assert!(
                (bucket_floor(idx)..bucket_ceil(idx)).contains(&exact),
                "p{q}: exact {exact} outside bucket {idx} [{}, {})",
                bucket_floor(idx),
                bucket_ceil(idx),
            );
        }
    }

    #[test]
    fn empty_histogram_reports_none() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert!(snap.mean_ns().is_none());
        assert!(snap.percentile_ns(0.99).is_none());
    }

    #[test]
    fn mean_tracks_the_sum() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(30));
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.mean_ns(), Some(20_000.0));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Recording is monotone: adding observations never decreases
            /// any bucket count or the sum, and the counts always total n.
            /// (Values span the histogram's covered range — up to ~37
            /// minutes — so the running sum cannot wrap u64.)
            #[test]
            fn recording_is_monotone(values in proptest::collection::vec(0u64..1u64 << 41, 1..200)) {
                let h = LatencyHistogram::new();
                let mut prev = h.snapshot();
                for (n, &v) in values.iter().enumerate() {
                    h.record_ns(v);
                    let next = h.snapshot();
                    prop_assert!(next.sum_ns >= prev.sum_ns);
                    for (a, b) in prev.counts.iter().zip(&next.counts) {
                        prop_assert!(b >= a, "bucket count decreased");
                    }
                    prop_assert_eq!(next.count(), n as u64 + 1);
                    prev = next;
                }
            }

            /// Every value maps into a bucket whose bounds contain it.
            #[test]
            fn bucket_of_respects_bounds(ns in 0u64..u64::MAX) {
                let idx = bucket_of(ns);
                prop_assert!(idx < NBUCKETS);
                prop_assert!(ns >= bucket_floor(idx));
                if idx < NBUCKETS - 1 {
                    prop_assert!(ns < bucket_ceil(idx));
                }
            }
        }
    }
}
