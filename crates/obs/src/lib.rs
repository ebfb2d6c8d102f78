//! # xdx-obs
//!
//! The dependency-free observability core shared by the engine, the store
//! and the serving front-end:
//!
//! * [`Histogram`] — a lock-free, alloc-free log₂-bucketed latency/size
//!   histogram (`[AtomicU64; 64]` buckets plus count/sum/min/max), safe to
//!   record into from any number of threads concurrently;
//! * [`HistogramSnapshot`] — a point-in-time copy with exact count/sum/
//!   min/max and estimated p50/p90/p99, mergeable across histograms (e.g.
//!   per-worker shards, or per-process scrapes on a router);
//! * [`Counter`] / [`Gauge`] — thin relaxed atomics;
//! * [`MetricRegistry`] — a fixed table of **static-name** metrics whose
//!   name ordering is asserted once at construction, so exporters can walk
//!   it without sorting or allocating per scrape;
//! * [`Trace`] — a per-request phase timer: a fixed array of phase
//!   durations advanced by [`Trace::step`], designed to ride through a
//!   request pipeline (decode → queue → … → flush) with one `Instant`
//!   read per phase boundary and zero allocation;
//! * [`prom`] — a Prometheus-style text exposition renderer.
//!
//! The memory-ordering argument for the lock-free histogram (and why the
//! recording path needs no sampling at current request rates) lives in
//! `crates/obs/DESIGN.md`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Log₂ histogram
// ---------------------------------------------------------------------------

/// Number of log₂ buckets. Bucket 0 holds the value 0; bucket `i` (for
/// `1 <= i <= 62`) holds `2^(i-1) ..= 2^i - 1`; bucket 63 holds everything
/// from `2^62` up. 64 buckets cover the full `u64` range, so a nanosecond
/// histogram spans sub-nanosecond to ~584 years without configuration.
pub const BUCKETS: usize = 64;

/// The bucket index `value` falls into.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Smallest value in bucket `i`.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value in bucket `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log₂-bucketed histogram.
///
/// [`Histogram::record`] is wait-free and allocation-free: one bucket
/// `fetch_add`, two accumulator `fetch_add`s and two `fetch_min`/`max`es,
/// all `Relaxed` (see `DESIGN.md` for why relaxed ordering is sufficient).
/// Any number of threads may record concurrently; [`Histogram::snapshot`]
/// may run concurrently with recording and observes each atom atomically
/// (a snapshot taken mid-record can be off by in-flight records, never
/// torn within one atom).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        // `const` construction so histograms can live in statics. The
        // interior-mutable const is exactly the repeat-initializer idiom
        // `[AtomicU64; N]` requires (each array element gets its own copy).
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Wait-free; callable from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records so far (exact; may trail concurrent `record`s).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: exact count/sum/min/max plus
/// the per-bucket counts, with percentile estimation and lossless merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total records.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket record counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Merge `other` into `self` (bucket-wise addition; min/max widen).
    /// Deterministic and commutative: merging per-worker or per-process
    /// snapshots in any order yields the same result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        // The live histogram's `fetch_add` wraps on overflow; wrap here too
        // so merging shards equals having recorded into one histogram even
        // when the sums are at the edge of `u64`.
        self.sum = self.sum.wrapping_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Estimated value at percentile `p` (0–100): the upper bound of the
    /// bucket containing the `ceil(p% · count)`-th record, clamped into
    /// `[min, max]` — so p100 is exact, and the estimate of any percentile
    /// is within one power of two of the true value.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            // Saturating: bucket totals decoded off the wire are untrusted.
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The non-empty buckets as `(index, count)` pairs — the sparse form
    /// wire encodings ship (latency histograms rarely span more than a
    /// dozen buckets).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u8, c))
    }

    /// Rebuild a snapshot from the sparse form. Out-of-range bucket
    /// indices are ignored (forward compatibility: a newer peer could
    /// conceivably grow the bucket count), and a repeated index adds up
    /// saturating, so hostile input cannot overflow a bucket.
    pub fn from_sparse(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        sparse: impl IntoIterator<Item = (u8, u64)>,
    ) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, c) in sparse {
            if let Some(slot) = buckets.get_mut(i as usize) {
                *slot = slot.saturating_add(c);
            }
        }
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A level that can move both ways, with a high-watermark helper.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the level to `v` if `v` is higher (high-watermark tracking).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

/// The unit a histogram's values are measured in (carried on the wire so
/// clients can format without a name convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Durations in nanoseconds.
    Nanos,
    /// Dimensionless counts (chase steps, assignments, …).
    Count,
    /// Sizes in bytes.
    Bytes,
}

impl Unit {
    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            Unit::Nanos => 0,
            Unit::Count => 1,
            Unit::Bytes => 2,
        }
    }

    /// Decode a wire tag (unknown tags read as [`Unit::Count`] — a unit is
    /// presentation metadata, never worth failing a frame over).
    pub fn from_tag(tag: u8) -> Unit {
        match tag {
            0 => Unit::Nanos,
            2 => Unit::Bytes,
            _ => Unit::Count,
        }
    }

    /// Short human suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Nanos => "ns",
            Unit::Count => "",
            Unit::Bytes => "B",
        }
    }
}

/// A fixed table of static-name metrics.
///
/// Names are given once, at construction, in strictly ascending order —
/// asserted **there**, not on every export (exporters used to re-sort and
/// `debug_assert` per call; moving the invariant to construction makes an
/// export a plain walk). Hot paths hold on to the index of the metric they
/// record into; name lookup is a binary search for cold paths only.
#[derive(Debug)]
pub struct MetricRegistry {
    counters: Box<[(&'static str, Counter)]>,
    gauges: Box<[(&'static str, Gauge)]>,
    histograms: Box<[(&'static str, Unit, Histogram)]>,
}

/// Assert strict ascending order once; the message names the offender.
fn assert_sorted(kind: &str, names: impl Iterator<Item = &'static str>) {
    let mut prev: Option<&'static str> = None;
    for name in names {
        if let Some(p) = prev {
            assert!(
                p < name,
                "{kind} names must be strictly ascending: {p:?} !< {name:?}"
            );
        }
        prev = Some(name);
    }
}

impl MetricRegistry {
    /// Build the table. Panics unless each name list is strictly ascending
    /// (this is the construction-time ordering assertion exporters rely
    /// on).
    pub fn new(
        counters: &[&'static str],
        gauges: &[&'static str],
        histograms: &[(&'static str, Unit)],
    ) -> MetricRegistry {
        assert_sorted("counter", counters.iter().copied());
        assert_sorted("gauge", gauges.iter().copied());
        assert_sorted("histogram", histograms.iter().map(|&(n, _)| n));
        MetricRegistry {
            counters: counters.iter().map(|&n| (n, Counter::new())).collect(),
            gauges: gauges.iter().map(|&n| (n, Gauge::new())).collect(),
            histograms: histograms
                .iter()
                .map(|&(n, u)| (n, u, Histogram::new()))
                .collect(),
        }
    }

    /// Counter by construction index.
    pub fn counter(&self, i: usize) -> &Counter {
        &self.counters[i].1
    }

    /// Gauge by construction index.
    pub fn gauge(&self, i: usize) -> &Gauge {
        &self.gauges[i].1
    }

    /// Histogram by construction index.
    pub fn histogram(&self, i: usize) -> &Histogram {
        &self.histograms[i].2
    }

    /// Counter index by name (cold-path lookup).
    pub fn counter_index(&self, name: &str) -> Option<usize> {
        self.counters.binary_search_by(|(n, _)| (*n).cmp(name)).ok()
    }

    /// Histogram index by name (cold-path lookup).
    pub fn histogram_index(&self, name: &str) -> Option<usize> {
        self.histograms
            .binary_search_by(|(n, _, _)| (*n).cmp(name))
            .ok()
    }

    /// `(name, value)` rows for every counter, in name order.
    pub fn counter_rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(n, c)| (*n, c.get()))
    }

    /// `(name, value)` rows for every gauge, in name order.
    pub fn gauge_rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(n, g)| (*n, g.get()))
    }

    /// `(name, unit, snapshot)` rows for every histogram, in name order.
    pub fn histogram_rows(
        &self,
    ) -> impl Iterator<Item = (&'static str, Unit, HistogramSnapshot)> + '_ {
        self.histograms
            .iter()
            .map(|(n, u, h)| (*n, *u, h.snapshot()))
    }
}

// ---------------------------------------------------------------------------
// Per-request trace
// ---------------------------------------------------------------------------

/// Maximum phases a [`Trace`] can hold. Fixed so a trace is one flat
/// allocation-free array; callers define their own phase indices (the
/// server uses 8 of these for decode → flush).
pub const MAX_PHASES: usize = 12;

/// A per-request phase timer.
///
/// A trace carries a start instant, a *mark* (the boundary of the phase
/// currently running) and one accumulated-nanoseconds slot per phase.
/// [`Trace::step`] charges everything since the mark to a phase and
/// advances the mark — one `Instant::now()` per phase boundary, nothing
/// else. A trace is `Send`, so it can ride a request through thread
/// handoffs (event loop → worker → event loop) and keep the queue/wake
/// latencies *inside* measured phases instead of between them.
#[derive(Debug, Clone)]
pub struct Trace {
    start: Instant,
    mark: Instant,
    ns: [u64; MAX_PHASES],
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Start a trace; the mark is now.
    pub fn new() -> Trace {
        let now = Instant::now();
        Trace {
            start: now,
            mark: now,
            ns: [0; MAX_PHASES],
        }
    }

    /// Charge the time since the mark to `phase` and advance the mark.
    /// Phases may be stepped repeatedly; durations accumulate.
    #[inline]
    pub fn step(&mut self, phase: usize) {
        let now = Instant::now();
        self.ns[phase] += u64::try_from((now - self.mark).as_nanos()).unwrap_or(u64::MAX);
        self.mark = now;
    }

    /// Advance the mark without charging anyone (discard a gap).
    #[inline]
    pub fn skip(&mut self) {
        self.mark = Instant::now();
    }

    /// Add externally measured nanoseconds to `phase` (does not move the
    /// mark).
    #[inline]
    pub fn add_ns(&mut self, phase: usize, ns: u64) {
        self.ns[phase] += ns;
    }

    /// Accumulated nanoseconds of `phase`.
    pub fn phase_ns(&self, phase: usize) -> u64 {
        self.ns[phase]
    }

    /// Sum of all charged phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Wall time since the trace started.
    pub fn wall_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

// ---------------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------------

/// Prometheus text-format rendering. Metric names have `.` replaced by
/// `_`; histograms render as the conventional `_bucket`/`_sum`/`_count`
/// triplet with cumulative `le` labels on the log₂ bucket upper bounds.
pub mod prom {
    use super::{bucket_upper, HistogramSnapshot, Unit, BUCKETS};
    use std::fmt::Write;

    /// `a.b-c` → `a_b_c` (Prometheus name charset).
    pub fn sanitize(name: &str) -> String {
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    }

    /// One `# TYPE … counter` + value line. Works for gauges too (the
    /// `gauge` flag only changes the TYPE line).
    pub fn scalar(out: &mut String, name: &str, value: u64, gauge: bool) {
        let name = sanitize(name);
        let kind = if gauge { "gauge" } else { "counter" };
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    }

    /// Render one histogram snapshot in Prometheus histogram convention.
    /// The unit is appended to the name (`…_ns`, `…_bytes`) so dashboards
    /// need no out-of-band unit table.
    pub fn histogram(out: &mut String, name: &str, unit: Unit, snap: &HistogramSnapshot) {
        let suffix = match unit {
            Unit::Nanos => "_ns",
            Unit::Count => "",
            Unit::Bytes => "_bytes",
        };
        let name = format!("{}{suffix}", sanitize(name));
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            if snap.buckets[i] == 0 {
                continue;
            }
            cumulative += snap.buckets[i];
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_upper(i)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "{name}_sum {}", snap.sum);
        let _ = writeln!(out, "{name}_count {}", snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_lower(i)), i);
            assert_eq!(bucket_of(bucket_upper(i)), i);
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1));
        }
    }

    #[test]
    fn record_snapshot_roundtrip() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 100, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_000_108 + 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn percentiles_are_within_one_bucket() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 of 1..=1000 is ~500; the estimate is its bucket's upper
        // bound (511), clamped into [1, 1000].
        assert_eq!(s.p50(), 511);
        assert_eq!(s.percentile(100.0), 1000);
        assert!(s.p99() >= 990 && s.p99() <= 1000);
        assert_eq!(HistogramSnapshot::default().p50(), 0);
    }

    #[test]
    fn merge_is_commutative_and_lossless() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 9, 27] {
            a.record(v);
        }
        for v in [1u64, 81, 243] {
            b.record(v);
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 6);
        assert_eq!(ab.sum, 364);
        assert_eq!(ab.min, 1);
        assert_eq!(ab.max, 243);
    }

    #[test]
    fn sparse_roundtrip() {
        let h = Histogram::new();
        for v in [5u64, 5, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        let back =
            HistogramSnapshot::from_sparse(s.count, s.sum, s.min, s.max, s.nonzero_buckets());
        assert_eq!(s, back);
    }

    #[test]
    fn registry_asserts_order_once() {
        let r = MetricRegistry::new(
            &["a.one", "b.two"],
            &[],
            &[("h.x", Unit::Nanos), ("h.y", Unit::Count)],
        );
        r.counter(0).inc();
        assert_eq!(r.counter_index("b.two"), Some(1));
        assert_eq!(r.histogram_index("h.y"), Some(1));
        assert_eq!(
            r.counter_rows().collect::<Vec<_>>(),
            vec![("a.one", 1), ("b.two", 0)]
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn registry_rejects_unsorted_names() {
        MetricRegistry::new(&["b", "a"], &[], &[]);
    }

    #[test]
    fn trace_steps_accumulate() {
        let mut t = Trace::new();
        std::thread::sleep(Duration::from_millis(2));
        t.step(0);
        std::thread::sleep(Duration::from_millis(2));
        t.step(1);
        t.add_ns(1, 5);
        assert!(t.phase_ns(0) >= 2_000_000);
        assert!(t.phase_ns(1) >= 2_000_005);
        assert!(t.total_ns() <= t.wall_ns());
    }

    #[test]
    fn prometheus_rendering_shape() {
        let h = Histogram::new();
        h.record(3);
        h.record(700);
        let mut out = String::new();
        prom::scalar(&mut out, "server.accepted_conns", 7, false);
        prom::histogram(&mut out, "req.solution.exec", Unit::Nanos, &h.snapshot());
        assert!(out.contains("# TYPE server_accepted_conns counter"));
        assert!(out.contains("server_accepted_conns 7"));
        assert!(out.contains("req_solution_exec_ns_bucket{le=\"3\"} 1"));
        assert!(out.contains("req_solution_exec_ns_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("req_solution_exec_ns_sum 703"));
        assert!(out.contains("req_solution_exec_ns_count 2"));
    }
}
