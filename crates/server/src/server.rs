//! The serving front-end: a single-threaded epoll event loop feeding a
//! worker pool that shares one compiled setting.
//!
//! ## Architecture
//!
//! ```text
//!                    ┌───────────── event-loop thread ─────────────┐
//!  TCP listener ──▶  │ accept / non-blocking read / frame parse /  │
//!  Unix listener ──▶ │ backpressure / non-blocking write           │
//!                    └───────┬───────────────────────▲─────────────┘
//!                       jobs │ (bounded queue)       │ completions + wake pipe
//!                    ┌───────▼───────────────────────┴─────────────┐
//!                    │ worker pool: N threads ×                    │
//!                    │   (the addressed setting's CompiledSetting, │
//!                    │    one ExchangeScratch each)                │
//!                    └─────────────────────────────────────────────┘
//! ```
//!
//! * The **event loop** owns every socket. It never parses documents or
//!   chases anything — it only moves bytes, frames, and verdicts.
//! * **Workers** decode documents/queries (the expensive parsing stays off
//!   the loop), run the exchange pipeline on the addressed setting's shared
//!   [`xdx_core::CompiledSetting`] (per-setting caches warm up once for all
//!   connections), and serialize responses *directly into the
//!   connection's write queue* in bounded segments (the private
//!   `ResponseWriter`, a [`ByteSink`] the `wire` layout functions write
//!   into): each sealed segment is handed to the loop as a ready-to-send
//!   frame, moved (never re-copied) into a per-connection segment queue and
//!   flushed with `writev`. An OK response longer than
//!   [`ServerConfig::chunk_bytes`] body bytes arrives as
//!   `STATUS_OK_PARTIAL` chunks of at most that size, so a huge solution
//!   neither pins its full size in worker memory nor head-of-line-blocks
//!   other connections' flushes.
//! * The **wake pipe** (a non-blocking Unix socketpair) lets workers and
//!   [`ServerControl::shutdown`] interrupt `epoll_wait`.
//!
//! ## Backpressure
//!
//! Admission control is enforced *before* work is queued, in the loop
//! thread, so saturation costs one branch, not a thread handoff:
//!
//! * **per-connection pipelining cap** ([`ServerConfig::max_inflight_per_conn`]):
//!   a connection may pipeline at most this many unanswered requests;
//! * **global in-flight budget** ([`ServerConfig::max_inflight_total`]):
//!   across all connections at most this many requests may sit in the job
//!   queue + workers.
//!
//! A request over either limit is answered immediately with a `Busy` frame
//! (its id echoed) and is **not** queued — the queue is bounded by
//! construction and memory stays flat under overload. On the write side,
//! a connection whose peer stops reading may buffer at most
//! [`ServerConfig::max_buffered_response_bytes`] of pending responses
//! before it is closed, so un-drained output is bounded too. Frames whose
//! announced length exceeds [`wire::MAX_FRAME_BYTES`] poison the
//! connection (error frame, flush, close), since the stream can no longer
//! be framed safely; merely malformed payloads only fail their own request.
//!
//! ## Metrics
//!
//! Every metric lives in one private `ServerStats`: counters are named
//! relaxed atomics, and the engine's chase work and the per-`(op,
//! setting)` request phases are lock-free histograms. One snapshot
//! function reads them all, writing each row's name beside the value it
//! reads and sorting each list once, and it takes the store lock once.
//! The `Stats` reply, [`StatsHandle::snapshot`] and, through either,
//! [`StatsSnapshot::render_prometheus`] all come from it, so a local dump
//! and a remote scrape render the same rows. Requests naming an unbound
//! setting id share one `unbound` phase key, so the phase table is bounded
//! by the binding cap.

use crate::client::StatsSnapshot;
use crate::registry::Registry;
use crate::sys::{Epoll, Event, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::transport::Duplex;
use crate::wire::{
    self, Codec, DecodeError, OpCode, RequestBody, RequestFrame, ResponseBody, ResponseFrame,
    WireDoc, WireError,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use xdx_core::cache::CacheKey;
use xdx_core::compiled::{CompiledSetting, ExchangeScratch};
use xdx_core::settext::setting_to_text;
use xdx_core::setting::DataExchangeSetting;
use xdx_core::solution::SolutionError;
use xdx_obs::{Histogram, Trace, Unit};
use xdx_patterns::parser::parse_query;
use xdx_patterns::plan::QueryPlan;
use xdx_patterns::query::UnionQuery;
use xdx_store::{decode_edits_exact, DocKey, DocStore, StoreConfig, StoreError};
use xdx_xmltree::binary::ByteSink;
use xdx_xmltree::XmlTree;

/// The server's resident store: documents plus version-tagged cached
/// [`DocAnswer`]s, serialized behind one mutex (ops hold it only for O(doc)
/// copies and bookkeeping — the chase itself runs unlocked).
type ServerStore = Mutex<DocStore<DocAnswer>>;

/// Maximum simultaneous connections; beyond it, new sockets are accepted and
/// immediately closed.
pub const MAX_CONNECTIONS: usize = 1024;

/// Cap on setting *bindings* (v3 registry), counting the pinned default
/// binding 0. `PutSetting` of a new id beyond it answers
/// [`wire::ErrorCode::SettingLimit`].
pub const MAX_SETTINGS: usize = 64;

/// Server tuning knobs; the defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads computing responses (0 = available parallelism).
    pub workers: usize,
    /// Per-connection pipelining cap: unanswered requests beyond this get
    /// `Busy`.
    pub max_inflight_per_conn: usize,
    /// Global in-flight budget across all connections: requests beyond this
    /// get `Busy`.
    pub max_inflight_total: usize,
    /// Per-connection cap on *buffered* (computed but unwritable) response
    /// bytes. A client that pipelines requests without ever reading its
    /// responses would otherwise grow the write buffer without bound —
    /// responses can legitimately exceed the request-frame cap. Crossing
    /// the cap closes the connection: the peer has stopped cooperating.
    pub max_buffered_response_bytes: usize,
    /// Segment size of OK responses: a worker seals and hands off a
    /// `STATUS_OK_PARTIAL` segment every time this many body bytes
    /// accumulate, so its peak serialization buffer — and the granularity
    /// at which other responses can interleave on the socket — is this,
    /// not the full response size. A response of at most this many body
    /// bytes is one `STATUS_OK` frame.
    pub chunk_bytes: usize,
    /// Directory of the resident document store (snapshot + WAL). `None`
    /// disables the store: every store op answers
    /// [`wire::ErrorCode::StoreDisabled`].
    pub store_dir: Option<PathBuf>,
    /// Admission cap on resident documents — `PutDoc` of a *new* id beyond
    /// it answers [`wire::ErrorCode::StoreFull`] (existing ids can always
    /// be overwritten). Ignored when the store is disabled.
    pub max_resident_docs: usize,
    /// Opportunistic checkpoint threshold: after a store mutation, the
    /// worker that still holds the store lock checkpoints (snapshot + WAL
    /// reset) if the WAL has grown past this many bytes — so a long-running
    /// server's WAL stays bounded by roughly this plus one record, instead
    /// of growing until clean shutdown. Ignored when the store is disabled.
    pub wal_checkpoint_bytes: u64,
    /// Cost budget of the compiled-setting LRU cache, in canonical
    /// setting-text bytes. Past it, least-recently-used artifacts are
    /// evicted (bindings, their text, and their stored documents survive;
    /// the next request recompiles).
    pub max_compiled_cost: u64,
    /// Close a connection with no unanswered requests, no pending output
    /// and no partial frame after this long without activity, so abandoned
    /// sockets cannot pin [`MAX_CONNECTIONS`] slots forever. `None` disables
    /// the check.
    pub idle_timeout: Option<Duration>,
    /// A started request frame must *complete* within this long of its
    /// first byte (the clock restarts whenever a whole frame is parsed,
    /// not on every byte) — a slow-loris peer dribbling one byte per
    /// second holds a connection slot for at most this, while a healthy
    /// pipelining client at any pace never has a partial frame older than
    /// one frame's transmission. `None` disables the check.
    pub read_progress_timeout: Option<Duration>,
    /// Log a rate-limited one-line phase breakdown (to stderr) for every
    /// fully flushed request whose wall time reaches this threshold, and
    /// count it in the `Stats` slow-request counter. `None` (the default)
    /// disables the log, and the counter stays 0.
    pub slow_request_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_inflight_per_conn: 32,
            max_inflight_total: 256,
            max_buffered_response_bytes: 64 * 1024 * 1024,
            chunk_bytes: 256 * 1024,
            store_dir: None,
            max_resident_docs: 1024,
            wal_checkpoint_bytes: xdx_xmltree::limits::DEFAULT_FRAME_BYTES as u64,
            max_compiled_cost: 64 * xdx_core::settext::MAX_SETTING_TEXT_BYTES as u64,
            idle_timeout: Some(Duration::from_secs(60)),
            read_progress_timeout: Some(Duration::from_secs(10)),
            slow_request_threshold: None,
        }
    }
}

/// Why a [`ServerConfig`] was rejected at construction
/// ([`ServerConfig::validate`], called by [`Server::bind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A limit that must be positive was zero.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// A limit beyond any sane deployment — almost certainly a typo
    /// (bytes where kilobytes were meant, etc.).
    TooLarge {
        /// The offending field.
        field: &'static str,
        /// The configured value.
        value: usize,
        /// The largest accepted value.
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero { field } => write!(f, "config: {field} must be positive"),
            ConfigError::TooLarge { field, value, max } => {
                write!(f, "config: {field} = {value} exceeds the maximum {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServerConfig {
    /// Reject zero and absurd limits before any socket is bound. A zero
    /// budget would deadlock admission (every request answered `Busy`
    /// forever); an absurd one is a typo that would defeat the memory
    /// bounds the budgets exist to enforce.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use xdx_xmltree::limits::MAX_DOCUMENT_BYTES;
        let positive: [(&'static str, usize); 4] = [
            ("max_inflight_per_conn", self.max_inflight_per_conn),
            ("max_inflight_total", self.max_inflight_total),
            ("chunk_bytes", self.chunk_bytes),
            (
                "max_compiled_cost",
                self.max_compiled_cost.min(usize::MAX as u64) as usize,
            ),
        ];
        for (field, value) in positive {
            if value == 0 {
                return Err(ConfigError::Zero { field });
            }
        }
        if self.max_buffered_response_bytes == 0 {
            return Err(ConfigError::Zero {
                field: "max_buffered_response_bytes",
            });
        }
        let capped: [(&'static str, usize, usize); 4] = [
            ("workers", self.workers, 4096),
            ("max_inflight_per_conn", self.max_inflight_per_conn, 1 << 20),
            ("max_inflight_total", self.max_inflight_total, 1 << 20),
            ("chunk_bytes", self.chunk_bytes, MAX_DOCUMENT_BYTES),
        ];
        for (field, value, max) in capped {
            if value > max {
                return Err(ConfigError::TooLarge { field, value, max });
            }
        }
        if self.store_dir.is_some() && self.max_resident_docs == 0 {
            return Err(ConfigError::Zero {
                field: "max_resident_docs",
            });
        }
        if self.store_dir.is_some() && self.wal_checkpoint_bytes == 0 {
            return Err(ConfigError::Zero {
                field: "wal_checkpoint_bytes",
            });
        }
        // A zero deadline would reap every connection on its first tick;
        // "no deadline" is spelled `None`.
        if self.idle_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ConfigError::Zero {
                field: "idle_timeout",
            });
        }
        if self.read_progress_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ConfigError::Zero {
                field: "read_progress_timeout",
            });
        }
        // A zero threshold would log (and count) every request; "log
        // everything" is not a sane production setting and is almost
        // certainly a milliseconds-vs-nanoseconds typo.
        if self.slow_request_threshold.is_some_and(|t| t.is_zero()) {
            return Err(ConfigError::Zero {
                field: "slow_request_threshold",
            });
        }
        Ok(())
    }
}

/// Handle for stopping a running server from another thread.
#[derive(Debug)]
pub struct ServerControl {
    stop: AtomicBool,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    wake: Mutex<UnixStream>,
}

impl ServerControl {
    /// Ask the event loop to exit. Idempotent; safe from any thread.
    /// In-flight work is abandoned (connections close without their
    /// responses); prefer [`ServerControl::drain`] for a graceful exit.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.nudge();
    }

    /// Ask the server to drain and exit gracefully: stop accepting, answer
    /// every *new* request with [`wire::STATUS_GOAWAY`] (never starting
    /// work on it), flush the responses already in flight, and close each
    /// connection as it settles. Connections still unsettled `grace` from
    /// now are force-closed; then [`Server::run`] returns (checkpointing
    /// the store on the way out, as on any clean exit). Idempotent — the
    /// first call's deadline wins; safe from any thread.
    pub fn drain(&self, grace: Duration) {
        {
            let mut deadline = self.drain_deadline.lock().expect("drain deadline poisoned");
            if deadline.is_none() {
                *deadline = Some(Instant::now() + grace);
            }
        }
        self.draining.store(true, Ordering::SeqCst);
        self.nudge();
    }

    /// Has [`ServerControl::drain`] been called?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn drain_deadline(&self) -> Option<Instant> {
        if !self.is_draining() {
            return None;
        }
        *self.drain_deadline.lock().expect("drain deadline poisoned")
    }

    /// Wake the event loop without stopping it (used by workers after
    /// pushing a completion).
    fn nudge(&self) {
        if let Ok(mut wake) = self.wake.lock() {
            // A full pipe already guarantees a pending wake-up.
            let _ = wake.write(&[1]);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-request tracing and latency histograms
// ---------------------------------------------------------------------------

/// Phase indices of a request's [`Trace`] (slots of `Trace`'s fixed
/// array). The phases partition a request's wall time: every interval
/// from frame decode to final flush is charged to exactly one of them, so
/// the per-phase histogram sums reconstruct the total (the property
/// `tests/server_integration.rs` pins at ≥ 90%).
const PHASE_DECODE: usize = 0;
const PHASE_QUEUE: usize = 1;
const PHASE_RESOLVE: usize = 2;
const PHASE_PLAN: usize = 3;
const PHASE_EXEC: usize = 4;
const PHASE_STORE: usize = 5;
const PHASE_ENCODE: usize = 6;
const PHASE_FLUSH: usize = 7;

/// Wire/export names of the phases, indexed by the constants above.
const PHASE_NAMES: [&str; 8] = [
    "decode", "queue", "resolve", "plan", "exec", "store", "encode", "flush",
];

/// A request's trace plus the key it will be recorded under. Boxed on the
/// [`Job`]/[`Done`] handoffs and in the write queue, where only a
/// response's final segment carries one, so every other entry pays one
/// pointer, not the trace array.
struct ReqTrace {
    /// The op byte (key half one; [`OpCode::name`] at export time).
    op: u8,
    /// The addressed setting (key half two, when it is bound).
    setting: u64,
    trace: Trace,
}

/// The latency histograms of one `(op, setting)` key.
struct PhaseSet {
    /// One histogram per [`PHASE_NAMES`] entry, nanoseconds.
    phases: [Histogram; PHASE_NAMES.len()],
    /// Wall time decode-start → fully-flushed, nanoseconds.
    total: Histogram,
}

impl PhaseSet {
    const fn new() -> PhaseSet {
        // Repeat-initializer idiom: each array element gets its own copy.
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Histogram = Histogram::new();
        PhaseSet {
            phases: [H; PHASE_NAMES.len()],
            total: H,
        }
    }
}

/// The op byte and the setting a request's phases are recorded under; the
/// setting is `None` when its id was not bound.
type PhaseKey = (u8, Option<u64>);

/// Every metric the server keeps: the counters, the engine's per-request
/// chase work, the per-`(op, setting)` phase histograms and the
/// slow-request log's clock. Counters are relaxed atomics and histograms
/// are lock-free, so workers and the event loop record without locking.
/// [`ServerStats::snapshot`] is the one reader: the `Stats` reply, the
/// [`StatsHandle`] and the Prometheus text all come from it.
struct ServerStats {
    started: Instant,
    /// Connections accepted and registered (shed ones excluded).
    accepted_conns: AtomicU64,
    /// Requests answered `Busy` by admission control.
    busy_rejected: AtomicU64,
    /// Requests answered `GoAway` while draining.
    goaway_rejected: AtomicU64,
    /// Connections reaped by the idle deadline.
    reaped_idle: AtomicU64,
    /// Connections reaped by the read-progress (slow-loris) deadline.
    reaped_slow: AtomicU64,
    /// Highest simultaneous in-flight request count ever observed.
    inflight_highwater: AtomicU64,
    /// Stored-query answers served from the per-document result cache.
    store_cache_hits: AtomicU64,
    /// Stored-query answers that had to be computed.
    store_cache_misses: AtomicU64,
    /// Requests whose wall time reached
    /// [`ServerConfig::slow_request_threshold`].
    slow_requests: AtomicU64,
    /// Highest live-assignment count any worker's evaluation scratch ever
    /// reached ([`ExchangeScratch::assign_highwater`]) — the peak working
    /// set of pattern matching.
    assign_highwater: AtomicU64,
    /// Chase pops per request that ran the chase.
    chase_steps: Histogram,
    /// Chase repairs per request that ran the chase.
    chase_repairs: Histogram,
    /// Per-`(op, setting)` phase histograms, where the setting is `None`
    /// for every request whose id was not bound when it was retired. The
    /// map only ever grows, but bindings are capped and never removed, so
    /// it holds at most 18 ops × ([`MAX_SETTINGS`] + 1) entries; reads take
    /// the lock briefly to clone the `Arc`, records then run lock-free on
    /// the histograms themselves.
    phases: RwLock<HashMap<PhaseKey, Arc<PhaseSet>>>,
    /// Last slow-request line's timestamp (the ~1/sec rate limit).
    slow_log_last: Mutex<Option<Instant>>,
}

impl ServerStats {
    fn new() -> ServerStats {
        ServerStats {
            started: Instant::now(),
            accepted_conns: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            goaway_rejected: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            reaped_slow: AtomicU64::new(0),
            inflight_highwater: AtomicU64::new(0),
            store_cache_hits: AtomicU64::new(0),
            store_cache_misses: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            assign_highwater: AtomicU64::new(0),
            chase_steps: Histogram::new(),
            chase_repairs: Histogram::new(),
            phases: RwLock::new(HashMap::new()),
            slow_log_last: Mutex::new(None),
        }
    }

    /// Every counter and histogram row, each list ascending by name: the
    /// server's own metrics, the registry's compiled-cache counters and —
    /// when a store is mounted — the store's gauges and durability
    /// latencies, read under one store lock. Each row is named here, beside
    /// the value it reads; the sorts at the end establish the order the
    /// wire contract requires.
    fn snapshot(&self, registry: &Registry, store: Option<&ServerStore>) -> StatsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (artifact_hits, artifact_misses) = registry.artifact_counters();
        let mut counters = vec![
            ("engine.assign_highwater", load(&self.assign_highwater)),
            ("registry.artifact_hits", artifact_hits),
            ("registry.artifact_misses", artifact_misses),
            ("server.accepted_conns", load(&self.accepted_conns)),
            ("server.busy_rejected", load(&self.busy_rejected)),
            ("server.goaway_rejected", load(&self.goaway_rejected)),
            ("server.inflight_highwater", load(&self.inflight_highwater)),
            ("server.reaped_idle", load(&self.reaped_idle)),
            ("server.reaped_slow", load(&self.reaped_slow)),
            ("server.slow_requests", load(&self.slow_requests)),
            ("server.uptime_secs", self.started.elapsed().as_secs()),
        ];
        let mut histograms = vec![
            histogram_row("engine.chase_repairs", Unit::Count, &self.chase_repairs),
            histogram_row("engine.chase_steps", Unit::Count, &self.chase_steps),
        ];
        for (&(op, setting), set) in self.phases.read().expect("phase table poisoned").iter() {
            let op = OpCode::from_u8(op).map(OpCode::name).unwrap_or("unknown");
            let key = match setting {
                Some(id) => format!("req.{op}.s{id}"),
                None => format!("req.{op}.unbound"),
            };
            let rows = PHASE_NAMES.iter().zip(&set.phases);
            for (phase, histogram) in rows.chain([(&"total", &set.total)]) {
                if histogram.count() > 0 {
                    let name = format!("{key}.{phase}");
                    histograms.push(histogram_row(&name, Unit::Nanos, histogram));
                }
            }
        }
        if let Some(store) = store {
            let s = store.lock().expect("store poisoned");
            let m = s.metrics();
            counters.extend([
                ("store.cache_hits", load(&self.store_cache_hits)),
                ("store.cache_misses", load(&self.store_cache_misses)),
                ("store.degraded", s.is_degraded() as u64),
                ("store.replay_ns", m.replay_ns),
                ("store.replayed_records", m.replayed_records),
                ("store.resident_docs", s.len() as u64),
                ("store.resident_tree_bytes", s.resident_tree_bytes()),
                ("store.seq", s.seq()),
                ("store.wal_bytes", s.wal_len()),
                ("store.wal_rollbacks", s.wal_rollbacks()),
            ]);
            histograms.push(histogram_row(
                "store.checkpoint",
                Unit::Nanos,
                &m.checkpoint,
            ));
            histograms.push(histogram_row("store.fsync", Unit::Nanos, &m.fsync));
        }
        counters.sort_unstable_by_key(|&(name, _)| name);
        histograms.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        StatsSnapshot {
            counters: counters
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            histograms,
        }
    }

    /// The phase set of `(op, setting)`, creating it on first use.
    fn phase_set(&self, op: u8, setting: Option<u64>) -> Arc<PhaseSet> {
        if let Some(set) = self
            .phases
            .read()
            .expect("phase table poisoned")
            .get(&(op, setting))
        {
            return Arc::clone(set);
        }
        Arc::clone(
            self.phases
                .write()
                .expect("phase table poisoned")
                .entry((op, setting))
                .or_insert_with(|| Arc::new(PhaseSet::new())),
        )
    }

    /// May another slow-request line be emitted? Takes the token when yes.
    fn slow_log_permit(&self) -> bool {
        let mut last = self.slow_log_last.lock().expect("slow log clock poisoned");
        let now = Instant::now();
        match *last {
            Some(at) if now.duration_since(at) < Duration::from_secs(1) => false,
            _ => {
                *last = Some(now);
                true
            }
        }
    }
}

/// One [`wire::StatsHistogram`] row: a snapshot of `histogram` in sparse
/// form.
fn histogram_row(name: &str, unit: Unit, histogram: &Histogram) -> wire::StatsHistogram {
    let snap = histogram.snapshot();
    wire::StatsHistogram {
        name: name.to_string(),
        unit: unit.tag(),
        count: snap.count,
        sum: snap.sum,
        min: snap.min,
        max: snap.max,
        buckets: snap.nonzero_buckets().collect(),
    }
}

/// One unit of work: a decoded request owned by a connection generation.
/// Carries a snapshot of the connection's negotiated codec at dispatch
/// time, so a mid-pipeline `Hello` cannot change the shape of responses
/// already in flight.
struct Job {
    slot: usize,
    generation: u64,
    frame: RequestFrame,
    codec: Codec,
    /// The request's phase trace, running since frame decode; rides to the
    /// worker and back so queue/handoff latencies stay inside measured
    /// phases. Always `Some` until the worker's writer takes it.
    trace: Option<Box<ReqTrace>>,
}

/// One finished response *segment*, already framed (length prefix
/// included). A response is any number of `STATUS_OK_PARTIAL` segments
/// followed by its final segment (`last = true`). Only the last segment
/// releases the in-flight budget.
struct Done {
    slot: usize,
    generation: u64,
    bytes: Vec<u8>,
    last: bool,
    /// The request's trace, handed back with the *final* segment (its
    /// encode phase already stamped); the event loop finishes the flush
    /// phase when the segment leaves the socket.
    trace: Option<Box<ReqTrace>>,
}

/// State shared between the loop and the workers.
struct Shared {
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    done: Mutex<Vec<Done>>,
    workers_stop: AtomicBool,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
            done: Mutex::new(Vec::new()),
            workers_stop: AtomicBool::new(false),
        }
    }
}

struct Conn {
    stream: Duplex,
    generation: u64,
    /// Unparsed input; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Pending output as a queue of framed segments, moved (not copied)
    /// from worker completions; flushed with gathered writes. `wfront` is
    /// the written prefix of the front segment, `wq_bytes` the total bytes
    /// queued (including that prefix).
    wq: VecDeque<WqSeg>,
    wfront: usize,
    wq_bytes: usize,
    inflight: usize,
    /// Negotiated document codec (`Hello`); text until negotiated.
    codec: Codec,
    /// Poisoned: flush remaining output, then close. No more reads parsed.
    closing: bool,
    /// Is `EPOLLOUT` currently part of the registration?
    want_write: bool,
    /// The peer closed its write half (no more requests will arrive).
    peer_eof: bool,
    /// Last observed progress (bytes read, response queued, bytes
    /// written) — the idle deadline measures from here.
    last_activity: Instant,
    /// When the partial frame at the head of `rbuf` started. Restarted
    /// each time a whole frame completes, *not* on every arriving byte, so
    /// a drip-feeding peer cannot keep resetting the read-progress clock.
    partial_since: Option<Instant>,
}

/// One queued output segment: the framed bytes, plus — on a response's
/// final segment — the request's trace, finalized when the segment's last
/// byte leaves the socket (so the flush phase covers real sink latency,
/// not just queueing).
struct WqSeg {
    bytes: Vec<u8>,
    trace: Option<Box<ReqTrace>>,
}

const TOK_TCP: u64 = 0;
const TOK_UNIX: u64 = 1;
const TOK_WAKE: u64 = 2;
const TOK_CONN_BASE: u64 = 3;

/// Segments gathered into one `writev` call. Linux caps an iovec array at
/// `IOV_MAX` (1024); 32 covers deep response queues while keeping the
/// per-flush stack small.
const MAX_FLUSH_IOV: usize = 32;

/// The serving front-end, bound but not yet running. Construct with
/// [`Server::bind`], then call [`Server::run`] (typically on a dedicated
/// thread, with the [`ServerControl`] from [`Server::control`] kept for
/// shutdown).
pub struct Server {
    registry: Arc<Registry>,
    config: ServerConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    unix_path: Option<PathBuf>,
    control: Arc<ServerControl>,
    wake_rx: UnixStream,
    store: Option<Arc<ServerStore>>,
    stats: Arc<ServerStats>,
}

/// A read-only observability handle onto a (possibly running) server.
/// Cheap to clone; obtained from [`Server::stats_handle`] before `run`
/// consumes the server, and usable from any thread while it runs.
#[derive(Clone)]
pub struct StatsHandle {
    stats: Arc<ServerStats>,
    registry: Arc<Registry>,
    store: Option<Arc<ServerStore>>,
}

impl StatsHandle {
    /// The rows a `Stats` reply would carry right now. Render them with
    /// [`StatsSnapshot::render_prometheus`], as a remote scrape would.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(&self.registry, self.store.as_deref())
    }
}

impl Server {
    /// Bind listeners for `setting`. At least one of `tcp_addr` (e.g.
    /// `"127.0.0.1:0"`) and `unix_path` must be given; both may be. The
    /// Unix socket file must not exist yet and is removed again when
    /// [`Server::run`] returns.
    pub fn bind(
        setting: &DataExchangeSetting,
        tcp_addr: Option<&str>,
        unix_path: Option<&Path>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        if tcp_addr.is_none() && unix_path.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "bind at least one of a TCP address and a Unix socket path",
            ));
        }
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let store = config
            .store_dir
            .as_ref()
            .map(|dir| {
                let store_config = StoreConfig {
                    max_resident_docs: config.max_resident_docs,
                    ..StoreConfig::new(dir.clone())
                };
                DocStore::open(store_config)
                    .map(|s| Arc::new(Mutex::new(s)))
                    .map_err(|e| {
                        let message = e.to_string();
                        match e {
                            StoreError::Io(io) => io,
                            _ => io::Error::new(io::ErrorKind::InvalidData, message),
                        }
                    })
            })
            .transpose()?;
        let tcp = tcp_addr
            .map(|addr| {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok::<_, io::Error>(l)
            })
            .transpose()?;
        let unix = unix_path
            .map(|path| {
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok::<_, io::Error>(l)
            })
            .transpose()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        // The startup setting becomes the registry's pinned binding 0: every
        // request with setting id 0 runs against it.
        let registry = Arc::new(Registry::new(
            CompiledSetting::new_owned(Arc::new(setting.clone())),
            setting_to_text(setting),
            MAX_SETTINGS,
            config.max_compiled_cost,
        ));
        Ok(Server {
            registry,
            config: ServerConfig { workers, ..config },
            tcp,
            unix,
            unix_path: unix_path.map(Path::to_path_buf),
            control: Arc::new(ServerControl {
                stop: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                drain_deadline: Mutex::new(None),
                wake: Mutex::new(wake_tx),
            }),
            wake_rx,
            store,
            stats: Arc::new(ServerStats::new()),
        })
    }

    /// The shutdown handle.
    pub fn control(&self) -> Arc<ServerControl> {
        Arc::clone(&self.control)
    }

    /// An observability handle that outlives [`Server::run`].
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            stats: Arc::clone(&self.stats),
            registry: Arc::clone(&self.registry),
            store: self.store.clone(),
        }
    }

    /// The bound TCP address (useful after binding port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Run the event loop until [`ServerControl::shutdown`]. Spawns the
    /// worker pool as scoped threads; joins everything before returning.
    pub fn run(self) -> io::Result<()> {
        let Server {
            registry,
            config,
            tcp,
            unix,
            unix_path,
            control,
            wake_rx,
            store,
            stats,
        } = self;
        let shared = Arc::new(Shared::new());
        let registry = &registry;
        let store = &store;
        let stats = &stats;
        let result = std::thread::scope(|scope| {
            // The epoll instance is created *before* any worker spawns, so
            // an early `?` cannot leave workers waiting forever.
            let epoll = Epoll::new()?;
            let config = &config;
            for _ in 0..config.workers {
                let shared = Arc::clone(&shared);
                let control = Arc::clone(&control);
                scope.spawn(move || {
                    worker_loop(registry, store.as_deref(), stats, config, &shared, &control)
                });
            }
            let mut event_loop = EventLoop {
                config,
                tcp,
                unix,
                wake_rx,
                control: &control,
                shared: &shared,
                registry,
                stats,
                epoll,
                conns: Vec::new(),
                free_slots: Vec::new(),
                live_conns: 0,
                total_inflight: 0,
                next_generation: 0,
            };
            let result = event_loop.run();
            // Stop the pool: workers drain the remaining queue, then exit.
            shared.workers_stop.store(true, Ordering::SeqCst);
            shared.jobs_ready.notify_all();
            result
        });
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        // Best-effort checkpoint on clean shutdown: compacts the WAL so the
        // next open replays a snapshot instead of the whole edit history.
        if let Some(store) = store {
            if let Ok(mut guard) = store.lock() {
                let _ = guard.checkpoint();
            }
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(
    registry: &Registry,
    store: Option<&ServerStore>,
    stats: &ServerStats,
    config: &ServerConfig,
    shared: &Shared,
    control: &ServerControl,
) {
    let mut scratch = ExchangeScratch::new();
    loop {
        let mut job = {
            let mut jobs = shared.jobs.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if shared.workers_stop.load(Ordering::SeqCst) {
                    return;
                }
                jobs = shared.jobs_ready.wait(jobs).expect("job queue poisoned");
            }
        };
        // Taking the writer stamps the queue phase: everything between
        // frame decode and this pop — enqueue, wake, contention — was
        // queue wait.
        let mut writer = ResponseWriter::new(shared, control, config.chunk_bytes, &mut job);
        let setting_id = job.frame.setting_id;
        match job.frame.body {
            // Registry ops run here so compilation (potentially long)
            // stays off the event loop, like every other expensive path.
            body @ (RequestBody::PutSetting { .. }
            | RequestBody::ListSettings
            | RequestBody::EvictSetting { .. }) => {
                registry_op(registry, store, body, writer);
            }
            // `Stats` aggregates server-wide counters — it addresses no
            // setting, so it never resolves (or compiles) one.
            RequestBody::Stats => {
                let StatsSnapshot {
                    counters,
                    histograms,
                } = stats.snapshot(registry, store);
                writer.whole(ResponseBody::StatsOk {
                    counters,
                    histograms,
                });
            }
            body => {
                // Resolve the addressed compiled setting: an LRU/cache
                // hit is an `Arc` clone; a cold binding recompiles from
                // its retained text right here, on this worker.
                let compiled = match registry.resolve(setting_id) {
                    Ok(compiled) => compiled,
                    Err(e) => {
                        writer.whole(ResponseBody::Error(e));
                        continue;
                    }
                };
                // The resolve phase covers the registry lookup including
                // a recompile-on-miss (potentially milliseconds).
                writer.step(PHASE_RESOLVE);
                scratch.reset_counters();
                respond(
                    &compiled,
                    store,
                    stats,
                    config.wal_checkpoint_bytes,
                    &mut scratch,
                    setting_id,
                    body,
                    job.codec,
                    writer,
                );
                // Chase work the request just did, as per-request
                // distributions (how many pops/repairs a request costs),
                // plus the assignment-store highwater. Requests that never
                // chased (store mutations, gets) record nothing.
                let c = scratch.counters;
                if c.chase_steps > 0 {
                    stats.chase_steps.record(c.chase_steps);
                    stats.chase_repairs.record(c.chase_repairs);
                }
                stats
                    .assign_highwater
                    .fetch_max(scratch.assign_highwater() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Answer one registry op (v3). A rebind that changes a setting's text
/// invalidates that setting's derived store state — cached answers and
/// validation baselines — while stored documents and versions survive
/// untouched (they belong to the setting id, not the compiled artifact).
fn registry_op(
    registry: &Registry,
    store: Option<&ServerStore>,
    body: RequestBody,
    w: ResponseWriter<'_>,
) {
    match body {
        RequestBody::PutSetting { bind_id, text } => match registry.put(bind_id, &text) {
            Ok(outcome) => {
                if outcome.rebound {
                    if let Some(store) = store {
                        store
                            .lock()
                            .expect("store poisoned")
                            .invalidate_setting(bind_id);
                    }
                }
                w.whole(ResponseBody::PutSettingOk {
                    content_hash: outcome.content_hash,
                    reused: outcome.reused,
                });
            }
            Err(e) => w.whole(ResponseBody::Error(e)),
        },
        RequestBody::ListSettings => w.whole(ResponseBody::SettingList {
            entries: registry.list(),
        }),
        RequestBody::EvictSetting { bind_id } => match registry.evict(bind_id) {
            Ok(dropped) => w.whole(ResponseBody::EvictSettingOk { dropped }),
            Err(e) => w.whole(ResponseBody::Error(e)),
        },
        _ => unreachable!("caller matched a registry op"),
    }
}

/// Apply one store mutation under the lock and answer with `ok` of its
/// result through `w`. After a successful mutation, while the lock is
/// still held, the WAL is compacted (snapshot + WAL reset) once it outgrows
/// `wal_checkpoint_bytes`, so a long-running server's log — and the replay
/// the next open pays — stays bounded. Best-effort: a failed checkpoint
/// leaves the WAL (and thus durability) intact, and the next mutation
/// simply tries again.
fn mutate<T>(
    store: &ServerStore,
    wal_checkpoint_bytes: u64,
    mut w: ResponseWriter<'_>,
    apply: impl FnOnce(&mut DocStore<DocAnswer>) -> Result<T, StoreError>,
    ok: impl FnOnce(T) -> ResponseBody,
) {
    let mut s = store.lock().expect("store poisoned");
    let result = apply(&mut s);
    if result.is_ok() && s.wal_len() >= wal_checkpoint_bytes {
        let _ = s.checkpoint();
    }
    drop(s);
    w.step(PHASE_STORE);
    w.whole(match result {
        Ok(value) => ok(value),
        Err(e) => ResponseBody::Error(WireError::of_store_error(&e)),
    });
}

/// Length prefix (4) + status (1) + request id (8): the bytes every
/// response segment starts with. The length and status are placeholders
/// until the segment is sealed.
const SEG_HEADER: usize = 4 + 1 + 8;

/// Serializes one response *directly into the connection's write queue*,
/// in bounded segments, from the worker thread.
///
/// The writer is a [`ByteSink`]: the `wire` layout functions append body
/// bytes to the current segment, and when `chunk_bytes` of body fill, the
/// segment is sealed as [`wire::STATUS_OK_PARTIAL`] and handed to the
/// event loop immediately (a [`Done`] push + wake), so a huge solution
/// streams out while the worker is still serializing its tail — peak
/// buffering per response is one chunk, not the whole response, and the
/// loop can interleave other connections' flushes between chunks.
/// [`ResponseWriter::finish`] seals the final segment.
struct ResponseWriter<'w> {
    shared: &'w Shared,
    control: &'w ServerControl,
    slot: usize,
    generation: u64,
    id: u64,
    chunk_bytes: usize,
    /// Status of the final segment: [`wire::STATUS_OK`] unless
    /// [`ResponseWriter::whole`] sent a request-level error.
    status: u8,
    seg: Vec<u8>,
    /// The request's phase trace, carried from the event loop through this
    /// worker and handed back (on the final segment's [`Done`]) so the event
    /// loop can charge the flush phase and finalize it.
    trace: Option<Box<ReqTrace>>,
}

impl<'w> ResponseWriter<'w> {
    fn new(
        shared: &'w Shared,
        control: &'w ServerControl,
        chunk_bytes: usize,
        job: &mut Job,
    ) -> ResponseWriter<'w> {
        let mut writer = ResponseWriter {
            shared,
            control,
            slot: job.slot,
            generation: job.generation,
            id: job.frame.id,
            chunk_bytes: chunk_bytes.max(1),
            status: wire::STATUS_OK,
            seg: Vec::new(),
            trace: job.trace.take(),
        };
        // Everything since the decode step — completion-queue enqueue, the
        // wake, lock contention, sitting behind other jobs — was queue wait.
        writer.step(PHASE_QUEUE);
        writer.start_segment();
        writer
    }

    /// Charge the elapsed-since-last-mark to `phase`. No-op once the final
    /// segment has handed the trace back.
    fn step(&mut self, phase: usize) {
        if let Some(t) = &mut self.trace {
            t.trace.step(phase);
        }
    }

    fn start_segment(&mut self) {
        self.seg = Vec::with_capacity(SEG_HEADER + self.chunk_bytes.min(64 * 1024));
        self.seg.extend_from_slice(&[0u8; 4]); // length, patched on seal
        wire::put_response_header(&mut self.seg, wire::STATUS_OK, self.id); // status, patched on seal
    }

    /// Body bytes already in the open segment.
    fn body_len(&self) -> usize {
        self.seg.len() - SEG_HEADER
    }

    /// Seal the open segment (patch length + status) and hand it to the
    /// event loop. `last` decides between the final status and
    /// `STATUS_OK_PARTIAL`, and whether the completion releases the
    /// in-flight budget.
    fn seal(&mut self, last: bool) {
        wire::patch_frame_len(&mut self.seg);
        self.seg[4] = if last {
            self.status
        } else {
            wire::STATUS_OK_PARTIAL
        };
        if last {
            // Body bytes were streamed (encoded) between the last compute
            // step and this seal.
            self.step(PHASE_ENCODE);
        }
        // The write queue's cap counts length, so a queued segment must not
        // hold much more than that: a small one leaves as an exact copy.
        // (Shrinking the buffer in place, or growing it from the header
        // alone, measured slower on the repository benchmark.)
        let bytes = if self.seg.capacity() > 2 * self.seg.len() {
            self.seg.clone()
        } else {
            std::mem::take(&mut self.seg)
        };
        // Only the final segment carries the trace back: the event loop
        // finalizes it when that segment is fully written to the socket,
        // so the flush phase spans the whole response, not one chunk.
        let trace = if last { self.trace.take() } else { None };
        self.shared
            .done
            .lock()
            .expect("completion queue poisoned")
            .push(Done {
                slot: self.slot,
                generation: self.generation,
                bytes,
                last,
                trace,
            });
        self.control.nudge();
        if !last {
            self.start_segment();
        }
    }

    /// Seal the final segment; the logical response is complete.
    fn finish(mut self) {
        self.seal(true);
    }

    /// Send a response built as a whole [`ResponseBody`], through the same
    /// layout functions as the streamed ones. An OK body is cut into
    /// segments like any other; a request-level error (always small) is
    /// written past the chunk limit, since `STATUS_OK_PARTIAL` segments
    /// only ever carry OK bodies.
    fn whole(mut self, body: ResponseBody) {
        debug_assert_eq!(self.body_len(), 0, "whole() after body bytes were streamed");
        self.status = wire::response_status(&body);
        if self.status == wire::STATUS_OK {
            wire::put_response_body(&mut self, &body);
        } else {
            wire::put_response_body(&mut self.seg, &body);
        }
        self.finish();
    }
}

impl ByteSink for ResponseWriter<'_> {
    /// Append body bytes, cutting segments at the chunk limit.
    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let room = self.chunk_bytes - self.body_len();
            if room == 0 {
                self.seal(false);
                continue;
            }
            let n = room.min(bytes.len());
            self.seg.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
    }
}

/// Parse every document of a request, or fail the whole request with the
/// index of the offending document.
fn parse_docs(docs: &[WireDoc]) -> Result<Vec<XmlTree>, WireError> {
    docs.iter()
        .enumerate()
        .map(|(i, doc)| {
            doc.to_tree()
                .map_err(|e| WireError::new(e.code, format!("document {i}: {}", e.message)))
        })
        .collect()
}

/// A store op arrived but the server mounts no store.
fn store_disabled() -> WireError {
    WireError::new(
        wire::ErrorCode::StoreDisabled,
        "this server mounts no document store",
    )
}

/// Answer a stored-document query through the per-document result cache:
/// under the lock, return a hit computed at the current version, or clone
/// the tree out; compute *unlocked* (the chase can be long); re-lock and
/// insert tagged with the version the computation actually saw — if an edit
/// landed meanwhile the insert is discarded and the response still reflects
/// the version it announced to no one (stored queries carry no version, so
/// serving the version that was current at dispatch is linearizable).
fn stored_answer(
    store: &ServerStore,
    stats: &ServerStats,
    w: &mut ResponseWriter<'_>,
    doc: DocKey,
    key: CacheKey,
    compute: impl FnOnce(&XmlTree) -> DocAnswer,
) -> Result<DocAnswer, WireError> {
    let (tree, version) = {
        let mut s = store.lock().expect("store poisoned");
        if let Some(hit) = s.result_cache(doc).and_then(|c| c.get(&key).cloned()) {
            stats.store_cache_hits.fetch_add(1, Ordering::Relaxed);
            drop(s);
            // A cache hit is pure store time: lock + lookup + clone.
            w.step(PHASE_STORE);
            return Ok(hit);
        }
        match s.get(doc) {
            Ok((tree, version)) => (tree.clone(), version),
            Err(e) => return Err(WireError::of_store_error(&e)),
        }
    };
    w.step(PHASE_STORE);
    stats.store_cache_misses.fetch_add(1, Ordering::Relaxed);
    let value = compute(&tree);
    w.step(PHASE_EXEC);
    let mut s = store.lock().expect("store poisoned");
    if let Some(cache) = s.result_cache(doc) {
        cache.insert(key, version, value.clone());
    }
    drop(s);
    w.step(PHASE_STORE);
    Ok(value)
}

/// One of the paper's per-document questions, asked of every document an
/// exchange request names. `Q` is what a query op carries on its way to
/// evaluation: the request's query text, then the parsed query, then the
/// [`QueryPlan`] that [`DocOp::run`] evaluates.
enum DocOp<Q = QueryPlan> {
    /// Is the document a conforming source instance with a solution?
    Check,
    /// The Section 6.1 canonical solution.
    Solve,
    /// The certain answers of a query.
    Answers(Q),
    /// The certain answer of a Boolean query.
    Boolean(Q),
}

/// What a [`DocOp`] answers for one document. It is also what the store's
/// per-document result cache holds, so a hit streams through exactly the
/// [`put_answer`] a fresh computation would: cached and uncached responses
/// are byte-for-byte identical under every codec.
#[derive(Debug, Clone)]
enum DocAnswer {
    Consistency(bool),
    Solution(Result<XmlTree, SolutionError>),
    /// Certain-answer tuples, in deterministic set order.
    Answers(Result<Vec<Vec<String>>, SolutionError>),
    Boolean(Result<bool, SolutionError>),
}

/// Where an exchange request's documents come from.
enum DocSource {
    /// Shipped in the request, in the connection's codec.
    Shipped(Vec<WireDoc>),
    /// One document of the resident store, by id.
    Stored(u64),
}

/// Split one of the eight exchange requests into its question (a query
/// op's text still unparsed) and its documents. Any other request comes
/// back unchanged.
fn exchange_parts(body: RequestBody) -> Result<(DocOp<String>, DocSource), RequestBody> {
    use DocSource::{Shipped, Stored};
    use RequestBody as R;
    Ok(match body {
        R::CheckConsistency { docs } => (DocOp::Check, Shipped(docs)),
        R::CanonicalSolution { docs } => (DocOp::Solve, Shipped(docs)),
        R::CertainAnswers { query, docs } => (DocOp::Answers(query), Shipped(docs)),
        R::CertainAnswersBoolean { query, docs } => (DocOp::Boolean(query), Shipped(docs)),
        R::CheckConsistencyStored { doc_id } => (DocOp::Check, Stored(doc_id)),
        R::CanonicalSolutionStored { doc_id } => (DocOp::Solve, Stored(doc_id)),
        R::CertainAnswersStored { query, doc_id } => (DocOp::Answers(query), Stored(doc_id)),
        R::CertainAnswersBooleanStored { query, doc_id } => (DocOp::Boolean(query), Stored(doc_id)),
        other => return Err(other),
    })
}

impl<Q> DocOp<Q> {
    /// The op byte a response to this question starts with. A stored op
    /// answers with its shipped twin's byte, since its response is the
    /// one-document response of the shipped op.
    fn wire_op(&self) -> OpCode {
        match self {
            DocOp::Check => OpCode::CheckConsistency,
            DocOp::Solve => OpCode::CanonicalSolution,
            DocOp::Answers(_) => OpCode::CertainAnswers,
            DocOp::Boolean(_) => OpCode::CertainAnswersBoolean,
        }
    }
}

impl DocOp<String> {
    /// Parse the query text, keeping the text for [`DocOp::cache_key`].
    fn parse(&self) -> Result<DocOp<UnionQuery>, WireError> {
        let parse = |text: &str| parse_query(text).map_err(|e| WireError::of_query_error(&e));
        Ok(match self {
            DocOp::Check => DocOp::Check,
            DocOp::Solve => DocOp::Solve,
            DocOp::Answers(text) => DocOp::Answers(parse(text)?),
            DocOp::Boolean(text) => DocOp::Boolean(parse(text)?),
        })
    }

    /// The result-cache key of this question: a query op is keyed by its
    /// source text, so identical questions share one entry.
    fn cache_key(self) -> CacheKey {
        match self {
            DocOp::Check => CacheKey::Consistency,
            DocOp::Solve => CacheKey::CanonicalSolution,
            DocOp::Answers(text) => CacheKey::CertainAnswers(text),
            DocOp::Boolean(text) => CacheKey::CertainBoolean(text),
        }
    }
}

impl DocOp<UnionQuery> {
    /// Plan the query against the target DTD, once for all documents.
    fn plan(&self, compiled: &CompiledSetting<'_>) -> DocOp {
        let plan = |query| QueryPlan::new(query, compiled.target_dtd());
        match self {
            DocOp::Check => DocOp::Check,
            DocOp::Solve => DocOp::Solve,
            DocOp::Answers(query) => DocOp::Answers(plan(query)),
            DocOp::Boolean(query) => DocOp::Boolean(plan(query)),
        }
    }
}

impl DocOp {
    /// Answer the question for one source document on the shared compiled
    /// setting, reusing the worker's scratch. These are the per-document
    /// calls the library's batch API makes, so a response carries exactly
    /// what a local batch call returns.
    fn run(
        &self,
        compiled: &CompiledSetting<'_>,
        tree: &XmlTree,
        scratch: &mut ExchangeScratch,
    ) -> DocAnswer {
        match self {
            DocOp::Check => {
                DocAnswer::Consistency(compiled.check_instance_consistency_with(tree, scratch))
            }
            DocOp::Solve => DocAnswer::Solution(compiled.canonical_solution_with(tree, scratch)),
            DocOp::Answers(plan) => DocAnswer::Answers(
                compiled
                    .certain_answers_planned_with(tree, plan, scratch)
                    .map(|answers| answers.tuples.into_iter().collect()),
            ),
            DocOp::Boolean(plan) => {
                DocAnswer::Boolean(compiled.certain_boolean_planned_with(tree, plan, scratch))
            }
        }
    }
}

/// One document's answer in its wire form: a bare `bool` for consistency,
/// otherwise a per-document `result(X)`.
fn put_answer(w: &mut impl ByteSink, answer: &DocAnswer, codec: Codec) {
    let err = WireError::of_solution_error;
    match answer {
        DocAnswer::Consistency(consistent) => wire::put_bool(w, *consistent),
        DocAnswer::Solution(result) => {
            wire::put_result(w, result.as_ref().map_err(err), |w, tree| {
                wire::put_tree(w, tree, codec)
            })
        }
        DocAnswer::Answers(result) => {
            wire::put_result(w, result.as_ref().map_err(err), |w, tuples| {
                wire::put_tuples(w, tuples)
            })
        }
        DocAnswer::Boolean(result) => wire::put_result(w, result.as_ref().map_err(err), |w, &b| {
            wire::put_bool(w, b)
        }),
    }
}

/// Compute one request's response and stream it through `w`. Runs entirely
/// on a worker thread, with that worker's scratch: document decoding, query
/// planning (once per request) and [`DocOp::run`] per document. The eight
/// exchange ops take two arms, one for shipped documents and one for a
/// stored document, which answers the shipped op's one-document response
/// byte for byte; the rest are the store's document ops.
///
/// Request-level validation (document parsing, query parsing) happens
/// *before* the first body byte is streamed, so a logical response is
/// either one whole error frame or a complete OK stream — never a
/// half-written success.
#[allow(clippy::too_many_arguments)]
fn respond(
    compiled: &CompiledSetting<'_>,
    store: Option<&ServerStore>,
    stats: &ServerStats,
    wal_checkpoint_bytes: u64,
    scratch: &mut ExchangeScratch,
    setting: u64,
    body: RequestBody,
    codec: Codec,
    mut w: ResponseWriter<'_>,
) {
    match exchange_parts(body) {
        Ok((op, DocSource::Shipped(docs))) => {
            let op = match op.parse() {
                Ok(op) => op,
                Err(e) => return w.whole(ResponseBody::Error(e)),
            };
            let trees = match parse_docs(&docs) {
                Ok(trees) => trees,
                Err(e) => return w.whole(ResponseBody::Error(e)),
            };
            w.step(PHASE_DECODE);
            let op = op.plan(compiled);
            if let DocOp::Answers(_) | DocOp::Boolean(_) = op {
                w.step(PHASE_PLAN);
            }
            wire::put_list_header(&mut w, op.wire_op(), trees.len());
            for tree in &trees {
                put_answer(&mut w, &op.run(compiled, tree, scratch), codec);
            }
            // Compute and serialization interleave, so the exec phase
            // deliberately includes per-document encoding; the encode
            // phase then covers only the residue after the last document.
            w.step(PHASE_EXEC);
            w.finish();
        }
        // Every other request reads or writes the resident store.
        request => {
            let Some(store) = store else {
                return w.whole(ResponseBody::Error(store_disabled()));
            };
            match request {
                Ok((op, DocSource::Stored(doc_id))) => {
                    // Parse before the cache lookup so a malformed query
                    // fails identically whether or not an answer is cached.
                    let parsed = match op.parse() {
                        Ok(parsed) => parsed,
                        Err(e) => return w.whole(ResponseBody::Error(e)),
                    };
                    let answer = stored_answer(
                        store,
                        stats,
                        &mut w,
                        DocKey::new(setting, doc_id),
                        op.cache_key(),
                        |tree| parsed.plan(compiled).run(compiled, tree, scratch),
                    );
                    match answer {
                        Ok(answer) => {
                            wire::put_list_header(&mut w, parsed.wire_op(), 1);
                            put_answer(&mut w, &answer, codec);
                            w.finish();
                        }
                        Err(e) => w.whole(ResponseBody::Error(e)),
                    }
                }
                Err(RequestBody::PutDoc { doc_id, doc }) => {
                    let tree = match doc.to_tree() {
                        Ok(tree) => tree,
                        Err(e) => return w.whole(ResponseBody::Error(e)),
                    };
                    w.step(PHASE_DECODE);
                    mutate(
                        store,
                        wal_checkpoint_bytes,
                        w,
                        |s| s.put(DocKey::new(setting, doc_id), tree),
                        |version| ResponseBody::PutDocOk { version },
                    );
                }
                Err(RequestBody::GetDoc { doc_id }) => {
                    // Encode under the lock: the returned frame must be one
                    // consistent (version, bytes) pair even if an edit races
                    // in.
                    let mut s = store.lock().expect("store poisoned");
                    let body = match s.get(DocKey::new(setting, doc_id)) {
                        Ok((tree, version)) => ResponseBody::GetDocOk {
                            version,
                            doc: WireDoc::from_tree(tree, codec),
                        },
                        Err(e) => ResponseBody::Error(WireError::of_store_error(&e)),
                    };
                    drop(s);
                    w.step(PHASE_STORE);
                    w.whole(body);
                }
                Err(RequestBody::EditDoc {
                    doc_id,
                    base_version,
                    edits,
                }) => {
                    let batch = match decode_edits_exact(&edits) {
                        Ok(batch) => batch,
                        Err(e) => {
                            return w.whole(ResponseBody::Error(WireError::new(
                                wire::ErrorCode::BadEdit,
                                format!("malformed edit batch: {e}"),
                            )))
                        }
                    };
                    w.step(PHASE_DECODE);
                    mutate(
                        store,
                        wal_checkpoint_bytes,
                        w,
                        |s| s.edit(DocKey::new(setting, doc_id), base_version, &batch),
                        |version| ResponseBody::EditDocOk { version },
                    );
                }
                Err(RequestBody::DeleteDoc { doc_id }) => mutate(
                    store,
                    wal_checkpoint_bytes,
                    w,
                    |s| s.delete(DocKey::new(setting, doc_id)),
                    |()| ResponseBody::DeleteDocOk,
                ),
                // `Ping` and `Hello` are answered by the event loop,
                // registry ops and `Stats` by the worker before `respond` is
                // reached; a job carrying one here is a dispatch bug, but
                // answer it with a structured error instead of poisoning the
                // worker.
                _ => w.whole(ResponseBody::Error(WireError::new(
                    wire::ErrorCode::UnknownOp,
                    "op dispatched to the exchange path".to_string(),
                ))),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

struct EventLoop<'e> {
    config: &'e ServerConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    wake_rx: UnixStream,
    control: &'e ServerControl,
    shared: &'e Shared,
    registry: &'e Registry,
    stats: &'e ServerStats,
    epoll: Epoll,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    live_conns: usize,
    total_inflight: usize,
    next_generation: u64,
}

impl EventLoop<'_> {
    fn run(&mut self) -> io::Result<()> {
        if let Some(l) = &self.tcp {
            self.epoll.add(l.as_raw_fd(), EPOLLIN, TOK_TCP)?;
        }
        if let Some(l) = &self.unix {
            self.epoll.add(l.as_raw_fd(), EPOLLIN, TOK_UNIX)?;
        }
        self.epoll
            .add(self.wake_rx.as_raw_fd(), EPOLLIN, TOK_WAKE)?;
        let mut events: Vec<Event> = Vec::new();
        while !self.control.stop.load(Ordering::SeqCst) {
            let timeout_ms = self.next_timeout_ms();
            self.epoll.wait(&mut events, timeout_ms)?;
            for &event in &events {
                match event.token {
                    TOK_TCP => self.accept_tcp(),
                    TOK_UNIX => self.accept_unix(),
                    TOK_WAKE => self.drain_wake(),
                    token => self.handle_conn_event(token, event),
                }
            }
            self.drain_completions();
            self.enforce_deadlines();
            // A draining server exits once every connection has settled
            // and closed (or the drain deadline force-closed it). Workers
            // may still be finishing jobs whose connections died; their
            // completions have no taker either way.
            if self.control.is_draining() && self.live_conns == 0 {
                break;
            }
        }
        Ok(())
    }

    /// How long `epoll_wait` may sleep: until the earliest live deadline —
    /// drain, read-progress or idle — or forever when none is armed.
    fn next_timeout_ms(&self) -> i32 {
        let mut next: Option<Instant> = self.control.drain_deadline();
        let mut consider = |candidate: Instant| {
            next = Some(match next {
                Some(current) => current.min(candidate),
                None => candidate,
            });
        };
        for conn in self.conns.iter().flatten() {
            if let (Some(limit), Some(since)) =
                (self.config.read_progress_timeout, conn.partial_since)
            {
                consider(since + limit);
            }
            if let Some(limit) = self.config.idle_timeout {
                if conn.inflight == 0 && conn.partial_since.is_none() {
                    consider(conn.last_activity + limit);
                }
            }
        }
        match next {
            None => -1,
            Some(deadline) => {
                // Round up so one wake-up does not land just *before* the
                // deadline and schedule a second, zero-length sleep.
                let millis = deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis();
                millis.saturating_add(1).min(i32::MAX as u128) as i32
            }
        }
    }

    /// Close every connection past a deadline: drain-settled connections,
    /// anything still open at the drain deadline, slow-loris peers past
    /// the read-progress limit, and idle connections past the idle limit.
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let drain_deadline = self.control.drain_deadline();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if drain_deadline.is_some_and(|deadline| now >= deadline) {
                self.close(slot); // grace expired: abandon what is left
                continue;
            }
            if drain_deadline.is_some() && conn.inflight == 0 && conn.wq.is_empty() {
                self.close(slot); // drained clean
                continue;
            }
            if self
                .config
                .read_progress_timeout
                .zip(conn.partial_since)
                .is_some_and(|(limit, since)| now.duration_since(since) >= limit)
            {
                self.stats.reaped_slow.fetch_add(1, Ordering::Relaxed);
                self.close(slot);
                continue;
            }
            if self.config.idle_timeout.is_some_and(|limit| {
                conn.inflight == 0
                    && conn.partial_since.is_none()
                    && now.duration_since(conn.last_activity) >= limit
            }) {
                self.stats.reaped_idle.fetch_add(1, Ordering::Relaxed);
                self.close(slot);
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_tcp(&mut self) {
        loop {
            match self
                .tcp
                .as_ref()
                .expect("TCP event without listener")
                .accept()
            {
                Ok((stream, _)) => {
                    if self.control.is_draining() {
                        continue; // drop the socket: the server is leaving
                    }
                    let _ = stream.set_nodelay(true);
                    self.register(Duplex::Tcp(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_unix(&mut self) {
        loop {
            match self
                .unix
                .as_ref()
                .expect("Unix event without listener")
                .accept()
            {
                Ok((stream, _)) => {
                    if self.control.is_draining() {
                        continue; // drop the socket: the server is leaving
                    }
                    self.register(Duplex::Unix(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: Duplex) {
        if self.live_conns >= MAX_CONNECTIONS {
            return; // drop the socket: accept-and-close sheds load
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        self.next_generation += 1;
        let conn = Conn {
            stream,
            generation: self.next_generation,
            rbuf: Vec::new(),
            rpos: 0,
            wq: VecDeque::new(),
            wfront: 0,
            wq_bytes: 0,
            inflight: 0,
            codec: Codec::Text,
            closing: false,
            want_write: false,
            peer_eof: false,
            last_activity: Instant::now(),
            partial_since: None,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let conn = self.conns[slot].as_ref().expect("just inserted");
        if self
            .epoll
            .add(
                conn.stream.raw_fd(),
                EPOLLIN | EPOLLRDHUP,
                TOK_CONN_BASE + slot as u64,
            )
            .is_err()
        {
            self.conns[slot] = None;
            self.free_slots.push(slot);
            return;
        }
        self.live_conns += 1;
        self.stats.accepted_conns.fetch_add(1, Ordering::Relaxed);
    }

    fn handle_conn_event(&mut self, token: u64, event: Event) {
        let slot = (token - TOK_CONN_BASE) as usize;
        if self.conns.get(slot).map(Option::is_none).unwrap_or(true) {
            return; // stale event for a slot already closed this batch
        }
        if event.writable() && !self.flush(slot) {
            return;
        }
        if event.readable() || event.closed() {
            self.read_and_dispatch(slot, event.closed());
        }
    }

    /// Read all available bytes, parse complete frames, dispatch them.
    fn read_and_dispatch(&mut self, slot: usize, hangup: bool) {
        let mut chunk = [0u8; 64 * 1024];
        let mut eof = hangup;
        loop {
            let conn = match &mut self.conns[slot] {
                Some(c) => c,
                None => return,
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    if !conn.closing {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                    }
                    // A poisoned connection drains and discards input so the
                    // peer's pending writes cannot stall the close.
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.parse_frames(slot);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if eof {
            conn.peer_eof = true;
        }
        // A finished peer with nothing pending can be dropped now;
        // otherwise pending responses flush first (drain_completions /
        // writable events call `close` when everything settles).
        if conn.peer_eof && conn.inflight == 0 && conn.wq.is_empty() {
            self.close(slot);
        }
    }

    /// Extract complete frames from the read buffer and dispatch each.
    fn parse_frames(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing {
                conn.rbuf.clear();
                conn.rpos = 0;
                conn.partial_since = None;
                return;
            }
            let unread = conn.rbuf.len() - conn.rpos;
            if unread < 4 {
                break;
            }
            let header = &conn.rbuf[conn.rpos..conn.rpos + 4];
            let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
            if len == 0 || len > wire::MAX_FRAME_BYTES {
                // The stream cannot be re-synchronised: poison it.
                let code = if len == 0 {
                    wire::ErrorCode::MalformedFrame
                } else {
                    wire::ErrorCode::FrameTooLarge
                };
                let frame = ResponseFrame {
                    id: 0,
                    body: ResponseBody::Error(WireError::new(
                        code,
                        format!(
                            "frame length {len} outside 1..={}; closing",
                            wire::MAX_FRAME_BYTES
                        ),
                    )),
                };
                // Poison *before* queueing the error frame: the flush inside
                // `enqueue_response` tears the connection down as soon as the
                // frame is fully written.
                conn.closing = true;
                conn.rbuf.clear();
                conn.rpos = 0;
                conn.partial_since = None;
                self.enqueue_response(slot, &frame);
                return;
            }
            if unread < 4 + len {
                break; // partial frame: wait for more bytes
            }
            let start = conn.rpos + 4;
            let payload: Vec<u8> = conn.rbuf[start..start + len].to_vec();
            conn.rpos += 4 + len;
            self.dispatch_payload(slot, &payload);
        }
        // Compact the consumed prefix, and keep the read-progress clock
        // honest: it restarts when a frame *completes* (progress was made)
        // or starts when a partial first appears — arriving bytes that
        // complete nothing leave it running, which is exactly what defeats
        // a drip-feed.
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            let progressed = conn.rpos > 0;
            if progressed {
                conn.rbuf.drain(..conn.rpos);
                conn.rpos = 0;
            }
            conn.partial_since = if conn.rbuf.is_empty() {
                None
            } else if progressed || conn.partial_since.is_none() {
                Some(Instant::now())
            } else {
                conn.partial_since
            };
        }
    }

    /// Decode one request payload and either answer inline (errors, `Ping`,
    /// `Hello`, `Busy`) or queue a job for the worker pool.
    fn dispatch_payload(&mut self, slot: usize, payload: &[u8]) {
        // Start the clock before the frame decode so the decode phase
        // covers it; inline answers (Ping/Hello/errors) drop the trace —
        // only pool-dispatched requests are measured.
        let mut trace = Trace::new();
        let codec = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|c| c.codec)
            .unwrap_or_default();
        let request = match wire::decode_request(payload, codec) {
            Ok(request) => {
                trace.step(PHASE_DECODE);
                request
            }
            Err(DecodeError { id, error }) => {
                // The framing is intact — only this request fails.
                self.enqueue_response(
                    slot,
                    &ResponseFrame {
                        id,
                        body: ResponseBody::Error(error),
                    },
                );
                return;
            }
        };
        if self.control.is_draining() {
            // The request was decoded but never started: GoAway is an
            // unconditional retry-elsewhere signal, for every op.
            self.stats.goaway_rejected.fetch_add(1, Ordering::Relaxed);
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::GoAway,
                },
            );
            return;
        }
        if matches!(request.body, RequestBody::Ping) {
            // Health checks bypass the pool (and the budget): they must
            // answer even when the server is saturated.
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::Pong,
                },
            );
            return;
        }
        if let RequestBody::Hello { features } = request.body {
            // Negotiation is loop-local state, so it is handled here (and,
            // like `Ping`, bypasses the budget). The accepted codec applies
            // to every frame parsed *after* this one; responses to earlier
            // frames still in flight keep the codec they were dispatched
            // with.
            let accepted = features & wire::SUPPORTED_FEATURES;
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.codec = if accepted & wire::FEATURE_BINARY_DOCS != 0 {
                    Codec::Binary
                } else {
                    Codec::Text
                };
            }
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::HelloOk { features: accepted },
                },
            );
            return;
        }
        let over_conn_cap = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .map(|c| c.inflight >= self.config.max_inflight_per_conn)
            .unwrap_or(true);
        if over_conn_cap || self.total_inflight >= self.config.max_inflight_total {
            self.stats.busy_rejected.fetch_add(1, Ordering::Relaxed);
            self.enqueue_response(
                slot,
                &ResponseFrame {
                    id: request.id,
                    body: ResponseBody::Busy,
                },
            );
            return;
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.inflight += 1;
        self.total_inflight += 1;
        self.stats
            .inflight_highwater
            .fetch_max(self.total_inflight as u64, Ordering::Relaxed);
        let job = Job {
            slot,
            generation: conn.generation,
            codec: conn.codec,
            trace: Some(Box::new(ReqTrace {
                op: request.body.op() as u8,
                setting: request.setting_id,
                trace,
            })),
            frame: request,
        };
        self.shared
            .jobs
            .lock()
            .expect("job queue poisoned")
            .push_back(job);
        self.shared.jobs_ready.notify_one();
    }

    /// Move worker completions into their connections' write queues. The
    /// segment `Vec` is *moved*, not copied — the bytes a worker serialized
    /// are the bytes `writev` sends. Only a response's last segment
    /// releases the in-flight budget; partial segments of a streaming
    /// response keep their request counted until the stream completes.
    fn drain_completions(&mut self) {
        let done: Vec<Done> =
            std::mem::take(&mut *self.shared.done.lock().expect("completion queue poisoned"));
        for completion in done {
            if completion.last {
                self.total_inflight -= 1;
            }
            // Dead connection or recycled slot: the response has no taker,
            // but the work still happened — finalize the trace (its flush
            // phase collapses to the drop itself).
            let orphaned = match self.conns.get(completion.slot).and_then(Option::as_ref) {
                None => true,
                Some(conn) => conn.generation != completion.generation,
            };
            if orphaned {
                if let Some(t) = completion.trace {
                    self.finalize_trace(t);
                }
                continue;
            }
            let conn = self
                .conns
                .get_mut(completion.slot)
                .and_then(Option::as_mut)
                .expect("liveness checked above");
            if completion.last {
                conn.inflight -= 1;
            }
            conn.last_activity = Instant::now();
            conn.wq_bytes += completion.bytes.len();
            conn.wq.push_back(WqSeg {
                bytes: completion.bytes,
                trace: completion.trace,
            });
            self.flush(completion.slot);
        }
    }

    /// Encode a loop-generated response and queue it for writing.
    fn enqueue_response(&mut self, slot: usize, frame: &ResponseFrame) {
        let bytes = wire::encode_response_frame(frame);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.wq_bytes += bytes.len();
        conn.wq.push_back(WqSeg { bytes, trace: None });
        self.flush(slot);
    }

    /// Write as much pending output as the socket accepts, gathering up to
    /// [`MAX_FLUSH_IOV`] queued segments per `writev`. Returns `false` when
    /// the connection was closed. Keeps the `EPOLLOUT` registration in sync
    /// with whether output is pending.
    fn flush(&mut self, slot: usize) -> bool {
        let epoll = &self.epoll;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        let mut dead = false;
        // Traces of segments fully written this flush; finalized after the
        // connection borrow ends.
        let mut finished: Vec<Box<ReqTrace>> = Vec::new();
        loop {
            if conn.wq.is_empty() {
                break;
            }
            let wrote = {
                let mut segs = conn.wq.iter();
                let front = segs.next().expect("queue checked non-empty");
                let mut slices: Vec<IoSlice<'_>> =
                    Vec::with_capacity(conn.wq.len().min(MAX_FLUSH_IOV));
                slices.push(IoSlice::new(&front.bytes[conn.wfront..]));
                slices.extend(segs.take(MAX_FLUSH_IOV - 1).map(|s| IoSlice::new(&s.bytes)));
                conn.stream.write_vectored(&slices)
            };
            match wrote {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(mut n) => {
                    conn.last_activity = Instant::now();
                    // Retire fully written segments, advance the front one.
                    while n > 0 {
                        let front_left = conn.wq[0].bytes.len() - conn.wfront;
                        if n >= front_left {
                            n -= front_left;
                            let seg = conn.wq.pop_front().expect("front exists");
                            conn.wq_bytes -= seg.bytes.len();
                            conn.wfront = 0;
                            if let Some(t) = seg.trace {
                                finished.push(t);
                            }
                        } else {
                            conn.wfront += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        // Write-path backpressure: a peer that does not read its responses
        // cannot be allowed to pin unbounded buffered output (the in-flight
        // budget is released when a response is *buffered*, so this cap is
        // what bounds per-connection memory end to end).
        if !dead && conn.wq_bytes - conn.wfront > self.config.max_buffered_response_bytes {
            dead = true;
        }
        if !dead {
            if conn.wq.is_empty() {
                conn.wfront = 0;
                if conn.closing || (conn.peer_eof && conn.inflight == 0) {
                    dead = true;
                } else if conn.want_write {
                    conn.want_write = false;
                    let _ = epoll.modify(
                        conn.stream.raw_fd(),
                        EPOLLIN | EPOLLRDHUP,
                        TOK_CONN_BASE + slot as u64,
                    );
                }
            } else if !conn.want_write {
                conn.want_write = true;
                let _ = epoll.modify(
                    conn.stream.raw_fd(),
                    EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                    TOK_CONN_BASE + slot as u64,
                );
            }
        }
        for t in finished {
            self.finalize_trace(t);
        }
        if dead {
            self.close(slot);
            return false;
        }
        true
    }

    /// Tear a connection down. In-flight jobs keep running; their
    /// completions are dropped by the generation check. Responses still
    /// queued (fully or partially unwritten) finalize their traces here —
    /// the work happened even if the peer never read it.
    fn close(&mut self, slot: usize) {
        if let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.epoll.delete(conn.stream.raw_fd());
            self.live_conns -= 1;
            self.free_slots.push(slot);
            for seg in conn.wq.drain(..) {
                if let Some(t) = seg.trace {
                    self.finalize_trace(t);
                }
            }
        }
    }

    /// Retire a finished request's trace: charge the flush phase (final
    /// seal → last byte handed to the socket), fold every phase plus the
    /// wall-clock total into the request's `(op, setting)` histogram set,
    /// and emit the rate-limited slow-request log line when the wall time
    /// crosses [`ServerConfig::slow_request_threshold`].
    // Traces travel boxed (see `ReqTrace`); take the box whole here rather
    // than re-flatten it at the last hop.
    #[allow(clippy::boxed_local)]
    fn finalize_trace(&self, mut t: Box<ReqTrace>) {
        t.trace.step(PHASE_FLUSH);
        let wall = t.trace.wall_ns();
        // Only a bound id gets its own key: bindings are capped and never
        // removed, so requests naming arbitrary ids cannot grow the table.
        let key = Some(t.setting).filter(|&id| self.registry.is_bound(id));
        let set = self.stats.phase_set(t.op, key);
        for i in 0..PHASE_NAMES.len() {
            let ns = t.trace.phase_ns(i);
            if ns > 0 {
                set.phases[i].record(ns);
            }
        }
        set.total.record(wall);
        let slow = self
            .config
            .slow_request_threshold
            .is_some_and(|th| wall >= th.as_nanos() as u64);
        if slow {
            self.stats.slow_requests.fetch_add(1, Ordering::Relaxed);
            if self.stats.slow_log_permit() {
                let op = OpCode::from_u8(t.op).map(OpCode::name).unwrap_or("unknown");
                let mut phases = String::new();
                for (i, name) in PHASE_NAMES.iter().enumerate() {
                    let ns = t.trace.phase_ns(i);
                    if ns > 0 {
                        use std::fmt::Write as _;
                        let _ = write!(phases, " {name}_us={}", ns / 1_000);
                    }
                }
                eprintln!(
                    "slow-request op={op} setting={} wall_ms={:.3}{phases}",
                    t.setting,
                    wall as f64 / 1e6,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The framed segments a worker hands the event loop for `body`, cut at
    /// `chunk_bytes`.
    fn sealed_segments(chunk_bytes: usize, body: ResponseBody) -> Vec<Vec<u8>> {
        let shared = Shared::new();
        let (wake, _peer) = UnixStream::pair().expect("socketpair");
        let control = ServerControl {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            wake: Mutex::new(wake),
        };
        let mut job = Job {
            slot: 0,
            generation: 0,
            frame: RequestFrame::new(7, RequestBody::Ping),
            codec: Codec::Binary,
            trace: None,
        };
        ResponseWriter::new(&shared, &control, chunk_bytes, &mut job).whole(body);
        let done = shared.done.into_inner().expect("completion queue");
        done.into_iter().map(|d| d.bytes).collect()
    }

    fn answers(tuples: usize) -> ResponseBody {
        let tuple = vec!["a value of twenty-two".to_string()];
        ResponseBody::Answers(vec![Ok(vec![tuple; tuples])])
    }

    #[test]
    fn queued_segments_hold_memory_in_proportion_to_their_length() {
        // A reply of a few hundred bytes under the default chunk size.
        let small = sealed_segments(ServerConfig::default().chunk_bytes, answers(12));
        assert_eq!(small.len(), 1);
        let (len, cap) = (small[0].len(), small[0].capacity());
        assert!((200..1000).contains(&len), "reply of {len} bytes");
        assert!(cap <= 2 * len, "{len}-byte reply holds {cap} bytes");

        // A streamed reply: every segment, full or tail, holds at most
        // twice its length.
        let streamed = sealed_segments(1024, answers(400));
        assert!(streamed.len() > 4);
        for seg in &streamed {
            assert!(
                seg.capacity() <= 2 * seg.len(),
                "{} of {}",
                seg.capacity(),
                seg.len()
            );
        }
    }
}
