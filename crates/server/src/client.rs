//! A blocking client for the wire protocol, used by integration tests,
//! `examples/serve.rs` and the serving benchmark.
//!
//! One [`Client`] owns one connection. The high-level methods send one
//! request and wait for its response; [`Client::send`] / [`Client::recv`]
//! expose the raw pipelined form (multiple requests in flight, responses
//! correlated by id) for backpressure tests and throughput measurements.
//!
//! A fresh connection sends and receives documents as tree text;
//! [`Client::negotiate`] sends a `Hello` to switch the document codec, and
//! [`Client::use_binary`] is the shorthand for the binary codec. Every
//! request carries the setting id chosen with [`Client::set_setting`]
//! (default 0). Chunked (`STATUS_OK_PARTIAL`) response frames are
//! reassembled transparently inside [`Client::recv`], so callers always see
//! whole logical responses; chunks of *different* ids may interleave on the
//! wire when requests are pipelined.

use crate::transport::Duplex;
use crate::wire::{
    self, Codec, DocResult, RequestBody, RequestFrame, ResponseBody, ResponseFrame, SettingEntry,
    WireDoc, WireError,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;
use xdx_patterns::query::UnionQuery;
use xdx_xmltree::XmlTree;

/// Upper bound on (reassembled) response payloads the client will accept
/// (a server response can legitimately exceed the request cap — canonical
/// solutions grow — but a corrupt length field must not trigger a huge
/// allocation).
const MAX_RESPONSE_BYTES: usize = 256 * 1024 * 1024;

/// Default socket read/write timeout applied by [`Client::connect_tcp`]
/// and [`Client::connect_unix`] — a hung server surfaces as an error
/// instead of blocking the caller forever. Override (or disable with
/// `None`) via [`Client::set_timeout`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A typed `Stats` response: flat counters plus histogram rows. Both lists
/// are sorted ascending by name. [`Client::stats`] fetches one over the
/// wire and [`crate::StatsHandle::snapshot`] takes one in process; either
/// renders with [`StatsSnapshot::render_prometheus`], and the
/// [`std::fmt::Display`] impl renders the operator-facing form
/// `--client-smoke` prints.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Counter rows (name, value).
    pub counters: Vec<(String, u64)>,
    /// Histogram rows in sparse wire form; [`wire::StatsHistogram::snapshot`]
    /// rebuilds one for percentiles.
    pub histograms: Vec<wire::StatsHistogram>,
}

impl StatsSnapshot {
    /// Look up one counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up one histogram row by exact name.
    pub fn histogram(&self, name: &str) -> Option<&wire::StatsHistogram> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Every row in the Prometheus text format. Counters render as gauges:
    /// several (uptime, levels, highwaters) genuinely are, and a scraper
    /// can `rate()` either.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            xdx_obs::prom::scalar(&mut out, name, *value, true);
        }
        for h in &self.histograms {
            let unit = xdx_obs::Unit::from_tag(h.unit);
            xdx_obs::prom::histogram(&mut out, &h.name, unit, &h.snapshot());
        }
        out
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            writeln!(f, "{name:<width$}  {value}")?;
        }
        for h in &self.histograms {
            let snap = h.snapshot();
            let unit = xdx_obs::Unit::from_tag(h.unit).suffix();
            writeln!(
                f,
                "{:<width$}  count={} p50={}{unit} p90={}{unit} p99={}{unit} max={}{unit}",
                h.name,
                snap.count,
                snap.p50(),
                snap.p90(),
                snap.p99(),
                snap.max,
            )?;
        }
        Ok(())
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent something the client cannot decode.
    Protocol(String),
    /// The server rejected the whole request with a structured error frame.
    Remote(WireError),
    /// The server is saturated; retry later.
    Busy,
    /// The server is draining for shutdown; the request was not executed
    /// and the connection is about to close. Retry against another (or a
    /// restarted) server.
    GoAway,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Busy => write!(f, "server busy"),
            ClientError::GoAway => write!(f, "server draining for shutdown"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Capped exponential backoff with jitter, driving the [`Client`]'s
/// automatic retries (see [`Client::set_retry_policy`]).
///
/// What retries is decided by *safety*, not by the policy:
///
/// * `Busy` and `GoAway` responses — the server answered without starting
///   the work, so **every** op retries (after a reconnect, for `GoAway`);
/// * connection failures while *reconnecting* — nothing was sent;
/// * transport failures mid-request — the server may or may not have
///   executed the op, so only ops whose duplicate execution is harmless or
///   detectable retry: the pure-compute ops, all reads, and `EditDoc`
///   *with a compare-and-swap `base_version`* (a duplicate apply fails
///   loudly as `VersionConflict` instead of applying twice). `PutDoc`,
///   `DeleteDoc`, unguarded `EditDoc` and the registry mutations are never
///   blindly re-sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// [`RetryPolicy::max_backoff`].
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 5,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// How this client was connected, retained so a broken connection can be
/// re-established transparently under a [`RetryPolicy`].
#[derive(Debug, Clone)]
enum ConnectTarget {
    Tcp(String),
    Unix(PathBuf),
}

/// May `body` be re-sent when the client cannot know whether the server
/// executed the first attempt?
fn safe_to_resend(body: &RequestBody) -> bool {
    match body {
        RequestBody::Ping
        | RequestBody::Hello { .. }
        | RequestBody::CheckConsistency { .. }
        | RequestBody::CanonicalSolution { .. }
        | RequestBody::CertainAnswers { .. }
        | RequestBody::CertainAnswersBoolean { .. }
        | RequestBody::GetDoc { .. }
        | RequestBody::CheckConsistencyStored { .. }
        | RequestBody::CanonicalSolutionStored { .. }
        | RequestBody::CertainAnswersStored { .. }
        | RequestBody::CertainAnswersBooleanStored { .. }
        | RequestBody::ListSettings
        | RequestBody::Stats => true,
        // The CAS guard turns a duplicate apply into a VersionConflict
        // error; an unguarded edit would silently apply twice.
        RequestBody::EditDoc { base_version, .. } => *base_version != 0,
        RequestBody::PutDoc { .. }
        | RequestBody::DeleteDoc { .. }
        | RequestBody::PutSetting { .. }
        | RequestBody::EvictSetting { .. } => false,
    }
}

/// A blocking connection to an `xdx-server`.
pub struct Client {
    transport: Duplex,
    next_id: u64,
    /// Negotiated document codec (see [`Client::negotiate`]).
    codec: Codec,
    /// The setting id stamped on every request ([`Client::set_setting`]).
    setting_id: u64,
    /// Request encode buffer, reused across pipelined sends: 4 reserved
    /// framing bytes + the payload, patched and written in one `write_all`.
    ebuf: Vec<u8>,
    /// In-progress chunked responses: id → (accumulated body, chunk count).
    partials: HashMap<u64, (Vec<u8>, usize)>,
    /// Wire frames the last logical response arrived in (1 = unchunked).
    last_chunks: usize,
    /// Where this client dialed, retained for [`Client::reconnect`].
    target: Option<ConnectTarget>,
    /// The socket timeout in force, re-applied after a reconnect.
    timeout: Option<Duration>,
    /// Features last passed to [`Client::negotiate`], re-negotiated after
    /// a reconnect.
    requested_features: Option<u32>,
    /// The connection is known dead (transport error or `GoAway`); the
    /// next retried request reconnects first.
    broken: bool,
    /// Automatic retry policy; `None` surfaces every failure to the caller.
    retry: Option<RetryPolicy>,
    /// xorshift64 state for backoff jitter (always nonzero).
    jitter: u64,
}

impl Client {
    fn new(transport: Duplex, target: Option<ConnectTarget>) -> Client {
        let jitter = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15)
            | 1;
        Client {
            transport,
            next_id: 1,
            codec: Codec::Text,
            setting_id: 0,
            ebuf: Vec::new(),
            partials: HashMap::new(),
            last_chunks: 1,
            target,
            timeout: None,
            requested_features: None,
            broken: false,
            retry: None,
            jitter,
        }
    }

    /// Connect over TCP, with [`DEFAULT_TIMEOUT`] on socket reads and
    /// writes (override via [`Client::set_timeout`]).
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client::new(
            Duplex::Tcp(stream),
            Some(ConnectTarget::Tcp(addr.to_string())),
        );
        client.set_timeout(Some(DEFAULT_TIMEOUT))?;
        Ok(client)
    }

    /// Connect over a Unix-domain socket, with [`DEFAULT_TIMEOUT`] on
    /// socket reads and writes (override via [`Client::set_timeout`]).
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client> {
        let path = path.as_ref();
        let mut client = Client::new(
            Duplex::Unix(UnixStream::connect(path)?),
            Some(ConnectTarget::Unix(path.to_path_buf())),
        );
        client.set_timeout(Some(DEFAULT_TIMEOUT))?;
        Ok(client)
    }

    /// Bound every blocking read *and* write on the socket, so a stalled
    /// or wedged server surfaces as [`ClientError::Io`]
    /// (`TimedOut`/`WouldBlock`) instead of hanging the caller forever.
    /// `None` restores "wait forever". Survives reconnects.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.transport.set_read_timeout(timeout)?;
        self.transport.set_write_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    /// Install (or clear) the automatic retry policy. With a policy set,
    /// `Busy`/`GoAway` responses back off and retry, a dead connection is
    /// re-dialed and re-negotiated, and requests that are safe to re-send
    /// are retried across the new connection; see [`RetryPolicy`] for
    /// which failures qualify.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Record the accepted feature set on this connection.
    fn apply_accepted(&mut self, accepted: u32) {
        self.codec = if accepted & wire::FEATURE_BINARY_DOCS != 0 {
            Codec::Binary
        } else {
            Codec::Text
        };
    }

    /// Negotiate features: sends `Hello` with `features`, returns the
    /// subset the server accepted, and switches this connection's document
    /// codec accordingly. Requests already answered are unaffected. The
    /// feature set is remembered and re-negotiated automatically when a
    /// [`RetryPolicy`] reconnects.
    pub fn negotiate(&mut self, features: u32) -> Result<u32, ClientError> {
        self.requested_features = Some(features);
        match self.round_trip(RequestBody::Hello { features })? {
            ResponseBody::HelloOk { features: accepted } => {
                self.apply_accepted(accepted);
                Ok(accepted)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Re-dial the recorded target, re-apply the socket timeout, and
    /// re-negotiate the last requested feature set. All per-connection
    /// state (partial responses, codec) is reset first.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.broken = true; // stays set on any early return below
        let target = self.target.clone().ok_or_else(|| {
            ClientError::Protocol("connection broken and no reconnect target recorded".into())
        })?;
        self.transport = match &target {
            ConnectTarget::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
                Duplex::Tcp(stream)
            }
            ConnectTarget::Unix(path) => Duplex::Unix(UnixStream::connect(path)?),
        };
        self.partials.clear();
        self.codec = Codec::Text;
        self.transport.set_read_timeout(self.timeout)?;
        self.transport.set_write_timeout(self.timeout)?;
        if let Some(features) = self.requested_features {
            // Not via `negotiate`: that retries, and retrying reconnects.
            match self.round_trip_once(RequestBody::Hello { features })? {
                ResponseBody::HelloOk { features: accepted } => self.apply_accepted(accepted),
                other => return Err(unexpected("HelloOk", &other)),
            }
        }
        self.broken = false;
        Ok(())
    }

    /// Negotiate the binary document codec; errors if the server does not
    /// accept it.
    pub fn use_binary(&mut self) -> Result<(), ClientError> {
        let accepted = self.negotiate(wire::SUPPORTED_FEATURES)?;
        if accepted & wire::FEATURE_BINARY_DOCS == 0 {
            return Err(ClientError::Protocol(format!(
                "server did not accept the binary document codec (accepted features {accepted:#x})"
            )));
        }
        Ok(())
    }

    /// The negotiated document codec.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Wire frames the most recent logical response arrived in (1 when it
    /// fit in one segment). Tests use this to assert streaming actually
    /// split a large response.
    pub fn last_response_chunk_count(&self) -> usize {
        self.last_chunks
    }

    /// Send a request without waiting; returns the id to correlate the
    /// response with. Pipelining beyond the server's per-connection cap
    /// yields `Busy` responses — by design.
    pub fn send(&mut self, body: RequestBody) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.ebuf.clear();
        self.ebuf.extend_from_slice(&[0u8; 4]); // framing, patched below
        let request = RequestFrame {
            id,
            setting_id: self.setting_id,
            body,
        };
        wire::encode_request_into(&request, &mut self.ebuf);
        wire::patch_frame_len(&mut self.ebuf);
        self.transport.write_all(&self.ebuf)?;
        Ok(id)
    }

    /// Read one wire frame's payload.
    fn read_frame(&mut self) -> Result<Vec<u8>, ClientError> {
        let mut header = [0u8; 4];
        self.transport.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header) as usize;
        if len == 0 || len > MAX_RESPONSE_BYTES {
            return Err(ClientError::Protocol(format!(
                "response frame length {len} outside 1..={MAX_RESPONSE_BYTES}"
            )));
        }
        let mut payload = vec![0u8; len];
        self.transport.read_exact(&mut payload)?;
        Ok(payload)
    }

    /// Read the next *logical* response (any id), reassembling
    /// `STATUS_OK_PARTIAL` chunks until their final `STATUS_OK` frame
    /// arrives.
    pub fn recv(&mut self) -> Result<ResponseFrame, ClientError> {
        loop {
            let payload = self.read_frame()?;
            if payload.first() == Some(&wire::STATUS_OK_PARTIAL) {
                if payload.len() < 9 {
                    return Err(ClientError::Protocol(
                        "partial chunk frame shorter than its status + id header".into(),
                    ));
                }
                let id = u64::from_be_bytes(payload[1..9].try_into().expect("sliced 8 bytes"));
                let (body, count) = self.partials.entry(id).or_insert_with(|| (Vec::new(), 0));
                body.extend_from_slice(&payload[9..]);
                *count += 1;
                if body.len() > MAX_RESPONSE_BYTES {
                    return Err(ClientError::Protocol(format!(
                        "reassembled response for id {id} exceeds {MAX_RESPONSE_BYTES} bytes"
                    )));
                }
                continue; // not a complete logical response yet
            }
            let (payload, chunks) = match payload.first() {
                Some(&wire::STATUS_OK) if payload.len() >= 9 => {
                    let id = u64::from_be_bytes(payload[1..9].try_into().expect("sliced 8 bytes"));
                    match self.partials.remove(&id) {
                        Some((chunked, count)) => {
                            let mut logical = Vec::with_capacity(payload.len() + chunked.len());
                            logical.extend_from_slice(&payload[..9]);
                            logical.extend_from_slice(&chunked);
                            logical.extend_from_slice(&payload[9..]);
                            if logical.len() > MAX_RESPONSE_BYTES {
                                return Err(ClientError::Protocol(format!(
                                    "reassembled response for id {id} exceeds {MAX_RESPONSE_BYTES} bytes"
                                )));
                            }
                            (logical, count + 1)
                        }
                        None => (payload, 1),
                    }
                }
                _ => (payload, 1),
            };
            self.last_chunks = chunks;
            return wire::decode_response(&payload, self.codec)
                .map_err(|e| ClientError::Protocol(format!("undecodable response: {}", e.error)));
        }
    }

    /// One attempt: send one request and wait for its response (ids must
    /// match — the high-level methods never pipeline).
    fn round_trip_once(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let id = self.send(body)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                resp.id
            )));
        }
        match resp.body {
            ResponseBody::Busy => Err(ClientError::Busy),
            ResponseBody::GoAway => Err(ClientError::GoAway),
            ResponseBody::Error(e) => Err(ClientError::Remote(e)),
            body => Ok(body),
        }
    }

    /// The next backoff delay: capped exponential with jitter in
    /// [base/2, base], so a thundering herd of reconnecting clients
    /// spreads out.
    fn backoff_delay(&mut self, policy: &RetryPolicy, attempt: u32) -> Duration {
        let base = policy
            .initial_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(policy.max_backoff);
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let nanos = base.as_nanos().min(u64::MAX as u128) as u64;
        let half = nanos / 2;
        Duration::from_nanos(
            half + if half == 0 {
                0
            } else {
                self.jitter % (half + 1)
            },
        )
    }

    /// Send one request and wait for its response, retrying per the
    /// installed [`RetryPolicy`] (none by default). `Busy` and `GoAway`
    /// retry unconditionally — the server never executed the request;
    /// transport failures reconnect and retry only requests that are
    /// [safe to re-send](RetryPolicy). Remote errors and protocol errors
    /// surface immediately.
    fn round_trip(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let policy = match &self.retry {
            Some(p) if p.max_retries > 0 => p.clone(),
            _ => {
                if self.broken {
                    self.reconnect()?;
                }
                return self.round_trip_once(body);
            }
        };
        let mut attempt = 0u32;
        loop {
            let err = if self.broken {
                // Connect-phase failure: nothing was sent, always retryable.
                self.reconnect().err()
            } else {
                None
            };
            let err = match err {
                Some(e) => e,
                None => match self.round_trip_once(body.clone()) {
                    Ok(resp) => return Ok(resp),
                    // Answered without starting the work — always safe.
                    Err(e @ ClientError::Busy) => e,
                    Err(e @ ClientError::GoAway) => {
                        self.broken = true;
                        e
                    }
                    Err(ClientError::Io(e)) => {
                        // The server may or may not have executed the op.
                        self.broken = true;
                        let e = ClientError::Io(e);
                        if !safe_to_resend(&body) {
                            return Err(e);
                        }
                        e
                    }
                    // Remote errors are authoritative; protocol errors mean
                    // the stream is in an undefined state — give up (the
                    // *next* call will reconnect).
                    Err(e @ ClientError::Protocol(_)) => {
                        self.broken = true;
                        return Err(e);
                    }
                    Err(e) => return Err(e),
                },
            };
            if attempt >= policy.max_retries {
                return Err(err);
            }
            attempt += 1;
            std::thread::sleep(self.backoff_delay(&policy, attempt));
        }
    }

    /// Encode a micro-batch of documents in the negotiated codec.
    fn encode_docs(&self, docs: &[XmlTree]) -> Vec<WireDoc> {
        docs.iter()
            .map(|t| WireDoc::from_tree(t, self.codec))
            .collect()
    }

    /// Health check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(RequestBody::Ping)? {
            ResponseBody::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetch the server's operational counters and histogram rows as a
    /// typed [`StatsSnapshot`]. Unknown names must be ignored — servers
    /// grow counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.round_trip(RequestBody::Stats)? {
            ResponseBody::StatsOk {
                counters,
                histograms,
            } => Ok(StatsSnapshot {
                counters,
                histograms,
            }),
            other => Err(unexpected("StatsOk", &other)),
        }
    }

    /// Per-document consistency of a micro-batch.
    pub fn check_consistency(&mut self, docs: &[XmlTree]) -> Result<Vec<bool>, ClientError> {
        let body = RequestBody::CheckConsistency {
            docs: self.encode_docs(docs),
        };
        match self.round_trip(body)? {
            ResponseBody::Consistency(flags) => Ok(flags),
            other => Err(unexpected("Consistency", &other)),
        }
    }

    /// Canonical solutions of a micro-batch, still in wire form — no
    /// client-side decoding (the serving benchmark uses this so codec
    /// comparisons measure the wire path, not the client's parser).
    pub fn canonical_solution_docs(
        &mut self,
        docs: &[XmlTree],
    ) -> Result<Vec<DocResult<WireDoc>>, ClientError> {
        let body = RequestBody::CanonicalSolution {
            docs: self.encode_docs(docs),
        };
        match self.round_trip(body)? {
            ResponseBody::Solutions(results) => Ok(results),
            other => Err(unexpected("Solutions", &other)),
        }
    }

    /// Canonical solutions of a micro-batch, as canonical wire *text*
    /// (useful for byte-for-byte comparisons against local results;
    /// binary-codec solutions are decoded and re-serialized as text).
    pub fn canonical_solution_texts(
        &mut self,
        docs: &[XmlTree],
    ) -> Result<Vec<DocResult<String>>, ClientError> {
        self.canonical_solution_docs(docs)?
            .into_iter()
            .map(|result| match result {
                Ok(WireDoc::Text(text)) => Ok(Ok(text)),
                Ok(doc @ WireDoc::Binary(_)) => doc
                    .to_tree()
                    .map(|tree| Ok(xdx_xmltree::tree_to_text(&tree)))
                    .map_err(|e| ClientError::Protocol(format!("undecodable solution: {e}"))),
                Err(e) => Ok(Err(e)),
            })
            .collect()
    }

    /// Canonical solutions of a micro-batch, parsed back into trees.
    pub fn canonical_solutions(
        &mut self,
        docs: &[XmlTree],
    ) -> Result<Vec<DocResult<XmlTree>>, ClientError> {
        self.canonical_solution_docs(docs)?
            .into_iter()
            .map(|result| match result {
                Ok(doc) => doc
                    .to_tree()
                    .map(Ok)
                    .map_err(|e| ClientError::Protocol(format!("undecodable solution tree: {e}"))),
                Err(e) => Ok(Err(e)),
            })
            .collect()
    }

    /// Certain answers of `query` for each document (tuples in the
    /// deterministic set order the server computes).
    pub fn certain_answers(
        &mut self,
        query: &UnionQuery,
        docs: &[XmlTree],
    ) -> Result<Vec<DocResult<Vec<Vec<String>>>>, ClientError> {
        let body = RequestBody::CertainAnswers {
            query: query.to_string(),
            docs: self.encode_docs(docs),
        };
        match self.round_trip(body)? {
            ResponseBody::Answers(results) => Ok(results),
            other => Err(unexpected("Answers", &other)),
        }
    }

    /// Boolean certain answer of `query` for each document.
    pub fn certain_answers_boolean(
        &mut self,
        query: &UnionQuery,
        docs: &[XmlTree],
    ) -> Result<Vec<DocResult<bool>>, ClientError> {
        let body = RequestBody::CertainAnswersBoolean {
            query: query.to_string(),
            docs: self.encode_docs(docs),
        };
        match self.round_trip(body)? {
            ResponseBody::Booleans(results) => Ok(results),
            other => Err(unexpected("Booleans", &other)),
        }
    }

    /// Store a document under `doc_id` in the server's resident store
    /// (insert or full replace). Returns the document's new version.
    pub fn put_doc(&mut self, doc_id: u64, doc: &XmlTree) -> Result<u64, ClientError> {
        let body = RequestBody::PutDoc {
            doc_id,
            doc: WireDoc::from_tree(doc, self.codec),
        };
        match self.round_trip(body)? {
            ResponseBody::PutDocOk { version } => Ok(version),
            other => Err(unexpected("PutDocOk", &other)),
        }
    }

    /// Fetch a stored document and its current version.
    pub fn get_doc(&mut self, doc_id: u64) -> Result<(XmlTree, u64), ClientError> {
        match self.round_trip(RequestBody::GetDoc { doc_id })? {
            ResponseBody::GetDocOk { version, doc } => {
                let tree = doc
                    .to_tree()
                    .map_err(|e| ClientError::Protocol(format!("undecodable stored doc: {e}")))?;
                Ok((tree, version))
            }
            other => Err(unexpected("GetDocOk", &other)),
        }
    }

    /// Apply a batch of node-local edits to a stored document. With
    /// `base_version != 0` the edit is compare-and-swap: the server rejects
    /// it with `VersionConflict` unless the document is still at that
    /// version. `base_version == 0` skips the check. Returns the new
    /// version.
    pub fn edit_doc(
        &mut self,
        doc_id: u64,
        base_version: u64,
        edits: &[xdx_store::DocEdit],
    ) -> Result<u64, ClientError> {
        let mut blob = Vec::new();
        xdx_store::encode_edits(edits, &mut blob);
        let body = RequestBody::EditDoc {
            doc_id,
            base_version,
            edits: blob,
        };
        match self.round_trip(body)? {
            ResponseBody::EditDocOk { version } => Ok(version),
            other => Err(unexpected("EditDocOk", &other)),
        }
    }

    /// Remove a stored document.
    pub fn delete_doc(&mut self, doc_id: u64) -> Result<(), ClientError> {
        match self.round_trip(RequestBody::DeleteDoc { doc_id })? {
            ResponseBody::DeleteDocOk => Ok(()),
            other => Err(unexpected("DeleteDocOk", &other)),
        }
    }

    /// Consistency of a stored document — same response as
    /// [`Client::check_consistency`] on the identical document.
    pub fn check_consistency_stored(&mut self, doc_id: u64) -> Result<bool, ClientError> {
        match self.round_trip(RequestBody::CheckConsistencyStored { doc_id })? {
            ResponseBody::Consistency(flags) if flags.len() == 1 => Ok(flags[0]),
            other => Err(unexpected("Consistency", &other)),
        }
    }

    /// Canonical solution of a stored document, still in wire form.
    pub fn canonical_solution_stored(
        &mut self,
        doc_id: u64,
    ) -> Result<DocResult<WireDoc>, ClientError> {
        match self.round_trip(RequestBody::CanonicalSolutionStored { doc_id })? {
            ResponseBody::Solutions(mut results) if results.len() == 1 => {
                Ok(results.pop().expect("checked length"))
            }
            other => Err(unexpected("Solutions", &other)),
        }
    }

    /// Certain answers of `query` for a stored document.
    pub fn certain_answers_stored(
        &mut self,
        query: &UnionQuery,
        doc_id: u64,
    ) -> Result<DocResult<Vec<Vec<String>>>, ClientError> {
        let body = RequestBody::CertainAnswersStored {
            query: query.to_string(),
            doc_id,
        };
        match self.round_trip(body)? {
            ResponseBody::Answers(mut results) if results.len() == 1 => {
                Ok(results.pop().expect("checked length"))
            }
            other => Err(unexpected("Answers", &other)),
        }
    }

    /// Boolean certain answer of `query` for a stored document.
    pub fn certain_answers_boolean_stored(
        &mut self,
        query: &UnionQuery,
        doc_id: u64,
    ) -> Result<DocResult<bool>, ClientError> {
        let body = RequestBody::CertainAnswersBooleanStored {
            query: query.to_string(),
            doc_id,
        };
        match self.round_trip(body)? {
            ResponseBody::Booleans(mut results) if results.len() == 1 => {
                Ok(results.pop().expect("checked length"))
            }
            other => Err(unexpected("Booleans", &other)),
        }
    }

    /// Address every subsequent request to setting `id`; `0` (the default)
    /// is the setting the server was started with.
    pub fn set_setting(&mut self, id: u64) {
        self.setting_id = id;
    }

    /// The setting id subsequent requests address.
    pub fn setting(&self) -> u64 {
        self.setting_id
    }

    /// Upload a setting (the `settext` syntax) and bind it to `bind_id`
    /// (v3). Returns the server's content hash of the canonical text and
    /// whether an identical-text compilation was reused.
    pub fn put_setting(&mut self, bind_id: u64, text: &str) -> Result<(u64, bool), ClientError> {
        let body = RequestBody::PutSetting {
            bind_id,
            text: text.to_string(),
        };
        match self.round_trip(body)? {
            ResponseBody::PutSettingOk {
                content_hash,
                reused,
            } => Ok((content_hash, reused)),
            other => Err(unexpected("PutSettingOk", &other)),
        }
    }

    /// List the server's setting bindings (v3).
    pub fn list_settings(&mut self) -> Result<Vec<SettingEntry>, ClientError> {
        match self.round_trip(RequestBody::ListSettings)? {
            ResponseBody::SettingList { entries } => Ok(entries),
            other => Err(unexpected("SettingList", &other)),
        }
    }

    /// Drop `bind_id`'s compiled artifact (v3); the binding, its text and
    /// its stored documents survive. Returns whether an artifact was
    /// resident.
    pub fn evict_setting(&mut self, bind_id: u64) -> Result<bool, ClientError> {
        match self.round_trip(RequestBody::EvictSetting { bind_id })? {
            ResponseBody::EvictSettingOk { dropped } => Ok(dropped),
            other => Err(unexpected("EvictSettingOk", &other)),
        }
    }

    /// Write raw bytes on the connection (tests use this to send garbage
    /// and truncated frames).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.transport.write_all(bytes)
    }
}

fn unexpected(wanted: &str, got: &ResponseBody) -> ClientError {
    ClientError::Protocol(format!("expected a {wanted} response, got {got:?}"))
}
