//! # xdx-server — async serving front-end for XML data exchange
//!
//! The network layer of the XML data exchange system reproducing
//! Arenas & Libkin, *"XML Data Exchange: Consistency and Query Answering"*
//! (PODS 2005 / JACM 2008): a dependency-free server exposing the four
//! long-running operations of the exchange pipeline —
//!
//! * **CheckConsistency** — is each source document a conforming instance
//!   with a solution?
//! * **CanonicalSolution** — the Section 6.1 chase result per document;
//! * **CertainAnswers** / **CertainAnswersBoolean** — certain answers of a
//!   conjunctive tree query (Section 7 semantics) per document;
//!
//! over both TCP and Unix-domain sockets, speaking one length-prefixed
//! binary framing (see `PROTOCOL.md` and [`wire`]): every request names the
//! setting it addresses, and large responses stream as bounded
//! `STATUS_OK_PARTIAL` chunks serialized by the workers directly into the
//! connection's write queue. The one negotiated feature is the document
//! codec: after a `Hello` accepting [`wire::FEATURE_BINARY_DOCS`],
//! documents travel as [`xdx_xmltree::binary`] preorder frames instead of
//! tree text.
//!
//! When [`server::ServerConfig::store_dir`] is set the server also mounts a
//! resident [`xdx_store::DocStore`]: documents persist across restarts
//! (binary snapshot + write-ahead log), node-local edit batches re-validate
//! in time proportional to the touched region, and per-document answer
//! caches serve repeated queries without re-running the chase. The store
//! ops (`PutDoc`/`GetDoc`/`EditDoc`/`DeleteDoc` and the `*Stored` query
//! variants) answer byte-for-byte like their ship-the-document twins.
//!
//! The design (see [`server`] for details): a **single-threaded
//! non-blocking event loop** on raw `epoll` ([`sys`]) owns every socket and
//! enforces backpressure (bounded per-connection pipelining, a global
//! in-flight budget, `Busy` frames when saturated), while a **worker pool**
//! sharing each addressed [`xdx_core::CompiledSetting`] parses documents,
//! runs the exchange pipeline and hands encoded frames back through a
//! completion queue and a wake pipe. The pool is the only set of threads
//! that computes: a request runs all its documents, shipped or stored, on
//! the one worker that took it, through one per-document path with that
//! worker's warm scratch.
//!
//! The container this workspace builds in has no crates.io access, so
//! there is no `tokio`/`mio`/`libc` here: [`sys`] declares the three
//! `epoll` entry points itself, `std` provides the sockets, and everything
//! else is hand-rolled — which also keeps the event loop honest about
//! every allocation and syscall on the hot path.
//!
//! [`client`] is a small blocking client used by the integration tests,
//! `examples/serve.rs` and the E14 serving benchmark.

#![warn(missing_docs)]
// `unsafe` is confined to the epoll FFI in `sys`; everything else in the
// crate (and the rest of the workspace) forbids it.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
mod registry;
pub mod server;
pub mod sys;
mod transport;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy, StatsSnapshot, DEFAULT_TIMEOUT};
pub use server::{ConfigError, Server, ServerConfig, ServerControl, StatsHandle};
pub use wire::{
    Codec, DocResult, ErrorCode, OpCode, RequestBody, RequestFrame, ResponseBody, ResponseFrame,
    SettingEntry, StatsHistogram, WireDoc, WireError, FEATURE_BINARY_DOCS, SUPPORTED_FEATURES,
};
