//! Shared document-size guard constants.
//!
//! Every layer that admits documents from untrusted bytes — the text codec
//! ([`crate::text`]), the binary codec ([`crate::binary`]), the server's
//! wire protocol, and the `xdx-store` snapshot/WAL loader — used to be one
//! copy-paste away from disagreeing on what "too big" means. The caps live
//! here once; the codecs enforce the hard limits themselves, and the
//! frame-level layers (wire, store) size their defaults from
//! [`DEFAULT_FRAME_BYTES`] so a document accepted by one layer is accepted
//! by all of them.
//!
//! The hard caps are deliberately generous — they are memory-safety bombs
//! against hostile or corrupt inputs, not serving policy. Serving policy
//! (the wire protocol's request-frame and per-request document caps) lives
//! in the server crate and is bounded above by these.

/// Hard upper bound on the byte length of a single encoded document, in
/// either codec. Both decoders reject longer inputs before doing any work.
/// Matches the reference client's reassembled-response cap: a canonical
/// solution can legitimately out-grow the *request* frame cap, so this is
/// far above [`DEFAULT_FRAME_BYTES`].
pub const MAX_DOCUMENT_BYTES: usize = 256 * 1024 * 1024;

/// Hard upper bound on the number of nodes a decoded document may have.
/// Both decoders count nodes as they materialise them; the bound keeps a
/// corrupt count field (or a pathological but well-formed input) from
/// growing an arena past what the rest of the pipeline (per-node side
/// tables indexed by `NodeId`) is sized for.
pub const MAX_DOCUMENT_NODES: usize = 1 << 27;

/// Hard upper bound on document nesting depth. Both codecs are iterative,
/// so this does not protect the decoding thread's stack — it bounds the
/// heap-allocated cursor stacks and keeps downstream per-depth work
/// (conformance, chase) within reason.
pub const MAX_DOCUMENT_DEPTH: usize = 1 << 22;

/// Default per-frame byte budget for layers that ship documents inside
/// length-prefixed frames: the server's request frame cap
/// (`xdx_server::wire::MAX_FRAME_BYTES`) is this, and the store's
/// per-record WAL / snapshot-frame sanity cap defaults to it.
pub const DEFAULT_FRAME_BYTES: usize = 8 * 1024 * 1024;
