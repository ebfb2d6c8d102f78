//! The length-prefixed binary wire protocol (see `PROTOCOL.md`).
//!
//! A frame is `[len: u32 BE][payload: len bytes]`. Request payloads are
//! `[op: u8][id: u64 BE][setting_id: u64 BE][body]`; response payloads are
//! `[status: u8][id: u64 BE][body]`. Queries travel as the rule syntax of
//! [`xdx_patterns::parser::parse_query`] inside length-prefixed UTF-8
//! strings (`[len: u32 BE][bytes]`). Documents travel in the connection's
//! [`Codec`]: the lossless tree text of [`xdx_xmltree::text`] until a
//! [`RequestBody::Hello`] accepts [`FEATURE_BINARY_DOCS`], the binary
//! preorder frames of [`xdx_xmltree::binary`] after it — both as
//! length-prefixed blobs, so framing is codec-independent.
//!
//! One logical OK response may arrive as any number of
//! [`STATUS_OK_PARTIAL`] frames followed by a final `STATUS_OK` frame with
//! the same id; the logical payload is the concatenation of the partial
//! bodies (in arrival order, which the server guarantees) plus the final
//! one. [`decode_response`] expects a fully reassembled payload; the
//! client does the reassembly.
//!
//! The response layout is written once, by the `put_*` functions of this
//! module over any [`ByteSink`]: [`encode_response`] runs them into a
//! `Vec`, and the server's streaming writer runs the very same functions
//! into a sink that cuts `STATUS_OK_PARTIAL` segments as it fills.
//!
//! Every decoder in this module is **total**: arbitrary bytes produce a
//! structured [`DecodeError`], never a panic, and no length field is
//! trusted beyond the bytes actually present (so a hostile frame cannot
//! cause an oversized allocation). The proptests in `tests/server_codec.rs`
//! round-trip every frame shape and throw garbage/truncations at the
//! decoders.

use std::borrow::Borrow;
use std::fmt;
use xdx_core::solution::SolutionError;
use xdx_patterns::QueryParseError;
use xdx_xmltree::binary::ByteSink;
use xdx_xmltree::{parse_tree, tree_to_text, XmlTree};

/// Hard protocol cap on documents per request (servers may configure a
/// lower one).
pub const MAX_DOCS_PER_REQUEST: usize = 1024;

/// Default cap on a request frame's payload size (servers may configure).
/// Shared with the codecs' own guard rails (`xdx_xmltree::limits`).
pub const DEFAULT_MAX_FRAME_BYTES: usize = xdx_xmltree::limits::DEFAULT_FRAME_BYTES;

/// Feature flag: documents travel as [`xdx_xmltree::binary`] frames instead
/// of tree text (both directions). The only negotiated feature: the setting
/// id, chunked responses and the Stats histogram section are part of the
/// one framing every connection speaks.
pub const FEATURE_BINARY_DOCS: u32 = 1 << 0;

/// All feature bits this implementation understands; a server answers
/// `Hello` with the intersection of this mask and the client's request.
pub const SUPPORTED_FEATURES: u32 = FEATURE_BINARY_DOCS;

/// Which document codec a connection speaks. Text is the default; Binary is
/// switched on per connection by a successful [`RequestBody::Hello`]
/// negotiation of [`FEATURE_BINARY_DOCS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Lossless tree text ([`xdx_xmltree::text`]).
    #[default]
    Text,
    /// Binary preorder frames ([`xdx_xmltree::binary`]).
    Binary,
}

impl Codec {
    /// The lowercase name (`"text"` / `"binary"`).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Text => "text",
            Codec::Binary => "binary",
        }
    }
}

/// A document as it travels on the wire, in either codec. Framing is
/// codec-independent (a length-prefixed blob); only the interpretation of
/// the bytes differs, so the variant must match the connection's
/// negotiated codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDoc {
    /// Tree text ([`xdx_xmltree::text`]); must be valid UTF-8.
    Text(String),
    /// A binary preorder frame ([`xdx_xmltree::binary`]).
    Binary(Vec<u8>),
}

impl WireDoc {
    /// Serialize `tree` in the given codec.
    pub fn from_tree(tree: &XmlTree, codec: Codec) -> WireDoc {
        match codec {
            Codec::Text => WireDoc::Text(tree_to_text(tree)),
            Codec::Binary => WireDoc::Binary(xdx_xmltree::binary::encode_tree(tree)),
        }
    }

    /// Parse back into a tree ([`ErrorCode::TreeParse`] /
    /// [`ErrorCode::BinaryDoc`] on failure).
    pub fn to_tree(&self) -> Result<XmlTree, WireError> {
        match self {
            WireDoc::Text(text) => {
                parse_tree(text).map_err(|e| WireError::new(ErrorCode::TreeParse, e.to_string()))
            }
            WireDoc::Binary(bytes) => xdx_xmltree::binary::decode_tree(bytes)
                .map_err(|e| WireError::new(ErrorCode::BinaryDoc, e.to_string())),
        }
    }

    /// The codec this document is serialized in.
    pub fn codec(&self) -> Codec {
        match self {
            WireDoc::Text(_) => Codec::Text,
            WireDoc::Binary(_) => Codec::Binary,
        }
    }

    /// The raw payload bytes (text bytes or binary frame).
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            WireDoc::Text(text) => text.as_bytes(),
            WireDoc::Binary(bytes) => bytes,
        }
    }

    /// The tree text, when this is a text document.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            WireDoc::Text(text) => Some(text),
            WireDoc::Binary(_) => None,
        }
    }
}

impl From<&str> for WireDoc {
    fn from(s: &str) -> WireDoc {
        WireDoc::Text(s.to_string())
    }
}

impl From<String> for WireDoc {
    fn from(s: String) -> WireDoc {
        WireDoc::Text(s)
    }
}

/// Operation selector of a request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Health check; echoes the request id.
    Ping = 0,
    /// Per-document consistency: conforming source with a solution?
    CheckConsistency = 1,
    /// Canonical solution (Section 6.1 chase) per document.
    CanonicalSolution = 2,
    /// Certain answers of a query per document.
    CertainAnswers = 3,
    /// Certain answer of a Boolean query per document.
    CertainAnswersBoolean = 4,
    /// Feature negotiation (the document codec).
    Hello = 5,
    /// Store a document under an id in the server's resident store (v2).
    PutDoc = 6,
    /// Fetch a stored document and its version (v2).
    GetDoc = 7,
    /// Apply a batch of node-local edits to a stored document (v2).
    EditDoc = 8,
    /// Remove a stored document (v2).
    DeleteDoc = 9,
    /// [`OpCode::CheckConsistency`] of one *stored* document (v2).
    /// Responds with the base op's response shape, byte for byte.
    CheckConsistencyStored = 10,
    /// [`OpCode::CanonicalSolution`] of one stored document (v2).
    CanonicalSolutionStored = 11,
    /// [`OpCode::CertainAnswers`] over one stored document (v2).
    CertainAnswersStored = 12,
    /// [`OpCode::CertainAnswersBoolean`] over one stored document (v2).
    CertainAnswersBooleanStored = 13,
    /// Upload a setting's text and bind it to a setting id (v3).
    PutSetting = 14,
    /// List the server's setting bindings (v3).
    ListSettings = 15,
    /// Drop a binding's compiled artifact from the cache (v3).
    EvictSetting = 16,
    /// Fetch the server's operational counters (v4). Ungated, like the
    /// store ops: servers that predate it answer `UnknownOp`, which is a
    /// complete, honest negotiation.
    Stats = 17,
}

impl OpCode {
    pub(crate) fn from_u8(op: u8) -> Option<OpCode> {
        match op {
            0 => Some(OpCode::Ping),
            1 => Some(OpCode::CheckConsistency),
            2 => Some(OpCode::CanonicalSolution),
            3 => Some(OpCode::CertainAnswers),
            4 => Some(OpCode::CertainAnswersBoolean),
            5 => Some(OpCode::Hello),
            6 => Some(OpCode::PutDoc),
            7 => Some(OpCode::GetDoc),
            8 => Some(OpCode::EditDoc),
            9 => Some(OpCode::DeleteDoc),
            10 => Some(OpCode::CheckConsistencyStored),
            11 => Some(OpCode::CanonicalSolutionStored),
            12 => Some(OpCode::CertainAnswersStored),
            13 => Some(OpCode::CertainAnswersBooleanStored),
            14 => Some(OpCode::PutSetting),
            15 => Some(OpCode::ListSettings),
            16 => Some(OpCode::EvictSetting),
            17 => Some(OpCode::Stats),
            _ => None,
        }
    }

    /// Short lower-case identifier for metric keys and log lines — stable
    /// across versions (`req.{name}.…` `Stats` histogram rows are part of
    /// the wire vocabulary, see `PROTOCOL.md`).
    pub fn name(self) -> &'static str {
        match self {
            OpCode::Ping => "ping",
            OpCode::CheckConsistency => "check",
            OpCode::CanonicalSolution => "solution",
            OpCode::CertainAnswers => "answers",
            OpCode::CertainAnswersBoolean => "boolean",
            OpCode::Hello => "hello",
            OpCode::PutDoc => "put_doc",
            OpCode::GetDoc => "get_doc",
            OpCode::EditDoc => "edit_doc",
            OpCode::DeleteDoc => "delete_doc",
            OpCode::CheckConsistencyStored => "check_stored",
            OpCode::CanonicalSolutionStored => "solution_stored",
            OpCode::CertainAnswersStored => "answers_stored",
            OpCode::CertainAnswersBooleanStored => "boolean_stored",
            OpCode::PutSetting => "put_setting",
            OpCode::ListSettings => "list_settings",
            OpCode::EvictSetting => "evict_setting",
            OpCode::Stats => "stats",
        }
    }
}

/// Stable error codes carried by error frames and per-document error
/// results — one for every failure the serving pipeline can produce,
/// covering the whole [`SolutionError`] enum, both halves of
/// [`QueryParseError`], tree-text errors and the protocol-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The payload does not decode (bad lengths, bad UTF-8, trailing bytes).
    MalformedFrame = 1,
    /// The frame's announced length exceeds the server's configured cap.
    FrameTooLarge = 2,
    /// Unknown op code.
    UnknownOp = 3,
    /// More documents than the protocol or the server allows.
    TooManyDocs = 4,
    /// A document failed to parse ([`xdx_xmltree::TreeTextError`]).
    TreeParse = 5,
    /// The query text failed to parse ([`QueryParseError::Syntax`]).
    QuerySyntax = 6,
    /// [`xdx_patterns::query::QueryError::UnboundHeadVariable`].
    QueryUnboundHeadVariable = 7,
    /// [`xdx_patterns::query::QueryError::MismatchedArity`].
    QueryMismatchedArity = 8,
    /// [`xdx_patterns::query::QueryError::EmptyUnion`].
    QueryEmptyUnion = 9,
    /// A binary document frame failed to decode
    /// ([`xdx_xmltree::binary::BinaryError`]). v2.
    BinaryDoc = 10,
    /// A store op named a document id the store does not hold. v2.
    UnknownDoc = 11,
    /// An `EditDoc` base version did not match the document's current
    /// version (another client edited it first). v2.
    VersionConflict = 12,
    /// An edit batch was malformed or not applicable to the document
    /// (rank out of range, missing attribute, …). v2.
    BadEdit = 13,
    /// A store op reached a server that mounts no document store. v2.
    StoreDisabled = 14,
    /// The store's resident-document admission cap is reached. v2.
    StoreFull = 15,
    /// The store failed at the storage layer (I/O error, corrupt
    /// snapshot/WAL). v2.
    StoreIo = 16,
    /// A `PutDoc`/`EditDoc` would grow the document's binary encoding past
    /// the codec's hard cap. v2.
    DocTooLarge = 17,
    /// The request named a setting id with no binding (or a registry op
    /// named the reserved default binding 0). v3.
    UnknownSetting = 18,
    /// The uploaded setting text failed to parse
    /// ([`xdx_core::SettingTextError`]). v3.
    SettingParse = 19,
    /// The uploaded setting parsed but was rejected by compilation
    /// (semantic validation). v3.
    SettingReject = 20,
    /// A registry limit was hit (binding count or compiled-cost budget).
    /// v3.
    SettingLimit = 21,
    /// The store is in sticky degraded read-only mode after a storage
    /// fault (a failed fsync is never retried); mutations are rejected
    /// until the operator restarts the server, reads keep working. v4.
    StoreDegraded = 22,

    /// [`SolutionError::NotFullySpecified`].
    NotFullySpecified = 100,
    /// [`SolutionError::DisallowedAttribute`].
    DisallowedAttribute = 101,
    /// [`SolutionError::AttributeClash`].
    AttributeClash = 102,
    /// [`SolutionError::NoRepair`].
    NoRepair = 103,
    /// [`SolutionError::NoMaximumRepair`].
    NoMaximumRepair = 104,
    /// [`SolutionError::UnknownTargetElement`].
    UnknownTargetElement = 105,
    /// [`SolutionError::WildcardInTarget`].
    WildcardInTarget = 106,
    /// [`SolutionError::ChaseBudgetExceeded`].
    ChaseBudgetExceeded = 107,
    /// [`SolutionError::RepairBudgetExceeded`].
    RepairBudgetExceeded = 108,
}

impl ErrorCode {
    /// Decode a wire code.
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match code {
            1 => MalformedFrame,
            2 => FrameTooLarge,
            3 => UnknownOp,
            4 => TooManyDocs,
            5 => TreeParse,
            6 => QuerySyntax,
            7 => QueryUnboundHeadVariable,
            8 => QueryMismatchedArity,
            9 => QueryEmptyUnion,
            10 => BinaryDoc,
            11 => UnknownDoc,
            12 => VersionConflict,
            13 => BadEdit,
            14 => StoreDisabled,
            15 => StoreFull,
            16 => StoreIo,
            17 => DocTooLarge,
            18 => UnknownSetting,
            19 => SettingParse,
            20 => SettingReject,
            21 => SettingLimit,
            22 => StoreDegraded,
            100 => NotFullySpecified,
            101 => DisallowedAttribute,
            102 => AttributeClash,
            103 => NoRepair,
            104 => NoMaximumRepair,
            105 => UnknownTargetElement,
            106 => WildcardInTarget,
            107 => ChaseBudgetExceeded,
            108 => RepairBudgetExceeded,
            _ => return None,
        })
    }
}

/// A structured error as it travels on the wire: a stable code plus the
/// human-readable rendering of the underlying error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable error code.
    pub code: ErrorCode,
    /// Human-readable detail (the `Display` of the source error).
    pub message: String,
}

impl WireError {
    /// Build from any message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Map a [`SolutionError`] to its wire form (every variant has a code).
    pub fn of_solution_error(e: &SolutionError) -> WireError {
        let code = match e {
            SolutionError::NotFullySpecified { .. } => ErrorCode::NotFullySpecified,
            SolutionError::DisallowedAttribute { .. } => ErrorCode::DisallowedAttribute,
            SolutionError::AttributeClash { .. } => ErrorCode::AttributeClash,
            SolutionError::NoRepair { .. } => ErrorCode::NoRepair,
            SolutionError::NoMaximumRepair { .. } => ErrorCode::NoMaximumRepair,
            SolutionError::UnknownTargetElement { .. } => ErrorCode::UnknownTargetElement,
            SolutionError::WildcardInTarget { .. } => ErrorCode::WildcardInTarget,
            SolutionError::ChaseBudgetExceeded { .. } => ErrorCode::ChaseBudgetExceeded,
            SolutionError::RepairBudgetExceeded { .. } => ErrorCode::RepairBudgetExceeded,
        };
        WireError::new(code, e.to_string())
    }

    /// Map a query parse failure (either half of [`QueryParseError`]).
    pub fn of_query_error(e: &QueryParseError) -> WireError {
        use xdx_patterns::query::QueryError;
        let code = match e {
            QueryParseError::Syntax(_) => ErrorCode::QuerySyntax,
            QueryParseError::Invalid(QueryError::UnboundHeadVariable { .. }) => {
                ErrorCode::QueryUnboundHeadVariable
            }
            QueryParseError::Invalid(QueryError::MismatchedArity { .. }) => {
                ErrorCode::QueryMismatchedArity
            }
            QueryParseError::Invalid(QueryError::EmptyUnion) => ErrorCode::QueryEmptyUnion,
        };
        WireError::new(code, e.to_string())
    }

    /// Map a document-store failure (every variant has a code).
    pub fn of_store_error(e: &xdx_store::StoreError) -> WireError {
        use xdx_store::StoreError;
        let code = match e {
            StoreError::UnknownDoc { .. } => ErrorCode::UnknownDoc,
            StoreError::VersionConflict { .. } => ErrorCode::VersionConflict,
            StoreError::BadEdit(_) => ErrorCode::BadEdit,
            StoreError::StoreFull { .. } => ErrorCode::StoreFull,
            StoreError::DocTooLarge { .. } => ErrorCode::DocTooLarge,
            StoreError::Degraded { .. } => ErrorCode::StoreDegraded,
            // `Locked` can only surface at open time, before any request,
            // but the mapping is total so new callers cannot miss it.
            StoreError::Io(_) | StoreError::Corrupt { .. } | StoreError::Locked { .. } => {
                ErrorCode::StoreIo
            }
        };
        WireError::new(code, e.to_string())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen id, echoed verbatim in the response (responses may
    /// arrive out of order under pipelining).
    pub id: u64,
    /// The setting binding this request addresses; `0` is the setting the
    /// server was started with.
    pub setting_id: u64,
    /// The operation and its arguments.
    pub body: RequestBody,
}

impl RequestFrame {
    /// A frame addressing the default setting 0.
    pub fn new(id: u64, body: RequestBody) -> RequestFrame {
        RequestFrame {
            id,
            setting_id: 0,
            body,
        }
    }
}

/// The operation of a request, with documents/queries still in wire form
/// (parsing happens in the worker pool, off the event loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Health check.
    Ping,
    /// Feature negotiation: the client proposes a feature set, the
    /// server answers [`ResponseBody::HelloOk`] with the accepted subset,
    /// which takes effect for every subsequent frame on the connection.
    Hello {
        /// Requested feature bits (`FEATURE_*`).
        features: u32,
    },
    /// Consistency of each document.
    CheckConsistency {
        /// Source documents.
        docs: Vec<WireDoc>,
    },
    /// Canonical solution of each document.
    CanonicalSolution {
        /// Source documents.
        docs: Vec<WireDoc>,
    },
    /// Certain answers of `query` for each document.
    CertainAnswers {
        /// The query (rule syntax).
        query: String,
        /// Source documents.
        docs: Vec<WireDoc>,
    },
    /// Certain Boolean answer of `query` for each document.
    CertainAnswersBoolean {
        /// The query (rule syntax).
        query: String,
        /// Source documents.
        docs: Vec<WireDoc>,
    },
    /// Store `doc` under `doc_id` in the server's resident store (v2).
    /// Overwrites any existing document under that id, advancing its
    /// version.
    PutDoc {
        /// Client-chosen document id.
        doc_id: u64,
        /// The document, in the connection codec.
        doc: WireDoc,
    },
    /// Fetch a stored document (v2).
    GetDoc {
        /// The document id.
        doc_id: u64,
    },
    /// Apply an edit batch to a stored document (v2). `edits` is the
    /// store's own edit encoding (`xdx_store::encode_edits`), carried as
    /// an opaque blob so the wire layer stays format-agnostic.
    EditDoc {
        /// The document id.
        doc_id: u64,
        /// Compare-and-swap guard: the edit applies only if the document
        /// is still at this version. `0` skips the check.
        base_version: u64,
        /// Encoded edit batch (`xdx_store::encode_edits`).
        edits: Vec<u8>,
    },
    /// Remove a stored document (v2).
    DeleteDoc {
        /// The document id.
        doc_id: u64,
    },
    /// [`RequestBody::CheckConsistency`] of one stored document (v2). The
    /// response is the base op's response, byte for byte (a one-document
    /// batch).
    CheckConsistencyStored {
        /// The document id.
        doc_id: u64,
    },
    /// [`RequestBody::CanonicalSolution`] of one stored document (v2).
    CanonicalSolutionStored {
        /// The document id.
        doc_id: u64,
    },
    /// [`RequestBody::CertainAnswers`] over one stored document (v2).
    CertainAnswersStored {
        /// The query (rule syntax).
        query: String,
        /// The document id.
        doc_id: u64,
    },
    /// [`RequestBody::CertainAnswersBoolean`] over one stored document
    /// (v2).
    CertainAnswersBooleanStored {
        /// The query (rule syntax).
        query: String,
        /// The document id.
        doc_id: u64,
    },
    /// Upload a setting in the text syntax of `xdx_core::settext` and bind
    /// `bind_id` to it (v3). Identical text re-uses the cached compilation
    /// (the response says so); rebinding to *different* text invalidates
    /// the binding's cached answers and validation baselines, while its
    /// stored documents survive.
    PutSetting {
        /// The binding id to create or rebind. `0` — the default setting
        /// the server was started with — is reserved and rejected.
        bind_id: u64,
        /// The setting text (`source {…} target {…} std …;`).
        text: String,
    },
    /// List the server's setting bindings (v3).
    ListSettings,
    /// Drop a binding's *compiled* artifact (v3). The binding, its text
    /// and its stored documents survive; the next request against the
    /// binding recompiles from the retained text.
    EvictSetting {
        /// The binding id (`0` is rejected: the default setting is pinned).
        bind_id: u64,
    },
    /// Fetch the server's operational counters (v4): uptime, in-flight
    /// highwater marks, registry and store cache hit rates, fault and
    /// degraded-mode counters. Carries no arguments.
    Stats,
}

/// One row of a [`ResponseBody::SettingList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettingEntry {
    /// The binding id.
    pub bind_id: u64,
    /// FNV-1a hash of the bound setting's canonical text (identical
    /// uploads share it).
    pub content_hash: u64,
    /// Is a compiled artifact currently resident for this binding?
    pub compiled: bool,
    /// The compiled artifact's cost in the LRU budget's unit (canonical
    /// text bytes).
    pub cost: u64,
}

impl RequestBody {
    /// The op code this body encodes as.
    pub fn op(&self) -> OpCode {
        match self {
            RequestBody::Ping => OpCode::Ping,
            RequestBody::Hello { .. } => OpCode::Hello,
            RequestBody::CheckConsistency { .. } => OpCode::CheckConsistency,
            RequestBody::CanonicalSolution { .. } => OpCode::CanonicalSolution,
            RequestBody::CertainAnswers { .. } => OpCode::CertainAnswers,
            RequestBody::CertainAnswersBoolean { .. } => OpCode::CertainAnswersBoolean,
            RequestBody::PutDoc { .. } => OpCode::PutDoc,
            RequestBody::GetDoc { .. } => OpCode::GetDoc,
            RequestBody::EditDoc { .. } => OpCode::EditDoc,
            RequestBody::DeleteDoc { .. } => OpCode::DeleteDoc,
            RequestBody::CheckConsistencyStored { .. } => OpCode::CheckConsistencyStored,
            RequestBody::CanonicalSolutionStored { .. } => OpCode::CanonicalSolutionStored,
            RequestBody::CertainAnswersStored { .. } => OpCode::CertainAnswersStored,
            RequestBody::CertainAnswersBooleanStored { .. } => OpCode::CertainAnswersBooleanStored,
            RequestBody::PutSetting { .. } => OpCode::PutSetting,
            RequestBody::ListSettings => OpCode::ListSettings,
            RequestBody::EvictSetting { .. } => OpCode::EvictSetting,
            RequestBody::Stats => OpCode::Stats,
        }
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The request id this answers.
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// Per-document outcome: the op's result or a structured error.
pub type DocResult<T> = Result<T, WireError>;

/// The outcome carried by a response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// Reply to [`RequestBody::Ping`].
    Pong,
    /// Reply to [`RequestBody::Hello`]: the accepted feature subset.
    HelloOk {
        /// Accepted feature bits (requested ∩ [`SUPPORTED_FEATURES`]).
        features: u32,
    },
    /// The server is saturated (in-flight budget or per-connection
    /// pipelining cap); retry later. Carries no results.
    Busy,
    /// The whole request failed (malformed frame, bad query, …).
    Error(WireError),
    /// Per-document consistency verdicts.
    Consistency(Vec<bool>),
    /// Per-document canonical solutions (in the connection codec) or
    /// errors.
    Solutions(Vec<DocResult<WireDoc>>),
    /// Per-document certain-answer tuple sets (each tuple a row of
    /// constants, rows in the deterministic `BTreeSet` order) or errors.
    Answers(Vec<DocResult<Vec<Vec<String>>>>),
    /// Per-document Boolean certain answers or errors.
    Booleans(Vec<DocResult<bool>>),
    /// Reply to [`RequestBody::PutDoc`]: the stored document's new version.
    PutDocOk {
        /// Version after the put (1 for a fresh id).
        version: u64,
    },
    /// Reply to [`RequestBody::GetDoc`]: the document and its version.
    GetDocOk {
        /// Current version.
        version: u64,
        /// The document, in the connection codec.
        doc: WireDoc,
    },
    /// Reply to [`RequestBody::EditDoc`]: the version after the batch.
    EditDocOk {
        /// Version after the edit batch applied.
        version: u64,
    },
    /// Reply to [`RequestBody::DeleteDoc`].
    DeleteDocOk,
    /// Reply to [`RequestBody::PutSetting`] (v3).
    PutSettingOk {
        /// Content hash of the accepted setting text.
        content_hash: u64,
        /// Whether an identical-text compilation was reused (the upload
        /// cost no compile).
        reused: bool,
    },
    /// Reply to [`RequestBody::ListSettings`] (v3).
    SettingList {
        /// One row per binding, ascending by binding id.
        entries: Vec<SettingEntry>,
    },
    /// Reply to [`RequestBody::EvictSetting`] (v3).
    EvictSettingOk {
        /// Whether a compiled artifact was actually dropped (`false` when
        /// the binding was already cold).
        dropped: bool,
    },
    /// The server is draining for shutdown (v4): this request was *not*
    /// executed; the connection will close once in-flight responses have
    /// flushed. Safe to retry any op against another (or a restarted)
    /// server. Carries no results.
    GoAway,
    /// Reply to [`RequestBody::Stats`] (v4): named counters, ascending by
    /// name. The set of names is additive across versions — clients must
    /// ignore names they do not know.
    StatsOk {
        /// `(name, value)` rows, ascending by name.
        counters: Vec<(String, u64)>,
        /// Histogram rows, ascending by name (possibly none) — additive
        /// like the counters: unknown names must be ignored.
        histograms: Vec<StatsHistogram>,
    },
}

/// One typed histogram row of a `Stats` response: a sparse snapshot of an
/// [`xdx_obs::Histogram`] — summary moments plus the non-zero log₂ buckets
/// (`(bucket index, count)`, ascending by index). Reconstruct quantiles
/// client-side from [`StatsHistogram::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsHistogram {
    /// Metric name (`req.{op}.s{setting}.{phase}`, `store.fsync`, …).
    pub name: String,
    /// Unit tag ([`xdx_obs::Unit::tag`]: 0 nanoseconds, 1 count, 2 bytes;
    /// unknown tags decode as count).
    pub unit: u8,
    /// Total recorded observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when `count` is 0).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `(bucket index, count)` for each non-zero bucket, strictly
    /// ascending index below [`xdx_obs::BUCKETS`] (the decoder rejects any
    /// other row).
    pub buckets: Vec<(u8, u64)>,
}

impl StatsHistogram {
    /// The row as a dense [`xdx_obs::HistogramSnapshot`], for percentiles
    /// and rendering.
    pub fn snapshot(&self) -> xdx_obs::HistogramSnapshot {
        xdx_obs::HistogramSnapshot::from_sparse(
            self.count,
            self.sum,
            self.min,
            self.max,
            self.buckets.iter().copied(),
        )
    }
}

/// Response status: success, body follows.
pub const STATUS_OK: u8 = 0;
/// Response status: whole-request error, a [`WireError`] follows.
pub const STATUS_ERROR: u8 = 1;
/// Response status: server saturated, no body.
pub const STATUS_BUSY: u8 = 2;
/// Response status: a chunk of a logical OK response; more frames with the
/// same id follow, the last one carrying [`STATUS_OK`]. The server cuts
/// every OK response longer than its configured chunk size this way.
pub const STATUS_OK_PARTIAL: u8 = 3;
/// Response status (v4): the server is draining for shutdown; the request
/// was not executed and the connection will close after in-flight
/// responses flush. No body. Like [`STATUS_BUSY`], always safe to retry —
/// the server never starts work on a request it answers this way.
pub const STATUS_GOAWAY: u8 = 4;

/// A failure to decode a payload, with the request id when it was readable
/// (so the error frame can still be correlated by the client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The id echoed back (0 when the payload was too short to carry one).
    pub id: u64,
    /// What went wrong.
    pub error: WireError,
}

impl DecodeError {
    fn new(id: u64, code: ErrorCode, message: impl Into<String>) -> DecodeError {
        DecodeError {
            id,
            error: WireError::new(code, message),
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    id: u64,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, id: 0 }
    }

    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::new(self.id, ErrorCode::MalformedFrame, message)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(format!(
                "payload truncated: need {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("string is not valid UTF-8"))
    }

    fn blob(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            Err(self.err(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )))
        } else {
            Ok(())
        }
    }
}

/// `n:u16 n × item` — the shape of every list in a response.
fn read_list<T>(
    r: &mut Reader<'_>,
    read: impl Fn(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = r.u16()? as usize;
    // Capacity is bounded independently of the (untrusted) count.
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(read(r)?);
    }
    Ok(items)
}

fn put_u8(out: &mut impl ByteSink, v: u8) {
    out.put(&[v]);
}

fn put_u16(out: &mut impl ByteSink, v: u16) {
    out.put(&v.to_be_bytes());
}

fn put_u32(out: &mut impl ByteSink, v: u32) {
    out.put(&v.to_be_bytes());
}

fn put_u64(out: &mut impl ByteSink, v: u64) {
    out.put(&v.to_be_bytes());
}

/// The `n:u16` count in front of a list.
fn put_count(out: &mut impl ByteSink, n: usize) {
    put_u16(out, u16::try_from(n).expect("list length exceeds u16"));
}

/// `len:u32 bytes` — strings, documents and edit batches alike.
fn put_blob(out: &mut impl ByteSink, bytes: &[u8]) {
    put_u32(
        out,
        u32::try_from(bytes.len()).expect("blob exceeds u32::MAX bytes"),
    );
    out.put(bytes);
}

fn put_string(out: &mut impl ByteSink, s: &str) {
    put_blob(out, s.as_bytes());
}

fn put_wire_error(out: &mut impl ByteSink, e: &WireError) {
    put_u16(out, e.code as u16);
    put_string(out, &e.message);
}

fn read_wire_error(r: &mut Reader<'_>) -> Result<WireError, DecodeError> {
    let raw = r.u16()?;
    let code =
        ErrorCode::from_u16(raw).ok_or_else(|| r.err(format!("unknown error code {raw}")))?;
    let message = r.string()?;
    Ok(WireError { code, message })
}

fn read_doc_result<T>(
    r: &mut Reader<'_>,
    read: impl Fn(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<DocResult<T>, DecodeError> {
    match r.u8()? {
        0 => Ok(Ok(read(r)?)),
        1 => Ok(Err(read_wire_error(r)?)),
        t => Err(r.err(format!("unknown result tag {t}"))),
    }
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(r.err(format!("bad boolean {b}"))),
    }
}

fn read_doc(r: &mut Reader<'_>, codec: Codec) -> Result<WireDoc, DecodeError> {
    match codec {
        Codec::Text => Ok(WireDoc::Text(r.string()?)),
        Codec::Binary => Ok(WireDoc::Binary(r.blob()?)),
    }
}

fn read_docs(
    r: &mut Reader<'_>,
    max_docs: usize,
    codec: Codec,
) -> Result<Vec<WireDoc>, DecodeError> {
    let n = r.u16()? as usize;
    let cap = MAX_DOCS_PER_REQUEST.min(max_docs);
    if n > cap {
        return Err(DecodeError::new(
            r.id,
            ErrorCode::TooManyDocs,
            format!("{n} documents exceed the limit of {cap}"),
        ));
    }
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        docs.push(read_doc(r, codec)?);
    }
    Ok(docs)
}

fn put_docs(out: &mut impl ByteSink, docs: &[WireDoc]) {
    put_count(out, docs.len());
    for d in docs {
        put_doc(out, d);
    }
}

/// One histogram row. Bucket indices must be strictly ascending and below
/// [`xdx_obs::BUCKETS`] — what the encoder emits — so a hostile row cannot
/// repeat a bucket to push a sum past `u64::MAX` in the client.
fn read_histogram(r: &mut Reader<'_>) -> Result<StatsHistogram, DecodeError> {
    let name = r.string()?;
    let unit = r.u8()?;
    let (count, sum, min, max) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    let nb = r.u8()? as usize;
    let mut buckets: Vec<(u8, u64)> = Vec::with_capacity(nb);
    for _ in 0..nb {
        let (idx, n) = (r.u8()?, r.u64()?);
        if usize::from(idx) >= xdx_obs::BUCKETS || buckets.last().is_some_and(|&(p, _)| p >= idx) {
            return Err(r.err(format!(
                "histogram {name:?}: bucket {idx} out of range or out of order"
            )));
        }
        buckets.push((idx, n));
    }
    Ok(StatsHistogram {
        name,
        unit,
        count,
        sum,
        min,
        max,
        buckets,
    })
}

// ---------------------------------------------------------------------------
// The response layout — shared by `encode_response` and the server's
// streaming writer
// ---------------------------------------------------------------------------

/// `[status][id]`, the header of every response frame.
pub(crate) fn put_response_header(out: &mut impl ByteSink, status: u8, id: u64) {
    put_u8(out, status);
    put_u64(out, id);
}

/// `[op]`, the first byte of every OK body (echoing the request op).
fn put_op(out: &mut impl ByteSink, op: OpCode) {
    put_u8(out, op as u8);
}

/// `[op][n:u16]`, the start of an OK body that carries a list — one result
/// per document, or the rows of a listing.
pub(crate) fn put_list_header(out: &mut impl ByteSink, op: OpCode, n: usize) {
    put_op(out, op);
    put_count(out, n);
}

/// `result(X) := 0:u8 X | 1:u8 code:u16 message:str` — one per-document
/// result, its value written by `put_value`.
pub(crate) fn put_result<S: ByteSink, T, E: Borrow<WireError>>(
    out: &mut S,
    result: Result<T, E>,
    put_value: impl FnOnce(&mut S, T),
) {
    match result {
        Ok(v) => {
            put_u8(out, 0);
            put_value(out, v);
        }
        Err(e) => {
            put_u8(out, 1);
            put_wire_error(out, e.borrow());
        }
    }
}

/// A `bool:u8`.
pub(crate) fn put_bool(out: &mut impl ByteSink, b: bool) {
    put_u8(out, b as u8);
}

/// A document already in wire form.
pub(crate) fn put_doc(out: &mut impl ByteSink, doc: &WireDoc) {
    put_blob(out, doc.as_bytes());
}

/// A document straight from its tree, in `codec` — the same bytes as
/// [`put_doc`] of [`WireDoc::from_tree`]. Under [`Codec::Binary`] the
/// two-pass encoder knows the exact length before writing, so the frame
/// streams into `out` unbuffered.
pub(crate) fn put_tree(out: &mut impl ByteSink, tree: &XmlTree, codec: Codec) {
    match codec {
        Codec::Text => put_string(out, &tree_to_text(tree)),
        Codec::Binary => {
            let enc = xdx_xmltree::binary::Encoder::new(tree);
            put_u32(
                out,
                u32::try_from(enc.encoded_len()).expect("document exceeds u32::MAX bytes"),
            );
            enc.write_to(out);
        }
    }
}

/// A certain-answer tuple set: `k:u32 k × (arity:u16 arity × str)`.
pub(crate) fn put_tuples(out: &mut impl ByteSink, tuples: &[Vec<String>]) {
    put_u32(
        out,
        u32::try_from(tuples.len()).expect("tuple count exceeds u32"),
    );
    for tuple in tuples {
        put_count(out, tuple.len());
        for v in tuple {
            put_string(out, v);
        }
    }
}

/// The status byte `body` travels under.
pub(crate) fn response_status(body: &ResponseBody) -> u8 {
    match body {
        ResponseBody::Error(_) => STATUS_ERROR,
        ResponseBody::Busy => STATUS_BUSY,
        ResponseBody::GoAway => STATUS_GOAWAY,
        _ => STATUS_OK,
    }
}

/// Everything of a response after its `[status][id]` header: the error of
/// an `Error`, nothing for `Busy`/`GoAway`, and for an OK body the echoed
/// op byte followed by the op's result.
pub(crate) fn put_response_body<S: ByteSink>(out: &mut S, body: &ResponseBody) {
    match body {
        ResponseBody::Error(e) => put_wire_error(out, e),
        ResponseBody::Busy | ResponseBody::GoAway => {}
        ResponseBody::Pong => put_op(out, OpCode::Ping),
        ResponseBody::HelloOk { features } => {
            put_op(out, OpCode::Hello);
            put_u32(out, *features);
        }
        ResponseBody::Consistency(flags) => {
            put_list_header(out, OpCode::CheckConsistency, flags.len());
            for &b in flags {
                put_bool(out, b);
            }
        }
        ResponseBody::Solutions(results) => {
            put_list_header(out, OpCode::CanonicalSolution, results.len());
            for result in results {
                put_result(out, result.as_ref(), put_doc);
            }
        }
        ResponseBody::Answers(results) => {
            put_list_header(out, OpCode::CertainAnswers, results.len());
            for result in results {
                put_result(out, result.as_ref(), |out, tuples| put_tuples(out, tuples));
            }
        }
        ResponseBody::Booleans(results) => {
            put_list_header(out, OpCode::CertainAnswersBoolean, results.len());
            for result in results {
                put_result(out, result.as_ref(), |out, &b| put_bool(out, b));
            }
        }
        ResponseBody::PutDocOk { version } => {
            put_op(out, OpCode::PutDoc);
            put_u64(out, *version);
        }
        ResponseBody::GetDocOk { version, doc } => {
            put_op(out, OpCode::GetDoc);
            put_u64(out, *version);
            put_doc(out, doc);
        }
        ResponseBody::EditDocOk { version } => {
            put_op(out, OpCode::EditDoc);
            put_u64(out, *version);
        }
        ResponseBody::DeleteDocOk => put_op(out, OpCode::DeleteDoc),
        ResponseBody::PutSettingOk {
            content_hash,
            reused,
        } => {
            put_op(out, OpCode::PutSetting);
            put_u64(out, *content_hash);
            put_bool(out, *reused);
        }
        ResponseBody::SettingList { entries } => {
            put_list_header(out, OpCode::ListSettings, entries.len());
            for e in entries {
                put_u64(out, e.bind_id);
                put_u64(out, e.content_hash);
                put_bool(out, e.compiled);
                put_u64(out, e.cost);
            }
        }
        ResponseBody::EvictSettingOk { dropped } => {
            put_op(out, OpCode::EvictSetting);
            put_bool(out, *dropped);
        }
        ResponseBody::StatsOk {
            counters,
            histograms,
        } => {
            put_list_header(out, OpCode::Stats, counters.len());
            for (name, value) in counters {
                put_string(out, name);
                put_u64(out, *value);
            }
            put_count(out, histograms.len());
            for h in histograms {
                put_string(out, &h.name);
                put_u8(out, h.unit);
                for v in [h.count, h.sum, h.min, h.max] {
                    put_u64(out, v);
                }
                put_u8(
                    out,
                    u8::try_from(h.buckets.len()).expect("more than 255 buckets"),
                );
                for &(idx, n) in &h.buckets {
                    put_u8(out, idx);
                    put_u64(out, n);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame encoding/decoding
// ---------------------------------------------------------------------------

/// Write `buf.len() - 4` into the 4 bytes reserved at the front of `buf`:
/// seals a frame encoded after a length placeholder.
pub(crate) fn patch_frame_len(buf: &mut [u8]) {
    let len = u32::try_from(buf.len() - 4).expect("payload exceeds u32::MAX bytes");
    buf[0..4].copy_from_slice(&len.to_be_bytes());
}

/// Wrap a payload in its `[len: u32 BE]` prefix.
pub fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&payload);
    patch_frame_len(&mut out);
    out
}

/// Encode a request payload into `out` (no length prefix; see [`frame`]).
/// Appends without clearing, so a caller can reserve framing bytes first
/// and reuse one buffer across pipelined requests.
pub fn encode_request_into(req: &RequestFrame, out: &mut Vec<u8>) {
    out.push(req.body.op() as u8);
    put_u64(out, req.id);
    put_u64(out, req.setting_id);
    match &req.body {
        RequestBody::Ping | RequestBody::ListSettings | RequestBody::Stats => {}
        RequestBody::Hello { features } => put_u32(out, *features),
        RequestBody::CheckConsistency { docs } | RequestBody::CanonicalSolution { docs } => {
            put_docs(out, docs);
        }
        RequestBody::CertainAnswers { query, docs }
        | RequestBody::CertainAnswersBoolean { query, docs } => {
            put_string(out, query);
            put_docs(out, docs);
        }
        RequestBody::PutDoc { doc_id, doc } => {
            put_u64(out, *doc_id);
            put_doc(out, doc);
        }
        RequestBody::GetDoc { doc_id }
        | RequestBody::DeleteDoc { doc_id }
        | RequestBody::CheckConsistencyStored { doc_id }
        | RequestBody::CanonicalSolutionStored { doc_id } => put_u64(out, *doc_id),
        RequestBody::EditDoc {
            doc_id,
            base_version,
            edits,
        } => {
            put_u64(out, *doc_id);
            put_u64(out, *base_version);
            put_blob(out, edits);
        }
        RequestBody::CertainAnswersStored { query, doc_id }
        | RequestBody::CertainAnswersBooleanStored { query, doc_id } => {
            put_string(out, query);
            put_u64(out, *doc_id);
        }
        RequestBody::PutSetting { bind_id, text } => {
            put_u64(out, *bind_id);
            put_string(out, text);
        }
        RequestBody::EvictSetting { bind_id } => put_u64(out, *bind_id),
    }
}

/// Encode a request payload (no length prefix; see [`frame`]).
pub fn encode_request(req: &RequestFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(req, &mut out);
    out
}

/// Decode a request payload. `max_docs` is the server's configured
/// per-request document cap (the protocol cap [`MAX_DOCS_PER_REQUEST`]
/// applies on top); `codec` is the connection's negotiated document codec.
pub fn decode_request(
    payload: &[u8],
    max_docs: usize,
    codec: Codec,
) -> Result<RequestFrame, DecodeError> {
    let mut r = Reader::new(payload);
    let op_raw = r.u8()?;
    r.id = r.u64()?;
    let setting_id = r.u64()?;
    let op = OpCode::from_u8(op_raw).ok_or_else(|| {
        DecodeError::new(r.id, ErrorCode::UnknownOp, format!("unknown op {op_raw}"))
    })?;
    let body = match op {
        OpCode::Ping => RequestBody::Ping,
        OpCode::Hello => RequestBody::Hello { features: r.u32()? },
        OpCode::CheckConsistency => RequestBody::CheckConsistency {
            docs: read_docs(&mut r, max_docs, codec)?,
        },
        OpCode::CanonicalSolution => RequestBody::CanonicalSolution {
            docs: read_docs(&mut r, max_docs, codec)?,
        },
        OpCode::CertainAnswers => RequestBody::CertainAnswers {
            query: r.string()?,
            docs: read_docs(&mut r, max_docs, codec)?,
        },
        OpCode::CertainAnswersBoolean => RequestBody::CertainAnswersBoolean {
            query: r.string()?,
            docs: read_docs(&mut r, max_docs, codec)?,
        },
        OpCode::PutDoc => RequestBody::PutDoc {
            doc_id: r.u64()?,
            doc: read_doc(&mut r, codec)?,
        },
        OpCode::GetDoc => RequestBody::GetDoc { doc_id: r.u64()? },
        OpCode::EditDoc => RequestBody::EditDoc {
            doc_id: r.u64()?,
            base_version: r.u64()?,
            edits: r.blob()?,
        },
        OpCode::DeleteDoc => RequestBody::DeleteDoc { doc_id: r.u64()? },
        OpCode::CheckConsistencyStored => RequestBody::CheckConsistencyStored { doc_id: r.u64()? },
        OpCode::CanonicalSolutionStored => {
            RequestBody::CanonicalSolutionStored { doc_id: r.u64()? }
        }
        OpCode::CertainAnswersStored => RequestBody::CertainAnswersStored {
            query: r.string()?,
            doc_id: r.u64()?,
        },
        OpCode::CertainAnswersBooleanStored => RequestBody::CertainAnswersBooleanStored {
            query: r.string()?,
            doc_id: r.u64()?,
        },
        OpCode::PutSetting => RequestBody::PutSetting {
            bind_id: r.u64()?,
            text: r.string()?,
        },
        OpCode::ListSettings => RequestBody::ListSettings,
        OpCode::EvictSetting => RequestBody::EvictSetting { bind_id: r.u64()? },
        OpCode::Stats => RequestBody::Stats,
    };
    r.finish()?;
    Ok(RequestFrame {
        id: r.id,
        setting_id,
        body,
    })
}

/// Encode a response payload into `out` (no length prefix; see [`frame`]).
/// Appends without clearing, like [`encode_request_into`].
fn encode_response_into(resp: &ResponseFrame, out: &mut impl ByteSink) {
    put_response_header(out, response_status(&resp.body), resp.id);
    put_response_body(out, &resp.body);
}

/// Encode a response payload (no length prefix; see [`frame`]).
pub fn encode_response(resp: &ResponseFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(resp, &mut out);
    out
}

/// Encode a response as one whole frame, length prefix included, in a
/// single buffer.
pub(crate) fn encode_response_frame(resp: &ResponseFrame) -> Vec<u8> {
    let mut out = vec![0u8; 4];
    encode_response_into(resp, &mut out);
    patch_frame_len(&mut out);
    out
}

/// Decode a (fully reassembled) response payload. `codec` is the
/// connection's negotiated document codec; a [`STATUS_OK_PARTIAL`] status
/// is rejected here — chunk frames must be concatenated into the logical
/// payload first (the client does this in `recv`).
pub fn decode_response(payload: &[u8], codec: Codec) -> Result<ResponseFrame, DecodeError> {
    let mut r = Reader::new(payload);
    let status = r.u8()?;
    r.id = r.u64()?;
    let body = match status {
        STATUS_BUSY => ResponseBody::Busy,
        STATUS_GOAWAY => ResponseBody::GoAway,
        STATUS_ERROR => ResponseBody::Error(read_wire_error(&mut r)?),
        STATUS_OK_PARTIAL => {
            return Err(r.err("partial chunk frame passed to decode_response unassembled"))
        }
        STATUS_OK => {
            let op_raw = r.u8()?;
            let op = OpCode::from_u8(op_raw).ok_or_else(|| {
                DecodeError::new(r.id, ErrorCode::UnknownOp, format!("unknown op {op_raw}"))
            })?;
            match op {
                OpCode::Ping => ResponseBody::Pong,
                OpCode::Hello => ResponseBody::HelloOk { features: r.u32()? },
                OpCode::CheckConsistency => {
                    ResponseBody::Consistency(read_list(&mut r, read_bool)?)
                }
                OpCode::CanonicalSolution => ResponseBody::Solutions(read_list(&mut r, |r| {
                    read_doc_result(r, |r| read_doc(r, codec))
                })?),
                OpCode::CertainAnswers => ResponseBody::Answers(read_list(&mut r, |r| {
                    read_doc_result(r, |r| {
                        let count = r.u32()? as usize;
                        let mut tuples = Vec::with_capacity(count.min(4096));
                        for _ in 0..count {
                            tuples.push(read_list(r, |r| r.string())?);
                        }
                        Ok(tuples)
                    })
                })?),
                OpCode::CertainAnswersBoolean => {
                    ResponseBody::Booleans(read_list(&mut r, |r| read_doc_result(r, read_bool))?)
                }
                OpCode::PutDoc => ResponseBody::PutDocOk { version: r.u64()? },
                OpCode::GetDoc => ResponseBody::GetDocOk {
                    version: r.u64()?,
                    doc: read_doc(&mut r, codec)?,
                },
                OpCode::EditDoc => ResponseBody::EditDocOk { version: r.u64()? },
                OpCode::DeleteDoc => ResponseBody::DeleteDocOk,
                OpCode::PutSetting => ResponseBody::PutSettingOk {
                    content_hash: r.u64()?,
                    reused: read_bool(&mut r)?,
                },
                OpCode::ListSettings => ResponseBody::SettingList {
                    entries: read_list(&mut r, |r| {
                        Ok(SettingEntry {
                            bind_id: r.u64()?,
                            content_hash: r.u64()?,
                            compiled: read_bool(r)?,
                            cost: r.u64()?,
                        })
                    })?,
                },
                OpCode::EvictSetting => ResponseBody::EvictSettingOk {
                    dropped: read_bool(&mut r)?,
                },
                OpCode::Stats => ResponseBody::StatsOk {
                    counters: read_list(&mut r, |r| Ok((r.string()?, r.u64()?)))?,
                    histograms: read_list(&mut r, read_histogram)?,
                },
                // Stored query ops answer with the *base* op's response
                // (that is their byte-for-byte parity contract), so their
                // own codes never appear in a well-formed response.
                OpCode::CheckConsistencyStored
                | OpCode::CanonicalSolutionStored
                | OpCode::CertainAnswersStored
                | OpCode::CertainAnswersBooleanStored => {
                    return Err(r.err(format!(
                        "stored-query op {op_raw} in a response (the base op is echoed instead)"
                    )))
                }
            }
        }
        s => return Err(r.err(format!("unknown status {s}"))),
    };
    r.finish()?;
    Ok(ResponseFrame { id: r.id, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<RequestFrame> {
        vec![
            RequestFrame {
                id: 0,
                setting_id: 0,
                body: RequestBody::Ping,
            },
            RequestFrame {
                id: 11,
                setting_id: 0,
                body: RequestBody::Hello {
                    features: SUPPORTED_FEATURES,
                },
            },
            RequestFrame {
                id: u64::MAX,
                setting_id: 0,
                body: RequestBody::CheckConsistency { docs: vec![] },
            },
            RequestFrame {
                id: 7,
                setting_id: 0,
                body: RequestBody::CanonicalSolution {
                    docs: vec!["db".into(), "db[book(@title=\"x\")]".into()],
                },
            },
            RequestFrame {
                id: 8,
                setting_id: 0,
                body: RequestBody::CertainAnswers {
                    query: "($x) :- work(@title=$x)".into(),
                    docs: vec!["db".into()],
                },
            },
            RequestFrame {
                id: 9,
                setting_id: 0,
                body: RequestBody::CertainAnswersBoolean {
                    query: "() :- bib".into(),
                    docs: vec!["".into(), "⊥ weird \"doc\"".into()],
                },
            },
            RequestFrame {
                id: 10,
                setting_id: 0,
                body: RequestBody::PutDoc {
                    doc_id: 42,
                    doc: "db[book(@title=\"T\")]".into(),
                },
            },
            RequestFrame {
                id: 11,
                setting_id: 0,
                body: RequestBody::GetDoc { doc_id: u64::MAX },
            },
            RequestFrame {
                id: 12,
                setting_id: 0,
                body: RequestBody::EditDoc {
                    doc_id: 42,
                    base_version: 7,
                    edits: vec![0, 1, 0xde, 0xad],
                },
            },
            RequestFrame {
                id: 13,
                setting_id: 0,
                body: RequestBody::DeleteDoc { doc_id: 0 },
            },
            RequestFrame {
                id: 14,
                setting_id: 0,
                body: RequestBody::CheckConsistencyStored { doc_id: 3 },
            },
            RequestFrame {
                id: 15,
                setting_id: 0,
                body: RequestBody::CanonicalSolutionStored { doc_id: 3 },
            },
            RequestFrame {
                id: 16,
                setting_id: 0,
                body: RequestBody::CertainAnswersStored {
                    query: "($x) :- work(@title=$x)".into(),
                    doc_id: 3,
                },
            },
            RequestFrame {
                id: 17,
                setting_id: 0,
                body: RequestBody::CertainAnswersBooleanStored {
                    query: "() :- bib".into(),
                    doc_id: 9,
                },
            },
            RequestFrame {
                id: 18,
                setting_id: 0,
                body: RequestBody::PutSetting {
                    bind_id: 3,
                    text: "source { db -> (book)* } target { lib -> (work)* }\n".into(),
                },
            },
            RequestFrame {
                id: 19,
                setting_id: 0,
                body: RequestBody::ListSettings,
            },
            RequestFrame {
                id: 20,
                setting_id: 0,
                body: RequestBody::EvictSetting { bind_id: u64::MAX },
            },
            RequestFrame {
                id: 21,
                setting_id: 0,
                body: RequestBody::Stats,
            },
        ]
    }

    fn sample_responses() -> Vec<ResponseFrame> {
        let err = WireError::new(ErrorCode::NoRepair, "the children cannot be repaired");
        vec![
            ResponseFrame {
                id: 1,
                body: ResponseBody::Pong,
            },
            ResponseFrame {
                id: 2,
                body: ResponseBody::Busy,
            },
            ResponseFrame {
                id: 12,
                body: ResponseBody::HelloOk {
                    features: FEATURE_BINARY_DOCS,
                },
            },
            ResponseFrame {
                id: 3,
                body: ResponseBody::Error(WireError::new(ErrorCode::MalformedFrame, "bad")),
            },
            ResponseFrame {
                id: 4,
                body: ResponseBody::Consistency(vec![true, false, true]),
            },
            ResponseFrame {
                id: 5,
                body: ResponseBody::Solutions(vec![
                    Ok("bib[writer(@name=\"P\")]".into()),
                    Err(err.clone()),
                ]),
            },
            ResponseFrame {
                id: 6,
                body: ResponseBody::Answers(vec![
                    Ok(vec![vec!["a".into(), "b".into()], vec![]]),
                    Ok(vec![]),
                    Err(err),
                ]),
            },
            ResponseFrame {
                id: 7,
                body: ResponseBody::Booleans(vec![
                    Ok(true),
                    Ok(false),
                    Err(WireError::new(ErrorCode::AttributeClash, "clash")),
                ]),
            },
            ResponseFrame {
                id: 8,
                body: ResponseBody::PutDocOk { version: 1 },
            },
            ResponseFrame {
                id: 9,
                body: ResponseBody::GetDocOk {
                    version: 3,
                    doc: "db[book(@title=\"T\")]".into(),
                },
            },
            ResponseFrame {
                id: 10,
                body: ResponseBody::EditDocOk { version: u64::MAX },
            },
            ResponseFrame {
                id: 11,
                body: ResponseBody::DeleteDocOk,
            },
            ResponseFrame {
                id: 12,
                body: ResponseBody::Error(WireError::new(
                    ErrorCode::VersionConflict,
                    "document 42 is at version 9, not 7",
                )),
            },
            ResponseFrame {
                id: 13,
                body: ResponseBody::PutSettingOk {
                    content_hash: 0xdead_beef_cafe_f00d,
                    reused: true,
                },
            },
            ResponseFrame {
                id: 14,
                body: ResponseBody::SettingList {
                    entries: vec![
                        SettingEntry {
                            bind_id: 0,
                            content_hash: 17,
                            compiled: true,
                            cost: 321,
                        },
                        SettingEntry {
                            bind_id: 9,
                            content_hash: u64::MAX,
                            compiled: false,
                            cost: 0,
                        },
                    ],
                },
            },
            ResponseFrame {
                id: 15,
                body: ResponseBody::SettingList { entries: vec![] },
            },
            ResponseFrame {
                id: 16,
                body: ResponseBody::EvictSettingOk { dropped: false },
            },
            ResponseFrame {
                id: 17,
                body: ResponseBody::GoAway,
            },
            ResponseFrame {
                id: 18,
                body: ResponseBody::StatsOk {
                    counters: vec![
                        ("server.uptime_secs".into(), 12),
                        ("store.degraded".into(), 0),
                        ("store.wal_rollbacks".into(), u64::MAX),
                    ],
                    histograms: vec![],
                },
            },
            ResponseFrame {
                id: 19,
                body: ResponseBody::StatsOk {
                    counters: vec![],
                    histograms: vec![],
                },
            },
            ResponseFrame {
                id: 1918,
                body: ResponseBody::StatsOk {
                    counters: vec![("server.uptime_secs".into(), 1)],
                    histograms: vec![
                        StatsHistogram {
                            name: "req.solution.s0.total".into(),
                            unit: 0,
                            count: 3,
                            sum: 3000,
                            min: 900,
                            max: 1200,
                            buckets: vec![(10, 2), (11, 1)],
                        },
                        StatsHistogram {
                            name: "store.fsync".into(),
                            unit: 0,
                            count: 0,
                            sum: 0,
                            min: 0,
                            max: 0,
                            buckets: vec![],
                        },
                    ],
                },
            },
            ResponseFrame {
                id: 20,
                body: ResponseBody::Error(WireError::new(
                    ErrorCode::StoreDegraded,
                    "the store is degraded: WAL fsync: injected fault",
                )),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes, MAX_DOCS_PER_REQUEST, Codec::Text).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes, Codec::Text).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn binary_docs_round_trip_under_the_binary_codec() {
        use xdx_xmltree::XmlTree;
        let doc = WireDoc::from_tree(&XmlTree::new("db"), Codec::Binary);
        let req = RequestFrame {
            id: 3,
            setting_id: 0,
            body: RequestBody::CanonicalSolution {
                docs: vec![doc.clone(), WireDoc::Binary(vec![0xde, 0xad])],
            },
        };
        let bytes = encode_request(&req);
        let back = decode_request(&bytes, MAX_DOCS_PER_REQUEST, Codec::Binary).unwrap();
        assert_eq!(req, back);
        // The valid frame parses; the garbage one reports BinaryDoc.
        assert!(doc.to_tree().is_ok());
        let err = WireDoc::Binary(vec![0xde, 0xad]).to_tree().unwrap_err();
        assert_eq!(err.code, ErrorCode::BinaryDoc);

        let resp = ResponseFrame {
            id: 4,
            body: ResponseBody::Solutions(vec![Ok(doc)]),
        };
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes, Codec::Binary).unwrap(), resp);
    }

    #[test]
    fn codec_mismatch_is_detected_not_panicked() {
        // A binary frame decoded as text must fail UTF-8 or tree parsing,
        // never panic: version byte 1 is not valid tree text anyway.
        use xdx_xmltree::XmlTree;
        let doc = WireDoc::from_tree(&XmlTree::new("db"), Codec::Binary);
        let req = RequestFrame {
            id: 5,
            setting_id: 0,
            body: RequestBody::CheckConsistency { docs: vec![doc] },
        };
        let bytes = encode_request(&req);
        match decode_request(&bytes, MAX_DOCS_PER_REQUEST, Codec::Text) {
            Ok(back) => {
                // Framing is codec-independent, so it may decode as a
                // text doc — which must then fail to parse as a tree.
                for d in match &back.body {
                    RequestBody::CheckConsistency { docs } => docs,
                    _ => panic!("op preserved"),
                } {
                    assert!(d.to_tree().is_err());
                }
            }
            Err(e) => assert_eq!(e.error.code, ErrorCode::MalformedFrame),
        }
    }

    #[test]
    fn partial_status_requires_reassembly() {
        let mut bytes = vec![STATUS_OK_PARTIAL];
        bytes.extend_from_slice(&9u64.to_be_bytes());
        bytes.extend_from_slice(b"chunk");
        let err = decode_response(&bytes, Codec::Text).unwrap_err();
        assert_eq!(err.id, 9);
        assert!(err.error.message.contains("unassembled"));
    }

    #[test]
    fn truncations_of_valid_payloads_never_panic() {
        for codec in [Codec::Text, Codec::Binary] {
            for req in sample_requests() {
                let bytes = encode_request(&req);
                for cut in 0..bytes.len() {
                    let _ = decode_request(&bytes[..cut], MAX_DOCS_PER_REQUEST, codec);
                }
            }
            for resp in sample_responses() {
                let bytes = encode_response(&resp);
                for cut in 0..bytes.len() {
                    let _ = decode_response(&bytes[..cut], codec);
                }
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for req in sample_requests() {
            let mut bytes = encode_request(&req);
            bytes.push(0);
            let err = decode_request(&bytes, MAX_DOCS_PER_REQUEST, Codec::Text).unwrap_err();
            assert_eq!(err.error.code, ErrorCode::MalformedFrame);
            assert_eq!(err.id, req.id, "the id must still be echoed");
        }
    }

    #[test]
    fn encode_request_into_appends_after_reserved_framing_bytes() {
        let req = RequestFrame {
            id: 1,
            setting_id: 0,
            body: RequestBody::Ping,
        };
        let mut buf = vec![0u8; 4];
        encode_request_into(&req, &mut buf);
        assert_eq!(&buf[4..], encode_request(&req).as_slice());
    }

    #[test]
    fn unknown_ops_and_doc_limits_carry_codes() {
        let mut bytes = vec![99u8];
        bytes.extend_from_slice(&42u64.to_be_bytes());
        bytes.extend_from_slice(&0u64.to_be_bytes()); // setting id
        let err = decode_request(&bytes, MAX_DOCS_PER_REQUEST, Codec::Text).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::UnknownOp);
        assert_eq!(err.id, 42);

        let req = RequestFrame {
            id: 5,
            setting_id: 0,
            body: RequestBody::CheckConsistency {
                docs: vec![WireDoc::from("db"); 10],
            },
        };
        let bytes = encode_request(&req);
        let err = decode_request(&bytes, 4, Codec::Text).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::TooManyDocs);
        assert_eq!(err.id, 5);
    }

    #[test]
    fn hostile_length_fields_do_not_overallocate() {
        // A string length of u32::MAX with 3 bytes of data must fail
        // cleanly (allocation is bounded by the actual payload).
        for codec in [Codec::Text, Codec::Binary] {
            let mut bytes = vec![OpCode::CertainAnswers as u8];
            bytes.extend_from_slice(&1u64.to_be_bytes());
            bytes.extend_from_slice(&0u64.to_be_bytes()); // setting id
            bytes.extend_from_slice(&u32::MAX.to_be_bytes());
            bytes.extend_from_slice(b"abc");
            let err = decode_request(&bytes, MAX_DOCS_PER_REQUEST, codec).unwrap_err();
            assert_eq!(err.error.code, ErrorCode::MalformedFrame);
        }
    }

    #[test]
    fn every_solution_error_variant_has_a_distinct_code() {
        use xdx_xmltree::ElementType;
        let variants = vec![
            SolutionError::NotFullySpecified { std_index: 0 },
            SolutionError::DisallowedAttribute {
                element: ElementType::new("e"),
                attr: "@a".into(),
            },
            SolutionError::AttributeClash {
                element: ElementType::new("e"),
                attr: "@a".into(),
                values: ("x".into(), "y".into()),
            },
            SolutionError::NoRepair {
                element: ElementType::new("e"),
            },
            SolutionError::NoMaximumRepair {
                element: ElementType::new("e"),
            },
            SolutionError::UnknownTargetElement {
                element: ElementType::new("e"),
            },
            SolutionError::WildcardInTarget { std_index: 1 },
            SolutionError::ChaseBudgetExceeded { steps: 3 },
            SolutionError::RepairBudgetExceeded {
                message: "m".into(),
            },
        ];
        let mut codes: Vec<u16> = variants
            .iter()
            .map(|e| WireError::of_solution_error(e).code as u16)
            .collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len());
        // And every code survives the wire.
        for e in &variants {
            let w = WireError::of_solution_error(e);
            assert_eq!(ErrorCode::from_u16(w.code as u16), Some(w.code));
            assert_eq!(w.message, e.to_string());
        }
    }

    #[test]
    fn settings_framing_round_trips_every_op() {
        for mut req in sample_requests() {
            let default = encode_request(&req);
            req.setting_id = 0x0102_0304_0506_0708;
            let bytes = encode_request(&req);
            // The setting id is exactly the u64 after the request id; the
            // rest of the payload does not depend on it.
            assert_eq!(bytes.len(), default.len());
            assert_eq!(bytes[..9], default[..9]);
            assert_eq!(bytes[9..17], 0x0102_0304_0506_0708u64.to_be_bytes());
            assert_eq!(bytes[17..], default[17..]);
            let back = decode_request(&bytes, MAX_DOCS_PER_REQUEST, Codec::Text).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn settings_truncations_never_panic() {
        for codec in [Codec::Text, Codec::Binary] {
            for mut req in sample_requests() {
                req.setting_id = u64::MAX;
                let bytes = encode_request(&req);
                for cut in 0..bytes.len() {
                    let _ = decode_request(&bytes[..cut], MAX_DOCS_PER_REQUEST, codec);
                }
                let mut bytes = bytes;
                bytes.push(0);
                let err = decode_request(&bytes, MAX_DOCS_PER_REQUEST, codec).unwrap_err();
                assert_eq!(err.error.code, ErrorCode::MalformedFrame);
                assert_eq!(err.id, req.id);
            }
        }
    }

    #[test]
    fn streamed_trees_and_wire_docs_share_bytes() {
        // The server streams solutions with `put_tree`; `encode_response`
        // writes `WireDoc`s with `put_doc`. Both must give the same bytes.
        let tree = xdx_xmltree::parse_tree("db[book(@title=\"T\")[author(@name=\"A\")]]").unwrap();
        for codec in [Codec::Text, Codec::Binary] {
            let (mut streamed, mut whole) = (Vec::new(), Vec::new());
            put_tree(&mut streamed, &tree, codec);
            put_doc(&mut whole, &WireDoc::from_tree(&tree, codec));
            assert_eq!(streamed, whole, "{codec:?}");
        }
    }

    #[test]
    fn setting_responses_reject_bad_booleans() {
        let resp = ResponseFrame {
            id: 3,
            body: ResponseBody::PutSettingOk {
                content_hash: 1,
                reused: false,
            },
        };
        let mut bytes = encode_response(&resp);
        *bytes.last_mut().unwrap() = 2;
        let err = decode_response(&bytes, Codec::Text).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::MalformedFrame);
        assert!(err.error.message.contains("bad boolean"));
    }

    #[test]
    fn new_error_codes_survive_the_wire() {
        for code in [
            ErrorCode::UnknownSetting,
            ErrorCode::SettingParse,
            ErrorCode::SettingReject,
            ErrorCode::SettingLimit,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        const { assert!(SUPPORTED_FEATURES == FEATURE_BINARY_DOCS) };
    }
}
