//! Direct replay of a served request through each layer's public functions,
//! with a span around every call (traced runs only).
//!
//! The replay runs the same stages the server runs for the same input:
//! binary decode, conformance, canonical pre-solution, chase, solution
//! index, query evaluation and binary encode; stored ops run against a
//! private [`DocStore`] that receives the same puts and edits under the
//! server's flush policy (`fsync` every 256 KiB of WAL, checkpoint at
//! 8 MiB). The replay's results are compared with the served ones, so a
//! traced run also checks the server against the layers it is built from.

use crate::model::Op;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;
use xdx_core::cache::CacheKey;
use xdx_core::certain::certain_tuples_planned_with;
use xdx_core::{CompiledSetting, ExchangeScratch};
use xdx_patterns::plan::{EvalScratch, QueryPlan, TreeIndex};
use xdx_patterns::query::UnionQuery;
use xdx_store::{DocEdit, DocStore, StoreConfig};
use xdx_xmltree::binary::{decode_tree, encode_tree};
use xdx_xmltree::{NullGen, XmlTree};

/// The server's checkpoint threshold (`ServerConfig::default()`).
pub const CHECKPOINT_BYTES: u64 = xdx_xmltree::limits::DEFAULT_FRAME_BYTES as u64;

/// One op's result in comparable form.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Canonical solutions, binary-encoded.
    Solutions(Vec<Vec<u8>>),
    /// Certain-answer tuples per document.
    Answers(Vec<Vec<Vec<String>>>),
    /// Consistency verdicts per document.
    Checks(Vec<bool>),
}

/// Engine-side replay state of one client thread.
pub struct Replay<'s> {
    compiled: &'s CompiledSetting<'s>,
    query: &'s UnionQuery,
    scratch: ExchangeScratch,
    index: TreeIndex,
    eval: EvalScratch,
    /// Largest assignment store seen (presolution and query evaluation).
    pub assign_highwater: usize,
    /// Documents decoded or encoded, and their bytes.
    pub codec_docs: u64,
    /// Bytes of those documents.
    pub codec_bytes: u64,
}

impl<'s> Replay<'s> {
    /// Replay state over `compiled` answering `query`.
    pub fn new(compiled: &'s CompiledSetting<'s>, query: &'s UnionQuery) -> Replay<'s> {
        Replay {
            compiled,
            query,
            scratch: ExchangeScratch::new(),
            index: TreeIndex::empty(),
            eval: EvalScratch::new(),
            assign_highwater: 0,
            codec_docs: 0,
            codec_bytes: 0,
        }
    }

    /// Replay a shipped request: decode every document, run `op`, encode
    /// solutions.
    pub fn ship(&mut self, t: &mut Tracer, op: Op, docs: &[Vec<u8>]) -> Result<Outcome, String> {
        let plan = (op == Op::Answer).then(|| {
            t.span("plan.build", |_| {
                QueryPlan::new(self.query, self.compiled.target_dtd())
            })
        });
        let mut trees = Vec::with_capacity(docs.len());
        for bytes in docs {
            self.codec_docs += 1;
            self.codec_bytes += bytes.len() as u64;
            let tree = t.span("codec.decode", |_| decode_tree(bytes));
            trees.push(tree.map_err(|e| format!("input does not decode: {e}"))?);
        }
        let outcome = self.run(t, op, &trees, plan.as_ref());
        t.span("mem.free", |_| drop(trees));
        outcome
    }

    /// Decode replies the way a client reading them does (stored solves).
    pub fn decode_reply(&mut self, t: &mut Tracer, outcome: &Outcome) -> Result<(), String> {
        if let Outcome::Solutions(docs) = outcome {
            for bytes in docs {
                self.codec_docs += 1;
                self.codec_bytes += bytes.len() as u64;
                let tree = t.span("codec.decode", |_| decode_tree(bytes));
                let tree = tree.map_err(|e| format!("solution does not decode: {e}"))?;
                t.span("mem.free", |_| drop(tree));
            }
        }
        Ok(())
    }

    /// Run `op` on decoded documents (`plan` is required for answers).
    pub fn run(
        &mut self,
        t: &mut Tracer,
        op: Op,
        trees: &[XmlTree],
        plan: Option<&QueryPlan>,
    ) -> Result<Outcome, String> {
        Ok(match op {
            Op::Solve => {
                let mut out = Vec::with_capacity(trees.len());
                for tree in trees {
                    let solution = self.solution(t, tree)?;
                    let bytes = t.span("codec.encode", |_| encode_tree(&solution));
                    t.span("mem.free", |_| drop(solution));
                    self.codec_docs += 1;
                    self.codec_bytes += bytes.len() as u64;
                    out.push(bytes);
                }
                Outcome::Solutions(out)
            }
            Op::Answer => {
                let plan = plan.expect("answers need a plan");
                let mut out = Vec::with_capacity(trees.len());
                for tree in trees {
                    out.push(t.span("core.answer", |t| self.answer(t, tree, plan))?);
                }
                Outcome::Answers(out)
            }
            Op::Check => Outcome::Checks(
                trees
                    .iter()
                    .map(|tree| t.span("core.check", |t| self.check(t, tree)))
                    .collect(),
            ),
        })
    }

    /// A fresh plan of the workload's query (what the server builds per
    /// answer request).
    pub fn plan(&self, t: &mut Tracer) -> QueryPlan {
        t.span("plan.build", |_| {
            QueryPlan::new(self.query, self.compiled.target_dtd())
        })
    }

    fn solution(&mut self, t: &mut Tracer, source: &XmlTree) -> Result<XmlTree, String> {
        let solution = t.span("core.solution", |t| {
            let mut nulls = NullGen::new();
            let mut tree = t.span("core.presolution", |_| {
                self.compiled
                    .canonical_presolution_with(source, &mut nulls, &mut self.scratch)
            })?;
            t.span("core.chase", |_| self.compiled.chase(&mut tree, &mut nulls))?;
            Ok::<_, xdx_core::SolutionError>(tree)
        });
        self.assign_highwater = self.assign_highwater.max(self.scratch.assign_highwater());
        solution.map_err(|e| format!("canonical solution failed: {e}"))
    }

    fn answer(
        &mut self,
        t: &mut Tracer,
        source: &XmlTree,
        plan: &QueryPlan,
    ) -> Result<Vec<Vec<String>>, String> {
        let solution = self.solution(t, source)?;
        t.span("plan.index", |_| {
            self.index.rebuild(&solution, self.compiled.target_dtd())
        });
        let tuples = t.span("plan.query", |_| {
            certain_tuples_planned_with(&solution, plan, &self.index, &mut self.eval)
        });
        self.assign_highwater = self.assign_highwater.max(self.eval.assign_highwater());
        Ok(tuples.into_iter().collect())
    }

    fn check(&mut self, t: &mut Tracer, source: &XmlTree) -> bool {
        t.span("dtd.conforms", |_| {
            self.compiled.source_dtd().conforms(source)
        }) && self.solution(t, source).is_ok()
    }
}

/// A private document store replaying the served puts and edits.
pub struct PrivateStore {
    store: DocStore<Outcome>,
    query_key: String,
    /// Put latencies, nanoseconds.
    pub put_ns: Vec<u64>,
    /// Edit latencies (including any checkpoint they trigger), nanoseconds.
    pub edit_ns: Vec<u64>,
    /// Document fetch latencies (get + copy out), nanoseconds.
    pub get_ns: Vec<u64>,
    /// WAL bytes appended by edits that did not checkpoint, and their count.
    pub wal_edit_bytes: (u64, u64),
}

impl PrivateStore {
    /// Open a fresh store in `dir` with the server's flush policy.
    pub fn open(dir: &Path, query: &UnionQuery) -> PrivateStore {
        PrivateStore {
            store: DocStore::open(StoreConfig::new(dir)).expect("private store opens"),
            query_key: query.to_string(),
            put_ns: Vec::new(),
            edit_ns: Vec::new(),
            get_ns: Vec::new(),
            wal_edit_bytes: (0, 0),
        }
    }

    /// Store a document.
    pub fn put(&mut self, id: u64, tree: &XmlTree) {
        let start = Instant::now();
        self.store.put(id, tree.clone()).expect("private put");
        self.maybe_checkpoint();
        self.put_ns.push(elapsed_ns(start));
    }

    /// Apply an edit batch.
    pub fn edit(&mut self, t: &mut Tracer, id: u64, edits: &[DocEdit]) {
        let start = Instant::now();
        let before = self.store.wal_len();
        t.span("store.edit", |_| {
            self.store.edit(id, 0, edits).expect("private edit");
        });
        let after = self.store.wal_len();
        t.span("store.checkpoint", |_| self.maybe_checkpoint());
        self.edit_ns.push(elapsed_ns(start));
        if after >= before {
            self.wal_edit_bytes.0 += after - before;
            self.wal_edit_bytes.1 += 1;
        }
    }

    /// Run `op` on a stored document the way the server does on a cache
    /// miss: copy the document out, compute, cache the result.
    pub fn miss(
        &mut self,
        t: &mut Tracer,
        replay: &mut Replay<'_>,
        id: u64,
        op: Op,
    ) -> Result<Outcome, String> {
        let start = Instant::now();
        let (tree, version) = t.span("store.get", |_| {
            let (tree, version) = self.store.get(id).expect("private doc resident");
            (tree.clone(), version)
        });
        self.get_ns.push(elapsed_ns(start));
        let plan = (op == Op::Answer).then(|| replay.plan(t));
        let outcome = replay.run(t, op, std::slice::from_ref(&tree), plan.as_ref())?;
        t.span("mem.free", |_| drop(tree));
        replay.decode_reply(t, &outcome)?;
        let key = self.cache_key(op);
        t.span("store.cache_insert", |_| {
            if let Some(cache) = self.store.result_cache(id) {
                cache.insert(key, version, outcome.clone());
            }
        });
        Ok(outcome)
    }

    /// Read the cached answer of a document (a result-cache hit).
    pub fn cached(&mut self, t: &mut Tracer, id: u64) -> Option<Outcome> {
        let key = self.cache_key(Op::Answer);
        t.span("store.cache_get", |_| {
            self.store
                .result_cache(id)
                .and_then(|c| c.get(&key).cloned())
        })
    }

    /// Checkpoint now; returns its wall time in nanoseconds.
    pub fn checkpoint(&mut self) -> u64 {
        let start = Instant::now();
        self.store.checkpoint().expect("private checkpoint");
        elapsed_ns(start)
    }

    fn cache_key(&self, op: Op) -> CacheKey {
        match op {
            Op::Solve => CacheKey::CanonicalSolution,
            Op::Answer => CacheKey::CertainAnswers(self.query_key.clone()),
            Op::Check => CacheKey::Consistency,
        }
    }

    fn maybe_checkpoint(&mut self) {
        if self.store.wal_len() >= CHECKPOINT_BYTES {
            self.store.checkpoint().expect("private checkpoint");
        }
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
