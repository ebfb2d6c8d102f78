//! Workload definitions, seeded inputs, and the client-side model of the
//! stored documents.
//!
//! Every input is generated from the run's seed: shipped documents and
//! stored documents come from `xdx_bench::clio_source` on the Clio setting
//! `clio_setting(4, 4)`, and every random choice a client makes (which
//! document to edit, which edit, which cached document to read) comes from
//! a per-client `StdRng` seeded from the run's seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdx_store::{apply_edits, DocEdit};
use xdx_xmltree::binary::{decode_tree, encode_tree};
use xdx_xmltree::XmlTree;

/// Fields of the Clio setting (`clio_setting(FIELDS, FIELDS)`).
pub const FIELDS: usize = 4;

/// How a workload's clients spend a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Ship a micro-batch (op rotating solve → answer → check), edit a
    /// document of the client's edit pool, read a cached answer of a
    /// document in its query pool.
    Ship,
    /// Edit a stored document, run the rotating op on that same document
    /// (a result-cache miss), read a cached answer of a document whose
    /// answer is still current (a hit).
    Stored,
}

/// One workload: a traffic mix and its input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Concurrent connections, one client thread each (closed loop).
    pub conns: usize,
    /// Cycle shape.
    pub mode: Mode,
    /// Documents per shipped request.
    pub ship_batch: usize,
    /// Field nodes per shipped document.
    pub ship_nodes: usize,
    /// Distinct shipped requests per client (cycled through).
    pub ship_requests: usize,
    /// Stored documents owned by each client.
    pub stored_per_conn: usize,
    /// Field nodes per stored document.
    pub stored_nodes: usize,
    /// Set-ups timed per run (the median is reported).
    pub setups: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 3] = [
    // Serving overhead: one connection, one 16-node document per request.
    // Runnable by name, but not in `BENCHMARK.json`: too unsteady on a
    // shared 2-vCPU host (README.md).
    Spec {
        name: "ship_small",
        conns: 1,
        mode: Mode::Ship,
        ship_batch: 1,
        ship_nodes: 16,
        ship_requests: 64,
        stored_per_conn: 64,
        stored_nodes: 16,
        setups: 21,
    },
    // Engine and codec: two connections, 16 × 256-node documents each.
    Spec {
        name: "ship_batch",
        conns: 2,
        mode: Mode::Ship,
        ship_batch: 16,
        ship_nodes: 256,
        ship_requests: 8,
        stored_per_conn: 32,
        stored_nodes: 256,
        setups: 21,
    },
    // Store: writes beside reads over 512 resident 256-node documents.
    Spec {
        name: "stored_edit",
        conns: 2,
        mode: Mode::Stored,
        ship_batch: 0,
        ship_nodes: 0,
        ship_requests: 0,
        stored_per_conn: 256,
        stored_nodes: 256,
        setups: 5,
    },
];

/// The three exchange services, in rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Canonical solution.
    Solve,
    /// Certain answers of `clio_query()`.
    Answer,
    /// Per-document consistency.
    Check,
}

impl Op {
    /// The op of cycle `k`.
    pub fn of_cycle(k: u64) -> Op {
        [Op::Solve, Op::Answer, Op::Check][(k % 3) as usize]
    }
}

/// Mix a seed with a stream tag (splitmix64 finaliser) so every generator
/// of a run gets an independent, reproducible stream.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shipped requests of client `c`: `spec.ship_requests` batches of
/// `spec.ship_batch` documents.
pub fn ship_inputs(spec: &Spec, seed: u64, c: usize) -> Vec<Vec<XmlTree>> {
    (0..spec.ship_requests)
        .map(|r| {
            (0..spec.ship_batch)
                .map(|d| {
                    let tag = ((c * spec.ship_requests + r) * spec.ship_batch + d) as u64;
                    xdx_bench::clio_source(FIELDS, spec.ship_nodes, mix(seed, 1 << 40 | tag))
                })
                .collect()
        })
        .collect()
}

/// Document id of client `c`'s `i`-th stored document.
pub fn doc_id(c: usize, i: usize) -> u64 {
    ((c as u64) << 32) | i as u64
}

/// What the client knows about one stored document.
pub struct StoredDoc {
    /// Server-side id.
    pub id: u64,
    /// The document as the client's edits leave it.
    pub tree: XmlTree,
    /// Version the server acknowledged for the latest write.
    pub version: u64,
    /// The certain answers last returned for the current version, if an
    /// answer query ran since the last edit (the server then holds them in
    /// its result cache).
    pub answer: Option<Vec<Vec<String>>>,
    /// Preorder-rank cache for [`apply_edits`].
    order: Option<Vec<xdx_xmltree::NodeId>>,
}

impl StoredDoc {
    /// Client `c`'s `i`-th stored document, before the preload.
    pub fn generate(spec: &Spec, seed: u64, c: usize, i: usize) -> StoredDoc {
        let id = doc_id(c, i);
        StoredDoc {
            id,
            tree: xdx_bench::clio_source(FIELDS, spec.stored_nodes, mix(seed, 2 << 40 | id)),
            version: 0,
            answer: None,
            order: None,
        }
    }

    /// Apply an acknowledged edit batch to the model.
    pub fn apply(&mut self, edits: &[DocEdit], version: u64) {
        apply_edits(&mut self.tree, &mut self.order, edits).expect("generated edits apply");
        // Removed nodes stay in the arena; compact like the store does at a
        // checkpoint, so the model's memory does not grow with the request
        // count (`peak_rss_mb` measures the server, not this model).
        if self.tree.arena_len() > 2 * self.tree.size() {
            self.tree = decode_tree(&encode_tree(&self.tree)).expect("own encoding decodes");
            self.order = None;
        }
        self.version = version;
        self.answer = None;
    }

    /// The model's binary encoding (content comparisons).
    pub fn bytes(&self) -> Vec<u8> {
        encode_tree(&self.tree)
    }
}

/// A random edit batch that keeps `doc` conforming to the source DTD
/// (`src → f0* f1* f2* f3*`, every `f` carrying exactly `@v`): half set
/// `@v` of a field node, a quarter insert a field node next to one of the
/// same label (with its `@v`), a quarter remove a field node. The size
/// stays within half and twice the generated size.
pub fn random_edit(rng: &mut StdRng, doc: &StoredDoc, nodes: usize) -> Vec<DocEdit> {
    let root = doc.tree.root();
    let kids = doc.tree.children(root);
    let len = kids.len();
    assert!(
        len > 0,
        "stored documents keep at least half their field nodes"
    );
    let roll = rng.gen_range(0..4u32);
    let fresh = format!("e{}", rng.gen_range(0..(nodes as u64 * 4)));
    let pos = rng.gen_range(0..len);
    if roll == 2 && len < nodes * 2 {
        // Ranks: the root is 0 and its children (all leaves) are 1..=len.
        let label = doc.tree.label(kids[pos]).clone();
        vec![
            DocEdit::InsertChild {
                parent: 0,
                at: pos as u32,
                label,
            },
            DocEdit::SetAttr {
                node: pos as u32 + 1,
                name: "@v".into(),
                value: fresh.into(),
            },
        ]
    } else if roll == 3 && len > nodes.div_ceil(2) {
        vec![DocEdit::RemoveChild {
            parent: 0,
            at: pos as u32,
        }]
    } else {
        vec![DocEdit::SetAttr {
            node: pos as u32 + 1,
            name: "@v".into(),
            value: fresh.into(),
        }]
    }
}

/// A client's random stream.
pub fn client_rng(seed: u64, c: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed, 3 << 40 | c as u64))
}
