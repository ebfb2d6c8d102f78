//! Crash-recovery and random-edit tests for `xdx-store`.
//!
//! * **Kill-at-any-point WAL recovery** — exhaustively cut the log at every
//!   byte boundary (with and without a snapshot underneath) and assert the
//!   reopened store holds exactly the state after the operations whose
//!   records survived the cut: recovery is *prefix-consistent*, never a
//!   torn mixture.
//! * **Corruption fuzzing** — random byte flips, truncations and appended
//!   garbage never panic the loader, and the recovered state is still some
//!   operation prefix.
//! * **Random-edit differential** (the CI deep sweep scales its case count
//!   with `PROPTEST_CASES`) — every random edit batch through
//!   `DocStore::edit` must leave exactly the tree `apply_edits` makes from
//!   a text re-parse of the previous document, a rejected batch must leave
//!   tree and version alone, and a reopen must restore every document and
//!   version.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xml_data_exchange::store::{
    apply_edits, DocEdit, DocStore, StoreConfig, StoreError, SyncPolicy, SNAPSHOT_FILE, WAL_FILE,
};
use xml_data_exchange::xmltree::{parse_tree, tree_to_text, AttrName, ElementType, NodeId, Value};
use xml_data_exchange::XmlTree;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xdx-store-test-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path) -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::new(dir)
    }
}

/// The full observable document state: id → (canonical text, version).
/// (`get` takes `&mut` because lazily loaded documents decode on access.)
fn state(store: &mut DocStore) -> BTreeMap<u64, (String, u64)> {
    let ids: Vec<xdx_store::DocKey> = store.doc_ids().collect();
    ids.into_iter()
        .map(|key| {
            let (tree, version) = store.get(key).unwrap();
            (key.doc, (tree_to_text(tree), version))
        })
        .collect()
}

fn doc(text: &str) -> XmlTree {
    parse_tree(text).unwrap()
}

fn set_attr(node: u32, name: &str, value: &str) -> DocEdit {
    DocEdit::SetAttr {
        node,
        name: AttrName::new(name),
        value: Value::constant(value),
    }
}

/// A scripted mutation against a running store, applied through the public
/// API so each one appends exactly one WAL record.
enum Op {
    Put(u64, &'static str),
    Edit(u64, Vec<DocEdit>),
    Delete(u64),
}

fn apply(store: &mut DocStore, op: &Op) {
    match op {
        Op::Put(id, text) => {
            store.put(*id, doc(text)).unwrap();
        }
        Op::Edit(id, edits) => {
            store.edit(*id, 0, edits).unwrap();
        }
        Op::Delete(id) => store.delete(*id).unwrap(),
    }
}

/// A recovery boundary: the WAL byte offset after an op, and the full
/// store state at that point.
type Boundary = (u64, BTreeMap<u64, (String, u64)>);

/// Run `ops` in `dir`, recording the (wal byte offset, state) boundary
/// after each one — including the initial boundary before any op.
fn run_script(dir: &Path, ops: &[Op]) -> Vec<Boundary> {
    let mut store: DocStore = DocStore::open(config(dir)).unwrap();
    let mut boundaries = vec![(store.wal_len(), state(&mut store))];
    for op in ops {
        apply(&mut store, op);
        boundaries.push((store.wal_len(), state(&mut store)));
    }
    store.sync().unwrap();
    boundaries
}

/// Kill-at-any-point: for every prefix of the WAL in `dir`, a fresh store
/// opened over that prefix (plus whatever snapshot `dir` holds) must land
/// exactly on the last operation boundary at or before the cut.
fn assert_prefix_consistent_recovery(dir: &Path, boundaries: &[Boundary]) {
    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let snap_bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).ok();
    for cut in 0..=wal_bytes.len() {
        let crash = fresh_dir("crash");
        if let Some(snap) = &snap_bytes {
            std::fs::write(crash.join(SNAPSHOT_FILE), snap).unwrap();
        }
        std::fs::write(crash.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
        let mut recovered: DocStore = DocStore::open(config(&crash)).unwrap();
        let expect = boundaries
            .iter()
            .rev()
            .find(|(boundary, _)| *boundary as usize <= cut)
            .map(|(_, s)| s)
            .expect("the pre-op boundary is at offset 0");
        assert_eq!(
            &state(&mut recovered),
            expect,
            "recovery from a {cut}-byte WAL prefix is not an op boundary"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&crash);
    }
}

fn script() -> Vec<Op> {
    vec![
        Op::Put(1, "db[book(@title=\"CO\")[author(@name=\"P\")]]"),
        Op::Put(2, "db[book(@title=\"TCS\")]"),
        Op::Edit(1, vec![set_attr(1, "@title", "CO2")]),
        Op::Edit(
            1,
            vec![
                DocEdit::InsertChild {
                    parent: 0,
                    at: 1,
                    label: ElementType::new("book"),
                },
                set_attr(3, "@title", "New"),
            ],
        ),
        Op::Delete(2),
        Op::Put(2, "db[book(@title=\"Again\")]"),
        Op::Edit(2, vec![DocEdit::RemoveChild { parent: 0, at: 0 }]),
    ]
}

#[test]
fn wal_recovery_is_prefix_consistent_at_every_byte() {
    let dir = fresh_dir("kill");
    let boundaries = run_script(&dir, &script());
    assert_prefix_consistent_recovery(&dir, &boundaries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_recovery_over_a_snapshot_is_prefix_consistent_at_every_byte() {
    let dir = fresh_dir("kill-snap");
    // Establish a snapshot baseline, then a post-checkpoint WAL tail; a
    // crash replays the tail over the snapshot.
    {
        let mut store: DocStore = DocStore::open(config(&dir)).unwrap();
        for op in &script() {
            apply(&mut store, op);
        }
        store.checkpoint().unwrap();
        assert_eq!(store.wal_len(), 0, "checkpoint must reset the WAL");
    }
    let mut store: DocStore = DocStore::open(config(&dir)).unwrap();
    let mut boundaries = vec![(store.wal_len(), state(&mut store))];
    let tail = vec![
        Op::Edit(1, vec![set_attr(0, "@x", "post")]),
        Op::Put(3, "db[book(@title=\"Third\")]"),
        Op::Delete(1),
    ];
    for op in &tail {
        apply(&mut store, op);
        boundaries.push((store.wal_len(), state(&mut store)));
    }
    store.sync().unwrap();
    drop(store);
    assert_prefix_consistent_recovery(&dir, &boundaries);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The number of cases for one property: the env override when set,
/// `default` otherwise.
fn cases(default: u32) -> u32 {
    ProptestConfig::env_cases().unwrap_or(default)
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.next_u64() as usize % items.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(160)))]

    /// Any single corruption of the WAL — a flipped byte, a truncation, or
    /// appended garbage — must neither panic the loader nor produce a state
    /// that is not an operation prefix. (A flipped byte fails the record's
    /// checksum, so replay stops *at* the corrupted record; everything
    /// after it is discarded even if intact, which is exactly the
    /// prefix-consistency contract.)
    #[test]
    fn corrupted_wals_recover_to_an_op_prefix_without_panicking(
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::new(seed);
        let dir = fresh_dir("fuzz");
        let boundaries = run_script(&dir, &script());
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        prop_assert!(!bytes.is_empty());
        match rng.next_u64() % 3 {
            0 => {
                let at = rng.next_u64() as usize % bytes.len();
                let mask = (rng.next_u64() % 255 + 1) as u8;
                bytes[at] ^= mask;
            }
            1 => {
                let cut = rng.next_u64() as usize % bytes.len();
                bytes.truncate(cut);
            }
            _ => {
                for _ in 0..rng.next_u64() % 40 + 1 {
                    bytes.push(rng.next_u64() as u8);
                }
            }
        }
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let mut recovered: DocStore = DocStore::open(config(&dir)).unwrap();
        let got = state(&mut recovered);
        prop_assert!(
            boundaries.iter().any(|(_, s)| *s == got),
            "recovered state is not an operation prefix: {got:?}"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Random-edit differential
// ---------------------------------------------------------------------------

/// A random tree over the alphabet of the E13 chase setting's target
/// (`doc -> sec* meta?`, `sec -> title par*`, attributes `sec@id`,
/// `title@t`, `par@w`), plus the undeclared label `z` at low probability.
fn random_doc_tree(rng: &mut TestRng, budget: usize) -> XmlTree {
    let mut tree = XmlTree::new("doc");
    let mut nodes = 1usize;
    while nodes < budget {
        let sec = tree.add_child(tree.root(), "sec");
        nodes += 1;
        if !rng.next_u64().is_multiple_of(4) {
            tree.set_attr(sec, "@id", format!("s{}", rng.next_u64() % 3));
        }
        for _ in 0..rng.next_u64() % 3 {
            if nodes >= budget {
                break;
            }
            let label = *pick(rng, &["title", "par", "par", "z"]);
            let child = tree.add_child(sec, label);
            nodes += 1;
            match label {
                "title" if !rng.next_u64().is_multiple_of(4) => {
                    tree.set_attr(child, "@t", *pick(rng, &["a", "b"]));
                }
                "par" if !rng.next_u64().is_multiple_of(4) => {
                    tree.set_attr(child, "@w", "w");
                }
                _ => {}
            }
        }
    }
    if rng.next_u64().is_multiple_of(2) {
        tree.add_child(tree.root(), "meta");
    }
    tree
}

/// One random edit batch against the current tree: ranks drawn from the
/// live preorder, labels/attributes mostly in-alphabet with occasional
/// off-model choices. Batches may be invalid (out-of-range position,
/// missing attribute) — the store must reject those atomically, which the
/// differential exercises for free.
fn random_edit_batch(rng: &mut TestRng, tree: &XmlTree) -> Vec<DocEdit> {
    let order: Vec<NodeId> = tree.preorder().collect();
    let n = order.len() as u64;
    let mut edits = Vec::new();
    for _ in 0..rng.next_u64() % 3 + 1 {
        let rank = (rng.next_u64() % n) as u32;
        let node = order[rank as usize];
        let edit = match rng.next_u64() % 5 {
            0 => {
                let label = match tree.label(node).as_str() {
                    "doc" => *pick(rng, &["sec", "meta", "z"]),
                    "sec" => *pick(rng, &["title", "par"]),
                    _ => *pick(rng, &["par", "z"]),
                };
                DocEdit::InsertChild {
                    parent: rank,
                    at: (rng.next_u64() % (tree.children(node).len() as u64 + 1)) as u32,
                    label: ElementType::new(label),
                }
            }
            1 => DocEdit::RemoveChild {
                parent: rank,
                // Sometimes out of range on leaves: a rejected batch.
                at: (rng.next_u64() % (tree.children(node).len() as u64 + 1)) as u32,
            },
            2 | 3 => {
                let name = *pick(rng, &["@id", "@t", "@w", "@x"]);
                set_attr(rank, name, &format!("c{}", rng.next_u64() % 3))
            }
            _ => DocEdit::RemoveAttr {
                node: rank,
                name: AttrName::new(*pick(rng, &["@id", "@t", "@w"])),
            },
        };
        edits.push(edit);
    }
    edits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(192)))]

    /// After every random edit batch through `DocStore::edit`, the
    /// resident tree must equal `apply_edits` run on a text re-parse of
    /// the previous document; a batch that `apply_edits` rejects must be
    /// rejected by the store with the same error, leaving the tree and the
    /// version unchanged. Checkpoints at random rounds put arena
    /// compaction and snapshot frames under the same check, and a reopen
    /// must restore every document and version.
    #[test]
    fn random_edit_batches_equal_apply_edits_on_a_reparse(
        seed in 0u64..u64::MAX,
        budget in 2usize..20,
        rounds in 1usize..8,
    ) {
        let mut rng = TestRng::new(seed);
        let dir = fresh_dir("edit-diff");
        let mut store: DocStore = DocStore::open(config(&dir)).unwrap();
        store.put(7, random_doc_tree(&mut rng, budget)).unwrap();
        for _ in 0..rounds {
            let (tree, before_version) = store.get(7).unwrap();
            let before = tree_to_text(tree);
            let batch = random_edit_batch(&mut rng, tree);
            let mut expected = parse_tree(&before).unwrap();
            let verdict = apply_edits(&mut expected, &mut None, &batch).map(|_| ());
            let got = store.edit(7, 0, &batch);
            let (tree, version) = store.get(7).unwrap();
            match (verdict, got) {
                (Ok(()), Ok(new_version)) => {
                    prop_assert!(new_version > before_version);
                    prop_assert_eq!(version, new_version);
                    prop_assert_eq!(tree_to_text(tree), tree_to_text(&expected));
                }
                (Err(want), Err(StoreError::BadEdit(err))) => {
                    prop_assert_eq!(err, want);
                    prop_assert_eq!(version, before_version);
                    prop_assert_eq!(tree_to_text(tree), before);
                }
                (verdict, got) => prop_assert!(
                    false,
                    "verdicts diverged on {before}: apply_edits {verdict:?}, store {got:?}"
                ),
            }
            if rng.next_u64().is_multiple_of(4) {
                store.checkpoint().unwrap();
            }
        }
        let live = state(&mut store);
        drop(store);
        let mut reopened: DocStore = DocStore::open(config(&dir)).unwrap();
        prop_assert_eq!(state(&mut reopened), live);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
