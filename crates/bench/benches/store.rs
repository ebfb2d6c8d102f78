//! Experiment E16 — the resident document store: what does keeping
//! documents resident actually buy over the ship-per-request path?
//!
//! * `load/*` — cold-start cost of getting documents back after a restart:
//!   opening a checkpointed snapshot (checksum-verified, trees left
//!   undecoded until first access) vs re-parsing the same documents from
//!   tree text (protocol v1) or decoding binary frames (protocol v2). The
//!   `snapshot_touch` row opens *and* materializes every document — the
//!   full deferred cost, for honesty about what lazy loading postpones.
//! * `wal_replay/*` — replay throughput of an edit-heavy WAL over a
//!   snapshot-less directory (the crash-recovery path).
//!
//! `XDX_BENCH_FAST=1` shrinks sampling and sizes for the CI smoke step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::{Path, PathBuf};
use std::time::Duration;
use xdx_bench::clio_source;
use xdx_store::{DocEdit, DocStore, StoreConfig, SyncPolicy};
use xdx_xmltree::binary::{decode_tree, encode_tree};
use xdx_xmltree::{parse_tree, tree_to_text, XmlTree};

fn fast_mode() -> bool {
    std::env::var("XDX_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xdx-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path) -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::new(dir.to_path_buf())
    }
}

fn bench(c: &mut Criterion) {
    let fast = fast_mode();
    let mut group = c.benchmark_group("store");
    if fast {
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(30))
            .measurement_time(Duration::from_millis(120));
    } else {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(900));
    }

    // -- load: snapshot open vs text parse vs binary decode ----------------
    let num_docs = 8usize;
    let docs: Vec<XmlTree> = (0..num_docs)
        .map(|i| clio_source(4, if fast { 32 } else { 256 }, 0xE16 + i as u64))
        .collect();
    let nodes = docs[0].size();
    let texts: Vec<String> = docs.iter().map(tree_to_text).collect();
    let frames: Vec<Vec<u8>> = docs.iter().map(encode_tree).collect();

    let snap_dir = fresh_dir("load");
    {
        let mut store: DocStore = DocStore::open(config(&snap_dir)).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            store.put(i as u64, doc.clone()).unwrap();
        }
        store.checkpoint().unwrap();
    }
    group.bench_with_input(
        BenchmarkId::new(format!("load/snapshot/{num_docs}docs"), nodes),
        &snap_dir,
        |b, dir| {
            b.iter(|| {
                let store: DocStore = DocStore::open(config(dir)).expect("snapshot loads");
                store.len()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("load/snapshot_touch/{num_docs}docs"), nodes),
        &snap_dir,
        |b, dir| {
            b.iter(|| {
                let mut store: DocStore = DocStore::open(config(dir)).expect("snapshot loads");
                let ids: Vec<xdx_store::DocKey> = store.doc_ids().collect();
                ids.into_iter()
                    .map(|id| store.get(id).expect("resident").0.size())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("load/text/{num_docs}docs"), nodes),
        &texts,
        |b, texts| {
            b.iter(|| {
                texts
                    .iter()
                    .map(|t| parse_tree(t).expect("text decodes").size())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("load/binary/{num_docs}docs"), nodes),
        &frames,
        |b, frames| {
            b.iter(|| {
                frames
                    .iter()
                    .map(|f| decode_tree(f).expect("binary decodes").size())
                    .sum::<usize>()
            })
        },
    );

    // -- wal_replay: crash recovery over an edit-heavy log ------------------
    let num_edits = if fast { 64 } else { 512 };
    let wal_dir = fresh_dir("replay");
    {
        let mut store: DocStore = DocStore::open(config(&wal_dir)).unwrap();
        store.put(1, docs[0].clone()).unwrap();
        for i in 0..num_edits {
            store
                .edit(
                    1,
                    0,
                    &[DocEdit::SetAttr {
                        node: (i % nodes) as u32,
                        name: "@bench".into(),
                        value: format!("v{i}").into(),
                    }],
                )
                .unwrap();
        }
        store.sync().unwrap();
    }
    group.bench_with_input(
        BenchmarkId::new("wal_replay/edit_records", num_edits),
        &wal_dir,
        |b, dir| {
            b.iter(|| {
                let store: DocStore = DocStore::open(config(dir)).expect("WAL replays");
                store.wal_len()
            })
        },
    );

    group.finish();
    for dir in [snap_dir, wal_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
