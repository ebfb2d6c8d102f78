//! Experiment E17 — the multi-tenant setting registry: what does the
//! content-addressed compiled-setting cache buy, and what does an eviction
//! cost to undo?
//!
//! * `put_cold` — uploading a never-seen setting text: parse + semantic
//!   validation + engine compilation, the full admission path.
//! * `put_hit` — re-uploading byte-identical text: canonicalize + hash +
//!   artifact reuse under the registry lock; this is the multi-tenant
//!   steady state (every replica of a tenant uploads the same text).
//! * `request_compiled` — a canonical-solution request addressed to a
//!   setting whose artifact is resident: the per-request resolve is a hash
//!   lookup plus an `Arc` clone.
//! * `request_recompile` — the same request after `EvictSetting`: resolve
//!   recompiles from the retained canonical text on demand, which prices
//!   exactly what the LRU trades away under cost pressure.
//!
//! All rows go over a loopback Unix socket, every request naming its
//! setting id, so they include the wire cost a real tenant pays.
//! `XDX_BENCH_FAST=1` shrinks sampling for the CI smoke step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdx_server::{Client, Server, ServerConfig};
use xdx_xmltree::XmlTree;

fn fast_mode() -> bool {
    std::env::var("XDX_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A small self-contained exchange setting; `salt` lands in an attribute
/// name so every salt yields a distinct canonical text (and content hash)
/// that still compiles.
fn items_text(salt: u64) -> String {
    format!(
        "source {{ root db; rule db = item*; rule item = eps; \
         attrs item = @k, @s{salt}; }} \
         target {{ root out; rule out = rec*; rule rec = eps; \
         attrs rec = @k; }} \
         std out[rec(@k=$x)] :- db[item(@k=$x)];"
    )
}

/// A document conforming to the `items` source DTD.
fn item_doc(n: usize) -> XmlTree {
    let mut t = XmlTree::new("db");
    for k in 0..n {
        let item = t.add_child(t.root(), "item");
        t.set_attr(item, "@k", format!("K{k}"));
    }
    t
}

fn bench(c: &mut Criterion) {
    let fast = fast_mode();
    let mut group = c.benchmark_group("registry");
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

    let setting = xdx_core::settext::parse_setting(&items_text(0)).expect("bench setting parses");
    let sock = std::env::temp_dir().join(format!("xdx-bench-registry-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    std::thread::scope(|scope| {
        let config = ServerConfig {
            workers: 2,
            // Cold puts rebind one id with ever-new text; keep the cost
            // budget tight so stale artifacts rotate out instead of
            // growing the compiled map for the whole run.
            max_compiled_cost: 1 << 16,
            ..ServerConfig::default()
        };
        let server = Server::bind(&setting, None, Some(&sock), config).expect("bind bench server");
        let control = server.control();
        scope.spawn(move || server.run());
        let mut client = Client::connect_unix(&sock).expect("connect bench client");

        // -- put_cold: a never-seen text every iteration --------------------
        let mut salt = 1u64;
        group.bench_function("put_cold", |b| {
            b.iter(|| {
                salt += 1;
                let (hash, reused) = client.put_setting(1, &items_text(salt)).unwrap();
                assert!(!reused, "salted text must be a fresh compile");
                hash
            })
        });

        // -- put_hit: byte-identical re-upload ------------------------------
        let fixed = items_text(1);
        client.put_setting(2, &fixed).unwrap();
        group.bench_function("put_hit", |b| {
            b.iter(|| {
                let (hash, reused) = client.put_setting(2, &fixed).unwrap();
                assert!(reused, "identical text must hit the cache");
                hash
            })
        });

        // -- request_compiled vs request_recompile --------------------------
        let doc = [item_doc(if fast { 8 } else { 64 })];
        client.set_setting(2);
        group.bench_function("request_compiled", |b| {
            b.iter(|| {
                let results = client.canonical_solution_docs(&doc).unwrap();
                assert!(results.iter().all(Result::is_ok));
                results.len()
            })
        });
        group.bench_function("request_recompile", |b| {
            b.iter(|| {
                assert!(client.evict_setting(2).unwrap(), "artifact was resident");
                let results = client.canonical_solution_docs(&doc).unwrap();
                assert!(results.iter().all(Result::is_ok));
                results.len()
            })
        });

        control.shutdown();
    });
    let _ = std::fs::remove_file(&sock);
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
