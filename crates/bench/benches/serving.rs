//! Experiment E14 — serving overhead: requests/sec over a loopback Unix
//! socket (the `xdx-server` front-end: framing + document codec + event
//! loop + worker handoff) vs direct single-threaded `BatchEngine` calls on
//! the same documents.
//!
//! One request carries one micro-batch of `batch` documents (sizes 1/8/64),
//! and each document runs the full canonical-solution pipeline, so the rows
//! isolate the per-request wire cost at different amortisation levels: at
//! batch 1 the framing/parse cost dominates; by batch 64 the server should
//! sit within a few percent of the direct call.
//!
//! The served rows run once per wire codec — `text` (tree text) and
//! `binary` (`Hello`-negotiated preorder frames) — so the codec's share of
//! the wire overhead is directly visible.
//! `XDX_WIRE_CODEC=text|binary` restricts the sweep to one codec. Both
//! codec rows use the no-decode client path ([`Client::canonical_solution_docs`]),
//! so they measure the wire, not the client's parser.
//!
//! `XDX_BENCH_FAST=1` shrinks the sweep and measurement windows — the CI
//! smoke step uses it so the bench (and the server it spins up) cannot rot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use xdx_bench::{clio_setting, clio_source};
use xdx_core::engine::BatchEngine;
use xdx_server::{Client, Server, ServerConfig};
use xdx_xmltree::XmlTree;

fn fast_mode() -> bool {
    std::env::var("XDX_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Codecs to sweep: both by default, one if `XDX_WIRE_CODEC` names it.
fn codecs() -> Vec<&'static str> {
    match std::env::var("XDX_WIRE_CODEC").as_deref() {
        Ok("text") => vec!["text"],
        Ok("binary") => vec!["binary"],
        _ => vec!["text", "binary"],
    }
}

fn bench(c: &mut Criterion) {
    let fast = fast_mode();
    let mut group = c.benchmark_group("serving");
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

    let setting = clio_setting(4, 4);
    // A served request runs all its documents on the one worker that took
    // it, so the direct rows run on one thread too: served − direct is then
    // the wire cost, not a difference in parallelism.
    let engine = BatchEngine::new(&setting).parallelism(1);
    let batches: &[usize] = if fast { &[1, 8] } else { &[1, 8, 64] };
    let docs: Vec<XmlTree> = (0..64)
        .map(|i| clio_source(4, 64, 0xE14_0000 + i as u64))
        .collect();

    let sock = std::env::temp_dir().join(format!("xdx-bench-serving-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    std::thread::scope(|scope| {
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::bind(&setting, None, Some(&sock), config).expect("bind bench server");
        let control = server.control();
        scope.spawn(move || server.run());
        let mut client = Client::connect_unix(&sock).expect("connect bench client");
        client.ping().expect("bench server alive");

        for &batch in batches {
            let slice = &docs[..batch];
            group.bench_with_input(
                BenchmarkId::new("direct/canonical_solutions", batch),
                &slice,
                |b, slice| {
                    b.iter(|| {
                        let results = engine.canonical_solutions_batch(slice);
                        assert!(results.iter().all(Result::is_ok));
                        results.len()
                    })
                },
            );
        }

        for codec in codecs() {
            // One fresh connection per codec; the binary one negotiates the
            // binary document codec.
            let mut client = Client::connect_unix(&sock).expect("connect bench client");
            if codec == "binary" {
                client.use_binary().expect("negotiate binary codec");
            }
            for &batch in batches {
                let slice = &docs[..batch];
                group.bench_with_input(
                    BenchmarkId::new(format!("served/canonical_solutions/{codec}"), batch),
                    &slice,
                    |b, slice| {
                        b.iter(|| {
                            let results =
                                client.canonical_solution_docs(slice).expect("served batch");
                            assert!(results.iter().all(Result::is_ok));
                            results.len()
                        })
                    },
                );
            }
        }

        // The cheapest possible request: wire + event-loop round-trip floor.
        group.bench_with_input(BenchmarkId::new("served/ping", 0), &(), |b, ()| {
            b.iter(|| client.ping().expect("ping"))
        });

        control.shutdown();
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
