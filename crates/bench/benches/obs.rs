//! Experiment E18 — observability overhead: the cost of the `xdx-obs`
//! primitives themselves (histogram record, snapshot, trace step), plus
//! the E14 micro-batch workload served with every request traced.
//!
//! The primitive rows bound the per-event cost (a record is a handful of
//! relaxed atomic RMWs; a trace step is one `Instant::now()` plus an
//! add); a traced request pays eight phase steps and about nine
//! histogram records. The `served/{batch}` row is the traced server's
//! throughput on that workload, checked answer by answer.
//!
//! `XDX_BENCH_FAST=1` shrinks the sweep — the CI smoke step uses it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use xdx_bench::{clio_setting, clio_source};
use xdx_obs::{Histogram, Trace};
use xdx_server::{Client, Server, ServerConfig};
use xdx_xmltree::XmlTree;

fn fast_mode() -> bool {
    std::env::var("XDX_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn bench(c: &mut Criterion) {
    let fast = fast_mode();
    let mut group = c.benchmark_group("obs");
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

    // Primitive costs. The record loop cycles values across buckets so the
    // measurement is not one perfectly predicted cache line.
    let hist = Histogram::new();
    group.bench_with_input(BenchmarkId::new("histogram_record", 0), &(), |b, ()| {
        let mut v = 1u64;
        b.iter(|| {
            hist.record(v);
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            v >> 32
        })
    });
    group.bench_with_input(BenchmarkId::new("histogram_snapshot", 0), &(), |b, ()| {
        b.iter(|| hist.snapshot().count)
    });
    group.bench_with_input(BenchmarkId::new("trace_step", 0), &(), |b, ()| {
        let mut t = Trace::new();
        let mut i = 0usize;
        b.iter(|| {
            t.step(i % 8);
            i += 1;
            t.phase_ns(0)
        })
    });

    // End-to-end: the E14 served workload, every request traced.
    let setting = clio_setting(4, 4);
    let batch = if fast { 4 } else { 8 };
    let docs: Vec<XmlTree> = (0..batch)
        .map(|i| clio_source(4, 64, 0xE18_0000 + i as u64))
        .collect();
    let sock = std::env::temp_dir().join(format!("xdx-bench-obs-{}.sock", std::process::id()));
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
        group.bench_with_input(BenchmarkId::new("served", batch), &docs, |b, docs| {
            b.iter(|| {
                let results = client.canonical_solution_docs(docs).expect("served batch");
                assert!(results.iter().all(Result::is_ok));
                results.len()
            })
        });
        control.shutdown();
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
