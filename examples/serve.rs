//! Serve the running example over the wire — and smoke-test it.
//!
//! Server mode (runs until drained or killed; the CI smoke step writes
//! `drain` to its stdin — or just closes it — for a graceful exit that
//! flushes in-flight responses, answers new requests with `GoAway` and
//! checkpoints the store):
//!
//! ```text
//! cargo run --release --example serve -- --unix /tmp/xdx.sock
//! cargo run --release --example serve -- --tcp 127.0.0.1:7878
//! cargo run --release --example serve -- --tcp 127.0.0.1:0 --unix /tmp/xdx.sock
//! ```
//!
//! Client smoke mode (connects, runs every operation once, verifies the
//! results against in-process oracles, exits non-zero on any mismatch):
//!
//! ```text
//! cargo run --release --example serve -- --client-smoke /tmp/xdx.sock
//! cargo run --release --example serve -- --client-smoke 127.0.0.1:7878
//! cargo run --release --example serve -- --client-smoke /tmp/xdx.sock --codec binary
//! ```
//!
//! `--codec text` (the default) ships documents as tree text; `--codec
//! binary` negotiates the binary document frames via `Hello` first, so the
//! CI smoke step exercises both document codecs.
//!
//! The served setting is the paper's books→writers running example
//! (Figures 1 and 2), so the smoke client's documents are Figure 1(b).

use std::path::Path;
use xdx_server::{Client, Server, ServerConfig};
use xml_data_exchange::core::certain_answers;
use xml_data_exchange::core::setting::{books_to_writers_setting, figure_1_source_tree};
use xml_data_exchange::patterns::{parse_pattern, ConjunctiveTreeQuery, UnionQuery};
use xml_data_exchange::xmltree::tree_to_text;
use xml_data_exchange::XmlTree;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut smoke: Option<String> = None;
    let mut codec = "text".to_string();
    let mut stats_every: Option<u64> = None;
    let mut slow_ms: Option<u64> = None;
    let usage = "usage: serve [--tcp ADDR] [--unix PATH] [--stats-every SECS] [--slow-ms N] | --client-smoke TARGET [--codec text|binary]";
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => {
                tcp = Some(args.get(i + 1).expect("--tcp needs an address").clone());
                i += 2;
            }
            "--unix" => {
                unix = Some(args.get(i + 1).expect("--unix needs a path").clone());
                i += 2;
            }
            "--client-smoke" => {
                smoke = Some(
                    args.get(i + 1)
                        .expect("--client-smoke needs a socket path or address")
                        .clone(),
                );
                i += 2;
            }
            "--codec" => {
                codec = args.get(i + 1).expect("--codec needs text|binary").clone();
                i += 2;
            }
            "--stats-every" => {
                stats_every = Some(
                    args.get(i + 1)
                        .expect("--stats-every needs seconds")
                        .parse()
                        .expect("--stats-every takes an integer number of seconds"),
                );
                i += 2;
            }
            "--slow-ms" => {
                slow_ms = Some(
                    args.get(i + 1)
                        .expect("--slow-ms needs milliseconds")
                        .parse()
                        .expect("--slow-ms takes an integer number of milliseconds"),
                );
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    let binary = match codec.as_str() {
        "text" => false,
        "binary" => true,
        other => {
            eprintln!("unknown codec {other} (expected text or binary)");
            std::process::exit(2);
        }
    };

    if let Some(target) = smoke {
        client_smoke(&target, binary);
        return;
    }
    if tcp.is_none() && unix.is_none() {
        eprintln!("{usage}");
        std::process::exit(2);
    }

    let setting = books_to_writers_setting();
    let config = ServerConfig {
        slow_request_threshold: slow_ms.map(std::time::Duration::from_millis),
        ..ServerConfig::default()
    };
    let server = Server::bind(
        &setting,
        tcp.as_deref(),
        unix.as_deref().map(Path::new),
        config,
    )
    .expect("bind listeners");
    if let Some(addr) = server.tcp_addr() {
        println!("serving books→writers on tcp://{addr}");
    }
    if let Some(path) = &unix {
        println!("serving books→writers on unix://{path}");
    }
    println!("protocol: crates/server/PROTOCOL.md (ops: ping, consistency, solution, answers)");
    // A `drain` line on stdin — or stdin closing — triggers a graceful
    // drain: stop accepting, answer new requests with GoAway, flush
    // in-flight responses, checkpoint, exit. SIGKILL still works; drain
    // is just kinder, and the CI smoke step uses it. A `stats` line dumps
    // the Prometheus-style metrics rendering to stdout.
    let control = server.control();
    let stats_handle = server.stats_handle();
    {
        let stats_handle = stats_handle.clone();
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                    Ok(0) => break, // stdin closed
                    Ok(_) if line.trim() == "drain" => break,
                    Ok(_) if line.trim() == "stats" => {
                        print!("{}", stats_handle.snapshot().render_prometheus());
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            println!("draining (grace 10s)...");
            control.drain(std::time::Duration::from_secs(10));
        });
    }
    if let Some(secs) = stats_every {
        let stats_handle = stats_handle.clone();
        let period = std::time::Duration::from_secs(secs.max(1));
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            print!("{}", stats_handle.snapshot().render_prometheus());
        });
    }
    server.run().expect("event loop");
    println!("drained; exiting");
}

/// Connect, run every operation once, check against in-process oracles.
fn client_smoke(target: &str, binary: bool) {
    let mut client = if target.contains('/') {
        Client::connect_unix(target).expect("connect unix")
    } else {
        Client::connect_tcp(target).expect("connect tcp")
    };
    if binary {
        client.use_binary().expect("negotiate binary codec");
        println!("hello: binary documents negotiated");
    }
    client.ping().expect("ping");
    println!("ping: ok");

    let setting = books_to_writers_setting();
    let source = figure_1_source_tree();
    let docs: Vec<XmlTree> = vec![source.clone(), XmlTree::new("db")];

    let consistent = client.check_consistency(&docs).expect("consistency");
    assert_eq!(consistent, vec![true, true], "consistency verdicts");
    println!("check_consistency: {consistent:?}");

    let solutions = client
        .canonical_solution_texts(&docs)
        .expect("canonical solutions");
    let local = xml_data_exchange::canonical_solution(&setting, &source).expect("local chase");
    assert_eq!(
        solutions[0].as_ref().expect("remote chase"),
        &tree_to_text(&local),
        "served solution must equal the local one byte-for-byte"
    );
    println!(
        "canonical_solution: {} bytes (matches local result)",
        solutions[0].as_ref().unwrap().len()
    );

    let query = UnionQuery::single(
        ConjunctiveTreeQuery::new(
            ["w"],
            vec![
                parse_pattern("writer(@name=$w)[work(@title=\"Computational Complexity\")]")
                    .unwrap(),
            ],
        )
        .unwrap(),
    );
    let answers = client.certain_answers(&query, &docs[..1]).expect("answers");
    let expect: Vec<Vec<String>> = certain_answers(&setting, &source, &query)
        .unwrap()
        .tuples
        .into_iter()
        .collect();
    assert_eq!(answers[0].as_ref().unwrap(), &expect, "certain answers");
    println!("certain_answers: {answers:?}");

    let boolean = UnionQuery::single(ConjunctiveTreeQuery::boolean(vec![parse_pattern(
        "bib[writer(@name=\"Steiglitz\")]",
    )
    .unwrap()]));
    let booleans = client
        .certain_answers_boolean(&boolean, &docs[..1])
        .expect("booleans");
    assert_eq!(booleans[0].as_ref().unwrap(), &true, "boolean answer");
    println!("certain_answers_boolean: {booleans:?}");

    // Fetch the typed snapshot with no further Hello: the requests this
    // smoke run just made must already show up in the phase histograms,
    // and the connection must keep the codec it started with.
    let codec = client.codec();
    let stats = client.stats().expect("stats");
    assert!(
        stats
            .histograms
            .iter()
            .any(|h| h.name.starts_with("req.solution.") && h.count > 0),
        "stats must carry phase histogram rows after served requests"
    );
    assert_eq!(client.codec(), codec, "stats must not change the codec");
    println!("stats:\n{stats}");

    println!("smoke test passed");
}
