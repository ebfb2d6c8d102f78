//! Integration tests for the `xdx-server` serving front-end: every
//! operation over both TCP and Unix sockets, byte-for-byte parity with
//! direct `BatchEngine` calls under concurrent connections, malformed-frame
//! robustness, and backpressure (`Busy`) under a saturated in-flight
//! budget.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xdx_server::wire::ErrorCode;
use xdx_server::{
    Client, ClientError, RequestBody, ResponseBody, Server, ServerConfig, StatsHandle,
    StatsSnapshot,
};
use xml_data_exchange::core::certain::certain_answers_boolean;
use xml_data_exchange::core::setting::books_to_writers_setting;
use xml_data_exchange::patterns::{parse_pattern, ConjunctiveTreeQuery, UnionQuery};
use xml_data_exchange::xmltree::tree_to_text;
use xml_data_exchange::{BatchEngine, DataExchangeSetting, XmlTree};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Start a server for `setting` on both a fresh Unix socket and an
/// ephemeral TCP port, run `f`, then shut everything down.
fn with_server(
    setting: &DataExchangeSetting,
    config: ServerConfig,
    f: impl FnOnce(std::net::SocketAddr, &Path),
) {
    with_stats_server(setting, config, |addr, sock, _| f(addr, sock));
}

/// [`with_server`], also handing `f` the server's [`StatsHandle`].
fn with_stats_server(
    setting: &DataExchangeSetting,
    config: ServerConfig,
    f: impl FnOnce(std::net::SocketAddr, &Path, &StatsHandle),
) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "xdx-server-test-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("xdx.sock");
    std::thread::scope(|scope| {
        let server =
            Server::bind(setting, Some("127.0.0.1:0"), Some(&sock), config).expect("bind server");
        let addr = server.tcp_addr().expect("tcp bound");
        let control = server.control();
        let stats = server.stats_handle();
        let handle = scope.spawn(move || server.run());
        // The listeners exist as soon as bind returned; no wait needed.
        // Shut the server down even when `f` panics: `thread::scope` joins
        // its threads before propagating the panic, so a still-running
        // server would turn an assertion failure into a silent hang.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr, &sock, &stats)));
        control.shutdown();
        handle.join().expect("server thread").expect("clean run");
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
    assert!(!sock.exists(), "the unix socket file must be removed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Distinct documents of growing size (book `i` has `i` authors); the same
/// shape the engine tests use.
fn sources(n: usize) -> Vec<XmlTree> {
    (0..n)
        .map(|i| {
            let mut t = XmlTree::new("db");
            for b in 0..=i {
                let book = t.add_child(t.root(), "book");
                t.set_attr(book, "@title", format!("T{b}"));
                for a in 0..b {
                    let author = t.add_child(book, "author");
                    t.set_attr(author, "@name", format!("N{a}"));
                    t.set_attr(author, "@aff", format!("U{a}"));
                }
            }
            t
        })
        .collect()
}

fn title_query() -> UnionQuery {
    UnionQuery::single(
        ConjunctiveTreeQuery::new(["t"], vec![parse_pattern("work(@title=$t)").unwrap()]).unwrap(),
    )
}

#[test]
fn all_ops_over_tcp_and_unix_match_the_batch_engine() {
    let setting = books_to_writers_setting();
    let engine = BatchEngine::new(&setting).parallelism(2);
    let docs = sources(5);
    let query = title_query();

    // One inconsistent document in the middle exercises error plumbing.
    let mut mixed = docs.clone();
    mixed.insert(2, XmlTree::new("not_db"));

    let expect_solutions: Vec<Result<String, _>> = engine
        .canonical_solutions_batch(&docs)
        .into_iter()
        .map(|r| r.map(|t| tree_to_text(&t)))
        .collect();
    let expect_answers: Vec<Vec<Vec<String>>> = engine
        .certain_answers_batch(&docs, &query)
        .into_iter()
        .map(|r| r.unwrap().tuples.into_iter().collect())
        .collect();
    let expect_consistent = engine.check_consistency_batch(&mixed);
    let boolean = UnionQuery::single(ConjunctiveTreeQuery::boolean(vec![parse_pattern(
        "bib[writer(@name=\"N0\")]",
    )
    .unwrap()]));
    let expect_booleans: Vec<bool> = docs
        .iter()
        .map(|d| certain_answers_boolean(&setting, d, &boolean).unwrap())
        .collect();

    with_server(&setting, ServerConfig::default(), |addr, sock| {
        let mut clients = vec![
            Client::connect_tcp(&addr.to_string()).unwrap(),
            Client::connect_unix(sock).unwrap(),
        ];
        for client in &mut clients {
            client.ping().unwrap();

            let consistent = client.check_consistency(&mixed).unwrap();
            assert_eq!(consistent, expect_consistent);

            let solutions = client.canonical_solution_texts(&docs).unwrap();
            assert_eq!(solutions.len(), expect_solutions.len());
            for (got, want) in solutions.iter().zip(&expect_solutions) {
                // Byte-for-byte: the server's canonical solution text must
                // equal the serialized local BatchEngine result.
                assert_eq!(got.as_ref().unwrap(), want.as_ref().unwrap());
            }

            let answers = client.certain_answers(&query, &docs).unwrap();
            for (got, want) in answers.iter().zip(&expect_answers) {
                assert_eq!(got.as_ref().unwrap(), want);
            }

            let booleans = client.certain_answers_boolean(&boolean, &docs).unwrap();
            let booleans: Vec<bool> = booleans.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(booleans, expect_booleans);

            // Parsed-tree round trip agrees structurally too.
            let trees = client.canonical_solutions(&docs).unwrap();
            for (got, want) in trees.iter().zip(&expect_solutions) {
                assert_eq!(tree_to_text(got.as_ref().unwrap()), *want.as_ref().unwrap());
            }
        }
    });
}

#[test]
fn per_document_errors_travel_as_structured_frames() {
    // A chase-failing setting: two STDs force the same entry to carry
    // clashing constants, so `CanonicalSolution` fails per document with
    // `AttributeClash` while other documents still succeed.
    let setting = {
        use xml_data_exchange::xmltree::Dtd;
        use xml_data_exchange::Std;
        let source_dtd = Dtd::builder("db")
            .rule("db", "book*")
            .rule("book", "author*")
            .attributes("book", ["@title"])
            .attributes("author", ["@name", "@aff"])
            .build()
            .unwrap();
        let target_dtd = Dtd::builder("bib")
            .rule("bib", "writer")
            .rule("writer", "work*")
            .attributes("writer", ["@name"])
            .attributes("work", ["@title", "@year"])
            .build()
            .unwrap();
        let std = Std::parse(
            "bib[writer(@name=$y)[work(@title=$x, @year=$z)]] :- db[book(@title=$x)[author(@name=$y)]]",
        )
        .unwrap();
        DataExchangeSetting::new(source_dtd, target_dtd, vec![std])
    };
    // Two authors on one book force a writer merge with distinct @name.
    let mut clash = XmlTree::new("db");
    let book = clash.add_child(clash.root(), "book");
    clash.set_attr(book, "@title", "T");
    for name in ["A", "B"] {
        let a = clash.add_child(book, "author");
        clash.set_attr(a, "@name", name);
        clash.set_attr(a, "@aff", "U");
    }
    let fine = XmlTree::new("db");

    with_server(&setting, ServerConfig::default(), |_, sock| {
        let mut client = Client::connect_unix(sock).unwrap();
        let results = client
            .canonical_solution_texts(&[fine.clone(), clash.clone()])
            .unwrap();
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.code, ErrorCode::AttributeClash);
        assert!(err.message.contains("clashes"), "{}", err.message);
    });
}

#[test]
fn four_concurrent_connections_stay_byte_identical() {
    let setting = books_to_writers_setting();
    let engine = BatchEngine::new(&setting).parallelism(2);
    let query = title_query();
    // Each connection gets its own distinct document set.
    let doc_sets: Vec<Vec<XmlTree>> = (0..4).map(|i| sources(3 + 2 * i)).collect();
    type SolutionText = Result<String, xml_data_exchange::core::SolutionError>;
    type Expectation = (Vec<SolutionText>, Vec<Vec<Vec<String>>>);
    let expected: Vec<Expectation> = doc_sets
        .iter()
        .map(|docs| {
            (
                engine
                    .canonical_solutions_batch(docs)
                    .into_iter()
                    .map(|r| r.map(|t| tree_to_text(&t)))
                    .collect(),
                engine
                    .certain_answers_batch(docs, &query)
                    .into_iter()
                    .map(|r| r.unwrap().tuples.into_iter().collect())
                    .collect(),
            )
        })
        .collect();

    let config = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |addr, sock| {
        std::thread::scope(|scope| {
            for (i, (docs, (expect_solutions, expect_answers))) in
                doc_sets.iter().zip(&expected).enumerate()
            {
                let query = query.clone();
                scope.spawn(move || {
                    // Half the connections on TCP, half on the Unix socket.
                    let mut client = if i % 2 == 0 {
                        Client::connect_tcp(&addr.to_string()).unwrap()
                    } else {
                        Client::connect_unix(sock).unwrap()
                    };
                    for _ in 0..3 {
                        let solutions = client.canonical_solution_texts(docs).unwrap();
                        for (got, want) in solutions.iter().zip(expect_solutions) {
                            assert_eq!(got.as_ref().unwrap(), want.as_ref().unwrap());
                        }
                        let answers = client.certain_answers(&query, docs).unwrap();
                        for (got, want) in answers.iter().zip(expect_answers) {
                            assert_eq!(got.as_ref().unwrap(), want);
                        }
                    }
                });
            }
        });
    });
}

#[test]
fn malformed_frames_are_rejected_without_crashing() {
    let setting = books_to_writers_setting();
    with_server(&setting, ServerConfig::default(), |addr, sock| {
        // 1. Garbage payload with a valid length prefix: structured error,
        //    connection survives.
        let mut client = Client::connect_unix(sock).unwrap();
        client.send_raw(&[0, 0, 0, 3, 0xde, 0xad, 0xbe]).unwrap();
        let resp = client.recv().unwrap();
        match resp.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::MalformedFrame),
            other => panic!("expected an error frame, got {other:?}"),
        }
        client
            .ping()
            .expect("connection survives a malformed payload");

        // 2. Unknown op: structured error with the id echoed.
        let mut bytes = vec![0, 0, 0, 17, 77];
        bytes.extend_from_slice(&123u64.to_be_bytes());
        bytes.extend_from_slice(&0u64.to_be_bytes()); // setting id
        client.send_raw(&bytes).unwrap();
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, 123);
        match resp.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::UnknownOp),
            other => panic!("expected an error frame, got {other:?}"),
        }

        // 3. Unparseable document / query: per-request structured errors.
        let id = client
            .send(RequestBody::CanonicalSolution {
                docs: vec!["db[unclosed".into()],
            })
            .unwrap();
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, id);
        match resp.body {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, ErrorCode::TreeParse);
                assert!(e.message.contains("document 0"));
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        let id = client
            .send(RequestBody::CertainAnswers {
                query: "($x) :-".into(),
                docs: vec!["db".into()],
            })
            .unwrap();
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, id);
        match resp.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::QuerySyntax),
            other => panic!("expected an error frame, got {other:?}"),
        }

        // 4. Oversized announced length: error frame, then the server
        //    closes this connection (the stream cannot be re-framed).
        client.send_raw(&[0xff, 0xff, 0xff, 0xff]).unwrap();
        let resp = client.recv().unwrap();
        match resp.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::FrameTooLarge),
            other => panic!("expected an error frame, got {other:?}"),
        }
        match client.recv() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected the connection to close, got {other:?}"),
        }

        // 5. Zero-length frame: same poisoning.
        let mut client = Client::connect_unix(sock).unwrap();
        client.send_raw(&[0, 0, 0, 0]).unwrap();
        let resp = client.recv().unwrap();
        match resp.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::MalformedFrame),
            other => panic!("expected an error frame, got {other:?}"),
        }

        // 6. A truncated frame followed by an abrupt disconnect must not
        //    hurt the server.
        let mut rude = Client::connect_tcp(&addr.to_string()).unwrap();
        rude.send_raw(&[0, 0, 1, 0, 1, 2, 3]).unwrap();
        drop(rude);

        // The server is still fully alive for new connections.
        let mut fresh = Client::connect_tcp(&addr.to_string()).unwrap();
        fresh.ping().unwrap();
        assert_eq!(
            fresh.check_consistency(&sources(2)).unwrap(),
            vec![true, true]
        );
    });
}

#[test]
fn saturation_yields_busy_not_unbounded_queueing() {
    let setting = books_to_writers_setting();
    // Heavy-ish documents so one worker cannot race ahead of admission.
    let doc = sources(14).pop().unwrap();
    let config = ServerConfig {
        workers: 1,
        max_inflight_per_conn: 64,
        max_inflight_total: 2,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |_, sock| {
        let mut client = Client::connect_unix(sock).unwrap();
        // Pipeline 20 requests in a single write so they arrive (for all
        // practical purposes) in one readable batch.
        let mut ids = Vec::new();
        let mut bytes = Vec::new();
        for i in 0..20u64 {
            let frame = xdx_server::wire::frame(xdx_server::wire::encode_request(
                &xdx_server::RequestFrame {
                    id: 1000 + i,
                    setting_id: 0,
                    body: RequestBody::CanonicalSolution {
                        docs: vec![tree_to_text(&doc).into()],
                    },
                },
            ));
            bytes.extend_from_slice(&frame);
            ids.push(1000 + i);
        }
        client.send_raw(&bytes).unwrap();

        let mut busy = 0usize;
        let mut ok = 0usize;
        let mut seen_ids = Vec::new();
        for _ in 0..20 {
            let resp = client.recv().unwrap();
            seen_ids.push(resp.id);
            match resp.body {
                ResponseBody::Busy => busy += 1,
                ResponseBody::Solutions(results) => {
                    assert!(results.iter().all(Result::is_ok));
                    ok += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(busy + ok, 20);
        assert!(
            busy >= 14,
            "a budget of 2 must shed most of 20 pipelined requests, got {busy} Busy"
        );
        assert!(ok >= 2, "admitted requests must still be served");
        seen_ids.sort_unstable();
        assert_eq!(seen_ids, ids, "every request is answered exactly once");

        // After the burst drains the connection serves normally again.
        client.ping().unwrap();
        let solutions = client
            .canonical_solution_texts(std::slice::from_ref(&doc))
            .unwrap();
        assert!(solutions[0].is_ok());
    });
}

#[test]
fn a_peer_that_never_reads_cannot_pin_unbounded_output() {
    // Write-path backpressure: responses a client refuses to drain may
    // occupy at most `max_buffered_response_bytes` per connection before
    // the server closes it, so a read-less pipeliner cannot grow server
    // memory with its own responses.
    let setting = books_to_writers_setting();
    let doc = sources(40).pop().unwrap(); // ~30 KB of response text
    let config = ServerConfig {
        workers: 1,
        max_inflight_per_conn: 64,
        max_inflight_total: 64,
        max_buffered_response_bytes: 8 * 1024,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |_, sock| {
        let mut client = Client::connect_unix(sock).unwrap();
        // Pipeline 64 requests and do NOT read. Total response volume
        // (~2 MB) far exceeds kernel socket buffers + the 8 KB cap, so the
        // server must hit the cap and close the connection.
        let mut sent = 0usize;
        for _ in 0..64 {
            match client.send(RequestBody::CanonicalSolution {
                docs: vec![tree_to_text(&doc).into()],
            }) {
                Ok(_) => sent += 1,
                Err(_) => break, // server already closed on us
            }
        }
        assert!(sent > 0);
        // Give the single worker time to compute everything while nothing
        // drains — the write buffer must cross the cap in this window.
        std::thread::sleep(std::time::Duration::from_millis(500));
        let mut received = 0usize;
        // Errors (EOF) mean the server dropped the connection.
        while client.recv().is_ok() {
            received += 1;
            assert!(received <= sent, "more responses than requests");
        }
        assert!(
            received < sent,
            "the connection must be closed before all {sent} buffered responses are delivered \
             (got {received})"
        );
        // The server itself is unaffected.
        let mut fresh = Client::connect_unix(sock).unwrap();
        fresh.ping().unwrap();
        assert!(fresh
            .canonical_solution_texts(std::slice::from_ref(&doc))
            .unwrap()[0]
            .is_ok());
    });
}

#[test]
fn pipelined_responses_are_correlated_by_id() {
    let setting = books_to_writers_setting();
    let docs = sources(4);
    let engine = BatchEngine::new(&setting).parallelism(1);
    let expect: Vec<String> = engine
        .canonical_solutions_batch(&docs)
        .into_iter()
        .map(|r| tree_to_text(&r.unwrap()))
        .collect();
    let config = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |addr, _| {
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        // One request per document, all in flight at once; responses may
        // arrive in any order and are matched back by id.
        let mut id_to_doc = std::collections::BTreeMap::new();
        for (i, doc) in docs.iter().enumerate() {
            let id = client
                .send(RequestBody::CanonicalSolution {
                    docs: vec![tree_to_text(doc).into()],
                })
                .unwrap();
            id_to_doc.insert(id, i);
        }
        for _ in 0..docs.len() {
            let resp = client.recv().unwrap();
            let doc_index = id_to_doc.remove(&resp.id).expect("unknown response id");
            match resp.body {
                ResponseBody::Solutions(results) => {
                    assert_eq!(results.len(), 1);
                    assert_eq!(
                        results[0].as_ref().unwrap().as_text(),
                        Some(expect[doc_index].as_str())
                    );
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(id_to_doc.is_empty());
    });
}

#[test]
fn both_codecs_yield_identical_results_and_mixed_clients_coexist() {
    // Byte-for-byte parity with the local BatchEngine under *both* document
    // codecs, exercised by two concurrent connections against one server: a
    // text client that never sends Hello (over the Unix socket) and a
    // binary client (over TCP).
    let setting = books_to_writers_setting();
    let engine = BatchEngine::new(&setting).parallelism(2);
    let docs = sources(6);
    let query = title_query();
    let expect_solutions: Vec<String> = engine
        .canonical_solutions_batch(&docs)
        .into_iter()
        .map(|r| tree_to_text(&r.unwrap()))
        .collect();
    let expect_answers: Vec<Vec<Vec<String>>> = engine
        .certain_answers_batch(&docs, &query)
        .into_iter()
        .map(|r| r.unwrap().tuples.into_iter().collect())
        .collect();
    let expect_consistent = engine.check_consistency_batch(&docs);

    with_server(&setting, ServerConfig::default(), |addr, sock| {
        std::thread::scope(|scope| {
            for mode in ["text", "binary"] {
                let (docs, query) = (&docs, &query);
                let (expect_solutions, expect_answers, expect_consistent) =
                    (&expect_solutions, &expect_answers, &expect_consistent);
                let addr = addr.to_string();
                scope.spawn(move || {
                    let mut client = if mode == "text" {
                        Client::connect_unix(sock).unwrap()
                    } else {
                        let mut client = Client::connect_tcp(&addr).unwrap();
                        client.use_binary().unwrap();
                        assert_eq!(client.codec(), xdx_server::Codec::Binary);
                        client
                    };
                    for _ in 0..3 {
                        assert_eq!(&client.check_consistency(docs).unwrap(), expect_consistent);
                        let solutions = client.canonical_solution_texts(docs).unwrap();
                        for (got, want) in solutions.iter().zip(expect_solutions) {
                            // The canonical *text* of the solution must be
                            // identical whichever codec carried it.
                            assert_eq!(got.as_ref().unwrap(), want, "mode {mode}");
                        }
                        let answers = client.certain_answers(query, docs).unwrap();
                        for (got, want) in answers.iter().zip(expect_answers) {
                            assert_eq!(got.as_ref().unwrap(), want, "mode {mode}");
                        }
                    }
                });
            }
        });
    });
}

#[test]
fn negotiating_features_twice_keeps_responses_well_formed() {
    // Hello is idempotent and re-negotiable: a connection can switch codecs
    // mid-stream and every response decodes under the codec that was active
    // when its request was sent.
    let setting = books_to_writers_setting();
    let docs = sources(3);
    with_server(&setting, ServerConfig::default(), |_, sock| {
        let mut client = Client::connect_unix(sock).unwrap();
        let before = client.canonical_solution_texts(&docs).unwrap();
        client.use_binary().unwrap();
        let binary = client.canonical_solution_texts(&docs).unwrap();
        assert_eq!(client.negotiate(0).unwrap(), 0);
        assert_eq!(client.codec(), xdx_server::Codec::Text);
        let after = client.canonical_solution_texts(&docs).unwrap();
        for ((b, m), a) in before.iter().zip(&binary).zip(&after) {
            assert_eq!(b.as_ref().unwrap(), m.as_ref().unwrap());
            assert_eq!(b.as_ref().unwrap(), a.as_ref().unwrap());
        }
    });
}

#[test]
fn large_responses_stream_in_segments_without_stalling_other_connections() {
    // With a deliberately tiny chunk limit, a response much larger than one
    // chunk must arrive as ≥ 2 `STATUS_OK_PARTIAL` + final frames — under
    // either codec — while a second connection keeps getting answers
    // between the chunks (nothing is head-of-line blocked), and a response
    // that fits one chunk stays a single frame.
    let setting = books_to_writers_setting();
    let big = sources(40).pop().unwrap(); // ~30 KB of response text
    let config = ServerConfig {
        workers: 1,
        chunk_bytes: 1024,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |addr, sock| {
        let engine = BatchEngine::new(&setting).parallelism(1);
        let expect = tree_to_text(
            &engine.canonical_solutions_batch(std::slice::from_ref(&big))[0]
                .as_ref()
                .unwrap()
                .clone(),
        );

        let mut chunked = Client::connect_tcp(&addr.to_string()).unwrap();
        chunked.use_binary().unwrap();
        let mut other = Client::connect_unix(sock).unwrap();

        // Kick off the big request, then keep the other connection busy
        // while the stream is (potentially) still in flight.
        let id = chunked
            .send(RequestBody::CanonicalSolution {
                docs: vec![xdx_server::WireDoc::from_tree(&big, chunked.codec())],
            })
            .unwrap();
        for _ in 0..5 {
            other.ping().unwrap();
        }
        assert_eq!(
            other.check_consistency(std::slice::from_ref(&big)).unwrap(),
            vec![true]
        );

        let resp = chunked.recv().unwrap();
        assert_eq!(resp.id, id);
        let ResponseBody::Solutions(results) = resp.body else {
            panic!("expected Solutions, got {:?}", resp.body);
        };
        let solution = results[0].as_ref().unwrap().to_tree().unwrap();
        assert_eq!(tree_to_text(&solution), expect);
        assert!(
            chunked.last_response_chunk_count() >= 2,
            "a response far larger than chunk_bytes=1024 must stream in ≥2 segments, got {}",
            chunked.last_response_chunk_count()
        );

        // The text connection, which never sent Hello, streams too; its
        // small responses stay whole frames.
        let texts = other
            .canonical_solution_texts(std::slice::from_ref(&big))
            .unwrap();
        assert_eq!(texts[0].as_ref().unwrap(), &expect);
        assert!(other.last_response_chunk_count() >= 2);
        other.ping().unwrap();
        assert_eq!(other.last_response_chunk_count(), 1);
    });
}

#[test]
fn client_timeouts_surface_stalls_instead_of_hanging() {
    let setting = books_to_writers_setting();
    with_server(&setting, ServerConfig::default(), |_, sock| {
        let mut client = Client::connect_unix(sock).unwrap();
        client
            .set_timeout(Some(std::time::Duration::from_millis(100)))
            .unwrap();
        // Nothing was requested, so nothing will arrive: recv must return
        // a timeout error instead of blocking forever.
        let start = std::time::Instant::now();
        match client.recv() {
            Err(ClientError::Io(e)) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "unexpected error kind {:?}",
                e.kind()
            ),
            other => panic!("expected an i/o timeout, got {other:?}"),
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        // The connection is still usable afterwards (no bytes were lost).
        client.ping().unwrap();
        client.set_timeout(None).unwrap();
        client.ping().unwrap();
    });
}

// ---------------------------------------------------------------------------
// Resident document store (PutDoc/GetDoc/EditDoc/DeleteDoc + stored queries)
// ---------------------------------------------------------------------------

/// A server config mounting the resident store in a fresh directory.
fn store_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        store_dir: Some(dir.join("store")),
        ..ServerConfig::default()
    }
}

#[test]
fn config_validation_rejects_degenerate_limits() {
    use xdx_server::ConfigError;
    assert!(ServerConfig::default().validate().is_ok());

    let zero_chunk = ServerConfig {
        chunk_bytes: 0,
        ..ServerConfig::default()
    };
    assert!(matches!(
        zero_chunk.validate(),
        Err(ConfigError::Zero {
            field: "chunk_bytes"
        })
    ));

    let zero_inflight = ServerConfig {
        max_inflight_total: 0,
        ..ServerConfig::default()
    };
    assert!(matches!(
        zero_inflight.validate(),
        Err(ConfigError::Zero {
            field: "max_inflight_total"
        })
    ));

    let absurd = ServerConfig {
        chunk_bytes: usize::MAX,
        ..ServerConfig::default()
    };
    assert!(matches!(
        absurd.validate(),
        Err(ConfigError::TooLarge {
            field: "chunk_bytes",
            ..
        })
    ));

    // `workers: 0` means "auto" and must stay accepted.
    let auto_workers = ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    };
    assert!(auto_workers.validate().is_ok());

    // A store mount with room for zero documents is a configuration bug...
    let full_store = ServerConfig {
        store_dir: Some(std::env::temp_dir().join("unused")),
        max_resident_docs: 0,
        ..ServerConfig::default()
    };
    assert!(matches!(
        full_store.validate(),
        Err(ConfigError::Zero {
            field: "max_resident_docs"
        })
    ));
    // ...but without a store the knob is dormant and irrelevant.
    let no_store = ServerConfig {
        store_dir: None,
        max_resident_docs: 0,
        ..ServerConfig::default()
    };
    assert!(no_store.validate().is_ok());

    // Same for the checkpoint threshold: zero would checkpoint after every
    // mutation — a typo, not a policy — but only matters with a store.
    let zero_checkpoint = ServerConfig {
        store_dir: Some(std::env::temp_dir().join("unused")),
        wal_checkpoint_bytes: 0,
        ..ServerConfig::default()
    };
    assert!(matches!(
        zero_checkpoint.validate(),
        Err(ConfigError::Zero {
            field: "wal_checkpoint_bytes"
        })
    ));
    let no_store_zero_checkpoint = ServerConfig {
        store_dir: None,
        wal_checkpoint_bytes: 0,
        ..ServerConfig::default()
    };
    assert!(no_store_zero_checkpoint.validate().is_ok());

    // `Server::bind` enforces validation and surfaces the message.
    let setting = books_to_writers_setting();
    let err = match Server::bind(&setting, Some("127.0.0.1:0"), None, zero_chunk) {
        Err(e) => e,
        Ok(_) => panic!("bind must reject an invalid config"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("chunk_bytes"), "{err}");
}

#[test]
fn store_ops_are_rejected_when_no_store_is_mounted() {
    let setting = books_to_writers_setting();
    with_server(&setting, ServerConfig::default(), |_, sock| {
        let mut client = Client::connect_unix(sock).unwrap();
        let doc = sources(1).pop().unwrap();
        match client.put_doc(1, &doc) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::StoreDisabled),
            other => panic!("expected StoreDisabled, got {other:?}"),
        }
        match client.check_consistency_stored(1) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::StoreDisabled),
            other => panic!("expected StoreDisabled, got {other:?}"),
        }
        client.ping().expect("connection survives store errors");
    });
}

#[test]
fn store_crud_versions_and_errors_round_trip() {
    use xml_data_exchange::store::DocEdit;
    let setting = books_to_writers_setting();
    let dir = std::env::temp_dir().join(format!(
        "xdx-server-store-crud-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let config = store_config(&dir);
    with_server(&setting, config, |addr, _| {
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let doc = sources(3).pop().unwrap();

        assert_eq!(client.put_doc(7, &doc).unwrap(), 1);
        let (got, version) = client.get_doc(7).unwrap();
        assert_eq!(tree_to_text(&got), tree_to_text(&doc));
        assert_eq!(version, 1);

        // Compare-and-swap: a stale base version is rejected...
        let edit = vec![DocEdit::SetAttr {
            node: 1,
            name: "@title".into(),
            value: "Edited".into(),
        }];
        match client.edit_doc(7, 99, &edit) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::VersionConflict),
            other => panic!("expected VersionConflict, got {other:?}"),
        }
        // ...the current one is accepted and bumps the version.
        assert_eq!(client.edit_doc(7, 1, &edit).unwrap(), 2);
        let (edited, version) = client.get_doc(7).unwrap();
        assert_eq!(version, 2);
        assert!(tree_to_text(&edited).contains("@title=\"Edited\""));

        // A malformed edit fails the whole batch and changes nothing.
        match client.edit_doc(7, 0, &[DocEdit::RemoveChild { parent: 999, at: 0 }]) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadEdit),
            other => panic!("expected BadEdit, got {other:?}"),
        }
        assert_eq!(client.get_doc(7).unwrap().1, 2, "failed edits do not bump");

        client.delete_doc(7).unwrap();
        match client.get_doc(7) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownDoc),
            other => panic!("expected UnknownDoc, got {other:?}"),
        }

        // Leave a document behind for the restart check below. Versions
        // come from the store-wide sequence (put 7, edit 7, delete 7 came
        // before), so this is strictly above every version document 7 had —
        // never reused, which is what makes the CAS above ABA-proof.
        assert_eq!(client.put_doc(8, &doc).unwrap(), 4);
    });
    // A clean shutdown checkpointed; a new server over the same directory
    // serves the surviving document at its exact version.
    with_server(&setting, store_config(&dir), |addr, _| {
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let (restored, version) = client.get_doc(8).unwrap();
        assert_eq!(
            tree_to_text(&restored),
            tree_to_text(&sources(3).pop().unwrap())
        );
        assert_eq!(version, 4);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_running_server_checkpoints_once_the_wal_outgrows_the_threshold() {
    use xml_data_exchange::store::DocEdit;
    let setting = books_to_writers_setting();
    let dir = std::env::temp_dir().join(format!(
        "xdx-server-store-ckpt-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let store_dir = dir.join("store");
    let config = ServerConfig {
        store_dir: Some(store_dir.clone()),
        wal_checkpoint_bytes: 512,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |addr, _| {
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let doc = sources(1).pop().unwrap();
        client.put_doc(1, &doc).unwrap();
        let wal = store_dir.join("wal.log");
        let mut checkpointed = false;
        for i in 0..64u32 {
            client
                .edit_doc(
                    1,
                    0,
                    &[DocEdit::SetAttr {
                        node: 0,
                        name: "@rev".into(),
                        value: format!("{i}").into(),
                    }],
                )
                .unwrap();
            // The mutating worker checkpoints under the store lock before
            // its response is serialized, so the length observed after each
            // acknowledged edit is post-decision: at most the threshold
            // plus the record that crossed it — never unbounded growth.
            let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
            assert!(len <= 512 + 256, "WAL outgrew the threshold: {len} bytes");
            if store_dir.join("snapshot.bin").exists() {
                checkpointed = true;
            }
        }
        assert!(checkpointed, "no mid-run checkpoint happened");
        // The document survived the churn (and a snapshot + short-WAL
        // restart serves it identically — covered by the restart test).
        let (tree, _) = client.get_doc(1).unwrap();
        assert!(tree_to_text(&tree).contains("@rev=\"63\""));
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_queries_match_ship_the_document_ops_byte_for_byte() {
    use xml_data_exchange::store::DocEdit;
    let setting = books_to_writers_setting();
    let docs = sources(4);
    let query = title_query();
    let dir = std::env::temp_dir().join(format!(
        "xdx-server-store-parity-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    with_server(&setting, store_config(&dir), |addr, sock| {
        std::thread::scope(|scope| {
            for (i, doc) in docs.iter().enumerate() {
                let query = query.clone();
                scope.spawn(move || {
                    // Half the clients negotiate the binary codec so parity
                    // holds under both serializations.
                    let mut client = if i % 2 == 0 {
                        Client::connect_tcp(&addr.to_string()).unwrap()
                    } else {
                        let mut c = Client::connect_unix(sock).unwrap();
                        c.use_binary().unwrap();
                        c
                    };
                    let doc_id = i as u64;
                    client.put_doc(doc_id, doc).unwrap();
                    // Two rounds: the first computes, the second must be
                    // served from the answer cache — identical either way.
                    for _ in 0..2 {
                        let ship = client.check_consistency(std::slice::from_ref(doc)).unwrap();
                        assert_eq!(client.check_consistency_stored(doc_id).unwrap(), ship[0]);

                        let ship = client
                            .canonical_solution_docs(std::slice::from_ref(doc))
                            .unwrap();
                        let stored = client.canonical_solution_stored(doc_id).unwrap();
                        assert_eq!(stored, ship[0], "solution payloads must be identical");

                        let ship = client
                            .certain_answers(&query, std::slice::from_ref(doc))
                            .unwrap();
                        let stored = client.certain_answers_stored(&query, doc_id).unwrap();
                        assert_eq!(
                            stored.as_ref().unwrap(),
                            ship[0].as_ref().unwrap(),
                            "answer tuples must be identical"
                        );

                        let ship = client
                            .certain_answers_boolean(&query, std::slice::from_ref(doc))
                            .unwrap();
                        let stored = client
                            .certain_answers_boolean_stored(&query, doc_id)
                            .unwrap();
                        assert_eq!(stored.unwrap(), ship[0].as_ref().copied().unwrap());
                    }

                    // An edit invalidates the cache: stored answers must now
                    // match ship-the-document answers for the *edited* tree.
                    client
                        .edit_doc(
                            doc_id,
                            0,
                            &[DocEdit::SetAttr {
                                node: 1,
                                name: "@title".into(),
                                value: format!("Edited{i}").into(),
                            }],
                        )
                        .unwrap();
                    let (edited, _) = client.get_doc(doc_id).unwrap();
                    let ship = client
                        .canonical_solution_docs(std::slice::from_ref(&edited))
                        .unwrap();
                    let stored = client.canonical_solution_stored(doc_id).unwrap();
                    assert_eq!(stored, ship[0], "the cache must not serve pre-edit bytes");
                    let ship = client
                        .certain_answers(&query, std::slice::from_ref(&edited))
                        .unwrap();
                    let stored = client.certain_answers_stored(&query, doc_id).unwrap();
                    assert_eq!(stored.as_ref().unwrap(), ship[0].as_ref().unwrap());
                });
            }
        });
        // A malformed stored query fails exactly like the ship-the-document
        // op: same code, before any cache interaction.
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let id = client
            .send(RequestBody::CertainAnswersStored {
                query: "($x) :-".into(),
                doc_id: 0,
            })
            .unwrap();
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, id);
        match resp.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::QuerySyntax),
            other => panic!("expected an error frame, got {other:?}"),
        }
        // Stored queries against an unknown document are structured errors.
        match client.check_consistency_stored(999) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownDoc),
            other => panic!("expected UnknownDoc, got {other:?}"),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: the `Stats` phase histograms account for (nearly) all of a
/// measured request's wall time. Every nanosecond between frame decode on
/// the event loop and the response's last byte leaving the socket is
/// charged to *some* phase, so the per-phase sums must cover at least 90%
/// of the total-histogram sum for the same `(op, setting)` key.
#[test]
fn stats_v2_phase_histograms_cover_request_wall_time() {
    let setting = books_to_writers_setting();
    with_server(&setting, ServerConfig::default(), |addr, _sock| {
        // No Hello: every connection gets the histogram section.
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let docs = sources(4);
        let requests = 8u64;
        for _ in 0..requests {
            client.canonical_solution_texts(&docs).unwrap();
        }
        let stats = client.stats().unwrap();
        let total = stats
            .histogram("req.solution.s0.total")
            .expect("total histogram for the measured op");
        assert_eq!(total.count, requests, "one total record per request");
        let phase_sum: u64 = stats
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("req.solution.s0.") && !h.name.ends_with(".total"))
            .map(|h| h.sum)
            .sum();
        assert!(
            phase_sum as f64 >= 0.9 * total.sum as f64,
            "phase sums ({phase_sum}ns) must cover >= 90% of wall time ({}ns)",
            total.sum
        );
        // The counters ride along, via the typed accessor.
        assert!(stats.counter("server.accepted_conns").unwrap() >= 1);
        assert_eq!(stats.counter("server.slow_requests"), Some(0));
    });
}

/// A threshold every request crosses makes every flushed exchange request
/// count in `server.slow_requests` (and log a rate-limited line).
#[test]
fn requests_over_the_slow_threshold_are_counted() {
    let setting = books_to_writers_setting();
    let config = ServerConfig {
        slow_request_threshold: Some(std::time::Duration::from_nanos(1)),
        ..ServerConfig::default()
    };
    with_server(&setting, config, |addr, _sock| {
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let docs = sources(2);
        let requests = 5u64;
        for _ in 0..requests {
            client.canonical_solution_texts(&docs).unwrap();
        }
        let stats = client.stats().unwrap();
        let slow = stats.counter("server.slow_requests");
        assert!(
            slow >= Some(requests),
            "{requests} requests over a 1 ns threshold, counter {slow:?}"
        );
    });
}

/// The row names of a snapshot: counters, then histograms.
fn row_names(stats: &StatsSnapshot) -> (Vec<&str>, Vec<&str>) {
    (
        stats.counters.iter().map(|(n, _)| n.as_str()).collect(),
        stats.histograms.iter().map(|h| h.name.as_str()).collect(),
    )
}

/// One snapshot feeds the `Stats` reply, the in-process handle and the
/// Prometheus text: on a store-backed server that has served shipped and
/// stored ops, both row lists arrive strictly ascending (hence unique),
/// the handle carries the same names, and the Prometheus text of either
/// has a line for every row.
#[test]
fn stats_rows_ascend_and_one_snapshot_feeds_wire_handle_and_prometheus() {
    use xml_data_exchange::obs::{prom::sanitize, Unit};
    let setting = books_to_writers_setting();
    let dir = std::env::temp_dir().join(format!(
        "xdx-server-stats-rows-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    with_stats_server(&setting, store_config(&dir), |addr, _, handle| {
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let docs = sources(3);
        client.canonical_solution_texts(&docs).unwrap();
        client.check_consistency(&docs).unwrap();
        client.put_doc(1, &docs[2]).unwrap();
        client.canonical_solution_stored(1).unwrap().unwrap();
        client
            .certain_answers_stored(&title_query(), 1)
            .unwrap()
            .unwrap();
        // The first `Stats` is recorded under its own key once it is
        // flushed; the second reply and the handle then see the same rows.
        client.stats().unwrap();
        let wire = client.stats().unwrap();
        let (counters, histograms) = row_names(&wire);
        for names in [&counters, &histograms] {
            assert!(
                names.windows(2).all(|w| w[0] < w[1]),
                "rows must be strictly ascending: {names:?}"
            );
        }
        // The whole counter list of a store-backed server, pinned so a
        // row cannot appear, vanish or be renamed unnoticed.
        assert_eq!(
            counters,
            [
                "engine.assign_highwater",
                "registry.artifact_hits",
                "registry.artifact_misses",
                "server.accepted_conns",
                "server.busy_rejected",
                "server.goaway_rejected",
                "server.inflight_highwater",
                "server.reaped_idle",
                "server.reaped_slow",
                "server.slow_requests",
                "server.uptime_secs",
                "store.cache_hits",
                "store.cache_misses",
                "store.degraded",
                "store.replay_ns",
                "store.replayed_records",
                "store.resident_docs",
                "store.resident_tree_bytes",
                "store.seq",
                "store.wal_bytes",
                "store.wal_rollbacks",
            ]
        );
        for name in [
            "engine.chase_steps",
            "req.solution.s0.total",
            "req.solution_stored.s0.total",
            "store.fsync",
        ] {
            assert!(histograms.contains(&name), "missing histogram {name}");
        }

        let local = handle.snapshot();
        assert_eq!(row_names(&local), (counters, histograms));

        for stats in [&wire, &local] {
            let text = stats.render_prometheus();
            let lines: Vec<&str> = text.lines().collect();
            for (name, value) in &stats.counters {
                let line = format!("{} {value}", sanitize(name));
                assert!(lines.contains(&line.as_str()), "no line {line:?}");
            }
            for h in &stats.histograms {
                let suffix = match Unit::from_tag(h.unit) {
                    Unit::Nanos => "_ns",
                    Unit::Count => "",
                    Unit::Bytes => "_bytes",
                };
                let line = format!("{}{suffix}_count {}", sanitize(&h.name), h.count);
                assert!(lines.contains(&line.as_str()), "no line {line:?}");
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Requests naming ids no setting is bound to share one `unbound` key, so
/// a client cycling through ids cannot grow the phase table (or every
/// `Stats` reply) without limit. Bound ids keep their `s{id}` keys.
#[test]
fn unbound_setting_ids_share_one_phase_key() {
    let setting = books_to_writers_setting();
    with_server(&setting, ServerConfig::default(), |addr, _| {
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let docs = sources(2);
        client.canonical_solution_texts(&docs).unwrap();
        client.stats().unwrap();
        let before = client.stats().unwrap().histograms.len();
        for id in 1000..1200 {
            client.set_setting(id);
            match client.canonical_solution_texts(&docs) {
                Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownSetting),
                other => panic!("expected UnknownSetting, got {other:?}"),
            }
        }
        client.set_setting(0);
        let after = client.stats().unwrap();
        // One key holds at most the eight phases plus its total.
        assert!(
            after.histograms.len() <= before + 9,
            "{before} rows grew to {}",
            after.histograms.len()
        );
        assert_eq!(
            after.histogram("req.solution.unbound.total").unwrap().count,
            200
        );
        assert!(after.histogram("req.solution.s0.total").is_some());
        assert!(after.histograms.iter().all(|h| !h.name.contains(".s1000.")));
    });
}
