//! Integration tests for the multi-tenant setting registry: uploads,
//! content-addressed reuse, per-request setting selection with
//! byte-for-byte parity against a per-setting `BatchEngine`, eviction that
//! keeps bindings and stored documents alive, concurrent clients across
//! distinct settings under eviction churn, and multi-document answers in
//! request order on a four-worker server.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xdx_server::wire::ErrorCode;
use xdx_server::{Client, ClientError, Server, ServerConfig};
use xml_data_exchange::core::settext::{parse_setting, setting_to_text};
use xml_data_exchange::core::setting::books_to_writers_setting;
use xml_data_exchange::patterns::{parse_pattern, ConjunctiveTreeQuery, UnionQuery};
use xml_data_exchange::xmltree::tree_to_text;
use xml_data_exchange::{BatchEngine, DataExchangeSetting, XmlTree};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A second, structurally different exchange setting: flat `db/item(@k)`
/// sources copied into flat `out/rec(@k)` targets.
const ITEMS_TEXT: &str = "source { root db; rule db = item*; rule item = eps; \
                          attrs item = @k; } target { root out; rule out = rec*; \
                          rule rec = eps; attrs rec = @k; } \
                          std out[rec(@k=$x)] :- db[item(@k=$x)];";

fn items_setting() -> DataExchangeSetting {
    parse_setting(ITEMS_TEXT).expect("ITEMS_TEXT parses")
}

/// Documents conforming to the `items` source DTD.
fn item_docs(n: usize) -> Vec<XmlTree> {
    (0..n)
        .map(|i| {
            let mut t = XmlTree::new("db");
            for k in 0..=i {
                let item = t.add_child(t.root(), "item");
                t.set_attr(item, "@k", format!("K{i}-{k}"));
            }
            t
        })
        .collect()
}

/// Documents conforming to the default books source DTD; book `i` has `i`
/// authors, so earlier documents are cheap and later ones heavy.
fn book_docs(n: usize) -> Vec<XmlTree> {
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

fn with_server(
    setting: &DataExchangeSetting,
    config: ServerConfig,
    f: impl FnOnce(std::net::SocketAddr, &Path),
) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "xdx-registry-test-{}-{}",
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
        let handle = scope.spawn(move || server.run());
        // Shut the server down even when `f` panics: `thread::scope` joins
        // its threads before propagating the panic, so a still-running
        // server would turn an assertion failure into a silent hang.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr, &sock)));
        control.shutdown();
        handle.join().expect("server thread").expect("clean run");
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect_tcp(&addr.to_string()).unwrap()
}

fn expect_texts(setting: &DataExchangeSetting, docs: &[XmlTree]) -> Vec<String> {
    BatchEngine::new(setting)
        .parallelism(1)
        .canonical_solutions_batch(docs)
        .into_iter()
        .map(|r| tree_to_text(&r.expect("consistent doc")))
        .collect()
}

#[test]
fn registry_ops_and_setting_ids_work_without_hello() {
    let setting = books_to_writers_setting();
    let items = item_docs(3);
    let expect_items = expect_texts(&items_setting(), &items);
    with_server(&setting, ServerConfig::default(), |addr, _| {
        // A fresh connection that never sends Hello uploads a setting and
        // addresses it: the setting id is on every request, so it gets the
        // uploaded setting's solutions — never silently setting 0's.
        let mut fresh = Client::connect_tcp(&addr.to_string()).unwrap();
        fresh.put_setting(1, ITEMS_TEXT).unwrap();
        fresh.set_setting(1);
        let got: Vec<String> = fresh
            .canonical_solution_texts(&items)
            .unwrap()
            .into_iter()
            .map(|r| r.expect("consistent doc"))
            .collect();
        assert_eq!(got, expect_items);

        // Addressing an unbound setting id fails with a structured code.
        let mut client = connect(addr);
        client.set_setting(7);
        match client.canonical_solution_texts(&book_docs(1)) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownSetting),
            other => panic!("expected UnknownSetting, got {other:?}"),
        }

        // Malformed setting text fails with SettingParse, not a hangup.
        match client.put_setting(1, "source { nonsense") {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::SettingParse),
            other => panic!("expected SettingParse, got {other:?}"),
        }
        client.ping().unwrap();
    });
}

#[test]
fn identical_text_reuploads_share_one_compiled_artifact() {
    let setting = books_to_writers_setting();
    with_server(&setting, ServerConfig::default(), |addr, _| {
        let mut client = connect(addr);

        let (hash_a, reused_a) = client.put_setting(1, ITEMS_TEXT).unwrap();
        assert!(!reused_a, "first upload compiles");

        // Same setting, different whitespace: canonicalization makes the
        // re-upload free.
        let spaced = ITEMS_TEXT.replace("; ", ";\n\t ");
        let (hash_b, reused_b) = client.put_setting(2, &spaced).unwrap();
        assert_eq!(hash_b, hash_a, "content hash is over the canonical text");
        assert!(reused_b, "identical-text re-upload reuses the artifact");

        // Uploading the default setting's own text shares the pinned
        // artifact too.
        let (_, reused_default) = client.put_setting(3, &setting_to_text(&setting)).unwrap();
        assert!(reused_default);

        let entries = client.list_settings().unwrap();
        let ids: Vec<u64> = entries.iter().map(|e| e.bind_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(entries.iter().all(|e| e.compiled));
        assert_eq!(entries[1].content_hash, entries[2].content_hash);
        assert_ne!(entries[0].content_hash, entries[1].content_hash);
    });
}

#[test]
fn concurrent_clients_on_distinct_settings_match_their_engines() {
    let setting = books_to_writers_setting();
    let books = book_docs(4);
    let items = item_docs(4);
    let expect_books = expect_texts(&setting, &books);
    let expect_items = expect_texts(&items_setting(), &items);
    let query = UnionQuery::single(
        ConjunctiveTreeQuery::new(["k"], vec![parse_pattern("rec(@k=$k)").unwrap()]).unwrap(),
    );
    let expect_tuples: Vec<Vec<Vec<String>>> = BatchEngine::new(&items_setting())
        .certain_answers_batch(&items, &query)
        .into_iter()
        .map(|r| r.unwrap().tuples.into_iter().collect())
        .collect();

    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |addr, _| {
        connect(addr).put_setting(1, ITEMS_TEXT).unwrap();
        std::thread::scope(|scope| {
            // Clients alternate between the default books setting and the
            // uploaded items setting while a churn thread keeps evicting
            // and re-uploading the items artifact underneath them.
            for t in 0..4 {
                let (books, items) = (&books, &items);
                let (expect_books, expect_items) = (&expect_books, &expect_items);
                let (query, expect_tuples) = (&query, &expect_tuples);
                scope.spawn(move || {
                    let mut client = connect(addr);
                    for round in 0..8 {
                        if (t + round) % 2 == 0 {
                            client.set_setting(0);
                            let got: Vec<String> = client
                                .canonical_solution_texts(books)
                                .unwrap()
                                .into_iter()
                                .map(|r| r.unwrap())
                                .collect();
                            assert_eq!(&got, expect_books, "thread {t} round {round}");
                        } else {
                            client.set_setting(1);
                            let got: Vec<String> = client
                                .canonical_solution_texts(items)
                                .unwrap()
                                .into_iter()
                                .map(|r| r.unwrap())
                                .collect();
                            assert_eq!(&got, expect_items, "thread {t} round {round}");
                            let tuples: Vec<Vec<Vec<String>>> = client
                                .certain_answers(query, items)
                                .unwrap()
                                .into_iter()
                                .map(|r| r.unwrap())
                                .collect();
                            assert_eq!(&tuples, expect_tuples, "thread {t} round {round}");
                        }
                    }
                });
            }
            scope.spawn(move || {
                let mut churn = connect(addr);
                for _ in 0..8 {
                    let _ = churn.evict_setting(1).unwrap();
                    let (_, _) = churn.put_setting(1, ITEMS_TEXT).unwrap();
                }
            });
        });
    });
}

#[test]
fn eviction_keeps_stored_documents_and_recompiles_on_demand() {
    let setting = books_to_writers_setting();
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "xdx-registry-store-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let items = item_docs(3);
    let expect_items = expect_texts(&items_setting(), &items);
    with_server(&setting, config, |addr, _| {
        let mut client = connect(addr);
        client.put_setting(1, ITEMS_TEXT).unwrap();
        client.set_setting(1);
        // Versions come from the store-wide mutation sequence, so the
        // receipts are strictly increasing — remember them to prove the
        // documents survive eviction untouched.
        let versions: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, doc)| client.put_doc(i as u64, doc).unwrap())
            .collect();
        assert!(versions.windows(2).all(|w| w[0] < w[1]));

        // Evicting the compiled artifact must not touch the binding or the
        // stored documents.
        assert!(client.evict_setting(1).unwrap(), "artifact was resident");
        let entries = client.list_settings().unwrap();
        let entry = entries.iter().find(|e| e.bind_id == 1).unwrap();
        assert!(!entry.compiled, "artifact dropped, binding kept");

        for (i, doc) in items.iter().enumerate() {
            let (got, version) = client.get_doc(i as u64).unwrap();
            assert_eq!(version, versions[i], "versions survive eviction");
            assert_eq!(tree_to_text(&got), tree_to_text(doc));
        }

        // Stored-query ops recompile from the retained text on demand …
        let got = client
            .canonical_solution_stored(0)
            .unwrap()
            .expect("doc 0 is consistent")
            .to_tree()
            .unwrap();
        assert_eq!(tree_to_text(&got), expect_items[0]);
        let entries = client.list_settings().unwrap();
        assert!(
            entries.iter().find(|e| e.bind_id == 1).unwrap().compiled,
            "resolve recompiled the artifact"
        );

        // … and a byte-identical re-upload is free (shares the recompiled
        // artifact) while keeping every stored document.
        let (_, reused) = client.put_setting(1, ITEMS_TEXT).unwrap();
        assert!(reused, "identical re-upload after eviction is a cache hit");
        for (i, _) in items.iter().enumerate() {
            let (got, version) = client.get_doc(i as u64).unwrap();
            assert_eq!(version, versions[i], "versions survive re-upload");
            assert_eq!(tree_to_text(&got), tree_to_text(&items[i]));
        }
        for (i, want) in expect_items.iter().enumerate() {
            let got = client
                .canonical_solution_stored(i as u64)
                .unwrap()
                .expect("stored doc is consistent")
                .to_tree()
                .unwrap();
            assert_eq!(&tree_to_text(&got), want);
        }

        // Default-setting documents were never affected: ids are
        // setting-scoped, so id 0 under setting 0 does not exist.
        client.set_setting(0);
        match client.get_doc(0) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownDoc),
            other => panic!("expected UnknownDoc under setting 0, got {other:?}"),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn four_concurrent_workers_answer_in_request_order_byte_for_byte() {
    let setting = books_to_writers_setting();
    // The heaviest document first: an answer that followed completion
    // order instead of request order would put the cheap tail before it.
    let mut docs = book_docs(7);
    docs.reverse();
    let expect = expect_texts(&setting, &docs);

    // Four workers, each with its own scratch, take the requests of two
    // connections; every request's documents are answered by the one
    // worker that took it, so the reply follows request order whichever
    // worker (and however warm its scratch) it lands on.
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    with_server(&setting, config, |addr, sock| {
        let mut tcp = Client::connect_tcp(&addr.to_string()).unwrap();
        let mut unix = Client::connect_unix(sock).unwrap();
        for client in [&mut tcp, &mut unix] {
            for _ in 0..4 {
                let got: Vec<String> = client
                    .canonical_solution_texts(&docs)
                    .unwrap()
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
                assert_eq!(got, expect, "answers must follow request order");
            }
        }
    });
}

/// The `items` source schema with a different STD: items land in
/// `out/row(@k)` instead of `out/rec(@k)`.
const ROWS_TEXT: &str = "source { root db; rule db = item*; rule item = eps; \
                         attrs item = @k; } target { root out; rule out = row*; \
                         rule row = eps; attrs row = @k; } \
                         std out[row(@k=$x)] :- db[item(@k=$x)];";

#[test]
fn a_rebind_is_never_answered_from_the_previous_settings_cache() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "xdx-registry-rebind-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let config = ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let doc = item_docs(3).pop().unwrap();
    let rows = parse_setting(ROWS_TEXT).expect("ROWS_TEXT parses");
    let expect_items = expect_texts(&items_setting(), std::slice::from_ref(&doc));
    let expect_rows = expect_texts(&rows, std::slice::from_ref(&doc));
    assert_ne!(expect_items, expect_rows);
    let query = UnionQuery::single(
        ConjunctiveTreeQuery::new(["k"], vec![parse_pattern("rec(@k=$k)").unwrap()]).unwrap(),
    );
    with_server(&books_to_writers_setting(), config, |addr, _| {
        let mut client = connect(addr);
        client.put_setting(3, ITEMS_TEXT).unwrap();
        client.set_setting(3);
        client.put_doc(1, &doc).unwrap();
        let solution = |client: &mut Client| {
            let wire = client.canonical_solution_stored(1).unwrap().unwrap();
            vec![tree_to_text(&wire.to_tree().unwrap())]
        };
        // Computed, then served from the cache.
        for _ in 0..2 {
            assert_eq!(solution(&mut client), expect_items);
            let answers = client.certain_answers_stored(&query, 1).unwrap().unwrap();
            assert_eq!(answers.len(), 3);
        }
        let stats = client.stats().unwrap();
        assert!(stats.counter("store.cache_hits").unwrap() >= 2);

        let (_, reused) = client.put_setting(3, ROWS_TEXT).unwrap();
        assert!(!reused, "different text compiles anew");
        for _ in 0..2 {
            assert_eq!(solution(&mut client), expect_rows);
            let answers = client.certain_answers_stored(&query, 1).unwrap().unwrap();
            assert!(
                answers.is_empty(),
                "no `rec` under the new STD: {answers:?}"
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
