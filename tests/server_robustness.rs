//! Robustness tests for the `xdx-server` front-end: connection deadlines
//! (slow-loris reaping, idle reaping), graceful drain (in-flight responses
//! flushed byte-identically, post-drain requests answered `GoAway`, the
//! process exits by the deadline), and the client's retry policy carrying
//! idempotent requests across a server drain + restart byte-identically.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xdx_server::wire::{self, RequestBody, RequestFrame, ResponseBody};
use xdx_server::{Client, ClientError, RetryPolicy, Server, ServerConfig};
use xml_data_exchange::core::setting::books_to_writers_setting;
use xml_data_exchange::xmltree::tree_to_text;
use xml_data_exchange::{BatchEngine, XmlTree};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xdx-robustness-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Distinct documents of growing size (book `i` has `i` authors).
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

/// One encoded `Ping` request, framing header included.
fn ping_frame() -> Vec<u8> {
    let mut buf = vec![0u8; 4];
    wire::encode_request_into(
        &RequestFrame {
            id: 1,
            setting_id: 0,
            body: RequestBody::Ping,
        },
        &mut buf,
    );
    let len = (buf.len() - 4) as u32;
    buf[0..4].copy_from_slice(&len.to_be_bytes());
    buf
}

#[test]
fn a_slow_loris_is_reaped_at_the_read_progress_deadline() {
    let setting = books_to_writers_setting();
    let config = ServerConfig {
        workers: 1,
        read_progress_timeout: Some(Duration::from_millis(300)),
        idle_timeout: None,
        ..ServerConfig::default()
    };
    let server = Server::bind(&setting, Some("127.0.0.1:0"), None, config).unwrap();
    let addr = server.tcp_addr().unwrap();
    let control = server.control();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.run());

        // A healthy client pipelining whole frames at a leisurely pace:
        // the progress clock restarts at every completed frame, so it
        // must never be reaped, even across many deadline periods.
        let healthy = scope.spawn(move || {
            let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
            for _ in 0..6 {
                client.ping().unwrap();
                std::thread::sleep(Duration::from_millis(150));
            }
        });

        // The slow loris dribbles the same ping one byte at a time — it
        // never completes a frame within the deadline and must be closed.
        let frame = ping_frame();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let start = Instant::now();
        let mut closed = false;
        'drip: for chunk in frame.chunks(1) {
            if stream.write_all(chunk).is_err() {
                closed = true;
                break 'drip;
            }
            std::thread::sleep(Duration::from_millis(150));
            if start.elapsed() > Duration::from_secs(15) {
                break 'drip; // far past the deadline and still writable
            }
        }
        if !closed {
            // The frame is still incomplete when the deadline hits; the
            // read observes the server-side close as EOF or a reset.
            let mut byte = [0u8; 1];
            closed = matches!(stream.read(&mut byte), Ok(0) | Err(_));
        }
        assert!(closed, "the slow-loris connection was never closed");
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "reaped only after {:?}",
            start.elapsed()
        );

        healthy.join().expect("healthy pipelining client survived");
        control.shutdown();
        handle.join().unwrap().unwrap();
    });
}

#[test]
fn an_idle_connection_is_reaped_and_an_active_one_is_not() {
    let setting = books_to_writers_setting();
    let config = ServerConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(250)),
        read_progress_timeout: None,
        ..ServerConfig::default()
    };
    let server = Server::bind(&setting, Some("127.0.0.1:0"), None, config).unwrap();
    let addr = server.tcp_addr().unwrap();
    let control = server.control();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.run());

        // Steady activity inside the idle window: never reaped.
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        for _ in 0..5 {
            client.ping().unwrap();
            std::thread::sleep(Duration::from_millis(100));
        }

        // Then go quiet past the deadline: the connection is closed, which
        // the next round trip surfaces as an I/O error (no silent retry —
        // this client has no retry policy).
        std::thread::sleep(Duration::from_millis(900));
        let err = client.ping().unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "{err}");

        // A fresh connection is accepted as usual.
        let mut fresh = Client::connect_tcp(&addr.to_string()).unwrap();
        fresh.ping().unwrap();
        drop((client, fresh));

        control.shutdown();
        handle.join().unwrap().unwrap();
    });
}

#[test]
fn drain_flushes_in_flight_responses_and_answers_new_requests_with_goaway() {
    let setting = books_to_writers_setting();
    let engine = BatchEngine::new(&setting);
    let docs = sources(64);
    let expected: Vec<Result<String, _>> = engine
        .canonical_solutions_batch(&docs)
        .into_iter()
        .map(|r| r.map(|t| tree_to_text(&t)))
        .collect();

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(&setting, Some("127.0.0.1:0"), None, config).unwrap();
    let addr = server.tcp_addr().unwrap();
    let control = server.control();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.run());

        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let wire_docs: Vec<wire::WireDoc> = docs
            .iter()
            .map(|t| wire::WireDoc::from_tree(t, wire::Codec::Text))
            .collect();

        // Pipeline several heavy batches onto the single worker, so the
        // connection stays unsettled for a long stretch.
        let in_flight: Vec<u64> = (0..4)
            .map(|_| {
                client
                    .send(RequestBody::CanonicalSolution {
                        docs: wire_docs.clone(),
                    })
                    .unwrap()
            })
            .collect();

        // Wait until the server has demonstrably admitted work, then drain.
        let mut observer = Client::connect_tcp(&addr.to_string()).unwrap();
        loop {
            let stats = observer.stats().unwrap();
            let highwater = stats.counter("server.inflight_highwater").unwrap_or(0);
            if highwater >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        control.drain(Duration::from_secs(60));

        // A request sent *after* the drain began is answered GoAway: it
        // was never executed and is safe to replay elsewhere.
        let rejected = client.send(RequestBody::Ping).unwrap();

        // Every in-flight response is still flushed, byte-identical to the
        // local engine's answers.
        let mut frames = std::collections::HashMap::new();
        for _ in 0..in_flight.len() + 1 {
            let frame = client.recv().unwrap();
            frames.insert(frame.id, frame.body);
        }
        for id in &in_flight {
            match frames.remove(id) {
                Some(ResponseBody::Solutions(results)) => {
                    let got: Vec<Result<String, _>> = results
                        .into_iter()
                        .map(|r| r.map(|d| d.as_text().unwrap().to_string()))
                        .collect();
                    for (g, w) in got.iter().zip(&expected) {
                        match (g, w) {
                            (Ok(g), Ok(w)) => assert_eq!(g, w, "drained response diverged"),
                            (Err(_), Err(_)) => {}
                            _ => panic!("drained response verdict diverged"),
                        }
                    }
                }
                other => panic!("in-flight request {id} answered with {other:?}"),
            }
        }
        assert!(
            matches!(frames.remove(&rejected), Some(ResponseBody::GoAway)),
            "the post-drain request was not answered GoAway"
        );

        // Once settled, the connection is closed and the server exits well
        // before the 60 s grace deadline.
        let closed = {
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                // EOF surfaces as an I/O error.
                if client.recv().is_err() {
                    break true;
                }
                if Instant::now() > deadline {
                    break false;
                }
            }
        };
        assert!(closed, "the drained connection was never closed");
        handle.join().unwrap().unwrap();
        drop(control);
    });
}

#[test]
fn a_retry_policy_carries_idempotent_requests_across_drain_and_restart() {
    let setting = books_to_writers_setting();
    let dir = fresh_dir("restart");
    let store_dir = dir.join("store");
    let sock = dir.join("xdx.sock");
    let config = || ServerConfig {
        workers: 1,
        store_dir: Some(store_dir.clone()),
        ..ServerConfig::default()
    };

    let server = Server::bind(&setting, None, Some(&sock), config()).unwrap();
    let control = server.control();
    let first = std::thread::spawn(move || server.run());

    let mut client = Client::connect_unix(&sock).unwrap();
    client.negotiate(wire::SUPPORTED_FEATURES).unwrap();
    client.set_retry_policy(Some(RetryPolicy {
        max_retries: 40,
        initial_backoff: Duration::from_millis(25),
        max_backoff: Duration::from_millis(200),
    }));

    let doc = sources(6).pop().unwrap();
    let version = client.put_doc(7, &doc).unwrap();
    let (before, v) = client.get_doc(7).unwrap();
    assert_eq!(v, version);

    // Drain the server away underneath the client. The store checkpoints
    // and the socket file disappears.
    control.drain(Duration::from_secs(10));
    first.join().unwrap().unwrap();
    assert!(!sock.exists(), "drain must remove the unix socket");

    // The client's next read fails over: the dead connection is detected,
    // re-dialed with backoff until the restarted server appears, then
    // re-negotiated — and the answer is byte-identical to before the
    // restart, served from the recovered store.
    let restarter = std::thread::spawn({
        let setting = setting.clone();
        let sock = sock.clone();
        let config = config();
        move || {
            std::thread::sleep(Duration::from_millis(400));
            let server = Server::bind(&setting, None, Some(&sock), config).unwrap();
            let control = server.control();
            let handle = std::thread::spawn(move || server.run());
            (control, handle)
        }
    });
    let (tree, recovered_version) = client.get_doc(7).unwrap();
    assert_eq!(tree_to_text(&tree), tree_to_text(&before));
    assert_eq!(recovered_version, version);

    // The reconnect re-negotiated the requested features transparently.
    assert_eq!(client.codec(), wire::Codec::Binary);

    // Mutations still work against the restarted server (freshly sent, not
    // replayed: writes are never blindly re-sent by the retry machinery).
    let v2 = client.put_doc(7, &doc).unwrap();
    assert_eq!(v2, version + 1);

    let (control, handle) = restarter.join().unwrap();
    control.shutdown();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
