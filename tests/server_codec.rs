//! Proptests for the `xdx-server` wire codec: every request/response shape
//! round-trips under both document codecs, and hostile inputs — random
//! garbage, truncations and corruptions of valid wire frames *and* of
//! valid binary document frames — decode to structured errors without
//! ever panicking. Sampling is deterministic per test (the proptest shim
//! derives the seed from the test name) and scales with `PROPTEST_CASES`.

use proptest::prelude::*;
use xdx_server::wire::{
    decode_request, decode_response, encode_request, encode_response, Codec, DocResult, ErrorCode,
    RequestBody, RequestFrame, ResponseBody, ResponseFrame, WireDoc, WireError, SUPPORTED_FEATURES,
};
use xdx_xmltree::binary::{decode_tree, encode_tree};
use xdx_xmltree::{NullId, Value, XmlTree};

fn cases(default: u32) -> u32 {
    ProptestConfig::env_cases().unwrap_or(default)
}

/// Strings exercising every shape the codec must carry: empties, quotes,
/// backslashes, multi-byte UTF-8 (incl. the null marker ⊥), long runs.
fn random_string(rng: &mut TestRng) -> String {
    const PIECES: [&str; 8] = [
        "",
        "db",
        "db[book(@title=\"T0\")]",
        "quote\"back\\slash",
        "⊥7 nulls and ünïcode",
        "($x) :- work(@title=$x)",
        "\0binary\u{1}",
        "spaces and , commas ] brackets",
    ];
    let mut s = PIECES[rng.next_u64() as usize % PIECES.len()].to_string();
    if rng.next_u64().is_multiple_of(7) {
        s.push_str(&"x".repeat((rng.next_u64() % 300) as usize));
    }
    s
}

/// A random small tree: arbitrary labels/attribute names (hostile strings
/// included), constants and nulls, a few levels of nesting.
fn random_tree(rng: &mut TestRng) -> XmlTree {
    let mut tree = XmlTree::new(format!("r{}", rng.next_u64() % 3));
    let mut nodes = vec![tree.root()];
    for _ in 0..rng.next_u64() % 12 {
        let parent = nodes[rng.next_u64() as usize % nodes.len()];
        let node = tree.add_child(parent, random_string(rng));
        for _ in 0..rng.next_u64() % 3 {
            let value = if rng.next_u64().is_multiple_of(3) {
                Value::Null(NullId(rng.next_u64()))
            } else {
                Value::constant(random_string(rng))
            };
            tree.set_attr(node, format!("@{}", random_string(rng)), value);
        }
        nodes.push(node);
    }
    tree
}

/// A random document in the given codec. The wire layer carries binary
/// documents as opaque blobs, so for round-trip purposes *any* bytes are a
/// valid binary document — half the time use a real encoded tree, half
/// the time garbage.
fn random_doc(rng: &mut TestRng, codec: Codec) -> WireDoc {
    match codec {
        Codec::Text => WireDoc::Text(random_string(rng)),
        Codec::Binary => {
            if rng.next_u64().is_multiple_of(2) {
                WireDoc::Binary(encode_tree(&random_tree(rng)))
            } else {
                let len = (rng.next_u64() % 64) as usize;
                WireDoc::Binary((0..len).map(|_| rng.next_u64() as u8).collect())
            }
        }
    }
}

fn random_docs(rng: &mut TestRng, codec: Codec) -> Vec<WireDoc> {
    (0..rng.next_u64() % 5)
        .map(|_| random_doc(rng, codec))
        .collect()
}

fn random_request(rng: &mut TestRng, codec: Codec) -> RequestFrame {
    let id = rng.next_u64();
    let body = match rng.next_u64() % 6 {
        0 => RequestBody::Ping,
        1 => RequestBody::Hello {
            features: rng.next_u64() as u32,
        },
        2 => RequestBody::CheckConsistency {
            docs: random_docs(rng, codec),
        },
        3 => RequestBody::CanonicalSolution {
            docs: random_docs(rng, codec),
        },
        4 => RequestBody::CertainAnswers {
            query: random_string(rng),
            docs: random_docs(rng, codec),
        },
        _ => RequestBody::CertainAnswersBoolean {
            query: random_string(rng),
            docs: random_docs(rng, codec),
        },
    };
    RequestFrame {
        id,
        setting_id: rng.next_u64(),
        body,
    }
}

fn random_wire_error(rng: &mut TestRng) -> WireError {
    const CODES: [ErrorCode; 10] = [
        ErrorCode::MalformedFrame,
        ErrorCode::FrameTooLarge,
        ErrorCode::UnknownOp,
        ErrorCode::TreeParse,
        ErrorCode::QuerySyntax,
        ErrorCode::NotFullySpecified,
        ErrorCode::AttributeClash,
        ErrorCode::NoRepair,
        ErrorCode::ChaseBudgetExceeded,
        ErrorCode::BinaryDoc,
    ];
    WireError::new(
        CODES[rng.next_u64() as usize % CODES.len()],
        random_string(rng),
    )
}

fn random_results<T>(
    rng: &mut TestRng,
    mut value: impl FnMut(&mut TestRng) -> T,
) -> Vec<DocResult<T>> {
    (0..rng.next_u64() % 5)
        .map(|_| {
            if rng.next_u64().is_multiple_of(3) {
                Err(random_wire_error(rng))
            } else {
                Ok(value(rng))
            }
        })
        .collect()
}

fn random_response(rng: &mut TestRng, codec: Codec) -> ResponseFrame {
    let id = rng.next_u64();
    let body = match rng.next_u64() % 8 {
        0 => ResponseBody::Pong,
        1 => ResponseBody::Busy,
        2 => ResponseBody::HelloOk {
            features: rng.next_u64() as u32 & SUPPORTED_FEATURES,
        },
        3 => ResponseBody::Error(random_wire_error(rng)),
        4 => ResponseBody::Consistency((0..rng.next_u64() % 6).map(|i| i % 2 == 0).collect()),
        5 => ResponseBody::Solutions(random_results(rng, |rng| random_doc(rng, codec))),
        6 => ResponseBody::Answers(random_results(rng, |rng| {
            (0..rng.next_u64() % 4)
                .map(|_| {
                    (0..rng.next_u64() % 3)
                        .map(|_| random_string(rng))
                        .collect()
                })
                .collect()
        })),
        _ => ResponseBody::Booleans(random_results(rng, |rng| rng.next_u64() % 2 == 0)),
    };
    ResponseFrame { id, body }
}

fn random_codec(rng: &mut TestRng) -> Codec {
    if rng.next_u64().is_multiple_of(2) {
        Codec::Text
    } else {
        Codec::Binary
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    #[test]
    fn every_request_shape_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let codec = random_codec(&mut rng);
        let req = random_request(&mut rng, codec);
        let bytes = encode_request(&req);
        let back = decode_request(&bytes, codec);
        prop_assert_eq!(Ok(req), back);
    }

    #[test]
    fn every_response_shape_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let codec = random_codec(&mut rng);
        let resp = random_response(&mut rng, codec);
        let bytes = encode_response(&resp);
        let back = decode_response(&bytes, codec);
        prop_assert_eq!(Ok(resp), back);
    }

    #[test]
    fn truncations_and_corruptions_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let codec = random_codec(&mut rng);
        let bytes = if seed % 2 == 0 {
            encode_request(&random_request(&mut rng, codec))
        } else {
            encode_response(&random_response(&mut rng, codec))
        };
        // Truncate at a random point; decode under both codecs (a codec
        // mismatch must fail structurally, never panic).
        if !bytes.is_empty() {
            let cut = (rng.next_u64() as usize) % bytes.len();
            for codec in [Codec::Text, Codec::Binary] {
                let _ = decode_request(&bytes[..cut], codec);
                let _ = decode_response(&bytes[..cut], codec);
            }
        }
        // Flip a random byte.
        let mut corrupted = bytes.clone();
        if !corrupted.is_empty() {
            let at = (rng.next_u64() as usize) % corrupted.len();
            corrupted[at] ^= 1 << (rng.next_u64() % 8);
            for codec in [Codec::Text, Codec::Binary] {
                let _ = decode_request(&corrupted, codec);
                let _ = decode_response(&corrupted, codec);
            }
        }
        // A decoded-then-re-encoded frame is stable (when it decodes).
        if let Ok(req) = decode_request(&corrupted, codec) {
            prop_assert_eq!(encode_request(&req).len(), corrupted.len());
        }
    }

    #[test]
    fn pure_garbage_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let len = (rng.next_u64() % 64) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        for codec in [Codec::Text, Codec::Binary] {
            let _ = decode_request(&garbage, codec);
            let _ = decode_response(&garbage, codec);
        }
    }

    /// The binary *document* codec under the same hostile treatment: valid
    /// frames round-trip through the [`WireDoc`] path, and truncated /
    /// corrupted / garbage frames are structured errors, never panics.
    #[test]
    fn binary_document_frames_survive_hostile_bytes(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let tree = random_tree(&mut rng);
        let bytes = encode_tree(&tree);
        let doc = WireDoc::Binary(bytes.clone());
        let back = doc.to_tree().expect("valid frame decodes");
        prop_assert_eq!(
            back.ordered_canonical_form(),
            tree.ordered_canonical_form()
        );
        let cut = (rng.next_u64() as usize) % bytes.len();
        prop_assert!(WireDoc::Binary(bytes[..cut].to_vec()).to_tree().is_err());
        let mut corrupted = bytes.clone();
        let at = (rng.next_u64() as usize) % corrupted.len();
        corrupted[at] ^= 1 << (rng.next_u64() % 8);
        if let Ok(tree) = decode_tree(&corrupted) {
            // A surviving corruption must still re-encode to a frame that
            // decodes to the same tree (total decoder, no hidden state).
            let reencoded = encode_tree(&tree);
            let twice = decode_tree(&reencoded).expect("re-encoded frame decodes");
            prop_assert_eq!(
                twice.ordered_canonical_form(),
                tree.ordered_canonical_form()
            );
        }
        // Text of a binary doc and binary of a text doc: decodable or
        // structured error, both without panicking.
        let _ = WireDoc::Text(String::from_utf8_lossy(&corrupted).into_owned()).to_tree();
    }
}

/// The `StatsOk` encoding is pinned byte for byte: the counter rows, then
/// the histogram section — always present, here with 0 rows.
#[test]
fn stats_bytes_pinned() {
    let counters = vec![
        ("server.accepted_conns".to_string(), 3u64),
        ("server.uptime_secs".to_string(), 17u64),
    ];
    let resp = ResponseFrame {
        id: 0xDEAD_BEEF_0042,
        body: ResponseBody::StatsOk {
            counters: counters.clone(),
            histograms: vec![],
        },
    };
    // [status][id][op][u16 n][(u32 len + name + u64 value)*][u16 0] — the
    // layout PROTOCOL.md fixes.
    let mut expect = vec![0u8]; // STATUS_OK
    expect.extend_from_slice(&0xDEAD_BEEF_0042u64.to_be_bytes());
    expect.push(17); // OpCode::Stats
    expect.extend_from_slice(&(counters.len() as u16).to_be_bytes());
    for (name, value) in &counters {
        expect.extend_from_slice(&(name.len() as u32).to_be_bytes());
        expect.extend_from_slice(name.as_bytes());
        expect.extend_from_slice(&value.to_be_bytes());
    }
    expect.extend_from_slice(&0u16.to_be_bytes()); // no histogram rows
    assert_eq!(encode_response(&resp), expect, "StatsOk bytes changed");
    assert_eq!(Ok(resp), decode_response(&expect, Codec::Text));
    // The section is required: the counters alone are a truncated frame.
    let short = &expect[..expect.len() - 2];
    let err = decode_response(short, Codec::Text).unwrap_err();
    assert_eq!(err.error.code, ErrorCode::MalformedFrame);
}

/// Stats histogram rows survive an encode/decode round trip, including
/// empty histograms and rows with multiple sparse buckets.
#[test]
fn stats_v2_histogram_rows_round_trip() {
    use xdx_server::wire::StatsHistogram;
    let resp = ResponseFrame {
        id: 99,
        body: ResponseBody::StatsOk {
            counters: vec![("a".to_string(), 1)],
            histograms: vec![
                StatsHistogram {
                    name: "req.solution.s0.total".to_string(),
                    unit: 0,
                    count: 3,
                    sum: 3000,
                    min: 800,
                    max: 1400,
                    buckets: vec![(10, 2), (11, 1)],
                },
                StatsHistogram {
                    name: "store.fsync".to_string(),
                    unit: 0,
                    count: 0,
                    sum: 0,
                    min: 0,
                    max: 0,
                    buckets: vec![],
                },
            ],
        },
    };
    let bytes = encode_response(&resp);
    assert_eq!(Ok(resp), decode_response(&bytes, Codec::Text));
}

/// A hostile histogram row — a repeated bucket index whose counts sum past
/// `u64::MAX`, or an index past the last bucket — is a decode error, not a
/// panic in the client's percentile math.
#[test]
fn hostile_stats_histogram_rows_are_rejected() {
    use xdx_server::wire::StatsHistogram;
    use xdx_server::StatsSnapshot;
    let row = |buckets: Vec<(u8, u64)>| ResponseFrame {
        id: 5,
        body: ResponseBody::StatsOk {
            counters: vec![],
            histograms: vec![StatsHistogram {
                name: "req.solution.s0.total".to_string(),
                unit: 0,
                count: u64::MAX,
                sum: 0,
                min: 1,
                max: 9,
                buckets,
            }],
        },
    };
    for buckets in [
        vec![(3, u64::MAX), (3, u64::MAX)],
        vec![(4, 1), (3, 1)],
        vec![(64, 1)],
        vec![(255, u64::MAX)],
    ] {
        let bytes = encode_response(&row(buckets.clone()));
        let err = decode_response(&bytes, Codec::Text).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::MalformedFrame, "{buckets:?}");
        assert!(
            err.error.message.contains("bucket"),
            "{}",
            err.error.message
        );
    }
    // Ascending indices whose counts still overflow a running sum decode,
    // and rendering them saturates instead of panicking.
    let bytes = encode_response(&row(vec![(1, u64::MAX), (63, u64::MAX)]));
    let Ok(ResponseFrame {
        body: ResponseBody::StatsOk {
            counters,
            histograms,
        },
        ..
    }) = decode_response(&bytes, Codec::Text)
    else {
        panic!("ascending buckets must decode");
    };
    let shown = StatsSnapshot {
        counters,
        histograms,
    }
    .to_string();
    assert!(shown.contains("req.solution.s0.total"));
}
