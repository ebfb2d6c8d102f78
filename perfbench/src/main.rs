//! End-to-end and per-layer benchmark of the XML data exchange server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ship_small|ship_batch|stored_edit> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process binds a real `xdx-server` (`ServerConfig::default()` plus a
//! store directory) on loopback TCP and drives it closed loop from one
//! client thread per connection. Every answer is checked. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with `--trace 1`
//! the same workload runs again with spans around every call into each
//! layer (see `trace.rs`, `replay.rs`) and the line carries the per-layer
//! metrics. `perfbench/README.md` explains the workloads and metrics.

mod model;
mod replay;
mod stats;
mod trace;

use model::{Mode, Op, Spec, StoredDoc};
use rand::rngs::StdRng;
use rand::Rng;
use replay::{elapsed_ns, Outcome, PrivateStore, Replay};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace::Tracer;
use xdx_core::setting::DataExchangeSetting;
use xdx_core::{BatchEngine, CompiledSetting};
use xdx_patterns::query::UnionQuery;
use xdx_server::{
    Client, RequestBody, ResponseBody, Server, ServerConfig, ServerControl, StatsSnapshot, WireDoc,
};
use xdx_store::{encode_edits, DocEdit};
use xdx_xmltree::binary::encode_tree;
use xdx_xmltree::XmlTree;

const USAGE: &str = "usage: perfbench --workload <ship_small|ship_batch|stored_edit> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Latency classes: `<class>_p50_us` is an end-to-end metric, the p90 is
/// printed on a `#` line.
const CLASSES: [&str; 5] = ["solve", "answer", "check", "edit", "cached"];
const EDIT: usize = 3;
const CACHED: usize = 4;

/// Stored misses verified after the window, per client (every 8th miss).
const SAMPLE_CAP: usize = 256;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    *model::WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // All files stay inside the checkout, under the build directory that
    // `.gitignore` already excludes.
    let work = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the run's work directory");
    let report = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    report.print();
}

/// A metric as printed: value, unit, samples behind it.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: u64,
}

#[derive(Default)]
struct Report {
    header: Vec<String>,
    metrics: BTreeMap<String, Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    fn print(&self) {
        for line in &self.header {
            println!("# {line}");
        }
        for (name, m) in &self.metrics {
            println!("# metric {name} = {} {} (n={})", m.value, m.unit, m.samples);
        }
        for p in &self.problems {
            println!("# FAILED: {p}");
        }
        let finite = self.metrics.values().all(|m| m.value.is_finite());
        let correct = self.failed == 0 && finite && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, m)| m.value.is_finite())
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A running server on a thread of this process.
struct Live {
    control: Arc<ServerControl>,
    handle: JoinHandle<std::io::Result<()>>,
    addr: String,
}

impl Live {
    fn start(setting: &DataExchangeSetting, store_dir: &Path) -> Live {
        let config = ServerConfig {
            store_dir: Some(store_dir.to_path_buf()),
            ..ServerConfig::default()
        };
        let server =
            Server::bind(setting, Some("127.0.0.1:0"), None, config).expect("bind the server");
        let addr = server.tcp_addr().expect("TCP listener").to_string();
        let control = server.control();
        let handle = std::thread::spawn(move || server.run());
        Live {
            control,
            handle,
            addr,
        }
    }

    fn connect(&self) -> Client {
        let mut client = Client::connect_tcp(&self.addr).expect("connect to the server");
        client.use_binary().expect("negotiate the binary protocol");
        client
    }

    fn shutdown(self) {
        self.control.shutdown();
        self.handle
            .join()
            .expect("server thread")
            .expect("server run");
    }

    fn drain(self) {
        self.control.drain(Duration::from_secs(10));
        self.handle
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

/// Everything one client thread owns during the window.
struct Ctx {
    client: Client,
    docs: Vec<StoredDoc>,
    ship: Vec<Vec<XmlTree>>,
    ship_bytes: Vec<Vec<Vec<u8>>>,
    expected: Vec<[Outcome; 3]>,
    rng: StdRng,
}

/// A stored-miss reply kept for verification after the window.
struct Sample {
    op: Op,
    tree: XmlTree,
    served: Outcome,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    lat: [Vec<u64>; 5],
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    docs: u64,
    edit_bytes: u64,
    elapsed_ns: u64,
    /// Documents finished in each whole second of the window.
    per_second: Vec<u64>,
    samples: Vec<Sample>,
    misses: u64,
    /// Traced runs: (client ns, direct ns, traced) per request.
    pairs: Vec<(u64, u64, bool)>,
    tracer: Option<Tracer>,
    private: Option<PrivateStore>,
    highwater: usize,
    codec: (u64, u64),
}

impl ClientOut {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }
}

/// One request of a cycle.
enum Step {
    Ship { op: Op, r: usize },
    Edit { doc: usize, edits: Vec<DocEdit> },
    Miss { op: Op, doc: usize },
    Cached { doc: usize },
}

fn run(args: &Args, work: &Path) -> Report {
    let spec = &args.spec;
    let mut report = Report::default();
    let setting = xdx_bench::clio_setting(model::FIELDS, model::FIELDS);
    let query = xdx_bench::clio_query();
    let oracle = BatchEngine::new(&setting).parallelism(1);
    let spin_start = host_spin_us();
    report.header.push(host_header(args));

    // -- set-up, timed `spec.setups` times; the last one stays up ----------
    let mut setup_ns = Vec::new();
    let mut live = None;
    for round in 0..spec.setups {
        let dir = work.join(format!("store-{round}"));
        let mut docs = generate_docs(spec, args.seed);
        let start = Instant::now();
        let server = Live::start(&setting, &dir);
        let mut clients: Vec<Client> = (0..spec.conns).map(|_| server.connect()).collect();
        for (client, docs) in clients.iter_mut().zip(docs.iter_mut()) {
            preload(spec, client, docs, &query);
        }
        if spec.mode == Mode::Ship {
            let warm = model::ship_inputs(spec, args.seed, 0).swap_remove(0);
            clients[0]
                .canonical_solution_docs(&warm)
                .expect("warm-up solve");
            clients[0]
                .certain_answers(&query, &warm)
                .expect("warm-up answer");
            clients[0].check_consistency(&warm).expect("warm-up check");
        }
        setup_ns.push(elapsed_ns(start));
        if round + 1 < spec.setups {
            drop(clients);
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            live = Some((server, clients, docs, dir));
        }
    }
    let (server, clients, docs, store_dir) = live.expect("at least one set-up");
    let mut setup_sorted = setup_ns.clone();
    setup_sorted.sort_unstable();
    let setup_median = stats::percentile(&setup_sorted, 50.0).expect("set-up samples");
    report.put(
        "setup_s",
        setup_median as f64 / 1e9,
        "s",
        setup_ns.len() as u64,
    );

    // -- correctness before timing: every distinct input vs BatchEngine ----
    let mut ctxs = Vec::new();
    for (c, (mut client, docs)) in clients.into_iter().zip(docs).enumerate() {
        let ship = model::ship_inputs(spec, args.seed, c);
        let ship_bytes: Vec<Vec<Vec<u8>>> = ship
            .iter()
            .map(|batch| batch.iter().map(encode_tree).collect())
            .collect();
        let mut expected = Vec::new();
        for batch in &ship {
            let want = [Op::Solve, Op::Answer, Op::Check]
                .map(|op| oracle_outcome(&oracle, &query, op, batch));
            for (op, want) in [Op::Solve, Op::Answer, Op::Check].iter().zip(&want) {
                let mut off = Tracer::new(Instant::now());
                off.start_request(0, false);
                match served(&mut client, &mut off, ship_body(*op, batch, &query)) {
                    Ok(got) if &got == want => {}
                    Ok(_) => report.fail(format!(
                        "served {op:?} differs from BatchEngine before timing"
                    )),
                    Err(e) => report.fail(format!("served {op:?} before timing: {e}")),
                }
            }
            expected.push(want);
        }
        for doc in docs.iter().filter(|d| d.answer.is_some()) {
            let want = oracle_outcome(&oracle, &query, Op::Answer, std::slice::from_ref(&doc.tree));
            if Some(want) != doc.answer.clone().map(|a| Outcome::Answers(vec![a])) {
                report.fail(format!(
                    "stored answer of doc {} differs from BatchEngine",
                    doc.id
                ));
            }
        }
        ctxs.push(Ctx {
            client,
            docs,
            ship,
            ship_bytes,
            expected,
            rng: model::client_rng(args.seed, c),
        });
    }

    // -- traced runs: ping floor and the private stores --------------------
    let compiled = CompiledSetting::new(&setting);
    let chase = if args.trace {
        chase_counts(
            &compiled,
            ctxs.iter().flat_map(|ctx| {
                ctx.ship
                    .iter()
                    .flatten()
                    .chain(ctx.docs.iter().map(|d| &d.tree))
            }),
        )
    } else {
        (0, 0, 0)
    };
    let epoch = Instant::now();
    let mut ping_us = 0.0;
    let mut privates: Vec<Option<PrivateStore>> = (0..ctxs.len()).map(|_| None).collect();
    if args.trace {
        let mut pings: Vec<u64> = (0..2000)
            .map(|_| {
                let start = Instant::now();
                ctxs[0].client.ping().expect("ping");
                elapsed_ns(start)
            })
            .collect();
        pings.sort_unstable();
        ping_us = stats::percentile(&pings, 50.0).expect("pings") as f64 / 1e3;
        for (c, ctx) in ctxs.iter().enumerate() {
            let mut private = PrivateStore::open(&work.join(format!("private-{c}")), &query);
            let mut replay = Replay::new(&compiled, &query);
            let mut off = Tracer::new(epoch);
            off.start_request(0, false);
            for doc in &ctx.docs {
                private.put(doc.id, &doc.tree);
                if doc.answer.is_some() {
                    private
                        .miss(&mut off, &mut replay, doc.id, Op::Answer)
                        .expect("private warm-up");
                }
            }
            privates[c] = Some(private);
        }
    }

    // -- the timed window ---------------------------------------------------
    let before = ctxs[0].client.stats().expect("stats before the window");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let results: Vec<(Ctx, ClientOut)> = std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .zip(privates)
            .enumerate()
            .map(|(c, (ctx, private))| {
                let compiled = &compiled;
                let query = &query;
                s.spawn(move || {
                    client_loop(
                        spec, c, ctx, deadline, args.trace, private, compiled, query, epoch,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (mut ctxs, outs): (Vec<Ctx>, Vec<ClientOut>) = results.into_iter().unzip();
    let after = ctxs[0].client.stats().expect("stats after the window");

    // -- fold the clients' measurements -------------------------------------
    let mut lat: [Vec<u64>; 5] = Default::default();
    let (mut docs_done, mut edit_bytes, mut elapsed) = (0u64, 0u64, 0u64);
    let mut samples = Vec::new();
    let mut per_second: Vec<u64> = Vec::new();
    let mut pairs = Vec::new();
    let mut tracer = Tracer::new(epoch);
    let mut private_stores = Vec::new();
    let (mut highwater, mut codec) = (0usize, (0u64, 0u64));
    for out in outs {
        for (all, mine) in lat.iter_mut().zip(out.lat) {
            all.extend(mine);
        }
        report.attempted += out.attempted;
        report.failed += out.failed;
        report.problems.extend(out.problems);
        docs_done += out.docs;
        if per_second.len() < out.per_second.len() {
            per_second.resize(out.per_second.len(), 0);
        }
        for (all, mine) in per_second.iter_mut().zip(&out.per_second) {
            *all += mine;
        }
        edit_bytes += out.edit_bytes;
        elapsed = elapsed.max(out.elapsed_ns);
        samples.extend(out.samples);
        pairs.extend(out.pairs);
        if let Some(t) = out.tracer {
            tracer.merge(t);
        }
        private_stores.extend(out.private);
        highwater = highwater.max(out.highwater);
        codec = (codec.0 + out.codec.0, codec.1 + out.codec.1);
    }

    // Throughput of each whole second: a host that changes speed during
    // the run shows up as a wide spread here.
    let whole: Vec<f64> = per_second
        .iter()
        .take(args.seconds as usize)
        .map(|&d| d as f64)
        .collect();
    if let (Some([q1, median, q3]), Some(spread)) =
        (stats::quartiles(&whole), stats::iqr_over_median(&whole))
    {
        report.header.push(format!(
            "docs per second of the window: q1={q1:.0} median={median:.0} q3={q3:.0} \
             iqr/median={spread:.3} seconds={whole:?}"
        ));
    }

    // -- correctness after timing -------------------------------------------
    for sample in &samples {
        let want = oracle_outcome(
            &oracle,
            &query,
            sample.op,
            std::slice::from_ref(&sample.tree),
        );
        if want != sample.served {
            report.fail(format!(
                "stored {:?} miss differs from BatchEngine on the client's copy",
                sample.op
            ));
        }
    }
    for ctx in ctxs.iter_mut() {
        let step = (ctx.docs.len() / 8).max(1);
        for doc in ctx.docs.iter().step_by(step) {
            match ctx.client.get_doc(doc.id) {
                Ok((tree, version))
                    if version == doc.version && encode_tree(&tree) == doc.bytes() =>
                {
                    let shipped = ctx
                        .client
                        .certain_answers(&query, std::slice::from_ref(&tree));
                    let stored = ctx.client.certain_answers_stored(&query, doc.id);
                    match (shipped, stored) {
                        (Ok(a), Ok(Ok(b))) if a.len() == 1 && a[0].as_ref().ok() == Some(&b) => {}
                        _ => report.fail(format!(
                            "stored and shipped answers differ on doc {}",
                            doc.id
                        )),
                    }
                }
                Ok(_) => report.fail(format!(
                    "GetDoc of doc {} differs from the client's copy",
                    doc.id
                )),
                Err(e) => report.fail(format!("GetDoc of doc {}: {e}", doc.id)),
            }
        }
    }

    let last = ctxs[0].client.stats().expect("stats after the checks");

    // -- end-to-end metrics ---------------------------------------------------
    let window_s = elapsed as f64 / 1e9;
    report.put("docs_per_s", docs_done as f64 / window_s, "1/s", docs_done);
    for (class, samples) in CLASSES.iter().zip(lat.iter_mut()) {
        samples.sort_unstable();
        let n = samples.len() as u64;
        let p = |q| stats::percentile(samples, q).map_or(f64::NAN, |ns| ns as f64 / 1e3);
        report.put(&format!("{class}_p50_us"), p(50.0), "us", n);
        // p90 is printed but not an end-to-end metric: a slow host phase
        // moves it far more than the p50 (see README.md).
        report
            .header
            .push(format!("{class}_p90_us = {} us (n={n})", p(90.0)));
    }
    // Store write amplification in steady state: the WAL bytes the window
    // appended (a checkpoint resets the WAL after `CHECKPOINT_BYTES`), plus
    // one snapshot per `CHECKPOINT_BYTES` of WAL. Counting only the
    // snapshots that happen to fall inside one window would make the figure
    // jump by a whole snapshot between otherwise equal runs.
    let wal = |s: &StatsSnapshot| s.counter("store.wal_bytes").unwrap_or(0);
    let checkpoints = hist_delta(&before, &after, "store.checkpoint").0;
    let wal_appended =
        (wal(&after) + checkpoints * replay::CHECKPOINT_BYTES).saturating_sub(wal(&before));

    // -- durability: drain, re-bind on the same directory, compare ----------
    // Dropping the contexts closes the connections, so the drain settles
    // at once.
    let models: Vec<Vec<StoredDoc>> = ctxs.into_iter().map(|ctx| ctx.docs).collect();
    server.drain();
    // The drain's final checkpoint has written the snapshot.
    let snapshot_bytes =
        std::fs::metadata(store_dir.join(xdx_store::SNAPSHOT_FILE)).map_or(0, |m| m.len());
    let disk_bytes =
        wal_appended as f64 * (1.0 + snapshot_bytes as f64 / replay::CHECKPOINT_BYTES as f64);
    report.put(
        "disk_bytes_per_user_byte",
        disk_bytes / edit_bytes.max(1) as f64,
        "ratio",
        edit_bytes,
    );
    let start = Instant::now();
    let reopened = Live::start(&setting, &store_dir);
    let open_ms = elapsed_ns(start) as f64 / 1e6;
    let mut client = reopened.connect();
    for doc in models.iter().flatten() {
        match client.get_doc(doc.id) {
            Ok((tree, version)) if version == doc.version && encode_tree(&tree) == doc.bytes() => {}
            Ok(_) => report.fail(format!(
                "doc {} after re-bind differs from the acknowledged one",
                doc.id
            )),
            Err(e) => report.fail(format!("doc {} after re-bind: {e}", doc.id)),
        }
    }
    let resident = client
        .stats()
        .ok()
        .and_then(|s| s.counter("store.resident_tree_bytes"));
    drop(client);
    reopened.shutdown();

    let ok = report.attempted.saturating_sub(report.failed);
    report.put(
        "ok_frac",
        ok as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted,
    );
    report.put("peak_rss_mb", peak_rss_kb() as f64 / 1024.0, "MB", 1);
    let spin_end = host_spin_us();
    report.header.push(format!(
        "host.spin_us start={spin_start:.1} end={spin_end:.1}"
    ));

    if args.trace {
        let layer = LayerInput {
            before: &before,
            after: &after,
            last: &last,
            lat: &lat,
            tracer: &tracer,
            pairs: &pairs,
            private_stores: &mut private_stores,
            ping_us,
            open_ms,
            resident: resident.unwrap_or(0),
            highwater,
            codec,
            chase,
            spins: (spin_start, spin_end),
        };
        report.metrics.clear();
        per_layer(&mut report, layer);
        let path = work.with_file_name(format!("perfbench-trace-{}-{}.tsv", spec.name, args.seed));
        if let Ok(file) = std::fs::File::create(&path) {
            let mut out = std::io::BufWriter::new(file);
            if tracer
                .write_raw(&mut out)
                .and_then(|()| std::io::Write::flush(&mut out))
                .is_ok()
            {
                report
                    .header
                    .push(format!("trace written to {}", path.display()));
            }
        }
    }
    report
}

/// Generate every client's stored documents.
fn generate_docs(spec: &Spec, seed: u64) -> Vec<Vec<StoredDoc>> {
    (0..spec.conns)
        .map(|c| {
            (0..spec.stored_per_conn)
                .map(|i| StoredDoc::generate(spec, seed, c, i))
                .collect()
        })
        .collect()
}

/// Put a client's documents and warm the result cache of those that
/// cached reads will address (ship: the second half; stored: all).
fn preload(spec: &Spec, client: &mut Client, docs: &mut [StoredDoc], query: &UnionQuery) {
    for doc in docs.iter_mut() {
        doc.version = client.put_doc(doc.id, &doc.tree).expect("preload put");
    }
    let first_cached = match spec.mode {
        Mode::Ship => docs.len() / 2,
        Mode::Stored => 0,
    };
    for doc in docs[first_cached..].iter_mut() {
        let answer = client
            .certain_answers_stored(query, doc.id)
            .expect("warm-up answer");
        doc.answer = Some(answer.expect("warm-up answer computes"));
    }
}

fn ship_body(op: Op, batch: &[XmlTree], query: &UnionQuery) -> RequestBody {
    let docs: Vec<WireDoc> = batch
        .iter()
        .map(|t| WireDoc::Binary(encode_tree(t)))
        .collect();
    match op {
        Op::Solve => RequestBody::CanonicalSolution { docs },
        Op::Answer => RequestBody::CertainAnswers {
            query: query.to_string(),
            docs,
        },
        Op::Check => RequestBody::CheckConsistency { docs },
    }
}

fn stored_body(op: Op, doc_id: u64, query: &UnionQuery) -> RequestBody {
    match op {
        Op::Solve => RequestBody::CanonicalSolutionStored { doc_id },
        Op::Answer => RequestBody::CertainAnswersStored {
            query: query.to_string(),
            doc_id,
        },
        Op::Check => RequestBody::CheckConsistencyStored { doc_id },
    }
}

/// What `BatchEngine` answers for `op` on `trees`.
fn oracle_outcome(
    engine: &BatchEngine<'_>,
    query: &UnionQuery,
    op: Op,
    trees: &[XmlTree],
) -> Outcome {
    match op {
        Op::Solve => Outcome::Solutions(
            engine
                .canonical_solutions_batch(trees)
                .into_iter()
                .map(|r| r.map_or_else(|e| format!("error: {e}").into_bytes(), |t| encode_tree(&t)))
                .collect(),
        ),
        Op::Answer => Outcome::Answers(
            engine
                .certain_answers_batch(trees, query)
                .into_iter()
                .map(|r| {
                    r.map_or_else(
                        |e| vec![vec![format!("error: {e}")]],
                        |a| a.tuples.into_iter().collect(),
                    )
                })
                .collect(),
        ),
        Op::Check => Outcome::Checks(engine.check_consistency_batch(trees)),
    }
}

/// Send one request and wait for its reply, with spans around both halves.
fn exchange(
    client: &mut Client,
    t: &mut Tracer,
    body: RequestBody,
) -> Result<ResponseBody, String> {
    let id = t
        .span("client.send", |_| client.send(body))
        .map_err(|e| format!("send: {e}"))?;
    let frame = t
        .span("client.recv", |_| client.recv())
        .map_err(|e| format!("recv: {e}"))?;
    if frame.id != id {
        return Err(format!("reply id {} for request {id}", frame.id));
    }
    Ok(frame.body)
}

/// A served exchange-op reply in comparable form.
fn served(client: &mut Client, t: &mut Tracer, body: RequestBody) -> Result<Outcome, String> {
    let doc_err = |e: xdx_server::wire::WireError| format!("document error {:?}", e.code);
    match exchange(client, t, body)? {
        ResponseBody::Solutions(results) => results
            .into_iter()
            .map(|r| match r {
                Ok(WireDoc::Binary(bytes)) => Ok(bytes),
                Ok(WireDoc::Text(_)) => Err("text solution on a binary connection".to_string()),
                Err(e) => Err(doc_err(e)),
            })
            .collect::<Result<_, _>>()
            .map(Outcome::Solutions),
        ResponseBody::Answers(results) => results
            .into_iter()
            .map(|r| r.map_err(doc_err))
            .collect::<Result<_, _>>()
            .map(Outcome::Answers),
        ResponseBody::Consistency(flags) => Ok(Outcome::Checks(flags)),
        other => Err(format!("unexpected reply {}", short_debug(&other))),
    }
}

fn short_debug(body: &ResponseBody) -> String {
    let mut text = format!("{body:?}");
    text.truncate(120);
    text
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    spec: &Spec,
    c: usize,
    mut ctx: Ctx,
    deadline: Instant,
    trace: bool,
    mut private: Option<PrivateStore>,
    compiled: &CompiledSetting<'_>,
    query: &UnionQuery,
    epoch: Instant,
) -> (Ctx, ClientOut) {
    // Latency samples are reserved up front (address space only until
    // written), so the benchmark's own memory grows smoothly with the
    // request count instead of in reallocation steps `peak_rss_mb` would see.
    let mut out = ClientOut {
        lat: std::array::from_fn(|_| Vec::with_capacity(1 << 22)),
        ..ClientOut::default()
    };
    let mut tracer = Tracer::new(epoch);
    let mut replay = Replay::new(compiled, query);
    let start = Instant::now();
    // Ship workloads edit the first half of a client's documents and read
    // cached answers of the second half; `stored_edit` uses all of them for
    // both.
    let (edit_pool, query_pool) = match spec.mode {
        Mode::Ship => (ctx.docs.len() / 2, ctx.docs.len() / 2..ctx.docs.len()),
        Mode::Stored => (ctx.docs.len(), 0..ctx.docs.len()),
    };
    let mut k = 0u64;
    let mut req = (c as u64) << 40;
    while Instant::now() < deadline {
        let op = Op::of_cycle(k);
        let mut edited = 0;
        for i in 0..3 {
            let step = match (spec.mode, i) {
                (Mode::Ship, 0) => Step::Ship {
                    op,
                    r: (k as usize) % ctx.ship.len(),
                },
                (Mode::Ship, 1) | (Mode::Stored, 0) => {
                    edited = ctx.rng.gen_range(0..edit_pool);
                    let edits =
                        model::random_edit(&mut ctx.rng, &ctx.docs[edited], spec.stored_nodes);
                    Step::Edit { doc: edited, edits }
                }
                (Mode::Stored, 1) => Step::Miss { op, doc: edited },
                // A hit: any document of the query pool whose answer is
                // current (all of them on ship workloads, about a third on
                // `stored_edit`).
                _ => loop {
                    let doc = ctx.rng.gen_range(query_pool.clone());
                    if ctx.docs[doc].answer.is_some() {
                        break Step::Cached { doc };
                    }
                },
            };
            req += 1;
            tracer.start_request(req, trace && k.is_multiple_of(2));
            let docs_before = out.docs;
            request(
                &mut ctx,
                step,
                &mut tracer,
                trace,
                &mut replay,
                private.as_mut(),
                query,
                &mut out,
            );
            tracer.finish_request();
            let second = start.elapsed().as_secs() as usize;
            if out.per_second.len() <= second {
                out.per_second.resize(second + 1, 0);
            }
            out.per_second[second] += out.docs - docs_before;
        }
        k += 1;
    }
    out.elapsed_ns = elapsed_ns(start);
    if trace {
        out.tracer = Some(tracer);
        out.private = private;
        out.highwater = replay.assign_highwater;
        out.codec = (replay.codec_docs, replay.codec_bytes);
    }
    (ctx, out)
}

/// Run one request: serve it (timed), replay it directly when tracing, and
/// check the reply.
#[allow(clippy::too_many_arguments)]
fn request(
    ctx: &mut Ctx,
    step: Step,
    t: &mut Tracer,
    trace: bool,
    replay: &mut Replay<'_>,
    private: Option<&mut PrivateStore>,
    query: &UnionQuery,
    out: &mut ClientOut,
) {
    let root = t.begin("request");
    let (class, docs) = match &step {
        Step::Ship { op, r } => (*op as usize, ctx.ship[*r].len()),
        Step::Edit { .. } => (EDIT, 1),
        Step::Miss { op, .. } => (*op as usize, 1),
        Step::Cached { .. } => (CACHED, 1),
    };
    let start = Instant::now();
    let reply = t.span("client", |t| {
        // The body is built inside the timed span, as a client would encode
        // its request.
        let body = match &step {
            Step::Ship { op, r } => ship_body(*op, &ctx.ship[*r], query),
            Step::Edit { doc, edits } => {
                let mut blob = Vec::new();
                encode_edits(edits, &mut blob);
                out.edit_bytes += blob.len() as u64;
                RequestBody::EditDoc {
                    doc_id: ctx.docs[*doc].id,
                    base_version: ctx.docs[*doc].version,
                    edits: blob,
                }
            }
            Step::Miss { op, doc } => stored_body(*op, ctx.docs[*doc].id, query),
            Step::Cached { doc } => stored_body(Op::Answer, ctx.docs[*doc].id, query),
        };
        match step {
            Step::Edit { .. } => exchange(&mut ctx.client, t, body).map(Err),
            _ => served(&mut ctx.client, t, body).map(Ok),
        }
    });
    let client_ns = elapsed_ns(start);
    out.attempted += 1;
    out.docs += docs as u64;
    out.lat[class].push(client_ns);

    let direct = if trace {
        let private = private.expect("traced runs replay into a private store");
        let start = Instant::now();
        let direct = t.span("direct", |t| match &step {
            Step::Ship { op, r } => replay.ship(t, *op, &ctx.ship_bytes[*r]).map(Some),
            Step::Edit { doc, edits } => {
                private.edit(t, ctx.docs[*doc].id, edits);
                Ok(None)
            }
            Step::Miss { op, doc } => private.miss(t, replay, ctx.docs[*doc].id, *op).map(Some),
            Step::Cached { doc } => Ok(private.cached(t, ctx.docs[*doc].id)),
        });
        out.pairs
            .push((client_ns, elapsed_ns(start), t.recording()));
        Some(direct)
    } else {
        None
    };
    t.end(root);

    let replay_differs = matches!(
        (&direct, &reply),
        (Some(Ok(Some(replayed))), Ok(Ok(got))) if replayed != got
    );
    let verdict: Result<(), String> = match (step, reply) {
        (_, Err(e)) => Err(e),
        (Step::Ship { op, r }, Ok(Ok(got))) => {
            if got == ctx.expected[r][op as usize] {
                Ok(())
            } else {
                Err(format!("shipped {op:?} reply differs from BatchEngine"))
            }
        }
        (Step::Edit { doc, edits }, Ok(Err(ResponseBody::EditDocOk { version }))) => {
            let d = &mut ctx.docs[doc];
            if version > d.version {
                d.apply(&edits, version);
                Ok(())
            } else {
                Err(format!(
                    "edit of doc {} acknowledged version {version} after {}",
                    d.id, d.version
                ))
            }
        }
        (Step::Edit { .. }, Ok(Err(other))) => Err(format!("edit reply {}", short_debug(&other))),
        (Step::Miss { op, doc }, Ok(Ok(got))) => {
            out.misses += 1;
            let d = &mut ctx.docs[doc];
            let shape = match (&got, op) {
                (Outcome::Checks(v), Op::Check) => v == &[true],
                (Outcome::Answers(v), Op::Answer) => v.len() == 1,
                (Outcome::Solutions(v), Op::Solve) => v.len() == 1,
                _ => false,
            };
            if let (Outcome::Answers(v), true) = (&got, shape) {
                d.answer = Some(v[0].clone());
            }
            if out.misses % 8 == 1 && out.samples.len() < SAMPLE_CAP {
                out.samples.push(Sample {
                    op,
                    tree: d.tree.clone(),
                    served: got.clone(),
                });
            }
            if shape {
                Ok(())
            } else {
                Err(format!("stored {op:?} reply has the wrong shape"))
            }
        }
        (Step::Cached { doc }, Ok(Ok(got))) => {
            let d = &ctx.docs[doc];
            match &d.answer {
                Some(a) if got == Outcome::Answers(vec![a.clone()]) => Ok(()),
                _ => Err(format!(
                    "cached answer of doc {} differs from its last answer",
                    d.id
                )),
            }
        }
        (_, Ok(_)) => Err("reply of the wrong kind".to_string()),
    };
    let replay_ok = match &direct {
        Some(Err(e)) => Err(format!("direct replay failed: {e}")),
        _ if replay_differs => Err("served reply differs from the direct replay".to_string()),
        _ => Ok(()),
    };
    if let Err(e) = verdict.and(replay_ok) {
        out.fail(e);
    }
}

/// Inputs of the per-layer report of a traced run.
struct LayerInput<'a> {
    before: &'a StatsSnapshot,
    after: &'a StatsSnapshot,
    last: &'a StatsSnapshot,
    lat: &'a [Vec<u64>; 5],
    tracer: &'a Tracer,
    pairs: &'a [(u64, u64, bool)],
    private_stores: &'a mut [PrivateStore],
    ping_us: f64,
    open_ms: f64,
    resident: u64,
    highwater: usize,
    codec: (u64, u64),
    chase: (u64, u64, u64),
    spins: (f64, f64),
}

/// The server's request phases (Stats v2 `req.<op>.s<setting>.<phase>`).
const PHASES: [&str; 8] = [
    "decode", "queue", "resolve", "plan", "exec", "store", "encode", "flush",
];

fn per_layer(report: &mut Report, l: LayerInput<'_>) {
    let totals = l.tracer.totals();
    let mut span_mean = |metric: &str, span: &str| {
        let (value, n) = totals.get(span).map_or((f64::NAN, 0), |t| {
            (t.wall_ns as f64 / t.count.max(1) as f64 / 1e3, t.count)
        });
        report.put(metric, value, "us", n);
    };
    span_mean("client.send_us", "client.send");
    span_mean("client.recv_us", "client.recv");
    span_mean("codec.encode_us_per_doc", "codec.encode");
    span_mean("codec.decode_us_per_doc", "codec.decode");
    span_mean("dtd.conforms_us_per_doc", "dtd.conforms");
    span_mean("plan.index_us_per_doc", "plan.index");
    span_mean("plan.query_us_per_doc", "plan.query");
    span_mean("core.presolution_us_per_doc", "core.presolution");
    span_mean("core.chase_us_per_doc", "core.chase");
    span_mean("core.solution_us_per_doc", "core.solution");
    span_mean("core.answer_us_per_doc", "core.answer");
    span_mean("core.check_us_per_doc", "core.check");
    let (codec_docs, codec_bytes) = l.codec;
    report.put(
        "codec.bytes_per_doc",
        codec_bytes as f64 / codec_docs.max(1) as f64,
        "bytes",
        codec_docs,
    );
    report.put("core.assign_highwater", l.highwater as f64, "count", 1);
    let (chased, steps, repairs) = l.chase;
    report.put(
        "core.chase_steps_per_doc",
        steps as f64 / chased.max(1) as f64,
        "count",
        chased,
    );
    // The Clio setting's fully specified targets chase clean, so repairs
    // are only shown in the header (they stay 0 on these inputs).
    report.header.push(format!(
        "core.chase_repairs_per_doc={}",
        repairs as f64 / chased.max(1) as f64
    ));

    // Server phases over the window: mean per served request.
    let served_ops: Vec<String> = l
        .last
        .histograms
        .iter()
        .filter_map(|h| h.name.strip_suffix(".total"))
        .filter(|name| name.starts_with("req.") && !name.starts_with("req.stats."))
        .map(str::to_string)
        .collect();
    let requests: u64 = served_ops
        .iter()
        .map(|op| hist_delta(l.before, l.after, &format!("{op}.total")).0)
        .sum();
    let phase_delta = |from: &StatsSnapshot, to: &StatsSnapshot, phase: &str| {
        served_ops.iter().fold((0, 0), |acc, op| {
            let (n, sum) = hist_delta(from, to, &format!("{op}.{phase}"));
            (acc.0 + n, acc.1 + sum)
        })
    };
    let mut phase_sum_ns = 0u64;
    for phase in PHASES {
        let (mut n, sum) = phase_delta(l.before, l.after, phase);
        phase_sum_ns += sum;
        // Mean over the requests that pass through the phase. A phase the
        // window's ops never enter (`plan` on stored ops, which plan inside
        // `exec`) is read from the shipped queries of the checks after it.
        let mut mean_sum = sum;
        if n == 0 {
            (n, mean_sum) = phase_delta(l.after, l.last, phase);
        }
        let value = mean_sum as f64 / n.max(1) as f64 / 1e3;
        report.put(&format!("server.phase.{phase}_us"), value, "us", n);
        if phase == "resolve" {
            report.put("registry.resolve_us", value, "us", n);
        }
    }
    let client_sum_ns: u64 = l.lat.iter().flatten().sum();
    report.put(
        "server.phase_cover_frac",
        phase_sum_ns as f64 / client_sum_ns.max(1) as f64,
        "ratio",
        requests,
    );
    report.put("server.ping_us", l.ping_us, "us", 2000);
    // Means, not medians: every workload mixes request kinds whose times
    // differ by orders of magnitude, and a mean weighs each by its count.
    let pairs = l.pairs.len().max(1) as f64;
    let gap: f64 = l
        .pairs
        .iter()
        .map(|&(s, d, _)| s as f64 - d as f64)
        .sum::<f64>()
        / pairs;
    report.put("server.overhead_us", gap / 1e3, "us", l.pairs.len() as u64);

    // Tracing cost: whole requests (served + replay) of traced cycles over
    // those of untraced cycles, same run, same op mix.
    let mean_total = |traced: bool| {
        let (n, sum) = l
            .pairs
            .iter()
            .filter(|p| p.2 == traced)
            .fold((0u64, 0u64), |acc, p| (acc.0 + 1, acc.1 + p.0 + p.1));
        sum as f64 / n.max(1) as f64
    };
    report.put(
        "trace.overhead_ratio",
        mean_total(true) / mean_total(false),
        "ratio",
        l.pairs.len() as u64,
    );
    let direct = totals.get("direct").copied().unwrap_or_default();
    report.put(
        "trace.direct_cover_frac",
        1.0 - direct.self_ns as f64 / direct.wall_ns.max(1) as f64,
        "ratio",
        direct.count,
    );
    report.put(
        "trace.spans",
        totals.values().map(|t| t.count).sum::<u64>() as f64,
        "count",
        1,
    );

    // Store: the private replay store, and the server's own counters.
    let median_of = |all: Vec<u64>| {
        let mut all = all;
        all.sort_unstable();
        let n = all.len() as u64;
        (
            stats::percentile(&all, 50.0).map_or(f64::NAN, |x| x as f64 / 1e3),
            n,
        )
    };
    let (put, n) = median_of(
        l.private_stores
            .iter()
            .flat_map(|p| p.put_ns.clone())
            .collect(),
    );
    report.put("store.put_us", put, "us", n);
    let (edit, n) = median_of(
        l.private_stores
            .iter()
            .flat_map(|p| p.edit_ns.clone())
            .collect(),
    );
    report.put("store.edit_us", edit, "us", n);
    let (get, n) = median_of(
        l.private_stores
            .iter()
            .flat_map(|p| p.get_ns.clone())
            .collect(),
    );
    report.put("store.get_us", get, "us", n);
    let (wal_bytes, wal_edits) = l.private_stores.iter().fold((0, 0), |acc, p| {
        (acc.0 + p.wal_edit_bytes.0, acc.1 + p.wal_edit_bytes.1)
    });
    report.put(
        "store.wal_bytes_per_edit",
        wal_bytes as f64 / wal_edits.max(1) as f64,
        "bytes",
        wal_edits,
    );
    let (checkpoint_us, n) = median_of(
        l.private_stores
            .iter_mut()
            .map(|p| p.checkpoint())
            .collect(),
    );
    report.put("store.checkpoint_ms", checkpoint_us / 1e3, "ms", n);
    // Since the server started: the window alone may stay under the
    // 256 KiB that triggers one.
    let fsyncs = l.after.histogram("store.fsync").map_or(0, |h| h.count);
    report.put("store.fsyncs", fsyncs as f64, "count", 1);
    report.put("store.open_ms", l.open_ms, "ms", 1);
    let counter = |s: &StatsSnapshot, name: &str| s.counter(name).unwrap_or(0);
    let hits = counter(l.after, "store.cache_hits") - counter(l.before, "store.cache_hits");
    let misses = counter(l.after, "store.cache_misses") - counter(l.before, "store.cache_misses");
    report.put(
        "store.cache_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        hits + misses,
    );
    report.put("store.resident_tree_bytes", l.resident as f64, "bytes", 1);
    report.put("host.spin_start_us", l.spins.0, "us", 1);
    report.put("host.spin_end_us", l.spins.1, "us", 1);
}

/// `(count, sum)` a Stats v2 histogram gained between two snapshots.
fn hist_delta(before: &StatsSnapshot, after: &StatsSnapshot, name: &str) -> (u64, u64) {
    let get = |s: &StatsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (b, a) = (get(before), get(after));
    (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1))
}

/// Chase work per document over `trees`: `(documents, steps, repairs)`.
fn chase_counts<'t>(
    compiled: &CompiledSetting<'_>,
    trees: impl Iterator<Item = &'t XmlTree>,
) -> (u64, u64, u64) {
    let mut scratch = xdx_core::ExchangeScratch::new();
    let (mut docs, mut steps, mut repairs) = (0, 0, 0);
    for tree in trees {
        scratch.reset_counters();
        let _ = compiled.canonical_solution_with(tree, &mut scratch);
        docs += 1;
        steps += scratch.counters.chase_steps;
        repairs += scratch.counters.chase_repairs;
    }
    (docs, steps, repairs)
}

/// The host facts a result depends on, as one header line.
fn host_header(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    let defaults = ServerConfig::default();
    format!(
        "host nproc={nproc} kernel={kernel} commit={} workload={} seed={} seconds={} trace={} \
         server=ServerConfig::default()+store_dir workers={} store_fsync=every_256KiB \
         checkpoint_bytes={}",
        commit(),
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if defaults.workers == 0 {
            nproc
        } else {
            defaults.workers
        },
        defaults.wal_checkpoint_bytes,
    )
}

/// The checked-out commit, when the checkout is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| reference.to_string(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// A fixed arithmetic loop in the benchmark's own code, timed: recorded at
/// the start and the end of a run so a run taken while the host ran slow
/// can be recognised afterwards. Never used to correct a number.
fn host_spin_us() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set of this process (server, clients and inputs), KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
