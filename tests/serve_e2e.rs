//! End-to-end properties of the `mgx-serve` subsystem, driven over a real
//! loopback TCP connection:
//!
//! * the acceptance smoke — a `--quick`-scale server answers ≥ 8
//!   concurrent client connections with responses bit-identical to direct
//!   `Simulation` runs, and a repeated identical request is a store hit
//!   (the exposed `jobs_executed` counter stays put);
//! * the memoization property — for random job specs (suites, scheme
//!   subsets, scales, phase modes via the suite choice, and thread
//!   counts), the cold response and the warm/cached response are both
//!   byte-identical to calling the corresponding `evaluate_*_on` entry
//!   point directly.

use mgx::core::Scheme;
use mgx::serve::json::Json;
use mgx::serve::{spawn, Client, SchedulerConfig, ServerConfig, StoreConfig};
use mgx::sim::job::{JobSpec, Suite};
use mgx::sim::{DramBackend, Scale};
use proptest::prelude::*;

fn boot(workers: usize, queue: usize) -> mgx::serve::Handle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig { workers, queue_capacity: queue },
        store: StoreConfig::default(),
    })
    .expect("bind loopback")
}

fn executed(c: &mut Client) -> u64 {
    c.stats().unwrap().get("jobs_executed").and_then(Json::as_u64).expect("stats envelope")
}

/// What the registry itself would answer: the exact bytes `fetch` must
/// return, computed without any service in the loop.
fn direct_document(spec: &JobSpec) -> String {
    let canonical = spec.clone().canonicalize();
    canonical.result_json(&canonical.execute())
}

#[test]
fn quick_scale_server_answers_eight_concurrent_connections_bit_identically() {
    let server = boot(2, 16);
    let spec = JobSpec {
        suite: Suite::Video,
        scale: Scale::quick(),
        schemes: vec![],
        threads: 1,
        backend: DramBackend::ClosedForm,
    };
    let expected = direct_document(&spec);
    // Eight clients race the same submission; single-flight coalescing
    // must reduce them to exactly one simulation.
    let docs: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let spec = spec.clone();
                let addr = server.addr;
                s.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    c.run(&spec).expect("run round trip")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(docs.len(), 8);
    for doc in &docs {
        assert_eq!(doc, &expected, "served response must equal the direct Simulation run");
    }
    let mut c = Client::connect(&server.addr).unwrap();
    assert_eq!(executed(&mut c), 1, "eight concurrent requests, one simulation");
    // A later identical request is answered from the store: same bytes,
    // no new execution, and submit reports the cache hit.
    let reply = c.submit(&spec).unwrap();
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(c.fetch(&spec.digest_hex()).unwrap(), expected);
    assert_eq!(executed(&mut c), 1, "the repeat must not re-simulate");
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn backpressure_queue_still_completes_everything() {
    // A 1-slot queue with 1 worker forces submits to block; all four
    // distinct jobs must still complete with correct bytes.
    let server = boot(1, 1);
    let specs: Vec<JobSpec> = (2..=5)
        .map(|frames| JobSpec {
            suite: Suite::Video,
            scale: Scale { video_frames: frames, ..Scale::quick() },
            schemes: vec![],
            threads: 1,
            backend: DramBackend::ClosedForm,
        })
        .collect();
    std::thread::scope(|s| {
        for spec in &specs {
            let addr = server.addr;
            s.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                let doc = c.run(spec).expect("run");
                assert_eq!(doc, direct_document(spec));
            });
        }
    });
    let mut c = Client::connect(&server.addr).unwrap();
    assert_eq!(executed(&mut c), specs.len() as u64);
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn served_transformer_suite_matches_direct_evaluation() {
    // The LLM suite through the full wire path: the served document must be
    // byte-identical to the direct registry evaluation, and the repeat must
    // come from the store (the digest-salt bump for Suite::Transformer is
    // what makes that cache trustworthy across versions).
    let server = boot(2, 8);
    let spec = JobSpec {
        suite: Suite::Transformer,
        scale: Scale { dnn_batch: 1, bert_seq: 2, ..Scale::quick() },
        schemes: vec![],
        threads: 2,
        backend: DramBackend::ClosedForm,
    };
    let expected = direct_document(&spec);
    let mut c = Client::connect(&server.addr).expect("connect");
    let cold = c.run(&spec).expect("cold run");
    assert_eq!(cold, expected, "served transformer bytes must equal the direct evaluation");
    let before = executed(&mut c);
    let reply = c.submit(&spec).unwrap();
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(c.fetch(&spec.digest_hex()).unwrap(), expected);
    assert_eq!(executed(&mut c), before, "the repeat must not re-simulate");
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn metrics_op_agrees_with_the_request_sequence_and_stats() {
    // Issue a known op sequence, then check the `metrics` reply counts it
    // exactly — and that `stats` (which renders the same registry atomics)
    // can never disagree with it.
    let server = boot(2, 8);
    let spec = JobSpec {
        suite: Suite::Video,
        scale: Scale::quick(),
        schemes: vec![],
        threads: 1,
        backend: DramBackend::ClosedForm,
    };
    let mut c = Client::connect(&server.addr).unwrap();
    let cold = c.run(&spec).expect("cold run");
    let warm = c.run(&spec).expect("warm run");
    assert_eq!(cold, warm);
    let stats = c.stats().unwrap();
    let reply = c.metrics().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let m = reply.get("metrics").expect("metrics subdocument");
    let counter = |name: &str| m.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64);
    // Request accounting: exactly what this connection issued. (The
    // `metrics` request itself is counted after its reply renders, so it
    // does not observe itself.)
    assert_eq!(counter("mgx_requests_total{op=\"run\"}"), Some(2));
    assert_eq!(counter("mgx_requests_total{op=\"stats\"}"), Some(1));
    assert_eq!(counter("mgx_jobs_executed_total"), Some(1), "the warm run must be a store hit");
    // Cross-surface consistency: `stats` wire keys are rendered from the
    // same counters the `metrics` op exposes.
    let stat = |key: &str| stats.get(key).and_then(Json::as_u64);
    assert_eq!(counter("mgx_jobs_executed_total"), stat("jobs_executed"));
    assert_eq!(counter("mgx_store_hits_total"), stat("store_hits"));
    assert_eq!(counter("mgx_store_misses_total"), stat("store_misses"));
    // The per-op latency histogram saw exactly the run requests.
    let run_latency_count = m
        .get("histograms")
        .and_then(|h| h.get("mgx_request_ns{op=\"run\"}"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(run_latency_count, Some(2));
    // The Prometheus exposition is the same registry in the other dialect.
    let text = c.metrics_prometheus().expect("prometheus exposition");
    assert!(
        text.contains("mgx_requests_total{op=\"run\"} 2"),
        "exposition must carry the run count:\n{text}"
    );
    assert!(text.contains("# TYPE mgx_request_ns histogram"), "typed histogram family:\n{text}");
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn over_cap_request_line_is_rejected_and_the_daemon_keeps_serving() {
    use mgx::serve::server::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};
    let server = boot(1, 4);
    // One byte past the cap and no newline: the daemon must stop reading,
    // answer with the typed error, and close this connection.
    let mut raw = std::net::TcpStream::connect(server.addr).expect("connect");
    // Fail, rather than hang, if the daemon keeps waiting for a newline.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    raw.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).expect("send over-cap line");
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("typed error reply");
    let v = Json::parse(reply.trim_end()).expect("reply is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
    assert_eq!(v.get("code").and_then(Json::as_str), Some("line_too_long"), "{reply}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("clean close"), 0, "connection must close");
    // The next client is served as usual, and the rejection was counted.
    let mut c = Client::connect(&server.addr).expect("connect after rejection");
    assert_eq!(executed(&mut c), 0);
    let m = c.metrics().unwrap();
    let oversized = m
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("mgx_requests_total{op=\"oversized\"}"))
        .and_then(Json::as_u64);
    assert_eq!(oversized, Some(1));
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// Tiny-but-varied spec space. Debug-build simulation speed bounds the
/// knobs: genome exercises the `Serial` phase mode, video the
/// `Overlapped` one, and graph the pool fan-out over six datasets.
fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    let suite = prop_oneof![Just(Suite::Video), Just(Suite::Genome), Just(Suite::Graph),];
    (suite, 0u64..32, proptest::collection::vec(0usize..5, 0..5), 0usize..3).prop_map(
        |(suite, knob, scheme_idx, threads_idx)| {
            let scale = match suite {
                Suite::Video => Scale { video_frames: 2 + knob as usize % 6, ..Scale::quick() },
                Suite::Genome => Scale {
                    genome_reads: 1 + knob as usize % 3,
                    genome_read_len: 200 + 100 * (knob as usize % 3),
                    genome_divisor: 4000,
                    ..Scale::quick()
                },
                _ => Scale { graph_divisor: 2000 + 500 * knob, pr_iters: 1, ..Scale::quick() },
            };
            JobSpec {
                suite,
                scale,
                schemes: scheme_idx.into_iter().map(|i| Scheme::ALL[i]).collect(),
                threads: [1usize, 2, 4][threads_idx],
                backend: DramBackend::ClosedForm,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cold (simulated) and warm (cached) responses are byte-identical to
    /// the direct registry call, whatever the scheme subset, scale, phase
    /// mode, or thread count.
    #[test]
    fn served_responses_match_direct_evaluation(spec in spec_strategy()) {
        let server = boot(2, 8);
        let expected = direct_document(&spec);
        let mut c = Client::connect(&server.addr).expect("connect");
        let cold = c.run(&spec).expect("cold run");
        prop_assert_eq!(&cold, &expected, "cold response diverged from evaluate_*_on");
        let before = executed(&mut c);
        let warm = c.run(&spec).expect("warm run");
        prop_assert_eq!(&warm, &expected, "warm response diverged");
        prop_assert_eq!(executed(&mut c), before, "warm request must be served from the store");
        c.shutdown().expect("shutdown");
        server.join().expect("drain");
    }
}
