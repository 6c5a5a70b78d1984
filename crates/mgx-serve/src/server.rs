//! The TCP front end: a line-delimited JSON protocol over
//! `std::net::TcpListener`, one thread per connection, one response line
//! per request line.
//!
//! # Protocol
//!
//! Requests are single-line JSON objects selected by `"op"`:
//!
//! | op | fields | reply |
//! |---|---|---|
//! | `submit` | `spec` (see [`crate::codec::spec_from_wire`]) | `{"ok":true,"job":"<16-hex>","status":...,"cached":bool}` |
//! | `poll` | `job` | `{"ok":true,"job":...,"status":"queued\|running\|done\|failed"}` |
//! | `fetch` | `job` | the stored result document itself, verbatim |
//! | `run` | `spec` | submit + fetch in one round trip (reply = document) |
//! | `stats` | — | counters (`jobs_executed`, store hits/misses, …) |
//! | `metrics` | `format` (optional) | the full observability registry: line-JSON dialect by default, `"format":"prometheus"` for the text exposition (as an escaped `exposition` string) |
//! | `suites` | — | the workload registry with one-line descriptions |
//! | `shutdown` | — | `{"ok":true,"draining":true}`, then graceful drain |
//! | anything else | — | `{"ok":false,"error":...}` |
//!
//! `fetch`/`run` reply with the result document **verbatim** (the bytes
//! the store holds), so a cached response is bit-identical to the cold
//! one and to a direct [`JobSpec::result_json`] call — the property the
//! e2e tests diff for.
//!
//! A request line may carry at most [`MAX_LINE_BYTES`] bytes before its
//! `\n`. Past that the daemon stops reading, replies
//! `{"ok":false,"error":...,"code":"line_too_long"}`, counts the request
//! under `mgx_requests_total{op="oversized"}`, and closes the
//! connection, so one client cannot grow daemon memory without bound.
//!
//! `stats` and `metrics` read the *same* [`mgx_obs`] atomics the store
//! and scheduler update (one shared [`Registry`] per server), so the two
//! surfaces can never disagree. `metrics` additionally exposes per-op
//! request counts and latency histograms (`mgx_requests_total{op=…}`,
//! `mgx_request_ns{op=…}`), queue-wait vs execute decomposition, and the
//! open-connection gauge.
//!
//! # Shutdown
//!
//! Everything runs on flag-check loops rather than blocking forever: the
//! accept loop polls a nonblocking listener, and connection readers use a
//! short read timeout and re-check the flag between attempts. A
//! `shutdown` op (or, when a store directory is configured, an external
//! `touch <dir>/shutdown` — the std-only stand-in for SIGTERM, since
//! installing a real signal handler needs `libc` and the build is
//! offline) flips the flag; the accept loop then stops accepting, the
//! scheduler drains every job already accepted, the disk store is
//! flushed, and connection threads are joined.
//!
//! [`JobSpec::result_json`]: mgx_sim::job::JobSpec::result_json

use crate::codec::{spec_from_wire, spec_to_wire};
use crate::json::{self, Json};
use crate::scheduler::{Scheduler, SchedulerConfig, Submitted};
use crate::store::{ResultStore, StoreConfig};
use mgx_obs::Registry;
use mgx_sim::job::Suite;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything the daemon needs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — see
    /// [`Handle::addr`]).
    pub addr: String,
    /// Worker pool and queue bound.
    pub scheduler: SchedulerConfig,
    /// Result-store tiers.
    pub store: StoreConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            store: StoreConfig::default(),
        }
    }
}

/// A handle to an in-process server (tests and the `serve` binary).
pub struct Handle {
    /// The bound address (real port even when the config said `:0`).
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<()>>,
    stop: Arc<AtomicBool>,
}

impl Handle {
    /// Requests a graceful drain without a client connection.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to exit (drain finished, threads joined).
    pub fn join(self) -> io::Result<()> {
        self.thread.join().expect("server thread must not panic")
    }
}

/// Binds and serves on the calling thread until a shutdown is requested.
pub fn run(cfg: ServerConfig) -> io::Result<()> {
    let listener = TcpListener::bind(&cfg.addr)?;
    serve_on(listener, cfg, Arc::new(AtomicBool::new(false)))
}

/// Binds, then serves on a background thread; returns once the port is
/// known so callers can connect immediately.
pub fn spawn(cfg: ServerConfig) -> io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let thread = std::thread::spawn(move || serve_on(listener, cfg, flag));
    Ok(Handle { addr, thread, stop })
}

fn sentinel_path(cfg: &ServerConfig) -> Option<PathBuf> {
    cfg.store.disk.as_ref().map(|d| d.join("shutdown"))
}

fn serve_on(listener: TcpListener, cfg: ServerConfig, stop: Arc<AtomicBool>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    // One registry per server: the store, the scheduler, and the protocol
    // layer all register their metrics here, and the `stats`/`metrics`
    // ops render it.
    let registry = Arc::new(Registry::new());
    let store = Arc::new(ResultStore::open_observed(cfg.store.clone(), &registry)?);
    let scheduler =
        Arc::new(Scheduler::new_observed(cfg.scheduler.clone(), store.clone(), &registry));
    let sentinel = sentinel_path(&cfg);
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let scheduler = scheduler.clone();
                let store = store.clone();
                let registry = registry.clone();
                let stop = stop.clone();
                let workers = cfg.scheduler.workers;
                connections.push(std::thread::spawn(move || {
                    let open = registry.gauge("mgx_connections_open", "live client connections");
                    open.add(1);
                    // Connection errors (peer reset mid-line, broken pipe)
                    // only end that connection.
                    let _ =
                        handle_connection(stream, &scheduler, &store, &registry, &stop, workers);
                    open.sub(1);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(p) = &sentinel {
                    if p.exists() {
                        let _ = std::fs::remove_file(p);
                        stop.store(true, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
        connections.retain(|h| !h.is_finished());
    }
    // Graceful drain: finish everything accepted, then let the in-flight
    // fetches observe completion and the readers observe the flag.
    scheduler.drain();
    for h in connections {
        let _ = h.join();
    }
    Ok(())
}

/// The longest request line the daemon reads, in bytes, not counting the
/// terminating `\n`. Real requests are a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// What [`read_line_with_flag`] produced.
enum Line {
    /// One complete request line, terminator stripped.
    Request(String),
    /// [`MAX_LINE_BYTES`] were read without a terminator.
    Oversized,
    /// Clean EOF or shutdown.
    End,
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] from a
/// stream with a read timeout, preserving partial bytes across timeouts
/// and re-checking `stop`.
fn read_line_with_flag(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    stop: &AtomicBool,
) -> io::Result<Line> {
    buf.clear();
    loop {
        // Never read past the cap plus its terminator, so a line without
        // one stops growing `buf` here.
        let budget = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', buf) {
            Ok(0) => {
                return Ok(Line::End); // EOF
            }
            Ok(_) if buf.last() == Some(&b'\n') => {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                let line = String::from_utf8_lossy(buf).into_owned();
                return Ok(Line::Request(line));
            }
            Ok(_) if buf.len() > MAX_LINE_BYTES => return Ok(Line::Oversized),
            // A read timeout mid-line leaves what was read in `buf`;
            // loop to keep appending unless we are shutting down.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(Line::End);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    store: &ResultStore,
    registry: &Registry,
    stop: &Arc<AtomicBool>,
    workers: usize,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_line_with_flag(&mut reader, &mut buf, stop)? {
            Line::Request(line) => line,
            Line::End => return Ok(()),
            Line::Oversized => {
                registry
                    .counter_with("mgx_requests_total", &[("op", "oversized")], "requests by op")
                    .inc();
                let reply = json::obj(vec![
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        json::str(format!(
                            "request line exceeds {MAX_LINE_BYTES} bytes; closing connection"
                        )),
                    ),
                    ("code", json::str("line_too_long")),
                ]);
                writeln!(writer, "{}", reply.render())?;
                return writer.flush();
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // Per-op request accounting: the latency span covers the whole
        // dispatch, including any `fetch_wait` blocking — exactly what
        // the client experiences past the socket.
        let started = std::time::Instant::now();
        let (reply, op) = dispatch(&line, scheduler, store, registry, stop, workers);
        registry.counter_with("mgx_requests_total", &[("op", op)], "requests by op").inc();
        registry
            .histogram_with("mgx_request_ns", &[("op", op)], "request service time by op")
            .record_duration(started.elapsed());
        writer.write_all(reply.as_bytes())?;
        if !reply.ends_with('\n') {
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
    }
}

fn error_reply(msg: &str) -> String {
    json::obj(vec![("ok", Json::Bool(false)), ("error", json::str(msg))]).render()
}

fn parse_job_id(req: &Json) -> Result<u64, String> {
    let hex = req.get("job").and_then(Json::as_str).ok_or("missing `job` id")?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("`{hex}` is not a 16-hex job id"))
}

/// Serves one request line, returning the reply and the static op label
/// the per-op metrics are recorded under.
fn dispatch(
    line: &str,
    scheduler: &Scheduler,
    store: &ResultStore,
    registry: &Registry,
    stop: &Arc<AtomicBool>,
    workers: usize,
) -> (String, &'static str) {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (error_reply(&format!("bad request JSON: {e}")), "invalid"),
    };
    let op = req.get("op").and_then(Json::as_str).unwrap_or("");
    let label = match op {
        "submit" => "submit",
        "poll" => "poll",
        "fetch" => "fetch",
        "run" => "run",
        "stats" => "stats",
        "metrics" => "metrics",
        "suites" => "suites",
        "shutdown" => "shutdown",
        _ => "unknown",
    };
    let reply = match op {
        "submit" => {
            let Some(spec) = req.get("spec") else {
                return (error_reply("submit needs a `spec` object"), label);
            };
            match spec_from_wire(spec).and_then(|s| scheduler.submit(s)) {
                Ok((digest, how)) => {
                    let status = scheduler
                        .status(digest)
                        .map(|s| s.label().to_string())
                        .unwrap_or_else(|| "done".into());
                    json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("job", json::str(format!("{digest:016x}"))),
                        ("status", json::str(status)),
                        ("cached", Json::Bool(how == Submitted::Cached)),
                        ("coalesced", Json::Bool(how == Submitted::Coalesced)),
                    ])
                    .render()
                }
                Err(e) => error_reply(&e),
            }
        }
        "poll" => match parse_job_id(&req) {
            Ok(digest) => match scheduler.status(digest) {
                Some(st) => json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("job", json::str(format!("{digest:016x}"))),
                    ("status", json::str(st.label())),
                ])
                .render(),
                None => error_reply("unknown job; submit it first"),
            },
            Err(e) => error_reply(&e),
        },
        // Fetches ride out a shutdown (`|| true`): every job the scheduler
        // accepted is completed by `drain`, so a waiter always observes
        // Done/Failed rather than an abandoned wait — the graceful-drain
        // contract the module docs promise. (Submissions, by contrast, are
        // refused once draining starts.)
        "fetch" => match parse_job_id(&req) {
            Ok(digest) => match scheduler.fetch_wait(digest, || true) {
                Ok(doc) => doc.to_string(),
                Err(e) => error_reply(&e.to_string()),
            },
            Err(e) => error_reply(&e),
        },
        "run" => {
            let Some(spec) = req.get("spec") else {
                return (error_reply("run needs a `spec` object"), label);
            };
            match spec_from_wire(spec).and_then(|s| scheduler.submit(s)) {
                Ok((digest, _)) => match scheduler.fetch_wait(digest, || true) {
                    Ok(doc) => doc.to_string(),
                    Err(e) => error_reply(&e.to_string()),
                },
                Err(e) => error_reply(&e),
            }
        }
        "stats" => {
            let s = scheduler.stats();
            let st = store.stats();
            json::obj(vec![
                ("ok", Json::Bool(true)),
                ("jobs_executed", json::num(s.jobs_executed)),
                ("queued", json::num(s.queued)),
                ("running", json::num(s.running)),
                ("store_hits", json::num(st.hits)),
                ("store_misses", json::num(st.misses)),
                ("store_disk_loads", json::num(st.disk_loads)),
                ("store_insertions", json::num(st.insertions)),
                ("store_evictions", json::num(st.evictions)),
                ("mem_entries", json::num(store.mem_entries())),
                ("disk_entries", json::num(store.disk_entries())),
                ("workers", json::num(workers)),
            ])
            .render()
        }
        "metrics" => {
            let format = req.get("format").and_then(Json::as_str).unwrap_or("json");
            match format {
                // The registry's one-line dialect is itself a JSON object,
                // so it embeds as a raw subdocument.
                "json" => format!("{{\"ok\":true,\"metrics\":{}}}", registry.render_json()),
                // The multi-line text exposition rides inside the
                // single-line protocol as an escaped string field.
                "prometheus" => json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("format", json::str("prometheus")),
                    ("exposition", json::str(registry.render_prometheus())),
                ])
                .render(),
                other => {
                    error_reply(&format!("unknown metrics format `{other}` (json|prometheus)"))
                }
            }
        }
        "suites" => {
            let suites: Vec<Json> = Suite::ALL
                .iter()
                .map(|s| {
                    json::obj(vec![
                        ("suite", json::str(s.name())),
                        ("description", json::str(s.description())),
                    ])
                })
                .collect();
            json::obj(vec![("ok", Json::Bool(true)), ("suites", Json::Arr(suites))]).render()
        }
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            json::obj(vec![("ok", Json::Bool(true)), ("draining", Json::Bool(true))]).render()
        }
        other => error_reply(&format!(
            "unknown op `{other}` (submit|poll|fetch|run|stats|metrics|suites|shutdown)"
        )),
    };
    (reply, label)
}

/// A blocking client for the protocol above — what `mgx-client` and the
/// tests speak.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// [`Client::connect`] from a `host:port` string.
    pub fn connect_str(addr: &str) -> io::Result<Self> {
        let parsed: SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        Self::connect(&parsed)
    }

    /// Sends one request line, returns the one response line (without the
    /// trailing newline).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Submits a spec (already canonicalized or not), returning the reply
    /// envelope.
    pub fn submit(&mut self, spec: &mgx_sim::job::JobSpec) -> io::Result<Json> {
        let line = format!("{{\"op\":\"submit\",\"spec\":{}}}", spec_to_wire(spec));
        self.request_parsed(&line)
    }

    /// Submit + fetch in one round trip; returns the raw result document.
    pub fn run(&mut self, spec: &mgx_sim::job::JobSpec) -> io::Result<String> {
        let line = format!("{{\"op\":\"run\",\"spec\":{}}}", spec_to_wire(spec));
        self.request(&line)
    }

    /// Fetches a job's result document by hex id, verbatim.
    pub fn fetch(&mut self, job_hex: &str) -> io::Result<String> {
        self.request(&format!("{{\"op\":\"fetch\",\"job\":\"{job_hex}\"}}"))
    }

    /// Polls a job's status envelope.
    pub fn poll(&mut self, job_hex: &str) -> io::Result<Json> {
        self.request_parsed(&format!("{{\"op\":\"poll\",\"job\":\"{job_hex}\"}}"))
    }

    /// Fetches the counter envelope.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request_parsed("{\"op\":\"stats\"}")
    }

    /// Fetches the full observability registry in the line-JSON dialect:
    /// `{"ok":true,"metrics":{"counters":…,"gauges":…,"histograms":…}}`.
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.request_parsed("{\"op\":\"metrics\"}")
    }

    /// Fetches the Prometheus text exposition (unescaped, multi-line).
    pub fn metrics_prometheus(&mut self) -> io::Result<String> {
        let v = self.request_parsed("{\"op\":\"metrics\",\"format\":\"prometheus\"}")?;
        v.get("exposition")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing exposition"))
    }

    /// Requests a graceful drain.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request_parsed("{\"op\":\"shutdown\"}")
    }

    fn request_parsed(&mut self, line: &str) -> io::Result<Json> {
        let reply = self.request(line)?;
        Json::parse(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {reply}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_sim::job::JobSpec;
    use mgx_sim::{DramBackend, Scale};

    fn tiny_spec(frames: usize) -> JobSpec {
        JobSpec {
            suite: Suite::Video,
            scale: Scale { video_frames: frames, ..Scale::quick() },
            schemes: vec![],
            threads: 1,
            backend: DramBackend::ClosedForm,
        }
    }

    fn boot() -> Handle {
        spawn(ServerConfig {
            scheduler: SchedulerConfig { workers: 2, queue_capacity: 8 },
            ..ServerConfig::default()
        })
        .expect("bind loopback")
    }

    #[test]
    fn submit_poll_fetch_and_stats_flow() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        let spec = tiny_spec(2);
        let reply = c.submit(&spec).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply:?}");
        let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(job, spec.digest_hex());
        let doc = c.fetch(&job).unwrap();
        let expected = spec.clone().canonicalize();
        assert_eq!(doc, expected.result_json(&expected.execute()));
        assert_eq!(c.poll(&job).unwrap().get("status").and_then(Json::as_str), Some("done"));
        let stats = c.stats().unwrap();
        assert_eq!(stats.get("jobs_executed").and_then(Json::as_u64), Some(1));
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn run_op_is_submit_plus_fetch_and_caches() {
        let server = boot();
        let spec = tiny_spec(3);
        let mut c = Client::connect(&server.addr).unwrap();
        let cold = c.run(&spec).unwrap();
        let warm = c.run(&spec).unwrap();
        assert_eq!(cold, warm, "cached response must be bit-identical");
        let stats = c.stats().unwrap();
        assert_eq!(stats.get("jobs_executed").and_then(Json::as_u64), Some(1));
        assert!(stats.get("store_hits").and_then(Json::as_u64).unwrap() >= 1);
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn protocol_errors_are_reported_not_fatal() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        for (line, needle) in [
            ("not json", "bad request JSON"),
            ("{\"op\":\"teleport\"}", "unknown op"),
            ("{\"op\":\"submit\"}", "needs a `spec`"),
            ("{\"op\":\"submit\",\"spec\":{\"suite\":\"nope\"}}", "unknown suite"),
            ("{\"op\":\"fetch\",\"job\":\"zz\"}", "not a 16-hex"),
            ("{\"op\":\"fetch\",\"job\":\"00000000000000aa\"}", "unknown job"),
        ] {
            let reply = c.request(line).unwrap();
            assert!(reply.contains(needle), "`{line}` → `{reply}`");
            let v = Json::parse(&reply).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        }
        // The connection is still usable after every error.
        assert!(c.stats().unwrap().get("ok").and_then(Json::as_bool).unwrap());
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn suites_op_lists_the_registry() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        let v = c.request_parsed("{\"op\":\"suites\"}").unwrap();
        let suites = v.get("suites").and_then(Json::as_arr).unwrap();
        assert_eq!(suites.len(), Suite::ALL.len());
        assert!(suites.iter().any(|s| s.get("suite").and_then(Json::as_str) == Some("genome")));
        c.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn handle_shutdown_drains_without_a_client() {
        let server = boot();
        let mut c = Client::connect(&server.addr).unwrap();
        let spec = tiny_spec(4);
        c.submit(&spec).unwrap();
        let doc = c.fetch(&spec.digest_hex()).unwrap();
        assert!(doc.contains("\"suite\":\"video\""));
        drop(c);
        server.shutdown();
        server.join().unwrap();
    }
}
