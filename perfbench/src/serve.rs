//! The serve side of the benchmark: an in-process `mgx_serve` daemon (one
//! worker, memory + disk store in a scratch directory) driven by one
//! process with an open-loop, seeded schedule.
//!
//! Requests are timed from their scheduled arrival, so a stall also
//! charges the requests queued behind it; how late the generator itself
//! ran is reported separately.

use crate::stats::{latency_key, median, percentile, supported_percentile, Tally};
use mgx_core::Scheme;
use mgx_serve::codec::spec_to_wire;
use mgx_serve::json::Json;
use mgx_serve::scheduler::SchedulerConfig;
use mgx_serve::{Client, Handle, ServerConfig, StoreConfig};
use mgx_sim::job::{JobSpec, Suite};
use mgx_sim::{DramBackend, Scale};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `video_frames` values of the spec population.
pub const FRAMES: std::ops::RangeInclusive<usize> = 18..=21;
/// `pr_iters` values of the spec population. The knob does not change a
/// video simulation, only the job's digest, so each value makes another
/// never-seen job of the same cost; with the scheme subsets this gives
/// enough distinct specs that no run draws one twice.
pub const PR_ITERS: std::ops::RangeInclusive<usize> = 1..=16;
/// Documents the daemon's memory tier holds.
pub const MEM_ENTRIES: usize = 16;
/// Latency limit of the rate ladder, on the highest supported percentile.
pub const LIMIT_MS: f64 = 50.0;
/// Arrival rate of the nominal phase.
pub const NOMINAL_RPS: f64 = 1000.0;
/// The fixed rate ladder (×5 steps).
pub const LADDER_RPS: [f64; 3] = [1000.0, 5000.0, 25000.0];
/// Least requests per ladder step (enough for a p99 with ten samples
/// beyond it).
pub const STEP_REQUESTS: usize = 1000;
/// Least duration of a ladder step.
pub const STEP_SECONDS: f64 = 1.0;
/// Share of requests that are never-seen specs. Each costs the single
/// worker 2.3–6.5 ms as the host's speed moves, so at 5000 req/s the
/// worker is at most 65 % busy and at 25 000 req/s it is overloaded even
/// on a fast host: the mix's capacity falls inside the ladder's
/// 5000–25 000 step, and `max_ok_rps` does not flip between runs.
pub const COLD_SHARE: f64 = 0.02;
/// Share of requests that arrive on a fresh connection.
pub const FRESH_SHARE: f64 = 0.10;
/// How long a reply may take before the request counts as timed out; a
/// failed request is reported with this latency.
pub const REPLY_TIMEOUT_MS: f64 = 20_000.0;
const REPLY_TIMEOUT: Duration = Duration::from_millis(REPLY_TIMEOUT_MS as u64);

/// SplitMix64: a tiny seeded generator, so the inputs depend on the seed
/// alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Every spec the mix can request: the video suite at each of [`FRAMES`]
/// and [`PR_ITERS`], under each non-empty scheme subset.
pub fn population() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for frames in FRAMES {
        for pr_iters in PR_ITERS {
            for mask in 1u32..(1 << Scheme::ALL.len()) {
                let schemes = Scheme::ALL.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
                specs.push(JobSpec {
                    suite: Suite::Video,
                    scale: Scale { video_frames: frames, pr_iters, ..Scale::quick() },
                    schemes: schemes.map(|(_, &s)| s).collect(),
                    threads: 1,
                    backend: DramBackend::ClosedForm,
                });
            }
        }
    }
    specs
}

/// Reference documents for every spec of the population, from direct
/// `JobSpec` runs: each `video_frames` value runs once and every spec
/// sharing it is rendered from that run — the bytes a direct run of that
/// spec produces, since the scheme subset filters the document and
/// `pr_iters` does not enter a video simulation.
pub fn reference_docs(specs: &[JobSpec]) -> HashMap<u64, String> {
    let mut by_frames = HashMap::new();
    specs
        .iter()
        .map(|spec| {
            let evals = by_frames
                .entry(spec.scale.video_frames)
                .or_insert_with(|| JobSpec { schemes: Vec::new(), ..spec.clone() }.execute());
            (spec.digest(), spec.result_json(evals))
        })
        .collect()
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A spec already in the store, on a persistent connection.
    Warm,
    /// A never-seen spec (execute plus fsync'd put), on a persistent
    /// connection.
    Cold,
    /// A stored spec on a fresh connection, as the `mgx-client` CLI sends.
    Fresh,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Arrival offset from the phase start.
    pub due: Duration,
    /// Request type.
    pub kind: Kind,
    /// Index into the population.
    pub spec: usize,
    /// Persistent connection carrying it: 0 for `Warm`, 1 for `Cold`
    /// (unused for `Fresh`).
    pub conn: usize,
}

/// The seeded inputs: which specs are warm, the order never-seen specs
/// are drawn in, and the generator for arrival schedules.
pub struct Plan {
    /// The spec population.
    pub specs: Vec<JobSpec>,
    /// Indices of the warm set (prefilled during set-up).
    pub warm: Vec<usize>,
    cold: Vec<usize>,
    rng: Rng,
}

impl Plan {
    /// Draws a warm set of `warm` specs and a never-seen order for the
    /// rest from `seed`.
    pub fn new(seed: u64, warm: usize) -> Self {
        let specs = population();
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut order);
        let cold = order.split_off(warm.min(order.len()));
        Plan { specs, warm: order, cold, rng }
    }

    /// Takes `n` never-seen specs out of the draw order, for
    /// [`cold_phase`]; no schedule draws them afterwards.
    pub fn take_cold(&mut self, n: usize) -> Vec<usize> {
        let at = self.cold.len().saturating_sub(n);
        self.cold.split_off(at)
    }

    /// An open-loop schedule of `n` requests at `rps` (Poisson arrivals)
    /// in the request mix. Never-seen specs are consumed, so no spec is
    /// cold twice in a run.
    pub fn schedule(&mut self, n: usize, rps: f64) -> Vec<Req> {
        let mut t = 0.0;
        let mut reqs = Vec::with_capacity(n);
        for _ in 0..n {
            t += -(1.0 - self.rng.unit()).ln() / rps;
            let roll = self.rng.unit();
            let kind = if roll < COLD_SHARE && !self.cold.is_empty() {
                Kind::Cold
            } else if roll < COLD_SHARE + FRESH_SHARE {
                Kind::Fresh
            } else {
                Kind::Warm
            };
            let spec = match kind {
                Kind::Cold => self.cold.pop().expect("checked non-empty"),
                _ => self.warm[self.rng.below(self.warm.len())],
            };
            // Never-seen specs get their own connection, so a simulation
            // never blocks the stored-document reads queued behind it.
            let conn = usize::from(kind == Kind::Cold);
            reqs.push(Req { due: Duration::from_secs_f64(t), kind, spec, conn });
        }
        reqs
    }
}

/// How one request went, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// When the request line was written (after connecting, for `Fresh`).
    pub sent: u64,
    /// When the reply was read; `None` if the request failed.
    pub done: Option<u64>,
}

impl Outcome {
    /// Latency from scheduled arrival in ms; `None` for a failure.
    pub fn latency_ms(&self, req: &Req) -> Option<f64> {
        self.done.map(|d| d.saturating_sub(req.due.as_nanos() as u64) as f64 / 1e6)
    }
}

fn run_line(spec: &JobSpec) -> String {
    format!("{{\"op\":\"run\",\"spec\":{}}}\n", spec_to_wire(spec))
}

fn sleep_until(start: Instant, due: Duration) {
    let now = start.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn check_reply(reply: &str, expected: &str) -> Result<(), String> {
    if reply == expected {
        Ok(())
    } else if reply.starts_with("{\"ok\":false") {
        Err(format!("error reply: {}", &reply[..reply.len().min(160)]))
    } else {
        Err("reply differs from the direct JobSpec document".into())
    }
}

/// Sends `reqs` on schedule and records each outcome. Persistent requests
/// are pipelined on two connections (a writer and a reader thread each);
/// every fresh request gets its own connection and thread.
pub fn run_phase(
    addr: SocketAddr,
    plan: &Plan,
    docs: &HashMap<u64, String>,
    reqs: &[Req],
) -> (Vec<Outcome>, Tally) {
    let outcomes: Vec<Mutex<Outcome>> = reqs.iter().map(|_| Mutex::default()).collect();
    let tally = Mutex::new(Tally::default());
    let expected = |r: &Req| docs[&plan.specs[r.spec].digest()].as_str();
    let ns = |start: Instant| start.elapsed().as_nanos() as u64;
    // Persistent connections are opened (and their first round trip made)
    // before the schedule starts: a client that keeps its connection pays
    // the accept once, not on its first timed request.
    let conns: Vec<(Vec<usize>, Result<TcpStream, String>)> = (0..2)
        .filter_map(|conn| {
            let mine: Vec<usize> = (0..reqs.len())
                .filter(|&i| reqs[i].kind != Kind::Fresh && reqs[i].conn == conn)
                .collect();
            (!mine.is_empty()).then(|| (mine, open_persistent(addr)))
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (mine, stream) in conns {
            let (outcomes, tally) = (&outcomes, &tally);
            s.spawn(move || {
                let stream = match stream {
                    Ok(st) => st,
                    Err(e) => {
                        let mut t = tally.lock().expect("tally lock");
                        for _ in &mine {
                            t.record(Err(e.clone()));
                        }
                        return;
                    }
                };
                let mut writer = stream.try_clone().expect("clone a connected socket");
                let reader_ids = mine.clone();
                std::thread::scope(|s2| {
                    s2.spawn(move || {
                        for &i in &mine {
                            sleep_until(start, reqs[i].due);
                            let line = run_line(&plan.specs[reqs[i].spec]);
                            outcomes[i].lock().expect("outcome lock").sent = ns(start);
                            if writer.write_all(line.as_bytes()).is_err() {
                                break;
                            }
                        }
                    });
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    let mut broken = None;
                    for &i in &reader_ids {
                        let outcome = match &broken {
                            Some(e) => Err(format!("connection lost earlier: {e}")),
                            None => {
                                line.clear();
                                match reader.read_line(&mut line) {
                                    Ok(n) if n > 0 => {
                                        outcomes[i].lock().expect("outcome lock").done =
                                            Some(ns(start));
                                        check_reply(line.trim_end(), expected(&reqs[i]))
                                    }
                                    Ok(_) => Err("server closed the connection".to_string()),
                                    Err(e) => Err(format!("read failed or timed out: {e}")),
                                }
                                // No reply read: the connection is gone.
                                // A wrong reply fails only its request.
                                .inspect_err(|e| {
                                    if outcomes[i].lock().expect("outcome lock").done.is_none() {
                                        broken = Some(e.clone());
                                    }
                                })
                            }
                        };
                        if outcome.is_err() {
                            outcomes[i].lock().expect("outcome lock").done = None;
                        }
                        tally.lock().expect("tally lock").record(outcome);
                    }
                    if broken.is_some() {
                        let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
                    }
                });
            });
        }
        let fresh: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].kind == Kind::Fresh).collect();
        let (outcomes, tally) = (&outcomes, &tally);
        s.spawn(move || {
            std::thread::scope(|s2| {
                for i in fresh {
                    sleep_until(start, reqs[i].due);
                    s2.spawn(move || {
                        let result = fresh_request(addr, &plan.specs[reqs[i].spec], start);
                        let outcome = match result {
                            Ok((sent, done, reply)) => {
                                let mut o = outcomes[i].lock().expect("outcome lock");
                                *o = Outcome { sent, done: Some(done) };
                                let checked = check_reply(&reply, expected(&reqs[i]));
                                if checked.is_err() {
                                    o.done = None;
                                }
                                checked
                            }
                            Err(e) => Err(e),
                        };
                        tally.lock().expect("tally lock").record(outcome);
                    });
                }
            });
        });
    });
    let outcomes = outcomes.into_iter().map(|m| m.into_inner().expect("outcome lock")).collect();
    (outcomes, tally.into_inner().expect("tally lock"))
}

/// Sends the never-seen specs `cold` one at a time on one persistent
/// connection, each when the previous reply has arrived and at most one
/// per `period`, so every request finds the daemon idle and the samples
/// spread evenly over the slice. Returns the send→reply latencies (ms,
/// failures as +inf).
pub fn cold_phase(
    addr: SocketAddr,
    plan: &Plan,
    docs: &HashMap<u64, String>,
    cold: &[usize],
    period: Duration,
) -> (Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let mut lat = Vec::with_capacity(cold.len());
    let mut conn = open_persistent(addr).and_then(|stream| {
        let reader = stream.try_clone().map_err(|e| format!("socket clone failed: {e}"))?;
        Ok((stream, BufReader::new(reader)))
    });
    let mut line = String::new();
    let phase = Instant::now();
    for (k, &i) in cold.iter().enumerate() {
        sleep_until(phase, period * k as u32);
        let spec = &plan.specs[i];
        let start = Instant::now();
        let outcome = match &mut conn {
            Err(e) => Err(e.clone()),
            Ok((writer, reader)) => {
                line.clear();
                writer
                    .write_all(run_line(spec).as_bytes())
                    .map_err(|e| format!("send failed: {e}"))
                    .and_then(|()| match reader.read_line(&mut line) {
                        Ok(n) if n > 0 => Ok(()),
                        Ok(_) => Err("server closed the connection".to_string()),
                        Err(e) => Err(format!("read failed or timed out: {e}")),
                    })
            }
        };
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        // No reply read: the connection is gone for the rest.
        if let (Err(e), Ok(_)) = (&outcome, &conn) {
            conn = Err(format!("connection lost earlier: {e}"));
        }
        let outcome = outcome.and_then(|()| check_reply(line.trim_end(), &docs[&spec.digest()]));
        lat.push(latency_key(outcome.is_ok().then_some(elapsed)));
        tally.record(outcome);
    }
    (lat, tally)
}

/// Connects and makes one `stats` round trip, so the daemon has accepted
/// the connection before any timed request is sent on it.
fn open_persistent(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect refused: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
    stream.write_all(b"{\"op\":\"stats\"}\n").map_err(|e| format!("send failed: {e}"))?;
    let mut reply = String::new();
    let reader = stream.try_clone().map_err(|e| format!("socket clone failed: {e}"))?;
    match BufReader::new(reader).read_line(&mut reply) {
        Ok(n) if n > 0 && reply.starts_with("{\"ok\":true") => Ok(stream),
        Ok(_) => Err(format!("handshake failed: {}", reply.trim_end())),
        Err(e) => Err(format!("handshake read failed: {e}")),
    }
}

/// One request on its own connection: connect, send, read, close.
/// Returns when it was sent and answered, in ns from `start`, and the
/// reply.
fn fresh_request(
    addr: SocketAddr,
    spec: &JobSpec,
    start: Instant,
) -> Result<(u64, u64, String), String> {
    let ns = || start.elapsed().as_nanos() as u64;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect refused: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
    let sent = ns();
    stream.write_all(run_line(spec).as_bytes()).map_err(|e| format!("send failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok((sent, ns(), reply.trim_end().to_string())),
        Err(e) => Err(format!("read failed or timed out: {e}")),
    }
}

/// A running daemon and its scratch store.
pub struct Daemon {
    handle: Handle,
    dir: PathBuf,
}

impl Daemon {
    /// Address it listens on.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// Binds a daemon with one worker over a fresh store in `dir`, then
    /// prefills the warm set with `run` requests, checking each reply.
    pub fn start(
        dir: &Path,
        plan: &Plan,
        docs: &HashMap<u64, String>,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let handle = mgx_serve::spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig { workers: 1, queue_capacity: 64 },
            store: StoreConfig { mem_entries: MEM_ENTRIES, disk: Some(dir.to_path_buf()) },
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let daemon = Daemon { handle, dir: dir.to_path_buf() };
        let mut client = Client::connect(&daemon.addr())
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        for &i in &plan.warm {
            let spec = &plan.specs[i];
            let outcome = match client.run(spec) {
                Ok(reply) => check_reply(&reply, &docs[&spec.digest()]),
                Err(e) => Err(format!("prefill request failed: {e}")),
            };
            tally.record(outcome);
        }
        Ok(daemon)
    }

    /// Reads the daemon's observability registry (`metrics` op).
    pub fn metrics(&self) -> Result<Json, String> {
        let mut client =
            Client::connect(&self.addr()).map_err(|e| format!("connecting for metrics: {e}"))?;
        client.metrics().map_err(|e| format!("metrics op failed: {e}"))
    }

    /// Drains the daemon, waits for it to exit, and deletes its store.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        let joined = self.handle.join().map_err(|e| format!("daemon exited with {e}"));
        let _ = std::fs::remove_dir_all(&self.dir);
        joined
    }
}

/// Latencies (ms, failures as +inf) of the requests of `kind`, sorted.
pub fn latencies(reqs: &[Req], outcomes: &[Outcome], kind: Kind) -> Vec<f64> {
    let mut v: Vec<f64> = reqs
        .iter()
        .zip(outcomes)
        .filter(|(r, _)| r.kind == kind)
        .map(|(r, o)| latency_key(o.latency_ms(r)))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail latency of `kind` requests, robust to one host stall: the
/// requests are cut, in arrival order, into windows of at least
/// `window` samples each, and the result is the median over windows of
/// each window's highest supported percentile (p99 for 1000 samples).
pub fn windowed_tail(reqs: &[Req], outcomes: &[Outcome], kind: Kind, window: usize) -> f64 {
    let lat: Vec<f64> = reqs
        .iter()
        .zip(outcomes)
        .filter(|(r, _)| r.kind == kind)
        .map(|(r, o)| latency_key(o.latency_ms(r)))
        .collect();
    let windows = (lat.len() / window.max(1)).max(1);
    let per = lat.len().div_ceil(windows).max(1);
    let tails: Vec<f64> = lat
        .chunks(per)
        .filter_map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            percentile(&c, supported_percentile(c.len()).unwrap_or(50.0))
        })
        .collect();
    if tails.is_empty() {
        0.0
    } else {
        median(&tails)
    }
}

/// Whether a ladder step met the limit: its highest supported percentile
/// under [`LIMIT_MS`], and no growing backlog — the last tenth of its
/// arrivals finished with a median latency under the limit too. Returns
/// the verdict with that percentile's latency and the tail median.
pub fn step_ok(reqs: &[Req], outcomes: &[Outcome]) -> (bool, f64, f64) {
    let mut all: Vec<f64> =
        reqs.iter().zip(outcomes).map(|(r, o)| latency_key(o.latency_ms(r))).collect();
    let tail_median = median(&all[all.len() - (all.len() / 10).max(1)..]);
    all.sort_by(f64::total_cmp);
    let top = supported_percentile(all.len()).and_then(|p| percentile(&all, p));
    let top = top.unwrap_or(f64::INFINITY);
    (top <= LIMIT_MS && tail_median <= LIMIT_MS, top, tail_median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = (Plan::new(7, 40), Plan::new(7, 40));
        assert_eq!(a.warm, b.warm);
        let (sa, sb) = (a.schedule(500, 300.0), b.schedule(500, 300.0));
        assert!(sa.iter().zip(&sb).all(|(x, y)| x.due == y.due && x.spec == y.spec));
        let c = Plan::new(8, 40);
        assert_ne!(a.warm, c.warm, "another seed draws another warm set");
    }

    #[test]
    fn cold_specs_are_never_warm_or_repeated() {
        let mut plan = Plan::new(3, 40);
        let reqs = plan.schedule(4000, 1000.0);
        let cold: Vec<usize> =
            reqs.iter().filter(|r| r.kind == Kind::Cold).map(|r| r.spec).collect();
        assert!(!cold.is_empty());
        let mut dedup = cold.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), cold.len());
        assert!(cold.iter().all(|c| !plan.warm.contains(c)));
        let digests: std::collections::HashSet<u64> =
            plan.specs.iter().map(JobSpec::digest).collect();
        assert_eq!(digests.len(), plan.specs.len(), "population specs are distinct");
    }

    #[test]
    fn taken_cold_specs_are_never_scheduled() {
        let mut plan = Plan::new(5, 64);
        let taken = plan.take_cold(600);
        assert_eq!(taken.len(), 600);
        assert!(taken.iter().all(|c| !plan.warm.contains(c)));
        let scheduled: std::collections::HashSet<usize> = plan
            .schedule(20_000, 1000.0)
            .iter()
            .filter(|r| r.kind == Kind::Cold)
            .map(|r| r.spec)
            .collect();
        assert!(!scheduled.is_empty());
        assert!(taken.iter().all(|c| !scheduled.contains(c)));
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        let reqs: Vec<Req> = (0..3000)
            .map(|_| Req { due: Duration::ZERO, kind: Kind::Warm, spec: 0, conn: 0 })
            .collect();
        // Window 0 (requests 0..1000) holds a 20-request stall; windows 1
        // and 2 peak at 2 ms and 3 ms.
        let outcomes: Vec<Outcome> = (0..3000)
            .map(|i| {
                let ms = match i {
                    0..=19 => 40.0,
                    1000..=1019 => 2.0,
                    2000..=2019 => 3.0,
                    _ => 1.0,
                };
                Outcome { sent: 0, done: Some((ms * 1e6) as u64) }
            })
            .collect();
        assert_eq!(windowed_tail(&reqs, &outcomes, Kind::Warm, 1000), 3.0);
        assert_eq!(windowed_tail(&reqs, &outcomes, Kind::Fresh, 1000), 0.0);
        // One window when there are too few samples for several.
        assert_eq!(windowed_tail(&reqs[..1500], &outcomes[..1500], Kind::Warm, 1000), 40.0);
    }

    #[test]
    fn ladder_step_rejects_failures_and_backlog() {
        let reqs: Vec<Req> = (0..100)
            .map(|i| Req { due: Duration::from_millis(i), kind: Kind::Warm, spec: 0, conn: 0 })
            .collect();
        let at = |i: usize, ms: u64| Outcome { sent: 0, done: Some((i as u64 + ms) * 1_000_000) };
        let fast: Vec<Outcome> = (0..100).map(|i| at(i, 1)).collect();
        assert!(step_ok(&reqs, &fast).0);
        let mut failed = fast.clone();
        for o in failed.iter_mut().take(11) {
            o.done = None;
        }
        assert!(!step_ok(&reqs, &failed).0, "more than 10% failed misses a p90 limit");
        let backlog: Vec<Outcome> = (0..100).map(|i| at(i, i as u64)).collect();
        assert!(!step_ok(&reqs, &backlog).0, "latency growing past the limit");
    }
}
