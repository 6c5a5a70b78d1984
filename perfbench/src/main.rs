//! The MGX reproduction's benchmark: one command that runs a workload,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-quick --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run measures both things a user of the repository waits for: a
//! five-scheme simulation sweep and requests to the simulation service.
//! The workload picks the sweep (see README.md). With `--trace 0` the last
//! stdout line reports the end-to-end metrics; with `--trace 1` the sweep
//! is replaced by the traced layer pass and the line reports the
//! per-layer metrics. Run from the repository root.

mod procfs;
mod serve;
mod stats;
mod sweep;

use mgx_core::Scheme;
use mgx_serve::json::Json;
use serve::{Daemon, Kind, Plan, Req};
use stats::{median, percentile, Interval, Tally};
use std::fmt::Write as _;
use std::time::Instant;
use sweep::{SweepSpec, Unit, UnitSpans};

/// Set-ups at the start of a run; the last one's daemon serves the run.
/// Every idle point sets up [`IDLE_SETUPS`] more times ([`IdlePoints`]),
/// and `setup_s` is the median of all set-ups.
const EARLY_SETUPS: usize = 3;
/// Set-ups per idle point. One set-up varies by ±25 % inside a run, so
/// the median wants many.
const IDLE_SETUPS: usize = 3;
/// Never-seen specs per slice of the isolated phase.
const COLD_SLICE: usize = 100;
/// Pace of the isolated phase: at most one never-seen spec per period.
const COLD_PERIOD: std::time::Duration = std::time::Duration::from_millis(20);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// A workload: which sweep it runs, how many times per run, and how large
/// the service's warm set is against its memory tier.
struct Workload {
    sweep: SweepSpec,
    /// Sweeps per run; `sweep_s` is their median. Each run times at least
    /// 20 s of sweeping, which spans the host's short-term speed noise.
    repeats: usize,
    /// Warm specs: 12 fit the 16-document memory tier, 64 load from disk.
    warm: usize,
}

fn workload(name: &str) -> Result<Workload, String> {
    match name {
        "paper-quick" => Ok(Workload { sweep: sweep::PAPER_QUICK, repeats: 2, warm: 12 }),
        "llm-queued" => Ok(Workload { sweep: sweep::LLM_QUEUED, repeats: 3, warm: 64 }),
        other => Err(format!("unknown workload `{other}` (paper-quick|llm-queued)")),
    }
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn p(sorted: &[f64], q: f64) -> f64 {
    let v = percentile(sorted, q).unwrap_or(0.0);
    // A failed request is reported as the longest a client waits.
    if v.is_finite() {
        v
    } else {
        serve::REPLY_TIMEOUT_MS
    }
}

/// What the serve stage measured.
struct ServeRun {
    setups: Vec<f64>,
    rss_mib: f64,
    req: Vec<f64>,
    req_tail: f64,
    cold_mix: Vec<f64>,
    fresh: Vec<f64>,
    nominal: (Vec<Req>, Vec<serve::Outcome>),
    registry: Option<Json>,
}

/// Measurements taken at idle points spread over the whole run — after
/// the early set-ups, after the nominal phase, after the ladder and after
/// each sweep. At each one the serving daemon gets a slice of the isolated
/// never-seen phase (specs no schedule draws, sent one at a time to the
/// otherwise idle daemon), and more set-ups are timed beside it. The
/// host's speed drifts over seconds; samples spread over the run average
/// that drift instead of catching one moment of it.
struct IdlePoints {
    slices: Vec<Vec<usize>>,
    cold: Vec<f64>,
    setups: Vec<f64>,
}

impl IdlePoints {
    fn new(plan: &mut Plan, points: usize) -> Self {
        let specs = plan.take_cold(COLD_SLICE * points);
        let slices = specs.chunks(COLD_SLICE).map(<[usize]>::to_vec).collect();
        IdlePoints { slices, cold: Vec::new(), setups: Vec::new() }
    }

    /// The next idle point: a never-seen slice against `daemon`, then
    /// set-ups of a second daemon, each drained and removed at once.
    fn visit(
        &mut self,
        daemon: &Daemon,
        plan: &Plan,
        docs: &Docs,
        seed: u64,
        tally: &mut Tally,
    ) -> Result<(), String> {
        if let Some(specs) = self.slices.pop() {
            let (lat, t) = serve::cold_phase(daemon.addr(), plan, docs, &specs, COLD_PERIOD);
            tally.merge(t);
            self.cold.extend(lat);
        }
        for _ in 0..IDLE_SETUPS {
            let name = format!("store-{seed}-idle-{}", self.setups.len());
            let (extra, took) = set_up(plan, docs, &name, tally)?;
            self.setups.push(took);
            extra.stop()?;
        }
        Ok(())
    }

    /// Every never-seen latency measured, sorted.
    fn cold_sorted(&self) -> Vec<f64> {
        let mut v = self.cold.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

type Docs = std::collections::HashMap<u64, String>;

/// One set-up: binds a daemon over a fresh store and prefills the warm
/// set. Returns the daemon and how long that took in seconds.
fn set_up(
    plan: &Plan,
    docs: &Docs,
    name: &str,
    tally: &mut Tally,
) -> Result<(Daemon, f64), String> {
    let dir = sweep::work_dir().join(name);
    let t = Instant::now();
    let d = Daemon::start(&dir, plan, docs, tally)?;
    Ok((d, t.elapsed().as_secs_f64()))
}

/// Set-up (several times) and the nominal phase, with an idle point before
/// and after it. Returns the daemon still running, for the rate ladder and
/// the sweeps.
fn serve_stage(
    plan: &mut Plan,
    docs: &Docs,
    args: &Args,
    idle: &mut IdlePoints,
    tally: &mut Tally,
) -> Result<(ServeRun, Daemon), String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..EARLY_SETUPS {
        let (d, took) = set_up(plan, docs, &format!("store-{}-{i}", args.seed), tally)?;
        setups.push(took);
        if let Some(previous) = daemon.replace(d) {
            Daemon::stop(previous)?;
        }
    }
    let daemon = daemon.expect("at least one set-up");
    idle.visit(&daemon, plan, docs, args.seed, tally)?;
    let n = ((serve::NOMINAL_RPS * args.seconds / 2.0) as usize).max(2000);
    let reqs = plan.schedule(n, serve::NOMINAL_RPS);
    let (outcomes, t) = serve::run_phase(daemon.addr(), plan, docs, &reqs);
    tally.merge(t);
    let registry = if args.trace { Some(daemon.metrics()?) } else { None };
    idle.visit(&daemon, plan, docs, args.seed, tally)?;
    // Peak memory of the process before the ladder: its overload steps
    // spawn connection threads in numbers that depend on how far they get.
    let rss_mib = procfs::peak_rss_mib("self").unwrap_or(0.0);
    let run = ServeRun {
        setups,
        rss_mib,
        req: serve::latencies(&reqs, &outcomes, Kind::Warm),
        req_tail: serve::windowed_tail(&reqs, &outcomes, Kind::Warm, serve::STEP_REQUESTS)
            .min(serve::REPLY_TIMEOUT_MS),
        cold_mix: serve::latencies(&reqs, &outcomes, Kind::Cold),
        fresh: serve::latencies(&reqs, &outcomes, Kind::Fresh),
        nominal: (reqs, outcomes),
        registry,
    };
    Ok((run, daemon))
}

/// The rate ladder: the mix at each rate of [`serve::LADDER_RPS`], stopping
/// at the first step that misses the limit. Returns the highest step that
/// met it (0 if none did).
fn ladder(daemon: &Daemon, plan: &mut Plan, docs: &Docs, tally: &mut Tally) -> f64 {
    let mut max_ok_rps = 0.0;
    for rate in serve::LADDER_RPS {
        let n = ((rate * serve::STEP_SECONDS) as usize).max(serve::STEP_REQUESTS);
        let step = plan.schedule(n, rate);
        let (out, t) = serve::run_phase(daemon.addr(), plan, docs, &step);
        tally.merge(t);
        let (ok, top, tail) = serve::step_ok(&step, &out);
        println!(
            "ladder: {rate} req/s x {n}: top percentile {top:.3} ms, tail median {tail:.3} ms"
        );
        if !ok {
            break;
        }
        max_ok_rps = rate;
    }
    max_ok_rps
}

/// FNV-1a over the simulated bits of the serve population's distinct
/// video runs, pinned at the commit that defined the benchmark: the
/// reference documents replies are checked against come from the same
/// code, so this is what catches a change in their bits.
const PINNED_POPULATION_BITS: &str = include_str!("../pinned/serve-population.txt");

fn check_population(tally: &mut Tally) {
    let results: Vec<Vec<mgx_sim::RunResult>> = serve::FRAMES
        .map(|f| sweep::reference_unit(&sweep::video_unit(f), Instant::now()).0)
        .collect();
    let mut h = mgx_trace::Fnv64::new();
    h.write_bytes(format!("{results:?}").as_bytes());
    let bits = format!("{:016x}", h.finish());
    let pinned = PINNED_POPULATION_BITS.trim();
    tally.record(if bits == pinned {
        Ok(())
    } else {
        Err(format!("serve population bits {bits} differ from the pinned {pinned}"))
    });
}

fn check(tally: &mut Tally, what: &str, ok: bool) {
    tally.record(if ok { Ok(()) } else { Err(format!("{what} differs from the pinned copy")) });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            for r in &tally.reasons {
                eprintln!("perfbench: failed operation: {r}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.failed == 0,
                tally.attempted,
                tally.failed,
                metrics.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    let w = workload(&args.workload)?;
    std::fs::create_dir_all(sweep::work_dir()).map_err(|e| format!("creating work dir: {e}"))?;
    let figures = if args.trace { None } else { Some(sweep::build_figures()?) };
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut plan = Plan::new(args.seed, w.warm);

    // The service first, so its latencies are taken in the same host state
    // on every workload rather than right after a CPU-heavy sweep.
    let docs = serve::reference_docs(&plan.specs);
    check_population(&mut tally);
    let sweep_count = if args.trace { 1 } else { w.repeats };
    let mut idle = IdlePoints::new(&mut plan, 3 + sweep_count);
    let (serve, daemon) = serve_stage(&mut plan, &docs, args, &mut idle, &mut tally)?;

    let spec = &w.sweep;
    let mut sweeps = Vec::new();
    let mut sweep_rss = 0.0f64;
    let mut layers = None;
    let mut max_ok_rps = 0.0;
    // The daemon idles through each sweep, and an idle point follows each;
    // the rate ladder and its idle point come after the first sweep, so the
    // sweeps spread over the run as the idle points do. The daemon is
    // stopped on every way out.
    let mut sweep_stage = |tally: &mut Tally| -> Result<(), String> {
        let mut after_sweep = |plan: &mut Plan, first: bool, tally: &mut Tally| {
            idle.visit(&daemon, plan, &docs, args.seed, tally)?;
            if first {
                max_ok_rps = ladder(&daemon, plan, &docs, tally);
                idle.visit(&daemon, plan, &docs, args.seed, tally)?;
            }
            Ok::<(), String>(())
        };
        match &figures {
            Some(bin) => {
                for k in 0..w.repeats {
                    let run = sweep::run_figures(bin, spec.args)?;
                    check(tally, "figures stdout", run.stdout == spec.pinned);
                    println!(
                        "sweep: figures {} took {:.3} s wall, {:.2} s CPU, {:.1} MiB peak RSS",
                        spec.args.join(" "),
                        run.wall_s,
                        run.cpu_s,
                        run.peak_rss_mib
                    );
                    if let Some(err) = sweep::paper_rel_err(&run.stdout) {
                        println!("sweep: mean relative error vs the paper's averages {err:.4}");
                    }
                    sweeps.push(run.wall_s);
                    sweep_rss = sweep_rss.max(run.peak_rss_mib);
                    after_sweep(&mut plan, k == 0, tally)?;
                }
            }
            None => {
                layers = Some(traced_sweep(&(spec.units)(), spec, tally));
                after_sweep(&mut plan, true, tally)?;
            }
        }
        Ok(())
    };
    let swept = sweep_stage(&mut tally);
    daemon.stop()?;
    swept?;
    let peak_rss = sweep_rss.max(serve.rss_mib);
    let cold = idle.cold_sorted();
    let setups: Vec<f64> = serve.setups.iter().chain(&idle.setups).copied().collect();

    if let Some(layers) = layers {
        return Ok((tally, per_layer(layers, &serve, args)));
    }
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mib", peak_rss, "MiB");
    m.put("sweep_s", median(&sweeps), "s");
    m.put("cold_p50_ms", p(&cold, 50.0), "ms");
    m.put("connect_p50_ms", p(&serve.fresh, 50.0), "ms");
    m.put("max_ok_rps", max_ok_rps, "1/s");
    println!(
        "serve: {} persistent, {} cold, {} fresh-connection requests at {} req/s nominal; \
         {} cold one at a time",
        serve.req.len(),
        serve.cold_mix.len(),
        serve.fresh.len(),
        serve::NOMINAL_RPS,
        cold.len()
    );
    for (name, value, unit) in &m.0 {
        println!("{name:<16} {value:>14.4} {unit}");
    }
    Ok((tally, m))
}

/// Layer totals of the traced pass plus the untraced reference pass.
struct Layers {
    unit_rows: String,
    spans: Vec<UnitSpans>,
    results: Vec<Vec<mgx_sim::RunResult>>,
    traced_wall_s: f64,
    ref_wall_s: f64,
    ref_cpu_s: f64,
    unit_s_max: f64,
    pool_idle_s: f64,
    threads: usize,
    paper_rel_err: f64,
}

/// Runs every unit untraced through `Simulation::run_all`, then traced
/// through the layer entry points, on the sweep's pool width each time;
/// gates every (unit, scheme) on bit identity and the rendered figures on
/// the pinned `figures` output.
fn traced_sweep(units: &[Unit], spec: &SweepSpec, tally: &mut Tally) -> Layers {
    let threads = spec.threads;
    let epoch = Instant::now();
    let cpu0 = procfs::cpu_seconds("self").unwrap_or(0.0);
    let refs: Vec<(Vec<mgx_sim::RunResult>, Interval)> =
        mgx_sim::parallel::map(threads, units.iter().collect(), |u| {
            sweep::reference_unit(u, epoch)
        });
    let ref_wall_s = epoch.elapsed().as_secs_f64();
    let ref_cpu_s = procfs::cpu_seconds("self").unwrap_or(0.0) - cpu0;
    let busy: u64 = refs.iter().map(|(_, iv)| iv.len()).sum();
    let workers = threads.min(units.len()).max(1);
    let unit_s_max = refs.iter().map(|(_, iv)| iv.len()).max().unwrap_or(0) as f64 / 1e9;
    let pool_idle_s = (workers as f64 * ref_wall_s - busy as f64 / 1e9).max(0.0);

    let epoch = Instant::now();
    let traced: Vec<(Vec<mgx_sim::RunResult>, UnitSpans)> =
        mgx_sim::parallel::map(threads, units.iter().collect(), |u| sweep::traced_unit(u, epoch));
    let traced_wall_s = epoch.elapsed().as_secs_f64();

    for (u, ((t, _), (r, _))) in units.iter().zip(traced.iter().zip(&refs)) {
        let outcome =
            sweep::same_bits(t, r).map_err(|e| format!("{} {}: {e}", u.workload, u.config));
        tally.record(outcome);
    }
    let results: Vec<Vec<mgx_sim::RunResult>> = refs.into_iter().map(|(r, _)| r).collect();
    let rendered = spec.render(units, &results);
    check(tally, "figures rendered from the traced units", rendered == spec.pinned);
    let paper_rel_err = sweep::paper_rel_err(&rendered).unwrap_or(0.0);
    let mut unit_rows = String::from("unit\tconfig\tscheme\tlayer\tself_ns\n");
    for (u, (_, s)) in units.iter().zip(&traced) {
        let _ = writeln!(unit_rows, "{}\t{}\t-\tmgx_trace\t{}", u.workload, u.config, s.gen_ns);
        for (scheme, ss) in Scheme::ALL.iter().zip(&s.schemes) {
            let layers =
                [("mgx_core", ss.expand_ns), ("mgx_dram", ss.dram_ns), ("flush", ss.flush_ns)];
            for (layer, v) in layers {
                let _ = writeln!(unit_rows, "{}\t{}\t{scheme}\t{layer}\t{v}", u.workload, u.config);
            }
        }
    }
    Layers {
        unit_rows,
        spans: traced.into_iter().map(|(_, s)| s).collect(),
        results,
        traced_wall_s,
        ref_wall_s,
        ref_cpu_s,
        unit_s_max,
        pool_idle_s,
        threads,
        paper_rel_err,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reads a histogram percentile (ns) or counter from a `metrics` reply.
fn registry_value(reg: Option<&Json>, kind: &str, name: &str, field: Option<&str>) -> f64 {
    let Some(v) =
        reg.and_then(|r| r.get("metrics")).and_then(|m| m.get(kind)).and_then(|k| k.get(name))
    else {
        return 0.0;
    };
    match field {
        Some(f) => v.get(f).and_then(Json::as_f64).unwrap_or(0.0),
        None => v.as_f64().unwrap_or(0.0),
    }
}

fn per_layer(l: Layers, serve: &ServeRun, args: &Args) -> Metrics {
    let mut m = Metrics::default();
    let sum = |f: &dyn Fn(&UnitSpans) -> u64| l.spans.iter().map(f).sum::<u64>();
    let gen_ns = sum(&|s| s.gen_ns);
    let scheme_sum = |i: usize, f: &dyn Fn(&sweep::SchemeSpans) -> u64| sum(&|s| f(&s.schemes[i]));
    let core_ns: u64 = (0..5).map(|i| scheme_sum(i, &|s| s.expand_ns + s.flush_ns)).sum();
    let dram_ns: u64 = (0..5).map(|i| scheme_sum(i, &|s| s.dram_ns)).sum();
    let total = (gen_ns + core_ns + dram_ns) as f64;

    m.put("mgx_trace.gen_s", gen_ns as f64 / 1e9, "s");
    m.put("mgx_trace.phases", sum(&|s| s.phases) as f64, "count");
    m.put("mgx_trace.requests", sum(&|s| s.requests) as f64, "count");
    m.put("mgx_trace.share", ratio(gen_ns as f64, total), "ratio");
    let mut host = [0.0f64; 5];
    for (i, scheme) in Scheme::ALL.iter().enumerate() {
        let s = scheme.label();
        let traffic: mgx_core::MetaTraffic = l.results.iter().map(|r| r[i].traffic).sum();
        let bursts = scheme_sum(i, &|s| s.data_bursts + s.meta_bursts);
        m.put(format!("mgx_core.{s}.expand_s"), scheme_sum(i, &|s| s.expand_ns) as f64 / 1e9, "s");
        m.put(format!("mgx_core.{s}.bursts"), bursts as f64, "count");
        m.put(
            format!("mgx_core.{s}.data_lines_per_burst"),
            ratio(
                scheme_sum(i, &|s| s.data_lines) as f64,
                scheme_sum(i, &|s| s.data_bursts) as f64,
            ),
            "lines",
        );
        m.put(
            format!("mgx_core.{s}.meta_lines_per_burst"),
            ratio(
                scheme_sum(i, &|s| s.meta_lines) as f64,
                scheme_sum(i, &|s| s.meta_bursts) as f64,
            ),
            "lines",
        );
        m.put(
            format!("mgx_core.{s}.meta_per_data"),
            ratio(traffic.meta_bytes() as f64, traffic.data.total() as f64),
            "ratio",
        );
        host[i] = scheme_sum(i, &|s| s.host_ns()) as f64;
    }
    for (i, s) in [(1, "BP"), (4, "MGX_MAC")] {
        let rates: Vec<f64> = l.spans.iter().filter_map(|u| u.schemes[i].meta_cache_hit).collect();
        m.put(
            format!("mgx_core.{s}.meta_cache_hit"),
            ratio(rates.iter().sum(), rates.len() as f64),
            "ratio",
        );
    }
    m.put("mgx_core.share", ratio(core_ns as f64, total), "ratio");
    for (i, scheme) in Scheme::ALL.iter().enumerate() {
        let s = scheme.label();
        let d: Vec<mgx_dram::DramStats> = l.results.iter().map(|r| r[i].dram).collect();
        let hits: u64 = d.iter().map(|d| d.row_hits).sum();
        let acts: u64 = d.iter().map(|d| d.row_hits + d.row_opens + d.row_conflicts).sum();
        let lat: u64 = d.iter().map(|d| d.total_latency).sum();
        let txns: u64 = d.iter().map(|d| d.reads + d.writes).sum();
        m.put(format!("mgx_dram.{s}.service_s"), scheme_sum(i, &|s| s.dram_ns) as f64 / 1e9, "s");
        m.put(format!("mgx_dram.{s}.row_hit_ratio"), ratio(hits as f64, acts as f64), "ratio");
        m.put(format!("mgx_dram.{s}.avg_latency_cyc"), ratio(lat as f64, txns as f64), "cycles");
    }
    m.put("mgx_dram.share", ratio(dram_ns as f64, total), "ratio");
    for (i, scheme) in Scheme::ALL.iter().enumerate() {
        let mib: f64 = l.results.iter().map(|r| r[i].total_bytes() as f64).sum::<f64>() / 1048576.0;
        m.put(format!("mgx_sim.{}.host_ns_per_mib", scheme.label()), ratio(host[i], mib), "ns/MiB");
    }
    m.put("mgx_sim.bp_over_np_host", ratio(host[1], host[0]), "ratio");
    m.put("mgx_sim.unit_s_max", l.unit_s_max, "s");
    m.put("mgx_sim.pool_idle_s", l.pool_idle_s, "s");
    m.put("mgx_sim.trace_overhead", ratio(l.traced_wall_s, l.ref_wall_s), "ratio");
    m.put("mgx_sim.ref_cpu_s", l.ref_cpu_s, "s");
    m.put("mgx_sim.paper_rel_err", l.paper_rel_err, "ratio");

    let reg = serve.registry.as_ref();
    let request_p50 =
        registry_value(reg, "histograms", "mgx_request_ns{op=\"run\"}", Some("p50")) / 1e6;
    let (reqs, outcomes) = &serve.nominal;
    let rtt = |kind: Kind| -> Vec<f64> {
        let mut v: Vec<f64> = reqs
            .iter()
            .zip(outcomes)
            .filter(|(r, _)| r.kind == kind)
            .filter_map(|(_, o)| o.done.map(|d| ms(d.saturating_sub(o.sent))))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let warm_rtt = p(&rtt(Kind::Warm), 50.0);
    let mut late: Vec<f64> = reqs
        .iter()
        .zip(outcomes)
        .map(|(r, o)| ms(o.sent.saturating_sub(r.due.as_nanos() as u64)))
        .collect();
    late.sort_by(f64::total_cmp);
    let hits = registry_value(reg, "counters", "mgx_store_hits_total", None);
    let misses = registry_value(reg, "counters", "mgx_store_misses_total", None);
    m.put("mgx_serve.req_ms.p50", p(&serve.req, 50.0), "ms");
    m.put("mgx_serve.req_ms.p99", serve.req_tail, "ms");
    m.put("mgx_serve.cold_mix_ms.p50", p(&serve.cold_mix, 50.0), "ms");
    m.put("mgx_serve.request_ms.p50", request_p50, "ms");
    m.put("mgx_serve.wire_ms.p50", (warm_rtt - request_p50).max(0.0), "ms");
    m.put(
        "mgx_serve.queue_wait_ms.p99",
        registry_value(reg, "histograms", "mgx_job_queue_wait_ns", Some("p99")) / 1e6,
        "ms",
    );
    m.put(
        "mgx_serve.execute_ms.p50",
        registry_value(reg, "histograms", "mgx_job_execute_ns", Some("p50")) / 1e6,
        "ms",
    );
    m.put("mgx_serve.accept_wait_ms.p50", (p(&rtt(Kind::Fresh), 50.0) - warm_rtt).max(0.0), "ms");
    m.put("mgx_serve.store_hit_ratio", ratio(hits, hits + misses), "ratio");
    m.put(
        "mgx_serve.disk_loads",
        registry_value(reg, "counters", "mgx_store_disk_loads_total", None),
        "count",
    );
    m.put("mgx_serve.gen_late_ms.p99", p(&late, 99.0), "ms");
    m.put(
        "mgx_serve.jobs_executed",
        registry_value(reg, "counters", "mgx_jobs_executed_total", None),
        "count",
    );

    let mut request_rows = String::from("request\tkind\tdue_ns\tsent_ns\tdone_ns\n");
    for (id, (r, o)) in reqs.iter().zip(outcomes).enumerate() {
        let done = o.done.map_or("failed".to_string(), |d| d.to_string());
        let due = r.due.as_nanos();
        let _ = writeln!(request_rows, "{id}\t{:?}\t{due}\t{}\t{done}", r.kind, o.sent);
    }
    for (what, rows) in [("units", &l.unit_rows), ("requests", &request_rows)] {
        let path =
            sweep::work_dir().join(format!("spans-{}-{}-{what}.tsv", args.workload, args.seed));
        if std::fs::write(&path, rows).is_ok() {
            println!("trace: {what} spans written to {}", path.display());
        }
    }
    println!(
        "trace: {} on {} thread(s): traced pass {:.3} s vs untraced run_all {:.3} s (overhead x{:.3})",
        args.workload,
        l.threads,
        l.traced_wall_s,
        l.ref_wall_s,
        ratio(l.traced_wall_s, l.ref_wall_s)
    );
    println!(
        "trace: layer shares of traced host time: mgx_trace {:.2}%, mgx_core {:.2}%, mgx_dram {:.2}%",
        100.0 * ratio(gen_ns as f64, total),
        100.0 * ratio(core_ns as f64, total),
        100.0 * ratio(dram_ns as f64, total)
    );
    for (name, value, unit) in &m.0 {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    m
}
