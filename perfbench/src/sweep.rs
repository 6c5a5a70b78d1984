//! The sweep side of the benchmark: the `figures` binary as a user runs
//! it (untraced), and the traced pass that drives the same units through
//! each layer's public entry points, in pipeline order, with spans timed
//! from outside the program.

use crate::procfs;
use crate::stats::{self_time, Interval};
use mgx_core::engine::BaselineEngine;
use mgx_core::{scheme_engine, LineBurst, ProtectionEngine, Scheme, TxnKind};
use mgx_dnn::Model;
use mgx_dram::DramModel;
use mgx_graph::accel::{stream_graph_trace, GraphAccelConfig, GraphWorkload};
use mgx_graph::{algorithms, Csr, Dataset};
use mgx_h264::decoder::{stream_decode_trace, DecoderConfig};
use mgx_h264::GopStructure;
use mgx_scalesim::{ArrayConfig, Dataflow};
use mgx_sim::experiments::{self, dnn, graph, transformer, video, Evaluated};
use mgx_sim::job::Suite;
use mgx_sim::{DramBackend, PhaseMode, RunResult, Scale, SimConfig, Simulation};
use mgx_trace::{Phase, RegionMap, TraceSource};
use mgx_transformer::{PagedConfig, TransformerConfig};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a unit's phase stream is generated from.
enum Source {
    Dnn { model: Model, array: ArrayConfig, training: bool },
    Graph { graph: Arc<Csr>, workload: GraphWorkload },
    Llm { model: TransformerConfig, stage: &'static str, scale: Scale },
    Video { frames: usize },
}

/// One independent workload of a suite sweep: simulated under all five
/// schemes in a single pass over its phases.
pub struct Unit {
    /// Suite the unit belongs to (groups results back into figures).
    pub suite: Suite,
    /// Workload label, as the figures print it.
    pub workload: String,
    /// Configuration label (`Cloud`, `Edge` or empty).
    pub config: String,
    /// Simulation configuration, as the experiment registry sets it.
    pub sim: SimConfig,
    source: Source,
}

type Stream = (RegionMap, Box<dyn Iterator<Item = Phase>>);

impl Unit {
    /// The unit's trace source: region declarations plus the lazy phase
    /// stream of the workload crate's `stream_*` generator.
    fn open(&self) -> Stream {
        fn boxed(src: impl TraceSource<Phases = impl Iterator<Item = Phase> + 'static>) -> Stream {
            let (regions, phases) = src.into_stream();
            (regions, Box::new(phases))
        }
        use mgx_dnn::trace::{stream_inference_trace, stream_training_trace};
        use mgx_transformer::trace as llm;
        match &self.source {
            Source::Dnn { model, array, training: true } => {
                boxed(stream_training_trace(model, array, Dataflow::WeightStationary))
            }
            Source::Dnn { model, array, training: false } => {
                boxed(stream_inference_trace(model, array, Dataflow::WeightStationary))
            }
            Source::Graph { graph, workload } => {
                boxed(stream_graph_trace(graph, *workload, &GraphAccelConfig::default()))
            }
            Source::Llm { model, stage, scale } => {
                let (req, array) = (transformer::request(scale), transformer::array());
                match *stage {
                    "Prefill" => boxed(llm::stream_prefill_trace(model, &req, &array)),
                    "Decode" => boxed(llm::stream_decode_trace(model, &req, &array)),
                    _ => boxed(llm::stream_paged_attention_trace(
                        model,
                        &req,
                        &PagedConfig::default(),
                        &array,
                    )),
                }
            }
            Source::Video { frames } => {
                boxed(stream_decode_trace(&GopStructure::ibpb(*frames), &DecoderConfig::default()))
            }
        }
    }
}

fn dnn_units(suite: Suite, scale: &Scale, backend: DramBackend) -> Vec<Unit> {
    let training = suite == Suite::DnnTraining;
    let mut models = vec![
        Model::vgg16(scale.dnn_batch),
        Model::alexnet(scale.dnn_batch),
        Model::googlenet(scale.dnn_batch),
        Model::resnet50(scale.dnn_batch),
        Model::bert_base(scale.dnn_batch, scale.bert_seq),
    ];
    if !training {
        models.push(Model::dlrm(scale.dnn_batch * 16));
    }
    let mut units = Vec::new();
    for model in models {
        for (config, array, sim) in dnn::setups() {
            units.push(Unit {
                suite,
                workload: model.name.to_string(),
                config: config.to_string(),
                sim: SimConfig { dram_backend: backend, ..sim },
                source: Source::Dnn { model: model.clone(), array, training },
            });
        }
    }
    units
}

fn graph_units(scale: &Scale, backend: DramBackend) -> Vec<Unit> {
    let mut units = Vec::new();
    for ds in Dataset::suite() {
        let g = ds.generate(scale.graph_divisor, 0xA11CE);
        let hub = (0..g.n).max_by_key(|&r| g.row_ptr[r + 1] - g.row_ptr[r]).unwrap_or(0) as u32;
        let (_, sweeps) = algorithms::bfs(&g, hub);
        let graph = Arc::new(g);
        for workload in [
            GraphWorkload::PageRank { iters: scale.pr_iters },
            GraphWorkload::Bfs { levels: sweeps.clamp(2, 10) },
        ] {
            units.push(Unit {
                suite: Suite::Graph,
                workload: format!("{}-{}", workload.label(), ds.name),
                config: String::new(),
                sim: SimConfig { dram_backend: backend, ..graph::setup() },
                source: Source::Graph { graph: graph.clone(), workload },
            });
        }
    }
    units
}

fn llm_units(scale: &Scale, backend: DramBackend) -> Vec<Unit> {
    let mut units = Vec::new();
    for model in [TransformerConfig::gpt_small(), TransformerConfig::llama_style()] {
        for stage in ["Prefill", "Decode", "Paged"] {
            units.push(Unit {
                suite: Suite::Transformer,
                workload: model.name.to_string(),
                config: stage.to_string(),
                sim: SimConfig { dram_backend: backend, ..transformer::setup() },
                source: Source::Llm { model, stage, scale: *scale },
            });
        }
    }
    units
}

/// The H.264 decode at `frames` frames, as a `video` job with that
/// `video_frames` knob simulates it.
pub fn video_unit(frames: usize) -> Unit {
    Unit {
        suite: Suite::Video,
        workload: "H.264-IBPB".into(),
        config: String::new(),
        sim: video::setup(),
        source: Source::Video { frames },
    }
}

/// A sweep's results grouped back into the suites its figures read.
pub type BySuite<'a> = &'a dyn Fn(Suite) -> Vec<Evaluated>;

/// A sweep workload: what `figures` is asked for, the units the traced
/// pass drives to reproduce it, and how the figures render from them.
pub struct SweepSpec {
    /// `figures` arguments (after the binary name).
    pub args: &'static [&'static str],
    /// Pool threads the sweep runs on.
    pub threads: usize,
    /// The `figures` stdout pinned at the commit that defined the
    /// benchmark; any byte difference fails the sweep.
    pub pinned: &'static str,
    /// The units behind the sweep, in the order the figures consume them.
    pub units: fn() -> Vec<Unit>,
    figures: fn(BySuite) -> String,
}

/// `figures summary --quick`: closed-form DRAM, burst path, one thread.
pub const PAPER_QUICK: SweepSpec = SweepSpec {
    args: &["summary", "--quick", "--json", "--threads", "1"],
    threads: 1,
    pinned: include_str!("../pinned/paper-quick.json"),
    units: || {
        let (scale, backend) = (Scale::quick(), DramBackend::ClosedForm);
        let mut units = dnn_units(Suite::DnnInference, &scale, backend);
        units.extend(dnn_units(Suite::DnnTraining, &scale, backend));
        units.extend(graph_units(&scale, backend));
        units
    },
    figures: |evals| {
        let claims = experiments::summary_claims(
            &evals(Suite::DnnInference),
            &evals(Suite::DnnTraining),
            &evals(Suite::Graph),
        );
        format!("{}\n", experiments::render_claims_json(&claims))
    },
};

/// The transformer suite at standard scale on the queued backend, two
/// pool threads.
pub const LLM_QUEUED: SweepSpec = SweepSpec {
    args: &["llm-traffic", "llm-time", "--dram-model", "queued", "--json", "--threads", "2"],
    threads: 2,
    pinned: include_str!("../pinned/llm-queued.json"),
    units: || llm_units(&Scale::standard(), DramBackend::Queued),
    figures: |evals| {
        let llm = evals(Suite::Transformer);
        format!(
            "{}\n{}\n",
            mgx_sim::render_json(&transformer::fig_llm_traffic(&llm)),
            mgx_sim::render_json(&transformer::fig_llm_time(&llm))
        )
    },
};

impl SweepSpec {
    /// Renders the figures from per-unit results exactly as the `figures`
    /// binary prints them, so the units can be checked against the pinned
    /// output.
    pub fn render(&self, units: &[Unit], results: &[Vec<RunResult>]) -> String {
        let evals = |suite: Suite| -> Vec<Evaluated> {
            units
                .iter()
                .zip(results)
                .filter(|(u, _)| u.suite == suite)
                .map(|(u, r)| Evaluated::new(u.workload.clone(), u.config.clone(), r.clone()))
                .collect()
        };
        (self.figures)(&evals)
    }
}

/// Mean relative error against the paper over the summary claims in
/// `figures summary --json` output; `None` when the output has no claims.
pub fn paper_rel_err(figures_stdout: &str) -> Option<f64> {
    let errs: Vec<f64> = figures_stdout
        .split("\"rel_err\":")
        .skip(1)
        .filter_map(|s| s.split(['}', ',']).next()?.parse().ok())
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Where Cargo puts release binaries for this checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|| "target".into())
}

/// Scratch space for this benchmark inside the checkout's target dir.
pub fn work_dir() -> PathBuf {
    target_dir().join("perfbench")
}

/// Builds the repository's `figures` binary from source (a no-op when it
/// is fresh) and returns its path.
pub fn build_figures() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "mgx-bench", "--bin", "figures"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building figures failed ({status})"));
    }
    let bin = target_dir().join("release").join("figures");
    bin.exists().then_some(bin).ok_or_else(|| "figures binary missing after build".into())
}

/// One untraced `figures` run, as a user waits for it.
pub struct FiguresRun {
    /// Wall time from spawn to exit.
    pub wall_s: f64,
    /// Peak resident set of the process, polled from `/proc` while it runs.
    pub peak_rss_mib: f64,
    /// CPU seconds the process used (last poll before exit).
    pub cpu_s: f64,
    /// Everything it printed on stdout.
    pub stdout: String,
}

/// Runs `figures` with `args`, polling its peak RSS and CPU time.
pub fn run_figures(bin: &Path, args: &[&str]) -> Result<FiguresRun, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start figures: {e}"))?;
    let pid = child.id().to_string();
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        pipe.read_to_string(&mut out).map(|_| out)
    });
    let (mut rss, mut cpu) = (0.0f64, 0.0f64);
    let status = loop {
        if let Some(r) = procfs::peak_rss_mib(&pid) {
            rss = rss.max(r);
        }
        if let Some(c) = procfs::cpu_seconds(&pid) {
            cpu = cpu.max(c);
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for figures: {e}"));
            }
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = reader
        .join()
        .expect("stdout reader does not panic")
        .map_err(|e| format!("reading figures stdout: {e}"))?;
    if !status.success() {
        return Err(format!("figures exited with {status}"));
    }
    Ok(FiguresRun { wall_s, peak_rss_mib: rss, cpu_s: cpu, stdout })
}

/// An engine as the traced pass holds it: the metadata-caching engines
/// (BP, MGX_MAC) concretely, so their cache hit rate can be read, and the
/// rest through the same factory the pipeline uses.
enum Engine {
    Cached(Box<BaselineEngine>),
    Other(Box<dyn ProtectionEngine>),
}

impl Engine {
    fn new(scheme: Scheme, regions: &RegionMap, sim: &SimConfig) -> Self {
        match scheme {
            Scheme::Baseline => Engine::Cached(Box::new(BaselineEngine::fine_mac(&sim.protection))),
            Scheme::MgxMac => {
                Engine::Cached(Box::new(BaselineEngine::coarse_mac(regions, &sim.protection)))
            }
            _ => Engine::Other(scheme_engine(scheme, regions, &sim.protection)),
        }
    }

    fn get(&mut self) -> &mut dyn ProtectionEngine {
        match self {
            Engine::Cached(e) => e.as_mut(),
            Engine::Other(e) => e.as_mut(),
        }
    }

    fn meta_cache_hit(&self) -> Option<f64> {
        match self {
            Engine::Cached(e) => Some(e.cache_hit_rate()),
            Engine::Other(_) => None,
        }
    }
}

/// Aggregated spans of one (unit, scheme): self time per layer and the
/// burst counts the engine emitted.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchemeSpans {
    /// Engine expansion self time (DRAM calls made from its callback
    /// excluded).
    pub expand_ns: u64,
    /// DRAM backend time: `access_burst`, `drain`, and the flush's
    /// `access` calls.
    pub dram_ns: u64,
    /// End-of-run `flush` self time.
    pub flush_ns: u64,
    /// Data bursts emitted and the lines they carried.
    pub data_bursts: u64,
    /// Lines carried by data bursts.
    pub data_lines: u64,
    /// Metadata (VN, tree, MAC) bursts emitted, flush included.
    pub meta_bursts: u64,
    /// Lines carried by metadata bursts.
    pub meta_lines: u64,
    /// Metadata-cache hit rate at the end of the run (BP, MGX_MAC only).
    pub meta_cache_hit: Option<f64>,
}

impl SchemeSpans {
    fn count(&mut self, b: &LineBurst) {
        if b.kind == TxnKind::Data {
            self.data_bursts += 1;
            self.data_lines += b.lines;
        } else {
            self.meta_bursts += 1;
            self.meta_lines += b.lines;
        }
    }

    /// Host time the scheme itself cost (trace generation is shared).
    pub fn host_ns(&self) -> u64 {
        self.expand_ns + self.dram_ns + self.flush_ns
    }
}

/// Spans of one unit.
#[derive(Debug, Default, Clone)]
pub struct UnitSpans {
    /// Trace generation: source construction plus every `next()` of the
    /// phase stream.
    pub gen_ns: u64,
    /// Phases generated.
    pub phases: u64,
    /// Memory requests across those phases.
    pub requests: u64,
    /// Per scheme, in [`Scheme::ALL`] order.
    pub schemes: [SchemeSpans; 5],
}

/// One scheme's state in the traced pass — the same steps as the
/// pipeline's per-scheme run, issued from here so each layer call can be
/// timed.
struct TracedScheme {
    scheme: Scheme,
    engine: Engine,
    dram: Box<dyn DramModel>,
    now: u64,
    carry: u64,
    write_buf: Vec<LineBurst>,
    kids: Vec<Interval>,
    spans: SchemeSpans,
}

fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

impl TracedScheme {
    fn new(scheme: Scheme, regions: &RegionMap, sim: &SimConfig) -> Self {
        Self {
            scheme,
            engine: Engine::new(scheme, regions, sim),
            dram: sim.dram_backend.build(sim.dram),
            now: 0,
            carry: 0,
            write_buf: Vec::new(),
            kids: Vec::new(),
            spans: SchemeSpans::default(),
        }
    }

    /// Accelerator cycles to DRAM cycles, carrying the remainder across
    /// phases exactly as the pipeline does.
    fn accel_to_dram(&mut self, cycles: u64, sim: &SimConfig) -> u64 {
        let denom = sim.accel_freq_mhz as u128;
        let num = cycles as u128 * sim.dram.freq_mhz as u128 + self.carry as u128;
        self.carry = (num % denom) as u64;
        (num / denom) as u64
    }

    /// One overlapped phase: reads go to DRAM as the engine emits them,
    /// writes drain after the phase's reads, then the backend drains.
    fn step(&mut self, phase: &Phase, sim: &SimConfig, epoch: Instant) {
        let compute = self.accel_to_dram(phase.compute_cycles, sim);
        let start = self.now;
        let mut done = start;
        let Self { engine, dram, write_buf, kids, spans, .. } = self;
        write_buf.clear();
        kids.clear();
        let t0 = ns(epoch);
        let engine = engine.get();
        for req in &phase.requests {
            engine.expand_bursts(req, &mut |b| {
                spans.count(&b);
                if b.dir.is_read() {
                    let a = ns(epoch);
                    done = done.max(dram.access_burst(start, b.addr, b.lines, b.dir));
                    kids.push(Interval { start: a, end: ns(epoch) });
                } else {
                    write_buf.push(b);
                }
            });
        }
        let t1 = ns(epoch);
        let expand_self = self_time(Interval { start: t0, end: t1 }, kids);
        spans.expand_ns += expand_self;
        spans.dram_ns += (t1 - t0) - expand_self;
        for b in write_buf.drain(..) {
            done = done.max(dram.access_burst(start, b.addr, b.lines, b.dir));
        }
        done = done.max(dram.drain());
        spans.dram_ns += ns(epoch) - t1;
        self.now += compute.max(done - start);
    }

    /// Drains residual dirty metadata and closes the run.
    fn finish(mut self, sim: &SimConfig, epoch: Instant) -> (RunResult, SchemeSpans) {
        let end = self.now;
        let mut done = end;
        let Self { engine, dram, kids, spans, .. } = &mut self;
        kids.clear();
        let t0 = ns(epoch);
        engine.get().flush(&mut |txn| {
            spans.count(&LineBurst::from(txn));
            let a = ns(epoch);
            done = done.max(dram.access(end, txn.addr, txn.dir));
            kids.push(Interval { start: a, end: ns(epoch) });
        });
        let t1 = ns(epoch);
        let flush_self = self_time(Interval { start: t0, end: t1 }, kids);
        spans.flush_ns += flush_self;
        done = done.max(dram.drain());
        spans.dram_ns += (t1 - t0) - flush_self + (ns(epoch) - t1);
        spans.meta_cache_hit = engine.meta_cache_hit();
        let result = RunResult {
            scheme: self.scheme,
            dram_cycles: done,
            exec_ns: done as f64 * 1000.0 / sim.dram.freq_mhz as f64,
            traffic: self.engine.get().traffic(),
            dram: self.dram.stats(),
        };
        (result, self.spans)
    }
}

/// Drives one unit through the layers with spans: the `stream_*` source,
/// then per phase and scheme the engine's `expand_bursts` feeding the
/// backend's `access_burst`/`drain`, then each engine's `flush`.
pub fn traced_unit(unit: &Unit, epoch: Instant) -> (Vec<RunResult>, UnitSpans) {
    assert!(
        matches!(unit.sim.mode, PhaseMode::Overlapped),
        "the traced pass models overlapped phases only"
    );
    let mut spans = UnitSpans::default();
    let begin = ns(epoch);
    let (regions, mut phases) = unit.open();
    spans.gen_ns += ns(epoch) - begin;
    let mut runs: Vec<TracedScheme> =
        Scheme::ALL.iter().map(|&s| TracedScheme::new(s, &regions, &unit.sim)).collect();
    loop {
        let t = ns(epoch);
        let next = phases.next();
        spans.gen_ns += ns(epoch) - t;
        let Some(phase) = next else { break };
        spans.phases += 1;
        spans.requests += phase.requests.len() as u64;
        for run in &mut runs {
            run.step(&phase, &unit.sim, epoch);
        }
    }
    let mut results = Vec::with_capacity(runs.len());
    for (i, run) in runs.into_iter().enumerate() {
        let (result, s) = run.finish(&unit.sim, epoch);
        spans.schemes[i] = s;
        results.push(result);
    }
    (results, spans)
}

/// The untraced reference: the unit through `Simulation::run_all`.
pub fn reference_unit(unit: &Unit, epoch: Instant) -> (Vec<RunResult>, Interval) {
    let start = ns(epoch);
    let results = Simulation::over(unit.open()).config(unit.sim.clone()).run_all();
    (results, Interval { start, end: ns(epoch) })
}

/// Bit-identity of two five-scheme results: cycles, `exec_ns` bits,
/// traffic and DRAM statistics.
pub fn same_bits(a: &[RunResult], b: &[RunResult]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} results vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        if x.scheme != y.scheme
            || x.dram_cycles != y.dram_cycles
            || x.exec_ns.to_bits() != y.exec_ns.to_bits()
            || x.traffic != y.traffic
            || x.dram != y.dram
        {
            return Err(format!(
                "{}: traced {} cycles vs run_all {} cycles",
                x.scheme, x.dram_cycles, y.dram_cycles
            ));
        }
    }
    Ok(())
}
