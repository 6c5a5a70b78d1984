//! Shared differential harness: run one workload under every transaction
//! path and assert the results are **bit-identical** — `dram_cycles`,
//! `traffic`, `dram` by `==` and `exec_ns` down to its float bits.
//!
//! Single-threaded `TxnPath::Burst` is the reference; the harness sweeps
//! `TxnPath::PerLine` and the burst path on more threads, in both phase
//! modes, against it, for all five schemes at once. Any test crate can
//! `mod common;` and feed it a trace — the path-equivalence and
//! transformer suites both do.

#![allow(dead_code)] // each test crate includes this module and uses a subset

use mgx::sim::{DramBackend, PhaseMode, RunResult, SimConfig, Simulation, TxnPath};
use mgx::trace::{DataClass, MemRequest, Trace, TraceBuilder};

/// The uniform tile size of the synthetic blueprints (small enough that
/// BP's metadata stays resident in its cache).
pub const TILE: u64 = 16 << 10;

/// Both phase modes the pipeline supports — every harness sweep covers
/// overlapped (DNN/graph style) and serial-units (GACT style) timing.
pub fn all_modes() -> [PhaseMode; 2] {
    [PhaseMode::Overlapped, PhaseMode::Serial { units: 4 }]
}

/// A `SimConfig` for the given mode on the paper's Cloud setup.
pub fn config_for(mode: PhaseMode) -> SimConfig {
    let mut cfg = SimConfig::overlapped(4, 700);
    cfg.mode = mode;
    cfg
}

fn run_all(trace: &Trace, cfg: &SimConfig, path: TxnPath, threads: usize) -> Vec<RunResult> {
    Simulation::over(trace).config(cfg.clone()).txn_path(path).parallel(threads).run_all()
}

/// Asserts two five-scheme sweeps are bit-identical, field by field.
/// `RunResult` deliberately has no `PartialEq` — comparing here keeps the
/// float comparison honest (`to_bits`, not an epsilon).
pub fn assert_results_identical(reference: &[RunResult], other: &[RunResult], ctx: &str) {
    assert_eq!(reference.len(), other.len(), "{ctx}: sweep lengths differ");
    for (r, o) in reference.iter().zip(other) {
        let s = r.scheme;
        assert_eq!(r.scheme, o.scheme, "{ctx}: scheme order diverged");
        assert_eq!(r.dram_cycles, o.dram_cycles, "{ctx}/{s}: dram_cycles diverged");
        assert_eq!(
            r.exec_ns.to_bits(),
            o.exec_ns.to_bits(),
            "{ctx}/{s}: exec_ns float bits diverged ({} vs {})",
            r.exec_ns,
            o.exec_ns
        );
        assert_eq!(r.traffic, o.traffic, "{ctx}/{s}: traffic diverged");
        assert_eq!(r.dram, o.dram, "{ctx}/{s}: DRAM stats diverged");
    }
}

/// The headline sweep: every `TxnPath` × phase mode × thread count must
/// reproduce the single-threaded burst reference bit for bit, across all
/// five schemes, on the default closed-form DRAM backend.
pub fn assert_all_paths_bit_identical(trace: &Trace, label: &str) {
    assert_all_paths_bit_identical_on(trace, label, DramBackend::ClosedForm);
}

/// [`assert_all_paths_bit_identical`] on an explicit DRAM backend.
pub fn assert_all_paths_bit_identical_on(trace: &Trace, label: &str, backend: DramBackend) {
    for mode in all_modes() {
        let cfg = SimConfig { dram_backend: backend, ..config_for(mode) };
        let reference = run_all(trace, &cfg, TxnPath::Burst, 1);
        for path in [TxnPath::Burst, TxnPath::PerLine] {
            for threads in [1usize, 4] {
                if path == TxnPath::Burst && threads == 1 {
                    continue; // that's the reference itself
                }
                let got = run_all(trace, &cfg, path, threads);
                let ctx = format!("{label}/{mode:?}/{path:?}/t{threads}");
                assert_results_identical(&reference, &got, &ctx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workload blueprints
// ---------------------------------------------------------------------------

/// Double-buffered uniform tiles: read ping/pong input, write a fixed
/// output tile — after one warm lap every phase recurs.
pub fn ping_pong_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("buf", 4 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    for i in 0..phases {
        b.begin_unnamed_phase(500);
        b.push(MemRequest::read(r, base + (i % 2) * TILE, TILE));
        b.push(MemRequest::write(r, base + 2 * TILE, TILE));
    }
    b.finish()
}

/// A decoder-style ring of four frame slots: each phase reads half-tile
/// reference blocks from the two previous frames and writes the next frame
/// (period-four recurrence).
pub fn frame_ring_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("frames", 4 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    let slot = |i: u64| base + (i % 4) * TILE;
    for i in 0..phases {
        b.begin_unnamed_phase(800);
        b.push(MemRequest::read(r, slot(i + 2), TILE / 2));
        b.push(MemRequest::read(r, slot(i + 3), TILE / 2));
        b.push(MemRequest::write(r, slot(i), TILE));
    }
    b.finish()
}

/// A monotonic stream: every phase touches fresh addresses, so nothing
/// ever recurs.
pub fn stream_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("stream", phases * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    for i in 0..phases {
        b.begin_unnamed_phase(200);
        if i % 4 == 0 {
            b.push(MemRequest::write(r, base + i * TILE, TILE));
        } else {
            b.push(MemRequest::read(r, base + i * TILE, TILE));
        }
    }
    b.finish()
}

/// Interleaves a recurring ping-pong phase with non-uniform odd phases —
/// four distinct shapes (odd sizes, different offsets, differing compute)
/// cycling between the recurring passes.
pub fn interleaved_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("mix", 64 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    let odd: [(u64, u64, u64); 4] = [
        (16 * TILE, 3 * TILE / 2 + 64, 150),
        (20 * TILE + 4096, 5 * TILE / 4, 900),
        (24 * TILE + 128, TILE / 2 + 192, 400),
        (30 * TILE, 2 * TILE, 650),
    ];
    for i in 0..phases {
        if i % 2 == 0 {
            b.begin_unnamed_phase(500);
            b.push(MemRequest::read(r, base + (i % 4) / 2 * TILE, TILE));
            b.push(MemRequest::write(r, base + 2 * TILE, TILE));
        } else {
            let (off, bytes, compute) = odd[((i / 2) % 4) as usize];
            b.begin_unnamed_phase(compute);
            b.push(MemRequest::read(r, base + off, bytes));
        }
    }
    b.finish()
}

/// Ping-pong phases separated by huge compute gaps, shifting each phase's
/// start relative to the refresh schedule, so refreshes land inside
/// phases at varying offsets.
pub fn refresh_gap_trace(phases: u64, gap_cycles: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("gap", 4 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    for i in 0..phases {
        b.begin_unnamed_phase(if i % 2 == 0 { gap_cycles } else { 500 });
        b.push(MemRequest::read(r, base + (i % 2) * TILE, TILE));
        b.push(MemRequest::write(r, base + 2 * TILE, TILE));
    }
    b.finish()
}
