//! The path differential suite: `Burst ≡ PerLine` bit-for-bit —
//! `dram_cycles`, `traffic`, `dram` by `==`, `exec_ns` down to the float
//! bits — across all five schemes, both phase modes, and thread counts
//! {1, 4}, for recurring, never-recurring, mixed, and refresh-straddling
//! workloads plus a real DNN trace, and on the queued DRAM backend.

mod common;

use common::{
    assert_all_paths_bit_identical, assert_all_paths_bit_identical_on, frame_ring_trace,
    interleaved_trace, ping_pong_trace, refresh_gap_trace, stream_trace,
};
use mgx::dnn::trace::build_inference_trace;
use mgx::dnn::Model;
use mgx::scalesim::{ArrayConfig, Dataflow};
use mgx::sim::DramBackend;

#[test]
fn ping_pong_all_paths_bit_identical() {
    assert_all_paths_bit_identical(&ping_pong_trace(96), "ping-pong");
}

#[test]
fn frame_ring_all_paths_bit_identical() {
    assert_all_paths_bit_identical(&frame_ring_trace(96), "frame-ring");
}

#[test]
fn monotonic_stream_all_paths_bit_identical() {
    assert_all_paths_bit_identical(&stream_trace(64), "stream");
}

#[test]
fn interleaved_phases_all_paths_bit_identical() {
    assert_all_paths_bit_identical(&interleaved_trace(96), "interleaved");
}

#[test]
fn refresh_straddling_all_paths_bit_identical() {
    // ~half the phases start near a refresh boundary, so refreshes land
    // inside phases at varying offsets on both paths.
    assert_all_paths_bit_identical(&refresh_gap_trace(64, 2_000_000), "refresh-gap");
}

#[test]
fn real_dnn_workload_all_paths_bit_identical() {
    // A real accelerator trace, not a synthetic blueprint: AlexNet through
    // the systolic-array model (batch 1 keeps it fast).
    let model = Model::alexnet(1);
    let trace = build_inference_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary);
    assert_all_paths_bit_identical(&trace, "alexnet");
}

#[test]
fn queued_backend_all_paths_bit_identical() {
    // The FR-FCFS backend reorders within each phase, so mixed shapes and
    // refresh-straddling gaps are where a path divergence would show.
    for (trace, label) in [
        (interleaved_trace(96), "queued-mix"),
        (refresh_gap_trace(48, 2_000_000), "queued-gap"),
        (frame_ring_trace(96), "queued-ring"),
    ] {
        assert_all_paths_bit_identical_on(&trace, label, DramBackend::Queued);
    }
}
