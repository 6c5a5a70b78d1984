//! Multi-core execution of the evaluation sweeps.
//!
//! Two layers of parallelism, both **deterministic** — parallel runs are
//! bit-identical to their sequential twins because no simulator state is
//! ever shared between threads:
//!
//! * **Within one workload** (the phase broadcast, reached via
//!   [`crate::Simulation::parallel`]): the calling thread drives the
//!   [`mgx_trace::TraceSource`] as the single producer and broadcasts each
//!   [`Phase`] over bounded channels to per-scheme worker threads, each
//!   owning its own protection engine and DRAM model. Bounded channels give
//!   backpressure: a fast producer blocks instead of buffering the
//!   workload, so peak memory stays O(phases-in-flight × schemes) no matter
//!   how long the stream is. Keeping the producer on the calling thread
//!   also means the phase iterator itself never crosses threads — any
//!   generator qualifies, with no `Send` bound. The broadcast payload is
//!   an `Arc<Phase>` of coarse requests (hot generators leave the label
//!   `None`, so a tile phase is just its request vector); each worker
//!   expands them through the burst hot path (`SchemeRun::step`), so the
//!   per-line work never crosses threads either.
//!
//! * **Across workloads** ([`map`]): the experiment registry's suites are
//!   embarrassingly parallel (one `Evaluated` per workload), so a simple
//!   work-claiming pool fans them over `n` threads while preserving input
//!   order. The `figures` binary's `--threads` flag feeds this pool.
//!
//! Everything is built on `std::thread::scope` — no dependencies.

use crate::pipeline::{RunResult, SchemeRun, SimConfig};
use mgx_core::Scheme;
use mgx_trace::{Phase, RegionMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};

/// Phases in flight per worker before the producer blocks (backpressure
/// bound; each slot holds an `Arc<Phase>`, so the bytes are shared).
const CHANNEL_DEPTH: usize = 64;

/// Resolves a thread-count knob: `0` means one thread per available core,
/// anything else is taken literally (`1` = sequential).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Runs the five-scheme sweep with one producer (the calling thread) and
/// up to `threads` scheme workers. Results come back in [`Scheme::ALL`]
/// order, bit-identical to the sequential sweep.
pub(crate) fn run_all_broadcast(
    regions: &RegionMap,
    phases: impl Iterator<Item = Phase>,
    cfg: &SimConfig,
    threads: usize,
) -> Vec<RunResult> {
    let workers = threads.clamp(1, Scheme::ALL.len());
    // Round-robin the schemes over the workers: worker `w` owns schemes
    // `ALL[w], ALL[w + workers], …` and steps them in that fixed order.
    let groups: Vec<Vec<Scheme>> = (0..workers)
        .map(|w| Scheme::ALL.iter().copied().skip(w).step_by(workers).collect())
        .collect();
    let mut results: Vec<Option<RunResult>> = vec![None; Scheme::ALL.len()];
    std::thread::scope(|s| {
        let mut txs: Vec<SyncSender<Arc<Phase>>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for group in groups {
            let (tx, rx) = sync_channel::<Arc<Phase>>(CHANNEL_DEPTH);
            txs.push(tx);
            handles.push(s.spawn(move || {
                let mut runs: Vec<SchemeRun> =
                    group.into_iter().map(|sc| SchemeRun::new(sc, regions, cfg)).collect();
                for phase in rx.iter() {
                    for run in &mut runs {
                        run.step(&phase, cfg);
                    }
                }
                runs.into_iter().map(|run| run.finish(cfg)).collect::<Vec<_>>()
            }));
        }
        'produce: for phase in phases {
            let phase = Arc::new(phase);
            for tx in &txs {
                if tx.send(phase.clone()).is_err() {
                    // A worker hung up (panicked): stop producing; the join
                    // below surfaces the panic.
                    break 'produce;
                }
            }
        }
        drop(txs); // close the channels so workers drain and finish
        for handle in handles {
            let finished = match handle.join() {
                Ok(finished) => finished,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            for result in finished {
                let slot =
                    Scheme::ALL.iter().position(|&sc| sc == result.scheme).expect("known scheme");
                results[slot] = Some(result);
            }
        }
    });
    results.into_iter().map(|r| r.expect("every scheme simulated exactly once")).collect()
}

/// Applies `f` to every item on a pool of up to `threads` worker threads,
/// returning the outputs in input order.
///
/// Items are claimed atomically (index order), so threads stay busy until
/// the queue drains regardless of per-item cost skew. With `threads <= 1`
/// (after [`resolve_threads`]) this degenerates to a plain sequential map —
/// the experiment registry calls it unconditionally and lets the knob
/// decide.
pub fn map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = queue[i].lock().unwrap().take().expect("each item is claimed once");
                let out = f(item);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().unwrap().expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..100).collect();
        let serial = map(1, items.clone(), |x| x * x);
        let parallel = map(7, items, |x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[99], 99 * 99);
    }

    #[test]
    fn map_handles_fewer_items_than_threads() {
        assert_eq!(map(16, vec![1, 2], |x| x + 1), vec![2, 3]);
        assert_eq!(map(16, Vec::<u64>::new(), |x| x), Vec::<u64>::new());
    }

    #[test]
    fn map_with_zero_threads_auto_detects() {
        // `0` = available parallelism; correctness must not depend on the
        // machine, only the schedule does.
        let items: Vec<u64> = (0..32).collect();
        assert_eq!(map(0, items.clone(), |x| x * 3), map(1, items, |x| x * 3));
    }

    #[test]
    fn resolve_threads_is_literal_except_zero() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
        assert!(resolve_threads(0) >= 1);
    }
}
