//! Deterministic parallel fan-out for independent simulation points.
//!
//! Every experiment sweep in this crate is embarrassingly parallel: each
//! point builds its own network (with its own seeded RNG), runs it, and
//! reduces to a row. [`par_map`] fans those points out over a
//! [`std::thread::scope`] worker pool and returns results **in index
//! order**, so rendered tables are byte-identical at any worker count —
//! `--jobs 1` runs the points inline in order, exactly the old serial
//! behavior.
//!
//! The module also aggregates engine throughput: runners report each
//! network's `events_scheduled()` here, and the binary drains the counter
//! per experiment to print events/second and write `BENCH_engine.json`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configured worker count; 0 = not set, use available parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Events scheduled across all networks since the last [`take_events`].
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Set the worker count (the `--jobs` flag).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Release);
}

/// The effective worker count: the configured value, or available
/// parallelism when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Acquire) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Telemetry counter totals merged across all networks since the last
/// [`take_metrics`], keyed by base metric name (labels folded).
static METRICS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Record simulation work done (a network's `events_scheduled()` total).
pub fn note_events(n: u64) {
    EVENTS.fetch_add(n, Ordering::AcqRel);
}

/// Drain the event counter (called by the binary between experiments).
pub fn take_events() -> u64 {
    EVENTS.swap(0, Ordering::AcqRel)
}

/// Report a finished network: its scheduled-event total plus its telemetry
/// counters, merged (by saturating sum) into the experiment-wide totals.
/// Summing is commutative, so the merged result is identical at any
/// `--jobs` count regardless of completion order.
pub fn note_net(net: &openoptics_core::OpenOpticsNet) {
    note_events(net.events_scheduled());
    if net.telemetry().is_enabled() {
        let totals = net.telemetry_snapshot().counter_totals();
        let mut m = METRICS.lock().expect("metrics lock poisoned");
        for (name, v) in totals {
            let t = m.entry(name).or_insert(0);
            *t = t.saturating_add(v);
        }
    }
}

/// Drain the merged telemetry totals (called between experiments).
pub fn take_metrics() -> BTreeMap<String, u64> {
    std::mem::take(&mut *METRICS.lock().expect("metrics lock poisoned"))
}

/// Map `f` over `0..n`, fanning out across [`jobs`] scoped workers, and
/// return the results in index order. With one worker the points run
/// inline, in order, on the calling thread — identical to a serial loop.
/// `f` must be self-contained per index (build, run, and reduce one
/// simulation point); a panic in any point propagates.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = jobs().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::AcqRel);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("worker completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        set_jobs(4);
        let out = par_map(33, |i| i * i);
        assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        set_jobs(1);
        let serial = par_map(33, |i| i * i);
        assert_eq!(out, serial);
    }

    #[test]
    fn handles_empty_and_single() {
        set_jobs(8);
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn event_counter_accumulates_and_drains() {
        take_events();
        note_events(5);
        note_events(7);
        assert_eq!(take_events(), 12);
        assert_eq!(take_events(), 0);
    }
}
