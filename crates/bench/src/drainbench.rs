//! Batched-drain micro-benchmark: `EventQueue::pop_before` vs single-pop.
//!
//! The engine's run loops drain up to a horizon through the fused
//! [`openoptics_sim::EventQueue::pop_before`] primitive (one bucket lookup
//! per delivered event). The pre-batching
//! driver did the same work as a `peek_time` + `pop` pair — two traversals
//! of the calendar structure per event. This micro-benchmark runs an
//! identical windowed schedule-then-drain workload through both primitives
//! and reports their throughputs, written to `BENCH_engine.json` as
//! `drain_single_mevents_per_s` / `drain_batched_mevents_per_s`.
//!
//! Rounds are paired back to back with alternating order (the same
//! noise-rejection protocol as the telemetry-overhead bench): both sides
//! of a round see the same machine load, and the reported figures come
//! from the round with the best combined throughput, so a transient
//! stall cannot masquerade as a primitive-level difference.

use openoptics_sim::time::SimTime;
use openoptics_sim::EventQueue;
use std::hint::black_box;
use std::time::Instant;

/// Events per epoch window of the synthetic workload.
const PER_EPOCH: u64 = 4_096;
/// Epoch windows per measured pass.
const EPOCHS: u64 = 64;
/// Simulated window width, ns.
const WINDOW_NS: u64 = 1_000_000;

/// Schedule one epoch's worth of events into `q`: deterministic
/// pseudo-random offsets inside `[base, base + WINDOW_NS)`, a tail beyond
/// the window (the "future traffic" the drain must not touch), and a burst
/// of same-tick events (the sorted-insert fast path the engine leans on).
fn fill_epoch(q: &mut EventQueue<u64>, base: u64) {
    for i in 0..PER_EPOCH {
        let off = (i * 2654435761) % WINDOW_NS;
        let t = if i % 8 == 7 { base + WINDOW_NS + off } else { base + off };
        q.schedule(SimTime::from_ns(t), i);
    }
}

/// One windowed pass draining via the fused `pop_before`.
fn pass_batched() -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut acc = 0u64;
    let mut drained = 0u64;
    for e in 0..EPOCHS {
        let base = e * WINDOW_NS;
        fill_epoch(&mut q, base);
        let end = SimTime::from_ns(base + WINDOW_NS - 1);
        while let Some((at, v)) = q.pop_before(end) {
            acc = acc.wrapping_add(at.as_ns() ^ v);
            drained += 1;
        }
    }
    black_box(acc);
    drained
}

/// The same pass draining via `peek_time` + `pop` (the pre-batching shape:
/// two calendar traversals per delivered event).
fn pass_single() -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut acc = 0u64;
    let mut drained = 0u64;
    for e in 0..EPOCHS {
        let base = e * WINDOW_NS;
        fill_epoch(&mut q, base);
        let end = SimTime::from_ns(base + WINDOW_NS - 1);
        while let Some(t) = q.peek_time() {
            if t > end {
                break;
            }
            if let Some((at, v)) = q.pop() {
                acc = acc.wrapping_add(at.as_ns() ^ v);
                drained += 1;
            }
        }
    }
    black_box(acc);
    drained
}

/// Run the micro-benchmark; returns `(single, batched)` throughput in
/// Mevents/s.
pub fn run() -> (f64, f64) {
    // Warm both paths once (allocator, branch predictors).
    let a = pass_batched();
    let b = pass_single();
    assert_eq!(a, b, "both drain primitives must deliver the same events");
    let mut best: Option<(f64, f64)> = None;
    for round in 0..5 {
        let (single_s, batched_s) = if round % 2 == 0 {
            let t = Instant::now();
            let n1 = pass_single();
            let single_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let n2 = pass_batched();
            (single_s / n1 as f64, t.elapsed().as_secs_f64() / n2 as f64)
        } else {
            let t = Instant::now();
            let n2 = pass_batched();
            let batched_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let n1 = pass_single();
            (t.elapsed().as_secs_f64() / n1 as f64, batched_s / n2 as f64)
        };
        let keep = match best {
            None => true,
            Some((s, b)) => single_s + batched_s < s + b,
        };
        if keep {
            best = Some((single_s, batched_s));
        }
    }
    let (single_per_ev, batched_per_ev) = best.unwrap_or((f64::MAX, f64::MAX));
    (1.0 / single_per_ev / 1e6, 1.0 / batched_per_ev / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_primitives_agree_and_measure() {
        let (single, batched) = run();
        assert!(single > 0.0 && batched > 0.0);
    }
}
