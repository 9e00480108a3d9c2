//! Checkpoint save/restore micro-benchmark.
//!
//! Measures the three control-plane state operations on a warm mid-run
//! session: serializing a checkpoint document (`save`), rebuilding a
//! session from it by journal replay (`restore`), and the in-memory
//! `fork`. Written to `BENCH_engine.json` as `checkpoint_save_ms` /
//! `checkpoint_restore_ms` / `checkpoint_fork_ms` so `xtask bench-diff`
//! runs carry the figures without touching the frozen `experiments`
//! stdout.
//!
//! Restore is replay-based (O(simulated time)), so its figure is dominated
//! by re-running the scenario to the checkpoint instant — the documented
//! tradeoff against the O(state) fork (see DESIGN.md). The bench asserts
//! the restored session's export bundle is byte-identical to the donor's
//! before reporting, so a determinism regression fails the bench rather
//! than silently timing the wrong computation.

use openoptics_ctl::{Checkpoint, Op, Scenario, Session, TransportSpec};
use std::time::Instant;

/// The benched run: an 8-ToR rotornet under VLB with crossing elephants
/// and a fault window, checkpointed mid-fault — the worst realistic case
/// for replay (routing churn + retransmission state in flight).
const SCENARIO: &str = r#"{
    "version": 1,
    "description": "checkpoint micro-bench: 8-ToR rotornet, faulted",
    "config": { "node_num": 8, "slice_ns": 10000, "uplink_gbps": 25, "seed": 11 },
    "architecture": { "name": "rotornet" },
    "routing": { "algo": "vlb", "multipath": "per_packet" },
    "workloads": [
        { "kind": "flow", "at_ns": 100, "src": 0, "dst": 5, "bytes": 400000 },
        { "kind": "flow", "at_ns": 100, "src": 3, "dst": 6, "bytes": 400000 }
    ],
    "faults": [
        { "kind": "link_down", "node": 0, "port": 0, "start_ns": 50000, "end_ns": 900000 }
    ],
    "stop_ns": 2000000
}"#;

/// Sim time the donor session runs to before the checkpoint is taken, ns.
const CHECKPOINT_AT_NS: u64 = 1_000_000;

/// Build the donor session: run to mid-fault, journal one live mutation so
/// the replay path exercises more than `run_until`.
fn donor() -> Session {
    let scenario = Scenario::parse(SCENARIO).expect("bench scenario parses");
    let mut s = Session::new(scenario).expect("bench scenario deploys");
    s.run_until(CHECKPOINT_AT_NS / 2);
    s.apply(Op::AddFlow {
        at_ns: CHECKPOINT_AT_NS / 2 + 1_000,
        src: 1,
        dst: 7,
        bytes: 100_000,
        transport: TransportSpec::default(),
    })
    .expect("bench add_flow is valid");
    s.run_until(CHECKPOINT_AT_NS);
    s
}

/// One timed round; returns `(save_s, restore_s, fork_s)`.
fn round(s: &mut Session) -> (f64, f64, f64) {
    let t = Instant::now();
    let doc = s.checkpoint().to_json();
    let save_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ckpt = Checkpoint::parse(&doc).expect("bench checkpoint round-trips");
    let restored = Session::restore(ckpt).expect("bench checkpoint restores");
    let restore_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let branch = s.fork();
    let fork_s = t.elapsed().as_secs_f64();

    assert_eq!(
        restored.export_bundle(),
        s.export_bundle(),
        "restored session must be byte-identical to the donor"
    );
    assert_eq!(branch.now_ns(), s.now_ns());
    (save_s, restore_s, fork_s)
}

/// Run the micro-benchmark; returns `(save_ms, restore_ms, fork_ms)`, the
/// best (lowest) figures over a few rounds on one warm donor session.
pub fn run() -> (f64, f64, f64) {
    let mut s = donor();
    let mut best: Option<(f64, f64, f64)> = None;
    for _ in 0..3 {
        let (save_s, restore_s, fork_s) = round(&mut s);
        let keep = match best {
            None => true,
            Some((a, b, c)) => save_s + restore_s + fork_s < a + b + c,
        };
        if keep {
            best = Some((save_s, restore_s, fork_s));
        }
    }
    let (save_s, restore_s, fork_s) = best.expect("at least one round ran");
    (save_s * 1e3, restore_s * 1e3, fork_s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_bench_measures_and_agrees() {
        let (save_ms, restore_ms, fork_ms) = run();
        assert!(save_ms > 0.0 && restore_ms > 0.0 && fork_ms > 0.0);
    }
}
