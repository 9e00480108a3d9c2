//! Micro-benchmarks of the data-plane and control-plane hot paths:
//! event-queue churn (calendar vs binary-heap baseline), FxHash vs SipHash
//! map lookups, time-flow-table lookup, calendar-queue operations, EQO
//! refresh, time-expanded routing, circuit-scheduling algorithms, and
//! schedule construction at the paper's 108-ToR scale.
//!
//! Uses a small self-contained harness (the build environment is offline,
//! so Criterion is unavailable): each benchmark is calibrated to ~100 ms
//! per sample, the best of several samples is reported, and results print
//! as one aligned row per benchmark.
//!
//! ```text
//! cargo bench -p openoptics-bench --bench micro
//! ```

use openoptics_fabric::OpticalSchedule;
use openoptics_proto::{HostId, NodeId, Packet, PortId};
use openoptics_routing::algos::{Hoho, Ucmp, Vlb};
use openoptics_routing::{compile, LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::rate::Bandwidth;
use openoptics_sim::time::{SimTime, SliceConfig};
use openoptics_sim::EventQueue;
use openoptics_switch::{CalendarPort, Eqo, TimeFlowTable};
use openoptics_topo::bvn::bvn_decompose;
use openoptics_topo::matching::{max_weight_assignment, max_weight_pairs};
use openoptics_topo::round_robin::round_robin;
use openoptics_topo::TrafficMatrix;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Time `f` and report the best per-iteration cost over a few samples.
/// Returns ns/iter so callers can derive speedup ratios.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    // Warm up and calibrate the iteration count to ~100 ms per sample.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 20 || iters >= 1 << 30 {
            let per_iter = dt.as_nanos().max(1) as u64 / iters;
            iters = (100_000_000 / per_iter.max(1)).clamp(1, 1 << 30);
            break;
        }
        iters *= 4;
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    let ops = 1e9 / best;
    println!("{name:<40} {best:>12.1} ns/iter {ops:>14.0} ops/s");
    best
}

/// The baseline event queue this crate used before the calendar rewrite:
/// a `BinaryHeap` with the inverted `(time, seq)` ordering. Kept here (not
/// in the library) purely as the comparison point for the churn benchmark.
struct HeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }
    fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

/// Hold-and-churn: with `pending` events outstanding, pop the earliest and
/// reschedule a successor a short pseudo-random delay later — the steady
/// state of a running engine. Offsets mimic the real mix: mostly
/// packet-scale (sub-µs), some slice-scale, occasional watchdog-scale.
fn churn_offset(i: u64) -> u64 {
    match i % 16 {
        0..=10 => 115 + (i * 37) % 900,          // packet serialization scale
        11..=14 => 50_000 + (i * 7919) % 50_000, // slice scale
        _ => 10_000_000,                         // watchdog scale
    }
}

fn bench_event_queue_churn() {
    const PENDING: u64 = 4_096;
    let calendar = {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut i = 0u64;
        for _ in 0..PENDING {
            i += 1;
            q.schedule(SimTime::ZERO + churn_offset(i), i);
        }
        bench("event_queue_churn_calendar", move || {
            let (now, _) = q.pop().expect("queue never drains");
            i += 1;
            q.schedule(now + churn_offset(i), i);
        })
    };
    let heap = {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        let mut i = 0u64;
        for _ in 0..PENDING {
            i += 1;
            q.schedule(SimTime::ZERO + churn_offset(i), i);
        }
        bench("event_queue_churn_binary_heap", move || {
            let (now, _) = q.pop().expect("queue never drains");
            i += 1;
            q.schedule(now + churn_offset(i), i);
        })
    };
    println!("{:<40} {:>12.2}x vs binary heap", "-> calendar speedup", heap / calendar);
}

fn bench_hashers() {
    const KEYS: u64 = 16_384;
    let sip = {
        let mut m: HashMap<u64, u64> = HashMap::new();
        for k in 0..KEYS {
            m.insert(k * 2_654_435_761, k);
        }
        let mut i = 0u64;
        bench("map_lookup_siphash_16k", move || {
            i = (i + 1) % KEYS;
            *m.get(&(i * 2_654_435_761)).expect("present")
        })
    };
    let fx = {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..KEYS {
            m.insert(k * 2_654_435_761, k);
        }
        let mut i = 0u64;
        bench("map_lookup_fxhash_16k", move || {
            i = (i + 1) % KEYS;
            *m.get(&(i * 2_654_435_761)).expect("present")
        })
    };
    println!("{:<40} {:>12.2}x vs siphash", "-> fxhash speedup", sip / fx);
}

fn sched_108() -> OpticalSchedule {
    let (circuits, slices) = round_robin(108, 6);
    OpticalSchedule::build(SliceConfig::new(2_000, slices, 200), 108, 6, &circuits).unwrap()
}

fn bench_schedule_build() {
    let (circuits, slices) = round_robin(108, 6);
    bench("schedule_build_108tor_6up", || {
        OpticalSchedule::build(SliceConfig::new(2_000, slices, 200), 108, 6, black_box(&circuits))
            .unwrap()
    });
}

fn bench_tft_lookup() {
    // Populate a full 108-ToR table via VLB compilation for one source.
    let s = sched_108();
    let mut tft = TimeFlowTable::new();
    for dst in 1..108u32 {
        for arr in 0..s.slice_config().num_slices {
            let paths = Vlb.paths(&s, NodeId(0), NodeId(dst), Some(arr));
            for e in compile(&paths, LookupMode::PerHop, MultipathMode::PerPacket) {
                if e.node == NodeId(0) {
                    tft.install(e);
                }
            }
        }
    }
    let pkt =
        Packet::data(1, 7, NodeId(0), NodeId(55), HostId(0), HostId(5), 1436, 0, SimTime::ZERO);
    let mut arr = 0u32;
    bench("tft_lookup_full_table", move || {
        arr = (arr + 1) % 107;
        black_box(tft.lookup(black_box(&pkt), arr).map(|a| a.port))
    });
}

fn bench_calendar_port() {
    let mut cp: CalendarPort<u64> = CalendarPort::new(32, 8 * 1024 * 1024);
    bench("calendar_enqueue_pop_rotate", move || {
        cp.enqueue(black_box(3), 1500, 42).ok();
        cp.rotate();
        cp.rotate();
        cp.rotate();
        black_box(cp.pop_active());
    });
}

fn bench_eqo() {
    let mut eqo = Eqo::new(6, 32, 50, Bandwidth::gbps(100));
    let active = [0usize; 6];
    let mut t = 0u64;
    bench("eqo_refresh_6port_32q", move || {
        t += 120;
        eqo.on_enqueue(0, 0, 1500);
        eqo.refresh(SimTime::from_ns(t), black_box(&active));
        black_box(eqo.estimate(0, 0))
    });
}

fn bench_routing() {
    let s = sched_108();
    bench("vlb_paths_108tor", || black_box(Vlb.paths(&s, NodeId(0), NodeId(55), Some(3))));
    bench("ucmp_paths_108tor", || {
        black_box(Ucmp::default().paths(&s, NodeId(0), NodeId(55), Some(3)))
    });
    bench("hoho_paths_108tor", || {
        black_box(Hoho::default().paths(&s, NodeId(0), NodeId(55), Some(3)))
    });
}

fn bench_matching() {
    let mut tm = TrafficMatrix::zeros(64);
    for i in 0..64u32 {
        for j in 0..64u32 {
            if i != j {
                tm.set(NodeId(i), NodeId(j), ((i * 31 + j * 17) % 97) as f64);
            }
        }
    }
    bench("hungarian_64", || black_box(max_weight_assignment(&tm)));
    bench("pairing_64", || black_box(max_weight_pairs(&tm)));
    let mut small = TrafficMatrix::zeros(16);
    for i in 0..16u32 {
        for j in 0..16u32 {
            if i != j {
                small.set(NodeId(i), NodeId(j), ((i * 7 + j * 13) % 23 + 1) as f64);
            }
        }
    }
    bench("bvn_decompose_16", || black_box(bvn_decompose(&small, 64, 1e-9)));
}

fn bench_port_compile() {
    let s = sched_108();
    bench("compile_vlb_one_pair_all_slices", || {
        let mut total = 0usize;
        for arr in 0..s.slice_config().num_slices {
            let paths = Vlb.paths(&s, NodeId(0), NodeId(55), Some(arr));
            total += compile(&paths, LookupMode::PerHop, MultipathMode::PerPacket).len();
        }
        black_box(total)
    });
    // Keep PortId referenced so the import list stays honest.
    black_box(PortId(0));
}

fn bench_engine_end_to_end() {
    use openoptics_core::{Architecture, NetConfig, OpenOpticsNet, TransportKind};
    bench("engine_rotornet_1ms_8tor", || {
        let cfg = NetConfig {
            node_num: 8,
            uplink: 1,
            slice_ns: 50_000,
            sync_err_ns: 0,
            ..Default::default()
        };
        let mut net =
            OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()).expect("rotornet deploys");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 100_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(1));
        black_box(net.fct().completed().len())
    });
}

fn main() {
    println!("{:<40} {:>20} {:>20}", "benchmark", "time", "throughput");
    bench_event_queue_churn();
    bench_hashers();
    bench_engine_end_to_end();
    bench_schedule_build();
    bench_tft_lookup();
    bench_calendar_port();
    bench_eqo();
    bench_routing();
    bench_matching();
    bench_port_compile();
}
