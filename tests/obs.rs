//! Integration tests for the observability subsystem: causal lifecycle
//! spans recorded by a real simulation, deterministic Chrome-trace /
//! report exports, the disabled-mode error surface,
//! and the stage-tiling invariant (a delivered packet's stage durations
//! sum to its end-to-end latency).
//!
//! The compile-time zero-cost proof (`size_of::<Spans>() == 0`, no `Drop`
//! glue) lives in the `openoptics-obs` crate's own tests and runs with
//! `cargo test -p openoptics-obs --no-default-features`; here the obs
//! feature is on, so these tests cover the *runtime* contracts instead.

use openoptics::core::{Error, NetConfig, OpenOpticsNet, TransportKind};
use openoptics::obs::{build_forest, Spans, Stage};
use openoptics::proto::HostId;
use openoptics::routing::algos::Vlb;
use openoptics::routing::{LookupMode, MultipathMode};
use openoptics::sim::time::SimTime;
use openoptics::topo::round_robin;
use openoptics_bench as bench;
use proptest::prelude::*;

fn cfg(span_sample_every: u64) -> NetConfig {
    let mut c = NetConfig::builder()
        .node_num(4)
        .uplink(1)
        .slice_ns(20_000)
        .guard_ns(200)
        .build()
        .expect("valid test config");
    c.span_sample_every = span_sample_every;
    c
}

/// Build, load, and run one network with span recording; return it at
/// t = 5 ms.
fn run_one(cfg: NetConfig) -> OpenOpticsNet {
    let mut net = OpenOpticsNet::new(cfg.clone());
    let (circuits, slices) = round_robin(cfg.node_num, cfg.uplink);
    net.deploy_topo(&circuits, slices).unwrap();
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
        .expect("routing pairs with this schedule");
    for i in 0..4u32 {
        net.add_flow(
            SimTime::from_ns(50 + 37 * i as u64),
            HostId(i),
            HostId((i + 2) % 4),
            60_000,
            TransportKind::Tcp(Default::default()),
        );
    }
    net.run_for(SimTime::from_ms(5));
    net
}

#[test]
fn recorded_stream_is_well_formed() {
    // A real simulation's finalized span stream must reconstruct into a
    // forest: unique begin/end per span, parents recorded before children,
    // every parent covering its children.
    let net = run_one(cfg(1));
    let events = net.span_events();
    assert!(!events.is_empty(), "sampling every flow must record spans");
    let forest = build_forest(&events).expect("stream well-formed");
    // Roots are flow spans; every packet span sits under a flow.
    for (i, n) in forest.iter().enumerate() {
        if n.parent == 0 {
            assert_eq!(n.stage, Stage::Flow, "root span {i} is not a flow: {:?}", n.stage);
        }
        if n.stage == Stage::Packet {
            assert_eq!(forest[n.parent as usize - 1].stage, Stage::Flow);
        }
        for &c in &n.children {
            assert!(forest[c].begin >= n.begin && forest[c].end <= n.end);
        }
    }
}

#[test]
fn exports_are_deterministic_and_valid() {
    // Two identical runs export byte-identical Chrome traces and reports,
    // and the trace is structurally sound JSON (integer timestamps only —
    // no floats to drift across platforms).
    let a = run_one(cfg(2));
    let b = run_one(cfg(2));
    let trace = a.export_spans_chrome_trace().unwrap();
    assert_eq!(trace, b.export_spans_chrome_trace().unwrap());
    assert_eq!(a.export_span_report().unwrap(), b.export_span_report().unwrap());
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.ends_with("],\"displayTimeUnit\":\"ns\"}"));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(!trace.contains('.'), "trace timestamps must be integers");
    // The profiler report rides the same determinism contract.
    assert_eq!(a.profiler_report().unwrap(), b.profiler_report().unwrap());
}

#[test]
fn chrome_trace_is_byte_identical_across_worker_counts() {
    // The fig8a artifact path: the same span capture through the parallel
    // experiment runner at --jobs 1 and --jobs 4 must produce identical
    // bytes (spans are stamped in sim time only and collected in index
    // order, never in completion order).
    bench::par::set_jobs(1);
    let (_, serial) = bench::fig8::run_mice_with_spans(2, 4, false);
    bench::par::set_jobs(4);
    let (_, parallel) = bench::fig8::run_mice_with_spans(2, 4, false);
    bench::par::set_jobs(1);
    let serial = serial.expect("span capture present");
    let parallel = parallel.expect("span capture present");
    assert!(!serial.chrome_trace.is_empty());
    assert_eq!(serial.chrome_trace, parallel.chrome_trace, "chrome trace differs across --jobs");
    assert_eq!(serial.report, parallel.report, "span report differs across --jobs");
}

#[test]
fn disabled_spans_record_nothing_and_exports_error() {
    // span_sample_every = 0 (the default): no samples, no memory, and the
    // export surface reports Disabled instead of an empty file.
    let net = run_one(cfg(0));
    assert!(net.span_events().is_empty());
    assert!(matches!(net.export_spans_chrome_trace(), Err(Error::Obs(_))));
    assert!(matches!(net.export_span_report(), Err(Error::Obs(_))));
    // A detached handle is inert no matter what is thrown at it.
    let s = Spans::detached();
    let id = s.span_begin(SimTime::from_ns(5), 0, 1, 1, Stage::Packet, 0);
    s.span_end(SimTime::from_ns(9), id, Stage::Packet);
    assert!(!s.is_on());
    assert!(s.finalized_events(SimTime::from_ns(10)).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stage tiling: for every *delivered* packet of a sampled flow, the
    /// stage spans exactly tile the packet span, so their durations sum to
    /// the packet's end-to-end latency. Holds for arbitrary workload
    /// shapes, seeds, and sampling strides.
    #[test]
    fn stage_durations_sum_to_end_to_end_latency(
        seed in 0u64..500,
        sample_every in 1u64..4,
        flow_bytes in 20_000u64..120_000,
    ) {
        let mut c = cfg(sample_every);
        c.seed = seed;
        let mut net = OpenOpticsNet::new(c.clone());
        let (circuits, slices) = round_robin(c.node_num, c.uplink);
        net.deploy_topo(&circuits, slices).unwrap();
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket).expect("routing pairs with this schedule");
        for i in 0..4u32 {
            net.add_flow(
                SimTime::from_ns(50 + 41 * i as u64),
                HostId(i),
                HostId((i + 1) % 4),
                flow_bytes,
                TransportKind::Tcp(Default::default()),
            );
        }
        net.run_for(SimTime::from_ms(5));
        let events = net.span_events();
        let forest = build_forest(&events).expect("stream well-formed");
        let mut delivered = 0usize;
        for i in 0..forest.len() {
            let n = &forest[i];
            if n.stage != Stage::Packet {
                continue;
            }
            let kids: Vec<Stage> = n.children.iter().map(|&ch| forest[ch].stage).collect();
            // Only packets that completed delivery tile exactly; dropped
            // packets end at the drop point with their last stage open.
            if !kids.contains(&Stage::TcpDelivery)
                || kids.iter().any(|s| matches!(s, Stage::Drop | Stage::FaultDrop))
            {
                continue;
            }
            delivered += 1;
            let (sum, e2e) = openoptics::obs::stage_sum_vs_span(&forest, i)
                .expect("packet node");
            prop_assert_eq!(
                sum, e2e,
                "packet span {} [{} .. {}]: stage sum {} != end-to-end {}",
                n.span, n.begin.as_ns(), n.end.as_ns(), sum, e2e
            );
        }
        prop_assert!(delivered > 0, "workload must deliver at least one sampled packet");
    }
}
