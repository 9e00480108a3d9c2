//! Cross-crate property tests: schedule/routing/data-plane invariants that
//! must hold for arbitrary configurations, not just the curated examples.

use openoptics::fabric::OpticalSchedule;
use openoptics::proto::NodeId;
use openoptics::routing::algos::{Direct, Hoho, Ucmp, Vlb};
use openoptics::routing::{compile, LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics::sim::time::SliceConfig;
use openoptics::topo::round_robin;
use proptest::prelude::*;

fn rr_schedule(n: u32, uplinks: u16) -> OpticalSchedule {
    let (circuits, slices) = round_robin(n, uplinks);
    OpticalSchedule::build(SliceConfig::new(10_000, slices, 500), n, uplinks, &circuits)
        .expect("round robin always deploys")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every round-robin schedule is a valid matching per slice and covers
    /// all pairs over the cycle.
    #[test]
    fn round_robin_schedules_always_valid(n in 3u32..24, u in 1u16..4) {
        let s = rr_schedule(n, u);
        prop_assert!(s.cycle_covers_all_pairs());
        for ts in 0..s.slice_config().num_slices {
            for node in 0..n {
                // Degree never exceeds the uplink count.
                prop_assert!(s.neighbors(NodeId(node), ts).len() <= u as usize);
            }
        }
    }

    /// Paths produced by every TO routing scheme validate against the
    /// schedule they were computed for, at any (src, dst, arrival slice).
    #[test]
    fn to_routing_paths_always_validate(
        n in 4u32..16,
        u in 1u16..3,
        src in 0u32..16,
        dst in 0u32..16,
        arr_seed in 0u32..64,
    ) {
        let src = src % n;
        let dst = dst % n;
        prop_assume!(src != dst);
        let s = rr_schedule(n, u);
        let arr = arr_seed % s.slice_config().num_slices;
        let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
            Box::new(Direct),
            Box::new(Vlb),
            Box::new(Ucmp::default()),
            Box::new(Hoho::default()),
        ];
        for algo in &algos {
            let paths = algo.paths(&s, NodeId(src), NodeId(dst), Some(arr));
            prop_assert!(!paths.is_empty(), "{} found no path", algo.name());
            for p in &paths {
                prop_assert!(
                    p.validate(&s).is_ok(),
                    "{}: invalid path {:?}", algo.name(), p
                );
            }
        }
    }

    /// HOHO (the earliest-arrival optimum) never waits longer than the
    /// direct path, which never waits longer than a full cycle.
    #[test]
    fn hoho_dominates_direct(
        n in 4u32..16,
        src in 0u32..16,
        dst in 0u32..16,
        arr_seed in 0u32..64,
    ) {
        let src = src % n;
        let dst = dst % n;
        prop_assume!(src != dst);
        let s = rr_schedule(n, 1);
        let arr = arr_seed % s.slice_config().num_slices;
        let d = Direct.paths(&s, NodeId(src), NodeId(dst), Some(arr));
        let h = Hoho::default().paths(&s, NodeId(src), NodeId(dst), Some(arr));
        let dw = d[0].slices_waited(&s);
        let hw = h[0].slices_waited(&s);
        prop_assert!(hw <= dw, "hoho waited {hw} > direct {dw}");
        prop_assert!(dw < s.slice_config().num_slices);
    }

    /// Per-hop compilation and source-route compilation of the same path
    /// replay to the same hop sequence.
    #[test]
    fn compile_modes_agree(
        n in 4u32..12,
        src in 0u32..12,
        dst in 0u32..12,
        arr_seed in 0u32..32,
    ) {
        let src = src % n;
        let dst = dst % n;
        prop_assume!(src != dst);
        let s = rr_schedule(n, 1);
        let arr = arr_seed % s.slice_config().num_slices;
        let paths = Hoho::default().paths(&s, NodeId(src), NodeId(dst), Some(arr));
        let hop_entries = compile(&paths, LookupMode::PerHop, MultipathMode::None);
        let sr_entries = compile(&paths, LookupMode::SourceRouting, MultipathMode::None);
        // Source routing: exactly one entry at the source.
        prop_assert_eq!(sr_entries.len(), 1);
        prop_assert_eq!(sr_entries[0].node, NodeId(src));
        let stack = sr_entries[0].actions[0].0.push_source_route.as_ref().unwrap();
        prop_assert_eq!(stack.len(), paths[0].hops.len());
        // The per-hop entries, walked in path order, match the stack.
        let mut at = NodeId(src);
        let mut arr_here = Some(arr);
        for (i, hop) in stack.iter().enumerate() {
            let e = hop_entries
                .iter()
                .find(|e| e.node == at && e.m.arr_slice == arr_here && e.m.dst == NodeId(dst))
                .unwrap_or_else(|| panic!("no per-hop entry at hop {i}"));
            let a = &e.actions[0].0;
            prop_assert_eq!(a.port, hop.port);
            prop_assert_eq!(a.dep_slice, hop.dep_slice);
            let (peer, _) = s
                .peer(at, hop.port, hop.dep_slice.expect("TO hop"))
                .expect("validated path hop rides a lit circuit");
            at = peer;
            arr_here = hop.dep_slice;
        }
        prop_assert_eq!(at, NodeId(dst));
    }

    /// Randomized quick-mode end-to-end runs. The assertion payload lives
    /// inside the engine: under `--features strict-invariants` every pop,
    /// rotation, and transmit re-checks the queue-conservation, pause-ring,
    /// and guardband-containment invariants, so merely completing the run
    /// proves none fired across the sampled configurations.
    #[test]
    fn random_quick_configs_run_clean(
        n in 4u32..9,
        slice_us in 1u64..4,
        guard_ns in 1u64..3,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
    ) {
        use openoptics::prelude::*;
        let cfg = NetConfig::builder()
            .node_num(n)
            .uplink(1)
            .hosts_per_node(1)
            .slice_ns(slice_us * 50_000)
            .guard_ns(guard_ns * 500)
            .seed(seed)
            .build()
            .expect("sampled config is valid");
        let mut net = match arch_pick {
            0 => OpenOpticsNet::deploy_preset(cfg, Architecture::clos()),
            1 => OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()),
            _ => OpenOpticsNet::deploy_preset(cfg, Architecture::opera()),
        }
        .expect("sampled architecture deploys");
        let stop = SimTime::from_ms(2);
        let clients = (1..n).map(HostId).collect();
        net.add_memcached(MemcachedParams::paper(), HostId(0), clients, stop);
        net.run_for(SimTime::from_ms(3));
        prop_assert!(net.events_scheduled() > 0);
    }

    /// Pausing never changes a run: the same randomized quick-mode
    /// configuration — including a randomized fault plan — run to 3 ms in
    /// one `run_for` call and in a sampled number of equal steps must
    /// produce byte-identical telemetry, lifecycle spans, and fault
    /// reports. Control-plane `run_until`, checkpoint/restore and `fork`
    /// all rely on this.
    #[test]
    fn run_for_steps_never_change_exports(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
        fault_pick in 0u8..4,
        steps in 2u64..9,
    ) {
        use openoptics::prelude::*;
        let run = |steps: u64| -> Result<(String, String, String), Error> {
            let cfg = NetConfig::builder()
                .node_num(n)
                .uplink(1)
                .hosts_per_node(1)
                .slice_ns(slice_us * 50_000)
                .guard_ns(1_000)
                .span_sample_every(4)
                .seed(seed)
                .build()?;
            let mut net = match arch_pick {
                0 => OpenOpticsNet::deploy_preset(cfg, Architecture::clos()),
                1 => OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()),
                _ => OpenOpticsNet::deploy_preset(cfg, Architecture::opera()),
            }?;
            let plan = match fault_pick {
                0 => None,
                1 => Some(FaultPlan::builder().link_down(NodeId(1), PortId(0), 200_000, 900_000)),
                2 => Some(FaultPlan::builder().transceiver_flap(
                    NodeId(2),
                    PortId(0),
                    40,
                    100_000,
                    900_000,
                )),
                _ => Some(FaultPlan::builder().nic_pause_storm(NodeId(0), 300_000, 1_200_000)),
            }
            .map(FaultPlanBuilder::build)
            .transpose()?;
            if let Some(p) = &plan {
                net.inject_faults(p)?;
            }
            let stop = SimTime::from_ms(2);
            let clients = (1..n).map(HostId).collect();
            net.add_memcached(MemcachedParams::paper(), HostId(0), clients, stop);
            let total = SimTime::from_ms(3).as_ns();
            for _ in 0..steps {
                net.run_for(SimTime::from_ns(total / steps));
            }
            net.run_for(SimTime::from_ns(total % steps));
            assert_eq!(net.now().as_ns(), total);
            Ok((
                net.export_telemetry("json")?,
                net.export_spans_chrome_trace()?,
                format!("{:?}", net.fault_report()),
            ))
        };
        let whole = run(1)?;
        let stepped = run(steps)?;
        prop_assert_eq!(&stepped.0, &whole.0, "telemetry diverged in {} steps", steps);
        prop_assert_eq!(&stepped.1, &whole.1, "spans diverged in {} steps", steps);
        prop_assert_eq!(&stepped.2, &whole.2, "fault report diverged in {} steps", steps);
    }

    /// The wildcard reduction: a schedule of held circuits routes
    /// identically from every arrival slice.
    #[test]
    fn held_circuits_are_slice_invariant(n in 4u32..12, seed in 0u32..8) {
        use openoptics::fabric::Circuit;
        use openoptics::proto::PortId;
        // A held ring.
        let circuits: Vec<Circuit> = (0..n)
            .map(|i| Circuit::held(NodeId(i), PortId(1), NodeId((i + 1) % n), PortId(0)))
            .collect();
        let s = OpticalSchedule::build(SliceConfig::new(10_000, 4, 500), n, 2, &circuits)
            .expect("ring deploys");
        let src = NodeId(seed % n);
        let dst = NodeId((seed + 1 + seed % (n - 1)) % n);
        prop_assume!(src != dst);
        for ts in 0..4 {
            let a = s.port_to(src, dst, ts);
            let b = s.port_to(src, dst, 0);
            prop_assert_eq!(a, b, "held circuits must not vary by slice");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The quantile sketch's documented error bound holds for arbitrary
    /// streams: every reported quantile is >= the exact nearest-rank value
    /// and overestimates it by at most 1/16 (6.25%).
    #[test]
    fn sketch_quantiles_stay_within_the_documented_bound(
        values in proptest::collection::vec(0u64..(1u64 << 40), 1..400),
    ) {
        use openoptics::telemetry::QuantileSketch;
        let mut sk = QuantileSketch::new();
        for &v in &values {
            sk.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (numer, denom) in [(1u64, 2u64), (99, 100), (999, 1000)] {
            let rank = ((sorted.len() as u64 * numer).div_ceil(denom)).max(1) as usize;
            let exact = sorted[rank.min(sorted.len()) - 1];
            let got = sk.quantile(numer, denom);
            prop_assert!(got >= exact, "q{numer}/{denom}: {got} < exact {exact}");
            prop_assert!(
                (got as u128 - exact as u128) * 16 <= exact as u128,
                "q{numer}/{denom}: {got} overestimates exact {exact} by more than 1/16"
            );
        }
    }

    /// Merging per-shard sketches is exactly ingestion order-independence:
    /// however a stream is split across shards, the element-wise merge
    /// equals the single-stream sketch.
    #[test]
    fn sketch_merge_of_shards_equals_single_stream(
        values in proptest::collection::vec(0u64..u64::MAX, 0..300),
        shards in 1usize..6,
    ) {
        use openoptics::telemetry::QuantileSketch;
        let mut single = QuantileSketch::new();
        let mut parts = vec![QuantileSketch::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            single.record(v);
            parts[i % shards].record(v);
        }
        let mut merged = QuantileSketch::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &single);
        prop_assert_eq!(merged.p50(), single.p50());
        prop_assert_eq!(merged.p999(), single.p999());
    }
}
