//! Packet conservation: every packet a host transmits enters the engine's
//! packet slab once and leaves it once, delivered or dropped. Each scenario
//! stops offering traffic, runs until everything in flight has drained, and
//! must end with an empty slab — whatever the architecture, congestion
//! policy, offload setting or fault plan, and whichever drop site ate the
//! packets on the way. (Under `strict-invariants`, every `run_for` step
//! also checks that the live slots match the handles held.)

use openoptics::prelude::*;

type TestResult = Result<(), Box<dyn std::error::Error>>;

const NODES: u32 = 8;

fn cfg() -> NetConfig {
    NetConfig {
        node_num: NODES,
        uplink: 1,
        hosts_per_node: 1,
        slice_ns: 20_000,
        guard_ns: 200,
        sync_err_ns: 0,
        seed: 11,
        ..Default::default()
    }
}

/// One paced flow from every host to the host three ToRs over.
fn offer_ring(net: &mut OpenOpticsNet, bytes: u64) {
    for s in 0..NODES {
        let d = (s + 3) % NODES;
        net.add_flow(SimTime::from_ns(100), HostId(s), HostId(d), bytes, TransportKind::Paced);
    }
}

/// Run `ms` of simulated time — long past the last transmission — and
/// require that nothing is left in flight.
fn assert_drains(net: &mut OpenOpticsNet, ms: u64, what: &str) {
    net.run_for(SimTime::from_ms(ms));
    assert!(net.engine.counters.host_tx_packets > 0, "{what}: no traffic was offered");
    assert_eq!(
        net.engine.packets_in_flight(),
        0,
        "{what}: packets left in the slab after draining ({:?})",
        net.engine.counters
    );
}

#[test]
fn every_preset_drains_to_an_empty_slab() -> TestResult {
    let mut tm = TrafficMatrix::uniform(NODES as usize, 100.0);
    for i in 0..NODES {
        tm.set(NodeId(i), NodeId(i), 0.0);
    }
    let presets = [
        Architecture::clos(),
        Architecture::cthrough(&tm),
        Architecture::jupiter(),
        Architecture::mordia(&tm, NODES),
        Architecture::rotornet(),
        Architecture::opera(),
        Architecture::shale(3),
        Architecture::semi_oblivious(&tm, 3),
    ];
    for arch in presets {
        let name = arch.name();
        let mut net = OpenOpticsNet::deploy_preset(cfg(), arch)?;
        offer_ring(&mut net, 30_000);
        assert_drains(&mut net, 60, name);
        assert_eq!(net.fct().completed().len(), NODES as usize, "{name}: every flow completes");
    }
    Ok(())
}

#[test]
fn faulted_run_drains_to_an_empty_slab() -> TestResult {
    let mut net = OpenOpticsNet::new(cfg());
    let (circuits, slices) = round_robin(NODES, 1);
    net.deploy_topo(&circuits, slices)?;
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)?;
    let plan = FaultPlan::builder()
        .link_down(NodeId(2), PortId(0), 50_000, 5_000_000)
        .transceiver_flap(NodeId(5), PortId(0), 50, 0, 3_000_000)
        .build()?;
    net.inject_faults(&plan)?;
    offer_ring(&mut net, 1_000_000);
    assert_drains(&mut net, 120, "link_down + transceiver_flap");
    let report = net.fault_report();
    assert!(report.dropped > 0 && report.corrupted > 0, "both faults ate packets: {report:?}");
    assert_eq!(net.fct().completed().len(), NODES as usize, "every flow recovers");
    Ok(())
}

#[test]
fn congestion_policies_drain_to_an_empty_slab() -> TestResult {
    for policy in ["drop", "trim"] {
        let cfg = NetConfig {
            congestion_detection: true,
            congestion_threshold: 4_000,
            congestion_policy: policy.to_string(),
            ..cfg()
        };
        let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet())?;
        // Incast: every other host floods host 0.
        for s in 1..NODES {
            net.add_flow(
                SimTime::from_ns(100),
                HostId(s),
                HostId(0),
                300_000,
                TransportKind::Paced,
            );
        }
        assert_drains(&mut net, 150, policy);
        let c = net.engine.counters;
        match policy {
            "drop" => assert!(c.switch_drops > 0, "drop policy dropped nothing: {c:?}"),
            _ => assert!(c.trimmed_received > 0, "trim policy trimmed nothing: {c:?}"),
        }
    }
    Ok(())
}

#[test]
fn offloaded_run_drains_to_an_empty_slab() -> TestResult {
    let cfg = NetConfig { offload: true, offload_keep_ranks: 2, ..cfg() };
    let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet())?;
    offer_ring(&mut net, 200_000);
    assert_drains(&mut net, 60, "offload");
    let parked: u64 =
        (0..NODES).map(|n| net.engine.tor(NodeId(n)).offload_book.offloaded_packets).sum();
    assert!(parked > 0, "no packet was offloaded");
    assert_eq!(net.fct().completed().len(), NODES as usize);
    Ok(())
}

#[test]
fn no_route_drops_drain_to_an_empty_slab() -> TestResult {
    // A schedule but no routing scheme: every packet dies at its first
    // lookup. Without the watchdog nothing is re-sent, so the run quiesces.
    let mut net = OpenOpticsNet::new(cfg());
    let (circuits, slices) = round_robin(NODES, 1);
    net.deploy_topo(&circuits, slices)?;
    net.engine.watchdog_retransmit = false;
    offer_ring(&mut net, 20_000);
    assert_drains(&mut net, 30, "no route");
    assert!(net.engine.counters.no_route_drops > 0);
    Ok(())
}

#[test]
fn a_clone_taken_mid_flight_replays_identically() -> TestResult {
    // The slab is part of the engine, so a clone copies it together with
    // the queue and the calendars that hold its handles.
    let cfg = NetConfig { offload: true, offload_keep_ranks: 2, ..cfg() };
    let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet())?;
    offer_ring(&mut net, 200_000);
    net.run_for(SimTime::from_us(40));
    assert!(net.engine.packets_in_flight() > 0, "clone taken with nothing in flight");
    let mut fork = net.clone();
    for n in [&mut net, &mut fork] {
        n.run_for(SimTime::from_ms(60));
        assert_eq!(n.engine.packets_in_flight(), 0);
    }
    assert_eq!(net.export_telemetry("json")?, fork.export_telemetry("json")?);
    assert_eq!(format!("{:?}", net.fct().completed()), format!("{:?}", fork.fct().completed()));
    Ok(())
}
