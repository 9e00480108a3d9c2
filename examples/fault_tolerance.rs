//! Fault tolerance: a link failure mid-run, the reroute around it, and the
//! recovery once the link comes back.
//!
//! Builds an 8-node RotorNet with two uplinks per node, starts a transfer,
//! then kills one uplink of the source's ToR for a 5 ms window. While the
//! link is dark the routing layer recompiles paths against the masked
//! time-expanded graph (the flow keeps moving on the surviving uplink);
//! packets already queued behind the dead port drain-and-drop and are
//! charged to the fault. When the window closes the full schedule is
//! restored.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use openoptics::prelude::*;

fn main() -> Result<(), Error> {
    let cfg = NetConfig::builder()
        .node_num(8)
        .uplink(2)
        .slice_ns(10_000)
        .guard_ns(200)
        .sync_err_ns(0)
        .uplink_gbps(25)
        .seed(7)
        .build()?;
    let mut net = OpenOpticsNet::new(cfg.clone());
    let (circuits, num_slices) = round_robin(cfg.node_num, cfg.uplink);
    net.deploy_topo(&circuits, num_slices)?;
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)?;

    // The fault campaign: ToR 0 loses uplink 0 from t=50 µs to t=5 ms.
    // Plans are validated like configs — malformed windows or targets
    // outside the network are rejected through `openoptics::core::Error`.
    let plan = FaultPlan::builder().link_down(NodeId(0), PortId(0), 50_000, 5_000_000).build()?;
    net.inject_faults(&plan)?;

    // A 4 MB transfer that is mid-flight when the link dies.
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 4_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(80));

    let report = net.fault_report();
    let rec = net.fct().completed().first().expect("flow completed despite the fault");
    println!("fault tolerance: link down on ToR 0 / uplink 0, 50 us .. 5 ms");
    println!("  flow completion       {:>9} us", rec.fct_ns() / 1_000);
    println!("  delivered packets     {:>9}", report.delivered);
    println!("  fault-dropped packets {:>9}", report.dropped);
    println!("  reroutes              {:>9}", report.rerouted);
    println!("  retransmitted         {:>9}", report.retransmitted);

    // The same numbers come out of the telemetry snapshot.
    let snap = net.telemetry_snapshot();
    assert_eq!(snap.counter("faults.dropped"), report.dropped);
    assert_eq!(snap.counter("engine.fault_drops"), report.dropped + report.corrupted);
    Ok(())
}
