//! Case II (§6): troubleshooting transport performance on optical DCNs.
//!
//! Reproduces the paper's debugging session: iperf-style TCP over RotorNet
//! shows packet reordering collapsing throughput under VLB and hybrid
//! operation; raising the duplicate-ACK threshold from 3 to 5 recovers the
//! hybrid case.
//!
//! ```text
//! cargo run --release --example transport_tuning
//! ```

use openoptics::prelude::*;

fn cfg() -> NetConfig {
    NetConfig::builder()
        .node_num(8)
        .uplink(4) // direct circuits up ~4/7 of the time
        .host_link_gbps(40) // the testbed's CPU bound
        .slice_ns(100_000)
        .guard_ns(1_000)
        .build()
        .expect("valid config")
}

fn run(name: &str, mut net: OpenOpticsNet, dupack: u32) {
    let tcp = TcpConfig { dupack_threshold: dupack, ..Default::default() };
    net.add_flow(
        SimTime::from_ns(100),
        HostId(0),
        HostId(4),
        u64::MAX / 4,
        TransportKind::Tcp(tcp),
    );
    let ms = 30;
    net.run_for(SimTime::from_ms(ms));
    let gbps = net.engine.flow_delivered(1) as f64 * 8.0 / (ms as f64 / 1e3) / 1e9;
    let reorder = net.engine.flow_reorder_events(1);
    let (frx, rto) = net.engine.flow_tcp_stats(1);
    println!(
        "{name:<18} dupack={dupack}  {gbps:>6.1} Gbps   reordering events: {reorder:<6} fast-rtx: {frx:<5} RTO: {rto}"
    );
}

fn run_tdtcp(name: &str, mut net: openoptics::core::OpenOpticsNet) {
    let tcp = TcpConfig::default(); // dupack threshold left at 3 on purpose
    net.add_flow(
        SimTime::from_ns(100),
        HostId(0),
        HostId(4),
        u64::MAX / 4,
        TransportKind::TdTcp(tcp),
    );
    let ms = 30;
    net.run_for(SimTime::from_ms(ms));
    let gbps = net.engine.flow_delivered(1) as f64 * 8.0 / (ms as f64 / 1e3) / 1e9;
    let reorder = net.engine.flow_reorder_events(1);
    let (frx, rto) = net.engine.flow_tcp_stats(1);
    println!(
        "{name:<18} dupack=3  {gbps:>6.1} Gbps   reordering events: {reorder:<6} fast-rtx: {frx:<5} RTO: {rto}"
    );
}

fn main() {
    println!("iperf TCP over optical DCNs (paper Fig. 9)\n");
    for dupack in [3u32, 5] {
        run(
            "clos",
            OpenOpticsNet::deploy_preset(cfg(), Architecture::clos()).expect("clos deploys"),
            dupack,
        );

        let mut direct_cfg = cfg();
        direct_cfg.congestion_policy = "wait".to_string();
        let direct = OpenOpticsNet::deploy(
            direct_cfg,
            Architecture::rotornet().with_pause(PauseMode::DirectCircuit),
            Box::new(Direct),
            LookupMode::PerHop,
            MultipathMode::None,
        )
        .expect("rotornet-direct deploys");
        run("rotornet-direct", direct, dupack);

        run(
            "rotornet-vlb",
            OpenOpticsNet::deploy(
                cfg(),
                Architecture::rotornet(),
                Box::new(Vlb),
                LookupMode::PerHop,
                MultipathMode::PerPacket,
            )
            .expect("rotornet deploys"),
            dupack,
        );

        let mut hybrid_cfg = cfg();
        hybrid_cfg.electrical_gbps = 10;
        hybrid_cfg.congestion_policy = "wait".to_string();
        let hybrid = OpenOpticsNet::deploy(
            hybrid_cfg,
            Architecture::rotornet().with_dispatch(DispatchPolicy::HybridDirect),
            Box::new(Direct),
            LookupMode::PerHop,
            MultipathMode::None,
        )
        .expect("rotornet-hybrid deploys");
        run("rotornet-hybrid", hybrid, dupack);
        println!();
    }
    println!("The hybrid's reordering comes from the latency gap between the two");
    println!("fabrics; dupack=5 suppresses the spurious fast retransmits (§6 Case II).\n");

    // The step beyond parameter tuning: a reconfiguration-aware transport.
    let mut hybrid_cfg = cfg();
    hybrid_cfg.electrical_gbps = 10;
    hybrid_cfg.congestion_policy = "wait".to_string();
    let td = OpenOpticsNet::deploy(
        hybrid_cfg,
        Architecture::rotornet().with_dispatch(DispatchPolicy::HybridDirect),
        Box::new(Direct),
        LookupMode::PerHop,
        MultipathMode::None,
    )
    .expect("rotornet-hybrid deploys");
    run_tdtcp("hybrid-tdtcp", td);
    println!("TDTCP's per-topology congestion state + post-switch reordering grace");
    println!("recovers the hybrid's throughput without touching the dupack threshold —");
    println!("the kind of newly designed protocol the framework exists to evaluate.");
}
