//! Case I (§6): side-by-side architecture comparison.
//!
//! Runs the paper's memcached workload (one server, seven Memslap-style
//! clients doing 4.2 KB SETs) over four architectures — Clos, c-Through,
//! RotorNet, and Opera — and prints the mice-flow FCT percentiles, the
//! comparison OpenOptics makes possible on a single framework.
//!
//! ```text
//! cargo run --release --example architecture_comparison
//! ```

use openoptics::prelude::*;

fn cfg() -> NetConfig {
    NetConfig::builder()
        .node_num(8)
        .uplink(1)
        .hosts_per_node(1)
        .slice_ns(100_000)
        .guard_ns(1_000)
        .build()
        .expect("valid config")
}

/// Demand matrix the TA controllers see: clients toward the server's ToR.
fn memcached_tm() -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(8);
    for i in 1..8u32 {
        tm.set(NodeId(i), NodeId(0), 1_000.0);
        tm.set(NodeId(0), NodeId(i), 100.0);
    }
    tm
}

fn main() {
    let nets: Vec<(&str, OpenOpticsNet)> = vec![
        ("clos", OpenOpticsNet::deploy_preset(cfg(), Architecture::clos()).expect("clos deploys")),
        (
            "c-through",
            OpenOpticsNet::deploy_preset(cfg(), Architecture::cthrough(&memcached_tm()))
                .expect("c-through deploys"),
        ),
        (
            "rotornet",
            OpenOpticsNet::deploy_preset(cfg(), Architecture::rotornet())
                .expect("rotornet deploys"),
        ),
        (
            "opera",
            OpenOpticsNet::deploy_preset(cfg(), Architecture::opera()).expect("opera deploys"),
        ),
    ];

    println!("{:<12} {:>10} {:>10} {:>10} {:>8}", "arch", "p50", "p90", "p99", "ops");
    for (name, mut net) in nets {
        let stop = SimTime::from_ms(30);
        let clients = (1..8).map(HostId).collect();
        net.add_memcached(MemcachedParams::paper(), HostId(0), clients, stop);
        net.run_for(SimTime::from_ms(35));
        let v = net.fct().mice_fcts();
        let p = |q: f64| {
            FctStats::percentile(&v, q)
                .map(|x| format!("{:.1}us", x as f64 / 1e3))
                .unwrap_or_else(|| "-".into())
        };
        println!("{:<12} {:>10} {:>10} {:>10} {:>8}", name, p(50.0), p(90.0), p(99.0), v.len());
    }
    println!("\nExpected shape (paper Fig. 8a): c-Through tracks Clos (mice ride the");
    println!("electrical fabric); RotorNet-VLB shows the long circuit-waiting tail;");
    println!("Opera stays low via always-available multi-hop paths.");
}
