//! `slo` — per-service SLO accounting under a fault window.
//!
//! The faulted Fig. 7 testbed with live sampling on: a closed-loop
//! memcached service with a declared latency SLO and a bulk-transfer
//! service with a looser one, both mid-flight when a `link_down` window
//! opens on the memcached clients' ToR. The table reports each service's
//! latency quantiles (from the deterministic fixed-bucket sketch), its
//! cumulative burn rate in per-mille of the error budget, and how many of
//! its bad completions landed inside fault windows — the
//! degradation-under-faults attribution view.
//!
//! Shape targets: the cache service stays within its objective overall
//! but attributes its bad completions to the fault window
//! (`bad_in_fault > 0`); the bulk transfers, squeezed behind the failed
//! port on the slowed 25 Gbps fabric, blow through their threshold and
//! breach. Every number is byte-identical at any `--jobs` count because the sketches, windows and samples live on the
//! simulation clock.

use crate::par;
use crate::util::{self, Table};
use openoptics_core::{
    Architecture, FaultPlan, OpenOpticsNet, SloSummary, SloTarget, TransportKind,
};
use openoptics_host::apps::MemcachedParams;
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_routing::algos::Vlb;
use openoptics_routing::{LookupMode, MultipathMode};
use openoptics_sim::time::SimTime;

/// Run the SLO scenario for `ms` simulated milliseconds, returning the
/// per-service summaries in declaration order plus the sampled-row count.
pub fn run(ms: u64) -> (Vec<SloSummary>, usize) {
    let mut cfg = util::testbed(10_000, 2);
    cfg.uplink_gbps = 25;
    cfg.sync_err_ns = 0;
    cfg.sample_every_ns = 100_000;
    let mut net = OpenOpticsNet::deploy(
        cfg,
        Architecture::rotornet(),
        Box::new(Vlb),
        LookupMode::PerHop,
        MultipathMode::PerPacket,
    )
    .expect("rotornet deploys");
    let cache = net.declare_service(
        "cache",
        Some(SloTarget { latency_ns: 100_000, objective_milli: 900, window_ns: 1_000_000 }),
    );
    let bulk = net.declare_service(
        "bulk",
        Some(SloTarget { latency_ns: 3_000_000, objective_milli: 500, window_ns: 1_000_000 }),
    );
    net.inject_faults(
        &FaultPlan::builder()
            .link_down(NodeId(0), PortId(0), 50_000, 2_000_000)
            .build()
            .expect("window is well-formed"),
    )
    .expect("plan targets the testbed");
    net.add_memcached_tagged(
        MemcachedParams::paper(),
        HostId(7),
        vec![HostId(0), HostId(1), HostId(2)],
        SimTime::from_ms(ms.saturating_sub(1).max(1)),
        Some(cache),
    );
    net.add_flow_tagged(
        SimTime::from_ns(100),
        HostId(0),
        HostId(5),
        4_000_000,
        TransportKind::Paced,
        Some(bulk),
    );
    net.add_flow_tagged(
        SimTime::from_ns(100),
        HostId(2),
        HostId(6),
        4_000_000,
        TransportKind::Paced,
        Some(bulk),
    );
    net.run_for(SimTime::from_ms(ms));
    par::note_net(&net);
    let samples = net.export_timeseries().map(|s| s.lines().count()).unwrap_or(0);
    (net.slo_summaries(), samples)
}

/// Render the per-service table.
pub fn render(rows: &[SloSummary], samples: usize) -> String {
    let mut t = Table::new(&[
        "service",
        "count",
        "p50",
        "p99",
        "p999",
        "bad",
        "bad in fault",
        "burn",
        "breached",
    ]);
    for r in rows {
        t.row(vec![
            r.service.clone(),
            r.count.to_string(),
            format!("{} us", r.p50_ns / 1_000),
            format!("{} us", r.p99_ns / 1_000),
            format!("{} us", r.p999_ns / 1_000),
            r.bad.to_string(),
            r.bad_in_fault.to_string(),
            format!("{}m", r.burn_milli),
            if r.breached { "yes" } else { "no" }.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!("({samples} sampled rows in the time series)\n"));
    out
}
