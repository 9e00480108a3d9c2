//! Beyond the TA/TO boundary (§4.3): the semi-oblivious hybrid.
//!
//! The paper's Fig. 5(c) program: start with a plain round-robin schedule
//! and VLB (a regular TO network), collect a traffic matrix, then redeploy
//! a *skewed* round-robin (`sorn(TM)`) that adds demand-dedicated slices
//! between hotspot nodes — traffic-driven like TA, batch-deployed like TO.
//!
//! ```text
//! cargo run --release --example hybrid_designs
//! ```

use openoptics::prelude::*;
use openoptics::topo::sorn::pair_time_share;

fn cfg() -> NetConfig {
    NetConfig::builder().node_num(8).uplink(1).slice_ns(100_000).build().expect("valid config")
}

/// A hotspot workload: nodes 0 and 1 exchange heavy traffic; everyone else
/// sends a background trickle.
fn attach_workload(net: &mut OpenOpticsNet, stop_ms: u64) {
    let mut t = 100;
    while t < stop_ms * 1_000_000 {
        net.add_flow(SimTime::from_ns(t), HostId(0), HostId(1), 500_000, TransportKind::Paced);
        net.add_flow(
            SimTime::from_ns(t + 50_000),
            HostId(1),
            HostId(0),
            500_000,
            TransportKind::Paced,
        );
        net.add_flow(
            SimTime::from_ns(t + 10_000),
            HostId(3),
            HostId(6),
            20_000,
            TransportKind::Paced,
        );
        t += 400_000;
    }
}

fn mean_fct_us(fct: &FctStats, lo: u64, hi: u64) -> f64 {
    let v = fct.fcts_in_range(lo, hi);
    FctStats::mean(&v).map(|m| m / 1e3).unwrap_or(f64::NAN)
}

fn main() {
    // Phase 1: plain round robin + VLB (pure TO).
    let mut plain =
        OpenOpticsNet::deploy_preset(cfg(), Architecture::rotornet()).expect("rotornet deploys");
    attach_workload(&mut plain, 20);
    // Collect the TM while running — the paper's `net.collect("10min")`.
    let tm: TrafficMatrix = plain.collect(SimTime::from_ms(25));
    let plain_hot = mean_fct_us(plain.fct(), 400_000, u64::MAX);
    println!("observed hotspot demand 0<->1: {:.1} MB", tm.pair_demand(NodeId(0), NodeId(1)) / 1e6);

    // Phase 2: redeploy with a skewed schedule reflecting the TM.
    let mut skewed = OpenOpticsNet::deploy_preset(cfg(), Architecture::semi_oblivious(&tm, 4))
        .expect("semi-oblivious deploys");
    attach_workload(&mut skewed, 20);
    skewed.run_for(SimTime::from_ms(25));
    let skewed_hot = mean_fct_us(skewed.fct(), 400_000, u64::MAX);

    // How much of the cycle each schedule dedicates to the hot pair.
    let plain_sched = plain.engine.schedule();
    let skewed_sched = skewed.engine.schedule();
    let plain_share =
        pair_time_share(plain_sched.circuits(), plain_sched.slice_config().num_slices, 0, 1);
    let skewed_share =
        pair_time_share(skewed_sched.circuits(), skewed_sched.slice_config().num_slices, 0, 1);

    println!("\nhot-pair (0<->1) share of cycle time:");
    println!("  plain round robin : {:.0}%", plain_share * 100.0);
    println!("  semi-oblivious    : {:.0}%", skewed_share * 100.0);
    println!("\nhotspot flow mean FCT (500 KB, 0<->1):");
    println!("  plain round robin + VLB : {plain_hot:.0} us");
    println!("  semi-oblivious (SORN)   : {skewed_hot:.0} us");
    println!("\nThe skewed schedule multiplies the hot pair's dedicated circuit time");
    println!("while the oblivious base still covers every pair each cycle (§4.3);");
    println!("the FCT gain grows with hot-pair load as the plain schedule saturates.");
}
