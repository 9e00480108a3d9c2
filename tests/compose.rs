//! The unified composition API: every preset architecture crossed with
//! every routing scheme through `OpenOpticsNet::deploy`. Each pairing
//! either deploys or is rejected with a typed `Error::Config` — never a
//! panic, never a silently-wrong table — and deployed networks export
//! byte-identically for the same seed.

use openoptics::prelude::*;
use openoptics::routing::algos::{Ecmp, Hoho, Ksp, OperaRouting, Ucmp, Wcmp};
use proptest::prelude::*;

const ARCHS: &[&str] =
    &["clos", "cthrough", "jupiter", "mordia", "rotornet", "opera", "shale", "semi_oblivious"];
const ALGOS: &[&str] = &["direct", "ecmp", "wcmp", "ksp", "vlb", "ucmp", "opera", "hoho"];

fn cfg(seed: u64) -> NetConfig {
    NetConfig {
        node_num: 8,
        uplink: 1,
        hosts_per_node: 1,
        slice_ns: 100_000,
        guard_ns: 1_000,
        sync_err_ns: 0,
        seed,
        ..Default::default()
    }
}

fn arch_for(name: &str) -> Architecture {
    let mut tm = TrafficMatrix::uniform(8, 100.0);
    for i in 0..8 {
        tm.set(NodeId(i), NodeId(i), 0.0);
    }
    match name {
        "clos" => Architecture::clos(),
        "cthrough" => Architecture::cthrough(&tm),
        "jupiter" => Architecture::jupiter(),
        "mordia" => Architecture::mordia(&tm, 8),
        "rotornet" => Architecture::rotornet(),
        "opera" => Architecture::opera(),
        "shale" => Architecture::shale(3),
        "semi_oblivious" => Architecture::semi_oblivious(&tm, 3),
        other => unreachable!("unknown architecture {other}"),
    }
}

fn routing_for(name: &str) -> (Box<dyn RoutingAlgorithm>, LookupMode, MultipathMode) {
    match name {
        "direct" => (Box::new(Direct), LookupMode::PerHop, MultipathMode::None),
        "ecmp" => (Box::new(Ecmp::default()), LookupMode::PerHop, MultipathMode::PerFlow),
        "wcmp" => (Box::new(Wcmp::default()), LookupMode::PerHop, MultipathMode::PerFlow),
        "ksp" => (Box::new(Ksp::default()), LookupMode::PerHop, MultipathMode::PerFlow),
        "vlb" => (Box::new(Vlb), LookupMode::PerHop, MultipathMode::PerPacket),
        "ucmp" => (Box::new(Ucmp::default()), LookupMode::PerHop, MultipathMode::PerPacket),
        "opera" => {
            (Box::new(OperaRouting::default()), LookupMode::SourceRouting, MultipathMode::PerPacket)
        }
        "hoho" => (Box::new(Hoho::default()), LookupMode::PerHop, MultipathMode::None),
        other => unreachable!("unknown routing {other}"),
    }
}

fn deploy(arch: &str, algo: &str, seed: u64) -> Result<OpenOpticsNet, Error> {
    let (routing, lookup, multipath) = routing_for(algo);
    OpenOpticsNet::deploy(cfg(seed), arch_for(arch), routing, lookup, multipath)
}

/// The full matrix: every pairing either deploys or comes back as a typed
/// `Error::Config` — and the verdict is total (no panics, no other error
/// kinds, no pairing left undecided).
#[test]
fn every_pairing_deploys_or_is_rejected_with_config_error() {
    let mut deployed = 0;
    let mut rejected = 0;
    for &arch in ARCHS {
        for &algo in ALGOS {
            match deploy(arch, algo, 7) {
                Ok(net) => {
                    deployed += 1;
                    assert!(
                        net.arch().is_some(),
                        "{arch} x {algo}: deployed net must remember its architecture"
                    );
                }
                Err(Error::Config(e)) => {
                    rejected += 1;
                    assert!(!e.reason.is_empty(), "{arch} x {algo}: rejection must carry a reason");
                }
                Err(other) => panic!("{arch} x {algo}: expected Config rejection, got {other}"),
            }
        }
    }
    assert_eq!(deployed + rejected, ARCHS.len() * ALGOS.len());
    // The preset default pairings are a lower bound on what must deploy,
    // and the TA/TO mismatches guarantee a non-empty rejection set.
    assert!(deployed >= ARCHS.len(), "every preset's own default pairing deploys");
    assert!(rejected > 0, "the contract must reject something");
}

/// Representative incompatibilities, asserted by rule: a TO scheme on a
/// held instance (R1), source routing on a real OCS (R2), a
/// within-instance scheme on disconnected slices (R3).
#[test]
fn rejections_are_typed_and_name_the_offending_field() {
    for (arch, algo) in [("clos", "vlb"), ("jupiter", "ucmp"), ("rotornet", "ecmp")] {
        match deploy(arch, algo, 7) {
            Err(Error::Config(e)) => {
                assert_eq!(e.field, "routing", "{arch} x {algo} rejects via the routing field");
                assert!(
                    e.reason.contains(algo),
                    "{arch} x {algo}: reason names the scheme: {}",
                    e.reason
                );
            }
            Ok(_) => panic!("{arch} x {algo} must be rejected"),
            Err(other) => panic!("{arch} x {algo}: wrong error kind: {other}"),
        }
    }
}

/// Determinism through the composition API: two deployments from the same
/// seed export byte-identical telemetry.
#[test]
fn deployed_networks_export_identically_for_the_same_seed() {
    let run = || {
        let mut net = deploy("rotornet", "vlb", 7).expect("rotornet x vlb deploys");
        for i in 1..8u32 {
            net.add_flow(
                SimTime::from_ns(100 + 911 * i as u64),
                HostId(i),
                HostId(0),
                40_000,
                TransportKind::Paced,
            );
        }
        net.run_for(SimTime::from_ms(5));
        net.export_telemetry("json").expect("telemetry is on by default")
    };
    assert_eq!(run(), run(), "same seed must reproduce byte-identical exports");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random sweep cells: deploy is total over the whole grid — any
    /// pairing and seed either runs (and schedules events)
    /// or is rejected with a typed Config error.
    #[test]
    fn random_cells_run_or_reject_cleanly(
        arch_pick in 0usize..8,
        algo_pick in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let arch = ARCHS[arch_pick];
        let algo = ALGOS[algo_pick];
        match deploy(arch, algo, seed) {
            Ok(mut net) => {
                net.add_flow(
                    SimTime::from_ns(100),
                    HostId(0),
                    HostId(5),
                    20_000,
                    TransportKind::Paced,
                );
                net.run_for(SimTime::from_ms(2));
                prop_assert!(net.events_scheduled() > 0, "{arch} x {algo} ran no events");
            }
            Err(Error::Config(e)) => prop_assert!(!e.reason.is_empty()),
            Err(other) => prop_assert!(false, "{arch} x {algo}: wrong error kind: {other}"),
        }
    }
}
