//! The unified TA/TO control workflow (§4.1).
//!
//! TO architectures pre-load their whole optical schedule and never talk to
//! the controller again; TA architectures run a loop — collect a traffic
//! matrix, recompute topology and routing, deploy — at reconfiguration
//! periods from seconds (c-Through) to a day (Jupiter). Fig. 5's example
//! programs all share the shape
//!
//! ```python
//! while (TM = net.collect(interval)):
//!     circuits = topo(TM); paths = routing(circuits)
//!     net.deploy_routing(paths); net.deploy_topo(circuits)
//! ```
//!
//! [`run_ta_loop`] is that loop: it alternates measurement windows with a
//! user-provided reconfiguration step, the step receiving the freshly
//! collected TM (historical volume) and the pending host demand.

use crate::net::OpenOpticsNet;
use openoptics_sim::time::SimTime;
use openoptics_topo::TrafficMatrix;

/// What one reconfiguration step sees.
pub struct LoopObservation<'a> {
    /// The network, for deploy calls.
    pub net: &'a mut OpenOpticsNet,
    /// Traffic volume observed during the last window (switch-side
    /// collection, the Jupiter mode).
    pub tm: &'a TrafficMatrix,
    /// Pending per-destination demand sitting in host segment queues
    /// (host-side collection, the c-Through mode).
    pub pending: &'a TrafficMatrix,
    /// Which iteration this is (0-based).
    pub iteration: u32,
}

/// Run `iterations` rounds of the TA workflow: run the network for
/// `interval`, then hand the collected matrices to `reconfigure`. Returns
/// the last collected traffic matrix.
///
/// The reconfigure step typically calls the single reconfigure hook,
/// [`OpenOpticsNet::reconfigure`], or its own `deploy_topo` /
/// `deploy_routing` sequence.
pub fn run_ta_loop(
    net: &mut OpenOpticsNet,
    interval: SimTime,
    iterations: u32,
    mut reconfigure: impl FnMut(LoopObservation<'_>),
) -> TrafficMatrix {
    let mut last = TrafficMatrix::zeros(net.engine.cfg.node_num as usize);
    for iteration in 0..iterations {
        let tm = net.collect(interval);
        let pending = net.collect_pending();
        reconfigure(LoopObservation { net, tm: &tm, pending: &pending, iteration });
        last = tm;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::config::NetConfig;
    use crate::engine::TransportKind;
    use openoptics_proto::{HostId, NodeId};

    #[test]
    fn ta_loop_reconfigures_toward_observed_traffic() {
        let cfg = NetConfig {
            node_num: 8,
            uplink: 2,
            slice_ns: 100_000,
            sync_err_ns: 0,
            // A fast OCS so each loop iteration's reconfiguration lands
            // before the next measurement window ends.
            ocs_reconfig_ns: 500_000,
            ..Default::default()
        };
        let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::jupiter())
            .expect("jupiter deploys on the workflow test config");
        // Persistent hotspot 0 -> 5 plus background.
        for k in 0..40u64 {
            net.add_flow(
                SimTime::from_ns(100 + k * 400_000),
                HostId(0),
                HostId(5),
                120_000,
                TransportKind::Paced,
            );
            net.add_flow(
                SimTime::from_ns(300 + k * 900_000),
                HostId(2),
                HostId(6),
                20_000,
                TransportKind::Paced,
            );
        }
        let mut rounds = 0;
        run_ta_loop(&mut net, SimTime::from_ms(4), 3, |obs| {
            rounds += 1;
            assert!(obs.tm.total() > 0.0, "round {} saw no traffic", obs.iteration);
            obs.net.reconfigure(obs.tm).expect("jupiter evolution stays valid");
        });
        assert_eq!(rounds, 3);
        // Let the last reconfiguration land and traffic drain.
        net.run_for(SimTime::from_ms(60));
        // After evolution the hotspot pair holds a direct circuit.
        assert!(
            net.engine.schedule().port_to(NodeId(0), NodeId(5), 0).is_some(),
            "hotspot should have earned a direct circuit"
        );
        assert_eq!(net.fct().outstanding(), 0, "all flows complete despite reconfigs");
    }
}
