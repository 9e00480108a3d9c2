//! Architecture descriptors — the data-driven composition layer behind
//! [`OpenOpticsNet::deploy`](crate::OpenOpticsNet::deploy).
//!
//! The paper's Table 1 promises one programmable API over many optical DCN
//! designs; the unified-routing line of work (PAPERS.md) shows why that is
//! possible: rotor, OCS, and AWGR designs all reduce to routing on one
//! time-expanded graph. This module captures what actually *differs*
//! between designs as plain data — an [`Architecture`] is a schedule
//! generator ([`ScheduleGen`]), a fabric class ([`ArchClass`]),
//! dispatch/pause defaults, and a handful of config fixups — so every
//! preset is an instance of the same `deploy(cfg, arch, routing, lookup,
//! multipath)` entry point instead of eight hand-wired recipes:
//!
//! | descriptor | class | schedule | default routing |
//! |---|---|---|---|
//! | [`Architecture::clos`] | baseline | none | — (electrical only) |
//! | [`Architecture::cthrough`] | TA-1 | Edmonds max-weight matching | direct (elephants) |
//! | [`Architecture::jupiter`] | TA-2 | evolving uniform mesh | WCMP |
//! | [`Architecture::mordia`] | TA-1 | BvN decomposition | direct per slice |
//! | [`Architecture::rotornet`] | TO | 1-D round robin | VLB |
//! | [`Architecture::opera`] | TO | per-slice expanders | Opera source routing |
//! | [`Architecture::shale`] | TO | multi-dim round robin | HOHO |
//! | [`Architecture::semi_oblivious`] | TA+TO | SORN skewed round robin | VLB |
//!
//! [`OpenOpticsNet::deploy_preset`](crate::OpenOpticsNet::deploy_preset)
//! deploys a descriptor with its default routing;
//! [`OpenOpticsNet::reconfigure`](crate::OpenOpticsNet::reconfigure)
//! retargets its schedule at a new traffic matrix.
//!
//! Pairing an architecture with a routing scheme is checked up front by
//! [`check_compat`]: a scheme whose declared capabilities (see
//! [`RoutingAlgorithm`](openoptics_routing::RoutingAlgorithm)) cannot be
//! satisfied by the deployed schedule or
//! fabric is rejected with a typed [`ConfigError`] instead of compiling
//! silently-wrong (or silently-empty) time-flow tables.
//!
//! This module is also the **only** place dispatch policy and pause mode
//! may be assigned (enforced by the `arch-compose` oolint rule): every
//! composition decision lives in the descriptor, not scattered across call
//! sites.

use crate::config::{ConfigError, NetConfig};
use crate::engine::{DispatchPolicy, Engine, PauseMode};
use openoptics_fabric::{Circuit, OpticalSchedule};
use openoptics_routing::algos::{Direct, Hoho, OperaRouting, Vlb, Wcmp};
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_topo::bvn::mordia_schedule;
use openoptics_topo::expander::opera_schedule;
use openoptics_topo::jupiter::{evolve, uniform_mesh};
use openoptics_topo::matching::edmonds_multi;
use openoptics_topo::round_robin::{round_robin, round_robin_multidim};
use openoptics_topo::sorn::sorn;
use openoptics_topo::TrafficMatrix;

/// A boxed routing scheme plus the lookup/multipath modes it deploys with.
pub type RoutingChoice = (Box<dyn RoutingAlgorithm>, LookupMode, MultipathMode);

/// The fabric class of an architecture (§2.1's taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchClass {
    /// No optical fabric: the electrical Clos baseline.
    Electrical,
    /// Topology-adjusting: one held topology instance, reconfigured on
    /// demand (c-Through, Jupiter, Mordia).
    Ta,
    /// Traffic-oblivious: a rotating slice schedule (RotorNet, Opera,
    /// Shale).
    To,
    /// A TA/TO hybrid: a rotating schedule skewed by the traffic matrix
    /// (semi-oblivious SORN).
    Hybrid,
}

impl ArchClass {
    /// Short lowercase label (used in sweep tables).
    pub fn label(&self) -> &'static str {
        match self {
            ArchClass::Electrical => "electrical",
            ArchClass::Ta => "ta",
            ArchClass::To => "to",
            ArchClass::Hybrid => "ta+to",
        }
    }
}

/// How an architecture derives its optical schedule — the data-driven
/// replacement for each preset builder's hand-picked topology call.
///
/// Traffic-aware generators carry their target [`TrafficMatrix`] so the
/// same generator can be re-run by the single reconfigure hook
/// ([`crate::OpenOpticsNet::reconfigure`]): [`retarget`](Self::retarget)
/// swaps the matrix in, and [`generate`](Self::generate) produces the next
/// schedule from it (plus the previous circuits, for evolving generators).
#[derive(Clone, Debug)]
pub enum ScheduleGen {
    /// No optical schedule at all (the electrical baseline keeps the empty
    /// single-slice schedule it was created with).
    Empty,
    /// Edmonds max-weight matching over the traffic matrix, held as one
    /// instance (c-Through).
    MaxWeightMatching {
        /// The demand the matching maximizes over.
        tm: TrafficMatrix,
    },
    /// A uniform mesh when no traffic matrix is known; once retargeted,
    /// each regeneration evolves the previous mesh toward the matrix
    /// (Jupiter's 24-hour loop).
    UniformMesh {
        /// The matrix to evolve toward; `None` until the first
        /// [`retarget`](Self::retarget).
        tm: Option<TrafficMatrix>,
    },
    /// Birkhoff–von-Neumann decomposition of the matrix apportioned over
    /// `num_slices` slices (Mordia).
    Bvn {
        /// The demand being decomposed.
        tm: TrafficMatrix,
        /// Slice budget for the decomposition.
        num_slices: u32,
    },
    /// Canonical 1-D round robin (RotorNet).
    RoundRobin,
    /// Per-slice connected expanders (Opera).
    Expander,
    /// `dim`-dimensional round robin on a node grid (Shale).
    GridRoundRobin {
        /// Grid dimensionality; `node_num` must be a perfect `dim`-th
        /// power.
        dim: u32,
    },
    /// SORN skewed round robin: a round-robin base plus `extra_slices`
    /// demand-weighted slices (semi-oblivious).
    Sorn {
        /// The demand the skew reflects.
        tm: TrafficMatrix,
        /// Extra demand-weighted slices appended to the base rotation.
        extra_slices: u32,
    },
}

impl ScheduleGen {
    /// Point the generator at a fresh traffic matrix. No-op for
    /// traffic-oblivious generators.
    pub fn retarget(&mut self, tm: &TrafficMatrix) {
        match self {
            ScheduleGen::MaxWeightMatching { tm: t }
            | ScheduleGen::Bvn { tm: t, .. }
            | ScheduleGen::Sorn { tm: t, .. } => *t = tm.clone(),
            ScheduleGen::UniformMesh { tm: t } => *t = Some(tm.clone()),
            ScheduleGen::Empty
            | ScheduleGen::RoundRobin
            | ScheduleGen::Expander
            | ScheduleGen::GridRoundRobin { .. } => {}
        }
    }

    /// Produce the schedule for `cfg`: the circuits and the slice count.
    /// `prev` is the currently-deployed circuit set (evolving generators
    /// start from it). `None` means the architecture deploys no optical
    /// schedule.
    pub fn generate(&self, cfg: &NetConfig, prev: &[Circuit]) -> Option<(Vec<Circuit>, u32)> {
        match self {
            ScheduleGen::Empty => None,
            ScheduleGen::MaxWeightMatching { tm } => Some((edmonds_multi(tm, cfg.uplink), 1)),
            ScheduleGen::UniformMesh { tm: None } => {
                Some((uniform_mesh(cfg.node_num, cfg.uplink), 1))
            }
            ScheduleGen::UniformMesh { tm: Some(tm) } => {
                Some((evolve(prev, tm, cfg.node_num, cfg.uplink), 1))
            }
            ScheduleGen::Bvn { tm, num_slices } => Some(mordia_schedule(tm, *num_slices)),
            ScheduleGen::RoundRobin => Some(round_robin(cfg.node_num, cfg.uplink)),
            ScheduleGen::Expander => Some(opera_schedule(cfg.node_num, cfg.uplink)),
            ScheduleGen::GridRoundRobin { dim } => Some(round_robin_multidim(cfg.node_num, *dim)),
            ScheduleGen::Sorn { tm, extra_slices } => {
                Some(sorn(tm, cfg.node_num, cfg.uplink, *extra_slices))
            }
        }
    }
}

/// Everything that distinguishes one preset optical DCN design from
/// another, as data: the schedule generator, the fabric class, the
/// dispatch/pause defaults, and the config fixups the old builders applied
/// silently. Feed one to [`crate::OpenOpticsNet::deploy`] together with any
/// compatible routing scheme.
#[derive(Clone, Debug)]
pub struct Architecture {
    name: &'static str,
    class: ArchClass,
    schedule: ScheduleGen,
    dispatch: DispatchPolicy,
    pause: PauseMode,
    default_routing: fn() -> RoutingChoice,
    /// `cfg.electrical_gbps` fallback when the caller left it 0.
    electrical_gbps_default: u64,
    /// Forced `cfg.emulated_fabric` value (real-OCS designs), if any.
    emulated_fabric: Option<bool>,
    /// Forced `cfg.congestion_policy`, if any.
    congestion_policy: Option<&'static str>,
    /// Minimum uplink count the design needs (`cfg.uplink` is raised).
    min_uplink: u16,
    /// Exact uplink count the design requires (`cfg.uplink` is replaced).
    fixed_uplink: Option<u16>,
}

impl Architecture {
    /// Traditional electrical Clos baseline: no optical schedule,
    /// everything rides the electrical fabric.
    pub fn clos() -> Self {
        Architecture {
            name: "clos",
            class: ArchClass::Electrical,
            schedule: ScheduleGen::Empty,
            dispatch: DispatchPolicy::ElectricalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Direct), LookupMode::PerHop, MultipathMode::None),
            electrical_gbps_default: 100,
            emulated_fabric: None,
            congestion_policy: None,
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// c-Through (TA-1): max-weight-matching circuits on a real MEMS OCS;
    /// mice ride a rate-limited electrical fabric, elephants pause for
    /// their direct circuit.
    pub fn cthrough(tm: &TrafficMatrix) -> Self {
        Architecture {
            name: "cthrough",
            class: ArchClass::Ta,
            schedule: ScheduleGen::MaxWeightMatching { tm: tm.clone() },
            dispatch: DispatchPolicy::MiceElectrical,
            pause: PauseMode::DirectCircuit,
            default_routing: || (Box::new(Direct), LookupMode::PerHop, MultipathMode::None),
            electrical_gbps_default: 10,
            emulated_fabric: Some(false),
            congestion_policy: Some("wait"),
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// Jupiter (TA-2): an evolving uniform mesh on MEMS-class OCS.
    pub fn jupiter() -> Self {
        Architecture {
            name: "jupiter",
            class: ArchClass::Ta,
            schedule: ScheduleGen::UniformMesh { tm: None },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || {
                (Box::new(Wcmp::default()), LookupMode::PerHop, MultipathMode::PerFlow)
            },
            electrical_gbps_default: 0,
            emulated_fabric: Some(false),
            congestion_policy: None,
            min_uplink: 2,
            fixed_uplink: None,
        }
    }

    /// Mordia (TA-1 with microsecond slices): BvN decomposition of the
    /// matrix over `num_slices` slices on the emulated fabric.
    pub fn mordia(tm: &TrafficMatrix, num_slices: u32) -> Self {
        Architecture {
            name: "mordia",
            class: ArchClass::Ta,
            schedule: ScheduleGen::Bvn { tm: tm.clone(), num_slices },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Direct), LookupMode::PerHop, MultipathMode::None),
            electrical_gbps_default: 0,
            emulated_fabric: None,
            congestion_policy: Some("wait"),
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// RotorNet (TO): canonical 1-D round robin.
    pub fn rotornet() -> Self {
        Architecture {
            name: "rotornet",
            class: ArchClass::To,
            schedule: ScheduleGen::RoundRobin,
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Vlb), LookupMode::PerHop, MultipathMode::PerPacket),
            electrical_gbps_default: 0,
            emulated_fabric: None,
            congestion_policy: None,
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// Opera (TO): per-slice connected expanders.
    pub fn opera() -> Self {
        Architecture {
            name: "opera",
            class: ArchClass::To,
            schedule: ScheduleGen::Expander,
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || {
                (
                    Box::new(OperaRouting::default()),
                    LookupMode::SourceRouting,
                    MultipathMode::PerPacket,
                )
            },
            electrical_gbps_default: 0,
            emulated_fabric: None,
            congestion_policy: None,
            min_uplink: 2,
            fixed_uplink: None,
        }
    }

    /// Shale (TO): a `dim`-dimensional round robin with a single optical
    /// uplink per node (§4.2).
    pub fn shale(dim: u32) -> Self {
        Architecture {
            name: "shale",
            class: ArchClass::To,
            schedule: ScheduleGen::GridRoundRobin { dim },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || {
                (Box::new(Hoho::default()), LookupMode::PerHop, MultipathMode::None)
            },
            electrical_gbps_default: 0,
            emulated_fabric: None,
            congestion_policy: None,
            min_uplink: 0,
            fixed_uplink: Some(1),
        }
    }

    /// Semi-oblivious (TA+TO, Fig. 5c): SORN skewed round robin.
    pub fn semi_oblivious(tm: &TrafficMatrix, extra_slices: u32) -> Self {
        Architecture {
            name: "semi_oblivious",
            class: ArchClass::Hybrid,
            schedule: ScheduleGen::Sorn { tm: tm.clone(), extra_slices },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Vlb), LookupMode::PerHop, MultipathMode::PerPacket),
            electrical_gbps_default: 0,
            emulated_fabric: None,
            congestion_policy: None,
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// Override the dispatch policy (e.g. hybrid experiments running
    /// RotorNet with `HybridDirect`).
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Override the pause mode.
    pub fn with_pause(mut self, pause: PauseMode) -> Self {
        self.pause = pause;
        self
    }

    /// The preset's name (`"rotornet"`, …) — used in sweep tables.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The fabric class.
    pub fn class(&self) -> ArchClass {
        self.class
    }

    /// The schedule generator.
    pub fn schedule(&self) -> &ScheduleGen {
        &self.schedule
    }

    /// Mutable access to the schedule generator (reconfigure hooks adjust
    /// generator parameters — e.g. SORN's extra slices — before
    /// regenerating).
    pub fn schedule_mut(&mut self) -> &mut ScheduleGen {
        &mut self.schedule
    }

    /// The preset's canonical routing pairing (what
    /// [`OpenOpticsNet::deploy_preset`](crate::OpenOpticsNet::deploy_preset)
    /// deploys).
    pub fn default_routing(&self) -> RoutingChoice {
        (self.default_routing)()
    }

    /// Apply the design's configuration fixups, **documented** here rather
    /// than silently applied as the old builders did:
    ///
    /// * `electrical_gbps`: designs with an electrical component (Clos at
    ///   100 Gbps, c-Through rate-limited to 10 Gbps per §6) fill it in
    ///   when the caller left it 0;
    /// * `emulated_fabric`: real-OCS designs (c-Through, Jupiter) force it
    ///   `false`;
    /// * `congestion_policy`: direct-circuit designs (c-Through, Mordia)
    ///   force `"wait"` — deferring onto another pair's slice would strand
    ///   packets;
    /// * `uplink`: raised to the design minimum (mesh designs need ≥ 2
    ///   stripes) or pinned exactly (Shale's single optical uplink).
    pub fn apply_defaults(&self, cfg: &mut NetConfig) {
        if cfg.electrical_gbps == 0 && self.electrical_gbps_default > 0 {
            cfg.electrical_gbps = self.electrical_gbps_default;
        }
        if let Some(e) = self.emulated_fabric {
            cfg.emulated_fabric = e;
        }
        if let Some(p) = self.congestion_policy {
            cfg.congestion_policy = p.to_string();
        }
        if cfg.uplink < self.min_uplink {
            cfg.uplink = self.min_uplink;
        }
        if let Some(u) = self.fixed_uplink {
            cfg.uplink = u;
        }
    }

    /// Generate this architecture's schedule for `cfg`, evolving from the
    /// currently-deployed `prev` circuits where applicable.
    pub fn generate(&self, cfg: &NetConfig, prev: &[Circuit]) -> Option<(Vec<Circuit>, u32)> {
        self.schedule.generate(cfg, prev)
    }

    /// Install the descriptor's dispatch policy and pause mode on the
    /// engine. The one sanctioned assignment site (see the `arch-compose`
    /// lint rule).
    pub(crate) fn install_policies(&self, engine: &mut Engine) {
        engine.policy = self.dispatch;
        engine.pause_mode = self.pause;
    }
}

/// Check that `algo` can produce correct tables on `schedule` over a fabric
/// with (or without) full per-hop emulation. Returns the typed
/// [`ConfigError`] that [`crate::OpenOpticsNet::deploy_routing`] surfaces
/// as [`crate::Error::Config`].
///
/// Three rules, each keyed off a declared [`RoutingAlgorithm`] capability:
///
/// 1. a scheme that routes across the rotating slice schedule
///    ([`needs_arrival_slice`](RoutingAlgorithm::needs_arrival_slice))
///    cannot run on a single held topology instance — there is no rotation
///    to ride;
/// 2. a source-routing scheme
///    ([`requires_source_routing`](RoutingAlgorithm::requires_source_routing))
///    cannot run when `emulated_fabric = false`: packets traverse a real
///    OCS between plain per-hop switches, so a full hop list pushed at the
///    source has nowhere to live;
/// 3. a scheme that searches within one topology instance
///    ([`routes_within_instance`](RoutingAlgorithm::routes_within_instance))
///    needs every slice it can be asked about to connect all nodes —
///    deployed on sparse matchings it would compile empty tables for most
///    pairs.
pub fn check_compat(
    algo: &dyn RoutingAlgorithm,
    schedule: &OpticalSchedule,
    emulated_fabric: bool,
) -> Result<(), ConfigError> {
    let num_slices = schedule.slice_config().num_slices;
    if algo.needs_arrival_slice() && num_slices == 1 {
        return Err(ConfigError {
            field: "routing",
            reason: format!(
                "`{}` routes across the rotating slice schedule, but the deployed \
                 schedule holds a single topology instance (num_slices = 1); \
                 pair it with a TO architecture or pick a TA scheme",
                algo.name()
            ),
        });
    }
    if algo.requires_source_routing() && !emulated_fabric {
        return Err(ConfigError {
            field: "routing",
            reason: format!(
                "`{}` requires source routing, but `emulated_fabric = false` means \
                 per-hop lookups on plain switches across a real OCS — a full hop \
                 list pushed at the source cannot be honored",
                algo.name()
            ),
        });
    }
    if algo.routes_within_instance() {
        for slice in 0..num_slices {
            if !schedule.slice_is_connected(slice) {
                return Err(ConfigError {
                    field: "routing",
                    reason: format!(
                        "`{}` searches for paths within one topology instance, but \
                         slice {slice} of the deployed schedule does not connect \
                         all nodes; within-instance schemes need connected \
                         instances (a mesh or per-slice expanders)",
                        algo.name()
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_routing::algos::{Ecmp, Ucmp};

    fn sched(circuits: &[Circuit], slices: u32, n: u32, uplink: u16) -> OpticalSchedule {
        let cfg = NetConfig { node_num: n, uplink, ..Default::default() };
        OpticalSchedule::build(cfg.slice_config(slices), n, uplink, circuits)
            .expect("test schedule valid")
    }

    fn rotor8() -> OpticalSchedule {
        let (c, s) = round_robin(8, 1);
        sched(&c, s, 8, 1)
    }

    fn mesh8() -> OpticalSchedule {
        let c = uniform_mesh(8, 2);
        sched(&c, 1, 8, 2)
    }

    #[test]
    fn to_scheme_on_held_instance_is_rejected() {
        let e = check_compat(&Vlb, &mesh8(), true).unwrap_err();
        assert_eq!(e.field, "routing");
        assert!(e.reason.contains("single topology instance"), "{}", e.reason);
        // The same scheme on a rotating schedule is fine.
        check_compat(&Vlb, &rotor8(), true).expect("vlb on rotor");
    }

    #[test]
    fn source_routing_on_real_ocs_is_rejected() {
        let e = check_compat(&Ucmp::default(), &rotor8(), false).unwrap_err();
        assert!(e.reason.contains("source routing"), "{}", e.reason);
        check_compat(&Ucmp::default(), &rotor8(), true).expect("ucmp on emulated fabric");
    }

    #[test]
    fn within_instance_scheme_needs_connected_slices() {
        // Round-robin slices are sparse matchings: ECMP would compile empty
        // tables for most pairs.
        let e = check_compat(&Ecmp::default(), &rotor8(), true).unwrap_err();
        assert!(e.reason.contains("does not connect all nodes"), "{}", e.reason);
        // A mesh instance connects everything.
        check_compat(&Ecmp::default(), &mesh8(), true).expect("ecmp on mesh");
    }

    #[test]
    fn preset_default_pairings_are_compatible() {
        let tm = TrafficMatrix::zeros(8);
        for arch in [
            Architecture::clos(),
            Architecture::cthrough(&tm),
            Architecture::jupiter(),
            Architecture::mordia(&tm, 8),
            Architecture::rotornet(),
            Architecture::opera(),
            Architecture::shale(3),
            Architecture::semi_oblivious(&tm, 4),
        ] {
            let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
            arch.apply_defaults(&mut cfg);
            let (algo, _, _) = arch.default_routing();
            let schedule = match arch.generate(&cfg, &[]) {
                Some((circuits, slices)) => sched(&circuits, slices, cfg.node_num, cfg.uplink),
                None => OpticalSchedule::empty(cfg.slice_config(1), cfg.node_num, cfg.uplink),
            };
            check_compat(algo.as_ref(), &schedule, cfg.emulated_fabric)
                .unwrap_or_else(|e| panic!("{} default pairing rejected: {e}", arch.name()));
        }
    }

    #[test]
    fn apply_defaults_documents_the_fixups() {
        let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
        Architecture::clos().apply_defaults(&mut cfg);
        assert_eq!(cfg.electrical_gbps, 100);

        let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
        Architecture::cthrough(&TrafficMatrix::zeros(8)).apply_defaults(&mut cfg);
        assert_eq!(cfg.electrical_gbps, 10);
        assert!(!cfg.emulated_fabric);
        assert_eq!(cfg.congestion_policy, "wait");

        // A caller-set rate is respected.
        let mut cfg =
            NetConfig { node_num: 8, uplink: 1, electrical_gbps: 40, ..Default::default() };
        Architecture::clos().apply_defaults(&mut cfg);
        assert_eq!(cfg.electrical_gbps, 40);

        let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
        Architecture::jupiter().apply_defaults(&mut cfg);
        assert_eq!(cfg.uplink, 2, "mesh needs multiple stripes");

        let mut cfg = NetConfig { node_num: 8, uplink: 4, ..Default::default() };
        Architecture::shale(3).apply_defaults(&mut cfg);
        assert_eq!(cfg.uplink, 1, "shale pins a single optical uplink");
    }

    #[test]
    fn retarget_feeds_traffic_aware_generators() {
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(openoptics_proto::NodeId(0), openoptics_proto::NodeId(5), 100.0);
        let cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };

        // UniformMesh starts traffic-agnostic, evolves once retargeted.
        let mut gen = ScheduleGen::UniformMesh { tm: None };
        let (mesh, s) = gen.generate(&cfg, &[]).expect("mesh");
        assert_eq!(s, 1);
        gen.retarget(&tm);
        let (evolved, _) = gen.generate(&cfg, &mesh).expect("evolved mesh");
        assert!(!evolved.is_empty());

        // Oblivious generators ignore retarget.
        let mut rr = ScheduleGen::RoundRobin;
        let before = rr.generate(&cfg, &[]);
        rr.retarget(&tm);
        assert_eq!(
            before.as_ref().map(|(c, s)| (c.len(), *s)),
            rr.generate(&cfg, &[]).as_ref().map(|(c, s)| (c.len(), *s))
        );
    }
}
