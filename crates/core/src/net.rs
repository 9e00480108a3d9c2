//! The OpenOptics network object and user API (Table 1).
//!
//! A user creates an [`OpenOpticsNet`] from a static configuration, then
//! calls the topology, routing, and monitoring APIs — the Rust rendering of
//! the paper's Python front end. The composed entry point pairs an
//! [`Architecture`] descriptor with any compatible routing scheme:
//!
//! ```
//! use openoptics_core::{Architecture, NetConfig, OpenOpticsNet};
//! use openoptics_routing::algos::Vlb;
//! use openoptics_routing::{LookupMode, MultipathMode};
//!
//! let cfg = NetConfig::builder().node_num(8).uplink(1).slice_ns(100_000).build().unwrap();
//! let net = OpenOpticsNet::deploy(
//!     cfg,
//!     Architecture::rotornet(),
//!     Box::new(Vlb),
//!     LookupMode::PerHop,
//!     MultipathMode::PerPacket,
//! )
//! .unwrap();
//! assert!(!net.is_ta());
//! ```
//!
//! The primitive calls (`deploy_topo`, `deploy_routing`) remain available
//! for hand-built schedules.

use crate::arch::Architecture;
use crate::config::NetConfig;
use crate::engine::{Engine, Event, TransportKind};
use crate::error::Error;
use openoptics_fabric::{Circuit, LayoutError, OcsLayout, OpticalSchedule, ScheduleError};
use openoptics_host::apps::MemcachedParams;
use openoptics_proto::{FlowId, HostId, NodeId, PortId};
use openoptics_routing::{LookupMode, MultipathMode, RouteEntry, RoutingAlgorithm};
use openoptics_sim::time::SimTime;
use openoptics_sim::{run, EventQueue};
use openoptics_topo::TrafficMatrix;

/// Why a topology deployment was rejected: either the circuits are not a
/// valid schedule (port conflicts, out-of-range references) or they are not
/// physically realizable on the configured OCS structure.
#[derive(Debug)]
pub enum DeployError {
    /// Logical schedule validation failed.
    Schedule(ScheduleError),
    /// Physical OCS-structure compilation failed.
    Layout(LayoutError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Schedule(e) => write!(f, "schedule: {e}"),
            DeployError::Layout(e) => write!(f, "layout: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<ScheduleError> for DeployError {
    fn from(e: ScheduleError) -> Self {
        DeployError::Schedule(e)
    }
}

impl From<LayoutError> for DeployError {
    fn from(e: LayoutError) -> Self {
        DeployError::Layout(e)
    }
}

/// The user-facing network object.
///
/// `Clone` is derived for field-completeness; the copy shares telemetry
/// and span buffers with the original through `Rc` handles. Use
/// [`OpenOpticsNet::fork`] for the fully independent copy a what-if branch
/// needs.
#[derive(Clone)]
pub struct OpenOpticsNet {
    /// The engine carrying all network state.
    pub engine: Engine,
    queue: EventQueue<Event>,
    now: SimTime,
    staged: Vec<Circuit>,
    layout: OcsLayout,
    primed: bool,
    /// The architecture descriptor this network was deployed from
    /// ([`OpenOpticsNet::deploy`]); `None` for hand-built networks.
    arch: Option<Architecture>,
}

impl OpenOpticsNet {
    /// Create a network with an empty optical schedule (deploy one before
    /// running traffic).
    pub fn new(cfg: NetConfig) -> Self {
        let sched = OpticalSchedule::empty(cfg.slice_config(1), cfg.node_num, cfg.uplink);
        let fibers = cfg.node_num * u32::from(cfg.uplink);
        let layout = if cfg.ocs_count == 0 {
            let ports = if cfg.ocs_ports == 0 { fibers } else { cfg.ocs_ports };
            OcsLayout::single(cfg.node_num, cfg.uplink, ports)
                .expect("auto-sized single OCS always fits")
        } else {
            let per_dev = fibers.div_ceil(u32::from(cfg.ocs_count));
            let ports = if cfg.ocs_ports == 0 { per_dev } else { cfg.ocs_ports };
            let k = cfg.ocs_count;
            OcsLayout::build(k, ports, cfg.node_num, cfg.uplink, |_, p| p.0 % k)
                .expect("rail cabling fits when ports are auto-sized")
        };
        OpenOpticsNet {
            engine: Engine::new(cfg, sched),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            staged: vec![],
            layout,
            primed: false,
            arch: None,
        }
    }

    /// The unified composition entry point: build a network from an
    /// [`Architecture`] descriptor paired with `routing`. Applies the
    /// descriptor's config fixups, generates and deploys its schedule,
    /// installs the routing scheme (rejecting incompatible pairings with
    /// [`Error::Config`] — see [`crate::arch::check_compat`]), and installs
    /// the descriptor's dispatch/pause policies. The descriptor is retained
    /// so [`reconfigure`](Self::reconfigure) can regenerate the schedule
    /// later.
    pub fn deploy(
        cfg: NetConfig,
        arch: Architecture,
        routing: Box<dyn RoutingAlgorithm>,
        lookup: LookupMode,
        multipath: MultipathMode,
    ) -> Result<OpenOpticsNet, Error> {
        let mut cfg = cfg;
        arch.apply_defaults(&mut cfg);
        let mut net = OpenOpticsNet::new(cfg);
        if let Some((circuits, slices)) = arch.generate(&net.engine.cfg, &[]) {
            net.deploy_topo(&circuits, slices)?;
        }
        net.deploy_routing_boxed(routing, lookup, multipath)?;
        arch.install_policies(&mut net.engine);
        net.arch = Some(arch);
        Ok(net)
    }

    /// [`deploy`](Self::deploy) with the architecture's canonical routing
    /// pairing ([`Architecture::default_routing`]).
    pub fn deploy_preset(cfg: NetConfig, arch: Architecture) -> Result<OpenOpticsNet, Error> {
        let (algo, lookup, multipath) = arch.default_routing();
        OpenOpticsNet::deploy(cfg, arch, algo, lookup, multipath)
    }

    /// The single reconfigure hook: retarget the stored architecture's
    /// schedule generator at `tm` and redeploy the regenerated schedule.
    /// Works before the first run (instant) and mid-run (honors the OCS
    /// reconfiguration delay); the installed routing scheme is preserved
    /// and its tables recompile lazily against the new topology. Errors
    /// with [`Error::Config`] on networks not built via
    /// [`deploy`](Self::deploy).
    pub fn reconfigure(&mut self, tm: &TrafficMatrix) -> Result<(), Error> {
        let mut arch = self.arch.take().ok_or_else(|| {
            Error::Config(crate::config::ConfigError {
                field: "architecture",
                reason: "reconfigure() needs a network built by OpenOpticsNet::deploy \
                         (hand-built networks redeploy via deploy_topo)"
                    .to_string(),
            })
        })?;
        arch.schedule_mut().retarget(tm);
        let result = self.redeploy_schedule(&arch);
        self.arch = Some(arch);
        result
    }

    /// The architecture descriptor this network was deployed from, if any.
    pub fn arch(&self) -> Option<&Architecture> {
        self.arch.as_ref()
    }

    /// Mutable access to the stored architecture descriptor (reconfigure
    /// wrappers adjust generator parameters before regenerating).
    pub fn arch_mut(&mut self) -> Option<&mut Architecture> {
        self.arch.as_mut()
    }

    fn redeploy_schedule(&mut self, arch: &Architecture) -> Result<(), Error> {
        let prev = self.engine.schedule().circuits().to_vec();
        if let Some((circuits, slices)) = arch.generate(&self.engine.cfg, &prev) {
            self.deploy_topo(&circuits, slices)?;
        }
        Ok(())
    }

    /// The physical OCS cabling this network was configured with.
    pub fn layout(&self) -> &OcsLayout {
        &self.layout
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// An independent copy of the whole network at its current instant —
    /// a warm what-if branch. The fork owns deep copies of the engine,
    /// event queue, and every mutable telemetry/trace/span buffer, and
    /// shares the immutable sample rows already recorded, so running the
    /// fork and the original produces two fully separate histories; each,
    /// run alone, is byte-identical to an uninterrupted run.
    pub fn fork(&self) -> OpenOpticsNet {
        let mut net = self.clone();
        net.engine = self.engine.fork();
        net
    }

    /// The primitive `connect()` call: stage one circuit. Loopback circuits
    /// (a node to itself) are immediately invalid.
    pub fn connect(&mut self, circuit: Circuit) -> Result<(), Error> {
        if circuit.is_loopback() {
            return Err(Error::LoopbackCircuit(circuit));
        }
        self.staged.push(circuit);
        Ok(())
    }

    /// Circuits staged via [`OpenOpticsNet::connect`].
    pub fn staged_circuits(&self) -> &[Circuit] {
        &self.staged
    }

    /// `deploy_topo()`: validate `circuits` for a `num_slices`-slice cycle
    /// and install them. Before the simulation starts this is instant; on a
    /// running TA network it honors the OCS reconfiguration delay.
    pub fn deploy_topo(
        &mut self,
        circuits: &[Circuit],
        num_slices: u32,
    ) -> Result<(), DeployError> {
        let cfg = self.engine.cfg.slice_config(num_slices);
        let sched = OpticalSchedule::build(
            cfg,
            self.engine.cfg.node_num,
            self.engine.cfg.uplink,
            circuits,
        )?;
        // Physical feasibility: every circuit must compile onto one OCS of
        // the configured structure (§4.2's controller sanity check).
        self.layout.compile(circuits)?;
        if self.primed {
            let done = self.engine.reconfigure_schedule(sched, self.now);
            // The schedule's slice count may have changed (e.g. SORN
            // growing extra slices); keep the router's TA flag honest.
            let ta = self.is_ta();
            self.engine.refresh_router_ta(ta);
            // Once the OCS finishes moving, switches re-notify their hosts
            // of the new circuits (drives flow pausing on static schedules,
            // where no rotation would otherwise refresh the state).
            for node in 0..self.engine.cfg.node_num {
                self.queue
                    .schedule(done, Event::Timer(crate::engine::Timer::NotifyHosts(NodeId(node))));
            }
        } else {
            // The old engine is discarded below, so take its config instead
            // of cloning it.
            let netcfg = std::mem::take(&mut self.engine.cfg);
            let mut fresh = Engine::new(netcfg, sched);
            // Policies and routing survive a pre-run redeploy; only the
            // architecture descriptor module may originate these values.
            fresh.policy = self.engine.policy; // oolint: allow(arch-compose, carrying forward)
            fresh.pause_mode = self.engine.pause_mode; // oolint: allow(arch-compose, carrying forward)
            let ta = fresh.schedule().slice_config().num_slices == 1;
            fresh.adopt_router(&mut self.engine, ta);
            self.engine = fresh;
        }
        Ok(())
    }

    /// Deploy the staged circuits (then clear the staging area).
    pub fn deploy_staged(&mut self, num_slices: u32) -> Result<(), DeployError> {
        let staged = std::mem::take(&mut self.staged);
        self.deploy_topo(&staged, num_slices)
    }

    /// `deploy_routing()`: install a routing scheme. Entries are compiled
    /// lazily per (node, destination, arrival slice) as traffic needs them —
    /// equivalent to the paper's offline precomputation, evaluated on
    /// demand. `LookupMode::SourceRouting` is forced for schemes that
    /// require it.
    ///
    /// The scheme's declared capabilities are checked against the deployed
    /// schedule first ([`crate::arch::check_compat`]); an incompatible
    /// pairing — a TO scheme on a held instance, source routing on a
    /// real-OCS fabric, a within-instance search over sparse matchings —
    /// returns [`Error::Config`] instead of compiling silently-wrong
    /// tables. Deploy the topology **before** the routing scheme.
    pub fn deploy_routing<A: RoutingAlgorithm + 'static>(
        &mut self,
        algo: A,
        lookup: LookupMode,
        multipath: MultipathMode,
    ) -> Result<(), Error> {
        self.deploy_routing_boxed(Box::new(algo), lookup, multipath)
    }

    /// [`deploy_routing`](Self::deploy_routing) for an already-boxed scheme
    /// (the sweep harness composes pairings dynamically).
    pub fn deploy_routing_boxed(
        &mut self,
        algo: Box<dyn RoutingAlgorithm>,
        lookup: LookupMode,
        multipath: MultipathMode,
    ) -> Result<(), Error> {
        crate::arch::check_compat(
            algo.as_ref(),
            self.engine.schedule(),
            self.engine.cfg.emulated_fabric,
        )?;
        let lookup =
            if algo.requires_source_routing() { LookupMode::SourceRouting } else { lookup };
        let ta = self.is_ta();
        self.engine.set_router(algo, lookup, multipath, ta);
        Ok(())
    }

    /// Whether the deployed schedule is a single topology instance (TA) as
    /// opposed to a rotating TO schedule.
    pub fn is_ta(&self) -> bool {
        self.engine.schedule().slice_config().num_slices == 1
    }

    /// `add()`: install one time-flow table entry directly (debugging).
    pub fn add(&mut self, entry: RouteEntry) -> Result<(), Error> {
        let node = entry.node;
        if node.0 >= self.engine.cfg.node_num {
            return Err(Error::NodeOutOfRange { node, node_num: self.engine.cfg.node_num });
        }
        self.engine.tor_mut(node).install_routes([entry]);
        Ok(())
    }

    /// `collect(interval)`: run the network for `interval` and return the
    /// traffic matrix observed in that window.
    pub fn collect(&mut self, interval: SimTime) -> TrafficMatrix {
        self.engine.take_traffic_matrix(); // reset window
        self.run_for(interval);
        self.engine.take_traffic_matrix()
    }

    /// The c-Through-style collection mode: hosts report their pending
    /// per-destination demand (vma queue depths) instead of historical
    /// volume — what a TA controller sizes circuits against (§5.2).
    pub fn collect_pending(&self) -> TrafficMatrix {
        self.engine.host_pending_demand()
    }

    /// `buffer_usage(node, port)`: bytes buffered in the port's calendar
    /// queues right now.
    pub fn buffer_usage(&self, node: NodeId, port: PortId) -> u64 {
        self.engine.tor(node).port_buffer_bytes(port)
    }

    /// `bw_usage(node, port)`: bytes transmitted by the port so far.
    pub fn bw_usage(&self, node: NodeId, port: PortId) -> u64 {
        self.engine.port_tx_bytes(node, port)
    }

    // -- workload & execution ----------------------------------------------

    /// Declare a service: a named latency stream flows can be tagged with,
    /// with optional SLO accounting (see [`Engine::declare_service`]).
    /// Declare services before the first run so scenario-driven and
    /// programmatic setups assign identical ids.
    pub fn declare_service(
        &mut self,
        name: &str,
        slo: Option<openoptics_telemetry::SloTarget>,
    ) -> u16 {
        assert!(!self.primed, "declare services before the first run");
        self.engine.declare_service(name, slo)
    }

    /// Schedule a flow (before or during the run). `at` must not be in the
    /// simulated past once the network is running.
    pub fn add_flow(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
    ) {
        self.add_flow_tagged(at, src, dst, bytes, transport, None);
    }

    /// [`OpenOpticsNet::add_flow`] with a service tag: the flow's FCT
    /// reports into the service's latency sketch and SLO accounting.
    #[allow(clippy::too_many_arguments)]
    pub fn add_flow_tagged(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
        service: Option<u16>,
    ) {
        let idx = self.engine.add_flow_tagged(at, src, dst, bytes, transport, service);
        if self.primed {
            assert!(at >= self.now, "cannot start a flow in the simulated past");
            self.queue.schedule(at, Event::Timer(crate::engine::Timer::FlowStart(idx)));
        }
    }

    /// Inject a fault campaign (before or during the run). The plan is
    /// validated against this network's shape first; window starts must not
    /// lie in the simulated past. Each window edge becomes an ordinary
    /// `(time, seq)` event on the calendar queue, so the same plan + seed
    /// reproduces identical [`fault_report`](Self::fault_report) counters
    /// on every run, however it is split into `run_for` steps. May be
    /// called repeatedly; new windows extend the campaign.
    pub fn inject_faults(&mut self, plan: &openoptics_faults::FaultPlan) -> Result<(), Error> {
        let not_before = if self.primed { self.now } else { SimTime::ZERO };
        let range = self.engine.set_fault_plan(plan, not_before).map_err(Error::from)?;
        if self.primed {
            // Mirror add_flow: post-prime campaigns schedule their own
            // window edges (prime() handles the pre-run case).
            for i in range {
                let Some(spec) = self.engine.fault_spec(i) else { continue };
                self.queue.schedule(spec.start, Event::Timer(crate::engine::Timer::FaultStart(i)));
                self.queue.schedule(spec.end, Event::Timer(crate::engine::Timer::FaultEnd(i)));
            }
        }
        Ok(())
    }

    /// Results of the injected fault campaign so far: campaign-wide
    /// delivery/retransmission totals plus per-fault counters (empty when
    /// no plan was injected). Deterministic for a given plan + seed.
    pub fn fault_report(&self) -> openoptics_faults::FaultReport {
        self.engine.fault_report()
    }

    /// Attach a memcached app (see [`Engine::add_memcached`]).
    pub fn add_memcached(
        &mut self,
        params: MemcachedParams,
        server: HostId,
        clients: Vec<HostId>,
        stop_at: SimTime,
    ) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_memcached(params, server, clients, stop_at)
    }

    /// [`OpenOpticsNet::add_memcached`] with a service tag: each op's
    /// request→response latency reports under the service's SLO.
    pub fn add_memcached_tagged(
        &mut self,
        params: MemcachedParams,
        server: HostId,
        clients: Vec<HostId>,
        stop_at: SimTime,
        service: Option<u16>,
    ) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_memcached_tagged(params, server, clients, stop_at, service)
    }

    /// Attach a ring allreduce (see [`Engine::add_allreduce`]).
    pub fn add_allreduce(&mut self, hosts: Vec<HostId>, data_bytes: u64) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_allreduce(hosts, data_bytes)
    }

    /// [`OpenOpticsNet::add_allreduce`] with a service tag: every chunk
    /// flow's FCT reports under the service's SLO.
    pub fn add_allreduce_tagged(
        &mut self,
        hosts: Vec<HostId>,
        data_bytes: u64,
        service: Option<u16>,
    ) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_allreduce_tagged(hosts, data_bytes, service)
    }

    /// Attach a UDP probe train (see [`Engine::add_probe_train`]).
    pub fn add_probe_train(
        &mut self,
        src: HostId,
        dst: HostId,
        interval_ns: u64,
        count: u64,
        payload: u32,
    ) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_probe_train(src, dst, interval_ns, count, payload)
    }

    // -- telemetry ---------------------------------------------------------

    /// The metrics registry the network reports into. Disabled (every
    /// handle detached, zero hot-path cost) when the configuration said
    /// `telemetry: false`.
    pub fn telemetry(&self) -> &openoptics_telemetry::Registry {
        self.engine.telemetry()
    }

    /// A deterministic snapshot of every metric at the current simulation
    /// time: engine-side plain counters are mirrored into the registry
    /// first, so the snapshot is complete. Stamped in sim time only —
    /// byte-identical across runs.
    pub fn telemetry_snapshot(&self) -> openoptics_telemetry::Snapshot {
        self.engine.sync_telemetry(Some(self.queue.stats()));
        self.engine.telemetry().snapshot(self.now)
    }

    /// Export the current telemetry snapshot as `"json"` or `"csv"`.
    /// Errors if telemetry is disabled or the format is unknown.
    pub fn export_telemetry(&self, format: &str) -> Result<String, Error> {
        if !self.engine.telemetry().is_enabled() {
            return Err(openoptics_telemetry::TelemetryError::Disabled.into());
        }
        let snap = self.telemetry_snapshot();
        match format {
            "json" => Ok(snap.to_json()),
            "csv" => Ok(snap.to_csv()),
            other => {
                Err(openoptics_telemetry::TelemetryError::UnknownFormat(other.to_string()).into())
            }
        }
    }

    /// The trace-event stream captured so far, one JSON object per line
    /// (first `trace_capacity` events; later ones are counted as dropped).
    pub fn export_trace(&self) -> Result<String, Error> {
        if !self.engine.telemetry().is_enabled() {
            return Err(openoptics_telemetry::TelemetryError::Disabled.into());
        }
        Ok(self.engine.telemetry().trace().to_json_lines())
    }

    /// The sampled time series as JSON lines, one sample frame per row,
    /// rendered as [`SampleRow::to_json`] renders it. Errors when
    /// telemetry is disabled or sampling was never configured
    /// (`sample_every_ns == 0`). Byte-identical across runs.
    ///
    /// [`SampleRow::to_json`]: openoptics_telemetry::SampleRow::to_json
    pub fn export_timeseries(&self) -> Result<String, Error> {
        if !self.engine.telemetry().is_enabled() || self.engine.cfg.sample_every_ns == 0 {
            return Err(openoptics_telemetry::TelemetryError::Disabled.into());
        }
        Ok(self.engine.timeseries().to_json_lines())
    }

    /// A deterministic plain-text SLO report: per-flow-class latency
    /// quantiles followed by one row per declared service (count,
    /// p50/p99/p999, SLO burn and fault attribution). Errors when telemetry
    /// is disabled.
    pub fn export_slo_report(&self) -> Result<String, Error> {
        if !self.engine.telemetry().is_enabled() {
            return Err(openoptics_telemetry::TelemetryError::Disabled.into());
        }
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== openoptics slo report @ {} ns ==", self.now.as_ns());
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>12} {:>12}",
            "class", "count", "p50_ns", "p99_ns", "p999_ns"
        );
        for (name, sk) in crate::engine::FLOW_CLASSES.iter().zip(self.engine.class_sketches()) {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12} {:>12} {:>12}",
                name,
                sk.count(),
                sk.p50(),
                sk.p99(),
                sk.p999()
            );
        }
        let services = self.slo_summaries();
        if !services.is_empty() {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10} {:>8}",
                "service",
                "count",
                "p50_ns",
                "p99_ns",
                "p999_ns",
                "bad",
                "bad_fault",
                "burn_mil",
                "breach"
            );
            for s in &services {
                let (bad, bad_fault, burn, breach) = if s.has_target {
                    (
                        s.bad.to_string(),
                        s.bad_in_fault.to_string(),
                        s.burn_milli.to_string(),
                        if s.breached { "yes" } else { "no" }.to_string(),
                    )
                } else {
                    ("-".into(), "-".into(), "-".into(), "-".into())
                };
                let _ = writeln!(
                    out,
                    "{:<12} {:>8} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10} {:>8}",
                    s.service, s.count, s.p50_ns, s.p99_ns, s.p999_ns, bad, bad_fault, burn, breach
                );
            }
        }
        Ok(out)
    }

    /// Per-service SLO summaries (empty when no services were declared).
    pub fn slo_summaries(&self) -> Vec<openoptics_telemetry::SloSummary> {
        self.engine.services().iter().map(|s| s.summary()).collect()
    }

    /// The subscription frame stream captured so far: sample rows, SLO
    /// state transitions, and flight-recorder dumps, in emission order.
    pub fn frames(&self) -> &openoptics_telemetry::FrameLog {
        self.engine.frames()
    }

    /// The recorded lifecycle spans as Chrome trace-event JSON (loadable
    /// in Perfetto / `chrome://tracing`). Requires `span_sample_every > 0`
    /// in the configuration; errors when span recording is off. Stamped in
    /// sim time only — byte-identical across runs.
    pub fn export_spans_chrome_trace(&self) -> Result<String, Error> {
        if !self.engine.has_span_recording() {
            return Err(openoptics_obs::ObsError::Disabled.into());
        }
        let events = self.engine.span_events(self.now);
        openoptics_obs::chrome_trace(&events).map_err(|e| openoptics_obs::ObsError::from(e).into())
    }

    /// The recorded lifecycle spans as a deterministic plain-text report:
    /// stage totals plus per-flow lifecycle trees. Errors when span
    /// recording is off.
    pub fn export_span_report(&self) -> Result<String, Error> {
        if !self.engine.has_span_recording() {
            return Err(openoptics_obs::ObsError::Disabled.into());
        }
        let events = self.engine.span_events(self.now);
        openoptics_obs::span_report(&events).map_err(|e| openoptics_obs::ObsError::from(e).into())
    }

    /// The finalized lifecycle-span stream itself (for programmatic tree
    /// reconstruction via [`openoptics_obs::build_forest`]). Empty when
    /// span recording is off.
    pub fn span_events(&self) -> Vec<openoptics_obs::SpanEvent> {
        self.engine.span_events(self.now)
    }

    /// The deterministic sim-time profiler report: per engine phase, the
    /// event count and the simulated time attributed to it. Requires
    /// telemetry; errors when disabled.
    pub fn profiler_report(&self) -> Result<String, Error> {
        if !self.engine.profiler().is_on() {
            return Err(openoptics_obs::ObsError::Disabled.into());
        }
        Ok(self.engine.profiler().report())
    }

    /// Install a wall-clock source for profiler self-timing (the simulator
    /// never reads host time itself — callers inject an `Instant`-based
    /// closure). No-op when telemetry is disabled.
    pub fn set_profiler_clock(&self, clock: impl Fn() -> u64 + 'static) {
        self.engine.profiler().set_clock(clock);
    }

    /// The wall-clock profiler report (inclusive/exclusive real time per
    /// phase), or `None` when no clock was installed. Not deterministic —
    /// for stderr self-profiling only.
    pub fn profiler_wall_report(&self) -> Option<String> {
        self.engine.profiler().wall_report()
    }

    /// Run for `total` simulated time, taking a telemetry snapshot every
    /// `every` (and a final one at the end). The periodic-snapshot loop of
    /// a monitoring study: snapshots land at deterministic sim times.
    pub fn run_with_snapshots(
        &mut self,
        total: SimTime,
        every: SimTime,
    ) -> Vec<openoptics_telemetry::Snapshot> {
        let step = every.as_ns().max(1);
        let mut snaps = vec![];
        let end = self.now + total.as_ns();
        while self.now < end {
            let chunk = step.min(end.as_ns() - self.now.as_ns());
            self.run_for(SimTime::from_ns(chunk));
            snaps.push(self.telemetry_snapshot());
        }
        snaps
    }

    /// Run the simulation for `dur` more simulated time.
    pub fn run_for(&mut self, dur: SimTime) {
        if !self.primed {
            self.engine.prime(&mut self.queue);
            self.primed = true;
        }
        let until = self.now + dur.as_ns();
        run(&mut self.engine, &mut self.queue, until);
        self.now = until;
    }

    /// Completed-flow FCT statistics.
    pub fn fct(&self) -> &openoptics_workload::FctStats {
        &self.engine.fct
    }

    /// Total events scheduled on this network's event queue so far — the
    /// natural unit of simulation work (events/second is the engine's
    /// throughput metric).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Bytes delivered for a flow so far.
    pub fn flow_delivered(&self, flow: FlowId) -> u64 {
        self.engine.flow_delivered(flow)
    }

    /// Point-in-time event-queue statistics (pending/peak/far/overlay
    /// counters) — the data behind the `--profile` queue-mix line.
    pub fn queue_stats(&self) -> openoptics_sim::QueueStats {
        self.queue.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_routing::algos::{Direct, Vlb};
    use openoptics_topo::round_robin;

    fn small_cfg() -> NetConfig {
        NetConfig {
            node_num: 4,
            uplink: 1,
            hosts_per_node: 1,
            slice_ns: 10_000,
            guard_ns: 200,
            sync_err_ns: 0,
            ..Default::default()
        }
    }

    fn rotor_net(cfg: &NetConfig) -> OpenOpticsNet {
        let mut net = OpenOpticsNet::new(cfg.clone());
        let (circuits, slices) = round_robin(cfg.node_num, cfg.uplink);
        net.deploy_topo(&circuits, slices).expect("test circuits are well-formed");
        net
    }

    #[test]
    fn sampling_and_slo_accounting_are_live() {
        let cfg = NetConfig { sample_every_ns: 100_000, ..small_cfg() };
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        let svc = net.declare_service(
            "bulk",
            Some(openoptics_telemetry::SloTarget {
                latency_ns: 1,
                objective_milli: 999,
                window_ns: 1_000_000,
            }),
        );
        net.add_flow_tagged(
            SimTime::from_ns(100),
            HostId(0),
            HostId(3),
            50_000,
            TransportKind::Paced,
            Some(svc),
        );
        net.run_for(SimTime::from_ms(2));
        // Sampling ticked: rows recorded and mirrored into the frame log.
        let ts = net.export_timeseries().expect("sampling is on");
        assert!(ts.lines().count() >= 2, "expected multiple sample rows, got:\n{ts}");
        assert!(!net.frames().is_empty());
        // The tagged flow completed against an unmeetable SLO target.
        let report = net.export_slo_report().expect("telemetry is on");
        assert!(report.contains("bulk"), "service row missing:\n{report}");
        let s = &net.slo_summaries()[svc as usize];
        assert_eq!(s.count, 1);
        assert_eq!(s.bad, 1);
        assert!(s.breached);
        // Disabled sampling errors out.
        let mut off = rotor_net(&small_cfg());
        off.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("testbed routing deploys");
        off.run_for(SimTime::from_ms(1));
        assert!(off.export_timeseries().is_err());
    }

    #[test]
    fn forked_time_series_is_unchanged_by_the_original_running_on() -> Result<(), Error> {
        let cfg = NetConfig { sample_every_ns: 100_000, ..small_cfg() };
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)?;
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 400_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(1));
        let fork = net.fork();
        let frames = |n: &OpenOpticsNet| -> Vec<String> {
            n.frames().since(0).iter().map(|f| f.to_json().into_owned()).collect()
        };
        let (series, stream) = (fork.export_timeseries()?, frames(&fork));
        assert!(series.lines().count() >= 5, "expected sampled rows:\n{series}");
        net.add_flow(SimTime::from_ms(1), HostId(1), HostId(2), 50_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(2));
        assert!(net.frames().len() > stream.len(), "the original kept sampling");
        assert_eq!(fork.export_timeseries()?, series);
        assert_eq!(frames(&fork), stream);
        // The original's history still starts with the shared rows.
        assert!(net.export_timeseries()?.starts_with(&series));
        Ok(())
    }

    #[test]
    fn single_flow_completes_over_rotor() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 50_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(5));
        assert_eq!(net.fct().completed().len(), 1, "flow must complete");
        let rec = net.fct().completed()[0];
        assert_eq!(rec.bytes, 50_000);
        assert!(rec.fct_ns() > 0);
    }

    #[test]
    fn direct_routing_waits_for_circuits() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Direct, LookupMode::PerHop, MultipathMode::None)
            .expect("direct routing deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(2), 10_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(5));
        assert_eq!(net.fct().completed().len(), 1);
    }

    #[test]
    fn connect_rejects_loopback() {
        let cfg = small_cfg();
        let mut net = OpenOpticsNet::new(cfg);
        let e = net.connect(Circuit::held(NodeId(1), PortId(0), NodeId(1), PortId(0)));
        assert!(matches!(e, Err(Error::LoopbackCircuit(_))));
        assert!(net.connect(Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))).is_ok());
        assert_eq!(net.staged_circuits().len(), 1);
    }

    #[test]
    fn deploy_topo_rejects_conflicts() {
        let cfg = small_cfg();
        let mut net = OpenOpticsNet::new(cfg);
        let bad = vec![
            Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0)),
            Circuit::held(NodeId(0), PortId(0), NodeId(2), PortId(0)),
        ];
        assert!(net.deploy_topo(&bad, 1).is_err());
    }

    #[test]
    fn collect_sees_traffic() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 100_000, TransportKind::Paced);
        let tm = net.collect(SimTime::from_ms(5));
        assert!(tm.get(NodeId(0), NodeId(3)) > 0.0, "TM must record the flow");
    }

    #[test]
    fn missing_router_counts_no_route_drops() {
        // Topology deployed but no routing scheme: packets die at the first
        // lookup and the drop is attributed correctly.
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 20_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(2));
        assert_eq!(net.fct().completed().len(), 0);
        assert!(net.engine.counters.no_route_drops > 0);
    }

    #[test]
    fn electrical_uplink_overflow_counts_link_drops() {
        // Three hosts flood one 1 Gbps electrical fabric far beyond its
        // 16 MB uplink queue.
        let mut cfg = small_cfg();
        cfg.electrical_gbps = 1;
        cfg.hosts_per_node = 3;
        let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::clos())
            .expect("clos deploys on the test config");
        net.engine.watchdog_retransmit = false;
        for h in [0u32, 1, 2] {
            net.add_flow(
                SimTime::from_ns(100),
                HostId(h),
                HostId(9),
                30_000_000,
                TransportKind::Paced,
            );
        }
        net.run_for(SimTime::from_ms(10));
        assert!(
            net.engine.counters.link_drops > 0,
            "overflowing the electrical uplink must surface as link drops"
        );
    }

    #[test]
    fn tdtcp_flow_completes_end_to_end() {
        use openoptics_host::tcp::TcpConfig;
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(
            SimTime::from_ns(100),
            HostId(0),
            HostId(3),
            500_000,
            TransportKind::TdTcp(TcpConfig::default()),
        );
        net.run_for(SimTime::from_ms(100));
        assert_eq!(net.fct().completed().len(), 1, "TDTCP flow must finish");
    }

    #[test]
    fn bw_usage_accumulates() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 100_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(5));
        assert!(net.bw_usage(NodeId(0), PortId(0)) > 0);
    }

    /// The 8-node rotor configuration the preset tests deploy on.
    fn cfg8() -> NetConfig {
        NetConfig { node_num: 8, ..small_cfg() }
    }

    fn run_one_flow(net: &mut OpenOpticsNet, bytes: u64) -> u64 {
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), bytes, TransportKind::Paced);
        net.run_for(SimTime::from_ms(20));
        assert_eq!(net.fct().completed().len(), 1, "flow did not complete");
        net.fct().completed()[0].fct_ns()
    }

    #[test]
    fn clos_preset_carries_traffic_electrically() {
        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::clos())
            .expect("clos deploys on the 8-node test config");
        let fct = run_one_flow(&mut net, 20_000);
        assert!(fct > 0);
        let (delivered, _) = net.engine.fabric_stats();
        assert_eq!(delivered, 0, "no packet should touch the optical fabric");
    }

    #[test]
    fn rotornet_preset_vlb_delivers() {
        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::rotornet())
            .expect("rotornet deploys on the 8-node test config");
        run_one_flow(&mut net, 50_000);
        let (delivered, _) = net.engine.fabric_stats();
        assert!(delivered > 0);
    }

    #[test]
    fn opera_preset_delivers_with_source_routing() {
        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::opera())
            .expect("opera deploys on the 8-node test config");
        run_one_flow(&mut net, 50_000);
    }

    #[test]
    fn mordia_preset_serves_demand_pairs() {
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(NodeId(0), NodeId(5), 100.0);
        tm.set(NodeId(1), NodeId(2), 50.0);
        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::mordia(&tm, 8))
            .expect("mordia deploys on the 8-node test config");
        run_one_flow(&mut net, 20_000);
    }

    #[test]
    fn jupiter_preset_wcmp_delivers() {
        let mut cfg = cfg8();
        cfg.uplink = 2;
        let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::jupiter())
            .expect("jupiter deploys on the test config");
        run_one_flow(&mut net, 20_000);
    }

    #[test]
    fn cthrough_preset_splits_mice_and_elephants() {
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(NodeId(0), NodeId(5), 1e9);
        let mut cfg = cfg8();
        cfg.elephant_threshold = 100_000;
        let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::cthrough(&tm))
            .expect("c-through deploys on the test config");
        // A mouse (electrical) and an elephant (optical, paused until its
        // held circuit — which exists for pair 0-5).
        net.add_flow(SimTime::from_ns(100), HostId(1), HostId(2), 10_000, TransportKind::Paced);
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 2_000_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(50));
        assert_eq!(net.fct().completed().len(), 2, "both flows complete");
    }

    #[test]
    fn semi_oblivious_preset_deploys_and_delivers() {
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(NodeId(0), NodeId(5), 1000.0);
        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::semi_oblivious(&tm, 4))
            .expect("semi-oblivious deploys on the 8-node test config");
        run_one_flow(&mut net, 50_000);
    }

    #[test]
    fn reconfigure_hook_shared_by_all_presets() {
        // jupiter → evolve; cthrough → fresh matching; semi_oblivious →
        // new SORN slice count. All through OpenOpticsNet::reconfigure.
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(NodeId(0), NodeId(5), 500.0);

        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::jupiter())
            .expect("jupiter deploys on the 8-node test config");
        net.reconfigure(&tm).expect("jupiter reconfigures under the test demand");
        run_one_flow(&mut net, 20_000);

        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::cthrough(&tm))
            .expect("c-through deploys on the 8-node test config");
        net.reconfigure(&tm).expect("c-through reconfigures under the test demand");

        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::semi_oblivious(&tm, 2))
            .expect("semi-oblivious deploys on the 8-node test config");
        let before = net.engine.schedule().slice_config().num_slices;
        if let Some(crate::arch::ScheduleGen::Sorn { extra_slices, .. }) =
            net.arch_mut().map(Architecture::schedule_mut)
        {
            *extra_slices = 6;
        }
        net.reconfigure(&tm).expect("semi-oblivious reconfigures under the test demand");
        let after = net.engine.schedule().slice_config().num_slices;
        assert!(after > before, "extra slices must grow the schedule ({before} -> {after})");
    }

    #[test]
    fn reconfigure_without_descriptor_is_typed_error() {
        let mut net = OpenOpticsNet::new(cfg8());
        let e = net.reconfigure(&TrafficMatrix::zeros(8)).unwrap_err();
        assert!(matches!(e, Error::Config(_)), "got {e}");
    }

    #[test]
    fn incompatible_pairings_are_rejected_with_config_errors() {
        use openoptics_routing::algos::{Ecmp, Ucmp};
        fn rejection(r: Result<OpenOpticsNet, Error>) -> Error {
            match r {
                Err(e) => e,
                Ok(_) => panic!("pairing should have been rejected"),
            }
        }
        // TO scheme on a held instance.
        let e = rejection(OpenOpticsNet::deploy(
            cfg8(),
            Architecture::jupiter(),
            Box::new(Vlb),
            LookupMode::PerHop,
            MultipathMode::PerPacket,
        ));
        assert!(matches!(e, Error::Config(_)), "got {e}");
        // Source routing on a real (non-emulated) OCS fabric.
        let tm = TrafficMatrix::zeros(8);
        let e = rejection(OpenOpticsNet::deploy(
            cfg8(),
            Architecture::cthrough(&tm),
            Box::new(Ucmp::default()),
            LookupMode::PerHop,
            MultipathMode::PerPacket,
        ));
        assert!(matches!(e, Error::Config(_)), "got {e}");
        // Within-instance search over sparse round-robin matchings.
        let e = rejection(OpenOpticsNet::deploy(
            cfg8(),
            Architecture::rotornet(),
            Box::new(Ecmp::default()),
            LookupMode::PerHop,
            MultipathMode::PerFlow,
        ));
        assert!(matches!(e, Error::Config(_)), "got {e}");
    }
}
