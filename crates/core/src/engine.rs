//! The packet-level network engine.
//!
//! This is the simulation stand-in for the paper's testbed (Fig. 7): hosts
//! with vma-style stacks and NICs, OpenOptics ToR switches, the optical
//! fabric (real-OCS or emulated profile), an optional parallel electrical
//! fabric, and the per-node clocking that rotates calendar queues. It is a
//! deterministic discrete-event simulation driven by [`Engine`]'s
//! implementation of [`openoptics_sim::World`].
//!
//! Traffic enters through flows (paced or TCP), application generators
//! (memcached, allreduce — §6), and probe trains (Fig. 13); everything else
//! — queue rotation, guardbands, EQO, congestion responses, push-back,
//! offloading — happens as a consequence.

use crate::config::NetConfig;
use openoptics_fabric::{Circuit, ClockSync, Fabric, FabricProfile, OpticalSchedule};
use openoptics_faults::{FaultCounters, FaultError, FaultKind, FaultPlan, FaultReport, FaultSpec};
use openoptics_host::apps::{MemcachedParams, RingAllreduce};
use openoptics_host::tcp::{TcpConfig, TcpReceiver, TcpSender};
use openoptics_host::tdtcp::TdTcpSender;
use openoptics_host::udp::ProbeStats;
use openoptics_host::vma::{Segment, VmaStack};
use openoptics_host::FlowAging;
use openoptics_obs::{Phase, Profiler, SpanEvent, Spans, Stage};
use openoptics_proto::packet::{PacketKind, HEADER_BYTES};
use openoptics_proto::{ControlMsg, FlowId, HostId, NodeId, Packet, PortId};
use openoptics_routing::{compile, LookupMode, MultipathMode, Path, RoutingAlgorithm};
use openoptics_sim::bytequeue::ByteQueue;
use openoptics_sim::cast::{idx_u32, to_u32, to_u8};
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::rate::Bandwidth;
use openoptics_sim::time::{SimTime, SliceConfig};
use openoptics_sim::{EventQueue, SimRng, World};
use openoptics_switch::congestion::{CongestionConfig, CongestionPolicy};
use openoptics_switch::offload::OffloadPolicy;
use openoptics_switch::{IngressDecision, PipelineModel, ToRSwitch, TorConfig};
use openoptics_telemetry::{
    Counter, FlightTrigger, FrameLog, Labels, QuantileSketch, Registry, RetxKind, ServiceStats,
    SloTarget, SloTransition, TimeSeries, Trace, TraceKind,
};
use openoptics_topo::TrafficMatrix;
use openoptics_workload::fct::{FlowRecord, ELEPHANT_MIN_BYTES, MICE_MAX_BYTES};
use openoptics_workload::FctStats;

/// Maximum payload per packet (MTU minus headers).
pub const MSS: u32 = 1436;
/// Host-to-ToR wire + NIC pipeline latency, ns.
const HOST_WIRE_NS: u64 = 500;
/// Safety margin kept at the end of each slice when deciding whether a
/// packet's tail still fits (§7: the 34 ns rotation variance, padded).
const SLICE_END_MARGIN_NS: u64 = 40;
/// Paced-flow watchdog period, ns.
const WATCHDOG_NS: u64 = 10_000_000;
/// Sample rows kept by the time-series store (keep-first, like the trace).
const SAMPLE_CAPACITY: usize = 65_536;
/// Frame lines kept by the subscription frame log.
const FRAME_CAPACITY: usize = 65_536;
/// Flow-class labels for the per-class latency sketches, index-aligned
/// with [`Engine::class_sketches`] (mice < 100 KB ≤ medium < 1 MB ≤
/// elephants).
pub const FLOW_CLASSES: [&str; 3] = ["mice", "medium", "elephant"];

/// How hosts split traffic between the optical and electrical fabrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Everything over the optical fabric.
    OpticalOnly,
    /// Everything over the electrical fabric (Clos baseline).
    ElectricalOnly,
    /// Elephants optical, mice electrical (c-Through-style hybrid).
    MiceElectrical,
    /// Use the optical fabric whenever a direct circuit to the destination
    /// is currently up, else the electrical fabric (hybrid RotorNet /
    /// TDTCP-style, Fig. 9).
    HybridDirect,
}

/// Host-side flow-pausing behavior (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PauseMode {
    /// No pausing: packets leave as soon as the NIC frees.
    None,
    /// Hold traffic toward each destination until a direct circuit from
    /// this host's ToR is up (direct-circuit routing / c-Through elephants).
    DirectCircuit,
}

/// Transport used by a flow.
#[derive(Clone, Copy, Debug)]
pub enum TransportKind {
    /// Open-loop pacing at NIC rate with a coarse watchdog retransmit;
    /// right for FCT studies where transport dynamics are not the subject.
    Paced,
    /// The TCP model of [`openoptics_host::tcp`] (Fig. 9).
    Tcp(TcpConfig),
    /// The TDTCP-style per-topology variant of
    /// [`openoptics_host::tdtcp`]: topology 0 = optical, 1 = electrical
    /// (meaningful under [`DispatchPolicy::HybridDirect`]).
    TdTcp(TcpConfig),
}

/// Role a flow plays in an application.
#[derive(Clone, Copy, Debug)]
pub enum FlowKind {
    /// Standalone flow.
    Plain,
    /// Memcached-style request; completion triggers a response and the FCT
    /// clock stops when the *response* lands.
    Request {
        /// Response size the server sends back.
        response_bytes: u32,
    },
    /// The response leg of a request.
    Response {
        /// The request flow whose FCT completes with this response.
        of: FlowId,
    },
    /// One allreduce chunk.
    Chunk {
        /// Index into the engine's collectives.
        collective: usize,
    },
}

#[allow(clippy::large_enum_variant)] // one Transport per flow; boxing buys nothing
#[derive(Clone)]
enum Transport {
    Paced,
    Tcp { sender: TcpSender, receiver: TcpReceiver },
    TdTcp { sender: TdTcpSender, receiver: TcpReceiver },
}

#[derive(Clone)]
struct FlowState {
    src_host: HostId,
    dst_host: HostId,
    bytes: u64,
    /// Bytes handed to the vma stack so far (paced).
    queued: u64,
    /// Payload bytes that reached the destination (capped at `bytes`).
    delivered: u64,
    delivered_at_last_watchdog: u64,
    transport: Transport,
    kind: FlowKind,
    /// Declared service this flow belongs to (SLO accounting), if any.
    service: Option<u16>,
    done: bool,
}

#[derive(Clone)]
struct HostState {
    tor: NodeId,
    /// The main (optical-side) segment stack; subject to flow pausing and
    /// push-back blocks.
    vma: VmaStack,
    /// Separate sockets for mice under the c-Through-style split: drained
    /// ahead of the elephant stack and always dispatched electrically.
    vma_mice: VmaStack,
    nic_free: SimTime,
    tx_scheduled: bool,
    /// Paced flows with bytes not yet queued into vma.
    backlog: Vec<FlowId>,
    aging: FlowAging,
}

#[derive(Clone)]
struct Link {
    queue: ByteQueue<Packet>,
    busy_until: SimTime,
    draining: bool,
}

impl Link {
    fn new(capacity: u64) -> Self {
        Link { queue: ByteQueue::new(capacity), busy_until: SimTime::ZERO, draining: false }
    }
}

#[derive(Clone)]
struct MemcachedApp {
    params: MemcachedParams,
    server: HostId,
    clients: Vec<HostId>,
    stop_at: SimTime,
    service: Option<u16>,
}

#[derive(Clone)]
struct ProbeTrain {
    src: HostId,
    dst: HostId,
    interval_ns: u64,
    remaining: u64,
    payload: u32,
    stats: ProbeStats,
}

/// Simulation events.
#[allow(clippy::large_enum_variant)] // Packet-carrying events dominate by design
#[derive(Clone)]
pub enum Event {
    /// Host NIC may transmit.
    HostTx(HostId),
    /// Packet head reaches a ToR ingress pipeline.
    TorIngress(NodeId, Packet),
    /// Packet fully received by a host.
    HostRx(HostId, Packet),
    /// Slice-boundary rotation at one switch (locally clocked).
    Rotate(NodeId),
    /// An optical uplink is free to transmit.
    PortFree(NodeId, PortId),
    /// An electrical uplink is free.
    ElecFree(NodeId),
    /// A host downlink is free.
    DownlinkFree(HostId),
    /// Check for due offload recalls at a switch.
    OffloadRecall(NodeId),
    /// Re-admit a recalled offloaded packet.
    Reinject(NodeId, u64, PortId, Packet),
    /// Deliver a control message to a host.
    HostControl(HostId, ControlMsg),
    /// Application / transport timer.
    Timer(Timer),
}

/// Application and transport timers.
#[derive(Clone)]
pub enum Timer {
    /// Next memcached operation for `clients[client_idx]` of app `app`.
    MemcachedOp {
        /// Index into the engine's memcached apps.
        app: usize,
        /// Index into that app's client list.
        client_idx: usize,
    },
    /// Paced-flow progress watchdog.
    FlowWatchdog(FlowId),
    /// TCP retransmission-timeout poll.
    TcpRto(FlowId),
    /// Fire the next probe of a train.
    ProbeSend(usize),
    /// Start a pre-scheduled flow.
    FlowStart(usize),
    /// Circuit-notification broadcast: a switch tells its hosts which
    /// destinations the *next* slice connects, ahead of the boundary
    /// (the flow-pausing service's signal, §5.2).
    NotifyHosts(NodeId),
    /// Receiver NACK for a trimmed packet: re-queue the trimmed segment at
    /// the source (Opera-style trim-and-retransmit).
    NackRetx {
        /// Flow whose segment was trimmed.
        flow: FlowId,
        /// Stream sequence of the trimmed segment.
        seq: u64,
    },
    /// An injected fault window opens (index into the fault campaign).
    FaultStart(usize),
    /// An injected fault window closes.
    FaultEnd(usize),
    /// Telemetry sampling tick: append one time-series row / sample frame
    /// and re-arm. Never scheduled when `sample_every_ns` is 0.
    Sample,
}

/// Pre-scheduled flow descriptor.
#[derive(Clone)]
pub struct PendingFlow {
    /// Start time.
    pub at: SimTime,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Payload bytes.
    pub bytes: u64,
    /// Transport.
    pub transport: TransportKind,
    /// Declared service the flow reports latency under, if any.
    pub service: Option<u16>,
}

/// Aggregate packet counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    /// Data packets injected by hosts.
    pub host_tx_packets: u64,
    /// Data packets delivered to hosts.
    pub delivered_packets: u64,
    /// Payload bytes delivered to hosts.
    pub delivered_payload_bytes: u64,
    /// Packets lost in the optical fabric (guardband / dark circuit).
    pub fabric_drops: u64,
    /// Packets dropped at switches (congestion, capacity, rank).
    pub switch_drops: u64,
    /// Packets dropped for lack of any route.
    pub no_route_drops: u64,
    /// Packets dropped at electrical/downlink queues.
    pub link_drops: u64,
    /// Push-back broadcasts delivered to hosts.
    pub pushback_deliveries: u64,
    /// Circuit-notification messages delivered to hosts.
    pub circuit_notifications: u64,
    /// Trimmed packets received (each triggers a NACK retransmission).
    pub trimmed_received: u64,
    /// Packets held at a port because the slice guardband was open.
    pub guardband_holds: u64,
    /// Paced-flow watchdog retransmissions.
    pub watchdog_retransmits: u64,
    /// TCP retransmission timeouts that fired.
    pub rto_retransmits: u64,
    /// TCP fast retransmits (triple-duplicate ACK).
    pub fast_retransmits: u64,
    /// NACK-driven retransmissions of trimmed segments.
    pub nack_retransmits: u64,
    /// Packets destroyed by injected faults (drain-and-drop at failed
    /// ports plus transceiver-flap corruption).
    pub fault_drops: u64,
}

/// Runtime state of an injected fault campaign. Masks are rebuilt from the
/// active flags on every window edge — campaigns are tiny and transitions
/// rare, so a full rebuild keeps overlapping windows on one target correct
/// without reference counting.
#[derive(Clone, Default)]
struct FaultRuntime {
    /// All injected fault windows, campaign order (stable indices).
    specs: Vec<FaultSpec>,
    active: Vec<bool>,
    /// `(node, port)` → fault index whose window black-holes transmissions
    /// (link down / stuck OCS port). First active fault in campaign order
    /// owns the key.
    drop_mask: FxHashMap<(NodeId, PortId), usize>,
    /// `(node, port)` → fault index for transceiver-flap corruption.
    flap_mask: FxHashMap<(NodeId, PortId), usize>,
    /// node → fault index for slice-schedule corruption.
    slice_mask: FxHashMap<NodeId, usize>,
    /// node → fault index for NIC pause storms.
    pause_mask: FxHashMap<NodeId, usize>,
    /// Rotations each fault's node has missed and not yet replayed.
    rotation_lag: Vec<u32>,
    /// Schedule with link-down circuits removed — what routing compiles
    /// against while a link-down window is open. `None` = no mask.
    masked: Option<OpticalSchedule>,
    per_fault: Vec<FaultCounters>,
}

/// Live engine-side instruments: bound once at construction, `detached`
/// (inert) when telemetry is off so hot paths pay one branch.
#[derive(Clone, Default)]
struct EngineTele {
    guardband_holds: Counter,
    trace: Trace,
}

/// Lifecycle cursor for one in-flight sampled data packet: its root span
/// and whichever stage span is currently open.
#[derive(Clone)]
struct PktCursor {
    /// The packet's root span id.
    span: u64,
    /// Owning flow.
    flow: FlowId,
    /// Currently open stage span, if any.
    open: Option<(Stage, u64)>,
}

/// Engine-side observability: sampled causal lifecycle spans plus the
/// per-phase profiler. Every method early-returns on a single branch when
/// span recording is off (and compiles away entirely without the core
/// `obs` feature, where [`Spans`]/[`Profiler`] are zero-sized no-ops).
#[derive(Clone)]
struct ObsState {
    spans: Spans,
    profiler: Profiler,
    /// Flow id → its root flow span.
    flow_spans: FxHashMap<FlowId, u64>,
    /// Packet id → lifecycle cursor.
    cursors: FxHashMap<u64, PktCursor>,
}

impl ObsState {
    fn new(cfg: &NetConfig) -> Self {
        ObsState {
            spans: Spans::bounded(cfg.span_sample_every, cfg.seed, cfg.span_capacity as usize),
            profiler: if cfg.telemetry { Profiler::enabled() } else { Profiler::detached() },
            flow_spans: FxHashMap::default(),
            cursors: FxHashMap::default(),
        }
    }

    /// Open the flow's root span, if the flow falls in the sample.
    fn flow_begin(&mut self, flow: FlowId, now: SimTime) {
        if !self.spans.samples(flow) || !self.spans.admit() {
            return;
        }
        let s = self.spans.span_begin(now, 0, flow, 0, Stage::Flow, 0);
        self.flow_spans.insert(flow, s);
    }

    /// Close the flow's root span (finalization raises the end further if
    /// a retransmitted packet lands later).
    fn flow_end(&mut self, flow: FlowId, now: SimTime) {
        if let Some(s) = self.flow_spans.remove(&flow) {
            self.spans.span_end(now, s, Stage::Flow);
        }
    }

    /// Open a packet's root span under its flow, covering the host tx
    /// queue wait `[queued_at, now]` as the first stage.
    fn packet_begin(&mut self, flow: FlowId, pkt: u64, queued_at: SimTime, now: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        let Some(&fs) = self.flow_spans.get(&flow) else { return };
        if !self.spans.admit() {
            return;
        }
        let at = queued_at.min(now);
        let ps = self.spans.span_begin(at, fs, flow, pkt, Stage::Packet, 0);
        let q = self.spans.span_begin(at, ps, flow, pkt, Stage::HostTxQueue, 0);
        self.spans.span_end(now, q, Stage::HostTxQueue);
        self.cursors.insert(pkt, PktCursor { span: ps, flow, open: None });
    }

    /// Close the packet's currently open stage span, if any, at `at`.
    fn close_open(&mut self, pkt: u64, at: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        let Some(c) = self.cursors.get_mut(&pkt) else { return };
        if let Some((stage, s)) = c.open.take() {
            // Dynamic close: the stage is whatever was opened last. The
            // `span-paired` lint checks literal-stage begins; each stage
            // opened through [`ObsState::open`] gets its literal close in
            // one of these arms.
            match stage {
                Stage::CalendarWait => self.spans.span_end(at, s, Stage::CalendarWait),
                Stage::GuardbandHold => self.spans.span_end(at, s, Stage::GuardbandHold),
                Stage::Propagation => self.spans.span_end(at, s, Stage::Propagation),
                Stage::Rx => self.spans.span_end(at, s, Stage::Rx),
                other => self.spans.span_end(at, s, other),
            }
        }
    }

    /// Transition the packet to `stage` at `at`: closes the open stage
    /// span (stages tile — no gaps, no overlap) and opens the next.
    fn open(&mut self, pkt: u64, stage: Stage, at: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        let Some(c) = self.cursors.get_mut(&pkt) else { return };
        let s = self.spans.span_begin(at, c.span, c.flow, pkt, stage, 0);
        c.open = Some((stage, s));
    }

    /// Begin (or continue) a guardband hold for the packet at the head of
    /// a held port. Repeated holds on the same head extend the same span.
    fn hold_begin(&mut self, pkt: u64, at: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        match self.cursors.get(&pkt) {
            Some(c) if matches!(c.open, Some((Stage::GuardbandHold, _))) => {}
            Some(_) => self.open(pkt, Stage::GuardbandHold, at),
            None => {}
        }
    }

    /// The packet left a queue and serializes onto the wire for `tx` ns:
    /// closes the open wait span at `at` and records the full
    /// serialization interval (its end is already known).
    fn serialized(&mut self, pkt: u64, at: SimTime, tx: u64) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        let Some(c) = self.cursors.get(&pkt) else { return };
        let s = self.spans.span_begin(at, c.span, c.flow, pkt, Stage::Serialization, 0);
        self.spans.span_end(at + tx, s, Stage::Serialization);
    }

    /// The packet reached its destination host: close the open stage, mark
    /// the transport hand-off, and end the packet span.
    fn delivered(&mut self, pkt: u64, at: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        if let Some(c) = self.cursors.remove(&pkt) {
            self.spans.span_mark(at, c.span, c.flow, pkt, Stage::TcpDelivery, 0);
            self.spans.span_end(at, c.span, Stage::Packet);
        }
    }

    /// The packet was dropped (`site`: 1 switch, 2 no-route, 3 fabric,
    /// 4 link queue, 5 trimmed): annotate and end the packet span.
    fn dropped(&mut self, pkt: u64, at: SimTime, site: u64) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        if let Some(c) = self.cursors.remove(&pkt) {
            self.spans.span_mark(at, c.span, c.flow, pkt, Stage::Drop, site);
            self.spans.span_end(at, c.span, Stage::Packet);
        }
    }

    /// The packet was eaten by an injected fault (`code` =
    /// `FaultKind::code`): annotate and end the packet span.
    fn fault_dropped(&mut self, pkt: u64, at: SimTime, code: u64) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        if let Some(c) = self.cursors.remove(&pkt) {
            self.spans.span_mark(at, c.span, c.flow, pkt, Stage::FaultDrop, code);
            self.spans.span_end(at, c.span, Stage::Packet);
        }
    }

    /// Annotate the flow with a retransmission trigger (`code` mirrors
    /// `RetxKind`: 1 watchdog, 2 RTO, 3 fast, 4 NACK).
    fn retransmit_mark(&mut self, flow: FlowId, at: SimTime, code: u64) {
        if !self.spans.is_on() {
            return;
        }
        if let Some(&fs) = self.flow_spans.get(&flow) {
            self.spans.span_mark(at, fs, flow, 0, Stage::Retransmit, code);
        }
    }
}

/// The profiler phase charged for an engine event.
fn phase_of(event: &Event) -> Phase {
    match event {
        Event::HostTx(_) => Phase::HostTx,
        Event::TorIngress(..) => Phase::TorIngress,
        Event::HostRx(..) => Phase::HostRx,
        Event::Rotate(_) => Phase::Rotate,
        Event::PortFree(..) => Phase::PortFree,
        Event::ElecFree(_) => Phase::ElecFree,
        Event::DownlinkFree(_) => Phase::DownlinkFree,
        Event::OffloadRecall(_) => Phase::OffloadRecall,
        Event::Reinject(..) => Phase::Reinject,
        Event::HostControl(..) => Phase::HostControl,
        Event::Timer(_) => Phase::Timer,
    }
}

/// The engine: all network state plus the event interpreter.
///
/// `Clone` is derived so it stays field-complete by construction (a new
/// field that cannot be cloned breaks the build, not determinism), but the
/// derived copy shares telemetry/obs buffers through their `Rc` handles —
/// use [`Engine::fork`] for the independent copy checkpoint forks need.
#[derive(Clone)]
pub struct Engine {
    /// Static configuration this engine was built from.
    pub cfg: NetConfig,
    slice_cfg: SliceConfig,
    fabric: Fabric,
    tors: Vec<ToRSwitch>,
    hosts: Vec<HostState>,
    /// Electrical uplink per ToR (if the electrical fabric is enabled).
    elec: Vec<Link>,
    elec_bw: Option<Bandwidth>,
    downlinks: Vec<Link>,
    port_pending: Vec<Vec<bool>>,
    /// Per-port transmitted bytes (bw_usage telemetry).
    tx_bytes_per_port: Vec<Vec<u64>>,
    router: Option<RouterSpec>,
    pipeline: PipelineModel,
    sync: ClockSync,
    flows: FxHashMap<FlowId, FlowState>,
    next_flow_id: FlowId,
    next_pkt_id: u64,
    /// Flow-completion-time collector.
    pub fct: FctStats,
    memcached: Vec<MemcachedApp>,
    probe_trains: Vec<ProbeTrain>,
    collectives: Vec<RingAllreduce>,
    /// Service tag of each collective's chunk flows, if any.
    collective_service: Vec<Option<u16>>,
    /// Completion time of each collective, once done.
    pub collective_done: Vec<Option<SimTime>>,
    /// Pre-scheduled flows (installed before run).
    pending_flows: Vec<PendingFlow>,
    tm_accum: TrafficMatrix,
    rng: SimRng,
    /// Outstanding `OffloadRecall` firing times per node. Every offloaded
    /// packet wants a recall at its batch deadline, so without dedup a
    /// slice-rank's worth of packets schedules a storm of same-time recall
    /// events of which only the first does any work (table3's dominant
    /// cost). Scheduling goes through [`Engine::schedule_recall`], which
    /// skips exact-duplicate times; the surviving event is the
    /// first-scheduled one, so the drain happens at the same (time, order)
    /// point the first duplicate fired at before.
    recall_outstanding: Vec<Vec<SimTime>>,
    /// Fabric dispatch policy.
    pub policy: DispatchPolicy,
    /// Host pausing behavior.
    pub pause_mode: PauseMode,
    /// Aggregate counters.
    pub counters: EngineCounters,
    /// When `true`, per-packet one-way delays of delivered data packets are
    /// appended to [`Engine::delay_samples`] (Table 4 telemetry).
    pub record_delays: bool,
    /// When `false`, the paced-flow watchdog stops re-sending lost bytes —
    /// loss/delay measurements then observe first-transmission behavior
    /// (open-loop trace replay) instead of a retransmission storm.
    pub watchdog_retransmit: bool,
    /// One-way delays (ns) of delivered data packets, when recording.
    pub delay_samples: Vec<u64>,
    /// Metrics registry + trace stream (disabled = every handle detached).
    telemetry: Registry,
    /// Engine-side live instruments.
    tele: EngineTele,
    /// Declared services: per-service latency sketches + SLO accounting.
    services: Vec<ServiceStats>,
    /// Per-flow-class FCT sketches (mice/medium/elephant), fed on every
    /// completion while telemetry is on.
    class_sketches: [QuantileSketch; 3],
    /// Sim-time-sampled counter/gauge/service series (empty unless
    /// `sample_every_ns > 0`). Rows are immutable and shared, so a clone
    /// or fork copies pointers, not history.
    timeseries: TimeSeries,
    /// Frames for streaming subscriptions: the time series' own sample
    /// rows plus rendered SLO-transition and flight-recorder lines.
    frames: FrameLog,
    /// Injected fault campaign, if any (`None` = sunny-day run).
    faults: Option<FaultRuntime>,
    /// Lifecycle spans + phase profiler (inert unless configured).
    obs: ObsState,
}

#[derive(Clone)]
struct RouterSpec {
    algo: Box<dyn RoutingAlgorithm>,
    lookup: LookupMode,
    multipath: MultipathMode,
    /// TA mode: wildcard-slice routing over the topology instance.
    ta: bool,
}

impl Engine {
    /// Build an engine for `schedule` under `cfg`.
    pub fn new(cfg: NetConfig, schedule: OpticalSchedule) -> Self {
        let slice_cfg = schedule.slice_config();
        let n = cfg.node_num;
        let profile = if cfg.emulated_fabric {
            FabricProfile::Emulated { propagation_ns: 100, cut_through_ns: 400 }
        } else {
            FabricProfile::RealOcs { propagation_ns: 100 }
        };
        let mut fabric = Fabric::new(schedule, profile, cfg.ocs_reconfig_ns);
        fabric.set_dead_window_ns(cfg.fabric_dead_ns.min(slice_cfg.slice_ns / 2));
        let mut rng = SimRng::new(cfg.seed);
        let sync = if cfg.sync_err_ns == 0 {
            ClockSync::perfect(n)
        } else {
            ClockSync::uniform(n, cfg.sync_err_ns, &mut rng)
        };
        let policy_cfg = CongestionConfig {
            detection_enabled: cfg.congestion_detection,
            threshold_bytes: cfg.congestion_threshold,
            policy: match cfg.congestion_policy.as_str() {
                "drop" => CongestionPolicy::Drop,
                "trim" => CongestionPolicy::Trim,
                "wait" => CongestionPolicy::Wait,
                _ => CongestionPolicy::Defer { max_extra_slices: cfg.defer_max_extra_slices },
            },
        };
        let offload = cfg.offload.then_some(OffloadPolicy {
            keep_ranks: cfg.offload_keep_ranks,
            return_lead_ns: cfg.offload_return_lead_ns,
        });
        let telemetry = Registry::new(cfg.telemetry, cfg.trace_capacity as usize);
        let tele = EngineTele {
            guardband_holds: telemetry.counter("engine.guardband_holds", Labels::None),
            trace: telemetry.trace(),
        };
        let tors: Vec<ToRSwitch> = (0..n)
            .map(|i| {
                let mut tor = ToRSwitch::new(TorConfig {
                    id: NodeId(i),
                    slice_cfg,
                    uplinks: cfg.uplink,
                    uplink_bandwidth: cfg.uplink_bandwidth(),
                    num_queues: cfg.num_queues.min(slice_cfg.num_slices as usize).max(1),
                    queue_capacity: cfg.queue_capacity,
                    congestion: policy_cfg,
                    pushback_enabled: cfg.pushback,
                    offload,
                    eqo_interval_ns: cfg.eqo_interval_ns,
                    use_true_occupancy: cfg.eqo_ground_truth,
                });
                tor.attach_telemetry(&telemetry);
                tor
            })
            .collect();
        let hosts: Vec<HostState> = (0..cfg.total_hosts())
            .map(|h| HostState {
                tor: NodeId(h / cfg.hosts_per_node),
                vma: VmaStack::new(cfg.segment_queue_bytes),
                vma_mice: VmaStack::new(cfg.segment_queue_bytes),
                nic_free: SimTime::ZERO,
                tx_scheduled: false,
                backlog: vec![],
                aging: FlowAging::new(cfg.elephant_threshold),
            })
            .collect();
        let elec = (0..n).map(|_| Link::new(16 * 1024 * 1024)).collect();
        let downlinks = (0..cfg.total_hosts()).map(|_| Link::new(16 * 1024 * 1024)).collect();
        let obs = ObsState::new(&cfg);
        Engine {
            slice_cfg,
            fabric,
            port_pending: vec![vec![false; cfg.uplink as usize]; n as usize],
            tx_bytes_per_port: vec![vec![0; cfg.uplink as usize]; n as usize],
            tors,
            hosts,
            elec,
            elec_bw: cfg.electrical_bandwidth(),
            downlinks,
            router: None,
            pipeline: PipelineModel::default(),
            sync,
            flows: FxHashMap::default(),
            next_flow_id: 1,
            next_pkt_id: 1,
            fct: FctStats::new(),
            memcached: vec![],
            probe_trains: vec![],
            collectives: vec![],
            collective_service: vec![],
            collective_done: vec![],
            pending_flows: vec![],
            tm_accum: TrafficMatrix::zeros(n as usize),
            rng,
            recall_outstanding: vec![vec![]; n as usize],
            policy: DispatchPolicy::OpticalOnly,
            pause_mode: PauseMode::None,
            counters: EngineCounters::default(),
            record_delays: false,
            watchdog_retransmit: true,
            delay_samples: vec![],
            telemetry,
            tele,
            services: vec![],
            class_sketches: [QuantileSketch::new(), QuantileSketch::new(), QuantileSketch::new()],
            timeseries: TimeSeries::new(SAMPLE_CAPACITY),
            frames: FrameLog::new(FRAME_CAPACITY),
            faults: None,
            obs,
            cfg,
        }
    }

    /// An independent copy of the whole engine — the warm-state leg of a
    /// checkpoint fork. The derived `Clone` copies all simulation state but
    /// shares telemetry/obs buffers through `Rc` handles; this method then
    /// deep-clones those buffers and re-binds every held instrument handle
    /// against the copy, so the fork and the original diverge without ever
    /// writing into each other's exports.
    pub fn fork(&self) -> Engine {
        let mut e = self.clone();
        e.telemetry = self.telemetry.deep_clone();
        e.tele = EngineTele {
            guardband_holds: e.telemetry.counter("engine.guardband_holds", Labels::None),
            trace: e.telemetry.trace(),
        };
        let reg = e.telemetry.clone();
        for tor in &mut e.tors {
            tor.attach_telemetry(&reg);
        }
        e.obs.spans = self.obs.spans.deep_clone();
        e.obs.profiler = self.obs.profiler.deep_clone();
        e
    }

    /// Whether lifecycle-span recording is active for this engine.
    pub fn has_span_recording(&self) -> bool {
        self.obs.spans.is_on()
    }

    /// A finalized, well-formed copy of the recorded span stream at sim
    /// time `now` (still-open spans get synthesized ends; parent ends are
    /// extended to cover late children). Empty when spans are off.
    pub fn span_events(&self, now: SimTime) -> Vec<SpanEvent> {
        self.obs.spans.finalized_events(now)
    }

    /// The engine-phase profiler handle (for reports and for the bench
    /// binary to install a wall clock into).
    pub fn profiler(&self) -> &Profiler {
        &self.obs.profiler
    }

    /// The metrics registry this engine reports into. Disabled when the
    /// configuration said `telemetry: false`.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Mirror engine-side plain counters into the registry so a snapshot
    /// sees them. Cheap relative to a snapshot; call before snapshotting.
    /// `queue_stats` carries the event-queue statistics, which live outside
    /// the engine (the sim crate does not depend on telemetry).
    pub fn sync_telemetry(&self, queue_stats: Option<openoptics_sim::QueueStats>) {
        let reg = &self.telemetry;
        if !reg.is_enabled() {
            return;
        }
        let c = &self.counters;
        for (name, v) in [
            ("engine.host_tx_packets", c.host_tx_packets),
            ("engine.delivered_packets", c.delivered_packets),
            ("engine.delivered_payload_bytes", c.delivered_payload_bytes),
            ("engine.fabric_drops", c.fabric_drops),
            ("engine.switch_drops", c.switch_drops),
            ("engine.no_route_drops", c.no_route_drops),
            ("engine.link_drops", c.link_drops),
            ("engine.pushback_deliveries", c.pushback_deliveries),
            ("engine.circuit_notifications", c.circuit_notifications),
            ("engine.trimmed_received", c.trimmed_received),
            ("engine.watchdog_retransmits", c.watchdog_retransmits),
            ("engine.rto_retransmits", c.rto_retransmits),
            ("engine.fast_retransmits", c.fast_retransmits),
            ("engine.nack_retransmits", c.nack_retransmits),
            ("engine.fault_drops", c.fault_drops),
        ] {
            reg.counter(name, Labels::None).set(v);
        }
        if let Some(qs) = queue_stats {
            reg.counter("sim.events_scheduled", Labels::None).set(qs.scheduled_total);
            reg.counter("sim.events_popped", Labels::None).set(qs.popped_total);
            reg.counter("sim.events_far_scheduled", Labels::None).set(qs.far_scheduled);
            reg.counter("sim.events_overlay_scheduled", Labels::None).set(qs.overlay_scheduled);
            reg.gauge("sim.queue_len", Labels::None).set(qs.len as i64);
            reg.gauge("sim.queue_peak_len", Labels::None).set(qs.peak_len as i64);
        }
        for (name, v) in self.fabric.counter_pairs() {
            reg.counter(name, Labels::None).set(v);
        }
        for t in &self.tors {
            let node = Labels::Node(t.cfg.id);
            let tc = t.counters;
            for (name, v) in [
                ("tor.enqueued", tc.enqueued),
                ("tor.delivered_local", tc.delivered_local),
                ("tor.deferred", tc.deferred),
                ("tor.defer_exhausted", tc.defer_exhausted),
                ("tor.trimmed", tc.trimmed),
                ("tor.dropped_congestion", tc.dropped_congestion),
                ("tor.dropped_capacity", tc.dropped_capacity),
                ("tor.dropped_rank", tc.dropped_rank),
                ("tor.tx_bytes", tc.tx_bytes),
                ("tor.tx_packets", tc.tx_packets),
            ] {
                reg.counter(name, node).set(v);
            }
            let (pb_events, pb_emitted) = t.pushback_stats();
            reg.counter("tor.pushback_events", node).set(pb_events);
            reg.counter("tor.pushback_emitted", node).set(pb_emitted);
            reg.counter("tor.rank_overflows", node).set(t.rank_overflows());
            reg.counter("tor.offloaded_packets", node).set(t.offload_book.offloaded_packets);
            reg.gauge("tor.buffer_bytes", node).set(t.buffer_bytes().min(i64::MAX as u64) as i64);
            reg.gauge("tor.peak_buffer_bytes", node)
                .set(t.peak_buffer_bytes.min(i64::MAX as u64) as i64);
        }
        let mut pauses = 0u64;
        let mut resumes = 0u64;
        let mut blocks = 0u64;
        let mut app_pushbacks = 0u64;
        let mut queued = 0u64;
        for h in &self.hosts {
            for v in [&h.vma, &h.vma_mice] {
                pauses += v.pause_events;
                resumes += v.resume_events;
                blocks += v.block_events;
                app_pushbacks += v.app_pushback_events;
                queued += v.total_queued();
            }
        }
        reg.counter("host.vma_pause_transitions", Labels::None).set(pauses);
        reg.counter("host.vma_resume_transitions", Labels::None).set(resumes);
        reg.counter("host.vma_block_extensions", Labels::None).set(blocks);
        reg.counter("host.vma_app_pushbacks", Labels::None).set(app_pushbacks);
        reg.gauge("host.vma_queued_bytes", Labels::None).set(queued.min(i64::MAX as u64) as i64);
        reg.gauge("fabric.sync_max_err_ns", Labels::None)
            .set(self.sync.max_err_ns().min(i64::MAX as u64) as i64);
        reg.counter("fct.completed_flows", Labels::None).set(self.fct.completed().len() as u64);
        if let Some(f) = &self.faults {
            let mut sums = FaultCounters::default();
            for c in &f.per_fault {
                sums.activations += c.activations;
                sums.dropped += c.dropped;
                sums.corrupted += c.corrupted;
                sums.missed_rotations += c.missed_rotations;
                sums.paused_tx += c.paused_tx;
                sums.reroutes += c.reroutes;
            }
            for (name, v) in [
                ("faults.activations", sums.activations),
                ("faults.dropped", sums.dropped),
                ("faults.corrupted", sums.corrupted),
                ("faults.missed_rotations", sums.missed_rotations),
                ("faults.paused_tx", sums.paused_tx),
                ("faults.reroutes", sums.reroutes),
            ] {
                reg.counter(name, Labels::None).set(v);
            }
        }
        self.obs.spans.mirror_into(reg);
        self.obs.profiler.mirror_into(reg);
    }

    // -- services, sampling, and the frame stream ---------------------------

    /// Declare a service: a named latency stream flows can be tagged with,
    /// with optional SLO accounting. Returns the service id used for
    /// tagging. Declaration order is the id order, so scenario-driven and
    /// programmatic declaration produce identical exports.
    pub fn declare_service(&mut self, name: &str, slo: Option<SloTarget>) -> u16 {
        self.services.push(ServiceStats::new(name.to_string(), slo));
        u16::try_from(self.services.len() - 1).expect("more than 65535 declared services")
    }

    /// Declared services, in declaration (= id) order.
    pub fn services(&self) -> &[ServiceStats] {
        &self.services
    }

    /// Per-flow-class FCT sketches, index-aligned with [`FLOW_CLASSES`].
    pub fn class_sketches(&self) -> &[QuantileSketch; 3] {
        &self.class_sketches
    }

    /// The sampled time series (empty unless `sample_every_ns > 0`).
    pub fn timeseries(&self) -> &TimeSeries {
        &self.timeseries
    }

    /// The subscription frame log.
    pub fn frames(&self) -> &FrameLog {
        &self.frames
    }

    /// Feed one completed flow into latency accounting: its class sketch
    /// always, and — when tagged — its service's sketch and SLO state. An
    /// SLO breach-state transition is traced and pushed as a frame.
    fn note_completion(&mut self, rec: FlowRecord, service: Option<u16>, now: SimTime) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let fct = rec.fct_ns();
        let class = if rec.bytes < MICE_MAX_BYTES {
            0
        } else if rec.bytes < ELEPHANT_MIN_BYTES {
            1
        } else {
            2
        };
        self.class_sketches[class].record(fct);
        let Some(sid) = service else { return };
        let fault_active = self.faults.as_ref().is_some_and(|f| f.active.iter().any(|&a| a));
        let Some(svc) = self.services.get_mut(sid as usize) else { return };
        let Some(transition) = svc.record(now.as_ns(), fct, fault_active) else { return };
        let (state, kind) = match transition {
            SloTransition::Breach => ("breach", TraceKind::SloBreach { service: u32::from(sid) }),
            SloTransition::Recover => {
                ("recover", TraceKind::SloRecover { service: u32::from(sid) })
            }
        };
        let line = format!(
            "{{\"frame\":\"slo\",\"t_ns\":{},\"service\":\"{}\",\"state\":\"{}\",\
             \"burn_milli\":{},\"bad\":{},\"total\":{}}}",
            now.as_ns(),
            svc.name(),
            state,
            svc.burn_milli(),
            svc.bad(),
            svc.total(),
        );
        self.frames.push(line);
        self.tele.trace.emit(now, kind);
    }

    /// One sampling tick: mirror counters, read every counter and gauge
    /// value into a row of the time series, and share that row with the
    /// frame log.
    pub(crate) fn take_sample(
        &mut self,
        now: SimTime,
        queue_stats: Option<openoptics_sim::QueueStats>,
    ) {
        self.sync_telemetry(queue_stats);
        let services = self.services.iter().map(|s| s.summary()).collect();
        let row = self.timeseries.sample(now.as_ns(), &self.telemetry, services);
        self.frames.push_sample(row);
    }

    /// Dump the flight recorder — the trace stream's ring of most recent
    /// records — into the frame stream, then trace the dump itself. Called
    /// on fault activation and when a strict-invariants check is about to
    /// trip; no-op when tracing is off.
    fn flight_dump(&mut self, now: SimTime, trigger: FlightTrigger) {
        if !self.tele.trace.is_on() {
            return;
        }
        let recent = self.tele.trace.recent_records();
        let mut line = String::with_capacity(64 + recent.len() * 72);
        use std::fmt::Write as _;
        let _ = write!(
            line,
            "{{\"frame\":\"flight\",\"t_ns\":{},\"trigger\":\"{}\",\"records\":[",
            now.as_ns(),
            trigger.as_str(),
        );
        for (i, rec) in recent.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&rec.to_json());
        }
        line.push_str("]}");
        self.frames.push(line);
        self.tele
            .trace
            .emit(now, TraceKind::FlightDump { trigger, records: idx_u32(recent.len()) });
    }

    // -- fault injection -----------------------------------------------------

    /// Install (or extend) the fault campaign. The plan is validated
    /// against this engine's shape (`node_num`, `uplink`) and against
    /// `not_before` — window starts must not lie in the simulated past.
    /// Returns the campaign indices the new windows occupy so the caller
    /// can schedule their edges as events.
    pub fn set_fault_plan(
        &mut self,
        plan: &FaultPlan,
        not_before: SimTime,
    ) -> Result<std::ops::Range<usize>, FaultError> {
        plan.validate_against(self.cfg.node_num, u32::from(self.cfg.uplink), not_before)?;
        let f = self.faults.get_or_insert_with(FaultRuntime::default);
        let lo = f.specs.len();
        f.specs.extend_from_slice(plan.faults());
        f.active.resize(f.specs.len(), false);
        f.rotation_lag.resize(f.specs.len(), 0);
        f.per_fault.resize(f.specs.len(), FaultCounters::default());
        Ok(lo..f.specs.len())
    }

    /// The fault window at campaign index `idx`, if one is installed.
    pub fn fault_spec(&self, idx: usize) -> Option<FaultSpec> {
        self.faults.as_ref().and_then(|f| f.specs.get(idx).copied())
    }

    /// Results of the injected fault campaign. Campaign-wide totals come
    /// from the engine counters; the per-fault breakdown is empty when no
    /// plan was installed.
    pub fn fault_report(&self) -> FaultReport {
        let mut r = FaultReport {
            delivered: self.counters.delivered_packets,
            retransmitted: self.counters.rto_retransmits
                + self.counters.watchdog_retransmits
                + self.counters.fast_retransmits
                + self.counters.nack_retransmits,
            ..FaultReport::default()
        };
        if let Some(f) = &self.faults {
            r.per_fault = f.per_fault.clone();
            for c in &f.per_fault {
                r.dropped += c.dropped;
                r.corrupted += c.corrupted;
                r.rerouted += c.reroutes;
                r.missed_rotations += c.missed_rotations;
                r.paused_tx += c.paused_tx;
            }
        }
        r
    }

    /// Rebuild every fault mask from the campaign's active flags, including
    /// the link-down-masked schedule routing compiles against. Called on
    /// every window edge; for a key claimed by overlapping windows, the
    /// first active fault in campaign order owns it.
    fn rebuild_fault_masks(&mut self) {
        let Some(f) = &mut self.faults else { return };
        f.drop_mask.clear();
        f.flap_mask.clear();
        f.slice_mask.clear();
        f.pause_mask.clear();
        let mut down: Vec<(NodeId, PortId)> = vec![];
        for (i, s) in f.specs.iter().enumerate() {
            if !f.active[i] {
                continue;
            }
            match s.kind {
                FaultKind::LinkDown => {
                    f.drop_mask.entry((s.node, s.port)).or_insert(i);
                    down.push((s.node, s.port));
                }
                FaultKind::OcsPortStuck => {
                    f.drop_mask.entry((s.node, s.port)).or_insert(i);
                }
                FaultKind::TransceiverFlap { .. } => {
                    f.flap_mask.entry((s.node, s.port)).or_insert(i);
                }
                FaultKind::SliceCorruption => {
                    f.slice_mask.entry(s.node).or_insert(i);
                }
                FaultKind::NicPauseStorm => {
                    f.pause_mask.entry(s.node).or_insert(i);
                }
            }
        }
        f.masked = if down.is_empty() {
            None
        } else {
            let sched = self.fabric.schedule();
            let kept: Vec<Circuit> = sched
                .circuits()
                .iter()
                .filter(|c| !down.iter().any(|&(n, p)| c.peer_of(n, p).is_some()))
                .copied()
                .collect();
            // A subset of a valid circuit list stays valid (validation is
            // per-circuit ranges plus pairwise conflicts); if the rebuild
            // fails anyway, fall back to the unmasked schedule — the drop
            // mask alone still degrades gracefully.
            OpticalSchedule::build(sched.slice_config(), sched.num_nodes(), sched.uplinks(), &kept)
                .ok()
        };
    }

    /// One fault window edge: activate or clear campaign fault `idx`.
    fn on_fault_transition(
        &mut self,
        idx: usize,
        up: bool,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let Some(f) = &mut self.faults else { return };
        let Some(spec) = f.specs.get(idx).copied() else { return };
        if f.active[idx] == up {
            return;
        }
        f.active[idx] = up;
        if up {
            f.per_fault[idx].activations += 1;
        }
        let lag = if !up && spec.kind == FaultKind::SliceCorruption {
            std::mem::take(&mut f.rotation_lag[idx])
        } else {
            0
        };
        self.rebuild_fault_masks();
        if spec.kind == FaultKind::LinkDown {
            // Link-down edges are visible to the controller: stale route
            // tables are dropped so the next lookup recompiles against the
            // masked time-expanded graph (bounded by the router's hop
            // horizon — the reroute cannot wander).
            for t in &mut self.tors {
                t.tft_mut().clear();
            }
            if let Some(f) = &mut self.faults {
                f.per_fault[idx].reroutes += 1;
            }
        }
        // A recovering slice-corrupted switch replays its missed rotations
        // to resynchronize its calendar with the fabric.
        for _ in 0..lag {
            self.tors[spec.node.index()].rotate(now);
        }
        if !up {
            // A cleared fault can unblock traffic already queued at the node.
            self.kick_all_ports(spec.node, now, q);
        }
        let kind = if up {
            TraceKind::FaultInject { node: spec.node, port: spec.port }
        } else {
            TraceKind::FaultClear { node: spec.node, port: spec.port }
        };
        self.tele.trace.emit(now, kind);
        if up {
            // A fault firing is exactly the moment a subscriber wants the
            // recent trace tail: dump the flight recorder (which now ends
            // with the FaultInject record just emitted).
            self.flight_dump(now, FlightTrigger::FaultEdge);
        }
        self.obs.profiler.mark(Phase::FaultRuntime);
    }

    /// Whether a fault destroys the packet about to leave `(node, port)`:
    /// `Some((fault, corrupted))` — drop-masked ports always lose it,
    /// flapping transceivers lose it with the configured probability (drawn
    /// from the engine's seeded RNG, so runs replay identically).
    fn fault_tx_check(&mut self, node: NodeId, port: PortId) -> Option<(usize, bool)> {
        let f = self.faults.as_ref()?;
        if let Some(&i) = f.drop_mask.get(&(node, port)) {
            return Some((i, false));
        }
        let &i = f.flap_mask.get(&(node, port))?;
        let pct = match f.specs[i].kind {
            FaultKind::TransceiverFlap { corrupt_pct } => u32::from(corrupt_pct),
            _ => 0,
        };
        if self.rng.range(0..100u32) < pct {
            Some((i, true))
        } else {
            None
        }
    }

    /// Set the routing scheme (`deploy_routing`). `ta` selects
    /// wildcard-slice (topology-instance) routing.
    pub fn set_router(
        &mut self,
        algo: Box<dyn RoutingAlgorithm>,
        lookup: LookupMode,
        multipath: MultipathMode,
        ta: bool,
    ) {
        self.router = Some(RouterSpec { algo, lookup, multipath, ta });
        // Route tables derived from the old schedule/algorithm are stale.
        for t in &mut self.tors {
            t.tft_mut().clear();
        }
    }

    /// Move the routing scheme out of `from` into this engine, updating its
    /// TA flag for this engine's schedule. Used when `deploy_topo` replaces
    /// an unprimed engine wholesale: the routing deployed on the old engine
    /// survives the swap (route tables start empty in a fresh engine, so
    /// there is nothing stale to clear).
    pub(crate) fn adopt_router(&mut self, from: &mut Engine, ta: bool) {
        self.router = from.router.take();
        if let Some(spec) = &mut self.router {
            spec.ta = ta;
        }
    }

    /// Re-derive the router's TA flag after a schedule change (a
    /// reconfiguration can move between a held instance and a rotating
    /// schedule, e.g. SORN growing extra slices).
    pub(crate) fn refresh_router_ta(&mut self, ta: bool) {
        if let Some(spec) = &mut self.router {
            spec.ta = ta;
        }
    }

    /// Whether a routing scheme is installed.
    pub fn has_router(&self) -> bool {
        self.router.is_some()
    }

    /// Replace the optical schedule (TA reconfiguration). Honors the OCS
    /// reconfiguration delay; routing tables are cleared so new paths are
    /// computed against the new topology.
    pub fn reconfigure_schedule(&mut self, schedule: OpticalSchedule, now: SimTime) -> SimTime {
        let done = self.fabric.reconfigure(schedule, now);
        self.fabric.set_dead_window_ns(self.cfg.fabric_dead_ns.min(self.slice_cfg.slice_ns / 2));
        for t in &mut self.tors {
            t.tft_mut().clear();
        }
        // Link-down masks derived from the old schedule are stale; rebuild
        // (they refresh again at the next fault window edge).
        self.rebuild_fault_masks();
        done
    }

    /// The active optical schedule.
    pub fn schedule(&self) -> &OpticalSchedule {
        self.fabric.schedule()
    }

    /// Direct access to a switch (telemetry).
    pub fn tor(&self, node: NodeId) -> &ToRSwitch {
        &self.tors[node.index()]
    }

    /// Mutable switch access (used by the `add()` API).
    pub fn tor_mut(&mut self, node: NodeId) -> &mut ToRSwitch {
        &mut self.tors[node.index()]
    }

    /// Fabric loss counters.
    pub fn fabric_stats(&self) -> (u64, u64) {
        (self.fabric.delivered, self.fabric.total_lost())
    }

    /// The ToR a host hangs off.
    pub fn host_tor(&self, host: HostId) -> NodeId {
        self.hosts[host.index()].tor
    }

    /// Per-port transmitted bytes (`bw_usage`).
    pub fn port_tx_bytes(&self, node: NodeId, port: PortId) -> u64 {
        self.tx_bytes_per_port[node.index()][port.index()]
    }

    /// Aggregate the hosts' per-destination vma queue depths into a demand
    /// matrix — the c-Through-style collection mode where "hosts
    /// periodically report traffic volume per destination switch" (§5.2).
    /// Rows are the reporting hosts' ToRs.
    pub fn host_pending_demand(&self) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zeros(self.cfg.node_num as usize);
        for h in &self.hosts {
            for (dst, bytes) in h.vma.queue_snapshot() {
                tm.add(h.tor, dst, bytes as f64);
            }
        }
        tm
    }

    /// Drain and return the accumulated traffic matrix (`collect`).
    pub fn take_traffic_matrix(&mut self) -> TrafficMatrix {
        std::mem::replace(&mut self.tm_accum, TrafficMatrix::zeros(self.cfg.node_num as usize))
    }

    /// Bytes delivered so far for a flow.
    pub fn flow_delivered(&self, flow: FlowId) -> u64 {
        self.flows
            .get(&flow)
            .map(|f| match &f.transport {
                Transport::Tcp { receiver, .. } | Transport::TdTcp { receiver, .. } => {
                    receiver.delivered_bytes
                }
                Transport::Paced => f.delivered,
            })
            .unwrap_or(0)
    }

    /// Reordering events observed by a TCP flow's receiver (Fig. 9b).
    pub fn flow_reorder_events(&self, flow: FlowId) -> u64 {
        self.flows
            .get(&flow)
            .map(|f| match &f.transport {
                Transport::Tcp { receiver, .. } | Transport::TdTcp { receiver, .. } => {
                    receiver.reorder_events
                }
                Transport::Paced => 0,
            })
            .unwrap_or(0)
    }

    /// TCP sender diagnostics `(fast retransmits, timeouts)`.
    pub fn flow_tcp_stats(&self, flow: FlowId) -> (u64, u64) {
        self.flows
            .get(&flow)
            .map(|f| match &f.transport {
                Transport::Tcp { sender, .. } => (sender.fast_retransmits, sender.timeouts),
                Transport::TdTcp { sender, .. } => (sender.fast_retransmits, sender.timeouts),
                Transport::Paced => (0, 0),
            })
            .unwrap_or((0, 0))
    }

    /// Probe-train statistics.
    pub fn probe_stats(&self, train: usize) -> &ProbeStats {
        &self.probe_trains[train].stats
    }

    // -- workload attachment (before `prime`) ------------------------------

    /// Schedule a flow to start at `at`; returns its pending-flow index
    /// (used by the API layer to arm the start timer after priming).
    pub fn add_flow(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
    ) -> usize {
        self.add_flow_tagged(at, src, dst, bytes, transport, None)
    }

    /// [`Engine::add_flow`] with a service tag for SLO accounting.
    #[allow(clippy::too_many_arguments)]
    pub fn add_flow_tagged(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
        service: Option<u16>,
    ) -> usize {
        self.pending_flows.push(PendingFlow { at, src, dst, bytes, transport, service });
        self.pending_flows.len() - 1
    }

    /// Attach a memcached app: `clients` SET to `server` until `stop_at`.
    pub fn add_memcached(
        &mut self,
        params: MemcachedParams,
        server: HostId,
        clients: Vec<HostId>,
        stop_at: SimTime,
    ) -> usize {
        self.add_memcached_tagged(params, server, clients, stop_at, None)
    }

    /// [`Engine::add_memcached`] with a service tag: each operation's
    /// request→response latency reports under the service's SLO.
    pub fn add_memcached_tagged(
        &mut self,
        params: MemcachedParams,
        server: HostId,
        clients: Vec<HostId>,
        stop_at: SimTime,
        service: Option<u16>,
    ) -> usize {
        self.memcached.push(MemcachedApp { params, server, clients, stop_at, service });
        self.memcached.len() - 1
    }

    /// Attach a ring allreduce over `hosts` of `data_bytes`.
    pub fn add_allreduce(&mut self, hosts: Vec<HostId>, data_bytes: u64) -> usize {
        self.add_allreduce_tagged(hosts, data_bytes, None)
    }

    /// [`Engine::add_allreduce`] with a service tag: every chunk flow's FCT
    /// reports under the service's SLO.
    pub fn add_allreduce_tagged(
        &mut self,
        hosts: Vec<HostId>,
        data_bytes: u64,
        service: Option<u16>,
    ) -> usize {
        self.collectives.push(RingAllreduce::new(hosts, data_bytes));
        self.collective_service.push(service);
        self.collective_done.push(None);
        self.collectives.len() - 1
    }

    /// Attach a probe train: `count` probes of `payload` bytes from `src`
    /// to `dst` every `interval_ns`.
    pub fn add_probe_train(
        &mut self,
        src: HostId,
        dst: HostId,
        interval_ns: u64,
        count: u64,
        payload: u32,
    ) -> usize {
        self.probe_trains.push(ProbeTrain {
            src,
            dst,
            interval_ns,
            remaining: count,
            payload,
            stats: ProbeStats::new(),
        });
        self.probe_trains.len() - 1
    }

    /// Install the initial events: rotations, scheduled flows, app timers.
    /// Call once before running.
    pub fn prime(&mut self, q: &mut EventQueue<Event>) {
        // Per-node rotations (only for rotating schedules).
        if self.slice_cfg.num_slices > 1 {
            for node in 0..self.cfg.node_num {
                let fire = self
                    .sync
                    .global_fire_time(node as usize, SimTime::from_ns(self.slice_cfg.slice_ns));
                q.schedule(fire, Event::Rotate(NodeId(node)));
            }
        }
        // Initial pause state (slice 0 is "notified" at t=0).
        if self.pause_mode == PauseMode::DirectCircuit {
            for node in 0..self.cfg.node_num {
                self.refresh_pause_state(NodeId(node), 0, SimTime::ZERO);
                if self.slice_cfg.num_slices > 1 {
                    let lead = 200;
                    q.schedule(
                        SimTime::from_ns(self.slice_cfg.slice_ns - lead),
                        Event::Timer(Timer::NotifyHosts(NodeId(node))),
                    );
                }
            }
        }
        // Scheduled flows.
        for i in 0..self.pending_flows.len() {
            q.schedule(self.pending_flows[i].at, Event::Timer(Timer::FlowStart(i)));
        }
        // Memcached ops.
        for (a, app) in self.memcached.iter().enumerate() {
            for c in 0..app.clients.len() {
                let gap = app.params.next_gap_ns(&mut self.rng);
                q.schedule(
                    SimTime::from_ns(gap),
                    Event::Timer(Timer::MemcachedOp { app: a, client_idx: c }),
                );
            }
        }
        // Allreduce first steps.
        for c in 0..self.collectives.len() {
            let sends = self.collectives[c].start();
            let service = self.collective_service[c];
            for s in sends {
                self.start_flow(
                    SimTime::ZERO,
                    s.from,
                    s.to,
                    s.bytes,
                    TransportKind::Paced,
                    FlowKind::Chunk { collective: c },
                    service,
                    q,
                );
            }
        }
        // Probe trains.
        for t in 0..self.probe_trains.len() {
            q.schedule(SimTime::from_ns(1), Event::Timer(Timer::ProbeSend(t)));
        }
        // Fault windows: each edge is an ordinary (time, seq) event, so
        // campaigns replay byte-identically on every run.
        if let Some(f) = &self.faults {
            for (i, s) in f.specs.iter().enumerate() {
                q.schedule(s.start, Event::Timer(Timer::FaultStart(i)));
                q.schedule(s.end, Event::Timer(Timer::FaultEnd(i)));
            }
        }
        // Telemetry sampling cadence: the timer is simply never scheduled
        // when sampling is off, so a disabled run pays nothing.
        if self.cfg.sample_every_ns > 0 && self.telemetry.is_enabled() {
            q.schedule(SimTime::from_ns(self.cfg.sample_every_ns), Event::Timer(Timer::Sample));
        }
    }

    // -- flows --------------------------------------------------------------

    /// Start a flow now; returns its id. `service` tags the flow's
    /// completion latency for SLO accounting.
    #[allow(clippy::too_many_arguments)]
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
        kind: FlowKind,
        service: Option<u16>,
        q: &mut EventQueue<Event>,
    ) -> FlowId {
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        let transport = match transport {
            TransportKind::Paced => Transport::Paced,
            TransportKind::Tcp(cfg) => Transport::Tcp {
                sender: TcpSender::new(cfg, Some(bytes), now),
                receiver: TcpReceiver::new(),
            },
            TransportKind::TdTcp(cfg) => Transport::TdTcp {
                // Two topologies: the optical fabric and the electrical one.
                sender: TdTcpSender::new(cfg, 2, Some(bytes), now),
                receiver: TcpReceiver::new(),
            },
        };
        let fs = FlowState {
            src_host: src,
            dst_host: dst,
            bytes,
            queued: 0,
            delivered: 0,
            delivered_at_last_watchdog: 0,
            transport,
            kind,
            service,
            done: false,
        };
        match fs.kind {
            FlowKind::Response { .. } => {}
            _ => self.fct.start(id, bytes, now),
        }
        self.flows.insert(id, fs);
        self.obs.flow_begin(id, now);
        match &self.flows[&id].transport {
            Transport::Paced => {
                self.hosts[src.index()].backlog.push(id);
                q.schedule_after(now, WATCHDOG_NS, Event::Timer(Timer::FlowWatchdog(id)));
            }
            Transport::Tcp { sender, .. } => {
                let deadline = sender.rto_deadline();
                q.schedule(deadline, Event::Timer(Timer::TcpRto(id)));
            }
            Transport::TdTcp { sender, .. } => {
                let deadline = sender.rto_deadline();
                q.schedule(deadline, Event::Timer(Timer::TcpRto(id)));
            }
        }
        if matches!(self.flows[&id].transport, Transport::Tcp { .. } | Transport::TdTcp { .. }) {
            self.pump_tcp(id, now);
        }
        self.pump_host(src, now, q);
        id
    }

    /// Queue paced-flow segments into the vma stack, respecting socket
    /// capacity (application push-back).
    fn pump_backlog(&mut self, host: HostId, now: SimTime) {
        // Take the backlog to iterate without aliasing `self`; flows that
        // remain unfinished are collected into `still`, which becomes the
        // new backlog (reusing the taken allocation's slot keeps this a
        // zero-copy swap rather than a per-call clone).
        let backlog = std::mem::take(&mut self.hosts[host.index()].backlog);
        let mut still = vec![];
        for &fid in &backlog {
            let Some(f) = self.flows.get_mut(&fid) else { continue };
            if f.done {
                continue;
            }
            let dst_tor = self.hosts[f.dst_host.index()].tor;
            let split_mice = self.policy == DispatchPolicy::MiceElectrical;
            let elephant_threshold = self.cfg.elephant_threshold;
            let h = &mut self.hosts[host.index()];
            while f.queued < f.bytes {
                let len = to_u32((f.bytes - f.queued).min(MSS as u64));
                // Elephant classification: the simulator knows flow sizes,
                // so it classifies by size directly — the steady state that
                // PIAS-style aging converges to on persistent connections
                // (the aging tracker still records for telemetry).
                let use_mice = split_mice && f.bytes < elephant_threshold;
                let stack = if use_mice { &mut h.vma_mice } else { &mut h.vma };
                if !stack.would_accept(dst_tor, len) {
                    break;
                }
                stack
                    .send(
                        dst_tor,
                        Segment {
                            flow: fid,
                            dst_host: f.dst_host,
                            bytes: len,
                            seq: f.queued,
                            queued_at: now,
                        },
                    )
                    .ok();
                f.queued += len as u64;
                h.aging.record(fid, len as u64);
            }
            if f.queued < f.bytes {
                still.push(fid);
            }
        }
        self.hosts[host.index()].backlog = still;
    }

    /// The TDTCP topology id a host currently sends to `dst_tor` through:
    /// 0 = optical (direct circuit up), 1 = electrical.
    fn topology_id(&self, src_tor: NodeId, dst_tor: NodeId) -> usize {
        let slice = self.tors[src_tor.index()].current_slice();
        if self.fabric.schedule().port_to(src_tor, dst_tor, slice).is_some() {
            0
        } else {
            1
        }
    }

    /// Pump TCP/TDTCP segments into vma as the window allows.
    fn pump_tcp(&mut self, fid: FlowId, now: SimTime) {
        let Some(f) = self.flows.get(&fid) else { return };
        let (src, dst_host) = (f.src_host, f.dst_host);
        let src_tor = self.hosts[src.index()].tor;
        let dst_tor = self.hosts[dst_host.index()].tor;
        let topo = self.topology_id(src_tor, dst_tor);
        let Some(f) = self.flows.get_mut(&fid) else { return };
        match &mut f.transport {
            Transport::Tcp { sender, .. } => loop {
                // Respect socket capacity before consuming sender state.
                if !self.hosts[src.index()].vma.would_accept(dst_tor, MSS) {
                    break;
                }
                let Some((seq, len)) = sender.next_segment(now) else { break };
                self.hosts[src.index()]
                    .vma
                    .send(dst_tor, Segment { flow: fid, dst_host, bytes: len, seq, queued_at: now })
                    .ok();
                self.hosts[src.index()].aging.record(fid, len as u64);
            },
            Transport::TdTcp { sender, .. } => {
                sender.set_topology(topo, now);
                loop {
                    if !self.hosts[src.index()].vma.would_accept(dst_tor, MSS) {
                        break;
                    }
                    let Some((seq, len)) = sender.next_segment(now) else { break };
                    self.hosts[src.index()]
                        .vma
                        .send(
                            dst_tor,
                            Segment { flow: fid, dst_host, bytes: len, seq, queued_at: now },
                        )
                        .ok();
                    self.hosts[src.index()].aging.record(fid, len as u64);
                }
            }
            Transport::Paced => {}
        }
    }

    /// Make sure a HostTx event is pending for `host`.
    fn pump_host(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<Event>) {
        let h = &mut self.hosts[host.index()];
        if h.tx_scheduled {
            return;
        }
        h.tx_scheduled = true;
        let at = h.nic_free.max(now);
        q.schedule(at, Event::HostTx(host));
    }

    fn finish_flow(&mut self, fid: FlowId, now: SimTime, q: &mut EventQueue<Event>) {
        let Some(f) = self.flows.get_mut(&fid) else { return };
        if f.done {
            return;
        }
        f.done = true;
        let kind = f.kind;
        let service = f.service;
        let (src, dst) = (f.src_host, f.dst_host);
        self.obs.flow_end(fid, now);
        match kind {
            FlowKind::Plain => {
                if let Some(rec) = self.fct.complete(fid, now) {
                    self.note_completion(rec, service, now);
                }
            }
            FlowKind::Chunk { collective } => {
                if let Some(rec) = self.fct.complete(fid, now) {
                    self.note_completion(rec, service, now);
                }
                if let Some(next) = self.collectives[collective].on_chunk_complete() {
                    for s in next {
                        self.start_flow(
                            now,
                            s.from,
                            s.to,
                            s.bytes,
                            TransportKind::Paced,
                            FlowKind::Chunk { collective },
                            service,
                            q,
                        );
                    }
                } else if self.collectives[collective].is_done() {
                    self.collective_done[collective] = Some(now);
                }
            }
            FlowKind::Request { response_bytes } => {
                // Server answers; the request's FCT completes with the
                // response (handled below). The response inherits the
                // request's service tag so the full round trip reports
                // under one SLO.
                self.start_flow(
                    now,
                    dst,
                    src,
                    response_bytes as u64,
                    TransportKind::Paced,
                    FlowKind::Response { of: fid },
                    service,
                    q,
                );
            }
            FlowKind::Response { of } => {
                if let Some(rec) = self.fct.complete(of, now) {
                    self.note_completion(rec, service, now);
                }
            }
        }
    }

    // -- dispatch -----------------------------------------------------------

    fn alloc_pkt_id(&mut self) -> u64 {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        id
    }

    fn elec_enabled(&self) -> bool {
        self.elec_bw.is_some()
    }

    /// Decide which fabric carries this packet.
    fn pick_electrical(&mut self, host: HostId, pkt: &Packet) -> bool {
        if !self.elec_enabled() {
            return false;
        }
        match self.policy {
            DispatchPolicy::OpticalOnly => false,
            DispatchPolicy::ElectricalOnly => true,
            DispatchPolicy::MiceElectrical => {
                // Elephants optical; mice and control/ack traffic electrical.
                !(pkt.is_data() && self.hosts[host.index()].aging.is_elephant(pkt.flow))
            }
            DispatchPolicy::HybridDirect => {
                let tor = self.hosts[host.index()].tor;
                let slice = self.tors[tor.index()].current_slice();
                self.fabric.schedule().port_to(tor, pkt.dst, slice).is_none()
            }
        }
    }

    /// Send a packet from a host into the network (NIC time already spent).
    fn dispatch_from_host(
        &mut self,
        host: HostId,
        pkt: Packet,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let src_tor = self.hosts[host.index()].tor;
        if pkt.is_data() {
            self.tm_accum.add(src_tor, pkt.dst, pkt.size as f64);
            self.counters.host_tx_packets += 1;
        }
        if self.pick_electrical(host, &pkt) {
            self.dispatch_electrical(host, pkt, now, q);
        } else {
            self.obs.open(pkt.id, Stage::Propagation, now);
            q.schedule_after(now, HOST_WIRE_NS, Event::TorIngress(src_tor, pkt));
        }
    }

    /// Send a packet over the electrical fabric (accounting done by caller
    /// or by [`Self::dispatch_from_host`]).
    fn dispatch_electrical(
        &mut self,
        host: HostId,
        pkt: Packet,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let src_tor = self.hosts[host.index()].tor;
        let size = pkt.size;
        let pid = pkt.id;
        if self.elec[src_tor.index()].queue.push(size, pkt).is_err() {
            self.counters.link_drops += 1;
            self.obs.dropped(pid, now, 4);
            return;
        }
        self.obs.open(pid, Stage::CalendarWait, now);
        let link = &mut self.elec[src_tor.index()];
        if !link.draining {
            link.draining = true;
            let at = link.busy_until.max(now);
            q.schedule(at, Event::ElecFree(src_tor));
        }
    }

    /// Deliver a packet to a host's downlink queue at its ToR.
    #[allow(clippy::wrong_self_convention)] // "to" = toward the downlink, not a conversion
    fn to_downlink(&mut self, host: HostId, pkt: Packet, now: SimTime, q: &mut EventQueue<Event>) {
        let size = pkt.size;
        let pid = pkt.id;
        if self.downlinks[host.index()].queue.push(size, pkt).is_err() {
            self.counters.link_drops += 1;
            self.obs.dropped(pid, now, 4);
            return;
        }
        self.obs.open(pid, Stage::Rx, now);
        let link = &mut self.downlinks[host.index()];
        if !link.draining {
            link.draining = true;
            let at = link.busy_until.max(now);
            q.schedule(at, Event::DownlinkFree(host));
        }
    }

    // -- routing ------------------------------------------------------------

    /// Compute and install routes for `(node, dst)` at the node's current
    /// slice. Returns whether any path was produced.
    fn install_routes_for(&mut self, node: NodeId, dst: NodeId) -> bool {
        let Some(spec) = &self.router else { return false };
        let arr = if spec.ta { None } else { Some(self.tors[node.index()].current_slice()) };
        // While a link-down fault is active, paths compile against the
        // masked time-expanded graph so the reroute avoids the failed link.
        let sched = match self.faults.as_ref().and_then(|f| f.masked.as_ref()) {
            Some(masked) => masked,
            None => self.fabric.schedule(),
        };
        let paths: Vec<Path> = spec.algo.paths(sched, node, dst, arr);
        if paths.is_empty() {
            return false;
        }
        let entries = compile(&paths, spec.lookup, spec.multipath);
        for e in entries {
            let n = e.node;
            self.tors[n.index()].install_routes([e]);
        }
        true
    }

    /// Kick an optical port if it is idle.
    fn kick_port(&mut self, node: NodeId, port: PortId, now: SimTime, q: &mut EventQueue<Event>) {
        if self.port_pending[node.index()][port.index()] {
            return;
        }
        self.port_pending[node.index()][port.index()] = true;
        q.schedule(now, Event::PortFree(node, port));
    }

    fn kick_all_ports(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        for p in 0..self.cfg.uplink {
            if self.tors[node.index()].has_active_traffic(PortId(p)) {
                self.kick_port(node, PortId(p), now, q);
            }
        }
    }

    /// Update vma pause state of a ToR's hosts for the active slice
    /// (DirectCircuit pause mode — the flow-pausing service fed by circuit
    /// notifications).
    fn refresh_pause_state(&mut self, node: NodeId, slice: u32, now: SimTime) {
        let hosts: Vec<HostId> = (0..self.cfg.total_hosts())
            .map(HostId)
            .filter(|h| self.hosts[h.index()].tor == node)
            .collect();
        let dsts: Vec<NodeId> = (0..self.cfg.node_num).map(NodeId).collect();
        let tracing = self.tele.trace.is_on();
        for h in hosts {
            for &d in &dsts {
                if d == node {
                    continue;
                }
                let open = self.fabric.schedule().port_to(node, d, slice).is_some();
                let transition = if open {
                    self.hosts[h.index()].vma.resume(d)
                } else {
                    self.hosts[h.index()].vma.pause(d)
                };
                if tracing && transition {
                    let kind = if open {
                        TraceKind::FlowResume { host: h, dst: d }
                    } else {
                        TraceKind::FlowPause { host: h, dst: d }
                    };
                    self.tele.trace.emit(now, kind);
                }
            }
        }
    }

    // -- event handlers -------------------------------------------------------

    fn on_host_tx(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<Event>) {
        self.hosts[host.index()].tx_scheduled = false;
        let tor = self.hosts[host.index()].tor;
        if let Some(&i) = self.faults.as_ref().and_then(|f| f.pause_mask.get(&tor)) {
            // NIC pause storm: data transmission defers to the window end.
            // (ACKs bypass the NIC data queue in this model and still flow.)
            let resume = self.faults.as_ref().map_or(now, |f| f.specs[i].end);
            if let Some(f) = &mut self.faults {
                f.per_fault[i].paused_tx += 1;
            }
            self.hosts[host.index()].tx_scheduled = true;
            q.schedule(resume.max(now + 1), Event::HostTx(host));
            return;
        }
        if now < self.hosts[host.index()].nic_free {
            self.pump_host(host, self.hosts[host.index()].nic_free, q);
            return;
        }
        self.pump_backlog(host, now);
        let (popped, force_electrical) = match self.hosts[host.index()].vma_mice.pop_next(now) {
            Some(x) => (Some(x), true),
            None => (self.hosts[host.index()].vma.pop_next(now), false),
        };
        match popped {
            Some((dst_tor, seg)) => {
                let src_tor = self.hosts[host.index()].tor;
                let mut pkt = Packet::data(
                    0,
                    seg.flow,
                    src_tor,
                    dst_tor,
                    host,
                    seg.dst_host,
                    seg.bytes,
                    seg.seq,
                    now,
                );
                pkt.id = self.alloc_pkt_id();
                self.obs.packet_begin(seg.flow, pkt.id, seg.queued_at, now);
                let tx = self.cfg.host_link_bandwidth().tx_time_ns(pkt.size as u64).max(1);
                self.hosts[host.index()].nic_free = now + tx;
                if force_electrical {
                    // Mice-stack traffic bypasses policy but is still
                    // accounted like any other host transmission.
                    self.tm_accum.add(src_tor, pkt.dst, pkt.size as f64);
                    self.counters.host_tx_packets += 1;
                    self.dispatch_electrical(host, pkt, now, q);
                } else {
                    self.dispatch_from_host(host, pkt, now, q);
                }
                // Keep draining.
                self.pump_host(host, now + tx, q);
            }
            None => {
                // Nothing sendable: wake at the next push-back expiry if any.
                let t = self.hosts[host.index()]
                    .vma
                    .next_unblock(now)
                    .into_iter()
                    .chain(self.hosts[host.index()].vma_mice.next_unblock(now))
                    .min();
                if let Some(t) = t {
                    let h = &mut self.hosts[host.index()];
                    h.tx_scheduled = true;
                    q.schedule(t, Event::HostTx(host));
                }
            }
        }
    }

    fn on_tor_ingress(
        &mut self,
        node: NodeId,
        pkt: Packet,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let src_tor_of_pkt = pkt.src;
        let dst = pkt.dst;
        let pid = pkt.id;
        let res = self.tors[node.index()].ingress(pkt, now);
        if let Some(msg) = res.pushback {
            // Broadcast to the sender ToR's hosts after a control RTT.
            let hosts: Vec<HostId> = (0..self.cfg.total_hosts())
                .map(HostId)
                .filter(|h| self.hosts[h.index()].tor == src_tor_of_pkt)
                .collect();
            for h in hosts {
                q.schedule_after(now, 2_000, Event::HostControl(h, msg.clone()));
            }
        }
        match res.decision {
            IngressDecision::DeliverLocal(p) => {
                let host = p.dst_host;
                if host.0 == u32::MAX {
                    return; // control packet addressed to the switch itself
                }
                self.to_downlink(host, p, now, q);
            }
            IngressDecision::Enqueued { port, .. } | IngressDecision::Trimmed { port, .. } => {
                self.obs.open(pid, Stage::CalendarWait, now);
                if self.tors[node.index()].has_active_traffic(port) {
                    self.kick_port(node, port, now, q);
                }
            }
            IngressDecision::Offloaded { .. } => {
                self.obs.open(pid, Stage::CalendarWait, now);
                if let Some(t) = self.tors[node.index()].next_offload_recall() {
                    self.schedule_recall(node, t.max(now), q);
                }
            }
            IngressDecision::Dropped(reason) => {
                self.counters.switch_drops += 1;
                self.obs.dropped(pid, now, 1);
                let _ = reason;
            }
            IngressDecision::NoRoute(p) => {
                if self.install_routes_for(node, dst) {
                    // Retry once with fresh entries.
                    let res2 = self.tors[node.index()].ingress(p, now);
                    match res2.decision {
                        IngressDecision::DeliverLocal(p2) => {
                            let host = p2.dst_host;
                            self.to_downlink(host, p2, now, q);
                        }
                        IngressDecision::Enqueued { port, .. }
                        | IngressDecision::Trimmed { port, .. } => {
                            self.obs.open(pid, Stage::CalendarWait, now);
                            if self.tors[node.index()].has_active_traffic(port) {
                                self.kick_port(node, port, now, q);
                            }
                        }
                        IngressDecision::Offloaded { .. } => {
                            self.obs.open(pid, Stage::CalendarWait, now);
                            if let Some(t) = self.tors[node.index()].next_offload_recall() {
                                self.schedule_recall(node, t.max(now), q);
                            }
                        }
                        IngressDecision::Dropped(_) => {
                            self.counters.switch_drops += 1;
                            self.obs.dropped(pid, now, 1);
                        }
                        IngressDecision::NoRoute(_) => {
                            self.counters.no_route_drops += 1;
                            self.obs.dropped(pid, now, 2);
                        }
                    }
                    if let Some(msg) = res2.pushback {
                        let hosts: Vec<HostId> = (0..self.cfg.total_hosts())
                            .map(HostId)
                            .filter(|h| self.hosts[h.index()].tor == src_tor_of_pkt)
                            .collect();
                        for h in hosts {
                            q.schedule_after(now, 2_000, Event::HostControl(h, msg.clone()));
                        }
                    }
                } else {
                    self.counters.no_route_drops += 1;
                    self.obs.dropped(pid, now, 2);
                }
            }
        }
    }

    fn on_port_free(
        &mut self,
        node: NodeId,
        port: PortId,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        self.port_pending[node.index()][port.index()] = false;
        // All slice-relative gating below runs on the switch's LOCAL clock:
        // a badly synchronized node holds off / transmits at the wrong
        // instants, and the fabric (global truth) punishes it — which is
        // exactly what the guardband budget of §7 must absorb.
        let local = self.sync.local_time(node.index(), now);
        // Hold transmission during the (locally perceived) guardband.
        if self.slice_cfg.num_slices > 1 && self.slice_cfg.in_guardband(local) {
            let resume_local = self.slice_cfg.slice_start(local) + self.slice_cfg.guard_ns;
            let resume = self.sync.global_fire_time(node.index(), resume_local);
            self.port_pending[node.index()][port.index()] = true;
            self.counters.guardband_holds += 1;
            self.tele.guardband_holds.inc();
            self.tele.trace.emit(now, TraceKind::GuardbandHold { node, port });
            if self.obs.spans.is_on() {
                if let Some((pid, _)) = self.tors[node.index()].head_packet_ids(port) {
                    self.obs.hold_begin(pid, now);
                }
            }
            q.schedule(resume.max(now + 1), Event::PortFree(node, port));
            return;
        }
        self.obs.profiler.enter(Phase::Drain);
        let popped = self.tors[node.index()].pop_if_fits(port, local, SLICE_END_MARGIN_NS);
        self.obs.profiler.exit(Phase::Drain);
        // Every drain attempt refreshes the EQO estimate inside the switch.
        self.obs.profiler.mark(Phase::EqoTick);
        match popped {
            Some((pkt, tx)) => {
                if cfg!(feature = "strict-invariants") && self.slice_cfg.num_slices > 1 {
                    // Guardband containment: the hold branch above already
                    // deferred guardband instants, and pop_if_fits only
                    // releases a packet whose serialization makes the slice
                    // tail. A transmit start inside the guardband or a tail
                    // past the slice end would be silently eaten by the
                    // fabric instead.
                    let in_guard = self.slice_cfg.in_guardband(local);
                    let overrun =
                        tx + SLICE_END_MARGIN_NS > self.slice_cfg.remaining_in_slice(local);
                    if in_guard || overrun {
                        // Last act before dying: push the flight recorder
                        // into the frame stream so a subscriber sees the
                        // trace tail that led here.
                        self.flight_dump(now, FlightTrigger::Invariant);
                    }
                    assert!(!in_guard, "transmit started inside the guardband at local {local}");
                    assert!(
                        !overrun,
                        "transmit of {tx} ns overruns the slice: {} ns remain at local {local}",
                        self.slice_cfg.remaining_in_slice(local),
                    );
                }
                if let Some((fi, corrupted)) = self.fault_tx_check(node, port) {
                    // Drain-and-drop: the port still cycles at line rate so
                    // the queue behind the fault drains, but the packet is
                    // charged to the fault instead of reaching the fabric.
                    self.port_pending[node.index()][port.index()] = true;
                    q.schedule_after(now, tx, Event::PortFree(node, port));
                    self.counters.fault_drops += 1;
                    let code = self.faults.as_ref().map_or(0, |f| f.specs[fi].kind.code());
                    if let Some(f) = &mut self.faults {
                        let c = &mut f.per_fault[fi];
                        if corrupted {
                            c.corrupted += 1;
                        } else {
                            c.dropped += 1;
                        }
                    }
                    self.tele.trace.emit(now, TraceKind::FaultDrop { node, port });
                    self.obs.profiler.mark(Phase::FaultRuntime);
                    self.obs.fault_dropped(pkt.id, now, code);
                    return;
                }
                self.tx_bytes_per_port[node.index()][port.index()] += pkt.size as u64;
                // Port is busy for the serialization time.
                self.port_pending[node.index()][port.index()] = true;
                q.schedule_after(now, tx, Event::PortFree(node, port));
                self.obs.serialized(pkt.id, now, tx);
                match self.fabric.transit(node, port, now) {
                    openoptics_fabric::Transit::Delivered { node: peer, latency_ns, .. } => {
                        let delay = self.pipeline.delay_ns(pkt.size, &mut self.rng) + latency_ns;
                        self.obs.open(pkt.id, Stage::Propagation, now + tx);
                        q.schedule_after(now, delay.max(tx), Event::TorIngress(peer, pkt));
                    }
                    lost => {
                        self.counters.fabric_drops += 1;
                        self.obs.dropped(pkt.id, now + tx, 3);
                        if self.tele.trace.is_on() {
                            let kind = match lost {
                                openoptics_fabric::Transit::Guardband => {
                                    TraceKind::GuardbandDrop { node, port }
                                }
                                _ => TraceKind::NoCircuitDrop { node, port },
                            };
                            self.tele.trace.emit(now, kind);
                        }
                    }
                }
            }
            None => {
                if self.tors[node.index()].has_active_traffic(port) && self.slice_cfg.num_slices > 1
                {
                    // Head doesn't fit before the slice ends: retry after
                    // the next rotation + guard (local clock).
                    let next_local = self.slice_cfg.slice_start(local)
                        + self.slice_cfg.slice_ns
                        + self.slice_cfg.guard_ns;
                    let next = self.sync.global_fire_time(node.index(), next_local);
                    self.port_pending[node.index()][port.index()] = true;
                    q.schedule(next.max(now + 1), Event::PortFree(node, port));
                }
            }
        }
    }

    fn on_rotate(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        let corrupted = self.faults.as_ref().and_then(|f| f.slice_mask.get(&node).copied());
        match corrupted {
            Some(i) => {
                // Schedule corruption: the switch misses the boundary and
                // stays in its stale slice while the fabric moves on, so
                // its transmissions meet dark circuits. The miss is
                // replayed (resync) when the window closes.
                if let Some(f) = &mut self.faults {
                    f.per_fault[i].missed_rotations += 1;
                    f.rotation_lag[i] += 1;
                }
                self.obs.profiler.mark(Phase::FaultRuntime);
            }
            None => {
                self.obs.profiler.enter(Phase::Rotation);
                self.tors[node.index()].rotate(now);
                self.obs.profiler.exit(Phase::Rotation);
            }
        }
        let fire = now + self.slice_cfg.slice_ns;
        q.schedule(fire, Event::Rotate(node));
        self.kick_all_ports(node, now, q);
        if self.pause_mode == PauseMode::DirectCircuit {
            // Broadcast circuit notifications ahead of the next boundary so
            // hosts resume exactly when their circuit opens (§5.2: switches
            // notify hosts of upcoming circuit connections).
            let lead = 200;
            let at = now + (self.slice_cfg.slice_ns - lead);
            q.schedule(at, Event::Timer(Timer::NotifyHosts(node)));
        }
    }

    /// Pre-boundary circuit-notification broadcast for one switch: set each
    /// host's pause state for the slice about to begin and wake senders.
    fn on_notify_hosts(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        if self.pause_mode != PauseMode::DirectCircuit {
            return;
        }
        let upcoming = self.slice_cfg.advance(self.tors[node.index()].current_slice(), 1);
        self.refresh_pause_state(node, upcoming, now);
        let hosts: Vec<HostId> = (0..self.cfg.total_hosts())
            .map(HostId)
            .filter(|h| self.hosts[h.index()].tor == node)
            .collect();
        for h in hosts {
            self.counters.circuit_notifications += 1;
            if self.hosts[h.index()].vma.has_sendable(now)
                || self.hosts[h.index()].vma_mice.has_sendable(now)
            {
                self.pump_host(h, now, q);
            }
        }
    }

    fn on_elec_free(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        let bw = self.elec_bw.expect("electrical fabric enabled");
        let link = &mut self.elec[node.index()];
        if now < link.busy_until {
            q.schedule(link.busy_until, Event::ElecFree(node));
            return;
        }
        match link.queue.pop() {
            Some((len, pkt)) => {
                let tx = bw.tx_time_ns(len as u64).max(1);
                link.busy_until = now + tx;
                let busy_until = link.busy_until;
                q.schedule(busy_until, Event::ElecFree(node));
                self.obs.serialized(pkt.id, now, tx);
                self.obs.open(pkt.id, Stage::Propagation, now + tx);
                let host = pkt.dst_host;
                let core = self.cfg.electrical_core_ns;
                q.schedule_after(now, tx + core, Event::HostRx(host, pkt));
            }
            None => {
                link.draining = false;
            }
        }
    }

    fn on_downlink_free(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<Event>) {
        let bw = self.cfg.host_link_bandwidth();
        let link = &mut self.downlinks[host.index()];
        if now < link.busy_until {
            q.schedule(link.busy_until, Event::DownlinkFree(host));
            return;
        }
        match link.queue.pop() {
            Some((len, pkt)) => {
                let tx = bw.tx_time_ns(len as u64).max(1);
                link.busy_until = now + tx;
                q.schedule(link.busy_until, Event::DownlinkFree(host));
                q.schedule_after(now, tx, Event::HostRx(host, pkt));
            }
            None => {
                link.draining = false;
            }
        }
    }

    fn on_host_rx(
        &mut self,
        host: HostId,
        mut pkt: Packet,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        // Move the kind out of the delivered packet (it is consumed here)
        // instead of cloning it — Control carries heap-allocated reports.
        match std::mem::replace(&mut pkt.kind, PacketKind::Data) {
            PacketKind::Data => {
                self.counters.delivered_packets += 1;
                self.counters.delivered_payload_bytes += pkt.payload as u64;
                if self.record_delays {
                    self.delay_samples.push(pkt.age_ns(now));
                }
                if pkt.trimmed {
                    // Opera-style trimming: the header made it; NACK the
                    // payload back to the source after a reverse-path delay.
                    self.counters.trimmed_received += 1;
                    self.obs.dropped(pkt.id, now, 5);
                    q.schedule_after(
                        now,
                        5_000,
                        Event::Timer(Timer::NackRetx { flow: pkt.flow, seq: pkt.seq }),
                    );
                    return;
                }
                self.obs.delivered(pkt.id, now);
                let fid = pkt.flow;
                let Some(f) = self.flows.get_mut(&fid) else { return };
                match &mut f.transport {
                    Transport::Paced => {
                        f.delivered = (f.delivered + pkt.payload as u64).min(f.bytes);
                        if f.delivered >= f.bytes && !f.done {
                            self.finish_flow(fid, now, q);
                        }
                    }
                    Transport::Tcp { receiver, .. } | Transport::TdTcp { receiver, .. } => {
                        let cum = receiver.on_data(pkt.seq, pkt.payload);
                        // Send an ACK back through the network.
                        let src_host = f.src_host;
                        let mut ack = Packet::data(
                            0,
                            fid,
                            self.hosts[host.index()].tor,
                            self.hosts[src_host.index()].tor,
                            host,
                            src_host,
                            0,
                            0,
                            now,
                        );
                        ack.id = self.alloc_pkt_id();
                        ack.size = HEADER_BYTES;
                        ack.kind = PacketKind::Ack { cum_ack: cum };
                        self.dispatch_from_host(host, ack, now, q);
                    }
                }
            }
            PacketKind::Ack { cum_ack } => {
                let fid = pkt.flow;
                let mut finished = false;
                let topo = self
                    .flows
                    .get(&fid)
                    .map(|f| {
                        let src_tor = self.hosts[f.src_host.index()].tor;
                        let dst_tor = self.hosts[f.dst_host.index()].tor;
                        self.topology_id(src_tor, dst_tor)
                    })
                    .unwrap_or(0);
                let mut fast_retx = false;
                if let Some(f) = self.flows.get_mut(&fid) {
                    match &mut f.transport {
                        Transport::Tcp { sender, .. } => {
                            let before = sender.fast_retransmits;
                            sender.on_ack(cum_ack, now);
                            fast_retx = sender.fast_retransmits > before;
                            if sender.done() && !f.done {
                                finished = true;
                            }
                        }
                        Transport::TdTcp { sender, .. } => {
                            sender.set_topology(topo, now);
                            let before = sender.fast_retransmits;
                            sender.on_ack(cum_ack, now);
                            fast_retx = sender.fast_retransmits > before;
                            if sender.done() && !f.done {
                                finished = true;
                            }
                        }
                        Transport::Paced => {}
                    }
                }
                if fast_retx {
                    self.counters.fast_retransmits += 1;
                    self.tele
                        .trace
                        .emit(now, TraceKind::Retransmit { flow: fid, kind: RetxKind::FastRetx });
                    self.obs.retransmit_mark(fid, now, 3);
                }
                if finished {
                    self.finish_flow(fid, now, q);
                } else {
                    self.pump_tcp(fid, now);
                    if let Some(f) = self.flows.get(&fid) {
                        self.pump_host(f.src_host, now, q);
                    }
                }
            }
            PacketKind::Probe { echo_of, is_reply } => {
                if is_reply {
                    // pkt.seq carries the forward hop count.
                    let total_hops = to_u8(pkt.seq) + pkt.hops;
                    for t in &mut self.probe_trains {
                        if t.src == host {
                            t.stats.record(echo_of, now, total_hops);
                            break;
                        }
                    }
                } else {
                    let mut reply = Packet::data(
                        0,
                        pkt.flow,
                        self.hosts[host.index()].tor,
                        pkt.src,
                        host,
                        pkt.src_host,
                        pkt.payload,
                        pkt.hops as u64,
                        now,
                    );
                    reply.id = self.alloc_pkt_id();
                    reply.kind = PacketKind::Probe { echo_of, is_reply: true };
                    self.dispatch_from_host(host, reply, now, q);
                }
            }
            PacketKind::Control(msg) => self.on_host_control(host, msg, now, q),
        }
    }

    fn on_host_control(
        &mut self,
        host: HostId,
        msg: ControlMsg,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        match msg {
            ControlMsg::PushBack { dst, slice, cycle } => {
                self.counters.pushback_deliveries += 1;
                // The embargo lasts until the named (cycle, slice) ends.
                let end = (cycle * self.slice_cfg.num_slices as u64 + slice as u64 + 1)
                    * self.slice_cfg.slice_ns;
                self.hosts[host.index()].vma.block_until(dst, SimTime::from_ns(end));
            }
            ControlMsg::CircuitNotify { dst, .. } => {
                if self.hosts[host.index()].vma.resume(dst) {
                    self.tele.trace.emit(now, TraceKind::FlowResume { host, dst });
                }
                self.pump_host(host, now, q);
            }
            _ => {}
        }
    }

    /// Schedule an `OffloadRecall` for `node` at `t` unless one is already
    /// outstanding at exactly that time (see the `recall_outstanding` field
    /// docs for why exact-time dedup is output-preserving).
    fn schedule_recall(&mut self, node: NodeId, t: SimTime, q: &mut EventQueue<Event>) {
        let out = &mut self.recall_outstanding[node.index()];
        if out.contains(&t) {
            return;
        }
        out.push(t);
        q.schedule(t, Event::OffloadRecall(node));
    }

    fn on_offload_recall(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        let out = &mut self.recall_outstanding[node.index()];
        if let Some(i) = out.iter().position(|&t| t == now) {
            out.swap_remove(i);
        }
        let due = self.tors[node.index()].offload_due(now);
        for (abs, port, pkt) in due {
            // Host round trip: recall notify + host link serialization.
            let rtt = 2_000 + self.cfg.host_link_bandwidth().tx_time_ns(pkt.size as u64);
            q.schedule_after(now, rtt, Event::Reinject(node, abs, port, pkt));
        }
        if let Some(t) = self.tors[node.index()].next_offload_recall() {
            self.schedule_recall(node, t.max(now + 1), q);
        }
    }

    fn on_reinject(
        &mut self,
        node: NodeId,
        abs: u64,
        port: PortId,
        pkt: Packet,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let cur = self.tors[node.index()].abs_slice();
        let rank = to_u32(abs.saturating_sub(cur));
        let pid = pkt.id;
        let res = self.tors[node.index()].reinject_offloaded(pkt, port, rank, now);
        match res.decision {
            IngressDecision::Enqueued { port, .. } | IngressDecision::Trimmed { port, .. } => {
                self.obs.open(pid, Stage::CalendarWait, now);
                if self.tors[node.index()].has_active_traffic(port) {
                    self.kick_port(node, port, now, q);
                }
            }
            IngressDecision::Dropped(_) => {
                self.counters.switch_drops += 1;
                self.obs.dropped(pid, now, 1);
            }
            IngressDecision::Offloaded { .. } => {
                self.obs.open(pid, Stage::CalendarWait, now);
                if let Some(t) = self.tors[node.index()].next_offload_recall() {
                    self.schedule_recall(node, t.max(now + 1), q);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: Timer, now: SimTime, q: &mut EventQueue<Event>) {
        match timer {
            Timer::FlowStart(idx) => {
                let p = &self.pending_flows[idx];
                let (src, dst, bytes, transport, service) =
                    (p.src, p.dst, p.bytes, p.transport, p.service);
                self.start_flow(now, src, dst, bytes, transport, FlowKind::Plain, service, q);
            }
            Timer::MemcachedOp { app, client_idx } => {
                let (params, server, client, stop_at, service) = {
                    let a = &self.memcached[app];
                    (a.params, a.server, a.clients[client_idx], a.stop_at, a.service)
                };
                if now >= stop_at {
                    return;
                }
                self.start_flow(
                    now,
                    client,
                    server,
                    params.set_bytes as u64,
                    TransportKind::Paced,
                    FlowKind::Request { response_bytes: params.response_bytes },
                    service,
                    q,
                );
                let gap = params.next_gap_ns(&mut self.rng);
                q.schedule_after(now, gap, Event::Timer(Timer::MemcachedOp { app, client_idx }));
            }
            Timer::FlowWatchdog(fid) => {
                let retransmit = self.watchdog_retransmit;
                let Some(f) = self.flows.get_mut(&fid) else { return };
                if f.done {
                    return;
                }
                if retransmit && f.delivered == f.delivered_at_last_watchdog && f.queued >= f.bytes
                {
                    // Stalled with everything queued: re-send the missing tail.
                    let missing = f.bytes - f.delivered;
                    f.queued = f.bytes - missing;
                    let src = f.src_host;
                    self.hosts[src.index()].backlog.push(fid);
                    self.counters.watchdog_retransmits += 1;
                    self.tele
                        .trace
                        .emit(now, TraceKind::Retransmit { flow: fid, kind: RetxKind::Watchdog });
                    self.obs.retransmit_mark(fid, now, 1);
                    self.pump_host(src, now, q);
                }
                if let Some(f) = self.flows.get_mut(&fid) {
                    f.delivered_at_last_watchdog = f.delivered;
                }
                q.schedule_after(now, WATCHDOG_NS, Event::Timer(Timer::FlowWatchdog(fid)));
            }
            Timer::TcpRto(fid) => {
                let mut fired = false;
                let mut deadline = None;
                let mut src = None;
                if let Some(f) = self.flows.get_mut(&fid) {
                    if f.done {
                        return;
                    }
                    match &mut f.transport {
                        Transport::Tcp { sender, .. } => {
                            fired = sender.maybe_timeout(now);
                            deadline = Some(sender.rto_deadline());
                            src = Some(f.src_host);
                        }
                        Transport::TdTcp { sender, .. } => {
                            fired = sender.maybe_timeout(now);
                            deadline = Some(sender.rto_deadline());
                            src = Some(f.src_host);
                        }
                        Transport::Paced => {}
                    }
                }
                if fired {
                    self.counters.rto_retransmits += 1;
                    self.tele
                        .trace
                        .emit(now, TraceKind::Retransmit { flow: fid, kind: RetxKind::Rto });
                    self.obs.retransmit_mark(fid, now, 2);
                    self.pump_tcp(fid, now);
                    if let Some(s) = src {
                        self.pump_host(s, now, q);
                    }
                }
                if let Some(d) = deadline {
                    q.schedule(d.max(now + 1), Event::Timer(Timer::TcpRto(fid)));
                }
            }
            Timer::NotifyHosts(node) => self.on_notify_hosts(node, now, q),
            Timer::FaultStart(i) => self.on_fault_transition(i, true, now, q),
            Timer::FaultEnd(i) => self.on_fault_transition(i, false, now, q),
            Timer::NackRetx { flow, seq } => {
                let Some(f) = self.flows.get_mut(&flow) else { return };
                if f.done {
                    return;
                }
                let len = to_u32((f.bytes.saturating_sub(seq)).min(MSS as u64));
                if len == 0 {
                    return;
                }
                let (src, dst_host) = (f.src_host, f.dst_host);
                let dst_tor = self.hosts[dst_host.index()].tor;
                self.hosts[src.index()]
                    .vma
                    .send(dst_tor, Segment { flow, dst_host, bytes: len, seq, queued_at: now })
                    .ok();
                self.counters.nack_retransmits += 1;
                self.tele.trace.emit(now, TraceKind::Retransmit { flow, kind: RetxKind::Nack });
                self.obs.retransmit_mark(flow, now, 4);
                self.pump_host(src, now, q);
            }
            Timer::ProbeSend(t) => {
                let (src, dst, payload, interval) = {
                    let tr = &mut self.probe_trains[t];
                    if tr.remaining == 0 {
                        return;
                    }
                    tr.remaining -= 1;
                    tr.stats.sent += 1;
                    (tr.src, tr.dst, tr.payload, tr.interval_ns)
                };
                let dst_tor = self.hosts[dst.index()].tor;
                let src_tor = self.hosts[src.index()].tor;
                let mut pkt = Packet::data(0, 0, src_tor, dst_tor, src, dst, payload, 0, now);
                pkt.id = self.alloc_pkt_id();
                pkt.kind = PacketKind::Probe { echo_of: now, is_reply: false };
                self.dispatch_from_host(src, pkt, now, q);
                q.schedule_after(now, interval, Event::Timer(Timer::ProbeSend(t)));
            }
            Timer::Sample => {
                let stats = q.stats();
                self.take_sample(now, Some(stats));
                q.schedule_after(now, self.cfg.sample_every_ns, Event::Timer(Timer::Sample));
            }
        }
    }
}

impl World for Engine {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        // Promote any pending TA reconfiguration whose delay has elapsed so
        // every consumer (routing, pause state, dispatch) sees the schedule
        // that is physically active at `now`.
        self.fabric.schedule_at(now);
        self.obs.profiler.event(phase_of(&event), now);
        match event {
            Event::HostTx(h) => self.on_host_tx(h, now, q),
            Event::TorIngress(n, p) => self.on_tor_ingress(n, p, now, q),
            Event::HostRx(h, p) => self.on_host_rx(h, p, now, q),
            Event::Rotate(n) => self.on_rotate(n, now, q),
            Event::PortFree(n, p) => self.on_port_free(n, p, now, q),
            Event::ElecFree(n) => self.on_elec_free(n, now, q),
            Event::DownlinkFree(h) => self.on_downlink_free(h, now, q),
            Event::OffloadRecall(n) => self.on_offload_recall(n, now, q),
            Event::Reinject(n, abs, port, pkt) => self.on_reinject(n, abs, port, pkt, now, q),
            Event::HostControl(h, m) => self.on_host_control(h, m, now, q),
            Event::Timer(t) => self.on_timer(t, now, q),
        }
    }
}
