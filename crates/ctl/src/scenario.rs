//! The versioned scenario-file format.
//!
//! A scenario is one declarative JSON document describing a whole run:
//! topology/engine configuration ([`NetConfig`](openoptics_core::NetConfig)),
//! an architecture × routing
//! pairing, a workload list, a fault campaign, and a stop time. Parsing is
//! strict about *types* and *names* (a misspelled architecture or a string
//! where a number belongs is a [`ScenarioError`] pointing at the offending
//! field) while unknown keys are ignored, so files stay forward-compatible
//! and keys starting with `#` work as comments.
//!
//! [`Scenario::to_json`] renders a normalized form with a fixed key order
//! and deterministic number formatting; `parse → to_json` is a fixed point
//! (re-parsing the normalized form and rendering again is byte-identical),
//! which is what lets checkpoints embed their scenario by value.

use std::fmt;

use openoptics_core::json::{self, Json};
use openoptics_core::{Architecture, FaultPlan, NetConfig, OpenOpticsNet, TransportKind};
use openoptics_host::apps::MemcachedParams;
use openoptics_host::TcpConfig;
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_routing::algos::{Direct, Ecmp, Hoho, Ksp, OperaRouting, Ucmp, Vlb, Wcmp};
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_sim::SimTime;
use openoptics_topo::TrafficMatrix;

/// The scenario file format version this crate reads and writes.
pub const SCENARIO_VERSION: u64 = 1;

/// A typed validation error: which field is wrong and why.
///
/// `field` is a JSON-path-like locator (`"workloads[2].bytes"`,
/// `"architecture.name"`) so a failing scenario can be fixed without
/// guessing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// Path of the offending field within the scenario document.
    pub field: String,
    /// Human-readable explanation of what is wrong with it.
    pub reason: String,
}

impl ScenarioError {
    pub(crate) fn new(field: impl Into<String>, reason: impl Into<String>) -> ScenarioError {
        ScenarioError { field: field.into(), reason: reason.into() }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ScenarioError {}

fn ctx<T, E: fmt::Display>(r: Result<T, E>, field: &str) -> Result<T, ScenarioError> {
    r.map_err(|e| ScenarioError::new(field, e.to_string()))
}

fn get_u64(obj: &Json, key: &str, field: &str) -> Result<Option<u64>, ScenarioError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => Ok(Some(ctx(v.as_u64(), field)?)),
    }
}

fn need_u64(obj: &Json, key: &str, field: &str) -> Result<u64, ScenarioError> {
    get_u64(obj, key, field)?.ok_or_else(|| ScenarioError::new(field, "missing required field"))
}

/// Checked narrowing of a document number into a host/node/port-width
/// integer: out-of-range values are a typed error naming the field, never
/// a silent truncation.
pub(crate) fn narrow<T: TryFrom<u64>>(v: u64, field: &str) -> Result<T, ScenarioError> {
    T::try_from(v).map_err(|_| ScenarioError::new(field, format!("value {v} out of range")))
}

fn get_str<'a>(obj: &'a Json, key: &str, field: &str) -> Result<Option<&'a str>, ScenarioError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => Ok(Some(ctx(v.as_str(), field)?)),
    }
}

/// Traffic-matrix specification for architectures that are demand-aware
/// (C-Through, Mordia, semi-oblivious RotorNet).
#[derive(Clone, Debug, PartialEq)]
pub enum TmSpec {
    /// Uniform all-to-all demand of 1.0 with a zero diagonal — the mesh
    /// matrix the built-in sweeps use.
    Mesh,
    /// Uniform all-to-all demand of the given value, zero diagonal.
    Uniform(f64),
    /// Explicit `(src_node, dst_node, demand)` records; unlisted pairs are
    /// zero.
    Records(Vec<(u32, u32, f64)>),
}

impl TmSpec {
    /// Materialize the matrix for an `n`-node network.
    pub fn matrix(&self, n: u32) -> TrafficMatrix {
        match self {
            TmSpec::Mesh => mesh(n, 1.0),
            TmSpec::Uniform(v) => mesh(n, *v),
            TmSpec::Records(recs) => {
                let recs: Vec<(NodeId, NodeId, f64)> =
                    recs.iter().map(|&(s, d, v)| (NodeId(s), NodeId(d), v)).collect();
                TrafficMatrix::from_records(n as usize, &recs)
            }
        }
    }

    pub(crate) fn from_json(v: &Json, field: &str) -> Result<TmSpec, ScenarioError> {
        match v {
            Json::Str(s) if s == "mesh" => Ok(TmSpec::Mesh),
            Json::Str(s) => Err(ScenarioError::new(
                field,
                format!("unknown traffic matrix `{s}` (want \"mesh\", a number, or a record list)"),
            )),
            Json::Num(_) => Ok(TmSpec::Uniform(ctx(v.as_f64(), field)?)),
            Json::Arr(items) => {
                let mut recs = Vec::with_capacity(items.len());
                for (i, rec) in items.iter().enumerate() {
                    let f = format!("{field}[{i}]");
                    let parts = ctx(rec.as_arr(), &f)?;
                    if parts.len() != 3 {
                        return Err(ScenarioError::new(&f, "want a [src, dst, demand] triple"));
                    }
                    recs.push((
                        narrow(ctx(parts[0].as_u64(), &f)?, &f)?,
                        narrow(ctx(parts[1].as_u64(), &f)?, &f)?,
                        ctx(parts[2].as_f64(), &f)?,
                    ));
                }
                Ok(TmSpec::Records(recs))
            }
            _ => Err(ScenarioError::new(field, "want \"mesh\", a number, or a record list")),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        match self {
            TmSpec::Mesh => Json::Str("mesh".to_string()),
            TmSpec::Uniform(v) => Json::Num(*v),
            TmSpec::Records(recs) => Json::Arr(
                recs.iter()
                    .map(|&(s, d, v)| {
                        Json::Arr(vec![Json::Num(s as f64), Json::Num(d as f64), Json::Num(v)])
                    })
                    .collect(),
            ),
        }
    }
}

fn mesh(n: u32, v: f64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::uniform(n as usize, v);
    for i in 0..n {
        tm.set(NodeId(i), NodeId(i), 0.0);
    }
    tm
}

/// Which preset architecture to deploy, plus its shape parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchSpec {
    /// Preset name: `clos`, `cthrough`, `jupiter`, `mordia`, `rotornet`,
    /// `opera`, `shale` or `semi_oblivious`.
    pub name: String,
    /// Torus dimensionality for `shale` (default 3; ignored elsewhere).
    pub dim: u32,
    /// Schedule length for `mordia`; 0 (the default) means one slice per
    /// node. Ignored elsewhere.
    pub num_slices: u32,
    /// Extra demand-aware slices for `semi_oblivious` (default 3; ignored
    /// elsewhere).
    pub extra_slices: u32,
    /// Demand matrix for the demand-aware presets (default [`TmSpec::Mesh`]).
    pub tm: TmSpec,
}

/// The preset names [`ArchSpec`] accepts, in scenario-file spelling.
pub const ARCH_NAMES: &[&str] =
    &["clos", "cthrough", "jupiter", "mordia", "rotornet", "opera", "shale", "semi_oblivious"];

impl ArchSpec {
    /// A spec with default shape parameters for the given preset name.
    pub fn named(name: &str) -> ArchSpec {
        ArchSpec {
            name: name.to_string(),
            dim: 3,
            num_slices: 0,
            extra_slices: 3,
            tm: TmSpec::Mesh,
        }
    }

    /// Instantiate the [`Architecture`] this spec names.
    pub fn build(&self, cfg: &NetConfig) -> Result<Architecture, ScenarioError> {
        let tm = self.tm.matrix(cfg.node_num);
        Ok(match self.name.as_str() {
            "clos" => Architecture::clos(),
            "cthrough" => Architecture::cthrough(&tm),
            "jupiter" => Architecture::jupiter(),
            "mordia" => {
                let n = if self.num_slices == 0 { cfg.node_num } else { self.num_slices };
                Architecture::mordia(&tm, n)
            }
            "rotornet" => Architecture::rotornet(),
            "opera" => Architecture::opera(),
            "shale" => Architecture::shale(self.dim),
            "semi_oblivious" => Architecture::semi_oblivious(&tm, self.extra_slices),
            other => {
                return Err(ScenarioError::new(
                    "architecture.name",
                    format!("unknown architecture `{other}` (want one of {ARCH_NAMES:?})"),
                ))
            }
        })
    }

    fn from_json(v: &Json) -> Result<ArchSpec, ScenarioError> {
        ctx(v.as_obj(), "architecture")?;
        let name = get_str(v, "name", "architecture.name")?
            .ok_or_else(|| ScenarioError::new("architecture.name", "missing required field"))?;
        if !ARCH_NAMES.contains(&name) {
            return Err(ScenarioError::new(
                "architecture.name",
                format!("unknown architecture `{name}` (want one of {ARCH_NAMES:?})"),
            ));
        }
        let mut spec = ArchSpec::named(name);
        if let Some(d) = get_u64(v, "dim", "architecture.dim")? {
            spec.dim = narrow(d, "architecture.dim")?;
        }
        if let Some(n) = get_u64(v, "num_slices", "architecture.num_slices")? {
            spec.num_slices = narrow(n, "architecture.num_slices")?;
        }
        if let Some(e) = get_u64(v, "extra_slices", "architecture.extra_slices")? {
            spec.extra_slices = narrow(e, "architecture.extra_slices")?;
        }
        if let Some(tm) = v.get("tm") {
            spec.tm = TmSpec::from_json(tm, "architecture.tm")?;
        }
        Ok(spec)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), Json::Str(self.name.clone()))];
        match self.name.as_str() {
            "shale" => fields.push(("dim".to_string(), Json::Num(self.dim as f64))),
            "mordia" => {
                fields.push(("num_slices".to_string(), Json::Num(self.num_slices as f64)));
                fields.push(("tm".to_string(), self.tm.to_json()));
            }
            "semi_oblivious" => {
                fields.push(("extra_slices".to_string(), Json::Num(self.extra_slices as f64)));
                fields.push(("tm".to_string(), self.tm.to_json()));
            }
            "cthrough" => fields.push(("tm".to_string(), self.tm.to_json())),
            _ => {}
        }
        Json::Obj(fields)
    }
}

/// An explicit routing choice overriding the architecture's default.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingSpec {
    /// Algorithm name: `direct`, `ecmp`, `wcmp`, `ksp`, `vlb`, `ucmp`,
    /// `opera` or `hoho`.
    pub algo: String,
    /// Table lookup mode: `per_hop` or `source_routing`.
    pub lookup: String,
    /// Multipath spreading: `none`, `per_flow` or `per_packet`.
    pub multipath: String,
}

/// The algorithm names [`RoutingSpec`] accepts, in scenario-file spelling.
pub const ROUTING_NAMES: &[&str] =
    &["direct", "ecmp", "wcmp", "ksp", "vlb", "ucmp", "opera", "hoho"];

impl RoutingSpec {
    /// A spec with the idiomatic lookup/multipath pairing for `algo` — the
    /// same pairing the built-in sweeps use.
    pub fn named(algo: &str) -> RoutingSpec {
        let (lookup, multipath) = match algo {
            "direct" | "hoho" => ("per_hop", "none"),
            "ecmp" | "wcmp" | "ksp" => ("per_hop", "per_flow"),
            "vlb" | "ucmp" => ("per_hop", "per_packet"),
            _ => ("source_routing", "per_packet"), // opera
        };
        RoutingSpec {
            algo: algo.to_string(),
            lookup: lookup.to_string(),
            multipath: multipath.to_string(),
        }
    }

    /// Instantiate the routing choice this spec names.
    pub fn build(
        &self,
    ) -> Result<(Box<dyn RoutingAlgorithm>, LookupMode, MultipathMode), ScenarioError> {
        let algo: Box<dyn RoutingAlgorithm> = match self.algo.as_str() {
            "direct" => Box::new(Direct),
            "ecmp" => Box::new(Ecmp::default()),
            "wcmp" => Box::new(Wcmp::default()),
            "ksp" => Box::new(Ksp::default()),
            "vlb" => Box::new(Vlb),
            "ucmp" => Box::new(Ucmp::default()),
            "opera" => Box::new(OperaRouting::default()),
            "hoho" => Box::new(Hoho::default()),
            other => {
                return Err(ScenarioError::new(
                    "routing.algo",
                    format!("unknown routing `{other}` (want one of {ROUTING_NAMES:?})"),
                ))
            }
        };
        let lookup = match self.lookup.as_str() {
            "per_hop" => LookupMode::PerHop,
            "source_routing" => LookupMode::SourceRouting,
            other => {
                return Err(ScenarioError::new(
                    "routing.lookup",
                    format!("unknown lookup mode `{other}` (want per_hop or source_routing)"),
                ))
            }
        };
        let multipath = match self.multipath.as_str() {
            "none" => MultipathMode::None,
            "per_flow" => MultipathMode::PerFlow,
            "per_packet" => MultipathMode::PerPacket,
            other => {
                return Err(ScenarioError::new(
                    "routing.multipath",
                    format!("unknown multipath mode `{other}` (want none, per_flow or per_packet)"),
                ))
            }
        };
        Ok((algo, lookup, multipath))
    }

    fn from_json(v: &Json) -> Result<RoutingSpec, ScenarioError> {
        ctx(v.as_obj(), "routing")?;
        let algo = get_str(v, "algo", "routing.algo")?
            .ok_or_else(|| ScenarioError::new("routing.algo", "missing required field"))?;
        if !ROUTING_NAMES.contains(&algo) {
            return Err(ScenarioError::new(
                "routing.algo",
                format!("unknown routing `{algo}` (want one of {ROUTING_NAMES:?})"),
            ));
        }
        let mut spec = RoutingSpec::named(algo);
        if let Some(l) = get_str(v, "lookup", "routing.lookup")? {
            spec.lookup = l.to_string();
        }
        if let Some(m) = get_str(v, "multipath", "routing.multipath")? {
            spec.multipath = m.to_string();
        }
        spec.build()?; // reject bad lookup/multipath spellings at parse time
        Ok(spec)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("algo".to_string(), Json::Str(self.algo.clone())),
            ("lookup".to_string(), Json::Str(self.lookup.clone())),
            ("multipath".to_string(), Json::Str(self.multipath.clone())),
        ])
    }
}

/// Transport model for a point-to-point flow.
#[derive(Clone, Copy, Debug)]
pub struct TransportSpec {
    kind: TransportKind,
}

impl Default for TransportSpec {
    /// Paced at NIC rate — the transport scenario files get when a flow
    /// names none.
    fn default() -> TransportSpec {
        TransportSpec { kind: TransportKind::Paced }
    }
}

impl PartialEq for TransportSpec {
    fn eq(&self, other: &Self) -> bool {
        // TcpConfig has no PartialEq; the normalized JSON form is the
        // canonical identity anyway.
        self.to_json().to_string() == other.to_json().to_string()
    }
}

impl TransportSpec {
    /// The engine-level transport this spec resolves to.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    pub(crate) fn from_json(v: Option<&Json>, field: &str) -> Result<TransportSpec, ScenarioError> {
        let Some(v) = v else {
            return Ok(TransportSpec { kind: TransportKind::Paced });
        };
        ctx(v.as_obj(), field)?;
        let kind = get_str(v, "kind", &format!("{field}.kind"))?.unwrap_or("paced");
        let mut tcp = TcpConfig::default();
        if let Some(m) = get_u64(v, "mss", &format!("{field}.mss"))? {
            tcp.mss = narrow(m, &format!("{field}.mss"))?;
        }
        if let Some(c) = get_u64(v, "init_cwnd", &format!("{field}.init_cwnd"))? {
            tcp.init_cwnd = c;
        }
        if let Some(d) = get_u64(v, "dupack_threshold", &format!("{field}.dupack_threshold"))? {
            tcp.dupack_threshold = narrow(d, &format!("{field}.dupack_threshold"))?;
        }
        if let Some(r) = get_u64(v, "rto_ns", &format!("{field}.rto_ns"))? {
            tcp.rto_ns = r;
        }
        if let Some(m) = get_u64(v, "max_cwnd", &format!("{field}.max_cwnd"))? {
            tcp.max_cwnd = m;
        }
        let kind = match kind {
            "paced" => TransportKind::Paced,
            "tcp" => TransportKind::Tcp(tcp),
            "tdtcp" => TransportKind::TdTcp(tcp),
            other => {
                return Err(ScenarioError::new(
                    format!("{field}.kind"),
                    format!("unknown transport `{other}` (want paced, tcp or tdtcp)"),
                ))
            }
        };
        Ok(TransportSpec { kind })
    }

    pub(crate) fn to_json(self) -> Json {
        let (name, tcp) = match &self.kind {
            TransportKind::Paced => return Json::Obj(vec![kindv("paced")]),
            TransportKind::Tcp(c) => ("tcp", c),
            TransportKind::TdTcp(c) => ("tdtcp", c),
        };
        Json::Obj(vec![
            kindv(name),
            ("mss".to_string(), Json::Num(tcp.mss as f64)),
            ("init_cwnd".to_string(), Json::Num(tcp.init_cwnd as f64)),
            ("dupack_threshold".to_string(), Json::Num(tcp.dupack_threshold as f64)),
            ("rto_ns".to_string(), Json::Num(tcp.rto_ns as f64)),
            ("max_cwnd".to_string(), Json::Num(tcp.max_cwnd as f64)),
        ])
    }
}

fn kindv(name: &str) -> (String, Json) {
    ("kind".to_string(), Json::Str(name.to_string()))
}

/// One per-service SLO target, scenario-file form of an
/// [`SloTarget`](openoptics_core::SloTarget) plus the service name it
/// binds to. Workloads referencing the name report their latencies under
/// this objective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloEntry {
    /// Service name workloads reference via their `service` key.
    pub service: String,
    /// Latency threshold, ns: a completion slower than this is a bad event.
    pub latency_ns: u64,
    /// Objective in per-mille (999 = 99.9% of completions under threshold).
    pub objective_milli: u32,
    /// Rolling burn-rate window, ns.
    pub window_ns: u64,
}

impl SloEntry {
    pub(crate) fn from_json(v: &Json, field: &str) -> Result<SloEntry, ScenarioError> {
        ctx(v.as_obj(), field)?;
        let service = get_str(v, "service", &format!("{field}.service"))?
            .ok_or_else(|| {
                ScenarioError::new(format!("{field}.service"), "missing required field")
            })?
            .to_string();
        let objective_milli: u32 = narrow(
            need_u64(v, "objective_milli", &format!("{field}.objective_milli"))?,
            &format!("{field}.objective_milli"),
        )?;
        if objective_milli >= 1000 {
            return Err(ScenarioError::new(
                format!("{field}.objective_milli"),
                format!("objective {objective_milli}‰ leaves no error budget (want < 1000)"),
            ));
        }
        let window_ns = need_u64(v, "window_ns", &format!("{field}.window_ns"))?;
        if window_ns == 0 {
            return Err(ScenarioError::new(
                format!("{field}.window_ns"),
                "burn-rate window must be positive",
            ));
        }
        Ok(SloEntry {
            service,
            latency_ns: need_u64(v, "latency_ns", &format!("{field}.latency_ns"))?,
            objective_milli,
            window_ns,
        })
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("service".to_string(), Json::Str(self.service.clone())),
            ("latency_ns".to_string(), Json::Num(self.latency_ns as f64)),
            ("objective_milli".to_string(), Json::Num(self.objective_milli as f64)),
            ("window_ns".to_string(), Json::Num(self.window_ns as f64)),
        ])
    }

    /// The engine-level target this entry declares.
    pub fn target(&self) -> openoptics_core::SloTarget {
        openoptics_core::SloTarget {
            latency_ns: self.latency_ns,
            objective_milli: self.objective_milli,
            window_ns: self.window_ns,
        }
    }
}

/// One workload attached to the network before (or, for flows, during) the
/// run.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// A single point-to-point transfer.
    Flow {
        /// Start time, ns.
        at_ns: u64,
        /// Source host.
        src: u32,
        /// Destination host.
        dst: u32,
        /// Transfer size in bytes.
        bytes: u64,
        /// Transport model.
        transport: TransportSpec,
        /// Service this flow's FCT reports under, for SLO accounting.
        service: Option<String>,
    },
    /// A closed-loop memcached service (paper §6.2 figure 9 style).
    Memcached {
        /// Host running the server.
        server: u32,
        /// Client hosts issuing SETs.
        clients: Vec<u32>,
        /// When clients stop issuing new operations, ns.
        stop_ns: u64,
        /// Bytes per SET.
        set_bytes: u32,
        /// Server response size.
        response_bytes: u32,
        /// Mean inter-operation interval per client, ns.
        mean_interval_ns: u64,
        /// Service each op's request→response latency reports under.
        service: Option<String>,
    },
    /// A ring allreduce across the listed hosts.
    Allreduce {
        /// Participating hosts, in ring order.
        hosts: Vec<u32>,
        /// Bytes of gradient data per host.
        data_bytes: u64,
        /// Service every chunk flow's FCT reports under.
        service: Option<String>,
    },
    /// A fixed-rate probe train for latency measurement.
    ProbeTrain {
        /// Probing host.
        src: u32,
        /// Probed host.
        dst: u32,
        /// Inter-probe interval, ns.
        interval_ns: u64,
        /// Number of probes.
        count: u64,
        /// Probe payload bytes.
        payload: u32,
    },
}

impl WorkloadSpec {
    fn from_json(v: &Json, i: usize) -> Result<WorkloadSpec, ScenarioError> {
        let f = format!("workloads[{i}]");
        ctx(v.as_obj(), &f)?;
        let kind = get_str(v, "kind", &format!("{f}.kind"))?
            .ok_or_else(|| ScenarioError::new(format!("{f}.kind"), "missing required field"))?;
        match kind {
            "flow" => Ok(WorkloadSpec::Flow {
                at_ns: get_u64(v, "at_ns", &format!("{f}.at_ns"))?.unwrap_or(0),
                src: narrow(need_u64(v, "src", &format!("{f}.src"))?, &format!("{f}.src"))?,
                dst: narrow(need_u64(v, "dst", &format!("{f}.dst"))?, &format!("{f}.dst"))?,
                bytes: need_u64(v, "bytes", &format!("{f}.bytes"))?,
                transport: TransportSpec::from_json(v.get("transport"), &format!("{f}.transport"))?,
                service: get_str(v, "service", &format!("{f}.service"))?.map(str::to_string),
            }),
            "memcached" => {
                let p = MemcachedParams::paper();
                Ok(WorkloadSpec::Memcached {
                    server: narrow(
                        need_u64(v, "server", &format!("{f}.server"))?,
                        &format!("{f}.server"),
                    )?,
                    clients: host_list(v, "clients", &f)?,
                    stop_ns: need_u64(v, "stop_ns", &format!("{f}.stop_ns"))?,
                    set_bytes: narrow(
                        get_u64(v, "set_bytes", &format!("{f}.set_bytes"))?
                            .unwrap_or(p.set_bytes as u64),
                        &format!("{f}.set_bytes"),
                    )?,
                    response_bytes: narrow(
                        get_u64(v, "response_bytes", &format!("{f}.response_bytes"))?
                            .unwrap_or(p.response_bytes as u64),
                        &format!("{f}.response_bytes"),
                    )?,
                    mean_interval_ns: get_u64(
                        v,
                        "mean_interval_ns",
                        &format!("{f}.mean_interval_ns"),
                    )?
                    .unwrap_or(p.mean_interval_ns),
                    service: get_str(v, "service", &format!("{f}.service"))?.map(str::to_string),
                })
            }
            "allreduce" => Ok(WorkloadSpec::Allreduce {
                hosts: host_list(v, "hosts", &f)?,
                data_bytes: need_u64(v, "data_bytes", &format!("{f}.data_bytes"))?,
                service: get_str(v, "service", &format!("{f}.service"))?.map(str::to_string),
            }),
            "probe_train" => Ok(WorkloadSpec::ProbeTrain {
                src: narrow(need_u64(v, "src", &format!("{f}.src"))?, &format!("{f}.src"))?,
                dst: narrow(need_u64(v, "dst", &format!("{f}.dst"))?, &format!("{f}.dst"))?,
                interval_ns: need_u64(v, "interval_ns", &format!("{f}.interval_ns"))?,
                count: need_u64(v, "count", &format!("{f}.count"))?,
                payload: narrow(
                    get_u64(v, "payload", &format!("{f}.payload"))?.unwrap_or(64),
                    &format!("{f}.payload"),
                )?,
            }),
            other => Err(ScenarioError::new(
                format!("{f}.kind"),
                format!(
                    "unknown workload `{other}` (want flow, memcached, allreduce or probe_train)"
                ),
            )),
        }
    }

    /// The service name this workload tags its latencies with, if any.
    pub fn service(&self) -> Option<&str> {
        match self {
            WorkloadSpec::Flow { service, .. }
            | WorkloadSpec::Memcached { service, .. }
            | WorkloadSpec::Allreduce { service, .. } => service.as_deref(),
            WorkloadSpec::ProbeTrain { .. } => None,
        }
    }

    fn to_json(&self) -> Json {
        let mut obj = match self {
            WorkloadSpec::Flow { at_ns, src, dst, bytes, transport, .. } => vec![
                kindv("flow"),
                ("at_ns".to_string(), Json::Num(*at_ns as f64)),
                ("src".to_string(), Json::Num(*src as f64)),
                ("dst".to_string(), Json::Num(*dst as f64)),
                ("bytes".to_string(), Json::Num(*bytes as f64)),
                ("transport".to_string(), transport.to_json()),
            ],
            WorkloadSpec::Memcached {
                server,
                clients,
                stop_ns,
                set_bytes,
                response_bytes,
                mean_interval_ns,
                ..
            } => vec![
                kindv("memcached"),
                ("server".to_string(), Json::Num(*server as f64)),
                ("clients".to_string(), num_arr(clients)),
                ("stop_ns".to_string(), Json::Num(*stop_ns as f64)),
                ("set_bytes".to_string(), Json::Num(*set_bytes as f64)),
                ("response_bytes".to_string(), Json::Num(*response_bytes as f64)),
                ("mean_interval_ns".to_string(), Json::Num(*mean_interval_ns as f64)),
            ],
            WorkloadSpec::Allreduce { hosts, data_bytes, .. } => vec![
                kindv("allreduce"),
                ("hosts".to_string(), num_arr(hosts)),
                ("data_bytes".to_string(), Json::Num(*data_bytes as f64)),
            ],
            WorkloadSpec::ProbeTrain { src, dst, interval_ns, count, payload } => vec![
                kindv("probe_train"),
                ("src".to_string(), Json::Num(*src as f64)),
                ("dst".to_string(), Json::Num(*dst as f64)),
                ("interval_ns".to_string(), Json::Num(*interval_ns as f64)),
                ("count".to_string(), Json::Num(*count as f64)),
                ("payload".to_string(), Json::Num(*payload as f64)),
            ],
        };
        if let Some(s) = self.service() {
            obj.push(("service".to_string(), Json::Str(s.to_string())));
        }
        Json::Obj(obj)
    }
}

fn host_list(v: &Json, key: &str, f: &str) -> Result<Vec<u32>, ScenarioError> {
    let field = format!("{f}.{key}");
    let arr = v.get(key).ok_or_else(|| ScenarioError::new(&field, "missing required field"))?;
    let items = ctx(arr.as_arr(), &field)?;
    items
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let f = format!("{field}[{i}]");
            narrow(ctx(h.as_u64(), &f)?, &f)
        })
        .collect()
}

fn num_arr(values: &[u32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
}

/// One fault window, scenario-file form of a `FaultSpec`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    /// Fault kind: `link_down`, `transceiver_flap`, `ocs_port_stuck`,
    /// `slice_corruption` or `nic_pause_storm`.
    pub kind: String,
    /// Node the fault hits.
    pub node: u32,
    /// Port on that node (only meaningful for the per-port kinds).
    pub port: u16,
    /// Corruption percentage for `transceiver_flap` (0–100).
    pub corrupt_pct: u8,
    /// Fault activation time, ns.
    pub start_ns: u64,
    /// Fault clear time, ns (must be after `start_ns`).
    pub end_ns: u64,
}

/// The fault kinds [`FaultEntry`] accepts, in scenario-file spelling.
pub const FAULT_KINDS: &[&str] =
    &["link_down", "transceiver_flap", "ocs_port_stuck", "slice_corruption", "nic_pause_storm"];

impl FaultEntry {
    pub(crate) fn from_json(v: &Json, field: &str) -> Result<FaultEntry, ScenarioError> {
        ctx(v.as_obj(), field)?;
        let kind = get_str(v, "kind", &format!("{field}.kind"))?
            .ok_or_else(|| ScenarioError::new(format!("{field}.kind"), "missing required field"))?;
        if !FAULT_KINDS.contains(&kind) {
            return Err(ScenarioError::new(
                format!("{field}.kind"),
                format!("unknown fault kind `{kind}` (want one of {FAULT_KINDS:?})"),
            ));
        }
        Ok(FaultEntry {
            kind: kind.to_string(),
            node: narrow(need_u64(v, "node", &format!("{field}.node"))?, &format!("{field}.node"))?,
            port: narrow(
                get_u64(v, "port", &format!("{field}.port"))?.unwrap_or(0),
                &format!("{field}.port"),
            )?,
            corrupt_pct: narrow(
                get_u64(v, "corrupt_pct", &format!("{field}.corrupt_pct"))?.unwrap_or(0),
                &format!("{field}.corrupt_pct"),
            )?,
            start_ns: need_u64(v, "start_ns", &format!("{field}.start_ns"))?,
            end_ns: need_u64(v, "end_ns", &format!("{field}.end_ns"))?,
        })
    }

    pub(crate) fn to_json(&self) -> Json {
        let mut fields = vec![kindv(&self.kind), ("node".to_string(), Json::Num(self.node as f64))];
        if matches!(self.kind.as_str(), "link_down" | "transceiver_flap" | "ocs_port_stuck") {
            fields.push(("port".to_string(), Json::Num(self.port as f64)));
        }
        if self.kind == "transceiver_flap" {
            fields.push(("corrupt_pct".to_string(), Json::Num(self.corrupt_pct as f64)));
        }
        fields.push(("start_ns".to_string(), Json::Num(self.start_ns as f64)));
        fields.push(("end_ns".to_string(), Json::Num(self.end_ns as f64)));
        Json::Obj(fields)
    }
}

/// Build a [`FaultPlan`] from a batch of entries; `field` locates the batch
/// in error messages.
pub(crate) fn build_fault_plan(
    entries: &[FaultEntry],
    field: &str,
) -> Result<FaultPlan, ScenarioError> {
    let mut b = FaultPlan::builder();
    for e in entries {
        let node = NodeId(e.node);
        let port = PortId(e.port);
        b = match e.kind.as_str() {
            "link_down" => b.link_down(node, port, e.start_ns, e.end_ns),
            "transceiver_flap" => {
                b.transceiver_flap(node, port, e.corrupt_pct, e.start_ns, e.end_ns)
            }
            "ocs_port_stuck" => b.ocs_port_stuck(node, port, e.start_ns, e.end_ns),
            "slice_corruption" => b.slice_corruption(node, e.start_ns, e.end_ns),
            _ => b.nic_pause_storm(node, e.start_ns, e.end_ns),
        };
    }
    ctx(b.build(), field)
}

/// A fully validated scenario: everything needed to deploy and drive one
/// run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Free-text description carried through normalization.
    pub description: String,
    /// The `config` object exactly as written (comment keys included); fed
    /// to [`NetConfig::from_json`] so unknown keys are ignored and defaults
    /// fill in missing ones.
    config_raw: Json,
    /// The validated engine configuration built from `config_raw`.
    pub config: NetConfig,
    /// Architecture to deploy.
    pub architecture: ArchSpec,
    /// Routing override; `None` means the architecture's default pairing.
    pub routing: Option<RoutingSpec>,
    /// Workloads to attach before the run starts.
    pub workloads: Vec<WorkloadSpec>,
    /// Per-service SLO targets declared before the run starts.
    pub slos: Vec<SloEntry>,
    /// Fault campaign to inject before the run starts.
    pub faults: Vec<FaultEntry>,
    /// Default run horizon, ns.
    pub stop_ns: u64,
}

impl Scenario {
    /// Parse and validate a scenario document.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = json::parse(text).map_err(|e| ScenarioError::new("scenario", e.to_string()))?;
        Scenario::from_json(&doc)
    }

    /// Validate an already-parsed scenario document.
    pub fn from_json(doc: &Json) -> Result<Scenario, ScenarioError> {
        ctx(doc.as_obj(), "scenario")?;
        let version = need_u64(doc, "version", "version")?;
        if version != SCENARIO_VERSION {
            return Err(ScenarioError::new(
                "version",
                format!("unsupported scenario version {version} (this build reads version {SCENARIO_VERSION})"),
            ));
        }
        let description = get_str(doc, "description", "description")?.unwrap_or("").to_string();
        let config_raw = match doc.get("config") {
            None => Json::Obj(vec![]),
            Some(v) => {
                ctx(v.as_obj(), "config")?;
                v.clone()
            }
        };
        let config = ctx(NetConfig::from_json(&config_raw.to_string()), "config")?;
        ctx(config.validate(), "config")?;
        let architecture = match doc.get("architecture") {
            None => return Err(ScenarioError::new("architecture", "missing required field")),
            Some(v) => ArchSpec::from_json(v)?,
        };
        let routing = match doc.get("routing") {
            None => None,
            Some(v) => Some(RoutingSpec::from_json(v)?),
        };
        let mut workloads = Vec::new();
        if let Some(v) = doc.get("workloads") {
            for (i, w) in ctx(v.as_arr(), "workloads")?.iter().enumerate() {
                workloads.push(WorkloadSpec::from_json(w, i)?);
            }
        }
        let mut slos = Vec::new();
        if let Some(v) = doc.get("slos") {
            for (i, e) in ctx(v.as_arr(), "slos")?.iter().enumerate() {
                let entry = SloEntry::from_json(e, &format!("slos[{i}]"))?;
                if slos.iter().any(|s: &SloEntry| s.service == entry.service) {
                    return Err(ScenarioError::new(
                        format!("slos[{i}].service"),
                        format!("duplicate SLO for service `{}`", entry.service),
                    ));
                }
                slos.push(entry);
            }
        }
        let mut faults = Vec::new();
        if let Some(v) = doc.get("faults") {
            for (i, e) in ctx(v.as_arr(), "faults")?.iter().enumerate() {
                faults.push(FaultEntry::from_json(e, &format!("faults[{i}]"))?);
            }
        }
        let stop_ns = need_u64(doc, "stop_ns", "stop_ns")?;
        let scenario = Scenario {
            description,
            config_raw,
            config,
            architecture,
            routing,
            workloads,
            slos,
            faults,
            stop_ns,
        };
        scenario.check_hosts()?;
        build_fault_plan(&scenario.faults, "faults")?;
        scenario.architecture.build(&scenario.config)?;
        Ok(scenario)
    }

    /// Cross-validate workload host ids against the configured network size.
    fn check_hosts(&self) -> Result<(), ScenarioError> {
        let total = self.config.total_hosts();
        let check = |h: u32, field: String| {
            if h >= total {
                Err(ScenarioError::new(
                    field,
                    format!("host {h} out of range (network has {total} hosts)"),
                ))
            } else {
                Ok(())
            }
        };
        for (i, w) in self.workloads.iter().enumerate() {
            match w {
                WorkloadSpec::Flow { src, dst, .. } => {
                    check(*src, format!("workloads[{i}].src"))?;
                    check(*dst, format!("workloads[{i}].dst"))?;
                }
                WorkloadSpec::Memcached { server, clients, .. } => {
                    check(*server, format!("workloads[{i}].server"))?;
                    for (j, c) in clients.iter().enumerate() {
                        check(*c, format!("workloads[{i}].clients[{j}]"))?;
                    }
                }
                WorkloadSpec::Allreduce { hosts, .. } => {
                    for (j, h) in hosts.iter().enumerate() {
                        check(*h, format!("workloads[{i}].hosts[{j}]"))?;
                    }
                }
                WorkloadSpec::ProbeTrain { src, dst, .. } => {
                    check(*src, format!("workloads[{i}].src"))?;
                    check(*dst, format!("workloads[{i}].dst"))?;
                }
            }
        }
        Ok(())
    }

    /// The normalized document as a JSON value with fixed key order.
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![("version".to_string(), Json::Num(SCENARIO_VERSION as f64))];
        if !self.description.is_empty() {
            fields.push(("description".to_string(), Json::Str(self.description.clone())));
        }
        fields.push(("config".to_string(), self.config_raw.clone()));
        fields.push(("architecture".to_string(), self.architecture.to_json()));
        if let Some(r) = &self.routing {
            fields.push(("routing".to_string(), r.to_json()));
        }
        fields.push((
            "workloads".to_string(),
            Json::Arr(self.workloads.iter().map(|w| w.to_json()).collect()),
        ));
        if !self.slos.is_empty() {
            fields.push((
                "slos".to_string(),
                Json::Arr(self.slos.iter().map(|e| e.to_json()).collect()),
            ));
        }
        fields.push((
            "faults".to_string(),
            Json::Arr(self.faults.iter().map(|e| e.to_json()).collect()),
        ));
        fields.push(("stop_ns".to_string(), Json::Num(self.stop_ns as f64)));
        Json::Obj(fields)
    }

    /// Render the normalized document, pretty-printed.
    ///
    /// `parse(to_json()) → to_json()` is byte-identical: the normalized
    /// form is a fixed point of the parse/render cycle.
    pub fn to_json(&self) -> String {
        json::pretty(&self.to_json_value())
    }

    /// Deploy the scenario: build the network, attach every workload and
    /// inject the fault campaign. The returned network has not simulated
    /// anything yet.
    pub fn build(&self) -> Result<OpenOpticsNet, ScenarioError> {
        let cfg = self.config.clone();
        let arch = self.architecture.build(&cfg)?;
        let (algo, lookup, multipath) = match &self.routing {
            Some(r) => r.build()?,
            None => arch.default_routing(),
        };
        let mut net =
            ctx(OpenOpticsNet::deploy(cfg, arch, algo, lookup, multipath), "architecture")?;
        // Declare SLO-bearing services first (in document order), then any
        // service a workload names without an SLO — so ids depend only on
        // the document, never on attach timing.
        let mut service_ids: Vec<(String, u16)> = Vec::new();
        for e in &self.slos {
            let id = net.declare_service(&e.service, Some(e.target()));
            service_ids.push((e.service.clone(), id));
        }
        for w in &self.workloads {
            if let Some(name) = w.service() {
                if !service_ids.iter().any(|(n, _)| n == name) {
                    let id = net.declare_service(name, None);
                    service_ids.push((name.to_string(), id));
                }
            }
        }
        for (i, w) in self.workloads.iter().enumerate() {
            let service = w
                .service()
                .and_then(|name| service_ids.iter().find(|(n, _)| n == name))
                .map(|&(_, id)| id);
            attach_workload(&mut net, w, service, &format!("workloads[{i}]"))?;
        }
        if !self.faults.is_empty() {
            let plan = build_fault_plan(&self.faults, "faults")?;
            ctx(net.inject_faults(&plan), "faults")?;
        }
        Ok(net)
    }
}

/// Attach one workload to a deployed network, tagging it with a declared
/// service id when the spec names one.
pub(crate) fn attach_workload(
    net: &mut OpenOpticsNet,
    w: &WorkloadSpec,
    service: Option<u16>,
    field: &str,
) -> Result<(), ScenarioError> {
    match w {
        WorkloadSpec::Flow { at_ns, src, dst, bytes, transport, .. } => {
            if SimTime(*at_ns) < net.now() {
                return Err(ScenarioError::new(
                    format!("{field}.at_ns"),
                    format!("flow start {} ns is before sim time {} ns", at_ns, net.now().0),
                ));
            }
            net.add_flow_tagged(
                SimTime(*at_ns),
                HostId(*src),
                HostId(*dst),
                *bytes,
                transport.kind(),
                service,
            );
        }
        WorkloadSpec::Memcached {
            server,
            clients,
            stop_ns,
            set_bytes,
            response_bytes,
            mean_interval_ns,
            ..
        } => {
            let params = MemcachedParams {
                set_bytes: *set_bytes,
                response_bytes: *response_bytes,
                mean_interval_ns: *mean_interval_ns,
            };
            let clients = clients.iter().map(|&c| HostId(c)).collect();
            net.add_memcached_tagged(params, HostId(*server), clients, SimTime(*stop_ns), service);
        }
        WorkloadSpec::Allreduce { hosts, data_bytes, .. } => {
            let hosts = hosts.iter().map(|&h| HostId(h)).collect();
            net.add_allreduce_tagged(hosts, *data_bytes, service);
        }
        WorkloadSpec::ProbeTrain { src, dst, interval_ns, count, payload } => {
            net.add_probe_train(HostId(*src), HostId(*dst), *interval_ns, *count, *payload);
        }
    }
    Ok(())
}
