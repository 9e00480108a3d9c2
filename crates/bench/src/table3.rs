//! Table 3 — 99.9th-percentile switch buffer usage.
//!
//! Buffer-hungry routings (VLB with and without offloading, HOHO, UCMP)
//! under the KV-store / RPC / Hadoop traces at 40% core load and 300 µs
//! slices. Paper shape: HOHO and UCMP stay low (they chase the nearest
//! slices); VLB is several times larger (packets wait at intermediate ToRs
//! for up to a cycle) yet far below the 64 MB Tofino2 buffer, and
//! offloading cuts the switch-resident share by an order of magnitude.

use crate::par;
use crate::util::{testbed, Table};
use openoptics_core::{Architecture, OpenOpticsNet, TransportKind};
use openoptics_proto::NodeId;
use openoptics_routing::algos::{Hoho, Ucmp, Vlb};
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_sim::time::SimTime;
use openoptics_workload::{PoissonArrivals, Trace};

/// ToR count for the load benchmark (a reduced stand-in for the 108-ToR
/// setup; see EXPERIMENTS.md).
pub const NODES: u32 = 12;
const SLICE_NS: u64 = 300_000;

/// One `(routing, trace)` cell.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Routing scheme.
    pub routing: &'static str,
    /// Trace name.
    pub trace: &'static str,
    /// 99.9th-percentile switch-resident buffer, MB.
    pub p999_mb: f64,
    /// Peak switch-resident buffer, MB.
    pub peak_mb: f64,
    /// Peak bytes parked on hosts by offloading, MB (0 when disabled).
    pub offloaded_peak_mb: f64,
}

fn build(routing: &'static str, offload: bool) -> OpenOpticsNet {
    let mut cfg = testbed(SLICE_NS, 2);
    cfg.node_num = NODES;
    cfg.queue_capacity = 16 * 1024 * 1024;
    // A 1 MB per-queue threshold lets the congestion service spread
    // HOHO/UCMP bursts over nearby slices (as deployed) without flattening
    // the natural buffer demand this experiment measures.
    cfg.congestion_threshold = 1024 * 1024;
    cfg.offload = offload;
    cfg.offload_keep_ranks = 2;
    cfg.offload_return_lead_ns = 50_000;
    let (algo, multipath): (Box<dyn RoutingAlgorithm>, _) = match routing {
        "vlb" => (Box::new(Vlb), MultipathMode::PerPacket),
        "hoho" => (Box::new(Hoho::default()), MultipathMode::None),
        _ => (Box::new(Ucmp::default()), MultipathMode::PerPacket),
    };
    OpenOpticsNet::deploy(cfg, Architecture::rotornet(), algo, LookupMode::PerHop, multipath)
        .expect("rotornet deploys")
}

fn attach_load(net: &mut OpenOpticsNet, trace: Trace, load: f64, horizon: SimTime, seed: u64) {
    let hosts = (0..net.engine.cfg.total_hosts()).map(openoptics_proto::HostId).collect();
    let mut gen =
        PoissonArrivals::new(hosts, trace.dist(), net.engine.cfg.host_link_bandwidth(), load, seed);
    for f in gen.take_until(horizon) {
        // Cap single flows at 2 MB so one straggler doesn't dominate the
        // short window (documented substitution; the distribution body is
        // preserved).
        net.add_flow(f.at, f.src, f.dst, f.bytes.min(2_000_000), TransportKind::Paced);
    }
}

fn measure(
    routing: &'static str,
    offload: bool,
    trace: Trace,
    ms: u64,
    profile: bool,
) -> (Table3Row, Option<ProfileCapture>) {
    let algo_key = routing.split('+').next().expect("non-empty routing key");
    let profile_cells = std::env::var_os("OO_PROFILE_CELLS").is_some();
    let cell_t0 = std::time::Instant::now();
    let mut net = build(algo_key, offload);
    if profile {
        let t0 = std::time::Instant::now();
        net.set_profiler_clock(move || t0.elapsed().as_nanos() as u64);
    }
    // The paper's "40% core link utilization" is fabric-side; VLB doubles
    // every byte (two hops), so host injection of 20% yields 40% core for
    // VLB and less for the single-ish-hop schemes.
    attach_load(&mut net, trace, 0.2, SimTime::from_ms(ms), 3);
    // Run in slice-sized steps and sample the observed ToR's buffer.
    let mut samples = vec![];
    let steps = ms * 1_000_000 / SLICE_NS;
    for _ in 0..steps {
        net.run_for(SimTime::from_ns(SLICE_NS));
        let total: u64 =
            (0..NODES).map(|n| net.engine.tor(NodeId(n)).buffer_bytes()).max().unwrap_or(0);
        samples.push(total);
    }
    samples.sort_unstable();
    let p999 = samples[((samples.len() as f64 * 0.999) as usize).min(samples.len() - 1)];
    let peak: u64 =
        (0..NODES).map(|n| net.engine.tor(NodeId(n)).peak_buffer_bytes).max().unwrap_or(0);
    let off_peak: u64 = (0..NODES)
        .map(|n| net.engine.tor(NodeId(n)).offload_book.peak_parked_bytes)
        .max()
        .unwrap_or(0);
    par::note_net(&net);
    if profile_cells {
        eprintln!(
            "[table3 cell {routing}/{}: {:.2}s wall, {} events, {} far, {} overlay]",
            trace.name(),
            cell_t0.elapsed().as_secs_f64(),
            net.queue_stats().scheduled_total,
            net.queue_stats().far_scheduled,
            net.queue_stats().overlay_scheduled,
        );
    }
    let capture = profile.then(|| ProfileCapture {
        sim_report: net.profiler_report().unwrap_or_default(),
        wall_report: net.profiler_wall_report(),
        queue_stats: net.queue_stats(),
    });
    let row = Table3Row {
        routing,
        trace: trace.name(),
        p999_mb: p999 as f64 / 1e6,
        peak_mb: peak as f64 / 1e6,
        offloaded_peak_mb: off_peak as f64 / 1e6,
    };
    (row, capture)
}

/// Per-phase profile of the representative cell (satellite of the
/// `--profile` flag): the deterministic sim-time report plus, when a wall
/// clock was installed, the wall-clock inclusive/exclusive table.
pub struct ProfileCapture {
    /// Deterministic sim-time phase report.
    pub sim_report: String,
    /// Wall-clock phase report (not deterministic; stderr only).
    pub wall_report: Option<String>,
    /// Event-queue structure mix at the end of the cell (how many events
    /// took the O(1) ring vs the overlay/far heap slow paths).
    pub queue_stats: openoptics_sim::QueueStats,
}

/// The cell `--profile` attributes: VLB with offloading under the KV-store
/// trace — the slowest cell of the sweep (the many-tiny-flow trace puts
/// the most packets through the offload book), hence the one whose phase
/// mix explains the experiment's wall time.
pub const PROFILE_CELL: (&str, &str) = ("vlb+offload", "KV store");

/// Run the routing × trace sweep over `ms` milliseconds per cell; each
/// `(trace, routing)` cell is an independent parallel point.
pub fn run(ms: u64) -> Vec<Table3Row> {
    run_with_profile(ms, false).0
}

/// Like [`run`], but with `profile` set it additionally self-profiles the
/// [`PROFILE_CELL`] point in wall-clock mode and returns the phase
/// breakdown (simulation results never depend on the host clock; the
/// capture comes from a single fixed cell, so rows stay byte-identical at
/// any `--jobs` count).
pub fn run_with_profile(ms: u64, profile: bool) -> (Vec<Table3Row>, Option<ProfileCapture>) {
    const ROUTINGS: [(&str, bool); 4] =
        [("vlb", false), ("vlb+offload", true), ("hoho", false), ("ucmp", false)];
    let results = par::par_map(Trace::ALL.len() * ROUTINGS.len(), |i| {
        let trace = Trace::ALL[i / ROUTINGS.len()];
        let (routing, offload) = ROUTINGS[i % ROUTINGS.len()];
        let profile_here = profile && routing == PROFILE_CELL.0 && trace.name() == PROFILE_CELL.1;
        measure(routing, offload, trace, ms, profile_here)
    });
    let mut rows = Vec::with_capacity(results.len());
    let mut capture = None;
    for (row, c) in results {
        rows.push(row);
        capture = capture.or(c);
    }
    (rows, capture)
}

/// Render as a table.
pub fn render(rows: &[Table3Row]) -> String {
    let mut t = Table::new(&["trace", "routing", "p99.9 buffer", "peak buffer", "offloaded peak"]);
    for r in rows {
        t.row(vec![
            r.trace.to_string(),
            r.routing.to_string(),
            format!("{:.2} MB", r.p999_mb),
            format!("{:.2} MB", r.peak_mb),
            format!("{:.2} MB", r.offloaded_peak_mb),
        ]);
    }
    format!("{}(Tofino2 total buffer: 64 MB; paper: VLB ~9.5-12.8 MB, offloaded ~1.3-1.6 MB, HOHO/UCMP 2.4-6.5 MB)\n", t.render())
}
