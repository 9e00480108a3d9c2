//! The simulation workloads (`vlb_bulk`, `tcp_services`): a generated
//! scenario document goes through `json::parse` → `Scenario::from_json` →
//! `Session::new`, then the timed phase steps a fixed simulated window
//! with `Session::run_until`.

use std::collections::BTreeMap;
use std::time::Instant;

use openoptics_core::json;
use openoptics_core::OpenOpticsNet;
use openoptics_ctl::{Scenario, Session};

use crate::gen::{self, SimPlan};
use crate::measure::{self, cpu_s, fnv1a, median, secs, Allocs};
use crate::report::Report;
use crate::trace::Tracer;

/// Timed simulated window of a full-size run, ns.
pub const WINDOW_NS: u64 = 20_000_000;

#[derive(Clone, Copy)]
pub enum SimKind {
    VlbBulk,
    TcpServices,
}

impl SimKind {
    pub fn name(self) -> &'static str {
        match self {
            SimKind::VlbBulk => "vlb_bulk",
            SimKind::TcpServices => "tcp_services",
        }
    }

    pub fn plan(self, seed: u64, window_ns: u64) -> SimPlan {
        match self {
            SimKind::VlbBulk => gen::vlb_bulk(seed, window_ns),
            SimKind::TcpServices => gen::tcp_services(seed, window_ns),
        }
    }
}

/// Base-name counter totals of a session's telemetry snapshot, labels
/// folded (`tor.tx_packets{node=N3}` counts toward `tor.tx_packets`).
pub fn counter_totals(net: &OpenOpticsNet) -> BTreeMap<String, u64> {
    net.telemetry_snapshot().counter_totals().into_iter().collect()
}

/// The canonical export a run is judged by: the export bundle (telemetry
/// snapshot, fault report, FCT summary, SLO summaries) plus the SLO
/// report.
pub fn export_digest_text(session: &Session) -> String {
    let mut text = session.export_bundle();
    text.push_str(&session.net().export_slo_report().unwrap_or_default());
    text
}

/// One full pass of a scenario: set up, step the window, check.
pub struct Pass {
    pub session: Session,
    pub setup: SetupTimes,
    pub setup_allocs: Allocs,
    pub run_s: f64,
    pub cpu_s: f64,
    pub run_allocs: Allocs,
    pub steps_us: Vec<f64>,
    pub events: u64,
}

/// Wall time of each setup step, seconds.
pub struct SetupTimes {
    pub total_s: f64,
    pub parse_s: f64,
    pub from_json_s: f64,
    pub session_new_s: f64,
}

/// Scenario text in hand → session ready to step: JSON parse, scenario
/// validation, deploy (schedule + routing compile), workload and fault
/// attach.
pub fn setup(doc: &str, tr: &mut Tracer) -> Result<(Session, SetupTimes), String> {
    let t0 = Instant::now();
    let span = tr.begin("setup.total");
    let parsed = tr.span("json.parse", || json::parse(doc)).map_err(|e| e.to_string())?;
    let parse_s = secs(t0);
    let t1 = Instant::now();
    let scenario = tr
        .span("scenario.from_json", || Scenario::from_json(&parsed))
        .map_err(|e| e.to_string())?;
    drop(parsed);
    let from_json_s = secs(t1);
    let t2 = Instant::now();
    let session = tr.span("session.new", || Session::new(scenario)).map_err(|e| e.to_string())?;
    let session_new_s = secs(t2);
    tr.end(span);
    let times = SetupTimes { total_s: secs(t0), parse_s, from_json_s, session_new_s };
    Ok((session, times))
}

/// Set up and run one pass of `plan`, recording spans into `tr`.
pub fn pass(plan: &SimPlan, tr: &mut Tracer) -> Result<Pass, String> {
    let a0 = Allocs::now();
    let (mut session, setup) = setup(&plan.doc, tr)?;
    let setup_allocs = Allocs::now().since(a0);

    let steps = plan.window_ns.div_ceil(plan.step_ns) as usize;
    let mut steps_us = Vec::with_capacity(steps);
    let run = tr.begin("core.run");
    let a1 = Allocs::now();
    let c1 = cpu_s();
    let t3 = Instant::now();
    let mut at = 0;
    while at < plan.window_ns {
        at = (at + plan.step_ns).min(plan.window_ns);
        let ts = Instant::now();
        let step = tr.begin("core.run_until");
        session.run_until(at);
        tr.end(step);
        steps_us.push(secs(ts) * 1e6);
    }
    let run_s = secs(t3);
    let cpu = cpu_s() - c1;
    let run_allocs = Allocs::now().since(a1);
    tr.end(run);
    let events = session.net().events_scheduled();
    Ok(Pass { session, setup, setup_allocs, run_s, cpu_s: cpu, run_allocs, steps_us, events })
}

/// Seed-independent invariants of a finished pass.
pub fn check_invariants(rep: &mut Report, what: &str, plan: &SimPlan, session: &Session) {
    let c = counter_totals(session.net());
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let (tx, delivered) = (get("engine.host_tx_packets"), get("engine.delivered_packets"));
    rep.check(tx > 0 && delivered <= tx, || {
        format!("{what}: delivered packets {delivered} vs transmitted {tx}")
    });
    let fct = session.net().fct();
    let completed = fct.completed().len() as u64;
    let started = completed + fct.outstanding() as u64;
    rep.check(completed > 0 && completed <= started, || {
        format!("{what}: completed flows {completed} vs started {started}")
    });
    rep.check(get("fct.completed_flows") == completed, || {
        format!("{what}: fct.completed_flows disagrees with the FCT record")
    });
    rep.check(
        plan.flows_offered == 0 || started <= plan.flows_offered || plan.has_services,
        || format!("{what}: {started} flows started, the document offers {}", plan.flows_offered),
    );
    rep.check(session.now_ns() == plan.window_ns, || {
        format!("{what}: stopped at {} ns, window is {} ns", session.now_ns(), plan.window_ns)
    });
}

/// Run a sim workload for `seconds`, filling `rep`.
pub fn run(kind: SimKind, seed: u64, seconds: f64, traced: bool, rep: &mut Report) {
    let name = kind.name();
    let mut tr = Tracer::new(name);
    let plan = kind.plan(seed, WINDOW_NS);
    rep.note(format!(
        "scenario {name} seed {seed}: {} bytes, {} flows offered, window {} ns",
        plan.doc.len(),
        plan.flows_offered,
        plan.window_ns
    ));

    let wall0 = Instant::now();
    let mut setup = Vec::new();
    let mut parse = Vec::new();
    let mut from_json = Vec::new();
    let mut session_new = Vec::new();
    let mut runs = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut cpus = Vec::new();
    let mut steps = Vec::new();
    let mut tails = Vec::new();
    let mut digest = None;
    let mut events = None;
    // Allocation counts of the first pass, which is never traced: the
    // benchmark's own span bookkeeping would otherwise be counted.
    let mut allocs = None;
    let mut last = None;
    let mut reps: usize = 0;
    loop {
        // One session alive at a time, so peak memory is one pass's.
        drop(last.take());
        let traced_rep = traced && reps % 2 == 1;
        tr.set_on(traced_rep);
        let rep_t0 = Instant::now();
        let root = tr.begin("bench.rep");
        let p = match pass(&plan, &mut tr) {
            Ok(p) => p,
            Err(e) => {
                rep.check(false, || format!("{name}: scenario rejected: {e}"));
                return;
            }
        };
        let checks = tr.begin("checks.outputs");
        check_invariants(rep, name, &plan, &p.session);
        let text = tr.span("ctl.export_bundle", || export_digest_text(&p.session));
        let d = fnv1a(text.as_bytes());
        let first = *digest.get_or_insert(d);
        rep.check(d == first, || {
            format!("{name}: export digest changed between passes of one seed")
        });
        let first_events = *events.get_or_insert(p.events);
        rep.check(p.events == first_events, || {
            format!("{name}: {} events vs {first_events} in the first pass", p.events)
        });
        tr.end(checks);
        tr.end(root);

        setup.push(p.setup.total_s);
        parse.push(p.setup.parse_s);
        from_json.push(p.setup.from_json_s);
        session_new.push(p.setup.session_new_s);
        runs[usize::from(traced_rep)].push(p.run_s);
        allocs.get_or_insert((p.setup_allocs, p.run_allocs));
        if !traced_rep {
            cpus.push(p.cpu_s);
            tails.push(measure::tail(&p.steps_us));
            steps.extend_from_slice(&p.steps_us);
        }
        let rep_s = secs(rep_t0);
        reps += 1;
        let done = secs(wall0) + rep_s > seconds;
        last = Some(p);
        if reps >= 2 && done {
            break;
        }
    }
    let p = last.expect("at least one pass ran");
    let run_s = median(&runs[0]);
    let tail = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let (_, pct, n) = tails[0];
    rep.e2e("setup_s", median(&setup));
    rep.e2e("run_s", run_s);
    rep.e2e("cpu_s", median(&cpus));
    rep.e2e("peak_rss_mb", measure::peak_rss_mb());
    rep.e2e("call_p50_us", median(&steps));
    rep.e2e("call_tail_us", tail);
    rep.note(format!("passes {reps} (setup + {} ns window each)", plan.window_ns));
    rep.note(format!("run_s per untraced pass {:?}", runs[0]));
    rep.note(format!(
        "call_tail_us is p{pct:.2} of the {n} run_until steps of {} ns in one pass (10 beyond \
         it), median over {} untraced passes",
        plan.step_ns,
        tails.len()
    ));
    rep.note(format!("sim.events {} export_digest {:016x}", p.events, digest.unwrap_or(0)));
    let (setup_allocs, run_allocs) = allocs.expect("at least one pass ran");
    let per_event = run_allocs.count as f64 / p.events.max(1) as f64;
    rep.note(format!("alloc.per_event {per_event}"));

    // Per-layer metrics.
    let net = p.session.net();
    let q = net.queue_stats();
    rep.layer("sim.events", q.scheduled_total as f64);
    rep.layer("sim.events_popped", q.popped_total as f64);
    rep.layer("sim.far_scheduled", q.far_scheduled as f64);
    rep.layer("sim.queue_peak_len", q.peak_len as f64);
    rep.layer("sim.mevents_per_s", p.events as f64 / run_s / 1e6);
    rep.layer("core.run_step_us_p50", median(&steps));
    rep.layer("core.run_step_us_max", steps.iter().copied().fold(0.0, f64::max));
    rep.layer("alloc.per_event", per_event);
    rep.layer("alloc.bytes_per_event", run_allocs.bytes as f64 / p.events.max(1) as f64);
    rep.layer("alloc.setup_count", setup_allocs.count as f64);
    layer_counters(rep, &counter_totals(net));
    let fct = net.fct();
    rep.layer("workload.flows_offered", (fct.completed().len() + fct.outstanding()) as f64);
    rep.layer("json.parse_ms", median(&parse) * 1e3);
    rep.layer("json.parse_mb_per_s", plan.doc.len() as f64 / median(&parse) / 1e6);
    rep.layer("scenario.from_json_ms", median(&from_json) * 1e3);
    rep.layer("session.new_ms", median(&session_new) * 1e3);

    if traced {
        tr.set_on(true);
        let s = export_timings(&p.session, &mut tr);
        for (k, v) in s {
            rep.layer(k, v);
        }
        rep.layer("telemetry.frames", net.frames().len() as f64);
        let (sched, deploy) = deploy_timings(&plan.doc, &mut tr);
        rep.layer("topo.schedule_ms", sched);
        rep.layer("routing.deploy_ms", deploy);
        rep.layer("trace.overhead_s", median(&runs[1]) - run_s);
        finish_trace(rep, &tr, name, seed, reps / 2);
    }
}

/// Layer counters read from a telemetry snapshot's base-name totals.
pub fn layer_counters(rep: &mut Report, c: &BTreeMap<String, u64>) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    for phase in [
        "tor_ingress",
        "port_free",
        "drain",
        "eqo_tick",
        "reinject",
        "host_tx",
        "host_rx",
        "timer",
        "offload_recall",
        "rotation",
    ] {
        rep.layer(&format!("phase.{phase}"), get(&format!("obs.phase.{phase}")));
    }
    rep.layer("switch.drops", get("engine.switch_drops"));
    rep.layer("switch.pushbacks", get("tor.pushback_events"));
    rep.layer("fabric.delivered", get("fabric.delivered"));
    rep.layer(
        "fabric.lost",
        get("fabric.lost_guardband") + get("fabric.lost_no_circuit") + get("fabric.lost_reconfig"),
    );
    rep.layer("fabric.guardband_holds", get("engine.guardband_holds"));
    let tx = get("engine.host_tx_packets");
    let delivered = get("engine.delivered_packets");
    rep.layer("host.tx_packets", tx);
    rep.layer("host.delivered_packets", delivered);
    rep.layer(
        "host.retransmits",
        get("engine.watchdog_retransmits")
            + get("engine.rto_retransmits")
            + get("engine.fast_retransmits")
            + get("engine.nack_retransmits"),
    );
    rep.layer("host.useful_ratio", if tx > 0.0 { delivered / tx } else { 0.0 });
    rep.layer("faults.activations", get("faults.activations"));
    rep.layer("faults.dropped", get("faults.dropped"));
    rep.layer("faults.reroutes", get("faults.reroutes"));
    rep.layer("workload.flows_completed", get("fct.completed_flows"));
}

/// Median wall time of each telemetry export of a finished session, ms,
/// plus the snapshot export's size.
fn export_timings(session: &Session, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let net = session.net();
    let mut snap = Vec::new();
    let mut series = Vec::new();
    let mut slo = Vec::new();
    let mut bytes = 0;
    let checks = tr.begin("checks.exports");
    for _ in 0..5 {
        let t = Instant::now();
        bytes = tr.span("telemetry.snapshot_export", || net.telemetry_snapshot().to_json()).len();
        snap.push(secs(t) * 1e3);
        let t = Instant::now();
        let _ = tr.span("telemetry.timeseries_export", || net.export_timeseries());
        series.push(secs(t) * 1e3);
        let t = Instant::now();
        let _ = tr.span("telemetry.slo_export", || net.export_slo_report());
        slo.push(secs(t) * 1e3);
    }
    tr.end(checks);
    vec![
        ("telemetry.export_ms", median(&snap)),
        ("telemetry.timeseries_export_ms", median(&series)),
        ("telemetry.slo_export_ms", median(&slo)),
        ("telemetry.export_bytes", bytes as f64),
    ]
}

/// Standalone `ArchSpec::build` (topology descriptor) and
/// `OpenOpticsNet::deploy` (schedule generation + routing compile) times
/// for a scenario document, medians of five, ms.
pub fn deploy_timings(doc: &str, tr: &mut Tracer) -> (f64, f64) {
    let Ok(scenario) = Scenario::parse(doc) else { return (0.0, 0.0) };
    let mut sched = Vec::new();
    let mut deploy = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let Ok(arch) = tr.span("topo.arch_build", || scenario.architecture.build(&scenario.config))
        else {
            return (0.0, 0.0);
        };
        sched.push(secs(t) * 1e3);
        let routing = match &scenario.routing {
            Some(r) => r.build(),
            None => Ok(arch.default_routing()),
        };
        let Ok((algo, lookup, multipath)) = routing else { return (0.0, 0.0) };
        let t = Instant::now();
        let net = tr.span("routing.deploy", || {
            OpenOpticsNet::deploy(scenario.config.clone(), arch, algo, lookup, multipath)
        });
        deploy.push(secs(t) * 1e3);
        drop(net);
    }
    (median(&sched), median(&deploy))
}

/// Report self time per layer (per traced pass) and write the spans out.
pub fn finish_trace(rep: &mut Report, tr: &Tracer, name: &str, seed: u64, traced_passes: usize) {
    let self_ms = tr.self_ms();
    for layer in crate::report::SPAN_LAYERS {
        let v = self_ms.get(*layer).copied().unwrap_or(0.0) / traced_passes.max(1) as f64;
        rep.layer(&format!("self.{layer}_ms"), v);
    }
    rep.layer("trace.spans", tr.len() as f64);
    let dir = std::path::Path::new("perfbench-out");
    let path = dir.join(format!("trace-{name}-seed{seed}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => rep.note(format!("spans written to {}", path.display())),
        Err(e) => rep.note(format!("spans not written: {e}")),
    }
}
