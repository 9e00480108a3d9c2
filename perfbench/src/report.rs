//! The metric catalogue and the result a run prints.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: what a user of the
/// simulator pays per scenario.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_p50_us", "us"),
    ("call_tail_us", "us"),
];

/// Layers whose self time the traced run reports (span name prefixes).
pub const SPAN_LAYERS: &[&str] = &[
    "bench",
    "setup",
    "json",
    "scenario",
    "session",
    "core",
    "checks",
    "telemetry",
    "ctl",
    "topo",
    "routing",
    "rpc",
];

/// Per-layer metrics, printed by traced runs. A metric of a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_popped", "count"),
    ("sim.far_scheduled", "count"),
    ("sim.queue_peak_len", "count"),
    ("sim.mevents_per_s", "Mevents/s"),
    ("core.run_step_us_p50", "us"),
    ("core.run_step_us_max", "us"),
    ("phase.tor_ingress", "count"),
    ("phase.port_free", "count"),
    ("phase.drain", "count"),
    ("phase.eqo_tick", "count"),
    ("phase.reinject", "count"),
    ("phase.host_tx", "count"),
    ("phase.host_rx", "count"),
    ("phase.timer", "count"),
    ("phase.offload_recall", "count"),
    ("phase.rotation", "count"),
    ("alloc.per_event", "allocs/event"),
    ("alloc.bytes_per_event", "B/event"),
    ("alloc.setup_count", "count"),
    ("switch.drops", "count"),
    ("switch.pushbacks", "count"),
    ("fabric.delivered", "count"),
    ("fabric.lost", "count"),
    ("fabric.guardband_holds", "count"),
    ("host.tx_packets", "count"),
    ("host.delivered_packets", "count"),
    ("host.retransmits", "count"),
    ("host.useful_ratio", "ratio"),
    ("faults.activations", "count"),
    ("faults.dropped", "count"),
    ("faults.reroutes", "count"),
    ("workload.flows_offered", "count"),
    ("workload.flows_completed", "count"),
    ("topo.schedule_ms", "ms"),
    ("routing.deploy_ms", "ms"),
    ("ctl.reconfigure_us_p50", "us"),
    ("json.parse_ms", "ms"),
    ("json.parse_mb_per_s", "MB/s"),
    ("scenario.from_json_ms", "ms"),
    ("session.new_ms", "ms"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.timeseries_export_ms", "ms"),
    ("telemetry.slo_export_ms", "ms"),
    ("telemetry.export_bytes", "bytes"),
    ("telemetry.frames", "count"),
    ("ctl.run_until_us_p50", "us"),
    ("ctl.add_flow_us_p50", "us"),
    ("ctl.status_us_p50", "us"),
    ("ctl.export_us_p50", "us"),
    ("ctl.checkpoint_us_p50", "us"),
    ("ctl.restore_us_p50", "us"),
    ("ctl.fork_us_p50", "us"),
    ("ctl.handle_us_p50", "us"),
    ("ctl.transport_us_p50", "us"),
    ("ctl.checkpoint_bytes", "bytes"),
    ("ctl.frames_streamed", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("self.bench_ms", "ms"),
    ("self.setup_ms", "ms"),
    ("self.json_ms", "ms"),
    ("self.scenario_ms", "ms"),
    ("self.session_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.checks_ms", "ms"),
    ("self.telemetry_ms", "ms"),
    ("self.ctl_ms", "ms"),
    ("self.topo_ms", "ms"),
    ("self.routing_ms", "ms"),
    ("self.rpc_ms", "ms"),
];

/// What one run measured and checked.
pub struct Report {
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    /// Free-form `name value` lines printed before the result.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

fn known(catalogue: &[(&'static str, &'static str)], name: &str) -> &'static str {
    catalogue
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

impl Report {
    pub fn new() -> Report {
        Report {
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(known(END_TO_END, name), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(known(PER_LAYER, name), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one checked operation; a false `ok` is a failure described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Print the notes, any failures, and the result line: the end-to-end
    /// metrics untraced, the per-layer metrics traced.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let (catalogue, values) =
            if traced { (PER_LAYER, &self.layer) } else { (END_TO_END, &self.e2e) };
        let attempted = self.attempted.max(1);
        println!(
            "failed_frac {} ({} of {} checked operations)",
            self.failed as f64 / attempted as f64,
            self.failed,
            attempted
        );
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.failed,
            metrics.join(",")
        );
    }
}
