//! The series table: every counter, gauge and histogram the engine
//! reports, declared once — name, labels and the field it reads.
//!
//! Metrics live where they are counted: engine, switch, fabric, host,
//! fault and profiler fields. Nothing copies them into a second store.
//! [`Engine::telemetry_snapshot`] and the sampler ([`Engine::take_sample`])
//! both walk [`SERIES`] and read each field at that instant, so a snapshot
//! and a sample row taken at the same instant list the same names, in the
//! same order, with the same values.

use openoptics_faults::FaultCounters;
use openoptics_host::vma::VmaStack;
use openoptics_obs::{Phase, Spans};
use openoptics_sim::time::SimTime;
use openoptics_sim::QueueStats;
use openoptics_switch::ToRSwitch;
use openoptics_telemetry::{Histogram, Labels, Snapshot};

use super::Engine;

/// How a series is exported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Where a series is read from. The source fixes the series' labels and
/// when it exists; the set of series only grows during a run.
#[derive(Clone, Copy)]
enum Source {
    /// An engine field; always present.
    Engine(fn(&Engine) -> u64),
    /// The event queue's statistics; always present.
    Queue(fn(&QueueStats) -> u64),
    /// Summed over both socket stacks of every host; always present.
    Hosts(fn(&VmaStack) -> u64),
    /// Summed over the fault campaign; present once a plan is installed.
    Faults(fn(&FaultCounters) -> u64),
    /// The span stream; present while span recording is on.
    Spans(fn(&Spans) -> u64),
    /// One profiler phase's event count; present while profiling is on.
    Phase(Phase),
    /// One value per ToR, labelled with its node.
    Tor(fn(&ToRSwitch) -> u64),
    /// One histogram per ToR, labelled with its node.
    TorHistogram(fn(&ToRSwitch) -> &Histogram),
}

/// One declared series.
#[derive(Clone, Copy)]
struct Series {
    name: &'static str,
    kind: Kind,
    source: Source,
}

const fn counter(name: &'static str, source: Source) -> Series {
    Series { name, kind: Kind::Counter, source }
}

const fn gauge(name: &'static str, source: Source) -> Series {
    Series { name, kind: Kind::Gauge, source }
}

/// Every series, sorted by name. Each name carries one label shape and
/// per-ToR series expand in node order, so walking the table yields
/// series in `(name, labels)` key order — the export order.
const SERIES: &[Series] = &[
    counter("engine.circuit_notifications", Source::Engine(|e| e.counters.circuit_notifications)),
    counter("engine.delivered_packets", Source::Engine(|e| e.counters.delivered_packets)),
    counter(
        "engine.delivered_payload_bytes",
        Source::Engine(|e| e.counters.delivered_payload_bytes),
    ),
    counter("engine.fabric_drops", Source::Engine(|e| e.counters.fabric_drops)),
    counter("engine.fast_retransmits", Source::Engine(|e| e.counters.fast_retransmits)),
    counter("engine.fault_drops", Source::Engine(|e| e.counters.fault_drops)),
    counter("engine.guardband_holds", Source::Engine(|e| e.counters.guardband_holds)),
    counter("engine.host_tx_packets", Source::Engine(|e| e.counters.host_tx_packets)),
    counter("engine.link_drops", Source::Engine(|e| e.counters.link_drops)),
    counter("engine.nack_retransmits", Source::Engine(|e| e.counters.nack_retransmits)),
    counter("engine.no_route_drops", Source::Engine(|e| e.counters.no_route_drops)),
    counter("engine.pushback_deliveries", Source::Engine(|e| e.counters.pushback_deliveries)),
    counter("engine.rto_retransmits", Source::Engine(|e| e.counters.rto_retransmits)),
    counter("engine.switch_drops", Source::Engine(|e| e.counters.switch_drops)),
    counter("engine.trimmed_received", Source::Engine(|e| e.counters.trimmed_received)),
    counter("engine.watchdog_retransmits", Source::Engine(|e| e.counters.watchdog_retransmits)),
    counter("fabric.delivered", Source::Engine(|e| e.fabric.delivered)),
    counter("fabric.lost_guardband", Source::Engine(|e| e.fabric.lost_guardband)),
    counter("fabric.lost_no_circuit", Source::Engine(|e| e.fabric.lost_no_circuit)),
    counter("fabric.lost_reconfig", Source::Engine(|e| e.fabric.lost_reconfig)),
    gauge("fabric.sync_max_err_ns", Source::Engine(|e| e.sync.max_err_ns())),
    counter("faults.activations", Source::Faults(|c| c.activations)),
    counter("faults.corrupted", Source::Faults(|c| c.corrupted)),
    counter("faults.dropped", Source::Faults(|c| c.dropped)),
    counter("faults.missed_rotations", Source::Faults(|c| c.missed_rotations)),
    counter("faults.paused_tx", Source::Faults(|c| c.paused_tx)),
    counter("faults.reroutes", Source::Faults(|c| c.reroutes)),
    counter("fct.completed_flows", Source::Engine(|e| e.fct.completed().len() as u64)),
    counter("host.vma_app_pushbacks", Source::Hosts(|v| v.app_pushback_events)),
    counter("host.vma_block_extensions", Source::Hosts(|v| v.block_events)),
    counter("host.vma_pause_transitions", Source::Hosts(|v| v.pause_events)),
    gauge("host.vma_queued_bytes", Source::Hosts(VmaStack::total_queued)),
    counter("host.vma_resume_transitions", Source::Hosts(|v| v.resume_events)),
    counter("obs.phase.downlink_free", Source::Phase(Phase::DownlinkFree)),
    counter("obs.phase.drain", Source::Phase(Phase::Drain)),
    counter("obs.phase.elec_free", Source::Phase(Phase::ElecFree)),
    counter("obs.phase.eqo_tick", Source::Phase(Phase::EqoTick)),
    counter("obs.phase.fault_runtime", Source::Phase(Phase::FaultRuntime)),
    counter("obs.phase.host_control", Source::Phase(Phase::HostControl)),
    counter("obs.phase.host_rx", Source::Phase(Phase::HostRx)),
    counter("obs.phase.host_tx", Source::Phase(Phase::HostTx)),
    counter("obs.phase.offload_recall", Source::Phase(Phase::OffloadRecall)),
    counter("obs.phase.port_free", Source::Phase(Phase::PortFree)),
    counter("obs.phase.reinject", Source::Phase(Phase::Reinject)),
    counter("obs.phase.rotate", Source::Phase(Phase::Rotate)),
    counter("obs.phase.rotation", Source::Phase(Phase::Rotation)),
    counter("obs.phase.timer", Source::Phase(Phase::Timer)),
    counter("obs.phase.tor_ingress", Source::Phase(Phase::TorIngress)),
    counter("obs.span_events", Source::Spans(|s| s.len() as u64)),
    counter("obs.spans_skipped", Source::Spans(Spans::skipped)),
    counter("obs.spans_started", Source::Spans(Spans::started)),
    counter("sim.events_far_scheduled", Source::Queue(|q| q.far_scheduled)),
    counter("sim.events_overlay_scheduled", Source::Queue(|q| q.overlay_scheduled)),
    counter("sim.events_popped", Source::Queue(|q| q.popped_total)),
    counter("sim.events_scheduled", Source::Queue(|q| q.scheduled_total)),
    gauge("sim.queue_len", Source::Queue(|q| q.len as u64)),
    gauge("sim.queue_peak_len", Source::Queue(|q| q.peak_len as u64)),
    gauge("tor.buffer_bytes", Source::Tor(ToRSwitch::buffer_bytes)),
    counter("tor.defer_exhausted", Source::Tor(|t| t.counters.defer_exhausted)),
    counter("tor.deferred", Source::Tor(|t| t.counters.deferred)),
    counter("tor.delivered_local", Source::Tor(|t| t.counters.delivered_local)),
    counter("tor.dropped_capacity", Source::Tor(|t| t.counters.dropped_capacity)),
    counter("tor.dropped_congestion", Source::Tor(|t| t.counters.dropped_congestion)),
    counter("tor.dropped_rank", Source::Tor(|t| t.counters.dropped_rank)),
    counter("tor.enqueued", Source::Tor(|t| t.counters.enqueued)),
    Series {
        name: "tor.eqo_abs_err_bytes",
        kind: Kind::Histogram,
        source: Source::TorHistogram(|t| &t.eqo_abs_err),
    },
    counter("tor.offloaded_packets", Source::Tor(|t| t.offload_book.offloaded_packets)),
    gauge("tor.peak_buffer_bytes", Source::Tor(|t| t.peak_buffer_bytes)),
    counter("tor.pushback_emitted", Source::Tor(|t| t.pushback_stats().1)),
    counter("tor.pushback_events", Source::Tor(|t| t.pushback_stats().0)),
    counter("tor.rank_overflows", Source::Tor(ToRSwitch::rank_overflows)),
    counter("tor.rotations", Source::Tor(|t| t.counters.rotations)),
    counter("tor.slice_miss", Source::Tor(|t| t.counters.slice_miss)),
    counter("tor.trimmed", Source::Tor(|t| t.counters.trimmed)),
    counter("tor.tx_bytes", Source::Tor(|t| t.counters.tx_bytes)),
    counter("tor.tx_packets", Source::Tor(|t| t.counters.tx_packets)),
];

/// One series' value at read time.
enum Value<'a> {
    Scalar(u64),
    Histogram(&'a Histogram),
}

/// A gauge's exported value: gauges are signed, sources are not.
fn gauge_value(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

impl Engine {
    /// Visit every present series with its labels and current value, in
    /// table order — which is `(name, labels)` key order. Visits nothing
    /// when telemetry is off.
    fn each_series<'a>(
        &'a self,
        queue: &QueueStats,
        mut visit: impl FnMut(&Series, Labels, Value<'a>),
    ) {
        if !self.telemetry {
            return;
        }
        for s in SERIES {
            let v = match s.source {
                Source::Engine(value_of) => value_of(self),
                Source::Queue(value_of) => value_of(queue),
                Source::Hosts(value_of) => {
                    self.hosts.iter().map(|h| value_of(&h.vma) + value_of(&h.vma_mice)).sum()
                }
                Source::Faults(value_of) => match &self.faults {
                    Some(f) => f.per_fault.iter().map(value_of).sum(),
                    None => continue,
                },
                Source::Spans(value_of) if self.obs.spans.is_on() => value_of(&self.obs.spans),
                Source::Phase(phase) if self.obs.profiler.is_on() => {
                    self.obs.profiler.events(phase)
                }
                Source::Spans(_) | Source::Phase(_) => continue,
                Source::Tor(value_of) => {
                    for t in &self.tors {
                        visit(s, Labels::Node(t.cfg.id), Value::Scalar(value_of(t)));
                    }
                    continue;
                }
                Source::TorHistogram(value_of) => {
                    for t in &self.tors {
                        visit(s, Labels::Node(t.cfg.id), Value::Histogram(value_of(t)));
                    }
                    continue;
                }
            };
            visit(s, Labels::None, Value::Scalar(v));
        }
    }

    /// Rendered `(counter, gauge)` names, in the order of
    /// [`Engine::each_series`].
    fn series_names(&self, queue: &QueueStats) -> (Vec<String>, Vec<String>) {
        let (mut counters, mut gauges) = (Vec::new(), Vec::new());
        self.each_series(queue, |s, labels, _| match s.kind {
            Kind::Counter => counters.push(format!("{}{labels}", s.name)),
            Kind::Gauge => gauges.push(format!("{}{labels}", s.name)),
            Kind::Histogram => {}
        });
        (counters, gauges)
    }

    /// Every series rendered at sim time `at`, in `(name, labels)` order;
    /// `queue` carries the event-queue statistics, which live outside the
    /// engine. Empty (but stamped) when telemetry is off.
    pub fn telemetry_snapshot(&self, at: SimTime, queue: QueueStats) -> Snapshot {
        let mut snap = Snapshot {
            at,
            trace_len: self.trace.len() as u64,
            trace_dropped: self.trace.dropped(),
            ..Snapshot::default()
        };
        self.each_series(&queue, |s, labels, v| {
            let name = format!("{}{labels}", s.name);
            match v {
                Value::Scalar(v) if s.kind == Kind::Gauge => {
                    snap.gauges.push((name, gauge_value(v)));
                }
                Value::Scalar(v) => snap.counters.push((name, v)),
                Value::Histogram(h) => snap.histograms.push((name, h.summary())),
            }
        });
        snap
    }

    /// One sampling tick: read every counter and gauge into a row of the
    /// time series and share that row with the frame log. The sampling
    /// timer calls this; `queue` carries the event-queue statistics.
    pub fn take_sample(&mut self, now: SimTime, queue: QueueStats) {
        let (nc, ng) = self.timeseries.columns_len();
        let (mut counters, mut gauges) = (Vec::with_capacity(nc), Vec::with_capacity(ng));
        self.each_series(&queue, |s, _, v| match v {
            Value::Scalar(v) if s.kind == Kind::Gauge => gauges.push(gauge_value(v)),
            Value::Scalar(v) => counters.push(v),
            Value::Histogram(_) => {}
        });
        let names = ((counters.len(), gauges.len()) != (nc, ng)).then(|| self.series_names(&queue));
        let services = self.services.iter().map(|s| s.summary()).collect();
        let row =
            self.timeseries.sample(now.as_ns(), (counters.into(), gauges.into()), names, services);
        self.frames.push_sample(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use openoptics_fabric::OpticalSchedule;
    use openoptics_faults::FaultPlan;
    use openoptics_proto::{NodeId, PortId};

    fn engine(node_num: u32) -> Engine {
        let cfg = NetConfig { node_num, span_sample_every: 1, ..NetConfig::default() };
        let sched = OpticalSchedule::empty(cfg.slice_config(1), cfg.node_num, cfg.uplink);
        Engine::new(cfg, sched)
    }

    #[test]
    fn table_yields_strictly_increasing_keys() -> Result<(), crate::Error> {
        let mut e = engine(16);
        let plan = FaultPlan::builder().link_down(NodeId(3), PortId(0), 5_000, 9_000).build()?;
        e.set_fault_plan(&plan, SimTime::ZERO)?;
        let mut keys: Vec<(Kind, &str, Labels)> = Vec::new();
        e.each_series(&QueueStats::default(), |s, labels, _| keys.push((s.kind, s.name, labels)));
        for kind in [Kind::Counter, Kind::Gauge, Kind::Histogram] {
            let of_kind: Vec<(&str, Labels)> =
                keys.iter().filter(|k| k.0 == kind).map(|k| (k.1, k.2)).collect();
            assert!(!of_kind.is_empty(), "{kind:?}");
            for w in of_kind.windows(2) {
                assert!(w[0] < w[1], "{kind:?} keys out of order: {:?} then {:?}", w[0], w[1]);
            }
        }
        // Every optional group is present here: faults, spans, profiler.
        for name in ["faults.dropped", "obs.span_events", "obs.phase.drain"] {
            assert!(keys.iter().any(|k| k.1 == name), "{name} missing");
        }
        let per_tor = keys.iter().filter(|k| k.1 == "tor.enqueued").count();
        assert_eq!(per_tor, 16);
        Ok(())
    }

    #[test]
    fn disabled_telemetry_reads_nothing() {
        let cfg = NetConfig { telemetry: false, ..NetConfig::default() };
        let sched = OpticalSchedule::empty(cfg.slice_config(1), cfg.node_num, cfg.uplink);
        let e = Engine::new(cfg, sched);
        let snap = e.telemetry_snapshot(SimTime::from_us(3), QueueStats::default());
        assert_eq!(snap, Snapshot { at: SimTime::from_us(3), ..Snapshot::default() });
    }

    #[test]
    fn zero_trace_capacity_disables_tracing_only() {
        let cfg = NetConfig { trace_capacity: 0, ..NetConfig::default() };
        let sched = OpticalSchedule::empty(cfg.slice_config(1), cfg.node_num, cfg.uplink);
        let e = Engine::new(cfg, sched);
        assert!(!e.trace().is_on());
        let snap = e.telemetry_snapshot(SimTime::ZERO, QueueStats::default());
        assert!(snap.counters.iter().any(|(n, _)| n == "engine.guardband_holds"));
        assert_eq!(snap.histograms.len(), e.tors.len(), "EQO histograms still record");
    }
}
