//! Sim-time (and optional wall-clock) engine profiler.
//!
//! Attribution model: the engine is a single-threaded event interpreter,
//! so every handled event belongs to exactly one *phase* (one per event
//! kind, plus nested sub-phases for rotation work, EQO ticks, port
//! drains, and fault runtime). Events are instantaneous in sim time, so
//! sim-time attribution is *gap based*: the simulated time that elapses
//! between one event and the next is charged to the earlier event's phase
//! — "the simulation advanced this far while X was the latest activity".
//! Event counts are exact.
//!
//! Wall-clock mode is opt-in via an injected clock function (the simulator
//! itself never reads host time — the `wall-clock` oolint rule): with a
//! clock installed the profiler also measures real nanoseconds per phase,
//! inclusive and exclusive of nested sub-phases. Wall numbers are for the
//! bench binary's self-profiling only and never appear in deterministic
//! exports.

use openoptics_sim::time::SimTime;

/// Engine phase charged for an event or a nested piece of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Host NIC transmission opportunity (`Event::HostTx`).
    HostTx,
    /// Packet arrival at a ToR (`Event::TorIngress`).
    TorIngress,
    /// Delivery to a host (`Event::HostRx`).
    HostRx,
    /// Calendar-queue rotation boundary (`Event::Rotate`).
    Rotate,
    /// Optical port free / transmit attempt (`Event::PortFree`).
    PortFree,
    /// Electrical uplink free (`Event::ElecFree`).
    ElecFree,
    /// Host downlink free (`Event::DownlinkFree`).
    DownlinkFree,
    /// Buffer-offload recall sweep (`Event::OffloadRecall`).
    OffloadRecall,
    /// Offloaded packet reinjection (`Event::Reinject`).
    Reinject,
    /// Control-message delivery to a host (`Event::HostControl`).
    HostControl,
    /// Timer expiry (`Event::Timer`).
    Timer,
    /// Sub-phase of [`Phase::Rotate`]: the actual queue rotation.
    Rotation,
    /// Sub-phase of [`Phase::PortFree`]: EQO estimate refresh tick.
    EqoTick,
    /// Sub-phase of [`Phase::PortFree`]: head-of-queue drain attempt.
    Drain,
    /// Fault-injection runtime: window transitions and per-packet checks.
    FaultRuntime,
}

/// Number of distinct [`Phase`] values.
pub const PHASE_COUNT: usize = 15;

/// Every phase, in display order.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::HostTx,
    Phase::TorIngress,
    Phase::HostRx,
    Phase::Rotate,
    Phase::PortFree,
    Phase::ElecFree,
    Phase::DownlinkFree,
    Phase::OffloadRecall,
    Phase::Reinject,
    Phase::HostControl,
    Phase::Timer,
    Phase::Rotation,
    Phase::EqoTick,
    Phase::Drain,
    Phase::FaultRuntime,
];

impl Phase {
    #[cfg(feature = "enabled")]
    fn index(self) -> usize {
        match self {
            Phase::HostTx => 0,
            Phase::TorIngress => 1,
            Phase::HostRx => 2,
            Phase::Rotate => 3,
            Phase::PortFree => 4,
            Phase::ElecFree => 5,
            Phase::DownlinkFree => 6,
            Phase::OffloadRecall => 7,
            Phase::Reinject => 8,
            Phase::HostControl => 9,
            Phase::Timer => 10,
            Phase::Rotation => 11,
            Phase::EqoTick => 12,
            Phase::Drain => 13,
            Phase::FaultRuntime => 14,
        }
    }

    /// `component.phase` display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::HostTx => "host.tx",
            Phase::TorIngress => "tor.ingress",
            Phase::HostRx => "host.rx",
            Phase::Rotate => "tor.rotate",
            Phase::PortFree => "tor.port_free",
            Phase::ElecFree => "elec.free",
            Phase::DownlinkFree => "host.downlink_free",
            Phase::OffloadRecall => "tor.offload_recall",
            Phase::Reinject => "tor.reinject",
            Phase::HostControl => "host.control",
            Phase::Timer => "engine.timer",
            Phase::Rotation => "tor.rotation",
            Phase::EqoTick => "tor.eqo_tick",
            Phase::Drain => "tor.drain",
            Phase::FaultRuntime => "faults.runtime",
        }
    }

    /// Whether this is a nested sub-phase (no sim-gap attribution of its
    /// own; wall time is measured inside its parent event).
    pub fn is_sub(&self) -> bool {
        matches!(self, Phase::Rotation | Phase::EqoTick | Phase::Drain | Phase::FaultRuntime)
    }
}

/// Per-phase accumulators.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStat {
    /// Events (or sub-phase entries) counted.
    pub events: u64,
    /// Simulated ns attributed (gap model; 0 for sub-phases).
    pub sim_ns: u64,
    /// Wall ns, inclusive of nested sub-phases (clock mode only).
    pub wall_incl_ns: u64,
    /// Wall ns spent in nested sub-phases (clock mode only); exclusive
    /// wall time is `wall_incl_ns - wall_child_ns`.
    pub wall_child_ns: u64,
}

/// A monotonic wall-clock source in ns, injected for self-profiling.
pub type WallClock = fn() -> u64;

#[cfg(feature = "enabled")]
#[derive(Clone, Debug)]
struct ProfBuf {
    stats: [PhaseStat; PHASE_COUNT],
    /// Phase and sim-time of the most recent top-level event.
    last: Option<(usize, SimTime)>,
    clock: Option<WallClock>,
    /// Open wall frames: `(phase index, start, child wall accumulated)`.
    wall_stack: Vec<(usize, u64, u64)>,
}

#[cfg(feature = "enabled")]
impl ProfBuf {
    /// Close the innermost open wall frame at clock reading `t`, charging
    /// its elapsed time to its phase and, as child time, to its parent.
    fn close_frame(&mut self, t: u64) {
        let Some((p, start, child)) = self.wall_stack.pop() else { return };
        let elapsed = t.saturating_sub(start);
        self.stats[p].wall_incl_ns += elapsed;
        self.stats[p].wall_child_ns += child;
        if let Some((_, _, parent_child)) = self.wall_stack.last_mut() {
            *parent_child += elapsed;
        }
    }
}

/// The engine profiler, owned by the engine that records into it.
/// Detached (inert) when profiling is off, so the per-event hook is a
/// single branch.
#[cfg(feature = "enabled")]
#[derive(Clone, Debug, Default)]
pub struct Profiler(Option<Box<ProfBuf>>);

/// The engine profiler. The `enabled` cargo feature is off: this is a
/// zero-sized type and every method is a no-op that compiles away.
#[cfg(not(feature = "enabled"))]
#[derive(Clone, Copy, Debug, Default)]
pub struct Profiler;

#[cfg(feature = "enabled")]
impl Profiler {
    /// A profiler that records nothing.
    pub fn detached() -> Profiler {
        Profiler(None)
    }

    /// A recording profiler (sim-time attribution; wall clock not
    /// installed).
    pub fn enabled() -> Profiler {
        Profiler(Some(Box::new(ProfBuf {
            stats: [PhaseStat::default(); PHASE_COUNT],
            last: None,
            clock: None,
            wall_stack: Vec::new(),
        })))
    }

    /// Whether this profiler records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Install a wall-clock source (monotonic ns). The simulator never
    /// reads host time itself; the bench binary injects an
    /// `Instant`-based function here for self-profiling runs.
    pub fn set_clock(&mut self, clock: WallClock) {
        if let Some(b) = &mut self.0 {
            b.clock = Some(clock);
        }
    }

    /// Whether a wall clock is installed.
    pub fn has_clock(&self) -> bool {
        self.0.as_ref().is_some_and(|b| b.clock.is_some())
    }

    /// Top-level hook: one call per dispatched engine event. Charges the
    /// sim-time gap since the previous event to that event's phase, then
    /// makes `phase` current.
    #[inline]
    pub fn event(&mut self, phase: Phase, now: SimTime) {
        let Some(b) = &mut self.0 else { return };
        let idx = phase.index();
        if let Some((prev, at)) = b.last {
            b.stats[prev].sim_ns += now.saturating_since(at);
        }
        b.stats[idx].events += 1;
        b.last = Some((idx, now));
        if let Some(clock) = b.clock {
            // Close whatever frames the previous event left open and open
            // the new top-level frame.
            let t = clock();
            while !b.wall_stack.is_empty() {
                b.close_frame(t);
            }
            b.wall_stack.push((idx, t, 0));
        }
    }

    /// Enter a nested sub-phase (counts it; starts a wall frame when a
    /// clock is installed). Pair with [`Profiler::exit`].
    #[inline]
    pub fn enter(&mut self, sub: Phase) {
        let Some(b) = &mut self.0 else { return };
        let idx = sub.index();
        b.stats[idx].events += 1;
        if let Some(clock) = b.clock {
            b.wall_stack.push((idx, clock(), 0));
        }
    }

    /// Leave the most recent sub-phase frame opened with [`Profiler::enter`].
    #[inline]
    pub fn exit(&mut self, sub: Phase) {
        let Some(b) = &mut self.0 else { return };
        let Some(clock) = b.clock else { return };
        let t = clock();
        if b.wall_stack.last().is_some_and(|&(p, _, _)| p == sub.index()) {
            b.close_frame(t);
        }
    }

    /// Count a sub-phase occurrence without timing it.
    #[inline]
    pub fn mark(&mut self, sub: Phase) {
        if let Some(b) = &mut self.0 {
            b.stats[sub.index()].events += 1;
        }
    }

    /// Snapshot of every phase's accumulators, in [`PHASES`] order.
    pub fn stats(&self) -> Vec<(Phase, PhaseStat)> {
        match &self.0 {
            Some(b) => PHASES.iter().map(|p| (*p, b.stats[p.index()])).collect(),
            None => Vec::new(),
        }
    }

    /// Event count of one phase (0 when detached).
    pub fn events(&self, phase: Phase) -> u64 {
        self.0.as_ref().map_or(0, |b| b.stats[phase.index()].events)
    }

    /// Deterministic sim-time report: per phase, event count and simulated
    /// ns attributed. Byte-identical for identical runs; wall numbers are
    /// deliberately excluded.
    pub fn report(&self) -> String {
        let mut out = String::from("phase                events      sim_ns\n");
        for (p, s) in self.stats() {
            let marker = if p.is_sub() { "  - " } else { "" };
            out.push_str(&format!(
                "{:<20} {:>9} {:>11}\n",
                format!("{marker}{}", p.name()),
                s.events,
                s.sim_ns
            ));
        }
        out
    }

    /// Wall-clock report (inclusive/exclusive ns per phase), or `None`
    /// when no clock was installed. Not deterministic — stderr only.
    pub fn wall_report(&self) -> Option<String> {
        if !self.has_clock() {
            return None;
        }
        let mut out = String::from("phase                events   wall_incl_ns   wall_excl_ns\n");
        for (p, s) in self.stats() {
            let marker = if p.is_sub() { "  - " } else { "" };
            out.push_str(&format!(
                "{:<20} {:>9} {:>13} {:>13}\n",
                format!("{marker}{}", p.name()),
                s.events,
                s.wall_incl_ns,
                s.wall_incl_ns.saturating_sub(s.wall_child_ns)
            ));
        }
        Some(out)
    }
}

#[cfg(not(feature = "enabled"))]
impl Profiler {
    /// A profiler that records nothing.
    pub fn detached() -> Profiler {
        Profiler
    }

    /// No-op constructor: the `enabled` feature is compiled out.
    pub fn enabled() -> Profiler {
        Profiler
    }

    /// Always `false` with the `enabled` feature compiled out.
    #[inline]
    pub fn is_on(&self) -> bool {
        false
    }

    /// No-op.
    pub fn set_clock(&mut self, _clock: WallClock) {}

    /// Always `false` with the `enabled` feature compiled out.
    pub fn has_clock(&self) -> bool {
        false
    }

    /// No-op.
    #[inline]
    pub fn event(&mut self, _phase: Phase, _now: SimTime) {}

    /// No-op.
    #[inline]
    pub fn enter(&mut self, _sub: Phase) {}

    /// No-op.
    #[inline]
    pub fn exit(&mut self, _sub: Phase) {}

    /// No-op.
    #[inline]
    pub fn mark(&mut self, _sub: Phase) {}

    /// Always empty with the `enabled` feature compiled out.
    pub fn stats(&self) -> Vec<(Phase, PhaseStat)> {
        Vec::new()
    }

    /// Always 0 with the `enabled` feature compiled out.
    pub fn events(&self, _phase: Phase) -> u64 {
        0
    }

    /// Always the empty header with the `enabled` feature compiled out.
    pub fn report(&self) -> String {
        String::from("phase                events      sim_ns\n")
    }

    /// Always `None` with the `enabled` feature compiled out.
    pub fn wall_report(&self) -> Option<String> {
        None
    }
}
