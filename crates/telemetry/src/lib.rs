//! # openoptics-telemetry
//!
//! Deterministic observability for the OpenOptics simulation: the
//! point-in-time [`Snapshot`] of every counter, gauge and log₂ histogram,
//! the sim-time-sampled [`TimeSeries`], and a structured trace-event
//! stream covering the paper's optical mechanics — slice rotation,
//! guardband holds and drops, slice misses, EQO estimation error,
//! push-back assert/deassert, and retransmissions.
//!
//! ## Design rules
//!
//! * **Plain data.** Nothing here is a shared handle. A metric is a field
//!   of the component that counts it (switch, fabric, host, engine); the
//!   engine's series table names each one once and reads it when a
//!   snapshot or sample is taken. The [`Trace`] and each [`Histogram`] are
//!   owned values recorded through `&mut self`, so cloning an engine
//!   copies its whole telemetry state and the copy diverges independently.
//! * **Zero cost when disabled.** A detached [`Trace`] or [`Histogram`]
//!   holds `None`; recording into it is a single branch — no allocation,
//!   no hashing, no atomics. The measured overhead on the event-queue churn
//!   micro-bench is recorded in `BENCH_engine.json`.
//! * **Sim time only.** Snapshots and trace records are stamped with
//!   [`SimTime`](openoptics_sim::time::SimTime), never the wall clock, so a
//!   seeded run exports byte-identical telemetry at any `--jobs` count.
//! * **Deterministic export.** Series are listed in `(static name, typed
//!   labels)` order; JSON/CSV renderings follow that order and contain no
//!   floats, pointers, or wall-clock residue.

pub mod error;
pub mod histogram;
pub mod labels;
/// Deterministic fixed-bucket quantile sketch (p50/p99/p999 with a
/// documented ≤ 1/16 relative overestimate).
pub mod sketch;
/// Per-service SLO targets, rolling burn-rate windows, and fault-window
/// attribution of bad completions.
pub mod slo;
pub mod snapshot;
/// Sim-time-sampled series of every counter and gauge plus the bounded
/// frame log that feeds streaming subscriptions.
pub mod timeseries;
pub mod trace;

pub use error::TelemetryError;
pub use histogram::{Histogram, HistogramSummary};
pub use labels::Labels;
pub use sketch::QuantileSketch;
pub use slo::{ServiceStats, SloSummary, SloTarget, SloTransition};
pub use snapshot::Snapshot;
pub use timeseries::{Frame, FrameLog, Sample, SampleRow, TimeSeries};
pub use trace::{FlightTrigger, RetxKind, Trace, TraceKind, TraceRecord};
