//! # openoptics-sim
//!
//! Discrete-event simulation engine underpinning the OpenOptics framework
//! reproduction. The original OpenOptics system runs on Intel Tofino2
//! switches and Mellanox NICs; this crate provides the deterministic,
//! nanosecond-resolution substrate on which every hardware mechanism of the
//! paper (calendar-queue rotation, per-slice packet generators, clock sync,
//! line-rate drains) is re-created in software.
//!
//! Design goals, in order: **determinism** (a seed fully determines a run),
//! **simplicity** (no macro or type tricks), and **speed** (binary-heap event
//! queue, zero allocation on the hot path where practical).
//!
//! The crate is intentionally generic: it knows nothing about packets,
//! switches, or optics. Higher layers define their event types and drive
//! [`EventQueue`] / [`run`].

pub mod bytequeue;
/// Checked narrowing conversions: [`cast::to_u32`] and friends.
pub mod cast;
pub mod engine;
pub mod event;
pub mod hash;
pub mod rate;
pub mod rng;
pub mod time;

pub use bytequeue::ByteQueue;
pub use engine::{run, run_while, World};
pub use event::{EventQueue, QueueStats};
pub use rate::Bandwidth;
pub use rng::SimRng;
pub use time::{SimTime, SliceConfig, MS, NS, SEC, US};
