//! # openoptics-proto
//!
//! Packet and control-message formats shared by every OpenOptics component.
//!
//! Data packets are modeled structurally (a [`Packet`] struct rather than
//! raw frames — the simulation never parses payload bytes), but every
//! *control* message the paper's backend exchanges between switches, hosts,
//! and the optical controller (§5.2: push-back, circuit notifications,
//! traffic reports, buffer-offload envelopes) has a real wire codec in
//! [`wire`], built on `bytes`, so the control plane's byte cost is accounted
//! and round-trips are tested.

pub mod ids;
pub mod message;
pub mod packet;
/// Engine-owned storage for in-flight packets.
pub mod slab;
pub mod wire;

pub use ids::{FlowId, HostId, NodeId, PortId};
pub use message::ControlMsg;
pub use packet::{Packet, PacketKind, SourceHop, SourceRoute, HEADER_BYTES, MTU};
pub use slab::{PacketSlab, PktRef};
