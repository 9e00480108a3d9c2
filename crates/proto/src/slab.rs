//! Engine-owned storage for in-flight packets.
//!
//! A packet enters the [`PacketSlab`] once, when a host transmits it, and
//! leaves once, when it is delivered or dropped. In between, every
//! structure that holds it — pending events, calendar queues, the offload
//! ledger, link queues — holds a 4-byte [`PktRef`] instead of the packet
//! itself, so moving a packet between them copies a handle, not ~140 bytes.
//!
//! Vacated slots are reused last-freed-first. The order is a pure function
//! of the insert/remove sequence, so a seeded run reuses the same slots on
//! every replay; packet identity lives in [`Packet::id`], never in the slot.
//!
//! ```
//! use openoptics_proto::{HostId, NodeId, Packet, PacketSlab};
//! use openoptics_sim::SimTime;
//!
//! let mut slab = PacketSlab::new();
//! let p = Packet::data(7, 1, NodeId(0), NodeId(1), HostId(0), HostId(1), 100, 0, SimTime::ZERO);
//! let r = slab.insert(p);
//! assert_eq!(slab.get(r).id, 7);
//! assert_eq!(slab.remove(r).id, 7);
//! assert!(slab.is_empty());
//! ```

use crate::ids::{HostId, NodeId};
use crate::packet::Packet;
use openoptics_sim::cast::idx_u32;
use openoptics_sim::time::SimTime;

/// Handle of a packet stored in a [`PacketSlab`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PktRef(u32);

impl PktRef {
    /// The slot index this handle addresses.
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slot storage for in-flight packets, addressed by [`PktRef`].
///
/// Cloning copies every live packet and the free list, so a cloned slab
/// hands out the same handles as the original for the same operations.
/// Using a handle after its packet was removed is a caller bug: removing
/// it again always panics, reading through it panics in debug builds, and
/// the engine's `strict-invariants` conservation check reports any held
/// handle that [`PacketSlab::contains`] denies.
#[derive(Clone, Debug, Default)]
pub struct PacketSlab {
    /// A vacant slot holds an inert placeholder packet.
    slots: Vec<Packet>,
    vacant: Vec<bool>,
    /// Vacant slot indices; the last one pushed is reused first.
    free: Vec<u32>,
}

/// What a vacated slot holds until it is reused: owns no heap memory.
fn placeholder() -> Packet {
    Packet::data(0, 0, NodeId(0), NodeId(0), HostId(0), HostId(0), 0, 0, SimTime::ZERO)
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `pkt` and return its handle.
    pub fn insert(&mut self, pkt: Packet) -> PktRef {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                self.vacant[i as usize] = false;
                PktRef(i)
            }
            None => {
                let i = idx_u32(self.slots.len());
                self.slots.push(pkt);
                self.vacant.push(false);
                PktRef(i)
            }
        }
    }

    /// The packet behind `r`.
    #[inline]
    pub fn get(&self, r: PktRef) -> &Packet {
        debug_assert!(!self.vacant[r.index()], "stale packet handle {r:?}");
        &self.slots[r.index()]
    }

    /// Mutable access to the packet behind `r`.
    #[inline]
    pub fn get_mut(&mut self, r: PktRef) -> &mut Packet {
        debug_assert!(!self.vacant[r.index()], "stale packet handle {r:?}");
        &mut self.slots[r.index()]
    }

    /// Take the packet out, freeing its slot for reuse. Panics on a handle
    /// whose packet was already removed: freeing a slot twice would hand
    /// it to two packets.
    pub fn remove(&mut self, r: PktRef) -> Packet {
        assert!(!self.vacant[r.index()], "packet handle {r:?} removed twice");
        self.vacant[r.index()] = true;
        self.free.push(r.0);
        std::mem::replace(&mut self.slots[r.index()], placeholder())
    }

    /// Whether `r` addresses a live packet.
    pub fn contains(&self, r: PktRef) -> bool {
        self.vacant.get(r.index()).is_some_and(|&v| !v)
    }

    /// Live packets.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no packet is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64) -> Packet {
        Packet::data(id, 1, NodeId(0), NodeId(1), HostId(0), HostId(1), 100, 0, SimTime::ZERO)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = PacketSlab::new();
        let a = s.insert(pkt(1));
        let b = s.insert(pkt(2));
        assert_eq!(s.len(), 2);
        s.get_mut(a).hops = 3;
        assert_eq!(s.get(a).hops, 3);
        assert_eq!(s.remove(b).id, 2);
        assert!(s.contains(a));
        assert!(!s.contains(b));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_last_freed_first() {
        let mut s = PacketSlab::new();
        let r: Vec<PktRef> = (0..4).map(|i| s.insert(pkt(i))).collect();
        s.remove(r[1]);
        s.remove(r[3]);
        assert_eq!(s.insert(pkt(10)), r[3]);
        assert_eq!(s.insert(pkt(11)), r[1]);
        assert_eq!(s.insert(pkt(12)).index(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale packet handle")]
    fn removed_handle_is_rejected() {
        let mut s = PacketSlab::new();
        let r = s.insert(pkt(1));
        s.remove(r);
        let _ = s.get(r);
    }

    #[test]
    #[should_panic(expected = "removed twice")]
    fn double_remove_is_rejected() {
        let mut s = PacketSlab::new();
        let r = s.insert(pkt(1));
        s.remove(r);
        s.remove(r);
    }

    #[test]
    fn clone_replays_the_same_handles() {
        let mut a = PacketSlab::new();
        let r0 = a.insert(pkt(0));
        a.insert(pkt(1));
        a.remove(r0);
        let mut b = a.clone();
        assert_eq!(a.insert(pkt(2)), b.insert(pkt(2)));
        assert_eq!(a.len(), b.len());
    }
}
