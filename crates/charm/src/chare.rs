//! The migratable-object (chare) abstraction.
//!
//! A chare is a unit of over-decomposition: applications create many more
//! chares than PEs, and the runtime maps chares to PEs, migrating them
//! for load balance or rescaling. User code implements [`Chare`]:
//! `dispatch` handles entry-method invocations, and `pack` serializes the
//! full object state so the runtime can move it between PEs or into the
//! in-memory checkpoint store. A [`ChareFactory`] reconstructs the object
//! on the destination PE.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::codec::{Bytes, Reader, Writer};
use crate::ids::{ArrayId, ChareId, Index, MethodId, PeId};
use crate::msg::{MainEvent, PeMsg};
use crate::reduction::ReduceOp;
use crate::runtime::RtShared;

/// A migratable object.
///
/// Implementations must be fully self-describing under `pack`/factory:
/// the bytes written by [`Chare::pack`] plus the index must suffice to
/// rebuild an equivalent object, because migration and checkpoint/restart
/// go through exactly that path.
pub trait Chare: Send {
    /// Handles one entry-method invocation.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, method: MethodId, data: &[u8]);

    /// Serializes the complete object state.
    fn pack(&self, w: &mut Writer);
}

/// Reconstructs a chare from its index and packed state.
pub type ChareFactory = Arc<dyn Fn(Index, &mut Reader<'_>) -> Box<dyn Chare> + Send + Sync>;

/// A contribution captured during dispatch, merged into the PE-local
/// reduction partial after the entry method returns.
#[derive(Debug, Clone)]
pub(crate) struct Contribution {
    pub array: ArrayId,
    pub seq: u64,
    pub op: ReduceOp,
    pub vals: Vec<f64>,
}

/// The execution context handed to a chare during `dispatch`.
///
/// Provides the Charm++-style primitives: point-to-point sends to array
/// elements, contributions to reductions, and messages to the main
/// driver. Sends are asynchronous; delivery order is FIFO per (sender PE,
/// destination PE) pair.
pub struct Ctx<'a> {
    pub(crate) array: ArrayId,
    pub(crate) index: Index,
    pub(crate) pe: PeId,
    pub(crate) shared: &'a RtShared,
    pub(crate) contributions: &'a mut Vec<Contribution>,
}

impl Ctx<'_> {
    /// The index of the chare being dispatched.
    #[inline]
    pub fn index(&self) -> Index {
        self.index
    }

    /// The array the chare belongs to.
    #[inline]
    pub fn array(&self) -> ArrayId {
        self.array
    }

    /// The PE currently executing this chare.
    #[inline]
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// The current number of PEs (changes across rescales).
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.shared.num_pes.load(Ordering::Acquire)
    }

    /// Sends `data` to entry method `method` of the element `to` of the
    /// *same* array.
    pub fn send(&mut self, to: Index, method: MethodId, data: Bytes) {
        self.send_to(ChareId::new(self.array, to), method, data);
    }

    /// Sends to an element of any array.
    pub fn send_to(&mut self, to: ChareId, method: MethodId, data: Bytes) {
        let dest = self
            .shared
            .location
            .lookup(to)
            .unwrap_or_else(|| panic!("send to unknown chare {to}"));
        self.shared.stats.note_message(data.len());
        self.shared
            .router
            .send(dest, PeMsg::Deliver { to, method, data });
    }

    /// Contributes `vals` to reduction epoch `seq` of this chare's array.
    ///
    /// Every element of the array must contribute exactly once per epoch;
    /// when all have, the combined result is delivered to the driver (see
    /// `Runtime::wait_reduction`).
    pub fn contribute(&mut self, seq: u64, op: ReduceOp, vals: &[f64]) {
        self.contributions.push(Contribution {
            array: self.array,
            seq,
            op,
            vals: vals.to_vec(),
        });
    }

    /// Sends an out-of-band message to the driver ("main chare").
    pub fn send_main(&mut self, tag: u64, data: Bytes) {
        let _ = self.shared.main_tx.send(MainEvent::ToMain {
            from: ChareId::new(self.array, self.index),
            tag,
            data,
        });
    }
}
