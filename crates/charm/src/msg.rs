//! Messages exchanged between the driver and PE worker threads.
//!
//! Application traffic (`Deliver`) flows PE→PE through the router;
//! lifecycle operations (stats collection, migration, checkpoint, stop)
//! are driver-coordinated request/reply pairs, which keeps the rescale
//! protocol free of distributed termination detection — the driver always
//! knows exactly how many acknowledgements to await.

use std::sync::mpsc::Sender;

use crate::codec::Bytes;
use crate::ids::{ChareId, MethodId};
use crate::lb::ChareStat;

/// A message consumed by a PE worker loop.
pub enum PeMsg {
    /// An entry-method invocation for a chare resident on this PE.
    Deliver {
        /// Destination chare.
        to: ChareId,
        /// Entry-method selector.
        method: MethodId,
        /// Payload (decoded by the chare).
        data: Bytes,
    },
    /// Install already-constructed chares (initial placement).
    InstallLive {
        /// The chares and their identities.
        chares: Vec<(ChareId, Box<dyn crate::chare::Chare>)>,
        /// Acknowledged once all are resident.
        ack: Sender<()>,
    },
    /// Install chares from packed bytes (migration / restore). The PE
    /// deserializes on its own thread, so restore cost parallelizes.
    /// States travel as [`Bytes`] so forwarding a packed chare between
    /// channels never copies the payload.
    InstallPacked {
        /// Packed chare states.
        chares: Vec<(ChareId, Bytes)>,
        /// Acknowledged once all are resident.
        ack: Sender<()>,
    },
    /// Remove the listed chares, returning their packed states.
    ExtractChares {
        /// Chares to remove (must be resident).
        ids: Vec<ChareId>,
        /// Receives the packed states: sending a [`Bytes`] is a refcount
        /// bump; the one copy was [`Writer::finish`](crate::codec::Writer::finish)'s.
        reply: Sender<Vec<(ChareId, Bytes)>>,
    },
    /// Report (and reset) measured per-chare loads.
    CollectStats {
        /// Receives one entry per resident chare.
        reply: Sender<Vec<ChareStat>>,
    },
    /// Serialize every resident chare into the shared checkpoint store.
    Checkpoint {
        /// Receives `(chare_count, total_bytes)`.
        reply: Sender<(usize, usize)>,
    },
    /// Terminate the worker loop.
    Stop,
}

impl std::fmt::Debug for PeMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeMsg::Deliver { to, method, data } => f
                .debug_struct("Deliver")
                .field("to", to)
                .field("method", method)
                .field("len", &data.len())
                .finish(),
            PeMsg::InstallLive { chares, .. } => {
                write!(f, "InstallLive({} chares)", chares.len())
            }
            PeMsg::InstallPacked { chares, .. } => {
                write!(f, "InstallPacked({} chares)", chares.len())
            }
            PeMsg::ExtractChares { ids, .. } => write!(f, "ExtractChares({} ids)", ids.len()),
            PeMsg::CollectStats { .. } => write!(f, "CollectStats"),
            PeMsg::Checkpoint { .. } => write!(f, "Checkpoint"),
            PeMsg::Stop => write!(f, "Stop"),
        }
    }
}

/// Events delivered to the driver thread.
#[derive(Debug, Clone)]
pub enum MainEvent {
    /// A PE-combined partial reduction result.
    ReductionPartial {
        /// Array the reduction ranges over.
        array: crate::ids::ArrayId,
        /// Reduction epoch.
        seq: u64,
        /// Combining operator.
        op: crate::reduction::ReduceOp,
        /// Partially combined values.
        vals: Vec<f64>,
        /// Number of element contributions folded into `vals`.
        contributions: u64,
    },
    /// An out-of-band message from a chare to the driver.
    ToMain {
        /// Sender.
        from: ChareId,
        /// Application-defined tag.
        tag: u64,
        /// Payload.
        data: Bytes,
    },
}
