//! Converse Client-Server (CCS) style external control.
//!
//! The paper's operator signals a running Charm++ application to shrink
//! or expand through the CCS interface (§2.2); the application applies
//! the request at its next load-balancing step and acknowledges. Here
//! the endpoint is an in-process slot for the newest request: the
//! operator holds a [`CcsClient`], the application driver polls the
//! paired endpoint at sync boundaries, and the acknowledgement carries
//! the full [`RescaleReport`] so the caller sees per-stage overhead.

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use hpc_metrics::sync::locked;

use crate::rescale::RescaleReport;

/// A rescale request awaiting application.
pub struct CcsRequest {
    /// Desired PE count.
    pub target_pes: usize,
    /// Where to deliver the acknowledgement.
    pub reply: SyncSender<RescaleReport>,
}

impl std::fmt::Debug for CcsRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CcsRequest(target_pes={})", self.target_pes)
    }
}

/// Server side: owned by the runtime, polled by the driver.
#[derive(Clone, Default)]
pub struct CcsEndpoint {
    /// The request not yet taken, if any.
    slot: Arc<Mutex<Option<CcsRequest>>>,
}

impl CcsEndpoint {
    /// A fresh endpoint with no pending requests.
    pub fn new() -> Self {
        Self::default()
    }

    /// A client handle for external controllers.
    pub fn client(&self) -> CcsClient {
        CcsClient {
            slot: Arc::clone(&self.slot),
        }
    }

    /// Takes the newest request, if one arrived since the last take — a
    /// controller that signalled twice before a boundary only wants the
    /// latest target.
    pub fn take_latest(&self) -> Option<CcsRequest> {
        locked(&self.slot).take()
    }
}

/// Client side: held by the operator / external controller.
#[derive(Clone)]
pub struct CcsClient {
    slot: Arc<Mutex<Option<CcsRequest>>>,
}

impl CcsClient {
    /// Requests a rescale to `target_pes`; the returned receiver yields
    /// the report once the application has applied the request at a
    /// sync boundary. A request not yet taken is replaced, and its
    /// receiver reads `Disconnected`.
    pub fn request_rescale(&self, target_pes: usize) -> Receiver<RescaleReport> {
        assert!(target_pes >= 1, "cannot rescale to zero PEs");
        let (tx, rx) = mpsc::sync_channel(1);
        *locked(&self.slot) = Some(CcsRequest {
            target_pes,
            reply: tx,
        });
        rx
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::TryRecvError;

    use super::*;

    #[test]
    fn request_flows_to_endpoint_and_ack_flows_back() {
        let ep = CcsEndpoint::new();
        let client = ep.client();
        let ack = client.request_rescale(8);
        let req = ep.take_latest().expect("request queued");
        assert_eq!(req.target_pes, 8);
        req.reply.send(RescaleReport::noop(8)).unwrap();
        let report = ack.recv().unwrap();
        assert_eq!(report.to_pes, 8);
    }

    #[test]
    fn take_latest_collapses_burst() {
        let ep = CcsEndpoint::new();
        let client = ep.client();
        let a1 = client.request_rescale(4);
        let a2 = client.request_rescale(16);
        let _a3 = client.request_rescale(2);
        assert_eq!(ep.take_latest().unwrap().target_pes, 2);
        assert!(ep.take_latest().is_none());
        for replaced in [a1, a2] {
            assert_eq!(replaced.try_recv(), Err(TryRecvError::Disconnected));
        }
    }

    #[test]
    fn dropped_ack_receiver_does_not_poison_reply() {
        let ep = CcsEndpoint::new();
        let client = ep.client();
        drop(client.request_rescale(4));
        let req = ep.take_latest().unwrap();
        // Sending to a dropped receiver must be a clean error, not a panic.
        assert!(req.reply.send(RescaleReport::noop(4)).is_err());
    }

    #[test]
    #[should_panic(expected = "zero PEs")]
    fn zero_target_rejected() {
        let ep = CcsEndpoint::new();
        let _ = ep.client().request_rescale(0);
    }

    #[test]
    fn clients_are_cloneable_and_share_queue() {
        let ep = CcsEndpoint::new();
        let c1 = ep.client();
        let c2 = c1.clone();
        let _a = c1.request_rescale(2);
        let _b = c2.request_rescale(3);
        assert_eq!(ep.take_latest().unwrap().target_pes, 3);
    }
}
