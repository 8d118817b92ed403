//! PE message routing.
//!
//! The router owns the send endpoints of every PE's message queue. Under
//! the full-restart rescale protocol it gets *swapped out*: shrink/expand
//! replaces the endpoint table wholesale (a new generation), which models
//! tearing down and relaunching the MPI job. Under the incremental
//! protocol the live table is *resized in place* — [`Router::truncate`]
//! retires the top endpoints on shrink and [`Router::extend`] appends new
//! ones on expand — so surviving PEs keep their queues (and any queued
//! messages) untouched.

use std::sync::mpsc::Sender;
use std::sync::RwLock;

use hpc_metrics::sync::{read, write};

use crate::ids::PeId;
use crate::msg::PeMsg;

/// Routes messages to PE worker queues.
#[derive(Default)]
pub struct Router {
    endpoints: RwLock<Endpoints>,
}

#[derive(Default)]
struct Endpoints {
    txs: Vec<Sender<PeMsg>>,
    generation: u64,
}

impl Router {
    /// An empty router (no PEs yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the endpoint table; called at startup and on restart.
    /// Returns the new generation number.
    pub fn set_endpoints(&self, txs: Vec<Sender<PeMsg>>) -> u64 {
        let mut ep = write(&self.endpoints);
        ep.txs = txs;
        ep.generation += 1;
        ep.generation
    }

    /// Number of live PEs.
    pub fn len(&self) -> usize {
        read(&self.endpoints).txs.len()
    }

    /// `true` when no endpoints are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current endpoint-table generation (bumps on every restart or
    /// in-place resize).
    #[cfg(test)]
    fn generation(&self) -> u64 {
        read(&self.endpoints).generation
    }

    /// Appends endpoints for newly spawned PEs (incremental expand),
    /// keeping every existing endpoint live. Returns the new generation.
    pub fn extend(&self, txs: Vec<Sender<PeMsg>>) -> u64 {
        let mut ep = write(&self.endpoints);
        ep.txs.extend(txs);
        ep.generation += 1;
        ep.generation
    }

    /// Drops the endpoints of PEs `new_len..` (incremental shrink). The
    /// retired queues disconnect once their workers drain and exit.
    /// Returns the new generation.
    pub fn truncate(&self, new_len: usize) -> u64 {
        let mut ep = write(&self.endpoints);
        assert!(
            new_len <= ep.txs.len(),
            "truncate {new_len} beyond {} endpoints",
            ep.txs.len()
        );
        ep.txs.truncate(new_len);
        ep.generation += 1;
        ep.generation
    }

    /// Sends `msg` to `pe`. Returns `false` if the PE does not exist or
    /// its queue is disconnected (e.g. mid-restart) — callers at sync
    /// boundaries treat that as a protocol bug, in-flight app code treats
    /// it as a drop.
    pub fn send(&self, pe: PeId, msg: PeMsg) -> bool {
        let ep = read(&self.endpoints);
        match ep.txs.get(pe.as_usize()) {
            Some(tx) => tx.send(msg).is_ok(),
            None => false,
        }
    }

    /// Sends `Stop` to every PE.
    pub fn stop_all(&self) {
        let ep = read(&self.endpoints);
        for tx in &ep.txs {
            let _ = tx.send(PeMsg::Stop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn routes_to_correct_pe() {
        let router = Router::new();
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        router.set_endpoints(vec![tx0, tx1]);
        assert_eq!(router.len(), 2);
        assert!(router.send(PeId(1), PeMsg::Stop));
        assert!(rx1.try_recv().is_ok());
        assert!(rx0.try_recv().is_err());
    }

    #[test]
    fn unknown_pe_returns_false() {
        let router = Router::new();
        assert!(!router.send(PeId(0), PeMsg::Stop));
        assert!(router.is_empty());
    }

    #[test]
    fn generation_bumps_on_swap() {
        let router = Router::new();
        let g1 = router.set_endpoints(vec![]);
        let g2 = router.set_endpoints(vec![]);
        assert!(g2 > g1);
        assert_eq!(router.generation(), g2);
    }

    #[test]
    fn disconnected_queue_reports_failure() {
        let router = Router::new();
        let (tx, rx) = channel();
        router.set_endpoints(vec![tx]);
        drop(rx);
        assert!(!router.send(PeId(0), PeMsg::Stop));
    }

    #[test]
    fn extend_keeps_existing_endpoints_live() {
        let router = Router::new();
        let (tx0, rx0) = channel();
        router.set_endpoints(vec![tx0]);
        let g1 = router.generation();
        let (tx1, rx1) = channel();
        let g2 = router.extend(vec![tx1]);
        assert!(g2 > g1);
        assert_eq!(router.len(), 2);
        assert!(router.send(PeId(0), PeMsg::Stop));
        assert!(router.send(PeId(1), PeMsg::Stop));
        assert!(rx0.try_recv().is_ok());
        assert!(rx1.try_recv().is_ok());
    }

    #[test]
    fn truncate_retires_top_endpoints_only() {
        let router = Router::new();
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        router.set_endpoints(vec![tx0, tx1]);
        router.truncate(1);
        assert_eq!(router.len(), 1);
        // The survivor still routes; the retired PE is gone.
        assert!(router.send(PeId(0), PeMsg::Stop));
        assert!(!router.send(PeId(1), PeMsg::Stop));
        assert!(rx0.try_recv().is_ok());
        assert!(rx1.try_recv().is_err());
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn truncate_beyond_len_is_a_bug() {
        let router = Router::new();
        router.truncate(1);
    }

    #[test]
    fn stop_all_reaches_every_pe() {
        let router = Router::new();
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        router.set_endpoints(vec![tx0, tx1]);
        router.stop_all();
        assert!(matches!(rx0.try_recv().unwrap(), PeMsg::Stop));
        assert!(matches!(rx1.try_recv().unwrap(), PeMsg::Stop));
    }
}
