//! The PE (processing element) worker.
//!
//! One PE = one OS thread running a Charm++-style scheduler loop: pull a
//! message, find the destination chare in the local registry, execute the
//! entry method (timing it for the load balancer), fold any contributions
//! into PE-local reduction partials. Lifecycle messages (install /
//! extract / checkpoint / stats / stop) come from the driver and are
//! acknowledged through dedicated reply channels.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use hpc_metrics::sync::read;

use crate::chare::{Chare, Contribution, Ctx};
use crate::ckpt::CkptEntry;
use crate::codec::{Reader, Writer};
use crate::ids::{ArrayId, ChareId, Index, MethodId, PeId};
use crate::lb::ChareStat;
use crate::msg::{MainEvent, PeMsg};
use crate::reduction::Partial;
use crate::runtime::RtShared;

pub(crate) struct PeWorker {
    pe: PeId,
    rx: Receiver<PeMsg>,
    shared: Arc<RtShared>,
    /// Resident chares, per array.
    registry: HashMap<ArrayId, HashMap<Index, Box<dyn Chare>>>,
    /// Busy-seconds per chare since the last stats collection.
    loads: HashMap<ChareId, f64>,
    /// PE-local reduction partials, keyed by (array, epoch).
    partials: HashMap<(ArrayId, u64), Partial>,
    /// Messages for chares not (yet) resident; retried after installs.
    limbo: Vec<(ChareId, MethodId, Bytes)>,
}

impl PeWorker {
    /// Spawns the worker thread for `pe`.
    pub(crate) fn spawn(
        pe: PeId,
        rx: Receiver<PeMsg>,
        shared: Arc<RtShared>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("charm-{pe}"))
            .spawn(move || {
                PeWorker {
                    pe,
                    rx,
                    shared,
                    registry: HashMap::new(),
                    loads: HashMap::new(),
                    partials: HashMap::new(),
                    limbo: Vec::new(),
                }
                .run()
            })
            .expect("failed to spawn PE thread")
    }

    fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            match msg {
                PeMsg::Deliver { to, method, data } => self.on_deliver(to, method, data),
                PeMsg::InstallLive { chares, ack } => {
                    for (id, chare) in chares {
                        self.registry
                            .entry(id.array)
                            .or_default()
                            .insert(id.index, chare);
                    }
                    let _ = ack.send(());
                    self.retry_limbo();
                }
                PeMsg::InstallPacked { chares, ack } => {
                    self.on_install_packed(chares);
                    let _ = ack.send(());
                    self.retry_limbo();
                }
                PeMsg::ExtractChares { ids, reply } => {
                    let packed = self.on_extract(&ids);
                    let _ = reply.send(packed);
                }
                PeMsg::CollectStats { reply } => {
                    let stats = self.on_collect_stats();
                    let _ = reply.send(stats);
                }
                PeMsg::Checkpoint { reply } => {
                    let (count, bytes) = self.on_checkpoint();
                    let _ = reply.send((count, bytes));
                }
                PeMsg::Stop => break,
            }
        }
    }

    fn on_deliver(&mut self, to: ChareId, method: MethodId, data: Bytes) {
        let resident = self
            .registry
            .get_mut(&to.array)
            .and_then(|m| m.remove(&to.index));
        let Some(mut chare) = resident else {
            // Mis-route: either the chare moved (re-resolve and forward)
            // or its install is still in flight (park in limbo).
            match self.shared.location.lookup(to) {
                Some(dest) if dest != self.pe => {
                    self.shared
                        .router
                        .send(dest, PeMsg::Deliver { to, method, data });
                }
                _ => self.limbo.push((to, method, data)),
            }
            return;
        };

        let started = Instant::now();
        let mut contributions: Vec<Contribution> = Vec::new();
        {
            let mut ctx = Ctx {
                array: to.array,
                index: to.index,
                pe: self.pe,
                shared: &self.shared,
                contributions: &mut contributions,
            };
            chare.dispatch(&mut ctx, method, &data);
        }
        *self.loads.entry(to).or_insert(0.0) += started.elapsed().as_secs_f64();
        self.registry
            .get_mut(&to.array)
            .expect("array map exists")
            .insert(to.index, chare);
        self.apply_contributions(contributions);
    }

    fn apply_contributions(&mut self, contributions: Vec<Contribution>) {
        for c in contributions {
            let key = (c.array, c.seq);
            match self.partials.get_mut(&key) {
                Some(p) => p.add(c.op, &c.vals),
                None => {
                    self.partials.insert(key, Partial::first(c.op, &c.vals));
                }
            }
            // Flush once every locally resident element of the array has
            // contributed to this epoch. Membership is stable between
            // sync boundaries, so the local count is a safe target.
            let local = self
                .registry
                .get(&c.array)
                .map(|m| m.len() as u64)
                .unwrap_or(0);
            let complete = self
                .partials
                .get(&key)
                .is_some_and(|p| p.contributions >= local);
            if complete {
                let p = self.partials.remove(&key).expect("partial exists");
                let _ = self.shared.main_tx.send(MainEvent::ReductionPartial {
                    array: c.array,
                    seq: c.seq,
                    op: p.op,
                    vals: p.acc,
                    contributions: p.contributions,
                });
            }
        }
    }

    fn retry_limbo(&mut self) {
        if self.limbo.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.limbo);
        for (to, method, data) in parked {
            self.on_deliver(to, method, data);
        }
    }

    fn on_install_packed(&mut self, chares: Vec<(ChareId, Bytes)>) {
        for (id, bytes) in chares {
            let factory = {
                let arrays = read(&self.shared.arrays);
                arrays
                    .get(&id.array)
                    .unwrap_or_else(|| panic!("install for unregistered array {}", id.array))
                    .factory
                    .clone()
            };
            let mut reader = Reader::new(&bytes);
            let chare = factory(id.index, &mut reader);
            self.registry
                .entry(id.array)
                .or_default()
                .insert(id.index, chare);
        }
    }

    fn on_extract(&mut self, ids: &[ChareId]) -> Vec<(ChareId, Bytes)> {
        debug_assert!(
            self.partials.is_empty(),
            "extraction with reduction epochs in flight on {}",
            self.pe
        );
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let chare = self
                .registry
                .get_mut(&id.array)
                .and_then(|m| m.remove(&id.index))
                .unwrap_or_else(|| panic!("extract of non-resident chare {id} on {}", self.pe));
            let mut w = Writer::new();
            chare.pack(&mut w);
            out.push((id, w.finish()));
            self.loads.remove(&id);
        }
        out
    }

    fn on_collect_stats(&mut self) -> Vec<ChareStat> {
        let resident: usize = self.registry.values().map(|m| m.len()).sum();
        let mut stats = Vec::with_capacity(resident);
        for (&array, members) in &self.registry {
            for &index in members.keys() {
                let id = ChareId::new(array, index);
                stats.push(ChareStat {
                    id,
                    pe: self.pe,
                    load: self.loads.get(&id).copied().unwrap_or(0.0),
                });
            }
        }
        // Loads reset each collection: LB epochs measure recent activity.
        self.loads.clear();
        stats
    }

    fn on_checkpoint(&mut self) -> (usize, usize) {
        let resident: usize = self.registry.values().map(|m| m.len()).sum();
        let mut batch = Vec::with_capacity(resident);
        let mut total_bytes = 0usize;
        for (&array, members) in &self.registry {
            for (&index, chare) in members {
                let mut w = Writer::new();
                chare.pack(&mut w);
                let data = w.finish();
                total_bytes += data.len();
                batch.push((ChareId::new(array, index), CkptEntry { pe: self.pe, data }));
            }
        }
        let count = batch.len();
        self.shared.ckpt.insert_batch(batch);
        (count, total_bytes)
    }
}
