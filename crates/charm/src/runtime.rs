//! The runtime driver: PE pool lifecycle, arrays, reductions, load
//! balancing, checkpoint/restart and the shrink/expand protocols.
//!
//! The thread calling into [`Runtime`] plays the role of the Charm++
//! *main chare*: it creates arrays, broadcasts entry-method invocations,
//! waits on reductions, and — at application sync boundaries — applies
//! pending CCS rescale requests.
//!
//! Two rescale protocols are supported ([`RescaleMode`]):
//! [`Runtime::rescale`] runs the incremental one and
//! [`Runtime::rescale_with_mode`] picks per call:
//!
//! * **Incremental (in-place)** — on shrink, the evacuation LB moves
//!   exactly the chares living on dying PEs to survivors, the dying
//!   threads retire, and the router compacts; on expand, only the new PE
//!   threads spawn and an expansion LB moves just enough load onto them.
//!   Surviving PEs never tear down, untouched chares never serialize,
//!   and overhead scales with the bytes actually moved.
//! * **Full restart** — the paper's checkpoint/restart protocol (§2.2):
//!   on **shrink**, the load balancer first evacuates the dying PEs,
//!   then state is checkpointed to the in-memory store, the PE pool is
//!   restarted at the new size, and state is restored; on **expand**,
//!   checkpoint → restart → restore happen first and a load balance step
//!   then spreads chares onto the new PEs.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use hpc_metrics::sync::{read, write};
use hpc_metrics::{Counter, Counters, Duration};

use crate::ccs::{CcsClient, CcsEndpoint};
use crate::chare::{Chare, ChareFactory};
use crate::ckpt::CheckpointStore;
use crate::codec::Bytes;
use crate::ids::{ArrayId, ChareId, Index, MethodId, PeId};
use crate::lb::{validate_assignment, ChareStat, LbStrategy};
use crate::location::LocationManager;
use crate::msg::{MainEvent, PeMsg};
use crate::pe::PeWorker;
use crate::reduction::{ReductionCollector, ReductionResult};
use crate::rescale::{RescaleKind, RescaleMode, RescaleReport, StageTimings};
use crate::router::Router;

/// Freshly constructed chares grouped by destination PE (initial
/// placement batches).
type LivePlacement = HashMap<PeId, Vec<(ChareId, Box<dyn Chare>)>>;

/// Metadata for one chare array.
pub(crate) struct ArrayMeta {
    #[allow(dead_code)]
    pub name: String,
    pub factory: ChareFactory,
    pub elements: Vec<Index>,
}

/// State shared between the driver and all PE workers.
pub struct RtShared {
    pub(crate) router: Router,
    pub(crate) location: LocationManager,
    pub(crate) num_pes: AtomicUsize,
    pub(crate) main_tx: Sender<MainEvent>,
    pub(crate) arrays: RwLock<HashMap<ArrayId, ArrayMeta>>,
    pub(crate) ckpt: CheckpointStore,
    pub(crate) messages: AtomicU64,
    pub(crate) migrations: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
}

/// Configuration for a [`Runtime`].
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Initial PE count.
    pub pes: usize,
    /// Extra restart latency charged per PE — the surrogate for MPI
    /// job-launch time, which the paper observes growing with rank count
    /// (Fig. 5). Zero (the default) measures pure thread restart.
    ///
    /// A full restart relaunches every rank sequentially through the MPI
    /// launcher, so it is charged `delay × new_pes`. An incremental
    /// expand hot-adds workers whose containers start in parallel, so it
    /// is charged `delay` once; an incremental shrink launches nothing.
    pub startup_delay_per_pe: std::time::Duration,
    /// A label for thread names and reports.
    pub name: String,
}

impl RuntimeConfig {
    /// A config with `pes` PEs and no startup surrogate.
    pub fn new(pes: usize) -> Self {
        assert!(pes >= 1, "need at least one PE");
        RuntimeConfig {
            pes,
            startup_delay_per_pe: std::time::Duration::ZERO,
            name: "charm".to_string(),
        }
    }

    /// Sets the per-PE restart surrogate delay.
    pub fn with_startup_delay(mut self, per_pe: std::time::Duration) -> Self {
        self.startup_delay_per_pe = per_pe;
        self
    }

    /// Sets the runtime label.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// Report from an explicit load-balance step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbReport {
    /// Chares that changed PE.
    pub migrated: usize,
    /// Serialized bytes of the migrated chares.
    pub bytes: usize,
    /// Wall-clock cost of the step.
    pub duration: Duration,
}

/// Report from a checkpoint operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkptReport {
    /// Chares serialized.
    pub chares: usize,
    /// Bytes written to the store.
    pub bytes: usize,
    /// Wall-clock cost.
    pub duration: Duration,
}

/// Errors from blocking driver waits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The timeout elapsed first.
    Timeout,
    /// All PE senders disconnected (runtime shut down).
    Disconnected,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::Timeout => write!(f, "timed out waiting for runtime event"),
            WaitError::Disconnected => write!(f, "runtime event channel disconnected"),
        }
    }
}

impl std::error::Error for WaitError {}

/// The migratable-objects runtime.
pub struct Runtime {
    shared: Arc<RtShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    main_rx: Receiver<MainEvent>,
    collector: ReductionCollector,
    completed: VecDeque<ReductionResult>,
    to_main: VecDeque<MainEvent>,
    ccs: CcsEndpoint,
    cfg: RuntimeConfig,
    next_array: u32,
}

impl Runtime {
    /// Boots a runtime with `cfg.pes` PE threads.
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        let (main_tx, main_rx) = mpsc::channel();
        let shared = Arc::new(RtShared {
            router: Router::new(),
            location: LocationManager::default(),
            num_pes: AtomicUsize::new(0),
            main_tx,
            arrays: RwLock::new(HashMap::new()),
            ckpt: CheckpointStore::new(),
            messages: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        });
        let mut rt = Runtime {
            shared,
            handles: Vec::new(),
            main_rx,
            collector: ReductionCollector::new(),
            completed: VecDeque::new(),
            to_main: VecDeque::new(),
            ccs: CcsEndpoint::new(),
            cfg,
            next_array: 0,
        };
        rt.spawn_pes(rt.cfg.pes, false);
        rt
    }

    /// Current PE count.
    pub fn num_pes(&self) -> usize {
        self.shared.num_pes.load(Ordering::Acquire)
    }

    /// Entry-method messages, chare migrations and checkpoints so far.
    pub fn counters(&self) -> Counters {
        let load = |count: &AtomicU64| count.load(Ordering::Relaxed);
        let mut counters = Counters::default();
        counters.add(Counter::Messages, load(&self.shared.messages));
        counters.add(Counter::Migrations, load(&self.shared.migrations));
        counters.add(Counter::Checkpoints, load(&self.shared.checkpoints));
        counters
    }

    /// A CCS client for external controllers (clone-able, thread-safe).
    pub fn ccs_client(&self) -> CcsClient {
        self.ccs.client()
    }

    /// Number of elements registered in `array`.
    fn array_len(&self, array: ArrayId) -> usize {
        read(&self.shared.arrays)
            .get(&array)
            .map(|m| m.elements.len())
            .unwrap_or(0)
    }

    /// Chares per PE (index = PE number) — used by tests and reports.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shared.location.occupancy(self.num_pes())
    }

    /// Spawns worker threads for PE ids `lo..hi`, returning their send
    /// endpoints and pushing the join handles.
    fn spawn_pe_range(&mut self, lo: usize, hi: usize) -> Vec<Sender<PeMsg>> {
        let mut txs = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            self.handles.push(PeWorker::spawn(
                PeId(i as u32),
                rx,
                Arc::clone(&self.shared),
            ));
        }
        txs
    }

    /// (Re)launches the whole pool at size `n`, replacing the endpoint
    /// table. `charge_startup` applies the sequential MPI-launch
    /// surrogate (`delay × n`).
    fn spawn_pes(&mut self, n: usize, charge_startup: bool) {
        assert!(n >= 1, "need at least one PE");
        if charge_startup && !self.cfg.startup_delay_per_pe.is_zero() {
            // MPI-startup surrogate: launch cost grows with rank count.
            std::thread::sleep(self.cfg.startup_delay_per_pe * n as u32);
        }
        debug_assert!(self.handles.is_empty(), "pool respawn with live workers");
        let txs = self.spawn_pe_range(0, n);
        self.shared.router.set_endpoints(txs);
        self.shared.num_pes.store(n, Ordering::Release);
    }

    fn stop_pes(&mut self) {
        self.shared.router.stop_all();
        join_all(self.handles.drain(..));
    }

    /// Retires PEs `new_pes..` in place: each dying worker drains its
    /// queue (all evacuation installs are already acknowledged), stops,
    /// and is joined; the router compacts to the surviving endpoints.
    fn retire_pes(&mut self, new_pes: usize) {
        let old = self.handles.len();
        debug_assert!(new_pes <= old, "retire beyond pool");
        for i in new_pes..old {
            // A failed send would leave the worker running and the join
            // below hanging — fail loudly instead, like the sibling
            // driver-coordinated request paths.
            let ok = self.shared.router.send(PeId(i as u32), PeMsg::Stop);
            assert!(ok, "stop for retiring pe{i} failed");
        }
        self.shared.router.truncate(new_pes);
        self.shared.num_pes.store(new_pes, Ordering::Release);
        join_all(self.handles.drain(new_pes..));
    }

    /// Grows the pool in place to `new_pes`: fresh workers spawn (their
    /// containers start in parallel, so the startup surrogate is charged
    /// once, not per PE) and the router extends; survivors are untouched.
    fn grow_pes(&mut self, new_pes: usize) {
        let old = self.handles.len();
        debug_assert!(new_pes >= old, "grow below pool");
        if !self.cfg.startup_delay_per_pe.is_zero() {
            std::thread::sleep(self.cfg.startup_delay_per_pe);
        }
        let txs = self.spawn_pe_range(old, new_pes);
        self.shared.router.extend(txs);
        self.shared.num_pes.store(new_pes, Ordering::Release);
    }

    /// Creates a chare array and block-maps its elements over the PEs
    /// (contiguous index ranges per PE, like Charm++'s default map).
    /// Blocks until every element is resident.
    pub fn create_array(
        &mut self,
        name: impl Into<String>,
        factory: ChareFactory,
        mut elements: Vec<(Index, Box<dyn Chare>)>,
    ) -> ArrayId {
        assert!(!elements.is_empty(), "array must have at least one element");
        let id = ArrayId(self.next_array);
        self.next_array += 1;
        elements.sort_by_key(|(idx, _)| *idx);
        let roster: Vec<Index> = elements.iter().map(|(idx, _)| *idx).collect();
        {
            let mut arrays = write(&self.shared.arrays);
            arrays.insert(
                id,
                ArrayMeta {
                    name: name.into(),
                    factory,
                    elements: roster,
                },
            );
        }
        let npes = self.num_pes();
        let count = elements.len();
        let mut per_pe: LivePlacement = HashMap::new();
        for (rank, (index, chare)) in elements.into_iter().enumerate() {
            let pe = PeId((rank * npes / count) as u32);
            let cid = ChareId::new(id, index);
            self.shared.location.update(cid, pe);
            per_pe.entry(pe).or_default().push((cid, chare));
        }
        let (ack_tx, ack_rx) = mpsc::channel();
        let batches = per_pe.len();
        for (pe, chares) in per_pe {
            let sent = self.shared.router.send(
                pe,
                PeMsg::InstallLive {
                    chares,
                    ack: ack_tx.clone(),
                },
            );
            assert!(sent, "failed to install chares on {pe}");
        }
        for _ in 0..batches {
            ack_rx.recv().expect("install ack");
        }
        id
    }

    /// Sends `data` to entry `method` of one chare.
    pub fn send(&self, to: ChareId, method: MethodId, data: Bytes) {
        let pe = self
            .shared
            .location
            .lookup(to)
            .unwrap_or_else(|| panic!("send to unknown chare {to}"));
        self.shared.messages.fetch_add(1, Ordering::Relaxed);
        let ok = self
            .shared
            .router
            .send(pe, PeMsg::Deliver { to, method, data });
        debug_assert!(ok, "driver send to {to} failed");
    }

    /// Sends `data` to entry `method` of every element of `array`.
    pub fn broadcast(&self, array: ArrayId, method: MethodId, data: Bytes) {
        let roster = {
            let arrays = read(&self.shared.arrays);
            arrays
                .get(&array)
                .unwrap_or_else(|| panic!("broadcast to unregistered {array}"))
                .elements
                .clone()
        };
        for index in roster {
            self.send(ChareId::new(array, index), method, data.clone());
        }
    }

    fn pump_event(&mut self, ev: MainEvent) {
        match ev {
            MainEvent::ReductionPartial {
                array,
                seq,
                op,
                vals,
                contributions,
            } => {
                let expected = self.array_len(array) as u64;
                if let Some(done) =
                    self.collector
                        .offer(array, seq, op, &vals, contributions, expected)
                {
                    self.completed.push_back(done);
                }
            }
            other @ MainEvent::ToMain { .. } => self.to_main.push_back(other),
        }
    }

    /// Waits for the next completed reduction of `array`.
    pub fn wait_reduction(
        &mut self,
        array: ArrayId,
        timeout: std::time::Duration,
    ) -> Result<ReductionResult, WaitError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pos) = self.completed.iter().position(|r| r.array == array) {
                return Ok(self.completed.remove(pos).expect("position valid"));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WaitError::Timeout);
            }
            match self.main_rx.recv_timeout(remaining) {
                Ok(ev) => self.pump_event(ev),
                Err(RecvTimeoutError::Timeout) => return Err(WaitError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(WaitError::Disconnected),
            }
        }
    }

    /// Waits for the next out-of-band chare→driver message.
    pub fn recv_main(&mut self, timeout: std::time::Duration) -> Result<MainEvent, WaitError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.to_main.pop_front() {
                return Ok(ev);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WaitError::Timeout);
            }
            match self.main_rx.recv_timeout(remaining) {
                Ok(ev) => self.pump_event(ev),
                Err(RecvTimeoutError::Timeout) => return Err(WaitError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(WaitError::Disconnected),
            }
        }
    }

    /// Collects fresh per-chare load measurements from every PE (and
    /// resets the accumulators).
    fn collect_stats(&self) -> Vec<ChareStat> {
        let n = self.num_pes();
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let ok = self
                .shared
                .router
                .send(PeId(i as u32), PeMsg::CollectStats { reply: tx.clone() });
            assert!(ok, "stats request to pe{i} failed");
        }
        drop(tx);
        let mut all = Vec::with_capacity(self.shared.location.len());
        for _ in 0..n {
            all.extend(rx.recv().expect("stats reply"));
        }
        all
    }

    /// Executes the migrations implied by `assignment` (every chare
    /// whose assigned PE differs from its current one): extract packed
    /// state at the sources, update the directory, install at the
    /// destinations. Packed state travels as [`Bytes`] end to end — the
    /// reply channel, the directory update and the install message all
    /// share one buffer per chare.
    fn migrate_to(&mut self, stats: &[ChareStat], assignment: &HashMap<ChareId, PeId>) -> LbReport {
        let started = Instant::now();
        // Plan moves. Sources/destinations are bounded by the PE count
        // and moves by the chare count — size the maps up front so the
        // hot path never rehashes.
        let num_pes = self.num_pes();
        let mut by_source: HashMap<PeId, Vec<ChareId>> = HashMap::with_capacity(num_pes);
        let mut dest_of: HashMap<ChareId, PeId> = HashMap::with_capacity(stats.len());
        for s in stats {
            let dest = assignment[&s.id];
            if dest != s.pe {
                by_source.entry(s.pe).or_default().push(s.id);
                dest_of.insert(s.id, dest);
            }
        }
        let migrated: usize = dest_of.len();

        // Phase 1: extract packed state from the sources.
        let (tx, rx) = mpsc::channel();
        let sources = by_source.len();
        for (pe, ids) in by_source {
            let ok = self.shared.router.send(
                pe,
                PeMsg::ExtractChares {
                    ids,
                    reply: tx.clone(),
                },
            );
            assert!(ok, "extract request to {pe} failed");
        }
        drop(tx);
        let mut bytes_moved = 0usize;
        let mut by_dest: HashMap<PeId, Vec<(ChareId, Bytes)>> = HashMap::with_capacity(num_pes);
        for _ in 0..sources {
            for (id, bytes) in rx.recv().expect("extract reply") {
                bytes_moved += bytes.len();
                by_dest.entry(dest_of[&id]).or_default().push((id, bytes));
            }
        }

        // Phase 2: update the directory, then install at destinations.
        for (&id, &pe) in &dest_of {
            self.shared.location.update(id, pe);
        }
        let (ack_tx, ack_rx) = mpsc::channel();
        let dests = by_dest.len();
        for (pe, chares) in by_dest {
            let ok = self.shared.router.send(
                pe,
                PeMsg::InstallPacked {
                    chares,
                    ack: ack_tx.clone(),
                },
            );
            assert!(ok, "install request to {pe} failed");
        }
        drop(ack_tx);
        for _ in 0..dests {
            ack_rx.recv().expect("install ack");
        }

        (self.shared.migrations).fetch_add(migrated as u64, Ordering::Relaxed);
        LbReport {
            migrated,
            bytes: bytes_moved,
            duration: Duration::from_secs(started.elapsed().as_secs_f64()),
        }
    }

    /// Runs one load-balance step: measure → assign → migrate.
    ///
    /// Chares on PEs in `evacuate` are guaranteed to move off them.
    /// Must be called at a sync boundary (no application messages or
    /// reduction epochs in flight).
    pub fn run_lb(&mut self, strategy: &dyn LbStrategy, evacuate: &HashSet<PeId>) -> LbReport {
        self.lb_step(evacuate, |stats, num_pes| {
            strategy.assign(stats, num_pes, evacuate)
        })
    }

    /// The shared measure → assign → validate → migrate sequence, timed
    /// as one step. `evacuate` is the validation constraint; `assign`
    /// produces the placement (a strategy's full, evacuation or
    /// expansion assignment).
    fn lb_step<F>(&mut self, evacuate: &HashSet<PeId>, assign: F) -> LbReport
    where
        F: FnOnce(&[ChareStat], usize) -> HashMap<ChareId, PeId>,
    {
        let started = Instant::now();
        let num_pes = self.num_pes();
        let stats = self.collect_stats();
        let assignment = assign(&stats, num_pes);
        validate_assignment(&assignment, &stats, num_pes, evacuate);
        let report = self.migrate_to(&stats, &assignment);
        LbReport {
            duration: Duration::from_secs(started.elapsed().as_secs_f64()),
            ..report
        }
    }

    /// Serializes every chare into the in-memory checkpoint store
    /// (performed concurrently by all PEs).
    pub fn checkpoint(&mut self) -> CkptReport {
        let started = Instant::now();
        self.shared.ckpt.clear();
        let n = self.num_pes();
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let ok = self
                .shared
                .router
                .send(PeId(i as u32), PeMsg::Checkpoint { reply: tx.clone() });
            assert!(ok, "checkpoint request to pe{i} failed");
        }
        drop(tx);
        let mut chares = 0usize;
        let mut bytes = 0usize;
        for _ in 0..n {
            let (c, b) = rx.recv().expect("checkpoint reply");
            chares += c;
            bytes += b;
        }
        self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
        CkptReport {
            chares,
            bytes,
            duration: Duration::from_secs(started.elapsed().as_secs_f64()),
        }
    }

    /// Stops all PE threads and relaunches `new_pes` of them — the
    /// runtime-restart leg of the rescale protocol. Location state is
    /// cleared; chare state must be restored from the checkpoint store.
    fn restart(&mut self, new_pes: usize) -> Duration {
        let started = Instant::now();
        self.stop_pes();
        self.shared.location.clear();
        self.spawn_pes(new_pes, true);
        Duration::from_secs(started.elapsed().as_secs_f64())
    }

    /// Restores every checkpointed chare onto the PE recorded at
    /// checkpoint time (deserialization runs on the PE threads).
    fn restore(&mut self) -> (usize, Duration) {
        let started = Instant::now();
        let entries = self.shared.ckpt.take();
        let count = entries.len();
        let num_pes = self.num_pes();
        let mut by_pe: HashMap<PeId, Vec<(ChareId, Bytes)>> = HashMap::with_capacity(num_pes);
        for (id, entry) in entries {
            assert!(
                entry.pe.as_usize() < num_pes,
                "restore mapping references dead {} (have {num_pes} PEs)",
                entry.pe
            );
            self.shared.location.update(id, entry.pe);
            by_pe.entry(entry.pe).or_default().push((id, entry.data));
        }
        let (ack_tx, ack_rx) = mpsc::channel();
        let batches = by_pe.len();
        for (pe, chares) in by_pe {
            let ok = self.shared.router.send(
                pe,
                PeMsg::InstallPacked {
                    chares,
                    ack: ack_tx.clone(),
                },
            );
            assert!(ok, "restore install to {pe} failed");
        }
        drop(ack_tx);
        for _ in 0..batches {
            ack_rx.recv().expect("restore ack");
        }
        (count, Duration::from_secs(started.elapsed().as_secs_f64()))
    }

    /// Rescales the PE pool to `new_pes` in place
    /// ([`RescaleMode::Incremental`]), reporting per-stage timings.
    ///
    /// Must be called at a sync boundary.
    pub fn rescale(&mut self, new_pes: usize, lb: &dyn LbStrategy) -> RescaleReport {
        self.rescale_with_mode(new_pes, lb, RescaleMode::Incremental)
    }

    /// Rescales with an explicit protocol — the Fig. 5/6 reproductions
    /// and the full-vs-incremental equivalence tests pick
    /// [`RescaleMode::FullRestart`] here.
    pub fn rescale_with_mode(
        &mut self,
        new_pes: usize,
        lb: &dyn LbStrategy,
        mode: RescaleMode,
    ) -> RescaleReport {
        assert!(new_pes >= 1, "cannot rescale to zero PEs");
        let old = self.num_pes();
        if new_pes == old {
            let mut report = RescaleReport::noop(old);
            report.mode = mode;
            return report;
        }
        match mode {
            RescaleMode::Incremental => self.rescale_incremental(new_pes, lb),
            RescaleMode::FullRestart => self.rescale_full_restart(new_pes, lb),
        }
    }

    /// The paper's checkpoint/restart protocol: every chare serializes,
    /// the whole PE pool restarts, everything restores.
    fn rescale_full_restart(&mut self, new_pes: usize, lb: &dyn LbStrategy) -> RescaleReport {
        let old = self.num_pes();
        let chare_total = self.shared.location.len();
        let mut stages = StageTimings::default();
        let mut migrated = 0usize;
        let mut bytes_moved = 0usize;
        let kind = if new_pes < old {
            // Shrink: evacuate dying PEs, checkpoint, restart, restore.
            let evacuate: HashSet<PeId> = (new_pes..old).map(|i| PeId(i as u32)).collect();
            let lbr = self.run_lb(lb, &evacuate);
            stages.lb = lbr.duration;
            migrated = lbr.migrated;
            bytes_moved = lbr.bytes;
            RescaleKind::Shrink
        } else {
            RescaleKind::Expand
        };
        let ck = self.checkpoint();
        stages.checkpoint = ck.duration;
        assert_eq!(
            ck.chares, chare_total,
            "checkpoint missed chares: {} of {chare_total}",
            ck.chares
        );
        stages.restart = self.restart(new_pes);
        let (restored, restore_t) = self.restore();
        stages.restore = restore_t;
        assert_eq!(restored, chare_total, "restore lost chares");
        if kind == RescaleKind::Expand {
            // Spread onto the new PEs.
            let lbr = self.run_lb(lb, &HashSet::new());
            stages.lb = lbr.duration;
            migrated = lbr.migrated;
            bytes_moved = lbr.bytes;
        }
        RescaleReport {
            kind,
            mode: RescaleMode::FullRestart,
            from_pes: old,
            to_pes: new_pes,
            stages,
            migrated,
            bytes_moved,
            checkpoint_bytes: ck.bytes,
        }
    }

    /// The in-place protocol: resize the live pool, move only what must
    /// move. No checkpoint, no restore, no surviving-thread teardown.
    fn rescale_incremental(&mut self, new_pes: usize, lb: &dyn LbStrategy) -> RescaleReport {
        let old = self.num_pes();
        let mut stages = StageTimings::default();
        let (kind, lbr) = if new_pes < old {
            // Shrink: move exactly the chares on dying PEs to survivors,
            // then retire those threads and compact the router.
            let evacuate: HashSet<PeId> = (new_pes..old).map(|i| PeId(i as u32)).collect();
            let lbr = self.lb_step(&evacuate, |stats, num_pes| {
                lb.assign_evacuation(stats, num_pes, &evacuate)
            });
            stages.lb = lbr.duration;

            let retire_started = Instant::now();
            let stranded = self.shared.location.count_at_or_above(new_pes);
            assert_eq!(
                stranded, 0,
                "evacuation left {stranded} chares on dying PEs"
            );
            self.retire_pes(new_pes);
            stages.restart = Duration::from_secs(retire_started.elapsed().as_secs_f64());
            (RescaleKind::Shrink, lbr)
        } else {
            // Expand: spawn only the new PE threads, then move just
            // enough load onto them.
            let grow_started = Instant::now();
            self.grow_pes(new_pes);
            stages.restart = Duration::from_secs(grow_started.elapsed().as_secs_f64());

            let fresh: HashSet<PeId> = (old..new_pes).map(|i| PeId(i as u32)).collect();
            let lbr = self.lb_step(&HashSet::new(), |stats, num_pes| {
                lb.assign_expansion(stats, num_pes, &fresh)
            });
            stages.lb = lbr.duration;
            (RescaleKind::Expand, lbr)
        };
        RescaleReport {
            kind,
            mode: RescaleMode::Incremental,
            from_pes: old,
            to_pes: new_pes,
            stages,
            migrated: lbr.migrated,
            bytes_moved: lbr.bytes,
            checkpoint_bytes: 0,
        }
    }

    /// Applies the most recent pending CCS rescale request, if any,
    /// acknowledging it with the report. Call at sync boundaries.
    pub fn poll_rescale(&mut self, lb: &dyn LbStrategy) -> Option<RescaleReport> {
        let req = self.ccs.take_latest()?;
        let report = self.rescale(req.target_pes, lb);
        let _ = req.reply.send(report);
        Some(report)
    }

    /// Stops all PE threads and drops the runtime. Panics with the first
    /// PE's panic if an entry method panicked (so does a rescale that
    /// retires or restarts that PE, and so does dropping the runtime).
    pub fn shutdown(mut self) {
        self.stop_pes();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.stop_pes();
    }
}

/// Joins every PE thread, then re-raises the first one's panic (an entry
/// method that panicked) on the driver thread. A driver that is already
/// unwinding — a runtime dropped mid-panic — does not re-raise: a second
/// panic would abort the process.
fn join_all(handles: impl Iterator<Item = std::thread::JoinHandle<()>>) {
    let mut first_panic = None;
    for h in handles {
        if let Err(panic) = h.join() {
            first_panic.get_or_insert(panic);
        }
    }
    if let Some(panic) = first_panic {
        if !std::thread::panicking() {
            std::panic::resume_unwind(panic);
        }
    }
}
