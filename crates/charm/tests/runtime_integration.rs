//! End-to-end tests of the charm-rt runtime: chare arrays, messaging,
//! reductions, migration, checkpoint/restart, and the shrink/expand
//! protocol — the C1 contribution of the paper.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use charm_apps::{JacobiApp, JacobiConfig};
use charm_rt::codec::{Reader, Writer};
use charm_rt::{
    Chare, ChareFactory, Ctx, GreedyLb, Index, MethodId, PeId, ReduceOp, RescaleKind, RescaleMode,
    RotateLb, Runtime, RuntimeConfig, WaitError,
};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Methods understood by the test chare.
const M_SET: MethodId = 1;
const M_ADD: MethodId = 2;
const M_CONTRIB: MethodId = 3;
const M_RELAY: MethodId = 4;
const M_TO_MAIN: MethodId = 5;
const M_SPIN: MethodId = 6;

/// A test chare carrying a vector of values plus a message counter.
struct Cell {
    values: Vec<f64>,
    messages_handled: u64,
}

impl Cell {
    fn boxed(values: Vec<f64>) -> Box<dyn Chare> {
        Box::new(Cell {
            values,
            messages_handled: 0,
        })
    }

    fn factory() -> ChareFactory {
        Arc::new(|_, r: &mut Reader<'_>| {
            let values = r.f64_vec().expect("values");
            let messages_handled = r.u64().expect("counter");
            Box::new(Cell {
                values,
                messages_handled,
            })
        })
    }
}

impl Chare for Cell {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, method: MethodId, data: &[u8]) {
        self.messages_handled += 1;
        let mut r = Reader::new(data);
        match method {
            M_SET => self.values = r.f64_vec().unwrap(),
            M_ADD => {
                let delta = r.f64().unwrap();
                for v in &mut self.values {
                    *v += delta;
                }
            }
            M_CONTRIB => {
                let seq = r.u64().unwrap();
                let sum: f64 = self.values.iter().sum();
                ctx.contribute(seq, ReduceOp::Sum, &[sum, 1.0]);
            }
            M_RELAY => {
                // Payload: remaining hop indices; deliver M_ADD(1.0) to
                // self then forward the rest to the next hop.
                let hops = r.u64_vec().unwrap();
                for v in &mut self.values {
                    *v += 1.0;
                }
                if let Some((&next, rest)) = hops.split_first() {
                    let mut w = Writer::new();
                    w.u64_slice(rest);
                    ctx.send(Index::d1(next), M_RELAY, w.finish());
                } else {
                    ctx.send_main(7, Bytes::new());
                }
            }
            M_TO_MAIN => {
                let tag = r.u64().unwrap();
                let mut w = Writer::new();
                w.f64_slice(&self.values);
                ctx.send_main(tag, w.finish());
            }
            M_SPIN => {
                // Busy work proportional to payload, to generate load.
                let iters = r.u64().unwrap();
                let mut acc = 0.0f64;
                for i in 0..iters {
                    acc += (i as f64).sqrt();
                }
                if !self.values.is_empty() {
                    self.values[0] += acc * 1e-18;
                }
                ctx.contribute(999, ReduceOp::Sum, &[1.0]);
            }
            other => panic!("unknown method {other}"),
        }
    }

    fn pack(&self, w: &mut Writer) {
        w.f64_slice(&self.values);
        w.u64(self.messages_handled);
    }
}

fn make_runtime(pes: usize, n_cells: u64) -> (Runtime, charm_rt::ArrayId) {
    let mut rt = Runtime::new(RuntimeConfig::new(pes));
    let elements: Vec<(Index, Box<dyn Chare>)> = (0..n_cells)
        .map(|i| (Index::d1(i), Cell::boxed(vec![i as f64])))
        .collect();
    let arr = rt.create_array("cells", Cell::factory(), elements);
    (rt, arr)
}

fn contribute_msg(seq: u64) -> Bytes {
    let mut w = Writer::new();
    w.u64(seq);
    w.finish()
}

/// Sum over i of i = n(n-1)/2 plus any per-element delta.
fn expected_sum(n: u64, delta: f64) -> f64 {
    (n * (n - 1) / 2) as f64 + delta * n as f64
}

#[test]
fn broadcast_and_reduce() {
    let (mut rt, arr) = make_runtime(4, 32);
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert_eq!(red.seq, 0);
    assert_eq!(red.vals[1], 32.0, "every element contributed once");
    assert!((red.vals[0] - expected_sum(32, 0.0)).abs() < 1e-9);
    rt.shutdown();
}

#[test]
fn multiple_reduction_epochs_in_order() {
    let (mut rt, arr) = make_runtime(3, 12);
    for seq in 0..5 {
        rt.broadcast(arr, M_CONTRIB, contribute_msg(seq));
        let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
        assert_eq!(red.seq, seq);
        assert_eq!(red.vals[1], 12.0);
    }
    rt.shutdown();
}

#[test]
fn point_to_point_sends_mutate_only_target() {
    let (mut rt, arr) = make_runtime(2, 4);
    let mut w = Writer::new();
    w.f64(100.0);
    rt.send(charm_rt::ChareId::new(arr, Index::d1(2)), M_ADD, w.finish());
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!((red.vals[0] - (expected_sum(4, 0.0) + 100.0)).abs() < 1e-9);
    rt.shutdown();
}

#[test]
fn relay_chain_crosses_pes() {
    // A message hops through every element across PEs, then pings main.
    let (mut rt, arr) = make_runtime(4, 16);
    let hops: Vec<u64> = (1..16).collect();
    let mut w = Writer::new();
    w.u64_slice(&hops);
    rt.send(
        charm_rt::ChareId::new(arr, Index::d1(0)),
        M_RELAY,
        w.finish(),
    );
    let ev = rt.recv_main(TIMEOUT).unwrap();
    match ev {
        charm_rt::MainEvent::ToMain { tag, .. } => assert_eq!(tag, 7),
        other => panic!("unexpected event {other:?}"),
    }
    // Each element got +1 exactly once.
    rt.broadcast(arr, M_CONTRIB, contribute_msg(1));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!((red.vals[0] - expected_sum(16, 1.0)).abs() < 1e-9);
    rt.shutdown();
}

#[test]
fn initial_placement_is_block_mapped_and_balanced() {
    let (rt, _arr) = make_runtime(4, 16);
    let occ = rt.occupancy();
    assert_eq!(occ, vec![4, 4, 4, 4]);
    rt.shutdown();
}

#[test]
fn rotate_lb_migrates_everything_and_preserves_state() {
    let (mut rt, arr) = make_runtime(4, 16);
    let before = rt.occupancy();
    let report = rt.run_lb(&RotateLb, &HashSet::new());
    assert_eq!(report.migrated, 16, "rotate moves every chare");
    let after = rt.occupancy();
    assert_eq!(
        before.iter().sum::<usize>(),
        after.iter().sum::<usize>(),
        "no chares lost"
    );
    // State intact after pack/transfer/unpack.
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!((red.vals[0] - expected_sum(16, 0.0)).abs() < 1e-9);
    assert_eq!(red.vals[1], 16.0);
    assert_eq!(rt.stats().migrations(), 16);
    rt.shutdown();
}

#[test]
fn greedy_lb_balances_measured_hotspot() {
    let (mut rt, arr) = make_runtime(4, 8);
    // Generate real measured load: heavy spin on low-index chares.
    for i in 0..8u64 {
        let mut w = Writer::new();
        w.u64(if i < 2 { 3_000_000 } else { 1_000 });
        rt.send(
            charm_rt::ChareId::new(arr, Index::d1(i)),
            M_SPIN,
            w.finish(),
        );
    }
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert_eq!(red.vals[0], 8.0);
    let report = rt.run_lb(&GreedyLb, &HashSet::new());
    // The two hot chares must not share a PE afterwards.
    let occ = rt.occupancy();
    assert_eq!(occ.iter().sum::<usize>(), 8);
    assert!(report.duration.as_secs() >= 0.0);
    rt.shutdown();
}

#[test]
fn evacuation_empties_the_selected_pes() {
    let (mut rt, _arr) = make_runtime(4, 16);
    let evac: HashSet<PeId> = [PeId(2), PeId(3)].into_iter().collect();
    rt.run_lb(&GreedyLb, &evac);
    let occ = rt.occupancy();
    assert_eq!(occ[2], 0);
    assert_eq!(occ[3], 0);
    assert_eq!(occ[0] + occ[1], 16);
    rt.shutdown();
}

#[test]
fn checkpoint_counts_all_chares_and_bytes() {
    let (mut rt, _arr) = make_runtime(3, 10);
    let report = rt.checkpoint();
    assert_eq!(report.chares, 10);
    // Each Cell packs >= one f64 vec (8 len + 8 value) + u64 counter.
    assert!(report.bytes >= 10 * 24, "bytes = {}", report.bytes);
    rt.shutdown();
}

#[test]
fn shrink_preserves_state_and_empties_dead_pes() {
    // Both protocols must preserve state; the full-restart one
    // checkpoints everything, the incremental one serializes only the
    // evacuated chares.
    for mode in [RescaleMode::Incremental, RescaleMode::FullRestart] {
        let (mut rt, arr) = make_runtime(4, 16);
        let report = rt.rescale_with_mode(2, &GreedyLb, mode);
        assert_eq!(report.kind, RescaleKind::Shrink);
        assert_eq!(report.mode, mode);
        assert_eq!(report.from_pes, 4);
        assert_eq!(report.to_pes, 2);
        match mode {
            RescaleMode::FullRestart => assert!(report.checkpoint_bytes > 0),
            RescaleMode::Incremental => {
                assert_eq!(report.checkpoint_bytes, 0);
                assert_eq!(report.migrated, 8, "the two dying PEs' chares");
            }
        }
        assert_eq!(rt.num_pes(), 2);
        let occ = rt.occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ.iter().sum::<usize>(), 16);
        // All state survived the protocol.
        rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
        let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
        assert!((red.vals[0] - expected_sum(16, 0.0)).abs() < 1e-9);
        assert_eq!(red.vals[1], 16.0);
        rt.shutdown();
    }
}

#[test]
fn incremental_shrink_moves_only_evacuated_state() {
    let (mut rt, _arr) = make_runtime(4, 16);
    // Block-mapped: 4 chares per PE; shrinking 4 -> 3 must migrate
    // exactly PE3's 4 chares.
    let report = rt.rescale(3, &GreedyLb);
    assert_eq!(report.mode, RescaleMode::Incremental);
    assert_eq!(report.migrated, 4, "moved {} chares", report.migrated);
    assert_eq!(rt.occupancy().iter().sum::<usize>(), 16);
    rt.shutdown();
}

/// Rescale work by count, at the `rescale_latency` bench's Jacobi
/// config (256 blocks of 16x16 cells): an incremental halving shrink
/// serializes exactly the dying PEs' chares whatever the PE count, and
/// an incremental expand moves less than the full-restart checkpoint.
#[test]
fn incremental_rescale_moves_bytes_proportional_to_the_pes_that_change() {
    let cfg = JacobiConfig::new(256, 16, 16);
    for pes in [8, 64] {
        let mut app = JacobiApp::new(cfg, RuntimeConfig::new(pes));
        app.run_window(2).expect("warmup window");
        let checkpoint = app.driver.rt.checkpoint();
        assert_eq!((checkpoint.chares, checkpoint.bytes), (256, 679_936));

        let shrink = app.driver.rt.rescale(pes / 2, &GreedyLb);
        assert_eq!(shrink.mode, RescaleMode::Incremental);
        assert_eq!(
            (shrink.migrated, shrink.bytes_moved, shrink.checkpoint_bytes),
            (128, 339_968, 0),
            "halving {pes} PEs"
        );

        // Which chares greedy pulls onto the fresh PEs follows the
        // measured loads, so only the bound is exact.
        app.run_window(2).expect("window on the shrunk pool");
        let expand = app.driver.rt.rescale(pes, &GreedyLb);
        assert_eq!(expand.mode, RescaleMode::Incremental);
        assert!(
            expand.bytes_moved > 0 && expand.bytes_moved < checkpoint.bytes,
            "expand to {pes} PEs moved {} of {} checkpoint bytes",
            expand.bytes_moved,
            checkpoint.bytes
        );
        app.shutdown();
    }
}

#[test]
fn incremental_expand_moves_proportional_to_growth() {
    let (mut rt, arr) = make_runtime(2, 16);
    // 2 -> 4 PEs: about half the chares move (8 of 16), not all of them.
    let report = rt.rescale(4, &GreedyLb);
    assert_eq!(report.mode, RescaleMode::Incremental);
    assert!(
        report.migrated <= 10,
        "expand migrated {} of 16 chares",
        report.migrated
    );
    let occ = rt.occupancy();
    assert!(occ[2] + occ[3] > 0, "fresh PEs unused: {occ:?}");
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!((red.vals[0] - expected_sum(16, 0.0)).abs() < 1e-9);
    rt.shutdown();
}

#[test]
fn repeated_incremental_rescales_preserve_all_chares() {
    let (mut rt, arr) = make_runtime(4, 8);
    rt.rescale(2, &GreedyLb);
    rt.rescale(5, &GreedyLb);
    rt.rescale(1, &GreedyLb);
    assert_eq!(rt.num_pes(), 1);
    let occ = rt.occupancy();
    assert_eq!(occ, vec![8]);
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert_eq!(red.vals[1], 8.0);
    rt.shutdown();
}

#[test]
fn expand_spreads_chares_onto_new_pes() {
    let (mut rt, arr) = make_runtime(2, 16);
    let report = rt.rescale(4, &GreedyLb);
    assert_eq!(report.kind, RescaleKind::Expand);
    assert_eq!(rt.num_pes(), 4);
    let occ = rt.occupancy();
    assert_eq!(occ.iter().sum::<usize>(), 16);
    // Expand's trailing LB must actually use the new PEs.
    assert!(occ[2] + occ[3] > 0, "new PEs unused after expand: {occ:?}");
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!((red.vals[0] - expected_sum(16, 0.0)).abs() < 1e-9);
    rt.shutdown();
}

#[test]
fn shrink_then_expand_round_trip_is_lossless() {
    let (mut rt, arr) = make_runtime(4, 24);
    // Mutate state, shrink, mutate again, expand, verify exact sum.
    let mut w = Writer::new();
    w.f64(0.5);
    rt.broadcast(arr, M_ADD, w.finish());
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    rt.wait_reduction(arr, TIMEOUT).unwrap();

    rt.rescale(2, &GreedyLb);
    let mut w = Writer::new();
    w.f64(0.25);
    rt.broadcast(arr, M_ADD, w.finish());
    rt.broadcast(arr, M_CONTRIB, contribute_msg(1));
    let mid = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!((mid.vals[0] - expected_sum(24, 0.75)).abs() < 1e-9);

    rt.rescale(6, &GreedyLb);
    rt.broadcast(arr, M_CONTRIB, contribute_msg(2));
    let fin = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!((fin.vals[0] - expected_sum(24, 0.75)).abs() < 1e-9);
    assert_eq!(fin.vals[1], 24.0);
    assert_eq!(rt.num_pes(), 6);
    rt.shutdown();
}

#[test]
fn rescale_to_same_size_is_noop() {
    let (mut rt, _arr) = make_runtime(3, 6);
    let report = rt.rescale(3, &GreedyLb);
    assert_eq!(report.kind, RescaleKind::NoOp);
    assert_eq!(report.total(), hpc_metrics::Duration::ZERO);
    rt.shutdown();
}

#[test]
fn full_restart_stage_timings_are_populated() {
    let (mut rt, _arr) = make_runtime(4, 16);
    let report = rt.rescale_with_mode(2, &GreedyLb, RescaleMode::FullRestart);
    // All four stages must have run (strictly positive wall time).
    assert!(report.stages.lb.as_secs() > 0.0);
    assert!(report.stages.checkpoint.as_secs() > 0.0);
    assert!(report.stages.restart.as_secs() > 0.0);
    assert!(report.stages.restore.as_secs() > 0.0);
    assert!(
        (report.total()
            - report.stages.lb
            - report.stages.checkpoint
            - report.stages.restart
            - report.stages.restore)
            .as_secs()
            .abs()
            < 1e-12
    );
    rt.shutdown();
}

#[test]
fn incremental_stage_timings_skip_checkpoint_and_restore() {
    let (mut rt, _arr) = make_runtime(4, 16);
    let report = rt.rescale(2, &GreedyLb);
    assert!(report.stages.lb.as_secs() > 0.0);
    assert!(report.stages.restart.as_secs() > 0.0);
    assert_eq!(report.stages.checkpoint.as_secs(), 0.0);
    assert_eq!(report.stages.restore.as_secs(), 0.0);
    rt.shutdown();
}

#[test]
fn startup_delay_surrogate_charges_restart() {
    let cfg = RuntimeConfig::new(2).with_startup_delay(std::time::Duration::from_millis(10));
    let mut rt = Runtime::new(cfg);
    let elements: Vec<(Index, Box<dyn Chare>)> = (0..4)
        .map(|i| (Index::d1(i), Cell::boxed(vec![0.0])))
        .collect();
    let _arr = rt.create_array("cells", Cell::factory(), elements);
    let report = rt.rescale_with_mode(4, &GreedyLb, RescaleMode::FullRestart);
    // Restart must include >= 4 * 10ms of sequential MPI-startup time.
    assert!(
        report.stages.restart.as_secs() >= 0.040,
        "restart {} too fast",
        report.stages.restart
    );
    rt.shutdown();
}

#[test]
fn incremental_expand_charges_parallel_startup_once() {
    // Relative comparison (robust on loaded CI hosts): with a 40 ms
    // surrogate, a full-restart expand to 4 PEs pays 4 sequential
    // delays (>= 160 ms) while the incremental expand pays one
    // parallel round — it must charge the surrogate but stay well
    // under the full-restart cost.
    let mk = || {
        let cfg = RuntimeConfig::new(2).with_startup_delay(std::time::Duration::from_millis(40));
        let mut rt = Runtime::new(cfg);
        let elements: Vec<(Index, Box<dyn Chare>)> = (0..4)
            .map(|i| (Index::d1(i), Cell::boxed(vec![0.0])))
            .collect();
        let _arr = rt.create_array("cells", Cell::factory(), elements);
        rt
    };
    let mut rt = mk();
    let full = rt.rescale_with_mode(4, &GreedyLb, RescaleMode::FullRestart);
    rt.shutdown();
    let mut rt = mk();
    let inc = rt.rescale_with_mode(4, &GreedyLb, RescaleMode::Incremental);
    rt.shutdown();
    let (f, i) = (full.stages.restart.as_secs(), inc.stages.restart.as_secs());
    assert!(i >= 0.040, "incremental restart {i} skipped the surrogate");
    assert!(f >= 0.160, "full restart {f} skipped the per-PE surrogate");
    assert!(
        i < f / 2.0,
        "incremental restart {i} not clearly cheaper than full {f}"
    );
}

#[test]
fn incremental_shrink_charges_no_startup() {
    // The shrink retire path launches nothing, so even with a large
    // surrogate its restart stage must stay far below one delay —
    // compare against the surrogate itself rather than a tight
    // absolute bound.
    let cfg = RuntimeConfig::new(4).with_startup_delay(std::time::Duration::from_millis(200));
    let mut rt = Runtime::new(cfg);
    let elements: Vec<(Index, Box<dyn Chare>)> = (0..8)
        .map(|i| (Index::d1(i), Cell::boxed(vec![0.0])))
        .collect();
    let _arr = rt.create_array("cells", Cell::factory(), elements);
    let report = rt.rescale(2, &GreedyLb);
    assert!(
        report.stages.restart.as_secs() < 0.200,
        "shrink restart {} paid a launch surrogate",
        report.stages.restart
    );
    rt.shutdown();
}

#[test]
fn ccs_rescale_request_applied_at_boundary() {
    let (mut rt, arr) = make_runtime(4, 16);
    let client = rt.ccs_client();
    let ack = client.request_rescale(2);
    // Signal is pending; nothing happens until the driver polls.
    assert_eq!(rt.num_pes(), 4);
    let report = rt.poll_rescale(&GreedyLb).expect("pending request");
    assert_eq!(report.to_pes, 2);
    assert_eq!(rt.num_pes(), 2);
    let acked = ack.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(acked.to_pes, 2);
    // Application continues correctly.
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    assert!(rt.wait_reduction(arr, TIMEOUT).is_ok());
    rt.shutdown();
}

#[test]
fn ccs_burst_collapses_to_latest_target() {
    let (mut rt, _arr) = make_runtime(4, 8);
    let client = rt.ccs_client();
    let _a1 = client.request_rescale(2);
    let _a2 = client.request_rescale(3);
    let report = rt.poll_rescale(&GreedyLb).unwrap();
    assert_eq!(report.to_pes, 3);
    assert!(rt.poll_rescale(&GreedyLb).is_none(), "burst fully drained");
    rt.shutdown();
}

#[test]
fn poll_rescale_without_request_is_none() {
    let (mut rt, _arr) = make_runtime(2, 4);
    assert!(rt.poll_rescale(&GreedyLb).is_none());
    rt.shutdown();
}

#[test]
fn wait_reduction_times_out_cleanly() {
    let (mut rt, arr) = make_runtime(2, 4);
    let err = rt
        .wait_reduction(arr, Duration::from_millis(50))
        .unwrap_err();
    assert_eq!(err, WaitError::Timeout);
    rt.shutdown();
}

#[test]
fn message_counter_survives_migration_and_rescale() {
    // `messages_handled` is part of packed state: verify it is carried
    // through migration and checkpoint/restart exactly.
    let (mut rt, arr) = make_runtime(4, 8);
    for _ in 0..3 {
        let mut w = Writer::new();
        w.f64(0.0);
        rt.broadcast(arr, M_ADD, w.finish());
    }
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    rt.wait_reduction(arr, TIMEOUT).unwrap();
    rt.run_lb(&RotateLb, &HashSet::new());
    rt.rescale(2, &GreedyLb);
    // Ask one chare to report its state; counter must be 3 ADDs +
    // 1 CONTRIB (+0 from this request, counted after send).
    let mut w = Writer::new();
    w.u64(42);
    rt.send(
        charm_rt::ChareId::new(arr, Index::d1(5)),
        M_TO_MAIN,
        w.finish(),
    );
    match rt.recv_main(TIMEOUT).unwrap() {
        charm_rt::MainEvent::ToMain { tag, data, .. } => {
            assert_eq!(tag, 42);
            let mut r = Reader::new(&data);
            let vals = r.f64_vec().unwrap();
            assert_eq!(vals, vec![5.0]);
        }
        other => panic!("unexpected {other:?}"),
    }
    rt.shutdown();
}

#[test]
fn single_pe_runtime_works() {
    let (mut rt, arr) = make_runtime(1, 4);
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    let red = rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert_eq!(red.vals[1], 4.0);
    // Expanding from 1 PE is the cold-start elastic case.
    rt.rescale(3, &GreedyLb);
    rt.broadcast(arr, M_CONTRIB, contribute_msg(1));
    assert!(rt.wait_reduction(arr, TIMEOUT).is_ok());
    rt.shutdown();
}

#[test]
fn stats_counters_track_traffic() {
    let (mut rt, arr) = make_runtime(2, 4);
    rt.broadcast(arr, M_CONTRIB, contribute_msg(0));
    rt.wait_reduction(arr, TIMEOUT).unwrap();
    assert!(rt.stats().messages() >= 4);
    rt.checkpoint();
    assert_eq!(rt.stats().checkpoints(), 1);
    rt.shutdown();
}

#[test]
fn two_arrays_coexist_independently() {
    let mut rt = Runtime::new(RuntimeConfig::new(3));
    let a: Vec<(Index, Box<dyn Chare>)> = (0..6)
        .map(|i| (Index::d1(i), Cell::boxed(vec![1.0])))
        .collect();
    let b: Vec<(Index, Box<dyn Chare>)> = (0..9)
        .map(|i| (Index::d1(i), Cell::boxed(vec![2.0])))
        .collect();
    let arr_a = rt.create_array("a", Cell::factory(), a);
    let arr_b = rt.create_array("b", Cell::factory(), b);
    rt.broadcast(arr_a, M_CONTRIB, contribute_msg(0));
    rt.broadcast(arr_b, M_CONTRIB, contribute_msg(0));
    let ra = rt.wait_reduction(arr_a, TIMEOUT).unwrap();
    let rb = rt.wait_reduction(arr_b, TIMEOUT).unwrap();
    assert_eq!(ra.vals[1], 6.0);
    assert_eq!(rb.vals[1], 9.0);
    assert!((ra.vals[0] - 6.0).abs() < 1e-9);
    assert!((rb.vals[0] - 18.0).abs() < 1e-9);
    // Rescale with two arrays: both survive.
    rt.rescale(2, &GreedyLb);
    rt.broadcast(arr_a, M_CONTRIB, contribute_msg(1));
    rt.broadcast(arr_b, M_CONTRIB, contribute_msg(1));
    assert!(rt.wait_reduction(arr_a, TIMEOUT).is_ok());
    assert!(rt.wait_reduction(arr_b, TIMEOUT).is_ok());
    rt.shutdown();
}
