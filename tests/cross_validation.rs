//! Operator-vs-simulator cross-validation.
//!
//! Table 1's credibility rests on the Actual and Simulation columns
//! agreeing in shape. Here we make that a test: the same 16-job
//! generated workload, one job every 90 s (45 s for the rescale count),
//! runs on the paper's 64-slot testbed under each of the four policy
//! variants and the simulator's calibrated scaling and overhead models,
//! in the live operator on a virtual clock and in the discrete-event
//! simulator, and the resulting metrics must agree closely. The
//! overhead model puts rescale windows off the operator's 1 s tick grid,
//! so the agreement is within tolerances, not bit for bit. The policy
//! code is shared by construction; this validates that the *engines*
//! around it agree. Beside it: the incremental and full-restart rescale
//! protocols of the runtime itself, held to the same Jacobi state.

use std::collections::HashMap;

use elastic_hpc::core::{Policy, PolicyConfig, PolicyKind, RunMetrics};
use elastic_hpc::metrics::Duration;
use elastic_hpc::scenario::{run, Engine, Scenario};
use elastic_hpc::sim::{generate_workload, OverheadModel};

/// The paper's testbed replaying `seed`'s 16 jobs, one every
/// `submission_gap` seconds, under `kind` and the calibrated models.
fn testbed(kind: PolicyKind, seed: u64, submission_gap: f64) -> Scenario {
    let workload = generate_workload(seed, 16).spaced_every(Duration::from_secs(submission_gap));
    let policy = move || {
        let cfg = PolicyConfig {
            rescale_gap: Duration::from_secs(180.0),
            launcher_slots: 1,
            shrink_spares_head: true,
        };
        Policy::of_kind(kind, cfg)
    };
    Scenario::new(workload, 64, policy)
        .with_overhead(OverheadModel::default())
        .with_horizon(Duration::from_secs(200_000.0))
}

/// The testbed's metrics on the operator and on the DES.
fn engines(kind: PolicyKind, seed: u64, submission_gap: f64) -> (RunMetrics, RunMetrics) {
    let scenario = testbed(kind, seed, submission_gap);
    (
        run(&scenario, Engine::Operator),
        run(&scenario, Engine::Des),
    )
}

fn assert_close(label: &str, a: f64, b: f64, rel_tol: f64, abs_tol: f64) {
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        diff <= abs_tol || diff / scale <= rel_tol,
        "{label}: operator {a:.2} vs sim {b:.2} (diff {diff:.2})"
    );
}

#[test]
fn engines_agree_for_all_policies() {
    for kind in PolicyKind::ALL {
        let (op, sim) = engines(kind, 0, 90.0);
        // The operator quantizes to 1 s ticks and rescales over a
        // handful of reconcile rounds, so exact equality is impossible;
        // agreement must be tight nonetheless.
        assert_close(
            &format!("{kind} total_time"),
            op.total_time,
            sim.total_time,
            0.10,
            30.0,
        );
        assert_close(
            &format!("{kind} utilization"),
            op.utilization,
            sim.utilization,
            0.12,
            0.05,
        );
        assert_close(
            &format!("{kind} weighted_completion"),
            op.weighted_completion,
            sim.weighted_completion,
            0.15,
            40.0,
        );
    }
}

#[test]
fn engines_agree_on_policy_ordering() {
    // The *ordering* claims of Table 1 must hold identically in both
    // engines: elastic has the best utilization and total time.
    let mut op_util = HashMap::new();
    let mut sim_util = HashMap::new();
    for kind in PolicyKind::ALL {
        let (op, sim) = engines(kind, 7, 90.0);
        op_util.insert(kind, op.utilization);
        sim_util.insert(kind, sim.utilization);
    }
    for table in [&op_util, &sim_util] {
        assert!(
            PolicyKind::ALL
                .iter()
                .all(|k| table[&PolicyKind::Elastic] >= table[k] - 1e-9),
            "elastic should lead utilization: {table:?}"
        );
        assert!(
            PolicyKind::ALL
                .iter()
                .all(|k| table[&PolicyKind::RigidMin] <= table[k] + 1e-9),
            "rigid-min should trail utilization: {table:?}"
        );
    }
}

/// The incremental in-place rescale must be *observationally identical*
/// to the paper's checkpoint/restart protocol: same chare state
/// bit-for-bit, same residuals, and a consistent location directory,
/// through a shrink and an expand at different window boundaries.
#[test]
fn incremental_and_full_restart_rescales_are_equivalent() {
    use elastic_hpc::apps::{JacobiApp, JacobiConfig};
    use elastic_hpc::charm::{GreedyLb, RescaleMode, RuntimeConfig};

    let cfg = JacobiConfig::new(48, 4, 4);
    let blocks = cfg.num_blocks() as usize;
    let mk = || JacobiApp::new(cfg, RuntimeConfig::new(3));
    let mut inc = mk();
    let mut full = mk();

    // (window length, rescale target after the window; 0 = none)
    let schedule = [(3u64, 2usize), (4, 5), (5, 0)];
    for (iters, target) in schedule {
        let r_inc = inc.run_window(iters).expect("incremental window");
        let r_full = full.run_window(iters).expect("full-restart window");
        // Residuals agree bit-for-bit: rescale never perturbed math.
        assert_eq!(
            r_inc.values[0].to_bits(),
            r_full.values[0].to_bits(),
            "residual diverged at window ending {}",
            r_inc.end_iter
        );
        if target > 0 {
            let a = inc
                .driver
                .rt
                .rescale_with_mode(target, &GreedyLb, RescaleMode::Incremental);
            let b = full
                .driver
                .rt
                .rescale_with_mode(target, &GreedyLb, RescaleMode::FullRestart);
            assert_eq!(a.to_pes, b.to_pes);
            assert_eq!(inc.driver.num_pes(), target);
            assert_eq!(full.driver.num_pes(), target);
            // Location-manager consistency: every chare accounted for,
            // nothing stranded beyond the new PE count.
            for app in [&inc, &full] {
                let occ = app.driver.rt.occupancy();
                assert_eq!(occ.len(), target);
                assert_eq!(occ.iter().sum::<usize>(), blocks);
            }
        }
        // Checksums agree bit-for-bit after every phase.
        let ci = inc.checksum().expect("inc checksum");
        let cf = full.checksum().expect("full checksum");
        assert_eq!(ci.to_bits(), cf.to_bits(), "checksum diverged");
    }

    // Full grids agree bit-for-bit with each other...
    let gi = inc.gather_grid().expect("inc grid");
    let gf = full.gather_grid().expect("full grid");
    assert_eq!(gi.len(), gf.len());
    for (i, (a, b)) in gi.iter().zip(&gf).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cell {i} diverged");
    }
    // ...and with the serial reference, so both are *right*, not just
    // identically wrong.
    let total_iters: u64 = schedule.iter().map(|(w, _)| w).sum();
    let reference = elastic_hpc::apps::jacobi::reference_jacobi(&cfg, total_iters);
    for (i, (a, b)) in gi.iter().zip(&reference).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cell {i} diverged from reference");
    }
    inc.shutdown();
    full.shutdown();
}

#[test]
fn rescale_counts_track_between_engines() {
    let workload_seed = 3;
    let (op, sim) = engines(PolicyKind::Elastic, workload_seed, 45.0);
    // Both engines drive the same Fig. 2/3 code; rescale activity may
    // differ slightly from timing quantization but not wildly.
    let (a, b) = (f64::from(op.rescales), f64::from(sim.rescales));
    assert!(
        (a - b).abs() <= (a.max(b) * 0.5).max(3.0),
        "rescale counts diverged: operator {a} vs sim {b}"
    );
    assert!(b > 0.0, "elastic under load should rescale in sim");
}
