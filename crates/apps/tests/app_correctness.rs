//! Correctness tests for the mini-apps: the parallel, message-driven
//! solvers must agree with serial references, and — the property the
//! whole paper rests on — rescaling mid-run must not perturb the
//! computation at all.

use charm_apps::jacobi::reference_jacobi;
use charm_apps::{JacobiApp, JacobiConfig, LeanMdApp, LeanMdConfig};
use charm_rt::{GreedyLb, RescaleMode, RotateLb, RuntimeConfig};

/// Parallel Jacobi must match the serial reference bit-for-bit: the
/// 5-point update reads each neighbour in a fixed order, so blocking
/// must not change a single ulp.
#[test]
fn jacobi_matches_serial_reference_exactly() {
    let cfg = JacobiConfig::new(32, 4, 2);
    let mut app = JacobiApp::new(cfg, RuntimeConfig::new(3));
    app.run_window(7).unwrap();
    app.run_window(6).unwrap();
    let parallel = app.gather_grid().unwrap();
    let serial = reference_jacobi(&cfg, 13);
    assert_eq!(parallel.len(), serial.len());
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert!(
            p.to_bits() == s.to_bits(),
            "cell {i}: parallel {p:e} != serial {s:e}"
        );
    }
    app.shutdown();
}

/// Different block decompositions produce the identical grid.
#[test]
fn jacobi_blocking_invariance() {
    let run = |bx, by, pes| {
        let cfg = JacobiConfig::new(24, bx, by);
        let mut app = JacobiApp::new(cfg, RuntimeConfig::new(pes));
        app.run_window(9).unwrap();
        let g = app.gather_grid().unwrap();
        app.shutdown();
        g
    };
    let a = run(1, 1, 1);
    let b = run(4, 4, 4);
    let c = run(2, 6, 3);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

/// THE paper property: shrink + expand mid-run leaves the numerical
/// state bit-identical to an uninterrupted run.
#[test]
fn jacobi_rescale_equivalence_is_bitwise() {
    let cfg = JacobiConfig::new(32, 4, 4);

    // Uninterrupted run: 30 iterations on 4 PEs.
    let mut plain = JacobiApp::new(cfg, RuntimeConfig::new(4));
    for _ in 0..3 {
        plain.run_window(10).unwrap();
    }
    let reference = plain.gather_grid().unwrap();
    plain.shutdown();

    // Rescaled run: shrink to 2 after 10 iters, expand to 6 after 20.
    let mut elastic = JacobiApp::new(cfg, RuntimeConfig::new(4));
    elastic.run_window(10).unwrap();
    let s = elastic.driver.rescale(2);
    assert_eq!(s.to_pes, 2);
    elastic.run_window(10).unwrap();
    let e = elastic.driver.rescale(6);
    assert_eq!(e.to_pes, 6);
    elastic.run_window(10).unwrap();
    let rescaled = elastic.gather_grid().unwrap();
    elastic.shutdown();

    assert_eq!(reference.len(), rescaled.len());
    for (i, (a, b)) in reference.iter().zip(&rescaled).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "cell {i} diverged after rescale: {a:e} vs {b:e}"
        );
    }
}

/// Residual decreases monotonically over windows for the heat problem.
#[test]
fn jacobi_residual_decreases() {
    let cfg = JacobiConfig::new(32, 2, 2);
    let mut app = JacobiApp::new(cfg, RuntimeConfig::new(2));
    let r1 = app.run_window(10).unwrap().values[0];
    let r2 = app.run_window(10).unwrap().values[0];
    let r3 = app.run_window(10).unwrap().values[0];
    assert!(
        r1 > r2 && r2 > r3,
        "residuals not decreasing: {r1} {r2} {r3}"
    );
    app.shutdown();
}

/// Checksum is conserved by load balancing (migration does not touch
/// numerical state).
#[test]
fn jacobi_checksum_invariant_under_migration() {
    let cfg = JacobiConfig::new(24, 4, 4);
    let mut app = JacobiApp::new(cfg, RuntimeConfig::new(4));
    app.run_window(5).unwrap();
    let before = app.checksum().unwrap();
    app.driver.load_balance(&RotateLb);
    let after = app.checksum().unwrap();
    assert_eq!(before.to_bits(), after.to_bits());
    app.shutdown();
}

/// LeanMD determinism: two identical runs yield identical checksums.
#[test]
fn leanmd_is_deterministic() {
    let run = |pes| {
        let cfg = LeanMdConfig::new((2, 2, 2), 6);
        let mut app = LeanMdApp::new(cfg, RuntimeConfig::new(pes));
        app.run_window(5).unwrap();
        let c = app.checksum().unwrap();
        app.shutdown();
        c
    };
    let a = run(2);
    let b = run(2);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// LeanMD rescale equivalence: positions after shrink+expand match an
/// uninterrupted run. (Force summation order within a cell is fixed;
/// neighbour maps iterate in arbitrary order, so we allow tiny float
/// slack from neighbour-accumulation reordering.)
#[test]
fn leanmd_rescale_equivalence() {
    let cfg = LeanMdConfig::new((3, 2, 2), 5);
    let mut plain = LeanMdApp::new(cfg, RuntimeConfig::new(4));
    plain.run_window(4).unwrap();
    plain.run_window(4).unwrap();
    let reference = plain.checksum().unwrap();
    plain.shutdown();

    let mut elastic = LeanMdApp::new(cfg, RuntimeConfig::new(4));
    elastic.run_window(4).unwrap();
    elastic.driver.rescale(2);
    elastic.run_window(4).unwrap();
    let rescaled = elastic.checksum().unwrap();
    elastic.shutdown();

    let rel = (reference - rescaled).abs() / reference.abs().max(1.0);
    assert!(
        rel < 1e-9,
        "leanmd diverged after rescale: {reference} vs {rescaled} (rel {rel:e})"
    );
}

/// Kinetic energy grows from zero once atoms start interacting.
#[test]
fn leanmd_kinetic_energy_evolves() {
    let cfg = LeanMdConfig::new((2, 2, 1), 8);
    let mut app = LeanMdApp::new(cfg, RuntimeConfig::new(2));
    let e1 = app.run_window(3).unwrap().values[0];
    assert!(e1 > 0.0, "atoms should be moving, ke = {e1}");
    assert!(e1.is_finite(), "integration must stay finite");
    app.shutdown();
}

/// Rescale overhead stages are populated per protocol for a real
/// application: full restart checkpoints the whole grid, incremental
/// moves only the evacuated blocks and skips checkpoint/restore.
#[test]
fn jacobi_rescale_report_has_all_stages() {
    let cfg = JacobiConfig::new(64, 4, 4);
    let mut app = JacobiApp::new(cfg, RuntimeConfig::new(4));
    app.run_window(5).unwrap();
    let report = app
        .driver
        .rt
        .rescale_with_mode(2, &GreedyLb, RescaleMode::FullRestart);
    assert!(
        report.checkpoint_bytes > cfg.state_bytes() / 2,
        "checkpoint should carry the grid"
    );
    assert!(report.stages.checkpoint.as_secs() > 0.0);
    assert!(report.stages.restore.as_secs() > 0.0);
    assert!(report.migrated > 0, "shrink must evacuate blocks");
    app.shutdown();

    let mut app = JacobiApp::new(cfg, RuntimeConfig::new(4));
    app.run_window(5).unwrap();
    let report = app.driver.rescale(2);
    assert_eq!(report.mode, RescaleMode::Incremental);
    assert_eq!(report.checkpoint_bytes, 0, "incremental never checkpoints");
    assert!(
        report.bytes_moved > 0 && report.bytes_moved < cfg.state_bytes(),
        "incremental moves only evacuated blocks ({} of {} bytes)",
        report.bytes_moved,
        cfg.state_bytes()
    );
    assert!(report.migrated > 0, "shrink must evacuate blocks");
    app.shutdown();
}

/// CCS-signalled rescale applied between windows, like the operator does.
#[test]
fn jacobi_ccs_signal_between_windows() {
    let cfg = JacobiConfig::new(32, 4, 4);
    let mut app = JacobiApp::new(cfg, RuntimeConfig::new(4));
    let client = app.driver.rt.ccs_client();
    app.run_window(5).unwrap();
    let ack = client.request_rescale(2);
    // The signal does nothing until the boundary poll.
    assert_eq!(app.driver.num_pes(), 4);
    let report = app.driver.poll_rescale(&GreedyLb).expect("pending");
    assert_eq!(report.to_pes, 2);
    assert!(ack.recv_timeout(std::time::Duration::from_secs(5)).is_ok());
    // Computation continues unharmed.
    let wr = app.run_window(5).unwrap();
    assert_eq!(wr.end_iter, 10);
    app.shutdown();
}
