//! A synthetic windowed application with controllable per-chare cost.
//!
//! Scheduler and load-balancer tests need workloads whose per-iteration
//! cost is *chosen*, not emergent. Each chare spins for a configurable
//! number of work units per iteration and exchanges a token with its
//! ring successor (so the messaging/sync machinery is exercised), then
//! contributes the window's busy time. Weights can be uniform or skewed
//! to create deliberate imbalance.

use std::collections::BTreeMap;
use std::sync::Arc;

use charm_rt::codec::{Reader, Writer};
use charm_rt::{
    Chare, ChareFactory, Ctx, Index, MethodId, ReduceOp, Runtime, RuntimeConfig, WaitError,
};

use crate::driver::{IterativeDriver, WindowResult, M_START};

/// Ring-token exchange.
const M_TOKEN: MethodId = 2;

/// Per-chare work weighting.
#[derive(Debug, Clone, PartialEq)]
pub enum Weights {
    /// Every chare performs `1×` the base work.
    Uniform,
    /// Chare `i` performs `1 + i mod modulus` × the base work — a
    /// deterministic sawtooth imbalance.
    Sawtooth {
        /// Period of the sawtooth.
        modulus: u64,
    },
    /// Explicit per-chare multipliers.
    Custom(Vec<u64>),
}

impl Weights {
    fn weight(&self, i: u64) -> u64 {
        match self {
            Weights::Uniform => 1,
            Weights::Sawtooth { modulus } => 1 + (i % (*modulus).max(1)),
            Weights::Custom(v) => v.get(i as usize).copied().unwrap_or(1),
        }
    }
}

/// Problem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of chares.
    pub chares: u64,
    /// Busy-loop units (square roots) per weight unit per iteration.
    pub spin_per_unit: u64,
    /// Per-chare weights.
    pub weights: Weights,
}

impl SyntheticConfig {
    /// `chares` uniform chares with `spin_per_unit` work units each.
    pub fn uniform(chares: u64, spin_per_unit: u64) -> Self {
        assert!(chares > 0);
        SyntheticConfig {
            chares,
            spin_per_unit,
            weights: Weights::Uniform,
        }
    }
}

struct Worker {
    total_chares: u64,
    index: u64,
    spin: u64,
    /// Iterations completed.
    iter: u64,
    window_end: u64,
    seq: u64,
    active: bool,
    token_seen: bool,
    busy_accum: f64,
    pending: BTreeMap<u64, ()>,
}

impl Worker {
    fn spin_work(&self) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..self.spin {
            acc += (i as f64).sqrt();
        }
        acc
    }

    fn successor(&self) -> Index {
        Index::d1((self.index + 1) % self.total_chares)
    }

    fn send_token(&self, ctx: &mut Ctx<'_>) {
        let mut w = Writer::new();
        w.u64(self.iter);
        ctx.send(self.successor(), M_TOKEN, w.finish());
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            if self.pending.remove(&self.iter).is_some() {
                self.token_seen = true;
            }
            if !self.active || self.iter >= self.window_end || !self.token_seen {
                break;
            }
            let t0 = std::time::Instant::now();
            std::hint::black_box(self.spin_work());
            self.busy_accum += t0.elapsed().as_secs_f64();
            self.iter += 1;
            self.token_seen = false;
            if self.iter < self.window_end {
                self.send_token(ctx);
            } else {
                self.active = false;
                debug_assert!(self.pending.is_empty(), "token buffer at boundary");
                ctx.contribute(self.seq, ReduceOp::Sum, &[self.busy_accum, 1.0]);
                break;
            }
        }
    }
}

impl Chare for Worker {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, method: MethodId, data: &[u8]) {
        let mut r = Reader::new(data);
        match method {
            M_START => {
                let iters = r.u64().expect("window length");
                let seq = r.u64().expect("epoch");
                debug_assert!(!self.active, "window start while active");
                self.window_end = self.iter + iters;
                self.seq = seq;
                self.active = true;
                self.busy_accum = 0.0;
                self.send_token(ctx);
                self.pump(ctx);
            }
            M_TOKEN => {
                let iter = r.u64().expect("token iter");
                if self.active && iter == self.iter {
                    self.token_seen = true;
                    self.pump(ctx);
                } else {
                    debug_assert!(iter >= self.iter, "stale token");
                    self.pending.insert(iter, ());
                }
            }
            other => panic!("synthetic worker: unknown method {other}"),
        }
    }

    fn pack(&self, w: &mut Writer) {
        debug_assert!(!self.active, "packing mid-window");
        w.u64(self.total_chares)
            .u64(self.index)
            .u64(self.spin)
            .u64(self.iter);
    }
}

fn worker_factory() -> ChareFactory {
    Arc::new(|index, r: &mut Reader<'_>| {
        let total_chares = r.u64().expect("total");
        let own = r.u64().expect("index");
        debug_assert_eq!(index.x(), own);
        let spin = r.u64().expect("spin");
        let iter = r.u64().expect("iter");
        Box::new(Worker {
            total_chares,
            index: own,
            spin,
            iter,
            window_end: 0,
            seq: 0,
            active: false,
            token_seen: false,
            busy_accum: 0.0,
            pending: BTreeMap::new(),
        }) as Box<dyn Chare>
    })
}

/// A runnable synthetic application instance.
pub struct SyntheticApp {
    /// The windowed driver.
    pub driver: IterativeDriver,
    cfg: SyntheticConfig,
}

impl SyntheticApp {
    /// Boots a runtime per `rt_cfg` and creates the worker ring.
    pub fn new(cfg: SyntheticConfig, rt_cfg: RuntimeConfig) -> SyntheticApp {
        let mut rt = Runtime::new(rt_cfg);
        let elements: Vec<(Index, Box<dyn Chare>)> = (0..cfg.chares)
            .map(|i| {
                (
                    Index::d1(i),
                    Box::new(Worker {
                        total_chares: cfg.chares,
                        index: i,
                        spin: cfg.spin_per_unit * cfg.weights.weight(i),
                        iter: 0,
                        window_end: 0,
                        seq: 0,
                        active: false,
                        token_seen: false,
                        busy_accum: 0.0,
                        pending: BTreeMap::new(),
                    }) as Box<dyn Chare>,
                )
            })
            .collect();
        let arr = rt.create_array("synthetic", worker_factory(), elements);
        SyntheticApp {
            driver: IterativeDriver::new(rt, arr),
            cfg,
        }
    }

    /// Problem configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.cfg
    }

    /// Runs one window; `values[0]` is total busy seconds, `values[1]`
    /// the contributing chare count.
    pub fn run_window(&mut self, iters: u64) -> Result<WindowResult, WaitError> {
        self.driver.run_window(iters)
    }

    /// Shuts the runtime down.
    pub fn shutdown(self) {
        self.driver.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_schemes() {
        assert_eq!(Weights::Uniform.weight(17), 1);
        let s = Weights::Sawtooth { modulus: 4 };
        assert_eq!(
            (0..6).map(|i| s.weight(i)).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 1, 2]
        );
        let c = Weights::Custom(vec![5, 9]);
        assert_eq!(c.weight(0), 5);
        assert_eq!(c.weight(1), 9);
        assert_eq!(c.weight(99), 1, "out of range defaults to 1");
        assert_eq!(Weights::Sawtooth { modulus: 0 }.weight(3), 1);
    }

    #[test]
    fn ring_runs_and_counts_all_chares() {
        let mut app = SyntheticApp::new(SyntheticConfig::uniform(8, 100), RuntimeConfig::new(2));
        let wr = app.run_window(5).unwrap();
        assert_eq!(wr.values[1], 8.0, "all chares contributed");
        assert_eq!(wr.end_iter, 5);
        let wr2 = app.run_window(3).unwrap();
        assert_eq!(wr2.start_iter, 5);
        assert_eq!(wr2.end_iter, 8);
        app.shutdown();
    }

    #[test]
    fn survives_rescale_between_windows() {
        let cfg = SyntheticConfig {
            chares: 12,
            spin_per_unit: 200,
            weights: Weights::Sawtooth { modulus: 3 },
        };
        let mut app = SyntheticApp::new(cfg, RuntimeConfig::new(3));
        app.run_window(4).unwrap();
        let report = app.driver.rescale(2);
        assert_eq!(report.to_pes, 2);
        let wr = app.run_window(4).unwrap();
        assert_eq!(wr.values[1], 12.0);
        assert_eq!(wr.end_iter, 8);
        app.shutdown();
    }
}
