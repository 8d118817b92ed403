//! Jacobi2D: steady-state heat equation on a 2D grid.
//!
//! The paper's communication-intensive benchmark (§4.1): the grid is
//! block-decomposed into a 2D chare array; each iteration every block
//! exchanges halo rows/columns with its four neighbours and applies the
//! 5-point Jacobi update. Blocks iterate *asynchronously* inside a
//! window (a block that has all halos for iteration `t` computes without
//! waiting for global progress), then contribute the window's maximum
//! residual to a reduction.
//!
//! ## Boundary-quiescence argument (why rescale is safe between windows)
//!
//! A block with `iter = t < window_end` sends edges tagged `t`; a tagged
//! `t` halo is consumed only by the neighbour's computation of iteration
//! `t+1 ≤ window_end`. Every block reaches `window_end` before
//! contributing, hence consumes every halo addressed to it, so when the
//! window reduction completes **no application message is in flight and
//! every halo buffer is empty** (asserted in debug builds). That is the
//! paper's "rescaling during the next load-balancing step" sync point.

use std::collections::BTreeMap;
use std::sync::Arc;

use charm_rt::codec::{Reader, Writer};
use charm_rt::{
    Bytes, Chare, ChareFactory, Ctx, Index, MainEvent, MethodId, ReduceOp, Runtime, RuntimeConfig,
    WaitError,
};

use crate::driver::{IterativeDriver, WindowResult, M_START};

/// Halo-exchange entry method.
const M_HALO: MethodId = 2;
/// Checksum query: contributes the sum of interior cells.
pub const M_CHECKSUM: MethodId = 3;
/// Gather: each block sends its interior to the driver.
const M_GATHER: MethodId = 4;

const DIR_LEFT: u8 = 0;
const DIR_RIGHT: u8 = 1;
const DIR_UP: u8 = 2;
const DIR_DOWN: u8 = 3;

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiConfig {
    /// Interior grid dimension (grid × grid points).
    pub grid: usize,
    /// Blocks along x.
    pub blocks_x: u64,
    /// Blocks along y.
    pub blocks_y: u64,
    /// Dirichlet value applied along the top edge (classic heat plate).
    pub top_boundary: f64,
}

impl JacobiConfig {
    /// A grid×grid problem decomposed into `blocks_x` × `blocks_y`
    /// blocks. The grid must divide evenly.
    pub fn new(grid: usize, blocks_x: u64, blocks_y: u64) -> Self {
        assert!(grid > 0 && blocks_x > 0 && blocks_y > 0);
        assert_eq!(
            grid % blocks_x as usize,
            0,
            "grid {grid} not divisible by blocks_x {blocks_x}"
        );
        assert_eq!(
            grid % blocks_y as usize,
            0,
            "grid {grid} not divisible by blocks_y {blocks_y}"
        );
        JacobiConfig {
            grid,
            blocks_x,
            blocks_y,
            top_boundary: 1.0,
        }
    }

    /// Interior width/height of one block.
    fn block_dims(&self) -> (usize, usize) {
        (
            self.grid / self.blocks_x as usize,
            self.grid / self.blocks_y as usize,
        )
    }

    /// Total number of blocks (chares).
    pub fn num_blocks(&self) -> u64 {
        self.blocks_x * self.blocks_y
    }

    /// Total problem bytes (both buffers), for overhead reporting.
    pub fn state_bytes(&self) -> usize {
        self.grid * self.grid * std::mem::size_of::<f64>()
    }
}

/// One grid block.
struct Block {
    cfg: JacobiConfig,
    bx: u64,
    by: u64,
    w: usize,
    h: usize,
    /// Current state, (h+2)×(w+2) row-major with ghost ring.
    u: Vec<f64>,
    /// Scratch buffer for the next state (same ghosts).
    scratch: Vec<f64>,
    /// Iterations completed.
    iter: u64,
    /// One past the last iteration of the active window.
    window_end: u64,
    /// Reduction epoch for the active window.
    seq: u64,
    active: bool,
    /// Bitmask of halo directions received for the current iteration.
    halo_mask: u8,
    /// Maximum |Δu| seen in the current window.
    max_diff: f64,
    /// Early/buffered halos keyed by (iteration, direction).
    pending: BTreeMap<(u64, u8), Vec<f64>>,
}

impl Block {
    fn fresh(cfg: JacobiConfig, bx: u64, by: u64) -> Block {
        let (w, h) = cfg.block_dims();
        let mut b = Block {
            cfg,
            bx,
            by,
            w,
            h,
            u: vec![0.0; (w + 2) * (h + 2)],
            scratch: vec![0.0; (w + 2) * (h + 2)],
            iter: 0,
            window_end: 0,
            seq: 0,
            active: false,
            halo_mask: 0,
            max_diff: 0.0,
            pending: BTreeMap::new(),
        };
        b.apply_fixed_boundaries();
        b
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> usize {
        r * (self.w + 2) + c
    }

    /// Sets the Dirichlet ghost cells on both buffers for edges with no
    /// neighbour. Interior-facing ghosts are refreshed by halos.
    fn apply_fixed_boundaries(&mut self) {
        let top = if self.by == 0 {
            self.cfg.top_boundary
        } else {
            0.0
        };
        for buf in [&mut self.u, &mut self.scratch] {
            if self.by == 0 {
                buf[..self.w + 2].fill(top);
            }
            // Bottom/left/right boundaries are zero, which the buffers
            // already hold; nothing to do for them.
        }
    }

    fn has_neighbor(&self, dir: u8) -> bool {
        match dir {
            DIR_LEFT => self.bx > 0,
            DIR_RIGHT => self.bx + 1 < self.cfg.blocks_x,
            DIR_UP => self.by > 0,
            DIR_DOWN => self.by + 1 < self.cfg.blocks_y,
            _ => false,
        }
    }

    fn expected_mask(&self) -> u8 {
        let mut m = 0;
        for dir in [DIR_LEFT, DIR_RIGHT, DIR_UP, DIR_DOWN] {
            if self.has_neighbor(dir) {
                m |= 1 << dir;
            }
        }
        m
    }

    fn neighbor_index(&self, dir: u8) -> Index {
        match dir {
            DIR_LEFT => Index::d2(self.bx - 1, self.by),
            DIR_RIGHT => Index::d2(self.bx + 1, self.by),
            DIR_UP => Index::d2(self.bx, self.by - 1),
            DIR_DOWN => Index::d2(self.bx, self.by + 1),
            _ => unreachable!("bad direction"),
        }
    }

    fn edge(&self, dir: u8) -> Vec<f64> {
        match dir {
            DIR_LEFT => (1..=self.h).map(|r| self.u[self.at(r, 1)]).collect(),
            DIR_RIGHT => (1..=self.h).map(|r| self.u[self.at(r, self.w)]).collect(),
            DIR_UP => (1..=self.w).map(|c| self.u[self.at(1, c)]).collect(),
            DIR_DOWN => (1..=self.w).map(|c| self.u[self.at(self.h, c)]).collect(),
            _ => unreachable!("bad direction"),
        }
    }

    /// Sends this block's current edges to all neighbours, tagged with
    /// the current iteration. The direction tag is from the *receiver's*
    /// perspective (our left edge is their right halo).
    fn send_edges(&self, ctx: &mut Ctx<'_>) {
        const OPPOSITE: [u8; 4] = [DIR_RIGHT, DIR_LEFT, DIR_DOWN, DIR_UP];
        for dir in [DIR_LEFT, DIR_RIGHT, DIR_UP, DIR_DOWN] {
            if !self.has_neighbor(dir) {
                continue;
            }
            let mut w = Writer::new();
            w.u64(self.iter)
                .u8(OPPOSITE[dir as usize])
                .f64_slice(&self.edge(dir));
            ctx.send(self.neighbor_index(dir), M_HALO, w.finish());
        }
    }

    fn apply_halo(&mut self, dir: u8, data: &[f64]) {
        debug_assert_eq!(self.halo_mask & (1 << dir), 0, "duplicate halo {dir}");
        match dir {
            DIR_LEFT => {
                debug_assert_eq!(data.len(), self.h);
                for (r, &v) in (1..=self.h).zip(data) {
                    let i = self.at(r, 0);
                    self.u[i] = v;
                }
            }
            DIR_RIGHT => {
                for (r, &v) in (1..=self.h).zip(data) {
                    let i = self.at(r, self.w + 1);
                    self.u[i] = v;
                }
            }
            DIR_UP => {
                debug_assert_eq!(data.len(), self.w);
                for (c, &v) in (1..=self.w).zip(data) {
                    let i = self.at(0, c);
                    self.u[i] = v;
                }
            }
            DIR_DOWN => {
                for (c, &v) in (1..=self.w).zip(data) {
                    let i = self.at(self.h + 1, c);
                    self.u[i] = v;
                }
            }
            _ => unreachable!("bad direction"),
        }
        self.halo_mask |= 1 << dir;
    }

    /// One 5-point Jacobi sweep over the interior.
    fn compute_iteration(&mut self) {
        let stride = self.w + 2;
        let mut max_diff = self.max_diff;
        for r in 1..=self.h {
            let row = r * stride;
            for c in 1..=self.w {
                let i = row + c;
                let next = 0.25
                    * (self.u[i - stride] + self.u[i + stride] + self.u[i - 1] + self.u[i + 1]);
                max_diff = max_diff.max((next - self.u[i]).abs());
                self.scratch[i] = next;
            }
        }
        self.max_diff = max_diff;
        std::mem::swap(&mut self.u, &mut self.scratch);
    }

    /// Applies buffered halos and advances as many iterations as the
    /// received halos allow; contributes at the window end.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            // Apply any buffered halos for the current iteration.
            let ready: Vec<u8> = self
                .pending
                .range((self.iter, 0)..(self.iter, u8::MAX))
                .map(|(&(_, dir), _)| dir)
                .collect();
            for dir in ready {
                let data = self.pending.remove(&(self.iter, dir)).expect("key present");
                self.apply_halo(dir, &data);
            }
            if !self.active || self.iter >= self.window_end {
                break;
            }
            if self.halo_mask != self.expected_mask() {
                break;
            }
            self.compute_iteration();
            self.iter += 1;
            self.halo_mask = 0;
            if self.iter < self.window_end {
                self.send_edges(ctx);
                // Loop: buffered halos for the new iteration may already
                // be waiting.
            } else {
                self.active = false;
                debug_assert!(
                    self.pending.is_empty(),
                    "halo buffer non-empty at window boundary: {:?}",
                    self.pending.keys().collect::<Vec<_>>()
                );
                ctx.contribute(self.seq, ReduceOp::Max, &[self.max_diff]);
                break;
            }
        }
    }

    fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        for r in 1..=self.h {
            for c in 1..=self.w {
                s += self.u[self.at(r, c)];
            }
        }
        s
    }
}

impl Chare for Block {
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
                self.max_diff = 0.0;
                self.halo_mask = 0;
                if self.expected_mask() != 0 {
                    self.send_edges(ctx);
                }
                self.pump(ctx);
            }
            M_HALO => {
                let iter = r.u64().expect("halo iter");
                let dir = r.u8().expect("halo dir");
                let data = r.f64_vec().expect("halo data");
                if self.active && iter == self.iter {
                    self.apply_halo(dir, &data);
                    self.pump(ctx);
                } else {
                    debug_assert!(
                        iter >= self.iter,
                        "stale halo: tagged {iter}, at {}",
                        self.iter
                    );
                    self.pending.insert((iter, dir), data);
                }
            }
            M_CHECKSUM => {
                let seq = r.u64().expect("epoch");
                ctx.contribute(seq, ReduceOp::Sum, &[self.interior_sum()]);
            }
            M_GATHER => {
                let mut w = Writer::new();
                w.u64(self.bx).u64(self.by);
                let interior: Vec<f64> = (1..=self.h)
                    .flat_map(|row| {
                        let base = row * (self.w + 2);
                        self.u[base + 1..base + 1 + self.w].to_vec()
                    })
                    .collect();
                w.f64_slice(&interior);
                ctx.send_main(M_GATHER as u64, w.finish());
            }
            other => panic!("jacobi block: unknown method {other}"),
        }
    }

    fn pack(&self, w: &mut Writer) {
        debug_assert!(!self.active, "packing mid-window");
        w.u64(self.cfg.grid as u64)
            .u64(self.cfg.blocks_x)
            .u64(self.cfg.blocks_y)
            .f64(self.cfg.top_boundary)
            .u64(self.bx)
            .u64(self.by)
            .u64(self.iter)
            .f64_slice(&self.u);
    }
}

fn block_factory() -> ChareFactory {
    Arc::new(|index, r: &mut Reader<'_>| {
        let grid = r.u64().expect("grid") as usize;
        let blocks_x = r.u64().expect("bx count");
        let blocks_y = r.u64().expect("by count");
        let top_boundary = r.f64().expect("boundary");
        let bx = r.u64().expect("bx");
        let by = r.u64().expect("by");
        debug_assert_eq!((index.x(), index.y()), (bx, by), "index/state mismatch");
        let iter = r.u64().expect("iter");
        let u = r.f64_vec().expect("grid state");
        let mut cfg = JacobiConfig::new(grid, blocks_x, blocks_y);
        cfg.top_boundary = top_boundary;
        let mut b = Block::fresh(cfg, bx, by);
        assert_eq!(u.len(), b.u.len(), "checkpoint grid shape mismatch");
        b.u = u;
        b.iter = iter;
        Box::new(b) as Box<dyn Chare>
    })
}

/// A runnable Jacobi2D application instance.
pub struct JacobiApp {
    /// The windowed driver (exposes runtime operations).
    pub driver: IterativeDriver,
    cfg: JacobiConfig,
}

impl JacobiApp {
    /// Boots a runtime per `rt_cfg` and populates the block array.
    pub fn new(cfg: JacobiConfig, rt_cfg: RuntimeConfig) -> JacobiApp {
        let mut rt = Runtime::new(rt_cfg);
        let mut elements: Vec<(Index, Box<dyn Chare>)> =
            Vec::with_capacity(cfg.num_blocks() as usize);
        for by in 0..cfg.blocks_y {
            for bx in 0..cfg.blocks_x {
                elements.push((
                    Index::d2(bx, by),
                    Box::new(Block::fresh(cfg, bx, by)) as Box<dyn Chare>,
                ));
            }
        }
        let arr = rt.create_array("jacobi", block_factory(), elements);
        JacobiApp {
            driver: IterativeDriver::new(rt, arr),
            cfg,
        }
    }

    /// Problem configuration.
    pub fn config(&self) -> JacobiConfig {
        self.cfg
    }

    /// Runs one window of `iters` Jacobi iterations; `values[0]` of the
    /// result is the window's maximum residual.
    pub fn run_window(&mut self, iters: u64) -> Result<WindowResult, WaitError> {
        self.driver.run_window(iters)
    }

    /// Sum of all interior cells (cheap global checksum).
    pub fn checksum(&mut self) -> Result<f64, WaitError> {
        Ok(self.driver.query(M_CHECKSUM)?[0])
    }

    /// Gathers the full interior grid (row-major, grid×grid) — used by
    /// equivalence tests. O(grid²) memory; intended for small problems.
    pub fn gather_grid(&mut self) -> Result<Vec<f64>, WaitError> {
        let blocks = self.cfg.num_blocks();
        self.driver.broadcast(M_GATHER, Bytes::default());
        let (bw, bh) = self.cfg.block_dims();
        let n = self.cfg.grid;
        let mut grid = vec![0.0f64; n * n];
        for _ in 0..blocks {
            let ev = self
                .driver
                .rt
                .recv_main(std::time::Duration::from_secs(60))?;
            let MainEvent::ToMain { data, .. } = ev else {
                continue;
            };
            let mut r = Reader::new(&data);
            let bx = r.u64().expect("bx") as usize;
            let by = r.u64().expect("by") as usize;
            let interior = r.f64_vec().expect("interior");
            for row in 0..bh {
                let g_row = by * bh + row;
                let g_col = bx * bw;
                grid[g_row * n + g_col..g_row * n + g_col + bw]
                    .copy_from_slice(&interior[row * bw..(row + 1) * bw]);
            }
        }
        Ok(grid)
    }

    /// Shuts the runtime down.
    pub fn shutdown(self) {
        self.driver.shutdown();
    }
}

/// Serial reference implementation: `iters` Jacobi sweeps over a
/// grid×grid interior with the same boundary conditions. Returns the
/// interior row-major. Used to validate the parallel solver exactly.
pub fn reference_jacobi(cfg: &JacobiConfig, iters: u64) -> Vec<f64> {
    let n = cfg.grid;
    let stride = n + 2;
    let mut u = vec![0.0f64; stride * (n + 2)];
    let mut next = u.clone();
    for c in 0..stride {
        u[c] = cfg.top_boundary;
        next[c] = cfg.top_boundary;
    }
    for _ in 0..iters {
        for r in 1..=n {
            for c in 1..=n {
                let i = r * stride + c;
                next[i] = 0.25 * (u[i - stride] + u[i + stride] + u[i - 1] + u[i + 1]);
            }
        }
        std::mem::swap(&mut u, &mut next);
    }
    let mut out = Vec::with_capacity(n * n);
    for r in 1..=n {
        out.extend_from_slice(&u[r * stride + 1..r * stride + 1 + n]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_divisibility() {
        let cfg = JacobiConfig::new(64, 4, 2);
        assert_eq!(cfg.block_dims(), (16, 32));
        assert_eq!(cfg.num_blocks(), 8);
        assert_eq!(cfg.state_bytes(), 64 * 64 * 8);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn config_rejects_ragged_blocks() {
        let _ = JacobiConfig::new(10, 3, 1);
    }

    #[test]
    fn expected_mask_corners_and_interior() {
        let cfg = JacobiConfig::new(32, 4, 4);
        // Corner (0,0): right + down only.
        let b = Block::fresh(cfg, 0, 0);
        assert_eq!(b.expected_mask(), (1 << DIR_RIGHT) | (1 << DIR_DOWN));
        // Interior block: all four.
        let b = Block::fresh(cfg, 1, 1);
        assert_eq!(b.expected_mask(), 0b1111);
        // Bottom-right corner: left + up.
        let b = Block::fresh(cfg, 3, 3);
        assert_eq!(b.expected_mask(), (1 << DIR_LEFT) | (1 << DIR_UP));
    }

    #[test]
    fn single_block_has_no_neighbors() {
        let cfg = JacobiConfig::new(8, 1, 1);
        let b = Block::fresh(cfg, 0, 0);
        assert_eq!(b.expected_mask(), 0);
    }

    #[test]
    fn fixed_boundary_applied_to_top_row_blocks_only() {
        let cfg = JacobiConfig::new(16, 2, 2);
        let top = Block::fresh(cfg, 0, 0);
        assert_eq!(top.u[0], 1.0); // ghost row carries the boundary
        let bottom = Block::fresh(cfg, 0, 1);
        assert_eq!(bottom.u[0], 0.0);
    }

    #[test]
    fn reference_serial_smoke() {
        // After one sweep from zero with top boundary 1.0, the first
        // interior row is 0.25 everywhere, the rest 0.
        let cfg = JacobiConfig::new(4, 1, 1);
        let g = reference_jacobi(&cfg, 1);
        assert!(g[..4].iter().all(|&v| (v - 0.25).abs() < 1e-15));
        assert!(g[4..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn edge_extraction_shapes() {
        let cfg = JacobiConfig::new(12, 3, 2); // blocks 4 wide, 6 tall
        let b = Block::fresh(cfg, 1, 0);
        assert_eq!(b.edge(DIR_LEFT).len(), 6);
        assert_eq!(b.edge(DIR_RIGHT).len(), 6);
        assert_eq!(b.edge(DIR_UP).len(), 4);
        assert_eq!(b.edge(DIR_DOWN).len(), 4);
    }
}
