//! LeanMD: Lennard-Jones molecular dynamics on a 3D cell grid.
//!
//! The paper's compute-intensive benchmark (§4.1): atoms live in a 3D
//! grid of cells (one chare per cell); each timestep a cell exchanges
//! atom positions with its (up to) 26 neighbours, computes truncated
//! Lennard-Jones forces between its atoms and all atoms in the
//! neighbourhood, and integrates. Force evaluation is O(n²) per cell
//! pair, so compute dominates communication — giving the near-ideal
//! strong scaling of Fig. 4b.
//!
//! Simplification vs. full LeanMD: atoms stay assigned to their birth
//! cell (no atom migration between cells). The
//! compute/communication character that the scaling study exercises is
//! unchanged; only long-horizon physical fidelity is reduced.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use charm_rt::codec::{Reader, Writer};
use charm_rt::{
    Chare, ChareFactory, Ctx, Index, MethodId, ReduceOp, Runtime, RuntimeConfig, WaitError,
};

use crate::driver::{IterativeDriver, WindowResult, M_START};

/// Neighbour position exchange.
const M_ATOMS: MethodId = 2;
/// Checksum query (sum of coordinates).
pub const M_CHECKSUM: MethodId = 3;

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeanMdConfig {
    /// Cell grid dimensions.
    pub cells: (u64, u64, u64),
    /// Atoms per cell.
    pub atoms_per_cell: usize,
    /// Cubic cell edge length.
    pub cell_size: f64,
    /// Lennard-Jones cutoff radius.
    pub cutoff: f64,
    /// Integration timestep.
    pub dt: f64,
}

impl LeanMdConfig {
    /// A (cx × cy × cz)-cell problem with `atoms_per_cell` atoms each.
    pub fn new(cells: (u64, u64, u64), atoms_per_cell: usize) -> Self {
        assert!(cells.0 > 0 && cells.1 > 0 && cells.2 > 0);
        assert!(atoms_per_cell > 0);
        LeanMdConfig {
            cells,
            atoms_per_cell,
            cell_size: 2.0,
            cutoff: 2.0,
            dt: 1e-4,
        }
    }

    /// Total cell (chare) count.
    fn num_cells(&self) -> u64 {
        self.cells.0 * self.cells.1 * self.cells.2
    }
}

/// Maps a neighbour offset (dx,dy,dz ∈ {-1,0,1}) to a bit 0..27.
fn offset_bit(dx: i64, dy: i64, dz: i64) -> u8 {
    ((dx + 1) * 9 + (dy + 1) * 3 + (dz + 1)) as u8
}

/// Deterministic per-cell pseudo-random stream (splitmix64).
struct Splitmix(u64);

impl Splitmix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One cell of atoms.
struct CellChare {
    cfg: LeanMdConfig,
    cx: u64,
    cy: u64,
    cz: u64,
    /// Flattened xyz positions, 3 × atoms.
    pos: Vec<f64>,
    /// Flattened xyz velocities.
    vel: Vec<f64>,
    step: u64,
    window_end: u64,
    seq: u64,
    active: bool,
    /// Bits of neighbours whose positions for the current step arrived.
    recv_mask: u32,
    /// Positions received for the current step, keyed by offset bit.
    neighbor_pos: HashMap<u8, Vec<f64>>,
    /// Early arrivals keyed by (step, offset bit).
    pending: BTreeMap<(u64, u8), Vec<f64>>,
}

impl CellChare {
    fn fresh(cfg: LeanMdConfig, cx: u64, cy: u64, cz: u64) -> CellChare {
        let n = cfg.atoms_per_cell;
        let mut rng = Splitmix(
            (cx.wrapping_mul(73_856_093))
                ^ (cy.wrapping_mul(19_349_663))
                ^ (cz.wrapping_mul(83_492_791))
                ^ 0x00C0_FFEE,
        );
        let mut pos = Vec::with_capacity(3 * n);
        let base = [
            cx as f64 * cfg.cell_size,
            cy as f64 * cfg.cell_size,
            cz as f64 * cfg.cell_size,
        ];
        for _ in 0..n {
            for b in base {
                // Keep a margin so initial pair distances are bounded
                // away from zero (stable LJ forces).
                pos.push(b + 0.1 + 0.8 * cfg.cell_size * rng.next_f64());
            }
        }
        CellChare {
            cfg,
            cx,
            cy,
            cz,
            pos,
            vel: vec![0.0; 3 * n],
            step: 0,
            window_end: 0,
            seq: 0,
            active: false,
            recv_mask: 0,
            neighbor_pos: HashMap::new(),
            pending: BTreeMap::new(),
        }
    }

    fn neighbors(&self) -> Vec<(u8, Index)> {
        let (nx, ny, nz) = self.cfg.cells;
        let mut out = Vec::new();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let x = self.cx as i64 + dx;
                    let y = self.cy as i64 + dy;
                    let z = self.cz as i64 + dz;
                    if x < 0 || y < 0 || z < 0 {
                        continue;
                    }
                    let (x, y, z) = (x as u64, y as u64, z as u64);
                    if x >= nx || y >= ny || z >= nz {
                        continue;
                    }
                    out.push((offset_bit(dx, dy, dz), Index::d3(x, y, z)));
                }
            }
        }
        out
    }

    fn expected_mask(&self) -> u32 {
        self.neighbors()
            .iter()
            .fold(0u32, |m, &(bit, _)| m | (1 << bit))
    }

    fn send_positions(&self, ctx: &mut Ctx<'_>) {
        for (bit, idx) in self.neighbors() {
            // The receiver sees us at the mirrored offset.
            let mirrored = 26 - bit;
            let mut w = Writer::new();
            w.u64(self.step).u8(mirrored).f64_slice(&self.pos);
            ctx.send(idx, M_ATOMS, w.finish());
        }
    }

    /// Truncated Lennard-Jones force increment of atom `i` from a point
    /// at `other`.
    #[inline]
    fn lj_accumulate(xi: &[f64], other: &[f64], cutoff2: f64, f: &mut [f64]) {
        let dx = xi[0] - other[0];
        let dy = xi[1] - other[1];
        let dz = xi[2] - other[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 >= cutoff2 || r2 < 1e-12 {
            return;
        }
        let inv_r2 = 1.0 / r2;
        let s6 = inv_r2 * inv_r2 * inv_r2; // (σ/r)^6 with σ=1
        let mag = 24.0 * (2.0 * s6 * s6 - s6) * inv_r2;
        f[0] += mag * dx;
        f[1] += mag * dy;
        f[2] += mag * dz;
    }

    fn compute_step(&mut self) {
        let n = self.cfg.atoms_per_cell;
        let cutoff2 = self.cfg.cutoff * self.cfg.cutoff;
        let mut forces = vec![0.0f64; 3 * n];
        // Own-cell pairs (full loop; the symmetric half costs clarity
        // more than it saves at mini-app sizes).
        for i in 0..n {
            let xi: [f64; 3] = self.pos[3 * i..3 * i + 3].try_into().unwrap();
            let fi = &mut forces[3 * i..3 * i + 3];
            for j in 0..n {
                if i == j {
                    continue;
                }
                Self::lj_accumulate(&xi, &self.pos[3 * j..3 * j + 3], cutoff2, fi);
            }
            for other in self.neighbor_pos.values() {
                for j in 0..other.len() / 3 {
                    Self::lj_accumulate(&xi, &other[3 * j..3 * j + 3], cutoff2, fi);
                }
            }
        }
        // Leapfrog with unit mass; clamp forces to keep the toy system
        // numerically tame regardless of random initial placement.
        let dt = self.cfg.dt;
        for ((force, vel), pos) in forces.iter().zip(&mut self.vel).zip(&mut self.pos) {
            let f = force.clamp(-1e6, 1e6);
            *vel += f * dt;
            *pos += *vel * dt;
        }
        self.neighbor_pos.clear();
    }

    fn kinetic_energy(&self) -> f64 {
        0.5 * self.vel.iter().map(|v| v * v).sum::<f64>()
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let ready: Vec<u8> = self
                .pending
                .range((self.step, 0)..(self.step, u8::MAX))
                .map(|(&(_, bit), _)| bit)
                .collect();
            for bit in ready {
                let data = self.pending.remove(&(self.step, bit)).expect("key present");
                self.recv_mask |= 1 << bit;
                self.neighbor_pos.insert(bit, data);
            }
            if !self.active || self.step >= self.window_end {
                break;
            }
            if self.recv_mask != self.expected_mask() {
                break;
            }
            self.compute_step();
            self.step += 1;
            self.recv_mask = 0;
            if self.step < self.window_end {
                self.send_positions(ctx);
            } else {
                self.active = false;
                debug_assert!(self.pending.is_empty(), "atom buffer at boundary");
                ctx.contribute(self.seq, ReduceOp::Sum, &[self.kinetic_energy()]);
                break;
            }
        }
    }
}

impl Chare for CellChare {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, method: MethodId, data: &[u8]) {
        let mut r = Reader::new(data);
        match method {
            M_START => {
                let steps = r.u64().expect("window length");
                let seq = r.u64().expect("epoch");
                debug_assert!(!self.active, "window start while active");
                self.window_end = self.step + steps;
                self.seq = seq;
                self.active = true;
                self.recv_mask = 0;
                self.send_positions(ctx);
                self.pump(ctx);
            }
            M_ATOMS => {
                let step = r.u64().expect("step");
                let bit = r.u8().expect("offset bit");
                let positions = r.f64_vec().expect("positions");
                if self.active && step == self.step {
                    self.recv_mask |= 1 << bit;
                    self.neighbor_pos.insert(bit, positions);
                    self.pump(ctx);
                } else {
                    debug_assert!(step >= self.step, "stale atom message");
                    self.pending.insert((step, bit), positions);
                }
            }
            M_CHECKSUM => {
                let seq = r.u64().expect("epoch");
                let s: f64 = self.pos.iter().sum();
                ctx.contribute(seq, ReduceOp::Sum, &[s]);
            }
            other => panic!("leanmd cell: unknown method {other}"),
        }
    }

    fn pack(&self, w: &mut Writer) {
        debug_assert!(!self.active, "packing mid-window");
        w.u64(self.cfg.cells.0)
            .u64(self.cfg.cells.1)
            .u64(self.cfg.cells.2)
            .u64(self.cfg.atoms_per_cell as u64)
            .f64(self.cfg.cell_size)
            .f64(self.cfg.cutoff)
            .f64(self.cfg.dt)
            .u64(self.cx)
            .u64(self.cy)
            .u64(self.cz)
            .u64(self.step)
            .f64_slice(&self.pos)
            .f64_slice(&self.vel);
    }
}

fn cell_factory() -> ChareFactory {
    Arc::new(|index, r: &mut Reader<'_>| {
        let cells = (
            r.u64().expect("cx count"),
            r.u64().expect("cy count"),
            r.u64().expect("cz count"),
        );
        let atoms = r.u64().expect("atoms") as usize;
        let mut cfg = LeanMdConfig::new(cells, atoms);
        cfg.cell_size = r.f64().expect("cell size");
        cfg.cutoff = r.f64().expect("cutoff");
        cfg.dt = r.f64().expect("dt");
        let cx = r.u64().expect("cx");
        let cy = r.u64().expect("cy");
        let cz = r.u64().expect("cz");
        debug_assert_eq!((index.x(), index.y(), index.z()), (cx, cy, cz));
        let step = r.u64().expect("step");
        let pos = r.f64_vec().expect("positions");
        let vel = r.f64_vec().expect("velocities");
        let mut cell = CellChare::fresh(cfg, cx, cy, cz);
        cell.step = step;
        cell.pos = pos;
        cell.vel = vel;
        Box::new(cell) as Box<dyn Chare>
    })
}

/// A runnable LeanMD application instance.
pub struct LeanMdApp {
    /// The windowed driver.
    pub driver: IterativeDriver,
    cfg: LeanMdConfig,
}

impl LeanMdApp {
    /// Boots a runtime per `rt_cfg` and populates the cell array.
    pub fn new(cfg: LeanMdConfig, rt_cfg: RuntimeConfig) -> LeanMdApp {
        let mut rt = Runtime::new(rt_cfg);
        let mut elements: Vec<(Index, Box<dyn Chare>)> =
            Vec::with_capacity(cfg.num_cells() as usize);
        let (nx, ny, nz) = cfg.cells;
        for cz in 0..nz {
            for cy in 0..ny {
                for cx in 0..nx {
                    elements.push((
                        Index::d3(cx, cy, cz),
                        Box::new(CellChare::fresh(cfg, cx, cy, cz)) as Box<dyn Chare>,
                    ));
                }
            }
        }
        let arr = rt.create_array("leanmd", cell_factory(), elements);
        LeanMdApp {
            driver: IterativeDriver::new(rt, arr),
            cfg,
        }
    }

    /// Problem configuration.
    pub fn config(&self) -> LeanMdConfig {
        self.cfg
    }

    /// Runs one window of `steps` timesteps; `values[0]` is the total
    /// kinetic energy at the window end.
    pub fn run_window(&mut self, steps: u64) -> Result<WindowResult, WaitError> {
        self.driver.run_window(steps)
    }

    /// Sum of all atom coordinates (global checksum).
    pub fn checksum(&mut self) -> Result<f64, WaitError> {
        Ok(self.driver.query(M_CHECKSUM)?[0])
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
    fn offset_bits_are_unique_and_mirror() {
        let mut seen = std::collections::HashSet::new();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let b = offset_bit(dx, dy, dz);
                    assert!(b < 27);
                    assert!(seen.insert(b), "bit collision");
                    assert_eq!(26 - b, offset_bit(-dx, -dy, -dz), "mirror identity");
                }
            }
        }
        assert_eq!(offset_bit(0, 0, 0), 13);
    }

    #[test]
    fn corner_cell_has_7_neighbors_interior_26() {
        let cfg = LeanMdConfig::new((3, 3, 3), 2);
        let corner = CellChare::fresh(cfg, 0, 0, 0);
        assert_eq!(corner.neighbors().len(), 7);
        let interior = CellChare::fresh(cfg, 1, 1, 1);
        assert_eq!(interior.neighbors().len(), 26);
        let face = CellChare::fresh(cfg, 1, 1, 0);
        assert_eq!(face.neighbors().len(), 17);
    }

    #[test]
    fn initial_positions_inside_cell_and_deterministic() {
        let cfg = LeanMdConfig::new((2, 2, 2), 8);
        let a = CellChare::fresh(cfg, 1, 0, 1);
        let b = CellChare::fresh(cfg, 1, 0, 1);
        assert_eq!(a.pos, b.pos, "same cell, same atoms");
        let other = CellChare::fresh(cfg, 0, 0, 1);
        assert_ne!(a.pos, other.pos, "different cells differ");
        for (k, &p) in a.pos.iter().enumerate() {
            let dim = k % 3;
            let lo = [1.0 * cfg.cell_size, 0.0, 1.0 * cfg.cell_size][dim];
            assert!(p >= lo && p <= lo + cfg.cell_size, "atom escaped cell");
        }
    }

    #[test]
    fn lj_force_is_repulsive_up_close_attractive_far() {
        let mut f = [0.0; 3];
        // r = 0.9 < 2^(1/6): repulsive (positive x force on atom at +x).
        CellChare::lj_accumulate(&[0.9, 0.0, 0.0], &[0.0, 0.0, 0.0], 100.0, &mut f);
        assert!(f[0] > 0.0, "repulsive regime: {f:?}");
        let mut f = [0.0; 3];
        // r = 1.5 > 2^(1/6): attractive.
        CellChare::lj_accumulate(&[1.5, 0.0, 0.0], &[0.0, 0.0, 0.0], 100.0, &mut f);
        assert!(f[0] < 0.0, "attractive regime: {f:?}");
        // Beyond cutoff: zero.
        let mut f = [0.0; 3];
        CellChare::lj_accumulate(&[5.0, 0.0, 0.0], &[0.0, 0.0, 0.0], 4.0, &mut f);
        assert_eq!(f, [0.0; 3]);
    }

    #[test]
    fn compute_step_moves_atoms_and_clears_buffers() {
        let cfg = LeanMdConfig::new((1, 1, 1), 4);
        let mut cell = CellChare::fresh(cfg, 0, 0, 0);
        let before = cell.pos.clone();
        cell.neighbor_pos.insert(0, vec![0.05, 0.05, 0.05]);
        cell.compute_step();
        assert!(cell.neighbor_pos.is_empty());
        assert_ne!(cell.pos, before, "atoms should move under LJ forces");
        assert!(cell.kinetic_energy() > 0.0);
    }

    #[test]
    fn config_totals() {
        let cfg = LeanMdConfig::new((4, 4, 8), 10);
        assert_eq!(cfg.num_cells(), 128);
    }
}
