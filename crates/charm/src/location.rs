//! The location manager: chare → PE resolution.
//!
//! Charm++ resolves array-element locations through a distributed,
//! home-based directory. In this in-process runtime the directory is a
//! set of hash-sharded tables (the shard index plays the role of the
//! element's *home*): lookups and updates contend only within a shard,
//! and — unlike a cache-plus-forwarding scheme — reads are strongly
//! consistent, which the boundary-synchronized migration protocol relies
//! on.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

use hpc_metrics::sync::{read, write};

use crate::ids::{ChareId, PeId};

const DEFAULT_SHARDS: usize = 16;

/// Sharded chare-location directory.
pub struct LocationManager {
    shards: Vec<RwLock<HashMap<ChareId, PeId>>>,
}

impl Default for LocationManager {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl LocationManager {
    /// A directory with `shards` independent segments.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        LocationManager {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, id: ChareId) -> &RwLock<HashMap<ChareId, PeId>> {
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Where `id` currently lives, if known.
    pub fn lookup(&self, id: ChareId) -> Option<PeId> {
        read(self.shard(id)).get(&id).copied()
    }

    /// Records that `id` lives on `pe`.
    pub fn update(&self, id: ChareId, pe: PeId) {
        write(self.shard(id)).insert(id, pe);
    }

    /// Forgets `id` (chare destroyed).
    pub fn remove(&self, id: ChareId) -> Option<PeId> {
        write(self.shard(id)).remove(&id)
    }

    /// Drops every record (restart path).
    pub fn clear(&self) {
        for s in &self.shards {
            write(s).clear();
        }
    }

    /// Total number of known chares.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// `true` when no chares are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A full snapshot of the directory.
    pub fn snapshot(&self) -> HashMap<ChareId, PeId> {
        let mut out = HashMap::with_capacity(self.len());
        for s in &self.shards {
            out.extend(read(s).iter().map(|(k, v)| (*k, *v)));
        }
        out
    }

    /// Number of chares recorded on PEs `floor..` — used by the
    /// incremental shrink path to assert the evacuation drained every
    /// dying PE before its thread retires.
    pub fn count_at_or_above(&self, floor: usize) -> usize {
        self.shards
            .iter()
            .map(|s| read(s).values().filter(|pe| pe.as_usize() >= floor).count())
            .sum()
    }

    /// Number of chares resident on each PE (index = PE number).
    pub fn occupancy(&self, num_pes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_pes];
        for s in &self.shards {
            for pe in read(s).values() {
                if let Some(c) = counts.get_mut(pe.as_usize()) {
                    *c += 1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ArrayId, Index};
    use std::sync::Arc;

    fn cid(a: u32, i: u64) -> ChareId {
        ChareId::new(ArrayId(a), Index::d1(i))
    }

    #[test]
    fn update_lookup_remove() {
        let lm = LocationManager::default();
        assert_eq!(lm.lookup(cid(0, 1)), None);
        lm.update(cid(0, 1), PeId(3));
        assert_eq!(lm.lookup(cid(0, 1)), Some(PeId(3)));
        lm.update(cid(0, 1), PeId(5));
        assert_eq!(lm.lookup(cid(0, 1)), Some(PeId(5)));
        assert_eq!(lm.remove(cid(0, 1)), Some(PeId(5)));
        assert_eq!(lm.lookup(cid(0, 1)), None);
    }

    #[test]
    fn snapshot_and_len() {
        let lm = LocationManager::default();
        for i in 0..100 {
            lm.update(cid(0, i), PeId((i % 4) as u32));
        }
        assert_eq!(lm.len(), 100);
        let snap = lm.snapshot();
        assert_eq!(snap.len(), 100);
        assert_eq!(snap[&cid(0, 17)], PeId(1));
        lm.clear();
        assert!(lm.is_empty());
    }

    #[test]
    fn occupancy_counts_per_pe() {
        let lm = LocationManager::default();
        lm.update(cid(0, 0), PeId(0));
        lm.update(cid(0, 1), PeId(0));
        lm.update(cid(0, 2), PeId(2));
        assert_eq!(lm.occupancy(3), vec![2, 0, 1]);
        // Out-of-range PEs are ignored rather than panicking.
        assert_eq!(lm.occupancy(1), vec![2]);
    }

    #[test]
    fn count_at_or_above_matches_occupancy_tail() {
        let lm = LocationManager::default();
        for i in 0..12 {
            lm.update(cid(0, i), PeId((i % 4) as u32));
        }
        assert_eq!(lm.count_at_or_above(0), 12);
        assert_eq!(lm.count_at_or_above(2), 6);
        assert_eq!(lm.count_at_or_above(4), 0);
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let lm = Arc::new(LocationManager::default());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let id = cid(0, t * 1000 + i);
                    lm.update(id, PeId(t as u32));
                    assert_eq!(lm.lookup(id), Some(PeId(t as u32)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.len(), 8 * 500);
        let occ = lm.occupancy(8);
        assert!(occ.iter().all(|&c| c == 500));
    }

    #[test]
    fn single_shard_still_works() {
        let lm = LocationManager::new(1);
        lm.update(cid(0, 1), PeId(0));
        lm.update(cid(0, 2), PeId(1));
        assert_eq!(lm.len(), 2);
    }
}
