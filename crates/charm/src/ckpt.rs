//! In-memory checkpoint store.
//!
//! Stands in for the Linux shared-memory (`/dev/shm`) segment the paper's
//! Charm++ build checkpoints into during rescale (§2.2): writes never
//! touch disk, survive a runtime restart (the store outlives the PE
//! threads), and are performed concurrently by all PEs — so checkpoint
//! wall time shrinks as replicas grow, the Fig. 5 behaviour.

use std::collections::HashMap;
use std::sync::Mutex;

use hpc_metrics::sync::locked;

use crate::codec::Bytes;
use crate::ids::{ChareId, PeId};

/// One chare's checkpointed state.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptEntry {
    /// The PE the chare lived on at checkpoint time — the restore
    /// mapping (shrink runs LB *before* checkpointing, so this is always
    /// a surviving PE).
    pub pe: PeId,
    /// Packed state bytes (shared, not copied, on the restore path).
    pub data: Bytes,
}

/// Shared-memory checkpoint segment.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<HashMap<ChareId, CkptEntry>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a batch of entries (one lock acquisition per PE batch).
    pub fn insert_batch(&self, entries: impl IntoIterator<Item = (ChareId, CkptEntry)>) {
        let mut map = locked(&self.inner);
        map.extend(entries);
    }

    /// Removes and returns the full checkpoint (the restore path
    /// consumes it).
    pub fn take(&self) -> HashMap<ChareId, CkptEntry> {
        std::mem::take(&mut *locked(&self.inner))
    }

    /// Discards any stored checkpoint.
    pub fn clear(&self) {
        locked(&self.inner).clear();
    }

    /// Number of checkpointed chares.
    pub fn len(&self) -> usize {
        locked(&self.inner).len()
    }

    /// `true` if no checkpoint is stored.
    pub fn is_empty(&self) -> bool {
        locked(&self.inner).is_empty()
    }

    /// Total payload bytes currently stored.
    #[cfg(test)]
    fn total_bytes(&self) -> usize {
        locked(&self.inner).values().map(|e| e.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ArrayId, Index};
    use std::sync::Arc;

    fn cid(i: u64) -> ChareId {
        ChareId::new(ArrayId(0), Index::d1(i))
    }

    #[test]
    fn batch_insert_and_take() {
        let store = CheckpointStore::new();
        store.insert_batch([
            (
                cid(0),
                CkptEntry {
                    pe: PeId(0),
                    data: Bytes::from(vec![1, 2]),
                },
            ),
            (
                cid(1),
                CkptEntry {
                    pe: PeId(1),
                    data: Bytes::from(vec![3]),
                },
            ),
        ]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 3);
        let taken = store.take();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[&cid(1)].pe, PeId(1));
        assert!(store.is_empty());
    }

    #[test]
    fn later_batch_overwrites_same_id() {
        let store = CheckpointStore::new();
        store.insert_batch([(
            cid(0),
            CkptEntry {
                pe: PeId(0),
                data: Bytes::from(vec![1]),
            },
        )]);
        store.insert_batch([(
            cid(0),
            CkptEntry {
                pe: PeId(2),
                data: Bytes::from(vec![9, 9]),
            },
        )]);
        assert_eq!(store.len(), 1);
        let taken = store.take();
        assert_eq!(taken[&cid(0)].pe, PeId(2));
        assert_eq!(taken[&cid(0)].data.to_vec(), vec![9, 9]);
    }

    #[test]
    fn clear_discards_everything() {
        let store = CheckpointStore::new();
        store.insert_batch([(
            cid(0),
            CkptEntry {
                pe: PeId(0),
                data: Bytes::from(vec![1]),
            },
        )]);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn concurrent_pe_batches_all_land() {
        let store = Arc::new(CheckpointStore::new());
        let mut handles = Vec::new();
        for pe in 0..8u32 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let batch: Vec<_> = (0..100)
                    .map(|i| {
                        (
                            cid(u64::from(pe) * 1000 + i),
                            CkptEntry {
                                pe: PeId(pe),
                                data: Bytes::from(vec![pe as u8; 16]),
                            },
                        )
                    })
                    .collect();
                store.insert_batch(batch);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 800);
        assert_eq!(store.total_bytes(), 800 * 16);
    }
}
