//! The API object store.
//!
//! A minimal analogue of the Kubernetes API server: typed object stores
//! with unique names, monotonically increasing resource versions, and
//! watch streams delivering Added/Modified/Deleted events. Controllers
//! (the pod scheduler, the kubelet, the CharmJob operator) interact with
//! cluster state exclusively through this interface, which is what makes
//! the in-process substitution behaviour-preserving: the policy code
//! sees the same state-machine surface a real operator would.
//!
//! ## Objects are shared, not copied
//!
//! Every object lives in one `Arc<Stored<T>>`. The store's map, each
//! [`WatchEvent`] in each watcher's queue, and the values
//! [`Store::create`], [`Store::update`], [`Store::delete`],
//! [`Store::get`], [`Store::list`] and [`Store::list_watch`] return are
//! pointer clones of it (the client-go shared-informer / kube-rs
//! reflector idiom): an object costs its memory once, however many
//! watchers queue it. The one deep copy left is [`Store::update`]'s
//! copy-on-write — at most one `T::clone` per mutation, and only while
//! something else (an undrained event, a held snapshot) still points at
//! the previous version; create and delete copy nothing.
//!
//! ## Three kinds of read
//!
//! A store outlives most of what it holds (the CharmJob store keeps
//! every job ever submitted), so what a read costs matters as much as
//! what it returns:
//!
//! * **Borrowed** — [`Store::read`] and [`Store::for_each`] hand the
//!   caller the stored object under the store lock. `read` is one hash
//!   lookup; `for_each` visits every object.
//! * **Indexed** — a store built with [`Store::indexed`] keeps named
//!   secondary indexes (the client-go *Indexer* idiom) up to date inside
//!   `create`/`update`/`delete`; [`Store::for_each_in`] visits only the
//!   objects one index files under one key, in name order.
//! * **Snapshot** — [`Store::get`], [`Store::list`] and
//!   [`Store::list_watch`] return `Arc`s that stay valid (and keep
//!   showing the version they were taken at) after the lock is
//!   released. Holding one across an `update` of the same object is
//!   what makes that update copy.
//!
//! Reconcile loops use the first two; [`Store::full_scans`] counts the
//! reads that visit every object (`list`, `list_watch`, `for_each`) so
//! a test can hold "this path does not scan that store" as an exact
//! count instead of a timing.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Anything storable: cloneable (for [`Store::update`]'s copy-on-write),
/// named, and shareable across threads — the store hands out `Arc`s of
/// what it holds.
pub trait Resource: Clone + Send + Sync + 'static {
    /// The object's unique-within-store name.
    fn name(&self) -> &str;
}

/// A stored object plus server-assigned metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Stored<T> {
    /// The object.
    pub obj: T,
    /// Server-assigned unique id (never reused).
    pub uid: u64,
    /// Bumped on every mutation.
    pub resource_version: u64,
}

/// A watch stream event. The object is shared with the store and with
/// every other watcher's copy of the event.
#[derive(Debug, Clone, PartialEq)]
pub enum WatchEvent<T> {
    /// Object created.
    Added(Arc<Stored<T>>),
    /// Object mutated.
    Modified(Arc<Stored<T>>),
    /// Object removed.
    Deleted(Arc<Stored<T>>),
}

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// Create of an existing name.
    AlreadyExists(String),
    /// Get/update/delete of a missing name.
    NotFound(String),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::AlreadyExists(n) => write!(f, "object {n:?} already exists"),
            ApiError::NotFound(n) => write!(f, "object {n:?} not found"),
        }
    }
}

impl std::error::Error for ApiError {}

/// What a secondary index files an object under.
pub type KeyOf<T> = fn(&T) -> &str;

/// One named secondary index: object names filed under the key `key_of`
/// derives from each object. Keys and names are `Arc<str>`s shared with
/// the store's map, so moving an object between keys allocates nothing.
struct Index<T> {
    name: &'static str,
    key_of: KeyOf<T>,
    names_by_key: HashMap<Arc<str>, BTreeSet<Arc<str>>>,
    /// The key an object about to be mutated is filed under
    /// ([`Index::mark`] → [`Index::refile`]).
    marked: Option<Arc<str>>,
}

impl<T> Index<T> {
    fn file(&mut self, obj: &T, name: Arc<str>) {
        let key = (self.key_of)(obj);
        match self.names_by_key.get_mut(key) {
            Some(names) => names.insert(name),
            None => self
                .names_by_key
                .entry(Arc::from(key))
                .or_default()
                .insert(name),
        };
    }

    /// Unfiles `name` from under `key` and returns the shared name.
    fn unfile(&mut self, key: &str, name: &str) -> Arc<str> {
        let names = self.names_by_key.get_mut(key).expect("key is indexed");
        let name = names.take(name).expect("object is filed under its key");
        if names.is_empty() {
            self.names_by_key.remove(key);
        }
        name
    }

    /// Remembers the key `obj` is filed under, before it is mutated.
    fn mark(&mut self, obj: &T) {
        let (key, _) = self
            .names_by_key
            .get_key_value((self.key_of)(obj))
            .expect("object is filed under its key");
        self.marked = Some(Arc::clone(key));
    }

    /// Moves `name` from the marked key to `obj`'s, if they differ.
    fn refile(&mut self, obj: &T, name: &str) {
        let before = self.marked.take().expect("marked before the mutation");
        if *before != *(self.key_of)(obj) {
            let name = self.unfile(&before, name);
            self.file(obj, name);
        }
    }
}

struct StoreInner<T> {
    objects: HashMap<Arc<str>, Arc<Stored<T>>>,
    watchers: Vec<Sender<WatchEvent<T>>>,
    indexes: Vec<Index<T>>,
}

/// A typed object store. Cloning shares the underlying state.
///
/// See the [module docs](self) for what is shared and which reads are
/// borrowed, indexed or snapshots. The closures passed to
/// [`Store::read`], [`Store::for_each`], [`Store::for_each_in`] and
/// [`Store::update`] run under the store lock: they must not call back
/// into the same store.
pub struct Store<T: Resource> {
    inner: Arc<Mutex<StoreInner<T>>>,
    next_uid: Arc<AtomicU64>,
    next_rv: Arc<AtomicU64>,
    full_scans: Arc<AtomicU64>,
}

impl<T: Resource> Clone for Store<T> {
    fn clone(&self) -> Self {
        Store {
            inner: Arc::clone(&self.inner),
            next_uid: Arc::clone(&self.next_uid),
            next_rv: Arc::clone(&self.next_rv),
            full_scans: Arc::clone(&self.full_scans),
        }
    }
}

impl<T: Resource> Default for Store<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Resource> Store<T> {
    /// An empty store.
    pub fn new() -> Self {
        Self::indexed(&[])
    }

    /// An empty store that also files every object, in each named
    /// index, under that index's `key_of(&obj)`, so
    /// [`Store::for_each_in`] can visit one key's objects without
    /// touching the rest (pods by owning job, say, and by lifecycle
    /// stage).
    pub fn indexed(indexes: &[(&'static str, KeyOf<T>)]) -> Self {
        let indexes = indexes
            .iter()
            .map(|&(name, key_of)| Index {
                name,
                key_of,
                names_by_key: HashMap::new(),
                marked: None,
            })
            .collect();
        Store {
            inner: Arc::new(Mutex::new(StoreInner {
                objects: HashMap::new(),
                watchers: Vec::new(),
                indexes,
            })),
            next_uid: Arc::new(AtomicU64::new(1)),
            next_rv: Arc::new(AtomicU64::new(1)),
            full_scans: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sends every watcher its own pointer to `stored`, wrapped by
    /// `kind`, and prunes the watchers that hung up.
    fn notify(
        inner: &mut StoreInner<T>,
        kind: fn(Arc<Stored<T>>) -> WatchEvent<T>,
        stored: &Arc<Stored<T>>,
    ) {
        inner
            .watchers
            .retain(|w| w.send(kind(Arc::clone(stored))).is_ok());
    }

    /// Creates `obj`; fails if the name exists. Copies nothing.
    pub fn create(&self, obj: T) -> Result<Arc<Stored<T>>, ApiError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if inner.objects.contains_key(obj.name()) {
            return Err(ApiError::AlreadyExists(obj.name().to_string()));
        }
        let name: Arc<str> = Arc::from(obj.name());
        let stored = Arc::new(Stored {
            obj,
            uid: self.next_uid.fetch_add(1, Ordering::Relaxed),
            resource_version: self.next_rv.fetch_add(1, Ordering::Relaxed),
        });
        for index in &mut inner.indexes {
            index.file(&stored.obj, Arc::clone(&name));
        }
        inner.objects.insert(name, Arc::clone(&stored));
        Self::notify(inner, WatchEvent::Added, &stored);
        Ok(stored)
    }

    /// The named object as of now. Callers that need a field or two use
    /// [`Store::read`] instead.
    pub fn get(&self, name: &str) -> Option<Arc<Stored<T>>> {
        self.inner.lock().objects.get(name).cloned()
    }

    /// A snapshot of all objects, in unspecified order. Counts as a
    /// full scan.
    pub fn list(&self) -> Vec<Arc<Stored<T>>> {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().objects.values().cloned().collect()
    }

    /// Borrowed read: runs `f` on the named object under the store
    /// lock and returns its answer, or `None` if the name is unknown.
    pub fn read<R>(&self, name: &str, f: impl FnOnce(&Stored<T>) -> R) -> Option<R> {
        self.inner.lock().objects.get(name).map(|s| f(s))
    }

    /// Borrowed scan: runs `f` on every object under the store lock
    /// (unspecified order). Counts as a full scan.
    pub fn for_each(&self, mut f: impl FnMut(&Arc<Stored<T>>)) {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().objects.values().for_each(&mut f);
    }

    /// Indexed scan: runs `f`, under the store lock and in name order,
    /// on exactly the objects `index` files under `key`. Costs
    /// O(matches), whatever else the store holds.
    ///
    /// # Panics
    /// If the store was not built with an index of that name.
    pub fn for_each_in(&self, index: &str, key: &str, mut f: impl FnMut(&Arc<Stored<T>>)) {
        let inner = self.inner.lock();
        let index = (inner.indexes.iter())
            .find(|i| i.name == index)
            .unwrap_or_else(|| panic!("store has no index {index:?}"));
        for name in index.names_by_key.get(key).into_iter().flatten() {
            f(&inner.objects[name]);
        }
    }

    /// How many reads have visited every object so far ([`Store::list`],
    /// [`Store::list_watch`], [`Store::for_each`]), over all clones of
    /// this store.
    pub fn full_scans(&self) -> u64 {
        self.full_scans.load(Ordering::Relaxed)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.inner.lock().objects.len()
    }

    /// `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies `mutate` to the named object under the store lock and
    /// bumps its resource version. Copy-on-write: the object is cloned
    /// first, once, if anything else still holds the previous version.
    pub fn update(
        &self,
        name: &str,
        mutate: impl FnOnce(&mut T),
    ) -> Result<Arc<Stored<T>>, ApiError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let shared = inner
            .objects
            .get_mut(name)
            .ok_or_else(|| ApiError::NotFound(name.to_string()))?;
        for index in &mut inner.indexes {
            index.mark(&shared.obj);
        }
        let stored = Arc::make_mut(shared);
        mutate(&mut stored.obj);
        stored.resource_version = self.next_rv.fetch_add(1, Ordering::Relaxed);
        for index in &mut inner.indexes {
            index.refile(&stored.obj, name);
        }
        let stored = Arc::clone(shared);
        Self::notify(inner, WatchEvent::Modified, &stored);
        Ok(stored)
    }

    /// Removes by name, returning the last state. Copies nothing.
    pub fn delete(&self, name: &str) -> Result<Arc<Stored<T>>, ApiError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let stored = inner
            .objects
            .remove(name)
            .ok_or_else(|| ApiError::NotFound(name.to_string()))?;
        for index in &mut inner.indexes {
            index.unfile((index.key_of)(&stored.obj), name);
        }
        Self::notify(inner, WatchEvent::Deleted, &stored);
        Ok(stored)
    }

    /// Opens a watch stream; events for subsequent mutations are
    /// delivered in order. (No replay of existing state — callers list
    /// first, like informers do, or use [`Store::list_watch`] to get
    /// both without a gap.)
    pub fn watch(&self) -> Receiver<WatchEvent<T>> {
        let (tx, rx) = unbounded();
        self.inner.lock().watchers.push(tx);
        rx
    }

    /// Returns the current state *and* a watch stream, atomically: every
    /// mutation is either reflected in the snapshot or delivered on the
    /// stream, never both and never neither. A separate `list()` +
    /// `watch()` pair races — an object created between the two calls is
    /// missing from the snapshot and produces no event. Informer-style
    /// consumers (the CharmJob reconciler) must use this. The snapshot
    /// counts as a full scan.
    pub fn list_watch(&self) -> (Vec<Arc<Stored<T>>>, Receiver<WatchEvent<T>>) {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let snapshot = inner.objects.values().cloned().collect();
        let (tx, rx) = unbounded();
        inner.watchers.push(tx);
        (snapshot, rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Obj {
        name: String,
        value: i64,
    }

    impl Resource for Obj {
        fn name(&self) -> &str {
            &self.name
        }
    }

    fn obj(name: &str, value: i64) -> Obj {
        Obj {
            name: name.to_string(),
            value,
        }
    }

    #[test]
    fn create_get_list_delete() {
        let store: Store<Obj> = Store::new();
        let a = store.create(obj("a", 1)).unwrap();
        assert_eq!(a.uid, 1);
        assert!(store.create(obj("a", 2)).is_err());
        store.create(obj("b", 2)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("a").unwrap().obj.value, 1);
        assert!(store.get("zzz").is_none());
        let deleted = store.delete("a").unwrap();
        assert_eq!(deleted.obj.value, 1);
        assert!(store.delete("a").is_err());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn update_bumps_resource_version() {
        let store: Store<Obj> = Store::new();
        let v1 = store.create(obj("a", 1)).unwrap();
        let v2 = store.update("a", |o| o.value = 42).unwrap();
        assert!(v2.resource_version > v1.resource_version);
        assert_eq!(v2.uid, v1.uid, "uid stable across updates");
        assert_eq!(store.get("a").unwrap().obj.value, 42);
        assert!(matches!(
            store.update("zzz", |_| {}),
            Err(ApiError::NotFound(_))
        ));
    }

    #[test]
    fn uids_never_reused() {
        let store: Store<Obj> = Store::new();
        let a = store.create(obj("a", 1)).unwrap();
        store.delete("a").unwrap();
        let a2 = store.create(obj("a", 1)).unwrap();
        assert_ne!(a.uid, a2.uid);
    }

    #[test]
    fn watch_delivers_lifecycle_in_order() {
        let store: Store<Obj> = Store::new();
        let rx = store.watch();
        store.create(obj("a", 1)).unwrap();
        store.update("a", |o| o.value = 2).unwrap();
        store.delete("a").unwrap();
        assert!(matches!(rx.try_recv().unwrap(), WatchEvent::Added(s) if s.obj.value == 1));
        assert!(matches!(rx.try_recv().unwrap(), WatchEvent::Modified(s) if s.obj.value == 2));
        assert!(matches!(rx.try_recv().unwrap(), WatchEvent::Deleted(_)));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn dropped_watchers_are_pruned() {
        let store: Store<Obj> = Store::new();
        let rx = store.watch();
        drop(rx);
        // Must not error or leak.
        store.create(obj("a", 1)).unwrap();
        let rx2 = store.watch();
        store.update("a", |o| o.value = 5).unwrap();
        assert!(matches!(rx2.try_recv().unwrap(), WatchEvent::Modified(_)));
    }

    #[test]
    fn clones_share_state() {
        let store: Store<Obj> = Store::new();
        let clone = store.clone();
        store.create(obj("a", 1)).unwrap();
        assert_eq!(clone.get("a").unwrap().obj.value, 1);
    }

    #[test]
    fn list_watch_has_no_gap_and_no_overlap() {
        let store: Store<Obj> = Store::new();
        store.create(obj("a", 1)).unwrap();
        store.create(obj("b", 2)).unwrap();
        let (snapshot, rx) = store.list_watch();
        store.create(obj("c", 3)).unwrap();
        store.update("a", |o| o.value = 10).unwrap();
        let mut seen: Vec<String> = snapshot.iter().map(|s| s.obj.name.clone()).collect();
        seen.sort();
        assert_eq!(seen, vec!["a", "b"], "snapshot is pre-watch state only");
        assert!(matches!(rx.try_recv().unwrap(), WatchEvent::Added(s) if s.obj.name == "c"));
        assert!(matches!(rx.try_recv().unwrap(), WatchEvent::Modified(s) if s.obj.value == 10));
        assert!(rx.try_recv().is_err(), "no replay of snapshot objects");
    }

    #[test]
    fn list_watch_atomic_under_concurrent_writes() {
        // A writer thread creates 400 objects while the reader opens
        // list_watch mid-stream: snapshot ∪ events must cover every
        // object exactly once (the race a separate list()+watch() has).
        let store: Store<Obj> = Store::new();
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..400 {
                    store.create(obj(&format!("o{i}"), i)).unwrap();
                    if i == 200 {
                        std::thread::yield_now();
                    }
                }
            })
        };
        // Open mid-write (roughly); correctness does not depend on when.
        std::thread::yield_now();
        let (snapshot, rx) = store.list_watch();
        writer.join().unwrap();
        let mut names: Vec<String> = snapshot.iter().map(|s| s.obj.name.clone()).collect();
        while let Ok(ev) = rx.try_recv() {
            if let WatchEvent::Added(s) = ev {
                names.push(s.obj.name.clone());
            }
        }
        names.sort();
        assert_eq!(
            names.len(),
            400,
            "every object exactly once (no gap, no overlap)"
        );
        names.dedup();
        assert_eq!(
            names.len(),
            400,
            "no duplicates between snapshot and stream"
        );
    }

    #[test]
    fn borrowed_reads_clone_nothing_and_scans_are_counted() {
        let store: Store<Obj> = Store::new();
        store.create(obj("a", 1)).unwrap();
        store.create(obj("b", 2)).unwrap();
        assert_eq!(store.read("a", |s| s.obj.value), Some(1));
        assert_eq!(store.read("zzz", |s| s.obj.value), None);
        assert!(store.get("b").is_some());
        store.update("a", |o| o.value = 3).unwrap();
        assert_eq!(store.full_scans(), 0, "point reads and writes never scan");

        let mut sum = 0;
        store.for_each(|s| sum += s.obj.value);
        assert_eq!(sum, 5);
        assert_eq!(store.list().len(), 2);
        let (snapshot, _rx) = store.clone().list_watch();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(store.full_scans(), 3, "for_each + list + list_watch");
    }

    /// Indexed by the sign of the value: "neg" or "pos".
    fn sign(o: &Obj) -> &str {
        if o.value < 0 {
            "neg"
        } else {
            "pos"
        }
    }

    fn names_in(store: &Store<Obj>, key: &str) -> Vec<String> {
        let mut names = Vec::new();
        store.for_each_in("sign", key, |s| names.push(s.obj.name.clone()));
        names
    }

    #[test]
    fn index_follows_create_update_delete() {
        let store: Store<Obj> = Store::indexed(&[("sign", sign)]);
        store.create(obj("b", 1)).unwrap();
        store.create(obj("a", 2)).unwrap();
        store.create(obj("c", -1)).unwrap();
        assert_eq!(names_in(&store, "pos"), ["a", "b"], "name order");
        assert_eq!(names_in(&store, "neg"), ["c"]);
        assert!(names_in(&store, "other").is_empty());
        // An update that changes the key re-files the object; one that
        // does not leaves it where it is.
        store.update("a", |o| o.value = -5).unwrap();
        store.update("b", |o| o.value = 7).unwrap();
        assert_eq!(names_in(&store, "pos"), ["b"]);
        assert_eq!(names_in(&store, "neg"), ["a", "c"]);
        store.delete("c").unwrap();
        store.delete("b").unwrap();
        assert!(names_in(&store, "pos").is_empty());
        assert_eq!(names_in(&store, "neg"), ["a"]);
        assert_eq!(store.full_scans(), 0, "indexed reads are not scans");
    }

    #[test]
    #[should_panic(expected = "no index")]
    fn for_each_in_needs_an_index() {
        let store: Store<Obj> = Store::new();
        store.for_each_in("sign", "k", |_| {});
    }

    proptest::proptest! {
        /// After any create/update/delete sequence, the index answers
        /// exactly what filtering a full snapshot by key would.
        #[test]
        fn index_equals_filtered_list(
            ops in proptest::collection::vec(proptest::any::<u32>(), 1..200),
        ) {
            let store: Store<Obj> = Store::indexed(&[("sign", sign)]);
            for word in ops {
                let name = format!("o{}", (word >> 2) % 12);
                let value = i64::from((word >> 8) % 7) - 3;
                match word % 4 {
                    0 | 1 => {
                        let _ = store.create(obj(&name, value));
                    }
                    2 => {
                        let _ = store.update(&name, |o| o.value = value);
                    }
                    _ => {
                        let _ = store.delete(&name);
                    }
                }
                for key in ["neg", "pos"] {
                    let mut expected: Vec<String> = store
                        .list()
                        .into_iter()
                        .filter(|s| sign(&s.obj) == key)
                        .map(|s| s.obj.name.clone())
                        .collect();
                    expected.sort();
                    proptest::prop_assert_eq!(names_in(&store, key), expected);
                }
            }
        }
    }

    /// A resource whose `Clone` counts itself: every deep copy the
    /// store makes of it shows up in `copies`.
    #[derive(Debug)]
    struct Counted {
        name: String,
        value: i64,
        copies: Arc<AtomicU64>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.copies.fetch_add(1, Ordering::Relaxed);
            Counted {
                name: self.name.clone(),
                value: self.value,
                copies: Arc::clone(&self.copies),
            }
        }
    }

    impl Resource for Counted {
        fn name(&self) -> &str {
            &self.name
        }
    }

    #[test]
    fn a_mutation_deep_copies_at_most_once_whatever_the_watchers() {
        for watchers in [0, 1, 3] {
            let copies = Arc::new(AtomicU64::new(0));
            let count = || copies.load(Ordering::Relaxed);
            let store: Store<Counted> = Store::new();
            let streams: Vec<_> = (0..watchers).map(|_| store.watch()).collect();
            let counted = Counted {
                name: "a".into(),
                value: 1,
                copies: Arc::clone(&copies),
            };
            store.create(counted).unwrap();
            assert_eq!(count(), 0, "create, {watchers} watchers");
            // The queued `Added` events still show value 1, so the
            // update must leave that version alone: one copy for all of
            // them, none when nobody else points at the object.
            store.update("a", |o| o.value = 2).unwrap();
            assert_eq!(count(), u64::from(watchers > 0), "{watchers} watchers");
            let held = store.get("a").unwrap();
            let before = count();
            store.update("a", |o| o.value = 3).unwrap();
            assert_eq!(count() - before, 1, "a held snapshot is never rewritten");
            assert_eq!(held.obj.value, 2);
            let before = count();
            let last = store.delete("a").unwrap();
            assert_eq!(count(), before, "delete, {watchers} watchers");

            // Every watcher got the same four objects, not copies.
            for rx in &streams {
                let values: Vec<i64> = std::iter::from_fn(|| rx.try_recv().ok())
                    .map(|ev| {
                        let (WatchEvent::Added(s)
                        | WatchEvent::Modified(s)
                        | WatchEvent::Deleted(s)) = ev;
                        if s.obj.value == 3 {
                            assert!(Arc::ptr_eq(&s, &last));
                        }
                        s.obj.value
                    })
                    .collect();
                assert_eq!(values, [1, 2, 3, 3]);
            }
            assert_eq!(count(), before, "reading events copies nothing");
        }
    }

    #[test]
    fn concurrent_creates_unique_uids() {
        let store: Store<Obj> = Store::new();
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store.create(obj(&format!("{t}-{i}"), 0)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut uids: Vec<u64> = store.list().iter().map(|s| s.uid).collect();
        uids.sort_unstable();
        uids.dedup();
        assert_eq!(uids.len(), 800);
    }
}
