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
//! Every object lives in one `Arc<Stored<T>>`. The store's slot, each
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
//! ## A slab, and indexes that are lists through it
//!
//! Objects sit in `Vec` slots recycled through a free list; one hash
//! map resolves a name to its slot, keyed by the object's own
//! [`Resource::shared_name`], so a call hashes the name once. Each named
//! secondary index keeps, per key, a doubly-linked list threaded through
//! per-slot links. Filing an object, or re-filing it when a mutation
//! changes its key, is O(1): one hash of the new key — none when the key
//! is the very string the object's list is keyed by — and pointer
//! surgery, with no ordered comparison of names and no allocation (an
//! [`IndexKey`] is a constant or an `Arc<str>` shared with the objects;
//! the slot, link and list tables only grow to the peak live set). A
//! key whose list empties is dropped, so index state stays O(live
//! objects), however many keys the store has ever seen.
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
//!   objects one index files under one key, in filing order (the order
//!   they were created with, or last moved to, that key). It costs
//!   O(matches): one hash of the key, then a walk of its list, with no
//!   hashing per object visited.
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

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Anything storable: cloneable (for [`Store::update`]'s copy-on-write),
/// named, and shareable across threads — the store hands out `Arc`s of
/// what it holds.
pub trait Resource: Clone + Send + Sync + 'static {
    /// The object's unique-within-store name.
    fn name(&self) -> &str;

    /// The name as the shared string the store keys the object by. The
    /// default copies [`Resource::name`] into a fresh `Arc`; a type that
    /// holds its name as an `Arc<str>` hands out that one, so creating
    /// it allocates no key.
    fn shared_name(&self) -> Arc<str> {
        Arc::from(self.name())
    }
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
pub type KeyOf<T> = fn(&T) -> IndexKey<'_>;

/// A key [`KeyOf`] derives: text an index can keep without copying it.
#[derive(Debug, Clone, Copy)]
pub enum IndexKey<'a> {
    /// A string the object shares (its owner's name, say); the index
    /// keeps it by bumping its count.
    Shared(&'a Arc<str>),
    /// A constant (a lifecycle stage, say).
    Static(&'static str),
}

/// An [`IndexKey`] as an index keeps it; hashed and compared as its text.
enum Key {
    Shared(Arc<str>),
    Static(&'static str),
}

impl IndexKey<'_> {
    fn as_str(&self) -> &str {
        match self {
            IndexKey::Shared(key) => key,
            IndexKey::Static(key) => key,
        }
    }

    fn kept(self) -> Key {
        match self {
            IndexKey::Shared(key) => Key::Shared(Arc::clone(key)),
            IndexKey::Static(key) => Key::Static(key),
        }
    }
}

impl Key {
    fn as_str(&self) -> &str {
        match self {
            Key::Shared(key) => key,
            Key::Static(key) => key,
        }
    }
}

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        let (a, b) = (self.as_str(), other.as_str());
        std::ptr::eq(a, b) || a == b
    }
}

impl Eq for Key {}

/// A map of the store's, with the hasher every store's maps share: one
/// random key per process. Names come from clients, so the key stays
/// random (HashDoS); sharing it makes how a map grows and rehashes under
/// churn a function of what it holds, not of which map in the process it
/// is.
type Map<K> = HashMap<K, u32>;

fn map<K>() -> Map<K> {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    HashMap::with_hasher(STATE.get_or_init(RandomState::new).clone())
}

/// The end of a list.
const NIL: u32 = u32::MAX;

/// One key's objects: a doubly-linked list through the index's per-slot
/// [`Link`]s, in filing order.
struct List {
    /// The key; `None` while the list is free.
    key: Option<Key>,
    head: u32,
    tail: u32,
}

/// A slot's place in one index: its list and its neighbours there.
#[derive(Clone, Copy)]
struct Link {
    list: u32,
    prev: u32,
    next: u32,
}

/// One named secondary index (see the module docs).
struct Index<T> {
    name: &'static str,
    key_of: KeyOf<T>,
    /// Key → its list. A key is here exactly while its list is non-empty.
    by_key: Map<Key>,
    /// The lists, recycled through `free_lists`.
    lists: Vec<List>,
    free_lists: Vec<u32>,
    /// Per store slot (meaningless for a free one).
    links: Vec<Link>,
}

impl<T> Index<T> {
    fn new(name: &'static str, key_of: KeyOf<T>) -> Self {
        Index {
            name,
            key_of,
            by_key: map(),
            lists: Vec::new(),
            free_lists: Vec::new(),
            links: Vec::new(),
        }
    }

    /// The list of `key`, opened if the key has none.
    fn list_of(&mut self, key: IndexKey<'_>) -> u32 {
        match self.by_key.entry(key.kept()) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                let list = List {
                    key: Some(key.kept()),
                    head: NIL,
                    tail: NIL,
                };
                let id = match self.free_lists.pop() {
                    Some(id) => {
                        self.lists[id as usize] = list;
                        id
                    }
                    None => {
                        self.lists.push(list);
                        slot_number(self.lists.len() - 1)
                    }
                };
                *new.insert(id)
            }
        }
    }

    /// Links `slot` at the tail of list `id`.
    fn push_back(&mut self, id: u32, slot: u32) {
        let list = &mut self.lists[id as usize];
        let prev = list.tail;
        list.tail = slot;
        match prev {
            NIL => list.head = slot,
            prev => self.links[prev as usize].next = slot,
        }
        self.links[slot as usize] = Link {
            list: id,
            prev,
            next: NIL,
        };
    }

    /// Files `slot`, which holds `obj`, at the tail of its key's list.
    fn file(&mut self, slot: u32, obj: &T) {
        let list = self.list_of((self.key_of)(obj));
        self.push_back(list, slot);
    }

    /// Takes `slot` out of its list, dropping the list and its key if
    /// that empties it.
    fn unlink(&mut self, slot: u32) {
        let Link {
            list: id,
            prev,
            next,
        } = self.links[slot as usize];
        match prev {
            NIL => self.lists[id as usize].head = next,
            prev => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.lists[id as usize].tail = prev,
            next => self.links[next as usize].prev = prev,
        }
        let list = &mut self.lists[id as usize];
        if list.head == NIL {
            let key = list.key.take().expect("a live list has its key");
            self.by_key.remove(key.as_str());
            self.free_lists.push(id);
        }
    }

    /// Moves `slot` to the tail of `obj`'s key's list, unless it is in
    /// that list already. Hashes nothing when the key is the very string
    /// its list is keyed by.
    fn refile(&mut self, slot: u32, obj: &T) {
        let key = (self.key_of)(obj);
        let current = self.links[slot as usize].list;
        let filed_under = self.lists[current as usize].key.as_ref();
        if filed_under.is_some_and(|filed| std::ptr::eq(filed.as_str(), key.as_str())) {
            return;
        }
        let list = self.list_of(key);
        if list != current {
            self.unlink(slot);
            self.push_back(list, slot);
        }
    }
}

/// `at` as a slot or list number.
fn slot_number(at: usize) -> u32 {
    u32::try_from(at)
        .ok()
        .filter(|&n| n != NIL)
        .expect("fewer than 2³² - 1 objects")
}

struct StoreInner<T> {
    /// The objects; `None` marks a free slot.
    slots: Vec<Option<Arc<Stored<T>>>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
    /// Name → slot, keyed by each object's [`Resource::shared_name`].
    by_name: Map<Arc<str>>,
    watchers: Vec<Sender<WatchEvent<T>>>,
    indexes: Vec<Index<T>>,
}

impl<T> StoreInner<T> {
    fn get(&self, name: &str) -> Option<&Arc<Stored<T>>> {
        let slot = *self.by_name.get(name)?;
        self.slots[slot as usize].as_ref()
    }

    fn objects(&self) -> impl Iterator<Item = &Arc<Stored<T>>> {
        self.slots.iter().flatten()
    }
}

/// A typed object store. Cloning shares the underlying state.
///
/// See the [module docs](self) for how objects and indexes are laid out,
/// what is shared and which reads are borrowed, indexed or snapshots.
/// The closures passed to [`Store::read`], [`Store::for_each`],
/// [`Store::for_each_in`] and [`Store::update`] run under the store
/// lock: they must not call back into the same store, and `update`'s
/// must not rename the object.
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
        let indexes = (indexes.iter())
            .map(|&(name, key_of)| Index::new(name, key_of))
            .collect();
        Store {
            inner: Arc::new(Mutex::new(StoreInner {
                slots: Vec::new(),
                free: Vec::new(),
                by_name: map(),
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
        let Entry::Vacant(name) = inner.by_name.entry(obj.shared_name()) else {
            return Err(ApiError::AlreadyExists(obj.name().to_string()));
        };
        let stored = Arc::new(Stored {
            obj,
            uid: self.next_uid.fetch_add(1, Ordering::Relaxed),
            resource_version: self.next_rv.fetch_add(1, Ordering::Relaxed),
        });
        let slot = inner.free.pop().unwrap_or_else(|| {
            inner.slots.push(None);
            let unlinked = Link {
                list: NIL,
                prev: NIL,
                next: NIL,
            };
            for index in &mut inner.indexes {
                index.links.push(unlinked);
            }
            slot_number(inner.slots.len() - 1)
        });
        name.insert(slot);
        for index in &mut inner.indexes {
            index.file(slot, &stored.obj);
        }
        inner.slots[slot as usize] = Some(Arc::clone(&stored));
        Self::notify(inner, WatchEvent::Added, &stored);
        Ok(stored)
    }

    /// The named object as of now. Callers that need a field or two use
    /// [`Store::read`] instead.
    pub fn get(&self, name: &str) -> Option<Arc<Stored<T>>> {
        self.inner.lock().get(name).cloned()
    }

    /// A snapshot of all objects, in unspecified order. Counts as a
    /// full scan.
    pub fn list(&self) -> Vec<Arc<Stored<T>>> {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().objects().cloned().collect()
    }

    /// Borrowed read: runs `f` on the named object under the store
    /// lock and returns its answer, or `None` if the name is unknown.
    pub fn read<R>(&self, name: &str, f: impl FnOnce(&Stored<T>) -> R) -> Option<R> {
        self.inner.lock().get(name).map(|s| f(s))
    }

    /// Borrowed scan: runs `f` on every object under the store lock
    /// (unspecified order). Counts as a full scan.
    pub fn for_each(&self, f: impl FnMut(&Arc<Stored<T>>)) {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().objects().for_each(f);
    }

    /// Indexed scan: runs `f`, under the store lock and in filing order,
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
        let Some(&list) = index.by_key.get(key) else {
            return;
        };
        let mut at = index.lists[list as usize].head;
        while at != NIL {
            f(inner.slots[at as usize]
                .as_ref()
                .expect("a filed slot is full"));
            at = index.links[at as usize].next;
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
        self.inner.lock().by_name.len()
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
        let slot =
            *(inner.by_name.get(name)).ok_or_else(|| ApiError::NotFound(name.to_string()))?;
        let shared = inner.slots[slot as usize]
            .as_mut()
            .expect("a named slot is full");
        let stored = Arc::make_mut(shared);
        mutate(&mut stored.obj);
        stored.resource_version = self.next_rv.fetch_add(1, Ordering::Relaxed);
        for index in &mut inner.indexes {
            index.refile(slot, &stored.obj);
        }
        let stored = Arc::clone(shared);
        Self::notify(inner, WatchEvent::Modified, &stored);
        Ok(stored)
    }

    /// Removes by name, returning the last state. Copies nothing.
    pub fn delete(&self, name: &str) -> Result<Arc<Stored<T>>, ApiError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let slot =
            (inner.by_name.remove(name)).ok_or_else(|| ApiError::NotFound(name.to_string()))?;
        let stored = inner.slots[slot as usize]
            .take()
            .expect("a named slot is full");
        for index in &mut inner.indexes {
            index.unlink(slot);
        }
        inner.free.push(slot);
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
        let snapshot = inner.objects().cloned().collect();
        let (tx, rx) = unbounded();
        inner.watchers.push(tx);
        (snapshot, rx)
    }
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use super::*;

    /// `System`, counting the calls of the thread that makes them, so a
    /// test can hold "this makes no allocation" while others run.
    struct Counting;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn count_allocation() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`;
    // the counter is a statistic and guards nothing.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_allocation();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count_allocation();
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_allocation();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

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
    fn sign(o: &Obj) -> IndexKey<'static> {
        IndexKey::Static(if o.value < 0 { "neg" } else { "pos" })
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
        assert_eq!(names_in(&store, "pos"), ["b", "a"], "filing order");
        assert_eq!(names_in(&store, "neg"), ["c"]);
        assert!(names_in(&store, "other").is_empty());
        // An update that changes the key re-files the object at the new
        // key's tail; one that does not leaves it where it is.
        store.update("a", |o| o.value = -5).unwrap();
        store.update("b", |o| o.value = 7).unwrap();
        assert_eq!(names_in(&store, "pos"), ["b"]);
        assert_eq!(names_in(&store, "neg"), ["c", "a"]);
        store.delete("c").unwrap();
        store.delete("b").unwrap();
        assert!(names_in(&store, "pos").is_empty());
        assert_eq!(names_in(&store, "neg"), ["a"]);
        assert_eq!(store.full_scans(), 0, "indexed reads are not scans");
    }

    #[test]
    fn for_each_in_visits_in_filing_order() {
        let store: Store<Obj> = Store::indexed(&[("sign", sign)]);
        for name in ["z", "m", "a", "q"] {
            store.create(obj(name, 1)).unwrap();
        }
        assert_eq!(
            names_in(&store, "pos"),
            ["z", "m", "a", "q"],
            "not name order"
        );
        // Leaving a key and coming back is filing afresh.
        store.update("m", |o| o.value = -1).unwrap();
        store.update("m", |o| o.value = 2).unwrap();
        // Head, middle and tail unlink alike.
        store.update("z", |o| o.value = -1).unwrap();
        assert_eq!(names_in(&store, "pos"), ["a", "q", "m"]);
        store.update("m", |o| o.value = -2).unwrap();
        assert_eq!(names_in(&store, "pos"), ["a", "q"]);
        assert_eq!(names_in(&store, "neg"), ["z", "m"]);
    }

    #[test]
    fn a_freed_slot_is_never_visited() {
        let store: Store<Obj> = Store::indexed(&[("sign", sign)]);
        for (name, value) in [("a", 1), ("b", 2), ("c", 3)] {
            store.create(obj(name, value)).unwrap();
        }
        store.delete("b").unwrap();
        assert_eq!(names_in(&store, "pos"), ["a", "c"]);
        let mut all: Vec<String> = store.list().iter().map(|s| s.obj.name.clone()).collect();
        all.sort();
        assert_eq!(all, ["a", "c"], "a full scan skips the free slot");
        // The freed slot is reused, under another key: neither list
        // reaches it through a stale link.
        store.create(obj("d", -1)).unwrap();
        assert_eq!(store.inner.lock().slots.len(), 3, "b's slot is d's");
        assert_eq!(names_in(&store, "pos"), ["a", "c"]);
        assert_eq!(names_in(&store, "neg"), ["d"]);
        for name in ["a", "c", "d"] {
            store.delete(name).unwrap();
        }
        assert!(names_in(&store, "pos").is_empty() && names_in(&store, "neg").is_empty());
        assert!(store.list().is_empty());
    }

    #[test]
    fn a_recreated_name_is_filed_afresh_at_its_keys_tail() {
        let store: Store<Obj> = Store::indexed(&[("sign", sign)]);
        for name in ["a", "b", "c"] {
            store.create(obj(name, 1)).unwrap();
        }
        let first = store.delete("a").unwrap();
        let again = store.create(obj("a", 1)).unwrap();
        assert_ne!(first.uid, again.uid);
        assert_eq!(names_in(&store, "pos"), ["b", "c", "a"]);
    }

    #[test]
    fn index_state_is_o_live() {
        use crate::resources::Pod;
        use hpc_metrics::SimTime;

        const PODS: usize = 10_000;
        const LIVE: usize = 500;
        let owners: Vec<Arc<str>> = (0..1_000).map(|j| format!("j{j}").into()).collect();
        let pods = Pod::store();
        let mut peak = 0;
        for i in 0..PODS {
            let owner = Arc::clone(&owners[i % owners.len()]);
            pods.create(Pod::worker(format!("p{i}"), owner, SimTime::ZERO))
                .unwrap();
            peak = peak.max(pods.len());
            // Bound: re-filed from "unbound" to "starting".
            pods.update(&format!("p{i}"), |p| p.node = Some("n0".into()))
                .unwrap();
            if i >= LIVE {
                pods.delete(&format!("p{}", i - LIVE)).unwrap();
            }
        }
        for i in PODS - LIVE..PODS {
            pods.delete(&format!("p{i}")).unwrap();
        }
        assert_eq!(peak, LIVE + 1);
        let inner = pods.inner.lock();
        assert!(inner.by_name.is_empty());
        assert!(inner.slots.len() <= peak, "{} slots", inner.slots.len());
        for index in &inner.indexes {
            assert!(index.by_key.is_empty(), "{} keeps keys", index.name);
            assert!(index.lists.iter().all(|l| l.key.is_none()));
            assert_eq!(index.lists.len(), index.free_lists.len());
            assert_eq!(index.links.len(), inner.slots.len());
        }
        assert!(inner.indexes[0].lists.len() <= peak);
    }

    #[test]
    fn refiling_allocates_nothing_and_shares_its_keys() {
        use crate::resources::{Pod, PodPhase};
        use hpc_metrics::SimTime;

        let owner: Arc<str> = "j".into();
        let pods = Pod::store();
        for i in 0..8 {
            let pod = Pod {
                node: Some("n0".into()),
                phase: PodPhase::Running,
                ..Pod::worker(format!("p{i}"), Arc::clone(&owner), SimTime::ZERO)
            };
            pods.create(pod).unwrap();
        }
        // Held by the test, by each pod twice (owner and affinity
        // group), and once each by the owner index's map and list.
        assert_eq!(Arc::strong_count(&owner), 1 + 2 * 8 + 2, "keys are shared");
        // Each round moves a pod settled → terminating → settled: two
        // re-files that empty and re-open the terminating list.
        let round = |i: usize| {
            let name = format!("p{}", i % 8);
            let before = allocations();
            drop(pods.update(&name, |p| p.deleting = true).unwrap());
            drop(pods.update(&name, |p| p.deleting = false).unwrap());
            allocations() - before
        };
        round(0);
        let allocated: u64 = (1..1_000).map(round).sum();
        assert_eq!(allocated, 0, "an update that re-files allocates nothing");
        assert_eq!(Arc::strong_count(&owner), 1 + 2 * 8 + 2);
    }

    #[test]
    #[should_panic(expected = "no index")]
    fn for_each_in_needs_an_index() {
        let store: Store<Obj> = Store::new();
        store.for_each_in("sign", "k", |_| {});
    }

    proptest::proptest! {
        /// After any create/update/delete sequence, the index holds
        /// exactly what filtering a full snapshot by key would, in the
        /// order a model of filing gives: an object joins its key's tail
        /// when it is created or its key changes.
        #[test]
        fn index_equals_filtered_list(
            ops in proptest::collection::vec(proptest::any::<u32>(), 1..200),
        ) {
            let store: Store<Obj> = Store::indexed(&[("sign", sign)]);
            // Every live object, in the order it joined its key.
            let mut filed: Vec<(String, String)> = Vec::new();
            for word in ops {
                let name = format!("o{}", (word >> 2) % 12);
                let value = i64::from((word >> 8) % 7) - 3;
                let key = sign(&obj(&name, value)).as_str().to_string();
                let at = filed.iter().position(|(n, _)| *n == name);
                match word % 4 {
                    0 | 1 => {
                        if store.create(obj(&name, value)).is_ok() {
                            filed.push((name, key));
                        }
                    }
                    2 => {
                        if store.update(&name, |o| o.value = value).is_ok() {
                            let at = at.expect("updated a live object");
                            if filed[at].1 != key {
                                filed.remove(at);
                                filed.push((name, key));
                            }
                        }
                    }
                    _ => {
                        if store.delete(&name).is_ok() {
                            filed.remove(at.expect("deleted a live object"));
                        }
                    }
                }
                for key in ["neg", "pos"] {
                    let indexed = names_in(&store, key);
                    let mut expected: Vec<String> = store
                        .list()
                        .into_iter()
                        .filter(|s| sign(&s.obj).as_str() == key)
                        .map(|s| s.obj.name.clone())
                        .collect();
                    expected.sort();
                    let mut members = indexed.clone();
                    members.sort();
                    proptest::prop_assert_eq!(members, expected, "membership");
                    let in_filing_order: Vec<String> = (filed.iter())
                        .filter(|(_, k)| k == key)
                        .map(|(n, _)| n.clone())
                        .collect();
                    proptest::prop_assert_eq!(indexed, in_filing_order, "filing order");
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
