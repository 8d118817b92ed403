//! Index == scan, generated.
//!
//! The pod controllers walk the pod store's lifecycle-stage index, and
//! a job's teardown its owner index, editing as they go. The versions
//! they replaced — one full borrowed scan each, the `String`-keyed
//! placement maps, and a per-name call for each pod read — live on here
//! as the references: the same generated history of pod creates,
//! binding rounds, kubelet rounds, deletion requests, hard deletes, a
//! job's graceful (past a count) or hard release, garbage collections
//! and behind-the-back failures is applied to an indexed world and to a
//! scanning one, and after every step both must have returned the same
//! thing and hold the same pods, and every index of the indexed store
//! must hold what a full scan of it files under each key, in the order a
//! model fed by the store's own watch stream files it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use hpc_metrics::{Duration, SimTime, VirtualClock};

use crate::api::{Store, WatchEvent};
use crate::cluster::ControlPlane;
use crate::kubelet::{Kubelet, KubeletConfig};
use crate::resources::{Node, Pod, PodPhase, PodRole, PodStage};
use crate::scheduler::{PodScheduler, ScheduleOutcome};

/// The scanning scheduler pass: pending pods cloned out of a full scan,
/// placements counted into maps keyed by node and group name.
fn schedule_once_by_scan(nodes: &Store<Node>, pods: &Store<Pod>) -> ScheduleOutcome {
    let mut outcome = ScheduleOutcome::default();
    let mut pending: Vec<Pod> = Vec::new();
    pods.for_each(|s| {
        let p = &s.obj;
        if p.node.is_none() && p.consumes_resources() && !p.deleting {
            pending.push(p.clone());
        }
    });
    if pending.is_empty() {
        return outcome;
    }
    pending.sort_by(|a, b| (a.created_at.cmp(&b.created_at)).then_with(|| a.name.cmp(&b.name)));
    let mut ready: Vec<(String, u32)> = Vec::new();
    nodes.for_each(|n| {
        if n.obj.ready {
            ready.push((n.obj.name.to_string(), n.obj.cpu_capacity));
        }
    });
    let mut alloc: HashMap<String, u32> = HashMap::new();
    let mut presence: HashMap<String, HashMap<String, u32>> = HashMap::new();
    pods.for_each(|pod| {
        let p = &pod.obj;
        let (true, Some(node)) = (p.consumes_resources(), &p.node) else {
            return;
        };
        *alloc.entry(node.to_string()).or_insert(0) += p.cpu_request;
        if let Some(group) = &p.affinity_group {
            let on = presence.entry(group.to_string()).or_default();
            *on.entry(node.to_string()).or_insert(0) += 1;
        }
    });
    for pod in pending {
        let used = |node: &str| alloc.get(node).copied().unwrap_or(0);
        let group_presence = (pod.affinity_group.as_deref()).and_then(|g| presence.get(g));
        let best = ready
            .iter()
            .filter(|(name, capacity)| capacity.saturating_sub(used(name)) >= pod.cpu_request)
            .max_by(|(a, _), (b, _)| {
                let key = |node: &String| {
                    let aff = group_presence.and_then(|on| on.get(node)).copied();
                    (aff.unwrap_or(0), used(node))
                };
                key(a).cmp(&key(b)).then_with(|| b.cmp(a))
            });
        let Some((node_name, _)) = best else {
            outcome.unschedulable.push(pod.name);
            continue;
        };
        let node_name = node_name.clone();
        *alloc.entry(node_name.clone()).or_insert(0) += pod.cpu_request;
        if let Some(group) = &pod.affinity_group {
            let on = presence.entry(group.to_string()).or_default();
            *on.entry(node_name.clone()).or_insert(0) += 1;
        }
        let bind_target: Arc<str> = node_name.into();
        let bound = Arc::clone(&bind_target);
        pods.update(&pod.name, move |p| p.node = Some(bind_target))
            .expect("pod exists");
        outcome.bound.push((pod.name, bound));
    }
    outcome
}

/// The scanning kubelet: every round visits every pod and decides by
/// `(phase, bound, deleting)` what to do with it. (Transitions are keyed
/// by uid and dropped once unseen, like the indexed one's — the
/// name-keyed map this replaced outlived hard-deleted pods.)
struct KubeletByScan {
    pods: Store<Pod>,
    cfg: KubeletConfig,
    inflight: BTreeMap<u64, (SimTime, bool)>,
}

impl KubeletByScan {
    fn process(&mut self, now: SimTime) -> Vec<Arc<str>> {
        let before = std::mem::take(&mut self.inflight);
        let mut due: Vec<(Arc<str>, bool)> = Vec::new();
        self.pods.for_each(|stored| {
            let pod = &stored.obj;
            let (to_running, latency) = match (pod.phase, pod.node.is_some(), pod.deleting) {
                (PodPhase::Pending, true, false) => (true, self.cfg.startup_latency),
                (PodPhase::Pending | PodPhase::Running, _, true) => {
                    (false, self.cfg.termination_grace)
                }
                _ => return,
            };
            let at = match before.get(&stored.uid) {
                Some(&(at, towards)) if towards == to_running => at,
                _ => now + latency,
            };
            if now >= at {
                due.push((pod.name.clone(), to_running));
            } else {
                self.inflight.insert(stored.uid, (at, to_running));
            }
        });
        for (name, to_running) in &due {
            self.pods
                .update(name, |p| {
                    if *to_running {
                        p.phase = PodPhase::Running;
                        p.started_at = Some(now);
                    } else {
                        p.phase = PodPhase::Succeeded;
                    }
                })
                .expect("pod exists");
        }
        due.into_iter().map(|(name, _)| name).collect()
    }
}

/// The scanning garbage collection; returns how many it removed.
fn reap_finished_by_scan(pods: &Store<Pod>) -> usize {
    let mut finished = Vec::new();
    pods.for_each(|pod| {
        if !pod.obj.consumes_resources() {
            finished.push(pod.obj.name.clone());
        }
    });
    for name in &finished {
        pods.delete(name).expect("just seen");
    }
    finished.len()
}

/// The per-name teardown of `job`'s pods: its resource-consuming pods
/// of `role` (any, for `None`) found by a full scan and put in creation
/// (= uid) order; each past the first `keep` is deleted by name if
/// `hard`, or else asked by name to terminate. Returns how many.
fn release_by_scan(
    pods: &Store<Pod>,
    job: &str,
    role: Option<PodRole>,
    keep: usize,
    hard: bool,
) -> usize {
    let mut owned: Vec<(u64, Arc<str>)> = Vec::new();
    pods.for_each(|s| {
        let p = &s.obj;
        if *p.owner == *job && p.consumes_resources() && role.is_none_or(|r| p.role == r) {
            owned.push((s.uid, Arc::clone(&p.name)));
        }
    });
    owned.sort();
    for (_, name) in owned.iter().skip(keep) {
        if hard {
            pods.delete(name).expect("just seen");
        } else {
            pods.update(name, |p| p.deleting = true).expect("just seen");
        }
    }
    owned.len().saturating_sub(keep)
}

struct World {
    nodes: Store<Node>,
    pods: Store<Pod>,
}

impl World {
    fn new(nodes: Store<Node>, pods: Store<Pod>) -> World {
        for (name, cpus) in [("n0", 4), ("n1", 4), ("n2", 6)] {
            nodes.create(Node::new(name, cpus)).expect("fresh node");
        }
        World { nodes, pods }
    }

    /// Everything the store holds, by name.
    fn contents(&self) -> BTreeMap<Arc<str>, Pod> {
        let pods = self.pods.list();
        pods.iter()
            .map(|s| (s.obj.name.clone(), s.obj.clone()))
            .collect()
    }
}

fn sorted(mut names: Vec<Arc<str>>) -> Vec<Arc<str>> {
    names.sort();
    names
}

/// The key `index` files `pod` under.
fn key_of(index: &str, pod: &Pod) -> Arc<str> {
    if index == Pod::BY_STAGE {
        pod.stage().as_str().into()
    } else {
        Arc::clone(&pod.owner)
    }
}

/// What each index of a pod store should hold, in filing order, as its
/// watch stream tells it: a pod joins the tail of its key's list when
/// it is created or an update changes its key, and leaves it when it is
/// deleted or an update changes its key.
#[derive(Default)]
struct FilingModel {
    lists: BTreeMap<(&'static str, Arc<str>), Vec<Arc<str>>>,
    /// `(index, pod)` → the key it is filed under.
    filed: HashMap<(&'static str, Arc<str>), Arc<str>>,
}

impl FilingModel {
    fn apply(&mut self, event: WatchEvent<Pod>) {
        let (WatchEvent::Added(s) | WatchEvent::Modified(s) | WatchEvent::Deleted(s)) = &event;
        let live = !matches!(event, WatchEvent::Deleted(_));
        let name = &s.obj.name;
        for index in [Pod::BY_STAGE, Pod::BY_OWNER] {
            let key = key_of(index, &s.obj);
            let at = (index, Arc::clone(name));
            if live && self.filed.get(&at) == Some(&key) {
                continue;
            }
            if let Some(old) = self.filed.remove(&at) {
                let list = self.lists.get_mut(&(index, old.clone())).expect("filed");
                list.retain(|n| n != name);
                if list.is_empty() {
                    self.lists.remove(&(index, old));
                }
            }
            if live {
                let list = self.lists.entry((index, Arc::clone(&key))).or_default();
                list.push(Arc::clone(name));
                self.filed.insert(at, key);
            }
        }
    }
}

/// Every index of the indexed pod store against a full scan of it
/// (membership) and against the filing model (order).
fn assert_indexes_equal_a_scan(
    pods: &Store<Pod>,
    model: &FilingModel,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let all = pods.list();
    let stages = [
        PodStage::Unbound,
        PodStage::Starting,
        PodStage::Terminating,
        PodStage::Settled,
        PodStage::Finished,
    ];
    let by_stage = stages.map(|stage| (Pod::BY_STAGE, stage.as_str().to_string()));
    let by_owner = (0..3).map(|j| (Pod::BY_OWNER, format!("j{j}")));
    let mut filed = 0;
    for (index, key) in by_stage.into_iter().chain(by_owner) {
        let mut indexed = Vec::new();
        pods.for_each_in(index, &key, |s| indexed.push(Arc::clone(&s.obj.name)));
        let scanned = all.iter().filter(|s| *key_of(index, &s.obj) == *key);
        let scanned = sorted(scanned.map(|s| Arc::clone(&s.obj.name)).collect());
        filed += indexed.len();
        let modelled = model.lists.get(&(index, key.as_str().into()));
        proptest::prop_assert_eq!(
            &indexed,
            modelled.unwrap_or(&Vec::new()),
            "{} / {}: filing order",
            index,
            key
        );
        proptest::prop_assert_eq!(sorted(indexed), scanned, "{} / {}", index, key);
    }
    proptest::prop_assert_eq!(filed, 2 * all.len(), "each pod once per index");
    Ok(())
}

proptest::proptest! {
    #[test]
    fn indexed_controllers_equal_their_scanning_references(
        ops in proptest::collection::vec(proptest::any::<u32>(), 1..160),
    ) {
        let cfg = KubeletConfig {
            startup_latency: Duration::from_secs(2.0),
            termination_grace: Duration::from_secs(1.0),
        };
        // The real control plane's stores (and its garbage collection),
        // with the two controllers held apart so each is compared alone.
        let plane = ControlPlane::new(Arc::new(VirtualClock::new()), cfg);
        let indexed = World::new(plane.nodes.clone(), plane.pods.clone());
        let scheduler = PodScheduler::new(indexed.nodes.clone(), indexed.pods.clone());
        let mut kubelet = Kubelet::new(indexed.pods.clone(), cfg);
        let events = indexed.pods.watch();
        let mut model = FilingModel::default();
        let scanning = World::new(Store::new(), Store::new());
        let mut kubelet_by_scan = KubeletByScan {
            pods: scanning.pods.clone(),
            cfg,
            inflight: BTreeMap::new(),
        };
        let mut now = SimTime::ZERO;
        for word in ops {
            let arg = word >> 4;
            let name = format!("p{}", arg % 12);
            let both = [&indexed, &scanning];
            match word % 18 {
                0..=3 => {
                    let owner: Arc<str> = format!("j{}", arg % 3).into();
                    let pod = Pod {
                        cpu_request: 1 + (arg >> 8) % 3,
                        affinity_group: ((arg >> 10) % 4 > 0).then(|| owner.clone()),
                        ..Pod::worker(name, owner, now)
                    };
                    for world in both {
                        let _ = world.pods.create(pod.clone());
                    }
                }
                4..=6 => {
                    let bound = scheduler.schedule_once();
                    let by_scan = schedule_once_by_scan(&scanning.nodes, &scanning.pods);
                    proptest::prop_assert_eq!(bound, by_scan, "which pod, which node, what order");
                }
                7..=9 => {
                    let changed = sorted(kubelet.process(now));
                    let by_scan = sorted(kubelet_by_scan.process(now));
                    proptest::prop_assert_eq!(changed, by_scan);
                }
                10 => {
                    for world in both {
                        let _ = world.pods.update(&name, |p| p.deleting = true);
                    }
                }
                11 => {
                    for world in both {
                        let _ = world.pods.delete(&name);
                    }
                }
                12 => {
                    let by_scan = reap_finished_by_scan(&scanning.pods);
                    proptest::prop_assert_eq!(plane.reap_finished(), by_scan);
                }
                // A running pod crashes behind the controllers' back.
                13 => {
                    for world in both {
                        let _ = world.pods.update(&name, |p| {
                            if p.phase == PodPhase::Running {
                                p.phase = PodPhase::Failed;
                            }
                        });
                    }
                }
                14 => {
                    let node = format!("n{}", arg % 3);
                    for world in both {
                        let _ = world.nodes.update(&node, |n| n.ready = !n.ready);
                    }
                }
                // A shrink's excess workers, or a job's graceful release.
                15 => {
                    let job = format!("j{}", arg % 3);
                    let role = (arg & 4 > 0).then_some(PodRole::Worker);
                    let keep = (arg >> 3) as usize % 3;
                    let terminated = plane.terminate_pods_of_job(&job, role, keep);
                    let by_scan = release_by_scan(&scanning.pods, &job, role, keep, false);
                    proptest::prop_assert_eq!(terminated, by_scan);
                }
                // A job's hard release.
                16 => {
                    let job = format!("j{}", arg % 3);
                    let deleted = plane.delete_pods_of_job(&job);
                    let by_scan = release_by_scan(&scanning.pods, &job, None, 0, true);
                    proptest::prop_assert_eq!(deleted, by_scan);
                }
                _ => now += Duration::from_secs(f64::from(arg % 4) * 0.5),
            }
            proptest::prop_assert_eq!(indexed.contents(), scanning.contents());
            while let Ok(event) = events.try_recv() {
                model.apply(event);
            }
            assert_indexes_equal_a_scan(&indexed.pods, &model)?;
        }
    }
}
