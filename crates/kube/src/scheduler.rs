//! The pod scheduler: a filter/score binding loop.
//!
//! Models kube-scheduler's two phases for the features the paper uses
//! (§3.1: default kube-scheduler plus pod affinity for locality-aware
//! placement): *filter* keeps ready nodes with enough free CPU; *score*
//! prefers nodes already hosting pods of the same affinity group
//! (keeping a job's PEs close), breaking ties toward the most-allocated
//! node (bin packing keeps large contiguous holes available for big
//! jobs), then by name for determinism.
//!
//! A pass reads the pod store's unbound pods off its lifecycle index,
//! so one with nothing pending costs nothing; a pass that binds makes
//! one placement scan of the store, counting into per-node vectors.

use std::sync::Arc;

use crate::api::{Store, Stored};
use crate::resources::{Node, Pod, PodStage};

/// Pod scheduler over the node/pod stores.
pub struct PodScheduler {
    nodes: Store<Node>,
    pods: Store<Pod>,
}

/// Outcome of one scheduling pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Pods bound this pass, `(pod, node)`.
    pub bound: Vec<(Arc<str>, Arc<str>)>,
    /// Pods left pending for lack of a feasible node.
    pub unschedulable: Vec<Arc<str>>,
}

impl PodScheduler {
    /// A scheduler reading from the given stores. The pod store must
    /// carry the [`Pod::BY_STAGE`] index ([`Pod::store`]).
    pub fn new(nodes: Store<Node>, pods: Store<Pod>) -> Self {
        PodScheduler { nodes, pods }
    }

    /// Runs one scheduling pass: binds every schedulable pending pod.
    ///
    /// Pods are considered in creation order (FIFO, name tie-break),
    /// like the default scheduler's queue.
    pub fn schedule_once(&self) -> ScheduleOutcome {
        let mut outcome = ScheduleOutcome::default();
        let mut pending: Vec<Arc<Stored<Pod>>> = Vec::new();
        let unbound = PodStage::Unbound.as_str();
        self.pods
            .for_each_in(Pod::BY_STAGE, unbound, |s| pending.push(Arc::clone(s)));
        if pending.is_empty() {
            return outcome;
        }
        pending.sort_by(|a, b| {
            (a.obj.created_at.cmp(&b.obj.created_at)).then_with(|| a.obj.name.cmp(&b.obj.name))
        });
        // The affinity groups this pass scores by.
        let mut groups: Vec<&str> = (pending.iter())
            .filter_map(|p| p.obj.affinity_group.as_deref())
            .collect();
        groups.sort_unstable();
        groups.dedup();

        // Ready nodes in name order; everything per node is keyed by
        // its position here.
        let mut nodes: Vec<Arc<Stored<Node>>> = Vec::new();
        self.nodes.for_each(|n| {
            if n.obj.ready {
                nodes.push(Arc::clone(n));
            }
        });
        nodes.sort_by(|a, b| a.obj.name.cmp(&b.obj.name));
        let position = |node: &str| nodes.binary_search_by(|n| (*n.obj.name).cmp(node)).ok();

        // The placement pass, one borrowed scan of the bound,
        // resource-consuming pods: CPUs committed per node, and pods of
        // each scored group per node (`group * nodes + node`).
        let mut used = vec![0u32; nodes.len()];
        let mut presence = vec![0u32; groups.len() * nodes.len()];
        self.pods.for_each(|pod| {
            let p = &pod.obj;
            let Some(at) = p.node.as_deref().and_then(position) else {
                return;
            };
            if !p.consumes_resources() {
                return;
            }
            used[at] += p.cpu_request;
            let group = p.affinity_group.as_deref();
            if let Some(g) = group.and_then(|g| groups.binary_search(&g).ok()) {
                presence[g * nodes.len() + at] += 1;
            }
        });

        // What binding needs of each pod, so that no pointer to the
        // version about to be replaced is held across its update: a pod
        // that waited a round for room is bound in place, not copied,
        // its `Added` event having been drained since.
        let queue: Vec<(Arc<str>, u32, Option<usize>)> = (pending.iter())
            .map(|pod| {
                let group = pod.obj.affinity_group.as_deref();
                let group = group.map(|g| groups.binary_search(&g).expect("collected above"));
                (Arc::clone(&pod.obj.name), pod.obj.cpu_request, group)
            })
            .collect();
        drop(pending);

        for (pod, request, group) in queue {
            let affinity = |at: usize| group.map_or(0, |g| presence[g * nodes.len() + at]);
            // Filter: ready nodes with room. Score: affinity presence,
            // then most-allocated, then name (= position).
            let best = (0..nodes.len())
                .filter(|&at| nodes[at].obj.cpu_capacity.saturating_sub(used[at]) >= request)
                .max_by(|&a, &b| {
                    (affinity(a), used[a])
                        .cmp(&(affinity(b), used[b]))
                        .then_with(|| b.cmp(&a))
                });
            let Some(at) = best else {
                outcome.unschedulable.push(pod);
                continue;
            };
            used[at] += request;
            if let Some(g) = group {
                presence[g * nodes.len() + at] += 1;
            }
            let node = &nodes[at].obj.name;
            self.pods
                .update(&pod, |p| p.node = Some(Arc::clone(node)))
                .expect("pod exists");
            outcome.bound.push((pod, Arc::clone(node)));
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::PodPhase;
    use hpc_metrics::SimTime;

    fn setup(nodes: &[(&str, u32)]) -> (Store<Node>, Store<Pod>, PodScheduler) {
        let node_store: Store<Node> = Store::new();
        let pod_store = Pod::store();
        for &(name, cap) in nodes {
            node_store.create(Node::new(name, cap)).unwrap();
        }
        let sched = PodScheduler::new(node_store.clone(), pod_store.clone());
        (node_store, pod_store, sched)
    }

    fn names(names: &[&str]) -> Vec<Arc<str>> {
        names.iter().map(|&n| Arc::from(n)).collect()
    }

    fn pod_at(pods: &Store<Pod>, name: &str, owner: &str, t: f64) {
        pods.create(Pod::worker(name, owner, SimTime::from_secs(t)))
            .unwrap();
    }

    #[test]
    fn binds_pending_pods_to_feasible_nodes() {
        let (_n, pods, sched) = setup(&[("n0", 2), ("n1", 2)]);
        for i in 0..4 {
            pod_at(&pods, &format!("w{i}"), "j1", i as f64);
        }
        let out = sched.schedule_once();
        assert_eq!(out.bound.len(), 4);
        assert!(out.unschedulable.is_empty());
        for s in pods.list() {
            assert!(s.obj.node.is_some());
        }
    }

    #[test]
    fn respects_capacity() {
        let (_n, pods, sched) = setup(&[("n0", 2)]);
        for i in 0..3 {
            pod_at(&pods, &format!("w{i}"), "j1", i as f64);
        }
        let out = sched.schedule_once();
        assert_eq!(out.bound.len(), 2);
        assert_eq!(out.unschedulable, names(&["w2"]));
    }

    #[test]
    fn affinity_collocates_same_job() {
        let (_n, pods, sched) = setup(&[("n0", 8), ("n1", 8)]);
        // Seed: one j1 pod bound to n1.
        pods.create(Pod {
            node: Some("n1".into()),
            phase: PodPhase::Running,
            ..Pod::worker("seed", "j1", SimTime::ZERO)
        })
        .unwrap();
        pod_at(&pods, "w1", "j1", 1.0);
        let out = sched.schedule_once();
        assert_eq!(out.bound, vec![("w1".into(), "n1".into())]);
    }

    #[test]
    fn bin_packing_prefers_fuller_node() {
        let (_n, pods, sched) = setup(&[("n0", 8), ("n1", 8)]);
        // n1 already hosts an unrelated pod: most-allocated wins.
        pods.create(Pod {
            node: Some("n1".into()),
            phase: PodPhase::Running,
            ..Pod::worker("other", "jX", SimTime::ZERO)
        })
        .unwrap();
        pod_at(&pods, "w1", "j1", 1.0);
        let out = sched.schedule_once();
        assert_eq!(&*out.bound[0].1, "n1");
    }

    #[test]
    fn not_ready_nodes_filtered() {
        let (nodes, pods, sched) = setup(&[("n0", 8)]);
        nodes.update("n0", |n| n.ready = false).unwrap();
        pod_at(&pods, "w1", "j1", 0.0);
        let out = sched.schedule_once();
        assert_eq!(out.unschedulable, names(&["w1"]));
    }

    #[test]
    fn finished_pods_release_capacity() {
        let (_n, pods, sched) = setup(&[("n0", 1)]);
        pods.create(Pod {
            node: Some("n0".into()),
            phase: PodPhase::Succeeded,
            ..Pod::worker("done", "j0", SimTime::ZERO)
        })
        .unwrap();
        pod_at(&pods, "w1", "j1", 1.0);
        let out = sched.schedule_once();
        assert_eq!(out.bound.len(), 1);
    }

    #[test]
    fn fifo_order_by_creation_time() {
        let (_n, pods, sched) = setup(&[("n0", 1)]);
        pod_at(&pods, "late", "j1", 10.0);
        pod_at(&pods, "early", "j1", 1.0);
        let out = sched.schedule_once();
        assert_eq!(&*out.bound[0].0, "early");
        assert_eq!(out.unschedulable, names(&["late"]));
    }

    #[test]
    fn deterministic_tie_break_by_node_name() {
        let (_n, pods, sched) = setup(&[("n1", 4), ("n0", 4)]);
        pod_at(&pods, "w", "j1", 0.0);
        let out = sched.schedule_once();
        assert_eq!(
            &*out.bound[0].1, "n0",
            "empty equal nodes: lowest name wins"
        );
    }

    #[test]
    fn empty_cluster_everything_unschedulable() {
        let (_n, pods, sched) = setup(&[]);
        pod_at(&pods, "w", "j1", 0.0);
        let out = sched.schedule_once();
        assert_eq!(out.unschedulable.len(), 1);
    }
}
