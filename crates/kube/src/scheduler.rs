//! The pod scheduler: a filter/score binding loop.
//!
//! Models kube-scheduler's two phases for the features the paper uses
//! (§3.1: default kube-scheduler plus pod affinity for locality-aware
//! placement): *filter* keeps ready nodes with enough free CPU; *score*
//! prefers nodes already hosting pods of the same affinity group
//! (keeping a job's PEs close), breaking ties toward the most-allocated
//! node (bin packing keeps large contiguous holes available for big
//! jobs), then by name for determinism.

use std::collections::HashMap;

use crate::api::Store;
use crate::resources::{Node, Pod};

/// Pod scheduler over the node/pod stores.
pub struct PodScheduler {
    nodes: Store<Node>,
    pods: Store<Pod>,
}

/// Outcome of one scheduling pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Pods bound this pass, `(pod, node)`.
    pub bound: Vec<(String, String)>,
    /// Pods left pending for lack of a feasible node.
    pub unschedulable: Vec<String>,
}

impl PodScheduler {
    /// A scheduler reading from the given stores.
    pub fn new(nodes: Store<Node>, pods: Store<Pod>) -> Self {
        PodScheduler { nodes, pods }
    }

    /// One borrowed pass over the bound, resource-consuming pods: CPUs
    /// committed per node, and pods of each affinity group per node
    /// (keyed group → node, so scoring looks both up by `&str`).
    fn placements(&self) -> (HashMap<String, u32>, HashMap<String, HashMap<String, u32>>) {
        let mut alloc: HashMap<String, u32> = HashMap::new();
        let mut presence: HashMap<String, HashMap<String, u32>> = HashMap::new();
        self.pods.for_each(|pod| {
            let p = &pod.obj;
            let (true, Some(node)) = (p.consumes_resources(), &p.node) else {
                return;
            };
            *alloc.entry(node.clone()).or_insert(0) += p.cpu_request;
            if let Some(group) = &p.affinity_group {
                *presence
                    .entry(group.clone())
                    .or_default()
                    .entry(node.clone())
                    .or_insert(0) += 1;
            }
        });
        (alloc, presence)
    }

    /// Runs one scheduling pass: binds every schedulable pending pod.
    ///
    /// Pods are considered in creation order (FIFO, name tie-break),
    /// like the default scheduler's queue. A pass with nothing pending
    /// is one borrowed scan of the pod store and clones nothing.
    pub fn schedule_once(&self) -> ScheduleOutcome {
        let mut outcome = ScheduleOutcome::default();
        let mut pending: Vec<Pod> = Vec::new();
        self.pods.for_each(|s| {
            let p = &s.obj;
            if p.node.is_none() && p.consumes_resources() && !p.deleting {
                pending.push(p.clone());
            }
        });
        if pending.is_empty() {
            return outcome;
        }
        pending.sort_by(|a, b| {
            a.created_at
                .cmp(&b.created_at)
                .then_with(|| a.name.cmp(&b.name))
        });

        // Ready nodes as `(name, capacity)`.
        let mut nodes: Vec<(String, u32)> = Vec::new();
        self.nodes.for_each(|n| {
            if n.obj.ready {
                nodes.push((n.obj.name.clone(), n.obj.cpu_capacity));
            }
        });
        let (mut alloc, mut presence) = self.placements();

        for pod in pending {
            let used = |node: &str| alloc.get(node).copied().unwrap_or(0);
            let group_presence = pod.affinity_group.as_ref().and_then(|g| presence.get(g));
            // Filter: ready nodes with room. Score: affinity presence,
            // then most-allocated, then name.
            let best = nodes
                .iter()
                .filter(|(name, capacity)| capacity.saturating_sub(used(name)) >= pod.cpu_request)
                .max_by(|(a, _), (b, _)| {
                    let key = |node: &String| {
                        let aff = group_presence
                            .and_then(|on| on.get(node))
                            .copied()
                            .unwrap_or(0);
                        (aff, used(node))
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
                *presence
                    .entry(group.clone())
                    .or_default()
                    .entry(node_name.clone())
                    .or_insert(0) += 1;
            }
            let bind_target = node_name.clone();
            self.pods
                .update(&pod.name, move |p| p.node = Some(bind_target))
                .expect("pod exists");
            outcome.bound.push((pod.name, node_name));
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
        let pod_store: Store<Pod> = Store::new();
        for &(name, cap) in nodes {
            node_store.create(Node::new(name, cap)).unwrap();
        }
        let sched = PodScheduler::new(node_store.clone(), pod_store.clone());
        (node_store, pod_store, sched)
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
        assert_eq!(out.unschedulable, vec!["w2".to_string()]);
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
        assert_eq!(out.bound, vec![("w1".to_string(), "n1".to_string())]);
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
        assert_eq!(out.bound[0].1, "n1");
    }

    #[test]
    fn not_ready_nodes_filtered() {
        let (nodes, pods, sched) = setup(&[("n0", 8)]);
        nodes.update("n0", |n| n.ready = false).unwrap();
        pod_at(&pods, "w1", "j1", 0.0);
        let out = sched.schedule_once();
        assert_eq!(out.unschedulable, vec!["w1".to_string()]);
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
        assert_eq!(out.bound[0].0, "early");
        assert_eq!(out.unschedulable, vec!["late".to_string()]);
    }

    #[test]
    fn deterministic_tie_break_by_node_name() {
        let (_n, pods, sched) = setup(&[("n1", 4), ("n0", 4)]);
        pod_at(&pods, "w", "j1", 0.0);
        let out = sched.schedule_once();
        assert_eq!(out.bound[0].1, "n0", "empty equal nodes: lowest name wins");
    }

    #[test]
    fn empty_cluster_everything_unschedulable() {
        let (_n, pods, sched) = setup(&[]);
        pod_at(&pods, "w", "j1", 0.0);
        let out = sched.schedule_once();
        assert_eq!(out.unschedulable.len(), 1);
    }
}
