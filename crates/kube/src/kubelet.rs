//! The kubelet model: pod start/stop latencies.
//!
//! Bound pods become `Running` after a configurable startup latency
//! (container image pull + start), and deletion-requested pods become
//! `Succeeded` after a grace period. Driven by explicit `process(now)`
//! calls so the same code runs under real or virtual time.
//!
//! A round walks only the pods the store's lifecycle index files as
//! starting or terminating, and moves the due ones as it goes; settled
//! pods cost it nothing.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpc_metrics::{Duration, SimTime};

use crate::api::{Store, Stored};
use crate::resources::{Pod, PodPhase, PodStage};

/// Kubelet timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KubeletConfig {
    /// Bound → Running latency.
    pub startup_latency: Duration,
    /// Deletion request → Succeeded latency.
    pub termination_grace: Duration,
}

impl Default for KubeletConfig {
    fn default() -> Self {
        KubeletConfig {
            startup_latency: Duration::from_secs(1.0),
            termination_grace: Duration::from_secs(0.5),
        }
    }
}

impl KubeletConfig {
    /// A zero-latency kubelet (unit tests).
    pub fn instant() -> Self {
        KubeletConfig {
            startup_latency: Duration::ZERO,
            termination_grace: Duration::ZERO,
        }
    }
}

/// Per-pod transition bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Transition {
    due: SimTime,
    to_running: bool,
}

/// The kubelet controller (covers all nodes — per-node fidelity is not
/// needed by anything above it).
pub struct Kubelet {
    pods: Store<Pod>,
    cfg: KubeletConfig,
    /// Transitions under way, by pod uid — not by name: a pod deleted
    /// and re-created under its old name is a new pod with its own
    /// latency to wait out.
    inflight: BTreeMap<u64, Transition>,
}

impl Kubelet {
    /// A kubelet over the pod store, which must carry the
    /// [`Pod::BY_STAGE`] index ([`Pod::store`]).
    pub fn new(pods: Store<Pod>, cfg: KubeletConfig) -> Self {
        Kubelet {
            pods,
            cfg,
            inflight: BTreeMap::new(),
        }
    }

    /// Advances pod state machines to `now`. Returns the names of pods
    /// that changed phase. Two indexed walks, one per stage, decide
    /// which transitions are due and make them on the spot, under the
    /// store lock ([`Store::update_in`]). Only the transitions of pods
    /// this round finds starting or terminating are carried into the
    /// next: one whose pod left those stages by any hand (or left the
    /// store) is forgotten.
    pub fn process(&mut self, now: SimTime) -> Vec<Arc<str>> {
        let Kubelet {
            pods,
            cfg,
            inflight,
        } = self;
        let before = std::mem::take(inflight);
        let mut changed: Vec<Arc<str>> = Vec::new();
        // Whether `pod`'s transition is due now; one that is not is
        // carried into the next round.
        let mut due = |pod: &Stored<Pod>, to_running: bool, latency: Duration| {
            // A transition under way continues, unless the pod changed
            // direction since (deletion overrides a pending start).
            let t = match before.get(&pod.uid) {
                Some(t) if t.to_running == to_running => *t,
                _ => Transition {
                    due: now + latency,
                    to_running,
                },
            };
            if now >= t.due {
                changed.push(Arc::clone(&pod.obj.name));
            } else {
                inflight.insert(pod.uid, t);
            }
            now >= t.due
        };
        // Bound pending pods start; live pods with deletion requested
        // terminate.
        let start = move |p: &mut Pod| {
            p.phase = PodPhase::Running;
            p.started_at = Some(now);
        };
        let terminate = |p: &mut Pod| p.phase = PodPhase::Succeeded;
        pods.update_in(Pod::BY_STAGE, PodStage::Starting.as_str(), |pod| {
            due(pod, true, cfg.startup_latency).then_some(start)
        });
        pods.update_in(Pod::BY_STAGE, PodStage::Terminating.as_str(), |pod| {
            due(pod, false, cfg.termination_grace).then_some(terminate)
        });
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod_bound(pods: &Store<Pod>, name: &str) {
        pods.create(Pod {
            node: Some("n0".into()),
            ..Pod::worker(name, "j", SimTime::ZERO)
        })
        .unwrap();
    }

    #[test]
    fn startup_latency_is_honored() {
        let pods = Pod::store();
        pod_bound(&pods, "w");
        let mut kubelet = Kubelet::new(
            pods.clone(),
            KubeletConfig {
                startup_latency: Duration::from_secs(2.0),
                termination_grace: Duration::ZERO,
            },
        );
        assert!(kubelet.process(SimTime::from_secs(0.0)).is_empty());
        assert!(kubelet.process(SimTime::from_secs(1.9)).is_empty());
        let changed = kubelet.process(SimTime::from_secs(2.0));
        assert_eq!(changed, [Arc::from("w")]);
        let pod = pods.get("w").unwrap().obj.clone();
        assert_eq!(pod.phase, PodPhase::Running);
        assert_eq!(pod.started_at, Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn instant_kubelet_starts_immediately() {
        let pods = Pod::store();
        pod_bound(&pods, "w");
        let mut kubelet = Kubelet::new(pods.clone(), KubeletConfig::instant());
        let changed = kubelet.process(SimTime::ZERO);
        assert_eq!(changed.len(), 1);
        assert_eq!(pods.get("w").unwrap().obj.phase, PodPhase::Running);
    }

    #[test]
    fn unbound_pods_never_start() {
        let pods = Pod::store();
        pods.create(Pod::worker("w", "j", SimTime::ZERO)).unwrap();
        let mut kubelet = Kubelet::new(pods.clone(), KubeletConfig::instant());
        assert!(kubelet.process(SimTime::from_secs(100.0)).is_empty());
        assert_eq!(pods.get("w").unwrap().obj.phase, PodPhase::Pending);
    }

    #[test]
    fn deletion_terminates_after_grace() {
        let pods = Pod::store();
        pod_bound(&pods, "w");
        let mut kubelet = Kubelet::new(
            pods.clone(),
            KubeletConfig {
                startup_latency: Duration::ZERO,
                termination_grace: Duration::from_secs(1.0),
            },
        );
        kubelet.process(SimTime::ZERO); // running
        pods.update("w", |p| p.deleting = true).unwrap();
        assert!(kubelet.process(SimTime::from_secs(0.5)).is_empty());
        let changed = kubelet.process(SimTime::from_secs(1.5));
        assert_eq!(changed, [Arc::from("w")]);
        assert_eq!(pods.get("w").unwrap().obj.phase, PodPhase::Succeeded);
    }

    #[test]
    fn deletion_overrides_pending_start() {
        let pods = Pod::store();
        pod_bound(&pods, "w");
        let mut kubelet = Kubelet::new(
            pods.clone(),
            KubeletConfig {
                startup_latency: Duration::from_secs(10.0),
                termination_grace: Duration::ZERO,
            },
        );
        kubelet.process(SimTime::ZERO); // start scheduled for t=10
        pods.update("w", |p| p.deleting = true).unwrap();
        kubelet.process(SimTime::from_secs(1.0));
        // Terminated without ever running.
        let pod = pods.get("w").unwrap().obj.clone();
        assert_eq!(pod.phase, PodPhase::Succeeded);
        assert_eq!(pod.started_at, None);
    }

    #[test]
    fn a_recreated_pod_waits_out_its_own_startup_latency() {
        let pods = Pod::store();
        let mut kubelet = Kubelet::new(
            pods.clone(),
            KubeletConfig {
                startup_latency: Duration::from_secs(5.0),
                termination_grace: Duration::from_secs(5.0),
            },
        );
        // Bound at t=0 (start due at 5), hard-deleted mid-transition —
        // what an eviction does to a job's pods — and its name reused
        // by a pod bound at t=3.
        pod_bound(&pods, "j-launcher");
        assert!(kubelet.process(SimTime::ZERO).is_empty());
        pods.delete("j-launcher").unwrap();
        pod_bound(&pods, "j-launcher");
        assert!(kubelet.process(SimTime::from_secs(3.0)).is_empty());
        let early = kubelet.process(SimTime::from_secs(5.0));
        assert!(early.is_empty(), "inherited the deleted pod's due time");
        assert_eq!(
            kubelet.process(SimTime::from_secs(8.0)),
            [Arc::from("j-launcher")]
        );
        let started = pods.read("j-launcher", |s| s.obj.started_at).unwrap();
        assert_eq!(started, Some(SimTime::from_secs(8.0)), "bind + 5 s");

        // The same with a termination under way: the name's next pod is
        // started, not left waiting on a transition that is not its own.
        pods.update("j-launcher", |p| p.deleting = true).unwrap();
        assert!(kubelet.process(SimTime::from_secs(9.0)).is_empty());
        pods.delete("j-launcher").unwrap();
        pod_bound(&pods, "j-launcher");
        assert!(kubelet.process(SimTime::from_secs(10.0)).is_empty());
        assert_eq!(
            kubelet.process(SimTime::from_secs(15.0)),
            [Arc::from("j-launcher")]
        );
        let phase = pods.read("j-launcher", |s| s.obj.phase).unwrap();
        assert_eq!(phase, PodPhase::Running);

        // A transition does not outlive its pod.
        pod_bound(&pods, "other");
        kubelet.process(SimTime::from_secs(16.0));
        assert_eq!(kubelet.inflight.len(), 1);
        pods.delete("other").unwrap();
        pods.delete("j-launcher").unwrap();
        kubelet.process(SimTime::from_secs(17.0));
        assert!(pods.is_empty() && kubelet.inflight.is_empty());
    }
}
