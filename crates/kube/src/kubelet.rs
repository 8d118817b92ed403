//! The kubelet model: pod start/stop latencies.
//!
//! Bound pods become `Running` after a configurable startup latency
//! (container image pull + start), and deletion-requested pods become
//! `Succeeded` after a grace period. Driven by explicit `process(now)`
//! calls so the same code runs under real or virtual time.

use hpc_metrics::{Duration, SimTime};

use crate::api::Store;
use crate::resources::{Pod, PodPhase};

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
    inflight: std::collections::HashMap<String, Transition>,
}

impl Kubelet {
    /// A kubelet over the pod store.
    pub fn new(pods: Store<Pod>, cfg: KubeletConfig) -> Self {
        Kubelet {
            pods,
            cfg,
            inflight: std::collections::HashMap::new(),
        }
    }

    /// Advances pod state machines to `now`. Returns the names of pods
    /// that changed phase. One borrowed pass over the pod store decides
    /// which transitions are due; only those pods' names are cloned,
    /// and the updates run once the store lock is released.
    pub fn process(&mut self, now: SimTime) -> Vec<String> {
        let Kubelet {
            pods,
            cfg,
            inflight,
        } = self;
        // Due transitions as `(pod, to_running)`, in scan order.
        let mut due: Vec<(String, bool)> = Vec::new();
        pods.for_each(|stored| {
            let pod = &stored.obj;
            match (pod.phase, pod.node.is_some(), pod.deleting) {
                // Bound pending pod: schedule its start.
                (PodPhase::Pending, true, false) => {
                    let t = inflight.entry(pod.name.clone()).or_insert(Transition {
                        due: now + cfg.startup_latency,
                        to_running: true,
                    });
                    if t.to_running && now >= t.due {
                        due.push((pod.name.clone(), true));
                    }
                }
                // Deletion requested on a live pod: schedule termination.
                (PodPhase::Pending | PodPhase::Running, _, true) => {
                    let entry = inflight.entry(pod.name.clone()).or_insert(Transition {
                        due: now + cfg.termination_grace,
                        to_running: false,
                    });
                    // A start transition is overridden by deletion.
                    if entry.to_running {
                        *entry = Transition {
                            due: now + cfg.termination_grace,
                            to_running: false,
                        };
                    }
                    if now >= entry.due {
                        due.push((pod.name.clone(), false));
                    }
                }
                _ => {
                    inflight.remove(&pod.name);
                }
            }
        });
        for (name, to_running) in &due {
            pods.update(name, |p| {
                if *to_running {
                    p.phase = PodPhase::Running;
                    p.started_at = Some(now);
                } else {
                    p.phase = PodPhase::Succeeded;
                }
            })
            .expect("pod exists");
            inflight.remove(name);
        }
        due.into_iter().map(|(name, _)| name).collect()
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
        let pods: Store<Pod> = Store::new();
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
        assert_eq!(changed, vec!["w".to_string()]);
        let pod = pods.get("w").unwrap().obj;
        assert_eq!(pod.phase, PodPhase::Running);
        assert_eq!(pod.started_at, Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn instant_kubelet_starts_immediately() {
        let pods: Store<Pod> = Store::new();
        pod_bound(&pods, "w");
        let mut kubelet = Kubelet::new(pods.clone(), KubeletConfig::instant());
        let changed = kubelet.process(SimTime::ZERO);
        assert_eq!(changed.len(), 1);
        assert_eq!(pods.get("w").unwrap().obj.phase, PodPhase::Running);
    }

    #[test]
    fn unbound_pods_never_start() {
        let pods: Store<Pod> = Store::new();
        pods.create(Pod::worker("w", "j", SimTime::ZERO)).unwrap();
        let mut kubelet = Kubelet::new(pods.clone(), KubeletConfig::instant());
        assert!(kubelet.process(SimTime::from_secs(100.0)).is_empty());
        assert_eq!(pods.get("w").unwrap().obj.phase, PodPhase::Pending);
    }

    #[test]
    fn deletion_terminates_after_grace() {
        let pods: Store<Pod> = Store::new();
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
        assert_eq!(changed, vec!["w".to_string()]);
        assert_eq!(pods.get("w").unwrap().obj.phase, PodPhase::Succeeded);
    }

    #[test]
    fn deletion_overrides_pending_start() {
        let pods: Store<Pod> = Store::new();
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
        let pod = pods.get("w").unwrap().obj;
        assert_eq!(pod.phase, PodPhase::Succeeded);
        assert_eq!(pod.started_at, None);
    }
}
