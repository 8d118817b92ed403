//! The assembled control plane.
//!
//! Bundles the object stores, pod scheduler and kubelet behind one
//! `tick()`-driven facade, plus the capacity arithmetic the scheduling
//! policies consume (free slots, per-job usage). The paper's testbed —
//! 4 × c6g.4xlarge, 16 vCPUs each — is `ControlPlane::with_nodes(4, 16)`.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpc_metrics::{Clock, SimTime};

use crate::api::{Store, Stored};
use crate::kubelet::{Kubelet, KubeletConfig};
use crate::resources::{ConfigMap, Node, Pod, PodPhase, PodRole, PodStage};
use crate::scheduler::{PodScheduler, ScheduleOutcome};

/// The in-process cluster control plane.
pub struct ControlPlane {
    /// Node store.
    pub nodes: Store<Node>,
    /// Pod store.
    pub pods: Store<Pod>,
    /// ConfigMap store (nodelists).
    pub configmaps: Store<ConfigMap>,
    scheduler: PodScheduler,
    kubelet: Kubelet,
    clock: Arc<dyn Clock>,
}

impl ControlPlane {
    /// An empty control plane on `clock` with the given kubelet model.
    pub fn new(clock: Arc<dyn Clock>, kubelet_cfg: KubeletConfig) -> Self {
        let nodes: Store<Node> = Store::new();
        // Indexed by owning job — the per-job reads below (and the
        // operator's teardown paths) touch only that job's pods — and
        // by lifecycle stage, which is all the scheduler, the kubelet
        // and garbage collection read.
        let pods = Pod::store();
        let configmaps: Store<ConfigMap> = Store::new();
        let scheduler = PodScheduler::new(nodes.clone(), pods.clone());
        let kubelet = Kubelet::new(pods.clone(), kubelet_cfg);
        ControlPlane {
            nodes,
            pods,
            configmaps,
            scheduler,
            kubelet,
            clock,
        }
    }

    /// A control plane pre-populated with `n` ready nodes of
    /// `cpus_per_node` CPUs each.
    pub fn with_nodes(
        clock: Arc<dyn Clock>,
        kubelet_cfg: KubeletConfig,
        n: usize,
        cpus_per_node: u32,
    ) -> Self {
        let cp = Self::new(clock, kubelet_cfg);
        for i in 0..n {
            cp.nodes
                .create(Node::new(format!("node-{i}"), cpus_per_node))
                .expect("fresh node");
        }
        cp
    }

    /// Current time on the control-plane clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The clock shared with controllers.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// One control loop round: schedule pending pods, then advance pod
    /// state machines. Returns the scheduler outcome of the round.
    pub fn tick(&mut self) -> ScheduleOutcome {
        let outcome = self.scheduler.schedule_once();
        self.kubelet.process(self.clock.now());
        outcome
    }

    /// Total CPU capacity over ready nodes.
    pub fn capacity(&self) -> u32 {
        let mut capacity = 0;
        self.nodes.for_each(|n| {
            if n.obj.ready {
                capacity += n.obj.cpu_capacity;
            }
        });
        capacity
    }

    /// CPUs currently committed to resource-consuming pods (bound or
    /// pending-unbound both count: a pending pod's request is a claim
    /// the policies must respect).
    pub fn committed(&self) -> u32 {
        let mut committed = 0;
        self.pods.for_each(|p| {
            if p.obj.consumes_resources() {
                committed += p.obj.cpu_request;
            }
        });
        committed
    }

    /// Free slots: capacity minus committed.
    pub fn free_slots(&self) -> u32 {
        self.capacity().saturating_sub(self.committed())
    }

    /// Active (running, non-terminating) worker pods per owning job.
    pub fn active_workers_by_job(&self) -> BTreeMap<Arc<str>, u32> {
        let mut map = BTreeMap::new();
        self.pods.for_each(|pod| {
            let p = &pod.obj;
            if p.role == PodRole::Worker && p.is_active() {
                *map.entry(Arc::clone(&p.owner)).or_insert(0) += 1;
            }
        });
        map
    }

    /// All resource-consuming pods owned by `job`, in creation order
    /// (snapshots of that job's pods only).
    pub fn pods_of_job(&self, job: &str) -> Vec<Pod> {
        let mut pods = Vec::new();
        self.pods.for_each_in(Pod::BY_OWNER, job, |s| {
            if s.obj.consumes_resources() {
                pods.push(s.obj.clone());
            }
        });
        pods
    }

    /// Names of the resource-consuming pods owned by `job` — all of
    /// them, or only those with the given role — in creation order (the
    /// owner index's filing order: a pod's owner never changes). For a
    /// job's workers that is serial order, past `w9999` too. What
    /// teardown and nodelist upkeep need, shared rather than copied.
    pub fn pod_names_of_job(&self, job: &str, role: Option<PodRole>) -> Vec<Arc<str>> {
        let mut names = Vec::new();
        self.pods.for_each_in(Pod::BY_OWNER, job, |s| {
            if s.obj.consumes_resources() && role.is_none_or(|r| s.obj.role == r) {
                names.push(Arc::clone(&s.obj.name));
            }
        });
        names
    }

    /// Worker slots currently committed per job (for utilization
    /// accounting; excludes launchers).
    pub fn worker_slots_by_job(&self) -> BTreeMap<Arc<str>, u32> {
        let mut map = BTreeMap::new();
        self.pods.for_each(|pod| {
            let p = &pod.obj;
            if p.role == PodRole::Worker && p.consumes_resources() {
                *map.entry(Arc::clone(&p.owner)).or_insert(0) += p.cpu_request;
            }
        });
        map
    }

    /// `true` once every pod of `job` with the given role is Running.
    pub fn job_pods_running(&self, job: &str, role: PodRole, expected: usize) -> bool {
        let mut running = 0;
        self.pods.for_each_in(Pod::BY_OWNER, job, |s| {
            if s.obj.role == role && s.obj.phase == PodPhase::Running && !s.obj.deleting {
                running += 1;
            }
        });
        running >= expected
    }

    /// Requests graceful deletion of a pod (kubelet completes it).
    pub fn delete_pod(&self, name: &str) {
        let _ = self.pods.update(name, |p| p.deleting = true);
    }

    /// Removes Succeeded/Failed pods from the store (garbage collection)
    /// and returns how many were reaped.
    pub fn reap_finished(&self) -> usize {
        let mut finished: Vec<Arc<Stored<Pod>>> = Vec::new();
        let stage = PodStage::Finished.as_str();
        self.pods
            .for_each_in(Pod::BY_STAGE, stage, |pod| finished.push(Arc::clone(pod)));
        for pod in &finished {
            let _ = self.pods.delete(&pod.obj.name);
        }
        finished.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_metrics::{Duration, VirtualClock};

    fn names(names: &[&str]) -> Vec<Arc<str>> {
        names.iter().map(|&n| Arc::from(n)).collect()
    }

    fn plane() -> (ControlPlane, VirtualClock) {
        let clock = VirtualClock::new();
        let cp = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 16);
        (cp, clock)
    }

    #[test]
    fn paper_testbed_capacity() {
        let (cp, _) = plane();
        assert_eq!(cp.capacity(), 64);
        assert_eq!(cp.free_slots(), 64);
        assert_eq!(cp.committed(), 0);
    }

    #[test]
    fn pod_lifecycle_through_ticks() {
        let (mut cp, clock) = plane();
        cp.pods
            .create(Pod::worker("j1-w0", "j1", cp.now()))
            .unwrap();
        cp.pods
            .create(Pod::launcher("j1-l", "j1", cp.now()))
            .unwrap();
        assert_eq!(cp.free_slots(), 62, "pending pods already claim slots");
        cp.tick();
        assert!(cp.job_pods_running("j1", PodRole::Worker, 1));
        assert!(cp.job_pods_running("j1", PodRole::Launcher, 1));
        assert_eq!(cp.active_workers_by_job()["j1"], 1);
        assert_eq!(cp.worker_slots_by_job()["j1"], 1);

        cp.delete_pod("j1-w0");
        cp.delete_pod("j1-l");
        clock.advance(Duration::from_secs(1.0));
        cp.tick();
        assert_eq!(cp.free_slots(), 64);
        assert_eq!(cp.reap_finished(), 2);
        assert!(cp.pods.is_empty());
    }

    #[test]
    fn kubelet_latency_visible_through_plane() {
        let clock = VirtualClock::new();
        let mut cp = ControlPlane::with_nodes(
            Arc::new(clock.clone()),
            KubeletConfig {
                startup_latency: Duration::from_secs(5.0),
                termination_grace: Duration::ZERO,
            },
            1,
            4,
        );
        cp.pods.create(Pod::worker("w", "j", cp.now())).unwrap();
        cp.tick(); // binds, but not yet running
        assert!(!cp.job_pods_running("j", PodRole::Worker, 1));
        clock.advance(Duration::from_secs(5.0));
        cp.tick();
        assert!(cp.job_pods_running("j", PodRole::Worker, 1));
        let pod = cp.pods.get("w").unwrap().obj.clone();
        assert_eq!(pod.started_at, Some(SimTime::from_secs(5.0)));
    }

    #[test]
    fn capacity_excludes_unready_nodes() {
        let (cp, _) = plane();
        cp.nodes.update("node-0", |n| n.ready = false).unwrap();
        assert_eq!(cp.capacity(), 48);
    }

    #[test]
    fn oversubscription_leaves_pods_pending() {
        let clock = VirtualClock::new();
        let mut cp =
            ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 1, 2);
        for i in 0..4 {
            cp.pods
                .create(Pod::worker(format!("w{i}"), "j", cp.now()))
                .unwrap();
        }
        let out = cp.tick();
        assert_eq!(out.bound.len(), 2);
        assert_eq!(out.unschedulable.len(), 2);
        // free_slots goes negative-safe to 0 (claims exceed capacity).
        assert_eq!(cp.free_slots(), 0);
    }

    #[test]
    fn pods_of_job_filters_owner_and_liveness() {
        let (mut cp, _) = plane();
        cp.pods.create(Pod::worker("a", "j1", cp.now())).unwrap();
        cp.pods.create(Pod::worker("b", "j2", cp.now())).unwrap();
        cp.tick();
        assert_eq!(cp.pods_of_job("j1").len(), 1);
        cp.pods
            .update("a", |p| p.phase = PodPhase::Succeeded)
            .unwrap();
        assert!(cp.pods_of_job("j1").is_empty());
    }

    #[test]
    fn per_job_reads_touch_only_that_jobs_pods() {
        let (mut cp, _) = plane();
        for w in ["j1-w1", "j1-w0"] {
            cp.pods.create(Pod::worker(w, "j1", cp.now())).unwrap();
        }
        cp.pods
            .create(Pod::launcher("j1-l", "j1", cp.now()))
            .unwrap();
        cp.pods.create(Pod::worker("x", "j2", cp.now())).unwrap();
        cp.tick();
        let scans = cp.pods.full_scans();
        assert_eq!(
            cp.pod_names_of_job("j1", None),
            names(&["j1-w1", "j1-w0", "j1-l"]),
            "creation order"
        );
        assert_eq!(
            cp.pod_names_of_job("j1", Some(PodRole::Worker)),
            names(&["j1-w1", "j1-w0"])
        );
        assert!(cp.pod_names_of_job("nobody", None).is_empty());
        assert!(cp.job_pods_running("j1", PodRole::Worker, 2));
        assert_eq!(cp.pods_of_job("j2").len(), 1);
        assert_eq!(cp.pods.full_scans(), scans, "answered from the owner index");
    }

    #[test]
    fn a_jobs_workers_come_in_serial_order_past_w9999() {
        // What the operator's shrink (the highest serials go) and its
        // nodelist rely on: serial order is creation order, which name
        // order stops being at `w10000`.
        let (mut cp, clock) = plane();
        let owner: Arc<str> = "j".into();
        cp.pods
            .create(Pod::launcher("j-launcher", Arc::clone(&owner), cp.now()))
            .unwrap();
        for serial in 9_998..10_002 {
            let name = format!("j-w{serial:04}");
            cp.pods
                .create(Pod::worker(name, Arc::clone(&owner), cp.now()))
                .unwrap();
        }
        let workers = names(&["j-w9998", "j-w9999", "j-w10000", "j-w10001"]);
        assert_eq!(cp.pod_names_of_job("j", Some(PodRole::Worker)), workers);
        // Binding, starting and a deletion request move pods between
        // stages, never within their owner's list.
        cp.tick();
        cp.delete_pod("j-w9999");
        assert_eq!(cp.pod_names_of_job("j", Some(PodRole::Worker)), workers);
        clock.advance(Duration::from_secs(1.0));
        cp.tick();
        cp.reap_finished();
        let mut all = names(&["j-launcher"]);
        all.extend(workers.into_iter().filter(|w| &**w != "j-w9999"));
        assert_eq!(cp.pod_names_of_job("j", None), all);
    }
}
