//! Built-in resource types: Node, Pod, ConfigMap.
//!
//! Pods carry the fields the paper's scheduling stack actually uses:
//! a CPU request (one vCPU per non-SMP Charm++ worker, §3.1), an owner
//! label tying worker/launcher pods to their job, an affinity group for
//! locality-aware placement, and a role distinguishing the launcher pod
//! (the `mpirun` pod of the MPI-operator pattern) from workers.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpc_metrics::SimTime;

use crate::api::{IndexKey, Resource, Store};

/// A worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Unique node name, shared with the pods bound to it.
    pub name: Arc<str>,
    /// Allocatable CPUs (slots).
    pub cpu_capacity: u32,
    /// Schedulable?
    pub ready: bool,
    /// Free-form labels.
    pub labels: BTreeMap<String, String>,
}

impl Node {
    /// A ready node with `cpu_capacity` slots.
    pub fn new(name: impl Into<Arc<str>>, cpu_capacity: u32) -> Node {
        Node {
            name: name.into(),
            cpu_capacity,
            ready: true,
            labels: BTreeMap::new(),
        }
    }
}

impl Resource for Node {
    fn name(&self) -> &str {
        &self.name
    }

    fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }
}

/// Pod lifecycle phase (simplified to what the stack observes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodPhase {
    /// Created; may or may not be bound to a node yet.
    Pending,
    /// Containers running.
    Running,
    /// Exited cleanly (or deleted).
    Succeeded,
    /// Crashed (fault-injection tests use this).
    Failed,
}

/// A pod's role within a job, mirroring the MPI-operator pod layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodRole {
    /// The per-job launcher (`mpirun`) pod.
    Launcher,
    /// A worker replica hosting one PE.
    Worker,
    /// Anything else (system pods in tests).
    Other,
}

/// Where a pod is in its lifecycle: a pure function of `phase`, `node`
/// and `deleting` ([`Pod::stage`]), and what the pod store's
/// [`Pod::BY_STAGE`] index files it under, so each pod controller reads
/// only the pods it has work for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodStage {
    /// Live, not bound to a node: the scheduler's queue.
    Unbound,
    /// Bound and `Pending`: the kubelet is starting it.
    Starting,
    /// Live with deletion requested: the kubelet is terminating it.
    Terminating,
    /// Bound and `Running`: no controller has anything to do.
    Settled,
    /// `Succeeded` or `Failed`: garbage collection's.
    Finished,
}

impl PodStage {
    /// The key the stage is indexed under: one string at one address
    /// however many crates ask, so the index resolves it by pointer.
    pub fn as_str(self) -> &'static str {
        static KEYS: [&str; 5] = ["unbound", "starting", "terminating", "settled", "finished"];
        KEYS[self as usize]
    }
}

/// A pod. Its names are shared strings: copying a pod (the store's
/// copy-on-write) bumps reference counts instead of copying text, and
/// the operator hands every pod of a job the one `Arc` of its name.
#[derive(Debug, Clone, PartialEq)]
pub struct Pod {
    /// Unique pod name.
    pub name: Arc<str>,
    /// Owning job (empty for unowned pods).
    pub owner: Arc<str>,
    /// Launcher / worker / other.
    pub role: PodRole,
    /// CPUs requested.
    pub cpu_request: u32,
    /// Affinity group: the scheduler prefers nodes already hosting pods
    /// of the same group (the operator sets this to the job name).
    pub affinity_group: Option<Arc<str>>,
    /// Node the pod is bound to (set by the scheduler).
    pub node: Option<Arc<str>>,
    /// Current phase (managed by the kubelet).
    pub phase: PodPhase,
    /// Deletion requested (graceful termination in progress).
    pub deleting: bool,
    /// Creation timestamp (set by the creator's clock).
    pub created_at: SimTime,
    /// When the pod became Running (kubelet).
    pub started_at: Option<SimTime>,
}

impl Pod {
    /// A pending worker pod requesting one CPU.
    pub fn worker(
        name: impl Into<Arc<str>>,
        owner: impl Into<Arc<str>>,
        created_at: SimTime,
    ) -> Pod {
        let owner = owner.into();
        Pod {
            name: name.into(),
            affinity_group: Some(Arc::clone(&owner)),
            owner,
            role: PodRole::Worker,
            cpu_request: 1,
            node: None,
            phase: PodPhase::Pending,
            deleting: false,
            created_at,
            started_at: None,
        }
    }

    /// A pending launcher pod requesting one CPU.
    pub fn launcher(
        name: impl Into<Arc<str>>,
        owner: impl Into<Arc<str>>,
        created_at: SimTime,
    ) -> Pod {
        let owner = owner.into();
        Pod {
            name: name.into(),
            affinity_group: Some(Arc::clone(&owner)),
            owner,
            role: PodRole::Launcher,
            cpu_request: 1,
            node: None,
            phase: PodPhase::Pending,
            deleting: false,
            created_at,
            started_at: None,
        }
    }

    /// Pod-store index: pods by owning job.
    pub const BY_OWNER: &'static str = "owner";
    /// Pod-store index: pods by [`PodStage`] ([`PodStage::as_str`]).
    pub const BY_STAGE: &'static str = "stage";

    /// An empty pod store with the indexes the control plane reads:
    /// [`Pod::BY_OWNER`] for the per-job reads, [`Pod::BY_STAGE`] for
    /// the scheduler, the kubelet and garbage collection.
    pub fn store() -> Store<Pod> {
        fn owner(p: &Pod) -> IndexKey<'_> {
            IndexKey::Shared(&p.owner)
        }
        fn stage(p: &Pod) -> IndexKey<'_> {
            IndexKey::Static(p.stage().as_str())
        }
        Store::indexed(&[(Pod::BY_OWNER, owner), (Pod::BY_STAGE, stage)])
    }

    /// The pod's lifecycle stage.
    pub fn stage(&self) -> PodStage {
        match (self.phase, self.node.is_some(), self.deleting) {
            (PodPhase::Succeeded | PodPhase::Failed, _, _) => PodStage::Finished,
            (_, _, true) => PodStage::Terminating,
            (_, false, false) => PodStage::Unbound,
            (PodPhase::Pending, true, false) => PodStage::Starting,
            (PodPhase::Running, true, false) => PodStage::Settled,
        }
    }

    /// `true` while the pod holds (or will hold) node resources.
    pub fn consumes_resources(&self) -> bool {
        !matches!(self.phase, PodPhase::Succeeded | PodPhase::Failed)
    }
}

impl Resource for Pod {
    fn name(&self) -> &str {
        &self.name
    }

    fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }
}

/// A key-value config object (nodelist files, §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMap {
    /// Unique name.
    pub name: String,
    /// Payload.
    pub data: BTreeMap<String, String>,
}

impl ConfigMap {
    /// An empty config map.
    pub fn new(name: impl Into<String>) -> ConfigMap {
        ConfigMap {
            name: name.into(),
            data: BTreeMap::new(),
        }
    }
}

impl Resource for ConfigMap {
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_constructors_set_roles_and_affinity() {
        let w = Pod::worker("j1-worker-0", "j1", SimTime::ZERO);
        assert_eq!(w.role, PodRole::Worker);
        assert_eq!(w.affinity_group.as_deref(), Some("j1"));
        assert_eq!(w.cpu_request, 1);
        assert_eq!(w.phase, PodPhase::Pending);
        let l = Pod::launcher("j1-launcher", "j1", SimTime::ZERO);
        assert_eq!(l.role, PodRole::Launcher);
        assert_eq!(&*l.owner, "j1");
    }

    #[test]
    fn resource_consumption_by_phase() {
        let mut p = Pod::worker("w", "j", SimTime::ZERO);
        assert!(p.consumes_resources());
        p.phase = PodPhase::Running;
        p.deleting = true;
        assert!(p.consumes_resources());
        p.phase = PodPhase::Succeeded;
        assert!(!p.consumes_resources());
        p.phase = PodPhase::Failed;
        assert!(!p.consumes_resources());
    }

    #[test]
    fn stage_follows_phase_node_and_deleting() {
        let mut p = Pod::worker("w", "j", SimTime::ZERO);
        assert_eq!(p.stage(), PodStage::Unbound);
        p.deleting = true;
        assert_eq!(p.stage(), PodStage::Terminating, "deletion needs no node");
        p.deleting = false;
        p.node = Some("n0".into());
        assert_eq!(p.stage(), PodStage::Starting);
        p.phase = PodPhase::Running;
        assert_eq!(p.stage(), PodStage::Settled);
        p.deleting = true;
        assert_eq!(p.stage(), PodStage::Terminating);
        for phase in [PodPhase::Succeeded, PodPhase::Failed] {
            p.phase = phase;
            assert_eq!(p.stage(), PodStage::Finished, "whatever else is set");
        }
    }

    #[test]
    fn node_defaults_ready() {
        let n = Node::new("n0", 16);
        assert!(n.ready);
        assert_eq!(n.cpu_capacity, 16);
        assert_eq!(Resource::name(&n), "n0");
    }

    #[test]
    fn configmap_holds_data() {
        let mut cm = ConfigMap::new("nodelist-j1");
        cm.data.insert("hosts".into(), "pod-0\npod-1".into());
        assert_eq!(Resource::name(&cm), "nodelist-j1");
        assert!(cm.data["hosts"].contains("pod-1"));
    }
}
