//! The "Actual" experimental campaign (Fig. 9 / Table 1 left columns).
//!
//! Runs the real stack end to end: the CharmJob operator on the
//! simulated control plane, real `charm-rt` Jacobi2D jobs as worker
//! threads, CCS-signalled rescaling — on a *time-compressed* wall clock
//! so the paper's 90 s submission gap / 180 s `T_rescale_gap` campaign
//! finishes in tens of seconds. Problem sizes and replica counts are
//! scaled to the host (quick mode: a 16-slot cluster with
//! class bounds divided by 4; `--full`: the paper's 64-slot bounds).

use elastic_core::{
    run_real, AppSpec, CharmExecutor, CharmJobSpec, CharmOperator, JobRegistry, Policy,
    PolicyConfig, PolicyKind, RunMetrics, Schedule,
};
use elastic_hpc::scenario::campaign_jobs;
use elastic_hpc::workload::SizeClass;
use hpc_metrics::{ascii, Duration, RealClock, UtilizationRecorder};
use kube_sim::{ControlPlane, EventLog, KubeletConfig};

use crate::{CsvTable, Options, Report};

/// Experiment seconds per wall second of every campaign.
const COMPRESSION: f64 = 60.0;

/// Scaled problem definition for one size class.
#[derive(Debug, Clone, Copy)]
pub struct ScaledClass {
    /// Minimum replicas.
    pub min: u32,
    /// Maximum replicas.
    pub max: u32,
    /// Jacobi grid dimension.
    pub grid: usize,
    /// Blocks per dimension (over-decomposition).
    pub blocks: u64,
    /// Total iterations.
    pub iters: u64,
    /// Iterations per sync window.
    pub window: u64,
}

/// Scaled parameters for `class`. Quick mode divides the paper's
/// replica bounds by 4 (16-slot cluster) and shrinks grids/iterations
/// so each job runs seconds of wall time.
fn scaled_class(class: SizeClass, full: bool) -> ScaledClass {
    if full {
        match class {
            SizeClass::Small => ScaledClass {
                min: 2,
                max: 8,
                grid: 512,
                blocks: 8,
                iters: 40_000,
                window: 1_000,
            },
            SizeClass::Medium => ScaledClass {
                min: 4,
                max: 16,
                grid: 1024,
                blocks: 8,
                iters: 30_000,
                window: 600,
            },
            SizeClass::Large => ScaledClass {
                min: 8,
                max: 32,
                grid: 2048,
                blocks: 8,
                iters: 15_000,
                window: 300,
            },
            SizeClass::XLarge => ScaledClass {
                min: 16,
                max: 64,
                grid: 4096,
                blocks: 8,
                iters: 4_000,
                window: 100,
            },
        }
    } else {
        match class {
            SizeClass::Small => ScaledClass {
                min: 1,
                max: 2,
                grid: 256,
                blocks: 4,
                iters: 24_000,
                window: 600,
            },
            SizeClass::Medium => ScaledClass {
                min: 1,
                max: 4,
                grid: 512,
                blocks: 4,
                iters: 20_000,
                window: 500,
            },
            SizeClass::Large => ScaledClass {
                min: 2,
                max: 8,
                grid: 1024,
                blocks: 8,
                iters: 10_000,
                window: 250,
            },
            SizeClass::XLarge => ScaledClass {
                min: 4,
                max: 16,
                grid: 2048,
                blocks: 8,
                iters: 4_000,
                window: 100,
            },
        }
    }
}

/// The scaled job set for workload `seed` (16 jobs, same class and
/// priority draws as the simulator's workload generator).
fn scaled_jobs(seed: u64, full: bool) -> Vec<CharmJobSpec> {
    campaign_jobs(seed)
        .jobs
        .into_iter()
        .map(|j| {
            let sc = scaled_class(j.class().expect("paper generator emits class jobs"), full);
            CharmJobSpec {
                name: j.name.to_string(),
                min_replicas: sc.min,
                max_replicas: sc.max,
                priority: j.priority,
                walltime_estimate: None,
                app: AppSpec::Jacobi {
                    grid: sc.grid,
                    blocks: sc.blocks,
                    total_iters: sc.iters,
                    window: sc.window,
                },
            }
        })
        .collect()
}

/// Result of one campaign run.
pub struct CampaignResult {
    /// Table 1 metrics.
    pub metrics: RunMetrics,
    /// Per-job worker-slot allocation over time (keyed by `JobId`;
    /// resolve names through [`CampaignResult::registry`]).
    pub util: UtilizationRecorder,
    /// The run's name ↔ id interning table (the reporting edge).
    pub registry: JobRegistry,
    /// Operator event log (rescale signals, etc.).
    pub events: EventLog,
    /// Cluster capacity used (for profile normalization).
    pub capacity: u32,
}

/// Runs the full 16-job campaign under `kind` on a wall clock
/// compressed 60-fold (experiment seconds per wall second).
pub fn run_campaign(kind: PolicyKind, seed: u64, full: bool) -> CampaignResult {
    let slots_per_node = if full { 16 } else { 4 };
    let clock = std::sync::Arc::new(RealClock::with_compression(COMPRESSION));
    let plane = ControlPlane::with_nodes(
        clock,
        KubeletConfig {
            startup_latency: Duration::from_secs(1.0),
            termination_grace: Duration::from_secs(0.5),
        },
        4,
        slots_per_node,
    );
    let capacity = plane.capacity();
    let policy = Policy::of_kind(kind, PolicyConfig::default());
    let mut op = CharmOperator::new(plane, Box::new(policy), Box::new(CharmExecutor));
    op.record_allocations();
    let schedule = Schedule::every(scaled_jobs(seed, full), Duration::from_secs(90.0));
    let metrics = run_real(
        &mut op,
        &schedule,
        Duration::from_secs(2.0),
        Duration::from_secs(50_000.0),
    );
    CampaignResult {
        metrics,
        util: (op.utilization().log())
            .expect("the campaign records its allocations")
            .clone(),
        registry: op.registry().clone(),
        events: op.events.clone(),
        capacity,
    }
}

/// Fig. 9: measured cluster-utilization profiles of the four
/// schedulers (9a), and the replica evolution of the first xlarge job
/// under elastic (9b).
///
/// Paper: the 16-job campaign on EKS (90 s submission gap,
/// `T_rescale_gap` = 180 s), utilization tracked per pod. Here the same
/// campaign runs the real operator + real Jacobi jobs under a
/// compressed wall clock.
pub fn fig9(options: &Options) -> Report {
    let Options { full, seed, .. } = *options;
    println!(
        "== Fig. 9: utilization profiles (seed {seed}, compression {COMPRESSION}x, {} mode) ==",
        if full { "full" } else { "quick" }
    );
    for spec in scaled_jobs(seed, full) {
        println!(
            "  {}: prio {} replicas [{}, {}]",
            spec.name, spec.priority, spec.min_replicas, spec.max_replicas
        );
    }

    let mut tables = Vec::new();
    let mut profile_csv = CsvTable::new(["policy", "time_s", "job", "worker_slots"]);
    for kind in PolicyKind::ALL {
        println!("\n-- running {kind} campaign --");
        let res = run_campaign(kind, seed, full);
        println!("  {}", res.metrics.table_row());

        for ev in res.util.events() {
            profile_csv.row([
                kind.to_string(),
                format!("{:.2}", ev.at.as_secs()),
                res.registry.name(ev.job).to_string(),
                ev.slots.to_string(),
            ]);
        }

        // Fig. 9a quick-look: total occupancy sampled over the run.
        let total: Vec<(f64, f64)> = res
            .util
            .total_series()
            .iter()
            .map(|&(t, v)| (t.as_secs(), f64::from(v)))
            .collect();
        if let (Some(first), Some(last)) = (total.first(), total.last()) {
            println!(
                "{}",
                ascii::step_profile(
                    &kind.to_string(),
                    &total,
                    first.0,
                    last.0,
                    f64::from(res.capacity),
                    64,
                )
            );
        }

        // Fig. 9b: replica evolution of the first xlarge job (elastic).
        if kind == PolicyKind::Elastic {
            let xlarge = campaign_jobs(seed)
                .jobs
                .into_iter()
                .find(|j| j.class() == Some(SizeClass::XLarge))
                .map(|j| j.name);
            if let Some(name) = xlarge {
                if let Some(series) = res
                    .registry
                    .id(&name)
                    .and_then(|id| res.util.per_job_series().remove(&id))
                {
                    let pts: Vec<(f64, f64)> = series
                        .iter()
                        .map(|&(t, v)| (t.as_secs(), f64::from(v)))
                        .collect();
                    println!(
                        "{}",
                        ascii::line_chart(
                            &format!("Fig 9b: {name} replicas over time (elastic)"),
                            &[("replicas", pts.clone())],
                            64,
                            10,
                            false,
                        )
                    );
                    let mut t9b = CsvTable::new(["time_s", "replicas"]);
                    for (t, v) in pts {
                        t9b.row_f64([t, v]);
                    }
                    tables.push(("fig9b_xlarge_replicas.csv", t9b));
                }
            }
        }
    }
    tables.push(("fig9a_utilization_profiles.csv", profile_csv));
    Report {
        tables,
        claims: Vec::new(),
    }
}
