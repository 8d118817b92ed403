//! The four workloads. Each drives the product through public
//! functions only and is measured from outside.

pub mod des;
pub mod fed;
pub mod op;
pub mod serving;

use elastic_core::{FaultStats, Policy, PolicyConfig, RunMetrics, SchedulingPolicy};
use hpc_metrics::Duration;

use crate::policy::PolicyLedger;
use crate::runner::Probe;

/// The paper's elastic policy as every elastic workload configures it.
fn elastic() -> Box<dyn SchedulingPolicy> {
    Box::new(Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    }))
}

/// Per-layer samples every engine's `RunMetrics` provides.
fn sample_run_metrics(probe: &mut Probe, m: &RunMetrics) {
    probe.sample("policy.rescales", f64::from(m.rescales));
    probe.sample("policy.utilization", m.utilization);
    probe.sample("policy.mean_bsld", m.mean_bounded_slowdown);
    probe.sample("policy.weighted_response_s", m.weighted_response);
}

fn sample_faults(probe: &mut Probe, f: &FaultStats) {
    probe.sample("resilience.transient_faults", f64::from(f.transient_faults));
    probe.sample("resilience.retries", f64::from(f.retries));
    probe.sample("resilience.breaker_trips", f64::from(f.breaker_trips));
    probe.sample("resilience.evictions", f64::from(f.evictions));
    probe.sample("resilience.requeues", f64::from(f.requeues));
    probe.sample(
        "resilience.permanent_failures",
        f64::from(f.permanent_failures),
    );
    probe.sample("resilience.wasted_core_s", f.wasted_core_seconds);
}

/// Per-layer samples of the timing policy decorator.
fn sample_policy(probe: &mut Probe, ledger: &PolicyLedger) {
    probe.sample("policy.calls", ledger.decide.count as f64);
    probe.sample("policy.decide_s", ledger.decide.total_s());
    probe.sample("policy.ns_per_call", ledger.decide.mean_ns());
    probe.sample("policy.actions", ledger.actions as f64);
    probe.sample("policy.submit_dispatches", ledger.submit_dispatches as f64);
    probe.sample("policy.jobs_per_dispatch", ledger.jobs_per_dispatch());
}
