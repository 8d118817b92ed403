//! The benchmark's contract in one place: workloads, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root is [`manifest_json`] written to a file (the package
//! test holds the two equal), and every run prints exactly the metrics
//! listed here.

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "des-elastic-400k",
        why: "one 400k-job DES replay on one thread: sim event queue + core view/elastic policy do all the work, out of cache; kube, serving, federation and resilience do none",
    },
    WorkloadDef {
        name: "op-ingest-replay",
        why: "the same elastic policy on the operator engine through zero-delay ingest: kube stores/watches + reconcile ticks dominate (most instants idle), the DES does nothing",
    },
    WorkloadDef {
        name: "serving-paced",
        why: "open loop, 10k submits/s on a wall clock over two threads: ingest shard/ledger locks, store create fan-in, watch-to-bus fan-out, tick cost as the store grows",
    },
    WorkloadDef {
        name: "fed-easy-faults",
        why: "4 in-cache shards on 2 workers with EASY backfill under reclamations and a flaky storm: federation placement/work queue, resilience, DES fault events; the only workers>1 case",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen: three times the widest spread (IQR ÷ median over
/// ten seeds) any workload showed on the 2-core shared host this was
/// sized on, capped at the contract's 0.25 — 0.051 for `work_per_s`
/// (`fed-easy-faults`), 0.094 for `op_ms` (`serving-paced`, whose two
/// busy threads both have to find the host quiet), 0.069 for
/// `peak_rss_mb` (allocator arenas of the two-thread workloads).
/// `setup_s` is the fastest of only [`SETUPS`](crate::runner::SETUPS)
/// samples.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (m("work_per_s", "1/s", "higher"), 0.2),
    (m("op_ms", "ms", "lower"), 0.25),
    (m("peak_rss_mb", "MB", "lower"), 0.25),
    (m("setup_s", "s", "lower"), 0.25),
];

/// Per-layer metrics of the traced run, `<layer>.<metric>` with the
/// crate names as layers. A workload that never enters a layer reports
/// that layer's metrics as 0 with 0 samples.
pub const PER_LAYER: [MetricDef; 70] = [
    m("workload.generate_s", "s", "lower"),
    m("workload.jobs", "count", "higher"),
    m("workload.fault_events", "count", "higher"),
    m("sim.new_s", "s", "lower"),
    m("sim.step_s", "s", "lower"),
    m("sim.finish_s", "s", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.ns_per_event", "ns", "lower"),
    m("sim.self_ns_per_event", "ns", "lower"),
    m("sim.queue_ns_per_op", "ns", "lower"),
    m("sim.peak_queue_len", "count", "lower"),
    m("sim.peak_queue_len_raw", "count", "lower"),
    m("policy.calls", "count", "lower"),
    m("policy.decide_s", "s", "lower"),
    m("policy.ns_per_call", "ns", "lower"),
    m("policy.actions", "count", "lower"),
    m("policy.submit_dispatches", "count", "lower"),
    m("policy.jobs_per_dispatch", "count", "higher"),
    m("policy.rescales", "count", "lower"),
    m("policy.utilization", "ratio", "higher"),
    m("policy.mean_bsld", "ratio", "lower"),
    m("policy.weighted_response_s", "s", "lower"),
    m("operator.ticks", "count", "lower"),
    m("operator.tick_s", "s", "lower"),
    m("operator.idle_tick_us", "us", "lower"),
    m("operator.busy_tick_us", "us", "lower"),
    m("operator.self_s", "s", "lower"),
    m("operator.all_complete_s", "s", "lower"),
    m("operator.metrics_s", "s", "lower"),
    m("kube.watch_events", "count", "lower"),
    m("kube.jobs_stored", "count", "higher"),
    m("ingest.submit_s", "s", "lower"),
    m("ingest.submit_p50_us", "us", "lower"),
    m("ingest.submit_p99_us", "us", "lower"),
    m("ingest.pump_s", "s", "lower"),
    m("ingest.batches", "count", "lower"),
    m("ingest.jobs_per_batch", "count", "higher"),
    m("ingest.shed", "count", "lower"),
    m("ingest.rejected", "count", "lower"),
    m("ingest.admit_p50_ms", "ms", "lower"),
    m("ingest.admit_p99_ms", "ms", "lower"),
    m("bus.pump_s", "s", "lower"),
    m("bus.published", "count", "higher"),
    m("bus.lagged", "count", "lower"),
    m("serving.loop_p50_us", "us", "lower"),
    m("serving.loop_p99_us", "us", "lower"),
    m("serving.event_p90_ms", "ms", "lower"),
    m("serving.event_p99_ms", "ms", "lower"),
    m("serving.event_tail_pct", "%", "higher"),
    m("serving.event_tail_ms", "ms", "lower"),
    m("serving.gen_late_p99_ms", "ms", "lower"),
    m("fed.route_s", "s", "lower"),
    m("fed.run_s", "s", "lower"),
    m("fed.events", "count", "lower"),
    m("fed.turns", "count", "lower"),
    m("fed.shard_imbalance", "ratio", "lower"),
    m("fed.parallel_efficiency", "ratio", "higher"),
    m("resilience.transient_faults", "count", "lower"),
    m("resilience.retries", "count", "lower"),
    m("resilience.breaker_trips", "count", "lower"),
    m("resilience.evictions", "count", "lower"),
    m("resilience.requeues", "count", "lower"),
    m("resilience.permanent_failures", "count", "lower"),
    m("resilience.wasted_core_s", "s", "lower"),
    m("resilience.faulted_over_plain", "ratio", "higher"),
    m("proc.cpu_s", "s", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.untraced_work_per_s", "1/s", "higher"),
    m("trace.traced_work_per_s", "1/s", "higher"),
    m("trace.overhead_share", "ratio", "lower"),
];

/// One measured value and the number of samples behind it.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one run measured, keyed by metric name.
#[derive(Default)]
pub struct Report {
    values: Vec<Measured>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice in one run"
        );
        self.values.push(Measured {
            name,
            value,
            samples,
        });
    }

    /// Sets a metric from an optional statistic: a percentile without
    /// enough samples stays unset (printed as omitted, 0 samples).
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if let Some(v) = value {
            self.set(name, v, samples);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.values.iter().find(|v| v.name == name)
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (d, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_limits_hold() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(d, _)| d.name));
        names.extend(PER_LAYER.iter().map(|d| d.name));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (d, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(d, _)| (d.name, d.unit, d.better) == ("setup_s", "s", "lower")));
        assert!(PER_LAYER.len() <= 128 && manifest_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
