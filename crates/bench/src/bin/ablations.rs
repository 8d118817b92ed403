//! Ablations of the elastic policy's interpretation decisions (the
//! numbered list in the `policy/elastic.rs` header of `elastic-core`),
//! each row one change against `baseline(paper)` (gap 180 s, one
//! launcher slot, head spared):
//!
//! * `no-head-sparing` — Fig. 2 iterates `while index > 0`, never
//!   shrinking the highest-priority running job; off here.
//! * `launcher=0` — the `freeSlots − 1` launcher term dropped.
//! * `gap=0s`, `gap=600s` — out-of-order backfill on completion,
//!   measured indirectly: the rescale gap is what blocks in-order
//!   expansion and forces backfill.
//! * `aging-sweep(600s/90s)` — the §3.2.2 starvation remedy: the policy
//!   wrapped in `AgingSweep`, a queued job's priority doubling per
//!   600 s of waiting, swept every 90 s.
//!
//! Usage: `ablations [--seeds N]`

use elastic_bench::{emit_csv, flag_u64, CsvTable};
use elastic_core::{AgingSweep, Policy, PolicyConfig, PolicyKind, SchedulingPolicy};
use hpc_metrics::{Duration, Summary};
use sched_sim::{generate_workload, simulate, SimConfig};

struct Variant {
    label: &'static str,
    cfg: PolicyConfig,
    /// Wrap the policy in `AgingSweep` (600 s half-life, 90 s sweep).
    aging_sweep: bool,
}

fn policy(v: &Variant) -> Box<dyn SchedulingPolicy> {
    let elastic = Box::new(Policy::of_kind(PolicyKind::Elastic, v.cfg));
    if v.aging_sweep {
        let (half_life, every) = (Duration::from_secs(600.0), Duration::from_secs(90.0));
        Box::new(AgingSweep::new(elastic, half_life, every))
    } else {
        elastic
    }
}

fn run_variant(v: &Variant, seeds: u64) -> (f64, f64, f64, f64) {
    let mut util = Vec::new();
    let mut total = Vec::new();
    let mut resp = Vec::new();
    let mut resc = Vec::new();
    for seed in 0..seeds {
        let wl = generate_workload(seed, 16).spaced_every(Duration::from_secs(90.0));
        let cfg = SimConfig::paper_default(policy(v));
        let out = simulate(&cfg, &wl);
        util.push(out.metrics.utilization);
        total.push(out.metrics.total_time);
        resp.push(out.metrics.weighted_response);
        resc.push(f64::from(out.rescales));
    }
    let mean = |v: &[f64]| Summary::of(v).expect("non-empty").mean;
    (mean(&util), mean(&total), mean(&resp), mean(&resc))
}

fn main() {
    let seeds = flag_u64("--seeds", 50);
    let base = PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    };
    let variants = [
        Variant {
            label: "baseline(paper)",
            cfg: base,
            aging_sweep: false,
        },
        Variant {
            label: "no-head-sparing",
            cfg: PolicyConfig {
                shrink_spares_head: false,
                ..base
            },
            aging_sweep: false,
        },
        Variant {
            label: "launcher=0",
            cfg: PolicyConfig {
                launcher_slots: 0,
                ..base
            },
            aging_sweep: false,
        },
        Variant {
            label: "gap=0s",
            cfg: PolicyConfig {
                rescale_gap: Duration::from_secs(0.0),
                ..base
            },
            aging_sweep: false,
        },
        Variant {
            label: "gap=600s",
            cfg: PolicyConfig {
                rescale_gap: Duration::from_secs(600.0),
                ..base
            },
            aging_sweep: false,
        },
        Variant {
            label: "aging-sweep(600s/90s)",
            cfg: base,
            aging_sweep: true,
        },
    ];

    println!("== Elastic-policy ablations ({seeds} seeds, submission gap 90s) ==");
    let mut table = CsvTable::new([
        "variant",
        "utilization",
        "total_time_s",
        "weighted_response_s",
        "rescales",
    ]);
    let mut baseline_total = None;
    for v in &variants {
        let (util, total, resp, resc) = run_variant(v, seeds);
        println!(
            "  {:<18} util={util:.4} total={total:.1} wresp={resp:.2} rescales={resc:.1}",
            v.label
        );
        table.row([
            v.label.to_string(),
            format!("{util:.4}"),
            format!("{total:.2}"),
            format!("{resp:.2}"),
            format!("{resc:.1}"),
        ]);
        if v.label == "baseline(paper)" {
            baseline_total = Some(total);
        }
    }
    emit_csv(&table, "ablations.csv");
    if let Some(base_total) = baseline_total {
        println!("  (totals relative to baseline {base_total:.1}s)");
    }
}
