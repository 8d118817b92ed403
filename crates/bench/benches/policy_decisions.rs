//! Benches: scheduling-decision latency.
//!
//! The paper claims the operator handles "a much larger number of jobs"
//! than prior work; decision cost per submission/completion is the
//! relevant scalability number. With the interned-id/incremental-view
//! decision path the per-decision cost reads off maintained indexes —
//! these benches pin the absolute numbers at three cluster populations,
//! the rigid baselines' `on_complete` against a blocked head with
//! a deep backlog behind it (queue 100 / 1 000 / 10 000 × free slots
//! 0 / 3 / 64): the cost must follow the candidates that fit the free
//! slots, not the queue depth; the elastic policy's completion over
//! that backlog with 2 free slots, which no queued job fits once its
//! launcher is paid (Fig. 3's queued lane drops every footprint
//! bucket, so the cost must stay flat in the queue depth); and the
//! elastic policy's two decisions
//! with every running job (256 / 4 096) inside its rescale gap: the
//! cost must follow the jobs the gap lets it touch — none — not the
//! running population. `view_upkeep` is the other side of those
//! indexes: what a view *mutation* costs with none of them built and
//! with the three the elastic policy reads.
//!
//! Each case prints one `bench <group>/<case>` line: the median over
//! ten samples of the time one call takes.

use std::hint::black_box;
use std::time::Instant;

use elastic_core::{
    apply_action, Action, ClusterView, EasyBackfill, FcfsBackfill, JobId, JobState, Policy,
    PolicyConfig, PolicyKind, SchedulingPolicy,
};
use hpc_metrics::{Duration, SimTime};

/// Samples per case; the printed time is their median.
const SAMPLES: usize = 10;

/// Times `routine` and prints its median time per call. A sample is one
/// warm-up call, then a batch of calls sized to about 10 ms (at most
/// 1 000; one call if the warm-up took a millisecond or more), timed
/// as a whole and divided by its length.
fn bench<O>(label: &str, mut routine: impl FnMut() -> O) {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(routine());
            let probe_ns = started.elapsed().as_nanos().max(1);
            let calls = if probe_ns < 1_000_000 {
                (10_000_000 / probe_ns).clamp(1, 1000) as u32
            } else {
                1
            };
            let started = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            (started.elapsed() / calls).as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median_us = samples[SAMPLES / 2] * 1e6;
    println!("bench {label:<48} {median_us:>12.3} us/iter");
}

/// `n` running jobs, job `i` last acted on at `acted_at(i)` seconds,
/// plus one queued newcomer (id `n`).
fn view_with_jobs(n: usize, acted_at: impl Fn(usize) -> f64) -> (ClusterView, JobId) {
    let mut view = ClusterView::new(4096);
    for i in 0..n {
        // The bench pins free_slots to a tight constant below,
        // independent of the population; keep insert's capacity
        // accounting out of the way.
        view.set_free_slots(4096);
        view.insert(
            JobState {
                id: JobId::from_index(i),
                min_replicas: 2,
                max_replicas: 16,
                priority: 1 + (i as u32) % 5,
                submitted_at: SimTime::from_secs(i as f64),
                replicas: 4,
                last_action: SimTime::from_secs(acted_at(i)),
                running: true,
                walltime_estimate: None,
            },
            1,
        );
    }
    let newcomer = JobId::from_index(n);
    view.insert(
        JobState {
            id: newcomer,
            min_replicas: 8,
            max_replicas: 32,
            priority: 4,
            submitted_at: SimTime::from_secs(1e6),
            replicas: 0,
            last_action: SimTime::NEG_INFINITY,
            running: false,
            walltime_estimate: None,
        },
        1,
    );
    view.set_free_slots(4);
    (view, newcomer)
}

/// 16 running jobs with estimates, then a queue: a head too large for
/// any `free` benched here, and `queue` jobs behind it whose minimums
/// cycle 2, 4, 8, … 256 — so at 3 free slots one job in eight is a
/// candidate, at 64 five in eight, at 0 none.
fn deep_backlog(queue: usize, free: u32) -> ClusterView {
    let job = |i: usize, min: u32, running: bool| JobState {
        id: JobId::from_index(i),
        min_replicas: min,
        max_replicas: min,
        priority: 3,
        submitted_at: SimTime::from_secs(i as f64),
        replicas: if running { min } else { 0 },
        last_action: SimTime::from_secs(i as f64),
        running,
        walltime_estimate: Some(Duration::from_secs(600.0 + 37.0 * (i % 53) as f64)),
    };
    let mut view = ClusterView::new(4096);
    for i in 0..16 {
        view.insert(job(i, 200, true), 1);
    }
    view.insert(job(16, 512, false), 1);
    for i in 0..queue {
        view.insert(job(17 + i, 2 << (i % 8), false), 1);
    }
    view.set_free_slots(free);
    view
}

fn bench_backlog() {
    let now = SimTime::from_secs(1e6);
    let policies: [Box<dyn SchedulingPolicy>; 3] = [
        Box::new(EasyBackfill::new()),
        Box::new(EasyBackfill::sjbf()),
        Box::new(FcfsBackfill {
            // The head has waited 1e6 s: keep the starvation guard
            // from short-circuiting the backfill being measured.
            backfill_patience: Duration::INFINITY,
        }),
    ];
    let elastic = Policy::elastic(elastic_cfg());
    for &queue in &[100usize, 1000, 10_000] {
        for &free in &[0u32, 3, 64] {
            let view = deep_backlog(queue, free);
            for policy in &policies {
                let label = format!("backlog/on_complete/{}/free{free}/{queue}", policy.name());
                bench(&label, || policy.on_complete(&view, now));
            }
        }
        // The running jobs sit at their maximum, so nothing takes the
        // leftover: the walk must end without visiting the queue.
        let view = deep_backlog(queue, 2);
        bench(
            &format!("backlog/on_complete/elastic/free2/{queue}"),
            || elastic.on_complete(&view, now),
        );
    }
}

fn elastic_cfg() -> PolicyConfig {
    PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    }
}

/// Every running job rescaled 1..=170 s ago, inside the 180 s gap: the
/// newcomer cannot be made room for and nothing may expand, and
/// finding that out must not cost a walk over the running jobs.
fn bench_inside_gap() {
    let now_s = 2e6;
    let now = SimTime::from_secs(now_s);
    let policy = Policy::elastic(elastic_cfg());
    for &n in &[256usize, 4096] {
        let (view, newcomer) = view_with_jobs(n, |i| now_s - 1.0 - (i % 170) as f64);
        bench(&format!("inside_gap/on_submit/elastic/{n}"), || {
            policy.on_submit(&view, newcomer, now)
        });
        bench(&format!("inside_gap/on_complete/elastic/{n}"), || {
            policy.on_complete(&view, now)
        });
    }
}

fn bench_decisions() {
    let cfg = elastic_cfg();
    let now = SimTime::from_secs(2e6);
    for &n in &[16usize, 128, 1024] {
        let (view, newcomer) = view_with_jobs(n, |i| i as f64);
        // Every policy goes through the same trait surface the
        // operator and the simulator use.
        let mut policies: Vec<Box<dyn SchedulingPolicy>> = PolicyKind::ALL
            .into_iter()
            .map(|kind| Box::new(Policy::of_kind(kind, cfg)) as Box<dyn SchedulingPolicy>)
            .collect();
        policies.push(Box::new(FcfsBackfill::new()));
        for policy in &policies {
            bench(&format!("policy/on_submit/{}/{n}", policy.name()), || {
                policy.on_submit(&view, newcomer, now)
            });
        }
        let policy: Box<dyn SchedulingPolicy> = Box::new(Policy::elastic(cfg));
        bench(&format!("policy/on_complete/elastic/{n}"), || {
            policy.on_complete(&view, now)
        });
    }
}

/// The mutations a replay puts its view through, in steady state over
/// 256 running jobs at increasing instants: each step one job
/// completes, its successor is submitted and started (create), and two
/// jobs started a half and a quarter lap ago rescale — five mutations.
struct Churn {
    view: ClusterView,
    step: usize,
}

impl Churn {
    const JOBS: usize = 256;
    const MUTATIONS_PER_STEP: usize = 5;

    fn job(slot: usize, at: SimTime, replicas: u32) -> JobState {
        JobState {
            id: JobId::from_index(slot),
            min_replicas: 2,
            max_replicas: 4,
            priority: 1 + (slot as u32) % 5,
            submitted_at: at,
            replicas,
            last_action: at,
            running: replicas > 0,
            walltime_estimate: None,
        }
    }

    fn new() -> Self {
        let mut view = ClusterView::new(4096);
        for slot in 0..Self::JOBS {
            view.insert(Self::job(slot, SimTime::ZERO, 4), 1);
        }
        Churn { view, step: 0 }
    }

    fn step(&mut self) {
        self.step += 1;
        let now = SimTime::from_secs(self.step as f64);
        let slot = |ahead: usize| (self.step + ahead) % Self::JOBS;
        let done = JobId::from_index(slot(0));
        self.view.remove(done, 1);
        self.view.insert(Self::job(slot(0), now, 0), 1);
        let start = Action::Create {
            job: done,
            replicas: 4,
        };
        apply_action(&mut self.view, &start, now, 1);
        for ahead in [Self::JOBS / 2, Self::JOBS / 4] {
            let job = JobId::from_index(slot(ahead));
            let rescale = match self.view.job(job).expect("every slot is live").replicas {
                4 => Action::Shrink {
                    job,
                    to_replicas: 2,
                },
                _ => Action::Expand {
                    job,
                    to_replicas: 4,
                },
            };
            apply_action(&mut self.view, &rescale, now, 1);
        }
    }
}

/// One iteration is 1 000 mutations, so the µs/iter printed is the ns
/// one mutation costs: `bare` with no ordered index built,
/// `elastic_indexes` with the three the elastic policy reads (running
/// and queued priority orders, the last-action list) kept current, and
/// `easy_indexes` with the three EASY reads (the FCFS queue, its
/// footprint buckets, the completion frontier).
fn bench_view_upkeep() {
    const STEPS: usize = 1000 / Churn::MUTATIONS_PER_STEP;
    for name in ["bare", "elastic_indexes", "easy_indexes"] {
        let mut churn = Churn::new();
        let view = &churn.view;
        match name {
            "elastic_indexes" => {
                let read = view.running_scan().count()
                    + view.running_by_last_action().count()
                    + view.queued_fitting_by_priority(u32::MAX).count();
                assert_eq!(read, 2 * Churn::JOBS);
            }
            "easy_indexes" => {
                let any = JobId::from_index(0);
                let read = view.queued_scan().count()
                    + view.queued_fitting(any, u32::MAX).count()
                    + view.running_by_estimated_end().count();
                assert_eq!(read, Churn::JOBS);
            }
            _ => {}
        }
        bench(&format!("view_upkeep/{name}"), || {
            for _ in 0..STEPS {
                churn.step();
            }
        });
    }
}

fn main() {
    bench_decisions();
    bench_inside_gap();
    bench_backlog();
    bench_view_upkeep();
}
