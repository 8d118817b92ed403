//! The part every workload shares: repeated set-up, the timed loop,
//! the fingerprint check and the reduction of iterations to metrics.
//!
//! One run is `SETUPS` × (generate inputs + one untimed warm-up
//! iteration), then identical timed iterations until `--seconds` have
//! passed.
//!
//! The host this benchmark was sized on slows down by 1.3–1.8× for
//! seconds at a time, a third of the time, and never speeds up: its
//! noise is one-sided. A median over iterations moves with how much of
//! the run those windows happened to cover (17–23 % between identical
//! runs); the fastest observation does not. So every iteration reports
//! the wall time of its consecutive *segments* (a DES step quantum, a
//! whole short replay), and a run's time is the sum over segments of
//! each segment's minimum across iterations — an estimate of the
//! undisturbed run, assembled from the quietest sighting of each part.

use std::time::Instant;

use crate::agg::median;
use crate::fingerprint;
use crate::metrics::Report;
use crate::proc;
use crate::trace::{SpanId, Tracer};

/// Set-ups per untraced run; `setup_s` is the fastest of them.
pub const SETUPS: usize = 3;
/// Timed iterations a full-size run never goes below.
pub const MIN_ITERATIONS: usize = 3;

#[derive(Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke sizes: 1 set-up, 1 iteration, inputs ÷10. Not comparable.
    pub quick: bool,
    /// Rewrite the seed's expected fingerprint instead of checking it.
    pub record: bool,
}

/// What one iteration did.
pub struct Iteration {
    /// Wall seconds of the iteration's consecutive segments; the same
    /// segmentation every iteration.
    pub segments_s: Vec<f64>,
    /// Work units completed (the unit is the workload's own).
    pub work: f64,
    /// Where ops are requests: their median latency in each of the
    /// iteration's time buckets. `None` where the op is the iteration.
    pub request_p50_ms: Option<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Canonical text of the outputs a deterministic workload must
    /// reproduce; `None` for the wall-clock workload.
    pub fingerprint: Option<String>,
}

/// Per-iteration samples of per-layer metrics, reduced to medians.
#[derive(Default)]
pub struct Samples {
    rows: Vec<(&'static str, Vec<f64>)>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.rows.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.rows.push((name, vec![value])),
        }
    }

    fn report(&self, report: &mut Report) {
        for (name, values) in &self.rows {
            report.set_opt(name, median(values), values.len());
        }
    }
}

/// The traced run's handle: spans plus per-layer samples. Untraced
/// iterations get a probe that is switched off, so both kinds run the
/// same workload code.
pub struct Probe<'a> {
    traced: Option<(&'a mut Tracer, &'a mut Samples)>,
}

impl<'a> Probe<'a> {
    pub fn off() -> Self {
        Probe { traced: None }
    }

    pub fn new(tracer: &'a mut Tracer, samples: &'a mut Samples) -> Self {
        Probe {
            traced: Some((tracer, samples)),
        }
    }

    pub fn on(&self) -> bool {
        self.traced.is_some()
    }

    pub fn open_iteration(&mut self) -> Option<SpanId> {
        self.traced.as_mut().map(|(t, _)| t.open_iteration())
    }

    pub fn open(&mut self, name: &'static str) -> Option<SpanId> {
        self.traced.as_mut().map(|(t, _)| t.open(name))
    }

    /// Closes a span and returns its seconds (0 when switched off).
    pub fn close(&mut self, id: Option<SpanId>) -> f64 {
        match (self.traced.as_mut(), id) {
            (Some((t, _)), Some(id)) => t.close(id),
            _ => 0.0,
        }
    }

    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        self.traced.as_mut().map(|(t, _)| &mut **t)
    }

    /// Records one per-layer sample of this iteration.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if let Some((_, s)) = self.traced.as_mut() {
            s.push(name, value);
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Generates the inputs for `seed`; nothing else is seeded.
    fn generate(seed: u64, quick: bool) -> Self;

    /// Builds fresh program state and runs the workload once.
    fn iterate(&mut self, probe: &mut Probe) -> Iteration;

    /// Traced run only: measurements that need extra replays.
    fn extras(&mut self, _samples: &mut Samples) {}
}

pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Element-wise minimum of the rows: each part's quietest sighting.
fn quietest<'a>(rows: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    rows.fold(Vec::new(), |best: Vec<f64>, row| {
        if best.is_empty() {
            return row.clone();
        }
        assert_eq!(best.len(), row.len(), "iterations segment alike");
        best.iter().zip(row).map(|(a, b)| a.min(*b)).collect()
    })
}

/// Seconds one undisturbed iteration takes, as far as `its` show.
fn quiet_wall_s(its: &[Iteration]) -> f64 {
    quietest(its.iter().map(|it| &it.segments_s)).iter().sum()
}

fn quiet_rate(its: &[Iteration]) -> f64 {
    its[0].work / quiet_wall_s(its)
}

/// The op's latency on an undisturbed host: the mean over time buckets
/// of the quietest median where ops are requests, the iteration's
/// quiet wall time where the op is the iteration.
fn quiet_op_ms(its: &[Iteration]) -> f64 {
    let buckets = quietest(its.iter().filter_map(|it| it.request_p50_ms.as_ref()));
    if buckets.is_empty() {
        quiet_wall_s(its) * 1e3
    } else {
        buckets.iter().sum::<f64>() / buckets.len() as f64
    }
}

/// Runs workload `W` as `opts` says and reduces it to a [`Report`].
pub fn run<W: Workload>(opts: &Options) -> Outcome {
    let cpu_start = proc::cpu_s();
    let setups = if opts.quick || opts.traced { 1 } else { SETUPS };
    let min_iterations = if opts.quick { 1 } else { MIN_ITERATIONS };
    let seconds = if opts.quick { 0.0 } else { opts.seconds };
    let mut setup_s = Vec::new();
    let mut generate_s = 0.0;
    let mut warm_ups = Vec::new();
    let mut workload = None;
    for _ in 0..setups {
        // One copy of the inputs at a time, so peak RSS is the
        // workload's, not the repetition's.
        drop(workload.take());
        let started = Instant::now();
        let mut w = W::generate(opts.seed, opts.quick);
        generate_s = started.elapsed().as_secs_f64();
        warm_ups.push(w.iterate(&mut Probe::off()));
        setup_s.push(started.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let timed_from = Instant::now();
    let elapsed = |from: Instant| from.elapsed().as_secs_f64();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    if opts.traced {
        // A quarter of the run stays untraced: the base of the
        // overhead share.
        let base_iterations = min_iterations.min(2);
        while untraced.len() < base_iterations || elapsed(timed_from) < seconds / 4.0 {
            untraced.push(w.iterate(&mut Probe::off()));
        }
        while traced.len() < min_iterations || elapsed(timed_from) < seconds {
            traced.push(w.iterate(&mut Probe::new(&mut tracer, &mut samples)));
        }
    } else {
        while untraced.len() < min_iterations || elapsed(timed_from) < seconds {
            untraced.push(w.iterate(&mut Probe::off()));
        }
    }

    // Output check: every iteration of a deterministic workload must
    // reproduce one fingerprint, and seed 0's is on file.
    let all = || warm_ups.iter().chain(&untraced).chain(&traced);
    let reference = all().next().and_then(|it| it.fingerprint.clone());
    let mut consistent = all().all(|it| it.fingerprint == reference);
    if let Some(actual) = &reference {
        let path = fingerprint::expected_path(W::NAME, opts);
        consistent &= fingerprint::check_or_record(&path, opts.record, actual);
    }
    let timed = || untraced.iter().chain(&traced);
    let attempted: u64 = timed().map(|it| it.attempted).sum();
    let failed: u64 = timed()
        .map(|it| if consistent { it.failed } else { it.attempted })
        .sum();

    let mut report = Report::default();
    if opts.traced {
        w.extras(&mut samples);
        samples.push("workload.generate_s", generate_s);
        samples.report(&mut report);
        let base = quiet_rate(&untraced);
        let with = quiet_rate(&traced);
        report.set("trace.untraced_work_per_s", base, untraced.len());
        report.set("trace.traced_work_per_s", with, traced.len());
        report.set("trace.overhead_share", (base - with) / base, traced.len());
        report.set("trace.spans", tracer.len() as f64, 1);
        if let (Some(a), Some(b)) = (cpu_start, proc::cpu_s()) {
            report.set("proc.cpu_s", b - a, 1);
        }
        tracer.write_out(W::NAME);
    } else {
        let n = untraced.len();
        report.set("work_per_s", quiet_rate(&untraced), n);
        report.set("op_ms", quiet_op_ms(&untraced), n);
        let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
        report.set("setup_s", fastest, setup_s.len());
        report.set_opt("peak_rss_mb", proc::peak_rss_mb(), 1);
    }
    Outcome {
        report,
        attempted,
        failed,
        correct: failed == 0,
    }
}
