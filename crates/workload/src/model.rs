//! The execution model of a modeled job: how fast it runs, what a
//! rescale or a recovery costs, and the one integrator of its progress.
//!
//! The paper's simulator "use\[s\] strong scaling performance measurements
//! for the 4 problem sizes to model the runtime of a job for a given
//! number of replicas using a piecewise linear function", and models the
//! rescaling overhead the same way (§4.3.1). This module provides both:
//! per-class time-per-iteration curves interpolated log–log between
//! anchor points ([`ScalingModel`]), and a four-stage (lb / checkpoint /
//! restart / restore) overhead model ([`OverheadModel`]), with default
//! constants calibrated so job durations land in the regime of Table 1
//! (hundreds of seconds per job, a ~30 min 16-job campaign).
//!
//! [`Progress`] is how a modeled job *executes* under those models:
//! work done, the current rate, and the pause window a rescale or a
//! checkpoint recovery opens. Both engines embed it — the DES per job
//! (`sched_sim::engine`), the operator per executor handle
//! (`elastic_core::executor::ModelExecutor`) — and both integrate only
//! at a job's own events (launch, resize, stop), never per poll, so the
//! Simulation and Actual columns run a job through the same arithmetic.

use hpc_metrics::{Duration, PiecewiseLinear, SimTime};

use crate::spec::{JobShape, SizeClass};

/// Memoized replica counts per class: covers every class job (spec
/// maxima top out at 64) with a few KiB; larger counts fall back to the
/// curve.
const RATE_CACHE_MAX: usize = 256;

/// Strong-scaling model: seconds per iteration as a function of replica
/// count, one curve per size class.
#[derive(Debug, Clone)]
pub struct ScalingModel {
    small: PiecewiseLinear,
    medium: PiecewiseLinear,
    large: PiecewiseLinear,
    xlarge: PiecewiseLinear,
    /// Per-class `time_per_iter` memo for replicas `1..=RATE_CACHE_MAX`
    /// (index 0 unused). The curve evaluation sits on the engine's
    /// per-event hot path — every completion and rescale re-derives a
    /// rate — and the log–log interpolation costs two `ln` + one `exp`
    /// per call; the table stores the exact same `f64`s, so replays are
    /// bit-identical with or without it.
    cache: [Vec<f64>; 4],
}

impl Default for ScalingModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl ScalingModel {
    /// The default calibration (see module docs). Anchor values mimic
    /// Fig. 4a's shapes: small problems stop scaling early
    /// (communication-bound), large ones scale near-linearly.
    fn paper_calibrated() -> Self {
        ScalingModel {
            small: PiecewiseLinear::log_log(vec![(2.0, 10.4e-3), (4.0, 6.5e-3), (8.0, 4.6e-3)]),
            medium: PiecewiseLinear::log_log(vec![(4.0, 13.0e-3), (8.0, 7.2e-3), (16.0, 4.2e-3)]),
            large: PiecewiseLinear::log_log(vec![(8.0, 18.2e-3), (16.0, 9.8e-3), (32.0, 5.5e-3)]),
            xlarge: PiecewiseLinear::log_log(vec![
                (16.0, 71.5e-3),
                (32.0, 39.0e-3),
                (64.0, 23.4e-3),
            ]),
            cache: Default::default(),
        }
        .warmed()
    }

    /// Builds a model from measured anchors (replicas, secs/iter) per
    /// class — the path used when calibrating from real `charm-rt` runs.
    pub fn from_anchors(
        small: Vec<(f64, f64)>,
        medium: Vec<(f64, f64)>,
        large: Vec<(f64, f64)>,
        xlarge: Vec<(f64, f64)>,
    ) -> Self {
        ScalingModel {
            small: PiecewiseLinear::log_log(small),
            medium: PiecewiseLinear::log_log(medium),
            large: PiecewiseLinear::log_log(large),
            xlarge: PiecewiseLinear::log_log(xlarge),
            cache: Default::default(),
        }
        .warmed()
    }

    /// Fills the memo table from the curves (index 0 is a `NAN` pad so
    /// replica counts index directly).
    fn warmed(mut self) -> Self {
        for (ci, class) in [
            SizeClass::Small,
            SizeClass::Medium,
            SizeClass::Large,
            SizeClass::XLarge,
        ]
        .into_iter()
        .enumerate()
        {
            self.cache[ci] = std::iter::once(f64::NAN)
                .chain((1..=RATE_CACHE_MAX).map(|r| self.curve(class).eval_clamped(r as f64, 1e-9)))
                .collect();
        }
        self
    }

    fn curve(&self, class: SizeClass) -> &PiecewiseLinear {
        match class {
            SizeClass::Small => &self.small,
            SizeClass::Medium => &self.medium,
            SizeClass::Large => &self.large,
            SizeClass::XLarge => &self.xlarge,
        }
    }

    fn class_index(class: SizeClass) -> usize {
        match class {
            SizeClass::Small => 0,
            SizeClass::Medium => 1,
            SizeClass::Large => 2,
            SizeClass::XLarge => 3,
        }
    }

    /// Seconds per iteration of `class` on `replicas` PEs.
    pub fn time_per_iter(&self, class: SizeClass, replicas: u32) -> f64 {
        assert!(replicas >= 1);
        if let Some(&memo) = self.cache[Self::class_index(class)].get(replicas as usize) {
            return memo;
        }
        self.curve(class).eval_clamped(f64::from(replicas), 1e-9)
    }

    /// Iteration rate (steps/second).
    pub fn rate(&self, class: SizeClass, replicas: u32) -> f64 {
        1.0 / self.time_per_iter(class, replicas)
    }

    /// Full-job runtime at a fixed replica count.
    pub fn runtime(&self, class: SizeClass, replicas: u32) -> f64 {
        class.steps() as f64 * self.time_per_iter(class, replicas)
    }

    /// Work rate of a job in its own work units per second:
    /// iterations/s off the class curve for class-shaped jobs,
    /// `replicas` core-seconds/s (linear speedup, the trace-annotation
    /// model) for malleable ones.
    pub fn job_rate(&self, shape: &JobShape, replicas: u32) -> f64 {
        match shape {
            JobShape::Class(c) => self.rate(*c, replicas),
            JobShape::Malleable { .. } => f64::from(replicas),
        }
    }
}

/// Four-stage rescale overhead model (Fig. 5's decomposition).
///
/// Models the full-restart protocol by default (paper fidelity for the
/// Fig. 7/8 sweeps). Setting [`OverheadModel::incremental`] switches to
/// the in-place protocol's cost curve: no checkpoint/restore of total
/// state, restart replaced by a fixed parallel spawn cost on expand
/// (nothing on shrink), and the LB term driven by the bytes that
/// actually change owners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Fixed restart cost (job relaunch).
    pub restart_base: f64,
    /// Restart cost per target PE (MPI startup scales with ranks).
    pub restart_per_pe: f64,
    /// In-memory checkpoint bandwidth per replica, bytes/s.
    pub ckpt_bw_per_replica: f64,
    /// Load-balance fixed cost.
    pub lb_base: f64,
    /// Load-balance cost per byte moved.
    pub lb_per_byte: f64,
    /// Model the incremental in-place protocol instead of full restart.
    pub incremental: bool,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            restart_base: 0.4,
            restart_per_pe: 0.06,
            ckpt_bw_per_replica: 5.0e8,
            lb_base: 0.1,
            lb_per_byte: 3.0e-10,
            incremental: false,
        }
    }
}

/// Overhead broken down by stage, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadBreakdown {
    /// Load-balance stage.
    pub lb: f64,
    /// Checkpoint stage.
    pub checkpoint: f64,
    /// Restart stage.
    pub restart: f64,
    /// Restore stage.
    pub restore: f64,
}

impl OverheadBreakdown {
    /// Total overhead.
    pub fn total(&self) -> f64 {
        self.lb + self.checkpoint + self.restart + self.restore
    }
}

impl OverheadModel {
    /// The default model with the incremental protocol enabled.
    pub fn incremental() -> Self {
        OverheadModel {
            incremental: true,
            ..OverheadModel::default()
        }
    }

    /// A model where every rescale and recovery costs nothing (what
    /// `ModelExecutor::ideal` runs under).
    pub fn zero() -> Self {
        OverheadModel {
            restart_base: 0.0,
            restart_per_pe: 0.0,
            // Infinite checkpoint bandwidth: state moves for free.
            ckpt_bw_per_replica: f64::INFINITY,
            lb_base: 0.0,
            lb_per_byte: 0.0,
            incremental: false,
        }
    }

    /// Overhead of rescaling a `class` job `from → to` replicas.
    fn breakdown(&self, class: SizeClass, from: u32, to: u32) -> OverheadBreakdown {
        self.breakdown_bytes(class.state_bytes(), from, to)
    }

    /// Overhead of rescaling a job with `bytes` of serializable state
    /// `from → to` replicas — the shape-independent core both
    /// [`OverheadModel::breakdown`] and [`OverheadModel::job_breakdown`]
    /// reduce to.
    fn breakdown_bytes(&self, bytes: f64, from: u32, to: u32) -> OverheadBreakdown {
        if from == to {
            return OverheadBreakdown::default();
        }
        if self.incremental {
            return self.breakdown_bytes_incremental(bytes, from, to);
        }
        // LB moves roughly the fraction of state that changes owners.
        let moved_fraction = f64::from(from.abs_diff(to)) / f64::from(from.max(to));
        OverheadBreakdown {
            lb: self.lb_base + self.lb_per_byte * bytes * moved_fraction,
            checkpoint: bytes / (self.ckpt_bw_per_replica * f64::from(from)),
            restart: self.restart_base + self.restart_per_pe * f64::from(to),
            restore: bytes / (self.ckpt_bw_per_replica * f64::from(to)),
        }
    }

    /// The in-place protocol's curve: only the moved fraction of state
    /// pays serialization cost (as migration, charged to `lb`), expand
    /// pays one parallel worker-spawn round, shrink pays none, and the
    /// checkpoint/restore stages vanish.
    fn breakdown_bytes_incremental(&self, bytes: f64, from: u32, to: u32) -> OverheadBreakdown {
        let moved_fraction = f64::from(from.abs_diff(to)) / f64::from(from.max(to));
        let restart = if to > from {
            // Fresh workers start concurrently: one per-PE quantum, not
            // a full sequential relaunch.
            self.restart_base * 0.25 + self.restart_per_pe
        } else {
            0.0
        };
        OverheadBreakdown {
            lb: self.lb_base + self.lb_per_byte * bytes * moved_fraction,
            checkpoint: 0.0,
            restart,
            restore: 0.0,
        }
    }

    /// Overhead of rescaling a job of the given shape (class jobs use
    /// the class's grid-state bytes, malleable trace jobs the
    /// work-proportional surrogate of `JobShape::state_bytes`).
    fn job_breakdown(&self, shape: &JobShape, from: u32, to: u32) -> OverheadBreakdown {
        self.breakdown_bytes(shape.state_bytes(), from, to)
    }

    /// Total overhead as a [`Duration`].
    pub fn total(&self, class: SizeClass, from: u32, to: u32) -> Duration {
        Duration::from_secs(self.breakdown(class, from, to).total())
    }

    /// Total shape-dispatched overhead as a [`Duration`].
    pub fn job_total(&self, shape: &JobShape, from: u32, to: u32) -> Duration {
        Duration::from_secs(self.job_breakdown(shape, from, to).total())
    }

    /// Cost of restarting an evicted job from its last in-memory
    /// checkpoint on `to` replicas — the FullRestart recovery path of
    /// the fault layer: a full relaunch plus restoring the job's state
    /// from the checkpoint (no LB stage — placement is fresh, and no
    /// checkpoint stage — it was cut before the eviction).
    pub fn recovery_total(&self, shape: &JobShape, to: u32) -> Duration {
        assert!(to >= 1);
        let bytes = shape.state_bytes();
        let secs = self.restart_base
            + self.restart_per_pe * f64::from(to)
            + bytes / (self.ckpt_bw_per_replica * f64::from(to));
        Duration::from_secs(secs)
    }
}

/// The progress integrator of one modeled job: work done, the rate it
/// currently runs at, and the pause window (a rescale's overhead, a
/// checkpoint recovery) during which time passes and no work is done.
///
/// Integration happens at the job's own events only — [`launch`],
/// [`resize`], an [`advance`] before a stop — so what a job has done by
/// an instant does not depend on how often anyone looked;
/// [`done_at`] and [`finishes_at`] are pure reads in between.
///
/// [`launch`]: Progress::launch
/// [`resize`]: Progress::resize
/// [`advance`]: Progress::advance
/// [`done_at`]: Progress::done_at
/// [`finishes_at`]: Progress::finishes_at
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Progress {
    /// Work units completed as of `last`.
    done: f64,
    /// Work units per second at the current allocation.
    rate: f64,
    /// The instant `done` was last integrated to.
    last: SimTime,
    /// No work is done before this instant.
    pause_until: SimTime,
}

impl Progress {
    /// A job starting at `now` at `rate`, with `done` work already behind
    /// it (what its last checkpoint preserved; zero for a fresh start)
    /// and no progress for the first `pause` (the recovery window of a
    /// checkpoint relaunch; zero for a fresh start).
    pub fn launch(now: SimTime, done: f64, rate: f64, pause: Duration) -> Progress {
        Progress {
            done,
            rate,
            last: now,
            pause_until: now + pause,
        }
    }

    /// Work completed as of the last integration.
    pub fn done(&self) -> f64 {
        self.done
    }

    /// The end of the current (or last) pause window.
    pub fn pause_until(&self) -> SimTime {
        self.pause_until
    }

    /// Work completed by `now` (no progress inside the pause window).
    pub fn done_at(&self, now: SimTime) -> f64 {
        let start = self.pause_until.max(self.last);
        if now > start {
            self.done + self.rate * (now - start).as_secs()
        } else {
            self.done
        }
    }

    /// Integrates progress up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        self.done = self.done_at(now);
        self.last = now;
    }

    /// The allocation changes at `now`: progress is integrated up to
    /// there, pauses for the rescale's `pause`, and resumes at `rate`.
    /// The new window replaces whatever was left of an open one.
    pub fn resize(&mut self, now: SimTime, rate: f64, pause: Duration) {
        self.advance(now);
        self.rate = rate;
        self.pause_until = now + pause;
    }

    /// Loses the last `lost` of progress at the current rate — the tail
    /// since the checkpoint an eviction falls back to.
    pub fn roll_back(&mut self, lost: Duration) {
        self.done = (self.done - self.rate * lost.as_secs()).max(0.0);
    }

    /// When `total` work units are complete if nothing else happens.
    pub fn finishes_at(&self, total: f64) -> SimTime {
        let remaining = (total - self.done).max(0.0);
        self.pause_until.max(self.last) + Duration::from_secs(remaining / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_parameters_match_paper() {
        assert_eq!(SizeClass::Small.replica_bounds(), (2, 8));
        assert_eq!(SizeClass::Medium.replica_bounds(), (4, 16));
        assert_eq!(SizeClass::Large.replica_bounds(), (8, 32));
        assert_eq!(SizeClass::XLarge.replica_bounds(), (16, 64));
        assert_eq!(SizeClass::Small.steps(), 40_000);
        assert_eq!(SizeClass::XLarge.steps(), 10_000);
        assert_eq!(SizeClass::XLarge.grid(), 16_384);
    }

    #[test]
    fn scaling_is_monotone_decreasing_in_replicas() {
        let m = ScalingModel::default();
        for class in SizeClass::ALL {
            let (lo, hi) = class.replica_bounds();
            let mut prev = f64::INFINITY;
            for p in lo..=hi {
                let t = m.time_per_iter(class, p);
                assert!(t > 0.0);
                assert!(t <= prev, "{class} t_iter not decreasing at p={p}");
                prev = t;
            }
        }
    }

    #[test]
    fn scaling_is_sublinear_for_small_class() {
        // Small problems scale poorly: doubling replicas from min to
        // 2×min must give < 2× speedup.
        let m = ScalingModel::default();
        let t2 = m.time_per_iter(SizeClass::Small, 2);
        let t4 = m.time_per_iter(SizeClass::Small, 4);
        assert!(t2 / t4 < 2.0, "small class scales too well");
        // XLarge scales much better than small over one doubling.
        let x16 = m.time_per_iter(SizeClass::XLarge, 16);
        let x32 = m.time_per_iter(SizeClass::XLarge, 32);
        assert!(x16 / x32 > t2 / t4);
    }

    #[test]
    fn runtimes_land_in_table1_regime() {
        // Jobs take hundreds (not tens or thousands) of seconds at max
        // replicas so a 16-job campaign lasts ~30 min like the paper's.
        let m = ScalingModel::default();
        for class in SizeClass::ALL {
            let (lo, hi) = class.replica_bounds();
            let at_max = m.runtime(class, hi);
            let at_min = m.runtime(class, lo);
            assert!(
                (100.0..=800.0).contains(&at_max),
                "{class} runtime at max = {at_max}"
            );
            assert!(
                at_min > at_max,
                "{class} min-replica runtime must be longer"
            );
        }
    }

    #[test]
    fn rate_is_inverse_of_time() {
        let m = ScalingModel::default();
        let t = m.time_per_iter(SizeClass::Medium, 8);
        assert!((m.rate(SizeClass::Medium, 8) * t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_restart_grows_with_target_pes() {
        let o = OverheadModel::default();
        let b8 = o.breakdown(SizeClass::Large, 16, 8);
        let b32 = o.breakdown(SizeClass::Large, 16, 32);
        assert!(b32.restart > b8.restart);
    }

    #[test]
    fn overhead_ckpt_shrinks_with_more_source_replicas() {
        // Fig. 5a: checkpoint time decreases as replicas grow (less
        // data per replica, parallel writes).
        let o = OverheadModel::default();
        let few = o.breakdown(SizeClass::XLarge, 8, 4);
        let many = o.breakdown(SizeClass::XLarge, 32, 16);
        assert!(many.checkpoint < few.checkpoint);
    }

    #[test]
    fn overhead_grows_with_problem_size() {
        // Fig. 5c: lb/ckpt/restore grow with grid size, restart flat.
        let o = OverheadModel::default();
        let small = o.breakdown(SizeClass::Small, 32, 16);
        let xl = o.breakdown(SizeClass::XLarge, 32, 16);
        assert!(xl.checkpoint > small.checkpoint);
        assert!(xl.restore > small.restore);
        assert!(xl.lb > small.lb);
        assert_eq!(xl.restart, small.restart);
    }

    #[test]
    fn small_problem_overhead_dominated_by_restart() {
        // Fig. 5c's left end: restart dominates for small grids.
        let o = OverheadModel::default();
        let b = o.breakdown(SizeClass::Small, 32, 16);
        assert!(b.restart > b.checkpoint + b.restore + b.lb);
    }

    #[test]
    fn noop_rescale_is_free() {
        let o = OverheadModel::default();
        assert_eq!(o.breakdown(SizeClass::Large, 16, 16).total(), 0.0);
        assert_eq!(o.total(SizeClass::Large, 16, 16).as_secs(), 0.0);
    }

    #[test]
    fn total_overhead_is_seconds_scale() {
        // Rescale overhead must be small relative to the 180 s gap
        // (the paper's conclusion that overhead matters little).
        let o = OverheadModel::default();
        for class in SizeClass::ALL {
            let (lo, hi) = class.replica_bounds();
            let t = o.total(class, hi, lo).as_secs();
            assert!(t > 0.0 && t < 15.0, "{class} overhead {t}");
        }
    }

    #[test]
    fn incremental_overhead_beats_full_restart_everywhere() {
        let full = OverheadModel::default();
        let inc = OverheadModel::incremental();
        for class in SizeClass::ALL {
            let (lo, hi) = class.replica_bounds();
            for (from, to) in [(hi, lo), (lo, hi), (hi, hi / 2), (hi / 2, hi)] {
                if from == to {
                    continue;
                }
                let f = full.total(class, from, to).as_secs();
                let i = inc.total(class, from, to).as_secs();
                assert!(i < f, "{class} {from}->{to}: incremental {i} >= full {f}");
            }
        }
    }

    #[test]
    fn incremental_shrink_has_no_restart_or_ckpt_stage() {
        let inc = OverheadModel::incremental();
        let b = inc.breakdown(SizeClass::Large, 32, 16);
        assert_eq!(b.restart, 0.0);
        assert_eq!(b.checkpoint, 0.0);
        assert_eq!(b.restore, 0.0);
        assert!(b.lb > 0.0);
        // Expand pays one parallel spawn round, far below the full
        // sequential relaunch.
        let e = inc.breakdown(SizeClass::Large, 16, 32);
        let full = OverheadModel::default().breakdown(SizeClass::Large, 16, 32);
        assert!(e.restart > 0.0 && e.restart < full.restart / 4.0);
    }

    #[test]
    fn incremental_overhead_scales_with_bytes_moved() {
        // Halving moves ~half the state; dropping one replica of 32
        // moves ~1/32nd. Overhead must reflect that.
        let inc = OverheadModel::incremental();
        let inc_base = inc.lb_base;
        let big_move = inc.breakdown(SizeClass::XLarge, 32, 16).lb - inc_base;
        let small_move = inc.breakdown(SizeClass::XLarge, 32, 31).lb - inc_base;
        assert!(small_move < big_move / 4.0, "{small_move} vs {big_move}");
    }

    #[test]
    fn job_rate_dispatches_on_shape() {
        let m = ScalingModel::default();
        // Class shapes go through the strong-scaling curve.
        assert_eq!(
            m.job_rate(&JobShape::Class(SizeClass::Medium), 8),
            m.rate(SizeClass::Medium, 8)
        );
        // Malleable shapes are linear: replicas work-units per second,
        // so a job of `work` core-seconds runs in work/replicas seconds.
        let shape = JobShape::Malleable {
            min_replicas: 2,
            max_replicas: 16,
            work: 3200.0,
        };
        assert_eq!(m.job_rate(&shape, 4), 4.0);
        assert_eq!(m.job_rate(&shape, 16), 16.0);
    }

    #[test]
    fn job_overhead_dispatches_on_shape() {
        let o = OverheadModel::default();
        // Class shapes reproduce the class breakdown exactly.
        assert_eq!(
            o.job_breakdown(&JobShape::Class(SizeClass::Large), 16, 8),
            o.breakdown(SizeClass::Large, 16, 8)
        );
        // Malleable overhead is positive, grows with work, and no-ops
        // on from == to.
        let small = JobShape::Malleable {
            min_replicas: 2,
            max_replicas: 8,
            work: 1000.0,
        };
        let big = JobShape::Malleable {
            min_replicas: 2,
            max_replicas: 8,
            work: 1_000_000.0,
        };
        assert_eq!(o.job_total(&small, 4, 4).as_secs(), 0.0);
        let ts = o.job_total(&small, 8, 4).as_secs();
        let tb = o.job_total(&big, 8, 4).as_secs();
        assert!(ts > 0.0 && tb > ts, "{ts} vs {tb}");
    }

    #[test]
    fn recovery_cost_is_restart_plus_restore() {
        let o = OverheadModel::default();
        let shape = JobShape::Class(SizeClass::Large);
        let t = o.recovery_total(&shape, 16).as_secs();
        let expected = o.restart_base
            + o.restart_per_pe * 16.0
            + shape.state_bytes() / (o.ckpt_bw_per_replica * 16.0);
        assert!((t - expected).abs() < 1e-12, "{t} vs {expected}");
        // Seconds-scale, like every other overhead in the model.
        assert!(t > 0.0 && t < 15.0);
    }

    #[test]
    fn from_anchors_builds_usable_model() {
        let m = ScalingModel::from_anchors(
            vec![(2.0, 1.0), (8.0, 0.5)],
            vec![(4.0, 1.0), (16.0, 0.4)],
            vec![(8.0, 1.0), (32.0, 0.3)],
            vec![(16.0, 1.0), (64.0, 0.3)],
        );
        assert_eq!(m.time_per_iter(SizeClass::Small, 2), 1.0);
        assert!(m.time_per_iter(SizeClass::Small, 4) < 1.0);
    }

    fn at(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn secs(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn progress_runs_at_its_rate_and_pauses_over_a_resize() {
        let mut p = Progress::launch(at(10.0), 0.0, 4.0, Duration::ZERO);
        assert_eq!(p.finishes_at(400.0), at(110.0));
        assert_eq!(p.done_at(at(35.0)), 100.0);
        // Reading is pure: nothing moved.
        assert_eq!(p, Progress::launch(at(10.0), 0.0, 4.0, Duration::ZERO));
        // 8/s after a 5 s pause: 100 done at t=35, 300 left from t=40.
        p.resize(at(35.0), 8.0, secs(5.0));
        assert_eq!(p.done(), 100.0);
        assert_eq!(p.done_at(at(39.0)), 100.0, "no progress inside the pause");
        assert_eq!(p.done_at(at(41.0)), 108.0);
        assert_eq!(p.pause_until(), at(40.0));
        assert_eq!(p.finishes_at(400.0), at(77.5));
        // A finished job's end does not move into the past.
        p.advance(at(100.0));
        assert_eq!(p.finishes_at(400.0), at(100.0));
    }

    #[test]
    fn a_resize_inside_a_pause_does_no_work_until_the_later_pause_until() {
        // A checkpoint relaunch with 50 retained and a 20 s recovery
        // window; a rescale 8 s in opens its own 30 s window.
        let mut p = Progress::launch(at(100.0), 50.0, 2.0, secs(20.0));
        p.resize(at(108.0), 5.0, secs(30.0));
        assert_eq!(p.done(), 50.0, "nothing ran inside the recovery window");
        for t in [108.0, 120.0, 125.0, 138.0] {
            assert_eq!(p.done_at(at(t)), 50.0, "t = {t}");
        }
        assert_eq!(p.done_at(at(140.0)), 60.0);
        assert_eq!(p.finishes_at(100.0), at(148.0));
    }

    #[test]
    fn roll_back_loses_the_tail_at_the_current_rate_and_stops_at_zero() {
        let mut p = Progress::launch(at(0.0), 0.0, 4.0, Duration::ZERO);
        p.advance(at(70.0));
        p.roll_back(secs(10.0));
        assert_eq!(p.done(), 240.0);
        p.roll_back(secs(1000.0));
        assert_eq!(p.done(), 0.0);
    }

    proptest::proptest! {
        /// On a whole-second grid with whole rates, a job integrated at
        /// every tick and one integrated at its events only have done
        /// the same work at every tick and finish at the same tick —
        /// through a recovery window, a rescale and its pause.
        #[test]
        fn integrating_every_tick_equals_integrating_at_events(
            total in 1u32..20_000,
            retained in 0u32..500,
            recovery in 0u32..20,
            rate in 1u32..64,
            resize_at in 1u32..300,
            new_rate in 1u32..64,
            pause in 0u32..20,
        ) {
            let total = f64::from(total.max(retained));
            let launch = |rate: u32| {
                Progress::launch(at(7.0), f64::from(retained), f64::from(rate), secs(f64::from(recovery)))
            };
            let (mut ticked, mut quiet) = (launch(rate), launch(rate));
            let finished = |p: &Progress, now: SimTime| now >= p.finishes_at(total);
            let mut done_before = f64::from(retained);
            for tick in 1..=400u32 {
                let now = at(7.0 + f64::from(tick));
                ticked.advance(now);
                if tick == resize_at {
                    ticked.resize(now, f64::from(new_rate), secs(f64::from(pause)));
                    quiet.resize(now, f64::from(new_rate), secs(f64::from(pause)));
                }
                let done = quiet.done_at(now);
                proptest::prop_assert_eq!(ticked.done(), done, "tick {}", tick);
                proptest::prop_assert_eq!(finished(&ticked, now), finished(&quiet, now), "tick {}", tick);
                // `finishes_at` is where `done_at` reaches the total.
                if finished(&quiet, now) {
                    proptest::prop_assert!(done >= total, "tick {}", tick);
                    proptest::prop_assert!(done_before < total || tick == 1, "tick {}", tick);
                    break; // an engine retires it here
                }
                done_before = done;
            }
        }

        /// An eviction and its relaunch, in closed form: what the
        /// checkpoint kept, then the recovery window, then the rest at
        /// the relaunch rate.
        #[test]
        fn an_evicted_job_relaunches_from_its_checkpoint_after_the_recovery_window(
            total in 1_000u32..100_000,
            rate in 1u32..64,
            ran in 1u32..500,
            rollback in 0u32..300,
            relaunch_after in 0u32..100,
            relaunch_rate in 1u32..64,
            recovery in 0u32..30,
        ) {
            let mut p = Progress::launch(at(0.0), 0.0, f64::from(rate), Duration::ZERO);
            p.advance(at(f64::from(ran)));
            p.roll_back(secs(f64::from(rollback)));
            let kept = f64::from(rate) * f64::from(ran.saturating_sub(rollback));
            proptest::prop_assert_eq!(p.done(), kept);
            let back = f64::from(ran + relaunch_after);
            let p = Progress::launch(at(back), p.done(), f64::from(relaunch_rate), secs(f64::from(recovery)));
            let left = (f64::from(total) - kept).max(0.0) / f64::from(relaunch_rate);
            proptest::prop_assert_eq!(p.finishes_at(f64::from(total)), at(back + f64::from(recovery)) + secs(left));
        }
    }
}
