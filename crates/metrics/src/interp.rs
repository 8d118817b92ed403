//! Piecewise-linear interpolation.
//!
//! The paper's simulator (§4.3.1) models both the per-iteration runtime
//! of a job at a given replica count and the rescale overhead "using a
//! piecewise linear function" over measured anchor points. This module
//! provides that function in two flavours: plain linear, and linear in
//! log–log space (the natural space for strong-scaling curves, which are
//! close to straight lines on the paper's log–log plots in Fig. 4).

/// A piecewise-linear function defined by `(x, y)` anchor points.
///
/// Evaluation between anchors interpolates linearly; outside the anchor
/// range the nearest segment is extended (linear extrapolation), which
/// matches how a scaling model calibrated on 4–64 replicas must still
/// produce values at 2 replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    points: Vec<(f64, f64)>,
    log_log: bool,
}

impl PiecewiseLinear {
    /// Builds a linear-space interpolant. Points are sorted by `x`;
    /// panics if fewer than one point or if two points share an `x`.
    pub fn new(points: impl Into<Vec<(f64, f64)>>) -> Self {
        Self::build(points.into(), false)
    }

    /// Builds a log–log interpolant: straight lines between anchors in
    /// `(ln x, ln y)` space. All coordinates must be strictly positive.
    pub fn log_log(points: impl Into<Vec<(f64, f64)>>) -> Self {
        let pts = points.into();
        assert!(
            pts.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
            "log-log interpolation requires positive coordinates"
        );
        Self::build(pts, true)
    }

    fn build(mut points: Vec<(f64, f64)>, log_log: bool) -> Self {
        assert!(!points.is_empty(), "need at least one anchor point");
        assert!(
            points.iter().all(|p| p.0.is_finite() && p.1.is_finite()),
            "anchor points must be finite"
        );
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "duplicate x anchor {}", w[0].0);
        }
        PiecewiseLinear { points, log_log }
    }

    /// Evaluates the interpolant at `x`.
    fn eval(&self, x: f64) -> f64 {
        if self.points.len() == 1 {
            return self.points[0].1;
        }
        let (tx, transform_back): (f64, fn(f64) -> f64) = if self.log_log {
            assert!(x > 0.0, "log-log eval requires x > 0, got {x}");
            (x.ln(), |v| v.exp())
        } else {
            (x, |v| v)
        };
        let coord = |p: (f64, f64)| -> (f64, f64) {
            if self.log_log {
                (p.0.ln(), p.1.ln())
            } else {
                p
            }
        };
        // Pick the segment: clamp to the first/last for extrapolation.
        let idx = match self.points.binary_search_by(|p| coord(*p).0.total_cmp(&tx)) {
            Ok(i) => return self.points[i].1,
            Err(0) => 0,
            Err(i) if i >= self.points.len() => self.points.len() - 2,
            Err(i) => i - 1,
        };
        let (x0, y0) = coord(self.points[idx]);
        let (x1, y1) = coord(self.points[idx + 1]);
        let t = (tx - x0) / (x1 - x0);
        transform_back(y0 + t * (y1 - y0))
    }

    /// Evaluates and clamps the result to be at least `floor` — useful
    /// for time models where extrapolation must never go non-positive.
    pub fn eval_clamped(&self, x: f64, floor: f64) -> f64 {
        self.eval(x).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_point_is_constant() {
        let f = PiecewiseLinear::new(vec![(4.0, 7.0)]);
        assert_eq!(f.eval(0.0), 7.0);
        assert_eq!(f.eval(100.0), 7.0);
    }

    #[test]
    fn interpolates_exactly_at_anchors() {
        let f = PiecewiseLinear::new(vec![(1.0, 10.0), (2.0, 20.0), (4.0, 10.0)]);
        assert_eq!(f.eval(1.0), 10.0);
        assert_eq!(f.eval(2.0), 20.0);
        assert_eq!(f.eval(4.0), 10.0);
    }

    #[test]
    fn interpolates_linearly_between_anchors() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (10.0, 100.0)]);
        assert_eq!(f.eval(2.5), 25.0);
        assert_eq!(f.eval(7.5), 75.0);
    }

    #[test]
    fn extrapolates_on_end_segments() {
        let f = PiecewiseLinear::new(vec![(1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(f.eval(3.0), 3.0);
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval_clamped(-5.0, 0.001), 0.001);
    }

    #[test]
    fn sorts_unsorted_input() {
        let f = PiecewiseLinear::new(vec![(4.0, 1.0), (1.0, 4.0)]);
        assert_eq!(f.points, [(1.0, 4.0), (4.0, 1.0)]);
        assert_eq!(f.eval(2.5), 2.5);
    }

    #[test]
    #[should_panic(expected = "duplicate x anchor")]
    fn rejects_duplicate_x() {
        let _ = PiecewiseLinear::new(vec![(1.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    fn log_log_ideal_scaling_is_exact() {
        // t(p) = 64/p is a straight line in log-log space; interpolating
        // between p=4 and p=64 must recover intermediate values exactly.
        let f = PiecewiseLinear::log_log(vec![(4.0, 16.0), (64.0, 1.0)]);
        assert!((f.eval(8.0) - 8.0).abs() < 1e-9);
        assert!((f.eval(16.0) - 4.0).abs() < 1e-9);
        assert!((f.eval(32.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn log_log_extrapolates_powers() {
        let f = PiecewiseLinear::log_log(vec![(4.0, 16.0), (64.0, 1.0)]);
        assert!((f.eval(2.0) - 32.0).abs() < 1e-9);
        assert!((f.eval(128.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive coordinates")]
    fn log_log_rejects_nonpositive() {
        let _ = PiecewiseLinear::log_log(vec![(0.0, 1.0), (1.0, 1.0)]);
    }

    proptest! {
        #[test]
        fn eval_between_anchor_extremes(
            anchors in proptest::collection::btree_map(0u32..1000, 0.0f64..1e6, 2..8),
            q in 0.0f64..1000.0,
        ) {
            let pts: Vec<(f64, f64)> =
                anchors.into_iter().map(|(x, y)| (x as f64, y)).collect();
            let f = PiecewiseLinear::new(pts.clone());
            let (lo, hi) = (pts[0].0, pts[pts.len() - 1].0);
            let q = lo + (hi - lo) * (q / 1000.0);
            let y = f.eval(q);
            let ymin = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let ymax = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
            // Inside the domain, interpolation never escapes the hull.
            prop_assert!(y >= ymin - 1e-9 && y <= ymax + 1e-9);
        }

        #[test]
        fn anchors_reproduced(
            anchors in proptest::collection::btree_map(1u32..100, 0.5f64..100.0, 2..6),
        ) {
            let pts: Vec<(f64, f64)> =
                anchors.into_iter().map(|(x, y)| (x as f64, y)).collect();
            let lin = PiecewiseLinear::new(pts.clone());
            let ll = PiecewiseLinear::log_log(pts.clone());
            for &(x, y) in &pts {
                prop_assert!((lin.eval(x) - y).abs() < 1e-9);
                prop_assert!((ll.eval(x) - y).abs() / y < 1e-9);
            }
        }
    }
}
