//! Terminal charts.
//!
//! The benchmark binaries regenerate the paper's figures as data (CSV)
//! plus a quick-look ASCII rendering, so results are inspectable without
//! a plotting stack. Three chart kinds cover every figure in the paper:
//! multi-series line charts (Figs. 4–8), step profiles (Fig. 9), and
//! labelled horizontal bars (Table 1 quick-looks).

use std::fmt::Write as _;

/// Glyphs assigned to series, in order.
const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Renders a multi-series scatter/line chart onto a `width`×`height`
/// character grid. Each series is `(label, points)`; points are `(x, y)`.
///
/// Axis ranges are computed over all series; y can optionally be drawn
/// in log scale (positive values only), matching the paper's log-scale
/// overhead and scaling plots.
pub fn line_chart(
    title: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
    log_y: bool,
) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let mut all = series.iter().flat_map(|(_, pts)| pts.iter().copied());
    let Some(first) = all.next() else {
        return format!("{title}\n  (no data)\n");
    };
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (first.0, first.0, first.1, first.1);
    for (x, y) in all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if log_y {
        ymin = ymin.max(1e-12);
        ymax = ymax.max(ymin * 10.0);
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }

    let ty = |y: f64| -> f64 {
        if log_y {
            (y.max(1e-12)).ln()
        } else {
            y
        }
    };
    let (tymin, tymax) = (ty(ymin), ty(ymax));

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in pts {
            if log_y && y <= 0.0 {
                continue;
            }
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((ty(y) - tymin) / (tymax - tymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  y: [{ymin:.4}, {ymax:.4}]{}",
        if log_y { " (log)" } else { "" }
    );
    for row in &grid {
        let line: String = row.iter().collect();
        let _ = writeln!(out, "  |{line}|");
    }
    let _ = writeln!(out, "  x: [{xmin:.2}, {xmax:.2}]");
    for (si, (label, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "    {} {}", GLYPHS[si % GLYPHS.len()], label);
    }
    out
}

/// Renders a step-function utilization profile (Fig. 9a style): one
/// row of blocks sampled at `cols` points over `[t0, t1]`.
pub fn step_profile(
    label: &str,
    series: &[(f64, f64)],
    t0: f64,
    t1: f64,
    max_value: f64,
    cols: usize,
) -> String {
    let cols = cols.max(8);
    let mut out = String::new();
    let _ = write!(out, "{label:>14} |");
    for c in 0..cols {
        let t = t0 + (t1 - t0) * (c as f64 + 0.5) / cols as f64;
        // Value of the step function at time t.
        let mut v = 0.0;
        for &(st, sv) in series {
            if st <= t {
                v = sv;
            } else {
                break;
            }
        }
        let frac = if max_value > 0.0 {
            (v / max_value).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let ch = match (frac * 8.0).round() as usize {
            0 => ' ',
            1 => '▁',
            2 => '▂',
            3 => '▃',
            4 => '▄',
            5 => '▅',
            6 => '▆',
            7 => '▇',
            _ => '█',
        };
        out.push(ch);
    }
    out.push('|');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_contains_title_axes_and_legend() {
        let s = line_chart(
            "demo",
            &[("a", vec![(0.0, 1.0), (1.0, 2.0)]), ("b", vec![(0.5, 1.5)])],
            40,
            8,
            false,
        );
        assert!(s.contains("demo"));
        assert!(s.contains("* a"));
        assert!(s.contains("o b"));
        assert!(s.contains("x: [0.00, 1.00]"));
    }

    #[test]
    fn chart_handles_empty_and_degenerate_input() {
        assert!(line_chart("t", &[], 40, 8, false).contains("(no data)"));
        // Single point: must not divide by zero.
        let s = line_chart("t", &[("a", vec![(1.0, 1.0)])], 40, 8, false);
        assert!(s.contains('*'));
    }

    #[test]
    fn log_chart_skips_nonpositive_points() {
        let s = line_chart("t", &[("a", vec![(0.0, 0.0), (1.0, 10.0)])], 40, 8, true);
        // Only one glyph plotted (the positive one).
        let stars = s.matches('*').count();
        assert_eq!(stars, 2); // one in grid, one in legend
    }

    #[test]
    fn step_profile_samples_step_function() {
        let s = step_profile("job", &[(0.0, 8.0), (5.0, 0.0)], 0.0, 10.0, 8.0, 10);
        // First half full blocks, second half spaces.
        assert!(s.contains('█'));
        assert!(s.contains(' '));
        assert!(s.starts_with("           job |"));
    }
}
