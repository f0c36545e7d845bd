//! Knee-point detection ("Kneedle", Satopää et al. 2011).
//!
//! The paper uses Kneedle to pick the address-count threshold that
//! separates frequently-readdressed probes from the rest: "We use a
//! technique proposed by Satopää et al. to determine the knee point to be
//! at eight addresses" (§3.2, Figure 2).
//!
//! Implementation follows the paper's offline algorithm:
//! 1. normalise the curve to the unit square,
//! 2. compute the difference curve `y_d = y_n - x_n`,
//! 3. knee candidates are local maxima of the difference curve;
//! 4. a candidate is a knee if the difference curve falls below a
//!    sensitivity-adjusted threshold before the next local maximum.

/// A knee found in a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knee {
    /// Index into the input slice.
    pub index: usize,
    /// x-value of the knee (as passed in).
    pub x: f64,
    /// y-value of the knee (as passed in).
    pub y: f64,
}

/// Find the most prominent knee of a concave-decreasing or
/// convex-increasing curve given as `(x, y)` pairs sorted by `x`.
///
/// `sensitivity` is Kneedle's `S` (the paper's authors recommend 1.0 for
/// offline use).
pub fn find_knee(points: &[(f64, f64)], sensitivity: f64) -> Option<Knee> {
    if points.len() < 3 {
        return None;
    }
    let n = points.len();

    // 1. Normalise to the unit square.
    let (x_min, x_max) = (points[0].0, points[n - 1].0);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, y) in points {
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    let x_span = (x_max - x_min).max(f64::MIN_POSITIVE);
    let y_span = (y_max - y_min).max(f64::MIN_POSITIVE);
    let xs: Vec<f64> = points.iter().map(|&(x, _)| (x - x_min) / x_span).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, y)| (y - y_min) / y_span).collect();

    // Detect direction and convexity, then transform into the canonical
    // "concave increasing" frame in which knees are maxima of y - x.
    //
    // Direction: endpoint comparison. Convexity: the curve's value at the
    // x-midpoint versus the chord between the endpoints.
    let increasing = ys[n - 1] >= ys[0];
    let mid_y = interpolate(&xs, &ys, 0.5);
    let chord_mid = (ys[0] + ys[n - 1]) / 2.0;
    let concave = mid_y >= chord_mid;

    // Transform table (flip_x reverses the point order and maps x→1-x;
    // invert_y maps y→1-y):
    //   increasing  concave  → identity
    //   increasing  convex   → flip_x + invert_y
    //   decreasing  concave  → flip_x
    //   decreasing  convex   → invert_y
    let flip_x = increasing != concave;
    let invert_y = !concave;

    let (xs_inc, y_final): (Vec<f64>, Vec<f64>) = if flip_x {
        (
            xs.iter().rev().map(|x| 1.0 - x).collect(),
            if invert_y {
                ys.iter().rev().map(|y| 1.0 - y).collect()
            } else {
                ys.iter().rev().copied().collect()
            },
        )
    } else {
        (
            xs.clone(),
            if invert_y {
                ys.iter().map(|y| 1.0 - y).collect()
            } else {
                ys.clone()
            },
        )
    };

    // 2. Difference curve.
    let diff: Vec<f64> = y_final.iter().zip(&xs_inc).map(|(y, x)| y - x).collect();

    // 3/4. Scan local maxima with the sensitivity threshold.
    let mean_dx = 1.0 / (n as f64 - 1.0);
    let mut best: Option<(usize, f64)> = None;
    let mut i = 1;
    while i + 1 < n {
        if diff[i] > diff[i - 1] && diff[i] >= diff[i + 1] {
            let threshold = diff[i] - sensitivity * mean_dx;
            // Confirmed knee if the difference curve drops below the
            // threshold before rising to a higher maximum.
            let mut j = i + 1;
            let mut confirmed = false;
            while j < n {
                if diff[j] > diff[i] {
                    break; // superseded by a later, higher maximum
                }
                if diff[j] < threshold {
                    confirmed = true;
                    break;
                }
                j += 1;
            }
            // The global end of curve also confirms (offline variant).
            if j == n {
                confirmed = true;
            }
            if confirmed && best.map_or(true, |(_, d)| diff[i] > d) {
                best = Some((i, diff[i]));
            }
        }
        i += 1;
    }

    best.map(|(idx_inc, _)| {
        let index = if flip_x { n - 1 - idx_inc } else { idx_inc };
        Knee {
            index,
            x: points[index].0,
            y: points[index].1,
        }
    })
}

/// Convenience for the Figure 2 use-case: per-probe counts of distinct
/// allocated addresses. The counts are sorted descending (as in the
/// paper's plot), and the knee is reported as the *count value* at the
/// knee (the paper's "eight addresses").
///
/// Figure 2 plots the counts on a log axis, and that is the curve whose
/// knee the paper takes; we therefore run Kneedle on `log10(count)` (knees
/// of heavy-tailed curves are meaningless on a linear axis, where the
/// largest outlier flattens everything else to zero). Probes that never
/// changed address (59% in the paper) form a flat unit plateau whose corner
/// would always win; the paper distinguishes them from the "remaining 27%
/// \[that\] go through multiple address changes" before taking the knee, so
/// the knee is computed over multi-address probes only.
pub fn allocation_count_knee(counts: &[u32], sensitivity: f64) -> Option<u32> {
    let mut sorted: Vec<u32> = counts.iter().copied().filter(|&c| c >= 2).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let points: Vec<(f64, f64)> = sorted
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as f64, f64::from(c.max(1)).log10()))
        .collect();
    let knee = find_knee(&points, sensitivity)?;
    Some((10f64.powf(knee.y).round() as u32).max(2))
}

fn interpolate(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    match xs.iter().position(|&v| v >= x) {
        Some(0) => ys[0],
        Some(i) => {
            let (x0, x1) = (xs[i - 1], xs[i]);
            let (y0, y1) = (ys[i - 1], ys[i]);
            if (x1 - x0).abs() < f64::EPSILON {
                y0
            } else {
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            }
        }
        None => *ys.last().expect("nonempty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_three_points() {
        assert!(find_knee(&[(0.0, 0.0), (1.0, 1.0)], 1.0).is_none());
        assert!(find_knee(&[], 1.0).is_none());
    }

    #[test]
    fn knee_of_concave_increasing_curve() {
        // y = sqrt(x): gentle knee early.
        let points: Vec<(f64, f64)> = (0..=100).map(|i| (i as f64, (i as f64).sqrt())).collect();
        let knee = find_knee(&points, 1.0).expect("knee exists");
        assert!(
            knee.x > 5.0 && knee.x < 40.0,
            "sqrt knee around x=25 expected, got {}",
            knee.x
        );
    }

    #[test]
    fn knee_of_decreasing_hockey_stick() {
        // Steep drop then flat tail: knee at the corner (x = 10).
        let mut points = Vec::new();
        for i in 0..=10 {
            points.push((f64::from(i), 1000.0 - 95.0 * f64::from(i)));
        }
        for i in 11..=100 {
            points.push((f64::from(i), 50.0 - 0.4 * f64::from(i - 10)));
        }
        let knee = find_knee(&points, 1.0).expect("knee exists");
        assert!(
            (8.0..=14.0).contains(&knee.x),
            "corner at 10 expected, got {}",
            knee.x
        );
    }

    #[test]
    fn straight_line_has_no_strong_knee() {
        let points: Vec<(f64, f64)> = (0..=50).map(|i| (f64::from(i), f64::from(i))).collect();
        // A perfectly straight line's difference curve is ~0 everywhere;
        // any "knee" found would be noise at machine epsilon.
        if let Some(k) = find_knee(&points, 1.0) {
            // Tolerated only if the difference is negligible — check by
            // asserting the knee y is on the line.
            assert!((k.y - k.x).abs() < 1e-9);
        }
    }

    #[test]
    fn allocation_counts_reproduce_paper_band() {
        // Synthetic Figure 2: 59% of probes with 1 address, a tail of
        // frequent changers up to hundreds.
        let mut counts = vec![1; 5900];
        for i in 0..2700 {
            counts.push(2 + (i % 5)); // moderate changers: 2..6
        }
        for i in 0..1400 {
            counts.push(8 + (i % 180)); // heavy tail: 8..188
        }
        let counts: Vec<u32> = counts.into_iter().map(|c| c as u32).collect();
        let knee = allocation_count_knee(&counts, 1.0).expect("knee");
        assert!(
            (5..=16).contains(&knee),
            "paper found the knee at 8 allocations; got {knee}"
        );
    }

    #[test]
    fn knee_is_deterministic() {
        let points: Vec<(f64, f64)> = (0..=60)
            .map(|i| (f64::from(i), 100.0 / (1.0 + f64::from(i))))
            .collect();
        assert_eq!(find_knee(&points, 1.0), find_knee(&points, 1.0));
    }
}
