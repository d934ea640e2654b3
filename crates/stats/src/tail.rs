//! Tail-exponent estimation for power-law data.
//!
//! The paper (§3.4.6): "Many extreme events, such as earthquakes, are known
//! to follow a power-law distribution, and depending on the parameter, a
//! power-law distribution may not have a finite average value or a finite
//! standard deviation." Knowing α is therefore the first question a
//! resilience analyst must answer about a loss process.

/// Empirical complementary CDF: sorted `(x, P(X > x))` pairs.
fn ccdf(data: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (x, 1.0 - (i + 1) as f64 / n))
        .collect()
}

/// Hill estimator of the tail index using the `k` largest observations:
/// `α̂ = k / Σᵢ ln(x₍ᵢ₎ / x₍ₖ₊₁₎)`.
///
/// Returns `None` if `k < 2` or there are not at least `k + 1` positive
/// observations.
pub fn hill_estimator(data: &[f64], k: usize) -> Option<f64> {
    if k < 2 {
        return None;
    }
    let mut pos: Vec<f64> = data.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.len() < k + 1 {
        return None;
    }
    pos.sort_by(|a, b| b.partial_cmp(a).expect("NaN in sample"));
    let threshold = pos[k];
    let sum: f64 = pos[..k].iter().map(|&x| (x / threshold).ln()).sum();
    if sum <= 0.0 {
        return None;
    }
    Some(k as f64 / sum)
}

/// Least-squares slope of `ln P(X > x)` vs `ln x` over the upper tail
/// (observations above the `tail_from` quantile); for a Pareto tail the
/// slope is `−α`. Returns `None` for degenerate inputs.
pub fn loglog_slope(data: &[f64], tail_from: f64) -> Option<f64> {
    if data.len() < 10 || !(0.0..1.0).contains(&tail_from) {
        return None;
    }
    let pairs = ccdf(data);
    let start = ((pairs.len() as f64) * tail_from) as usize;
    let pts: Vec<(f64, f64)> = pairs[start..]
        .iter()
        .filter(|&&(x, p)| x > 0.0 && p > 0.0)
        .map(|&(x, p)| (x.ln(), p.ln()))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Pareto, Sampler};
    use resilience_core::seeded_rng;

    fn pareto_sample(alpha: f64, n: usize, seed: u64) -> Vec<f64> {
        let p = Pareto::new(1.0, alpha).unwrap();
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| p.sample(&mut rng)).collect()
    }

    #[test]
    fn ccdf_is_monotone_decreasing() {
        let data = [3.0, 1.0, 2.0, 5.0];
        let c = ccdf(&data);
        assert_eq!(c.len(), 4);
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(c.last().unwrap().1, 0.0);
    }

    #[test]
    fn hill_recovers_alpha() {
        for alpha in [1.5, 2.5] {
            let xs = pareto_sample(alpha, 50_000, 7);
            let est = hill_estimator(&xs, 5_000).unwrap();
            assert!(
                (est - alpha).abs() / alpha < 0.08,
                "alpha {alpha}: hill {est}"
            );
        }
    }

    #[test]
    fn hill_degenerate_inputs() {
        assert_eq!(hill_estimator(&[1.0, 2.0, 3.0], 1), None);
        assert_eq!(hill_estimator(&[1.0, 2.0], 2), None);
        assert_eq!(hill_estimator(&[-1.0; 10], 3), None);
    }

    #[test]
    fn loglog_slope_near_minus_alpha() {
        let xs = pareto_sample(2.0, 50_000, 9);
        let slope = loglog_slope(&xs, 0.5).unwrap();
        assert!((slope + 2.0).abs() < 0.3, "slope {slope} should be near -2");
    }

    #[test]
    fn loglog_slope_degenerate() {
        assert_eq!(loglog_slope(&[1.0; 5], 0.5), None);
        assert_eq!(loglog_slope(&[1.0; 100], 1.5), None);
    }

    #[test]
    fn gaussian_tail_is_not_power_law() {
        // Hill on Gaussian data gives a *large* "alpha" (thin tail),
        // clearly distinguishable from heavy-tailed data.
        use crate::distributions::Gaussian;
        let g = Gaussian::new(10.0, 1.0).unwrap();
        let mut rng = seeded_rng(11);
        let xs: Vec<f64> = (0..50_000).map(|_| g.sample(&mut rng)).collect();
        let hill_gauss = hill_estimator(&xs, 2_000).unwrap();
        let heavy = pareto_sample(1.5, 50_000, 12);
        let hill_heavy = hill_estimator(&heavy, 2_000).unwrap();
        assert!(
            hill_gauss > 3.0 * hill_heavy,
            "gauss {hill_gauss} vs heavy {hill_heavy}"
        );
    }
}
