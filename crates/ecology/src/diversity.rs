//! Diversity indices (the paper's §3.2.4).
//!
//! The paper defines the Diversity Index of an ecosystem with populations
//! `pᵢ` as `G = (Σ pᵢ²/N)⁻¹` and notes it is maximal when all species are
//! equal and minimal when one dominates. The text's formula has a typo
//! (dimensional analysis and the stated extremes only work on
//! *proportions*); the intended quantity is the standard **inverse Simpson
//! index** `G = 1/Σ qᵢ²` over proportions `qᵢ = pᵢ/Σp`, which ranges from 1
//! (monoculture) to N (uniform); that corrected formula is the one
//! implemented.

use resilience_core::error::invalid_param;
use resilience_core::CoreError;

fn validate(populations: &[f64]) -> Result<f64, CoreError> {
    if populations.is_empty() {
        return Err(invalid_param("populations", "must be non-empty"));
    }
    let mut total = 0.0;
    for &p in populations {
        if !p.is_finite() || p < 0.0 {
            return Err(invalid_param(
                "populations",
                format!("entries must be finite and non-negative, got {p}"),
            ));
        }
        total += p;
    }
    if total <= 0.0 {
        return Err(invalid_param("populations", "total population is zero"));
    }
    Ok(total)
}

/// Inverse Simpson diversity `G = 1/Σ qᵢ²` over proportions.
///
/// `G = N` for `N` equal species; `G → 1` under monoculture.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for empty, negative, non-finite,
/// or all-zero populations.
pub fn diversity_index(populations: &[f64]) -> Result<f64, CoreError> {
    let total = validate(populations)?;
    let sum_sq: f64 = populations.iter().map(|p| (p / total).powi(2)).sum();
    Ok(1.0 / sum_sq)
}

/// Shannon entropy `H = −Σ qᵢ ln qᵢ` (nats). Zero-population species
/// contribute zero.
///
/// # Errors
///
/// Same domain errors as [`diversity_index`].
fn shannon_entropy(populations: &[f64]) -> Result<f64, CoreError> {
    let total = validate(populations)?;
    Ok(populations
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| {
            let q = p / total;
            -q * q.ln()
        })
        .sum())
}

/// Species richness: the number of species with positive population.
pub fn richness(populations: &[f64]) -> usize {
    populations.iter().filter(|&&p| p > 0.0).count()
}

/// Pielou evenness `H / ln(richness)`, in `[0, 1]`; 1 when all extant
/// species are equal. Defined as 1.0 when richness ≤ 1.
///
/// # Errors
///
/// Same domain errors as [`diversity_index`].
pub fn evenness(populations: &[f64]) -> Result<f64, CoreError> {
    let h = shannon_entropy(populations)?;
    let r = richness(populations);
    if r <= 1 {
        Ok(1.0)
    } else {
        Ok(h / (r as f64).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_population_has_g_equal_n() {
        for n in [1usize, 2, 5, 50] {
            let pops = vec![10.0; n];
            let g = diversity_index(&pops).unwrap();
            assert!((g - n as f64).abs() < 1e-9, "n={n}: G={g}");
        }
    }

    #[test]
    fn monoculture_has_g_one() {
        let g = diversity_index(&[42.0, 0.0, 0.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominance_pushes_g_toward_one() {
        let g_even = diversity_index(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        let g_skew = diversity_index(&[10.0, 1.0, 1.0, 1.0]).unwrap();
        let g_dom = diversity_index(&[100.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(g_even > g_skew && g_skew > g_dom);
        assert!(g_dom > 1.0 && g_dom < 1.1);
    }

    #[test]
    fn scale_invariance() {
        let a = diversity_index(&[1.0, 2.0, 3.0]).unwrap();
        let b = diversity_index(&[10.0, 20.0, 30.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(diversity_index(&[]).is_err());
        assert!(diversity_index(&[-1.0, 2.0]).is_err());
        assert!(diversity_index(&[f64::NAN]).is_err());
        assert!(diversity_index(&[0.0, 0.0]).is_err());
        assert!(shannon_entropy(&[]).is_err());
        assert!(evenness(&[]).is_err());
    }

    #[test]
    fn shannon_extremes() {
        let h_uniform = shannon_entropy(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!((h_uniform - (4.0f64).ln()).abs() < 1e-12);
        let h_mono = shannon_entropy(&[5.0, 0.0, 0.0]).unwrap();
        assert!(h_mono.abs() < 1e-12);
    }

    #[test]
    fn richness_and_evenness() {
        assert_eq!(richness(&[1.0, 0.0, 2.0]), 2);
        assert_eq!(richness(&[0.0]), 0);
        assert!((evenness(&[3.0, 3.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(evenness(&[3.0, 0.0]).unwrap(), 1.0); // richness 1
        assert!(evenness(&[10.0, 1.0, 1.0]).unwrap() < 0.8);
    }

    proptest! {
        #[test]
        fn prop_g_between_one_and_n(pops in proptest::collection::vec(0.001f64..1e6, 1..40)) {
            let g = diversity_index(&pops).unwrap();
            prop_assert!(g >= 1.0 - 1e-9);
            prop_assert!(g <= pops.len() as f64 + 1e-9);
        }

        #[test]
        fn prop_shannon_le_ln_n(pops in proptest::collection::vec(0.001f64..1e6, 1..40)) {
            let h = shannon_entropy(&pops).unwrap();
            prop_assert!(h >= -1e-12);
            prop_assert!(h <= (pops.len() as f64).ln() + 1e-9);
        }

        #[test]
        fn prop_evenness_in_unit_interval(pops in proptest::collection::vec(0.001f64..1e6, 1..40)) {
            let e = evenness(&pops).unwrap();
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&e));
        }
    }
}
