//! Retrieval evaluation: the measures the experiment harness reports.
//!
//! Ground truth comes from the corpus simulator's themes; the DBMS itself
//! never sees them.

use monet::Oid;

/// Precision@k: fraction of the first `k` ranked oids that are relevant.
/// When fewer than `k` results exist, the denominator stays `k` (missing
/// results count as misses), matching standard IR practice.
pub fn precision_at_k<F: Fn(Oid) -> bool>(ranked: &[Oid], relevant: F, k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let hits = ranked.iter().take(k).filter(|&&o| relevant(o)).count();
    hits as f64 / k as f64
}

/// Average precision of a ranking (uninterpolated), given the total number
/// of relevant documents.
pub fn average_precision<F: Fn(Oid) -> bool>(
    ranked: &[Oid],
    relevant: F,
    n_relevant: usize,
) -> f64 {
    if n_relevant == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (i, &oid) in ranked.iter().enumerate() {
        if relevant(oid) {
            hits += 1;
            sum += hits as f64 / (i + 1) as f64;
        }
    }
    sum / n_relevant as f64
}

/// Mean of a slice (0 for empty input) — for averaging over query sets.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_counts_prefix_hits() {
        let ranked = vec![0, 1, 2, 3];
        let rel = |o: Oid| o.is_multiple_of(2);
        assert_eq!(precision_at_k(&ranked, rel, 2), 0.5);
        assert_eq!(precision_at_k(&ranked, rel, 4), 0.5);
        assert_eq!(precision_at_k(&ranked, rel, 0), 0.0);
        // short result list: missing entries are misses
        assert_eq!(precision_at_k(&[0], rel, 4), 0.25);
    }

    #[test]
    fn average_precision_perfect_and_worst() {
        let rel = |o: Oid| o < 2;
        // perfect ranking: relevant docs first
        assert!((average_precision(&[0, 1, 5, 6], rel, 2) - 1.0).abs() < 1e-12);
        // relevant docs at the very end of a 4-list
        let ap = average_precision(&[5, 6, 0, 1], rel, 2);
        assert!((ap - (1.0 / 3.0 + 2.0 / 4.0) / 2.0).abs() < 1e-12);
        assert_eq!(average_precision(&[], rel, 0), 0.0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
