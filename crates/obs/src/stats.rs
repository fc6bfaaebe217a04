//! Shared sum/ratio arithmetic for instrumentation counters.
//!
//! `EvalCacheStats::hit_rate`, the `IncrementalStats` pruning ratio and
//! the `NashReport` counter summaries each used to re-implement the same
//! "part over total, 0 when empty" logic. These helpers are the single
//! copy; the workload crates' public methods are thin delegations.

/// `num / den` as `f64`, or 0.0 when `den` is zero.
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `part / (part + rest)`, or 0.0 when both are zero — the shape shared
/// by cache hit rates (`hits` vs `misses`) and pruning ratios
/// (`skipped` vs `recomputed`).
#[inline]
pub fn part_of_total(part: u64, rest: u64) -> f64 {
    ratio(part, part + rest)
}

/// Cache hit rate: `hits / (hits + misses)`, 0.0 when the cache is cold.
#[inline]
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    part_of_total(hits, misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_denominators() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(part_of_total(0, 0), 0.0);
        assert_eq!(part_of_total(1, 3), 0.25);
        assert_eq!(hit_rate(9, 1), 0.9);
        assert_eq!(hit_rate(0, 0), 0.0);
    }
}
