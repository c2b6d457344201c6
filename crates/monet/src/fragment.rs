//! What is left of intra-request parallelism: nothing runs here.
//!
//! A request's parallelism is the server worker that runs it; the kernel
//! evaluates every operator serially over whole columns. The one function
//! below stays only because `benchmark/src` calls it (ROADMAP 1(h)).

/// Kept only because `benchmark/src` calls it (ROADMAP 1(h)); no kernel
/// code reads its result. `0` maps to the core count
/// ([`std::thread::available_parallelism`]), anything else to itself.
pub fn resolve_degree(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_degree_auto_is_positive() {
        assert!(resolve_degree(0) >= 1);
        assert_eq!(resolve_degree(3), 3);
    }
}
