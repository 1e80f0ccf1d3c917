//! The worker pool, under the explorer's roof. Its one user is the
//! Monte-Carlo study ([`crate::monte_carlo`]), which characterizes all
//! of a study's samples in one pool region. Nothing else here enters
//! it: [`crate::Explorer::run`] and its job phase, which also warms
//! the thermal schedule's candidates, execute inline.
//!
//! The implementation lives in the std-only `coldtall-par` crate,
//! which the CLI and the serve daemon reach directly to size the pool
//! and to drain it on shutdown; this module re-exports the mapping
//! entry points.

pub use coldtall_par::{in_worker, max_threads, parallel_map, parallel_map_slice, set_max_threads};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reexports_are_usable() {
        assert!(max_threads() >= 1);
        let v = parallel_map(3, |i| i + 1);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
