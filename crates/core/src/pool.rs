//! Scoped worker pool for the work that fans out: Monte-Carlo cell
//! sampling, cache warm-up, and the thermal schedule's energy grid.
//! Compiled plans never touch it — [`crate::Explorer::run`] executes
//! inline.
//!
//! The implementation lives in the bottom-of-stack `coldtall-par`
//! crate so the array-level organization search can share the same
//! pool (and its nested-region guard) without a dependency cycle;
//! this module re-exports it under the explorer's roof and adds the
//! cross-product indexing helper the grid drivers share.

pub use coldtall_par::{in_worker, max_threads, parallel_map, parallel_map_slice, set_max_threads};

/// Splits a flat work-item index back into `(row, column)` coordinates
/// of a `rows x cols` cross-product (row-major), so sweep drivers can
/// schedule `rows * cols` items over one pool without nested regions.
#[must_use]
pub fn unflatten(index: usize, cols: usize) -> (usize, usize) {
    debug_assert!(cols > 0, "cross-product with zero columns");
    (index / cols, index % cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unflatten_is_row_major() {
        assert_eq!(unflatten(0, 4), (0, 0));
        assert_eq!(unflatten(3, 4), (0, 3));
        assert_eq!(unflatten(4, 4), (1, 0));
        assert_eq!(unflatten(11, 4), (2, 3));
    }

    #[test]
    fn pool_reexports_are_usable() {
        assert!(max_threads() >= 1);
        let v = parallel_map(3, |i| i + 1);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
