//! Parallel-schedule metadata for every kernel family in this crate.
//!
//! Each constructor below describes how the *actual* kernel in `ops/` (or
//! `tensor.rs`) partitions its work and in what order it accumulates — the
//! facts the `graphcheck` determinism pass certifies. If a kernel's
//! partitioning or accumulation strategy changes, its entry here must change
//! with it; the serial/parallel equivalence suite
//! (`tests/parallel_equivalence.rs`) is the runtime witness that these
//! structural claims hold.

pub use sthsl_parallel::schedule::{PartitionStrategy, ReductionOrder, ScheduleMeta};

/// Elementwise maps and broadcast binary ops (`tensor.rs` `map`/`zip` paths):
/// `parallel_rows_mut` over element chunks, each output written once.
#[must_use]
pub const fn elementwise() -> ScheduleMeta {
    ScheduleMeta::elementwise()
}

/// Data movement with no arithmetic (reshape/permute/concat/slice/pad/
/// index-select): serial copies into freshly allocated output.
#[must_use]
pub const fn data_movement() -> ScheduleMeta {
    ScheduleMeta::serial_move()
}

/// Dense (batched) matmul / matvec / transpose (`ops/matmul.rs`): row-banded
/// over output rows, each output element accumulating its KC-blocked k-loop
/// sequentially in ascending index order.
#[must_use]
pub const fn matmul_family() -> ScheduleMeta {
    ScheduleMeta::banded_sequential()
}

/// Conv1d/Conv2d forward and backward (`ops/conv.rs`): partitioned over
/// independent output planes (batch × out-channel), each output element
/// accumulating its receptive field sequentially.
#[must_use]
pub const fn conv_family() -> ScheduleMeta {
    ScheduleMeta::planes_sequential()
}

/// Axis reductions and softmax-style rows (`ops/reduce.rs` sum/mean/softmax
/// over an axis): row-banded over outer indices, each output accumulating its
/// axis extent sequentially.
#[must_use]
pub const fn axis_reduce_family() -> ScheduleMeta {
    ScheduleMeta::banded_sequential()
}

/// Full reductions (`ops/reduce.rs` `sum_all`, `tensor.rs` `dot`/`sq_norm`):
/// fixed `REDUCE_BLOCK`-sized partials combined in ascending block order via
/// `blocked_sum_f32` — the association is independent of the thread count.
#[must_use]
pub const fn full_reduce_family() -> ScheduleMeta {
    ScheduleMeta::blocked_reduce()
}

/// Dropout: elementwise mask drawn from the graph's seeded rng stream.
#[must_use]
pub const fn dropout_family() -> ScheduleMeta {
    ScheduleMeta::elementwise().with_rng()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_family_is_thread_invariant() {
        for (name, meta) in [
            ("elementwise", elementwise()),
            ("data_movement", data_movement()),
            ("matmul", matmul_family()),
            ("conv", conv_family()),
            ("axis_reduce", axis_reduce_family()),
            ("full_reduce", full_reduce_family()),
            ("dropout", dropout_family()),
        ] {
            assert!(meta.thread_invariant(), "{name}: {}", meta.describe());
        }
    }

    #[test]
    fn full_reduce_uses_the_pool_block_size() {
        assert_eq!(
            full_reduce_family().reduction,
            ReductionOrder::FixedBlockTree { block_len: sthsl_parallel::REDUCE_BLOCK }
        );
    }
}
