//! Runtime kernel dispatch: each hot loop is compiled twice, once for the
//! baseline target (SSE2 on x86_64) and once for AVX2, and the AVX2 copy
//! runs where the CPU has it.
//!
//! Kernels go through `wide!`, which marks the kernel closure
//! `#[inline(always)]`: only then is its loop compiled into the AVX2 copy
//! rather than called from it at the baseline width. The bits do not depend
//! on the level: each output element gets the same f32 operations in the
//! same order, and Rust never contracts `a*b + c` into an FMA (DESIGN.md §6b,
//! "kernel dispatch").

#[cfg(target_arch = "x86_64")]
use std::sync::atomic::{AtomicBool, Ordering};

/// Set while [`at_each_level`] holds every kernel at the baseline level.
/// `Relaxed` suffices: the flag publishes no other data, and a pool worker
/// reads it only after the pool's hand-off of a section, which orders it
/// after the store.
#[cfg(target_arch = "x86_64")]
static BASELINE: AtomicBool = AtomicBool::new(false);

/// `wide!(band, |band| body)`: run the kernel body on `band`, the slice it
/// writes, at the widest vector level this CPU has. The macro supplies the
/// closure's `#[inline(always)]`, so no call site can leave it out.
macro_rules! wide {
    ($band:expr, |$b:ident| $body:expr) => {
        $crate::simd::dispatch(
            $band,
            #[inline(always)]
            |$b| $body,
        )
    };
}
pub(crate) use wide;

/// The function behind [`wide!`]. `band` travels as an argument, not a
/// capture, so that the AVX2 copy knows nothing else aliases it: a captured
/// `&mut` is reached through the closure's environment, which hides that,
/// and a loop that also reads through a captured reference (a `Tensor::map`
/// closure that borrows its scalars) then reloads it on every element and
/// stays scalar.
#[inline(always)]
pub(crate) fn dispatch(band: &mut [f32], f: impl FnOnce(&mut [f32])) {
    #[cfg(target_arch = "x86_64")]
    if let Some(Avx2(())) = avx2() {
        // SAFETY: `with_avx2` may only run on a CPU with AVX2, and `avx2()`
        // returns a token only after `is_x86_feature_detected!("avx2")`.
        return unsafe { with_avx2(band, f) };
    }
    f(band);
}

/// `f(band)`, compiled with AVX2 enabled. Not `fma`: the kernels'
/// multiply-adds must stay two roundings.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2(band: &mut [f32], f: impl FnOnce(&mut [f32])) {
    f(band);
}

/// Proof that this CPU has AVX2 and that [`at_each_level`] is not holding
/// the baseline: only [`avx2`] builds one, after the check. A kernel
/// written with `std::arch` intrinsics takes the token instead of checking
/// again (the matmul tile, whose accumulators the portable form did not
/// keep in registers).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());

/// The AVX2 token, or `None` at the baseline level.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn avx2() -> Option<Avx2> {
    let on = !BASELINE.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx2");
    on.then_some(Avx2(()))
}

/// Test hook: run `f` once per vector level this CPU can execute, with
/// [`wide!`] held at that level, passing the level's name. The baseline
/// always runs; AVX2 runs only where detected. The level is process-global,
/// so callers serialise their calls (each test binary that uses the hook
/// holds a lock around it); a kernel that runs meanwhile elsewhere may run
/// at the baseline, which changes its speed but not its bits.
#[doc(hidden)]
pub fn at_each_level(mut f: impl FnMut(&'static str)) {
    #[cfg(target_arch = "x86_64")]
    {
        /// Puts the dispatch back at full width, even if `f` panics.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                BASELINE.store(false, Ordering::Relaxed);
            }
        }
        let restore = Restore;
        BASELINE.store(true, Ordering::Relaxed);
        f("sse2");
        drop(restore);
        if std::arch::is_x86_feature_detected!("avx2") {
            f("avx2");
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    f("baseline");
}
