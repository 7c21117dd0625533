//! # sthsl-chaos
//!
//! Deterministic fault injection and self-healing I/O for the ST-HSL stack.
//!
//! Production crime prediction is a long-lived trainer fed by a stream of
//! incident data; the faults that kill such a process are rarely clean
//! crashes. They are torn writes on power loss, `ENOSPC` when a disk fills,
//! transient `EIO` from a flaky volume, and silent bit rot in artifacts that
//! are read back weeks later. This crate makes every one of those failure
//! modes *injectable, seeded and replayable*, so the recovery machinery can
//! be proven rather than hoped for.
//!
//! ## Architecture
//!
//! * [`io`] — the [`Io`] seam: every filesystem touch the checkpoint, data
//!   and trace paths make goes through a `&dyn Io`. [`RealIo`] forwards to
//!   `std::fs`; nothing changes for healthy runs.
//! * [`fault`] — [`FaultyIo`] wraps another [`Io`] and injects faults from a
//!   [`FaultPlan`]: a seeded list of [`FaultRule`]s (fault kind × operation
//!   class × path filter × rate × budget). Every decision is a pure function
//!   of `(seed, rule, op counter)`, so a fault plan replays bit-identically.
//! * [`log`] — the [`ChaosLog`]: a shared, append-only record of every
//!   injected [`ChaosEvent::Fault`] and every [`ChaosEvent::Recovery`]
//!   action taken by the healing code (retry, quarantine, fallback, tmp
//!   sweep, degrade). Tests assert on it; the checkpoint `degrade` action
//!   also reaches the JSONL trace through `sthsl-core`'s `TraceHooks`.
//! * [`retry`](mod@retry) — bounded exponential backoff ([`RetryPolicy`], [`retry`](fn@retry))
//!   over an injectable [`Sleeper`], plus [`read_file_verified`]: a
//!   checksum-verified read that re-reads on transient corruption.
//!
//! The crate is std-only, dependency-free and deliberately *below* every
//! other crate in the workspace, so `autograd`, `data`, `obs` and `core` can
//! all thread the same seam.

pub mod fault;
pub mod io;
pub mod log;
pub mod retry;

pub use fault::{FaultKind, FaultPlan, FaultRule, FaultyIo};
pub use io::{Io, OpClass, RealIo};
pub use log::{ChaosEvent, ChaosLog, RecoveryAction};
pub use retry::{
    backoff_delay_ns, read_file_verified, retry, RetryPolicy, Sleeper, ThreadSleeper,
    VirtualSleeper,
};

/// 64-bit FNV-1a hash. Used as the checkpoint integrity checksum and for
/// content verification in [`read_file_verified`]; any single-byte change
/// always changes the hash (xor then multiply-by-odd is injective per step).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: the workspace-standard way to derive independent
/// deterministic streams from `(seed, salt, counter)` tuples.
pub fn mix64(seed: u64, salt: u64, counter: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_detects_every_single_byte_change() {
        let base = b"spatial-temporal hypergraph".to_vec();
        let h = fnv1a(&base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xA5] {
                let mut evil = base.clone();
                evil[i] ^= flip;
                assert_ne!(fnv1a(&evil), h, "byte {i} flip {flip:#x} undetected");
            }
        }
    }

    #[test]
    fn mix64_streams_are_independent() {
        let a: Vec<u64> = (0..8).map(|c| mix64(7, 1, c)).collect();
        let b: Vec<u64> = (0..8).map(|c| mix64(7, 2, c)).collect();
        assert_ne!(a, b);
        let a2: Vec<u64> = (0..8).map(|c| mix64(7, 1, c)).collect();
        assert_eq!(a, a2, "mix64 must be pure");
    }
}
