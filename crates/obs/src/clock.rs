//! Injectable time sources.
//!
//! Everything in this crate that needs "now" takes a [`Clock`], so tests and
//! golden pins run on a [`FakeClock`] that advances deterministically, and
//! the kernel crates stay clock-free (the R5 lint bans `Instant` there — the
//! clock lives on this side of the observer seam).

#![expect(
    clippy::disallowed_types,
    reason = "R5: `WallClock` is the one production clock; kernels see time only through the observer seam"
)]

use std::cell::Cell;
use std::time::Instant;

/// A monotonic nanosecond counter. Implementations need not be anchored to
/// any epoch; only differences between readings are meaningful.
pub trait Clock {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;
}

/// Real wall time, measured from the moment the clock was created.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Deterministic clock for tests and golden pins: every reading advances the
/// time by a fixed step, so any code path that reads the clock N times
/// observes exactly `N * step_ns` elapsed — independent of the machine.
pub struct FakeClock {
    now: Cell<u64>,
    step_ns: u64,
}

impl FakeClock {
    /// A fake clock starting at 0 that advances `step_ns` per reading.
    pub fn new(step_ns: u64) -> Self {
        FakeClock { now: Cell::new(0), step_ns }
    }

    /// Manually advance the clock (in addition to the per-read step).
    pub fn advance(&self, ns: u64) {
        self.now.set(self.now.get().saturating_add(ns));
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        let t = self.now.get().saturating_add(self.step_ns);
        self.now.set(t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_clock_steps_deterministically() {
        let c = FakeClock::new(10);
        assert_eq!(c.now_ns(), 10);
        assert_eq!(c.now_ns(), 20);
        c.advance(5);
        assert_eq!(c.now_ns(), 35);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
