//! Bounded, deterministic retry with exponential backoff, and a
//! checksum-verified read that heals transient corruption by re-reading.
//!
//! Delays go through an injectable [`Sleeper`]; the default
//! [`VirtualSleeper`] only *records* the time it would have slept, so
//! tests are instantaneous and bit-identical across machines.

use std::cell::Cell;
use std::io::{self, ErrorKind};
use std::path::Path;

use crate::fnv1a;
use crate::io::Io;
use crate::log::{ChaosLog, RecoveryAction};

/// How long to wait between retries, and how many attempts to make.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` means no retries.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay_ns: u64,
    /// Cap applied after exponential doubling.
    pub max_delay_ns: u64,
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    pub fn none() -> Self {
        Self { max_attempts: 1, base_delay_ns: 0, max_delay_ns: 0 }
    }

    /// Default budget for checkpoint writes: 4 attempts, 10ms base delay
    /// doubling to an 80ms cap. Total worst-case virtual delay 70ms — small
    /// next to an epoch, large next to a transient EIO.
    pub fn default_checkpoint() -> Self {
        Self { max_attempts: 4, base_delay_ns: 10_000_000, max_delay_ns: 80_000_000 }
    }

    /// Default budget for data reads: 3 attempts, 1ms base delay.
    pub fn default_read() -> Self {
        Self { max_attempts: 3, base_delay_ns: 1_000_000, max_delay_ns: 16_000_000 }
    }
}

/// Backoff delay before retry number `attempt` (0-based): `base * 2^attempt`
/// capped at `max_delay_ns`, saturating.
pub fn backoff_delay_ns(policy: RetryPolicy, attempt: u32) -> u64 {
    let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
    policy.base_delay_ns.saturating_mul(factor).min(policy.max_delay_ns)
}

/// Injectable sleep seam for backoff delays.
pub trait Sleeper {
    /// Wait for `ns` nanoseconds (or account for having done so).
    fn sleep_ns(&self, ns: u64);
}

/// Records total virtual sleep without ever blocking. The default for
/// tests: backoff behaviour is observable (and assertable) while
/// runs stay instantaneous and deterministic.
#[derive(Debug, Default)]
pub struct VirtualSleeper {
    total_ns: Cell<u64>,
}

impl VirtualSleeper {
    /// New sleeper with zero accumulated time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total virtual nanoseconds slept so far.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.get()
    }
}

impl Sleeper for VirtualSleeper {
    fn sleep_ns(&self, ns: u64) {
        self.total_ns.set(self.total_ns.get().saturating_add(ns));
    }
}

/// Really blocks the thread. For production trainers where backing off from
/// a flaky disk should actually yield the CPU.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep_ns(&self, ns: u64) {
        std::thread::sleep(std::time::Duration::from_nanos(ns));
    }
}

/// Whether an I/O error is worth retrying. Transient conditions (`EIO`,
/// interruption, timeouts) are; structural ones (`ENOSPC`, missing files,
/// permissions, detected corruption) are not — retrying cannot fix them.
pub fn is_retryable(err: &io::Error) -> bool {
    if let Some(code) = err.raw_os_error() {
        return code == crate::fault::EIO;
    }
    matches!(err.kind(), ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock)
}

/// Run `op` up to `policy.max_attempts` times, backing off between attempts
/// via `sleeper`. Retries only errors [`is_retryable`] approves of; each
/// retry is recorded in `log` (when provided) as a
/// [`RecoveryAction::Retry`] against `what`.
pub fn retry<T>(
    policy: RetryPolicy,
    sleeper: &dyn Sleeper,
    log: Option<&ChaosLog>,
    what: &str,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let retries_left = attempt + 1 < policy.max_attempts;
                if !retries_left || !is_retryable(&e) {
                    return Err(e);
                }
                let delay = backoff_delay_ns(policy, attempt);
                if let Some(l) = log {
                    l.recovery(
                        RecoveryAction::Retry,
                        what,
                        format!("attempt {} after {e}; backoff {delay}ns", attempt + 1),
                    );
                }
                sleeper.sleep_ns(delay);
                attempt += 1;
            }
        }
    }
}

/// Read `path` through `io` and verify its FNV-1a checksum against
/// `expected_fnv`. A mismatch is treated as *possibly transient* (an
/// injected or real read-path corruption): the read is repeated under
/// `policy`, with each heal recorded as [`RecoveryAction::Reread`].
/// Persistent mismatch returns [`ErrorKind::InvalidData`] naming the path
/// and both checksums.
pub fn read_file_verified(
    io: &dyn Io,
    path: &Path,
    expected_fnv: u64,
    policy: RetryPolicy,
    sleeper: &dyn Sleeper,
) -> io::Result<Vec<u8>> {
    let log = io.chaos_log();
    let mut attempt = 0u32;
    loop {
        let read_res = retry(policy, sleeper, log, &path.to_string_lossy(), || io.read(path));
        let bytes = read_res?;
        let got = fnv1a(&bytes);
        if got == expected_fnv {
            if attempt > 0 {
                if let Some(l) = log {
                    l.recovery(
                        RecoveryAction::Reread,
                        &path.to_string_lossy(),
                        format!("checksum healed on attempt {}", attempt + 1),
                    );
                }
            }
            return Ok(bytes);
        }
        if attempt + 1 >= policy.max_attempts {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!(
                    "{}: checksum mismatch after {} attempts (expected {expected_fnv:#018x}, got {got:#018x})",
                    path.display(),
                    attempt + 1
                ),
            ));
        }
        sleeper.sleep_ns(backoff_delay_ns(policy, attempt));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultRule};
    use crate::io::{OpClass, RealIo};
    use crate::FaultyIo;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sthsl-chaos-retry-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).expect("create tmp dir");
        d
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy { max_attempts: 8, base_delay_ns: 10, max_delay_ns: 50 };
        let delays: Vec<u64> = (0..5).map(|a| backoff_delay_ns(p, a)).collect();
        assert_eq!(delays, [10, 20, 40, 50, 50]);
    }

    #[test]
    fn retry_heals_transient_eio_within_budget() {
        let mut fails_left = 2;
        let sleeper = VirtualSleeper::new();
        let log = ChaosLog::new();
        let out = retry(
            RetryPolicy { max_attempts: 4, base_delay_ns: 5, max_delay_ns: 100 },
            &sleeper,
            Some(&log),
            "op",
            || {
                if fails_left > 0 {
                    fails_left -= 1;
                    Err(io::Error::from_raw_os_error(crate::fault::EIO))
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out.expect("heals"), 42);
        assert_eq!(log.recovery_count(), 2);
        assert_eq!(sleeper.total_ns(), 5 + 10);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let sleeper = VirtualSleeper::new();
        let out: io::Result<()> = retry(
            RetryPolicy { max_attempts: 3, base_delay_ns: 1, max_delay_ns: 10 },
            &sleeper,
            None,
            "op",
            || Err(io::Error::from_raw_os_error(crate::fault::EIO)),
        );
        assert!(out.is_err());
        assert_eq!(sleeper.total_ns(), 1 + 2, "two backoffs for three attempts");
    }

    #[test]
    fn retry_does_not_retry_enospc_or_invalid_data() {
        for err in [
            io::Error::from_raw_os_error(crate::fault::ENOSPC),
            io::Error::new(ErrorKind::InvalidData, "corrupt"),
            io::Error::new(ErrorKind::NotFound, "gone"),
        ] {
            assert!(!is_retryable(&err), "{err} must not be retryable");
        }
        assert!(is_retryable(&io::Error::from_raw_os_error(crate::fault::EIO)));
        assert!(is_retryable(&io::Error::new(ErrorKind::Interrupted, "eintr")));
    }

    #[test]
    fn verified_read_heals_transient_bit_flip() {
        let dir = tmp_dir("heal");
        let p = dir.join("data.bin");
        let payload = b"crime grid payload 0123456789".to_vec();
        RealIo.write(&p, &payload).expect("seed file");
        let expected = fnv1a(&payload);
        // First read flips a bit; the re-read is clean.
        let plan = FaultPlan::new(11)
            .rule(FaultRule::always(FaultKind::BitFlip, OpClass::Read).with_max_fires(1));
        let io = FaultyIo::new(RealIo, plan);
        let sleeper = VirtualSleeper::new();
        let got = read_file_verified(&io, &p, expected, RetryPolicy::default_read(), &sleeper)
            .expect("second read verifies");
        assert_eq!(got, payload);
        let log = io.chaos_log().expect("log");
        assert_eq!(log.fault_count(), 1);
        assert!(log.recovery_count() >= 1, "reread recovery recorded");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verified_read_reports_persistent_corruption() {
        let dir = tmp_dir("persist");
        let p = dir.join("data.bin");
        RealIo.write(&p, b"good bytes").expect("seed file");
        let expected = fnv1a(b"different bytes");
        let sleeper = VirtualSleeper::new();
        let err = read_file_verified(&RealIo, &p, expected, RetryPolicy::default_read(), &sleeper)
            .expect_err("persistent mismatch");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("data.bin"), "path in message: {msg}");
        assert!(msg.contains("checksum mismatch"), "section in message: {msg}");
        fs::remove_dir_all(&dir).ok();
    }
}
