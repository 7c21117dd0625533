//! The chaos event log: a shared, append-only record of injected faults and
//! the recovery actions the healing code took in response.
//!
//! [`FaultyIo`](crate::fault::FaultyIo) appends a [`ChaosEvent::Fault`] for
//! every fault it injects; retry/quarantine/fallback code appends
//! [`ChaosEvent::Recovery`] entries through the same shared log (reached via
//! [`Io::chaos_log`](crate::io::Io::chaos_log)). Tests read it back through
//! the counters and [`ChaosLog::snapshot`].

use std::cell::RefCell;

use crate::fault::FaultKind;
use crate::io::OpClass;

/// A recovery action taken by self-healing code in response to a fault
/// (injected or real).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// An operation failed transiently and was retried (with backoff).
    Retry,
    /// A corrupt artifact was renamed to `*.corrupt` and preserved.
    Quarantine,
    /// Load fell back to an older verified-good checkpoint generation.
    Fallback,
    /// A stale `.tmp` file from a crashed atomic write was removed.
    TmpSweep,
    /// The retry budget was exhausted; the subsystem latched a degraded mode
    /// (e.g. training continues with checkpointing disabled).
    Degrade,
    /// A checksum-verified read healed by re-reading the file.
    Reread,
}

impl RecoveryAction {
    /// Stable lowercase name, used in chaos-log and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryAction::Retry => "retry",
            RecoveryAction::Quarantine => "quarantine",
            RecoveryAction::Fallback => "fallback",
            RecoveryAction::TmpSweep => "tmp_sweep",
            RecoveryAction::Degrade => "degrade",
            RecoveryAction::Reread => "reread",
        }
    }
}

/// One entry in the [`ChaosLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A fault was injected by [`FaultyIo`](crate::fault::FaultyIo).
    Fault {
        /// Operation class the fault fired on.
        op: OpClass,
        /// The kind of fault injected.
        kind: FaultKind,
        /// Path of the file/directory the operation targeted.
        path: String,
        /// Free-form detail (offset of a bit flip, truncated length, ...).
        detail: String,
    },
    /// A recovery action was taken by self-healing code.
    Recovery {
        /// What the healing code did.
        action: RecoveryAction,
        /// Path of the artifact involved.
        path: String,
        /// Free-form detail (attempt number, fallback generation, ...).
        detail: String,
    },
}

/// Shared, append-only chaos event log. Interior-mutable so a single log can
/// be referenced from the I/O seam and from recovery code at the same time;
/// single-threaded by design, like the rest of the trainer I/O path.
#[derive(Debug, Default)]
pub struct ChaosLog {
    events: RefCell<Vec<ChaosEvent>>,
}

impl ChaosLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a fault event.
    pub fn fault(&self, op: OpClass, kind: FaultKind, path: &str, detail: String) {
        self.events.borrow_mut().push(ChaosEvent::Fault {
            op,
            kind,
            path: path.to_string(),
            detail,
        });
    }

    /// Append a recovery event.
    pub fn recovery(&self, action: RecoveryAction, path: &str, detail: String) {
        self.events.borrow_mut().push(ChaosEvent::Recovery {
            action,
            path: path.to_string(),
            detail,
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Number of `Fault` entries.
    pub fn fault_count(&self) -> usize {
        self.events.borrow().iter().filter(|e| matches!(e, ChaosEvent::Fault { .. })).count()
    }

    /// Number of `Recovery` entries.
    pub fn recovery_count(&self) -> usize {
        self.events.borrow().iter().filter(|e| matches!(e, ChaosEvent::Recovery { .. })).count()
    }

    /// Snapshot of all events (the log keeps its contents).
    pub fn snapshot(&self) -> Vec<ChaosEvent> {
        self.events.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order() {
        let log = ChaosLog::new();
        assert!(log.is_empty());
        log.fault(OpClass::Write, FaultKind::TornWrite, "/a", "cut at 3".into());
        log.recovery(RecoveryAction::Retry, "/a", "attempt 1".into());
        log.recovery(RecoveryAction::Quarantine, "/b", String::new());
        assert_eq!(log.len(), 3);
        assert_eq!(log.fault_count(), 1);
        assert_eq!(log.recovery_count(), 2);
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        match &events[0] {
            ChaosEvent::Fault { op, kind, path, detail } => {
                assert_eq!(*op, OpClass::Write);
                assert_eq!(*kind, FaultKind::TornWrite);
                assert_eq!(path, "/a");
                assert_eq!(detail, "cut at 3");
            }
            other => panic!("expected fault, got {other:?}"),
        }
        match &events[1] {
            ChaosEvent::Recovery { action, .. } => assert_eq!(*action, RecoveryAction::Retry),
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_preserves_contents() {
        let log = ChaosLog::new();
        log.recovery(RecoveryAction::TmpSweep, "/x/.f.tmp-1", String::new());
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(log.len(), 1, "snapshot must not drain");
    }

    #[test]
    fn recovery_action_names_are_stable() {
        let all = [
            RecoveryAction::Retry,
            RecoveryAction::Quarantine,
            RecoveryAction::Fallback,
            RecoveryAction::TmpSweep,
            RecoveryAction::Degrade,
            RecoveryAction::Reread,
        ];
        let names: Vec<&str> = all.iter().map(|a| a.as_str()).collect();
        assert_eq!(names, ["retry", "quarantine", "fallback", "tmp_sweep", "degrade", "reread"]);
    }
}
