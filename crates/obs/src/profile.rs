//! Span-based tape profiler.
//!
//! [`TapeProfiler`] implements [`sthsl_autograd::TapeObserver`]. The kernel
//! side reports only *what* executed; this side owns the clock. Because the
//! forward kernel runs immediately before its node is recorded (and each
//! backward closure immediately before its notification), the time between
//! two successive notifications is attributable to the op just reported — a
//! delta profiler that costs one clock read per op and nothing when no
//! observer is attached.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use sthsl_autograd::{TapeObserver, TapePhase};

use crate::clock::Clock;
use crate::event::TraceEvent;

/// Stable lowercase label for a tape phase (part of the trace schema).
pub fn phase_name(phase: TapePhase) -> &'static str {
    match phase {
        TapePhase::Forward => "forward",
        TapePhase::Backward => "backward",
    }
}

/// Accumulated statistics for one `(op, phase)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Executions observed.
    pub count: u64,
    /// Wall time attributed to this op, in nanoseconds.
    pub total_ns: u64,
    /// Output payload bytes across all executions.
    pub bytes: u64,
}

struct ProfState {
    last_ns: u64,
    stats: BTreeMap<(String, TapePhase), OpStat>,
}

/// A [`TapeObserver`] that aggregates per-op wall time and bytes.
///
/// Attach with [`sthsl_autograd::Graph::set_observer`]; one profiler may
/// observe many graphs in sequence (each batch of a training run).
pub struct TapeProfiler {
    clock: Rc<dyn Clock>,
    state: RefCell<ProfState>,
}

impl TapeProfiler {
    /// A profiler reading time from `clock`.
    pub fn new(clock: Rc<dyn Clock>) -> Self {
        let last_ns = clock.now_ns();
        TapeProfiler { clock, state: RefCell::new(ProfState { last_ns, stats: BTreeMap::new() }) }
    }

    /// [`TapeProfiler::new`], pre-wrapped for [`sthsl_autograd::Graph::set_observer`].
    pub fn shared(clock: Rc<dyn Clock>) -> Rc<Self> {
        Rc::new(Self::new(clock))
    }

    /// Reset the delta baseline to "now" without touching the aggregates.
    /// Call between profiled sections so time spent outside the tape (data
    /// loading, optimizer steps) is not attributed to the next op.
    pub fn mark(&self) {
        let now = self.clock.now_ns();
        self.state.borrow_mut().last_ns = now;
    }

    /// Aggregate into a report keeping the `top_k` hottest rows.
    ///
    /// Ordering is deterministic: total time descending, then op name
    /// ascending, then forward before backward.
    pub fn report(&self, top_k: usize) -> ProfileReport {
        let state = self.state.borrow();
        let mut rows: Vec<ProfileRow> = state
            .stats
            .iter()
            .map(|((name, phase), stat)| ProfileRow {
                name: name.clone(),
                phase: *phase,
                count: stat.count,
                total_ns: stat.total_ns,
                bytes: stat.bytes,
            })
            .collect();
        rows.sort_by(|a, b| {
            (Reverse(a.total_ns), &a.name, a.phase).cmp(&(Reverse(b.total_ns), &b.name, b.phase))
        });
        let total_rows = rows.len();
        let total_ns = rows.iter().fold(0u64, |acc, r| acc.saturating_add(r.total_ns));
        rows.truncate(top_k);
        ProfileReport { rows, total_rows, total_ns }
    }
}

impl TapeObserver for TapeProfiler {
    fn on_op(&self, name: &'static str, phase: TapePhase, bytes: usize) {
        let now = self.clock.now_ns();
        let mut state = self.state.borrow_mut();
        let delta = now.saturating_sub(state.last_ns);
        state.last_ns = now;
        let stat = state.stats.entry((name.to_string(), phase)).or_default();
        stat.count = stat.count.saturating_add(1);
        stat.total_ns = stat.total_ns.saturating_add(delta);
        stat.bytes = stat.bytes.saturating_add(u64::try_from(bytes).unwrap_or(u64::MAX));
    }
}

/// One row of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    pub name: String,
    pub phase: TapePhase,
    pub count: u64,
    pub total_ns: u64,
    pub bytes: u64,
}

/// The aggregated top-K hot-op report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Hottest rows, at most the requested K.
    pub rows: Vec<ProfileRow>,
    /// Distinct `(op, phase)` rows before truncation.
    pub total_rows: usize,
    /// Wall time across *all* rows (not just the kept ones).
    pub total_ns: u64,
}

impl ProfileReport {
    /// Share of `total_ns` spent in `row`, in per-mille (integer math, so
    /// the rendering is bit-deterministic).
    fn permille(&self, row: &ProfileRow) -> u64 {
        if self.total_ns == 0 {
            return 0;
        }
        u64::try_from(u128::from(row.total_ns) * 1000 / u128::from(self.total_ns))
            .unwrap_or(u64::MAX)
    }

    /// Render as a fixed-width text table. Deterministic for a given set of
    /// aggregates — golden-pinnable under a [`crate::clock::FakeClock`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hot ops: top {} of {} (total {} ns)",
            self.rows.len(),
            self.total_rows,
            self.total_ns
        );
        let _ = writeln!(
            out,
            "{:<4} {:<20} {:<9} {:>8} {:>14} {:>12} {:>7}",
            "rank", "op", "phase", "count", "total_ns", "bytes", "share"
        );
        for (i, row) in self.rows.iter().enumerate() {
            let pm = self.permille(row);
            let _ = writeln!(
                out,
                "{:<4} {:<20} {:<9} {:>8} {:>14} {:>12} {:>5}.{}%",
                i + 1,
                row.name,
                phase_name(row.phase),
                row.count,
                row.total_ns,
                row.bytes,
                pm / 10,
                pm % 10
            );
        }
        out
    }

    /// The report as trace events, one [`TraceEvent::OpStat`] per row.
    pub fn to_events(&self) -> Vec<TraceEvent> {
        self.rows
            .iter()
            .map(|row| TraceEvent::OpStat {
                name: row.name.clone(),
                phase: phase_name(row.phase).to_string(),
                count: row.count,
                total_ns: row.total_ns,
                bytes: row.bytes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    /// Feed a fixed notification sequence through a fake clock twice and pin
    /// the rendered report: determinism is the whole point of the pin.
    #[test]
    fn fake_clock_report_is_golden() {
        let build = || {
            let prof = TapeProfiler::new(Rc::new(FakeClock::new(50)));
            for _ in 0..3 {
                prof.on_op("matmul", TapePhase::Forward, 4096);
                prof.on_op("add", TapePhase::Forward, 1024);
            }
            prof.on_op("matmul", TapePhase::Backward, 4096);
            prof.report(3)
        };
        let report = build();
        assert_eq!(report, build(), "profiler must be deterministic under a fake clock");
        // 7 notifications × 50 ns, evenly attributed.
        assert_eq!(report.total_ns, 350);
        assert_eq!(report.total_rows, 3);
        let golden = "hot ops: top 3 of 3 (total 350 ns)\n\
                      rank op                   phase        count       total_ns        bytes   share\n\
                      1    add                  forward          3            150         3072    42.8%\n\
                      2    matmul               forward          3            150        12288    42.8%\n\
                      3    matmul               backward         1             50         4096    14.2%\n";
        assert_eq!(report.render(), golden);
    }

    #[test]
    fn top_k_truncates_but_total_covers_everything() {
        let prof = TapeProfiler::new(Rc::new(FakeClock::new(10)));
        for name in ["a", "b", "c", "d"] {
            // Leak is fine in tests: observers take &'static str op names.
            let name: &'static str = Box::leak(name.to_string().into_boxed_str());
            prof.on_op(name, TapePhase::Forward, 8);
        }
        let report = prof.report(2);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.total_rows, 4);
        assert_eq!(report.total_ns, 40);
    }

    #[test]
    fn mark_excludes_untaped_time_from_the_next_op() {
        let clock = Rc::new(FakeClock::new(100));
        let prof = TapeProfiler::new(Rc::clone(&clock) as Rc<dyn Clock>);
        clock.advance(1_000_000); // "data loading"
        prof.mark();
        prof.on_op("add", TapePhase::Forward, 4);
        let report = prof.report(1);
        assert_eq!(report.total_ns, 100, "marked-off time must not be attributed");
    }

    #[test]
    fn report_events_match_rows() {
        let prof = TapeProfiler::new(Rc::new(FakeClock::new(10)));
        prof.on_op("mul", TapePhase::Forward, 16);
        let events = prof.report(5).to_events();
        assert_eq!(
            events,
            vec![TraceEvent::OpStat {
                name: "mul".into(),
                phase: "forward".into(),
                count: 1,
                total_ns: 10,
                bytes: 16,
            }]
        );
    }
}
