//! Diagnostic and report types shared by all analysis passes.

use std::fmt::Write as _;

/// Version of the rendered report format. Bumped whenever the report layout
/// changes so golden re-derivations are diffable across PRs: a diff whose
/// only `report-version` line changed is a format migration, anything else
/// is a behavior change.
///
/// v3: adds this header.
/// v4: drops the `nan-taint:` line and the `memory:` block; the `cost:` line
/// carries the tape's total output bytes instead.
/// v5: drops the `determinism:` line (bit-identity across thread counts is
/// gated at runtime by `tests/parallel_equivalence.rs`, not by a static pass).
/// v6: drops the `float-error:` line and the `warnings:` count; a finding is
/// an error or an info.
/// v7: drops the `shape:` line (shapes are the kernels' recorded ones, not
/// re-inferred).
pub const REPORT_VERSION: u32 = 7;

/// Which analysis pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Tape well-formedness (parent ordering, loss validity).
    Structure,
    /// Gradient-flow reachability.
    GradFlow,
    /// Interval-domain value ranges (overflow / NaN / pole proofs).
    ValueRange,
}

impl Pass {
    /// Stable lowercase name used in rendered reports.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Structure => "structure",
            Pass::GradFlow => "grad-flow",
            Pass::ValueRange => "ranges",
        }
    }
}

/// How severe a diagnostic is. `Error` fails the trainer pre-flight;
/// `Info` records expected conditions (e.g. ablation-detached parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Blocks training: the graph is wired wrong.
    Error,
    /// Expected / informational.
    Info,
}

impl Severity {
    /// Stable lowercase name used in rendered reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Info => "info",
        }
    }
}

/// One finding, anchored to a tape node (`%idx`) when it has a location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Producing pass.
    pub pass: Pass,
    /// Severity class.
    pub severity: Severity,
    /// Tape index of the offending node, if the finding has one.
    pub node: Option<usize>,
    /// Message, including the `%idx` Var-chain context.
    pub msg: String,
}

/// Outcome of a full audit of one model graph.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Model name for the report header.
    pub model: String,
    /// Nodes on the tape.
    pub node_count: usize,
    /// Registered parameters checked for reachability.
    pub param_count: usize,
    /// Parameters proven reachable from the loss.
    pub reachable_params: usize,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Interval-domain value ranges (`None` when the audit short-circuited).
    pub ranges: Option<crate::range::RangeSummary>,
    /// Static cost model.
    pub cost: Option<crate::cost::CostSummary>,
}

impl AuditReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Whether any error-level finding exists (pre-flight must fail).
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Count of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Deterministic human-readable report (stable across runs for a fixed
    /// graph, so it can be pinned by golden tests).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== graph audit: {} ==", self.model);
        let _ = writeln!(out, "report-version: {REPORT_VERSION}");
        let _ = writeln!(
            out,
            "nodes: {}   params: {}   errors: {}   info: {}",
            self.node_count,
            self.param_count,
            self.count(Severity::Error),
            self.count(Severity::Info),
        );
        let flow_status = if self
            .diagnostics
            .iter()
            .any(|d| d.pass == Pass::GradFlow && d.severity == Severity::Error)
        {
            "FAIL"
        } else {
            "OK"
        };
        let _ = writeln!(
            out,
            "grad-flow: {flow_status} ({}/{} parameters reachable from the loss)",
            self.reachable_params, self.param_count
        );
        match &self.ranges {
            Some(r) => {
                let status = if self
                    .diagnostics
                    .iter()
                    .any(|d| d.pass == Pass::ValueRange && d.severity == Severity::Error)
                {
                    "FAIL"
                } else {
                    "OK"
                };
                let _ = writeln!(
                    out,
                    "ranges: {status} ({}/{} intervals bounded; max |bound| {:.3e})",
                    r.bounded, r.total, r.max_abs_bound
                );
            }
            None => {
                let _ = writeln!(out, "ranges: skipped");
            }
        }
        match &self.cost {
            Some(cost) => {
                let _ = writeln!(
                    out,
                    "cost: fwd {} + bwd {} | tape {} | traffic {} | {} flop/B",
                    fmt_flops(cost.total_fwd_flops),
                    fmt_flops(cost.total_bwd_flops),
                    fmt_bytes(usize::try_from(cost.total_out_bytes).unwrap_or(usize::MAX)),
                    fmt_bytes(usize::try_from(cost.total_traffic_bytes).unwrap_or(usize::MAX)),
                    fmt_hundredths(
                        (cost.total_traffic_bytes > 0)
                            .then(|| cost.total_flops() * 100 / cost.total_traffic_bytes)
                    ),
                );
                for (name, row) in cost.ranked().into_iter().take(6) {
                    let _ = writeln!(
                        out,
                        "  {name:<20} {:>5} node(s)  {:>12}  {} flop/B",
                        row.count,
                        fmt_flops(row.total_flops()),
                        fmt_hundredths(row.intensity_hundredths()),
                    );
                }
            }
            None => {
                let _ = writeln!(out, "cost: skipped");
            }
        }
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "diagnostics: none");
        } else {
            // Render order is fully deterministic: pass, then severity, then
            // tape index (unlocated findings last), with the stable sort
            // preserving emission order for exact ties. `self.diagnostics`
            // itself keeps emission order so index-based callers are
            // unaffected.
            let mut ordered: Vec<&Diagnostic> = self.diagnostics.iter().collect();
            ordered.sort_by_key(|d| (d.pass, d.severity, d.node.unwrap_or(usize::MAX)));
            let _ = writeln!(out, "diagnostics:");
            for d in ordered {
                let at = d.node.map_or(String::new(), |n| format!(" %{n}"));
                let _ =
                    writeln!(out, "  [{}/{}]{} {}", d.severity.name(), d.pass.name(), at, d.msg);
            }
        }
        out
    }
}

/// Fixed-point byte formatting (deterministic; no float rounding surprises).
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        // Two decimal places in MiB, computed in integer arithmetic.
        let hundredths = (b * 100) >> 20;
        format!("{}.{:02} MiB", hundredths / 100, hundredths % 100)
    } else if b >= 1 << 10 {
        let tenths = (b * 10) >> 10;
        format!("{}.{} KiB", tenths / 10, tenths % 10)
    } else {
        format!("{b} B")
    }
}

/// Fixed-point flop formatting in decimal units (deterministic).
pub fn fmt_flops(f: u128) -> String {
    if f >= 1_000_000_000 {
        let hundredths = f * 100 / 1_000_000_000;
        format!("{}.{:02} Gflop", hundredths / 100, hundredths % 100)
    } else if f >= 1_000_000 {
        let hundredths = f * 100 / 1_000_000;
        format!("{}.{:02} Mflop", hundredths / 100, hundredths % 100)
    } else if f >= 1_000 {
        let tenths = f * 10 / 1_000;
        format!("{}.{} Kflop", tenths / 10, tenths % 10)
    } else {
        format!("{f} flop")
    }
}

/// Render an integer hundredths value as `x.yz` (`-` when undefined).
fn fmt_hundredths(h: Option<u128>) -> String {
    match h {
        Some(h) => format!("{}.{:02}", h / 100, h % 100),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting_is_fixed_point() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(5 << 20), "5.00 MiB");
        assert_eq!(fmt_bytes((1 << 20) + (1 << 19)), "1.50 MiB");
    }

    #[test]
    fn error_detection() {
        let mut r = AuditReport {
            model: "m".into(),
            node_count: 1,
            param_count: 0,
            reachable_params: 0,
            diagnostics: vec![],
            ranges: None,
            cost: None,
        };
        assert!(!r.has_errors());
        r.diagnostics.push(Diagnostic {
            pass: Pass::GradFlow,
            severity: Severity::Error,
            node: Some(3),
            msg: "boom".into(),
        });
        assert!(r.has_errors());
        assert!(r.render().contains("[error/grad-flow] %3 boom"));
    }

    #[test]
    fn render_carries_report_version_header() {
        let r = AuditReport {
            model: "m".into(),
            node_count: 1,
            param_count: 0,
            reachable_params: 0,
            diagnostics: vec![],
            ranges: None,
            cost: None,
        };
        let rendered = r.render();
        assert!(
            rendered
                .starts_with(&format!("== graph audit: m ==\nreport-version: {REPORT_VERSION}\n")),
            "{rendered}"
        );
    }
}
