//! Structured output: findings as JSONL through the `zeiot-obs` layer.
//!
//! The dump has two sections in one stream, both one JSON object per
//! line:
//!
//! 1. every [`Finding`] (file, line, rule, snippet, message,
//!    allow-status), in walk order;
//! 2. the audit's own metrics — `audit.findings.<status>` counters
//!    labeled per rule, an `audit.files_scanned` counter, and one
//!    `Trace` record per *active* finding — rendered through
//!    [`zeiot_obs::jsonl`], so audit dumps splice into the same
//!    tooling as every other workspace metrics stream.

use crate::finding::Finding;
use zeiot_core::time::SimTime;
use zeiot_obs::{Label, Recorder, Severity};

/// Summary of one audit run.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Every finding, suppressed included, in walk order.
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Findings that still count against the run.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.status.is_active())
    }

    /// Records the run into a fresh obs [`Recorder`].
    pub fn recorder(&self) -> Recorder {
        let mut rec = Recorder::new();
        rec.add(
            "audit.files_scanned",
            Label::Global,
            self.files_scanned as u64,
        );
        for f in &self.findings {
            let metric = format!("audit.findings.{}", f.status.tag());
            rec.add(&metric, Label::part(f.rule.clone()), 1);
            if f.status.is_active() {
                rec.trace(
                    SimTime::ZERO,
                    Severity::Error,
                    Label::part(f.file.clone()),
                    format!("[{}] line {}: {}", f.rule, f.line, f.message),
                );
            }
        }
        rec
    }

    /// Serializes the run as JSON Lines (findings, then obs records).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&serde_json::to_string(f).expect("findings are serializable"));
            out.push('\n');
        }
        out.push_str(&zeiot_obs::jsonl::to_jsonl(&self.recorder().snapshot()));
        out
    }

    /// Counts of (active, suppressed) findings.
    pub fn tallies(&self) -> (usize, usize) {
        let active = self.active().count();
        (active, self.findings.len() - active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::AllowStatus;

    fn report() -> AuditReport {
        AuditReport {
            findings: vec![
                Finding {
                    file: "crates/sim/src/engine.rs".into(),
                    line: 3,
                    rule: "d1".into(),
                    snippet: "use std::collections::HashMap;".into(),
                    message: "hash collection".into(),
                    status: AllowStatus::Active,
                    chain: Vec::new(),
                },
                Finding {
                    file: "crates/obs/src/span.rs".into(),
                    line: 9,
                    rule: "d2".into(),
                    snippet: "Instant::now()".into(),
                    message: "wall clock".into(),
                    status: AllowStatus::Suppressed {
                        justification: "profiling only".into(),
                    },
                    chain: Vec::new(),
                },
            ],
            files_scanned: 2,
        }
    }

    #[test]
    fn jsonl_carries_findings_then_obs_records() {
        let text = report().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"rule\"") && lines[0].contains("d1"));
        assert!(lines[1].contains("Suppressed"));
        // Obs section: counters and the trace for the active finding.
        assert!(text.contains("audit.findings.active"));
        assert!(text.contains("audit.findings.suppressed"));
        assert!(text.contains("audit.files_scanned"));
        assert!(text.contains("\"Trace\""));
        // Both sections re-parse: findings via serde, the obs tail via
        // the obs reader.
        for line in &lines[..2] {
            assert!(serde_json::from_str::<Finding>(line).is_ok());
        }
        let obs_tail: String = lines[2..].join("\n");
        assert!(zeiot_obs::from_jsonl(&obs_tail).is_ok());
    }

    #[test]
    fn tallies_split_by_status() {
        assert_eq!(report().tallies(), (1, 1));
        assert_eq!(report().active().count(), 1);
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(report().to_jsonl(), report().to_jsonl());
    }
}
