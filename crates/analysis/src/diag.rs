//! Structured diagnostics — the output vocabulary of every `noc-lint` pass.
//!
//! Each finding is a [`Diagnostic`] with a stable code (`NL1xx` coverage,
//! `NL2xx` proving, `NL4xx` static detectability, `NL5xx` recovery-plane
//! model checking; `NL3xx` is retired), a severity, and whatever
//! provenance the pass can attach: a fault site, a checker id, or a source
//! location. The `noc-lint` binary renders them for humans or as JSON
//! (`--json`), and CI fails on any [`Severity::Error`].

use serde::Serialize;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational note (e.g. a sole-constrainer redundancy report).
    Info,
    /// Suspicious but not gating.
    Warning,
    /// Gating: the static claim does not hold. `noc-lint` exits non-zero.
    Error,
}

/// Which analysis pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Pass {
    /// Pass 1: checker-coverage / blind-spot analysis over the signal graph.
    Coverage,
    /// Pass 2: exhaustive invariant proving over small combinational cones.
    Prove,
    /// Pass 3: static fault detectability (ATPG-style detect-or-masked
    /// proofs over the containment-covered sites).
    Detect,
    /// Pass 4: explicit-state model checking of the recovery plane
    /// (escalation ladder × ARQ product space).
    Model,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Coverage => "coverage",
            Pass::Prove => "prove",
            Pass::Detect => "detect",
            Pass::Model => "model",
        })
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Producing pass.
    pub pass: Pass,
    /// Stable machine-readable code (`NL101`, `NL210`, ...).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Fault-site provenance (`n3/RC[p1]/RcOutDir.2`), when site-scoped.
    pub site: Option<String>,
    /// Checker provenance (Table-1 number), when checker-scoped.
    pub checker: Option<u8>,
    /// Source file (repo-relative), when source-scoped.
    pub file: Option<String>,
    /// 1-based line number, when source-scoped.
    pub line: Option<u32>,
}

impl Diagnostic {
    /// A bare diagnostic with no provenance attached.
    pub fn new(pass: Pass, code: &'static str, severity: Severity, message: String) -> Diagnostic {
        Diagnostic {
            pass,
            code,
            severity,
            message,
            site: None,
            checker: None,
            file: None,
            line: None,
        }
    }

    /// Attaches fault-site provenance.
    pub fn with_site(mut self, site: impl fmt::Display) -> Diagnostic {
        self.site = Some(site.to_string());
        self
    }

    /// Attaches checker provenance.
    pub fn with_checker(mut self, id: u8) -> Diagnostic {
        self.checker = Some(id);
        self
    }

    /// Attaches source provenance.
    pub fn with_source(mut self, file: impl Into<String>, line: u32) -> Diagnostic {
        self.file = Some(file.into());
        self.line = Some(line);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}/{}]", self.code, self.pass)?;
        if let (Some(file), Some(line)) = (&self.file, self.line) {
            write!(f, " {file}:{line}")?;
        }
        if let Some(site) = &self.site {
            write!(f, " {site}")?;
        }
        if let Some(c) = self.checker {
            write!(f, " inv{c}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_below_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_includes_provenance() {
        let d = Diagnostic::new(Pass::Detect, "NL401", Severity::Error, "blind spot".into())
            .with_source("crates/x/src/lib.rs", 12);
        let s = d.to_string();
        assert!(s.contains("error[NL401/detect]"), "{s}");
        assert!(s.contains("crates/x/src/lib.rs:12"), "{s}");
    }

    /// Every stable code in the catalogue with its producing pass — kept
    /// in sync by `round_trips_every_code_through_json_and_renderer`
    /// failing when a pass emits a code this table does not know.
    const CATALOGUE: &[(&str, Pass)] = &[
        ("NL101", Pass::Coverage),
        ("NL102", Pass::Coverage),
        ("NL103", Pass::Coverage),
        ("NL110", Pass::Coverage),
        ("NL120", Pass::Coverage),
        ("NL201", Pass::Prove),
        ("NL211", Pass::Prove),
        ("NL212", Pass::Prove),
        ("NL213", Pass::Prove),
        ("NL214", Pass::Prove),
        ("NL215", Pass::Prove),
        ("NL216", Pass::Prove),
        ("NL217", Pass::Prove),
        ("NL218", Pass::Prove),
        ("NL221", Pass::Prove),
        ("NL290", Pass::Prove),
        ("NL401", Pass::Detect),
        ("NL402", Pass::Detect),
        ("NL403", Pass::Detect),
        ("NL404", Pass::Detect),
        ("NL501", Pass::Model),
        ("NL502", Pass::Model),
        ("NL503", Pass::Model),
        ("NL504", Pass::Model),
        ("NL505", Pass::Model),
    ];

    /// The catalogue covers every code the source tree emits: scan the
    /// crate sources for `"NLxxx"` literals and require each to appear in
    /// `CATALOGUE` (and vice versa for the emitting pass's range).
    #[test]
    fn catalogue_matches_source_tree() {
        let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut emitted = std::collections::BTreeSet::new();
        let mut stack = vec![src_dir];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs")
                    && path.file_name().is_some_and(|n| n != "diag.rs")
                {
                    let text = std::fs::read_to_string(&path).unwrap();
                    let bytes = text.as_bytes();
                    let mut i = 0;
                    while let Some(off) = text[i..].find("\"NL") {
                        let start = i + off + 1;
                        let end = start
                            + text[start..]
                                .find('"')
                                .expect("unterminated NL code literal");
                        let code = &text[start..end];
                        if code.len() == 5 && bytes[start + 2..end].iter().all(u8::is_ascii_digit) {
                            emitted.insert(code.to_string());
                        }
                        i = end + 1;
                    }
                }
            }
        }
        for code in &emitted {
            assert!(
                CATALOGUE.iter().any(|(c, _)| c == code),
                "code {code} is emitted but missing from diag.rs CATALOGUE"
            );
        }
        for (code, _) in CATALOGUE {
            assert!(
                emitted.contains(*code),
                "catalogued code {code} is emitted nowhere in src/"
            );
        }
    }

    /// Satellite: every severity × catalogued code round-trips through
    /// the JSON serializer and the human renderer without losing the
    /// code, pass, severity, or provenance.
    #[test]
    fn round_trips_every_code_through_json_and_renderer() {
        for &(code, pass) in CATALOGUE {
            for severity in [Severity::Info, Severity::Warning, Severity::Error] {
                let d = Diagnostic::new(pass, code, severity, format!("probe for {code}"))
                    .with_site("n3/RC[p1]/RcOutDir.2")
                    .with_checker(17)
                    .with_source("crates/x/src/lib.rs", 42);

                // JSON round-trip: serialize, re-parse, compare fields.
                let json = serde_json::to_string(&d).unwrap();
                let v: serde::Value = serde_json::from_str(&json).unwrap();
                assert_eq!(v.get("code").and_then(|c| c.as_str()), Some(code));
                assert_eq!(
                    v.get("pass").and_then(|p| p.as_str()),
                    Some(format!("{pass:?}").as_str()),
                    "pass tag must serialize as the variant name"
                );
                let sev_name = format!("{severity:?}");
                assert_eq!(
                    v.get("severity").and_then(|s| s.as_str()),
                    Some(sev_name.as_str())
                );
                assert_eq!(
                    v.get("site").and_then(|s| s.as_str()),
                    Some("n3/RC[p1]/RcOutDir.2")
                );
                assert_eq!(v.get("checker").and_then(|c| c.as_u64()), Some(17));
                assert_eq!(v.get("line").and_then(|l| l.as_u64()), Some(42));
                assert_eq!(
                    v.get("message").and_then(|m| m.as_str()),
                    Some(format!("probe for {code}").as_str())
                );

                // Human renderer: code, pass name, severity word, and all
                // provenance must appear.
                let human = d.to_string();
                let sev_word = match severity {
                    Severity::Info => "info",
                    Severity::Warning => "warning",
                    Severity::Error => "error",
                };
                assert!(
                    human.starts_with(&format!("{sev_word}[{code}/{pass}]")),
                    "{human}"
                );
                assert!(human.contains("crates/x/src/lib.rs:42"), "{human}");
                assert!(human.contains("n3/RC[p1]/RcOutDir.2"), "{human}");
                assert!(human.contains("inv17"), "{human}");
                assert!(human.contains(&format!("probe for {code}")), "{human}");
            }
        }
    }

    #[test]
    fn site_and_checker_provenance_render() {
        let d = Diagnostic::new(
            Pass::Coverage,
            "NL110",
            Severity::Error,
            "blind spot".into(),
        )
        .with_site("n0/RC[p0]/RcOutDir.0")
        .with_checker(3);
        let s = d.to_string();
        assert!(s.contains("n0/RC[p0]/RcOutDir.0"), "{s}");
        assert!(s.contains("inv3"), "{s}");
    }
}
