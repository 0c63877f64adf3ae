//! # smm-tidy
//!
//! A dependency-free static-analysis pass over this workspace's own
//! sources — the mechanical form of the review checklist that
//! previously lived in maintainers' heads. Production serving stacks
//! gate their invariants in CI (rustc's `tidy` is the exemplar shape);
//! this crate does the same for the spatial sparse-matrix serving
//! stack, and because the workspace builds offline from vendored
//! sources, the whole pass is hand-rolled on `std`.
//!
//! The pass is driven by a small Rust lexer ([`lexer`]), not regex
//! over raw text, so `.unwrap()` inside a string, a char-literal
//! quote, a `r#""#` raw string, or a nested block comment never
//! produces a false positive. Four rules run over the scanned
//! workspace:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `hot-path-panic` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` on the request path (`smm-server`, `smm-runtime`, `smm-store`, `smm-core::wire`/`block`) outside `#[cfg(test)]` |
//! | `safety-comment` | every `unsafe` carries a `// SAFETY:` comment |
//! | `wire-pinning` | every `Request`/`Reply` variant and `*VERSION`/`STATUS_*` constant is exercised by both `wire_compat.rs` and `wire_fuzz.rs` |
//! | `doc-deny-drift` | the `#![deny(missing_docs)]` crate roster neither loses nor silently gains members |
//!
//! A finding can be silenced at a genuinely justified site with an
//! inline directive — on the offending line or the line above it:
//!
//! ```text
//! // smm-tidy: allow(hot-path-panic): <why this site cannot fire>
//! ```
//!
//! The reason is mandatory; a directive without one (or naming an
//! unknown rule) is itself reported under `allow-hygiene`, which has
//! no escape hatch.
//!
//! Run it as `smm tidy [--root DIR]` (nonzero exit on any finding) or
//! through [`check_workspace`] as a library.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod workspace;

use std::fmt;
use std::io;
use std::path::Path;

/// Rule name: panicking shortcuts on the request path.
pub const HOT_PATH_PANIC: &str = "hot-path-panic";
/// Rule name: `unsafe` without a `// SAFETY:` justification.
pub const SAFETY_COMMENT: &str = "safety-comment";
/// Rule name: wire enums/constants unpinned in the compat/fuzz tests.
pub const WIRE_PINNING: &str = "wire-pinning";
/// Rule name: drift against the `#![deny(missing_docs)]` roster.
pub const DOC_DENY_DRIFT: &str = "doc-deny-drift";
/// Rule name: malformed or unjustified allow directives. Not
/// silenceable — hygiene findings about the escape hatch cannot be
/// escaped through it.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// A rule's name and one-line summary, for `--help`-style listings.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The name used in diagnostics and allow directives.
    pub name: &'static str,
    /// What the rule enforces.
    pub summary: &'static str,
}

/// The four workspace rules, in the order they run.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: HOT_PATH_PANIC,
        summary: "no unwrap/expect/panic!/unreachable! on the request path",
    },
    RuleInfo {
        name: SAFETY_COMMENT,
        summary: "every `unsafe` carries a // SAFETY: comment",
    },
    RuleInfo {
        name: WIRE_PINNING,
        summary: "every wire enum variant and rev/status constant is pinned in wire_compat.rs and wire_fuzz.rs",
    },
    RuleInfo {
        name: DOC_DENY_DRIFT,
        summary: "the #![deny(missing_docs)] crate roster is kept exactly",
    },
];

/// One diagnostic: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule name (one of the `*_` constants in this crate).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-indexed line of the offending token or definition.
    pub line: usize,
    /// Human-readable explanation with the suggested fix direction.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Scans the workspace rooted at `root` and returns every finding that
/// survives the inline allow directives, sorted by file, line, and
/// rule. An empty result means the tree is clean.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = workspace::collect_files(root)?;
    Ok(check_files(&files))
}

/// Runs every rule over already-scanned files — the testable core of
/// [`check_workspace`].
pub fn check_files(files: &[workspace::SourceFile]) -> Vec<Finding> {
    let mut raw = Vec::new();
    raw.extend(rules::hot_path::check(files));
    raw.extend(rules::safety::check(files));
    raw.extend(rules::wire::check(files));
    raw.extend(rules::docs::check(files));

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            !files
                .iter()
                .find(|sf| sf.rel_path == f.file)
                .is_some_and(|sf| sf.is_allowed(f.rule, f.line))
        })
        .collect();
    findings.extend(allow_hygiene(files));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup();
    findings
}

/// Audits the allow directives themselves: every directive must parse,
/// name known rules, and carry a non-empty reason.
fn allow_hygiene(files: &[workspace::SourceFile]) -> Vec<Finding> {
    let known: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    let mut findings = Vec::new();
    for file in files {
        for directive in &file.allows {
            if directive.rules.is_empty() {
                findings.push(Finding {
                    rule: ALLOW_HYGIENE,
                    file: file.rel_path.clone(),
                    line: directive.line,
                    message: "malformed directive: expected \
                              `smm-tidy: allow(<rule>[, <rule>]): <reason>`"
                        .to_string(),
                });
                continue;
            }
            for rule in &directive.rules {
                if !known.contains(&rule.as_str()) {
                    findings.push(Finding {
                        rule: ALLOW_HYGIENE,
                        file: file.rel_path.clone(),
                        line: directive.line,
                        message: format!("allow directive names unknown rule `{rule}`"),
                    });
                }
            }
            if directive.reason.is_empty() {
                findings.push(Finding {
                    rule: ALLOW_HYGIENE,
                    file: file.rel_path.clone(),
                    line: directive.line,
                    message: "allow directive must carry a reason after the rule list"
                        .to_string(),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use workspace::SourceFile;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path.to_string(), src)
    }

    #[test]
    fn findings_render_as_file_line_rule() {
        let f = Finding {
            rule: HOT_PATH_PANIC,
            file: "crates/server/src/x.rs".into(),
            line: 7,
            message: "boom".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/server/src/x.rs:7: [hot-path-panic] boom"
        );
    }

    #[test]
    fn allowed_findings_are_suppressed_but_need_reasons() {
        let files = vec![file(
            "crates/server/src/x.rs",
            "// smm-tidy: allow(hot-path-panic): fixture-justified\nfn f() { x.unwrap(); }\n",
        )];
        assert!(check_files(&files).is_empty());

        let files = vec![file(
            "crates/server/src/x.rs",
            "// smm-tidy: allow(hot-path-panic)\nfn f() { x.unwrap(); }\n",
        )];
        let findings = check_files(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, ALLOW_HYGIENE);
    }

    #[test]
    fn unknown_rules_in_directives_are_reported() {
        let files = vec![file(
            "crates/cli/src/x.rs",
            "// smm-tidy: allow(no-such-rule): whatever\nfn f() {}\n",
        )];
        let findings = check_files(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, ALLOW_HYGIENE);
        assert!(findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn rule_table_matches_the_constants() {
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![HOT_PATH_PANIC, SAFETY_COMMENT, WIRE_PINNING, DOC_DENY_DRIFT]
        );
    }
}
