//! `wire-pinning`: one wire rev, pinned and fuzzed.
//!
//! PR 8 shipped a protocol rev while the fuzz harness still described
//! an older one — attacker-facing decode surface with no adversarial
//! coverage. This rule makes that structurally impossible to repeat:
//! every variant of the `Request` / `Reply` enums in
//! `crates/server/src/protocol.rs`, and every protocol-revision or
//! status constant there (`*VERSION`, `STATUS_*`), must be mentioned
//! in **both** `crates/server/tests/wire_compat.rs` (byte-level pins of
//! the one layout) and `crates/server/tests/wire_fuzz.rs`
//! (hostile-input fuzzing). A mention is an identifier use, or — for
//! the pin tests, which write raw bytes on purpose — the name appearing
//! in a comment or string. Add a new wire construct and the build goes
//! red until both harnesses know about it.

use crate::workspace::SourceFile;
use crate::{Finding, WIRE_PINNING};
use std::collections::HashSet;

const PROTOCOL: &str = "crates/server/src/protocol.rs";
const PIN_FILES: &[&str] = &[
    "crates/server/tests/wire_compat.rs",
    "crates/server/tests/wire_fuzz.rs",
];
const WIRE_ENUMS: &[&str] = &["Request", "Reply"];

/// A name the rule requires to be pinned, at its definition site.
struct Required {
    name: String,
    what: &'static str,
    line: usize,
}

/// Runs the rule. A workspace without `protocol.rs` (e.g. a fixture
/// tree for the other rules) has nothing to pin and passes vacuously.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let Some(proto) = files.iter().find(|f| f.rel_path == PROTOCOL) else {
        return Vec::new();
    };
    let required = required_names(proto);
    let mut findings = Vec::new();
    let mut word_sets: Vec<(&str, Option<HashSet<String>>)> = Vec::new();
    for &pin in PIN_FILES {
        let words = files.iter().find(|f| f.rel_path == pin).map(|f| f.words());
        if words.is_none() {
            findings.push(Finding {
                rule: WIRE_PINNING,
                file: PROTOCOL.to_string(),
                line: 1,
                message: format!("pin file {pin} is missing from the workspace"),
            });
        }
        word_sets.push((pin, words));
    }
    for req in &required {
        for (pin, words) in &word_sets {
            let Some(words) = words else { continue };
            if !words.contains(&req.name) {
                findings.push(Finding {
                    rule: WIRE_PINNING,
                    file: PROTOCOL.to_string(),
                    line: req.line,
                    message: format!("{} `{}` is not pinned in {pin}", req.what, req.name),
                });
            }
        }
    }
    findings
}

/// Collects the `Request`/`Reply` variant names and the
/// `*VERSION` / `STATUS_*` constants from the protocol source.
fn required_names(proto: &SourceFile) -> Vec<Required> {
    let code = proto.code();
    let mut required = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let tok = code[i];
        if tok.kind == crate::lexer::TokenKind::Ident && tok.text == "enum" {
            if let Some(name) = code.get(i + 1) {
                if WIRE_ENUMS.contains(&name.text.as_str()) {
                    i = collect_variants(&code, i + 2, &mut required);
                    continue;
                }
            }
        }
        if tok.kind == crate::lexer::TokenKind::Ident && tok.text == "const" {
            if let Some(name) = code.get(i + 1) {
                if name.kind == crate::lexer::TokenKind::Ident
                    && (name.text.ends_with("VERSION") || name.text.starts_with("STATUS_"))
                {
                    required.push(Required {
                        name: name.text.clone(),
                        what: "wire constant",
                        line: name.line,
                    });
                }
            }
        }
        i += 1;
    }
    required
}

/// Walks an enum body starting at (or just before) its `{`, pushing
/// the depth-1 variant identifiers; returns the index after the
/// closing `}`.
fn collect_variants(
    code: &[&crate::lexer::Token],
    mut i: usize,
    required: &mut Vec<Required>,
) -> usize {
    // Find the opening brace (skipping generics is unnecessary: the
    // wire enums are plain).
    while i < code.len() && code[i].text != "{" {
        i += 1;
    }
    let mut depth = 0usize;
    let mut expect_variant = false;
    while i < code.len() {
        match code[i].text.as_str() {
            "{" | "(" | "[" => {
                if code[i].text == "{" && depth == 0 {
                    expect_variant = true;
                }
                depth += 1;
            }
            "}" | ")" | "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" => {} // attribute leader; its brackets nest like any other
            _ => {
                if depth == 1
                    && expect_variant
                    && code[i].kind == crate::lexer::TokenKind::Ident
                {
                    required.push(Required {
                        name: code[i].text.clone(),
                        what: "wire enum variant",
                        line: code[i].line,
                    });
                    expect_variant = false;
                }
            }
        }
        i += 1;
    }
    i
}
