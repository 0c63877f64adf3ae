//! End-to-end run over the fixture corpus in
//! `tests/fixtures/corpus/`: a miniature workspace where every rule
//! both fires (at exactly-known file:line coordinates) and is silenced
//! by an `// smm-tidy: allow(...)` directive, with the lexer traps
//! (raw strings, nested block comments, char-literal quotes) sitting
//! right next to the violations they must not be confused with.

use smm_tidy::{
    check_workspace, Finding, ALLOW_HYGIENE, DOC_DENY_DRIFT, HOT_PATH_PANIC, SAFETY_COMMENT,
    WIRE_PINNING,
};
use std::path::Path;

/// The corpus root, resolved relative to this crate.
fn corpus() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/corpus"
    ))
}

fn scan() -> Vec<Finding> {
    check_workspace(corpus()).expect("corpus directory is readable")
}

/// `(rule, file, line)` triples of every finding, in reported order.
fn coords(findings: &[Finding]) -> Vec<(&'static str, &str, usize)> {
    findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect()
}

#[test]
fn corpus_findings_match_exactly() {
    let findings = scan();
    let expected: Vec<(&str, &str, usize)> = vec![
        (ALLOW_HYGIENE, "crates/cli/src/allow_hygiene.rs", 4),
        (ALLOW_HYGIENE, "crates/cli/src/allow_hygiene.rs", 7),
        (SAFETY_COMMENT, "crates/core/src/buffers.rs", 12),
        (HOT_PATH_PANIC, "crates/core/src/io.rs", 7),
        (DOC_DENY_DRIFT, "crates/rogue/src/lib.rs", 1),
        (HOT_PATH_PANIC, "crates/server/src/hot_path.rs", 18),
        (HOT_PATH_PANIC, "crates/server/src/hot_path.rs", 20),
        (HOT_PATH_PANIC, "crates/server/src/hot_path.rs", 21),
        (HOT_PATH_PANIC, "crates/server/src/hot_path.rs", 27),
        (WIRE_PINNING, "crates/server/src/protocol.rs", 10),
        (WIRE_PINNING, "crates/server/src/protocol.rs", 10),
        (WIRE_PINNING, "crates/server/src/protocol.rs", 17),
        (WIRE_PINNING, "crates/server/src/protocol.rs", 25),
        (WIRE_PINNING, "crates/server/src/protocol.rs", 25),
        (DOC_DENY_DRIFT, "crates/telemetry/src/lib.rs", 1),
    ];
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(
        coords(&findings),
        expected,
        "full diagnostics:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn hot_path_messages_name_the_offending_form() {
    let findings = scan();
    let hot: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == HOT_PATH_PANIC && f.file == "crates/server/src/hot_path.rs")
        .collect();
    assert!(hot[0].message.starts_with(".unwrap()"), "{}", hot[0]);
    assert!(hot[1].message.starts_with(".expect()"), "{}", hot[1]);
    assert!(hot[2].message.starts_with("panic!"), "{}", hot[2]);
    assert!(hot[3].message.starts_with("unreachable!"), "{}", hot[3]);
}

#[test]
fn lexer_traps_stay_quiet() {
    // hot_path.rs lines 5..=14 hold `.unwrap()` / `.expect(..)` /
    // `panic!` spelled inside comments, a nested block comment, a
    // two-hash raw string, and a plain string — right after a `'"'`
    // char literal that a naive lexer would misread as opening a
    // string. None of them may produce a finding.
    let findings = scan();
    assert!(
        findings
            .iter()
            .filter(|f| f.file == "crates/server/src/hot_path.rs")
            .all(|f| !(5..=14).contains(&f.line)),
        "a lexer trap fired: {findings:?}"
    );
}

#[test]
fn allow_directives_silence_their_sites() {
    let findings = scan();
    // hot_path.rs:34 (unwrap below a directive) and buffers.rs:18
    // (unsafe below a directive) are violations by content, silenced by
    // the escape hatch. Test code (hot_path.rs:41) is exempt wholesale,
    // and so is an `smm-core` module off the decoder path
    // (buffers.rs:24, against the in-scope io.rs:7).
    let silenced = [
        ("crates/server/src/hot_path.rs", 34),
        ("crates/server/src/hot_path.rs", 41),
        ("crates/core/src/buffers.rs", 18),
        ("crates/core/src/buffers.rs", 24),
    ];
    for (file, line) in silenced {
        assert!(
            !findings.iter().any(|f| f.file == file && f.line == line),
            "{file}:{line} should be silenced, got: {findings:?}"
        );
    }
}

#[test]
fn wire_findings_name_the_missing_pin_file() {
    let findings = scan();
    let wire: Vec<&Finding> = findings.iter().filter(|f| f.rule == WIRE_PINNING).collect();
    // STATUS_GHOST is pinned in neither harness; sorted output puts the
    // compat message before the fuzz message.
    assert!(wire[0].message.contains("STATUS_GHOST"), "{}", wire[0]);
    assert!(wire[0].message.contains("wire_compat.rs"), "{}", wire[0]);
    assert!(wire[1].message.contains("STATUS_GHOST"), "{}", wire[1]);
    assert!(wire[1].message.contains("wire_fuzz.rs"), "{}", wire[1]);
    // Load is pinned in the compat tests but missing from the fuzzer.
    assert!(wire[2].message.contains('`'), "{}", wire[2]);
    assert!(wire[2].message.contains("Load"), "{}", wire[2]);
    assert!(wire[2].message.contains("wire_fuzz.rs"), "{}", wire[2]);
    // Unpinned is missing from both.
    assert!(wire[3].message.contains("Unpinned"), "{}", wire[3]);
    assert!(wire[3].message.contains("wire_compat.rs"), "{}", wire[3]);
    assert!(wire[4].message.contains("Unpinned"), "{}", wire[4]);
    assert!(wire[4].message.contains("wire_fuzz.rs"), "{}", wire[4]);
}

#[test]
fn doc_drift_fires_in_both_directions() {
    let findings = scan();
    let docs: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == DOC_DENY_DRIFT)
        .collect();
    assert!(
        docs[0].message.contains("not on the"),
        "rogue carries the attribute while unlisted: {}",
        docs[0]
    );
    assert!(
        docs[1].message.contains("no longer carries"),
        "telemetry is listed but dropped the attribute: {}",
        docs[1]
    );
}

#[test]
fn allow_hygiene_reports_reasonless_and_unknown_directives() {
    let findings = scan();
    let hygiene: Vec<&Finding> = findings.iter().filter(|f| f.rule == ALLOW_HYGIENE).collect();
    assert!(
        hygiene[0].message.contains("reason"),
        "line 4 omits the reason: {}",
        hygiene[0]
    );
    assert!(
        hygiene[1].message.contains("no-such-rule"),
        "line 7 names an unknown rule: {}",
        hygiene[1]
    );
}
