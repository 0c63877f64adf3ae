//! `hot-path-panic`: no panicking shortcuts on the request path.
//!
//! The serving crates promise that hostile bytes, capacity pressure,
//! and worker faults surface as typed errors or `Busy`/`CapacityFull`
//! replies — never a torn-down connection thread. That promise dies
//! one `.unwrap()` at a time, so this rule bans the panicking family
//! (`.unwrap()` / `.expect(..)` calls and the `panic!` /
//! `unreachable!` / `todo!` / `unimplemented!` macros) in the request
//! path: all of `smm-server`, `smm-runtime`, and `smm-store` sources,
//! plus the `smm-core` modules the wire decoder is built on and runs
//! through (`wire.rs`, `block.rs`, and the `io.rs` / `matrix.rs` pair
//! every `LoadMatrix` payload is parsed by). Code under `#[cfg(test)]` /
//! `#[test]` is exempt; `assert!` (documented index-contract panics) is
//! not banned.
//!
//! Fix sites by returning a typed error, or — for shared-state locks —
//! by taking the guard through `smm_telemetry::lock_or_recover`, which
//! recovers from poisoning instead of cascading a worker's panic into
//! every thread that touches the same mutex.

use crate::workspace::SourceFile;
use crate::{Finding, HOT_PATH_PANIC};

/// Crate source trees whose every file is request-path code.
const SCOPE_PREFIXES: &[&str] = &[
    "crates/server/src/",
    "crates/runtime/src/",
    "crates/store/src/",
];

/// Individual `smm-core` modules on the request path.
const SCOPE_FILES: &[&str] = &[
    "crates/core/src/wire.rs",
    "crates/core/src/block.rs",
    "crates/core/src/io.rs",
    "crates/core/src/matrix.rs",
];

/// Methods that panic on the error/none arm.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that panic unconditionally when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn in_scope(rel_path: &str) -> bool {
    SCOPE_PREFIXES.iter().any(|p| rel_path.starts_with(p))
        || SCOPE_FILES.contains(&rel_path)
}

/// Runs the rule over every in-scope file.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| in_scope(&f.rel_path)) {
        let code = file.code();
        for (i, token) in code.iter().enumerate() {
            if token.kind != crate::lexer::TokenKind::Ident || file.is_test_line(token.line) {
                continue;
            }
            let name = token.text.as_str();
            let prev = i.checked_sub(1).map(|p| code[p].text.as_str());
            let next = code.get(i + 1).map(|t| t.text.as_str());
            if PANIC_METHODS.contains(&name) && prev == Some(".") && next == Some("(") {
                findings.push(Finding {
                    rule: HOT_PATH_PANIC,
                    file: file.rel_path.clone(),
                    line: token.line,
                    message: format!(
                        ".{name}() on the request path; return a typed error \
                         (or take locks via lock_or_recover)"
                    ),
                });
            } else if PANIC_MACROS.contains(&name) && next == Some("!") {
                findings.push(Finding {
                    rule: HOT_PATH_PANIC,
                    file: file.rel_path.clone(),
                    line: token.line,
                    message: format!(
                        "{name}! on the request path; restructure so the case is \
                         impossible or return a typed error"
                    ),
                });
            }
        }
    }
    findings
}
