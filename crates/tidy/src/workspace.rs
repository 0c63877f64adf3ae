//! Workspace discovery and the per-file lint model.
//!
//! [`collect_files`] walks a workspace root for `.rs` sources (skipping
//! build output, vendored crates, and fixture corpora) and lexes each
//! one into a [`SourceFile`]: the token stream, the parsed
//! `// smm-tidy: allow(...)` directives, and the `#[cfg(test)]` /
//! `#[test]` line regions that the hot-path rule must ignore.

use crate::lexer::{lex, Token, TokenKind};
use std::fs;
use std::io;
use std::path::Path;

/// Directory names never descended into: build output, vendored
/// dependencies, version control, and the tidy fixture corpus (which
/// contains deliberate violations).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// One inline `// smm-tidy: allow(<rules>): <reason>` directive.
///
/// A directive silences the named rules on its own line and on the
/// line immediately below it, so it works both as a trailing comment
/// and as a comment above the offending statement.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule names inside the parentheses.
    pub rules: Vec<String>,
    /// The justification after the closing parenthesis (required).
    pub reason: String,
    /// 1-indexed line the directive starts on.
    pub line: usize,
}

/// A lexed source file plus the derived lint context.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with forward slashes.
    pub rel_path: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Parsed allow directives, in source order.
    pub allows: Vec<AllowDirective>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]`
    /// items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `source` into a file model under the given relative path.
    pub fn parse(rel_path: String, source: &str) -> Self {
        let tokens = lex(source);
        let allows = parse_allows(&tokens);
        let test_ranges = test_regions(&tokens);
        Self {
            rel_path,
            tokens,
            allows,
            test_ranges,
        }
    }

    /// The non-comment tokens, in order.
    pub fn code(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_comment()).collect()
    }

    /// `true` when `line` falls inside a `#[cfg(test)]` / `#[test]`
    /// item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// `true` when an allow directive for `rule` covers `line` (the
    /// directive's own line or the line just below it).
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|d| {
            (d.line == line || d.line + 1 == line) && d.rules.iter().any(|r| r == rule)
        })
    }

    /// Every identifier-ish word in the file: identifier tokens plus
    /// words embedded in strings and comments. Used by the wire-pinning
    /// rule, where a deliberately hand-rolled byte-level test may pin a
    /// variant by name in a comment rather than by constructing it.
    pub fn words(&self) -> std::collections::HashSet<String> {
        let mut words = std::collections::HashSet::new();
        for token in &self.tokens {
            match token.kind {
                TokenKind::Ident => {
                    words.insert(token.text.clone());
                }
                TokenKind::Str | TokenKind::LineComment | TokenKind::BlockComment => {
                    for word in token
                        .text
                        .split(|c: char| !c.is_alphanumeric() && c != '_')
                    {
                        if !word.is_empty() {
                            words.insert(word.to_string());
                        }
                    }
                }
                _ => {}
            }
        }
        words
    }
}

/// Extracts every `smm-tidy: allow(...)` directive from the comment
/// tokens. Malformed directives (no parenthesized rule list) are kept
/// with an empty rule list so the engine can report them instead of
/// silently ignoring them.
fn parse_allows(tokens: &[Token]) -> Vec<AllowDirective> {
    let mut allows = Vec::new();
    for token in tokens {
        if !token.is_comment() {
            continue;
        }
        // Doc comments are rendered documentation — they *describe* the
        // directive syntax (as this crate's own docs do) rather than
        // invoke it. Directives live in plain `//` / `/* */` comments.
        let is_doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| token.text.starts_with(p));
        if is_doc {
            continue;
        }
        let Some(at) = token.text.find("smm-tidy:") else {
            continue;
        };
        let rest = token.text[at + "smm-tidy:".len()..].trim_start();
        let Some(body) = rest.strip_prefix("allow") else {
            allows.push(AllowDirective {
                rules: Vec::new(),
                reason: String::new(),
                line: token.line,
            });
            continue;
        };
        let body = body.trim_start();
        let (rules, reason) = match (body.strip_prefix('('), body.find(')')) {
            (Some(_), Some(close)) => {
                let inside = &body[1..close];
                let rules = inside
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let reason = body[close + 1..]
                    .trim_start_matches([':', '-', '—', ' ', '\t'])
                    .trim_end_matches("*/")
                    .trim()
                    .to_string();
                (rules, reason)
            }
            _ => (Vec::new(), String::new()),
        };
        allows.push(AllowDirective {
            rules,
            reason,
            line: token.line,
        });
    }
    allows
}

/// Computes the line ranges of items gated behind `#[cfg(test)]` or
/// `#[test]`-style attributes, conservatively: any attribute that
/// names `test` without naming `not` counts (so `#[cfg(not(test))]`
/// production code is still linted, while `#[cfg(any(test, bench))]`
/// is skipped).
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].text != "#" || i + 1 >= code.len() || code[i + 1].text != "[" {
            i += 1;
            continue;
        }
        let attr_line = code[i].line;
        // Collect the attribute tokens up to the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < code.len() {
            match code[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                "test" if code[j].kind == TokenKind::Ident => has_test = true,
                "not" if code[j].kind == TokenKind::Ident => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j + 1;
            continue;
        }
        // Skip over any further attributes, then swallow the item: to a
        // terminating `;` if one comes before any brace, else through
        // the matching `}` of the item's body.
        let mut k = j + 1;
        while k + 1 < code.len() && code[k].text == "#" && code[k + 1].text == "[" {
            let mut d = 0usize;
            k += 1;
            while k < code.len() {
                match code[k].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d = d.saturating_sub(1);
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace_depth = 0usize;
        let mut end_line = attr_line;
        while k < code.len() {
            match code[k].text.as_str() {
                ";" if brace_depth == 0 => {
                    end_line = code[k].line;
                    break;
                }
                "{" => brace_depth += 1,
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if brace_depth == 0 {
                        end_line = code[k].line;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        ranges.push((attr_line, end_line.max(attr_line)));
        i = k + 1;
    }
    ranges
}

/// Recursively collects and lexes every `.rs` file under `root`,
/// skipping the `SKIP_DIRS` names. Paths are returned sorted so diagnostics
/// are deterministic.
pub fn collect_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let Ok(source) = fs::read_to_string(root.join(&rel)) else {
            // Non-UTF-8 or newly deleted: nothing to lint.
            continue;
        };
        files.push(SourceFile::parse(rel, &source));
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_directives_parse_rules_and_reasons() {
        let file = SourceFile::parse(
            "x.rs".into(),
            "// smm-tidy: allow(hot-path-panic): header slices are fixed width\nfoo.unwrap();\n",
        );
        assert_eq!(file.allows.len(), 1);
        assert_eq!(file.allows[0].rules, vec!["hot-path-panic"]);
        assert_eq!(file.allows[0].reason, "header slices are fixed width");
        assert!(file.is_allowed("hot-path-panic", 1));
        assert!(file.is_allowed("hot-path-panic", 2));
        assert!(!file.is_allowed("hot-path-panic", 3));
        assert!(!file.is_allowed("safety-comment", 2));
    }

    #[test]
    fn multi_rule_directives_and_trailing_comments_cover_their_line() {
        let file = SourceFile::parse(
            "x.rs".into(),
            "foo.unwrap(); // smm-tidy: allow(hot-path-panic, wire-pinning) - both fine here\n",
        );
        assert!(file.is_allowed("hot-path-panic", 1));
        assert!(file.is_allowed("wire-pinning", 1));
    }

    #[test]
    fn malformed_directives_are_kept_with_empty_rules() {
        let file = SourceFile::parse("x.rs".into(), "// smm-tidy: allow hot-path-panic\n");
        assert_eq!(file.allows.len(), 1);
        assert!(file.allows[0].rules.is_empty());
    }

    #[test]
    fn doc_comments_describing_the_syntax_are_not_directives() {
        let file = SourceFile::parse(
            "x.rs".into(),
            "//! write `// smm-tidy: allow(<rule>): reason` inline\n\
             /// e.g. // smm-tidy: allow(...): because\n\
             fn f() {}\n",
        );
        assert!(file.allows.is_empty());
    }

    #[test]
    fn cfg_test_modules_become_test_regions() {
        let src = "\
fn hot() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        hot();
    }
}
";
        let file = SourceFile::parse("x.rs".into(), src);
        assert!(!file.is_test_line(1));
        assert!(file.is_test_line(3));
        assert!(file.is_test_line(6));
        assert!(file.is_test_line(9));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn production() { x.unwrap(); }\n";
        let file = SourceFile::parse("x.rs".into(), src);
        assert!(!file.is_test_line(2));
    }

    #[test]
    fn attributed_statements_without_braces_end_at_the_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let file = SourceFile::parse("x.rs".into(), src);
        assert!(file.is_test_line(2));
        assert!(!file.is_test_line(3));
    }

    #[test]
    fn words_include_idents_strings_and_comments() {
        let file = SourceFile::parse(
            "x.rs".into(),
            "// mentions CapacityFull here\nlet s = \"STATUS_CAPACITY byte\"; write_frame(x);\n",
        );
        let words = file.words();
        for expect in ["CapacityFull", "STATUS_CAPACITY", "write_frame"] {
            assert!(words.contains(expect), "missing {expect}");
        }
    }
}
