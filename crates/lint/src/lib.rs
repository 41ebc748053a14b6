//! `usp-lint` — the workspace's invariants as machine-checked rules.
//!
//! The repo's correctness story rests on cross-crate conventions that used to live
//! only in comments: the nan-class comparator rule, the "kernel is the single
//! scoring source of truth" contract, the Acquire/Release protocol on the mutation
//! dirty flag, documented `unsafe`, the strict downward crate layering, and the
//! "shims cover exactly the used API surface" standing rule. This crate turns each
//! one into a rule over a hand-rolled token stream ([`lexer`]) so violations fail
//! in CI instead of surfacing as NaN panics or cross-engine bit divergence.
//! DESIGN.md §6 maps every rule to the PR or bug that motivated it.
//!
//! Suppression is explicit and always carries a reason:
//!
//! * inline: `// lint:allow(rule-name): reason` — scoped to the next item (or
//!   statement) when it stands on its own line, to that line alone when it trails
//!   code. A missing reason or unknown rule name is itself a finding.
//! * repo-level: [`allowlist::REPO_ALLOWLIST`] — for deliberate `vendor/` surface
//!   the drift rule would otherwise flag.

pub mod allowlist;
pub mod lexer;
pub mod manifest;
pub mod rules_file;
pub mod rules_workspace;

use lexer::LexedFile;
use manifest::Manifest;

/// Names of every shipped rule, in report order.
pub const RULES: [&str; 10] = [
    "nan-unsafe-cmp",
    "scoring-outside-kernel",
    "raw-thread-spawn",
    "undocumented-atomic-ordering",
    "unsafe-needs-safety-comment",
    "lock-poisoning",
    "layering",
    "vendored-shim-drift",
    "module-cycle",
    "lint-pragma",
];

/// One diagnostic: a rule name anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// An inline `// lint:allow(rule): reason` pragma with its computed line scope.
#[derive(Debug, Clone)]
pub struct Pragma {
    pub rule: String,
    pub line: u32,
    /// Inclusive line range the pragma suppresses.
    pub scope: (u32, u32),
}

/// The whole tree as the linter sees it: lexed sources + parsed manifests.
pub struct Workspace {
    pub files: Vec<LexedFile>,
    pub manifests: Vec<Manifest>,
}

impl Workspace {
    /// Loads every `.rs` file and `Cargo.toml` under `root`, skipping `target/`,
    /// `.git/` and hidden directories.
    pub fn load(root: &std::path::Path) -> std::io::Result<Workspace> {
        let mut rs_files = Vec::new();
        let mut toml_files = Vec::new();
        collect(root, root, &mut rs_files, &mut toml_files)?;
        rs_files.sort();
        toml_files.sort();
        let mut files = Vec::with_capacity(rs_files.len());
        for rel in &rs_files {
            let text = std::fs::read_to_string(root.join(rel))?;
            files.push(lexer::lex(rel, &text));
        }
        let mut manifests = Vec::with_capacity(toml_files.len());
        for rel in &toml_files {
            let text = std::fs::read_to_string(root.join(rel))?;
            manifests.push(manifest::parse(rel, &text));
        }
        Ok(Workspace { files, manifests })
    }

    /// Builds a workspace from in-memory sources — the fixture entry point used by
    /// the rule self-tests.
    pub fn from_sources(sources: &[(&str, &str)], manifests: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: sources.iter().map(|(p, s)| lexer::lex(p, s)).collect(),
            manifests: manifests
                .iter()
                .map(|(p, s)| manifest::parse(p, s))
                .collect(),
        }
    }
}

fn collect(
    root: &std::path::Path,
    dir: &std::path::Path,
    rs: &mut Vec<String>,
    toml: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect(root, &path, rs, toml)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            if name == "Cargo.toml" {
                toml.push(rel);
            } else {
                rs.push(rel);
            }
        }
    }
    Ok(())
}

/// Parses the `lint:allow` pragmas of one file and reports malformed ones
/// (missing reason, unknown rule name) as `lint-pragma` findings.
pub fn parse_pragmas(file: &LexedFile, findings: &mut Vec<Finding>) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in &file.comments {
        // A pragma is a plain `//` comment that *starts* with `lint:allow` —
        // doc comments and prose that merely mention the syntax are not pragmas.
        let trimmed = c.text.trim_start();
        if c.doc || !trimmed.starts_with("lint:allow") {
            continue;
        }
        let rest = &trimmed["lint:allow".len()..];
        let mut push_malformed = |msg: String| {
            findings.push(Finding {
                rule: "lint-pragma",
                path: file.path.clone(),
                line: c.line,
                col: 1,
                message: msg,
            });
        };
        let Some(open) = rest.find('(') else {
            push_malformed("malformed pragma: expected `lint:allow(rule-name): reason`".into());
            continue;
        };
        let Some(close) = rest.find(')') else {
            push_malformed("malformed pragma: unclosed `(` in `lint:allow(...)`".into());
            continue;
        };
        let rule = rest[open + 1..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) {
            push_malformed(format!(
                "unknown rule `{rule}` in lint:allow (known rules: {})",
                RULES.join(", ")
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            push_malformed(format!(
                "lint:allow({rule}) needs a reason: `// lint:allow({rule}): why this is sound`"
            ));
            continue;
        }
        let scope = if c.trailing {
            (c.line, c.line)
        } else {
            (c.end_line + 1, item_end_line(file, c.end_line))
        };
        out.push(Pragma {
            rule,
            line: c.line,
            scope,
        });
    }
    out
}

/// Last line of the item or statement that starts after `line`: the span of a
/// standalone pragma. Ends at the first `;` at the item's own depth, or at the
/// `}` matching the first `{` opened at that depth.
fn item_end_line(file: &LexedFile, line: u32) -> u32 {
    let Some(first) = file.tokens.iter().position(|t| t.line > line) else {
        return line;
    };
    let d = file.tokens[first].depth;
    let mut saw_brace = false;
    for t in &file.tokens[first..] {
        if t.depth < d {
            return t.line; // enclosing scope closed before the item did
        }
        if t.depth == d {
            if t.is_punct(";") && !saw_brace {
                return t.line;
            }
            if t.is_punct("{") {
                saw_brace = true;
            }
            if t.is_punct("}") && saw_brace {
                return t.line;
            }
        }
    }
    file.tokens.last().map_or(line, |t| t.line)
}

/// Runs every rule over the workspace, applies inline pragmas and the repo
/// allowlist, and returns the surviving findings sorted by (path, line, col).
pub fn lint_workspace(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut pragmas: Vec<(usize, Vec<Pragma>)> = Vec::new();
    for (idx, file) in ws.files.iter().enumerate() {
        pragmas.push((idx, parse_pragmas(file, &mut findings)));
        rules_file::nan_unsafe_cmp(file, &mut findings);
        rules_file::scoring_outside_kernel(file, &mut findings);
        rules_file::raw_thread_spawn(file, &mut findings);
        rules_file::undocumented_atomic_ordering(
            file,
            &pragmas.last().expect("just pushed").1,
            &mut findings,
        );
        rules_file::unsafe_needs_safety_comment(file, &mut findings);
        rules_file::lock_poisoning(file, &mut findings);
    }
    rules_workspace::layering(ws, &mut findings);
    rules_workspace::vendored_shim_drift(ws, &mut findings);
    rules_workspace::module_cycle(ws, &mut findings);

    // Inline pragmas. `undocumented-atomic-ordering` consumes its own pragmas
    // (a lint:allow alone must not silence a missing `// ordering:` comment on
    // Relaxed), so it is exempt from generic suppression.
    findings.retain(|f| {
        if f.rule == "undocumented-atomic-ordering" {
            return true;
        }
        let Some((idx, _)) = pragmas.iter().find(|(i, _)| ws.files[*i].path == f.path) else {
            return true;
        };
        !pragmas[*idx]
            .1
            .iter()
            .any(|p| p.rule == f.rule && p.scope.0 <= f.line && f.line <= p.scope.1)
    });
    // Repo-level allowlist.
    findings.retain(|f| !allowlist::covers(f));
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
    });
    findings
}

/// Per-rule finding counts in [`RULES`] order (always includes zero rows — CI
/// prints these so drift is visible in logs even while the gate is green).
pub fn rule_counts(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    RULES
        .iter()
        .map(|r| (*r, findings.iter().filter(|f| f.rule == *r).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(src: &str) -> Vec<Finding> {
        lint_workspace(&Workspace::from_sources(&[("crates/x/src/a.rs", src)], &[]))
    }

    #[test]
    fn pragma_requires_reason_and_known_rule() {
        let f = lint_one("// lint:allow(nan-unsafe-cmp)\nfn a() {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lint-pragma");
        let f = lint_one("// lint:allow(no-such-rule): because\nfn a() {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn pragma_with_reason_is_clean() {
        let f = lint_one("// lint:allow(raw-thread-spawn): fixture reason\nfn a() {}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn standalone_pragma_scope_covers_next_item_only() {
        let src = "\
// lint:allow(raw-thread-spawn): this item drives a shutdown race on purpose
fn covered() {
    std::thread::spawn(|| {});
}
fn uncovered() {
    std::thread::spawn(|| {});
}
";
        let f = lint_one(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "raw-thread-spawn");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn trailing_pragma_covers_its_line_only() {
        let src = "\
fn f() {
    std::thread::spawn(|| {}); // lint:allow(raw-thread-spawn): race fixture
    std::thread::spawn(|| {});
}
";
        let f = lint_one(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn rule_counts_list_every_rule() {
        let counts = rule_counts(&[]);
        assert_eq!(counts.len(), RULES.len());
        assert!(counts.iter().all(|(_, n)| *n == 0));
    }
}
