//! Cross-file rules: they see the whole [`Workspace`] at once — every lexed
//! source plus every parsed manifest.

use crate::lexer::TokKind;
use crate::{Finding, Workspace};

// ------------------------------------------------------------------- layering

/// The crate DAG from DESIGN §1, as (crate, allowed `usp-*` dependencies).
/// `cargo` would catch cycles, but not an edge that merely *flattens* the
/// layering (e.g. usp-serve reaching into usp-core, or usp-eval growing a
/// dependency on the serving layer) — those compile fine and quietly turn the
/// layered design into a ball. Additions here must update the §1 diagram too.
const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("usp-linalg", &[]),
    ("usp-nn", &["usp-linalg"]),
    ("usp-data", &["usp-linalg"]),
    ("usp-index", &["usp-linalg"]),
    ("usp-graph", &["usp-data", "usp-linalg"]),
    ("usp-quant", &["usp-data", "usp-index", "usp-linalg"]),
    ("usp-cluster", &["usp-data", "usp-linalg", "usp-quant"]),
    (
        "usp-core",
        &["usp-data", "usp-index", "usp-linalg", "usp-nn"],
    ),
    (
        "usp-baselines",
        &[
            "usp-data",
            "usp-graph",
            "usp-index",
            "usp-linalg",
            "usp-nn",
            "usp-quant",
        ],
    ),
    ("usp-serve", &["usp-index", "usp-linalg"]),
    (
        "usp-eval",
        &[
            "usp-baselines",
            "usp-cluster",
            "usp-core",
            "usp-data",
            "usp-graph",
            "usp-index",
            "usp-linalg",
            "usp-nn",
            "usp-quant",
        ],
    ),
    (
        "usp-bench",
        &[
            "usp-baselines",
            "usp-core",
            "usp-data",
            "usp-eval",
            "usp-graph",
            "usp-index",
            "usp-linalg",
            "usp-nn",
            "usp-quant",
        ],
    ),
    // The linter sits outside the DAG it checks.
    ("usp-lint", &[]),
    // The root facade re-exports the library surface; bench and lint are
    // reached via `cargo bench` / `cargo run -p usp-lint`, not the facade.
    (
        "neural-partitioner",
        &[
            "usp-baselines",
            "usp-cluster",
            "usp-core",
            "usp-data",
            "usp-eval",
            "usp-graph",
            "usp-index",
            "usp-linalg",
            "usp-nn",
            "usp-quant",
            "usp-serve",
        ],
    ),
];

/// `servebench/` (the `BENCHMARK.json` harness, a package outside the workspace) is a
/// second package named `usp-bench` until a `[benchmark]` PR renames it (ROADMAP
/// item 3), so it is told apart by where its manifest lives. It alone sits above the
/// serving layer — the served index is what it measures.
const HARNESS_MANIFEST: &str = "servebench/Cargo.toml";
const HARNESS_DEPS: &[&str] = &[
    "usp-baselines",
    "usp-core",
    "usp-data",
    "usp-eval",
    "usp-graph",
    "usp-index",
    "usp-linalg",
    "usp-nn",
    "usp-quant",
    "usp-serve",
];

/// Vendored shims and the (few) edges between them. Vendor crates must never
/// depend on workspace crates, and a new name here means a new shim was
/// vendored — which is a DESIGN-level decision, not a `Cargo.toml` edit.
const VENDOR_DEPS: &[(&str, &[&str])] = &[
    ("criterion", &[]),
    ("mio", &[]),
    ("proptest", &["rand"]),
    ("rand", &[]),
    ("rayon", &[]),
    ("serde", &[]),
    ("serde_json", &["serde"]),
];

fn lookup<'a>(table: &[(&'a str, &'a [&'a str])], name: &str) -> Option<&'a [&'a str]> {
    table.iter().find(|(n, _)| *n == name).map(|(_, d)| *d)
}

/// Checks every manifest's dependency edges against the DESIGN §1 DAG, and that
/// each edge is used: a dependency whose name (`-` read as `_`) is no identifier
/// in the package's own `src/`, `tests/`, `benches/` or `examples/` is dead weight
/// in every build. A package with none of those sources loaded is not judged.
pub fn layering(ws: &Workspace, findings: &mut Vec<Finding>) {
    let vendor_names: Vec<&str> = VENDOR_DEPS.iter().map(|(n, _)| *n).collect();
    for m in &ws.manifests {
        if m.package.is_empty() {
            continue; // virtual manifest
        }
        let mut push = |line: u32, message: String| {
            findings.push(Finding {
                rule: "layering",
                path: m.path.clone(),
                line,
                col: 1,
                message,
            });
        };
        let dir = m.path.strip_suffix("Cargo.toml").unwrap_or("");
        let own: Vec<_> = ws
            .files
            .iter()
            .filter(|f| {
                ["src/", "tests/", "benches/", "examples/"]
                    .iter()
                    .any(|sub| f.path.starts_with(&format!("{dir}{sub}")))
            })
            .collect();
        for d in &m.deps {
            let ident = d.name.replace('-', "_");
            let named = own.iter().any(|f| {
                f.tokens
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == ident)
            });
            if !own.is_empty() && !named {
                push(
                    d.line,
                    format!(
                        "`{}` declares a dependency on `{}`, but no source of the package \
                         names `{ident}` — delete the unused edge",
                        m.package, d.name
                    ),
                );
            }
        }
        if let Some(allowed) = lookup(VENDOR_DEPS, &m.package) {
            for d in &m.deps {
                if d.name.starts_with("usp-") || d.name == "neural-partitioner" {
                    push(
                        d.line,
                        format!(
                            "vendored shim `{}` must not depend on workspace crate `{}` — \
                             shims sit below the DAG so the tree can build without them",
                            m.package, d.name
                        ),
                    );
                } else if !allowed.contains(&d.name.as_str())
                    && !vendor_names.contains(&d.name.as_str())
                {
                    push(
                        d.line,
                        format!(
                            "`{}` → `{}` is not a vendored-shim edge registered in the \
                             layering DAG (usp-lint rules_workspace::VENDOR_DEPS)",
                            m.package, d.name
                        ),
                    );
                } else if !allowed.contains(&d.name.as_str()) {
                    push(
                        d.line,
                        format!(
                            "vendor edge `{}` → `{}` is not registered in the layering DAG",
                            m.package, d.name
                        ),
                    );
                }
            }
            continue;
        }
        let registered = if m.path == HARNESS_MANIFEST {
            Some(HARNESS_DEPS)
        } else {
            lookup(ALLOWED_DEPS, &m.package)
        };
        let Some(allowed) = registered else {
            push(
                1,
                format!(
                    "package `{}` is not registered in the layering DAG (DESIGN §1); \
                     add it to usp-lint rules_workspace::ALLOWED_DEPS alongside the \
                     diagram update",
                    m.package
                ),
            );
            continue;
        };
        for d in &m.deps {
            if d.name.starts_with("usp-") {
                if !allowed.contains(&d.name.as_str()) {
                    push(
                        d.line,
                        format!(
                            "`{}` must not depend on `{}`: the edge is absent from the \
                             DESIGN §1 DAG (layering is strictly downward; widen the DAG \
                             deliberately, not by Cargo.toml drift)",
                            m.package, d.name
                        ),
                    );
                }
            } else if !vendor_names.contains(&d.name.as_str()) {
                push(
                    d.line,
                    format!(
                        "`{}` depends on `{}`, which is neither a workspace crate nor a \
                         vendored shim — external dependencies are banned (DESIGN §0); \
                         vendor a shim and register it",
                        m.package, d.name
                    ),
                );
            }
        }
    }
}

// --------------------------------------------------------- vendored-shim-drift

/// One public item defined in a vendor crate.
struct PubItem {
    name: String,
    /// `vendor/<crate>/` prefix of the defining crate.
    crate_prefix: String,
    path: String,
    line: u32,
    col: u32,
    kind: &'static str,
}

const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// Index ranges (token index of `{` exclusive .. matching `}` exclusive) of
/// private `mod` bodies — their items are not part of the public surface.
fn private_mod_ranges(file: &crate::lexer::LexedFile) -> Vec<(usize, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("mod") || i + 2 >= toks.len() {
            continue;
        }
        if toks[i + 1].kind != TokKind::Ident || !toks[i + 2].is_punct("{") {
            continue;
        }
        // `pub mod` / `pub(crate) mod` etc. — look back a few tokens for `pub`.
        let vis_pub = toks[i.saturating_sub(4)..i]
            .iter()
            .any(|t| t.is_ident("pub"));
        if vis_pub {
            continue;
        }
        let d = toks[i + 2].depth;
        let close = toks[i + 3..]
            .iter()
            .position(|t| t.is_punct("}") && t.depth == d)
            .map(|p| i + 3 + p)
            .unwrap_or(toks.len());
        out.push((i + 2, close));
    }
    out
}

/// PR 5 and PR 7 each trimmed shim API that earlier PRs had grown "for later":
/// the standing rule is that `vendor/` covers exactly the API surface the tree
/// uses, so upgrading or replacing a shim means porting only live code. This
/// rule finds vendor `pub` items (and exported macros) with zero call sites
/// outside the defining crate's own tests. Deliberate surface (e.g. API kept
/// for signature compatibility with the real crate) goes in the repo allowlist
/// with a reason, not silently.
pub fn vendored_shim_drift(ws: &Workspace, findings: &mut Vec<Finding>) {
    let mut items: Vec<PubItem> = Vec::new();
    // Pass 1: collect public items from vendor non-test scopes.
    for file in &ws.files {
        if !file.path.starts_with("vendor/") {
            continue;
        }
        let crate_prefix = {
            let mut parts = file.path.splitn(3, '/');
            let (v, c) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            format!("{v}/{c}/")
        };
        let toks = &file.tokens;
        let private = private_mod_ranges(file);
        for i in 0..toks.len() {
            // `#[macro_export] macro_rules! name` exports regardless of `pub`.
            if toks[i].is_ident("macro_rules")
                && !toks[i].in_test
                && i + 2 < toks.len()
                && toks[i + 1].is_punct("!")
                && toks[i + 2].kind == TokKind::Ident
            {
                let exported = toks[i.saturating_sub(6)..i]
                    .iter()
                    .any(|t| t.is_ident("macro_export"));
                if exported {
                    items.push(PubItem {
                        name: toks[i + 2].text.clone(),
                        crate_prefix: crate_prefix.clone(),
                        path: file.path.clone(),
                        line: toks[i + 2].line,
                        col: toks[i + 2].col,
                        kind: "macro",
                    });
                }
                continue;
            }
            if !toks[i].is_ident("pub") || toks[i].in_test {
                continue;
            }
            // `pub(crate)` / `pub(super)` — not public surface.
            if toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                continue;
            }
            if private.iter().any(|&(s, e)| s < i && i < e) {
                continue;
            }
            // Skip qualifiers between `pub` and the item keyword.
            let mut j = i + 1;
            while j < toks.len()
                && (toks[j].is_ident("unsafe")
                    || toks[j].is_ident("const")
                    || toks[j].is_ident("async")
                    || toks[j].is_ident("extern")
                    || toks[j].text.starts_with('"'))
            {
                // `pub const NAME` — `const` here may be the item keyword itself.
                if toks[j].is_ident("const")
                    && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks
                        .get(j + 2)
                        .is_some_and(|t| t.is_punct(":") || t.is_punct("::"))
                {
                    break;
                }
                j += 1;
            }
            let Some(kw) = toks.get(j) else { continue };
            if !ITEM_KINDS.contains(&kw.text.as_str()) || kw.kind != TokKind::Ident {
                continue;
            }
            let Some(name) = toks.get(j + 1) else {
                continue;
            };
            if name.kind != TokKind::Ident {
                continue;
            }
            items.push(PubItem {
                name: name.text.clone(),
                crate_prefix: crate_prefix.clone(),
                path: file.path.clone(),
                line: name.line,
                col: name.col,
                kind: match kw.text.as_str() {
                    "fn" => "fn",
                    "struct" => "struct",
                    "enum" => "enum",
                    "trait" => "trait",
                    "type" => "type alias",
                    "const" => "const",
                    "static" => "static",
                    _ => "mod",
                },
            });
        }
    }

    // Pass 2: usage = any identical ident anywhere in the tree that is not a
    // def token of that name, excluding the defining crate's own test scopes.
    for item in &items {
        let mut used = false;
        'search: for file in &ws.files {
            let own_crate = file.path.starts_with(&item.crate_prefix);
            for t in &file.tokens {
                if t.kind != TokKind::Ident || t.text != item.name {
                    continue;
                }
                if own_crate && t.in_test {
                    continue;
                }
                let is_def = items.iter().any(|d| {
                    d.name == t.text && d.path == file.path && d.line == t.line && d.col == t.col
                });
                if !is_def {
                    used = true;
                    break 'search;
                }
            }
        }
        if !used {
            findings.push(Finding {
                rule: "vendored-shim-drift",
                path: item.path.clone(),
                line: item.line,
                col: item.col,
                message: format!(
                    "vendored pub {} `{}` has no call sites outside its own tests — \
                     shims cover exactly the used API surface; delete it or add a \
                     reasoned entry to usp-lint's REPO_ALLOWLIST",
                    item.kind, item.name
                ),
            });
        }
    }
}

// ----------------------------------------------------------------- module-cycle

/// Module-granularity import-cycle detection. `cargo` rejects crate cycles but
/// happily compiles mutually-importing *modules* inside one crate — which is
/// how a layered crate quietly turns into a ball no refactor can split. The
/// rule builds, per workspace crate, the graph of direct `src/<m>.rs` modules
/// with an edge `a → b` for every non-test `crate::b` path in `a`, and reports
/// each strongly-connected component of two or more modules once, anchored at
/// the offending import in the alphabetically first member.
///
/// Scope: direct children of `crates/<c>/src/` only. `lib.rs`/`main.rs` are
/// crate roots, not modules; `src/bin/` targets and `tests/` are their own
/// crate roots and cannot participate in a library-module cycle.
pub fn module_cycle(ws: &Workspace, findings: &mut Vec<Finding>) {
    use std::collections::BTreeMap;

    let mut crates: BTreeMap<&str, Vec<&crate::lexer::LexedFile>> = BTreeMap::new();
    for f in &ws.files {
        let Some(rest) = f.path.strip_prefix("crates/") else {
            continue;
        };
        let mut it = rest.splitn(2, '/');
        let (Some(cr), Some(tail)) = (it.next(), it.next()) else {
            continue;
        };
        let Some(m) = tail.strip_prefix("src/") else {
            continue;
        };
        if !m.ends_with(".rs") || m.contains('/') {
            continue; // bin targets and nested dirs are separate roots
        }
        crates.entry(cr).or_default().push(f);
    }

    for (cr, files) in crates {
        let stem = |f: &crate::lexer::LexedFile| {
            f.path
                .rsplit('/')
                .next()
                .unwrap_or("")
                .trim_end_matches(".rs")
                .to_string()
        };
        let mut names: Vec<String> = files
            .iter()
            .map(|f| stem(f))
            .filter(|s| s != "lib" && s != "main")
            .collect();
        names.sort_unstable();
        let id = |n: &str| names.iter().position(|x| x == n);

        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        // First `crate::<to>` site per edge, for anchoring the finding.
        let mut site: BTreeMap<(usize, usize), (String, u32, u32)> = BTreeMap::new();
        for f in &files {
            let Some(from) = id(&stem(f)) else {
                continue; // lib.rs / main.rs import freely: the root is no module
            };
            let toks = &f.tokens;
            let mut add = |to: usize, line: u32, col: u32| {
                if to != from {
                    if !adj[from].contains(&to) {
                        adj[from].push(to);
                    }
                    site.entry((from, to))
                        .or_insert((f.path.clone(), line, col));
                }
            };
            for i in 0..toks.len() {
                if toks[i].in_test || !toks[i].is_ident("crate") {
                    continue;
                }
                if !toks.get(i + 1).is_some_and(|t| t.is_punct("::")) {
                    continue;
                }
                match toks.get(i + 2) {
                    Some(t) if t.kind == TokKind::Ident => {
                        if let Some(to) = id(&t.text) {
                            add(to, toks[i].line, toks[i].col);
                        }
                    }
                    // `use crate::{a, b::Thing}` — every group member that
                    // names a sibling module is an edge.
                    Some(t) if t.is_punct("{") => {
                        let d = t.depth;
                        for t2 in &toks[i + 3..] {
                            if t2.is_punct("}") && t2.depth == d {
                                break;
                            }
                            if t2.kind == TokKind::Ident {
                                if let Some(to) = id(&t2.text) {
                                    add(to, toks[i].line, toks[i].col);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        for scc in strongly_connected(&adj) {
            if scc.len() < 2 {
                continue;
            }
            let mut members = scc.clone();
            members.sort_unstable();
            // Anchor at the first member's first import of another member.
            let (path, line, col) = members
                .iter()
                .find_map(|&a| members.iter().find_map(|&b| site.get(&(a, b))).cloned())
                .unwrap_or_else(|| (format!("crates/{cr}"), 1, 1));
            let list = members
                .iter()
                .map(|&i| format!("`{}`", names[i]))
                .collect::<Vec<_>>()
                .join(", ");
            findings.push(Finding {
                rule: "module-cycle",
                path,
                line,
                col,
                message: format!(
                    "modules {list} of `crates/{cr}` import each other in a cycle \
                     (via `crate::…` paths); intra-crate modules must stay acyclic — \
                     hoist the shared items into a leaf module or merge the pair"
                ),
            });
        }
    }
}

/// Tarjan's strongly-connected components, iterative (the graphs are tiny, but
/// the linter must not assume so). Components are returned in discovery order;
/// singletons are included and filtered by the caller.
fn strongly_connected(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let (mut index, mut low, mut on_stack) = (vec![usize::MAX; n], vec![0usize; n], vec![false; n]);
    let (mut stack, mut out, mut next) = (Vec::new(), Vec::new(), 0usize);
    // Explicit DFS frames: (node, next-child-position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(p, _)) = frames.last() {
                low[p] = low[p].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                out.push(comp);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{lint_workspace, Finding, Workspace};

    fn lint(sources: &[(&str, &str)], manifests: &[(&str, &str)]) -> Vec<Finding> {
        lint_workspace(&Workspace::from_sources(sources, manifests))
    }

    // ---- layering

    #[test]
    fn layering_fires_on_unregistered_usp_edge() {
        let f = lint(
            &[],
            &[(
                "crates/serve/Cargo.toml",
                "[package]\nname = \"usp-serve\"\n\n[dependencies]\nusp-core.workspace = true\n",
            )],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "layering");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("usp-core"));

        // The experiment bins do not reach the serving layer; only the harness does.
        let bench =
            "[package]\nname = \"usp-bench\"\n\n[dependencies]\nusp-serve.workspace = true\n";
        let f = lint(&[], &[("crates/bench/Cargo.toml", bench)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("usp-serve"));
        assert!(lint(&[], &[("servebench/Cargo.toml", bench)]).is_empty());
    }

    #[test]
    fn layering_fires_on_external_and_unknown_packages() {
        let f = lint(
            &[],
            &[(
                "crates/data/Cargo.toml",
                "[package]\nname = \"usp-data\"\n\n[dependencies]\nndarray = \"0.15\"\n",
            )],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("external dependencies are banned"));

        let f = lint(
            &[],
            &[(
                "crates/new/Cargo.toml",
                "[package]\nname = \"usp-new-thing\"\n",
            )],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not registered in the layering DAG"));
    }

    #[test]
    fn layering_fires_on_vendor_depending_on_workspace() {
        let f = lint(
            &[],
            &[(
                "vendor/rayon/Cargo.toml",
                "[package]\nname = \"rayon\"\n\n[dependencies]\nusp-linalg.workspace = true\n",
            )],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("must not depend on workspace crate"));
    }

    #[test]
    fn layering_accepts_registered_edges() {
        let f = lint(
            &[],
            &[
                (
                    "crates/quant/Cargo.toml",
                    "[package]\nname = \"usp-quant\"\n\n[dependencies]\nrand.workspace = true\nusp-data.workspace = true\nusp-index.workspace = true\nusp-linalg.workspace = true\n\n[dev-dependencies]\nproptest.workspace = true\n",
                ),
                (
                    "vendor/proptest/Cargo.toml",
                    "[package]\nname = \"proptest\"\n\n[dependencies]\nrand = { path = \"../rand\" }\n",
                ),
            ],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn layering_fires_on_a_dependency_no_source_names() {
        let manifest = "[package]\nname = \"usp-quant\"\n\n[dependencies]\nusp-linalg.workspace = true\n\n[dev-dependencies]\nproptest.workspace = true\n";
        // A doc comment that says "proptests" is not a use; `usp_linalg` is.
        let src = "//! The kernel's proptests live in usp-linalg.\nuse usp_linalg::Matrix;\n";
        let f = lint(
            &[("crates/quant/src/lib.rs", src)],
            &[("crates/quant/Cargo.toml", manifest)],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("layering", 8));
        assert!(f[0].message.contains("`proptest`"), "{f:?}");
        // Another package's use does not count for this one.
        let f = lint(
            &[
                ("crates/quant/src/lib.rs", src),
                ("crates/serve/tests/t.rs", "use proptest::prelude::*;\n"),
            ],
            &[("crates/quant/Cargo.toml", manifest)],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        // A use in the package's tests does.
        let f = lint(
            &[
                ("crates/quant/src/lib.rs", src),
                ("crates/quant/tests/t.rs", "use proptest::prelude::*;\n"),
            ],
            &[("crates/quant/Cargo.toml", manifest)],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // ---- vendored-shim-drift

    #[test]
    fn shim_drift_fires_on_unused_pub_item() {
        let f = lint(
            &[
                (
                    "vendor/mini/src/lib.rs",
                    "pub fn used_fn() {}\npub fn orphan_fn() {}\n",
                ),
                ("crates/x/src/a.rs", "fn f() { mini::used_fn(); }\n"),
            ],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "vendored-shim-drift");
        assert!(f[0].message.contains("orphan_fn"));
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn shim_drift_ignores_own_tests_private_mods_and_counts_macros() {
        // `own_test_only` is referenced only by the shim's own tests → fires;
        // `in_private_mod` is not public surface → silent;
        // the exported macro is used by a workspace crate → silent.
        let f = lint(
            &[
                (
                    "vendor/mini/src/lib.rs",
                    "pub fn own_test_only() {}\n\
                     mod detail { pub fn in_private_mod() {} }\n\
                     #[macro_export]\nmacro_rules! mini_vec { () => {} }\n\
                     #[cfg(test)]\nmod tests {\n #[test]\n fn t() { crate::own_test_only(); }\n}\n",
                ),
                ("crates/x/src/a.rs", "fn f() { let _v = mini_vec!(); }\n"),
            ],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("own_test_only"), "{f:?}");
    }

    #[test]
    fn shim_drift_counts_cross_crate_test_usage() {
        // proptest-style dev-dependency: only workspace *tests* use it — that
        // still counts as live surface.
        let f = lint(
            &[
                ("vendor/mini/src/lib.rs", "pub fn assert_close() {}\n"),
                (
                    "crates/x/src/a.rs",
                    "#[cfg(test)]\nmod tests {\n #[test]\n fn t() { mini::assert_close(); }\n}\n",
                ),
            ],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn shim_drift_skips_pub_crate_items() {
        let f = lint(
            &[("vendor/mini/src/lib.rs", "pub(crate) fn helper() {}\n")],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // ---- module-cycle

    #[test]
    fn module_cycle_fires_on_mutual_imports() {
        let f = lint(
            &[
                ("crates/x/src/a.rs", "use crate::b::Thing;\npub struct A;\n"),
                ("crates/x/src/b.rs", "use crate::a::A;\npub struct Thing;\n"),
            ],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "module-cycle");
        // Anchored at the alphabetically first member's import.
        assert_eq!((f[0].path.as_str(), f[0].line), ("crates/x/src/a.rs", 1));
        assert!(f[0].message.contains("`a`") && f[0].message.contains("`b`"));
    }

    #[test]
    fn module_cycle_sees_brace_group_imports_and_longer_rings() {
        // a → {b} via a grouped use, b → c, c → a: one three-module component.
        let f = lint(
            &[
                ("crates/x/src/a.rs", "use crate::{b::Thing, util};\n"),
                ("crates/x/src/b.rs", "use crate::c::C;\npub struct Thing;\n"),
                ("crates/x/src/c.rs", "use crate::a::A;\npub struct C;\n"),
                ("crates/x/src/util.rs", "pub fn u() {}\n"),
            ],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("`a`")
                && f[0].message.contains("`b`")
                && f[0].message.contains("`c`")
                && !f[0].message.contains("`util`"),
            "{f:?}"
        );
    }

    #[test]
    fn module_cycle_ignores_dags_roots_tests_and_cross_crate_names() {
        let f = lint(
            &[
                // Plain DAG: a → b.
                ("crates/x/src/a.rs", "use crate::b::Thing;\n"),
                ("crates/x/src/b.rs", "pub struct Thing;\n"),
                // The crate root imports everything — roots are not modules.
                (
                    "crates/x/src/lib.rs",
                    "pub mod a;\npub mod b;\nuse crate::a::*;\nuse crate::b::*;\n",
                ),
                // A test module's back-import is not an architectural edge.
                (
                    "crates/x/src/c.rs",
                    "#[cfg(test)]\nmod tests {\n use crate::a::*;\n #[test]\n fn t() {}\n}\n",
                ),
                // Same module names in another crate must not conflate graphs.
                ("crates/y/src/b.rs", "use crate::a::A;\n"),
                ("crates/y/src/a.rs", "pub struct A;\n"),
                // Bin targets are separate crate roots.
                (
                    "crates/x/src/bin/tool.rs",
                    "use crate::a::*;\nfn main() {}\n",
                ),
            ],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn module_cycle_respects_inline_allow() {
        let f = lint(
            &[
                (
                    "crates/x/src/a.rs",
                    "// lint:allow(module-cycle): fixture — intentional pair under migration\n\
                     use crate::b::Thing;\npub struct A;\n",
                ),
                ("crates/x/src/b.rs", "use crate::a::A;\npub struct Thing;\n"),
            ],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
