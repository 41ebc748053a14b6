//! Repo-level allowlist — the second (and last) suppression mechanism besides
//! inline `lint:allow` pragmas. Inline pragmas live next to the code they
//! excuse; this list is for `vendor/` surface we keep *deliberately* even
//! though nothing in the tree calls it today, where editing the vendored file
//! to add pragmas would create gratuitous drift against the upstream layout.
//!
//! Every entry names a rule, a path prefix, an optional item name (matched as
//! `` `name` `` inside the finding message), and a mandatory reason. An entry
//! without a reason does not compile — the field is not `Option`.

use crate::Finding;

pub struct AllowEntry {
    pub rule: &'static str,
    /// Repo-relative path prefix the entry covers.
    pub path_prefix: &'static str,
    /// When set, the finding message must contain `` `item` `` to be covered —
    /// this pins entries to specific pub items rather than whole files.
    pub item: Option<&'static str>,
    /// Why this surface is kept: mandatory, so every entry argues its place.
    pub reason: &'static str,
}

/// Deliberately retained vendor surface. Keep this list short: every entry is
/// API we ship and maintain without a caller, so each one needs to earn its
/// place. Populated entries are audited whenever a shim is touched.
pub const REPO_ALLOWLIST: &[AllowEntry] = &[AllowEntry {
    rule: "vendored-shim-drift",
    path_prefix: "vendor/rand/",
    item: Some("SmallRng"),
    reason: "API-parity alias with the real rand crate; the shim backs every \
             generator with StdRng, so callers naming SmallRng port unchanged",
}];

/// True when a repo-level entry covers the finding.
pub fn covers(f: &Finding) -> bool {
    REPO_ALLOWLIST.iter().any(|e| {
        e.rule == f.rule
            && f.path.starts_with(e.path_prefix)
            && e.item
                .is_none_or(|item| f.message.contains(&format!("`{item}`")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, message: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line: 1,
            col: 1,
            message: message.to_string(),
        }
    }

    #[test]
    fn empty_allowlist_covers_nothing() {
        assert!(!covers(&finding(
            "vendored-shim-drift",
            "vendor/rayon/src/lib.rs",
            "vendored pub fn `anything` has no call sites"
        )));
    }

    #[test]
    fn entry_matching_is_rule_path_and_item_scoped() {
        let entries = [AllowEntry {
            rule: "vendored-shim-drift",
            path_prefix: "vendor/mini/",
            item: Some("keep_me"),
            reason: "signature parity with the real crate",
        }];
        let matches = |f: &Finding| {
            entries.iter().any(|e| {
                e.rule == f.rule
                    && f.path.starts_with(e.path_prefix)
                    && e.item
                        .is_none_or(|item| f.message.contains(&format!("`{item}`")))
            })
        };
        assert!(matches(&finding(
            "vendored-shim-drift",
            "vendor/mini/src/lib.rs",
            "vendored pub fn `keep_me` has no call sites"
        )));
        // Wrong item, wrong path, wrong rule: all uncovered.
        assert!(!matches(&finding(
            "vendored-shim-drift",
            "vendor/mini/src/lib.rs",
            "vendored pub fn `other` has no call sites"
        )));
        assert!(!matches(&finding(
            "vendored-shim-drift",
            "vendor/rayon/src/lib.rs",
            "vendored pub fn `keep_me` has no call sites"
        )));
        assert!(!matches(&finding(
            "layering",
            "vendor/mini/src/lib.rs",
            "`keep_me`"
        )));
    }
}
