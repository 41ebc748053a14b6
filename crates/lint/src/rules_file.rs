//! Per-file rules. Each takes one [`LexedFile`] and appends spanned findings.
//! DESIGN.md §6 maps each rule to the PR or bug that motivated it.

use crate::lexer::{LexedFile, TokKind, Token};
use crate::{Finding, Pragma};

fn finding(rule: &'static str, file: &LexedFile, t: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: file.path.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// True when `path` starts with any of `prefixes` (repo-relative, `/`-separated;
/// a prefix may also name a file exactly).
fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path == *p || path.starts_with(p))
}

// ---------------------------------------------------------------- nan-unsafe-cmp

/// Files allowed to compare floats via `partial_cmp` + `unwrap`/`expect`: the
/// comparator module itself, which defines the nan-class total order everything
/// else is supposed to use (its `expect`s sit behind explicit `is_nan` guards).
const NAN_CMP_ALLOWED: &[&str] = &["crates/linalg/src/topk.rs"];

/// PR 3 and PR 7 fixed four separate crashes caused by `partial_cmp().unwrap()`
/// (or the silently-lying `unwrap_or(Ordering::Equal)`) on floats that can be
/// NaN. The convention is `usp_linalg::topk::nan_class_cmp[_f64]`: NaN ranks
/// strictly last, ±0.0 ties break by index. This rule flags `partial_cmp`
/// followed by an `unwrap*`/`expect*` call anywhere outside the comparator
/// module — test oracles included, because two of the four historical crashes
/// were in oracles.
pub fn nan_unsafe_cmp(file: &LexedFile, findings: &mut Vec<Finding>) {
    if in_any(&file.path, NAN_CMP_ALLOWED) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("partial_cmp") {
            continue;
        }
        // `fn partial_cmp(...)` — a PartialOrd impl forwarding to a total order.
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        // Look ahead for `unwrap`/`unwrap_or`/`expect` within the same expression.
        let end = toks.len().min(i + 14);
        for t in &toks[i + 1..end] {
            if t.is_punct(";") {
                break;
            }
            if t.kind == TokKind::Ident
                && (t.text.starts_with("unwrap") || t.text.starts_with("expect"))
            {
                findings.push(finding(
                    "nan-unsafe-cmp",
                    file,
                    &toks[i],
                    format!(
                        "`partial_cmp` + `{}` panics or silently misorders on NaN; use \
                         usp_linalg::topk::nan_class_cmp[_f64] (NaN ranks last) instead",
                        t.text
                    ),
                ));
                break;
            }
        }
    }
}

// ------------------------------------------------------- scoring-outside-kernel

/// Paths allowed to hand-roll distance/lookup accumulation: the tensor layer that
/// *defines* the kernels and their scalar oracles, quantizer internals (codebook
/// training needs raw residual arithmetic), and vendored shims.
const SCORING_ALLOWED: &[&str] = &["crates/linalg/", "crates/quant/", "vendor/"];

/// Paths allowed to score inside a `smallest_k_by` / `largest_k_by` closure: the layer
/// that defines the streaming scans, and vendored shims.
const SELECTION_SCAN_ALLOWED: &[&str] = &["crates/linalg/", "vendor/"];

/// The one home of explicit SIMD: `kernel.rs`, its backend submodules and the GEMM
/// kernels. The prefix has no trailing slash on purpose — it covers `kernel.rs`,
/// `kernel/*.rs` and `kernel_gemm.rs`.
const INTRINSICS_ALLOWED: &[&str] = &["crates/linalg/src/kernel", "vendor/"];

/// §2.2's contract: every online scoring path calls `usp-linalg::kernel`, so any
/// two paths comparing distances compare identical bits (multi-accumulator
/// summation changes rounding). A hand-rolled distance loop outside the kernel
/// layer compiles, passes unit tests, and then breaks the cross-engine
/// bit-identity suites. Heuristics: (a) squared-difference accumulation
/// (`acc += d * d`), (b) additive lookups into a `*table*`/`*lut*` array.
/// Test scopes are exempt — proptest oracles hand-roll distances on purpose.
///
/// (c) A `std::arch` / `core::arch` path outside `usp-linalg::kernel`, tests included:
/// the AVX2 kernels are bit-identical to the portable ones only because they are
/// proptested against them lane for lane, and that proptest lives with the kernel. An
/// intrinsic anywhere else is a second scoring implementation nobody compares.
///
/// (d) A `smallest_k_by` / `largest_k_by` call whose closure evaluates a distance
/// (`.eval(`) or an ADC code (`adc_eval(`), outside `usp-linalg` and test scopes — the
/// `usp-quant` allowance of (a)/(b) does not apply. That is a brute-force scan written
/// one pair a call: it skips the tile and the rejection bound of
/// `SegmentedScan`, and it is how the ground truth, IVF and vanilla ScaNN
/// each came to run on a slower loop than the index they were compared with.
pub fn scoring_outside_kernel(file: &LexedFile, findings: &mut Vec<Finding>) {
    if !in_any(&file.path, INTRINSICS_ALLOWED) {
        let toks = &file.tokens;
        for i in 0..toks.len().saturating_sub(2) {
            if (toks[i].is_ident("std") || toks[i].is_ident("core"))
                && toks[i + 1].is_punct("::")
                && toks[i + 2].is_ident("arch")
            {
                findings.push(finding(
                    "scoring-outside-kernel",
                    file,
                    &toks[i],
                    format!(
                        "`{}::arch` outside crates/linalg/src/kernel*: explicit SIMD lives \
                         in usp_linalg::kernel alone, where it is proptested bit for bit \
                         against the portable kernels (DESIGN §2.2)",
                        toks[i].text
                    ),
                ));
            }
        }
    }
    if file.is_test_file {
        return;
    }
    if !in_any(&file.path, SELECTION_SCAN_ALLOWED) {
        selection_scan(file, findings);
    }
    if in_any(&file.path, SCORING_ALLOWED) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_punct("+=") || toks[i].in_test {
            continue;
        }
        // Scan the right-hand side of the accumulation (up to `;`).
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct(";") {
            // (a) `acc += d * d` — a squared difference being summed.
            if toks[j].kind == TokKind::Ident
                && j + 2 < toks.len()
                && toks[j + 1].is_punct("*")
                && toks[j + 2].kind == TokKind::Ident
                && toks[j].text == toks[j + 2].text
            {
                findings.push(finding(
                    "scoring-outside-kernel",
                    file,
                    &toks[j],
                    format!(
                        "squared-difference accumulation (`+= {0} * {0}`) outside \
                         usp-linalg/usp-quant: online scoring must route through \
                         usp_linalg::kernel so all paths compare identical bits (DESIGN §2.2)",
                        toks[j].text
                    ),
                ));
                break;
            }
            // (b) `acc += table[...]` — a reimplemented ADC lookup sum.
            let lower = toks[j].text.to_ascii_lowercase();
            if toks[j].kind == TokKind::Ident
                && (lower.contains("table") || lower.contains("lut"))
                && j + 1 < toks.len()
                && toks[j + 1].is_punct("[")
            {
                findings.push(finding(
                    "scoring-outside-kernel",
                    file,
                    &toks[j],
                    format!(
                        "additive `{}[...]` lookup outside usp-linalg/usp-quant: ADC \
                         scoring must route through usp_linalg::kernel (AdcTable/SegmentedScan/\
                         adc_eval), which fixes the summation order (DESIGN §2.3)",
                        toks[j].text
                    ),
                ));
                break;
            }
            j += 1;
        }
    }
}

/// Heuristic (d) of [`scoring_outside_kernel`]: scoring calls inside the closure of a
/// materialised top-k selection.
fn selection_scan(file: &LexedFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        let by = toks[i].is_ident("smallest_k_by") || toks[i].is_ident("largest_k_by");
        if !by || toks[i].in_test || !toks[i + 1].is_punct("(") {
            continue;
        }
        // Walk the call's argument list; the closure starts at the first `|`.
        let (mut parens, mut in_closure) = (0usize, false);
        for j in i + 1..toks.len() {
            if toks[j].is_punct("(") {
                parens += 1;
            } else if toks[j].is_punct(")") {
                parens -= 1;
                if parens == 0 {
                    break;
                }
            } else if toks[j].is_punct("|") || toks[j].is_punct("||") {
                in_closure = true;
            }
            let scores = toks[j].is_ident("adc_eval")
                || (toks[j].is_ident("eval") && toks[j - 1].is_punct("."));
            if in_closure && scores && toks.get(j + 1).is_some_and(|t| t.is_punct("(")) {
                findings.push(finding(
                    "scoring-outside-kernel",
                    file,
                    &toks[i],
                    format!(
                        "`{}` over a closure that calls `{}`: a brute-force scan one pair a \
                         call skips the tile and the rejection bound; stream the rows \
                         through usp_linalg::kernel::SegmentedScan — directly, \
                         or via PartitionIndex (DESIGN §2.2)",
                        toks[i].text, toks[j].text
                    ),
                ));
                break;
            }
        }
    }
}

// --------------------------------------------------------------- raw-thread-spawn

/// Places allowed to create OS threads: the pool shim (its whole point), the
/// `MicroBatcher` flusher (one deliberately long-lived bridge thread), and the
/// ingress event loop (one long-lived epoll thread per listener).
const SPAWN_ALLOWED: &[&str] = &[
    "vendor/rayon/",
    "crates/serve/src/batcher.rs",
    "crates/serve/src/ingress.rs",
];

/// Everything parallel routes through the persistent pool (DESIGN §2.1): block
/// boundaries never depend on thread count, panics propagate, and serving pays
/// zero spawns after warm-up. A raw `std::thread::spawn`/`scope`/`Builder`
/// anywhere else silently forks the execution model — results may stay correct
/// while losing the bit-identity and panic-safety guarantees the suites pin.
pub fn raw_thread_spawn(file: &LexedFile, findings: &mut Vec<Finding>) {
    if in_any(&file.path, SPAWN_ALLOWED) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].is_ident("thread")
            && toks[i + 1].is_punct("::")
            && (toks[i + 2].is_ident("spawn")
                || toks[i + 2].is_ident("scope")
                || toks[i + 2].is_ident("Builder"))
        {
            findings.push(finding(
                "raw-thread-spawn",
                file,
                &toks[i],
                format!(
                    "raw `thread::{}` outside vendor/rayon and the MicroBatcher flusher: \
                     parallel work must go through the persistent pool (DESIGN §2.1); \
                     deliberate concurrency tests need `// lint:allow(raw-thread-spawn): why`",
                    toks[i + 2].text
                ),
            ));
        }
    }
}

// --------------------------------------------- undocumented-atomic-ordering

const ATOMIC_VARIANTS: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst", "Relaxed"];

/// Collects the comment text adjacent to `line`: trailing comments on the line
/// itself plus the contiguous comment block immediately above it (walking up
/// through comment-only, attribute-only and `unsafe impl` lines).
fn adjacent_comment_text(file: &LexedFile, line: u32) -> String {
    let mut text = String::new();
    for c in file.comments_on_line(line) {
        text.push_str(&c.text);
        text.push('\n');
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let mut any = false;
        for c in file.comments_on_line(l) {
            text.push_str(&c.text);
            text.push('\n');
            any = true;
        }
        if any {
            continue;
        }
        // Walk past attribute lines and `unsafe impl` lines (so one SAFETY comment
        // can cover an `unsafe impl Send`/`unsafe impl Sync` pair).
        let line_toks: Vec<&Token> = file.tokens.iter().filter(|t| t.line == l).collect();
        if line_toks.is_empty() {
            break; // blank line: adjacency ends
        }
        let is_attr = line_toks[0].is_punct("#");
        let is_unsafe_impl =
            line_toks[0].is_ident("unsafe") && line_toks.get(1).is_some_and(|t| t.is_ident("impl"));
        if !(is_attr || is_unsafe_impl) {
            break;
        }
    }
    text
}

/// The mutation layer's dirty flag (DESIGN §2.4) and the pool's completion
/// protocol (§2.1) are correct *because of* their memory orderings — an ordering
/// silently weakened in review reintroduces the exact data race the protocol
/// exists to prevent. Every `Ordering::{Acquire,Release,AcqRel,SeqCst,Relaxed}`
/// site therefore carries an adjacent `// ordering:` justification, and
/// `Relaxed` — the only variant that can *never* synchronize — additionally
/// needs an explicit `lint:allow`.
///
/// This rule self-manages its pragma interaction (a `lint:allow` alone must not
/// silence a missing-comment finding on `Relaxed`), so `lint_workspace` skips
/// generic pragma suppression for it.
pub fn undocumented_atomic_ordering(
    file: &LexedFile,
    pragmas: &[Pragma],
    findings: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        if !(toks[i].is_ident("Ordering") && toks[i + 1].is_punct("::")) {
            continue;
        }
        let variant = &toks[i + 2];
        if variant.kind != TokKind::Ident || !ATOMIC_VARIANTS.contains(&variant.text.as_str()) {
            continue;
        }
        // A `TODO(usp-lint)` placeholder is not a justification — it keeps the
        // site red until it is replaced with the actual invariant.
        let text = adjacent_comment_text(file, toks[i].line);
        let has_comment = text.contains("ordering:") && !text.contains("TODO(usp-lint)");
        let allowed = pragmas.iter().any(|p| {
            p.rule == "undocumented-atomic-ordering"
                && p.scope.0 <= toks[i].line
                && toks[i].line <= p.scope.1
        });
        if !has_comment {
            findings.push(finding(
                "undocumented-atomic-ordering",
                file,
                &toks[i],
                format!(
                    "`Ordering::{}` without an adjacent `// ordering:` justification — \
                     state which happens-before edge (or deliberate absence of one) the \
                     choice relies on",
                    variant.text
                ),
            ));
        } else if variant.text == "Relaxed" && !allowed {
            findings.push(finding(
                "undocumented-atomic-ordering",
                file,
                &toks[i],
                "`Ordering::Relaxed` never synchronizes: besides the `// ordering:` \
                 comment it requires an explicit `// lint:allow(undocumented-atomic-\
                 ordering): reason`"
                    .to_string(),
            ));
        }
    }
}

// ------------------------------------------------ unsafe-needs-safety-comment

/// Every `unsafe` block, fn or impl states its invariant where it stands: a
/// `// SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`) adjacent
/// to the keyword. The pool shim's lifetime-erased region closure is exactly the
/// kind of code where an unargued `unsafe` becomes a use-after-free two
/// refactors later.
pub fn unsafe_needs_safety_comment(file: &LexedFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("unsafe") {
            continue;
        }
        let text = adjacent_comment_text(file, toks[i].line);
        // `TODO(usp-lint)` placeholders keep the site red — see the ordering rule.
        if (text.contains("SAFETY:") || text.contains("# Safety"))
            && !text.contains("TODO(usp-lint)")
        {
            continue;
        }
        let what = toks
            .get(i + 1)
            .map(|t| t.text.as_str())
            .unwrap_or("block")
            .to_string();
        findings.push(finding(
            "unsafe-needs-safety-comment",
            file,
            &toks[i],
            format!(
                "`unsafe {what}` without an adjacent `// SAFETY:` comment (or `# Safety` \
                 doc section) stating the invariant that makes it sound"
            ),
        ));
    }
}

// ---------------------------------------------------------------- lock-poisoning

/// Sync-primitive acquisition methods whose `Err` is the poison flag. The empty
/// argument list in the match below separates these from `io::Read::read(&mut
/// buf)` / `io::Write::write(&buf)`, which always take an argument.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// PR 9's remotely-reachable-panic sweep: one request thread panicking while
/// holding a stats mutex poisoned it, and every later `.lock().unwrap()` turned
/// a single bad request into a whole-process cascade. The convention (DESIGN §6)
/// is a deliberate choice per lock:
///
/// * invariant-free state (counters, pending queues) recovers with
///   `unwrap_or_else(PoisonError::into_inner)` — the data is valid no matter
///   where the holder died;
/// * protocol-carrying locks stay loud with `expect("... poisoned ...")` — the
///   message must say "poison" so the panic reads as the deliberate verdict it
///   is, not a shrug.
///
/// This rule flags `.lock()`/`.read()`/`.write()` (empty parens — sync
/// primitives, not `io::Read`/`io::Write`) followed by bare `.unwrap()`, or by
/// `.expect(...)` whose message never mentions poisoning. Test scopes are
/// exempt: a test panicking on a poisoned lock is a fine way to fail.
pub fn lock_poisoning(file: &LexedFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 1..toks.len().saturating_sub(4) {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident || !LOCK_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if !(toks[i - 1].is_punct(".")
            && toks[i + 1].is_punct("(")
            && toks[i + 2].is_punct(")")
            && toks[i + 3].is_punct("."))
        {
            continue;
        }
        let next = &toks[i + 4];
        if next.is_ident("unwrap") {
            findings.push(finding(
                "lock-poisoning",
                file,
                t,
                format!(
                    "`.{}().unwrap()` cascades one poisoned lock into every later \
                     caller: recover invariant-free state with \
                     `unwrap_or_else(PoisonError::into_inner)`, or make the panic a \
                     verdict with `expect(\"... poisoned ...\")` (DESIGN §6)",
                    t.text
                ),
            ));
        } else if next.is_ident("expect") {
            // The message is the first string literal after the `expect` token;
            // `expect` takes exactly one argument, so no other literal can
            // intervene.
            let msg = file
                .strings
                .iter()
                .find(|s| (s.line, s.col) > (next.line, next.col));
            let justified = msg.is_some_and(|s| s.text.to_ascii_lowercase().contains("poison"));
            if !justified {
                findings.push(finding(
                    "lock-poisoning",
                    file,
                    t,
                    format!(
                        "`.{}().expect(..)` without \"poison\" in the message: if \
                         panicking on a poisoned lock is the deliberate verdict, say so \
                         (`expect(\"... poisoned ...\")`); otherwise recover with \
                         `unwrap_or_else(PoisonError::into_inner)` (DESIGN §6)",
                        t.text
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_workspace, Finding, Workspace};

    /// Lints `src` as a single non-test workspace file at `path`.
    fn lint_at(path: &str, src: &str) -> Vec<Finding> {
        lint_workspace(&Workspace::from_sources(&[(path, src)], &[]))
    }

    fn lint_one(src: &str) -> Vec<Finding> {
        lint_at("crates/x/src/a.rs", src)
    }

    // ---- nan-unsafe-cmp

    #[test]
    fn nan_cmp_fires_on_unwrap_and_unwrap_or() {
        let f = lint_one("fn f(v: &mut Vec<f32>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nan-unsafe-cmp");
        let f = lint_one(
            "fn f() { w.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn nan_cmp_conforming_sites_do_not_fire() {
        // The convention itself, a PartialOrd forwarder, and prose in comments.
        let f = lint_one(
            "fn f(v: &mut Vec<f32>) { v.sort_by(|a, b| nan_class_cmp(*a, *b)); }\n\
             // partial_cmp().unwrap() is banned, says this comment\n\
             impl PartialOrd for X { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) } }",
        );
        assert!(f.is_empty(), "{f:?}");
        // topk.rs owns the guarded expects.
        let f = lint_at(
            "crates/linalg/src/topk.rs",
            "fn g(a: f32, b: f32) -> Ordering { a.partial_cmp(&b).expect(\"no NaN\") }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn nan_cmp_allow_pragma_suppresses() {
        let f = lint_one(
            "// lint:allow(nan-unsafe-cmp): inputs proven finite by construction here\n\
             fn f(v: &mut Vec<f32>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // ---- scoring-outside-kernel

    #[test]
    fn scoring_fires_on_squared_diff_accumulation() {
        let f = lint_one(
            "fn d(a: &[f32], b: &[f32]) -> f32 { let mut s = 0.0; for i in 0..a.len() { let d = a[i] - b[i]; s += d * d; } s }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "scoring-outside-kernel");
    }

    #[test]
    fn scoring_fires_on_table_lookup_accumulation() {
        let f = lint_one(
            "fn adc(table: &[f32], code: &[u8]) -> f32 { let mut s = 0.0; for (i, &c) in code.iter().enumerate() { s += table[i * 256 + c as usize]; } s }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "scoring-outside-kernel");
    }

    #[test]
    fn scoring_conforming_and_exempt_sites_do_not_fire() {
        // Kernel calls, plain sums, and cross-ident products are fine.
        let f = lint_one(
            "fn f(xs: &[f32], w: &[f32]) -> f32 { let mut s = 0.0; for i in 0..xs.len() { s += xs[i] * w[i]; } kernel::eval(DIST, xs, w) + s }",
        );
        assert!(f.is_empty(), "{f:?}");
        // The kernel layer itself is allowed.
        let f = lint_at(
            "crates/linalg/src/kernel.rs",
            "fn d(a: &[f32]) -> f32 { let mut s = 0.0; for &x in a { let d = x; s += d * d; } s }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Test oracles hand-roll distances on purpose.
        let f = lint_one(
            "#[cfg(test)]\nmod tests {\n fn oracle(a: &[f32]) -> f32 { let mut s = 0.0; for &x in a { let d = x; s += d * d; } s }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scoring_fires_on_arch_paths_outside_the_kernel_module() {
        for src in [
            "use std::arch::x86_64::*;",
            "fn f() -> bool { core::arch::is_x86_feature_detected!(\"avx2\") }",
            // Test scopes are not exempt: an intrinsic oracle is still a second kernel.
            "#[cfg(test)]\nmod tests {\n use std::arch::x86_64::_mm256_add_ps;\n}",
        ] {
            let f = lint_one(src);
            assert_eq!(f.len(), 1, "{src}: {f:?}");
            assert_eq!(f[0].rule, "scoring-outside-kernel");
        }
        // Elsewhere in usp-linalg is still outside the kernel module.
        let f = lint_at("crates/linalg/src/matrix.rs", "use std::arch::x86_64::*;");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn scoring_allows_arch_paths_inside_the_kernel_module() {
        for path in [
            "crates/linalg/src/kernel.rs",
            "crates/linalg/src/kernel/avx2.rs",
            "crates/linalg/src/kernel_gemm.rs",
            "vendor/rayon/src/lib.rs",
        ] {
            let f = lint_at(path, "use std::arch::x86_64::*;");
            assert!(f.is_empty(), "{path}: {f:?}");
        }
        // `arch` as an ordinary name is not the module.
        let f = lint_one("fn f(arch: &str) -> usize { std::mem::size_of_val(arch) }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scoring_fires_on_a_selection_closure_that_scores() {
        // The shapes the ground truth, IVF and vanilla ScaNN were written in; the
        // usp-quant allowance of (a)/(b) does not cover them.
        for (path, src) in [
            (
                "crates/data/src/ground_truth.rs",
                "fn knn(n: usize, k: usize) -> Vec<usize> { topk::smallest_k_by(n, k, |i| distance.eval(q, base.row(i))) }",
            ),
            (
                "crates/quant/src/scann.rs",
                "fn shortlist(n: usize, r: usize) -> Vec<usize> { smallest_k_by(n, r, |i| { kernel::adc_eval(&table, code_of(ids[i])) }) }",
            ),
            (
                "crates/x/src/a.rs",
                "fn far(n: usize, k: usize) -> Vec<usize> { largest_k_by(n, k, |i| scorer.eval(rows.row(i))) }",
            ),
        ] {
            let f = lint_at(path, src);
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "scoring-outside-kernel");
        }
    }

    #[test]
    fn scoring_allows_selection_over_precomputed_scores() {
        // `stream.rs`'s shape: the scores were produced by the scan; this only ranks.
        let f = lint_at(
            "crates/index/src/stream.rs",
            "fn ids(&self, hits: &[Hit]) -> Vec<usize> { topk::smallest_k_by(hits.len(), self.k, |i| hits[i].score) }",
        );
        assert!(f.is_empty(), "{f:?}");
        // An `eval` among the plain arguments, or a kernel-layer oracle, is not a scan.
        let f = lint_one(
            "fn f(n: usize) -> Vec<usize> { smallest_k_by(n, budget.eval(n), |i| cached[i]) }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = lint_at(
            "crates/linalg/src/kernel.rs",
            "fn oracle(n: usize) -> Vec<usize> { topk::smallest_k_by(n, 7, |i| d.eval(q, row(i))) }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = lint_one(
            "#[cfg(test)]\nmod tests {\n fn oracle(n: usize) -> Vec<usize> { smallest_k_by(n, 3, |i| adc_eval(&t, code(i))) }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scoring_allow_pragma_suppresses() {
        let f = lint_one(
            "fn mse(p: &[f32], t: &[f32]) -> f32 {\n let mut loss = 0.0;\n for i in 0..p.len() {\n let diff = p[i] - t[i];\n // lint:allow(scoring-outside-kernel): training loss, not a scoring path\n loss += diff * diff;\n }\n loss\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // ---- raw-thread-spawn

    #[test]
    fn spawn_fires_on_spawn_scope_and_builder() {
        for call in ["spawn(f)", "scope(|s| {})", "Builder::new()"] {
            let f = lint_one(&format!("fn f() {{ std::thread::{call}; }}"));
            assert_eq!(f.len(), 1, "{call}: {f:?}");
            assert_eq!(f[0].rule, "raw-thread-spawn");
        }
    }

    #[test]
    fn spawn_conforming_sites_do_not_fire() {
        // Pool usage, sleep/current, and the two allowed homes.
        let f = lint_one(
            "fn f() { rayon::join(a, b); std::thread::sleep(d); std::thread::current(); }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = lint_at(
            "crates/serve/src/batcher.rs",
            "fn f() { std::thread::Builder::new().spawn(loop_fn); }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = lint_at(
            "vendor/rayon/src/lib.rs",
            "fn f() { std::thread::spawn(w); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn spawn_allow_pragma_suppresses() {
        let f = lint_one(
            "fn f() {\n // lint:allow(raw-thread-spawn): shutdown-race harness needs real threads\n std::thread::spawn(|| {});\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // ---- undocumented-atomic-ordering

    #[test]
    fn ordering_fires_without_comment() {
        let f = lint_one("fn f(a: &AtomicBool) { a.load(Ordering::Acquire); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "undocumented-atomic-ordering");
    }

    #[test]
    fn ordering_comment_satisfies_non_relaxed() {
        let f = lint_one(
            "fn f(a: &AtomicBool) {\n // ordering: Acquire pairs with the Release store in insert()\n a.load(Ordering::Acquire);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
        // Trailing comment works too, and cmp::Ordering variants never fire.
        let f = lint_one(
            "fn f(a: &AtomicUsize) { a.load(Ordering::SeqCst); // ordering: protocol proof needs total order\n let _ = Ordering::Equal; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_needs_comment_and_allow() {
        // Comment alone is not enough for Relaxed...
        let f = lint_one(
            "fn f(c: &AtomicUsize) {\n // ordering: a counter nothing synchronizes on\n c.fetch_add(1, Ordering::Relaxed);\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lint:allow"));
        // ...an allow alone is not enough either...
        let f = lint_one(
            "// lint:allow(undocumented-atomic-ordering): stats counter\nfn f(c: &AtomicUsize) {\n c.fetch_add(1, Ordering::Relaxed);\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ordering:"));
        // ...both together pass.
        let f = lint_one(
            "// lint:allow(undocumented-atomic-ordering): stats counter, reads tolerate staleness\nfn f(c: &AtomicUsize) {\n // ordering: pure counter; no data is published under it\n c.fetch_add(1, Ordering::Relaxed);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fix_todo_stubs_do_not_satisfy_comment_rules() {
        // A placeholder is not a justification: the site stays red until the
        // TODO is replaced with a real one.
        let f = lint_one(
            "fn f(a: &AtomicBool) {\n // ordering: TODO(usp-lint): justify this memory ordering choice.\n a.load(Ordering::Acquire);\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "undocumented-atomic-ordering");
        let f = lint_one(
            "fn f(p: *const u8) -> u8 {\n // SAFETY: TODO(usp-lint): document the invariant that makes this sound.\n unsafe { *p }\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-needs-safety-comment");
    }

    // ---- unsafe-needs-safety-comment

    #[test]
    fn unsafe_fires_without_safety_comment() {
        let f = lint_one("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-needs-safety-comment");
    }

    #[test]
    fn safety_comment_and_doc_section_satisfy() {
        let f = lint_one(
            "fn f(p: *const u8) -> u8 {\n // SAFETY: caller guarantees p is valid for reads\n unsafe { *p }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = lint_one(
            "/// Does things.\n///\n/// # Safety\n///\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) -> u8 { *p }",
        );
        assert!(f.is_empty(), "{f:?}");
        // One SAFETY comment covers an unsafe impl Send/Sync pair.
        let f = lint_one(
            "// SAFETY: the raw pointer is only dereferenced under the region protocol\nunsafe impl Send for Region {}\nunsafe impl Sync for Region {}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_allow_pragma_suppresses() {
        let f = lint_one(
            "// lint:allow(unsafe-needs-safety-comment): fixture exercising the pragma path\nfn f(p: *const u8) -> u8 { unsafe { *p } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // ---- lock-poisoning

    #[test]
    fn lock_poisoning_fires_on_bare_unwrap() {
        for method in ["lock", "read", "write"] {
            let f = lint_one(&format!("fn f(m: &M) {{ m.{method}().unwrap(); }}"));
            assert_eq!(f.len(), 1, "{method}: {f:?}");
            assert_eq!(f[0].rule, "lock-poisoning");
        }
    }

    #[test]
    fn lock_poisoning_fires_on_expect_without_poison_in_message() {
        let f = lint_one("fn f(m: &Mutex<u64>) { m.lock().expect(\"boom\"); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-poisoning");
    }

    #[test]
    fn lock_poisoning_conforming_sites_do_not_fire() {
        // The two sanctioned forms: recovery and a poison-naming verdict.
        let f = lint_one(
            "fn f(m: &Mutex<u64>) { m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = lint_one("fn f(m: &Mutex<u64>) { m.lock().expect(\"mutation lock poisoned\"); }");
        assert!(f.is_empty(), "{f:?}");
        // io::Read/Write take a buffer argument — non-empty parens never match.
        let f = lint_one(
            "fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read(buf).unwrap(); s.write(buf).unwrap(); }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Test scopes may panic however they like.
        let f =
            lint_one("#[cfg(test)]\nmod tests {\n fn t(m: &Mutex<u64>) { m.lock().unwrap(); }\n}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_poisoning_allow_pragma_suppresses() {
        let f = lint_one(
            "fn f(m: &M) {\n // lint:allow(lock-poisoning): fixture exercising the pragma path\n m.lock().unwrap();\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
