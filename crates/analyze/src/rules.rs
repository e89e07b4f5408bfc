//! Banned-pattern rules over the token stream of one source file.
//!
//! Each rule matches a shallow token pattern and yields [`Finding`]s with
//! `file:line` positions. Rules are heuristics by design — the semantic
//! versions live in the clippy lint wall (`[workspace.lints.clippy]`) and
//! in the plan linter; this pass exists so the policy is enforced by the
//! repo's own tooling with a pinned, reviewable allowlist
//! (`analyze-allow.txt`).

use crate::lexer::{test_code_mask, tokenize, Token, TokenKind};

/// Identifier of a rule, as used in diagnostics and the allowlist file.
pub type RuleId = &'static str;

/// Panicking float comparisons: `partial_cmp(..).unwrap()` / `.expect(..)`.
pub const RULE_PARTIAL_CMP_UNWRAP: RuleId = "partial-cmp-unwrap";
/// Panic sites in library code: `.unwrap()`, `.expect(..)`, `panic!`,
/// `unreachable!`, `todo!`, `unimplemented!`.
pub const RULE_PANIC_SITE: RuleId = "panic-site";
/// Bare `==` / `!=` against a float literal.
pub const RULE_FLOAT_EQ: RuleId = "float-eq";
/// Narrowing `as` casts between numeric types.
pub const RULE_NUMERIC_CAST: RuleId = "numeric-cast";
/// Allocation-prone constructs in the scheduler hot path
/// (`plan.rs` / `best_host.rs`), the per-event fault machinery
/// (`faults.rs` / `recovery.rs`), the observability emission layer
/// (`observe`'s `event.rs` / `sink.rs`, which sit inside those loops), and
/// the Chrome exporter (`observe`'s `chrome.rs`, run per recovering job).
pub const RULE_HOT_PATH_ALLOC: RuleId = "hot-path-alloc";

/// All rules, in reporting order.
pub const ALL_RULES: &[RuleId] = &[
    RULE_PARTIAL_CMP_UNWRAP,
    RULE_PANIC_SITE,
    RULE_FLOAT_EQ,
    RULE_NUMERIC_CAST,
    RULE_HOT_PATH_ALLOC,
];

/// One banned-pattern occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, as given to [`scan_source`].
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// The violated rule.
    pub rule: RuleId,
    /// Short description of the matched pattern.
    pub what: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.what)
    }
}

/// Cast targets considered narrowing. `usize` and `f64` are the workspace's
/// canonical index/value types and every in-repo cast *to* them widens, so
/// they are exempt; everything else can silently truncate or lose
/// precision and must be justified in the allowlist.
const NARROWING_CASTS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
];

/// Macros whose invocation is a panic site.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Allocating constructs banned from the hot-path files: `recv.method(` …
const ALLOC_METHODS: &[&str] = &["collect", "clone", "to_vec", "to_string", "to_owned"];
/// … `Type::new` constructors …
const ALLOC_CTORS: &[&str] = &["Vec", "String", "Box"];
/// … and allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// True if `file` is one of the allocation-audited hot-path files: the
/// planner sweep (`plan.rs` / `best_host.rs`, allocation-free — see
/// `crates/scheduler/tests/alloc_free.rs`), the simulator's event kernel
/// (`engine.rs`: buffers sized at construction, an allocation-free event
/// loop — see `tests/engine_alloc.rs`), the fault layer
/// (`faults.rs` runs per simulator event; `recovery.rs` re-plans per
/// epoch — their allocations are pinned, not banned), the
/// observability core (`observe`'s `event.rs` / `sink.rs` are on every
/// emission site inside those loops and must stay allocation-free so the
/// `NoopSink` path compiles away), and the Chrome exporter (`chrome.rs`
/// sizes its buffers once per trace, never per span — see
/// `tests/chrome_alloc.rs`).
pub fn is_hot_path_file(file: &str) -> bool {
    file.ends_with("plan.rs")
        || file.ends_with("best_host.rs")
        || file.ends_with("simulator/src/engine.rs")
        || file.ends_with("faults.rs")
        || file.ends_with("recovery.rs")
        || file.ends_with("observe/src/event.rs")
        || file.ends_with("observe/src/sink.rs")
        || file.ends_with("observe/src/chrome.rs")
}

/// Scan one file's source text; `file` is used verbatim in findings.
pub fn scan_source(file: &str, src: &str) -> Vec<Finding> {
    let tokens = tokenize(src);
    let mask = test_code_mask(&tokens);
    let mut claimed = vec![false; tokens.len()];
    let mut findings = Vec::new();

    partial_cmp_unwrap(file, &tokens, &mask, &mut claimed, &mut findings);
    panic_sites(file, &tokens, &mask, &claimed, &mut findings);
    float_eq(file, &tokens, &mask, &mut findings);
    numeric_casts(file, &tokens, &mask, &mut findings);
    if is_hot_path_file(file) {
        hot_path_allocs(file, &tokens, &mask, &mut findings);
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    findings
}

/// Index of the token matching the `(` at `open`, or `None` if unbalanced.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_op("(") {
            depth += 1;
        } else if t.is_op(")") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `partial_cmp(..).unwrap()` / `.expect(..)`: claims the trailing
/// `.unwrap` tokens so the panic-site rule does not double-report.
fn partial_cmp_unwrap(
    file: &str,
    tokens: &[Token],
    mask: &[bool],
    claimed: &mut [bool],
    out: &mut Vec<Finding>,
) {
    for i in 0..tokens.len() {
        if mask[i] || !tokens[i].is_ident("partial_cmp") {
            continue;
        }
        let Some(open) = tokens.get(i + 1).filter(|t| t.is_op("(")).map(|_| i + 1) else {
            continue;
        };
        let Some(close) = matching_paren(tokens, open) else { continue };
        let (dot, method) = (close + 1, close + 2);
        if tokens.get(dot).is_some_and(|t| t.is_op("."))
            && tokens
                .get(method)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            claimed[dot] = true;
            claimed[method] = true;
            out.push(Finding {
                file: file.to_string(),
                line: tokens[i].line,
                rule: RULE_PARTIAL_CMP_UNWRAP,
                what: format!(
                    "partial_cmp(..).{}() — use f64::total_cmp or OrdF64",
                    tokens[method].text
                ),
            });
        }
    }
}

/// `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` outside test code.
fn panic_sites(
    file: &str,
    tokens: &[Token],
    mask: &[bool],
    claimed: &[bool],
    out: &mut Vec<Finding>,
) {
    for i in 0..tokens.len() {
        if mask[i] || claimed[i] {
            continue;
        }
        let t = &tokens[i];
        let method_call = t.kind == TokenKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && tokens[i - 1].is_op(".")
            && !claimed[i - 1]
            && tokens.get(i + 1).is_some_and(|n| n.is_op("("));
        let macro_call = t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_op("!"));
        if method_call || macro_call {
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: RULE_PANIC_SITE,
                what: format!(
                    "{}{} in library code — return a typed error or justify in the allowlist",
                    t.text,
                    if macro_call { "!" } else { "()" }
                ),
            });
        }
    }
}

/// `==` / `!=` with a float literal on either side. The semantic variant
/// (comparing two float *expressions*) is covered by `clippy::float_cmp`,
/// which the workspace denies; this token-level rule catches the literal
/// form even where clippy is off.
fn float_eq(file: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if mask[i] || !(tokens[i].is_op("==") || tokens[i].is_op("!=")) {
            continue;
        }
        let prev_float = i > 0 && tokens[i - 1].kind == TokenKind::Float;
        let next_float = tokens.get(i + 1).map(|t| t.kind) == Some(TokenKind::Float);
        if prev_float || next_float {
            out.push(Finding {
                file: file.to_string(),
                line: tokens[i].line,
                rule: RULE_FLOAT_EQ,
                what: format!(
                    "bare `{}` against a float literal — compare with a tolerance or total_cmp",
                    tokens[i].text
                ),
            });
        }
    }
}

/// `expr as T` where `T` is a narrowing numeric type.
fn numeric_casts(file: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if mask[i] || !tokens[i].is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1) else { continue };
        if target.kind == TokenKind::Ident && NARROWING_CASTS.contains(&target.text.as_str()) {
            out.push(Finding {
                file: file.to_string(),
                line: tokens[i].line,
                rule: RULE_NUMERIC_CAST,
                what: format!(
                    "`as {}` can truncate — use TryFrom or justify in the allowlist",
                    target.text
                ),
            });
        }
    }
}

/// Allocation-prone constructs inside the hot-path files.
fn hot_path_allocs(file: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    let mut push = |line: usize, what: String| {
        out.push(Finding { file: file.to_string(), line, rule: RULE_HOT_PATH_ALLOC, what });
    };
    for i in 0..tokens.len() {
        if mask[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let t = &tokens[i];
        // `Vec::new(` / `String::new(` / `Box::new(` / `Vec::with_capacity(`.
        if ALLOC_CTORS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_op("::"))
            && tokens.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
        {
            push(t.line, format!("{}::{} allocates in the hot path", t.text, tokens[i + 2].text));
            continue;
        }
        // `vec![` / `format!(`.
        if ALLOC_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_op("!"))
        {
            push(t.line, format!("{}! allocates in the hot path", t.text));
            continue;
        }
        // `.collect(` / `.clone(` / `.to_vec(` / `.to_string(` / `.to_owned(`.
        if ALLOC_METHODS.contains(&t.text.as_str())
            && i > 0
            && tokens[i - 1].is_op(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_op("("))
        {
            push(t.line, format!(".{}() allocates in the hot path", t.text));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(file: &str, src: &str) -> Vec<RuleId> {
        scan_source(file, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn partial_cmp_unwrap_detected_once() {
        let src = "fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }";
        let rules = rules_of("x.rs", src);
        // Claimed by the dedicated rule — not double-reported as panic-site.
        assert_eq!(rules, vec![RULE_PARTIAL_CMP_UNWRAP]);
    }

    #[test]
    fn partial_cmp_with_nested_parens_and_expect() {
        let src = "fn f() { x.partial_cmp(&g(h(1), 2)).expect(\"cmp\"); }";
        assert_eq!(rules_of("x.rs", src), vec![RULE_PARTIAL_CMP_UNWRAP]);
    }

    #[test]
    fn panic_sites_detected() {
        let src = "fn f() { a.unwrap(); b.expect(\"msg\"); panic!(\"boom\"); unreachable!(); }";
        assert_eq!(rules_of("x.rs", src), vec![RULE_PANIC_SITE; 4]);
    }

    #[test]
    fn asserts_and_unwrap_or_are_fine() {
        let src = "fn f() { assert!(x); debug_assert!(y); a.unwrap_or(0); b.unwrap_or_else(f); }";
        assert!(rules_of("x.rs", src).is_empty());
    }

    #[test]
    fn float_eq_on_literals_only() {
        let src = "fn f(x: f64, n: i32) -> bool { x == 0.0 || 1.5 != x || n == 3 }";
        assert_eq!(rules_of("x.rs", src), vec![RULE_FLOAT_EQ, RULE_FLOAT_EQ]);
    }

    #[test]
    fn narrowing_casts_flagged_widening_exempt() {
        let src = "fn f(x: usize, y: f64) { let _ = x as u32; let _ = y as f32; let _ = x as f64; let _ = y as usize; }";
        assert_eq!(rules_of("x.rs", src), vec![RULE_NUMERIC_CAST, RULE_NUMERIC_CAST]);
    }

    #[test]
    fn hot_path_allocs_only_in_hot_files() {
        let src = "fn f() { let v = Vec::new(); let w = vec![0; 3]; let s = x.clone(); }";
        assert!(rules_of("other.rs", src).is_empty());
        let rules = rules_of("crates/scheduler/src/plan.rs", src);
        assert_eq!(rules, vec![RULE_HOT_PATH_ALLOC; 3]);
        // The event kernel, the fault layer and the observability core are
        // audited too.
        for hot in [
            "crates/simulator/src/engine.rs",
            "crates/simulator/src/faults.rs",
            "crates/scheduler/src/recovery.rs",
            "crates/observe/src/event.rs",
            "crates/observe/src/sink.rs",
            "crates/observe/src/chrome.rs",
        ] {
            assert_eq!(rules_of(hot, src), vec![RULE_HOT_PATH_ALLOC; 3], "{hot}");
        }
        // Only observe's own event.rs/sink.rs/chrome.rs are hot — a stray
        // `event.rs` or `chrome.rs` elsewhere is not pulled in.
        assert!(rules_of("crates/other/src/event.rs", src).is_empty());
        assert!(rules_of("crates/other/src/chrome.rs", src).is_empty());
        assert!(rules_of("crates/other/src/engine.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); panic!(); let _ = 1.0 == y; }\n}";
        assert!(rules_of("x.rs", src).is_empty());
    }

    #[test]
    fn findings_carry_file_and_line() {
        let src = "fn a() {}\nfn b() { x.unwrap(); }";
        let fs = scan_source("crates/foo/src/b.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].file, "crates/foo/src/b.rs");
        assert_eq!(fs[0].line, 2);
        let shown = fs[0].to_string();
        assert!(shown.contains("crates/foo/src/b.rs:2"), "{shown}");
        assert!(shown.contains("panic-site"), "{shown}");
    }
}
