//! The six rule families. Each rule walks the token stream of one file
//! (already stripped of comments and string contents by the lexer, so no
//! rule can be tripped by prose) and emits [`Finding`]s; suppression via
//! `hc-lint: allow(…)` annotations happens later, in the driver.

use crate::annot::HotMark;
use crate::config;
use crate::lexer::{Lexed, TokKind, Token};
use crate::scope::{FnScope, Scopes};
use crate::Finding;

/// What kind of file a path is — rules about *result-affecting* code only
/// run on [`FileClass::Source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library / binary code that can affect released numbers.
    Source,
    /// Integration tests (a `tests/` path component).
    Test,
    /// Criterion benches (a `benches/` path component).
    Bench,
    /// Examples (an `examples/` path component).
    Example,
}

/// Classifies a workspace-relative path by its directory components.
pub fn classify(rel_path: &str) -> FileClass {
    for comp in rel_path.split('/') {
        match comp {
            "tests" => return FileClass::Test,
            "benches" => return FileClass::Bench,
            "examples" => return FileClass::Example,
            _ => {}
        }
    }
    FileClass::Source
}

/// Everything a per-file rule needs to run.
pub struct RuleCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// The file's class.
    pub class: FileClass,
    /// The lexed token stream.
    pub lexed: &'a Lexed,
    /// Function scopes and test spans.
    pub scopes: &'a Scopes,
}

fn tok_matches(t: &Token, pat: &str) -> bool {
    let mut chars = pat.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) if !c.is_alphanumeric() => t.is_punct(c),
        _ => t.is_ident(pat),
    }
}

/// True if `tokens[i..]` starts with the pattern (idents and single-char
/// puncts, whitespace-immune by construction).
fn seq_at(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.len() <= tokens.len() - i && pat.iter().zip(&tokens[i..]).all(|(p, t)| tok_matches(t, p))
}

fn finding(rule: &'static str, ctx: &RuleCtx<'_>, t: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.rel_path.to_string(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// Rule `frozen-bits`: transcendental method calls (`.ln()`, `.exp()`,
/// `.powf(…)`, …) are confined to the sanctioned oracle modules, because
/// their bit patterns are libm-dependent and everything else must stay
/// bit-reproducible across platforms.
pub fn frozen_bits(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Source
        || config::path_in(ctx.rel_path, config::TRANSCENDENTAL_ORACLE_PATHS)
    {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident
            || !config::TRANSCENDENTAL_METHODS.contains(&name.text.as_str())
            || !toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            || ctx.scopes.is_test_line(name.line)
        {
            continue;
        }
        out.push(finding(
            "frozen-bits",
            ctx,
            name,
            format!(
                "transcendental call `.{}()` outside an oracle module — its bits are \
                 libm-dependent; route through hc-noise/hc-linalg or annotate why this \
                 value never reaches a release",
                name.text
            ),
        ));
    }
}

/// Rule `determinism`: no randomized-iteration containers, wall-clock
/// reads, or entropy-seeded RNG construction in result-affecting code.
pub fn determinism(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Source {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.scopes.is_test_line(t.line) {
            continue;
        }
        if config::NONDETERMINISTIC_IDENTS.contains(&t.text.as_str()) {
            let why = match t.text.as_str() {
                "HashMap" | "HashSet" => {
                    "iteration order is randomized per process — use BTreeMap/BTreeSet \
                     or an index-keyed Vec"
                }
                "SystemTime" => "wall-clock reads make runs unreproducible",
                _ => "entropy-based seeding bypasses the SeedStream substream contract",
            };
            out.push(finding(
                "determinism",
                ctx,
                t,
                format!(
                    "nondeterministic `{}` in result-affecting code: {why}",
                    t.text
                ),
            ));
        } else if t.is_ident("Instant") && seq_at(toks, i, &["Instant", ":", ":", "now"]) {
            out.push(finding(
                "determinism",
                ctx,
                t,
                "wall-clock read `Instant::now()` in result-affecting code — timing \
                 belongs in benches or the measurement harness"
                    .to_string(),
            ));
        }
    }
}

/// The resolved hot-path kernel set for one file: the function scopes to
/// scan, plus any config/marker staleness findings.
pub struct HotSet {
    /// Hot function scopes (from the registry and in-source markers).
    pub fns: Vec<FnScope>,
    /// `stale-config` / `bad-annotation` findings produced while resolving.
    pub findings: Vec<Finding>,
}

/// Resolves the hot-function set for `ctx` from the registry in
/// [`config::HOT_FUNCTIONS`] plus `// hc-lint: hot-path` markers.
pub fn collect_hot(ctx: &RuleCtx<'_>, marks: &[HotMark]) -> HotSet {
    let mut set = HotSet {
        fns: Vec::new(),
        findings: Vec::new(),
    };
    for &(file, fns) in config::HOT_FUNCTIONS {
        if file != ctx.rel_path {
            continue;
        }
        for &name in fns {
            let mut found = false;
            for f in ctx.scopes.fns_named(name) {
                set.fns.push(f.clone());
                found = true;
            }
            if !found {
                set.findings.push(Finding {
                    rule: "stale-config",
                    path: ctx.rel_path.to_string(),
                    line: 1,
                    col: 1,
                    message: format!(
                        "hot-path registry names `{name}` but no such function exists in \
                         this file — update crates/lint/src/config.rs alongside the rename"
                    ),
                });
            }
        }
    }
    for m in marks {
        // A marker attaches to the nearest `fn` at or below it.
        let attached = ctx
            .scopes
            .fns
            .iter()
            .filter(|f| f.fn_line >= m.line)
            .min_by_key(|f| f.fn_line);
        match attached {
            Some(f) => set.fns.push(f.clone()),
            None => set.findings.push(Finding {
                rule: "bad-annotation",
                path: ctx.rel_path.to_string(),
                line: m.line,
                col: m.col,
                message: "`hc-lint: hot-path` marker attaches to no function".to_string(),
            }),
        }
    }
    set
}

/// Rule `hot-path-alloc`: the registered kernels must not construct fresh
/// owned values (`Vec::new`, `.collect()`, `.clone()`, `format!`, …).
/// Capacity growth (`reserve`/`resize`/`push`) is deliberately allowed —
/// the warm-path contract is "amortized allocation-free", pinned at runtime
/// by the counting-allocator test.
pub fn hot_path_alloc(ctx: &RuleCtx<'_>, hot: &HotSet, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for f in &hot.fns {
        for i in f.body.0..f.body.1 {
            for pat in config::HOT_FORBIDDEN {
                if seq_at(toks, i, pat) {
                    // The anchor token for `.method` patterns is the method
                    // ident; for `Type::fn` patterns the leading ident.
                    let anchor = if pat[0] == "." {
                        &toks[i + 1]
                    } else {
                        &toks[i]
                    };
                    out.push(finding(
                        "hot-path-alloc",
                        ctx,
                        anchor,
                        format!(
                            "`{}` inside hot-path kernel `{}` — kernels must write into \
                             caller-provided buffers, not allocate",
                            pat.join(""),
                            f.name
                        ),
                    ));
                    break;
                }
            }
        }
    }
}

/// Rule `thread-discipline`: `std::thread::spawn`/`scope` may only appear
/// in files that route their worker count through `effective_threads`, so
/// the `HC_THREADS` contract (and the thread-count-invariant golden tests)
/// can't be bypassed.
pub fn thread_discipline(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Source {
        return;
    }
    let toks = &ctx.lexed.tokens;
    let routes = toks.iter().any(|t| t.is_ident("effective_threads"));
    if routes {
        return;
    }
    for i in 0..toks.len() {
        let spawny = seq_at(toks, i, &["thread", ":", ":", "spawn"])
            || seq_at(toks, i, &["thread", ":", ":", "scope"]);
        if spawny && !ctx.scopes.is_test_line(toks[i].line) {
            out.push(finding(
                "thread-discipline",
                ctx,
                &toks[i + 3],
                format!(
                    "`thread::{}` in a module that never consults `effective_threads` — \
                     all parallelism must honor the HC_THREADS contract",
                    toks[i + 3].text
                ),
            ));
        }
    }
}

/// Rule `float-fold`: `.sum::<f64>()` outside the fold-oracle modules.
/// Iterator summation bakes in one association order; the engine's fused
/// sweeps must own that order explicitly (the `-0.0`-seeded folds), so ad
/// hoc `sum` folds in serving/engine code are bit-compat hazards.
pub fn float_fold(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Source || config::path_in(ctx.rel_path, config::FOLD_ORACLE_PATHS) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if seq_at(toks, i, &[".", "sum", ":", ":", "<", "f64", ">"])
            && !ctx.scopes.is_test_line(toks[i + 1].line)
        {
            out.push(finding(
                "float-fold",
                ctx,
                &toks[i + 1],
                "`.sum::<f64>()` outside a fold-oracle module — the association order is \
                 implicit; use an explicit fold (seeded `-0.0` if it must match the \
                 engine) or annotate why bit-compat is not at stake"
                    .to_string(),
            ));
        }
    }
}

/// Rule `backend-pins`, testable core: given the backend enum's source and
/// the `(label, source)` pin-test files, require every `NoiseBackend`
/// variant to have at least one `fn <snake_case_variant>_*` test in each
/// file (CI filters per-backend by that prefix).
pub fn backend_pins_from_sources(enum_src: &str, pins: &[(&str, &str)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let lexed = crate::lexer::lex(enum_src);
    let toks = &lexed.tokens;
    let mut variants: Vec<(String, u32, u32)> = Vec::new();
    for i in 0..toks.len() {
        if !seq_at(toks, i, &["enum", "NoiseBackend"]) {
            continue;
        }
        let Some(open) = (i..toks.len()).find(|&j| toks[j].is_punct('{')) else {
            break;
        };
        let mut depth = 0usize;
        for j in open..toks.len() {
            let t = &toks[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && t.kind == TokKind::Ident
                && t.text.chars().next().is_some_and(char::is_uppercase)
                && toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_punct(',') || n.is_punct('}') || n.is_punct('='))
            {
                variants.push((t.text.clone(), t.line, t.col));
            }
        }
        break;
    }
    if variants.is_empty() {
        out.push(Finding {
            rule: "stale-config",
            path: config::BACKEND_ENUM_PATH.to_string(),
            line: 1,
            col: 1,
            message: "could not find `enum NoiseBackend` variants — the backend-pins rule \
                      has nothing to check; update crates/lint/src/config.rs"
                .to_string(),
        });
        return out;
    }
    for (label, src) in pins {
        let pin_lexed = crate::lexer::lex(src);
        let ptoks = &pin_lexed.tokens;
        for (variant, line, col) in &variants {
            let prefix = format!("{}_", config::snake_case(variant));
            let covered = (0..ptoks.len()).any(|i| {
                ptoks[i].is_ident("fn")
                    && ptoks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident && n.text.starts_with(&prefix))
            });
            if !covered {
                out.push(Finding {
                    rule: "backend-pins",
                    path: config::BACKEND_ENUM_PATH.to_string(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "NoiseBackend::{variant} has no `{prefix}*` golden-pin test in \
                         {label} — every backend variant ships with pins in each CI pin \
                         suite (backend versioning policy)"
                    ),
                });
            }
        }
    }
    out
}

/// Runs all per-file rules over one file.
pub fn run_file_rules(ctx: &RuleCtx<'_>, marks: &[HotMark], out: &mut Vec<Finding>) {
    frozen_bits(ctx, out);
    determinism(ctx, out);
    let hot = collect_hot(ctx, marks);
    hot_path_alloc(ctx, &hot, out);
    out.extend(hot.findings);
    thread_discipline(ctx, out);
    float_fold(ctx, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::analyze;

    fn run_on(rel_path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let scopes = analyze(&lexed);
        let ctx = RuleCtx {
            rel_path,
            class: classify(rel_path),
            lexed: &lexed,
            scopes: &scopes,
        };
        let annots = crate::annot::parse(&lexed, crate::RULES);
        let mut out = Vec::new();
        run_file_rules(&ctx, &annots.hot_marks, &mut out);
        out
    }

    #[test]
    fn ln_outside_oracle_is_flagged() {
        let f = run_on(
            "crates/core/src/theory_extra.rs",
            "fn f(x: f64) -> f64 { x.ln() }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "frozen-bits");
    }

    #[test]
    fn ln_inside_noise_is_sanctioned() {
        let f = run_on(
            "crates/noise/src/laplace_extra.rs",
            "fn f(x: f64) -> f64 { x.ln() }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn ln_in_a_string_or_comment_is_invisible() {
        let src = "fn f() { let s = \"x.ln()\"; /* x.ln() */ }\n";
        assert!(run_on("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn ln_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(x: f64) -> f64 { x.ln() }\n}\n";
        assert!(run_on("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_is_flagged_in_source_not_tests_dir() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run_on("crates/core/src/x.rs", src).len(), 1);
        assert!(run_on("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn instant_now_is_flagged_but_duration_is_not() {
        let flagged = run_on(
            "crates/core/src/x.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].rule, "determinism");
        let ok = run_on("crates/core/src/x.rs", "fn f(d: std::time::Duration) {}\n");
        assert!(ok.is_empty());
    }

    #[test]
    fn hot_marker_makes_a_fn_allocation_checked() {
        let src = "// hc-lint: hot-path\nfn kernel(out: &mut Vec<f64>) { let v = vec![0.0]; }\n";
        let f = run_on("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-path-alloc");
        assert!(f[0].message.contains("kernel"));
    }

    #[test]
    fn registry_hot_fn_is_checked_without_marker() {
        let src = "fn up_kernel(buf: &mut [f64]) { let v = buf.to_vec(); }\nfn cold() { let v = vec![1]; }\n";
        let f = run_on("crates/core/src/engine.rs", src);
        // `up_kernel` violation + stale-config for every other registered
        // engine fn that this synthetic file lacks.
        assert!(f
            .iter()
            .any(|x| x.rule == "hot-path-alloc" && x.message.contains("up_kernel")));
        assert!(!f
            .iter()
            .any(|x| x.rule == "hot-path-alloc" && x.message.contains("cold")));
        assert!(f.iter().any(|x| x.rule == "stale-config"));
    }

    #[test]
    fn push_and_reserve_are_warm_path_legal() {
        let src = "// hc-lint: hot-path\nfn kernel(buf: &mut Vec<f64>) { buf.reserve(8); buf.push(0.0); buf.resize(4, 0.0); }\n";
        assert!(run_on("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn spawn_without_effective_threads_is_flagged() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let f = run_on("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "thread-discipline");
    }

    #[test]
    fn spawn_with_effective_threads_routing_is_fine() {
        let src = "fn f(n: usize) { let k = effective_threads(n); std::thread::scope(|s| {}); }\n";
        assert!(run_on("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn sum_f64_outside_oracle_is_flagged() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
        let f = run_on("crates/core/src/snapshot_extra.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-fold");
        assert!(run_on("crates/core/src/error.rs", src).is_empty());
    }

    #[test]
    fn backend_pins_detects_missing_prefix() {
        let enum_src = "pub enum NoiseBackend { Reference, FastLnWide }\n";
        let good = "#[test]\nfn reference_golden() {}\n#[test]\nfn fast_ln_wide_golden() {}\n";
        let bad = "#[test]\nfn reference_golden() {}\n";
        assert!(backend_pins_from_sources(enum_src, &[("good.rs", good)]).is_empty());
        let f = backend_pins_from_sources(enum_src, &[("bad.rs", bad)]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("FastLnWide"));
        assert!(f[0].message.contains("fast_ln_wide_"));
    }

    #[test]
    fn backend_pins_checks_every_pin_file() {
        let enum_src = "pub enum NoiseBackend { Reference }\n";
        let with = "fn reference_x() {}\n";
        let without = "fn other() {}\n";
        let f = backend_pins_from_sources(enum_src, &[("a.rs", with), ("b.rs", without)]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("b.rs"));
    }
}
