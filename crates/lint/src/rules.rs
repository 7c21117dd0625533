//! The ST-HSL rule catalog.
//!
//! Every rule exists to protect a property the experiments depend on:
//!
//! - **R1 `unsafe-without-safety-comment`** — every `unsafe` block, fn,
//!   impl or trait must be immediately preceded by a `// SAFETY:` comment.
//!   The pool's bit-identical guarantee rests on manually argued invariants;
//!   an unargued `unsafe` is an unargued invariant.
//! - **R2 `thread-outside-pool`** — no `std::thread::spawn` and no
//!   `Mutex`/`RwLock`/`Condvar`/`Barrier`/`mpsc` outside `crates/parallel`.
//!   All parallelism goes through the pool, whose shard partitioning is a
//!   pure function of `(problem size, thread count)`; ad-hoc threads would
//!   reintroduce scheduling-dependent results.
//! - **R3 `panic-in-library`** — no `.unwrap()` / `.expect(…)` / `panic!`
//!   in library code outside `#[cfg(test)]`. Fallible paths return
//!   `Result`; a panic mid-epoch loses a training run that the checkpoint
//!   machinery exists to protect.
//! - **R4 `float-eq`** — no `==`/`!=` against a float literal outside
//!   tests. Exact float equality is almost always a reproducibility bug in
//!   waiting, except in kernels' documented sparsity fast paths, which are
//!   grandfathered via the budget.
//! - **R5 `nondeterminism-in-kernel`** — kernel crates (`tensor`,
//!   `autograd`, `parallel`) must not read clocks (`SystemTime`,
//!   `Instant`) or OS entropy (`thread_rng`, `from_entropy`): kernel
//!   output must be a function of inputs and thread count only.
//! - **R6 `print-in-library`** — no `println!`/`eprintln!`/`dbg!` in
//!   library crates; diagnostics flow through return values so callers (and
//!   the golden-metric tests) own stdout.
//! - **R7 `lossy-cast-in-kernel`** — no `as` numeric casts in the numeric
//!   kernel crates (`tensor`, `parallel`). The source type is invisible to
//!   a lexical pass, so every numeric `as` is treated as potentially lossy:
//!   a truncating `usize as f32` on a large tensor silently corrupts means
//!   and norms. Use `From`/`try_from` or a documented rounding helper;
//!   existing sites are grandfathered via the budget.
//! - **R8 `unfinished-code`** — no `todo!` / `unimplemented!` /
//!   `unreachable!` in library code outside `#[cfg(test)]`. R3 already bans
//!   the recoverable-error panics; these three are the *scaffolding* panics:
//!   a `todo!` that survives review is a feature that silently aborts a
//!   training run, and an `unreachable!` is an unproved invariant — prove it
//!   in the type system or return an error. Test code and binaries keep
//!   them (an `else { unreachable!() }` in a test is an assertion).
//! - **R9 `kernel-closure-by-ref`** — in `tensor` and `autograd`, a closure
//!   literal passed to `parallel_rows_mut(`, `zip_map(` or `map_inplace(`
//!   must be a `move` closure. Such a closure runs once per element or row;
//!   a scalar it captures by reference is re-read through a pointer on
//!   every call, which kept LeakyReLU's per-element loop from vectorizing.
//!   A `move` closure copies the scalar in. Approximation: `.map(` is left
//!   out, because the lexer cannot tell `Tensor::map` from `Iterator::map`
//!   and `Option::map`, whose closures may rightly borrow.
//!
//! Rules are lexical by design: they see the token stream of
//! [`crate::lexer`], never a full AST, so they are cheap, total and easy to
//! audit. The cost is a documented approximation (e.g. R4 only sees
//! comparisons with a *literal* operand); the budgets in `lint-allow.toml`
//! absorb the residue.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// A single rule hit.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule slug, e.g. `panic-in-library`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
}

/// All rule slugs, in catalog order.
pub const ALL_RULES: [&str; 9] = [
    "unsafe-without-safety-comment",
    "thread-outside-pool",
    "panic-in-library",
    "float-eq",
    "nondeterminism-in-kernel",
    "print-in-library",
    "lossy-cast-in-kernel",
    "unfinished-code",
    "kernel-closure-by-ref",
];

/// How a file participates in the rule catalog, derived from its
/// workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Test-only compilation unit: integration tests, benches, examples.
    pub is_test_file: bool,
    /// Binary / harness code: CLIs, `src/bin/`, the bench crate. The serve
    /// runtime (`crates/serve`) is deliberately NOT here: its request loop
    /// is library code under R3's zero panic budget, so no request path can
    /// ever reach a panic.
    pub is_bin: bool,
    /// Inside a kernel crate (`tensor`, `autograd`, `parallel`).
    pub is_kernel: bool,
    /// Inside a numeric kernel crate (`tensor`, `parallel`) where R7 bans
    /// `as` casts; `autograd` is exempt (graph bookkeeping, not arithmetic).
    pub is_cast_kernel: bool,
    /// Inside `crates/parallel` (the one place threads may live).
    pub is_pool: bool,
    /// Inside `tensor` or `autograd`, whose elementwise closures R9 checks.
    pub is_closure_kernel: bool,
}

impl FileClass {
    /// Classify `rel`, a `/`-separated path relative to the workspace root.
    pub fn of(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = match parts.as_slice() {
            ["crates", name, ..] => Some(*name),
            _ => None,
        };
        let is_test_file =
            parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures"));
        let is_bin = parts.contains(&"bin")
            || rel.ends_with("/main.rs")
            || rel == "src/main.rs"
            || rel == "src/cli.rs"
            || crate_name == Some("bench");
        FileClass {
            is_test_file,
            is_bin,
            is_kernel: matches!(crate_name, Some("tensor" | "autograd" | "parallel")),
            is_cast_kernel: matches!(crate_name, Some("tensor" | "parallel")),
            is_pool: crate_name == Some("parallel"),
            is_closure_kernel: matches!(crate_name, Some("tensor" | "autograd")),
        }
    }

    /// Library code: subject to R3/R6 (panic- and print-freedom).
    fn is_library(&self) -> bool {
        !self.is_test_file && !self.is_bin
    }
}

/// Per-token "is this test code" mask, derived from `#[cfg(test)]` /
/// `#[test]` attributes and their attached items (plus whole-file
/// `#![cfg(test)]`). Attribute tokens themselves are marked too.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let mut ci = 0;
    while ci < code.len() {
        let i = code[ci];
        if !toks[i].is_punct("#") {
            ci += 1;
            continue;
        }
        // `#[…]` (outer) or `#![…]` (inner) — find the bracketed group.
        let mut cj = ci + 1;
        let inner = cj < code.len() && toks[code[cj]].is_punct("!");
        if inner {
            cj += 1;
        }
        if cj >= code.len() || !toks[code[cj]].is_punct("[") {
            ci += 1;
            continue;
        }
        // Scan to the matching `]`, recording whether the attribute names
        // `test` (and is not a `not(test)` guard).
        let mut depth = 0usize;
        let mut has_test = false;
        let mut has_not = false;
        let attr_start = ci;
        while cj < code.len() {
            let t = &toks[code[cj]];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("test") {
                has_test = true;
            } else if t.is_ident("not") {
                has_not = true;
            }
            cj += 1;
        }
        let attr_end = cj.min(code.len().saturating_sub(1));
        if !has_test || has_not {
            ci = attr_end + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            mask.fill(true);
            return mask;
        }
        // Outer attribute: mark through the end of the attached item — the
        // matching `}` of its first top-level `{`, or a top-level `;`.
        let mut ck = attr_end + 1;
        let mut brace = 0usize;
        let mut end = code.len().saturating_sub(1);
        while ck < code.len() {
            let t = &toks[code[ck]];
            if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace -= 1;
                if brace == 0 {
                    end = ck;
                    break;
                }
            } else if t.is_punct(";") && brace == 0 {
                end = ck;
                break;
            }
            ck += 1;
        }
        for &tok_idx in &code[attr_start..=end.min(code.len() - 1)] {
            mask[tok_idx] = true;
        }
        // Mark comments inside the item's line span as test too, so
        // comment-based rules agree with the code mask.
        let (lo, hi) = (toks[code[attr_start]].line, toks[code[end]].line);
        for (m, t) in mask.iter_mut().zip(toks) {
            if t.kind == TokKind::Comment && (lo..=hi).contains(&t.line) {
                *m = true;
            }
        }
        ci = end + 1;
    }
    mask
}

/// Run the whole catalog over one lexed file.
pub fn check_file(rel: &str, toks: &[Tok]) -> Vec<Violation> {
    let class = FileClass::of(rel);
    let mask = test_mask(toks);
    let mut out = Vec::new();

    // Line metadata for R1's comment-run walk.
    let mut comment_safety: BTreeMap<usize, bool> = BTreeMap::new();
    let mut code_lines: BTreeMap<usize, ()> = BTreeMap::new();
    let mut attr_lines: BTreeMap<usize, ()> = BTreeMap::new();
    {
        let code: Vec<usize> =
            (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
        let mut in_attr = vec![false; toks.len()];
        let mut ci = 0;
        while ci < code.len() {
            if toks[code[ci]].is_punct("#") {
                let mut cj = ci + 1;
                if cj < code.len() && toks[code[cj]].is_punct("!") {
                    cj += 1;
                }
                if cj < code.len() && toks[code[cj]].is_punct("[") {
                    let mut depth = 0usize;
                    while cj < code.len() {
                        let t = &toks[code[cj]];
                        if t.is_punct("[") {
                            depth += 1;
                        } else if t.is_punct("]") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        cj += 1;
                    }
                    for &k in &code[ci..=cj.min(code.len() - 1)] {
                        in_attr[k] = true;
                    }
                    ci = cj + 1;
                    continue;
                }
            }
            ci += 1;
        }
        for (i, t) in toks.iter().enumerate() {
            match t.kind {
                TokKind::Comment => {
                    let has = comment_safety.entry(t.line).or_insert(false);
                    *has |= t.text.contains("SAFETY:");
                }
                _ if in_attr[i] => {
                    attr_lines.insert(t.line, ());
                }
                _ => {
                    code_lines.insert(t.line, ());
                }
            }
        }
    }

    let non_comment: Vec<usize> =
        (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let tok_at = |ci: isize| -> Option<&Tok> {
        usize::try_from(ci).ok().and_then(|ci| non_comment.get(ci)).map(|&i| &toks[i])
    };

    for (ci, &i) in non_comment.iter().enumerate() {
        let t = &toks[i];
        let in_test = mask[i];
        let ci = ci as isize;

        // R1: `unsafe` needs an immediately-preceding `// SAFETY:` run.
        if t.is_ident("unsafe") {
            let mut found = comment_safety.get(&t.line).copied().unwrap_or(false);
            let mut l = t.line.saturating_sub(1);
            while !found && l >= 1 {
                let is_comment = comment_safety.contains_key(&l);
                let is_code = code_lines.contains_key(&l);
                let is_attr = attr_lines.contains_key(&l);
                if is_comment && !is_code {
                    if comment_safety[&l] {
                        found = true;
                    }
                    l -= 1;
                } else if is_attr && !is_code {
                    l -= 1;
                } else {
                    // Code line (or blank line inside source — runs must be
                    // contiguous comment/attribute lines).
                    break;
                }
            }
            if !found {
                out.push(Violation {
                    rule: "unsafe-without-safety-comment",
                    path: rel.to_string(),
                    line: t.line,
                    msg: "`unsafe` without an immediately preceding `// SAFETY:` comment"
                        .to_string(),
                });
            }
        }

        // R2: threads and locks only inside the pool crate.
        if !class.is_pool && !class.is_test_file && !in_test {
            let banned_sync =
                matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar" | "Barrier" | "mpsc")
                    && t.kind == TokKind::Ident;
            let thread_spawn = t.is_ident("spawn")
                && tok_at(ci - 1).is_some_and(|p| p.is_punct("::"))
                && tok_at(ci - 2).is_some_and(|p| p.is_ident("thread") || p.is_ident("Builder"));
            if banned_sync || thread_spawn {
                out.push(Violation {
                    rule: "thread-outside-pool",
                    path: rel.to_string(),
                    line: t.line,
                    msg: format!(
                        "`{}` outside crates/parallel — route parallelism through the pool",
                        t.text
                    ),
                });
            }
        }

        // R3: panics in library code.
        if class.is_library() && !in_test {
            let method_panic = t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && tok_at(ci - 1).is_some_and(|p| p.is_punct("."))
                && tok_at(ci + 1).is_some_and(|n| n.is_punct("("));
            let macro_panic = t.is_ident("panic")
                && tok_at(ci + 1).is_some_and(|n| n.is_punct("!"))
                // `core::panic!` paths and `#[should_panic]` idents differ;
                // a bare `panic !` in code position is what we ban.
                && !tok_at(ci - 1).is_some_and(|p| p.is_punct("#") || p.is_punct("["));
            if method_panic || macro_panic {
                out.push(Violation {
                    rule: "panic-in-library",
                    path: rel.to_string(),
                    line: t.line,
                    msg: format!("`{}` in library code — propagate a Result instead", t.text),
                });
            }
        }

        // R4: float-literal equality.
        if !class.is_test_file && !in_test && (t.is_punct("==") || t.is_punct("!=")) {
            let lit = |tk: Option<&Tok>| tk.is_some_and(|x| x.kind == TokKind::Float);
            if lit(tok_at(ci - 1)) || lit(tok_at(ci + 1)) {
                out.push(Violation {
                    rule: "float-eq",
                    path: rel.to_string(),
                    line: t.line,
                    msg: format!(
                        "float literal `{}` comparison — use an epsilon or document the exact-bit intent",
                        t.text
                    ),
                });
            }
        }

        // R5: nondeterminism sources in kernel crates.
        if class.is_kernel
            && !class.is_test_file
            && !in_test
            && matches!(t.text.as_str(), "SystemTime" | "Instant" | "thread_rng" | "from_entropy")
            && t.kind == TokKind::Ident
        {
            out.push(Violation {
                    rule: "nondeterminism-in-kernel",
                    path: rel.to_string(),
                    line: t.line,
                    msg: format!(
                        "`{}` in a kernel crate — kernel output must depend only on inputs and thread count",
                        t.text
                    ),
                });
        }

        // R6: stray prints in library code.
        if class.is_library()
            && !in_test
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint" | "dbg")
            && tok_at(ci + 1).is_some_and(|n| n.is_punct("!"))
        {
            out.push(Violation {
                rule: "print-in-library",
                path: rel.to_string(),
                line: t.line,
                msg: format!("`{}!` in library code — return diagnostics to the caller", t.text),
            });
        }

        // R7: numeric `as` casts in the numeric kernel crates. Lexical, so
        // the source type is unknown: any `as <numeric type>` counts.
        if class.is_cast_kernel
            && !class.is_test_file
            && !in_test
            && t.is_ident("as")
            && tok_at(ci + 1).is_some_and(|n| {
                n.kind == TokKind::Ident
                    && matches!(
                        n.text.as_str(),
                        "u8" | "u16"
                            | "u32"
                            | "u64"
                            | "u128"
                            | "i8"
                            | "i16"
                            | "i32"
                            | "i64"
                            | "i128"
                            | "usize"
                            | "isize"
                            | "f32"
                            | "f64"
                    )
            })
        {
            let target = tok_at(ci + 1).map(|n| n.text.clone()).unwrap_or_default();
            out.push(Violation {
                rule: "lossy-cast-in-kernel",
                path: rel.to_string(),
                line: t.line,
                msg: format!(
                    "`as {target}` in a numeric kernel crate — use From/try_from or a documented rounding helper"
                ),
            });
        }

        // R8: scaffolding panics in library code. Same macro-position shape
        // as R3's `panic!` check: a bare ident followed by `!`, not inside an
        // attribute (`#[allow(unreachable_code)]` names the lint, not the
        // macro).
        if class.is_library()
            && !in_test
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "todo" | "unimplemented" | "unreachable")
            && tok_at(ci + 1).is_some_and(|n| n.is_punct("!"))
            && !tok_at(ci - 1).is_some_and(|p| p.is_punct("#") || p.is_punct("["))
        {
            out.push(Violation {
                rule: "unfinished-code",
                path: rel.to_string(),
                line: t.line,
                msg: format!(
                    "`{}!` in library code — finish the path or return an error; an unproved invariant aborts training",
                    t.text
                ),
            });
        }

        // R9: closure literals handed to the per-element/per-row kernel
        // entry points must be `move`. Scan the call's own argument list
        // (depth 1 of its parentheses) for a `|` that opens a closure: one
        // right after the `(` or a `,`, which a `move` would precede.
        if class.is_closure_kernel
            && !class.is_test_file
            && !in_test
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "parallel_rows_mut" | "zip_map" | "map_inplace")
            && tok_at(ci + 1).is_some_and(|n| n.is_punct("("))
            && !tok_at(ci - 1).is_some_and(|p| p.is_ident("fn"))
        {
            let mut depth = 0usize;
            let mut cj = ci + 1;
            while let Some(tk) = tok_at(cj) {
                if tk.is_punct("(") || tk.is_punct("[") || tk.is_punct("{") {
                    depth += 1;
                } else if tk.is_punct(")") || tk.is_punct("]") || tk.is_punct("}") {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1
                    && tk.is_punct("|")
                    && tok_at(cj - 1).is_some_and(|p| p.is_punct("(") || p.is_punct(","))
                {
                    out.push(Violation {
                        rule: "kernel-closure-by-ref",
                        path: rel.to_string(),
                        line: tk.line,
                        msg: format!(
                            "closure passed to `{}(` without `move` — captured scalars are re-read through a reference per element",
                            t.text
                        ),
                    });
                }
                cj += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> =
            check_file(rel, &lex(src)).into_iter().map(|v| v.rule).collect();
        rules.dedup();
        rules
    }

    #[test]
    fn unsafe_without_safety_fires_and_with_safety_does_not() {
        let bad = "pub fn f(p: *mut u8) { unsafe { *p = 0; } }";
        assert_eq!(rules_hit("crates/core/src/x.rs", bad), vec!["unsafe-without-safety-comment"]);
        let good = "pub fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes by contract.\n    unsafe { *p = 0; }\n}";
        assert!(rules_hit("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn safety_run_may_include_attributes_but_not_code() {
        let good = "// SAFETY: argued above.\n#[allow(clippy::x)]\nunsafe impl Send for T {}";
        assert!(rules_hit("crates/core/src/x.rs", good).is_empty());
        let bad =
            "// SAFETY: for the OTHER impl.\nunsafe impl Send for T {}\nunsafe impl Sync for T {}";
        assert_eq!(rules_hit("crates/core/src/x.rs", bad), vec!["unsafe-without-safety-comment"]);
    }

    #[test]
    fn test_code_is_exempt_from_panic_and_float_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(x == 1.0); Some(1).unwrap(); }\n}";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
        let live = "fn f() { Some(1).unwrap(); }";
        assert_eq!(rules_hit("crates/core/src/x.rs", live), vec!["panic-in-library"]);
    }

    #[test]
    fn cfg_not_test_is_still_live_code() {
        let src = "#[cfg(not(test))]\nfn f() { Some(1).unwrap(); }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["panic-in-library"]);
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = "fn f() -> &'static str { \"call .unwrap() and panic! inside unsafe {}\" }\n// println! .unwrap() unsafe\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn bin_and_test_files_may_print_and_unwrap() {
        let src = "fn main() { println!(\"{}\", Some(1).unwrap()); }";
        assert!(rules_hit("src/main.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/bin/tool.rs", src).is_empty());
        assert!(rules_hit("tests/pipeline.rs", src).is_empty());
        assert_eq!(
            rules_hit("crates/core/src/model.rs", src),
            vec!["print-in-library", "panic-in-library"]
        );
    }

    #[test]
    fn sync_primitives_allowed_only_in_pool() {
        let src = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["thread-outside-pool"]);
        assert!(rules_hit("crates/parallel/src/lib.rs", src).is_empty());
    }

    #[test]
    fn serve_runtime_is_library_code_with_zero_panic_budget() {
        // Pin the classification: the HTTP serving runtime must stay under
        // R2/R3/R6 (no threads, no panics, no prints) even though it ships
        // behind a CLI subcommand. A refactor that reclassified it as bin
        // code would silently legalize panic-reachable request paths.
        let fc = FileClass::of("crates/serve/src/server.rs");
        assert!(!fc.is_bin && !fc.is_test_file && !fc.is_pool);
        let src = "fn f() { println!(\"x\"); Some(1).unwrap(); std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_hit("crates/serve/src/server.rs", src),
            vec!["print-in-library", "panic-in-library", "thread-outside-pool"]
        );
        // Its tests keep the usual exemptions.
        assert!(rules_hit("crates/serve/tests/smoke.rs", src).is_empty());
    }

    #[test]
    fn kernel_crates_reject_clocks_and_entropy() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_hit("crates/tensor/src/x.rs", src), vec!["nondeterminism-in-kernel"]);
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn numeric_casts_banned_in_tensor_and_parallel_only() {
        let src = "fn f(n: usize) -> f32 { n as f32 }";
        assert_eq!(rules_hit("crates/tensor/src/ops/reduce.rs", src), vec!["lossy-cast-in-kernel"]);
        assert_eq!(rules_hit("crates/parallel/src/pool.rs", src), vec!["lossy-cast-in-kernel"]);
        // `autograd` and non-kernel crates are out of scope for R7.
        assert!(rules_hit("crates/autograd/src/graph.rs", src).is_empty());
        assert!(rules_hit("crates/core/src/model.rs", src).is_empty());
    }

    #[test]
    fn numeric_casts_allowed_in_kernel_test_code() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(n: usize) -> f32 { n as f32 }\n}";
        assert!(rules_hit("crates/tensor/src/x.rs", in_test).is_empty());
        assert!(rules_hit("crates/tensor/tests/golden.rs", "fn f(n: usize) -> f32 { n as f32 }")
            .is_empty());
    }

    #[test]
    fn non_numeric_as_is_not_a_cast_violation() {
        // `as` for trait objects, imports and pointer types carries no
        // numeric truncation risk; only `as <numeric primitive>` fires.
        let src = "use std::fmt::Debug as Dbg;\nfn f(x: &dyn Dbg) -> &dyn Dbg { x as &dyn Dbg }";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn unfinished_code_banned_in_library_only() {
        for mac in ["todo!()", "unimplemented!()", "unreachable!(\"x\")"] {
            let src = format!("pub fn f() {{ {mac} }}");
            assert_eq!(rules_hit("crates/core/src/x.rs", &src), vec!["unfinished-code"]);
            // Binaries and tests keep their scaffolding/assertion macros.
            assert!(rules_hit("src/main.rs", &src).is_empty());
            assert!(rules_hit("crates/core/tests/x.rs", &src).is_empty());
        }
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { unreachable!() }\n}";
        assert!(rules_hit("crates/core/src/x.rs", in_test).is_empty());
        // Lint names inside attributes are not macro calls.
        let attr = "#[allow(unreachable_code)]\npub fn f() {}";
        assert!(rules_hit("crates/core/src/x.rs", attr).is_empty());
    }

    #[test]
    fn float_eq_catches_literal_comparisons_only() {
        assert_eq!(
            rules_hit("crates/core/src/x.rs", "fn f(x: f32) -> bool { x == 0.0 }"),
            vec!["float-eq"]
        );
        // Int comparisons and non-literal float comparisons pass the lexical
        // rule (the latter are clippy's to catch).
        assert!(rules_hit("crates/core/src/x.rs", "fn f(x: usize) -> bool { x == 0 }").is_empty());
        assert!(
            rules_hit("crates/core/src/x.rs", "fn f(a: f32, b: f32) -> bool { a == b }").is_empty()
        );
    }
}
