//! Fixture suite: every known-bad snippet triggers exactly its rule (and
//! only its rule); the known-good kernel passes clean under the strictest
//! classification.

use std::collections::BTreeMap;
use std::path::PathBuf;
use sthsl_lint::lexer::lex;
use sthsl_lint::{check_file, Violation};

fn lint_fixture(file: &str, classified_as: &str) -> Vec<Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(file);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    check_file(classified_as, &lex(&src))
}

/// Count violations per rule slug.
fn by_rule(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    for v in violations {
        *m.entry(v.rule).or_insert(0) += 1;
    }
    m
}

#[test]
fn bad_unsafe_triggers_only_r1() {
    let v = lint_fixture("bad_unsafe_no_safety.rs", "crates/core/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("unsafe-without-safety-comment", 1)]));
    assert_eq!(v[0].line, 7, "diagnostic must point at the unsafe block");
}

#[test]
fn bad_thread_spawn_triggers_only_r2() {
    let v = lint_fixture("bad_thread_spawn.rs", "crates/core/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("thread-outside-pool", 3)]));
    // The same file inside the pool crate is legitimate.
    assert!(lint_fixture("bad_thread_spawn.rs", "crates/parallel/src/fixture.rs").is_empty());
}

#[test]
fn bad_unwrap_triggers_only_r3_outside_tests() {
    let v = lint_fixture("bad_unwrap.rs", "crates/data/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("panic-in-library", 3)]));
    // In a binary crate the same code is allowed.
    assert!(lint_fixture("bad_unwrap.rs", "crates/bench/src/bin/fixture.rs").is_empty());
}

#[test]
fn bad_float_eq_triggers_only_r4() {
    let v = lint_fixture("bad_float_eq.rs", "crates/core/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("float-eq", 2)]));
}

#[test]
fn bad_clock_triggers_only_r5_in_kernel_crates() {
    let v = lint_fixture("bad_clock_in_kernel.rs", "crates/tensor/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("nondeterminism-in-kernel", 2)]));
    // Clocks outside kernel crates are fine (the trainer may time epochs).
    assert!(lint_fixture("bad_clock_in_kernel.rs", "crates/core/src/fixture.rs").is_empty());
}

#[test]
fn bad_println_triggers_only_r6() {
    let v = lint_fixture("bad_println.rs", "crates/core/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("print-in-library", 2)]));
    assert!(lint_fixture("bad_println.rs", "src/main.rs").is_empty());
}

#[test]
fn bad_lossy_cast_triggers_only_r7_in_numeric_kernels() {
    let v = lint_fixture("bad_lossy_cast.rs", "crates/tensor/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("lossy-cast-in-kernel", 3)]));
    let v = lint_fixture("bad_lossy_cast.rs", "crates/parallel/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("lossy-cast-in-kernel", 3)]));
    // `autograd` and non-kernel crates may cast (clippy still watches them).
    assert!(lint_fixture("bad_lossy_cast.rs", "crates/autograd/src/fixture.rs").is_empty());
    assert!(lint_fixture("bad_lossy_cast.rs", "crates/core/src/fixture.rs").is_empty());
}

#[test]
fn bad_unfinished_triggers_only_r8_outside_tests_and_bins() {
    let v = lint_fixture("bad_unfinished.rs", "crates/core/src/fixture.rs");
    assert_eq!(by_rule(&v), BTreeMap::from([("unfinished-code", 3)]));
    // A binary may keep `unreachable!` arms (clap-style dispatch), and test
    // files keep the `else { unreachable!() }` assertion idiom.
    assert!(lint_fixture("bad_unfinished.rs", "crates/bench/src/bin/fixture.rs").is_empty());
    assert!(lint_fixture("bad_unfinished.rs", "crates/core/tests/fixture.rs").is_empty());
}

#[test]
fn bad_closure_by_ref_triggers_only_r9_in_tensor_and_autograd() {
    for class in ["crates/tensor/src/fixture.rs", "crates/autograd/src/fixture.rs"] {
        let v = lint_fixture("bad_closure_by_ref.rs", class);
        assert_eq!(by_rule(&v), BTreeMap::from([("kernel-closure-by-ref", 3)]), "{class}");
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![21, 25, 29], "diagnostics must point at each closure");
    }
    // Other crates, the pool crate included, and test files are out of scope.
    for class in
        ["crates/parallel/src/fixture.rs", "crates/core/src/fixture.rs", "crates/tensor/tests/x.rs"]
    {
        assert!(lint_fixture("bad_closure_by_ref.rs", class).is_empty(), "{class}");
    }
}

#[test]
fn good_kernel_passes_every_rule_under_kernel_classification() {
    for class in [
        "crates/tensor/src/fixture.rs",
        "crates/autograd/src/fixture.rs",
        "crates/core/src/fixture.rs",
    ] {
        let v = lint_fixture("good_kernel.rs", class);
        assert!(
            v.is_empty(),
            "good kernel flagged under {class}: {:?}",
            v.iter().map(|x| format!("{}:{} {}", x.rule, x.line, x.msg)).collect::<Vec<_>>()
        );
    }
}
