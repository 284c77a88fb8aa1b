//! Integration tests: run the full engine over the seeded-violation
//! fixture workspaces under `tests/fixtures/` and assert the exact
//! outcome — each lint fires on its positive case, stays quiet on the
//! clean case, and exempts exactly the names its constant lists; JSON
//! output is stable.

use std::path::PathBuf;

use mtlb_analysis::engine;

fn analyze(name: &str) -> engine::Outcome {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    engine::analyze(&root).expect("fixture analyzes")
}

fn lint_count(o: &engine::Outcome, lint: &str) -> usize {
    o.per_lint
        .iter()
        .find(|(l, _)| *l == lint)
        .map(|(_, n)| *n)
        .expect("lint present in summary")
}

#[test]
fn shootdown_fixture_flags_leak_and_exempts_named_methods() {
    let o = analyze("shootdown");
    assert_eq!(
        o.violations.len(),
        1,
        "only the seeded violation: {:?}",
        o.violations
    );
    assert_eq!(lint_count(&o, "shootdown-completeness"), 1);
    let d = &o.violations[0];
    assert_eq!(d.lint, "shootdown-completeness");
    assert!(
        d.msg.contains("`leak_mapping`"),
        "names the method: {}",
        d.msg
    );
    assert!(
        d.msg.contains("via `write_map`"),
        "names the mutation witness helper: {}",
        d.msg
    );
    // `good_remap` reaches queue_shootdown two helpers deep and the two
    // `SHOOTDOWN_EXEMPT` methods write mapping state by design: neither
    // is reported.
    assert!(!o.is_clean());
}

#[test]
fn overflow_fixture_flags_unchecked_add_and_accepts_saturating() {
    let o = analyze("overflow");
    assert_eq!(lint_count(&o, "counter-overflow"), 1);
    assert_eq!(
        o.violations.len(),
        1,
        "saturating_add stays clean: {:?}",
        o.violations
    );
    let d = &o.violations[0];
    assert!(d.msg.contains("`hits`"), "names the counter: {}", d.msg);
    // The destructure in the stub audit keeps counter-symmetry quiet.
    assert_eq!(lint_count(&o, "counter-symmetry"), 0);
}

#[test]
fn json_rendering_is_stable_and_schema_versioned() {
    let a = engine::render_json(&analyze("shootdown"));
    let b = engine::render_json(&analyze("shootdown"));
    assert_eq!(a, b, "back-to-back runs render byte-identically");
    assert!(a.contains(&format!(
        "\"schema_version\": {}",
        engine::JSON_SCHEMA_VERSION
    )));
    assert_eq!(engine::JSON_SCHEMA_VERSION, 2);
    assert!(a.contains("\"lint\": \"shootdown-completeness\""));
    for gone in ["stale_allowlist", "suppressed", "allowlist_entries"] {
        assert!(!a.contains(gone), "schema 2 has no `{gone}` field");
    }
}
