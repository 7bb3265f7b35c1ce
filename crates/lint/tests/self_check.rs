//! Self-check against the real tree: the lexer must understand every
//! workspace `.rs` file, and the tree must be lint-clean (any finding
//! here is exactly what `make lint` would fail CI on).

use std::path::Path;

use lapse_lint::workspace::load_workspace;
use lapse_lint::{check_workspace, parse_errors};

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_workspace_file_lexes() {
    let ws = load_workspace(&repo_root()).expect("read workspace");
    assert!(
        ws.files.len() > 50,
        "workspace walk found only {} files — wrong root?",
        ws.files.len()
    );
    let errs = parse_errors(&ws);
    assert!(errs.is_empty(), "lexer failed on: {errs:?}");
}

#[test]
fn real_tree_is_lint_clean() {
    let ws = load_workspace(&repo_root()).expect("read workspace");
    let findings = check_workspace(&ws);
    let rendered: Vec<String> = findings.iter().map(|f| f.render_text()).collect();
    assert!(
        findings.is_empty(),
        "tree has lint findings:\n{}",
        rendered.join("\n")
    );
}
