//! `lapse-lint` — the workspace invariant checker.
//!
//! Three static passes keep the protocol crates honest (see DESIGN.md
//! "Static invariants") — the three no type can express:
//!
//! 1. **nondet-iter / wall-clock / entropy / thread-sleep** — no
//!    HashMap/HashSet iteration order, wall-clock read, entropy-seeded
//!    RNG or timed blocking in the protocol/scheduling crates;
//! 2. **lock-cycle / lock-in-loop** — no lock-order cycles, no shard
//!    latch/guard-map/tracker acquisition inside per-key loops
//!    (`.lock()`, `.read()`, and `.write()` all count as acquisitions);
//! 3. **batch-construct** — `Msg::Batch(..)` built only in the
//!    coalescer and the codec, so the decoder's unconditional
//!    nested-batch rejection stays sound by construction.
//!
//! What used to be three more passes now holds by construction: the wire
//! schema and the op-id width expand from one message table
//! (`crates/proto/src/messages.rs`), and a write through a shard read
//! guard does not compile.
//!
//! Benign sites carry `// lint:allow(<rule>, <reason>)`; the reason is
//! mandatory. The binary (`cargo run -p lapse-lint -- check`) exits
//! non-zero on any finding; `--format=json` emits machine-readable
//! output. Dependency-free by design: a hand-rolled lexer plus a
//! lightweight item/block scanner, no `syn`.

pub mod allow;
pub mod findings;
pub mod lexer;
pub mod passes;
pub mod scan;
pub mod workspace;

use allow::{parse_allows, suppressed};
use findings::Finding;
use workspace::{LexedFile, Workspace};

/// Lexes every file and runs all passes; returns the surviving findings
/// (allow-suppressed ones removed, reason-less allows reported), sorted
/// by file, line, rule.
pub fn check_workspace(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut lexed: Vec<LexedFile> = Vec::new();
    let mut allows_by_file = Vec::new();
    for f in &ws.files {
        match lexer::lex(&f.text) {
            Ok(l) => {
                let (allows, allow_findings) = parse_allows(&f.path, &l.comments);
                findings.extend(allow_findings);
                allows_by_file.push((f.path.clone(), allows));
                lexed.push(LexedFile {
                    path: f.path.clone(),
                    lexed: l,
                });
            }
            Err(e) => findings.push(Finding::new("parse", &f.path, e.line, e.message)),
        }
    }

    let mut raw = Vec::new();
    raw.extend(passes::determinism::run(&lexed));
    raw.extend(passes::locks::run(&lexed));
    raw.extend(passes::batch_nesting::run(&lexed));

    for f in raw {
        let allows = allows_by_file
            .iter()
            .find(|(p, _)| *p == f.file)
            .map(|(_, a)| a.as_slice())
            .unwrap_or(&[]);
        if !suppressed(&f, allows) {
            findings.push(f);
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings.dedup();
    findings
}

/// Lexes every file, returning only parse failures — the self-check that
/// the linter understands the whole tree.
pub fn parse_errors(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        if let Err(e) = lexer::lex(&f.text) {
            out.push(Finding::new("parse", &f.path, e.line, e.message));
        }
    }
    out
}
