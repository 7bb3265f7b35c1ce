//! Pass 3: batch-envelope construction sites.
//!
//! **`batch-construct`** — `Msg::Batch(..)` built outside its two
//! sanctioned sites. The decoder rejects tag 15 inside a batch
//! unconditionally (`CodecError::NestedBatch`); that is only sound if a
//! nested batch can never be *built*, which the workspace guarantees by
//! funnelling every construction through the coalescer
//! (`crates/proto/src/coalesce.rs`, which packs already-flat sink
//! messages) and the codec itself (`crates/proto/src/messages.rs`:
//! decode plus the round-trip samples). A `Msg::Batch(..)` expression
//! anywhere else in the `src` trees could wrap arbitrary messages —
//! including other batches — and is flagged.
//!
//! Pattern positions (`Msg::Batch(msgs) =>`, `if let Msg::Batch(..)`,
//! `matches!(m, Msg::Batch(_))`) destructure an existing envelope and
//! are fine anywhere; only expression positions count.

use crate::findings::Finding;
use crate::scan::{in_ranges, match_bracket, test_ranges};
use crate::workspace::LexedFile;

/// Files allowed to construct `Msg::Batch`.
const ALLOWED_SUFFIXES: &[&str] = &[
    "crates/proto/src/coalesce.rs",
    "crates/proto/src/messages.rs",
];

pub fn run(files: &[LexedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !f.path.contains("/src/") || ALLOWED_SUFFIXES.iter().any(|s| f.path.ends_with(s)) {
            continue;
        }
        let toks = &f.lexed.tokens;
        let tests = test_ranges(toks);
        for i in 0..toks.len() {
            if !toks[i].is_ident("Msg") || in_ranges(&tests, i) {
                continue;
            }
            // `Msg :: Batch (` — the lexer keeps `::` as one token.
            let path_here = i + 3 < toks.len()
                && toks[i + 1].is_punct("::")
                && toks[i + 2].is_ident("Batch")
                && toks[i + 3].is_punct("(");
            if path_here && is_construction(toks, i) {
                out.push(Finding::new(
                    "batch-construct",
                    &f.path,
                    toks[i].line,
                    "`Msg::Batch(..)` constructed outside the coalescer — the decoder's \
                     nested-batch rejection is sound only while the coalescer (which packs \
                     flat sink messages) is the sole construction site; emit through \
                     `Coalescer::pack` instead",
                ));
            }
        }
    }
    out
}

/// Whether the `Msg::Batch(` at `i` is an expression (construction)
/// rather than a pattern. Patterns appear as match-arm heads (the
/// matching close paren is followed by `=>`, possibly behind an `if`
/// guard), behind `let` (`if let` / `while let` / `let`-else), or as the
/// second argument of `matches!`.
fn is_construction(toks: &[crate::lexer::Token], i: usize) -> bool {
    // Backwards: `let` or `matches !` within the preceding few tokens
    // marks a pattern position (`if let Msg::Batch(..) = ..`,
    // `matches!(m, Msg::Batch(..))`) — unless an `=` intervenes, which
    // puts the path on the expression side (`let b = Msg::Batch(..)`).
    let lookback = i.saturating_sub(6);
    for j in (lookback..i).rev() {
        if toks[j].is_ident("matches") {
            return false;
        }
        if toks[j].is_ident("let") {
            if !toks[j + 1..i].iter().any(|t| t.is_punct("=")) {
                return false;
            }
            break;
        }
    }
    // Forwards: a match-arm pattern's close paren leads to `=>`
    // (optionally via an `if <guard>`).
    match match_bracket(toks, i + 3) {
        Some(close) => !is_arrow_reachable(toks, close + 1),
        None => true,
    }
}

/// Whether the tokens from `j` reach a `=>` before anything that ends a
/// pattern context (`;`, `,`, braces, or a closing bracket at depth
/// zero): true exactly for match-arm patterns like
/// `Msg::Batch(msgs) => ..` or `Msg::Batch(msgs) if cond => ..`. A
/// top-level `,` ends the check because an arm *body* expression
/// (`A => Msg::Batch(v),`) is followed by the next arm, whose own `=>`
/// must not be attributed to this path.
fn is_arrow_reachable(toks: &[crate::lexer::Token], j: usize) -> bool {
    let mut depth = 0i64;
    for t in toks.iter().skip(j).take(24) {
        if t.is_punct("=>") && depth == 0 {
            return true;
        }
        match () {
            _ if t.is_punct("(") || t.is_punct("[") => depth += 1,
            _ if t.is_punct(")") || t.is_punct("]") => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ if depth == 0
                && (t.is_punct(";") || t.is_punct(",") || t.is_punct("{") || t.is_punct("}")) =>
            {
                return false
            }
            _ => {}
        }
    }
    false
}
