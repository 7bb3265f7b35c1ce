//! Lightweight item/block scanning over token streams.
//!
//! No AST: items are located by keyword patterns and delimited by
//! balanced-bracket matching. This is exactly as much structure as the
//! passes need (function bodies, test-module ranges, receiver chains)
//! and nothing more.

use std::collections::HashMap;
use std::ops::Range;

use crate::lexer::{Tok, Token};

/// Returns the index of the token closing the bracket opened at `open`
/// (`{`/`(`/`[`). `None` if unbalanced.
pub fn match_bracket(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match &t.tok {
            Tok::Punct("{") | Tok::Punct("(") | Tok::Punct("[") => depth += 1,
            Tok::Punct("}") | Tok::Punct(")") | Tok::Punct("]") => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// A function item: its name and body token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub body: Range<usize>,
    pub line: u32,
}

/// Finds every `fn` item with a body. Nested functions are reported both
/// standalone and as part of the enclosing body; the workspace does not
/// nest functions, so passes need not care.
pub fn functions(toks: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(name) = toks[i + 1].ident() {
                // Scan forward for the body `{` — a `;` at bracket depth 0
                // first means a bodyless trait method.
                let mut j = i + 2;
                let mut found = None;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct("(") | Tok::Punct("[") => {
                            j = match match_bracket(toks, j) {
                                Some(c) => c + 1,
                                None => break,
                            };
                        }
                        Tok::Punct("{") => {
                            found = Some(j);
                            break;
                        }
                        Tok::Punct(";") => break,
                        _ => j += 1,
                    }
                }
                if let Some(open) = found {
                    if let Some(close) = match_bracket(toks, open) {
                        out.push(FnItem {
                            name: name.to_string(),
                            body: open + 1..close,
                            line: toks[i].line,
                        });
                        i = open + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Token index ranges (inclusive of the braces) of `#[cfg(test)] mod`
/// blocks. Test modules embedded in `src` files exercise determinism
/// rather than threaten it, so passes skip them.
pub fn test_ranges(toks: &[Token]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_punct("#") && toks[i + 1].is_punct("[") {
            let Some(close) = match_bracket(toks, i + 1) else {
                break;
            };
            let attr = &toks[i + 2..close];
            let is_cfg_test = attr.first().map(|t| t.is_ident("cfg")).unwrap_or(false)
                && attr.iter().any(|t| t.is_ident("test"));
            if is_cfg_test {
                // Skip further attributes, then require `mod name {`.
                let mut j = close + 1;
                while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
                    match match_bracket(toks, j + 1) {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                if toks.get(j).map(|t| t.is_ident("mod")).unwrap_or(false) {
                    let mut k = j + 1;
                    while k < toks.len() && !toks[k].is_punct("{") && !toks[k].is_punct(";") {
                        k += 1;
                    }
                    if k < toks.len() && toks[k].is_punct("{") {
                        if let Some(end) = match_bracket(toks, k) {
                            out.push(k..end + 1);
                            i = end + 1;
                            continue;
                        }
                    }
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// True if token index `idx` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[Range<usize>], idx: usize) -> bool {
    ranges.iter().any(|r| r.contains(&idx))
}

/// Method names that forward their receiver (for receiver resolution a
/// chain like `self.guard.lock().iter()` resolves to `guard`).
const FORWARDING_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "unwrap",
    "expect",
    "clone",
    "get_mut",
    "entry",
];

/// Resolves the receiver of a method call whose `.` is at `dot`: walks
/// backwards over balanced `()`/`[]` groups and forwarding methods to the
/// last meaningful path segment. `aliases` maps loop/let-bound names to
/// the field they borrow from.
pub fn resolve_receiver(
    toks: &[Token],
    dot: usize,
    aliases: &HashMap<String, String>,
) -> Option<String> {
    resolve_receiver_at(toks, dot, aliases).map(|(name, _)| name)
}

/// Like [`resolve_receiver`], but also returns the token index of the
/// resolved segment — `toks[idx..dot]` is the receiver expression
/// (including any call arguments, e.g. `shard_for ( k )`).
pub fn resolve_receiver_at(
    toks: &[Token],
    dot: usize,
    aliases: &HashMap<String, String>,
) -> Option<(String, usize)> {
    let mut i = dot;
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match &toks[i].tok {
            Tok::Punct(")") | Tok::Punct("]") => {
                // Walk back to the matching opener.
                let mut depth = 0i64;
                loop {
                    match &toks[i].tok {
                        Tok::Punct(")") | Tok::Punct("]") => depth += 1,
                        Tok::Punct("(") | Tok::Punct("[") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if i == 0 {
                        return None;
                    }
                    i -= 1;
                }
                // `i` is at the opener; continue leftwards.
            }
            Tok::Punct("?") => {}
            Tok::Ident(name) => {
                // A forwarding method directly before a consumed call
                // group keeps walking; otherwise this is the segment.
                if FORWARDING_METHODS.contains(&name.as_str())
                    && i + 1 < toks.len()
                    && toks[i + 1].is_punct("(")
                {
                    // Preceded by a `.`? Then skip the method and its dot.
                    if i > 0 && toks[i - 1].is_punct(".") {
                        i -= 1; // now at the `.`; loop decrements further
                        continue;
                    }
                }
                let name = name.clone();
                return Some((aliases.get(&name).cloned().unwrap_or(name), i));
            }
            Tok::Punct(".") | Tok::Punct("::") => {}
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_bodies() {
        let l = lex("impl T for S { fn a(&self) -> u32 { 1 } fn b(); fn c(&self) { 2 } }").unwrap();
        let fns = functions(&l.tokens);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn receiver_resolution() {
        let l = lex("self.guard.lock().iter()").unwrap();
        // Find the `.` before `iter`.
        let dot = l.tokens.iter().position(|t| t.is_ident("iter")).unwrap() - 1;
        let r = resolve_receiver(&l.tokens, dot, &HashMap::new()).unwrap();
        assert_eq!(r, "guard");

        let l2 = lex("self.shards[i].lock()").unwrap();
        let dot2 = l2.tokens.iter().position(|t| t.is_ident("lock")).unwrap() - 1;
        let r2 = resolve_receiver(&l2.tokens, dot2, &HashMap::new()).unwrap();
        assert_eq!(r2, "shards");
    }
}
