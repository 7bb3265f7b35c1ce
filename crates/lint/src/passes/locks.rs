//! Pass 2: lock discipline.
//!
//! Two rules over the protocol/scheduler crates:
//!
//! * **`lock-cycle`** — per function, the sequence of `.lock()` /
//!   `.read()` / `.write()` acquisitions is extracted (tracking
//!   `let`-bound guard lifetimes by block depth and explicit
//!   `drop(guard)`), edges `held → acquired` feed one global lock-order
//!   graph, and every cycle is reported: static deadlock detection by
//!   lock *name* (the field/variable the mutex lives in). `ShardCell`'s
//!   seqlock guards both take the shard latch, so they participate in
//!   lock ordering exactly like plain mutex guards.
//! * **`lock-in-loop`** — an acquisition inside a per-key loop (`for ...
//!   in ... keys ...`) that does not depend on the key re-acquires one
//!   lock — a guard map, the tracker — once per key; the protocol takes
//!   these once per operation or message (PR 15 measured it), and this
//!   rule keeps it that way. An acquisition that names the loop variable
//!   — in its receiver (`self.shard_for(k).write()`), in its argument
//!   (`cursor.write(cfg.shard_of(k))`), or through a `let` of the loop
//!   body derived from it — is a different lock per key and inherent:
//!   that is how shard latches are taken, one key at a time, under the
//!   walk's latch cursor.
//!
//! Limitations (documented, deliberate): analysis is intra-procedural
//! and name-based — two mutexes stored in fields of the same name are
//! one node, and locks taken by callees are invisible. Both biases are
//! toward over-reporting, which the allow annotation absorbs.

use std::collections::HashMap;

use crate::findings::Finding;
use crate::lexer::{Tok, Token};
use crate::passes::determinism::in_scope;
use crate::scan::{functions, in_ranges, match_bracket, resolve_receiver_at, test_ranges};
use crate::workspace::LexedFile;

/// One lock-order edge: `from` was held while `to` was acquired.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    func: String,
}

pub fn run(files: &[LexedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    for f in files.iter().filter(|f| in_scope(&f.path)) {
        let tests = test_ranges(&f.lexed.tokens);
        for item in functions(&f.lexed.tokens) {
            if in_ranges(&tests, item.body.start) {
                continue;
            }
            scan_fn(f, &item.name, item.body.clone(), &mut edges, &mut out);
        }
    }
    report_cycles(&edges, &mut out);
    out
}

#[derive(Debug)]
struct Held {
    name: String,
    /// Brace depth of the binding (guard dies when the block closes) or
    /// `None` for temporaries (guard dies at end of statement).
    depth: Option<i64>,
    binding: Option<String>,
}

fn scan_fn(
    file: &LexedFile,
    func: &str,
    body: std::ops::Range<usize>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    let mut depth: i64 = 0;
    let mut held: Vec<Held> = Vec::new();
    let mut aliases: HashMap<String, String> = HashMap::new();
    // Per-key loops currently open: body brace depth at entry plus the
    // loop pattern's bound variables and the `let` bindings of the body
    // derived from them (a lock whose receiver or argument uses one of
    // them is a *different* lock each iteration — e.g.
    // `self.shard_for(k).lock()`, `cursor.write(idx)` — and is
    // inherent, not hoistable).
    let mut key_loops: Vec<(i64, Vec<String>)> = Vec::new();

    let mut i = body.start;
    while i < body.end {
        match &toks[i].tok {
            Tok::Punct("{") => depth += 1,
            Tok::Punct("}") => {
                depth -= 1;
                held.retain(|h| h.depth.map(|d| d <= depth).unwrap_or(true));
                key_loops.retain(|(d, _)| *d <= depth);
            }
            Tok::Punct(";") => {
                held.retain(|h| h.depth.is_some());
            }
            Tok::Ident(id) if id == "for" => {
                // Parse `for <pat> in <expr> {`.
                let mut j = i + 1;
                while j < body.end && !toks[j].is_ident("in") {
                    match &toks[j].tok {
                        Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                            j = match_bracket(toks, j).map(|c| c + 1).unwrap_or(body.end);
                        }
                        _ => j += 1,
                    }
                }
                let pat_single = if j == i + 2 {
                    toks[i + 1].ident().map(|s| s.to_string())
                } else {
                    None
                };
                if j < body.end {
                    let expr_start = j + 1;
                    let mut k = expr_start;
                    while k < body.end && !toks[k].is_punct("{") {
                        match &toks[k].tok {
                            Tok::Punct("(") | Tok::Punct("[") => {
                                k = match_bracket(toks, k).map(|c| c + 1).unwrap_or(body.end);
                            }
                            _ => k += 1,
                        }
                    }
                    let expr = &toks[expr_start..k.min(body.end)];
                    // Per-key loop: the iterated expression mentions `keys`
                    // (or the plan scratch, which is keyed).
                    if expr
                        .iter()
                        .any(|t| matches!(t.ident(), Some("keys") | Some("plan")))
                    {
                        let pat_vars: Vec<String> = toks[i + 1..j]
                            .iter()
                            .filter_map(|t| t.ident())
                            .filter(|s| !matches!(*s, "mut" | "ref" | "_"))
                            .map(|s| s.to_string())
                            .collect();
                        key_loops.push((depth + 1, pat_vars));
                    }
                    // Alias: `for s in &self.shards` binds s -> shards.
                    if let (Some(p), Some(seg)) =
                        (pat_single, expr.iter().rev().find_map(|t| t.ident()))
                    {
                        if p != seg {
                            aliases.insert(p, seg.to_string());
                        }
                    }
                }
            }
            Tok::Ident(id) if id == "drop" && i + 2 < body.end && toks[i + 1].is_punct("(") => {
                if let Some(g) = toks[i + 2].ident() {
                    held.retain(|h| h.binding.as_deref() != Some(g));
                }
            }
            Tok::Ident(id) if matches!(id.as_str(), "lock" | "read" | "write") => {
                // `.lock()` / `.read()` / `.write()` call? (The seqlock
                // guards hold the same shard latch as `.lock()` did, so
                // they are acquisitions for ordering purposes.)
                let is_call = i > 0
                    && toks[i - 1].is_punct(".")
                    && i + 1 < body.end
                    && toks[i + 1].is_punct("(");
                if is_call {
                    let Some((name, seg)) = resolve_receiver_at(toks, i - 1, &aliases) else {
                        i += 1;
                        continue;
                    };
                    let line = toks[i].line;
                    // Edges from everything currently held.
                    for h in &held {
                        if h.name != name {
                            edges.push(Edge {
                                from: h.name.clone(),
                                to: name.clone(),
                                file: file.path.clone(),
                                line,
                                func: func.to_string(),
                            });
                        }
                    }
                    // Key-dependent acquisitions — the loop variable in
                    // the receiver (`self.shard_for(k).lock()`) or in the
                    // argument (`cursor.write(shard_of(k))`) — name a
                    // different lock per iteration; only loop-invariant
                    // acquisitions are hoistable regressions.
                    let args_end = match_bracket(toks, i + 1).unwrap_or(i + 1);
                    let key_dependent = key_loops.iter().any(|(_, vars)| {
                        names_any(&toks[seg..i - 1], vars)
                            || names_any(&toks[i + 1..args_end], vars)
                    });
                    if !key_loops.is_empty() && !key_dependent {
                        out.push(Finding::new(
                            "lock-in-loop",
                            &file.path,
                            line,
                            format!(
                                "`{name}.{id}()` inside a per-key loop in fn {func} — \
                                 the same lock every iteration: acquire guard maps and \
                                 trackers once per op, not once per key"
                            ),
                        ));
                    }
                    // Binding: scan back to statement start for `let g =`.
                    let binding = let_binding_for(toks, body.start, i);
                    held.push(Held {
                        name,
                        depth: binding.as_ref().map(|_| depth),
                        binding,
                    });
                }
            }
            Tok::Ident(id) if id == "let" => {
                // `let s = &self.shards[i];` alias for lock naming.
                if let Some((bound, init_start)) = simple_let(toks, i, body.end) {
                    let mut k = init_start;
                    let mut end = init_start;
                    while end < body.end && !toks[end].is_punct(";") {
                        match &toks[end].tok {
                            Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                                end = match_bracket(toks, end).map(|c| c + 1).unwrap_or(body.end);
                            }
                            _ => end += 1,
                        }
                    }
                    // A binding computed from a loop variable is as
                    // key-dependent as the variable (`let idx =
                    // shard_of(k);`).
                    for (_, vars) in &mut key_loops {
                        if names_any(&toks[init_start..end], vars) {
                            vars.push(bound.clone());
                        }
                    }
                    // Only alias plain borrows (no calls) — guard bindings
                    // are handled at the `.lock()` site.
                    let mut has_call = false;
                    let mut last_seg = None;
                    while k < end {
                        match &toks[k].tok {
                            Tok::Punct("(") => has_call = true,
                            Tok::Ident(s) => last_seg = Some(s.clone()),
                            _ => {}
                        }
                        k += 1;
                    }
                    if !has_call {
                        if let Some(seg) = last_seg {
                            if seg != bound {
                                let target = aliases.get(&seg).cloned().unwrap_or(seg);
                                aliases.insert(bound, target);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Whether an expression mentions one of `vars`.
fn names_any(expr: &[Token], vars: &[String]) -> bool {
    expr.iter()
        .filter_map(|t| t.ident())
        .any(|id| vars.iter().any(|v| v == id))
}

/// If the statement containing token `at` is `let [mut] g = ...`, returns
/// `g`. Shared with the seqlock pass, which tracks read-guard bindings.
pub(crate) fn let_binding_for(toks: &[Token], lo: usize, at: usize) -> Option<String> {
    let mut i = at;
    while i > lo {
        i -= 1;
        match &toks[i].tok {
            Tok::Punct(";") | Tok::Punct("{") | Tok::Punct("}") => {
                i += 1;
                break;
            }
            _ => {}
        }
    }
    if toks.get(i)?.is_ident("let") {
        let mut j = i + 1;
        if matches!(toks.get(j).map(|t| t.ident()), Some(Some("mut"))) {
            j += 1;
        }
        let name = toks.get(j)?.ident()?.to_string();
        // Must be a simple binding (next token `:` or `=`).
        match toks.get(j + 1).map(|t| &t.tok) {
            Some(Tok::Punct("=")) | Some(Tok::Punct(":")) => Some(name),
            _ => None,
        }
    } else {
        None
    }
}

/// If `toks[i]` starts `let [mut] name = ...`, returns the bound name and
/// the initializer start index.
fn simple_let(toks: &[Token], i: usize, end: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if matches!(toks.get(j).map(|t| t.ident()), Some(Some("mut"))) {
        j += 1;
    }
    let name = toks.get(j)?.ident()?.to_string();
    let mut k = j + 1;
    // Optional type ascription up to `=` (brackets balanced).
    while k < end {
        match &toks[k].tok {
            Tok::Punct("=") => return Some((name, k + 1)),
            Tok::Punct("<")
            | Tok::Punct(">")
            | Tok::Punct("::")
            | Tok::Punct(":")
            | Tok::Punct("&")
            | Tok::Punct(",") => k += 1,
            Tok::Ident(_) | Tok::Lifetime => k += 1,
            Tok::Punct("(") | Tok::Punct("[") => {
                k = match_bracket(toks, k)? + 1;
            }
            _ => return None,
        }
    }
    None
}

fn report_cycles(edges: &[Edge], out: &mut Vec<Finding>) {
    // Adjacency with one example edge per (from, to), deterministically
    // ordered.
    let mut adj: std::collections::BTreeMap<&str, Vec<&Edge>> = std::collections::BTreeMap::new();
    for e in edges {
        let entry = adj.entry(e.from.as_str()).or_default();
        if !entry.iter().any(|x| x.to == e.to) {
            entry.push(e);
        }
    }
    for v in adj.values_mut() {
        v.sort_by(|a, b| a.to.cmp(&b.to));
    }
    // One cycle report per start node that is the lexicographically
    // smallest node of its cycle — dedups rotations of the same cycle.
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&Edge> = Vec::new();
        if find_cycle(&adj, start, start, &mut path) {
            let order: Vec<String> = path
                .iter()
                .map(|e| {
                    format!(
                        "{} -> {} ({}:{} in fn {})",
                        e.from, e.to, e.file, e.line, e.func
                    )
                })
                .collect();
            let first = path[0];
            out.push(Finding::new(
                "lock-cycle",
                &first.file,
                first.line,
                format!("lock-order cycle: {}", order.join("; ")),
            ));
        }
    }
}

/// DFS for a path `node -> ... -> start` using only nodes >= `start`
/// (so each cycle is reported exactly once, from its smallest node).
/// Appends the cycle's edges to `path` and returns true if found.
fn find_cycle<'e>(
    adj: &std::collections::BTreeMap<&str, Vec<&'e Edge>>,
    start: &str,
    node: &str,
    path: &mut Vec<&'e Edge>,
) -> bool {
    let Some(succs) = adj.get(node) else {
        return false;
    };
    for e in succs {
        if e.to == start {
            path.push(e);
            return true;
        }
        if e.to.as_str() < start || path.iter().any(|p| p.to == e.to) {
            continue;
        }
        path.push(e);
        if find_cycle(adj, start, e.to.as_str(), path) {
            return true;
        }
        path.pop();
    }
    false
}
