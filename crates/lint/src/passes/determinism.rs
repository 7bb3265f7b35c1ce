//! Pass 1: determinism.
//!
//! The CI bit-identical smoke diff (and the simulator's replayability)
//! assume no iteration-order or wall-clock nondeterminism can reach
//! message emission or scheduling. In the protocol/scheduler crates
//! (`proto`, `sim`, `core`, `net`) this pass flags:
//!
//! * iteration over `std::collections::HashMap`/`HashSet` values
//!   (`nondet-iter`) — identifiers are classified by declared type
//!   (struct fields, params, lets; `Arc`/`Mutex`/... wrappers are looked
//!   through, containers like `Vec` are not) with hash-typed *field*
//!   names shared across files, and guard bindings produced by
//!   `.lock()` on a hash-typed value inherit the classification;
//! * `Instant::now` / `SystemTime` wall-clock reads (`wall-clock`);
//! * entropy-seeded RNG construction (`entropy`);
//! * `thread::sleep` / `thread::park_timeout` timed blocking
//!   (`thread-sleep`) — waits on protocol state must be bounded spins
//!   (the serving plane's stale-wait, bounded by attempts; the spin
//!   stage of the threaded worker's `WakeCell::wait_until`, bounded by
//!   an allowed clock read, after which it parks until notified) or
//!   channel receives, never a wall-clock stall that couples schedules
//!   to elapsed time.
//!
//! Point lookups (`get`, `entry`, `contains_key`, ...) are always fine —
//! only order-revealing operations are flagged. Benign sites carry a
//! `// lint:allow(<rule>, reason)`.

use std::collections::{HashMap, HashSet};

use crate::findings::Finding;
use crate::lexer::{Tok, Token};
use crate::scan::{in_ranges, match_bracket, resolve_receiver, test_ranges};
use crate::workspace::LexedFile;

/// Crate `src` trees the pass applies to.
pub const SCOPE: &[&str] = &[
    "crates/proto/src/",
    "crates/sim/src/",
    "crates/core/src/",
    "crates/net/src/",
];

/// Order-revealing methods on hash collections.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Wrapper types looked through when classifying a declared type.
const WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell", "Option",
];

pub fn in_scope(path: &str) -> bool {
    SCOPE.iter().any(|s| path.contains(s))
}

pub fn run(files: &[LexedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Phase A: hash-typed names declared anywhere in scope (struct fields
    // are shared across files: `shard.loc_cache` in client.rs refers to a
    // field declared in shard.rs).
    let mut global: HashSet<String> = HashSet::new();
    for f in files.iter().filter(|f| in_scope(&f.path)) {
        let tests = test_ranges(&f.lexed.tokens);
        collect_declared_hash_names(&f.lexed.tokens, &tests, &mut global);
    }
    // Phase B: per-file binding propagation + site scan. `#[cfg(test)]`
    // modules are skipped: tests exercise determinism, they don't emit
    // messages.
    for f in files.iter().filter(|f| in_scope(&f.path)) {
        let tests = test_ranges(&f.lexed.tokens);
        let mut names = global.clone();
        propagate_let_bindings(&f.lexed.tokens, &mut names);
        scan_iteration_sites(f, &tests, &names, &mut out);
        scan_clock_and_entropy(f, &tests, &mut out);
    }
    out
}

/// True if the type starting at `toks[i]` is `HashMap`/`HashSet`, looking
/// through references and `WRAPPERS` (but not through containers: a
/// `Vec<HashMap<..>>` is not itself hash-iterated).
fn type_is_hash(toks: &[Token], mut i: usize) -> bool {
    loop {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct("&")) | Some(Tok::Lifetime) => i += 1,
            Some(Tok::Ident(s)) if s == "mut" || s == "dyn" || s == "impl" => i += 1,
            _ => break,
        }
    }
    // Collect the leading path segments (`std::collections::HashMap`,
    // or a `HashMap::new()` constructor in a struct literal).
    let mut last = None;
    let mut any_hash = false;
    while let Some(Tok::Ident(s)) = toks.get(i).map(|t| &t.tok) {
        last = Some(s.as_str());
        any_hash |= s == "HashMap" || s == "HashSet";
        if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct("::"))) {
            i += 2;
        } else {
            i += 1;
            break;
        }
    }
    if any_hash {
        return true;
    }
    match last {
        Some(w) if WRAPPERS.contains(&w) => {
            if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct("<"))) {
                type_is_hash(toks, i + 1)
            } else {
                false
            }
        }
        _ => false,
    }
}

/// Collects identifiers declared with a hash type: `name: HashMap<..>`
/// field/param/ascription forms plus `name: HashMap::new()` struct-literal
/// initializers (the path form also classifies as hash).
fn collect_declared_hash_names(
    toks: &[Token],
    tests: &[std::ops::Range<usize>],
    names: &mut HashSet<String>,
) {
    for i in 0..toks.len() {
        if in_ranges(tests, i) {
            continue;
        }
        let Some(Tok::Ident(name)) = toks.get(i).map(|t| &t.tok) else {
            continue;
        };
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(":"))) {
            continue;
        }
        if type_is_hash(toks, i + 2) {
            names.insert(name.clone());
        }
    }
}

/// Methods that return the receiver collection itself (or a guard/view of
/// it). Element accessors (`get`, `entry`, ...) and iterator adapters do
/// NOT forward: `map.get_mut(&k)` is an element, not the map.
const VALUE_FORWARDING: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "clone",
    "as_ref",
    "as_mut",
    "unwrap",
    "expect",
];

/// True if `init` is a pure forwarding chain ending in a hash-typed name
/// (`self.guard.lock()`, `&map`, `map.clone().unwrap()`) or a
/// `HashMap`/`HashSet` constructor path (`HashMap::new()`). Anything
/// else — arbitrary calls, operators, literals — is conservatively NOT
/// propagated: a value merely *derived from* a hash map (a length, an
/// element, an index) does not expose iteration order.
fn init_is_hash_chain(init: &[Token], names: &HashSet<String>) -> bool {
    let mut i = 0;
    while matches!(init.get(i).map(|t| &t.tok), Some(Tok::Punct("&")))
        || matches!(init.get(i).map(|t| t.ident()), Some(Some("mut")))
    {
        i += 1;
    }
    let mut last_seg: Option<&str> = None;
    let mut hash_ctor = false;
    while i < init.len() {
        match &init[i].tok {
            Tok::Ident(id) => {
                if VALUE_FORWARDING.contains(&id.as_str())
                    && matches!(init.get(i + 1).map(|t| &t.tok), Some(Tok::Punct("(")))
                {
                    // Forwarding call: consume `name ( ... )`.
                    let Some(c) = match_bracket(init, i + 1) else {
                        return false;
                    };
                    i = c + 1;
                } else {
                    hash_ctor |= id == "HashMap" || id == "HashSet";
                    last_seg = Some(id);
                    i += 1;
                }
            }
            Tok::Punct(".") | Tok::Punct("::") | Tok::Punct("?") => i += 1,
            Tok::Punct("[") => {
                // Indexing forwards only through plain containers; be
                // conservative and keep walking the chain.
                let Some(c) = match_bracket(init, i) else {
                    return false;
                };
                i = c + 1;
            }
            Tok::Punct("(") if hash_ctor => {
                // Constructor call arguments: `HashMap::with_capacity(n)`.
                let Some(c) = match_bracket(init, i) else {
                    return false;
                };
                i = c + 1;
            }
            _ => return false,
        }
    }
    hash_ctor || last_seg.map(|s| names.contains(s)).unwrap_or(false)
}

/// Marks `let` bindings whose initializer is a forwarding chain on a
/// hash-typed name or a `HashMap`/`HashSet` constructor:
/// `let g = self.guard.lock();` makes `g` hash-typed too.
fn propagate_let_bindings(toks: &[Token], names: &mut HashSet<String>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if matches!(toks.get(j).map(|t| t.ident()), Some(Some("mut"))) {
                j += 1;
            }
            let Some(Tok::Ident(bound)) = toks.get(j).map(|t| &t.tok) else {
                i += 1;
                continue;
            };
            let bound = bound.clone();
            // Find `=` then the end of statement at depth 0.
            let mut k = j + 1;
            let mut init_start = None;
            while k < toks.len() {
                match &toks[k].tok {
                    Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                        if init_start.is_none() {
                            break; // `let Pat(..) =` destructuring — skip
                        }
                        k = match_bracket(toks, k).map(|c| c + 1).unwrap_or(toks.len());
                    }
                    Tok::Punct("=") => {
                        if init_start.is_none() {
                            init_start = Some(k + 1);
                        }
                        k += 1;
                    }
                    Tok::Punct(";") => break,
                    _ => k += 1,
                }
            }
            if let Some(s) = init_start {
                let init = &toks[s..k.min(toks.len())];
                if init_is_hash_chain(init, names) {
                    names.insert(bound);
                }
            }
            i = k;
            continue;
        }
        i += 1;
    }
}

fn scan_iteration_sites(
    file: &LexedFile,
    tests: &[std::ops::Range<usize>],
    names: &HashSet<String>,
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    let aliases = HashMap::new();
    for i in 0..toks.len() {
        if in_ranges(tests, i) {
            continue;
        }
        // `.method(` where method is order-revealing.
        if toks[i].is_punct(".") {
            let Some(Tok::Ident(m)) = toks.get(i + 1).map(|t| &t.tok) else {
                continue;
            };
            if !ITER_METHODS.contains(&m.as_str()) {
                continue;
            }
            if !matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct("("))) {
                continue;
            }
            let Some(recv) = resolve_receiver(toks, i, &aliases) else {
                continue;
            };
            if names.contains(&recv) {
                out.push(Finding::new(
                    "nondet-iter",
                    &file.path,
                    toks[i + 1].line,
                    format!(
                        "`.{m}()` on hash-typed `{recv}` — iteration order is nondeterministic; \
                         sort first or use a BTree collection"
                    ),
                ));
            }
        }
        // `for pat in [&[mut]] path { ... }` over a hash-typed value.
        if toks[i].is_ident("for") {
            let mut j = i + 1;
            // Pattern: up to `in` at depth 0.
            while j < toks.len() && !toks[j].is_ident("in") {
                match &toks[j].tok {
                    Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                        j = match_bracket(toks, j).map(|c| c + 1).unwrap_or(toks.len());
                    }
                    Tok::Punct(";") => break,
                    _ => j += 1,
                }
            }
            if j >= toks.len() || !toks[j].is_ident("in") {
                continue;
            }
            // Expression: up to `{` at depth 0; flag only simple paths
            // (method-call forms are caught by the `.iter()` scan above).
            let mut k = j + 1;
            let expr_start = k;
            let mut simple = true;
            while k < toks.len() && !toks[k].is_punct("{") {
                match &toks[k].tok {
                    Tok::Punct("(") => {
                        simple = false;
                        k = match_bracket(toks, k).map(|c| c + 1).unwrap_or(toks.len());
                    }
                    Tok::Punct("[") => {
                        k = match_bracket(toks, k).map(|c| c + 1).unwrap_or(toks.len());
                    }
                    _ => k += 1,
                }
            }
            if !simple || k >= toks.len() {
                continue;
            }
            let expr = &toks[expr_start..k];
            let last_seg = expr.iter().rev().find_map(|t| t.ident());
            if let Some(seg) = last_seg {
                if names.contains(seg)
                    && expr.iter().all(|t| {
                        matches!(
                            &t.tok,
                            Tok::Ident(_)
                                | Tok::Punct("&")
                                | Tok::Punct(".")
                                | Tok::Punct("::")
                                | Tok::Punct("]")
                                | Tok::Punct("[")
                        ) || matches!(t.tok, Tok::Int(_))
                    })
                {
                    out.push(Finding::new(
                        "nondet-iter",
                        &file.path,
                        toks[expr_start].line,
                        format!(
                            "`for` over hash-typed `{seg}` — iteration order is nondeterministic; \
                             sort first or use a BTree collection"
                        ),
                    ));
                }
            }
        }
    }
}

fn scan_clock_and_entropy(
    file: &LexedFile,
    tests: &[std::ops::Range<usize>],
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if in_ranges(tests, i) {
            continue;
        }
        match toks[i].ident() {
            Some("Instant") | Some("SystemTime") => {
                let src = toks[i].ident().unwrap();
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct("::")))
                    && matches!(toks.get(i + 2).map(|t| t.ident()), Some(Some("now")))
                {
                    out.push(Finding::new(
                        "wall-clock",
                        &file.path,
                        toks[i].line,
                        format!(
                            "`{src}::now()` in a protocol/scheduling crate — wall-clock reads \
                             must not influence emitted messages or schedules"
                        ),
                    ));
                }
            }
            Some(m @ ("sleep" | "park_timeout"))
                if matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct("::"))
                ) && matches!(
                    toks.get(i.wrapping_sub(2)).map(|t| t.ident()),
                    Some(Some("thread"))
                ) =>
            {
                // `thread::sleep` calls *and* imports: like `entropy`,
                // flagging the `use` is the stronger guarantee.
                out.push(Finding::new(
                    "thread-sleep",
                    &file.path,
                    toks[i].line,
                    format!(
                        "`thread::{m}` in a protocol/scheduling crate — timed blocking \
                         couples behavior to wall-clock; wait with a bounded spin or a \
                         channel receive instead"
                    ),
                ));
            }
            Some("thread_rng") | Some("from_entropy") | Some("OsRng") => {
                // Skip path *definitions* (`use rand::thread_rng` still
                // counts; a later call site is what matters, but flagging
                // the import is a stronger guarantee).
                out.push(Finding::new(
                    "entropy",
                    &file.path,
                    toks[i].line,
                    format!(
                        "`{}` — entropy-seeded randomness in a protocol/scheduling crate; \
                         derive seeds from the run configuration instead",
                        toks[i].ident().unwrap()
                    ),
                ));
            }
            _ => {}
        }
    }
}
