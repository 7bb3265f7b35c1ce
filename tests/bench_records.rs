//! Every `BENCH_*.json` at the repo root — the before/after record that
//! `tools/bench-pairs.sh` writes for a pair of commits — parses, and
//! holds what a reader compares PR to PR: both sides' commits, the run
//! settings, and per workload the failure counts and per metric each
//! side's median and quartiles, the pairs won, the parent's spread, the
//! metric's bound and whether the spread left the reading unresolved.
//! A record backfilled from a hand-copied table names its `source`.
//! With no such file the test passes.

use std::collections::BTreeMap;
use std::path::Path;

/// A parsed JSON value (objects keep their keys sorted; the records do
/// not depend on key order).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// A recursive-descent parser over the bytes of one document.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing bytes at {}", p.at));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.s.get(self.at).copied().ok_or("unexpected end".into())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected '{}' at {}", b as char, self.at));
        }
        self.at += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.s[self.at..].starts_with(word.as_bytes()) {
            return Err(format!("bad literal at {}", self.at));
        }
        self.at += word.len();
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.at += 1;
                let mut obj = BTreeMap::new();
                if self.peek()? == b'}' {
                    self.at += 1;
                    return Ok(Json::Obj(obj));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    if obj.insert(key.clone(), v).is_some() {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    match self.peek()? {
                        b',' => self.at += 1,
                        b'}' => {
                            self.at += 1;
                            return Ok(Json::Obj(obj));
                        }
                        _ => return Err(format!("expected ',' or '}}' at {}", self.at)),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut arr = Vec::new();
                if self.peek()? == b']' {
                    self.at += 1;
                    return Ok(Json::Arr(arr));
                }
                loop {
                    arr.push(self.value()?);
                    match self.peek()? {
                        b',' => self.at += 1,
                        b']' => {
                            self.at += 1;
                            return Ok(Json::Arr(arr));
                        }
                        _ => return Err(format!("expected ',' or ']' at {}", self.at)),
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match e {
                        b'"' | b'\\' | b'/' => e as char,
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u")?;
                            self.at += 4;
                            let code = u32::from_str_radix(std::str::from_utf8(hex).unwrap(), 16)
                                .map_err(|e| e.to_string())?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at {}", self.at)),
                    });
                }
                _ => {
                    // Copy a whole UTF-8 sequence at once.
                    let start = self.at - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self.s.get(start..start + len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.at = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self.at < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.at]) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.at]).unwrap();
        text.parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at {start}"))
    }
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(o) => o.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{key:?} looked up in a non-object {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(o) => o,
            other => panic!("expected an object, found {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("expected a number, found {other:?}"),
        }
    }

    /// A number, or `None` for `null` (a metric a run could not measure).
    fn num_or_null(&self) -> Option<f64> {
        match self {
            Json::Null => None,
            _ => Some(self.num()),
        }
    }

    fn bool(&self) -> bool {
        match self {
            Json::Bool(b) => *b,
            other => panic!("expected a bool, found {other:?}"),
        }
    }

    fn count(&self) -> u64 {
        let x = self.num();
        assert!(x >= 0.0 && x.fract() == 0.0, "expected a count, found {x}");
        x as u64
    }
}

/// The checks one record must pass.
fn check_record(doc: &Json) {
    for side in ["parent", "change"] {
        let s = doc.get(side);
        match s.get("commit") {
            Json::Str(sha) => assert!(
                sha.len() == 40 && sha.bytes().all(|b| b.is_ascii_hexdigit()),
                "{side} commit {sha:?} is not a full sha"
            ),
            other => panic!("{side} commit is {other:?}"),
        }
        assert!(matches!(s.get("worktree"), Json::Bool(_)));
        for host in ["nproc", "cpu_model", "rustc"] {
            s.get(host);
        }
    }
    if let Json::Obj(o) = doc {
        if let Some(source) = o.get("source") {
            assert!(
                matches!(source, Json::Str(s) if s == "EXPERIMENTS.md" || s == "CHANGES.md"),
                "source {source:?}"
            );
        }
    }
    let settings = doc.get("settings");
    assert!(settings.get("seconds").num() > 0.0);
    settings.get("seed").count();
    let pairs = settings.get("pairs").count();
    assert!(pairs > 0);
    let trace = settings.get("trace").count();
    assert!(matches!(trace, 0 | 1));

    let workloads = doc.get("workloads").obj();
    assert!(!workloads.is_empty(), "a record without workloads");
    for (name, w) in workloads {
        let runs = w.get("runs_per_side").count();
        assert!(runs <= pairs, "{name}: {runs} runs of {pairs} pairs");
        for tally in ["failed", "not_correct"] {
            for side in ["parent", "change"] {
                w.get(tally).get(side).count();
            }
        }
        for (metric, m) in w.get("metrics").obj() {
            for side in ["parent", "change"] {
                let q = m.get(side);
                let (q1, median, q3) = (
                    q.get("q1").num_or_null(),
                    q.get("median").num_or_null(),
                    q.get("q3").num_or_null(),
                );
                if let (Some(q1), Some(median), Some(q3)) = (q1, median, q3) {
                    assert!(
                        q1 <= median && median <= q3,
                        "{name} {metric} {side}: quartiles out of order"
                    );
                }
            }
            let won = m.get("pairs_won").count() + m.get("ties").count();
            assert!(won <= runs, "{name} {metric}: {won} of {runs} pairs");
            let iqr = m.get("parent_iqr_rel").num_or_null();
            if let Some(iqr) = iqr {
                assert!(iqr >= 0.0, "{name} {metric}: negative spread");
            }
            // An end-to-end row (the trace-0 table) carries its bound; a
            // reading whose parent spread reaches it is unresolved.
            let bound = m.get("bound").num_or_null();
            assert_eq!(
                bound.is_some(),
                trace == 0,
                "{name} {metric}: bound {bound:?}"
            );
            assert!(
                bound.is_none_or(|b| b > 0.0),
                "{name} {metric}: bound {bound:?}"
            );
            let unresolved = matches!((iqr, bound), (Some(i), Some(b)) if i >= b);
            assert_eq!(
                m.get("unresolved").bool(),
                unresolved,
                "{name} {metric}: parent IQR {iqr:?} against bound {bound:?}"
            );
        }
    }
}

#[test]
fn every_bench_record_at_the_root_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(root).expect("read the repo root") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read a record");
        let doc = Parser::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_record(&doc);
        seen += 1;
    }
    eprintln!("{seen} BENCH_*.json record(s) checked");
}

#[test]
fn the_parser_reads_what_the_records_hold_and_refuses_junk() {
    let doc = Parser::parse(r#"{"a": [1, -2.5e3, null, true], "b": {"c": "x\"yéé"}}"#)
        .expect("valid JSON");
    assert_eq!(
        doc.get("a"),
        &Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-2500.0),
            Json::Null,
            Json::Bool(true),
        ])
    );
    assert_eq!(doc.get("b").get("c"), &Json::Str("x\"yéé".into()));
    for junk in [
        "{",
        "{\"a\": 1,}",
        "[1 2]",
        "{\"a\": 1} x",
        "{\"a\": 1, \"a\": 2}",
        "nul",
    ] {
        assert!(Parser::parse(junk).is_err(), "{junk:?} parsed");
    }
}
