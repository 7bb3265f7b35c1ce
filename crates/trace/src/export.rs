//! Trace exporters: Chrome trace-event JSON (Perfetto) and text dump.
//!
//! Both exporters are deterministic functions of the recorded events:
//! lanes are emitted in sorted `(node, actor, name)` order, events in
//! global-sequence order, and microsecond timestamps are formatted with
//! integer math (`ns / 1000` + a fixed 3-digit fraction) so no float
//! formatting can perturb a byte-for-byte diff.

use crate::{Event, EventKind, Recorder, CLASS_NAMES, PHASE_NAMES};

/// Nanoseconds → trace-event microseconds, as an exact decimal string
/// (a valid JSON number).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Minimal JSON string escape for the names we emit (ASCII labels).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The (class, phase) indices of an `op.phase` event, `None` for any
/// other event or for indices outside [`CLASS_NAMES`] × [`PHASE_NAMES`].
fn phase_of(e: &Event) -> Option<(usize, usize)> {
    let (class, phase) = ((e.a >> 32) as usize, (e.a & 0xffff_ffff) as usize);
    (e.kind == EventKind::OpPhase && class < CLASS_NAMES.len() && phase < PHASE_NAMES.len())
        .then_some((class, phase))
}

/// Display name for an event: phase spans get their `class.phase` name
/// (`pull.plan`), everything else the kind's dotted name.
fn event_name(e: &Event) -> &'static str {
    const SPAN_NAMES: [[&str; 3]; 3] = [
        ["pull.plan", "pull.shard", "pull.emit"],
        ["push.plan", "push.shard", "push.emit"],
        ["localize.plan", "localize.shard", "localize.emit"],
    ];
    match phase_of(e) {
        Some((class, phase)) => SPAN_NAMES[class][phase],
        None => e.kind.name(),
    }
}

pub(crate) fn chrome(rec: &Recorder) -> String {
    let lanes = rec.lanes_sorted();
    let events = rec.take_events();
    let mut entries: Vec<String> = Vec::with_capacity(events.len() + 2 * lanes.len());
    // Process (node) and thread (lane) name metadata, sorted order.
    let mut last_node = None;
    for lane in &lanes {
        if last_node != Some(lane.node) {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"node {}\"}}}}",
                lane.node, lane.node
            ));
            last_node = Some(lane.node);
        }
        entries.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            lane.node,
            lane.actor,
            escape(&lane.name)
        ));
    }
    for e in &events {
        let name = event_name(e);
        if e.kind.is_span() {
            entries.push(format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"lapse\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"seq\":{},\"a\":{},\"b\":{}}}}}",
                e.node,
                e.actor,
                name,
                fmt_us(e.ts.saturating_sub(e.b)),
                fmt_us(e.b),
                e.seq,
                e.a,
                e.b
            ));
        } else {
            entries.push(format!(
                "{{\"ph\":\"i\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"lapse\",\
                 \"ts\":{},\"s\":\"t\",\"args\":{{\"seq\":{},\"a\":{},\"b\":{}}}}}",
                e.node,
                e.actor,
                name,
                fmt_us(e.ts),
                e.seq,
                e.a,
                e.b
            ));
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

pub(crate) fn text(rec: &Recorder) -> String {
    let lanes = rec.lanes_sorted();
    let events = rec.take_events();
    let mut out = String::new();
    out.push_str(&format!(
        "lanes: {}, events: {}, dropped: {}\n",
        lanes.len(),
        events.len(),
        rec.dropped()
    ));
    for lane in &lanes {
        out.push_str(&format!(
            "  lane n{}/a{} {:12} dropped={}\n",
            lane.node,
            lane.actor,
            lane.name,
            lane.dropped()
        ));
    }
    for e in &events {
        out.push_str(&format!(
            "  [{:>8}] {:>14}ns n{}/a{:<4} {:<18} a={} b={}\n",
            e.seq,
            e.ts,
            e.node,
            e.actor,
            event_name(e),
            e.a,
            e.b
        ));
    }
    out.push_str("phase percentiles (ns):\n");
    let mut durations: [[Vec<u64>; 3]; 3] = Default::default();
    for e in &events {
        if let Some((class, phase)) = phase_of(e) {
            durations[class][phase].push(e.b);
        }
    }
    for (class, per_phase) in CLASS_NAMES.iter().zip(&mut durations) {
        for (phase, d) in PHASE_NAMES.iter().zip(per_phase) {
            if d.is_empty() {
                continue;
            }
            d.sort_unstable();
            out.push_str(&format!(
                "  {class}.{phase}: count={} p50={} p99={} p999={} max={}\n",
                d.len(),
                nearest_rank(d, 500),
                nearest_rank(d, 990),
                nearest_rank(d, 999),
                d[d.len() - 1]
            ));
        }
    }
    out
}

/// The nearest-rank `per_mille`‰ percentile of the sorted, non-empty
/// `sorted`: its ⌈n·p⌉-th smallest value.
fn nearest_rank(sorted: &[u64], per_mille: usize) -> u64 {
    let rank = (sorted.len() * per_mille).div_ceil(1000);
    sorted[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeFn, ACTOR_SERVER, ACTOR_WORKER0};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn counting_time() -> TimeFn {
        let t = AtomicU64::new(0);
        Arc::new(move || t.fetch_add(1_500, Ordering::Relaxed))
    }

    fn sample_recorder() -> Arc<Recorder> {
        let rec = Recorder::new(counting_time(), 16);
        let w = rec.tracer(0, ACTOR_WORKER0, "n0/w0");
        let s = rec.tracer(1, ACTOR_SERVER, "n1/server");
        w.record(EventKind::OpIssue, crate::CLASS_PULL, 4);
        w.record_at(
            EventKind::OpPhase,
            5_000,
            crate::CLASS_PULL << 32 | crate::PHASE_PLAN,
            2_000,
        );
        s.record(EventKind::MsgRecv, 3, 4);
        rec
    }

    #[test]
    fn chrome_export_shape() {
        let json = sample_recorder().export_chrome();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"node 0\""));
        assert!(json.contains("\"name\":\"n1/server\""));
        // The phase span renders as a complete event starting at
        // end − dur = 5000 − 2000 = 3000 ns = 3.000 µs.
        assert!(json.contains("\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"pull.plan\""));
        assert!(json.contains("\"ts\":3.000,\"dur\":2.000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"msg.recv\""));
    }

    #[test]
    fn chrome_export_deterministic() {
        let a = sample_recorder().export_chrome();
        let b = sample_recorder().export_chrome();
        assert_eq!(a, b, "identical event streams export byte-identically");
    }

    #[test]
    fn text_export_mentions_phases() {
        let text = sample_recorder().export_text();
        assert!(text.contains("lanes: 2"));
        assert!(text.contains("pull.plan: count=1"));
        assert!(text.contains("op.issue"));
    }

    #[test]
    fn phase_percentiles_come_from_the_events() {
        let rec = Recorder::new(Arc::new(|| 0), 512);
        let w = rec.tracer(0, ACTOR_WORKER0, "n0/w0");
        let push = crate::CLASS_PUSH << 32;
        for i in 0..100 {
            w.record(EventKind::OpPhase, push | crate::PHASE_PLAN, 1_000 + i);
            w.record(EventKind::OpPhase, push | crate::PHASE_EMIT, 3_000_000);
        }
        let text = rec.export_text();
        // Nearest rank over 1000..=1099: the 50th, 99th and 100th value.
        assert!(
            text.contains("push.plan: count=100 p50=1049 p99=1098 p999=1099 max=1099\n"),
            "{text}"
        );
        assert!(text.contains("push.emit: count=100 p50=3000000 "), "{text}");
        assert!(text.contains("max=3000000\n"), "{text}");
        assert!(!text.contains("push.shard:"), "{text}");
        assert!(!text.contains("pull.plan:"), "{text}");
    }

    #[test]
    fn fmt_us_integer_math() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_us(1_000), "1.000");
        assert_eq!(fmt_us(1_234_567), "1234.567");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
