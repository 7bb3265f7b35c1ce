//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A buffer is allocated once, before timing starts, and never grows: a
//! span that does not fit is counted and dropped. Buffers are written as
//! Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;

use crate::json;

/// `parent` of a span nobody caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The module the call enters (`api`, `client`, `server`, …).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, in the same buffer, of the span that caused this one.
    pub parent: u32,
    /// Shared by the spans of one operation.
    pub op_id: u64,
}

/// A bounded span store for one thread.
pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(cap: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Stores `span` and returns its index, or drops it when the buffer
    /// is full (it never reallocates).
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as u32)
    }

    /// Sets the end of a span pushed earlier (a parent is pushed before
    /// its children and closed after them).
    pub fn close(&mut self, idx: u32, end_ns: u64) {
        self.spans[idx as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children of one span are calls made one after
/// another on one thread, so their clipped durations add up.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for child in spans {
        if child.parent == NO_PARENT {
            continue;
        }
        let parent = &spans[child.parent as usize];
        let covered = child
            .end_ns
            .min(parent.end_ns)
            .saturating_sub(child.start_ns.max(parent.start_ns));
        let slot = &mut own[child.parent as usize];
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// Chrome trace-event JSON of several buffers, one track each.
pub fn chrome_json(tracks: &[(String, &SpanBuf)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, (track, buf)) in tracks.iter().enumerate() {
        let mut event = |body: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&body);
        };
        event(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{},\"dropped_spans\":{}}}}}",
            json::string(track),
            buf.dropped()
        ));
        for (idx, s) in buf.spans().iter().enumerate() {
            let mut body = String::new();
            write!(
                body,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{idx},\"op_id\":{}",
                json::string(s.name),
                json::string(s.layer),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                s.op_id
            )
            .expect("write to a String");
            if s.parent != NO_PARENT {
                write!(body, ",\"parent\":{}", s.parent).expect("write to a String");
            }
            body.push_str("}}");
            event(body);
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "s",
            layer: "api",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, 100, NO_PARENT), // root
            span(10, 30, 0),         // child: 20
            span(40, 90, 0),         // child: 50, itself a parent
            span(50, 60, 2),         // grandchild: 10
            span(95, 120, 0),        // child clipped to the root: 5
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 40, 10, 25]);
    }

    #[test]
    fn buffer_never_grows() {
        let mut buf = SpanBuf::with_capacity(2);
        let cap = buf.spans.capacity();
        assert_eq!(buf.push(span(0, 0, NO_PARENT)), Some(0));
        buf.close(0, 9);
        assert_eq!(buf.push(span(1, 2, 0)), Some(1));
        assert_eq!(buf.push(span(3, 4, 0)), None);
        assert_eq!((buf.spans().len(), buf.dropped()), (2, 1));
        assert_eq!(buf.spans.capacity(), cap);
        assert_eq!(buf.spans()[0].end_ns, 9);
        let json = chrome_json(&[("w0".to_string(), &buf)]);
        assert!(json.contains("\"dropped_spans\":1") && json.contains("\"parent\":0"));
    }
}
