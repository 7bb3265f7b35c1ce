//! Finding type and output formatting (text and JSON).

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (kebab-case), e.g. `lock-cycle`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }

    /// `file:line: [rule] message` — the text output format.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array (machine-readable `--format=json`).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}{}\n",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let f = Finding::new("r", "a\\b.rs", 3, "say \"hi\"\n");
        let json = render_json(std::slice::from_ref(&f));
        assert!(json.contains("a\\\\b.rs"));
        assert!(json.contains("say \\\"hi\\\"\\n"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn text_format() {
        let f = Finding::new("lock-cycle", "crates/x.rs", 7, "boom");
        assert_eq!(f.render_text(), "crates/x.rs:7: [lock-cycle] boom");
    }
}
