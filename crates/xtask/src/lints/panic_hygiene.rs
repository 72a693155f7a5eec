//! `AIIO-P001..P003` — no `unwrap()`, `expect()` or panic macros in
//! library code.
//!
//! A diagnosis *service* (the ROADMAP's north star) must degrade
//! gracefully on malformed logs, not abort; panics in library crates are
//! therefore forbidden, and every unwaived site is a finding. Library
//! code uses `Result` and contextual errors.
//!
//! Rules: `AIIO-P001` = `.unwrap()`, `AIIO-P002` = `.expect(`,
//! `AIIO-P003` = `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
//! `#[cfg(test)]` items, `tests/`, and `benches/` are allowlisted
//! (never scanned); `debug_assert*` is deliberately allowed.

use crate::source::{SourceFile, Workspace};
use crate::{Finding, Lint};

/// The panic-hygiene pass.
#[derive(Debug, Default)]
pub struct PanicHygieneLint;

impl Lint for PanicHygieneLint {
    fn name(&self) -> &'static str {
        "panic-hygiene"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic in library code"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in &ws.files {
            scan_file(file, &mut findings);
        }
        findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        findings
    }
}

fn scan_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let patterns: [(&str, &str, &str); 6] = [
        (".unwrap()", "AIIO-P001", "`.unwrap()`"),
        (".expect(", "AIIO-P002", "`.expect()`"),
        ("panic!", "AIIO-P003", "`panic!`"),
        ("unreachable!", "AIIO-P003", "`unreachable!`"),
        ("todo!", "AIIO-P003", "`todo!`"),
        ("unimplemented!", "AIIO-P003", "`unimplemented!`"),
    ];
    for (pattern, rule, what) in patterns {
        let mut from = 0;
        while let Some(pos) = file.code[from..].find(pattern) {
            let at = from + pos;
            from = at + pattern.len();
            // Word boundary on the left (skips e.g. `debug_unreachable!`
            // and `checked.unwrap()` matching inside longer idents).
            if at > 0 && pattern.as_bytes()[0] != b'.' {
                let prev = file.code.as_bytes()[at - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let line = file.line_of(at);
            if file.is_test_code(line) || file.is_waived(line, rule) {
                continue;
            }
            findings.push(Finding {
                file: file.rel.clone(),
                line,
                rule,
                message: format!("{what} in library code"),
                hint: "return Result with a contextual error instead",
            });
        }
    }
}
