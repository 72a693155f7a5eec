//! A lightweight source model: workspace scanning, comment/string
//! stripping, `#[cfg(test)]` masking, inline waivers and function spans.
//!
//! Lints never look at raw text except to read waiver comments; they scan
//! [`SourceFile::code`], a same-length view of the file in which every
//! comment, string literal and char literal has been blanked out. That one
//! transformation removes nearly all textual false positives (`unwrap` in
//! a doc comment, `==` inside a format string, …) while keeping byte
//! offsets and line numbers identical to the original file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Marker that waives the rule named after it on the same line or on the
/// code line below its comment block:
/// `// xtask-allow: AIIO-F001 — exact zero is the sparsity definition`.
pub const WAIVER_MARKER: &str = "xtask-allow:";

/// One scanned `.rs` file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Raw file contents.
    pub raw: String,
    /// Contents with comments and string/char literals blanked to spaces
    /// (newlines preserved), so offsets and line numbers match `raw`.
    pub code: String,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
    /// Per line (0-based): true when inside a `#[cfg(test)]` item.
    test_mask: Vec<bool>,
    /// Per line (0-based): rule IDs whose waiver marker sits on this line.
    waivers: Vec<Vec<String>>,
}

impl SourceFile {
    fn new(rel: String, raw: String) -> SourceFile {
        let code = strip_comments_and_strings(&raw);
        let line_starts = line_starts(&raw);
        let test_mask = test_mask(&code, &line_starts);
        let waivers = waivers(&raw);
        SourceFile {
            rel,
            raw,
            code,
            line_starts,
            test_mask,
            waivers,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, byte: usize) -> usize {
        match self.line_starts.binary_search(&byte) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// True when the 1-based line is inside a `#[cfg(test)]` item.
    pub fn is_test_code(&self, line: usize) -> bool {
        self.test_mask
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// True when `rule` is waived at the 1-based line: the waiver marker is
    /// on the same line, or anywhere in the contiguous comment block
    /// directly above it (so justifications can span several lines).
    pub fn is_waived(&self, line: usize, rule: &str) -> bool {
        let at = |l: usize| {
            self.waivers
                .get(l)
                .map(|rules| rules.iter().any(|r| r == rule))
                .unwrap_or(false)
        };
        let idx = line.saturating_sub(1);
        if at(idx) {
            return true;
        }
        let mut l = idx;
        while l > 0 {
            l -= 1;
            let start = self.line_starts[l];
            let end = self
                .line_starts
                .get(l + 1)
                .copied()
                .unwrap_or(self.raw.len());
            if !self.raw[start..end].trim_start().starts_with("//") {
                return false;
            }
            if at(l) {
                return true;
            }
        }
        false
    }
}

/// The scanned workspace: every library source file under `crates/*/src`
/// plus the root façade's `src/`.
#[derive(Debug)]
pub struct Workspace {
    /// All scanned files, sorted by relative path for stable output.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Scan `root`. Only `src/` trees are loaded: `tests/`, `benches/`,
    /// `examples/` and `crates/xtask/fixtures/` never participate in the
    /// invariants (the panic-hygiene allowlist falls out of this choice).
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let mut src_dirs = vec![root.join("src")];
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            for entry in fs::read_dir(&crates_dir)? {
                src_dirs.push(entry?.path().join("src"));
            }
        }
        for dir in src_dirs {
            if dir.is_dir() {
                walk(&dir, &mut |path| {
                    if path.extension().is_some_and(|e| e == "rs") {
                        let raw = fs::read_to_string(path)?;
                        files.push(SourceFile::new(rel_path(root, path), raw));
                    }
                    Ok(())
                })?;
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { files })
    }

    /// Build a workspace from in-memory sources (rel-path, contents)
    /// pairs — the unit-test entry point for passes that need whole-file
    /// context without touching the filesystem.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .into_iter()
            .map(|(rel, raw)| SourceFile::new(rel, raw))
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace { files }
    }

    /// Look up a file by its workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn walk(dir: &Path, f: &mut dyn FnMut(&Path) -> io::Result<()>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, f)?;
        } else {
            f(&path)?;
        }
    }
    Ok(())
}

/// Byte offsets of line starts (line 1 starts at 0).
fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Blank comments and string/char literals, preserving length and
/// newlines. Handles line/block (nested) comments, plain and raw strings,
/// byte strings, char literals and lifetimes.
pub fn strip_comments_and_strings(raw: &str) -> String {
    let b: Vec<char> = raw.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let n = b.len();
    let mut i = 0;

    // Blank `c`: newlines survive (line numbers must not move), everything
    // else becomes one space PER BYTE so byte offsets stay aligned with
    // `raw` even for multi-byte characters inside comments and strings.
    fn push_blank(out: &mut Vec<char>, c: char) {
        if c == '\n' {
            out.push('\n');
        } else {
            for _ in 0..c.len_utf8() {
                out.push(' ');
            }
        }
    }

    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                push_blank(&mut out, b[i]);
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    push_blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..", r#".."#, br#".."#.
        if (c == 'r' || c == 'b') && !prev_is_ident(&b, i) {
            let mut j = i;
            if b[j] == 'b' && j + 1 < n && b[j + 1] == 'r' {
                j += 1;
            }
            if b[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0;
                while k < n && b[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == '"' {
                    // Blank from i through the closing quote + hashes.
                    let mut m = k + 1;
                    loop {
                        if m >= n {
                            break;
                        }
                        if b[m] == '"'
                            && b[m + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&h| h == '#')
                                .count()
                                == hashes
                        {
                            m += 1 + hashes;
                            break;
                        }
                        m += 1;
                    }
                    for &ch in &b[i..m.min(n)] {
                        push_blank(&mut out, ch);
                    }
                    i = m;
                    continue;
                }
            }
        }
        // Plain or byte string.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"' && !prev_is_ident(&b, i)) {
            let mut j = if c == 'b' { i + 1 } else { i };
            out.push(' ');
            if c == 'b' {
                out.push(' ');
            }
            j += 1; // past the opening quote
            while j < n {
                if b[j] == '\\' && j + 1 < n {
                    push_blank(&mut out, b[j]);
                    push_blank(&mut out, b[j + 1]);
                    j += 2;
                    continue;
                }
                let done = b[j] == '"';
                if done {
                    out.push(' ');
                } else {
                    push_blank(&mut out, b[j]);
                }
                j += 1;
                if done {
                    break;
                }
            }
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = i + 1 < n
                && (b[i + 1] == '\\' || (i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\''));
            if is_char {
                let mut j = i + 1;
                out.push(' ');
                while j < n {
                    if b[j] == '\\' && j + 1 < n {
                        push_blank(&mut out, b[j]);
                        push_blank(&mut out, b[j + 1]);
                        j += 2;
                        continue;
                    }
                    let done = b[j] == '\'';
                    push_blank(&mut out, b[j]);
                    j += 1;
                    if done {
                        break;
                    }
                }
                i = j;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// Mark every line belonging to a `#[cfg(test)]` item (attribute through
/// the matching closing brace) as test code.
fn test_mask(code: &str, line_starts: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; line_starts.len()];
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("#[cfg(test)]") {
        let attr_start = from + pos;
        let attr_end = attr_start + "#[cfg(test)]".len();
        // The item ends at the matching `}` of its first `{`, or at the
        // first `;` if one comes before any brace (e.g. a `use`).
        let mut j = attr_end;
        let mut end = code.len();
        while j < bytes.len() {
            match bytes[j] {
                b';' => {
                    end = j + 1;
                    break;
                }
                b'{' => {
                    end = match_brace(bytes, j).unwrap_or(code.len());
                    break;
                }
                _ => j += 1,
            }
        }
        let first = line_index(line_starts, attr_start);
        let last = line_index(line_starts, end.saturating_sub(1));
        for line in mask.iter_mut().take(last + 1).skip(first) {
            *line = true;
        }
        from = end.max(attr_end);
    }
    mask
}

/// Byte offset just past the brace matching the `{` at `open` (on
/// comment/string-stripped text), or `None` when unbalanced.
pub fn match_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &byte) in bytes.iter().enumerate().skip(open) {
        match byte {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

fn line_index(line_starts: &[usize], byte: usize) -> usize {
    match line_starts.binary_search(&byte) {
        Ok(i) => i,
        Err(i) => i.saturating_sub(1),
    }
}

/// Parse `// xtask-allow: RULE[, RULE...]` comments from the raw text.
fn waivers(raw: &str) -> Vec<Vec<String>> {
    raw.lines()
        .map(|line| {
            let Some(pos) = line.find(WAIVER_MARKER) else {
                return Vec::new();
            };
            let rest = &line[pos + WAIVER_MARKER.len()..];
            // Rule IDs run until the first token that is not id-shaped;
            // anything after (an em-dash, a reason) is commentary.
            let mut rules = Vec::new();
            for token in rest.split([',', ' ']) {
                let token = token.trim();
                if token.is_empty() {
                    continue;
                }
                if token.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
                    && token.chars().any(|c| c.is_ascii_digit())
                {
                    rules.push(token.to_string());
                } else {
                    break;
                }
            }
            rules
        })
        .collect()
}

/// A function found in stripped source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub start: usize,
    /// Signature text (from `fn` to the body's `{` or the trailing `;`).
    pub signature: String,
    /// Body byte range (empty for bodyless trait methods).
    pub body: std::ops::Range<usize>,
}

/// Extract every `fn` item from comment/string-stripped text.
pub fn functions(code: &str) -> Vec<FnSpan> {
    let bytes = code.as_bytes();
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("fn ") {
        let start = from + pos;
        from = start + 3;
        // Word boundary on the left ("fn" must not be a suffix of an ident).
        if start > 0 {
            let prev = bytes[start - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let name: String = code[start + 3..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Walk to the body's opening brace or a terminating `;`. A `;`
        // inside brackets (e.g. `[u8; 32]`) does not terminate.
        let mut j = start;
        let mut body = 0..0;
        let mut sig_end = code.len();
        let mut depth = 0usize;
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' => {
                    depth += 1;
                    j += 1;
                }
                b')' | b']' => {
                    depth = depth.saturating_sub(1);
                    j += 1;
                }
                b';' if depth == 0 => {
                    sig_end = j;
                    break;
                }
                b';' => j += 1,
                b'{' => {
                    sig_end = j;
                    if let Some(end) = match_brace(bytes, j) {
                        body = j..end;
                        from = from.max(j + 1);
                    }
                    break;
                }
                _ => j += 1,
            }
        }
        spans.push(FnSpan {
            name,
            start,
            signature: code[start..sig_end].trim().to_string(),
            body,
        });
    }
    spans
}

/// True when `word` occurs in `text` delimited by non-identifier chars.
pub fn word_present(text: &str, word: &str) -> bool {
    find_word(text, word).is_some()
}

/// Byte offsets of `pat` in `text`; with `word_start`, the previous
/// character must not be part of an identifier (so `channel(` does not
/// match inside `sync_channel(`).
pub fn occurrences(text: &str, pat: &str, word_start: bool) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(pat) {
        let at = from + pos;
        from = at + 1;
        if word_start && at > 0 {
            let prev = bytes[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        out.push(at);
    }
    out
}

/// Offset of `word` in `text` with identifier boundaries on both sides.
pub fn find_word(text: &str, word: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        from = at + 1;
        let left_ok = at == 0 || {
            let c = bytes[at - 1];
            !c.is_ascii_alphanumeric() && c != b'_'
        };
        let end = at + word.len();
        let right_ok = end >= bytes.len() || {
            let c = bytes[end];
            !c.is_ascii_alphanumeric() && c != b'_'
        };
        if left_ok && right_ok {
            return Some(at);
        }
    }
    None
}

/// The `Self` type of the innermost `impl` block containing byte `at` of
/// stripped text `code`:
/// `impl S`, `impl Trait for S`, `impl<T> S<T>` all yield `S`. `None`
/// when `at` sits outside any impl block (free functions).
pub fn impl_type_at(code: &str, at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut innermost: Option<(usize, String)> = None;
    for off in occurrences(code, "impl", true) {
        let after = off + 4;
        if bytes
            .get(after)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
        {
            continue; // `implements`, not the keyword
        }
        // The header runs to the block's `{` at angle/bracket depth 0.
        let mut depth = 0i32;
        let mut open = None;
        let mut i = after;
        while i < bytes.len() {
            match bytes[i] {
                b'<' | b'(' | b'[' => depth += 1,
                b'>' | b')' | b']' => depth -= 1,
                b'{' if depth <= 0 => {
                    open = Some(i);
                    break;
                }
                b';' if depth <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        let Some(end) = match_brace(bytes, open) else {
            continue;
        };
        if !(open < at && at < end) {
            continue;
        }
        if let Some(ty) = impl_self_type(&code[after..open]) {
            if innermost.as_ref().is_none_or(|(o, _)| *o < open) {
                innermost = Some((open, ty));
            }
        }
    }
    innermost.map(|(_, ty)| ty)
}

/// Extract the `Self` type name from an impl header (the text between
/// `impl` and `{`): skip the generic parameter list, take the path after
/// `for` when present, and keep the last segment before any generics.
fn impl_self_type(header: &str) -> Option<String> {
    let mut rest = header.trim_start();
    if let Some(stripped) = rest.strip_prefix('<') {
        let mut depth = 1i32;
        let mut cut = stripped.len();
        for (k, c) in stripped.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &stripped[cut..];
    }
    if let Some(f) = find_word(rest, "for") {
        rest = &rest[f + 3..];
    }
    let rest = rest.trim_start();
    let path: &str = rest
        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .next()
        .unwrap_or("");
    let ty = path.rsplit(':').next().unwrap_or(path);
    (ty.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_'))
    .then(|| ty.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_blanks_comments_and_strings() {
        let code = strip_comments_and_strings(
            "let x = \"a == b\"; // unwrap()\nlet y = 'c'; /* panic! */ let z = 1;",
        );
        assert!(!code.contains("=="));
        assert!(!code.contains("unwrap"));
        assert!(!code.contains("panic"));
        assert!(code.contains("let z = 1;"));
        assert_eq!(code.lines().count(), 2);
    }

    #[test]
    fn stripping_handles_raw_strings_and_lifetimes() {
        let code = strip_comments_and_strings("fn f<'a>(s: &'a str) { let r = r#\"x != y\"#; }");
        assert!(code.contains("fn f<'a>(s: &'a str)"));
        assert!(!code.contains("!="));
    }

    #[test]
    fn test_mask_covers_cfg_test_mods() {
        let raw = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let f = SourceFile::new("x.rs".into(), raw.into());
        assert!(!f.is_test_code(1));
        assert!(f.is_test_code(2));
        assert!(f.is_test_code(4));
        assert!(!f.is_test_code(6));
    }

    #[test]
    fn waivers_apply_to_same_line_and_below_comment_block() {
        let raw = "// xtask-allow: AIIO-F001 — intentional\nlet a = x == 0.0;\nlet b = 1;\n";
        let f = SourceFile::new("x.rs".into(), raw.into());
        assert!(f.is_waived(1, "AIIO-F001"));
        assert!(f.is_waived(2, "AIIO-F001"));
        assert!(!f.is_waived(3, "AIIO-F001"));
        assert!(!f.is_waived(2, "AIIO-D001"));
    }

    #[test]
    fn waivers_reach_through_multi_line_comment_blocks() {
        let raw = "// xtask-allow: AIIO-S001 — reason that\n// spans two comment lines\nfn f() {}\nfn g() {}\n";
        let f = SourceFile::new("x.rs".into(), raw.into());
        assert!(f.is_waived(3, "AIIO-S001"));
        assert!(!f.is_waived(4, "AIIO-S001"));
    }

    #[test]
    fn stripping_preserves_byte_offsets_for_multibyte_chars() {
        let raw = "// em — dash\nlet s = \"naïve\";\n";
        let code = strip_comments_and_strings(raw);
        assert_eq!(code.len(), raw.len());
        assert_eq!(code.find('\n'), raw.find('\n'));
    }

    #[test]
    fn functions_find_names_signatures_and_bodies() {
        let code = "pub fn alpha(x: u8) -> u8 { x }\nfn beta();\nimpl T { fn gamma(&self) -> Attribution { Attribution } }";
        let fns = functions(code);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        assert!(fns[0].signature.contains("-> u8"));
        assert!(fns[1].body.is_empty());
        assert!(fns[2].signature.contains("-> Attribution"));
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(word_present("a PosixReads b", "PosixReads"));
        assert!(!word_present("PosixReadsTotal", "PosixReads"));
        assert!(!word_present("MyPosixReads", "PosixReads"));
    }
}
