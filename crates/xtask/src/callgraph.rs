//! A lightweight workspace call graph for interprocedural passes.
//!
//! Built on the same comment/string-stripped text as every other pass
//! (see [`crate::source`]): every non-test `fn` item becomes a node, and
//! call sites are resolved *by name* to every workspace function sharing
//! that name. That over-approximation is deliberate — the consumers
//! (today: the concurrency pass) propagate *may*-facts ("may block",
//! "may acquire lock L") where a false edge costs at most a waivable
//! finding, never a missed report on a resolved path.
//!
//! A few guards keep the over-approximation from drowning the signal:
//!
//! * method calls with ubiquitous collection/iterator names (`len`,
//!   `map`, `iter`, …) are left unresolved — `tail.len()` must not pick
//!   up `Bounded::len` just because both are called `len`. Qualified
//!   calls (`aiio_par::map(..)`) always resolve.
//! * qualified calls through well-known std types (`Arc::new`,
//!   `Vec::with_capacity`, …) are left unresolved.
//! * an empty-argument `.lock()`/`.read()`/`.write()`/`.try_*()` on any
//!   receiver but `self` is a std lock acquisition: it never resolves to
//!   a workspace guard helper (`fn lock(&self) -> MutexGuard<…>`), so
//!   `repl.lock()` does not also "acquire" some other type's private lock.
//! * a free `drop(x)` (or `mem::drop(x)`) is the prelude function: it
//!   never resolves to a workspace `impl Drop` body, which Rust does not
//!   let code call by name.
//! * a qualified call `Type::name(` through a workspace type resolves
//!   only to the `name` fns in `Type`'s `impl` blocks, so
//!   `ReplSource::of(` does not pick up `Layout::of`. When those blocks
//!   define no `name` (a trait's default method), it falls back to every
//!   `name`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::source::{functions, impl_type_at, Workspace};

/// One function node: where it lives and what its body spans.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate the file belongs to (`serve` for `crates/serve/src/…`,
    /// `aiio` for the root façade's `src/`).
    pub krate: String,
    /// Function name (no path, no generics).
    pub name: String,
    /// `Self` type of the enclosing `impl` block; `None` for free fns.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Signature text (`fn` through the body's `{`).
    pub signature: String,
    /// Body byte range within the file's stripped text.
    pub body: Range<usize>,
}

impl FnNode {
    /// True for guard-returning helpers (`fn lock(&self) -> MutexGuard<…>`).
    pub fn returns_guard(&self) -> bool {
        self.signature.split("->").nth(1).is_some_and(|ret| {
            ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"]
                .iter()
                .any(|g| ret.contains(g))
        })
    }
}

/// Methods that produce a lock guard when called with no arguments
/// (`io::Read::read(&mut buf)` takes one, so it never matches).
const GUARD_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Method names never resolved from method-call position (`.name(`):
/// they collide with std collection/iterator/smart-pointer vocabulary on
/// nearly every line. A qualified call (`module::name(`) still resolves.
const GENERIC_METHOD_NAMES: &[&str] = &[
    "all",
    "any",
    "capacity",
    "chain",
    "clear",
    "clone",
    "cloned",
    "collect",
    "contains",
    "count",
    "default",
    "drain",
    "enumerate",
    "extend",
    "filter",
    "find",
    "first",
    "flatten",
    "fold",
    "get",
    "insert",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "load",
    "map",
    "max",
    "min",
    "next",
    "pop",
    "push",
    "remove",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "spawn",
    "store",
    "sum",
    "take",
    "trim",
    "zip",
];

/// Qualifiers treated as std/core types: `Qual::name(` through one of
/// these never resolves to a workspace function.
const STD_QUALIFIERS: &[&str] = &[
    "Arc",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "BTreeMap",
    "BTreeSet",
    "Box",
    "Cell",
    "Condvar",
    "Duration",
    "File",
    "HashMap",
    "HashSet",
    "Instant",
    "Mutex",
    "Option",
    "Ordering",
    "Path",
    "PathBuf",
    "Rc",
    "RefCell",
    "Result",
    "RwLock",
    "String",
    "Vec",
    "VecDeque",
];

const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "else", "enum", "extern", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "self",
    "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
];

/// The workspace call graph: nodes plus name-resolved call edges.
#[derive(Debug)]
pub struct CallGraph {
    /// All non-test functions, in (file, body-start) order.
    pub nodes: Vec<FnNode>,
    /// Function indices by name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Every workspace type with an `impl` block holding a fn.
    types: BTreeSet<String>,
    /// Resolved callee indices per node.
    calls: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Build the graph over every non-test function in `ws`.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut nodes = Vec::new();
        for file in &ws.files {
            let krate = crate_of(&file.rel);
            for span in functions(&file.code) {
                let line = file.line_of(span.start);
                if file.is_test_code(line) || span.body.is_empty() {
                    continue;
                }
                nodes.push(FnNode {
                    file: file.rel.clone(),
                    krate: krate.clone(),
                    name: span.name,
                    owner: impl_type_at(&file.code, span.start),
                    line,
                    signature: span.signature,
                    body: span.body,
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            by_name.entry(node.name.clone()).or_default().push(i);
        }
        let types = nodes.iter().filter_map(|n| n.owner.clone()).collect();
        let mut graph = CallGraph {
            nodes,
            by_name,
            types,
            calls: Vec::new(),
        };
        graph.calls = graph
            .nodes
            .iter()
            .map(|node| {
                let mut callees = BTreeSet::new();
                if let Some(file) = ws.file(&node.file) {
                    for call in call_sites(&file.code[node.body.clone()]) {
                        callees.extend(graph.resolve(&call).iter().copied());
                    }
                }
                callees
            })
            .collect();
        graph
    }

    /// Indices of every workspace function named `name`.
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolve one call site to workspace function indices (possibly
    /// empty: std/extern calls, the prelude `drop`, denylisted generic
    /// method names, std lock acquisitions against guard helpers).
    pub fn resolve(&self, call: &CallSite) -> Vec<usize> {
        let qualifier = call.qualifier.as_deref();
        if qualifier.is_some_and(is_std_qualifier) {
            return Vec::new();
        }
        if call.is_method && qualifier.is_none() && is_generic_method(&call.name) {
            return Vec::new();
        }
        if !call.is_method && call.name == "drop" && qualifier.is_none_or(|q| q == "mem") {
            return Vec::new();
        }
        let candidates = self.candidates(&call.name);
        if let Some(ty) = qualifier.filter(|q| self.types.contains(*q)) {
            let in_impl: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].owner.as_deref() == Some(ty))
                .collect();
            if !in_impl.is_empty() {
                return in_impl;
            }
        }
        candidates
            .iter()
            .copied()
            .filter(|&i| !(call.std_guard && self.nodes[i].returns_guard()))
            .collect()
    }

    /// Resolved callees of node `i`.
    pub fn callees(&self, i: usize) -> &BTreeSet<usize> {
        &self.calls[i]
    }

    /// Propagate per-node fact sets to a fixed point: each node's set
    /// absorbs its callees' sets until nothing changes (the classic
    /// may-analysis over the call graph; cycles converge because sets
    /// only grow).
    pub fn propagate<T: Clone + Ord>(&self, mut facts: Vec<BTreeSet<T>>) -> Vec<BTreeSet<T>> {
        assert_eq!(facts.len(), self.nodes.len());
        loop {
            let mut changed = false;
            for i in 0..self.nodes.len() {
                let mut absorbed: Vec<T> = Vec::new();
                for &c in &self.calls[i] {
                    if c == i {
                        continue;
                    }
                    for fact in &facts[c] {
                        if !facts[i].contains(fact) {
                            absorbed.push(fact.clone());
                        }
                    }
                }
                if !absorbed.is_empty() {
                    facts[i].extend(absorbed);
                    changed = true;
                }
            }
            if !changed {
                return facts;
            }
        }
    }
}

/// Crate a workspace-relative path belongs to.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "aiio".to_string(),
    }
}

/// One syntactic call site in stripped text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (the identifier directly before `(`).
    pub name: String,
    /// Byte offset of the name within the scanned text.
    pub at: usize,
    /// True for `.name(` method-call position.
    pub is_method: bool,
    /// `Qual` of a `Qual::name(` path call, if any.
    pub qualifier: Option<String>,
    /// True for an empty-argument `GUARD_METHODS` call on a receiver
    /// other than `self`: a std lock acquisition.
    pub std_guard: bool,
}

/// Every `ident(` / `.ident(` / `Qual::ident(` in `text`, excluding
/// macro invocations (`ident!(`), keywords and `fn` definitions.
pub fn call_sites(text: &str) -> Vec<CallSite> {
    let bytes = text.as_bytes();
    let mut sites = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Walk back over whitespace, then the identifier.
        let mut j = i;
        while j > 0 && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        let name_end = j;
        while j > 0 && (bytes[j - 1].is_ascii_alphanumeric() || bytes[j - 1] == b'_') {
            j -= 1;
        }
        if j == name_end {
            continue;
        }
        let name = &text[j..name_end];
        if name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        // Macro invocation (`name!(`) — the `!` sits between name and `(`.
        if text[name_end..i].contains('!') {
            continue;
        }
        // `fn name(` is the definition, not a call.
        let before = text[..j].trim_end();
        if before.ends_with("fn") {
            continue;
        }
        let (is_method, qualifier) = if j >= 1 && bytes[j - 1] == b'.' {
            (true, None)
        } else if j >= 2 && bytes[j - 1] == b':' && bytes[j - 2] == b':' {
            let mut q = j - 2;
            let q_end = q;
            while q > 0 && (bytes[q - 1].is_ascii_alphanumeric() || bytes[q - 1] == b'_') {
                q -= 1;
            }
            (false, (q < q_end).then(|| text[q..q_end].to_string()))
        } else {
            (false, None)
        };
        let std_guard = is_method
            && GUARD_METHODS.contains(&name)
            && text[i + 1..].trim_start().starts_with(')')
            && !receiver_is_self(&text[..j - 1]);
        sites.push(CallSite {
            name: name.to_string(),
            at: j,
            is_method,
            qualifier,
            std_guard,
        });
    }
    sites
}

/// True when the receiver expression ending `before` (the text up to a
/// method call's `.`) is the bare word `self`.
fn receiver_is_self(before: &str) -> bool {
    before
        .trim_end()
        .strip_suffix("self")
        .is_some_and(|rest| !rest.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_'))
}

fn is_std_qualifier(q: &str) -> bool {
    STD_QUALIFIERS.contains(&q)
}

fn is_generic_method(name: &str) -> bool {
    GENERIC_METHOD_NAMES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(rel, text)| (rel.to_string(), text.to_string()))
                .collect(),
        )
    }

    #[test]
    fn call_sites_classify_positions() {
        let sites = call_sites("foo(); x.bar(1); mod_a::baz(2); Vec::new(); quux!();");
        let names: Vec<(&str, bool, Option<&str>)> = sites
            .iter()
            .map(|s| (s.name.as_str(), s.is_method, s.qualifier.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("foo", false, None),
                ("bar", true, None),
                ("baz", false, Some("mod_a")),
                ("new", false, Some("Vec")),
            ]
        );
    }

    #[test]
    fn std_guard_marks_empty_lock_calls_off_self() {
        let sites =
            call_sites("m.lock(); self.lock(); myself.read(); f.read(&mut b); self.a.write();");
        let marked: Vec<(&str, bool)> = sites
            .iter()
            .map(|s| (s.name.as_str(), s.std_guard))
            .collect();
        assert_eq!(
            marked,
            vec![
                ("lock", true),
                ("lock", false),
                ("read", true),
                ("read", false),
                ("write", true),
            ]
        );
    }

    #[test]
    fn generic_method_names_do_not_resolve() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn len() -> usize { 1 }\npub fn caller(v: &[u8]) -> usize { v.len() }\n",
        )]);
        let g = CallGraph::build(&ws);
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert!(
            g.callees(caller).is_empty(),
            "`.len()` must not resolve to the workspace fn `len`"
        );
    }

    #[test]
    fn qualified_calls_resolve_past_the_denylist() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn map() -> usize { 1 }\npub fn caller() -> usize { crate::map() }\n",
        )]);
        let g = CallGraph::build(&ws);
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert_eq!(g.callees(caller).len(), 1);
    }

    #[test]
    fn free_drop_is_the_prelude_function() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct W;\nimpl Drop for W { fn drop(&mut self) { std::thread::sleep(d); } }\n\
             pub fn caller(g: W, h: W) { drop(g); std::mem::drop(h); }\n",
        )]);
        let g = CallGraph::build(&ws);
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert!(
            g.callees(caller).is_empty(),
            "`drop(x)` must not resolve to the workspace `impl Drop` body"
        );
    }

    #[test]
    fn qualified_calls_through_a_workspace_type_stay_in_its_impls() {
        let ws = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Layout;\nimpl Layout { pub fn of() -> Layout { connect(); Layout } }\n\
                 pub fn connect() {}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct Source;\nimpl Source { pub fn of() -> Source { Source } }\n\
                 pub trait Named { fn name() -> u8 { 0 } }\nimpl Named for Source {}\n\
                 pub fn by_type() -> Source { Source::of() }\n\
                 pub fn by_path() -> Source { crate::of() }\n\
                 pub fn by_trait_default() -> u8 { Source::name() }\n",
            ),
        ]);
        let g = CallGraph::build(&ws);
        let at = |name: &str| g.nodes.iter().position(|n| n.name == name).unwrap();
        let owners = |caller: &str| -> Vec<Option<&str>> {
            g.callees(at(caller))
                .iter()
                .map(|&i| g.nodes[i].owner.as_deref())
                .collect()
        };
        assert_eq!(owners("by_type"), vec![Some("Source")]);
        // A module path is not a type: every `of` stays a candidate.
        assert_eq!(owners("by_path"), vec![Some("Layout"), Some("Source")]);
        // `Source` defines no `name`: fall back to every `name`, here the
        // trait's default body (a trait block, so no impl owner).
        assert_eq!(owners("by_trait_default"), vec![None]);
    }

    #[test]
    fn propagate_reaches_a_fixed_point_through_chains() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn leaf() { blocking_thing(); }\npub fn mid() { leaf(); }\npub fn top() { mid(); }\n",
        )]);
        let g = CallGraph::build(&ws);
        let leaf = g.nodes.iter().position(|n| n.name == "leaf").unwrap();
        let top = g.nodes.iter().position(|n| n.name == "top").unwrap();
        let mut seed: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); g.nodes.len()];
        seed[leaf].insert("blocks");
        let out = g.propagate(seed);
        assert!(
            out[top].contains("blocks"),
            "facts must flow up call chains"
        );
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/serve/src/lib.rs"), "serve");
        assert_eq!(crate_of("src/lib.rs"), "aiio");
    }
}
