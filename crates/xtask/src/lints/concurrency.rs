//! `AIIO-R001..R004` — concurrency invariants for the serving/store/engine
//! layers.
//!
//! The diagnosis service holds its throughput promises with three kinds of
//! shared state: the bounded MPMC queue and `RwLock<Arc<_>>` hot-reload
//! slot in `aiio-serve`, the deterministic thread engine in `aiio-par`,
//! and the WAL/segment store behind `aiio-serve`'s ingest mutex. None of
//! that is visible to the per-crate test suites, so this pass lifts the
//! token scanner to a small interprocedural analysis:
//!
//! * guard *regions* are tracked intra-function — a `let` binding holds
//!   its lock from the end of the acquiring statement to the end of the
//!   enclosing block, an explicit `drop(guard)`, or (for `if let`/
//!   `while let`/`match` heads) the attached block; bare expression
//!   guards live for their statement;
//! * a lock-set fixed point over the workspace call graph
//!   ([`crate::callgraph`]) propagates "may acquire lock L" and "may
//!   block" facts through calls, so a guard held across a call into a
//!   function that eventually does file I/O is still caught.
//!
//! Rules:
//! * `AIIO-R001` — lock-order cycles in the acquisition graph (edges
//!   `A → B` whenever `B` is acquired while `A` is held, directly or via
//!   calls), plus direct re-acquisition self-deadlocks.
//! * `AIIO-R002` — a guard held across a blocking operation (file I/O,
//!   sockets, channel send/recv, `join`, sleeps), directly or through a
//!   call the graph says may reach one. `Condvar::wait(guard)` on the
//!   region's *own* guard is exempt — the wait releases it.
//! * `AIIO-R003` — unbounded channel constructors, and `Condvar::wait`
//!   outside a predicate loop (spurious wakeups) without a timeout.
//! * `AIIO-R004` — `Ordering::Relaxed` on atomics whose names say they
//!   gate data publication (shutdown/ready/attached/watermark/…); the
//!   hint names the minimal correct ordering.
//!
//! Every unwaived site is a finding. Inline `// xtask-allow: AIIO-R00x —
//! reason` waivers are how *intentional* holds are documented in place.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{call_sites, CallGraph, FnNode};
use crate::source::{find_word, match_brace, occurrences, SourceFile, Workspace};
use crate::{Finding, Lint};

const HINT_R001: &str = "acquire locks in one global order (document it where the locks are defined) or collapse the critical sections; waive with `// xtask-allow: AIIO-R001 — reason` only with an argument for why the cycle cannot close at runtime";
const HINT_R002: &str = "narrow the critical section: copy what you need out of the guard, `drop(guard)` explicitly, then do the blocking work; justify intentional holds in place with `// xtask-allow: AIIO-R002 — reason`";
const HINT_R003: &str = "bound every queue (`sync_channel`/`Bounded`) and re-check the predicate around `Condvar::wait` in a loop (or use `wait_timeout`) — wakeups are allowed to be spurious";
const HINT_R004_STORE: &str = "publication stores need `Ordering::Release` so a reader that observes the flag also observes the data it gates";
const HINT_R004_LOAD: &str =
    "gate loads need `Ordering::Acquire` to synchronize with the publishing `Release` store";
const HINT_R004_RMW: &str = "read-modify-write on a publication gate needs `Ordering::AcqRel`";

/// Blocking std operations for `AIIO-R002`. Patterns starting with an
/// identifier character are matched word-bounded on the left; method
/// patterns (leading `.`) match as-is. Lock acquisitions are deliberately
/// *not* blocking here — nested acquisition is `AIIO-R001`'s domain.
///
/// Workspace functions are not listed: a call blocks when the call graph
/// reaches one of these patterns from it (`may_block`). The one exception
/// is `run_due(`, which runs scheduler tasks through `Box<dyn FnMut>`
/// closures that a by-name graph cannot follow.
const BLOCKING: &[&str] = &[
    "fs::",
    "File::open",
    "File::create",
    "OpenOptions::",
    ".sync_all(",
    ".sync_data(",
    ".flush(",
    ".write_all(",
    ".read_exact(",
    ".read_to_end(",
    ".read_to_string(",
    ".read_line(",
    "TcpStream::connect",
    ".accept(",
    "thread::sleep",
    ".join()",
    ".recv()",
    ".recv_timeout(",
    ".send(",
    ".wait(",
    ".wait_timeout(",
    "run_due(",
];

/// Name segments that mark an atomic as a publication gate for
/// `AIIO-R004` (matched against the `_`-split, lowercased name).
const GATE_WORDS: &[&str] = &[
    "attached",
    "close",
    "closed",
    "commit",
    "committed",
    "done",
    "exit",
    "init",
    "initialized",
    "publish",
    "published",
    "ready",
    "sealed",
    "shutdown",
    "shutting",
    "stop",
    "stopped",
    "watermark",
];

/// The concurrency pass.
#[derive(Debug, Default)]
pub struct ConcurrencyLint;

impl Lint for ConcurrencyLint {
    fn name(&self) -> &'static str {
        "concurrency"
    }

    fn description(&self) -> &'static str {
        "no lock cycles, guards across blocking ops, unbounded queues, or Relaxed publication gates"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        analyze(ws)
    }
}

/// A lock acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Lock identity. `self.field` receivers are qualified with the
    /// enclosing impl type — `crate::Type::field` (e.g.
    /// `serve::Shared::state`) — so same-named fields on different types
    /// stay distinct locks; other receivers are `crate::receiver`.
    lock: String,
    /// Byte offset of the acquiring `.`/call in the file's stripped text.
    at: usize,
    /// 1-based line of the acquisition.
    line: usize,
}

/// The span over which an acquisition's guard is live.
#[derive(Debug, Clone)]
struct Region {
    lock: String,
    /// Guard binding name for `let` guards; `None` for temporaries and
    /// `match` heads (no single name to track).
    binding: Option<String>,
    /// Offset of the originating acquisition (excluded from nested-lock
    /// edges so a region never reports its own acquisition).
    at: usize,
    start: usize,
    end: usize,
    /// 1-based line of the acquisition.
    line: usize,
}

/// Run the full analysis, returning findings sorted by
/// `(file, line, rule)`.
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let helper_locks = helper_locks(ws, &graph);

    let mut acqs: Vec<Vec<Acquisition>> = Vec::with_capacity(graph.nodes.len());
    let mut regions: Vec<Vec<Region>> = Vec::with_capacity(graph.nodes.len());
    for (i, node) in graph.nodes.iter().enumerate() {
        // Indices must stay aligned with graph.nodes even if a file
        // cannot be found (which should not happen for a built graph).
        let Some(file) = ws.file(&node.file) else {
            acqs.push(Vec::new());
            regions.push(Vec::new());
            continue;
        };
        let a = acquisitions(file, &graph, i, &helper_locks);
        let r = a
            .iter()
            .map(|acq| region_of(file, &graph.nodes[i].body, acq))
            .collect();
        acqs.push(a);
        regions.push(r);
    }

    // Interprocedural fixed points: which locks / which blocking ops a
    // call into each function may reach.
    let may_acquire = graph.propagate(
        acqs.iter()
            .map(|a| a.iter().map(|x| x.lock.clone()).collect())
            .collect(),
    );
    let may_block = graph.propagate(
        graph
            .nodes
            .iter()
            .map(|node| {
                ws.file(&node.file)
                    .map(|file| direct_blockers(&file.code[node.body.clone()]))
                    .unwrap_or_default()
            })
            .collect(),
    );

    if let (Ok(dbg), Ok(target)) = (
        std::env::var("XTASK_DEBUG_FN"),
        std::env::var("XTASK_DEBUG_LOCK"),
    ) {
        // BFS over name-resolved call edges from `dbg` to the nearest
        // function that *directly* acquires `target`; print the chain.
        let mut prev: Vec<Option<(usize, String)>> = vec![None; graph.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for (i, node) in graph.nodes.iter().enumerate() {
            if node.name == dbg {
                prev[i] = Some((i, String::new()));
                queue.push_back(i);
            }
        }
        'bfs: while let Some(i) = queue.pop_front() {
            if acqs[i].iter().any(|a| a.lock == target) {
                let mut chain = vec![format!(
                    "{} ({}:{}) ACQUIRES {target}",
                    graph.nodes[i].name, graph.nodes[i].file, graph.nodes[i].line
                )];
                let mut j = i;
                while let Some((p, via)) = prev[j].clone() {
                    if p == j {
                        break;
                    }
                    chain.push(format!(
                        "{} ({}:{}) calls `{via}`",
                        graph.nodes[p].name, graph.nodes[p].file, graph.nodes[p].line
                    ));
                    j = p;
                }
                chain.reverse();
                eprintln!("== path {dbg} -> {target}:");
                for c in &chain {
                    eprintln!("   {c}");
                }
                break 'bfs;
            }
            let Some(file) = ws.file(&graph.nodes[i].file) else {
                continue;
            };
            let text = &file.code[graph.nodes[i].body.clone()];
            for call in call_sites(text) {
                for r in graph.resolve(&call) {
                    if prev[r].is_none() {
                        prev[r] = Some((i, call.name.clone()));
                        queue.push_back(r);
                    }
                }
            }
        }
    }

    let mut sites = Vec::new();
    r001(ws, &graph, &acqs, &regions, &may_acquire, &mut sites);
    r002(ws, &graph, &regions, &may_block, &mut sites);
    r003(ws, &graph, &mut sites);
    r004(ws, &mut sites);
    sites.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    sites
}

// ---------------------------------------------------------------------
// Guard-region construction
// ---------------------------------------------------------------------

/// Guard-returning helpers (`fn lock(&self) -> MutexGuard<…>`): node
/// index → the lock ids the helper acquires (so a call to the helper is
/// itself an acquisition in the caller).
fn helper_locks(ws: &Workspace, graph: &CallGraph) -> BTreeMap<usize, Vec<String>> {
    let mut out = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !node.returns_guard() {
            continue;
        }
        let Some(file) = ws.file(&node.file) else {
            continue;
        };
        let mut locks: Vec<String> = direct_acquisitions(file, node)
            .into_iter()
            .map(|a| a.lock)
            .collect();
        locks.dedup();
        if locks.is_empty() {
            locks.push(format!("{}::{}", node.krate, node.name));
        }
        out.insert(i, locks);
    }
    out
}

/// Direct guard-producing calls in `node`'s body: the call sites marked
/// `std_guard` (empty-argument `.lock()`/`.read()`/`.write()`/`.try_*()`
/// on a receiver other than `self`). A bare `self.lock()` is a
/// guard-helper call, counted by [`acquisitions`].
fn direct_acquisitions(file: &SourceFile, node: &FnNode) -> Vec<Acquisition> {
    let (krate, body) = (&node.krate, &node.body);
    let text = &file.code[body.clone()];
    let mut out = Vec::new();
    for call in call_sites(text).into_iter().filter(|c| c.std_guard) {
        // Anchor at the `.`, like helper calls in `acquisitions`.
        let off = call.at - 1;
        let Some(recv) = ident_before(text, off) else {
            continue;
        };
        let at = body.start + off;
        // A `self.field` receiver is qualified with the enclosing
        // impl type: two store backends can both keep a `state`
        // mutex without their acquisition orders getting conflated.
        let on_self = text[..off - recv.len()].ends_with("self.");
        let lock = match (on_self, &node.owner) {
            (true, Some(ty)) => format!("{krate}::{ty}::{recv}"),
            _ => format!("{krate}::{recv}"),
        };
        out.push(Acquisition {
            lock,
            at,
            line: file.line_of(at),
        });
    }
    out
}

/// All acquisitions in node `i`: direct ones plus calls to
/// guard-returning helpers (which acquire the helper's locks in the
/// caller's frame).
fn acquisitions(
    file: &SourceFile,
    graph: &CallGraph,
    i: usize,
    helper_locks: &BTreeMap<usize, Vec<String>>,
) -> Vec<Acquisition> {
    let node = &graph.nodes[i];
    let mut out = direct_acquisitions(file, node);
    let text = &file.code[node.body.clone()];
    for call in call_sites(text) {
        for r in graph.resolve(&call) {
            if r == i {
                continue;
            }
            if let Some(locks) = helper_locks.get(&r) {
                // Anchor method calls at the `.` so a helper that is also
                // matched as a direct acquisition dedups to one site.
                let at = node.body.start + call.at - usize::from(call.is_method);
                for lock in locks {
                    out.push(Acquisition {
                        lock: lock.clone(),
                        at,
                        line: file.line_of(at),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (a.at, &a.lock).cmp(&(b.at, &b.lock)));
    out.dedup_by(|a, b| a.at == b.at && a.lock == b.lock);
    out
}

/// Compute the live region of one acquisition's guard.
fn region_of(file: &SourceFile, body: &std::ops::Range<usize>, acq: &Acquisition) -> Region {
    let code = &file.code;
    let bytes = code.as_bytes();
    let start_of_stmt = stmt_start(bytes, body.start, acq.at);
    let head = code[start_of_stmt..acq.at].trim_start();
    let head_nk = head
        .strip_prefix("else")
        .map(str::trim_start)
        .unwrap_or(head);
    let conditional = ["if ", "if(", "while ", "while(", "match ", "match("]
        .iter()
        .any(|k| head_nk.starts_with(k));
    let binding = binding_of(head);

    if conditional {
        // `if let` / `while let` / `match` head: the guard lives for the
        // attached block.
        let (bstart, bend) = block_after(bytes, body.end, acq.at);
        return Region {
            lock: acq.lock.clone(),
            binding,
            at: acq.at,
            start: bstart,
            end: bend,
            line: acq.line,
        };
    }

    let end_of_stmt = stmt_end(bytes, body.end, acq.at);
    if let Some(name) = binding {
        // Plain `let`: live from the statement's end to the enclosing
        // block's end or an explicit `drop(name)`.
        let scope = scope_end(bytes, body, acq.at);
        let mut end = scope;
        if let Some(d) = drop_site(&code[end_of_stmt..scope.min(code.len())], &name) {
            end = end_of_stmt + d;
        }
        Region {
            lock: acq.lock.clone(),
            binding: Some(name),
            at: acq.at,
            start: end_of_stmt,
            end,
            line: acq.line,
        }
    } else {
        // Expression temporary: the guard drops at the statement's end.
        Region {
            lock: acq.lock.clone(),
            binding: None,
            at: acq.at,
            start: acq.at,
            end: end_of_stmt,
            line: acq.line,
        }
    }
}

/// Backward scan from `at` to the start of the enclosing statement
/// (just past the previous `;` at bracket depth 0, or the opening brace
/// of the enclosing block).
fn stmt_start(bytes: &[u8], body_start: usize, at: usize) -> usize {
    let mut depth = 0usize;
    let mut i = at;
    while i > body_start + 1 {
        match bytes[i - 1] {
            b')' | b']' => depth += 1,
            // A `}` at depth 0 ends a preceding block statement (`if … {}`
            // needs no `;`), so it bounds this statement too.
            b'}' => {
                if depth == 0 {
                    return i;
                }
                depth += 1;
            }
            b'(' | b'[' | b'{' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' if depth == 0 => return i,
            _ => {}
        }
        i -= 1;
    }
    body_start + 1
}

/// Forward scan from `at` to just past the terminating `;` of the
/// statement (or the closing brace of the enclosing block). Braces
/// opened mid-statement (`let … else { … };`) are skipped over.
fn stmt_end(bytes: &[u8], body_end: usize, at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < body_end {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' => {
                if depth <= 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    body_end
}

/// End of the innermost block enclosing `at`.
fn scope_end(bytes: &[u8], body: &std::ops::Range<usize>, at: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut i = body.start;
    while i < at {
        match bytes[i] {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    let open = stack.last().copied().unwrap_or(body.start);
    match_brace(bytes, open).unwrap_or(body.end).min(body.end)
}

/// The block attached to an `if`/`while`/`match` head containing `at`:
/// `(start, end)` just inside the braces.
fn block_after(bytes: &[u8], body_end: usize, at: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut i = at;
    while i < body_end {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth <= 0 => {
                let end = match_brace(bytes, i).unwrap_or(body_end).min(body_end);
                return (i + 1, end);
            }
            b';' if depth <= 0 => return (at, i),
            _ => {}
        }
        i += 1;
    }
    (at, body_end)
}

/// Guard binding of a `let` statement head (text from statement start to
/// the acquisition): the last identifier of the pattern between `let`
/// and `=`, skipping `mut`/`ref` and enum constructors.
fn binding_of(head: &str) -> Option<String> {
    let let_at = find_word(head, "let")?;
    let pattern = &head[let_at + 3..];
    let pattern = pattern.split('=').next().unwrap_or(pattern);
    let mut last = None;
    for token in pattern.split(|c: char| !c.is_alphanumeric() && c != '_') {
        if token.is_empty() || ["mut", "ref", "Ok", "Err", "Some", "_"].contains(&token) {
            continue;
        }
        last = Some(token.to_string());
    }
    last
}

/// Offset of a `drop(name)` call for this exact binding inside `text`.
fn drop_site(text: &str, name: &str) -> Option<usize> {
    for off in occurrences(text, "drop(", true) {
        let inner = paren_args(text, off + 4);
        if inner.trim() == name {
            return Some(off);
        }
    }
    None
}

// ---------------------------------------------------------------------
// AIIO-R001: lock-order cycles
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct EdgeSite {
    file: String,
    line: usize,
    via: String,
}

fn r001(
    ws: &Workspace,
    graph: &CallGraph,
    acqs: &[Vec<Acquisition>],
    regions: &[Vec<Region>],
    may_acquire: &[BTreeSet<String>],
    sites: &mut Vec<Finding>,
) {
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(file) = ws.file(&node.file) else {
            continue;
        };
        for region in &regions[i] {
            // Direct (and helper) acquisitions while this guard is held.
            for acq in &acqs[i] {
                if acq.at <= region.at || acq.at < region.start || acq.at >= region.end {
                    continue;
                }
                if file.is_waived(acq.line, "AIIO-R001") || file.is_waived(region.line, "AIIO-R001")
                {
                    continue;
                }
                edges
                    .entry((region.lock.clone(), acq.lock.clone()))
                    .or_insert_with(|| EdgeSite {
                        file: file.rel.clone(),
                        line: acq.line,
                        via: "direct acquisition".to_string(),
                    });
            }
            // Calls that may acquire further locks.
            let text = &file.code[region.start..region.end.max(region.start)];
            for call in call_sites(text) {
                let abs = region.start + call.at;
                let line = file.line_of(abs);
                if file.is_waived(line, "AIIO-R001") || file.is_waived(region.line, "AIIO-R001") {
                    continue;
                }
                for r in graph.resolve(&call) {
                    for lock in &may_acquire[r] {
                        // Call-resolved self-edges are noise (the common
                        // `self.lock()` helper pattern); only a *direct*
                        // re-acquisition makes a self-deadlock edge.
                        if *lock == region.lock {
                            continue;
                        }
                        edges
                            .entry((region.lock.clone(), lock.clone()))
                            .or_insert_with(|| EdgeSite {
                                file: file.rel.clone(),
                                line,
                                via: format!("via call to `{}`", call.name),
                            });
                    }
                }
            }
        }
    }

    // Self-deadlocks: a lock re-acquired while already held.
    for ((a, b), site) in &edges {
        if a == b {
            sites.push(Finding {
                file: site.file.clone(),
                line: site.line,
                rule: "AIIO-R001",
                message: format!(
                    "lock `{a}` re-acquired while already held ({}) — self-deadlock with std::sync primitives",
                    site.via
                ),
                hint: HINT_R001,
            });
        }
    }

    // Cross-lock cycles: mutual reachability classes in the edge graph.
    for cycle in lock_cycles(&edges) {
        let mut path = String::new();
        let mut first: Option<&EdgeSite> = None;
        for (a, b) in edges.keys() {
            if a != b && cycle.contains(a) && cycle.contains(b) {
                let site = &edges[&(a.clone(), b.clone())];
                if !path.is_empty() {
                    path.push_str(", ");
                }
                path.push_str(&format!(
                    "`{a}` -> `{b}` ({}:{}, {})",
                    site.file, site.line, site.via
                ));
                if first.is_none() {
                    first = Some(site);
                }
            }
        }
        let Some(site) = first else { continue };
        sites.push(Finding {
            file: site.file.clone(),
            line: site.line,
            rule: "AIIO-R001",
            message: format!(
                "potential deadlock: lock-order cycle among {} — {path}",
                cycle
                    .iter()
                    .map(|l| format!("`{l}`"))
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
            hint: HINT_R001,
        });
    }
}

/// Mutual-reachability classes of size ≥ 2 over the lock edge graph.
fn lock_cycles(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Vec<String>> {
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let succ = |n: &String| -> Vec<&String> {
        edges
            .keys()
            .filter(|(a, _)| a == n)
            .map(|(_, b)| b)
            .collect()
    };
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut queue: Vec<&String> = succ(from);
        while let Some(n) = queue.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                queue.extend(succ(n));
            }
        }
        false
    };
    let mut classes: Vec<Vec<String>> = Vec::new();
    let mut assigned: BTreeSet<String> = BTreeSet::new();
    for n in &nodes {
        if assigned.contains(*n) {
            continue;
        }
        let class: Vec<String> = nodes
            .iter()
            .filter(|m| *m != n && reaches(n, m) && reaches(m, n))
            .map(|m| (*m).clone())
            .collect();
        if class.is_empty() {
            continue;
        }
        let mut full = vec![(*n).clone()];
        full.extend(class);
        full.sort();
        for l in &full {
            assigned.insert(l.clone());
        }
        classes.push(full);
    }
    classes
}

// ---------------------------------------------------------------------
// AIIO-R002: guards across blocking operations
// ---------------------------------------------------------------------

/// Direct blocking operations in a body (the `may_block` seed): the
/// matched pattern, prettified for messages.
fn direct_blockers(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for pat in BLOCKING {
        let word_start = !pat.starts_with('.');
        if !occurrences(text, pat, word_start).is_empty() {
            out.insert(pretty_op(pat));
        }
    }
    out
}

fn pretty_op(pat: &str) -> String {
    pat.trim_start_matches('.')
        .trim_end_matches('(')
        .trim_end_matches("()")
        .to_string()
}

fn r002(
    ws: &Workspace,
    graph: &CallGraph,
    regions: &[Vec<Region>],
    may_block: &[BTreeSet<String>],
    sites: &mut Vec<Finding>,
) {
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(file) = ws.file(&node.file) else {
            continue;
        };
        for region in &regions[i] {
            let end = region.end.max(region.start).min(file.code.len());
            let text = &file.code[region.start..end];
            // A waiver can sit at the blocking site, at the start of its
            // (possibly multi-line) statement, or at the acquisition.
            let waived = |abs: usize, line: usize| {
                let bytes = file.code.as_bytes();
                let mut s = stmt_start(bytes, node.body.start, abs);
                // A stop at an open `(`/`[` means the blocking call sits in
                // a nested argument/chain group — unwind to the statement.
                while s > node.body.start + 1 && matches!(bytes[s - 1], b'(' | b'[') {
                    s = stmt_start(bytes, node.body.start, s - 1);
                }
                // Past the previous `;` comes whitespace (and blanked
                // comments); the statement's own line starts at its first
                // code character.
                while s < abs && bytes[s].is_ascii_whitespace() {
                    s += 1;
                }
                let stmt = file.line_of(s);
                file.is_waived(line, "AIIO-R002")
                    || file.is_waived(stmt, "AIIO-R002")
                    || file.is_waived(region.line, "AIIO-R002")
            };
            // Direct blocking operations inside the region.
            for pat in BLOCKING {
                let word_start = !pat.starts_with('.');
                for off in occurrences(text, pat, word_start) {
                    if pat.starts_with(".wait") && waits_on_own_guard(text, off, pat, region) {
                        continue;
                    }
                    let abs = region.start + off;
                    let line = file.line_of(abs);
                    if waived(abs, line) {
                        continue;
                    }
                    sites.push(Finding {
                        file: file.rel.clone(),
                        line,
                        rule: "AIIO-R002",
                        message: format!(
                            "guard on `{}` (acquired line {}) held across blocking `{}`",
                            region.lock,
                            region.line,
                            pretty_op(pat)
                        ),
                        hint: HINT_R002,
                    });
                }
            }
            // Calls into functions that may block.
            for call in call_sites(text) {
                let abs = region.start + call.at;
                let line = file.line_of(abs);
                if waived(abs, line) {
                    continue;
                }
                for r in graph.resolve(&call) {
                    let Some(reason) = may_block[r].iter().next() else {
                        continue;
                    };
                    sites.push(Finding {
                        file: file.rel.clone(),
                        line,
                        rule: "AIIO-R002",
                        message: format!(
                            "guard on `{}` (acquired line {}) held across call to `{}`, which may block (`{}`)",
                            region.lock, region.line, call.name, reason
                        ),
                        hint: HINT_R002,
                    });
                    break;
                }
            }
        }
    }
}

/// `cv.wait(guard)` consumes and releases the guard it is given; waiting
/// on the region's own binding is the sanctioned pattern, not a hold.
fn waits_on_own_guard(text: &str, off: usize, pat: &str, region: &Region) -> bool {
    let Some(binding) = &region.binding else {
        return false;
    };
    let open = off + pat.len() - 1;
    let args = paren_args(text, open);
    args.split(',')
        .next()
        .map(str::trim)
        .is_some_and(|first| first == binding)
}

// ---------------------------------------------------------------------
// AIIO-R003: unbounded queues, bare Condvar::wait
// ---------------------------------------------------------------------

fn r003(ws: &Workspace, graph: &CallGraph, sites: &mut Vec<Finding>) {
    // Unbounded channel constructors, anywhere in library code.
    for file in &ws.files {
        for name in ["channel", "unbounded", "unbounded_channel"] {
            for off in occurrences(&file.code, name, true) {
                if !constructor_call(&file.code, off + name.len()) {
                    continue;
                }
                let line = file.line_of(off);
                if file.is_test_code(line) || file.is_waived(line, "AIIO-R003") {
                    continue;
                }
                sites.push(Finding {
                    file: file.rel.clone(),
                    line,
                    rule: "AIIO-R003",
                    message: format!(
                        "unbounded channel constructor `{name}` — an unbounded queue turns overload into OOM, not backpressure",
                    ),
                    hint: HINT_R003,
                });
            }
        }
    }
    // `Condvar::wait` outside a predicate loop.
    for node in &graph.nodes {
        let Some(file) = ws.file(&node.file) else {
            continue;
        };
        let text = &file.code[node.body.clone()];
        let loops = loop_spans(text);
        for off in occurrences(text, ".wait(", false) {
            if empty_args(text, off + 5) {
                continue; // `Child::wait()` and friends, not Condvar.
            }
            if loops.iter().any(|span| span.contains(&off)) {
                continue;
            }
            let abs = node.body.start + off;
            let line = file.line_of(abs);
            if file.is_waived(line, "AIIO-R003") {
                continue;
            }
            sites.push(Finding {
                file: file.rel.clone(),
                line,
                rule: "AIIO-R003",
                message: "bare `Condvar::wait` outside a predicate loop — condition variables wake spuriously".to_string(),
                hint: HINT_R003,
            });
        }
    }
}

/// True when the text at `after` (the end of a constructor name) is a
/// call: optionally a `::<…>` turbofish, then `(`. Rejects identifier
/// continuations so `unbounded` does not fire inside `unbounded_channel`.
fn constructor_call(text: &str, after: usize) -> bool {
    let bytes = text.as_bytes();
    let mut k = after;
    if k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_') {
        return false;
    }
    if text[k..].starts_with("::<") {
        k += 3;
        let mut depth = 1usize;
        while k < bytes.len() && depth > 0 {
            match bytes[k] {
                b'<' => depth += 1,
                b'>' => depth -= 1,
                _ => {}
            }
            k += 1;
        }
    }
    k < bytes.len() && bytes[k] == b'('
}

/// Spans of `loop`/`while`/`for` blocks within a function body.
fn loop_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    for kw in ["loop", "while", "for"] {
        let mut from = 0;
        while let Some(at) = find_word(&text[from..], kw) {
            let at = from + at;
            from = at + kw.len();
            // Scan to the block's `{` at paren depth 0.
            let mut depth = 0i32;
            let mut i = at + kw.len();
            while i < bytes.len() {
                match bytes[i] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth <= 0 => {
                        if let Some(end) = match_brace(bytes, i) {
                            spans.push(i..end);
                        }
                        break;
                    }
                    b';' | b'}' if depth <= 0 => break,
                    _ => {}
                }
                i += 1;
            }
        }
    }
    spans
}

// ---------------------------------------------------------------------
// AIIO-R004: Relaxed ordering on publication gates
// ---------------------------------------------------------------------

fn r004(ws: &Workspace, sites: &mut Vec<Finding>) {
    let gating = gating_atomics(ws);
    // (pattern, kind) — kind selects the suggested ordering.
    let ops: [(&str, &str); 5] = [
        (".store(", "store"),
        (".load(", "load"),
        (".swap(", "rmw"),
        (".fetch_", "rmw"),
        (".compare_exchange", "rmw"),
    ];
    for file in &ws.files {
        for (pat, kind) in ops {
            for off in occurrences(&file.code, pat, false) {
                let Some(name) = ident_before(&file.code, off) else {
                    continue;
                };
                if !gating.contains(name) {
                    continue;
                }
                // Args start at the first `(` at/after the pattern.
                let Some(open) = file.code[off..].find('(').map(|p| off + p) else {
                    continue;
                };
                let args = paren_args(&file.code, open);
                if !args.contains("Relaxed") {
                    continue;
                }
                let line = file.line_of(off);
                if file.is_test_code(line) || file.is_waived(line, "AIIO-R004") {
                    continue;
                }
                let (suggest, hint) = match kind {
                    "store" => ("Ordering::Release", HINT_R004_STORE),
                    "load" => ("Ordering::Acquire", HINT_R004_LOAD),
                    _ => ("Ordering::AcqRel", HINT_R004_RMW),
                };
                sites.push(Finding {
                    file: file.rel.clone(),
                    line,
                    rule: "AIIO-R004",
                    message: format!(
                        "`{name}` gates data publication but uses Ordering::Relaxed — use {suggest}",
                    ),
                    hint,
                });
            }
        }
    }
}

/// Names of declared atomics whose `_`-segments include a gate word.
fn gating_atomics(ws: &Workspace) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    const SUFFIXES: [&str; 13] = [
        "Bool", "U8", "U16", "U32", "U64", "Usize", "I8", "I16", "I32", "I64", "Isize", "Ptr",
        "U128",
    ];
    for file in &ws.files {
        for off in occurrences(&file.code, "Atomic", true) {
            let after = &file.code[off + 6..];
            if !SUFFIXES.iter().any(|s| {
                after.starts_with(s)
                    && !after[s.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            }) {
                continue;
            }
            // Walk back over `: ` (optionally through one wrapper like
            // `Arc<`) to the declared name.
            let bytes = file.code.as_bytes();
            let mut i = off;
            while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                i -= 1;
            }
            if i > 0 && bytes[i - 1] == b'<' {
                i -= 1;
                while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
                    i -= 1;
                }
                while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                    i -= 1;
                }
            }
            if i == 0 || bytes[i - 1] != b':' {
                continue;
            }
            i -= 1;
            while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                i -= 1;
            }
            if let Some(name) = ident_before(&file.code, i) {
                if is_gate_name(name) {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

fn is_gate_name(name: &str) -> bool {
    name.split('_')
        .any(|seg| GATE_WORDS.contains(&seg.to_ascii_lowercase().as_str()))
}

// ---------------------------------------------------------------------
// Text helpers
// ---------------------------------------------------------------------

/// True when the `(` at `open` closes immediately (ignoring whitespace).
fn empty_args(text: &str, open: usize) -> bool {
    text[open + 1..]
        .chars()
        .find(|c| !c.is_whitespace())
        .is_some_and(|c| c == ')')
}

/// Identifier ending exactly at `end`.
fn ident_before(text: &str, end: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut i = end;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    (i < end && !bytes[i].is_ascii_digit()).then(|| &text[i..end])
}

/// Text between the `(` at `open` and its matching `)`.
fn paren_args(text: &str, open: usize) -> &str {
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    for i in open..bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return &text[open + 1..i];
                }
            }
            _ => {}
        }
    }
    &text[(open + 1).min(text.len())..]
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

    fn rules(sites: &[Finding]) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = sites.iter().map(|s| s.rule).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    // ---- guard-scope tracking -------------------------------------

    #[test]
    fn guard_lives_to_scope_end() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { let g = self.state.lock(); std::fs::write(\"p\", b\"x\"); } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            sites
                .iter()
                .any(|s| s.rule == "AIIO-R002" && s.message.contains("a::S::state")),
            "guard held across fs::write must flag: {sites:#?}"
        );
    }

    #[test]
    fn early_drop_releases_the_guard() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { let g = self.state.lock(); let n = g.n; drop(g); std::fs::write(\"p\", b\"x\"); } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            !sites.iter().any(|s| s.rule == "AIIO-R002"),
            "blocking after drop(g) must not flag: {sites:#?}"
        );
    }

    #[test]
    fn nested_guards_each_cover_the_blocking_op() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { let g1 = self.a.lock(); let g2 = self.b.lock(); std::fs::write(\"p\", b\"x\"); } }\n",
        )]);
        let sites = analyze(&w);
        let r002: Vec<_> = sites.iter().filter(|s| s.rule == "AIIO-R002").collect();
        assert!(
            r002.iter().any(|s| s.message.contains("a::S::a"))
                && r002.iter().any(|s| s.message.contains("a::S::b")),
            "both held guards must flag: {r002:#?}"
        );
    }

    #[test]
    fn shadowed_guard_regions_both_stay_live() {
        // Shadowing does not drop the first guard; both regions reach the
        // scope end, so the blocking op after rebinding flags twice.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { let g = self.a.lock(); let g = self.b.lock(); std::fs::write(\"p\", b\"x\"); } }\n",
        )]);
        let sites = analyze(&w);
        let r002: Vec<_> = sites.iter().filter(|s| s.rule == "AIIO-R002").collect();
        assert_eq!(r002.len(), 2, "both shadowed guards are live: {r002:#?}");
    }

    #[test]
    fn expression_temporary_only_covers_its_statement() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { self.state.lock().n += 1; std::fs::write(\"p\", b\"x\"); } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            !sites.iter().any(|s| s.rule == "AIIO-R002"),
            "a statement temporary must not cover later lines: {sites:#?}"
        );
    }

    #[test]
    fn guard_returned_from_helper_counts_as_acquisition() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S {\n\
             fn guard(&self) -> MutexGuard<'_, T> { self.state.lock().unwrap_or_else(|p| p.into_inner()) }\n\
             fn f(&self) { let g = self.guard(); std::fs::write(\"p\", b\"x\"); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            sites
                .iter()
                .any(|s| s.rule == "AIIO-R002" && s.message.contains("a::S::state")),
            "helper-acquired guard must be tracked in the caller: {sites:#?}"
        );
    }

    #[test]
    fn if_let_guard_covers_the_attached_block() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { if let Ok(g) = self.state.lock() { std::fs::write(\"p\", b\"x\"); } std::fs::read(\"p\"); } }\n",
        )]);
        let sites = analyze(&w);
        let r002: Vec<_> = sites.iter().filter(|s| s.rule == "AIIO-R002").collect();
        assert_eq!(
            r002.len(),
            1,
            "only the in-block blocking op is under the guard: {r002:#?}"
        );
    }

    #[test]
    fn condvar_wait_on_own_guard_is_sanctioned() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn pop(&self) { let mut s = self.state.lock(); loop { s = self.cv.wait(s); } } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            !sites.iter().any(|s| s.rule == "AIIO-R002"),
            "wait(own guard) releases the lock: {sites:#?}"
        );
    }

    // ---- lock graph: cycle vs no cycle ----------------------------

    #[test]
    fn opposite_acquisition_orders_report_a_cycle() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S {\n\
             fn fwd(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
             fn bwd(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            sites
                .iter()
                .any(|s| s.rule == "AIIO-R001" && s.message.contains("cycle")),
            "a/b vs b/a must cycle: {sites:#?}"
        );
    }

    #[test]
    fn same_field_names_on_different_types_are_distinct_locks() {
        // Two types each own fields `a`/`b` and lock them in OPPOSITE
        // orders. Without the `crate::Type::field` qualifier the lock
        // ids collide and this reports a false AIIO-R001 cycle.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S {\n\
             fn fwd(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
             }\n\
             impl T {\n\
             fn bwd(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            !sites.iter().any(|s| s.rule == "AIIO-R001"),
            "S::a/S::b vs T::b/T::a are unrelated locks, not a cycle: {sites:#?}"
        );
    }

    #[test]
    fn scheduler_surface_counts_as_blocking() {
        // `run_due` runs maintenance tasks (a pull pass, a compaction, a
        // retrain) through boxed closures the call graph cannot follow,
        // so it is named in BLOCKING; a guard held across it must flag.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { let g = self.state.lock(); sched.run_due(); } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            sites
                .iter()
                .any(|s| s.rule == "AIIO-R002" && s.message.contains("a::S::state")),
            "guard held across run_due must flag: {sites:#?}"
        );
    }

    #[test]
    fn trait_method_without_body_blocks_through_its_impls() {
        // The trait declaration has no body, but a call by name reaches
        // every impl body; the impl's `std::fs` read makes the call block.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub trait Source { fn fetch_bytes(&self) -> Vec<u8>; }\n\
             impl Source for Dir { fn fetch_bytes(&self) -> Vec<u8> { std::fs::read(&self.p).unwrap_or_default() } }\n\
             impl S { fn f(&self, src: &dyn Source) { let g = self.state.lock(); src.fetch_bytes(); } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            sites.iter().any(|s| s.rule == "AIIO-R002"
                && s.message.contains("a::S::state")
                && s.message.contains("call to `fetch_bytes`")),
            "guard held across a trait call must flag through the impl: {sites:#?}"
        );
    }

    #[test]
    fn guard_helper_resolves_only_on_self_receivers() {
        // `Q::lock` is a private guard helper. `self.lock()` inside `Q`
        // acquires `Q::state`; `other.lock()` on some other mutex is a
        // std acquisition and must never acquire `Q::state`.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl Q {\n\
             fn lock(&self) -> MutexGuard<'_, State> { self.state.lock().unwrap_or_else(|p| p.into_inner()) }\n\
             fn len(&self) -> usize { let g = self.lock(); std::fs::read(\"p\"); g.n }\n\
             }\n\
             impl S {\n\
             fn f(&self, other: &Mutex<u8>) { let a = other.lock(); std::fs::read(\"p\"); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        let held = |lock: &str, line: usize| {
            sites
                .iter()
                .any(|s| s.rule == "AIIO-R002" && s.line == line && s.message.contains(lock))
        };
        assert!(
            held("a::Q::state", 3),
            "self.lock() must acquire the helper's lock: {sites:#?}"
        );
        assert!(
            held("a::other", 6),
            "other.lock() is still a std acquisition: {sites:#?}"
        );
        assert!(
            !sites
                .iter()
                .any(|s| s.line != 3 && s.message.contains("a::Q::state")),
            "other.lock() must never acquire Q::state: {sites:#?}"
        );
    }

    #[test]
    fn consistent_acquisition_order_is_clean() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S {\n\
             fn one(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
             fn two(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            !sites.iter().any(|s| s.rule == "AIIO-R001"),
            "same order everywhere is fine: {sites:#?}"
        );
    }

    #[test]
    fn interprocedural_lock_order_cycles_are_found() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S {\n\
             fn take_b(&self) { let gb = self.b.lock(); }\n\
             fn fwd(&self) { let ga = self.a.lock(); self.take_b(); }\n\
             fn take_a(&self) { let ga = self.a.lock(); }\n\
             fn bwd(&self) { let gb = self.b.lock(); self.take_a(); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            sites
                .iter()
                .any(|s| s.rule == "AIIO-R001" && s.message.contains("via call to")),
            "cycle through callees must be found: {sites:#?}"
        );
    }

    #[test]
    fn direct_reacquisition_is_a_self_deadlock() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { let g = self.state.lock(); let h = self.state.lock(); } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            sites
                .iter()
                .any(|s| s.rule == "AIIO-R001" && s.message.contains("re-acquired")),
            "double-lock must report: {sites:#?}"
        );
    }

    // ---- R003 / R004 ----------------------------------------------

    #[test]
    fn unbounded_channel_flags_but_sync_channel_does_not() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n\
             fn g() { let (tx, rx) = std::sync::mpsc::sync_channel::<u8>(4); }\n",
        )]);
        let sites = analyze(&w);
        let r003: Vec<_> = sites.iter().filter(|s| s.rule == "AIIO-R003").collect();
        assert_eq!(r003.len(), 1, "{r003:#?}");
        assert!(r003[0].message.contains("channel"));
    }

    #[test]
    fn wait_inside_predicate_loop_is_fine_outside_is_not() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S {\n\
             fn ok(&self) { let mut s = self.m.lock(); while s.empty { s = self.cv.wait(s); } }\n\
             fn bad(&self) { let s = self.m.lock(); let s2 = self.cv.wait(s); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        let r003: Vec<_> = sites.iter().filter(|s| s.rule == "AIIO-R003").collect();
        assert_eq!(r003.len(), 1, "{r003:#?}");
        assert!(r003[0].message.contains("predicate loop"));
    }

    #[test]
    fn relaxed_on_gate_atomics_flags_with_minimal_ordering() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S { shutdown: AtomicBool, requests_total: AtomicU64 }\n\
             impl S {\n\
             fn stop(&self) { self.shutdown.store(true, Ordering::Relaxed); }\n\
             fn poll(&self) -> bool { self.shutdown.load(Ordering::Relaxed) }\n\
             fn count(&self) { self.requests_total.fetch_add(1, Ordering::Relaxed); }\n\
             }\n",
        )]);
        let sites = analyze(&w);
        let r004: Vec<_> = sites.iter().filter(|s| s.rule == "AIIO-R004").collect();
        assert_eq!(r004.len(), 2, "counter must not flag: {r004:#?}");
        assert!(r004.iter().any(|s| s.message.contains("Ordering::Release")));
        assert!(r004.iter().any(|s| s.message.contains("Ordering::Acquire")));
    }

    #[test]
    fn release_acquire_gate_atomics_are_clean() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S { shutdown: AtomicBool }\n\
             impl S {\n\
             fn stop(&self) { self.shutdown.store(true, Ordering::Release); }\n\
             fn poll(&self) -> bool { self.shutdown.load(Ordering::Acquire) }\n\
             }\n",
        )]);
        assert_eq!(rules(&analyze(&ws(&[]))), Vec::<&str>::new());
        let sites = analyze(&w);
        assert!(!sites.iter().any(|s| s.rule == "AIIO-R004"), "{sites:#?}");
    }

    #[test]
    fn waivers_silence_intentional_holds() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl S { fn f(&self) { let g = self.state.lock();\n\
             // xtask-allow: AIIO-R002 — serialized on purpose\n\
             std::fs::write(\"p\", b\"x\"); } }\n",
        )]);
        let sites = analyze(&w);
        assert!(
            !sites.iter().any(|s| s.rule == "AIIO-R002"),
            "waiver must apply: {sites:#?}"
        );
    }

    #[test]
    fn binding_of_handles_patterns() {
        assert_eq!(binding_of("let mut s "), Some("s".to_string()));
        assert_eq!(
            binding_of("let Ok(mut state) = state"),
            Some("state".to_string())
        );
        assert_eq!(binding_of("let _ = x"), None);
        assert_eq!(binding_of("return self"), None);
    }
}
