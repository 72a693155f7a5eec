//! Workspace-native static analysis for the AIIO reproduction.
//!
//! AIIO's correctness hinges on invariants no single crate can see: the
//! 46-counter Table-4 schema must agree across `darshan` (definitions),
//! `iosim` (emission) and `aiio` (rules/diagnosis), and the paper's
//! sparsity guarantee — zero counters get exactly zero attribution — must
//! hold in every explainer path. This crate is the machine check for those
//! invariants, invoked as `cargo run -p xtask -- check`.
//!
//! The suite is deliberately std-only and text-based: each [`Lint`] works
//! on a comment/string-stripped view of the sources (see [`source`]), which
//! keeps the passes fast, dependency-free and robust against `rustfmt`
//! layouts, at the cost of being heuristic rather than type-aware. Every
//! finding carries a stable rule ID so a site can be waived inline with
//! `// xtask-allow: <RULE-ID> — reason` on the same or preceding line.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `AIIO-C001..C005` | counter schema consistent across crates (incl. store columns) |
//! | `AIIO-S001`       | attribution routes through the sparsity mask |
//! | `AIIO-P001..P003` | no `unwrap`/`expect`/`panic!` in library code |
//! | `AIIO-F001/F002`  | no float `==`, no NaN-unsafe `partial_cmp` |
//! | `AIIO-D001`       | no hash-order iteration in library code |
//! | `AIIO-D002`       | no work-stealing parallel iterators — parallelism routes through `aiio_par` |
//! | `AIIO-R001`       | no lock-order cycles in the acquisition graph (interprocedural) |
//! | `AIIO-R002`       | no guard held across a blocking operation |
//! | `AIIO-R003`       | no unbounded channels or bare `Condvar::wait` |
//! | `AIIO-R004`       | no `Ordering::Relaxed` on publication-gating atomics |

pub mod callgraph;
pub mod lints;
pub mod source;

use std::fmt;
use std::path::Path;

use source::Workspace;

/// One violation of a workspace invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier, e.g. `AIIO-F002`.
    pub rule: &'static str,
    /// What is wrong at this site.
    pub message: String,
    /// How to fix it (or how to waive it when the site is intentional).
    pub hint: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{} [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        write!(f, "    hint: {}", self.hint)
    }
}

/// One static-analysis pass over the workspace.
pub trait Lint {
    /// Rule-family name, e.g. `panic-hygiene`.
    fn name(&self) -> &'static str;

    /// One-line description of the invariant this pass enforces.
    fn description(&self) -> &'static str;

    /// Scan the workspace and report violations. Implementations must
    /// already honour inline waivers (via [`source::SourceFile::is_waived`]).
    fn run(&self, ws: &Workspace) -> Vec<Finding>;
}

/// The full suite in execution order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(lints::counter_schema::CounterSchemaLint::default()),
        Box::new(lints::sparsity::SparsityLint),
        Box::new(lints::panic_hygiene::PanicHygieneLint),
        Box::new(lints::float_safety::FloatSafetyLint),
        Box::new(lints::determinism::DeterminismLint),
        Box::new(lints::concurrency::ConcurrencyLint),
    ]
}

/// Run every lint against the workspace rooted at `root`. Every pass
/// reports every unwaived site.
pub fn run_all(root: &Path) -> Result<Vec<Finding>, String> {
    let ws =
        Workspace::load(root).map_err(|e| format!("failed to scan {}: {e}", root.display()))?;
    let mut findings = Vec::new();
    for lint in all_lints() {
        findings.extend(lint.run(&ws));
    }
    Ok(findings)
}
