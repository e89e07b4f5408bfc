//! Static analysis for the budget-sched workspace (`wfs-analyze`).
//!
//! Two passes (DESIGN.md §8):
//!
//! 1. **Banned-pattern scanner** ([`rules`]) — a handwritten token scanner
//!    ([`lexer`]) walks the library crates and rejects patterns the
//!    workspace policy forbids (panicking float comparisons, panic sites,
//!    bare float equality, narrowing casts, hot-path allocations), with an
//!    explicit pinned allowlist ([`allowlist`], `analyze-allow.txt`).
//! 2. **Semantic plan linter** ([`plan_lint`], re-exported from
//!    `wfs_simulator::lint`) — cross-checks a simulated schedule execution
//!    against the paper's platform model: precedence feasibility, per-VM
//!    timeline integrity, boot delays, transfer serialization, and budget
//!    reconciliation (Eqs. 1–3).
//!
//! The `wfs-analyze` binary wires both passes into CI (`scripts/ci.sh`).

#![warn(missing_docs)]

pub mod allowlist;
pub mod lexer;
pub mod rules;

pub use allowlist::Allowlist;
pub use rules::{scan_source, Finding};
pub use wfs_simulator::lint::{plan_lint, PlanViolation};

use std::path::{Path, PathBuf};

/// The library source roots the workspace scan covers, relative to the
/// repository root. Binaries, tests, benches and examples are exempt
/// (their panics are user-facing or test-only by design); the analyzer
/// scans itself.
pub const LIBRARY_ROOTS: &[&str] = &[
    "crates/workflow/src",
    "crates/platform/src",
    "crates/simulator/src",
    "crates/scheduler/src",
    "crates/observe/src",
    "crates/analyze/src",
    "src/lib.rs",
];

/// Collect every `.rs` file under the workspace's library roots, sorted
/// for deterministic reports. Paths are returned relative to `root`.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in LIBRARY_ROOTS {
        let path = root.join(entry);
        if path.is_file() {
            files.push(PathBuf::from(entry));
        } else if path.is_dir() {
            collect_rs(&path, &mut files)?;
        }
        // A missing root is not an error: the scan is defined over
        // whatever part of the workspace exists (useful in tests).
    }
    // Make collected paths root-relative with forward slashes.
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .map(|f| f.strip_prefix(root).map(Path::to_path_buf).unwrap_or(f))
        .collect();
    rel.sort();
    rel.dedup();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan all library sources under `root`; findings use root-relative
/// forward-slash paths so allowlist entries are platform-independent.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_sources(root)? {
        let display = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let src = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(scan_source(&display, &src));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_scan_covers_the_observe_hot_path_files() {
        // `rules` holds observe's event.rs/sink.rs/chrome.rs to the
        // hot-path-alloc rule; that only bites if the workspace scan
        // reaches them.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_sources(&root).unwrap();
        for f in [
            "crates/observe/src/event.rs",
            "crates/observe/src/sink.rs",
            "crates/observe/src/chrome.rs",
        ] {
            assert!(files.contains(&PathBuf::from(f)), "{f} is not scanned");
        }
    }
}
