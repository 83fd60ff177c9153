#![forbid(unsafe_code)]
//! COSMOS determinism analysis.
//!
//! The replay contract — digests, metrics, and delivery order identical
//! across replays — is enforced dynamically by the testkit's 64-seed
//! sweeps. This crate adds the static layer: [`lints`] / [`allowlist`]
//! make up `cosmos-detlint`, a workspace nondeterminism lint (`D` codes
//! in the shared `cosmos_lint::codes` registry) with a justified,
//! stale-checked suppression file. The CLI shares the
//! `JsonDiagnostic`-style `--json` conventions of
//! `cosmos-lint`/`cosmos-verify`/`cosmos-bound`.

pub mod allowlist;
pub mod lints;
pub mod scan;

use lints::Finding;
use std::path::{Path, PathBuf};

/// Source files the determinism lint covers: every `.rs` under
/// `crates/*/src` and `crates/*/benches` (benches are held to the same
/// contract except where the allowlist says otherwise — bench timing is
/// the canonical justified `D0201` suppression). Paths are returned
/// sorted, workspace-relative alongside absolute, so runs are
/// reproducible byte-for-byte.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for krate in sorted_dir(&crates)? {
        if !krate.is_dir() {
            continue;
        }
        for sub in ["src", "benches"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                collect_rs(&dir, &mut out)?;
            }
        }
    }
    let mut rel = Vec::with_capacity(out.len());
    for abs in out {
        let r = abs
            .strip_prefix(root)
            .unwrap_or(&abs)
            .to_string_lossy()
            .replace('\\', "/");
        rel.push((r, abs));
    }
    rel.sort();
    Ok(rel)
}

fn sorted_dir(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for path in sorted_dir(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every workspace file under `root`. Unreadable files become
/// `D0001` findings rather than aborting the run.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (rel, abs) in workspace_files(root)? {
        match std::fs::read_to_string(&abs) {
            Ok(src) => findings.extend(lints::lint_file(&rel, &src)),
            Err(e) => findings.push(Finding {
                diag: cosmos_lint::Diagnostic::error(
                    cosmos_lint::codes::DET_IO,
                    format!("cannot read {rel}: {e}"),
                    None,
                ),
                path: rel,
                line: 0,
                line_text: String::new(),
            }),
        }
    }
    Ok(findings)
}
