//! Workspace discovery: every `.rs` file, mapped to its owning crate.
//!
//! The walk is deterministic (directory entries sorted by name) so the
//! tool's own output is byte-stable — a lint pass that enforces determinism
//! had better be deterministic itself.

use std::path::{Path, PathBuf};

/// One source file to lint.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Repo-relative path with forward slashes (diagnostic anchor).
    pub rel: String,
    /// Owning crate: `apparate-core`, `bench`, `compat/serde`, `perfbench`
    /// for the benchmark package, or `apparate` for the root facade (`src/`,
    /// `examples/`).
    pub crate_name: String,
    /// True for `crates/compat/*` registry stand-ins.
    pub is_compat: bool,
}

/// Directories never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", ".github"];

/// Collect every workspace `.rs` file under `root`, sorted by relative path.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let (crate_name, is_compat) = classify(&rel);
            out.push(SourceFile {
                path,
                rel,
                crate_name,
                is_compat,
            });
        }
    }
    Ok(())
}

/// Map a repo-relative path to `(crate name, is_compat)`.
pub fn classify(rel: &str) -> (String, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", "compat", name, ..] => (format!("compat/{name}"), true),
        ["crates", name, ..] => (name.to_string(), false),
        ["perfbench", ..] => ("perfbench".to_string(), false),
        // Root facade sources and its examples.
        _ => ("apparate".to_string(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_crates() {
        assert_eq!(
            classify("crates/apparate-core/src/threshold.rs"),
            ("apparate-core".to_string(), false)
        );
        assert_eq!(
            classify("crates/compat/serde/src/lib.rs"),
            ("compat/serde".to_string(), true)
        );
        assert_eq!(classify("src/lib.rs"), ("apparate".to_string(), false));
        assert_eq!(
            classify("examples/quickstart.rs"),
            ("apparate".to_string(), false)
        );
        assert_eq!(
            classify("perfbench/src/trace.rs"),
            ("perfbench".to_string(), false)
        );
    }
}
