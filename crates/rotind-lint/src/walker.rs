//! Workspace discovery: find every `.rs` file the lint applies to,
//! classify it, and lex it into [`SourceFile`]s.
//!
//! Exclusions, and why:
//!
//! * `target/` — build output;
//! * `vendor/` — pinned offline stand-ins for crates-io dev-deps; they
//!   are API shims, not rotind code, and are excluded from the workspace
//!   in `Cargo.toml` for the same reason;
//! * any `fixtures/` directory — the linter's own test fixtures are
//!   *deliberately* rule-violating snippets;
//! * `perfbench/` — the benchmark harness is a cargo workspace of its
//!   own (like `vendor/`, not a member of this one) and is never linked
//!   into the serve binary; scanning it would also let name-based call
//!   resolution bridge the serve certificate into harness code.

use crate::source::{kind_for_path, relative_path, FileKind, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Directory names skipped entirely during the walk. This list is the
/// *single* place workspace exclusions live — `main.rs`, the tests and
/// the baseline all see the same universe because they all come through
/// [`rust_files`] / [`is_skipped_dir`]; nothing re-filters ad hoc.
pub const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "perfbench", ".git"];

/// Should the workspace walk skip a directory with this name?
pub fn is_skipped_dir(name: &str) -> bool {
    SKIP_DIRS.contains(&name) || name.starts_with('.')
}

/// Recursively collect `.rs` files under `root`, sorted for determinism.
pub fn rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    collect(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if is_skipped_dir(name.as_ref()) {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Load and lex one file. `kind` overrides path-based classification
/// (used by fixture mode, where every snippet lints as library code).
pub fn load_file(root: &Path, file: &Path, kind: Option<FileKind>) -> io::Result<SourceFile> {
    let rel = relative_path(root, file);
    let src = fs::read_to_string(file)?;
    let kind = kind.unwrap_or_else(|| kind_for_path(&rel));
    Ok(SourceFile::parse(&rel, &src, kind))
}

/// Load the whole workspace rooted at `root`. Per-file work (read, lex,
/// parse, symbols) is embarrassingly parallel, so it fans out over a
/// small thread pool; the output order is the sorted [`rust_files`]
/// order regardless of which worker finished first, keeping every
/// downstream consumer (call graph node ids, baselines, reports)
/// byte-deterministic. The interprocedural fixpoints stay sequential —
/// only the front-end parallelises.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let paths = rust_files(root)?;
    load_files_parallel(root, &paths)
}

/// Parse `paths` on up to [`front_end_workers`] threads, reassembling
/// results by index. Work is handed out through an atomic cursor so a
/// few large files cannot strand a chunk-based split.
fn load_files_parallel(root: &Path, paths: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let workers = front_end_workers(paths.len());
    if workers <= 1 {
        return paths.iter().map(|f| load_file(root, f, None)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, io::Result<SourceFile>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(path) = paths.get(i) else { break };
                if tx.send((i, load_file(root, path, None))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<SourceFile>> = Vec::new();
    slots.resize_with(paths.len(), || None);
    for (i, result) in rx {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(result?);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.ok_or_else(|| {
                io::Error::other(format!(
                    "front-end worker dropped file #{i} without a result"
                ))
            })
        })
        .collect()
}

/// Front-end thread count: bounded by available parallelism, eight (the
/// parse phase saturates memory bandwidth long before core count on big
/// hosts), and the number of files.
fn front_end_workers(n_files: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    cores.min(8).min(n_files.max(1))
}

/// Load an explicit set of paths (files or directories). Paths are kept
/// relative to `root` when possible; snippets lint as library code
/// unless their path says otherwise, so a bad fixture exercises the
/// hot-path rules.
pub fn load_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            for f in walk_dir_unfiltered(p)? {
                out.push(load_file(root, &f, Some(FileKind::Library))?);
            }
        } else {
            out.push(load_file(root, p, Some(FileKind::Library))?);
        }
    }
    Ok(out)
}

/// Like [`rust_files`] but without the fixture exclusion — explicit
/// paths mean "lint exactly this".
fn walk_dir_unfiltered(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            out.extend(walk_dir_unfiltered(&path)?);
        } else if path.to_string_lossy().ends_with(".rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_skips_vendor_target_and_fixtures() {
        // The linter's own crate directory is a convenient real tree.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = rust_files(root).unwrap();
        assert!(files.iter().any(|f| f.ends_with("src/lexer.rs")));
        assert!(!files
            .iter()
            .any(|f| f.to_string_lossy().contains("fixtures")));
    }

    #[test]
    fn skip_predicate_is_the_single_source_of_truth() {
        for d in SKIP_DIRS {
            assert!(is_skipped_dir(d));
        }
        assert!(is_skipped_dir(".hidden"));
        assert!(!is_skipped_dir("crates"));
        assert!(!is_skipped_dir("src"));
    }

    #[test]
    fn parallel_load_preserves_sorted_order() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let paths = rust_files(root).unwrap();
        assert!(paths.len() > 10, "enough files to exercise the pool");
        let parallel = load_files_parallel(root, &paths).unwrap();
        let sequential: Vec<SourceFile> = paths
            .iter()
            .map(|f| load_file(root, f, None))
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.path, s.path, "order must match the sorted walk");
            assert_eq!(p.tokens().len(), s.tokens().len());
        }
    }
}
