//! The name-keyed lint roots must name real code. The availability
//! rules (`no-panic-reachable`, `no-blocking-in-worker`) and the
//! `admissible-chain` rule find their roots by function name, and a
//! rule whose roots match nothing certifies nothing and passes. So a
//! renamed entry point would silently switch a certificate off; this
//! test turns that into a failure.

use rotind_lint::callgraph::CallGraph;
use rotind_lint::effects::{reach_forest_excluding, RootSet};
use rotind_lint::rules::admissible_chain::ROOT_PREFIX;
use rotind_lint::source::{FileKind, SourceFile};
use rotind_lint::{walker, workspace_root};

/// Ids of the non-test library functions whose name satisfies `keep`.
fn library_fns(
    graph: &CallGraph<'_>,
    files: &[SourceFile],
    keep: impl Fn(&str) -> bool,
) -> Vec<usize> {
    graph
        .index
        .nodes
        .iter()
        .filter(|n| {
            !n.is_test
                && files
                    .get(n.file)
                    .is_some_and(|f| f.kind == FileKind::Library)
                && keep(&n.decl.name)
        })
        .map(|n| n.id)
        .collect()
}

#[test]
fn every_named_root_resolves_to_a_library_function() {
    let files = walker::load_workspace(workspace_root()).expect("workspace scan");
    let graph = CallGraph::build(&files);
    let roots = RootSet::serve_default();
    for name in roots.panic_roots.iter().chain(&roots.worker_roots) {
        assert!(
            !library_fns(&graph, &files, |n| n == name).is_empty(),
            "serve root `{name}` names no library function in the workspace"
        );
    }
    assert!(
        !library_fns(&graph, &files, |n| n.starts_with(ROOT_PREFIX)).is_empty(),
        "no library function starts with the cascade root prefix `{ROOT_PREFIX}`"
    );

    // The size of the panic certificate: library functions reachable
    // from the serve roots (run with `--nocapture` to read it).
    let root_ids = library_fns(&graph, &files, |n| roots.panic_roots.iter().any(|r| r == n));
    let forest = reach_forest_excluding(&graph, &root_ids, &roots.excluded_nodes(&graph));
    let reached = library_fns(&graph, &files, |_| true)
        .into_iter()
        .filter(|&id| forest.reached.get(id).copied().unwrap_or(false))
        .count();
    eprintln!("library functions reachable from the serve panic roots: {reached}");
    assert!(reached > 0);
}
