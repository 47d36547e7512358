//! `admissible-chain`: call-graph-level admissibility for the cascade.
//!
//! The cascade entry points (`h_merge_cascade*`) dismiss candidates
//! using whatever tiers they reach — so the admissibility obligation is
//! a property of the *call graph*, not of any single file: every
//! function reachable from a cascade root that produces a bound must
//! carry a witness (`debug_assert` / delegation, as `lb-witness`
//! defines) or an explicit exemption. Wiring a new tier into the
//! cascade without a witness is then a lint failure even if the tier
//! lives in another crate and `lb-witness` alone would pass its file in
//! isolation — and a *non*-bound-named helper that returns bound-tainted
//! values into the cascade is flagged as an unwitnessed tier outright.

use crate::findings::Finding;
use crate::interproc::{is_bound_source, Workspace};
use crate::rules::lb_coverage::is_lower_bound_name;
use crate::rules::lb_witness::has_witness;
use crate::source::{FileKind, SourceFile};

/// Rule id.
pub const ID: &str = "admissible-chain";

/// Name prefix of the cascade entry points: the reachability roots.
pub const ROOT_PREFIX: &str = "h_merge_cascade";

/// Cascade entry points: reachability roots.
fn is_root(name: &str) -> bool {
    name.starts_with(ROOT_PREFIX)
}

/// Check the analyzed workspace.
pub fn check(ws: &Workspace<'_>, files: &[SourceFile]) -> Vec<Finding> {
    let nodes = &ws.graph.index.nodes;
    let roots: Vec<usize> = nodes
        .iter()
        .filter(|n| is_root(&n.decl.name) && !n.is_test)
        .map(|n| n.id)
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    // Per-root reachability so the finding can name the entry point
    // that wires the tier in.
    let mut via_root: Vec<Option<usize>> = vec![None; nodes.len()];
    for &root in &roots {
        let seen = ws.graph.reachable_from(&[root]);
        for (slot, hit) in via_root.iter_mut().zip(&seen) {
            if *hit && slot.is_none() {
                *slot = Some(root);
            }
        }
    }
    let mut out = Vec::new();
    for node in nodes {
        let Some(root) = via_root.get(node.id).copied().flatten() else {
            continue;
        };
        let Some(file) = files.get(node.file) else {
            continue;
        };
        if file.kind != FileKind::Library || node.is_test || node.decl.body.is_none() {
            continue;
        }
        let Some(summary) = ws.summaries.get(node.id) else {
            continue;
        };
        let Some(root_name) = nodes.get(root).map(|n| &n.decl.name) else {
            continue;
        };
        if is_lower_bound_name(&node.decl.name) {
            if !has_witness(node.decl) && !exempted(file, node) {
                out.push(Finding::new(
                    ID,
                    &file.path,
                    node.decl.name_line,
                    format!(
                        "cascade tier `{}` is reachable from `{root_name}` but \
                         carries no admissibility witness; a dismissal through \
                         an unwitnessed tier can silently over-tighten — add a \
                         `debug_assert!` witness, delegate to a witnessed \
                         bound, or justify with `// lint: witness-exempt(…)`",
                        node.decl.name
                    ),
                ));
            }
        } else if summary.returns_bound
            && !is_bound_source(&node.decl.name)
            && !has_witness(node.decl)
            && !exempted(file, node)
        {
            out.push(
                Finding::new(
                    ID,
                    &file.path,
                    node.decl.name_line,
                    format!(
                        "`{}` is reachable from `{root_name}` and returns a \
                         bound-tainted value, making it an *unnamed* cascade \
                         tier with no admissibility witness; name it \
                         `*_tier_bound` and witness it, or stop returning the \
                         bound",
                        node.decl.name
                    ),
                )
                .with_witness(summary.bound_witness.clone()),
            );
        }
    }
    out
}

/// The same exemption window `lb-witness` honours: a
/// `// lint: witness-exempt(<reason>)` from the line above the item
/// through the end of the body (an empty reason is `lb-witness`'s
/// finding to make, not ours).
fn exempted(file: &SourceFile, node: &crate::resolve::FnNode<'_>) -> bool {
    super::exemption_window(file, node, SourceFile::witness_exempt).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interproc::analyze;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s, crate::source::kind_for_path(p)))
            .collect();
        let ws = analyze(&files);
        check(&ws, &files)
    }

    #[test]
    fn unwitnessed_tier_wired_into_cascade_is_flagged() {
        let f = run(&[
            (
                "crates/rotind-index/src/hmerge.rs",
                "pub fn h_merge_cascade_observed(q: &[f64], r: f64) -> bool { node_tier_bound(q) > r }\n",
            ),
            (
                "crates/rotind-index/src/tiers.rs",
                "pub fn node_tier_bound(q: &[f64]) -> f64 { q.len() as f64 }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("node_tier_bound"));
        assert!(f[0].message.contains("h_merge_cascade_observed"));
        assert_eq!(f[0].path, "crates/rotind-index/src/tiers.rs");
    }

    #[test]
    fn witnessed_and_exempt_tiers_pass() {
        let f = run(&[
            (
                "crates/rotind-index/src/hmerge.rs",
                "pub fn h_merge_cascade_observed(q: &[f64], r: f64) -> bool { node_tier_bound(q) > r || other_tier_bound(q) > r }\n",
            ),
            (
                "crates/rotind-index/src/tiers.rs",
                "pub fn node_tier_bound(q: &[f64]) -> f64 { let lb = q.len() as f64; debug_assert!(lb >= 0.0); lb }\n// lint: witness-exempt(constant zero floor is trivially admissible)\npub fn other_tier_bound(q: &[f64]) -> f64 { 0.0 }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unreachable_tiers_are_not_this_rules_problem() {
        let f = run(&[
            (
                "crates/rotind-index/src/hmerge.rs",
                "pub fn h_merge_cascade_observed(q: &[f64]) -> f64 { q[0] }\n",
            ),
            (
                "crates/rotind-index/src/tiers.rs",
                "pub fn island_tier_bound(q: &[f64]) -> f64 { 0.0 }\n",
            ),
        ]);
        assert!(f.is_empty(), "lb-witness covers unreachable tiers: {f:?}");
    }

    #[test]
    fn unnamed_tier_returning_bound_is_flagged_with_witness() {
        // `min_dist` is a bound source but not an `lb_*` name, so the
        // delegation-counts-as-witness escape does not apply.
        let f = run(&[(
            "crates/rotind-index/src/hmerge.rs",
            "fn estimate(paa: &Paa, env: &Env) -> f64 { env.min_dist(paa) }\npub fn h_merge_cascade_observed(paa: &Paa, env: &Env, r: f64) -> bool { estimate(paa, env) > r }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("estimate"), "{}", f[0].message);
        assert!(!f[0].witness.is_empty());
    }

    #[test]
    fn delegating_helper_counts_as_witnessed() {
        // Delegation to an `lb_*` kernel is a witness chain; the helper
        // is `prune-only`'s problem (it returns a bound without a bound
        // name), not an unwitnessed tier.
        let f = run(&[(
            "crates/rotind-index/src/hmerge.rs",
            "fn estimate(q: &[f64]) -> f64 { lb_kim(q) }\npub fn h_merge_cascade_observed(q: &[f64], r: f64) -> bool { estimate(q) > r }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_cascade_roots_means_no_findings() {
        let f = run(&[(
            "crates/rotind-index/src/tiers.rs",
            "pub fn naked_tier_bound(q: &[f64]) -> f64 { 0.0 }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
