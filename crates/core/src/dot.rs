//! Graphviz (DOT) export of the logical dataflow job, in the style of the
//! paper's Figure 3b: basic blocks as dashed clusters, Φ-nodes filled
//! black, condition nodes colored, conditional edges dashed and colored
//! like their deciding condition node, wrapped scalars thin-bordered.
//!
//! Runtime annotations are composed through one options struct,
//! [`DotOverlay`]: observed metrics counts, critical-path highlighting,
//! data-plane flow heat, and state-residency heat each activate when the
//! corresponding field is set, and freely combine.

use crate::graph::{LogicalGraph, NodeKind, OpId, Parallelism, Partitioning};
use crate::obs::{CriticalPath, FlowReport, MemReport, MetricsRegistry};
use crate::path::PathRules;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Colors assigned to condition nodes (cycled).
const CONDITION_COLORS: [&str; 4] = ["blue", "brown", "darkgreen", "purple"];

/// Optional runtime overlays for [`to_dot`]. `DotOverlay::default()`
/// renders the plain structural graph; set any combination of fields to
/// annotate it. Replaces the former `to_dot_with_metrics` /
/// `to_dot_annotated` / `to_dot_with_flow` / `to_dot_with_mem` family.
#[derive(Clone, Copy, Default)]
pub struct DotOverlay<'a> {
    /// Observed runtime counts (from [`crate::obs::ObsReport::metrics`]):
    /// per-node `bags`/`emitted`/`hoists`, per-conditional-edge
    /// `sent`/`drop`.
    pub metrics: Option<&'a MetricsRegistry>,
    /// Critical-path highlighting ([`crate::obs::critical_path`]):
    /// operators and logical edges on the traced run's critical path
    /// render bold red with their exclusive time contribution.
    pub critical: Option<&'a CriticalPath>,
    /// Data-plane heat from a run's [`FlowReport`]: edge width and color
    /// scale with observed serialized bytes (hottest edges bold red),
    /// labels carry bytes/elements.
    pub flow: Option<&'a FlowReport>,
    /// State-residency heat from a run's [`MemReport`]: node border width
    /// and color scale with each operator's peak resident bytes (hungriest
    /// operators bold red), labels carry the peak.
    pub mem: Option<&'a MemReport>,
}

/// Renders the dataflow as a DOT digraph, annotated with whichever
/// overlays are set in `overlay` (pass `&DotOverlay::default()` for the
/// plain structural graph).
pub fn to_dot(graph: &LogicalGraph, overlay: &DotOverlay) -> String {
    let DotOverlay {
        metrics,
        critical,
        flow,
        mem,
    } = *overlay;
    let crit_ops: BTreeMap<u32, u64> = critical
        .map(|c| c.op_contrib.iter().copied().collect())
        .unwrap_or_default();
    let crit_edges: BTreeMap<u32, u64> = critical
        .map(|c| c.edge_contrib.iter().copied().collect())
        .unwrap_or_default();
    // Per-operator peak resident bytes; the hungriest normalizes the heat.
    let mem_ops: BTreeMap<u32, u64> = mem
        .map(|m| {
            m.ops_by_peak()
                .into_iter()
                .filter(|&(_, peak, _)| peak > 0)
                .map(|(op, peak, _)| (op, peak))
                .collect()
        })
        .unwrap_or_default();
    let max_mem_peak = mem_ops.values().copied().max().unwrap_or(0);
    let rules = PathRules::build(graph);
    let mut out = String::new();
    let _ = writeln!(out, "digraph mitos {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");

    // Color per condition node's block (its decisions gate same-colored
    // conditional edges).
    let mut cond_color: Vec<Option<&str>> = vec![None; graph.func.block_count()];
    let mut next_color = 0usize;
    for node in &graph.nodes {
        if node.condition.is_some() {
            cond_color[node.block as usize] =
                Some(CONDITION_COLORS[next_color % CONDITION_COLORS.len()]);
            next_color += 1;
        }
    }

    // Nodes grouped into block clusters (the dotted rectangles of Fig. 3).
    for block in 0..graph.func.block_count() {
        let members: Vec<(OpId, &crate::graph::LogicalNode)> = graph
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i as OpId, n))
            .filter(|(_, n)| n.block as usize == block)
            .collect();
        if members.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  subgraph cluster_block{block} {{");
        let _ = writeln!(out, "    label=\"block {block}\"; style=dashed;");
        for (id, node) in members {
            let mut attrs = Vec::new();
            match node.kind {
                NodeKind::Phi => {
                    attrs.push("style=filled".to_string());
                    attrs.push("fillcolor=black".to_string());
                    attrs.push("fontcolor=white".to_string());
                }
                _ => {
                    if node.condition.is_some() {
                        let color = cond_color[node.block as usize].unwrap_or("blue");
                        attrs.push("style=filled".to_string());
                        attrs.push(format!("fillcolor={color}"));
                        attrs.push("fontcolor=white".to_string());
                    } else if node.parallelism == Parallelism::Single {
                        // Wrapped scalars: thin borders in the paper.
                        attrs.push("penwidth=0.5".to_string());
                    } else {
                        attrs.push("penwidth=2".to_string());
                    }
                }
            }
            let mut label = format!("{}\\n{}", node.name, node.kind.label());
            if let Some(m) = metrics.and_then(|m| m.ops.get(id as usize)) {
                let _ = write!(
                    label,
                    "\\nbags={} emitted={}",
                    m.bags_opened, m.elements_emitted
                );
                if m.hoist_hits > 0 {
                    let _ = write!(label, " hoists={}", m.hoist_hits);
                }
            }
            if let Some(&ns) = crit_ops.get(&id) {
                // Last color/penwidth wins in DOT, so the highlight
                // overrides any styling pushed above.
                attrs.push("color=red".to_string());
                attrs.push("penwidth=3".to_string());
                let _ = write!(label, "\\ncrit={}", crate::obs::fmt_ns(ns));
            }
            if let Some(&peak) = mem_ops.get(&id) {
                // Heat scales with this operator's share of the hungriest
                // operator's peak residency; operators that never held
                // state keep the plain styling.
                let frac = peak as f64 / max_mem_peak.max(1) as f64;
                let color = if frac > 0.66 {
                    "red"
                } else if frac > 0.33 {
                    "orange"
                } else {
                    "gray40"
                };
                attrs.push(format!("color={color}"));
                attrs.push(format!("penwidth={:.1}", 1.0 + 4.0 * frac));
                let _ = write!(label, "\\npeak={}", crate::obs::flow::fmt_bytes(peak));
            }
            let _ = writeln!(out, "    n{id} [label=\"{label}\", {}];", attrs.join(", "));
        }
        let _ = writeln!(out, "  }}");
    }

    // Hottest edge's byte count normalizes the heat overlay.
    let max_flow_bytes = flow
        .map(|f| f.edges.iter().map(|e| e.bytes()).max().unwrap_or(0))
        .unwrap_or(0);
    // Edges; conditional (watched) edges are dashed and colored like the
    // condition that gates the target block.
    for (eid, edge) in graph.edges.iter().enumerate() {
        let r = &rules.edges[eid];
        let mut attrs: Vec<String> = Vec::new();
        let mut label_parts: Vec<String> = Vec::new();
        if !r.immediate {
            attrs.push("style=dashed".to_string());
            if let Some(color) = cond_color
                .get(r.dst_block as usize)
                .copied()
                .flatten()
                .or_else(|| cond_color.get(r.src_block as usize).copied().flatten())
            {
                attrs.push(format!("color={color}"));
            }
            if let Some(em) = metrics.and_then(|m| m.edges.get(eid)) {
                if em.sent_bags + em.dropped_bags > 0 {
                    label_parts.push(format!("sent={} drop={}", em.sent_bags, em.dropped_bags));
                }
            }
        }
        match edge.partitioning {
            Partitioning::Hash => label_parts.insert(0, "hash".to_string()),
            Partitioning::Broadcast => label_parts.insert(0, "bcast".to_string()),
            Partitioning::Gather => label_parts.insert(0, "gather".to_string()),
            Partitioning::Forward => {}
        }
        if let Some(&ns) = crit_edges.get(&(eid as u32)) {
            attrs.push("color=red".to_string());
            attrs.push("penwidth=3".to_string());
            label_parts.push(format!("crit={}", crate::obs::fmt_ns(ns)));
        }
        if let Some(ef) = flow
            .and_then(|f| f.edges.get(eid))
            .filter(|ef| ef.bytes() > 0)
        {
            // Heat scales with this edge's share of the hottest edge's
            // bytes; edges that carried nothing keep the plain styling.
            let frac = ef.bytes() as f64 / max_flow_bytes.max(1) as f64;
            let color = if frac > 0.66 {
                "red"
            } else if frac > 0.33 {
                "orange"
            } else {
                "gray40"
            };
            attrs.push(format!("color={color}"));
            attrs.push(format!("penwidth={:.1}", 1.0 + 4.0 * frac));
            label_parts.push(format!(
                "{} / {} elems",
                crate::obs::flow::fmt_bytes(ef.bytes()),
                ef.elems_out()
            ));
        }
        if !label_parts.is_empty() {
            attrs.push(format!("label=\"{}\"", label_parts.join("\\n")));
        }
        let _ = writeln!(
            out,
            "  n{} -> n{} [{}];",
            edge.src,
            edge.dst,
            attrs.join(", ")
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LogicalGraph;

    fn dot_of(src: &str) -> String {
        to_dot(
            &LogicalGraph::build(&mitos_ir::compile_str(src).unwrap()).unwrap(),
            &DotOverlay::default(),
        )
    }

    #[test]
    fn renders_clusters_and_edges() {
        let dot = dot_of("i = 0; while (i < 3) { b = bag((i, 1)); i = i + 1; } output(i, \"i\");");
        assert!(dot.starts_with("digraph mitos {"));
        assert!(dot.contains("cluster_block0"), "{dot}");
        assert!(dot.contains("fillcolor=black"), "phi present: {dot}");
        assert!(dot.contains("style=dashed"), "conditional edges: {dot}");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn condition_nodes_are_colored() {
        let dot = dot_of("c = true; if (c) { x = 1; } else { x = 2; } output(x, \"x\");");
        assert!(dot.contains("fillcolor=blue"), "{dot}");
    }

    #[test]
    fn hash_edges_are_labelled() {
        let dot =
            dot_of("a = bag((1, 2)); b = bag((1, 3)); c = a join b; output(c.count(), \"n\");");
        assert!(dot.contains("label=\"hash\""), "{dot}");
        assert!(dot.contains("label=\"gather\""), "{dot}");
    }

    #[test]
    fn node_count_matches_graph() {
        let src = "a = bag(1); b = a.map(x => x); output(b, \"b\");";
        let graph = LogicalGraph::build(&mitos_ir::compile_str(src).unwrap()).unwrap();
        let dot = to_dot(&graph, &DotOverlay::default());
        let rendered = dot.matches("[label=\"").count();
        // One label per node plus edge labels; at least every node renders.
        assert!(rendered >= graph.nodes.len(), "{dot}");
    }

    #[test]
    fn metrics_overlay_annotates_nodes_and_edges() {
        use crate::obs::ObsLevel;
        use crate::rt::EngineConfig;
        use mitos_fs::InMemoryFs;
        use mitos_sim::SimConfig;

        let src = r#"
            t = 0;
            for i = 1 to 3 {
                if (i % 2 == 0) { t = t + i; }
            }
            output(t, "t");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let cfg = EngineConfig::new().with_obs(ObsLevel::Metrics);
        // The overlay must be laid over the graph the engine actually ran
        // (post-fusion), so indices line up with the metrics registry.
        let graph = crate::fuse::planned_graph(&func, &cfg).unwrap();
        let fs = InMemoryFs::new();
        let r = crate::engine::run_sim(&func, &fs, cfg, SimConfig::with_machines(2)).unwrap();
        let obs = r.obs.expect("metrics collected");
        let dot = to_dot(
            &graph,
            &DotOverlay {
                metrics: Some(&obs.metrics),
                ..DotOverlay::default()
            },
        );
        assert!(dot.contains("bags="), "node overlay: {dot}");
        assert!(dot.contains("emitted="), "node overlay: {dot}");
        assert!(
            dot.contains("sent=") || dot.contains("drop="),
            "conditional edge overlay: {dot}"
        );
    }

    #[test]
    fn flow_overlay_heats_data_edges() {
        use crate::rt::EngineConfig;
        use mitos_fs::InMemoryFs;
        use mitos_sim::SimConfig;

        let src = r#"
            total = 0;
            i = 0;
            while (i < 3) {
                b = bag((1, i), (2, i), (3, i));
                total = total + b.count();
                i = i + 1;
            }
            output(total, "t");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let cfg = EngineConfig::default();
        let graph = crate::fuse::planned_graph(&func, &cfg).unwrap();
        let fs = InMemoryFs::new();
        let r = crate::engine::run_sim(&func, &fs, cfg, SimConfig::with_machines(2)).unwrap();
        let dot = to_dot(
            &graph,
            &DotOverlay {
                flow: Some(&r.flow),
                ..DotOverlay::default()
            },
        );
        assert!(dot.contains("elems"), "flow labels present: {dot}");
        assert!(dot.contains("penwidth=5.0"), "hottest edge bold: {dot}");
        assert!(dot.contains("color=red"), "hottest edge red: {dot}");
    }

    #[test]
    fn mem_overlay_heats_stateful_nodes() {
        use crate::rt::EngineConfig;
        use mitos_fs::InMemoryFs;
        use mitos_sim::SimConfig;

        let src = r#"
            total = 0;
            i = 0;
            while (i < 3) {
                b = bag((1, i), (2, i), (3, i));
                total = total + b.count();
                i = i + 1;
            }
            output(total, "t");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let cfg = EngineConfig::default();
        let graph = crate::fuse::planned_graph(&func, &cfg).unwrap();
        let fs = InMemoryFs::new();
        let r = crate::engine::run_sim(&func, &fs, cfg, SimConfig::with_machines(2)).unwrap();
        let dot = to_dot(
            &graph,
            &DotOverlay {
                mem: Some(&r.mem),
                ..DotOverlay::default()
            },
        );
        assert!(dot.contains("peak="), "mem labels present: {dot}");
        assert!(dot.contains("penwidth=5.0"), "hungriest node bold: {dot}");
        assert!(dot.contains("color=red"), "hungriest node red: {dot}");
    }

    #[test]
    fn critical_path_overlay_highlights_bottleneck() {
        use crate::obs::{critical_path, ObsLevel};
        use crate::rt::EngineConfig;
        use mitos_fs::InMemoryFs;
        use mitos_sim::SimConfig;

        let src = r#"
            total = 0;
            i = 0;
            while (i < 3) {
                b = bag((1, i), (2, i));
                total = total + b.count();
                i = i + 1;
            }
            output(total, "t");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let cfg = EngineConfig::new().with_obs(ObsLevel::Trace);
        let graph = crate::fuse::planned_graph(&func, &cfg).unwrap();
        let fs = InMemoryFs::new();
        let r = crate::engine::run_sim(&func, &fs, cfg, SimConfig::with_machines(2)).unwrap();
        let obs = r.obs.expect("trace collected");
        let critical = critical_path(&obs, r.sim.end_time);
        assert!(!critical.steps.is_empty(), "critical path found");
        let dot = to_dot(
            &graph,
            &DotOverlay {
                metrics: Some(&obs.metrics),
                critical: Some(&critical),
                ..DotOverlay::default()
            },
        );
        assert!(dot.contains("crit="), "critical overlay present: {dot}");
        assert!(dot.contains("color=red"), "highlight present: {dot}");
    }
}
