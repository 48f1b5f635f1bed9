//! Graph optimization passes (§V-A): column pruning on the tileable graph,
//! operator-level fusion and coloring-based graph-level fusion on the chunk
//! graph.

pub mod coloring;
pub mod op_fusion;
pub mod pruning;

use crate::chunk::{Adjacency, ChunkGraph, ChunkKey};
use crate::config::XorbitsConfig;
use crate::subtask::{GroupOrder, SubtaskGraph};
use crate::trace;
use std::collections::HashSet;

/// Lowers an (already tiled) chunk graph to a subtask graph, applying
/// operator-level fusion and coloring-based graph-level fusion according to
/// the configuration. Every pass is linear in the graph's size: fusion
/// resolves keys once, and coloring and the subtask build share one
/// [`Adjacency`] built after it.
pub fn build_subtask_graph(
    mut chunks: ChunkGraph,
    cfg: &XorbitsConfig,
    protected: HashSet<ChunkKey>,
) -> SubtaskGraph {
    if cfg.op_fusion {
        let before = chunks.nodes.len();
        trace::timed(trace::Stage::Optimize, "op_fusion", || {
            op_fusion::fuse_elementwise(&mut chunks, &protected)
        });
        if trace::is_enabled() {
            trace::counter_add("optimize.ops_fused", (before - chunks.nodes.len()) as u64);
        }
    }
    if cfg.graph_fusion {
        let _g = trace::span(trace::Stage::Optimize, "coloring");
        let adj = Adjacency::new(&chunks);
        let colors = coloring::color_graph(&adj);
        let order = GroupOrder::new(&adj, &colors).unwrap_or_else(|_| GroupOrder::singletons(&adj));
        let sg = order.build(chunks, &adj, protected);
        if trace::is_enabled() {
            trace::counter_add(
                "optimize.chunks_fused",
                sg.chunks.nodes.len().saturating_sub(sg.len()) as u64,
            );
        }
        return sg;
    }
    SubtaskGraph::singletons(chunks, protected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkNode, ChunkOp, DfStep, KeyGen};
    use xorbits_dataframe::{col, lit};

    fn chain() -> (ChunkGraph, Vec<ChunkKey>) {
        let mut kg = KeyGen::new();
        let keys: Vec<_> = (0..4).map(|_| kg.next_key()).collect();
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![keys[0]],
        });
        for i in 1..4 {
            g.push(ChunkNode {
                op: ChunkOp::DfMap(vec![DfStep::Filter(col("a").gt(lit(0i64)))]),
                inputs: vec![keys[i - 1]],
                outputs: vec![keys[i]],
            });
        }
        (g, keys)
    }

    #[test]
    fn full_optimization_collapses_chain() {
        let (g, keys) = chain();
        let protected: HashSet<_> = [keys[3]].into_iter().collect();
        let sg = build_subtask_graph(g, &XorbitsConfig::default(), protected);
        // op fusion merges the three maps; coloring fuses source+map
        assert_eq!(sg.len(), 1);
        assert_eq!(sg.chunks.nodes.len(), 2);
    }

    #[test]
    fn fusion_disabled_yields_singletons() {
        let (g, keys) = chain();
        let protected: HashSet<_> = [keys[3]].into_iter().collect();
        let cfg = XorbitsConfig::default()
            .without_graph_fusion()
            .without_op_fusion();
        let sg = build_subtask_graph(g, &cfg, protected);
        assert_eq!(sg.len(), 4);
    }

    #[test]
    fn op_fusion_only_keeps_separate_subtasks() {
        let (g, keys) = chain();
        let protected: HashSet<_> = [keys[3]].into_iter().collect();
        let cfg = XorbitsConfig::default().without_graph_fusion();
        let sg = build_subtask_graph(g, &cfg, protected);
        // maps fused into one op, but source and map stay separate subtasks
        assert_eq!(sg.chunks.nodes.len(), 2);
        assert_eq!(sg.len(), 2);
    }
}
