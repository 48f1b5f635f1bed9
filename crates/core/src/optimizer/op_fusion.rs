//! Operator-level fusion — the numexpr/JAX stand-in of §V-A.
//!
//! Chains of elementwise chunk operators (`DfMap` / `ArrMap`) whose
//! intermediate output has exactly one consumer and is not a protected
//! result are collapsed into a single operator that evaluates all steps in
//! one task: intermediates never get materialised into the storage service,
//! and for arrays the scalar chain is evaluated in a single pass over the
//! buffer.

use crate::chunk::{ChunkGraph, ChunkKey, ChunkOp, KeyMap};
use std::collections::HashSet;

/// Fuses elementwise chains in place; returns the number of operators
/// eliminated.
///
/// An edge `u -> v` is fusable when `v` is elementwise with exactly one
/// input, that input is `u`'s only output, it has no other consumer and is
/// not protected, and `u` is an elementwise operator of the same family
/// (dataframe with dataframe, array with array). Merging never changes
/// which edges are fusable, so one walk in topological order suffices:
/// each consumer absorbs its fusable producer, whose steps already include
/// everything fused into it, and the absorbed nodes are dropped in one
/// `retain`. Chains collapse into their last node, which keeps its place.
/// Chunk keys are unique, so every key has at most one producer.
pub fn fuse_elementwise(graph: &mut ChunkGraph, protected: &HashSet<ChunkKey>) -> usize {
    // output key of each elementwise single-output node -> (node, number
    // of input slots reading it)
    let mut links: KeyMap<(usize, usize)> = KeyMap::default();
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.op.is_elementwise() && node.outputs.len() == 1 {
            links.insert(node.outputs[0], (i, 0));
        }
    }
    for node in &graph.nodes {
        for k in &node.inputs {
            if let Some(link) = links.get_mut(k) {
                link.1 += 1;
            }
        }
    }

    let mut dead = vec![false; graph.nodes.len()];
    for vi in 0..graph.nodes.len() {
        let v = &graph.nodes[vi];
        if !v.op.is_elementwise() || v.inputs.len() != 1 || protected.contains(&v.inputs[0]) {
            continue;
        }
        let Some(&(ui, 1)) = links.get(&v.inputs[0]) else {
            continue;
        };
        debug_assert!(ui < vi, "chunk graph is not topological");
        let (head, tail) = graph.nodes.split_at_mut(vi);
        let (u, v) = (&mut head[ui], &mut tail[0]);
        match (&mut u.op, &mut v.op) {
            (ChunkOp::DfMap(a), ChunkOp::DfMap(b)) => {
                a.append(b);
                std::mem::swap(a, b);
            }
            (ChunkOp::ArrMap(a), ChunkOp::ArrMap(b)) => {
                a.append(b);
                std::mem::swap(a, b);
            }
            _ => continue,
        }
        v.inputs = std::mem::take(&mut u.inputs);
        dead[ui] = true;
    }

    let before = graph.nodes.len();
    let mut i = 0;
    graph.nodes.retain(|_| {
        i += 1;
        !dead[i - 1]
    });
    before - graph.nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkNode, DfStep, KeyGen};
    use xorbits_dataframe::{col, lit};

    fn map_node(inputs: Vec<ChunkKey>, out: ChunkKey) -> ChunkNode {
        ChunkNode {
            op: ChunkOp::DfMap(vec![DfStep::Filter(col("a").gt(lit(0i64)))]),
            inputs,
            outputs: vec![out],
        }
    }

    #[test]
    fn chain_of_three_fuses_to_one() {
        let mut kg = KeyGen::new();
        let (a, b, c, d) = (kg.next_key(), kg.next_key(), kg.next_key(), kg.next_key());
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![a],
        });
        g.push(map_node(vec![a], b));
        g.push(map_node(vec![b], c));
        g.push(map_node(vec![c], d));
        let protected: HashSet<_> = [d].into_iter().collect();
        let n = fuse_elementwise(&mut g, &protected);
        assert_eq!(n, 2);
        assert_eq!(g.nodes.len(), 2);
        // the surviving map holds all three steps
        let fused = &g.nodes[1];
        match &fused.op {
            ChunkOp::DfMap(steps) => assert_eq!(steps.len(), 3),
            other => panic!("expected DfMap, got {other:?}"),
        }
        assert_eq!(fused.inputs, vec![a]);
        assert_eq!(fused.outputs, vec![d]);
        assert!(g.validate_topological().is_ok());
    }

    #[test]
    fn shared_intermediate_not_fused() {
        let mut kg = KeyGen::new();
        let (a, b, c, d) = (kg.next_key(), kg.next_key(), kg.next_key(), kg.next_key());
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![a],
        });
        g.push(map_node(vec![a], b));
        // b consumed twice: fusion across it must not happen
        g.push(map_node(vec![b], c));
        g.push(map_node(vec![b], d));
        let protected: HashSet<_> = [c, d].into_iter().collect();
        let n = fuse_elementwise(&mut g, &protected);
        assert_eq!(n, 0);
        assert_eq!(g.nodes.len(), 4);
    }

    #[test]
    fn protected_intermediate_not_fused() {
        let mut kg = KeyGen::new();
        let (a, b, c) = (kg.next_key(), kg.next_key(), kg.next_key());
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![a],
        });
        g.push(map_node(vec![a], b));
        g.push(map_node(vec![b], c));
        // b is itself a fetched result: must stay materialised
        let protected: HashSet<_> = [b, c].into_iter().collect();
        let n = fuse_elementwise(&mut g, &protected);
        assert_eq!(n, 0);
    }

    #[test]
    fn arr_chains_fuse_too() {
        use crate::chunk::ArrStep;
        use xorbits_array::ElemOp;
        let mut kg = KeyGen::new();
        let (a, b, c) = (kg.next_key(), kg.next_key(), kg.next_key());
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![a],
        });
        let step = |op| ChunkNode {
            op: ChunkOp::ArrMap(vec![ArrStep { op, operand: 2.0 }]),
            inputs: vec![],
            outputs: vec![],
        };
        let mut n1 = step(ElemOp::Mul);
        n1.inputs = vec![a];
        n1.outputs = vec![b];
        g.push(n1);
        let mut n2 = step(ElemOp::Add);
        n2.inputs = vec![b];
        n2.outputs = vec![c];
        g.push(n2);
        let protected: HashSet<_> = [c].into_iter().collect();
        assert_eq!(fuse_elementwise(&mut g, &protected), 1);
        match &g.nodes[1].op {
            ChunkOp::ArrMap(steps) => assert_eq!(steps.len(), 2),
            other => panic!("expected ArrMap, got {other:?}"),
        }
    }
}
