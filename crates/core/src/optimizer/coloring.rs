//! Coloring-based graph-level fusion — the paper's §V-A algorithm (Fig 7).
//!
//! Three passes assign every chunk node a color; same-colored neighbours
//! fuse into one subtask:
//!
//! 1. **Initial coloring** — nodes without predecessors each get a fresh
//!    color.
//! 2. **Forward propagation** — in topological order, a node whose
//!    predecessors all share one color inherits it; otherwise it gets a
//!    fresh color.
//! 3. **Separation** — for each node whose successors *mix* its own color
//!    with different colors, the same-colored successors are recolored
//!    fresh (and the new color propagates down the chain). This splits
//!    nodes whose output is also needed elsewhere out of the straight-line
//!    chain — e.g. Fig 7's Operator ① must not fuse with ③ or ⑤.

use crate::chunk::{Adjacency, Csr};

/// Computes the color (= fusion group id) of every node. Linear in the
/// graph's size apart from the separation step's re-checks, which only run
/// on the rare nodes whose successors mix colors.
pub fn color_graph(adj: &Adjacency) -> Vec<usize> {
    let n = adj.nodes();
    // distinct in-graph predecessors of each node, in order of first use
    let mut preds = Csr::with_capacity(n, 0);
    // nodes also reading chunks produced by *earlier executions* (dynamic
    // tiling fragments): their data does not flow from their in-graph
    // predecessor, so they must not inherit its color — otherwise e.g.
    // every broadcast join hanging off one Concat would fuse into a single
    // serial subtask
    let mut has_external = vec![false; n];
    let mut stamp = vec![usize::MAX; n];
    for (ci, external) in has_external.iter_mut().enumerate() {
        for p in adj.input_producers(ci) {
            match p {
                Some(pi) if stamp[pi] != ci => {
                    stamp[pi] = ci;
                    preds.push(pi as u32);
                }
                Some(_) => {}
                None => *external = true,
            }
        }
        preds.end_row();
    }
    // successors in ascending order
    let succs = Csr::from_pairs(
        n,
        (0..n).flat_map(|ci| preds.row(ci).iter().map(move |&p| (p as usize, ci as u32))),
    );

    let mut colors = vec![usize::MAX; n];
    let mut next_color = 0usize;
    let mut fresh = || {
        let c = next_color;
        next_color += 1;
        c
    };

    // Steps 1 + 2: initial colors, then forward inheritance.
    // (insertion order is topological)
    for i in 0..n {
        let ps = preds.row(i);
        if ps.is_empty() {
            colors[i] = fresh();
        } else {
            let first = colors[ps[0] as usize];
            if !has_external[i] && ps.iter().all(|&p| colors[p as usize] == first) {
                colors[i] = first;
            } else {
                colors[i] = fresh();
            }
        }
    }

    // Step 3: separation. For each node in topological order, if its
    // successors mix same-color and different-color, give the same-colored
    // successors a fresh color and propagate it along their inheritance
    // chains.
    for i in 0..n {
        let c = colors[i];
        let ss = succs.row(i);
        if !ss.iter().any(|&s| colors[s as usize] != c) {
            continue;
        }
        let same: Vec<usize> = ss
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| colors[s] == c)
            .collect();
        for s in same {
            let new_c = fresh();
            recolor_chain(s, c, new_c, &mut colors, &succs, &preds);
        }
    }
    colors
}

/// Recolors `start` from `old` to `new`, then follows descendants that had
/// inherited `old` (all of whose predecessors now carry `new`).
fn recolor_chain(
    start: usize,
    old: usize,
    new: usize,
    colors: &mut [usize],
    succs: &Csr,
    preds: &Csr,
) {
    colors[start] = new;
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &v in succs.row(u) {
            let v = v as usize;
            if colors[v] == old && preds.row(v).iter().all(|&p| colors[p as usize] == new) {
                colors[v] = new;
                stack.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkGraph, ChunkNode, ChunkOp, KeyGen};

    /// Builds a graph from an adjacency description: `edges[i]` lists the
    /// predecessors of node `i`.
    fn graph_from_preds(edges: &[&[usize]]) -> ChunkGraph {
        let mut kg = KeyGen::new();
        let keys: Vec<_> = (0..edges.len()).map(|_| kg.next_key()).collect();
        let mut g = ChunkGraph::new();
        for (i, preds) in edges.iter().enumerate() {
            g.push(ChunkNode {
                op: ChunkOp::Concat,
                inputs: preds.iter().map(|&p| keys[p]).collect(),
                outputs: vec![keys[i]],
            });
        }
        g
    }

    #[test]
    fn straight_chain_single_color() {
        let g = graph_from_preds(&[&[], &[0], &[1], &[2]]);
        let c = color_graph(&Adjacency::new(&g));
        assert!(
            c.iter().all(|&x| x == c[0]),
            "chain should fully fuse: {c:?}"
        );
    }

    #[test]
    fn independent_sources_distinct_colors() {
        let g = graph_from_preds(&[&[], &[]]);
        let c = color_graph(&Adjacency::new(&g));
        assert_ne!(c[0], c[1]);
    }

    #[test]
    fn join_node_gets_new_color() {
        // 0 -> 2 <- 1 : node 2 has mixed-color predecessors
        let g = graph_from_preds(&[&[], &[], &[0, 1]]);
        let c = color_graph(&Adjacency::new(&g));
        assert_ne!(c[2], c[0]);
        assert_ne!(c[2], c[1]);
    }

    /// The paper's Figure 7 topology:
    /// ① → ③ → ④, ① → ⑤, ② → ⑤ (wait: ⑤ has preds ①②), ② → ⑦ → …
    /// Operator ① must NOT fuse with ③ (its output also feeds ⑤), and
    /// ③④ fuse together.
    #[test]
    fn figure7_separation() {
        // nodes: 0=①, 1=②, 2=③, 3=④, 4=⑤, 5=⑦, 6=⑥(succ of 5 and 4?)
        // Simplified faithful core: ① feeds ③ and ⑤; ② feeds ⑤ and ⑦;
        // ③ feeds ④; ⑦ feeds ⑥.
        let g = graph_from_preds(&[
            &[],     // 0 = ①
            &[],     // 1 = ②
            &[0],    // 2 = ③ inherits C1 in step 2
            &[2],    // 3 = ④ inherits
            &[0, 1], // 4 = ⑤ mixed preds -> new color
            &[1],    // 5 = ⑦ inherits C2 in step 2
            &[5, 4], // 6 = ⑥ mixed -> new color
        ]);
        let c = color_graph(&Adjacency::new(&g));
        // separation: ① not fused with ③
        assert_ne!(c[0], c[2], "① must be split from ③: {c:?}");
        // ③ and ④ stay fused (the new color propagated to ④)
        assert_eq!(c[2], c[3], "③ and ④ should fuse: {c:?}");
        // ② split from ⑦ likewise
        assert_ne!(c[1], c[5], "② must be split from ⑦: {c:?}");
        // ⑤ is its own color
        assert_ne!(c[4], c[0]);
        assert_ne!(c[4], c[1]);
    }

    #[test]
    fn multi_output_diamond_not_fused_through() {
        // 0 feeds 1 and 2; both feed 3. Step 2: 1 and 2 inherit C0; 3's
        // preds share C0 so 3 inherits too. Step 3: node 0's successors all
        // share its color (no "different" successor) so per the paper the
        // whole diamond may fuse — verify it stays consistent (all same).
        let g = graph_from_preds(&[&[], &[0], &[0], &[1, 2]]);
        let c = color_graph(&Adjacency::new(&g));
        assert_eq!(c[0], c[1]);
        assert_eq!(c[0], c[2]);
        assert_eq!(c[0], c[3]);
    }
}
