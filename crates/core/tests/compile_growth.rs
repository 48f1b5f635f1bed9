//! Growth gate for graph compilation: the cost of
//! [`build_subtask_graph`] per edge must stay flat as the graph grows.
//!
//! The gate compiles a synthetic all-to-all shuffle — `p` sources, `p`
//! split nodes with `p` outputs each, `p` reducers each reading one output
//! of every split, and an elementwise chain behind every reducer — at
//! P = 64 and at P = 256 (16x the edges). It takes the median of five
//! samples at each size and fails when nanoseconds per edge grow more
//! than 2x. A linear pipeline keeps the ratio near 1 on any host; a pass
//! that is quadratic in the number of fused operators (such as rebuilding
//! the key maps once per fused pair) grows ~4x here. Timing is only
//! meaningful for optimised code, so the gate runs in release builds:
//!
//! ```text
//! cargo test --release -p xorbits-core --test compile_growth
//! ```

use std::collections::HashSet;
use std::time::Instant;
use xorbits_core::chunk::{ChunkGraph, ChunkKey, ChunkNode, ChunkOp, DfStep, KeyGen};
use xorbits_core::optimizer::build_subtask_graph;
use xorbits_core::XorbitsConfig;

/// Elementwise operators behind each reducer.
const CHAIN: usize = 4;
/// Samples per size; the median is kept.
const RUNS: usize = 5;
/// Largest allowed growth of nanoseconds per edge from P = 64 to P = 256.
const MAX_GROWTH: f64 = 2.0;

/// The all-to-all shuffle graph at `p` partitions, its edge count and the
/// keys the caller fetches (the end of every chain).
fn shuffle_graph(p: usize) -> (ChunkGraph, usize, HashSet<ChunkKey>) {
    let mut kg = KeyGen::new();
    let mut g = ChunkGraph::new();
    let sources: Vec<ChunkKey> = (0..p).map(|_| kg.next_key()).collect();
    for &k in &sources {
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![k],
        });
    }
    let parts: Vec<Vec<ChunkKey>> = sources
        .iter()
        .map(|&src| {
            let outputs: Vec<ChunkKey> = (0..p).map(|_| kg.next_key()).collect();
            g.push(ChunkNode {
                op: ChunkOp::Concat,
                inputs: vec![src],
                outputs: outputs.clone(),
            });
            outputs
        })
        .collect();
    let mut fetched = HashSet::new();
    for r in 0..p {
        let mut prev = kg.next_key();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: parts.iter().map(|outs| outs[r]).collect(),
            outputs: vec![prev],
        });
        for s in 0..CHAIN {
            let k = kg.next_key();
            g.push(ChunkNode {
                op: ChunkOp::DfMap(vec![DfStep::Project(vec![format!("c{s}")])]),
                inputs: vec![prev],
                outputs: vec![k],
            });
            prev = k;
        }
        fetched.insert(prev);
    }
    let edges = g.nodes.iter().map(|n| n.inputs.len()).sum();
    (g, edges, fetched)
}

/// Nanoseconds per edge of compiling `copies` P-partition shuffles. The
/// small size compiles 16 copies against the large size's one, so samples
/// at both sizes cover the same number of edges and the same stretch of
/// timer and scheduler noise.
fn ns_per_edge(p: usize, copies: usize) -> f64 {
    let cfg = XorbitsConfig::default();
    let graphs: Vec<_> = (0..copies).map(|_| shuffle_graph(p)).collect();
    let edges: usize = graphs.iter().map(|(_, e, _)| e).sum();
    let t = Instant::now();
    let built: Vec<_> = graphs
        .into_iter()
        .map(|(g, _, fetched)| build_subtask_graph(g, &cfg, fetched))
        .collect();
    let ns = t.elapsed().as_nanos() as f64;
    // every chain fused into its reducer's subtask
    for sg in &built {
        assert_eq!(sg.chunks.nodes.len(), 4 * p);
    }
    ns / edges as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn compile_cost_per_edge_stays_flat() {
    // one unmeasured round warms the allocator and caches
    ns_per_edge(64, 16);
    ns_per_edge(256, 1);
    // the sizes alternate so both see the same host load
    let (mut small, mut large) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        small.push(ns_per_edge(64, 16));
        large.push(ns_per_edge(256, 1));
    }
    let (small, large) = (median(small), median(large));
    let growth = large / small;
    println!(
        "build_subtask_graph: {small:.1} ns/edge at P=64, {large:.1} ns/edge at P=256 ({growth:.2}x)"
    );
    assert!(
        growth <= MAX_GROWTH,
        "compile cost per edge grew {growth:.2}x from P=64 to P=256 \
         ({small:.1} -> {large:.1} ns/edge); limit {MAX_GROWTH}x"
    );
}
