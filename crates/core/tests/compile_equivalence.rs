//! Equivalence property test for the linear compile passes.
//!
//! Operator fusion, coloring and the subtask build were rewritten from
//! map-rebuilding loops into single sweeps over a shared
//! [`Adjacency`](xorbits_core::chunk::Adjacency). Their output must not
//! change by a single step, color or key. This suite runs the previous
//! implementations (frozen below in `reference`) and the current ones on
//! seeded random chunk graphs and asserts equal results: fused nodes and
//! their steps, colors, and every [`Subtask`] field in order, including
//! the cyclic-grouping errors.
//!
//! The graphs mix what real tiling produces: elementwise `DfMap` / `ArrMap`
//! chains (with occasional family changes), all-to-all shuffles with large
//! fan-in, multi-output nodes, inputs read from earlier executions (no
//! producer in the graph), shared intermediates and random protected sets.

use std::collections::HashSet;
use xorbits_array::prng::SplitMix64;
use xorbits_array::ElemOp;
use xorbits_core::chunk::{Adjacency, ArrStep, ChunkGraph, ChunkKey, ChunkNode, ChunkOp, DfStep};
use xorbits_core::optimizer::{build_subtask_graph, coloring, op_fusion};
use xorbits_core::subtask::{Subtask, SubtaskGraph};
use xorbits_core::{XbResult, XorbitsConfig};

/// Seeded random graphs each property runs on.
const CASES: u64 = 512;

/// The compile passes as they were before they became linear, kept
/// verbatim (apart from `from_groups` becoming a free function) as the
/// oracle the rewritten passes must match exactly.
mod reference {
    use std::collections::{HashMap, HashSet};
    use xorbits_core::chunk::{ChunkGraph, ChunkKey, ChunkOp};
    use xorbits_core::subtask::{Subtask, SubtaskGraph};
    use xorbits_core::{XbError, XbResult};

    /// Fuses elementwise chains in place; returns the number of operators
    /// eliminated.
    pub fn fuse_elementwise(graph: &mut ChunkGraph, protected: &HashSet<ChunkKey>) -> usize {
        let mut eliminated = 0;
        loop {
            let producers = graph.producers();
            let mut consumers: HashMap<ChunkKey, Vec<usize>> = HashMap::new();
            for (ci, node) in graph.nodes.iter().enumerate() {
                for k in &node.inputs {
                    consumers.entry(*k).or_default().push(ci);
                }
            }
            // find one fusable edge u -> v
            let mut fuse_pair: Option<(usize, usize)> = None;
            'search: for (vi, v) in graph.nodes.iter().enumerate() {
                if !v.op.is_elementwise() || v.inputs.len() != 1 {
                    continue;
                }
                let k = v.inputs[0];
                if protected.contains(&k) {
                    continue;
                }
                let Some(&ui) = producers.get(&k) else {
                    continue;
                };
                let u = &graph.nodes[ui];
                if !u.op.is_elementwise() || u.outputs.len() != 1 {
                    continue;
                }
                // u's sole consumer must be v
                if consumers.get(&k).map(|c| c.len()) != Some(1) {
                    continue;
                }
                // same family (df with df, arr with arr)
                match (&u.op, &v.op) {
                    (ChunkOp::DfMap(_), ChunkOp::DfMap(_))
                    | (ChunkOp::ArrMap(_), ChunkOp::ArrMap(_)) => {
                        fuse_pair = Some((ui, vi));
                        break 'search;
                    }
                    _ => {}
                }
            }
            let Some((ui, vi)) = fuse_pair else {
                return eliminated;
            };
            // merge u into v
            let u = graph.nodes[ui].clone();
            let v = &mut graph.nodes[vi];
            v.inputs = u.inputs.clone();
            v.op = match (&u.op, &v.op) {
                (ChunkOp::DfMap(a), ChunkOp::DfMap(b)) => {
                    let mut steps = a.clone();
                    steps.extend(b.clone());
                    ChunkOp::DfMap(steps)
                }
                (ChunkOp::ArrMap(a), ChunkOp::ArrMap(b)) => {
                    let mut steps = a.clone();
                    steps.extend(b.clone());
                    ChunkOp::ArrMap(steps)
                }
                _ => unreachable!("checked in search"),
            };
            graph.nodes.remove(ui);
            eliminated += 1;
        }
    }

    /// Computes the color (= fusion group id) of every node.
    pub fn color_graph(graph: &ChunkGraph) -> Vec<usize> {
        let n = graph.nodes.len();
        let producers = graph.producers();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        // nodes also reading chunks produced by *earlier executions* (dynamic
        // tiling fragments): their data does not flow from their in-graph
        // predecessor, so they must not inherit its color — otherwise e.g.
        // every broadcast join hanging off one Concat would fuse into a single
        // serial subtask
        let mut has_external = vec![false; n];
        for (ci, node) in graph.nodes.iter().enumerate() {
            for k in &node.inputs {
                if let Some(&pi) = producers.get(k) {
                    if !preds[ci].contains(&pi) {
                        preds[ci].push(pi);
                        succs[pi].push(ci);
                    }
                } else {
                    has_external[ci] = true;
                }
            }
        }

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
            if preds[i].is_empty() {
                colors[i] = fresh();
            } else {
                let first = colors[preds[i][0]];
                if !has_external[i] && preds[i].iter().all(|&p| colors[p] == first) {
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
            let same: Vec<usize> = succs[i]
                .iter()
                .copied()
                .filter(|&s| colors[s] == c)
                .collect();
            let diff_exists = succs[i].iter().any(|&s| colors[s] != c);
            if same.is_empty() || !diff_exists {
                continue;
            }
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
        succs: &[Vec<usize>],
        preds: &[Vec<usize>],
    ) {
        colors[start] = new;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &v in &succs[u] {
                if colors[v] == old && preds[v].iter().all(|&p| colors[p] == new) {
                    colors[v] = new;
                    stack.push(v);
                }
            }
        }
    }

    /// Builds a subtask graph from a chunk graph and a node→group
    /// assignment (`groups[i]` = group id of chunk node `i`). `protected`
    /// keys are always published. Validates that the quotient graph is
    /// acyclic and groups are topologically orderable.
    pub fn from_groups(
        chunks: ChunkGraph,
        groups: &[usize],
        protected: &HashSet<ChunkKey>,
    ) -> XbResult<SubtaskGraph> {
        assert_eq!(groups.len(), chunks.nodes.len());
        let producers = chunks.producers();

        // collect group members in node order (already topological)
        let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &g) in groups.iter().enumerate() {
            members.entry(g).or_default().push(i);
        }

        // quotient edges for ordering/cycle detection
        let mut group_ids: Vec<usize> = members.keys().copied().collect();
        group_ids.sort_by_key(|g| members[g][0]);
        let gindex: HashMap<usize, usize> =
            group_ids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let n = group_ids.len();
        let mut succs: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        let mut indeg = vec![0usize; n];
        for (ci, node) in chunks.nodes.iter().enumerate() {
            for k in &node.inputs {
                if let Some(&pi) = producers.get(k) {
                    let (gp, gc) = (gindex[&groups[pi]], gindex[&groups[ci]]);
                    if gp != gc && succs[gp].insert(gc) {
                        indeg[gc] += 1;
                    }
                }
            }
        }
        // Kahn topological sort of groups
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&g| indeg[g] == 0).collect();
        ready.sort_unstable();
        while let Some(g) = ready.pop() {
            order.push(g);
            let mut next: Vec<usize> = Vec::new();
            for &s in &succs[g] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    next.push(s);
                }
            }
            next.sort_unstable();
            ready.extend(next);
            ready.sort_unstable();
        }
        if order.len() != n {
            return Err(XbError::Plan(
                "fusion produced a cyclic subtask graph".into(),
            ));
        }

        // consumers per key (for publish decisions)
        let mut consumed_by: HashMap<ChunkKey, Vec<usize>> = HashMap::new();
        for (ci, node) in chunks.nodes.iter().enumerate() {
            for k in &node.inputs {
                consumed_by.entry(*k).or_default().push(ci);
            }
        }

        let mut subtasks = Vec::with_capacity(n);
        for &gq in &order {
            let g = group_ids[gq];
            let nodes = members[&g].clone();
            let node_set: HashSet<usize> = nodes.iter().copied().collect();
            let mut external_inputs = Vec::new();
            let mut published = Vec::new();
            let mut internal = Vec::new();
            let mut seen_inputs = HashSet::new();
            for &ni in &nodes {
                for k in &chunks.nodes[ni].inputs {
                    let internal_producer =
                        producers.get(k).is_some_and(|pi| node_set.contains(pi));
                    if !internal_producer && seen_inputs.insert(*k) {
                        external_inputs.push(*k);
                    }
                }
                for k in &chunks.nodes[ni].outputs {
                    let all_internal = consumed_by
                        .get(k)
                        .map(|cs| cs.iter().all(|c| node_set.contains(c)))
                        .unwrap_or(false);
                    if protected.contains(k) || !all_internal {
                        published.push(*k);
                    } else {
                        internal.push(*k);
                    }
                }
            }
            subtasks.push(Subtask {
                nodes,
                external_inputs,
                published_outputs: published,
                internal_keys: internal,
            });
        }
        Ok(SubtaskGraph {
            chunks,
            subtasks,
            retained: protected.clone(),
        })
    }
}

struct Rng(SplitMix64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A random graph plus the keys it may protect.
struct Case {
    graph: ChunkGraph,
    protected: HashSet<ChunkKey>,
    rng: Rng,
}

/// Builds a seeded random chunk graph in topological order.
fn random_case(seed: u64) -> Case {
    let mut rng = Rng(SplitMix64::new(seed));
    // keys below `first_key` stand for chunks of earlier executions
    let first_key: ChunkKey = 2 + rng.below(40) as ChunkKey;
    let mut next_key = first_key;
    let mut key = || {
        next_key += 1;
        next_key - 1
    };
    let mut step_id = 0usize;
    let mut g = ChunkGraph::new();
    // outputs produced so far, most recent last
    let mut live: Vec<ChunkKey> = Vec::new();
    let target = 4 + rng.below(90);
    while g.nodes.len() < target {
        // an input: usually a recent output, sometimes any output, and
        // sometimes a chunk from an earlier execution
        let pick = |rng: &mut Rng, live: &[ChunkKey]| -> ChunkKey {
            if live.is_empty() || rng.chance(8) {
                1 + rng.below(first_key as usize - 1) as ChunkKey
            } else if rng.chance(70) {
                live[live.len() - 1 - rng.below(live.len().min(3))]
            } else {
                live[rng.below(live.len())]
            }
        };
        let mut steps = |rng: &mut Rng, arr: bool| -> ChunkOp {
            let n = 1 + rng.below(3);
            let ids: Vec<usize> = (0..n).map(|i| step_id + i).collect();
            step_id += n;
            if arr {
                ChunkOp::ArrMap(
                    ids.iter()
                        .map(|&i| ArrStep {
                            op: ElemOp::Add,
                            operand: i as f64,
                        })
                        .collect(),
                )
            } else {
                ChunkOp::DfMap(
                    ids.iter()
                        .map(|&i| DfStep::Project(vec![format!("s{i}")]))
                        .collect(),
                )
            }
        };
        match rng.below(100) {
            // source
            0..=9 => {
                let k = key();
                g.push(ChunkNode {
                    op: ChunkOp::Concat,
                    inputs: vec![],
                    outputs: vec![k],
                });
                live.push(k);
            }
            // elementwise chain link (the common case)
            10..=54 => {
                let arr = rng.chance(30);
                let op = steps(&mut rng, arr);
                let mut inputs = vec![pick(&mut rng, &live)];
                if rng.chance(4) {
                    inputs.push(pick(&mut rng, &live));
                }
                let mut outputs = vec![key()];
                if rng.chance(4) {
                    outputs.push(key());
                }
                live.extend(&outputs);
                g.push(ChunkNode {
                    op,
                    inputs,
                    outputs,
                });
            }
            // generic operator reading a few inputs (joins, concats),
            // duplicates allowed
            55..=74 => {
                let inputs = (0..1 + rng.below(4))
                    .map(|_| pick(&mut rng, &live))
                    .collect();
                let k = key();
                g.push(ChunkNode {
                    op: ChunkOp::Concat,
                    inputs,
                    outputs: vec![k],
                });
                live.push(k);
            }
            // multi-output split
            75..=84 => {
                let outputs: Vec<ChunkKey> = (0..2 + rng.below(6)).map(|_| key()).collect();
                g.push(ChunkNode {
                    op: ChunkOp::Concat,
                    inputs: vec![pick(&mut rng, &live)],
                    outputs: outputs.clone(),
                });
                live.extend(outputs);
            }
            // all-to-all shuffle: p maps with p outputs each, p reducers
            // each reading one output of every map, each reducer followed
            // by a short elementwise chain
            _ => {
                let p = 2 + rng.below(24);
                let mut parts: Vec<Vec<ChunkKey>> = Vec::with_capacity(p);
                for _ in 0..p {
                    let outputs: Vec<ChunkKey> = (0..p).map(|_| key()).collect();
                    g.push(ChunkNode {
                        op: ChunkOp::Concat,
                        inputs: vec![pick(&mut rng, &live)],
                        outputs: outputs.clone(),
                    });
                    parts.push(outputs);
                }
                for r in 0..p {
                    let mut prev = key();
                    g.push(ChunkNode {
                        op: ChunkOp::Concat,
                        inputs: parts.iter().map(|outs| outs[r]).collect(),
                        outputs: vec![prev],
                    });
                    for _ in 0..rng.below(4) {
                        let arr = rng.chance(20);
                        let op = steps(&mut rng, arr);
                        let k = key();
                        g.push(ChunkNode {
                            op,
                            inputs: vec![prev],
                            outputs: vec![k],
                        });
                        prev = k;
                    }
                    live.push(prev);
                }
            }
        }
    }
    let produced: Vec<ChunkKey> = g.nodes.iter().flat_map(|n| n.outputs.clone()).collect();
    let density = rng.below(40);
    let mut protected: HashSet<ChunkKey> = produced
        .iter()
        .copied()
        .filter(|_| rng.chance(density))
        .collect();
    if let Some(&last) = produced.last() {
        protected.insert(last);
    }
    if rng.chance(20) {
        protected.insert(1);
    }
    Case {
        graph: g,
        protected,
        rng,
    }
}

/// Operator identity down to every fused step.
fn op_signature(op: &ChunkOp) -> String {
    match op {
        ChunkOp::DfMap(steps) => format!("DfMap{steps:?}"),
        ChunkOp::ArrMap(steps) => format!("ArrMap{steps:?}"),
        other => format!("{other:?}"),
    }
}

fn assert_same_graph(old: &ChunkGraph, new: &ChunkGraph, ctx: &str) {
    assert_eq!(old.nodes.len(), new.nodes.len(), "{ctx}: node count");
    for (i, (a, b)) in old.nodes.iter().zip(&new.nodes).enumerate() {
        assert_eq!(
            op_signature(&a.op),
            op_signature(&b.op),
            "{ctx}: node {i} op"
        );
        assert_eq!(a.inputs, b.inputs, "{ctx}: node {i} inputs");
        assert_eq!(a.outputs, b.outputs, "{ctx}: node {i} outputs");
    }
}

fn assert_same_subtasks(old: &[Subtask], new: &[Subtask], ctx: &str) {
    assert_eq!(old.len(), new.len(), "{ctx}: subtask count");
    for (i, (a, b)) in old.iter().zip(new).enumerate() {
        assert_eq!(a.nodes, b.nodes, "{ctx}: subtask {i} nodes");
        assert_eq!(
            a.external_inputs, b.external_inputs,
            "{ctx}: subtask {i} external inputs"
        );
        assert_eq!(
            a.published_outputs, b.published_outputs,
            "{ctx}: subtask {i} published outputs"
        );
        assert_eq!(
            a.internal_keys, b.internal_keys,
            "{ctx}: subtask {i} internal keys"
        );
    }
}

fn assert_same_result(old: XbResult<SubtaskGraph>, new: XbResult<SubtaskGraph>, ctx: &str) {
    match (old, new) {
        (Ok(a), Ok(b)) => {
            assert_same_graph(&a.chunks, &b.chunks, ctx);
            assert_same_subtasks(&a.subtasks, &b.subtasks, ctx);
            assert_eq!(a.retained, b.retained, "{ctx}: retained");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{ctx}: error"),
        (a, b) => panic!(
            "{ctx}: reference {} but rewrite {}",
            if a.is_ok() { "succeeded" } else { "failed" },
            if b.is_ok() { "succeeded" } else { "failed" },
        ),
    }
}

#[test]
fn fusion_matches_reference() {
    let mut fused_total = 0;
    for seed in 0..CASES {
        let case = random_case(seed);
        let (mut old, mut new) = (case.graph.clone(), case.graph);
        let n_old = reference::fuse_elementwise(&mut old, &case.protected);
        let n_new = op_fusion::fuse_elementwise(&mut new, &case.protected);
        let ctx = format!("seed {seed}");
        assert_eq!(n_old, n_new, "{ctx}: eliminated count");
        assert_same_graph(&old, &new, &ctx);
        fused_total += n_new;
    }
    // the generator must actually exercise fusion
    assert!(fused_total > CASES as usize, "only {fused_total} fusions");
}

#[test]
fn coloring_matches_reference() {
    for seed in 0..CASES {
        let case = random_case(seed);
        let mut fused = case.graph.clone();
        op_fusion::fuse_elementwise(&mut fused, &case.protected);
        for (label, g) in [("unfused", &case.graph), ("fused", &fused)] {
            assert_eq!(
                reference::color_graph(g),
                coloring::color_graph(&Adjacency::new(g)),
                "seed {seed}: {label} colors"
            );
        }
    }
}

#[test]
fn subtask_build_matches_reference() {
    let mut cyclic = 0;
    for seed in 0..CASES {
        let mut case = random_case(seed);
        let g = &case.graph;
        let n = g.nodes.len();
        let colors = reference::color_graph(g);
        // coarse random groupings are often cyclic in the quotient graph
        let k = 1 + case.rng.below(n / 2 + 1);
        let random: Vec<usize> = (0..n).map(|_| case.rng.below(k) * 3).collect();
        let runs: Vec<usize> = (0..n).map(|i| i / (1 + seed as usize % 5)).collect();
        let singletons: Vec<usize> = (0..n).collect();
        for (label, groups) in [
            ("colors", &colors),
            ("random", &random),
            ("runs", &runs),
            ("singletons", &singletons),
        ] {
            let old = reference::from_groups(g.clone(), groups, &case.protected);
            let new = SubtaskGraph::from_groups(g.clone(), groups, case.protected.clone());
            cyclic += usize::from(old.is_err());
            assert_same_result(old, new, &format!("seed {seed}: {label} groups"));
        }
    }
    // the Err path must be exercised too
    assert!(cyclic > 10, "only {cyclic} cyclic groupings");
}

#[test]
fn full_pipeline_matches_reference() {
    let configs = [
        XorbitsConfig::default(),
        XorbitsConfig::default().without_op_fusion(),
        XorbitsConfig::default().without_graph_fusion(),
        XorbitsConfig::default()
            .without_op_fusion()
            .without_graph_fusion(),
    ];
    for seed in 0..CASES {
        let case = random_case(seed);
        for (ci, cfg) in configs.iter().enumerate() {
            let mut old = case.graph.clone();
            if cfg.op_fusion {
                reference::fuse_elementwise(&mut old, &case.protected);
            }
            let groups: Vec<usize> = if cfg.graph_fusion {
                reference::color_graph(&old)
            } else {
                (0..old.nodes.len()).collect()
            };
            let singletons: Vec<usize> = (0..old.nodes.len()).collect();
            let expected = reference::from_groups(old.clone(), &groups, &case.protected)
                .or_else(|_| reference::from_groups(old, &singletons, &case.protected));
            let got = build_subtask_graph(case.graph.clone(), cfg, case.protected.clone());
            assert_same_result(expected, Ok(got), &format!("seed {seed}: config {ci}"));
        }
    }
}
