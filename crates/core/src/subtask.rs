//! The subtask graph — the paper's fine-grained physical plan.
//!
//! A subtask is a fused group of chunk operators that executes as one unit
//! on one band (§III-C): intermediates inside a subtask never touch the
//! storage service, and the scheduler assigns whole subtasks to bands.

use crate::chunk::{Adjacency, ChunkGraph, ChunkKey, Csr};
use crate::error::{XbError, XbResult};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One fused execution unit.
#[derive(Debug, Clone)]
pub struct Subtask {
    /// Indices into the chunk graph, in topological order.
    pub nodes: Vec<usize>,
    /// Chunk keys read from outside the subtask.
    pub external_inputs: Vec<ChunkKey>,
    /// Chunk keys this subtask must publish to the storage service
    /// (consumed by other subtasks, or session-protected results).
    pub published_outputs: Vec<ChunkKey>,
    /// Keys produced and consumed entirely inside the subtask — the
    /// storage traffic that fusion eliminates.
    pub internal_keys: Vec<ChunkKey>,
}

/// The fine-grained physical plan handed to the runtime.
#[derive(Debug, Clone)]
pub struct SubtaskGraph {
    /// The underlying chunk graph.
    pub chunks: ChunkGraph,
    /// Subtasks in topological order.
    pub subtasks: Vec<Subtask>,
    /// Keys that must outlive this graph (future tiling reads or the final
    /// gather). Anything else may be reclaimed once its last consumer in
    /// this graph has run — the refcount lifecycle real engines apply
    /// during execution.
    pub retained: HashSet<ChunkKey>,
}

/// A node→group assignment checked against a chunk graph: the groups in
/// the order they become subtasks. Building one validates that the
/// quotient graph is acyclic, before anything takes the chunk graph.
#[derive(Debug, Clone)]
pub struct GroupOrder {
    /// Dense index of each node's group, numbered by first member.
    group_of: Vec<u32>,
    /// Members of each dense group, ascending.
    members: Csr,
    /// Dense groups in subtask order.
    order: Vec<u32>,
}

impl GroupOrder {
    /// Orders the groups of `groups` (`groups[i]` = group id of node `i`)
    /// topologically: Kahn's algorithm over the quotient graph, always
    /// taking the ready group whose first member is latest. Group ids
    /// index a dense table, so they should be small (coloring's are below
    /// the node count plus the edge count). Errors when the quotient graph
    /// has a cycle.
    pub fn new(adj: &Adjacency, groups: &[usize]) -> XbResult<GroupOrder> {
        let n_nodes = adj.nodes();
        assert_eq!(groups.len(), n_nodes);
        let mut dense = vec![u32::MAX; groups.iter().max().map_or(0, |&g| g + 1)];
        let mut group_of = Vec::with_capacity(n_nodes);
        let mut n = 0u32;
        for &g in groups {
            if dense[g] == u32::MAX {
                dense[g] = n;
                n += 1;
            }
            group_of.push(dense[g]);
        }
        let n = n as usize;

        // members per group, in node order (already topological)
        let members = Csr::from_pairs(
            n,
            group_of
                .iter()
                .enumerate()
                .map(|(i, &g)| (g as usize, i as u32)),
        );

        // distinct quotient edges, found per consumer group with a stamp
        let mut stamp = vec![u32::MAX; n];
        let mut edges: Vec<(usize, u32)> = Vec::new();
        let mut indeg = vec![0usize; n];
        for (gc, deg) in indeg.iter_mut().enumerate() {
            for &ci in members.row(gc) {
                for pi in adj.input_producers(ci as usize).flatten() {
                    let gp = group_of[pi];
                    if gp as usize != gc && stamp[gp as usize] != gc as u32 {
                        stamp[gp as usize] = gc as u32;
                        edges.push((gp as usize, gc as u32));
                        *deg += 1;
                    }
                }
            }
        }
        let succs = Csr::from_pairs(n, edges.iter().copied());

        // Kahn topological sort of groups, largest ready group first
        let mut order = Vec::with_capacity(n);
        let mut ready: BinaryHeap<u32> =
            (0..n as u32).filter(|&g| indeg[g as usize] == 0).collect();
        while let Some(g) = ready.pop() {
            order.push(g);
            for &s in succs.row(g as usize) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(XbError::Plan(
                "fusion produced a cyclic subtask graph".into(),
            ));
        }
        Ok(GroupOrder {
            group_of,
            members,
            order,
        })
    }

    /// One group per node: the grouping when fusion is off, and the
    /// fallback when a fused grouping is cyclic.
    pub fn singletons(adj: &Adjacency) -> GroupOrder {
        let groups: Vec<usize> = (0..adj.nodes()).collect();
        GroupOrder::new(adj, &groups).expect("singleton grouping is always acyclic")
    }

    /// Builds the subtask graph: one subtask per group, in order. A key is
    /// published when it is protected, has no consumer, or has a consumer
    /// outside its producer's group; otherwise it stays internal.
    pub fn build(
        &self,
        chunks: ChunkGraph,
        adj: &Adjacency,
        protected: HashSet<ChunkKey>,
    ) -> SubtaskGraph {
        // per output id: 0 = unread, 1 = read only inside its producer's
        // group, 2 = read from another group
        let mut reach = vec![0u8; adj.produced_keys()];
        for ci in 0..adj.nodes() {
            for &k in adj.inputs(ci) {
                if let Some(pi) = adj.producer(k) {
                    let r = &mut reach[k as usize];
                    if self.group_of[pi] != self.group_of[ci] {
                        *r = 2;
                    } else if *r == 0 {
                        *r = 1;
                    }
                }
            }
        }

        let mut seen = vec![u32::MAX; adj.keys()];
        let mut subtasks = Vec::with_capacity(self.order.len());
        for (si, &g) in self.order.iter().enumerate() {
            let g = g as usize;
            let nodes: Vec<usize> = self.members.row(g).iter().map(|&i| i as usize).collect();
            let mut external_inputs = Vec::new();
            let mut published = Vec::new();
            let mut internal = Vec::new();
            for &ni in &nodes {
                let node = &chunks.nodes[ni];
                for (k, &id) in node.inputs.iter().zip(adj.inputs(ni)) {
                    let internal_producer = adj
                        .producer(id)
                        .is_some_and(|pi| self.group_of[pi] as usize == g);
                    if !internal_producer && seen[id as usize] != si as u32 {
                        seen[id as usize] = si as u32;
                        external_inputs.push(*k);
                    }
                }
                for (k, id) in node.outputs.iter().zip(adj.outputs(ni)) {
                    if reach[id] != 1 || protected.contains(k) {
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
        SubtaskGraph {
            chunks,
            subtasks,
            retained: protected,
        }
    }
}

impl SubtaskGraph {
    /// Builds a subtask graph from a chunk graph and a node→group
    /// assignment (`groups[i]` = group id of chunk node `i`). `protected`
    /// keys are always published. Validates that the quotient graph is
    /// acyclic and groups are topologically orderable.
    pub fn from_groups(
        chunks: ChunkGraph,
        groups: &[usize],
        protected: HashSet<ChunkKey>,
    ) -> XbResult<SubtaskGraph> {
        let adj = Adjacency::new(&chunks);
        let order = GroupOrder::new(&adj, groups)?;
        Ok(order.build(chunks, &adj, protected))
    }

    /// One subtask per node (fusion disabled).
    pub fn singletons(chunks: ChunkGraph, protected: HashSet<ChunkKey>) -> SubtaskGraph {
        let adj = Adjacency::new(&chunks);
        GroupOrder::singletons(&adj).build(chunks, &adj, protected)
    }

    /// Minimal set of subtask indices that must re-run to rematerialize
    /// `targets`, walking producer edges through every input `available`
    /// does not report as present. This is the lineage-recovery closure:
    /// a subtask joins the set only if one of its outputs is (transitively)
    /// demanded and currently unavailable, so subtasks whose outputs
    /// survived a fault are never re-executed. Returned sorted ascending
    /// (topological, since subtasks are stored in topological order).
    /// Errors if a demanded key has no producer in this graph.
    pub fn ancestor_closure(
        &self,
        targets: &[ChunkKey],
        available: &dyn Fn(ChunkKey) -> bool,
    ) -> XbResult<Vec<usize>> {
        // producer subtask of every key this graph can materialize
        let mut producer: HashMap<ChunkKey, usize> = HashMap::new();
        for (si, st) in self.subtasks.iter().enumerate() {
            for k in st.published_outputs.iter().chain(&st.internal_keys) {
                producer.insert(*k, si);
            }
        }
        let mut need: HashSet<usize> = HashSet::new();
        let mut stack: Vec<ChunkKey> = targets.to_vec();
        while let Some(k) = stack.pop() {
            if available(k) {
                continue;
            }
            let Some(&si) = producer.get(&k) else {
                return Err(XbError::Plan(format!(
                    "chunk {k} is unavailable and has no producer in this graph"
                )));
            };
            if need.insert(si) {
                stack.extend(self.subtasks[si].external_inputs.iter().copied());
            }
        }
        let mut out: Vec<usize> = need.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Number of subtasks.
    pub fn len(&self) -> usize {
        self.subtasks.len()
    }

    /// True when no subtasks.
    pub fn is_empty(&self) -> bool {
        self.subtasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkNode, ChunkOp, KeyGen};

    fn chain_graph(n: usize) -> (ChunkGraph, Vec<ChunkKey>) {
        let mut kg = KeyGen::new();
        let mut g = ChunkGraph::new();
        let mut keys = Vec::new();
        let mut prev: Option<ChunkKey> = None;
        for _ in 0..n {
            let k = kg.next_key();
            g.push(ChunkNode {
                op: ChunkOp::Concat,
                inputs: prev.map(|p| vec![p]).unwrap_or_default(),
                outputs: vec![k],
            });
            keys.push(k);
            prev = Some(k);
        }
        (g, keys)
    }

    #[test]
    fn fused_chain_hides_intermediates() {
        let (g, keys) = chain_graph(3);
        let protected: HashSet<_> = [keys[2]].into_iter().collect();
        let sg = SubtaskGraph::from_groups(g, &[0, 0, 0], protected).unwrap();
        assert_eq!(sg.len(), 1);
        let st = &sg.subtasks[0];
        assert!(st.external_inputs.is_empty());
        assert_eq!(st.published_outputs, vec![keys[2]]);
        assert_eq!(st.internal_keys, vec![keys[0], keys[1]]);
    }

    #[test]
    fn singleton_publishes_everything_consumed() {
        let (g, keys) = chain_graph(2);
        let protected: HashSet<_> = [keys[1]].into_iter().collect();
        let sg = SubtaskGraph::singletons(g, protected);
        assert_eq!(sg.len(), 2);
        assert_eq!(sg.subtasks[0].published_outputs, vec![keys[0]]);
        assert_eq!(sg.subtasks[1].external_inputs, vec![keys[0]]);
    }

    #[test]
    fn cyclic_grouping_rejected() {
        // a -> b -> c with a and c in one group but b in another would be
        // cyclic in the quotient graph
        let (g, _keys) = chain_graph(3);
        let r = SubtaskGraph::from_groups(g, &[0, 1, 0], HashSet::new());
        assert!(r.is_err());
    }

    #[test]
    fn ancestor_closure_is_minimal() {
        // chain k0 -> k1 -> k2 -> k3, one subtask per node
        let (g, keys) = chain_graph(4);
        let protected: HashSet<_> = keys.iter().copied().collect();
        let sg = SubtaskGraph::singletons(g, protected);
        // everything available: nothing to recompute
        assert_eq!(
            sg.ancestor_closure(&[keys[3]], &|_| true).unwrap(),
            Vec::<usize>::new()
        );
        // k2 lost, everything else present: only its producer re-runs
        let lost = keys[2];
        let avail = move |k: ChunkKey| k != lost;
        assert_eq!(sg.ancestor_closure(&[keys[2]], &avail).unwrap(), vec![2]);
        // k1 and k2 lost: recovering k3's input pulls in both producers,
        // but never the surviving source
        let (l1, l2) = (keys[1], keys[2]);
        let avail2 = move |k: ChunkKey| k != l1 && k != l2;
        assert_eq!(
            sg.ancestor_closure(&[keys[2]], &avail2).unwrap(),
            vec![1, 2]
        );
        // a key nobody in the graph produces is an error
        assert!(sg.ancestor_closure(&[9999], &|_| false).is_err());
    }

    #[test]
    fn groups_ordered_topologically() {
        let (g, keys) = chain_graph(4);
        let protected: HashSet<_> = [keys[3]].into_iter().collect();
        let sg = SubtaskGraph::from_groups(g, &[1, 1, 0, 0], protected).unwrap();
        assert_eq!(sg.len(), 2);
        // first subtask must be the producer group
        assert_eq!(sg.subtasks[0].nodes, vec![0, 1]);
        assert_eq!(sg.subtasks[1].nodes, vec![2, 3]);
    }
}
