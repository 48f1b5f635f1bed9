//! The chunk graph — the paper's coarse-grained physical plan.
//!
//! Circles in the paper's Figure 3 are operators ([`ChunkOp`]); squares are
//! data placeholders, identified here by [`ChunkKey`]s that index into the
//! runtime's storage service. Each chunk carries the distributed index
//! `(r, c)` of Figure 4 in its [`ChunkMeta`].

use crate::error::{XbError, XbResult};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use xorbits_array::{ElemOp, NdArray, Reduction};
use xorbits_dataframe::{AggSpec, DataFrame, Expr, JoinType, Scalar};

/// Globally unique identifier of one data chunk (a storage-service key).
pub type ChunkKey = u64;

/// The data held by one chunk.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A dataframe chunk (pandas backend).
    Df(DataFrame),
    /// An array chunk (NumPy backend).
    Arr(NdArray),
}

impl Payload {
    /// Approximate *logical* heap bytes of the viewed data (the unit for
    /// transfer costs and chunk metadata).
    pub fn nbytes(&self) -> usize {
        match self {
            Payload::Df(df) => df.nbytes(),
            Payload::Arr(a) => a.nbytes(),
        }
    }

    /// Bytes of all distinct allocations this payload keeps alive (what the
    /// storage service actually charges). Allocations shared *within* the
    /// payload are counted once; sharing *across* payloads is deduplicated
    /// by the storage service via [`Payload::push_allocs`].
    pub fn retained_nbytes(&self) -> usize {
        match self {
            Payload::Df(df) => df.retained_nbytes(),
            Payload::Arr(a) => a.retained_nbytes(),
        }
    }

    /// Appends `(alloc_id, retained_bytes)` for every buffer backing this
    /// payload.
    pub fn push_allocs(&self, out: &mut Vec<(usize, usize)>) {
        match self {
            Payload::Df(df) => df.push_allocs(out),
            Payload::Arr(a) => out.push((a.alloc_id(), a.retained_nbytes())),
        }
    }

    /// Materializes any backing buffer whose retained allocation exceeds
    /// `slack ×` its logical size (a small view pinning a large parent).
    /// Returns true if a copy happened.
    pub fn compact(&mut self, slack: f64) -> bool {
        match self {
            Payload::Df(df) => df.compact(slack),
            Payload::Arr(a) => a.compact(slack),
        }
    }

    /// Leading-dimension length (dataframe rows or array axis-0).
    pub fn rows(&self) -> usize {
        match self {
            Payload::Df(df) => df.num_rows(),
            Payload::Arr(a) => a.shape().first().copied().unwrap_or(0),
        }
    }

    /// Dataframe view.
    pub fn as_df(&self) -> XbResult<&DataFrame> {
        match self {
            Payload::Df(df) => Ok(df),
            Payload::Arr(_) => Err(XbError::Kernel("expected dataframe chunk".into())),
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> XbResult<&NdArray> {
        match self {
            Payload::Arr(a) => Ok(a),
            Payload::Df(_) => Err(XbError::Kernel("expected array chunk".into())),
        }
    }
}

/// Converts a payload into the storage crate's chunk value. O(1): both
/// sides share the same Arc'd buffers (`xorbits-storage` sits below this
/// crate and mirrors the enum rather than depending on it).
pub fn payload_to_value(p: &Payload) -> xorbits_storage::ChunkValue {
    match p {
        Payload::Df(df) => xorbits_storage::ChunkValue::Df(df.clone()),
        Payload::Arr(a) => xorbits_storage::ChunkValue::Arr(a.clone()),
    }
}

/// Converts a stored chunk value back into an executor payload. O(1).
pub fn value_to_payload(v: &xorbits_storage::ChunkValue) -> Payload {
    match v {
        xorbits_storage::ChunkValue::Df(df) => Payload::Df(df.clone()),
        xorbits_storage::ChunkValue::Arr(a) => Payload::Arr(a.clone()),
    }
}

/// Metadata of an executed (or planned) chunk — what the paper's meta
/// service stores and dynamic tiling consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkMeta {
    /// Heap bytes.
    pub nbytes: usize,
    /// Leading-dimension length.
    pub rows: usize,
    /// Distributed index `(r, c)`: vertical / horizontal position of the
    /// chunk within the complete tileable (Fig 4).
    pub index: (usize, usize),
}

/// One fused elementwise dataframe step (the unit of operator-level fusion).
#[derive(Debug, Clone)]
pub enum DfStep {
    /// Keep rows where the predicate holds.
    Filter(Expr),
    /// Keep only these columns.
    Project(Vec<String>),
    /// Keep only these columns *where present* — the tolerant projection
    /// inserted by the column-pruning pass (the required-column analysis is
    /// deliberately conservative across joins, so some requested names may
    /// belong to the other join side).
    PruneTo(Vec<String>),
    /// Add/replace derived columns.
    Assign(Vec<(String, Expr)>),
    /// Replace nulls in a column.
    Fillna(String, Scalar),
    /// Drop rows with nulls in the subset (or any column).
    Dropna(Option<Vec<String>>),
    /// Rename columns.
    Rename(Vec<(String, String)>),
}

/// One fused elementwise array step: `x ↦ op(x, operand)`.
#[derive(Debug, Clone, Copy)]
pub struct ArrStep {
    /// The scalar operator.
    pub op: ElemOp,
    /// Right-hand operand.
    pub operand: f64,
}

/// A chunk-level physical operator. Every tileable operator's `tile` method
/// lowers to a subgraph of these; every variant's `execute` lives in
/// [`crate::exec`] and bottoms out in the single-node kernels.
#[derive(Clone)]
pub enum ChunkOp {
    // ---- sources ----------------------------------------------------------
    /// Materialized dataframe chunk (used for pre-chunked inputs and
    /// dynamic-tiling probes).
    DfLiteral(Arc<DataFrame>),
    /// Generated dataframe chunk: a deterministic closure producing one
    /// partition of a data source (CSV range scan or synthetic generator).
    DfGen {
        /// The generator.
        gen: Arc<dyn Fn() -> XbResult<DataFrame> + Send + Sync>,
        /// Human-readable label for plans and progress output.
        label: String,
    },
    /// Materialized array chunk.
    ArrLiteral(Arc<NdArray>),
    /// Random array chunk with a per-chunk derived seed.
    ArrRandom {
        /// Chunk shape.
        shape: Vec<usize>,
        /// Seed (already mixed with the chunk index).
        seed: u64,
        /// Standard normal instead of uniform.
        normal: bool,
    },

    // ---- dataframe elementwise (fusable) -----------------------------------
    /// One or more fused elementwise steps applied in order within a single
    /// task — the operator-level-fusion product (§V-A).
    DfMap(Vec<DfStep>),

    // ---- groupby map-combine-reduce (§III-C) --------------------------------
    /// Map stage: per-chunk partial aggregation.
    GroupbyMap {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Combine stage: merge concatenated partials (pre-aggregation).
    GroupbyCombine {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Reduce stage: final aggregation from partials.
    GroupbyFinalize {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },
    /// Local deduplication (map/combine stage of distributed
    /// `drop_duplicates` and of the `nunique` lowering).
    DistinctLocal {
        /// Dedup key subset (`None` ⇒ all columns).
        subset: Option<Vec<String>>,
    },
    /// Whole-input single-pass aggregation (used after a gather for
    /// aggregations whose partial state is not column-decomposable, e.g.
    /// `nunique`).
    GroupbyDirect {
        /// Group keys.
        keys: Vec<String>,
        /// Aggregations.
        specs: Vec<AggSpec>,
    },

    // ---- shuffle ------------------------------------------------------------
    /// Hash-partitions the input dataframe into `n` outputs by key.
    ShuffleSplit {
        /// Partition keys.
        keys: Vec<String>,
        /// Partition count.
        n: usize,
    },

    // ---- reshaping ------------------------------------------------------------
    /// Concatenates all inputs (dataframes, or arrays along axis 0). Also the
    /// auto-merge primitive (§IV-C) and the combine-stage gather.
    Concat,
    /// First `n` rows.
    HeadLocal {
        /// Row count.
        n: usize,
    },
    /// Contiguous row slice (the `ILoc` physical op of Fig 3c).
    SliceLocal {
        /// Start row within the chunk.
        offset: usize,
        /// Row count.
        len: usize,
    },
    /// Full local sort.
    SortLocal {
        /// `(column, ascending)` sort keys.
        keys: Vec<(String, bool)>,
    },
    /// Partial sort returning the first `n` rows of the sorted order.
    TopKLocal {
        /// Sort keys.
        keys: Vec<(String, bool)>,
        /// Row count.
        n: usize,
    },

    // ---- join -----------------------------------------------------------------
    /// Hash join of inputs `[left, right]`.
    Join {
        /// Left key columns.
        left_on: Vec<String>,
        /// Right key columns.
        right_on: Vec<String>,
        /// Join type.
        how: JoinType,
        /// Suffixes for overlapping columns.
        suffixes: (String, String),
    },
    /// Local pivot table.
    PivotLocal {
        /// Row index column.
        index: String,
        /// Header column.
        columns: String,
        /// Value column.
        values: String,
        /// Aggregation.
        agg: xorbits_dataframe::AggFunc,
    },

    // ---- array ops ---------------------------------------------------------------
    /// Fused scalar-operand chain applied in one pass (numexpr stand-in).
    ArrMap(Vec<ArrStep>),
    /// Elementwise binary op of inputs `[a, b]` with broadcasting.
    ArrBinary(ElemOp),
    /// Matrix product of inputs `[a, b]`.
    MatMul,
    /// 2-D transpose.
    Transpose,
    /// Local reduced QR; outputs `[Q, R]` (TSQR building block).
    QrLocal,
    /// Rows `[start, end)` of the input array.
    ArrSliceRows {
        /// Start row.
        start: usize,
        /// End row (exclusive).
        end: usize,
    },
    /// Block `i` of `k` equal row blocks of the input array — used by TSQR
    /// to slice the stacked-R Q factor when the block height is only known
    /// at execution time.
    ArrSliceBlock {
        /// Block index.
        block: usize,
        /// Total block count.
        nblocks: usize,
    },
    /// Gram-matrix partial `XᵀX` of the input chunk (linear regression map).
    XtX,
    /// `Xᵀy` partial of inputs `[X, y]`.
    XtY,
    /// Elementwise sum of all inputs (partial-sum combine).
    AddN,
    /// Solves the normal equations from inputs `[XᵀX, Xᵀy]`.
    SolveNe,
    /// Per-chunk reduction partial state (`[sum]`, `[sum,count]`, `[min]`…).
    ReducePartial {
        /// Reduction kind.
        kind: Reduction,
    },
    /// Combines reduction partial states.
    ReduceCombine {
        /// Reduction kind.
        kind: Reduction,
    },
    /// Turns the combined state into the final 1-element array.
    ReduceFinal {
        /// Reduction kind.
        kind: Reduction,
    },
}

impl ChunkOp {
    /// Short operator name for plans, fusion debugging and progress output.
    pub fn name(&self) -> &'static str {
        match self {
            ChunkOp::DfLiteral(_) => "DfLiteral",
            ChunkOp::DfGen { .. } => "DfGen",
            ChunkOp::ArrLiteral(_) => "ArrLiteral",
            ChunkOp::ArrRandom { .. } => "ArrRandom",
            ChunkOp::DfMap(_) => "DfMap",
            ChunkOp::GroupbyMap { .. } => "GroupbyAgg::map",
            ChunkOp::GroupbyCombine { .. } => "GroupbyAgg::combine",
            ChunkOp::GroupbyFinalize { .. } => "GroupbyAgg::agg",
            ChunkOp::DistinctLocal { .. } => "Distinct",
            ChunkOp::GroupbyDirect { .. } => "GroupbyAgg::direct",
            ChunkOp::ShuffleSplit { .. } => "ShuffleSplit",
            ChunkOp::Concat => "Concat",
            ChunkOp::HeadLocal { .. } => "Head",
            ChunkOp::SliceLocal { .. } => "ILoc",
            ChunkOp::SortLocal { .. } => "Sort",
            ChunkOp::TopKLocal { .. } => "TopK",
            ChunkOp::Join { .. } => "Join",
            ChunkOp::PivotLocal { .. } => "Pivot",
            ChunkOp::ArrMap(_) => "ArrMap",
            ChunkOp::ArrBinary(_) => "ArrBinary",
            ChunkOp::MatMul => "MatMul",
            ChunkOp::Transpose => "Transpose",
            ChunkOp::QrLocal => "TensorQR",
            ChunkOp::ArrSliceRows { .. } => "ArrSlice",
            ChunkOp::ArrSliceBlock { .. } => "ArrSliceBlock",
            ChunkOp::XtX => "XtX",
            ChunkOp::XtY => "XtY",
            ChunkOp::AddN => "AddN",
            ChunkOp::SolveNe => "SolveNE",
            ChunkOp::ReducePartial { .. } => "Reduce::map",
            ChunkOp::ReduceCombine { .. } => "Reduce::combine",
            ChunkOp::ReduceFinal { .. } => "Reduce::agg",
        }
    }

    /// True for pure elementwise ops, the candidates for operator-level
    /// fusion (§V-A): they can be composed into a single pass.
    pub fn is_elementwise(&self) -> bool {
        matches!(self, ChunkOp::DfMap(_) | ChunkOp::ArrMap(_))
    }

    /// True for source ops (no inputs) — the nodes the scheduler places
    /// breadth-first (§V-B).
    pub fn is_source(&self) -> bool {
        matches!(
            self,
            ChunkOp::DfLiteral(_)
                | ChunkOp::DfGen { .. }
                | ChunkOp::ArrLiteral(_)
                | ChunkOp::ArrRandom { .. }
        )
    }
}

impl fmt::Debug for ChunkOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One node of the chunk graph.
#[derive(Debug, Clone)]
pub struct ChunkNode {
    /// The operator.
    pub op: ChunkOp,
    /// Keys of input chunks. Keys produced by earlier (already-executed)
    /// graphs are legal: the runtime resolves them from the storage service,
    /// which is how dynamic tiling's partial executions compose.
    pub inputs: Vec<ChunkKey>,
    /// Keys of output chunks (most ops have exactly one).
    pub outputs: Vec<ChunkKey>,
}

/// The coarse-grained physical plan: a DAG of chunk operators in
/// topological order of construction.
#[derive(Debug, Clone, Default)]
pub struct ChunkGraph {
    /// Nodes in insertion (topological) order.
    pub nodes: Vec<ChunkNode>,
}

impl ChunkGraph {
    /// Empty graph.
    pub fn new() -> ChunkGraph {
        ChunkGraph::default()
    }

    /// Adds a node; returns its index.
    pub fn push(&mut self, node: ChunkNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Map from chunk key to the index of its producing node, for keys
    /// produced inside this graph.
    pub fn producers(&self) -> std::collections::HashMap<ChunkKey, usize> {
        let mut map = std::collections::HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for &k in &n.outputs {
                map.insert(k, i);
            }
        }
        map
    }

    /// Edges as `(producer node, consumer node)` pairs (external inputs are
    /// not edges).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let producers = self.producers();
        let mut out = Vec::new();
        for (ci, n) in self.nodes.iter().enumerate() {
            for k in &n.inputs {
                if let Some(&pi) = producers.get(k) {
                    out.push((pi, ci));
                }
            }
        }
        out
    }

    /// Asserts the insertion order is topological (every producer precedes
    /// its consumers). Used by tests and debug builds.
    pub fn validate_topological(&self) -> XbResult<()> {
        let producers = self.producers();
        for (ci, n) in self.nodes.iter().enumerate() {
            for k in &n.inputs {
                if let Some(&pi) = producers.get(k) {
                    if pi >= ci {
                        return Err(XbError::Plan(format!(
                            "node {ci} consumes key {k} produced by later node {pi}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A hash map keyed by chunk key, laid out for the compile passes.
pub type KeyMap<V> = std::collections::HashMap<ChunkKey, V, BuildHasherDefault<KeyHasher>>;

/// Hasher for [`KeyMap`]. Keys come from a monotonic allocator, so one
/// graph's keys are mostly consecutive. The hash keeps a key's low bits
/// as they are, which puts consecutive keys in consecutive buckets without
/// collisions and keeps lookups made in key order within a few cache
/// lines; the top seven bits, which the table compares first, are mixed.
#[derive(Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let k = bytes
            .iter()
            .fold(self.0, |h, &b| h.rotate_left(8) ^ b as u64);
        self.write_u64(k);
    }

    fn write_u64(&mut self, k: u64) {
        self.0 = k ^ (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) & (0x7f << 57));
    }
}

/// Rows of `u32`s in one flat array (compressed sparse rows): row `i` is
/// `items[start[i]..start[i + 1]]`. The compile passes keep their
/// node- and group-indexed lists in this form instead of `Vec<Vec<_>>`.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// No rows yet, with room for `rows` rows of `items` entries in all.
    pub(crate) fn with_capacity(rows: usize, items: usize) -> Csr {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        Csr {
            start,
            items: Vec::with_capacity(items),
        }
    }

    /// Groups `(row, item)` pairs into `rows` rows, keeping the pairs'
    /// order within each row (a counting sort; `pairs` is walked twice).
    pub(crate) fn from_pairs<I>(rows: usize, pairs: I) -> Csr
    where
        I: Iterator<Item = (usize, u32)> + Clone,
    {
        let mut start = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            start[r + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; start[rows] as usize];
        for (r, item) in pairs {
            items[fill[r] as usize] = item;
            fill[r] += 1;
        }
        Csr { start, items }
    }

    /// Appends `item` to the row being built.
    pub(crate) fn push(&mut self, item: u32) {
        self.items.push(item);
    }

    /// Closes the row being built.
    pub(crate) fn end_row(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    /// Number of closed rows.
    pub(crate) fn rows(&self) -> usize {
        self.start.len() - 1
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// A chunk graph's edges, resolved once into flat arrays so the compile
/// passes after operator fusion — coloring and the subtask build — index
/// instead of hashing.
///
/// Every distinct key the graph names gets a dense *key id*. The outputs of
/// node `i` are ids `out_start[i]..out_start[i + 1]`, numbered in node
/// order; keys read from earlier executions (no producer in this graph)
/// get the ids after all outputs, in order of first use.
#[derive(Debug, Clone)]
pub struct Adjacency {
    /// Key ids of each node's inputs, in input order.
    inputs: Csr,
    /// Node `i`'s output ids are `out_start[i]..out_start[i + 1]`.
    out_start: Vec<u32>,
    /// Producing node of every output id.
    producer: Vec<u32>,
    /// Number of key ids: outputs, then external inputs.
    keys: usize,
}

impl Adjacency {
    /// Resolves `graph` with one hash lookup per key occurrence. A key
    /// output by several nodes resolves to the last of them, as
    /// [`ChunkGraph::producers`] does.
    pub fn new(graph: &ChunkGraph) -> Adjacency {
        let n = graph.nodes.len();
        let n_out: usize = graph.nodes.iter().map(|n| n.outputs.len()).sum();
        let n_in: usize = graph.nodes.iter().map(|n| n.inputs.len()).sum();
        let mut ids: KeyMap<u32> = KeyMap::with_capacity_and_hasher(n_out, Default::default());
        let mut out_start = Vec::with_capacity(n + 1);
        let mut producer = Vec::with_capacity(n_out);
        out_start.push(0);
        for (i, node) in graph.nodes.iter().enumerate() {
            for &k in &node.outputs {
                ids.insert(k, producer.len() as u32);
                producer.push(i as u32);
            }
            out_start.push(producer.len() as u32);
        }
        let mut keys = n_out as u32;
        let mut inputs = Csr::with_capacity(n, n_in);
        for node in &graph.nodes {
            for &k in &node.inputs {
                inputs.push(*ids.entry(k).or_insert_with(|| {
                    keys += 1;
                    keys - 1
                }));
            }
            inputs.end_row();
        }
        Adjacency {
            inputs,
            out_start,
            producer,
            keys: keys as usize,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.inputs.rows()
    }

    /// Number of key ids (outputs plus external inputs).
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// Number of output ids: ids below this have a producer.
    pub fn produced_keys(&self) -> usize {
        self.producer.len()
    }

    /// Key ids of node `i`'s inputs, parallel to its `inputs`.
    pub fn inputs(&self, i: usize) -> &[u32] {
        self.inputs.row(i)
    }

    /// Key ids of node `i`'s outputs, parallel to its `outputs`.
    pub fn outputs(&self, i: usize) -> std::ops::Range<usize> {
        self.out_start[i] as usize..self.out_start[i + 1] as usize
    }

    /// The node producing key id `k`, or `None` for a key read from an
    /// earlier execution.
    pub fn producer(&self, k: u32) -> Option<usize> {
        self.producer.get(k as usize).map(|&p| p as usize)
    }

    /// Producer of each of node `i`'s inputs, in input order.
    pub fn input_producers(&self, i: usize) -> impl Iterator<Item = Option<usize>> + '_ {
        self.inputs(i).iter().map(|&k| self.producer(k))
    }
}

/// Monotonic chunk-key allocator (one per session).
#[derive(Debug, Default)]
pub struct KeyGen {
    next: ChunkKey,
}

impl KeyGen {
    /// Fresh allocator.
    pub fn new() -> KeyGen {
        KeyGen { next: 1 }
    }

    /// Allocator starting at `base.max(1)` — lets concurrent sessions that
    /// share one executor (the serving runtime) carve disjoint key ranges
    /// so chunks from different tenants never collide.
    pub fn starting_at(base: ChunkKey) -> KeyGen {
        KeyGen { next: base.max(1) }
    }

    /// The next key that would be allocated (exclusive upper bound of the
    /// keys handed out so far).
    pub fn peek(&self) -> ChunkKey {
        self.next
    }

    /// Allocates the next key.
    pub fn next_key(&mut self) -> ChunkKey {
        let k = self.next;
        self.next += 1;
        k
    }

    /// Allocates `n` keys.
    pub fn next_keys(&mut self, n: usize) -> Vec<ChunkKey> {
        (0..n).map(|_| self.next_key()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::Column;

    #[test]
    fn payload_accessors() {
        let df = DataFrame::new(vec![("a", Column::from_i64(vec![1, 2]))]).unwrap();
        let p = Payload::Df(df);
        assert_eq!(p.rows(), 2);
        assert!(p.as_df().is_ok());
        assert!(p.as_arr().is_err());
        let a = Payload::Arr(NdArray::zeros(&[3, 4]));
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nbytes(), 96);
    }

    #[test]
    fn graph_edges_and_topology() {
        let mut kg = KeyGen::new();
        let (k1, k2, k3) = (kg.next_key(), kg.next_key(), kg.next_key());
        let mut g = ChunkGraph::new();
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![k1],
        });
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![k1],
            outputs: vec![k2],
        });
        g.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![k1, k2],
            outputs: vec![k3],
        });
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 2)]);
        assert!(g.validate_topological().is_ok());
        // break topology
        let mut bad = ChunkGraph::new();
        bad.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![k1],
            outputs: vec![k2],
        });
        bad.push(ChunkNode {
            op: ChunkOp::Concat,
            inputs: vec![],
            outputs: vec![k1],
        });
        assert!(bad.validate_topological().is_err());
    }

    #[test]
    fn keygen_monotonic() {
        let mut kg = KeyGen::new();
        let a = kg.next_key();
        let ks = kg.next_keys(3);
        assert!(ks.iter().all(|&k| k > a));
        assert_eq!(ks.len(), 3);
    }
}
