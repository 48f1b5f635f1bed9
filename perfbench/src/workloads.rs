//! The three workloads: their pinned configuration, their seeded streams,
//! and one closed-loop repetition of each stream through the program's
//! public boundaries (`run_query_on`, `SqlFrontend::plan`,
//! `DfHandle::fetch`), timed by the [`Timed`] decorator.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use xorbits_baselines::EngineKind;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::local::LocalExecutor;
use xorbits_core::parallel::ParallelExecutor;
use xorbits_core::retile::RetileMode;
use xorbits_core::session::{Executor, Session};
use xorbits_core::sql::{PlanCacheStats, SqlFrontend};
use xorbits_core::XbResult;
use xorbits_dataframe::DataFrame;
use xorbits_runtime::{ClusterSpec, SimExecutor};
use xorbits_storage::{EncodingMode, SpillConfig, StorageConfig, StorageMetrics};
use xorbits_workloads::tpch::{run_query_on, sql_text, tpch_catalog, TpchData};

use crate::timed::{Inspect, Probe, Timed, Totals};
use crate::variants::{self, Variant};

/// Host threads of the work-stealing pool.
pub const THREADS: usize = 2;
/// Chunk encoding, everywhere a chunk can be encoded.
pub const ENCODING: EncodingMode = EncodingMode::Auto;
/// Mid-run re-tiling.
pub const RETILE: RetileMode = RetileMode::Off;
/// TPC-H queries per pass.
pub const QUERIES: u32 = 22;

const FINE_CHUNK_BYTES: usize = 8 << 10;
/// Chunk size and memory budget of `notebook-sql-spill`. The budget sits
/// below the stream's peak resident, so the disk tier is used; README.md
/// says why they are not smaller.
const SPILL_CHUNK_BYTES: usize = 1 << 20;
const SPILL_BUDGET_BYTES: usize = 6 << 20;
const SIM_WORKERS: usize = 16;
/// Per-worker memory of the paper's TPC-H cluster (`paper_cluster` at
/// bench scale 1).
const SIM_WORKER_BYTES: usize = 36 << 20;

/// Directory (under the working directory) for spill files and outputs.
pub const OUT_DIR: &str = ".perfbench_out";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hand-built TPC-H on the work-stealing pool at 8 KiB chunks.
    FineParallel,
    /// Hand-built TPC-H on the simulated paper cluster.
    PaperSim,
    /// SQL text in one long-lived session over a spilling pool.
    NotebookSql,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FineParallel,
        Workload::PaperSim,
        Workload::NotebookSql,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FineParallel => "tpch-fine-parallel",
            Workload::PaperSim => "tpch-paper-sim",
            Workload::NotebookSql => "notebook-sql-spill",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// TPC-H scale factor.
    pub fn sf(self) -> f64 {
        match self {
            Workload::PaperSim => 100.0,
            _ => 10.0,
        }
    }

    /// Worker threads of the executor under test (the simulator runs its
    /// kernels on the driver thread).
    pub fn threads(self) -> usize {
        match self {
            Workload::PaperSim => 1,
            _ => THREADS,
        }
    }

    /// Repetitions of the stream a run always makes, however short its
    /// time. The tail percentile is chosen for this many repetitions.
    pub fn min_reps(self) -> usize {
        match self {
            Workload::NotebookSql => 3,
            _ => 5,
        }
    }

    /// The planner configuration, every knob set explicitly.
    pub fn cfg(self) -> XorbitsConfig {
        let base = XorbitsConfig {
            threads: THREADS,
            encoding: Some(ENCODING),
            ..XorbitsConfig::default()
        };
        match self {
            Workload::FineParallel => XorbitsConfig {
                chunk_limit_bytes: FINE_CHUNK_BYTES,
                cluster_parallelism: 8,
                ..base
            },
            Workload::PaperSim => XorbitsConfig {
                cluster_parallelism: sim_spec().n_bands(),
                ..EngineKind::Xorbits.profile().cfg
            }
            .with_threads(THREADS)
            .with_encoding(ENCODING),
            Workload::NotebookSql => XorbitsConfig {
                chunk_limit_bytes: SPILL_CHUNK_BYTES,
                cluster_parallelism: 8,
                ..base
            },
        }
    }

    /// One line naming every pinned knob, for the run label.
    pub fn knobs(self) -> String {
        let cfg = self.cfg();
        let mut s = format!(
            "sf={} threads={} encoding={:?} retile={:?} speculation=off chunk_limit_bytes={} \
             cluster_parallelism={}",
            self.sf(),
            self.threads(),
            ENCODING,
            RETILE,
            cfg.chunk_limit_bytes,
            cfg.cluster_parallelism
        );
        match self {
            Workload::FineParallel => s.push_str(" executor=parallel storage=unbounded"),
            Workload::PaperSim => s.push_str(&format!(
                " executor=sim workers={SIM_WORKERS} worker_bytes={SIM_WORKER_BYTES} \
                 engine=Xorbits kernel_threads=1"
            )),
            Workload::NotebookSql => s.push_str(&format!(
                " executor=parallel memory_budget={SPILL_BUDGET_BYTES} spill=dir"
            )),
        }
        s
    }
}

/// The simulated paper cluster, adapted by the Xorbits engine profile.
pub fn sim_spec() -> ClusterSpec {
    let mut spec = EngineKind::Xorbits.cluster(&ClusterSpec::new(SIM_WORKERS, SIM_WORKER_BYTES));
    spec.encoding = ENCODING;
    spec.retile = Some(RETILE);
    spec.speculate = false;
    spec
}

fn storage_config(budget: Option<usize>, spill: SpillConfig) -> StorageConfig {
    StorageConfig {
        memory_budget: budget,
        spill,
        encoding: ENCODING,
    }
}

fn parallel(config: StorageConfig) -> XbResult<ParallelExecutor> {
    Ok(ParallelExecutor::with_storage_and_threads(config, THREADS)?.with_retile(RETILE))
}

/// SplitMix64: the stream's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// The queries `1..=22` in a seeded order.
    pub fn order(&mut self) -> Vec<u32> {
        let mut q: Vec<u32> = (1..=QUERIES).collect();
        for i in (1..q.len()).rev() {
            q.swap(i, self.below(i + 1));
        }
        q
    }
}

/// One submission of a stream.
#[derive(Debug, Clone)]
pub struct Item {
    /// TPC-H query number.
    pub query: u32,
    /// SQL pass (1 or 2) in `notebook-sql-spill`; 0 for hand-built.
    pub sql_pass: u8,
    /// How the text was re-typed (pass 2 only).
    pub variant: Option<Variant>,
    /// SQL text (`notebook-sql-spill` only).
    pub text: Option<String>,
}

/// The workload's stream for `seed`: one pass over the 22 queries for the
/// hand-built workloads, two SQL passes for `notebook-sql-spill`. Every
/// repetition within a run submits the same stream.
pub fn stream(w: Workload, seed: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed, 1);
    if w != Workload::NotebookSql {
        return rng
            .order()
            .into_iter()
            .map(|query| Item {
                query,
                sql_pass: 0,
                variant: None,
                text: None,
            })
            .collect();
    }
    let text = |q: u32| sql_text(q).expect("TPC-H queries 1..=22 have SQL text");
    let mut items: Vec<Item> = rng
        .order()
        .into_iter()
        .map(|query| Item {
            query,
            sql_pass: 1,
            variant: None,
            text: Some(text(query).to_string()),
        })
        .collect();
    let mut rng2 = Rng::new(seed, 2);
    for query in rng2.order() {
        let base = text(query);
        let kinds = variants::available(base);
        let variant = kinds[rng2.below(kinds.len())];
        let rewritten = variants::rewrite(base, variant, |n| rng2.below(n));
        items.push(Item {
            query,
            sql_pass: 2,
            variant: Some(variant),
            text: Some(rewritten),
        });
    }
    items
}

/// One submission's measurements.
#[derive(Debug, Clone)]
pub struct Sub {
    /// Index into the stream.
    pub item: usize,
    /// TPC-H query.
    pub query: u32,
    /// SQL pass (0 for hand-built).
    pub sql_pass: u8,
    /// Submission wall time: plan + fetch, or the whole hand-built program.
    pub wall_s: f64,
    /// `SqlFrontend::plan` wall time (0 for hand-built).
    pub plan_s: f64,
    /// Executor time inside `plan` (scalar subqueries fetched eagerly).
    pub plan_inside_s: f64,
    /// Executor-boundary totals of this submission.
    pub totals: Totals,
    /// Whether `plan` was a text- or AST-level plan-cache hit.
    pub cache_hit: Option<bool>,
    /// How the SQL text was re-typed (pass 2 only).
    pub variant: Option<Variant>,
    /// The result, or the error's text.
    pub result: Result<DataFrame, String>,
}

/// One repetition of the stream.
#[derive(Debug, Default)]
pub struct Rep {
    /// First submission to last result, seconds.
    pub wall_s: f64,
    /// Per-submission measurements, in stream order.
    pub subs: Vec<Sub>,
    /// Storage counters summed over the repetition's executors (peak:
    /// maximum); `None` on the simulator.
    pub storage: Option<StorageMetrics>,
    /// Plan-cache counters at the end of the stream (SQL only).
    pub cache: Option<PlanCacheStats>,
}

fn add_storage(acc: &mut Option<StorageMetrics>, m: Option<StorageMetrics>) {
    let Some(m) = m else { return };
    let a = acc.get_or_insert_with(StorageMetrics::default);
    a.evictions += m.evictions;
    a.spilled_bytes += m.spilled_bytes;
    a.read_back_bytes += m.read_back_bytes;
    a.hits += m.hits;
    a.misses += m.misses;
    a.peak_resident_bytes = a.peak_resident_bytes.max(m.peak_resident_bytes);
    a.unbalanced_unpins += m.unbalanced_unpins;
    a.encoded_raw_bytes += m.encoded_raw_bytes;
    a.encoded_wire_bytes += m.encoded_wire_bytes;
}

/// What a workload builds before its first submission.
pub struct Ready {
    data: TpchData,
    sql: Option<(SqlFrontend<Timed<ParallelExecutor>>, PathBuf)>,
}

impl Drop for Ready {
    fn drop(&mut self) {
        if let Some((fe, dir)) = self.sql.take() {
            drop(fe);
            // the storage service leaves a caller-owned spill directory in
            // place
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds the sources, the catalog, the executor and the spill directory:
/// everything `setup_s` times. `tag` makes the spill directory unique.
pub fn setup(w: Workload, probe: &Arc<Probe>, tag: usize) -> Result<Ready, String> {
    let err = |e: xorbits_core::XbError| e.to_string();
    let data = TpchData::new(w.sf()).map_err(err)?;
    let sql = match w {
        // the hand-built workloads open a fresh session per query; build
        // one executor here so set-up covers its construction too
        Workload::FineParallel => {
            drop(parallel(storage_config(None, SpillConfig::Disabled)).map_err(err)?);
            None
        }
        Workload::PaperSim => {
            drop(SimExecutor::new(sim_spec()));
            None
        }
        Workload::NotebookSql => {
            let dir = Path::new(OUT_DIR).join(format!("spill-{}-{tag}", std::process::id()));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let exec = parallel(storage_config(
                Some(SPILL_BUDGET_BYTES),
                SpillConfig::Dir(dir.clone()),
            ))
            .map_err(err)?;
            let catalog = tpch_catalog(&data).map_err(err)?;
            let session = Session::new(w.cfg(), Timed::new(exec, Arc::clone(probe)));
            Some((SqlFrontend::new(session, catalog), dir))
        }
    };
    Ok(Ready { data, sql })
}

fn caps() -> xorbits_baselines::Capabilities {
    EngineKind::Xorbits.profile().caps
}

/// Runs one hand-built query in a fresh session on the executor `make`
/// builds; the submission's wall time covers building it.
fn handbuilt<E: Executor + Inspect>(
    make: impl FnOnce() -> XbResult<E>,
    w: Workload,
    data: &TpchData,
    q: u32,
    probe: &Arc<Probe>,
) -> (XbResult<DataFrame>, f64, Option<StorageMetrics>) {
    let t0 = Instant::now();
    let res = make().map(|exec| {
        let sess = Session::new(w.cfg(), Timed::new(exec, Arc::clone(probe)));
        (run_query_on(&sess, &caps(), "Xorbits", data, q), sess)
    });
    let wall = t0.elapsed().as_secs_f64();
    match res {
        Ok((res, sess)) => (res, wall, sess.with_executor(|e| e.inner().storage())),
        Err(e) => (Err(e), wall, None),
    }
}

/// Runs one repetition of `items` over `ready`, closed loop: each
/// submission starts when the previous result is back.
pub fn run_rep(w: Workload, items: &[Item], ready: &Ready, probe: &Arc<Probe>) -> Rep {
    let mut rep = Rep::default();
    let start = Instant::now();
    for (i, it) in items.iter().enumerate() {
        let before = probe.totals();
        let span = probe.open("submission", i);
        let mut sub = Sub {
            item: i,
            query: it.query,
            sql_pass: it.sql_pass,
            wall_s: 0.0,
            plan_s: 0.0,
            plan_inside_s: 0.0,
            totals: Totals::default(),
            cache_hit: None,
            variant: it.variant,
            result: Err(String::new()),
        };
        match w {
            Workload::NotebookSql => {
                let (fe, _) = ready.sql.as_ref().expect("set-up builds the frontend");
                let text = it.text.as_deref().expect("SQL items carry text");
                let cache_before = fe.cache_stats();
                let t0 = Instant::now();
                let plan_span = probe.open("plan", i);
                let handle = fe.plan(text);
                probe.close(plan_span);
                let plan_s = t0.elapsed().as_secs_f64();
                let plan_inside = probe.totals().since(&before).inside_s();
                let fetch_span = probe.open("fetch", i);
                let res = handle.and_then(|h| h.fetch());
                probe.close(fetch_span);
                sub.wall_s = t0.elapsed().as_secs_f64();
                let c = fe.cache_stats();
                sub.plan_s = plan_s;
                sub.plan_inside_s = plan_inside;
                sub.cache_hit =
                    Some(c.text_hits + c.ast_hits > cache_before.text_hits + cache_before.ast_hits);
                sub.result = res.map_err(|e| e.to_string());
            }
            Workload::FineParallel => {
                let make = || parallel(storage_config(None, SpillConfig::Disabled));
                let (res, wall, storage) = handbuilt(make, w, &ready.data, it.query, probe);
                sub.wall_s = wall;
                sub.result = res.map_err(|e| e.to_string());
                add_storage(&mut rep.storage, storage);
            }
            Workload::PaperSim => {
                let make = || Ok(SimExecutor::new(sim_spec()));
                let (res, wall, _) = handbuilt(make, w, &ready.data, it.query, probe);
                sub.wall_s = wall;
                sub.result = res.map_err(|e| e.to_string());
            }
        }
        probe.close(span);
        sub.totals = probe.totals().since(&before);
        rep.subs.push(sub);
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    if let Some((fe, _)) = &ready.sql {
        rep.cache = Some(fe.cache_stats());
        rep.storage = fe.session().with_executor(|e| e.inner().storage());
    }
    rep
}

/// The oracle: each query's hand-built program on the single-threaded
/// local executor, unbounded, under the workload's configuration.
pub fn oracle(w: Workload) -> Result<Vec<Result<DataFrame, String>>, String> {
    let data = TpchData::new(w.sf()).map_err(|e| e.to_string())?;
    Ok((1..=QUERIES)
        .map(|q| {
            let exec = LocalExecutor::with_storage(storage_config(None, SpillConfig::Disabled))
                .map_err(|e| e.to_string())?;
            let sess = Session::new(w.cfg(), exec);
            run_query_on(&sess, &caps(), "Xorbits", &data, q).map_err(|e| e.to_string())
        })
        .collect())
}
