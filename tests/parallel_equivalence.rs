//! The parallel-equivalence matrix — the determinism gate for the
//! work-stealing [`ParallelExecutor`].
//!
//! Every TPC-H query runs on the multi-core executor at 1/2/4/8 worker
//! threads and must produce a result **bit-identical** to the
//! single-threaded [`LocalExecutor`] oracle (the same executor with one
//! worker, which runs subtasks in graph order and never builds the pool)
//! under the same planner configuration: thread count and steal order may change only *placement*
//! (which chunk spills first), never a value. A randomized-DAG stress test
//! re-runs one wide pseudo-random graph ten times at 8 threads, asserting
//! identical results every time plus balanced storage accounting
//! (`unbalanced_unpins == 0`, ledger drained back to zero after the
//! fetch).

use xorbits::baselines::EngineKind;
use xorbits::core::config::XorbitsConfig;
use xorbits::core::local::LocalExecutor;
use xorbits::core::parallel::ParallelExecutor;
use xorbits::core::session::Session;
use xorbits::dataframe::{col, lit, AggFunc, AggSpec, DataFrame};
use xorbits::workloads::tpch::{run_query_on, TpchData};

const SF: f64 = 1.0;

/// Planner configuration shared by every run: identical configs produce
/// identical plans, so all executors run the same kernels and results
/// compare with `assert_eq!`.
fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: 8,
        ..Default::default()
    }
}

fn oracle(data: &TpchData, q: u32) -> DataFrame {
    let s = Session::new(cfg(), LocalExecutor::new());
    run_query_on(
        &s,
        &EngineKind::Xorbits.profile().caps,
        "xorbits-local-oracle",
        data,
        q,
    )
    .unwrap_or_else(|e| panic!("oracle failed on Q{q}: {e}"))
}

fn run_parallel(threads: usize, data: &TpchData, q: u32) -> DataFrame {
    let s = Session::new(cfg(), ParallelExecutor::with_threads(threads));
    let out = run_query_on(
        &s,
        &EngineKind::Xorbits.profile().caps,
        "xorbits-parallel",
        data,
        q,
    )
    .unwrap_or_else(|e| panic!("parallel run failed on Q{q} at {threads} threads: {e}"));
    s.with_executor(|ex| {
        let m = ex.storage_metrics();
        assert_eq!(
            m.unbalanced_unpins, 0,
            "Q{q} at {threads} threads leaked a pin"
        );
    });
    out
}

fn run_matrix(queries: std::ops::RangeInclusive<u32>) {
    let data = TpchData::new(SF).expect("tpch data");
    for q in queries {
        let expect = oracle(&data, q);
        for threads in [1usize, 2, 4, 8] {
            let out = run_parallel(threads, &data, q);
            assert_eq!(
                out, expect,
                "Q{q} at {threads} threads must be bit-identical to the LocalExecutor oracle"
            );
        }
    }
}

#[test]
fn parallel_matrix_q01_to_q08() {
    run_matrix(1..=8);
}

#[test]
fn parallel_matrix_q09_to_q15() {
    run_matrix(9..=15);
}

#[test]
fn parallel_matrix_q16_to_q22() {
    run_matrix(16..=22);
}

/// One wide pseudo-random DAG (seeded LCG picks filters / groupbys /
/// self-merges over several source frames, so many subtasks are ready at
/// once and steal order varies run to run), executed 10× at 8 threads:
/// every run must produce the identical frame, leak no pins, and drain the
/// storage ledger back to zero after the fetch.
#[test]
fn randomized_dag_stress_is_deterministic() {
    fn source(seed: u64, n: usize) -> DataFrame {
        let mut x = seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        DataFrame::new(vec![
            (
                "k",
                xorbits::dataframe::Column::from_i64(
                    (0..n).map(|_| (next() % 13) as i64).collect(),
                ),
            ),
            (
                "v",
                xorbits::dataframe::Column::from_i64(
                    (0..n).map(|_| (next() % 1000) as i64).collect(),
                ),
            ),
        ])
        .unwrap()
    }

    fn run_once() -> (DataFrame, DataFrame) {
        let s = Session::new(cfg(), ParallelExecutor::with_threads(8));
        // three independent sources → wide initial ready set
        let a = s.from_df(source(0xA11CE, 4000)).unwrap();
        let b = s.from_df(source(0xB0B, 3000)).unwrap();
        let c = s.from_df(source(0xC414F, 2000)).unwrap();
        // independent branches: aggregations over each source
        let ag = a
            .groupby_agg(
                vec!["k".into()],
                vec![
                    AggSpec::new("v", AggFunc::Sum, "s"),
                    AggSpec::new("v", AggFunc::Mean, "m"),
                ],
            )
            .unwrap();
        let bg = b
            .filter(col("v").lt(lit(700i64)))
            .unwrap()
            .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Max, "x")])
            .unwrap();
        let cg = c
            .groupby_agg(
                vec!["k".into()],
                vec![AggSpec::new("v", AggFunc::Count, "c")],
            )
            .unwrap();
        // diamond: the branches join back together
        let joined = ag
            .merge_on(&bg, &["k"])
            .unwrap()
            .merge_on(&cg, &["k"])
            .unwrap();
        let out = joined.fetch().unwrap();
        let out = xorbits::dataframe::sort::sort_by(&out, &[("k", true)]).unwrap();
        // a second fetch over a different shape reuses the same pool
        let extra = a.filter(col("v").ge(lit(500i64))).unwrap().fetch().unwrap();
        let (unbalanced, resident) = s.with_executor(|ex: &ParallelExecutor| {
            let m = ex.storage_metrics();
            (m.unbalanced_unpins, m.resident_bytes)
        });
        assert_eq!(unbalanced, 0, "work-stealing run leaked a pin");
        assert_eq!(resident, 0, "ledger must drain to zero after the fetch");
        (out, extra)
    }

    let first = run_once();
    for rep in 1..10 {
        assert_eq!(run_once(), first, "stress rep {rep} diverged");
    }
}
