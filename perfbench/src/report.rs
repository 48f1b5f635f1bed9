//! Turns repetitions into the metrics `BENCHMARK.json` names: end-to-end
//! metrics from the untraced repetitions, per-layer metrics from the
//! traced ones.

use std::collections::BTreeMap;

use crate::stats::{busy_share, layer_shares, median, percentile, self_time};
use crate::timed::{Span, Totals};
use crate::workloads::{Rep, Workload};

const MB: f64 = (1u64 << 20) as f64;

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The program's own trace registry, read after a traced repetition.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// `stage.<span>.seconds` gauges, keyed by span name.
    pub stages: BTreeMap<String, f64>,
    /// Counters (`tiling.yields`, `tiling.probes`, …).
    pub counters: BTreeMap<String, u64>,
}

impl Registry {
    /// Seconds the program's `name` spans took.
    pub fn stage(&self, name: &str) -> f64 {
        self.stages.get(name).copied().unwrap_or(0.0)
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Sum of the executor-boundary totals of every submission of `rep`.
pub fn rep_totals(rep: &Rep) -> Totals {
    let mut t = Totals::default();
    for s in &rep.subs {
        t.add(&s.totals);
    }
    t
}

/// Seconds of submission wall time spent outside executor calls.
pub fn driver_self_s(rep: &Rep) -> f64 {
    rep.subs
        .iter()
        .map(|s| self_time(s.wall_s, s.totals.inside_s()))
        .sum()
}

/// Share of the summed submission wall time each layer took: SQL planning
/// (without the executor calls it made), driver (the rest outside executor
/// calls), `execute`, and the other executor calls. Sums to 1.
pub fn shares(rep: &Rep) -> [f64; 4] {
    let mut acc = [0.0; 4];
    let wall: f64 = rep.subs.iter().map(|s| s.wall_s).sum();
    for s in &rep.subs {
        let plan_self = self_time(s.plan_s, s.plan_inside_s);
        let parts = [plan_self, s.totals.exec_s, s.totals.other_s];
        let sh = layer_shares(s.wall_s, &parts);
        let weight = if wall > 0.0 { s.wall_s / wall } else { 0.0 };
        acc[0] += sh[0] * weight;
        acc[1] += sh[3] * weight;
        acc[2] += sh[1] * weight;
        acc[3] += sh[2] * weight;
    }
    acc
}

/// Median over the stream's submissions of each submission's median
/// latency across repetitions, in seconds.
///
/// Latencies cluster by query, and the plain median of every sample sits
/// on the edge between two query clusters, where it jumps between them
/// from run to run. With an even number of submissions this median
/// averages the two middle clusters' typical values instead.
pub fn typical_median(reps: &[&Rep]) -> f64 {
    let n = reps.iter().map(|r| r.subs.len()).min().unwrap_or(0);
    let per_item: Vec<f64> = (0..n)
        .map(|i| {
            let v: Vec<f64> = reps.iter().map(|r| r.subs[i].wall_s).collect();
            median(&v)
        })
        .collect();
    median(&per_item)
}

/// End-to-end metrics over the untraced repetitions.
pub fn end_to_end(setup_s: &[f64], reps: &[&Rep], tail_p: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let suites: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let lat_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.subs.iter().map(|s| s.wall_s * 1e3))
        .collect();
    vec![
        m("setup_s", median(setup_s), "s"),
        m("suite_s", median(&suites), "s"),
        m("query_p50_ms", typical_median(reps) * 1e3, "ms"),
        m("query_tail_ms", percentile(&lat_ms, tail_p), "ms"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Per-layer metrics of one traced repetition.
pub fn layers(w: Workload, rep: &Rep, reg: &Registry) -> Vec<Metric> {
    let t = rep_totals(rep);
    let n_subs = rep.subs.len().max(1) as f64;
    let wall: f64 = rep.subs.iter().map(|s| s.wall_s).sum();
    let driver = driver_self_s(rep);
    let sh = shares(rep);
    let threads = w.threads();
    let st = rep.storage.unwrap_or_default();
    let sim = w == Workload::PaperSim;
    let (raw, wire) = if sim {
        (t.sim_raw_bytes, t.sim_wire_bytes)
    } else {
        (st.encoded_raw_bytes, st.encoded_wire_bytes)
    };
    let fusion = reg.stage("op_fusion");
    let coloring = reg.stage("coloring");
    let plan_ms = |hit: bool| {
        let v: Vec<f64> = rep
            .subs
            .iter()
            .filter(|s| s.cache_hit == Some(hit))
            .map(|s| self_time(s.plan_s, s.plan_inside_s) * 1e3)
            .collect();
        median(&v)
    };
    let cache = rep.cache.unwrap_or_default();
    let sim_only = |v: f64| if sim { v } else { 0.0 };
    vec![
        m("driver.self_s", driver, "s"),
        m(
            "driver.share",
            if wall > 0.0 { driver / wall } else { 0.0 },
            "fraction",
        ),
        m("sql.plan.share", sh[0], "fraction"),
        m("prune.s", reg.stage("prune_columns"), "s"),
        m("tile.s", reg.stage("tile_step"), "s"),
        m("op_fusion.s", fusion, "s"),
        m("coloring.s", coloring, "s"),
        m(
            "build_subtasks.self_s",
            self_time(reg.stage("build_subtasks"), fusion + coloring),
            "s",
        ),
        m("exec.calls", t.exec_calls as f64, "count"),
        m(
            "exec.calls_per_submission",
            t.exec_calls as f64 / n_subs,
            "count",
        ),
        m(
            "tiling.yields",
            reg.counter("tiling.yields") as f64,
            "count",
        ),
        m(
            "tiling.probes",
            reg.counter("tiling.probes") as f64,
            "count",
        ),
        m("meta.lookups", t.meta_lookups as f64, "count"),
        m("subtasks", t.subtasks as f64, "count"),
        m("chunk_nodes", t.chunk_nodes as f64, "count"),
        m(
            "chunk_nodes_per_subtask",
            if t.subtasks > 0 {
                t.chunk_nodes as f64 / t.subtasks as f64
            } else {
                0.0
            },
            "ratio",
        ),
        m("exec.s", t.exec_s, "s"),
        m("exec.other_s", t.other_s, "s"),
        m("exec.kernel_s", t.kernel_s, "s"),
        m(
            "exec.busy_share",
            busy_share(t.kernel_s, t.exec_s, threads),
            "fraction",
        ),
        m(
            "exec.non_kernel_s",
            self_time(t.exec_s * threads as f64, t.kernel_s),
            "s",
        ),
        m("storage.hits", st.hits as f64, "count"),
        m("storage.misses", st.misses as f64, "count"),
        m("storage.evictions", st.evictions as f64, "count"),
        m("storage.spilled_mb", st.spilled_bytes as f64 / MB, "MB"),
        m("storage.read_back_mb", st.read_back_bytes as f64 / MB, "MB"),
        m(
            "storage.peak_resident_mb",
            st.peak_resident_bytes as f64 / MB,
            "MB",
        ),
        m(
            "storage.unbalanced_unpins",
            st.unbalanced_unpins as f64,
            "count",
        ),
        m("chunkfmt.raw_mb", raw as f64 / MB, "MB"),
        m("chunkfmt.wire_mb", wire as f64 / MB, "MB"),
        m(
            "chunkfmt.ratio",
            if wire > 0 {
                raw as f64 / wire as f64
            } else {
                0.0
            },
            "ratio",
        ),
        m("sim.net_mb", sim_only(t.net_bytes as f64 / MB), "MB"),
        m(
            "sim.peak_worker_mb",
            sim_only(t.peak_worker_bytes as f64 / MB),
            "MB",
        ),
        m("sim.virtual_makespan_s", sim_only(t.virtual_s), "s"),
        m("sql.plan_miss_ms", plan_ms(false), "ms"),
        m("sql.plan_hit_ms", plan_ms(true), "ms"),
        m("sql.cache.text_hits", cache.text_hits as f64, "count"),
        m("sql.cache.ast_hits", cache.ast_hits as f64, "count"),
        m("sql.cache.misses", cache.misses as f64, "count"),
    ]
}

/// Per-SQL-pass summary lines of one repetition (empty for hand-built
/// workloads): wall time, executor calls per fetch, and the variants the
/// second pass re-typed.
pub fn sql_passes(rep: &Rep) -> Vec<String> {
    (1..=2u8)
        .filter_map(|pass| {
            let subs: Vec<_> = rep.subs.iter().filter(|s| s.sql_pass == pass).collect();
            if subs.is_empty() {
                return None;
            }
            let wall: f64 = subs.iter().map(|s| s.wall_s).sum();
            let calls: u64 = subs.iter().map(|s| s.totals.exec_calls).sum();
            let mut variants: BTreeMap<&str, usize> = BTreeMap::new();
            for s in &subs {
                if let Some(v) = s.variant {
                    *variants.entry(v.label()).or_default() += 1;
                }
            }
            Some(format!(
                "sql pass {pass}: {wall:.3} s, {:.1} execute calls per submission, variants {variants:?}",
                calls as f64 / subs.len() as f64
            ))
        })
        .collect()
}

/// Element-wise median of several repetitions' metric lists.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, base)| {
            let v: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            Metric {
                value: median(&v),
                ..base.clone()
            }
        })
        .collect()
}

/// Submissions whose executor-call spans do not fit inside their own
/// submission span: each submission's driver self time plus its time
/// inside executor calls must account for its wall time.
pub fn accounting_faults(spans: &[Span]) -> usize {
    let mut wall: BTreeMap<usize, f64> = BTreeMap::new();
    let mut inside: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        match s.name {
            "submission" => *wall.entry(s.submission).or_default() += s.dur_s,
            "execute" | "payload" | "release" | "clear" => {
                *inside.entry(s.submission).or_default() += s.dur_s
            }
            _ => {}
        }
    }
    // 1 µs of slack for the clock reads between nested spans
    wall.iter()
        .filter(|(id, &w)| inside.get(id).copied().unwrap_or(0.0) > w + 1e-6)
        .count()
}

/// A line per submission of the counts that must repeat exactly between
/// runs of the same seed and between repetitions of one run.
pub fn fingerprint(w: Workload, rep: &Rep) -> String {
    let mut out = String::new();
    for s in &rep.subs {
        let t = &s.totals;
        out.push_str(&format!(
            "{} q{} calls={} subtasks={} chunk_nodes={} meta_lookups={}",
            s.item, s.query, t.exec_calls, t.subtasks, t.chunk_nodes, t.meta_lookups
        ));
        if w == Workload::PaperSim {
            out.push_str(&format!(
                " raw={} wire={}",
                t.sim_raw_bytes, t.sim_wire_bytes
            ));
        }
        if let Some(hit) = s.cache_hit {
            out.push_str(&format!(" plan_hit={hit}"));
        }
        out.push('\n');
    }
    if let Some(c) = rep.cache {
        out.push_str(&format!(
            "plan_cache text_hits={} ast_hits={} misses={}\n",
            c.text_hits, c.ast_hits, c.misses
        ));
    }
    out
}

/// The traced-only counts that must repeat exactly.
pub fn tiling_fingerprint(reg: &Registry) -> String {
    format!(
        "tiling.yields={} tiling.probes={}\n",
        reg.counter("tiling.yields"),
        reg.counter("tiling.probes")
    )
}

/// Chrome trace-event JSON of the benchmark's own spans (pid 0, one
/// thread; `args` carry the submission id and parent span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"submission\":{},\"parent\":{}}}}}",
            s.name,
            s.start_s * 1e6,
            s.dur_s * 1e6,
            s.id,
            s.submission,
            parent
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Sub;

    fn sub(wall: f64, plan: f64, plan_inside: f64, exec: f64, other: f64) -> Sub {
        Sub {
            item: 0,
            query: 1,
            sql_pass: 1,
            wall_s: wall,
            plan_s: plan,
            plan_inside_s: plan_inside,
            totals: Totals {
                exec_s: exec,
                other_s: other,
                ..Totals::default()
            },
            cache_hit: None,
            variant: None,
            result: Err(String::new()),
        }
    }

    #[test]
    fn submission_shares_sum_to_one() {
        let rep = Rep {
            subs: vec![
                sub(1.0, 0.25, 0.125, 0.5, 0.125),
                sub(3.0, 0.0, 0.0, 2.0, 0.0),
            ],
            ..Rep::default()
        };
        let sh = shares(&rep);
        assert!((sh.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{sh:?}");
        assert!(sh.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // driver self = wall − inside: 0.375 + 1.0 of 4.0 seconds
        assert!((driver_self_s(&rep) - 1.375).abs() < 1e-12);
    }

    #[test]
    fn typical_median_takes_each_submission_median_first() {
        let rep = |walls: &[f64]| Rep {
            subs: walls.iter().map(|&w| sub(w, 0.0, 0.0, 0.0, 0.0)).collect(),
            ..Rep::default()
        };
        // submission medians are 1, 2, 10 and 20; their median is 6
        let a = rep(&[1.0, 2.0, 10.0, 20.0]);
        let b = rep(&[1.5, 2.5, 9.0, 25.0]);
        let c = rep(&[0.5, 1.0, 11.0, 19.0]);
        assert_eq!(typical_median(&[&a, &b, &c]), 6.0);
    }

    #[test]
    fn accounting_accepts_nested_and_flags_overshoot() {
        let span = |id, submission, name, start_s, dur_s| Span {
            id,
            parent: None,
            submission,
            name,
            start_s,
            dur_s,
        };
        let ok = vec![
            span(0, 0, "submission", 0.0, 1.0),
            span(1, 0, "execute", 0.1, 0.5),
            span(2, 0, "payload", 0.7, 0.1),
        ];
        assert_eq!(accounting_faults(&ok), 0);
        let bad = vec![
            span(0, 0, "submission", 0.0, 1.0),
            span(1, 0, "execute", 0.0, 1.5),
        ];
        assert_eq!(accounting_faults(&bad), 1);
    }
}
