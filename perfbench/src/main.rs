//! The repository's benchmark: three TPC-H workloads driven through the
//! program's public boundaries, every result checked against an oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it alternates untraced and traced repetitions and
//! reports the per-layer metrics of the traced ones, plus the tracing
//! overhead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for
//! the workloads, the metrics and which layer should move which
//! end-to-end number.

mod report;
mod stats;
mod timed;
mod variants;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use report::{Metric, Registry};
use timed::Probe;
use workloads::{Rep, Workload, OUT_DIR};
use xorbits_core::trace;

/// Set-ups timed before each repetition, the last of which it uses. They
/// are spread over the run so their median sees the same host as the
/// repetitions do.
const SETUPS_PER_REP: usize = 5;
/// No repetition starts once this many seconds have passed.
const HARD_STOP_S: f64 = 120.0;
/// Ring capacity of the program's tracer in traced repetitions.
const TRACE_RING: usize = 1 << 12;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Warns about, then removes, every `XORBITS_*` variable: the benchmark
/// pins each knob itself, so the caller's shell must not leak in.
fn scrub_env() {
    for (k, _) in std::env::vars_os() {
        let k = k.to_string_lossy().into_owned();
        if k.starts_with("XORBITS_") {
            eprintln!("warning: {k} is set in the environment; the benchmark ignores it");
            std::env::remove_var(&k);
        }
    }
}

/// The commit of the checkout, when it carries git metadata.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r} is packed)")),
        None => head,
    }
}

/// FNV-1a of the running executable: keys the cross-run count files, so
/// counts are only compared between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Process peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Compares `text` with the count file of an earlier run of this build and
/// seed, or writes it. Returns false on drift.
fn cross_run_check(path: &Path, text: &str) -> bool {
    match std::fs::read_to_string(path) {
        Ok(prev) if prev == text => true,
        Ok(prev) => {
            let line = prev
                .lines()
                .zip(text.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("was `{a}`, now `{b}`"))
                .unwrap_or_else(|| "line count differs".into());
            eprintln!("DRIFT against {}: {line}", path.display());
            false
        }
        Err(_) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
            true
        }
    }
}

/// Runs one repetition with a fresh set-up, optionally with the program's
/// tracer on. Returns the repetition, its set-up time and, when traced,
/// the tracer's registry.
fn one_rep(
    w: Workload,
    items: &[workloads::Item],
    probe: &Arc<Probe>,
    tag: usize,
    traced: bool,
) -> Result<(Rep, f64, Option<Registry>), String> {
    let t0 = Instant::now();
    let ready = workloads::setup(w, probe, tag)?;
    let setup_s = t0.elapsed().as_secs_f64();
    if traced {
        trace::enable(TRACE_RING);
    }
    let rep = workloads::run_rep(w, items, &ready, probe);
    let reg = if traced {
        trace::disable().map(|log| Registry {
            stages: log
                .metrics
                .gauges
                .iter()
                .filter_map(|(k, v)| {
                    let name = k.strip_prefix("stage.")?.strip_suffix(".seconds")?;
                    Some((name.to_string(), *v))
                })
                .collect(),
            counters: log.metrics.counters.clone(),
        })
    } else {
        None
    };
    drop(ready);
    Ok((rep, setup_s, reg))
}

fn fmt_metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cores={host_cores} commit={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    println!("# knobs: {}", w.knobs());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    // the simulator runs kernels on the driver thread; pin their morsel
    // parallelism (the pool sets its own on every execute)
    xorbits_dataframe::par::set_kernel_threads(1);

    let items = workloads::stream(w, args.seed);
    let quiet = Probe::new();
    let mut setup_s = Vec::new();
    let mut tag = 0;

    // warm-up: one whole unmeasured repetition pages in the allocator and
    // code paths, and lets the host settle after whatever ran before
    let (warm_rep, ..) = one_rep(w, &items, &quiet, tag, false)?;

    let start = Instant::now();
    let mut reps: Vec<(Rep, Option<Registry>)> = Vec::new();
    let mut spans = Vec::new();
    let mut last_rep_s = 0.0;
    let mut rss = 0.0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let untraced = reps.iter().filter(|r| r.1.is_none()).count();
        let traced = reps.len() - untraced;
        let enough = if args.trace {
            traced >= 1 && untraced >= 1
        } else {
            reps.len() >= w.min_reps()
        };
        if (enough && elapsed >= args.seconds)
            || (!reps.is_empty() && elapsed + last_rep_s > HARD_STOP_S)
        {
            break;
        }
        let traced_now = args.trace && untraced > traced;
        let probe = if traced_now {
            Probe::with_spans(start)
        } else {
            Probe::new()
        };
        for _ in 1..SETUPS_PER_REP {
            tag += 1;
            let t0 = Instant::now();
            let ready = workloads::setup(w, &quiet, tag)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(ready);
        }
        tag += 1;
        let t0 = Instant::now();
        let (rep, s, reg) = one_rep(w, &items, &probe, tag, traced_now)?;
        last_rep_s = t0.elapsed().as_secs_f64();
        setup_s.push(s);
        let base = spans.len();
        spans.extend(probe.take_spans().into_iter().map(|mut sp| {
            sp.id += base;
            sp.parent = sp.parent.map(|p| p + base);
            sp
        }));
        reps.push((rep, reg));
        if reps.len() == 1 {
            // after one full pass, so the figure does not grow with the
            // number of repetitions a run happens to fit in
            rss = peak_rss_mb();
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    // correctness, outside every timed region
    let expect = workloads::oracle(w)?;
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut faults: Vec<String> = Vec::new();
    let all_reps = std::iter::once(&warm_rep).chain(reps.iter().map(|r| &r.0));
    for rep in all_reps {
        for s in &rep.subs {
            attempted += 1;
            let want = &expect[(s.query - 1) as usize];
            let bad = match (&s.result, want) {
                (Err(e), _) => Some(format!("Q{} failed: {e}", s.query)),
                (_, Err(e)) => Some(format!("Q{} oracle failed: {e}", s.query)),
                (Ok(got), Ok(want)) if got != want => {
                    Some(format!("Q{} differs from the oracle", s.query))
                }
                _ if s.sql_pass == 2 && s.cache_hit != Some(true) => {
                    Some(format!("Q{} pass-2 variant missed the plan cache", s.query))
                }
                _ => None,
            };
            if let Some(b) = bad {
                failed += 1;
                if failed <= 5 {
                    eprintln!("FAILED submission {}: {b}", s.item);
                }
            }
            if s.totals.ledger_faults > 0 {
                faults.push(format!(
                    "Q{}: executor ledger inconsistent at clear",
                    s.query
                ));
            }
            if s.totals.undrained > 0 {
                faults.push(format!("Q{}: executor not drained after clear", s.query));
            }
        }
        if let Some(st) = rep.storage {
            if st.unbalanced_unpins != 0 {
                faults.push(format!(
                    "storage.unbalanced_unpins = {}",
                    st.unbalanced_unpins
                ));
            }
        }
    }

    // deterministic counts: every repetition, and every run of this build
    // and seed, must agree
    let prints: Vec<String> = reps.iter().map(|r| report::fingerprint(w, &r.0)).collect();
    if prints.iter().any(|p| p != &prints[0]) {
        faults.push("counts drifted between repetitions of one run".into());
    }
    let tiling: Vec<String> = reps
        .iter()
        .filter_map(|r| r.1.as_ref().map(report::tiling_fingerprint))
        .collect();
    if tiling.iter().any(|p| p != &tiling[0]) {
        faults.push("tiling counts drifted between traced repetitions".into());
    }
    let stem = format!("counts-{}-seed{}-{}", w.name(), args.seed, build_id());
    if !cross_run_check(&Path::new(OUT_DIR).join(format!("{stem}.txt")), &prints[0]) {
        faults.push("counts drifted from an earlier run of this build and seed".into());
    }
    if let Some(t) = tiling.first() {
        if !cross_run_check(&Path::new(OUT_DIR).join(format!("{stem}-tiling.txt")), t) {
            faults.push("tiling counts drifted from an earlier run of this build and seed".into());
        }
    }
    let acct = report::accounting_faults(&spans);
    if acct > 0 {
        faults.push(format!(
            "{acct} submissions' executor time exceeds their wall time"
        ));
    }
    for f in &faults {
        eprintln!("FAULT: {f}");
    }

    let untraced: Vec<&Rep> = reps
        .iter()
        .filter(|r| r.1.is_none())
        .map(|r| &r.0)
        .collect();
    let traced: Vec<(&Rep, &Registry)> = reps
        .iter()
        .filter_map(|r| r.1.as_ref().map(|g| (&r.0, g)))
        .collect();
    let per_rep = items.len();
    let samples: usize = untraced.iter().map(|r| r.subs.len()).sum();
    // chosen for the minimum repetitions, so the percentile does not move
    // with the host's speed; a run cut short by HARD_STOP_S uses what it has
    let tail_n = samples.min(w.min_reps() * per_rep);
    let tail_p = stats::tail_percentile(tail_n).unwrap_or(50.0);
    println!(
        "# measured {measured_s:.1} s: {} untraced + {} traced repetitions of {per_rep} submissions",
        untraced.len(),
        traced.len()
    );
    println!(
        "# failed_share {:.4} ({failed} of {attempted} submissions, oracle = hand-built on LocalExecutor)",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = if args.trace {
        let runs: Vec<Vec<Metric>> = traced
            .iter()
            .map(|(r, g)| report::layers(w, r, g))
            .collect();
        let mut out = report::median_metrics(&runs);
        let tw: Vec<f64> = traced.iter().map(|(r, _)| r.wall_s).collect();
        let uw: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
        let overhead = stats::median(&tw) - stats::median(&uw);
        println!(
            "# tracing overhead: traced suite_s {:.4} - untraced suite_s {:.4} = {overhead:.4} s",
            stats::median(&tw),
            stats::median(&uw)
        );
        let sh: Vec<[f64; 4]> = traced.iter().map(|(r, _)| report::shares(r)).collect();
        let col = |i: usize| 100.0 * stats::median(&sh.iter().map(|s| s[i]).collect::<Vec<_>>());
        println!(
            "# shares of submission wall time: sql plan {:.1}%, driver {:.1}%, execute {:.1}%, \
             other executor calls {:.1}%",
            col(0),
            col(1),
            col(2),
            col(3)
        );
        out.push(Metric {
            name: "trace.overhead_s",
            value: overhead,
            unit: "s",
        });
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        match std::fs::write(&path, report::spans_json(&spans)) {
            Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        out
    } else {
        let out = report::end_to_end(&setup_s, &untraced, tail_p, rss);
        let walls: Vec<String> = untraced
            .iter()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect();
        println!("# suite_s per repetition: {}", walls.join(" "));
        println!(
            "# query_tail_ms is p{tail_p} over {samples} submissions ({} of {tail_n} beyond it at the minimum {} repetitions)",
            stats::beyond(tail_p, tail_n),
            w.min_reps()
        );
        if w == Workload::PaperSim {
            let v: Vec<f64> = untraced
                .iter()
                .map(|r| report::rep_totals(r).virtual_s)
                .collect();
            println!(
                "# virtual_makespan_s {:.4} (median per pass, virtual clock)",
                stats::median(&v)
            );
        }
        if let Some(rep) = untraced.first() {
            for line in report::sql_passes(rep) {
                println!("# {line}");
            }
        }
        out
    };
    for m in &metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && faults.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        fmt_metrics_json(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    scrub_env();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
