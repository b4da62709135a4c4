//! The repository benchmark: runs one named workload against the dohmark
//! library, checks its outputs and reports its metrics (see README.md).
//!
//! An untraced run repeats whole passes over the workload until the
//! measuring time is spent and reports the end-to-end metrics as medians
//! over the passes. A traced run alternates untraced and traced passes,
//! runs the layer probes, and reports the per-layer metrics. Either run
//! checks that every pass on the seed produced the same outputs and that
//! they equal the library runner's.

pub mod clock;
pub mod metrics;
pub mod outputs;
pub mod probes;
pub mod spans;
pub mod workload;

use dohmark_bench::stats;
use spans::Tracer;
use workload::{Rep, Shape, Workload};

/// Fewest passes an untraced run makes.
pub const MIN_REPS: usize = 3;

/// Set-up samples behind the reported `setup_s` median; passes supply
/// one each and set-up-only runs make up the rest.
pub const SETUP_SAMPLES: usize = 9;

/// Names the codec probes encode and decode.
const PROBE_NAMES: usize = 1_000;

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// `(name, value)`, in catalogue order.
    pub metrics: Vec<(String, f64)>,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
    /// The first pass's deterministic outputs and digest, as JSON.
    pub outputs: String,
    /// The traced run's spans as JSON lines.
    pub spans: Option<String>,
    /// Host throughput of each untraced pass, in run order.
    pub passes: Vec<f64>,
}

impl Outcome {
    /// The result line the benchmark prints last.
    pub fn result_json(&self) -> String {
        metrics::result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Runs `w` on `seed` for about `seconds` of measuring, traced or not.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        traced_run(w, seed, seconds)
    } else {
        untraced_run(w, seed, seconds)
    }
}

/// Whether another pass that takes as long as the last one still ends
/// within the measuring time.
fn fits(start: std::time::Instant, last_pass_s: f64, seconds: f64) -> bool {
    clock::secs_since(start) + last_pass_s <= seconds
}

fn untraced_run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let start = clock::now();
    let mut reps = vec![w.rep(seed, &mut Tracer::off())];
    // Read after one pass: later passes add allocator fragmentation that
    // varies from run to run, not memory the workload needs.
    let rss = peak_rss_mb();
    let mut last_pass_s = clock::secs_since(start);
    while reps.len() < MIN_REPS || fits(start, last_pass_s, seconds) {
        let pass_start = clock::now();
        reps.push(w.rep(seed, &mut Tracer::off()));
        last_pass_s = clock::secs_since(pass_start);
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(w.setup_secs(seed));
    }
    let mut problems = check_reps(w, seed, &reps);
    let rss = rss.unwrap_or_else(|e| {
        problems.push(e);
        0.0
    });
    let metrics = vec![
        ("ops_per_s".to_string(), stats::median(&throughputs(&reps))),
        ("setup_s".to_string(), stats::median(&setups)),
        ("peak_rss_mb".to_string(), rss),
    ];
    Outcome { passes: throughputs(&reps), ..finish(w, seed, &reps, metrics, problems, None) }
}

fn traced_run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut found: Vec<(String, f64)> = probes::run(&w.names(seed, PROBE_NAMES), seed)
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();

    let start = clock::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::on();
    let mut last_pair_s = 0.0;
    while traced.is_empty() || fits(start, last_pair_s, seconds) {
        let pair_start = clock::now();
        // Alternate which pass of a pair goes first, so that neither
        // always inherits the other's warm caches and allocator state.
        let traced_first = traced.len() % 2 == 1;
        if !traced_first {
            plain.push(w.rep(seed, &mut Tracer::off()));
        }
        tracer = Tracer::on();
        traced.push(w.rep(seed, &mut tracer));
        if traced_first {
            plain.push(w.rep(seed, &mut Tracer::off()));
        }
        last_pair_s = clock::secs_since(pair_start);
    }
    let all: Vec<Rep> = plain.iter().chain(&traced).cloned().collect();
    let mut problems = check_reps(w, seed, &all);

    // A fleet never calls `load_page`: a small page-load pass on the same
    // seed supplies those metrics, and only the names still missing.
    let pages = Workload::page_probe();
    let mut page_tracer = Tracer::on();
    let page_rep = pages.rep(seed, &mut page_tracer);
    problems.extend(check_reps(&pages, seed, std::slice::from_ref(&page_rep)));

    let last = traced.last().expect("at least one traced pass");
    found.extend(layer_metrics(w, last, &tracer));
    for (name, v) in layer_metrics(&pages, &page_rep, &page_tracer) {
        if !found.iter().any(|(n, _)| *n == name) {
            found.push((name, v));
        }
    }
    // The two passes of a pair run back to back and share the host's
    // state; the overhead is the median pair ratio.
    let ratios: Vec<f64> =
        throughputs(&plain).iter().zip(throughputs(&traced)).map(|(p, t)| p / t).collect();
    found.push(("trace.overhead_ratio".to_string(), stats::median(&ratios)));
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    found.push(("failed_ratio".to_string(), failed as f64 / attempted.max(1) as f64));

    let mut metrics = Vec::with_capacity(metrics::PER_LAYER.len());
    for &(name, _, _) in &metrics::PER_LAYER {
        match found.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => metrics.push((name.to_string(), v)),
            None => problems.push(format!("per-layer metric {name} was not measured")),
        }
    }
    finish(w, seed, &all, metrics, problems, Some(tracer.to_jsonl()))
}

fn finish(
    w: &Workload,
    seed: u64,
    reps: &[Rep],
    metrics: Vec<(String, f64)>,
    mut problems: Vec<String>,
    spans: Option<String>,
) -> Outcome {
    for (name, v) in &metrics {
        if !v.is_finite() {
            problems.push(format!("{name} is {v}"));
        }
    }
    let metrics = metrics.into_iter().filter(|(_, v)| v.is_finite()).collect();
    Outcome {
        correct: problems.is_empty(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        problems,
        outputs: reps[0].out.to_json(w.name, seed),
        spans,
        passes: Vec::new(),
    }
}

/// Operations per host second of each pass.
fn throughputs(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.ops as f64 / r.run_s).collect()
}

/// The output checks: every pass on the seed has the first pass's
/// digest, and the first pass agrees with the library runner.
pub fn check_reps(w: &Workload, seed: u64, reps: &[Rep]) -> Vec<String> {
    let mut problems = Vec::new();
    let want = reps[0].out.digest();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        let got = rep.out.digest();
        if got != want {
            problems.push(format!(
                "pass {i} on seed {seed} has digest {got:016x}, pass 0 has {want:016x}"
            ));
        }
    }
    if let Err(e) = workload::check_reference(w, seed, &reps[0]) {
        problems.push(format!("{}: {e}", w.name));
    }
    problems
}

/// The per-layer metrics one traced pass yields. Fleets yield the
/// `doh.resolve`/cache/arrival metrics, page loads the `pageload.*` ones;
/// both yield the simulator counters and set-up components.
fn layer_metrics(w: &Workload, rep: &Rep, tr: &Tracer) -> Vec<(String, f64)> {
    let o = &rep.out;
    let resolutions = o.count("resolutions").max(1) as f64;
    let mut m: Vec<(String, f64)> = vec![
        ("netsim.packets".into(), o.count("packets") as f64),
        ("netsim.bytes".into(), o.count("bytes") as f64),
        ("netsim.dropped".into(), o.count("dropped") as f64),
        ("netsim.sim_end_s".into(), o.count("sim_end_ns") as f64 * 1e-9),
        ("doh.unrouted_wakes".into(), o.count("unrouted_wakes") as f64),
        ("doh.bytes_per_resolution".into(), o.count("bytes") as f64 / resolutions),
        ("doh.teardown_s".into(), tr.total_secs("doh.teardown")),
        ("setup.topology_s".into(), tr.total_secs("setup.topology")),
        ("setup.register_s".into(), tr.total_secs("setup.register")),
        ("workload.schedule_s".into(), tr.total_secs("workload.schedule")),
    ];
    for tag in dohmark::netsim::LayerTag::ALL {
        let key = workload::layer_key(tag);
        m.push((format!("doh.{key}"), o.count(key) as f64 / resolutions));
    }
    match &w.shape {
        Shape::Fleet(_) => {
            let resolve_us: Vec<f64> =
                tr.durations("doh.resolve").into_iter().map(|s| s * 1e6).collect();
            let tenth = (resolve_us.len() / 10).max(1);
            let first = stats::median(&resolve_us[..tenth]);
            let last = stats::median(&resolve_us[resolve_us.len() - tenth..]);
            let hits = o.count("cache_hits") as f64;
            let lookups = hits + o.count("cache_misses") as f64;
            m.extend([
                ("doh.resolve_us.p50".into(), stats::median(&resolve_us)),
                ("doh.resolve_us.p99".into(), stats::percentile(&resolve_us, 99.0)),
                ("doh.resolve_growth".into(), last / first),
                ("doh.advance_s".into(), tr.total_secs("doh.advance")),
                ("doh.cache_hit_ratio".into(), hits / lookups.max(1.0)),
                ("doh.coalesced_queries".into(), o.count("coalesced_queries") as f64),
                ("doh.upstream_queries".into(), o.count("upstream_queries") as f64),
                ("doh.arrival_lag_ms.p50".into(), o.count("arrival_lag_ns.p50") as f64 * 1e-6),
                ("doh.arrival_lag_ms.max".into(), o.count("arrival_lag_ns.max") as f64 * 1e-6),
            ]);
        }
        Shape::Pageload(_) => {
            let load_us: Vec<f64> =
                tr.durations("pageload.load_page").into_iter().map(|s| s * 1e6).collect();
            m.extend([
                ("pageload.load_page_us.p50".into(), stats::median(&load_us)),
                ("pageload.load_page_us.p99".into(), stats::percentile(&load_us, 99.0)),
                (
                    "pageload.dns_queries_per_page".into(),
                    resolutions / o.count("pages").max(1) as f64,
                ),
                ("pageload.unresolved".into(), o.count("unresolved") as f64),
            ]);
            for (label, pages) in workload::cell_labels(w).into_iter().zip(&rep.pages) {
                let ms: Vec<f64> = pages.iter().map(|r| workload::as_ms(r.makespan)).collect();
                m.push((format!("pageload.page_load_ms.p50.{label}"), stats::median(&ms)));
                m.push((
                    format!("pageload.page_load_ms.p95.{label}"),
                    stats::percentile(&ms, 95.0),
                ));
            }
        }
    }
    m
}

/// Peak resident memory of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload`.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace 1`: the traced run.
    pub trace: bool,
}

/// The usage line.
pub const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, each
    /// required once.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(0.0..=3600.0).contains(&s) {
                        return Err(bad("0 to 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}
