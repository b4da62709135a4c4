//! Tests of the benchmark's own code, on workloads small enough to run
//! in a debug build.

use dohmark::dns::jsontext::{self, JsonValue};
use dohmark::doh::{ReusePolicy, TransportConfig, TransportKind};
use dohmark::netsim::{LinkConfig, SimDuration};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::spans::Tracer;
use perfbench::workload::{check_reference, Shape, Workload, NAMES};
use perfbench::{check_reps, run, Args};

const SEED: u64 = 3;

fn small_fleet() -> Workload {
    Workload::fleet(
        "small-fleet",
        TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh),
        40,
        2,
    )
}

fn small_doh2_fleet() -> Workload {
    Workload::fleet(
        "small-doh2-fleet",
        TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent),
        20,
        4,
    )
}

fn small_pages() -> Workload {
    Workload::pageload("small-pages", 6)
}

/// A legal metric or workload name: 1–64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metric_names(result: &str) -> Vec<String> {
    let parsed = jsontext::parse(result).expect("result line parses");
    let JsonValue::Object(metrics) = parsed.get("metrics").expect("metrics key") else {
        panic!("metrics is not an object");
    };
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn metric_names_are_legal_and_unique() {
    let names: Vec<&str> =
        END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0)).chain(NAMES).collect();
    for name in &names {
        assert!(valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    assert!(!valid_name(".dot") && !valid_name("a b") && !valid_name(""));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    let doc = jsontext::parse(&text).expect("BENCHMARK.json parses");
    let field = |v: &JsonValue, key: &str| -> String {
        match v.get(key) {
            Some(JsonValue::String(s)) => s.clone(),
            Some(JsonValue::Number(n)) => n.to_string(),
            other => panic!("{key}: {other:?}"),
        }
    };
    let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect("array").to_vec();

    let e2e: Vec<(String, String, String, String)> = list("end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better"), field(m, "bound")))
        .collect();
    let want: Vec<(String, String, String, String)> = END_TO_END
        .iter()
        .map(|&(n, u, b, bound)| (n.into(), u.into(), b.into(), bound.to_string()))
        .collect();
    assert_eq!(e2e, want);

    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> =
        PER_LAYER.iter().map(|&(n, u, b)| (n.into(), u.into(), b.into())).collect();
    assert_eq!(layers, want);

    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, NAMES);
}

#[test]
fn untraced_run_reports_every_end_to_end_metric_as_parseable_json() {
    for w in [small_fleet(), small_pages()] {
        let outcome = run(&w, SEED, 0.0, false);
        assert!(outcome.correct, "{}: {:?}", w.name, outcome.problems);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        let result = outcome.result_json();
        let names = metric_names(&result);
        assert_eq!(names, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
        let parsed = jsontext::parse(&result).expect("parses");
        assert_eq!(parsed.get("correct").and_then(JsonValue::as_bool), Some(true));
        let ops = parsed.get("metrics").and_then(|m| m.get("ops_per_s")).expect("ops_per_s");
        assert_eq!(ops.get("unit").and_then(JsonValue::as_str), Some("1/s"));
        jsontext::parse(&outcome.outputs).expect("the outputs line parses");
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    for w in [small_fleet(), small_doh2_fleet()] {
        let outcome = run(&w, SEED, 0.0, true);
        assert!(outcome.correct, "{}: {:?}", w.name, outcome.problems);
        let names = metric_names(&outcome.result_json());
        assert_eq!(names, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
        let spans = outcome.spans.expect("a traced run keeps its spans");
        assert!(spans.lines().count() > 10);
        for line in spans.lines() {
            jsontext::parse(line).expect("every span line parses");
        }
    }
}

#[test]
fn digest_is_stable_across_runs_and_equal_traced_or_not() {
    for w in [small_fleet(), small_pages()] {
        let a = w.rep(SEED, &mut Tracer::off());
        let b = w.rep(SEED, &mut Tracer::off());
        let traced = w.rep(SEED, &mut Tracer::on());
        assert_eq!(a.out, b.out, "{}", w.name);
        assert_eq!(a.out.digest(), traced.out.digest(), "{}", w.name);
        assert!(check_reps(&w, SEED, &[a.clone(), b, traced]).is_empty());
        assert_ne!(a.out.digest(), w.rep(SEED + 1, &mut Tracer::off()).out.digest());
        assert_eq!(
            run(&w, SEED, 0.0, false).outputs,
            run(&w, SEED, 0.0, false).outputs,
            "{}: two runs of one seed print the same outputs",
            w.name
        );
    }
}

#[test]
fn a_broken_count_fails_the_checks() {
    let w = small_fleet();
    let good = w.rep(SEED, &mut Tracer::off());
    assert_eq!(check_reference(&w, SEED, &good), Ok(()));
    let mut bad = good.clone();
    bad.out.add("cache_hits", 1);
    assert!(check_reference(&w, SEED, &bad).unwrap_err().contains("cache_hits"));
    assert_eq!(check_reps(&w, SEED, &[good.clone(), bad]).len(), 1, "digest mismatch");

    let w = small_pages();
    let good = w.rep(SEED, &mut Tracer::off());
    assert_eq!(check_reference(&w, SEED, &good), Ok(()));
    let mut bad = good;
    bad.pages[1][0].makespan = bad.pages[1][0].makespan + SimDuration::from_nanos(1);
    assert!(check_reference(&w, SEED, &bad).unwrap_err().contains("makespans"));
}

#[test]
fn failures_are_counted_not_panicked_on() {
    // Do53 without retransmission over a link that drops a third of all
    // datagrams: lost queries never resolve.
    let mut w = small_fleet();
    let Shape::Fleet(cfg) = &mut w.shape else { unreachable!() };
    cfg.transport.link = LinkConfig::localhost().loss(0.3);
    let outcome = run(&w, SEED, 0.0, false);
    assert!(outcome.failed > 0);
    assert!(outcome.failed < outcome.attempted);
    assert!(!outcome.correct);
    assert!(outcome.problems.iter().any(|p| p.contains("operations failed")));
    let parsed = jsontext::parse(&outcome.result_json()).expect("parses");
    assert_eq!(parsed.get("failed").and_then(JsonValue::as_u64), Some(outcome.failed));
}

#[test]
fn args_need_every_flag_once_with_a_valid_value() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    assert_eq!(
        parse("--workload fleet-do53-32k --seed 7 --seconds 10 --trace 1"),
        Ok(Args { workload: "fleet-do53-32k".into(), seed: 7, seconds: 10.0, trace: true })
    );
    assert!(parse("--workload w --seed 7 --seconds 10").is_err());
    assert!(parse("--workload w --seed x --seconds 10 --trace 0").is_err());
    assert!(parse("--workload w --seed 1 --seconds 10 --trace 2").is_err());
    assert!(parse("--workload w --seed 1 --seconds -1 --trace 0").is_err());
    assert!(parse("--workload w --seed 1 --seconds 1 --trace 0 --extra 1").is_err());
    assert!(Workload::named("no-such-workload").is_none());
    for name in NAMES {
        assert_eq!(Workload::named(name).map(|w| w.name), Some(name));
    }
}
