//! Integration test for the unified transport API: `TransportConfig` must
//! build every matrix cell, and the cells must reproduce the paper's
//! qualitative cost ordering deterministically — the same properties
//! `examples/transport_shootout.rs` demonstrates, kept under `cargo test`
//! and driven through the same shared `dohmark_bench::run_matrix_cell`
//! loop so the example, this test and the figure harnesses measure the
//! same thing.

use dohmark::dns::Name;
use dohmark::doh::{Driver, ReusePolicy, TransportConfig, TransportKind};
use dohmark::netsim::Sim;
use dohmark_bench::{run_matrix_cell, CellRun};

const RESOLUTIONS: u16 = 6;

fn cell(kind: TransportKind, reuse: ReusePolicy) -> CellRun {
    run_matrix_cell(&TransportConfig::new(kind, reuse), 42, RESOLUTIONS)
}

#[test]
fn every_kind_runs_in_both_reuse_modes() {
    let cells = TransportConfig::matrix();
    for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
        for reuse in [ReusePolicy::Fresh, ReusePolicy::Persistent] {
            assert!(
                cells.iter().any(|c| c.kind == kind && c.reuse == reuse),
                "matrix misses {kind:?}/{reuse:?}"
            );
        }
    }
    assert!(cells.iter().any(|c| c.kind == TransportKind::Do53));
    for cfg in &cells {
        // run_matrix_cell panics if any resolution fails to complete.
        let run = run_matrix_cell(cfg, 42, RESOLUTIONS);
        assert!(run.bytes_per_resolution > 0.0, "{} moved no bytes", cfg.label());
    }
}

#[test]
fn cold_doh_h2_is_the_costliest_cell_and_persistence_amortises() {
    let do53 = cell(TransportKind::Do53, ReusePolicy::Fresh).bytes_per_resolution;
    let h2_cold = cell(TransportKind::DohH2, ReusePolicy::Fresh).bytes_per_resolution;
    for (kind, reuse) in [
        (TransportKind::Do53, ReusePolicy::Fresh),
        (TransportKind::Dot, ReusePolicy::Fresh),
        (TransportKind::Dot, ReusePolicy::Persistent),
        (TransportKind::DohH1, ReusePolicy::Fresh),
        (TransportKind::DohH1, ReusePolicy::Persistent),
        (TransportKind::DohH2, ReusePolicy::Persistent),
    ] {
        assert!(
            h2_cold > cell(kind, reuse).bytes_per_resolution,
            "cold doh-h2 must out-cost {kind:?}/{reuse:?}"
        );
    }
    // Persistent connections amortise toward the Do53 baseline: far from
    // the cold cost, within an order of magnitude of UDP.
    for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
        let persistent = cell(kind, ReusePolicy::Persistent).bytes_per_resolution;
        let cold = cell(kind, ReusePolicy::Fresh).bytes_per_resolution;
        assert!(
            persistent * 3.0 < cold && persistent < 10.0 * do53,
            "{kind:?}: persistent {persistent:.0} vs cold {cold:.0} vs do53 {do53:.0}"
        );
    }
}

#[test]
fn persistent_doh_h2_shrinks_header_bytes_via_hpack() {
    let headers = cell(TransportKind::DohH2, ReusePolicy::Persistent).header_bytes_per_query;
    assert!(
        headers.iter().skip(1).all(|&h| 2 * h < headers[0]),
        "dynamic table must at least halve later header blocks: {headers:?}"
    );
    let h1_headers = cell(TransportKind::DohH1, ReusePolicy::Persistent).header_bytes_per_query;
    assert!(
        h1_headers.windows(2).all(|w| w[0] == w[1]),
        "h1 has no header compression: {h1_headers:?}"
    );
    assert!(headers[1] < h1_headers[1], "steady-state h2 headers must undercut h1 text");
}

#[test]
fn the_matrix_is_deterministic_under_a_fixed_seed() {
    for cfg in TransportConfig::matrix() {
        assert_eq!(
            run_matrix_cell(&cfg, 7, RESOLUTIONS),
            run_matrix_cell(&cfg, 7, RESOLUTIONS),
            "{} diverged",
            cfg.label()
        );
    }
}

#[test]
fn a_closing_session_tears_down_while_another_resolves() {
    // Two independent DoH/2 sessions in one Driver: driving a resolution
    // on session A must still route session B's teardown wakes (the
    // GOAWAY/FIN exchange after its client closed) to B's endpoints.
    let a = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent);
    let b = TransportConfig { conn_attr: 200, ..a.clone() };
    let mut sim = Sim::new(5);
    let stub = sim.add_host("stub");
    let resolver_a = sim.add_host("resolver-a");
    let resolver_b = sim.add_host("resolver-b");
    sim.add_link(stub, resolver_a, a.link);
    sim.add_link(stub, resolver_b, b.link);
    let mut driver = Driver::new();
    driver.register(&mut sim, |sim| a.build_server(sim, resolver_a));
    let client_a = driver.register_resolver(&mut sim, |_| a.build_client(stub, resolver_a));
    driver.register(&mut sim, |sim| b.build_server(sim, resolver_b));
    let client_b = driver.register_resolver(&mut sim, |_| b.build_client(stub, resolver_b));
    let name = Name::parse("abcdefgh.dohmark.test").unwrap();

    // Session B resolves, then starts closing — its GOAWAY/FIN exchange
    // is still in flight when session A's resolution is driven.
    driver.resolve(&mut sim, client_b, &name, 100).unwrap();
    sim.trace.enable(10_000);
    driver.close(&mut sim, client_b);
    assert!(driver.resolve(&mut sim, client_a, &name, 1).is_some());

    // B's teardown completed while A's resolve loop was driving: both
    // ends of B's connection sent their FIN.
    let fin = |from: &str, to: &str| {
        sim.trace.records().iter().any(|r| {
            let (src, dst) = r.direction.split_once("->").unwrap();
            src.starts_with(from) && dst.starts_with(to) && r.summary.starts_with("TCP F")
        })
    };
    assert!(fin("stub:", "resolver-b:"), "B's client never sent its FIN");
    assert!(fin("resolver-b:", "stub:"), "B's server never saw the FIN and closed");
    assert!(!fin("stub:", "resolver-a:"), "A's persistent connection stays open");
    driver.run_until_quiescent(&mut sim);
    assert_eq!(driver.unrouted_wakes(), 0);
}
