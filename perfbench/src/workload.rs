//! The benchmark's workloads and the code that runs one pass of each.
//!
//! A pass makes the same public calls, in the same order, as the library
//! runner the figure binaries use (`dohmark_bench::run_fleet_cell` and
//! `run_pageload_cell`), split so that set-up, the query loop and teardown
//! can be timed apart. [`check_reference`] proves the split pass computes
//! what the library runner computes.

use crate::clock;
use crate::outputs::{Fnv, Outputs};
use crate::spans::Tracer;
use dohmark::dns::Name;
use dohmark::doh::{
    Driver, EndpointId, RecursiveResolver, ReusePolicy, ServerBackend, TransportConfig,
    TransportKind, Zone,
};
use dohmark::netsim::{LayerTag, LinkConfig, Sim, SimDuration};
use dohmark::pageload::{load_page, FetchModel, PageLoadResult};
use dohmark::workload::{FleetSchedule, SiteModel};
use dohmark_bench::{
    pageload_transports, run_fleet_cell, run_pageload_cell, stats, FleetConfig, PageloadConfig,
    SITE_STREAM, WORKLOAD_STREAM,
};

/// Zipf universe both fleet workloads draw names from: large enough that
/// about a seventh of the queries miss the resolver cache and go upstream.
const FLEET_UNIVERSE: usize = 4_000;

/// Pages per transport of the page-load pass whose traced run supplies the
/// `pageload.*` per-layer metrics.
const PROBE_PAGES: usize = 25;

/// The workloads, by name.
pub const NAMES: [&str; 2] = ["fleet-do53-32k", "fleet-doh2-8k"];

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Shape {
    /// One stub fleet sharing a caching recursive resolver.
    Fleet(FleetConfig),
    /// One page-load cell per transport, each its own simulation.
    Pageload(Vec<PageloadConfig>),
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    /// Its configuration.
    pub shape: Shape,
}

/// One pass over a workload: host times, work done and its outputs.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds from `Sim::new` to the first query, summed over the
    /// pass's simulations.
    pub setup_s: f64,
    /// Host seconds from the first query through teardown, summed.
    pub run_s: f64,
    /// Resolutions (fleets) or pages (page loads) completed.
    pub ops: u64,
    /// Resolutions or page resources attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Deterministic counters and simulated outputs.
    pub out: Outputs,
    /// Page results per cell (page loads only).
    pub pages: Vec<Vec<PageLoadResult>>,
}

impl Workload {
    /// The named full-size workload.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "fleet-do53-32k" => Some(Workload::fleet(
                "fleet-do53-32k",
                TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh),
                32_000,
                2,
            )),
            "fleet-doh2-8k" => Some(Workload::fleet(
                "fleet-doh2-8k",
                TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent),
                8_000,
                8,
            )),
            _ => None,
        }
    }

    /// A fleet of `clients` stubs issuing `queries_per_client` queries
    /// each over the shared universe, `FleetConfig::new` defaults
    /// otherwise.
    pub fn fleet(
        name: &'static str,
        transport: TransportConfig,
        clients: usize,
        queries_per_client: usize,
    ) -> Workload {
        let mut cfg = FleetConfig::new(transport, clients, FLEET_UNIVERSE);
        cfg.queries_per_client = queries_per_client;
        cfg.check_txn_space().expect("fleet workloads fit the u16 txn space");
        Workload { name, shape: Shape::Fleet(cfg) }
    }

    /// Every page-load transport cell loading `pages` pages from the
    /// 1,000-site model over the lossy-WiFi link.
    pub fn pageload(name: &'static str, pages: usize) -> Workload {
        let cells = pageload_transports()
            .into_iter()
            .map(|transport| {
                let mut cfg = PageloadConfig::new(transport, "lossy_wifi");
                cfg.transport.link = LinkConfig::lossy_wifi();
                cfg.pages = pages;
                cfg.check_txn_space().expect("page counts fit the u16 txn space");
                cfg
            })
            .collect();
        Workload { name, shape: Shape::Pageload(cells) }
    }

    /// The small page-load pass whose traced run supplies the per-layer
    /// metrics of `load_page` and `next_page`, which a fleet never calls.
    pub fn page_probe() -> Workload {
        Workload::pageload("page-probe", PROBE_PAGES)
    }

    /// Runs one full pass on `seed`, recording spans into `tr`.
    pub fn rep(&self, seed: u64, tr: &mut Tracer) -> Rep {
        match &self.shape {
            Shape::Fleet(cfg) => fleet_rep(cfg, seed, tr),
            Shape::Pageload(cells) => pageload_rep(cells, seed, tr),
        }
    }

    /// Host seconds one pass spends in set-up, measured without running
    /// any query.
    pub fn setup_secs(&self, seed: u64) -> f64 {
        let mut tr = Tracer::off();
        match &self.shape {
            Shape::Fleet(cfg) => {
                let start = clock::now();
                let fleet = fleet_setup(cfg, seed, &mut tr);
                let secs = clock::secs_since(start);
                drop(fleet);
                secs
            }
            Shape::Pageload(cells) => cells
                .iter()
                .map(|cfg| {
                    let start = clock::now();
                    let cell = page_setup(cfg, seed, &mut tr);
                    let secs = clock::secs_since(start);
                    drop(cell);
                    secs
                })
                .sum(),
        }
    }

    /// Names the workload queries on `seed`, in query order, for the
    /// layer probes: the fleet schedule's names, or every domain of the
    /// first cell's pages.
    pub fn names(&self, seed: u64, limit: usize) -> Vec<Name> {
        match &self.shape {
            Shape::Fleet(cfg) => fleet_setup(cfg, seed, &mut Tracer::off())
                .schedule
                .queries
                .into_iter()
                .take(limit)
                .map(|(_, _, name)| name)
                .collect(),
            Shape::Pageload(cells) => {
                let mut cell = page_setup(&cells[0], seed, &mut Tracer::off());
                let mut names = Vec::with_capacity(limit);
                while names.len() < limit {
                    names.extend(cell.model.next_page().domains);
                }
                names.truncate(limit);
                names
            }
        }
    }
}

/// A fleet topology ready for its first query.
struct Fleet {
    sim: Sim,
    driver: Driver,
    clients: Vec<EndpointId>,
    schedule: FleetSchedule,
}

/// `run_fleet_cell`'s set-up, call for call.
fn fleet_setup(cfg: &FleetConfig, seed: u64, tr: &mut Tracer) -> Fleet {
    tr.enter("setup.topology", 0);
    let mut sim = Sim::new(seed);
    let resolver = sim.add_host("resolver");
    let upstream = sim.add_host("upstream");
    sim.add_link(resolver, upstream, cfg.transport.link);
    tr.exit();

    tr.enter("setup.register", 0);
    let zone = Name::parse("dohmark.test").expect("static zone name parses");
    let mut driver = Driver::new();
    let upstream_cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
    driver.register(&mut sim, |sim| {
        let backend =
            ServerBackend::Authoritative(Zone::synth(zone.clone(), cfg.transport.ttl, 60));
        upstream_cfg.build_server_with(sim, upstream, backend)
    });
    driver.register(&mut sim, |sim| {
        let recursive = RecursiveResolver::new(sim, resolver, (upstream, 53), cfg.cache_capacity);
        cfg.transport.build_server_with(sim, resolver, ServerBackend::Recursive(recursive))
    });
    tr.exit();

    let mut clients = Vec::with_capacity(cfg.clients);
    for i in 0..cfg.clients {
        tr.enter("setup.topology", 0);
        let stub = sim.add_host(&format!("stub{i}"));
        sim.add_link(stub, resolver, cfg.transport.link);
        tr.exit();
        tr.enter("setup.register", 0);
        clients.push(
            driver.register_resolver(&mut sim, |_| cfg.transport.build_client(stub, resolver)),
        );
        tr.exit();
    }

    tr.enter("workload.schedule", 0);
    let mut rng = sim.split_rng(WORKLOAD_STREAM);
    let schedule = FleetSchedule::generate(
        &mut rng,
        cfg.clients,
        cfg.mean_gap,
        cfg.queries_per_client,
        &zone,
        cfg.universe,
        cfg.exponent,
    );
    tr.exit();
    Fleet { sim, driver, clients, schedule }
}

fn fleet_rep(cfg: &FleetConfig, seed: u64, tr: &mut Tracer) -> Rep {
    let start = clock::now();
    tr.enter("setup", 0);
    let Fleet { mut sim, mut driver, clients, schedule } = fleet_setup(cfg, seed, tr);
    tr.exit();
    let setup_s = clock::secs_since(start);

    let start = clock::now();
    let mut fold = Fnv::new();
    let mut failed = 0u64;
    let mut lags_ns = Vec::with_capacity(schedule.len());
    for (i, (at, client, name)) in schedule.queries.iter().enumerate() {
        // Fleet sizes are validated against the u16 space at construction.
        let txn = i as u16 + 1;
        tr.enter("doh.advance", u32::from(txn));
        driver.advance_until(&mut sim, *at);
        tr.exit();
        lags_ns.push(sim.now().duration_since(*at).as_nanos());
        tr.enter("doh.resolve", u32::from(txn));
        let response = driver.resolve(&mut sim, clients[*client], name, txn);
        tr.exit();
        match response {
            Some(r) if r.header.id == txn => {
                fold.u64(u64::from(txn));
                fold.u64(u64::from(r.header.rcode.to_u8()));
                fold.u64(r.answers.len() as u64);
            }
            _ => failed += 1,
        }
    }
    tr.enter("doh.teardown", 0);
    for &client in &clients {
        driver.close(&mut sim, client);
    }
    driver.run_until_quiescent(&mut sim);
    tr.exit();
    let run_s = clock::secs_since(start);

    let n = schedule.len() as u64;
    let meter = &sim.meter;
    let mut out = Outputs::default();
    out.add("resolutions", n);
    out.add("failed", failed);
    out.add("distinct_names", schedule.distinct_names() as u64);
    out.add("cache_hits", meter.counter("cache_hit") + meter.counter("cache_negative_hit"));
    out.add("cache_misses", meter.counter("cache_miss"));
    out.add("coalesced_queries", meter.counter("coalesced_queries"));
    out.add("upstream_queries", meter.counter("upstream_queries"));
    add_sim_counters(&mut out, &sim, &driver);
    lags_ns.sort_unstable();
    out.add("arrival_lag_ns.p50", lags_ns.get(lags_ns.len() / 2).copied().unwrap_or(0));
    out.add("arrival_lag_ns.max", lags_ns.last().copied().unwrap_or(0));
    out.fold = fold.finish();
    Rep { setup_s, run_s, ops: n - failed, attempted: n, failed, out, pages: Vec::new() }
}

/// Counters every pass reads off its simulation once it is quiescent.
fn add_sim_counters(out: &mut Outputs, sim: &Sim, driver: &Driver) {
    let total = sim.meter.total();
    out.add("unrouted_wakes", driver.unrouted_wakes());
    out.add("packets", total.packets);
    out.add("bytes", total.bytes);
    out.add("dropped", sim.dropped_packets());
    out.add("sim_end_ns", sim.now().as_nanos());
    for tag in LayerTag::ALL {
        out.add(layer_key(tag), total.layers.get(tag));
    }
}

/// The counter name of one layer's byte total.
pub fn layer_key(tag: LayerTag) -> &'static str {
    match tag {
        LayerTag::HttpBody => "layer_bytes.body",
        LayerTag::HttpHeader => "layer_bytes.hdr",
        LayerTag::HttpMgmt => "layer_bytes.mgmt",
        LayerTag::Tls => "layer_bytes.tls",
        LayerTag::L4Header => "layer_bytes.tcp",
        LayerTag::DnsPayload => "layer_bytes.dns",
    }
}

/// One page-load cell ready for its first page.
struct PageCell {
    sim: Sim,
    driver: Driver,
    client: EndpointId,
    model: SiteModel,
    fetch: FetchModel,
}

/// `run_pageload_cell`'s set-up, call for call.
fn page_setup(cfg: &PageloadConfig, seed: u64, tr: &mut Tracer) -> PageCell {
    tr.enter("setup.topology", 0);
    let mut sim = Sim::new(seed);
    let stub = sim.add_host("stub");
    let resolver = sim.add_host("resolver");
    sim.add_link(stub, resolver, cfg.transport.link);
    tr.exit();
    tr.enter("setup.register", 0);
    let mut driver = Driver::new();
    driver.register(&mut sim, |sim| cfg.transport.build_server(sim, resolver));
    let client = driver.register_resolver(&mut sim, |_| cfg.transport.build_client(stub, resolver));
    tr.exit();
    tr.enter("workload.schedule", 0);
    let zone = Name::parse("sites.dohmark.test").expect("static zone name parses");
    let mut site_rng = sim.split_rng(SITE_STREAM);
    let model = SiteModel::new(&mut site_rng, &zone, cfg.sites, cfg.exponent);
    let fetch = FetchModel::from_link(&cfg.transport.link);
    tr.exit();
    PageCell { sim, driver, client, model, fetch }
}

fn pageload_rep(cells: &[PageloadConfig], seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        setup_s: 0.0,
        run_s: 0.0,
        ops: 0,
        attempted: 0,
        failed: 0,
        out: Outputs::default(),
        pages: Vec::with_capacity(cells.len()),
    };
    let mut fold = Fnv::new();
    for cfg in cells {
        let start = clock::now();
        tr.enter("setup", 0);
        let PageCell { mut sim, mut driver, client, mut model, fetch } = page_setup(cfg, seed, tr);
        tr.exit();
        rep.setup_s += clock::secs_since(start);

        let start = clock::now();
        let mut txn_base = 1u16;
        let mut results = Vec::with_capacity(cfg.pages);
        for _ in 0..cfg.pages {
            tr.enter("workload.next_page", 0);
            let page = model.next_page();
            tr.exit();
            tr.enter("pageload.load_page", u32::from(txn_base));
            let result = load_page(&mut sim, &mut driver, client, &page, &fetch, txn_base);
            tr.exit();
            // Validated at construction: pages × MAX_DOMAINS ids fit u16.
            txn_base += page.domains.len() as u16;
            results.push(result);
        }
        tr.enter("doh.teardown", 0);
        driver.close(&mut sim, client);
        driver.run_until_quiescent(&mut sim);
        tr.exit();
        rep.run_s += clock::secs_since(start);

        for r in &results {
            fold.u64(r.makespan.as_nanos());
            fold.u64(r.dns_wait_total.as_nanos());
            fold.u64(u64::from(r.dns_queries));
            fold.u64(u64::from(r.unresolved));
        }
        let resources: u64 = results.iter().map(|r| u64::from(r.resources)).sum();
        let unresolved: u64 = results.iter().map(|r| u64::from(r.unresolved)).sum();
        rep.ops += results.len() as u64;
        rep.attempted += resources;
        rep.failed += unresolved;
        rep.out.add("pages", results.len() as u64);
        rep.out.add("resources", resources);
        rep.out.add("unresolved", unresolved);
        rep.out.add("resolutions", results.iter().map(|r| u64::from(r.dns_queries)).sum());
        add_sim_counters(&mut rep.out, &sim, &driver);
        rep.pages.push(results);
    }
    rep.out.fold = fold.finish();
    rep
}

/// Milliseconds, computed as `dohmark_bench` computes page-load times.
pub fn as_ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// The transport label of each entry of [`Rep::pages`].
pub fn cell_labels(w: &Workload) -> Vec<&'static str> {
    match &w.shape {
        Shape::Fleet(_) => Vec::new(),
        Shape::Pageload(cells) => cells.iter().map(|c| c.transport.kind.label()).collect(),
    }
}

/// Checks `rep` (a pass on `seed`) against the library runner the figure
/// binaries use, on the same configuration and seed.
pub fn check_reference(w: &Workload, seed: u64, rep: &Rep) -> Result<(), String> {
    if rep.failed > 0 {
        // The library runners panic on a failed resolution; a failure is
        // already a disagreement with them.
        return Err(format!("{} of {} operations failed", rep.failed, rep.attempted));
    }
    match &w.shape {
        Shape::Fleet(cfg) => {
            let lib = run_fleet_cell(cfg, seed).map_err(|e| e.to_string())?;
            let pairs = [
                ("cache_hits", lib.cache_hits),
                ("cache_misses", lib.cache_misses),
                ("upstream_queries", lib.upstream_queries),
                ("bytes", lib.total_bytes),
                ("distinct_names", lib.distinct_names as u64),
                ("resolutions", lib.queries as u64),
            ];
            for (key, want) in pairs {
                let got = rep.out.get(key);
                if got != Some(want) {
                    return Err(format!("{key}: run_fleet_cell gives {want}, the pass {got:?}"));
                }
            }
        }
        Shape::Pageload(cells) => {
            for (cfg, pages) in cells.iter().zip(&rep.pages) {
                let lib = run_pageload_cell(cfg, seed).map_err(|e| e.to_string())?;
                let ours: Vec<f64> = pages.iter().map(|r| as_ms(r.makespan)).collect();
                if lib.page_load_ms != ours {
                    return Err(format!(
                        "{}: page makespans differ from run_pageload_cell",
                        cfg.transport.label()
                    ));
                }
                let unresolved: u64 = pages.iter().map(|r| u64::from(r.unresolved)).sum();
                let queries: Vec<f64> = pages.iter().map(|r| f64::from(r.dns_queries)).collect();
                if lib.unresolved != unresolved || lib.mean_dns_queries != stats::mean(&queries) {
                    return Err(format!(
                        "{}: unresolved or DNS query counts differ from run_pageload_cell",
                        cfg.transport.label()
                    ));
                }
            }
        }
    }
    Ok(())
}
