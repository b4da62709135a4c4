//! The unified transport configuration and factory behind the paper's
//! transport matrix.
//!
//! A [`TransportConfig`] names one cell of the matrix — transport kind ×
//! [`ReusePolicy`] × TLS resumption — plus the topology parameters every
//! cell shares (link characteristics, the answer the resolver serves).
//! [`TransportConfig::build_server`] / [`TransportConfig::build_client`]
//! are [`Driver`](crate::Driver) registration factories, so experiment
//! harnesses iterate over configs instead of naming concrete client/server
//! types:
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_doh::{Driver, TransportConfig};
//! use dohmark_netsim::Sim;
//!
//! for cfg in TransportConfig::matrix() {
//!     let mut sim = Sim::new(1);
//!     let stub = sim.add_host("stub");
//!     let resolver = sim.add_host("resolver");
//!     sim.add_link(stub, resolver, cfg.link);
//!     let mut driver = Driver::new();
//!     driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
//!     let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
//!     let name = Name::parse("example.com").unwrap();
//!     let response = driver.resolve(&mut sim, client, &name, 1);
//!     assert!(response.is_some(), "{} failed", cfg.label());
//! }
//! ```

use crate::doh1::H1;
use crate::doh2::H2;
use crate::dot::Dot;
use crate::resolver::ServerBackend;
use crate::stream::{StreamClient, StreamServer};
use crate::{Do53Client, Do53Server, Endpoint, Resolver, ReusePolicy, UdpRetry};
use dohmark_netsim::{HostId, LinkConfig, Sim};
use dohmark_tls_model::{TlsConfig, TlsVersion, ALPN_DOT, ALPN_H2, ALPN_HTTP11};
use std::net::Ipv4Addr;

/// The four transports of the paper's cost matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Classic DNS over UDP (§3 baseline).
    Do53,
    /// DNS over TLS (RFC 7858).
    Dot,
    /// DNS over HTTPS on HTTP/1.1.
    DohH1,
    /// DNS over HTTPS on HTTP/2.
    DohH2,
}

impl TransportKind {
    /// All kinds, in the paper's cheap-to-expensive presentation order.
    pub const ALL: [TransportKind; 4] =
        [TransportKind::Do53, TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2];

    /// Short lowercase label, e.g. `doh-h2`.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Do53 => "do53",
            TransportKind::Dot => "dot",
            TransportKind::DohH1 => "doh-h1",
            TransportKind::DohH2 => "doh-h2",
        }
    }

    /// The well-known server port (53 / 853 / 443).
    pub fn port(self) -> u16 {
        match self {
            TransportKind::Do53 => 53,
            TransportKind::Dot => 853,
            TransportKind::DohH1 | TransportKind::DohH2 => 443,
        }
    }

    /// The ALPN protocol the client offers, if the transport runs on TLS.
    pub fn alpn(self) -> Option<&'static str> {
        match self {
            TransportKind::Do53 => None,
            TransportKind::Dot => Some(ALPN_DOT),
            TransportKind::DohH1 => Some(ALPN_HTTP11),
            TransportKind::DohH2 => Some(ALPN_H2),
        }
    }

    /// Whether the transport carries TLS (everything but Do53).
    pub fn uses_tls(self) -> bool {
        self != TransportKind::Do53
    }
}

/// One cell of the transport matrix plus shared topology parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Which transport to build.
    pub kind: TransportKind,
    /// Fresh connection per query vs. one persistent connection
    /// (ignored by Do53, where every query is its own datagram exchange).
    pub reuse: ReusePolicy,
    /// TLS protocol version for TLS-based transports.
    pub tls_version: TlsVersion,
    /// Resume a TLS session instead of a full handshake.
    pub resumption: bool,
    /// Server name (SNI and the HTTP `host`/`:authority` value).
    pub sni: String,
    /// Link characteristics between stub and resolver.
    pub link: LinkConfig,
    /// The A record every query is answered with.
    pub answer: Ipv4Addr,
    /// Answer TTL.
    pub ttl: u32,
    /// Attribution id for persistent-connection setup bytes; fresh
    /// connections charge setup to the resolution that opened them.
    pub conn_attr: u32,
    /// Retransmission policy for Do53 (ignored by the TLS transports,
    /// whose TCP layer already retransmits). `None` — the default —
    /// models a stub with no application retry, so a lost datagram loses
    /// the resolution; lossy-link experiments set
    /// [`UdpRetry::standard`].
    pub udp_retry: Option<UdpRetry>,
}

impl TransportConfig {
    /// A matrix cell with the defaults the examples use: TLS 1.3, no
    /// resumption, the [`LinkConfig::clean_broadband`] link
    /// (14 ms/50 Mbit s⁻¹) and `dns.example.net`.
    pub fn new(kind: TransportKind, reuse: ReusePolicy) -> TransportConfig {
        TransportConfig {
            kind,
            reuse,
            tls_version: TlsVersion::Tls13,
            resumption: false,
            sni: "dns.example.net".to_string(),
            link: LinkConfig::clean_broadband(),
            answer: Ipv4Addr::new(192, 0, 2, 1),
            ttl: 300,
            conn_attr: 0,
            udp_retry: None,
        }
    }

    /// Enables TLS session resumption (builder style).
    pub fn resumed(mut self) -> TransportConfig {
        self.resumption = true;
        self
    }

    /// Enables Do53 datagram retransmission (builder style); a no-op for
    /// the TLS transports, which never consult the policy.
    pub fn with_udp_retry(mut self, retry: UdpRetry) -> TransportConfig {
        self.udp_retry = Some(retry);
        self
    }

    /// Human-readable cell label, e.g. `doh-h2 persistent resumed`.
    pub fn label(&self) -> String {
        if self.kind == TransportKind::Do53 {
            return self.kind.label().to_string();
        }
        let resumed = if self.resumption { " resumed" } else { "" };
        format!("{} {}{}", self.kind.label(), self.reuse.label(), resumed)
    }

    /// The TLS configuration this cell implies (`None` for Do53).
    pub fn tls(&self) -> Option<TlsConfig> {
        let alpn = self.kind.alpn()?;
        Some(TlsConfig {
            version: self.tls_version,
            resumption: self.resumption,
            ..TlsConfig::for_server(&self.sni).alpn(alpn)
        })
    }

    fn stream_tls(&self) -> TlsConfig {
        self.tls().expect("stream transports run on tls")
    }

    /// The full matrix the `transport_shootout` example iterates: Do53,
    /// plus every TLS transport in {fresh, persistent} and, for the fresh
    /// cells, the TLS-resumption variant — ten cells.
    pub fn matrix() -> Vec<TransportConfig> {
        let mut cells = vec![TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh)];
        for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
            cells.push(TransportConfig::new(kind, ReusePolicy::Fresh));
            cells.push(TransportConfig::new(kind, ReusePolicy::Fresh).resumed());
            cells.push(TransportConfig::new(kind, ReusePolicy::Persistent));
        }
        cells
    }

    /// Builds this cell's server on `host`, answering with the config's
    /// fixed `answer`/`ttl`. Designed as a
    /// [`Driver::register`](crate::Driver::register) factory, so handles
    /// it binds get the registering endpoint's owner id.
    pub fn build_server(&self, sim: &mut Sim, host: HostId) -> Box<dyn Endpoint> {
        self.build_server_with(sim, host, ServerBackend::fixed(self.answer, self.ttl))
    }

    /// [`TransportConfig::build_server`] with an explicit backend — a
    /// synthetic [`Zone`](crate::Zone) or a shared caching
    /// [`RecursiveResolver`](crate::RecursiveResolver).
    pub fn build_server_with(
        &self,
        sim: &mut Sim,
        host: HostId,
        backend: ServerBackend,
    ) -> Box<dyn Endpoint> {
        let port = self.kind.port();
        match self.kind {
            TransportKind::Do53 => Box::new(Do53Server::bind_with(sim, host, port, backend)),
            TransportKind::Dot => Box::new(StreamServer::<Dot>::bind_with(
                sim,
                host,
                port,
                self.stream_tls(),
                backend,
            )),
            TransportKind::DohH1 => {
                Box::new(StreamServer::<H1>::bind_with(sim, host, port, self.stream_tls(), backend))
            }
            TransportKind::DohH2 => {
                Box::new(StreamServer::<H2>::bind_with(sim, host, port, self.stream_tls(), backend))
            }
        }
    }

    /// Builds this cell's client on `stub`, querying the server on
    /// `resolver` at the transport's well-known port. Clients bind their
    /// handles lazily (at the first query), so this needs no simulator —
    /// but register it through
    /// [`Driver::register_resolver`](crate::Driver::register_resolver) so
    /// those lazy handles get the right owner id.
    pub fn build_client(&self, stub: HostId, resolver: HostId) -> Box<dyn Resolver> {
        let server = (resolver, self.kind.port());
        let (reuse, attr) = (self.reuse, self.conn_attr);
        match self.kind {
            TransportKind::Do53 => match self.udp_retry {
                Some(retry) => Box::new(Do53Client::with_retry(stub, server, retry)),
                None => Box::new(Do53Client::new(stub, server)),
            },
            TransportKind::Dot => {
                Box::new(StreamClient::<Dot>::new(stub, server, self.stream_tls(), reuse, attr))
            }
            TransportKind::DohH1 => {
                Box::new(StreamClient::<H1>::new(stub, server, self.stream_tls(), reuse, attr))
            }
            TransportKind::DohH2 => {
                Box::new(StreamClient::<H2>::new(stub, server, self.stream_tls(), reuse, attr))
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Driver, EndpointId};
    use dohmark_dns_wire::Name;
    use dohmark_tls_model::select_alpn;

    /// `kind`'s matrix cell on a localhost link.
    pub(crate) fn localhost(kind: TransportKind, reuse: ReusePolicy) -> TransportConfig {
        TransportConfig { link: LinkConfig::localhost(), ..TransportConfig::new(kind, reuse) }
    }

    /// `cfg`'s server and client on a stub and a resolver joined by
    /// `cfg.link`, registered in a [`Driver`].
    pub(crate) fn driven(cfg: &TransportConfig, seed: u64) -> (Sim, Driver, EndpointId) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, cfg.link);
        let mut driver = Driver::new();
        driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
        let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
        (sim, driver, client)
    }

    #[test]
    fn matrix_covers_every_kind_and_reuse_mode() {
        let cells = TransportConfig::matrix();
        assert_eq!(cells.len(), 10);
        for kind in TransportKind::ALL {
            assert!(cells.iter().any(|c| c.kind == kind), "{kind:?} missing");
        }
        for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
            for reuse in [ReusePolicy::Fresh, ReusePolicy::Persistent] {
                assert!(
                    cells.iter().any(|c| c.kind == kind && c.reuse == reuse),
                    "{kind:?}/{reuse:?} missing"
                );
            }
        }
        // Labels are unique (they key result tables).
        let mut labels: Vec<String> = cells.iter().map(TransportConfig::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len());
    }

    #[test]
    fn every_matrix_cell_resolves_end_to_end() {
        for cfg in TransportConfig::matrix() {
            let (mut sim, mut driver, client) = driven(&cfg, 5);
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            for id in 1..=2u16 {
                let response = driver.resolve(&mut sim, client, &name, id);
                assert!(response.is_some(), "{} id {id} failed", cfg.label());
            }
            driver.close(&mut sim, client);
            driver.run_until_quiescent(&mut sim);
        }
    }

    #[test]
    fn alpn_offers_match_what_a_doh_server_selects() {
        let h2 = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Fresh);
        let offers = h2.tls().unwrap().alpn;
        assert_eq!(select_alpn(&offers, &[ALPN_H2, ALPN_HTTP11]), Some(ALPN_H2));
        let h1 = TransportConfig::new(TransportKind::DohH1, ReusePolicy::Fresh);
        let offers = h1.tls().unwrap().alpn;
        assert_eq!(select_alpn(&offers, &[ALPN_H2, ALPN_HTTP11]), Some(ALPN_HTTP11));
        assert!(TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh).tls().is_none());
    }

    #[test]
    fn resumption_shrinks_fresh_tls_bytes() {
        let run = |cfg: &TransportConfig| {
            let (mut sim, mut driver, client) = driven(cfg, 9);
            let name = Name::parse("abcdefgh.dohmark.test").unwrap();
            driver.resolve(&mut sim, client, &name, 1).unwrap();
            driver.run_until_quiescent(&mut sim);
            sim.meter.cost(1).layers.tls
        };
        for kind in [TransportKind::Dot, TransportKind::DohH1, TransportKind::DohH2] {
            let full = run(&TransportConfig::new(kind, ReusePolicy::Fresh));
            let resumed = run(&TransportConfig::new(kind, ReusePolicy::Fresh).resumed());
            // Resumption elides the ~2.3 kB certificate chain.
            assert!(resumed + 2000 < full, "{kind:?}: {resumed} vs {full}");
        }
    }
}
