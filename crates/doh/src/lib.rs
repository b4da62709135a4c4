//! Simulated DNS transports — Do53, DoT and DoH over HTTP/1.1 and
//! HTTP/2 — with per-resolution cost attribution.
//!
//! This crate drives `dohmark-netsim` with protocol-faithful DNS message
//! exchanges — every byte the [`CostMeter`](dohmark_netsim::CostMeter)
//! records is a byte the corresponding real transport would put on the
//! wire:
//!
//! * [`do53`] — classic DNS over UDP, the paper's §3 baseline. The client
//!   sends each query from a **fresh ephemeral source port** and matches
//!   responses by transaction id.
//! * `dot`, [`doh1`] and `doh2` — DNS over TLS (RFC 7858) and DNS over
//!   HTTPS on HTTP/1.1 and HTTP/2 (RFC 8484). All three carry DNS
//!   messages inside TLS application-data records over simulated TCP,
//!   with handshake bytes taken from the `dohmark-tls-model` flight
//!   model. One client and one server skeleton own the connection
//!   lifecycle for all three; each module holds only its framing: the
//!   RFC 7766 2-byte length prefix, `POST /dns-query` request and
//!   `200 OK` response text from `dohmark-httpsim::h1`, or HTTP/2 frames
//!   with real HPACK header compression — on a persistent connection the
//!   dynamic table shrinks header bytes after the first query, exactly
//!   the effect the paper measures.
//!
//! # The transport API: a registry with addressed wake routing
//!
//! Every client implements [`Resolver`] and every server [`Endpoint`], so
//! experiments iterate over [`TransportConfig`]s instead of naming
//! concrete types. Endpoints live in a [`Driver`] registry: each is
//! registered under an [`EndpointId`], the netsim layer stamps every
//! socket/connection/timer the endpoint creates with that id, and the
//! driver routes each wake **only to its owner** — O(1) dispatch that
//! scales from one echo pair to thousand-client topologies.
//! [`TransportConfig::build_server`] / [`TransportConfig::build_client`]
//! are the factories to register:
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_doh::{Driver, ReusePolicy, TransportConfig, TransportKind};
//! use dohmark_netsim::Sim;
//!
//! let mut sim = Sim::new(42);
//! let cfg = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent);
//! let stub = sim.add_host("stub");
//! let resolver = sim.add_host("resolver");
//! sim.add_link(stub, resolver, cfg.link);
//! let mut driver = Driver::new();
//! let _server = driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
//! let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
//! let name = Name::parse("example.com").unwrap();
//! let response = driver.resolve(&mut sim, client, &name, 1).unwrap();
//! assert_eq!(response.answers.len(), 1);
//! ```
//!
//! # Servers answer from pluggable backends
//!
//! Every transport server answers from a [`ServerBackend`]:
//! [`TransportConfig::build_server`] keeps the paper's fixed-echo
//! behaviour ([`Zone::fixed`]), while
//! [`TransportConfig::build_server_with`] accepts a synthetic
//! authoritative [`Zone`] or a [`RecursiveResolver`] — a TTL-driven
//! positive/negative cache (RFC 2308) shared by all client sessions of
//! that server, fetching misses from a Do53 upstream and exposing
//! hit/miss counters through the cost meter.
//!
//! # Attribution
//!
//! Each resolution is identified by its DNS transaction id, which doubles
//! as the simulator attribution id: clients call
//! [`Sim::set_attr`](dohmark_netsim::Sim::set_attr) before writing query
//! bytes and servers set it from the decoded query id before answering, so
//! the meter splits cost per resolution. Connection setup (TCP handshake +
//! TLS flights + HTTP/2 preface and SETTINGS) is charged to the id current
//! when the connection was opened: the resolution's own id for fresh
//! connections, a caller-chosen connection id for persistent ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod do53;
pub mod doh1;
mod doh2;
mod dot;
mod driver;
pub mod resolver;
mod stream;
mod tls_stream;
mod transport;
pub mod zone;

pub use cache::{CacheStats, DnsCache};
pub use do53::{Do53Client, Do53Server, UdpRetry};
pub use driver::{Driver, EndpointId};
pub use resolver::{RecursiveResolver, ServerBackend};
pub use stream::ReusePolicy;
pub use transport::{TransportConfig, TransportKind};
pub use zone::Zone;

use dohmark_dns_wire::{Message, Name};
use dohmark_netsim::{Sim, Wake};

/// A simulation participant that reacts to application-visible wakes.
///
/// A [`Driver`] hands `on_wake` only the wakes of handles this endpoint
/// owns — its sockets, listeners, connections and timers. Implementations
/// still match each wake against the handles they know and ignore the
/// rest: a handle they have already dropped can still wake.
pub trait Endpoint {
    /// Reacts to one wake.
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake);
}

/// A transport client that can start a resolution, surface its result and
/// tear its connections down — the client API every transport (Do53, DoT,
/// DoH-h1, DoH-h2) implements and the [`Driver`] drives.
pub trait Resolver: Endpoint {
    /// Starts an A-record resolution for `name` with transaction (and
    /// attribution) id `id`.
    fn send_query(&mut self, sim: &mut Sim, name: &Name, id: u16);

    /// Removes and returns the response to transaction `id`, if received.
    fn take_response(&mut self, id: u16) -> Option<Message>;

    /// Initiates a graceful teardown of any open transport state (TCP
    /// FIN, HTTP/2 GOAWAY); the teardown traffic still needs the event
    /// loop, e.g. [`Driver::run_until_quiescent`]. Default: nothing to
    /// tear down.
    fn close(&mut self, sim: &mut Sim) {
        let _ = sim;
    }
}

/// Timer token [`Driver::advance_until`] reserves for its internal timer;
/// application timers must use other values.
pub const ADVANCE_TOKEN: u64 = u64::MAX;
