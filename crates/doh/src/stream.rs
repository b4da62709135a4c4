//! The stream-transport skeleton DoT, DoH/1.1 and DoH/2 share.
//!
//! All three carry DNS messages inside TLS records over one simulated TCP
//! connection (the shared [`TlsStream`]); they differ only in how a message
//! is framed inside the TLS plaintext. [`StreamClient`] and
//! [`StreamServer`] own everything else — the [`ReusePolicy`] connect,
//! flush and reconnect lifecycle, the pending-query queue, answers keyed by
//! transaction id, and the server's connection map and waiter table — and
//! take the protocol difference as a [`Framing`] type parameter.

use crate::resolver::ServerBackend;
use crate::tls_stream::TlsStream;
use crate::{Endpoint, Resolver};
use dohmark_dns_wire::{Message, Name, RecordType};
use dohmark_netsim::{HostId, ListenerId, Side, Sim, TcpHandle, Wake};
use dohmark_tls_model::TlsConfig;
use std::collections::HashMap;
use std::fmt::Debug;

/// Connection-reuse policy of a TLS-based client (DoT or DoH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReusePolicy {
    /// Open a fresh connection per query and close it after the response —
    /// every resolution pays the whole TCP + TLS handshake (the paper's
    /// cold-connection case).
    Fresh,
    /// Keep one connection open and pipeline all queries over it — the
    /// handshake is paid once and amortised (the paper's persistent case).
    Persistent,
}

impl ReusePolicy {
    /// Short lowercase label (`fresh` / `persistent`) used in cell labels
    /// and result-table keys.
    pub fn label(self) -> &'static str {
        match self {
            ReusePolicy::Fresh => "fresh",
            ReusePolicy::Persistent => "persistent",
        }
    }
}

/// One protocol's framing of DNS messages inside the TLS plaintext, as the
/// per-connection state of either end. Client hooks run on a
/// [`StreamClient`] connection, server hooks on a [`StreamServer`] one.
pub(crate) trait Framing: Default + Debug {
    /// Where a server's answer goes: nothing for DoT, the stream id for
    /// h2, the request's pipeline position for h1.
    type Slot: Copy + Debug;

    /// Client: runs before queries are written on an established
    /// connection (the h2 preface and SETTINGS).
    fn open(&mut self, _tls: &mut TlsStream, _sim: &mut Sim) {}

    /// Client: frames and sends `query`, charged to its transaction id;
    /// `authority` is the server name HTTP carries.
    fn send_query(&mut self, tls: &mut TlsStream, sim: &mut Sim, query: &Message, authority: &str);

    /// Client: turns received plaintext into answers. Returns how many
    /// framed responses completed, including ones that carry no DNS
    /// answer, so the in-flight count drains either way.
    fn read_responses(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        plaintext: &[u8],
        answers: &mut Answers,
    ) -> usize;

    /// Client: what is sent before the FIN (the h2 GOAWAY).
    fn close(&mut self, _tls: &mut TlsStream, _sim: &mut Sim) {}

    /// Server: turns received plaintext into queries, each with the slot
    /// its answer goes to.
    fn read_queries(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        plaintext: &[u8],
    ) -> Vec<(Self::Slot, Message)>;

    /// Server: sends the answer for `slot`, or holds it until
    /// [`Framing::flush_responses`] when the protocol fixes the order.
    fn send_response(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        slot: Self::Slot,
        response: Message,
    );

    /// Server: sends held answers whose turn has come; runs after every
    /// batch of [`Framing::send_response`] calls.
    fn flush_responses(&mut self, _tls: &mut TlsStream, _sim: &mut Sim) {}
}

/// Answers received but not yet taken, keyed by transaction id. Keyed
/// lookup only — never iterated, so the randomized order is unobservable
/// (no-unordered-iteration).
#[derive(Debug, Default)]
pub(crate) struct Answers(HashMap<u16, Message>);

impl Answers {
    /// Stores `answer`; a second answer to the same id is dropped.
    pub(crate) fn put(&mut self, answer: Message) {
        self.0.entry(answer.header.id).or_insert(answer);
    }

    fn take(&mut self, id: u16) -> Option<Message> {
        self.0.remove(&id)
    }
}

/// One end of a connection: the TLS stream and the framing state.
#[derive(Debug)]
struct Conn<F> {
    tls: TlsStream,
    framing: F,
}

impl<F: Framing> Conn<F> {
    fn new(handle: TcpHandle, tls_cfg: &TlsConfig, setup_attr: u32) -> Conn<F> {
        Conn { tls: TlsStream::new(handle, tls_cfg, setup_attr), framing: F::default() }
    }
}

/// A stream-transport client resolving names against one server.
#[derive(Debug)]
pub(crate) struct StreamClient<F> {
    host: HostId,
    server: (HostId, u16),
    tls_cfg: TlsConfig,
    policy: ReusePolicy,
    /// Attribution for connection setup under [`ReusePolicy::Persistent`];
    /// fresh connections charge setup to the resolution that opened them.
    conn_attr: u32,
    conn: Option<Conn<F>>,
    /// Queries accepted before the connection established.
    queued: Vec<(u16, Name)>,
    /// Queries sent (or queued) whose framed response has not arrived; a
    /// fresh connection closes only once this drains, so pipelining
    /// several queries onto one cold connection loses none of them.
    inflight: usize,
    answers: Answers,
}

impl<F: Framing> StreamClient<F> {
    /// A client on `host` for `server`. HTTP framings send the TLS SNI as
    /// the authority.
    pub(crate) fn new(
        host: HostId,
        server: (HostId, u16),
        tls_cfg: TlsConfig,
        policy: ReusePolicy,
        conn_attr: u32,
    ) -> StreamClient<F> {
        StreamClient {
            host,
            server,
            tls_cfg,
            policy,
            conn_attr,
            conn: None,
            queued: Vec::new(),
            inflight: 0,
            answers: Answers::default(),
        }
    }

    fn flush(&mut self, sim: &mut Sim) {
        let Some(conn) = self.conn.as_mut() else { return };
        if !conn.tls.established() {
            return;
        }
        conn.framing.open(&mut conn.tls, sim);
        for (id, name) in self.queued.drain(..) {
            let query = Message::query(id, &name, RecordType::A);
            conn.framing.send_query(&mut conn.tls, sim, &query, &self.tls_cfg.sni);
        }
    }
}

impl<F: Framing> Resolver for StreamClient<F> {
    /// Queues an A query for `name` with transaction id `id`, opening a
    /// connection if none is usable. The query is transmitted as soon as
    /// the TLS handshake completes (immediately, when already established).
    fn send_query(&mut self, sim: &mut Sim, name: &Name, id: u16) {
        let dead = self.conn.as_ref().is_some_and(|c| sim.tcp_has_failed(c.tls.handle));
        if self.conn.is_none() || dead {
            let attr = match self.policy {
                ReusePolicy::Fresh => u32::from(id),
                ReusePolicy::Persistent => self.conn_attr,
            };
            sim.set_attr(attr);
            let handle = sim.tcp_connect(self.host, self.server);
            self.conn = Some(Conn::new(handle, &self.tls_cfg, attr));
            // Queries in flight on a dead connection are lost for good
            // (no application retries are modelled).
            self.inflight = 0;
        }
        self.queued.push((id, name.clone()));
        self.inflight += 1;
        self.flush(sim);
    }

    fn take_response(&mut self, id: u16) -> Option<Message> {
        self.answers.take(id)
    }

    /// Graceful teardown: the framing's goodbye, then the TCP FIN. Queries
    /// still queued for the connection are abandoned.
    fn close(&mut self, sim: &mut Sim) {
        self.queued.clear();
        self.inflight = 0;
        let Some(mut conn) = self.conn.take() else { return };
        conn.framing.close(&mut conn.tls, sim);
        sim.tcp_close(conn.tls.handle);
    }
}

impl<F: Framing> Endpoint for StreamClient<F> {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        let Some(conn) = self.conn.as_mut() else { return };
        match *wake {
            Wake::TcpConnected { conn: handle, .. } if handle == conn.tls.handle => {
                // TCP is up: kick off the TLS handshake (ClientHello).
                conn.tls.advance(sim, &[]);
                self.flush(sim);
            }
            Wake::TcpReadable { conn: handle, .. } if handle == conn.tls.handle => {
                let data = sim.tcp_recv(handle);
                let was_established = conn.tls.established();
                let plaintext = conn.tls.advance(sim, &data);
                let completed =
                    conn.framing.read_responses(&mut conn.tls, sim, &plaintext, &mut self.answers);
                self.inflight = self.inflight.saturating_sub(completed);
                if !was_established && conn.tls.established() {
                    self.flush(sim);
                }
                if completed > 0 && self.inflight == 0 && self.policy == ReusePolicy::Fresh {
                    // Cold connections are one-shot: close once every
                    // outstanding answer has arrived.
                    self.close(sim);
                }
            }
            Wake::TcpFin { conn: handle, .. } if handle == conn.tls.handle => {
                // Server closed on us; drop the connection state so the
                // next query reconnects.
                sim.tcp_close(handle);
                self.conn = None;
            }
            _ => {}
        }
    }
}

/// A stream-transport server answering from a pluggable [`ServerBackend`]
/// — authoritative zone data or a shared caching recursive resolver.
#[derive(Debug)]
pub(crate) struct StreamServer<F: Framing> {
    listener: ListenerId,
    tls_cfg: TlsConfig,
    backend: ServerBackend,
    /// Keyed lookup only (the wake's own handle) — never iterated, so
    /// the randomized order is unobservable (no-unordered-iteration).
    conns: HashMap<TcpHandle, Conn<F>>,
    /// Parked queries: waiter token → the connection and slot expecting
    /// the answer. Keyed lookup only: drained in the backend's
    /// completion order.
    waiters: HashMap<u64, (TcpHandle, F::Slot)>,
    next_waiter: u64,
}

impl<F: Framing> StreamServer<F> {
    /// Listens on `(host, port)` answering from `backend`. The TLS config
    /// must match the clients' (both ends of the byte model derive flight
    /// sizes from it).
    pub(crate) fn bind_with(
        sim: &mut Sim,
        host: HostId,
        port: u16,
        tls_cfg: TlsConfig,
        backend: ServerBackend,
    ) -> StreamServer<F> {
        let listener = sim.tcp_listen(host, port);
        StreamServer {
            listener,
            tls_cfg,
            backend,
            conns: HashMap::new(),
            waiters: HashMap::new(),
            next_waiter: 1,
        }
    }
}

impl<F: Framing> Endpoint for StreamServer<F> {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        // Upstream completions first: answers for queries parked by a
        // recursive backend go out on the connection they arrived on
        // (dropped if that connection is gone — like a real resolver
        // whose client hung up mid-recursion).
        let completed = self.backend.poll(sim, wake);
        if !completed.is_empty() {
            let mut touched: Vec<TcpHandle> = Vec::new();
            for (waiter, response) in completed {
                let Some((handle, slot)) = self.waiters.remove(&waiter) else { continue };
                let Some(conn) = self.conns.get_mut(&handle) else { continue };
                conn.framing.send_response(&mut conn.tls, sim, slot, response);
                if !touched.contains(&handle) {
                    touched.push(handle);
                }
            }
            // Held answers go out once the whole batch is in, connection
            // by connection in first-touch order.
            for handle in touched {
                let conn = self.conns.get_mut(&handle).expect("touched conns are live");
                conn.framing.flush_responses(&mut conn.tls, sim);
            }
        }
        match *wake {
            Wake::TcpAccepted { listener, conn: handle, .. } if listener == self.listener => {
                // Setup bytes we send are charged to whatever attribution
                // the connecting client's setup used (current attr).
                let attr = sim.attr();
                self.conns.insert(handle, Conn::new(handle, &self.tls_cfg, attr));
            }
            Wake::TcpReadable { conn: handle, .. } if handle.side == Side::Server => {
                let Some(conn) = self.conns.get_mut(&handle) else { return };
                let data = sim.tcp_recv(handle);
                let plaintext = conn.tls.advance(sim, &data);
                for (slot, query) in conn.framing.read_queries(&mut conn.tls, sim, &plaintext) {
                    let waiter = self.next_waiter;
                    self.next_waiter += 1;
                    match self.backend.answer(sim, &query, waiter) {
                        Some(response) => {
                            let conn = self.conns.get_mut(&handle).expect("conn is live");
                            conn.framing.send_response(&mut conn.tls, sim, slot, response);
                        }
                        None => {
                            self.waiters.insert(waiter, (handle, slot));
                        }
                    }
                }
                let conn = self.conns.get_mut(&handle).expect("conn is live");
                conn.framing.flush_responses(&mut conn.tls, sim);
            }
            Wake::TcpFin { conn: handle, .. }
                if handle.side == Side::Server && self.conns.remove(&handle).is_some() =>
            {
                sim.tcp_close(handle);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transport::tests::{driven, localhost};
    use crate::{TransportConfig, TransportKind};
    use dohmark_netsim::LinkConfig;
    use dohmark_tls_model::{handshake_bytes, TlsVersion};

    /// What the lifecycle tests need to know about a framing beyond the
    /// skeleton.
    pub(crate) trait TestFraming: Framing {
        /// The transport this framing implements.
        const KIND: TransportKind;

        /// Server side: answers `query` on `slot` with a framed response
        /// that carries no DNS answer.
        fn send_rejection(
            &mut self,
            tls: &mut TlsStream,
            sim: &mut Sim,
            slot: Self::Slot,
            query: &Message,
        );
    }

    /// Instantiates every lifecycle test for one framing, inside that
    /// framing's `tests` module: a framing is one more input to each test.
    macro_rules! lifecycle_tests {
        ($framing:ty) => {
            $crate::stream::tests::lifecycle_tests!(@each $framing;
                fresh_connection_serves_all_pipelined_queries_before_closing,
                close_abandons_queued_queries,
                explicit_close_tears_the_connection_down,
                server_fin_leads_to_a_reconnect,
                tls12_and_resumption_configs_work_end_to_end,
                queries_survive_a_lossy_link_via_tcp_retransmission,
                non_200_responses_are_not_dns_answers
            );
        };
        (@each $framing:ty; $($test:ident),*) => {
            $(
                #[test]
                fn $test() {
                    $crate::stream::tests::$test::<$framing>();
                }
            )*
        };
    }
    pub(crate) use lifecycle_tests;

    impl<F: Framing> StreamClient<F> {
        pub(crate) fn is_connected(&self) -> bool {
            self.conn.as_ref().is_some_and(|c| c.tls.established())
        }

        pub(crate) fn framing(&self) -> Option<&F> {
            self.conn.as_ref().map(|c| &c.framing)
        }
    }

    impl<F: Framing> StreamServer<F> {
        pub(crate) fn open_connections(&self) -> usize {
            self.conns.len()
        }
    }

    /// `cfg`'s concrete client and server on a stub and a resolver joined
    /// by `cfg.link` — for tests that inspect connection state, which a
    /// [`Driver`](crate::Driver) keeps boxed. `F` must be `cfg.kind`'s
    /// framing.
    pub(crate) fn pair<F: Framing>(
        cfg: &TransportConfig,
        seed: u64,
    ) -> (Sim, StreamClient<F>, StreamServer<F>) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, cfg.link);
        let tls = cfg.tls().expect("stream transports run on tls");
        let port = cfg.kind.port();
        let backend = ServerBackend::fixed(cfg.answer, cfg.ttl);
        let server = StreamServer::bind_with(&mut sim, resolver, port, tls.clone(), backend);
        let client = StreamClient::new(stub, (resolver, port), tls, cfg.reuse, cfg.conn_attr);
        (sim, client, server)
    }

    /// The two-endpoint pump: pops one wake and hands it to both ends;
    /// `false` once the simulation is quiescent.
    fn step(sim: &mut Sim, client: &mut dyn Endpoint, server: &mut dyn Endpoint) -> bool {
        let Some(wake) = sim.next_wake() else { return false };
        client.on_wake(sim, &wake);
        server.on_wake(sim, &wake);
        true
    }

    /// Runs the simulation to quiescence through [`step`].
    pub(crate) fn pump(sim: &mut Sim, client: &mut dyn Endpoint, server: &mut dyn Endpoint) {
        while step(sim, client, server) {}
    }

    /// Sends one query and pumps until its answer arrives; `None` if the
    /// simulation runs dry first.
    pub(crate) fn resolve(
        sim: &mut Sim,
        client: &mut dyn Resolver,
        server: &mut dyn Endpoint,
        name: &Name,
        id: u16,
    ) -> Option<Message> {
        client.send_query(sim, name, id);
        loop {
            if let Some(answer) = client.take_response(id) {
                return Some(answer);
            }
            if !step(sim, client, server) {
                return None;
            }
        }
    }

    pub(crate) fn name() -> Name {
        Name::parse("abcdefgh.dohmark.test").unwrap()
    }

    pub(crate) fn fresh_connection_serves_all_pipelined_queries_before_closing<F: TestFraming>() {
        let (mut sim, mut client, mut server) =
            pair::<F>(&localhost(F::KIND, ReusePolicy::Fresh), 12);
        // Two queries launched back-to-back share the cold connection; it
        // must not close after the first answer and strand the second.
        client.send_query(&mut sim, &name(), 1);
        client.send_query(&mut sim, &name(), 2);
        pump(&mut sim, &mut client, &mut server);
        assert!(client.take_response(1).is_some());
        assert!(client.take_response(2).is_some());
        assert!(!client.is_connected(), "cold connection closes once drained");
        assert_eq!(server.open_connections(), 0);
    }

    pub(crate) fn close_abandons_queued_queries<F: TestFraming>() {
        let (mut sim, mut client, mut server) =
            pair::<F>(&localhost(F::KIND, ReusePolicy::Persistent), 13);
        // Query 1 is still queued (handshake pending) when the client
        // closes; it must not be retransmitted on the next connection.
        client.send_query(&mut sim, &name(), 1);
        client.close(&mut sim);
        pump(&mut sim, &mut client, &mut server);
        assert!(client.take_response(1).is_none());
        let response = resolve(&mut sim, &mut client, &mut server, &name(), 2);
        assert!(response.is_some(), "a fresh query after close must work");
        pump(&mut sim, &mut client, &mut server);
        assert!(client.take_response(1).is_none(), "stale query 1 must stay abandoned");
    }

    pub(crate) fn explicit_close_tears_the_connection_down<F: TestFraming>() {
        let (mut sim, mut client, mut server) =
            pair::<F>(&localhost(F::KIND, ReusePolicy::Persistent), 6);
        resolve(&mut sim, &mut client, &mut server, &name(), 1).unwrap();
        assert!(client.is_connected());
        client.close(&mut sim);
        pump(&mut sim, &mut client, &mut server);
        assert!(!client.is_connected());
        assert_eq!(server.open_connections(), 0);
    }

    pub(crate) fn server_fin_leads_to_a_reconnect<F: TestFraming>() {
        let (mut sim, mut client, mut server) =
            pair::<F>(&localhost(F::KIND, ReusePolicy::Persistent), 14);
        resolve(&mut sim, &mut client, &mut server, &name(), 1).unwrap();
        // The server hangs up on the idle connection.
        let handle = *server.conns.keys().next().expect("one connection is open");
        server.conns.remove(&handle);
        sim.tcp_close(handle);
        pump(&mut sim, &mut client, &mut server);
        assert!(!client.is_connected(), "the client must drop the closed connection");
        let response = resolve(&mut sim, &mut client, &mut server, &name(), 2);
        assert!(response.is_some(), "the next query reconnects");
        assert!(client.is_connected());
        assert_eq!(server.open_connections(), 1);
    }

    pub(crate) fn tls12_and_resumption_configs_work_end_to_end<F: TestFraming>() {
        for (version, resumption) in
            [(TlsVersion::Tls12, false), (TlsVersion::Tls13, true), (TlsVersion::Tls12, true)]
        {
            let cfg = TransportConfig {
                tls_version: version,
                resumption,
                ..localhost(F::KIND, ReusePolicy::Fresh)
            };
            let (mut sim, mut driver, client) = driven(&cfg, 4);
            let response = driver.resolve(&mut sim, client, &name(), 9);
            assert!(response.is_some(), "no response for {version:?}/{resumption}");
            driver.run_until_quiescent(&mut sim);
            let tls = cfg.tls().unwrap();
            assert!(sim.meter.cost(9).layers.tls >= handshake_bytes(&tls) as u64);
        }
    }

    pub(crate) fn queries_survive_a_lossy_link_via_tcp_retransmission<F: TestFraming>() {
        let cfg = TransportConfig {
            link: LinkConfig::localhost().loss(0.2),
            ..localhost(F::KIND, ReusePolicy::Persistent)
        };
        let (mut sim, mut driver, client) = driven(&cfg, 11);
        let response = driver.resolve(&mut sim, client, &name(), 1).unwrap();
        assert_eq!(response.answers.len(), 1);
        assert!(sim.dropped_packets() > 0, "the link should actually have lost packets");
    }

    /// A server whose every answer is a framed response that carries no
    /// DNS answer.
    struct Rejecting<F> {
        listener: ListenerId,
        tls_cfg: TlsConfig,
        conn: Option<Conn<F>>,
    }

    impl<F: TestFraming> Endpoint for Rejecting<F> {
        fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
            match *wake {
                Wake::TcpAccepted { listener, conn: handle, .. } if listener == self.listener => {
                    let attr = sim.attr();
                    self.conn = Some(Conn::new(handle, &self.tls_cfg, attr));
                }
                Wake::TcpReadable { conn: handle, .. } if handle.side == Side::Server => {
                    let Some(conn) = self.conn.as_mut() else { return };
                    let data = sim.tcp_recv(handle);
                    let plaintext = conn.tls.advance(sim, &data);
                    for (slot, query) in conn.framing.read_queries(&mut conn.tls, sim, &plaintext) {
                        conn.framing.send_rejection(&mut conn.tls, sim, slot, &query);
                    }
                }
                _ => {}
            }
        }
    }

    pub(crate) fn non_200_responses_are_not_dns_answers<F: TestFraming>() {
        // The client must not surface a rejected response (h1/h2 status
        // 500, an undecodable DoT payload) — but the rejection still
        // completes the exchange, so a Fresh connection must tear down
        // rather than linger.
        let cfg = localhost(F::KIND, ReusePolicy::Fresh);
        let mut sim = Sim::new(21);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, cfg.link);
        let tls_cfg = cfg.tls().unwrap();
        let port = cfg.kind.port();
        let listener = sim.tcp_listen(resolver, port);
        let mut server = Rejecting::<F> { listener, tls_cfg: tls_cfg.clone(), conn: None };
        let mut client =
            StreamClient::<F>::new(stub, (resolver, port), tls_cfg, ReusePolicy::Fresh, 0);
        client.send_query(&mut sim, &name(), 1);
        pump(&mut sim, &mut client, &mut server);
        assert!(client.take_response(1).is_none(), "a rejection must not count as an answer");
        assert!(!client.is_connected(), "fresh connection must close after a rejection");
    }
}
