//! Classic DNS over UDP (Do53) — the paper's §3 baseline transport.
//!
//! The client binds a **fresh ephemeral source port per query** (as the
//! paper's measurement client does, so OS-level demultiplexing never
//! correlates resolutions) and the server answers every well-formed query
//! with a fixed A record, mirroring the paper's controlled resolver.
//! Query and response bytes are tagged
//! [`LayerTag::DnsPayload`](dohmark_netsim::LayerTag) and attributed to the
//! DNS transaction id.

use crate::resolver::ServerBackend;
use crate::{Endpoint, Resolver};
use dohmark_dns_wire::{Message, Name, RecordType};
use dohmark_netsim::{HostId, LayerTag, Sim, SimDuration, SockId, Wake};
use std::net::Ipv4Addr;

/// Retransmission policy for queries over UDP: resend after `initial`,
/// doubling the timeout on every retry (capped at [`UdpRetry::max_rto`]),
/// up to `max_retries` resends — after which the query is abandoned.
///
/// The defaults mirror the simulator's TCP loss-recovery constants
/// (200 ms initial RTO, 6 retries), so a lossy-link comparison between
/// Do53 and the TCP transports measures head-of-line blocking, not a
/// difference in how aggressively each side retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpRetry {
    /// Timeout before the first retransmission.
    pub initial: SimDuration,
    /// Maximum number of retransmissions per query.
    pub max_retries: u32,
}

impl UdpRetry {
    /// Backoff ceiling, matching TCP's maximum RTO.
    pub fn max_rto() -> SimDuration {
        SimDuration::from_secs(60)
    }

    /// The TCP-mirroring default policy: 200 ms initial, 6 retries.
    pub fn standard() -> UdpRetry {
        UdpRetry { initial: SimDuration::from_millis(200), max_retries: 6 }
    }
}

/// High bits of the retransmission-timer tokens, keeping them disjoint
/// from [`ADVANCE_TOKEN`](crate::ADVANCE_TOKEN) (`u64::MAX`) and from any
/// harness-owned token namespace; the low 16 bits carry the transaction
/// id the timer belongs to.
const RETRY_TOKEN_BASE: u64 = 0xD053 << 32;

/// A Do53 server answering from a pluggable [`ServerBackend`] —
/// authoritative zone data or a shared caching recursive resolver.
#[derive(Debug)]
pub struct Do53Server {
    sock: SockId,
    backend: ServerBackend,
}

/// Packs a parked query's return address into a waiter token: Do53 needs
/// no table — the token *is* the `(host, port)` pair.
fn waiter_token(host: HostId, port: u16) -> u64 {
    ((host.0 as u64) << 16) | u64::from(port)
}

fn waiter_addr(token: u64) -> (HostId, u16) {
    (HostId((token >> 16) as usize), (token & 0xFFFF) as u16)
}

impl Do53Server {
    /// Binds the server on `(host, port)` answering every query with one
    /// fixed A record `answer`/`ttl` — the paper's §3 echo resolver.
    pub fn bind(sim: &mut Sim, host: HostId, port: u16, answer: Ipv4Addr, ttl: u32) -> Do53Server {
        Do53Server::bind_with(sim, host, port, ServerBackend::fixed(answer, ttl))
    }

    /// Binds the server on `(host, port)` answering from `backend`.
    pub fn bind_with(sim: &mut Sim, host: HostId, port: u16, backend: ServerBackend) -> Do53Server {
        let sock = sim.udp_bind(host, port);
        Do53Server { sock, backend }
    }

    /// The backend's cache statistics, if it has a cache.
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.backend.cache_stats()
    }

    fn send_response(&mut self, sim: &mut Sim, dst: (HostId, u16), response: &Message) {
        sim.set_attr(u32::from(response.header.id));
        sim.udp_send(self.sock, dst, LayerTag::DnsPayload, response.encode());
    }
}

impl Endpoint for Do53Server {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        // Upstream completions first: a recursive backend may have parked
        // queries waiting on the wake we are handling.
        for (waiter, response) in self.backend.poll(sim, wake) {
            self.send_response(sim, waiter_addr(waiter), &response);
        }
        let Wake::UdpReadable { sock, .. } = wake else { return };
        if *sock != self.sock {
            return;
        }
        while let Some((src_host, src_port, data)) = sim.udp_recv(self.sock) {
            // Corrupted datagrams that no longer parse are dropped, exactly
            // like a real resolver would drop them.
            let Ok(query) = Message::decode(&data) else { continue };
            let waiter = waiter_token(src_host, src_port);
            if let Some(response) = self.backend.answer(sim, &query, waiter) {
                self.send_response(sim, (src_host, src_port), &response);
            }
        }
    }
}

/// One in-flight Do53 query and its retransmission state.
#[derive(Debug)]
struct PendingQuery {
    /// DNS transaction id (doubles as the attribution id).
    id: u16,
    /// The ephemeral socket the reply arrives on; retransmissions reuse
    /// it, as a real stub resolver resends from the same source port.
    sock: SockId,
    /// The encoded query, kept for retransmission.
    wire: Vec<u8>,
    /// Retransmissions still allowed.
    retries_left: u32,
    /// Timeout armed for the *next* retransmission (doubles each time).
    next_timeout: SimDuration,
}

/// A Do53 client multiplexing queries over fresh ephemeral source ports,
/// optionally retransmitting on an [`UdpRetry`] timeout schedule.
#[derive(Debug)]
pub struct Do53Client {
    host: HostId,
    server: (HostId, u16),
    retry: Option<UdpRetry>,
    pending: Vec<PendingQuery>,
    responses: Vec<Message>,
}

impl Do53Client {
    /// A client on `host` querying `server`. No retransmission: a lost
    /// datagram loses the query, the paper's §3 measurement-client shape.
    pub fn new(host: HostId, server: (HostId, u16)) -> Do53Client {
        Do53Client { host, server, retry: None, pending: Vec::new(), responses: Vec::new() }
    }

    /// A client that retransmits unanswered queries on `retry`'s timeout
    /// schedule — the stub-resolver shape the page-load experiments need
    /// on lossy links, where "a lost query never resolves" would conflate
    /// transport loss behaviour with client give-up behaviour.
    pub fn with_retry(host: HostId, server: (HostId, u16), retry: UdpRetry) -> Do53Client {
        Do53Client { host, server, retry: Some(retry), pending: Vec::new(), responses: Vec::new() }
    }

    /// Handles a retransmission-timer wake; returns `true` if the token
    /// belonged to this client's timer namespace.
    fn on_retry_timer(&mut self, sim: &mut Sim, token: u64) -> bool {
        if token & !0xFFFF != RETRY_TOKEN_BASE {
            return false;
        }
        let id = (token & 0xFFFF) as u16;
        // A stale timer for an already-answered query finds no pending
        // entry and falls through silently — each fire rearms at most
        // one successor, so chains die with their query.
        if let Some(q) = self.pending.iter_mut().find(|q| q.id == id) {
            if q.retries_left > 0 {
                q.retries_left -= 1;
                sim.set_attr(u32::from(q.id));
                sim.udp_send(q.sock, self.server, LayerTag::DnsPayload, q.wire.clone());
                let doubled = SimDuration::from_nanos(q.next_timeout.as_nanos().saturating_mul(2));
                q.next_timeout =
                    if doubled > UdpRetry::max_rto() { UdpRetry::max_rto() } else { doubled };
                crate::driver::schedule_endpoint_timer(sim, q.next_timeout, token);
            }
        }
        true
    }
}

impl Resolver for Do53Client {
    /// Sends an A query for `name` with transaction (and attribution) id
    /// `id` from a freshly bound ephemeral port, arming the first
    /// retransmission timer when the client has an [`UdpRetry`] policy.
    fn send_query(&mut self, sim: &mut Sim, name: &Name, id: u16) {
        let sock = sim.udp_bind(self.host, 0);
        sim.set_attr(u32::from(id));
        let query = Message::query(id, name, RecordType::A);
        let wire = query.encode();
        sim.udp_send(sock, self.server, LayerTag::DnsPayload, wire.clone());
        let (retries_left, next_timeout) = match self.retry {
            Some(retry) => {
                let token = RETRY_TOKEN_BASE | u64::from(id);
                crate::driver::schedule_endpoint_timer(sim, retry.initial, token);
                (retry.max_retries, retry.initial)
            }
            None => (0, SimDuration::ZERO),
        };
        self.pending.push(PendingQuery { id, sock, wire, retries_left, next_timeout });
    }

    fn take_response(&mut self, id: u16) -> Option<Message> {
        let idx = self.responses.iter().position(|m| m.header.id == id)?;
        Some(self.responses.remove(idx))
    }

    /// Closes the ephemeral sockets of any still-unanswered queries.
    fn close(&mut self, sim: &mut Sim) {
        for q in self.pending.drain(..) {
            sim.udp_close(q.sock);
        }
    }
}

impl Endpoint for Do53Client {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        match wake {
            Wake::AppTimer { token, .. } => {
                self.on_retry_timer(sim, *token);
            }
            Wake::UdpReadable { sock, .. } => {
                let Some(idx) = self.pending.iter().position(|q| q.sock == *sock) else {
                    return;
                };
                while let Some((_, _, data)) = sim.udp_recv(*sock) {
                    let Ok(response) = Message::decode(&data) else { continue };
                    if response.header.id == self.pending[idx].id {
                        self.pending.remove(idx);
                        self.responses.push(response);
                        // The query's ephemeral socket has served its purpose;
                        // closing it keeps a long-running client from aliasing
                        // wrapped ephemeral ports onto dead sockets.
                        sim.udp_close(*sock);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{driven, localhost};
    use crate::{ReusePolicy, TransportConfig, TransportKind};
    use dohmark_netsim::LinkConfig;

    fn do53() -> TransportConfig {
        localhost(TransportKind::Do53, ReusePolicy::Fresh)
    }

    /// Do53 on a link that loses every packet.
    fn dead_link() -> TransportConfig {
        TransportConfig { link: LinkConfig::localhost().loss(1.0), ..do53() }
    }

    fn name() -> Name {
        Name::parse("abcdefgh.dohmark.test").unwrap()
    }

    #[test]
    fn query_resolves_to_the_fixed_answer() {
        let (mut sim, mut driver, client) = driven(&do53(), 1);
        let response = driver.resolve(&mut sim, client, &name(), 1).unwrap();
        assert_eq!(response.header.id, 1);
        assert_eq!(response.answers.len(), 1);
        assert_eq!(response.answers[0].name, name());
    }

    #[test]
    fn each_resolution_is_two_packets_charged_to_its_id() {
        let (mut sim, mut driver, client) = driven(&do53(), 2);
        for id in 1..=3u16 {
            driver.resolve(&mut sim, client, &name(), id).unwrap();
        }
        sim.drain();
        for id in 1..=3u32 {
            let cost = sim.meter.cost(id);
            assert_eq!(cost.packets, 2, "query + response for id {id}");
            // All non-header bytes are raw DNS payload on Do53.
            assert_eq!(cost.bytes, cost.layers.dns + cost.layers.l4_header);
            assert_eq!(cost.layers.l4_header, 2 * 28);
        }
    }

    /// The `host:port->host:port` directions of the packets the stub sent.
    fn stub_sends(sim: &Sim) -> Vec<String> {
        sim.trace
            .records()
            .iter()
            .filter(|r| r.direction.starts_with("stub"))
            .map(|r| r.direction.clone())
            .collect()
    }

    #[test]
    fn each_query_uses_a_fresh_source_port() {
        let (mut sim, mut driver, client) = driven(&do53(), 3);
        sim.trace.enable(100);
        driver.resolve(&mut sim, client, &name(), 1).unwrap();
        driver.resolve(&mut sim, client, &name(), 2).unwrap();
        let sources = stub_sends(&sim);
        assert_eq!(sources.len(), 2);
        assert_ne!(sources[0], sources[1], "source ports must differ");
    }

    #[test]
    fn client_closes_its_ephemeral_socket_after_the_response() {
        let (mut sim, mut driver, client) = driven(&do53(), 5);
        sim.trace.enable(16);
        driver.resolve(&mut sim, client, &name(), 1).unwrap();
        sim.drain();
        let dropped_before = sim.dropped_packets();
        // A stray duplicate response to the query's (now closed) source
        // port must be dropped, not queued on the dead socket.
        let query_src = sim.trace.records()[0].direction.clone();
        let port: u16 =
            query_src.split("->").next().unwrap().rsplit(':').next().unwrap().parse().unwrap();
        let stub = dohmark_netsim::HostId(0);
        let resolver_sock = sim.udp_bind(dohmark_netsim::HostId(1), 0);
        sim.udp_send(resolver_sock, (stub, port), LayerTag::DnsPayload, vec![0; 12]);
        sim.drain();
        assert_eq!(sim.dropped_packets(), dropped_before + 1);
    }

    #[test]
    fn lost_query_returns_none() {
        let (mut sim, mut driver, client) = driven(&dead_link(), 4);
        assert!(driver.resolve(&mut sim, client, &name(), 1).is_none());
    }

    #[test]
    fn retry_recovers_a_lossy_resolution() {
        // At 30% iid loss a retry-less stub fails whole resolutions; the
        // retransmitting client recovers every one of a batch, because a
        // per-attempt success chance of ~0.49 over 7 transmissions leaves
        // a failure probability under 1%.
        let cfg = TransportConfig { link: LinkConfig::localhost().loss(0.3), ..do53() }
            .with_udp_retry(UdpRetry::standard());
        let (mut sim, mut driver, client) = driven(&cfg, 11);
        for id in 1..=8u16 {
            let response = driver.resolve(&mut sim, client, &name(), id);
            assert!(response.is_some(), "id {id} failed despite retries");
        }
    }

    #[test]
    fn retry_gives_up_after_its_budget_on_a_dead_link() {
        let (mut sim, mut driver, client) =
            driven(&dead_link().with_udp_retry(UdpRetry::standard()), 6);
        assert!(driver.resolve(&mut sim, client, &name(), 1).is_none());
        // Original send + 6 retransmissions, every one dropped on the link.
        assert_eq!(sim.dropped_packets(), 7);
    }

    #[test]
    fn retransmissions_reuse_the_original_source_port() {
        let retry = UdpRetry { initial: SimDuration::from_millis(200), max_retries: 2 };
        let (mut sim, mut driver, client) = driven(&dead_link().with_udp_retry(retry), 7);
        sim.trace.enable(32);
        driver.resolve(&mut sim, client, &name(), 1);
        let sources = stub_sends(&sim);
        assert_eq!(sources.len(), 3, "original + 2 retransmissions");
        assert!(sources.iter().all(|s| s == &sources[0]), "{sources:?}");
    }
}
