//! DNS over HTTPS on HTTP/1.1 (RFC 8484 over RFC 9112) framing.
//!
//! A query is `POST /dns-query HTTP/1.1` with `host`, `accept`,
//! `content-type: application/dns-message` and `content-length` fields —
//! the full header text every HTTP/1.1 request repeats, which is why the
//! paper finds h1 headers cost more than HPACK-compressed h2 headers on
//! persistent connections. An answer is `HTTP/1.1 200 OK` with
//! `content-type`, `server` and `content-length`. Bodies are the raw DNS
//! messages. Header text is tagged [`LayerTag::HttpHeader`], bodies
//! [`LayerTag::HttpBody`] — the paper's "Hdr" / "Body" split.

use crate::stream::{Answers, Framing};
use crate::tls_stream::TlsStream;
use dohmark_dns_wire::Message;
use dohmark_httpsim::h1::{Encoded, Request, RequestParser, Response, ResponseParser};
use dohmark_netsim::{LayerTag, Sim};
use std::collections::VecDeque;

/// The RFC 8484 media type.
pub const DNS_MESSAGE: &str = "application/dns-message";
/// The conventional DoH endpoint path.
pub const DOH_PATH: &str = "/dns-query";

/// Seals one encoded request or response — header text tagged `Hdr`, body
/// `Body` — charged to transaction `attr`.
fn send(tls: &mut TlsStream, sim: &mut Sim, attr: u16, encoded: &Encoded) {
    tls.send_segments(
        sim,
        u32::from(attr),
        &[(LayerTag::HttpHeader, &encoded.head), (LayerTag::HttpBody, &encoded.body)],
    );
}

/// A DoH/1.1 connection's parsers and answer pipeline.
#[derive(Debug, Default)]
pub(crate) struct H1 {
    responses: ResponseParser,
    requests: RequestParser,
    /// Answers in request order, `None` while still pending — HTTP/1.1
    /// has no stream multiplexing, so responses go out in request order
    /// even when a later answer (a cache hit) is ready before an earlier
    /// one (parked on an upstream fetch): real h1 head-of-line blocking.
    pipeline: VecDeque<Option<Message>>,
    /// Responses sent so far: request `n` waits at `pipeline[n - sent]`.
    sent: u64,
}

impl Framing for H1 {
    type Slot = u64;

    fn send_query(&mut self, tls: &mut TlsStream, sim: &mut Sim, query: &Message, authority: &str) {
        let request = Request::new(
            "POST",
            DOH_PATH,
            vec![
                ("host".to_string(), authority.to_string()),
                ("accept".to_string(), DNS_MESSAGE.to_string()),
                ("content-type".to_string(), DNS_MESSAGE.to_string()),
            ],
        )
        .with_body(query.encode());
        send(tls, sim, query.header.id, &request.encode());
    }

    fn read_responses(
        &mut self,
        _tls: &mut TlsStream,
        _sim: &mut Sim,
        plaintext: &[u8],
        answers: &mut Answers,
    ) -> usize {
        self.responses.push(plaintext);
        let mut completed = 0;
        while let Ok(Some(response)) = self.responses.next_response() {
            completed += 1;
            if response.status == 200 {
                if let Ok(answer) = Message::decode(&response.body) {
                    answers.put(answer);
                }
            }
        }
        completed
    }

    fn read_queries(
        &mut self,
        _tls: &mut TlsStream,
        _sim: &mut Sim,
        plaintext: &[u8],
    ) -> Vec<(u64, Message)> {
        self.requests.push(plaintext);
        let mut queries = Vec::new();
        while let Ok(Some(request)) = self.requests.next_request() {
            // Requests whose body is not a DNS message are dropped, like a
            // resolver answering 400 we never retry on.
            let Ok(query) = Message::decode(&request.body) else { continue };
            queries.push((self.sent + self.pipeline.len() as u64, query));
            self.pipeline.push_back(None);
        }
        queries
    }

    fn send_response(
        &mut self,
        _tls: &mut TlsStream,
        _sim: &mut Sim,
        slot: u64,
        response: Message,
    ) {
        let at = (slot - self.sent) as usize;
        self.pipeline[at] = Some(response);
    }

    fn flush_responses(&mut self, tls: &mut TlsStream, sim: &mut Sim) {
        while let Some(answer) = self.pipeline.front_mut().and_then(Option::take) {
            self.pipeline.pop_front();
            self.sent += 1;
            let response = Response::new(
                200,
                "OK",
                vec![
                    ("content-type".to_string(), DNS_MESSAGE.to_string()),
                    ("server".to_string(), "dohmark".to_string()),
                ],
            )
            .with_body(answer.encode());
            send(tls, sim, answer.header.id, &response.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::{lifecycle_tests, name, pair, pump, resolve, TestFraming};
    use crate::transport::tests::{driven, localhost};
    use crate::{Resolver, ReusePolicy, TransportKind};
    use dohmark_dns_wire::RecordType;
    use dohmark_tls_model::handshake_bytes;

    impl TestFraming for H1 {
        const KIND: TransportKind = TransportKind::DohH1;

        /// `500 Internal Server Error` with a DNS-shaped body.
        fn send_rejection(&mut self, tls: &mut TlsStream, sim: &mut Sim, _: u64, query: &Message) {
            let body = Message::fixed_a_response(query, std::net::Ipv4Addr::new(192, 0, 2, 7), 60);
            let response =
                Response::new(500, "Internal Server Error", Vec::new()).with_body(body.encode());
            send(tls, sim, query.header.id, &response.encode());
        }
    }

    lifecycle_tests!(H1);

    #[test]
    fn cold_resolution_pays_handshake_headers_and_body() {
        let cfg = localhost(TransportKind::DohH1, ReusePolicy::Fresh);
        let (mut sim, mut client, mut server) = pair::<H1>(&cfg, 1);
        let response = resolve(&mut sim, &mut client, &mut server, &name(), 1).unwrap();
        assert_eq!(response.answers[0].name, name());
        sim.drain();
        let cost = sim.meter.cost(1);
        let hs = handshake_bytes(&cfg.tls().unwrap()) as u64;
        // Handshake + one record each way.
        assert_eq!(cost.layers.tls, hs + 2 * 21);
        // Bodies are exactly the DNS messages.
        let query_len = Message::query(1, &name(), RecordType::A).encode().len() as u64;
        let resp_len = response.encode().len() as u64;
        assert_eq!(cost.layers.http_body, query_len + resp_len);
        // The request + response header text is a three-digit number of
        // bytes — the h1 header tax the paper measures.
        assert!(cost.layers.http_header > 150, "header bytes {}", cost.layers.http_header);
        assert_eq!(cost.layers.http_mgmt, 0, "h1 has no management frames");
        assert!(!client.is_connected(), "cold connection must close");
    }

    #[test]
    fn persistent_connection_repeats_header_text_every_query() {
        let cfg = localhost(TransportKind::DohH1, ReusePolicy::Persistent);
        let (mut sim, mut client, mut server) = pair::<H1>(&cfg, 2);
        for id in 1..=3u16 {
            resolve(&mut sim, &mut client, &mut server, &name(), id).unwrap();
        }
        assert!(client.is_connected());
        sim.drain();
        let first = sim.meter.cost(1).layers.http_header;
        for id in 2..=3u32 {
            // No compression on h1: identical header bytes per query.
            assert_eq!(sim.meter.cost(id).layers.http_header, first, "id {id}");
            assert_eq!(sim.meter.cost(id).layers.tls, 2 * 21, "id {id}");
        }
        assert_eq!(sim.meter.cost(0).layers.tls, handshake_bytes(&cfg.tls().unwrap()) as u64);
    }

    #[test]
    fn close_then_next_query_reconnects() {
        let (mut sim, mut client, mut server) =
            pair::<H1>(&localhost(TransportKind::DohH1, ReusePolicy::Persistent), 3);
        resolve(&mut sim, &mut client, &mut server, &name(), 1).unwrap();
        client.close(&mut sim);
        pump(&mut sim, &mut client, &mut server);
        assert!(!client.is_connected());
        assert_eq!(server.open_connections(), 0);
        assert!(resolve(&mut sim, &mut client, &mut server, &name(), 2).is_some());
    }

    #[test]
    fn identical_seeds_reproduce_identical_h1_costs() {
        let run = |seed: u64| {
            let (mut sim, mut driver, client) =
                driven(&localhost(TransportKind::DohH1, ReusePolicy::Persistent), seed);
            for id in 1..=3u16 {
                driver.resolve(&mut sim, client, &name(), id).unwrap();
            }
            sim.drain();
            (sim.meter.total(), sim.now())
        };
        assert_eq!(run(7), run(7));
    }
}
