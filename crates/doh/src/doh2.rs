//! DNS over HTTPS on HTTP/2 (RFC 8484 over RFC 9113) framing, with real
//! HPACK.
//!
//! * Connection setup after the TLS handshake: the 24-byte client
//!   preface, a SETTINGS exchange (both directions plus ACKs) and the
//!   client's connection WINDOW_UPDATE — all tagged
//!   [`LayerTag::HttpMgmt`], the paper's "Mgmt" layer that makes a *cold*
//!   DoH/2 resolution the most expensive cell of the transport matrix.
//! * Per message: one HEADERS frame (HPACK-compressed `:method: POST`,
//!   `:path: /dns-query`, … or `:status: 200`, …) tagged
//!   [`LayerTag::HttpHeader`], and one END_STREAM DATA frame with the raw
//!   DNS message tagged [`LayerTag::HttpBody`]. Client streams use odd ids
//!   1, 3, 5…; the answer goes out on its query's stream.
//! * On a persistent connection the HPACK dynamic table turns the second
//!   and later queries' header blocks into a handful of index bytes — the
//!   header-byte shrinkage `examples/transport_shootout.rs` asserts.
//! * Client teardown sends GOAWAY (NO_ERROR) before the FIN, as real
//!   clients do.

use crate::doh1::{DNS_MESSAGE, DOH_PATH};
use crate::stream::{Answers, Framing};
use crate::tls_stream::TlsStream;
use dohmark_dns_wire::Message;
use dohmark_httpsim::h2::{settings, Frame, FrameDecoder, PREFACE};
use dohmark_httpsim::hpack;
use dohmark_netsim::{LayerTag, Sim};
use std::collections::{HashMap, HashSet};

/// SETTINGS a browser-like DoH client announces.
const CLIENT_SETTINGS: [(u16, u32); 4] = [
    (settings::HEADER_TABLE_SIZE, hpack::DEFAULT_TABLE_SIZE as u32),
    (settings::ENABLE_PUSH, 0),
    (settings::INITIAL_WINDOW_SIZE, 131_072),
    (settings::MAX_FRAME_SIZE, 16_384),
];

/// The connection-window increment the client grants up front.
const CLIENT_WINDOW_BUMP: u32 = 12_517_377;

/// SETTINGS a resolver-like server announces.
const SERVER_SETTINGS: [(u16, u32); 3] = [
    (settings::HEADER_TABLE_SIZE, hpack::DEFAULT_TABLE_SIZE as u32),
    (settings::MAX_CONCURRENT_STREAMS, 100),
    (settings::INITIAL_WINDOW_SIZE, 65_535),
];

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs.iter().map(|&(n, v)| (n.to_string(), v.to_string())).collect()
}

/// One end's HTTP/2 state over a TLS stream.
#[derive(Debug)]
pub(crate) struct H2 {
    frames: FrameDecoder,
    /// HPACK for header blocks this end sends.
    encoder: hpack::Encoder,
    /// HPACK for header blocks this end receives.
    decoder: hpack::Decoder,
    /// Reassembled DATA payloads per stream. Keyed lookup only (by the
    /// arriving frame's stream id) — never iterated, so the randomized
    /// order is unobservable (no-unordered-iteration).
    bodies: HashMap<u32, Vec<u8>>,
    /// Streams whose HEADERS carried a non-200 `:status`; their DATA is
    /// not a DNS answer. Keyed membership test only — never iterated.
    failed_streams: HashSet<u32>,
    /// Whether this end has announced its SETTINGS.
    started: bool,
    /// Highest peer stream id seen (for GOAWAY).
    last_peer_stream: u32,
    /// Client: the next stream id to open (odd: 1, 3, 5, …).
    next_stream_id: u32,
    /// Server: client-preface bytes still expected before frames begin.
    preface_left: usize,
}

impl Default for H2 {
    fn default() -> H2 {
        H2 {
            frames: FrameDecoder::new(),
            encoder: hpack::Encoder::new(),
            decoder: hpack::Decoder::new(),
            bodies: HashMap::new(),
            failed_streams: HashSet::new(),
            started: false,
            last_peer_stream: 0,
            next_stream_id: 1,
            preface_left: PREFACE.len(),
        }
    }
}

impl H2 {
    /// Sends management frames (plus the preface when `preface` is set)
    /// as one tagged write under the connection's setup attribution.
    fn send_mgmt(tls: &mut TlsStream, sim: &mut Sim, preface: bool, frames: &[Frame]) {
        let mut bytes = Vec::new();
        if preface {
            bytes.extend_from_slice(PREFACE);
        }
        for frame in frames {
            bytes.extend_from_slice(&frame.encode());
        }
        let attr = tls.setup_attr;
        tls.send_segments(sim, attr, &[(LayerTag::HttpMgmt, &bytes)]);
    }

    /// Sends one request/response: a HEADERS frame and an END_STREAM DATA
    /// frame, tagged header/body, under attribution `attr`.
    fn send_message(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        stream_id: u32,
        headers: &[(String, String)],
        body: Vec<u8>,
        attr: u16,
    ) {
        let block = self.encoder.encode(headers);
        let headers_frame = Frame::Headers { stream_id, block, end_stream: false }.encode();
        let data_frame = Frame::Data { stream_id, data: body, end_stream: true }.encode();
        tls.send_segments(
            sim,
            u32::from(attr),
            &[(LayerTag::HttpHeader, &headers_frame), (LayerTag::HttpBody, &data_frame)],
        );
    }

    /// Feeds received plaintext through the frame decoder, answering
    /// management frames, and hands every completed stream to `each`:
    /// its id and its DNS message, `None` when the stream was rejected
    /// (non-200) or its body is no DNS message.
    fn ingest(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        plaintext: &[u8],
        mut each: impl FnMut(u32, Option<Message>),
    ) {
        self.frames.push(plaintext);
        // A malformed frame (`Err`) poisons the connection: stop reading.
        while let Ok(Some(frame)) = self.frames.next_frame() {
            match frame {
                Frame::Settings { ack: false, .. } => {
                    let ack = Frame::Settings { params: Vec::new(), ack: true };
                    H2::send_mgmt(tls, sim, false, &[ack]);
                }
                Frame::Settings { ack: true, .. } => {}
                Frame::Headers { stream_id, block, .. } => {
                    self.last_peer_stream = self.last_peer_stream.max(stream_id);
                    // Decoding also keeps the shared dynamic table in sync.
                    if let Ok(headers) = self.decoder.decode(&block) {
                        // A non-200 response is no DNS answer (requests
                        // carry no `:status` and stay accepted).
                        let failed =
                            headers.iter().any(|(name, value)| name == ":status" && value != "200");
                        if failed {
                            self.failed_streams.insert(stream_id);
                        }
                    }
                }
                Frame::Data { stream_id, data, end_stream } => {
                    self.last_peer_stream = self.last_peer_stream.max(stream_id);
                    let body = self.bodies.entry(stream_id).or_default();
                    body.extend_from_slice(&data);
                    if end_stream {
                        let body = self.bodies.remove(&stream_id).unwrap_or_default();
                        let rejected = self.failed_streams.remove(&stream_id);
                        let message = if rejected { None } else { Message::decode(&body).ok() };
                        each(stream_id, message);
                    }
                }
                Frame::Ping { data, ack: false } => {
                    H2::send_mgmt(tls, sim, false, &[Frame::Ping { data, ack: true }]);
                }
                Frame::Ping { ack: true, .. }
                | Frame::WindowUpdate { .. }
                | Frame::Goaway { .. }
                | Frame::RstStream { .. }
                | Frame::Unknown { .. } => {}
            }
        }
    }
}

impl Framing for H2 {
    type Slot = u32;

    fn open(&mut self, tls: &mut TlsStream, sim: &mut Sim) {
        if !self.started {
            self.started = true;
            let settings = Frame::Settings { params: CLIENT_SETTINGS.to_vec(), ack: false };
            let window = Frame::WindowUpdate { stream_id: 0, increment: CLIENT_WINDOW_BUMP };
            H2::send_mgmt(tls, sim, true, &[settings, window]);
        }
    }

    fn send_query(&mut self, tls: &mut TlsStream, sim: &mut Sim, query: &Message, authority: &str) {
        let body = query.encode();
        let headers = owned(&[
            (":method", "POST"),
            (":scheme", "https"),
            (":authority", authority),
            (":path", DOH_PATH),
            ("accept", DNS_MESSAGE),
            ("content-type", DNS_MESSAGE),
            ("content-length", &body.len().to_string()),
        ]);
        let stream_id = self.next_stream_id;
        self.next_stream_id += 2;
        self.send_message(tls, sim, stream_id, &headers, body, query.header.id);
    }

    fn read_responses(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        plaintext: &[u8],
        answers: &mut Answers,
    ) -> usize {
        let mut completed = 0;
        self.ingest(tls, sim, plaintext, |_, answer| {
            completed += 1;
            if let Some(answer) = answer {
                answers.put(answer);
            }
        });
        completed
    }

    fn close(&mut self, tls: &mut TlsStream, sim: &mut Sim) {
        if self.started {
            let goaway = Frame::Goaway {
                last_stream_id: self.last_peer_stream,
                error_code: 0,
                debug: Vec::new(),
            };
            H2::send_mgmt(tls, sim, false, &[goaway]);
        }
    }

    fn read_queries(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        plaintext: &[u8],
    ) -> Vec<(u32, Message)> {
        let skip = self.preface_left.min(plaintext.len());
        self.preface_left -= skip;
        if !self.started && self.preface_left == 0 {
            // The preface has arrived: announce our SETTINGS once.
            self.started = true;
            let settings = Frame::Settings { params: SERVER_SETTINGS.to_vec(), ack: false };
            H2::send_mgmt(tls, sim, false, &[settings]);
        }
        let mut queries = Vec::new();
        self.ingest(tls, sim, &plaintext[skip..], |stream_id, query| {
            queries.extend(query.map(|q| (stream_id, q)));
        });
        queries
    }

    /// Answers on the stream the query arrived on, charged to the
    /// response's transaction id.
    fn send_response(
        &mut self,
        tls: &mut TlsStream,
        sim: &mut Sim,
        stream_id: u32,
        response: Message,
    ) {
        let body = response.encode();
        let headers = owned(&[
            (":status", "200"),
            ("content-type", DNS_MESSAGE),
            ("content-length", &body.len().to_string()),
            ("server", "dohmark"),
        ]);
        self.send_message(tls, sim, stream_id, &headers, body, response.header.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::{lifecycle_tests, name, pair, pump, resolve, TestFraming};
    use crate::transport::tests::{driven, localhost};
    use crate::{Resolver, ReusePolicy, TransportKind};
    use dohmark_dns_wire::{Name, RecordType};
    use dohmark_tls_model::handshake_bytes;

    impl TestFraming for H2 {
        const KIND: TransportKind = TransportKind::DohH2;

        /// `:status 500` with a DNS-shaped body.
        fn send_rejection(
            &mut self,
            tls: &mut TlsStream,
            sim: &mut Sim,
            stream_id: u32,
            query: &Message,
        ) {
            let body = Message::fixed_a_response(query, std::net::Ipv4Addr::new(192, 0, 2, 7), 60)
                .encode();
            let headers = owned(&[
                (":status", "500"),
                ("content-type", DNS_MESSAGE),
                ("content-length", &body.len().to_string()),
            ]);
            self.send_message(tls, sim, stream_id, &headers, body, query.header.id);
        }
    }

    lifecycle_tests!(H2);

    #[test]
    fn cold_resolution_pays_handshake_mgmt_headers_and_body() {
        let cfg = localhost(TransportKind::DohH2, ReusePolicy::Fresh);
        let (mut sim, mut client, mut server) = pair::<H2>(&cfg, 1);
        let response = resolve(&mut sim, &mut client, &mut server, &name(), 1).unwrap();
        assert_eq!(response.answers[0].name, name());
        pump(&mut sim, &mut client, &mut server);
        let cost = sim.meter.cost(1);
        // Preface + SETTINGS both ways + ACKs + WINDOW_UPDATE + GOAWAY.
        assert!(cost.layers.http_mgmt > 100, "mgmt bytes {}", cost.layers.http_mgmt);
        // Bodies: the DNS messages plus one 9-byte DATA frame header each.
        let query_len = Message::query(1, &name(), RecordType::A).encode().len() as u64;
        let resp_len = response.encode().len() as u64;
        assert_eq!(cost.layers.http_body, query_len + resp_len + 2 * 9);
        // HPACK-compressed headers beat h1 text but are still present.
        assert!(cost.layers.http_header > 2 * 9, "header bytes {}", cost.layers.http_header);
        assert!(cost.layers.tls >= handshake_bytes(&cfg.tls().unwrap()) as u64);
        assert!(!client.is_connected(), "cold connection must close");
        assert_eq!(server.open_connections(), 0, "server saw the FIN");
    }

    #[test]
    fn persistent_hpack_shrinks_headers_after_the_first_query() {
        let (mut sim, mut client, mut server) =
            pair::<H2>(&localhost(TransportKind::DohH2, ReusePolicy::Persistent), 2);
        let name_gen = |i: u16| Name::parse(&format!("abcdefg{i}.dohmark.test")).unwrap();
        for id in 1..=4u16 {
            resolve(&mut sim, &mut client, &mut server, &name_gen(id), id).unwrap();
        }
        assert!(client.is_connected());
        sim.drain();
        let first = sim.meter.cost(1).layers.http_header;
        let later: Vec<u64> = (2..=4u32).map(|id| sim.meter.cost(id).layers.http_header).collect();
        // Same-shape queries: every header but none of the values change,
        // so the dynamic table turns later blocks into pure index bytes.
        assert!(later.iter().all(|&l| l < first / 2), "first {first} B vs later {later:?} B");
        assert_eq!(later[0], later[1]);
        assert_eq!(later[1], later[2]);
        // Mgmt is connection setup, charged to the connection attribution.
        assert_eq!(sim.meter.cost(2).layers.http_mgmt, 0);
        assert!(sim.meter.cost(0).layers.http_mgmt > 100);
    }

    #[test]
    fn close_sends_goaway_then_fin() {
        let (mut sim, mut client, mut server) =
            pair::<H2>(&localhost(TransportKind::DohH2, ReusePolicy::Persistent), 3);
        resolve(&mut sim, &mut client, &mut server, &name(), 1).unwrap();
        let mgmt_before = sim.meter.cost(0).layers.http_mgmt;
        client.close(&mut sim);
        pump(&mut sim, &mut client, &mut server);
        // GOAWAY: 9-byte frame header + 8-byte payload, plus TLS framing.
        assert_eq!(sim.meter.cost(0).layers.http_mgmt, mgmt_before + 17);
        assert!(!client.is_connected());
        assert_eq!(server.open_connections(), 0);
    }

    #[test]
    fn streams_use_odd_ids_and_parallel_queries_resolve() {
        let (mut sim, mut client, mut server) =
            pair::<H2>(&localhost(TransportKind::DohH2, ReusePolicy::Persistent), 4);
        // Launch three queries back-to-back before any response arrives.
        for id in 1..=3u16 {
            client.send_query(&mut sim, &name(), id);
        }
        pump(&mut sim, &mut client, &mut server);
        for id in 1..=3u16 {
            assert!(client.take_response(id).is_some(), "id {id}");
        }
        let h2 = client.framing().expect("connection is open");
        assert_eq!(h2.next_stream_id, 7, "streams 1, 3, 5 were used");
    }

    #[test]
    fn identical_seeds_reproduce_identical_h2_costs() {
        let run = |seed: u64| {
            let (mut sim, mut driver, client) =
                driven(&localhost(TransportKind::DohH2, ReusePolicy::Persistent), seed);
            for id in 1..=3u16 {
                driver.resolve(&mut sim, client, &name(), id).unwrap();
            }
            sim.drain();
            (sim.meter.total(), sim.now())
        };
        assert_eq!(run(7), run(7));
    }
}
