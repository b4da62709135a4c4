//! DNS over TLS (DoT, RFC 7858) framing: each message carries the RFC 7766
//! 2-byte length prefix. The prefix and the message — which the paper
//! counts as DNS — are tagged [`LayerTag::DnsPayload`].

use crate::stream::{Answers, Framing};
use crate::tls_stream::TlsStream;
use dohmark_dns_wire::Message;
use dohmark_netsim::{LayerTag, Sim};

/// A DoT connection's length-prefix reassembly buffer.
#[derive(Debug, Default)]
pub(crate) struct Dot {
    rx: Vec<u8>,
}

impl Dot {
    /// Seals `message` with its length prefix, charged to its
    /// transaction id.
    fn send(tls: &mut TlsStream, sim: &mut Sim, message: &Message) {
        let wire = message.encode();
        let mut plaintext = Vec::with_capacity(2 + wire.len());
        plaintext.extend_from_slice(&(wire.len() as u16).to_be_bytes());
        plaintext.extend_from_slice(&wire);
        tls.send_segments(sim, u32::from(message.header.id), &[(LayerTag::DnsPayload, &plaintext)]);
    }

    /// Buffers `plaintext` and hands every complete frame's payload to
    /// `each`, decoded — `None` when it is no DNS message.
    fn read_frames(&mut self, plaintext: &[u8], mut each: impl FnMut(Option<Message>)) {
        self.rx.extend_from_slice(plaintext);
        let mut at = 0;
        while let Some(prefix) = self.rx.get(at..at + 2) {
            let end = at + 2 + usize::from(u16::from_be_bytes([prefix[0], prefix[1]]));
            let Some(payload) = self.rx.get(at + 2..end) else { break };
            each(Message::decode(payload).ok());
            at = end;
        }
        self.rx.drain(..at);
    }
}

impl Framing for Dot {
    type Slot = ();

    fn send_query(&mut self, tls: &mut TlsStream, sim: &mut Sim, query: &Message, _: &str) {
        Dot::send(tls, sim, query);
    }

    fn read_responses(
        &mut self,
        _tls: &mut TlsStream,
        _sim: &mut Sim,
        plaintext: &[u8],
        answers: &mut Answers,
    ) -> usize {
        let mut completed = 0;
        self.read_frames(plaintext, |answer| {
            completed += 1;
            if let Some(answer) = answer {
                answers.put(answer);
            }
        });
        completed
    }

    fn read_queries(
        &mut self,
        _tls: &mut TlsStream,
        _sim: &mut Sim,
        plaintext: &[u8],
    ) -> Vec<((), Message)> {
        let mut queries = Vec::new();
        // Undecodable queries are dropped, like a real resolver drops
        // garbage.
        self.read_frames(plaintext, |query| queries.extend(query.map(|q| ((), q))));
        queries
    }

    fn send_response(&mut self, tls: &mut TlsStream, sim: &mut Sim, _: (), response: Message) {
        Dot::send(tls, sim, &response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::{lifecycle_tests, name, pair, pump, resolve, TestFraming};
    use crate::transport::tests::{driven, localhost};
    use crate::{ReusePolicy, TransportKind};
    use dohmark_dns_wire::RecordType;
    use dohmark_tls_model::handshake_bytes;

    impl TestFraming for Dot {
        const KIND: TransportKind = TransportKind::Dot;

        /// A length-prefixed payload too short to be a DNS header.
        fn send_rejection(&mut self, tls: &mut TlsStream, sim: &mut Sim, _: (), query: &Message) {
            let garbled = [0, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF];
            tls.send_segments(sim, u32::from(query.header.id), &[(LayerTag::DnsPayload, &garbled)]);
        }
    }

    lifecycle_tests!(Dot);

    fn dot_tls_bytes() -> u64 {
        let cfg = localhost(TransportKind::Dot, ReusePolicy::Fresh);
        handshake_bytes(&cfg.tls().unwrap()) as u64
    }

    #[test]
    fn cold_resolution_answers_and_charges_the_handshake() {
        let (mut sim, mut driver, client) =
            driven(&localhost(TransportKind::Dot, ReusePolicy::Fresh), 1);
        let response = driver.resolve(&mut sim, client, &name(), 1).unwrap();
        assert_eq!(response.answers[0].name, name());
        driver.run_until_quiescent(&mut sim);
        let cost = sim.meter.cost(1);
        // The resolution paid the whole TLS handshake plus two sealed
        // records (21 B overhead each way).
        assert_eq!(cost.layers.tls, dot_tls_bytes() + 2 * 21);
        // DNS bytes: 2-byte prefix + message, each way.
        let query_len = Message::query(1, &name(), RecordType::A).encode().len() as u64;
        let resp_len = response.encode().len() as u64;
        assert_eq!(cost.layers.dns, query_len + resp_len + 4);
    }

    #[test]
    fn fresh_policy_closes_and_reopens_per_query() {
        let (mut sim, mut client, mut server) =
            pair::<Dot>(&localhost(TransportKind::Dot, ReusePolicy::Fresh), 2);
        for id in 1..=2u16 {
            resolve(&mut sim, &mut client, &mut server, &name(), id).unwrap();
            assert!(!client.is_connected(), "cold connection must close");
        }
        pump(&mut sim, &mut client, &mut server);
        assert_eq!(server.open_connections(), 0);
        // Both resolutions paid the full handshake independently.
        assert_eq!(sim.meter.cost(1).layers.tls, dot_tls_bytes() + 2 * 21);
        assert_eq!(sim.meter.cost(2).layers.tls, dot_tls_bytes() + 2 * 21);
    }

    #[test]
    fn persistent_policy_amortises_the_handshake() {
        let (mut sim, mut client, mut server) =
            pair::<Dot>(&localhost(TransportKind::Dot, ReusePolicy::Persistent), 3);
        for id in 1..=5u16 {
            resolve(&mut sim, &mut client, &mut server, &name(), id).unwrap();
        }
        assert!(client.is_connected());
        sim.drain();
        // Setup lives under the connection attribution…
        assert_eq!(sim.meter.cost(0).layers.tls, dot_tls_bytes());
        // …and each resolution pays only per-record framing overhead.
        for id in 1..=5u32 {
            assert_eq!(sim.meter.cost(id).layers.tls, 2 * 21, "id {id}");
        }
    }

    #[test]
    fn identical_seeds_reproduce_identical_dot_costs() {
        let run = |seed: u64| {
            let (mut sim, mut driver, client) =
                driven(&localhost(TransportKind::Dot, ReusePolicy::Persistent), seed);
            for id in 1..=3u16 {
                driver.resolve(&mut sim, client, &name(), id).unwrap();
            }
            sim.drain();
            (sim.meter.total(), sim.now())
        };
        assert_eq!(run(7), run(7));
    }
}
