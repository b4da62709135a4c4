//! Layer probes: host time per call of the public functions each layer
//! exposes, fed with the names the workload itself queries on the run's
//! seed. Each figure is the median over several batches of calls.

use crate::clock;
use dohmark::dns::{Message, Name, RecordType};
use dohmark::doh::doh1::{DNS_MESSAGE, DOH_PATH};
use dohmark::http::h1::{Request, RequestParser};
use dohmark::http::h2::{Frame, FrameDecoder};
use dohmark::http::hpack::{Decoder, Encoder};
use dohmark::netsim::{LayerTag, LinkConfig, Sim, SimDuration, SimRng, SimTime, Wake};
use dohmark::tls::{seal, Deframer};
use dohmark::workload::SiteModel;
use dohmark_bench::{stats, SITE_STREAM};
use std::hint::black_box;
use std::net::Ipv4Addr;

/// Batches per probe; the reported figure is their median.
const BATCHES: usize = 9;

/// Sockets bound in the crowded UDP probe: the fleet-scale socket count.
const CROWDED_SOCKETS: usize = 64 * 1024;

/// Median over [`BATCHES`] batches of host ns per call: each batch builds
/// its state with `prep` (untimed) and then makes `calls` timed calls of
/// `op`, passing the call index.
fn ns_per_call<S>(
    calls: usize,
    mut prep: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, usize),
) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = prep();
            let start = clock::now();
            for i in 0..calls {
                op(&mut state, i);
            }
            let secs = clock::secs_since(start);
            drop(state);
            secs * 1e9 / calls as f64
        })
        .collect();
    stats::median(&samples)
}

/// Runs every probe; `names` are the workload's own names on `seed`.
pub fn run(names: &[Name], seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("netsim.udp_deliver_ns.s1", udp_deliver_ns(seed, 2, 20_000)),
        ("netsim.udp_deliver_ns.s64k", udp_deliver_ns(seed, CROWDED_SOCKETS, 60)),
        ("netsim.event_ns.d1k", event_ns(seed, 1_000)),
        ("netsim.event_ns.d64k", event_ns(seed, 64_000)),
        ("netsim.tcp_segment_ns", tcp_segment_ns(seed)),
        ("workload.next_page_us", next_page_us(seed)),
    ];
    out.extend(codec_probes(names));
    out
}

/// `udp_send` → `next_wake` → `udp_recv` between two sockets, with
/// `sockets` UDP sockets bound in all (the receiving one last).
fn udp_deliver_ns(seed: u64, sockets: usize, calls: usize) -> f64 {
    let mut sim = Sim::new(seed);
    let a = sim.add_host("a");
    let b = sim.add_host("b");
    let idle = sim.add_host("idle");
    sim.add_link(a, b, LinkConfig::localhost());
    let src = sim.udp_bind(a, 0);
    // Idle sockets sit on a host no datagram is addressed to, so every
    // delivery passes them before it reaches the receiver.
    for _ in 2..sockets {
        sim.udp_bind(idle, 0);
    }
    let dst = sim.udp_bind(b, 53);
    let payload = vec![0u8; 64];
    ns_per_call(
        calls,
        || (),
        |_, _| {
            sim.udp_send(src, (b, 53), LayerTag::DnsPayload, payload.clone());
            let wake = sim.next_wake();
            debug_assert!(matches!(wake, Some(Wake::UdpReadable { .. })));
            black_box(sim.udp_recv(dst));
        },
    )
}

/// `schedule_app` plus the `next_wake` that pops it, with `depth` other
/// timers pending.
fn event_ns(seed: u64, depth: usize) -> f64 {
    let mut sim = Sim::new(seed);
    for token in 0..depth as u64 {
        sim.schedule_app(SimTime(u64::MAX / 2), token);
    }
    ns_per_call(
        20_000,
        || (),
        |_, i| {
            sim.schedule_app_in(SimDuration::from_nanos(1), i as u64);
            black_box(sim.next_wake());
        },
    )
}

/// Host ns per TCP packet (data and ACKs) of a 256 KiB bulk `tcp_send`
/// over a localhost link, run to quiescence.
fn tcp_segment_ns(seed: u64) -> f64 {
    let data = vec![0u8; 256 * 1024];
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("a");
            let b = sim.add_host("b");
            sim.add_link(a, b, LinkConfig::localhost());
            sim.tcp_listen(b, 853);
            let conn = sim.tcp_connect(a, (b, 853));
            while let Some(wake) = sim.next_wake() {
                if matches!(wake, Wake::TcpConnected { .. }) {
                    break;
                }
            }
            let before = sim.meter.total().packets;
            let start = clock::now();
            sim.tcp_send(conn, LayerTag::DnsPayload, &data);
            sim.drain();
            let secs = clock::secs_since(start);
            secs * 1e9 / (sim.meter.total().packets - before).max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

/// The DNS, TLS and HTTP codec probes over DoH-shaped messages built from
/// `names`.
fn codec_probes(names: &[Name]) -> Vec<(&'static str, f64)> {
    let queries: Vec<Message> = names
        .iter()
        .enumerate()
        .map(|(i, name)| Message::query(i as u16, name, RecordType::A))
        .collect();
    let responses: Vec<Message> = queries
        .iter()
        .map(|q| Message::fixed_a_response(q, Ipv4Addr::new(192, 0, 2, 1), 300))
        .collect();
    let messages: Vec<&Message> = queries.iter().chain(&responses).collect();
    let wire: Vec<Vec<u8>> = messages.iter().map(|m| m.encode()).collect();
    for bytes in &wire {
        let decoded = Message::decode(bytes).expect("workload messages decode");
        assert_eq!(&decoded.encode(), bytes, "DNS wire round trip");
    }
    let query_wire = &wire[..queries.len()];
    let response_wire = &wire[queries.len()..];
    let n = names.len();

    let dns_encode = ns_per_call(
        messages.len(),
        || (),
        |_, i| {
            black_box(messages[i].encode());
        },
    );
    let dns_decode = ns_per_call(
        wire.len(),
        || (),
        |_, i| {
            black_box(Message::decode(&wire[i]).is_ok());
        },
    );

    // TLS records carrying DoH responses.
    let tls_seal = ns_per_call(
        n,
        || (),
        |_, i| {
            black_box(seal(&response_wire[i]));
        },
    );
    let records: Vec<Vec<u8>> = response_wire
        .iter()
        .map(|p| {
            seal(p)
                .into_iter()
                .flat_map(|r| [r.header.to_vec(), r.plaintext, r.tag.to_vec()].concat())
                .collect()
        })
        .collect();
    let tls_deframe = ns_per_call(n, Deframer::new, |d, i| {
        d.push(&records[i]);
        black_box(d.next_plaintext());
    });

    // DoH/2 request headers, as the client sends them.
    let header_lists: Vec<Vec<(String, String)>> = query_wire
        .iter()
        .map(|q| {
            [
                (":method", "POST"),
                (":scheme", "https"),
                (":authority", "resolver.dohmark.test"),
                (":path", DOH_PATH),
                ("accept", DNS_MESSAGE),
                ("content-type", DNS_MESSAGE),
                ("content-length", &q.len().to_string()),
            ]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
        })
        .collect();
    let hpack_encode = ns_per_call(n, Encoder::new, |e, i| {
        black_box(e.encode(&header_lists[i]));
    });
    let mut encoder = Encoder::new();
    let blocks: Vec<Vec<u8>> = header_lists.iter().map(|h| encoder.encode(h)).collect();
    let hpack_decode = ns_per_call(n, Decoder::new, |d, i| {
        black_box(d.decode(&blocks[i]).is_ok());
    });

    let frames: Vec<[Frame; 2]> = blocks
        .iter()
        .zip(query_wire)
        .enumerate()
        .map(|(i, (block, q))| {
            let stream_id = 2 * i as u32 + 1;
            [
                Frame::Headers { stream_id, block: block.clone(), end_stream: false },
                Frame::Data { stream_id, data: q.clone(), end_stream: true },
            ]
        })
        .collect();
    let h2_frame = ns_per_call(n, FrameDecoder::new, |d, i| {
        for frame in &frames[i] {
            d.push(&frame.encode());
            black_box(d.next_frame().is_ok());
        }
    });

    let requests: Vec<Request> = query_wire
        .iter()
        .map(|q| {
            Request::new(
                "POST",
                DOH_PATH,
                vec![
                    ("host".to_string(), "resolver.dohmark.test".to_string()),
                    ("accept".to_string(), DNS_MESSAGE.to_string()),
                    ("content-type".to_string(), DNS_MESSAGE.to_string()),
                ],
            )
            .with_body(q.clone())
        })
        .collect();
    let h1 = ns_per_call(n, RequestParser::new, |p, i| {
        p.push(&requests[i].encode().concat());
        black_box(p.next_request().is_ok());
    });

    vec![
        ("dns.encode_ns", dns_encode),
        ("dns.decode_ns", dns_decode),
        ("tls.seal_ns", tls_seal),
        ("tls.deframe_ns", tls_deframe),
        ("http.hpack_encode_ns", hpack_encode),
        ("http.hpack_decode_ns", hpack_decode),
        ("http.h2_frame_ns", h2_frame),
        ("http.h1_ns", h1),
    ]
}

/// `SiteModel::next_page` on the page-load workload's site model.
fn next_page_us(seed: u64) -> f64 {
    let zone = Name::parse("sites.dohmark.test").expect("static zone name parses");
    let mut rng = SimRng::new(seed).split(SITE_STREAM);
    ns_per_call(
        200,
        || SiteModel::new(&mut rng, &zone, 1_000, 1.0),
        |model, _| {
            black_box(model.next_page());
        },
    ) / 1e3
}
