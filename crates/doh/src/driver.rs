//! Addressed wake routing: the [`Driver`] registry that scales topologies
//! from one echo pair to thousands of endpoints.
//!
//! The netsim layer stamps every socket, listener, connection and timer
//! with the **owner id** current at creation time ([`Sim::set_owner`])
//! and returns it alongside each wake ([`Sim::next_wake_owned`]); the
//! `Driver` uses that to route each wake straight to the one endpoint
//! that owns the underlying handle — O(1) per wake, independent of
//! topology size.
//!
//! Endpoints are registered through a closure so that every handle they
//! create during construction (server listeners, resolver upstream
//! sockets) is stamped with their [`EndpointId`]; the driver re-installs
//! the owner before every callback, so handles created *later* (reconnects
//! after a FIN, fresh per-query sockets, accepted server connections via
//! the listener's owner) inherit the right id too.
//!
//! [`Driver::step`] is the one event loop: it pops a wake, routes it and
//! says where it went. [`Driver::resolve`], [`Driver::advance_until`],
//! [`Driver::run_until_quiescent`] and the page-load engine all step the
//! driver. Endpoint timers need no reserved tokens: owner routing keeps
//! each endpoint's timers apart, and a timer the caller arms unowned comes
//! back to the caller as [`Step::Timer`].
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
//! let server = driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
//! let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
//! let name = Name::parse("example.com").unwrap();
//! let response = driver.resolve(&mut sim, client, &name, 1).unwrap();
//! assert_eq!(response.header.id, 1);
//! # let _ = server;
//! ```

use crate::{Endpoint, Resolver};
use dohmark_dns_wire::{Message, Name};
use dohmark_netsim::{Sim, SimDuration, SimTime, Wake};

/// Arms an application timer on behalf of an endpoint — the blessed wake
/// scheduling path for endpoint re-arm logic (retransmission timeouts,
/// keep-alives). Lives in the driver module so all wake scheduling stays
/// auditable in one place; the timer inherits the owner installed around
/// the calling endpoint's callback, so the [`Driver`] routes the eventual
/// [`Wake::AppTimer`] straight back to that endpoint.
pub(crate) fn schedule_endpoint_timer(sim: &mut Sim, delay: SimDuration, token: u64) {
    sim.schedule_app_in(delay, token);
}

/// Identifier of an endpoint registered with a [`Driver`]. Doubles as the
/// netsim wake-ownership id the endpoint's handles are stamped with; id
/// `0` is reserved for "unowned".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(u64);

impl EndpointId {
    /// The raw ownership id (what [`Sim::owner`] reports inside this
    /// endpoint's callbacks).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// What one [`Driver::step`] did with the wake it popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The wake went to this endpoint's [`Endpoint::on_wake`].
    Routed(EndpointId),
    /// An unowned application timer, armed by the caller outside any
    /// endpoint callback, fired with this token.
    Timer(u64),
}

/// Registered endpoints keep their concrete capability: plain endpoints
/// only receive wakes, resolvers additionally issue queries.
enum Slot {
    Endpoint(Box<dyn Endpoint>),
    Resolver(Box<dyn Resolver>),
}

impl Slot {
    fn on_wake(&mut self, sim: &mut Sim, wake: &Wake) {
        match self {
            Slot::Endpoint(e) => e.on_wake(sim, wake),
            Slot::Resolver(r) => r.on_wake(sim, wake),
        }
    }
}

/// An [`EndpointId`]-keyed endpoint registry with addressed wake dispatch.
///
/// See the crate-level docs for the routing model.
#[derive(Default)]
pub struct Driver {
    slots: Vec<Slot>,
    unrouted: u64,
}

impl Driver {
    /// An empty registry.
    pub fn new() -> Driver {
        Driver::default()
    }

    /// Registered endpoint count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no endpoint is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Wakes whose owner was unknown to this driver (owner 0 or an id it
    /// never issued) — nonzero values usually mean an endpoint was built
    /// outside [`Driver::register`].
    pub fn unrouted_wakes(&self) -> u64 {
        self.unrouted
    }

    fn register_slot(&mut self, sim: &mut Sim, build: impl FnOnce(&mut Sim) -> Slot) -> EndpointId {
        let id = EndpointId(self.slots.len() as u64 + 1);
        let prev = sim.owner();
        sim.set_owner(id.0);
        let slot = build(sim);
        sim.set_owner(prev);
        self.slots.push(slot);
        id
    }

    /// Registers an endpoint (typically a server). The `build` closure runs
    /// with the new id installed as the simulator's owner, so every handle
    /// it creates (listeners, sockets) is stamped with it.
    pub fn register(
        &mut self,
        sim: &mut Sim,
        build: impl FnOnce(&mut Sim) -> Box<dyn Endpoint>,
    ) -> EndpointId {
        self.register_slot(sim, |sim| Slot::Endpoint(build(sim)))
    }

    /// [`Driver::register`] for clients, keeping the [`Resolver`] API
    /// ([`Driver::send_query`] / [`Driver::take_response`]) available.
    pub fn register_resolver(
        &mut self,
        sim: &mut Sim,
        build: impl FnOnce(&mut Sim) -> Box<dyn Resolver>,
    ) -> EndpointId {
        self.register_slot(sim, |sim| Slot::Resolver(build(sim)))
    }

    fn slot_mut(&mut self, id: EndpointId) -> &mut Slot {
        &mut self.slots[id.0 as usize - 1]
    }

    fn resolver_mut(&mut self, id: EndpointId) -> &mut dyn Resolver {
        match self.slot_mut(id) {
            Slot::Resolver(r) => r.as_mut(),
            Slot::Endpoint(_) => panic!("endpoint {} is not a resolver", id.0),
        }
    }

    /// Starts a resolution on the registered client `id` (transaction and
    /// attribution id `txn`) without driving the loop; pair with
    /// [`Driver::run_until_quiescent`] / [`Driver::take_response`] to
    /// overlap many in-flight resolutions.
    pub fn send_query(&mut self, sim: &mut Sim, id: EndpointId, name: &Name, txn: u16) {
        let prev = sim.owner();
        sim.set_owner(id.0);
        self.resolver_mut(id).send_query(sim, name, txn);
        sim.set_owner(prev);
    }

    /// Removes and returns client `id`'s response to transaction `txn`.
    pub fn take_response(&mut self, id: EndpointId, txn: u16) -> Option<Message> {
        self.resolver_mut(id).take_response(txn)
    }

    /// Initiates a graceful teardown of client `id`'s transport state.
    pub fn close(&mut self, sim: &mut Sim, id: EndpointId) {
        let prev = sim.owner();
        sim.set_owner(id.0);
        self.resolver_mut(id).close(sim);
        sim.set_owner(prev);
    }

    /// Pops the next wake and routes it to the endpoint owning its
    /// handle, installing that endpoint's id as the simulator owner for
    /// the duration of the callback (so reconnects inherit it). Every
    /// loop over the simulation runs on this one call.
    ///
    /// An unowned [`Wake::AppTimer`] — one the caller armed outside any
    /// endpoint callback — comes back as [`Step::Timer`] for the caller to
    /// handle. Any other wake whose owner is not a registered endpoint is
    /// counted in [`Driver::unrouted_wakes`] and skipped. Returns `None`
    /// once the simulation has run dry.
    pub fn step(&mut self, sim: &mut Sim) -> Option<Step> {
        loop {
            let (wake, owner) = sim.next_wake_owned()?;
            let slot = (owner as usize).checked_sub(1).and_then(|i| self.slots.get_mut(i));
            let Some(slot) = slot else {
                match wake {
                    Wake::AppTimer { token, .. } if owner == 0 => return Some(Step::Timer(token)),
                    _ => self.unrouted += 1,
                }
                continue;
            };
            let prev = sim.owner();
            sim.set_owner(owner);
            slot.on_wake(sim, &wake);
            sim.set_owner(prev);
            return Some(Step::Routed(EndpointId(owner)));
        }
    }

    /// Sends one query from client `id` and runs the simulation until the
    /// response arrives. Returns `None` if the simulation runs dry first.
    pub fn resolve(
        &mut self,
        sim: &mut Sim,
        id: EndpointId,
        name: &Name,
        txn: u16,
    ) -> Option<Message> {
        self.send_query(sim, id, name, txn);
        loop {
            match self.step(sim)? {
                Step::Routed(owner) if owner == id => {
                    if let Some(response) = self.take_response(id, txn) {
                        return Some(response);
                    }
                }
                Step::Routed(_) => {}
                Step::Timer(_) => self.unrouted += 1,
            }
        }
    }

    /// Runs the simulation to quiescence, routing every wake to its owner
    /// — unlike [`Sim::drain`], which discards wakes, so teardown traffic
    /// (FINs) still reaches the endpoints' state machines.
    pub fn run_until_quiescent(&mut self, sim: &mut Sim) {
        while let Some(step) = self.step(sim) {
            if let Step::Timer(_) = step {
                self.unrouted += 1;
            }
        }
    }

    /// Advances the simulation to time `at`, routing every wake seen on
    /// the way (leftover ACKs, FIN teardown, late responses) — the idle
    /// time between two workload arrivals. Arms one unowned timer whose
    /// token is its deadline in nanoseconds and returns when it fires;
    /// any other unowned timer firing first counts as unrouted.
    pub fn advance_until(&mut self, sim: &mut Sim, at: SimTime) {
        let token = at.as_nanos();
        let prev = sim.owner();
        sim.set_owner(0);
        sim.schedule_app(at, token);
        sim.set_owner(prev);
        while let Some(step) = self.step(sim) {
            match step {
                Step::Timer(t) if t == token => return,
                Step::Timer(_) => self.unrouted += 1,
                Step::Routed(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{driven, localhost};
    use crate::{ReusePolicy, TransportConfig, TransportKind, UdpRetry};
    use dohmark_netsim::LinkConfig;

    fn do53() -> TransportConfig {
        localhost(TransportKind::Do53, ReusePolicy::Fresh)
    }

    #[test]
    fn an_unowned_timer_comes_back_to_the_caller() {
        let (mut sim, mut driver, _client) = driven(&do53(), 1);
        sim.schedule_app(SimTime(1_000), 7);
        assert_eq!(driver.step(&mut sim), Some(Step::Timer(7)));
        assert_eq!(driver.unrouted_wakes(), 0);
        assert_eq!(driver.step(&mut sim), None);
    }

    #[test]
    fn a_stray_timer_during_quiescence_counts_once_as_unrouted() {
        let (mut sim, mut driver, client) = driven(&do53(), 2);
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        driver.send_query(&mut sim, client, &name, 1);
        sim.schedule_app(SimTime(1_000), 7);
        driver.run_until_quiescent(&mut sim);
        assert_eq!(driver.unrouted_wakes(), 1);
        assert!(driver.take_response(client, 1).is_some());
    }

    #[test]
    fn retry_timers_are_scoped_to_their_client() {
        // Two retrying stubs behind dead links send the same txn id: each
        // must retransmit its own query on its own timers, and only that.
        let retry = UdpRetry { initial: SimDuration::from_millis(200), max_retries: 2 };
        let cfg = TransportConfig { link: LinkConfig::localhost().loss(1.0), ..do53() }
            .with_udp_retry(retry);
        let mut sim = Sim::new(3);
        sim.trace.enable(32);
        let stubs = [sim.add_host("stub-a"), sim.add_host("stub-b")];
        let resolver = sim.add_host("resolver");
        let mut driver = Driver::new();
        driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
        let name = Name::parse("abcdefgh.dohmark.test").unwrap();
        for stub in stubs {
            sim.add_link(stub, resolver, cfg.link);
            let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
            driver.send_query(&mut sim, client, &name, 1);
        }
        driver.run_until_quiescent(&mut sim);
        assert_eq!(driver.unrouted_wakes(), 0);
        for host in ["stub-a", "stub-b"] {
            let sends: Vec<_> = sim
                .trace
                .records()
                .iter()
                .filter(|r| r.direction.starts_with(host))
                .map(|r| r.direction.clone())
                .collect();
            assert_eq!(sends.len(), 3, "{host}: original + 2 retransmissions: {sends:?}");
            assert!(sends.iter().all(|s| s == &sends[0]), "{host}: {sends:?}");
        }
    }
}
