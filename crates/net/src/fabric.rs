//! The named-endpoint network fabric.
//!
//! Components bind string addresses ("controller:8443"), peers connect to
//! them, and the operator (or adversary) can attach taps to any address.

use crate::fault::{FaultPlan, LinkControl, RefuseReason};
use crate::stream::{Duplex, TapHandle};
use crate::NetError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vnfguard_telemetry::{Counter, Telemetry};

/// Pre-fetched fabric counters (avoids registry lookups on the hot path).
#[derive(Clone)]
struct FabricCounters {
    connections: Counter,
    refusals: Counter,
    bytes: Counter,
}

/// What a listener's queue carries: an inbound connection, or `None` from
/// a [`ListenerWaker`].
type Inbound = Option<Duplex>;

#[derive(Default)]
struct NetworkInner {
    listeners: HashMap<String, Sender<Inbound>>,
    taps: HashMap<String, TapHandle>,
    connections: u64,
    faults: Option<FaultPlan>,
    counters: Option<FabricCounters>,
}

/// A shared network fabric. Cloning shares the same fabric.
#[derive(Clone, Default)]
pub struct Network {
    inner: Arc<Mutex<NetworkInner>>,
}

impl Network {
    pub fn new() -> Network {
        Network::default()
    }

    /// Attach telemetry: connection attempts, refusals (missing listener or
    /// injected fault), and bytes carried over future connections land in
    /// `vnfguard_net_*` counters.
    pub fn set_telemetry(&self, telemetry: &Telemetry) {
        let net = telemetry.namespace("net");
        self.inner.lock().counters = Some(FabricCounters {
            connections: net.counter("connections_total", &[]),
            refusals: net.counter("refusals_total", &[]),
            bytes: net.counter("bytes_total", &[]),
        });
    }

    /// Bind a listener at `addr`.
    pub fn listen(&self, addr: &str) -> Result<Listener, NetError> {
        let mut inner = self.inner.lock();
        if inner.listeners.contains_key(addr) {
            return Err(NetError::AddressInUse(addr.to_string()));
        }
        let (tx, rx) = unbounded();
        inner.listeners.insert(addr.to_string(), tx.clone());
        Ok(Listener {
            addr: addr.to_string(),
            rx,
            waker: tx,
            network: self.clone(),
        })
    }

    /// Connect to `addr`, returning the client stream half. The origin is
    /// anonymous; use [`connect_from`](Self::connect_from) when the caller
    /// should be subject to named-group partitions.
    pub fn connect(&self, addr: &str) -> Result<Duplex, NetError> {
        self.connect_from("", addr)
    }

    /// Connect to `addr` as the named endpoint `origin`. Fault plans use
    /// the origin to enforce partitions between endpoint groups.
    pub fn connect_from(&self, origin: &str, addr: &str) -> Result<Duplex, NetError> {
        let (tap, listener_tx, faults, counters) = {
            let mut inner = self.inner.lock();
            let counters = inner.counters.clone();
            let tx = match inner.listeners.get(addr).cloned() {
                Some(tx) => tx,
                None => {
                    if let Some(c) = &counters {
                        c.refusals.inc();
                    }
                    return Err(NetError::ConnectionRefused(addr.to_string()));
                }
            };
            inner.connections += 1;
            (
                inner.taps.get(addr).cloned(),
                tx,
                inner.faults.clone(),
                counters,
            )
        };
        let mut latency = Duration::ZERO;
        let mut control = LinkControl::default();
        if let Some(plan) = &faults {
            match plan.admit(origin, addr) {
                Ok(setup) => {
                    latency = setup.extra_latency;
                    control = LinkControl::with_faults(setup.stalled, setup.drop_after_bytes);
                }
                // Injected refusals are indistinguishable from a missing
                // listener to the caller (as on a real network); the fault
                // event log is the bookkeeping channel.
                Err(
                    RefuseReason::Probabilistic
                    | RefuseReason::Scheduled
                    | RefuseReason::Isolated
                    | RefuseReason::Partitioned,
                ) => {
                    if let Some(c) = &counters {
                        c.refusals.inc();
                    }
                    return Err(NetError::ConnectionRefused(addr.to_string()));
                }
            }
        }
        let control = Arc::new(control);
        let (mut client, mut server) =
            Duplex::pair_with_control(latency, tap.as_ref(), control.clone());
        if let Some(c) = &counters {
            c.connections.inc();
            // Both halves feed one fabric-wide counter, so it totals the
            // bytes carried in both directions.
            client.attach_byte_counter(c.bytes.clone());
            server.attach_byte_counter(c.bytes.clone());
        }
        if let Some(plan) = &faults {
            plan.register_link(origin, addr, &control);
        }
        listener_tx
            .send(Some(server))
            .map_err(|_| NetError::ConnectionRefused(addr.to_string()))?;
        Ok(client)
    }

    /// Attach a fault plan governing all future connections. Passing a
    /// clone of a plan shares its seed, rules and event log.
    pub fn install_faults(&self, plan: &FaultPlan) {
        self.inner.lock().faults = Some(plan.clone());
    }

    /// Attach (or fetch) a tap on `addr`: every connection established to
    /// that address *after* this call is recorded.
    pub fn tap(&self, addr: &str) -> TapHandle {
        self.inner
            .lock()
            .taps
            .entry(addr.to_string())
            .or_default()
            .clone()
    }

    /// Total connections established through this fabric.
    pub fn connection_count(&self) -> u64 {
        self.inner.lock().connections
    }

    fn unbind(&self, addr: &str) {
        self.inner.lock().listeners.remove(addr);
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Network")
            .field("listeners", &inner.listeners.len())
            .field("taps", &inner.taps.len())
            .field("connections", &inner.connections)
            .finish()
    }
}

/// A bound listener; unbinds its address when dropped.
pub struct Listener {
    addr: String,
    rx: Receiver<Inbound>,
    waker: Sender<Inbound>,
    network: Network,
}

impl Listener {
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Block until the next inbound connection. Returns
    /// `Err(ConnectionClosed)` instead when a [`ListenerWaker`] fires.
    pub fn accept(&self) -> Result<Duplex, NetError> {
        self.rx
            .recv()
            .ok()
            .flatten()
            .ok_or(NetError::ConnectionClosed)
    }

    /// Non-blocking accept.
    pub fn try_accept(&self) -> Option<Duplex> {
        self.rx.try_recv().ok().flatten()
    }

    /// A handle that wakes one blocked (or the next) [`accept`](Self::accept)
    /// from any thread, without unbinding the address.
    pub fn waker(&self) -> ListenerWaker {
        ListenerWaker(self.waker.clone())
    }
}

/// Wakes a thread blocked in [`Listener::accept`]; see [`Listener::waker`].
pub struct ListenerWaker(Sender<Inbound>);

impl ListenerWaker {
    pub fn wake(&self) {
        let _ = self.0.send(None);
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.network.unbind(&self.addr);
    }
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Listener")
            .field("addr", &self.addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn connect_and_exchange() {
        let net = Network::new();
        let listener = net.listen("controller:8080").unwrap();
        let mut client = net.connect("controller:8080").unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        assert_eq!(net.connection_count(), 1);
    }

    #[test]
    fn refuses_unknown_address() {
        let net = Network::new();
        assert!(matches!(
            net.connect("nobody:1"),
            Err(NetError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn rejects_double_bind() {
        let net = Network::new();
        let _l = net.listen("x:1").unwrap();
        assert!(matches!(net.listen("x:1"), Err(NetError::AddressInUse(_))));
    }

    #[test]
    fn rebind_after_drop() {
        let net = Network::new();
        drop(net.listen("x:1").unwrap());
        assert!(net.listen("x:1").is_ok());
    }

    #[test]
    fn multiple_clients_one_listener() {
        let net = Network::new();
        let listener = net.listen("svc:1").unwrap();
        let mut c1 = net.connect("svc:1").unwrap();
        let mut c2 = net.connect("svc:1").unwrap();
        let mut s1 = listener.accept().unwrap();
        let mut s2 = listener.accept().unwrap();
        c1.write_all(b"one").unwrap();
        c2.write_all(b"two").unwrap();
        let mut b1 = [0u8; 3];
        s1.read_exact(&mut b1).unwrap();
        let mut b2 = [0u8; 3];
        s2.read_exact(&mut b2).unwrap();
        assert_eq!(&b1, b"one");
        assert_eq!(&b2, b"two");
    }

    #[test]
    fn tap_observes_future_connections() {
        let net = Network::new();
        let listener = net.listen("svc:1").unwrap();
        let tap = net.tap("svc:1");
        let mut client = net.connect("svc:1").unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(b"password=hunter2").unwrap();
        let mut buf = [0u8; 16];
        server.read_exact(&mut buf).unwrap();
        assert!(tap.contains(b"hunter2"));
    }

    #[test]
    fn fault_plan_refuses_scheduled_connections() {
        let net = Network::new();
        let plan = crate::fault::FaultPlan::seeded(3);
        net.install_faults(&plan);
        let _listener = net.listen("ias:443").unwrap();
        plan.refuse_next("ias:443", 1);
        assert!(matches!(
            net.connect("ias:443"),
            Err(NetError::ConnectionRefused(_))
        ));
        assert!(net.connect("ias:443").is_ok());
    }

    #[test]
    fn isolate_severs_established_connections() {
        let net = Network::new();
        let plan = crate::fault::FaultPlan::seeded(3);
        net.install_faults(&plan);
        let listener = net.listen("agent:7000").unwrap();
        let mut client = net.connect("agent:7000").unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(b"pre").unwrap();
        let mut buf = [0u8; 3];
        server.read_exact(&mut buf).unwrap();

        plan.isolate("agent:7000");
        assert!(client.write_all(b"post").is_err());
        assert!(matches!(
            net.connect("agent:7000"),
            Err(NetError::ConnectionRefused(_))
        ));
        plan.heal("agent:7000");
        assert!(net.connect("agent:7000").is_ok());
    }

    #[test]
    fn group_partition_respects_origins() {
        let net = Network::new();
        let plan = crate::fault::FaultPlan::seeded(3);
        net.install_faults(&plan);
        let _listener = net.listen("ias:443").unwrap();
        plan.partition(&["vm"], &["ias:443"]);
        assert!(net.connect_from("vm", "ias:443").is_err());
        // Unnamed and unrelated origins still get through.
        assert!(net.connect("ias:443").is_ok());
        assert!(net.connect_from("agent", "ias:443").is_ok());
        plan.heal_partition();
        assert!(net.connect_from("vm", "ias:443").is_ok());
    }

    #[test]
    fn injected_latency_delays_connection_traffic() {
        let net = Network::new();
        let plan = crate::fault::FaultPlan::seeded(3);
        net.install_faults(&plan);
        let listener = net.listen("svc:1").unwrap();
        plan.add_latency("svc:1", Duration::from_millis(25), Duration::ZERO);
        let mut client = net.connect("svc:1").unwrap();
        let mut server = listener.accept().unwrap();
        let start = std::time::Instant::now();
        client.write_all(b"x").unwrap();
        let mut buf = [0u8; 1];
        server.read_exact(&mut buf).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "latency not injected: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn telemetry_counts_connections_refusals_and_bytes() {
        let net = Network::new();
        let telemetry = Telemetry::new();
        net.set_telemetry(&telemetry);
        let listener = net.listen("svc:1").unwrap();
        let mut client = net.connect("svc:1").unwrap();
        let mut server = listener.accept().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        server.write_all(b"pong!").unwrap();
        let mut buf = [0u8; 5];
        client.read_exact(&mut buf).unwrap();
        let _ = net.connect("nobody:1");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("vnfguard_net_connections_total"),
            Some(1)
        );
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("vnfguard_net_refusals_total"),
            Some(1)
        );
        // 4 bytes client→server plus 5 back.
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("vnfguard_net_bytes_total"),
            Some(9)
        );
    }

    #[test]
    fn waker_interrupts_a_blocked_accept() {
        let net = Network::new();
        let listener = net.listen("svc:1").unwrap();
        let waker = listener.waker();
        // Whether the accept is already blocked or not yet called when the
        // wake lands, it returns an error instead of a connection.
        let blocked = std::thread::spawn(move || listener.accept().is_err());
        waker.wake();
        assert!(blocked.join().unwrap(), "woken accept returns an error");
        // The listener dropped with the thread: the address is free again.
        assert!(net.listen("svc:1").is_ok());
    }

    #[test]
    fn try_accept_nonblocking() {
        let net = Network::new();
        let listener = net.listen("svc:1").unwrap();
        assert!(listener.try_accept().is_none());
        let _client = net.connect("svc:1").unwrap();
        assert!(listener.try_accept().is_some());
    }
}
