//! HTTP serving over the fabric, on a pool of reusable handler threads.
//!
//! Every server runs its connections on one pool ([`serve_connections`]):
//! each worker thread blocks in [`Listener::accept`] itself, serves the
//! connection it takes to its end, and goes back to accepting. A worker
//! that takes a connection while no other worker is idle first starts a
//! replacement, so no connection waits for a busy one; a worker coming back
//! while `MAX_IDLE` others are idle exits, so a burst does not leave its
//! threads behind. [`serve`] runs HTTP with keep-alive on that pool.
//!
//! The security handshake (if any) is injected as a *stream wrapper*: the
//! TLS layer in `vnfguard-tls` provides a wrapper that upgrades the raw
//! stream before HTTP begins, which is how the controller's three security
//! modes are composed (plain HTTP uses the identity wrapper).

use crate::fabric::Listener;
use crate::fault::LinkControl;
use crate::http::{read_request, write_response};
use crate::rest::Router;
use crate::stream::Duplex;
use crate::NetError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Idle handler threads a server keeps between connections. With `n` kept,
/// up to `n - 1` concurrent connections recur without a spawn. The fabric's
/// servers see one to three at a time outside bursts (wirebench drives two
/// clients, each holding at most one connection per server), so four serve
/// steady traffic with no spawn, while a burst's surplus exits as it
/// drains.
const MAX_IDLE: usize = 4;

/// Upgrades an accepted raw stream (e.g. performs a TLS handshake) and
/// returns the application-layer stream plus optional peer identity data.
pub trait StreamUpgrade: Send + Sync + 'static {
    /// The upgraded stream type.
    type Upgraded: Read + Write + Send + 'static;

    /// Perform the server side of the upgrade. Returning an error drops the
    /// connection (e.g. client failed authentication).
    fn upgrade(&self, raw: Duplex) -> Result<(Self::Upgraded, PeerIdentity), NetError>;
}

/// Identity information established during the upgrade (client certificate
/// subject etc.); empty for unauthenticated transports.
#[derive(Debug, Clone, Default)]
pub struct PeerIdentity {
    /// Authenticated peer common name, if client auth happened.
    pub common_name: Option<String>,
    /// Serial of the presented client certificate.
    pub cert_serial: Option<u64>,
}

/// The identity upgrade: plain TCP-like service (Floodlight's HTTP mode).
pub struct PlainUpgrade;

impl StreamUpgrade for PlainUpgrade {
    type Upgraded = Duplex;

    fn upgrade(&self, raw: Duplex) -> Result<(Duplex, PeerIdentity), NetError> {
        Ok((raw, PeerIdentity::default()))
    }
}

/// Statistics exposed by a running server.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub upgrade_failures: AtomicU64,
    /// Connections being served: taken from the listener, and their
    /// handler thread not yet back in the pool. Zero after a completed
    /// shutdown.
    pub active_handlers: AtomicU64,
    /// Pool threads alive, idle or busy. Zero after a completed shutdown.
    pub handler_threads: AtomicU64,
}

/// Serves one raw connection to its end; see [`serve_connections`].
type ConnectionHandler = dyn Fn(Duplex, &ServerStats) + Send + Sync;

/// One pool thread, as `stop` needs it.
struct Worker {
    thread: JoinHandle<()>,
    /// The link of the connection the worker is serving, severed by `stop`
    /// to wake a worker parked in a read.
    link: Option<Arc<LinkControl>>,
}

#[derive(Default)]
struct PoolState {
    stopping: bool,
    /// Workers in `accept` or on their way back to it.
    idle: usize,
    next_id: u64,
    /// Every live worker, by id, until it exits or `stop` takes them.
    workers: HashMap<u64, Worker>,
    /// The last worker that exited on its own. The next one to exit joins
    /// it, and `stop` joins whichever is left.
    exited: Option<JoinHandle<()>>,
}

struct Pool {
    listener: Listener,
    handler: Box<ConnectionHandler>,
    stats: Arc<ServerStats>,
    state: Mutex<PoolState>,
}

/// Decrements `handler_threads` when a worker ends, however it ends.
struct ThreadGuard(Arc<ServerStats>);

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        self.0.handler_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Pool {
    /// Start one more idle worker. The caller holds the state lock, so the
    /// worker's entry is in place before the thread can look for it.
    fn spawn_worker(self: &Arc<Pool>, state: &mut PoolState) {
        let id = state.next_id;
        state.next_id += 1;
        state.idle += 1;
        self.stats.handler_threads.fetch_add(1, Ordering::SeqCst);
        let pool = self.clone();
        let thread = std::thread::spawn(move || pool.work(id));
        state.workers.insert(id, Worker { thread, link: None });
    }

    fn work(self: Arc<Pool>, id: u64) {
        let _alive = ThreadGuard(self.stats.clone());
        // `accept` blocks until a connection arrives or `stop` wakes it.
        while let Ok(raw) = self.listener.accept() {
            {
                let mut state = self.state.lock();
                if state.stopping {
                    return;
                }
                state.idle -= 1;
                if state.idle == 0 {
                    self.spawn_worker(&mut state);
                }
                let worker = state
                    .workers
                    .get_mut(&id)
                    .expect("a live worker is registered");
                worker.link = Some(raw.control());
            }
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            self.stats.active_handlers.fetch_add(1, Ordering::SeqCst);
            // A panicking handler ends its own connection only: the stream
            // drops as the panic unwinds, and the worker serves on.
            let _ = catch_unwind(AssertUnwindSafe(|| (self.handler)(raw, &self.stats)));
            let mut state = self.state.lock();
            let exit = state.stopping || state.idle >= MAX_IDLE;
            let previous = if state.stopping {
                // `stop` holds this worker's handle and joins it.
                None
            } else if exit {
                let own = state
                    .workers
                    .remove(&id)
                    .expect("a live worker is registered");
                state.exited.replace(own.thread)
            } else {
                state.idle += 1;
                let worker = state
                    .workers
                    .get_mut(&id)
                    .expect("a live worker is registered");
                worker.link = None;
                None
            };
            drop(state);
            // Counted down only once the worker is idle again or leaving, so
            // a client that sees no connection in service finds a worker
            // waiting.
            self.stats.active_handlers.fetch_sub(1, Ordering::SeqCst);
            if exit {
                if let Some(previous) = previous {
                    let _ = previous.join();
                }
                return;
            }
        }
    }
}

/// Handle to a running server; stops and joins on drop.
pub struct ServerHandle {
    pool: Option<Arc<Pool>>,
    stats: Arc<ServerStats>,
}

impl ServerHandle {
    pub fn connections(&self) -> u64 {
        self.stats.connections.load(Ordering::Relaxed)
    }

    pub fn requests(&self) -> u64 {
        self.stats.requests.load(Ordering::Relaxed)
    }

    pub fn upgrade_failures(&self) -> u64 {
        self.stats.upgrade_failures.load(Ordering::Relaxed)
    }

    /// Shared statistics; remains readable after [`stop`](Self::stop).
    pub fn stats(&self) -> Arc<ServerStats> {
        self.stats.clone()
    }

    /// Request shutdown: wake every idle worker, sever every in-flight
    /// connection, join every pool thread, and unbind the address before
    /// returning.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(pool) = self.pool.take() else {
            return;
        };
        let (workers, exited) = {
            let mut state = pool.state.lock();
            state.stopping = true;
            (std::mem::take(&mut state.workers), state.exited.take())
        };
        // One wake per worker reaches every worker blocked in `accept`: each
        // takes one item off the queue and then exits, and a busy worker
        // never accepts again.
        let waker = pool.listener.waker();
        for _ in 0..workers.len() {
            waker.wake();
        }
        // Workers parked in a blocking read (keep-alive connections with no
        // pending request) wake when their link is severed, so the joins
        // below cannot hang, and no thread outlives the handle.
        for worker in workers.values() {
            if let Some(link) = &worker.link {
                link.sever();
            }
        }
        for thread in workers.into_values().map(|w| w.thread).chain(exited) {
            let _ = thread.join();
        }
        // Every worker has dropped its share of the pool, so this drops the
        // listener and unbinds the address.
        drop(pool);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("connections", &self.connections())
            .field("requests", &self.requests())
            .finish()
    }
}

/// Serve every connection `listener` accepts with `handler`, on the pool
/// described in the [module docs](self). `handler` owns the raw stream and
/// returns when the connection is done; [`ServerHandle::stop`] severs the
/// links of the connections still in service.
pub fn serve_connections<H>(listener: Listener, handler: H) -> ServerHandle
where
    H: Fn(Duplex, &ServerStats) + Send + Sync + 'static,
{
    let stats = Arc::new(ServerStats::default());
    let pool = Arc::new(Pool {
        listener,
        handler: Box::new(handler),
        stats: stats.clone(),
        state: Mutex::new(PoolState::default()),
    });
    pool.spawn_worker(&mut pool.state.lock());
    ServerHandle {
        pool: Some(pool),
        stats,
    }
}

/// Headers carrying the upgrade's peer identity to the router.
const PEER_HEADERS: [&str; 2] = ["x-peer-cn", "x-peer-serial"];

/// Serve `router` on `listener`, upgrading each accepted stream through
/// `upgrade`. Each connection is served with keep-alive by one thread of
/// the server's pool (see [`serve_connections`]).
///
/// The identity the upgrade established (the client certificate's subject
/// and serial) reaches the router as the pseudo-headers `x-peer-cn` /
/// `x-peer-serial`, so ordinary routes can authorize on it. Whatever the
/// client sent under those names is dropped first: identity comes only
/// from the handshake.
pub fn serve<U: StreamUpgrade>(listener: Listener, upgrade: U, router: Router) -> ServerHandle {
    serve_connections(listener, move |raw, stats| {
        serve_http(raw, &upgrade, &router, stats)
    })
}

/// One connection's HTTP: upgrade it, then answer requests until the peer
/// closes, a request fails to parse, or the link breaks.
fn serve_http<U: StreamUpgrade>(raw: Duplex, upgrade: &U, router: &Router, stats: &ServerStats) {
    let (mut stream, identity) = match upgrade.upgrade(raw) {
        Ok(upgraded) => upgraded,
        Err(_) => {
            stats.upgrade_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    while let Ok(mut request) = read_request(&mut stream) {
        for name in PEER_HEADERS {
            request.headers.remove(name);
        }
        if let Some(cn) = &identity.common_name {
            request.headers.insert(PEER_HEADERS[0].into(), cn.clone());
        }
        if let Some(serial) = identity.cert_serial {
            request
                .headers
                .insert(PEER_HEADERS[1].into(), serial.to_string());
        }
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = router.dispatch(&request);
        if write_response(&mut stream, &response).is_err() {
            break;
        }
    }
}

/// A simple client: one request per call over a fresh or kept-alive stream.
/// Requests carry the calling thread's current trace context (see
/// [`write_request`](crate::http::write_request)).
pub struct HttpClient<S: Read + Write> {
    stream: S,
}

impl<S: Read + Write> HttpClient<S> {
    pub fn new(stream: S) -> HttpClient<S> {
        HttpClient { stream }
    }

    pub fn request(
        &mut self,
        request: &crate::http::Request,
    ) -> Result<crate::http::Response, NetError> {
        crate::http::roundtrip(&mut self.stream, request)
    }

    pub fn into_inner(self) -> S {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Network;
    use crate::http::{Method, Request, Response, Status};
    use vnfguard_encoding::Json;

    fn test_router() -> Router {
        let mut router = Router::new();
        router.get("/ping", |_, _| {
            Response::json(Status::Ok, &Json::object().with("pong", true))
        });
        router.route(Method::Post, "/echo", |request, _| {
            Response::json(Status::Ok, &request.json().unwrap_or(Json::Null))
        });
        router.get("/whoami", |request, _| {
            Response::json(
                Status::Ok,
                &Json::object().with("cn", request.header("x-peer-cn").unwrap_or("anonymous")),
            )
        });
        router
    }

    #[test]
    fn serves_requests() {
        let net = Network::new();
        let listener = net.listen("svc:80").unwrap();
        let handle = serve(listener, PlainUpgrade, test_router());

        let stream = net.connect("svc:80").unwrap();
        let mut client = HttpClient::new(stream);
        let response = client.request(&Request::get("/ping")).unwrap();
        assert_eq!(response.status, Status::Ok);
        assert_eq!(
            response.parse_json().unwrap().get("pong"),
            Some(&Json::Bool(true))
        );
        // Keep-alive: second request on the same stream.
        let response = client
            .request(&Request::post("/echo").with_json(&Json::object().with("n", 1i64)))
            .unwrap();
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("n")
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(handle.requests(), 2);
        assert_eq!(handle.connections(), 1);
        handle.stop();
    }

    #[test]
    fn unknown_route_is_404() {
        let net = Network::new();
        let listener = net.listen("svc:80").unwrap();
        let _handle = serve(listener, PlainUpgrade, test_router());
        let mut client = HttpClient::new(net.connect("svc:80").unwrap());
        let response = client.request(&Request::get("/nope")).unwrap();
        assert_eq!(response.status, Status::NotFound);
    }

    #[test]
    fn concurrent_clients() {
        let net = Network::new();
        let listener = net.listen("svc:80").unwrap();
        let handle = serve(listener, PlainUpgrade, test_router());
        let mut threads = Vec::new();
        for _ in 0..8 {
            let net = net.clone();
            threads.push(std::thread::spawn(move || {
                let mut client = HttpClient::new(net.connect("svc:80").unwrap());
                for _ in 0..5 {
                    let response = client.request(&Request::get("/ping")).unwrap();
                    assert_eq!(response.status, Status::Ok);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.requests(), 40);
        assert_eq!(handle.connections(), 8);
    }

    #[test]
    fn identity_propagation() {
        struct FixedIdentity;
        impl StreamUpgrade for FixedIdentity {
            type Upgraded = Duplex;
            fn upgrade(&self, raw: Duplex) -> Result<(Duplex, PeerIdentity), NetError> {
                Ok((
                    raw,
                    PeerIdentity {
                        common_name: Some("vnf-42".into()),
                        cert_serial: Some(7),
                    },
                ))
            }
        }
        let net = Network::new();
        let listener = net.listen("svc:443").unwrap();
        let _handle = serve(listener, FixedIdentity, test_router());
        let mut client = HttpClient::new(net.connect("svc:443").unwrap());
        let response = client.request(&Request::get("/whoami")).unwrap();
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("cn")
                .and_then(Json::as_str),
            Some("vnf-42")
        );
    }

    #[test]
    fn spoofed_peer_headers_are_dropped() {
        struct SerialOnly;
        impl StreamUpgrade for SerialOnly {
            type Upgraded = Duplex;
            fn upgrade(&self, raw: Duplex) -> Result<(Duplex, PeerIdentity), NetError> {
                Ok((
                    raw,
                    PeerIdentity {
                        common_name: None,
                        cert_serial: Some(9),
                    },
                ))
            }
        }
        let net = Network::new();
        let _plain = serve(net.listen("svc:80").unwrap(), PlainUpgrade, test_router());
        let mut router = test_router();
        router.get("/serial", |request, _| {
            Response::json(
                Status::Ok,
                &Json::object().with("serial", request.header("x-peer-serial").unwrap_or("")),
            )
        });
        let _partial = serve(net.listen("svc:443").unwrap(), SerialOnly, router);
        for addr in ["svc:80", "svc:443"] {
            let mut client = HttpClient::new(net.connect(addr).unwrap());
            let spoofed = Request::get("/whoami")
                .with_header("X-Peer-CN", "vnf-7")
                .with_header("x-peer-serial", "1");
            let response = client.request(&spoofed).unwrap();
            assert_eq!(
                response
                    .parse_json()
                    .unwrap()
                    .get("cn")
                    .and_then(Json::as_str),
                Some("anonymous"),
                "{addr}"
            );
        }
        let mut client = HttpClient::new(net.connect("svc:443").unwrap());
        let response = client
            .request(&Request::get("/serial").with_header("x-peer-serial", "1"))
            .unwrap();
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("serial")
                .and_then(Json::as_str),
            Some("9"),
            "the handshake's serial replaces the client's"
        );
    }

    #[test]
    fn incoming_trace_reaches_downstream_calls_of_an_uninstrumented_router() {
        let net = Network::new();
        let mut downstream = Router::new();
        downstream.get("/seen", |request, _| {
            Response::json(
                Status::Ok,
                &Json::object().with("traceparent", request.header("traceparent").unwrap_or("")),
            )
        });
        let _downstream = serve(net.listen("down:80").unwrap(), PlainUpgrade, downstream);
        let mut upstream = Router::new();
        {
            let net = net.clone();
            upstream.get("/relay", move |_, _| {
                let mut client = HttpClient::new(net.connect("down:80").unwrap());
                client.request(&Request::get("/seen")).unwrap()
            });
        }
        let _upstream = serve(net.listen("up:80").unwrap(), PlainUpgrade, upstream);

        let ctx = vnfguard_telemetry::TraceContext {
            trace_id: 0xabc,
            span_id: 0xdef,
            parent_id: None,
            sampled: true,
        };
        let mut client = HttpClient::new(net.connect("up:80").unwrap());
        let response = client
            .request(&Request::get("/relay").with_trace(&ctx))
            .unwrap();
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("traceparent")
                .and_then(Json::as_str),
            Some(ctx.traceparent().as_str())
        );
        // An untraced request stays untraced downstream.
        let response = client.request(&Request::get("/relay")).unwrap();
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("traceparent")
                .and_then(Json::as_str),
            Some("")
        );
    }

    #[test]
    fn failed_upgrade_counted_and_dropped() {
        struct RejectAll;
        impl StreamUpgrade for RejectAll {
            type Upgraded = Duplex;
            fn upgrade(&self, _raw: Duplex) -> Result<(Duplex, PeerIdentity), NetError> {
                Err(NetError::Protocol("handshake failed".into()))
            }
        }
        let net = Network::new();
        let listener = net.listen("svc:443").unwrap();
        let handle = serve(listener, RejectAll, test_router());
        let mut client = HttpClient::new(net.connect("svc:443").unwrap());
        // The server drops the connection; the request errors out.
        assert!(client.request(&Request::get("/ping")).is_err());
        // Give the server thread a moment to account the failure.
        for _ in 0..100 {
            if handle.upgrade_failures() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(handle.upgrade_failures(), 1);
        assert_eq!(handle.requests(), 0);
    }

    /// Poll `done` until it holds, failing the test after five seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting: {what}"
            );
            std::thread::yield_now();
        }
    }

    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::SeqCst)
    }

    #[test]
    fn stop_joins_idle_keepalive_handlers() {
        let net = Network::new();
        let listener = net.listen("svc:80").unwrap();
        let handle = serve(listener, PlainUpgrade, test_router());

        // Two keep-alive clients that stay connected (their workers parked
        // in a blocking read with no pending request), and a third worker
        // idle in `accept`.
        let mut c1 = HttpClient::new(net.connect("svc:80").unwrap());
        let mut c2 = HttpClient::new(net.connect("svc:80").unwrap());
        c1.request(&Request::get("/ping")).unwrap();
        c2.request(&Request::get("/ping")).unwrap();

        let stats = handle.stats();
        assert_eq!(load(&stats.active_handlers), 2);
        assert_eq!(load(&stats.handler_threads), 3);
        // Must return promptly (idle workers woken, parked ones severed,
        // all joined), not hang on the parked reads — and afterwards no
        // pool thread is still alive and the address is free.
        let started = std::time::Instant::now();
        handle.stop();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "stop took {:?}",
            started.elapsed()
        );
        assert_eq!(
            load(&stats.active_handlers),
            0,
            "shutdown left connections in service"
        );
        assert_eq!(
            load(&stats.handler_threads),
            0,
            "shutdown left pool threads running"
        );
        assert!(net.listen("svc:80").is_ok(), "stop left the address bound");
        // The severed streams now error on the client side too.
        assert!(c1.request(&Request::get("/ping")).is_err());
    }

    #[test]
    fn sequential_connections_reuse_two_threads() {
        let net = Network::new();
        let handle = serve(net.listen("svc:80").unwrap(), PlainUpgrade, test_router());
        let stats = handle.stats();
        for _ in 0..50 {
            let mut client = HttpClient::new(net.connect("svc:80").unwrap());
            assert_eq!(
                client.request(&Request::get("/ping")).unwrap().status,
                Status::Ok
            );
            drop(client);
            wait_until("the connection's worker back in the pool", || {
                load(&stats.active_handlers) == 0
            });
            assert!(load(&stats.handler_threads) <= 2);
        }
        assert_eq!(handle.connections(), 50);
        assert_eq!(load(&stats.handler_threads), 2);
    }

    #[test]
    fn concurrent_clients_are_served_at_once_and_the_surplus_exits() {
        const CLIENTS: usize = 8;
        let net = Network::new();
        // Answers only once every client's request is in a handler at the
        // same time, or 503 after five seconds.
        let arrived = Arc::new((std::sync::Mutex::new(0), std::sync::Condvar::new()));
        let mut router = test_router();
        {
            let arrived = arrived.clone();
            router.get("/gather", move |_, _| {
                let (count, all_in) = &*arrived;
                let mut count = count.lock().unwrap();
                *count += 1;
                all_in.notify_all();
                let (count, wait) = all_in
                    .wait_timeout_while(count, std::time::Duration::from_secs(5), |n| *n < CLIENTS)
                    .unwrap();
                drop(count);
                let status = if wait.timed_out() {
                    Status::ServiceUnavailable
                } else {
                    Status::Ok
                };
                Response::json(status, &Json::Null)
            });
        }
        let handle = serve(net.listen("svc:80").unwrap(), PlainUpgrade, router);
        let stats = handle.stats();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut client = HttpClient::new(net.connect("svc:80").unwrap());
                    let status = client.request(&Request::get("/gather")).unwrap().status;
                    (status, client)
                })
            })
            .collect();
        let clients: Vec<_> = clients.into_iter().map(|t| t.join().unwrap()).collect();
        for (status, _) in &clients {
            assert_eq!(*status, Status::Ok, "a client waited for a busy handler");
        }
        // Still kept alive: one worker each, plus one idle in `accept`.
        assert_eq!(load(&stats.active_handlers), CLIENTS as u64);
        assert_eq!(load(&stats.handler_threads), CLIENTS as u64 + 1);
        drop(clients);
        wait_until("the burst's surplus threads to exit", || {
            load(&stats.active_handlers) == 0 && load(&stats.handler_threads) <= MAX_IDLE as u64
        });
    }

    #[test]
    fn a_panicking_route_ends_only_its_own_connection() {
        let net = Network::new();
        let mut router = test_router();
        router.get("/panic", |_, _| panic!("route failure under test"));
        let handle = serve(net.listen("svc:80").unwrap(), PlainUpgrade, router);
        let mut bystander = HttpClient::new(net.connect("svc:80").unwrap());
        bystander.request(&Request::get("/ping")).unwrap();

        let mut victim = HttpClient::new(net.connect("svc:80").unwrap());
        assert!(victim.request(&Request::get("/panic")).is_err());
        assert!(
            victim.request(&Request::get("/ping")).is_err(),
            "the panicking connection stays open"
        );
        let response = bystander.request(&Request::get("/ping")).unwrap();
        assert_eq!(response.status, Status::Ok);
        let mut next = HttpClient::new(net.connect("svc:80").unwrap());
        assert_eq!(
            next.request(&Request::get("/ping")).unwrap().status,
            Status::Ok
        );
        assert_eq!(handle.connections(), 3);
    }

    #[test]
    fn a_reused_worker_starts_each_connection_with_an_empty_request_scope() {
        let net = Network::new();
        let mut downstream = Router::new();
        downstream.get("/seen", |request, _| {
            Response::json(
                Status::Ok,
                &Json::object().with("traceparent", request.header("traceparent").unwrap_or("")),
            )
        });
        let _downstream = serve(net.listen("down:80").unwrap(), PlainUpgrade, downstream);
        // Relays to the downstream router and names the worker thread it
        // ran on.
        let mut upstream = Router::new();
        {
            let net = net.clone();
            upstream.get("/relay", move |_, _| {
                let mut client = HttpClient::new(net.connect("down:80").unwrap());
                let seen = client.request(&Request::get("/seen")).unwrap();
                let seen = seen.parse_json().unwrap();
                let traceparent = seen
                    .get("traceparent")
                    .and_then(Json::as_str)
                    .unwrap_or("?");
                Response::json(
                    Status::Ok,
                    &Json::object()
                        .with("traceparent", traceparent)
                        .with("thread", format!("{:?}", std::thread::current().id())),
                )
            });
        }
        let _upstream = serve(net.listen("up:80").unwrap(), PlainUpgrade, upstream);
        let relay = |request: Request| {
            let mut client = HttpClient::new(net.connect("up:80").unwrap());
            let body = client.request(&request).unwrap().parse_json().unwrap();
            let field = |name| body.get(name).and_then(Json::as_str).unwrap().to_string();
            (field("traceparent"), field("thread"))
        };

        let ctx = vnfguard_telemetry::TraceContext {
            trace_id: 0xabc,
            span_id: 0xdef,
            parent_id: None,
            sampled: true,
        };
        let (traced, traced_thread) = relay(Request::get("/relay").with_trace(&ctx));
        assert_eq!(traced, ctx.traceparent());
        // Untraced connections until one lands on the traced one's thread;
        // none of them may carry that trace downstream.
        let mut reused = false;
        for _ in 0..50 {
            let (traceparent, thread) = relay(Request::get("/relay"));
            assert_eq!(traceparent, "", "a request scope outlived its connection");
            if thread == traced_thread {
                reused = true;
                break;
            }
        }
        assert!(
            reused,
            "no untraced connection reached the traced one's worker"
        );
    }

    #[test]
    fn stop_unbinds_address() {
        let net = Network::new();
        let listener = net.listen("svc:80").unwrap();
        let handle = serve(listener, PlainUpgrade, test_router());
        handle.stop();
        // Address free again.
        assert!(net.listen("svc:80").is_ok());
    }
}
