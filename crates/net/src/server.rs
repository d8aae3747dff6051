//! Thread-per-connection HTTP serving over the fabric.
//!
//! The security handshake (if any) is injected as a *stream wrapper*: the
//! TLS layer in `vnfguard-tls` provides a wrapper that upgrades the raw
//! stream before HTTP begins, which is how the controller's three security
//! modes are composed (plain HTTP uses the identity wrapper).

use crate::fabric::{Listener, ListenerWaker};
use crate::fault::LinkControl;
use crate::http::{read_request, write_response};
use crate::rest::Router;
use crate::stream::Duplex;
use crate::NetError;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
    /// Connection handler threads currently alive (entered, not yet
    /// exited). Zero after a completed shutdown.
    pub active_handlers: AtomicU64,
}

/// One in-flight connection: the handler thread plus the link switches
/// used to wake it out of a blocked read at shutdown.
struct Worker {
    control: Arc<LinkControl>,
    thread: JoinHandle<()>,
}

type WorkerSet = Arc<Mutex<Vec<Worker>>>;

/// Decrements `active_handlers` when the handler thread exits, however it
/// exits.
struct HandlerGuard(Arc<ServerStats>);

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        self.0.active_handlers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle to a running server; stops and joins on drop.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    waker: ListenerWaker,
    stats: Arc<ServerStats>,
    workers: WorkerSet,
    thread: Option<JoinHandle<()>>,
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

    /// Request shutdown: stop accepting, sever every in-flight connection,
    /// and join all handler threads before returning.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        // The accept thread owns the listener, so joining it also unbinds
        // the address before `stop` returns.
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // In-flight handlers may be parked in a blocking read (keep-alive
        // connections with no pending request). Severing the link wakes
        // them so the joins below cannot hang, and joining means no
        // handler thread outlives the handle — they are not detached.
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in &workers {
            worker.control.sever();
        }
        for worker in workers {
            let _ = worker.thread.join();
        }
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

/// Headers carrying the upgrade's peer identity to the router.
const PEER_HEADERS: [&str; 2] = ["x-peer-cn", "x-peer-serial"];

/// Serve `router` on `listener`, upgrading each accepted stream through
/// `upgrade`. Each connection is handled on its own thread with keep-alive.
///
/// The identity the upgrade established (the client certificate's subject
/// and serial) reaches the router as the pseudo-headers `x-peer-cn` /
/// `x-peer-serial`, so ordinary routes can authorize on it. Whatever the
/// client sent under those names is dropped first: identity comes only
/// from the handshake.
pub fn serve<U: StreamUpgrade>(listener: Listener, upgrade: U, router: Router) -> ServerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let workers: WorkerSet = Arc::new(Mutex::new(Vec::new()));
    let waker = listener.waker();
    let router = Arc::new(router);
    let upgrade = Arc::new(upgrade);

    let accept_stop = stop.clone();
    let accept_stats = stats.clone();
    let accept_workers = workers.clone();
    let thread = std::thread::spawn(move || {
        // `accept` blocks until a connection arrives or `shutdown` wakes it.
        while let Ok(raw) = listener.accept() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            accept_stats.connections.fetch_add(1, Ordering::Relaxed);
            accept_stats.active_handlers.fetch_add(1, Ordering::SeqCst);
            let control = raw.control();
            let router = router.clone();
            let upgrade = upgrade.clone();
            let stats = accept_stats.clone();
            let stop = accept_stop.clone();
            let handler = std::thread::spawn(move || {
                let _guard = HandlerGuard(stats.clone());
                let (mut stream, identity) = match upgrade.upgrade(raw) {
                    Ok(upgraded) => upgraded,
                    Err(_) => {
                        stats.upgrade_failures.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                while !stop.load(Ordering::SeqCst) {
                    let mut request = match read_request(&mut stream) {
                        Ok(request) => request,
                        Err(_) => break, // peer closed or protocol error
                    };
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
            });
            let mut workers = accept_workers.lock();
            // Completed handlers have nothing left to join; keep the set
            // bounded by the number of live connections.
            workers.retain(|w| !w.thread.is_finished());
            workers.push(Worker {
                control,
                thread: handler,
            });
        }
    });

    ServerHandle {
        stop,
        waker,
        stats,
        workers,
        thread: Some(thread),
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

    #[test]
    fn stop_joins_idle_keepalive_handlers() {
        let net = Network::new();
        let listener = net.listen("svc:80").unwrap();
        let handle = serve(listener, PlainUpgrade, test_router());

        // Two keep-alive clients that stay connected (handlers parked in a
        // blocking read with no pending request).
        let mut c1 = HttpClient::new(net.connect("svc:80").unwrap());
        let mut c2 = HttpClient::new(net.connect("svc:80").unwrap());
        c1.request(&Request::get("/ping")).unwrap();
        c2.request(&Request::get("/ping")).unwrap();

        let stats = handle.stats();
        assert_eq!(stats.active_handlers.load(Ordering::SeqCst), 2);
        // Must return promptly (handlers woken + joined), not hang on the
        // parked reads — and afterwards no handler thread is still alive.
        handle.stop();
        assert_eq!(
            stats.active_handlers.load(Ordering::SeqCst),
            0,
            "shutdown left detached connection handlers running"
        );
        // The severed streams now error on the client side too.
        assert!(c1.request(&Request::get("/ping")).is_err());
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
