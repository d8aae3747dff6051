//! Path-pattern REST routing and the `ApiResult` handler convention.

use crate::http::{Method, Request, Response, Status};
use std::collections::HashMap;
use std::sync::Arc;
use vnfguard_telemetry::{Counter, Deadline, RequestScope, Telemetry};

/// Captured `:name` path parameters.
#[derive(Debug, Default, Clone)]
pub struct PathParams {
    values: HashMap<String, String>,
}

impl PathParams {
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }
}

/// A handler-level API error: a status code, a machine-readable error
/// code, and a human-readable detail. The single `From<ApiError> for
/// Response` mapping renders it as `{"code": code, "detail": detail}` —
/// clients branch on `code` (stable identifiers like `"fenced"` or
/// `"not_found"`) and log `detail`.
///
/// Handlers registered through [`Router::get_api`] and friends return
/// [`ApiResult`] and use `?` on fallible steps instead of hand-building
/// error responses at every exit point. Each constructor sets a default
/// code matching its status; [`with_code`](Self::with_code) refines it
/// when one status covers several client-distinguishable conditions (a
/// 503 from a fenced zombie is not a 503 from overload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    pub status: Status,
    pub code: String,
    pub message: String,
    /// When set, the response advertises how long the client should wait
    /// before retrying — both as a `retry-after` header and a
    /// `retry-after-secs` body field. Set by [`ApiError::overloaded`].
    pub retry_after_secs: Option<u64>,
}

impl ApiError {
    pub fn new(status: Status, message: impl Into<String>) -> ApiError {
        let code = match status {
            Status::BadRequest => "bad_request",
            Status::Unauthorized => "unauthorized",
            Status::Forbidden => "forbidden",
            Status::NotFound => "not_found",
            Status::Conflict => "conflict",
            Status::ServiceUnavailable => "unavailable",
            Status::GatewayTimeout => "deadline",
            _ => "server_error",
        };
        ApiError {
            status,
            code: code.to_string(),
            message: message.into(),
            retry_after_secs: None,
        }
    }

    /// Override the machine-readable code (e.g. `"fenced"` on a 503 from a
    /// deposed primary).
    pub fn with_code(mut self, code: impl Into<String>) -> ApiError {
        self.code = code.into();
        self
    }

    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(Status::BadRequest, message)
    }

    pub fn forbidden(message: impl Into<String>) -> ApiError {
        ApiError::new(Status::Forbidden, message)
    }

    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(Status::NotFound, message)
    }

    pub fn server_error(message: impl Into<String>) -> ApiError {
        ApiError::new(Status::ServerError, message)
    }

    /// A 503 for a backend that cannot serve the request right now.
    pub fn unavailable(message: impl Into<String>) -> ApiError {
        ApiError::new(Status::ServiceUnavailable, message)
    }

    /// A 503 from admission control: the request was shed before any work
    /// was done. Carries a retry hint sized to the queue the request would
    /// have joined, so a storm of clients spreads out instead of hammering
    /// the same instant.
    pub fn overloaded(message: impl Into<String>, retry_after_secs: u64) -> ApiError {
        let mut error = ApiError::new(Status::ServiceUnavailable, message).with_code("overloaded");
        error.retry_after_secs = Some(retry_after_secs);
        error
    }

    /// A 504 for a request whose deadline budget ran out before the work
    /// completed — the caller has already given up, so nothing downstream
    /// should keep spending on it.
    pub fn deadline(message: impl Into<String>) -> ApiError {
        ApiError::new(Status::GatewayTimeout, message)
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.status.code(),
            self.status.reason(),
            self.code,
            self.message
        )
    }
}

impl From<ApiError> for Response {
    fn from(error: ApiError) -> Response {
        let mut body = vnfguard_encoding::Json::object()
            .with("code", error.code.as_str())
            .with("detail", error.message.as_str());
        if let Some(secs) = error.retry_after_secs {
            body = body.with("retry-after-secs", secs as i64);
        }
        let mut response = Response::json(error.status, &body);
        if let Some(secs) = error.retry_after_secs {
            response
                .headers
                .insert("retry-after".into(), secs.to_string());
        }
        response
    }
}

/// The return type of `*_api` route handlers.
pub type ApiResult<T> = Result<T, ApiError>;

type Handler = dyn Fn(&Request, &PathParams) -> Response + Send + Sync;

struct Route {
    method: Method,
    pattern: String,
    segments: Vec<Segment>,
    handler: Arc<Handler>,
}

/// Distributed-tracing hookup for a router: the telemetry bundle to record
/// server spans into, the logical service name they are attributed to, and
/// a clock closure supplying simulated unix seconds for span timestamps.
#[derive(Clone)]
struct RouterTracing {
    telemetry: Telemetry,
    service: String,
    now_fn: Arc<dyn Fn() -> u64 + Send + Sync>,
}

enum Segment {
    Literal(String),
    Param(String),
}

/// A REST router: register handlers on method + path patterns, then
/// [`Router::dispatch`] requests to them.
///
/// Patterns use `:name` segments for captures, e.g.
/// `/wm/device/:mac` or `/vm/vnf/:id/credentials`.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
    requests_total: Option<Counter>,
    request_errors_total: Option<Counter>,
    tracing: Option<RouterTracing>,
}

impl Router {
    pub fn new() -> Router {
        Router::default()
    }

    /// Attach telemetry counters: `requests` is bumped once per dispatched
    /// request, `errors` once per non-2xx response (including unmatched
    /// routes and handler-raised [`ApiError`]s).
    pub fn instrument(&mut self, requests: Counter, errors: Counter) -> &mut Self {
        self.requests_total = Some(requests);
        self.request_errors_total = Some(errors);
        self
    }

    /// Attach distributed tracing: requests that carry a `traceparent`
    /// header are dispatched under a server span (named `METHOD pattern`,
    /// attributed to `service`) that is the handler's current trace
    /// context, so downstream calls chain onto it, and every response —
    /// including [`ApiError`] mappings and 404s — echoes the request's
    /// trace id in an `x-vnfguard-trace` header. `now_fn` is the router's
    /// simulated clock (unix seconds): it stamps server spans and anchors
    /// the simulated half of each request's deadline; an uninstrumented
    /// router's deadlines run on wall-clock time only.
    pub fn instrument_traces(
        &mut self,
        telemetry: &Telemetry,
        service: &str,
        now_fn: impl Fn() -> u64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.tracing = Some(RouterTracing {
            telemetry: telemetry.clone(),
            service: service.to_string(),
            now_fn: Arc::new(now_fn),
        });
        self
    }

    /// Register a handler. Later registrations do not shadow earlier ones;
    /// first match wins.
    pub fn route(
        &mut self,
        method: Method,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        let segments = pattern
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix(':') {
                    Segment::Param(name.to_string())
                } else {
                    Segment::Literal(s.to_string())
                }
            })
            .collect();
        self.routes.push(Route {
            method,
            pattern: pattern.to_string(),
            segments,
            handler: Arc::new(handler),
        });
        self
    }

    pub fn get(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(Method::Get, pattern, handler)
    }

    pub fn post(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(Method::Post, pattern, handler)
    }

    pub fn delete(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(Method::Delete, pattern, handler)
    }

    /// Register an [`ApiResult`]-returning handler: `Ok(response)` passes
    /// through, `Err(error)` goes through the single
    /// `From<ApiError> for Response` mapping.
    pub fn route_api(
        &mut self,
        method: Method,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> ApiResult<Response> + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(method, pattern, move |request, params| {
            match handler(request, params) {
                Ok(response) => response,
                Err(error) => error.into(),
            }
        })
    }

    pub fn get_api(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> ApiResult<Response> + Send + Sync + 'static,
    ) -> &mut Self {
        self.route_api(Method::Get, pattern, handler)
    }

    pub fn post_api(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> ApiResult<Response> + Send + Sync + 'static,
    ) -> &mut Self {
        self.route_api(Method::Post, pattern, handler)
    }

    fn match_route<'a>(&'a self, method: Method, path: &str) -> Option<(&'a Route, PathParams)> {
        let path_segments: Vec<&str> = path
            .split('?')
            .next()
            .unwrap_or("")
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        'routes: for route in &self.routes {
            if route.method != method || route.segments.len() != path_segments.len() {
                continue;
            }
            let mut params = PathParams::default();
            for (segment, actual) in route.segments.iter().zip(&path_segments) {
                match segment {
                    Segment::Literal(expected) if expected == actual => {}
                    Segment::Literal(_) => continue 'routes,
                    Segment::Param(name) => {
                        params.values.insert(name.clone(), (*actual).to_string());
                    }
                }
            }
            return Some((route, params));
        }
        None
    }

    /// Dispatch a request, returning 404 for unmatched paths.
    ///
    /// The request runs inside its own [`RequestScope`]: the incoming
    /// `traceparent` becomes the thread's current trace context and the
    /// `x-vnfguard-deadline` budget its current deadline, so every layer
    /// underneath (admission gates, retry loops, outgoing client calls)
    /// sees both without being handed them.
    pub fn dispatch(&self, request: &Request) -> Response {
        if let Some(counter) = &self.requests_total {
            counter.inc();
        }
        let incoming = request.trace_context();
        let deadline = request.deadline_millis().map(|budget| {
            let sim_now = self.tracing.as_ref().map(|tracing| (tracing.now_fn)());
            Deadline::start(sim_now, budget)
        });
        let _scope = RequestScope::enter(incoming.clone().unwrap_or_default(), deadline);
        let traced = self.tracing.as_ref().filter(|_| incoming.is_some());
        let mut response = match self.match_route(request.method, &request.path) {
            Some((route, params)) => {
                let _span = traced.map(|tracing| {
                    let name = format!("{} {}", request.method.as_str(), route.pattern);
                    tracing
                        .telemetry
                        .span(&tracing.service, &name, (tracing.now_fn)())
                });
                (route.handler)(request, &params)
            }
            None => Response::error(
                Status::NotFound,
                &format!("no route for {} {}", request.method.as_str(), request.path),
            ),
        };
        if let (Some(_), Some(ctx)) = (traced, &incoming) {
            response
                .headers
                .insert("x-vnfguard-trace".into(), format!("{:032x}", ctx.trace_id));
        }
        if !response.status.is_success() {
            if let Some(counter) = &self.request_errors_total {
                counter.inc();
            }
        }
        response
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.routes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_encoding::Json;
    use vnfguard_telemetry::{current_deadline, current_trace};

    fn router() -> Router {
        let mut router = Router::new();
        router.get("/health", |_, _| {
            Response::json(Status::Ok, &Json::object().with("status", "up"))
        });
        router.get("/wm/device/:mac", |_, params| {
            Response::json(
                Status::Ok,
                &Json::object().with("mac", params.get("mac").unwrap_or("")),
            )
        });
        router.post("/wm/staticflowpusher/json", |request, _| {
            match request.json() {
                Ok(body) => Response::json(Status::Created, &body),
                Err(_) => Response::error(Status::BadRequest, "bad json"),
            }
        });
        router.delete("/vm/vnf/:id/credentials", |_, params| {
            Response::json(
                Status::Ok,
                &Json::object().with("revoked", params.get("id").unwrap_or("")),
            )
        });
        router
    }

    #[test]
    fn literal_match() {
        let response = router().dispatch(&Request::get("/health"));
        assert_eq!(response.status, Status::Ok);
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("up")
        );
    }

    #[test]
    fn param_capture() {
        let response = router().dispatch(&Request::get("/wm/device/aa:bb:cc"));
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("mac")
                .and_then(Json::as_str),
            Some("aa:bb:cc")
        );
        let response = router().dispatch(&Request::delete("/vm/vnf/vnf-7/credentials"));
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("revoked")
                .and_then(Json::as_str),
            Some("vnf-7")
        );
    }

    #[test]
    fn method_mismatch_is_404() {
        let response = router().dispatch(&Request::post("/health"));
        assert_eq!(response.status, Status::NotFound);
    }

    #[test]
    fn length_mismatch_is_404() {
        assert_eq!(
            router().dispatch(&Request::get("/wm/device")).status,
            Status::NotFound
        );
        assert_eq!(
            router().dispatch(&Request::get("/wm/device/a/b")).status,
            Status::NotFound
        );
    }

    #[test]
    fn query_strings_ignored_for_matching() {
        let response = router().dispatch(&Request::get("/health?verbose=1"));
        assert_eq!(response.status, Status::Ok);
    }

    #[test]
    fn body_passes_through() {
        let request = Request::post("/wm/staticflowpusher/json")
            .with_json(&Json::object().with("name", "f1"));
        let response = router().dispatch(&request);
        assert_eq!(response.status, Status::Created);
        assert_eq!(
            response
                .parse_json()
                .unwrap()
                .get("name")
                .and_then(Json::as_str),
            Some("f1")
        );
    }

    #[test]
    fn bad_json_rejected_by_handler() {
        let mut request = Request::post("/wm/staticflowpusher/json");
        request.body = b"{not json".to_vec();
        assert_eq!(router().dispatch(&request).status, Status::BadRequest);
    }

    #[test]
    fn first_match_wins() {
        let mut r = Router::new();
        r.get("/a/:x", |_, _| Response::new(Status::Ok));
        r.get("/a/b", |_, _| Response::new(Status::Conflict));
        // The param route was registered first and matches.
        assert_eq!(r.dispatch(&Request::get("/a/b")).status, Status::Ok);
    }

    #[test]
    fn api_error_maps_to_json_error_response() {
        let response: Response = ApiError::forbidden("quote rejected").into();
        assert_eq!(response.status, Status::Forbidden);
        let body = response.parse_json().unwrap();
        assert_eq!(body.get("code").and_then(Json::as_str), Some("forbidden"));
        assert_eq!(
            body.get("detail").and_then(Json::as_str),
            Some("quote rejected")
        );
    }

    #[test]
    fn api_error_codes_are_overridable() {
        let fenced = ApiError::unavailable("a newer primary holds the epoch").with_code("fenced");
        assert_eq!(fenced.status.code(), 503);
        let response: Response = fenced.into();
        assert_eq!(response.status, Status::ServiceUnavailable);
        let body = response.parse_json().unwrap();
        assert_eq!(body.get("code").and_then(Json::as_str), Some("fenced"));
        assert_eq!(
            body.get("detail").and_then(Json::as_str),
            Some("a newer primary holds the epoch")
        );
    }

    #[test]
    fn overloaded_error_advertises_retry_after() {
        let shed = ApiError::overloaded("renewal queue full", 4);
        assert_eq!(shed.status, Status::ServiceUnavailable);
        assert_eq!(shed.code, "overloaded");
        let response: Response = shed.into();
        assert_eq!(response.header("retry-after"), Some("4"));
        let body = response.parse_json().unwrap();
        assert_eq!(body.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(body.get("retry-after-secs").and_then(Json::as_i64), Some(4));
        assert_eq!(response.retry_after_secs(), Some(4));
    }

    #[test]
    fn deadline_error_is_504_with_deadline_code() {
        let late = ApiError::deadline("budget exhausted in shard queue");
        assert_eq!(late.status.code(), 504);
        let response: Response = late.into();
        assert_eq!(response.status, Status::GatewayTimeout);
        let body = response.parse_json().unwrap();
        assert_eq!(body.get("code").and_then(Json::as_str), Some("deadline"));
        // No retry hint: the caller's own budget decides whether to retry.
        assert_eq!(response.header("retry-after"), None);
        assert_eq!(response.retry_after_secs(), None);
    }

    #[test]
    fn api_handlers_use_question_mark() {
        fn lookup(id: &str) -> ApiResult<String> {
            if id == "vnf-1" {
                Ok("enrolled".to_string())
            } else {
                Err(ApiError::not_found(format!("unknown vnf {id}")))
            }
        }
        let mut r = Router::new();
        r.get_api("/vm/vnf/:id", |_, params| {
            let state = lookup(params.get("id").unwrap_or(""))?;
            Ok(Response::json(
                Status::Ok,
                &Json::object().with("state", state.as_str()),
            ))
        });
        assert_eq!(
            r.dispatch(&Request::get("/vm/vnf/vnf-1")).status,
            Status::Ok
        );
        let miss = r.dispatch(&Request::get("/vm/vnf/vnf-9"));
        assert_eq!(miss.status, Status::NotFound);
        assert_eq!(
            miss.parse_json()
                .unwrap()
                .get("detail")
                .and_then(Json::as_str),
            Some("unknown vnf vnf-9")
        );
    }

    #[test]
    fn instrumented_router_counts_requests_and_errors() {
        use vnfguard_telemetry::Counter;
        let requests = Counter::detached();
        let errors = Counter::detached();
        let mut r = Router::new();
        r.instrument(requests.clone(), errors.clone());
        r.get("/ok", |_, _| Response::new(Status::Ok));
        r.get_api("/fail", |_, _| Err(ApiError::server_error("boom")));
        r.dispatch(&Request::get("/ok"));
        r.dispatch(&Request::get("/fail"));
        r.dispatch(&Request::get("/nope"));
        assert_eq!(requests.get(), 3);
        // /fail (500) and the unmatched route (404) both count as errors.
        assert_eq!(errors.get(), 2);
    }

    #[test]
    fn traced_dispatch_opens_server_span_and_rechains_handler() {
        let telemetry = Telemetry::new();
        let mut r = Router::new();
        r.instrument_traces(&telemetry, "vm_api", || 1_600_000_000);
        let (root, root_guard) = telemetry.trace_root("client", "drill", 0);
        let root_span = root.span_id;
        r.get("/chained", move |_, _| {
            // The handler runs under the server span, not the caller's
            // span, so downstream hops parent correctly.
            let ctx = current_trace();
            assert!(ctx.is_recording(), "handler runs inside the trace");
            assert_eq!(ctx.parent_id, Some(root_span));
            Response::new(Status::Ok)
        });
        let response = r.dispatch(&Request::get("/chained").with_trace(&root));
        // Dispatch restored the caller's own scope.
        assert_eq!(current_trace(), root);
        drop(root_guard);
        assert_eq!(response.status, Status::Ok);
        assert_eq!(
            response.header("x-vnfguard-trace"),
            Some(format!("{:032x}", root.trace_id).as_str())
        );
        let spans = telemetry.traces().trace(root.trace_id);
        let server = spans.iter().find(|s| s.name == "GET /chained").unwrap();
        assert_eq!(server.service, "vm_api");
        assert_eq!(server.parent_id, Some(root.span_id));
    }

    #[test]
    fn every_handler_sees_an_exhausted_deadline() {
        let telemetry = Telemetry::new();
        let mut plain = Router::new();
        let mut instrumented = Router::new();
        instrumented.instrument_traces(&telemetry, "vm_api", || 1_600_000_000);
        for r in [&mut plain, &mut instrumented] {
            for path in ["/a", "/b/:id"] {
                r.get(path, |_, _| {
                    let expired = current_deadline().is_some_and(|d| d.expired(1_600_000_000));
                    Response::new(if expired {
                        Status::GatewayTimeout
                    } else {
                        Status::Ok
                    })
                });
            }
        }
        for r in [&plain, &instrumented] {
            for path in ["/a", "/b/7"] {
                let dead = Request::get(path).with_header(crate::http::DEADLINE_HEADER, "0");
                assert_eq!(r.dispatch(&dead).status, Status::GatewayTimeout, "{path}");
                let live = Request::get(path).with_deadline_millis(60_000);
                assert_eq!(r.dispatch(&live).status, Status::Ok, "{path}");
                assert_eq!(r.dispatch(&Request::get(path)).status, Status::Ok, "{path}");
            }
        }
        // The scope ends with the request.
        assert!(current_deadline().is_none());
    }

    #[test]
    fn api_errors_echo_trace_id_header() {
        let telemetry = Telemetry::new();
        let mut r = Router::new();
        r.instrument_traces(&telemetry, "vm_api", || 0);
        r.get_api("/fail", |_, _| Err(ApiError::forbidden("denied")));
        let (root, _guard) = telemetry.trace_root("client", "drill", 0);
        let expected = format!("{:032x}", root.trace_id);
        let failure = r.dispatch(&Request::get("/fail").with_trace(&root));
        assert_eq!(failure.status, Status::Forbidden);
        assert_eq!(failure.header("x-vnfguard-trace"), Some(expected.as_str()));
        // Unmatched routes echo the trace id too.
        let missing = r.dispatch(&Request::get("/nope").with_trace(&root));
        assert_eq!(missing.status, Status::NotFound);
        assert_eq!(missing.header("x-vnfguard-trace"), Some(expected.as_str()));
        // Requests without a traceparent get no echo header.
        assert_eq!(
            r.dispatch(&Request::get("/fail"))
                .header("x-vnfguard-trace"),
            None
        );
    }
}
