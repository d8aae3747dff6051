//! Minimal HTTP/1.1 over any `Read + Write` stream.
//!
//! Supports exactly what the north-bound REST interface needs: the common
//! methods, header maps, Content-Length framing and persistent connections.

use crate::NetError;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use vnfguard_encoding::Json;
use vnfguard_telemetry::{current_trace, TraceContext};

/// Upper bound on header section and body sizes (defense against
/// adversarial peers on the REST surface).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Header carrying a request's remaining deadline budget in milliseconds.
/// Travels alongside `traceparent`; see [`Request::with_deadline_millis`].
pub const DEADLINE_HEADER: &str = "x-vnfguard-deadline";

/// HTTP request methods used by the REST APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
}

impl Method {
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }

    pub fn parse(s: &str) -> Result<Method, NetError> {
        match s {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "PUT" => Ok(Method::Put),
            "DELETE" => Ok(Method::Delete),
            other => Err(NetError::Protocol(format!("unsupported method {other}"))),
        }
    }
}

/// HTTP status codes used by the controller and manager APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Created,
    NoContent,
    BadRequest,
    Unauthorized,
    Forbidden,
    NotFound,
    Conflict,
    ServerError,
    ServiceUnavailable,
    GatewayTimeout,
}

impl Status {
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Created => 201,
            Status::NoContent => 204,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::Conflict => 409,
            Status::ServerError => 500,
            Status::ServiceUnavailable => 503,
            Status::GatewayTimeout => 504,
        }
    }

    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Created => "Created",
            Status::NoContent => "No Content",
            Status::BadRequest => "Bad Request",
            Status::Unauthorized => "Unauthorized",
            Status::Forbidden => "Forbidden",
            Status::NotFound => "Not Found",
            Status::Conflict => "Conflict",
            Status::ServerError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
            Status::GatewayTimeout => "Gateway Timeout",
        }
    }

    pub fn from_code(code: u16) -> Status {
        match code {
            200 => Status::Ok,
            201 => Status::Created,
            204 => Status::NoContent,
            400 => Status::BadRequest,
            401 => Status::Unauthorized,
            403 => Status::Forbidden,
            404 => Status::NotFound,
            409 => Status::Conflict,
            503 => Status::ServiceUnavailable,
            504 => Status::GatewayTimeout,
            _ => Status::ServerError,
        }
    }

    pub fn is_success(self) -> bool {
        self.code() < 300
    }
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    pub path: String,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn new(method: Method, path: &str) -> Request {
        Request {
            method,
            path: path.to_string(),
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    pub fn get(path: &str) -> Request {
        Request::new(Method::Get, path)
    }

    pub fn post(path: &str) -> Request {
        Request::new(Method::Post, path)
    }

    pub fn delete(path: &str) -> Request {
        Request::new(Method::Delete, path)
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Inject a distributed-trace context as a `traceparent` header,
    /// overriding the thread's current context that
    /// [`write_request`] would otherwise stamp. Invalid (all-zero)
    /// contexts — the disabled-telemetry case — add nothing.
    pub fn with_trace(self, ctx: &TraceContext) -> Request {
        if ctx.is_valid() {
            self.with_header("traceparent", &ctx.traceparent())
        } else {
            self
        }
    }

    /// Extract the distributed-trace context from the `traceparent`
    /// header, if present and well-formed.
    pub fn trace_context(&self) -> Option<TraceContext> {
        self.header("traceparent").and_then(TraceContext::parse)
    }

    /// Attach a deadline budget: the caller will wait at most
    /// `budget_millis` for this request. Servers propagate the *remaining*
    /// budget on downstream hops and refuse work once it reaches zero, so
    /// nobody burns cycles on an answer no one is still waiting for.
    pub fn with_deadline_millis(self, budget_millis: u64) -> Request {
        self.with_header(DEADLINE_HEADER, &budget_millis.to_string())
    }

    /// The remaining deadline budget carried by this request, if any.
    /// A malformed value reads as an exhausted budget (`Some(0)`) rather
    /// than an absent deadline — fail closed, not open.
    pub fn deadline_millis(&self) -> Option<u64> {
        self.header(DEADLINE_HEADER)
            .map(|raw| raw.trim().parse().unwrap_or(0))
    }

    pub fn with_json(mut self, body: &Json) -> Request {
        self.body = body.to_string().into_bytes();
        self.headers
            .insert("content-type".into(), "application/json".into());
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Parse the body as JSON.
    pub fn json(&self) -> Result<Json, NetError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| NetError::Protocol("request body is not UTF-8".into()))?;
        Ok(vnfguard_encoding::json::parse(text)?)
    }

    /// The value of a `?name=value` query parameter, if present. Returns
    /// `Some("")` for a bare `?name` flag.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let query = self.path.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (key, value) = match pair.split_once('=') {
                Some((key, value)) => (key, value),
                None => (pair, ""),
            };
            (key == name).then_some(value)
        })
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: Status,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: Status) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    pub fn json(status: Status, body: &Json) -> Response {
        let mut response = Response::new(status);
        response.body = body.to_string().into_bytes();
        response
            .headers
            .insert("content-type".into(), "application/json".into());
        response
    }

    pub fn error(status: Status, message: &str) -> Response {
        Response::json(status, &Json::object().with("error", message))
    }

    /// A plain-text response (used by the Prometheus-style `/vm/metrics`
    /// exposition).
    pub fn text(status: Status, body: &str) -> Response {
        let mut response = Response::new(status);
        response.body = body.as_bytes().to_vec();
        response
            .headers
            .insert("content-type".into(), "text/plain; version=0.0.4".into());
        response
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Parse the body as JSON.
    pub fn parse_json(&self) -> Result<Json, NetError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| NetError::Protocol("response body is not UTF-8".into()))?;
        Ok(vnfguard_encoding::json::parse(text)?)
    }

    /// The server's backpressure hint: how many seconds to wait before
    /// retrying, from the `retry-after` header or the `retry-after-secs`
    /// field of a JSON error body. `None` when the server gave no hint.
    pub fn retry_after_secs(&self) -> Option<u64> {
        if let Some(raw) = self.header("retry-after") {
            if let Ok(secs) = raw.trim().parse() {
                return Some(secs);
            }
        }
        self.parse_json()
            .ok()
            .and_then(|doc| doc.get("retry-after-secs").and_then(Json::as_i64))
            .map(|secs| secs.max(0) as u64)
    }
}

fn read_line(stream: &mut impl Read, budget: &mut usize) -> Result<String, NetError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            if line.is_empty() {
                return Err(NetError::ConnectionClosed);
            }
            return Err(NetError::Protocol("EOF mid-line".into()));
        }
        *budget = budget
            .checked_sub(1)
            .ok_or_else(|| NetError::Protocol("header section too large".into()))?;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| NetError::Protocol("non-UTF-8 header line".into()));
        }
        line.push(byte[0]);
    }
}

fn read_headers(
    stream: &mut impl Read,
    budget: &mut usize,
) -> Result<BTreeMap<String, String>, NetError> {
    let mut headers = BTreeMap::new();
    loop {
        let line = read_line(stream, budget)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| NetError::Protocol(format!("malformed header: {line}")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

fn read_body(
    stream: &mut impl Read,
    headers: &BTreeMap<String, String>,
) -> Result<Vec<u8>, NetError> {
    let length: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| NetError::Protocol(format!("bad content-length: {v}")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(NetError::Protocol(format!(
            "body of {length} bytes exceeds limit"
        )));
    }
    let mut body = vec![0u8; length];
    stream
        .read_exact(&mut body)
        .map_err(|_| NetError::ConnectionClosed)?;
    Ok(body)
}

/// Read one request from the stream.
pub fn read_request(stream: &mut impl Read) -> Result<Request, NetError> {
    let mut budget = MAX_HEADER_BYTES;
    let request_line = read_line(stream, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let method = Method::parse(parts.next().unwrap_or(""))?;
    let path = parts
        .next()
        .ok_or_else(|| NetError::Protocol("missing request path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if version != "HTTP/1.1" {
        return Err(NetError::Protocol(format!(
            "unsupported version {version:?}"
        )));
    }
    let headers = read_headers(stream, &mut budget)?;
    let body = read_body(stream, &headers)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Write one request. A request that sets no `traceparent` of its own
/// carries the thread's current trace context (see
/// [`vnfguard_telemetry::scope`]), so every client call made while serving
/// a traced request, or under an open span, joins that trace.
pub fn write_request(stream: &mut impl Write, request: &Request) -> Result<(), NetError> {
    let mut head = format!("{} {} HTTP/1.1\r\n", request.method.as_str(), request.path);
    for (name, value) in &request.headers {
        if name != "content-length" {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
    }
    if !request.headers.contains_key("traceparent") {
        let ctx = current_trace();
        if ctx.is_valid() {
            head.push_str(&format!("traceparent: {}\r\n", ctx.traceparent()));
        }
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", request.body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(&request.body)?;
    stream.flush()?;
    Ok(())
}

/// Read one response.
pub fn read_response(stream: &mut impl Read) -> Result<Response, NetError> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = read_line(stream, &mut budget)?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    if version != "HTTP/1.1" {
        return Err(NetError::Protocol(format!(
            "unsupported version {version:?}"
        )));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| NetError::Protocol("missing status code".into()))?;
    let headers = read_headers(stream, &mut budget)?;
    let body = read_body(stream, &headers)?;
    Ok(Response {
        status: Status::from_code(code),
        headers,
        body,
    })
}

/// Write one response.
pub fn write_response(stream: &mut impl Write, response: &Response) -> Result<(), NetError> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status.code(),
        response.status.reason()
    );
    for (name, value) in &response.headers {
        if name != "content-length" {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", response.body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()?;
    Ok(())
}

/// Perform one request/response exchange over an open stream.
pub fn roundtrip(
    stream: &mut (impl Read + Write),
    request: &Request,
) -> Result<Response, NetError> {
    write_request(stream, request)?;
    read_response(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Duplex;

    #[test]
    fn request_roundtrip_over_pipe() {
        let (mut client, mut server) = Duplex::pipe();
        let request = Request::post("/wm/staticflowpusher/json")
            .with_header("X-Auth", "token-1")
            .with_json(
                &Json::object()
                    .with("name", "flow-1")
                    .with("priority", 100i64),
            );
        write_request(&mut client, &request).unwrap();
        let received = read_request(&mut server).unwrap();
        assert_eq!(received.method, Method::Post);
        assert_eq!(received.path, "/wm/staticflowpusher/json");
        assert_eq!(received.header("x-auth"), Some("token-1"));
        let json = received.json().unwrap();
        assert_eq!(json.get("priority").and_then(Json::as_i64), Some(100));
    }

    #[test]
    fn response_roundtrip_over_pipe() {
        let (mut client, mut server) = Duplex::pipe();
        let response = Response::json(Status::Created, &Json::object().with("ok", true));
        write_response(&mut server, &response).unwrap();
        let received = read_response(&mut client).unwrap();
        assert_eq!(received.status, Status::Created);
        assert_eq!(
            received.parse_json().unwrap().get("ok"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn empty_body_and_no_content() {
        let (mut client, mut server) = Duplex::pipe();
        write_response(&mut server, &Response::new(Status::NoContent)).unwrap();
        let received = read_response(&mut client).unwrap();
        assert_eq!(received.status, Status::NoContent);
        assert!(received.body.is_empty());
    }

    #[test]
    fn pipelined_requests_framed_correctly() {
        let (mut client, mut server) = Duplex::pipe();
        for i in 0..3i64 {
            let request = Request::post("/x").with_json(&Json::object().with("i", i));
            write_request(&mut client, &request).unwrap();
        }
        for i in 0..3i64 {
            let received = read_request(&mut server).unwrap();
            assert_eq!(
                received.json().unwrap().get("i").and_then(Json::as_i64),
                Some(i)
            );
        }
    }

    #[test]
    fn rejects_malformed_input() {
        let (mut client, mut server) = Duplex::pipe();
        use std::io::Write as _;
        client.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        drop(client);
        assert!(read_request(&mut server).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let (mut client, mut server) = Duplex::pipe();
        use std::io::Write as _;
        client.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(matches!(
            read_request(&mut server),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let (mut client, mut server) = Duplex::pipe();
        use std::io::Write as _;
        client
            .write_all(
                format!(
                    "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .unwrap();
        assert!(read_request(&mut server).is_err());
    }

    #[test]
    fn connection_closed_detected() {
        let (client, mut server) = Duplex::pipe();
        drop(client);
        assert!(matches!(
            read_request(&mut server),
            Err(NetError::ConnectionClosed)
        ));
    }

    #[test]
    fn query_param_parsing() {
        let request = Request::get("/vm/events?since=42&verbose");
        assert_eq!(request.query_param("since"), Some("42"));
        assert_eq!(request.query_param("verbose"), Some(""));
        assert_eq!(request.query_param("missing"), None);
        assert_eq!(Request::get("/vm/events").query_param("since"), None);
    }

    #[test]
    fn text_response_sets_plain_content_type() {
        let response = Response::text(Status::Ok, "vnfguard_core_enrollments_total 3\n");
        assert_eq!(response.status, Status::Ok);
        assert!(response
            .header("content-type")
            .unwrap()
            .starts_with("text/plain"));
        assert_eq!(response.body, b"vnfguard_core_enrollments_total 3\n");
    }

    #[test]
    fn status_helpers() {
        assert!(Status::Ok.is_success());
        assert!(Status::Created.is_success());
        assert!(!Status::Forbidden.is_success());
        assert_eq!(Status::from_code(404), Status::NotFound);
        assert_eq!(Status::from_code(599), Status::ServerError);
        assert_eq!(Status::from_code(504), Status::GatewayTimeout);
        assert_eq!(Status::GatewayTimeout.code(), 504);
        assert!(!Status::GatewayTimeout.is_success());
    }

    #[test]
    fn deadline_header_roundtrip() {
        let request = Request::post("/vm/renew").with_deadline_millis(1500);
        assert_eq!(request.header(DEADLINE_HEADER), Some("1500"));
        assert_eq!(request.deadline_millis(), Some(1500));
        assert_eq!(Request::get("/vm/ca").deadline_millis(), None);
        // A garbled budget fails closed: exhausted, not absent.
        let garbled = Request::get("/vm/ca").with_header(DEADLINE_HEADER, "soon");
        assert_eq!(garbled.deadline_millis(), Some(0));
    }

    #[test]
    fn retry_after_from_header_and_body() {
        let mut response = Response::json(
            Status::ServiceUnavailable,
            &Json::object()
                .with("code", "overloaded")
                .with("retry-after-secs", 7i64),
        );
        assert_eq!(response.retry_after_secs(), Some(7));
        // The header, when present, wins over the body field.
        response.headers.insert("retry-after".into(), "3".into());
        assert_eq!(response.retry_after_secs(), Some(3));
        assert_eq!(Response::new(Status::Ok).retry_after_secs(), None);
    }
}
