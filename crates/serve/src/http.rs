//! Minimal hand-rolled HTTP/1.1 server (std only).
//!
//! Deliberately small: a blocking accept loop, one thread per
//! connection, request-line/header parsing with hard size limits,
//! `Content-Length` bodies, keep-alive, per-socket read/write timeouts,
//! and chunked responses for streaming endpoints. No TLS, no
//! compression, no routing DSL — the job API needs exactly none of
//! that, and every line here is auditable.
//!
//! Stopping the server shuts down the read side of every open
//! connection, so a kept-alive connection idle between requests closes
//! at once instead of holding up the drain until its read timeout.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default upper bound on a request body (`Content-Length` or the
/// decoded size of a chunked body); see [`HttpServer::with_max_body`].
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Requests served per connection before the server closes it (a
/// backstop against one client pinning a connection thread forever).
const MAX_REQUESTS_PER_CONN: u32 = 1024;

/// Marker carried in the [`std::io::Error`] message for bodies over the
/// limit, so the connection loop can answer 413 instead of a generic
/// 400. Oversized bodies close the connection: the unread remainder of
/// the body would otherwise be parsed as the next request.
const TOO_LARGE: &str = "request body too large";

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (may be empty).
    pub query: String,
    /// Header names are lowercased at parse time.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// What a handler returns. `Stream` bodies are written chunked, one
/// chunk per yielded string; the iterator may block between items.
pub enum HandlerResult {
    /// `application/json` body.
    Json(u16, String),
    /// `application/json` body plus extra response headers (the shed
    /// path's `Retry-After`/`retry-after-ms`). Header names must be
    /// valid HTTP tokens; values must be single-line.
    JsonHeaders(u16, String, Vec<(String, String)>),
    /// `text/plain` body.
    Text(u16, String),
    /// Body with an explicit `Content-Type` (e.g. the Prometheus
    /// exposition type for `/metrics`).
    Typed(u16, &'static str, String),
    /// Chunked `application/jsonl` stream of lines. The iterator may
    /// block while waiting for the next line; it ends the response by
    /// returning `None`.
    Stream(u16, Box<dyn Iterator<Item = String> + Send>),
}

pub type Handler = Arc<dyn Fn(&Request) -> HandlerResult + Send + Sync>;

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Counters the server exports via `/metrics`.
#[derive(Debug, Default)]
pub struct HttpCounters {
    pub accepted: AtomicU64,
    pub requests: AtomicU64,
    pub responses_2xx: AtomicU64,
    pub responses_4xx: AtomicU64,
    pub responses_5xx: AtomicU64,
    pub parse_errors: AtomicU64,
}

/// The open connections by serial, shared with their threads so that
/// stopping the server can shut their reads down.
#[derive(Default)]
struct ConnTracker {
    live: Mutex<HashMap<u64, Arc<TcpStream>>>,
    next: AtomicU64,
    zero: Condvar,
}

impl ConnTracker {
    fn enter(self: &Arc<Self>, stream: &Arc<TcpStream>) -> ConnGuard {
        let serial = self.next.fetch_add(1, Ordering::Relaxed);
        self.live
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(serial, Arc::clone(stream));
        ConnGuard(Arc::clone(self), serial)
    }

    /// Ends every open connection's reads: a connection waiting for its
    /// next request sees end of stream, one mid-response still finishes
    /// writing it.
    fn shutdown_reads(&self) {
        for stream in self.live.lock().unwrap_or_else(|e| e.into_inner()).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    fn wait_zero(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        while !live.is_empty() {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .zero
                .wait_timeout(live, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            live = guard;
        }
        true
    }
}

struct ConnGuard(Arc<ConnTracker>, u64);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut live = self.0.live.lock().unwrap_or_else(|e| e.into_inner());
        live.remove(&self.1);
        if live.is_empty() {
            self.0.zero.notify_all();
        }
    }
}

/// Handle for stopping a running [`HttpServer`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    conns: Arc<ConnTracker>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Requests the accept loop to exit and closes connections idle
    /// between requests. Idempotent.
    pub fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.conns.shutdown_reads();
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// The server: owns the listener and the connection threads.
pub struct HttpServer {
    listener: TcpListener,
    handler: Handler,
    stop: Arc<AtomicBool>,
    conns: Arc<ConnTracker>,
    pub counters: Arc<HttpCounters>,
    read_timeout: Duration,
    write_timeout: Duration,
    max_body: usize,
}

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            handler,
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::default(),
            counters: Arc::new(HttpCounters::default()),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_body: MAX_BODY_BYTES,
        })
    }

    /// Overrides the per-socket read/write timeouts (tests use short
    /// ones to exercise the slow-client path quickly).
    pub fn with_timeouts(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Overrides the request-body cap (`Content-Length` or decoded
    /// chunked size); bodies over it are rejected with 413.
    pub fn with_max_body(mut self, max_body: usize) -> Self {
        self.max_body = max_body.max(1);
        self
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            conns: Arc::clone(&self.conns),
            addr: self.local_addr(),
        }
    }

    /// Serves until [`ServerHandle::stop`] is called, then waits up to
    /// `drain` for in-flight connections to finish. Returns whether all
    /// connections drained in time.
    pub fn serve(self, drain: Duration) -> bool {
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let stream = Arc::new(stream);
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            let handler = Arc::clone(&self.handler);
            let counters = Arc::clone(&self.counters);
            let guard = self.conns.enter(&stream);
            let stop = Arc::clone(&self.stop);
            let (rt, wt) = (self.read_timeout, self.write_timeout);
            let max_body = self.max_body;
            std::thread::Builder::new()
                .name("esteem-serve-conn".into())
                .spawn(move || {
                    let _guard = guard;
                    let _ = serve_connection(stream, &handler, &counters, &stop, rt, wt, max_body);
                })
                .expect("spawn connection thread");
        }
        self.conns.wait_zero(drain)
    }
}

fn serve_connection(
    stream: Arc<TcpStream>,
    handler: &Handler,
    counters: &HttpCounters,
    stop: &AtomicBool,
    read_timeout: Duration,
    write_timeout: Duration,
    max_body: usize,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(write_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(&*stream);
    let writer = &*stream;
    for served in 1..=MAX_REQUESTS_PER_CONN {
        if !await_request(&mut reader, stop) {
            return Ok(());
        }
        let req = match read_request(&mut reader, max_body) {
            Ok(Some(req)) => req,
            // Clean end of connection (client closed between requests).
            Ok(None) => return Ok(()),
            Err(e) => {
                counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                // Timeouts on an idle keep-alive connection are routine;
                // anything else gets a best-effort 400 (413 for a body
                // over the cap) before closing.
                if e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut
                {
                    let msg = e.to_string();
                    let status = if msg.contains(TOO_LARGE) { 413 } else { 400 };
                    let _ = write_simple(writer, status, "text/plain", msg, false);
                }
                return Ok(());
            }
        };
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = served < MAX_REQUESTS_PER_CONN
            && !matches!(req.header("connection"), Some(c) if c.eq_ignore_ascii_case("close"))
            && !stop.load(Ordering::SeqCst);
        let result = handler(&req);
        let status = match &result {
            HandlerResult::Json(s, _)
            | HandlerResult::JsonHeaders(s, _, _)
            | HandlerResult::Text(s, _)
            | HandlerResult::Typed(s, _, _)
            | HandlerResult::Stream(s, _) => *s,
        };
        match status {
            200..=299 => counters.responses_2xx.fetch_add(1, Ordering::Relaxed),
            400..=499 => counters.responses_4xx.fetch_add(1, Ordering::Relaxed),
            _ => counters.responses_5xx.fetch_add(1, Ordering::Relaxed),
        };
        match result {
            HandlerResult::Json(status, body) => {
                write_simple(writer, status, "application/json", body, keep_alive)?;
            }
            HandlerResult::JsonHeaders(status, body, extra) => {
                write_with_headers(writer, status, "application/json", body, keep_alive, &extra)?;
            }
            HandlerResult::Text(status, body) => {
                write_simple(writer, status, "text/plain", body, keep_alive)?;
            }
            HandlerResult::Typed(status, content_type, body) => {
                write_simple(writer, status, content_type, body, keep_alive)?;
            }
            HandlerResult::Stream(status, lines) => {
                write_chunked(writer, status, lines, keep_alive)?;
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
    Ok(())
}

/// Waits for the first byte of the next request. `false` means the
/// connection should close instead: the client closed or reset it, it
/// stayed idle past the read timeout, or the server is stopping (which
/// also ends a read already waiting, see [`ConnTracker::shutdown_reads`]).
/// None of these is a parse error.
fn await_request(reader: &mut BufReader<&TcpStream>, stop: &AtomicBool) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    !stop.load(Ordering::SeqCst) && matches!(reader.fill_buf(), Ok(buf) if !buf.is_empty())
}

/// Reads one request. `Ok(None)` means the client closed the connection
/// cleanly before sending a request line.
fn read_request(
    reader: &mut BufReader<&TcpStream>,
    max_body: usize,
) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_owned();
    let target = parts.next().ok_or_else(|| bad("missing path"))?;
    let version = parts.next().ok_or_else(|| bad("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut hline = String::new();
        if reader.read_line(&mut hline)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        head_bytes += hline.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
        let trimmed = hline.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let chunked = headers
        .iter()
        .find(|(k, _)| k == "transfer-encoding")
        .is_some_and(|(_, v)| v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked_body(reader, max_body)?
    } else {
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse::<usize>())
            .transpose()
            .map_err(|_| bad("bad content-length"))?
            .unwrap_or(0);
        if content_length > max_body {
            return Err(bad(TOO_LARGE));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        body
    };
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Decodes a `Transfer-Encoding: chunked` request body. The cumulative
/// payload is capped at `max_body`; crossing the cap aborts the read with a
/// [`TOO_LARGE`] error before the oversized chunk is buffered, so a hostile
/// client cannot make the server allocate more than the cap.
fn read_chunked_body(
    reader: &mut BufReader<&TcpStream>,
    max_body: usize,
) -> std::io::Result<Vec<u8>> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            return Err(bad("connection closed mid-chunk"));
        }
        let size_str = size_line
            .trim_end_matches(['\r', '\n'])
            .split(';')
            .next()
            .unwrap_or("")
            .trim();
        let size = usize::from_str_radix(size_str, 16).map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            // Trailer section: zero or more header lines, then a blank line.
            loop {
                let mut trailer = String::new();
                if reader.read_line(&mut trailer)? == 0 {
                    return Err(bad("connection closed mid-trailer"));
                }
                if trailer.trim_end_matches(['\r', '\n']).is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len().saturating_add(size) > max_body {
            return Err(bad(TOO_LARGE));
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("missing chunk terminator"));
        }
    }
}

fn write_simple(
    w: &TcpStream,
    status: u16,
    content_type: &str,
    body: String,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_with_headers(w, status, content_type, body, keep_alive, &[])
}

fn write_with_headers(
    mut w: &TcpStream,
    status: u16,
    content_type: &str,
    body: String,
    keep_alive: bool,
    extra: &[(String, String)],
) -> std::io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write: on a `TCP_NODELAY` socket, two would send two segments.
    head.push_str(&body);
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Writes a chunked response. What is buffered goes out before each
/// item the iterator may block on; items its `size_hint` promises are
/// ready (a finished job's lines) share one write with the head and the
/// terminator.
fn write_chunked(
    mut w: &TcpStream,
    status: u16,
    mut lines: Box<dyn Iterator<Item = String> + Send>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\nConnection: {conn}\r\n\r\n",
        reason(status),
    )
    .into_bytes();
    loop {
        let (ready, left) = lines.size_hint();
        if ready == 0 && left != Some(0) && !out.is_empty() {
            w.write_all(&out)?;
            out.clear();
        }
        let Some(line) = lines.next() else { break };
        // One chunk per line, newline-terminated inside the chunk so a
        // consumer can split on lines without understanding chunking.
        write!(out, "{:x}\r\n", line.len() + 1)?;
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(b"\n\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(handler: Handler) -> (ServerHandle, SocketAddr, std::thread::JoinHandle<bool>) {
        let server = HttpServer::bind("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve(Duration::from_secs(5)));
        (handle, addr, join)
    }

    fn raw_roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    /// Reads one full response (head + `Content-Length` body) from a
    /// keep-alive connection; a single `read` may return partial data.
    fn read_response(s: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 512];
        loop {
            let text = String::from_utf8_lossy(&buf).into_owned();
            if let Some(head_end) = text.find("\r\n\r\n") {
                let content_length = text
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                if buf.len() >= head_end + 4 + content_length {
                    return text;
                }
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-response: {text}");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn serves_and_keeps_alive() {
        let (handle, addr, join) = start(Arc::new(|req: &Request| {
            HandlerResult::Json(200, format!("{{\"path\":\"{}\"}}", req.path))
        }));
        // Two requests on one connection, then explicit close.
        let mut s = TcpStream::connect(addr).unwrap();
        for i in 0..2 {
            let close = if i == 1 { "Connection: close\r\n" } else { "" };
            s.write_all(format!("GET /ping{i} HTTP/1.1\r\nHost: x\r\n{close}\r\n").as_bytes())
                .unwrap();
            let text = read_response(&mut s);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
            assert!(text.contains(&format!("/ping{i}")), "got: {text}");
        }
        handle.stop();
        assert!(join.join().unwrap());
    }

    #[test]
    fn post_body_and_404() {
        let (handle, addr, join) = start(Arc::new(|req: &Request| {
            if req.path == "/echo" {
                HandlerResult::Text(200, String::from_utf8_lossy(&req.body).into_owned())
            } else {
                HandlerResult::Text(404, "not found".into())
            }
        }));
        let body = "hello server";
        let out = raw_roundtrip(
            addr,
            &format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(out.contains("200 OK") && out.ends_with(body), "got: {out}");
        let out = raw_roundtrip(
            addr,
            "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(out.contains("404"), "got: {out}");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn malformed_request_gets_400() {
        let (handle, addr, join) = start(Arc::new(|_: &Request| {
            HandlerResult::Text(200, "ok".into())
        }));
        let out = raw_roundtrip(addr, "TOTAL GARBAGE\r\n\r\n");
        assert!(out.contains("400"), "got: {out}");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn chunked_stream_is_line_separable() {
        let (handle, addr, join) = start(Arc::new(|_: &Request| {
            let lines = vec!["{\"a\":1}".to_owned(), "{\"a\":2}".to_owned()];
            HandlerResult::Stream(200, Box::new(lines.into_iter()))
        }));
        let out = raw_roundtrip(
            addr,
            "GET /stream HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(out.contains("Transfer-Encoding: chunked"), "got: {out}");
        assert!(out.contains("{\"a\":1}") && out.contains("{\"a\":2}"));
        assert!(out.trim_end().ends_with("0"), "chunked terminator: {out}");
        handle.stop();
        join.join().unwrap();
    }

    fn start_cfg(
        handler: Handler,
        cfg: impl FnOnce(HttpServer) -> HttpServer,
    ) -> (ServerHandle, SocketAddr, std::thread::JoinHandle<bool>) {
        let server = cfg(HttpServer::bind("127.0.0.1:0", handler).unwrap());
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve(Duration::from_secs(5)));
        (handle, addr, join)
    }

    fn echo_handler() -> Handler {
        Arc::new(|req: &Request| {
            HandlerResult::Text(200, String::from_utf8_lossy(&req.body).into_owned())
        })
    }

    #[test]
    fn chunked_request_body_is_decoded() {
        let (handle, addr, join) = start(echo_handler());
        let out = raw_roundtrip(
            addr,
            "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n5\r\nhello\r\n7;ext=1\r\n, world\r\n0\r\n\r\n",
        );
        assert!(out.contains("200 OK"), "got: {out}");
        assert!(out.ends_with("hello, world"), "got: {out}");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn oversized_chunked_body_gets_413() {
        let (handle, addr, join) = start_cfg(echo_handler(), |s| s.with_max_body(16));
        let payload = "x".repeat(64);
        let out = raw_roundtrip(
            addr,
            &format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
                 {:x}\r\n{payload}\r\n0\r\n\r\n",
                payload.len()
            ),
        );
        assert!(out.contains("413"), "got: {out}");
        // The connection is closed after a 413 (the remaining body bytes
        // would otherwise be parsed as a next request) — read_to_string in
        // raw_roundtrip returning proves the close.
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn oversized_content_length_gets_413() {
        let (handle, addr, join) = start_cfg(echo_handler(), |s| s.with_max_body(16));
        let out = raw_roundtrip(
            addr,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000\r\n\r\n",
        );
        assert!(out.contains("413"), "got: {out}");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn slow_header_client_times_out_without_wedging_accepts() {
        let (handle, addr, join) = start_cfg(
            Arc::new(|_: &Request| HandlerResult::Text(200, "ok".into())),
            |s| s.with_timeouts(Duration::from_millis(300), Duration::from_secs(5)),
        );
        // A client that sends half a request line and then stalls.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /slow HT").unwrap();
        // While the slow client holds its connection open, a normal client
        // must still be accepted and served (one thread per connection).
        let out = raw_roundtrip(
            addr,
            "GET /fast HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(out.contains("200 OK"), "accept loop wedged: {out}");
        // The slow connection is dropped once the read timeout fires:
        // the server closes without sending a response.
        slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        let n = slow.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "expected silent close, got: {buf:?}");
        // Server remains responsive afterwards.
        let out = raw_roundtrip(
            addr,
            "GET /after HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(out.contains("200 OK"), "server dead after timeout: {out}");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn keep_alive_reuse_across_mixed_methods() {
        let (handle, addr, join) = start(Arc::new(|req: &Request| {
            HandlerResult::Text(
                200,
                format!("{} {} [{}]", req.method, req.path, req.body.len()),
            )
        }));
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let text = read_response(&mut s);
        assert!(text.ends_with("GET /a [0]"), "got: {text}");
        s.write_all(b"POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nxyz")
            .unwrap();
        let text = read_response(&mut s);
        assert!(text.ends_with("POST /b [3]"), "got: {text}");
        s.write_all(b"DELETE /c HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let text = read_response(&mut s);
        assert!(text.ends_with("DELETE /c [0]"), "got: {text}");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn extra_headers_are_emitted_before_the_body() {
        let (handle, addr, join) = start(Arc::new(|_: &Request| {
            HandlerResult::JsonHeaders(
                429,
                "{\"error\":\"queue full\"}".into(),
                vec![
                    ("Retry-After".into(), "2".into()),
                    ("retry-after-ms".into(), "1500".into()),
                ],
            )
        }));
        let out = raw_roundtrip(
            addr,
            "GET /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        let head = out.split("\r\n\r\n").next().unwrap();
        assert!(out.starts_with("HTTP/1.1 429"), "got: {out}");
        assert!(head.contains("Retry-After: 2"), "got: {head}");
        assert!(head.contains("retry-after-ms: 1500"), "got: {head}");
        assert!(out.ends_with("{\"error\":\"queue full\"}"), "got: {out}");
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn query_string_is_split_off() {
        let (handle, addr, join) = start(Arc::new(|req: &Request| {
            HandlerResult::Text(200, format!("{}|{}", req.path, req.query))
        }));
        let out = raw_roundtrip(
            addr,
            "GET /a/b?x=1&y=2 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(out.ends_with("/a/b|x=1&y=2"), "got: {out}");
        handle.stop();
        join.join().unwrap();
    }
}
