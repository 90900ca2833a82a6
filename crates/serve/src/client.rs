//! Minimal blocking HTTP/1.1 client for the daemon's API (std only).
//!
//! Each thread keeps one persistent connection per daemon address and
//! reuses it for every request, the chunked events stream included: a
//! job's submit, events and fetch share one TCP connection. A request
//! goes out in one write on a `TCP_NODELAY` socket. A connection returns
//! to the thread's pool only after a complete response that did not say
//! `Connection: close`; a reused connection that fails before any
//! response byte arrives (the server closed it while idle) is retried
//! once on a fresh one. Response heads, `Content-Length` bodies and
//! chunks are size-capped, so a broken or hostile server yields an
//! `Err`, not a panic or an oversized allocation.
//!
//! Also: a streaming mode that hands chunked lines to a callback as they
//! arrive, and an optional [`RetryPolicy`] with jittered exponential
//! backoff for transport-level failures — enough for `esteem-client`,
//! the coordinator→worker path, and the end-to-end tests, and nothing
//! more.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::{map_get, Deserialize, Value};

use crate::job::JobSpec;

/// Default read timeout: long, because `fetch` blocks on the daemon
/// while a simulation runs.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(300);

/// A fully decoded response: status, lowercased headers, body.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// Jittered exponential backoff schedule for transport-level retries
/// (connect refused, timeouts, connections dropped mid-response).
///
/// Retrying a submit is safe end to end: job submission is idempotent on
/// the daemon side (identical in-flight specs coalesce, completed specs
/// hit the run cache), and polls are read-only.
///
/// The delay before retry `attempt` (0-based) is drawn with *equal
/// jitter* from the exponential envelope: the raw delay doubles per
/// attempt starting at `backoff_ms` and capped at `max_backoff_ms`;
/// the actual sleep is `capped/2 + rand(0..=capped/2)`. Jitter is
/// derived deterministically from `jitter_seed` so schedules are
/// reproducible in tests while distinct clients (distinct seeds)
/// decorrelate in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Number of *re*-tries after the initial attempt (0 = no retries).
    pub retries: u32,
    /// Base delay for the exponential envelope, in milliseconds.
    pub backoff_ms: u64,
    /// Cap on the raw (pre-jitter) delay, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for deterministic jitter.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: fail on the first transport error.
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_seed: 0,
        }
    }

    /// `retries` attempts after the first, doubling from `backoff_ms`
    /// and capped at `16 * backoff_ms`.
    pub fn new(retries: u32, backoff_ms: u64) -> Self {
        RetryPolicy {
            retries,
            backoff_ms,
            max_backoff_ms: backoff_ms.saturating_mul(16),
            jitter_seed: 0x5EED,
        }
    }

    /// Same policy with a different jitter seed (decorrelates clients).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Delay in milliseconds before retry `attempt` (0-based).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let raw = self
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(16) as u64);
        let capped = raw.min(self.max_backoff_ms);
        let half = capped / 2;
        half + splitmix64(self.jitter_seed ^ u64::from(attempt)) % (half + 1)
    }

    /// The full backoff schedule, one delay per retry. Mostly for tests
    /// and `--help` style introspection.
    pub fn schedule(&self) -> Vec<u64> {
        (0..self.retries).map(|a| self.delay_ms(a)).collect()
    }
}

/// SplitMix64 — tiny deterministic hash for jitter (no rand dep).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Upper bound on a response head (status line plus headers).
const MAX_RESPONSE_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on a response body: its `Content-Length`, or the decoded
/// size of a chunked body.
const MAX_RESPONSE_BODY_BYTES: usize = 256 * 1024 * 1024;
/// Upper bound on one chunk-size or trailer line.
const MAX_CHUNK_LINE_BYTES: usize = 1024;
/// Idle connections one thread keeps for reuse.
const POOL_SIZE: usize = 4;

/// Response head: status + lowercased headers.
struct Head {
    status: u16,
    headers: Vec<(String, String)>,
}

/// A failed request. `stale` means no response byte arrived, so a
/// reused connection may simply have been closed by the server while it
/// sat idle.
struct Failure {
    msg: String,
    stale: bool,
}

impl Failure {
    fn fatal(msg: String) -> Self {
        Failure { msg, stale: false }
    }
}

fn is_disconnect(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionReset | ConnectionAborted | BrokenPipe | NotConnected | UnexpectedEof
    )
}

/// Appends one line of at most `cap` bytes to `line`; returns the bytes
/// read, 0 at end of stream. A longer line is an error.
fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut String,
    cap: usize,
) -> std::io::Result<usize> {
    let n = (&mut *reader).take(cap as u64).read_line(line)?;
    if n >= cap && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line longer than {cap} bytes"),
        ));
    }
    Ok(n)
}

fn read_head(reader: &mut impl BufRead) -> Result<Head, Failure> {
    let mut line = String::new();
    let mut budget = MAX_RESPONSE_HEAD_BYTES;
    match read_line_capped(reader, &mut line, budget) {
        Ok(0) => {
            return Err(Failure {
                msg: "connection closed before the response".into(),
                stale: true,
            })
        }
        Ok(n) => budget -= n,
        Err(e) => {
            return Err(Failure {
                stale: line.is_empty() && is_disconnect(&e),
                msg: format!("reading status line: {e}"),
            })
        }
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| Failure::fatal(format!("bad status line: {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        let n = read_line_capped(reader, &mut h, budget)
            .map_err(|e| Failure::fatal(format!("reading headers: {e}")))?;
        if n == 0 {
            return Err(Failure::fatal("connection closed mid-headers".into()));
        }
        budget -= n;
        let t = h.trim_end_matches(['\r', '\n']);
        if t.is_empty() {
            break;
        }
        if let Some((k, v)) = t.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }
    Ok(Head { status, headers })
}

fn header<'a>(head: &'a Head, name: &str) -> Option<&'a str> {
    head.headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn is_chunked(head: &Head) -> bool {
    header(head, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
}

/// A kept-alive connection to one daemon address.
struct Conn {
    addr: String,
    reader: BufReader<TcpStream>,
    read_timeout: Duration,
}

thread_local! {
    /// This thread's idle connections, least recently used first.
    static POOL: RefCell<Vec<Conn>> = const { RefCell::new(Vec::new()) };
}

impl Conn {
    fn open(addr: &str, read_timeout: Duration) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        Ok(Conn {
            addr: addr.to_owned(),
            reader: BufReader::new(stream),
            read_timeout,
        })
    }

    /// This thread's idle connection to `addr`, if it has one.
    fn pooled(addr: &str, read_timeout: Duration) -> Option<Conn> {
        let mut conn = POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            let i = pool.iter().rposition(|c| c.addr == addr)?;
            Some(pool.remove(i))
        })?;
        if conn.read_timeout != read_timeout {
            let _ = conn.reader.get_ref().set_read_timeout(Some(read_timeout));
            conn.read_timeout = read_timeout;
        }
        Some(conn)
    }

    /// Returns the connection to this thread's pool, evicting the least
    /// recently used one when the pool is full.
    fn release(self) {
        POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() >= POOL_SIZE {
                pool.remove(0);
            }
            pool.push(self);
        });
    }

    /// Sends the request, head and body in one write, and reads the
    /// response head.
    fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<Head, Failure> {
        let body = body.unwrap_or("");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: esteem\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        req.push_str(body);
        self.reader
            .get_mut()
            .write_all(req.as_bytes())
            .map_err(|e| Failure {
                msg: format!("sending request: {e}"),
                stale: true,
            })?;
        read_head(&mut self.reader)
    }

    /// Reads the body `head` announces, handing its text to `sink` (once
    /// per chunk of a chunked body), then pools the connection unless the
    /// response ends it.
    fn finish(mut self, head: &Head, sink: impl FnMut(&str)) -> Result<(), String> {
        let framed = read_body(&mut self.reader, head, sink)?;
        let close = header(head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if framed && !close && self.reader.buffer().is_empty() {
            self.release();
        }
        Ok(())
    }
}

/// Sends one request and reads the response head, on this thread's
/// pooled connection to `addr` when it has one. A reused connection that
/// fails before any response byte arrives is retried once on a fresh
/// connection: the server may have closed it while idle, and every
/// request the client sends is safe to repeat (see [`RetryPolicy`]).
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    read_timeout: Duration,
) -> Result<(Conn, Head), String> {
    if let Some(mut conn) = Conn::pooled(addr, read_timeout) {
        match conn.send(method, path, body) {
            Ok(head) => return Ok((conn, head)),
            Err(f) if !f.stale => return Err(f.msg),
            Err(_) => {}
        }
    }
    let mut conn = Conn::open(addr, read_timeout)?;
    let head = conn.send(method, path, body).map_err(|f| f.msg)?;
    Ok((conn, head))
}

/// Reads a response body per its framing, handing text to `sink`.
/// Returns whether the body was framed (chunked or `Content-Length`),
/// that is, whether the connection can carry another request.
fn read_body(
    reader: &mut impl BufRead,
    head: &Head,
    mut sink: impl FnMut(&str),
) -> Result<bool, String> {
    if is_chunked(head) {
        read_chunked(reader, sink)?;
        return Ok(true);
    }
    let (limit, framed) = match header(head, "content-length") {
        Some(len) => {
            let len: usize = len.parse().map_err(|_| "bad content-length".to_owned())?;
            if len > MAX_RESPONSE_BODY_BYTES {
                return Err(format!(
                    "response body of {len} bytes is over the {MAX_RESPONSE_BODY_BYTES}-byte cap"
                ));
            }
            (len, true)
        }
        // Unframed: the body runs to the end of the connection.
        None => (MAX_RESPONSE_BODY_BYTES + 1, false),
    };
    // The buffer grows as bytes arrive, so a length the peer never
    // sends costs no memory.
    let mut buf = Vec::new();
    let read = (&mut *reader)
        .take(limit as u64)
        .read_to_end(&mut buf)
        .map_err(|e| format!("reading body: {e}"));
    if framed {
        read?;
        if buf.len() < limit {
            return Err("connection closed mid-body".into());
        }
    } else if buf.len() > MAX_RESPONSE_BODY_BYTES {
        return Err(format!(
            "response body is over the {MAX_RESPONSE_BODY_BYTES}-byte cap"
        ));
    }
    sink(&String::from_utf8_lossy(&buf));
    Ok(framed)
}

/// One request/response round trip; decodes `Content-Length` and
/// chunked bodies. Returns `(status, body)`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    request_once(addr, method, path, body, DEFAULT_READ_TIMEOUT)
        .map(|(status, _, body)| (status, body))
}

/// [`request`] that also returns the (lowercased) response headers —
/// the shed path's `Retry-After`/`retry-after-ms` hints live there.
pub fn request_full(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    read_timeout: Duration,
) -> Result<FullResponse, String> {
    request_once(addr, method, path, body, read_timeout)
}

/// The server's retry hint from response headers, in milliseconds:
/// `retry-after-ms` (precise) wins over integer-seconds `Retry-After`.
pub fn retry_after_ms(headers: &[(String, String)]) -> Option<u64> {
    let get = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if let Some(ms) = get("retry-after-ms").and_then(|v| v.parse::<u64>().ok()) {
        return Some(ms);
    }
    get("retry-after")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|secs| secs.saturating_mul(1000))
}

/// Recovers the retry hint a failed [`submit_with`] embedded in its
/// error string (the coordinator's shed-backoff path).
pub fn retry_after_ms_from_error(err: &str) -> Option<u64> {
    let rest = err.split("(retry after ").nth(1)?;
    rest.split("ms)").next()?.trim().parse().ok()
}

/// [`request`] with a retry policy: transport errors (connect refused,
/// timeout, connection dropped mid-response) are retried per `policy`;
/// HTTP error statuses are returned to the caller, not retried.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
    read_timeout: Duration,
) -> Result<(u16, String), String> {
    let mut attempt = 0u32;
    loop {
        match request_once(addr, method, path, body, read_timeout) {
            Ok((status, _, body)) => return Ok((status, body)),
            Err(e) if attempt < policy.retries => {
                std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt)));
                attempt += 1;
                let _ = e;
            }
            Err(e) => {
                return Err(if attempt > 0 {
                    format!("{e} (after {} retries)", attempt)
                } else {
                    e
                })
            }
        }
    }
}

fn request_once(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    read_timeout: Duration,
) -> Result<FullResponse, String> {
    let (conn, head) = exchange(addr, method, path, body, read_timeout)?;
    let mut out = String::new();
    conn.finish(&head, |text| out.push_str(text))?;
    Ok((head.status, head.headers, out))
}

/// Decodes a chunked body, invoking `sink` once per chunk payload.
fn read_chunked(reader: &mut impl BufRead, mut sink: impl FnMut(&str)) -> Result<(), String> {
    let mut total = 0usize;
    let mut buf = Vec::new();
    loop {
        let mut size_line = String::new();
        if read_line_capped(reader, &mut size_line, MAX_CHUNK_LINE_BYTES)
            .map_err(|e| format!("reading chunk size: {e}"))?
            == 0
        {
            return Err("connection closed mid-chunk".into());
        }
        let size_str = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        total = total.saturating_add(size);
        if total > MAX_RESPONSE_BODY_BYTES {
            return Err(format!(
                "chunked body is over the {MAX_RESPONSE_BODY_BYTES}-byte cap"
            ));
        }
        if size == 0 {
            // Trailer section: header lines, then a blank line.
            loop {
                let mut trailer = String::new();
                if read_line_capped(reader, &mut trailer, MAX_CHUNK_LINE_BYTES)
                    .map_err(|e| format!("reading chunk trailer: {e}"))?
                    == 0
                {
                    return Err("connection closed mid-trailer".into());
                }
                if trailer.trim_end_matches(['\r', '\n']).is_empty() {
                    return Ok(());
                }
            }
        }
        buf.clear();
        (&mut *reader)
            .take(size as u64)
            .read_to_end(&mut buf)
            .map_err(|e| format!("reading chunk: {e}"))?;
        let mut crlf = [0u8; 2];
        if buf.len() < size || reader.read_exact(&mut crlf).is_err() {
            return Err("connection closed mid-chunk".into());
        }
        if &crlf != b"\r\n" {
            return Err("missing chunk terminator".into());
        }
        sink(&String::from_utf8_lossy(&buf));
    }
}

/// Streams a chunked endpoint (`/v1/jobs/{id}/events`), calling
/// `on_line` per newline-terminated line as chunks arrive. Returns the
/// HTTP status.
pub fn stream_lines(addr: &str, path: &str, mut on_line: impl FnMut(&str)) -> Result<u16, String> {
    let (conn, head) = exchange(addr, "GET", path, None, DEFAULT_READ_TIMEOUT)?;
    if !is_chunked(&head) {
        // Error responses are plain bodies; drain and report via status.
        let _ = conn.finish(&head, |_| {});
        return Ok(head.status);
    }
    let mut pending = String::new();
    conn.finish(&head, |chunk| {
        pending.push_str(chunk);
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim_end_matches('\n');
            if !line.is_empty() {
                on_line(line);
            }
        }
    })?;
    if !pending.trim().is_empty() {
        on_line(pending.trim_end_matches('\n'));
    }
    Ok(head.status)
}

/// Parsed `POST /v1/jobs` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitResponse {
    pub job: u64,
    pub coalesced: bool,
    pub cached: bool,
}

/// Submits a job spec; returns the assigned (or coalesced-onto) job id.
pub fn submit(addr: &str, spec: &JobSpec) -> Result<SubmitResponse, String> {
    submit_with(addr, spec, &RetryPolicy::none(), DEFAULT_READ_TIMEOUT)
}

/// Ceiling on honored `Retry-After` hints (a buggy or hostile server
/// must not park a client for minutes).
const MAX_HONORED_RETRY_AFTER_MS: u64 = 60_000;

/// [`submit`] with retries: safe because identical re-submissions
/// coalesce onto the in-flight job or hit the run cache.
///
/// Transport errors back off per `policy` as before. A 429 shed is
/// *also* retried within the policy budget, sleeping the server's
/// `Retry-After`/`retry-after-ms` hint when present (the daemon derives
/// it from queue-wait percentiles) instead of the blind exponential —
/// so a closed-loop client paces itself to the saturated daemon rather
/// than hammering it. If retries run out, the hint is embedded in the
/// error (`... (retry after Nms)`) for callers that manage their own
/// requeue, e.g. the cluster coordinator.
pub fn submit_with(
    addr: &str,
    spec: &JobSpec,
    policy: &RetryPolicy,
    read_timeout: Duration,
) -> Result<SubmitResponse, String> {
    let body = serde_json::to_string(spec).map_err(|e| format!("encoding spec: {e}"))?;
    let mut attempt = 0u32;
    loop {
        match request_once(addr, "POST", "/v1/jobs", Some(&body), read_timeout) {
            Ok((202, _, resp)) => {
                let v: Value =
                    serde_json::from_str(&resp).map_err(|e| format!("bad response: {e}"))?;
                let m = v.as_map().ok_or("response is not an object")?;
                let job = u64::from_value(map_get(m, "job").map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
                let flag = |k: &str| matches!(map_get(m, k), Ok(Value::Bool(true)));
                return Ok(SubmitResponse {
                    job,
                    coalesced: flag("coalesced"),
                    cached: flag("cached"),
                });
            }
            Ok((429, headers, resp)) => {
                let hint = retry_after_ms(&headers);
                if attempt < policy.retries {
                    let delay = hint
                        .map(|ms| ms.clamp(1, MAX_HONORED_RETRY_AFTER_MS))
                        .unwrap_or_else(|| policy.delay_ms(attempt));
                    std::thread::sleep(Duration::from_millis(delay));
                    attempt += 1;
                    continue;
                }
                let suffix = hint
                    .map(|ms| format!(" (retry after {ms}ms)"))
                    .unwrap_or_default();
                return Err(format!("submit failed (429): {resp}{suffix}"));
            }
            Ok((status, _, resp)) => return Err(format!("submit failed ({status}): {resp}")),
            Err(e) if attempt < policy.retries => {
                std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt)));
                attempt += 1;
                let _ = e;
            }
            Err(e) => {
                return Err(if attempt > 0 {
                    format!("{e} (after {attempt} retries)")
                } else {
                    e
                })
            }
        }
    }
}

/// `GET /v1/jobs/{id}` parsed into `(state, full response value)`.
pub fn poll(addr: &str, job: u64) -> Result<(String, Value), String> {
    poll_with(addr, job, &RetryPolicy::none(), DEFAULT_READ_TIMEOUT)
}

/// [`poll`] with retries (polls are read-only, always safe to retry).
pub fn poll_with(
    addr: &str,
    job: u64,
    policy: &RetryPolicy,
    read_timeout: Duration,
) -> Result<(String, Value), String> {
    let (status, resp) = request_with(
        addr,
        "GET",
        &format!("/v1/jobs/{job}"),
        None,
        policy,
        read_timeout,
    )?;
    if status != 200 {
        return Err(format!("poll failed ({status}): {resp}"));
    }
    let v: Value = serde_json::from_str(&resp).map_err(|e| format!("bad response: {e}"))?;
    let state = v
        .as_map()
        .and_then(|m| map_get(m, "state").ok())
        .and_then(|s| s.as_str())
        .ok_or("response missing state")?
        .to_owned();
    Ok((state, v))
}

/// Polls until the job is terminal. `Ok(result_value)` on done (the
/// report as a JSON value), `Err` with the job's error on failure.
pub fn fetch(addr: &str, job: u64, poll_interval: Duration) -> Result<Value, String> {
    fetch_with(
        addr,
        job,
        poll_interval,
        &RetryPolicy::none(),
        DEFAULT_READ_TIMEOUT,
    )
}

/// [`fetch`] with per-poll retries.
pub fn fetch_with(
    addr: &str,
    job: u64,
    poll_interval: Duration,
    policy: &RetryPolicy,
    read_timeout: Duration,
) -> Result<Value, String> {
    loop {
        let (state, v) = poll_with(addr, job, policy, read_timeout)?;
        match state.as_str() {
            "done" => {
                let m = v.as_map().ok_or("response is not an object")?;
                return map_get(m, "result").cloned().map_err(|e| e.to_string());
            }
            "failed" => {
                let err = v
                    .as_map()
                    .and_then(|m| map_get(m, "error").ok())
                    .and_then(|e| e.as_str())
                    .unwrap_or("unknown error")
                    .to_owned();
                return Err(format!("job {job} failed: {err}"));
            }
            _ => std::thread::sleep(poll_interval),
        }
    }
}

/// `POST /v1/shutdown`.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let (status, body) = request(addr, "POST", "/v1/shutdown", None)?;
    if status == 200 {
        Ok(())
    } else {
        Err(format!("shutdown failed ({status}): {body}"))
    }
}

/// `GET /metrics` (plain text).
pub fn metrics(addr: &str) -> Result<String, String> {
    let (status, body) = request(addr, "GET", "/metrics", None)?;
    if status == 200 {
        Ok(body)
    } else {
        Err(format!("metrics failed ({status}): {body}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_exponential_capped_and_jittered() {
        let p = RetryPolicy::new(6, 100);
        let schedule = p.schedule();
        assert_eq!(schedule.len(), 6);
        // Raw envelope: 100, 200, 400, 800, 1600, capped at 1600.
        let raw = [100u64, 200, 400, 800, 1600, 1600];
        for (attempt, (&delay, &cap)) in schedule.iter().zip(raw.iter()).enumerate() {
            assert!(
                delay >= cap / 2 && delay <= cap,
                "attempt {attempt}: delay {delay} outside [{}..{}]",
                cap / 2,
                cap
            );
        }
        // Deterministic for a fixed seed...
        assert_eq!(schedule, p.schedule());
        // ...and decorrelated across seeds.
        assert_ne!(schedule, p.with_seed(42).schedule());
    }

    #[test]
    fn no_retry_policy_has_empty_schedule() {
        assert!(RetryPolicy::none().schedule().is_empty());
        assert_eq!(RetryPolicy::new(0, 250).schedule(), Vec::<u64>::new());
    }

    #[test]
    fn request_with_retries_past_a_dropped_connection() {
        use std::io::Write as _;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection: accept and drop without answering.
            drop(listener.accept().unwrap());
            // Second connection: serve a real response.
            let (mut s, _) = listener.accept().unwrap();
            let mut drain = [0u8; 1024];
            let _ = std::io::Read::read(&mut s, &mut drain);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
                .unwrap();
        });
        let policy = RetryPolicy::new(2, 1);
        let (status, body) = request_with(
            &addr,
            "GET",
            "/v1/health",
            None,
            &policy,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"));
        server.join().unwrap();
    }

    #[test]
    fn retry_after_ms_prefers_precise_header() {
        let headers = vec![
            ("retry-after".to_string(), "2".to_string()),
            ("retry-after-ms".to_string(), "1500".to_string()),
        ];
        assert_eq!(retry_after_ms(&headers), Some(1500));
        // Seconds-only header falls back to ms conversion.
        let secs_only = vec![("retry-after".to_string(), "3".to_string())];
        assert_eq!(retry_after_ms(&secs_only), Some(3000));
        assert_eq!(retry_after_ms(&[]), None);
    }

    #[test]
    fn retry_after_marker_round_trips_through_error_strings() {
        let err = "submit failed (429): {\"error\":\"queue full\"} (retry after 250ms)";
        assert_eq!(retry_after_ms_from_error(err), Some(250));
        assert_eq!(retry_after_ms_from_error("submit failed (429): shed"), None);
        assert_eq!(retry_after_ms_from_error("ok"), None);
    }

    #[test]
    fn submit_honors_retry_after_on_429_then_succeeds() {
        use std::io::Write as _;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First request: shed with a tiny Retry-After hint.
            let (mut s, _) = listener.accept().unwrap();
            let mut drain = [0u8; 4096];
            let _ = std::io::Read::read(&mut s, &mut drain);
            let body = "{\"error\":\"queue full\"}";
            s.write_all(
                format!(
                    "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                     Retry-After: 1\r\nretry-after-ms: 5\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
            // Retried request: accept the job.
            let (mut s, _) = listener.accept().unwrap();
            let _ = std::io::Read::read(&mut s, &mut drain);
            let body = "{\"job\":7,\"coalesced\":false,\"cached\":false}";
            s.write_all(
                format!(
                    "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        });
        let start = std::time::Instant::now();
        let resp = submit_with(
            &addr,
            &JobSpec::default(),
            &RetryPolicy::new(2, 60_000), // blind backoff would sleep 60s
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.job, 7);
        // Honoring the 5ms hint keeps the retry far under the blind
        // 60s backoff envelope.
        assert!(start.elapsed() < Duration::from_secs(5));
        server.join().unwrap();
    }

    #[test]
    fn exhausted_429_retries_embed_the_hint_in_the_error() {
        use std::io::Write as _;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut drain = [0u8; 4096];
            let _ = std::io::Read::read(&mut s, &mut drain);
            let body = "{\"error\":\"queue full\"}";
            s.write_all(
                format!(
                    "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                     retry-after-ms: 750\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        });
        let err = submit_with(
            &addr,
            &JobSpec::default(),
            &RetryPolicy::none(),
            Duration::from_secs(5),
        )
        .unwrap_err();
        assert!(err.contains("submit failed (429)"), "got: {err}");
        assert_eq!(retry_after_ms_from_error(&err), Some(750));
        server.join().unwrap();
    }

    /// A fake server: accepts one connection, reads whatever request
    /// arrives, writes `response` and closes.
    fn one_shot(response: Vec<u8>) -> (String, std::thread::JoinHandle<()>) {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut drain = [0u8; 4096];
            let _ = std::io::Read::read(&mut s, &mut drain);
            let _ = s.write_all(&response);
        });
        (addr, server)
    }

    fn request_err(response: &str) -> String {
        let (addr, server) = one_shot(response.as_bytes().to_vec());
        let err = request(&addr, "GET", "/v1/health", None).unwrap_err();
        server.join().unwrap();
        err
    }

    #[test]
    fn chunk_sizes_past_the_cap_are_errors_not_panics() {
        for size in ["ffffffffffffffff", "10000000000"] {
            let err = request_err(&format!(
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{size}\r\nxx"
            ));
            assert!(err.contains("cap"), "size {size}: {err}");
        }
    }

    #[test]
    fn content_length_past_the_cap_is_an_error() {
        let err = request_err("HTTP/1.1 200 OK\r\nContent-Length: 10000000000\r\n\r\nxx");
        assert!(err.contains("cap"), "got: {err}");
    }

    #[test]
    fn unbounded_head_lines_are_errors() {
        let status_line = format!("HTTP/1.1 200 {}", "a".repeat(100_000));
        let err = request_err(&status_line);
        assert!(err.contains("longer than"), "got: {err}");
        let headers = format!("HTTP/1.1 200 OK\r\n{}", "X-Pad: aaaaaaaa\r\n".repeat(8_000));
        let err = request_err(&headers);
        assert!(err.contains("longer than"), "got: {err}");
    }

    /// Reads one request head (and its `Content-Length` body) off a fake
    /// server's connection; `None` at end of stream.
    fn read_fake_request(reader: &mut BufReader<TcpStream>) -> Option<String> {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let len = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .map_or(0, |v| v.trim().parse().unwrap());
        let mut body = vec![0; len];
        reader.read_exact(&mut body).ok()?;
        Some(head)
    }

    const KEEP_ALIVE_OK: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";

    #[test]
    fn keep_alive_responses_reuse_one_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accepts a single connection: a second one would never be
        // answered and the request would time out.
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut heads = Vec::new();
            for _ in 0..3 {
                heads.push(read_fake_request(&mut reader).unwrap());
                (&s).write_all(KEEP_ALIVE_OK).unwrap();
            }
            heads
        });
        for path in ["/a", "/b", "/c"] {
            let (status, _, body) =
                request_full(&addr, "GET", path, None, Duration::from_secs(5)).unwrap();
            assert_eq!((status, body.as_str()), (200, "ok"));
        }
        for head in server.join().unwrap() {
            assert!(
                !head.to_ascii_lowercase().contains("connection: close"),
                "{head}"
            );
        }
    }

    #[test]
    fn stale_pooled_connection_is_retried_once_on_a_fresh_one() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            for conn in 0..2 {
                let (s, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(s.try_clone().unwrap());
                read_fake_request(&mut reader).unwrap();
                (&s).write_all(KEEP_ALIVE_OK).unwrap();
                if conn == 0 {
                    // Close the kept-alive connection while it is idle.
                    let _ = s.shutdown(std::net::Shutdown::Both);
                    drop((s, reader));
                    closed_tx.send(()).unwrap();
                }
            }
        });
        assert_eq!(request(&addr, "GET", "/a", None).unwrap().0, 200);
        closed_rx.recv().unwrap();
        assert_eq!(request(&addr, "GET", "/b", None).unwrap().0, 200);
        server.join().unwrap();
    }

    #[test]
    fn request_without_retries_fails_fast_on_dead_port() {
        // Bind-then-drop guarantees the port is closed.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = request(&addr, "GET", "/v1/health", None).unwrap_err();
        assert!(err.contains("connecting to"), "got: {err}");
    }
}
