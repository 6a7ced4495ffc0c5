//! A deliberately small HTTP/1.1 server+client substrate over
//! `std::net` — just enough for `nocalertd`'s JSON routes and its
//! Server-Sent-Events incident feed, with no external dependencies.
//!
//! The subset implemented: one request per connection
//! (`Connection: close`), `Content-Length`-framed bodies, and
//! `text/event-stream` responses written incrementally. That subset is
//! exactly what `curl` speaks by default, which keeps the CI smoke and
//! the README quick-start honest.

use std::io::{self, BufRead, BufReader, Read, Take, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest request body the server will read, in bytes. A `JobSpec` is
/// a few hundred bytes; this bound exists so a misbehaving client
/// cannot balloon the server.
pub const MAX_BODY: usize = 1 << 20;

/// Longest request line or header line the server will read, in bytes
/// (line terminator included).
pub const MAX_HEADER_LINE: usize = 8 << 10;

/// Largest request head — request line plus every header line — the
/// server will read, in bytes. With [`MAX_HEADER_LINE`] and
/// [`MAX_BODY`] it bounds what one request can make the server buffer.
pub const MAX_HEAD: usize = 64 << 10;

/// How long the server waits on a silent client while reading its
/// request before it gives up on the connection.
pub const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(120);

fn proto_err(detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

/// A parsed request: method, path, and UTF-8 body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` / `POST` / …
    pub method: String,
    /// Request target, e.g. `/jobs/job-0001/events`.
    pub path: String,
    /// The body (empty when the request carried none).
    pub body: String,
}

/// Why a request could not be read: the 4xx status to answer with and a
/// plain-text detail.
#[derive(Debug)]
pub struct RequestError {
    /// HTTP status code.
    pub status: u16,
    /// The status code's reason phrase.
    pub reason: &'static str,
    /// What was wrong with the request.
    pub detail: String,
}

impl RequestError {
    fn bad_request(detail: impl std::fmt::Display) -> RequestError {
        RequestError {
            status: 400,
            reason: "Bad Request",
            detail: detail.to_string(),
        }
    }

    fn head_too_large(detail: String) -> RequestError {
        RequestError {
            status: 431,
            reason: "Request Header Fields Too Large",
            detail,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.reason, self.detail)
    }
}

impl std::error::Error for RequestError {}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        RequestError::bad_request(e)
    }
}

/// Reads one line of the request head into `line` (cleared first):
/// at most [`MAX_HEADER_LINE`] bytes, out of what is left of `head`'s
/// [`MAX_HEAD`] budget. Returns `false` at end of input.
fn read_head_line<R: BufRead>(
    head: &mut Take<R>,
    line: &mut Vec<u8>,
) -> Result<bool, RequestError> {
    line.clear();
    let n = head
        .by_ref()
        .take(MAX_HEADER_LINE as u64)
        .read_until(b'\n', line)?;
    if n == 0 || line.last() == Some(&b'\n') {
        return Ok(n > 0);
    }
    if n == MAX_HEADER_LINE {
        return Err(RequestError::head_too_large(format!(
            "header line exceeds {MAX_HEADER_LINE} bytes"
        )));
    }
    if head.limit() == 0 {
        return Err(RequestError::head_too_large(format!(
            "request head exceeds {MAX_HEAD} bytes"
        )));
    }
    // The client closed mid-line: that partial line is the last one.
    Ok(true)
}

/// Reads one HTTP/1.1 request from `stream`. The request line and each
/// header line are capped at [`MAX_HEADER_LINE`] bytes, the whole head
/// at [`MAX_HEAD`] and the body at [`MAX_BODY`], so no client can make
/// the server buffer more than that, however long it keeps sending.
///
/// # Errors
///
/// A [`RequestError`] carrying the status to answer with: `431` for an
/// oversized header line or head, `413` for an oversized body, `400` for
/// I/O failures (a client silent for [`REQUEST_READ_TIMEOUT`] among
/// them), a malformed request line or `Content-Length`, and non-UTF-8
/// text.
pub fn read_request(stream: &TcpStream) -> Result<Request, RequestError> {
    stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT))?;
    let mut head = BufReader::new(stream.try_clone()?).take(MAX_HEAD as u64);
    let mut line = Vec::new();
    read_head_line(&mut head, &mut line)?;
    let request_line = std::str::from_utf8(&line).map_err(RequestError::bad_request)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(RequestError::bad_request("malformed request line"));
    }
    let mut content_length = 0usize;
    while read_head_line(&mut head, &mut line)? {
        let header = std::str::from_utf8(&line).map_err(RequestError::bad_request)?;
        let trimmed = header.trim();
        if trimmed.is_empty() {
            break;
        }
        let lower = trimmed.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(RequestError::bad_request)?;
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError {
            status: 413,
            reason: "Payload Too Large",
            detail: format!("request body exceeds {MAX_BODY} bytes"),
        });
    }
    let mut body = vec![0u8; content_length];
    head.into_inner().read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(RequestError::bad_request)?;
    Ok(Request { method, path, body })
}

/// Writes a complete `Content-Length`-framed response and flushes.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write_response(stream, status, reason, content_type, "", body)
}

/// `503 Service Unavailable` asking the client to retry after a second,
/// with a plain-text body.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond_unavailable(stream: &mut TcpStream, detail: &str) -> io::Result<()> {
    write_response(
        stream,
        503,
        "Service Unavailable",
        "text/plain",
        "Retry-After: 1\r\n",
        detail,
    )
}

/// Writes a response head (with `extra_headers`, each line ending in
/// CRLF) and `body`, and flushes.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{extra_headers}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// `200 OK` with a JSON body.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    json: &str,
) -> io::Result<()> {
    respond(stream, status, reason, "application/json", json)
}

/// An error response with a plain-text body.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    detail: &str,
) -> io::Result<()> {
    respond(stream, status, reason, "text/plain", detail)
}

/// Starts a Server-Sent-Events response: headers only, the connection
/// stays open for incremental [`sse_event`] frames.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn sse_preamble(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
          Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one SSE frame. `event` of `None` is a plain `data:` frame.
///
/// # Errors
///
/// Propagates stream write failures (a disconnected consumer).
pub fn sse_event(stream: &mut TcpStream, event: Option<&str>, data: &str) -> io::Result<()> {
    if let Some(name) = event {
        stream.write_all(format!("event: {name}\n").as_bytes())?;
    }
    stream.write_all(format!("data: {data}\n\n").as_bytes())?;
    stream.flush()
}

/// One-shot client request; returns `(status, body)`.
///
/// The body is read to connection close, so it works for both framed
/// and close-delimited responses.
///
/// # Errors
///
/// Connection, write, or malformed-response failures.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| proto_err(format!("malformed status line: {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let trimmed = header.trim();
        if trimmed.is_empty() {
            break;
        }
        let lower = trimmed.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().ok();
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            body = String::from_utf8(buf).map_err(proto_err)?;
        }
        None => {
            reader.read_to_string(&mut body)?;
        }
    }
    Ok((status, body))
}

/// Streams an SSE endpoint: calls `on_data` with each `data:` payload
/// until the server sends an `event: done` frame, the callback returns
/// `false`, or the connection closes.
///
/// # Errors
///
/// Connection or read failures before the stream ends cleanly.
pub fn stream_events(
    addr: &str,
    path: &str,
    on_data: &mut dyn FnMut(&str) -> bool,
) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    let head = format!(
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\n\
         Connection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    // Status line + headers.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        if line.trim().is_empty() {
            break;
        }
    }
    let mut done = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let trimmed = line.trim_end();
        if trimmed == "event: done" {
            done = true;
        } else if let Some(data) = trimmed.strip_prefix("data: ") {
            if done || !on_data(data) {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Runs `read_request` on one loopback connection whose client end
    /// `client` drives from another thread.
    fn serve_one(client: impl FnOnce(TcpStream) + Send + 'static) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let writer = thread::spawn(move || client(TcpStream::connect(addr).expect("connect")));
        let (stream, _) = listener.accept().expect("accept");
        let got = read_request(&stream);
        // Closing resets a client still writing, which ends its loop.
        drop(stream);
        writer.join().expect("client thread");
        got
    }

    /// Writes `chunk` up to `times` times, stopping at the first error.
    fn keep_writing(mut s: TcpStream, chunk: &[u8], times: usize) {
        for _ in 0..times {
            if s.write_all(chunk).is_err() {
                return;
            }
        }
    }

    #[test]
    fn well_formed_request_round_trips() {
        let req = serve_one(|mut s| {
            s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
                .expect("write");
        })
        .expect("request");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
        assert_eq!(req.body, "{}");
    }

    #[test]
    fn oversized_request_or_header_line_is_431() {
        for prefix in ["", "GET /healthz HTTP/1.1\r\nX-Big: "] {
            let err = serve_one(move |mut s| {
                if s.write_all(prefix.as_bytes()).is_ok() {
                    // Never a newline: the line would grow without end.
                    keep_writing(s, &[b'a'; 4096], 1 << 10);
                }
            })
            .expect_err("oversized line");
            assert_eq!(err.status, 431, "{prefix:?}: {err}");
            assert!(err.detail.contains("header line"), "{err}");
        }
    }

    #[test]
    fn endless_header_stream_is_431() {
        let err = serve_one(|mut s| {
            if s.write_all(b"GET /healthz HTTP/1.1\r\n").is_ok() {
                // Short, well-formed header lines, far past the head cap.
                keep_writing(s, b"X-Filler: 0123456789abcdef\r\n", 1 << 16);
            }
        })
        .expect_err("endless head");
        assert_eq!(err.status, 431, "{err}");
        assert!(err.detail.contains("request head"), "{err}");
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        let err = serve_one(|mut s| {
            let head = format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            );
            s.write_all(head.as_bytes()).expect("write");
        })
        .expect_err("oversized body");
        assert_eq!(err.status, 413, "{err}");
    }

    #[test]
    fn malformed_request_line_is_400() {
        let err = serve_one(|mut s| {
            s.write_all(b"\r\n\r\n").expect("write");
        })
        .expect_err("empty request line");
        assert_eq!(err.status, 400, "{err}");
    }
}
