//! Minimal HTTP/1.1 framing over `std::io` — the one wire module for the
//! AIIO serving API and its replication endpoints: request line, headers
//! and `Content-Length` bodies in, fixed `Connection: close` responses
//! out, and [`roundtrip`], the one client. No chunked encoding, no
//! keep-alive; every exchange is one connection, which keeps both state
//! machines trivial and testable.
//!
//! It lives in `aiio-replnet` because that is the lowest crate both the
//! server (`aiio-serve`, which re-exports it as `aiio_serve::http`) and
//! the replication follower link.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed request head plus body.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// Header names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Body as UTF-8, for JSON endpoints.
    pub fn body_utf8(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.body).map_err(|_| ParseError::Bad("body is not UTF-8".into()))
    }
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed framing or header.
    Bad(String),
    /// Body exceeds the configured limit (maps to 413).
    TooLarge { limit: usize },
    /// Request line or headers exceed their byte cap (maps to 431).
    HeadTooLarge { limit: usize },
    /// The peer closed before a full request arrived.
    Io(std::io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Bad(m) => write!(f, "bad request: {m}"),
            ParseError::TooLarge { limit } => {
                write!(f, "body exceeds the {limit}-byte limit")
            }
            ParseError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds the {limit}-byte limit")
            }
            ParseError::Io(e) => write!(f, "i/o error reading request: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<ParseError> for std::io::Error {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Byte cap on the request line. One endless unterminated line must not
/// grow a `String` without bound — the 100-header limit only counts
/// *terminated* lines, so before these caps a hostile peer could stream
/// gigabytes into `read_line`.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;

/// Byte cap on the headers cumulatively (names, values and line
/// terminators together).
pub const MAX_HEADER_BYTES: usize = 32 * 1024;

/// Read one line of at most `cap` bytes (including the terminator).
/// Exceeding the cap is [`ParseError::HeadTooLarge`] carrying `limit`
/// (the overall budget, for the error message) — the line's excess bytes
/// stay unread, which is fine because head errors close the connection.
fn read_line_capped(
    reader: &mut impl BufRead,
    cap: usize,
    limit: usize,
) -> Result<String, ParseError> {
    let mut line = String::new();
    let n = std::io::Read::take(&mut *reader, cap as u64 + 1).read_line(&mut line)?;
    if n > cap {
        return Err(ParseError::HeadTooLarge { limit });
    }
    Ok(line)
}

/// Read the request line and headers (up to the blank line).
pub fn read_head(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let line = read_line_capped(reader, MAX_REQUEST_LINE_BYTES, MAX_REQUEST_LINE_BYTES)?;
    if line.is_empty() {
        return Err(ParseError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before request line",
        )));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no path".into()))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(ParseError::Bad("not an HTTP/1.x request".into())),
    }
    Ok(Request {
        method,
        path,
        headers: read_headers(reader)?,
        body: Vec::new(),
    })
}

/// Read header lines up to the blank line under [`MAX_HEADER_BYTES`],
/// names lowercased. Shared by requests and responses.
fn read_headers(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, ParseError> {
    let mut headers = Vec::new();
    let mut header_budget = MAX_HEADER_BYTES;
    loop {
        let h = read_line_capped(reader, header_budget, MAX_HEADER_BYTES)?;
        if h.is_empty() {
            return Err(ParseError::Bad("connection closed inside headers".into()));
        }
        header_budget -= h.len().min(header_budget);
        let h = h.trim_end();
        if h.is_empty() {
            return Ok(headers);
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header line '{h}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        if headers.len() > 100 {
            return Err(ParseError::Bad("too many headers".into()));
        }
    }
}

/// The declared `Content-Length` of a parsed head, if any.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, ParseError> {
    // Header lookup is first-match-wins, so before trusting it the
    // framing must reject duplicate Content-Length headers outright —
    // two conflicting values is the classic request-smuggling shape
    // (the framing uses one, a downstream handler the other), and even
    // agreeing duplicates signal a mangled or hostile peer.
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let first = lengths.next();
    if lengths.next().is_some() {
        return Err(ParseError::Bad("multiple Content-Length headers".into()));
    }
    first
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| ParseError::Bad(format!("bad Content-Length '{v}'")))
        })
        .transpose()
}

/// Read the `Content-Length` body into `req` (bounded by `max_bytes`).
pub fn read_body(
    reader: &mut impl BufRead,
    req: &mut Request,
    max_bytes: usize,
) -> Result<(), ParseError> {
    let Some(len) = content_length(&req.headers)? else {
        return Ok(());
    };
    if len > max_bytes {
        return Err(ParseError::TooLarge { limit: max_bytes });
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    req.body = body;
    Ok(())
}

/// An HTTP response: built by a handler and serialized with
/// [`Response::write_to`], or parsed off the wire by [`roundtrip`]
/// (header names lowercased, body possibly torn short).
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup (first match wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response (the `/metrics` exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A binary response (replication frame/segment bodies).
    pub fn bytes(status: u16, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize status line, headers and body.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        write!(w, "Connection: close\r\n\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

impl From<&ParseError> for Response {
    fn from(e: &ParseError) -> Response {
        match e {
            ParseError::Bad(m) => Response::error(400, m),
            ParseError::TooLarge { .. } => Response::error(413, &e.to_string()),
            ParseError::HeadTooLarge { .. } => Response::error(431, &e.to_string()),
            ParseError::Io(_) => Response::error(400, &e.to_string()),
        }
    }
}

/// Canonical reason phrases for the statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Issue one request to `base` (`host:port` or `http://host:port`) and
/// read the response. `timeout` bounds the connect and every read and
/// write, so a stalled peer is an `Err`, never a hang. `body`, when
/// present, is sent with its `Content-Length`; `headers` go out verbatim.
///
/// The body is read up to the declared `Content-Length` and never past
/// it. A peer that closes early yields the short (torn) body as-is:
/// replication's CRC walk truncates it to the last whole frame, and
/// callers that need a whole body compare it with the header.
pub fn roundtrip(
    base: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
    timeout: Duration,
) -> std::io::Result<Response> {
    let host = base
        .strip_prefix("http://")
        .unwrap_or(base)
        .trim_end_matches('/');
    let mut stream = None;
    let mut last = None;
    for addr in host.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last = Some(e),
        }
    }
    let stream = stream.ok_or_else(|| {
        last.unwrap_or_else(|| std::io::Error::other(format!("{host:?} resolved to no address")))
    })?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;

    // One write for head and body: no small-segment stalls.
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n");
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(b) = body {
        out.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body.unwrap_or_default());
    (&stream).write_all(&out)?;
    read_response(&mut BufReader::new(stream))
}

/// Parse one response: status line and headers under the same caps as a
/// request head, then at most `Content-Length` body bytes (to EOF when
/// the header is absent). The body grows with the bytes that actually
/// arrive, never with what the peer declares.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<Response> {
    let line = read_line_capped(reader, MAX_REQUEST_LINE_BYTES, MAX_REQUEST_LINE_BYTES)?;
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code.parse::<u16>().ok(),
        _ => None,
    }
    .ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad status line {line:?}"),
        )
    })?;
    let headers = read_headers(reader)?;
    let mut body = Vec::new();
    match content_length(&headers)? {
        Some(len) => Read::take(&mut *reader, len as u64).read_to_end(&mut body)?,
        None => reader.read_to_end(&mut body)?,
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Split a request target into its path and query string (`""` when the
/// target has no `?`). Routing must match on the path alone.
pub fn split_query(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    }
}

/// Parse `a=1&b=two` into pairs, percent-decoding both sides (`+` is a
/// space). Keys without `=` get an empty value; empty sections between
/// `&`s are dropped.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            // Decode on raw bytes (not &str slices) so a '%' followed by
            // part of a multibyte char cannot land on a non-boundary.
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3])
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// JSON string literal (quotes + escapes) for error envelopes, without a
/// round-trip through the serializer.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        let mut r = BufReader::new(raw.as_bytes());
        let mut req = read_head(&mut r)?;
        read_body(&mut r, &mut req, 1024)?;
        Ok(req)
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /diagnose HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/diagnose");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(ParseError::TooLarge { limit: 1024 })
        ));
    }

    #[test]
    fn rejects_non_http() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
    }

    #[test]
    fn response_wire_format() {
        let mut buf = Vec::new();
        Response::json(200, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn rejects_oversized_request_line() {
        let raw = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE_BYTES)
        );
        let err = parse(&raw).unwrap_err();
        assert!(matches!(
            err,
            ParseError::HeadTooLarge {
                limit: MAX_REQUEST_LINE_BYTES
            }
        ));
        assert_eq!(Response::from(&err).status, 431);
    }

    #[test]
    fn rejects_oversized_header_block() {
        // Each header is well under the per-line cap; only the cumulative
        // budget can reject this head.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..10 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(4 * 1024)));
        }
        raw.push_str("\r\n");
        assert!(matches!(
            parse(&raw),
            Err(ParseError::HeadTooLarge {
                limit: MAX_HEADER_BYTES
            })
        ));
    }

    #[test]
    fn rejects_unterminated_giant_header_line() {
        let mut raw = String::from("GET / HTTP/1.1\r\nX-Huge: ");
        raw.push_str(&"c".repeat(MAX_HEADER_BYTES + 1024));
        // No terminating CRLFs at all: the cap must fire before EOF handling.
        assert!(matches!(parse(&raw), Err(ParseError::HeadTooLarge { .. })));
    }

    #[test]
    fn accepts_head_just_under_the_caps() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "d".repeat(MAX_HEADER_BYTES / 2)
        );
        let req = parse(&raw).unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Conflicting values.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd";
        let err = parse(raw).unwrap_err();
        assert!(matches!(err, ParseError::Bad(_)));
        assert_eq!(Response::from(&err).status, 400);
        // Even agreeing duplicates are a smuggling shape; reject those too.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(parse(raw), Err(ParseError::Bad(_))));
    }

    #[test]
    fn split_query_separates_path_and_query() {
        assert_eq!(
            split_query("/query?counter=X&min=0"),
            ("/query", "counter=X&min=0")
        );
        assert_eq!(split_query("/stats"), ("/stats", ""));
        assert_eq!(split_query("/q?"), ("/q", ""));
    }

    #[test]
    fn parse_query_decodes_pairs() {
        let pairs = parse_query("counter=POSIX_SEQ_READS&min=-1.5&max=2e9&flag");
        assert_eq!(
            pairs,
            vec![
                ("counter".to_string(), "POSIX_SEQ_READS".to_string()),
                ("min".to_string(), "-1.5".to_string()),
                ("max".to_string(), "2e9".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
    }

    fn response(raw: &[u8]) -> std::io::Result<Response> {
        read_response(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_status_headers_and_exact_body() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nX-Repl-Frames: 7\r\n\r\n\x00\x01\xfe\xff";
        let r = response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-repl-frames"), Some("7"));
        assert_eq!(r.header("X-REPL-FRAMES"), Some("7"));
        assert_eq!(r.body, vec![0x00, 0x01, 0xfe, 0xff]);
    }

    #[test]
    fn short_body_is_returned_torn_and_long_body_is_clamped() {
        let torn = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(response(torn).unwrap().body, b"abc");
        let long = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nabcdef";
        assert_eq!(response(long).unwrap().body, b"ab");
    }

    #[test]
    fn incomplete_head_is_an_error() {
        assert!(response(b"HTTP/1.1 200 OK\r\nContent-").is_err());
        assert!(response(b"HTTP/1.1 200 OK\r\nContent-Length: 3").is_err());
        assert!(response(b"garbage\r\n\r\n").is_err());
        assert!(response(b"").is_err());
    }

    #[test]
    fn oversized_response_head_is_an_error() {
        let mut raw = String::from("HTTP/1.1 200 OK\r\n");
        for i in 0..10 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(4 * 1024)));
        }
        raw.push_str("Content-Length: 0\r\n\r\n");
        assert!(raw.len() > MAX_HEADER_BYTES);
        let err = response(raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Serve `reply` verbatim to the first connection on a loopback port,
    /// then close; returns the port.
    fn one_shot_server(reply: &'static [u8]) -> (u16, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let thread = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            read_head(&mut r).unwrap();
            s.write_all(reply).unwrap();
        });
        (port, thread)
    }

    #[test]
    fn huge_declared_length_then_close_is_a_short_body() {
        // 1 TiB declared: preallocating from the header would abort.
        let (port, t) =
            one_shot_server(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nabc");
        let r = roundtrip(
            &format!("127.0.0.1:{port}"),
            "GET",
            "/",
            &[],
            None,
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(r.body, b"abc");
        t.join().unwrap();
    }

    #[test]
    fn roundtrip_accepts_an_http_scheme_prefix() {
        let (port, t) = one_shot_server(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n");
        let r = roundtrip(
            &format!("http://127.0.0.1:{port}/"),
            "GET",
            "/healthz",
            &[],
            None,
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(r.status, 204);
        assert!(r.body.is_empty());
        t.join().unwrap();
    }

    #[test]
    fn percent_decoding_handles_escapes_and_junk() {
        let pairs = parse_query("a%20b=c%2Bd&plus+sign=1&bad=%zz&trail=%2");
        assert_eq!(
            pairs,
            vec![
                ("a b".to_string(), "c+d".to_string()),
                ("plus sign".to_string(), "1".to_string()),
                ("bad".to_string(), "%zz".to_string()),
                ("trail".to_string(), "%2".to_string()),
            ]
        );
    }
}
