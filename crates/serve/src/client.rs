//! A tiny blocking HTTP/1.1 client for the AIIO server — used by the CLI
//! `client` subcommand, the loopback tests and the CI smoke script, so the
//! whole request/response path is exercised without external tooling.
//!
//! This is the String convenience wrapper over the one binary-safe
//! client, [`http::roundtrip`]: it adds the JSON content type, insists
//! on the whole declared body and decodes it as UTF-8.

use crate::http;
use std::io::{Error, ErrorKind};
use std::time::Duration;

/// A decoded response: status code plus body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    pub status: u16,
    pub body: String,
    /// Response headers, names lowercased.
    pub headers: Vec<(String, String)>,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Issue one request and read the full response. `addr` is `host:port`
/// or `http://host:port`; `body` is sent with
/// `Content-Type: application/json` when present.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request_with_headers(addr, method, path, body, timeout, &[])
}

/// [`request`] with extra request headers (e.g. `X-Deadline-Ms`). A body
/// shorter than its `Content-Length` is an `UnexpectedEof` error.
pub fn request_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<ClientResponse> {
    let mut headers = extra_headers.to_vec();
    if body.is_some() {
        headers.push(("Content-Type", "application/json"));
    }
    let resp = http::roundtrip(
        addr,
        method,
        path,
        &headers,
        body.map(str::as_bytes),
        timeout,
    )?;
    let declared = resp
        .header("content-length")
        .and_then(|v| v.parse::<usize>().ok());
    if declared.is_some_and(|n| resp.body.len() < n) {
        return Err(Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before the whole response body arrived",
        ));
    }
    let body = String::from_utf8(resp.body)
        .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
    Ok(ClientResponse {
        status: resp.status,
        body,
        headers: resp.headers,
    })
}
