//! A deliberately minimal HTTP/1.1 implementation over `std::net`.
//!
//! The workspace is offline — no tokio, no hyper — and the serve daemon's needs are
//! narrow: parse one request per connection, answer with a `Content-Length` body or a
//! `Transfer-Encoding: chunked` stream (the JSONL progress feed), and give the `klex`
//! client subcommands a matching blocking requester.  This module implements exactly
//! that subset: no keep-alive, no pipelining, no compression, ASCII headers only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted request-body size (a scenario spec is a few KB; a megabyte is roomy).
const MAX_BODY: usize = 1 << 20;

/// How long a connection may sit idle while we read its request head.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8 (lossy — job payloads are JSON, which is UTF-8 by definition).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one request from `stream`.  Returns `Ok(None)` on a cleanly closed or empty
/// connection, `Err` with a human-readable message on a malformed one.
pub fn read_request(stream: &TcpStream) -> Result<Option<Request>, String> {
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut start_line = String::new();
    match reader.read_line(&mut start_line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(format!("request line: {e}")),
    }
    let mut parts = start_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(format!("malformed request line {start_line:?}"));
    };
    let method = method.to_ascii_uppercase();
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("header line: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| format!("bad Content-Length {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        // Drain (a bounded amount of) the oversized body before erroring: the client is
        // still writing it, and closing the socket mid-upload resets the connection before
        // the 400 response can be read.  Reading the declared body lets the client finish
        // its write and see the error; the cap keeps a lying Content-Length from pinning
        // the worker.
        let mut remaining = content_length.min(4 * MAX_BODY);
        let mut scratch = [0u8; 8192];
        while remaining > 0 {
            let take = remaining.min(scratch.len());
            match reader.read(&mut scratch[..take]) {
                Ok(0) | Err(_) => break,
                Ok(n) => remaining -= n,
            }
        }
        return Err(format!("body of {content_length} bytes exceeds the {MAX_BODY} limit"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
    Ok(Some(Request { method, path, body }))
}

/// The reason phrase of the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete (`Content-Length`-framed) response and flushes it.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response in progress — the JSONL stream writer.
///
/// Every [`ChunkedResponse::chunk`] is flushed immediately so a watching client sees
/// progress lines as they happen, not when the job ends.
pub struct ChunkedResponse<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedResponse<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<ChunkedResponse<'a>> {
        write!(
            stream,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        )?;
        stream.flush()?;
        Ok(ChunkedResponse { stream })
    }

    /// Sends one chunk (a no-op for empty data: an empty chunk would terminate the
    /// stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A parsed client-side response: status code plus the (de-chunked) body.
#[derive(Clone, Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: String,
}

/// Performs one blocking request against `addr` (e.g. `127.0.0.1:7199`).
///
/// `on_line`, when given, is invoked for every complete line of a chunked (streaming)
/// response *as it arrives*; the returned body then holds any trailing partial line.
/// Non-chunked responses are returned whole without invoking the callback.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    mut on_line: Option<&mut dyn FnMut(&str)>,
) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let payload = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    )
    .map_err(|e| format!("send {method} {path}: {e}"))?;
    writer.flush().map_err(|e| e.to_string())?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }

    let raw = if chunked {
        read_chunked(&mut reader, &mut on_line)?
    } else {
        let mut buf = match content_length {
            Some(n) => vec![0u8; n],
            None => Vec::new(),
        };
        match content_length {
            Some(_) => reader.read_exact(&mut buf).map_err(|e| format!("body: {e}"))?,
            None => {
                reader.read_to_end(&mut buf).map_err(|e| format!("body: {e}"))?;
            }
        }
        buf
    };
    Ok(Response { status, body: String::from_utf8_lossy(&raw).into_owned() })
}

/// Streaming responses are progress feeds: allow a long pause between chunks while a big
/// exploration runs, but still bail out if the server truly hangs.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(600);

/// Reads a chunked body to its terminating zero chunk, feeding complete lines to
/// `on_line` as they arrive; returns any bytes after the final newline.
fn read_chunked(
    reader: &mut BufReader<TcpStream>,
    on_line: &mut Option<&mut dyn FnMut(&str)>,
) -> Result<Vec<u8>, String> {
    let mut pending: Vec<u8> = Vec::new();
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).map_err(|e| format!("chunk size: {e}"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            // Consume the trailing CRLF (and any trailers, which we don't emit).
            let mut tail = String::new();
            let _ = reader.read_line(&mut tail);
            return Ok(pending);
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk).map_err(|e| format!("chunk body: {e}"))?;
        chunk.truncate(size); // drop the CRLF
        pending.extend_from_slice(&chunk);
        if let Some(callback) = on_line.as_mut() {
            while let Some(newline) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=newline).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                callback(text.trim_end_matches('\r'));
            }
        }
    }
}
