//! A deliberately small HTTP/1.1 layer over [`std::io`] streams.
//!
//! The offline build bakes in no async runtime and no HTTP crate, so the
//! daemon speaks the protocol by hand: one `POST /plan` request per
//! connection (`Connection: close` semantics), a `Content-Length` body
//! holding one JSON request line, and a JSON line back. Only the pieces
//! the daemon needs are implemented; anything else is answered with an
//! HTTP error, never a panic — a malformed peer must not take the
//! process down.

use std::io::{BufRead, Read, Write};

/// Cap on accepted body size: a plan request is a one-line JSON object,
/// so anything past this is a protocol abuse, refused early.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Cap on the request line and on each header line, terminator included:
/// a peer must not grow the daemon's memory by never sending a newline.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Cap on the number of header lines in one request.
pub const MAX_HEADERS: usize = 64;

/// The parts of a request the daemon cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`POST` expected).
    pub method: String,
    /// Request path (`/plan` expected; `/stats` serves the side channel).
    pub path: String,
    /// Decoded body.
    pub body: String,
}

/// Reads one HTTP/1.1 request from `stream`.
///
/// # Errors
///
/// Returns a user-facing message for malformed request lines, absent or
/// unparseable `Content-Length`, a line longer than [`MAX_LINE_BYTES`],
/// more than [`MAX_HEADERS`] headers, oversized bodies, or short reads.
/// The caller maps these to a 400 response.
pub fn read_request(stream: &mut impl BufRead) -> Result<HttpRequest, String> {
    let request_line = read_line_bounded(stream, "request line")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(format!(
            "malformed request line: {}",
            request_line.trim_end()
        ));
    }

    let mut content_length: usize = 0;
    let mut headers = 0usize;
    loop {
        let header = read_line_bounded(stream, "header")?;
        if header.is_empty() {
            return Err("connection closed mid-headers".to_string());
        }
        let line = header.trim_end();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header: {line}"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| format!("bad Content-Length: {}", value.trim()))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
    }

    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| format!("failed to read {content_length}-byte body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    Ok(HttpRequest { method, path, body })
}

/// Reads one line, terminator included, taking at most
/// [`MAX_LINE_BYTES`] bytes from `stream`; empty at end of stream.
fn read_line_bounded(stream: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = Vec::new();
    stream
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("failed to read {what}: {e}"))?;
    if line.len() == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
        return Err(format!("{what} exceeds the {MAX_LINE_BYTES}-byte limit"));
    }
    String::from_utf8(line).map_err(|_| format!("{what} is not valid UTF-8"))
}

/// The reason phrase for the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes one complete HTTP/1.1 response (status line, minimal headers,
/// `body` plus a trailing newline) and flushes.
///
/// This is a panic-path root: it runs on the daemon's per-connection
/// write path where the peer may vanish at any byte, so every failure
/// must surface as an `Err` for the worker to log and drop — never a
/// panic that takes a worker thread (and its queue) down.
///
/// # Errors
///
/// Propagates the underlying I/O error (broken pipe, reset, full
/// buffer) unchanged.
pub fn try_respond(stream: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len() + 1
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, String> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/plan");
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let req = parse("GET /stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        assert!(parse("").is_err());
        assert!(parse("NOT-HTTP\r\n\r\n").is_err());
        assert!(parse("POST /plan HTTP/1.1\r\nContent-Length: tall\r\n\r\n").is_err());
        assert!(parse("POST /plan HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").is_err());
        let oversized = format!(
            "POST /plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse(&oversized).unwrap_err().contains("exceeds"));
    }

    /// Hands out the bytes of `inner`, counting every byte consumed.
    struct Counting<R> {
        inner: R,
        handed_out: usize,
    }

    impl<R: BufRead> std::io::Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.handed_out += n;
            Ok(n)
        }
    }

    impl<R: BufRead> BufRead for Counting<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.handed_out += amt;
            self.inner.consume(amt);
        }
    }

    fn parse_counting(raw: &[u8]) -> (Result<HttpRequest, String>, usize) {
        let mut stream = Counting {
            inner: raw,
            handed_out: 0,
        };
        let result = read_request(&mut stream);
        (result, stream.handed_out)
    }

    #[test]
    fn an_endless_request_line_is_refused_at_the_line_bound() {
        let raw = vec![b'a'; 1 << 20];
        let (result, read) = parse_counting(&raw);
        let e = result.unwrap_err();
        assert!(e.contains("request line exceeds"), "{e}");
        assert!(read <= MAX_LINE_BYTES, "read {read} bytes");
    }

    #[test]
    fn a_header_flood_is_refused_at_the_header_bound() {
        let request_line = "POST /plan HTTP/1.1\r\n";
        let header = "X-Pad: 1\r\n";
        let raw = format!("{request_line}{}\r\n", header.repeat(10_000));
        let (result, read) = parse_counting(raw.as_bytes());
        let e = result.unwrap_err();
        assert!(e.contains("headers"), "{e}");
        let bound = request_line.len() + (MAX_HEADERS + 1) * header.len();
        assert!(read <= bound, "read {read} bytes, bound {bound}");
    }

    #[test]
    fn lines_up_to_the_bound_still_parse() {
        let path = format!(
            "/{}",
            "p".repeat(MAX_LINE_BYTES - "GET / HTTP/1.1\r\n".len())
        );
        let headers = "X-Pad: 1\r\n".repeat(MAX_HEADERS);
        let req = parse(&format!("GET {path} HTTP/1.1\r\n{headers}\r\n")).unwrap();
        assert_eq!(req.path, path);
        let longer = format!("GET {path}p HTTP/1.1\r\n\r\n");
        assert!(parse(&longer).unwrap_err().contains("exceeds"));
        let more = "X-Pad: 1\r\n".repeat(MAX_HEADERS + 1);
        assert!(parse(&format!("GET / HTTP/1.1\r\n{more}\r\n")).is_err());
    }

    #[test]
    fn responses_carry_the_framing_headers() {
        let mut out = Vec::new();
        try_respond(&mut out, 429, "{\"status\":\"shed\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 18\r\n"));
        assert!(text.ends_with("{\"status\":\"shed\"}\n"));
    }
}
