//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian `u32` payload length followed by that many bytes of UTF-8
//! JSON. Length prefixing (instead of newline delimiting) lets payloads
//! carry embedded newlines (CSV uploads, trace dumps) without escaping
//! gymnastics, and makes torn frames detectable: a reader that hits EOF
//! mid-frame knows the peer died, it never mistakes half a message for a
//! whole one.
//!
//! Requests are objects with a `"cmd"` field. Responses are either
//! `{"ok":true, ...}` or `{"ok":false, "error":{"kind":..,
//! "message":.., "retryable":.., "backoff_ms":..}}`. The error kinds are
//! a closed set (see [`kind`]) so clients can switch on them.

use comet_obs::json::{self, JsonObject, JsonValue};
use std::io::{self, Read, Write};

/// Hard cap on a single frame. Large enough for any dataset the paper's
/// benchmarks use; small enough that a corrupt or malicious length prefix
/// cannot make the daemon allocate unbounded memory.
pub const MAX_FRAME: usize = 64 << 20;

/// Typed error kinds a response can carry — a closed vocabulary clients
/// dispatch on.
pub mod kind {
    /// The pending queue is at its high-water mark; retry after backoff.
    pub const QUEUE_FULL: &str = "queue-full";
    /// This tenant is at its in-flight cap; retry after backoff.
    pub const TENANT_CAP: &str = "tenant-cap";
    /// The daemon is draining and admits no new sessions.
    pub const DRAINING: &str = "draining";
    /// Unknown session or dataset id.
    pub const NOT_FOUND: &str = "not-found";
    /// Malformed request (missing field, bad value, unknown command).
    pub const INVALID: &str = "invalid";
    /// Server-side I/O failure (store write, dataset read).
    pub const IO: &str = "io";
    /// Anything else — a bug surfaced as an error instead of a crash.
    pub const INTERNAL: &str = "internal";
}

/// Write one frame: 4-byte big-endian length, then the payload, flushed.
///
/// Prefix and payload go out in a single write. Two writes (a 4-byte
/// prefix, then the payload) are the write-write-read pattern that stalls
/// a kept-open TCP connection: Nagle's algorithm holds the payload until
/// the prefix is ACKed, and the peer delays that ACK by up to ~40 ms.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", bytes.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean EOF *between* frames (the peer
/// closed the connection); EOF inside a frame is an error — a torn frame
/// means the peer died mid-message and the bytes read so far are garbage.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None), // clean EOF at a frame boundary
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))
}

/// Encode the error half of a failure response.
pub fn error_response(
    kind: &str,
    message: &str,
    retryable: bool,
    backoff_ms: Option<u64>,
) -> String {
    let mut err = JsonObject::new();
    err.field_str("kind", kind)
        .field_str("message", message)
        .field_raw("retryable", if retryable { "true" } else { "false" });
    if let Some(ms) = backoff_ms {
        err.field_u64("backoff_ms", ms);
    }
    let mut obj = JsonObject::new();
    obj.field_raw("ok", "false").field_raw("error", &err.finish());
    obj.finish()
}

/// Start an `{"ok":true, ...}` response; the caller adds payload fields
/// and calls `finish()`.
pub fn ok_response() -> JsonObject {
    let mut obj = JsonObject::new();
    obj.field_raw("ok", "true");
    obj
}

/// A parsed response, split into the ok / error halves.
#[derive(Debug, Clone)]
pub enum Response {
    /// `{"ok":true, ...}` with the whole document for field access.
    Ok(JsonValue),
    /// `{"ok":false, "error":{...}}`, decomposed.
    Err(WireError),
}

/// The error payload of a failure response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// One of the [`kind`] constants.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// Whether retrying (after `backoff_ms`) can succeed.
    pub retryable: bool,
    /// Server-suggested wait before the retry.
    pub backoff_ms: Option<u64>,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        if let Some(ms) = self.backoff_ms {
            write!(f, " (retry in {ms} ms)")?;
        }
        Ok(())
    }
}

/// Parse a response frame into its ok / error halves.
pub fn parse_response(text: &str) -> Result<Response, String> {
    let value = json::parse(text)?;
    match value.get("ok") {
        Some(JsonValue::Bool(true)) => Ok(Response::Ok(value)),
        Some(JsonValue::Bool(false)) => {
            let err = value.get("error").ok_or("ok:false without error object")?;
            Ok(Response::Err(WireError {
                kind: err.get("kind").and_then(JsonValue::as_str).unwrap_or("internal").to_string(),
                message: err.get("message").and_then(JsonValue::as_str).unwrap_or("").to_string(),
                retryable: matches!(err.get("retryable"), Some(JsonValue::Bool(true))),
                backoff_ms: err.get("backoff_ms").and_then(JsonValue::as_f64).map(|v| v as u64),
            }))
        }
        _ => Err("response missing boolean ok field".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_including_newlines() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"upload\",\"csv\":\"a,b\\ny\"}").unwrap();
        write_frame(&mut buf, "literal\nnewlines\nare fine").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            "{\"cmd\":\"upload\",\"csv\":\"a,b\\ny\"}"
        );
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "literal\nnewlines\nare fine");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let big = "x".repeat(100_000);
        let payloads = ["", "{\"cmd\":\"ping\"}", big.as_str()];
        let mut w = CountingWriter::default();
        for (i, payload) in payloads.iter().enumerate() {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
        }
        let mut r = &w.bytes[..];
        for payload in payloads {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn torn_frames_are_errors_not_messages() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "complete message").unwrap();
        // EOF inside the payload.
        let mut torn = &buf[..buf.len() - 4];
        assert!(read_frame(&mut torn).is_err(), "mid-payload EOF must error");
        // EOF inside the length prefix.
        let mut torn = &buf[..2];
        assert!(read_frame(&mut torn).is_err(), "mid-prefix EOF must error");
    }

    #[test]
    fn oversized_and_invalid_frames_are_rejected() {
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err(), "length above MAX_FRAME must be rejected unread");

        let mut bad = Vec::from(4u32.to_be_bytes());
        bad.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
        let mut r = &bad[..];
        assert!(read_frame(&mut r).is_err(), "non-UTF-8 payload must be rejected");
    }

    #[test]
    fn responses_parse_into_typed_halves() {
        let mut ok = ok_response();
        ok.field_str("session", "s00000001");
        match parse_response(&ok.finish()).unwrap() {
            Response::Ok(v) => {
                assert_eq!(v.get("session").unwrap().as_str(), Some("s00000001"));
            }
            Response::Err(e) => panic!("unexpected error {e}"),
        }

        let text = error_response(kind::QUEUE_FULL, "8 sessions pending", true, Some(250));
        match parse_response(&text).unwrap() {
            Response::Err(e) => {
                assert_eq!(e.kind, kind::QUEUE_FULL);
                assert!(e.retryable);
                assert_eq!(e.backoff_ms, Some(250));
                assert!(e.to_string().contains("retry in 250 ms"));
            }
            Response::Ok(_) => panic!("expected an error response"),
        }

        assert!(parse_response("{\"no_ok\":1}").is_err());
    }
}
