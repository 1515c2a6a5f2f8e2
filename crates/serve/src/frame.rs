//! Wire framing for the two transports (DESIGN.md §12):
//!
//! * **TCP** — length-delimited frames: a 4-byte big-endian payload length
//!   followed by that many bytes of UTF-8 JSON. The length cap is the
//!   server's first line of defence: an oversized declaration is rejected
//!   *before* any allocation, the declared bytes are skipped to stay in
//!   sync, and the connection stays usable.
//! * **stdio** — NDJSON: one JSON object per `\n`-terminated line. Line
//!   length is capped the same way; an overlong line is discarded up to
//!   its newline and reported, never buffered unboundedly.

use std::io::{self, BufRead, Read, Write};

/// Default maximum frame / line payload in bytes (8 MiB — comfortably
/// above any kernel source, far below a memory-exhaustion vector).
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The 4-byte header declared more than the configured maximum. The
    /// declared length is preserved so the reader can skip the payload
    /// and keep the stream in sync.
    TooLarge {
        /// Bytes the header declared.
        declared: usize,
    },
    /// The stream ended mid-frame (after a partial header or payload) —
    /// the connection is broken and must be dropped.
    Truncated,
    /// An underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { declared } => {
                write!(f, "declared frame of {declared} bytes exceeds the maximum")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// Writes one length-delimited frame. Header and payload go out in a
/// single `write_all` — two writes on an unbuffered socket would split
/// the frame across packets and hand a round-trip to Nagle + delayed-ACK
/// (~40 ms per direction) on every request.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32"))?;
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-delimited frame. `Ok(None)` is a clean EOF at a frame
/// boundary (the peer closed the connection between requests).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the header exceeds `max` (no payload
/// bytes consumed — call [`skip_payload`] to resynchronize),
/// [`FrameError::Truncated`] on EOF inside a frame, [`FrameError::Io`] on
/// any other failure.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header) {
        Ok(true) => {}
        Ok(false) => return Ok(None),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared });
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// The text of a frame or line payload, taking the buffer over: valid
/// UTF-8 (every well-formed request and response) moves through without a
/// copy, anything else gets U+FFFD replacement characters — the JSON
/// parser then rejects it with a proper error response.
pub fn into_text(payload: Vec<u8>) -> String {
    String::from_utf8(payload)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Discards `n` payload bytes after a [`FrameError::TooLarge`] so the next
/// header reads from a frame boundary.
///
/// # Errors
///
/// Propagates the underlying I/O error (including EOF before `n` bytes).
pub fn skip_payload(r: &mut impl Read, n: usize) -> io::Result<()> {
    let copied = io::copy(&mut r.take(n as u64), &mut io::sink())?;
    if copied as usize != n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended while skipping an oversized frame",
        ));
    }
    Ok(())
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` on clean EOF before the
/// first byte, an `UnexpectedEof` error on EOF after it.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended mid-header",
            ));
        }
        filled += n;
    }
    Ok(true)
}

/// One NDJSON read outcome.
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// A complete line (without its newline).
    Text(String),
    /// The line exceeded the cap; it was discarded up to its newline (or
    /// EOF) and the stream is positioned at the next line.
    TooLong,
}

/// Reads one newline-terminated line with a hard length cap, never
/// buffering more than `max` bytes. `Ok(None)` is EOF with no pending
/// bytes; a final unterminated line is returned as text.
///
/// # Errors
///
/// Propagates the underlying I/O error. Invalid UTF-8 surfaces as
/// [`Line::Text`] with lossy replacement characters (the JSON parser then
/// rejects it with a proper error response).
pub fn read_line_capped(r: &mut impl BufRead, max: usize) -> io::Result<Option<Line>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            // EOF.
            if buf.is_empty() {
                return Ok(None);
            }
            return Ok(Some(Line::Text(into_text(buf))));
        }
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + nl > max {
                r.consume(nl + 1);
                return Ok(Some(Line::TooLong));
            }
            buf.extend_from_slice(&chunk[..nl]);
            r.consume(nl + 1);
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(Some(Line::Text(into_text(buf))));
        }
        let take = chunk.len();
        if buf.len() + take > max {
            // Over the cap with no newline yet: drop what we have and
            // discard the remainder of the line.
            buf.clear();
            r.consume(take);
            return discard_to_newline(r).map(|_| Some(Line::TooLong));
        }
        buf.extend_from_slice(chunk);
        r.consume(take);
    }
}

fn discard_to_newline(r: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                r.consume(nl + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                r.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world!").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"world!");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_then_skippable() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        write_frame(&mut buf, b"after").unwrap();
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 10) {
            Err(FrameError::TooLarge { declared }) => {
                assert_eq!(declared, 100);
                skip_payload(&mut r, declared).unwrap();
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The stream resynchronized on the next frame.
        assert_eq!(read_frame(&mut r, 10).unwrap().unwrap(), b"after");
    }

    #[test]
    fn truncated_frames_error() {
        // Header only.
        let mut r = Cursor::new(8u32.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated)
        ));
        // Partial header.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Io(_))));
        // Partial payload.
        let mut bytes = 8u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut r = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn capped_lines() {
        let mut r = Cursor::new(b"short\r\nlonger line\nx".to_vec());
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            Some(Line::Text("short".into()))
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            Some(Line::Text("longer line".into()))
        );
        // Final unterminated line.
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            Some(Line::Text("x".into()))
        );
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), None);
    }

    #[test]
    fn overlong_line_is_discarded_not_buffered() {
        let mut data = vec![b'a'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut r = Cursor::new(data);
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), Some(Line::TooLong));
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap(),
            Some(Line::Text("ok".into()))
        );
        assert_eq!(read_line_capped(&mut r, 10).unwrap(), None);
    }
}
