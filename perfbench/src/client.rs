//! One framed-protocol connection to `sqlts serve`, the `/metrics`
//! scraper and the Prometheus exposition reader.
//!
//! Each request frame goes out with a single `write` and the socket keeps
//! its default options, so the reply timings show the server's own write
//! behaviour as any plain client would see it.

use sqlts_server::{read_frame, write_frame, FrameEvent};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);
const MAX_REPLY: usize = 1 << 30;

/// The instants that split one request round trip into its three
/// client-side parts: the single `write` of the encoded request, the wait
/// from the end of the write until the first reply byte is readable, and
/// the read from that byte until the reply frame is fully decoded.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Timing {
    pub fn total_ns(&self) -> u64 {
        (self.done - self.start).as_nanos() as u64
    }
}

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
            buf: Vec::new(),
        })
    }

    /// Send one request and read its reply.  An error is a transport
    /// failure or a timeout; an `ERR` reply is returned as text.
    pub fn request(&mut self, payload: &str) -> Result<(String, Timing), String> {
        self.buf.clear();
        write_frame(&mut self.buf, payload).map_err(|e| e.to_string())?;
        let start = Instant::now();
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("write: {e}"))?;
        let written = Instant::now();
        let ready = self.reader.fill_buf().map_err(|e| format!("wait: {e}"))?;
        if ready.is_empty() {
            return Err("server closed the connection".into());
        }
        let first_byte = Instant::now();
        let reply = match read_frame(&mut self.reader, MAX_REPLY) {
            Ok(FrameEvent::Payload(text)) => text,
            Ok(other) => return Err(format!("bad reply frame: {other:?}")),
            Err(e) => return Err(format!("read: {e:?}")),
        };
        let timing = Timing {
            start,
            written,
            first_byte,
            done: Instant::now(),
        };
        Ok((reply, timing))
    }

    /// `request` that also requires the reply to start with `prefix`.
    pub fn expect(&mut self, payload: &str, prefix: &str) -> Result<(String, Timing), String> {
        let (reply, timing) = self.request(payload)?;
        if reply.starts_with(prefix) {
            Ok((reply, timing))
        } else {
            let head = reply.lines().next().unwrap_or("");
            Err(format!("expected {prefix:?}, got {head:?}"))
        }
    }
}

/// `GET /metrics` on its own short connection; returns the body.
pub fn scrape(addr: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("scrape write: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("scrape read: {e}"))?;
    match text.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        _ => Err(format!("bad /metrics response: {:?}", text.lines().next())),
    }
}

/// Every sample line of a Prometheus exposition, keyed by the metric name
/// with its label set as written (`name` or `name{labels}`).
pub fn parse_exposition(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after − before` for one sample; a sample missing from a scrape reads 0.
pub fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_samples_and_deltas() {
        let before = parse_exposition(
            "# TYPE sqlts_server_fsync_micros histogram\n\
             sqlts_server_fsync_micros_bucket{le=\"+Inf\"} 2\n\
             sqlts_server_fsync_micros_sum 40\n\
             sqlts_server_fsync_micros_count 2\n",
        );
        let after = parse_exposition(
            "sqlts_server_fsync_micros_sum 140\nsqlts_server_fsync_micros_count 7\nnew_total 3\n",
        );
        assert_eq!(before["sqlts_server_fsync_micros_bucket{le=\"+Inf\"}"], 2.0);
        assert_eq!(
            delta(&before, &after, "sqlts_server_fsync_micros_sum"),
            100.0
        );
        assert_eq!(
            delta(&before, &after, "sqlts_server_fsync_micros_count"),
            5.0
        );
        assert_eq!(delta(&before, &after, "new_total"), 3.0);
        assert_eq!(delta(&before, &after, "absent"), 0.0);
    }
}
