//! The TCP front door's connection policy: a bounded accept loop
//! with structured shedding, and per-connection read/idle timeouts.
//!
//! The stdin path is naturally bounded (one stream, one reader
//! thread); the TCP path is not — every accepted socket is a thread
//! and a file descriptor held open at the whim of a remote peer. Two
//! guards close that hole:
//!
//! * **Connection cap** ([`ConnOptions::max_connections`], env
//!   `CMP_SERVE_MAX_CONNS`): an over-limit client is answered with
//!   one structured `shed` response (`reason: "connection limit"`)
//!   and closed — the same refuse-loudly contract as queue
//!   shedding, never a silent hang or an unbounded thread count.
//! * **Read/idle timeout** ([`ConnOptions::read_timeout`], env
//!   `CMP_SERVE_IDLE_MS`, 0 disables): a connection that goes silent
//!   longer than the timeout is answered with a structured
//!   `idle-timeout` error and closed, surfaced in the
//!   `serve.conn_timeouts` counter. Slow-loris clients cost one
//!   timeout window, not a slot forever.
//!
//! Both counters (`serve.conn_shed`, `serve.conn_timeouts`) follow
//! the obs taxonomy: inert unless the layer is enabled.
//!
//! Every accepted socket sets `TCP_NODELAY`, and [`emit`] sends each
//! response batch with one `write_all`. With Nagle on and the body
//! and its newline in two `send`s, the newline waited for the
//! client's delayed ACK (~40 ms) on every request after the first.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cmp_bench::Json;
use cmp_obs::Counter;

use crate::service::{env, SharedService};

/// Connections refused because the cap was reached.
static CONN_SHED: Counter = Counter::new("serve.conn_shed");
/// Connections closed by the read/idle timeout.
static CONN_TIMEOUTS: Counter = Counter::new("serve.conn_timeouts");

/// Tuning of the TCP accept loop.
#[derive(Clone, Debug)]
pub struct ConnOptions {
    /// Concurrent-connection cap; clients beyond it are shed with a
    /// structured response (clamped to >= 1).
    pub max_connections: usize,
    /// How long a connection may stay silent before it is closed
    /// with a structured `idle-timeout` error; `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for ConnOptions {
    fn default() -> ConnOptions {
        ConnOptions { max_connections: 64, read_timeout: Some(Duration::from_millis(120_000)) }
    }
}

impl ConnOptions {
    /// Reads the `CMP_SERVE_MAX_CONNS` / `CMP_SERVE_IDLE_MS`
    /// environment; malformed values warn and keep the default
    /// (same contract as [`crate::ServeOptions::from_env`]).
    pub fn from_env() -> ConnOptions {
        let mut o = ConnOptions::default();
        if let Some(n) = cmp_obs::env_parse_valid::<usize>(env::MAX_CONNS, |n| *n >= 1) {
            o.max_connections = n;
        }
        if let Some(ms) = cmp_obs::env_parse_valid::<u64>(env::IDLE_MS, |_| true) {
            o.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        o
    }
}

/// The bounded TCP accept loop: each admitted connection speaks the
/// same NDJSON protocol as stdin and answers its requests in order
/// through [`SharedService::answer`], which simulates with the
/// service lock released, so connections run concurrently. The labs
/// and their caches are shared across connections and with stdin,
/// so a pair simulated for one client is a cache hit for the next.
/// Runs until the listener errors out; callers put it on its own
/// thread.
pub fn accept_loop(listener: TcpListener, service: Arc<SharedService>, opts: ConnOptions) {
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let Some(slot) = Slot::reserve(&active, opts.max_connections.max(1)) else {
            shed_connection(stream, opts.max_connections.max(1));
            continue;
        };
        let svc = Arc::clone(&service);
        let opts = opts.clone();
        std::thread::spawn(move || {
            let _slot = slot;
            handle_connection(stream, &svc, &opts);
        });
    }
}

/// A reserved connection slot; released on drop (whatever path the
/// handler thread exits by).
struct Slot(Arc<AtomicUsize>);

impl Slot {
    fn reserve(active: &Arc<AtomicUsize>, max: usize) -> Option<Slot> {
        active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < max).then_some(n + 1))
            .ok()?;
        Some(Slot(Arc::clone(active)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Answers an over-limit client with one structured `shed` line and
/// closes the socket.
fn shed_connection(stream: TcpStream, max: usize) {
    CONN_SHED.inc();
    cmp_obs::warn!("connection shed at cap", max_connections = max);
    let mut resp = Json::obj();
    resp.set("type", Json::Str("shed".into()));
    resp.set("id", Json::Null);
    resp.set("reason", Json::Str("connection limit".into()));
    resp.set("max-connections", Json::Num(max as f64));
    let mut writer = stream;
    emit(&mut writer, &[resp]);
}

/// One admitted connection: read a line (bounded by the idle
/// timeout), answer it fully, repeat until EOF, error, or timeout.
fn handle_connection(stream: TcpStream, service: &SharedService, opts: &ConnOptions) {
    if configure_stream(&stream, opts).is_err() {
        return;
    }
    let caller = service.caller();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF: client is done.
            Ok(_) => {}
            // The platform reports a read timeout as either kind.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                CONN_TIMEOUTS.inc();
                emit(&mut writer, &[idle_timeout_response(opts.read_timeout)]);
                return;
            }
            Err(_) => return,
        }
        let responses = service.answer(caller, std::slice::from_ref(&line));
        if !emit(&mut writer, &responses) {
            return;
        }
    }
}

/// Readies an accepted socket: `TCP_NODELAY`, so a response leaves
/// as soon as it is written, and the idle timeout on reads.
fn configure_stream(stream: &TcpStream, opts: &ConnOptions) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(opts.read_timeout)
}

/// The structured close notice for a timed-out connection.
fn idle_timeout_response(timeout: Option<Duration>) -> Json {
    let ms = timeout.map_or(0, |d| d.as_millis() as u64);
    let mut resp = Json::obj();
    resp.set("type", Json::Str("error".into()));
    resp.set("id", Json::Null);
    resp.set("kind", Json::Str("idle-timeout".into()));
    resp.set("error", Json::Str(format!("no request within {ms}ms; closing connection")));
    resp
}

/// Writes a batch of responses as NDJSON with one `write_all` (one
/// `send` on a socket), then flushes; false when the peer is gone.
/// Both front doors answer through it.
pub fn emit(out: &mut impl Write, responses: &[Json]) -> bool {
    if responses.is_empty() {
        return true;
    }
    let mut buf = String::new();
    for r in responses {
        buf.push_str(&r.compact());
        buf.push('\n');
    }
    out.write_all(buf.as_bytes()).and_then(|()| out.flush()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeOptions, Service};
    use cmp_sim::RunConfig;
    use std::io::BufRead;
    use std::net::TcpStream;

    fn start(opts: ConnOptions) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let svc = Arc::new(SharedService::new(Service::new(ServeOptions::new(RunConfig::sized(
            200, 400, 7,
        )))));
        std::thread::spawn(move || accept_loop(listener, svc, opts));
        addr
    }

    fn round_trip(conn: &mut TcpStream, request: &str) -> Json {
        writeln!(conn, "{request}").expect("write request");
        conn.flush().expect("flush");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        Json::parse(line.trim()).expect("valid response json")
    }

    #[test]
    fn over_limit_connection_is_shed_with_a_structured_response() {
        let capture = cmp_obs::Capture::install();
        let addr = start(ConnOptions { max_connections: 1, read_timeout: None });
        let mut first = TcpStream::connect(addr).expect("first connection");
        // A health round-trip proves the first connection holds its
        // slot before the second one knocks.
        let health = round_trip(&mut first, r#"{"type":"health","id":"h1"}"#);
        assert_eq!(health.get("type").and_then(Json::as_str), Some("health"));

        let second = TcpStream::connect(addr).expect("second connection");
        let mut reader = BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read shed line");
        let shed = Json::parse(line.trim()).expect("valid shed json");
        assert_eq!(shed.get("type").and_then(Json::as_str), Some("shed"));
        assert_eq!(shed.get("reason").and_then(Json::as_str), Some("connection limit"));
        assert_eq!(shed.get("max-connections").and_then(Json::as_f64), Some(1.0));
        assert!(capture.contains("connection shed at cap"), "{:?}", capture.lines());
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "shed closes the socket");

        // The admitted connection keeps working after the shed.
        let again = round_trip(&mut first, r#"{"type":"health","id":"h2"}"#);
        assert_eq!(again.get("type").and_then(Json::as_str), Some("health"));

        // Its slot frees on close: a third client is admitted.
        drop(first);
        for _ in 0..200 {
            let mut third = match TcpStream::connect(addr) {
                Ok(c) => c,
                Err(_) => break,
            };
            writeln!(third, r#"{{"type":"health","id":"h3"}}"#).expect("write");
            third.flush().expect("flush");
            let mut reader = BufReader::new(third);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let resp = Json::parse(line.trim()).expect("json");
            if resp.get("type").and_then(Json::as_str) == Some("health") {
                return;
            }
            // Still saw the shed (slot not yet released) — retry.
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("slot was never released after the first connection closed");
    }

    #[test]
    fn silent_connection_times_out_with_a_structured_error() {
        let addr = start(ConnOptions {
            max_connections: 4,
            read_timeout: Some(Duration::from_millis(50)),
        });
        let was_enabled = cmp_obs::enabled();
        cmp_obs::set_enabled(true);
        let before = CONN_TIMEOUTS.get();
        let conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        // Send nothing: the read times out and the service says so.
        reader.read_line(&mut line).expect("read timeout notice");
        let resp = Json::parse(line.trim()).expect("valid error json");
        assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("idle-timeout"));
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "timeout closes the socket");
        let after = CONN_TIMEOUTS.get();
        cmp_obs::set_enabled(was_enabled);
        assert!(after > before, "timeout is surfaced in serve.conn_timeouts");
    }

    /// Counts `write` calls and keeps the bytes written.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emit_sends_a_response_batch_in_one_write() {
        let batch: Vec<Json> =
            (1..=3).map(|ms| idle_timeout_response(Some(Duration::from_millis(ms)))).collect();
        let mut out = CountingWriter::default();
        assert!(emit(&mut out, &batch));
        assert_eq!(out.writes, 1, "one write per batch, not one per line or per newline");
        let text = String::from_utf8(out.bytes).expect("utf-8");
        let expect: String = batch.iter().map(|r| format!("{}\n", r.compact())).collect();
        assert_eq!(text, expect, "NDJSON: one compact response per line");

        let mut idle = CountingWriter::default();
        assert!(emit(&mut idle, &[]));
        assert_eq!(idle.writes, 0, "an empty batch writes nothing");
    }

    #[test]
    fn connection_streams_set_nodelay_and_the_idle_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let opts = ConnOptions::default();
        // The setup `handle_connection` applies to every stream.
        configure_stream(&accepted, &opts).expect("configure");
        assert!(accepted.nodelay().expect("nodelay"), "TCP_NODELAY is on");
        assert_eq!(accepted.read_timeout().expect("timeout"), opts.read_timeout);
    }

    #[test]
    fn conn_options_env_parses_and_zero_disables_the_timeout() {
        std::env::set_var(env::MAX_CONNS, "7");
        std::env::set_var(env::IDLE_MS, "0");
        let opts = ConnOptions::from_env();
        std::env::remove_var(env::MAX_CONNS);
        std::env::remove_var(env::IDLE_MS);
        assert_eq!(opts.max_connections, 7);
        assert_eq!(opts.read_timeout, None, "0 disables the idle timeout");
        let defaults = ConnOptions::default();
        assert_eq!(defaults.max_connections, 64);
        assert_eq!(defaults.read_timeout, Some(Duration::from_millis(120_000)));
    }
}
