//! Live introspection endpoint: a tiny blocking HTTP server for the live
//! binaries.
//!
//! `live-proxy --admin 127.0.0.1:9090` starts one admin thread serving
//! three read-only endpoints straight off the driver's shared
//! observability handles:
//!
//! * `GET /metrics` — the full registry in Prometheus text exposition
//!   format ([`sidecar_obs::render_prometheus`]), scrapeable by a stock
//!   Prometheus server;
//! * `GET /flows` — the per-flow health scoreboard's current top-K ranking
//!   in its stable text encoding ([`sidecar_obs::ScoreboardSnapshot`]);
//! * `GET /healthz` — liveness plus session health derived from the
//!   `supervisor.state` gauge the protocols publish (`200` while
//!   connecting/active, `503` once the supervisor has degraded to
//!   baseline);
//! * `GET /timeseries` — the windowed rate/gauge/percentile series the
//!   wall-clock sampler thread has accumulated (empty without
//!   `--sample-ms`).
//!
//! Zero dependencies by design: `TcpListener`, a hand-rolled request-line
//! parser, and `Connection: close` responses. Requests are input from
//! outside the program: each is read under one size bound and one deadline
//! (`431` / `408` past them), so no client can hold the single admin thread.
//! The server never blocks the datapath — it reads from [`MetricsRegistry`]
//! / [`FlowScoreboard`] handles that are `Clone`-shared with the driver,
//! both of which are lock-free (scoreboard) or lock-cheap (registry
//! snapshot) on the read side.
//!
//! The sampler thread is the wall-clock twin of
//! [`sidecar_netsim::telemetry::run_sampled`]: same
//! [`Sampler`] core, same windowed-delta semantics,
//! but ticks come from `thread::sleep` on a monotonic clock instead of the
//! sim scheduler — which is exactly why the deterministic variant exists
//! for golden tests.

use sidecar_obs::{render_prometheus, FlowScoreboard, MetricsRegistry, Sampler};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scoreboard rows `/flows` returns (the table keeps every flow; the
/// endpoint reports the unhealthiest ranks).
pub const FLOWS_TOP_K: usize = 32;

/// How long the accept loop sleeps when no connection is pending (bounds
/// shutdown latency).
const ACCEPT_IDLE: Duration = Duration::from_millis(25);

/// Most bytes of request line plus header block `serve_one` reads before it
/// answers `431`: any scraper's `GET` fits many times over.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// Wall-clock budget for reading one whole request. Requests are served
/// inline on the one admin thread, so this also bounds how long a stalled
/// client can hold the other endpoints and `AdminServer::shutdown`.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Time-series ring capacity for the wall-clock sampler: at the default
/// 1 s interval this retains over an hour of history.
const SAMPLER_CAPACITY: usize = 4096;

/// The observability handles the admin endpoints read. All cheap clones:
/// the registry and scoreboard share state with the driver that created
/// them.
#[derive(Clone)]
pub struct AdminHandles {
    /// The driver's metrics registry (serves `/metrics` and `/healthz`).
    pub registry: MetricsRegistry,
    /// The driver's per-flow health scoreboard (serves `/flows`).
    pub scoreboard: FlowScoreboard,
}

/// A running admin server (and optional sampler thread). Dropping it stops
/// both threads.
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, port 0 for ephemeral) and
    /// serves the admin endpoints on a background thread. With
    /// `sample_interval` set, a second thread samples the registry into a
    /// time-series at that cadence, exposed at `/timeseries`.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        handles: AdminHandles,
        sample_interval: Option<Duration>,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let series = Arc::new(Mutex::new(Sampler::with_capacity(SAMPLER_CAPACITY)));
        let mut threads = Vec::new();

        if let Some(interval) = sample_interval {
            assert!(!interval.is_zero(), "sampling interval must be non-zero");
            let registry = handles.registry.clone();
            let sampler = Arc::clone(&series);
            let flag = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("live-admin-sampler".into())
                    .spawn(move || {
                        let epoch = Instant::now();
                        // Prime the delta baseline at t=0.
                        sample_at(&sampler, &registry, 0);
                        let mut tick = 1u64;
                        while !flag.load(Ordering::Relaxed) {
                            let next = interval.checked_mul(tick as u32).unwrap_or(Duration::MAX);
                            std::thread::sleep(next.saturating_sub(epoch.elapsed()));
                            // Stamp with the *actual* elapsed time: a late
                            // wake means a longer window, and honest rates
                            // divide by the real width.
                            let at_ns = epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            sample_at(&sampler, &registry, at_ns);
                            tick += 1;
                        }
                    })?,
            );
        }

        let flag = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name("live-admin-http".into())
                .spawn(move || {
                    while !flag.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((conn, _)) => {
                                // One request per connection, served inline:
                                // admin traffic is a human or a scraper, not
                                // a flood.
                                let _ = serve_one(conn, &handles, &series);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(ACCEPT_IDLE);
                            }
                            Err(_) => break,
                        }
                    }
                })?,
        );

        Ok(AdminServer {
            addr,
            stop,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and sampler threads and waits for them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn sample_at(sampler: &Mutex<Sampler>, registry: &MetricsRegistry, at_ns: u64) {
    let snap = registry.snapshot();
    sampler
        .lock()
        .expect("sampler lock poisoned")
        .sample(at_ns, snap);
}

/// Reads the request head (request line and header block, up to the blank
/// line or the client's close) under one size bound and one deadline; `Err`
/// is the status to refuse with.
fn read_head(conn: &TcpStream) -> Result<String, &'static str> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut limited = conn.take(MAX_REQUEST_BYTES);
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(2).any(|w| w == b"\n\n") && !head.windows(3).any(|w| w == b"\n\r\n") {
        // The deadline covers the whole request, so each read may wait only
        // for what is left of it: a client that trickles bytes just inside a
        // per-read timeout would otherwise hold the only admin thread.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return Err("408 Request Timeout");
        }
        match limited.read(&mut chunk) {
            Ok(0) if limited.limit() == 0 => return Err("431 Request Header Fields Too Large"),
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            // Timed out, or the peer is gone and the reply will go nowhere.
            Err(_) => return Err("408 Request Timeout"),
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}

fn respond(
    mut conn: TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        conn,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    conn.flush()
}

/// Reads one HTTP request off `conn` and writes the matching response.
fn serve_one(
    conn: TcpStream,
    handles: &AdminHandles,
    series: &Mutex<Sampler>,
) -> std::io::Result<()> {
    conn.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let head = match read_head(&conn) {
        Ok(head) => head,
        Err(status) => return respond(conn, status, "text/plain; charset=utf-8", "refused\n"),
    };
    let request_line = head.lines().next().unwrap_or("");

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Ignore any query string: endpoints take no parameters.
    let route = path.split('?').next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match route {
            "/metrics" => (
                "200 OK",
                // The content type a Prometheus scraper expects from the
                // 0.0.4 text format.
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&handles.registry.snapshot()),
            ),
            "/flows" => (
                "200 OK",
                "text/plain; charset=utf-8",
                handles.scoreboard.snapshot(FLOWS_TOP_K).render(),
            ),
            "/healthz" => healthz(&handles.registry),
            "/timeseries" => (
                "200 OK",
                "text/plain; charset=utf-8",
                series
                    .lock()
                    .expect("sampler lock poisoned")
                    .series()
                    .render(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found (try /metrics, /flows, /healthz, /timeseries)\n".to_string(),
            ),
        }
    };

    respond(conn, status, content_type, &body)
}

/// `/healthz`: liveness plus session health. The protocols publish the
/// supervisor's state as the `supervisor.state` gauge (0 = Connecting,
/// 1 = Active, 2 = Degraded); degraded means the sidecar has fallen back
/// to baseline behaviour, which a load balancer should see as unhealthy.
fn healthz(registry: &MetricsRegistry) -> (&'static str, &'static str, String) {
    let snap = registry.snapshot();
    let state = snap
        .gauges
        .iter()
        .find(|(name, _)| name == "supervisor.state")
        .map(|(_, v)| *v);
    let ct = "text/plain; charset=utf-8";
    match state {
        Some(s) if s >= 2.0 => ("503 Service Unavailable", ct, "degraded\n".to_string()),
        Some(s) if s >= 1.0 => ("200 OK", ct, "ok active\n".to_string()),
        Some(_) => ("200 OK", ct, "ok connecting\n".to_string()),
        // No supervised session yet (e.g. receiver-side proxy): the
        // process itself is up.
        None => ("200 OK", ct, "ok\n".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidecar_obs::{parse_prometheus, HealthDim, ScoreboardSnapshot, TimeSeries};

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect admin");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    fn test_handles() -> AdminHandles {
        AdminHandles {
            registry: MetricsRegistry::default(),
            scoreboard: FlowScoreboard::default(),
        }
    }

    #[test]
    fn serves_metrics_flows_healthz() {
        let handles = test_handles();
        handles.registry.add("live.test.packets", 42);
        handles.registry.gauge_set("live.test.depth", 1.5);
        handles.scoreboard.record_n(7, HealthDim::ProxyRetx, 3);
        let server = AdminServer::spawn("127.0.0.1:0", handles.clone(), None).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let parsed = parse_prometheus(&body).expect("scrape parses");
        assert_eq!(parsed.counter("live_test_packets"), 42);

        let (head, body) = get(addr, "/flows");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let snap = ScoreboardSnapshot::parse(&body).expect("scoreboard parses");
        assert_eq!(snap.rows.len(), 1);
        assert_eq!((snap.rows[0].flow, snap.rows[0].retx), (7, 3));

        // No supervisor gauge published: alive.
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
    }

    #[test]
    fn healthz_follows_supervisor_state() {
        let handles = test_handles();
        let server = AdminServer::spawn("127.0.0.1:0", handles.clone(), None).unwrap();
        let addr = server.local_addr();
        handles.registry.gauge_set("supervisor.state", 1.0);
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok active\n");
        handles.registry.gauge_set("supervisor.state", 2.0);
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(body, "degraded\n");
        server.shutdown();
    }

    #[test]
    fn hostile_requests_cannot_hold_the_admin_thread() {
        let server = AdminServer::spawn("127.0.0.1:0", test_handles(), None).unwrap();
        let addr = server.local_addr();
        let started = Instant::now();
        // A newline-free megabyte is refused at the size bound (the write may
        // fail once the server has hung up, and the reset may beat the reply).
        let mut big = TcpStream::connect(addr).unwrap();
        let _ = big.write_all(&vec![b'A'; 1 << 20]);
        let mut reply = [0u8; 12];
        assert!(big.read_exact(&mut reply).is_err() || reply == *b"HTTP/1.1 431");
        // A client that never finishes its request line, trickling inside any
        // per-read timeout, is cut off at the request deadline. It connects
        // first, so the scrape below queues behind it.
        let mut slow = TcpStream::connect(addr).unwrap();
        let trickle = std::thread::spawn(move || {
            for _ in 0..100 {
                if slow.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        let waited = started.elapsed();
        assert!(
            waited < REQUEST_DEADLINE + Duration::from_secs(2),
            "{waited:?}"
        );
        server.shutdown();
        trickle.join().unwrap();
    }

    #[test]
    fn sampler_thread_populates_timeseries() {
        let handles = test_handles();
        let server = AdminServer::spawn(
            "127.0.0.1:0",
            handles.clone(),
            Some(Duration::from_millis(20)),
        )
        .unwrap();
        let addr = server.local_addr();
        // Generate counter traffic across several windows.
        for _ in 0..10 {
            handles.registry.add("live.test.ticks", 5);
            std::thread::sleep(Duration::from_millis(10));
        }
        let (head, body) = get(addr, "/timeseries");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let series = TimeSeries::parse(&body).expect("timeseries parses");
        assert!(!series.is_empty(), "sampler produced points");
        let total: f64 = series
            .points()
            .flat_map(|p| p.rates.iter())
            .filter(|(n, _)| n == "live.test.ticks")
            .map(|(_, r)| r)
            .sum();
        assert!(total > 0.0, "tick rate visible in some window");
        server.shutdown();
    }
}
