//! The HTTP telemetry plane: a std-only, single-thread TCP server that
//! exposes the hub, the flight recorder, and live health over plain
//! HTTP/1.1 — the first slice of ROADMAP item 3's network front end.
//!
//! Endpoints:
//!
//! | Path             | Content                                           |
//! |------------------|---------------------------------------------------|
//! | `/metrics`       | Prometheus text exposition ([`ObsHub::prometheus`]) |
//! | `/snapshot.json` | Full [`ObsSnapshot`](crate::ObsSnapshot) as JSON  |
//! | `/trace.json`    | Flight-recorder drain as Chrome trace JSON        |
//! | `/healthz`       | Liveness + detail (200 ok/degraded, 503 page)     |
//! | `/readyz`        | Readiness (200 when any lane can serve, else 503) |
//!
//! Same engineering discipline as the WAL and ingest-ring work: no new
//! dependencies, one accept-loop thread, bounded request reads, explicit
//! shutdown. The server thread only ever *reads* through the same
//! non-blocking paths operators already use ([`ObsHub::snapshot`] /
//! [`ObsHub::prometheus`] clone under mutexes workers never hold), so
//! polling the plane during a live serve-tier tick cannot stall a worker
//! merge — `crates/serve/tests/http_plane.rs` asserts this against a
//! real tier under load.
//!
//! `/healthz` vs `/readyz`: health reports *how well* the process is
//! doing (SLO states, per-lane detail); readiness answers the binary
//! "should a load balancer route here". A crashed-but-buffering lane
//! degrades health but leaves readiness up as long as any lane serves —
//! refusing all traffic because one lane is mid-recovery would turn a
//! partial outage into a total one.

use crate::hub::ObsHub;
use crate::trace::FlightRecorder;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Overall health verdict reported by `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum HealthStatus {
    /// Everything nominal.
    Ok,
    /// Serving, but impaired — a lane is down-but-buffering or an SLO is
    /// in warning. `/healthz` still returns 200 so orchestrators don't
    /// restart a self-healing process.
    Degraded,
    /// A paging condition — `/healthz` returns 503.
    Page,
}

impl HealthStatus {
    /// Stable lowercase name used in the JSON body.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Page => "page",
        }
    }
}

/// One health probe result: the verdict, binary readiness, and a
/// free-form JSON detail document (lane states, SLO burns).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Overall verdict.
    pub status: HealthStatus,
    /// Whether the process should receive traffic.
    pub ready: bool,
    /// JSON detail embedded verbatim in the `/healthz` body (must be a
    /// valid JSON value; use `"{}"` when there is nothing to say).
    pub detail_json: String,
}

impl HealthReport {
    /// An always-healthy report with no detail — the default when no
    /// health source is wired.
    pub fn healthy() -> Self {
        HealthReport {
            status: HealthStatus::Ok,
            ready: true,
            detail_json: "{}".to_string(),
        }
    }
}

/// Anything that can answer a health probe — the serve tier's
/// `HealthBoard` implements this; the plane holds it as a trait object
/// so `pinnsoc-obs` needs no dependency on `pinnsoc-serve`.
pub trait HealthSource: Send + Sync {
    /// Produces the current health report. Called on the server thread
    /// per probe; must not block on tick-loop locks.
    fn health(&self) -> HealthReport;
}

/// Builder-style configuration for [`TelemetryPlane::bind`].
#[derive(Default)]
pub struct PlaneConfig {
    /// Flight recorder backing `/trace.json` (404 when absent).
    pub recorder: Option<Arc<FlightRecorder>>,
    /// `process_name` metadata for `/trace.json` — `(pid, name)` pairs so
    /// Perfetto labels the serve tier and each engine lane (the serve
    /// tier's `trace_process_names()` produces these).
    pub process_names: Vec<(u32, String)>,
    /// Health source backing `/healthz` and `/readyz` (always-healthy
    /// when absent).
    pub health: Option<Arc<dyn HealthSource>>,
}

/// The running telemetry server: owns the accept-loop thread, shuts down
/// on [`stop`](Self::stop) or drop.
pub struct TelemetryPlane {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Largest request head the server will read before answering 400 —
/// telemetry probes are tiny; anything bigger is not ours.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a stalled scraper must not wedge the
/// single server thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

impl TelemetryPlane {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on one background thread.
    pub fn bind(
        addr: impl std::net::ToSocketAddrs,
        hub: Arc<ObsHub>,
        config: PlaneConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pinnsoc-telemetry".to_string())
            .spawn(move || {
                serve_loop(&listener, &stop_flag, &hub, &config);
            })?;
        Ok(TelemetryPlane {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the actual port when bound with 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in accept(); poke it awake with a
        // throwaway connection so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryPlane {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for TelemetryPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryPlane")
            .field("addr", &self.addr)
            .field("stopped", &self.stop.load(Ordering::SeqCst))
            .finish()
    }
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool, hub: &Arc<ObsHub>, config: &PlaneConfig) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // One connection at a time, fully handled before the next accept:
        // a telemetry plane has a handful of scrapers, not a fleet of
        // clients, and single-threading keeps the server trivially
        // correct. Errors on one connection never take the loop down.
        let _ = handle_connection(stream, hub, config);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    hub: &Arc<ObsHub>,
    config: &PlaneConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let path = match read_request_path(&mut stream) {
        Ok(Some(path)) => path,
        Ok(None) => {
            write_response(&mut stream, 400, "text/plain", "bad request\n")?;
            return Ok(());
        }
        Err(e) => return Err(e),
    };
    match path.as_str() {
        "/metrics" => {
            let body = hub.prometheus();
            write_response(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/snapshot.json" => {
            let body = serde_json::to_string(&hub.snapshot())
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            write_response(&mut stream, 200, "application/json", &body)
        }
        "/trace.json" => match &config.recorder {
            Some(recorder) => {
                let body = recorder.drain_chrome_json(&config.process_names);
                write_response(&mut stream, 200, "application/json", &body)
            }
            None => write_response(
                &mut stream,
                404,
                "text/plain",
                "no flight recorder attached\n",
            ),
        },
        "/healthz" => {
            let report = probe(config);
            let code = match report.status {
                HealthStatus::Ok | HealthStatus::Degraded => 200,
                HealthStatus::Page => 503,
            };
            let body = format!(
                "{{\"status\":\"{}\",\"ready\":{},\"detail\":{}}}",
                report.status.as_str(),
                report.ready,
                report.detail_json
            );
            write_response(&mut stream, code, "application/json", &body)
        }
        "/readyz" => {
            let report = probe(config);
            if report.ready {
                write_response(&mut stream, 200, "text/plain", "ready\n")
            } else {
                write_response(&mut stream, 503, "text/plain", "not ready\n")
            }
        }
        _ => write_response(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn probe(config: &PlaneConfig) -> HealthReport {
    config
        .health
        .as_ref()
        .map(|h| h.health())
        .unwrap_or_else(HealthReport::healthy)
}

/// Reads the request head and extracts the path from the request line
/// (`GET /metrics HTTP/1.1`). Returns `Ok(None)` on malformed input.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        // Head complete once the blank line arrives; we ignore bodies.
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" || !path.starts_with('/') {
        return Ok(None);
    }
    // Strip any query string; endpoints take no parameters.
    let path = path.split('?').next().unwrap_or(path);
    Ok(Some(path.to_string()))
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// Minimal blocking GET against a plane endpoint, for tests, examples,
/// and CI smokes — returns `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FlightRecorder;
    use std::time::Instant;

    fn plane_with(config: PlaneConfig) -> (TelemetryPlane, Arc<ObsHub>) {
        let hub = ObsHub::new();
        let c = hub.registry().counter("pinnsoc_plane_demo_total", "demo");
        hub.registry().add(c, 7);
        let plane =
            TelemetryPlane::bind("127.0.0.1:0", Arc::clone(&hub), config).expect("bind plane");
        (plane, hub)
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (plane, _hub) = plane_with(PlaneConfig::default());
        let (code, body) = http_get(plane.addr(), "/metrics").expect("GET /metrics");
        assert_eq!(code, 200);
        assert!(body.contains("pinnsoc_plane_demo_total 7"));
        assert!(body.contains("# TYPE pinnsoc_plane_demo_total counter"));
    }

    #[test]
    fn snapshot_endpoint_serves_json() {
        let (plane, _hub) = plane_with(PlaneConfig::default());
        let (code, body) = http_get(plane.addr(), "/snapshot.json").expect("GET /snapshot.json");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        assert!(v["uptime_s"].as_f64().expect("uptime") >= 0.0);
    }

    #[test]
    fn trace_endpoint_drains_recorder_and_404s_without_one() {
        let recorder = FlightRecorder::new(64);
        let mut sink = recorder.sink();
        let t0 = Instant::now();
        sink.record("tick", "serve", 0, 0, 0, t0, t0 + Duration::from_micros(50));
        recorder.merge(&mut sink);
        let (plane, _hub) = plane_with(PlaneConfig {
            recorder: Some(Arc::clone(&recorder)),
            ..PlaneConfig::default()
        });
        let (code, body) = http_get(plane.addr(), "/trace.json").expect("GET /trace.json");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).expect("valid trace JSON");
        assert_eq!(
            v["traceEvents"].as_array().expect("events").len(),
            1,
            "one recorded span drained"
        );
        // Drain semantics: a second export window is empty.
        let (_, body2) = http_get(plane.addr(), "/trace.json").expect("second GET");
        let v2: serde_json::Value = serde_json::from_str(&body2).expect("valid JSON");
        assert!(v2["traceEvents"].as_array().expect("events").is_empty());

        let (bare, _hub) = plane_with(PlaneConfig::default());
        let (code, _) = http_get(bare.addr(), "/trace.json").expect("GET bare /trace.json");
        assert_eq!(code, 404);
    }

    #[test]
    fn health_endpoints_reflect_the_source() {
        struct Flaky(AtomicBool);
        impl HealthSource for Flaky {
            fn health(&self) -> HealthReport {
                if self.0.load(Ordering::SeqCst) {
                    HealthReport {
                        status: HealthStatus::Page,
                        ready: false,
                        detail_json: "{\"lanes_up\":0}".to_string(),
                    }
                } else {
                    HealthReport {
                        status: HealthStatus::Degraded,
                        ready: true,
                        detail_json: "{\"lanes_up\":1}".to_string(),
                    }
                }
            }
        }
        let source = Arc::new(Flaky(AtomicBool::new(false)));
        let (plane, _hub) = plane_with(PlaneConfig {
            health: Some(Arc::clone(&source) as Arc<dyn HealthSource>),
            ..PlaneConfig::default()
        });
        // Degraded still answers 200 (and stays ready).
        let (code, body) = http_get(plane.addr(), "/healthz").expect("GET /healthz");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).expect("health JSON");
        assert_eq!(v["status"], "degraded");
        assert_eq!(v["detail"]["lanes_up"], 1);
        let (code, _) = http_get(plane.addr(), "/readyz").expect("GET /readyz");
        assert_eq!(code, 200);
        // Page flips /healthz and /readyz to 503.
        source.0.store(true, Ordering::SeqCst);
        let (code, _) = http_get(plane.addr(), "/healthz").expect("GET paged /healthz");
        assert_eq!(code, 503);
        let (code, body) = http_get(plane.addr(), "/readyz").expect("GET paged /readyz");
        assert_eq!(code, 503);
        assert!(body.contains("not ready"));
    }

    #[test]
    fn unknown_path_is_404_and_bad_request_is_400() {
        let (plane, _hub) = plane_with(PlaneConfig::default());
        let (code, _) = http_get(plane.addr(), "/nope").expect("GET /nope");
        assert_eq!(code, 404);
        // Hand-rolled non-GET request.
        let mut stream = TcpStream::connect(plane.addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn stop_is_idempotent_and_drop_shuts_down() {
        let (mut plane, _hub) = plane_with(PlaneConfig::default());
        let addr = plane.addr();
        plane.stop();
        plane.stop();
        drop(plane);
        // After shutdown the port no longer serves.
        assert!(
            http_get(addr, "/metrics").is_err() || {
                // A lingering TIME_WAIT accept can race; a refused or
                // empty response both count as "down".
                let (code, _) = http_get(addr, "/metrics").unwrap_or((0, String::new()));
                code == 0
            }
        );
    }
}
