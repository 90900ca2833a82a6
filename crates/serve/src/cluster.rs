//! A daemon's cluster role: the [`ClusterHook`] seam, and the worker
//! side of membership — register/heartbeat with a coordinator
//! (`esteem-coord`) and deregister on graceful shutdown.
//!
//! The agent is deliberately thin — membership is coordinator-driven.
//! A worker only announces "I exist, here is my job API address" on a
//! fixed heartbeat; the coordinator owns liveness (a worker whose last
//! heartbeat is too old, or that fails a request, gets no new work, and
//! its jobs run elsewhere — safe because the simulator is
//! deterministic). Registration is idempotent on the coordinator, so
//! the heartbeat *is* a registration: a coordinator restart re-learns
//! the fleet within one heartbeat interval with no worker-side state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use esteem_stats::Scope;
use serde::Value;

use crate::client::{self, RetryPolicy};
use crate::http::{HandlerResult, Request};
use crate::journal::Recovery;
use crate::server::Plane;

/// What a cluster role adds to a daemon: a worker's membership agent, or
/// the coordinator's fleet.
pub trait ClusterHook: Send + Sync {
    /// The `cluster` block of `/v1/status`.
    fn status_value(&self, plane: &Plane) -> Value;
    /// The `cluster/` names in `/metrics`.
    fn metrics(&self, out: &mut Scope<'_>);
    /// Answers a request no daemon route matched (`None`: 404).
    fn route(&self, _plane: &Plane, _req: &Request) -> Option<HandlerResult> {
        None
    }
    /// Sees the replayed journal before the daemon restores its jobs.
    fn recovered(&self, _rec: &Recovery) {}
    /// Shutdown has begun; the queue has not drained yet.
    fn stop(&self) {}
}

/// Read timeout for agent→coordinator calls. Short: these are tiny
/// control-plane requests, and a wedged coordinator must not pin the
/// agent thread past a couple of heartbeats.
const CONTROL_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Worker-side cluster membership configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Stable node name; the coordinator keys membership, sharding, and
    /// journal merging on it.
    pub node_id: String,
    /// Address other nodes should dial for this worker's job API.
    /// Defaults to the daemon's bound address, which only works when
    /// the bind address is routable (fine for localhost clusters).
    pub advertise: Option<String>,
    /// Heartbeat interval.
    pub heartbeat: Duration,
    /// Retry policy for registration attempts *within* one heartbeat.
    pub retry: RetryPolicy,
}

impl ClusterConfig {
    pub fn new(coordinator: impl Into<String>, node_id: impl Into<String>) -> Self {
        Self {
            coordinator: coordinator.into(),
            node_id: node_id.into(),
            advertise: None,
            heartbeat: Duration::from_secs(1),
            retry: RetryPolicy::new(2, 100),
        }
    }
}

/// The membership agent: one background thread heartbeating
/// `POST /v1/cluster/register` at the coordinator.
pub struct ClusterAgent {
    cfg: ClusterConfig,
    advertise: String,
    /// Heartbeats that reached the coordinator.
    pub heartbeats: AtomicU64,
    /// Heartbeats that failed (coordinator down or rejecting).
    pub heartbeat_failures: AtomicU64,
    /// Whether the most recent heartbeat succeeded.
    registered: AtomicBool,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ClusterAgent {
    /// Starts heartbeating. `bound_addr` is the daemon's actual bound
    /// address (used when no advertise address was configured).
    pub fn spawn(cfg: ClusterConfig, bound_addr: std::net::SocketAddr) -> Arc<Self> {
        let advertise = cfg
            .advertise
            .clone()
            .unwrap_or_else(|| bound_addr.to_string());
        let agent = Arc::new(Self {
            cfg,
            advertise,
            heartbeats: AtomicU64::new(0),
            heartbeat_failures: AtomicU64::new(0),
            registered: AtomicBool::new(false),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            thread: Mutex::new(None),
        });
        let worker = Arc::clone(&agent);
        let handle = std::thread::Builder::new()
            .name("esteem-cluster-agent".into())
            .spawn(move || worker.heartbeat_loop())
            .expect("spawn cluster agent");
        *agent.thread.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        agent
    }

    pub fn advertised(&self) -> &str {
        &self.advertise
    }

    pub fn is_registered(&self) -> bool {
        self.registered.load(Ordering::Relaxed)
    }

    fn heartbeat_loop(&self) {
        let body = serde_json::to_string(&Value::Map(vec![
            ("id".into(), Value::Str(self.cfg.node_id.clone())),
            ("addr".into(), Value::Str(self.advertise.clone())),
        ]))
        .expect("serializes");
        loop {
            match client::request_with(
                &self.cfg.coordinator,
                "POST",
                "/v1/cluster/register",
                Some(&body),
                &self.cfg.retry,
                CONTROL_READ_TIMEOUT,
            ) {
                Ok((200, _)) => {
                    self.heartbeats.fetch_add(1, Ordering::Relaxed);
                    self.registered.store(true, Ordering::Relaxed);
                }
                Ok((status, resp)) => {
                    self.heartbeat_failures.fetch_add(1, Ordering::Relaxed);
                    self.registered.store(false, Ordering::Relaxed);
                    eprintln!("esteem-serve: cluster register rejected ({status}): {resp}");
                }
                Err(_) => {
                    // Coordinator down: keep trying, it re-learns the
                    // fleet from heartbeats when it comes back.
                    self.heartbeat_failures.fetch_add(1, Ordering::Relaxed);
                    self.registered.store(false, Ordering::Relaxed);
                }
            }
            let stopped = self.stop.lock().unwrap_or_else(|e| e.into_inner());
            let (stopped, _) = self
                .stop_cv
                .wait_timeout_while(stopped, self.cfg.heartbeat, |s| !*s)
                .unwrap_or_else(|e| e.into_inner());
            if *stopped {
                return;
            }
        }
    }

    /// Stops the heartbeat thread and sends a best-effort graceful
    /// deregister so the coordinator drains rather than declares death.
    pub fn stop_and_deregister(&self) {
        {
            let mut stopped = self.stop.lock().unwrap_or_else(|e| e.into_inner());
            if *stopped {
                return;
            }
            *stopped = true;
        }
        self.stop_cv.notify_all();
        if let Some(h) = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
        let body = serde_json::to_string(&Value::Map(vec![(
            "id".into(),
            Value::Str(self.cfg.node_id.clone()),
        )]))
        .expect("serializes");
        let _ = client::request_with(
            &self.cfg.coordinator,
            "POST",
            "/v1/cluster/deregister",
            Some(&body),
            &RetryPolicy::none(),
            CONTROL_READ_TIMEOUT,
        );
        self.registered.store(false, Ordering::Relaxed);
    }
}

impl ClusterHook for ClusterAgent {
    fn status_value(&self, _plane: &Plane) -> Value {
        Value::Map(vec![
            ("role".into(), Value::Str("worker".into())),
            (
                "coordinator".into(),
                Value::Str(self.cfg.coordinator.clone()),
            ),
            ("node_id".into(), Value::Str(self.cfg.node_id.clone())),
            ("advertise".into(), Value::Str(self.advertise.clone())),
            ("registered".into(), Value::Bool(self.is_registered())),
            (
                "heartbeats".into(),
                Value::U64(self.heartbeats.load(Ordering::Relaxed)),
            ),
            (
                "heartbeat_failures".into(),
                Value::U64(self.heartbeat_failures.load(Ordering::Relaxed)),
            ),
        ])
    }

    fn metrics(&self, out: &mut Scope<'_>) {
        out.counter("heartbeats", self.heartbeats.load(Ordering::Relaxed));
        out.counter(
            "heartbeat_failures",
            self.heartbeat_failures.load(Ordering::Relaxed),
        );
        out.gauge("registered", if self.is_registered() { 1.0 } else { 0.0 });
    }

    fn stop(&self) {
        self.stop_and_deregister();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HandlerResult, HttpServer};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn agent_heartbeats_and_deregisters() {
        let registers = Arc::new(AtomicU64::new(0));
        let deregisters = Arc::new(AtomicU64::new(0));
        let (r, d) = (Arc::clone(&registers), Arc::clone(&deregisters));
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(move |req: &crate::http::Request| {
                match req.path.as_str() {
                    "/v1/cluster/register" => r.fetch_add(1, Ordering::Relaxed),
                    "/v1/cluster/deregister" => d.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
                HandlerResult::Json(200, "{}".into())
            }),
        )
        .unwrap();
        let coord_addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve(Duration::from_secs(5)));

        let mut cfg = ClusterConfig::new(coord_addr.to_string(), "w-test");
        cfg.heartbeat = Duration::from_millis(20);
        let bound: std::net::SocketAddr = "127.0.0.1:7117".parse().unwrap();
        let agent = ClusterAgent::spawn(cfg, bound);
        // At least two heartbeats land.
        for _ in 0..200 {
            if agent.heartbeats.load(Ordering::Relaxed) >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(agent.heartbeats.load(Ordering::Relaxed) >= 2);
        assert!(agent.is_registered());
        assert_eq!(agent.advertised(), "127.0.0.1:7117");
        agent.stop_and_deregister();
        assert_eq!(deregisters.load(Ordering::Relaxed), 1);
        assert!(!agent.is_registered());
        // Idempotent.
        agent.stop_and_deregister();
        assert_eq!(deregisters.load(Ordering::Relaxed), 1);
        handle.stop();
        join.join().unwrap();
    }

    #[test]
    fn agent_survives_a_dead_coordinator() {
        // Bind-then-drop: the port refuses connections.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut cfg = ClusterConfig::new(dead, "w-orphan");
        cfg.heartbeat = Duration::from_millis(10);
        cfg.retry = RetryPolicy::none();
        let bound: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
        let agent = ClusterAgent::spawn(cfg, bound);
        for _ in 0..200 {
            if agent.heartbeat_failures.load(Ordering::Relaxed) >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(agent.heartbeat_failures.load(Ordering::Relaxed) >= 2);
        assert!(!agent.is_registered());
        agent.stop_and_deregister();
    }
}
