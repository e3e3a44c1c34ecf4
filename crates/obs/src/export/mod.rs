//! Exporters: turning recorded telemetry into externally consumable forms.
//!
//! * [`render_prometheus`] — Prometheus text exposition (format 0.0.4) of a
//!   [`crate::MetricsSnapshot`] plus span stats.
//! * [`MetricsServer`] — a tiny hand-rolled HTTP listener serving that
//!   exposition (`dpaudit audit run --serve-metrics 127.0.0.1:9898`); its
//!   generic [`MetricsServer::serve_with`] entry point also carries the
//!   fabric coordinator's line/JSON protocol.
//! * [`chrome_trace`] — converts a JSONL trace into Chrome trace-event JSON
//!   loadable in Perfetto / `chrome://tracing` (`dpaudit trace export`);
//!   [`chrome_trace_merged`] zips several workers' traces into one export
//!   with a process track per worker (`dpaudit trace merge`).
//! * [`render_prometheus_fleet`] — one exposition over many workers'
//!   shipped snapshots, each sample labelled `worker="<id>"` (the fabric
//!   coordinator's `/metrics`).

mod chrome;
mod http;
mod prometheus;

pub use chrome::{chrome_trace, chrome_trace_merged};
pub use http::{render_health, MetricsServer, Request, Response, ServerConfig};
pub use prometheus::{render_prometheus, render_prometheus_fleet, render_prometheus_labeled};
