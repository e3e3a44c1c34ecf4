//! The engine-backed `audit run` / `audit resume` / `audit report`
//! sub-actions: durable, parallel, resumable Exp^DI audits driven by
//! `dpaudit-runtime` on the bench workloads.

use crate::opts::Opts;
use dpaudit_bench::{arm_settings, param_row, Workload};
use dpaudit_core::{AdversaryKind, ChallengeMode, RecordDetail, Sampling};
use dpaudit_dp::{NeighborMode, RdpAccountant};
use dpaudit_dpsgd::{ComputeMode, NeighborPair, SensitivityScaling};
use dpaudit_obs::{self as obs, JsonlSink, MetricsRegistry, MultiSink, Sink};
use dpaudit_runtime::{
    render_partial, render_report, replay_store, AuditSession, Parallelism, Progress, Seed,
    StoreHeader, MAX_REPS, MAX_STEPS, SCHEMA_VERSION,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Dispatch `audit <sub-action>`.
///
/// # Errors
/// A human-readable message for bad flags, bad values or I/O failures.
pub fn run_subaction(sub: &str, opts: &Opts) -> Result<String, String> {
    match sub {
        "run" => cmd_run(opts),
        "resume" => cmd_resume(opts),
        "report" => cmd_report(opts),
        other => Err(format!(
            "unknown audit sub-action `{other}` (run | resume | report)"
        )),
    }
}

/// Build the batch-defining [`StoreHeader`] from the workload flag set.
///
/// This is the single construction point shared by `audit run` and
/// `fabric serve`: identical flags produce an identical header, which is
/// what makes a fabric job's merged report byte-comparable to a local
/// run's.
pub(crate) fn header_from_opts(opts: &Opts) -> Result<StoreHeader, String> {
    let workload = parse_workload(
        opts.str_opt("workload")
            .ok_or("missing required --workload")?,
    )?;
    let reps = opts.count_or("reps", 25, MAX_REPS)?;
    let steps = opts.count_or("steps", 30, MAX_STEPS)?;
    let rho_beta = opts.f64_opt("rho-beta")?.unwrap_or(0.90);
    if !(0.5..1.0).contains(&rho_beta) || rho_beta == 0.5 {
        return Err("--rho-beta must be in (0.5, 1)".into());
    }
    let scaling = parse_scaling(opts.str_opt("scaling").unwrap_or("ls"))?;
    let mode = parse_mode(opts.str_opt("mode").unwrap_or("bounded"))?;
    let challenge = parse_challenge(opts.str_opt("challenge").unwrap_or("random"))?;
    let adversary = parse_adversary(opts.str_opt("adversary").unwrap_or("gaussian"))?;
    let sampling = match opts.f64_opt("sampling-q")? {
        Some(q) if q > 0.0 && q < 1.0 => Sampling::Poisson { q },
        Some(q) => return Err(format!("--sampling-q must be in (0, 1), got {q}")),
        None => Sampling::FullBatch,
    };
    let detail = parse_detail(opts.str_opt("detail").unwrap_or("summary"))?;
    let seed = opts.u64_or("seed", 42)?;
    let train_size = opts.usize_or("train-size", workload.default_train_size())?;
    check_train_size(train_size, mode)?;
    let label = opts
        .str_opt("label")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}_{scaling}_{mode}_rb{rho_beta}", workload.key()));

    let row = param_row(rho_beta, workload.delta());
    let mut settings = arm_settings(&row, steps, scaling, mode, challenge);
    settings.dpsgd.compute = parse_compute(opts.str_opt("compute").unwrap_or("f64"))?;
    settings.adversary = adversary;
    settings.sampling = sampling;
    // Under Poisson subsampling the noise multiplier calibrated for the
    // full-batch budget actually buys a *tighter* analytic ε (privacy
    // amplification); audit against the honest subsampled-Gaussian budget
    // and the ρ_β bound it implies, not the full-batch one.
    let (target_epsilon, rho_beta_bound) = match sampling {
        Sampling::FullBatch => (row.epsilon, row.rho_beta),
        Sampling::Poisson { q } => {
            let mut accountant = RdpAccountant::new();
            accountant.add_subsampled_gaussian_steps(q, settings.dpsgd.noise_multiplier, steps);
            let (eps, _order) = accountant.epsilon(row.delta);
            (eps, dpaudit_core::rho_beta(eps))
        }
    };
    Ok(StoreHeader {
        schema_version: SCHEMA_VERSION,
        label,
        workload: workload.key().to_string(),
        train_size,
        world_seed: Seed(seed),
        reps,
        master_seed: Seed(seed),
        target_epsilon,
        delta: row.delta,
        rho_beta_bound,
        detail,
        settings,
    })
}

fn cmd_run(opts: &Opts) -> Result<String, String> {
    let out_path = opts.str_opt("out").ok_or("missing required --out FILE")?;
    let header = header_from_opts(opts)?;
    let parallelism = parse_parallelism(opts)?;

    let path = Path::new(out_path);
    if path.exists() && !opts.flag("fresh") {
        return Err(format!(
            "store {out_path} already exists; continue it with `dpaudit audit resume --store {out_path}` or overwrite with --fresh"
        ));
    }
    let session =
        AuditSession::create(path, header).map_err(|e| format!("cannot create store: {e}"))?;
    execute(session, parallelism, opts)
}

fn cmd_resume(opts: &Opts) -> Result<String, String> {
    let store = opts
        .str_opt("store")
        .ok_or("missing required --store FILE")?;
    let parallelism = parse_parallelism(opts)?;
    let session =
        AuditSession::resume(Path::new(store)).map_err(|e| format!("cannot resume store: {e}"))?;
    let done = session.header().reps - session.missing_indices().len();
    eprintln!(
        "resuming {}: {done}/{} trials already stored",
        store,
        session.header().reps
    );
    execute(session, parallelism, opts)
}

/// Both worker knobs from the flag set: `--threads` across trials,
/// `--batch-threads` inside each trial's clip loop.
pub(crate) fn parse_parallelism(opts: &Opts) -> Result<Parallelism, String> {
    Ok(Parallelism {
        trial_threads: opts.usize_or("threads", 0)?,
        batch_threads: opts.usize_or("batch-threads", 1)?,
    })
}

fn cmd_report(opts: &Opts) -> Result<String, String> {
    let store = opts
        .str_opt("store")
        .ok_or("missing required --store FILE")?;
    let replayed =
        replay_store(Path::new(store)).map_err(|e| format!("cannot replay store: {e}"))?;
    match replayed.report {
        Some(report) => Ok(render_report(&replayed.header, &report)),
        None => Ok(render_partial(
            &replayed.header,
            replayed.completed,
            &replayed.missing,
        )),
    }
}

/// Observability sinks requested on the command line (`--metrics` /
/// `--trace` / `--serve-metrics`), installed for the duration of one
/// engine run.
struct ObsSetup {
    /// Keeps the global sink installed; dropping uninstalls and flushes.
    _guard: obs::InstallGuard,
    /// In-memory registry backing `--metrics` and/or `--serve-metrics`.
    registry: Option<Arc<MetricsRegistry>>,
    /// Where to write the deterministic snapshot after the run.
    metrics_path: Option<String>,
    /// Live Prometheus endpoint, when `--serve-metrics` was given.
    server: Option<obs::MetricsServer>,
    /// `--serve-linger SECS`: after the run, keep serving until one scrape
    /// is answered or this many seconds elapse.
    linger_secs: u64,
}

/// Build and install the requested sinks. Returns `None` (and installs
/// nothing — the no-op fast path) when no observability flag was given.
/// `labels` become the `dpaudit_audit_info` series of a served exposition
/// (adversary, sampling scheme, …); pass an empty set for none.
fn install_obs(opts: &Opts, labels: Vec<(String, String)>) -> Result<Option<ObsSetup>, String> {
    let metrics_path = opts.str_opt("metrics").map(str::to_string);
    let trace_path = opts.str_opt("trace");
    let serve_addr = opts.str_opt("serve-metrics");
    let linger_secs = opts.u64_or("serve-linger", 0)?;
    if metrics_path.is_none() && trace_path.is_none() && serve_addr.is_none() {
        return Ok(None);
    }
    // The registry feeds both the snapshot file and the live endpoint.
    let registry =
        (metrics_path.is_some() || serve_addr.is_some()).then(|| Arc::new(MetricsRegistry::new()));
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if let Some(registry) = &registry {
        sinks.push(registry.clone());
    }
    if let Some(path) = trace_path {
        let sink =
            JsonlSink::create(Path::new(path)).map_err(|e| format!("cannot create trace: {e}"))?;
        sinks.push(Arc::new(sink));
    }
    let sink: Arc<dyn Sink> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        Arc::new(MultiSink::new(sinks))
    };
    let server = match serve_addr {
        Some(addr) => {
            let registry = registry.clone().expect("registry exists when serving");
            let server = obs::MetricsServer::serve(addr, move || {
                let label_refs: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                obs::render_prometheus_labeled(
                    &registry.snapshot(),
                    &registry.span_stats(),
                    &label_refs,
                )
            })
            .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            eprintln!(
                "serving Prometheus metrics on http://{}/metrics",
                server.addr()
            );
            Some(server)
        }
        None => None,
    };
    Ok(Some(ObsSetup {
        _guard: obs::install(sink),
        registry,
        metrics_path,
        server,
        linger_secs,
    }))
}

impl ObsSetup {
    /// Uninstall the sinks (flushing the trace), write the metrics
    /// snapshot, and wind down the live endpoint. The snapshot holds only
    /// deterministic folds, so its bytes are identical across worker
    /// counts for the same audit.
    fn finish(self) -> Result<(), String> {
        let ObsSetup {
            _guard,
            registry,
            metrics_path,
            server,
            linger_secs,
        } = self;
        drop(_guard);
        if let (Some(registry), Some(path)) = (&registry, &metrics_path) {
            let json = serde_json::to_value(&registry.snapshot()).to_string();
            std::fs::write(Path::new(path), json + "\n")
                .map_err(|e| format!("cannot write metrics snapshot: {e}"))?;
        }
        if let Some(server) = server {
            // Linger so an external scraper (CI's curl, a Prometheus poll)
            // gets one look at the final, report-matching exposition —
            // scrapes that landed mid-run don't count.
            if linger_secs > 0 {
                eprintln!("awaiting one final metrics scrape (up to {linger_secs}s)");
                server.await_scrape(std::time::Duration::from_secs(linger_secs));
            }
            server.shutdown();
        }
        Ok(())
    }
}

/// Rebuild the workload objects a header describes and run the missing
/// trials, streaming progress to stderr.
fn execute(
    mut session: AuditSession,
    parallelism: Parallelism,
    opts: &Opts,
) -> Result<String, String> {
    let header = session.header().clone();
    let (workload, pair) = rebuild_workload(&header)?;
    let total = session.missing_indices().len();
    let step = (total / 20).max(1);
    let on_progress = move |p: Progress| {
        if p.completed.is_multiple_of(step) || p.completed == total {
            eprintln!("  {}", p.render());
        }
    };
    let observability = install_obs(
        opts,
        vec![
            ("adversary".into(), header.settings.adversary.label().into()),
            ("sampling".into(), header.settings.sampling.to_string()),
        ],
    )?;
    let outcome = session
        .run(
            &pair,
            None,
            |rng| workload.build_model(rng),
            parallelism,
            on_progress,
            None,
        )
        .map_err(|e| format!("store append failed: {e}"))?;
    if let Some(observability) = observability {
        observability.finish()?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} trials ({} executed, {} replayed from store)",
        header.reps, outcome.executed, outcome.replayed
    );
    out.push_str(&render_report(&header, &outcome.report));
    Ok(out)
}

/// Deterministically rebuild the neighbouring pair from header metadata:
/// same workload + world seed + train size + neighbour mode ⇒ same pair.
pub(crate) fn rebuild_workload(header: &StoreHeader) -> Result<(Workload, NeighborPair), String> {
    let workload = parse_workload(&header.workload)?;
    let dpsgd = &header.settings.dpsgd;
    check_train_size(header.train_size, dpsgd.mode)?;
    let world = workload.world(header.world_seed.0, header.train_size);
    let pair = workload.max_pair(&world, dpsgd.mode);
    Ok((workload, pair))
}

/// Reject a training set too small to build a neighbouring pair from
/// (bounded replaces one of at least 1 record, unbounded removes one of at
/// least 2).
fn check_train_size(train_size: usize, mode: NeighborMode) -> Result<(), String> {
    let min = match mode {
        NeighborMode::Bounded => 1,
        NeighborMode::Unbounded => 2,
    };
    if train_size < min {
        return Err(format!(
            "{mode} neighbours need --train-size >= {min}, got {train_size}"
        ));
    }
    Ok(())
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}` (mnist|purchase)"))
}

fn parse_scaling(name: &str) -> Result<SensitivityScaling, String> {
    match name.to_ascii_lowercase().as_str() {
        "ls" | "local" => Ok(SensitivityScaling::Local),
        "gs" | "global" => Ok(SensitivityScaling::Global),
        other => Err(format!("unknown --scaling `{other}` (ls|gs)")),
    }
}

fn parse_mode(name: &str) -> Result<NeighborMode, String> {
    match name.to_ascii_lowercase().as_str() {
        "bounded" => Ok(NeighborMode::Bounded),
        "unbounded" => Ok(NeighborMode::Unbounded),
        other => Err(format!("unknown --mode `{other}` (bounded|unbounded)")),
    }
}

fn parse_challenge(name: &str) -> Result<ChallengeMode, String> {
    match name.to_ascii_lowercase().as_str() {
        "random" => Ok(ChallengeMode::RandomBit),
        "always-d" => Ok(ChallengeMode::AlwaysD),
        other => Err(format!("unknown --challenge `{other}` (random|always-d)")),
    }
}

fn parse_adversary(name: &str) -> Result<AdversaryKind, String> {
    AdversaryKind::parse(name)
        .ok_or_else(|| format!("unknown --adversary `{name}` (gaussian|glrt|mi)"))
}

fn parse_compute(name: &str) -> Result<ComputeMode, String> {
    match name.to_ascii_lowercase().as_str() {
        "f64" => Ok(ComputeMode::F64),
        "f32" => Ok(ComputeMode::F32),
        other => Err(format!("unknown --compute `{other}` (f64|f32)")),
    }
}

fn parse_detail(name: &str) -> Result<RecordDetail, String> {
    match name.to_ascii_lowercase().as_str() {
        "full" => Ok(RecordDetail::Full),
        "summary" => Ok(RecordDetail::Summary),
        other => Err(format!("unknown --detail `{other}` (full|summary)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn scrape(addr: std::net::SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        body.to_string()
    }

    #[test]
    fn serve_metrics_exposes_live_eps_prime_gauges() {
        let opts = Opts::parse(
            ["audit", "run", "--serve-metrics", "127.0.0.1:0"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let setup = install_obs(&opts, vec![("adversary".into(), "gaussian".into())])
            .unwrap()
            .expect("obs setup requested");
        let addr = setup.server.as_ref().expect("server running").addr();

        // Before any events: a valid exposition carrying only run labels.
        let body = scrape(addr);
        assert!(!body.contains("dpaudit_eps_prime"), "{body}");
        assert!(
            body.contains("dpaudit_audit_info{adversary=\"gaussian\"} 1"),
            "{body}"
        );

        obs::gauge_max(obs::names::EPS_TARGET_GAUGE, 2.0);
        obs::gauge_max(obs::names::EPS_PRIME_GAUGE, 1.25);
        obs::record(&obs::Event::Ledger {
            step: 1,
            local_sensitivity: 0.5,
            eps_prime: 0.75,
            eps_budget: Some(2.0),
        });
        let body = scrape(addr);
        assert!(body.contains("dpaudit_eps_prime 1.25"), "{body}");
        assert!(body.contains("dpaudit_eps_target 2"), "{body}");
        assert!(body.contains("dpaudit_ledger_steps_total 1"), "{body}");

        // No --serve-linger was given, so finish() shuts down at once.
        setup.finish().unwrap();
    }

    #[test]
    fn header_from_opts_wires_adversary_and_poisson_sampling() {
        let parse = |extra: &[&str]| {
            let mut args = vec!["audit", "run", "--workload", "purchase"];
            args.extend_from_slice(extra);
            Opts::parse(args.iter().map(|s| s.to_string())).unwrap()
        };

        let default_header = header_from_opts(&parse(&[])).unwrap();
        assert_eq!(
            default_header.settings.adversary,
            AdversaryKind::GaussianBelief
        );
        assert_eq!(default_header.settings.sampling, Sampling::FullBatch);

        // Spelling the defaults out produces a byte-identical header — the
        // invariant the CI byte-diff check relies on.
        let explicit = header_from_opts(&parse(&["--adversary", "gaussian"])).unwrap();
        assert_eq!(
            serde_json::to_string(&default_header).unwrap(),
            serde_json::to_string(&explicit).unwrap()
        );

        let poisson =
            header_from_opts(&parse(&["--adversary", "glrt", "--sampling-q", "0.1"])).unwrap();
        assert_eq!(poisson.settings.adversary, AdversaryKind::Glrt);
        assert_eq!(poisson.settings.sampling, Sampling::Poisson { q: 0.1 });
        // Privacy amplification by subsampling: the honest Poisson budget is
        // strictly tighter than the full-batch one at the same z, and the
        // ρ_β bound follows it.
        assert!(
            poisson.target_epsilon < default_header.target_epsilon,
            "{} vs {}",
            poisson.target_epsilon,
            default_header.target_epsilon
        );
        assert!(poisson.target_epsilon > 0.0);
        assert_eq!(
            poisson.rho_beta_bound,
            dpaudit_core::rho_beta(poisson.target_epsilon)
        );

        for (flags, message) in [
            (&["--sampling-q", "1.5"][..], "(0, 1)"),
            (&["--adversary", "bogus"], "gaussian|glrt|mi"),
            (&["--steps", "0"], "--steps must be positive"),
            (
                &["--reps", "1048577"],
                "--reps 1048577 is above the bound 1048576",
            ),
            (
                &["--steps", "1048577"],
                "--steps 1048577 is above the bound 1048576",
            ),
            (
                &["--train-size", "0"],
                "bounded neighbours need --train-size >= 1",
            ),
            (
                &["--train-size", "1", "--mode", "unbounded"],
                "unbounded neighbours need --train-size >= 2",
            ),
        ] {
            let err = header_from_opts(&parse(flags)).unwrap_err();
            assert!(err.contains(message), "{flags:?}: {err}");
        }
    }

    #[test]
    fn rebuild_workload_rejects_an_empty_training_set() {
        let opts = Opts::parse(
            ["audit", "run", "--workload", "purchase", "--steps", "2"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let mut header = header_from_opts(&opts).unwrap();
        header.train_size = 0;
        let err = rebuild_workload(&header).unwrap_err();
        assert!(err.contains("need --train-size >= 1, got 0"), "{err}");
    }

    #[test]
    fn obs_setup_is_skipped_without_observability_flags() {
        let opts = Opts::parse(["audit", "run"].iter().map(|s| s.to_string())).unwrap();
        assert!(install_obs(&opts, vec![]).unwrap().is_none());
    }
}
