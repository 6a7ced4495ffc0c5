//! The `nocalertd` side: spawning the daemon and the closed-loop HTTP/SSE
//! client that submits jobs and follows them to their `done` frame.

use crate::jobs;
use crate::report::{median, metric, Metric, Ops};
use crate::trace;
use noc_types::{Incident, JobEvent, JobResult, JobSpec, JobState, JobStatus};
use nocalert_service::http;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `nocalertd serve` on a fresh data directory, with one worker:
/// the benchmark's host has two cores, and a second worker would leave
/// none for the client and the daemon's own threads. Dropping it kills
/// the process, waits for it and removes its directory.
pub struct Daemon {
    child: Child,
    pub addr: String,
    dir: PathBuf,
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Spawns the daemon and returns it with the seconds from spawn until
    /// `/healthz` answered 200.
    pub fn spawn(bin: &Path, work: &Path, tag: &str) -> Result<(Daemon, f64), String> {
        let dir = work.join(format!("svc-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--data-dir")
            .arg(dir.join("data"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        // The daemon prints `[nocalertd] listening on <addr>, …` once
        // bound; the pipe stays open (and unread) until the daemon ends.
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no daemon stdout")?);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            dir,
            _stdout: None,
        };
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        daemon.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .ok_or_else(|| format!("nocalertd did not start: {line:?}"))?
            .to_string();
        daemon._stdout = Some(stdout);
        let deadline = t0 + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok((200, _)) = http::request(&daemon.addr, "GET", "/healthz", None) {
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err("nocalertd did not answer /healthz within 30 s".to_string())
    }

    /// Peak resident memory of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::report::vm_hwm_mb(&self.child.id().to_string())
    }

    /// Bytes the daemon has written under its data directory.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(p: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(p) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => walk(&e.path()),
                    _ => e.metadata().map_or(0, |m| m.len()),
                })
                .sum()
        }
        walk(&self.dir.join("data"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One job as the client saw it. Times in ms from the client's clock.
#[derive(Debug, Clone)]
pub struct Sample {
    pub label: String,
    /// Submit to the SSE `done` frame.
    pub job_ms: f64,
    pub submit_ms: f64,
    /// Submit response to the `Running` state frame.
    pub queue_ms: f64,
    /// `Running` frame to `done`.
    pub run_ms: f64,
    /// `GET /result`.
    pub result_ms: f64,
    pub frames: u64,
    pub digest: String,
}

fn get(addr: &str, path: &str, unit: u64, ops: &mut Ops) -> Option<String> {
    let _span = trace::span(format!("service.GET {}", route(path)), unit);
    match http::request(addr, "GET", path, None) {
        Ok((status, body)) if (200..300).contains(&status) => {
            ops.check(true, String::new);
            Some(body)
        }
        Ok((status, body)) => {
            ops.check(false, || format!("GET {path}: {status} {body}"));
            None
        }
        Err(e) => {
            ops.check(false, || format!("GET {path}: {e}"));
            None
        }
    }
}

/// Parses a response body, counting an unparseable one as a failure.
fn parse<T: serde::Deserialize>(body: &str, path: &str, ops: &mut Ops) -> Option<T> {
    match serde_json::from_str(body) {
        Ok(v) => Some(v),
        Err(e) => {
            ops.check(false, || format!("GET {path}: unparseable response: {e}"));
            None
        }
    }
}

/// `/jobs/job-0007/result` → `/jobs/<id>/result`, so spans group by route.
fn route(path: &str) -> String {
    path.split('/')
        .map(|s| if s.starts_with("job-") { "<id>" } else { s })
        .collect::<Vec<_>>()
        .join("/")
}

/// Submits `spec`, follows its event stream to `done`, then reads its
/// result and incidents. `None` when any step failed (recorded in `ops`).
fn one_job(addr: &str, index: usize, spec: &JobSpec, ops: &mut Ops) -> Option<Sample> {
    let unit = index as u64;
    let _job = trace::span("service.job", unit);
    let body = match serde_json::to_string(spec) {
        Ok(b) => b,
        Err(e) => {
            ops.check(false, || {
                format!("cannot serialize {}: {e}", jobs::label(spec))
            });
            return None;
        }
    };
    let t0 = Instant::now();
    let submitted = {
        let _span = trace::span("service.POST /jobs", unit);
        http::request(addr, "POST", "/jobs", Some(&body))
    };
    let t_submit = Instant::now();
    let status: JobStatus = match submitted {
        Ok((201, body)) => match serde_json::from_str(&body) {
            Ok(s) => {
                ops.check(true, String::new);
                s
            }
            Err(e) => {
                ops.check(false, || format!("POST /jobs: unparseable status: {e}"));
                return None;
            }
        },
        Ok((code, body)) => {
            ops.check(false, || format!("POST /jobs: {code} {body}"));
            return None;
        }
        Err(e) => {
            ops.check(false, || format!("POST /jobs: {e}"));
            return None;
        }
    };

    let mut frames = 0u64;
    let mut running_at = None;
    let mut last_state = None;
    let streamed = {
        let _span = trace::span("service.GET /jobs/<id>/events", unit);
        http::stream_events(addr, &format!("/jobs/{}/events", status.id), &mut |data| {
            frames += 1;
            if let Ok(JobEvent::State(s)) = serde_json::from_str::<JobEvent>(data) {
                if s == JobState::Running && running_at.is_none() {
                    running_at = Some(Instant::now());
                }
                last_state = Some(s);
            }
            true
        })
    };
    let t_done = Instant::now();
    ops.check(streamed.is_ok(), || {
        format!("events of {}: {streamed:?}", status.id)
    });
    ops.check(last_state == Some(JobState::Completed), || {
        format!(
            "{} ({}) ended in state {last_state:?}",
            status.id,
            jobs::label(spec)
        )
    });
    let running_at = running_at.unwrap_or(t_done);

    let t_result = Instant::now();
    let path = format!("/jobs/{}/result", status.id);
    let result: JobResult = parse(&get(addr, &path, unit, ops)?, &path, ops)?;
    let result_ms = t_result.elapsed().as_secs_f64() * 1e3;
    jobs::check_result(&result, &status.id, ops);
    let path = format!("/jobs/{}/incidents", status.id);
    let incidents: Vec<Incident> = parse(&get(addr, &path, unit, ops)?, &path, ops)?;
    ops.check(incidents == result.incidents, || {
        format!(
            "{}: /incidents differs from the result's incidents",
            status.id
        )
    });
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    Some(Sample {
        label: jobs::label(spec),
        job_ms: ms(t0, t_done),
        submit_ms: ms(t0, t_submit),
        queue_ms: ms(t_submit, running_at),
        run_ms: ms(running_at, t_done),
        result_ms,
        frames,
        digest: result.digest,
    })
}

/// Runs `jobs` from one closed-loop client: each job is submitted once
/// the previous one finished. Samples come back in submission order.
pub fn run_client(addr: &str, jobs: &[JobSpec], ops: &mut Ops) -> Vec<Sample> {
    jobs.iter()
        .enumerate()
        .filter_map(|(i, spec)| one_job(addr, i, spec, ops))
        .collect()
}

/// `/healthz` round trips, median of `n`, in ms.
pub fn healthz_ms(addr: &str, n: usize, ops: &mut Ops) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let ok = get(addr, "/healthz", 0, ops).is_some();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if ok {
                ms
            } else {
                f64::NAN
            }
        })
        .collect();
    median(&times)
}

/// The service layer's metrics from a set of samples; `inproc_ms` maps a
/// spec label to its in-process `JobDriver` time.
pub fn service_metrics(
    samples: &[Sample],
    healthz_ms: f64,
    disk_bytes: u64,
    inproc_ms: &std::collections::BTreeMap<String, f64>,
) -> Vec<Metric> {
    let col = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let overhead: Vec<f64> = samples
        .iter()
        .filter_map(|s| inproc_ms.get(&s.label).map(|&m| s.job_ms / m))
        .collect();
    let n = samples.len().max(1) as f64;
    vec![
        metric("service.healthz_ms_p50", healthz_ms, "ms"),
        metric("service.submit_ms_p50", median(&col(|s| s.submit_ms)), "ms"),
        metric("service.queue_ms_p50", median(&col(|s| s.queue_ms)), "ms"),
        metric("service.run_ms_p50", median(&col(|s| s.run_ms)), "ms"),
        metric("service.result_ms_p50", median(&col(|s| s.result_ms)), "ms"),
        metric("service.overhead", median(&overhead), "ratio"),
        metric("service.disk_bytes_per_job", disk_bytes as f64 / n, "count"),
        metric(
            "service.sse_frames_per_job",
            col(|s| s.frames as f64).iter().sum::<f64>() / n,
            "count",
        ),
    ]
}
