//! End-to-end service tests: submit → stream → `kill -9` → restart →
//! resume, with the resumed aggregate bit-identical to a direct
//! engine run of the same spec at a different worker count; plus an
//! SSE incident-stream snapshot for the canonical one-fault job, and
//! hostile input (oversized heads, deeply nested bodies, connection
//! floods) that the daemon refuses and survives.
//!
//! The server runs as a real child process (the `nocalertd` binary),
//! so the kill is a genuine SIGKILL mid-campaign — exactly the failure
//! the JSONL checkpoint substrate is built to survive.

#![allow(clippy::expect_used)]

use golden::JobDriver;
use noc_types::{JobKind, JobSpec, NocConfig};
use nocalert_service::http;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn small_noc() -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    noc.mesh = noc_types::Mesh::new(3, 3);
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    noc
}

fn recovery_spec(threads: u32) -> JobSpec {
    JobSpec {
        kind: JobKind::Recovery,
        noc: small_noc(),
        warmup: 200,
        window: 1_200,
        limit: Some(5),
        threads,
    }
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Launches `nocalertd serve` on an ephemeral port and waits for
    /// the bound address to land in the addr-file.
    fn start(data_dir: &Path, tag: &str) -> Server {
        let addr_file = data_dir.join(format!("addr-{tag}"));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(env!("CARGO_BIN_EXE_nocalertd"))
            .args([
                "serve",
                "--data-dir",
                &data_dir.display().to_string(),
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                &addr_file.display().to_string(),
                "--workers",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nocalertd");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if !text.trim().is_empty() {
                    break text.trim().to_string();
                }
            }
            assert!(
                Instant::now() < deadline,
                "nocalertd never published its address"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        Server { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nocalertd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

fn submit(addr: &str, spec: &JobSpec) -> String {
    let body = serde_json::to_string(spec).expect("serialize spec");
    let (status, response) =
        http::request(addr, "POST", "/jobs", Some(&body)).expect("submit request");
    assert_eq!(status, 201, "submit failed: {response}");
    let doc = serde::Value::parse_json(&response).expect("parse submit response");
    doc.get("id")
        .and_then(serde::Value::as_str)
        .expect("id in submit response")
        .to_string()
}

fn job_state(addr: &str, id: &str) -> String {
    let (status, body) =
        http::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status request");
    assert_eq!(status, 200, "status failed: {body}");
    let doc = serde::Value::parse_json(&body).expect("parse status");
    doc.get("state")
        .and_then(serde::Value::as_str)
        .unwrap_or("")
        .to_string()
}

fn wait_completed(addr: &str, id: &str, budget: Duration) {
    let deadline = Instant::now() + budget;
    loop {
        let state = job_state(addr, id);
        if state == "Completed" {
            return;
        }
        assert!(
            state == "Queued" || state == "Running",
            "job {id} ended in unexpected state {state}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} did not complete in time (last state {state})"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn result_json(addr: &str, id: &str) -> serde::Value {
    let (status, body) =
        http::request(addr, "GET", &format!("/jobs/{id}/result"), None).expect("result request");
    assert_eq!(status, 200, "result failed: {body}");
    serde::Value::parse_json(&body).expect("parse result")
}

/// The tentpole acceptance pin: a job submitted over HTTP, killed
/// mid-run with SIGKILL, restarted, and resumed must aggregate
/// bit-identically to a direct in-process engine run of the same spec
/// at a different worker count.
#[test]
fn submit_kill_restart_resume_matches_direct_run() {
    let data_dir = temp_dir("resume");
    let mut server = Server::start(&data_dir, "first");
    let id = submit(&server.addr, &recovery_spec(1));

    // Tail the SSE feed until the first progress frame: it is sent only
    // once its unit's row is flushed to a shard, so the kill lands after
    // at least one checkpointed unit (and, in the worst case of a fast
    // job, after completion — resume then restores everything from
    // shards, which is the same contract).
    let addr = server.addr.clone();
    let path = format!("/jobs/{id}/events");
    let mut saw_progress = false;
    let _ = http::stream_events(&addr, &path, &mut |data| {
        if data.contains("Progress") {
            saw_progress = true;
            return false;
        }
        true
    });
    assert!(saw_progress, "no progress frame before kill");
    server.kill();

    // Restart over the same data dir: the job is re-enqueued with
    // resume enabled and runs to completion.
    let server2 = Server::start(&data_dir, "second");
    wait_completed(&server2.addr, &id, Duration::from_secs(600));
    let result = result_json(&server2.addr, &id);
    let digest = result
        .get("digest")
        .and_then(serde::Value::as_str)
        .expect("digest")
        .to_string();

    // Direct engine run, no service, no checkpoints, different worker
    // count: the digest must match bit for bit.
    let direct = JobDriver::default()
        .run(&recovery_spec(3), &mut |_| {})
        .expect("direct run");
    assert_eq!(
        digest, direct.digest,
        "service aggregate diverged from direct run"
    );

    // Incidents served over HTTP match the direct run's clustering.
    let (status, body) =
        http::request(&server2.addr, "GET", &format!("/jobs/{id}/incidents"), None)
            .expect("incidents request");
    assert_eq!(status, 200);
    let served = serde::Value::parse_json(&body).expect("parse incidents");
    let direct_incidents = serde_json::to_value(&direct.incidents).expect("serialize incidents");
    assert_eq!(served, direct_incidents, "incident streams diverged");
}

/// SSE snapshot for the canonical one-fault transient job: the feed
/// must deliver state, progress, and exactly one clustered incident
/// whose fields tell the fault's story.
#[test]
fn sse_incident_stream_for_one_fault_job() {
    let data_dir = temp_dir("sse");
    let server = Server::start(&data_dir, "only");
    let spec = JobSpec {
        kind: JobKind::Transient,
        noc: small_noc(),
        warmup: 200,
        window: 1_200,
        limit: Some(1),
        threads: 1,
    };
    let id = submit(&server.addr, &spec);

    let mut frames: Vec<serde::Value> = Vec::new();
    http::stream_events(&server.addr, &format!("/jobs/{id}/events"), &mut |data| {
        frames.push(serde::Value::parse_json(data).expect("parse frame"));
        true
    })
    .expect("stream events");

    let states: Vec<&str> = frames
        .iter()
        .filter_map(|f| f.get("State").and_then(serde::Value::as_str))
        .collect();
    assert!(states.contains(&"Running"), "states seen: {states:?}");
    assert_eq!(states.last(), Some(&"Completed"), "states seen: {states:?}");
    assert!(
        frames.iter().any(|f| f.get("Progress").is_some()),
        "no progress frame"
    );

    let incidents: Vec<&serde::Value> = frames.iter().filter_map(|f| f.get("Incident")).collect();
    assert_eq!(incidents.len(), 1, "expected exactly one incident");
    let inc = incidents[0];
    assert_eq!(inc.get("id").and_then(serde::Value::as_u64), Some(0));
    let subject = inc
        .get("subject")
        .and_then(serde::Value::as_str)
        .expect("subject");
    assert!(
        subject.contains("Transient"),
        "subject should name the fault class: {subject}"
    );
    let delivery = inc
        .get("delivery")
        .and_then(serde::Value::as_str)
        .expect("delivery");
    assert!(!delivery.is_empty());
    // Checker ids, when any fired, use Table-1 numbering and arrive
    // deduped ascending.
    if let Some(serde::Value::Array(checkers)) = inc.get("checkers") {
        let ids: Vec<u64> = checkers.iter().filter_map(serde::Value::as_u64).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "checkers not ascending: {ids:?}"
        );
        assert!(
            ids.iter().all(|&c| (1..=32).contains(&c)),
            "bad checker id: {ids:?}"
        );
    }

    // The durable result repeats the same incident list (served from
    // result.json once the job is terminal).
    wait_completed(&server.addr, &id, Duration::from_secs(60));
    let result = result_json(&server.addr, &id);
    let stored = result.get("incidents").expect("incidents in result");
    let streamed = serde::Value::Array(incidents.into_iter().cloned().collect());
    assert_eq!(
        stored, &streamed,
        "stored incidents diverged from streamed ones"
    );
}

/// Hostile input: a header line that never ends gets a 431 answer, and
/// the daemon keeps serving.
#[test]
fn oversized_header_is_refused_and_the_daemon_survives() {
    use std::io::{Read, Write};
    let data_dir = temp_dir("headers");
    let server = Server::start(&data_dir, "only");
    let mut stream = std::net::TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // A header line exactly at the cap and without its newline: the
    // server has read everything sent when it refuses, so it closes
    // cleanly and the reply is not lost to a reset.
    let name = b"X-Big: ";
    let mut head = b"GET /healthz HTTP/1.1\r\n".to_vec();
    head.extend_from_slice(name);
    head.resize(head.len() + http::MAX_HEADER_LINE - name.len(), b'a');
    stream.write_all(&head).expect("write head");
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("HTTP/1.1 431 "),
        "unexpected reply: {reply}"
    );
    let (status, body) = http::request(&server.addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok"));
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn deeply_nested_body_is_refused_and_the_daemon_survives() {
    let data_dir = temp_dir("nested");
    let server = Server::start(&data_dir, "only");
    // Far under `MAX_BODY`, far past the parser's nesting cap.
    let body = "[".repeat(10_000);
    let (status, detail) =
        http::request(&server.addr, "POST", "/jobs", Some(&body)).expect("nested submit");
    assert_eq!(status, 400, "{detail}");
    assert!(detail.contains("nesting"), "{detail}");
    let (status, body) = http::request(&server.addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok"));
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn connections_past_the_bound_are_shed_with_503() {
    use nocalert_service::server::MAX_CONNECTIONS;
    use std::io::Read;
    use std::net::{Shutdown, TcpStream};
    let data_dir = temp_dir("flood");
    let server = Server::start(&data_dir, "only");
    let connect = || {
        let stream = TcpStream::connect(&server.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
    };
    // Idle connections, each holding a connection thread. The accept
    // loop takes connections in order, so all of them hold a slot by the
    // time it reaches the next one.
    let held: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| connect()).collect();
    let mut reply = String::new();
    connect().read_to_string(&mut reply).expect("shed reply");
    assert!(
        reply.starts_with("HTTP/1.1 503 "),
        "unexpected reply: {reply}"
    );
    assert!(reply.contains("\r\nRetry-After: 1\r\n"), "{reply}");
    // Each held connection ends its (empty) request; the server frees
    // the slot before it closes, so once every close is seen the pool
    // is empty again.
    for mut stream in held {
        stream.shutdown(Shutdown::Write).expect("shutdown");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("held reply");
        assert!(rest.starts_with("HTTP/1.1 400 "), "{rest}");
    }
    let (status, body) = http::request(&server.addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok"));
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}
