//! The `nocalertd` server: HTTP routing, the worker pool, and the SSE
//! incident feed.
//!
//! Routes:
//!
//! | Method | Path                  | Body / response                      |
//! |--------|-----------------------|--------------------------------------|
//! | GET    | `/healthz`            | `ok`                                 |
//! | POST   | `/jobs`               | [`JobSpec`] → [`JobStatus`] (201)    |
//! | GET    | `/jobs`               | `[JobStatus, …]`                     |
//! | GET    | `/jobs/<id>`          | [`JobStatus`]                        |
//! | GET    | `/jobs/<id>/result`   | [`JobResult`] (404 until complete)   |
//! | GET    | `/jobs/<id>/incidents`| `[Incident, …]` observed so far      |
//! | GET    | `/jobs/<id>/events`   | SSE feed of [`JobEvent`]s            |
//! | POST   | `/jobs/<id>/cancel`   | [`JobStatus`]                        |
//!
//! The worker pool drains a FIFO of queued job ids. Each worker builds
//! a [`JobDriver`] rooted at the job's `checkpoint/` directory — with
//! resume enabled for jobs recovered after a restart — and relays the
//! driver's events into the job's feed, which SSE consumers tail. The
//! pool size bounds *jobs in flight*; each job additionally shards its
//! own campaign across `spec.threads` rollout workers. Connections are
//! served one thread each, at most [`MAX_CONNECTIONS`] at once.
//!
//! [`JobStatus`]: noc_types::JobStatus
//! [`JobResult`]: noc_types::JobResult

use golden::{GoldenCache, JobDriver};
use noc_types::{JobEvent, JobSpec, JobState};
use serde::Serialize;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

use crate::http;
use crate::registry::{JobHandle, Registry};

/// Serializes any compat-serde value to a JSON string (infallibly —
/// the compat serializer is total).
fn json_of<T: Serialize>(v: &T) -> String {
    let mut out = String::new();
    v.to_value().write_json(&mut out);
    out
}

fn json_list<T: Serialize>(items: &[T]) -> String {
    let values: Vec<serde::Value> = items.iter().map(|i| i.to_value()).collect();
    json_of(&serde::Value::Array(values))
}

/// Connection threads that may be live at once. Past this the accept
/// loop answers `503` itself and closes the connection, so a flood of
/// idle clients cannot make the daemon spawn without bound.
pub const MAX_CONNECTIONS: usize = 64;

/// One live connection thread, counted in a shared gauge while it exists.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// FIFO of queued job ids, shared between the accept loop and the
/// worker pool.
#[derive(Debug, Default)]
struct JobQueue {
    queue: Mutex<VecDeque<String>>,
    cond: Condvar,
}

impl JobQueue {
    fn push(&self, id: String) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(id);
        self.cond.notify_one();
    }

    fn pop_blocking(&self) -> String {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(id) = queue.pop_front() {
                return id;
            }
            queue = self
                .cond
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Durable state root; jobs live under `<data_dir>/jobs/`.
    pub data_dir: PathBuf,
    /// Worker-pool size: jobs executed concurrently.
    pub workers: usize,
}

/// A bound (but not yet serving) `nocalertd` instance.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    queue: Arc<JobQueue>,
    cache: Arc<GoldenCache>,
    workers: usize,
}

impl Server {
    /// Binds the listener, opens the registry, and re-enqueues every
    /// job a previous process left non-terminal (those jobs run with
    /// resume enabled, restoring completed units from their shards).
    ///
    /// # Errors
    ///
    /// Bind failures and registry I/O failures.
    pub fn bind(opts: &ServerOptions) -> io::Result<Server> {
        let (registry, pending) = Registry::open(&opts.data_dir)?;
        let listener = TcpListener::bind(&opts.addr)?;
        let queue = Arc::new(JobQueue::default());
        for id in pending {
            eprintln!("[nocalertd] re-enqueueing recovered job {id}");
            queue.push(id);
        }
        Ok(Server {
            listener,
            registry: Arc::new(registry),
            queue,
            cache: Arc::new(GoldenCache::new()),
            workers: opts.workers.max(1),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the worker pool and serves connections forever, each on a
    /// thread of its own, at most [`MAX_CONNECTIONS`] at once; the
    /// accept loop sheds the rest with a `503`.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop failures (per-connection errors are logged
    /// and absorbed).
    pub fn run(self) -> io::Result<()> {
        for _ in 0..self.workers {
            let registry = Arc::clone(&self.registry);
            let queue = Arc::clone(&self.queue);
            let cache = Arc::clone(&self.cache);
            thread::spawn(move || loop {
                let id = queue.pop_blocking();
                run_job(&registry, &cache, &id);
            });
        }
        // Only this loop increments the gauge, so a load below the cap
        // cannot be overtaken before the increment.
        let live = Arc::new(AtomicUsize::new(0));
        for stream in self.listener.incoming() {
            match stream {
                Ok(mut stream) if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS => {
                    let detail = format!("{MAX_CONNECTIONS} connections already open");
                    if let Err(e) = http::respond_unavailable(&mut stream, &detail) {
                        eprintln!("[nocalertd] shed connection: {e}");
                    }
                }
                Ok(mut stream) => {
                    live.fetch_add(1, Ordering::SeqCst);
                    let slot = ConnectionSlot(Arc::clone(&live));
                    let registry = Arc::clone(&self.registry);
                    let queue = Arc::clone(&self.queue);
                    thread::spawn(move || {
                        let served = handle_connection(&registry, &queue, &mut stream);
                        // Free the slot before the stream closes: a client
                        // that has seen the close finds the slot free.
                        drop(slot);
                        if let Err(e) = served {
                            eprintln!("[nocalertd] connection error: {e}");
                        }
                    });
                }
                Err(e) => eprintln!("[nocalertd] accept error: {e}"),
            }
        }
        Ok(())
    }
}

/// Executes one job end to end, relaying driver events into the feed
/// and persisting every lifecycle transition.
fn run_job(registry: &Registry, cache: &Arc<GoldenCache>, id: &str) {
    let Some(handle) = registry.get(id) else {
        eprintln!("[nocalertd] dequeued unknown job {id}");
        return;
    };
    // A cancel that raced the queue: honour it without running.
    if handle.state().terminal() {
        return;
    }
    handle.set_state(JobState::Running, None);
    if let Err(e) = registry.persist(id) {
        eprintln!("[nocalertd] persist({id}): {e}");
    }
    let driver = JobDriver {
        checkpoint_dir: Some(registry.job_dir(id).join("checkpoint")),
        resume: handle.recovered,
        cancel: Some(Arc::clone(&handle.cancel)),
        cache: Arc::clone(cache),
    };
    let feed_handle = Arc::clone(&handle);
    let outcome = driver.run(&handle.spec, &mut |event: JobEvent| {
        feed_handle.push_event(event);
    });
    match outcome {
        Ok(result) => {
            let state = if result.interrupted {
                JobState::Cancelled
            } else {
                JobState::Completed
            };
            if let Err(e) = registry.write_result(id, &result) {
                eprintln!("[nocalertd] write_result({id}): {e}");
                handle.set_state(JobState::Failed, Some(format!("result persist: {e}")));
            } else {
                handle.set_state(state, None);
            }
        }
        Err(e) => {
            handle.set_state(JobState::Failed, Some(e.to_string()));
        }
    }
    if let Err(e) = registry.persist(id) {
        eprintln!("[nocalertd] persist({id}): {e}");
    }
}

fn handle_connection(
    registry: &Registry,
    queue: &JobQueue,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let request = match http::read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            return http::respond_error(stream, e.status, e.reason, &e.detail);
        }
    };
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => http::respond(stream, 200, "OK", "text/plain", "ok"),
        ("POST", ["jobs"]) => submit(registry, queue, stream, &request.body),
        ("GET", ["jobs"]) => http::respond_json(stream, 200, "OK", &json_list(&registry.list())),
        ("GET", ["jobs", id]) => with_job(registry, stream, id, |stream, handle| {
            http::respond_json(stream, 200, "OK", &json_of(&handle.status()))
        }),
        ("GET", ["jobs", id, "result"]) => with_job(registry, stream, id, |stream, handle| {
            match registry.read_result(&handle.id) {
                Ok(Some(result)) => http::respond_json(stream, 200, "OK", &json_of(&result)),
                Ok(None) => http::respond_error(stream, 404, "Not Found", "no result yet"),
                Err(e) => http::respond_error(stream, 500, "Internal Server Error", &e.to_string()),
            }
        }),
        ("GET", ["jobs", id, "incidents"]) => with_job(registry, stream, id, |stream, handle| {
            let incidents = incidents_of(registry, handle);
            http::respond_json(stream, 200, "OK", &json_list(&incidents))
        }),
        ("GET", ["jobs", id, "events"]) => with_job(registry, stream, id, |stream, handle| {
            stream_feed(registry, stream, handle)
        }),
        ("POST", ["jobs", id, "cancel"]) => {
            with_job(registry, stream, id, |stream, handle| {
                handle.cancel.store(true, Ordering::Relaxed);
                // A job still in the queue will observe the terminal
                // state at dequeue and be skipped; a running job's
                // driver stops at the next chunk boundary.
                if handle.state() == JobState::Queued {
                    handle.set_state(JobState::Cancelled, None);
                }
                if let Err(e) = registry.persist(&handle.id) {
                    eprintln!("[nocalertd] persist({}): {e}", handle.id);
                }
                http::respond_json(stream, 200, "OK", &json_of(&handle.status()))
            })
        }
        _ => http::respond_error(stream, 404, "Not Found", "unknown route"),
    }
}

fn with_job(
    registry: &Registry,
    stream: &mut TcpStream,
    id: &str,
    body: impl FnOnce(&mut TcpStream, &Arc<JobHandle>) -> io::Result<()>,
) -> io::Result<()> {
    match registry.get(id) {
        Some(handle) => body(stream, &handle),
        None => http::respond_error(stream, 404, "Not Found", &format!("no job {id}")),
    }
}

fn submit(
    registry: &Registry,
    queue: &JobQueue,
    stream: &mut TcpStream,
    body: &str,
) -> io::Result<()> {
    let spec: JobSpec = match serde_json::from_str(body) {
        Ok(s) => s,
        Err(e) => {
            return http::respond_error(stream, 400, "Bad Request", &format!("bad spec: {e}"));
        }
    };
    if let Err(e) = spec.validate() {
        return http::respond_error(stream, 400, "Bad Request", &format!("invalid spec: {e}"));
    }
    let handle = match registry.create(spec) {
        Ok(h) => h,
        Err(e) => {
            return http::respond_error(stream, 500, "Internal Server Error", &e.to_string());
        }
    };
    queue.push(handle.id.clone());
    http::respond_json(stream, 201, "Created", &json_of(&handle.status()))
}

/// The incidents observable right now: the live feed's incident events
/// while the job runs, or the durable result's list once it has one
/// (covering completed jobs reloaded after a restart, whose in-memory
/// feed starts empty).
fn incidents_of(registry: &Registry, handle: &Arc<JobHandle>) -> Vec<noc_types::Incident> {
    if let Ok(Some(result)) = registry.read_result(&handle.id) {
        return result.incidents;
    }
    handle
        .events_snapshot()
        .into_iter()
        .filter_map(|e| match e {
            JobEvent::Incident(i) => Some(i),
            _ => None,
        })
        .collect()
}

/// Tails a job's feed as SSE frames until the job is terminal and the
/// feed is drained, then emits `event: done` and closes.
///
/// For a terminal job whose in-memory feed is empty (reloaded after a
/// restart), the frames are synthesized from the durable record: the
/// final state plus every stored incident.
fn stream_feed(
    registry: &Registry,
    stream: &mut TcpStream,
    handle: &Arc<JobHandle>,
) -> io::Result<()> {
    http::sse_preamble(stream)?;
    let (initial, drained) = handle.wait_events(0);
    if initial.is_empty() && drained {
        if let Ok(Some(result)) = registry.read_result(&handle.id) {
            http::sse_event(stream, None, &json_of(&JobEvent::State(handle.state())))?;
            for incident in result.incidents {
                http::sse_event(stream, None, &json_of(&JobEvent::Incident(incident)))?;
            }
        }
        return http::sse_event(stream, Some("done"), "{}");
    }
    let mut cursor = 0usize;
    loop {
        let (events, drained) = handle.wait_events(cursor);
        cursor += events.len();
        for event in events {
            http::sse_event(stream, None, &json_of(&event))?;
        }
        if drained {
            return http::sse_event(stream, Some("done"), "{}");
        }
    }
}
