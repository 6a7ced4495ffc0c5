//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into each
//! layer's public entry points; the program under test is not
//! instrumented. A span's name is `<layer>.<operation>`, where the layer
//! is a workspace crate (`noc-sim`, `fault`, `golden`, `service`) or
//! `bench` for the benchmark's own phases. Spans of one unit of work (a
//! job, a probe) share a unit id. Nothing is recorded unless [`enable`]
//! was called, so the untraced run pays one atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub unit: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, u64, String, u64)>,
}

/// Opens a span named `name` for unit `unit` under this thread's
/// innermost open span.
pub fn span(name: impl Into<String>, unit: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, unit, name.into(), now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, unit, name, start_ns)) = self.open.take() {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.truncate(pos);
                }
            });
            let span = Span {
                id,
                parent,
                unit,
                name,
                start_ns,
                end_ns: now_ns(),
            };
            SPANS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(span);
        }
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it that its children cover (children may overlap one another when
/// they run on different threads, so their union is subtracted).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer().to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.unit,
            s.name.replace('\\', "\\\\").replace('"', "\\\""),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
