//! `nocalertd` — the campaign service daemon and its thin CLI client.
//!
//! ```text
//! # Serve (writes the bound address to --addr-file when binding port 0):
//! nocalertd serve --data-dir DIR [--addr 127.0.0.1:0] [--workers N] [--addr-file PATH]
//!
//! # Client verbs (all take --addr HOST:PORT):
//! nocalertd submit --addr A (--spec JSON | --spec-file PATH)   # prints the job id
//! nocalertd wait   --addr A --job ID [--timeout-secs S]        # exit 0 iff Completed
//! nocalertd events --addr A --job ID                           # prints the SSE feed
//! nocalertd cancel --addr A --job ID
//! nocalertd status --addr A [--job ID]
//! ```
//!
//! The client side exists so the CI smoke and scripts need nothing but
//! this binary; any HTTP client (`curl` included) speaks the same
//! routes.

use nocalert_service::{http, Server, ServerOptions};
use serde::Value;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fail(msg: &str) -> ! {
    eprintln!("[nocalertd] fatal: {msg}");
    std::process::exit(2);
}

/// `--key value` / `--flag` argument map with one leading positional
/// (the command verb).
struct Args {
    verb: String,
    map: HashMap<String, String>,
}

impl Args {
    fn from_env() -> Args {
        let mut it = std::env::args().skip(1).peekable();
        let verb = it.next().unwrap_or_default();
        let mut map = HashMap::new();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let val = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
                    _ => String::from("true"),
                };
                map.insert(key.to_string(), val);
            }
        }
        Args { verb, map }
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    fn required(&self, key: &str) -> &str {
        match self.str(key) {
            Some(v) => v,
            None => fail(&format!("missing required --{key}")),
        }
    }

    /// `default` when `key` is absent; an error naming the key and value
    /// when it is present but does not parse.
    fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// [`Args::try_get`], exiting with status 2 on a malformed value.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|e| {
            eprintln!("[args] {e}");
            std::process::exit(2);
        })
    }
}

fn serve(args: &Args) -> i32 {
    let opts = ServerOptions {
        addr: args.get("addr", String::from("127.0.0.1:0")),
        data_dir: PathBuf::from(args.required("data-dir")),
        workers: args.get("workers", 2usize),
    };
    let server = match Server::bind(&opts) {
        Ok(s) => s,
        Err(e) => fail(&format!("bind {}: {e}", opts.addr)),
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => fail(&format!("local_addr: {e}")),
    };
    if let Some(path) = args.str("addr-file") {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            fail(&format!("cannot write {path}: {e}"));
        }
    }
    println!(
        "[nocalertd] listening on {addr}, data dir {}",
        opts.data_dir.display()
    );
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("[nocalertd] server error: {e}");
            1
        }
    }
}

/// Parses a JSON response body, failing loudly on protocol violations.
fn parse(body: &str, ctx: &str) -> Value {
    match Value::parse_json(body) {
        Ok(v) => v,
        Err(e) => fail(&format!("{ctx}: unparseable response ({e}): {body}")),
    }
}

fn submit(args: &Args) -> i32 {
    let addr = args.required("addr");
    let spec = match (args.str("spec"), args.str("spec-file")) {
        (Some(s), _) => s.to_string(),
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => fail(&format!("cannot read {path}: {e}")),
        },
        (None, None) => fail("submit needs --spec JSON or --spec-file PATH"),
    };
    match http::request(addr, "POST", "/jobs", Some(&spec)) {
        Ok((201, body)) => {
            let doc = parse(&body, "submit");
            match doc.get("id").and_then(Value::as_str) {
                Some(id) => {
                    println!("{id}");
                    0
                }
                None => fail(&format!("submit: no id in response: {body}")),
            }
        }
        Ok((status, body)) => fail(&format!("submit rejected ({status}): {body}")),
        Err(e) => fail(&format!("submit: {e}")),
    }
}

fn wait(args: &Args) -> i32 {
    let addr = args.required("addr");
    let job = args.required("job");
    let deadline = Instant::now() + Duration::from_secs(args.get("timeout-secs", 600u64));
    loop {
        let (status, body) = match http::request(addr, "GET", &format!("/jobs/{job}"), None) {
            Ok(r) => r,
            Err(e) => fail(&format!("wait: {e}")),
        };
        if status != 200 {
            fail(&format!("wait: /jobs/{job} -> {status}: {body}"));
        }
        let doc = parse(&body, "wait");
        let state = doc
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        match state.as_str() {
            "Completed" => {
                if let Ok((200, result)) =
                    http::request(addr, "GET", &format!("/jobs/{job}/result"), None)
                {
                    let rdoc = parse(&result, "wait");
                    let digest = rdoc.get("digest").and_then(Value::as_str).unwrap_or("?");
                    let summary = rdoc.get("summary").and_then(Value::as_str).unwrap_or("?");
                    println!("{job} Completed digest={digest} :: {summary}");
                } else {
                    println!("{job} Completed");
                }
                return 0;
            }
            "Failed" | "Cancelled" => {
                eprintln!("[nocalertd] {job} ended {state}: {body}");
                return 1;
            }
            _ => {}
        }
        if Instant::now() >= deadline {
            eprintln!("[nocalertd] timed out waiting for {job} (last state {state})");
            return 3;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn events(args: &Args) -> i32 {
    let addr = args.required("addr");
    let job = args.required("job");
    let mut out = std::io::stdout().lock();
    let mut write_err = None;
    let path = format!("/jobs/{job}/events");
    let outcome = http::stream_events(addr, &path, &mut |data| {
        writeln!(out, "{data}")
            .map_err(|e| write_err = Some(e))
            .is_ok()
    });
    // A reader that stops early (`| head -n 1`) closes the pipe: that
    // ends the feed, it is not a failure.
    match (write_err, outcome) {
        (None, Ok(())) => 0,
        (Some(e), _) if e.kind() == ErrorKind::BrokenPipe => 0,
        (Some(e), _) | (None, Err(e)) => {
            eprintln!("[nocalertd] events: {e}");
            1
        }
    }
}

fn cancel(args: &Args) -> i32 {
    let addr = args.required("addr");
    let job = args.required("job");
    match http::request(addr, "POST", &format!("/jobs/{job}/cancel"), None) {
        Ok((200, body)) => {
            println!("{body}");
            0
        }
        Ok((status, body)) => fail(&format!("cancel rejected ({status}): {body}")),
        Err(e) => fail(&format!("cancel: {e}")),
    }
}

fn status(args: &Args) -> i32 {
    let addr = args.required("addr");
    let path = match args.str("job") {
        Some(id) => format!("/jobs/{id}"),
        None => String::from("/jobs"),
    };
    match http::request(addr, "GET", &path, None) {
        Ok((200, body)) => {
            println!("{body}");
            0
        }
        Ok((status, body)) => fail(&format!("status ({status}): {body}")),
        Err(e) => fail(&format!("status: {e}")),
    }
}

fn main() {
    let args = Args::from_env();
    let code = match args.verb.as_str() {
        "serve" => serve(&args),
        "submit" => submit(&args),
        "wait" => wait(&args),
        "events" => events(&args),
        "cancel" => cancel(&args),
        "status" => status(&args),
        other => {
            eprintln!(
                "[nocalertd] unknown command {other:?}; expected serve|submit|wait|events|cancel|status"
            );
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        let mut map = HashMap::new();
        map.insert("workers".to_string(), "2x".to_string());
        map.insert("timeout-secs".to_string(), "5m".to_string());
        map.insert("addr".to_string(), "127.0.0.1:9".to_string());
        let args = Args {
            verb: String::from("serve"),
            map,
        };
        assert_eq!(
            args.try_get("workers", 2usize),
            Err(String::from("--workers: cannot parse \"2x\""))
        );
        assert_eq!(
            args.try_get("timeout-secs", 600u64),
            Err(String::from("--timeout-secs: cannot parse \"5m\""))
        );
        assert_eq!(args.try_get("absent", 7u32), Ok(7));
        assert_eq!(args.get("addr", String::new()), "127.0.0.1:9");
    }
}
