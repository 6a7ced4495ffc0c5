//! Hostile-input test of the HTTP request parser: seeded byte mutations
//! of the requests `nocalertd` serves, each sent over a loopback
//! connection to [`http::read_request`], must come back as a request
//! within the body cap or as a 400, 413 or 431 error, never a panic, and
//! each of the three errors must occur.
//!
//! The mutator is the fixed-seed splitmix64 stream of the workspace's
//! `tests/hostile_input.rs` (any byte value; bit flip, insert, delete,
//! duplicate and truncate edits, plus two that reach the caps: a header
//! line repeated past [`MAX_HEADER_LINE`] and a `Content-Length` above
//! [`MAX_BODY`]), so every run checks the same cases and a failure names
//! a reproducible case number.

use nocalert_service::http::{self, MAX_BODY, MAX_HEADER_LINE};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated cases.
const CASES: usize = 5_000;

/// The canonical 4×4 transient job spec of `ci.sh`'s service smoke.
const CI_SPEC: &str = r#"{"kind":"Transient","noc":{"mesh":{"width":4,"height":4},"vcs_per_port":2,"buffer_depth":5,"link_width_bits":128,"message_classes":1,"packet_lengths":[5],"buffer_policy":"Atomic","routing":"XY","speculative":false,"traffic":"UniformRandom","injection_rate":0.05,"hotspot_fraction":0.2,"ejection_rate":1,"seed":201986535},"warmup":200,"window":1200,"limit":1,"threads":1}"#;

/// Bytes that mean something to a JSON parser, favoured by inserts.
const JSON_BYTES: &[u8] = b"{}[]\":,-+.0123456789eE \n\\tfnu";

/// The seed corpus: one request per route the CI smoke drives.
fn seeds() -> Vec<Vec<u8>> {
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let get = |path: &str, accept: &str| {
        format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: {accept}\r\nConnection: close\r\n\r\n")
    };
    [
        get("/healthz", "*/*"),
        post("/jobs", CI_SPEC),
        get("/jobs/job-0001/events", "text/event-stream"),
        post("/jobs/job-0001/cancel", ""),
        get("/jobs/job-0001/result", "application/json"),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

/// A deterministic byte mutator.
struct Mutator {
    state: u64,
}

impl Mutator {
    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        if self.below(2) == 0 {
            JSON_BYTES[self.below(JSON_BYTES.len())]
        } else {
            self.below(0x100) as u8
        }
    }

    /// `seed` after one to four random edits.
    fn mutate(&mut self, seed: &[u8]) -> Vec<u8> {
        let mut b = seed.to_vec();
        for _ in 0..=self.below(4) {
            self.edit(&mut b);
        }
        b
    }

    fn edit(&mut self, b: &mut Vec<u8>) {
        let len = b.len();
        match self.below(7) {
            // Bit flip.
            0 if len > 0 => {
                let i = self.below(len);
                b[i] ^= 1 << self.below(8);
            }
            // Insert a run of bytes, or of digits (number overflow).
            1 => {
                let at = self.below(len + 1);
                let run: Vec<u8> = if self.below(3) == 0 {
                    (0..=self.below(24))
                        .map(|_| b'0' + self.below(10) as u8)
                        .collect()
                } else {
                    (0..=self.below(8)).map(|_| self.byte()).collect()
                };
                b.splice(at..at, run);
            }
            // Delete a range.
            2 if len > 0 => {
                let at = self.below(len);
                let end = (at + 1 + self.below(16)).min(len);
                b.drain(at..end);
            }
            // Duplicate a range, right behind itself or anywhere.
            3 if len > 0 => {
                let at = self.below(len);
                let end = (at + 1 + self.below(64)).min(len);
                let copy = b[at..end].to_vec();
                let to = if self.below(2) == 0 {
                    end
                } else {
                    self.below(len + 1)
                };
                b.splice(to..to, copy);
            }
            // Repeat a line of the head until it is longer than the
            // header-line cap.
            4 => {
                let head_end = find(b, b"\r\n\r\n").unwrap_or(len);
                let at = self.below(head_end + 1);
                let start = b[..at]
                    .iter()
                    .rposition(|&c| c == b'\n')
                    .map_or(0, |i| i + 1);
                let end = b[start..]
                    .iter()
                    .position(|&c| c == b'\r' || c == b'\n')
                    .map_or(len, |i| start + i);
                let line = if start < end {
                    b[start..end].to_vec()
                } else {
                    b"X-Pad: x".to_vec()
                };
                b.splice(end..end, line.repeat(MAX_HEADER_LINE / line.len() + 1));
            }
            // Declare a body over the cap: rewrite the `Content-Length`
            // value, or add the header after the request line.
            5 => {
                let header = format!("Content-Length: {}", MAX_BODY + 1 + self.below(MAX_BODY));
                match find(b, b"Content-Length:") {
                    Some(at) => {
                        let end = b[at..]
                            .iter()
                            .position(|&c| c == b'\r' || c == b'\n')
                            .map_or(len, |i| at + i);
                        b.splice(at..end, header.into_bytes());
                    }
                    None => {
                        let at = b.iter().position(|&c| c == b'\n').map_or(0, |i| i + 1);
                        b.splice(at..at, format!("{header}\r\n").into_bytes());
                    }
                }
            }
            // Truncate.
            _ => b.truncate(self.below(len + 1)),
        }
    }
}

/// Offset of the first occurrence of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[test]
fn mutated_requests_parse_or_fail_with_a_4xx_never_panic() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    // Sends `bytes` and half-closes, so a short body ends at EOF instead
    // of waiting out the parser's read timeout; returns what the parser
    // made of it.
    let send = |bytes: &[u8]| {
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(bytes).expect("write");
        client.shutdown(Shutdown::Write).expect("half-close");
        let (server, _) = listener.accept().expect("accept");
        catch_unwind(AssertUnwindSafe(|| http::read_request(&server)))
    };

    let seeds = seeds();
    for (i, seed) in seeds.iter().enumerate() {
        assert!(matches!(send(seed), Ok(Ok(_))), "seed {i} must parse");
    }
    let mut m = Mutator { state: 0x5EED_0003 };
    let mut parsed = 0;
    let mut statuses = std::collections::BTreeMap::<u16, usize>::new();
    for case in 0..CASES {
        let bytes = m.mutate(&seeds[case % seeds.len()]);
        let input = || String::from_utf8_lossy(&bytes).into_owned();
        match send(&bytes) {
            Err(_) => panic!("case {case} panicked on input {:?}", input()),
            Ok(Ok(req)) => {
                assert!(req.body.len() <= MAX_BODY, "case {case}: body over the cap");
                parsed += 1;
            }
            Ok(Err(e)) => {
                assert!(
                    [400, 413, 431].contains(&e.status),
                    "case {case}: {e} on input {:?}",
                    input()
                );
                *statuses.entry(e.status).or_default() += 1;
            }
        }
    }
    // Both outcomes occur, so the sample reaches past the first byte, and
    // every error status occurs, so the caps are exercised.
    assert!(0 < parsed && parsed < CASES, "{parsed} of {CASES}");
    assert_eq!(
        statuses.keys().copied().collect::<Vec<_>>(),
        [400, 413, 431],
        "{statuses:?}"
    );
}
