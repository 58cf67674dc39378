//! The serve layer end to end, over real sockets: concurrent clients
//! submitting overlapping sweeps get byte-identical output to a
//! sequential run with every grid point computed exactly once;
//! submissions are validated up front; results are fetchable by
//! content address; and a mid-sweep graceful drain leaves a journal
//! that resumes to the uninterrupted answer.

use mramsim_engine::serve::{ServeConfig, Server};
use mramsim_engine::{Engine, SweepJournal, SweepPlan};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mramsim-serve-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A minimal blocking HTTP/1.1 client: one request per connection
/// (the server always answers `Connection: close`), chunked bodies
/// transparently decoded. Returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(payload)
    } else {
        payload.to_owned()
    };
    (status, body)
}

fn dechunk(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    while let Some((size, tail)) = rest.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size.trim(), 16) else {
            break;
        };
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
    out
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path, "")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(addr, "POST", path, body)
}

/// Pulls a `"name":"value"` or `"name":value` field out of a JSON
/// line without a parser — the serve wire format is flat.
fn field(json: &str, name: &str) -> String {
    let key = format!("\"{name}\":");
    let start = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"))
        + key.len();
    let rest = &json[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = stripped.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some(other) => out.push(other),
                    None => break,
                },
                other => out.push(other),
            }
        }
        out
    } else {
        rest.chars()
            .take_while(|c| !",}".contains(*c))
            .collect::<String>()
            .trim()
            .to_owned()
    }
}

/// Binds a server over `engine` on a free port and runs it on a
/// background thread; the thread exits on graceful shutdown.
fn spawn_server(
    engine: Arc<Engine>,
    cache_dir: Option<PathBuf>,
    max_inflight: usize,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_inflight,
        cache_dir,
    };
    let server = Server::bind(engine, &config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Submits a plan and streams its progress to completion, returning
/// (final summary line, progress lines before it).
fn submit_and_stream(addr: SocketAddr, body: &str) -> (String, Vec<String>) {
    let (status, response) = post(addr, "/sweeps", body);
    assert!(
        status == 202 || status == 200,
        "submit failed: {status} {response}"
    );
    let progress = field(&response, "progress");
    let (status, streamed) = get(addr, &progress);
    assert_eq!(status, 200, "progress stream failed: {streamed}");
    let mut lines: Vec<String> = streamed.lines().map(str::to_owned).collect();
    let last = lines.pop().expect("at least the summary line");
    (last, lines)
}

const OVERLAP_PLAN: &str = r#"{"scenario":"fig4b","params":{"ecd":35},"axes":{"pitch":[60,80,100,120,140,160,180,200,220]}}"#;

fn overlap_plan() -> SweepPlan {
    SweepPlan::new("fig4b").fix("ecd", 35.0).axis(
        "pitch",
        (0..9).map(|i| 60.0 + 20.0 * f64::from(i)).collect(),
    )
}

#[test]
fn concurrent_clients_get_sequential_bytes_with_one_computation() {
    let dir = TempDir::new("concurrent");
    let engine = Arc::new(
        Engine::standard()
            .with_workers(2)
            .with_disk_cache(&dir.0)
            .unwrap(),
    );
    let (addr, server) = spawn_server(Arc::clone(&engine), Some(dir.0.clone()), 8);

    // The ground truth: the same plan, swept sequentially by an
    // isolated engine that shares nothing with the server.
    let baseline = Engine::standard()
        .with_workers(1)
        .sweep(&overlap_plan())
        .unwrap()
        .summary_table()
        .to_csv();

    // Four clients race the same sweep. Whoever lands first computes;
    // the others join the in-flight run or are served warm.
    let clients: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || submit_and_stream(addr, OVERLAP_PLAN)))
        .collect();
    for client in clients {
        let (last, _events) = client.join().expect("client thread");
        assert_eq!(field(&last, "status"), "done", "summary: {last}");
        assert_eq!(field(&last, "errors"), "0");
        assert_eq!(field(&last, "skipped"), "0");
        assert_eq!(field(&last, "csv"), baseline, "served CSV diverged");
    }

    // Exactly-once accounting: the shared engine persisted each of the
    // nine grid points exactly once, no matter how many clients asked.
    assert_eq!(engine.disk_stats().unwrap().writes, 9);

    // The results are content-addressed: re-fetch one by the key the
    // progress stream advertised.
    let (last, events) = submit_and_stream(addr, OVERLAP_PLAN);
    assert_eq!(field(&last, "cache_hits"), "9", "warm resubmit");
    let key = field(&events[0], "key");
    let (status, body) = get(addr, &format!("/results/{key}"));
    assert_eq!(status, 200, "result fetch: {body}");
    assert!(body.contains("psi_percent"), "payload: {body}");

    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server thread");
}

#[test]
fn submissions_are_validated_and_admission_is_bounded() {
    let dir = TempDir::new("validate");
    let engine = Arc::new(
        Engine::standard()
            .with_workers(1)
            .with_disk_cache(&dir.0)
            .unwrap(),
    );
    let (addr, server) = spawn_server(engine, Some(dir.0.clone()), 1);

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "status"), "ok");

    // Up-front validation: unknown scenario, unknown parameter,
    // malformed JSON, axes routed to the wrong endpoint.
    let cases = [
        ("/sweeps", r#"{"scenario":"nope","axes":{"pitch":[1]}}"#),
        ("/sweeps", r#"{"scenario":"fig4b","axes":{"bogus":[1]}}"#),
        ("/sweeps", "not json"),
        ("/sweeps", r#"{"scenario":"fig4b"}"#),
        ("/runs", r#"{"scenario":"fig4b","axes":{"pitch":[90]}}"#),
    ];
    for (path, bad) in cases {
        let (status, body) = post(addr, path, bad);
        assert_eq!(status, 400, "{path} {bad} -> {body}");
    }
    // Rejected submissions must not leave resumable-looking journal
    // debris behind.
    let runs = dir.0.join("runs");
    assert!(
        !runs.exists() || fs::read_dir(&runs).unwrap().next().is_none(),
        "invalid submissions must not create journals"
    );
    let (status, _) = get(addr, "/runs/j999");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/results/zzzz");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/results/00000000000000ff");
    assert_eq!(status, 404);

    // A single-point /runs submission flows through the same job
    // machinery: one streamed event, then a done summary.
    let (status, response) = post(
        addr,
        "/runs",
        r#"{"scenario":"fig4b","params":{"pitch":90}}"#,
    );
    assert_eq!(status, 202, "{response}");
    let (status, streamed) = get(addr, &field(&response, "progress"));
    assert_eq!(status, 200);
    let lines: Vec<&str> = streamed.lines().collect();
    assert_eq!(lines.len(), 2, "one event + summary: {streamed}");
    assert_eq!(field(lines[1], "status"), "done");
    assert_eq!(field(lines[1], "jobs"), "1");

    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server thread");
}

#[test]
fn a_run_locked_by_another_owner_is_a_conflict_and_creates_no_job() {
    let dir = TempDir::new("conflict");
    let engine = Arc::new(
        Engine::standard()
            .with_workers(1)
            .with_disk_cache(&dir.0)
            .unwrap(),
    );
    let (addr, server) = spawn_server(engine, Some(dir.0.clone()), 1);

    // Another owner holds the run lock of the plan about to be
    // submitted: the submission is refused with 409 naming the run,
    // and neither a job nor an admission slot is left behind.
    let run_id = SweepJournal::run_id(&overlap_plan());
    let held =
        SweepJournal::create(SweepJournal::path_for(&dir.0, &run_id), &overlap_plan()).unwrap();
    let (status, body) = post(addr, "/sweeps", OVERLAP_PLAN);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains(&run_id), "{body}");
    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(field(&health, "inflight"), "0", "{health}");
    assert_eq!(field(&health, "jobs"), "0", "{health}");

    // Once the owner lets go, the same plan runs to completion.
    drop(held);
    let (status, response) = post(addr, "/sweeps", OVERLAP_PLAN);
    assert_eq!(status, 202, "{response}");
    let (status, streamed) = get(addr, &field(&response, "progress"));
    assert_eq!(status, 200);
    let summary = streamed.lines().last().expect("a summary line");
    assert_eq!(field(summary, "status"), "done", "{streamed}");
    assert_eq!(field(summary, "errors"), "0", "{streamed}");

    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server thread");
}

#[test]
fn an_oversized_monte_carlo_request_fails_without_killing_the_server() {
    // 1e12 trajectories once aborted the whole process on allocation;
    // the ensemble cap must turn it into a failed job (or a 4xx) and
    // leave the server answering.
    let engine = Arc::new(Engine::standard().with_workers(1));
    let (addr, server) = spawn_server(engine, None, 1);
    let (status, response) = post(
        addr,
        "/runs",
        r#"{"scenario":"wer-mc","params":{"trajectories":1e12}}"#,
    );
    if status == 202 {
        let (status, streamed) = get(addr, &field(&response, "progress"));
        assert_eq!(status, 200);
        let summary = streamed.lines().last().expect("a summary line");
        assert!(
            field(summary, "status") == "failed" || field(summary, "errors") == "1",
            "{streamed}"
        );
        assert!(streamed.contains("MAX_TRAJECTORIES"), "{streamed}");
    } else {
        assert!((400..500).contains(&status), "{status} {response}");
    }
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server thread");
}

#[test]
fn graceful_drain_leaves_a_resumable_journal() {
    let dir = TempDir::new("drain");
    let engine = Arc::new(
        Engine::standard()
            .with_workers(1)
            .with_disk_cache(&dir.0)
            .unwrap(),
    );
    let (addr, server) = spawn_server(Arc::clone(&engine), Some(dir.0.clone()), 2);

    // A sweep slow enough (Monte-Carlo WER, one worker) that the drain
    // lands mid-run; the exact split point is scheduling-dependent and
    // the assertions below hold for any split.
    let body = r#"{"scenario":"wer-mc","params":{"trajectories":600},"axes":{"pulse_ns":[0.8,1.0,1.2,1.4,1.6,1.8]}}"#;
    let (status, response) = post(addr, "/sweeps", body);
    assert_eq!(status, 202, "{response}");
    let run_id = field(&response, "run_id");
    let journal_path = SweepJournal::path_for(&dir.0, &run_id);

    // Wait for the first checkpoint (a `done` line: the plan header
    // alone spans many lines, and the journal exists from submission)
    // so the drain is genuinely mid-sweep, then pull the plug.
    let deadline = Instant::now() + Duration::from_secs(60);
    while fs::read_to_string(&journal_path)
        .map(|s| !s.contains("\ndone "))
        .unwrap_or(true)
    {
        assert!(Instant::now() < deadline, "no checkpoint within 60s");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, drain) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(field(&drain, "draining"), "true");
    server.join().expect("server drains and exits");

    // The journal survived the drain with its run lock released and at
    // least one durable checkpoint.
    let journal = fs::read_to_string(&journal_path).unwrap();
    assert!(journal.lines().count() >= 2, "journal: {journal}");
    assert!(
        !journal_path.with_extension("journal.lock").exists(),
        "run lock must be released by the drain"
    );

    // A fresh engine over the same cache dir resumes: checkpointed
    // points come from disk, the rest compute, and the final answer is
    // byte-identical to an undisturbed sequential run.
    let resumed = Engine::standard()
        .with_workers(1)
        .with_disk_cache(&dir.0)
        .unwrap();
    let plan = SweepPlan::new("wer-mc")
        .fix("trajectories", 600.0)
        .axis("pulse_ns", vec![0.8, 1.0, 1.2, 1.4, 1.6, 1.8]);
    let outcome = resumed.sweep(&plan).unwrap();
    assert_eq!(outcome.errors + outcome.skipped, 0);
    assert!(outcome.disk_hits >= 1, "checkpointed work must be reused");
    let baseline = Engine::standard()
        .with_workers(1)
        .sweep(&plan)
        .unwrap()
        .summary_table()
        .to_csv();
    assert_eq!(outcome.summary_table().to_csv(), baseline);
}

/// Sends `head` raw on a fresh connection and returns the status code
/// of the answer.
fn raw_status(addr: SocketAddr, head: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(head.as_bytes()).expect("send head");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"))
}

#[test]
fn an_oversized_or_overlong_request_head_is_refused_and_the_server_lives() {
    let engine = Arc::new(Engine::standard().with_workers(1));
    let (addr, server) = spawn_server(engine, None, 1);
    let long = "a".repeat(16 * 1024);
    // One header line past the 8 KiB line cap.
    let status = raw_status(
        addr,
        &format!("GET /healthz HTTP/1.1\r\nX-Big: {long}\r\n\r\n"),
    );
    assert_eq!(status, 431);
    // More header lines than the 100-header cap, each of them small.
    let many: String = (0..150).map(|i| format!("X-H{i}: v\r\n")).collect();
    let status = raw_status(addr, &format!("GET /healthz HTTP/1.1\r\n{many}\r\n"));
    assert_eq!(status, 431);
    // A request line past the line cap.
    let status = raw_status(addr, &format!("GET /{long} HTTP/1.1\r\n\r\n"));
    assert_eq!(status, 400);
    // Right at the caps the request still goes through.
    let at_cap: String = (0..100).map(|i| format!("X-H{i}: v\r\n")).collect();
    let status = raw_status(addr, &format!("GET /healthz HTTP/1.1\r\n{at_cap}\r\n"));
    assert_eq!(status, 200);
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server thread");
}
