//! An idle listener must sleep until something happens, not poll on a
//! timer. This file is its own test binary so that exactly one
//! `crossmine-net` poll thread exists in the process.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use crossmine_net::http::format_predict_request;
use crossmine_net::{Backend, BatchReply, NetConfig, NetListener, NetMetrics, Waker, WireReject};
use crossmine_obs::{ObsHandle, TraceCtx};
use crossmine_relational::Row;

/// Scores batches at submit time: label = row id % 2.
struct Echo;

impl Backend for Echo {
    type Pending = BatchReply;

    fn submit(
        &self,
        rows: &[Row],
        _deadline: Option<Duration>,
        _trace: &TraceCtx,
        _waker: &Waker,
    ) -> Result<Self::Pending, WireReject> {
        Ok(BatchReply { epoch: 1, labels: rows.iter().map(|r| r.0 % 2).collect() })
    }

    fn poll(&self, pending: &mut Self::Pending) -> Option<Result<BatchReply, WireReject>> {
        Some(Ok(pending.clone()))
    }
}

/// The `/proc/self/task/<tid>` directory of the thread named `comm`.
fn task_dir(comm: &str) -> String {
    for entry in fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = entry.expect("task entry").path();
        let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if name.trim_end() == comm {
            return dir.to_string_lossy().into_owned();
        }
    }
    panic!("no thread named {comm}");
}

fn voluntary_switches(task: &str) -> u64 {
    let status = fs::read_to_string(format!("{task}/status")).expect("task status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches in status")
}

#[test]
fn idle_listener_does_not_wake_a_thousand_times_a_second() {
    let listener = NetListener::start(
        NetConfig::default(),
        Arc::new(Echo),
        ObsHandle::noop(),
        Arc::<NetMetrics>::default(),
    )
    .expect("bind");
    // One keep-alive connection, answered once and then left open: the
    // listener has a registered socket but nothing to do.
    let stream = TcpStream::connect(listener.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&format_predict_request(&[1, 2], None, true)).expect("send");
    let mut content_length = 0usize;
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");

    let task = task_dir("crossmine-net");
    let before = voluntary_switches(&task);
    std::thread::sleep(Duration::from_secs(2));
    let woke = voluntary_switches(&task) - before;
    // A wakeup per metrics publish (every 100 ms) is about 20; a loop
    // that sleeps ~1 ms per idle sweep makes about 1900.
    assert!(woke < 100, "idle poll thread woke {woke} times in 2 s");
    drop(writer);
    listener.shutdown();
}
