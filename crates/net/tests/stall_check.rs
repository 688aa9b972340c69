//! Throwaway reviewer check: pipeline max_pipeline+1 requests and see if
//! the final one is ever answered.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use crossmine_net::http::format_predict_request;
use crossmine_net::{Backend, BatchReply, NetConfig, NetListener, NetMetrics, Waker, WireReject};
use crossmine_obs::{ObsHandle, TraceCtx};
use crossmine_relational::Row;

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

#[test]
fn pipelining_past_window_still_answers_everything() {
    let config = NetConfig::default();
    let n = config.limits.max_pipeline + 1; // 65 with defaults
    let listener =
        NetListener::start(config, Arc::new(Echo), ObsHandle::noop(), Arc::<NetMetrics>::default())
            .expect("bind");
    let addr = listener.local_addr();
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(3))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut wire = Vec::new();
    for i in 0..n {
        wire.extend_from_slice(&format_predict_request(&[i as u32], None, true));
    }
    writer.write_all(&wire).expect("send");
    for i in 0..n {
        // Read one response: status line, headers, body.
        let mut status = String::new();
        reader.read_line(&mut status).unwrap_or_else(|e| panic!("response {i}/{n} stalled: {e}"));
        assert!(status.starts_with("HTTP/1.1 200"), "response {i}: {status}");
        let mut content_length = 0usize;
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
    }
    listener.shutdown();
}
