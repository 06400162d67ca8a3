//! CI gate over an exported Chrome trace (see
//! `cypress_runtime::telemetry::TraceSink`): the file must parse, carry
//! the `cypress_graph` metadata event, contain at least one span, keep
//! its timestamps monotone (the exporter sorts by start time), keep
//! every span inside the declared makespan, and only use stream ids the
//! metadata declares. Host-side spans (`cat == "host"` — compile
//! passes and tuner ranking from `chrome_json_with_host`) run on a
//! wall-clock timeline, and tuner spans (`cat == "tuner"`, one autotune
//! candidate each, on tracks of their own) measure a candidate, not the
//! graph, so both are only checked for finite non-negative bounds, not
//! against the stream/makespan invariants.
//! A broken exporter fails the build instead of shipping a file
//! Perfetto rejects.
//!
//! Run with `cargo run --release -p cypress-bench --bin check_trace --
//! <trace.json>` (after `cargo run --example graph_overlap <trace.json>`
//! has written it).

use cypress_runtime::telemetry::ChromeSpan;
use cypress_runtime::TraceSink;
use std::process::ExitCode;

fn check(json: &str) -> Result<String, String> {
    let trace = TraceSink::parse_chrome_json(json)?;
    let streams = trace
        .streams
        .ok_or("missing `cypress_graph` metadata: no stream count")?;
    let makespan = trace
        .makespan
        .ok_or("missing `cypress_graph` metadata: no makespan")?;
    // Traces from before the multi-device exporter carry no `devices`
    // key; they are single-device by construction.
    let devices = trace.devices.unwrap_or(1);
    if streams == 0 {
        return Err("metadata declares 0 streams".to_string());
    }
    if devices == 0 {
        return Err("metadata declares 0 devices".to_string());
    }
    if !makespan.is_finite() || makespan <= 0.0 {
        return Err(format!(
            "metadata makespan {makespan} is not a positive cycle count"
        ));
    }
    if trace.spans.is_empty() {
        return Err("trace has no spans".to_string());
    }
    let mut hosts = 0usize;
    let mut tuner = 0usize;
    let mut prev = f64::NEG_INFINITY;
    for (i, span) in trace.spans.iter().enumerate() {
        if !span.ts.is_finite() || span.ts < 0.0 || !span.dur.is_finite() || span.dur < 0.0 {
            return Err(format!(
                "span {i} `{}`: ts {} dur {} — both must be finite and non-negative",
                span.name, span.ts, span.dur
            ));
        }
        // Host-side spans (compile passes, tuner ranking — see
        // `TraceSink::chrome_json_with_host`) live on a separate
        // nanosecond timeline: exempt from the stream/makespan/monotone
        // checks, like `EventClass::Host` in determinism comparisons.
        if span.cat == "host" {
            hosts += 1;
            continue;
        }
        // Tuner spans (`tune:<entry>:<config>`) each time one autotune
        // candidate, not a graph node.
        if span.cat == "tuner" {
            if !span.name.starts_with("tune:") {
                return Err(format!(
                    "span {i} `{}`: a tuner span is named `tune:<entry>:<config>`",
                    span.name
                ));
            }
            tuner += 1;
            continue;
        }
        if span.ts < prev {
            return Err(format!(
                "span {i} `{}`: ts {} < previous span's ts {} — timestamps must be monotone",
                span.name, span.ts, prev
            ));
        }
        prev = span.ts;
        // The exporter bands tids per device: `tid = device * streams +
        // stream`, so a valid tid lives in `0..devices * streams`.
        if span.tid >= devices * streams {
            return Err(format!(
                "span {i} `{}`: lane id {} but metadata declares {devices} device(s) x \
                 {streams} streams ({} lanes)",
                span.name,
                span.tid,
                devices * streams
            ));
        }
        // The exporter emits exact sim cycles; tolerate only rounding in
        // the sum itself.
        if span.ts + span.dur > makespan * (1.0 + 1e-9) {
            return Err(format!(
                "span {i} `{}`: ends at {} (ts {} + dur {}), past the declared makespan {makespan}",
                span.name,
                span.ts + span.dur,
                span.ts,
                span.dur
            ));
        }
    }
    // Fault-recovery spans: every failed attempt (`retry:X`) must be
    // followed by the re-execution that retired `X`, and a re-shard
    // boundary (`reshard:dN`) only makes sense when the trace has a
    // surviving device to re-plan onto.
    let mut recoveries = 0usize;
    let graph = |s: &&ChromeSpan| s.cat != "host" && s.cat != "tuner";
    for span in trace.spans.iter().filter(graph) {
        if let Some(node) = span.name.strip_prefix("retry:") {
            recoveries += 1;
            let reran = trace
                .spans
                .iter()
                .any(|other| graph(&other) && other.name == node && other.ts >= span.ts);
            if !reran {
                return Err(format!(
                    "span `{}`: no successful `{node}` span at or after ts {} — every \
                     retried attempt must be followed by the re-execution that retired it",
                    span.name, span.ts
                ));
            }
        }
        if span.name.starts_with("reshard:") {
            recoveries += 1;
            if devices < 2 {
                return Err(format!(
                    "span `{}` on a {devices}-device trace — evicting a device \
                     requires at least one survivor to re-shard onto",
                    span.name
                ));
            }
        }
        if span.name.starts_with("xfer:recover:") {
            recoveries += 1;
        }
    }
    Ok(format!(
        "{} spans on {devices} device(s) x {streams} streams ({hosts} host, {tuner} tuner, \
         {recoveries} recovery), makespan {makespan} cycles",
        trace.spans.len() - hosts - tuner
    ))
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/graph_overlap_trace.json".to_string());
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "check_trace: cannot read {path}: {e} \
                 (run `cargo run --example graph_overlap {path}` first)"
            );
            return ExitCode::FAILURE;
        }
    };
    match check(&json) {
        Ok(summary) => {
            println!("check_trace: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("check_trace: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check;

    fn trace(meta: &str, spans: &[&str]) -> String {
        let mut events = vec![meta.to_string()];
        events.extend(spans.iter().map(|s| (*s).to_string()));
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    const META: &str = "{\"name\":\"cypress_graph\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                        \"args\":{\"streams\":2,\"makespan\":1000,\"unit\":\"cycles\"}}";

    fn span(name: &str, ts: f64, dur: f64, tid: usize) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"node\",\"ph\":\"X\",\
             \"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{tid},\"args\":{{}}}}"
        )
    }

    #[test]
    fn valid_trace_passes() {
        let json = trace(
            META,
            &[&span("a", 0.0, 600.0, 0), &span("b", 100.0, 900.0, 1)],
        );
        let summary = check(&json).unwrap();
        assert!(summary.contains("2 spans"), "{summary}");
    }

    #[test]
    fn missing_metadata_fails() {
        let json = trace(&span("a", 0.0, 10.0, 0), &[]);
        assert!(check(&json).unwrap_err().contains("cypress_graph"));
    }

    #[test]
    fn empty_trace_fails() {
        assert!(check(&trace(META, &[])).unwrap_err().contains("no spans"));
    }

    #[test]
    fn non_monotone_timestamps_fail() {
        let json = trace(
            META,
            &[&span("a", 500.0, 100.0, 0), &span("b", 0.0, 100.0, 1)],
        );
        assert!(check(&json).unwrap_err().contains("monotone"));
    }

    #[test]
    fn out_of_range_stream_fails() {
        let json = trace(META, &[&span("a", 0.0, 100.0, 7)]);
        let err = check(&json).unwrap_err();
        assert!(err.contains("lane id 7"), "{err}");
        assert!(err.contains("1 device(s) x 2 streams"), "{err}");
    }

    const MULTI_META: &str = "{\"name\":\"cypress_graph\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                              \"args\":{\"streams\":2,\"devices\":2,\"makespan\":1000,\
                              \"unit\":\"cycles\"}}";

    #[test]
    fn device_banded_lanes_pass() {
        // tid 3 = device 1, stream 1 — out of range for a 1-device
        // trace but valid once the metadata declares 2 devices.
        let json = trace(
            MULTI_META,
            &[&span("a", 0.0, 600.0, 0), &span("xfer:b", 100.0, 900.0, 3)],
        );
        let summary = check(&json).unwrap();
        assert!(summary.contains("2 device(s) x 2 streams"), "{summary}");
    }

    #[test]
    fn lane_past_device_band_fails() {
        let json = trace(MULTI_META, &[&span("a", 0.0, 100.0, 4)]);
        let err = check(&json).unwrap_err();
        assert!(err.contains("lane id 4"), "{err}");
        assert!(err.contains("4 lanes"), "{err}");
    }

    #[test]
    fn zero_devices_fails() {
        let meta = MULTI_META.replace("\"devices\":2", "\"devices\":0");
        let json = trace(&meta, &[&span("a", 0.0, 100.0, 0)]);
        assert!(check(&json).unwrap_err().contains("0 devices"));
    }

    #[test]
    fn span_past_makespan_fails() {
        let json = trace(META, &[&span("a", 900.0, 200.0, 0)]);
        assert!(check(&json)
            .unwrap_err()
            .contains("past the declared makespan"));
    }

    fn host_span(name: &str, ts: f64, dur: f64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"host\",\"ph\":\"X\",\
             \"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":0,\"args\":{{\"unit\":\"ns\"}}}}"
        )
    }

    #[test]
    fn host_spans_are_exempt_from_stream_invariants() {
        // The host timeline restarts at 0 after the node spans and may
        // outlast the makespan — both fine for `cat == "host"`.
        let json = trace(
            META,
            &[
                &span("a", 0.0, 600.0, 0),
                &span("b", 100.0, 900.0, 1),
                &host_span("compile:lower", 0.0, 5000.0),
                &host_span("rank:gemm", 5000.0, 42.0),
            ],
        );
        let summary = check(&json).unwrap();
        assert!(summary.contains("2 spans"), "{summary}");
        assert!(summary.contains("2 host"), "{summary}");
    }

    fn tuner_span(name: &str, tid: usize, dur: f64, known: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"tuner\",\"ph\":\"X\",\"ts\":0,\"dur\":{dur},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"unit\":\"cycles\",\"floor\":10{known}}}}}"
        )
    }

    #[test]
    fn tuner_spans_are_exempt_from_stream_invariants() {
        // Each candidate sits on its own track from 0 and may outlast
        // the graph's makespan, whole, cut or bounded.
        let json = trace(
            META,
            &[
                &span("a", 0.0, 600.0, 0),
                &tuner_span("tune:gemm:a", 0, 900.0, ",\"cycles\":900"),
                &tuner_span("tune:gemm:b", 1, 5000.0, ",\"cut\":5000"),
                &tuner_span("tune:gemm:c", 2, 10.0, ""),
            ],
        );
        let summary = check(&json).unwrap();
        assert!(summary.contains("1 spans"), "{summary}");
        assert!(summary.contains("3 tuner"), "{summary}");
        let unnamed = trace(
            META,
            &[&span("a", 0.0, 600.0, 0), &tuner_span("x", 0, 1.0, "")],
        );
        assert!(check(&unnamed).unwrap_err().contains("tune:<entry>"));
    }

    #[test]
    fn host_spans_still_need_finite_bounds() {
        let json = trace(
            META,
            &[
                &span("a", 0.0, 600.0, 0),
                &host_span("rank:gemm", -1.0, 7.0),
            ],
        );
        assert!(check(&json)
            .unwrap_err()
            .contains("finite and non-negative"));
    }

    #[test]
    fn malformed_json_fails() {
        assert!(check("{\"traceEvents\":").is_err());
    }

    #[test]
    fn retry_followed_by_rerun_passes_and_is_counted() {
        let json = trace(
            MULTI_META,
            &[
                &span("retry:a", 0.0, 300.0, 0),
                &span("reshard:d1", 300.0, 0.0, 2),
                &span("a", 300.0, 500.0, 0),
                &span("xfer:recover:b.0->d0", 400.0, 100.0, 0),
            ],
        );
        let summary = check(&json).unwrap();
        assert!(summary.contains("3 recovery"), "{summary}");
    }

    #[test]
    fn retry_without_rerun_fails() {
        let json = trace(
            META,
            &[&span("retry:a", 0.0, 300.0, 0), &span("b", 300.0, 500.0, 1)],
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("retry:a"), "{err}");
        assert!(err.contains("re-execution"), "{err}");
    }

    #[test]
    fn rerun_before_the_failed_attempt_fails() {
        // A successful `a` span strictly before the failed attempt
        // cannot be the retry's re-execution.
        let json = trace(
            META,
            &[&span("a", 0.0, 100.0, 0), &span("retry:a", 200.0, 300.0, 0)],
        );
        assert!(check(&json).unwrap_err().contains("re-execution"));
    }

    #[test]
    fn reshard_on_a_single_device_trace_fails() {
        let json = trace(
            META,
            &[
                &span("a", 0.0, 100.0, 0),
                &span("reshard:d0", 100.0, 0.0, 0),
            ],
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("reshard:d0"), "{err}");
        assert!(err.contains("survivor"), "{err}");
    }
}
