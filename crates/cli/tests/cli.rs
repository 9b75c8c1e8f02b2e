//! Integration tests driving the real `dcover` binary.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use dcover_cli::json::{parse, Value};

fn dcover(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcover"))
        .args(args)
        .output()
        .expect("run dcover binary")
}

/// Runs `dcover` with `input` piped through stdin.
fn dcover_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dcover"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dcover binary");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("run dcover binary")
}

fn sample_path() -> String {
    // crates/cli -> workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("data/sample.mwhvc");
    root.to_string_lossy().into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = dcover(&["--help"]);
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("USAGE"));
}

#[test]
fn help_lists_every_serve_flag() {
    let out = dcover(&["--help"]);
    assert!(out.status.success());
    let usage = stdout_of(&out);
    for flag in [
        "--class",
        "--deadline-ms",
        "--bulk-max-wait-ms",
        "--shed-target-ms",
        "--metrics",
    ] {
        assert!(
            usage.contains(flag),
            "USAGE does not name `{flag}`:\n{usage}"
        );
    }
}

#[test]
fn solve_sample_human_and_json() {
    let sample = sample_path();
    let human = dcover(&["solve", &sample, "--eps", "0.5"]);
    assert!(human.status.success(), "{human:?}");
    let text = stdout_of(&human);
    assert!(text.contains("cover"), "{text}");
    assert!(text.contains("ratio <="), "{text}");

    let json = dcover(&["solve", &sample, "--eps", "0.5", "--json"]);
    assert!(json.status.success());
    let text = stdout_of(&json);
    assert!(text.contains("\"weight\":"), "{text}");
    assert!(text.contains("\"rounds\":"), "{text}");
    assert!(text.contains("\"ratio_upper_bound\":"), "{text}");

    // Parallel solve agrees on the certified weight (bit-identical engine).
    let par = dcover(&["solve", &sample, "--eps", "0.5", "--threads", "4", "--json"]);
    assert!(par.status.success());
    let get_weight = |s: &str| -> String {
        let i = s.find("\"weight\": ").expect("weight field") + 10;
        s[i..].chars().take_while(char::is_ascii_digit).collect()
    };
    assert_eq!(get_weight(&text), get_weight(&stdout_of(&par)));
}

#[test]
fn gen_then_solve_roundtrip() {
    let dir = std::env::temp_dir().join(format!("dcover-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen.mwhvc");
    let path_str = path.to_string_lossy().into_owned();
    let gen = dcover(&[
        "gen", "uniform", "--n", "40", "--m", "90", "--rank", "3", "--seed", "7", "--out",
        &path_str,
    ]);
    assert!(gen.status.success(), "{gen:?}");
    let solve = dcover(&["solve", &path_str, "--json"]);
    assert!(solve.status.success(), "{solve:?}");
    assert!(stdout_of(&solve).contains("\"n\": 40"));
    // Same seed, same instance: deterministic generation.
    let gen2 = dcover(&[
        "gen", "uniform", "--n", "40", "--m", "90", "--rank", "3", "--seed", "7",
    ]);
    assert!(gen2.status.success());
    assert_eq!(
        stdout_of(&gen2),
        std::fs::read_to_string(&path).unwrap(),
        "gen must be deterministic per seed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_solves_many_files_and_isolates_failures() {
    let sample = sample_path();
    let ok = dcover(&[
        "batch",
        &sample,
        &sample,
        &sample,
        "--threads",
        "2",
        "--json",
    ]);
    assert!(ok.status.success(), "{ok:?}");
    let text = stdout_of(&ok);
    assert!(text.contains("\"instances\": 3"), "{text}");
    assert!(text.contains("\"failed\": 0"), "{text}");
    assert!(text.contains("\"instances_per_sec\":"), "{text}");

    // Every entry's `result` is exactly the `result` object that
    // `dcover solve --json` prints for the same file.
    let solo = dcover(&["solve", &sample, "--json"]);
    assert!(solo.status.success(), "{solo:?}");
    let solo = parse(stdout_of(&solo).trim()).unwrap();
    let report = parse(text.trim()).unwrap();
    let results = report.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 3, "{text}");
    for entry in results {
        assert_eq!(entry.get("result"), solo.get("result"), "{text}");
    }

    // One missing file: its entry fails, the others still solve, and the
    // exit code is non-zero.
    let mixed = dcover(&[
        "batch",
        &sample,
        "/nonexistent.mwhvc",
        "--threads",
        "2",
        "--json",
    ]);
    assert_eq!(mixed.status.code(), Some(1));
    let text = stdout_of(&mixed);
    assert!(text.contains("\"ok\": 1"), "{text}");
    assert!(text.contains("\"failed\": 1"), "{text}");
    let report = parse(text.trim()).unwrap();
    let results = report.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results[0].get("result"), solo.get("result"), "{text}");
}

#[test]
fn serve_streams_instances_in_completion_order_with_seq_ids() {
    // Two instances concatenated on stdin; each must come back as one
    // JSON line carrying its arrival-order seq id.
    let stream = "c first\np mwhvc 3 2\nv 10\nv 1\nv 10\ne 0 1\ne 1 2\n\
                  p mwhvc 2 1\nv 2\nv 3\ne 0 1\n";
    let out = dcover_stdin(&["serve", "--eps", "0.5", "--threads", "2"], stream);
    assert!(out.status.success(), "{out:?}");
    let text = stdout_of(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one JSON line per instance: {text}");
    let mut seqs: Vec<&str> = lines
        .iter()
        .map(|l| {
            assert!(l.starts_with("{\"seq\": "), "JSON line: {l}");
            assert!(l.contains("\"ok\": true"), "solved: {l}");
            assert!(l.contains("\"cover\": ["), "carries the cover: {l}");
            &l[8..9]
        })
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec!["0", "1"]);
    // The weight-1 middle vertex wins in the first instance.
    let first = lines.iter().find(|l| l.contains("\"seq\": 0")).unwrap();
    assert!(first.contains("\"weight\": 1"), "{first}");
    let summary = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        summary.contains("2 ok (0 warm-started), 0 expired, 0 cancelled, 0 shed, 0 failed"),
        "{summary}"
    );
    // The latency split: queue_ms + solve_ms == latency_ms, parse_ms
    // reported separately.
    for l in &lines {
        for field in ["queue_ms", "solve_ms", "latency_ms", "parse_ms"] {
            assert!(l.contains(&format!("\"{field}\":")), "{field} in {l}");
        }
        assert!(l.contains("\"class\": \"bulk\""), "default class: {l}");
    }
}

#[test]
fn serve_class_flag_and_per_record_directives_schedule_records() {
    // Stream default interactive; the second record overrides to bulk via
    // a `c @class` directive. Both solve; the result lines echo the class.
    let stream = "p mwhvc 3 2\nv 10\nv 1\nv 10\ne 0 1\ne 1 2\n\
                  p mwhvc 2 1\nc @class bulk\nv 2\nv 3\ne 0 1\n";
    let out = dcover_stdin(
        &["serve", "--threads", "1", "--class", "interactive"],
        stream,
    );
    assert!(out.status.success(), "{out:?}");
    let text = stdout_of(&out);
    let line = |seq: u64| {
        text.lines()
            .find(|l| l.starts_with(&format!("{{\"seq\": {seq},")))
            .unwrap_or_else(|| panic!("no line for seq {seq}: {text}"))
            .to_string()
    };
    assert!(line(0).contains("\"class\": \"interactive\""), "{text}");
    assert!(line(1).contains("\"class\": \"bulk\""), "{text}");
    // A bad directive value is a record failure, not a crash.
    let bad = dcover_stdin(
        &["serve", "--threads", "1"],
        "p mwhvc 2 1\nc @class warp\nv 2\nv 3\ne 0 1\n",
    );
    assert_eq!(bad.status.code(), Some(1));
    assert!(stdout_of(&bad).contains("unknown class"), "{bad:?}");
    // And a bad --class flag is a usage error.
    let usage = dcover_stdin(&["serve", "--class", "warp"], "");
    assert!(!usage.status.success());
}

#[test]
fn serve_metrics_emits_an_end_of_stream_summary() {
    let stream = "p mwhvc 3 2\nc @class interactive\nv 10\nv 1\nv 10\ne 0 1\ne 1 2\n\
                  p mwhvc 2 1\nv 2\nv 3\ne 0 1\n";
    let out = dcover_stdin(&["serve", "--threads", "1", "--metrics"], stream);
    assert!(out.status.success(), "{out:?}");
    let text = stdout_of(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "2 results + 1 metrics line: {text}");
    let metrics = lines.last().unwrap();
    assert!(metrics.starts_with("{\"metrics\": {"), "{metrics}");
    for field in [
        "\"records\": 2",
        "\"ok\": 2",
        "\"interactive\": {\"submitted\": 1",
        "\"bulk\": {\"submitted\": 1",
        "queue_depth_high_water",
        "worker_busy_ms",
        "queue_wait",
        "solve_time",
        "p99_ms",
    ] {
        assert!(metrics.contains(field), "missing {field}: {metrics}");
    }
}

#[test]
fn serve_deadline_ms_zero_expires_queued_records_without_failing_the_stream() {
    // Deadline 0: whichever records are still queued when a worker gets
    // to them have (deterministically) missed the deadline — with one
    // worker and three records, at least the trailing ones expire. The
    // stream still exits 0: expiry is load-shedding, not failure.
    let one = "p mwhvc 3 2\nv 10\nv 1\nv 10\ne 0 1\ne 1 2\n";
    let stream = format!("{one}{one}{one}");
    let out = dcover_stdin(
        &["serve", "--threads", "1", "--deadline-ms", "0", "--metrics"],
        &stream,
    );
    assert!(
        out.status.success(),
        "expiry must not fail the exit: {out:?}"
    );
    let text = stdout_of(&out);
    let expired = text.matches("\"expired\": true").count();
    let ok = text.matches("\"ok\": true").count();
    assert_eq!(ok + expired, 3, "every record resolves: {text}");
    assert!(expired >= 1, "a 0ms deadline must shed something: {text}");
    for l in text.lines().filter(|l| l.contains("\"expired\": true")) {
        assert!(l.contains("\"queue_ms\":"), "expired line has wait: {l}");
        assert!(l.contains("deadline expired"), "{l}");
    }
    let summary = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(summary.contains(&format!("{expired} expired")), "{summary}");
}

#[test]
fn serve_cancel_directive_resolves_the_record_without_failing_the_stream() {
    // A `c @cancel SEQ` line abandons the in-flight record it names:
    // record 0 is big enough that the directive — read immediately
    // after record 1's header frames and submits it — lands while it is
    // still queued or solving. Cancellation is load management: the
    // stream exits 0 and the cancelled record is counted apart from
    // failures.
    let dir = std::env::temp_dir().join("dcover-cancel-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let big = dir.join("big.mwhvc");
    let out = dcover(&[
        "gen",
        "uniform",
        "--n",
        "2000",
        "--m",
        "10000",
        "--rank",
        "3",
        "--seed",
        "7",
        "--out",
        big.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let big = std::fs::read_to_string(&big).expect("generated instance");
    let stream = format!("{big}p mwhvc 2 1\nv 2\nv 3\ne 0 1\nc @cancel 0\n");
    let out = dcover_stdin(&["serve", "--threads", "1", "--metrics"], &stream);
    assert!(
        out.status.success(),
        "cancel must not fail the exit: {out:?}"
    );
    let text = stdout_of(&out);
    let cancelled = text
        .lines()
        .find(|l| l.contains("\"seq\": 0"))
        .expect("record 0 resolves");
    assert!(cancelled.contains("\"ok\": false"), "{cancelled}");
    assert!(cancelled.contains("\"cancelled\": true"), "{cancelled}");
    let small = text
        .lines()
        .find(|l| l.contains("\"seq\": 1"))
        .expect("record 1 resolves");
    assert!(small.contains("\"ok\": true"), "{small}");
    let metrics = text
        .lines()
        .find(|l| l.starts_with("{\"metrics\""))
        .expect("metrics line");
    assert!(metrics.contains("\"cancelled\": 1"), "{metrics}");
    assert!(metrics.contains("\"failed\": 0"), "{metrics}");
    let summary = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(summary.contains("1 cancelled"), "{summary}");
    assert!(summary.contains("0 failed"), "{summary}");
}

#[test]
fn serve_sheds_bulk_records_while_a_queued_interactive_record_waits() {
    // Shed target 0: any queued interactive wait trips admission
    // control. Record 0 (interactive, big) occupies the only worker,
    // record 1 (interactive, small) queues behind it, so record 2
    // (bulk) — submitted at end of stream while record 1 still waits —
    // is shed at the door. Shedding is load management: exit 0, counted
    // apart from failures.
    let dir = std::env::temp_dir().join("dcover-shed-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let big = dir.join("big.mwhvc");
    let out = dcover(&[
        "gen",
        "uniform",
        "--n",
        "2000",
        "--m",
        "10000",
        "--rank",
        "3",
        "--seed",
        "9",
        "--out",
        big.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let mut big = std::fs::read_to_string(&big).expect("generated instance");
    big.push_str("c @class interactive\n");
    let stream = format!(
        "{big}p mwhvc 3 2\nc @class interactive\nv 10\nv 1\nv 10\ne 0 1\ne 1 2\n\
         p mwhvc 2 1\nv 2\nv 3\ne 0 1\n"
    );
    let out = dcover_stdin(
        &[
            "serve",
            "--threads",
            "1",
            "--shed-target-ms",
            "0",
            "--metrics",
        ],
        &stream,
    );
    assert!(out.status.success(), "shed must not fail the exit: {out:?}");
    let text = stdout_of(&out);
    let shed = text
        .lines()
        .find(|l| l.contains("\"seq\": 2"))
        .expect("record 2 resolves");
    assert!(shed.contains("\"ok\": false"), "{shed}");
    assert!(shed.contains("\"shed\": true"), "{shed}");
    for seq in ["\"seq\": 0", "\"seq\": 1"] {
        let l = text.lines().find(|l| l.contains(seq)).expect("resolves");
        assert!(l.contains("\"ok\": true"), "interactive never shed: {l}");
    }
    let metrics = text
        .lines()
        .find(|l| l.starts_with("{\"metrics\""))
        .expect("metrics line");
    assert!(metrics.contains("\"shed\": 1"), "{metrics}");
    assert!(metrics.contains("\"failed\": 0"), "{metrics}");
    let summary = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(summary.contains("1 shed"), "{summary}");
}

#[test]
fn serve_warm_starts_delta_records_against_prior_seqs() {
    // One instance followed by two chained delta records: a revision of
    // seq 0, then a revision of that revision (seq 1).
    let stream = "p mwhvc 3 2\nv 10\nv 1\nv 10\ne 0 1\ne 1 2\n\
                  p delta 0 0 1 1\na 0 2\nw 0 4\n\
                  p delta 1 1 0 0\nr 2\n";
    let out = dcover_stdin(&["serve", "--eps", "0.5", "--threads", "2"], stream);
    assert!(out.status.success(), "{out:?}");
    let text = stdout_of(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one JSON line per record: {text}");
    for seq in 0..3 {
        let line = lines
            .iter()
            .find(|l| l.starts_with(&format!("{{\"seq\": {seq},")))
            .unwrap_or_else(|| panic!("no line for seq {seq}: {text}"));
        assert!(line.contains("\"ok\": true"), "{line}");
        assert!(line.contains("\"cover\": ["), "{line}");
        assert!(line.contains("\"levels\": ["), "{line}");
    }
    let base = lines.iter().find(|l| l.contains("\"seq\": 0,")).unwrap();
    assert!(base.contains("\"warm\": false"), "{base}");
    assert!(base.contains("\"m\": 2"), "{base}");
    let first = lines.iter().find(|l| l.contains("\"seq\": 1,")).unwrap();
    assert!(first.contains("\"warm\": true"), "{first}");
    assert!(first.contains("\"base\": 0"), "{first}");
    assert!(
        first.contains("\"m\": 3"),
        "base had 2 edges, delta adds 1: {first}"
    );
    let second = lines.iter().find(|l| l.contains("\"seq\": 2,")).unwrap();
    assert!(second.contains("\"warm\": true"), "{second}");
    assert!(second.contains("\"base\": 1"), "{second}");
    assert!(second.contains("\"m\": 2"), "{second}");
    let summary = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(summary.contains("3 ok (2 warm-started)"), "{summary}");
}

#[test]
fn chained_delta_inherits_its_bases_epsilon_not_the_stream_default() {
    // Record 1 overrides ε to 0.25; record 2 chains off it with no
    // override and must be solved — and *reported* — with 0.25, not the
    // stream's 0.5 (the ε drives verify's β-tightness check downstream).
    let stream = "p mwhvc 3 2\nv 10\nv 1\nv 10\ne 0 1\ne 1 2\n\
                  p delta 0 0 0 0 0.25\n\
                  p delta 1 0 0 0\n";
    let out = dcover_stdin(&["serve", "--eps", "0.5", "--threads", "1"], stream);
    assert!(out.status.success(), "{out:?}");
    let text = stdout_of(&out);
    let line = |seq: u64| {
        text.lines()
            .find(|l| l.starts_with(&format!("{{\"seq\": {seq},")))
            .unwrap_or_else(|| panic!("no line for seq {seq}: {text}"))
            .to_string()
    };
    assert!(line(0).contains("\"epsilon\": 0.5"), "{text}");
    assert!(line(1).contains("\"epsilon\": 0.25"), "{text}");
    assert!(line(2).contains("\"epsilon\": 0.25"), "{text}");
}

#[test]
fn serve_rejects_bad_delta_records_without_crashing() {
    // Delta referencing an unknown base, a delta with eps 0.0 (invalid),
    // a delta whose base record itself failed, and a delta removing an
    // edge its one-edge base does not have — each yields an error JSON
    // line; the good records still solve.
    let stream = "p mwhvc 2 1\nv 2\nv 3\ne 0 1\n\
                  p delta 7 0 0 0\n\
                  p delta 0 0 0 0 0.0\n\
                  p mwhvc 1 1\nv 0\ne 0\n\
                  p delta 3 0 0 0\n\
                  p delta 0 0 0 0\n\
                  p delta 0 1 0 0\nr 5\n";
    let out = dcover_stdin(&["serve", "--threads", "1"], stream);
    assert_eq!(out.status.code(), Some(1), "failed records exit 1");
    let text = stdout_of(&out);
    assert_eq!(text.lines().count(), 7, "{text}");
    assert_eq!(text.matches("\"ok\": true").count(), 2, "{text}");
    assert_eq!(text.matches("\"ok\": false").count(), 5, "{text}");
    let eps_line = text
        .lines()
        .find(|l| l.starts_with("{\"seq\": 2,"))
        .unwrap();
    assert!(eps_line.contains("epsilon"), "bad eps reported: {eps_line}");
    let failed_base = text
        .lines()
        .find(|l| l.starts_with("{\"seq\": 4,"))
        .unwrap();
    assert!(failed_base.contains("cannot warm-start"), "{failed_base}");
    let misfit = text
        .lines()
        .find(|l| l.starts_with("{\"seq\": 6,"))
        .unwrap();
    assert!(misfit.contains("delta failed to apply"), "{misfit}");
}

#[test]
fn serve_keeps_the_last_256_records_as_delta_bases() {
    // 300 one-edge records, then a revision of the first (past the
    // retention horizon) and one of the last (inside it).
    let mut stream = "p mwhvc 2 1\nv 1\nv 2\ne 0 1\n".repeat(300);
    stream.push_str("p delta 0 0 0 0\np delta 299 0 0 0\n");
    let out = dcover_stdin(&["serve", "--threads", "1"], &stream);
    assert_eq!(out.status.code(), Some(1), "the stale revision fails");
    let text = stdout_of(&out);
    let line = |seq: u64| {
        text.lines()
            .find(|l| l.starts_with(&format!("{{\"seq\": {seq},")))
            .unwrap_or_else(|| panic!("no line for seq {seq}: {text}"))
    };
    let stale = line(300);
    assert!(stale.contains("\"ok\": false"), "{stale}");
    assert!(stale.contains("unknown base record 0"), "{stale}");
    let fresh = line(301);
    assert!(fresh.contains("\"ok\": true"), "{fresh}");
    assert!(fresh.contains("\"warm\": true"), "{fresh}");
    assert!(fresh.contains("\"base\": 299"), "{fresh}");
    assert_eq!(text.matches("\"ok\": true").count(), 301, "{text}");
}

#[test]
fn serve_isolates_a_malformed_instance() {
    let stream = "p mwhvc 2 1\nv 2\nv 3\ne 0 1\n\
                  p mwhvc 1 1\nv 0\ne 0\n\
                  p mwhvc 2 1\nv 5\nv 6\ne 0 1\n";
    let out = dcover_stdin(&["serve", "--threads", "1"], stream);
    assert_eq!(out.status.code(), Some(1), "a failed instance exits 1");
    let text = stdout_of(&out);
    assert_eq!(text.lines().count(), 3, "{text}");
    assert!(text.contains("\"ok\": false"), "{text}");
    assert_eq!(text.matches("\"ok\": true").count(), 2, "{text}");
}

#[test]
fn serve_empty_stdin_is_fine() {
    let out = dcover_stdin(&["serve"], "");
    assert!(out.status.success(), "{out:?}");
    assert!(stdout_of(&out).is_empty());
}

#[test]
fn verify_accepts_valid_reports_and_rejects_tampered_ones() {
    let sample = sample_path();
    let report = dcover(&["solve", &sample, "--eps", "0.5", "--json"]);
    assert!(report.status.success());
    let report_text = stdout_of(&report);

    let dir = std::env::temp_dir().join(format!("dcover-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("report.json");
    std::fs::write(&report_path, &report_text).unwrap();
    let report_path = report_path.to_string_lossy().into_owned();

    let ok = dcover(&["verify", &sample, &report_path, "--json"]);
    assert!(ok.status.success(), "{ok:?}");
    let text = stdout_of(&ok);
    assert!(text.contains("\"ok\": true"), "{text}");
    assert!(text.contains("\"within_guarantee\": true"), "{text}");

    // Reports also verify when piped through stdin.
    let piped = dcover_stdin(&["verify", &sample, "-"], &report_text);
    assert!(piped.status.success(), "{piped:?}");

    // Tampering: empty the cover -> uncovered edge, exit 1.
    let tampered = regex_replace(&report_text, "\"cover\": [", "\"cover\": [999999");
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, tampered).unwrap();
    let bad = dcover(&["verify", &sample, &bad_path.to_string_lossy()]);
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");

    // A serve line verifies too (it carries epsilon + result).
    let instance_text = std::fs::read_to_string(&sample).unwrap();
    let served = dcover_stdin(&["serve", "--eps", "0.5"], &instance_text);
    assert!(served.status.success());
    let line = stdout_of(&served);
    let piped = dcover_stdin(&["verify", &sample, "-"], &line);
    assert!(piped.status.success(), "{piped:?}\nline: {line}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tiny literal substring replacement (keeps the test dependency-free).
fn regex_replace(text: &str, needle: &str, replacement: &str) -> String {
    text.replacen(needle, replacement, 1)
}

#[test]
fn gen_families_produce_valid_instances_with_seeded_reports() {
    let dir = std::env::temp_dir().join(format!("dcover-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: Vec<(&str, Vec<&str>)> = vec![
        ("uniform", vec!["--n", "30", "--m", "60"]),
        (
            "mixed",
            vec![
                "--n",
                "30",
                "--m",
                "50",
                "--min-rank",
                "2",
                "--max-rank",
                "4",
            ],
        ),
        (
            "planted",
            vec!["--n", "40", "--m", "80", "--cover-size", "5"],
        ),
        ("preferential", vec!["--n", "30", "--m", "90"]),
        ("calibrated", vec!["--delta", "5", "--copies", "2"]),
        ("geometric", vec!["--points", "50", "--stations", "12"]),
        ("star", vec!["--leaves", "9"]),
        ("clique", vec!["--n", "7"]),
        ("path", vec!["--n", "9"]),
        ("cycle", vec!["--n", "9"]),
        ("sunflower", vec!["--petals", "5", "--core", "2"]),
        ("f-partite", vec!["--f", "3", "--group-size", "3"]),
        ("hyper-star", vec!["--f", "3", "--delta", "6"]),
    ];
    for (family, extra) in cases {
        let out_path = dir.join(format!("{family}.mwhvc"));
        let out_str = out_path.to_string_lossy().into_owned();
        let mut args = vec!["gen", family, "--seed", "11", "--json", "--out", &out_str];
        args.extend(extra.iter());
        let gen = dcover(&args);
        assert!(gen.status.success(), "{family}: {gen:?}");
        let report = stdout_of(&gen);
        assert!(
            report.contains(&format!("\"family\": \"{family}\"")),
            "{report}"
        );
        assert!(report.contains("\"seed\": "), "seed recorded: {report}");
        // The generated instance solves.
        let solve = dcover(&["solve", &out_str, "--eps", "0.5"]);
        assert!(solve.status.success(), "{family}: {solve:?}");
    }
    // Seeded families are deterministic per seed; deterministic families
    // report a null seed.
    let a = dcover(&["gen", "uniform", "--n", "25", "--m", "40", "--seed", "3"]);
    let b = dcover(&["gen", "uniform", "--n", "25", "--m", "40", "--seed", "3"]);
    assert_eq!(stdout_of(&a), stdout_of(&b));
    let out_path = dir.join("det.mwhvc").to_string_lossy().into_owned();
    let det = dcover(&["gen", "clique", "--n", "5", "--json", "--out", &out_path]);
    assert!(stdout_of(&det).contains("\"seed\": null"), "{det:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_report_carries_cover_duals_and_levels() {
    let sample = sample_path();
    let json = dcover(&["solve", &sample, "--json"]);
    assert!(json.status.success());
    let text = stdout_of(&json);
    assert!(text.contains("\"cover\": ["), "{text}");
    assert!(text.contains("\"duals\": ["), "{text}");
    assert!(text.contains("\"levels\": ["), "{text}");
}

#[test]
fn solve_warm_from_report_reproduces_the_cold_solution() {
    let sample = sample_path();
    let cold = dcover(&["solve", &sample, "--eps", "0.5", "--json"]);
    assert!(cold.status.success());
    let cold_text = stdout_of(&cold);

    let dir = std::env::temp_dir().join(format!("dcover-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("report.json");
    std::fs::write(&report_path, &cold_text).unwrap();
    let report_str = report_path.to_string_lossy().into_owned();

    // Warm re-solve of the unchanged instance: same cover/duals, fewer
    // rounds, epsilon inherited from the report.
    let warm = dcover(&["solve", &sample, "--warm-from", &report_str, "--json"]);
    assert!(warm.status.success(), "{warm:?}");
    let warm_text = stdout_of(&warm);
    assert!(warm_text.contains("\"warm\": true"), "{warm_text}");
    assert!(warm_text.contains("\"epsilon\": 0.5"), "{warm_text}");
    let field = |s: &str, key: &str| -> String {
        let i = s.find(key).unwrap_or_else(|| panic!("{key} in {s}")) + key.len();
        s[i..].chars().take_while(|c| *c != ']').collect()
    };
    assert_eq!(
        field(&warm_text, "\"duals\": ["),
        field(&cold_text, "\"duals\": ["),
        "warm duals bit-identical on an unchanged instance"
    );
    assert_eq!(
        field(&warm_text, "\"cover\": ["),
        field(&cold_text, "\"cover\": ["),
    );
    // And the warm result verifies like any other report.
    let warm_report = dir.join("warm.json");
    std::fs::write(&warm_report, &warm_text).unwrap();
    let ok = dcover(&["verify", &sample, &warm_report.to_string_lossy(), "--json"]);
    assert!(ok.status.success(), "{ok:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_json_failures_emit_error_objects() {
    let sample = sample_path();
    // Invalid epsilon: error JSON on stdout, usage exit code, no panic.
    let bad = dcover(&["solve", &sample, "--eps", "0", "--json"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    let text = stdout_of(&bad);
    assert!(text.starts_with("{\"ok\": false"), "{text}");
    assert!(text.contains("epsilon"), "{text}");
    // Same for a runtime failure.
    let bad = dcover(&["solve", "/nonexistent.mwhvc", "--json"]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(stdout_of(&bad).contains("\"ok\": false"));
    // Without --json the human error path is unchanged (stderr only).
    let bad = dcover(&["solve", &sample, "--eps", "0"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stdout_of(&bad).is_empty());
}

#[test]
fn warm_from_refuses_thread_parallelism() {
    // Warm solves run on the sequential scheduler; silently ignoring
    // --threads would misreport the execution mode.
    let sample = sample_path();
    let report = dcover(&["solve", &sample, "--json"]);
    let dir = std::env::temp_dir().join(format!("dcover-warmthreads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r.json");
    std::fs::write(&path, stdout_of(&report)).unwrap();
    let out = dcover(&[
        "solve",
        &sample,
        "--warm-from",
        &path.to_string_lossy(),
        "--threads",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let msg = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(msg.contains("sequential scheduler"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `dcover args` with `input` on stdin, reads a few bytes of its
/// stdout and closes the pipe, as `dcover … | head -c 20` does.
fn dcover_until_reader_leaves(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dcover"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dcover binary");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = input.to_string();
    // A writer thread, so a command that stops reading cannot block us.
    let feeder = std::thread::spawn(move || stdin.write_all(input.as_bytes()).is_ok());
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 20];
    std::io::Read::read_exact(&mut stdout, &mut head).expect("the command writes output");
    drop(stdout);
    let out = child.wait_with_output().expect("run dcover binary");
    feeder.join().expect("stdin feeder");
    out
}

#[test]
fn a_reader_that_closes_stdout_early_ends_the_command_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("dcover-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.mwhvc").to_string_lossy().into_owned();
    let gen = [
        "gen", "uniform", "--n", "2000", "--m", "6000", "--seed", "9",
    ];
    let made = dcover(&[&gen[..], &["--out", &path]].concat());
    assert!(made.status.success(), "{made:?}");
    let instance = std::fs::read_to_string(&path).unwrap();
    // Each output is larger than a pipe's buffer, so the command is still
    // writing when the reader goes away.
    let cases: [(&[&str], &str); 4] = [
        (&["solve", &path, "--json"], ""),
        (&gen, ""),
        (&["batch", &path, &path, "--json", "--threads", "1"], ""),
        (&["serve", "--threads", "1"], &instance.repeat(3)),
    ];
    for (args, input) in cases {
        let out = dcover_until_reader_leaves(args, input);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let code = out.status.code();
        assert!(
            matches!(code, Some(0..=2)),
            "{args:?}: exit code {code:?} is outside 0/1/2: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(dcover(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(dcover(&["solve"]).status.code(), Some(2));
    assert_eq!(dcover(&["gen", "uniform"]).status.code(), Some(2));
    assert_eq!(dcover(&["solve", "x", "--nope"]).status.code(), Some(2));
    let sample = sample_path();
    // `solve` refuses a zero thread count as `batch` and `serve` do.
    let zero = dcover(&["solve", &sample, "--threads", "0"]);
    assert_eq!(zero.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&zero.stderr).contains("--threads must be at least 1"));
    // Chunk placement is fixed, so no command takes `--partition`.
    assert_eq!(
        dcover(&["solve", &sample, "--partition", "locality"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        dcover(&["batch", &sample, "--partition", "locality"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        dcover_stdin(&["serve", "--partition", "locality"], "")
            .status
            .code(),
        Some(2)
    );
    // Runtime failure (unreadable file) exits 1.
    assert_eq!(
        dcover(&["solve", "/nonexistent.mwhvc"]).status.code(),
        Some(1)
    );
}
