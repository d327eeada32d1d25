//! Property tests: everything the hand-rolled JSON writers in
//! `gatest-telemetry` emit must round-trip through the hand-rolled parser.
//!
//! One representational constraint shapes the generators: [`Json`] stores
//! numbers as `f64`, so integers are exact only below 2^53 and every `u64`
//! strategy here stays under that bound. The writers never emit larger
//! values for the fields these tests cover (span/histogram nanosecond
//! totals would need a >104-day run to overflow 2^53).

use gatest_telemetry::json::{
    event_to_json, histogram_from_json, histogram_to_json, parse_json, quote, spans_from_json,
    spans_to_json, Json,
};
use gatest_telemetry::{HistogramSnapshot, RunEvent, SpanNode, SpanSnapshot};
use proptest::collection::vec;
use proptest::prelude::*;

/// A real trace: a recorded s298 run's `run_started` line and its
/// `run_finished` line, counters and span tree included.
const TRACE: &str = include_str!("../../../tests/data/s298_seed5_full.trace.jsonl");

/// Bytes a damaged trace line plausibly carries: JSON structure, digits,
/// literal and escape letters, and whitespace.
const TOKEN_BYTES: &[u8] = b"{}[]:,\"\\-+.0123456789eEtrufalsn \t";

/// Largest u64 that survives an f64 round trip with integral exactness.
const MAX_SAFE: u64 = (1u64 << 53) - 1;

/// Unsigned integers that stay integral through `f64`: mostly small values,
/// with the full safe range and its endpoint mixed in.
fn safe_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1024, 0u64..=MAX_SAFE, Just(MAX_SAFE), Just(0u64)]
}

/// Strings biased toward everything the escaper must handle: plain ASCII,
/// quotes, backslashes, named escapes, raw control characters (forced
/// through `\u00xx`), and multi-byte UTF-8 up to an astral-plane scalar.
fn text() -> impl Strategy<Value = String> {
    let glyph = prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("printable ascii")),
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control char")),
        Just('\u{8}'),
        Just('\u{c}'),
        Just('π'),
        Just('鬼'),
        Just('🦀'),
        Just('\u{fffd}'),
    ];
    vec(glyph, 0..12usize).prop_map(|chars| chars.into_iter().collect())
}

/// A finite JSON number: exact integers, negated integers, and arbitrary
/// finite floats (Rust's `{}` float formatting is shortest-round-trip, so
/// parsing the rendering recovers identical bits). NaN/infinity are
/// excluded by construction — the writers map them to `0`.
fn number() -> impl Strategy<Value = f64> {
    prop_oneof![
        safe_u64().prop_map(|v| v as f64),
        safe_u64().prop_map(|v| -(v as f64)),
        -1.0e18f64..1.0e18,
        -1.0f64..1.0,
    ]
}

fn json_leaf() -> impl Strategy<Value = Json> + 'static {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        number().prop_map(Json::Num),
        text().prop_map(Json::Str),
    ]
}

/// Arbitrary JSON documents nested up to `depth` levels of containers.
/// Duplicate object keys are allowed — the parser keeps members in source
/// order, so they round-trip too.
fn json_value(depth: u32) -> Box<dyn Strategy<Value = Json>> {
    if depth == 0 {
        return Box::new(json_leaf());
    }
    Box::new(prop_oneof![
        json_leaf(),
        vec(json_value(depth - 1), 0..4usize).prop_map(Json::Arr),
        vec((text(), json_value(depth - 1)), 0..4usize).prop_map(Json::Obj),
    ])
}

fn span_node() -> impl Strategy<Value = SpanNode> {
    (
        text(),
        prop_oneof![Just(None), text().prop_map(Some)],
        safe_u64(),
        safe_u64(),
        safe_u64(),
    )
        .prop_map(|(kind, parent, count, incl_ns, excl_ns)| SpanNode {
            kind,
            parent,
            count,
            incl_ns,
            excl_ns,
        })
}

fn histogram_snapshot() -> impl Strategy<Value = HistogramSnapshot> {
    (
        safe_u64(),
        safe_u64(),
        safe_u64(),
        safe_u64(),
        vec((safe_u64(), safe_u64()), 0..16usize),
    )
        .prop_map(|(count, sum, min, max, buckets)| HistogramSnapshot {
            count,
            sum,
            min,
            max,
            buckets,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quoted_strings_round_trip(s in text()) {
        let parsed = parse_json(&quote(&s)).expect("quote() output must parse");
        prop_assert_eq!(parsed, Json::Str(s));
    }

    #[test]
    fn rendered_values_reparse_identically(value in json_value(3)) {
        let text = value.render();
        let parsed = parse_json(&text).expect("render() output must parse");
        prop_assert_eq!(parsed, value);
    }

    #[test]
    fn rendering_is_a_fixed_point(value in json_value(2)) {
        // render -> parse -> render must converge after one step.
        let once = value.render();
        let twice = parse_json(&once).expect("must parse").render();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn span_snapshots_round_trip(nodes in vec(span_node(), 0..8usize)) {
        let snapshot = SpanSnapshot { nodes };
        let text = spans_to_json(&snapshot);
        let parsed = parse_json(&text).expect("spans_to_json output must parse");
        prop_assert_eq!(spans_from_json(&parsed), Some(snapshot));
    }

    #[test]
    fn histogram_snapshots_round_trip(snapshot in histogram_snapshot()) {
        let text = histogram_to_json(&snapshot);
        let parsed = parse_json(&text).expect("histogram_to_json output must parse");
        prop_assert_eq!(histogram_from_json(&parsed), Some(snapshot));
    }

    #[test]
    fn run_started_events_survive_evil_circuit_names(
        circuit in text(),
        total_faults in 0usize..1_000_000,
        seed in safe_u64(),
    ) {
        let event = RunEvent::RunStarted {
            circuit: circuit.clone(),
            total_faults,
            seed,
        };
        let parsed = parse_json(&event_to_json(&event)).expect("event must parse");
        prop_assert_eq!(parsed.get("event").and_then(Json::as_str), Some("run_started"));
        prop_assert_eq!(parsed.get("circuit").and_then(Json::as_str), Some(circuit.as_str()));
        prop_assert_eq!(
            parsed.get("total_faults").and_then(Json::as_u64),
            Some(total_faults as u64)
        );
        prop_assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(seed));
    }

    #[test]
    fn ga_generation_events_preserve_float_fitness(
        best in number(),
        mean in number(),
        generation in 0usize..100_000,
    ) {
        let event = RunEvent::GaGenerationEvaluated {
            phase: 2,
            generation,
            best,
            mean,
            evaluations: 64,
        };
        let parsed = parse_json(&event_to_json(&event)).expect("event must parse");
        prop_assert_eq!(parsed.get("best").and_then(Json::as_f64), Some(best));
        prop_assert_eq!(parsed.get("mean").and_then(Json::as_f64), Some(mean));
        prop_assert_eq!(
            parsed.get("generation").and_then(Json::as_u64),
            Some(generation as u64)
        );
    }

    #[test]
    fn fault_detected_events_escape_site_names(site in text(), fault in 0u32..10_000) {
        let event = RunEvent::FaultDetected { fault, site: site.clone(), vector: 7 };
        let parsed = parse_json(&event_to_json(&event)).expect("event must parse");
        prop_assert_eq!(parsed.get("site").and_then(Json::as_str), Some(site.as_str()));
        prop_assert_eq!(parsed.get("fault").and_then(Json::as_u64), Some(u64::from(fault)));
    }
}

/// Every strict prefix of a real trace line is an error, and the whole
/// line parses.
#[test]
fn trace_lines_truncated_at_every_byte_are_errors() {
    for line in TRACE.lines() {
        assert!(parse_json(line).is_ok());
        for cut in 0..line.len() {
            assert!(parse_json(&line[..cut]).is_err(), "prefix {cut}");
        }
    }
}

proptest! {
    // Each case parses every prefix of a ~1.5 KB line.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A trace line with one byte overwritten from the JSON token alphabet
    /// and then cut short at every byte parses to `Ok` or `Err` and never
    /// panics.
    #[test]
    fn truncated_trace_lines_never_panic(
        line in 0usize..2,
        at in any::<usize>(),
        byte in 0usize..TOKEN_BYTES.len(),
    ) {
        let original = TRACE.lines().nth(line).expect("two trace lines");
        prop_assert!(original.is_ascii());
        let mut damaged = original.as_bytes().to_vec();
        let at = at % damaged.len();
        damaged[at] = TOKEN_BYTES[byte];
        let damaged = String::from_utf8(damaged).expect("ASCII stays UTF-8");
        for cut in 0..=damaged.len() {
            let _ = parse_json(&damaged[..cut]);
        }
    }
}
