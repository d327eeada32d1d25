//! Robustness of the two netlist parsers against damaged input: `.bench`
//! and structural Verilog text of bundled circuits, cut short at every
//! character boundary or hit by one random byte edit drawn from the
//! grammar's own token alphabet, must parse to `Ok` or a typed error and
//! never panic. Whatever does parse must be a circuit the writers can
//! serialize and the parsers read back.

use proptest::prelude::*;

use gatest_netlist::benchmarks::iscas89;
use gatest_netlist::verilog::{parse_verilog, write_verilog};
use gatest_netlist::{parse_bench, write_bench};

/// Bytes `.bench` text is built from: structure, keywords, gate names,
/// identifiers and comments.
const BENCH_BYTES: &[u8] = b"()=,#\n \tINPUTOADFBXRNG_0123456789";

/// Bytes structural Verilog is built from: punctuation, keywords, primitive
/// names, identifiers, comments and escapes.
const VERILOG_BYTES: &[u8] = b"();,.=/*\\\n \tmoduleinputwrnadxbfDFFG_0123456789";

/// Bundled circuits small enough to re-parse hundreds of times per case.
const CIRCUITS: [&str; 2] = ["s27", "s298"];

/// One edit of `source`: replace the byte at `at` with `byte`, insert
/// `byte` before it, or delete it.
fn edit(source: &str, kind: u8, at: usize, byte: u8) -> String {
    assert!(source.is_ascii() && byte.is_ascii());
    let mut bytes = source.as_bytes().to_vec();
    let at = at % bytes.len();
    match kind % 3 {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        _ => {
            bytes.remove(at);
        }
    }
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

/// Parses `text` as `.bench`; a circuit that parses must survive a write
/// and re-parse.
fn check_bench(text: &str) {
    if let Ok(circuit) = parse_bench("fuzz", text) {
        parse_bench("fuzz", &write_bench(&circuit)).expect("written .bench re-parses");
    }
}

/// Parses `text` as Verilog; a circuit that parses must survive a write
/// and re-parse.
fn check_verilog(text: &str) {
    if let Ok(circuit) = parse_verilog(text) {
        parse_verilog(&write_verilog(&circuit)).expect("written Verilog re-parses");
    }
}

#[test]
fn truncated_bench_text_never_panics() {
    for name in CIRCUITS {
        let text = write_bench(&iscas89(name).unwrap());
        parse_bench(name, &text).expect("the untouched text parses");
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            check_bench(&text[..cut]);
        }
    }
}

#[test]
fn truncated_verilog_text_never_panics() {
    for name in CIRCUITS {
        let text = write_verilog(&iscas89(name).unwrap());
        parse_verilog(&text).expect("the untouched text parses");
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            check_verilog(&text[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edited_bench_text_never_panics(
        circuit in 0usize..CIRCUITS.len(),
        kind in any::<u8>(),
        at in any::<usize>(),
        byte in 0usize..BENCH_BYTES.len(),
    ) {
        let text = write_bench(&iscas89(CIRCUITS[circuit]).unwrap());
        check_bench(&edit(&text, kind, at, BENCH_BYTES[byte]));
    }

    #[test]
    fn edited_verilog_text_never_panics(
        circuit in 0usize..CIRCUITS.len(),
        kind in any::<u8>(),
        at in any::<usize>(),
        byte in 0usize..VERILOG_BYTES.len(),
    ) {
        let text = write_verilog(&iscas89(CIRCUITS[circuit]).unwrap());
        check_verilog(&edit(&text, kind, at, VERILOG_BYTES[byte]));
    }
}
