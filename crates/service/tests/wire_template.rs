//! No `unwrap` or `expect` in the `wire!` template.
//!
//! `protocol.rs` denies `clippy::unwrap_used` and `clippy::expect_used`
//! outside tests, but clippy does not report code expanded from a
//! `macro_rules!` template, so the readers and writers `wire!` generates
//! for every wire op, journal record and fact are checked here, on the
//! template's source text.

const PROTOCOL: &str = include_str!("../src/protocol.rs");

/// The head of every reader the template generates.
const READER: &str = "fn read_fields<'a, F: ::serde_json::Node<'a>>";

/// The text of `macro_rules! wire { .. }`, from its opening to its
/// matching closing brace.
fn wire_template(source: &str) -> &str {
    let start = source
        .find("macro_rules! wire {")
        .expect("protocol.rs defines the wire! template");
    let mut depth = 0usize;
    for (at, c) in source[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &source[start..=start + at];
                }
            }
            _ => {}
        }
    }
    panic!("the wire! template is never closed");
}

/// The lines of `template` that call `unwrap()` or `expect(`.
fn panicking_lines(template: &str) -> Vec<&str> {
    template
        .lines()
        .filter(|line| line.contains(".unwrap()") || line.contains(".expect("))
        .collect()
}

#[test]
fn the_wire_template_neither_unwraps_nor_expects() {
    let template = wire_template(PROTOCOL);
    // The body isolated is the whole generator, not a prefix of it.
    for arm in [READER, "Fields for $Name", "pub fn from_line"] {
        assert!(template.contains(arm), "the template generates `{arm}`");
    }
    assert_eq!(panicking_lines(template), Vec::<&str>::new());
}

#[test]
fn a_planted_unwrap_is_found() {
    let plant = format!("fn planted() {{ None::<u8>.unwrap(); }}\n{READER}");
    let planted = PROTOCOL.replacen(READER, &plant, 1);
    assert_eq!(panicking_lines(wire_template(&planted)).len(), 1);
}
