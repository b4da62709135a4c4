//! A line-oriented Rust scrubber: the lexical front half of simlint.
//!
//! Rules never see raw source. [`scrub`] walks the file once with a small
//! state machine and hands each line back in two channels:
//!
//! * `code` — the source text with comment bodies and string/char-literal
//!   contents blanked out (the delimiters survive, so token boundaries
//!   and brace structure are preserved). Pattern matching on this channel
//!   cannot be fooled by a forbidden API name inside a doc comment or a
//!   format string.
//! * `comment` — the concatenated comment text of the line, which is
//!   where `simlint::allow(...)` annotations and invariant comments live.
//!
//! A second pass tracks `#[cfg(test)]` items by brace depth and marks
//! every line inside them `in_test`, so rules can exempt unit-test
//! modules without any path heuristics.

/// One scrubbed source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code text with comments and literal contents blanked.
    pub code: String,
    /// Plain (non-doc) comment text on this line — the channel
    /// `simlint::allow` annotations and invariant comments live in.
    pub comment: String,
    /// Doc-comment text (`///`, `//!`, `/** */`) on this line. Kept
    /// separate so prose *examples* of forbidden APIs or allow syntax
    /// in rustdoc never register as live annotations.
    pub doc: String,
    /// Whether the line sits inside a `#[cfg(test)]` item's braces.
    pub in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    /// A `//` comment; `doc` is true for `///` and `//!` forms.
    LineComment {
        doc: bool,
    },
    /// Block comments nest in Rust; the payload is the nesting depth.
    BlockComment {
        depth: u32,
        doc: bool,
    },
    Str,
    /// Raw string; the payload is the number of `#`s in the delimiter.
    RawStr(u32),
}

/// Scrubs `source` into per-line code/comment channels and marks
/// `#[cfg(test)]` regions.
pub fn scrub(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, State::LineComment { .. }) {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    let doc = matches!(chars.get(i + 2), Some(&'/') | Some(&'!'));
                    state = State::LineComment { doc };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    let doc = matches!(chars.get(i + 2), Some(&'*') | Some(&'!'));
                    state = State::BlockComment { depth: 1, doc };
                    i += 2;
                } else if let Some(hashes) = raw_string_start(&chars, i) {
                    // `r"`, `r#"`, `br##"` … — emit the opening quote so
                    // tokens on either side stay separated.
                    cur.code.push('"');
                    state = State::RawStr(hashes);
                    i += raw_prefix_len(&chars, i) + 1;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                } else if c == '\'' {
                    i = lex_quote(&chars, i, &mut cur.code);
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment { doc } => {
                if doc {
                    cur.doc.push(c);
                } else {
                    cur.comment.push(c);
                }
                i += 1;
            }
            State::BlockComment { depth, doc } => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment { depth: depth + 1, doc };
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment { depth: depth - 1, doc }
                    };
                    i += 2;
                } else {
                    if doc {
                        cur.doc.push(c);
                    } else {
                        cur.comment.push(c);
                    }
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char, whatever it is
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    mark_test_regions(&mut lines);
    lines
}

/// Is `i` the start of a raw (byte) string literal? Returns the hash
/// count if so. The char before must not be an identifier char, or the
/// `r` could be the tail of an identifier like `var`.
fn raw_string_start(chars: &[char], i: usize) -> Option<u32> {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Length of the raw-string prefix up to (excluding) the opening quote.
fn raw_prefix_len(chars: &[char], i: usize) -> usize {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // the `r`
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    j - i
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Handles a `'` in code position: a char literal (contents blanked) or
/// a lifetime (passed through). Returns the next index.
fn lex_quote(chars: &[char], i: usize, code: &mut String) -> usize {
    let next = chars.get(i + 1).copied();
    if next == Some('\\') {
        // Escaped char literal: skip to the closing quote.
        code.push_str("' '");
        let mut j = i + 2;
        if chars.get(j).is_some() {
            j += 1; // the escaped char itself ('\n', '\'', '\u')
        }
        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
            j += 1; // tail of \u{…} escapes
        }
        j + 1
    } else if chars.get(i + 2) == Some(&'\'') && next.is_some() {
        // Plain 'x' char literal.
        code.push_str("' '");
        i + 3
    } else {
        // A lifetime: keep it verbatim (it is code, and contains no
        // quotes to confuse the scanner).
        code.push('\'');
        i + 1
    }
}

/// An identifier character for token-boundary purposes.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Marks lines inside `#[cfg(test)]` items by tracking brace depth: the
/// attribute arms a flag, the next `{` opens a test region at the
/// current depth, and the region closes when depth falls back to it.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut armed = false;
    let mut stack: Vec<i64> = Vec::new();
    for line in lines.iter_mut() {
        let mut in_test = !stack.is_empty();
        if line.code.contains("#[cfg(test)]") {
            armed = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if armed {
                        stack.push(depth);
                        armed = false;
                    }
                    depth += 1;
                    in_test = in_test || !stack.is_empty();
                }
                '}' => {
                    depth -= 1;
                    if stack.last().is_some_and(|&d| depth <= d) {
                        stack.pop();
                    }
                }
                _ => {}
            }
        }
        line.in_test = in_test;
    }
}

/// Does `code` contain `pat` as a whole token — i.e. not embedded in a
/// longer identifier on either side? `pat` itself may contain `::` or
/// `.`; only its outer boundaries are checked.
pub fn has_token(code: &str, pat: &str) -> bool {
    find_token(code, pat, 0).is_some()
}

/// The byte offset of the first whole-token occurrence of `pat` at or
/// after `from`, if any.
pub fn find_token(code: &str, pat: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(off) = code[start..].find(pat) {
        let pos = start + off;
        let before_ok = code[..pos].chars().next_back().map_or(true, |c| !is_ident_char(c));
        let after_ok = code[pos + pat.len()..].chars().next().map_or(true, |c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scrub(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_moved_to_the_comment_channel() {
        let lines = scrub("let x = 1; // Instant::now() in prose\n");
        assert!(!lines[0].code.contains("Instant"));
        assert!(lines[0].comment.contains("Instant::now()"));
    }

    #[test]
    fn doc_comments_and_nested_block_comments_are_scrubbed() {
        let src = "/// uses HashMap iteration\n/* outer /* inner */ still comment */ fn f() {}\n";
        let c = codes(src);
        assert_eq!(c[0].trim(), "");
        assert_eq!(c[1].trim(), "fn f() {}");
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_survive() {
        let c = codes("let s = \"println!(\\\"HashMap\\\")\";\n");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("\"\""));
        assert!(c[0].ends_with(';'));
    }

    #[test]
    fn raw_strings_hide_their_contents_including_quotes() {
        let c = codes("let s = r#\"He said \"SystemTime::now\" loudly\"#; let t = 2;\n");
        assert!(!c[0].contains("SystemTime"));
        assert!(c[0].contains("let t = 2;"));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let c =
            codes("fn f<'a>(x: &'a str) -> char { if x.starts_with('{') { '}' } else { 'q' } }\n");
        // Literal braces inside char literals must not reach the code
        // channel, or brace tracking would desynchronize.
        let opens = c[0].matches('{').count();
        let closes = c[0].matches('}').count();
        assert_eq!(opens, 3, "fn + then + else blocks, not the '{{' literal");
        assert_eq!(closes, 3);
        assert!(c[0].contains("<'a>"));
    }

    #[test]
    fn multi_line_strings_stay_scrubbed_across_lines() {
        let c = codes("let s = \"first\nsecond HashMap\nthird\"; let x = 1;\n");
        assert!(!c[1].contains("HashMap"));
        assert!(c[2].contains("let x = 1;"));
    }

    #[test]
    fn cfg_test_region_is_marked_by_brace_depth() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { work(); }\n}\nfn after() {}\n";
        let lines = scrub(src);
        assert!(!lines[0].in_test, "code before the attribute");
        assert!(lines[3].in_test, "body of the test mod");
        assert!(!lines[5].in_test, "code after the closing brace");
    }

    #[test]
    fn token_boundaries_reject_identifier_tails() {
        assert!(has_token("schedule_app(sim)", "schedule_app"));
        assert!(!has_token("schedule_app_in(sim)", "schedule_app"));
        assert!(!has_token("my_schedule_app(sim)", "schedule_app"));
        assert!(has_token("use std::thread;", "std::thread"));
        assert!(has_token("std::thread::spawn(f)", "std::thread"));
    }
}
