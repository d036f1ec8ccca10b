//! The token check's view of Rust source: comments and string and char
//! literals blanked out, and nothing more. No token stream, no parse.

/// `src` with comments and string and char literals blanked to spaces;
/// newlines stay, so line numbers do too.
pub fn strip(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let ident = |i: usize| c[i].is_alphanumeric() || c[i] == '_';
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < c.len() {
        let rest = &c[i..];
        // A `b` prefix of a byte literal is blanked with the literal.
        let byte = i > 0 && c[i - 1] == 'b' && (i < 2 || !ident(i - 2));
        let raw_hashes = (rest[0] == 'r' && (i == 0 || !ident(i - 1) || byte))
            .then(|| rest[1..].iter().take_while(|&&x| x == '#').count())
            .filter(|&n| rest.get(n + 1) == Some(&'"'));
        let len = match (raw_hashes, rest) {
            (Some(n), _) => {
                let body = &rest[n + 2..];
                let close = (0..body.len()).find(|&k| {
                    body[k] == '"'
                        && body[k + 1..].iter().take(n).filter(|&&x| x == '#').count() == n
                });
                close.map_or(rest.len(), |k| n + 2 + k + 1 + n)
            }
            (_, ['/', '/', ..]) => rest.iter().position(|&x| x == '\n').unwrap_or(rest.len()),
            (_, ['/', '*', ..]) => {
                let mut depth = 0;
                let mut k = 0;
                while k < rest.len() {
                    match (rest[k], rest.get(k + 1)) {
                        ('/', Some('*')) => (depth, k) = (depth + 1, k + 2),
                        ('*', Some('/')) => (depth, k) = (depth - 1, k + 2),
                        _ => k += 1,
                    }
                    if depth == 0 {
                        break;
                    }
                }
                k
            }
            (_, ['"', ..]) => {
                let mut k = 1;
                while k < rest.len() && rest[k] != '"' {
                    k += if rest[k] == '\\' { 2 } else { 1 };
                }
                k + 1
            }
            (_, ['\'', '\\', ..]) => rest
                .get(3..)
                .and_then(|r| r.iter().position(|&x| x == '\''))
                .map_or(1, |p| p + 4),
            (_, ['\'', _, '\'', ..]) => 3,
            _ => 0,
        };
        if len == 0 {
            out.push(rest[0]);
            i += 1;
        } else {
            if byte && rest[0] != '/' {
                out.pop();
                out.push(' ');
            }
            let end = (i + len).min(c.len());
            out.extend(
                c[i..end]
                    .iter()
                    .map(|&x| if x == '\n' { '\n' } else { ' ' }),
            );
            i = end;
        }
    }
    out
}

/// The library code of a file, blanked by [`strip`], line by line and
/// numbered from one: everything before its first column-0 `#[cfg(test)]`.
pub fn code_lines(src: &str) -> Vec<(usize, String)> {
    let library = src.find("\n#[cfg(test)]").map_or(src, |p| &src[..p + 1]);
    (1..)
        .zip(strip(library).lines().map(String::from))
        .collect()
}

/// A numeric literal that is a float: `0.0`, `1.5e3`, `1e-9`, `2f64`.
pub fn is_float(tok: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.chars().all(|x| x.is_ascii_digit() || x == '_');
    let fraction = tok
        .split('.')
        .nth(1)
        .is_some_and(|f| f.starts_with(|x: char| x.is_ascii_digit()));
    let exponent = tok.split(['e', 'E']).next().is_some_and(digits) && tok.contains(['e', 'E']);
    tok.starts_with(|x: char| x.is_ascii_digit())
        && !tok.starts_with("0x")
        && !tok.starts_with("0b")
        && !tok.starts_with("0o")
        && (fraction || exponent || tok.ends_with("f64") || tok.ends_with("f32"))
}

/// The operands of each `==` and `!=` on a stripped line, left to right: the
/// word, path or literal directly on either side, a leading `-` dropped.
pub fn comparisons(line: &str) -> Vec<(&str, &str)> {
    let word = |x: char| x.is_alphanumeric() || x == '_' || x == '.';
    let mut ops: Vec<(usize, &str)> = ["==", "!="]
        .iter()
        .flat_map(|op| line.match_indices(op))
        .collect();
    ops.sort_unstable();
    ops.into_iter()
        .map(|(at, op)| {
            let before = line[..at].trim_end();
            let mut left = &before[before.trim_end_matches(word).len()..];
            // A negative exponent (`1e-9`) splits the left literal.
            let head = &before[..before.len() - left.len()];
            if let Some(h) = head
                .strip_suffix(['-', '+'])
                .filter(|h| h.ends_with(['e', 'E']))
            {
                left = &before[h.trim_end_matches(word).len()..];
            }
            let after = line[at + op.len()..].trim_start();
            let after = after.strip_prefix('-').unwrap_or(after).trim_start();
            (
                left,
                &after[..after.find(|x| !word(x)).unwrap_or(after.len())],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<String> {
        strip(src).split_whitespace().map(String::from).collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = "let x = \"HashMap\"; // HashMap here\n\
                   /* HashSet /* nested */ RefCell */ let y = \"a\\\"static\\\"\";";
        assert_eq!(words(src), ["let", "x", "=", ";", "let", "y", "=", ";"]);
        assert_eq!(strip(src).lines().count(), 2);
    }

    #[test]
    fn float_vs_int_vs_range() {
        for float in ["1.0", "1e9", "1e-9", "2.5f64", "2f32", "1_000.0"] {
            assert!(is_float(float), "{float}");
        }
        for other in ["0x1E", "0b1", "10", "1..2", "1..=2", "3.max", "a.0", "x"] {
            assert!(!is_float(other), "{other}");
        }
    }

    /// A lifetime is skipped over, not read as an unclosed char literal;
    /// a char literal, `'"'` and `'\''` included, is kept to its own
    /// length, so the code after it stays code.
    #[test]
    fn lifetimes_are_skipped_chars_kept() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let q = '\\''; let n = '\\n'; g }";
        assert_eq!(
            words(src),
            [
                "fn", "f<'a>(x:", "&'a", "str)", "{", "let", "c", "=", ";", "let", "q", "=", ";",
                "let", "n", "=", ";", "g", "}"
            ]
        );
    }

    #[test]
    fn multi_char_punct_is_atomic() {
        let line = "a == b != c <= d >= e => f += g -= h ..= i";
        assert_eq!(comparisons(line), [("a", "b"), ("b", "c")]);
        assert_eq!(comparisons("1e-9 == x"), [("1e-9", "x")]);
        assert_eq!(comparisons("x!=-1.5"), [("x", "1.5")]);
    }

    #[test]
    fn raw_strings_consume_hashes() {
        let src = "let s = r#\"a \" HashMap \"#; let t = 5; \
                   let u = r##\"\"# Cell\"##; let b = br\"static\"; let c = b\"RwLock\";";
        assert_eq!(
            words(src),
            [
                "let", "s", "=", ";", "let", "t", "=", "5;", "let", "u", "=", ";", "let", "b", "=",
                ";", "let", "c", "=", ";"
            ]
        );
    }

    #[test]
    fn positions_are_one_based() {
        let lines = code_lines("a\n  b /* c\n */ d");
        assert_eq!(
            lines,
            [
                (1, "a".to_string()),
                (2, "  b     ".to_string()),
                (3, "    d".to_string())
            ]
        );
    }
}
