//! The few JSON encoders the benchmark's output needs.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints; JSON has no NaN or
/// infinity, so those become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON number or `null`.
pub fn option<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_strings_numbers_and_nulls() {
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\u000a\"");
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(option::<u64>(None), "null");
        assert_eq!(option(Some(3u32)), "3");
    }
}
