//! Shared parsing for numeric `DSV_*` environment knobs.
//!
//! `DSV_THREADS` is a positive count. Misconfiguration must never panic a
//! long sweep or silently serialize it: `0`, empty, or garbage values fall
//! back to the caller's documented default with a warning on stderr. (`DSV_QUEUE` deliberately keeps its panic-on-typo
//! behaviour — a silently wrong backend would make perf comparisons lie;
//! a silently default thread count merely changes wall-clock time.)

/// Parse a raw environment value as a positive count.
///
/// Returns the count, or a human-readable reason the value is unusable.
/// Pure (no environment access, no I/O) so the policy is unit-testable.
pub fn parse_count(raw: &str) -> Result<usize, &'static str> {
    let t = raw.trim();
    if t.is_empty() {
        return Err("value is empty");
    }
    match t.parse::<usize>() {
        Ok(0) => Err("count must be at least 1"),
        Ok(n) => Ok(n),
        Err(_) => Err("not a positive integer"),
    }
}

/// Read a positive count from the environment variable `var`.
///
/// Unset means `default` (silently); set-but-unusable (`0`, empty,
/// garbage) also means `default`, with a one-line warning on stderr so a
/// typo in a sweep script is visible instead of silently serializing.
pub fn count_from_env(var: &str, default: usize) -> usize {
    match std::env::var(var) {
        Err(_) => default,
        Ok(v) => match parse_count(&v) {
            Ok(n) => n,
            Err(why) => {
                eprintln!("warning: ignoring {var}={v:?} ({why}); using default {default}");
                default
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_counts_parse() {
        assert_eq!(parse_count("1"), Ok(1));
        assert_eq!(parse_count("8"), Ok(8));
        assert_eq!(parse_count(" 16 "), Ok(16));
    }

    #[test]
    fn zero_empty_and_garbage_are_rejected_with_reasons() {
        assert_eq!(parse_count("0"), Err("count must be at least 1"));
        assert_eq!(parse_count(""), Err("value is empty"));
        assert_eq!(parse_count("   "), Err("value is empty"));
        assert_eq!(parse_count("banana"), Err("not a positive integer"));
        assert_eq!(parse_count("-3"), Err("not a positive integer"));
        assert_eq!(parse_count("2.5"), Err("not a positive integer"));
        assert_eq!(parse_count("1e3"), Err("not a positive integer"));
    }

    #[test]
    fn env_fallback_uses_default() {
        // Unset: default, no warning path involved.
        std::env::remove_var("DSV_TEST_COUNT_UNSET");
        assert_eq!(count_from_env("DSV_TEST_COUNT_UNSET", 4), 4);
        // Set but unusable: default (warning goes to stderr).
        std::env::set_var("DSV_TEST_COUNT_BAD", "zero");
        assert_eq!(count_from_env("DSV_TEST_COUNT_BAD", 4), 4);
        std::env::set_var("DSV_TEST_COUNT_ZERO", "0");
        assert_eq!(count_from_env("DSV_TEST_COUNT_ZERO", 4), 4);
        // Set and valid: the value.
        std::env::set_var("DSV_TEST_COUNT_OK", "7");
        assert_eq!(count_from_env("DSV_TEST_COUNT_OK", 4), 7);
    }
}
