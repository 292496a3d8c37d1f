//! Shared parsing for `DSV_*` environment knobs: the one module that
//! reads the environment.
//!
//! Three shapes: `DSV_THREADS` is a positive count; `DSV_PROGRESS`,
//! `DSV_PROFILE`, `DSV_AUDIT` and `DSV_REGEN` are flags, spelled
//! `1`/`true`/`on` or `0`/`false`/`off` (surrounding whitespace ignored);
//! and `DSV_CACHE` and `DSV_CLUSTER` are text their reader parses.
//! Misconfiguration must never panic a long sweep or silently change it:
//! an unusable value warns on stderr and reads as if the variable were
//! unset, so the caller's documented default applies.

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

/// Parse a raw environment value as a flag: `1`/`true`/`on` is `true`,
/// `0`/`false`/`off` is `false`, after trimming. Pure, like
/// [`parse_count`].
pub fn parse_flag(raw: &str) -> Result<bool, &'static str> {
    match raw.trim() {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        "" => Err("value is empty"),
        _ => Err("expected 1/true/on or 0/false/off"),
    }
}

/// Read a flag from the environment variable `var`: `None` when unset,
/// and also when set but unusable, with a one-line warning on stderr.
pub fn flag_from_env(var: &str) -> Option<bool> {
    let v = std::env::var(var).ok()?;
    match parse_flag(&v) {
        Ok(on) => Some(on),
        Err(why) => {
            eprintln!("warning: ignoring {var}={v:?} ({why}); treating it as unset");
            None
        }
    }
}

/// Read the environment variable `var` as text, trimmed: `None` when
/// unset (or not valid Unicode).
pub fn text_from_env(var: &str) -> Option<String> {
    std::env::var(var).ok().map(|v| v.trim().to_string())
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

    #[test]
    fn flags_parse_both_spellings_and_reject_the_rest() {
        for on in ["1", "true", "on", " on\n", "\ttrue "] {
            assert_eq!(parse_flag(on), Ok(true), "{on:?}");
        }
        for off in ["0", "false", "off", " off ", "0\n"] {
            assert_eq!(parse_flag(off), Ok(false), "{off:?}");
        }
        assert_eq!(parse_flag(""), Err("value is empty"));
        assert_eq!(parse_flag("  "), Err("value is empty"));
        for bad in ["yes", "no", "2", "ON", "enable", "-1"] {
            assert_eq!(
                parse_flag(bad),
                Err("expected 1/true/on or 0/false/off"),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn flag_env_reads_unset_and_unusable_as_none() {
        std::env::remove_var("DSV_TEST_FLAG_UNSET");
        assert_eq!(flag_from_env("DSV_TEST_FLAG_UNSET"), None);
        std::env::set_var("DSV_TEST_FLAG_OFF", "off");
        assert_eq!(flag_from_env("DSV_TEST_FLAG_OFF"), Some(false));
        std::env::set_var("DSV_TEST_FLAG_ON", " true ");
        assert_eq!(flag_from_env("DSV_TEST_FLAG_ON"), Some(true));
        std::env::set_var("DSV_TEST_FLAG_BAD", "yes");
        assert_eq!(flag_from_env("DSV_TEST_FLAG_BAD"), None);
    }
}
