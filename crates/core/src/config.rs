//! The run configuration: the one place the `DSV_*` environment knobs are
//! read.
//!
//! | variable       | effect                                              |
//! |----------------|-----------------------------------------------------|
//! | `DSV_THREADS`  | runner worker count (`1` = serial; default: all cores) |
//! | `DSV_CACHE`    | `0`/`off` disables the result cache; a path overrides its location (default `results/cache/`) |
//! | `DSV_PROGRESS` | flag forcing the runner's progress meter on or off (default: on when stderr is a TTY) |
//! | `DSV_PROFILE`  | flag: print each runner batch's stage report on stderr |
//! | `DSV_AUDIT`    | flag: audit every [`crate::execute`] run |
//! | `DSV_REGEN`    | flag: [`crate::golden::golden`] re-simulates and rewrites its file |
//!
//! A count is a positive integer; a flag is `1`/`true`/`on` or
//! `0`/`false`/`off`, surrounding whitespace ignored. Misconfiguration must
//! never panic a long sweep or silently change it: an unusable value warns
//! on stderr and reads as if the variable were unset, so the default
//! applies. [`RunConfig::get`] reads the process environment once, so each
//! warning prints once per process.

use std::io::IsTerminal;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Every knob of a run, typed and with its default applied.
#[derive(Debug)]
pub struct RunConfig {
    /// Runner worker threads (`DSV_THREADS`).
    pub threads: usize,
    /// The result cache directory, `None` when the cache is off
    /// (`DSV_CACHE`).
    pub cache_dir: Option<PathBuf>,
    /// Whether the runner prints its progress meter (`DSV_PROGRESS`).
    pub progress: bool,
    /// Whether each runner batch prints its stage report (`DSV_PROFILE`).
    pub profile: bool,
    /// Whether every executed run is audited (`DSV_AUDIT`).
    pub audit: bool,
    /// Whether goldens are re-simulated and rewritten (`DSV_REGEN`).
    pub regen: bool,
}

impl RunConfig {
    /// The process's configuration, read from its environment on first
    /// use. One process-wide value rather than one passed down from
    /// `main`, so that `DSV_AUDIT=1 cargo test` audits every run a test
    /// executes directly too.
    pub fn get() -> &'static RunConfig {
        static CONFIG: OnceLock<RunConfig> = OnceLock::new();
        CONFIG.get_or_init(|| RunConfig::from_vars(|name| std::env::var(name).ok()))
    }

    /// The configuration the variables `var(name)` returns describe
    /// (`None`: unset). Reads nothing else of the environment; an unusable
    /// value warns on stderr.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> RunConfig {
        let flag = |name: &str| {
            let v = var(name)?;
            match parse_flag(&v) {
                Ok(on) => Some(on),
                Err(why) => {
                    eprintln!("warning: ignoring {name}={v:?} ({why}); treating it as unset");
                    None
                }
            }
        };
        let default_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = match var("DSV_THREADS") {
            None => default_threads,
            Some(v) => parse_count(&v).unwrap_or_else(|why| {
                eprintln!(
                    "warning: ignoring DSV_THREADS={v:?} ({why}); using default {default_threads}"
                );
                default_threads
            }),
        };
        let cache_dir = match var("DSV_CACHE").as_deref().map(str::trim) {
            None => Some(crate::runner::results_dir().join("cache")),
            Some("0" | "off" | "") => None,
            Some(path) => Some(PathBuf::from(path)),
        };
        RunConfig {
            threads,
            cache_dir,
            progress: flag("DSV_PROGRESS").unwrap_or_else(|| std::io::stderr().is_terminal()),
            profile: flag("DSV_PROFILE").unwrap_or(false),
            audit: flag("DSV_AUDIT").unwrap_or(false),
            regen: flag("DSV_REGEN").unwrap_or(false),
        }
    }
}

/// A value as a positive count, or the reason it is unusable.
fn parse_count(raw: &str) -> Result<usize, &'static str> {
    match raw.trim() {
        "" => Err("value is empty"),
        t => match t.parse::<usize>() {
            Ok(0) => Err("count must be at least 1"),
            Ok(n) => Ok(n),
            Err(_) => Err("not a positive integer"),
        },
    }
}

/// A value as a flag, or the reason it is unusable.
fn parse_flag(raw: &str) -> Result<bool, &'static str> {
    match raw.trim() {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        "" => Err("value is empty"),
        _ => Err("expected 1/true/on or 0/false/off"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The configuration of an environment holding exactly `vars`.
    fn config(vars: &[(&str, &str)]) -> RunConfig {
        let vars: HashMap<&str, &str> = vars.iter().copied().collect();
        RunConfig::from_vars(|name| vars.get(name).map(|v| v.to_string()))
    }

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
    fn thread_counts_apply_and_unusable_ones_keep_the_default() {
        let default = config(&[]).threads;
        assert!(default >= 1);
        assert_eq!(config(&[("DSV_THREADS", "3")]).threads, 3);
        for bad in ["0", "many", ""] {
            assert_eq!(config(&[("DSV_THREADS", bad)]).threads, default, "{bad:?}");
        }
    }

    #[test]
    fn flags_read_unset_and_unusable_as_their_default() {
        let unset = config(&[]);
        assert!(!unset.profile && !unset.audit && !unset.regen);
        let on = config(&[
            ("DSV_PROFILE", "1"),
            ("DSV_AUDIT", " true "),
            ("DSV_REGEN", "on"),
            ("DSV_PROGRESS", "on"),
        ]);
        assert!(on.profile && on.audit && on.regen && on.progress);
        assert!(!config(&[("DSV_PROGRESS", "off")]).progress);
        assert!(!config(&[("DSV_AUDIT", "yes")]).audit);
        assert_eq!(config(&[("DSV_PROGRESS", "yes")]).progress, unset.progress);
    }

    #[test]
    fn the_cache_turns_off_or_moves() {
        let default = config(&[]).cache_dir.expect("on by default");
        assert!(default.ends_with("results/cache"));
        for off in ["0", "off", "", " off "] {
            assert_eq!(config(&[("DSV_CACHE", off)]).cache_dir, None, "{off:?}");
        }
        assert_eq!(
            config(&[("DSV_CACHE", " /tmp/c ")]).cache_dir,
            Some(PathBuf::from("/tmp/c"))
        );
    }

    #[test]
    fn reads_exactly_the_six_knobs() {
        let asked = std::cell::RefCell::new(Vec::new());
        RunConfig::from_vars(|name| {
            asked.borrow_mut().push(name.to_string());
            None
        });
        let mut asked = asked.into_inner();
        asked.sort();
        assert_eq!(
            asked,
            [
                "DSV_AUDIT",
                "DSV_CACHE",
                "DSV_PROFILE",
                "DSV_PROGRESS",
                "DSV_REGEN",
                "DSV_THREADS"
            ]
        );
    }
}
