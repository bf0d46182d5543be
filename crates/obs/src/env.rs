//! Unified `SDQ_*` environment-knob parsing.
//!
//! Every configuration knob in the workspace used to parse its own
//! environment variable with a private `and_then(parse).ok()` chain that
//! *silently* fell back to the default on a malformed value — a typo like
//! `SDQ_CHUNK_ROWS=fuor` quietly kept the default chunk size. This module is
//! the one funnel all of them go through now:
//!
//! * an **unset** variable is simply absent (`None`) — defaults apply
//!   quietly, as before;
//! * a **malformed** value (unparsable, or failing the knob's validity
//!   predicate, e.g. `0` where a positive count is required) also yields
//!   `None`, but logs a loud warning to stderr — **once per variable per
//!   process**, so a knob read in a hot loop cannot spam.
//!
//! Call sites keep their own `OnceLock` read-once caching where they had
//! it; this module only standardizes the parse-and-warn step.

use std::collections::HashSet;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

/// Variables already warned about (one loud line per variable per process).
fn warned() -> &'static Mutex<HashSet<&'static str>> {
    static WARNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Log the malformed-value warning for `name`, once per process.
fn warn_once(name: &'static str, value: &str, expected: &str) {
    let mut seen = warned().lock().unwrap_or_else(|e| e.into_inner());
    if seen.insert(name) {
        eprintln!(
            "WARNING: ignoring malformed environment variable {name}={value:?} \
             (expected {expected}); using the default instead"
        );
    }
}

/// Test hook: forget which variables have warned, so a test can observe
/// the once-per-process behavior deterministically.
#[cfg(test)]
fn reset_warned() {
    warned().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// The raw string value of `name`, if set (never warns — any string is a
/// valid string).
pub fn string(name: &'static str) -> Option<String> {
    std::env::var(name).ok()
}

/// Parse `name` as a `T`. Unset → `None`; set but unparsable → loud
/// one-time warning and `None`.
pub fn parse<T: FromStr>(name: &'static str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(name, &raw, std::any::type_name::<T>());
            None
        }
    }
}

/// Parse `name` as a **positive** count (`usize >= 1`). A `0` is as
/// malformed as `fuor` — thread pools, queue depths and chunk sizes have
/// no zero-sized meaning — and warns the same way.
pub fn positive(name: &'static str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(v) if v >= 1 => Some(v),
        _ => {
            warn_once(name, &raw, "a positive integer");
            None
        }
    }
}

/// Parse `name` as an on/off flag: `1`/`true`/`yes`/`on` are true,
/// `0`/`false`/`no`/`off` are false (case-insensitive), anything else
/// warns and reads as unset.
pub fn flag(name: &'static str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" => Some(false),
        _ => {
            warn_once(
                name,
                &raw,
                "a boolean flag (1/true/yes/on or 0/false/no/off)",
            );
            None
        }
    }
}

/// Parse `name` as a byte size: a plain integer, optionally suffixed with
/// `k`/`m`/`g` (case-insensitive, powers of 1024) — `SDQ_MEM_BUDGET=64m`.
/// Zero is valid (it means "spill everything sealed").
pub fn bytes(name: &'static str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    let t = raw.trim();
    let (digits, shift) = match t.as_bytes().last().map(u8::to_ascii_lowercase) {
        Some(b'k') => (&t[..t.len() - 1], 10),
        Some(b'm') => (&t[..t.len() - 1], 20),
        Some(b'g') => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    match digits.trim().parse::<usize>() {
        Ok(v) => Some(v << shift),
        Err(_) => {
            warn_once(name, &raw, "a byte size like 8388608, 8192k, 64m or 1g");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Env mutation is process-global: serialize these tests.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static L: OnceLock<StdMutex<()>> = OnceLock::new();
        L.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unset_is_none_without_warning() {
        let _l = lock();
        reset_warned();
        assert_eq!(parse::<usize>("SDQ_TEST_UNSET"), None);
        assert!(!warned().lock().unwrap().contains("SDQ_TEST_UNSET"));
    }

    #[test]
    fn malformed_warns_once_and_falls_back() {
        let _l = lock();
        reset_warned();
        std::env::set_var("SDQ_TEST_BAD", "fuor");
        assert_eq!(parse::<usize>("SDQ_TEST_BAD"), None);
        assert!(warned().lock().unwrap().contains("SDQ_TEST_BAD"));
        // Second read: still None, and the warned set shows one entry —
        // warn_once only prints on first insertion.
        assert_eq!(parse::<usize>("SDQ_TEST_BAD"), None);
        std::env::remove_var("SDQ_TEST_BAD");
    }

    #[test]
    fn positive_rejects_zero() {
        let _l = lock();
        reset_warned();
        std::env::set_var("SDQ_TEST_ZERO", "0");
        assert_eq!(positive("SDQ_TEST_ZERO"), None, "0 is not a valid count");
        assert!(warned().lock().unwrap().contains("SDQ_TEST_ZERO"));
        std::env::set_var("SDQ_TEST_ZERO", "3");
        assert_eq!(positive("SDQ_TEST_ZERO"), Some(3));
        std::env::remove_var("SDQ_TEST_ZERO");
    }

    #[test]
    fn flags_cover_both_polarities() {
        let _l = lock();
        reset_warned();
        for (v, want) in [
            ("1", Some(true)),
            ("on", Some(true)),
            ("YES", Some(true)),
            ("0", Some(false)),
            ("off", Some(false)),
            ("maybe", None),
        ] {
            std::env::set_var("SDQ_TEST_FLAG", v);
            assert_eq!(flag("SDQ_TEST_FLAG"), want, "value {v:?}");
        }
        std::env::remove_var("SDQ_TEST_FLAG");
    }

    #[test]
    fn byte_sizes_take_suffixes() {
        let _l = lock();
        reset_warned();
        for (v, want) in [
            ("4096", Some(4096usize)),
            ("8k", Some(8 << 10)),
            ("64M", Some(64 << 20)),
            ("1g", Some(1 << 30)),
            ("10 m", Some(10 << 20)),
            ("lots", None),
        ] {
            std::env::set_var("SDQ_TEST_BYTES", v);
            assert_eq!(bytes("SDQ_TEST_BYTES"), want, "value {v:?}");
        }
        std::env::remove_var("SDQ_TEST_BYTES");
    }
}
