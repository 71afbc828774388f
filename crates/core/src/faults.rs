//! # faults — deterministic fault injection
//!
//! A process-wide registry of named **fault points** that the storage,
//! lifecycle, and serving layers consult at their failure-prone
//! boundaries. Production runs never pay for it: the fast path is one
//! relaxed [`AtomicBool`] load ([`check`] returns `None` immediately
//! when no rules are installed). Chaos tests and operators arm it with
//! a seeded schedule — via [`install_from_spec`], the `SLING_FAULTS`
//! environment variable ([`install_from_env`]), or `serve --faults` —
//! and every layer above observes *exactly* the same failure sequence
//! on every run.
//!
//! ## Fault points
//!
//! The instrumented sites are named like metrics, `layer.operation`
//! (see [`point`]; [`point::ALL`] lists them): `mmap.validate` (reading
//! and validating one entry run in `MmapHpArena`, the mapped backend of
//! every format, so it covers every mapped read), `lifecycle.publish` /
//! `lifecycle.promote` (the rename and `CURRENT` swap in
//! `GenerationStore`), and `server.accept` / `server.read` /
//! `server.write` (the acceptor and per-connection IO in
//! `sling-server`). A spec naming any other point is rejected, so a
//! stale schedule cannot install rules that never fire.
//!
//! ## Schedule grammar
//!
//! A spec is `;`-separated rules; each rule is
//! `point:action[:key=value]...`:
//!
//! ```text
//! server.read:error:every=3:times=10
//! server.write:delay:delay_us=2000:p=0.5:seed=7
//! mmap.validate:corrupt:after=5:times=3
//! server.read:short_read:p=0.25:seed=42
//! ```
//!
//! Actions are [`FaultAction::Error`] (synthesize an IO error),
//! [`FaultAction::ShortRead`] (truncate the buffer the site just
//! filled), [`FaultAction::Delay`] (sleep `delay_us`), and
//! [`FaultAction::Corrupt`] (flip a byte so the checksum/validation
//! layer must catch it). Selectors compose: `after=N` skips the first
//! N hits, `first=N` fires only on the first N hits after that,
//! `every=N` fires on every Nth, `p=X` fires with probability X from a
//! per-rule xorshift stream seeded by `seed=S` — so a schedule is a
//! pure function of the spec and the hit sequence, never of wall-clock
//! time. `times=N` caps total firings.
//!
//! Every firing increments `sling_faults_injected_total` (exported via
//! [`crate::obs::register_process_metrics`]) and a per-rule counter
//! visible through [`snapshot`], so a chaos run can assert both that
//! faults actually happened and how many.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Canonical fault-point names. Sites pass these to [`check`]; specs
/// name them on the left of each rule.
pub mod point {
    /// Reading and validating one entry run in `MmapHpArena`, for every
    /// format (`SLNGIDX1`, `SLNGIDX2` and `SLNGIDX3`).
    pub const MMAP_VALIDATE: &str = "mmap.validate";
    /// The staging→final rename in `GenerationStore::publish_bytes`.
    pub const LIFECYCLE_PUBLISH: &str = "lifecycle.publish";
    /// The `CURRENT` swap in `GenerationStore::promote`.
    pub const LIFECYCLE_PROMOTE: &str = "lifecycle.promote";
    /// The server acceptor's `accept()` loop.
    pub const SERVER_ACCEPT: &str = "server.accept";
    /// Per-connection reads in the server event loop.
    pub const SERVER_READ: &str = "server.read";
    /// Per-connection writes in the server event loop.
    pub const SERVER_WRITE: &str = "server.write";

    /// Every instrumented point; a spec may name only these.
    pub const ALL: [&str; 6] = [
        MMAP_VALIDATE,
        LIFECYCLE_PUBLISH,
        LIFECYCLE_PROMOTE,
        SERVER_ACCEPT,
        SERVER_READ,
        SERVER_WRITE,
    ];
}

/// What an armed fault point should do to the operation that hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with a synthesized `io::Error`.
    Error,
    /// Pretend the backing layer returned fewer bytes than asked.
    ShortRead,
    /// Stall the operation for the given duration before proceeding.
    Delay(Duration),
    /// Corrupt what the site just produced, so the validation layer
    /// above must detect it.
    Corrupt,
}

#[derive(Debug)]
struct Rule {
    point: String,
    action: FaultAction,
    /// Fire on every Nth hit (1 = every hit). 0 disables the modulus.
    every: u64,
    /// Skip this many hits before the rule becomes eligible.
    after: u64,
    /// Once eligible, only the first N hits may fire (0 = unlimited).
    first: u64,
    /// Cap on total firings (0 = unlimited).
    times: u64,
    /// Probability gate in [0, 1]; 1.0 = always.
    p: f64,
    /// xorshift64 state for the probability gate (deterministic).
    rng: u64,
    hits: u64,
    fired: u64,
}

impl Rule {
    fn next_f64(&mut self) -> f64 {
        // xorshift64: cheap, seedable, good enough for a fault gate.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn consider(&mut self) -> Option<FaultAction> {
        self.hits += 1;
        if self.times != 0 && self.fired >= self.times {
            return None;
        }
        if self.hits <= self.after {
            return None;
        }
        let eligible_hit = self.hits - self.after;
        if self.first != 0 && eligible_hit > self.first {
            return None;
        }
        if self.every > 1 && !eligible_hit.is_multiple_of(self.every) {
            return None;
        }
        if self.p < 1.0 && self.next_f64() >= self.p {
            return None;
        }
        self.fired += 1;
        Some(self.action)
    }
}

/// One rule's lifetime counters, for test assertions ([`snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleStats {
    /// The fault point the rule is attached to.
    pub point: String,
    /// How many times the point was hit while this rule was installed.
    pub hits: u64,
    /// How many times the rule actually fired.
    pub fired: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static RULES: Mutex<Vec<Rule>> = Mutex::new(Vec::new());

/// Consult the registry at a named fault point. Returns the action to
/// apply, or `None` (the overwhelmingly common case). When the
/// registry is disarmed this is a single relaxed atomic load.
#[inline]
pub fn check(point: &str) -> Option<FaultAction> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    check_slow(point)
}

#[cold]
fn check_slow(point: &str) -> Option<FaultAction> {
    let mut rules = RULES.lock().unwrap_or_else(|e| e.into_inner());
    for rule in rules.iter_mut() {
        if rule.point == point {
            if let Some(action) = rule.consider() {
                INJECTED.fetch_add(1, Ordering::Relaxed);
                return Some(action);
            }
        }
    }
    None
}

/// Convenience for IO sites: if `point` is armed, resolve the action
/// into an `Err` for `Error`/`ShortRead` (a [`FaultAction::ShortRead`]
/// at a whole-operation site is an `UnexpectedEof`) and sleep through
/// `Delay`. `Corrupt` is returned for the caller to apply to its
/// buffer, since only the site knows which bytes it just produced.
#[inline]
pub fn check_io(point: &str) -> io::Result<Option<FaultAction>> {
    match check(point) {
        None => Ok(None),
        Some(FaultAction::Error) => Err(injected_error(point)),
        Some(FaultAction::ShortRead) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("injected short read at {point}"),
        )),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(None)
        }
        Some(FaultAction::Corrupt) => Ok(Some(FaultAction::Corrupt)),
    }
}

/// The synthesized error for [`FaultAction::Error`] firings; named so
/// chaos tests can assert on the message.
pub fn injected_error(point: &str) -> io::Error {
    io::Error::other(format!("injected fault at {point}"))
}

/// Parse and install a fault schedule, replacing any previous one.
/// See the module docs for the grammar. An empty spec disarms; a rule
/// naming a point outside [`point::ALL`] is an error, and the schedule
/// in force stays as it was.
pub fn install_from_spec(spec: &str) -> Result<(), String> {
    let mut parsed = Vec::new();
    for rule_spec in spec.split(';') {
        let rule_spec = rule_spec.trim();
        if rule_spec.is_empty() {
            continue;
        }
        parsed.push(parse_rule(rule_spec)?);
    }
    let mut rules = RULES.lock().unwrap_or_else(|e| e.into_inner());
    let armed = !parsed.is_empty();
    *rules = parsed;
    ENABLED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Install from the `SLING_FAULTS` environment variable, if set.
/// Returns whether a schedule was installed.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("SLING_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install_from_spec(&spec)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Disarm the registry and drop all rules. Tests call this between
/// phases; the per-process [`injected_total`] counter is monotone and
/// survives.
pub fn clear() {
    let mut rules = RULES.lock().unwrap_or_else(|e| e.into_inner());
    rules.clear();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Total faults injected since process start (monotone; exported as
/// `sling_faults_injected_total`).
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Per-rule hit/fired counters for the currently installed schedule.
pub fn snapshot() -> Vec<RuleStats> {
    let rules = RULES.lock().unwrap_or_else(|e| e.into_inner());
    rules
        .iter()
        .map(|r| RuleStats {
            point: r.point.clone(),
            hits: r.hits,
            fired: r.fired,
        })
        .collect()
}

fn parse_rule(spec: &str) -> Result<Rule, String> {
    let mut parts = spec.split(':');
    let point = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| format!("fault rule {spec:?}: missing point name"))?;
    if !point::ALL.contains(&point) {
        return Err(format!(
            "fault rule {spec:?}: unknown point {point:?} ({})",
            point::ALL.join("|")
        ));
    }
    let action_name = parts
        .next()
        .filter(|a| !a.is_empty())
        .ok_or_else(|| format!("fault rule {spec:?}: missing action"))?;

    let mut every = 1u64;
    let mut after = 0u64;
    let mut first = 0u64;
    let mut times = 0u64;
    let mut p = 1.0f64;
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut delay_us = 1000u64;
    for kv in parts {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("fault rule {spec:?}: expected key=value, got {kv:?}"))?;
        let parse_u64 =
            |v: &str| -> Result<u64, String> { v.parse().map_err(|_| bad_value(spec, key, v)) };
        match key {
            "every" => every = parse_u64(value)?,
            "after" => after = parse_u64(value)?,
            "first" => first = parse_u64(value)?,
            "times" => times = parse_u64(value)?,
            "seed" => seed = parse_u64(value)?,
            "delay_us" => delay_us = parse_u64(value)?,
            "p" => {
                p = value.parse().map_err(|_| bad_value(spec, key, value))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault rule {spec:?}: p must be in [0, 1]"));
                }
            }
            other => return Err(format!("fault rule {spec:?}: unknown key {other:?}")),
        }
    }

    let action = match action_name {
        "error" => FaultAction::Error,
        "short_read" => FaultAction::ShortRead,
        "delay" => FaultAction::Delay(Duration::from_micros(delay_us)),
        "corrupt" => FaultAction::Corrupt,
        other => {
            return Err(format!(
                "fault rule {spec:?}: unknown action {other:?} \
                 (error|short_read|delay|corrupt)"
            ))
        }
    };
    Ok(Rule {
        point: point.to_string(),
        action,
        every,
        after,
        first,
        times,
        p,
        rng: seed | 1, // xorshift must not start at 0
        hits: 0,
        fired: 0,
    })
}

fn bad_value(spec: &str, key: &str, value: &str) -> String {
    format!("fault rule {spec:?}: bad value {value:?} for {key}")
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; every test that installs a
    // schedule serializes on this and clears afterwards.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_spec<R>(spec: &str, f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_from_spec(spec).expect("valid spec");
        let out = f();
        clear();
        out
    }

    #[test]
    fn disarmed_registry_is_silent() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        assert_eq!(check(point::MMAP_VALIDATE), None);
        assert_eq!(check("anything.else"), None);
    }

    #[test]
    fn every_selector_fires_on_schedule() {
        // Server points only: nothing else in this crate checks them, so
        // the store tests running alongside never see these rules fire.
        with_spec("server.read:error:every=3", || {
            let fired: Vec<bool> = (0..9)
                .map(|_| check(point::SERVER_READ).is_some())
                .collect();
            assert_eq!(
                fired,
                [false, false, true, false, false, true, false, false, true]
            );
        });
    }

    #[test]
    fn after_first_and_times_compose() {
        with_spec("server.read:error:after=2:first=3:times=2", || {
            let fired: Vec<bool> = (0..8)
                .map(|_| check(point::SERVER_READ).is_some())
                .collect();
            // Hits 1-2 skipped, hits 3-5 eligible but capped at 2 firings.
            assert_eq!(
                fired,
                [false, false, true, true, false, false, false, false]
            );
        });
    }

    #[test]
    fn probability_gate_is_deterministic() {
        let run = || {
            with_spec("server.read:delay:p=0.5:seed=42:delay_us=0", || {
                (0..64)
                    .map(|_| check(point::SERVER_READ).is_some())
                    .collect::<Vec<bool>>()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give the same schedule");
        let fires = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fires), "p=0.5 fired {fires}/64");
    }

    #[test]
    fn actions_parse_and_report() {
        with_spec(
            "mmap.validate:corrupt; server.write:delay:delay_us=5; server.read:short_read",
            || {
                assert_eq!(check(point::MMAP_VALIDATE), Some(FaultAction::Corrupt));
                assert_eq!(
                    check(point::SERVER_WRITE),
                    Some(FaultAction::Delay(Duration::from_micros(5)))
                );
                assert_eq!(check(point::SERVER_READ), Some(FaultAction::ShortRead));
                let stats = snapshot();
                assert_eq!(stats.len(), 3);
                assert!(stats.iter().all(|s| s.hits == 1 && s.fired == 1));
            },
        );
    }

    #[test]
    fn check_io_resolves_error_and_short_read() {
        with_spec("server.read:error", || {
            let err = check_io(point::SERVER_READ).unwrap_err();
            assert!(err.to_string().contains("injected fault at server.read"));
        });
        with_spec("server.read:short_read", || {
            let err = check_io(point::SERVER_READ).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        });
        with_spec("server.read:corrupt", || {
            assert_eq!(
                check_io(point::SERVER_READ).unwrap(),
                Some(FaultAction::Corrupt)
            );
        });
    }

    #[test]
    fn injected_total_is_monotone() {
        with_spec("server.read:error", || {
            let before = injected_total();
            let _ = check(point::SERVER_READ);
            assert!(injected_total() > before);
        });
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for bad in [
            "server.read",
            "server.read:explode",
            "server.read:error:p=2.0",
            "server.read:error:every=x",
            "server.read:error:frob=1",
            ":error",
        ] {
            assert!(install_from_spec(bad).is_err(), "spec {bad:?} accepted");
        }
        clear();
    }

    #[test]
    fn unknown_points_are_rejected_with_the_valid_list() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_from_spec("server.read:delay:delay_us=0").unwrap();
        // A point no site checks would install a rule that never fires;
        // the retired positioned-read point is the case that matters.
        assert!(install_from_spec("disk.read:error").is_err());
        let err = install_from_spec("mmap.validate:error; disk.read:error").unwrap_err();
        assert!(err.contains("unknown point \"disk.read\""), "{err}");
        for p in point::ALL {
            assert!(err.contains(p), "{err} does not list {p}");
        }
        // The failed install left the previous schedule in force.
        assert_eq!(snapshot().len(), 1);
        assert_eq!(snapshot()[0].point, point::SERVER_READ);
        // Every listed point installs (as a zero delay, harmless to the
        // tests running alongside).
        for p in point::ALL {
            install_from_spec(&format!("{p}:delay:delay_us=0")).unwrap();
        }
        clear();
    }
}
