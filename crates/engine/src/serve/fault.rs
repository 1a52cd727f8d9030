//! Deterministic fault injection: the one test hook of every command.
//!
//! Robustness claims ("a panicking solve is a per-point error", "a severed
//! peer is reaped", "a dropped reply does not wedge the dispatcher") are
//! only testable if the failure can be made to happen *on demand, at a
//! chosen point*. A [`FaultPlan`] is a small set of one-shot triggers,
//! parsed from the strict `BBS_TEST_FAULT_PLAN` grammar (comma-separated
//! directives):
//!
//! ```text
//! drop-reply:N            swallow the N-th reply frame (1-based, server-wide)
//! stall-reply:N:MS        sleep MS ms before writing the N-th reply
//! fail-store-put:N        refuse the N-th store_put request
//! sever-session:N         drop the connection on reading the N-th request,
//!                         without a reply (a mid-request crash)
//! panic-solve:SCEN:CAP    panic inside the solve of scenario SCEN at
//!                         capacity cap CAP (`-` = the no-sweep point)
//! stall-solve:SCEN:CAP:MS sleep MS ms inside that solve — the lever for
//!                         disconnect/deadline tests
//! ```
//!
//! A plan holds at most one solve fault (`panic-solve` or `stall-solve`,
//! see [`SolveFault`]). CAP and MS are read from the end of a solve
//! directive, so SCEN may contain `:` (but not `,`, which ends a
//! directive). `bbs serve` applies the whole plan, and its solve fault to
//! every submission; `bbs run` and `bbs validate` apply the solve fault and
//! refuse the four directives only a daemon can apply.
//!
//! Parsing is strict — a typo must fail the command loudly at startup, not
//! silently run a chaos test with no chaos in it. The default plan injects
//! nothing and costs three relaxed atomic bumps per request/reply.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::executor::{FaultAction, SolveFault};

/// Environment variable [`FaultPlan::from_env`] reads.
pub const FAULT_PLAN_ENV: &str = "BBS_TEST_FAULT_PLAN";

/// What [`FaultPlan::reply_action`] tells the session to do with the
/// reply it is about to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyAction {
    /// Write the frame normally.
    Deliver,
    /// Swallow the frame: pretend the write happened (the client sees a
    /// missing frame, the server carries on).
    Drop,
    /// Sleep this many milliseconds, then write the frame.
    Stall(u64),
}

/// A parsed set of one-shot service-layer faults plus the counters that
/// trigger them. See the [module docs](self) for the grammar.
#[derive(Debug, Default)]
pub struct FaultPlan {
    drop_reply: Option<u64>,
    stall_reply: Option<(u64, u64)>,
    fail_store_put: Option<u64>,
    sever_session: Option<u64>,
    solve: Option<SolveFault>,
    replies: AtomicU64,
    requests: AtomicU64,
    store_puts: AtomicU64,
}

impl FaultPlan {
    /// Parses the comma-separated directive list. Strict: unknown
    /// directives, malformed numbers and duplicates are all errors.
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending directive.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for directive in text.split(',') {
            let directive = directive.trim();
            if directive.is_empty() {
                return Err("empty fault directive".to_string());
            }
            let mut parts = directive.split(':');
            let name = parts.next().expect("split yields at least one part");
            let args: Vec<&str> = parts.collect();
            match name {
                "drop-reply" => {
                    set_once(
                        &mut plan.drop_reply,
                        parse_nth(directive, &args)?,
                        directive,
                    )?;
                }
                "stall-reply" => {
                    let [nth, millis] = two_args(directive, &args)?;
                    set_once(
                        &mut plan.stall_reply,
                        (
                            parse_count(directive, nth)?,
                            parse_count(directive, millis)?,
                        ),
                        directive,
                    )?;
                }
                "fail-store-put" => {
                    set_once(
                        &mut plan.fail_store_put,
                        parse_nth(directive, &args)?,
                        directive,
                    )?;
                }
                "sever-session" => {
                    set_once(
                        &mut plan.sever_session,
                        parse_nth(directive, &args)?,
                        directive,
                    )?;
                }
                "panic-solve" | "stall-solve" => {
                    if plan.solve.is_some() {
                        return Err(format!(
                            "{directive:?}: a plan holds at most one panic-solve or stall-solve"
                        ));
                    }
                    plan.solve = Some(parse_solve_fault(directive, name, &args)?);
                }
                other => {
                    return Err(format!(
                        "unknown fault directive {other:?} (expected drop-reply, stall-reply, \
                         fail-store-put, sever-session, panic-solve or stall-solve)"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Reads and parses [`FAULT_PLAN_ENV`]. `Ok(None)` when unset or
    /// empty; a set-but-malformed plan is an error — never ignored.
    ///
    /// # Errors
    ///
    /// The [`parse`](Self::parse) error, prefixed with the variable name.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULT_PLAN_ENV) {
            Ok(text) if text.trim().is_empty() => Ok(None),
            Ok(text) => Self::parse(&text)
                .map(Some)
                .map_err(|e| format!("{FAULT_PLAN_ENV}: {e}")),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => Err(format!(
                "{FAULT_PLAN_ENV} must be valid Unicode, got {raw:?}"
            )),
        }
    }

    /// Counts one outgoing reply and says what to do with it.
    pub fn reply_action(&self) -> ReplyAction {
        let nth = self.replies.fetch_add(1, Ordering::Relaxed) + 1;
        if self.drop_reply == Some(nth) {
            return ReplyAction::Drop;
        }
        if let Some((stall_nth, millis)) = self.stall_reply {
            if stall_nth == nth {
                return ReplyAction::Stall(millis);
            }
        }
        ReplyAction::Deliver
    }

    /// Counts one inbound request; `true` means the session must drop the
    /// connection now, without replying.
    pub fn sever_now(&self) -> bool {
        let nth = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        self.sever_session == Some(nth)
    }

    /// Counts one `store_put`; `true` means this one must be refused.
    pub fn fail_store_put_now(&self) -> bool {
        let nth = self.store_puts.fetch_add(1, Ordering::Relaxed) + 1;
        self.fail_store_put == Some(nth)
    }

    /// The solve fault to thread into run settings, if any.
    pub fn solve_fault(&self) -> Option<SolveFault> {
        self.solve.clone()
    }

    /// The solve fault of a command that runs suites without a daemon, and
    /// so has no replies, store requests or sessions to fault.
    ///
    /// # Errors
    ///
    /// Names the first directive only a daemon can apply.
    pub fn solve_fault_only(&self) -> Result<Option<SolveFault>, String> {
        let daemon_only = [
            ("drop-reply", self.drop_reply.is_some()),
            ("stall-reply", self.stall_reply.is_some()),
            ("fail-store-put", self.fail_store_put.is_some()),
            ("sever-session", self.sever_session.is_some()),
        ];
        match daemon_only.into_iter().find(|&(_, given)| given) {
            Some((name, _)) => Err(format!("{name} needs a daemon (`bbs serve`)")),
            None => Ok(self.solve_fault()),
        }
    }
}

/// Parses the arguments of a `panic-solve` (`SCEN:CAP`) or `stall-solve`
/// (`SCEN:CAP:MS`) directive, reading the numbers from the end.
fn parse_solve_fault(directive: &str, name: &str, args: &[&str]) -> Result<SolveFault, String> {
    let numbers = if name == "panic-solve" { 1 } else { 2 };
    if args.len() <= numbers {
        return Err(format!(
            "{directive:?}: expected {name}:SCEN:CAP{}",
            if numbers == 2 { ":MS" } else { "" }
        ));
    }
    let (scenario, numbers) = args.split_at(args.len() - numbers);
    let scenario = scenario.join(":");
    if scenario.is_empty() {
        return Err(format!("{directive:?}: scenario name is empty"));
    }
    let capacity_cap = match numbers[0] {
        "-" => None,
        cap => Some(parse_count(directive, cap)?),
    };
    let action = match numbers.get(1) {
        Some(millis) => FaultAction::Stall(parse_count(directive, millis)?),
        None => FaultAction::Panic,
    };
    Ok(SolveFault {
        scenario,
        capacity_cap,
        action,
    })
}

fn set_once<T>(slot: &mut Option<T>, value: T, directive: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("{directive:?}: directive given twice"));
    }
    *slot = Some(value);
    Ok(())
}

fn parse_nth(directive: &str, args: &[&str]) -> Result<u64, String> {
    match args {
        [nth] => parse_count(directive, nth),
        _ => Err(format!("{directive:?}: expected exactly one :N argument")),
    }
}

fn two_args<'a>(directive: &str, args: &[&'a str]) -> Result<[&'a str; 2], String> {
    match args {
        [a, b] => Ok([a, b]),
        _ => Err(format!("{directive:?}: expected exactly two : arguments")),
    }
}

fn parse_count(directive: &str, text: &str) -> Result<u64, String> {
    let value: u64 = text
        .parse()
        .map_err(|_| format!("{directive:?}: {text:?} is not a non-negative integer"))?;
    if value == 0 {
        return Err(format!("{directive:?}: counts are 1-based, got 0"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use FaultAction::{Panic, Stall};

    #[test]
    fn the_default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        for _ in 0..10 {
            assert_eq!(plan.reply_action(), ReplyAction::Deliver);
            assert!(!plan.sever_now());
            assert!(!plan.fail_store_put_now());
        }
        assert!(plan.solve_fault().is_none());
    }

    #[test]
    fn directives_trigger_exactly_their_nth_event() {
        let plan = FaultPlan::parse("drop-reply:2,sever-session:3,fail-store-put:1").unwrap();
        assert_eq!(plan.reply_action(), ReplyAction::Deliver);
        assert_eq!(plan.reply_action(), ReplyAction::Drop);
        assert_eq!(plan.reply_action(), ReplyAction::Deliver);
        assert!(!plan.sever_now());
        assert!(!plan.sever_now());
        assert!(plan.sever_now());
        assert!(plan.fail_store_put_now());
        assert!(!plan.fail_store_put_now());
    }

    #[test]
    fn stall_directives_carry_their_durations() {
        let plan = FaultPlan::parse("stall-reply:1:250,stall-solve:smoke-tiny:4:1500").unwrap();
        assert_eq!(plan.reply_action(), ReplyAction::Stall(250));
        assert_eq!(plan.reply_action(), ReplyAction::Deliver);
        assert_eq!(
            plan.solve_fault(),
            Some(fault("smoke-tiny", Some(4), Stall(1500)))
        );
        // `-` selects the no-sweep point.
        let plan = FaultPlan::parse("stall-solve:solo:-:40").unwrap();
        assert_eq!(plan.solve_fault(), Some(fault("solo", None, Stall(40))));
    }

    fn fault(scenario: &str, capacity_cap: Option<u64>, action: FaultAction) -> SolveFault {
        SolveFault {
            scenario: scenario.to_string(),
            capacity_cap,
            action,
        }
    }

    #[test]
    fn solve_faults_read_their_numbers_from_the_end() {
        let solve_fault = |text: &str| FaultPlan::parse(text).unwrap().solve_fault();
        assert_eq!(
            solve_fault("panic-solve:fig2a:3"),
            Some(fault("fig2a", Some(3), Panic))
        );
        assert_eq!(
            solve_fault("panic-solve:solo:-"),
            Some(fault("solo", None, Panic))
        );
        // Scenario names may contain `:`; the numbers are the last segments.
        assert_eq!(
            solve_fault("panic-solve:a:b:1"),
            Some(fault("a:b", Some(1), Panic))
        );
        assert_eq!(
            solve_fault("stall-solve:a:b:2:40"),
            Some(fault("a:b", Some(2), Stall(40)))
        );
    }

    #[test]
    fn only_the_solve_fault_runs_without_a_daemon() {
        let plan = FaultPlan::parse("panic-solve:smoke-pc:2").unwrap();
        assert_eq!(
            plan.solve_fault_only(),
            Ok(Some(fault("smoke-pc", Some(2), Panic)))
        );
        for directive in [
            "drop-reply:1",
            "stall-reply:1:5",
            "fail-store-put:1",
            "sever-session:1",
        ] {
            let plan = FaultPlan::parse(&format!("stall-solve:x:1:5,{directive}")).unwrap();
            let error = plan.solve_fault_only().unwrap_err();
            let name = directive.split(':').next().unwrap();
            assert!(error.contains(name), "{directive}: {error}");
        }
    }

    #[test]
    fn malformed_plans_are_loud_errors() {
        for bad in [
            "",
            "drop-reply",
            "drop-reply:0",
            "drop-reply:x",
            "drop-reply:1:2",
            "stall-reply:1",
            "sever-session:1,sever-session:2",
            "stall-solve:smoke:4",
            "stall-solve::4:10",
            "tickle-peer:1",
            "panic-solve:x:1,stall-solve:x:1:5",
            "panic-solve:x:1,panic-solve:y:1",
            "panic-solve::1",
            "panic-solve:x",
            "panic-solve:x:0",
            "panic-solve:x:notanumber",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
