//! `rtr`: the one executable of `rtr-bench`. Every paper artefact,
//! extension sweep and ad-hoc scenario is a subcommand in [`COMMANDS`];
//! every subcommand reads its arguments through [`Args`].
//!
//! ```text
//! cargo run --release -p rtr-bench --bin rtr -- <subcommand> [key=value ...]
//! ```
//!
//! Nothing here measures wall-clock for the record: `benchmark/` is the
//! repo's stopwatch (see `benchmark/README.md`).

// Private modules under `rtr/`, so `src/bin/` holds this one target.
#[path = "rtr/console.rs"]
mod console;
#[path = "rtr/experiments.rs"]
mod experiments;
#[path = "rtr/trace_dump.rs"]
mod trace_dump;

use std::ops::RangeInclusive;
use std::str::FromStr;

/// A subcommand body: reads its own arguments, prints to stdout, and
/// returns the message `main` exits 2 with.
type Command = fn(&[String]) -> Result<(), String>;

/// The dispatch table: `(name, one-line help, body)`.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("exp1", "§5.2 experiment 1: wormhole loop-back latency, 30 + b", experiments::exp1),
    ("fig7", "Figure 7: cumulative TC and BE service on one link", experiments::fig7),
    ("table4", "Table 4: chip specification and cost model", experiments::table4),
    ("baselines", "X2: the real-time router against the §6 baselines", experiments::baselines),
    ("sched", "X8: comparator tree vs the banded approximation", experiments::sched),
    ("vct", "X7: virtual cut-through for time-constrained traffic", experiments::vct),
    ("horizon", "X1: the horizon trade-off, latency vs buffering", experiments::horizon),
    ("load-latency", "X12: best-effort load-latency curves", experiments::load_latency),
    ("guarantees", "X3: end-to-end guarantees across a mesh", experiments::guarantees),
    ("chaos", "fault scenarios: link kill, flaky link, node crash", experiments::chaos),
    ("churn", "live establish/teardown under load", experiments::churn),
    ("console", "ad-hoc mesh scenario [side=N channels=N ...]", console::run),
    ("trace-dump", "replay a JSONL packet trace or metrics file", trace_dump::run),
];

fn usage() -> String {
    let mut text = String::from("usage: rtr <subcommand> [key=value ...]\n\nsubcommands:\n");
    for (name, help, _) in COMMANDS {
        text.push_str(&format!("  {name:<13} {help}\n"));
    }
    text.push_str("\nA bad key or value prints the subcommand's keys.");
    text
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((name, rest)) = args.split_first() else {
        return Err(format!("missing subcommand\n\n{}", usage()));
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return Ok(());
    }
    let (_, _, body) = COMMANDS
        .iter()
        .find(|(known, _, _)| known == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`\n\n{}", usage()))?;
    body(rest).map_err(|e| format!("{name}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        eprintln!("rtr: {e}");
        std::process::exit(2);
    }
}

/// One subcommand's key table: `(key, one-line help)`.
type Keys = [(&'static str, &'static str)];

/// One subcommand's `key=value` arguments, checked against its key table.
/// The first `positional` keys of the table may also be given as bare
/// values, in table order.
struct Args<'a> {
    keys: &'static Keys,
    values: Vec<Option<&'a str>>,
}

impl<'a> Args<'a> {
    fn parse(keys: &'static Keys, positional: usize, args: &'a [String]) -> Result<Self, String> {
        let mut parsed = Args { keys, values: vec![None; keys.len()] };
        let mut bare = 0;
        for arg in args {
            let (index, value) = match arg.split_once('=') {
                Some((key, value)) => {
                    let index = keys.iter().position(|(known, _)| *known == key);
                    (index.ok_or_else(|| parsed.error(format!("unknown key `{key}`")))?, value)
                }
                None if bare < positional => {
                    bare += 1;
                    (bare - 1, arg.as_str())
                }
                None => {
                    return Err(parsed.error(format!("too many positional arguments at `{arg}`")))
                }
            };
            if parsed.values[index].replace(value).is_some() {
                return Err(parsed.error(format!("duplicate key `{}`", keys[index].0)));
            }
        }
        Ok(parsed)
    }

    /// The message plus the key table, so a bad invocation shows what a
    /// good one looks like.
    fn error(&self, message: String) -> String {
        if self.keys.is_empty() {
            return format!("{message} (takes no arguments)");
        }
        let mut text = format!("{message}\n\nkeys:\n");
        for (key, help) in self.keys {
            text.push_str(&format!("  {:<16} {help}\n", format!("{key}=")));
        }
        text.trim_end().to_string()
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        let index = self.keys.iter().position(|(known, _)| *known == key);
        self.values[index.expect("subcommands read only keys of their own table")]
    }

    fn opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |value: &str| {
            value.parse().map_err(|_| self.error(format!("bad value for {key}={value}")))
        };
        self.get(key).map(parse).transpose()
    }

    fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// [`Args::num`] restricted to `range`; a NaN lies in no range.
    fn num_in<T: FromStr + PartialOrd + std::fmt::Debug>(
        &self,
        key: &str,
        default: T,
        range: RangeInclusive<T>,
    ) -> Result<T, String> {
        let value = self.num(key, default)?;
        if range.contains(&value) {
            return Ok(value);
        }
        Err(self.error(format!("{key}={value:?} is out of range (want {range:?})")))
    }

    fn flag(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some("1" | "true") => Ok(true),
            Some("0" | "false") => Ok(false),
            Some(value) => Err(self.error(format!("bad value for {key}={value} (want 0 or 1)"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn refusal(args: &[&str]) -> String {
        dispatch(&strings(args)).expect_err("a bad invocation is refused")
    }

    #[test]
    fn every_subcommand_has_help_and_a_unique_name() {
        for (i, (name, help, _)) in COMMANDS.iter().enumerate() {
            assert!(!name.is_empty() && !help.is_empty(), "{name}");
            assert!(COMMANDS[..i].iter().all(|(earlier, _, _)| earlier != name), "{name} twice");
            assert!(usage().contains(name) && usage().contains(help), "{name} missing from usage");
        }
    }

    #[test]
    fn bad_invocations_are_refused_naming_the_offender() {
        for (args, offender) in [
            (&["exp9"][..], "unknown subcommand `exp9`"),
            (&[][..], "missing subcommand"),
            (&["exp1", "stray"], "too many positional arguments at `stray`"),
            (&["console", "sides=4"], "unknown key `sides`"),
            (&["console", "cycles=12x"], "bad value for cycles=12x"),
            (&["console", "vct=maybe"], "bad value for vct=maybe"),
            (&["console", "scheduler=fifo"], "unknown scheduler `fifo`"),
            (&["console", "4", "12", "0.1", "100", "tree", "0", "42", "43"], "at `43`"),
            (&["console", "side=300"], "side=300 is out of range"),
            (&["console", "side=129"], "side=129 is out of range (want 1..=128)"),
            (&["console", "side=0"], "side=0 is out of range"),
            (&["console", "be_rate=-1"], "be_rate=-1.0 is out of range"),
            (&["console", "be_rate=nan"], "be_rate=NaN is out of range"),
            (&["console", "side=4", "side=8"], "duplicate key `side`"),
            (&["console", "4", "side=8"], "duplicate key `side`"),
            (&["trace-dump"], "missing trace file path"),
            (&["trace-dump", "a.jsonl", "b.jsonl"], "too many positional arguments at `b.jsonl`"),
            (&["trace-dump", "a.jsonl", "conn=x"], "bad value for conn=x"),
        ] {
            let message = refusal(args);
            assert!(message.contains(offender), "{args:?}: {message}");
        }
        assert!(refusal(&["console", "sides=4"]).contains("side="), "key errors list the keys");
    }

    /// Two scenarios the old console never finished: a churned channel that
    /// becomes ready after the run's last cycle tripped `clamp(min > max)`,
    /// and a one-node mesh drew destinations forever.
    #[test]
    fn degenerate_scenarios_still_report() {
        dispatch(&strings(&["console", "cycles=100", "churn=5"])).unwrap();
        dispatch(&strings(&["console", "side=1", "cycles=100"])).unwrap();
    }

    #[test]
    fn bare_values_fill_the_leading_keys_in_order() {
        const KEYS: &Keys = &[("a", "first"), ("b", "second"), ("c", "keyed only")];
        let args = strings(&["1", "c=3", "2"]);
        let parsed = Args::parse(KEYS, 2, &args).unwrap();
        assert_eq!(
            (parsed.get("a"), parsed.get("b"), parsed.get("c")),
            (Some("1"), Some("2"), Some("3"))
        );
        assert_eq!(parsed.num("a", 0u8), Ok(1));
        assert_eq!(Args::parse(KEYS, 2, &[]).unwrap().num("a", 7u8), Ok(7));
        assert!(Args::parse(KEYS, 2, &strings(&["1", "2", "3"])).is_err());
    }
}
