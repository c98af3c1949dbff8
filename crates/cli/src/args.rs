//! Hand-rolled argument parsing (no external CLI crates).
//!
//! Grammar: `<command> (--flag [value])*`. Boolean flags take no value;
//! valued flags take exactly one, and a command takes only the flags
//! [`COMMANDS`] lists for it. [`Parsed`] stores raw strings and offers
//! typed accessors with precise errors.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// CLI failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// argv was empty.
    MissingCommand,
    /// The command word is not known.
    UnknownCommand(String),
    /// A flag the command does not read.
    UnknownFlag {
        /// The flag, without its dashes.
        flag: String,
        /// The command it was given to.
        command: String,
    },
    /// A flag that needs a value did not get one.
    MissingValue(String),
    /// A flag given more than once.
    Repeated(String),
    /// A value failed to parse.
    BadValue {
        /// The flag whose value was bad.
        flag: String,
        /// The offending value.
        value: String,
        /// What the flag expected.
        expected: &'static str,
    },
    /// Anything command-specific (e.g. host id out of range).
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no command given; try `recloud help`"),
            CliError::UnknownCommand(c) => write!(f, "unknown command '{c}'; try `recloud help`"),
            CliError::UnknownFlag { flag, command } => {
                write!(f, "unknown flag --{flag} for {command}")
            }
            CliError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            CliError::Repeated(flag) => write!(f, "flag --{flag} given twice"),
            CliError::BadValue { flag, value, expected } => {
                write!(f, "--{flag}: '{value}' is not a valid {expected}")
            }
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Where the topology comes from: a `--scale` preset, or a `--topology`
/// generator and its dimensions. `--seed` also seeds the fault model.
const TOPOLOGY: &[&str] = &[
    "scale",
    "topology",
    "ports",
    "spines",
    "leaves",
    "hosts-per-leaf",
    "switches",
    "hosts-per-switch",
    "levels",
    "da",
    "di",
    "seed",
];
/// The application and how long it is assessed.
const APP: &[&str] = &["k", "n", "layers", "rounds"];
/// The daemon a client command talks to.
const DAEMON: &[&str] = &["addr"];

/// Every command with the flags it reads, one group per section of
/// `usage()` (a unit test holds the two together). [`Parsed::parse`]
/// refuses any other flag.
pub const COMMANDS: &[(&str, &[&[&str]])] = &[
    ("topo", &[TOPOLOGY]),
    (
        "assess",
        &[TOPOLOGY, APP, &["stream", "target-ciw", "cadence", "monte-carlo", "hosts", "addr"]],
    ),
    (
        "search",
        &[
            TOPOLOGY,
            APP,
            &[
                "budget-ms",
                "workers",
                "iters",
                "exchange-every",
                "stream",
                "addr",
                "multi-objective",
                "distinct-racks",
            ],
        ],
    ),
    ("compare", &[TOPOLOGY, APP, &["candidates"]]),
    ("whatif", &[TOPOLOGY, APP, &["fail", "hosts"]]),
    ("sensitivity", &[TOPOLOGY, APP, &["hosts"]]),
    ("blast", &[TOPOLOGY]),
    ("dot", &[TOPOLOGY, &["switches-only"]]),
    ("availability", &[TOPOLOGY, APP, &["years", "mttr-hours", "hosts"]]),
    ("serve", &[&["port", "port-file", "workers", "queue", "cache", "store", "tenant-budget"]]),
    (
        "loadgen",
        &[
            DAEMON,
            &[
                "smoke",
                "stream",
                "cadence",
                "requests",
                "connections",
                "distinct-seeds",
                "tenant",
                "scale",
                "rounds",
                "seed",
            ],
        ],
    ),
    ("stats", &[DAEMON, &["json"]]),
    ("journal", &[DAEMON, &["tail"]]),
    ("trace", &[DAEMON, &["id", "chrome"]]),
    ("help", &[]),
];

/// Flags that are boolean (present/absent, no value).
const BOOL_FLAGS: &[&str] = &[
    "multi-objective",
    "distinct-racks",
    "monte-carlo",
    "switches-only",
    "smoke",
    "distinct-seeds",
    "json",
    "stream",
];

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Parsed {
    /// The command word.
    pub command: String,
    flags: HashMap<String, String>,
    bools: Vec<String>,
}

impl Parsed {
    /// Parses argv (without the program name): a known command (`--help`
    /// and `-h` are `help`), then only flags [`COMMANDS`] lists for it.
    pub fn parse(argv: &[String]) -> Result<Parsed, CliError> {
        let mut it = argv.iter().peekable();
        let command = match it.next().ok_or(CliError::MissingCommand)?.as_str() {
            "--help" | "-h" => "help",
            command => command,
        };
        let (command, groups) = COMMANDS
            .iter()
            .find(|(name, _)| *name == command)
            .ok_or_else(|| CliError::UnknownCommand(command.to_string()))?;
        let mut flags = HashMap::new();
        let mut bools = Vec::new();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(CliError::Invalid(format!("unexpected argument '{a}'")));
            };
            if !groups.iter().any(|group| group.contains(&name)) {
                let (flag, command) = (name.to_string(), command.to_string());
                return Err(CliError::UnknownFlag { flag, command });
            }
            if flags.contains_key(name) || bools.iter().any(|b| b == name) {
                return Err(CliError::Repeated(name.to_string()));
            }
            if BOOL_FLAGS.contains(&name) {
                bools.push(name.to_string());
                continue;
            }
            match it.next() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), v.clone());
                }
                _ => return Err(CliError::MissingValue(name.to_string())),
            }
        }
        Ok(Parsed { command: command.to_string(), flags, bools })
    }

    /// Raw string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Boolean flag presence.
    pub fn has(&self, flag: &str) -> bool {
        self.bools.iter().any(|b| b == flag)
    }

    /// String flag with default.
    pub fn str_or(&self, flag: &str, default: &str) -> String {
        self.get(flag).unwrap_or(default).to_string()
    }

    /// A flag's value parsed straight into `T`; `None` when absent. A
    /// value that does not parse, or does not fit `T`, is `BadValue` —
    /// never wrapped into range.
    fn value<T: FromStr>(&self, flag: &str, expected: &'static str) -> Result<Option<T>, CliError> {
        let bad =
            |v: &str| CliError::BadValue { flag: flag.to_string(), value: v.to_string(), expected };
        self.get(flag).map(|v| v.parse().map_err(|_| bad(v))).transpose()
    }

    /// Integer flag with default.
    pub fn usize_or(&self, flag: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.usize_opt(flag)?.unwrap_or(default))
    }

    /// u16 flag with default.
    pub fn u16_or(&self, flag: &str, default: u16) -> Result<u16, CliError> {
        Ok(self.value(flag, "16-bit integer")?.unwrap_or(default))
    }

    /// u32 flag with default.
    pub fn u32_or(&self, flag: &str, default: u32) -> Result<u32, CliError> {
        Ok(self.value(flag, "32-bit integer")?.unwrap_or(default))
    }

    /// u64 flag with default.
    pub fn u64_or(&self, flag: &str, default: u64) -> Result<u64, CliError> {
        Ok(self.value(flag, "64-bit integer")?.unwrap_or(default))
    }

    /// Integer flag; `None` when absent.
    pub fn usize_opt(&self, flag: &str) -> Result<Option<usize>, CliError> {
        self.value(flag, "integer")
    }

    /// Float flag; `None` when absent.
    pub fn f64_opt(&self, flag: &str) -> Result<Option<f64>, CliError> {
        self.value(flag, "number")
    }

    /// Comma-separated integer list.
    pub fn usize_list(&self, flag: &str) -> Result<Option<Vec<usize>>, CliError> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim().parse().map_err(|_| CliError::BadValue {
                        flag: flag.to_string(),
                        value: x.to_string(),
                        expected: "integer list",
                    })
                })
                .collect::<Result<Vec<usize>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse(cmd: &str) -> Result<Parsed, CliError> {
        let argv: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        Parsed::parse(&argv)
    }

    #[test]
    fn parses_flags_and_bools() {
        let p = parse("search --scale tiny --k 4 --multi-objective --budget-ms 100").unwrap();
        assert_eq!(p.command, "search");
        assert_eq!(p.get("scale"), Some("tiny"));
        assert_eq!(p.u32_or("k", 1).unwrap(), 4);
        assert!(p.has("multi-objective"));
        assert!(!p.has("distinct-racks"));
        assert_eq!(p.usize_or("budget-ms", 0).unwrap(), 100);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = parse("assess").unwrap();
        assert_eq!(p.usize_or("rounds", 10_000).unwrap(), 10_000);
        assert_eq!(p.str_or("scale", "tiny"), "tiny");
        assert_eq!(p.usize_list("hosts").unwrap(), None);
    }

    #[test]
    fn trailing_comma_in_list_is_a_bad_value() {
        let p = parse("assess --hosts 1,2,").unwrap();
        let err = p.usize_list("hosts").unwrap_err();
        assert!(matches!(err, CliError::BadValue { .. }));
    }

    #[test]
    fn stray_positional_is_rejected() {
        let err = parse("assess stray").unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)));
    }

    #[test]
    fn missing_value_detected() {
        let err = parse("assess --rounds --scale tiny").unwrap_err();
        assert_eq!(err, CliError::MissingValue("rounds".into()));
        let err = parse("assess --rounds").unwrap_err();
        assert_eq!(err, CliError::MissingValue("rounds".into()));
    }

    #[test]
    fn bad_integer_reported_with_context() {
        let p = parse("assess --rounds ten").unwrap();
        let err = p.usize_or("rounds", 1).unwrap_err();
        assert!(err.to_string().contains("ten"));
        assert!(err.to_string().contains("rounds"));
    }

    #[test]
    fn float_flag_parses_or_reports() {
        let p = parse("assess --stream --target-ciw 0.02").unwrap();
        assert!(p.has("stream"));
        assert_eq!(p.f64_opt("target-ciw").unwrap(), Some(0.02));
        assert_eq!(p.f64_opt("absent").unwrap(), None);
        let p = parse("assess --target-ciw tight").unwrap();
        let err = p.f64_opt("target-ciw").unwrap_err();
        assert!(err.to_string().contains("tight"));
    }

    #[test]
    fn out_of_range_integers_are_bad_values_not_wrapped() {
        let p = parse("assess --k 4294967298 --n 3").unwrap();
        let err = p.u32_or("k", 1).unwrap_err();
        assert!(matches!(&err, CliError::BadValue { value, .. } if value == "4294967298"), "{err}");
        assert_eq!(p.u32_or("n", 1).unwrap(), 3);
        for port in ["4294974366", "65536", "-1"] {
            let p = parse(&format!("serve --port {port}")).unwrap();
            assert!(matches!(p.u16_or("port", 7070), Err(CliError::BadValue { .. })), "{port}");
        }
        assert_eq!(parse("serve --port 65535").unwrap().u16_or("port", 7070).unwrap(), 65535);
        let p = parse("search --seed 18446744073709551616").unwrap();
        assert!(matches!(p.u64_or("seed", 1), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_refused() {
        let err = parse("topo --bogus 1").unwrap_err();
        assert_eq!(err, CliError::UnknownFlag { flag: "bogus".into(), command: "topo".into() });
        assert_eq!(err.to_string(), "unknown flag --bogus for topo");
        // A flag of another command is refused too, before its value.
        let err = parse("serve --peer 127.0.0.1:1").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --peer for serve");
        let err = parse("stats --tail 3").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --tail for stats");
        let err = parse("help --json").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --json for help");
        assert_eq!(parse("-h").unwrap().command, "help");
        assert_eq!(parse("frob --x 1").unwrap_err(), CliError::UnknownCommand("frob".into()));
    }

    #[test]
    fn a_flag_given_twice_is_refused() {
        let err = parse("topo --scale tiny --scale small").unwrap_err();
        assert_eq!(err, CliError::Repeated("scale".into()));
        assert_eq!(err.to_string(), "flag --scale given twice");
        let err = parse("assess --monte-carlo --k 1 --monte-carlo").unwrap_err();
        assert_eq!(err.to_string(), "flag --monte-carlo given twice");
        assert!(parse("assess --k 1 --n 2 --monte-carlo").is_ok(), "distinct flags parse");
    }

    /// `usage()` as section name → the flags it names; a section runs
    /// from its unindented `NAME OPTIONS…` header to the next one.
    fn usage_sections() -> HashMap<String, BTreeSet<String>> {
        let mut sections: HashMap<String, BTreeSet<String>> = HashMap::new();
        let mut current = None;
        for line in crate::usage().lines() {
            if let Some((name, _)) = line.split_once(" OPTIONS") {
                if !line.starts_with(' ') {
                    current = Some(name.to_string());
                    sections.entry(name.to_string()).or_default();
                    continue;
                }
            }
            if line.chars().next().is_some_and(|c| !c.is_whitespace()) {
                current = None;
            }
            let Some(name) = &current else { continue };
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let flags = words.filter_map(|w| w.strip_prefix("--")).map(str::to_string);
            sections.get_mut(name).unwrap().extend(flags);
        }
        sections
    }

    /// Each command's table entries are the flags of its usage sections:
    /// a shared group is the section of that name, the command's own
    /// group the section named after the command. No section is stale.
    #[test]
    fn every_commands_flags_are_its_usage_sections() {
        let sections = usage_sections();
        let shared = [(TOPOLOGY, "TOPOLOGY"), (APP, "APPLICATION"), (DAEMON, "DAEMON")];
        let mut used = BTreeSet::new();
        for (command, groups) in COMMANDS {
            for group in *groups {
                let name = match shared.iter().find(|(g, _)| g == group) {
                    Some((_, name)) => name.to_string(),
                    None => command.to_uppercase(),
                };
                let documented = sections.get(&name).unwrap_or_else(|| panic!("no {name} section"));
                let table: BTreeSet<String> = group.iter().map(|f| f.to_string()).collect();
                assert_eq!(&table, documented, "{command}: table vs usage() {name} OPTIONS");
                used.insert(name);
            }
        }
        assert_eq!(used, sections.into_keys().collect(), "a usage() section no command reads");
    }

    /// Every boolean flag is some command's, so none is dead.
    #[test]
    fn every_boolean_flag_is_read_by_a_command() {
        for flag in BOOL_FLAGS {
            let read = COMMANDS.iter().any(|(_, groups)| groups.iter().any(|g| g.contains(flag)));
            assert!(read, "--{flag} is no command's flag");
        }
    }

    #[test]
    fn list_parsing() {
        let p = parse("assess --hosts 60,61,62").unwrap();
        assert_eq!(p.usize_list("hosts").unwrap(), Some(vec![60, 61, 62]));
        let p = parse("assess --hosts 60,x").unwrap();
        assert!(p.usize_list("hosts").is_err());
    }
}
