//! Minimal `--key value` argument parsing shared by the three live
//! binaries (`live-proxy`, `live-sender`, `live-receiver`). No external
//! dependencies, no subcommands: every option is a `--key value` pair and
//! unknown keys are hard errors so typos never silently fall back to
//! defaults.

use std::collections::BTreeMap;

/// Parsed `--key value` pairs.
pub struct Args {
    program: String,
    values: BTreeMap<String, String>,
    /// Keys the binary consumed (for unknown-key detection).
    taken: std::cell::RefCell<Vec<String>>,
}

impl Args {
    /// Parses the process arguments. Exits with usage text on malformed
    /// input or `--help`.
    pub fn parse(usage: &str) -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_else(|| "live".into());
        let mut values = BTreeMap::new();
        let mut argv = argv.peekable();
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                eprintln!("usage: {program} {usage}");
                std::process::exit(0);
            }
            let Some(key) = arg.strip_prefix("--") else {
                eprintln!("unexpected argument {arg:?}\nusage: {program} {usage}");
                std::process::exit(2);
            };
            let Some(value) = argv.next() else {
                eprintln!("--{key} needs a value\nusage: {program} {usage}");
                std::process::exit(2);
            };
            values.insert(key.to_string(), value);
        }
        Args {
            program,
            values,
            taken: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.taken.borrow_mut().push(key.to_string());
        self.values.get(key).map(|s| s.as_str())
    }

    /// Reports a usage error (`program: msg` on stderr) and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.program);
        std::process::exit(2);
    }

    /// A required `--key value`; exits if missing.
    pub fn require(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| self.fail(&format!("missing required --{key}")))
    }

    /// `--key` parsed as `T` when present; exits on a malformed value.
    pub fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| self.fail(&format!("bad value for --{key}: {raw:?}")))
        })
    }

    /// `--key` parsed as `T`, or `default` when absent; exits on a
    /// malformed value.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.parse_opt(key).unwrap_or(default)
    }

    /// Errors out if any provided key was never consumed (catches typos).
    pub fn finish(&self) {
        let taken = self.taken.borrow();
        if let Some(key) = self.values.keys().find(|key| !taken.contains(key)) {
            self.fail(&format!("unknown option --{key}"));
        }
    }
}
