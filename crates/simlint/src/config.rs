//! `simlint.toml` parsing, on the workspace's TOML-subset parser
//! ([`simkit::toml`]): two sections of single-line string arrays.

use std::path::Path;

use simkit::toml;
use simkit::toml::Kind;
use simkit::toml::TomlError;

use crate::LintError;

/// Which crates each rule family applies to, by package name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// D01 (wall-clock), D02 (unseeded randomness), D03 (hash-order
    /// iteration) apply to these crates' library sources.
    pub simulation: Vec<String>,
    /// D04 (raw `std::fs` / device bypass) applies to these.
    pub metered: Vec<String>,
    /// D05 (`unwrap`/`expect`, `#[non_exhaustive]` error enums) applies to
    /// these.
    pub library: Vec<String>,
    /// Crates allowed to call `obs::event::emit` directly; D06 reports
    /// emission anywhere else.
    pub events: Vec<String>,
    /// Report/table crates: D09 flags hash-ordered types flowing through
    /// pub fn signatures or struct fields of any crate these (transitively)
    /// depend on — hash order leaking across a crate boundary into a table
    /// is exactly the nondeterminism D03 exists to stop, one hop removed.
    pub report: Vec<String>,
    /// Crates whose library code runs experiments on a thread pool
    /// (`bench::pool`): D08 flags thread-shared mutable statics anywhere
    /// reachable from these through `[dependencies]`, because `--jobs N`
    /// byte-identity relies on every job seeing virgin per-thread state.
    pub jobs: Vec<String>,
    /// Unmetered escape-hatch fns (`Type::name`), audited by D07: calling
    /// one outside [`Config::unmetered_allow`] is a diagnostic. Fns tagged
    /// `// simlint: unmetered` at their definition are audited too.
    pub unmetered: Vec<String>,
    /// D07 allowlist entries, `<workspace-relative-path>::<fn-name>`: the
    /// functions permitted to call the escape hatches.
    pub unmetered_allow: Vec<String>,
}

impl Config {
    /// The workspace's checked-in policy; used when `simlint.toml` is
    /// absent so the pass still runs with sane coverage.
    pub fn workspace_default() -> Config {
        let v = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        Config {
            simulation: v(&[
                "simkit",
                "blockdev",
                "raid",
                "tape",
                "nvram",
                "wafl",
                "backup-core",
                "workload",
                "obs",
                "wafl-backup",
            ]),
            metered: v(&["blockdev", "raid", "tape", "nvram", "wafl", "backup-core"]),
            events: v(&[
                "blockdev",
                "raid",
                "tape",
                "nvram",
                "wafl",
                "backup-core",
                "obs",
            ]),
            library: v(&[
                "simkit",
                "blockdev",
                "raid",
                "tape",
                "nvram",
                "wafl",
                "backup-core",
                "workload",
                "obs",
                "wafl-backup",
                "simlint",
            ]),
            report: v(&["bench"]),
            jobs: v(&["bench"]),
            unmetered: v(&["SimDisk::peek", "SimDisk::poke"]),
            unmetered_allow: v(&["crates/raid/src/group.rs::materialize_parity"]),
        }
    }

    /// Loads `simlint.toml` from `root`, falling back to the built-in
    /// policy when the file does not exist.
    pub fn load(root: &Path) -> Result<Config, LintError> {
        let path = root.join("simlint.toml");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Config::workspace_default())
            }
            Err(e) => return Err(LintError::io(&path, e)),
        };
        parse(&text).map_err(|e| LintError::Config {
            path: path.display().to_string(),
            reason: e.to_string(),
        })
    }
}

/// Parses the config text. Recognized shape:
///
/// ```toml
/// [crates]
/// simulation = ["simkit", "wafl"]
/// metered = ["wafl"]
/// library = ["wafl"]
/// events = ["wafl", "obs"]
/// report = ["bench"]
/// jobs = ["bench"]
///
/// [escape_hatch]
/// unmetered = ["SimDisk::peek"]
/// allow = ["crates/raid/src/group.rs::materialize_parity"]
/// ```
fn parse(text: &str) -> Result<Config, TomlError> {
    let mut config = Config {
        simulation: Vec::new(),
        metered: Vec::new(),
        library: Vec::new(),
        events: Vec::new(),
        report: Vec::new(),
        jobs: Vec::new(),
        unmetered: Vec::new(),
        unmetered_allow: Vec::new(),
    };
    let mut section = "";
    for item in toml::items(text) {
        let item = item?;
        let err = |reason: String| TomlError::at(item.line, reason);
        let (key, value) = match item.kind {
            Kind::Table(name @ ("crates" | "escape_hatch")) => {
                section = name;
                continue;
            }
            Kind::Table(name) | Kind::ArrayTable(name) => {
                return Err(err(format!(
                    "unknown section [{name}] (only [crates] and [escape_hatch] are recognized)"
                )))
            }
            Kind::Pair(key, value) => (key, value),
        };
        let list = value
            .list(|v| v.str().map(str::to_string))
            .map_err(|_| err("expected a single-line string array".into()))?;
        match (section, key) {
            ("crates", "simulation") => config.simulation = list,
            ("crates", "metered") => config.metered = list,
            ("crates", "library") => config.library = list,
            ("crates", "events") => config.events = list,
            ("crates", "report") => config.report = list,
            ("crates", "jobs") => config.jobs = list,
            ("escape_hatch", "unmetered") => config.unmetered = list,
            ("escape_hatch", "allow") => config.unmetered_allow = list,
            (_, other) => return Err(err(format!("unknown key `{other}`"))),
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_recognized_shape() {
        let c = parse(
            "# policy\n[crates]\nsimulation = [\"simkit\", \"wafl\"] # trailing\nmetered = [\"wafl\"]\nlibrary = [\"wafl\",]\nevents = [\"wafl\", \"obs\"]\nreport = [\"bench\"]\njobs = [\"bench\"]\n\n[escape_hatch]\nunmetered = [\"SimDisk::peek\"]\nallow = [\"crates/raid/src/group.rs::materialize_parity\"]\n",
        )
        .unwrap();
        assert_eq!(c.simulation, vec!["simkit", "wafl"]);
        assert_eq!(c.metered, vec!["wafl"]);
        assert_eq!(c.library, vec!["wafl"]);
        assert_eq!(c.events, vec!["wafl", "obs"]);
        assert_eq!(c.report, vec!["bench"]);
        assert_eq!(c.jobs, vec!["bench"]);
        assert_eq!(c.unmetered, vec!["SimDisk::peek"]);
        assert_eq!(
            c.unmetered_allow,
            vec!["crates/raid/src/group.rs::materialize_parity"]
        );
    }

    #[test]
    fn rejects_unknown_keys_and_sections() {
        assert!(parse("[crates]\nbogus = [\"x\"]\n").is_err());
        assert!(parse("[other]\nsimulation = [\"x\"]\n").is_err());
        assert!(parse("[crates]\nsimulation = 3\n").is_err());
    }

    #[test]
    fn default_covers_every_workspace_crate_family() {
        let c = Config::workspace_default();
        assert!(c.simulation.iter().any(|n| n == "wafl"));
        assert!(c.metered.iter().any(|n| n == "backup-core"));
        assert!(c.library.iter().any(|n| n == "simlint"));
        assert!(c.events.iter().any(|n| n == "obs"));
        assert!(!c.events.iter().any(|n| n == "bench"));
        assert_eq!(c.report, vec!["bench"]);
        assert_eq!(c.jobs, vec!["bench"]);
        assert!(c.unmetered.iter().any(|n| n == "SimDisk::poke"));
        assert_eq!(c.unmetered_allow.len(), 1);
    }
}
