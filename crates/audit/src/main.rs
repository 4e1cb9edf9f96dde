//! The `zeiot-audit` CLI: audit the workspace, print findings, exit
//! non-zero when a denied rule fires.
//!
//! ```text
//! cargo run -p zeiot-audit -- --deny all
//! cargo run -p zeiot-audit -- --warn d3,h2 --jsonl audit.jsonl
//! cargo run -p zeiot-audit -- --emit-graph graph.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use zeiot_audit::{audit_workspace_full, Action, AuditConfig, Rule, ALL_RULES};

const USAGE: &str = "\
zeiot-audit — workspace determinism & hygiene linter

USAGE: zeiot-audit [--deny all|RULES] [--warn all|RULES] [--off RULES]
                   [--jsonl PATH] [--emit-graph PATH] [--root PATH] [--quiet]

RULES is a comma-separated list of: d1 d2 d3 d4 h1 h2 p1 o1 unused-allow malformed-allow
Every rule defaults to deny. Exit code: 0 clean, 1 denied findings,
2 usage.";

#[derive(Debug)]
struct Cli {
    config: AuditConfig,
    jsonl: Option<PathBuf>,
    emit_graph: Option<PathBuf>,
    root: Option<PathBuf>,
    quiet: bool,
}

fn apply_rules(config: &mut AuditConfig, spec: &str, action: Action) -> Result<(), String> {
    if spec == "all" {
        config.set_all(action);
        return Ok(());
    }
    for id in spec.split(',').filter(|s| !s.is_empty()) {
        let rule = Rule::parse(id).ok_or_else(|| {
            let valid: Vec<&str> = ALL_RULES.iter().map(|r| r.id()).collect();
            format!("unknown rule `{id}` (valid: {})", valid.join(", "))
        })?;
        config.set_action(rule, action);
    }
    Ok(())
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        config: AuditConfig::default(),
        jsonl: None,
        emit_graph: None,
        root: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--deny" => apply_rules(&mut cli.config, &value("--deny")?, Action::Deny)?,
            "--warn" => apply_rules(&mut cli.config, &value("--warn")?, Action::Warn)?,
            "--off" => apply_rules(&mut cli.config, &value("--off")?, Action::Off)?,
            "--jsonl" => cli.jsonl = Some(PathBuf::from(value("--jsonl")?)),
            "--emit-graph" => cli.emit_graph = Some(PathBuf::from(value("--emit-graph")?)),
            "--root" => cli.root = Some(PathBuf::from(value("--root")?)),
            "--quiet" => cli.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Walks upward from the current directory to the workspace root (the
/// directory whose `Cargo.toml` declares `[workspace]`).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let root = match &cli.root {
        Some(r) => r.clone(),
        None => find_root().ok_or("not inside a cargo workspace (pass --root)")?,
    };
    let (report, graph) =
        audit_workspace_full(&root, &cli.config).map_err(|e| format!("audit failed: {e}"))?;

    if let Some(path) = &cli.jsonl {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &cli.emit_graph {
        std::fs::write(path, graph.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let mut denied = 0usize;
    let mut warned = 0usize;
    for f in report.active() {
        let rule = Rule::parse(&f.rule).unwrap_or(Rule::MalformedAllow);
        match cli.config.action(rule) {
            Action::Deny => {
                denied += 1;
                println!("error: {f}");
            }
            Action::Warn => {
                warned += 1;
                println!("warning: {f}");
            }
            Action::Off => {}
        }
    }
    let (active, suppressed) = report.tallies();
    if !cli.quiet {
        println!(
            "audited {} files: {active} active ({denied} denied, {warned} warned), \
             {suppressed} suppressed",
            report.files_scanned
        );
    }
    Ok(if denied > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn deny_warn_off_reconfigure_rules() {
        let cli = parse_cli(&args(&["--warn", "d3,h2", "--off", "d1"])).unwrap();
        assert_eq!(cli.config.action(Rule::D3), Action::Warn);
        assert_eq!(cli.config.action(Rule::H2), Action::Warn);
        assert_eq!(cli.config.action(Rule::D1), Action::Off);
        assert_eq!(cli.config.action(Rule::D2), Action::Deny);
    }

    #[test]
    fn deny_all_is_the_default_and_explicit_form() {
        let default = parse_cli(&[]).unwrap();
        let explicit = parse_cli(&args(&["--deny", "all"])).unwrap();
        for rule in ALL_RULES {
            assert_eq!(default.config.action(rule), Action::Deny);
            assert_eq!(explicit.config.action(rule), Action::Deny);
        }
    }

    #[test]
    fn graph_flag_parses() {
        let cli = parse_cli(&args(&["--emit-graph", "g.json"])).unwrap();
        assert_eq!(cli.emit_graph, Some(PathBuf::from("g.json")));
        assert!(parse_cli(&args(&["--deny", "p1,o1,d4"])).is_ok());
        assert!(parse_cli(&args(&["--no-baseline"])).is_err());
    }

    #[test]
    fn unknown_rules_and_flags_list_alternatives() {
        let err = parse_cli(&args(&["--deny", "d9"])).unwrap_err();
        assert!(err.contains("unknown rule") && err.contains("d1"));
        let err = parse_cli(&args(&["--frob"])).unwrap_err();
        assert!(err.contains("unknown flag") && err.contains("--deny"));
    }
}
