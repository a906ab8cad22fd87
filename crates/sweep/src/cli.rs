//! One declarative flag table per binary, and the one argv parser that
//! reads it. A binary states each [`Flag`] once; [`Cli`] parses argv
//! against its table and shared ones (an earlier entry shadows a later
//! one of the same name). `--f v` equals `--f=v`; an unknown,
//! duplicated, value-less or malformed flag prints `error: …` and the
//! usage on stderr and exits 2; `--help`/`-h` prints the usage on
//! stdout and exits 0. Values are stored canonically (`--seed 09` reads
//! back as `9`) and [`Cli::spec`] derives a [`SweepSpec`] from every
//! result-affecting flag, so a cache key cannot leave one out.

use std::str::FromStr;

use crate::spec::SweepSpec;

/// How a flag appears on the command line.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Switch,
    Value(Ty),
    Repeated(Ty),
    /// Everything after a bare `--`, unparsed.
    Rest,
}

/// What a value must look like.
#[derive(Debug, Clone, Copy)]
pub enum Ty {
    /// A decimal integer no smaller than the bound.
    Int(u64),
    /// A floating-point number.
    Num,
    /// Comma-separated values of the inner type.
    List(&'static Ty),
    /// One of the listed words.
    OneOf(&'static [&'static str]),
    /// Any text; the string names it in the usage.
    Text(&'static str),
}

impl Ty {
    /// The placeholder shown in the usage.
    fn meta(self) -> String {
        match self {
            Ty::Int(_) => "N".into(),
            Ty::Num => "X".into(),
            Ty::List(item) => format!("{},...", item.meta()),
            Ty::OneOf(words) => words.join("|"),
            Ty::Text(meta) => meta.into(),
        }
    }

    /// What a value must be, for error messages.
    fn expects(self) -> String {
        match self {
            Ty::Int(0) => "an integer".into(),
            Ty::Int(1) => "a positive integer".into(),
            Ty::Int(min) => format!("an integer >= {min}"),
            Ty::Num => "a number".into(),
            Ty::List(item) => format!("comma-separated values, each {}", item.expects()),
            Ty::OneOf(_) | Ty::Text(_) => self.meta(),
        }
    }

    /// `raw` in canonical form, or `None` when it is not of this type.
    fn canonical(self, raw: &str) -> Option<String> {
        match self {
            Ty::Int(min) => raw.parse::<u64>().ok().filter(|&v| v >= min).map(|v| v.to_string()),
            Ty::Num => raw.parse::<f64>().ok().map(|v| v.to_string()),
            Ty::List(item) => {
                let items: Option<Vec<String>> = raw.split(',').map(|s| item.canonical(s.trim())).collect();
                items.map(|v| v.join(","))
            }
            Ty::OneOf(words) => words.contains(&raw).then(|| raw.to_string()),
            Ty::Text(_) => Some(raw.to_string()),
        }
    }
}

/// One entry of a binary's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    paper: Option<&'static str>,
    affects_results: bool,
}

impl Flag {
    const fn new(name: &'static str, kind: Kind, default: Option<&'static str>) -> Flag {
        Flag { name, kind, default, paper: None, affects_results: true }
    }

    /// A switch: on when present.
    pub const fn switch(name: &'static str) -> Flag {
        Flag::new(name, Kind::Switch, None)
    }

    /// A value flag with a default.
    pub const fn value(name: &'static str, ty: Ty, default: &'static str) -> Flag {
        Flag::new(name, Kind::Value(ty), Some(default))
    }

    /// An integer flag (no lower bound) with a default.
    pub const fn int(name: &'static str, default: &'static str) -> Flag {
        Flag::value(name, Ty::Int(0), default)
    }

    /// A value flag that is absent unless given.
    pub const fn optional(name: &'static str, ty: Ty) -> Flag {
        Flag::new(name, Kind::Value(ty), None)
    }

    /// A value flag that may be given any number of times.
    pub const fn repeated(name: &'static str, ty: Ty) -> Flag {
        Flag::new(name, Kind::Repeated(ty), None)
    }

    /// The arguments after a bare `--`, named `meta` in the usage.
    pub const fn rest(meta: &'static str) -> Flag {
        Flag::new(meta, Kind::Rest, None)
    }

    /// The value `--paper-scale` selects when the flag is absent.
    pub const fn paper(self, value: &'static str) -> Flag {
        Flag { paper: Some(value), ..self }
    }

    /// Keep a flag that only schedules or observes the work out of specs.
    pub const fn result_neutral(self) -> Flag {
        Flag { affects_results: false, ..self }
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    program: String,
    flags: Vec<Flag>,
    /// Per flag: the given values, else the paper-scale or default
    /// value; empty when absent. A switch that is on holds `""`.
    values: Vec<Vec<String>>,
}

impl Cli {
    /// Parse the process arguments against `tables`, exiting on
    /// `--help` or a bad command line.
    pub fn from_env(tables: &[&[Flag]]) -> Cli {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let program = std::path::Path::new(&program).file_stem().unwrap_or_default().to_string_lossy();
        let args: Vec<String> = argv.collect();
        if args.iter().take_while(|a| *a != "--").any(|a| a == "--help" || a == "-h") {
            println!("{}", usage(&program, &merge(tables)));
            std::process::exit(0);
        }
        Cli::parse(&program, &args, tables).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", usage(&program, &merge(tables)));
            std::process::exit(2)
        })
    }

    /// Parse `args` (without the program name) against `tables`.
    pub fn parse(program: &str, args: &[String], tables: &[&[Flag]]) -> Result<Cli, String> {
        let flags = merge(tables);
        let mut values = vec![Vec::new(); flags.len()];
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if arg == "--" {
                let i = flags.iter().position(|f| matches!(f.kind, Kind::Rest)).ok_or("unexpected argument --")?;
                values[i] = it.by_ref().cloned().collect();
                break;
            }
            let body = arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg}"))?;
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (body, None),
            };
            let i = flags
                .iter()
                .position(|f| f.name == name && !matches!(f.kind, Kind::Rest))
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let ty = match flags[i].kind {
                _ if !values[i].is_empty() && !matches!(flags[i].kind, Kind::Repeated(_)) => {
                    return Err(format!("--{name} given more than once"))
                }
                Kind::Value(ty) | Kind::Repeated(ty) => ty,
                _ if inline.is_some() => return Err(format!("--{name} takes no value")),
                _ => {
                    values[i].push(String::new());
                    continue;
                }
            };
            let raw = inline.or_else(|| it.next_if(|v| !v.starts_with("--")).map(String::as_str));
            let raw = raw.ok_or_else(|| format!("--{name} expects {}", ty.expects()))?;
            values[i].push(ty.canonical(raw).ok_or_else(|| format!("--{name} expects {}, got {raw}", ty.expects()))?);
        }
        let paper_scale = flags.iter().zip(&values).any(|(f, v)| f.name == "paper-scale" && !v.is_empty());
        for (f, v) in flags.iter().zip(&mut values) {
            let fallback = if paper_scale { f.paper.or(f.default) } else { f.default };
            if let (Kind::Value(ty), true, Some(raw)) = (f.kind, v.is_empty(), fallback) {
                v.push(ty.canonical(raw).unwrap_or_else(|| panic!("--{} has a malformed default", f.name)));
            }
        }
        Ok(Cli { program: program.to_string(), flags, values })
    }

    /// The binary's file stem (`table9`, `fig1`, …).
    pub fn program(&self) -> &str {
        &self.program
    }

    /// Whether the tables declare `name`.
    pub fn declares(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f.name == name)
    }

    /// Every value of a declared flag, in command-line order (`[""]`
    /// for a switch that is on).
    pub fn all(&self, name: &str) -> &[String] {
        let i = self.flags.iter().position(|f| f.name == name);
        &self.values[i.unwrap_or_else(|| panic!("--{name} is not in {}'s flag table", self.program))]
    }

    /// Whether a switch is on.
    pub fn on(&self, name: &str) -> bool {
        !self.all(name).is_empty()
    }

    /// A value flag's resolved value, `None` when absent without a
    /// default.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.all(name).first().map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} {v} does not fit its type")))
    }

    /// A value flag's resolved value; panics if it has none.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name).unwrap_or_else(|| panic!("--{name} has no default"))
    }

    /// A list flag's items.
    pub fn list<T: FromStr>(&self, name: &str) -> Vec<T> {
        let text: String = self.get(name);
        text.split(',').map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} {v} does not fit its type"))).collect()
    }

    /// Reject a command line the flag types cannot rule out, as a parse
    /// error does.
    pub fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("error: {msg}\n{}", usage(&self.program, &self.flags));
        std::process::exit(2)
    }

    /// The spec this command line describes: every result-affecting
    /// flag's resolved value becomes an arg (a switch only when on),
    /// except `runs`, whose value the caller passes as the run count.
    pub fn spec(&self, experiment: &str, runs: usize) -> SweepSpec {
        let mut spec = SweepSpec::new(experiment, runs);
        for (f, v) in self.flags.iter().zip(&self.values) {
            if f.affects_results && f.name != "runs" && !v.is_empty() {
                spec = spec.arg(f.name, v.join(","));
            }
        }
        spec
    }
}

/// The tables flattened in order, each name kept at its first entry.
fn merge(tables: &[&[Flag]]) -> Vec<Flag> {
    let mut flags: Vec<Flag> = Vec::new();
    for f in tables.iter().flat_map(|t| t.iter()) {
        if !flags.iter().any(|g| g.name == f.name) {
            flags.push(*f);
        }
    }
    flags
}

/// The usage line, then each flag with its default and paper value.
fn usage(program: &str, flags: &[Flag]) -> String {
    let synopsis = |f: &Flag| match f.kind {
        Kind::Switch => format!("--{}", f.name),
        Kind::Value(ty) | Kind::Repeated(ty) => format!("--{} {}", f.name, ty.meta()),
        Kind::Rest => format!("-- {}...", f.name),
    };
    let mut out = format!("usage: {program}");
    for f in flags {
        out += &format!(" [{}]", synopsis(f));
    }
    for f in flags {
        let default = f.default.map(|d| format!("default {d}")).unwrap_or_default();
        let paper = f.paper.map(|p| format!("; --paper-scale {p}")).unwrap_or_default();
        out += format!("\n  {:<28} {default}{paper}", synopsis(f)).trim_end();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::value("runs", Ty::Int(1), "40").paper("10000"),
        Flag::value("seed", Ty::Int(0), "55"),
        Flag::value("load", Ty::List(&Ty::Num), "0"),
        Flag::value("route", Ty::OneOf(&["fixed", "ecmp"]), "fixed"),
        Flag::switch("link-stats"),
        Flag::repeated("pair", Ty::Text("K=V")),
    ];
    const SHARED: &[Flag] = &[
        Flag::switch("paper-scale").result_neutral(),
        Flag::optional("trace", Ty::Text("PATH")).result_neutral(),
        Flag::value("seed", Ty::Int(0), "1"),
    ];

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::parse("t", &args, &[FLAGS, SHARED])
    }

    #[test]
    fn defaults_paper_scale_and_both_value_forms() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.get::<usize>("runs"), 40);
        assert_eq!(cli.get::<u64>("seed"), 55, "the first table shadows the shared one");
        assert_eq!(cli.opt::<String>("trace"), None);
        assert!(!cli.on("link-stats"));
        let cli = parse(&["--paper-scale", "--seed=09", "--load", "0, .5", "--link-stats"]).unwrap();
        assert_eq!(cli.get::<usize>("runs"), 10_000);
        assert_eq!(cli.get::<u64>("seed"), 9);
        assert_eq!(cli.list::<f64>("load"), vec![0.0, 0.5]);
        assert!(cli.on("link-stats"));
        let cli = parse(&["--runs=3", "--paper-scale", "--pair", "a=1", "--pair=b=2"]).unwrap();
        assert_eq!(cli.get::<usize>("runs"), 3, "an explicit size beats the preset");
        assert_eq!(cli.all("pair"), ["a=1", "b=2"]);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for (args, msg) in [
            (&["--runz", "3"][..], "unknown flag --runz"),
            (&["--runs"][..], "--runs expects a positive integer"),
            (&["--runs", "--seed", "3"][..], "--runs expects a positive integer"),
            (&["--runs", "0"][..], "--runs expects a positive integer, got 0"),
            (&["--runs", "7", "--runs", "9"][..], "--runs given more than once"),
            (&["--paper-scale=1"][..], "--paper-scale takes no value"),
            (&["--route", "random"][..], "--route expects fixed|ecmp, got random"),
            (&["--load", "0,high"][..], "--load expects comma-separated values, each a number"),
            (&["7"][..], "unexpected argument 7"),
            (&["--", "x"][..], "unexpected argument --"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(msg), "{args:?}: {err}");
        }
    }

    #[test]
    fn rest_is_passed_through_unparsed() {
        let table = [Flag::switch("list"), Flag::rest("ARGS")];
        let args: Vec<String> = ["--list", "--", "--runz", "x"].iter().map(|s| s.to_string()).collect();
        let cli = Cli::parse("sweep", &args, &[&table]).unwrap();
        assert!(cli.on("list"));
        assert_eq!(cli.all("ARGS"), ["--runz", "x"]);
    }

    #[test]
    fn spec_records_result_flags_in_canonical_form() {
        let spec = parse(&["--seed", "007", "--load", "0,0.50", "--trace", "t.json"]).unwrap().spec("t", 40);
        assert_eq!(
            spec.canonical_json(),
            r#"{"experiment":"t","runs":40,"args":{"load":"0,0.5","route":"fixed","seed":"7"}}"#
        );
        let on = parse(&["--link-stats", "--pair", "a=1"]).unwrap().spec("t", 40);
        assert_eq!(on.args["link-stats"], "");
        assert_eq!(on.args["pair"], "a=1");
    }

    #[test]
    fn help_lists_every_flag_with_its_defaults() {
        let text = usage("t", &merge(&[FLAGS, SHARED]));
        assert!(text.starts_with("usage: t [--runs N] [--seed N]"), "{text}");
        assert!(text.contains("--runs N"), "{text}");
        assert!(text.contains("default 40; --paper-scale 10000\n"), "{text}");
        assert_eq!(text.lines().count(), 1 + FLAGS.len() + 2);
    }
}
