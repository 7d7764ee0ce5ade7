//! The runtime configuration: every `MAXSON_*` variable the system reads.
//!
//! The knobs are declared once, in the `config!` table below. The
//! [`Config`] struct, its defaults, the resolution from an environment
//! ([`Config::from_lookup`], [`Config::from_env`]), the one-line rendering
//! benches print ([`Config::describe`]) and the rows of README's knob table
//! ([`Config::knobs`]) all expand from that table. [`Config::from_env`] is
//! the only place the process environment is read at run time: a session
//! resolves its configuration once, at [`crate::Session::open`], keeps it
//! ([`crate::Session::config`]), and hands typed values to the layers below
//! it — the footer cache gets its byte budget, the executor a thread count.
//!
//! A variable that is unset, or set to a value its row cannot parse,
//! resolves to the row's default.

use std::path::PathBuf;
use std::time::Duration;

use maxson_storage::metacache::DEFAULT_META_CACHE_BYTES;

use crate::expr::JsonParserKind;

/// A set value, or `off` when none is.
fn or_off<T: ToString>(value: Option<T>) -> String {
    value.map_or_else(|| "off".to_string(), |v| v.to_string())
}

/// A non-empty value as a path.
fn path(value: &str) -> Option<Option<PathBuf>> {
    (!value.is_empty()).then(|| Some(PathBuf::from(value)))
}

/// The one declaration of the runtime knobs. Each row is
/// `"VARIABLE" => field: type = default, parse, show, help;` where `parse`
/// turns a raw value into the field (`None` = keep the default) and `show`
/// renders a resolved value for [`Config::describe`] and README.
macro_rules! config {
    ($($var:literal => $field:ident: $ty:ty = $default:expr,
        $parse:expr, $show:expr, $help:literal;)*) => {
        /// The resolved `MAXSON_*` knobs a session runs under.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Config {
            $(
                #[doc = concat!("`", $var, "`: ", $help)]
                pub $field: $ty,
            )*
        }

        impl Default for Config {
            /// Every knob at its declared default: what an empty
            /// environment resolves to.
            fn default() -> Self {
                Config { $($field: $default,)* }
            }
        }

        impl Config {
            /// Resolve every knob through `lookup` (variable name → raw
            /// value). Tests pass a closure over a fixed list, so resolution
            /// never touches the process environment.
            pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Config {
                Config {
                    $($field: {
                        let parse: fn(&str) -> Option<$ty> = $parse;
                        lookup($var).and_then(|raw| parse(&raw)).unwrap_or_else(|| $default)
                    },)*
                }
            }

            /// The resolved set as one line, `field=value` per knob in
            /// declaration order.
            pub fn describe(&self) -> String {
                let fields: Vec<String> = vec![$({
                    let show: fn(&$ty) -> String = $show;
                    format!("{}={}", stringify!($field), show(&self.$field))
                },)*];
                fields.join(" ")
            }

            /// The declaration's rows, `(variable, default, help)` in
            /// declaration order — the rows of README's knob table.
            pub fn knobs() -> Vec<(&'static str, String, &'static str)> {
                let defaults = Config::default();
                vec![$({
                    let show: fn(&$ty) -> String = $show;
                    ($var, show(&defaults.$field), $help)
                },)*]
            }
        }
    };
}

config! {
    // "VARIABLE" => field: type = default, parse, show, help;
    "MAXSON_THREADS" => threads: Option<usize> = None,
        |v| v.trim().parse().ok().filter(|&n: &usize| n >= 1).map(Some),
        |t| t.map_or_else(|| "auto".to_string(), |n| n.to_string()),
        "worker threads for split-parallel execution and the cache build; `auto` = one per available core, resolved once when the session opens; `1` runs split tasks inline on the calling thread.";
    "MAXSON_PARSER" => parser: JsonParserKind = JsonParserKind::Jackson,
        JsonParserKind::from_name,
        |p| p.name().to_string(),
        "JSON parser behind `get_json_object`: `jackson` (DOM), `mison` (structural index) or `tape` (on-demand projection walk), case-insensitive; a session runs the parser it was opened with.";
    "MAXSON_META_CACHE_BYTES" => meta_cache_bytes: u64 = DEFAULT_META_CACHE_BYTES,
        |v| v.trim().parse().ok(),
        |b| b.to_string(),
        "byte budget of the footer cache, shared by every session cloned from one; least-recently-used files are evicted past it, `0` keeps nothing resident.";
    "MAXSON_TRACE" => trace: Option<PathBuf> = None,
        path,
        |p| or_off(p.as_ref().map(|p| p.display())),
        "file the Chrome trace-event JSON is rewritten to after every execute (tracing on); unset = off.";
    "MAXSON_QUERY_LOG" => query_log: Option<PathBuf> = None,
        path,
        |p| or_off(p.as_ref().map(|p| p.display())),
        "file one JSONL line per executed query is appended to (fingerprint, config, counters, `slow` flag); sessions cloned from one `Session` share the handle; unset = off.";
    "MAXSON_SLOW_MS" => slow_threshold: Duration = Duration::from_millis(1000),
        |v| v.trim().parse().ok().map(Duration::from_millis),
        |d| format!("{}ms", d.as_millis()),
        "wall-time threshold in milliseconds for the query log's `slow` flag and the `maxson_slow_queries_total` counter.";
    "MAXSON_RESULT_CACHE_MB" => result_cache_mb: Option<u64> = None,
        |v| v.trim().parse().ok().map(|mb: u64| (mb > 0).then_some(mb)),
        |mb| or_off(mb.map(|mb| format!("{mb}MiB"))),
        "byte budget in MiB of the cross-query reuse cache, shared by every session cloned from one; unset or `0` = no reuse cache.";
}

impl Config {
    /// Resolve every knob from the process environment — the one run-time
    /// read of it in the engine, storage, json, maxson and server crates.
    pub fn from_env() -> Config {
        Config::from_lookup(|name| std::env::var(name).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lookup over fixed `(variable, value)` pairs.
    fn resolve(vars: &[(&str, &str)]) -> Config {
        Config::from_lookup(|name| {
            vars.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn unset_resolves_every_knob_to_its_default() {
        assert_eq!(resolve(&[]), Config::default());
        let d = Config::default();
        assert_eq!(d.threads, None);
        assert_eq!(d.parser, JsonParserKind::Jackson);
        assert_eq!(d.meta_cache_bytes, DEFAULT_META_CACHE_BYTES);
        assert_eq!((d.trace, d.query_log), (None, None));
        assert_eq!(d.slow_threshold, Duration::from_millis(1000));
        assert_eq!(d.result_cache_mb, None);
    }

    /// Every row: a valid value resolves to exactly that field changed, a
    /// garbage one keeps the default.
    #[test]
    fn valid_values_resolve_and_garbage_keeps_the_default() {
        let set = |edit: fn(&mut Config)| {
            let mut config = Config::default();
            edit(&mut config);
            config
        };
        #[rustfmt::skip]
        let rows = [
            ("MAXSON_THREADS", " 4 ", "0", set(|c| c.threads = Some(4))),
            ("MAXSON_PARSER", "TAPE", "simdjson", set(|c| c.parser = JsonParserKind::Tape)),
            ("MAXSON_META_CACHE_BYTES", "4096", "lots", set(|c| c.meta_cache_bytes = 4096)),
            ("MAXSON_TRACE", "t.json", "", set(|c| c.trace = Some("t.json".into()))),
            ("MAXSON_QUERY_LOG", "q.jsonl", "", set(|c| c.query_log = Some("q.jsonl".into()))),
            ("MAXSON_SLOW_MS", "25", "-1", set(|c| c.slow_threshold = Duration::from_millis(25))),
            ("MAXSON_RESULT_CACHE_MB", "32", "big", set(|c| c.result_cache_mb = Some(32))),
        ];
        assert_eq!(rows.len(), Config::knobs().len(), "one case per row");
        for (var, valid, garbage, expected) in rows {
            assert_eq!(resolve(&[(var, valid)]), expected, "{var}={valid:?}");
            assert_eq!(
                resolve(&[(var, garbage)]),
                Config::default(),
                "{var}={garbage:?}"
            );
        }
    }

    #[test]
    fn result_cache_zero_is_off() {
        assert_eq!(
            resolve(&[("MAXSON_RESULT_CACHE_MB", "0")]).result_cache_mb,
            None
        );
    }

    #[test]
    fn names_are_unique_and_every_row_has_help() {
        let knobs = Config::knobs();
        let mut names: Vec<&str> = knobs.iter().map(|(var, _, _)| *var).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), knobs.len(), "a variable is declared twice");
        for (var, default, help) in &knobs {
            assert!(var.starts_with("MAXSON_"), "{var}");
            assert!(!default.is_empty() && !help.trim().is_empty(), "{var}");
        }
    }

    #[test]
    fn describe_names_every_field_once() {
        let line = resolve(&[("MAXSON_THREADS", "2"), ("MAXSON_RESULT_CACHE_MB", "8")]).describe();
        assert_eq!(
            line,
            "threads=2 parser=jackson meta_cache_bytes=268435456 trace=off \
             query_log=off slow_threshold=1000ms result_cache_mb=8MiB"
        );
    }

    /// README's knob table is the declaration, rendered. On a mismatch the
    /// failure message is the block to paste between the markers.
    #[test]
    fn readme_knob_table_matches_the_declaration() {
        let mut rendered = String::from("| Variable | Default | Meaning |\n|---|---|---|\n");
        for (var, default, help) in Config::knobs() {
            rendered.push_str(&format!("| `{var}` | `{default}` | {help} |\n"));
        }
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md");
        let (begin, end) = ("<!-- knob-table:begin -->\n", "<!-- knob-table:end -->");
        let block = readme
            .split_once(begin)
            .and_then(|(_, rest)| rest.split_once(end))
            .map(|(block, _)| block)
            .expect("README.md has the knob-table markers");
        assert!(
            block == rendered,
            "README knob table is stale; replace the block between the markers with:\n{rendered}"
        );
    }
}
