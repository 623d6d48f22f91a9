//! Command-line options shared by all experiment binaries.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{registry, EvalContext, Method, Routine};
use stencil_tunestore::TuneService;

use crate::exp::service_at;

/// Environment variable naming the persistent tune-store path every
/// tuning binary honors (`--store <path>` overrides it).
pub const TUNE_STORE_ENV: &str = "INPLANE_TUNE_STORE";

/// Run options parsed from the command line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOpts {
    /// Reduced grid / search space for fast runs.
    pub quick: bool,
    /// Seed for the deterministic measurement noise.
    pub seed: u64,
    /// Directory to write per-experiment CSV data into (`--csv <dir>`).
    pub csv_dir: Option<String>,
    /// Path of the persistent tune store (`--store <path>`, or the
    /// `INPLANE_TUNE_STORE` environment variable).
    pub tune_store: Option<String>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            quick: false,
            seed: 1,
            csv_dir: None,
            tune_store: None,
        }
    }
}

impl RunOpts {
    /// Parse from `std::env::args`-style strings: `--quick`,
    /// `--seed <n>`, `--csv <dir>`, `--store <path>`.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut opts = RunOpts::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed must be an integer");
                }
                "--csv" => {
                    opts.csv_dir = Some(args.next().expect("--csv needs a directory"));
                }
                "--store" => {
                    opts.tune_store = Some(args.next().expect("--store needs a path"));
                }
                _ => {}
            }
        }
        opts
    }

    /// Parse from the process arguments, falling back to
    /// [`TUNE_STORE_ENV`] for the store path when `--store` is absent.
    pub fn from_env() -> Self {
        let mut opts = Self::parse(std::env::args().skip(1));
        if opts.tune_store.is_none() {
            opts.tune_store = std::env::var(TUNE_STORE_ENV).ok().filter(|p| !p.is_empty());
        }
        opts
    }

    /// The persistent tuning service over `ctx` at [`Self::tune_store`],
    /// when one is named: the one service an experiment binary routes
    /// its tuning through, whether the path came from `--store` or the
    /// environment.
    pub fn tune_service(&self, ctx: &Arc<EvalContext>) -> Option<TuneService> {
        self.tune_store.as_deref().and_then(|p| service_at(p, ctx))
    }

    /// The evaluation grid: the paper's 512×512×256, or a quarter-size
    /// grid in quick mode.
    pub fn dims(&self) -> GridDims {
        if self.quick {
            GridDims::new(256, 256, 64)
        } else {
            GridDims::paper()
        }
    }
}

/// The command-line key of a registered device: its name lowercased,
/// the vendor word dropped and spaces removed (`"Radeon HD 7970"` →
/// `hd7970`).
pub fn device_key(device: &DeviceSpec) -> String {
    let name = device.name.to_lowercase();
    let model = name
        .split_once(' ')
        .map_or(name.as_str(), |(_, model)| model);
    model.replace(' ', "")
}

/// Parse a `--device` value: the [`device_key`] of any registered
/// device.
pub fn parse_device(key: &str) -> Option<DeviceSpec> {
    DeviceSpec::all_devices()
        .into_iter()
        .find(|d| device_key(d) == key)
}

/// A routine's short command-line name: its label without the
/// `in-plane/` prefix (`nvstencil`, `full-slice`, ...).
fn routine_name(routine: &dyn Routine) -> String {
    let label = routine.label();
    label
        .strip_prefix("in-plane/")
        .unwrap_or(&label)
        .to_string()
}

/// Parse a `--method` value: a registered routine's full label, its
/// short name, or `forward` for the forward-plane baseline.
pub fn parse_routine(name: &str) -> Option<&'static dyn Routine> {
    if name == "forward" {
        return Some(Method::ForwardPlane.routine());
    }
    registry()
        .iter()
        .copied()
        .find(|rt| rt.label() == name || routine_name(*rt) == name)
}

/// Every device key, `|`-separated, for usage text.
pub fn device_choices() -> String {
    let keys: Vec<String> = DeviceSpec::all_devices().iter().map(device_key).collect();
    keys.join("|")
}

/// Every routine's short name, `|`-separated, for usage text.
pub fn routine_choices() -> String {
    let names: Vec<String> = registry().iter().map(|rt| routine_name(*rt)).collect();
    names.join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_device_and_routine_round_trips() {
        for d in DeviceSpec::all_devices() {
            assert_eq!(parse_device(&device_key(&d)), Some(d.clone()), "{}", d.name);
        }
        for rt in registry() {
            for name in [rt.label(), routine_name(*rt)] {
                assert_eq!(
                    parse_routine(&name).map(|p| p.id()),
                    Some(rt.id()),
                    "{name}"
                );
            }
        }
        assert!(parse_device("warp-drive").is_none());
        assert!(parse_routine("warp-drive").is_none());
    }

    #[test]
    fn legacy_spellings_still_parse() {
        let keys = ["gtx580", "gtx680", "c2070", "hd7970", "rtx3090"];
        assert_eq!(device_choices(), keys.join("|"));
        for key in keys {
            assert!(parse_device(key).is_some(), "{key}");
        }
        for name in [
            "nvstencil",
            "forward",
            "classical",
            "vertical",
            "horizontal",
            "full-slice",
            "double-buffered",
        ] {
            assert!(parse_routine(name).is_some(), "{name}");
        }
        assert_eq!(parse_routine("forward").unwrap().id(), 0);
        assert_eq!(
            routine_choices(),
            "nvstencil|classical|vertical|horizontal|full-slice|double-buffered"
        );
    }

    #[test]
    fn default_is_paper_grid() {
        let o = RunOpts::default();
        assert!(!o.quick);
        assert_eq!(o.dims(), GridDims::paper());
    }

    #[test]
    fn parses_quick_and_seed() {
        let o = RunOpts::parse(["--quick", "--seed", "7"].iter().map(|s| s.to_string()));
        assert!(o.quick);
        assert_eq!(o.seed, 7);
        assert_eq!(o.dims(), GridDims::new(256, 256, 64));
    }

    #[test]
    fn parses_csv_dir() {
        let o = RunOpts::parse(["--csv", "out"].iter().map(|s| s.to_string()));
        assert_eq!(o.csv_dir.as_deref(), Some("out"));
    }

    #[test]
    fn parses_store_path() {
        let o = RunOpts::parse(["--store", "/tmp/s.jsonl"].iter().map(|s| s.to_string()));
        assert_eq!(o.tune_store.as_deref(), Some("/tmp/s.jsonl"));
    }

    #[test]
    fn ignores_unknown_flags() {
        let o = RunOpts::parse(["--whatever"].iter().map(|s| s.to_string()));
        assert_eq!(o, RunOpts::default());
    }

    #[test]
    #[should_panic]
    fn seed_without_value_panics() {
        RunOpts::parse(["--seed"].iter().map(|s| s.to_string()));
    }
}
