//! Short-name resolution for devices, backends and networks.
//!
//! The single source of truth for the wire/CLI names; `src/cli.rs`
//! delegates here so the daemon and the one-shot commands agree on both
//! the names and the error messages.

use pruneperf_backends::{AclAuto, AclDirect, AclDirectTuned, AclGemm, ConvBackend, Cudnn, Tvm};
use pruneperf_gpusim::Device;
use pruneperf_models::{alexnet, mobilenet_v1, resnet50, vgg16, Network};

/// A catalog entry: a short name and the constructor it resolves to.
pub type Entry<T> = (&'static str, fn() -> T);

/// The boards by CLI short name, in catalog order. A board's position
/// here is its routing slot ([`crate::admission::worker_for_device`]).
pub(crate) const DEVICES: [Entry<Device>; 4] = [
    ("hikey970", Device::mali_g72_hikey970),
    ("odroidxu4", Device::mali_t628_odroidxu4),
    ("tx2", Device::jetson_tx2),
    ("nano", Device::jetson_nano),
];

/// The backends by wire/CLI short name, in catalog order.
pub(crate) const BACKENDS: [Entry<Box<dyn ConvBackend>>; 6] = [
    ("acl-gemm", || Box::new(AclGemm::new())),
    ("acl-direct", || Box::new(AclDirect::new())),
    ("acl-direct-tuned", || Box::new(AclDirectTuned::new())),
    ("acl-auto", || Box::new(AclAuto::new())),
    ("cudnn", || Box::new(Cudnn::new())),
    ("tvm", || Box::new(Tvm::new())),
];

/// The networks by wire/CLI short name, in `pruneperf networks` order.
/// Positions in this table, the board table and the backend table name
/// the planner's prepared slots.
pub const NETWORKS: [Entry<Network>; 4] = [
    ("resnet50", resnet50),
    ("vgg16", vgg16),
    ("alexnet", alexnet),
    ("mobilenetv1", mobilenet_v1),
];

/// A short name's position in `table`.
///
/// # Errors
///
/// Returns a user-facing message listing the table's names.
fn index_in<T>(table: &[Entry<T>], what: &str, name: &str) -> Result<usize, String> {
    table
        .iter()
        .position(|(short, _)| *short == name)
        .ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(short, _)| *short).collect();
            format!("unknown {what} '{name}' (expected {})", names.join(" | "))
        })
}

/// The CLI short names, paired with their devices.
pub fn named_devices() -> [(&'static str, Device); 4] {
    DEVICES.map(|(short, build)| (short, build()))
}

/// A device short name's position in the catalog, resolving the
/// paper's GPU aliases (`g72`, `t628`).
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub(crate) fn device_index(name: &str) -> Result<usize, String> {
    let resolved = match name {
        "g72" => "hikey970",
        "t628" => "odroidxu4",
        other => other,
    };
    index_in(&DEVICES, "device", resolved)
}

/// Resolves a device short name (with the paper's GPU aliases).
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn device_by_name(name: &str) -> Result<Device, String> {
    let (_, build) = DEVICES[device_index(name)?];
    Ok(build())
}

/// A backend short name's position in [`BACKENDS`].
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub(crate) fn backend_index(name: &str) -> Result<usize, String> {
    index_in(&BACKENDS, "backend", name)
}

/// Resolves a backend short name.
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn backend_by_name(name: &str) -> Result<Box<dyn ConvBackend>, String> {
    let (_, build) = BACKENDS[backend_index(name)?];
    Ok(build())
}

/// A network short name's position in [`NETWORKS`].
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub(crate) fn network_index(name: &str) -> Result<usize, String> {
    index_in(&NETWORKS, "network", name)
}

/// Resolves a network short name.
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn network_by_name(name: &str) -> Result<Network, String> {
    let (_, build) = NETWORKS[network_index(name)?];
    Ok(build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_resolve_to_boards() {
        assert_eq!(
            device_by_name("g72").unwrap().name(),
            device_by_name("hikey970").unwrap().name()
        );
        assert_eq!(
            device_by_name("t628").unwrap().name(),
            device_by_name("odroidxu4").unwrap().name()
        );
        assert!(device_by_name("rtx4090")
            .unwrap_err()
            .contains("unknown device"));
    }

    #[test]
    fn all_catalog_names_resolve() {
        for (short, _) in named_devices() {
            assert!(device_by_name(short).is_ok());
        }
        for b in [
            "acl-gemm",
            "acl-direct",
            "acl-direct-tuned",
            "acl-auto",
            "cudnn",
            "tvm",
        ] {
            assert!(backend_by_name(b).is_ok());
        }
        for n in ["resnet50", "vgg16", "alexnet", "mobilenetv1"] {
            assert!(network_by_name(n).is_ok());
        }
        assert!(backend_by_name("mkl").is_err());
        assert!(network_by_name("lenet").is_err());
    }
}
