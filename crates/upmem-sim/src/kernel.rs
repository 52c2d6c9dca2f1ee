//! DPU program model.
//!
//! Real UPMEM DPU programs are C compiled to the DPU ISA and loaded into
//! IRAM as ELF images. The virtualization layer never inspects those
//! instructions — it only loads images and launches them — so this
//! reproduction represents a DPU program as a Rust [`DpuKernel`]: an SPMD
//! entry point run by every tasklet, with explicit MRAM↔WRAM staging and
//! cycle accounting (see [`crate::dpu`]).
//!
//! A [`KernelImage`] is the loadable artifact (name, IRAM footprint, host
//! symbols); the [`KernelRegistry`] plays the role of the filesystem the
//! host-side `dpu_load` reads binaries from.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use simkit::sync::RwLock;
use simkit::LockLevel;

use crate::dpu::DpuContext;
use crate::error::{DpuFault, SimError};

/// A host-visible symbol exported by a DPU program (`__host` variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolDef {
    /// Symbol name, e.g. `"zero_count"`.
    pub name: String,
    /// Size in bytes.
    pub size: usize,
}

impl SymbolDef {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: impl Into<String>, size: usize) -> Self {
        SymbolDef { name: name.into(), size }
    }

    /// A 4-byte symbol.
    #[must_use]
    pub fn u32(name: impl Into<String>) -> Self {
        SymbolDef::new(name, 4)
    }

    /// An 8-byte symbol.
    #[must_use]
    pub fn u64(name: impl Into<String>) -> Self {
        SymbolDef::new(name, 8)
    }
}

/// The loadable artifact of a DPU program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelImage {
    /// Program name; the key `dpu_load` looks up in the [`KernelRegistry`].
    pub name: String,
    /// Simulated IRAM footprint in bytes (checked against IRAM capacity).
    pub iram_bytes: usize,
    /// Host symbols the image exports.
    pub symbols: Vec<SymbolDef>,
}

impl KernelImage {
    /// Creates an image with the given name and footprint.
    #[must_use]
    pub fn new(name: impl Into<String>, iram_bytes: usize) -> Self {
        KernelImage { name: name.into(), iram_bytes, symbols: Vec::new() }
    }

    /// Adds a host symbol (builder style).
    #[must_use]
    pub fn with_symbol(mut self, def: SymbolDef) -> Self {
        self.symbols.push(def);
        self
    }
}

/// An SPMD DPU program.
///
/// Implementations describe their loadable [`KernelImage`] and provide the
/// entry point executed on launch. The entry point structures its work as
/// barrier-delimited parallel phases via [`DpuContext::parallel`].
///
/// # Example
///
/// ```
/// use upmem_sim::{DpuContext, DpuKernel};
/// use upmem_sim::kernel::{KernelImage, SymbolDef};
/// use upmem_sim::error::DpuFault;
///
/// struct Zeroes;
///
/// impl DpuKernel for Zeroes {
///     fn image(&self) -> KernelImage {
///         KernelImage::new("zeroes", 2048).with_symbol(SymbolDef::u32("count"))
///     }
///     fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
///         ctx.parallel(|t| {
///             t.charge(10);
///             Ok(())
///         })
///     }
/// }
/// ```
pub trait DpuKernel: Send + Sync {
    /// The loadable image for this program.
    fn image(&self) -> KernelImage;

    /// The SPMD entry point, executed once per launch.
    ///
    /// # Errors
    ///
    /// Returns a [`DpuFault`] to put the DPU in the FAULT state, exactly as
    /// a hardware fault would surface through the control interface.
    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault>;
}

/// The registry `dpu_load` resolves program names against.
///
/// Plays the role of the filesystem holding DPU ELF binaries.
#[derive(Clone)]
pub struct KernelRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<dyn DpuKernel>>>>,
}

impl fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.inner.read().keys().cloned().collect();
        f.debug_struct("KernelRegistry").field("kernels", &names).finish()
    }
}

impl Default for KernelRegistry {
    fn default() -> Self {
        KernelRegistry::new()
    }
}

impl KernelRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        KernelRegistry { inner: Arc::new(RwLock::new(LockLevel::Kernels, 0, HashMap::new())) }
    }

    /// Registers a kernel under its image name, replacing any previous
    /// kernel of the same name (like overwriting a binary on disk).
    pub fn register(&self, kernel: Arc<dyn DpuKernel>) {
        let name = kernel.image().name.clone();
        self.inner.write().insert(name, kernel);
    }

    /// Looks up a kernel by name.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownKernel`] if no kernel with that name exists.
    pub fn get(&self, name: &str) -> Result<Arc<dyn DpuKernel>, SimError> {
        self.inner
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SimError::UnknownKernel(name.to_string()))
    }

    /// Names of all registered kernels (sorted, for stable output).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl DpuKernel for Nop {
        fn image(&self) -> KernelImage {
            KernelImage::new("nop", 128)
        }
        fn run(&self, _ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            Ok(())
        }
    }

    #[test]
    fn registry_roundtrip() {
        let reg = KernelRegistry::new();
        reg.register(Arc::new(Nop));
        assert!(reg.get("nop").is_ok());
        assert!(matches!(reg.get("missing"), Err(SimError::UnknownKernel(_))));
        assert_eq!(reg.names(), vec!["nop".to_string()]);
    }

    #[test]
    fn registry_replaces_same_name() {
        let reg = KernelRegistry::new();
        reg.register(Arc::new(Nop));
        reg.register(Arc::new(Nop));
        assert_eq!(reg.names().len(), 1);
    }

    #[test]
    fn image_builder() {
        let img = KernelImage::new("k", 1024)
            .with_symbol(SymbolDef::u32("a"))
            .with_symbol(SymbolDef::u64("b"));
        assert_eq!(img.symbols.len(), 2);
        assert_eq!(img.symbols[0].size, 4);
        assert_eq!(img.symbols[1].size, 8);
    }
}
