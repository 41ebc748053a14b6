//! The instruction set the kernels run on: one detection for the scan's distance kernels
//! ([`crate::kernel`]) and the matrix products ([`crate::kernel_gemm`]), kept in a leaf
//! module so that both can import it without importing each other.

/// Which implementation of the kernels runs. Every form produces the same bits
/// (DESIGN.md §2.2), so this is a fact about the host to report, not a setting to choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable Rust: the oracle every other form is proptested against.
    Portable,
    /// 256-bit lanes, no FMA; x86-64 hosts that report AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// The backend this host's scorers and products use.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
        Backend::Portable
    }

    /// `"portable"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }
}
